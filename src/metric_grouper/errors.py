"""Exception types shared across the package."""


class MetricGrouperError(Exception):
    """Base class for every error this package raises on purpose."""


class FormatError(MetricGrouperError):
    """Malformed input file. The message names the file and line."""


class EmptyError(MetricGrouperError):
    """An input that must contain at least one entry was empty."""


class EmptyPhraseError(MetricGrouperError):
    """A phrase with zero tokens was supplied."""


class UnknownConceptError(MetricGrouperError):
    """A concept id is not present in the taxonomy."""


class ZeroProbabilityError(MetricGrouperError):
    """A concept has zero propagated count, so its information content is undefined."""


class UnknownWordError(MetricGrouperError):
    """A phrase has no usable concept mapping in the taxonomy."""


class InsufficientNegativesError(MetricGrouperError):
    """Fewer incompatible sample combinations exist than negatives requested."""


class DimensionMismatchError(MetricGrouperError):
    """Vector or matrix dimensions do not line up."""


class EmptyContextError(MetricGrouperError):
    """A composition mode that needs context received none."""


class UnknownPhraseError(MetricGrouperError):
    """A phrase does not occur in the corpus."""


class DivergenceError(MetricGrouperError):
    """A parameter became non-finite during training."""


class TooFewPointsError(MetricGrouperError):
    """Fewer points than requested clusters."""


class MissingLabelError(MetricGrouperError):
    """Gold labels required for scoring are absent."""


class MissingModelError(MetricGrouperError):
    """A command that needs a trained model found none."""


class ArtifactMismatchError(MetricGrouperError):
    """An input artifact was produced under a different configuration."""


class ConfigError(MetricGrouperError):
    """Invalid configuration file or option value."""


def reject(path, errors, message, cause=None, kind=FormatError):
    """Report a problem with input file ``path``, the one way every loader does.

    Raises ``kind("path: message")``, or appends ``message`` to ``errors`` when it
    is a list, so that the caller can skip the bad part and go on.
    """
    if errors is None:
        raise kind(f"{path}: {message}") from cause
    errors.append(message)
