"""Run configuration: defaults, INI file, flag overrides, content hash.

A run is fully described by one key/value file with sections. Every
hyperparameter lives in SCHEMA with its parser, default and flag help; a
command-line flag of the same name overrides each key that has help, and
``--seed`` overrides the seed of every section at once. The resolved
configuration hashes to a hex digest that output artifacts embed, so
downstream commands can reject inputs produced under different settings.
Data file paths are deliberately not part of the hash; input files are
checksummed by content in the manifest instead.
"""
from __future__ import annotations

import configparser
import hashlib

from .ablation import parse_combos
from .composition import MODES
from .errors import ConfigError
from .evaluation import METHODS
from .network import ACTIVATIONS, TRAINING_RANGES, TrainConfig


def _parse_int_list(raw):
    raw = raw.strip()
    if not raw:
        return None
    return [int(x) for x in raw.split(",") if x.strip()]


def _parse_opt_int(raw):
    raw = raw.strip()
    return int(raw) if raw else None


def _choice(options):
    def parse(raw):
        value = raw.strip()
        if value not in options:
            raise ValueError(f"must be one of {options}, got {raw!r}")
        return value
    return parse


def _choices(options):
    """Comma-separated, non-empty list of values from ``options``."""
    def parse(raw):
        values = [x.strip() for x in raw.split(",") if x.strip()]
        if not values or any(v not in options for v in values):
            raise ValueError(f"must list values from {options}, got {raw!r}")
        return values
    return parse


def _check(parse, ok, wanted):
    """``parse``, rejecting a value that is not ``ok`` (None, for an empty optional, passes)."""
    def check(raw):
        value = parse(raw)
        if value is not None and not ok(value):
            raise ValueError(f"must be {wanted}, got {raw.strip()!r}")
        return value
    return check


def _positive(parse):
    return _check(parse, lambda v: v >= 1, "at least 1")


_ratio = _check(float, lambda v: 0 <= v <= 1, "between 0 and 1")
_seed = _check(int, *TRAINING_RANGES["seed"])


# section -> key -> (parser, default-as-string, help of the flag named after the key).
# A key whose help is None has no flag of its own: the seeds, which --seed sets
# together, and the split ratios, which only a config file sets.
SCHEMA = {
    "pairs": {
        "eta": (_check(float, lambda v: v > 0, "positive"), "0.3",
                "incompatibility threshold on lexicon similarity"),
        "seed": (_seed, "42", None),
        "max_pos": (_positive(_parse_opt_int), "", "cap on positive pairs (seeded subsample)"),
    },
    "composition": {
        "mode": (_choice(MODES), "attention", "composition mode: " + "|".join(MODES)),
    },
    "network": {
        "output_dim": (_positive(int), "50", "network output width"),
        "layers": (_positive(int), "3", "number of weight layers"),
        "hidden_dims": (_check(_parse_int_list, lambda dims: all(w >= 1 for w in dims),
                               "widths of at least 1"), "",
                        "comma-separated hidden widths (default: geometric)"),
        "activation": (_choice(ACTIVATIONS), "tanh", " or ".join(ACTIVATIONS)),
    },
    "training": {
        "margin_t": (_check(float, *TRAINING_RANGES["margin_t"]), "3.0",
                     "distance margin threshold t"),
        "beta": (_check(float, *TRAINING_RANGES["beta"]), "2.0", "softplus sharpness"),
        "lambda": (_check(float, *TRAINING_RANGES["reg_lambda"]), "0.002",
                   "L2 regularization weight"),
        "learning_rate": (_check(float, *TRAINING_RANGES["learning_rate"]), "0.03",
                          "SGD step size"),
        "epochs": (_check(int, *TRAINING_RANGES["epochs"]), "30", "training epochs"),
        "seed": (_seed, "42", None),
    },
    "clustering": {
        "k": (_positive(_parse_opt_int), "", "cluster count (default: number of gold groups)"),
        "n_init": (_positive(int), "10", "k-means restarts per run"),
        "max_iter": (_positive(int), "100", "k-means iteration cap"),
        "seed": (_seed, "42", None),
    },
    "evaluation": {
        "runs": (_positive(int), "10", "clustering repetitions averaged in reports"),
        "seed": (_seed, "42", None),
        "methods": (_choices(METHODS), "metric,avg,ap",
                    f"comma-separated eval methods ({','.join(METHODS)})"),
    },
    "split": {
        "train_ratio": (_ratio, "0.3", None),
        "test_ratio": (_ratio, "0.5", None),
        "dev_ratio": (_ratio, "0.2", None),
        "seed": (_seed, "42", None),
    },
    "ablation": {
        "combos": (parse_combos, "ap:0:raw,attention:1:trained,attention:3:trained",
                   "ablation combos as mode:layers:trained|raw"),
    },
}

# flag name -> (section, help) for every key with help; "--seed" is the one
# flag more, and sets every section's seed.
FLAGS = {key: (section, spec[2]) for section, keys in SCHEMA.items()
         for key, spec in keys.items() if spec[2] is not None}

SEED_KEYS = [(section, "seed") for section in SCHEMA if "seed" in SCHEMA[section]]


def resolve(config_path=None, overrides=None):
    """Merge defaults, an optional INI file and flag overrides.

    ``overrides`` maps flag names (see FLAGS, plus "seed") to raw
    string values. Returns a nested dict of typed values with a "_raw"
    entry holding the canonical string form used for hashing. Unknown
    sections or keys are configuration errors.
    """
    raw = {section: dict((k, v[1]) for k, v in keys.items())
           for section, keys in SCHEMA.items()}

    if config_path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(config_path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{config_path}: not valid UTF-8") from exc
        except configparser.Error as exc:
            raise ConfigError(f"{config_path}: {exc}") from exc
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"{config_path}: unknown section [{section}]")
            for key, value in parser.items(section):
                if key not in SCHEMA[section]:
                    raise ConfigError(f"{config_path}: unknown key {key!r} in [{section}]")
                raw[section][key] = value

    if overrides:
        for flag, value in overrides.items():
            if value is None:
                continue
            if flag == "seed":
                for section, key in SEED_KEYS:
                    raw[section][key] = str(value)
                continue
            if flag not in FLAGS:
                raise ConfigError(f"unknown override {flag!r}")
            raw[FLAGS[flag][0]][flag] = str(value)

    resolved = {}
    for section, keys in SCHEMA.items():
        resolved[section] = {}
        for key, (parse, _default, _help) in keys.items():
            try:
                resolved[section][key] = parse(raw[section][key])
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
    resolved["_raw"] = raw
    return resolved


def config_hash(resolved):
    """Hex digest of the canonical key=value lines of a resolved config."""
    lines = []
    for section in sorted(SCHEMA):
        for key in sorted(SCHEMA[section]):
            lines.append(f"{section}.{key}={resolved['_raw'][section][key].strip()}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8"))
    return digest.hexdigest()


def train_config_from(resolved):
    """The TrainConfig of [training], whose keys are its fields, ``lambda`` for ``reg_lambda``."""
    training = dict(resolved["training"])
    return TrainConfig(reg_lambda=training.pop("lambda"), **training)
