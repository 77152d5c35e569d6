"""Run configuration: defaults, INI file, flag overrides, content hash.

A run is fully described by one key/value file with sections. Every
hyperparameter lives here with its default; command-line flags of the
same name override individual keys, and ``--seed`` overrides the seed of
every section at once. The resolved configuration hashes to a hex digest
that output artifacts embed, so downstream commands can reject inputs
produced under different settings. Data file paths are deliberately not
part of the hash; input files are checksummed by content in the manifest
instead.
"""
from __future__ import annotations

import configparser
import hashlib
from math import inf

from .composition import MODES
from .errors import ConfigError
from .evaluation import METHODS
from .network import ACTIVATIONS, TrainConfig


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


# section -> key -> (parser, default-as-string)
SCHEMA = {
    "pairs": {
        "eta": (_check(float, lambda v: v > 0, "positive"), "0.3"),
        "seed": (int, "42"),
        "max_pos": (_positive(_parse_opt_int), ""),
    },
    "composition": {
        "mode": (_choice(MODES), "attention"),
    },
    "network": {
        "output_dim": (_positive(int), "50"),
        "layers": (_positive(int), "3"),
        "hidden_dims": (_check(_parse_int_list, lambda dims: all(w >= 1 for w in dims),
                               "widths of at least 1"), ""),
        "activation": (_choice(ACTIVATIONS), "tanh"),
    },
    "training": {
        "margin_t": (_check(float, lambda v: 1 < v < inf, "finite and greater than 1"), "3.0"),
        "beta": (_check(float, lambda v: 0 < v < inf, "positive and finite"), "2.0"),
        "lambda": (_check(float, lambda v: 0 <= v < inf, "nonnegative and finite"), "0.002"),
        "learning_rate": (_check(float, lambda v: 0 <= v < inf, "nonnegative and finite"), "0.03"),
        "epochs": (_positive(int), "30"),
        "seed": (int, "42"),
    },
    "clustering": {
        "k": (_positive(_parse_opt_int), ""),
        "n_init": (_positive(int), "10"),
        "max_iter": (_positive(int), "100"),
        "seed": (int, "42"),
    },
    "evaluation": {
        "runs": (_positive(int), "10"),
        "seed": (int, "42"),
        "methods": (_choices(METHODS), "metric,avg,ap"),
    },
    "split": {
        "train_ratio": (_ratio, "0.3"),
        "test_ratio": (_ratio, "0.5"),
        "dev_ratio": (_ratio, "0.2"),
        "seed": (int, "42"),
    },
    "ablation": {
        "combos": (str, "ap:0:raw,attention:1:trained,attention:3:trained"),
    },
}

# flag name -> (section, key); the special flag "seed" fans out to every
# section that has a seed.
FLAG_MAP = {
    "eta": ("pairs", "eta"),
    "max_pos": ("pairs", "max_pos"),
    "mode": ("composition", "mode"),
    "output_dim": ("network", "output_dim"),
    "layers": ("network", "layers"),
    "hidden_dims": ("network", "hidden_dims"),
    "activation": ("network", "activation"),
    "margin_t": ("training", "margin_t"),
    "beta": ("training", "beta"),
    "lambda": ("training", "lambda"),
    "learning_rate": ("training", "learning_rate"),
    "epochs": ("training", "epochs"),
    "k": ("clustering", "k"),
    "n_init": ("clustering", "n_init"),
    "max_iter": ("clustering", "max_iter"),
    "runs": ("evaluation", "runs"),
    "methods": ("evaluation", "methods"),
    "combos": ("ablation", "combos"),
}

SEED_KEYS = [(section, "seed") for section in SCHEMA if "seed" in SCHEMA[section]]


def resolve(config_path=None, overrides=None):
    """Merge defaults, an optional INI file and flag overrides.

    ``overrides`` maps flag names (see FLAG_MAP, plus "seed") to raw
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
            if flag not in FLAG_MAP:
                raise ConfigError(f"unknown override {flag!r}")
            section, key = FLAG_MAP[flag]
            raw[section][key] = str(value)

    resolved = {}
    for section, keys in SCHEMA.items():
        resolved[section] = {}
        for key, (parse, _default) in keys.items():
            value = raw[section][key]
            try:
                resolved[section][key] = parse(value)
            except ValueError as exc:
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
    """Build a TrainConfig from the training section."""
    t = resolved["training"]
    return TrainConfig(
        margin_t=t["margin_t"],
        beta=t["beta"],
        reg_lambda=t["lambda"],
        learning_rate=t["learning_rate"],
        epochs=t["epochs"],
        seed=t["seed"],
    )
