"""Module-combination comparisons.

Each combo names a composition mode and a network depth, which says
whether the metric is trained. Depth 0 clusters the raw composed vectors
(cosine, the baseline convention); depth 1 trains a single linear layer,
the plain Mahalanobis case; depth 3 is the full nonlinear metric. Every report
carries the percentage improvement over the phrase-only reference row,
where an entropy drop counts as improvement.
"""
from __future__ import annotations

from dataclasses import dataclass

from .composition import MODES
from .errors import ConfigError
from .evaluation import format_table, score_methods
from .network import MetricNetwork, check_hidden_dims, train

REFERENCE_KEY = "ap:0:raw"


@dataclass(frozen=True)
class Combo:
    mode: str
    mlp_layers: int

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown composition mode {self.mode!r}")
        if self.mlp_layers not in (0, 1, 3):
            raise ConfigError("mlp_layers must be 0, 1 or 3")

    @property
    def train(self):
        return self.mlp_layers > 0

    @property
    def key(self):
        return f"{self.mode}:{self.mlp_layers}:{'trained' if self.train else 'raw'}"

    @classmethod
    def parse(cls, text):
        text = text.strip()
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"combo {text!r} is not mode:layers:trained|raw")
        mode, layers, flag = parts
        try:
            if flag not in ("trained", "raw"):
                raise ConfigError(f"flag must be 'trained' or 'raw', got {flag!r}")
            combo = cls(mode.strip(), int(layers))
            if combo.train != (flag == "trained"):
                raise ConfigError("training goes with mlp_layers > 0, raw with 0")
            return combo
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"combo {text!r}: {exc}") from exc


def parse_combos(text):
    return [Combo.parse(part) for part in text.split(",") if part.strip()]


def check_combos(combos, hidden_dims):
    """Reject duplicate combos, and hidden widths that a 3-layer combo cannot use."""
    if len({c.key for c in combos}) != len(combos):
        raise ConfigError("duplicate combos")
    if any(c.mlp_layers == 3 for c in combos):
        check_hidden_dims(hidden_dims, 3)


def run_ablation(corpus, table, combos, train_pairs=None, train_cfg=None,
                 output_dim=50, hidden_dims=None, k=None, runs=10, seed=0,
                 n_init=10, max_iter=100):
    """Evaluate every combo and compare against the phrase-only row.

    ``train_pairs`` is the shared distant-supervision pair list; it is
    required as soon as any combo trains. Each combo is trained, then scored
    by evaluation.score_methods before the next one trains; the report is
    sorted by combo key and counts the phrases with no gold label. A combo's
    entry carries score_methods' ``empty_cluster_runs`` when it has one.
    """
    combos = list(combos)
    if not any(c.key == REFERENCE_KEY for c in combos):
        combos.append(Combo("ap", 0))
    check_combos(combos, hidden_dims)
    if any(c.train for c in combos):
        if not train_pairs:
            raise ValueError("training combos need a pair list")
        if train_cfg is None:
            raise ValueError("training combos need a TrainConfig")

    results = {}
    for combo in combos:
        net = history = None
        if combo.train:
            net = MetricNetwork.create(
                table.dimension, mode=combo.mode, output_dim=output_dim, n_layers=combo.mlp_layers,
                hidden_dims=hidden_dims if combo.mlp_layers == 3 else None,
                activation="identity" if combo.mlp_layers == 1 else "tanh", seed=train_cfg.seed)
            _, history = train(net, train_pairs, table, train_cfg)
        head, rows = score_methods(corpus, table, {combo.key: (net, combo.mode)},
                                   k, runs, seed, n_init, max_iter)
        row = rows[combo.key]
        entry = {"mode": combo.mode, "mlp_layers": combo.mlp_layers, "trained": combo.train,
                 **{name: row[name] for name in ("purity_mean", "entropy_mean",
                                                 "empty_cluster_runs") if name in row}}
        if history is not None:
            entry["final_objective"] = history[-1]
        results[combo.key] = entry

    ref = results[REFERENCE_KEY]
    for row in results.values():
        for score, gain in (("purity", row["purity_mean"] - ref["purity_mean"]),
                            ("entropy", ref["entropy_mean"] - row["entropy_mean"])):
            base = ref[f"{score}_mean"]
            row[f"{score}_improvement_pct"] = gain / base * 100.0 if base else 0.0
    return {**head, "reference": REFERENCE_KEY,
            "combos": {key: results[key] for key in sorted(results)}}


def format_ablation(report):
    """Aligned text table shaped like the combo comparison."""
    return format_table(
        report, f"reference={report['reference']}", report["combos"],
        f"{'combo':<24} {'purity':>8} {'up%':>7} {'entropy':>8} {'up%':>7}",
        lambda key, row: f"{key:<24} {row['purity_mean']:>8.4f} "
                         f"{row['purity_improvement_pct']:>6.1f}% {row['entropy_mean']:>8.4f} "
                         f"{row['entropy_improvement_pct']:>6.1f}%")
