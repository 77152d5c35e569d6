"""Module-combination comparisons.

Each combo names a composition mode, a network depth and whether the
metric is trained. Depth 0 clusters the raw composed vectors (cosine, the
baseline convention); depth 1 trains a single linear layer, the plain
Mahalanobis case; depth 3 is the full nonlinear metric. Every report
carries the percentage improvement over the phrase-only reference row,
where an entropy drop counts as improvement.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .evaluation import score_runs
from .network import MetricNetwork, train

REFERENCE_KEY = "ap:0:raw"


@dataclass(frozen=True)
class Combo:
    mode: str
    mlp_layers: int
    train: bool

    def __post_init__(self):
        if self.mode not in ("attention", "avg", "min", "max", "ap"):
            raise ConfigError(f"unknown composition mode {self.mode!r}")
        if self.mlp_layers not in (0, 1, 3):
            raise ConfigError("mlp_layers must be 0, 1 or 3")
        if self.train != (self.mlp_layers > 0):
            raise ConfigError("training goes with mlp_layers > 0, raw with 0")

    @property
    def key(self):
        return f"{self.mode}:{self.mlp_layers}:{'trained' if self.train else 'raw'}"

    @classmethod
    def parse(cls, text):
        parts = text.strip().split(":")
        if len(parts) != 3:
            raise ConfigError(f"combo {text!r} is not mode:layers:trained|raw")
        mode, layers, flag = parts
        if flag not in ("trained", "raw"):
            raise ConfigError(f"combo flag must be 'trained' or 'raw', got {flag!r}")
        try:
            return cls(mode.strip(), int(layers), flag == "trained")
        except ValueError as exc:
            raise ConfigError(f"combo {text!r}: {exc}") from exc


def parse_combos(text):
    return [Combo.parse(part) for part in text.split(",") if part.strip()]


def run_ablation(corpus, table, combos, train_pairs=None, train_cfg=None,
                 output_dim=50, hidden_dims=None, k=None, runs=10, seed=0,
                 n_init=10, max_iter=100):
    """Evaluate every combo and compare against the phrase-only row.

    ``train_pairs`` is the shared distant-supervision pair list; it is
    required as soon as any combo trains. Each combo is scored by the
    evaluation loop (compose once, cluster per seed); the report is
    sorted by combo key.
    """
    combos = list(combos)
    if not any(c.key == REFERENCE_KEY for c in combos):
        combos.append(Combo("ap", 0, False))
    if len({c.key for c in combos}) != len(combos):
        raise ConfigError("duplicate combos")
    if any(c.train for c in combos):
        if not train_pairs:
            raise ValueError("training combos need a pair list")
        if train_cfg is None:
            raise ValueError("training combos need a TrainConfig")

    gold = corpus.gold_groups()
    if k is None:
        if not gold:
            raise ValueError("k must be given for an unlabeled corpus")
        k = len(set(gold.values()))
    seeds = [seed + r for r in range(runs)]

    results = {}
    for combo in combos:
        net = history = None
        if combo.train:
            net = MetricNetwork.create(
                table.dimension,
                mode=combo.mode,
                output_dim=output_dim,
                n_layers=combo.mlp_layers,
                hidden_dims=hidden_dims if combo.mlp_layers == 3 else None,
                activation="identity" if combo.mlp_layers == 1 else "tanh",
                dropout_rate=train_cfg.dropout_rate,
                seed=train_cfg.seed,
            )
            _, history = train(net, train_pairs, table, train_cfg, mode=combo.mode)
        row, _ = score_runs(
            corpus, table, gold, k, seeds, net=net, mode=combo.mode,
            metric="euclidean" if net is not None else "cosine",
            n_init=n_init, max_iter=max_iter)
        entry = {
            "mode": combo.mode,
            "mlp_layers": combo.mlp_layers,
            "trained": combo.train,
            "purity_mean": row["purity_mean"],
            "entropy_mean": row["entropy_mean"],
        }
        if history is not None:
            entry["final_objective"] = history[-1]
        results[combo.key] = entry

    ref = results[REFERENCE_KEY]
    for key in sorted(results):
        row = results[key]
        row["purity_improvement_pct"] = (
            (row["purity_mean"] - ref["purity_mean"]) / ref["purity_mean"] * 100.0
            if ref["purity_mean"] else 0.0)
        row["entropy_improvement_pct"] = (
            (ref["entropy_mean"] - row["entropy_mean"]) / ref["entropy_mean"] * 100.0
            if ref["entropy_mean"] else 0.0)
    return {
        "k": k,
        "runs": runs,
        "seeds": seeds,
        "reference": REFERENCE_KEY,
        "combos": {key: results[key] for key in sorted(results)},
    }


def format_ablation(report):
    """Aligned text table shaped like the combo comparison."""
    lines = [f"k={report['k']}  runs={report['runs']}  reference={report['reference']}"]
    header = (f"{'combo':<24} {'purity':>8} {'up%':>7} {'entropy':>8} {'up%':>7}")
    lines.append(header)
    lines.append("-" * len(header))
    for key in sorted(report["combos"]):
        row = report["combos"][key]
        lines.append(
            f"{key:<24} {row['purity_mean']:>8.4f} {row['purity_improvement_pct']:>6.1f}% "
            f"{row['entropy_mean']:>8.4f} {row['entropy_improvement_pct']:>6.1f}%")
    return "\n".join(lines)
