"""Purity and Entropy against gold groups, and the multi-run report.

Purity is the fraction of phrases falling in the majority gold group of
their cluster. Entropy is the cluster-size-weighted average of the
within-cluster label entropy in bits (base 2); lower is better. Both are
invariant to relabeling clusters. K-means depends on its seed, so the
report averages the metrics of several full clustering runs with distinct
seeds rather than keeping a single best run.
"""
from __future__ import annotations

import math

from . import clustering as _clustering
from .errors import MissingLabelError

ENTROPY_BASE = 2

BASELINE_METHODS = ("avg", "min", "max", "ap")
LEARNED_METHOD = "metric"


def contingency(clustering, gold, allow_missing=False):
    """Cluster x gold-group counts.

    Returns (counts, n, skipped) where counts maps cluster id to a
    {group: count} dict. Phrases without a gold label raise unless
    ``allow_missing``, in which case they are skipped and counted.
    """
    assignments = getattr(clustering, "assignments", clustering)
    counts: dict[int, dict[int, int]] = {}
    n = 0
    skipped = 0
    for phrase in sorted(assignments):
        if phrase not in gold:
            if not allow_missing:
                raise MissingLabelError(f"phrase {phrase!r} has no gold group")
            skipped += 1
            continue
        cluster = assignments[phrase]
        group = gold[phrase]
        counts.setdefault(cluster, {}).setdefault(group, 0)
        counts[cluster][group] += 1
        n += 1
    if n == 0:
        raise MissingLabelError("no labeled phrases to score")
    return counts, n, skipped


def _scores(counts, n):
    """(Purity, Entropy) of a contingency table over ``n`` labeled phrases."""
    correct = 0
    total = 0.0
    for cluster in sorted(counts):
        row = counts[cluster]
        correct += max(row.values())
        nk = sum(row.values())
        h = 0.0
        for group in sorted(row):
            p = row[group] / nk
            h -= p * math.log2(p)
        total += (nk / n) * h
    return correct / n, total


def purity(clustering, gold, allow_missing=False):
    """Majority-mass purity in [0, 1]."""
    counts, n, _ = contingency(clustering, gold, allow_missing)
    return _scores(counts, n)[0]


def entropy(clustering, gold, allow_missing=False):
    """Weighted within-cluster gold-label entropy, in bits."""
    counts, n, _ = contingency(clustering, gold, allow_missing)
    return _scores(counts, n)[1]


def score_runs(corpus, table, gold, k, seeds, net=None, mode="attention",
               metric="cosine", n_init=10, max_iter=100):
    """Per-seed and mean Purity/Entropy, and the count of unlabeled phrases.

    Evaluation and ablation share this loop. Phrases are composed (and
    mapped through ``net``) once; only K-means repeats per seed, scored
    from one contingency table per run.
    """
    _, points = _clustering.phrase_points(corpus, table, net=net, mode=mode)
    purities, entropies = [], []
    skipped = 0
    for s in seeds:
        result = _clustering.kmeans(
            points, k, metric=metric, seed=s, n_init=n_init, max_iter=max_iter)
        counts, n, skipped = contingency(result, gold, allow_missing=True)
        p, e = _scores(counts, n)
        purities.append(p)
        entropies.append(e)
    row = {"purity_mean": sum(purities) / len(seeds), "purity_runs": purities,
           "entropy_mean": sum(entropies) / len(seeds), "entropy_runs": entropies}
    return row, skipped


def _method_setup(method, net):
    if method == LEARNED_METHOD:
        if net is None:
            raise ValueError("method 'metric' needs a trained network")
        return {"net": net, "mode": net.composition_mode, "metric": "euclidean"}
    if method in BASELINE_METHODS:
        return {"net": None, "mode": method, "metric": "cosine"}
    raise ValueError(f"unknown method {method!r}")


def evaluate_run(corpus, table, methods, net=None, k=None, runs=10, seed=0,
                 n_init=10, max_iter=100):
    """Average Purity/Entropy of ``runs`` clustering runs per method.

    Run r uses seed ``seed + r``. K defaults to the number of distinct
    gold groups. Returns a report dict; format_report renders it as an
    aligned table.
    """
    gold = corpus.gold_groups()
    if not gold:
        raise MissingLabelError("corpus carries no gold groups")
    if k is None:
        k = len(set(gold.values()))
    seeds = [seed + r for r in range(runs)]
    report = {
        "k": k,
        "runs": runs,
        "seeds": seeds,
        "entropy_base": ENTROPY_BASE,
        "methods": {},
    }
    for method in methods:
        setup = _method_setup(method, net)
        row, skipped = score_runs(
            corpus, table, gold, k, seeds, n_init=n_init, max_iter=max_iter, **setup)
        report["methods"][method] = {**row, "metric": setup["metric"], "mode": setup["mode"]}
        report["skipped_unlabeled"] = skipped
    return report


def format_report(report):
    """Aligned plain-text table, one row per method."""
    lines = []
    lines.append(f"k={report['k']}  runs={report['runs']}  entropy base {report['entropy_base']}")
    if report.get("skipped_unlabeled"):
        lines.append(f"warning: {report['skipped_unlabeled']} phrase(s) lacked gold labels")
    header = f"{'method':<10} {'purity':>8} {'entropy':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for method in sorted(report["methods"]):
        row = report["methods"][method]
        lines.append(f"{method:<10} {row['purity_mean']:>8.4f} {row['entropy_mean']:>8.4f}")
    return "\n".join(lines)
