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
from .composition import MODES
from .errors import MissingLabelError, TooFewPointsError

ENTROPY_BASE = 2

# Every composition mode but attention, whose weights only training gives.
BASELINE_METHODS = tuple(m for m in MODES if m != "attention")
LEARNED_METHOD = "metric"
METHODS = (LEARNED_METHOD,) + BASELINE_METHODS


def contingency(assignments, gold, allow_missing=False):
    """Cluster x gold-group counts of a phrase -> cluster id mapping.

    Returns (counts, n, skipped) where counts maps cluster id to a
    {group: count} dict. Phrases without a gold label raise unless
    ``allow_missing``, in which case they are skipped and counted.
    """
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


def purity(assignments, gold, allow_missing=False):
    """Majority-mass purity in [0, 1]."""
    counts, n, _ = contingency(assignments, gold, allow_missing)
    return _scores(counts, n)[0]


def entropy(assignments, gold, allow_missing=False):
    """Weighted within-cluster gold-label entropy, in bits."""
    counts, n, _ = contingency(assignments, gold, allow_missing)
    return _scores(counts, n)[1]


def gold_and_k(corpus, k=None):
    """Gold groups of ``corpus``, and ``k`` or else the number of distinct groups.

    Raises MissingLabelError when the corpus carries no gold groups, and
    TooFewPointsError when k exceeds the distinct phrases, one point each.
    """
    gold = corpus.gold_groups()
    if not gold:
        raise MissingLabelError("corpus carries no gold groups")
    return gold, check_k(corpus, len(set(gold.values())) if k is None else k)


def check_k(corpus, k):
    """``k``, or TooFewPointsError when it exceeds the distinct phrases of ``corpus``."""
    if k > len(corpus.phrase_index):
        raise TooFewPointsError(f"{len(corpus.phrase_index)} points cannot fill {k} clusters")
    return k


def method_setup(method, net):
    """(network, mode) that ``method`` clusters with: ``net`` for the learned method."""
    if method == LEARNED_METHOD:
        if net is None:
            raise ValueError("method 'metric' needs a trained network")
        return net, net.composition_mode
    if method in BASELINE_METHODS:
        return None, method
    raise ValueError(f"unknown method {method!r}")


def score_methods(corpus, table, setups, k, runs, seed, n_init, max_iter):
    """The one seeds -> K-means -> Purity/Entropy loop, over ``{name: (net, mode)}``.

    Run r uses seed ``seed + r``; ``k`` None means the number of distinct gold
    groups. Each entry's phrases are composed (and mapped through ``net``)
    once; only K-means repeats per seed, scored from one contingency table
    per run. Returns the report head and one row per name, which counts its
    runs that left a cluster empty as ``empty_cluster_runs`` if there are any.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    gold, k = gold_and_k(corpus, k)
    seeds = [seed + r for r in range(runs)]
    rows, skipped = {}, 0
    for name, (net, mode) in setups.items():
        phrases, _, points = _clustering.phrase_points(corpus, table, net=net, mode=mode)
        purities, entropies, empty = [], [], 0
        for s in seeds:
            result = _clustering.kmeans(points, k, seed=s, n_init=n_init, max_iter=max_iter)
            empty += bool(result.empty_clusters)
            counts, n, skipped = contingency(
                dict(zip(phrases, result.labels.tolist())), gold, allow_missing=True)
            p, e = _scores(counts, n)
            purities.append(p)
            entropies.append(e)
        rows[name] = {"purity_mean": sum(purities) / runs, "purity_runs": purities,
                      "entropy_mean": sum(entropies) / runs, "entropy_runs": entropies,
                      "metric": _clustering.metric_for(net), "mode": mode}
        if empty:
            rows[name]["empty_cluster_runs"] = empty
    return {"k": k, "runs": runs, "seeds": seeds, "skipped_unlabeled": skipped}, rows


def evaluate_run(corpus, table, methods, net=None, k=None, runs=10, seed=0,
                 n_init=10, max_iter=100):
    """Average Purity/Entropy of ``runs`` clustering runs per method.

    The report is score_methods' head and rows plus the entropy base;
    format_report renders it as an aligned table.
    """
    setups = {method: method_setup(method, net) for method in methods}
    head, rows = score_methods(corpus, table, setups, k, runs, seed, n_init, max_iter)
    return {**head, "entropy_base": ENTROPY_BASE, "methods": rows}


def format_table(report, title, rows, header, cells):
    """Aligned plain-text table of a score report: the head line (k, runs, ``title``),
    a warning for unlabeled phrases and one per row with empty-cluster runs,
    ``header`` and its rule, then ``cells(name, row)`` for each of ``rows`` by name."""
    lines = [f"k={report['k']}  runs={report['runs']}  {title}"]
    if report.get("skipped_unlabeled"):
        lines.append(f"warning: {report['skipped_unlabeled']} phrase(s) lacked gold labels")
    for name in sorted(rows):
        if rows[name].get("empty_cluster_runs"):
            lines.append(f"warning: {name}: {rows[name]['empty_cluster_runs']} of "
                         f"{report['runs']} run(s) left a cluster empty")
    lines += [header, "-" * len(header)]
    lines += [cells(name, rows[name]) for name in sorted(rows)]
    return "\n".join(lines)


def format_report(report):
    """Aligned plain-text table, one row per method."""
    return format_table(
        report, f"entropy base {report['entropy_base']}", report["methods"],
        f"{'method':<10} {'purity':>8} {'entropy':>8}",
        lambda name, row: f"{name:<10} {row['purity_mean']:>8.4f} {row['entropy_mean']:>8.4f}")
