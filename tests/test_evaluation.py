import json
import math
from collections import Counter

import numpy as np
import pytest

from metric_grouper import clustering, evaluation
from metric_grouper.ablation import parse_combos, run_ablation
from metric_grouper.errors import MissingLabelError
from metric_grouper.evaluation import (
    contingency,
    entropy,
    evaluate_run,
    format_report,
    purity,
)


def brute_force_purity(assignments, gold):
    """Independent recomputation from raw assignment pairs."""
    clusters = {}
    for phrase, cluster in assignments.items():
        clusters.setdefault(cluster, []).append(gold[phrase])
    correct = 0
    for cluster in sorted(clusters):
        correct += Counter(clusters[cluster]).most_common(1)[0][1]
    return correct / sum(len(v) for v in clusters.values())


def brute_force_entropy(assignments, gold):
    clusters = {}
    for phrase, cluster in assignments.items():
        clusters.setdefault(cluster, []).append(gold[phrase])
    n = sum(len(v) for v in clusters.values())
    total = 0.0
    for cluster in sorted(clusters):
        labels = clusters[cluster]
        nk = len(labels)
        counts = Counter(labels)
        h = 0.0
        for group in sorted(counts):
            p = counts[group] / nk
            h -= p * math.log2(p)
        total += (nk / n) * h
    return total


def hand_case():
    # clusters {A,A,B} and {B,B} over gold classes {A:2, B:3}
    assignments = {"p1": 0, "p2": 0, "p3": 0, "p4": 1, "p5": 1}
    gold = {"p1": 0, "p2": 0, "p3": 1, "p4": 1, "p5": 1}
    return assignments, gold


class TestPurity:
    def test_perfect_clustering(self):
        assignments = {"a": 0, "b": 0, "c": 1}
        gold = {"a": 5, "b": 5, "c": 9}
        assert purity(assignments, gold) == 1.0

    def test_hand_case(self):
        assignments, gold = hand_case()
        assert purity(assignments, gold) == pytest.approx(0.8)

    def test_single_cluster_equal_groups(self):
        assignments = {f"p{i}": 0 for i in range(9)}
        gold = {f"p{i}": i % 3 for i in range(9)}
        assert purity(assignments, gold) == pytest.approx(1 / 3)

    def test_missing_label(self):
        with pytest.raises(MissingLabelError):
            purity({"a": 0}, {})

    def test_allow_missing_skips(self):
        assignments = {"a": 0, "b": 0, "unlabeled": 1}
        gold = {"a": 0, "b": 0}
        assert purity(assignments, gold, allow_missing=True) == 1.0
        _, n, skipped = contingency(assignments, gold, allow_missing=True)
        assert (n, skipped) == (2, 1)


class TestEntropy:
    def test_perfect_clustering_is_zero(self):
        assignments = {"a": 0, "b": 0, "c": 1}
        gold = {"a": 5, "b": 5, "c": 9}
        assert entropy(assignments, gold) == 0.0

    def test_even_binary_split_is_one_bit(self):
        assignments = {"a": 0, "b": 0}
        gold = {"a": 0, "b": 1}
        assert entropy(assignments, gold) == pytest.approx(1.0)

    def test_hand_case(self):
        assignments, gold = hand_case()
        expected = 0.6 * (-(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3))
        assert entropy(assignments, gold) == pytest.approx(expected)
        assert entropy(assignments, gold) == pytest.approx(0.5510, abs=1e-4)


def random_instance(rng, max_points=20):
    n = int(rng.integers(2, max_points + 1))
    k = int(rng.integers(1, 5))
    g = int(rng.integers(1, 5))
    assignments = {f"p{i:02d}": int(rng.integers(k)) for i in range(n)}
    gold = {f"p{i:02d}": int(rng.integers(g)) for i in range(n)}
    return assignments, gold


class TestProperties:
    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            assignments, gold = random_instance(rng)
            assert purity(assignments, gold) == brute_force_purity(assignments, gold)
            assert entropy(assignments, gold) == brute_force_entropy(assignments, gold)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            assignments, gold = random_instance(rng)
            k = max(assignments.values()) + 1
            perm = rng.permutation(k)
            relabeled = {p: int(perm[c]) for p, c in assignments.items()}
            assert purity(relabeled, gold) == pytest.approx(purity(assignments, gold))
            assert entropy(relabeled, gold) == pytest.approx(entropy(assignments, gold))

    def test_bounds(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            assignments, gold = random_instance(rng)
            p = purity(assignments, gold)
            e = entropy(assignments, gold)
            groups = len(set(gold.values()))
            assert 0.0 <= p <= 1.0
            assert 0.0 <= e <= math.log2(groups) + 1e-12 if groups > 1 else e == 0.0

    def test_singleton_clusters_are_pure(self):
        rng = np.random.default_rng(26)
        assignments = {f"p{i}": i for i in range(8)}
        gold = {f"p{i}": int(rng.integers(3)) for i in range(8)}
        assert purity(assignments, gold) == 1.0
        assert entropy(assignments, gold) == 0.0


class TestEvaluateRun:
    def test_r1_equals_single_run(self, fixture_corpus, fixture_table):
        report = evaluate_run(fixture_corpus, fixture_table, ["avg"], k=2, runs=1, seed=9)
        phrases, _, points = clustering.phrase_points(fixture_corpus, fixture_table, mode="avg")
        single = dict(zip(phrases, clustering.kmeans(points, 2, seed=9).labels.tolist()))
        gold = fixture_corpus.gold_groups()
        assert report["methods"]["avg"]["purity_mean"] == purity(single, gold, allow_missing=True)
        assert report["methods"]["avg"]["entropy_mean"] == entropy(
            single, gold, allow_missing=True)

    def test_composes_once_per_method_and_counts_once_per_run(
            self, monkeypatch, fixture_corpus, fixture_table, trained_net):
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(clustering, "compose_test_phrase",
                            counting("compose", clustering.compose_test_phrase))
        monkeypatch.setattr(evaluation, "contingency",
                            counting("contingency", evaluation.contingency))
        methods = ["metric", "avg", "ap"]
        evaluate_run(fixture_corpus, fixture_table, methods, net=trained_net[0],
                     k=2, runs=4, seed=0)
        assert calls["compose"] == len(fixture_corpus.phrases()) * len(methods)
        assert calls["contingency"] == 4 * len(methods)

    def test_report_reproducible(self, fixture_corpus, fixture_table):
        a = evaluate_run(fixture_corpus, fixture_table, ["avg", "ap"], k=2, runs=3, seed=5)
        b = evaluate_run(fixture_corpus, fixture_table, ["avg", "ap"], k=2, runs=3, seed=5)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_k_defaults_to_gold_group_count(self, fixture_corpus, fixture_table):
        report = evaluate_run(fixture_corpus, fixture_table, ["ap"], runs=1, seed=0)
        assert report["k"] == 2

    def test_metric_method_needs_net(self, fixture_corpus, fixture_table):
        with pytest.raises(ValueError, match="needs a trained network"):
            evaluate_run(fixture_corpus, fixture_table, ["metric"], runs=1, seed=0)

    @pytest.mark.parametrize("score", [
        lambda corpus, table: evaluate_run(corpus, table, ["ap"], runs=0),
        lambda corpus, table: run_ablation(corpus, table, parse_combos("ap:0:raw"), runs=0),
    ], ids=["evaluate_run", "run_ablation"])
    def test_runs_below_one_rejected(self, fixture_corpus, fixture_table, score):
        with pytest.raises(ValueError, match="runs must be at least 1"):
            score(fixture_corpus, fixture_table)

    def test_unlabeled_corpus_rejected(self, fixture_table):
        from metric_grouper.corpus import AnnotatedCorpus, AnnotatedSentence, Mention

        corpus = AnnotatedCorpus([
            AnnotatedSentence(("picture",), (Mention("picture", 0, 1),))])
        with pytest.raises(MissingLabelError):
            evaluate_run(corpus, fixture_table, ["ap"], runs=1, seed=0)

    def test_formatted_table_lists_methods(self, fixture_corpus, fixture_table):
        report = evaluate_run(fixture_corpus, fixture_table, ["avg", "ap"], k=2, runs=2, seed=1)
        text = format_report(report)
        assert "avg" in text and "ap" in text
        assert "purity" in text and "entropy" in text
