"""Acceptance suite: one test per criterion, reported at session end."""
import itertools
import json
import math
import os
import time
from collections import Counter

import numpy as np
import pytest

from conftest import record_criterion
from metric_grouper import fixture as fx
from metric_grouper.cli import main as cli_main
from metric_grouper.clustering import kmeans
from metric_grouper.composition import AttentionParams, attention_weights
from metric_grouper.corpus import AnnotatedCorpus, AnnotatedSentence, Mention, WordVectorTable
from metric_grouper.errors import InsufficientNegativesError
from metric_grouper.evaluation import entropy, evaluate_run, purity
from metric_grouper.lexicon import Taxonomy, jcn_similarity
from metric_grouper.network import (
    MetricNetwork,
    TrainConfig,
    pair_gradients,
    pair_loss,
    softplus,
    train,
)
from metric_grouper.pairs import generate_pairs, generate_samples

CFG = TrainConfig()


def random_network(rng):
    """1-3 tanh layers, input width 4-8."""
    n_layers = int(rng.integers(1, 4))
    dims = [int(rng.integers(4, 9))]
    for _ in range(n_layers - 1):
        dims.append(int(rng.integers(2, 7)))
    dims.append(int(rng.integers(2, 5)))
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(rng.normal(size=fan_out) * 0.1)
    return MetricNetwork(weights, biases, activation="tanh",
                         composition_mode="avg")


def finite_difference_gradients(net, x_i, x_j, label, cfg, h=1e-5):
    grads_w, grads_b = [], []
    for m in range(net.n_layers):
        for arrs, out in ((net.weights, grads_w), (net.biases, grads_b)):
            arr = arrs[m]
            fd = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = pair_loss(net, x_i, x_j, label, cfg)
                arr[idx] = orig - h
                down, _ = pair_loss(net, x_i, x_j, label, cfg)
                arr[idx] = orig
                fd[idx] = (up - down) / (2 * h)
            out.append(fd)
    return grads_w, grads_b


def relative_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        net = random_network(rng)
        x_i = rng.normal(size=net.input_dim)
        x_j = rng.normal(size=net.input_dim)
        label = 1 if rng.random() < 0.5 else -1
        analytic = pair_gradients(net, x_i, x_j, label, CFG)
        fd_w, fd_b = finite_difference_gradients(net, x_i, x_j, label, CFG)
        for got, want in zip(analytic["weights"] + analytic["biases"], fd_w + fd_b):
            worst = max(worst, relative_error(got, want))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    record_criterion(1, "gradient correctness vs finite differences", ok,
                     f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_criterion_2_mahalanobis_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        fan_in = int(rng.integers(2, 9))
        fan_out = int(rng.integers(2, 7))
        w = rng.normal(size=(fan_out, fan_in))
        net = MetricNetwork([w], [np.zeros(fan_out)], activation="identity", composition_mode="avg")
        x_i, x_j = rng.normal(size=fan_in), rng.normal(size=fan_in)
        diff = x_i - x_j
        expected = float(diff @ (w.T @ w) @ diff)
        worst = max(worst, abs(net.distance_sq(x_i, x_j) - expected))
    record_criterion(2, "single linear layer equals Mahalanobis form", worst <= 1e-9,
                     f"max abs diff {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_3_attention_normalization():
    rng = np.random.default_rng(303)
    worst_sum = 0.0
    nonneg = True
    for _ in range(1000):
        n, d = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        weights = attention_weights(
            rng.normal(size=(n, d)) * 4, rng.normal(size=d) * 4,
            AttentionParams(rng.normal(size=d) * 4))
        nonneg = nonneg and bool((weights >= 0).all())
        worst_sum = max(worst_sum, abs(float(weights.sum()) - 1.0))
    worst_uniform = 0.0
    for _ in range(100):
        n, d = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        equal = attention_weights(
            np.tile(rng.normal(size=d), (n, 1)), rng.normal(size=d),
            AttentionParams(rng.normal(size=d)))
        zero = attention_weights(
            rng.normal(size=(n, d)), rng.normal(size=d),
            AttentionParams(np.zeros(d)))
        for weights in (equal, zero):
            worst_uniform = max(worst_uniform, float(np.abs(weights - 1.0 / n).max()))
    ok = nonneg and worst_sum <= 1e-9 and worst_uniform <= 1e-12
    record_criterion(3, "attention weights normalized; uniform cases exact", ok,
                     f"sum err {worst_sum:.2e}, uniform err {worst_uniform:.2e}")
    assert nonneg
    assert worst_sum <= 1e-9
    assert worst_uniform <= 1e-12


def test_criterion_4_loss_envelope():
    # dyadic grid: beta * omega and its quotient stay exact in binary, so
    # the envelope inequalities can be asserted without any slack
    grid = np.arange(-320, 321) / 32.0
    ok = True
    for beta in (1.0, 2.0, 5.0, 20.0):
        for omega in grid:
            s = softplus(omega, beta)
            hinge = max(0.0, omega)
            if not (s >= hinge and s - hinge <= math.log(2.0) / beta):
                ok = False
    record_criterion(4, "softplus envelope of the hinge", ok)
    assert ok


def multi_group_data(seed, groups=8, phrases=6, sentences=5, adjectives=5, dim=16):
    """Corpus, vectors and taxonomy whose groups only the context tells apart.

    Every sentence reads "the P is A and A". Phrase rows are small noise,
    so they carry no group signal; each group's adjectives sit around a
    group direction. The taxonomy is root -> group -> one leaf per phrase.
    """
    rng = np.random.default_rng(seed)
    vectors = {w: 0.1 * rng.standard_normal(dim) for w in ("the", "is", "and")}
    records = [{"concept": "root", "parents": [], "count": 0.0}]
    sentences_out = []
    for g in range(groups):
        direction = rng.standard_normal(dim)
        words = [f"g{g}a{i}" for i in range(adjectives)]
        for word in words:
            vectors[word] = direction + 0.3 * rng.standard_normal(dim)
        records.append({"concept": f"group-{g}", "parents": ["root"], "count": 0.0})
        for i in range(phrases):
            phrase = f"g{g}p{i}"
            vectors[phrase] = 0.1 * rng.standard_normal(dim)
            records.append({"concept": f"leaf-{phrase}", "parents": [f"group-{g}"],
                            "count": 1.0})
            records.append({"word": phrase, "concepts": [f"leaf-{phrase}"]})
            for _ in range(sentences):
                a, b = rng.choice(adjectives, size=2)
                tokens = ("the", phrase, "is", words[a], "and", words[b])
                sentences_out.append(AnnotatedSentence(tokens, (Mention(phrase, 1, 2, g),)))
    return (AnnotatedCorpus(sentences_out), WordVectorTable(dim, vectors),
            Taxonomy(records))


def test_criterion_5_synthetic_end_to_end():
    start = time.perf_counter()
    corpus = fx.make_corpus()
    table = fx.make_vectors()
    tax = fx.make_taxonomy()
    samples = generate_samples(corpus)
    pairs = generate_pairs(samples, tax, fx.FIXTURE_ETA, seed=42)
    cfg = TrainConfig()  # defaults, seed 42
    net = fx.make_network(seed=cfg.seed)
    net, history = train(net, pairs, table, cfg)
    decreasing = history[-1] < history[0]

    report = evaluate_run(corpus, table, ["metric", "avg"], net=net,
                          k=2, runs=10, seed=100)
    metric_row = report["methods"]["metric"]
    avg_row = report["methods"]["avg"]
    perfect = metric_row["purity_mean"] == 1.0 and metric_row["entropy_mean"] == 0.0
    beats_avg = metric_row["purity_mean"] >= avg_row["purity_mean"]

    # beyond two groups: 8 groups, phrase vectors without group signal
    multi = {}
    for seed in (1, 2, 3):
        mg_corpus, mg_table, mg_tax = multi_group_data(seed)
        mg_pairs = generate_pairs(generate_samples(mg_corpus), mg_tax, 0.3, seed=seed)
        mg_net = MetricNetwork.create(mg_table.dimension, mode="attention", output_dim=8,
                                      n_layers=3, seed=seed)
        train(mg_net, mg_pairs, mg_table, TrainConfig(epochs=3, seed=seed))
        rows = evaluate_run(mg_corpus, mg_table, ["metric", "avg"], net=mg_net,
                            k=8, runs=5, seed=seed)["methods"]
        multi[seed] = (rows["metric"]["purity_mean"], rows["avg"]["purity_mean"])
    multi_beats_avg = all(m >= a for m, a in multi.values())

    elapsed = time.perf_counter() - start
    ok = decreasing and perfect and beats_avg and multi_beats_avg and elapsed < 120.0
    record_criterion(
        5, "synthetic end-to-end training and clustering", ok,
        f"objective {history[0]:.4f}->{history[-1]:.4f}, purity {metric_row['purity_mean']:.3f}, "
        f"avg {avg_row['purity_mean']:.3f}; 8 groups metric/avg "
        + ", ".join(f"{m:.3f}/{a:.3f}" for m, a in multi.values())
        + f", {elapsed:.1f}s")
    assert decreasing, f"objective went {history[0]} -> {history[-1]}"
    assert metric_row["purity_mean"] == 1.0
    assert metric_row["entropy_mean"] == 0.0
    assert beats_avg
    assert multi_beats_avg, f"8-group (metric, avg) purity by seed: {multi}"
    assert elapsed < 120.0


def brute_purity(assignments, gold):
    clusters = {}
    for phrase, cluster in assignments.items():
        clusters.setdefault(cluster, []).append(gold[phrase])
    hits = 0
    for cluster in sorted(clusters):
        hits += Counter(clusters[cluster]).most_common(1)[0][1]
    return hits / sum(len(v) for v in clusters.values())


def brute_entropy(assignments, gold):
    clusters = {}
    for phrase, cluster in assignments.items():
        clusters.setdefault(cluster, []).append(gold[phrase])
    n = sum(len(v) for v in clusters.values())
    total = 0.0
    for cluster in sorted(clusters):
        counts = Counter(clusters[cluster])
        nk = len(clusters[cluster])
        h = 0.0
        for group in sorted(counts):
            p = counts[group] / nk
            h -= p * math.log2(p)
        total += (nk / n) * h
    return total


def test_criterion_6_metric_oracles():
    rng = np.random.default_rng(606)
    exact = True
    for _ in range(60):
        n = int(rng.integers(2, 21))
        assignments = {f"p{i:02d}": int(rng.integers(1, 5)) for i in range(n)}
        gold = {f"p{i:02d}": int(rng.integers(1, 5)) for i in range(n)}
        if purity(assignments, gold) != brute_purity(assignments, gold):
            exact = False
        if entropy(assignments, gold) != brute_entropy(assignments, gold):
            exact = False
    assignments = {"p1": 0, "p2": 0, "p3": 0, "p4": 1, "p5": 1}
    gold = {"p1": 0, "p2": 0, "p3": 1, "p4": 1, "p5": 1}
    hand_ok = (abs(purity(assignments, gold) - 0.8) < 1e-6
               and abs(entropy(assignments, gold) - 0.5509775004326937) < 1e-6)
    record_criterion(6, "purity/entropy match brute force", exact and hand_ok)
    assert exact
    assert hand_ok


def set_partitions_up_to(n, kmax):
    """Restricted-growth strings: every partition of n items into <=kmax blocks."""
    assign = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(assign)
            return
        for c in range(min(used + 1, kmax)):
            assign[i] = c
            yield from rec(i + 1, max(used, c + 1))

    yield from rec(1, 1)


def exhaustive_optimum(points, k):
    best = np.inf
    for assign in set_partitions_up_to(len(points), k):
        cost = 0.0
        labels = set(assign)
        for c in labels:
            members = points[[i for i, a in enumerate(assign) if a == c]]
            center = members.mean(axis=0)
            cost += float(((members - center) ** 2).sum())
        if cost < best:
            best = cost
    return best


def test_criterion_7_kmeans_micro_optimality():
    rng = np.random.default_rng(707)
    hits = 0
    trials = 100
    for _ in range(trials):
        n = int(rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        if k > n:
            k = n
        data = rng.normal(size=(n, 2)) * rng.uniform(0.5, 2.0)
        result = kmeans(data, k, seed=int(rng.integers(1 << 31)), n_init=20)
        optimum = exhaustive_optimum(data, k)
        if result.inertia <= optimum * (1 + 1e-9) + 1e-12:
            hits += 1
    record_criterion(7, "k-means reaches exhaustive optimum on micro instances",
                     hits >= 95, f"{hits}/{trials}")
    assert hits >= 95


def test_criterion_8_cli_determinism(tmp_path):
    fixture_dir = tmp_path / "data"
    fixture_dir2 = tmp_path / "data2"
    for target in (fixture_dir, fixture_dir2):
        assert cli_main(["make-fixture", "--out-dir", str(target)]) == 0
    for name in ("corpus.jsonl", "vectors.txt", "taxonomy.jsonl", "config.ini"):
        assert (fixture_dir / name).read_bytes() == (fixture_dir2 / name).read_bytes()
    base = ["--corpus", str(fixture_dir / "corpus.jsonl"),
            "--vectors", str(fixture_dir / "vectors.txt"),
            "--taxonomy", str(fixture_dir / "taxonomy.jsonl"),
            "--config", str(fixture_dir / "config.ini"),
            "--epochs", "3", "--runs", "3"]
    artifacts = ("train.jsonl", "test.jsonl", "dev.jsonl", "pairs.jsonl",
                 "model.json", "clusters.tsv", "metrics.json", "ablation.json",
                 "manifest.json")
    digests = []
    for run_dir in (tmp_path / "run1", tmp_path / "run2"):
        args = base + ["--out-dir", str(run_dir)]
        for command in ("split", "pairs", "train", "cluster", "eval", "ablate"):
            assert cli_main([command] + args) == 0, command
        digests.append({name: (run_dir / name).read_bytes() for name in artifacts})
    identical = digests[0] == digests[1]
    record_criterion(8, "CLI reruns are byte-identical", identical)
    assert identical


def random_labeled_corpus(rng, words):
    mentioned = [words[int(rng.integers(len(words)))]
                 for _ in range(int(rng.integers(20, 40)))]
    sentences = []
    for phrase in mentioned:
        tokens = ("the", phrase, "works", "well")
        sentences.append(AnnotatedSentence(tokens, (Mention(phrase, 1, 2),)))
    return AnnotatedCorpus(sentences)


def test_criterion_9_pair_generation_contracts():
    tax = fx.make_taxonomy()
    words = sorted(tax.word_map)
    rng = np.random.default_rng(909)
    eta = fx.FIXTURE_ETA
    violations = 0
    total = 0
    trials = 0
    while total < 1000 and trials < 50:
        trials += 1
        corpus = random_labeled_corpus(rng, words)
        samples = generate_samples(corpus)
        try:
            pairs = generate_pairs(samples, tax, eta, seed=trials)
        except InsufficientNegativesError:
            continue
        positives = [p for p in pairs if p.label == 1]
        negatives = [p for p in pairs if p.label == -1]
        if len(positives) != len(negatives):
            violations += 1
        for p in positives:
            if p.left.phrase != p.right.phrase:
                violations += 1
        for p in negatives:
            if not jcn_similarity(p.left.phrase, p.right.phrase, tax) < eta:
                violations += 1
        total += len(pairs)
    ok = violations == 0 and total >= 1000
    record_criterion(9, "pair-generation contracts on random corpora", ok,
                     f"{total} pairs, {violations} violations")
    assert total >= 1000
    assert violations == 0


@pytest.mark.skipif("METRIC_GROUPER_DATA_DIR" not in os.environ,
                    reason="optional: set METRIC_GROUPER_DATA_DIR to run on real data")
def test_criterion_10_directional_check_on_real_data(tmp_path):
    """Non-gating: with user-supplied data, the learned metric should beat
    the avg and phrase-only baselines on mean Purity."""
    data_dir = os.environ["METRIC_GROUPER_DATA_DIR"]
    args = ["--corpus", os.path.join(data_dir, "corpus.jsonl"),
            "--vectors", os.path.join(data_dir, "vectors.txt"),
            "--taxonomy", os.path.join(data_dir, "taxonomy.jsonl"),
            "--out-dir", str(tmp_path)]
    config = os.path.join(data_dir, "config.ini")
    if os.path.exists(config):
        args += ["--config", config]
    for command in ("pairs", "train", "eval"):
        assert cli_main([command] + args) == 0, command
    report = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))
    rows = report["methods"]
    ordered = (rows["metric"]["purity_mean"] > rows["avg"]["purity_mean"]
               and rows["metric"]["purity_mean"] > rows["ap"]["purity_mean"])
    record_criterion(10, "directional check on user data", ordered,
                     f"metric {rows['metric']['purity_mean']:.4f} vs "
                     f"avg {rows['avg']['purity_mean']:.4f}, ap {rows['ap']['purity_mean']:.4f}")
    assert ordered


def test_criterion_10_records_skip_without_data():
    if "METRIC_GROUPER_DATA_DIR" not in os.environ:
        record_criterion(10, "directional check on user data", "skip",
                         "optional; set METRIC_GROUPER_DATA_DIR to run")
