import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from metric_grouper import clustering
from metric_grouper.clustering import kmeans, phrase_points
from metric_grouper.composition import AttentionParams, compose_test_phrase
from metric_grouper.corpus import AnnotatedCorpus, AnnotatedSentence, Mention, WordVectorTable
from metric_grouper.errors import DimensionMismatchError, TooFewPointsError
from metric_grouper.network import MetricNetwork


def exhaustive_best_inertia(points, k):
    """Optimal k-means cost by enumerating every assignment of n points."""
    n = len(points)
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        cost = 0.0
        for c in range(k):
            members = points[[i for i in range(n) if assign[i] == c]]
            if len(members):
                center = members.mean(axis=0)
                cost += float(((members - center) ** 2).sum())
        best = min(best, cost)
    return best


def reference_kmeanspp(points, k, rng):
    """k-means++ seeding with distances from explicit differences."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(n, p=d2 / total)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def reference_lloyd(points, centers, max_iter, trace=None):
    """Lloyd iterations over the (n, k, d) broadcast, one mask per cluster."""
    n, k = points.shape[0], centers.shape[0]
    prev = None
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        assign = d2.argmin(axis=1)
        sizes = np.bincount(assign, minlength=k)
        if (sizes == 0).any():
            dist_own = d2[np.arange(n), assign]
            for c in np.flatnonzero(sizes == 0):
                idx = int(dist_own.argmax())
                if dist_own[idx] <= 0.0:
                    break
                assign[idx] = c
                centers[c] = points[idx]
                dist_own[idx] = -1.0
        if trace is not None:
            trace.append(float(((points - centers[assign]) ** 2).sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign.copy()
        for c in range(k):
            members = points[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)
    inertia = float(((points - centers[assign]) ** 2).sum())
    return assign, centers, inertia


class TestKmeans:
    def test_k_equals_n_gives_singletons(self):
        rng = np.random.default_rng(0)
        result = kmeans(rng.normal(size=(5, 3)), 5, seed=1)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(result.labels.tolist()) == [0, 1, 2, 3, 4]

    def test_k_one_centroid_is_mean(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(7, 2))
        result = kmeans(data, 1, seed=0)
        assert set(result.labels.tolist()) == {0}
        assert result.centroids[0] == pytest.approx(data.mean(axis=0))

    def test_square_corners(self):
        data = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        result = kmeans(data, 2, seed=3, n_init=10)
        assert result.inertia == pytest.approx(4.0)
        assert result.inertia == pytest.approx(exhaustive_best_inertia(data, 2))

    @pytest.mark.parametrize("name, value", [
        ("k", 0), ("n_init", 0), ("n_init", -1), ("max_iter", 0), ("max_iter", -3)])
    def test_counts_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
            kmeans(np.arange(8.0).reshape(4, 2), **{"k": 2, "seed": 0, name: value})

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            kmeans(np.ones((2, 2)), 3, seed=0)

    def test_points_must_be_a_matrix(self):
        for shape in [(4,), (3, 2, 2)]:
            with pytest.raises(DimensionMismatchError, match=r"expected \(n, d\)"):
                kmeans(np.ones(shape), 1, seed=0)

    def test_duplicate_points_flag_empty_clusters(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = kmeans(np.zeros((3, 2)), 3, seed=0)
        assert result.empty_clusters == (1, 2)
        assert result.inertia == pytest.approx(0.0)

    def test_inertia_matches_recomputation(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 4))
        result = kmeans(pts, 4, seed=9)
        recomputed = sum(float(((row - result.centroids[c]) ** 2).sum())
                         for row, c in zip(pts, result.labels))
        assert result.inertia == pytest.approx(recomputed, abs=1e-9)

    def test_inertia_nonincreasing_within_restart(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(30, 2))
        trace = []
        kmeans(pts, 3, seed=2, n_init=3, trace=trace)
        assert len(trace) == 3
        for restart in trace:
            for earlier, later in zip(restart, restart[1:]):
                assert later <= earlier + 1e-9

    # Unit rows with d = 1 leave two distinct points, so some cases end with
    # empty clusters; both implementations must agree there too.
    def test_matches_broadcast_reference(self, monkeypatch):
        rng = np.random.default_rng(31)
        cases = []
        for i in range(30):
            n = int(rng.integers(2, 201))
            k = int(rng.integers(1, min(n, 10) + 1))
            d = int(rng.integers(1, 21))
            data = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0)
            if i % 2:  # the unit rows phrase_points gives K-means without a network
                data /= np.linalg.norm(data, axis=1, keepdims=True)
            cases.append((data, k, int(rng.integers(1 << 31))))
        fast = [kmeans(pts, k, seed=seed) for pts, k, seed in cases]
        monkeypatch.setattr(clustering, "_kmeanspp",
                            lambda points, x2, k, rng: reference_kmeanspp(points, k, rng))
        monkeypatch.setattr(clustering, "_lloyd",
                            lambda points, x2, centers, max_iter, trace=None:
                            reference_lloyd(points, centers, max_iter, trace))
        for (pts, k, seed), got in zip(cases, fast):
            want = kmeans(pts, k, seed=seed)
            assert np.array_equal(got.labels, want.labels)
            assert got.inertia == pytest.approx(want.inertia, rel=1e-12, abs=1e-300)

    def test_empty_cluster_reseed_matches_reference(self):
        # Centers placed far from every point start empty and get re-seeded.
        rng = np.random.default_rng(32)
        for _ in range(20):
            n, k, d = int(rng.integers(5, 60)), int(rng.integers(2, 6)), int(rng.integers(1, 6))
            points = rng.normal(size=(n, d))
            centers = points[rng.choice(n, size=k, replace=False)].copy()
            centers[rng.integers(1, k):] += 1000.0
            got_trace, want_trace = [], []
            got = clustering._lloyd(points, (points ** 2).sum(axis=1), centers.copy(), 50,
                                    got_trace)
            want = reference_lloyd(points, centers.copy(), 50, want_trace)
            assert np.array_equal(got[0], want[0])
            assert got[1] == pytest.approx(want[1], rel=1e-12, abs=1e-12)
            assert got_trace == pytest.approx(want_trace, rel=1e-12)

    def test_memory_is_not_n_by_k_by_d(self):
        # The (n, k, d) difference tensor alone would be 5000*100*50*8 B = 200 MB.
        rng = np.random.default_rng(8)
        pts = rng.normal(size=(5000, 50))
        tracemalloc.start()
        try:
            kmeans(pts, 100, seed=0, n_init=1, max_iter=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(12, 3))
        a = kmeans(pts, 3, seed=5)
        b = kmeans(pts, 3, seed=5)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia


def context_corpus():
    return AnnotatedCorpus([
        AnnotatedSentence(("alpha", "up"), (Mention("alpha", 0, 1, 0),)),
        AnnotatedSentence(("beta", "up"), (Mention("beta", 0, 1, 0),)),
        AnnotatedSentence(("gamma", "down"), (Mention("gamma", 0, 1, 1),)),
    ])


def context_table():
    return WordVectorTable(2, {
        "alpha": np.array([1.0, 0.0]),
        "beta": np.array([0.9, 0.1]),
        "gamma": np.array([1.1, -0.1]),
        "up": np.array([0.0, 3.0]),
        "down": np.array([0.0, -3.0]),
    })


def cluster(corpus, table, k, mode, seed=0):
    """Phrase -> cluster id of one K-means run over phrase_points()."""
    phrases, _, points = phrase_points(corpus, table, mode=mode)
    return dict(zip(phrases, kmeans(points, k, seed=seed).labels.tolist()))


class TestClusterCorpus:
    def test_k_equals_phrase_count_gives_singletons(self):
        result = cluster(context_corpus(), context_table(), 3, mode="avg")
        assert sorted(result.values()) == [0, 1, 2]

    def test_ap_mode_ignores_context(self):
        corpus = context_corpus()
        swapped = AnnotatedCorpus([
            AnnotatedSentence(("alpha", "down"), (Mention("alpha", 0, 1, 0),)),
            AnnotatedSentence(("beta", "down"), (Mention("beta", 0, 1, 0),)),
            AnnotatedSentence(("gamma", "up"), (Mention("gamma", 0, 1, 1),)),
        ])
        a = cluster(corpus, context_table(), 2, mode="ap", seed=4)
        b = cluster(swapped, context_table(), 2, mode="ap", seed=4)
        assert a == b

    def test_avg_mode_uses_context(self):
        result = cluster(context_corpus(), context_table(), 2, mode="avg", seed=0)
        assert result["alpha"] == result["beta"]
        assert result["alpha"] != result["gamma"]

    def test_phrase_points_shapes(self):
        phrases, composed, points = phrase_points(context_corpus(), context_table(), mode="avg")
        assert phrases == ["alpha", "beta", "gamma"]
        assert composed.shape == points.shape == (3, 4)

    def test_rows_follow_sorted_phrases(self):
        sentences = context_corpus().sentences
        table = context_table()
        zeros = AttentionParams.zeros(2)
        seen = []
        for order in itertools.permutations(sentences):
            corpus = AnnotatedCorpus(order)
            phrases, composed, points = phrase_points(corpus, table, mode="avg")
            assert phrases == ["alpha", "beta", "gamma"]
            for phrase, row in zip(phrases, composed):
                want = compose_test_phrase(phrase, corpus, table, zeros, "avg").x
                assert row.tobytes() == want.tobytes()
            seen.append((composed.tobytes(), points.tobytes()))
        assert len(set(seen)) == 1

    def test_raw_rows_unit_norm(self):
        # ap mode composes the phrase vector alone; "e" has no vector, so a zero row
        table = WordVectorTable(2, {"a": np.array([1.0, 0.0]), "b": np.array([5.0, 0.0]),
                                    "c": np.array([0.0, 2.0]), "d": np.array([0.0, 0.1])})
        corpus = AnnotatedCorpus(
            AnnotatedSentence((p, "x"), (Mention(p, 0, 1, 0),)) for p in "abcde")
        phrases, composed, points = phrase_points(corpus, table, mode="ap")
        assert composed[1].tolist() == [5.0, 0.0]
        assert np.linalg.norm(points[:4], axis=1) == pytest.approx([1.0] * 4)
        assert points[4].tolist() == [0.0, 0.0]
        # colinear compositions with different norms share a cluster
        result = kmeans(points, 3, seed=0)
        a, b, c, d, e = result.labels.tolist()
        assert a == b and c == d and len({a, c, e}) == 3
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_mode_comes_from_the_network(self):
        corpus, table = context_corpus(), context_table()
        net = MetricNetwork.create(2, mode="min", output_dim=3, n_layers=1, seed=5)
        _, composed, points = phrase_points(corpus, table, net=net)
        _, want, _ = phrase_points(corpus, table, mode="min")
        assert composed.tobytes() == want.tobytes()
        assert points.tobytes() == np.array([net.forward(x) for x in want]).tobytes()
        with pytest.raises(ValueError, match="'attention' is not the network's mode 'min'"):
            phrase_points(corpus, table, net=net, mode="attention")

    def test_learned_path_projects(self, fixture_corpus, fixture_table, trained_net):
        net, _ = trained_net
        phrases, composed, points = phrase_points(
            fixture_corpus, fixture_table, net=net, mode="attention")
        assert composed.shape == (len(phrases), 16)
        assert points.shape == (len(phrases), net.output_dim)
        assert points[0].tobytes() == net.forward(composed[0]).tobytes()
