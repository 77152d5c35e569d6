import json
import math
import re

import numpy as np
import pytest
from conftest import count_calls

from metric_grouper import clustering, network
from metric_grouper import fixture as fx
from metric_grouper.composition import AttentionParams, attend
from metric_grouper.corpus import WordVectorTable
from metric_grouper.errors import (DimensionMismatchError, DivergenceError, EmptyContextError,
                                   FormatError)
from metric_grouper.network import (
    MetricNetwork,
    TrainConfig,
    compose_backward,
    interior_dims,
    load_model,
    objective,
    pair_gradients,
    pair_loss,
    regularizer,
    save_model,
    softplus,
    train,
)
from metric_grouper.pairs import AspectSample, SamplePair

CFG = TrainConfig()


def linear_net(w):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return MetricNetwork([w], [np.zeros(w.shape[0])], activation="identity",
                         composition_mode="ap")


class TestForward:
    def test_identity_network(self):
        net = linear_net(np.eye(3))
        x = np.array([1.0, -2.0, 0.5])
        h = net.forward(x)
        assert np.array_equal(h, x)

    def test_zero_weights_tanh(self):
        net = MetricNetwork([np.zeros((2, 3))], [np.zeros(2)], activation="tanh",
                            composition_mode="ap")
        h = net.forward(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(h, np.zeros(2))

    def test_scalar_tanh(self):
        net = MetricNetwork([np.array([[2.0]])], [np.array([0.5])], activation="tanh",
                            composition_mode="ap")
        h = net.forward(np.array([1.0]))
        assert h[0] == pytest.approx(math.tanh(2.5))
        assert h[0] == pytest.approx(0.98661, abs=1e-5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_net(np.eye(3)).forward(np.ones(4))

    def test_layer_chain_validation(self):
        with pytest.raises(DimensionMismatchError):
            MetricNetwork([np.ones((4, 3)), np.ones((2, 5))],
                          [np.zeros(4), np.zeros(2)])


class TestDistance:
    def test_identical_inputs(self):
        net = MetricNetwork.create(3, mode="avg", output_dim=4, n_layers=3, seed=1)
        x = np.random.default_rng(0).normal(size=6)
        assert net.distance_sq(x, x) == 0.0

    def test_identity_unit_basis(self):
        net = linear_net(np.eye(4))
        x_i = np.array([1.0, 0.0, 0.0, 0.0])
        x_j = np.array([0.0, 1.0, 0.0, 0.0])
        assert net.distance_sq(x_i, x_j) == pytest.approx(2.0)

    def test_mahalanobis_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            w = rng.normal(size=(3, 6))
            net = linear_net(w)
            x_i, x_j = rng.normal(size=6), rng.normal(size=6)
            diff = x_i - x_j
            expected = float(diff @ (w.T @ w) @ diff)
            assert net.distance_sq(x_i, x_j) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(6)
        net = MetricNetwork.create(4, mode="avg", output_dim=3, n_layers=2, seed=2)
        for _ in range(20):
            x_i, x_j = rng.normal(size=8), rng.normal(size=8)
            d = net.distance_sq(x_i, x_j)
            assert d >= 0
            assert d == pytest.approx(net.distance_sq(x_j, x_i))


class TestPairLoss:
    def test_satisfied_positive(self):
        net = linear_net(np.zeros((2, 4)))  # d2 is always 0
        loss, omega = pair_loss(net, np.ones(4), np.zeros(4), 1, CFG)
        assert omega == pytest.approx(-2.0)
        assert loss == pytest.approx(0.5 * softplus(-2.0, CFG.beta))

    def test_softplus_at_zero(self):
        for beta in (1.0, 2.0, 7.5):
            assert softplus(0.0, beta) == pytest.approx(math.log(2.0) / beta)

    def test_hinge_envelope_bound(self):
        beta = 20.0
        omega = 1.5
        assert abs(softplus(omega, beta) - max(0.0, omega)) <= math.log(2.0) / beta

    def test_invalid_label(self):
        net = linear_net(np.eye(2))
        with pytest.raises(ValueError):
            pair_loss(net, np.ones(2), np.zeros(2), 0, CFG)

    def test_overflow_safe(self):
        assert softplus(1e4, 20.0) == pytest.approx(1e4)
        assert softplus(-1e4, 20.0) == 0.0


class TestObjective:
    def test_vanishing_pair_leaves_regularizer(self):
        rng = np.random.default_rng(7)
        net = linear_net(rng.normal(size=(2, 3)))
        cfg = TrainConfig(reg_lambda=0.01)
        # identical inputs with label -1: omega = 1 + t, still finite; use
        # a positive pair at distance 0 so omega = -2 and beta large
        sharp = TrainConfig(beta=400.0, reg_lambda=0.01)
        x = rng.normal(size=3)
        total = objective(net, [x].__getitem__, [(0, 0, 1)], sharp)
        assert total == pytest.approx(regularizer(net, sharp))
        assert regularizer(net, cfg) > 0

    def test_matches_independent_scalar_recomputation(self):
        rng = np.random.default_rng(8)
        net = MetricNetwork.create(2, mode="avg", output_dim=2, n_layers=2, seed=3)
        pairs = [(rng.normal(size=4), rng.normal(size=4), 1),
                 (rng.normal(size=4), rng.normal(size=4), -1)]
        total = objective(net, [x for x_i, x_j, _ in pairs for x in (x_i, x_j)].__getitem__,
                          [(0, 1, 1), (2, 3, -1)], CFG)
        # plain-python recomputation
        expected = 0.0
        for x_i, x_j, label in pairs:
            h_i = net.forward(x_i)
            h_j = net.forward(x_j)
            d2 = sum((a - b) ** 2 for a, b in zip(h_i, h_j))
            omega = 1.0 - label * (CFG.margin_t - d2)
            expected += 0.5 * (math.log1p(math.exp(CFG.beta * omega)) / CFG.beta)
        for w, b in zip(net.weights, net.biases):
            expected += 0.5 * CFG.reg_lambda * (float((w * w).sum()) + float((b * b).sum()))
        assert total == pytest.approx(expected, abs=1e-12)

    def test_forwards_each_distinct_input_once(self, monkeypatch):
        rng = np.random.default_rng(10)
        net = MetricNetwork.create(2, mode="avg", output_dim=2, n_layers=2, seed=5)
        xs = [rng.normal(size=4) for _ in range(3)]
        pairs = [(xs[0], xs[1], 1), (xs[1], xs[2], -1), (xs[0], xs[2], 1), (xs[2], xs[0], -1)]
        expected = sum(pair_loss(net, a, b, l, CFG)[0] for a, b, l in pairs)
        expected += regularizer(net, CFG)
        calls = []
        real = MetricNetwork.forward
        monkeypatch.setattr(MetricNetwork, "forward",
                            lambda self, x: calls.append(1) or real(self, x))
        assert objective(net, xs.__getitem__, [(0, 1, 1), (1, 2, -1), (0, 2, 1), (2, 0, -1)],
                         CFG) == expected
        assert len(calls) == 3

    def test_pair_order_invariance(self):
        rng = np.random.default_rng(9)
        net = MetricNetwork.create(2, mode="avg", output_dim=2, n_layers=1, seed=4)
        xs = rng.normal(size=(12, 4))
        pairs = [(2 * i, 2 * i + 1, (-1) ** i) for i in range(6)]
        assert objective(net, xs.__getitem__, pairs, CFG) == pytest.approx(
            objective(net, xs.__getitem__, pairs[::-1], CFG), abs=1e-12)


def fd_gradients(net, x_i, x_j, label, cfg, h=1e-5):
    """Central finite differences over every weight and bias entry."""
    out_w, out_b = [], []
    for m in range(net.n_layers):
        for arrs, out in ((net.weights, out_w), (net.biases, out_b)):
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
    return out_w, out_b


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


class TestGradients:
    def test_flat_region_gives_zero_gradients(self):
        net = MetricNetwork.create(2, mode="avg", output_dim=2, n_layers=2, seed=5)
        cfg = TrainConfig(beta=50.0)
        x = np.random.default_rng(1).normal(size=4)
        # same input, positive label: omega = -2, sigmoid(-100) ~ 0
        grads = pair_gradients(net, x, x, 1, cfg)
        for g in grads["weights"] + grads["biases"]:
            assert np.abs(g).max() < 1e-8

    def test_identical_inputs_have_zero_distance_gradient(self):
        net = MetricNetwork.create(2, mode="avg", output_dim=3, n_layers=2, seed=6)
        x = np.random.default_rng(2).normal(size=4)
        grads = pair_gradients(net, x, x, 1, CFG)
        for g in grads["weights"] + grads["biases"]:
            assert np.abs(g).max() == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        layers = int(rng.integers(1, 4))
        net = MetricNetwork.create(2, mode="avg", output_dim=2, n_layers=layers,
                                   seed=seed)
        x_i, x_j = rng.normal(size=4), rng.normal(size=4)
        label = 1 if rng.random() < 0.5 else -1
        grads = pair_gradients(net, x_i, x_j, label, CFG)
        fd_w, fd_b = fd_gradients(net, x_i, x_j, label, CFG)
        for got, want in zip(grads["weights"] + grads["biases"], fd_w + fd_b):
            assert rel_err(got, want) < 1e-4

    def test_reused_workspace_matches_fresh_buffers(self):
        # one workspace across networks and pairs: nothing of a step may leak into the next
        rng = np.random.default_rng(14)
        for seed in range(3):
            net = MetricNetwork.create(3, mode="avg", output_dim=3, n_layers=3,
                                       activation=("tanh", "identity")[seed % 2], seed=seed)
            net.biases[0][:] = rng.normal(size=net.biases[0].size)
            workspace = network.gradient_workspace(net)
            for _ in range(4):
                x_i, x_j = rng.normal(size=6), rng.normal(size=6)
                label = int(rng.choice([1, -1]))
                fresh = pair_gradients(net, x_i, x_j, label, CFG)
                reused = pair_gradients(net, x_i, x_j, label, CFG, workspace=workspace)
                assert reused["flat"] is workspace[0][0]
                assert reused["flat"].tobytes() == fresh["flat"].tobytes()
                for key in ("x_i", "x_j"):
                    assert reused[key].tobytes() == fresh[key].tobytes()
                assert reused["omega"] == fresh["omega"]
                for got, want in zip(reused["weights"] + reused["biases"],
                                     fresh["weights"] + fresh["biases"]):
                    assert got.tobytes() == want.tobytes()


class TestComposeBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        d = 3
        net = MetricNetwork.create(d, mode="attention", output_dim=2, n_layers=2,
                                   seed=8)
        net.attention.w_a[:] = rng.normal(size=d) * 0.5
        ctx_i, ctx_j = rng.normal(size=(4, d)), rng.normal(size=(3, d))
        p_i, p_j = rng.normal(size=d), rng.normal(size=d)

        def compose_pair():
            return (attend(ctx_i, p_i, net.attention.w_a), attend(ctx_j, p_j, net.attention.w_a))

        (x_i, weights_i), (x_j, weights_j) = compose_pair()
        grads = pair_gradients(net, x_i, x_j, -1, CFG)
        g_wa = (compose_backward(ctx_i, weights_i, grads["x_i"])
                + compose_backward(ctx_j, weights_j, grads["x_j"]))

        step = 1e-6
        w_a = net.attention.w_a
        fd = np.zeros_like(w_a)
        for idx in range(w_a.size):
            orig = w_a[idx]
            values = []
            for shifted in (orig + step, orig - step):
                w_a[idx] = shifted
                values.append(pair_loss(net, *(x for x, _ in compose_pair()), -1, CFG)[0])
            w_a[idx] = orig
            fd[idx] = (values[0] - values[1]) / (2 * step)
        assert rel_err(g_wa, fd) < 1e-4


def toy_training_setup():
    table = WordVectorTable(2, {
        "picture": np.array([1.0, 0.2]),
        "sound": np.array([-0.9, 0.1]),
        "clear": np.array([0.8, 0.9]),
        "loud": np.array([-0.7, -0.8]),
        "the": np.array([0.05, -0.03]),
    })
    def sample(phrase, ctx, sid):
        return AspectSample(phrase, ctx, (sid,))
    s = [
        sample("picture", ("the", "picture", "clear"), 0),
        sample("picture", ("picture", "clear", "clear"), 1),
        sample("sound", ("the", "sound", "loud"), 2),
        sample("sound", ("sound", "loud", "the"), 3),
    ]
    pairs = [
        SamplePair(s[0], s[1], 1),
        SamplePair(s[2], s[3], 1),
        SamplePair(s[0], s[2], -1),
        SamplePair(s[1], s[3], -1),
    ]
    return table, pairs


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self):
        table, pairs = toy_training_setup()
        cfg = TrainConfig(learning_rate=0.0, epochs=3)
        net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=9)
        before = [w.copy() for w in net.weights] + [net.attention.w_a.copy()]
        train(net, pairs, table, cfg)
        after = net.weights + [net.attention.w_a]
        for b, a in zip(before, after):
            assert np.array_equal(b, a)

    def test_same_seed_bitwise_identical_history(self):
        table, pairs = toy_training_setup()
        runs = []
        for _ in range(2):
            cfg = TrainConfig(epochs=5, seed=21)
            net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=3,
                                       seed=21)
            _, history = train(net, pairs, table, cfg)
            runs.append(history)
        assert runs[0] == runs[1]

    def test_objective_decreases_on_separable_data(self):
        table, pairs = toy_training_setup()
        cfg = TrainConfig(epochs=15, seed=3)
        net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=3)
        _, history = train(net, pairs, table, cfg)
        assert history[-1] < history[0]

    def test_divergence_reports_epoch_and_pair(self):
        table, pairs = toy_training_setup()
        # the runaway weight-decay factor (1 - lr*lambda) overflows the
        # weights within a few steps at this rate
        cfg = TrainConfig(learning_rate=1e155, epochs=2, seed=0)
        net = MetricNetwork.create(2, mode="avg", output_dim=2, n_layers=2, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch \d+, pair index \d+"):
                train(net, pairs, table, cfg)

    def test_attention_parameter_moves_when_tuned(self):
        table, pairs = toy_training_setup()
        cfg = TrainConfig(epochs=5, seed=2)
        net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=2)
        train(net, pairs, table, cfg)
        assert np.abs(net.attention.w_a).max() > 0


class TestWordDim:
    """Word vectors of another width than the network's get one refusal, before any
    phrase is composed."""

    @pytest.mark.parametrize("mode", ["attention", "avg", "ap"])
    def test_train_and_phrase_points_refuse_before_composing(
            self, monkeypatch, fixture_corpus, fixture_table, fixture_pairs, mode):
        wide = WordVectorTable(fx.DIMENSION + 1, {
            token: np.append(vec, 0.0) for token, vec in fixture_table.vectors.items()})
        net = MetricNetwork.create(fx.DIMENSION, mode=mode, output_dim=2, n_layers=2, seed=1)
        assert net.word_dim == 8
        before = net.params.copy()
        calls = count_calls(monkeypatch, clustering, "compose_test_phrase")
        calls.update(count_calls(monkeypatch, network, "attend", "compose_vectors"))
        message = ("the network composes 8-dimensional word vectors; "
                   "the word vectors have dimension 9")
        with pytest.raises(DimensionMismatchError) as info:
            train(net, fixture_pairs, wide, TrainConfig(epochs=1))
        assert str(info.value) == message
        with pytest.raises(DimensionMismatchError) as info:
            clustering.phrase_points(fixture_corpus, wide, net=net)
        assert str(info.value) == message
        assert calls == {"compose_test_phrase": [], "attend": [], "compose_vectors": []}
        assert np.array_equal(net.params, before)


class TestTrainChecks:
    """Bad input fails before the first step, leaving the network as it was."""

    def test_bad_label_raises_before_first_step(self):
        table, pairs = toy_training_setup()
        bad = pairs + [SamplePair(pairs[0].left, pairs[2].left, 0)]
        net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=1)
        before = net.params.copy()
        with pytest.raises(ValueError, match="pair 4: label must be"):
            train(net, bad, table, TrainConfig(epochs=2, seed=1))
        assert np.array_equal(net.params, before)

    def test_width_mismatch_raises_before_first_step(self):
        table, pairs = toy_training_setup()
        # the network composes 3-wide word vectors; the table's are 2 wide
        net = MetricNetwork.create(3, mode="avg", output_dim=2, n_layers=2, seed=1)
        before = net.params.copy()
        with pytest.raises(DimensionMismatchError) as info:
            train(net, pairs, table, TrainConfig(epochs=2, seed=1))
        assert str(info.value) == ("the network composes 3-dimensional word vectors; "
                                   "the word vectors have dimension 2")
        assert np.array_equal(net.params, before)

    def test_empty_context_raises_before_first_step(self):
        table, pairs = toy_training_setup()
        ghost = AspectSample("qqq zzz", (), (4,))
        bad = pairs + [SamplePair(pairs[0].left, ghost, -1)]
        net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=1)
        before = net.params.copy()
        with pytest.raises(EmptyContextError, match="'qqq zzz'"):
            train(net, bad, table, TrainConfig(epochs=2, seed=1))
        assert np.array_equal(net.params, before)

    def test_attention_length_mismatch_raises_before_first_step(self):
        # A w_a that does not fit the input width never reaches train(): no
        # such network is built.
        base = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=1)
        with pytest.raises(DimensionMismatchError) as info:
            MetricNetwork(base.weights, base.biases, attention=AttentionParams(np.zeros(3)))
        assert str(info.value) == ("attention_w has 3 entries, expected 2 for input width 4 "
                                   "in attention mode")

    def test_divergence_in_attention_alone(self, monkeypatch):
        table, pairs = toy_training_setup()
        real = network.compose_backward

        def poisoned(*args):
            return np.full_like(real(*args), np.inf)

        monkeypatch.setattr(network, "compose_backward", poisoned)
        cfg = TrainConfig(epochs=2, seed=4)
        net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=4)
        first = int(np.random.default_rng(4).permutation(len(pairs))[0])
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError, match=rf"epoch 1, pair index {first}$"):
                train(net, pairs, table, cfg)
        assert np.isfinite(net.params[:net.n_mlp]).all()
        assert not np.isfinite(net.attention.w_a).all()

    def test_one_pair_gradients_call_per_step(self, monkeypatch):
        table, pairs = toy_training_setup()
        calls = []
        real = network.pair_gradients
        monkeypatch.setattr(network, "pair_gradients",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        net = MetricNetwork.create(2, mode="attention", output_dim=2, n_layers=2, seed=2)
        train(net, pairs, table, TrainConfig(epochs=3, seed=2))
        assert len(calls) == 3 * len(pairs)


def _reference_sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def _reference_forward(weights, biases, activation, x):
    a = x
    inputs, acts = [], []
    for w, b in zip(weights, biases):
        inputs.append(a)
        z = w @ a + b
        a = np.tanh(z) if activation == "tanh" else z
        acts.append(a)
    return a, (inputs, acts)


def _reference_backward(weights, activation, cache, grad_out):
    inputs, acts = cache
    u = grad_out
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    for m in range(len(weights) - 1, -1, -1):
        deriv = 1.0 - acts[m] ** 2 if activation == "tanh" else np.ones_like(acts[m])
        delta = u * deriv
        grads_w[m] = np.outer(delta, inputs[m])
        grads_b[m] = delta
        u = weights[m].T @ delta
    return grads_w, grads_b, u


def _reference_parts(sample, lookup, dim, policy_zero, mode):
    rows = []
    if mode != "ap":
        for tok in sample.context_tokens:
            vec = lookup(tok)
            if vec is None:
                if policy_zero:
                    rows.append(np.zeros(dim))
            else:
                rows.append(vec)
    context = np.array(rows) if rows else np.zeros((0, dim))
    pvecs = [lookup(t) for t in sample.phrase.split()]
    if policy_zero:
        pvecs = [np.zeros(dim) if v is None else v for v in pvecs]
    else:
        pvecs = [v for v in pvecs if v is not None]
    p = np.mean(pvecs, axis=0) if pvecs else np.zeros(dim)
    return context, p


def _reference_compose(context, p, w_a, mode):
    """Composed vector and attention weights (None outside attention mode)."""
    if mode == "ap":
        return p.copy(), None
    if mode == "attention":
        scores = context @ w_a
        shifted = scores - scores.max()
        exp = np.exp(shifted)
        weights = exp / exp.sum()
        return np.concatenate([weights @ context, p]), weights
    reduce = {"avg": np.mean, "min": np.min, "max": np.max}[mode]
    return np.concatenate([reduce(context, axis=0), p]), None


def _reference_grad_wa(context, weights, grad_x):
    """Gradient of w_a through the attention composition."""
    g = context @ grad_x[:context.shape[1]]
    q = float(weights @ g)
    ds = weights * (g - q)
    return context.T @ ds


def reference_train(net, pairs, table, cfg, mode):
    """Per-pair SGD on separate weight, bias and attention arrays.

    This is the training loop as it stood before the flat parameter
    buffer: two branch forwards and backwards per pair, the per-layer sums
    gw_i + gw_j, a decay step per array, and an epoch objective that
    forwards both samples of every pair. Its token lookups are the ones
    training had before they went through WordVectorTable.lookup()
    (``_reference_parts``), and it composes and backpropagates into w_a
    with its own copies of that arithmetic. Returns (weights, biases, w_a,
    history) and leaves ``net`` untouched.
    """
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    w_a = net.attention.w_a.copy()
    act = net.activation
    rng = np.random.default_rng(cfg.seed)
    samples, index = [], {}
    for pair in pairs:
        for s in (pair.left, pair.right):
            if s not in index:
                index[s] = len(samples)
                samples.append(s)
    pair_idx = [(index[p.left], index[p.right], p.label) for p in pairs]
    recompose = mode == "attention"
    parts = [_reference_parts(s, table.get, table.dimension, True, mode) for s in samples]

    def compose_now(k):
        return _reference_compose(*parts[k], w_a, mode)

    static_x = [compose_now(k) for k in range(len(samples))]

    def epoch_objective():
        composed = [compose_now(k)[0] if recompose else static_x[k][0]
                    for k in range(len(samples))]
        total = 0.0
        for a, b, label in pair_idx:
            h_i, _ = _reference_forward(weights, biases, act, composed[a])
            h_j, _ = _reference_forward(weights, biases, act, composed[b])
            diff = h_i - h_j
            omega = 1.0 - label * (cfg.margin_t - float(diff @ diff))
            total += 0.5 * float(np.logaddexp(0.0, cfg.beta * omega) / cfg.beta)
        acc = 0.0
        for w, b in zip(weights, biases):
            acc += float((w * w).sum() + (b * b).sum())
        return (total + 0.5 * cfg.reg_lambda * acc) / len(pairs)

    lr, lam = cfg.learning_rate, cfg.reg_lambda
    history = []
    for _epoch in range(cfg.epochs):
        for k in rng.permutation(len(pair_idx)):
            a, b, label = pair_idx[k]
            if recompose:
                (x_i, att_i), (x_j, att_j) = compose_now(a), compose_now(b)
            else:
                (x_i, att_i), (x_j, att_j) = static_x[a], static_x[b]
            h_i, cache_i = _reference_forward(weights, biases, act, x_i)
            h_j, cache_j = _reference_forward(weights, biases, act, x_j)
            diff = h_i - h_j
            omega = 1.0 - label * (cfg.margin_t - float(diff @ diff))
            coef = 0.5 * _reference_sigmoid(cfg.beta * omega) * label
            gw_i, gb_i, gx_i = _reference_backward(weights, act, cache_i, coef * 2.0 * diff)
            gw_j, gb_j, gx_j = _reference_backward(weights, act, cache_j, coef * -2.0 * diff)
            for m in range(len(weights)):
                weights[m] -= lr * ((gw_i[m] + gw_j[m]) + lam * weights[m])
                biases[m] -= lr * ((gb_i[m] + gb_j[m]) + lam * biases[m])
            if recompose:
                for (context, _), att, gx in ((parts[a], att_i, gx_i), (parts[b], att_j, gx_j)):
                    w_a -= lr * _reference_grad_wa(context, att, gx)
        history.append(epoch_objective())
    return weights, biases, w_a, history


class TestReferenceLoop:
    """train() reproduces the separate-array loop bit for bit."""

    # reg_lambda None keeps the TrainConfig default, inputs None the fixture
    # table; None is left out of the id. The "False" in each id is kept from
    # when a case with frozen attention ran beside these.
    @pytest.mark.parametrize("mode, layers, activation, reg_lambda, inputs", [
        pytest.param(*case, id="-".join(str(v) for v in (*case[:4], False, case[4])
                                        if v is not None))
        for case in [
            ("attention", 3, "tanh", 0.0, None),    # no L2 penalty
            ("attention", 3, "tanh", 0.5, None),    # strong L2 penalty
            ("avg", 3, "tanh", None, None),         # static inputs: composed once
            ("avg", 1, "identity", None, None),
            # a zero last vector column zeroes two components of every composed
            # input, so every step multiplies exact zeros into weight gradients
            ("attention", 3, "tanh", None, "zero-column"),
        ]
    ])
    def test_bitwise_equal(self, fixture_pairs, fixture_table,
                           mode, layers, activation, reg_lambda, inputs):
        table = fixture_table
        if inputs == "zero-column":
            table = WordVectorTable(table.dimension, {
                token: np.append(vec[:-1], 0.0) for token, vec in table.vectors.items()})
        penalty = {} if reg_lambda is None else {"reg_lambda": reg_lambda}
        cfg = TrainConfig(epochs=2, seed=7, **penalty)
        net = MetricNetwork.create(table.dimension, mode=mode, output_dim=6,
                                   n_layers=layers, activation=activation, seed=7)
        want_w, want_b, want_wa, want_history = reference_train(
            net, fixture_pairs, table, cfg, mode)
        _, history = train(net, fixture_pairs, table, cfg)
        assert history == want_history
        # tobytes() tells -0.0 from 0.0, which np.array_equal does not
        for got, want in zip(net.weights + net.biases + [net.attention.w_a],
                             want_w + want_b + [want_wa]):
            assert got.tobytes() == want.tobytes()
        assert want_wa.any() == (mode == "attention")


class TestParameterBuffer:
    def test_views_share_one_buffer(self):
        net = MetricNetwork.create(3, mode="attention", output_dim=2, n_layers=3, seed=3)
        for arr in net.weights + net.biases + [net.attention.w_a]:
            assert np.shares_memory(arr, net.params)
        assert net.n_mlp + net.attention.w_a.size == net.params.size
        net.attention.w_a[1] = np.nan
        assert not net.params_finite()
        with pytest.raises(AttributeError):  # the layout is fixed when the network is built
            net.attention = AttentionParams(np.zeros(3))
        with pytest.raises(AttributeError):  # and so is w_a's length
            net.attention.w_a = np.zeros(2)


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        net = MetricNetwork.create(3, mode="attention", output_dim=2, n_layers=3, seed=11)
        net.attention.w_a[:] = np.random.default_rng(0).normal(size=3)
        path = str(tmp_path / "model.json")
        save_model(net, path, config_hash="abc123", extra={"loss_history": [0.5, 0.25]})
        loaded, meta = load_model(path)
        for w1, w2 in zip(net.weights, loaded.weights):
            assert w1.tobytes() == w2.tobytes()
        for b1, b2 in zip(net.biases, loaded.biases):
            assert b1.tobytes() == b2.tobytes()
        assert net.attention.w_a.tobytes() == loaded.attention.w_a.tobytes()
        assert loaded.activation == net.activation
        assert loaded.composition_mode == net.composition_mode
        assert meta["config_hash"] == "abc123"
        assert meta["loss_history"] == [0.5, 0.25]

    def test_malformed_checkpoint(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(MetricNetwork.create(3, mode="attention", output_dim=2, n_layers=2, seed=11),
                   str(path))
        saved = json.loads(path.read_text(encoding="utf-8"))
        short_bias = json.loads(json.dumps(saved))
        short_bias["layers"][1]["b"].pop()
        for doc in ({"format_version": network.MODEL_FORMAT_VERSION},  # no layers
                    short_bias,
                    dict(saved, composition_mode="bogus")):
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(FormatError,
                               match=f"^{re.escape(str(path))}: malformed checkpoint"):
                load_model(str(path))

    @pytest.mark.parametrize("where", ["weight", "bias", "attention"])
    def test_non_finite_parameter_rejected(self, tmp_path, where):
        net = MetricNetwork.create(3, mode="attention", output_dim=2, n_layers=2, seed=11)
        path = tmp_path / "model.json"
        save_model(net, str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        if where == "weight":
            doc["layers"][1]["w"][0][1] = float("nan")
        elif where == "bias":
            doc["layers"][0]["b"][0] = float("-inf")
        else:
            doc["attention_w"][2] = float("nan")
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*non-finite"):
            load_model(str(path))

    @pytest.mark.parametrize("mode, size, expected", [
        pytest.param("attention", 2, "3", id="attention-short"),
        pytest.param("attention", 6, "3", id="attention-input_dim"),
        pytest.param("avg", 4, "3", id="avg-long"),
        pytest.param("ap", 1, "3", id="ap-short"),
    ])
    def test_attention_length_must_fit_input(self, tmp_path, mode, size, expected):
        word_dim = 3
        net = MetricNetwork.create(word_dim, mode=mode, output_dim=2, n_layers=2, seed=11)
        path = tmp_path / "model.json"
        save_model(net, str(path))
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["attention_w"] = [0.5] * size
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(FormatError) as info:
            load_model(str(path))
        assert str(info.value) == (
            f"{path}: malformed checkpoint (attention_w has {size} entries, expected "
            f"{expected} for input width {net.input_dim} in {mode} mode)")

    @pytest.mark.parametrize("weights, attention, message", [
        pytest.param((4, 16), AttentionParams(np.zeros(5)),
                     "attention_w has 5 entries, expected 8 for input width 16 in attention mode",
                     id="short-attention"),
        pytest.param((4, 15), None,
                     "attention_w has 7 entries, expected 7.5 for input width 15 in attention mode",
                     id="odd-width"),
    ])
    def test_constructor_refuses_what_load_refuses(self, weights, attention, message):
        # so save_model() is never handed a network load_model() would refuse
        with pytest.raises(DimensionMismatchError) as info:
            MetricNetwork([np.zeros(weights)], [np.zeros(weights[0])], attention=attention)
        assert str(info.value) == message

    # version 1 had a dropout_rate field, version 2 a 2d-long attention_w
    @pytest.mark.parametrize("version, extra", [
        (1, {"dropout_rate": 0.5}),
        (2, {"attention_w": [0.0] * 6}),
    ], ids=["1", "2"])
    def test_old_format_version_rejected(self, tmp_path, version, extra):
        net = MetricNetwork.create(3, mode="attention", output_dim=2, n_layers=2, seed=11)
        path = str(tmp_path / "model.json")
        save_model(net, path, extra={"format_version": version, **extra})
        with pytest.raises(FormatError, match=f"unsupported format version {version}$"):
            load_model(path)


class TestTrainConfig:
    def test_margin_must_exceed_one(self):
        with pytest.raises(ValueError):
            TrainConfig(margin_t=1.0)

    def test_beta_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(beta=0.0)

    def test_lambda_nonnegative(self):
        with pytest.raises(ValueError):
            TrainConfig(reg_lambda=-0.1)

    @pytest.mark.parametrize("field", ["margin_t", "beta", "reg_lambda", "learning_rate"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be .*finite"):
            TrainConfig(**{field: value})


class TestDims:
    def test_geometric_interpolation_matches_reference_shape(self):
        assert interior_dims(400, 50, 3) == [200, 100]
        assert interior_dims(16, 8, 3) == [13, 10]
        assert interior_dims(10, 5, 1) == []

    def test_create_glorot_bounds(self):
        net = MetricNetwork.create(100, mode="attention", output_dim=50, n_layers=3, seed=0)
        assert net.input_dim == 200
        assert [w.shape for w in net.weights] == [(126, 200), (79, 126), (50, 79)]
        limit = math.sqrt(6.0 / (200 + 126))
        assert np.abs(net.weights[0]).max() <= limit
        assert all(np.array_equal(b, np.zeros_like(b)) for b in net.biases)
        assert np.array_equal(net.attention.w_a, np.zeros(100))
