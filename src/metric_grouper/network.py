"""Siamese deep distance metric.

Two parameter-shared MLP branches map composed inputs into a feature
subspace where squared Euclidean distance separates incompatible phrase
pairs from same-phrase pairs. With a single linear layer and zero bias
the squared distance reduces to the Mahalanobis form
(x_i - x_j)^T W^T W (x_i - x_j).

Training minimizes softplus(1 - l * (t - d^2)) / 2 summed over pairs plus
an L2 penalty on the MLP weights and biases, by per-pair stochastic
gradient descent with exact backpropagation through both branches and,
in attention mode, into the attention parameter w_a. The word embeddings
stay fixed. Both branches run the same deterministic forward pass, so two
identical inputs are at distance exactly zero; the seed draws only the
initial weights and the pair order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .composition import (MODES, AttentionParams, attend, compose_backward, compose_vectors,
                          input_width, used_context)
from .errors import ConfigError, DimensionMismatchError, DivergenceError, FormatError
from .jsonl import is_int

MODEL_FORMAT_VERSION = 3


def softplus(omega, beta):
    """log(1 + exp(beta * omega)) / beta, overflow-safe."""
    return np.logaddexp(0.0, beta * omega) / beta


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


ACTIVATIONS = ("tanh", "identity")


def interior_dims(input_dim, output_dim, n_layers):
    """Hidden widths by geometric interpolation between input and output."""
    dims = []
    for i in range(1, n_layers):
        w = round(input_dim ** ((n_layers - i) / n_layers) * output_dim ** (i / n_layers))
        dims.append(max(1, int(w)))
    return dims


def check_hidden_dims(hidden_dims, n_layers):
    """Reject explicit hidden widths that do not give ``n_layers`` layers (None passes)."""
    if hidden_dims is not None and len(hidden_dims) != n_layers - 1:
        raise ConfigError(f"[network] hidden_dims: {n_layers} layers need "
                          f"{n_layers - 1} hidden widths, got {len(hidden_dims)}")


# TrainConfig field -> (test, what the value must be); the [training] settings and
# every section's seed read it too.
TRAINING_RANGES = {
    "margin_t": (lambda v: 1 < v < math.inf, "finite and greater than 1"),
    "beta": (lambda v: 0 < v < math.inf, "positive and finite"),
    "reg_lambda": (lambda v: 0 <= v < math.inf, "nonnegative and finite"),
    "learning_rate": (lambda v: 0 <= v < math.inf, "nonnegative and finite"),
    "epochs": (lambda v: v >= 1, "at least 1"),
    "seed": (lambda v: v >= 0, "nonnegative"),
}


@dataclass
class TrainConfig:
    """Hyperparameters for pair training.

    ``margin_t`` is the distance threshold t (> 1, so that t - 1 > 0);
    same-phrase pairs are pushed below t - 1 and incompatible pairs above
    t + 1. ``beta`` sharpens the softplus, ``reg_lambda`` scales the L2
    penalty, ``learning_rate`` is the SGD step. ``epochs`` and ``seed`` are integers.
    """
    margin_t: float = 3.0
    beta: float = 2.0
    reg_lambda: float = 0.002
    learning_rate: float = 0.03
    epochs: int = 30
    seed: int = 42

    def __post_init__(self):
        for field in fields(self):
            value, (ok, wanted) = getattr(self, field.name), TRAINING_RANGES[field.name]
            if field.type == "int" and not is_int(value):
                raise ValueError(f"{field.name} must be an integer")
            if not ok(value):
                raise ValueError(f"{field.name} must be {wanted}")


class MetricNetwork:
    """MLP branch shared by both sides of the Siamese pair.

    ``weights``, ``biases`` and ``attention.w_a`` are views into one flat
    buffer, ``params``, in that order layer by layer; its first ``n_mlp``
    entries are the MLP parameters, and gradients share their layout.
    No network is built whose ``w_a``, one entry per word component, misfits its input.
    """

    def __init__(self, weights, biases, activation="tanh", attention=None,
                 composition_mode="attention"):
        if activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(ACTIVATIONS)}")
        if composition_mode not in MODES:
            raise ValueError(f"unknown composition mode {composition_mode!r}")
        if len(weights) != len(biases) or not weights:
            raise ValueError("need matching, non-empty weight and bias lists")
        weights = [np.array(w, dtype=float) for w in weights]
        biases = [np.array(b, dtype=float) for b in biases]
        for m, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
                raise DimensionMismatchError(f"layer {m}: weight/bias shapes disagree")
            if m and w.shape[1] != weights[m - 1].shape[0]:
                raise DimensionMismatchError(
                    f"layer {m}: input width {w.shape[1]} does not chain with "
                    f"previous output {weights[m - 1].shape[0]}")
        self.activation = activation
        self._tanh = activation == "tanh"
        self.composition_mode = composition_mode
        width = weights[0].shape[1]
        if attention is None:
            attention = AttentionParams.zeros(width if composition_mode == "ap" else width // 2)
        size = attention.w_a.size
        if input_width(composition_mode, size) != width:
            raise DimensionMismatchError(
                f"attention_w has {size} entries, expected "
                f"{width if composition_mode == 'ap' else width / 2:g} for input width "
                f"{width} in {composition_mode} mode")
        self._shapes = [w.shape for w in weights]
        self.params = np.concatenate(
            [a.ravel() for wb in zip(weights, biases) for a in wb] + [attention.w_a])
        self.n_mlp = self.params.size - attention.w_a.size
        self.weights, self.biases = self.split(self.params)
        self._attention = AttentionParams(self.params[self.n_mlp:])

    def split(self, flat):
        """Per-layer weight and bias views into a buffer laid out like ``params``."""
        weights, biases, off = [], [], 0
        for rows, cols in self._shapes:
            weights.append(flat[off:off + rows * cols].reshape(rows, cols))
            off += rows * cols
            biases.append(flat[off:off + rows])
            off += rows
        return weights, biases

    @property
    def attention(self):
        return self._attention

    @property
    def word_dim(self):
        """Width of the word vectors the network composes: the length of ``w_a``."""
        return self._attention.w_a.size

    def check_word_dim(self, d):
        """Raise DimensionMismatchError unless the network composes d-wide word vectors."""
        if d != self.word_dim:
            raise DimensionMismatchError(
                f"the network composes {self.word_dim}-dimensional word vectors; "
                f"the word vectors have dimension {d}")

    @property
    def input_dim(self):
        return self.weights[0].shape[1]

    @property
    def output_dim(self):
        return self.weights[-1].shape[0]

    @property
    def n_layers(self):
        return len(self.weights)

    @classmethod
    def create(cls, word_dim, mode="attention", output_dim=50, n_layers=3,
               hidden_dims=None, activation="tanh", seed=0):
        """Fresh network with Glorot-uniform weights and zero biases.

        The attention parameter starts at zero so the first weighting is
        uniform. Hidden widths default to geometric interpolation.
        """
        input_dim = input_width(mode, word_dim)
        check_hidden_dims(hidden_dims, n_layers)
        if hidden_dims is None:
            hidden_dims = interior_dims(input_dim, output_dim, n_layers)
        dims = [input_dim] + list(hidden_dims) + [output_dim]
        rng = np.random.default_rng(seed)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases, activation=activation,
                   attention=AttentionParams.zeros(word_dim), composition_mode=mode)

    def forward(self, x):
        """Map x, which must have shape (input_dim,), through the layers; returns the output."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise DimensionMismatchError(
                f"input has shape {x.shape}, expected ({self.input_dim},)")
        return self._forward(x)[0]

    def _forward(self, x):
        """Unchecked forward pass; returns (output, cache), which backward() reads."""
        a = x
        inputs, acts = [], []
        for w, b in zip(self.weights, self.biases):
            inputs.append(a)
            z = np.dot(w, a)
            z += b
            a = np.tanh(z, out=z) if self._tanh else z
            acts.append(a)
        return a, (inputs, acts)

    def backward(self, cache, u, grads_w, grads_b, input_grad=True):
        """Backpropagate the output gradient ``u`` through the cached pass.

        Writes the weight and bias gradients into views from split().
        Returns the input gradient, or None when ``input_grad`` is false
        and its product is skipped.
        """
        inputs, acts = cache
        for m in range(self.n_layers - 1, -1, -1):
            delta = np.multiply(u, 1.0 - acts[m] ** 2 if self._tanh else 1.0, out=grads_b[m])
            np.dot(delta[:, None], inputs[m][None, :], out=grads_w[m])
            if m == 0 and not input_grad:
                return None
            u = np.dot(self.weights[m].T, delta)
        return u

    def distance_sq(self, x_i, x_j):
        """Squared Euclidean distance between the mapped inputs."""
        diff = self.forward(x_i) - self.forward(x_j)
        return float(diff @ diff)

    def params_finite(self):
        return bool(np.isfinite(self.params).all())


def _omega(d2, label, cfg):
    """omega = 1 - label * (t - d2): how far the pair sits from its margin."""
    if label not in (1, -1):
        raise ValueError("label must be +1 or -1")
    return 1.0 - label * (cfg.margin_t - d2)


def _margin_loss(d2, label, cfg):
    """softplus(omega)/2; returns (loss, omega)."""
    omega = _omega(d2, label, cfg)
    return 0.5 * float(softplus(omega, cfg.beta)), omega


def pair_loss(net, x_i, x_j, label, cfg):
    """Per-pair objective term softplus(omega)/2; returns (loss, omega).

    omega = 1 - label * (t - d^2) measures how far the pair sits from
    satisfying its margin constraint.
    """
    return _margin_loss(net.distance_sq(x_i, x_j), label, cfg)


def regularizer(net, cfg):
    """lambda/2 times the summed squared Frobenius/L2 norms of the layers.

    The attention parameter is deliberately excluded; the penalty covers
    the MLP weights and biases only.
    """
    acc = 0.0
    for w, b in zip(net.weights, net.biases):
        acc += float((w * w).sum() + (b * b).sum())
    return 0.5 * cfg.reg_lambda * acc


def objective(net, inputs, pairs, cfg):
    """Sum of pair losses plus the regularizer over ``(k_i, k_j, label)`` sample-index triples.

    ``inputs(k)`` composes sample k, which is forwarded once, when a pair first
    names it; its output alone is kept, under k. Forwards are deterministic.
    """
    outputs = {}  # sample index -> its output
    total = 0.0
    for k_i, k_j, label in pairs:
        for k in (k_i, k_j):
            if k not in outputs:
                outputs[k] = net.forward(inputs(k))
        diff = outputs[k_i] - outputs[k_j]
        total += _margin_loss(float(diff @ diff), label, cfg)[0]
    return total + regularizer(net, cfg)


def gradient_workspace(net):
    """One MLP-sized gradient buffer per branch, each as (flat, *net.split(flat))."""
    return [(flat, *net.split(flat)) for flat in (np.empty(net.n_mlp), np.empty(net.n_mlp))]


def pair_gradients(net, x_i, x_j, label, cfg, input_grads=True, workspace=None):
    """Exact gradients of the per-pair loss term.

    Gradients flow through both branches and sum on the shared weights.
    Returns a dict with the flat MLP gradient and its per-layer
    weight/bias views, input gradients for both branches (None unless
    ``input_grads``), and omega; pair_loss() gives the loss. The gradients
    live in ``workspace`` (gradient_workspace(); a new one when None) until
    its next use. Input shapes are unchecked; forward() and train() check them.
    """
    (flat, grads_w, grads_b), (flat_j, grads_wj, grads_bj) = (
        gradient_workspace(net) if workspace is None else workspace)
    h_i, cache_i = net._forward(x_i)
    h_j, cache_j = net._forward(x_j)
    diff = h_i - h_j
    omega = _omega(float(np.dot(diff, diff)), label, cfg)
    # d loss / d d2 = sigmoid(beta * omega) * label / 2
    coef = 0.5 * _sigmoid(cfg.beta * omega) * label
    gx_i = net.backward(cache_i, coef * 2.0 * diff, grads_w, grads_b,
                        input_grad=input_grads)
    gx_j = net.backward(cache_j, coef * -2.0 * diff, grads_wj, grads_bj,
                        input_grad=input_grads)
    np.add(flat, flat_j, out=flat)
    return {"flat": flat, "weights": grads_w, "biases": grads_b,
            "x_i": gx_i, "x_j": gx_j, "omega": omega}


def train(net, pairs, table, cfg):
    """Stochastic per-pair training; mutates and returns ``net``.

    Every epoch visits a seeded shuffle of the pairs, taking one gradient
    step per pair with L2 weight decay on the MLP parameters. Samples are
    composed in ``net.composition_mode``. In attention mode each step also
    moves ``w_a``, so samples are recomposed at every step with its live
    value; the other modes compose them once. The word embeddings are never
    tuned. The history records the mean objective after each epoch;
    ``cfg.seed`` draws the pair order, so identical seeds and data
    reproduce it bitwise.

    A sample is kept as its context tokens' rows of ``table.matrix``
    (``WordVectorTable.rows``: an unknown token's is the zero row) and its
    phrase's vector, one per distinct phrase; a step gathers the rows it
    composes, and the epoch objective keeps one output row per sample. The
    word width (MetricNetwork.check_word_dim()), labels and each sample's
    context tokens (composition.used_context()) are checked before anything
    is composed. Raises DivergenceError, naming epoch and pair index, if any
    parameter stops being finite.
    """
    if not pairs:
        raise ValueError("no training pairs")
    net.check_word_dim(table.dimension)
    mode = net.composition_mode
    rng = np.random.default_rng(cfg.seed)

    index = {}  # sample -> its position in samples
    pair_idx = []
    for n, pair in enumerate(pairs):
        if pair.label not in (1, -1):
            raise ValueError(f"pair {n}: label must be +1 or -1, got {pair.label!r}")
        for s in (pair.left, pair.right):
            index.setdefault(s, len(index))
        pair_idx.append((index[pair.left], index[pair.right], pair.label))
    phrase_vecs = {}  # phrase -> its vector
    samples = []  # per distinct sample: (its context rows in table.matrix, phrase vector)
    for s in index:
        if s.phrase not in phrase_vecs:
            phrase_vecs[s.phrase] = table.phrase_lookup(s.phrase)
        samples.append((table.rows(used_context(s.phrase, s.context_tokens, mode)),
                        phrase_vecs[s.phrase]))
    recompose = mode == "attention"
    w_a = net.attention.w_a
    if recompose:
        def composed(k):
            """Sample k's gathered context rows (a C-contiguous copy), input and word weights."""
            rows, p = samples[k]
            rows = table.matrix.take(rows, axis=0)
            return (rows, *attend(rows, p, w_a))
    else:
        static = [(None, compose_vectors(table.matrix.take(rows, axis=0), p, net.attention, mode),
                   None) for rows, p in samples]
        composed = static.__getitem__

    lr = cfg.learning_rate
    lam = cfg.reg_lambda
    mlp = net.params[:net.n_mlp]
    workspace = gradient_workspace(net)
    step = np.empty(net.n_mlp)
    history = []
    for epoch in range(cfg.epochs):
        for k in rng.permutation(len(pair_idx)):
            a, b, label = pair_idx[k]
            (rows_a, x_a, weights_a), (rows_b, x_b, weights_b) = composed(a), composed(b)
            grads = pair_gradients(net, x_a, x_b, label, cfg, input_grads=recompose,
                                   workspace=workspace)
            np.add(grads["flat"], np.multiply(lam, mlp, out=step), out=step)
            mlp -= np.multiply(lr, step, out=step)  # mlp -= lr * (g + lam * mlp)
            if recompose:
                for rows_k, weights_k, gx in ((rows_a, weights_a, grads["x_i"]),
                                              (rows_b, weights_b, grads["x_j"])):
                    w_a -= lr * compose_backward(rows_k, weights_k, gx)
            if not net.params_finite():
                raise DivergenceError(
                    f"non-finite parameter at epoch {epoch + 1}, pair index {int(k)}")
        total = objective(net, lambda k: composed(k)[1], pair_idx, cfg)
        history.append(total / len(pairs))
    return net, history


def save_model(net, path, config_hash=None, extra=None):
    """Write a JSON checkpoint; floats round-trip exactly."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "activation": net.activation,
        "composition_mode": net.composition_mode,
        "attention_w": net.attention.w_a.tolist(),
        "layers": [
            {"w": w.tolist(), "b": b.tolist()}
            for w, b in zip(net.weights, net.biases)
        ],
    }
    if config_hash is not None:
        doc["config_hash"] = config_hash
    if extra:
        doc.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a checkpoint; returns (network, metadata dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not valid UTF-8") from exc
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: invalid JSON ({exc.msg})") from exc
    try:
        if doc["format_version"] != MODEL_FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {doc['format_version']}")
        net = MetricNetwork(
            [layer["w"] for layer in doc["layers"]],
            [layer["b"] for layer in doc["layers"]],
            activation=doc["activation"],
            attention=AttentionParams(np.array(doc["attention_w"], dtype=float)),
            composition_mode=doc["composition_mode"],
        )
    except (KeyError, TypeError, ValueError, DimensionMismatchError) as exc:
        raise FormatError(f"{path}: malformed checkpoint ({exc})") from exc
    if not net.params_finite():
        raise FormatError(f"{path}: checkpoint holds a non-finite parameter")
    for key, width in (("input_dim", net.input_dim), ("output_dim", net.output_dim)):
        if not is_int(doc.get(key)) or doc[key] != width:
            raise FormatError(f"{path}: {key} {json.dumps(doc.get(key))} is not the layers' "
                              f"width {width}")
    meta = {k: v for k, v in doc.items() if k not in ("layers", "attention_w")}
    return net, meta
