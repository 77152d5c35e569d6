"""K-means over one matrix of phrase points.

phrase_points() builds the rows K-means measures. With a trained network
they are its outputs, compared by Euclidean distance. Without one they
are the raw composed vectors scaled to unit length, which phrase_points()
does once per phrase: on the unit sphere Euclidean distance ranks like
cosine similarity. kmeans() itself is plain Euclidean K-means.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .composition import AttentionParams, compose_test_phrase
from .errors import DimensionMismatchError, TooFewPointsError


@dataclass
class Clustering:
    """Labels, centroids and inertia of one finished run.

    ``labels[i]`` is the cluster of row i of the clustered matrix.
    ``empty_clusters`` lists the cluster ids left with no member, which only
    duplicate points can cause; it is the one place a run reports them.
    """
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    empty_clusters: tuple[int, ...] = ()


def _sq_dists(points, x2, centers):
    """(n, k) squared distances x2 - 2 X C^T + c2, clamped at 0: O(n k) memory.

    Rounding can leave a tiny residue where a point sits on a centroid, so
    inertia and the empty-cluster reseed use exact differences instead.
    """
    d2 = points @ centers.T
    d2 *= -2.0
    d2 += x2[:, None]
    d2 += (centers ** 2).sum(axis=1)
    return np.maximum(d2, 0.0, out=d2)


def _kmeanspp(points, x2, k, rng):
    """k-means++ seeding; degenerates to uniform picks on zero spread."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    d2 = _sq_dists(points, x2, centers[:1])[:, 0]
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = rng.choice(n, p=probs)
        else:
            idx = rng.integers(n)
        centers[c] = points[idx]
        d2 = np.minimum(d2, _sq_dists(points, x2, centers[c:c + 1])[:, 0])
    return centers


def _lloyd(points, x2, centers, max_iter, trace=None):
    """Lloyd iterations to an assignment fixpoint or the iteration cap."""
    n, k = points.shape[0], centers.shape[0]
    prev = None
    assign = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        assign = _sq_dists(points, x2, centers).argmin(axis=1)
        sizes = np.bincount(assign, minlength=k)
        if (sizes == 0).any():
            # Re-seed each empty cluster on the point farthest from its
            # assigned centroid; moving that point can only lower inertia.
            # When every point already sits on its centroid (duplicate
            # points, k too large) there is nothing to gain and the
            # cluster stays empty.
            dist_own = ((points - centers[assign]) ** 2).sum(axis=1)
            for c in np.flatnonzero(sizes == 0):
                idx = int(dist_own.argmax())
                if dist_own[idx] <= 0.0:
                    break
                assign[idx] = c
                centers[c] = points[idx]
                dist_own[idx] = -1.0
            sizes = np.bincount(assign, minlength=k)
        if trace is not None:
            trace.append(float(((points - centers[assign]) ** 2).sum()))
        if prev is not None and np.array_equal(assign, prev):
            break
        prev = assign.copy()
        onehot = np.zeros((k, n))
        onehot[assign, np.arange(n)] = 1.0
        filled = sizes > 0
        centers[filled] = (onehot @ points)[filled] / sizes[filled, None]
    inertia = float(((points - centers[assign]) ** 2).sum())
    return assign, centers, inertia


def kmeans(points, k, seed=0, n_init=10, max_iter=100, trace=None):
    """Best-of-``n_init`` Euclidean K-means over the rows of an (n, d) matrix.

    When ``trace`` is a list, each restart appends its per-iteration inertias.
    """
    for name, value in (("k", k), ("n_init", n_init), ("max_iter", max_iter)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    points = np.asarray(points, dtype=float)
    if len(points) < k:
        raise TooFewPointsError(f"{len(points)} points cannot fill {k} clusters")
    if points.ndim != 2:
        raise DimensionMismatchError(f"points have shape {points.shape}, expected (n, d)")
    x2 = (points ** 2).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = _kmeanspp(points, x2, k, rng)
        restart_trace = [] if trace is not None else None
        assign, centers, inertia = _lloyd(points, x2, centers, max_iter, restart_trace)
        if trace is not None:
            trace.append(restart_trace)
        if best is None or inertia < best[2]:
            best = (assign, centers, inertia)
    assign, centers, inertia = best
    empty = tuple(np.flatnonzero(np.bincount(assign, minlength=k) == 0).tolist())
    return Clustering(labels=assign, centroids=centers, inertia=inertia, empty_clusters=empty)


def metric_for(net):
    """The distance K-means ranks by: Euclidean on network outputs, cosine on raw rows."""
    return "euclidean" if net is not None else "cosine"


def phrase_points(corpus, table, net=None, mode=None):
    """Every distinct phrase, its composed row and the row K-means measures.

    Returns (phrases, composed, points): ``corpus.phrases()`` in sorted order
    and two matrices with one row per phrase in that order. With a network,
    phrases are composed in its mode with its attention parameters, and
    ``points`` are its outputs; another explicit ``mode`` raises ValueError, and
    ``net.check_word_dim()`` refuses another table width before any phrase is composed.
    Without one, ``mode`` defaults to attention with zero parameters, and
    ``points`` are the composed rows scaled to unit length, zero rows left at zero.
    """
    if net is None:
        params = AttentionParams.zeros(table.dimension)
        mode = "attention" if mode is None else mode
    elif mode in (None, net.composition_mode):
        net.check_word_dim(table.dimension)
        params, mode = net.attention, net.composition_mode
    else:
        raise ValueError(f"mode {mode!r} is not the network's mode {net.composition_mode!r}")
    phrases = corpus.phrases()
    rows = [compose_test_phrase(phrase, corpus, table, params, mode) for phrase in phrases]
    composed = np.array(rows)
    if net is not None:
        return phrases, composed, np.array([net.forward(x) for x in rows])
    # axis -1 also serves a corpus with no phrase, whose (0,) array kmeans rejects
    norms = np.linalg.norm(composed, axis=-1, keepdims=True)
    norms[norms == 0] = 1.0
    return phrases, composed, composed / norms
