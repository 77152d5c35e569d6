"""K-means over per-phrase representations.

The learned path maps each phrase's composed vector through the trained
network and clusters the outputs with Euclidean distance; baseline paths
cluster the raw composed vectors with cosine similarity, implemented as
unit-normalization followed by Euclidean Lloyd iterations (the argmin is
the same on the unit sphere).
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .composition import AttentionParams, compose_test_phrase
from .errors import DimensionMismatchError, TooFewPointsError

METRICS = ("euclidean", "cosine")


@dataclass
class Clustering:
    """Assignments, centroids and inertia of one finished run.

    ``empty_clusters`` flags cluster ids that ended up with no members,
    which can only happen when duplicate points make K distinct centroids
    impossible.
    """
    assignments: dict[str, int]
    centroids: np.ndarray
    inertia: float
    empty_clusters: tuple[int, ...] = ()
    metric: str = "euclidean"
    seed: int | None = None

    @property
    def k(self):
        return self.centroids.shape[0]


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


def kmeans(points, k, metric="euclidean", seed=0, n_init=10, max_iter=100, trace=None):
    """Best-of-``n_init`` K-means over a phrase -> vector mapping.

    Points are sorted by phrase before seeding, so insertion order never
    changes the outcome for a given seed. Cosine metric normalizes each
    point to unit length first (zero vectors stay put).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}")
    names = sorted(points)
    if len(names) < k:
        raise TooFewPointsError(f"{len(names)} points cannot fill {k} clusters")
    matrix = [np.asarray(points[name], dtype=float) for name in names]
    width = matrix[0].shape
    for name, vec in zip(names, matrix):
        if vec.shape != width:
            raise DimensionMismatchError(
                f"point {name!r} has shape {vec.shape}, expected {width}")
    data = np.array(matrix)
    if metric == "cosine":
        norms = np.linalg.norm(data, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        data = data / norms

    x2 = (data ** 2).sum(axis=1)
    rng = np.random.default_rng(seed)
    best = None
    for _ in range(n_init):
        centers = _kmeanspp(data, x2, k, rng)
        restart_trace = [] if trace is not None else None
        assign, centers, inertia = _lloyd(data, x2, centers, max_iter, restart_trace)
        if trace is not None:
            trace.append(restart_trace)
        if best is None or inertia < best[2]:
            best = (assign, centers, inertia)
    assign, centers, inertia = best
    sizes = np.bincount(assign, minlength=k)
    empty = tuple(int(c) for c in np.flatnonzero(sizes == 0))
    if empty:
        warnings.warn(
            f"{len(empty)} cluster(s) ended up empty; duplicate points make "
            f"{k} distinct centroids impossible", stacklevel=2)
    return Clustering(
        assignments={name: int(c) for name, c in zip(names, assign)},
        centroids=centers,
        inertia=inertia,
        empty_clusters=empty,
        metric=metric,
        seed=seed,
    )


def metric_for(net):
    """Euclidean on the outputs of network ``net``, cosine on raw compositions (no net)."""
    return "euclidean" if net is not None else "cosine"


def phrase_points(corpus, table, net=None, mode="attention"):
    """One representation per distinct phrase.

    Returns (composed, projected): the raw composed vectors and, when a
    network is given, their mapped outputs (otherwise the same dict).
    Attention parameters come from the network, else are zeros.
    """
    params = net.attention if net is not None else AttentionParams.zeros(table.dimension)
    composed = {}
    projected = {}
    for phrase in corpus.phrases():
        comp = compose_test_phrase(phrase, corpus, table, params, mode)
        composed[phrase] = comp.x
        if net is not None:
            h, _ = net.forward(comp.x)
            projected[phrase] = h
        else:
            projected[phrase] = comp.x
    return composed, projected


def cluster_corpus(corpus, table, k, net=None, mode="attention", seed=0, n_init=10,
                   max_iter=100):
    """Cluster every distinct phrase of the corpus under metric_for(net).

    With a network the points are its outputs; without one they are the
    raw composed vectors.
    """
    _, projected = phrase_points(corpus, table, net=net, mode=mode)
    return kmeans(projected, k, metric=metric_for(net), seed=seed, n_init=n_init,
                  max_iter=max_iter)
