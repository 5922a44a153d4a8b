"""Spectral clustering over affinity matrices, with its own k-means engine."""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix, fix_eigvec_signs

# Diagonal regularization guarding zero-degree rows.
DIAG_REG = 1e-12

KMEANS_RESTARTS = 10
KMEANS_MAX_ITER = 300


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _sq_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances, summed over the dimensions in order."""
    diff = points.T[:, :, None] - centers.T[:, None, :]
    return (diff * diff).sum(axis=0)


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int):
    k = centers.shape[0]
    dist = _sq_distances(points, centers)
    labels = np.argmin(dist, axis=1)
    for _ in range(max_iter):
        for c in range(k):
            mask = labels == c
            if np.any(mask):
                centers[c] = points[mask].mean(axis=0)
        dist = _sq_distances(points, centers)
        new_labels = np.argmin(dist, axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    wcss = float(dist[np.arange(points.shape[0]), labels].sum())
    return labels.astype(int), wcss


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Best-of-10 seeded k-means++ with Lloyd iterations to an assignment fixpoint.

    Assignment ties break toward the lowest cluster index; the restart with
    the smallest within-cluster sum of squares wins, earliest restart on ties.
    Duplicate points may leave some clusters empty, which is allowed.
    """
    points = as_matrix(points, "points")
    n = points.shape[0]
    if k < 1:
        raise DimensionError("k must be >= 1")
    if k > n:
        raise DimensionError(f"k={k} exceeds the number of points {n}")
    seeds = np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS)
    best_labels = None
    best_wcss = np.inf
    for child in seeds:
        rng = np.random.default_rng(child)
        centers = _kmeanspp_init(points, k, rng)
        labels, wcss = _lloyd(points, centers, KMEANS_MAX_ITER)
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
    return best_labels


def spectral_cluster(w, k: int, seed: int) -> np.ndarray:
    """Normalized spectral clustering of a symmetric nonnegative affinity matrix.

    Forms D^{-1/2}(W + reg*I)D^{-1/2}, embeds each sample by the k largest
    eigenvectors with unit-normalized rows, and clusters the rows with
    seeded k-means. Deterministic for fixed (w, k, seed).
    """
    w = as_matrix(w, "affinity")
    n = w.shape[0]
    if w.shape[0] != w.shape[1]:
        raise DimensionError(f"affinity must be square, got {w.shape}")
    if k < 1:
        raise DimensionError("k must be >= 1")
    if k > n:
        raise DimensionError(f"k={k} exceeds the number of samples {n}")
    scale = max(1.0, float(np.abs(w).max()))
    if np.abs(w - w.T).max() > 1e-8 * scale:
        raise ValueError("affinity must be symmetric")
    if w.min() < -1e-12 * scale:
        raise ValueError("affinity must be nonnegative")
    a = (w + w.T) / 2.0 + DIAG_REG * np.eye(n)
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    s = d_inv_sqrt[:, None] * a * d_inv_sqrt[None, :]
    s = (s + s.T) / 2.0
    _, vecs = np.linalg.eigh(s)  # ascending; robust for clustered spectra
    vecs = fix_eigvec_signs(vecs[:, n - k :])
    row_norms = np.linalg.norm(vecs, axis=1)
    row_norms[row_norms == 0] = 1.0
    embedding = vecs / row_norms[:, None]
    return kmeans(embedding, k, seed)
