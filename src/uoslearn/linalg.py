"""Dense-matrix utilities and proximal operators used by the solvers.

All functions are pure and operate on float64 numpy arrays; inputs with
NaN/Inf entries are rejected.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DataError, DimensionError

# Singular values below this are treated as zero in rank-sensitive checks.
RANK_TOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return `a` as a nonempty finite 2-d float64 array."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains non-finite entries")
    return arr


def spectral_norm(a) -> float:
    a = as_matrix(a)
    return float(np.linalg.svd(a, compute_uv=False)[0])


def svt(a, tau: float, alongside: Callable[[], None] | None = None) -> np.ndarray:
    """Singular value thresholding: the proximal operator of tau * nuclear norm.

    Returns the unique minimizer of  tau*||Z||_* + 0.5*||Z - a||_F^2,
    obtained by soft-thresholding the singular values of `a` by `tau`.
    The singular pairs come from the eigendecomposition of the Gram matrix
    a^T a (of the narrower side), which is about twice as fast as an SVD:
    with sigma_j, v_j from a^T a, the result is sum over sigma_j > tau of
    (1 - tau/sigma_j) (a v_j) v_j^T. The Gram matrix is formed from `a`
    scaled by a power of two near 1/max|a|, which is exact, so entries
    near 1e+-200 neither overflow nor underflow when squared.

    `alongside`, if given, is called once on the calling thread while a
    one-worker thread pool decomposes the Gram matrix. The worker has
    finished before svt returns or re-raises an exception from either.
    """
    a = as_matrix(a)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if a.shape[1] > a.shape[0]:
        return svt(a.T, tau, alongside).T
    _, exp = np.frexp(np.abs(a).max())
    scaled = np.ldexp(a, -exp)
    tau_scaled = np.ldexp(tau, -exp)
    gram = scaled.T @ scaled
    if alongside is None:
        lam, v = np.linalg.eigh(gram)
    else:
        # Imported here: only the beta > 0 solve overlaps work with the eigh.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            decomposition = pool.submit(np.linalg.eigh, gram)
            alongside()
        lam, v = decomposition.result()
    sigma = np.sqrt(np.maximum(lam, 0.0))
    keep = sigma > tau_scaled
    if not np.any(keep):
        return np.zeros_like(a)
    v, sigma = v[:, keep], sigma[keep]
    return ((a @ v) * ((sigma - tau_scaled) / sigma)) @ v.T


def elementwise_shrink(a, h, tau: float) -> np.ndarray:
    """Soft-threshold each entry of `a` by its own threshold tau * h_ij.

    Applies x -> max(x - t, 0) + min(x + t, 0) with t = tau * h_ij >= 0.
    """
    a = as_matrix(a, "a")
    h = as_matrix(h, "h")
    if a.shape != h.shape:
        raise DimensionError(f"shape mismatch: {a.shape} vs {h.shape}")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if np.any(h < 0):
        raise ValueError("threshold weights must be nonnegative")
    thr = tau * h
    return np.maximum(a - thr, 0.0) + np.minimum(a + thr, 0.0)


def col_l21_prox(c, tau: float) -> np.ndarray:
    """Column-wise group shrinkage: prox of tau * sum_j ||c_j||_2.

    Scales each column by max(1 - tau/||c_j||, 0); zero columns stay zero.
    """
    c = as_matrix(c)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    norms = np.linalg.norm(c, axis=0)
    scale = np.zeros_like(norms)
    nz = norms > 0
    scale[nz] = np.maximum(1.0 - tau / norms[nz], 0.0)
    return c * scale


def fix_eigvec_signs(v: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the largest-magnitude entry of each is positive."""
    idx = np.argmax(np.abs(v), axis=0)
    signs = np.sign(v[idx, np.arange(v.shape[1])])
    signs[signs == 0] = 1.0
    return v * signs


def sym_eig_smallest(m, k: int) -> np.ndarray:
    """Orthonormal eigenvectors of symmetric `m` for its k smallest eigenvalues.

    Columns are ordered by ascending eigenvalue with the sign convention of
    fix_eigvec_signs, making the output deterministic for identical inputs.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got {m.shape}")
    if not 1 <= k <= n:
        raise DimensionError(f"k must be in [1, {n}], got {k}")
    if np.abs(m - m.T).max() > 1e-10 * max(1.0, np.abs(m).max()):
        raise ValueError("matrix is not symmetric")
    sym = (m + m.T) / 2.0
    # Imported here: only the beta > 0 F step needs scipy.linalg, which is slow to load.
    import scipy.linalg

    # Only the k smallest eigenpairs are computed; ascending order.
    _, vecs = scipy.linalg.eigh(sym, subset_by_index=[0, k - 1])
    return fix_eigvec_signs(vecs)
