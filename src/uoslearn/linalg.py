"""Dense-matrix utilities and proximal operators used by the solvers.

All functions are pure and operate on float64 numpy arrays; inputs with
NaN/Inf entries are rejected.
"""

from __future__ import annotations

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


def svt(a, tau: float) -> np.ndarray:
    """Singular value thresholding: the proximal operator of tau * nuclear norm.

    Returns the unique minimizer of  tau*||Z||_* + 0.5*||Z - a||_F^2,
    obtained by soft-thresholding the singular values of `a` by `tau`.
    """
    a = as_matrix(a)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    keep = s > 0
    if not np.any(keep):
        return np.zeros_like(a)
    return (u[:, keep] * s[keep]) @ vt[keep]


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
    _, vecs = np.linalg.eigh(sym)  # ascending; robust for clustered spectra
    return fix_eigvec_signs(vecs[:, :k])
