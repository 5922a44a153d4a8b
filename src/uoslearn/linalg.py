"""Dense-matrix utilities and proximal operators used by the solvers.

All functions are pure and operate on float64 numpy arrays; inputs with
NaN/Inf entries are rejected.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericalError

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


def one_blas_thread() -> bool:
    """Whether the environment pins OpenBLAS to one thread.

    Reads the variables OpenBLAS reads when it loads, in its order: the
    first holding a positive integer sets the thread count. With none
    set, OpenBLAS runs a thread per core and this returns False.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value) == 1
    return False


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

    `alongside`, if given, is called once on the calling thread. When
    `one_blas_thread()` holds, it runs while a one-worker thread pool
    decomposes the Gram matrix, and the worker has finished before svt
    returns or re-raises an exception from either. With a multi-threaded
    BLAS it runs just before the decomposition, since the BLAS thread
    pools would otherwise oversubscribe the cores.
    """
    a = as_matrix(a)
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if a.shape[1] > a.shape[0]:
        return svt(a.T, tau, alongside).T
    # max|a| without an N x N temporary of |a|.
    _, exp = np.frexp(max(a.max(), -a.min()))
    scaled = np.ldexp(a, -exp)
    tau_scaled = np.ldexp(tau, -exp)
    gram = scaled.T @ scaled
    del scaled
    if alongside is None or not one_blas_thread():
        if alongside is not None:
            alongside()
        lam, v = np.linalg.eigh(gram)
    else:
        # Imported here: only the beta > 0 solve overlaps work with the eigh.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as pool:
            decomposition = pool.submit(np.linalg.eigh, gram)
            alongside()
        lam, v = decomposition.result()
    del gram
    sigma = np.sqrt(np.maximum(lam, 0.0))
    # eigh sorts ascending, so the kept pairs are the last k.
    k = int(np.count_nonzero(sigma > tau_scaled))
    if k == 0:
        return np.zeros_like(a)
    m, n = a.shape
    # Both blocks are cut from buffers whose size does not depend on k, so
    # the allocator reuses the same chunks on every call. v_k is
    # column-major like v[:, keep]: a row-major copy moves the last bits of
    # the products below.
    v_k = np.empty(n * n)[: n * k].reshape(n, k, order="F")
    v_k[...] = v[:, n - k:]
    del v
    sigma = sigma[n - k:]
    av = np.matmul(a, v_k, out=np.empty(m * n)[: m * k].reshape(m, k))
    av *= (sigma - tau_scaled) / sigma
    return av @ v_k.T


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
    out = np.subtract(a, thr)
    np.maximum(out, 0.0, out=out)
    # a + t and its minimum reuse the buffer of t.
    np.add(a, thr, out=thr)
    np.minimum(thr, 0.0, out=thr)
    out += thr
    return out


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


@functools.cache
def _flapack():
    """SciPy's compiled LAPACK wrappers, without the rest of scipy.linalg.

    `import scipy` is cheap and sets up SciPy's bundled libraries; the
    extension scipy/linalg/_flapack is then loaded from its file, so
    scipy/linalg/__init__.py (about 28 MiB and 0.3 s) never runs. An
    already imported copy is reused.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    missing = ConfigError(
        "method cslrr (beta > 0) needs SciPy for its embedding step; "
        "install SciPy or use method = sclrr"
    )
    try:
        import scipy
    except ImportError:
        raise missing from None
    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise missing


def sym_eig_smallest(m, k: int) -> np.ndarray:
    """Orthonormal eigenvectors of symmetric `m` for its k smallest eigenvalues.

    Only the k smallest eigenpairs are computed, by LAPACK's dsyevr (MRRR)
    with the arguments `scipy.linalg.eigh(sym, subset_by_index=[0, k-1])`
    passes it, so the result is that call's bit for bit. Columns are ordered
    by ascending eigenvalue with the sign convention of fix_eigvec_signs,
    making the output deterministic for identical inputs.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise DimensionError(f"matrix must be square, got {m.shape}")
    if not 1 <= k <= n:
        raise DimensionError(f"k must be in [1, {n}], got {k}")
    # One private N x N buffer holds |m - m^T|, then the symmetrized copy.
    sym = np.subtract(m, m.T)
    np.abs(sym, out=sym)
    if sym.max() > 1e-10 * max(1.0, m.max(), -m.min()):
        raise ValueError("matrix is not symmetric")
    np.add(m, m.T, out=sym)
    sym /= 2.0
    # m + m.T overflows for entries near the float64 limit, and LAPACK must see no inf.
    as_matrix(sym, "symmetrized matrix")
    # Loaded here: only the beta > 0 F step needs SciPy's LAPACK wrappers.
    lapack = _flapack()
    lwork, liwork, info = lapack.dsyevr_lwork(n=n, lower=1)
    if info != 0:
        raise NumericalError(f"dsyevr workspace query failed (info={info})")
    # sym is symmetric and private: its F-ordered transpose is the same
    # matrix, which dsyevr may overwrite without a copy.
    _, vecs, found, _, info = lapack.dsyevr(
        a=sym.T, compute_v=1, range="I", il=1, iu=k, lower=1,
        lwork=int(lwork), liwork=int(liwork), overwrite_a=1,
    )
    if info != 0 or found != k:
        raise NumericalError(f"dsyevr failed (info={info}, {found} of {k} eigenpairs)")
    return fix_eigvec_signs(vecs)
