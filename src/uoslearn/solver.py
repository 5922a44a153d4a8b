"""Clustering-aware structure-constrained low-rank representation solver.

Solves, by a linearized alternating direction method,

    min  ||Z||_* + alpha ||B o Z||_1
         + beta tr(F^T (V - (|Z|+|Z^T|)/2) F) + lam ||E||_err
    s.t. X = X Z + E,   F^T F = I,

where B is a data-driven weight matrix penalizing affinities between
dissimilar samples and the trace term penalizes disagreement between the
coefficients and a spectral embedding F. An auxiliary variable Q with the
constraint Z = Q makes the objective separable; each iteration performs
closed-form updates of Z (singular value thresholding of a linearized
step), Q (entrywise shrinkage), F (smallest eigenvectors of the current
graph Laplacian) and E (group shrinkage), followed by multiplier ascent
and a geometric penalty increase.

Degenerations: beta = 0 drops the clustering coupling (the F update is
skipped), and alpha = beta = 0 reduces the program to plain low-rank
representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, DataError, DimensionError, NumericalError
from .linalg import (
    as_matrix,
    as_unit_columns,
    col_l21_prox,
    elementwise_shrink,
    spectral_norm,
    svt,
    sym_eig_smallest,
)


@dataclass
class FeatureMatrix:
    """An m x N data matrix whose columns are unit-norm feature vectors.

    `block_shape = (n_blocks, bins)` marks block-structured (HOG-style)
    features: column entries [k*bins:(k+1)*bins] form the histogram of
    block k, so a column reshapes to an (n_blocks, bins) matrix in row-major
    order. The solver's error term then shrinks each block, not each column.
    """

    data: np.ndarray
    block_shape: tuple[int, int] | None = None

    def __post_init__(self):
        self.data = as_unit_columns(self.data, "feature matrix")
        if self.block_shape is not None:
            n_b, bins = self.block_shape
            if n_b < 1 or bins < 1 or n_b * bins != self.m:
                raise DimensionError(
                    f"block_shape {self.block_shape} incompatible with m={self.m}"
                )

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass
class SolverConfig:
    """Parameters of the representation solver; the width of F, the cluster
    count, is an argument of the solve (see cslrr_solve).

    alpha: weight of the structure penalty B o Q.
    beta: weight of the clustering disagreement penalty.
    lam: weight of the error term, whose groups the feature matrix's
        block_shape sets (see FeatureMatrix).
    coeff_threshold: relative magnitude below which coefficients are
        zeroed before building the affinity matrix.
    """

    alpha: float = 1.0
    beta: float = 0.5
    lam: float = 1.0
    rho: float = 1.1
    mu0: float = 0.1
    mu_max: float = 1e30
    epsilon: float = 1e-7
    eta_factor: float = 1.02
    max_iters: int = 500
    coeff_threshold: float = 0.05

    def __post_init__(self):
        numbers = (
            self.alpha, self.beta, self.lam, self.rho, self.mu0, self.mu_max,
            self.epsilon, self.eta_factor, self.coeff_threshold,
        )
        if not np.isfinite(numbers).all():
            raise ConfigError("solver parameters must be finite")
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be nonnegative")
        if self.lam <= 0:
            raise ConfigError("lam must be positive")
        if self.rho <= 1:
            raise ConfigError("rho must be > 1")
        if self.mu0 <= 0 or self.mu_max < self.mu0:
            raise ConfigError("need 0 < mu0 <= mu_max")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.eta_factor <= 1:
            raise ConfigError("eta_factor must be > 1")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")
        if not 0 <= self.coeff_threshold <= 1:
            raise ConfigError("coeff_threshold must be in [0, 1]")


@dataclass
class SolverState:
    """One iterate of the alternating scheme plus its residual history."""

    z: np.ndarray
    q: np.ndarray
    e: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    theta: np.ndarray
    mu: float
    t: int
    eta: float
    residuals: list[tuple[float, float]] = field(default_factory=list)


@dataclass
class SolveResult:
    z: np.ndarray
    e: np.ndarray
    residual_history: np.ndarray  # shape (iterations, 2): inf-norm residuals
    converged: bool
    iterations: int


def build_weight_matrix(x) -> np.ndarray:
    """Data-driven structure weights b_ij = 1 - exp(-(1 - |x_i.x_j|)/sigma).

    sigma is the mean of 1 - |x_i.x_j| over off-diagonal pairs; similar
    columns get small weights, dissimilar ones get weights near 1. The
    diagonal is zero.
    """
    data = x.data if isinstance(x, FeatureMatrix) else as_matrix(x)
    n = data.shape[1]
    if n < 2:
        raise DimensionError("need at least two columns")
    coherence = np.clip(np.abs(data.T @ data), 0.0, 1.0)
    dissim = 1.0 - coherence
    off = ~np.eye(n, dtype=bool)
    sigma = float(dissim[off].mean())
    if sigma <= 0:
        raise DataError("all columns are pairwise parallel; weight scale is degenerate")
    b = 1.0 - np.exp(-dissim / sigma)
    np.fill_diagonal(b, 0.0)
    return b


def init_state(x: FeatureMatrix, config: SolverConfig) -> SolverState:
    n = x.n_samples
    zeros = lambda: np.zeros((n, n))
    eta = config.eta_factor * spectral_norm(x.data) ** 2
    return SolverState(
        z=zeros(),
        q=zeros(),
        e=np.zeros_like(x.data),
        g1=np.zeros_like(x.data),
        g2=zeros(),
        theta=zeros(),
        mu=config.mu0,
        t=0,
        eta=eta,
    )


def update_z(
    state: SolverState,
    x: FeatureMatrix,
    config: SolverConfig,
    alongside: Callable[[], None] | None = None,
) -> np.ndarray:
    """Linearized nuclear-norm step: SVT of Z - grad/(eta*mu) at level 1/(eta*mu).

    `alongside` is passed to svt, which runs it beside or just before its
    decomposition.
    """
    data = x.data
    # One N x N buffer goes from grad/mu to Z - grad/(eta*mu), in place.
    step = data.T @ (data @ state.z - data + state.e - state.g1 / state.mu)
    step += state.z - state.q + state.g2 / state.mu
    step /= state.eta
    np.subtract(state.z, step, out=step)
    return svt(step, 1.0 / (state.eta * state.mu), alongside)


def update_q(state: SolverState, weights: np.ndarray, config: SolverConfig) -> np.ndarray:
    """Entrywise shrinkage of Z + G2/mu with per-entry thresholds.

    The threshold matrix is (alpha*B + beta*Theta)/mu, which stays well
    defined at alpha = 0; a threshold that overflows is a NumericalError
    naming the iteration.
    """
    with np.errstate(over="ignore"):  # an overflow is reported just below
        thresholds = (config.alpha * weights + config.beta * state.theta) / state.mu
    if not np.all(np.isfinite(thresholds)):
        raise NumericalError(f"non-finite Q thresholds at iteration {state.t}")
    return elementwise_shrink(state.z + state.g2 / state.mu, thresholds, 1.0)


def update_f(state: SolverState, clusters: int) -> tuple[np.ndarray, np.ndarray]:
    """Smallest-eigenvector embedding of the current Laplacian, plus Theta.

    M = diag(v) - W for the graph W = (|Q| + |Q^T|)/2 of the current Q and
    its degrees v_i = sum_j (|q_ij| + |q_ji|)/2; F collects the
    eigenvectors of the `clusters` smallest eigenvalues, and
    theta_ij = 0.5*||f^i - f^j||^2 measures row disagreement of the
    embedding.
    """
    # M is built in the buffer of |Q|, in the order diag(v) - (|Q| + |Q^T|)/2
    # would round it: 0 - w off the diagonal and -w_ii + v_i on it.
    m = np.abs(state.q)
    v = (m.sum(axis=1) + m.sum(axis=0)) / 2.0
    m += m.T  # numpy reads the overlapping transpose from a copy
    m /= 2.0
    np.subtract(0.0, m, out=m)
    m[np.diag_indices_from(m)] += v
    f = sym_eig_smallest(m, clusters)
    del m
    sq = (f * f).sum(axis=1)
    theta = np.add.outer(sq, sq)
    theta /= 2.0
    theta -= f @ f.T
    np.maximum(theta, 0.0, out=theta)
    np.fill_diagonal(theta, 0.0)
    return f, theta


def update_e(state: SolverState, x: FeatureMatrix, config: SolverConfig) -> np.ndarray:
    """Group shrinkage of C = X - XZ + G1/mu at level lam/mu.

    The groups are C's columns, or its blocks when the features carry a
    block_shape (n_blocks, bins): one col_l21_prox runs on a view of C with
    one column per group (block k of column j is column j*n_blocks + k).
    """
    c = x.data - x.data @ state.z + state.g1 / state.mu
    tau = config.lam / state.mu
    size = x.m if x.block_shape is None else x.block_shape[1]
    groups = col_l21_prox(c.T.reshape(-1, size).T, tau)
    return groups.T.reshape(x.n_samples, x.m).T


def cslrr_solve(
    x: FeatureMatrix,
    config: SolverConfig,
    clusters: int,
    callback: Callable[[SolverState], None] | None = None,
) -> SolveResult:
    """Run the alternating scheme until both constraint residuals fall below epsilon.

    F has `clusters` columns; 1 <= clusters <= N is checked before any work.
    Iterates Z -> Q -> F -> E updates, multiplier ascent
    G1 += mu(X - XZ - E), G2 += mu(Z - Q), and mu <- min(mu_max, rho*mu),
    stopping when ||X - XZ - E||_inf <= eps and ||Z - Q||_inf <= eps or
    after max_iters iterations (in which case the result is flagged
    non-converged). The F update runs only when beta > 0: at beta = 0,
    Theta keeps its zero start and beta*Theta is the same +0 an update
    would leave, so skipping it changes no iterate. `callback` is invoked
    with the state after each completed iteration.

    Iteration t's F update reads only Q(t), and its Theta is first read by
    the Q update of iteration t+1. So at beta > 0 it runs during
    iteration t+1's Z update, as the SVT's `alongside`, which `svt` runs
    beside or just before its Gram decomposition. Nothing reads the last
    iteration's Theta, so its F update is skipped. Every iterate is the
    same as in sequential order, and the state passed to `callback` after
    iteration t holds the Theta of iteration t-1.
    """
    if clusters < 1:
        raise ConfigError(f"clusters must be >= 1, got {clusters}")
    if clusters > x.n_samples:
        raise DimensionError(
            f"clusters={clusters} exceeds the number of samples N={x.n_samples}"
        )

    weights = (
        build_weight_matrix(x)
        if config.alpha > 0
        else np.zeros((x.n_samples, x.n_samples))
    )
    state = init_state(x, config)

    def f_step():
        _, state.theta = update_f(state, clusters)

    converged = False
    for _ in range(config.max_iters):
        # The previous iteration's F update, run beside this Z update's SVT.
        alongside = f_step if config.beta > 0 and state.t > 0 else None
        state.z = update_z(state, x, config, alongside=alongside)
        state.q = update_q(state, weights, config)
        state.e = update_e(state, x, config)

        r1_mat = x.data - x.data @ state.z - state.e
        r2_mat = state.z - state.q
        state.g1 = state.g1 + state.mu * r1_mat
        state.g2 = state.g2 + state.mu * r2_mat
        state.mu = min(config.mu_max, config.rho * state.mu)
        if not (
            np.all(np.isfinite(state.z))
            and np.all(np.isfinite(state.q))
            and np.all(np.isfinite(state.e))
        ):
            raise NumericalError(f"non-finite iterate at iteration {state.t}")
        r1 = float(np.abs(r1_mat).max())
        r2 = float(np.abs(r2_mat).max())
        # Not kept alive through the next iteration's SVT and F step.
        del r1_mat, r2_mat
        state.residuals.append((r1, r2))
        state.t += 1
        if callback is not None:
            callback(state)
        if r1 <= config.epsilon and r2 <= config.epsilon:
            converged = True
            break

    history = np.array(state.residuals) if state.residuals else np.zeros((0, 2))
    return SolveResult(
        z=state.z,
        e=state.e,
        residual_history=history,
        converged=converged,
        iterations=state.t,
    )


def threshold_coefficients(z, thresh: float) -> np.ndarray:
    """Zero entries with magnitude below thresh * max|z_ij| (relative threshold)."""
    z = as_matrix(z)
    if thresh < 0:
        raise ValueError("thresh must be nonnegative")
    peak = np.abs(z).max()
    out = z.copy()
    out[np.abs(out) < thresh * peak] = 0.0
    return out


def build_affinity(z) -> np.ndarray:
    """Symmetric nonnegative affinity W = (|Z| + |Z^T|)/2."""
    z = as_matrix(z)
    if z.shape[0] != z.shape[1]:
        raise DimensionError(f"coefficient matrix must be square, got {z.shape}")
    return (np.abs(z) + np.abs(z.T)) / 2.0
