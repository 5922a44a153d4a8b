import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal, unit_columns
from uoslearn import linalg, solver
from uoslearn.errors import ConfigError, DataError, DimensionError, NumericalError
from uoslearn.linalg import svt
from uoslearn.metrics import clustering_accuracy
from uoslearn.solver import (
    FeatureMatrix,
    SolveResult,
    SolverConfig,
    build_affinity,
    build_weight_matrix,
    cslrr_solve,
    init_state,
    threshold_coefficients,
    update_e,
    update_f,
    update_q,
    update_z,
)
from uoslearn.spectral import spectral_cluster
from uoslearn.synth import UosSynthConfig, generate_synthetic_uos


def small_config(**kw):
    base = dict(alpha=1.0, beta=0.5, lam=1.0, max_iters=50)
    base.update(kw)
    return SolverConfig(**base)


# --- independent single-purpose reference loops (plain numpy throughout) ---


def _svt_ref(a, tau):
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    s = np.maximum(s - tau, 0.0)
    return (u * s) @ vt


def _col_prox_ref(c, tau):
    out = np.zeros_like(c)
    for j in range(c.shape[1]):
        norm = np.linalg.norm(c[:, j])
        if norm > tau:
            out[:, j] = c[:, j] * (1 - tau / norm)
    return out


def reference_lrr_iterates(x, lam, n_iters, weights=None, alpha=0.0):
    """Standalone LADM loop for the low-rank program, optionally with the
    structure-weighted shrink step (alpha > 0). Returns Z, Q, E per iteration."""
    n = x.shape[1]
    eta = 1.02 * np.linalg.svd(x, compute_uv=False)[0] ** 2
    rho, mu, mu_max = 1.1, 0.1, 1e30
    z = np.zeros((n, n))
    q = np.zeros((n, n))
    e = np.zeros_like(x)
    g1 = np.zeros_like(x)
    g2 = np.zeros((n, n))
    if weights is None:
        weights = np.zeros((n, n))
    iterates = []
    for _ in range(n_iters):
        grad = x.T @ (x @ z - x + e - g1 / mu) + (z - q + g2 / mu)
        z = _svt_ref(z - grad / eta, 1.0 / (eta * mu))
        a = z + g2 / mu
        thr = alpha * weights / mu
        q = np.maximum(a - thr, 0.0) + np.minimum(a + thr, 0.0)
        c = x - x @ z + g1 / mu
        e = _col_prox_ref(c, lam / mu)
        g1 = g1 + mu * (x - x @ z - e)
        g2 = g2 + mu * (z - q)
        mu = min(mu_max, rho * mu)
        iterates.append((z.copy(), q.copy(), e.copy()))
    return iterates


def reference_solve(x, config, clusters, callback=None):
    """The solver loop before the beta = 0 skip: the F update runs every iteration."""
    weights = (
        build_weight_matrix(x)
        if config.alpha > 0
        else np.zeros((x.n_samples, x.n_samples))
    )
    state = init_state(x, config)
    converged = False
    for _ in range(config.max_iters):
        state.z = update_z(state, x)
        state.q = update_q(state, weights, config)
        _, state.theta = update_f(state, clusters)
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
        r1 = float(np.linalg.norm(r1_mat, axis=0).max())
        r2 = float(np.abs(r2_mat).max())
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


class TestBuildWeightMatrix:
    def test_parallel_columns_give_zero_weight(self):
        x = unit_columns(np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]]))
        b = build_weight_matrix(x)
        assert b[0, 1] == pytest.approx(0.0)

    def test_two_orthogonal_columns(self):
        b = build_weight_matrix(np.eye(2))
        assert b[0, 1] == pytest.approx(1.0 - np.exp(-1.0))

    def test_zero_diagonal_symmetric_range(self, rng):
        x = unit_columns(rng.standard_normal((6, 10)))
        b = build_weight_matrix(x)
        assert np.array_equal(b, b.T)
        assert np.all(np.diag(b) == 0)
        assert b.min() >= 0 and b.max() < 1

    def test_degenerate_sigma(self):
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(DataError):
            build_weight_matrix(x)


class TestUpdates:
    def test_z_zero_gradient_fixpoint(self):
        x = FeatureMatrix(np.eye(3))
        cfg = small_config()
        state = init_state(x, cfg)
        state.e = x.data.copy()  # makes X - XZ - E + G1/mu vanish at Z=0
        z = update_z(state, x)
        assert np.array_equal(z, np.zeros((3, 3)))

    def test_z_surrogate_decrease(self, rng):
        # the majorized objective at the new Z never exceeds its value at Z^t
        x = FeatureMatrix(unit_columns(rng.standard_normal((8, 12))))
        cfg = small_config()
        state = init_state(x, cfg)
        state.z = rng.standard_normal((12, 12)) * 0.1
        state.q = rng.standard_normal((12, 12)) * 0.1
        state.e = rng.standard_normal((8, 12)) * 0.1

        def surrogate(znew):
            grad = state.mu * (
                x.data.T @ (x.data @ state.z - x.data + state.e - state.g1 / state.mu)
                + (state.z - state.q + state.g2 / state.mu)
            )
            nuc = np.linalg.svd(znew, compute_uv=False).sum()
            lin = np.sum(grad * (znew - state.z))
            quad = state.eta * state.mu / 2 * np.sum((znew - state.z) ** 2)
            return nuc + lin + quad

        z_new = update_z(state, x)
        assert surrogate(z_new) <= surrogate(state.z) + 1e-10

    def test_z_step_shrinks_with_larger_eta(self, rng):
        x = FeatureMatrix(unit_columns(rng.standard_normal((6, 9))))
        cfg = small_config()
        state = init_state(x, cfg)
        state.z = rng.standard_normal((9, 9)) * 0.2
        step1 = np.linalg.norm(update_z(state, x) - state.z)
        state.eta *= 10
        step2 = np.linalg.norm(update_z(state, x) - state.z)
        assert step2 <= step1 + 1e-12

    def test_q_identity_when_thresholds_vanish(self, rng):
        x = FeatureMatrix(unit_columns(rng.standard_normal((5, 8))))
        cfg = small_config(alpha=0.0, beta=0.0)
        state = init_state(x, cfg)
        state.z = rng.standard_normal((8, 8))
        state.g2 = rng.standard_normal((8, 8))
        q = update_q(state, np.zeros((8, 8)), cfg)
        assert np.allclose(q, state.z + state.g2 / state.mu)

    def test_q_small_entries_zeroed(self):
        x = FeatureMatrix(np.eye(4))
        cfg = small_config(alpha=2.0, beta=1.0)
        state = init_state(x, cfg)
        state.z = np.full((4, 4), 0.01)
        state.theta = np.ones((4, 4))
        weights = np.ones((4, 4))
        # per-entry threshold (2*1 + 1*1)/0.1 = 30 >> |z|
        q = update_q(state, weights, cfg)
        assert np.array_equal(q, np.zeros((4, 4)))

    def test_f_block_diagonal_indicator(self):
        # Q with two disconnected blocks: embedding rows coincide inside blocks
        x = FeatureMatrix(np.eye(4))
        cfg = small_config(beta=1.0)
        state = init_state(x, cfg)
        q = np.zeros((4, 4))
        q[0, 1] = q[1, 0] = 0.9
        q[2, 3] = q[3, 2] = 0.7
        state.q = q
        f, theta = update_f(state, 2)
        assert np.abs(f.T @ f - np.eye(2)).max() < 1e-10
        assert theta[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert theta[2, 3] == pytest.approx(0.0, abs=1e-12)
        assert theta[0, 2] > 0.1

    def test_f_trace_equals_smallest_eigenvalue_sum(self, rng):
        x = FeatureMatrix(unit_columns(rng.standard_normal((5, 7))))
        cfg = small_config()
        state = init_state(x, cfg)
        state.q = rng.standard_normal((7, 7))
        f, _ = update_f(state, 3)
        absq = np.abs(state.q)
        m = np.diag((absq.sum(0) + absq.sum(1)) / 2) - (absq + absq.T) / 2
        expected = np.sort(np.linalg.eigvalsh(m))[:3].sum()
        assert np.trace(f.T @ m @ f) == pytest.approx(expected, abs=1e-8)

    def test_e_zero_input(self):
        x = FeatureMatrix(np.eye(3))
        cfg = small_config()
        state = init_state(x, cfg)
        state.z = np.eye(3)  # C = X - XZ + 0 = 0
        assert np.array_equal(update_e(state, x, cfg), np.zeros((3, 3)))

    def test_e_full_shrinkage(self, rng):
        x = FeatureMatrix(unit_columns(rng.standard_normal((4, 5))))
        cfg = small_config(lam=100.0)
        state = init_state(x, cfg)
        # C = X at Z=0, columns have unit norm; lam/mu = 1000 >= all norms
        assert np.array_equal(update_e(state, x, cfg), np.zeros((4, 5)))

    def test_e_blockwise_matches_per_row_shrink(self, rng):
        data = unit_columns(rng.standard_normal((6, 4)))
        x = FeatureMatrix(data, block_shape=(3, 2))
        cfg = small_config(lam=0.05)
        state = init_state(x, cfg)
        out = update_e(state, x, cfg)
        tau = cfg.lam / state.mu
        c = data.copy()  # C = X at the initial state
        for i in range(4):
            block = c[:, i].reshape(3, 2)
            for r in range(3):
                norm = np.linalg.norm(block[r])
                block[r] *= max(1 - tau / norm, 0.0) if norm > 0 else 0.0
            ref = block.reshape(-1)
            assert np.abs(out[:, i] - ref).max() <= 1e-12 * np.abs(ref).max()


class TestSolve:
    def test_identity_limit(self):
        x = FeatureMatrix(np.eye(2))
        cfg = SolverConfig(alpha=0.0, beta=0.0, lam=100.0, max_iters=500)
        res = cslrr_solve(x, cfg, 2)
        assert res.converged
        assert np.abs(res.z - np.eye(2)).max() < 1e-4

    def test_independent_subspaces_cluster(self):
        cfg = UosSynthConfig(
            m=50, subspaces=5, dim=4, points_per_subspace=40, noise=0.0, seed=7
        )
        fm, truth = generate_synthetic_uos(cfg)
        scfg = SolverConfig(alpha=1.0, beta=0.5, lam=10.0, max_iters=500)
        res = cslrr_solve(fm, scfg, 5)
        assert res.converged
        w = build_affinity(threshold_coefficients(res.z, 0.05))
        labels = spectral_cluster(w, 5, seed=0)
        assert clustering_accuracy(labels, truth) >= 0.99

    def test_lrr_degeneration_iterates(self):
        r = np.random.default_rng(42)
        x = unit_columns(r.standard_normal((8, 14)))
        fm = FeatureMatrix(x)
        n_iters = 30
        cfg = SolverConfig(
            alpha=0.0, beta=0.0, lam=0.7, max_iters=n_iters, epsilon=1e-16
        )
        seen = []
        cslrr_solve(
            fm, cfg, 3, callback=lambda st: seen.append((st.z.copy(), st.q.copy(), st.e.copy()))
        )
        reference = reference_lrr_iterates(x, 0.7, n_iters)
        assert len(seen) == len(reference)
        for (z, q, e), (zr, qr, er) in zip(seen, reference):
            assert np.abs(z - zr).max() < 1e-10
            assert np.abs(q - qr).max() < 1e-10
            assert np.abs(e - er).max() < 1e-10

    def test_sclrr_degeneration_iterates(self):
        r = np.random.default_rng(77)
        x = unit_columns(r.standard_normal((8, 12)))
        fm = FeatureMatrix(x)
        n_iters = 30
        cfg = SolverConfig(
            alpha=0.9, beta=0.0, lam=0.7, max_iters=n_iters, epsilon=1e-16
        )
        seen = []
        cslrr_solve(
            fm, cfg, 3, callback=lambda st: seen.append((st.z.copy(), st.q.copy(), st.e.copy()))
        )
        weights = build_weight_matrix(fm)
        reference = reference_lrr_iterates(x, 0.7, n_iters, weights=weights, alpha=0.9)
        for (z, q, e), (zr, qr, er) in zip(seen, reference):
            assert np.abs(z - zr).max() < 1e-10
            assert np.abs(q - qr).max() < 1e-10
            assert np.abs(e - er).max() < 1e-10

    def test_converged_run_satisfies_residual_checks(self, rng):
        x = FeatureMatrix(unit_columns(rng.standard_normal((6, 10))))
        cfg = small_config(lam=5.0, max_iters=500)
        res = cslrr_solve(x, cfg, 3)
        assert res.converged
        r1, r2 = res.residual_history[-1]
        assert r1 <= cfg.epsilon and r2 <= cfg.epsilon

    def test_nonconvergence_flagged_not_raised(self, rng):
        x = FeatureMatrix(unit_columns(rng.standard_normal((6, 10))))
        cfg = small_config(max_iters=2)
        res = cslrr_solve(x, cfg, 3)
        assert not res.converged
        assert res.iterations == 2

    def test_column_permutation_conjugates_z(self):
        # beta = 0 keeps the embedding step inert; with beta > 0 the first
        # iteration eigendecomposes M = 0, an unavoidable degeneracy that
        # the covariance claim excludes.
        r = np.random.default_rng(5)
        x = unit_columns(r.standard_normal((10, 12)))
        perm = r.permutation(12)
        cfg = small_config(beta=0.0, lam=2.0, max_iters=120)
        z1 = cslrr_solve(FeatureMatrix(x), cfg, 3).z
        z2 = cslrr_solve(FeatureMatrix(x[:, perm]), cfg, 3).z
        assert np.abs(z2 - z1[np.ix_(perm, perm)]).max() < 1e-8

    def test_mu_nondecreasing_and_capped(self, rng):
        x = FeatureMatrix(unit_columns(rng.standard_normal((5, 8))))
        cfg = small_config(mu_max=0.3, max_iters=30, epsilon=1e-16)
        mus = []
        cslrr_solve(x, cfg, 2, callback=lambda st: mus.append(st.mu))
        assert all(b >= a for a, b in zip(mus, mus[1:]))
        assert max(mus) <= 0.3

    def test_blockwise_solve_converges(self, rng):
        data = unit_columns(rng.standard_normal((12, 10)))
        x = FeatureMatrix(data, block_shape=(4, 3))
        cfg = small_config(lam=5.0, max_iters=500)
        res = cslrr_solve(x, cfg, 3)
        assert res.converged
        r1, r2 = res.residual_history[-1]
        assert max(r1, r2) <= cfg.epsilon

    @pytest.mark.parametrize(
        "clusters, error, message",
        [
            (0, ConfigError, "clusters must be >= 1, got 0"),
            (11, DimensionError, "clusters=11 exceeds the number of samples N=10"),
        ],
    )
    def test_out_of_range_clusters_rejected_before_any_step(
        self, rng, monkeypatch, clusters, error, message
    ):
        # The CLI's wording: `cluster` passes its count through unchecked.
        def no_step(*args, **kwargs):
            raise AssertionError("a solver step ran")

        monkeypatch.setattr(solver, "build_weight_matrix", no_step)
        monkeypatch.setattr(solver, "update_z", no_step)
        x = FeatureMatrix(unit_columns(rng.standard_normal((5, 10))))
        with pytest.raises(error) as caught:
            cslrr_solve(x, small_config(), clusters)
        assert str(caught.value) == message


def _snapshot(trail):
    return lambda st: trail.append(
        (st.z.copy(), st.q.copy(), st.e.copy(), st.g1.copy(), st.g2.copy(), st.mu)
    )


class TestEmbeddingStepSkippedAtBetaZero:
    # At beta > 0 the F update runs during the next Z update instead, beside
    # the Gram eigh or just before it; `overlap` stands in for what
    # one_blas_thread observes.
    @pytest.mark.parametrize(
        "alpha, beta, overlap",
        [(0.0, 0.0, True), (1.0, 0.0, True), (1.0, 0.5, False), (1.0, 0.5, True)],
        ids=["lrr", "sclrr", "cslrr-sequential", "cslrr-overlap"],
    )
    def test_iterates_bit_identical_to_always_updating_f(
        self, monkeypatch, alpha, beta, overlap
    ):
        monkeypatch.setattr(linalg, "one_blas_thread", lambda: overlap)
        fm, _ = generate_synthetic_uos(
            UosSynthConfig(m=20, subspaces=3, dim=2, points_per_subspace=12, seed=3)
        )
        cfg = SolverConfig(
            alpha=alpha, beta=beta, lam=1.0, max_iters=60, epsilon=1e-16
        )
        seen, expected = [], []
        threads = threading.active_count()
        res = cslrr_solve(fm, cfg, 3, callback=_snapshot(seen))
        assert threading.active_count() == threads
        ref = reference_solve(fm, cfg, 3, callback=_snapshot(expected))
        assert res.iterations == ref.iterations == len(seen) == len(expected) == 60
        for got, want in zip(seen, expected):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)
        assert np.array_equal(res.residual_history, ref.residual_history)
        assert np.array_equal(res.z, ref.z) and np.array_equal(res.e, ref.e)

    @pytest.mark.parametrize("overlap", [False, True], ids=["sequential", "overlap"])
    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_update_f_runs_once_per_iteration_only_when_beta_positive(
        self, rng, monkeypatch, beta, overlap
    ):
        calls, alongside = [], []
        update = solver.update_f

        def counted(state, clusters):
            calls.append(state.t)
            return update(state, clusters)

        def recording_svt(a, tau, f=None):
            alongside.append(f is not None)
            return svt(a, tau, f)

        monkeypatch.setattr(solver, "update_f", counted)
        monkeypatch.setattr(solver, "svt", recording_svt)
        monkeypatch.setattr(linalg, "one_blas_thread", lambda: overlap)
        x = FeatureMatrix(unit_columns(rng.standard_normal((6, 10))))
        res = cslrr_solve(x, small_config(beta=beta, max_iters=20), 3)
        # Iteration t's F update runs during iteration t+1's SVT; nothing reads
        # the last iteration's Theta, so its F update is skipped.
        assert len(calls) == (res.iterations - 1 if beta > 0 else 0)
        assert alongside == [False] + [beta > 0] * (res.iterations - 1)


def random_state(rng, n, m=6):
    """Nonzero random iterates at iteration 3 with their features, config and weights."""
    x = FeatureMatrix(unit_columns(rng.standard_normal((m, n))))
    cfg = small_config()
    state = init_state(x, cfg)
    state.z, state.q, state.g2 = (rng.standard_normal((n, n)) for _ in range(3))
    state.theta = np.abs(rng.standard_normal((n, n)))
    state.e, state.g1 = (rng.standard_normal((m, n)) for _ in range(2))
    state.mu, state.t = 0.7, 3
    return state, x, cfg, build_weight_matrix(x)


STATE_ARRAYS = ("z", "q", "e", "g1", "g2", "theta")

# Each step as (function, arguments) on a random state, features, config and weights.
STEP_CALLS = {
    "svt": lambda s, x, cfg, w: (svt, (s.z, 0.3)),
    "svt-wide": lambda s, x, cfg, w: (svt, (x.data, 0.1)),
    "sym_eig_smallest-C": lambda s, x, cfg, w: (
        linalg.sym_eig_smallest, (s.z + s.z.T, 3)
    ),
    "sym_eig_smallest-F": lambda s, x, cfg, w: (
        linalg.sym_eig_smallest, (np.asfortranarray(s.z + s.z.T), 3)
    ),
    "update_z": lambda s, x, cfg, w: (update_z, (s, x)),
    "update_q": lambda s, x, cfg, w: (update_q, (s, w, cfg)),
    "update_f": lambda s, x, cfg, w: (update_f, (s, 3)),
    "update_e": lambda s, x, cfg, w: (update_e, (s, x, cfg)),
}


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


class TestStepsLeaveTheirInputsUnchanged:
    # The steps work in place only on private buffers; an `out=` or an
    # `overwrite_a` aimed at an argument or at the state would show here.
    @pytest.mark.parametrize("step", list(STEP_CALLS))
    def test_arguments_and_state_bit_for_bit(self, rng, step):
        state, x, cfg, weights = random_state(rng, 40)
        func, args = STEP_CALLS[step](state, x, cfg, weights)
        arrays = [a for a in (*args, x.data, weights) if isinstance(a, np.ndarray)]
        given = [_bits(a) for a in arrays]
        held = {name: _bits(getattr(state, name)) for name in STATE_ARRAYS}
        func(*args)
        assert [_bits(a) for a in arrays] == given
        assert {name: _bits(getattr(state, name)) for name in STATE_ARRAYS} == held


class TestWorkingSet:
    """tracemalloc peaks of one F and one Z step, in N x N float64 arrays.

    The peak counts the returned arrays. At N = 200, update_f peaks at 2.2
    and update_z at 4.2 with M, Theta and Z - grad/eta built in place and
    dead buffers dropped; allocating each intermediate afresh reads 4.2
    and 7.2.
    """

    N = 200

    @pytest.mark.parametrize("step, bound", [("update_f", 3.0), ("update_z", 5.0)])
    def test_peak_within_bound(self, rng, step, bound):
        func, args = STEP_CALLS[step](*random_state(rng, self.N))
        func(*args)  # loads SciPy's LAPACK wrappers before anything is traced
        tracemalloc.start()
        try:
            func(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (self.N * self.N * 8) < bound


class TestOneBlasThread:
    VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    @pytest.mark.parametrize(
        "env, expected",
        [
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({"GOTO_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "4"}, False),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
            ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "many"}, False),
        ],
        ids=["unset", "openblas-1", "openblas-2", "goto-1", "omp-1", "omp-4",
             "openblas-first", "empty-skipped", "zero-skipped", "not-a-number"],
    )
    def test_reads_the_variables_openblas_reads_in_its_order(
        self, monkeypatch, env, expected
    ):
        for var in self.VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert linalg.one_blas_thread() is expected


class TestThresholdAndAffinity:
    def test_threshold_zero_keeps_all(self, rng):
        z = rng.standard_normal((5, 5))
        assert np.array_equal(threshold_coefficients(z, 0.0), z)

    def test_threshold_one_keeps_only_peak(self):
        z = np.array([[0.5, -2.0], [1.0, 2.0]])
        out = threshold_coefficients(z, 1.0)
        assert np.array_equal(out, np.array([[0.0, -2.0], [0.0, 2.0]]))

    def test_threshold_identity_stable(self):
        assert np.array_equal(threshold_coefficients(np.eye(3), 0.5), np.eye(3))

    def test_affinity_zero(self):
        assert np.array_equal(build_affinity(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_affinity_antisymmetric(self):
        z = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = build_affinity(z)
        assert w[0, 1] == pytest.approx(1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_affinity_symmetric_nonnegative(self, seed):
        z = np.random.default_rng(seed).standard_normal((6, 6))
        w = build_affinity(z)
        assert np.array_equal(w, w.T)
        assert w.min() >= 0


class TestFeatureMatrixValidation:
    def test_non_unit_columns_rejected(self):
        with pytest.raises(DataError):
            FeatureMatrix(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_block_shape_mismatch(self):
        with pytest.raises(DimensionError):
            FeatureMatrix(np.eye(4), block_shape=(3, 2))

    def test_theta_nonneg_zero_diagonal_symmetric(self, rng):
        basis = random_orthonormal(6, 2, rng)
        x = FeatureMatrix(np.eye(6))
        cfg = small_config()
        state = init_state(x, cfg)
        state.q = rng.standard_normal((6, 6))
        _, theta = update_f(state, 2)
        assert np.all(theta >= 0)
        assert np.all(np.diag(theta) == 0)
        assert np.allclose(theta, theta.T)


class TestSolverConfig:
    NAN_FIELDS = ("alpha", "beta", "lam", "rho", "mu0", "mu_max", "epsilon", "eta_factor")

    @pytest.mark.parametrize(
        "name, value",
        [(name, np.nan) for name in NAN_FIELDS]
        + [("rho", np.inf), ("lam", np.inf), ("mu_max", np.inf)],
    )
    def test_non_finite_number_rejected(self, name, value):
        with pytest.raises(ConfigError):
            small_config(**{name: value})

    def test_weights_have_the_documented_defaults(self):
        cfg = SolverConfig()
        assert (cfg.alpha, cfg.beta, cfg.lam) == (1.0, 0.5, 1.0)


class TestGramSvtAgainstSvd:
    """`svt` takes its singular pairs from a scaled Gram eigendecomposition;
    it must stay within a bounded distance of the SVD-based `_svt_ref`."""

    @pytest.mark.parametrize("beta", [0.5, 0.0], ids=["cslrr", "sclrr"])
    def test_every_solver_input(self, monkeypatch, beta):
        ucfg = UosSynthConfig(
            m=30, subspaces=4, dim=3, points_per_subspace=15, noise=0.1, seed=5
        )
        x, _ = generate_synthetic_uos(ucfg)
        calls = []

        def recording_svt(a, tau, alongside=None):
            calls.append((np.array(a), tau, svt(a, tau, alongside)))
            return calls[-1][2]

        monkeypatch.setattr(solver, "svt", recording_svt)
        config = SolverConfig(alpha=1.0, beta=beta, lam=10.0)
        result = cslrr_solve(x, config, 4)
        assert result.converged
        assert len(calls) == result.iterations
        for a, tau, out in calls:
            ref = _svt_ref(a, tau)
            assert np.abs(out - ref).max() <= 1e-9 * max(1.0, np.abs(ref).max())

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    @pytest.mark.parametrize("shape", [(14, 9), (9, 14)], ids=["tall", "wide"])
    def test_extreme_scales(self, rng, scale, shape):
        a = rng.standard_normal(shape)
        tau = float(np.median(np.linalg.svd(a, compute_uv=False)))
        ref = _svt_ref(a * scale, tau * scale)
        out = svt(a * scale, tau * scale)
        assert np.linalg.matrix_rank(ref) not in (0, min(shape))
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)])
    def test_zero_matrix(self, shape):
        for tau in (0.0, 1.0):
            assert np.array_equal(svt(np.zeros(shape), tau), np.zeros(shape))

    def test_rank_deficient_at_zero_tau_is_identity(self, rng):
        a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 10))
        assert np.abs(svt(a, 0.0) - a).max() <= 1e-12 * np.abs(a).max()
