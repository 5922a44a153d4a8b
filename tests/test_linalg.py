import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoslearn.errors import DataError, DimensionError
from uoslearn.linalg import (
    col_l21_prox,
    elementwise_shrink,
    svt,
    sym_eig_smallest,
)


def nuclear_objective(z, a, tau):
    return tau * np.linalg.svd(z, compute_uv=False).sum() + 0.5 * np.sum((z - a) ** 2)


class TestSvt:
    def test_zero_input(self):
        assert np.array_equal(svt(np.zeros((3, 2)), 1.7), np.zeros((3, 2)))

    def test_diagonal(self):
        out = svt(np.diag([3.0, 1.0]), 2.0)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_random_perturbation_optimality(self, rng):
        # the output must minimize tau*||Z||_* + 0.5*||Z - A||_F^2
        a = rng.standard_normal((8, 6))
        tau = 0.5
        out = svt(a, tau)
        base = nuclear_objective(out, a, tau)
        for _ in range(1000):
            pert = rng.standard_normal((8, 6))
            pert *= rng.uniform(0, 0.1) / np.linalg.norm(pert)
            assert nuclear_objective(out + pert, a, tau) >= base - 1e-12

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_nonexpansive(self, seed, tau):
        r = np.random.default_rng(seed)
        a = r.standard_normal((5, 4))
        b = r.standard_normal((5, 4))
        lhs = np.linalg.norm(svt(a, tau) - svt(b, tau))
        assert lhs <= np.linalg.norm(a - b) + 1e-10

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            svt(np.eye(2), -0.1)


class TestElementwiseShrink:
    def test_formula_points(self):
        h = np.array([[1.0]])
        assert elementwise_shrink(np.array([[1.2]]), h, 0.5)[0, 0] == pytest.approx(0.7)
        assert elementwise_shrink(np.array([[-0.2]]), h, 0.5)[0, 0] == 0.0

    def test_zero_threshold_is_identity(self, rng):
        a = rng.standard_normal((4, 5))
        assert np.array_equal(elementwise_shrink(a, np.zeros_like(a), 2.0), a)

    def test_pointwise_grid(self):
        # scalar soft-threshold T_t(x) = max(x-t,0)+min(x+t,0) on a 10^4 grid
        xs = np.linspace(-5, 5, 100)
        ts = np.linspace(0, 3, 100)
        a = np.tile(xs, (100, 1))
        h = np.tile(ts[:, None], (1, 100))
        out = elementwise_shrink(a, h, 1.0)
        expected = np.maximum(a - h, 0.0) + np.minimum(a + h, 0.0)
        assert np.array_equal(out, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_sign_flip_commutes(self, seed):
        r = np.random.default_rng(seed)
        a = r.standard_normal((3, 6))
        h = np.abs(r.standard_normal((3, 6)))
        assert np.allclose(
            elementwise_shrink(-a, h, 0.7), -elementwise_shrink(a, h, 0.7)
        )

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            elementwise_shrink(np.eye(2), np.eye(3), 1.0)


class TestColL21Prox:
    def test_column_zeroed_at_norm(self):
        out = col_l21_prox(np.array([[3.0], [4.0]]), 5.0)
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_column_scaled(self):
        out = col_l21_prox(np.array([[3.0], [4.0]]), 2.5)
        assert np.allclose(out, [[1.5], [2.0]])

    def test_tau_zero_identity(self, rng):
        c = rng.standard_normal((4, 7))
        assert np.array_equal(col_l21_prox(c, 0.0), c)

    def test_matches_closed_form_per_column(self, rng):
        c = rng.standard_normal((6, 9))
        c[:, 3] = 0.0
        tau = 0.8
        out = col_l21_prox(c, tau)
        for j in range(c.shape[1]):
            norm = np.linalg.norm(c[:, j])
            expected = c[:, j] * max(1 - tau / norm, 0.0) if norm > 0 else c[:, j]
            assert np.array_equal(out[:, j], expected)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_never_grows_columns(self, seed, tau):
        c = np.random.default_rng(seed).standard_normal((5, 6))
        out = col_l21_prox(c, tau)
        assert np.all(
            np.linalg.norm(out, axis=0) <= np.linalg.norm(c, axis=0) + 1e-12
        )


class TestSymEigSmallest:
    def test_diagonal(self):
        f = sym_eig_smallest(np.diag([1.0, 2.0, 3.0]), 2)
        assert np.allclose(np.abs(f), np.eye(3)[:, :2])

    def test_degenerate_deterministic(self):
        m = np.zeros((3, 3))
        f1 = sym_eig_smallest(m, 1)
        f2 = sym_eig_smallest(m, 1)
        assert np.array_equal(f1, f2)
        assert np.linalg.norm(f1) == pytest.approx(1.0)

    def test_residual_oracle(self, rng):
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2
        f = sym_eig_smallest(m, 3)
        lam = np.sort(np.linalg.eigvalsh(m))[:3]
        assert np.abs(m @ f - f * lam).max() < 1e-8

    def test_orthonormal_columns(self, rng):
        a = rng.standard_normal((7, 7))
        f = sym_eig_smallest(a + a.T, 4)
        assert np.abs(f.T @ f - np.eye(4)).max() < 1e-10

    def test_full_decomposition_reconstructs(self, rng):
        a = rng.standard_normal((6, 6))
        m = (a + a.T) / 2
        f = sym_eig_smallest(m, 6)
        lam = np.sort(np.linalg.eigvalsh(m))
        rebuilt = f @ np.diag(lam) @ f.T
        rel = np.linalg.norm(rebuilt - m) / np.linalg.norm(m)
        assert rel <= 1e-8

    def test_k_out_of_range(self):
        with pytest.raises(DimensionError):
            sym_eig_smallest(np.eye(3), 4)

    def test_asymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            sym_eig_smallest(m, 1)
