import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoslearn import linalg
from uoslearn.errors import DataError, DimensionError
from uoslearn.linalg import (
    col_l21_prox,
    elementwise_shrink,
    fix_eigvec_signs,
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


class TestSvtAlongside:
    """With one BLAS thread, `svt(a, tau, alongside=f)` runs f on the calling
    thread while a worker thread decomposes the Gram matrix, and leaves no
    thread behind."""

    @pytest.fixture(autouse=True)
    def one_blas_thread(self, monkeypatch):
        monkeypatch.setattr(linalg, "one_blas_thread", lambda: True)

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)], ids=["tall", "wide"])
    def test_bit_identical_and_called_once_on_calling_thread(self, rng, shape):
        a = rng.standard_normal(shape)
        tau = float(np.median(np.linalg.svd(a, compute_uv=False)))
        threads = []
        out = svt(a, tau, alongside=lambda: threads.append(threading.get_ident()))
        assert np.array_equal(out, svt(a, tau))
        assert threads == [threading.get_ident()]

    def test_exception_from_alongside_reraised_without_leftover_thread(self, rng):
        a = rng.standard_normal((20, 15))
        threads = threading.active_count()
        svt(a, 0.5, alongside=lambda: None)
        assert threading.active_count() == threads

        def fail():
            raise ArithmeticError("from alongside")

        with pytest.raises(ArithmeticError, match="from alongside"):
            svt(a, 0.5, alongside=fail)
        assert threading.active_count() == threads

    def test_exception_from_decomposition_reraised_after_alongside(
        self, rng, monkeypatch
    ):
        def fail(m):
            raise np.linalg.LinAlgError("from eigh")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        threads, calls = threading.active_count(), []
        with pytest.raises(np.linalg.LinAlgError, match="from eigh"):
            svt(rng.standard_normal((20, 15)), 0.5, alongside=lambda: calls.append(1))
        assert calls == [1]
        assert threading.active_count() == threads


class TestSvtAlongsideThreadedBlas:
    """With a multi-threaded BLAS, `svt(a, tau, alongside=f)` runs f on the
    calling thread just before the Gram decomposition and starts no thread."""

    @pytest.fixture
    def events(self, monkeypatch):
        """Records ("eigh", thread) per decomposition and fails any thread start."""
        monkeypatch.setattr(linalg, "one_blas_thread", lambda: False)
        eigh, events = np.linalg.eigh, []

        def recording_eigh(m):
            events.append(("eigh", threading.get_ident()))
            return eigh(m)

        def no_start(thread):
            raise AssertionError(f"svt started thread {thread.name}")

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        return events

    @pytest.mark.parametrize("shape", [(40, 30), (30, 40)], ids=["tall", "wide"])
    def test_called_once_on_calling_thread_before_the_decomposition(
        self, rng, events, shape
    ):
        a = rng.standard_normal(shape)
        tau = float(np.median(np.linalg.svd(a, compute_uv=False)))
        me = threading.get_ident()
        out = svt(a, tau, alongside=lambda: events.append(("alongside", threading.get_ident())))
        assert events == [("alongside", me), ("eigh", me)]
        assert np.array_equal(out, svt(a, tau))

    def test_exception_from_alongside_propagates_before_any_eigh(self, rng, events):
        def fail():
            raise ArithmeticError("from alongside")

        with pytest.raises(ArithmeticError, match="from alongside"):
            svt(rng.standard_normal((20, 15)), 0.5, alongside=fail)
        assert events == []


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowing_symmetrization_rejected(self):
        with pytest.raises(DataError, match="symmetrized matrix contains non-finite"):
            sym_eig_smallest(np.full((2, 2), 1e308), 1)


class TestSymEigSmallestPartial:
    """`sym_eig_smallest` computes only the k smallest eigenpairs; where the
    spectrum has a gap at k it spans the same space as a full eigh."""

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_projector_matches_full_eigh(self, rng, k):
        n = 16
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.concatenate([rng.uniform(-1.0, 1.0, k), rng.uniform(2.0, 3.0, n - k)])
        m = (q * lam) @ q.T
        m = (m + m.T) / 2
        f = sym_eig_smallest(m, k)
        full = np.linalg.eigh(m)[1][:, :k]
        assert np.abs(f @ f.T - full @ full.T).max() <= 1e-10
        rayleigh = np.einsum("ij,ij->j", f, m @ f)
        assert np.abs(rayleigh - np.sort(lam)[:k]).max() <= 1e-10
        assert np.all(np.diff(rayleigh) > 0)
        assert np.array_equal(fix_eigvec_signs(f), f)

    def test_laplacian_null_space(self, rng):
        # a graph of three components: the null space is their indicators
        sizes = (4, 6, 5)
        n = sum(sizes)
        w = np.zeros((n, n))
        start = 0
        for size in sizes:
            block = rng.uniform(0.5, 1.0, (size, size))
            w[start:start + size, start:start + size] = (block + block.T) / 2
            start += size
        np.fill_diagonal(w, 0.0)
        m = np.diag(w.sum(axis=1)) - w
        f = sym_eig_smallest(m, len(sizes))
        full = np.linalg.eigh(m)[1][:, : len(sizes)]
        labels = np.repeat(np.arange(len(sizes)), sizes)
        same = (labels[:, None] == labels[None, :]) / np.array(sizes)[labels]
        assert np.abs(f @ f.T - full @ full.T).max() <= 1e-10
        assert np.abs(f @ f.T - same).max() <= 1e-10
        assert np.array_equal(fix_eigvec_signs(f), f)


def eigh_reference(m, k):
    """The embedding step as it was before it called LAPACK's dsyevr directly."""
    import scipy.linalg

    sym = (m + m.T) / 2.0
    _, vecs = scipy.linalg.eigh(sym, subset_by_index=[0, k - 1])
    return fix_eigvec_signs(vecs)


def block_laplacian(rng, n):
    """Laplacian of a graph of up to three components: a repeated zero eigenvalue."""
    w = np.zeros((n, n))
    for idx in np.array_split(np.arange(n), min(n, 3)):
        block = rng.uniform(0.5, 1.0, (len(idx), len(idx)))
        w[np.ix_(idx, idx)] = (block + block.T) / 2
    np.fill_diagonal(w, 0.0)
    return np.diag(w.sum(axis=1)) - w


class TestSymEigSmallestMatchesEigh:
    """`sym_eig_smallest` calls dsyevr with the arguments `scipy.linalg.eigh`
    passes it, so it returns that routine's result bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "laplacian"])
    @pytest.mark.parametrize("n", [1, 2, 17, 240, 300])
    def test_bit_identical(self, rng, n, kind):
        if kind == "random":
            a = rng.standard_normal((n, n))
            m = (a + a.T) / 2
        else:
            m = block_laplacian(rng, n)
        for k in sorted({1, (n + 1) // 2, n}):
            assert np.array_equal(sym_eig_smallest(m, k), eigh_reference(m, k)), k
