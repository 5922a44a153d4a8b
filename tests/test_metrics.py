import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoslearn.errors import DimensionError
from uoslearn.metrics import assignment_optimum, clustering_accuracy


class TestClusteringAccuracy:
    def test_exact_match(self):
        assert clustering_accuracy([0, 1, 2, 0], [0, 1, 2, 0]) == 1.0

    def test_relabeling_is_perfect(self):
        truth = [0, 0, 1, 1, 2]
        pred = [2, 2, 0, 0, 1]
        assert clustering_accuracy(pred, truth) == 1.0

    def test_half_agreement(self):
        assert clustering_accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5

    def test_more_clusters_than_classes(self):
        truth = [0, 0, 0, 0, 1, 1, 1, 1]
        pred = [0, 0, 2, 2, 1, 1, 1, 1]
        assert clustering_accuracy(pred, truth) == pytest.approx(0.75)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            clustering_accuracy([0, 1], [0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            clustering_accuracy([], [])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_bijection_invariance(self, seed):
        r = np.random.default_rng(seed)
        truth = r.integers(0, 4, size=30)
        pred = r.integers(0, 4, size=30)
        base = clustering_accuracy(pred, truth)
        shuffle = r.permutation(4)
        assert clustering_accuracy(shuffle[pred], truth) == pytest.approx(base)
        assert clustering_accuracy(pred, shuffle[truth]) == pytest.approx(base)


class TestAssignmentOptimum:
    """The in-package Hungarian method against scipy's solver (test-only import)."""

    @staticmethod
    def scipy_optimum(w):
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(w, maximize=True)
        return int(w[rows, cols].sum())

    def test_random_rectangular_matrices_with_ties(self):
        r = np.random.default_rng(9)
        for trial in range(1500):
            shape = r.integers(1, 9, size=2)
            low = -3 if trial % 3 == 0 else 0  # confusion counts are >= 0
            w = r.integers(low, r.integers(1, 5), size=shape)  # few values: many ties
            assert assignment_optimum(w) == self.scipy_optimum(w), w

    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (3, 5), (5, 3)])
    def test_degenerate_shapes(self, shape):
        w = np.arange(np.prod(shape)).reshape(shape) % 4
        assert assignment_optimum(w) == self.scipy_optimum(w)
        assert assignment_optimum(np.zeros(shape, dtype=int)) == 0

    def test_confusion_matrix_of_larger_labelings(self):
        r = np.random.default_rng(4)
        w = r.integers(0, 30, size=(40, 25))
        assert assignment_optimum(w) == self.scipy_optimum(w)
