import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uoslearn.errors import DimensionError
from uoslearn.metrics import clustering_accuracy
from uoslearn.spectral import kmeans, spectral_cluster


def block_affinity(sizes, rng, within=(0.5, 1.0), cross=0.0):
    n = sum(sizes)
    w = np.full((n, n), cross, dtype=float)
    start = 0
    for s in sizes:
        block = rng.uniform(*within, size=(s, s))
        w[start : start + s, start : start + s] = block
        start += s
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


def as_partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


class TestKmeans:
    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0], [9.0, 9.0]])
        labels = kmeans(pts, 2, seed=3)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_n(self, rng):
        pts = rng.standard_normal((5, 3))
        labels = kmeans(pts, 5, seed=0)
        wcss = sum(
            np.sum((pts[labels == c] - pts[labels == c].mean(0)) ** 2)
            for c in set(labels)
        )
        assert wcss == pytest.approx(0.0, abs=1e-20)

    def test_beats_random_labelings(self, rng):
        pts = rng.standard_normal((30, 4))
        k = 3
        labels = kmeans(pts, k, seed=11)

        def wcss(lab):
            total = 0.0
            for c in range(k):
                members = pts[lab == c]
                if len(members):
                    total += np.sum((members - members.mean(0)) ** 2)
            return total

        ours = wcss(labels)
        for _ in range(1000):
            assert ours <= wcss(rng.integers(0, k, size=30)) + 1e-9

    def test_deterministic(self, rng):
        pts = rng.standard_normal((25, 3))
        a = kmeans(pts, 4, seed=9)
        b = kmeans(pts, 4, seed=9)
        assert np.array_equal(a, b)

    def test_duplicates_allow_empty_clusters(self):
        pts = np.zeros((6, 2))
        labels = kmeans(pts, 3, seed=1)
        assert len(labels) == 6

    def test_k_exceeds_n(self):
        with pytest.raises(DimensionError):
            kmeans(np.zeros((2, 2)), 3, seed=0)


class TestSpectralCluster:
    def test_two_exact_blocks(self, rng):
        w = block_affinity([6, 5], rng)
        labels = spectral_cluster(w, 2, seed=0)
        assert len(set(labels[:6])) == 1
        assert len(set(labels[6:])) == 1
        assert labels[0] != labels[6]

    def test_k_components_recovered_exactly(self, rng):
        sizes = [4, 7, 5]
        w = block_affinity(sizes, rng)
        labels = spectral_cluster(w, 3, seed=2)
        truth = np.repeat(np.arange(3), sizes)
        assert clustering_accuracy(labels, truth) == 1.0

    def test_k_one(self, rng):
        w = block_affinity([5], rng)
        assert np.array_equal(spectral_cluster(w, 1, seed=0), np.zeros(5, dtype=int))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(123)
        w = block_affinity([7, 6, 7], rng, cross=0.02)
        perm = rng.permutation(20)
        labels = spectral_cluster(w, 3, seed=4)
        permuted = spectral_cluster(w[np.ix_(perm, perm)], 3, seed=4)
        assert as_partition(permuted) == as_partition(labels[perm])

    def test_scale_invariance(self, rng):
        w = block_affinity([6, 6], rng, cross=0.05)
        a = spectral_cluster(w, 2, seed=5)
        b = spectral_cluster(3.7 * w, 2, seed=5)
        assert as_partition(a) == as_partition(b)

    def test_bitwise_repeatability(self, rng):
        w = block_affinity([5, 5, 4], rng, cross=0.1)
        a = spectral_cluster(w, 3, seed=8)
        b = spectral_cluster(w, 3, seed=8)
        assert np.array_equal(a, b)

    def test_zero_rows_tolerated(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        labels = spectral_cluster(w, 2, seed=0)
        assert len(labels) == 4

    def test_k_exceeds_n(self, rng):
        with pytest.raises(DimensionError):
            spectral_cluster(np.eye(3), 4, seed=0)

    def test_asymmetric_rejected(self):
        w = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            spectral_cluster(w, 2, seed=0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_labels_in_range(self, seed):
        r = np.random.default_rng(seed)
        w = block_affinity([5, 5], r, cross=0.2)
        labels = spectral_cluster(w, 2, seed=seed)
        assert set(labels) <= {0, 1}


def cdist_kmeans(points, k, seed):
    """`kmeans` as it stood with scipy's cdist for the Lloyd distances, verbatim."""
    from scipy.spatial.distance import cdist

    from uoslearn.spectral import KMEANS_MAX_ITER, KMEANS_RESTARTS, _kmeanspp_init

    def lloyd(points, centers, max_iter):
        k = centers.shape[0]
        dist = cdist(points, centers, "sqeuclidean")
        labels = np.argmin(dist, axis=1)
        for _ in range(max_iter):
            for c in range(k):
                mask = labels == c
                if np.any(mask):
                    centers[c] = points[mask].mean(axis=0)
            dist = cdist(points, centers, "sqeuclidean")
            new_labels = np.argmin(dist, axis=1)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        wcss = float(dist[np.arange(points.shape[0]), labels].sum())
        return labels.astype(int), wcss

    best_labels, best_wcss = None, np.inf
    for child in np.random.SeedSequence(seed).spawn(KMEANS_RESTARTS):
        rng = np.random.default_rng(child)
        labels, wcss = lloyd(points, _kmeanspp_init(points, k, rng), KMEANS_MAX_ITER)
        if wcss < best_wcss:
            best_wcss, best_labels = wcss, labels
    return best_labels


class TestKmeansDistances:
    """The numpy Lloyd distances reproduce scipy's cdist (test-only import)."""

    @pytest.mark.parametrize("dim", range(1, 8))
    def test_bitwise_equal_to_cdist_below_eight_dimensions(self, dim):
        from scipy.spatial.distance import cdist

        from uoslearn.spectral import _sq_distances

        r = np.random.default_rng(dim)
        for _ in range(100):
            n, k = r.integers(1, 60), r.integers(1, 12)
            points, centers = r.standard_normal((n, dim)), r.standard_normal((k, dim))
            assert np.array_equal(
                _sq_distances(points, centers), cdist(points, centers, "sqeuclidean")
            )

    @pytest.mark.parametrize("k", range(2, 11))
    def test_labels_match_cdist_reference(self, k):
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            # Unit rows in k dimensions, as spectral_cluster embeds them.
            points = r.standard_normal((120, k))
            points /= np.linalg.norm(points, axis=1, keepdims=True)
            assert np.array_equal(kmeans(points, k, seed), cdist_kmeans(points, k, seed))
