import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_orthonormal, unit_columns
from uoslearn.errors import ConfigError, DataError, DimensionError
from uoslearn.sequences import (
    LeafSet,
    SequenceSample,
    align_features_dtw,
    assign_to_leaves,
    class_distance_ceilings,
    dtw_grassmann,
    gaussian_dtw_kernel,
    knn_classify,
    leaf_distance_table,
    median_bandwidth,
    open_set_knn,
    sequence_distance,
    subspace_distance,
)
from uoslearn.synth import SequenceSynthConfig, generate_synthetic_sequences, split_by_class


def enumerate_monotone_paths(n, m):
    """Every warping path from (0,0) to (n-1,m-1) with steps (1,0),(0,1),(1,1)."""
    paths = []

    def walk(a, b, acc):
        if (a, b) == (n - 1, m - 1):
            paths.append(acc)
            return
        if a + 1 < n and b + 1 < m:
            walk(a + 1, b + 1, acc + [(a + 1, b + 1)])
        if a + 1 < n:
            walk(a + 1, b, acc + [(a + 1, b)])
        if b + 1 < m:
            walk(a, b + 1, acc + [(a, b + 1)])

    walk(0, 0, [(0, 0)])
    return paths


def brute_force_dtw(psi_a, psi_b, table):
    best = np.inf
    for path in enumerate_monotone_paths(len(psi_a), len(psi_b)):
        cost = sum(table[psi_a[a], psi_b[b]] for a, b in path)
        best = min(best, cost)
    return best


def random_leaves(rng, m=10, dims=(2, 3, 2)):
    bases = []
    used = 0
    g = random_orthonormal(m, sum(dims), rng)
    for d in dims:
        bases.append(g[:, used : used + d])
        used += d
    return LeafSet(bases)


def seq_from_columns(cols, label=None):
    return SequenceSample(features=unit_columns(np.asarray(cols, dtype=float)), label=label)


class TestAssignToLeaves:
    def test_exact_membership(self, rng):
        leaves = random_leaves(rng)
        phi = unit_columns(leaves.bases[1] @ rng.standard_normal((3, 4)))
        psi = assign_to_leaves(seq_from_columns(phi), leaves)
        assert np.array_equal(psi, np.ones(4, dtype=int))

    def test_single_leaf_constant(self, rng):
        leaves = LeafSet([random_orthonormal(8, 2, rng)])
        phi = unit_columns(rng.standard_normal((8, 5)))
        assert np.array_equal(assign_to_leaves(seq_from_columns(phi), leaves), np.zeros(5, dtype=int))

    def test_tie_breaks_to_lowest_index(self):
        basis = np.eye(4)[:, :1]
        leaves = LeafSet([basis, basis.copy()])
        phi = np.eye(4)[:, :1]
        assert assign_to_leaves(SequenceSample(features=phi), leaves)[0] == 0

    def test_frame_dimension_must_match_leaves(self, rng):
        leaves = random_leaves(rng, m=10)
        with pytest.raises(DimensionError, match="dimension"):
            assign_to_leaves(seq_from_columns(rng.standard_normal((6, 3))), leaves)


class TestSubspaceDistance:
    def test_identical_zero(self, rng):
        u = random_orthonormal(7, 3, rng)
        assert subspace_distance(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_lines(self):
        e = np.eye(4)
        assert subspace_distance(e[:, :1], e[:, 1:2]) == pytest.approx(1.0)

    def test_nested_line_in_plane(self, rng):
        # analytic value sqrt(1 - 1/2) for a line inside a plane
        rot = random_orthonormal(6, 6, rng)
        line = rot[:, :1]
        plane = rot[:, :2]
        assert subspace_distance(line, plane) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_symmetry_range_rotation_invariance(self, rng):
        for _ in range(200):
            da, db = rng.integers(1, 4), rng.integers(1, 4)
            ua = random_orthonormal(8, da, rng)
            ub = random_orthonormal(8, db, rng)
            d1 = subspace_distance(ua, ub)
            assert 0.0 <= d1 <= 1.0
            assert d1 == pytest.approx(subspace_distance(ub, ua), abs=1e-12)
            ra = random_orthonormal(da, da, rng)
            rb = random_orthonormal(db, db, rng)
            assert subspace_distance(ua @ ra, ub @ rb) == pytest.approx(d1, abs=1e-10)


class TestDtwGrassmann:
    def test_identical_vectors_zero(self, rng):
        leaves = random_leaves(rng)
        psi = np.array([0, 1, 2, 1, 0])
        assert dtw_grassmann(psi, psi, leaves) == 0.0

    def test_single_frame_pair(self, rng):
        leaves = random_leaves(rng)
        table = leaf_distance_table(leaves)
        assert dtw_grassmann([0], [2], leaves) == pytest.approx(table[0, 2])

    def test_matches_brute_force_sampled(self, rng):
        leaves = random_leaves(rng)
        table = leaf_distance_table(leaves)
        for _ in range(60):
            la, lb = rng.integers(1, 6), rng.integers(1, 6)
            pa = rng.integers(0, 3, size=la)
            pb = rng.integers(0, 3, size=lb)
            expected = brute_force_dtw(pa, pb, table)
            assert dtw_grassmann(pa, pb, leaves, table) == pytest.approx(
                expected, abs=1e-12
            )

    def test_symmetric_equal_lengths(self, rng):
        leaves = random_leaves(rng)
        pa = rng.integers(0, 3, size=6)
        pb = rng.integers(0, 3, size=6)
        assert dtw_grassmann(pa, pb, leaves) == pytest.approx(
            dtw_grassmann(pb, pa, leaves), abs=1e-12
        )

    def test_out_of_range_index(self, rng):
        leaves = random_leaves(rng)
        with pytest.raises(DimensionError):
            dtw_grassmann([0, 5], [0], leaves)


class TestAlignFeaturesDtw:
    def test_identical_sequences_diagonal(self, rng):
        phi = unit_columns(rng.standard_normal((6, 5)))
        s = SequenceSample(features=phi)
        path = align_features_dtw(s, s)
        assert np.array_equal(path, np.stack([np.arange(5), np.arange(5)], axis=1))

    def test_repeated_first_frame_trimmed(self, rng):
        phi = unit_columns(rng.standard_normal((6, 5)))
        s1 = SequenceSample(features=phi)
        repeated = np.hstack([phi[:, :1], phi[:, :1], phi])  # first frame 3 times
        s2 = SequenceSample(features=repeated)
        path = align_features_dtw(s1, s2)
        pinned = np.sum(path[:, 0] == path[0, 0])
        assert pinned <= 1

    def test_length_one_vs_many(self, rng):
        phi = unit_columns(rng.standard_normal((6, 7)))
        s1 = SequenceSample(features=phi[:, :1])
        s2 = SequenceSample(features=phi)
        path = align_features_dtw(s1, s2)
        assert len(path) == 1

    def test_path_monotone_nonempty(self, rng):
        a = SequenceSample(features=unit_columns(rng.standard_normal((5, 8))))
        b = SequenceSample(features=unit_columns(rng.standard_normal((5, 6))))
        path = align_features_dtw(a, b)
        assert len(path) >= 1
        diffs = np.diff(path, axis=0)
        assert np.all(diffs >= 0)
        assert np.all(diffs.sum(axis=1) >= 1)


class TestSequenceDistance:
    def test_identical_zero(self, rng):
        leaves = random_leaves(rng)
        phi = unit_columns(leaves.bases[0] @ rng.standard_normal((2, 4)))
        s = SequenceSample(features=phi)
        psi = assign_to_leaves(s, leaves)
        assert sequence_distance(s, s, psi, psi, leaves) == 0.0

    def test_orthogonal_leaves_give_one(self, rng):
        e = np.eye(6)
        leaves = LeafSet([e[:, :1], e[:, 1:2]])
        s1 = SequenceSample(features=np.tile(e[:, :1], (1, 3)))
        s2 = SequenceSample(features=np.tile(e[:, 1:2], (1, 3)))
        d = sequence_distance(s1, s2, [0, 0, 0], [1, 1, 1], leaves)
        assert d == pytest.approx(1.0)

    def test_hand_computed_three_frames(self, rng):
        leaves = random_leaves(rng)
        table = leaf_distance_table(leaves)
        e = np.eye(10)
        # distinct frames force the diagonal alignment path
        s1 = SequenceSample(features=e[:, [0, 1, 2]])
        s2 = SequenceSample(features=e[:, [0, 1, 2]])
        psi1 = np.array([0, 1, 2])
        psi2 = np.array([1, 1, 0])
        expected = (table[0, 1] + table[1, 1] + table[2, 0]) / 3
        assert sequence_distance(s1, s2, psi1, psi2, leaves) == pytest.approx(expected)

    def test_leaf_relabeling_invariance(self, rng):
        leaves = random_leaves(rng)
        perm = np.array([2, 0, 1])
        permuted = LeafSet([leaves.bases[i] for i in perm])
        inverse = np.argsort(perm)
        a = SequenceSample(features=unit_columns(rng.standard_normal((10, 5))))
        b = SequenceSample(features=unit_columns(rng.standard_normal((10, 6))))
        pa = rng.integers(0, 3, 5)
        pb = rng.integers(0, 3, 6)
        d1 = sequence_distance(a, b, pa, pb, leaves)
        d2 = sequence_distance(a, b, inverse[pa], inverse[pb], permuted)
        assert d1 == pytest.approx(d2, abs=1e-12)


def make_sequence_dataset(seed=0, jitter=0.02, classes=3, per_class=8):
    cfg = SequenceSynthConfig(
        m=24,
        leaves=4,
        leaf_dim=3,
        classes=classes,
        sequences_per_class=per_class,
        template_len=4,
        frames_min=2,
        frames_max=4,
        jitter=jitter,
        seed=seed,
    )
    samples, leaves = generate_synthetic_sequences(cfg)
    for s in samples:
        s.assignment = assign_to_leaves(s, leaves)
    return samples, leaves


class TestKnn:
    def test_exact_training_match(self):
        samples, leaves = make_sequence_dataset()
        train, _ = split_by_class(samples, 6)
        probe = SequenceSample(
            features=train[0].features.copy(), label=None
        )
        assert knn_classify(probe, train, leaves, k=1) == train[0].label

    def test_two_class_margin(self, rng):
        e = np.eye(8)
        leaves = LeafSet([e[:, :1], e[:, 1:2], e[:, 2:3]])
        near = [seq_from_columns(e[:, [0, 0, 1]], label=0) for _ in range(2)]
        far = [seq_from_columns(e[:, [2, 2, 2]], label=1) for _ in range(2)]
        for s in near + far:
            s.assignment = assign_to_leaves(s, leaves)
        probe = seq_from_columns(e[:, [0, 0, 1]])
        assert knn_classify(probe, near + far, leaves, k=2) == 0

    def test_synthetic_accuracy(self):
        samples, leaves = make_sequence_dataset(seed=5, per_class=10)
        train, test = split_by_class(samples, 7)
        correct = sum(
            knn_classify(s, train, leaves, k=3) == s.label for s in test
        )
        assert correct / len(test) >= 0.9

    def test_invariant_to_training_order(self):
        samples, leaves = make_sequence_dataset(seed=2)
        train, test = split_by_class(samples, 6)
        probe = test[0]
        a = knn_classify(probe, train, leaves, k=2)
        b = knn_classify(probe, list(reversed(train)), leaves, k=2)
        assert a == b

    def test_single_class_returned_trivially(self):
        samples, leaves = make_sequence_dataset(seed=8, classes=1, per_class=4)
        train, _ = split_by_class(samples, 3)
        probe = SequenceSample(features=train[0].features.copy())
        assert knn_classify(probe, train, leaves, k=2) == 0

    def test_k_too_large_for_class(self):
        samples, leaves = make_sequence_dataset(per_class=3)
        train, _ = split_by_class(samples, 3)
        with pytest.raises(ConfigError):
            knn_classify(train[0], train, leaves, k=4)


class TestOpenSetKnn:
    def test_training_sequence_accepted(self):
        samples, leaves = make_sequence_dataset(seed=3)
        train, _ = split_by_class(samples, 6)
        probe = SequenceSample(features=train[2].features.copy())
        got = open_set_knn(probe, train, leaves, k=2, varsigma=1.01)
        assert got == train[2].label

    def test_distant_probe_rejected(self, rng):
        e = np.eye(12)
        leaves = LeafSet([e[:, :1], e[:, 1:2], e[:, 2:3]])
        train = []
        for i in range(4):
            s = seq_from_columns(e[:, [0, 0, 1]], label=0)
            s.assignment = assign_to_leaves(s, leaves)
            train.append(s)
        probe = seq_from_columns(e[:, [2, 2, 2]])
        assert open_set_knn(probe, train, leaves, k=2, varsigma=1.01) is None

    def test_huge_varsigma_never_rejects(self):
        samples, leaves = make_sequence_dataset(seed=4)
        train, test = split_by_class(samples, 6)
        for probe in test[:4]:
            assert open_set_knn(probe, train, leaves, k=2, varsigma=1e6) is not None

    def test_class_too_small(self):
        samples, leaves = make_sequence_dataset(per_class=3)
        train, _ = split_by_class(samples, 3)
        with pytest.raises(ConfigError):
            class_distance_ceilings(train, leaves, k=3)


class TestGaussianKernel:
    def test_unit_diagonal_symmetric(self, rng):
        samples, leaves = make_sequence_dataset(seed=6)
        assigns = [s.assignment for s in samples[:10]]
        k = gaussian_dtw_kernel(assigns, leaves, nu=1.0)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        assert k.min() > 0 and k.max() <= 1.0

    def test_large_nu_saturates(self, rng):
        samples, leaves = make_sequence_dataset(seed=6)
        assigns = [s.assignment for s in samples[:6]]
        k = gaussian_dtw_kernel(assigns, leaves, nu=1e8)
        assert np.allclose(k, 1.0)

    def test_median_bandwidth_positive(self, rng):
        d = np.abs(rng.standard_normal((7, 7)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        assert median_bandwidth(d) > 0

    def test_nu_must_be_positive(self, rng):
        samples, leaves = make_sequence_dataset(seed=6)
        with pytest.raises(ConfigError):
            gaussian_dtw_kernel([samples[0].assignment], leaves, nu=0.0)


class TestValidation:
    def test_zero_feature_column_rejected(self, rng):
        leaves = random_leaves(rng)
        with pytest.raises(DataError):
            SequenceSample(features=np.zeros((10, 2)))

    def test_assignment_length_mismatch(self, rng):
        phi = unit_columns(rng.standard_normal((4, 3)))
        with pytest.raises(DimensionError):
            SequenceSample(features=phi, assignment=np.array([0, 1]))

    def test_empty_leafset_rejected(self):
        with pytest.raises(DimensionError):
            LeafSet([])
