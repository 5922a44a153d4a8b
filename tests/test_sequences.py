import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from conftest import random_orthonormal, unit_columns
from uoslearn import sequences
from uoslearn.bundles import KnnModel
from uoslearn.errors import ConfigError, DataError, DimensionError
from uoslearn.sequences import (
    FRAME_BLOCK_CELLS,
    LeafSet,
    SequenceSample,
    align_features_dtw,
    assign_to_leaves,
    class_distance_ceilings,
    dtw_distance_matrix,
    dtw_grassmann,
    gaussian_kernel,
    median_bandwidth,
    sequence_distance,
    subspace_distance,
    _frame_distances,
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


# The scalar DTW routines the shared warping engine replaced, kept verbatim
# as references: the engine must reproduce them exactly, tie order included.
def reference_dtw_cost(costs: np.ndarray) -> float:
    """Min total cost over monotone warping paths of a dense cost matrix."""
    n, m = costs.shape
    inf = float("inf")
    prev = [inf] * (m + 1)
    prev[0] = 0.0
    for a in range(n):
        cur = [inf] * (m + 1)
        row = costs[a].tolist()
        for b in range(m):
            cur[b + 1] = row[b] + min(prev[b + 1], cur[b], prev[b])
        prev = cur
    return float(prev[m])


def reference_trim_pinned(path: np.ndarray) -> np.ndarray:
    """Drop boundary-pinned pairs, keeping one pair per pinned run."""
    h = len(path)
    lead = 1
    for side in (0, 1):
        run = 1
        while run < h and path[run, side] == path[0, side]:
            run += 1
        lead = max(lead, run)
    trimmed = path[lead - 1 :]
    h = len(trimmed)
    tail = 1
    for side in (0, 1):
        run = 1
        while run < h and trimmed[h - 1 - run, side] == trimmed[h - 1, side]:
            run += 1
        tail = max(tail, run)
    trimmed = trimmed[: h - tail + 1]
    return trimmed if len(trimmed) else path


def reference_align_features_dtw(sample_a: SequenceSample, sample_b: SequenceSample) -> np.ndarray:
    """Optimal warping path between two feature sequences, boundary-trimmed.

    Standard DTW with Euclidean frame cost; the backtracked path is then
    trimmed of redundant leading/trailing pairs where one side stays pinned
    at its first or last frame. Returns an (H, 2) array of index pairs.
    """
    costs = cdist(sample_a.features.T, sample_b.features.T)
    n, m = costs.shape
    inf = float("inf")
    acc = [[inf] * (m + 1) for _ in range(n + 1)]
    acc[0][0] = 0.0
    for a in range(n):
        row = costs[a].tolist()
        acc_a = acc[a]
        acc_a1 = acc[a + 1]
        for b in range(m):
            acc_a1[b + 1] = row[b] + min(acc_a[b + 1], acc_a1[b], acc_a[b])
    path = [(n - 1, m - 1)]
    a, b = n - 1, m - 1
    while (a, b) != (0, 0):
        # Preference on cost ties: diagonal, then shrink a, then shrink b.
        moves = []
        if a > 0 and b > 0:
            moves.append((acc[a][b], a - 1, b - 1))
        if a > 0:
            moves.append((acc[a][b + 1], a - 1, b))
        if b > 0:
            moves.append((acc[a + 1][b], a, b - 1))
        _, a, b = min(moves, key=lambda t: t[0])
        path.append((a, b))
    path.reverse()
    return reference_trim_pinned(np.asarray(path, dtype=int))


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
        table = leaves.distances
        assert dtw_grassmann([0], [2], leaves) == pytest.approx(table[0, 2])

    def test_matches_brute_force_sampled(self, rng):
        leaves = random_leaves(rng)
        table = leaves.distances
        for _ in range(60):
            la, lb = rng.integers(1, 6), rng.integers(1, 6)
            pa = rng.integers(0, 3, size=la)
            pb = rng.integers(0, 3, size=lb)
            expected = brute_force_dtw(pa, pb, table)
            assert dtw_grassmann(pa, pb, leaves) == pytest.approx(
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


class TestFrameDistances:
    """The frame costs equal scipy's euclidean cdist bit for bit on every shape."""

    @pytest.mark.parametrize("n, p", [(1, 1), (1, 6), (6, 1), (2, 2), (21, 30)])
    def test_equal_to_cdist(self, rng, n, p):
        for m in [*range(1, 18), 31, 32, 33, 64, 65, 100]:
            for scale in (1e-3, 1.0, 1e3):
                a = scale * rng.standard_normal((m, n))
                b = scale * rng.standard_normal((m, p))
                assert np.array_equal(_frame_distances(a, b), cdist(a.T, b.T)), (m, scale)

    def test_random_shapes_and_scales(self, rng):
        for _ in range(300):
            m, n, p = rng.integers(1, 70), rng.integers(1, 5), rng.integers(1, 5)
            a = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3)
            b = rng.standard_normal((m, p)) * 10.0 ** rng.uniform(-3, 3)
            assert np.array_equal(_frame_distances(a, b), cdist(a.T, b.T)), (m, n, p)

    def test_identical_frames_give_exact_zeros(self, rng):
        a = rng.standard_normal((40, 5))
        got = _frame_distances(a, a[:, ::-1])
        assert np.array_equal(got, cdist(a.T, a[:, ::-1].T))
        assert np.all(got[np.arange(5), np.arange(5)[::-1]] == 0.0)
        assert np.array_equal(_frame_distances(a[:, :1], a[:, :1]), [[0.0]])

    @pytest.mark.parametrize(
        "m, n, p", [(10, 130, 130), (4, 1, FRAME_BLOCK_CELLS + 1), (3, 300, 250)]
    )
    def test_blocks_of_dimensions_keep_the_order(self, rng, m, n, p):
        assert m * n * p > FRAME_BLOCK_CELLS  # more than one block
        a, b = rng.standard_normal((m, n)), rng.standard_normal((m, p))
        assert np.array_equal(_frame_distances(a, b), cdist(a.T, b.T))


class TestDtwEngineMatchesReference:
    def test_assignment_dtw_exact(self, rng):
        # Leaves spanned by one or two of four coordinate axes lie exactly 0,
        # sqrt(1/2) or 1 apart, so the tables are full of ties.
        axes = np.eye(4)
        for trial in range(300):
            if trial % 2:
                leaves = LeafSet(
                    [axes[:, rng.choice(4, rng.integers(1, 3), replace=False)] for _ in range(4)]
                )
            else:
                leaves = LeafSet([random_orthonormal(12, 2, rng) for _ in range(4)])
            table = leaves.distances
            pa = rng.integers(0, 4, size=rng.integers(1, 13))
            pb = rng.integers(0, 4, size=rng.integers(1, 13))
            expected = reference_dtw_cost(table[np.ix_(pa, pb)])
            assert dtw_grassmann(pa, pb, leaves) == expected

    def test_feature_alignment_exact(self, rng):
        # Frames drawn from a few signed axes give costs in {0, sqrt(2), 2},
        # so most cells and many backtrack moves tie exactly.
        signed_axes = np.hstack([np.eye(4), -np.eye(4)])
        for trial in range(300):
            la, lb = rng.integers(1, 13, size=2)
            if trial % 2:
                alphabet = signed_axes[:, : rng.integers(1, 9)]
                fa = alphabet[:, rng.integers(0, alphabet.shape[1], size=la)]
                fb = alphabet[:, rng.integers(0, alphabet.shape[1], size=lb)]
            else:
                fa = unit_columns(rng.standard_normal((4, la)))
                fb = unit_columns(rng.standard_normal((4, lb)))
            a, b = SequenceSample(features=fa), SequenceSample(features=fb)
            assert np.array_equal(
                align_features_dtw(a, b), reference_align_features_dtw(a, b)
            )

    @pytest.mark.parametrize("la, lb", [(1, 1), (1, 9), (9, 1)])
    def test_length_one_exact(self, rng, la, lb):
        axes = np.eye(4)
        signed_axes = np.hstack([axes, -axes])
        for trial in range(40):
            leaves = LeafSet(
                [axes[:, rng.choice(4, rng.integers(1, 3), replace=False)] for _ in range(4)]
            )
            pa = rng.integers(0, 4, size=la)
            pb = rng.integers(0, 4, size=lb)
            expected = reference_dtw_cost(leaves.distances[np.ix_(pa, pb)])
            assert dtw_grassmann(pa, pb, leaves) == expected
            alphabet = signed_axes if trial % 2 else unit_columns(rng.standard_normal((4, 3)))
            a = SequenceSample(features=alphabet[:, rng.integers(0, alphabet.shape[1], size=la)])
            b = SequenceSample(features=alphabet[:, rng.integers(0, alphabet.shape[1], size=lb)])
            assert np.array_equal(
                align_features_dtw(a, b), reference_align_features_dtw(a, b)
            )

    def test_constant_cost_backtracks_diagonal_first(self):
        # Identical frames make every cost 0, so every interior move ties.
        long = SequenceSample(features=np.repeat(np.eye(3)[:, :1], 5, axis=1))
        short = SequenceSample(features=np.repeat(np.eye(3)[:, :1], 3, axis=1))
        for a, b, expected in [
            (long, short, [[2, 0], [3, 1], [4, 2]]),
            (short, long, [[0, 2], [1, 3], [2, 4]]),
        ]:
            path = align_features_dtw(a, b)
            assert np.array_equal(path, expected)
            assert np.array_equal(path, reference_align_features_dtw(a, b))


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
        table = leaves.distances
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
        assert KnnModel(train, k=1).predict(probe, leaves) == train[0].label

    def test_two_class_margin(self, rng):
        e = np.eye(8)
        leaves = LeafSet([e[:, :1], e[:, 1:2], e[:, 2:3]])
        near = [seq_from_columns(e[:, [0, 0, 1]], label=0) for _ in range(2)]
        far = [seq_from_columns(e[:, [2, 2, 2]], label=1) for _ in range(2)]
        for s in near + far:
            s.assignment = assign_to_leaves(s, leaves)
        probe = seq_from_columns(e[:, [0, 0, 1]])
        assert KnnModel(near + far, k=2).predict(probe, leaves) == 0

    def test_synthetic_accuracy(self):
        samples, leaves = make_sequence_dataset(seed=5, per_class=10)
        train, test = split_by_class(samples, 7)
        correct = sum(
            KnnModel(train, k=3).predict(s, leaves) == s.label for s in test
        )
        assert correct / len(test) >= 0.9

    def test_invariant_to_training_order(self):
        samples, leaves = make_sequence_dataset(seed=2)
        train, test = split_by_class(samples, 6)
        probe = test[0]
        a = KnnModel(train, k=2).predict(probe, leaves)
        b = KnnModel(list(reversed(train)), k=2).predict(probe, leaves)
        assert a == b

    def test_single_class_returned_trivially(self):
        samples, leaves = make_sequence_dataset(seed=8, classes=1, per_class=4)
        train, _ = split_by_class(samples, 3)
        probe = SequenceSample(features=train[0].features.copy())
        assert KnnModel(train, k=2).predict(probe, leaves) == 0

    def test_k_too_large_for_class(self):
        samples, leaves = make_sequence_dataset(per_class=3)
        train, _ = split_by_class(samples, 3)
        with pytest.raises(ConfigError):
            KnnModel(train, k=4).predict(train[0], leaves)

    @pytest.mark.parametrize("open_set", [False, True])
    def test_empty_training_set_rejected(self, open_set):
        with pytest.raises(ConfigError, match="at least one training sequence"):
            KnnModel([], k=1, open_set=open_set)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda t, tr, lv: KnnModel(tr, k=0).predict(t, lv), "k must be >= 1"),
            (lambda t, tr, lv: KnnModel(tr, k=4).predict(t, lv), "class 0 has fewer than k=4"),
            (
                lambda t, tr, lv: KnnModel(tr, k=0, open_set=True).predict(t, lv),
                "k must be >= 1",
            ),
            (
                lambda t, tr, lv: KnnModel(tr, k=3, open_set=True).predict(t, lv),
                "class 0 needs more than k=3",
            ),
            (
                lambda t, tr, lv: KnnModel(
                    tr, k=4, open_set=True, ceilings={0: 1.0, 1: 1.0, 2: 1.0}
                ).predict(t, lv),
                "class 0 has fewer than k=4",
            ),
            (lambda t, tr, lv: class_distance_ceilings(tr, lv, k=0), "k must be >= 1"),
        ],
        ids=["knn-k0", "knn-k-above-class", "open-k0", "open-k-at-class",
             "open-ceilings-k-above-class", "ceilings-k0"],
    )
    def test_k_is_checked_before_any_warp(self, monkeypatch, call, message):
        samples, leaves = make_sequence_dataset(per_class=4)
        train, test = split_by_class(samples, 3)
        align, warps = sequences.align_features_dtw, []

        def counted_align(a, b):
            warps.append((a, b))
            return align(a, b)

        monkeypatch.setattr(sequences, "align_features_dtw", counted_align)
        with pytest.raises(ConfigError, match=message):
            call(test[0], train, leaves)
        assert warps == []


class TestOpenSetKnn:
    def test_training_sequence_accepted(self):
        samples, leaves = make_sequence_dataset(seed=3)
        train, _ = split_by_class(samples, 6)
        probe = SequenceSample(features=train[2].features.copy())
        got = KnnModel(train, k=2, open_set=True, varsigma=1.01).predict(probe, leaves)
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
        assert KnnModel(train, k=2, open_set=True, varsigma=1.01).predict(probe, leaves) is None

    def test_huge_varsigma_never_rejects(self):
        samples, leaves = make_sequence_dataset(seed=4)
        train, test = split_by_class(samples, 6)
        model = KnnModel(train, k=2, open_set=True, varsigma=1e6)
        for probe in test[:4]:
            assert model.predict(probe, leaves) is not None

    def test_ceilings_missing_a_class_rejected_before_any_warp(self, monkeypatch):
        samples, leaves = make_sequence_dataset(per_class=4)
        train, test = split_by_class(samples, 3)
        warps = []
        monkeypatch.setattr(sequences, "align_features_dtw", lambda a, b: warps.append((a, b)))
        missing = r"no ceiling for training class\(es\) 1, 2"
        with pytest.raises(ConfigError, match=missing):
            KnnModel(train, k=2, open_set=True, ceilings={0: 1.0})
        assert warps == []

    def test_nan_varsigma_rejected(self):
        samples, _ = make_sequence_dataset(per_class=4)
        train, _ = split_by_class(samples, 3)
        with pytest.raises(ConfigError, match="open-set varsigma must be > 1"):
            KnnModel(train, k=2, open_set=True, varsigma=np.nan)

    def test_class_too_small(self):
        samples, leaves = make_sequence_dataset(per_class=3)
        train, _ = split_by_class(samples, 3)
        with pytest.raises(ConfigError):
            class_distance_ceilings(train, leaves, k=3)

    def test_k_must_be_positive(self):
        samples, leaves = make_sequence_dataset(per_class=3)
        train, test = split_by_class(samples, 2)
        with pytest.raises(ConfigError, match="k must be >= 1"):
            class_distance_ceilings(train, leaves, k=0)
        with pytest.raises(ConfigError, match="k must be >= 1"):
            KnnModel(
                train, k=0, open_set=True, ceilings={0: 1.0, 1: 1.0, 2: 1.0}
            ).predict(test[0], leaves)


class TestGaussianKernel:
    def test_unit_diagonal_symmetric(self, rng):
        samples, leaves = make_sequence_dataset(seed=6)
        assigns = [s.assignment for s in samples[:10]]
        k = gaussian_kernel(dtw_distance_matrix(assigns, None, leaves), nu=1.0)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        assert k.min() > 0 and k.max() <= 1.0

    def test_large_nu_saturates(self, rng):
        samples, leaves = make_sequence_dataset(seed=6)
        assigns = [s.assignment for s in samples[:6]]
        k = gaussian_kernel(dtw_distance_matrix(assigns, None, leaves), nu=1e8)
        assert np.allclose(k, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_huge_nu_gives_unit_kernel(self):
        # nu**2 overflows a Python float; the kernel must saturate, not raise or warn.
        samples, leaves = make_sequence_dataset(seed=6)
        assigns = [s.assignment for s in samples[:4]]
        k = gaussian_kernel(dtw_distance_matrix(assigns, None, leaves), nu=1e200)
        assert np.array_equal(k, np.ones((4, 4)))

    def test_median_bandwidth_positive(self, rng):
        d = np.abs(rng.standard_normal((7, 7)))
        d = (d + d.T) / 2
        np.fill_diagonal(d, 0.0)
        assert median_bandwidth(d) > 0

    def test_nu_must_be_positive(self, rng):
        samples, leaves = make_sequence_dataset(seed=6)
        with pytest.raises(ConfigError):
            gaussian_kernel(dtw_distance_matrix([samples[0].assignment], None, leaves), nu=0.0)


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
