import numpy as np
import pytest

from conftest import random_orthonormal, relative_error, unit_columns
from uoslearn import hierarchy
from uoslearn.errors import ConfigError, DataError, DimensionError
from uoslearn.hierarchy import (
    HierarchyConfig,
    SubspaceNode,
    estimate_subspace,
    hcs_lrr,
    mean_relative_error,
    read_tree,
    tree_summary,
    try_split,
    write_tree,
)
from uoslearn.metrics import clustering_accuracy
from uoslearn.solver import FeatureMatrix, SolverConfig
from uoslearn.synth import UosSynthConfig, generate_synthetic_uos


def shared_direction_data(m, d, n_per, seed, shared_scale=0.35):
    """Four subspaces in two pairs; the members of a pair share one direction,
    which keeps the pair coupled in the learned affinity while the pairs stay
    mutually orthogonal."""
    rng = np.random.default_rng(seed)
    g, r = np.linalg.qr(rng.standard_normal((m, 4 * d - 2)))
    g *= np.sign(np.diag(r))
    bases = [
        g[:, 0:d],
        np.hstack([g[:, 0:1], g[:, d : 2 * d - 1]]),
        g[:, 2 * d - 1 : 3 * d - 1],
        np.hstack([g[:, 2 * d - 1 : 2 * d], g[:, 3 * d - 1 : 4 * d - 2]]),
    ]
    cols, labels = [], []
    for ell, basis in enumerate(bases):
        coef = rng.standard_normal((d, n_per))
        coef[0] *= shared_scale
        pts = basis @ coef
        cols.append(pts / np.linalg.norm(pts, axis=0))
        labels += [ell] * n_per
    return FeatureMatrix(np.hstack(cols)), np.asarray(labels)


def hier_solver_config(**kw):
    base = dict(alpha=1.0, beta=0.5, lam=10.0, max_iters=400)
    base.update(kw)
    return SolverConfig(**base)


class TestEstimateSubspace:
    def test_single_direction(self):
        xc = np.outer(np.eye(5)[:, 0], [1.0, -2.0, 0.5])
        u, d = estimate_subspace(xc, 0.98)
        assert d == 1
        assert np.allclose(np.abs(u[:, 0]), np.eye(5)[:, 0])

    def test_equal_energy_two_directions(self):
        xc = np.array([[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0], [0.0] * 4])
        u, d = estimate_subspace(xc, 0.98)
        assert d == 2  # one direction holds only half the energy

    def test_gamma_one_gives_rank(self, rng):
        basis = random_orthonormal(8, 3, rng)
        xc = basis @ rng.standard_normal((3, 10))
        _, d = estimate_subspace(xc, 1.0)
        assert d == 3

    def test_zero_cluster_rejected(self):
        with pytest.raises(DataError):
            estimate_subspace(np.zeros((4, 3)), 0.98)

    def test_gram_trick_matches_direct(self, rng):
        basis = random_orthonormal(12, 2, rng)
        pts = unit_columns(basis @ rng.standard_normal((2, 5)))  # n < m: Gram path
        u1, d1 = estimate_subspace(pts, 0.99)
        u2, d2 = estimate_subspace(np.hstack([pts] * 4), 0.99)  # n > m: direct path
        assert d1 == d2
        overlap = np.linalg.svd(u1.T @ u2, compute_uv=False)
        assert np.allclose(overlap, 1.0, atol=1e-8)

    def test_orthonormal_output(self, rng):
        xc = unit_columns(rng.standard_normal((9, 6)))
        u, d = estimate_subspace(xc, 0.95)
        assert np.abs(u.T @ u - np.eye(d)).max() < 1e-10


class TestRelativeError:
    def test_in_span(self, rng):
        u = random_orthonormal(6, 2, rng)
        x = u @ np.array([1.0, -2.0])
        assert relative_error(x, u) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        u = np.eye(4)[:, :2]
        assert relative_error(np.eye(4)[:, 3], u) == pytest.approx(1.0)

    def test_45_degrees(self):
        u = np.eye(2)[:, :1]
        x = np.array([1.0, 1.0]) / np.sqrt(2)
        assert relative_error(x, u) == pytest.approx(0.5)

    def test_zero_vector_rejected(self):
        with pytest.raises(DataError):
            relative_error(np.zeros(3), np.eye(3)[:, :1])

    def test_mean_matches_loop(self, rng):
        u = random_orthonormal(7, 3, rng)
        xs = unit_columns(rng.standard_normal((7, 9)))
        looped = np.mean([relative_error(xs[:, j], u) for j in range(9)])
        assert mean_relative_error(xs, u) == pytest.approx(looped)


def two_subspace_node(rng, n_per=12, gamma_parent=0.6):
    """A node holding two orthogonal 3-d subspaces with a truncated parent basis,
    as a coarser level would have produced."""
    m = 12
    g = random_orthonormal(m, 6, rng)
    b1, b2 = g[:, :3], g[:, 3:]
    pts = np.hstack(
        [
            unit_columns(b1 @ rng.standard_normal((3, n_per))),
            unit_columns(b2 @ rng.standard_normal((3, n_per))),
        ]
    )
    fm = FeatureMatrix(pts)
    basis, dim = estimate_subspace(pts, gamma_parent)
    node = SubspaceNode(
        node_id=0,
        level=2,
        indices=np.arange(2 * n_per),
        basis=basis,
        dim=dim,
        divisible=True,
    )
    w = np.zeros((2 * n_per, 2 * n_per))
    w[:n_per, :n_per] = 0.5
    w[n_per:, n_per:] = 0.5
    np.fill_diagonal(w, 0.0)
    return node, fm, w


class TestTrySplit:
    def test_accepts_genuine_structure(self, rng):
        node, fm, w = two_subspace_node(rng)
        cfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=0.01, min_dim=1)
        outcome = try_split(node, fm, w, cfg, seed=0)
        assert outcome is not None
        (idx1, u1, d1), (idx2, u2, d2) = outcome
        assert {frozenset(idx1), frozenset(idx2)} == {
            frozenset(range(12)),
            frozenset(range(12, 24)),
        }
        assert d1 == 3 and d2 == 3
        # accepted children never fit their own samples worse than the parent
        for idx, u, _ in outcome:
            child_err = mean_relative_error(fm.data[:, idx], u)
            parent_err = mean_relative_error(fm.data[:, idx], node.basis)
            assert child_err <= parent_err + 1e-9

    def test_homogeneous_node_stays_leaf_at_high_gain(self, rng):
        m = 10
        basis = random_orthonormal(m, 3, rng)
        pts = unit_columns(basis @ rng.standard_normal((3, 20)))
        fm = FeatureMatrix(pts)
        u, d = estimate_subspace(pts, 0.98)
        node = SubspaceNode(0, 2, np.arange(20), u, d, True)
        w = np.full((20, 20), 0.3)
        np.fill_diagonal(w, 0.0)
        cfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=1.0, min_dim=1)
        assert try_split(node, fm, w, cfg, seed=1) is None
        assert node.divisible  # marking a leaf is left to hcs_lrr

    def test_min_dim_cap_forces_leaf(self, rng):
        node, fm, w = two_subspace_node(rng)
        cfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=0.01, min_dim=100)
        assert try_split(node, fm, w, cfg, seed=0) is None
        assert node.divisible  # marking a leaf is left to hcs_lrr

    def test_requires_divisible_node(self, rng):
        node, fm, w = two_subspace_node(rng)
        node.divisible = False
        cfg = HierarchyConfig(max_level=3)
        with pytest.raises(ConfigError):
            try_split(node, fm, w, cfg, seed=0)


class TestHcsLrr:
    def test_recovers_four_subspaces(self):
        fm, truth = shared_direction_data(50, 4, 30, seed=0)
        hcfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=0.01, min_dim=1)
        tree = hcs_lrr(fm, hier_solver_config(), hcfg, seed=0)
        assert tree.solver_converged
        assert clustering_accuracy(tree.leaf_labels(), truth) >= 0.95

    def test_p1_yields_two_leaves(self):
        fm, _ = shared_direction_data(50, 4, 8, seed=3)
        tree = hcs_lrr(fm, hier_solver_config(), HierarchyConfig(max_level=1), seed=0)
        assert len(tree.leaves()) == 2
        assert tree.max_level == 1

    def test_every_level_partitions_samples(self):
        fm, _ = shared_direction_data(50, 4, 10, seed=5)
        hcfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=0.01, min_dim=1)
        tree = hcs_lrr(fm, hier_solver_config(), hcfg, seed=2)
        # Level 1 partitions the samples and every split partitions its node,
        # so each level's active clusters partition the samples too.
        level_one = [n for n in tree.nodes if n.level == 1]
        joined = np.sort(np.concatenate([n.indices for n in level_one]))
        assert np.array_equal(joined, np.arange(fm.n_samples))
        for node in tree.nodes:
            if node.children is not None:
                kids = [tree.nodes[c] for c in node.children]
                assert all(kid.level == node.level + 1 for kid in kids)
                joined = np.sort(np.concatenate([kid.indices for kid in kids]))
                assert np.array_equal(joined, node.indices)
        assert len(tree.leaves()) <= 2**hcfg.max_level

    def test_deterministic_per_seed(self):
        fm, _ = shared_direction_data(50, 4, 8, seed=9)
        hcfg = HierarchyConfig(max_level=2, gamma=0.98)
        t1 = hcs_lrr(fm, hier_solver_config(), hcfg, seed=4)
        t2 = hcs_lrr(fm, hier_solver_config(), hcfg, seed=4)
        assert len(t1.nodes) == len(t2.nodes)
        for a, b in zip(t1.nodes, t2.nodes):
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.basis, b.basis)
            assert (a.level, a.dim, a.divisible, a.children) == (
                b.level,
                b.dim,
                b.divisible,
                b.children,
            )

    def test_leaf_bases_orthonormal(self):
        fm, _ = shared_direction_data(50, 4, 8, seed=11)
        hcfg = HierarchyConfig(max_level=2)
        tree = hcs_lrr(fm, hier_solver_config(), hcfg, seed=0)
        for leaf in tree.leaves():
            assert np.abs(leaf.basis.T @ leaf.basis - np.eye(leaf.dim)).max() < 1e-10

    def test_leaves_are_never_resplit(self):
        fm, _ = shared_direction_data(50, 4, 10, seed=7)
        hcfg = HierarchyConfig(max_level=4, gamma=0.98, split_gain=0.01, min_dim=1)
        tree = hcs_lrr(fm, hier_solver_config(), hcfg, seed=3)
        for node in tree.nodes:
            if not node.divisible:
                assert node.children is None

    def test_rejected_splits_become_leaves(self, monkeypatch):
        verdicts = []

        def recording_try_split(node, *args):
            outcome = try_split(node, *args)
            verdicts.append((node, outcome))
            return outcome

        monkeypatch.setattr(hierarchy, "try_split", recording_try_split)
        fm, _ = shared_direction_data(50, 4, 10, seed=9)
        hcfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=0.01, min_dim=1)
        tree = hcs_lrr(fm, hier_solver_config(), hcfg, seed=4)
        rejected = [node for node, outcome in verdicts if outcome is None]
        accepted = [node for node, outcome in verdicts if outcome is not None]
        assert rejected and any(node.level == 2 for node in accepted)
        for node in rejected:
            assert not node.divisible
            assert node.children is None
        for node in accepted:
            assert node.divisible
            assert node.children is not None

    def test_one_sample_nodes_are_not_divisible(self):
        # The 10-point input of `synth --seed 1 --set m=6 --set subspaces=2
        # --set dim=2 --set points=5`, split as `hierarchy --set levels=3
        # --set method=sclrr --set lambda=10`: two 1-sample nodes at level 3.
        fm, _ = generate_synthetic_uos(
            UosSynthConfig(m=6, subspaces=2, dim=2, points_per_subspace=5, seed=1)
        )
        scfg = SolverConfig(alpha=1.0, beta=0.0, lam=10.0)
        tree = hcs_lrr(fm, scfg, HierarchyConfig(max_level=3), seed=0)
        summary = tree_summary(tree).splitlines()
        assert "node=3 level=2 size=1 dim=1 divisible=0 children=-" in summary
        assert "node=6 level=3 size=1 dim=1 divisible=0 children=-" in summary
        assert "node=7 level=3 size=1 dim=1 divisible=0 children=-" in summary

    def test_failed_root_split_leaves_one_leaf(self, monkeypatch):
        monkeypatch.setattr(hierarchy, "_bisect", lambda indices, w, seed: None)
        fm, _ = shared_direction_data(50, 4, 8, seed=3)
        hcfg = HierarchyConfig(max_level=3, gamma=0.98)
        tree = hcs_lrr(fm, hier_solver_config(), hcfg, seed=0)
        (leaf,) = tree.nodes
        basis, dim = estimate_subspace(fm.data, hcfg.gamma)
        assert (leaf.node_id, leaf.level, leaf.divisible, leaf.children) == (0, 1, False, None)
        assert np.array_equal(leaf.indices, np.arange(fm.n_samples))
        assert leaf.dim == dim
        assert np.array_equal(leaf.basis, basis)
        assert tree.leaves() == [leaf]

    def test_too_deep_rejected_before_the_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(hierarchy, "cslrr_solve", no_solve)
        fm, _ = shared_direction_data(50, 4, 9, seed=0)  # N = 36 < 2**6
        with pytest.raises(ConfigError) as caught:
            hcs_lrr(fm, hier_solver_config(), HierarchyConfig(max_level=6), seed=0)
        assert str(caught.value).startswith("levels=6 is too deep for N=36 samples")

    @pytest.mark.parametrize("levels", [1, 5])
    def test_solver_embeds_in_two_to_the_depth_columns(self, monkeypatch, levels):
        solve, widths = hierarchy.cslrr_solve, []

        def recording_solve(x, config, clusters, *args, **kwargs):
            widths.append(clusters)
            return solve(x, config, clusters, *args, **kwargs)

        monkeypatch.setattr(hierarchy, "cslrr_solve", recording_solve)
        fm, _ = shared_direction_data(50, 4, 9, seed=0)  # N = 36 >= 2**5
        scfg = hier_solver_config(max_iters=5)
        hcs_lrr(fm, scfg, HierarchyConfig(max_level=levels), seed=0)
        assert widths == [2**levels]

    def test_too_few_samples(self):
        fm = FeatureMatrix(np.eye(3))
        with pytest.raises(DimensionError):
            hcs_lrr(fm, hier_solver_config(), HierarchyConfig(max_level=1), 0)


class TestTreeSerialization:
    def test_round_trip_lossless(self, tmp_path):
        fm, _ = shared_direction_data(50, 4, 8, seed=2)
        hcfg = HierarchyConfig(max_level=3, gamma=0.98, split_gain=0.01, min_dim=1)
        tree = hcs_lrr(fm, hier_solver_config(), hcfg, seed=1)
        path = tmp_path / "tree.bin"
        write_tree(tree, path)
        loaded = read_tree(path)
        assert loaded.max_level == tree.max_level
        assert loaded.n_samples == tree.n_samples
        assert loaded.solver_converged == tree.solver_converged
        assert loaded.solver_iterations == tree.solver_iterations
        assert len(loaded.nodes) == len(tree.nodes)
        for a, b in zip(tree.nodes, loaded.nodes):
            assert a.node_id == b.node_id
            assert a.level == b.level
            assert a.children == b.children
            assert a.divisible == b.divisible
            assert a.dim == b.dim
            assert np.array_equal(a.indices, b.indices)
            assert a.basis.tobytes() == b.basis.tobytes()

    def test_summary_lines(self):
        fm, _ = shared_direction_data(50, 4, 8, seed=2)
        tree = hcs_lrr(fm, hier_solver_config(), HierarchyConfig(max_level=2), seed=1)
        text = tree_summary(tree)
        lines = text.strip().splitlines()
        assert len(lines) == len(tree.nodes) + 1
        assert "node=0" in lines[1]
        assert "children=" in lines[1]

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(DataError):
            read_tree(p)


class TestHierarchyConfig:
    @pytest.mark.parametrize("max_level", [0, -3])
    def test_depth_below_one_rejected_naming_the_config_key(self, max_level):
        with pytest.raises(ConfigError, match=f"^levels must be >= 1, got {max_level}$"):
            HierarchyConfig(max_level=max_level)

    @pytest.mark.parametrize("split_gain", [np.nan, np.inf])
    def test_non_finite_split_gain_rejected(self, split_gain):
        with pytest.raises(ConfigError):
            HierarchyConfig(max_level=2, split_gain=split_gain)
