import numpy as np
import pytest

from conftest import relative_error
from uoslearn.errors import ConfigError
from uoslearn.sequences import assign_to_leaves
from uoslearn.synth import (
    SequenceSynthConfig,
    UosSynthConfig,
    generate_synthetic_sequences,
    generate_synthetic_uos,
    split_by_class,
    uos_bases,
)


class TestUosGenerator:
    def test_noiseless_points_lie_in_their_subspace(self):
        cfg = UosSynthConfig(m=20, subspaces=3, dim=2, points_per_subspace=15, seed=4)
        fm, labels = generate_synthetic_uos(cfg)
        bases = uos_bases(cfg, np.random.default_rng(cfg.seed))
        for j in range(fm.n_samples):
            err = relative_error(fm.data[:, j], bases[labels[j]])
            assert err < 1e-20

    def test_deterministic_per_seed(self):
        cfg = UosSynthConfig(m=12, subspaces=2, dim=3, points_per_subspace=5, seed=9)
        a, la = generate_synthetic_uos(cfg)
        b, lb = generate_synthetic_uos(cfg)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(la, lb)

    def test_cross_subspace_errors_bounded_away_from_zero(self):
        cfg = UosSynthConfig(m=30, subspaces=4, dim=3, points_per_subspace=10, seed=2)
        fm, labels = generate_synthetic_uos(cfg)
        bases = uos_bases(cfg, np.random.default_rng(cfg.seed))
        for j in range(fm.n_samples):
            for ell, basis in enumerate(bases):
                if ell != labels[j]:
                    assert relative_error(fm.data[:, j], basis) >= 0.01

    def test_unit_columns(self):
        cfg = UosSynthConfig(
            m=15, subspaces=2, dim=2, points_per_subspace=8, noise=0.3, seed=1
        )
        fm, _ = generate_synthetic_uos(cfg)
        assert np.allclose(np.linalg.norm(fm.data, axis=0), 1.0)

    def test_independent_mode_requires_room(self):
        with pytest.raises(ConfigError):
            UosSynthConfig(m=5, subspaces=3, dim=2, points_per_subspace=4)

    def test_disjoint_mode_allows_overcomplete(self):
        cfg = UosSynthConfig(
            m=5, subspaces=3, dim=2, points_per_subspace=4, geometry="disjoint", seed=0
        )
        fm, labels = generate_synthetic_uos(cfg)
        assert fm.n_samples == 12


class TestSequenceGenerator:
    def test_zero_jitter_disjoint_templates_classify_perfectly(self):
        cfg = SequenceSynthConfig(
            m=20,
            leaves=4,
            leaf_dim=2,
            classes=2,
            sequences_per_class=6,
            template_len=3,
            jitter=0.0,
            seed=3,
        )
        samples, leaves = generate_synthetic_sequences(cfg)
        from uoslearn.bundles import KnnModel

        for s in samples:
            s.assignment = assign_to_leaves(s, leaves)
        train, test = split_by_class(samples, 4)
        for s in test:
            assert KnnModel(train, leaves, k=2).predict(s) == s.label

    def test_single_class(self):
        cfg = SequenceSynthConfig(
            m=12, leaves=3, leaf_dim=2, classes=1, sequences_per_class=4, seed=0
        )
        samples, leaves = generate_synthetic_sequences(cfg)
        assert all(s.label == 0 for s in samples)

    def test_deterministic_per_seed(self):
        cfg = SequenceSynthConfig(
            m=12, leaves=3, leaf_dim=2, classes=2, sequences_per_class=3, seed=8
        )
        a, la = generate_synthetic_sequences(cfg)
        b, lb = generate_synthetic_sequences(cfg)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.features, sb.features)
            assert sa.label == sb.label
        for ba, bb in zip(la.bases, lb.bases):
            assert np.array_equal(ba, bb)

    def test_lengths_respect_bounds(self):
        cfg = SequenceSynthConfig(
            m=16,
            leaves=3,
            leaf_dim=2,
            classes=2,
            sequences_per_class=5,
            template_len=4,
            frames_min=2,
            frames_max=3,
            seed=5,
        )
        samples, _ = generate_synthetic_sequences(cfg)
        for s in samples:
            assert 8 <= s.length <= 12

    def test_leaf_capacity_validated(self):
        with pytest.raises(ConfigError):
            SequenceSynthConfig(
                m=5, leaves=3, leaf_dim=2, classes=2, sequences_per_class=3
            )


class TestSplitByClass:
    def test_split_counts(self):
        cfg = SequenceSynthConfig(
            m=12, leaves=3, leaf_dim=2, classes=3, sequences_per_class=5, seed=1
        )
        samples, _ = generate_synthetic_sequences(cfg)
        train, test = split_by_class(samples, 3)
        assert len(train) == 9
        assert len(test) == 6
        for c in range(3):
            assert sum(s.label == c for s in train) == 3
