import inspect
from dataclasses import replace

import numpy as np
import pytest

from uoslearn.bundles import load_model_bundle, save_model_bundle
from uoslearn import sequences, svm
from uoslearn.errors import ConfigError
from uoslearn.sequences import assign_to_leaves, dtw_distance_matrix, gaussian_kernel
from uoslearn.svm import (
    MODE_ONE_VS_ALL,
    MODE_ONE_VS_ONE,
    BinarySvmModel,
    MulticlassSvmModel,
    open_set_svm,
    svm_predict_multiclass,
    svm_train_binary,
    svm_train_multiclass,
)
from uoslearn.synth import SequenceSynthConfig, generate_synthetic_sequences, split_by_class


def rbf_kernel(points, nu=1.0):
    sq = ((points[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    return np.exp(-sq / nu**2)


def decision_on_train(model, kernel):
    return model.decision(kernel)


def kkt_violation(model, kernel, c, tol=1e-3):
    f = decision_on_train(model, kernel)
    margins = model.y * f
    worst = 0.0
    for i in range(len(model.y)):
        a = model.alpha[i]
        if a < 1e-8:
            worst = max(worst, 1.0 - margins[i])
        elif a > c - 1e-8:
            worst = max(worst, margins[i] - 1.0)
        else:
            worst = max(worst, abs(margins[i] - 1.0))
    return worst


class TestBinarySvm:
    def test_two_point_separation(self):
        k = np.eye(2)
        y = np.array([1.0, -1.0])
        model = svm_train_binary(k, y, c=100.0)
        f = model.decision(k)
        assert f[0] > 0 > f[1]

    def test_separable_blocks_perfect_training_accuracy(self, rng):
        pts = np.vstack(
            [rng.normal(0, 0.3, (12, 2)), rng.normal(4, 0.3, (12, 2))]
        )
        y = np.concatenate([np.ones(12), -np.ones(12)])
        k = rbf_kernel(pts, nu=2.0)
        model = svm_train_binary(k, y, c=10.0)
        assert np.all(np.sign(model.decision(k)) == y)

    def test_kkt_satisfied(self, rng):
        pts = np.vstack([rng.normal(0, 0.6, (15, 3)), rng.normal(2.5, 0.6, (15, 3))])
        y = np.concatenate([np.ones(15), -np.ones(15)])
        k = rbf_kernel(pts, nu=2.0)
        model = svm_train_binary(k, y, c=10.0, tol=1e-3)
        assert kkt_violation(model, k, c=10.0) <= 1e-3 + 1e-9

    def test_duplication_invariance(self, rng):
        pts = np.vstack([rng.normal(0, 0.5, (10, 2)), rng.normal(3, 0.5, (10, 2))])
        y = np.concatenate([np.ones(10), -np.ones(10)])
        probes = rng.normal(1.5, 1.5, (8, 2))

        def decide(train_pts, train_y):
            all_pts = np.vstack([train_pts, probes])
            k_full = rbf_kernel(all_pts, nu=2.0)
            n = len(train_pts)
            # tight tolerance: the comparison probes optimizer accuracy
            model = svm_train_binary(k_full[:n, :n], train_y, c=10.0, tol=1e-7)
            return model.decision(k_full[:n, n:])

        base = decide(pts, y)
        doubled = decide(np.vstack([pts, pts]), np.concatenate([y, y]))
        assert np.abs(base - doubled).max() < 1e-6

    def test_dual_variables_in_box(self, rng):
        pts = rng.standard_normal((20, 2))
        y = np.sign(pts[:, 0] + 0.1 * rng.standard_normal(20))
        y[y == 0] = 1
        c = 5.0
        model = svm_train_binary(rbf_kernel(pts), y, c=c)
        assert model.alpha.min() >= -1e-12
        assert model.alpha.max() <= c + 1e-12

    def test_indefinite_kernel_tolerated(self, rng):
        a = rng.standard_normal((10, 10))
        k = (a + a.T) / 2  # indefinite on purpose
        y = np.concatenate([np.ones(5), -np.ones(5)])
        model = svm_train_binary(k, y, c=1.0, max_passes=50)
        assert np.all(np.isfinite(model.alpha))
        assert np.isfinite(model.bias)

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            svm_train_binary(np.eye(3), np.ones(3), c=1.0)

    def test_pass_budget_exhaustion_reported(self, rng):
        pts = np.vstack([rng.normal(0, 0.6, (15, 3)), rng.normal(2.5, 0.6, (15, 3))])
        y = np.concatenate([np.ones(15), -np.ones(15)])
        k = rbf_kernel(pts, nu=2.0)
        done = svm_train_binary(k, y, c=10.0)
        assert done.converged and done.passes >= 2
        cut = svm_train_binary(k, y, c=10.0, max_passes=1)
        assert not cut.converged and cut.passes == 1
        # One pass short skips only the final examine-all pass, which changed nothing.
        short = svm_train_binary(k, y, c=10.0, max_passes=done.passes - 1)
        assert not short.converged
        assert np.array_equal(short.alpha, done.alpha) and short.bias == done.bias

    @pytest.mark.parametrize(
        "c, tol",
        [(np.nan, 1e-3), (np.inf, 1e-3), (0.0, 1e-3)]
        + [(10.0, tol) for tol in (-1.0, 0.0, np.nan, np.inf)],
    )
    def test_c_and_tol_must_be_positive_and_finite(self, c, tol):
        k = rbf_kernel(np.array([[0.0], [1.0], [3.0], [4.0]]))
        with pytest.raises(ConfigError, match="must be positive and finite"):
            svm_train_binary(k, [1, 1, -1, -1], c=c, tol=tol)

    @pytest.mark.parametrize("fn", [svm.check_svm_params, svm_train_binary, svm_train_multiclass])
    def test_tol_default_is_default_tol(self, fn):
        # Equal float literals in one module compile to one constant, so only
        # the source tells a written-out 1e-3 from the shared DEFAULT_TOL.
        assert inspect.signature(fn).parameters["tol"].default == svm.DEFAULT_TOL
        assert "tol: float = DEFAULT_TOL" in inspect.getsource(fn)

    def test_deterministic(self, rng):
        pts = rng.standard_normal((16, 2))
        y = np.sign(pts[:, 1])
        y[y == 0] = 1
        k = rbf_kernel(pts)
        m1 = svm_train_binary(k, y)
        m2 = svm_train_binary(k, y)
        assert np.array_equal(m1.alpha, m2.alpha)
        assert m1.bias == m2.bias


def sequence_classification_setup(seed=0, classes=3, per_class=8, jitter=0.02, assign=True):
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
    if assign:
        for s in samples:
            s.assignment = assign_to_leaves(s, leaves)
    train, test = split_by_class(samples, per_class - 2)
    return train, test, leaves


class TestMulticlassSvm:
    @pytest.mark.parametrize("mode", [MODE_ONE_VS_ONE, MODE_ONE_VS_ALL])
    def test_predicts_training_labels(self, mode):
        train, _, leaves = sequence_classification_setup()
        model = svm_train_multiclass(train, leaves, mode=mode)
        preds = [svm_predict_multiclass(model, s.assignment) for s in train]
        acc = np.mean([p == s.label for p, s in zip(preds, train)])
        assert acc >= 0.9

    @pytest.mark.parametrize("mode", [MODE_ONE_VS_ONE, MODE_ONE_VS_ALL])
    def test_generalizes(self, mode):
        train, test, leaves = sequence_classification_setup(seed=9)
        model = svm_train_multiclass(train, leaves, mode=mode)
        preds = [svm_predict_multiclass(model, s.assignment) for s in test]
        acc = np.mean([p == s.label for p, s in zip(preds, test)])
        assert acc >= 0.8

    def test_two_class_modes_agree(self):
        train, test, leaves = sequence_classification_setup(seed=3, classes=2)
        ovo = svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ONE)
        ova = svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ALL)
        for s in test:
            assert svm_predict_multiclass(ovo, s.assignment) == svm_predict_multiclass(
                ova, s.assignment
            )

    def test_bad_c_rejected_before_any_warp(self, monkeypatch):
        train, _, leaves = sequence_classification_setup()
        monkeypatch.setattr(sequences, "dtw_grassmann", None)  # any warp would raise TypeError
        with pytest.raises(ConfigError, match="c must be positive and finite"):
            svm_train_multiclass(train, leaves, c=-1.0)

    @pytest.mark.parametrize("nu", [-1.0, 0.0, np.nan, 1e-200])
    def test_bad_nu_rejected_before_any_warp(self, monkeypatch, nu):
        train, _, leaves = sequence_classification_setup()
        warps = []
        monkeypatch.setattr(sequences, "dtw_grassmann", lambda *a: warps.append(a))
        with pytest.raises(ConfigError, match="nu must be positive, with a nonzero square"):
            svm_train_multiclass(train, leaves, nu=nu)
        assert warps == []

    def test_needs_two_classes(self):
        train, _, leaves = sequence_classification_setup()
        one_class = [s for s in train if s.label == train[0].label]
        with pytest.raises(ConfigError, match="need at least two classes"):
            svm_train_multiclass(one_class, leaves)

    @pytest.mark.parametrize(
        "settings, unlabelled, match",
        [
            ({"mode": "both"}, False, "unknown mode"),
            ({"mode": MODE_ONE_VS_ONE, "open_set": True}, False, "requires a one-vs-all model"),
            ({"c": 0.0}, False, "c must be positive"),
            ({"tol": np.nan}, False, "tol must be positive"),
            ({"nu": -1.0}, False, "nu must be positive"),
            ({}, True, "training sequences need labels"),
        ],
        ids=["unknown-mode", "open-ovo", "c-zero", "tol-nan", "nu-negative", "unlabelled"],
    )
    def test_rejected_before_any_assignment(self, monkeypatch, settings, unlabelled, match):
        # Fresh samples: training assigns them, so a rejection must come first.
        train, _, leaves = sequence_classification_setup(assign=False)
        if unlabelled:
            train[-1].label = None
        monkeypatch.setattr(sequences, "assign_to_leaves", None)  # an assignment raises TypeError
        with pytest.raises(ConfigError, match=match):
            svm_train_multiclass(train, leaves, **settings)
        assert all(s.assignment is None for s in train)


def full_column_scores(model, psi, leaves):
    """Decision values from the kernel column over every training row."""
    d = dtw_distance_matrix(model.train_assignments, [np.asarray(psi, int)], leaves)
    kcol = gaussian_kernel(d[:, 0], model.nu)
    return {
        key: float(binary.decision(kcol[idx][:, None])[0])
        for key, (binary, idx) in model.models.items()
    }


class TestDecisionScoresExact:
    """Warping only against support rows leaves every decision value bit-identical."""

    @pytest.mark.parametrize("mode", [MODE_ONE_VS_ONE, MODE_ONE_VS_ALL])
    def test_matches_full_column(self, mode, tmp_path):
        train, test, leaves = sequence_classification_setup(seed=5, classes=4)
        model = svm_train_multiclass(train, leaves, mode=mode, open_set=mode == MODE_ONE_VS_ALL)
        path = tmp_path / "svm.uosm"
        save_model_bundle(path, model)
        loaded = load_model_bundle(path)
        for m in (model, loaded):
            assert 0 < len(m.support) < len(m.train_assignments)
            for s in test + train[:4]:
                assert m.decision_scores(s.assignment) == full_column_scores(
                    m, s.assignment, m.leaves
                )

    def test_all_zero_alpha(self):
        train, test, leaves = sequence_classification_setup(seed=5)
        labels = np.array([s.label for s in train])
        idx = np.arange(len(train))
        models = {
            ci: (BinarySvmModel(np.zeros(len(train)), np.where(labels == ci, 1.0, -1.0), b), idx)
            for ci, b in ((0, -0.25), (1, 0.5), (2, 0.0))
        }
        model = MulticlassSvmModel(
            MODE_ONE_VS_ALL, [0, 1, 2], leaves, [s.assignment for s in train], labels, 0.5, 10.0,
            models,
        )
        assert len(model.support) == 0
        for s in test:
            scores = model.decision_scores(s.assignment)
            assert scores == full_column_scores(model, s.assignment, leaves)
            assert scores == {0: -0.25, 1: 0.5, 2: 0.0}


class TestOpenSetSvm:
    def test_known_class_accepted_unknown_rejected(self):
        train, test, leaves = sequence_classification_setup(seed=11, classes=4)
        held_out = 3
        kept_train = [s for s in train if s.label != held_out]
        model = svm_train_multiclass(kept_train, leaves, mode=MODE_ONE_VS_ALL)
        known = [s for s in test if s.label != held_out]
        unknown = [s for s in test if s.label == held_out]
        known_preds = [open_set_svm(model, s.assignment) for s in known]
        unknown_preds = [open_set_svm(model, s.assignment) for s in unknown]
        known_acc = np.mean([p == s.label for p, s in zip(known_preds, known)])
        rejected = np.mean([p is None for p in unknown_preds])
        assert known_acc >= 0.7
        assert rejected >= 0.5

    def test_requires_one_vs_all(self):
        train, _, leaves = sequence_classification_setup(seed=2)
        model = svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ONE)
        with pytest.raises(ConfigError):
            open_set_svm(model, train[0].assignment)

    def test_open_set_one_vs_one_model_rejected(self, monkeypatch):
        train, _, leaves = sequence_classification_setup(seed=2)
        model = svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ONE)
        with pytest.raises(ConfigError, match="requires a one-vs-all model"):
            replace(model, open_set=True)
        kernels = []
        monkeypatch.setattr(svm, "dtw_distance_matrix", lambda *args: kernels.append(args))
        with pytest.raises(ConfigError, match="requires a one-vs-all model"):
            svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ONE, open_set=True)
        assert kernels == []  # rejected before the kernel

    def test_all_negative_scores_give_new(self, rng):
        # kernels bounded by 1 with a large negative bias force rejection
        train, _, leaves = sequence_classification_setup(seed=2)
        model = svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ALL)
        for key in model.models:
            binary, idx = model.models[key]
            binary.bias -= 1e6
        assert open_set_svm(model, train[0].assignment) is None

    def test_score_exactly_zero_is_new(self):
        # zeroed dual variables and bias make every decision value exactly 0;
        # the acceptance rule is strict, so the maximum score 0 rejects
        train, _, leaves = sequence_classification_setup(seed=2)
        model = svm_train_multiclass(train, leaves, mode=MODE_ONE_VS_ALL)
        for key in model.models:
            binary, _ = model.models[key]
            binary.alpha[:] = 0.0
            binary.bias = 0.0
        assert open_set_svm(model, train[0].assignment) is None
