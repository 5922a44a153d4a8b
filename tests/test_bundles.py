import numpy as np
import pytest

from uoslearn.bundles import (
    KIND_KNN,
    KIND_KNN_OPEN,
    KIND_SVM_OPEN,
    KIND_SVM_OVO,
    KnnModel,
    load_model_bundle,
    predict_with_bundle,
    save_model_bundle,
)
from uoslearn.errors import DataError
from uoslearn.sequences import assign_to_leaves
from uoslearn.svm import MODE_ONE_VS_ALL, MODE_ONE_VS_ONE, svm_train_multiclass
from uoslearn.synth import SequenceSynthConfig, generate_synthetic_sequences, split_by_class


def setup_data(seed=0):
    cfg = SequenceSynthConfig(
        m=18,
        leaves=4,
        leaf_dim=2,
        classes=3,
        sequences_per_class=7,
        jitter=0.02,
        seed=seed,
    )
    samples, leaves = generate_synthetic_sequences(cfg)
    for s in samples:
        s.assignment = assign_to_leaves(s, leaves)
    return split_by_class(samples, 5) + (leaves,)


class TestKnnBundle:
    def test_round_trip_and_predictions_match(self, tmp_path):
        train, test, leaves = setup_data()
        model = KnnModel(train=train, k=2)
        path = tmp_path / "knn.uosm"
        save_model_bundle(path, leaves, model)
        loaded_leaves, loaded, kind = load_model_bundle(path)
        assert kind == KIND_KNN
        for a, b in zip(leaves.bases, loaded_leaves.bases):
            assert a.tobytes() == b.tobytes()
        for probe in test[:4]:
            assert predict_with_bundle(loaded, kind, probe, loaded_leaves) == model.predict(
                probe, leaves
            )

    def test_open_knn_round_trip(self, tmp_path):
        train, test, leaves = setup_data(seed=2)
        model = KnnModel(train=train, k=2, open_set=True, varsigma=1.3)
        model.fit_ceilings(leaves)
        path = tmp_path / "knn-open.uosm"
        save_model_bundle(path, leaves, model)
        _, loaded, kind = load_model_bundle(path)
        assert kind == KIND_KNN_OPEN
        assert loaded.varsigma == 1.3
        assert loaded.ceilings == model.ceilings


class TestSvmBundle:
    def test_ovo_round_trip(self, tmp_path):
        train, test, leaves = setup_data(seed=5)
        model = svm_train_multiclass(
            [s.assignment for s in train],
            [s.label for s in train],
            leaves,
            mode=MODE_ONE_VS_ONE,
        )
        path = tmp_path / "svm.uosm"
        save_model_bundle(path, leaves, model)
        loaded_leaves, loaded, kind = load_model_bundle(path)
        assert kind == KIND_SVM_OVO
        assert loaded.nu == model.nu
        assert sorted(loaded.models) == sorted(model.models)
        for key in model.models:
            ma, ia = model.models[key]
            mb, ib = loaded.models[key]
            assert np.array_equal(ma.alpha, mb.alpha)
            assert ma.bias == mb.bias
            assert np.array_equal(ia, ib)
        for probe in test[:5]:
            assert predict_with_bundle(
                loaded, kind, probe, loaded_leaves
            ) == predict_with_bundle(model, kind, probe, leaves)

    def test_open_ova_round_trip(self, tmp_path):
        train, test, leaves = setup_data(seed=7)
        model = svm_train_multiclass(
            [s.assignment for s in train],
            [s.label for s in train],
            leaves,
            mode=MODE_ONE_VS_ALL,
        )
        path = tmp_path / "svm-open.uosm"
        save_model_bundle(path, leaves, model, open_set=True)
        _, loaded, kind = load_model_bundle(path)
        assert kind == KIND_SVM_OPEN
        preds = [predict_with_bundle(loaded, kind, s, leaves) for s in test[:5]]
        assert all(p is None or isinstance(p, int) for p in preds)

    @pytest.mark.parametrize(
        "mode, tamper, match",
        [
            (MODE_ONE_VS_ONE, lambda m: m.models.update({(2, 0): m.models.pop((0, 2))}), "fit"),
            (MODE_ONE_VS_ALL, lambda m: m.models.update({9: m.models.pop(1)}), "fit"),
            (MODE_ONE_VS_ALL, lambda m: m.models.pop(2), "lacks"),
            (MODE_ONE_VS_ONE, lambda m: m.models[(0, 1)][1].__setitem__(0, 99), "range"),
        ],
        ids=["ovo-reversed-pair", "ova-unknown-class", "ova-missing-class", "index-range"],
    )
    def test_models_must_fit_the_stored_classes(self, tmp_path, mode, tamper, match):
        train, _, leaves = setup_data(seed=5)
        model = svm_train_multiclass(
            [s.assignment for s in train], [s.label for s in train], leaves, mode=mode
        )
        tamper(model)
        path = tmp_path / "svm.uosm"
        save_model_bundle(path, leaves, model)
        with pytest.raises(DataError, match=match):
            load_model_bundle(path)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.uosm"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(DataError):
            load_model_bundle(p)
