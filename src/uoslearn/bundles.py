"""Trained-model bundles: leaf bases plus classifier parameters in one file.

Binary format, little-endian, versioned header (magic "UOSM", u32
version, u8 kind). Kinds: 1 nearest-neighbor, 2 open-set
nearest-neighbor, 3 one-vs-one SVM, 4 one-vs-all SVM, 5 open-set
one-vs-all SVM. Round-trips are lossless.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import Reader, Writer
from .errors import ConfigError, DataError
from .sequences import (
    LeafSet,
    SequenceSample,
    check_class_sizes,
    class_distance_ceilings,
    knn_classify,
    open_set_knn,
)
from .svm import BinarySvmModel, MulticlassSvmModel, open_set_svm, svm_predict_multiclass

BUNDLE_MAGIC = b"UOSM"
BUNDLE_VERSION = 1

KIND_KNN = 1
KIND_KNN_OPEN = 2
KIND_SVM_OVO = 3
KIND_SVM_OVA = 4
KIND_SVM_OPEN = 5

_SVM_KINDS = {
    KIND_SVM_OVO: "one_vs_one",
    KIND_SVM_OVA: "one_vs_all",
    KIND_SVM_OPEN: "one_vs_all",
}


@dataclass
class KnnModel:
    """Nearest-neighbor classifier state: labeled training sequences and k."""

    train: list[SequenceSample]
    k: int
    open_set: bool = False
    varsigma: float = 1.2
    ceilings: dict[int, float] | None = None

    def __post_init__(self):
        # Checked before fit_ceilings or predict warps any sequence pair; only
        # fitting the ceilings leaves a class member out.
        check_class_sizes(self.train, self.k, leave_one_out=self.open_set and self.ceilings is None)
        if self.open_set and not self.varsigma > 1:
            raise ConfigError("varsigma must be > 1")

    def fit_ceilings(self, leaves: LeafSet) -> None:
        if self.open_set and self.ceilings is None:
            self.ceilings = class_distance_ceilings(self.train, leaves, self.k)

    def predict(self, test: SequenceSample, leaves: LeafSet):
        if self.open_set:
            self.fit_ceilings(leaves)
            return open_set_knn(test, self.train, leaves, self.k, self.varsigma, self.ceilings)
        return knn_classify(test, self.train, leaves, self.k)


def save_model_bundle(path, leaves: LeafSet, model, open_set: bool = False) -> None:
    """Write a bundle; `open_set` marks a one-vs-all SVM for open-set prediction."""
    writer = Writer(BUNDLE_MAGIC, BUNDLE_VERSION)
    if isinstance(model, KnnModel):
        writer.fields("B", KIND_KNN_OPEN if model.open_set else KIND_KNN)
        writer.matrices(leaves.bases)
        writer.fields("Id", model.k, model.varsigma)
        ceilings = model.ceilings or {}
        writer.fields("I", len(ceilings))
        for cid in sorted(ceilings):
            writer.fields("id", cid, ceilings[cid])
        writer.fields("I", len(model.train))
        for s in model.train:
            if s.label is None or s.assignment is None:
                raise ConfigError("training sequences need labels and assignments")
            writer.fields("i", s.label)
            writer.matrix(s.features)
            writer.indices(s.assignment)
    elif isinstance(model, MulticlassSvmModel):
        if model.mode == "one_vs_one":
            kind = KIND_SVM_OVO
        else:
            kind = KIND_SVM_OPEN if open_set else KIND_SVM_OVA
        writer.fields("B", kind)
        writer.matrices(leaves.bases)
        writer.fields("ddI", model.nu, model.c, len(model.train_assignments))
        for label, psi in zip(model.labels, model.train_assignments):
            writer.fields("i", int(label))
            writer.indices(psi)
        writer.fields("I", len(model.models))
        for key in sorted(model.models):
            binary, idx = model.models[key]
            ca, cb = key if isinstance(key, tuple) else (key, -1)
            writer.fields("iid", ca, cb, binary.bias)
            writer.indices(idx)
            writer.array(binary.alpha, "<f8")
            writer.array(binary.y, "<f8")
    else:
        raise ConfigError(f"cannot bundle model of type {type(model).__name__}")
    writer.save(path)


def _check(path, ok, message: str) -> None:
    if not ok:
        raise DataError(f"{path}: {message}")


def load_model_bundle(path):
    """Load a bundle; returns (leaves, model, kind).

    Beyond the codec's checks, assignments must index the stored leaves,
    k-NN frames must match their dimension, and the SVM binary models must
    be exactly one per class pair (one-vs-one) or per class (one-vs-all).
    Scalars are range-checked as listed in the README's "File formats".
    """
    with Reader(path, BUNDLE_MAGIC, BUNDLE_VERSION, "model bundle") as reader:
        (kind,) = reader.fields("B")
        if kind not in (KIND_KNN, KIND_KNN_OPEN, *_SVM_KINDS):
            raise DataError(f"{path}: unknown bundle kind {kind}")
        leaves = LeafSet(reader.matrices())
        if kind in (KIND_KNN, KIND_KNN_OPEN):
            k, varsigma, n_ceil = reader.fields("IdI")
            ceilings = dict(reader.fields("id") for _ in range(n_ceil))
            _check(path, k >= 1, "k must be >= 1")
            _check(path, math.isfinite(varsigma), "varsigma must be finite")
            _check(path, kind == KIND_KNN or varsigma > 1, "open-set varsigma must be > 1")
            _check(path, all(map(math.isfinite, ceilings.values())), "ceilings must be finite")
            (n_train,) = reader.fields("I")
            train = []
            for _ in range(n_train):
                (label,) = reader.fields("i")
                feats = reader.matrix()
                if feats.shape[0] != leaves.ambient_dim:
                    raise DataError(f"{path}: training frames do not match the leaves")
                psi = reader.indices(len(leaves))
                train.append(SequenceSample(features=feats, label=label, assignment=psi))
            labels = [s.label for s in train]
            if ceilings and set(ceilings) != set(labels):
                raise DataError(f"{path}: ceilings do not match the training classes")
            model = KnnModel(
                train=train,
                k=k,
                open_set=(kind == KIND_KNN_OPEN),
                varsigma=varsigma,
                ceilings=ceilings or None,
            )
        else:
            nu, c, n_train = reader.fields("ddI")
            _check(path, 0 < nu < math.inf, "nu must be positive and finite")
            _check(path, 0 < c < math.inf, "c must be positive and finite")
            labels = []
            assignments = []
            for _ in range(n_train):
                labels.append(reader.fields("i")[0])
                assignments.append(reader.indices(len(leaves)))
            classes = sorted(set(labels))
            # Stored (ca, cb) pair -> model key; one-vs-all stores cb = -1.
            if kind == KIND_SVM_OVO:
                keys = {pair: pair for pair in itertools.combinations(classes, 2)}
            else:
                keys = {(ci, -1): ci for ci in classes}
            (n_models,) = reader.fields("I")
            models = {}
            for _ in range(n_models):
                ca, cb, bias = reader.fields("iid")
                if (ca, cb) not in keys:
                    raise DataError(f"{path}: binary model ({ca}, {cb}) does not fit the bundle")
                idx = reader.indices(n_train)
                alpha = reader.array("<f8", len(idx))
                y = reader.array("<f8", len(idx))
                _check(path, np.isfinite([bias, *alpha]).all(), "bias and alpha must be finite")
                _check(path, (np.abs(y) == 1).all(), "signs y must be +/-1")
                models[keys[ca, cb]] = (BinarySvmModel(alpha=alpha, y=y, bias=bias), idx)
            if len(models) != len(keys):
                raise DataError(f"{path}: bundle lacks binary models")
            model = MulticlassSvmModel(
                mode=_SVM_KINDS[kind],
                classes=classes,
                train_assignments=assignments,
                labels=np.asarray(labels, dtype=int),
                nu=nu,
                c=c,
                models=models,
            )
        reader.done()
    if not labels:
        raise DataError(f"{path}: bundle holds no training sequences")
    return leaves, model, kind


def predict_with_bundle(model, kind: int, test: SequenceSample, leaves: LeafSet):
    """Dispatch prediction for a loaded bundle; returns a class id or None."""
    if kind in (KIND_KNN, KIND_KNN_OPEN):
        return model.predict(test, leaves)
    from .sequences import assign_to_leaves

    psi = assign_to_leaves(test, leaves)
    if kind == KIND_SVM_OPEN:
        return open_set_svm(model, psi, leaves)
    return svm_predict_multiclass(model, psi, leaves)
