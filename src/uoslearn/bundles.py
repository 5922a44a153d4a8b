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
    assigned,
    check_class_sizes,
    class_distance_ceilings,
    class_distances,
)
from .svm import BinarySvmModel, MulticlassSvmModel, open_set_svm, svm_predict_multiclass

BUNDLE_MAGIC = b"UOSM"
BUNDLE_VERSION = 1

KIND_KNN = 1
KIND_KNN_OPEN = 2
KIND_SVM_OVO = 3
KIND_SVM_OVA = 4
KIND_SVM_OPEN = 5

# Bundle kind -> (SVM mode, or None for k-NN; open-set flag).
KINDS = {
    KIND_KNN: (None, False),
    KIND_KNN_OPEN: (None, True),
    KIND_SVM_OVO: ("one_vs_one", False),
    KIND_SVM_OVA: ("one_vs_all", False),
    KIND_SVM_OPEN: ("one_vs_all", True),
}


@dataclass
class KnnModel:
    """Nearest-neighbor classifier: the class whose k nearest training sequences are
    closest on average, ties to the lowest id; open-set, None when that average
    exceeds varsigma times the class ceiling (fitted on the first prediction)."""

    train: list[SequenceSample]
    leaves: LeafSet
    k: int = 3
    open_set: bool = False
    varsigma: float = 1.2
    ceilings: dict[int, float] | None = None

    def __post_init__(self):
        # Checked before fit_ceilings or predict warps any sequence pair; only
        # fitting the ceilings leaves a class member out.
        check_class_sizes(self.train, self.k, leave_one_out=self.open_set and self.ceilings is None)
        if not self.train:
            raise ConfigError("k-NN needs at least one training sequence")
        if self.open_set and not self.varsigma > 1:
            raise ConfigError("open-set varsigma must be > 1")
        if self.open_set and self.ceilings is not None:
            missing = [str(cid) for cid in self.classes if cid not in self.ceilings]
            if missing:
                raise ConfigError(f"no ceiling for training class(es) {', '.join(missing)}")

    @property
    def classes(self) -> list[int]:
        return sorted({int(s.label) for s in self.train})

    def fit_ceilings(self) -> None:
        if self.open_set and self.ceilings is None:
            self.ceilings = class_distance_ceilings(self.train, self.leaves, self.k)

    def predict(self, test: SequenceSample) -> int | None:
        self.fit_ceilings()
        scores = class_distances(test, self.train, self.leaves, self.k)
        best = min(scores, key=lambda cid: (scores[cid], cid))
        if self.open_set and not scores[best] <= self.ceilings[best] * self.varsigma:
            return None
        return best


def bundle_kind(model) -> int:
    """The bundle kind that stores `model`; ConfigError for a model no kind stores."""
    if not isinstance(model, (KnnModel, MulticlassSvmModel)):
        raise ConfigError(f"cannot bundle model of type {type(model).__name__}")
    key = (getattr(model, "mode", None), model.open_set)
    return next(kind for kind, stored in KINDS.items() if stored == key)


def predict(model, sample: SequenceSample):
    """Class id of `sample`, or None when an open-set model rejects it."""
    if isinstance(model, KnnModel):
        return model.predict(sample)
    psi = assigned(sample, model.leaves)
    return open_set_svm(model, psi) if model.open_set else svm_predict_multiclass(model, psi)


def save_model_bundle(path, model) -> None:
    """Write `model` with its leaf bases; the kind follows from the model."""
    writer = Writer(BUNDLE_MAGIC, BUNDLE_VERSION)
    writer.fields("B", bundle_kind(model))
    writer.matrices(model.leaves.bases)
    if isinstance(model, KnnModel):
        writer.fields("Id", model.k, model.varsigma)
        ceilings = model.ceilings or {}
        writer.fields("I", len(ceilings))
        for cid in sorted(ceilings):
            writer.fields("id", cid, ceilings[cid])
        writer.fields("I", len(model.train))
        for s in model.train:
            if s.label is None:
                raise ConfigError("training sequences need labels")
            writer.fields("i", s.label)
            writer.matrix(s.features)
            writer.indices(assigned(s, model.leaves))
    else:
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
    writer.save(path)


def _check(ok, message: str) -> None:
    if not ok:
        raise DataError(message)


def load_model_bundle(path):
    """Load a bundle's model, which holds the bundle's leaf set.

    Beyond the codec's checks, assignments must index the stored leaves,
    k-NN frames must match their dimension, and the SVM binary models must
    be exactly one per class pair (one-vs-one) or per class (one-vs-all).
    Scalars are range-checked as listed in the README's "File formats".
    Each failure, the model's own checks included, is a DataError naming
    the file (see `codec.Reader`).
    """
    with Reader(path, BUNDLE_MAGIC, BUNDLE_VERSION, "model bundle") as reader:
        (kind,) = reader.fields("B")
        _check(kind in KINDS, f"unknown bundle kind {kind}")
        mode, open_set = KINDS[kind]
        leaves = LeafSet(reader.matrices())
        if mode is None:
            k, varsigma, n_ceil = reader.fields("IdI")
            ceilings = dict(reader.fields("id") for _ in range(n_ceil))
            _check(math.isfinite(varsigma), "varsigma must be finite")
            _check(all(map(math.isfinite, ceilings.values())), "ceilings must be finite")
            (n_train,) = reader.fields("I")
            train = []
            for _ in range(n_train):
                (label,) = reader.fields("i")
                feats = reader.matrix()
                _check(len(feats) == leaves.ambient_dim, "training frames do not match the leaves")
                psi = reader.indices(len(leaves))
                train.append(SequenceSample(feats, label, psi, leaves))
            labels = [s.label for s in train]
            _check(not ceilings or set(ceilings) == set(labels),
                   "ceilings do not match the training classes")
            model = KnnModel(train, leaves, k, open_set, varsigma, ceilings or None)
        else:
            nu, c, n_train = reader.fields("ddI")
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
                _check((ca, cb) in keys, f"binary model ({ca}, {cb}) does not fit the bundle")
                idx = reader.indices(n_train)
                alpha = reader.array("<f8", len(idx))
                y = reader.array("<f8", len(idx))
                _check(np.isfinite([bias, *alpha]).all(), "bias and alpha must be finite")
                _check((np.abs(y) == 1).all(), "signs y must be +/-1")
                models[keys[ca, cb]] = (BinarySvmModel(alpha=alpha, y=y, bias=bias), idx)
            _check(len(models) == len(keys), "bundle lacks binary models")
            model = MulticlassSvmModel(
                mode=mode,
                classes=classes,
                leaves=leaves,
                train_assignments=assignments,
                labels=np.asarray(labels, dtype=int),
                nu=nu,
                c=c,
                models=models,
                open_set=open_set,
            )
        _check(labels, "bundle holds no training sequences")
        reader.done()
    return model
