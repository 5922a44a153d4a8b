"""Kernel SVM classifiers over precomputed (possibly indefinite) kernels.

The binary trainer is a sequential-minimal-optimization dual solver with
deterministic working-pair selection. Because warping-distance kernels are
not guaranteed positive semidefinite, pair steps with nonpositive
curvature fall back to evaluating the objective at the two box endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .linalg import as_matrix
from .sequences import (
    LeafSet,
    check_bandwidth,
    dtw_distance_matrix,
    gaussian_kernel,
    median_bandwidth,
)

_STEP_EPS = 1e-5
_BOUND_EPS = 1e-8
DEFAULT_C = 10.0  # box constraint (soft-margin weight) of every binary model
DEFAULT_TOL = 1e-3  # KKT tolerance of the SMO solver


@dataclass
class BinarySvmModel:
    """Dual variables and bias of a trained binary classifier.

    The decision function is f(x) = sum_i alpha_i y_i K(x_i, x) + bias.
    converged: a full pass found no KKT violation within the pass budget.
    passes: SMO passes run. Bundles store neither (loaded: True, 0).
    """

    alpha: np.ndarray
    y: np.ndarray
    bias: float
    converged: bool = True
    passes: int = 0

    def decision(self, k_cross: np.ndarray) -> np.ndarray:
        """Decision values for test columns of a train-by-test kernel block."""
        return (self.alpha * self.y) @ k_cross + self.bias


class _Smo:
    def __init__(self, k, y, c, tol):
        self.k = k
        self.y = y
        self.c = c
        self.tol = tol
        self.step_eps = min(_STEP_EPS, tol * 1e-2)
        n = len(y)
        self.alpha = np.zeros(n)
        self.b = 0.0
        self.errors = -y.astype(float)  # f = 0 initially, so E_i = -y_i

    def _non_bound(self):
        return np.flatnonzero(
            (self.alpha > _BOUND_EPS) & (self.alpha < self.c - _BOUND_EPS)
        )

    def take_step(self, i1, i2):
        if i1 == i2:
            return False
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        e1, e2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s < 0:
            lo = max(0.0, a2 - a1)
            hi = min(self.c, self.c + a2 - a1)
        else:
            lo = max(0.0, a1 + a2 - self.c)
            hi = min(self.c, a1 + a2)
        if hi - lo < 1e-12:
            return False
        k11 = self.k[i1, i1]
        k12 = self.k[i1, i2]
        k22 = self.k[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 1e-12:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, lo), hi)
        else:
            # Nonpositive curvature: compare the objective at the box ends.
            f1 = y1 * (e1 - self.b) - a1 * k11 - s * a2 * k12
            f2 = y2 * (e2 - self.b) - s * a1 * k12 - a2 * k22
            l1 = a1 + s * (a2 - lo)
            h1 = a1 + s * (a2 - hi)
            obj_lo = (
                l1 * f1 + lo * f2 + 0.5 * l1**2 * k11 + 0.5 * lo**2 * k22
                + s * lo * l1 * k12
            )
            obj_hi = (
                h1 * f1 + hi * f2 + 0.5 * h1**2 * k11 + 0.5 * hi**2 * k22
                + s * hi * h1 * k12
            )
            if obj_lo < obj_hi - self.step_eps:
                a2_new = lo
            elif obj_lo > obj_hi + self.step_eps:
                a2_new = hi
            else:
                a2_new = a2
        if abs(a2_new - a2) < self.step_eps * (a2_new + a2 + self.step_eps):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        a1_new = min(max(a1_new, 0.0), self.c)
        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        b1 = self.b - e1 - d1 * k11 - d2 * k12
        b2 = self.b - e2 - d1 * k12 - d2 * k22
        if _BOUND_EPS < a1_new < self.c - _BOUND_EPS:
            b_new = b1
        elif _BOUND_EPS < a2_new < self.c - _BOUND_EPS:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        self.errors += d1 * self.k[:, i1] + d2 * self.k[:, i2] + (b_new - self.b)
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.b = b_new
        return True

    def examine(self, i2):
        y2 = self.y[i2]
        a2 = self.alpha[i2]
        r2 = self.errors[i2] * y2
        if not ((r2 < -self.tol and a2 < self.c) or (r2 > self.tol and a2 > 0)):
            return 0
        non_bound = self._non_bound()
        tried = []
        if len(non_bound):
            gaps = np.abs(self.errors[non_bound] - self.errors[i2])
            best = non_bound[int(np.argmax(gaps))]
            tried.append(int(best))
            if self.take_step(int(best), i2):
                return 1
        for i1 in non_bound:
            if int(i1) in tried:
                continue
            if self.take_step(int(i1), i2):
                return 1
        for i1 in range(len(self.y)):
            if i1 in tried or i1 in non_bound:
                continue
            if self.take_step(i1, i2):
                return 1
        return 0


def check_svm_params(nu: float | None, c: float, tol: float = DEFAULT_TOL) -> None:
    """Reject an unusable c, tol or (given) bandwidth nu with a ConfigError."""
    # nan or inf c trains a useless model; tol <= 0 spins through the pass budget.
    if not 0 < c < np.inf:
        raise ConfigError("c must be positive and finite")
    if not 0 < tol < np.inf:
        raise ConfigError("tol must be positive and finite")
    if nu is not None:
        check_bandwidth(nu)


def svm_train_binary(
    k, y, c: float = DEFAULT_C, tol: float = DEFAULT_TOL, max_passes: int | None = None
) -> BinarySvmModel:
    """Train a binary kernel SVM on a precomputed kernel matrix.

    y holds +/-1 labels; both classes must be present. The solver sweeps
    violating examples until a full pass finds none (KKT satisfied within
    tol) or the pass budget (default 10 * n) is exhausted.
    """
    k = as_matrix(k, "kernel")
    if k.shape[0] != k.shape[1]:
        raise DimensionError(f"kernel must be square, got {k.shape}")
    y = np.asarray(y, dtype=float).ravel()
    if len(y) != k.shape[0]:
        raise DimensionError("label length must match the kernel size")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ConfigError("labels must be +/-1")
    if np.all(y == y[0]):
        raise ConfigError("training requires both classes")
    check_svm_params(None, c, tol)
    n = len(y)
    if max_passes is None:
        max_passes = 10 * n
    smo = _Smo(k, y, c, tol)
    examine_all = True
    converged = False
    passes = 0
    while passes < max_passes:
        changed = 0
        targets = range(n) if examine_all else smo._non_bound()
        for i2 in targets:
            changed += smo.examine(int(i2))
        passes += 1
        if examine_all:
            if changed == 0:
                converged = True
                break
            examine_all = False
        elif changed == 0:
            examine_all = True
    return BinarySvmModel(smo.alpha, y.copy(), float(smo.b), converged, passes)


MODE_ONE_VS_ONE = "one_vs_one"
MODE_ONE_VS_ALL = "one_vs_all"


def check_open_set_mode(mode: str, open_set: bool) -> None:
    """Open-set prediction needs a one-vs-all model; ConfigError otherwise."""
    if open_set and mode != MODE_ONE_VS_ALL:
        raise ConfigError("open-set prediction requires a one-vs-all model")


@dataclass
class MulticlassSvmModel:
    """One-vs-one or one-vs-all ensemble over warping-kernel sequences.

    `support` holds the training rows with a nonzero dual weight in some
    binary model, in ascending order, computed once here: prediction warps
    a test sequence against these rows only, so a model whose dual weights
    change must be built anew.
    """

    mode: str  # "one_vs_one" | "one_vs_all"
    classes: list[int]
    train_assignments: list[np.ndarray]
    labels: np.ndarray
    nu: float
    c: float
    # one_vs_one: keys (ci, cj) with ci < cj, values (model, train subset indices)
    # one_vs_all: keys ci, values (model, all indices)
    models: dict
    open_set: bool = False  # one-vs-all only: predict None when no score is positive
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_open_set_mode(self.mode, self.open_set)
        check_svm_params(self.nu, self.c)
        rows = [idx[model.alpha != 0] for model, idx in self.models.values()]
        self.support = np.unique(np.concatenate([np.empty(0, int), *rows]))

    def decision_scores(self, psi, leaves: LeafSet) -> dict:
        # A row outside `support` has alpha = +/-0 in every model, so its
        # term (alpha * y) * k is the same signed zero for k = 0 as for
        # any kernel value k >= 0: its entry stays 0 and is never warped.
        kcol = np.zeros(len(self.train_assignments))
        d = dtw_distance_matrix(
            [self.train_assignments[i] for i in self.support],
            [np.asarray(psi, int)],
            leaves,
        )
        kcol[self.support] = gaussian_kernel(d[:, 0], self.nu)
        return {
            key: float(model.decision(kcol[idx][:, None])[0])
            for key, (model, idx) in self.models.items()
        }


def svm_train_multiclass(
    train_assignments: list[np.ndarray],
    labels,
    leaves: LeafSet,
    mode: str = MODE_ONE_VS_ONE,
    nu: float | None = None,
    c: float = DEFAULT_C,
    tol: float = DEFAULT_TOL,
    open_set: bool = False,
) -> MulticlassSvmModel:
    """Train the pairwise or per-class binary models over the Gaussian warping kernel.

    nu defaults to the median off-diagonal warping distance of the
    training set; `open_set` is kept on the model (one-vs-all only).
    """
    if mode not in (MODE_ONE_VS_ONE, MODE_ONE_VS_ALL):
        raise ConfigError(f"unknown mode {mode!r}")
    # Before the kernel, whose warps dominate training.
    check_open_set_mode(mode, open_set)
    check_svm_params(nu, c, tol)
    labels = np.asarray(labels, dtype=int)
    if len(labels) != len(train_assignments):
        raise DimensionError("labels must match the number of sequences")
    classes = sorted(set(labels.tolist()))
    if len(classes) < 2:
        raise ConfigError("need at least two classes")
    assignments = [np.asarray(a, dtype=int) for a in train_assignments]
    distances = dtw_distance_matrix(assignments, None, leaves)
    if nu is None:
        nu = median_bandwidth(distances)
    kernel = gaussian_kernel(distances, nu)
    np.fill_diagonal(kernel, 1.0)
    models = {}
    if mode == MODE_ONE_VS_ONE:
        for a_pos, ci in enumerate(classes):
            for cj in classes[a_pos + 1 :]:
                idx = np.flatnonzero((labels == ci) | (labels == cj))
                y = np.where(labels[idx] == ci, 1.0, -1.0)
                sub = kernel[np.ix_(idx, idx)]
                models[(ci, cj)] = (svm_train_binary(sub, y, c, tol), idx)
    else:
        idx = np.arange(len(labels))
        for ci in classes:
            y = np.where(labels == ci, 1.0, -1.0)
            models[ci] = (svm_train_binary(kernel, y, c, tol), idx)
    return MulticlassSvmModel(
        mode=mode,
        classes=classes,
        train_assignments=assignments,
        labels=labels,
        nu=float(nu),
        c=float(c),
        models=models,
        open_set=open_set,
    )


def svm_predict_multiclass(model: MulticlassSvmModel, psi, leaves: LeafSet) -> int:
    """Majority vote (one-vs-one) or maximum score (one-vs-all); ties to lowest class."""
    scores = model.decision_scores(psi, leaves)
    if model.mode == MODE_ONE_VS_ONE:
        votes = {ci: 0 for ci in model.classes}
        for (ci, cj), score in scores.items():
            votes[ci if score > 0 else cj] += 1
        return max(model.classes, key=lambda ci: (votes[ci], -ci))
    return max(model.classes, key=lambda ci: (scores[ci], -ci))


def open_set_svm(model: MulticlassSvmModel, psi, leaves: LeafSet) -> int | None:
    """Top-scoring one-vs-all class if its score is strictly positive, else None."""
    check_open_set_mode(model.mode, True)
    scores = model.decision_scores(psi, leaves)
    best = max(model.classes, key=lambda ci: (scores[ci], -ci))
    return best if scores[best] > 0 else None
