"""Sequence classification over learned leaf subspaces.

A feature sequence is summarized by its per-frame assignment to the
closest leaf subspace. Sequences are compared either by warping the
assignment vectors directly with a subspace-distance cost (used by the
kernel classifiers) or by aligning the raw feature sequences first and
averaging the subspace distances along the trimmed alignment path (used
by the nearest-neighbor classifiers).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DimensionError
from .linalg import as_matrix

UNIT_NORM_TOL = 1e-6

# Cells of squared differences `_frame_distances` holds at once (512 KiB), unless
# a single dimension's n x p cells need more.
FRAME_BLOCK_CELLS = 1 << 16


@dataclass
class SequenceSample:
    """A feature-vector sequence (columns are frames) with optional label and assignment."""

    features: np.ndarray
    label: int | None = None
    assignment: np.ndarray | None = None

    def __post_init__(self):
        self.features = as_matrix(self.features, "sequence features")
        norms = np.linalg.norm(self.features, axis=0)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            raise DataError("sequence columns must have unit l2 norm")
        if self.assignment is not None:
            self.assignment = np.asarray(self.assignment, dtype=int)
            if len(self.assignment) != self.length:
                raise DimensionError("assignment length must equal sequence length")

    @property
    def length(self) -> int:
        return self.features.shape[1]


@dataclass
class LeafSet:
    """Orthonormal bases of the leaf subspaces.

    `distances` is the symmetric table of subspace distances between all
    leaf pairs, computed once here; every warping cost reads it.
    """

    bases: list[np.ndarray]
    distances: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.bases:
            raise DimensionError("leaf set must be nonempty")
        self.bases = [as_matrix(b, "leaf basis") for b in self.bases]
        for b in self.bases:
            if b.shape[0] != self.ambient_dim:
                raise DimensionError("leaf bases must share the ambient dimension")
        self.distances = _pair_matrix(subspace_distance, self.bases)

    @classmethod
    def from_tree(cls, tree) -> "LeafSet":
        return cls([leaf.basis for leaf in tree.leaves()])

    @property
    def ambient_dim(self) -> int:
        return self.bases[0].shape[0]

    def __len__(self) -> int:
        return len(self.bases)


def assign_to_leaves(sample, leaves: LeafSet) -> np.ndarray:
    """Index of the leaf subspace with smallest relative reconstruction error per frame.

    Ties break toward the lowest leaf index. Accepts a SequenceSample or a
    raw m x n column matrix.
    """
    feats = sample.features if isinstance(sample, SequenceSample) else as_matrix(sample)
    if feats.shape[0] != leaves.ambient_dim:
        raise DimensionError(
            f"frames have dimension {feats.shape[0]}, leaves {leaves.ambient_dim}"
        )
    sq = (feats * feats).sum(axis=0)
    if np.any(sq <= 0):
        raise DataError("cannot assign a zero feature vector")
    errors = np.empty((len(leaves), feats.shape[1]))
    for i, basis in enumerate(leaves.bases):
        proj = basis.T @ feats
        errors[i] = 1.0 - (proj * proj).sum(axis=0) / sq
    return np.argmin(errors, axis=0).astype(int)


def subspace_distance(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Normalized distance between two subspaces in [0, 1].

    sqrt(1 - ||Ua^T Ub||_F^2 / max(da, db)); 0 for identical subspaces of
    equal dimension, 1 for orthogonal ones.
    """
    overlap = basis_a.T @ basis_b
    tr = float((overlap * overlap).sum())
    da, db = basis_a.shape[1], basis_b.shape[1]
    gap = np.clip(1.0 - tr / max(da, db), 0.0, 1.0)
    if gap < 1e-13:  # below the resolution of the trace formula
        return 0.0
    return float(np.sqrt(gap))


def _pair_matrix(dist, items_a: list, items_b: list | None = None) -> np.ndarray:
    """dist(a, b) row by row; items_b None: symmetric, zero diagonal, pairs i < j."""
    if items_b is None:
        n = len(items_a)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = dist(items_a[i], items_a[j])
        return out
    out = np.zeros((len(items_a), len(items_b)))
    for i, a in enumerate(items_a):
        for j, b in enumerate(items_b):
            out[i, j] = dist(a, b)
    return out


def _dtw_accumulate(costs: np.ndarray) -> list[list[float]]:
    """Accumulated costs of monotone warping paths with steps (1,0), (0,1), (1,1).

    acc[a + 1][b + 1] = costs[a, b] + min(acc[a][b + 1], acc[a + 1][b], acc[a][b]),
    over a border of inf with acc[0][0] = 0; acc[n][m] is the DTW distance.
    """
    inf = float("inf")
    prev = [0.0] + [inf] * costs.shape[1]
    acc = [prev]
    for row in costs.tolist():
        # Comparisons pick the same value as min(): costs are never nan.
        left = inf
        cur = [inf]
        for cost, diag, up in zip(row, prev, prev[1:]):
            best = up if up < diag else diag
            left = cost + (best if best < left else left)
            cur.append(left)
        acc.append(cur)
        prev = cur
    return acc


def dtw_grassmann(psi_a, psi_b, leaves: LeafSet) -> float:
    """Warping distance between two leaf-assignment vectors.

    Dynamic programming over the cell costs d(S_a, S_b) of the assigned
    subspaces (read from `leaves.distances`), with steps (1,0), (0,1), (1,1).
    """
    psi_a = np.asarray(psi_a, dtype=int)
    psi_b = np.asarray(psi_b, dtype=int)
    if psi_a.size == 0 or psi_b.size == 0:
        raise DimensionError("assignment vectors must be nonempty")
    n_leaves = len(leaves)
    for psi in (psi_a, psi_b):
        if psi.min() < 0 or psi.max() >= n_leaves:
            raise DimensionError("assignment index out of range")
    return float(_dtw_accumulate(leaves.distances[psi_a[:, None], psi_b])[-1][-1])


def _pinned_run(path: np.ndarray) -> int:
    """Length of the longest leading run over which one side's index stays fixed."""
    longest = 1
    for side in (0, 1):
        run = 1
        while run < len(path) and path[run, side] == path[0, side]:
            run += 1
        longest = max(longest, run)
    return longest


def _trim_pinned(path: np.ndarray) -> np.ndarray:
    """Drop boundary-pinned pairs, keeping one pair per pinned run."""
    trimmed = path[_pinned_run(path) - 1 :]
    return trimmed[: len(trimmed) - _pinned_run(trimmed[::-1]) + 1]


def _frame_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between the columns of a (m x n) and b (m x p), as n x p.

    Each cell adds its squared differences one dimension at a time, from
    the first, then takes the square root: the order scipy's euclidean
    cdist uses, so the values equal it bit for bit.
    """
    m, n, p = a.shape[0], a.shape[1], b.shape[1]
    # np.add.reduce adds in order along every axis but the fast one in memory,
    # which it sums pairwise. A lone cell (n = p = 1) gets a zero spare column,
    # so that the dimension axis is never the fast one.
    spare = int(n * p == 1)
    rows = min(m, max(1, FRAME_BLOCK_CELLS // (n * p)))
    sq = np.empty((rows, n, p + spare))
    sq[:, :, p:] = 0.0
    for start in range(0, m, rows):
        block = sq[: min(rows, m - start)]
        stop = start + len(block)
        np.subtract(a[start:stop, :, None], b[start:stop, None, :], out=block[:, :, :p])
        block *= block
        if start:
            block[0] += out  # carry the running sums on, in order
        out = np.add.reduce(block, axis=0)
    out = out[:, :p]
    return np.sqrt(out, out=out)


def align_features_dtw(sample_a: SequenceSample, sample_b: SequenceSample) -> np.ndarray:
    """Optimal warping path between two feature sequences, boundary-trimmed.

    Standard DTW with Euclidean frame cost; the backtracked path is then
    trimmed of redundant leading/trailing pairs where one side stays pinned
    at its first or last frame. Returns an (H, 2) array of index pairs.
    """
    acc = _dtw_accumulate(_frame_distances(sample_a.features, sample_b.features))
    a, b = sample_a.length - 1, sample_b.length - 1
    path = [(a, b)]
    while a or b:
        # Preference on cost ties: diagonal, then shrink a, then shrink b.
        if a and b:
            diag, up, left = acc[a][b], acc[a][b + 1], acc[a + 1][b]
            if diag <= up and diag <= left:
                a, b = a - 1, b - 1
            elif up <= left:
                a -= 1
            else:
                b -= 1
        elif a:
            a -= 1
        else:
            b -= 1
        path.append((a, b))
    path.reverse()
    return _trim_pinned(np.asarray(path, dtype=int))


def sequence_distance(
    sample_a: SequenceSample,
    sample_b: SequenceSample,
    psi_a,
    psi_b,
    leaves: LeafSet,
) -> float:
    """Mean subspace distance of assigned leaves along the feature-aligned path."""
    psi_a = np.asarray(psi_a, dtype=int)
    psi_b = np.asarray(psi_b, dtype=int)
    if len(psi_a) != sample_a.length or len(psi_b) != sample_b.length:
        raise DimensionError("assignments must match sequence lengths")
    path = align_features_dtw(sample_a, sample_b)
    return float(leaves.distances[psi_a[path[:, 0]], psi_b[path[:, 1]]].mean())


def _ensure_assignment(sample: SequenceSample, leaves: LeafSet) -> None:
    if sample.assignment is None:
        sample.assignment = assign_to_leaves(sample, leaves)


def _feature_aligned_distance(leaves: LeafSet):
    return lambda a, b: sequence_distance(a, b, a.assignment, b.assignment, leaves)


def _check_class_sizes(train: list[SequenceSample], k: int, leave_one_out: bool) -> None:
    """Reject k before any warp: each class needs k members, k + 1 to leave one out."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    for cid, size in Counter(s.label for s in train).items():
        if leave_one_out and size <= k:
            raise ConfigError(f"class {cid} needs more than k={k} members")
        if size < k:
            raise ConfigError(f"class {cid} has fewer than k={k} training sequences")


def _mean_k_smallest(distances, k: int) -> float:
    return float(np.mean(np.sort(distances)[:k]))


def _test_class_distances(
    test: SequenceSample,
    train: list[SequenceSample],
    leaves: LeafSet,
    k: int,
) -> dict[int, float]:
    """Average distance from `test` to the k nearest members of each class."""
    _check_class_sizes(train, k, leave_one_out=False)
    for s in [test, *train]:
        _ensure_assignment(s, leaves)
    row = _pair_matrix(_feature_aligned_distance(leaves), [test], train)[0]
    by_class: dict[int, list[float]] = {}
    for s, d in zip(train, row):
        by_class.setdefault(s.label, []).append(d)
    scores = {}
    for cid, dists in by_class.items():
        scores[cid] = _mean_k_smallest(dists, k)
    return scores


def knn_classify(
    test: SequenceSample,
    train: list[SequenceSample],
    leaves: LeafSet,
    k: int = 3,
) -> int:
    """Class whose k nearest training sequences have the smallest average distance.

    Ties break toward the lowest class id.
    """
    scores = _test_class_distances(test, train, leaves, k)
    return min(scores, key=lambda cid: (scores[cid], cid))


def class_distance_ceilings(
    train: list[SequenceSample], leaves: LeafSet, k: int
) -> dict[int, float]:
    """Per-class open-set ceilings.

    For each training sequence, the average distance to its k nearest
    same-class neighbors (excluding itself); the ceiling of a class is the
    maximum of these averages. Every class needs at least k+1 members.
    """
    _check_class_sizes(train, k, leave_one_out=True)
    distance = _feature_aligned_distance(leaves)
    by_class: dict[int, list[SequenceSample]] = {}
    for s in train:
        by_class.setdefault(s.label, []).append(s)
    ceilings = {}
    for cid, members in sorted(by_class.items()):
        for s in members:
            _ensure_assignment(s, leaves)
        dist = _pair_matrix(distance, members)
        ceilings[cid] = max(
            _mean_k_smallest(np.delete(row, i), k) for i, row in enumerate(dist)
        )
    return ceilings


def open_set_knn(
    test: SequenceSample,
    train: list[SequenceSample],
    leaves: LeafSet,
    k: int = 3,
    varsigma: float = 1.2,
    ceilings: dict[int, float] | None = None,
) -> int | None:
    """Nearest-neighbor classification with rejection of unfamiliar sequences.

    A tentative class is chosen as in knn_classify; the test is accepted
    only if its average distance to the k nearest members of that class is
    within varsigma times the class ceiling, otherwise None is returned to
    mark a new, unseen class.
    """
    if varsigma <= 1:
        raise ConfigError("varsigma must be > 1")
    if ceilings is None:
        ceilings = class_distance_ceilings(train, leaves, k)
    scores = _test_class_distances(test, train, leaves, k)
    best = min(scores, key=lambda cid: (scores[cid], cid))
    return best if scores[best] <= ceilings[best] * varsigma else None


def dtw_distance_matrix(
    assignments_a: list[np.ndarray],
    assignments_b: list[np.ndarray] | None,
    leaves: LeafSet,
) -> np.ndarray:
    """Pairwise warping distances between assignment vectors.

    With assignments_b None the symmetric within-set matrix is computed.
    """
    return _pair_matrix(
        lambda pa, pb: dtw_grassmann(pa, pb, leaves), assignments_a, assignments_b
    )


def check_bandwidth(nu: float) -> np.float64:
    """Return nu^2 for a usable Gaussian bandwidth nu; ConfigError otherwise."""
    with np.errstate(over="ignore"):  # a huge nu saturates: no OverflowError, no warning
        nu_sq = np.float64(nu) ** 2
    if not (nu > 0 and nu_sq > 0):  # also rejects nan and a square that underflows
        raise ConfigError("nu must be positive, with a nonzero square")
    return nu_sq


def gaussian_kernel(distances, nu: float) -> np.ndarray:
    """Entrywise Gaussian kernel exp(-d^2/nu^2) of warping distances."""
    return np.exp(-(distances**2) / check_bandwidth(nu))


def gaussian_dtw_kernel(
    assignments: list[np.ndarray], leaves: LeafSet, nu: float
) -> np.ndarray:
    """Gaussian kernel exp(-d^2/nu^2) over warping distances; unit diagonal.

    The kernel is symmetric and positive entrywise but not guaranteed
    positive semidefinite; downstream solvers must tolerate indefiniteness.
    """
    d = dtw_distance_matrix(assignments, None, leaves)
    k = gaussian_kernel(d, nu)
    np.fill_diagonal(k, 1.0)
    return (k + k.T) / 2.0


def median_bandwidth(distances: np.ndarray) -> float:
    """Median of the off-diagonal distances; a standard kernel-width heuristic."""
    n = distances.shape[0]
    off = distances[~np.eye(n, dtype=bool)]
    med = float(np.median(off))
    return med if med > 0 else 1.0
