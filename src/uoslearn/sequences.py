"""Sequence classification over learned leaf subspaces.

A feature sequence is summarized by its per-frame assignment to the
closest leaf subspace. Sequences are compared either by warping the
assignment vectors directly with a subspace-distance cost (used by the
kernel classifiers) or by aligning the raw feature sequences first and
averaging the subspace distances along the trimmed alignment path (used
by the nearest-neighbor classifiers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConfigError, DataError, DimensionError
from .linalg import as_matrix

UNIT_NORM_TOL = 1e-6


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
    """Orthonormal bases of the leaf subspaces."""

    bases: list[np.ndarray]

    def __post_init__(self):
        if not self.bases:
            raise DimensionError("leaf set must be nonempty")
        self.bases = [as_matrix(b, "leaf basis") for b in self.bases]
        for b in self.bases:
            if b.shape[0] != self.ambient_dim:
                raise DimensionError("leaf bases must share the ambient dimension")

    @classmethod
    def from_tree(cls, tree) -> "LeafSet":
        return cls([leaf.basis for leaf in tree.leaves()])

    @property
    def ambient_dim(self) -> int:
        return self.bases[0].shape[0]

    @property
    def dims(self) -> list[int]:
        return [b.shape[1] for b in self.bases]

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


def leaf_distance_table(leaves: LeafSet) -> np.ndarray:
    """Symmetric table of subspace distances between all leaf pairs."""
    n = len(leaves)
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            table[i, j] = table[j, i] = subspace_distance(
                leaves.bases[i], leaves.bases[j]
            )
    return table


def _dtw_cost(costs: np.ndarray) -> float:
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


def dtw_grassmann(
    psi_a,
    psi_b,
    leaves: LeafSet,
    cost_table: np.ndarray | None = None,
) -> float:
    """Warping distance between two leaf-assignment vectors.

    Dynamic programming over the cell costs d(S_a, S_b) of the assigned
    subspaces, with steps (1,0), (0,1), (1,1). A precomputed
    leaf_distance_table can be supplied to amortize repeated calls.
    """
    psi_a = np.asarray(psi_a, dtype=int)
    psi_b = np.asarray(psi_b, dtype=int)
    if psi_a.size == 0 or psi_b.size == 0:
        raise DimensionError("assignment vectors must be nonempty")
    n_leaves = len(leaves)
    for psi in (psi_a, psi_b):
        if psi.min() < 0 or psi.max() >= n_leaves:
            raise DimensionError("assignment index out of range")
    table = leaf_distance_table(leaves) if cost_table is None else cost_table
    return _dtw_cost(table[np.ix_(psi_a, psi_b)])


def _trim_pinned(path: np.ndarray) -> np.ndarray:
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


def align_features_dtw(sample_a: SequenceSample, sample_b: SequenceSample) -> np.ndarray:
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
    return _trim_pinned(np.asarray(path, dtype=int))


def sequence_distance(
    sample_a: SequenceSample,
    sample_b: SequenceSample,
    psi_a,
    psi_b,
    leaves: LeafSet,
    cost_table: np.ndarray | None = None,
) -> float:
    """Mean subspace distance of assigned leaves along the feature-aligned path."""
    psi_a = np.asarray(psi_a, dtype=int)
    psi_b = np.asarray(psi_b, dtype=int)
    if len(psi_a) != sample_a.length or len(psi_b) != sample_b.length:
        raise DimensionError("assignments must match sequence lengths")
    table = leaf_distance_table(leaves) if cost_table is None else cost_table
    path = align_features_dtw(sample_a, sample_b)
    return float(table[psi_a[path[:, 0]], psi_b[path[:, 1]]].mean())


def _ensure_assignment(sample: SequenceSample, leaves: LeafSet) -> np.ndarray:
    if sample.assignment is None:
        sample.assignment = assign_to_leaves(sample, leaves)
    return sample.assignment


def _class_ids(train: list[SequenceSample]) -> list[int]:
    ids = sorted({s.label for s in train})
    if any(i is None for i in ids):
        raise ConfigError("all training sequences must carry labels")
    return ids


def _test_class_distances(
    test: SequenceSample,
    train: list[SequenceSample],
    leaves: LeafSet,
    k: int,
    cost_table: np.ndarray,
) -> dict[int, float]:
    """Average distance from `test` to the k nearest members of each class."""
    psi_t = _ensure_assignment(test, leaves)
    by_class: dict[int, list[float]] = {}
    for s in train:
        d = sequence_distance(
            test, s, psi_t, _ensure_assignment(s, leaves), leaves, cost_table
        )
        by_class.setdefault(s.label, []).append(d)
    scores = {}
    for cid, dists in by_class.items():
        if len(dists) < k:
            raise ConfigError(f"class {cid} has fewer than k={k} training sequences")
        scores[cid] = float(np.mean(np.sort(dists)[:k]))
    return scores


def knn_classify(
    test: SequenceSample,
    train: list[SequenceSample],
    leaves: LeafSet,
    k: int = 3,
    cost_table: np.ndarray | None = None,
) -> int:
    """Class whose k nearest training sequences have the smallest average distance.

    Ties break toward the lowest class id.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    table = leaf_distance_table(leaves) if cost_table is None else cost_table
    scores = _test_class_distances(test, train, leaves, k, table)
    return min(scores, key=lambda cid: (scores[cid], cid))


def class_distance_ceilings(
    train: list[SequenceSample],
    leaves: LeafSet,
    k: int,
    cost_table: np.ndarray | None = None,
) -> dict[int, float]:
    """Per-class open-set ceilings.

    For each training sequence, the average distance to its k nearest
    same-class neighbors (excluding itself); the ceiling of a class is the
    maximum of these averages. Every class needs at least k+1 members.
    """
    table = leaf_distance_table(leaves) if cost_table is None else cost_table
    by_class: dict[int, list[SequenceSample]] = {}
    for s in train:
        by_class.setdefault(s.label, []).append(s)
    ceilings = {}
    for cid, members in sorted(by_class.items()):
        if len(members) <= k:
            raise ConfigError(f"class {cid} needs more than k={k} members")
        psis = [_ensure_assignment(s, leaves) for s in members]
        n = len(members)
        dist = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                dist[i, j] = dist[j, i] = sequence_distance(
                    members[i], members[j], psis[i], psis[j], leaves, table
                )
        averages = [
            float(np.mean(np.sort(np.delete(dist[i], i))[:k])) for i in range(n)
        ]
        ceilings[cid] = max(averages)
    return ceilings


def open_set_knn(
    test: SequenceSample,
    train: list[SequenceSample],
    leaves: LeafSet,
    k: int = 3,
    varsigma: float = 1.2,
    ceilings: dict[int, float] | None = None,
    cost_table: np.ndarray | None = None,
) -> int | None:
    """Nearest-neighbor classification with rejection of unfamiliar sequences.

    A tentative class is chosen as in knn_classify; the test is accepted
    only if its average distance to the k nearest members of that class is
    within varsigma times the class ceiling, otherwise None is returned to
    mark a new, unseen class.
    """
    if varsigma <= 1:
        raise ConfigError("varsigma must be > 1")
    table = leaf_distance_table(leaves) if cost_table is None else cost_table
    if ceilings is None:
        ceilings = class_distance_ceilings(train, leaves, k, table)
    scores = _test_class_distances(test, train, leaves, k, table)
    best = min(scores, key=lambda cid: (scores[cid], cid))
    return best if scores[best] <= ceilings[best] * varsigma else None


def dtw_distance_matrix(
    assignments_a: list[np.ndarray],
    assignments_b: list[np.ndarray] | None,
    leaves: LeafSet,
    cost_table: np.ndarray | None = None,
) -> np.ndarray:
    """Pairwise warping distances between assignment vectors.

    With assignments_b None the symmetric within-set matrix is computed.
    """
    table = leaf_distance_table(leaves) if cost_table is None else cost_table
    if assignments_b is None:
        n = len(assignments_a)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = dtw_grassmann(
                    assignments_a[i], assignments_a[j], leaves, table
                )
        return out
    out = np.zeros((len(assignments_a), len(assignments_b)))
    for i, pa in enumerate(assignments_a):
        for j, pb in enumerate(assignments_b):
            out[i, j] = dtw_grassmann(pa, pb, leaves, table)
    return out


def gaussian_dtw_kernel(
    assignments: list[np.ndarray],
    leaves: LeafSet,
    nu: float,
    cost_table: np.ndarray | None = None,
) -> np.ndarray:
    """Gaussian kernel exp(-d^2/nu^2) over warping distances; unit diagonal.

    The kernel is symmetric and positive entrywise but not guaranteed
    positive semidefinite; downstream solvers must tolerate indefiniteness.
    """
    if nu <= 0:
        raise ConfigError("nu must be positive")
    d = dtw_distance_matrix(assignments, None, leaves, cost_table)
    k = np.exp(-(d**2) / nu**2)
    np.fill_diagonal(k, 1.0)
    return (k + k.T) / 2.0


def median_bandwidth(distances: np.ndarray) -> float:
    """Median of the off-diagonal distances; a standard kernel-width heuristic."""
    n = distances.shape[0]
    off = distances[~np.eye(n, dtype=bool)]
    med = float(np.median(off))
    return med if med > 0 else 1.0
