"""Hierarchical subspace clustering by repeated 2-way spectral splits.

The representation solver is run once; its thresholded affinity matrix is
reused at every level. Levels 1 and 2 split unconditionally; deeper levels
split a cluster only when a child subspace fits its samples enough better
than the parent subspace and both child dimensions clear a minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .codec import Reader, Writer
from .errors import ConfigError, DataError, DimensionError
from .linalg import RANK_TOL, as_matrix, fix_eigvec_signs
from .solver import (
    FeatureMatrix,
    SolverConfig,
    build_affinity,
    cslrr_solve,
    threshold_coefficients,
)
from .spectral import spectral_cluster

# Mean parent errors at or below this are considered already perfect; the
# relative-gain split test is then vacuous and reports zero gain.
PERFECT_FIT_TOL = 1e-12

TREE_MAGIC = b"UOST"
TREE_VERSION = 1


@dataclass
class HierarchyConfig:
    """Splitting parameters: depth, energy threshold, gain threshold, min dimension."""

    max_level: int
    gamma: float = 0.98
    split_gain: float = 0.01
    min_dim: int = 1

    def __post_init__(self):
        if self.max_level < 1:
            raise ConfigError("max_level must be >= 1")
        if not 0 < self.gamma <= 1:
            raise ConfigError("gamma must be in (0, 1]")
        if self.split_gain < 0:
            raise ConfigError("split_gain must be nonnegative")
        if self.min_dim < 1:
            raise ConfigError("min_dim must be >= 1")


@dataclass
class SubspaceNode:
    node_id: int
    level: int
    indices: np.ndarray  # sorted sample indices
    basis: np.ndarray  # m x dim, orthonormal columns
    dim: int
    divisible: bool
    children: tuple[int, int] | None = None

    @property
    def size(self) -> int:
        return len(self.indices)


@dataclass
class HierarchyTree:
    nodes: list[SubspaceNode]
    max_level: int
    n_samples: int
    solver_converged: bool
    solver_iterations: int = 0

    def node(self, node_id: int) -> SubspaceNode:
        return self.nodes[node_id]

    def leaves(self) -> list[SubspaceNode]:
        return [n for n in self.nodes if n.children is None]

    def partition_at(self, level: int) -> list[SubspaceNode]:
        """Clusters active at `level`: nodes split no earlier than level+1."""
        if not 1 <= level <= self.max_level:
            raise DimensionError(f"level must be in [1, {self.max_level}]")
        return [
            n
            for n in self.nodes
            if n.level == level or (n.level < level and n.children is None)
        ]

    def _labels(self, nodes: list[SubspaceNode]) -> np.ndarray:
        labels = np.full(self.n_samples, -1, dtype=int)
        for pos, n in enumerate(nodes):
            labels[n.indices] = pos
        return labels

    def leaf_labels(self) -> np.ndarray:
        return self._labels(self.leaves())

    def labels_at(self, level: int) -> np.ndarray:
        return self._labels(self.partition_at(level))


def estimate_subspace(xc, gamma: float) -> tuple[np.ndarray, int]:
    """Estimate an orthonormal basis and dimension from the cluster samples.

    The leading covariance eigenvectors are taken from a thin SVD of the
    columns (identical spans, better conditioned than forming the
    covariance); the dimension is the smallest count whose leading-energy
    fraction reaches gamma, with singular values below the rank cutoff
    counted as zero energy.
    """
    xc = as_matrix(xc, "cluster data")
    if not 0 < gamma <= 1:
        raise ConfigError("gamma must be in (0, 1]")
    if not np.any(xc):
        raise DataError("cluster contains only zero vectors")
    u_full, svals, _ = np.linalg.svd(xc, full_matrices=False)
    svals = np.where(svals > RANK_TOL * max(1.0, svals[0]), svals, 0.0)
    energies = svals**2
    total = energies.sum()
    if total <= 0:
        raise DataError("cluster energy is numerically zero")
    fractions = np.cumsum(energies) / total
    d = int(np.searchsorted(fractions, gamma) + 1)
    d = min(d, int(np.count_nonzero(svals)))
    return fix_eigvec_signs(u_full[:, :d]), d


def relative_error(x, basis) -> float:
    """Squared residual of projecting x onto the basis span, relative to ||x||^2."""
    x = np.asarray(x, dtype=float).ravel()
    sq = float(x @ x)
    if sq <= 0:
        raise DataError("cannot project a zero vector")
    resid = x - basis @ (basis.T @ x)
    return float(np.clip((resid @ resid) / sq, 0.0, 1.0))


def mean_relative_error(xs: np.ndarray, basis: np.ndarray) -> float:
    """Mean of relative_error over the columns of xs."""
    sq = (xs * xs).sum(axis=0)
    if np.any(sq <= 0):
        raise DataError("cannot project a zero vector")
    proj = basis @ (basis.T @ xs)
    resid = ((xs - proj) ** 2).sum(axis=0)
    return float(np.mean(np.clip(resid / sq, 0.0, 1.0)))


def _bisect(indices: np.ndarray, w: np.ndarray, seed: int):
    """2-way spectral split of the affinity submatrix; None if a side is empty."""
    sub = w[np.ix_(indices, indices)]
    labels = spectral_cluster(sub, 2, seed)
    left = indices[labels == 0]
    right = indices[labels == 1]
    if len(left) == 0 or len(right) == 0:
        return None
    return left, right


def try_split(
    node: SubspaceNode,
    x: FeatureMatrix,
    w: np.ndarray,
    cfg: HierarchyConfig,
    seed: int,
):
    """Attempt to split a divisible node at the next level.

    Bisects the node's affinity submatrix, estimates the child subspaces,
    and accepts the split when the mean relative representation error of a
    child improves on the parent's by at least split_gain (fractionally)
    for either child, and both child dimensions are at least min_dim.
    Returns ((indices, basis, dim), (indices, basis, dim)) on acceptance;
    on rejection marks the node a leaf and returns None.
    """
    if not node.divisible or node.size < 2:
        raise ConfigError("try_split requires a divisible node with >= 2 samples")
    sides = _bisect(node.indices, w, seed)
    if sides is None:
        node.divisible = False
        return None
    children = []
    gains = []
    for idx in sides:
        xc = x.data[:, idx]
        u, d = estimate_subspace(xc, cfg.gamma)
        delta = mean_relative_error(xc, node.basis)
        zeta = mean_relative_error(xc, u)
        gain = 0.0 if delta <= PERFECT_FIT_TOL else (delta - zeta) / delta
        children.append((idx, u, d))
        gains.append(gain)
    dims_ok = min(children[0][2], children[1][2]) >= cfg.min_dim
    if (max(gains) >= cfg.split_gain) and dims_ok:
        return tuple(children)
    node.divisible = False
    return None


def hcs_lrr(
    x: FeatureMatrix,
    solver_config: SolverConfig,
    hier_config: HierarchyConfig,
    seed: int,
) -> HierarchyTree:
    """Build the full hierarchy from one solver run.

    The solver's embedding width is forced to 2**max_level (the largest
    possible leaf count). Levels 1 and 2 split unconditionally; levels
    p >= 2 apply the try_split acceptance rule. Solver non-convergence is
    recorded on the tree rather than raised.
    """
    n = x.n_samples
    if n < 4:
        raise DimensionError("need at least 4 samples")
    p_max = hier_config.max_level
    scfg = replace(solver_config, l_max=2**p_max)
    result = cslrr_solve(x, scfg)
    w = build_affinity(threshold_coefficients(result.z, scfg.coeff_threshold))

    rng = np.random.default_rng(seed)
    next_seed = lambda: int(rng.integers(0, 2**63 - 1))
    nodes: list[SubspaceNode] = []

    def fitted(indices: np.ndarray):
        return (indices, *estimate_subspace(x.data[:, indices], hier_config.gamma))

    def new_node(level, indices, basis, dim, divisible=True) -> SubspaceNode:
        nodes.append(
            SubspaceNode(len(nodes), level, np.sort(indices), basis, dim, divisible)
        )
        return nodes[-1]

    # Level 1: unconditional bisection of the whole sample set.
    root_sides = _bisect(np.arange(n), w, next_seed())
    if root_sides is None:
        new_node(1, *fitted(np.arange(n)), divisible=False)
        return HierarchyTree(nodes, p_max, n, result.converged, result.iterations)
    level_nodes = [new_node(1, *fitted(idx)) for idx in root_sides]

    # Level 2 bisects unconditionally; deeper levels apply the gain test.
    for level in range(2, p_max + 1):
        next_level = []
        for node in level_nodes:
            if not node.divisible or node.size < 2:
                node.divisible = False
                continue
            if level == 2:
                sides = _bisect(node.indices, w, next_seed())
                outcome = sides and [fitted(idx) for idx in sides]
            else:
                outcome = try_split(node, x, w, hier_config, next_seed())
            if not outcome:
                node.divisible = False
                continue
            kids = [new_node(level, *child) for child in outcome]
            node.children = (kids[0].node_id, kids[1].node_id)
            next_level.extend(kids)
        level_nodes = next_level

    return HierarchyTree(nodes, p_max, n, result.converged, result.iterations)


def tree_summary(tree: HierarchyTree) -> str:
    """One line per node: id, level, size, dim, divisibility, child ids."""
    lines = [
        f"levels={tree.max_level} samples={tree.n_samples} "
        f"leaves={len(tree.leaves())} solver_converged={int(tree.solver_converged)}"
    ]
    for n in tree.nodes:
        kids = ",".join(str(c) for c in n.children) if n.children else "-"
        lines.append(
            f"node={n.node_id} level={n.level} size={n.size} dim={n.dim} "
            f"divisible={int(n.divisible)} children={kids}"
        )
    return "\n".join(lines) + "\n"


def write_tree(tree: HierarchyTree, path) -> None:
    """Serialize the tree to the versioned little-endian binary format."""
    writer = Writer(TREE_MAGIC, TREE_VERSION)
    writer.fields(
        "IIBII",
        len(tree.nodes),
        tree.max_level,
        1 if tree.solver_converged else 0,
        tree.solver_iterations,
        tree.n_samples,
    )
    for n in tree.nodes:
        kids = n.children if n.children is not None else ()
        writer.fields("IIBB", n.node_id, n.level, 1 if n.divisible else 0, len(kids))
        writer.array(kids, "<u4")
        writer.indices(n.indices)
        writer.matrix(n.basis)
    writer.save(path)


def read_tree(path) -> HierarchyTree:
    """Load a tree, rejecting node ids out of order and out-of-range children or samples."""
    reader = Reader(path, TREE_MAGIC, TREE_VERSION, "hierarchy tree")
    n_nodes, max_level, converged, iters, n_samples = reader.fields("IIBII")
    nodes = []
    for position in range(n_nodes):
        node_id, level, divisible, n_kids = reader.fields("IIBB")
        if node_id != position or n_kids not in (0, 2):
            raise DataError(f"{path}: malformed node record {position}")
        kids = tuple(reader.indices(n_nodes, n_kids).tolist())
        indices = reader.indices(n_samples)
        basis = reader.matrix()
        nodes.append(
            SubspaceNode(
                node_id=node_id,
                level=level,
                indices=indices,
                basis=basis,
                dim=basis.shape[1],
                divisible=bool(divisible),
                children=kids or None,
            )
        )
    reader.done()
    return HierarchyTree(nodes, max_level, n_samples, bool(converged), iters)
