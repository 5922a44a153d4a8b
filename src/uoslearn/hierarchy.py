"""Hierarchical subspace clustering by repeated 2-way spectral splits.

The representation solver is run once; its thresholded affinity matrix is
reused at every level. One routine, `try_split`, splits every node: the
root (level 0, not stored) and the level-1 clusters split unconditionally;
from level 2 on a cluster splits only when a child subspace fits its
samples enough better than the parent subspace and both child dimensions
clear a minimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import Reader, Writer
from .errors import ConfigError, DataError, DimensionError
from .linalg import RANK_TOL, as_matrix, as_orthonormal_columns, fix_eigvec_signs
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
        if self.max_level < 1:  # named by its config key, `levels`
            raise ConfigError(f"levels must be >= 1, got {self.max_level}")
        if not 0 < self.gamma <= 1:
            raise ConfigError("gamma must be in (0, 1]")
        if not 0 <= self.split_gain < np.inf:
            raise ConfigError("split_gain must be nonnegative and finite")
        if self.min_dim < 1:
            raise ConfigError("min_dim must be >= 1")


@dataclass
class SubspaceNode:
    node_id: int
    level: int
    indices: np.ndarray  # sorted sample indices
    basis: np.ndarray  # m x dim, orthonormal columns
    dim: int
    divisible: bool  # >= 2 samples and no rejected split
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

    def leaves(self) -> list[SubspaceNode]:
        return [n for n in self.nodes if n.children is None]

    def leaf_labels(self) -> np.ndarray:
        labels = np.full(self.n_samples, -1, dtype=int)
        for pos, n in enumerate(self.leaves()):
            labels[n.indices] = pos
        return labels


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


def mean_relative_error(xs: np.ndarray, basis: np.ndarray) -> float:
    """Mean over the columns x of xs of ||x - P x||^2 / ||x||^2, P the basis projector."""
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
    """Attempt to split a divisible node into two children one level down.

    Bisects the node's affinity submatrix and estimates the child subspaces.
    Nodes at levels 0 and 1 split whenever both sides are nonempty; from
    level 2 on, the split is accepted when the mean relative representation
    error of a child improves on the parent's by at least split_gain
    (fractionally) for either child, and both child dimensions are at least
    min_dim. Returns [(indices, basis, dim), (indices, basis, dim)] on
    acceptance and None otherwise; the node is left unchanged.
    """
    if not node.divisible or node.size < 2:
        raise ConfigError("try_split requires a divisible node with >= 2 samples")
    sides = _bisect(node.indices, w, seed)
    if sides is None:
        return None
    children = [(idx, *estimate_subspace(x.data[:, idx], cfg.gamma)) for idx in sides]
    if node.level < 2:
        return children
    gains = []
    for idx, u, _ in children:
        xc = x.data[:, idx]
        delta = mean_relative_error(xc, node.basis)
        zeta = mean_relative_error(xc, u)
        gains.append(0.0 if delta <= PERFECT_FIT_TOL else (delta - zeta) / delta)
    dims_ok = min(dim for _, _, dim in children) >= cfg.min_dim
    return children if max(gains) >= cfg.split_gain and dims_ok else None


def hcs_lrr(
    x: FeatureMatrix,
    solver_config: SolverConfig,
    hier_config: HierarchyConfig,
    seed: int,
) -> HierarchyTree:
    """Build the full hierarchy from one solver run.

    The solver embeds in 2**max_level <= N columns (the largest possible
    leaf count). Each level calls try_split on every divisible node of the
    level above, starting from a level-0 node (not stored) that holds
    every sample; a node is created divisible when it holds at least
    two samples, and one that does not split becomes a non-divisible leaf.
    If the root does not split, the tree is one level-1 leaf holding
    every sample. Solver non-convergence is recorded on the tree rather
    than raised.
    """
    n = x.n_samples
    p_max = hier_config.max_level
    if p_max >= n.bit_length():  # named by its config key, `levels`
        raise ConfigError(
            f"levels={p_max} is too deep for N={n} samples: "
            f"2**levels must not exceed N, so levels <= {n.bit_length() - 1}"
        )
    if n < 4:
        raise DimensionError("need at least 4 samples")
    result = cslrr_solve(x, solver_config, 2**p_max)
    w = build_affinity(threshold_coefficients(result.z, solver_config.coeff_threshold))

    rng = np.random.default_rng(seed)
    nodes: list[SubspaceNode] = []
    root = SubspaceNode(-1, 0, np.arange(n), np.zeros((x.m, 0)), 0, True)
    level_nodes = [root]
    for level in range(1, p_max + 1):
        next_level = []
        for node in level_nodes:
            outcome = None
            if node.divisible:
                node_seed = int(rng.integers(0, 2**63 - 1))
                outcome = try_split(node, x, w, hier_config, node_seed)
            if outcome is None:
                node.divisible = False
                continue
            kids = [
                SubspaceNode(len(nodes) + pos, level, np.sort(idx), basis, dim, len(idx) >= 2)
                for pos, (idx, basis, dim) in enumerate(outcome)
            ]
            nodes.extend(kids)
            node.children = (kids[0].node_id, kids[1].node_id)
            next_level.extend(kids)
        level_nodes = next_level

    if root.children is None:
        basis, dim = estimate_subspace(x.data[:, root.indices], hier_config.gamma)
        nodes.append(SubspaceNode(0, 1, root.indices, basis, dim, False))
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
    """Load a tree, rejecting misordered node ids, out-of-range children or samples, bad bases."""
    with Reader(path, TREE_MAGIC, TREE_VERSION, "hierarchy tree") as reader:
        n_nodes, max_level, converged, iters, n_samples = reader.fields("IIBII")
        nodes = []
        for position in range(n_nodes):
            node_id, level, divisible, n_kids = reader.fields("IIBB")
            if node_id != position or n_kids not in (0, 2):
                raise DataError(f"malformed node record {position}")
            kids = tuple(reader.indices(n_nodes, n_kids).tolist())
            indices = reader.indices(n_samples)
            basis = as_orthonormal_columns(reader.matrix(), "node basis")
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
