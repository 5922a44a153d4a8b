"""Synthetic union-of-subspaces and sequence generators for experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .sequences import LeafSet, SequenceSample
from .solver import FeatureMatrix

GEOMETRY_INDEPENDENT = "independent"
GEOMETRY_DISJOINT = "disjoint"


@dataclass
class UosSynthConfig:
    """Point cloud drawn from a union of random low-dimensional subspaces."""

    m: int
    subspaces: int
    dim: int
    points_per_subspace: int
    noise: float = 0.0
    geometry: str = GEOMETRY_INDEPENDENT
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.subspaces < 1 or self.dim < 1:
            raise ConfigError("m, subspaces and dim must be >= 1")
        if self.points_per_subspace < 1:
            raise ConfigError("points_per_subspace must be >= 1")
        if self.noise < 0:
            raise ConfigError("noise must be nonnegative")
        if self.geometry not in (GEOMETRY_INDEPENDENT, GEOMETRY_DISJOINT):
            raise ConfigError(f"unknown geometry {self.geometry!r}")
        if self.dim > self.m:
            raise ConfigError("dim cannot exceed the ambient dimension")
        if self.geometry == GEOMETRY_INDEPENDENT and self.subspaces * self.dim > self.m:
            raise ConfigError(
                "independent geometry needs subspaces * dim <= m "
                f"({self.subspaces} * {self.dim} > {self.m})"
            )


def random_orthonormal(m: int, d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, d)))
    return q * np.sign(np.diag(r))


def orthogonal_bases(
    m: int, count: int, dim: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """`count` mutually orthogonal m x dim bases: column blocks of one random rotation."""
    rotation = random_orthonormal(m, m, rng)
    return [rotation[:, i * dim : (i + 1) * dim] for i in range(count)]


def _sample_subspace_points(
    basis: np.ndarray, count: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    m, d = basis.shape
    coeffs = rng.standard_normal((d, count))
    pts = basis @ coeffs
    if noise > 0:
        pts = pts + noise * rng.standard_normal((m, count)) / np.sqrt(m)
    return pts / np.linalg.norm(pts, axis=0)


def uos_bases(cfg: UosSynthConfig, rng: np.random.Generator) -> list[np.ndarray]:
    """Subspace bases: rotated coordinate blocks (independent) or i.i.d. draws (disjoint)."""
    if cfg.geometry == GEOMETRY_INDEPENDENT:
        return orthogonal_bases(cfg.m, cfg.subspaces, cfg.dim, rng)
    return [random_orthonormal(cfg.m, cfg.dim, rng) for _ in range(cfg.subspaces)]


def generate_synthetic_uos(cfg: UosSynthConfig) -> tuple[FeatureMatrix, np.ndarray]:
    """Unit-norm points grouped by subspace, with their ground-truth labels."""
    rng = np.random.default_rng(cfg.seed)
    bases = uos_bases(cfg, rng)
    columns = []
    labels = []
    for ell, basis in enumerate(bases):
        columns.append(
            _sample_subspace_points(basis, cfg.points_per_subspace, cfg.noise, rng)
        )
        labels.extend([ell] * cfg.points_per_subspace)
    data = np.hstack(columns)
    return FeatureMatrix(data), np.asarray(labels, dtype=int)


@dataclass
class SequenceSynthConfig:
    """Labeled sequences that dwell in class-specific leaf-subspace templates.

    Each class gets a fixed template of leaf indices; a sequence visits the
    template's leaves in order, dwelling a random number of frames in each
    (uniform over [frames_min, frames_max]), so sequences of one class share
    the transition structure but differ in speed. Frames are unit-norm
    samples of the dwelt leaf subspace, optionally jittered.
    """

    m: int
    leaves: int
    leaf_dim: int
    classes: int
    sequences_per_class: int
    template_len: int = 4
    frames_min: int = 2
    frames_max: int = 4
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.m, self.leaves, self.leaf_dim, self.classes) < 1:
            raise ConfigError("m, leaves, leaf_dim and classes must be >= 1")
        if self.sequences_per_class < 1 or self.template_len < 1:
            raise ConfigError("sequences_per_class and template_len must be >= 1")
        if not 1 <= self.frames_min <= self.frames_max:
            raise ConfigError("need 1 <= frames_min <= frames_max")
        if self.jitter < 0:
            raise ConfigError("jitter must be nonnegative")
        if self.leaves * self.leaf_dim > self.m:
            raise ConfigError("need leaves * leaf_dim <= m for orthogonal leaves")


def _class_templates(cfg: SequenceSynthConfig, rng: np.random.Generator) -> list[np.ndarray]:
    templates: list[np.ndarray] = []
    seen = set()
    while len(templates) < cfg.classes:
        t = [int(rng.integers(cfg.leaves))]
        for _ in range(cfg.template_len - 1):
            step = int(rng.integers(cfg.leaves))
            while cfg.leaves > 1 and step == t[-1]:
                step = int(rng.integers(cfg.leaves))
            t.append(step)
        key = tuple(t)
        if key in seen:
            continue
        seen.add(key)
        templates.append(np.asarray(t, dtype=int))
    return templates


def generate_synthetic_sequences(
    cfg: SequenceSynthConfig,
) -> tuple[list[SequenceSample], LeafSet]:
    """Labeled sequence samples plus the leaf subspaces that generated them."""
    rng = np.random.default_rng(cfg.seed)
    bases = orthogonal_bases(cfg.m, cfg.leaves, cfg.leaf_dim, rng)
    templates = _class_templates(cfg, rng)
    samples = []
    for cls in range(cfg.classes):
        for _ in range(cfg.sequences_per_class):
            frames = []
            for leaf in templates[cls]:
                dwell = int(rng.integers(cfg.frames_min, cfg.frames_max + 1))
                frames.append(
                    _sample_subspace_points(bases[leaf], dwell, cfg.jitter, rng)
                )
            samples.append(SequenceSample(features=np.hstack(frames), label=cls))
    return samples, LeafSet(bases)


def split_by_class(
    samples: list[SequenceSample], train_per_class: int
) -> tuple[list[SequenceSample], list[SequenceSample]]:
    """First train_per_class samples of each class go to train, the rest to test."""
    counts: dict[int, int] = {}
    train, test = [], []
    for s in samples:
        seen = counts.get(s.label, 0)
        counts[s.label] = seen + 1
        (train if seen < train_per_class else test).append(s)
    return train, test
