"""Seeded input generators for the benchmark workloads.

Each generator writes the files one workload reads and returns nothing the
timed stages depend on: the program sees only what is on disk. The same
seed always writes the same bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from uoslearn import datasets

# cluster-cslrr: 6 independent subspaces of dim 5 in R^60, 50 points each.
UOS_SYNTH_CFG = (
    "kind = uos\nm = 60\nsubspaces = 6\ndim = 5\npoints = 50\nnoise = 0.1\n"
)
UOS_CLUSTERS = 6

# hierarchy-sclrr: 4 groups of dim 5 in R^60, 60 points each.
SHARED_M, SHARED_DIM, SHARED_PER_GROUP = 60, 5, 60

# classify-seq: 6 classes over 8 leaves of dim 4 in R^40, 16 train and
# 8 test sequences per class, 8 template steps of 2-4 frames each.
SEQ_CLASSES = 6
SEQ_SYNTH_CFG = (
    "kind = sequences\nm = 40\nleaves = 8\nleaf_dim = 4\n"
    f"classes = {SEQ_CLASSES}\ntrain_per_class = 16\ntest_per_class = 8\n"
    "template_len = 8\njitter = 0.03\n"
)

# Smaller versions of the same inputs for the smoke test.
TINY_UOS_SYNTH_CFG = (
    "kind = uos\nm = 20\nsubspaces = 3\ndim = 3\npoints = 10\nnoise = 0.1\n"
)
TINY_UOS_CLUSTERS = 3
TINY_SHARED = (30, 3, 10)
TINY_SEQ_CLASSES = 3
TINY_SEQ_SYNTH_CFG = (
    "kind = sequences\nm = 16\nleaves = 4\nleaf_dim = 3\n"
    f"classes = {TINY_SEQ_CLASSES}\ntrain_per_class = 5\ntest_per_class = 3\n"
    "template_len = 4\njitter = 0.03\n"
)


def shared_direction_data(m: int, d: int, n_per: int, seed: int, shared_scale=0.35):
    """Four subspaces of dim d in two pairs; the members of a pair share one direction.

    The shared direction keeps a pair coupled in the learned affinity while
    the pairs stay mutually orthogonal, so a two-level tree recovers the
    four groups and every deeper split should be rejected. Returns the
    m x 4*n_per unit-column data and the group labels.
    """
    rng = np.random.default_rng(seed)
    g, r = np.linalg.qr(rng.standard_normal((m, 4 * d - 2)))
    g *= np.sign(np.diag(r))
    bases = [
        g[:, 0:d],
        np.hstack([g[:, 0:1], g[:, d : 2 * d - 1]]),
        g[:, 2 * d - 1 : 3 * d - 1],
        np.hstack([g[:, 2 * d - 1 : 2 * d], g[:, 3 * d - 1 : 4 * d - 2]]),
    ]
    cols, labels = [], []
    for ell, basis in enumerate(bases):
        coef = rng.standard_normal((d, n_per))
        coef[0] *= shared_scale
        pts = basis @ coef
        cols.append(pts / np.linalg.norm(pts, axis=0))
        labels += [ell] * n_per
    return np.hstack(cols), np.asarray(labels)


def write_shared_direction(out: Path, seed: int, tiny: bool) -> None:
    """Write features.bin and labels.txt of the hierarchy input under `out`."""
    m, d, n_per = TINY_SHARED if tiny else (SHARED_M, SHARED_DIM, SHARED_PER_GROUP)
    data, labels = shared_direction_data(m, d, n_per, seed)
    out.mkdir(parents=True, exist_ok=True)
    datasets.write_feature_bin(out / "features.bin", data)
    datasets.write_labels(out / "labels.txt", labels)


def withheld_class(seed: int, classes: int) -> int:
    """The class left out of train/, so that open-set rejection is measured."""
    return seed % classes


def withhold_from_train(data_dir: Path, label: int) -> None:
    """Rewrite data_dir/train without the sequences of class `label`."""
    train = datasets.load_sequence_dataset(data_dir / "train")
    kept = [s for s in train if s.label != label]
    if not kept or len(kept) == len(train):
        raise ValueError(f"class {label} is not a strict subset of train/")
    datasets.save_sequence_dataset(data_dir / "train", kept)
