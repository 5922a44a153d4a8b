"""On-disk dataset formats and their loaders.

Feature matrices travel either as CSV (one sample per row, optional
header) or as the flat binary format: a 16-byte little-endian header
(magic "UOSF", u32 version, u32 m, u32 N) followed by m*N float64 values
stored column by column, so each sample's m values are contiguous.
Leaf-basis files (magic "UOSL") hold the bases as counted float64
matrices; both binary formats are read and written through `codec`.
Labels are one integer per line, and sequence boundaries one half-open
"start end" frame range per line. A sequence dataset is a directory of
features.bin, boundaries.txt and labels.txt, one label per sequence.

Every loader takes the path of the file it reads; a file that is missing,
unreadable or malformed is a DataError naming that path.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .codec import Reader, Writer, make_dir, write_file
from .errors import ConfigError, DataError
from .sequences import LeafSet, SequenceSample
from .solver import FeatureMatrix

FEATURE_MAGIC = b"UOSF"
LEAVES_MAGIC = b"UOSL"
FORMAT_VERSION = 1

NORM_WARN_TOL = 1e-6


def _validate_entries(data: np.ndarray, source) -> None:
    bad = ~np.isfinite(data)
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise DataError(f"{source}: non-finite value at row {r}, column {c}")


def _normalize_columns(data: np.ndarray, source) -> np.ndarray:
    norms = np.linalg.norm(data, axis=0)
    if np.any(norms == 0):
        col = int(np.argmin(norms))
        raise DataError(f"{source}: column {col} is identically zero")
    if np.any(np.abs(norms - 1.0) > NORM_WARN_TOL):
        warnings.warn(
            f"{source}: columns renormalized to unit l2 norm", stacklevel=3
        )
    return data / norms


def read_feature_csv(path) -> np.ndarray:
    """CSV with one sample per row; a non-numeric first line is treated as a header."""
    path = Path(path)
    try:
        with open(path) as fh:
            first = fh.readline()
            skip = 0
            try:
                [float(tok) for tok in first.replace(",", " ").split()]
            except ValueError:
                skip = 1
        with warnings.catch_warnings():
            # numpy warns on a file without rows; the check below rejects it.
            warnings.simplefilter("ignore", UserWarning)
            rows = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    except OSError as exc:  # a missing file, a directory, no permission
        raise DataError(f"{path}: cannot read feature CSV: {exc}") from exc
    except ValueError as exc:  # also a file that is not UTF-8 text
        raise DataError(f"{path}: malformed feature CSV: {exc}") from exc
    if rows.size == 0:
        raise DataError(f"{path}: no samples in feature CSV")
    _validate_entries(rows, path)  # report positions in file coordinates
    return rows.T  # samples become columns


def read_feature_bin(path) -> np.ndarray:
    reader = Reader(path, FEATURE_MAGIC, FORMAT_VERSION, "feature binary")
    m, n = reader.fields("II")
    data = np.ascontiguousarray(reader.array("<f8", m * n).reshape(n, m).T)
    reader.done()
    _validate_entries(data, path)
    return data


def write_feature_bin(path, data: np.ndarray) -> None:
    data = np.asarray(data, dtype=float)
    writer = Writer(FEATURE_MAGIC, FORMAT_VERSION)
    writer.fields("II", *data.shape)
    writer.array(data.T, "<f8")  # column by column
    writer.save(path)


def load_feature_matrix(path, fmt: str = "bin", block_shape=None) -> FeatureMatrix:
    """Load, validate and column-normalize the feature matrix at `path`, stored
    as `fmt` ("bin" or "csv"; another value is a ConfigError before any read)."""
    readers = {"bin": read_feature_bin, "csv": read_feature_csv}
    if fmt not in readers:
        raise ConfigError(f"unknown feature format {fmt!r}")
    data = _normalize_columns(readers[fmt](path), path)
    return FeatureMatrix(data, block_shape=block_shape)


def load_labels(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # numpy warns on a file without labels; the check below rejects it.
            warnings.simplefilter("ignore", UserWarning)
            labels = np.loadtxt(path, dtype=int, ndmin=1)
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: cannot read integer labels: {exc}") from exc
    if labels.size == 0:
        raise DataError(f"{path}: no labels")
    return labels


def write_labels(path, labels) -> None:
    write_file(path, "".join(f"{v}\n" for v in np.asarray(labels, dtype=int).tolist()).encode())


def load_boundaries(path, n_samples: int) -> list[tuple[int, int]]:
    """Half-open [start, end) sequence ranges; must partition [0, n_samples)."""
    spans = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                start, end = line.split()
                spans.append((int(start), int(end)))
    except (OSError, ValueError) as exc:
        raise DataError(f"{path}: boundary lines need integers 'start end': {exc}") from exc
    cursor = 0
    for start, end in spans:
        if start != cursor or end <= start:
            raise DataError(f"{path}: boundaries do not partition [0, {n_samples})")
        cursor = end
    if cursor != n_samples:
        raise DataError(f"{path}: boundaries cover [0, {cursor}), expected {n_samples}")
    return spans


def write_boundaries(path, spans) -> None:
    write_file(path, "".join(f"{start} {end}\n" for start, end in spans).encode())


def save_leaves(path, leaves: LeafSet) -> None:
    writer = Writer(LEAVES_MAGIC, FORMAT_VERSION)
    writer.matrices(leaves.bases)
    writer.save(path)


def load_leaves(path) -> LeafSet:
    reader = Reader(path, LEAVES_MAGIC, FORMAT_VERSION, "leaf-basis file")
    bases = reader.matrices()
    reader.done()
    return LeafSet(bases)


def load_sequence_dataset(directory) -> list[SequenceSample]:
    """Load features.bin + boundaries.txt + labels.txt from a dataset directory."""
    directory = Path(directory)
    fm = load_feature_matrix(directory / "features.bin")
    labels = load_labels(directory / "labels.txt")
    spans = load_boundaries(directory / "boundaries.txt", fm.n_samples)
    if len(labels) != len(spans):
        raise DataError(f"{directory}: one label per sequence expected")
    return [
        SequenceSample(features=fm.data[:, start:end], label=int(lbl))
        for (start, end), lbl in zip(spans, labels)
    ]


def save_sequence_dataset(directory, samples: list[SequenceSample]) -> None:
    directory = Path(directory)
    make_dir(directory)
    data = np.hstack([s.features for s in samples])
    spans = []
    cursor = 0
    for s in samples:
        spans.append((cursor, cursor + s.length))
        cursor += s.length
    write_feature_bin(directory / "features.bin", data)
    write_boundaries(directory / "boundaries.txt", spans)
    write_labels(directory / "labels.txt", [s.label for s in samples])

