"""The one record codec behind the package's binary formats.

Every file starts with a 4-byte magic and a u32 version. The fields after
it are little-endian `struct` fields, typed arrays, index arrays (u32
count, then u32 entries) and counted float64 matrices (u32 count, then
per matrix u32 rows, u32 cols and the row-major data). The reader checks
every field against the bytes that remain, every index against its bound,
and that nothing follows the last field; each failure, an unreadable
file included, is a DataError, as is a path `write_file` or `make_dir`
cannot write.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import DataError


def write_file(path, data: bytes) -> None:
    """Write `data` to `path`; an unwritable path is a DataError naming it."""
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc}") from exc


def make_dir(path) -> None:
    """Create directory `path` and its parents; an unwritable path is a DataError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc}") from exc


class Writer:
    """Collects one file's fields in memory; `save` writes them out."""

    def __init__(self, magic: bytes, version: int):
        self._parts = [magic, struct.pack("<I", version)]

    def fields(self, fmt: str, *values) -> None:
        self._parts.append(struct.pack("<" + fmt, *values))

    def array(self, values, dtype: str) -> None:
        self._parts.append(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def indices(self, values) -> None:
        self.fields("I", len(values))
        self.array(values, "<u4")

    def matrices(self, mats) -> None:
        self.fields("I", len(mats))
        for mat in mats:
            self.matrix(mat)

    def matrix(self, mat) -> None:
        self.fields("II", *np.shape(mat))
        self.array(mat, "<f8")

    def save(self, path) -> None:
        write_file(path, b"".join(self._parts))


class Reader:
    """Reads one whole file, checking its magic and version on open."""

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.source = path
        try:
            self._raw = Path(path).read_bytes()
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise DataError(f"{path}: cannot read {what}: {exc}") from exc
        if self._raw[:4] != magic:
            raise DataError(f"{path}: not a {what} (bad magic)")
        self._pos = 4
        (found,) = self.fields("I")
        if found != version:
            raise DataError(f"{path}: unsupported {what} version {found}")

    def _take(self, size: int) -> int:
        start = self._pos
        if size > len(self._raw) - start:
            raise DataError(
                f"{self.source}: truncated: {size} bytes needed at offset {start}, "
                f"{len(self._raw) - start} left"
            )
        self._pos += size
        return start

    def fields(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack_from(fmt, self._raw, self._take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        """A C-contiguous copy of `count` values."""
        dtype = np.dtype(dtype)
        start = self._take(dtype.itemsize * count)
        return np.frombuffer(self._raw, dtype, count, start).copy()

    def indices(self, bound: int, count: int | None = None) -> np.ndarray:
        """Index array with every entry below `bound`; reads a u32 count if none is given."""
        if count is None:
            (count,) = self.fields("I")
        idx = self.array("<u4", count).astype(int)
        if count and idx.max() >= bound:
            raise DataError(f"{self.source}: index {idx.max()} out of range [0, {bound})")
        return idx

    def matrices(self) -> list[np.ndarray]:
        (count,) = self.fields("I")
        return [self.matrix() for _ in range(count)]

    def matrix(self) -> np.ndarray:
        rows, cols = self.fields("II")
        return self.array("<f8", rows * cols).reshape(rows, cols)

    def done(self) -> None:
        if self._pos != len(self._raw):
            raise DataError(
                f"{self.source}: {len(self._raw) - self._pos} trailing bytes "
                f"after offset {self._pos}"
            )
