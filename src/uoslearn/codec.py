"""The one record codec behind the package's binary formats.

Every file starts with a 4-byte magic and a u32 version. The fields after
it are little-endian `struct` fields, typed arrays, index arrays (u32
count, then u32 entries) and counted float64 matrices (u32 count, then
per matrix u32 rows, u32 cols and the row-major data). The reader reads
each field from the open file in one pass, so a load holds one copy of
the payload; a pipe, which has no size until it is read, is read whole
first. It checks every declared size against the bytes that remain
before it allocates, every index against its bound, and that nothing
follows the last field; each failure, an unreadable file included, is a
DataError, as is a path `write_file` or `make_dir` cannot write. A file
`write_file` writes is either written whole or left as it was.
"""

from __future__ import annotations

import io
import os
import stat
import struct
from pathlib import Path

import numpy as np

from .errors import DataError, UosError


def write_file(path, *parts) -> None:
    """Write `parts` (bytes, or C-contiguous arrays) to `path` one after
    another, all or nothing; an unwritable path is a DataError naming it.

    The parts go to a new sibling file, which then replaces the target: a
    write that fails or is interrupted removes the sibling and leaves the
    target as it was. A symlink keeps pointing at the replaced file, and a
    file that existed keeps its permission bits. A target that exists and
    is not a regular file (a FIFO, /dev/stderr) is written in place, since
    replacing it would replace the node.
    """
    try:
        try:
            mode = os.stat(path).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            with open(path, "wb") as fh:
                fh.writelines(parts)
            return
        # After the check: /dev/stdout on a pipe resolves to no file.
        target = os.path.realpath(path)
        head, name = os.path.split(target)
        sibling = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
        fh = open(sibling, "xb")
        try:
            with fh:
                fh.writelines(parts)
            if mode is not None:
                os.chmod(sibling, stat.S_IMODE(mode))
            os.replace(sibling, target)
        except BaseException:  # KeyboardInterrupt too: no sibling is left behind
            try:
                os.unlink(sibling)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc}") from exc


def make_dir(path) -> None:
    """Create directory `path` and its parents; an unwritable path is a DataError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"{path}: cannot write: {exc}") from exc


class Writer:
    """Collects one file's fields; `save` writes them out one after another."""

    def __init__(self, magic: bytes, version: int):
        self._parts = [magic, struct.pack("<I", version)]

    def fields(self, fmt: str, *values) -> None:
        self._parts.append(struct.pack("<" + fmt, *values))

    def array(self, values, dtype: str) -> None:
        """Append `values`; an array already C-contiguous in `dtype` is not
        copied, so it must not change before `save`."""
        self._parts.append(np.ascontiguousarray(values, dtype=dtype))

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
        write_file(path, *self._parts)


class Reader:
    """Reads one file field by field, checking its magic and version on open.

    The file is closed by `done`, by every error the reader raises, and on
    leaving a `with` block, so a caller whose own check fails partway
    through the file closes it by reading inside `with`, where any package
    error that does not name the file leaves as a DataError naming it.
    """

    def __init__(self, path, magic: bytes, version: int, what: str):
        self.source = path
        try:
            self._file = open(path, "rb")
            info = os.fstat(self._file.fileno())
            if stat.S_ISREG(info.st_mode):
                self._size = info.st_size
            else:  # a pipe or a device has no size until it is read: read it once
                with self._file:
                    raw = self._file.read()
                self._file, self._size = io.BytesIO(raw), len(raw)
        except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
            raise DataError(f"{path}: cannot read {what}: {exc}") from exc
        if self._file.read(4) != magic:
            self._fail(f"not a {what} (bad magic)")
        self._pos = 4
        (found,) = self.fields("I")
        if found != version:
            self._fail(f"unsupported {what} version {found}")

    def __enter__(self) -> Reader:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        if isinstance(exc, UosError) and not str(exc).startswith(f"{self.source}: "):
            raise DataError(f"{self.source}: {exc}") from exc

    def close(self) -> None:
        self._file.close()

    def _fail(self, message: str):
        self.close()
        raise DataError(f"{self.source}: {message}")

    def need(self, size: int) -> None:
        """Raise a truncation DataError unless `size` bytes remain; reads nothing."""
        if size > self._size - self._pos:
            self._truncated(size, self._size - self._pos)

    def _truncated(self, size: int, left: int):
        self._fail(f"truncated: {size} bytes needed at offset {self._pos}, {left} left")

    def _advance(self, got: int, size: int) -> None:
        if got != size:  # the file shrank after it was opened
            self._truncated(size, got)
        self._pos += size

    def fields(self, fmt: str) -> tuple:
        fmt = "<" + fmt
        size = struct.calcsize(fmt)
        self.need(size)
        data = self._file.read(size)
        self._advance(len(data), size)
        return struct.unpack(fmt, data)

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Read the next `out.nbytes` bytes into the C-contiguous array `out`."""
        self.need(out.nbytes)
        self._advance(self._file.readinto(out), out.nbytes)
        return out

    def array(self, dtype: str, count: int) -> np.ndarray:
        """`count` values read into a new C-contiguous array."""
        dtype = np.dtype(dtype)
        self.need(dtype.itemsize * count)
        return self.fill(np.empty(count, dtype))

    def indices(self, bound: int, count: int | None = None) -> np.ndarray:
        """Index array with every entry below `bound`; reads a u32 count if none is given."""
        if count is None:
            (count,) = self.fields("I")
        idx = self.array("<u4", count).astype(int)
        if count and idx.max() >= bound:
            self._fail(f"index {idx.max()} out of range [0, {bound})")
        return idx

    def matrices(self) -> list[np.ndarray]:
        (count,) = self.fields("I")
        return [self.matrix() for _ in range(count)]

    def matrix(self) -> np.ndarray:
        rows, cols = self.fields("II")
        return self.array("<f8", rows * cols).reshape(rows, cols)

    def done(self) -> None:
        """Check that no bytes follow the last field read, and close the file."""
        if self._pos != self._size:
            self._fail(f"{self._size - self._pos} trailing bytes after offset {self._pos}")
        self.close()
