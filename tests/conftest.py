import numpy as np
import pytest

from uoslearn.errors import DataError


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_orthonormal(m, d, rng):
    q, r = np.linalg.qr(rng.standard_normal((m, d)))
    return q * np.sign(np.diag(r))


def unit_columns(data):
    data = np.asarray(data, dtype=float)
    return data / np.linalg.norm(data, axis=0)


def relative_error(x, basis) -> float:
    """Squared residual of projecting x onto the basis span, relative to ||x||^2."""
    x = np.asarray(x, dtype=float).ravel()
    sq = float(x @ x)
    if sq <= 0:
        raise DataError("cannot project a zero vector")
    resid = x - basis @ (basis.T @ x)
    return float(np.clip((resid @ resid) / sq, 0.0, 1.0))


def write_feature_csv(path, data):
    """One sample per row, the layout `datasets.read_feature_csv` reads."""
    np.savetxt(path, np.asarray(data, dtype=float).T, delimiter=",")


class _SecondWriteFails:
    """A file opened for writing whose second `write` raises `error`."""

    def __init__(self, fh, error):
        self._fh, self._error, self._writes = fh, error, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            raise self._error
        return self._fh.write(data)

    def writelines(self, parts):
        for part in parts:
            self.write(part)


def fail_second_write(monkeypatch, module, error):
    """Make the second `write` to each file `module` opens for writing raise `error`."""

    def patched_open(file, mode="r", *args, **kwargs):
        fh = open(file, mode, *args, **kwargs)
        return fh if "r" in mode else _SecondWriteFails(fh, error)

    monkeypatch.setattr(module, "open", patched_open, raising=False)
