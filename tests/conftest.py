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
