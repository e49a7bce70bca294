import importlib.util
from pathlib import Path

import numpy as np
import pytest

from realform.config import DEFAULT_TOLERANCES
from realform.projlin import EigenSystem, ProjPoint


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    """``scripts/<name>.py`` loaded as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def cfg():
    return DEFAULT_TOLERANCES


def eigensystem(info):
    """The EigenSystem of a prepared generator, one ProjPoint per direction."""
    return EigenSystem.from_rows(info.eigenvalues, info.rows, info.matrix)


def pp(*coords):
    return ProjPoint(list(coords))


def random_diagonalizable(rng, k, kind="hyperbolic"):
    """Random matrix with clean spectrum of the requested type."""
    from realform.oracle import _generator

    return _generator(rng, k, kind)


def random_invertible(rng, k, complex_=True, max_cond=20.0):
    while True:
        m = rng.normal(size=(k, k))
        if complex_:
            m = m + 1j * rng.normal(size=(k, k))
        if np.linalg.cond(m) < max_cond:
            return m


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)


# the worked 2x2 collection preserving the unit circle
def unit_circle_collection():
    a = np.array([[3j - 1, 3j - 3], [-3j - 3, -3j - 1]])
    b = np.array([[3j + 1, -3j - 3], [3j - 3, -3j + 1]])
    c = np.array([[1 + 1j, 0], [0, 1 - 1j]])
    d = np.array([[-2 + 5j, -3], [-3, -2 - 5j]])
    return [a, b, c, d]


# two rotations of the sphere with no common invariant circle
def no_common_circle_pair():
    a = np.array([[2 + 1j, 0], [0, 2 - 1j]])
    b = np.array([[1, -1j], [-1j, 1]])
    return [a, b]
