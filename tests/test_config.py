import numpy as np
import pytest

from realform.config import DEFAULT_TOLERANCES, Tolerances


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0, True, "1e-3", None])
def test_tolerances_positive_and_finite(value):
    with pytest.raises(ValueError, match="cr_tol"):
        Tolerances(cr_tol=value)
    with pytest.raises(ValueError, match="rank_tol"):
        DEFAULT_TOLERANCES.override(rank_tol=value)


@pytest.mark.parametrize("value", [np.float64(1e-3), np.float32(1e-3), np.int64(1), 1])
def test_tolerances_accept_numpy_scalars_and_ints(value):
    assert Tolerances(cr_tol=value).cr_tol == value
