import pytest

from realform.config import DEFAULT_TOLERANCES, Tolerances


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
def test_tolerances_positive_and_finite(value):
    with pytest.raises(ValueError, match="cr_tol"):
        Tolerances(cr_tol=value)
    with pytest.raises(ValueError, match="rank_tol"):
        DEFAULT_TOLERANCES.override(rank_tol=value)
