"""Accuracy of both variance routes against an independent 60-digit oracle."""

import math
from decimal import Decimal, localcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from nmodesqueeze import variances_closed, variances_matrix_sum

# Bounds in units in the last place of the correctly rounded value, fixed
# before the first run: the closed form rounds once in exp (the factors 4
# are exact), the matrix sum also in n * exp and in the division by 4n.
CLOSED_ULPS = 1.0
MATRIX_SUM_ULPS = 2.0


def _reference(lam: float) -> tuple[Decimal, Decimal]:
    """exp(-4 lambda)/4 and exp(+4 lambda)/4 at 60 digits, from the exact
    decimal value of lambda."""
    with localcontext() as ctx:
        ctx.prec = 60
        four_lam = 4 * Decimal(lam)
        return (-four_lam).exp() / 4, four_lam.exp() / 4


def _ulps(value: float, exact: Decimal) -> float:
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


@settings(derandomize=True, deadline=None, max_examples=500)
@given(n=st.integers(2, 10**12), magnitude=st.floats(0.0, 20.0), sign=st.sampled_from([1, -1]))
def test_variance_routes_within_their_ulp_bounds(n, magnitude, sign):
    lam = sign * magnitude
    exact_x1, exact_x2 = _reference(lam)
    by_sum = variances_matrix_sum(n, lam)
    closed = variances_closed(lam)
    assert _ulps(by_sum.varX1, exact_x1) <= MATRIX_SUM_ULPS
    assert _ulps(by_sum.varX2, exact_x2) <= MATRIX_SUM_ULPS
    assert _ulps(closed.varX1, exact_x1) <= CLOSED_ULPS
    assert _ulps(closed.varX2, exact_x2) <= CLOSED_ULPS
