"""Collective quadrature variances of the n-mode squeezed vacuum, and the
scalars of the standard two-mode baseline.

X1 = sum Q_i / sqrt(2n) and X2 = sum P_i / sqrt(2n) have variances
exp(-4 lambda)/4 and exp(+4 lambda)/4 whatever the mode count.  Each route
here is two ``math.exp`` calls on plain floats, so this module imports no
numpy and builds no coupling: the ``variances`` and ``baseline`` commands
run on it alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import LAMBDA_GUARD, check_lambda, check_modes


class VariancePair(NamedTuple):
    """Variances of the collective quadratures X1 and X2.

    Both routes below give a positive pair that saturates the uncertainty
    product varX1 * varX2 = 1/16: the tests hold each within 2 ulp of a
    60-digit reference over the accepted range.
    """

    varX1: float
    varX2: float


def variances_matrix_sum(n: int, lam: float) -> VariancePair:
    """Collective variances from the all-entries sums of the Gram matrix.

    (Delta X1)^2 = sum_ij gram_ij / 4n and (Delta X2)^2 uses the inverse
    Gram matrix.  Every row of the circulant exp(-+2 lambda A) sums to its
    value exp(-+2 lambda * 2) on the all-ones eigenvalue 2, so this is the
    closed form of ``variances_closed`` taken in another order, with no
    n x n array and nothing to cancel; ``verification._literal_variances``,
    which sums the dense matrices, is its independent oracle.

    Raises
    ------
    ModeCountError
        If n is outside 2 <= n <= MODE_GUARD.
    ParameterRangeError
        If lambda is not finite or |lambda| exceeds the overflow guard.
    """
    check_modes(n)
    check_lambda(lam, LAMBDA_GUARD)
    return VariancePair(
        varX1=float(n * math.exp(-2.0 * lam * 2.0)) / (4.0 * n),
        varX2=float(n * math.exp(2.0 * lam * 2.0)) / (4.0 * n),
    )


def variances_closed(lam: float) -> VariancePair:
    """Closed-form collective variances exp(-4 lambda)/4 and exp(+4 lambda)/4.

    Independent of the mode count; must agree with
    ``variances_matrix_sum`` for every n.
    """
    check_lambda(lam, LAMBDA_GUARD)
    return VariancePair(varX1=math.exp(-4.0 * lam) / 4.0, varX2=math.exp(4.0 * lam) / 4.0)


def baseline_scalars(lam: float) -> tuple[float, float]:
    """sech(lambda) and -tanh(lambda), the norm and pair coefficient of the
    standard two-mode squeezed vacuum, for |lambda| <= 2 LAMBDA_GUARD: the
    n = 2 cyclic member reproduces it at 2 lambda, within its own guard."""
    check_lambda(lam, 2 * LAMBDA_GUARD)
    return 1.0 / math.cosh(lam), -math.tanh(lam)
