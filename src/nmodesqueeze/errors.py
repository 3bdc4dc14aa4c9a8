"""Exception types shared across the package, and the checks of the mode
count and of the squeezing parameter.

The CLI maps these onto exit codes: usage problems exit 2, resource-guard
violations exit 3, numeric failures and truncation errors exit 4.
"""

import math
import sys

# Overflow guard: cosh(2 * LAMBDA_GUARD * max|eig|) must stay representable.
LAMBDA_GUARD = 20.0

# Largest mode count: n exp(4 LAMBDA_GUARD), the all-entries sum of the
# inverse Gram matrix at the lambda guard, must stay a finite float.
MODE_GUARD = int(sys.float_info.max / math.exp(4.0 * LAMBDA_GUARD))


class ModeCountError(ValueError):
    """Mode count outside the supported range, 2 <= n <= MODE_GUARD."""


class ParameterRangeError(ValueError):
    """Squeezing parameter not finite, or outside its overflow guard
    (|lambda| <= 20; 40 for the standard two-mode baseline)."""


class ResourceLimitError(RuntimeError):
    """Requested truncated Fock space, or a Wigner grid, exceeds its guard."""


class TruncationError(RuntimeError):
    """Displacement pushes significant state mass past the Fock cutoff."""


class NumericFailureError(RuntimeError):
    """A Fock evolution (``FockOperator.evolve``) met a non-finite generator
    1-norm or amplitude.  The CLI makes every such call inside ``verify``,
    which reports it as a failed check."""


def check_modes(n: int) -> None:
    """Raise ModeCountError unless 2 <= n <= MODE_GUARD."""
    if n < 2:
        raise ModeCountError(f"need at least 2 modes, got n={n}")
    if n > MODE_GUARD:
        # n itself may be too large to print or to convert to a float
        raise ModeCountError(
            f"need at most {MODE_GUARD:.6e} modes, so that n exp(4 * {LAMBDA_GUARD:g}) is a "
            f"finite float, got n of about 1e{math.log10(n):.1f}"
        )


def check_lambda(lam: float, guard: float = math.inf) -> None:
    """Raise ParameterRangeError unless lambda is finite and |lambda| <= guard."""
    if not math.isfinite(lam):
        raise ParameterRangeError(f"lambda must be finite, got {lam}")
    if abs(lam) > guard:
        raise ParameterRangeError(f"|lambda| <= {guard} required, got {lam}")
