"""Exception types shared across the package, and the one check of the
squeezing parameter.

The CLI maps these onto exit codes: usage problems exit 2, resource-guard
violations exit 3, numeric failures and truncation errors exit 4.
"""

import math


class ModeCountError(ValueError):
    """Mode count outside the supported range (n >= 2 for couplings)."""


class ParameterRangeError(ValueError):
    """Squeezing parameter not finite, or outside its overflow guard
    (|lambda| <= 20; 40 for the standard two-mode baseline)."""


class ResourceLimitError(RuntimeError):
    """Requested truncated Fock space, or a Wigner grid, exceeds its guard."""


class TruncationError(RuntimeError):
    """Displacement pushes significant state mass past the Fock cutoff."""


class NumericFailureError(RuntimeError):
    """An eigensolver or other numeric kernel failed to converge."""


def check_lambda(lam: float, guard: float = math.inf) -> None:
    """Raise ParameterRangeError unless lambda is finite and |lambda| <= guard."""
    if not math.isfinite(lam):
        raise ParameterRangeError(f"lambda must be finite, got {lam}")
    if abs(lam) > guard:
        raise ParameterRangeError(f"|lambda| <= {guard} required, got {lam}")
