"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 2, resource-guard
violations exit 3, numeric failures and truncation errors exit 4.
"""


class ModeCountError(ValueError):
    """Mode count outside the supported range (n >= 2 for couplings)."""


class ParameterRangeError(ValueError):
    """Squeezing parameter outside the overflow guard |lambda| <= 20."""


class ResourceLimitError(RuntimeError):
    """Requested truncated Fock space, or a Wigner grid, exceeds its guard."""


class TruncationError(RuntimeError):
    """Displacement pushes significant state mass past the Fock cutoff."""


class NumericFailureError(RuntimeError):
    """An eigensolver or other numeric kernel failed to converge."""
