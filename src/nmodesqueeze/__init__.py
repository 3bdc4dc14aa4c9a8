"""Cyclically coupled n-mode squeezing toolkit.

Builds the nearest-neighbour cyclic coupling matrix, the squeeze kernel
(matrix functions of the coupling), the normally ordered operator and its
squeezed vacuum, collective quadrature variances, Gaussian Wigner
functions, the hand-derived three- and four-mode closed forms, and a
truncated Fock-space brute force that cross-checks all of it.  The Fock
names (``evolve_vacuum`` and the rest of ``fockoracle``) load on first use,
so importing the package does not import the oracle.  numpy is the only
dependency.
"""

from .coupling import (
    CouplingMatrix,
    SqueezeKernel,
    build_coupling,
    build_kernel,
    entry_sum,
    expm_taylor,
    matrix_function,
    sum_identities,
)
from .errors import (
    ModeCountError,
    NumericFailureError,
    ParameterRangeError,
    ResourceLimitError,
    TruncationError,
)
from .gaussian import (
    GaussianWigner,
    VariancePair,
    alpha_rows,
    covariance_matrix,
    heisenberg_transforms,
    normalization_by_quadrature,
    variances_closed,
    variances_matrix_sum,
    wigner_from_kernel,
    wigner_q_marginal,
    wigner_value_alpha,
    wigner_values,
)
from .normalform import (
    FourModeClosed,
    NormalOrderedForm,
    ThreeModeClosed,
    TwoPhotonState,
    baseline_two_mode,
    four_mode_closed,
    normal_form,
    squeezed_vacuum,
    three_mode_closed,
    wigner3_closed,
    wigner4_closed,
)

# Only verify and state --cutoff need the Fock oracle, so its names load on
# first use.
# Each access resolves through the module, never a copy in this namespace:
# a wrapper set on a fockoracle attribute after import is what callers get.
_FOCK_NAMES = frozenset({
    "FockOperator",
    "FockSpace",
    "FockTensor",
    "assemble_normal_form",
    "build_space",
    "evolve_vacuum",
    "generator",
    "ladder_ops",
    "normalized",
    "overlap",
    "tail_mass",
    "two_photon_expand",
    "vacuum",
    "variance_numeric",
    "wigner_numeric",
})


def __getattr__(name: str):
    if name in _FOCK_NAMES:
        from . import fockoracle

        return getattr(fockoracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
