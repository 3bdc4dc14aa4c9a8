"""Cyclically coupled n-mode squeezing toolkit.

Builds the nearest-neighbour cyclic coupling matrix, the squeeze kernel
(matrix functions of the coupling), the normally ordered operator and its
squeezed vacuum, collective quadrature variances, Gaussian Wigner
functions, the hand-derived three- and four-mode closed forms, and a
truncated Fock-space brute force that cross-checks all of it.  numpy is
the only dependency, and the collective variances do without it.

Importing the package imports none of its modules: each of the 46 names
below loads its module on first use, so a command pays only for the
modules it reads (``variances`` loads only ``errors`` and ``variances``,
and no numpy).
"""

import importlib

# Every re-exported name and the module that defines it.  Each access
# resolves through the module, never a copy in this namespace: a wrapper
# set on a module attribute after import is what callers get.
_EXPORTS = {
    name: module
    for module, names in {
        "coupling": (
            "CouplingMatrix",
            "SqueezeKernel",
            "build_coupling",
            "build_kernel",
            "expm_taylor",
            "matrix_function",
            "sum_identities",
        ),
        "errors": (
            "ModeCountError",
            "NumericFailureError",
            "ParameterRangeError",
            "ResourceLimitError",
            "TruncationError",
        ),
        "gaussian": (
            "GaussianWigner",
            "alpha_rows",
            "normalization_by_quadrature",
            "wigner3_closed",
            "wigner4_closed",
            "wigner_from_kernel",
            "wigner_value_alpha",
            "wigner_values",
        ),
        "variances": (
            "VariancePair",
            "variances_closed",
            "variances_matrix_sum",
        ),
        "normalform": (
            "FourModeClosed",
            "NormalOrderedForm",
            "ThreeModeClosed",
            "TwoPhotonState",
            "baseline_two_mode",
            "four_mode_closed",
            "normal_form",
            "squeezed_vacuum",
            "three_mode_closed",
        ),
        "fockoracle": (
            "FockOperator",
            "FockSpace",
            "FockTensor",
            "assemble_normal_form",
            "build_space",
            "evolve_vacuum",
            "generator",
            "normalized",
            "overlap",
            "tail_mass",
            "two_photon_expand",
            "vacuum",
            "variance_numeric",
            "wigner_numeric",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


__version__ = "0.1.0"
