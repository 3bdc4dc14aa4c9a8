"""Normally ordered squeeze operator, squeezed vacua, and the
three- and four-mode closed forms.

The squeeze factors into
    prefactor * exp(at~ creMat at / 2) * :exp(at~ crossMat a): * exp(a~ annMat a / 2)
with creMat = Lambda Ninv Lambda~ - I, crossMat = Lambda Ninv - I and
annMat = Ninv - I.  Acting on the vacuum only the creation factor
survives, giving the two-photon state norm * exp(at~ F at / 2)|0> with
F = creMat.  The coefficient matrices are assembled from the kernel's
matrix products here; the equivalent form F = -tanh(lambda A) is left to
the tests to confirm rather than assumed.

``three_mode_closed`` / ``four_mode_closed`` carry the hand-derived n = 3
and n = 4 scalars (Gram entries, state coefficients, inverse-N pattern) as
plain numbers so each one can be compared against the generic pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import SqueezeKernel
from .errors import ParameterRangeError


@dataclass(frozen=True)
class NormalOrderedForm:
    """Prefactor and coefficient matrices of the factored squeeze."""

    prefactor: float
    creMat: np.ndarray
    crossMat: np.ndarray
    annMat: np.ndarray

    def __post_init__(self):
        for name in ("creMat", "annMat"):
            mat = getattr(self, name)
            if np.max(np.abs(mat - mat.T)) > 1e-12:
                raise ValueError(f"{name} must be symmetric")
        # Normalizability of the vacuum image: spectral radius of the
        # creation block strictly below 1.
        if np.max(np.abs(np.linalg.eigvalsh(self.creMat))) >= 1.0:
            raise ValueError("creation coefficients must lie strictly inside (-1, 1)")


@dataclass(frozen=True)
class TwoPhotonState:
    """norm * exp(at~ F at / 2)|0> with symmetric two-photon matrix F."""

    n: int
    norm: float
    F: np.ndarray

    def __post_init__(self):
        if self.F.shape != (self.n, self.n):
            raise ValueError("F must be n x n")
        if np.max(np.abs(self.F - self.F.T)) > 1e-12:
            raise ValueError("two-photon matrix must be symmetric")
        f_eigs = np.linalg.eigvalsh(self.F)
        if np.max(np.abs(f_eigs)) >= 1.0:
            raise ValueError("two-photon matrix needs spectral radius < 1")
        unit_norm = float(np.prod(1.0 - f_eigs**2) ** 0.25)
        if abs(self.norm - unit_norm) > 1e-8:
            raise ValueError(
                f"norm {self.norm} does not match det(1 - F F~)^(1/4) = {unit_norm}"
            )


@dataclass(frozen=True)
class ThreeModeClosed:
    """Hand-derived n = 3 scalars: Gram entries u, v and state coefficients A1-A3."""

    lam: float
    u: float
    v: float
    A1: float
    A2: float
    A3: float

    def __post_init__(self):
        if abs(self.u + 2.0 * self.v - math.exp(-4.0 * self.lam)) > 1e-12:
            raise ValueError("row sum u + 2v must equal exp(-4 lambda)")
        if abs(self.A3**2 * math.cosh(2 * self.lam) * math.cosh(self.lam) ** 2 - 1.0) > 1e-10:
            raise ValueError("A3 normalization identity violated")


@dataclass(frozen=True)
class FourModeClosed:
    """Hand-derived n = 4 scalars: Gram pattern r, s, t, the inverse-N pattern
    (diagonal, nearest, opposite) and the state norm/tanh factors."""

    lam: float
    r: float
    s: float
    t: float
    ninv_diag: float
    ninv_near: float
    ninv_far: float
    detN: float
    stateNorm: float
    stateTanh: float

    def __post_init__(self):
        if abs(self.r - self.s - 1.0) > 1e-12:
            raise ValueError("r - s must equal 1")
        if abs(self.r + self.s + 2.0 * self.t - math.exp(-4.0 * self.lam)) > 1e-12:
            raise ValueError("row sum r + s + 2t must equal exp(-4 lambda)")
        if abs(self.detN - self.r) > 1e-12:
            raise ValueError("det N must equal r")


def normal_form(kernel: SqueezeKernel) -> NormalOrderedForm:
    """Coefficient matrices of the normally ordered squeeze.

    Everything is built from the kernel's Lambda and Nmat by plain matrix
    products; symmetry of Lambda collapses Lambda~ to Lambda.
    """
    n = kernel.coupling.n
    eye = np.eye(n)
    lam_ninv = kernel.Lambda @ kernel.NmatInv
    cre = lam_ninv @ kernel.Lambda.T - eye
    cre = (cre + cre.T) / 2.0  # symmetrize away products' rounding skew
    return NormalOrderedForm(
        prefactor=math.sqrt(kernel.detLambda / kernel.detN),
        creMat=cre,
        crossMat=lam_ninv - eye,
        annMat=kernel.NmatInv - eye,
    )


def squeezed_vacuum(kernel: SqueezeKernel) -> TwoPhotonState:
    """Squeezed vacuum as a two-photon state: F is the creation block of
    the normal form and the norm is its prefactor."""
    form = normal_form(kernel)
    return TwoPhotonState(n=kernel.coupling.n, norm=form.prefactor, F=form.creMat)


def baseline_two_mode(lam: float) -> TwoPhotonState:
    """Standard two-mode squeezed vacuum sech(lambda) exp(-a1~ a2~ tanh lambda)|00>.

    Comparison target for the enhancement claim: the n = 2 member of the
    cyclic family at lambda reproduces this baseline at 2 lambda.
    """
    if not math.isfinite(lam):
        raise ParameterRangeError(f"lambda must be finite, got {lam}")
    F = np.array([[0.0, -math.tanh(lam)], [-math.tanh(lam), 0.0]])
    return TwoPhotonState(n=2, norm=1.0 / math.cosh(lam), F=F)


def three_mode_closed(lam: float) -> ThreeModeClosed:
    """Hand-derived three-mode scalars evaluated at lambda."""
    return ThreeModeClosed(
        lam=lam,
        u=(2.0 / 3.0) * math.exp(2.0 * lam) + (1.0 / 3.0) * math.exp(-4.0 * lam),
        v=(1.0 / 3.0) * math.exp(-4.0 * lam) - (1.0 / 3.0) * math.exp(2.0 * lam),
        A1=(1.0 - 1.0 / math.cosh(2.0 * lam)) * math.tanh(lam),
        A2=math.sinh(3.0 * lam) / (2.0 * math.cosh(lam) * math.cosh(2.0 * lam)),
        A3=(1.0 / math.cosh(lam)) * math.cosh(2.0 * lam) ** -0.5,
    )


def _alpha_rows(alpha: np.ndarray, n: int) -> np.ndarray:
    """alpha of shape (n,) or (m, n) as an (m, n) complex array."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != n:
        raise ValueError(f"alpha must have length {n}")
    return alpha.reshape(-1, n)


def _closed_values(expo: np.ndarray, n: int, alpha: np.ndarray) -> float | np.ndarray:
    """pi^-n exp(expo): a float for one alpha of shape (n,), the array for
    alpha rows (m, n).  The exponent is a negative definite form, so a
    non-finite one (inf - inf between overflowed terms at a far point) lies
    below the float range and gives 0."""
    expo[~np.isfinite(expo)] = -np.inf
    values = math.pi**-n * np.exp(expo)
    return float(values[0]) if np.ndim(alpha) == 1 else values


def wigner3_closed(lam: float, alpha: np.ndarray) -> float | np.ndarray:
    """Three-mode Wigner function in its hand-derived closed form.

    alpha is one point, shape (3,), giving a float, or one point per row,
    shape (m, 3), giving an array of m values.  The trailing complex
    conjugate applies to the whole secondexponent brace (both the alpha^2
    sum and the cross terms); the generic Gaussian form is the test that
    pins this reading down.
    """
    rows = _alpha_rows(alpha, 3)
    a0, a1, a2 = rows.T
    with np.errstate(over="ignore", invalid="ignore"):
        abs_sq = np.sum(np.abs(rows) ** 2, axis=1)
        alpha_sq = np.sum(rows**2, axis=1)
        cross_mixed = a0 * a1.conjugate() + a0 * a2.conjugate() + a1 * a2.conjugate()
        cross_plain = a0 * a1 + a0 * a2 + a1 * a2
        first = -(2.0 / 3.0) * (math.cosh(4 * lam) + 2.0 * math.cosh(2 * lam)) * abs_sq
        brace = -(1.0 / 3.0) * (math.sinh(4 * lam) - 2.0 * math.sinh(2 * lam)) * alpha_sq - (
            2.0 / 3.0
        ) * (
            (math.cosh(4 * lam) - math.cosh(2 * lam)) * cross_mixed
            + (math.sinh(2 * lam) + math.sinh(4 * lam)) * cross_plain
        )
        expo = first + 2.0 * brace.real
    return _closed_values(expo, 3, alpha)


def four_mode_closed(lam: float) -> FourModeClosed:
    """Hand-derived four-mode scalars evaluated at lambda."""
    c2, s2, t2 = math.cosh(2.0 * lam), math.sinh(2.0 * lam), math.tanh(2.0 * lam)
    return FourModeClosed(
        lam=lam,
        r=c2**2,
        s=s2**2,
        t=-s2 * c2,
        ninv_diag=1.0,
        ninv_near=t2 / 2.0,
        ninv_far=0.0,
        detN=c2**2,
        stateNorm=1.0 / c2,
        stateTanh=t2,
    )


def wigner4_closed(lam: float, alpha: np.ndarray) -> float | np.ndarray:
    """Four-mode Wigner function in its hand-derived closed form; alpha of
    shape (4,) gives a float, alpha rows of shape (m, 4) an array."""
    rows = _alpha_rows(alpha, 4)
    a0, a1, a2, a3 = rows.T
    c2, t2 = math.cosh(2.0 * lam), math.tanh(2.0 * lam)
    with np.errstate(over="ignore", invalid="ignore"):
        abs_sq = np.sum(np.abs(rows) ** 2, axis=1)
        opposite = a0 * a2.conjugate() + a1 * a3.conjugate()
        ring = a0 * a1 + a0 * a3 + a1 * a2 + a2 * a3
        expo = -2.0 * c2**2 * (abs_sq + 2.0 * opposite.real * t2**2 + 2.0 * ring.real * t2)
    return _closed_values(expo, 4, alpha)
