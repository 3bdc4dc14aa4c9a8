"""Normally ordered squeeze operator, squeezed vacua, and the
three- and four-mode closed scalars.

The squeeze factors into
    prefactor * exp(at~ creMat at / 2) * :exp(at~ crossMat a): * exp(a~ annMat a / 2)
with the paper's creMat = Lambda Ninv Lambda~ - I = -tanh(lambda A), crossMat =
Lambda Ninv - I = sech(lambda A) - I, annMat = Ninv - I = tanh(lambda A) and,
as sum_k a_k = 0, prefactor = prod_k sech(lambda a_k)^(1/2).  Each block is one
circulant built from the spectrum a_k, the prefactor a sum of log sech; verify
checks creMat against its product.  On the vacuum only the creation factor
survives: norm * exp(at~ F at / 2)|0> with F = creMat, norm = prefactor.  Both
carry sech2 = 1 - f_k^2, which float64 holds where f_k = tanh rounds to 1.
A state is checked only where ``fockoracle.two_photon_expand`` reads it, since
a caller may build one by hand.

``three_mode_closed`` / ``four_mode_closed`` carry the hand-derived n = 3/4
scalars (Gram entries, state coefficients, inverse-N pattern; the closed
Wigner functions are in ``gaussian``) to compare with the generic pipeline.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coupling import SqueezeKernel, matrix_function
from .errors import LAMBDA_GUARD, check_lambda
from .variances import baseline_scalars


class NormalOrderedForm(NamedTuple):
    """Prefactor and coefficient matrices of the factored squeeze, and the
    spectrum sech2 = 1 - f_k^2 of the creation block."""

    prefactor: float
    creMat: np.ndarray
    crossMat: np.ndarray
    annMat: np.ndarray
    sech2: np.ndarray


class TwoPhotonState(NamedTuple):
    """norm * exp(at~ F at / 2)|0> with symmetric two-photon matrix F and
    sech2 = 1 - f_k^2 over its eigenvalues f_k; ``two_photon_expand``
    refuses a state that breaks this."""

    norm: float
    F: np.ndarray
    sech2: np.ndarray

    @property
    def n(self) -> int:
        return self.F.shape[0]


class ThreeModeClosed(NamedTuple):
    """Hand-derived n = 3 scalars: Gram entries u, v and state coefficients A1-A3."""

    lam: float
    u: float
    v: float
    A1: float
    A2: float
    A3: float


class FourModeClosed(NamedTuple):
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


def normal_form(kernel: SqueezeKernel) -> NormalOrderedForm:
    """Coefficient matrices of the normally ordered squeeze, each one
    circulant function of A, and the prefactor as a sum of log sech."""
    lam, coupling = kernel.lam, kernel.coupling
    x = np.abs(lam * coupling.eigenvalues)
    log_sech = math.log(2.0) - x - np.log1p(np.exp(-2.0 * x))  # finite at every finite x
    tanh = matrix_function(coupling, lambda a: np.tanh(lam * a))
    return NormalOrderedForm(
        prefactor=math.exp(0.5 * float(np.sum(log_sech))),
        creMat=-tanh,
        crossMat=matrix_function(coupling, lambda a: 1.0 / np.cosh(lam * a) - 1.0),
        annMat=tanh,
        sech2=np.cosh(x) ** -2.0,
    )


def squeezed_vacuum(kernel: SqueezeKernel) -> TwoPhotonState:
    """Squeezed vacuum as a two-photon state: F is the creation block of
    the normal form and the norm is its prefactor."""
    form = normal_form(kernel)
    return TwoPhotonState(norm=form.prefactor, F=form.creMat, sech2=form.sech2)


def baseline_two_mode(lam: float) -> TwoPhotonState:
    """Standard two-mode squeezed vacuum sech(lambda) exp(-a1~ a2~ tanh lambda)|00>,
    the comparison target for the enhancement claim, from
    ``variances.baseline_scalars`` (|lambda| <= 2 LAMBDA_GUARD)."""
    norm, f = baseline_scalars(lam)
    F = np.array([[0.0, f], [f, 0.0]])
    return TwoPhotonState(norm=norm, F=F, sech2=np.full(2, math.cosh(lam) ** -2))


def three_mode_closed(lam: float) -> ThreeModeClosed:
    """Hand-derived three-mode scalars at |lambda| <= LAMBDA_GUARD, the
    range of the generic pipeline they are checked against."""
    check_lambda(lam, LAMBDA_GUARD)
    return ThreeModeClosed(
        lam=lam,
        u=(2.0 / 3.0) * math.exp(2.0 * lam) + (1.0 / 3.0) * math.exp(-4.0 * lam),
        v=(1.0 / 3.0) * math.exp(-4.0 * lam) - (1.0 / 3.0) * math.exp(2.0 * lam),
        A1=(1.0 - 1.0 / math.cosh(2.0 * lam)) * math.tanh(lam),
        A2=math.sinh(3.0 * lam) / (2.0 * math.cosh(lam) * math.cosh(2.0 * lam)),
        A3=(1.0 / math.cosh(lam)) * math.cosh(2.0 * lam) ** -0.5,
    )


def four_mode_closed(lam: float) -> FourModeClosed:
    """Hand-derived four-mode scalars at |lambda| <= LAMBDA_GUARD, the
    range of the generic pipeline they are checked against."""
    check_lambda(lam, LAMBDA_GUARD)
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
