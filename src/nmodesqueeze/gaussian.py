"""Phase-space engine: the Gaussian Wigner function of the squeezed vacuum,
with its hand-derived n = 3/4 closed forms (variances are in ``variances``).

Conventions (fixed here, used everywhere):
    Q = (a + a~)/sqrt(2),  P = (a - a~)/(i sqrt(2)),  so [Q, P] = i,
    alpha = (q + i p)/sqrt(2),
    collective quadratures X1 = sum Q_i / sqrt(2n), X2 = sum P_i / sqrt(2n),
    vacuum variance 1/4 per collective quadrature.

The squeezed vacuum is Gaussian, so its Wigner function is
    W(q, p) = pi^-n exp(-qt exp(+2 lambda A) q - pt exp(-2 lambda A) p).
A is circulant, so each exponent is read on its spectrum a_k as
(1/n) sum_k exp(+-2 lambda a_k) |fft(x)_k|^2: non-negative terms, O(n log n)
per point, no n x n matrix.  ``wigner_values`` evaluates W at the rows of
(m, n) arrays q and p; ``values_from_exponent`` reports values below
exp(-700) as exactly 0.  ``wigner_value_alpha`` takes complex amplitudes
instead, one point of shape (n,) or rows (m, n), like ``wigner3_closed`` /
``wigner4_closed`` and the Fock oracle; all read them through ``alpha_rows``,
which with that floor is all the closed forms share with the spectral route.

``normalization_by_quadrature`` integrates W by a Gauss-Hermite rule whose
nodes are the spectrum of the coordinate operator Q = (a + a~)/sqrt(2)
truncated to deg oscillator levels (Golub & Welsch): a symmetric
tridiagonal matrix, so the rule is computed here, bit for bit as
numpy.polynomial's ``hermgauss`` computes it, without loading that package.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

from .coupling import CouplingMatrix, SqueezeKernel
from .errors import check_lambda

# Log-space floor: below this the linear-scale value is reported as 0.0.
LOG_FLOOR = -700.0

# Coordinates (rows x modes) of one block of ``_spectral_form``: its FFT
# and squares are held one block at a time, a few MB, not for a whole grid.
_FORM_BLOCK = 1 << 16


def _checked_points(q, p) -> tuple[np.ndarray, np.ndarray]:
    """Float copies of q and p after the phase-point checks: 2-d arrays of
    one shape, at least 2 modes along the last axis, all finite."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.ndim != 2 or q.shape != p.shape:
        raise ValueError("q and p must be equal-length vectors")
    if q.shape[-1] < 2:
        raise ValueError("phase points need at least 2 modes")
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise ValueError("phase point entries must be finite")
    return q, p


def alpha_rows(alpha: np.ndarray, n: int) -> np.ndarray:
    """alpha of shape (n,) or (m, n) as (m, n) complex rows, after the
    phase-point checks: n modes along the last axis, all entries finite."""
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != n:
        raise ValueError(f"alpha must have length {n}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError("phase point entries must be finite")
    return alpha.reshape(-1, n)


class GaussianWigner(NamedTuple):
    """Spectral weights of the squeezed-vacuum Wigner function:
    qWeights = exp(+2 lambda a_k) and pWeights = exp(-2 lambda a_k) over the
    spectrum of A in DFT order, each (n,) or an (m, n) stack (one Wigner
    function per row of the points it is evaluated at)."""

    qWeights: np.ndarray
    pWeights: np.ndarray

    @property
    def n(self) -> int:
        return self.qWeights.shape[-1]

    @property
    def normConst(self) -> float:
        """pi^-n, the value at the origin."""
        return math.pi ** (-self.n)


def wigner_from_kernel(kernel: SqueezeKernel) -> GaussianWigner:
    """Gaussian Wigner function of the squeezed vacuum: the q form is the
    inverse Gram matrix exp(+2 lambda A), the p form the Gram matrix, each
    as weights on the spectrum of A; the peak value at the origin is pi^-n."""
    return wigner_from_coupling(kernel.coupling, kernel.lam)


def wigner_from_coupling(coupling: CouplingMatrix, lam: float | np.ndarray) -> GaussianWigner:
    """``wigner_from_kernel`` at lambda, a float, or at each of an (m,)
    array of lambdas as (m, n) weight stacks; lambda is not range-checked."""
    exponents = np.multiply.outer(2.0 * np.asarray(lam), coupling.eigenvalues)
    return GaussianWigner(qWeights=np.exp(exponents), pWeights=np.exp(-exponents))


def _spectral_form(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """xt f(A) x for each row of the (m, n) array x, from the weights f(a_k),
    one row per point or one (n,) row broadcast (a view) to every point:
    (1/n) sum_k w_k |fft(x)_k|^2, each row with the bits of its one-row
    call, evaluated in blocks of about ``_FORM_BLOCK`` coordinates.  With
    weights >= 0 nothing cancels; an overflowed square (inf) and the FFT's
    inf - inf near the float range (NaN) are both exponents past the float
    range, so NaN reads as +inf."""
    m, n = x.shape
    w = np.broadcast_to(weights, x.shape)
    rows = max(1, _FORM_BLOCK // n)
    quad = np.empty(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, m, rows):
            block = slice(first, first + rows)
            spectrum = np.fft.fft(x[block], axis=-1)
            quad[block] = np.sum(w[block] * (spectrum.real**2 + spectrum.imag**2), axis=-1) / n
    quad[np.isnan(quad)] = np.inf
    return quad


def wigner_values(wig: GaussianWigner, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Wigner values at the m points whose coordinates are the rows of the
    (m, n) arrays q and p, each in [0, pi^-n] (a row at the origin returns
    normConst exactly); below exp(-700) a value is reported as exactly 0.0.

    Each value is right up to its own point's conditioning: the FFT's
    rounding, of order eps |x|, is weighted by up to exp(4 |lambda|) on the
    antisqueezed modes (the all-ones p at n = 101 comes out 8e-5 relative
    off at lambda = 15, and 0 at lambda = 20).
    """
    q, p = _checked_points(q, p)
    if q.shape[1] != wig.n:
        raise ValueError(f"point has {q.shape[1]} modes, Wigner function has {wig.n}")
    if not {wig.qWeights.shape[:-1], wig.pWeights.shape[:-1]} <= {(), q.shape[:1]}:
        raise ValueError(f"weights must be one row or hold one row per point ({len(q)})")
    quad = _spectral_form(wig.qWeights, q) + _spectral_form(wig.pWeights, p)
    return values_from_exponent(-quad, wig.n)


def values_from_exponent(expo: np.ndarray, n: int) -> np.ndarray:
    """pi^-n exp(expo) for the exponents of an n-mode Wigner function, 0.0
    where log W < LOG_FLOOR or expo is not finite: a negative definite form
    that overflowed (inf - inf at a far point) lies below the float range."""
    values = math.pi**-n * np.exp(expo)
    values[~np.isfinite(expo) | (expo - n * math.log(math.pi) < LOG_FLOOR)] = 0.0
    return values


def wigner_value_alpha(wig: GaussianWigner, alpha: np.ndarray) -> float | np.ndarray:
    """Wigner values at complex amplitudes alpha_i = (q_i + i p_i)/sqrt(2):
    a float for one point of shape (n,), the array for rows (m, n)."""
    rows = alpha_rows(alpha, wig.n)
    values = wigner_values(wig, math.sqrt(2.0) * rows.real, math.sqrt(2.0) * rows.imag)
    return float(values[0]) if np.ndim(alpha) == 1 else values


def _normed_hermite(x: np.ndarray, degree: int) -> np.ndarray:
    """The orthonormal Hermite function of ``degree`` at x (without the
    exp(-x^2 / 2)), by the three-term recurrence run down from the top so
    nothing overflows; degree 0 is the constant pi^(-1/4)."""
    if degree == 0:
        return np.full(x.shape, 1 / np.sqrt(np.sqrt(np.pi)))
    c0, c1 = 0.0, 1.0 / np.sqrt(np.sqrt(np.pi))
    nd = float(degree)
    for _ in range(degree - 1):
        c0, c1 = -c1 * np.sqrt((nd - 1.0) / nd), c0 + c1 * x * np.sqrt(2.0 / nd)
        nd -= 1.0
    return c0 + c1 * x * np.sqrt(2)


def _gauss_hermite(deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the deg-point Gauss-Hermite rule for the weight
    exp(-x^2), bit for bit those of ``numpy.polynomial.hermite.hermgauss``.

    The nodes are the spectrum of the truncated coordinate operator
    Q = (a + a~)/sqrt(2) on deg oscillator levels, the symmetric Jacobi
    matrix with sqrt(k/2) beside its zero diagonal (Golub & Welsch, Math.
    Comp. 23, 221 (1969)).  One Newton step on the normalised H_deg
    refines them; each weight is 1 / h_(deg-1)(x)^2, scaled to sum to
    sqrt(pi).  Both are symmetrised about 0.  A deg that is not an integer
    is a TypeError, and deg <= 0 a ValueError.
    """
    try:
        ideg = operator.index(deg)
    except TypeError as exc:
        raise TypeError(f"deg must be an integer, received {deg}") from exc
    if ideg <= 0:
        raise ValueError("deg must be a positive integer")
    off = np.sqrt(0.5 * np.arange(1, ideg))
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    x -= _normed_hermite(x, ideg) / (_normed_hermite(x, ideg - 1) * np.sqrt(2 * ideg))
    fm = _normed_hermite(x, ideg - 1)
    fm /= np.abs(fm).max()
    w = 1 / (fm * fm)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return x, w


def normalization_by_quadrature(wig: GaussianWigner, nodes_per_axis: int = 40) -> float:
    """Integrate W over all 2n phase-space axes by Gauss-Hermite quadrature.

    W has no q-p cross block, so the 2n-axis tensor-product rule factorises
    into one n-axis rule over the q block times the same rule over the p
    block, each a grid of nodes**n points; the closed-form determinant is
    not used.  Intended for small n (n <= 3: 64 000 points per block at 40
    nodes).
    """
    if wig.n > 3:
        raise ValueError("quadrature grid is only sensible for n <= 3")
    if wig.qWeights.ndim != 1 or wig.pWeights.ndim != 1:
        raise ValueError("weights must be one row, not one per point, for the quadrature")
    nodes, weights = _gauss_hermite(nodes_per_axis)
    points = np.stack(np.meshgrid(*([nodes] * wig.n), indexing="ij"), axis=-1).reshape(-1, wig.n)
    point_weights = np.prod(np.stack(np.meshgrid(*([weights] * wig.n), indexing="ij")), axis=0)
    # each block sums exp(-xt (f(A) - I) x): the weight exp(-x^2) divided back out
    q_block, p_block = (
        float(point_weights.ravel() @ np.exp(-_spectral_form(w - 1.0, points)))
        for w in (wig.qWeights, wig.pWeights)
    )
    return wig.normConst * q_block * p_block


def _per_row(lam, coefficients, rows: np.ndarray) -> tuple:
    """coefficients(lam) as (1,) arrays for one lambda, or for lam of shape
    (m,), one lambda per alpha row, stacked into (m,) arrays: columns that
    broadcast over the rows either way.  Every lambda goes through the same
    math calls, so each row keeps the bits of the call at its own lambda.
    No rows give (0,) columns.  A non-finite lambda, or row of lambdas, is
    a ParameterRangeError."""
    lams = np.asarray(lam, dtype=float)
    if lams.shape not in ((), rows.shape[:1]):
        raise ValueError(f"lambda must be a scalar or hold one value per alpha row ({len(rows)})")
    values = lams.reshape(-1).tolist()
    for value in values:
        check_lambda(value)
    # lambda = 0 stands in for an empty row of lambdas, to count the columns
    table = np.array([coefficients(value) for value in values or [0.0]])[: len(values)]
    return tuple(np.array(col) for col in table.T)


def _wigner3_coefficients(lam: float) -> tuple[float, float, float, float]:
    return math.exp(4.0 * lam), math.exp(-4.0 * lam), math.exp(-2.0 * lam), math.exp(2.0 * lam)


def wigner3_closed(lam: float | np.ndarray, alpha: np.ndarray) -> float | np.ndarray:
    """Three-mode Wigner function in its hand-derived closed form.

    alpha is one point, shape (3,), giving a float, or one point per row,
    shape (m, 3), giving an array of m values; lam is one lambda, or one
    per row, shape (m,).  The paper's exponent is regrouped by the sum S
    and the pair differences d_ij of the alpha_i into non-positive terms,
    -2/3 [e^(4 lambda) (Re S)^2 + e^(-4 lambda) (Im S)^2
          + e^(-2 lambda) sum (Re d_ij)^2 + e^(2 lambda) sum (Im d_ij)^2],
    so nothing cancels at large |lambda|.
    """
    rows = alpha_rows(alpha, 3)
    k_sum_re, k_sum_im, k_diff_re, k_diff_im = _per_row(lam, _wigner3_coefficients, rows)
    a0, a1, a2 = rows.T
    with np.errstate(over="ignore", invalid="ignore"):
        total = a0 + a1 + a2
        diffs = (a0 - a1, a0 - a2, a1 - a2)
        expo = -(2.0 / 3.0) * (
            k_sum_re * total.real**2
            + k_sum_im * total.imag**2
            + k_diff_re * sum(d.real**2 for d in diffs)
            + k_diff_im * sum(d.imag**2 for d in diffs)
        )
    values = values_from_exponent(expo, 3)
    return float(values[0]) if np.ndim(alpha) == 1 else values


def _wigner4_coefficients(lam: float) -> tuple[float, float]:
    return math.exp(4.0 * lam), math.exp(-4.0 * lam)


def wigner4_closed(lam: float | np.ndarray, alpha: np.ndarray) -> float | np.ndarray:
    """Four-mode Wigner function in its hand-derived closed form; alpha of
    shape (4,) gives a float, alpha rows of shape (m, 4) an array, and lam
    is one lambda or one per row, shape (m,).  With u = alpha_1 + alpha_3
    and v = alpha_2 + alpha_4 the exponent is a sum of non-positive terms,
    -e^(4 lambda) |u + v*|^2 / 2 - e^(-4 lambda) |u - v*|^2 / 2
    - |alpha_1 - alpha_3|^2 - |alpha_2 - alpha_4|^2, so nothing cancels."""
    rows = alpha_rows(alpha, 4)
    k_plus, k_minus = _per_row(lam, _wigner4_coefficients, rows)
    a0, a1, a2, a3 = rows.T
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = a0 + a2, (a1 + a3).conjugate()
        expo = -0.5 * (k_plus * np.abs(u + v) ** 2 + k_minus * np.abs(u - v) ** 2)
        expo -= np.abs(a0 - a2) ** 2 + np.abs(a1 - a3) ** 2
    values = values_from_exponent(expo, 4)
    return float(values[0]) if np.ndim(alpha) == 1 else values
