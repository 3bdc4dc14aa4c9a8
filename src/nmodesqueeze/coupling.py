"""Cyclic nearest-neighbour coupling matrices and their matrix functions.

The n-mode squeeze generator is sum_i (Q_i P_{i+1} + Q_{i+1} P_i) with
cyclic wraparound, i.e. lambda * Qt A P where A is the adjacency matrix of
the n-cycle.  For n = 2 the wraparound makes each cross term appear twice,
so A = [[0, 2], [2, 0]] rather than the 0/1 pattern of n >= 3.

A is circulant, so its eigenvectors are the Fourier modes and every matrix
function needed downstream (exp, tanh, cosh of multiples of A) is the
circulant whose first row is the inverse DFT of f(a_k); ``expm_taylor`` is
an independent scaling-and-squaring oracle the tests compare against.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import LAMBDA_GUARD, check_lambda, check_modes


class CouplingMatrix(NamedTuple):
    """The cyclic coupling A as its first row: O(n) data.

    A is the symmetric circulant with first row ``row`` (integer, zero
    diagonal, row sum 2).  Its spectrum ``eigenvalues`` is the DFT of that
    row, in DFT order, so ``eigenvalues[0] == 2`` belongs to the all-ones
    mode; ``build_coupling`` computes it with the row.  The dense n x n
    ``entries`` is built, read-only, on each read.
    """

    n: int
    row: np.ndarray
    eigenvalues: np.ndarray

    @property
    def entries(self) -> np.ndarray:
        """A itself, int64 and read-only."""
        return _freeze(_symmetric_circulant(self.row))


class SqueezeKernel(NamedTuple):
    """lambda with the dense matrix functions of A and two determinants.

    Lambda = exp(-lambda A) (symmetric, so it equals its transpose), gram =
    exp(-2 lambda A), gramInv = exp(+2 lambda A), NmatInv = ((1 + gram)/2)^-1,
    each built, read-only, on each read; the normal form's product-form
    oracle uses them.
    """

    coupling: CouplingMatrix
    lam: float

    def _function(self, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        return _freeze(matrix_function(self.coupling, fn))

    @property
    def Lambda(self) -> np.ndarray:
        return self._function(lambda a: np.exp(-self.lam * a))

    @property
    def gram(self) -> np.ndarray:
        return self._function(lambda a: np.exp(-2.0 * self.lam * a))

    @property
    def gramInv(self) -> np.ndarray:
        return self._function(lambda a: np.exp(2.0 * self.lam * a))

    @property
    def NmatInv(self) -> np.ndarray:
        return self._function(lambda a: 2.0 / (1.0 + np.exp(-2.0 * self.lam * a)))

    @property
    def detLambda(self) -> float:
        """det exp(-lambda A) = exp(-lambda tr A), with tr A = n row[0]: a
        product over the spectrum would underflow at large n and lambda."""
        return math.exp(-self.lam * float(self.coupling.n * self.coupling.row[0]))

    @property
    def detN(self) -> float:
        """Product over the spectrum; past the float range (n = 300 at
        lambda = 20) it is inf, a value and not a fault, so no warning."""
        with np.errstate(over="ignore"):
            return float(np.prod((1.0 + np.exp(-2.0 * self.lam * self.coupling.eigenvalues)) / 2.0))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _symmetric_circulant(row: np.ndarray) -> np.ndarray:
    """The dense symmetric circulant with first row ``row``: entry (i, j)
    reads row at the cyclic distance min(|i - j|, n - |i - j|), so the
    result is exactly symmetric even where row[k] and row[n - k] differ
    by rounding."""
    n = row.size
    index = np.arange(n)
    dist = np.abs(index[:, None] - index[None, :])
    return row[np.minimum(dist, n - dist)]


def build_coupling(n: int) -> CouplingMatrix:
    """Accumulate the first row of the coupling matrix of the generator sum.

    Each term Q_i P_{i+1} + Q_{i+1} P_i (indices mod n) adds 1 to A[i, i+1]
    and A[i+1, i]; in row 0 that is A[0, 1] from the first term and
    A[0, n-1] from the last.  For n = 2 both hit the same entry, which is
    what makes the two-mode member twice as strong as the standard
    two-mode squeeze.  The spectrum, the DFT of this row, is computed
    here; the dense ``entries`` only when a caller reads them.

    Raises
    ------
    ModeCountError
        If n is outside 2 <= n <= MODE_GUARD.
    """
    check_modes(n)
    row = np.zeros(n, dtype=np.int64)
    row[1] += 1
    row[-1] += 1
    return CouplingMatrix(n=n, row=_freeze(row), eigenvalues=_freeze(np.fft.fft(row).real))


def matrix_function(coupling: CouplingMatrix, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate fn(A) as the dense circulant with first row ifft(fn(a_k)),
    symmetric as fn(A) is."""
    return _symmetric_circulant(np.fft.ifft(fn(coupling.eigenvalues)).real)


def build_kernel(coupling: CouplingMatrix, lam: float) -> SqueezeKernel:
    """All matrix functions of A needed by the squeeze pipeline.

    Raises
    ------
    ParameterRangeError
        If lambda is not finite or |lambda| exceeds the overflow guard.
    """
    check_lambda(lam, LAMBDA_GUARD)
    return SqueezeKernel(coupling=coupling, lam=lam)


def sum_identities(kernel: SqueezeKernel) -> tuple[float, float]:
    """All-entries sums of the Gram matrix and its inverse.

    The cyclic row sum 2 makes the all-ones vector an eigenvector, so both
    sums collapse to n exp(-+4 lambda); callers compare against that.
    """
    return float(kernel.gram.sum()), float(kernel.gramInv.sum())


_TAYLOR_DEGREE = 24


def expm_taylor(mat: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring Taylor matrix exponential (test oracle).

    Independent of the spectral route: scales mat by 2**-s until the norm
    is below 1/2, sums the Taylor series to degree 24 by Horner's rule,
    then squares s times.
    """
    norm = float(np.linalg.norm(mat, np.inf))
    nsquare = max(0, math.ceil(math.log2(max(norm, 1e-300) / 0.5)))
    scaled = mat / (2.0 ** nsquare)
    n = mat.shape[0]
    result = np.eye(n) / math.factorial(_TAYLOR_DEGREE)
    for k in range(_TAYLOR_DEGREE - 1, -1, -1):
        result = scaled @ result + np.eye(n) / math.factorial(k)
    for _ in range(nsquare):
        result = result @ result
    return result
