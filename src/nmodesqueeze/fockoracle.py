"""Truncated Fock-space brute force for cross-checking every closed form.

States live on a per-mode-truncated basis |n_1 ... n_n> with n_i <= cutoff,
flattened with mode 0 most significant: ``_strides`` is the one statement
of that order, and row k of ``occupation_table`` the occupation of flat
index k, n_i = (k // stride_i) mod (cutoff + 1).  The lowering operator of
mode i is one diagonal of the flat-index matrix, at offset stride_i, with
entries sqrt(n_i + 1); the raising operator is the same diagonal at
-stride_i.  The raising operator simply drops the cutoff -> cutoff+1
matrix element, so commutator identities hold exactly on the interior
(n_i < cutoff) subspace and tail mass is *measured*, never assumed away.
Every photon-pair block sum_ij c_ij a_i a_j comes from one pair sum of
these diagonals (its raising partner sum_ij c_ij a_i~ a_j~ is the same
diagonals below the main one), and every exponential of a photon-pair
block from one series.

The squeeze itself is realised as the action of exp(iH) on the vacuum or on
a block of start columns (truncated Taylor series with Al-Mohy & Higham's
step selection), never as a dense matrix.  The paper's
S_n = exp[i lambda sum (Q_i P_i+1 + Q_i+1 P_i)] is, in ladder form,
iH = (lambda / 2) sum_ij A_ij (a_i a_j - a_i~ a_j~): a real, antisymmetric
matrix of photon-pair diagonals.  Its unitarity is not given by
construction: the evolved norm is measured, and `verify` holds it to 1e-10.
The paper's factored form, checked against it, is applied to a block of
columns without exp(iH): two terminating series around the middle factor,
which IWOP (integration within an ordered product) turns into the
substitution a_i~ -> sum_j (I + X)_ji a_j~.  Wigner values come from the
displaced-parity expectation
    W(alpha) = pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>,
with the displacement factored into per-mode unitaries.  Only numpy is
needed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .coupling import CouplingMatrix
from .errors import (
    LAMBDA_GUARD,
    NumericFailureError,
    ResourceLimitError,
    TruncationError,
    check_lambda,
)
from .gaussian import alpha_rows

if TYPE_CHECKING:
    from .normalform import NormalOrderedForm, TwoPhotonState

# Largest truncated basis any Fock computation accepts.  The banded paths
# hold the generator (2 diagonals per coupled mode pair: 2 at n = 2, 2n
# from n = 3) and a few state vectors: building the generator and evolving
# the vacuum at lambda = 0.1 peaked at 46, 50, 51 and 42 MB RSS (VmHWM of
# the whole process) for n = 2, 3, 5 and 8 at dims 199 809, 195 112,
# 161 051 and 65 536 (2 vCPUs), under 250 MB.  Their run time grows with
# |lambda| * cutoff, which sets the number of Taylor terms.
DIM_GUARD = 200_000
# Largest weight a displaced state may carry on the outermost shell (some
# n_i = cutoff) before ``wigner_numeric`` calls its cutoff too small.
MAX_BOUNDARY_MASS = 1e-6
# Taylor degree m -> largest 1-norm theta_m of one step whose degree-m
# series meets double-precision backward error: m <= 30 from Higham,
# "Functions of Matrices", Table A.3; the rest from Al-Mohy & Higham,
# SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# Bytes of start columns that ``FockOperator.evolve`` runs together, so
# that the working arrays of a run stay in cache.  A (10 201, 15) block
# took 143 ms whole against 70 ms column by column, and 48 ms in runs of
# 3 columns (2 vCPUs, 2 MB L2 cache per core).
_BLOCK_BYTES = 1 << 18


class FockSpace(NamedTuple):
    """Per-mode-truncated Fock basis; ``occupation_table`` states its
    flat-index order."""

    n: int
    cutoff: int

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n


class FockTensor(NamedTuple):
    """Complex amplitudes over a truncated Fock basis."""

    space: FockSpace
    amps: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


class _BandedOperatorFields(NamedTuple):
    dim: int
    diagonals: dict[int, np.ndarray]


class BandedOperator(_BandedOperatorFields):
    """A dim x dim matrix stored as a few of its diagonals.

    ``diagonals[o]`` holds M[k + max(-o, 0), k + max(o, 0)] for
    k < dim - |o| (numpy.diag's convention); construction sorts the offsets
    ascending, so a row's entries are met in column order.
    """

    __slots__ = ()

    def __new__(cls, dim: int, diagonals: dict[int, np.ndarray]):
        return super().__new__(cls, dim, dict(sorted(diagonals.items())))

    @property
    def nnz(self) -> int:
        """Count of nonzero matrix elements."""
        return sum(int(np.count_nonzero(diag)) for diag in self.diagonals.values())

    def __matmul__(self, vec: np.ndarray) -> np.ndarray:
        """M @ vec for a vector or a (dim, k) block, each row summed in
        column order from 0; a block column gets the bits of M @ that column.
        A Fortran-ordered block gives a Fortran-ordered product."""
        dtype = np.result_type(vec, *self.diagonals.values())
        order = "F" if vec.flags.f_contiguous else "C"
        out = np.zeros((self.dim, *vec.shape[1:]), dtype=dtype, order=order)
        column = (-1,) + (1,) * (vec.ndim - 1)
        for offset, diag in self.diagonals.items():
            rows, cols = max(-offset, 0), max(offset, 0)
            out[rows : rows + diag.size] += diag.reshape(column) * vec[cols : cols + diag.size]
        return out

    def toarray(self) -> np.ndarray:
        dtype = np.result_type(float, *self.diagonals.values())
        out = np.zeros((self.dim, self.dim), dtype=dtype)
        for offset, diag in self.diagonals.items():
            k = np.arange(diag.size)
            out[k + max(-offset, 0), k + max(offset, 0)] = diag
        return out

    def onenorm(self) -> float:
        """Exact 1-norm: the largest column sum of |M|."""
        sums = np.zeros(self.dim)
        for offset, diag in self.diagonals.items():
            cols = max(offset, 0)
            sums[cols : cols + diag.size] += np.abs(diag)
        return float(np.max(sums))


class FockOperator(NamedTuple):
    """The banded step iH of the squeeze exp(iH) together with the basis it
    acts on; for every ``generator`` the step is real."""

    space: FockSpace
    mat: BandedOperator

    def evolve(self, start: np.ndarray) -> np.ndarray:
        """exp(iH) @ start for a start vector (dim,) or a (dim, k) block,
        in the start's shape: a vector runs as a block of one column.

        The truncated Taylor series of Al-Mohy & Higham (SIAM J. Sci.
        Comput. 33, 488 (2011), algorithm 3.2): s steps of degree at most
        m, with (m, s) minimising m * ceil(|iH|_1 / theta_m) over _THETA,
        and each step's series stopped, column by column, once two
        consecutive terms fall below 2^-53 of the partial sum.  A column
        therefore gets the bits it would get alone.  The exact 1-norm sets
        (m, s), so the result does not depend on any random state.  The
        generator has no main diagonal, so the algorithm's trace shift is
        zero and left out.  The result is unitary only to the accuracy of
        the series: callers measure the norm rather than assume it.

        Raises
        ------
        NumericFailureError
            If the generator or any amplitude is non-finite.
        """
        step = self.mat
        # A start with zero imaginary part runs in real arithmetic when the
        # step is real: every imaginary part the series would carry is an
        # exact zero, so the bits agree with the complex run at half the work.
        if not np.any(np.imag(start)):
            start = np.real(start)
        norm = step.onenorm()
        if not math.isfinite(norm):
            raise NumericFailureError(f"generator has 1-norm {norm}")
        dtype = np.result_type(float, start, *step.diagonals.values())
        # A block in Fortran order keeps each column contiguous, for the
        # products and the column maxima alike.  Its rows are the start's
        # own, so a start of the wrong length fails in the first step.
        amps = np.array(start, dtype=dtype, order="F")
        block = amps.reshape(len(amps), -1, order="F")
        if norm > 0.0:
            degree, steps = min(
                ((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
                key=lambda pair: pair[0] * pair[1],
            )
            # The columns are independent, so a tall block runs a few at a
            # time, whose arrays stay in cache.
            width = max(1, _BLOCK_BYTES // (amps.itemsize * step.dim))
            for j in range(0, block.shape[1], width):
                _taylor_steps(step, block[:, j : j + width], degree, steps)
        if not np.all(np.isfinite(amps)):
            raise NumericFailureError("evolution produced non-finite amplitudes")
        return amps.astype(complex, order="C")


def _taylor_steps(step: BandedOperator, amps: np.ndarray, degree: int, steps: int) -> None:
    """Apply ``steps`` steps of the degree-``degree`` series of exp(step /
    steps) to the (dim, k) block amps in place, each column's series
    stopped on its own."""
    for _ in range(steps):
        live = slice(None)  # the columns whose series is still running
        term = amps
        prev = np.max(np.abs(term), axis=0)
        for k in range(1, degree + 1):
            term = (1.0 / (steps * k)) * (step @ term)
            size = np.max(np.abs(term), axis=0)
            amps[:, live] += term
            done = prev + size <= 2.0**-53 * np.max(np.abs(amps[:, live]), axis=0)
            if done.all():
                break
            if done.any():  # drop the finished columns
                live = np.arange(amps.shape[1])[live][~done]
                term, size = term[:, ~done], size[~done]
            prev = size


def build_space(n: int, cutoff: int) -> FockSpace:
    """Truncated basis for n modes with at most ``cutoff`` photons each.

    Raises
    ------
    ResourceLimitError
        If (cutoff + 1)**n exceeds DIM_GUARD (2e5 states), the size up to
        which the banded generator, the vacuum evolution and the state
        vectors stay small.
    """
    if n < 1:
        raise ValueError(f"need at least one mode, got n={n}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    space = FockSpace(n=n, cutoff=cutoff)
    if space.dim > DIM_GUARD:
        raise ResourceLimitError(f"dim {space.dim} exceeds guard {DIM_GUARD}")
    return space


def _strides(space: FockSpace) -> list[int]:
    """Flat-index stride of each mode, mode 0 most significant."""
    return [(space.cutoff + 1) ** (space.n - 1 - i) for i in range(space.n)]


def occupation_table(space: FockSpace) -> np.ndarray:
    """(dim, n) array of occupations, row k = occupation of flat index k."""
    idx = np.arange(space.dim)
    return np.stack([(idx // stride) % (space.cutoff + 1) for stride in _strides(space)], axis=1)


def vacuum(space: FockSpace) -> FockTensor:
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    return FockTensor(space=space, amps=amps)


def _ladders(space: FockSpace) -> list[tuple[int, np.ndarray]]:
    """(stride_i, w_i) per mode: the lowering operator of mode i as its one
    diagonal, at offset stride_i.

    Lowering mode i maps flat index k + stride_i to k with amplitude
    w_i[k] = sqrt(n_i + 1), n_i the occupation of mode i at k; rows with
    n_i = cutoff get 0, since k + stride_i belongs to another occupation
    of the modes before i.
    """
    ladders = []
    for stride in _strides(space):
        occ = (np.arange(space.dim - stride) // stride) % (space.cutoff + 1)
        ladders.append((stride, np.where(occ < space.cutoff, np.sqrt(occ + 1.0), 0.0)))
    return ladders


def _pair_sum(
    coeff: np.ndarray, scale: float, ladders: list[tuple[int, np.ndarray]], dim: int
) -> dict[int, np.ndarray]:
    """Diagonals of sum_ij (scale * c_ij) a_i a_j over the nonzero c_ij, for
    the lowering diagonals ``ladders``: every photon-pair block of the oracle.

    a_i a_j is the one diagonal w_i[k] * w_j[k + s_i] at offset s_i + s_j,
    and the terms are added in row-major order.  That product equals
    w_j[k] * w_i[k + s_j] to the bit, so the raising block
    sum_ij (scale * c_ij) a_i~ a_j~ is the same arrays at the negated offsets.
    """
    strides = np.array([stride for stride, _ in ladders])
    pairs = (coeff != 0) & (strides[:, None] + strides[None, :] < dim)
    total = {}
    for i, j in zip(*np.nonzero(pairs)):  # row-major order
        (s_i, w_i), (s_j, w_j) = ladders[i], ladders[j]
        offset = s_i + s_j
        term = (scale * coeff[i, j]) * (w_i[: dim - offset] * w_j[s_i:])
        total[offset] = total.get(offset, 0) + term
    return total


def _raising(lowering: dict[int, np.ndarray], dim: int) -> BandedOperator:
    """The raising partner of a ``_pair_sum``: its diagonals below the main one."""
    return BandedOperator(dim, {-offset: diag for offset, diag in lowering.items()})


def _terminating_series(mat: BandedOperator, start: np.ndarray, space: FockSpace) -> np.ndarray:
    """exp(mat) @ start for a mat that only adds, or only removes, photon
    pairs: on the truncated basis its Taylor series ends by order
    n * cutoff / 2 + 1, and it stops at the first term that is exactly zero."""
    result = term = start
    for k in range(1, space.n * space.cutoff // 2 + 2):
        term = mat @ term / k
        if not np.any(term):
            break
        result = result + term
    return result


def generator(space: FockSpace, coupling: CouplingMatrix, lam: float) -> FockOperator:
    """The step iH of the squeeze exp(iH), H = lambda * sum_ij A_ij Q_i P_j.

    A is symmetric with zero diagonal, so the photon-number conserving
    a_i a_j~ parts of Q_i P_j + Q_j P_i cancel and
    iH = (lambda / 2) sum_ij A_ij (a_i a_j - a_i~ a_j~): the lowering pair
    sum over ladders scaled by 1/sqrt(2) above the main diagonal, and its
    negation below it.  The step is real and antisymmetric.  A lambda that
    ``build_kernel`` refuses is a ParameterRangeError here too.
    """
    check_lambda(lam, LAMBDA_GUARD)
    if coupling.n != space.n:
        raise ValueError(f"coupling has {coupling.n} modes, space has {space.n}")
    scale = 1 / math.sqrt(2.0)
    ladders = [(stride, w * scale) for stride, w in _ladders(space)]
    lowering = _pair_sum(coupling.entries, lam, ladders, space.dim)
    # 0.0 - diag, not -diag: the zeros on the cutoff edge stay +0.0.
    raising = {-offset: 0.0 - diag for offset, diag in lowering.items()}
    return FockOperator(space=space, mat=BandedOperator(space.dim, {**lowering, **raising}))


def evolve_vacuum(hamiltonian: FockOperator) -> FockTensor:
    """exp(iH)|0>, the vacuum case of ``FockOperator.evolve``.

    Raises
    ------
    NumericFailureError
        If the generator or any amplitude is non-finite.
    """
    space = hamiltonian.space
    return FockTensor(space=space, amps=hamiltonian.evolve(vacuum(space).amps))


def two_photon_expand(state: TwoPhotonState, space: FockSpace) -> FockTensor:
    """Amplitudes of norm * exp(at~ F at / 2)|0> on the truncated basis.

    Each application of the quadratic creation block raises the total
    photon number by 2, so the power series terminates once it clears
    n * cutoff; raising never lowers, so the truncated series equals the
    exact projection of the infinite state onto the basis.

    This is the one place a two-photon state is checked, since callers
    may build one by hand.  It refuses, with a ValueError, a state whose
    F is not an n x n ndarray with sech2 an ndarray of length n, whose
    mode count differs from the space's, whose F is not symmetric (NaN
    included), whose sech2 leaves (0, 1], whose sech2 is not 1 - f_k^2
    over the eigenvalues f_k of F, or whose norm is not det(1 - F F~)^(1/4)
    within rel 1e-8.
    """
    # a list or 0-d F gets this error too, not an AttributeError or IndexError
    shape = np.shape(state.F)
    arrays = isinstance(state.F, np.ndarray) and isinstance(state.sech2, np.ndarray)
    if not (arrays and len(shape) == 2 and shape == np.shape(state.sech2) * 2):
        raise ValueError("F must be n x n and sech2 of length n")
    if state.n != space.n:
        raise ValueError(f"state has {state.n} modes, space has {space.n}")
    if not np.max(np.abs(state.F - state.F.T)) <= 1e-12:  # NaN refused too
        raise ValueError("F must be symmetric")
    if not np.all((state.sech2 > 0.0) & (state.sech2 <= 1.0)):
        raise ValueError("two-photon spectrum 1 - f^2 must lie in (0, 1]")
    # eigvalsh is backward stable: each f_k lies within n eps ||F||_2 of an
    # eigenvalue of F (LAPACK Users' Guide, sec. 4.7, with p(n) = n), and a
    # computed F carries as much again from the matrix function that built
    # it.  With m = max(1, ||F||_2) that puts f_k^2 within 4 n eps m^2 (plus
    # a term in eps^2) of 1 - sech2, whose own rounding adds a few eps:
    # 8 n eps m^2 covers all of it.
    f = np.linalg.eigvalsh(state.F)
    bound = 8 * state.n * np.finfo(float).eps * max(1.0, float(np.max(np.abs(f)))) ** 2
    if not np.max(np.abs(np.sort(f**2) - np.sort(1.0 - state.sech2))) <= bound:
        raise ValueError("sech2 must be 1 - f^2 over the eigenvalues f of F")
    # det(1 - F F~)^(1/4) as a sum of logs; past the float range both sides are 0
    unit_norm = math.exp(0.25 * float(np.sum(np.log(state.sech2))))
    if not math.isclose(state.norm, unit_norm, rel_tol=1e-8, abs_tol=np.finfo(float).tiny):
        raise ValueError(f"norm {state.norm} does not match det(1 - F F~)^(1/4) = {unit_norm}")
    quad = _raising(_pair_sum(state.F, 0.5, _ladders(space), space.dim), space.dim)
    amps = _terminating_series(quad, vacuum(space).amps, space)
    return FockTensor(space=space, amps=state.norm * amps)


def tail_mass(psi: FockTensor) -> float:
    """Probability weight the truncation lost: max(0, 1 - |psi|^2)."""
    return max(0.0, 1.0 - psi.norm**2)


def normalized(psi: FockTensor) -> FockTensor:
    """Unit-norm copy (e.g. before taking truncated expectation values)."""
    norm = psi.norm
    if norm == 0.0:
        raise ValueError("cannot normalize the zero tensor")
    return FockTensor(space=psi.space, amps=psi.amps / norm)


def overlap(left: FockTensor, right: FockTensor) -> complex:
    """<left|right>, conjugate-linear in the first argument."""
    if left.space != right.space:
        raise ValueError("overlap requires tensors on the same space")
    return complex(np.vdot(left.amps, right.amps))


def collective_quadrature(space: FockSpace, which: str) -> BandedOperator:
    """X1 = sum Q_i / sqrt(2n) or X2 = sum P_i / sqrt(2n) as a matrix, from
    Q_i = (a_i + a_i~)/sqrt(2) and P_i = (a_i - a_i~)/(i sqrt(2))."""
    if which not in ("X1", "X2"):
        raise ValueError(f"which must be 'X1' or 'X2', got {which!r}")
    scale = 1 / math.sqrt(2.0)
    weight = 1 / math.sqrt(2.0 * space.n)
    diagonals = {}
    # Each mode has its own stride, so no two modes share a diagonal.
    for stride, w in _ladders(space):
        if which == "X1":
            diagonals[stride] = diagonals[-stride] = (w * scale) * weight
        else:
            diagonals[stride] = ((-1j * w) * scale) * weight
            diagonals[-stride] = ((-1j * -w) * scale) * weight
    return BandedOperator(space.dim, diagonals)


def variance_numeric(psi: FockTensor, which: str) -> float:
    """<X^2> - <X>^2 for a collective quadrature, using truncated matrices.

    Requires psi normalised within 1e-6; the second moment is evaluated
    as |X psi|^2 (X is Hermitian), so no squared matrix is formed.
    """
    if abs(psi.norm - 1.0) > 1e-6:
        raise ValueError(f"state norm {psi.norm} deviates from 1 by more than 1e-6")
    x_op = collective_quadrature(psi.space, which)
    x_psi = x_op @ psi.amps
    mean = float(np.vdot(psi.amps, x_psi).real)
    second = float(np.vdot(x_psi, x_psi).real)
    return second - mean**2


def _single_mode_displacements(alpha: np.ndarray, cutoff: int) -> np.ndarray:
    """exp(alpha_k a~ - conj(alpha_k) a) on one truncated mode for each entry
    of the 1-D array alpha, as a (len(alpha), cutoff + 1, cutoff + 1) stack
    from one stacked eigh.

    The truncated generators stay anti-Hermitian, so each matrix is
    exactly unitary on the truncated mode.
    """
    low = np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), 1).astype(complex)
    alpha = alpha[:, None, None]
    gen = alpha * low.T - np.conj(alpha) * low
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)[:, None, :]) @ v.conj().swapaxes(1, 2)


def wigner_numeric(psi: FockTensor, alpha: np.ndarray) -> float | np.ndarray:
    """Displaced-parity Wigner value pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>.

    alpha is one point, shape (n,), giving a float, or one point per row,
    shape (m, n), giving an array of m values; each row gets the bits of
    its own one-point call.  The displacement factorises over modes, so
    D(alpha)~ psi is computed by contracting one small per-mode unitary
    along each tensor axis, every row at once.

    Raises
    ------
    TruncationError
        If any displaced state carries more than MAX_BOUNDARY_MASS
        weight on the outermost shell, i.e. the cutoff is too small for
        that displacement.
    """
    space = psi.space
    rows = alpha_rows(alpha, space.n)
    m, base = len(rows), space.cutoff + 1
    disp_dag = _single_mode_displacements(-rows.reshape(-1), space.cutoff).reshape(
        m, space.n, base, base
    )
    tensor = np.broadcast_to(psi.amps, (m, space.dim)).reshape((m,) + (base,) * space.n)
    for i in range(space.n):
        # mode i's axis first after the row axis, the other modes flattened
        moved = np.moveaxis(tensor, i + 1, 1)
        product = disp_dag[:, i] @ moved.reshape(m, base, -1)
        tensor = np.moveaxis(product.reshape(moved.shape), 1, i + 1)
    displaced = tensor.reshape(m, space.dim)
    occs = occupation_table(space)
    boundary = np.any(occs == space.cutoff, axis=1)
    boundary_mass = np.sum(np.abs(displaced[:, boundary]) ** 2, axis=1)
    over = np.flatnonzero(boundary_mass > MAX_BOUNDARY_MASS)
    if over.size:
        row = int(over[0])
        where = f" at alpha row {row}" if np.ndim(alpha) == 2 else ""
        raise TruncationError(
            f"displaced state has {boundary_mass[row]:.3e} mass on the cutoff shell{where}"
        )
    parity = 1.0 - 2.0 * (np.sum(occs, axis=1) % 2)
    values = math.pi ** (-space.n) * np.sum(parity * np.abs(displaced) ** 2, axis=1)
    return float(values[0]) if np.ndim(alpha) == 1 else values


def assemble_normal_form(
    form: NormalOrderedForm, space: FockSpace, start: np.ndarray
) -> np.ndarray:
    """prefactor exp(at~ cre at / 2) :exp(at~ X a): exp(a ann a / 2) @ start,
    the factored squeeze applied to a (dim, k) block of start columns.

    The creation and annihilation exponentials are nilpotent on a
    truncated basis, so their series terminate exactly.  The middle
    normally ordered factor is applied by IWOP: it substitutes
    a_i~ -> B_i = sum_j (I + X)_ji a_j~ and leaves the vacuum alone, so it
    maps each basis state |k> in the block's support to
    prod_i B_i^k_i / sqrt(k_i!) |0>.  That conserves photon number, so the
    per-mode cutoff leaves it untouched on states of at most cutoff
    photons.  No exp(iH) is taken, so this side stays independent of the
    propagator it is checked against.
    """
    n_modes = form.creMat.shape[0]
    if n_modes != space.n:
        raise ValueError(f"form has {n_modes} modes, space has {space.n}")
    ladders = _ladders(space)
    ann = BandedOperator(space.dim, _pair_sum(form.annMat, 0.5, ladders, space.dim))
    amps = _terminating_series(ann, start, space)

    support = np.flatnonzero(np.any(amps, axis=1))
    occs = occupation_table(space)[support]
    one_body = np.eye(n_modes) + form.crossMat
    images = np.zeros((space.dim, support.size), dtype=one_body.dtype)
    images[0] = 1.0  # every image is built up from the vacuum
    for i, mix in enumerate(one_body.T):
        # sum_j (I + X)_ji a_j~: one raising diagonal per mode
        b_i = BandedOperator(space.dim, {-s_j: c * w_j for c, (s_j, w_j) in zip(mix, ladders)})
        for power in range(1, occs[:, i].max(initial=0) + 1):
            cols = occs[:, i] >= power
            images[:, cols] = (b_i @ images[:, cols]) / math.sqrt(power)
    middle = images @ amps[support]

    cre = _raising(_pair_sum(form.creMat, 0.5, ladders, space.dim), space.dim)
    return form.prefactor * _terminating_series(cre, middle, space)
