"""Truncated Fock-space brute force for cross-checking every closed form.

States live on a per-mode-truncated basis |n_1 ... n_n> with n_i <= cutoff,
flattened with mode 0 most significant.  The lowering operator of mode i
is one diagonal of the flat-index matrix, at offset stride_i, with entries
sqrt(n_i + 1) read off the occupation table; the raising operator is the
same diagonal at -stride_i.  The raising operator simply drops the
cutoff -> cutoff+1 matrix element, so commutator identities hold exactly
on the interior (n_i < cutoff) subspace and tail mass is *measured*, never
assumed away.  Every quadratic form sum_ij c_ij op_i op_j comes from one
pair sum of diagonals, and every exponential of a photon-pair block from
one series.

The squeeze itself is realised as the action exp(iH)|0> of the banded
quadratic generator on the vacuum (truncated Taylor series with Al-Mohy &
Higham's step selection), never as a dense matrix.  Its unitarity is not
given by construction: the evolved norm is measured, and `verify` holds it
to 1e-10.  Wigner values come from the displaced-parity expectation
    W(alpha) = pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>,
with the displacement factored into per-mode unitaries.  Only numpy is
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingMatrix
from .errors import NumericFailureError, ResourceLimitError, TruncationError
from .normalform import NormalOrderedForm, TwoPhotonState

# Largest truncated basis any Fock computation accepts.  The banded paths
# hold the generator (2 diagonals per coupled mode pair: 2 at n = 2, 2n
# from n = 3) and a few state vectors: building the generator and evolving
# the vacuum at lambda = 0.1 peaked at 82, 131, 152 and 101 MB RSS for
# n = 2, 3, 5 and 8 at dims 199 809, 195 112, 161 051 and 65 536 (2 vCPUs),
# under 250 MB.  Their run time grows with |lambda| * cutoff, which sets the
# number of Taylor terms.
DIM_GUARD = 200_000
# Byte budget of one dense complex dim x dim matrix.  Only
# assemble_normal_form and the eigh reference that checks it build dense
# matrices, each holding several at once (the normal_form_assembly check
# peaked at 590 MB RSS at dim 2025); above DENSE_DIM_GUARD states they
# refuse rather than ask for GB-sized arrays.
DENSE_MATRIX_BYTES = 64 * 2**20
DENSE_DIM_GUARD = math.isqrt(DENSE_MATRIX_BYTES // 16)
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


@dataclass(frozen=True)
class FockSpace:
    """Per-mode-truncated Fock basis with a flat-index bijection."""

    n: int
    cutoff: int
    dim: int

    def index_of(self, occupation) -> int:
        """Flat index of an occupation tuple (mode 0 most significant)."""
        occupation = tuple(int(v) for v in occupation)
        if len(occupation) != self.n:
            raise ValueError(f"occupation needs {self.n} entries")
        flat = 0
        for occ in occupation:
            if not 0 <= occ <= self.cutoff:
                raise ValueError(f"occupation {occ} outside 0..{self.cutoff}")
            flat = flat * (self.cutoff + 1) + occ
        return flat

    def occupation(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a flat index."""
        if not 0 <= index < self.dim:
            raise ValueError(f"index {index} outside 0..{self.dim - 1}")
        base = self.cutoff + 1
        occ = []
        for _ in range(self.n):
            index, rem = divmod(index, base)
            occ.append(rem)
        return tuple(reversed(occ))


@dataclass(frozen=True)
class FockTensor:
    """Complex amplitudes over a truncated Fock basis."""

    space: FockSpace
    amps: np.ndarray

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


@dataclass(frozen=True)
class BandedOperator:
    """A dim x dim matrix stored as a few of its diagonals.

    ``diagonals[o]`` holds M[k + max(-o, 0), k + max(o, 0)] for
    k < dim - |o| (numpy.diag's convention); offsets are kept ascending,
    so a row's entries are met in column order.
    """

    dim: int
    diagonals: dict[int, np.ndarray]

    def __post_init__(self):
        object.__setattr__(self, "diagonals", dict(sorted(self.diagonals.items())))

    @property
    def nnz(self) -> int:
        """Count of nonzero matrix elements."""
        return sum(int(np.count_nonzero(diag)) for diag in self.diagonals.values())

    def __matmul__(self, vec: np.ndarray) -> np.ndarray:
        """M @ vec for a vector, each row summed in column order from 0."""
        out = np.zeros(self.dim, dtype=np.result_type(vec, *self.diagonals.values()))
        for offset, diag in self.diagonals.items():
            rows, cols = max(-offset, 0), max(offset, 0)
            out[rows : rows + diag.size] += diag * vec[cols : cols + diag.size]
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


@dataclass(frozen=True)
class FockOperator:
    """The banded generator together with the basis it acts on."""

    space: FockSpace
    mat: BandedOperator


def build_space(n: int, cutoff: int) -> FockSpace:
    """Truncated basis for n modes with at most ``cutoff`` photons each.

    Raises
    ------
    ResourceLimitError
        If (cutoff + 1)**n exceeds DIM_GUARD (2e5 states), the size up to
        which the banded generator, the vacuum evolution and the state
        vectors stay small.  Dense matrices have their own, far smaller
        guard (see require_dense).
    """
    if n < 1:
        raise ValueError(f"need at least one mode, got n={n}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    dim = (cutoff + 1) ** n
    if dim > DIM_GUARD:
        raise ResourceLimitError(f"dim {dim} exceeds guard {DIM_GUARD}")
    return FockSpace(n=n, cutoff=cutoff, dim=dim)


def occupation_table(space: FockSpace) -> np.ndarray:
    """(dim, n) array of occupations, row k = occupation of flat index k."""
    idx = np.arange(space.dim)
    base = space.cutoff + 1
    cols = [(idx // base**k) % base for k in range(space.n - 1, -1, -1)]
    return np.stack(cols, axis=1)


def vacuum(space: FockSpace) -> FockTensor:
    amps = np.zeros(space.dim, dtype=complex)
    amps[0] = 1.0
    return FockTensor(space=space, amps=amps)


def ladder_ops(space: FockSpace) -> tuple[list[BandedOperator], list[BandedOperator]]:
    """Per-mode lowering and raising operators (exact transposes).

    Lowering mode i maps flat index k + stride_i to k with amplitude
    sqrt(n_i + 1), n_i the occupation of mode i at k; rows with
    n_i = cutoff get 0, since k + stride_i belongs to another occupation
    of the modes before i.  The raising operator is the same diagonal
    below the main one, so its cutoff -> cutoff+1 element is dropped and
    [a_i, a_i~] equals the identity only on n_i < cutoff.
    """
    occs = occupation_table(space)
    lowering, raising = [], []
    for i in range(space.n):
        stride = (space.cutoff + 1) ** (space.n - 1 - i)
        occ = occs[: space.dim - stride, i]
        amp = np.where(occ < space.cutoff, np.sqrt(occ + 1.0), 0.0)
        lowering.append(BandedOperator(space.dim, {stride: amp}))
        raising.append(BandedOperator(space.dim, {-stride: amp}))
    return lowering, raising


def quadrature_ops(space: FockSpace) -> tuple[list[BandedOperator], list[BandedOperator]]:
    """Truncated Q_i = (a_i + a_i~)/sqrt(2) and P_i = (a_i - a_i~)/(i sqrt(2))."""
    lowering, _ = ladder_ops(space)
    scale = 1 / math.sqrt(2.0)
    q_ops, p_ops = [], []
    for a_i in lowering:
        ((stride, amp),) = a_i.diagonals.items()
        q_ops.append(BandedOperator(space.dim, {stride: amp * scale, -stride: amp * scale}))
        p_ops.append(
            BandedOperator(
                space.dim, {stride: (-1j * amp) * scale, -stride: (-1j * -amp) * scale}
            )
        )
    return q_ops, p_ops


def _product(left: BandedOperator, right: BandedOperator) -> dict[int, np.ndarray]:
    """Diagonals of left @ right: (LR)[r, r+a+b] = L[r, r+a] R[r+a, r+a+b],
    each element summed from 0 in ascending a (the column order of L)."""
    dim = left.dim
    out = {}
    for a, diag_a in left.diagonals.items():
        for b, diag_b in right.diagonals.items():
            c = a + b
            lo, hi = max(0, -a, -c), min(dim, dim - a, dim - c)
            if lo >= hi:
                continue
            if c not in out:
                out[c] = np.zeros(dim - abs(c), dtype=np.result_type(diag_a, diag_b))
            row_a, row_b, row_c = max(-a, 0), max(-b, 0), max(-c, 0)
            out[c][lo - row_c : hi - row_c] += (
                diag_a[lo - row_a : hi - row_a] * diag_b[lo + a - row_b : hi + a - row_b]
            )
    return out


def _pair_sum(
    coeff: np.ndarray, scale: float, left: list[BandedOperator], right: list[BandedOperator]
) -> BandedOperator:
    """sum_ij (scale * c_ij) * (left_i @ right_j) over the nonzero c_ij, added
    term by term in row-major order: every quadratic form of the oracle."""
    total = {}
    for i, left_i in enumerate(left):
        for j, right_j in enumerate(right):
            if coeff[i, j] != 0:
                for offset, diag in _product(left_i, right_j).items():
                    total[offset] = total.get(offset, 0) + (scale * coeff[i, j]) * diag
    # Diagonals that cancel to exact zeros are dropped: in the generator,
    # the photon-number conserving a_i a_j~ parts of Q_i P_j + Q_j P_i.
    return BandedOperator(left[0].dim, {o: diag for o, diag in total.items() if np.any(diag)})


def _terminating_series(
    mat: BandedOperator | np.ndarray, start: np.ndarray, space: FockSpace
) -> np.ndarray:
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
    """Hermitian generator H = lambda * sum_ij A_ij Q_i P_j.

    A has zero diagonal, so every term couples distinct modes and is
    individually Hermitian; the squeeze is exp(iH).
    """
    if coupling.n != space.n:
        raise ValueError(f"coupling has {coupling.n} modes, space has {space.n}")
    q_ops, p_ops = quadrature_ops(space)
    return FockOperator(space=space, mat=_pair_sum(coupling.entries, lam, q_ops, p_ops))


def require_dense(space: FockSpace) -> None:
    """Refuse a dense dim x dim matrix above DENSE_DIM_GUARD states.

    Raises
    ------
    ResourceLimitError
        If one dense complex matrix on ``space`` would exceed
        DENSE_MATRIX_BYTES.
    """
    if space.dim > DENSE_DIM_GUARD:
        raise ResourceLimitError(
            f"dim {space.dim} exceeds dense guard {DENSE_DIM_GUARD} "
            f"({16 * space.dim**2 / 2**20:.0f} MiB per dense matrix)"
        )


def evolve_vacuum(hamiltonian: FockOperator) -> FockTensor:
    """exp(iH)|0> as the action of the banded exponential on the vacuum.

    The truncated Taylor series of Al-Mohy & Higham (SIAM J. Sci. Comput.
    33, 488 (2011), algorithm 3.2): s steps of degree at most m, with
    (m, s) minimising m * ceil(|iH|_1 / theta_m) over _THETA, and each
    step's series stopped once two consecutive terms fall below 2^-53 of
    the partial sum.  The exact 1-norm sets (m, s), so the result does not
    depend on any random state.  The generator has no main diagonal, so
    the algorithm's trace shift is zero and left out.  The result is
    unitary only to the accuracy of the series: callers measure the norm
    rather than assume it.

    Raises
    ------
    NumericFailureError
        If the generator or any amplitude is non-finite.
    """
    space = hamiltonian.space
    diagonals = {offset: 1j * diag for offset, diag in hamiltonian.mat.diagonals.items()}
    # iH is real for every generator (Q_i is real, P_j imaginary), and so
    # is the vacuum.  The series then runs in real arithmetic: every
    # imaginary part it would carry is an exact zero, so the bits agree
    # with the complex run at half the work and memory.
    if not any(np.any(diag.imag) for diag in diagonals.values()):
        diagonals = {offset: diag.real for offset, diag in diagonals.items()}
    step = BandedOperator(space.dim, diagonals)
    norm = step.onenorm()
    if not math.isfinite(norm):
        raise NumericFailureError(f"generator has 1-norm {norm}")
    amps = np.zeros(space.dim, dtype=np.result_type(float, *diagonals.values()))
    amps[0] = 1.0
    if norm > 0.0:
        degree, steps = min(
            ((m, math.ceil(norm / theta)) for m, theta in _THETA.items()),
            key=lambda pair: pair[0] * pair[1],
        )
        for _ in range(steps):
            term = amps
            prev = np.max(np.abs(term))
            for k in range(1, degree + 1):
                term = (1.0 / (steps * k)) * (step @ term)
                size = np.max(np.abs(term))
                amps = amps + term
                if prev + size <= 2.0**-53 * np.max(np.abs(amps)):
                    break
                prev = size
    if not np.all(np.isfinite(amps)):
        raise NumericFailureError("vacuum evolution produced non-finite amplitudes")
    return FockTensor(space=space, amps=amps.astype(complex))


def two_photon_expand(state: TwoPhotonState, space: FockSpace) -> FockTensor:
    """Amplitudes of norm * exp(at~ F at / 2)|0> on the truncated basis.

    Each application of the quadratic creation block raises the total
    photon number by 2, so the power series terminates once it clears
    n * cutoff; raising never lowers, so the truncated series equals the
    exact projection of the infinite state onto the basis.
    """
    if state.n != space.n:
        raise ValueError(f"state has {state.n} modes, space has {space.n}")
    if np.max(np.abs(state.F - state.F.T)) > 1e-12:
        raise ValueError("two-photon matrix must be symmetric")
    _, raising = ladder_ops(space)
    quad = _pair_sum(state.F, 0.5, raising, raising)
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
    """X1 = sum Q_i / sqrt(2n) or X2 = sum P_i / sqrt(2n) as a matrix."""
    q_ops, p_ops = quadrature_ops(space)
    ops = q_ops if which == "X1" else p_ops if which == "X2" else None
    if ops is None:
        raise ValueError(f"which must be 'X1' or 'X2', got {which!r}")
    scale = 1 / math.sqrt(2.0 * space.n)
    # Each mode has its own stride, so no two operators share a diagonal.
    return BandedOperator(
        space.dim, {offset: diag * scale for op in ops for offset, diag in op.diagonals.items()}
    )


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


def _single_mode_displacement(alpha: complex, cutoff: int) -> np.ndarray:
    """exp(alpha a~ - conj(alpha) a) on one truncated mode, by eigh.

    The truncated generator stays anti-Hermitian, so this matrix is
    exactly unitary on the truncated mode.
    """
    low = np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), 1).astype(complex)
    gen = alpha * low.T - np.conj(alpha) * low
    w, v = np.linalg.eigh(1j * gen)
    return (v * np.exp(-1j * w)) @ v.conj().T


def wigner_numeric(psi: FockTensor, alpha: np.ndarray, max_boundary_mass: float = 1e-6) -> float:
    """Displaced-parity Wigner value pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>.

    The displacement factorises over modes, so D(alpha)~ psi is computed
    by contracting one small per-mode unitary along each tensor axis.

    Raises
    ------
    TruncationError
        If the displaced state carries more than ``max_boundary_mass``
        weight on the outermost shell (some n_i = cutoff), i.e. the
        cutoff is too small for this displacement.
    """
    space = psi.space
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != (space.n,):
        raise ValueError(f"alpha must have length {space.n}")
    base = space.cutoff + 1
    tensor = psi.amps.reshape((base,) * space.n)
    for i in range(space.n):
        disp_dag = _single_mode_displacement(-alpha[i], space.cutoff)
        tensor = np.moveaxis(np.tensordot(disp_dag, tensor, axes=(1, i)), 0, i)
    displaced = tensor.reshape(space.dim)
    occs = occupation_table(space)
    boundary = np.any(occs == space.cutoff, axis=1)
    boundary_mass = float(np.sum(np.abs(displaced[boundary]) ** 2))
    if boundary_mass > max_boundary_mass:
        raise TruncationError(
            f"displaced state has {boundary_mass:.3e} mass on the cutoff shell"
        )
    parity = 1.0 - 2.0 * (np.sum(occs, axis=1) % 2)
    return math.pi ** (-space.n) * float(np.sum(parity * np.abs(displaced) ** 2))


def assemble_normal_form(form: NormalOrderedForm, space: FockSpace) -> np.ndarray:
    """Dense matrix of the factored squeeze on the truncated basis.

    The creation and annihilation exponentials are nilpotent on a
    truncated basis, so their series terminate exactly.  The middle
    normally ordered factor :exp(at~ X a): equals exp(at~ log(I + X) a),
    which is photon-number conserving and therefore untouched by the
    per-mode cutoff on any sector it is compared on.

    Raises
    ------
    ResourceLimitError
        Above DENSE_DIM_GUARD states (see require_dense).
    """
    n_modes = form.creMat.shape[0]
    if n_modes != space.n:
        raise ValueError(f"form has {n_modes} modes, space has {space.n}")
    require_dense(space)
    lowering, raising = ladder_ops(space)
    cre = _pair_sum(form.creMat, 0.5, raising, raising).toarray()
    ann = _pair_sum(form.annMat, 0.5, lowering, lowering).toarray()
    cre_factor = _terminating_series(cre, np.eye(space.dim), space)
    ann_factor = _terminating_series(ann, np.eye(space.dim), space)

    one_body = np.eye(n_modes) + form.crossMat
    w, v = np.linalg.eigh(one_body)
    if np.min(w) <= 0.0:
        raise ValueError("middle factor needs a positive definite I + crossMat")
    log_one_body = (v * np.log(w)) @ v.T
    dgamma = _pair_sum(log_one_body, 1.0, raising, lowering).toarray()
    wg, vg = np.linalg.eigh(dgamma)
    mid_factor = (vg * np.exp(wg)) @ vg.conj().T

    return form.prefactor * (cre_factor @ mid_factor @ ann_factor)
