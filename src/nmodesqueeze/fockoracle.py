"""Truncated Fock-space brute force for cross-checking every closed form.

States live on a per-mode-truncated basis |n_1 ... n_n> with n_i <= cutoff,
flattened with mode 0 most significant.  Ladder operators are sparse
matrices built by Kronecker products; the raising operator simply drops the
cutoff -> cutoff+1 matrix element, so commutator identities hold exactly
on the interior (n_i < cutoff) subspace and tail mass is *measured*, never
assumed away.  Every quadratic form sum_ij c_ij op_i op_j comes from one
pair sum, and every exponential of a photon-pair block from one series.

The squeeze itself is realised as the action exp(iH)|0> of the sparse
quadratic generator on the vacuum (truncated Taylor series with Al-Mohy &
Higham's step selection), never as a dense matrix.  Its unitarity is not
given by construction: the evolved norm is measured, and `verify` holds it
to 1e-10.  Wigner values come from the displaced-parity expectation
    W(alpha) = pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>,
with the displacement factored into per-mode unitaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coupling import CouplingMatrix
from .errors import NumericFailureError, ResourceLimitError, TruncationError
from .normalform import NormalOrderedForm, TwoPhotonState

# Largest truncated basis any Fock computation accepts.  The sparse paths
# hold the generator (at most 9 nonzeros per row, measured for n = 2..8) and
# a few state vectors: building the generator and evolving the vacuum stayed
# under 250 MB peak RSS up to 2e5 states (n = 2..8, 2 vCPUs).  Their run time
# grows with |lambda| * cutoff, which sets the number of Taylor terms.
DIM_GUARD = 200_000
# Byte budget of one dense complex dim x dim matrix.  Only
# assemble_normal_form and the eigh reference that checks it build dense
# matrices, each holding several at once (the normal_form_assembly check
# peaked at 590 MB RSS at dim 2025); above DENSE_DIM_GUARD states they
# refuse rather than ask for GB-sized arrays.
DENSE_MATRIX_BYTES = 64 * 2**20
DENSE_DIM_GUARD = math.isqrt(DENSE_MATRIX_BYTES // 16)
# Largest 1-norm of iH handed to one expm_multiply call.  Above
# 2 ell p_max (p_max + 3) theta_55 / 55 = 63.36 (condition 3.13 of Al-Mohy &
# Higham, ell = 2, p_max = 8, one vector) scipy picks the Taylor degree with
# onenormest, which draws from NumPy's unseeded global RNG, so the result
# would differ from run to run.  Below it the choice uses the exact 1-norm.
STEP_NORM = 60.0


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
class FockOperator:
    """The sparse generator together with the basis it acts on."""

    space: FockSpace
    mat: sp.spmatrix


def build_space(n: int, cutoff: int) -> FockSpace:
    """Truncated basis for n modes with at most ``cutoff`` photons each.

    Raises
    ------
    ResourceLimitError
        If (cutoff + 1)**n exceeds DIM_GUARD (2e5 states), the size up to
        which the sparse generator, the vacuum evolution and the state
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


def _single_mode_lowering(cutoff: int) -> sp.csr_matrix:
    data = np.sqrt(np.arange(1.0, cutoff + 1.0))
    return sp.diags(data, offsets=1, format="csr")


def ladder_ops(space: FockSpace) -> tuple[list[sp.csr_matrix], list[sp.csr_matrix]]:
    """Per-mode lowering and raising operators (exact transposes).

    The raising operator is truncated: its cutoff -> cutoff+1 element is
    dropped, so [a_i, a_i~] equals the identity only on n_i < cutoff.
    """
    base = space.cutoff + 1
    low = _single_mode_lowering(space.cutoff)
    lowering, raising = [], []
    for i in range(space.n):
        left = sp.identity(base**i, format="csr")
        right = sp.identity(base ** (space.n - 1 - i), format="csr")
        a_i = sp.kron(sp.kron(left, low, format="csr"), right, format="csr")
        lowering.append(a_i)
        raising.append(a_i.T.tocsr())
    return lowering, raising


def quadrature_ops(space: FockSpace) -> tuple[list[sp.csr_matrix], list[sp.csr_matrix]]:
    """Truncated Q_i = (a_i + a_i~)/sqrt(2) and P_i = (a_i - a_i~)/(i sqrt(2))."""
    lowering, raising = ladder_ops(space)
    q_ops, p_ops = [], []
    for a_i, adag_i in zip(lowering, raising):
        q_ops.append(((a_i + adag_i) / math.sqrt(2.0)).tocsr())
        p_ops.append((-1j * (a_i - adag_i) / math.sqrt(2.0)).tocsr())
    return q_ops, p_ops


def _pair_sum(coeff: np.ndarray, scale: float, left: list, right: list) -> sp.csr_matrix:
    """sum_ij (scale * c_ij) * (left_i @ right_j) over the nonzero c_ij, added
    term by term in row-major order: every quadratic form of the oracle."""
    dim = left[0].shape[0]
    total = sp.csr_matrix((dim, dim), dtype=np.result_type(left[0].dtype, right[0].dtype))
    for i, left_i in enumerate(left):
        for j, right_j in enumerate(right):
            if coeff[i, j] != 0:
                total = total + (scale * coeff[i, j]) * (left_i @ right_j)
    return total.tocsr()


def _terminating_series(
    mat: sp.spmatrix | np.ndarray, start: np.ndarray, space: FockSpace
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
    """exp(iH)|0> as the action of the sparse exponential on the vacuum.

    scipy's expm_multiply (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
    (2011)) is applied in equal steps of 1-norm at most STEP_NORM, which
    keeps its parameter choice deterministic.  The result is unitary only
    to the accuracy of the series: callers measure the norm rather than
    assume it.

    Raises
    ------
    NumericFailureError
        If the generator or any amplitude is non-finite.
    """
    # Deferred: importing scipy.sparse.linalg takes about 0.13 s (2 vCPUs),
    # which every CLI command would pay, and most never evolve anything.
    from scipy.sparse.linalg import expm_multiply, norm

    h_norm = norm(hamiltonian.mat, 1)
    if not math.isfinite(h_norm):
        raise NumericFailureError(f"generator has 1-norm {h_norm}")
    steps = max(1, math.ceil(h_norm / STEP_NORM))
    step = (1j / steps) * hamiltonian.mat
    amps = vacuum(hamiltonian.space).amps
    for _ in range(steps):
        amps = expm_multiply(step, amps)
    if not np.all(np.isfinite(amps)):
        raise NumericFailureError("vacuum evolution produced non-finite amplitudes")
    return FockTensor(space=hamiltonian.space, amps=amps)


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


def collective_quadrature(space: FockSpace, which: str) -> sp.csr_matrix:
    """X1 = sum Q_i / sqrt(2n) or X2 = sum P_i / sqrt(2n) as a matrix."""
    q_ops, p_ops = quadrature_ops(space)
    ops = q_ops if which == "X1" else p_ops if which == "X2" else None
    if ops is None:
        raise ValueError(f"which must be 'X1' or 'X2', got {which!r}")
    return (sum(ops[1:], ops[0]) / math.sqrt(2.0 * space.n)).tocsr()


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
    low = _single_mode_lowering(cutoff).toarray().astype(complex)
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
