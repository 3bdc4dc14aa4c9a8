import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from nmodesqueeze import (
    FockTensor,
    NumericFailureError,
    ParameterRangeError,
    ResourceLimitError,
    TruncationError,
    baseline_two_mode,
    build_coupling,
    build_kernel,
    build_space,
    evolve_vacuum,
    generator,
    matrix_function,
    normal_form,
    overlap,
    squeezed_vacuum,
    tail_mass,
    two_photon_expand,
    vacuum,
    variance_numeric,
    wigner3_closed,
    wigner4_closed,
    wigner_from_kernel,
    wigner_numeric,
    wigner_value_alpha,
)
from nmodesqueeze.fockoracle import (
    BandedOperator,
    FockOperator,
    _coordinate_factors,
    _ladders,
    assemble_normal_form,
    normalized,
    occupation_table,
)
from nmodesqueeze.verification import CONFIG_OVERLAP_N2, CONFIG_OVERLAP_N3, run_verification

# scipy appears only here, as the oracle the banded operators and the
# in-package propagator are held to.


def _csr_ladder(space):
    """Ladder matrices as Kronecker products of the single-mode lowering
    matrix, the construction the banded operators replaced."""
    base = space.cutoff + 1
    low = sp.diags(np.sqrt(np.arange(1.0, base)), offsets=1, format="csr")
    lowering = []
    for i in range(space.n):
        left = sp.identity(base**i, format="csr")
        right = sp.identity(base ** (space.n - 1 - i), format="csr")
        lowering.append(sp.kron(sp.kron(left, low, format="csr"), right, format="csr"))
    return lowering, [a_i.T.tocsr() for a_i in lowering]


def _csr_quadratures(space):
    lowering, raising = _csr_ladder(space)
    q_ops = [((a_i + adag_i) / math.sqrt(2.0)).tocsr() for a_i, adag_i in zip(lowering, raising)]
    p_ops = [
        (-1j * (a_i - adag_i) / math.sqrt(2.0)).tocsr() for a_i, adag_i in zip(lowering, raising)
    ]
    return q_ops, p_ops


def _csr_generator(n, cutoff, lam):
    q_ops, p_ops = _csr_quadratures(build_space(n, cutoff))
    return _loop_quadratic(build_coupling(n).entries, lam, q_ops, p_ops)


@pytest.fixture(scope="module")
def two_mode_run():
    """Evolved and analytic states at (n=2, cutoff=20, lambda=0.2)."""
    space = build_space(2, 20)
    base = build_coupling(2)
    evolved = evolve_vacuum(generator(space, base, 0.2))
    analytic = two_photon_expand(squeezed_vacuum(build_kernel(base, 0.2)), space)
    return space, evolved, analytic


@pytest.fixture(scope="module")
def three_mode_run():
    """Evolved and analytic states at (n=3, cutoff=9, lambda=0.15)."""
    space = build_space(3, 9)
    base = build_coupling(3)
    evolved = evolve_vacuum(generator(space, base, 0.15))
    analytic = two_photon_expand(squeezed_vacuum(build_kernel(base, 0.15)), space)
    return space, evolved, analytic


def test_space_dimensions():
    assert build_space(2, 3).dim == 16
    assert build_space(3, 7).dim == 512
    assert build_space(1, 0).dim == 1


def test_space_guard_and_validation():
    with pytest.raises(ResourceLimitError):
        build_space(4, 30)  # 31**4 = 923521
    with pytest.raises(ValueError):
        build_space(0, 5)
    with pytest.raises(ValueError):
        build_space(2, -1)


def _flat(space, occupation) -> int:
    """Flat index of an occupation tuple, mode 0 most significant."""
    return int(np.ravel_multi_index(occupation, (space.cutoff + 1,) * space.n))


def test_index_round_trip():
    space = build_space(3, 4)
    table = occupation_table(space)
    assert table.shape == (space.dim, 3)
    assert np.array_equal(np.ravel_multi_index(table.T, (5, 5, 5)), np.arange(space.dim))
    assert table[0].tolist() == [0, 0, 0]
    assert table[1].tolist() == [0, 0, 1]  # mode 0 most significant
    assert table[-1].tolist() == [4, 4, 4]


def _ladder_ops(space):
    """Per-mode lowering and raising operators: each lowering diagonal of
    ``_ladders`` at its stride, and the same diagonal below the main one."""
    ladders = _ladders(space)
    lowering = [BandedOperator(space.dim, {stride: w}) for stride, w in ladders]
    raising = [BandedOperator(space.dim, {-stride: w}) for stride, w in ladders]
    return lowering, raising


def collective_quadrature(space, which):
    """X1 = sum Q_i / sqrt(2n) or X2 = sum P_i / sqrt(2n) as one banded
    matrix, from Q_i = (a_i + a_i~)/sqrt(2) and P_i = (a_i - a_i~)/(i sqrt(2)):
    the whole operator that ``variance_numeric`` streams one diagonal at a
    time, kept as its oracle."""
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


def test_ladder_vacuum_expectation():
    space = build_space(2, 5)
    a_ops, adag_ops = _ladder_ops(space)
    vac = vacuum(space).amps
    assert np.vdot(vac, a_ops[0] @ (adag_ops[0] @ vac)) == pytest.approx(1.0)


def test_raising_is_exact_transpose():
    space = build_space(2, 6)
    a_ops, adag_ops = _ladder_ops(space)
    for a_i, adag_i in zip(a_ops, adag_ops):
        assert np.array_equal(a_i.toarray().T, adag_i.toarray())


@pytest.mark.parametrize("shape", [(1, 0), (1, 5), (2, 6), (3, 4), (4, 3)])
def test_banded_ops_match_kron_oracle(shape):
    """Ladder and collective operators, element by element and nonzero
    count, against the Kronecker-product csr matrices."""
    space = build_space(*shape)
    csr_q, csr_p = _csr_quadratures(space)
    pairs = [
        *zip(_ladder_ops(space)[0], _csr_ladder(space)[0]),
        *zip(_ladder_ops(space)[1], _csr_ladder(space)[1]),
        (collective_quadrature(space, "X1"), sum(csr_q[1:], csr_q[0]) / math.sqrt(2.0 * space.n)),
        (collective_quadrature(space, "X2"), sum(csr_p[1:], csr_p[0]) / math.sqrt(2.0 * space.n)),
    ]
    rng = np.random.default_rng(7)
    vec = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    for banded, csr in pairs:
        assert banded.dim == space.dim
        assert list(banded.diagonals) == sorted(banded.diagonals)
        assert banded.nnz == csr.nnz
        assert np.array_equal(banded.toarray(), csr.toarray())
        assert (banded @ vec).tobytes() == (csr @ vec).tobytes()


def test_commutators():
    space = build_space(2, 4)
    a_ops, adag_ops = ([op.toarray() for op in ops] for ops in _ladder_ops(space))
    occs = occupation_table(space)
    # same mode: identity on the interior n_i < cutoff
    comm = a_ops[0] @ adag_ops[0] - adag_ops[0] @ a_ops[0]
    interior = occs[:, 0] < space.cutoff
    assert_allclose(comm[interior], np.eye(space.dim)[interior], atol=1e-13)
    # the dropped cutoff -> cutoff+1 element shows up as -cutoff on the edge
    edge = ~interior
    assert_allclose(np.diag(comm)[edge], -space.cutoff, atol=1e-12)
    # distinct modes: exactly zero
    cross = a_ops[0] @ adag_ops[1] - adag_ops[1] @ a_ops[0]
    assert np.max(np.abs(cross)) == 0.0


def test_generator_zero_lambda():
    space = build_space(2, 4)
    ham = generator(space, build_coupling(2), 0.0)
    assert ham.mat.nnz == 0 or np.max(np.abs(ham.mat.toarray())) == 0.0


def test_generator_two_mode_structure():
    space = build_space(2, 5)
    lam = 0.3
    q_ops, p_ops = _csr_quadratures(space)
    direct = 2 * lam * (q_ops[0] @ p_ops[1] + q_ops[1] @ p_ops[0])
    ham = generator(space, build_coupling(2), lam)
    assert np.max(np.abs(-1j * ham.mat.toarray() - direct.toarray())) == 0.0


def test_generator_hermiticity():
    """The step iH is real and exactly antisymmetric, so H is Hermitian."""
    mat = generator(build_space(3, 6), build_coupling(3), 0.2).mat
    assert all(np.isrealobj(diag) for diag in mat.diagonals.values())
    dense = mat.toarray()
    assert dense.T.tobytes() == (0.0 - dense).tobytes()


def test_evolve_identity_at_zero():
    space = build_space(2, 6)
    state = evolve_vacuum(generator(space, build_coupling(2), 0.0))
    assert state.amps[0] == pytest.approx(1.0)
    assert np.max(np.abs(state.amps[1:])) < 1e-14


@pytest.mark.parametrize(
    "config", [(2, 10, 0.3), (3, 5, 0.2), (3, 6, 2.0), (4, 4, 2.5), (2, 25, 1.0)]
)
def test_evolve_matches_dense_eigh(config):
    """Banded action against exp(iH)|0> from a dense eigendecomposition;
    the last three have |iH|_1 = 66, 70 and 98, past the range where
    expm_multiply is the bitwise oracle."""
    n, cutoff, lam = config
    ham = generator(build_space(n, cutoff), build_coupling(n), lam)
    assert (ham.mat.onenorm() > 60.0) == (lam >= 1.0)
    w, v = np.linalg.eigh(-1j * ham.mat.toarray())
    reference = v @ (np.exp(1j * w) * v[0, :].conj())
    assert np.max(np.abs(evolve_vacuum(ham).amps - reference)) <= 1e-12


@pytest.mark.parametrize(
    "config",
    [
        *((n, cutoff, lam) for n, cutoff in ((2, 20), (3, 9), (4, 6)) for lam in (0.05, 0.2)),
        CONFIG_OVERLAP_N2,
        CONFIG_OVERLAP_N3,
        (2, 6, 0.0),
    ],
)
def test_evolve_matches_expm_multiply_bits(config):
    """Up to |iH|_1 = 60 scipy's expm_multiply chooses its Taylor degree
    from the exact 1-norm, as evolve_vacuum does: the amplitudes agree to
    the bit, and so does the step iH against 1j times the oracle's H."""
    n, cutoff, lam = config
    ham = generator(build_space(n, cutoff), build_coupling(n), lam)
    oracle = _csr_generator(n, cutoff, lam)
    step = 1j * oracle
    assert ham.mat.nnz == oracle.nnz
    assert ham.mat.toarray().astype(complex).tobytes() == step.toarray().tobytes()
    assert abs(step).sum(axis=0).max() <= 60.0
    expected = expm_multiply(step, vacuum(ham.space).amps)
    assert evolve_vacuum(ham).amps.tobytes() == expected.tobytes()


def test_evolve_complex_step_matches_dense_eigh():
    """A real Hermitian H (here 0.3 (Q_0 Q_1 + Q_1 Q_0)) makes iH complex,
    which the generators never do: the series then runs in complex numbers."""
    space = build_space(2, 8)
    q_ops, _ = _csr_quadratures(space)
    mat = (q_ops[0] @ q_ops[1]).toarray() * 0.6
    step = 1j * mat
    diagonals = {o: np.diag(step, o) for o in range(1 - space.dim, space.dim)}
    banded = BandedOperator(space.dim, {o: d for o, d in diagonals.items() if np.any(d)})
    assert banded.toarray().tobytes() == step.tobytes()
    w, v = np.linalg.eigh(mat)
    reference = v @ (np.exp(1j * w) * v[0, :].conj())
    evolved = evolve_vacuum(FockOperator(space, banded))
    assert np.max(np.abs(evolved.amps - reference)) <= 1e-12


def test_evolve_independent_of_global_rng():
    """At |iH|_1 = 66 scipy's expm_multiply would estimate norms with
    NumPy's global RNG; evolve_vacuum takes its steps from the exact
    1-norm and must not depend on it."""
    ham = generator(build_space(4, 6), build_coupling(4), 1.5)
    np.random.seed(0)
    first = evolve_vacuum(ham).amps
    np.random.seed(1)
    second = evolve_vacuum(ham).amps
    assert first.tobytes() == second.tobytes()


def test_evolve_rejects_non_finite_generator():
    # built directly: generator itself refuses a non-finite lambda
    space = build_space(2, 4)
    step = BandedOperator(space.dim, {1: np.full(space.dim - 1, math.nan)})
    with pytest.raises(NumericFailureError):
        evolve_vacuum(FockOperator(space, step))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 1e300, 20.000001])
def test_generator_rejects_lambda_outside_guard(lam):
    """The range build_kernel accepts, refused before any diagonal is built."""
    with pytest.raises(ParameterRangeError):
        generator(build_space(2, 4), build_coupling(2), lam)


def test_evolve_beyond_dense_reach():
    """dim 29 791: the dense matrix would need 14 GB."""
    space = build_space(3, 30)
    base = build_coupling(3)
    evolved = evolve_vacuum(generator(space, base, 0.15))
    analytic = two_photon_expand(squeezed_vacuum(build_kernel(base, 0.15)), space)
    assert abs(evolved.norm - 1.0) <= 1e-10
    assert 1.0 - abs(overlap(evolved, analytic)) <= 1e-4


def _start_block(space, rng):
    """The vacuum, three more basis states, a random unit column and a
    complex one: columns whose series stop at different terms."""
    block = np.zeros((space.dim, 6), dtype=complex)
    block[[0, 1, space.cutoff + 1, 2 * space.cutoff + 3], [0, 1, 2, 3]] = 1.0
    for j in (4, 5):
        col = rng.normal(size=space.dim) + (j - 4) * 1j * rng.normal(size=space.dim)
        block[:, j] = col / np.linalg.norm(col)
    return block


@pytest.mark.parametrize("config", [(2, 12, 0.15), (3, 5, 0.2), (2, 10, 1.0)])
def test_evolve_block_matches_vacuum_and_dense_references(config):
    n, cutoff, lam = config
    space = build_space(n, cutoff)
    ham = generator(space, build_coupling(n), lam)
    block = _start_block(space, np.random.default_rng(909))
    real = block[:, :5].real
    evolved = ham.evolve(real)
    assert evolved.shape == (space.dim, 5) and evolved.dtype == complex
    # each column gets the bits of its own vector run; column 0 is the vacuum
    assert evolved[:, 0].tobytes() == evolve_vacuum(ham).amps.tobytes()
    for j in range(5):
        assert evolved[:, j].tobytes() == ham.evolve(real[:, j]).tobytes()
    # a start keeps its shape: one column has the bits of the vector, and
    # no column gives an empty block
    one = ham.evolve(real[:, :1])
    assert one.shape == (space.dim, 1) and one.tobytes() == evolved[:, 0].tobytes()
    assert ham.evolve(real[:, :0]).shape == (space.dim, 0)
    for length in (space.dim + 1, 2 * space.dim):  # not read as a (dim, 2) block
        with pytest.raises(ValueError):
            ham.evolve(np.ones(length))
    dense = -1j * ham.mat.toarray()
    w, v = np.linalg.eigh(dense)
    by_eigh = (v * np.exp(1j * w)) @ (v.conj().T @ block)
    by_expm = expm(1j * dense) @ block
    complex_run = ham.evolve(block)
    for reference in (by_eigh, by_expm):
        assert np.max(np.abs(complex_run - reference)) <= 1e-12
        assert np.max(np.abs(evolved - reference[:, :5])) <= 1e-12


def test_banded_matmul_block_columns_equal_vector_products():
    space = build_space(3, 4)
    ham = generator(space, build_coupling(3), 0.3).mat
    block = _start_block(space, np.random.default_rng(11))
    product = ham @ block
    assert product.shape == block.shape
    for j in range(block.shape[1]):
        assert product[:, j].tobytes() == (ham @ block[:, j]).tobytes()


def test_evolved_norm_is_unit(two_mode_run, three_mode_run):
    for run in (two_mode_run, three_mode_run):
        assert abs(run[1].norm - 1.0) < 1e-10


def test_two_mode_overlap_with_doubled_baseline(two_mode_run):
    space, evolved, _ = two_mode_run
    target = two_photon_expand(baseline_two_mode(0.4), space)
    assert abs(overlap(evolved, target)) >= 0.999999


def test_three_mode_overlap_with_analytic(three_mode_run):
    _, evolved, analytic = three_mode_run
    assert abs(overlap(evolved, analytic)) >= 0.9999


@pytest.mark.parametrize(
    "config", [(2, 20, 0.2), (3, 9, 0.15), (4, 6, 0.1), (5, 4, 0.1), (6, 3, 0.1)]
)
def test_oracle_equivalence_tail_bound(config, two_mode_run, three_mode_run):
    n, cutoff, lam = config
    if config == (2, 20, 0.2):
        _, evolved, analytic = two_mode_run
    elif config == (3, 9, 0.15):
        _, evolved, analytic = three_mode_run
    else:
        space = build_space(n, cutoff)
        base = build_coupling(n)
        evolved = evolve_vacuum(generator(space, base, lam))
        analytic = two_photon_expand(squeezed_vacuum(build_kernel(base, lam)), space)
    assert abs(overlap(evolved, analytic)) >= 1.0 - tail_mass(analytic)


def test_two_photon_zero_matrix_is_vacuum():
    space = build_space(3, 4)
    state = squeezed_vacuum(build_kernel(build_coupling(3), 0.0))
    psi = two_photon_expand(state, space)
    assert psi.amps[0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(psi.amps[1:])) < 1e-14


def test_two_photon_geometric_amplitudes(two_mode_run):
    space, _, _ = two_mode_run
    psi = two_photon_expand(baseline_two_mode(0.4), space)
    sech, tanh = 1 / math.cosh(0.4), math.tanh(0.4)
    for k in range(space.cutoff + 1):
        expected = sech * (-tanh) ** k
        assert psi.amps[_flat(space, (k, k))] == pytest.approx(expected, rel=1e-12)
    assert psi.amps[_flat(space, (1, 2))] == 0.0


def test_two_photon_four_mode_first_order():
    space = build_space(4, 3)
    psi = two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(4), 0.3)), space)
    expected = -math.tanh(0.6) / 2 / math.cosh(0.6)
    assert psi.amps[_flat(space, (1, 1, 0, 0))] == pytest.approx(expected, rel=1e-12)
    assert psi.amps[_flat(space, (1, 0, 1, 0))] == pytest.approx(0.0, abs=1e-15)


def test_two_photon_rejects_asymmetric_matrix():
    # a hand-built state, which only the expansion checks
    for F in (np.array([[0.0, 0.2], [0.4, 0.0]]), np.full((2, 2), np.nan)):
        state = baseline_two_mode(0.3)._replace(F=F)
        with pytest.raises(ValueError, match="symmetric"):
            two_photon_expand(state, build_space(2, 4))


def test_variance_vacuum():
    space = build_space(2, 6)
    vac = vacuum(space)
    assert variance_numeric(vac, "X1") == pytest.approx(0.25, abs=1e-10)
    assert variance_numeric(vac, "X2") == pytest.approx(0.25, abs=1e-10)


def test_variance_two_mode(two_mode_run):
    _, evolved, _ = two_mode_run
    assert variance_numeric(evolved, "X1") == pytest.approx(math.exp(-0.8) / 4, abs=2e-4)


def test_variance_three_mode(three_mode_run):
    _, evolved, _ = three_mode_run
    assert variance_numeric(evolved, "X2") == pytest.approx(math.exp(0.6) / 4, abs=5e-3)


def test_variance_rejects_unnormalized():
    space = build_space(2, 3)
    bad = vacuum(space)
    bad = bad._replace(amps=bad.amps * 0.9)
    with pytest.raises(ValueError):
        variance_numeric(bad, "X1")
    with pytest.raises(ValueError):
        variance_numeric(vacuum(space), "X3")


def _nan_vacuum(space):
    psi = vacuum(space)
    return psi._replace(amps=psi.amps * math.nan)


def test_variance_refuses_nan_state():
    """abs(nan - 1) > 1e-6 is False, so the norm check reads not <=."""
    with pytest.raises(ValueError, match="deviates from 1"):
        variance_numeric(_nan_vacuum(build_space(2, 3)), "X1")


def test_tail_mass_of_nan_state_is_nan():
    """max(0.0, nan) is 0.0: a NaN state would read as complete."""
    assert math.isnan(tail_mass(_nan_vacuum(build_space(2, 3))))
    assert tail_mass(vacuum(build_space(2, 3))) == 0.0


@pytest.mark.parametrize("scale", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
def test_normalized_refuses_a_norm_that_is_not_positive_and_finite(scale):
    psi = vacuum(build_space(2, 3))
    amps = psi.amps.copy()
    amps[0] = scale
    with pytest.raises(ValueError, match="cannot normalize"):
        normalized(psi._replace(amps=amps))
    assert normalized(psi._replace(amps=psi.amps * 2.0)).amps.tobytes() == psi.amps.tobytes()


def _variance_oracle(psi, which):
    """The whole-operator variance: X psi from ``collective_quadrature``."""
    x_psi = collective_quadrature(psi.space, which) @ psi.amps
    return float(np.vdot(x_psi, x_psi).real) - float(np.vdot(psi.amps, x_psi).real) ** 2


@pytest.mark.parametrize("config", [(3, 20, 0.5), (2, 8, 0.3)])
@pytest.mark.parametrize("which", ["X1", "X2"])
def test_variance_numeric_matches_whole_operator_bits(config, which):
    """Streaming the diagonals sums each row in the whole operator's order."""
    n, cutoff, lam = config
    space = build_space(n, cutoff)
    psi = normalized(two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(n), lam)), space))
    assert variance_numeric(psi, which).hex() == _variance_oracle(psi, which).hex()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("which", ["X1", "X2"])
def test_variance_numeric_holds_one_diagonal_at_a_time(which):
    """At (3, 20, 0.5), dim 9261, with R = 8 dim bytes a real state-sized
    array, the model holds at most 10 R at once: the 3 real ladders, X psi
    (2 R), the diagonal just added (2 R) and the one being built (2 R,
    plus -w, 1 R).  The bound gives one R of slack; the whole operator's
    2n = 6 complex diagonals alone are 12 R.  (Measured: X2 read 9.98 R
    first, then 8.98 R once the added diagonal is released before the next
    is built; X1 reads 9.76 R, its real diagonal times the complex state
    going through numpy's 128 KB cast buffer.)"""
    n, cutoff, lam = 3, 20, 0.5
    space = build_space(n, cutoff)
    psi = normalized(two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(n), lam)), space))
    assert _traced_peak(variance_numeric, psi, which) < 11 * 8 * space.dim


def test_wigner_numeric_vacuum_origin():
    space = build_space(3, 4)
    assert wigner_numeric(vacuum(space), np.zeros(3)) == pytest.approx(math.pi**-3, rel=1e-12)


def test_wigner_numeric_vacuum_displaced(two_mode_run):
    space, _, _ = two_mode_run
    value = wigner_numeric(vacuum(space), np.array([0.5, 0.0]))
    assert value == pytest.approx(math.pi**-2 * math.exp(-0.5), abs=1e-6)


def test_wigner_numeric_squeezed_three_mode():
    space = build_space(3, 8)
    kernel = build_kernel(build_coupling(3), 0.1)
    psi = two_photon_expand(squeezed_vacuum(kernel), space)
    value = wigner_numeric(psi, np.array([0.5, 0, 0]))
    assert value == pytest.approx(0.019144546955626205, abs=1e-3)
    # agreement is far tighter than the coarse tolerance above
    assert value == pytest.approx(0.019144546955626205, rel=1e-9)


def test_wigner_numeric_matches_gaussian_at_random_points():
    rng = np.random.default_rng(404)
    space = build_space(3, 8)
    kernel = build_kernel(build_coupling(3), 0.1)
    psi = two_photon_expand(squeezed_vacuum(kernel), space)
    wig = wigner_from_kernel(kernel)
    for _ in range(20):
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        alpha *= 0.6 * rng.random() / np.linalg.norm(alpha)
        assert wigner_numeric(psi, alpha) == pytest.approx(
            wigner_value_alpha(wig, alpha), abs=1e-3
        )


def _wigner_numeric_loop(psi, alpha):
    """One point, one mode at a time, by the route the coordinate one
    replaced: a tensordot of each per-mode unitary, built by its own
    complex eigh, along that mode's axis.  Kept as the independent oracle."""
    space = psi.space
    low = np.diag(np.sqrt(np.arange(1.0, space.cutoff + 1.0)), 1).astype(complex)
    tensor = psi.amps.reshape((space.cutoff + 1,) * space.n)
    for i in range(space.n):
        gen = -alpha[i] * low.T + np.conj(alpha[i]) * low
        w, v = np.linalg.eigh(1j * gen)
        disp_dag = (v * np.exp(-1j * w)) @ v.conj().T
        tensor = np.moveaxis(np.tensordot(disp_dag, tensor, axes=(1, i)), 0, i)
    occs = occupation_table(space)
    parity = 1.0 - 2.0 * (np.sum(occs, axis=1) % 2)
    return math.pi ** (-space.n) * float(np.sum(parity * np.abs(tensor.reshape(-1)) ** 2))


def _coordinate_wigner_loop(psi, alpha):
    """The coordinate route restated for one point, one mode and one slab
    of the modes before it at a time: turn the phases, a real product with
    v~ on the float pairs of the slab, the kick, a real product with v."""
    space = psi.space
    base = space.cutoff + 1
    off = np.sqrt(np.arange(1.0, base))
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    tensor = psi.amps.astype(complex)
    for i in range(space.n):
        beta = -alpha[i]
        turn = np.exp(-1j * (np.angle(beta) + math.pi / 2) * np.arange(float(base)))
        kick = np.exp(-1j * np.abs(beta) * x)
        slabs = tensor.reshape(base**i, base, -1)
        for slab in slabs:
            slab *= turn[:, None]
            slab[:] = (v.T @ slab.view(float)).view(complex)
            slab *= kick[:, None]
            slab[:] = (v @ slab.view(float)).view(complex)
    occs = occupation_table(space)
    parity = 1.0 - 2.0 * (np.sum(occs, axis=1) % 2)
    return math.pi ** (-space.n) * float(np.sum(parity * np.abs(tensor) ** 2))


def _wigner_rows(rng, m, n):
    rows = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
    return rows * (0.6 * rng.random((m, 1)) / np.linalg.norm(rows, axis=1, keepdims=True))


@pytest.mark.parametrize("config", [(3, 8, 0.1), (2, 20, 0.2), (1, 12, 0.0), (4, 6, 0.1)])
def test_wigner_numeric_rows_equal_point_calls(config):
    """Batched rows keep the bits of single-point calls and of the loop
    restatement of the coordinate route.  The complex-eigh oracle agrees
    within 1e-14: each per-mode unitary matches it within about 1e-14 up
    to cutoff 30, so the n modes move a parity sum of unit weight by at
    most 2n times that, scaled by pi^-n."""
    n, cutoff, lam = config
    space = build_space(n, cutoff)
    if n == 1:
        psi = vacuum(space)
    else:
        psi = two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(n), lam)), space)
    rows = _wigner_rows(np.random.default_rng(505), 12, n)
    batched = wigner_numeric(psi, rows)
    assert isinstance(batched, np.ndarray) and batched.shape == (12,)
    singles = [wigner_numeric(psi, alpha) for alpha in rows]
    assert all(type(value) is float for value in singles)
    assert batched.tobytes() == np.array(singles).tobytes()
    assert batched.tolist() == [_coordinate_wigner_loop(psi, alpha) for alpha in rows]
    oracle = [_wigner_numeric_loop(psi, alpha) for alpha in rows]
    assert np.max(np.abs(batched - oracle)) < 1e-14


def test_coordinate_factors_match_expm_of_the_truncated_generator():
    """Theta v diag(kick) v~ Theta~ from the factors equals scipy's expm of
    beta a~ - conj(beta) a, beta = -alpha, on cutoff + 1 levels, and is
    unitary, for cutoffs 0-30 and |alpha| <= 3.  expm's own error is a few
    eps times the generator's 1-norm (at most 2 * 3 * sqrt(30), about 33),
    so 1e-13 holds both."""
    alpha = np.array([[0.0, 0.4 - 0.3j, -1.2 + 2.1j, 3j, -3.0, 2.1 + 2.1j, 1e-9]])
    for cutoff in range(31):
        low = np.diag(np.sqrt(np.arange(1.0, cutoff + 1.0)), 1)
        v, turns, kicks = _coordinate_factors(alpha, cutoff)
        for a, turn, kick in zip(alpha[0], turns[0], kicks[0]):
            disp = (np.conj(turn)[:, None] * (v * kick) @ v.T) * turn
            exact = expm(-a * low.T + np.conj(a) * low)
            assert np.max(np.abs(disp - exact)) < 1e-13, (cutoff, a)
            assert np.max(np.abs(disp @ disp.conj().T - np.eye(cutoff + 1))) < 1e-13


@pytest.mark.parametrize("dtype", [np.float64, np.complex64])
def test_wigner_numeric_real_and_single_amplitudes_match_their_complex_cast(dtype):
    """A hand-built tensor with real or complex64 amplitudes gives its
    complex128 cast's values bit for bit: real entries are never paired up
    as one complex number."""
    space = build_space(3, 8)
    psi = two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(3), 0.1)), space)
    amps = psi.amps.real if dtype is np.float64 else psi.amps
    narrow = FockTensor(space, amps.astype(dtype))
    cast = FockTensor(space, narrow.amps.astype(complex))
    rows = _wigner_rows(np.random.default_rng(606), 5, 3)
    assert wigner_numeric(narrow, rows).tobytes() == wigner_numeric(cast, rows).tobytes()
    assert wigner_numeric(narrow, rows[0]) == wigner_numeric(cast, rows[0])


def test_wigner_evaluators_give_empty_arrays_for_zero_rows():
    kernel = build_kernel(build_coupling(3), 0.1)
    psi = two_photon_expand(squeezed_vacuum(kernel), build_space(3, 4))
    values = [
        wigner_numeric(psi, np.zeros((0, 3))),
        wigner_value_alpha(wigner_from_kernel(kernel), np.zeros((0, 3))),
    ]
    for lam in (0.1, np.zeros(0)):  # one lambda, or one per row
        values += [wigner3_closed(lam, np.zeros((0, 3))), wigner4_closed(lam, np.zeros((0, 4)))]
    for value in values:
        assert isinstance(value, np.ndarray) and value.shape == (0,) and value.dtype == float


def test_verify_makes_no_complex_lapack_call(monkeypatch):
    """Pins how the parity oracle works, on any machine: no complex array
    reaches a dense LAPACK routine in a whole verify run, and
    ``wigner_numeric`` diagonalises once per call, whatever its rows."""
    calls = []
    for name in ("eigh", "eigvalsh", "eig", "solve", "inv", "det"):

        def wrapped(*args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            calls.append((_name, any(np.iscomplexobj(arg) for arg in args)))
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapped)
    assert run_verification(seed=0).overall == "pass"
    assert calls and not [call for call in calls if call[1]]
    space = build_space(3, 8)
    psi = two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(3), 0.1)), space)
    for m in (1, 20):
        calls.clear()
        wigner_numeric(psi, _wigner_rows(np.random.default_rng(m), m, 3))
        assert calls == [("eigh", False)]


def test_wigner_numeric_releases_each_mode_product():
    """verify's parity config, (3, 8) with 20 points: with W = 20 dim 16
    bytes one row stack, each mode holds at most 2 W (its input and the
    product it becomes, the phases and kicks taken in place), and the
    squared moduli are taken once the displaced rows are all that is
    held.  The bound is 3.5 W (the complex-eigh route read 3.35 W; this
    one reads 2.08 W)."""
    space = build_space(3, 8)
    psi = two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(3), 0.1)), space)
    rows = _wigner_rows(np.random.default_rng(505), 20, 3)
    assert _traced_peak(wigner_numeric, psi, rows) < 3.5 * 20 * space.dim * 16


def test_wigner_numeric_rows_raise_when_any_row_is_truncated():
    space = build_space(2, 4)
    rows = np.array([[0.1, 0.0], [2.5, 0.0], [0.0, 0.2j]])
    assert wigner_numeric(vacuum(space), rows[[0, 2]]).shape == (2,)
    with pytest.raises(TruncationError, match="at alpha row 1"):
        wigner_numeric(vacuum(space), rows)
    with pytest.raises(ValueError, match="alpha must have length 2"):
        wigner_numeric(vacuum(space), np.zeros((2, 3)))


def test_wigner_numeric_rejects_excessive_displacement():
    space = build_space(2, 4)
    with pytest.raises(TruncationError):
        wigner_numeric(vacuum(space), np.array([2.5, 0.0]))


def test_overlap_properties():
    space = build_space(2, 5)
    vac = vacuum(space)
    assert overlap(vac, vac) == pytest.approx(1.0)
    psi = two_photon_expand(baseline_two_mode(0.3), space)
    assert overlap(psi, psi).real == pytest.approx(psi.norm**2, rel=1e-12)
    with pytest.raises(ValueError):
        overlap(vac, vacuum(build_space(2, 6)))


def test_conjugation_matches_heisenberg_transforms():
    """S~ Q_k S against the analytic transform matrices, brute force."""
    space = build_space(2, 16)
    base = build_coupling(2)
    lam = 0.12
    ham = -1j * generator(space, base, lam).mat.toarray()
    w, v = np.linalg.eigh(ham)
    squeeze = (v * np.exp(1j * w)) @ v.conj().T
    q_ops, p_ops = _csr_quadratures(space)
    q_t = build_kernel(base, lam).Lambda
    p_t = matrix_function(base, lambda a: np.exp(lam * a))
    low = np.flatnonzero(occupation_table(space).sum(axis=1) <= 4)
    for k in range(2):
        for ops, transform in ((q_ops, q_t), (p_ops, p_t)):
            conjugated = squeeze.conj().T @ ops[k].toarray() @ squeeze
            analytic = sum(transform[k, i] * ops[i].toarray() for i in range(2))
            residual = (conjugated - analytic)[np.ix_(low, low)]
            assert np.max(np.abs(residual)) < 1e-12


def _low_columns(space):
    """Flat indices of the states with at most 4 photons, and the (dim, k)
    block of their unit columns."""
    low = np.flatnonzero(occupation_table(space).sum(axis=1) <= 4)
    cols = np.zeros((space.dim, low.size))
    cols[low, np.arange(low.size)] = 1.0
    return low, cols


def _assembly_error_vs_evolution(n, cutoff, lam):
    space = build_space(n, cutoff)
    base = build_coupling(n)
    low, cols = _low_columns(space)
    exact = generator(space, base, lam).evolve(cols)
    assembled = assemble_normal_form(normal_form(build_kernel(base, lam)), space, cols)
    return np.max(np.abs(exact[low] - assembled[low]))


def test_assembled_normal_form_matches_evolution():
    assert _assembly_error_vs_evolution(2, 12, 0.15) < 5e-6


def test_assembled_normal_form_mixing_modes_matches_evolution():
    """At n = 3 crossMat has off-diagonal entries, so the IWOP
    substitution mixes modes."""
    assert _assembly_error_vs_evolution(3, 9, 0.15) < 5e-6


def test_assemble_normal_form_stays_small_at_cutoff_100():
    """dim 10 201: one dense complex matrix would take 1.6 GB."""
    space = build_space(2, 100)
    form = normal_form(build_kernel(build_coupling(2), 0.15))
    low, cols = _low_columns(space)
    tracemalloc.start()
    try:
        assembled = assemble_normal_form(form, space, cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assembled.shape == (space.dim, low.size)
    assert peak < 32 * 2**20


def _loop_quadratic(coeff, scale, left, right, dense=False):
    """The per-function double loops the pair sum replaced, kept as oracles."""
    dim = left[0].shape[0]
    if dense:
        left = [op.toarray() for op in left]
        right = [op.toarray() for op in right]
        total = np.zeros((dim, dim))
        for i in range(len(left)):
            for j in range(len(right)):
                if coeff[i, j] != 0.0:
                    total += scale * coeff[i, j] * (left[i] @ right[j])
        return total
    total = sp.csr_matrix((dim, dim), dtype=np.result_type(left[0].dtype, right[0].dtype))
    for i in range(len(left)):
        for j in range(len(right)):
            if coeff[i, j] != 0.0:
                total = total + (scale * coeff[i, j]) * (left[i] @ right[j])
    return total.tocsr()


def _loop_series(mat, start, space):
    result = start.copy()
    term = start.copy()
    for k in range(1, space.n * space.cutoff // 2 + 2):
        term = mat @ term / k
        if not np.any(term):
            break
        result = result + term
    return result


@pytest.mark.parametrize("config", [(3, 5, 0.3), (4, 4, 0.2), (3, 20, 0.5), (2, 30, 1.5)])
def test_two_photon_expand_matches_loop_oracle_bits(config):
    """F has a true diagonal at n = 3 and rounding-level entries off the ring
    at n = 4.  The oracle sums in complex arithmetic and divides by k; the
    expansion runs in F's real arithmetic and scales by 1.0 / k."""
    n, cutoff, lam = config
    space = build_space(n, cutoff)
    state = squeezed_vacuum(build_kernel(build_coupling(n), lam))
    _, raising = _csr_ladder(space)
    quad = _loop_quadratic(state.F, 0.5, raising, raising)
    expected = state.norm * _loop_series(quad, vacuum(space).amps, space)
    assert two_photon_expand(state, space).amps.tobytes() == expected.tobytes()


def test_two_photon_expand_stays_real_until_the_end():
    """At (3, 20, 0.5), dim 9261, with R = 8 dim bytes a real state-sized
    array, the model holds at most 11 R at once: F's 6 distinct pair
    diagonals, the start vector, the partial sum, the previous term, the
    new term and the product added into it.  The bound gives one R of
    slack; in complex arithmetic the 5 vectors alone are 10 R."""
    n, cutoff, lam = 3, 20, 0.5
    space = build_space(n, cutoff)
    state = squeezed_vacuum(build_kernel(build_coupling(n), lam))
    assert _traced_peak(two_photon_expand, state, space) < 12 * 8 * space.dim


def test_generator_matches_loop_oracle_bits():
    """A has zero entries, so this also covers the skipped pairs."""
    space = build_space(3, 5)
    coupling = build_coupling(3)
    q_ops, p_ops = _csr_quadratures(space)
    expected = _loop_quadratic(coupling.entries, 0.2, q_ops, p_ops)
    step = generator(space, coupling, 0.2).mat
    assert step.nnz == expected.nnz
    assert step.toarray().astype(complex).tobytes() == (1j * expected).toarray().tobytes()


def test_generator_stays_small():
    """dim 161 051: the step's ten real diagonals take 12.4 MB."""
    space = build_space(5, 10)
    base = build_coupling(5)
    tracemalloc.start()
    try:
        ham = generator(space, base, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ham.mat.diagonals) == 10
    assert peak < 32 * 2**20


def _assembly_error_vs_loop_oracle(n, cutoff, lam):
    """The dense double loops and series of the old assembly, with the
    middle factor exp(at~ log(I + X) a) from two eighs, in the test.  On
    the columns of at most 4 <= cutoff photons both are exact, so they
    agree to rounding."""
    space = build_space(n, cutoff)
    form = normal_form(build_kernel(build_coupling(n), lam))
    lowering, raising = _csr_ladder(space)
    eye = np.eye(space.dim)
    cre = _loop_series(_loop_quadratic(form.creMat, 0.5, raising, raising, True), eye, space)
    ann = _loop_series(_loop_quadratic(form.annMat, 0.5, lowering, lowering, True), eye, space)
    w, v = np.linalg.eigh(np.eye(n) + form.crossMat)
    dgamma = _loop_quadratic((v * np.log(w)) @ v.T, 1.0, raising, lowering, True)
    wg, vg = np.linalg.eigh(dgamma)
    mid = (vg * np.exp(wg)) @ vg.conj().T
    expected = form.prefactor * (cre @ mid @ ann)
    low, cols = _low_columns(space)
    return np.max(np.abs(assemble_normal_form(form, space, cols) - expected[:, low]))


def test_assemble_normal_form_matches_loop_oracle_bits():
    """The bitwise dense product is gone; the block is held to the dense
    oracle's columns within rounding."""
    assert _assembly_error_vs_loop_oracle(2, 12, 0.15) < 1e-14


def test_assemble_normal_form_mixing_modes_matches_loop_oracle():
    """At n = 3 the IWOP substitution mixes modes."""
    assert _assembly_error_vs_loop_oracle(3, 5, 0.15) < 1e-14
