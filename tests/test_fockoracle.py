import math

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose
from scipy.sparse.linalg import expm_multiply

from nmodesqueeze import (
    NumericFailureError,
    ResourceLimitError,
    TruncationError,
    baseline_two_mode,
    build_coupling,
    build_kernel,
    build_space,
    evolve_vacuum,
    generator,
    heisenberg_transforms,
    ladder_ops,
    normal_form,
    overlap,
    quadrature_ops,
    squeezed_vacuum,
    tail_mass,
    two_photon_expand,
    vacuum,
    variance_numeric,
    wigner_from_kernel,
    wigner_numeric,
    wigner_value_alpha,
)
from nmodesqueeze.fockoracle import (
    DENSE_DIM_GUARD,
    BandedOperator,
    FockOperator,
    assemble_normal_form,
    collective_quadrature,
    occupation_table,
)
from nmodesqueeze.verification import CONFIG_OVERLAP_N2, CONFIG_OVERLAP_N3

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


def test_index_round_trip():
    space = build_space(3, 4)
    for flat in range(space.dim):
        occ = space.occupation(flat)
        assert space.index_of(occ) == flat
    assert space.index_of((0, 0, 0)) == 0
    with pytest.raises(ValueError):
        space.index_of((5, 0, 0))
    with pytest.raises(ValueError):
        space.occupation(space.dim)


def test_ladder_vacuum_expectation():
    space = build_space(2, 5)
    a_ops, adag_ops = ladder_ops(space)
    vac = vacuum(space).amps
    assert np.vdot(vac, a_ops[0] @ (adag_ops[0] @ vac)) == pytest.approx(1.0)


def test_raising_is_exact_transpose():
    space = build_space(2, 6)
    a_ops, adag_ops = ladder_ops(space)
    for a_i, adag_i in zip(a_ops, adag_ops):
        assert np.array_equal(a_i.toarray().T, adag_i.toarray())


@pytest.mark.parametrize("shape", [(1, 0), (1, 5), (2, 6), (3, 4), (4, 3)])
def test_banded_ops_match_kron_oracle(shape):
    """Ladder, quadrature and collective operators, element by element and
    nonzero count, against the Kronecker-product csr matrices."""
    space = build_space(*shape)
    csr_q, csr_p = _csr_quadratures(space)
    pairs = [
        *zip(ladder_ops(space)[0], _csr_ladder(space)[0]),
        *zip(ladder_ops(space)[1], _csr_ladder(space)[1]),
        *zip(quadrature_ops(space)[0], csr_q),
        *zip(quadrature_ops(space)[1], csr_p),
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
    a_ops, adag_ops = ([op.toarray() for op in ops] for ops in ladder_ops(space))
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


def test_quadratures_hermitian():
    space = build_space(2, 5)
    q_ops, p_ops = quadrature_ops(space)
    for op in (*q_ops, *p_ops):
        dense = op.toarray()
        assert np.max(np.abs(dense - dense.conj().T)) == 0.0


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
    assert np.max(np.abs(ham.mat.toarray() - direct.toarray())) == 0.0


def test_generator_hermiticity():
    dense = generator(build_space(3, 6), build_coupling(3), 0.2).mat.toarray()
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


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
    w, v = np.linalg.eigh(ham.mat.toarray())
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
    the bit, and so do the generator's nonzeros.  (At lambda = 0 every
    diagonal cancels, and the empty banded matrix reads as real zeros.)"""
    n, cutoff, lam = config
    ham = generator(build_space(n, cutoff), build_coupling(n), lam)
    oracle = _csr_generator(n, cutoff, lam)
    assert ham.mat.nnz == oracle.nnz
    assert ham.mat.toarray().astype(complex).tobytes() == oracle.toarray().tobytes()
    step = 1j * oracle
    assert abs(step).sum(axis=0).max() <= 60.0
    expected = expm_multiply(step, vacuum(ham.space).amps)
    assert evolve_vacuum(ham).amps.tobytes() == expected.tobytes()


def test_evolve_complex_step_matches_dense_eigh():
    """A real Hermitian H (here 0.3 (Q_0 Q_1 + Q_1 Q_0)) makes iH complex,
    which the generators never do: the series then runs in complex numbers."""
    space = build_space(2, 8)
    q_ops, _ = quadrature_ops(space)
    mat = q_ops[0].toarray() @ q_ops[1].toarray() * 0.6
    diagonals = {o: np.diag(mat, o).astype(complex) for o in range(1 - space.dim, space.dim)}
    banded = BandedOperator(space.dim, {o: d for o, d in diagonals.items() if np.any(d)})
    assert banded.toarray().tobytes() == mat.astype(complex).tobytes()
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
    ham = generator(build_space(2, 4), build_coupling(2), math.nan)
    with pytest.raises(NumericFailureError):
        evolve_vacuum(ham)


def test_evolve_beyond_dense_reach():
    """dim 29 791: the dense matrix would need 14 GB."""
    space = build_space(3, 30)
    base = build_coupling(3)
    evolved = evolve_vacuum(generator(space, base, 0.15))
    analytic = two_photon_expand(squeezed_vacuum(build_kernel(base, 0.15)), space)
    assert abs(evolved.norm - 1.0) <= 1e-10
    assert 1.0 - abs(overlap(evolved, analytic)) <= 1e-4


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
        assert psi.amps[space.index_of((k, k))] == pytest.approx(expected, rel=1e-12)
    assert psi.amps[space.index_of((1, 2))] == 0.0


def test_two_photon_four_mode_first_order():
    space = build_space(4, 3)
    psi = two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(4), 0.3)), space)
    expected = -math.tanh(0.6) / 2 / math.cosh(0.6)
    assert psi.amps[space.index_of((1, 1, 0, 0))] == pytest.approx(expected, rel=1e-12)
    assert psi.amps[space.index_of((1, 0, 1, 0))] == pytest.approx(0.0, abs=1e-15)


def test_two_photon_rejects_asymmetric_matrix():
    state = baseline_two_mode(0.3)
    object.__setattr__(state, "F", np.array([[0.0, 0.2], [0.4, 0.0]]))
    with pytest.raises(ValueError):
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
    object.__setattr__(bad, "amps", bad.amps * 0.9)
    with pytest.raises(ValueError):
        variance_numeric(bad, "X1")
    with pytest.raises(ValueError):
        variance_numeric(vacuum(space), "X3")


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
    ham = generator(space, base, lam).mat.toarray()
    w, v = np.linalg.eigh(ham)
    squeeze = (v * np.exp(1j * w)) @ v.conj().T
    q_ops, p_ops = quadrature_ops(space)
    q_t, p_t = heisenberg_transforms(build_kernel(base, lam))
    low = np.flatnonzero(occupation_table(space).sum(axis=1) <= 4)
    for k in range(2):
        for ops, transform in ((q_ops, q_t), (p_ops, p_t)):
            conjugated = squeeze.conj().T @ ops[k].toarray() @ squeeze
            analytic = sum(transform[k, i] * ops[i].toarray() for i in range(2))
            residual = (conjugated - analytic)[np.ix_(low, low)]
            assert np.max(np.abs(residual)) < 1e-12


def test_assembled_normal_form_matches_evolution():
    space = build_space(2, 12)
    base = build_coupling(2)
    lam = 0.15
    ham = generator(space, base, lam).mat.toarray()
    w, v = np.linalg.eigh(ham)
    exact = (v * np.exp(1j * w)) @ v.conj().T
    assembled = assemble_normal_form(normal_form(build_kernel(base, lam)), space)
    low = np.flatnonzero(occupation_table(space).sum(axis=1) <= 4)
    block_err = np.max(np.abs(exact[np.ix_(low, low)] - assembled[np.ix_(low, low)]))
    assert block_err < 5e-6


def test_assemble_normal_form_dense_guard():
    base = build_coupling(2)
    form = normal_form(build_kernel(base, 0.15))
    cutoff = math.isqrt(DENSE_DIM_GUARD)  # smallest cutoff past the guard
    assert build_space(2, cutoff).dim > DENSE_DIM_GUARD >= build_space(2, cutoff - 1).dim
    with pytest.raises(ResourceLimitError):
        assemble_normal_form(form, build_space(2, cutoff))


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


@pytest.mark.parametrize("config", [(3, 5, 0.3), (4, 4, 0.2)])
def test_two_photon_expand_matches_loop_oracle_bits(config):
    """F has a true diagonal at n = 3 and rounding-level entries off the ring at n = 4."""
    n, cutoff, lam = config
    space = build_space(n, cutoff)
    state = squeezed_vacuum(build_kernel(build_coupling(n), lam))
    _, raising = _csr_ladder(space)
    quad = _loop_quadratic(state.F, 0.5, raising, raising)
    expected = state.norm * _loop_series(quad, vacuum(space).amps, space)
    assert two_photon_expand(state, space).amps.tobytes() == expected.tobytes()


def test_generator_matches_loop_oracle_bits():
    """A has zero entries, so this also covers the skipped pairs."""
    space = build_space(3, 5)
    coupling = build_coupling(3)
    q_ops, p_ops = _csr_quadratures(space)
    expected = _loop_quadratic(coupling.entries, 0.2, q_ops, p_ops)
    ham = generator(space, coupling, 0.2).mat
    assert ham.nnz == expected.nnz
    assert ham.toarray().tobytes() == expected.toarray().tobytes()


def test_assemble_normal_form_matches_loop_oracle_bits():
    """The dense double loops and series of the assembly, in the test."""
    n, cutoff, lam = 2, 12, 0.15
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
    assert assemble_normal_form(form, space).tobytes() == expected.tobytes()
