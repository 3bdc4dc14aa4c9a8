import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nmodesqueeze import normalform, verification
from nmodesqueeze import (
    TwoPhotonState,
    baseline_two_mode,
    build_coupling,
    build_kernel,
    build_space,
    four_mode_closed,
    matrix_function,
    normal_form,
    squeezed_vacuum,
    three_mode_closed,
    two_photon_expand,
    wigner3_closed,
    wigner4_closed,
    wigner_from_kernel,
    wigner_value_alpha,
    wigner_values,
)
from nmodesqueeze.errors import LAMBDA_GUARD, ParameterRangeError

SWEEP_N = range(2, 9)


def _kernel(n, lam):
    return build_kernel(build_coupling(n), lam)


def test_normal_form_identity_at_zero():
    form = normal_form(_kernel(4, 0.0))
    assert form.prefactor == pytest.approx(1.0, abs=1e-12)
    for mat in (form.creMat, form.crossMat, form.annMat):
        assert_allclose(mat, 0.0, atol=1e-12)


def test_normal_form_two_mode_creation_block():
    form = normal_form(_kernel(2, 0.35))
    t = math.tanh(0.7)
    assert_allclose(form.creMat, [[0.0, -t], [-t, 0.0]], atol=1e-12)


def test_normal_form_four_mode_prefactor():
    assert normal_form(_kernel(4, 0.3)).prefactor == pytest.approx(
        1 / math.cosh(0.6), rel=1e-12
    )


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", [0.5, -0.5, 0.1, -0.1])
def test_cremat_equals_minus_tanh(n, lam):
    # tanh(lambda A) from a dense eigendecomposition, not the circulant route
    coupling = build_coupling(n)
    w, v = np.linalg.eigh(coupling.entries.astype(float))
    form = normal_form(build_kernel(coupling, lam))
    assert_allclose(form.creMat, -(v * np.tanh(lam * w)) @ v.T, atol=1e-10)


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", [0.5, -0.5, 0.1, -1.0])
def test_blocks_equal_paper_products(n, lam):
    # the paper's dense products, independent of the circulant route
    kernel = _kernel(n, lam)
    form = normal_form(kernel)
    lam_ninv = kernel.Lambda @ kernel.NmatInv
    assert_allclose(form.creMat, lam_ninv @ kernel.Lambda - np.eye(n), atol=1e-10)
    assert_allclose(form.crossMat, lam_ninv - np.eye(n), atol=1e-10)
    assert_allclose(form.annMat, kernel.NmatInv - np.eye(n), atol=1e-10)


def test_cremat_record_fails_on_a_perturbed_block(monkeypatch):
    assert verification.check_cremat_identity(1e-10).passed

    def shifted(coupling, fn):
        return matrix_function(coupling, fn) + 1e-9

    monkeypatch.setattr(normalform, "matrix_function", shifted)
    record = verification.check_cremat_identity(1e-10)
    assert record.passed is False
    assert record.actual > 1e-10


@pytest.mark.parametrize("n", [4, 8])
def test_creation_block_exact_zeros_at_even_distance(n):
    F = squeezed_vacuum(_kernel(n, 0.3)).F
    index = np.arange(n)
    even = (index[:, None] - index[None, :]) % 2 == 0
    assert np.all(F[even] == 0.0)
    if n == 4:
        assert np.count_nonzero(F) == 8


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", [0.0, 0.2, -0.7, 1.0])
def test_normal_form_invariants(n, lam):
    kernel = _kernel(n, lam)
    form = normal_form(kernel)
    assert_allclose(form.creMat, form.creMat.T, atol=1e-12)
    assert_allclose(form.annMat, form.annMat.T, atol=1e-12)
    assert np.max(np.abs(np.linalg.eigvalsh(form.creMat))) < 1.0
    assert form.prefactor**2 * kernel.detN / kernel.detLambda == pytest.approx(1.0, abs=1e-12)


def test_squeezed_vacuum_at_zero_is_vacuum():
    state = squeezed_vacuum(_kernel(3, 0.0))
    assert state.norm == pytest.approx(1.0, abs=1e-12)
    assert_allclose(state.F, 0.0, atol=1e-12)


def test_squeezed_vacuum_four_mode_pattern():
    state = squeezed_vacuum(_kernel(4, 0.3))
    half_tanh = math.tanh(0.6) / 2
    for i, j in ((0, 1), (1, 2), (2, 3), (0, 3)):
        assert state.F[i, j] == pytest.approx(-half_tanh, rel=1e-12)
        assert state.F[j, i] == pytest.approx(-half_tanh, rel=1e-12)
    assert_allclose(np.diag(state.F), 0.0, atol=1e-12)
    assert state.F[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert state.F[1, 3] == pytest.approx(0.0, abs=1e-12)
    assert state.norm == pytest.approx(1 / math.cosh(0.6), rel=1e-12)


def test_squeezed_vacuum_three_mode_coefficients():
    state = squeezed_vacuum(_kernel(3, 0.2))
    closed = three_mode_closed(0.2)
    assert_allclose(np.diag(state.F), closed.A1 / 3, rtol=1e-10)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert state.F[i, j] == pytest.approx(-2 * closed.A2 / 3, rel=1e-10)
    assert state.norm == pytest.approx(closed.A3, rel=1e-10)


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", [0.1, 0.4, -0.6])
def test_two_photon_unit_norm_invariant(n, lam):
    state = squeezed_vacuum(_kernel(n, lam))
    f_eigs = np.linalg.eigvalsh(state.F)
    assert state.norm == pytest.approx(float(np.prod(1 - f_eigs**2) ** 0.25), abs=1e-8)


def test_two_photon_state_validation():
    space = build_space(2, 10)
    half = np.array([[0.0, 0.5], [0.5, 0.0]])
    sech2 = np.full(2, 0.75)  # 1 - f^2 for the eigenvalues +-0.5
    valid = TwoPhotonState(norm=math.sqrt(0.75), F=half, sech2=sech2)
    assert two_photon_expand(valid, space).norm > 0
    refused = [
        ("symmetric", math.sqrt(0.75), np.array([[0.0, 0.5], [0.2, 0.0]]), sech2),
        ("symmetric", 1.0, np.full((2, 2), np.nan), np.ones(2)),
        ("does not match", 0.9, half, sech2),
        ("must lie in", 0.0, np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2)),
        # eigenvalues +-2 with the sech2 of +-sqrt(0.5): left unchecked, it
        # expands to |psi|^2 = 699 050.5 with tail mass 0
        (r"1 - f\^2 over the eigenvalues", math.sqrt(0.5), 4 * half, np.full(2, 0.5)),
        # a 0-d or list F, which has no shape to index or no .T, is refused the same way
        ("F must be n x n and sech2 of length n", math.sqrt(0.75), np.array(0.5), sech2),
        ("F must be n x n and sech2 of length n", math.sqrt(0.75), half.tolist(), sech2),
    ]
    for message, norm, F, spectrum in refused:
        with pytest.raises(ValueError, match=message):
            two_photon_expand(TwoPhotonState(norm=norm, F=F, sech2=spectrum), space)


def test_baseline_values():
    state = baseline_two_mode(0.6)
    assert state.n == 2
    assert state.F[0, 1] == pytest.approx(-math.tanh(0.6), rel=1e-12)
    assert state.norm == pytest.approx(1 / math.cosh(0.6), rel=1e-12)
    assert baseline_two_mode(0.0).norm == 1.0


@pytest.mark.parametrize("lam", [40.5, -800.0, math.inf, math.nan])
def test_baseline_rejects_past_the_doubled_guard(lam):
    with pytest.raises(ParameterRangeError):
        baseline_two_mode(lam)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "evaluate",
    [
        three_mode_closed,
        four_mode_closed,
        baseline_two_mode,
        lambda lam: wigner3_closed(lam, np.zeros(3)),
        lambda lam: wigner4_closed(lam, np.zeros(4)),
        lambda lam: wigner3_closed(np.array([0.1, lam]), np.zeros((2, 3))),
        lambda lam: wigner4_closed(np.array([lam, 0.1]), np.zeros((2, 4))),
    ],
    ids=[
        "three_mode_closed",
        "four_mode_closed",
        "baseline_two_mode",
        "wigner3_closed",
        "wigner4_closed",
        "wigner3_closed_rows",
        "wigner4_closed_rows",
    ],
)
def test_non_finite_lambda_is_a_range_error(evaluate, lam):
    with pytest.raises(ParameterRangeError, match=f"^lambda must be finite, got {lam}$"):
        evaluate(lam)


@pytest.mark.parametrize("evaluate", [three_mode_closed, four_mode_closed])
def test_closed_scalars_refuse_lambda_past_the_guard(evaluate):
    for lam in [20.0, -20.0]:
        assert evaluate(lam).lam == lam
    for lam in [20.5, -20.5, 178.0, -178.0, 237.0]:
        with pytest.raises(ParameterRangeError, match=r"^\|lambda\| <= 20.0 required, got "):
            evaluate(lam)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 64), lam=st.floats(-20.0, 20.0))
def test_normal_form_over_accepted_range(n, lam):
    form = normal_form(_kernel(n, lam))
    assert np.array_equal(form.creMat, -form.annMat)
    for mat in (form.creMat, form.annMat):
        assert np.array_equal(mat, mat.T)
    assert np.all((form.sech2 > 0.0) & (form.sech2 <= 1.0))
    member = squeezed_vacuum(_kernel(2, lam))
    target = baseline_two_mode(2 * lam)
    assert np.max(np.abs(member.F - target.F)) <= 1e-12
    assert member.norm == pytest.approx(target.norm, rel=1e-12)
    assert squeezed_vacuum(_kernel(4, lam)).norm == pytest.approx(
        1 / math.cosh(2 * lam), rel=1e-12
    )
    # the norm is det(1 - F F~)^(1/4) as a sum of logs; past the float range both are 0
    state = squeezed_vacuum(_kernel(n, lam))
    unit_norm = math.exp(0.25 * float(np.sum(np.log(form.sech2))))
    assert state.norm == pytest.approx(unit_norm, rel=1e-8, abs=np.finfo(float).tiny)
    # the Fock oracle accepts every computed state; at cutoff 0 the basis is
    # the vacuum alone, so its checks are all that runs
    for accepted in (state, target):
        assert two_photon_expand(accepted, build_space(accepted.n, 0)).amps[0] == accepted.norm


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, 1.0])
def test_two_mode_member_doubles_baseline(lam):
    member = squeezed_vacuum(_kernel(2, lam))
    target = baseline_two_mode(2 * lam)
    assert np.max(np.abs(member.F - target.F)) <= 1e-12
    assert abs(member.norm - target.norm) <= 1e-12


def test_three_mode_closed_values():
    closed = three_mode_closed(0.1)
    assert closed.u == pytest.approx(1.0377085207853263, rel=1e-14)
    assert closed.v == pytest.approx(-0.1836942373748435, rel=1e-14)
    at_02 = three_mode_closed(0.2)
    assert at_02.A1 == pytest.approx(0.014801678194583131, rel=1e-13)
    assert at_02.A2 == pytest.approx(0.2886621412400644, rel=1e-13)
    assert at_02.A3 == pytest.approx(0.9428530748984134, rel=1e-13)
    trivial = three_mode_closed(0.0)
    assert (trivial.u, trivial.v) == (1.0, 0.0)
    assert (trivial.A1, trivial.A2, trivial.A3) == (0.0, 0.0, 1.0)


@pytest.mark.parametrize("lam", [0.1, 0.2, 0.5, -0.3, -4.5, -12.0, -19.9])
def test_three_mode_closed_matches_generic_gram(lam):
    gram = _kernel(3, lam).gram
    closed = three_mode_closed(lam)
    assert_allclose(np.diag(gram), closed.u, rtol=1e-12)
    assert gram[0, 1] == pytest.approx(closed.v, rel=1e-12)


def test_wigner3_closed_origin_and_zero_lambda():
    assert wigner3_closed(0.3, np.zeros(3)) == math.pi**-3
    rng = np.random.default_rng(5)
    for _ in range(10):
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        expected = math.pi**-3 * math.exp(-2 * float(np.sum(np.abs(alpha) ** 2)))
        assert wigner3_closed(0.0, alpha) == pytest.approx(expected, rel=1e-12)


def test_wigner3_closed_frozen_point():
    assert wigner3_closed(0.1, np.array([0.5, 0, 0])) == pytest.approx(
        0.019144546955626205, rel=1e-12
    )


def test_wigner3_closed_matches_generic():
    rng = np.random.default_rng(101)
    base = build_coupling(3)
    for _ in range(200):
        lam = float(rng.uniform(-0.5, 0.5))
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        alpha *= 1.5 * rng.random() / np.linalg.norm(alpha)
        wig = wigner_from_kernel(build_kernel(base, lam))
        assert wigner3_closed(lam, alpha) == pytest.approx(
            wigner_value_alpha(wig, alpha), rel=1e-10
        )


def test_four_mode_closed_values():
    closed = four_mode_closed(0.3)
    assert closed.r == pytest.approx(math.cosh(0.6) ** 2, rel=1e-14)
    assert closed.s == pytest.approx(math.sinh(0.6) ** 2, rel=1e-14)
    assert closed.t == pytest.approx(-math.sinh(0.6) * math.cosh(0.6), rel=1e-14)
    assert closed.detN == pytest.approx(1.4053277836621871, rel=1e-14)
    assert closed.stateNorm == pytest.approx(0.8435506876218067, rel=1e-14)
    assert closed.stateTanh == pytest.approx(0.5370495669980353, rel=1e-14)
    trivial = four_mode_closed(0.0)
    assert (trivial.r, trivial.s, trivial.t, trivial.detN) == (1.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("lam", [0.1, 0.3, 0.5, -0.2, 2.5, -10.0, 20.0])
def test_four_mode_closed_matches_generic(lam):
    kernel = _kernel(4, lam)
    closed = four_mode_closed(lam)
    gram = kernel.gram
    assert gram[0, 0] == pytest.approx(closed.r, rel=1e-12)
    assert gram[0, 2] == pytest.approx(closed.s, rel=1e-12, abs=1e-14)
    assert gram[0, 1] == pytest.approx(closed.t, rel=1e-12, abs=1e-14)
    # inverse-N pattern: diag 1, ring tanh(2 lambda)/2, opposite corners 0
    ring = build_coupling(4).entries.astype(float)
    pattern = closed.ninv_diag * np.eye(4) + closed.ninv_near * ring
    assert_allclose(kernel.NmatInv, pattern, atol=1e-12)
    assert kernel.detN == pytest.approx(closed.detN, rel=1e-12)


def test_closed_form_identities_over_accepted_range():
    """Each identity of the n = 3 and n = 4 scalars holds to 16 eps of its
    largest term on a 4001-point grid over |lambda| <= LAMBDA_GUARD: each
    side sums at most four terms of at most two roundings each."""
    eps = np.finfo(float).eps

    def residual(lhs_terms, rhs):
        terms = [*lhs_terms, rhs]
        return abs(math.fsum(lhs_terms) - rhs) / (eps * max(map(abs, terms)))

    for lam in np.linspace(-LAMBDA_GUARD, LAMBDA_GUARD, 4001).tolist():
        three, four = three_mode_closed(lam), four_mode_closed(lam)
        c1, c2 = math.cosh(lam), math.cosh(2.0 * lam)
        assert residual([three.u, 2.0 * three.v], math.exp(-4.0 * lam)) <= 16, lam
        assert residual([three.A3**2 * c2 * c1**2], 1.0) <= 16, lam
        assert residual([four.r, -four.s], 1.0) <= 16, lam
        assert residual([four.r, four.s, 2.0 * four.t], math.exp(-4.0 * lam)) <= 16, lam
        assert four.detN == four.r, lam


def _closed_vs_generic_per_draw(rng):
    """The check's worst relative error as a loop over the draws: a kernel
    pair and two one-point generic values per draw."""
    worst = 0.0
    base3, base4 = build_coupling(3), build_coupling(4)
    for _ in range(200):
        lam = rng.uniform(-0.5, 0.5)
        alpha3 = verification._draw_alpha(rng, 3, 1.5)
        alpha4 = verification._draw_alpha(rng, 4, 1.5)
        generic3 = wigner_value_alpha(wigner_from_kernel(build_kernel(base3, lam)), alpha3)
        generic4 = wigner_value_alpha(wigner_from_kernel(build_kernel(base4, lam)), alpha4)
        worst = max(
            worst,
            abs(wigner3_closed(lam, alpha3) - generic3) / abs(generic3),
            abs(wigner4_closed(lam, alpha4) - generic4) / abs(generic4),
        )
    return worst


@pytest.mark.parametrize("seed", [0, 7])
def test_wigner_closed_vs_generic_check_matches_per_draw_loop(seed):
    batched_rng, loop_rng = random.Random(seed), random.Random(seed)
    record = verification.check_wigner_closed_vs_generic(1e-10, batched_rng)
    assert record.actual == _closed_vs_generic_per_draw(loop_rng)
    # the parity oracle draws next from the same generator
    assert batched_rng.getstate() == loop_rng.getstate()


def test_wigner4_closed_origin_and_zero_lambda():
    assert wigner4_closed(0.2, np.zeros(4)) == math.pi**-4
    rng = np.random.default_rng(6)
    alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
    expected = math.pi**-4 * math.exp(-2 * float(np.sum(np.abs(alpha) ** 2)))
    assert wigner4_closed(0.0, alpha) == pytest.approx(expected, rel=1e-12)


def test_wigner4_closed_single_mode_point():
    lam = 0.2
    wig = wigner_from_kernel(_kernel(4, lam))
    alpha = np.array([0.3, 0, 0, 0])
    assert wigner4_closed(lam, alpha) == pytest.approx(
        wigner_value_alpha(wig, alpha), rel=1e-10
    )


def test_wigner4_closed_matches_generic():
    rng = np.random.default_rng(202)
    base = build_coupling(4)
    for _ in range(200):
        lam = float(rng.uniform(-0.5, 0.5))
        alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
        alpha *= 1.5 * rng.random() / np.linalg.norm(alpha)
        wig = wigner_from_kernel(build_kernel(base, lam))
        assert wigner4_closed(lam, alpha) == pytest.approx(
            wigner_value_alpha(wig, alpha), rel=1e-10
        )


CLOSED_FORMS = {3: wigner3_closed, 4: wigner4_closed}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("lam", [0.0, 0.3, -0.8, 1.0])
def test_wigner_closed_batched_rows_equal_scalar_calls(n, lam):
    closed_fn = CLOSED_FORMS[n]
    rng = np.random.default_rng(17 + n)
    # scaled so no value falls under the generic form's exp(-700) floor
    rows = (rng.normal(size=(50, n)) + 1j * rng.normal(size=(50, n))) * math.exp(-2 * abs(lam))
    rows[0] = 0.0
    batched = closed_fn(lam, rows)
    assert isinstance(batched, np.ndarray) and batched.shape == (50,)
    for k, alpha in enumerate(rows):
        single = closed_fn(lam, alpha)
        assert type(single) is float
        assert batched[k] == single
    assert batched[0] == math.pi**-n
    # the batch agrees with the generic Gaussian over the same rows
    wig = wigner_from_kernel(_kernel(n, lam))
    generic = wigner_values(wig, math.sqrt(2.0) * rows.real, math.sqrt(2.0) * rows.imag)
    assert_allclose(batched, generic, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_wigner_closed_lambda_rows_equal_scalar_calls(n):
    closed_fn = CLOSED_FORMS[n]
    rng = np.random.default_rng(31 + n)
    lams = rng.uniform(-1.0, 1.0, 60)
    rows = (rng.normal(size=(60, n)) + 1j * rng.normal(size=(60, n))) * 0.3
    batched = closed_fn(lams, rows)
    singles = np.array([closed_fn(float(lam), alpha) for lam, alpha in zip(lams, rows)])
    assert batched.tobytes() == singles.tobytes()
    # a one-row lambda with one point gives the float of the scalar call
    assert closed_fn(lams[:1], rows[0]) == singles[0]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("lam", [5.0, -5.0, 10.0, -10.0, 15.0, -15.0, 20.0, -20.0])
def test_wigner_closed_all_ones_point_at_large_lambda(n, lam):
    # the all-ones vector along p for lambda > 0 (q for lambda < 0) is the
    # most squeezed mode, with exponent n exp(-4 |lambda|); the relative
    # bound, fixed before the first run, is rounding of a few dozen
    # operations
    alpha = np.full(n, (1j if lam > 0 else 1.0) / math.sqrt(2.0))
    exact = math.pi ** (-n) * math.exp(-n * math.exp(-4.0 * abs(lam)))
    assert CLOSED_FORMS[n](lam, alpha) == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("lam_shape", [(4,), (5, 1), (5, 5), (1,)])
def test_wigner_closed_rejects_misaligned_lambda(n, lam_shape):
    # a one-value array is not a scalar: it is refused, not broadcast
    with pytest.raises(ValueError, match="one value per alpha row"):
        CLOSED_FORMS[n](np.zeros(lam_shape), np.zeros((5, n)))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("shape", [(5,), (2, 5), (2,), (2, 2, 3), ()])
def test_wigner_closed_rejects_wrong_shapes(n, shape):
    with pytest.raises(ValueError, match=f"alpha must have length {n}"):
        CLOSED_FORMS[n](0.1, np.zeros(shape))


# ---------------------------------------------------------------------------
# truncation-free cross-check: the two-photon state and the Wigner function
# describe the same Gaussian

# A backward-stable solve loses about cond(I - F) * eps; the bound is this
# multiple of it, fixed before any run and never widened to admit larger
# |lambda|, where cond(I - F) grows as exp(4 |lambda|).
SOLVE_ERROR_FACTOR = 32


@pytest.mark.parametrize("n", [2, 3, 5, 64, 300])
@pytest.mark.parametrize("lam", [-3.0, -2.0, -1.0, -0.5, -0.05, 0.05, 0.5, 1.0, 2.0, 3.0])
def test_two_photon_q_moments_match_covariance(n, lam):
    """For norm * exp(a~ F a~ / 2)|0> with real symmetric F, <q qt> is
    (I + F)(I - F)^-1 / 2.  Taken from F by a dense solve, independent of
    the spectral path, it equals the q second moments gram / 2."""
    kernel = _kernel(n, lam)
    F = squeezed_vacuum(kernel).F
    eye = np.eye(n)
    moments = np.linalg.solve(eye - F, eye + F).T / 2.0
    q_block = kernel.gram / 2.0
    error = np.max(np.abs(moments - q_block)) / np.max(np.abs(q_block))
    assert error <= SOLVE_ERROR_FACTOR * np.linalg.cond(eye - F) * np.finfo(float).eps
