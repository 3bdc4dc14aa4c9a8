import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from nmodesqueeze import (
    VariancePair,
    build_coupling,
    build_kernel,
    expm_taylor,
    matrix_function,
    normalization_by_quadrature,
    squeezed_vacuum,
    variances_closed,
    variances_matrix_sum,
    wigner3_closed,
    wigner4_closed,
    wigner_from_kernel,
    wigner_value_alpha,
    wigner_values,
)
from nmodesqueeze.fockoracle import build_space, two_photon_expand, wigner_numeric
from nmodesqueeze.gaussian import _FORM_BLOCK, LOG_FLOOR, _gauss_hermite, wigner_from_coupling

SWEEP_N = range(2, 9)
SWEEP_LAMBDA = (0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0)

# Frozen: pi^-3 * exp(-0.5 * (exp(0.4)/3 + 2 exp(-0.2)/3)) for the
# n=3, lambda=0.1 point q = (sqrt(2)/2, 0, 0), p = 0; the same number
# falls out of the three-mode closed form.
WIGNER3_POINT_VALUE = 0.019144546955626205


def _wigner(n, lam):
    return wigner_from_kernel(build_kernel(build_coupling(n), lam))


def _dense_forms(n, lam):
    """The oracle forms exp(+2 lambda A) and exp(-2 lambda A), dense, from
    the Taylor exponential rather than the spectrum."""
    coupling = build_coupling(n).entries.astype(float)
    return expm_taylor(2.0 * lam * coupling), expm_taylor(-2.0 * lam * coupling)


def _heisenberg_transforms(n, lam):
    """The matrices mapping Q and P under conjugation by the squeeze:
    exp(-lambda A) and exp(+lambda A)."""
    kernel = build_kernel(build_coupling(n), lam)
    return kernel.Lambda, matrix_function(kernel.coupling, lambda a: np.exp(lam * a))


def test_heisenberg_identity_at_zero():
    q_t, p_t = _heisenberg_transforms(4, 0.0)
    assert_allclose(q_t, np.eye(4), atol=1e-12)
    assert_allclose(p_t, np.eye(4), atol=1e-12)


def test_heisenberg_two_mode_hyperbolic():
    q_t, _ = _heisenberg_transforms(2, 0.2)
    expected = np.array(
        [[math.cosh(0.4), -math.sinh(0.4)], [-math.sinh(0.4), math.cosh(0.4)]]
    )
    assert_allclose(q_t, expected, rtol=1e-12)


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", SWEEP_LAMBDA)
def test_heisenberg_symplectic(n, lam):
    q_t, p_t = _heisenberg_transforms(n, lam)
    assert_allclose(q_t @ p_t.T, np.eye(n), atol=1e-10)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 64), lam=st.floats(-20.0, 20.0))
def test_heisenberg_symplectic_over_accepted_range(n, lam):
    # the rounding bound of a length-n product, fixed before any run
    q_t, p_t = _heisenberg_transforms(n, lam)
    bound = n * np.finfo(float).eps * np.linalg.norm(q_t, 2) * np.linalg.norm(p_t, 2)
    assert np.max(np.abs(q_t @ p_t.T - np.eye(n))) <= bound


def test_variance_examples():
    pair = variances_matrix_sum(3, 0.25)
    assert pair.varX1 == pytest.approx(math.exp(-1) / 4, rel=1e-12)
    pair5 = variances_matrix_sum(5, 0.25)
    assert pair5.varX2 == pytest.approx(math.e / 4, rel=1e-12)
    vacuum = variances_matrix_sum(4, 0.0)
    assert (vacuum.varX1, vacuum.varX2) == (pytest.approx(0.25), pytest.approx(0.25))


def test_variances_closed_examples():
    assert variances_closed(0.0) == VariancePair(0.25, 0.25)
    pair = variances_closed(0.25)
    assert pair.varX1 == pytest.approx(0.09196986029286058, rel=1e-15)
    assert pair.varX2 == pytest.approx(0.67957045711476131, rel=1e-15)
    flipped = variances_closed(-0.25)
    assert flipped.varX1 == pair.varX2 and flipped.varX2 == pair.varX1


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", SWEEP_LAMBDA)
def test_matrix_sum_equals_closed(n, lam):
    by_sum = variances_matrix_sum(n, lam)
    closed = variances_closed(lam)
    assert by_sum.varX1 == pytest.approx(closed.varX1, rel=1e-10)
    assert by_sum.varX2 == pytest.approx(closed.varX2, rel=1e-10)
    assert abs(by_sum.varX1 * by_sum.varX2 - 1.0 / 16.0) <= 1e-12


def _assert_variances_exact(n, lam):
    by_sum = variances_matrix_sum(n, lam)
    closed = variances_closed(lam)
    assert abs(by_sum.varX1 * by_sum.varX2 - 1.0 / 16.0) <= 1e-12
    assert abs(by_sum.varX1 - closed.varX1) <= 1e-10 * closed.varX1
    assert abs(by_sum.varX2 - closed.varX2) <= 1e-10 * closed.varX2


@pytest.mark.parametrize("n,lam", [(2, -20.0), (8, 2.0), (1000, 20.0)])
def test_matrix_sum_exact_at_large_lambda(n, lam):
    # a literal sum over exp(-2 lambda A) cancels to noise at these inputs
    _assert_variances_exact(n, lam)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 64), lam=st.floats(-20.0, 20.0))
def test_matrix_sum_exact_over_accepted_range(n, lam):
    _assert_variances_exact(n, lam)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("n", SWEEP_N)
def test_squeezing_beats_standard_two_mode(n, lam):
    pair = variances_matrix_sum(n, lam)
    assert pair.varX1 < math.exp(-2 * lam) / 4


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", SWEEP_LAMBDA)
def test_wigner_form_invariants(n, lam):
    wig = _wigner(n, lam)
    # the q and p forms are inverses, with determinant 1 each
    assert_allclose(wig.qWeights * wig.pWeights, np.ones(n), atol=1e-10)
    assert np.prod(wig.qWeights) == pytest.approx(1.0, abs=1e-10)
    assert np.prod(wig.pWeights) == pytest.approx(1.0, abs=1e-10)
    origin = np.zeros((1, n))
    assert wigner_values(wig, origin, origin)[0] == wig.normConst == math.pi ** (-n)


def test_wigner_vacuum_point():
    wig = _wigner(2, 0.0)
    point = np.array([[1.0, 0.0]])
    assert wigner_values(wig, point, point)[0] == pytest.approx(
        math.pi**-2 * math.exp(-2), rel=1e-12
    )


def test_wigner_three_mode_point():
    wig = _wigner(3, 0.1)
    q = np.array([[math.sqrt(2) * 0.5, 0, 0]])
    assert wigner_values(wig, q, np.zeros((1, 3)))[0] == pytest.approx(
        WIGNER3_POINT_VALUE, rel=1e-12
    )
    assert wigner_value_alpha(wig, np.array([0.5, 0, 0])) == pytest.approx(
        WIGNER3_POINT_VALUE, rel=1e-12
    )


def test_wigner_alpha_convention():
    wig = _wigner(3, 0.2)
    assert wigner_value_alpha(wig, np.zeros(3)) == math.pi**-3
    # purely imaginary alpha probes only the p form
    alpha = np.array([0.5j, 0.0, 0.0])
    by_point = wigner_values(wig, np.zeros((1, 3)), np.array([[math.sqrt(2) * 0.5, 0, 0]]))[0]
    assert wigner_value_alpha(wig, alpha) == pytest.approx(by_point, rel=1e-14)


def test_wigner_alpha_matches_point_randomly():
    rng = np.random.default_rng(11)
    wig = _wigner(4, 0.3)
    for _ in range(25):
        alpha = rng.normal(size=4) + 1j * rng.normal(size=4)
        q, p = math.sqrt(2) * alpha.real, math.sqrt(2) * alpha.imag
        assert wigner_value_alpha(wig, alpha) == pytest.approx(
            wigner_values(wig, q[None, :], p[None, :])[0], rel=1e-14
        )


def test_wigner_dimension_errors():
    wig = _wigner(3, 0.1)
    with pytest.raises(ValueError):
        wigner_values(wig, np.zeros((1, 4)), np.zeros((1, 4)))
    with pytest.raises(ValueError):
        wigner_value_alpha(wig, np.zeros(2))


def test_wigner_bounded_and_positive():
    rng = np.random.default_rng(3)
    wig = _wigner(2, 0.4)
    for _ in range(50):
        q, p = rng.normal(size=(1, 2)), rng.normal(size=(1, 2))
        value = wigner_values(wig, q, p)[0]
        assert 0.0 < value <= wig.normConst


def test_wigner_underflow_reports_zero():
    wig = _wigner(2, 0.0)
    far = np.full((1, 2), 30.0)
    assert wigner_values(wig, far, far)[0] == 0.0


# The squeezed vacuum's second moments: <q qt> = gram / 2 (the inverse of
# the q form exp(+2 lambda A), halved) and <p pt> = gramInv / 2.


def test_covariance_vacuum():
    vacuum = build_kernel(build_coupling(3), 0.0)
    assert_allclose(vacuum.gram / 2, np.eye(3) / 2, atol=1e-12)
    assert_allclose(vacuum.gramInv / 2, np.eye(3) / 2, atol=1e-12)


def test_covariance_three_mode_entries():
    kernel = build_kernel(build_coupling(3), 0.1)
    u = (2.0 / 3.0) * math.exp(0.2) + (1.0 / 3.0) * math.exp(-0.4)
    assert kernel.gram[0, 0] / 2 == pytest.approx(u / 2, rel=1e-12)


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", (0.0, 0.2, -0.4))
def test_covariance_projection_recovers_variances(n, lam):
    kernel = build_kernel(build_coupling(n), lam)
    pair = variances_matrix_sum(n, lam)
    ones = np.ones(n) / math.sqrt(2.0 * n)
    assert ones @ (kernel.gram / 2) @ ones == pytest.approx(pair.varX1, abs=1e-12)
    assert ones @ (kernel.gramInv / 2) @ ones == pytest.approx(pair.varX2, abs=1e-12)


def test_normalization_by_quadrature():
    wig = _wigner(2, 0.2)
    assert normalization_by_quadrature(wig, nodes_per_axis=40) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        normalization_by_quadrature(_wigner(4, 0.1))


def test_gauss_hermite_rule_is_numpys_bit_for_bit():
    """The local rule replaces numpy.polynomial's, which the oracles below
    still use; deg 1 is the branch where H_(deg-1) is a constant."""
    for deg in range(1, 101):
        local, numpy_rule = _gauss_hermite(deg), np.polynomial.hermite.hermgauss(deg)
        for ours, theirs in zip(local, numpy_rule):
            assert ours.tobytes() == theirs.tobytes(), deg


@pytest.mark.parametrize("deg", [0, -3, 2.5, "4"])
def test_gauss_hermite_rule_raises_numpys_errors(deg):
    raised = []
    for rule in (_gauss_hermite, np.polynomial.hermite.hermgauss):
        with pytest.raises((TypeError, ValueError)) as info:
            rule(deg)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def _tensor_grid_normalization(n, lam, nodes_per_axis):
    """The oracle: the Gauss-Hermite rule over the full 2n-axis tensor
    grid, with no use of the q-p block structure or of the FFT: each form
    minus the identity is read on the eigenvectors of the dense A that
    numpy.linalg.eigh returns.  A dense contraction x (F - I) x would
    cancel entries of e^(4 lambda)/2 down to the exponent, which at
    lambda = 1 costs it more than the 1e-14 this oracle is held to.  The
    trailing three axes are vectorised and the rest looped over."""
    nodes, weights = np.polynomial.hermite.hermgauss(nodes_per_axis)
    naxes = 2 * n
    eigenvalues, eigenvectors = np.linalg.eigh(build_coupling(n).entries.astype(float))
    basis = np.zeros((naxes, naxes))
    basis[:n, :n] = basis[n:, n:] = eigenvectors
    shift = np.exp(2.0 * lam * np.concatenate([eigenvalues, -eigenvalues])) - 1.0
    nvec = min(3, naxes)
    nloop = naxes - nvec
    grids = np.meshgrid(*([nodes] * nvec), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=0)
    wgrids = np.meshgrid(*([weights] * nvec), indexing="ij")
    tail_weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=0), axis=0)
    total = 0.0
    for head_idx in itertools.product(range(nodes_per_axis), repeat=nloop):
        head = nodes[list(head_idx)]
        head_weight = float(np.prod(weights[list(head_idx)]))
        pts = np.vstack([np.tile(head[:, None], tail.shape[1]), tail])
        expo = -np.sum(shift[:, None] * (basis.T @ pts) ** 2, axis=0)
        total += head_weight * float(tail_weight @ np.exp(expo))
    return math.pi ** (-n) * total


@pytest.mark.parametrize("lam", [0.0, 0.2, -0.5, 1.0])
@pytest.mark.parametrize("n,nodes", [(2, 40), (3, 8)])
def test_normalization_block_rule_matches_tensor_grid(n, nodes, lam):
    # 40 nodes at n = 3 would be 40**6 = 4e9 oracle points, hence 8 there;
    # at n = 2, lambda = 1 the rule itself is not converged (1.375), and
    # the two still agree
    wig = _wigner(n, lam)
    assert normalization_by_quadrature(wig, nodes_per_axis=nodes) == pytest.approx(
        _tensor_grid_normalization(n, lam, nodes), rel=1e-14, abs=0.0
    )


def test_normalization_by_quadrature_stays_small():
    """Two blocks of 40**2 points; the full 40**4 grid peaked at 9.8 MB."""
    wig = _wigner(2, 0.2)
    tracemalloc.start()
    try:
        normalization_by_quadrature(wig, nodes_per_axis=40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_q_marginal_matches_determinants_and_quadrature():
    """Integrating W over p leaves pi^(-n/2) exp(-qt exp(+2 lambda A) q):
    det exp(-2 lambda A) = 1 sets the prefactor."""
    wig = _wigner(2, 0.2)
    q_form, p_form = _dense_forms(2, 0.2)
    assert np.linalg.det(p_form) ** -0.5 == pytest.approx(np.linalg.det(q_form) ** 0.5, rel=1e-10)
    nodes, weights = np.polynomial.hermite.hermgauss(48)
    for q in (np.array([0.0, 0.0]), np.array([0.3, -0.2]), np.array([1.0, 0.5])):
        total = 0.0
        for x1, w1 in zip(nodes, weights):
            for x2, w2 in zip(nodes, weights):
                value = wigner_values(wig, q[None, :], np.array([[x1, x2]]))[0]
                total += w1 * w2 * value * math.exp(x1**2 + x2**2)
        marginal = math.pi**-1 * math.exp(-float(q @ q_form @ q))
        assert marginal == pytest.approx(total, rel=1e-8)


def _per_point_values(n, lam, q, p):
    """The oracle: one literal q @ qForm @ q + p @ pForm @ p per row over
    the dense Taylor forms, with the log-space floor applied point by
    point."""
    q_form, p_form = _dense_forms(n, lam)
    out = []
    for q_row, p_row in zip(q, p):
        quad = float(q_row @ q_form @ q_row + p_row @ p_form @ p_row)
        below = -quad - n * math.log(math.pi) < LOG_FLOOR
        out.append(0.0 if below else math.pi ** (-n) * math.exp(-quad))
    return np.array(out)


def _scaled_points(n, lam, m, seed):
    """Random rows scaled by exp(-2|lambda|), so the exponent stays O(n)
    even along the most squeezed direction and the values are not 0."""
    rng = np.random.default_rng(seed)
    scale = math.exp(-2.0 * abs(lam))
    return scale * rng.normal(size=(m, n)), scale * rng.normal(size=(m, n))


@pytest.mark.parametrize("lam", [0.2, -0.2, 1.0, -1.0, 5.0])
@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_wigner_values_match_per_point_forms(n, lam):
    wig = _wigner(n, lam)
    q, p = _scaled_points(n, lam, 64, seed=n)
    values = wigner_values(wig, q, p)
    assert values.shape == (64,)
    assert np.all(values > 0.0)
    assert_allclose(values, _per_point_values(n, lam, q, p), rtol=1e-12, atol=0.0)
    # and a one-row call agrees with its row
    assert wigner_values(wig, q[5:6], p[5:6])[0] == values[5]


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 8), lam=st.floats(-20.0, 20.0), seed=st.integers(0, 2**32 - 1))
def test_wigner_values_match_per_point_forms_over_accepted_range(n, lam, seed):
    wig = _wigner(n, lam)
    q, p = _scaled_points(n, lam, 8, seed)
    assert_allclose(wigner_values(wig, q, p), _per_point_values(n, lam, q, p), rtol=1e-12, atol=0.0)


@settings(derandomize=True, deadline=None)
@given(n=st.integers(2, 64), lam=st.floats(-20.0, 20.0))
def test_wigner_origin_over_accepted_range(n, lam):
    origin = np.zeros((1, n))
    assert wigner_values(_wigner(n, lam), origin, origin)[0] == math.pi ** (-n)


def _stacked_wigner(n, lams):
    """One GaussianWigner whose weights are the (m, n) stacks of the
    kernels' weights over the m values in lams."""
    return wigner_from_coupling(build_coupling(n), lams)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_wigner_values_form_stack_matches_per_row_calls(n):
    lams = np.linspace(-1.0, 1.0, 17)
    q, p = _scaled_points(n, 1.0, lams.size, seed=n)
    stacked_wig = _stacked_wigner(n, lams)
    assert stacked_wig.n == n and stacked_wig.normConst == math.pi ** (-n)
    stacked = wigner_values(stacked_wig, q, p)
    per_row = np.array(
        [
            wigner_values(_wigner(n, lam), q[k : k + 1], p[k : k + 1])[0]
            for k, lam in enumerate(lams.tolist())
        ]
    )
    assert stacked.tobytes() == per_row.tobytes()


@pytest.mark.parametrize("rows, points", [(200, 1), (200, 300), (1, 5)])
def test_wigner_values_refuse_stack_of_other_row_count(rows, points):
    """A stack holds one Wigner function per point: any other row count,
    a single row included, is refused rather than broadcast."""
    stacked_wig = _stacked_wigner(3, np.linspace(-1.0, 1.0, rows))
    q, p = _scaled_points(3, 1.0, points, seed=rows)
    with pytest.raises(ValueError, match=rf"one row per point \({points}\)"):
        wigner_values(stacked_wig, q, p)
    with pytest.raises(ValueError, match=rf"one row per point \({points}\)"):
        wigner_value_alpha(stacked_wig, (q + 1j * p) / math.sqrt(2.0))


def test_normalization_by_quadrature_refuses_stack():
    for lams in (np.array([0.2]), np.array([0.1, 0.2])):
        with pytest.raises(ValueError, match="one row, not one per point"):
            normalization_by_quadrature(_stacked_wigner(2, lams))


@pytest.mark.parametrize("n", [3, 64])
def test_wigner_values_form_stack_across_blocks(n):
    """A stack of weights longer than one block of ``_FORM_BLOCK``
    coordinates: each row on either side of a block edge keeps the bits of
    its one-row call with its own weights."""
    rows = _FORM_BLOCK // n
    m = 2 * rows + 3
    lams = np.linspace(-1.0, 1.0, m)
    q, p = _scaled_points(n, 1.0, m, seed=n)
    stacked = wigner_values(_stacked_wigner(n, lams), q, p)
    for k in (0, rows - 1, rows, 2 * rows - 1, 2 * rows, m - 1):
        one_row = wigner_values(_stacked_wigner(n, lams[k : k + 1]), q[k : k + 1], p[k : k + 1])
        assert one_row.tobytes() == stacked[k : k + 1].tobytes()


def test_wigner_values_hold_one_block_of_temporaries():
    """16 384 points at n = 64, 8 MB per coordinate array: the FFT and its
    squares over the whole grid would take some 60 MB, one block about 4."""
    wig = _wigner(64, 0.3)
    q, p = _scaled_points(64, 0.3, 16384, seed=5)
    tracemalloc.start()
    try:
        wigner_values(wig, q, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


@pytest.mark.parametrize("m", [1, 4, 8, 9, 16, 64, 101, 40401])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 64])
def test_wigner_values_shared_form_bits(n, m):
    """With one shared pair of weights, a row keeps the bits of its
    one-row call, whatever the number of rows sharing the call."""
    wig = _wigner(n, 0.3)
    q, p = _scaled_points(n, 0.3, m, seed=m)
    values = wigner_values(wig, q, p)
    for k in range(0, m, max(1, m // 101)):
        one_row = wigner_values(wig, q[k : k + 1], p[k : k + 1])
        assert one_row.tobytes() == values[k : k + 1].tobytes()


def _all_ones_point(n, lam):
    """The all-ones vector along p for lambda > 0 (q for lambda < 0): the
    most squeezed mode, a = 2, with exponent n exp(-4 |lambda|)."""
    ones, zeros = np.ones((1, n)), np.zeros((1, n))
    return (zeros, ones) if lam > 0 else (ones, zeros)


@pytest.mark.parametrize(
    "n,lam",
    [(n, sign * mag) for n in (3, 5, 9) for mag in (5.0, 10.0, 15.0, 20.0) for sign in (1, -1)]
    + [(101, sign * mag) for mag in (5.0, 10.0) for sign in (1, -1)],
)
def test_wigner_all_ones_point_at_large_lambda(n, lam):
    # relative bound fixed before the first run: the rounding of a few
    # dozen operations, the point being well conditioned at these sizes
    q, p = _all_ones_point(n, lam)
    exact = math.pi ** (-n) * math.exp(-n * math.exp(-4.0 * abs(lam)))
    assert wigner_values(_wigner(n, lam), q, p)[0] == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("lam", [15.0, -15.0, 20.0, -20.0])
def test_wigner_all_ones_point_ill_conditioned_stays_bounded(lam):
    # n = 101 is ill-conditioned here at its own rounding: the FFT's residue
    # of order eps in the antisqueezed modes is weighted by exp(4 |lambda|)
    q, p = _all_ones_point(101, lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = wigner_values(_wigner(101, lam), q, p)[0]
    assert 0.0 <= value <= math.pi**-101


def _squeezed_direction_points(n, scale, seed):
    """The origin, the all-ones and alternating-sign modes (a = 2 and the
    spectrum's low end), a random row, and a row past the float range,
    each of them in q and in p."""
    rng = np.random.default_rng(seed)
    rows = np.array(
        [
            np.zeros(n),
            scale * np.ones(n),
            scale * (-1.0) ** np.arange(n),
            scale * rng.normal(size=n),
            1e200 * (-1.0) ** np.arange(n),
        ]
    )
    zeros = np.zeros_like(rows)
    return np.vstack([rows, zeros]), np.vstack([zeros, rows])


@settings(derandomize=True, deadline=None)
@given(
    n=st.integers(2, 64),
    lam=st.floats(-20.0, 20.0),
    scale=st.floats(1e-3, 1e3),
    seed=st.integers(0, 2**32 - 1),
)
def test_wigner_values_bounded_without_warning_over_accepted_range(n, lam, scale, seed):
    q, p = _squeezed_direction_points(n, scale, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = wigner_values(_wigner(n, lam), q, p)
    assert np.all((values >= 0.0) & (values <= math.pi ** (-n)))
    assert values[0] == math.pi ** (-n)


def test_wigner_values_floor_and_origin_rows():
    wig = _wigner(3, 0.4)
    q = np.array([[0.0, 0.0, 0.0], [30.0, 30.0, 30.0], [0.1, 0.0, 0.0], [1e200, -1e200, 0.0]])
    p = np.array([[0.0, 0.0, 0.0], [30.0, -30.0, 30.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.0]])
    values = wigner_values(wig, q, p)
    assert values[0] == wig.normConst == math.pi**-3
    assert 0.0 < values[2] < wig.normConst
    # far below exp(-700), and past the float range altogether: exactly 0
    assert values[1] == 0.0 and values[3] == 0.0
    # under the floor but not yet under the float range: exp(-710) > 0
    vacuum = _wigner(2, 0.0)
    assert math.pi**-2 * math.exp(-710.0) > 0.0
    assert wigner_values(vacuum, np.array([[math.sqrt(710.0), 0.0]]), np.zeros((1, 2)))[0] == 0.0


@pytest.mark.parametrize(
    "q, p, message",
    [
        (np.zeros((4, 3)), np.zeros((4, 2)), "equal-length"),
        (np.zeros((4, 3)), np.zeros((5, 3)), "equal-length"),
        (np.zeros(3), np.zeros(3), "equal-length"),
        (np.zeros((4, 1)), np.zeros((4, 1)), "at least 2 modes"),
        (np.array([[0.0, np.nan, 0.0]]), np.zeros((1, 3)), "finite"),
        (np.zeros((1, 3)), np.array([[0.0, 0.0, np.inf]]), "finite"),
        (np.zeros((2, 4)), np.zeros((2, 4)), "point has 4 modes"),
    ],
)
def test_wigner_values_rejects_bad_points(q, p, message):
    with pytest.raises(ValueError, match=message):
        wigner_values(_wigner(3, 0.1), q, p)


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_wigner_value_alpha_rows(n, stacked):
    """Rows of alpha are the points (sqrt(2) Re alpha, sqrt(2) Im alpha) of
    wigner_values, bit for bit, and each row is its one-point call, a float."""
    rng = np.random.default_rng(n)
    lams = np.linspace(-0.5, 0.5, 9)
    alpha = rng.normal(size=(lams.size, n)) + 1j * rng.normal(size=(lams.size, n))
    wig = _stacked_wigner(n, lams) if stacked else _wigner(n, 0.3)
    values = wigner_value_alpha(wig, alpha)
    q, p = math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag
    assert values.tobytes() == wigner_values(wig, q, p).tobytes()
    for k in range(lams.size):
        one = _stacked_wigner(n, lams[k : k + 1]) if stacked else wig
        value = wigner_value_alpha(one, alpha[k])
        assert type(value) is float
        assert value == values[k]


def _alpha_evaluators():
    """(mode count, evaluator of alpha) for the four Wigner evaluators."""
    psi = two_photon_expand(squeezed_vacuum(build_kernel(build_coupling(3), 0.1)), build_space(3, 4))
    return {
        "wigner_value_alpha": (3, lambda alpha: wigner_value_alpha(_wigner(3, 0.1), alpha)),
        "wigner3_closed": (3, lambda alpha: wigner3_closed(0.1, alpha)),
        "wigner4_closed": (4, lambda alpha: wigner4_closed(0.1, alpha)),
        "wigner_numeric": (3, lambda alpha: wigner_numeric(psi, alpha)),
    }


def _bad_alpha(case, n):
    alpha = np.zeros(n, dtype=complex)
    if case == "wrong length":
        return np.zeros(n + 1)
    if case == "3-d":
        return np.zeros((2, 2, n))
    alpha[0] = {"nan": complex(np.nan, 0.0), "+inf": complex(0.0, np.inf), "-inf": -np.inf}[case]
    return alpha


@pytest.mark.parametrize(
    "case, message",
    [
        ("nan", "phase point entries must be finite"),
        ("+inf", "phase point entries must be finite"),
        ("-inf", "phase point entries must be finite"),
        ("wrong length", "alpha must have length {n}"),
        ("3-d", "alpha must have length {n}"),
    ],
)
@pytest.mark.parametrize(
    "evaluator", ["wigner_value_alpha", "wigner3_closed", "wigner4_closed", "wigner_numeric"]
)
def test_alpha_evaluators_reject_bad_points(evaluator, case, message):
    n, evaluate = _alpha_evaluators()[evaluator]
    with pytest.raises(ValueError, match=f"^{message.format(n=n)}$"):
        evaluate(_bad_alpha(case, n))
