import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nmodesqueeze import (
    ModeCountError,
    ParameterRangeError,
    build_coupling,
    build_kernel,
    cli,
    expm_taylor,
    matrix_function,
    sum_identities,
)
from nmodesqueeze import coupling as cp

SWEEP_N = range(2, 9)
SWEEP_LAMBDA = (0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0)


def test_three_mode_matrix():
    assert build_coupling(3).entries.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


def test_four_mode_matrix():
    assert build_coupling(4).entries.tolist() == [
        [0, 1, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, 1, 0],
    ]


def test_two_mode_wraparound_doubles():
    # both passes of the cyclic sum hit the same pair for n = 2
    assert build_coupling(2).entries.tolist() == [[0, 2], [2, 0]]


def _accumulated(n):
    """Oracle: A summed term by term, each Q_i P_{i+1} + Q_{i+1} P_i adding
    1 to A[i, i+1] and A[i+1, i]; for n = 2 both passes hit one pair."""
    entries = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        j = (i + 1) % n
        entries[i, j] += 1
        entries[j, i] += 1
    return entries


@pytest.mark.parametrize("n", range(2, 17))
def test_structure_invariants(n):
    entries = build_coupling(n).entries
    assert entries.dtype == np.int64
    assert np.array_equal(entries, _accumulated(n))
    assert not entries.flags.writeable
    assert np.all(np.diag(entries) == 0)
    assert np.array_equal(entries, entries.T)
    assert np.all(entries.sum(axis=1) == 2)
    if n >= 3:
        assert set(np.unique(entries)) <= {0, 1}
        assert np.all((entries == 1).sum(axis=1) == 2)


def test_variances_keep_the_coupling_o_n(monkeypatch):
    """variances builds no coupling at all, not even its O(n) first row, and
    allocates nothing that grows with n."""

    def refuse(*args):
        raise AssertionError("variances built a coupling")

    monkeypatch.setattr(cp, "build_coupling", refuse)
    monkeypatch.setattr(cp, "build_kernel", refuse)
    config = cli.RunConfig(command="variances", n=10**12, lam=0.3)
    cli._results_variances(config)  # imports what it reads first
    tracemalloc.start()
    try:
        cli._results_variances(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_spectrum_is_built_with_the_coupling():
    coupling = build_coupling(7)
    assert build_kernel(coupling, 0.3).coupling.eigenvalues is coupling.eigenvalues
    assert coupling.eigenvalues is coupling.eigenvalues
    assert not coupling.eigenvalues.flags.writeable
    assert np.array_equal(coupling.eigenvalues, np.fft.fft(coupling.row).real)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 64, 1000, 3000])
def test_all_ones_eigenvalue_is_the_row_sum(n):
    coupling = build_coupling(n)
    assert coupling.row.sum() == 2
    assert coupling.eigenvalues[0] == 2.0  # bit for bit: the variances take it as 2.0


def test_coupling_and_kernel_fields_are_read_only():
    coupling = build_coupling(3)
    kernel = build_kernel(coupling, 0.3)
    for record, field in [(coupling, "n"), (coupling, "row"), (coupling, "eigenvalues"),
                          (kernel, "coupling"), (kernel, "lam"), (kernel, "gram")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert kernel.lam == 0.3 and kernel.coupling is coupling and coupling.n == 3


@pytest.mark.parametrize("n", [0, 1, -3])
def test_rejects_unsupported_mode_count(n):
    with pytest.raises(ModeCountError):
        build_coupling(n)


@pytest.mark.parametrize(
    "n,expected",
    [
        (2, [2.0, -2.0]),
        (3, [2.0, -1.0, -1.0]),
        (4, [2.0, 0.0, 0.0, -2.0]),
    ],
)
def test_spectrum_eigenvalues(n, expected):
    eigenvalues = np.sort(build_coupling(n).eigenvalues)[::-1]
    assert_allclose(eigenvalues, expected, atol=1e-12)


@pytest.mark.parametrize("n", SWEEP_N)
def test_spectrum_orthonormal_and_reconstructs(n):
    coupling = build_coupling(n)
    w = coupling.eigenvalues
    identity = matrix_function(coupling, lambda a: a)
    assert_allclose(identity, coupling.entries, atol=1e-12)
    assert np.all(w >= -2 - 1e-12) and np.all(w <= 2 + 1e-12)
    # DFT order: the all-ones mode comes first, with eigenvalue exactly 2
    assert w[0] == 2.0
    assert np.array_equal(identity, matrix_function(coupling, lambda a: a))


@pytest.mark.parametrize("n", SWEEP_N)
def test_kernel_identity_at_zero(n):
    kernel = build_kernel(build_coupling(n), 0.0)
    assert_allclose(kernel.Lambda, np.eye(n), atol=1e-12)
    assert_allclose(kernel.gram, np.eye(n), atol=1e-12)
    assert kernel.detLambda == pytest.approx(1.0, abs=1e-12)
    assert kernel.detN == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [20.0, -20.0])
def test_kernel_det_lambda_is_one_from_the_trace(lam):
    # a product of exp(-lambda a_k) over the spectrum under- or overflows here
    assert build_kernel(build_coupling(300), lam).detLambda == 1.0


def test_kernel_functions_are_read_only_inverses():
    kernel = build_kernel(build_coupling(5), 0.3)
    assert not kernel.gramInv.flags.writeable
    assert_allclose(kernel.gram @ kernel.gramInv, np.eye(5), atol=1e-12)


def test_kernel_det_n_four_mode():
    kernel = build_kernel(build_coupling(4), 0.3)
    assert kernel.detN == pytest.approx(math.cosh(0.6) ** 2, rel=1e-12)


def test_kernel_gram_three_mode():
    gram = build_kernel(build_coupling(3), 0.1).gram
    u = (2.0 / 3.0) * math.exp(0.2) + (1.0 / 3.0) * math.exp(-0.4)
    v = (1.0 / 3.0) * math.exp(-0.4) - (1.0 / 3.0) * math.exp(0.2)
    assert_allclose(np.diag(gram), u, rtol=1e-12)
    assert gram[0, 1] == pytest.approx(v, rel=1e-12)
    assert gram[1, 2] == pytest.approx(v, rel=1e-12)
    # row sums of the closed pattern must agree with the sum identity
    assert u + 2 * v == pytest.approx(math.exp(-0.4), rel=1e-12)


@pytest.mark.parametrize("lam", [25.0, -20.5, math.inf, math.nan])
def test_kernel_rejects_out_of_range_lambda(lam):
    with pytest.raises(ParameterRangeError):
        build_kernel(build_coupling(3), lam)


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", SWEEP_LAMBDA)
def test_kernel_internal_identities(n, lam):
    kernel = build_kernel(build_coupling(n), lam)
    assert_allclose(kernel.Lambda, kernel.Lambda.T, atol=1e-12)
    assert_allclose(kernel.gram, kernel.Lambda @ kernel.Lambda, atol=1e-12 * np.max(kernel.gram))
    assert_allclose(kernel.NmatInv, np.linalg.inv((np.eye(n) + kernel.gram) / 2), atol=1e-10)
    assert kernel.detLambda == pytest.approx(1.0, abs=1e-12)
    expected_det_n = float(np.prod(np.cosh(lam * kernel.coupling.eigenvalues)))
    assert kernel.detN == pytest.approx(expected_det_n, rel=1e-10)


def test_sum_identity_examples():
    assert sum_identities(build_kernel(build_coupling(3), 0.1))[0] == pytest.approx(
        3 * math.exp(-0.4), rel=1e-12
    )
    assert sum_identities(build_kernel(build_coupling(4), 0.3))[1] == pytest.approx(
        4 * math.exp(1.2), rel=1e-12
    )
    assert sum_identities(build_kernel(build_coupling(5), 0.0)) == (
        pytest.approx(5.0, rel=1e-12),
        pytest.approx(5.0, rel=1e-12),
    )


@pytest.mark.parametrize("n", SWEEP_N)
@pytest.mark.parametrize("lam", SWEEP_LAMBDA)
def test_sum_identities_sweep(n, lam):
    sum_g, sum_ginv = sum_identities(build_kernel(build_coupling(n), lam))
    assert sum_g == pytest.approx(n * math.exp(-4 * lam), rel=1e-10)
    assert sum_ginv == pytest.approx(n * math.exp(4 * lam), rel=1e-10)


@pytest.mark.parametrize("n", SWEEP_N)
def test_power_sum_identity_integer_exact(n):
    doubled = 2 * build_coupling(n).entries
    power = np.eye(n, dtype=np.int64)
    for exponent in range(7):
        assert int(power.sum()) == 4**exponent * n
        power = power @ doubled


@pytest.mark.parametrize("n", [*SWEEP_N, 16, 64])
@pytest.mark.parametrize("lam", [0.5, -0.5, 0.2, 1.0])
def test_spectral_exponential_matches_taylor_oracle(n, lam):
    coupling = build_coupling(n)
    spectral = matrix_function(coupling, lambda a: np.exp(-lam * a))
    taylor = expm_taylor(-lam * coupling.entries.astype(float))
    assert_allclose(spectral, taylor, atol=1e-10)
