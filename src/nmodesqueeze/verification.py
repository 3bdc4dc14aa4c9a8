"""Full verification suite: every closed-form claim against its oracle.

Each check produces one record with the measured worst-case error, the
tolerance it was held to, and (for Fock-space checks) the measured tail
mass, so a failure distinguishes "truncation too small" from "formula
wrong".  The antisqueezed-sum probe is informational: it reports the
variance of sum P_i / sqrt(2n) in the three-mode squeezed vacuum against
the two candidate behaviours (exp(4 lambda)/4 growth versus the
zero-variance limit reading) without pass/fail status.

``run_verification`` runs the 19 checks from one table; a check that
hits a resource guard or raises gives a blank record instead.  The seed
drives Python's ``random.Random``, which draws the test points of the two
Wigner checks that sample phase space, so a report is byte-identical per
seed on a given Python and numpy.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple

import numpy as np

from . import coupling as cp
from . import fockoracle as fo
from . import gaussian as ga
from . import normalform as nf
from . import variances as va
from .errors import ResourceLimitError, TruncationError

SWEEP_N = tuple(range(2, 9))
SWEEP_LAMBDA = (0.0, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0)

# Default tolerance per override key (CLI --tolerance NAME=VAL).
DEFAULT_TOLERANCES = {
    "variance": 1e-10,
    "product": 1e-12,
    "sum": 1e-10,
    "power": 0.0,
    "enhancement": 0.0,
    "reduction": 1e-12,
    "normalform": 5e-6,
    "cremat": 1e-10,
    "overlap_n2": 1e-6,
    "overlap_n3": 1e-4,
    "norm": 1e-10,
    "special3": 1e-10,
    "special4": 1e-10,
    "ninv": 1e-12,
    "wigner_closed": 1e-10,
    "wigner_oracle": 1e-3,
    "wigner_origin": 0.0,
    "wigner_norm": 1e-6,
}
# Only "overlap" is an alias, for both overlap checks; every other name,
# "variance" included, sets its own key.
TOLERANCE_ALIASES = {
    "overlap": ("overlap_n2", "overlap_n3"),
}

# Fock-space configurations (n, cutoff, lambda) used by the oracle checks.
CONFIG_ASSEMBLY = (2, 12, 0.15)
CONFIG_OVERLAP_N2 = (2, 20, 0.2)
CONFIG_OVERLAP_N3 = (3, 9, 0.15)
CONFIG_PARITY = (3, 8, 0.1)
CONFIG_PROBE_FOCK = (3, 20, 0.5)


class CheckRecord(NamedTuple):
    """One verified claim: worst measured error against its tolerance.

    A record made from its name alone is blank: the check gave no result.
    """

    name: str
    ref: str = ""
    inputs: dict | None = None
    expected: object = None
    actual: object = None
    tol: float = math.nan
    passed: bool | None = None
    tail_mass: float | None = None
    skipped: bool = False
    note: str = ""


class VerifyReport(NamedTuple):
    """The records of one run of the suite, in table order."""

    seed: int
    checks: tuple[CheckRecord, ...] = ()

    @property
    def overall(self) -> str:
        if any(rec.passed is False for rec in self.checks):
            return "fail"
        if any(rec.skipped for rec in self.checks):
            return "partial"
        return "pass"


def resolve_tolerances(overrides: dict[str, float] | None) -> dict[str, float]:
    """Apply CLI overrides onto the default tolerance table.

    Raises ValueError for unknown names and for values that are not finite
    numbers (a NaN bound fails every comparison), so both surface as usage
    errors.
    """
    tols = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
        if not math.isfinite(value):
            raise ValueError(f"tolerance {name} must be a finite number, got {value}")
        if name in TOLERANCE_ALIASES:
            for target in TOLERANCE_ALIASES[name]:
                tols[target] = value
        elif name in tols:
            tols[name] = value
        else:
            known = ", ".join(sorted(list(tols) + list(TOLERANCE_ALIASES)))
            raise ValueError(f"unknown tolerance name {name!r} (known: {known})")
    return tols


def _record(
    name: str, ref: str, inputs: dict, actual, tol: float, expected=0.0, **extra
) -> CheckRecord:
    """A scored record: it passes when ``actual <= tol`` unless ``extra``
    gives ``passed``."""
    extra.setdefault("passed", actual <= tol)
    return CheckRecord(name, ref, inputs, expected, actual, tol, **extra)


def _rel_err(actual: float, expected: float) -> float:
    return abs(actual - expected) / abs(expected)


def _draw_alpha(rng: random.Random, n: int, radius: float) -> np.ndarray:
    vec = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(n)])
    vec /= np.linalg.norm(vec)
    return vec * (radius * rng.random())


def _worst(errors):
    """The largest of ``errors`` (numbers or arrays) as a Python scalar,
    NaN if any error is NaN: ``max(0.0, nan)`` is 0.0, which would pass."""
    return np.max([np.max(err) for err in errors]).item()


def _sweep(errors, ns=SWEEP_N, lams=SWEEP_LAMBDA) -> tuple[dict, float]:
    """A sweep record's inputs and the ``_worst`` of ``errors(n, lam, kernel)``
    over every n in ns and lambda in lams, one coupling per n."""
    found = []
    for n in ns:
        base = cp.build_coupling(n)
        for lam in lams:
            found.extend(errors(n, lam, cp.build_kernel(base, lam)))
    inputs = {"n": list(ns), "lambda": list(lams)} if len(ns) > 1 else {"lambda": list(lams)}
    return inputs, _worst(found)


def _cutoff(config: tuple[int, int, float], cutoff: int | None) -> tuple[int, int, float]:
    """A Fock config (n, cutoff, lambda), with the cutoff overridden if given."""
    n, default_cutoff, lam = config
    return n, default_cutoff if cutoff is None else cutoff, lam


def _literal_variances(kernel: cp.SqueezeKernel) -> tuple[float, float]:
    """(Delta X1)^2 and (Delta X2)^2 as the literal dense Gram sums of
    ``cp.sum_identities`` over 4n: an oracle independent of the closed-form
    route of ``va.variances_matrix_sum``."""
    sum_g, sum_ginv = cp.sum_identities(kernel)
    n = kernel.coupling.n
    return sum_g / (4 * n), sum_ginv / (4 * n)


def check_variance_closed_forms(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        v1, v2 = _literal_variances(kernel)
        return _rel_err(v1, math.exp(-4 * lam) / 4), _rel_err(v2, math.exp(4 * lam) / 4)
    return _record(
        "variances_closed_form", "var_x1 = exp(-4 lambda)/4, var_x2 = exp(+4 lambda)/4",
        *_sweep(errors), tol,
    )


def check_uncertainty_product(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        v1, v2 = _literal_variances(kernel)
        return (abs(v1 * v2 - 1.0 / 16.0),)
    return _record(
        "uncertainty_product", "var_x1 * var_x2 = 1/16", *_sweep(errors), tol,
        expected=1.0 / 16.0, note="actual is worst |product - 1/16|",
    )


def check_sum_identities(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        sum_g, sum_ginv = cp.sum_identities(kernel)
        return _rel_err(sum_g, n * math.exp(-4 * lam)), _rel_err(sum_ginv, n * math.exp(4 * lam))
    return _record(
        "gram_sum_identity", "sum_ij gram = n exp(-4 lambda), sum_ij gram^-1 = n exp(+4 lambda)",
        *_sweep(errors), tol,
    )


def check_power_sum_identity(tol: float) -> CheckRecord:
    errors = []
    for n in SWEEP_N:
        doubled = 2 * cp.build_coupling(n).entries  # A + A~ in exact integers
        power = np.eye(n, dtype=np.int64)
        for exponent in range(0, 7):
            errors.append(abs(int(power.sum()) - 4**exponent * n))
            power = power @ doubled
    return _record(
        "power_sum_identity", "sum_ij (A + A~)^l = 4^l n, integer exact",
        {"n": list(SWEEP_N), "l": list(range(7))}, _worst(errors), tol,
        expected=0,
    )


def check_enhanced_squeezing(tol: float) -> CheckRecord:
    lams = (0.1, 0.5, 1.0)
    gaps = [math.exp(-2 * lam) / 4 - va.variances_matrix_sum(n, lam).varX1
            for n in SWEEP_N for lam in lams]
    margin = np.min(gaps).item()  # NaN-strict, where min(inf, nan) is inf
    return _record(
        "enhanced_squeezing", "var_x1 < exp(-2 lambda)/4 (standard two-mode value)",
        {"n": list(SWEEP_N), "lambda": list(lams)}, margin, tol,
        expected="margin > 0", passed=margin > tol,
    )


def check_doubling_reduction(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        member = nf.squeezed_vacuum(kernel)
        target = nf.baseline_two_mode(2 * lam)
        return np.abs(member.F - target.F), abs(member.norm - target.norm)
    return _record(
        "doubled_two_mode_reduction", "two-mode member at lambda = standard squeeze at 2 lambda",
        *_sweep(errors, (2,), (0.1, 0.3, 0.5, 1.0)), tol,
    )


def check_normal_form_assembly(tol: float, cutoff: int | None = None) -> CheckRecord:
    n, cutoff, lam = _cutoff(CONFIG_ASSEMBLY, cutoff)
    space = fo.build_space(n, cutoff)
    base = cp.build_coupling(n)
    low = np.flatnonzero(fo.occupation_table(space).sum(axis=1) <= 4)
    cols = np.zeros((space.dim, low.size))  # the low-photon basis columns
    cols[low, np.arange(low.size)] = 1.0
    assembled = fo.assemble_normal_form(nf.normal_form(cp.build_kernel(base, lam)), space, cols)
    exact = fo.generator(space, base, lam).evolve(cols)
    worst = float(np.max(np.abs(exact[low] - assembled[low])))
    return _record(
        "normal_form_assembly", "prefactor exp(cre/2) :exp(cross): exp(ann/2) = exp(iH)",
        {"n": n, "cutoff": cutoff, "lambda": lam, "subspace": "total photons <= 4"}, worst, tol,
    )


def check_cremat_identity(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        # the paper's product form Lambda Ninv Lambda~ - I: independent of normal_form
        lam_mat = kernel.Lambda
        literal = lam_mat @ kernel.NmatInv @ lam_mat.T - np.eye(n)
        return (np.abs(nf.normal_form(kernel).creMat - literal),)
    return _record(
        "cremat_tanh_identity", "creation block = -tanh(lambda A)",
        *_sweep(errors, lams=(0.5, -0.5, 0.1, -0.1)), tol,
    )


def _truncated_state(
    n: int, cutoff: int, lam: float
) -> tuple[fo.FockSpace, cp.SqueezeKernel, fo.FockTensor]:
    """(space, kernel, psi) of one Fock config, psi the kernel's analytic
    squeezed vacuum expanded in the space."""
    space = fo.build_space(n, cutoff)
    kernel = cp.build_kernel(cp.build_coupling(n), lam)
    return space, kernel, fo.two_photon_expand(nf.squeezed_vacuum(kernel), space)


@functools.cache
def _overlap_config(n: int, cutoff: int, lam: float) -> tuple[float, float, float]:
    """(overlap deficit, norm deviation, analytic tail mass) for one config.

    The deficit is |1 - |overlap||, so an overlap over 1 cannot pass.
    Cached so the overlap and norm checks share one vacuum evolution per
    config; ``run_verification`` clears it so every run evolves afresh.
    """
    space, kernel, analytic = _truncated_state(n, cutoff, lam)
    evolved = fo.evolve_vacuum(fo.generator(space, kernel.coupling, lam))
    deficit = abs(1.0 - abs(fo.overlap(evolved, analytic)))
    return deficit, abs(evolved.norm - 1.0), fo.tail_mass(analytic)


def check_overlap(which: str, tol: float, cutoff: int | None = None) -> CheckRecord:
    config = CONFIG_OVERLAP_N2 if which == "n2" else CONFIG_OVERLAP_N3
    n, cutoff, lam = _cutoff(config, cutoff)
    deficit, _, tail = _overlap_config(n, cutoff, lam)
    return _record(
        f"vacuum_overlap_{which}", "exp(iH)|0> = norm exp(at~ F at / 2)|0>",
        {"n": n, "cutoff": cutoff, "lambda": lam}, deficit, tol,
        tail_mass=tail, note="actual is |1 - |overlap||",
    )


def check_evolved_norm(tol: float, cutoff: int | None = None) -> CheckRecord:
    configs = (CONFIG_OVERLAP_N2, CONFIG_OVERLAP_N3)
    worst = _worst(_overlap_config(*_cutoff(config, cutoff))[1] for config in configs)
    return _record(
        "evolved_norm", "unitarity: |exp(iH)|0>| = 1",
        {"configs": [list(config) for config in configs]}, worst, tol,
        expected=1.0, note="actual is worst | |psi| - 1 |",
    )


def check_three_mode_state(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        state = nf.squeezed_vacuum(kernel)
        closed = nf.three_mode_closed(lam)
        target = np.where(np.eye(3, dtype=bool), closed.A1 / 3, -2 * closed.A2 / 3)
        return np.abs(state.F - target), abs(state.norm - closed.A3)
    return _record(
        "three_mode_state", "F diag = A1/3, F offdiag = -2 A2/3, norm = A3",
        *_sweep(errors, (3,), (0.1, 0.2, 0.3, 0.5)), tol,
    )


def check_four_mode_state(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        state = nf.squeezed_vacuum(kernel)
        closed = nf.four_mode_closed(lam)
        pattern = -closed.stateTanh / 2 * kernel.coupling.entries.astype(float)
        return np.abs(state.F - pattern), abs(state.norm - closed.stateNorm)
    return _record(
        "four_mode_state", "norm = sech(2 lambda), F = -tanh(2 lambda)/2 on the ring, 0 elsewhere",
        *_sweep(errors, (4,), (0.1, 0.2, 0.3, 0.5)), tol,
    )


def check_four_mode_ninv(tol: float) -> CheckRecord:
    opposite = np.zeros((4, 4))
    opposite[0, 2] = opposite[2, 0] = opposite[1, 3] = opposite[3, 1] = 1.0

    def errors(n, lam, kernel):
        closed = nf.four_mode_closed(lam)
        # the ring has 1s exactly on the near pairs, so it carries that pattern
        ring = kernel.coupling.entries.astype(float)
        pattern = (
            closed.ninv_diag * np.eye(4) + closed.ninv_near * ring + closed.ninv_far * opposite
        )
        return np.abs(kernel.NmatInv - pattern), abs(kernel.detN - closed.detN)
    return _record(
        "four_mode_ninv",
        "N^-1: diag 1, near tanh(2 lambda)/2, opposite 0; det N = cosh^2(2 lambda)",
        *_sweep(errors, (4,), (0.1, 0.2, 0.3, 0.5)), tol,
    )


def check_wigner_closed_vs_generic(tol: float, rng: random.Random) -> CheckRecord:
    draws = [
        (rng.uniform(-0.5, 0.5), _draw_alpha(rng, 3, 1.5), _draw_alpha(rng, 4, 1.5))
        for _ in range(200)
    ]
    lams, alphas3, alphas4 = zip(*draws)
    lam_values = np.array(lams)
    errors = []
    for closed_fn, alphas in ((ga.wigner3_closed, alphas3), (ga.wigner4_closed, alphas4)):
        # the kernels' Wigner weights at every drawn lambda, as (200, n) stacks
        wig = ga.wigner_from_coupling(cp.build_coupling(alphas[0].size), lam_values)
        points = np.array(alphas)
        generic = ga.wigner_value_alpha(wig, points)
        errors.append(_rel_err(closed_fn(lam_values, points), generic))
    return _record(
        "wigner_closed_vs_generic", "closed 3- and 4-mode Wigner forms = generic Gaussian form",
        {"draws": 200, "|lambda| <=": 0.5, "|alpha| <=": 1.5}, _worst(errors), tol,
    )


def check_wigner_parity_oracle(
    tol: float, rng: random.Random, cutoff: int | None = None
) -> CheckRecord:
    n, cutoff, lam = _cutoff(CONFIG_PARITY, cutoff)
    _, kernel, psi = _truncated_state(n, cutoff, lam)
    alphas = np.array([_draw_alpha(rng, n, 0.6) for _ in range(20)])
    gaussian = ga.wigner_value_alpha(ga.wigner_from_kernel(kernel), alphas)
    note = ""
    try:
        worst = float(np.max(np.abs(fo.wigner_numeric(psi, alphas) - gaussian)))
    except TruncationError as exc:  # fail, and keep the tail mass measured below
        worst, note = math.nan, f"error: {exc!r}"
    return _record(
        "wigner_parity_oracle", "W(alpha) = pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>",
        {"n": n, "cutoff": cutoff, "lambda": lam, "points": 20, "|alpha| <=": 0.6}, worst, tol,
        tail_mass=fo.tail_mass(psi), note=note,
    )


def check_wigner_origin(tol: float) -> CheckRecord:
    def errors(n, lam, kernel):
        value = ga.wigner_value_alpha(ga.wigner_from_kernel(kernel), np.zeros(n))
        return (abs(value - math.pi ** (-n)),)
    return _record(
        "wigner_origin", "W(0, 0) = pi^-n", *_sweep(errors, (2, 3, 4, 5), (0.0, 0.2, 0.5)), tol,
    )


def check_wigner_normalization(tol: float) -> CheckRecord:
    wig = ga.wigner_from_kernel(cp.build_kernel(cp.build_coupling(2), 0.2))
    value = float(ga.normalization_by_quadrature(wig, nodes_per_axis=40))
    return _record(
        "wigner_normalization", "integral of W over phase space = 1",
        {"n": 2, "lambda": 0.2, "nodes_per_axis": 40}, value, tol,
        expected=1.0, passed=abs(value - 1.0) <= tol,
    )


def probe_antisqueezed_sum(cutoff: int | None = None) -> CheckRecord:
    """Informational: variance of sum P_i / sqrt(6) in the three-mode
    squeezed vacuum versus lambda.

    The exact Gaussian value tracks exp(4 lambda)/4 and grows without
    bound, at odds with the candidate reading of the infinite-squeezing
    limit as a state annihilated by P1 + P2 + P3; this probe reports the
    numbers and takes no side.  A Fock-space cross-check at the smallest
    lambda shows the same growth within its (reported) truncation bias.
    """
    lams = (0.5, 1.0, 1.5)
    exact = [va.variances_matrix_sum(3, lam).varX2 for lam in lams]
    n, use_cutoff, lam0 = _cutoff(CONFIG_PROBE_FOCK, cutoff)
    _, _, psi = _truncated_state(n, use_cutoff, lam0)
    fock_value = fo.variance_numeric(fo.normalized(psi), "X2")
    return CheckRecord(
        name="antisqueezed_sum_probe",
        ref="variance of sum P_i / sqrt(2n): exp(4 lambda)/4 vs zero-variance limit reading",
        inputs={
            "n": 3,
            "lambda": list(lams),
            "fock_cross_check": {"lambda": lam0, "cutoff": use_cutoff, "variance": fock_value},
            "limit_claim_value": 0.0,
        },
        expected=[math.exp(4 * lam) / 4 for lam in lams],
        actual=exact,
        tail_mass=fo.tail_mass(psi),
        note="informational only, never scored; variance grows with lambda",
    )


def run_verification(
    seed: int = 0,
    cutoff: int | None = None,
    tolerances: dict[str, float] | None = None,
) -> VerifyReport:
    """Run every check once and collect the report.

    ``cutoff`` overrides the per-config Fock cutoffs; configurations whose
    truncated dimension would exceed the resource guard (DIM_GUARD) are
    marked skipped rather than run, and a check that raises anything else
    is marked failed.
    A negative seed or cutoff, or a bad tolerance, raises ValueError before
    any check runs.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")
    tols = resolve_tolerances(tolerances)
    rng = random.Random(seed)
    _overlap_config.cache_clear()
    # Built per run, so each check is looked up in this module when it runs.
    checks = (
        ("variances_closed_form", check_variance_closed_forms, tols["variance"]),
        ("uncertainty_product", check_uncertainty_product, tols["product"]),
        ("gram_sum_identity", check_sum_identities, tols["sum"]),
        ("power_sum_identity", check_power_sum_identity, tols["power"]),
        ("enhanced_squeezing", check_enhanced_squeezing, tols["enhancement"]),
        ("doubled_two_mode_reduction", check_doubling_reduction, tols["reduction"]),
        ("normal_form_assembly", check_normal_form_assembly, tols["normalform"], cutoff),
        ("cremat_tanh_identity", check_cremat_identity, tols["cremat"]),
        ("vacuum_overlap_n2", check_overlap, "n2", tols["overlap_n2"], cutoff),
        ("vacuum_overlap_n3", check_overlap, "n3", tols["overlap_n3"], cutoff),
        ("evolved_norm", check_evolved_norm, tols["norm"], cutoff),
        ("three_mode_state", check_three_mode_state, tols["special3"]),
        ("four_mode_state", check_four_mode_state, tols["special4"]),
        ("four_mode_ninv", check_four_mode_ninv, tols["ninv"]),
        ("wigner_closed_vs_generic", check_wigner_closed_vs_generic, tols["wigner_closed"], rng),
        ("wigner_parity_oracle", check_wigner_parity_oracle, tols["wigner_oracle"], rng, cutoff),
        ("wigner_origin", check_wigner_origin, tols["wigner_origin"]),
        ("wigner_normalization", check_wigner_normalization, tols["wigner_norm"]),
        ("antisqueezed_sum_probe", probe_antisqueezed_sum, cutoff),
    )
    records = []
    for name, check, *args in checks:
        try:
            record = check(*args)
        except ResourceLimitError as exc:
            record = CheckRecord(name, skipped=True, note=f"skipped: {exc}")
        except Exception as exc:  # surface as a failed check, not a crash
            record = CheckRecord(name, passed=False, note=f"error: {exc!r}")
        records.append(record)
    return VerifyReport(seed, tuple(records))
