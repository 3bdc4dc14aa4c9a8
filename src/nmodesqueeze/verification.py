"""Full verification suite: every closed-form claim against its oracle.

Each check produces one record with the measured worst-case error, the
tolerance it was held to, and (for Fock-space checks) the measured tail
mass, so a failure distinguishes "truncation too small" from "formula
wrong".  The antisqueezed-sum probe is informational: it reports the
variance of sum P_i / sqrt(2n) in the three-mode squeezed vacuum against
the two candidate behaviours (exp(4 lambda)/4 growth versus the
zero-variance limit reading) without pass/fail status.

``run_verification`` runs the 19 checks from one table; a check that
hits a resource guard or raises gives a blank record instead.  Reports
are deterministic for a given seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import coupling as cp
from . import fockoracle as fo
from . import gaussian as ga
from . import normalform as nf
from .errors import ResourceLimitError

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
# "variance" and "overlap" fan out to every check in their family.
TOLERANCE_ALIASES = {
    "overlap": ("overlap_n2", "overlap_n3"),
}

# Fock-space configurations (n, cutoff, lambda) used by the oracle checks.
CONFIG_ASSEMBLY = (2, 12, 0.15)
CONFIG_OVERLAP_N2 = (2, 20, 0.2)
CONFIG_OVERLAP_N3 = (3, 9, 0.15)
CONFIG_PARITY = (3, 8, 0.1)
CONFIG_PROBE_FOCK = (3, 20, 0.5)


@dataclass
class CheckRecord:
    """One verified claim: worst measured error against its tolerance.

    A record made from its name alone is blank: the check gave no result.
    """

    name: str
    ref: str = ""
    inputs: dict = field(default_factory=dict)
    expected: object = None
    actual: object = None
    tol: float = math.nan
    passed: bool | None = None
    tail_mass: float | None = None
    skipped: bool = False
    note: str = ""


@dataclass
class VerifyReport:
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def overall(self) -> str:
        if any(rec.passed is False for rec in self.checks):
            return "fail"
        if any(rec.skipped for rec in self.checks):
            return "partial"
        return "pass"


def resolve_tolerances(overrides: dict[str, float] | None) -> dict[str, float]:
    """Apply CLI overrides onto the default tolerance table.

    Raises ValueError for unknown names so typos surface as usage errors.
    """
    tols = dict(DEFAULT_TOLERANCES)
    for name, value in (overrides or {}).items():
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


def _draw_alpha(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec /= np.linalg.norm(vec)
    return vec * (radius * rng.random())


def _kernels(ns=SWEEP_N, lams=SWEEP_LAMBDA):
    """(n, lambda, kernel) for every n in ns and lambda in lams, one
    coupling per n."""
    for n in ns:
        base = cp.build_coupling(n)
        for lam in lams:
            yield n, lam, cp.build_kernel(base, lam)


def _cutoff(config: tuple[int, int, float], cutoff: int | None) -> tuple[int, int, float]:
    """A Fock config (n, cutoff, lambda), with the cutoff overridden if given."""
    n, default_cutoff, lam = config
    return n, default_cutoff if cutoff is None else cutoff, lam


def _literal_variances(kernel: cp.SqueezeKernel) -> tuple[float, float]:
    """(Delta X1)^2 and (Delta X2)^2 as literal sums over the dense Gram
    matrix and its inverse: an oracle independent of ``cp.entry_sum``."""
    n = kernel.coupling.n
    return float(kernel.gram.sum()) / (4 * n), float(kernel.gramInv.sum()) / (4 * n)


def check_variance_closed_forms(tol: float) -> CheckRecord:
    worst = 0.0
    for _, lam, kernel in _kernels():
        v1, v2 = _literal_variances(kernel)
        worst = max(worst, _rel_err(v1, math.exp(-4 * lam) / 4))
        worst = max(worst, _rel_err(v2, math.exp(4 * lam) / 4))
    return _record(
        "variances_closed_form", "var_x1 = exp(-4 lambda)/4, var_x2 = exp(+4 lambda)/4",
        {"n": list(SWEEP_N), "lambda": list(SWEEP_LAMBDA)}, worst, tol,
    )


def check_uncertainty_product(tol: float) -> CheckRecord:
    worst = 0.0
    for _, _, kernel in _kernels():
        v1, v2 = _literal_variances(kernel)
        worst = max(worst, abs(v1 * v2 - 1.0 / 16.0))
    return _record(
        "uncertainty_product", "var_x1 * var_x2 = 1/16",
        {"n": list(SWEEP_N), "lambda": list(SWEEP_LAMBDA)}, worst, tol,
        expected=1.0 / 16.0, note="actual is worst |product - 1/16|",
    )


def check_sum_identities(tol: float) -> CheckRecord:
    worst = 0.0
    for n, lam, kernel in _kernels():
        sum_g, sum_ginv = cp.sum_identities(kernel)
        worst = max(worst, _rel_err(sum_g, n * math.exp(-4 * lam)))
        worst = max(worst, _rel_err(sum_ginv, n * math.exp(4 * lam)))
    return _record(
        "gram_sum_identity", "sum_ij gram = n exp(-4 lambda), sum_ij gram^-1 = n exp(+4 lambda)",
        {"n": list(SWEEP_N), "lambda": list(SWEEP_LAMBDA)}, worst, tol,
    )


def check_power_sum_identity(tol: float) -> CheckRecord:
    worst = 0
    for n in SWEEP_N:
        doubled = 2 * cp.build_coupling(n).entries  # A + A~ in exact integers
        power = np.eye(n, dtype=np.int64)
        for exponent in range(0, 7):
            worst = max(worst, abs(int(power.sum()) - 4**exponent * n))
            power = power @ doubled
    return _record(
        "power_sum_identity", "sum_ij (A + A~)^l = 4^l n, integer exact",
        {"n": list(SWEEP_N), "l": list(range(7))}, worst, tol,
        expected=0,
    )


def check_enhanced_squeezing(tol: float) -> CheckRecord:
    margin = math.inf
    for _, lam, kernel in _kernels(lams=(0.1, 0.5, 1.0)):
        margin = min(margin, math.exp(-2 * lam) / 4 - ga.variances_matrix_sum(kernel).varX1)
    return _record(
        "enhanced_squeezing", "var_x1 < exp(-2 lambda)/4 (standard two-mode value)",
        {"n": list(SWEEP_N), "lambda": [0.1, 0.5, 1.0]}, margin, tol,
        expected="margin > 0", passed=margin > tol,
    )


def check_doubling_reduction(tol: float) -> CheckRecord:
    worst = 0.0
    for _, lam, kernel in _kernels((2,), (0.1, 0.3, 0.5, 1.0)):
        member = nf.squeezed_vacuum(kernel)
        target = nf.baseline_two_mode(2 * lam)
        worst = max(worst, float(np.max(np.abs(member.F - target.F))))
        worst = max(worst, abs(member.norm - target.norm))
    return _record(
        "doubled_two_mode_reduction", "two-mode member at lambda = standard squeeze at 2 lambda",
        {"lambda": [0.1, 0.3, 0.5, 1.0]}, worst, tol,
    )


def check_normal_form_assembly(tol: float, cutoff: int | None = None) -> CheckRecord:
    n, cutoff, lam = _cutoff(CONFIG_ASSEMBLY, cutoff)
    space = fo.build_space(n, cutoff)
    fo.require_dense(space)
    base = cp.build_coupling(n)
    ham = fo.generator(space, base, lam).mat.toarray()
    w, v = np.linalg.eigh(ham)
    exact = (v * np.exp(1j * w)) @ v.conj().T
    assembled = fo.assemble_normal_form(nf.normal_form(cp.build_kernel(base, lam)), space)
    low = np.flatnonzero(fo.occupation_table(space).sum(axis=1) <= 4)
    worst = float(np.max(np.abs(exact[np.ix_(low, low)] - assembled[np.ix_(low, low)])))
    return _record(
        "normal_form_assembly", "prefactor exp(cre/2) :exp(cross): exp(ann/2) = exp(iH)",
        {"n": n, "cutoff": cutoff, "lambda": lam, "subspace": "total photons <= 4"}, worst, tol,
    )


def check_cremat_identity(tol: float) -> CheckRecord:
    worst = 0.0
    for _, lam, kernel in _kernels(lams=(0.5, -0.5, 0.1, -0.1)):
        form = nf.normal_form(kernel)
        tanh_mat = cp.matrix_function(kernel.coupling, lambda a: np.tanh(lam * a))
        worst = max(worst, float(np.max(np.abs(form.creMat + tanh_mat))))
    return _record(
        "cremat_tanh_identity", "creation block = -tanh(lambda A)",
        {"n": list(SWEEP_N), "lambda": [0.5, -0.5, 0.1, -0.1]}, worst, tol,
    )


@functools.cache
def _overlap_config(n: int, cutoff: int, lam: float) -> tuple[float, float, float]:
    """(overlap deficit, norm deviation, analytic tail mass) for one config.

    Cached so the overlap and norm checks share one vacuum evolution per
    config; ``run_verification`` clears it so every run evolves afresh.
    """
    space = fo.build_space(n, cutoff)
    base = cp.build_coupling(n)
    evolved = fo.evolve_vacuum(fo.generator(space, base, lam))
    analytic = fo.two_photon_expand(nf.squeezed_vacuum(cp.build_kernel(base, lam)), space)
    deficit = 1.0 - abs(fo.overlap(evolved, analytic))
    return deficit, abs(evolved.norm - 1.0), fo.tail_mass(analytic)


def check_overlap(which: str, tol: float, cutoff: int | None = None) -> CheckRecord:
    config = CONFIG_OVERLAP_N2 if which == "n2" else CONFIG_OVERLAP_N3
    n, cutoff, lam = _cutoff(config, cutoff)
    deficit, _, tail = _overlap_config(n, cutoff, lam)
    return _record(
        f"vacuum_overlap_{which}", "exp(iH)|0> = norm exp(at~ F at / 2)|0>",
        {"n": n, "cutoff": cutoff, "lambda": lam}, deficit, tol,
        tail_mass=tail, note="actual is 1 - |overlap|",
    )


def check_evolved_norm(tol: float, cutoff: int | None = None) -> CheckRecord:
    worst = 0.0
    for config in (CONFIG_OVERLAP_N2, CONFIG_OVERLAP_N3):
        _, norm_dev, _ = _overlap_config(*_cutoff(config, cutoff))
        worst = max(worst, norm_dev)
    return _record(
        "evolved_norm", "unitarity: |exp(iH)|0>| = 1",
        {"configs": [list(CONFIG_OVERLAP_N2), list(CONFIG_OVERLAP_N3)]}, worst, tol,
        expected=1.0, note="actual is worst | |psi| - 1 |",
    )


def check_three_mode_state(tol: float) -> CheckRecord:
    worst = 0.0
    for _, lam, kernel in _kernels((3,), (0.1, 0.2, 0.3, 0.5)):
        state = nf.squeezed_vacuum(kernel)
        closed = nf.three_mode_closed(lam)
        target = np.where(np.eye(3, dtype=bool), closed.A1 / 3, -2 * closed.A2 / 3)
        worst = max(worst, float(np.max(np.abs(state.F - target))))
        worst = max(worst, abs(state.norm - closed.A3))
    return _record(
        "three_mode_state", "F diag = A1/3, F offdiag = -2 A2/3, norm = A3",
        {"lambda": [0.1, 0.2, 0.3, 0.5]}, worst, tol,
    )


def check_four_mode_state(tol: float) -> CheckRecord:
    worst = 0.0
    for _, lam, kernel in _kernels((4,), (0.1, 0.2, 0.3, 0.5)):
        state = nf.squeezed_vacuum(kernel)
        closed = nf.four_mode_closed(lam)
        pattern = -closed.stateTanh / 2 * kernel.coupling.entries.astype(float)
        worst = max(worst, float(np.max(np.abs(state.F - pattern))))
        worst = max(worst, abs(state.norm - closed.stateNorm))
    return _record(
        "four_mode_state", "norm = sech(2 lambda), F = -tanh(2 lambda)/2 on the ring, 0 elsewhere",
        {"lambda": [0.1, 0.2, 0.3, 0.5]}, worst, tol,
    )


def check_four_mode_ninv(tol: float) -> CheckRecord:
    worst = 0.0
    opposite = np.zeros((4, 4))
    opposite[0, 2] = opposite[2, 0] = opposite[1, 3] = opposite[3, 1] = 1.0
    for _, lam, kernel in _kernels((4,), (0.1, 0.2, 0.3, 0.5)):
        closed = nf.four_mode_closed(lam)
        # the ring has 1s exactly on the near pairs, so it carries that pattern
        ring = kernel.coupling.entries.astype(float)
        pattern = (
            closed.ninv_diag * np.eye(4) + closed.ninv_near * ring + closed.ninv_far * opposite
        )
        worst = max(worst, float(np.max(np.abs(kernel.NmatInv - pattern))))
        worst = max(worst, abs(kernel.detN - closed.detN))
    return _record(
        "four_mode_ninv",
        "N^-1: diag 1, near tanh(2 lambda)/2, opposite 0; det N = cosh^2(2 lambda)",
        {"lambda": [0.1, 0.2, 0.3, 0.5]}, worst, tol,
    )


def check_wigner_closed_vs_generic(tol: float, rng: np.random.Generator) -> CheckRecord:
    worst = 0.0
    base3 = cp.build_coupling(3)
    base4 = cp.build_coupling(4)
    for _ in range(200):
        lam = float(rng.uniform(-0.5, 0.5))
        alpha3 = _draw_alpha(rng, 3, 1.5)
        alpha4 = _draw_alpha(rng, 4, 1.5)
        wig3 = ga.wigner_from_kernel(cp.build_kernel(base3, lam))
        wig4 = ga.wigner_from_kernel(cp.build_kernel(base4, lam))
        worst = max(
            worst,
            _rel_err(nf.wigner3_closed(lam, alpha3), ga.wigner_value_alpha(wig3, alpha3)),
            _rel_err(nf.wigner4_closed(lam, alpha4), ga.wigner_value_alpha(wig4, alpha4)),
        )
    return _record(
        "wigner_closed_vs_generic", "closed 3- and 4-mode Wigner forms = generic Gaussian form",
        {"draws": 200, "|lambda| <=": 0.5, "|alpha| <=": 1.5}, worst, tol,
    )


def check_wigner_parity_oracle(
    tol: float, rng: np.random.Generator, cutoff: int | None = None
) -> CheckRecord:
    n, cutoff, lam = _cutoff(CONFIG_PARITY, cutoff)
    space = fo.build_space(n, cutoff)
    kernel = cp.build_kernel(cp.build_coupling(n), lam)
    psi = fo.two_photon_expand(nf.squeezed_vacuum(kernel), space)
    wig = ga.wigner_from_kernel(kernel)
    worst = 0.0
    for _ in range(20):
        alpha = _draw_alpha(rng, n, 0.6)
        worst = max(worst, abs(fo.wigner_numeric(psi, alpha) - ga.wigner_value_alpha(wig, alpha)))
    return _record(
        "wigner_parity_oracle", "W(alpha) = pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>",
        {"n": n, "cutoff": cutoff, "lambda": lam, "points": 20, "|alpha| <=": 0.6}, worst, tol,
        tail_mass=fo.tail_mass(psi),
    )


def check_wigner_origin(tol: float) -> CheckRecord:
    worst = 0.0
    for n, _, kernel in _kernels((2, 3, 4, 5), (0.0, 0.2, 0.5)):
        origin = ga.PhasePoint(q=np.zeros(n), p=np.zeros(n))
        value = ga.wigner_value(ga.wigner_from_kernel(kernel), origin)
        worst = max(worst, abs(value - math.pi ** (-n)))
    return _record(
        "wigner_origin", "W(0, 0) = pi^-n",
        {"n": [2, 3, 4, 5], "lambda": [0.0, 0.2, 0.5]}, worst, tol,
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
    base = cp.build_coupling(3)
    lams = (0.5, 1.0, 1.5)
    exact = [ga.variances_matrix_sum(cp.build_kernel(base, lam)).varX2 for lam in lams]
    n, use_cutoff, lam0 = _cutoff(CONFIG_PROBE_FOCK, cutoff)
    space = fo.build_space(n, use_cutoff)
    psi = fo.two_photon_expand(nf.squeezed_vacuum(cp.build_kernel(base, lam0)), space)
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
    truncated dimension would exceed a resource guard (DIM_GUARD, or
    DENSE_DIM_GUARD for the dense normal-form check) are marked skipped
    rather than run, and a check that raises anything else is marked failed.
    """
    tols = resolve_tolerances(tolerances)
    rng = np.random.default_rng(seed)
    report = VerifyReport(seed=seed)
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
    for name, check, *args in checks:
        try:
            record = check(*args)
        except ResourceLimitError as exc:
            record = CheckRecord(name, skipped=True, note=f"skipped: {exc}")
        except Exception as exc:  # surface as a failed check, not a crash
            record = CheckRecord(name, passed=False, note=f"error: {exc!r}")
        report.checks.append(record)
    return report
