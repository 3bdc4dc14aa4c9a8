"""Full verification suite: every closed-form claim against its oracle.

Each check produces one record with the measured worst-case error, the
tolerance it was held to, and (for Fock-space checks) the measured tail
mass, so a failure distinguishes "truncation too small" from "formula
wrong".  The antisqueezed-sum probe is informational: it reports the
variance of sum P_i / sqrt(2n) in the three-mode squeezed vacuum against
the two candidate behaviours (exp(4 lambda)/4 growth versus the
zero-variance limit reading) without pass/fail status.

Reports are deterministic for a given seed.
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
    """One verified claim: worst measured error against its tolerance."""

    name: str
    ref: str
    inputs: dict
    expected: object
    actual: object
    tol: float
    passed: bool | None
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


def _rel_err(actual: float, expected: float) -> float:
    return abs(actual - expected) / abs(expected)


def _draw_alpha(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    vec /= np.linalg.norm(vec)
    return vec * (radius * rng.random())


def _literal_variances(kernel: cp.SqueezeKernel) -> tuple[float, float]:
    """(Delta X1)^2 and (Delta X2)^2 as literal sums over the dense Gram
    matrix and its inverse: an oracle independent of ``cp.entry_sum``."""
    n = kernel.coupling.n
    return float(kernel.gram.sum()) / (4 * n), float(kernel.gramInv.sum()) / (4 * n)


def check_variance_closed_forms(tol: float) -> CheckRecord:
    worst = 0.0
    for n in SWEEP_N:
        kernel_base = cp.build_coupling(n)
        for lam in SWEEP_LAMBDA:
            v1, v2 = _literal_variances(cp.build_kernel(kernel_base, lam))
            worst = max(worst, _rel_err(v1, math.exp(-4 * lam) / 4))
            worst = max(worst, _rel_err(v2, math.exp(4 * lam) / 4))
    return CheckRecord(
        name="variances_closed_form",
        ref="var_x1 = exp(-4 lambda)/4, var_x2 = exp(+4 lambda)/4",
        inputs={"n": list(SWEEP_N), "lambda": list(SWEEP_LAMBDA)},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_uncertainty_product(tol: float) -> CheckRecord:
    worst = 0.0
    for n in SWEEP_N:
        base = cp.build_coupling(n)
        for lam in SWEEP_LAMBDA:
            v1, v2 = _literal_variances(cp.build_kernel(base, lam))
            worst = max(worst, abs(v1 * v2 - 1.0 / 16.0))
    return CheckRecord(
        name="uncertainty_product",
        ref="var_x1 * var_x2 = 1/16",
        inputs={"n": list(SWEEP_N), "lambda": list(SWEEP_LAMBDA)},
        expected=1.0 / 16.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
        note="actual is worst |product - 1/16|",
    )


def check_sum_identities(tol: float) -> CheckRecord:
    worst = 0.0
    for n in SWEEP_N:
        base = cp.build_coupling(n)
        for lam in SWEEP_LAMBDA:
            sum_g, sum_ginv = cp.sum_identities(cp.build_kernel(base, lam))
            worst = max(worst, _rel_err(sum_g, n * math.exp(-4 * lam)))
            worst = max(worst, _rel_err(sum_ginv, n * math.exp(4 * lam)))
    return CheckRecord(
        name="gram_sum_identity",
        ref="sum_ij gram = n exp(-4 lambda), sum_ij gram^-1 = n exp(+4 lambda)",
        inputs={"n": list(SWEEP_N), "lambda": list(SWEEP_LAMBDA)},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_power_sum_identity(tol: float) -> CheckRecord:
    worst = 0
    for n in SWEEP_N:
        doubled = 2 * cp.build_coupling(n).entries  # A + A~ in exact integers
        power = np.eye(n, dtype=np.int64)
        for exponent in range(0, 7):
            worst = max(worst, abs(int(power.sum()) - 4**exponent * n))
            power = power @ doubled
    return CheckRecord(
        name="power_sum_identity",
        ref="sum_ij (A + A~)^l = 4^l n, integer exact",
        inputs={"n": list(SWEEP_N), "l": list(range(7))},
        expected=0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_enhanced_squeezing(tol: float) -> CheckRecord:
    margin = math.inf
    for n in SWEEP_N:
        base = cp.build_coupling(n)
        for lam in (0.1, 0.5, 1.0):
            pair = ga.variances_matrix_sum(cp.build_kernel(base, lam))
            margin = min(margin, math.exp(-2 * lam) / 4 - pair.varX1)
    return CheckRecord(
        name="enhanced_squeezing",
        ref="var_x1 < exp(-2 lambda)/4 (standard two-mode value)",
        inputs={"n": list(SWEEP_N), "lambda": [0.1, 0.5, 1.0]},
        expected="margin > 0",
        actual=margin,
        tol=tol,
        passed=margin > tol,
    )


def check_doubling_reduction(tol: float) -> CheckRecord:
    worst = 0.0
    base = cp.build_coupling(2)
    for lam in (0.1, 0.3, 0.5, 1.0):
        member = nf.squeezed_vacuum(cp.build_kernel(base, lam))
        target = nf.baseline_two_mode(2 * lam)
        worst = max(worst, float(np.max(np.abs(member.F - target.F))))
        worst = max(worst, abs(member.norm - target.norm))
    return CheckRecord(
        name="doubled_two_mode_reduction",
        ref="two-mode member at lambda = standard squeeze at 2 lambda",
        inputs={"lambda": [0.1, 0.3, 0.5, 1.0]},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_normal_form_assembly(tol: float, cutoff: int | None = None) -> CheckRecord:
    n, default_cutoff, lam = CONFIG_ASSEMBLY
    cutoff = default_cutoff if cutoff is None else cutoff
    space = fo.build_space(n, cutoff)
    fo.require_dense(space)
    base = cp.build_coupling(n)
    ham = fo.generator(space, base, lam).mat.toarray()
    w, v = np.linalg.eigh(ham)
    exact = (v * np.exp(1j * w)) @ v.conj().T
    assembled = fo.assemble_normal_form(nf.normal_form(cp.build_kernel(base, lam)), space)
    totals = fo.occupation_table(space).sum(axis=1)
    low = np.flatnonzero(totals <= 4)
    worst = float(np.max(np.abs(exact[np.ix_(low, low)] - assembled[np.ix_(low, low)])))
    return CheckRecord(
        name="normal_form_assembly",
        ref="prefactor exp(cre/2) :exp(cross): exp(ann/2) = exp(iH)",
        inputs={"n": n, "cutoff": cutoff, "lambda": lam, "subspace": "total photons <= 4"},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_cremat_identity(tol: float) -> CheckRecord:
    worst = 0.0
    for n in SWEEP_N:
        base = cp.build_coupling(n)
        for lam in (0.5, -0.5, 0.1, -0.1):
            form = nf.normal_form(cp.build_kernel(base, lam))
            tanh_mat = cp.matrix_function(base, lambda a: np.tanh(lam * a))
            worst = max(worst, float(np.max(np.abs(form.creMat + tanh_mat))))
    return CheckRecord(
        name="cremat_tanh_identity",
        ref="creation block = -tanh(lambda A)",
        inputs={"n": list(SWEEP_N), "lambda": [0.5, -0.5, 0.1, -0.1]},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
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
    n, default_cutoff, lam = CONFIG_OVERLAP_N2 if which == "n2" else CONFIG_OVERLAP_N3
    cutoff = default_cutoff if cutoff is None else cutoff
    deficit, _, tail = _overlap_config(n, cutoff, lam)
    return CheckRecord(
        name=f"vacuum_overlap_{which}",
        ref="exp(iH)|0> = norm exp(at~ F at / 2)|0>",
        inputs={"n": n, "cutoff": cutoff, "lambda": lam},
        expected=0.0,
        actual=deficit,
        tol=tol,
        passed=deficit <= tol,
        tail_mass=tail,
        note="actual is 1 - |overlap|",
    )


def check_evolved_norm(tol: float, cutoff: int | None = None) -> CheckRecord:
    worst = 0.0
    for n, default_cutoff, lam in (CONFIG_OVERLAP_N2, CONFIG_OVERLAP_N3):
        use_cutoff = default_cutoff if cutoff is None else cutoff
        _, norm_dev, _ = _overlap_config(n, use_cutoff, lam)
        worst = max(worst, norm_dev)
    return CheckRecord(
        name="evolved_norm",
        ref="unitarity: |exp(iH)|0>| = 1",
        inputs={"configs": [list(CONFIG_OVERLAP_N2), list(CONFIG_OVERLAP_N3)]},
        expected=1.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
        note="actual is worst | |psi| - 1 |",
    )


def check_three_mode_state(tol: float) -> CheckRecord:
    worst = 0.0
    base = cp.build_coupling(3)
    for lam in (0.1, 0.2, 0.3, 0.5):
        state = nf.squeezed_vacuum(cp.build_kernel(base, lam))
        closed = nf.three_mode_closed(lam)
        for i in range(3):
            for j in range(3):
                target = closed.A1 / 3 if i == j else -2 * closed.A2 / 3
                worst = max(worst, float(abs(state.F[i, j] - target)))
        worst = max(worst, abs(state.norm - closed.A3))
    return CheckRecord(
        name="three_mode_state",
        ref="F diag = A1/3, F offdiag = -2 A2/3, norm = A3",
        inputs={"lambda": [0.1, 0.2, 0.3, 0.5]},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_four_mode_state(tol: float) -> CheckRecord:
    worst = 0.0
    base = cp.build_coupling(4)
    for lam in (0.1, 0.2, 0.3, 0.5):
        state = nf.squeezed_vacuum(cp.build_kernel(base, lam))
        closed = nf.four_mode_closed(lam)
        pattern = -closed.stateTanh / 2 * base.entries.astype(float)
        worst = max(worst, float(np.max(np.abs(state.F - pattern))))
        worst = max(worst, abs(state.norm - closed.stateNorm))
    return CheckRecord(
        name="four_mode_state",
        ref="norm = sech(2 lambda), F = -tanh(2 lambda)/2 on the ring, 0 elsewhere",
        inputs={"lambda": [0.1, 0.2, 0.3, 0.5]},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_four_mode_ninv(tol: float) -> CheckRecord:
    worst = 0.0
    base = cp.build_coupling(4)
    ring = base.entries.astype(float)
    opposite = np.zeros((4, 4))
    opposite[0, 2] = opposite[2, 0] = opposite[1, 3] = opposite[3, 1] = 1.0
    for lam in (0.1, 0.2, 0.3, 0.5):
        kernel = cp.build_kernel(base, lam)
        closed = nf.four_mode_closed(lam)
        # ring has 1s exactly on the near pairs, so it carries the pattern
        pattern = (
            closed.ninv_diag * np.eye(4)
            + closed.ninv_near * ring
            + closed.ninv_far * opposite
        )
        worst = max(worst, float(np.max(np.abs(kernel.NmatInv - pattern))))
        worst = max(worst, abs(kernel.detN - closed.detN))
    return CheckRecord(
        name="four_mode_ninv",
        ref="N^-1: diag 1, near tanh(2 lambda)/2, opposite 0; det N = cosh^2(2 lambda)",
        inputs={"lambda": [0.1, 0.2, 0.3, 0.5]},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
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
    return CheckRecord(
        name="wigner_closed_vs_generic",
        ref="closed 3- and 4-mode Wigner forms = generic Gaussian form",
        inputs={"draws": 200, "|lambda| <=": 0.5, "|alpha| <=": 1.5},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_wigner_parity_oracle(
    tol: float, rng: np.random.Generator, cutoff: int | None = None
) -> CheckRecord:
    n, default_cutoff, lam = CONFIG_PARITY
    cutoff = default_cutoff if cutoff is None else cutoff
    space = fo.build_space(n, cutoff)
    base = cp.build_coupling(n)
    kernel = cp.build_kernel(base, lam)
    psi = fo.two_photon_expand(nf.squeezed_vacuum(kernel), space)
    wig = ga.wigner_from_kernel(kernel)
    worst = 0.0
    for _ in range(20):
        alpha = _draw_alpha(rng, n, 0.6)
        worst = max(
            worst, abs(fo.wigner_numeric(psi, alpha) - ga.wigner_value_alpha(wig, alpha))
        )
    return CheckRecord(
        name="wigner_parity_oracle",
        ref="W(alpha) = pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>",
        inputs={"n": n, "cutoff": cutoff, "lambda": lam, "points": 20, "|alpha| <=": 0.6},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
        tail_mass=fo.tail_mass(psi),
    )


def check_wigner_origin(tol: float) -> CheckRecord:
    worst = 0.0
    for n in (2, 3, 4, 5):
        base = cp.build_coupling(n)
        for lam in (0.0, 0.2, 0.5):
            wig = ga.wigner_from_kernel(cp.build_kernel(base, lam))
            origin = ga.PhasePoint(q=np.zeros(n), p=np.zeros(n))
            worst = max(worst, abs(ga.wigner_value(wig, origin) - math.pi ** (-n)))
    return CheckRecord(
        name="wigner_origin",
        ref="W(0, 0) = pi^-n",
        inputs={"n": [2, 3, 4, 5], "lambda": [0.0, 0.2, 0.5]},
        expected=0.0,
        actual=worst,
        tol=tol,
        passed=worst <= tol,
    )


def check_wigner_normalization(tol: float) -> CheckRecord:
    wig = ga.wigner_from_kernel(cp.build_kernel(cp.build_coupling(2), 0.2))
    value = float(ga.normalization_by_quadrature(wig, nodes_per_axis=40))
    deviation = abs(value - 1.0)
    return CheckRecord(
        name="wigner_normalization",
        ref="integral of W over phase space = 1",
        inputs={"n": 2, "lambda": 0.2, "nodes_per_axis": 40},
        expected=1.0,
        actual=value,
        tol=tol,
        passed=deviation <= tol,
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
    reference = [math.exp(4 * lam) / 4 for lam in lams]
    n, default_cutoff, lam0 = CONFIG_PROBE_FOCK
    use_cutoff = default_cutoff if cutoff is None else cutoff
    space = fo.build_space(n, use_cutoff)
    psi = fo.two_photon_expand(nf.squeezed_vacuum(cp.build_kernel(base, lam0)), space)
    tail = fo.tail_mass(psi)
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
        expected=reference,
        actual=exact,
        tol=math.nan,
        passed=None,
        tail_mass=tail,
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
    rather than run.
    """
    tols = resolve_tolerances(tolerances)
    rng = np.random.default_rng(seed)
    report = VerifyReport(seed=seed)
    _overlap_config.cache_clear()

    def attempt(label: str, fn, *args, **kwargs):
        try:
            record = fn(*args, **kwargs)
        except ResourceLimitError as exc:
            record = CheckRecord(
                name=label,
                ref="",
                inputs={},
                expected=None,
                actual=None,
                tol=math.nan,
                passed=None,
                skipped=True,
                note=f"skipped: {exc}",
            )
        except Exception as exc:  # surface as a failed check, not a crash
            record = CheckRecord(
                name=label,
                ref="",
                inputs={},
                expected=None,
                actual=None,
                tol=math.nan,
                passed=False,
                note=f"error: {exc!r}",
            )
        report.checks.append(record)

    attempt("variances_closed_form", check_variance_closed_forms, tols["variance"])
    attempt("uncertainty_product", check_uncertainty_product, tols["product"])
    attempt("gram_sum_identity", check_sum_identities, tols["sum"])
    attempt("power_sum_identity", check_power_sum_identity, tols["power"])
    attempt("enhanced_squeezing", check_enhanced_squeezing, tols["enhancement"])
    attempt("doubled_two_mode_reduction", check_doubling_reduction, tols["reduction"])
    attempt("normal_form_assembly", check_normal_form_assembly, tols["normalform"], cutoff)
    attempt("cremat_tanh_identity", check_cremat_identity, tols["cremat"])
    attempt("vacuum_overlap_n2", check_overlap, "n2", tols["overlap_n2"], cutoff)
    attempt("vacuum_overlap_n3", check_overlap, "n3", tols["overlap_n3"], cutoff)
    attempt("evolved_norm", check_evolved_norm, tols["norm"], cutoff)
    attempt("three_mode_state", check_three_mode_state, tols["special3"])
    attempt("four_mode_state", check_four_mode_state, tols["special4"])
    attempt("four_mode_ninv", check_four_mode_ninv, tols["ninv"])
    attempt("wigner_closed_vs_generic", check_wigner_closed_vs_generic, tols["wigner_closed"], rng)
    attempt("wigner_parity_oracle", check_wigner_parity_oracle, tols["wigner_oracle"], rng, cutoff)
    attempt("wigner_origin", check_wigner_origin, tols["wigner_origin"])
    attempt("wigner_normalization", check_wigner_normalization, tols["wigner_norm"])
    attempt("antisqueezed_sum_probe", probe_antisqueezed_sum, cutoff)
    return report
