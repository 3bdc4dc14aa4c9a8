"""The four workloads: the jobs each draws from the seed, and the check of
each job's output.

A job is one child process.  ``cli`` jobs run ``python -m nmodesqueeze``
with generated flags; the ``fock-oracle`` job runs the library job in
``child.py`` with generated parameters.  The program sees only those
flags and parameters, never the benchmark seed.

Each workload is a generator of sweeps (lists of jobs); a run executes
whole sweeps until its time is up.  Every check returns None when the
output is right, else a one-line reason.  Tolerances are the package's
pinned ``verify`` tolerances, copied here so that a change to the package
cannot loosen the benchmark's own checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from spec import VERIFY_CHECKS

TOL_VARIANCE = 1e-10  # relative, matrix sum vs closed form
TOL_PRODUCT = 1e-12  # absolute, |var_x1 * var_x2 - 1/16|
TOL_NORM = 1e-10  # absolute, | |psi| - 1 |
TOL_WIGNER_CLOSED = 1e-10  # relative, closed 4-mode form vs generic Gaussian
TOL_WIGNER_ORACLE = 1e-3  # absolute, displaced-parity value vs Gaussian value
# Room for rounding in "overlap >= 1 - tail mass": both sides are sums of
# O(1) terms, so they can differ by a few ulps when the tail mass is ~0.
OVERLAP_ROUNDING = 1e-12
# `variances` rejects its own result (exit 2) from |lambda| of about 1.75
# upwards: the literal Gram sum cancels and the product check fails.  Only
# draws at or above this |lambda| may be refused; a refusal of any other
# job is a wrong result.
REFUSAL_FROM = 1.5

WIGNER_AXES = tuple(f"{k}{i}" for k in "qp" for i in range(1, 5))


@dataclass
class Job:
    kind: str  # "cli" or "fock-oracle"
    args: list[str]
    check: Callable[[bytes], str | None]
    label: str
    records: Callable[[bytes], int] = lambda out: 0
    may_refuse: bool = False  # an exit 2 without a document is a known refusal
    command: list[str] | None = None  # replaces the standard command (self-test only)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the self-test."""

    wigner_steps: int
    variance_ladder: tuple[int, ...]
    fock_configs: tuple[tuple[int, int], ...]
    parity_points: int


FULL = Sizes(
    wigner_steps=201,
    variance_ladder=(1000, 2000, 2000, 3000),
    fock_configs=((2, 20), (3, 9), (4, 6)),
    parity_points=20,
)
TINY = Sizes(
    wigner_steps=5,
    variance_ladder=(8, 16, 16, 24),
    fock_configs=((2, 8), (3, 7)),
    parity_points=3,
)


def parse(out: bytes):
    """(document, None) or (None, reason)."""
    try:
        doc = json.loads(out)
    except (ValueError, UnicodeDecodeError) as exc:
        return None, f"output is not JSON: {exc}"
    if not isinstance(doc, dict):
        return None, "output is not a JSON object"
    return doc, None


def _count(select: Callable[[dict], list]) -> Callable[[bytes], int]:
    def count(out: bytes) -> int:
        doc, _ = parse(out)
        try:
            return len(select(doc)) if doc else 0
        except (KeyError, TypeError):
            return 0

    return count


# ---------------------------------------------------------------------------
# verify

def verify_sweeps(rng: random.Random, sizes: Sizes) -> Iterator[list[Job]]:
    """The same seed for every job of a run, so the documents must match."""
    seed = rng.randrange(2**31)
    digests: list[str] = []

    def check(out: bytes) -> str | None:
        doc, err = parse(out)
        if err:
            return err
        overall = doc.get("results", {}).get("overall")
        if overall != "pass":
            return f"overall is {overall!r}"
        names = tuple(rec.get("name") for rec in doc.get("checks", []))
        if names != VERIFY_CHECKS:
            return f"records {names}, expected {VERIFY_CHECKS}"
        digests.append(hashlib.sha256(out).hexdigest())
        if digests[-1] != digests[0]:
            return f"document differs from the first one of seed {seed}"
        return None

    job = Job("cli", ["verify", "--seed", str(seed)], check, f"verify --seed {seed}",
              _count(lambda doc: doc["checks"]))
    while True:
        yield [job]


# ---------------------------------------------------------------------------
# wigner-grid

def wigner_sweeps(rng: random.Random, sizes: Sizes) -> Iterator[list[Job]]:
    steps = sizes.wigner_steps
    peak = math.pi**-4

    def check(out: bytes) -> str | None:
        doc, err = parse(out)
        if err:
            return err
        points = doc.get("results", {}).get("points", [])
        if len(points) != steps * steps:
            return f"{len(points)} points, expected {steps * steps}"
        for pt in points:
            value, closed = pt.get("value"), pt.get("value_closed")
            if not isinstance(value, float) or not 0.0 <= value <= peak:
                return f"value {value!r} outside [0, pi^-4]"
            if not isinstance(closed, float) or abs(closed - value) > TOL_WIGNER_CLOSED * value:
                return f"value_closed {closed!r} vs value {value!r}"
        return None

    while True:
        axes = rng.sample(WIGNER_AXES, 2)
        lam = rng.uniform(-1.0, 1.0)
        args = ["wigner", "--n", "4", "--lambda", repr(lam)]
        for axis in axes:
            args += ["--grid", f"{axis}=-2:2:{steps}"]
        yield [Job("cli", args, check, f"wigner {'/'.join(axes)} lambda={lam:.4f}",
                   _count(lambda doc: doc["results"]["points"]))]


# ---------------------------------------------------------------------------
# variances-large-n

def draw_lambda(rng: random.Random) -> float:
    """Log-uniform |lambda| in [0.05, 20] with a random sign."""
    magnitude = 0.05 * (20.0 / 0.05) ** rng.random()
    return magnitude if rng.random() < 0.5 else -magnitude


def variance_sweeps(rng: random.Random, sizes: Sizes) -> Iterator[list[Job]]:
    """Every rung of the mode-count ladder per sweep, in seeded order.

    The ladder is fixed so that the median over a run is the middle rung's
    time whatever the seed, and the middle rung runs twice per sweep so
    that median rests on several samples.  The seed draws the order and
    every lambda.  Draws with |lambda| >= REFUSAL_FROM may be refused; a
    refusal counts as a failure, and such draws are never skipped or
    redrawn.
    """
    while True:
        ladder = list(sizes.variance_ladder)
        rng.shuffle(ladder)
        jobs = []
        for n in ladder:
            lam = draw_lambda(rng)
            jobs.append(Job("cli", ["variances", "--n", str(n), "--lambda", repr(lam)],
                            variance_check(n, lam), f"variances n={n} lambda={lam:.4f}",
                            _count(lambda doc: [doc["results"]]),
                            may_refuse=abs(lam) >= REFUSAL_FROM))
        yield jobs


def variance_check(n: int, lam: float) -> Callable[[bytes], str | None]:
    closed_x1, closed_x2 = math.exp(-4.0 * lam) / 4.0, math.exp(4.0 * lam) / 4.0

    def check(out: bytes) -> str | None:
        doc, err = parse(out)
        if err:
            return err
        config = doc.get("config", {})
        if config.get("n") != n or config.get("lambda") != lam:
            return "config does not echo the inputs"
        try:
            by_sum = doc["results"]["matrix_sum"]
            product = doc["results"]["product_matrix_sum"]
            rel = max(abs(by_sum["var_x1"] - closed_x1) / closed_x1,
                      abs(by_sum["var_x2"] - closed_x2) / closed_x2)
        except (KeyError, TypeError) as exc:
            return f"missing or malformed result: {exc!r}"
        if abs(product - 1.0 / 16.0) > TOL_PRODUCT:
            return f"product {product!r} is not 1/16"
        if rel > TOL_VARIANCE:
            return f"matrix sum vs closed form relative error {rel:.3e}"
        return None

    return check


# ---------------------------------------------------------------------------
# fock-oracle

def fock_sweeps(rng: random.Random, sizes: Sizes) -> Iterator[list[Job]]:
    parity = next(i for i, (n, _) in enumerate(sizes.fock_configs) if n == 3)
    while True:
        configs = [[n, cutoff, rng.uniform(0.05, 0.2)] for n, cutoff in sizes.fock_configs]
        alphas = [_draw_alpha(rng, 3, 0.6) for _ in range(sizes.parity_points)]
        params = {"configs": configs, "parity": parity, "alphas": alphas}
        label = "fock-oracle " + " ".join(f"({n},{c},{lam:.4f})" for n, c, lam in configs)
        yield [Job("fock-oracle", [json.dumps(params)], _fock_check(configs, len(alphas)), label)]


def _draw_alpha(rng: random.Random, n: int, radius: float) -> list[list[float]]:
    """Uniform direction, radius uniform in [0, radius]; [re, im] per mode."""
    vec = [rng.gauss(0.0, 1.0) for _ in range(2 * n)]
    scale = radius * rng.random() / math.sqrt(sum(v * v for v in vec))
    return [[vec[i] * scale, vec[n + i] * scale] for i in range(n)]


def _fock_check(configs: list, npoints: int) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        doc, err = parse(out)
        if err:
            return err
        try:
            rows = doc["configs"]
            if [[r["n"], r["cutoff"], r["lambda"]] for r in rows] != configs:
                return "configs do not echo the inputs"
            for row in rows:
                label = f"(n={row['n']}, cutoff={row['cutoff']})"
                if row["dim"] != (row["cutoff"] + 1) ** row["n"]:
                    return f"{label}: dim {row['dim']!r}"
                if not row["overlap"] >= 1.0 - row["tail_mass"] - OVERLAP_ROUNDING:
                    return f"{label}: overlap {row['overlap']!r} < 1 - tail {row['tail_mass']!r}"
                if not abs(row["norm"] - 1.0) <= TOL_NORM:
                    return f"{label}: evolved norm {row['norm']!r}"
                for key in ("var_x1", "var_x2"):
                    if not 0.0 < row[key] < math.inf:
                        return f"{label}: {key} {row[key]!r}"
            if len(doc["parity"]) != npoints:
                return f"{len(doc['parity'])} parity values, expected {npoints}"
            for numeric, gaussian in doc["parity"]:
                if not abs(numeric - gaussian) <= TOL_WIGNER_ORACLE:
                    return f"parity Wigner {numeric!r} vs Gaussian {gaussian!r}"
        except (KeyError, TypeError, ValueError) as exc:
            return f"missing or malformed result: {exc!r}"
        return None

    return check


WORKLOADS: dict[str, Callable[[random.Random, Sizes], Iterator[list[Job]]]] = {
    "verify": verify_sweeps,
    "wigner-grid": wigner_sweeps,
    "variances-large-n": variance_sweeps,
    "fock-oracle": fock_sweeps,
}
