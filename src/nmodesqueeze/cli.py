"""Command-line front end.

Subcommands: coupling, variances, normal-form, state, wigner, verify,
baseline.  Every run emits one document, JSON by default (schema tag
"nmode-squeeze/1") or CSV with --format csv.  Floats are printed with 17
significant digits so a parse on any IEEE-754 platform reproduces the
exact bits; a non-finite float (NaN, +-inf) is written as null.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 resource
guard, 4 numeric failure (a solver broke down or a Fock cutoff was too
small for the state).

The document is rendered into a list of text chunks, and written out
chunk by chunk, only after every result is computed, so a run that ends
in an error writes nothing to stdout or --out.
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import coupling as cp
from . import gaussian as ga
from . import normalform as nf
from .errors import (
    ModeCountError,
    NumericFailureError,
    ParameterRangeError,
    ResourceLimitError,
    TruncationError,
)

if TYPE_CHECKING:
    from .verification import CheckRecord, VerifyReport

SCHEMA = "nmode-squeeze/1"
COMMANDS = ("coupling", "variances", "normal-form", "state", "wigner", "verify", "baseline")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4

# Largest grid, counted in coordinates (points x modes), that `wigner`
# builds.  Peak RSS grew by 214, 358, 339, 608 and 1604 bytes per grid
# point at n = 2, 3, 4, 16 and 64 (641 601 and 40 401 points against each
# other at n <= 4, 90 601 and 10 201 above; JSON to a file, 2 vCPUs): at
# most 120 bytes per coordinate, so a grid at the guard stays near 0.5 GB.
# It admits 1024 x 1024 points at n = 4, which peaked at 371 MB.
GRID_GUARD = 1 << 22

POINT_HELP = "phase-space point; one that starts with -inf or -nan needs --point=VALUE"


class UsageError(ValueError):
    """Malformed configuration; mapped onto exit code 2."""


@dataclass
class RunConfig:
    """Parsed invocation; one per CLI run."""

    command: str
    n: int | None = None
    lam: float = 0.0
    cutoff: int | None = None
    grid: list[tuple[str, float, float, int]] = field(default_factory=list)
    points: list[tuple[list[float], list[float]]] = field(default_factory=list)
    fmt: str = "json"
    out: str | None = None
    seed: int | None = None
    tolerances: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class PointTable:
    """Wigner values at m phase points, kept as arrays up to rendering.

    q and p are (m, n); value_closed is None unless n has a closed form.
    """

    q: np.ndarray
    p: np.ndarray
    value: np.ndarray
    value_closed: np.ndarray | None

    def columns(self) -> list[np.ndarray]:
        """q1..qn, p1..pn, value and value_closed (if any), in CSV column order."""
        cols = [*self.q.T, *self.p.T, self.value]
        if self.value_closed is not None:
            cols.append(self.value_closed)
        return cols

    def entry(self, k: int) -> dict:
        """Point k as the dict the ``points`` list of the document holds."""
        entry = {"q": _vector(self.q[k]), "p": _vector(self.p[k]), "value": float(self.value[k])}
        if self.value_closed is not None:
            entry["value_closed"] = float(self.value_closed[k])
        return entry


# ---------------------------------------------------------------------------
# serialization: floats at 17 significant digits, deterministic layout

# A list whose items all render shorter than this stays on one line.
_INLINE_WIDTH = 24
# Rows of the points table filled by one % operation: 1024 rows of a
# four-mode grid make a chunk of about 200 KB.
_BLOCK_ROWS = 1024
# main writes the document in whole multiples of this size, the capacity
# of a Linux pipe, so a reader draining the pipe gets full reads.  Writes
# of uneven size leave it a short read at every write boundary; the
# benchmark's reader fragmented its heap on those, and since each child
# it starts inherits its peak RSS as ru_maxrss, that crept up 1-2 MB a job.
_WRITE_BYTES = 1 << 16


class _Chunks(list):
    """A rendered document as a list of text chunks, in order.  It has a
    ``write`` method, so a ``csv.writer`` can add its rows to it."""

    write = list.append


def _fmt_float(value: float) -> str:
    if not math.isfinite(value):
        return "null"
    return format(float(value), ".17g")


def _distinct_texts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_fmt_float`` text of each distinct bit pattern of values (so
    0.0 and -0.0 apart), as an object array, and the index of every
    entry's text in it.  Grid coordinates repeat across the rows, so each
    is formatted once."""
    bits, inverse = np.unique(values.astype(np.float64).view(np.int64), return_inverse=True)
    return np.array([_fmt_float(v) for v in bits.view(np.float64).tolist()], dtype=object), inverse


def _cells(columns: list[tuple[np.ndarray, np.ndarray]], start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the ``_distinct_texts`` columns, as a
    (stop - start, len(columns)) object array of texts."""
    cells = np.empty((stop - start, len(columns)), dtype=object)
    for j, (texts, inverse) in enumerate(columns):
        cells[:, j] = texts.take(inverse[start:stop])
    return cells


def _render_points(table: PointTable, indent: int, out: list[str]) -> None:
    """Append the points list, laid out as ``_render_json`` lays out the
    list of ``table.entry`` dicts.  A column with one text is written into
    the row template; the others fill its %s slots, one % operation per
    block of rows.  A row with a coordinate too wide for an inline q/p list
    is handed to ``_render_json`` itself."""
    m, n = table.q.shape
    pad, row_pad, key_pad = ("  " * (indent + k) for k in range(3))
    slots, varying = [], []
    wide = np.zeros(m, dtype=bool)
    for c, (texts, inverse) in enumerate(map(_distinct_texts, table.columns())):
        if c < 2 * n:
            wide |= np.array([len(text) >= _INLINE_WIDTH for text in texts])[inverse]
        if texts.size == 1:
            slots.append(texts[0])
        else:
            slots.append("%s")
            varying.append((texts, inverse))
    closed = f',\n{key_pad}"value_closed": {slots[-1]}' if table.value_closed is not None else ""
    row = (
        f'{row_pad}{{\n{key_pad}"q": [{", ".join(slots[:n])}],\n'
        f'{key_pad}"p": [{", ".join(slots[n:2 * n])}],\n'
        f'{key_pad}"value": {slots[2 * n]}{closed}\n{row_pad}}}'
    )
    out.append("[\n")
    sep = ""
    start = 0
    for stop in [*np.flatnonzero(wide).tolist(), m]:
        for first in range(start, stop, _BLOCK_ROWS):
            last = min(first + _BLOCK_ROWS, stop)
            template = sep + ",\n".join([row] * (last - first))
            out.append(template % tuple(_cells(varying, first, last).ravel().tolist()))
            sep = ",\n"
        if stop < m:
            out.append(sep + row_pad + _json_text(table.entry(stop), indent + 1))
            sep = ",\n"
        start = stop + 1
    out.append("\n" + pad + "]")


def _render_json(obj, indent: int, out: list[str]) -> None:
    """Append the JSON text of obj, nested ``indent`` levels deep, to out.
    Dicts and ``PointTable``s append as they go; any other value is
    appended as one ``_json_text`` string."""
    if isinstance(obj, PointTable):
        _render_points(obj, indent, out)
    elif isinstance(obj, dict):
        inner = "  " * (indent + 1)
        sep = "{\n"
        for key, val in obj.items():
            out.append(f'{sep}{inner}"{key}": ')
            _render_json(val, indent + 1, out)
            sep = ",\n"
        out.append("\n" + "  " * indent + "}" if obj else "{}")
    else:
        out.append(_json_text(obj, indent))


def _json_text(obj, indent: int = 0) -> str:
    """The JSON text of obj, nested ``indent`` levels deep, as one string.
    A list renders its items first, to decide whether it fits on one line."""
    if isinstance(obj, (dict, PointTable)):
        out: list[str] = []
        _render_json(obj, indent, out)
        return "".join(out)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [_json_text(val, indent + 1) for val in obj]
        if all(len(r) < _INLINE_WIDTH and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        inner = "  " * (indent + 1)
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + "  " * indent + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _scalar_csv(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (list, tuple)):
        return ";".join(_scalar_csv(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_scalar_csv(v)}" for k, v in value.items())
    return str(value)


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for idx, val in enumerate(obj):
            yield from _flatten(val, f"{prefix}{idx}.")
    else:
        yield prefix.rstrip("."), obj


def _render_csv(doc: dict, out: _Chunks) -> None:
    """Append the CSV document to out, one chunk per row."""
    writer = csv.writer(out, lineterminator="\n")
    results = doc["results"]
    if doc["command"] == "wigner":
        table = results["points"]
        nmodes = table.q.shape[1]
        header = [f"q{i+1}" for i in range(nmodes)] + [f"p{i+1}" for i in range(nmodes)]
        header.append("value")
        if table.value_closed is not None:
            header.append("value_closed")
        writer.writerow(header)
        columns = [_distinct_texts(col) for col in table.columns()]
        m = table.q.shape[0]
        for first in range(0, m, _BLOCK_ROWS):
            writer.writerows(_cells(columns, first, min(first + _BLOCK_ROWS, m)).tolist())
    elif doc["command"] == "verify":
        header = ["name", "paper_ref", "expected", "actual", "tol", "pass", "tail_mass", "skipped", "note"]
        writer.writerow(header)
        for rec in doc["checks"]:
            writer.writerow([
                rec["name"], rec["paper_ref"], _scalar_csv(rec["expected"]),
                _scalar_csv(rec["actual"]), _scalar_csv(rec["tol"]), _scalar_csv(rec["pass"]),
                _scalar_csv(rec["tail_mass"]), _scalar_csv(rec["skipped"]), rec["note"],
            ])
    else:
        writer.writerow(["name", "value"])
        for name, value in _flatten(results):
            writer.writerow([name, _scalar_csv(value)])


def _matrix(mat: np.ndarray) -> list:
    if np.issubdtype(mat.dtype, np.integer):
        return [[int(v) for v in row] for row in mat]
    return [[float(v) for v in row] for row in mat]


def _vector(vec: np.ndarray) -> list[float]:
    return [float(v) for v in vec]


# ---------------------------------------------------------------------------
# command implementations

def _results_coupling(config: RunConfig) -> dict:
    base = cp.build_coupling(_require_n(config))
    kernel = cp.build_kernel(base, config.lam)
    return {
        "A": _matrix(base.entries),
        "eigenvalues": _vector(np.sort(base.eigenvalues)[::-1]),
        "Lambda": _matrix(kernel.Lambda),
        "gram": _matrix(kernel.gram),
        "det_lambda": kernel.detLambda,
        "det_n": kernel.detN,
    }


def _results_variances(config: RunConfig) -> dict:
    kernel = cp.build_kernel(cp.build_coupling(_require_n(config)), config.lam)
    by_sum = ga.variances_matrix_sum(kernel)
    closed = ga.variances_closed(config.lam)
    return {
        "matrix_sum": {"var_x1": by_sum.varX1, "var_x2": by_sum.varX2},
        "closed": {"var_x1": closed.varX1, "var_x2": closed.varX2},
        "product_matrix_sum": by_sum.varX1 * by_sum.varX2,
        "product_closed": closed.varX1 * closed.varX2,
    }


def _results_normal_form(config: RunConfig) -> dict:
    kernel = cp.build_kernel(cp.build_coupling(_require_n(config)), config.lam)
    form = nf.normal_form(kernel)
    return {
        "prefactor": form.prefactor,
        "cre_mat": _matrix(form.creMat),
        "cross_mat": _matrix(form.crossMat),
        "ann_mat": _matrix(form.annMat),
    }


def _results_state(config: RunConfig) -> dict:
    n = _require_n(config)
    kernel = cp.build_kernel(cp.build_coupling(n), config.lam)
    state = nf.squeezed_vacuum(kernel)
    results = {
        "norm": state.norm,
        "two_photon_matrix": _matrix(state.F),
    }
    if config.cutoff is not None:
        from . import fockoracle as fo  # only --cutoff loads the oracle

        space = fo.build_space(n, config.cutoff)
        psi = fo.two_photon_expand(state, space)
        amplitudes = []
        for idx in np.flatnonzero(psi.amps):
            amp = psi.amps[idx]
            amplitudes.append(
                {
                    "occupation": list(space.occupation(int(idx))),
                    "re": float(amp.real),
                    "im": float(amp.imag),
                }
            )
        results["fock"] = {
            "cutoff": config.cutoff,
            "tail_mass": fo.tail_mass(psi),
            "amplitudes": amplitudes,
        }
    return results


def _results_baseline(config: RunConfig) -> dict:
    state = nf.baseline_two_mode(config.lam)
    return {
        "norm": state.norm,
        "f_offdiag": float(state.F[0, 1]),
        "var_x1": math.exp(-2 * config.lam) / 4,
        "var_x2": math.exp(2 * config.lam) / 4,
        "uncertainty_product": 1.0 / 16.0,
    }


def _wigner_points(config: RunConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n) arrays q and p of the requested points, one point per row."""
    if config.points and config.grid:
        raise UsageError("give either --point or --grid, not both")
    if config.points:
        for q_vals, p_vals in config.points:
            if len(q_vals) != n or len(p_vals) != n:
                raise UsageError(f"--point needs {n} q values and {n} p values")
        return (
            np.array([q_vals for q_vals, _ in config.points], dtype=float),
            np.array([p_vals for _, p_vals in config.points], dtype=float),
        )
    if config.grid:
        if len(config.grid) > 2:
            raise UsageError("at most 2 grid axes (other coordinates are pinned to 0)")
        axes = [_parse_axis(axis, n) for axis, _, _, _ in config.grid]
        size = math.prod(steps for _, _, _, steps in config.grid)
        if size * n > GRID_GUARD:
            raise ResourceLimitError(
                f"grid of {size} points at n={n} holds {size * n} coordinates, "
                f"over the guard of {GRID_GUARD}"
            )
        axes_values = [
            (kind, index, np.linspace(lo, hi, steps))
            for (kind, index), (_, lo, hi, steps) in zip(axes, config.grid)
        ]
        mesh = np.meshgrid(*[vals for _, _, vals in axes_values], indexing="ij")
        q = np.zeros((mesh[0].size, n))
        p = np.zeros((mesh[0].size, n))
        for (kind, index, _), grid_arr in zip(axes_values, mesh):
            (q if kind == "q" else p)[:, index] = grid_arr.reshape(-1)
        return q, p
    return np.zeros((1, n)), np.zeros((1, n))


def _parse_axis(axis: str, n: int) -> tuple[str, int]:
    kind = axis[:1]
    if kind not in ("q", "p") or not axis[1:].isdigit():
        raise UsageError(f"grid axis must look like q1..q{n} or p1..p{n}, got {axis!r}")
    index = int(axis[1:]) - 1
    if not 0 <= index < n:
        raise UsageError(f"grid axis {axis!r} out of range for n={n}")
    return kind, index


def _results_wigner(config: RunConfig) -> dict:
    n = _require_n(config)
    kernel = cp.build_kernel(cp.build_coupling(n), config.lam)
    wig = ga.wigner_from_kernel(kernel)
    q, p = _wigner_points(config, n)
    values = ga.wigner_values(wig, q, p)
    closed = None
    if n in (3, 4):
        closed_fn = nf.wigner3_closed if n == 3 else nf.wigner4_closed
        closed = closed_fn(config.lam, (q + 1j * p) / math.sqrt(2.0))
    results: dict = {"points": PointTable(q, p, values, closed)}
    if config.grid:
        results["grid"] = [
            {"axis": axis, "lo": lo, "hi": hi, "steps": steps}
            for axis, lo, hi, steps in config.grid
        ]
    return results


def _record_doc(rec: CheckRecord) -> dict:
    return {
        "name": rec.name,
        "paper_ref": rec.ref,
        "inputs": rec.inputs,
        "expected": rec.expected,
        "actual": rec.actual,
        "tol": rec.tol,
        "pass": rec.passed,
        "tail_mass": rec.tail_mass,
        "skipped": rec.skipped,
        "note": rec.note,
    }


def verify(config: RunConfig) -> VerifyReport:
    """Run the acceptance suite under this configuration."""
    from .verification import run_verification

    return run_verification(
        seed=config.seed if config.seed is not None else 0,
        cutoff=config.cutoff,
        tolerances=config.tolerances,
    )


def _require_n(config: RunConfig) -> int:
    if config.n is None:
        raise UsageError(f"command {config.command!r} requires --n")
    return config.n


def run(config: RunConfig) -> tuple[str, int]:
    """Execute one configuration; returns (serialized document, exit code)."""
    chunks, exit_code = _execute(config)
    return "".join(chunks), exit_code


def _execute(config: RunConfig) -> tuple[list[str], int]:
    """Execute one configuration; returns (document chunks, exit code)."""
    checks: list[dict] = []
    exit_code = EXIT_OK
    if config.command == "coupling":
        results = _results_coupling(config)
    elif config.command == "variances":
        results = _results_variances(config)
    elif config.command == "normal-form":
        results = _results_normal_form(config)
    elif config.command == "state":
        results = _results_state(config)
    elif config.command == "wigner":
        results = _results_wigner(config)
    elif config.command == "baseline":
        results = _results_baseline(config)
    elif config.command == "verify":
        report = verify(config)
        checks = [_record_doc(rec) for rec in report.checks]
        executed = [rec for rec in report.checks if not rec.skipped]
        results = {
            "overall": report.overall,
            "seed": report.seed,
            "checks_run": len(executed),
            "checks_skipped": len(report.checks) - len(executed),
        }
        if report.overall == "fail":
            exit_code = EXIT_CHECK_FAILED
        elif report.overall == "partial":
            exit_code = EXIT_RESOURCE
    else:
        raise UsageError(f"unknown command {config.command!r}")

    doc = {
        "schema": SCHEMA,
        "command": config.command,
        "config": {
            "n": config.n,
            "lambda": config.lam,
            "cutoff": config.cutoff,
            "grid": [
                {"axis": a, "lo": lo, "hi": hi, "steps": s} for a, lo, hi, s in config.grid
            ],
            "points": [{"q": q, "p": p} for q, p in config.points],
            "format": config.fmt,
            "seed": config.seed,
            "tolerance": dict(config.tolerances),
        },
        "results": results,
        "checks": checks,
    }
    chunks = _Chunks()
    if config.fmt == "json":
        _render_json(doc, 0, chunks)
        chunks.append("\n")
    else:
        _render_csv(doc, chunks)
    return chunks, exit_code


# ---------------------------------------------------------------------------
# argument parsing

def _parse_point(raw: str) -> tuple[list[float], list[float]]:
    try:
        q_part, p_part = raw.split(":")
        q_vals = [float(v) for v in q_part.split(",")]
        p_vals = [float(v) for v in p_part.split(",")]
    except ValueError as exc:
        raise UsageError(f"--point must look like q1,..,qn:p1,..,pn, got {raw!r}") from exc
    return q_vals, p_vals


def _parse_grid(raw: str) -> tuple[str, float, float, int]:
    try:
        axis, span = raw.split("=")
        lo_s, hi_s, steps_s = span.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        raise UsageError(f"--grid must look like AXIS=lo:hi:steps, got {raw!r}") from exc
    if steps < 1:
        raise UsageError("grid steps must be >= 1")
    return axis, lo, hi, steps


def _parse_tolerance(raw: str) -> tuple[str, float]:
    try:
        name, value_s = raw.split("=")
        value = float(value_s)
    except ValueError as exc:
        raise UsageError(f"--tolerance must look like NAME=VALUE, got {raw!r}") from exc
    return name, value


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Read -1e-3 or -1.2e-100,0:0,0 as a value, not as an unknown flag
        # (argparse itself only takes forms like -1 and -1.5); no flag of
        # this CLI starts with a digit or a dot.
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):  # exit 2 without killing the calling process
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nmode-squeeze", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--n", type=int, help="mode count")
        cmd.add_argument("--lambda", dest="lam", type=float, default=0.0, help="squeezing parameter")
        cmd.add_argument("--cutoff", type=int, help="per-mode Fock cutoff")
        cmd.add_argument("--grid", action="append", default=[], metavar="AXIS=lo:hi:steps")
        cmd.add_argument(
            "--point", action="append", default=[], metavar="q,..:p,..", help=POINT_HELP
        )
        cmd.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
        cmd.add_argument("--out", help="output path (default stdout)")
        cmd.add_argument("--seed", type=int, help="seed for pseudo-random draws")
        cmd.add_argument("--tolerance", action="append", default=[], metavar="NAME=VAL")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tolerances = dict(_parse_tolerance(raw) for raw in args.tolerance)
    return RunConfig(
        command=args.command,
        n=args.n,
        lam=args.lam,
        cutoff=args.cutoff,
        grid=[_parse_grid(raw) for raw in args.grid],
        points=[_parse_point(raw) for raw in args.point],
        fmt=args.fmt,
        out=args.out,
        seed=args.seed,
        tolerances=tolerances,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        chunks, exit_code = _execute(config)
    except (ModeCountError, ParameterRangeError, ValueError) as exc:  # UsageError is one too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (NumericFailureError, TruncationError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if config.out:
        with open(config.out, "w", encoding="utf-8") as handle:
            _write(chunks, handle)
    else:
        _write(chunks, sys.stdout)
    return exit_code


def _write(chunks: list[str], handle) -> None:
    """Write chunks in order, in pieces of whole multiples of
    ``_WRITE_BYTES`` (bar the last)."""
    pending = ""
    for chunk in chunks:
        pending += chunk
        cut = len(pending) - len(pending) % _WRITE_BYTES
        if cut:
            handle.write(pending[:cut])
            pending = pending[cut:]
    handle.write(pending)


if __name__ == "__main__":
    raise SystemExit(main())
