"""Command-line front end.

``COMMANDS`` names every command once, with the flags it reads and the
builder of its results; ``build_parser`` writes ``--help`` from it.

This module holds what every run executes: the schema and exit codes,
argument parsing, the plain-JSON writer, and the builders of
``variances``, ``baseline`` and ``verify``, whose documents hold no Table.
``tables`` holds the rest: the ``Table`` renderer, the CSV writer and the
builders of ``coupling``, ``normal-form``, ``state`` and ``wigner``.  It is
imported the first time a run needs it, as numpy is, so ``import
nmodesqueeze.cli`` compiles none of that code.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, NamedTuple, NoReturn

# No numpy here, and no package module that imports it: each command
# imports what it reads when it runs, so variances and baseline run without
# numpy, and without tables.
from .errors import (
    ModeCountError,
    NumericFailureError,
    ParameterRangeError,
    ResourceLimitError,
    TruncationError,
)

if TYPE_CHECKING:
    from .verification import CheckRecord

SCHEMA = "nmode-squeeze/1"
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4


class UsageError(ValueError):
    """Malformed configuration; mapped onto exit code 2."""


class RunConfig(NamedTuple):
    """Parsed invocation; one per CLI run.  A grid, points or tolerances of
    None are read as empty."""

    command: str
    n: int | None = None
    lam: float = 0.0
    cutoff: int | None = None
    grid: list[tuple[str, float, float, int]] | None = None
    points: list[tuple[list[float], list[float]]] | None = None
    fmt: str = "json"
    out: str | None = None
    seed: int | None = None
    tolerances: dict[str, float] | None = None


# ---------------------------------------------------------------------------
# serialization: floats at 17 significant digits, deterministic layout

# A list whose items all render shorter than this stays on one line.
_INLINE_WIDTH = 24
# main writes the document in whole multiples of this size, the capacity
# of a Linux pipe, so a reader draining the pipe gets full reads.  Writes
# of uneven size leave it a short read at every write boundary; the
# benchmark's reader fragmented its heap on those, and since each child
# it starts inherits its peak RSS as ru_maxrss, that crept up 1-2 MB a job.
_WRITE_BYTES = 1 << 16


def _fmt_float(value: float) -> str:
    if not math.isfinite(value):
        return "null"
    return format(float(value), ".17g")


def _is_table(obj) -> bool:
    """Whether obj is a ``tables.Table``.  A Table exists only once that
    module is loaded, so asking never loads it."""
    tables = sys.modules.get(f"{__package__}.tables")
    return tables is not None and isinstance(obj, tables.Table)


def _render_json(obj, indent: int) -> Iterator[str]:
    """The JSON text of obj, nested ``indent`` levels deep, in pieces.
    Dicts and Tables yield as they go; any other value is one
    ``_json_text`` piece."""
    if isinstance(obj, dict):
        inner = "  " * (indent + 1)
        sep = "{\n"
        for key, val in obj.items():
            yield f'{sep}{inner}"{key}": '
            yield from _render_json(val, indent + 1)
            sep = ",\n"
        yield "\n" + "  " * indent + "}" if obj else "{}"
    elif _is_table(obj):
        from .tables import _render_table

        yield from _render_table(obj, indent)
    else:
        yield _json_text(obj, indent)


def _json_text(obj, indent: int = 0) -> str:
    """The JSON text of obj, nested ``indent`` levels deep, as one string.
    A list renders its items first, to decide whether it fits on one line."""
    if isinstance(obj, dict) or _is_table(obj):
        return "".join(_render_json(obj, indent))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rendered = [_json_text(val, indent + 1) for val in obj]
        if all(len(r) < _INLINE_WIDTH and "\n" not in r for r in rendered):
            return "[" + ", ".join(rendered) + "]"
        inner = "  " * (indent + 1)
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + "  " * indent + "]"
    if isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    text = _scalar_text(obj)
    if text is None:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return text


def _scalar_text(obj) -> str | None:
    """The text of a bool, None, int or float, JSON and CSV alike; None for
    any other value."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):
        return _fmt_float(obj)
    return None


# ---------------------------------------------------------------------------
# command implementations: each builds its document's results, verify
# records and exit code

class _Outcome(NamedTuple):
    """What a command adds to its document; only verify has checks, or an
    exit code other than 0."""

    results: dict
    checks: list | tuple = ()
    exit_code: int = EXIT_OK


def _require_n(config: RunConfig) -> int:
    if config.n is None:
        raise UsageError(f"command {config.command!r} requires --n")
    return config.n


def _results_variances(config: RunConfig) -> _Outcome:
    from . import variances as va

    by_sum = va.variances_matrix_sum(_require_n(config), config.lam)
    closed = va.variances_closed(config.lam)
    return _Outcome({
        "matrix_sum": {"var_x1": by_sum.varX1, "var_x2": by_sum.varX2},
        "closed": {"var_x1": closed.varX1, "var_x2": closed.varX2},
        "product_matrix_sum": by_sum.varX1 * by_sum.varX2,
        "product_closed": closed.varX1 * closed.varX2,
    })


def _results_baseline(config: RunConfig) -> _Outcome:
    from . import variances as va

    norm, f_offdiag = va.baseline_scalars(config.lam)
    return _Outcome({
        "norm": norm,
        "f_offdiag": f_offdiag,
        "var_x1": math.exp(-2 * config.lam) / 4,
        "var_x2": math.exp(2 * config.lam) / 4,
        "uncertainty_product": 1.0 / 16.0,
    })


def _grid_doc(config: RunConfig) -> list[dict]:
    """--grid as the document holds it, in its config and in its results."""
    return [{"axis": a, "lo": lo, "hi": hi, "steps": s} for a, lo, hi, s in config.grid or ()]


def _record_doc(rec: CheckRecord) -> dict:
    """The record's fields in their order, a blank record's inputs as {};
    the document names two of them apart."""
    renamed = {"ref": "paper_ref", "passed": "pass"}
    fields = rec._replace(inputs=rec.inputs or {})._asdict()
    return {renamed.get(key, key): value for key, value in fields.items()}


def _results_verify(config: RunConfig) -> _Outcome:
    """The acceptance suite: exit 1 if a check fails, 3 if the resource
    guard skipped one."""
    from .verification import run_verification

    report = run_verification(
        seed=config.seed if config.seed is not None else 0,
        cutoff=config.cutoff,
        tolerances=config.tolerances,
    )
    executed = [rec for rec in report.checks if not rec.skipped]
    results = {
        "overall": report.overall,
        "seed": report.seed,
        "checks_run": len(executed),
        "checks_skipped": len(report.checks) - len(executed),
    }
    exit_code = {"fail": EXIT_CHECK_FAILED, "partial": EXIT_RESOURCE}.get(report.overall, EXIT_OK)
    return _Outcome(results, [_record_doc(rec) for rec in report.checks], exit_code)


def _unknown_command(config: RunConfig) -> NoReturn:
    raise UsageError(f"unknown command {config.command!r}")


def _in_tables(name: str) -> Callable[[RunConfig], _Outcome]:
    """The builder ``tables.<name>`` of a command whose results hold a
    Table, looked up, and its module imported, when the command runs."""

    def build(config: RunConfig) -> _Outcome:
        from . import tables

        return getattr(tables, name)(config)

    return build


# The flags only some commands read, in the order they are checked, and the
# RunConfig field each sets; a flag not given leaves its field None or empty.
_FLAG_FIELDS = {
    "--n": "n", "--cutoff": "cutoff", "--seed": "seed",
    "--tolerance": "tolerances", "--grid": "grid", "--point": "points",
}


# Every command, in the order argparse lists them: the flags it reads of
# those in _FLAG_FIELDS, and the builder of its results.
COMMANDS: dict[str, tuple[tuple[str, ...], Callable[[RunConfig], _Outcome]]] = {
    "coupling": (("--n",), _in_tables("_results_coupling")),
    "variances": (("--n",), _results_variances),
    "normal-form": (("--n",), _in_tables("_results_normal_form")),
    "state": (("--n", "--cutoff"), _in_tables("_results_state")),
    "wigner": (("--n", "--grid", "--point"), _in_tables("_results_wigner")),
    "verify": (("--cutoff", "--seed", "--tolerance"), _results_verify),
    "baseline": ((), _results_baseline),
}


def run(config: RunConfig) -> tuple[str, int]:
    """Execute one configuration; returns (serialized document, exit code)."""
    pieces, exit_code = _execute(config)
    return "".join(pieces), exit_code


def _execute(config: RunConfig) -> tuple[Iterator[str], int]:
    """Execute one configuration; returns (document pieces, exit code).

    Every result is computed here, so an error is raised before a piece
    exists; the pieces are rendered as they are drawn, and an exception
    while rendering is a bug that may leave a partial document.  A flag the
    command does not read is a usage error, so a document's config never
    records a setting that had no effect."""
    # an unknown command reads no flag, so a flag given to it is named first
    reads, build = COMMANDS.get(config.command, ((), _unknown_command))
    for flag, field in _FLAG_FIELDS.items():
        if getattr(config, field) not in (None, [], {}) and flag not in reads:
            raise UsageError(f"command {config.command!r} does not read {flag}")
    results, checks, exit_code = build(config)
    doc = {
        "schema": SCHEMA,
        "command": config.command,
        "config": {
            "n": config.n,
            "lambda": config.lam,
            "cutoff": config.cutoff,
            "grid": _grid_doc(config),
            "points": [{"q": q, "p": p} for q, p in config.points or ()],
            "format": config.fmt,
            "seed": config.seed,
            "tolerance": dict(config.tolerances or {}),
        },
        "results": results,
        "checks": checks,
    }
    if config.fmt == "json":
        return itertools.chain(_render_json(doc, 0), ["\n"]), exit_code
    from .tables import _csv_pieces  # every CSV run loads the CSV writer

    return _csv_pieces(doc), exit_code


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


_EPILOG = f"""\
Every run writes one document, JSON (schema "{SCHEMA}") or CSV;
floats carry 17 significant digits, so they re-parse to the same bits, and
a non-finite one is null.  exit codes: 0 success, 1 a check failed, 2 usage
error, 3 resource guard or a document that cannot be written, 4 numeric
failure; a run that exits 2, 3 or 4 writes one line to stderr, no document,
bar a verify run left partial by the guard: it exits 3 with its whole report."""


def build_parser() -> argparse.ArgumentParser:
    """The parser; its --help lists each command of ``COMMANDS`` with the
    flags it reads."""
    width = max(map(len, COMMANDS)) + 2
    description = "\n".join([
        "commands, and the flags each reads besides --lambda, --format and --out:",
        *(f"  {name:<{width}}{' '.join(reads) or 'none'}" for name, (reads, _) in COMMANDS.items()),
        "A flag the command does not read is a usage error.",
    ])
    parser = _Parser(
        prog="nmode-squeeze",
        description=description,
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command", help="one of the commands above"
    )
    parser.add_argument("--n", type=int, help="mode count")
    parser.add_argument("--lambda", dest="lam", type=float, default=0.0, help="squeezing parameter")
    parser.add_argument("--cutoff", type=int, help="per-mode Fock cutoff")
    parser.add_argument(
        "--grid", action="append", default=[], metavar="AXIS=lo:hi:steps",
        help="grid axis q1..qn or p1..pn, at most two; other coordinates are 0",
    )
    parser.add_argument(
        "--point", dest="points", action="append", default=[], metavar="q,..:p,..",
        help="phase-space point; one that starts with -inf or -nan needs --point=VALUE",
    )
    parser.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--seed", type=int, help="seed for pseudo-random draws")
    parser.add_argument(
        "--tolerance", dest="tolerances", action="append", default=[], metavar="NAME=VAL",
        help="a check's tolerance",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The RunConfig of parsed arguments: each argparse dest is a RunConfig
    field, and the repeatable flags are read into values here."""
    return RunConfig(**{
        **vars(args),
        "tolerances": dict(_parse_tolerance(raw) for raw in args.tolerances),
        "grid": [_parse_grid(raw) for raw in args.grid],
        "points": [_parse_point(raw) for raw in args.points],
    })


def _report(line: str) -> None:
    """Write one line to stderr; a closed or failing stderr loses the line,
    not the exit code."""
    if sys.stderr is not None:  # None: the process was started with stderr closed
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one command line; returns the exit code, for callers in process."""
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        pieces, exit_code = _execute(config)
    except (ModeCountError, ParameterRangeError, ValueError) as exc:  # UsageError is one too
        _report(f"error: {exc}")
        return EXIT_USAGE
    except ResourceLimitError as exc:
        _report(f"resource error: {exc}")
        return EXIT_RESOURCE
    except (NumericFailureError, TruncationError) as exc:
        _report(f"numeric error: {exc}")
        return EXIT_NUMERIC
    try:
        if config.out:
            with open(config.out, "w", encoding="utf-8") as handle:
                _write(pieces, handle)
        elif sys.stdout is None:  # the process was started with stdout closed
            raise OSError("stdout is closed")
        else:
            _write(pieces, sys.stdout)
            sys.stdout.flush()
    except OSError as exc:  # a closed pipe, a full disk, a missing --out directory
        _report(f"resource error: cannot write the document: {exc}")
        return EXIT_RESOURCE
    return exit_code


def console_main() -> NoReturn:
    """Entry point of ``nmode-squeeze`` and ``python -m nmodesqueeze``.

    Runs ``main``, flushes stdout and stderr, and ends the process with
    ``os._exit``, which skips interpreter teardown (0.05-0.07 s of module
    and object clean-up after a run, 2 vCPUs).  Nothing registered with
    ``atexit`` runs, so whatever must happen at exit happens before the
    flush.
    """
    code = main()
    for stream in filter(None, (sys.stdout, sys.stderr)):  # a closed stream is None
        # main flushed the document and reported any failure to write it;
        # a flush that fails here retries data whose loss is already reported.
        with contextlib.suppress(OSError):
            stream.flush()
    os._exit(code)


def _write(pieces: Iterable[str], handle) -> None:
    """Write pieces in order, as they come, in writes of whole multiples
    of ``_WRITE_BYTES`` (bar the last)."""
    pending = ""
    for piece in pieces:
        pending += piece
        cut = len(pending) - len(pending) % _WRITE_BYTES
        if cut:
            handle.write(pending[:cut])
            pending = pending[cut:]
    handle.write(pending)


if __name__ == "__main__":
    console_main()
