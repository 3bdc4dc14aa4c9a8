"""Command-line front end.

``COMMANDS`` names every command once, with the flags it reads and the
builder of its results; ``build_parser`` writes ``--help`` from it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING, NamedTuple, NoReturn

# No numpy here, and no package module that imports it: each command
# imports what it reads when it runs, so variances and baseline run without
# numpy.
from .errors import (
    ModeCountError,
    NumericFailureError,
    ParameterRangeError,
    ResourceLimitError,
    TruncationError,
)

if TYPE_CHECKING:
    import numpy as np

    from .coupling import SqueezeKernel
    from .verification import CheckRecord

SCHEMA = "nmode-squeeze/1"
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERIC = 4

# Largest grid, counted in coordinates (points x modes), that `wigner`
# builds.  Grids at the guard peaked at 246 MB RSS for 1024 x 1024 points
# at n = 4, 136 MB for 512 x 512 at n = 16 and 121 MB for 256 x 256 at
# n = 64 (child ru_maxrss, JSON to /dev/null, 2 vCPUs): under 60 bytes per
# coordinate, interpreter and numpy included.
GRID_GUARD = 1 << 22

# Largest n x n matrix, counted in entries, that coupling, normal-form and
# state build; variances is O(1) and has no such guard.  At the guard,
# n = 1448, normal-form, coupling and state peaked at 162, 176 and 128 MB
# in JSON, 163, 176 and 142 MB in CSV (child VmHWM, to /dev/null, 2 vCPUs).
# wigner builds no such matrix; there the same cap on n bounds the 2n
# columns rendered per point, whose cost past n = 1448 has not been measured.
DENSE_GUARD = 1 << 21


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


class Table:
    """m rows of named numeric fields, kept as arrays up to rendering.

    A field is an (m,) column, which a row holds as one number, or an
    (m, k) group, which a row holds as a list of k numbers; a row is the
    dict of its fields.  A matrix is one group named None, and its row is
    that list.
    """

    def __init__(self, fields: dict[str | None, np.ndarray]):
        self.fields = fields
        self.size = len(next(iter(fields.values())))

    def columns(self) -> Iterator[tuple[str, str]]:
        """Each column's CSV header name and its path within a row: a group
        column by column, numbered from 1 in the header and from 0 in the
        path."""
        for name, values in self.fields.items():
            if values.ndim == 1:
                yield name, name
            else:
                for c in range(values.shape[1]):
                    yield f"{name}{c + 1}", str(c) if name is None else f"{name}.{c}"

    def entry(self, k: int) -> list | dict:
        """Row k as the document holds it."""
        row = {name: values[k].tolist() for name, values in self.fields.items()}
        return row[None] if None in row else row


# ---------------------------------------------------------------------------
# serialization: floats at 17 significant digits, deterministic layout

# A list whose items all render shorter than this stays on one line.
_INLINE_WIDTH = 24
# Rows of a Table rendered as one piece: 1024 rows of a four-mode grid make
# a piece of about 190 KB, and the cell cap keeps n = 1448 matrix rows to 45.
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 1 << 16
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


def _fmt_floats(values: np.ndarray) -> list[str]:
    """``_fmt_float`` of each value, in one % operation."""
    import numpy as np

    texts = ("\n".join(["%.17g"] * values.size) % tuple(values.tolist())).split("\n")
    for k in np.flatnonzero(~np.isfinite(values)).tolist():
        texts[k] = "null"
    return texts


class _FieldTexts:
    """The texts of one field of a Table, formatted block by block.

    A column whose rows all hold one value is pinned, and its text is
    formatted once.  Over the other, varying columns, the distinct bit
    patterns (so 0.0 and -0.0 apart) are numbered in order of first
    appearance, row by row, and ``codes`` holds the number of every entry.
    The rows of a block then use the patterns numbered below the largest
    number among them, so the block formats only the contiguous slice of
    patterns that it is the first to use; a group also notes which of
    their texts are too wide for an inline list.  ``cells`` holds each
    column's text if it is pinned, else its index among the varying
    columns.
    """

    def __init__(self, values: np.ndarray | range):
        import numpy as np

        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        self.group = bits.ndim == 2
        bits = bits if self.group else bits[:, None]
        pinned = (bits == bits[:1]).all(axis=0) & (len(bits) > 0)
        texts = iter(_fmt_floats(bits[:1, pinned].view(np.float64).ravel()))
        index = itertools.count()
        self.cells = [next(texts) if pin else next(index) for pin in pinned.tolist()]
        varying = bits[:, ~pinned] if pinned.any() else bits  # no copy of a whole matrix
        distinct, first, inverse = np.unique(varying, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # numpy 1.x returns the inverse flat, numpy 2.x in the input's shape
        self.codes = rank[inverse].reshape(varying.shape)
        self.values = distinct[order].view(np.float64)
        self.texts = np.empty(self.values.size, dtype=object)
        self.wide = np.zeros(self.values.size, dtype=bool)
        self.ready = 0

    def rows(self, first: int, last: int) -> np.ndarray:
        """The codes of rows first..last-1, one column per varying column,
        with their texts formatted."""
        codes = self.codes[first:last]
        stop = int(codes.max()) + 1
        if stop > self.ready:
            texts = _fmt_floats(self.values[self.ready:stop])
            self.texts[self.ready:stop] = texts
            if self.group:
                self.wide[self.ready:stop] = [len(text) >= _INLINE_WIDTH for text in texts]
            self.ready = stop
        return codes


def _row_blocks(parts: list, rows: int) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """first, last, pieces and wide of each block of rows 0..rows-1 of the
    row template ``parts``, a list of texts and (field texts, column) cells.

    A pinned cell is written into the text around it.  pieces is a
    (rows, 2 * varying cells + 1) object array of the literal texts before,
    between and after the varying cells, interleaved with their texts: the
    "".join of its ravel is the rows' text.  wide marks the rows that hold
    a text of a group too wide for an inline list.  Each block formats each
    field's texts once.
    """
    import numpy as np

    literals, slots, always_wide = [""], {}, False
    for part in parts:
        if isinstance(part, str):
            literals[-1] += part
            continue
        field, column = part
        cell = field.cells[column]
        if isinstance(cell, str):
            literals[-1] += cell
            always_wide |= field.group and len(cell) >= _INLINE_WIDTH
        else:
            targets, sources = slots.setdefault(field, ([], []))
            targets.append(2 * len(literals) - 1)
            sources.append(cell)
            literals.append("")
    step = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // max(1, len(literals) - 1)))
    for first in range(0, rows, step):
        last = min(first + step, rows)
        pieces = np.empty((last - first, 2 * len(literals) - 1), dtype=object)
        pieces[:, 0::2] = np.array(literals, dtype=object)
        wide = np.full(last - first, always_wide)
        for field, (targets, sources) in slots.items():
            codes = field.rows(first, last)
            pieces[:, targets] = field.texts.take(codes[:, sources])
            if field.group:
                wide |= field.wide.take(codes).any(axis=1)
        yield first, last, pieces, wide


def _render_table(table: Table, indent: int) -> Iterator[str]:
    """The list of ``table.entry`` rows, laid out as ``_json_text`` lays it
    out, one piece per block of rows.  A row with a group entry too wide for
    an inline list is handed to ``_json_text`` itself."""
    import numpy as np

    matrix = table.fields.get(None)
    # A row of k numbers takes at least 3k characters, so only a matrix of
    # fewer than 8 columns can have rows short enough to share one line.
    if table.size == 0 or matrix is not None and 3 * matrix.shape[1] < _INLINE_WIDTH:
        yield _json_text([table.entry(k) for k in range(table.size)], indent)
        return
    pad, row_pad, key_pad = ("  " * (indent + k) for k in range(3))
    parts, lead = [f",\n{row_pad}"], "{"
    for name, values in table.fields.items():
        if name is not None:
            parts.append(f'{lead}\n{key_pad}"{name}": ')
            lead = ","
        field = _FieldTexts(values)
        cells = [p for c in range(len(field.cells)) for p in (", ", (field, c))][1:]
        parts += ["[", *cells, "]"] if field.group else cells
    if matrix is None:
        parts.append(f"\n{row_pad}}}")
    yield "[\n"
    for first, last, pieces, wide in _row_blocks(parts, table.size):
        start = 0
        for stop in [*np.flatnonzero(wide).tolist(), last - first]:
            if start < stop:
                text = "".join(pieces[start:stop].ravel().tolist())
                yield text[2:] if first + start == 0 else text  # no ",\n" before row 0
            if first + stop < last:
                sep = ",\n" if first + stop else ""
                yield sep + row_pad + _json_text(table.entry(first + stop), indent + 1)
            start = stop + 1
    yield "\n" + pad + "]"


def _render_json(obj, indent: int) -> Iterator[str]:
    """The JSON text of obj, nested ``indent`` levels deep, in pieces.
    Dicts and Tables yield as they go; any other value is one
    ``_json_text`` piece."""
    if isinstance(obj, Table):
        yield from _render_table(obj, indent)
    elif isinstance(obj, dict):
        inner = "  " * (indent + 1)
        sep = "{\n"
        for key, val in obj.items():
            yield f'{sep}{inner}"{key}": '
            yield from _render_json(val, indent + 1)
            sep = ",\n"
        yield "\n" + "  " * indent + "}" if obj else "{}"
    else:
        yield _json_text(obj, indent)


def _json_text(obj, indent: int = 0) -> str:
    """The JSON text of obj, nested ``indent`` levels deep, as one string.
    A list renders its items first, to decide whether it fits on one line."""
    if isinstance(obj, (dict, Table)):
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


def _scalar_csv(value) -> str:
    """A CSV cell: a list joined by ";", a dict as ";"-joined key=value
    pairs, a string as it is."""
    if isinstance(value, (list, tuple)):
        return ";".join(_scalar_csv(v) for v in value)
    if isinstance(value, dict):
        return ";".join(f"{k}={_scalar_csv(v)}" for k, v in value.items())
    text = _scalar_text(value)
    return str(value) if text is None else text


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _flatten(val, f"{prefix}{key}.")
    elif isinstance(obj, (list, tuple)):
        for idx, val in enumerate(obj):
            yield from _flatten(val, f"{prefix}{idx}.")
    else:
        yield prefix.rstrip("."), obj


def _csv_rows(table: Table, name: str | None) -> Iterator[str]:
    """The table's CSV rows, one piece per block of rows: one row per table
    row, or with a name one ``name.k.path,text`` row per number, the row
    number k one more field.  A number never needs csv quoting, so the rows
    are joined directly."""
    fields = map(_FieldTexts, table.fields.values())
    cells = [(field, c) for field in fields for c in range(len(field.cells))]
    if name is None:
        parts = [*[p for cell in cells for p in (",", cell)][1:], "\n"]
    else:
        index, parts = (_FieldTexts(range(table.size)), 0), []
        for (_, path), cell in zip(table.columns(), cells):
            parts += [f"{name}.", index, f".{path},", cell, "\n"]
    for _, _, pieces, _ in _row_blocks(parts, table.size):
        yield "".join(pieces.ravel().tolist())


def _csv_pieces(doc: dict) -> Iterator[str]:
    """The CSV document, laid out by what it holds: a Table at
    results["points"] one row per point; else check records one row each,
    less their inputs; else one row per leaf, a Table's numbers included."""
    import csv  # only --format csv reads it

    head = io.StringIO()
    writer = csv.writer(head, lineterminator="\n")
    results, checks = doc["results"], doc.get("checks")
    points = results.get("points")
    if isinstance(points, Table):
        writer.writerow([header for header, _ in points.columns()])
        leaves = [(None, points)]  # unnamed: one CSV row per point
    elif checks:
        header = [key for key in checks[0] if key != "inputs"]
        writer.writerow(header)
        for rec in checks:
            writer.writerow([_scalar_csv(rec[key]) for key in header])
        leaves = []
    else:
        writer.writerow(["name", "value"])
        leaves = _flatten(results)
    for name, value in leaves:
        if isinstance(value, Table):
            yield head.getvalue()
            head.seek(0)
            head.truncate()
            yield from _csv_rows(value, name)
        else:
            writer.writerow([name, _scalar_csv(value)])
    yield head.getvalue()


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


def _require_dense_n(config: RunConfig) -> int:
    """--n of a command that builds n x n matrices, refused over DENSE_GUARD
    before any of them exists."""
    n = _require_n(config)
    if n > math.isqrt(DENSE_GUARD):
        raise ResourceLimitError(
            f"n={n} needs {n}x{n} matrices of {n * n} entries, over the guard of {DENSE_GUARD}"
        )
    return n


def _kernel(config: RunConfig, n: int) -> SqueezeKernel:
    """The squeeze kernel of n modes, n already guarded, at --lambda."""
    from . import coupling as cp

    return cp.build_kernel(cp.build_coupling(n), config.lam)


def _results_coupling(config: RunConfig) -> _Outcome:
    import numpy as np

    kernel = _kernel(config, _require_dense_n(config))
    base = kernel.coupling
    return _Outcome({
        "A": Table({None: base.entries}),
        "eigenvalues": np.sort(base.eigenvalues)[::-1].tolist(),
        "Lambda": Table({None: kernel.Lambda}),
        "gram": Table({None: kernel.gram}),
        "det_lambda": kernel.detLambda,
        "det_n": kernel.detN,
    })


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


def _results_normal_form(config: RunConfig) -> _Outcome:
    from . import normalform as nf

    form = nf.normal_form(_kernel(config, _require_dense_n(config)))
    return _Outcome({
        "prefactor": form.prefactor,
        "cre_mat": Table({None: form.creMat}),
        "cross_mat": Table({None: form.crossMat}),
        "ann_mat": Table({None: form.annMat}),
    })


def _results_state(config: RunConfig) -> _Outcome:
    from . import normalform as nf

    n = _require_dense_n(config)
    state = nf.squeezed_vacuum(_kernel(config, n))
    results = {"norm": state.norm, "two_photon_matrix": Table({None: state.F})}
    if config.cutoff is not None:
        import numpy as np

        from . import fockoracle as fo  # only --cutoff loads the oracle

        space = fo.build_space(n, config.cutoff)
        psi = fo.two_photon_expand(state, space)
        nonzero = np.flatnonzero(psi.amps)
        amps = psi.amps[nonzero]
        results["fock"] = {
            "cutoff": config.cutoff,
            "tail_mass": fo.tail_mass(psi),
            "amplitudes": Table({
                "occupation": fo.occupation_table(space)[nonzero], "re": amps.real, "im": amps.imag
            }),
        }
    return _Outcome(results)


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


def _wigner_points(config: RunConfig, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (m, n) arrays q and p of the requested points, one point per row."""
    import numpy as np

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
        if len(set(axes)) < len(axes):
            names = " and ".join(axis for axis, _, _, _ in config.grid)
            raise UsageError(f"grid axes must differ, got {names}")
        for axis, lo, hi, _ in config.grid:
            if not math.isfinite(hi - lo):  # np.linspace would warn on the way to the points
                raise UsageError(
                    f"grid axis {axis} spans {lo!r}:{hi!r}; phase point entries must be "
                    "finite, and so must the span hi - lo"
                )
        size = math.prod(steps for _, _, _, steps in config.grid)
        if size * n > GRID_GUARD:
            raise ResourceLimitError(
                f"grid of {size} points at n={n} holds {size * n} coordinates, "
                f"over the guard of {GRID_GUARD}"
            )
        spans = [np.linspace(lo, hi, steps) for _, lo, hi, steps in config.grid]
        mesh = np.meshgrid(*spans, indexing="ij")
        qp = np.zeros((2, mesh[0].size, n))
        for (part, index), values in zip(axes, mesh):
            qp[part, :, index] = values.reshape(-1)
        return qp[0], qp[1]
    return np.zeros((1, n)), np.zeros((1, n))


def _parse_axis(axis: str, n: int) -> tuple[int, int]:
    """The grid axis q1..qn or p1..pn as (0 for q or 1 for p, mode index)."""
    kind = axis[:1]
    if kind not in ("q", "p") or not axis[1:].isdigit():
        raise UsageError(f"grid axis must look like q1..q{n} or p1..p{n}, got {axis!r}")
    index = int(axis[1:]) - 1
    if not 0 <= index < n:
        raise UsageError(f"grid axis {axis!r} out of range for n={n}")
    return "qp".index(kind), index


def _results_wigner(config: RunConfig) -> _Outcome:
    from . import gaussian as ga

    n = _require_n(config)
    # no n x n matrix here: DENSE_GUARD's cap on n bounds the 2n columns per point
    if n > math.isqrt(DENSE_GUARD):
        raise ResourceLimitError(f"n={n} is over the guard of {math.isqrt(DENSE_GUARD)} modes")
    wig = ga.wigner_from_kernel(_kernel(config, n))
    q, p = _wigner_points(config, n)
    fields = {"q": q, "p": p, "value": ga.wigner_values(wig, q, p)}
    if n in (3, 4):
        from . import normalform as nf

        closed_fn = nf.wigner3_closed if n == 3 else nf.wigner4_closed
        fields["value_closed"] = closed_fn(config.lam, (q + 1j * p) / math.sqrt(2.0))
    results: dict = {"points": Table(fields)}
    if config.grid:
        results["grid"] = _grid_doc(config)
    return _Outcome(results)


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


# The flags only some commands read, in the order they are checked, and the
# RunConfig field each sets; a flag not given leaves its field None or empty.
_FLAG_FIELDS = {
    "--n": "n", "--cutoff": "cutoff", "--seed": "seed",
    "--tolerance": "tolerances", "--grid": "grid", "--point": "points",
}


# Every command, in the order argparse lists them: the flags it reads of
# those in _FLAG_FIELDS, and the builder of its results.
COMMANDS: dict[str, tuple[tuple[str, ...], Callable[[RunConfig], _Outcome]]] = {
    "coupling": (("--n",), _results_coupling),
    "variances": (("--n",), _results_variances),
    "normal-form": (("--n",), _results_normal_form),
    "state": (("--n", "--cutoff"), _results_state),
    "wigner": (("--n", "--grid", "--point"), _results_wigner),
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
