"""Tables and what only their runs read: the ``Table`` renderer, the CSV
writer, and the builders of the four commands whose results hold a Table.

``cli`` imports this module the first time a run needs it: a command
that prints a Table, or any ``--format csv`` run.  ``variances``,
``baseline`` and a JSON ``verify`` never load it.
"""

from __future__ import annotations

import io
import itertools
import math
from collections.abc import Iterator
from typing import TYPE_CHECKING

from .cli import (
    _INLINE_WIDTH,
    RunConfig,
    UsageError,
    _grid_doc,
    _json_text,
    _Outcome,
    _require_n,
    _scalar_text,
)
from .errors import ResourceLimitError

if TYPE_CHECKING:
    import numpy as np

    from .coupling import SqueezeKernel


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
# rendering: a Table's rows in blocks, each distinct entry formatted once

# Rows of a Table rendered as one piece: 1024 rows of a four-mode grid make
# a piece of about 190 KB, and the cell cap keeps n = 1448 matrix rows to 45.
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 1 << 16


def _fmt_floats(values: np.ndarray) -> list[str]:
    """``cli._fmt_float`` of each value, in one % operation."""
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
    patterns that it is the first to use.  ``cells`` holds each column's
    text if it is pinned, else its index among the varying columns.  A
    group, whose rows are lists, also notes the texts too wide for an
    inline list: any pinned one in ``pinned_wide``, each varying one in
    ``wide`` as ``rows`` formats it.
    """

    def __init__(self, values: np.ndarray | range):
        import numpy as np

        bits = np.asarray(values, dtype=np.float64).view(np.int64)
        self.group = bits.ndim == 2
        bits = bits if self.group else bits[:, None]
        pinned = (bits == bits[:1]).all(axis=0) & (len(bits) > 0)
        texts = _fmt_floats(bits[:1, pinned].view(np.float64).ravel())
        self.pinned_wide = self.group and any(len(text) >= _INLINE_WIDTH for text in texts)
        index, texts = itertools.count(), iter(texts)
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
        self.wide, self.ready = np.zeros(self.values.size, dtype=bool), 0

    def rows(self, first: int, last: int) -> np.ndarray:
        """The codes of rows first..last-1, one column per varying column,
        with their texts formatted, and in a group measured."""
        codes = self.codes[first:last]
        stop = int(codes.max()) + 1
        if stop > self.ready:
            texts = _fmt_floats(self.values[self.ready:stop])
            self.texts[self.ready:stop] = texts
            if self.group:
                self.wide[self.ready:stop] = [len(text) >= _INLINE_WIDTH for text in texts]
            self.ready = stop
        return codes

    def wide_rows(self, first: int, last: int) -> np.ndarray:
        """Whether each of rows first..last-1, once read by ``rows``, holds
        a group text too wide for an inline list; a column's never is."""
        return self.pinned_wide | self.wide.take(self.codes[first:last]).any(axis=1)


def _row_blocks(parts: list, rows: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """first, last and pieces of each block of rows 0..rows-1 of the row
    template ``parts``, a list of texts and (field texts, column) cells.

    A pinned cell is written into the text around it.  pieces is a
    (rows, 2 * varying cells + 1) object array of the literal texts before,
    between and after the varying cells, interleaved with their texts: the
    "".join of its ravel is the rows' text.  Each block formats each
    field's texts once.
    """
    import numpy as np

    literals, slots = [""], {}
    for part in parts:
        if isinstance(part, str):
            literals[-1] += part
            continue
        field, column = part
        cell = field.cells[column]
        if isinstance(cell, str):
            literals[-1] += cell
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
        for field, (targets, sources) in slots.items():
            pieces[:, targets] = field.texts.take(field.rows(first, last)[:, sources])
        yield first, last, pieces


def _render_table(table: Table, indent: int) -> Iterator[str]:
    """The list of ``table.entry`` rows, laid out as ``cli._json_text`` lays
    it out, one piece per block of rows.  A row with a group entry too wide
    for an inline list is handed to ``cli._json_text`` itself."""
    import numpy as np

    matrix = table.fields.get(None)
    # A row of k numbers takes at least 3k characters, so only a matrix of
    # fewer than 8 columns can have rows short enough to share one line.
    if table.size == 0 or matrix is not None and 3 * matrix.shape[1] < _INLINE_WIDTH:
        yield _json_text([table.entry(k) for k in range(table.size)], indent)
        return
    pad, row_pad, key_pad = ("  " * (indent + k) for k in range(3))
    parts, lead = [f",\n{row_pad}"], "{"
    fields = [_FieldTexts(values) for values in table.fields.values()]
    for name, field in zip(table.fields, fields):
        if name is not None:
            parts.append(f'{lead}\n{key_pad}"{name}": ')
            lead = ","
        cells = [p for c in range(len(field.cells)) for p in (", ", (field, c))][1:]
        parts += ["[", *cells, "]"] if field.group else cells
    if matrix is None:
        parts.append(f"\n{row_pad}}}")
    yield "[\n"
    for first, last, pieces in _row_blocks(parts, table.size):
        wide = np.any([field.wide_rows(first, last) for field in fields], axis=0)
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


# ---------------------------------------------------------------------------
# the CSV writer

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
    for _, _, pieces in _row_blocks(parts, table.size):
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
# the commands whose results hold a Table

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
        closed_fn = ga.wigner3_closed if n == 3 else ga.wigner4_closed
        fields["value_closed"] = closed_fn(config.lam, (q + 1j * p) / math.sqrt(2.0))
    results: dict = {"points": Table(fields)}
    if config.grid:
        results["grid"] = _grid_doc(config)
    return _Outcome(results)
