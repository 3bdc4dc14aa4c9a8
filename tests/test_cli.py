import csv
import io
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nmodesqueeze import cli, verification
from nmodesqueeze import fockoracle as fo
from nmodesqueeze.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    RunConfig,
    main,
    run,
)
from nmodesqueeze.errors import NumericFailureError, ResourceLimitError, TruncationError
from nmodesqueeze.verification import run_verification

TOP_LEVEL_KEYS = {"schema", "command", "config", "results", "checks"}
CHECK_KEYS = {"name", "paper_ref", "expected", "actual", "tol", "pass"}


@pytest.fixture(scope="module")
def verify_doc():
    """One full default verify run, shared across the module."""
    text, code = run(RunConfig(command="verify", seed=0))
    return json.loads(text), code


def _run_json(config: RunConfig) -> dict:
    text, code = run(config)
    assert code == EXIT_OK
    return json.loads(text)


def test_variances_command_values():
    doc = _run_json(RunConfig(command="variances", n=3, lam=0.25))
    assert doc["schema"] == "nmode-squeeze/1"
    results = doc["results"]
    assert results["matrix_sum"]["var_x1"] == pytest.approx(math.exp(-1) / 4, rel=1e-10)
    assert results["closed"]["var_x1"] == pytest.approx(math.exp(-1) / 4, rel=1e-12)
    assert results["matrix_sum"]["var_x2"] == pytest.approx(math.e / 4, rel=1e-10)


def test_coupling_command_identity_gram():
    doc = _run_json(RunConfig(command="coupling", n=4, lam=0.0))
    gram = doc["results"]["gram"]
    for i in range(4):
        for j in range(4):
            assert gram[i][j] == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
    assert doc["results"]["A"] == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]]


def test_wigner_origin_point():
    config = RunConfig(command="wigner", n=4, lam=0.2, points=[([0, 0, 0, 0], [0, 0, 0, 0])])
    doc = _run_json(config)
    point = doc["results"]["points"][0]
    assert point["value"] == math.pi**-4
    assert point["value_closed"] == pytest.approx(math.pi**-4, rel=1e-14)


def test_wigner_grid_slice():
    config = RunConfig(
        command="wigner",
        n=3,
        lam=0.1,
        grid=[("q1", -1.0, 1.0, 5), ("p2", 0.0, 2.0, 4)],
    )
    doc = _run_json(config)
    points = doc["results"]["points"]
    assert len(points) == 20
    # pinned coordinates stay zero, active ones sweep the linspace
    assert {pt["q"][1] for pt in points} == {0.0}
    assert sorted({pt["q"][0] for pt in points}) == [-1.0, -0.5, 0.0, 0.5, 1.0]
    assert all("value_closed" in pt for pt in points)


def test_baseline_command():
    doc = _run_json(RunConfig(command="baseline", lam=0.6))
    results = doc["results"]
    assert results["f_offdiag"] == pytest.approx(-math.tanh(0.6), rel=1e-12)
    assert results["norm"] == pytest.approx(1 / math.cosh(0.6), rel=1e-12)
    assert results["var_x1"] == pytest.approx(math.exp(-1.2) / 4, rel=1e-12)


@pytest.mark.parametrize("lam", ["20", "-20", "40", "-40"])
def test_main_baseline_at_large_lambda(lam, capsys):
    assert main(["baseline", "--lambda", lam]) == EXIT_OK
    results = _strict_json(capsys.readouterr().out)["results"]
    assert results["norm"] == pytest.approx(1 / math.cosh(float(lam)), rel=1e-15)


def test_main_baseline_past_the_doubled_guard(capsys):
    assert main(["baseline", "--lambda", "800"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", ["normal-form", "state"])
@pytest.mark.parametrize("n", [2, 3, 4, 8, 64])
@pytest.mark.parametrize("lam", ["1", "-1", "2", "3", "5", "-5", "8", "-8", "10", "15", "20", "-20"])
def test_main_normal_form_and_state_over_accepted_range(command, n, lam, capsys):
    assert main([command, "--n", str(n), "--lambda", lam]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    results = _strict_json(captured.out)["results"]
    # at n = 64, |lambda| = 20 the norm, about 1e-344, lies below the float range
    assert 0.0 <= results["prefactor" if command == "normal-form" else "norm"] <= 1.0


def test_normal_form_command():
    doc = _run_json(RunConfig(command="normal-form", n=2, lam=0.35))
    assert doc["results"]["cre_mat"][0][1] == pytest.approx(-math.tanh(0.7), abs=1e-12)
    assert doc["results"]["prefactor"] == pytest.approx(1 / math.cosh(0.7), rel=1e-12)


def test_state_command_with_fock_amplitudes():
    doc = _run_json(RunConfig(command="state", n=2, lam=0.2, cutoff=8))
    fock = doc["results"]["fock"]
    assert fock["tail_mass"] < 1e-7
    amps = {tuple(entry["occupation"]): entry["re"] for entry in fock["amplitudes"]}
    assert amps[(1, 1)] == pytest.approx(-math.tanh(0.4) / math.cosh(0.4), rel=1e-12)
    assert (1, 2) not in amps


def test_json_round_trip_schema():
    for config in (
        RunConfig(command="variances", n=3, lam=0.25),
        RunConfig(command="coupling", n=2, lam=0.1),
        RunConfig(command="baseline", lam=0.3),
    ):
        text, code = run(config)
        assert code == EXIT_OK
        doc = json.loads(text)  # must re-parse cleanly
        assert set(doc) == TOP_LEVEL_KEYS
        assert doc["command"] == config.command
        assert doc["config"]["lambda"] == config.lam


def test_csv_json_value_equality():
    json_doc = _run_json(RunConfig(command="variances", n=3, lam=0.25))
    text, _ = run(RunConfig(command="variances", n=3, lam=0.25, fmt="csv"))
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["name", "value"]
    values = dict(rows[1:])
    assert values["matrix_sum.var_x1"] == format(
        json_doc["results"]["matrix_sum"]["var_x1"], ".17g"
    )
    assert values["closed.var_x2"] == format(json_doc["results"]["closed"]["var_x2"], ".17g")


def test_wigner_csv_rows():
    config = RunConfig(
        command="wigner", n=3, lam=0.1, grid=[("q1", -1.0, 1.0, 3)], fmt="csv"
    )
    text, code = run(config)
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["q1", "q2", "q3", "p1", "p2", "p3", "value", "value_closed"]
    assert len(rows) == 4
    json_doc = _run_json(
        RunConfig(command="wigner", n=3, lam=0.1, grid=[("q1", -1.0, 1.0, 3)])
    )
    for row, point in zip(rows[1:], json_doc["results"]["points"]):
        assert row[6] == format(point["value"], ".17g")


def test_verify_default_passes(verify_doc):
    doc, code = verify_doc
    assert code == EXIT_OK
    assert doc["results"]["overall"] == "pass"
    scored = [c for c in doc["checks"] if c["pass"] is not None]
    assert scored and all(c["pass"] for c in scored)
    for check in doc["checks"]:
        assert CHECK_KEYS <= set(check)


def test_verify_probe_is_informational(verify_doc):
    doc, code = verify_doc
    probes = [c for c in doc["checks"] if c["name"] == "antisqueezed_sum_probe"]
    assert len(probes) == 1
    probe = probes[0]
    assert probe["pass"] is None
    assert probe["inputs"]["lambda"] == [0.5, 1.0, 1.5]
    # reported against exp(4 lambda)/4 and the zero-variance limit reading
    assert probe["expected"] == pytest.approx(
        [math.exp(2) / 4, math.exp(4) / 4, math.exp(6) / 4]
    )
    assert probe["inputs"]["limit_claim_value"] == 0.0
    assert code == EXIT_OK  # informational record never changes the exit code


def test_verify_reports_tail_mass(verify_doc):
    doc, _ = verify_doc
    by_name = {c["name"]: c for c in doc["checks"]}
    for name in ("vacuum_overlap_n2", "vacuum_overlap_n3", "wigner_parity_oracle"):
        assert by_name[name]["tail_mass"] is not None
        assert by_name[name]["tail_mass"] < 1e-10


def test_float_serialization_round_trips_bits(verify_doc):
    doc, _ = verify_doc
    text, _ = run(RunConfig(command="variances", n=5, lam=0.37))
    reparsed = json.loads(text)
    for value in reparsed["results"]["matrix_sum"].values():
        assert float(format(value, ".17g")) == value
    for check in doc["checks"]:
        if isinstance(check["actual"], float):
            assert float(format(check["actual"], ".17g")) == check["actual"]


def test_verify_checks_unique_and_complete(verify_doc):
    doc, _ = verify_doc
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names))
    assert set(names) == {
        "variances_closed_form",
        "uncertainty_product",
        "gram_sum_identity",
        "power_sum_identity",
        "enhanced_squeezing",
        "doubled_two_mode_reduction",
        "normal_form_assembly",
        "cremat_tanh_identity",
        "vacuum_overlap_n2",
        "vacuum_overlap_n3",
        "evolved_norm",
        "three_mode_state",
        "four_mode_state",
        "four_mode_ninv",
        "wigner_closed_vs_generic",
        "wigner_parity_oracle",
        "wigner_origin",
        "wigner_normalization",
        "antisqueezed_sum_probe",
    }


def test_verify_determinism_byte_identical():
    text1, _ = run(RunConfig(command="verify", seed=7))
    text2, _ = run(RunConfig(command="verify", seed=7))
    assert text1 == text2


def test_verify_unachievable_tolerance_fails():
    text, code = run(RunConfig(command="verify", tolerances={"variance": 1e-20}))
    assert code == EXIT_CHECK_FAILED
    doc = json.loads(text)
    assert doc["results"]["overall"] == "fail"
    failed = {c["name"] for c in doc["checks"] if c["pass"] is False}
    assert failed == {"variances_closed_form"}


def test_verify_resource_guard_partial_report():
    text, code = run(RunConfig(command="verify", cutoff=450))
    assert code == EXIT_RESOURCE
    doc = json.loads(text)
    assert doc["results"]["overall"] == "partial"
    skipped = [c for c in doc["checks"] if c["skipped"]]
    assert skipped and all("skipped" in c["note"] for c in skipped)
    # closed-form checks still ran and passed
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["variances_closed_form"]["pass"] is True


def test_verify_dense_guard_skips_assembly():
    """cutoff 100 at n = 2 is dim 10 201: fine for the sparse evolution,
    1.6 GB per dense matrix for the normal-form assembly check."""
    text, code = run(RunConfig(command="verify", cutoff=100))
    assert code == EXIT_RESOURCE
    by_name = {c["name"]: c for c in json.loads(text)["checks"]}
    assembly = by_name["normal_form_assembly"]
    assert assembly["skipped"] and "dense guard" in assembly["note"]
    assert by_name["vacuum_overlap_n2"]["pass"] is True


def test_verify_evolves_each_overlap_config_once(monkeypatch):
    evolved = []
    real = fo.evolve_vacuum

    def counting(hamiltonian):
        evolved.append(hamiltonian.space.n)
        return real(hamiltonian)

    monkeypatch.setattr(fo, "evolve_vacuum", counting)
    run_verification(seed=0)
    assert sorted(evolved) == [2, 3]


def test_main_writes_output_file(tmp_path):
    out = tmp_path / "report.json"
    code = main(["variances", "--n", "3", "--lambda", "0.25", "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["results"]["closed"]["var_x1"] == pytest.approx(math.exp(-1) / 4)


def test_main_usage_errors(capsys):
    assert main(["variances"]) == EXIT_USAGE  # missing --n
    assert main(["nonsense"]) == EXIT_USAGE
    assert main(["verify", "--tolerance", "bogus=1"]) == EXIT_USAGE
    assert main(["wigner", "--n", "3", "--point", "1,2:3"]) == EXIT_USAGE
    assert main(["wigner", "--n", "3", "--point", "1,2,3"]) == EXIT_USAGE
    assert main(["wigner", "--n", "3", "--grid", "z1=0:1:5"]) == EXIT_USAGE
    assert main(
        ["wigner", "--n", "3", "--grid", "q1=0:1:2", "--grid", "q2=0:1:2", "--grid", "p1=0:1:2"]
    ) == EXIT_USAGE
    assert main(["coupling", "--n", "1"]) == EXIT_USAGE
    assert main(["coupling", "--n", "3", "--lambda", "25"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--cutoff", "-3"], "cutoff must be nonnegative, got -3"),
        (["verify", "--tolerance", "wigner_norm=nan"], "wigner_norm must be a finite number"),
        (["verify", "--tolerance", "overlap=inf"], "overlap must be a finite number"),
        (["verify", "--tolerance", "power=-inf", "--format", "csv"], "must be a finite number"),
    ],
)
def test_main_verify_bad_inputs_are_usage_errors(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


@pytest.mark.parametrize("n,lam", [("4", "5"), ("3000", "20")])
def test_main_variances_across_lambda_range(n, lam, capsys):
    # nothing is left over to overflow: no warning, and the document is exact
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["variances", "--n", n, "--lambda", lam]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["product_matrix_sum"] == pytest.approx(1.0 / 16.0, abs=1e-12)
    for key, closed in results["closed"].items():
        assert results["matrix_sum"][key] == pytest.approx(closed, rel=1e-10)


def test_main_resource_guard_exit():
    assert main(["state", "--n", "4", "--lambda", "0.1", "--cutoff", "30"]) == EXIT_RESOURCE


# ---------------------------------------------------------------------------
# the points block: rendered from arrays, laid out as the per-point dicts were

WIDE_Q = -1.2345678901234567e-100  # renders as 24 characters
WIDE_P = -9.9999999999999997e199  # renders as 24 characters

LAYOUT_CONFIGS = [
    RunConfig(command="wigner", n=2, lam=0.3, grid=[("q1", -1.0, 1.0, 5), ("p2", -0.5, 0.5, 4)]),
    RunConfig(command="wigner", n=3, lam=-0.7, grid=[("q3", -2.0, 2.0, 7), ("q1", 0.0, 1.0, 3)]),
    RunConfig(command="wigner", n=4, lam=0.37, grid=[("p1", -2.0, 2.0, 6), ("q2", -2.0, 2.0, 5)]),
    RunConfig(command="wigner", n=5, lam=1.0, grid=[("p5", -1.0, 0.0, 4)]),
    RunConfig(
        command="wigner",
        n=4,
        lam=0.3,
        points=[
            ([1e200, -1e200, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]),
            ([WIDE_Q, 0.0, 0.0, 0.0], [0.0, 0.0, WIDE_P, 0.0]),
            ([0.1, -0.0, 0.3, 0.4], [0.0, 0.0, 0.0, -0.25]),
            ([0.0, 0.0, 0.0, 0.0], [0.0, WIDE_Q, 0.0, 0.0]),
        ],
    ),
]


def _entries(table) -> list[dict]:
    """The per-point dicts of the same arrays, as the document used to hold them."""
    entries = []
    for k in range(table.q.shape[0]):
        entry = {
            "q": [float(v) for v in table.q[k]],
            "p": [float(v) for v in table.p[k]],
            "value": float(table.value[k]),
        }
        if table.value_closed is not None:
            entry["value_closed"] = float(table.value_closed[k])
        entries.append(entry)
    return entries


def _per_point_csv(entries: list[dict]) -> str:
    """The CSV writer of the per-point renderer, row by row over the dicts."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    nmodes = len(entries[0]["q"])
    header = [f"q{i+1}" for i in range(nmodes)] + [f"p{i+1}" for i in range(nmodes)]
    header.append("value")
    has_closed = "value_closed" in entries[0]
    if has_closed:
        header.append("value_closed")
    writer.writerow(header)
    for pt in entries:
        row = [cli._fmt_float(v) for v in pt["q"]] + [cli._fmt_float(v) for v in pt["p"]]
        row.append(cli._fmt_float(pt["value"]))
        if has_closed:
            row.append(cli._fmt_float(pt["value_closed"]))
        writer.writerow(row)
    return buf.getvalue()


@pytest.mark.parametrize("config", LAYOUT_CONFIGS, ids=lambda c: f"n{c.n}")
def test_points_rendering_matches_per_point_dicts(config, monkeypatch):
    text, code = run(config)
    csv_text, csv_code = run(RunConfig(**{**vars(config), "fmt": "csv"}))
    table = cli._results_wigner(config)["points"]
    real = cli._results_wigner

    def per_point(cfg):
        results = real(cfg)
        results["points"] = _entries(results["points"])
        return results

    monkeypatch.setattr(cli, "_results_wigner", per_point)
    reference, _ = run(config)
    assert code == csv_code == EXIT_OK
    assert text == reference
    assert csv_text == _per_point_csv(_entries(table))
    assert len(json.loads(text)["results"]["points"]) == table.q.shape[0]


def test_points_rendering_covers_wide_and_null_rows(monkeypatch):
    config = LAYOUT_CONFIGS[-1]
    text, _ = run(config)
    results_block = text[text.index('"results"'):]
    assert f"\n          {WIDE_Q!r},\n" in results_block  # multiline q list
    assert "\n          -9.9999999999999997e+199,\n" in results_block
    assert '"p": [0, 0, 0, -0.25]' in results_block  # inline lists beside them
    assert '"q": [0.10000000000000001, -0, 0.29999999999999999, 0.40000000000000002]' in (
        results_block
    )
    points = json.loads(text)["results"]["points"]
    assert points[0]["value"] == 0.0  # past the float range: exactly 0
    assert points[0]["value_closed"] == 0.0  # the closed form is screened the same way
    # A NaN renders as null both in a wide row and in a template row.
    real_closed = cli.nf.wigner4_closed

    def closed_with_nan(lam, alpha):
        values = real_closed(lam, alpha)
        values[[0, 2]] = math.nan
        return values

    monkeypatch.setattr(cli.nf, "wigner4_closed", closed_with_nan)
    points = json.loads(run(config)[0])["results"]["points"]
    assert points[0]["value_closed"] is None and points[2]["value_closed"] is None
    assert points[3]["value_closed"] > 0.0


# Values the property below draws table entries from: signed zeros, NaN,
# infinities, subnormals, the ends of the float range and 24-character texts.
TABLE_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
    -1e-300, WIDE_Q, WIDE_P, 0.5, -1.25, 0.1, 2.0 / 3.0,
]


@st.composite
def point_tables(draw):
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 40))
    value = st.sampled_from(TABLE_VALUES)

    def column():
        if draw(st.booleans()):  # one text down the whole column
            return np.full(m, draw(value))
        return np.array(draw(st.lists(value, min_size=m, max_size=m)))

    q = np.column_stack([column() for _ in range(n)])
    p = np.column_stack([column() for _ in range(n)])
    closed = column() if draw(st.booleans()) else None
    return cli.PointTable(q, p, column(), closed)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(table=point_tables(), indent=st.integers(0, 3), block_rows=st.sampled_from([1, 2, 7, 1024]))
def test_points_renderer_matches_per_point_dicts_property(table, indent, block_rows):
    entries = _entries(table)
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        text = cli._json_text(table, indent)
        chunks = cli._Chunks()
        cli._render_csv({"command": "wigner", "results": {"points": table}}, chunks)
    assert text == cli._json_text(entries, indent)
    assert "".join(chunks) == _per_point_csv(entries)


def test_points_grid_formats_each_distinct_pattern_once(monkeypatch):
    config = RunConfig(
        command="wigner", n=4, lam=0.3, grid=[("q2", -2.0, 2.0, 61), ("p4", -1.5, 1.5, 61)]
    )
    table = cli._results_wigner(config)["points"]
    formatted = []
    real = cli._fmt_float

    def counting(value):
        formatted.append(value)
        return real(value)

    monkeypatch.setattr(cli, "_fmt_float", counting)
    text = cli._json_text(table, 2)
    monkeypatch.setattr(cli, "_fmt_float", real)
    assert text == cli._json_text(_entries(table), 2)
    distinct = [np.unique(col.view(np.int64)) for col in table.columns()]
    assert [len(bits) for bits in distinct[:8]] == [1, 61, 1, 1, 1, 1, 1, 61]
    assert sorted(np.array(formatted).view(np.int64)) == sorted(np.concatenate(distinct))


GRID_ARGV = ["wigner", "--n", "4", "--lambda", "0.3", "--grid", "q1=-2:2:41", "--grid", "p3=-2:2:41"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_main_writes_the_run_document(fmt, tmp_path, capfdbinary):
    argv = [*GRID_ARGV, "--format", fmt]
    text, code = run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    assert len(text) > 2 * cli._WRITE_BYTES  # several writes
    assert main(argv) == code == EXIT_OK
    assert capfdbinary.readouterr().out == text.encode()
    out = tmp_path / f"grid.{fmt}"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert capfdbinary.readouterr().out == b""
    assert out.read_bytes() == text.encode()


def test_write_sends_whole_multiples_of_the_pipe_size():
    chunks = ["a" * 10, "b" * 70000, "c" * 5, "d" * 200000, "e" * 3]
    sink = cli._Chunks()
    cli._write(chunks, sink)
    assert "".join(sink) == "".join(chunks)
    assert [len(piece) for piece in sink] == [65536, 196608, 7874]


def test_main_wigner_numeric_failure_writes_nothing(monkeypatch, tmp_path, capsys):
    def failing(*args, **kwargs):
        raise NumericFailureError("solver broke down")

    monkeypatch.setattr(cli.ga, "wigner_values", failing)
    out = tmp_path / "grid.json"
    assert main(GRID_ARGV) == EXIT_NUMERIC
    assert main([*GRID_ARGV, "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "grid", [["q1=-2:2:1000000000000"], ["q1=-2:2:100000", "p1=-2:2:100000"]]
)
def test_main_oversize_grid_is_refused(grid, capsys):
    argv = ["wigner", "--n", "4"] + [f"--grid={axis}" for axis in grid]
    assert main(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("resource error: grid of ")


def test_grid_guard_counts_coordinates():
    n = 4096  # a wide grid row keeps the accepted grid at the guard small
    steps = cli.GRID_GUARD // n

    def grid(steps):
        return RunConfig(command="wigner", n=n, grid=[("p7", -1.0, 1.0, steps)])

    q, p = cli._wigner_points(grid(steps), n)
    assert q.shape == p.shape == (steps, n)
    assert p[-1, 6] == 1.0
    with pytest.raises(ResourceLimitError, match="over the guard"):
        cli._wigner_points(grid(steps + 1), n)


def _strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_floats_render_as_null():
    assert cli._fmt_float(math.nan) == "null"
    assert cli._fmt_float(math.inf) == "null"
    assert cli._fmt_float(-math.inf) == "null"
    assert cli._fmt_float(-0.0) == "-0"


def test_coupling_past_float_range_is_strict_json(capsys):
    # det N overflows the float range here; it is reported as null, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["coupling", "--n", "300", "--lambda", "20"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    results = _strict_json(captured.out)["results"]
    assert results["det_n"] is None
    assert results["det_lambda"] == 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ["wigner", "--n", "3", "--point", "inf,0,0:0,0,0"],
        ["wigner", "--n", "3", "--point", "0,0,0:0,nan,0"],
        ["wigner", "--n", "4", "--grid", "q1=-inf:0:3"],
        ["wigner", "--n", "4", "--grid", "p2=0:1e309:3"],
    ],
)
def test_main_non_finite_points_exit_usage(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # linspace over inf
        assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "phase point entries must be finite" in captured.err


@pytest.mark.parametrize("error", [NumericFailureError, TruncationError])
def test_main_numeric_failure_exit(error, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise error("solver broke down")

    monkeypatch.setattr(cli.nf, "normal_form", failing)
    assert main(["normal-form", "--n", "3", "--lambda", "0.2"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric error: solver broke down\n"


def test_main_truncation_in_fock_expansion_exit(monkeypatch, capsys):
    def truncated(state, space):
        raise TruncationError("cutoff too small")

    monkeypatch.setattr(fo, "two_photon_expand", truncated)
    assert main(["state", "--n", "2", "--lambda", "0.2", "--cutoff", "4"]) == EXIT_NUMERIC
    assert "cutoff too small" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n,point", [(3, "1e200,-1e200,0:0,0,0"), (4, "1e200,-1e200,0,0:0,0,0,0")]
)
def test_main_closed_wigner_past_float_range_is_zero(n, point, capsys):
    # inf - inf between overflowed terms of the closed form reads as 0, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wigner", "--n", str(n), "--lambda", "0.3", f"--point={point}"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    (entry,) = _strict_json(captured.out)["results"]["points"]
    assert entry["value"] == 0.0
    assert entry["value_closed"] == 0.0


@pytest.mark.parametrize(
    "flag,value",
    [("--lambda", "-1e-3"), ("--lambda", "-1.5e+00"), ("--point", "-1.2e-100,0,0,0:0,0,0,0")],
)
def test_main_negative_values_in_exponent_notation(flag, value, capsys):
    assert main(["wigner", "--n", "4", flag, value]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    config = json.loads(captured.out)["config"]
    if flag == "--lambda":
        assert config["lambda"] == float(value)
    else:
        assert config["points"][0]["q"][0] == -1.2e-100


def test_verify_calls_every_check_through_the_module(monkeypatch):
    """Wrappers set on the module after import see all 19 checks, as the
    benchmark's tracer relies on."""
    calls = []
    for attr, obj in list(vars(verification).items()):
        if attr.startswith(("check_", "probe_")) and callable(obj):

            def traced(*args, _fn=obj, **kwargs):
                record = _fn(*args, **kwargs)
                calls.append(record.name)
                return record

            monkeypatch.setattr(verification, attr, traced)
    report = verification.run_verification(seed=0)
    assert calls == [rec.name for rec in report.checks]
    assert len(calls) == len(set(calls)) == 19
