import csv
import functools
import hashlib
import io
import json
import math
import re
import sys
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmodesqueeze import cli, verification
from nmodesqueeze import coupling as cp
from nmodesqueeze import fockoracle as fo
from nmodesqueeze import gaussian as ga
from nmodesqueeze import normalform as nf
from nmodesqueeze import tables as tb
from nmodesqueeze import variances as va
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
from nmodesqueeze.errors import (
    MODE_GUARD,
    NumericFailureError,
    ResourceLimitError,
    TruncationError,
)
from nmodesqueeze.verification import run_verification

ROOT = Path(__file__).resolve().parent.parent
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


def test_main_baseline_non_finite_lambda(capsys):
    assert main(["baseline", "--lambda", "nan"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lambda must be finite, got nan\n"


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
    # the benchmark's verify job requires exactly these records in this order
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    timed = [
        m["name"][len("verification.") : -len(".self_s")]
        for m in benchmark["per_layer"]
        if re.fullmatch(r"verification\.\w+\.self_s", m["name"])
    ]
    doc, _ = verify_doc
    names = [c["name"] for c in doc["checks"]]
    assert len(names) == len(set(names))
    assert names == timed


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


def test_verify_cutoff_100_runs_assembly():
    """cutoff 100 at n = 2 is dim 10 201, 1.6 GB per dense matrix: the
    normal-form assembly check runs on a block of 15 columns and passes.
    The n = 3 configs exceed DIM_GUARD, so the run is still partial.  The
    block evolves in runs of a few columns, and the document's digest pins
    the bits of that path."""
    text, code = run(RunConfig(command="verify", cutoff=100))
    assert code == EXIT_RESOURCE
    if np.__version__ == PINNED_NUMPY:  # as in test_document_bytes_pinned
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "04546842f7e43b56523c6a12fb5ffcd806effaa50146f5e718758129fe287e99"
        )
    by_name = {c["name"]: c for c in json.loads(text)["checks"]}
    assembly = by_name["normal_form_assembly"]
    assert not assembly["skipped"] and assembly["pass"] is True
    assert assembly["inputs"]["cutoff"] == 100 and assembly["tol"] == 5e-6
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


def test_verify_overlap_fails_on_a_scaled_two_photon_state(monkeypatch):
    """An analytic state over unit norm puts its overlap with the evolved
    state over 1: a deficit below 0 that used to pass.  ``two_photon_expand``
    refuses a state whose norm does not match its spectrum, so the expanded
    amplitudes are scaled by 1.01 instead."""
    real = fo.two_photon_expand

    def scaled(state, space):
        psi = real(state, space)
        return psi._replace(amps=psi.amps * 1.01)

    monkeypatch.setattr(fo, "two_photon_expand", scaled)
    records = {rec.name: rec for rec in run_verification(seed=0).checks}
    for name in ("vacuum_overlap_n2", "vacuum_overlap_n3"):
        assert records[name].passed is False
        assert records[name].actual > records[name].tol


def test_verify_parity_record_keeps_its_tail_when_the_cutoff_is_too_small():
    (record,) = [
        rec for rec in run_verification(seed=0, cutoff=4).checks
        if rec.name == "wigner_parity_oracle"
    ]
    assert record.passed is False and math.isnan(record.actual)
    assert record.note == (
        "error: TruncationError('displaced state has 1.695e-05 mass"
        " on the cutoff shell at alpha row 0')"
    )
    assert record.ref == "W(alpha) = pi^-n <psi| D(alpha) (-1)^N D(alpha)~ |psi>"
    assert record.inputs == {"n": 3, "cutoff": 4, "lambda": 0.1, "points": 20, "|alpha| <=": 0.6}
    assert record.tol == verification.DEFAULT_TOLERANCES["wigner_oracle"]
    _, _, psi = verification._truncated_state(3, 4, 0.1)
    assert record.tail_mass == fo.tail_mass(psi) > 0


@pytest.mark.parametrize(
    "record",
    [RunConfig(command="verify"), verification.CheckRecord("x"), verification.VerifyReport(0)],
    ids=lambda record: type(record).__name__,
)
def test_records_are_named_tuples_with_read_only_fields(record):
    assert isinstance(record, tuple) and record._fields
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_blank_record_prints_empty_inputs():
    doc = cli._record_doc(verification.CheckRecord("x", skipped=True, note="skipped: guard"))
    assert doc["inputs"] == {} and doc["paper_ref"] == "" and doc["pass"] is None


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(command="wigner", n=3, lam=0.2, grid=None, points=None, tolerances=None),
        RunConfig(command="verify", grid=None, points=None, tolerances=None, fmt="csv"),
    ],
    ids=lambda config: config.command,
)
def test_run_config_reads_none_as_empty(config):
    empty = config._replace(grid=[], points=[], tolerances={})
    assert run(config) == run(empty)


def _nan_sum_identities(kernel):
    return math.nan, math.nan


def _nan_variances(n, lam):
    return types.SimpleNamespace(varX1=math.nan, varX2=math.nan)


def _nan_state(kernel):
    n = kernel.coupling.n
    return nf.baseline_two_mode(0.0)._replace(norm=math.nan, F=np.full((n, n), math.nan))


def _nan_normal_form(kernel, _real=nf.normal_form):
    form = _real(kernel)
    return form._replace(creMat=np.full_like(form.creMat, math.nan))


@functools.cache
def _nan_overlap_config(n, cutoff, lam):
    return math.nan, math.nan, math.nan


def _nan_wigner_value_alpha(wig, alpha, _real=ga.wigner_value_alpha):
    return _real(wig, alpha) * math.nan


# The twelve scored records that fold several errors into one actual, each
# with a route it reads, patched to give NaN.
NAN_ROUTES = {
    "variances_closed_form": (cp, "sum_identities", _nan_sum_identities),
    "uncertainty_product": (cp, "sum_identities", _nan_sum_identities),
    "gram_sum_identity": (cp, "sum_identities", _nan_sum_identities),
    "enhanced_squeezing": (va, "variances_matrix_sum", _nan_variances),
    "doubled_two_mode_reduction": (nf, "squeezed_vacuum", _nan_state),
    "cremat_tanh_identity": (nf, "normal_form", _nan_normal_form),
    "evolved_norm": (verification, "_overlap_config", _nan_overlap_config),
    "three_mode_state": (nf, "squeezed_vacuum", _nan_state),
    "four_mode_state": (nf, "squeezed_vacuum", _nan_state),
    "four_mode_ninv": (cp.SqueezeKernel, "detN", property(lambda kernel: math.nan)),
    "wigner_closed_vs_generic": (ga, "wigner_value_alpha", _nan_wigner_value_alpha),
    "wigner_origin": (ga, "wigner_value_alpha", _nan_wigner_value_alpha),
}


@pytest.mark.parametrize("name", sorted(NAN_ROUTES))
def test_verify_nan_error_fails_its_check(name, monkeypatch):
    """A NaN error is no error of 0: the record fails and reports NaN."""
    owner, attr, nan_route = NAN_ROUTES[name]
    monkeypatch.setattr(owner, attr, nan_route)
    (record,) = [rec for rec in run_verification(seed=0).checks if rec.name == name]
    assert record.passed is False
    assert math.isnan(record.actual)


def test_main_verify_nan_error_exits_failed(monkeypatch, capsys):
    monkeypatch.setattr(cp, "sum_identities", _nan_sum_identities)
    assert main(["verify"]) == EXIT_CHECK_FAILED
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["overall"] == "fail"
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["gram_sum_identity"]["actual"] is None
    assert by_name["gram_sum_identity"]["pass"] is False


# The records that sweep one kernel per (n, lambda) pair of their inputs.
SWEEP_RECORDS = (
    "variances_closed_form",
    "uncertainty_product",
    "gram_sum_identity",
    "doubled_two_mode_reduction",
    "cremat_tanh_identity",
    "three_mode_state",
    "four_mode_state",
    "four_mode_ninv",
    "wigner_origin",
)


def test_verify_sweep_inputs_name_the_kernels_built(monkeypatch):
    built = []
    real_build = cp.build_kernel

    def counting(coupling, lam):
        built.append((coupling.n, lam))
        return real_build(coupling, lam)

    monkeypatch.setattr(cp, "build_kernel", counting)
    pairs = {}
    for attr, obj in list(vars(verification).items()):
        if attr.startswith(("check_", "probe_")) and callable(obj):

            def traced(*args, _fn=obj, **kwargs):
                built.clear()
                record = _fn(*args, **kwargs)
                pairs[record.name] = list(built)
                return record

            monkeypatch.setattr(verification, attr, traced)
    records = {rec.name: rec for rec in run_verification(seed=0).checks}
    for name in SWEEP_RECORDS:
        inputs = records[name].inputs
        # a single-n sweep prints its lambdas alone
        ns = inputs["n"] if "n" in inputs else [pairs[name][0][0]]
        assert set(inputs) <= {"n", "lambda"}
        assert pairs[name] == [(n, lam) for n in ns for lam in inputs["lambda"]], name


# The kernel keeps no matrix function, so each read builds one: these are
# the builds each command makes, each kernel's functions read once.
MATRIX_FUNCTION_BUILDS = [
    (RunConfig(command="coupling", n=5, lam=0.3), 2),
    (RunConfig(command="normal-form", n=5, lam=0.3), 2),
    (RunConfig(command="state", n=5, lam=0.3), 2),
    (RunConfig(command="state", n=3, lam=0.3, cutoff=8), 2),
    (RunConfig(command="wigner", n=4, lam=0.3, grid=[("q1", -1.0, 1.0, 5)]), 0),
    (RunConfig(command="verify", seed=0), 444),
]


@pytest.mark.parametrize(
    "config, builds", MATRIX_FUNCTION_BUILDS,
    ids=["coupling", "normal-form", "state", "state-cutoff", "wigner", "verify"],
)
def test_matrix_functions_built_per_command(config, builds, monkeypatch):
    calls = []
    real = cp.matrix_function

    def counting(coupling, fn):
        calls.append(coupling.n)
        return real(coupling, fn)

    monkeypatch.setattr(cp, "matrix_function", counting)
    monkeypatch.setattr(nf, "matrix_function", counting)
    assert run(config)[1] == EXIT_OK
    assert len(calls) == builds


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
    assert main(["wigner", "--n", "2", "--grid", "q1=-1:1:2", "--grid", "q1=-1:1:2"]) == EXIT_USAGE
    assert main(["wigner", "--n", "2", "--grid", "p2=0:1:3", "--grid", "p02=-1:0:2"]) == EXIT_USAGE
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
        (["verify", "--seed", "-1"], "seed must be nonnegative, got -1"),
        (["wigner", "--n", "3", "--grid", "q1=0:1"], "--grid must look like AXIS=lo:hi:steps"),
        (["verify", "--tolerance", "cremat"], "--tolerance must look like NAME=VALUE"),
        (["wigner", "--n", "3", "--grid", "q1=0:1:3", "--point", "0,0,0:0,0,0"],
         "give either --point or --grid, not both"),
    ],
)
def test_main_bad_inputs_are_usage_errors(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_run_unknown_command_is_a_usage_error():
    with pytest.raises(cli.UsageError, match="^unknown command 'bogus'$"):
        run(RunConfig(command="bogus"))


def test_verify_overlap_alias_sets_both_overlap_tolerances():
    text, code = run(RunConfig(command="verify", tolerances={"overlap": 1e-3}))
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["config"]["tolerance"] == {"overlap": 0.001}
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["vacuum_overlap_n2"]["tol"] == by_name["vacuum_overlap_n3"]["tol"] == 0.001


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["coupling", "--n", "2", "--tolerance", "bogus=1", "--seed", "5", "--cutoff", "3",
          "--point", "1,2:3,4"], "--cutoff"),
        (["coupling", "--n", "2", "--tolerance", "variance=1"], "--tolerance"),
        (["wigner", "--n", "2", "--tolerance", "variance=1"], "--tolerance"),
        (["variances", "--n", "2", "--seed", "5"], "--seed"),
        (["state", "--n", "2", "--cutoff", "3", "--seed", "0"], "--seed"),
        (["normal-form", "--n", "2", "--cutoff", "0"], "--cutoff"),
        (["wigner", "--n", "2", "--cutoff", "3"], "--cutoff"),
        (["baseline", "--lambda", "0.3", "--point", "1:2"], "--point"),
        (["verify", "--point", "0,0:0,0"], "--point"),
        (["state", "--n", "2", "--grid", "q1=0:1:2"], "--grid"),
        (["verify", "--grid", "q1=0:1:2", "--format", "csv"], "--grid"),
        (["baseline", "--n", "7", "--lambda", "0.3"], "--n"),
        (["verify", "--n", "5"], "--n"),
    ],
)
def test_main_flag_the_command_does_not_read_is_a_usage_error(argv, flag, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: command {argv[0]!r} does not read {flag}\n"


# Which command reads which of the six command-specific flags, written out
# by hand: True is read, False is a usage error naming the flag.
FLAG_VALUES = {
    "--n": "2", "--cutoff": "3", "--seed": "3", "--tolerance": "variance=1",
    "--grid": "q1=0:1:2", "--point": "0,0:0,0",
}
FLAG_MATRIX = {
    #               --n    --cutoff --seed  --tolerance --grid --point
    "coupling":    (True,  False,   False,  False,      False, False),
    "variances":   (True,  False,   False,  False,      False, False),
    "normal-form": (True,  False,   False,  False,      False, False),
    "state":       (True,  True,    False,  False,      False, False),
    "wigner":      (True,  False,   False,  False,      True,  True),
    "verify":      (False, True,    True,   True,       False, False),
    "baseline":    (False, False,   False,  False,      False, False),
}


@pytest.mark.parametrize(
    "command, flag, read",
    [
        pytest.param(command, flag, read, id=f"{command}-{flag[2:]}")
        for command, row in FLAG_MATRIX.items()
        for flag, read in zip(FLAG_VALUES, row)
    ],
)
def test_main_flag_matrix(command, flag, read, capsys):
    # a command that reads --n gets one, so the argv is valid without the flag
    needs_n = FLAG_MATRIX[command][0] and flag != "--n"
    argv = [command, *(["--n", "2"] if needs_n else []), flag, FLAG_VALUES[flag]]
    code = main(argv)
    captured = capsys.readouterr()
    if read:
        assert code != EXIT_USAGE and captured.err == ""
    else:
        assert code == EXIT_USAGE and captured.out == ""
        assert captured.err == f"error: command {command!r} does not read {flag}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["baseline", "--point", "0,0:0,0", "--grid", "q1=0:1:2", "--tolerance", "variance=1",
          "--seed", "3", "--cutoff", "3", "--n", "2"], "--n"),
        (["wigner", "--point", "0,0:0,0", "--tolerance", "variance=1", "--seed", "3",
          "--n", "2"], "--seed"),
        (["verify", "--point", "0,0:0,0", "--grid", "q1=0:1:2", "--seed", "3"], "--grid"),
    ],
)
def test_main_first_unread_flag_is_named(argv, flag, capsys):
    # flags are checked in the order --n, --cutoff, --seed, --tolerance,
    # --grid, --point, whatever their order on the command line
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: command {argv[0]!r} does not read {flag}\n"


# --lambda at the edges of the accepted range, |lambda| <= 20, and past them.
EDGE_LAMBDAS = [
    5e-324, -5e-324, 20.0, -20.0, math.nextafter(20.0, math.inf),
    math.nextafter(-20.0, -math.inf), math.nan, math.inf, -math.inf,
]
WIDE_Q = -1.2345678901234567e-100  # renders as 24 characters
WIDE_P = -9.9999999999999997e199  # renders as 24 characters
# --point entries at the edges of the float range and of the text width
EDGE_ENTRIES = [5e-324, -5e-324, 1e308, -1e308, WIDE_Q, WIDE_P]


@st.composite
def command_lines(draw):
    """A command line over the accepted input range and just past it, verify
    drawn at one in thirteen: a flag of --n, --cutoff and one --grid axis is
    given at nine in ten when the command reads it, else at one in ten; a
    --point comes in place of the grid at one in two.  n is at most 5 at one
    in two.  A state draw takes n <= 3 at three in four, and then leaves
    the cutoff out at one in two, else draws it <= 6, so that some of its
    runs exit 0 both with --cutoff (under the dim guard) and without."""
    others = [name for name in cli.COMMANDS if name != "verify"]
    command = draw(st.sampled_from([*others, *others, "verify"]))
    reads = cli.COMMANDS[command][0]

    def present(flag):
        return draw(st.sampled_from([flag in reads] * 9 + [flag not in reads]))

    lam = draw(st.floats(-20.0, 20.0) | st.floats(-20.0, 20.0) | st.sampled_from(EDGE_LAMBDAS))
    argv = [command, f"--lambda={lam!r}", f"--format={draw(st.sampled_from(['json', 'csv']))}"]
    small = command == "state" and draw(st.integers(0, 3)) > 0
    n = draw(st.integers(2, 3) if small else st.integers(-1, 64) | st.integers(-1, 5))
    if present("--n"):
        argv.append(f"--n={n}")
    if present("--cutoff") and not (small and draw(st.booleans())):
        cutoff = st.integers(0, 6) if small else st.integers(-1, 12) | st.just(450)
        argv.append(f"--cutoff={draw(cutoff)}")
    if present("--point") and draw(st.booleans()):
        entry = st.floats(-30.0, 30.0) | st.sampled_from(EDGE_ENTRIES)
        for _ in range(draw(st.integers(1, 2))):
            # n entries a side, or at one in ten any count up to n + 1
            sizes = st.just(max(n, 0)) if draw(st.integers(0, 9)) else st.integers(0, max(n, 0) + 1)
            q, p = (draw(st.lists(entry, min_size=k, max_size=k)) for k in [draw(sizes), draw(sizes)])
            argv.append(f"--point={','.join(map(repr, q))}:{','.join(map(repr, p))}")
    elif present("--grid"):
        axis = draw(st.sampled_from("qp")) + str(draw(st.integers(0, 9) | st.integers(0, 65)))
        lo, hi = (draw(st.floats(-1e3, 1e3) | st.floats()) for _ in range(2))
        argv.append(f"--grid={axis}={lo!r}:{hi!r}:{draw(st.integers(0, 40))}")
    return argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=command_lines())
# Runs the draws may miss: states with a Fock expansion, from a nearly
# complete one to one whose every amplitude underflows, and a prefactor at
# the lambda guard.
@example(argv=["state", "--lambda=0.5", "--format=json", "--n=3", "--cutoff=6"])
@example(argv=["state", "--lambda=-1.5", "--format=json", "--n=2", "--cutoff=12"])
@example(argv=["state", "--lambda=0.1", "--format=json", "--n=5", "--cutoff=3"])
@example(argv=["state", "--lambda=20.0", "--format=json", "--n=4", "--cutoff=2"])
@example(argv=["state", "--lambda=20.0", "--format=json", "--n=64", "--cutoff=0"])
@example(argv=["normal-form", "--lambda=-20.0", "--format=json", "--n=5"])
def test_main_output_contract_property(argv):
    """Every exit code is one main states; a document and an error line never
    mix, bar verify's partial report, and no run warns.  A JSON document
    holds Wigner values in [0, pi^-n], the variance product 1/16, and a
    normal-form prefactor, a state norm and a Fock tail mass in [0, 1].
    With --cutoff, the mass S of the m printed amplitudes, summed in order,
    is at most 1 + 2 m eps and within 2 m eps of 1 - tail mass: the
    recursive-summation bound (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sec. 4.2)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    verify = argv[0] == "verify"
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_RESOURCE, EXIT_NUMERIC) or (
        verify and code == EXIT_CHECK_FAILED
    )
    if code in (EXIT_USAGE, EXIT_NUMERIC) or code == EXIT_RESOURCE and not verify:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
    else:
        assert out.endswith("\n") and err == ""
        if "--format=json" in argv:
            doc = _strict_json(out)
            results = doc["results"]
            if argv[0] == "wigner":
                peak = math.pi ** -doc["config"]["n"]
                values = [point.get(key, 0.0) for point in results["points"]
                          for key in ["value", "value_closed"]]
                assert all(v is not None and 0.0 <= v <= peak for v in values), values
            elif argv[0] == "variances":
                assert abs(results["product_matrix_sum"] - 1 / 16) <= 1e-12
            elif argv[0] == "normal-form":
                assert _in_unit_interval(results["prefactor"]), results["prefactor"]
            elif argv[0] == "state":
                assert _in_unit_interval(results["norm"]), results["norm"]
                if "fock" in results:
                    _assert_fock_mass(results["fock"])


def _in_unit_interval(value) -> bool:
    return value is not None and 0.0 <= value <= 1.0


def _assert_fock_mass(fock: dict) -> None:
    """The printed amplitudes hold 1 - tail mass, to the rounding of their
    sum of squares."""
    tail, amplitudes = fock["tail_mass"], fock["amplitudes"]
    assert _in_unit_interval(tail), tail
    bound = 2 * len(amplitudes) * sys.float_info.epsilon
    mass = 0.0
    for amp in amplitudes:
        mass += amp["re"] ** 2 + amp["im"] ** 2
    assert mass <= 1.0 + bound, (mass, bound)
    assert abs(math.fsum([mass, tail, -1.0])) <= bound, (mass, tail, bound)


# A JSON string, or a number, null, true or false as a document writes them.
JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|[-+.\w]+')


def _json_number_texts(text: str) -> list[str]:
    """The sorted texts of the numbers, nulls and booleans in a JSON
    document's results, less a wigner run's grid, which its CSV leaves out."""
    results = text[text.index('"results": '):text.index(',\n  "checks": ')]
    results = results.split(',\n    "grid": ')[0]
    return sorted(token for token in JSON_TOKEN.findall(results) if not token.startswith('"'))


def _csv_value_cells(text: str) -> list[str]:
    """The sorted value cells of a CSV document: the value column of the
    one-row-per-leaf layout, or every cell below the header of a points
    table."""
    header, *rows = csv.reader(io.StringIO(text))
    if header == ["name", "value"]:
        return sorted(value for _, value in rows)
    return sorted(cell for row in rows for cell in row)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=command_lines())
def test_json_and_csv_carry_the_same_number_texts_property(argv):
    """A run other than verify that exits 0 writes the same number texts in
    its JSON results as in its CSV value cells, as many times each."""
    argv = [arg for arg in argv if not arg.startswith("--format=")]
    documents = {}
    for fmt in ["json", "csv"]:
        out = io.StringIO()
        with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", io.StringIO()):
            code = main([*argv, f"--format={fmt}"])
        if argv[0] == "verify" or code != EXIT_OK:
            return
        documents[fmt] = out.getvalue()
    assert _json_number_texts(documents["json"]) == _csv_value_cells(documents["csv"])


def test_negative_seed_is_refused_before_any_draw(monkeypatch):
    def no_generator(seed):
        raise AssertionError(f"a generator was built from seed {seed}")

    monkeypatch.setattr(verification.random, "Random", no_generator)
    with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
        run_verification(seed=-1)


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


def _entries(table) -> list:
    """The rows of the same arrays as lists and dicts of Python floats, as
    the document used to hold them."""
    entries = []
    for k in range(table.size):
        row = {
            name: [float(v) for v in values[k]] if values.ndim == 2 else float(values[k])
            for name, values in table.fields.items()
        }
        entries.append(row[None] if None in row else row)
    return entries


def _as_lists(obj):
    """obj with each Table in it replaced by ``_entries`` of it."""
    if isinstance(obj, tb.Table):
        return _entries(obj)
    if isinstance(obj, dict):
        return {key: _as_lists(val) for key, val in obj.items()}
    return obj


def _csv_oracle(results: dict) -> str:
    """The CSV of results with its Tables as lists and dicts, written row by
    row with csv.writer: one row per point for a Table at "points", else
    one row per leaf of ``_flatten``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    lists = _as_lists(results)
    if isinstance(results.get("points"), tb.Table):
        header = []
        for key, val in lists["points"][0].items():
            header += [f"{key}{c + 1}" for c in range(len(val))] if isinstance(val, list) else [key]
        writer.writerow(header)
        for entry in lists["points"]:
            cells = [v for val in entry.values() for v in (val if isinstance(val, list) else [val])]
            writer.writerow([cli._fmt_float(v) for v in cells])
    else:
        writer.writerow(["name", "value"])
        for name, value in tb._flatten(lists):
            writer.writerow([name, tb._scalar_csv(value)])
    return buf.getvalue()


@pytest.mark.parametrize("config", LAYOUT_CONFIGS, ids=lambda c: f"n{c.n}")
def test_points_rendering_matches_per_point_dicts(config, monkeypatch):
    text, code = run(config)
    csv_text, csv_code = run(config._replace(fmt="csv"))
    table = tb._results_wigner(config).results["points"]
    reads, build = cli.COMMANDS["wigner"]

    def per_point(cfg):
        outcome = build(cfg)
        outcome.results["points"] = _entries(outcome.results["points"])
        return outcome

    monkeypatch.setitem(cli.COMMANDS, "wigner", (reads, per_point))
    reference, _ = run(config)
    assert code == csv_code == EXIT_OK
    assert text == reference
    assert csv_text == _csv_oracle({"points": table})
    assert len(json.loads(text)["results"]["points"]) == table.size


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
    real_closed = ga.wigner4_closed

    def closed_with_nan(lam, alpha):
        values = real_closed(lam, alpha)
        values[[0, 2]] = math.nan
        return values

    monkeypatch.setattr(ga, "wigner4_closed", closed_with_nan)
    points = json.loads(run(config)[0])["results"]["points"]
    assert points[0]["value_closed"] is None and points[2]["value_closed"] is None
    assert points[3]["value_closed"] > 0.0


# Values the property below draws table entries from: signed zeros, NaN,
# infinities, subnormals, the ends of the float range, 24-character texts
# and one-character ones.
TABLE_VALUES = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300,
    -1e-300, WIDE_Q, WIDE_P, 0.5, -1.25, 0.1, 2.0 / 3.0, 1.0,
]


@st.composite
def tables(draw):
    """A matrix of 1-12 columns, or rows of 1-3 fields, each a column or a
    group of 1-6 columns; 0-40 rows."""
    m = draw(st.integers(0, 40))
    # one-character values only, at times, so rows of up to 7 can share a line
    value = st.sampled_from(draw(st.sampled_from([TABLE_VALUES, [0.0, 1.0]])))

    def column():
        if draw(st.booleans()):  # one text down the whole column
            return np.full(m, draw(value))
        return np.array(draw(st.lists(value, min_size=m, max_size=m)))

    def group(k):
        return np.column_stack([column() for _ in range(k)])

    if draw(st.booleans()):
        return tb.Table({None: group(draw(st.integers(1, 12)))})
    fields = {}
    for name in ["q", "p", "value"][: draw(st.integers(1, 3))]:
        k = draw(st.integers(0, 6))
        fields[name] = group(k) if k else column()
    return tb.Table(fields)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    table=tables(),
    indent=st.integers(0, 3),
    block_rows=st.sampled_from([1, 2, 7, 1024]),
    block_cells=st.sampled_from([1, 7, 1 << 16]),
)
def test_table_renderer_matches_row_lists_property(table, indent, block_rows, block_cells):
    entries = _entries(table)
    leaves = {"before": 0.5, "t": table, "after": [1.0, -0.0]}
    with mock.patch.multiple(tb, _BLOCK_ROWS=block_rows, _BLOCK_CELLS=block_cells):
        text = cli._json_text(table, indent)
        leaf_csv = "".join(tb._csv_pieces({"results": leaves}))
        point_csv = "".join(tb._csv_pieces({"results": {"points": table}}))
    assert text == cli._json_text(entries, indent)
    assert leaf_csv == _csv_oracle(leaves)
    # a matrix is never a points table, and a grid has at least one point
    if None not in table.fields and table.size:
        assert point_csv == _csv_oracle({"points": table})


def _tables(results: dict) -> list:
    return [
        table
        for value in results.values()
        for table in ([value] if isinstance(value, tb.Table) else
                      _tables(value) if isinstance(value, dict) else [])
    ]


FORMAT_ONCE_CONFIGS = [
    RunConfig(command="wigner", n=4, lam=0.3, grid=[("q2", -2.0, 2.0, 61), ("p4", -1.5, 1.5, 61)]),
    RunConfig(command="normal-form", n=64, lam=-7.0),
    # n >= 8, so no matrix takes the one-line path, which formats entry by entry
    RunConfig(command="state", n=8, lam=0.5, cutoff=2),
]


def _field_patterns(values) -> np.ndarray:
    """The bit patterns a field formats: each distinct one of its varying
    columns once, and one per column whose rows all hold one value."""
    bits = np.asarray(values, dtype=float).view(np.int64).reshape(len(values), -1)
    pinned = (bits == bits[:1]).all(axis=0)
    return np.concatenate([np.unique(bits[:, ~pinned]), bits[0, pinned]])


def _counting_formats(monkeypatch) -> list:
    """Patch ``tb._fmt_floats`` to record a copy of each array it formats."""
    formatted, real = [], tb._fmt_floats

    def counting(values):
        formatted.append(values.copy())
        return real(values)

    monkeypatch.setattr(tb, "_fmt_floats", counting)
    return formatted


@pytest.mark.parametrize("config", FORMAT_ONCE_CONFIGS, ids=lambda c: c.command)
def test_tables_format_each_distinct_pattern_once(config, monkeypatch):
    results = cli.COMMANDS[config.command][1](config).results
    tables = _tables(results)
    distinct = [_field_patterns(values) for table in tables for values in table.fields.values()]
    # the one-row-per-leaf layout also formats each table's row numbers
    indices = [np.arange(table.size, dtype=float).view(np.int64) for table in tables]
    if config.command == "wigner":
        # q and p each hold one gridded column of 61 values and three pinned at 0
        assert [len(bits) for bits in distinct[:2]] == [61 + 3, 61 + 3]
        indices = []
    for render, reference, expected in [
        (
            lambda: cli._json_text(results, 2),
            lambda: cli._json_text(_as_lists(results), 2),
            distinct,
        ),
        (
            lambda: "".join(tb._csv_pieces({"results": results})),
            lambda: _csv_oracle(results),
            distinct + indices,
        ),
    ]:
        with monkeypatch.context() as patch:
            formatted = _counting_formats(patch)
            text = render()
        assert text == reference()
        if config.command == "wigner":  # the value columns are formatted block by block
            assert len(formatted) > len(distinct)
        assert sorted(np.concatenate(formatted).view(np.int64)) == sorted(np.concatenate(expected))


def test_circulant_blocks_format_each_distinct_entry_once(monkeypatch):
    # each block is a symmetric circulant: its 64 x 64 entries take at most
    # 64 // 2 + 1 = 33 values, and a column holds every one of them
    results = tb._results_normal_form(RunConfig(command="normal-form", n=64, lam=-7.0)).results
    for name in ["cre_mat", "cross_mat", "ann_mat"]:
        with monkeypatch.context() as patch:
            formatted = _counting_formats(patch)
            cli._json_text(results[name], 2)
        assert 0 < sum(values.size for values in formatted) <= 33, name


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_main_writes_before_the_last_block_is_formatted(fmt, monkeypatch):
    events, written = [], []
    real = tb._row_blocks

    def rendering(parts, rows):
        for block in real(parts, rows):
            events.append(("block", block[0]))
            yield block

    class Stdout:
        def write(self, text):
            events.append(("write", len(text)))
            written.append(text)

        def flush(self):
            pass

    argv = [*GRID_ARGV, "--format", fmt]
    text, _ = run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    monkeypatch.setattr(tb, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(tb, "_row_blocks", rendering)
    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(argv) == EXIT_OK
    assert "".join(written) == text
    blocks = [event for event in events if event[0] == "block"]
    assert len(blocks) == math.ceil(41 * 41 / 64)
    first_write = next(k for k, event in enumerate(events) if event[0] == "write")
    assert first_write < events.index(blocks[-1])
    assert events[first_write][1] % cli._WRITE_BYTES == 0


def test_write_sends_whole_multiples_of_the_pipe_size():
    chunks = ["a" * 10, "b" * 70000, "c" * 5, "d" * 200000, "e" * 3]

    class Sink(list):
        write = list.append

    sink = Sink()
    cli._write(chunks, sink)
    assert "".join(sink) == "".join(chunks)
    assert [len(piece) for piece in sink] == [65536, 196608, 7874]


def test_main_wigner_numeric_failure_writes_nothing(monkeypatch, tmp_path, capsys):
    def failing(*args, **kwargs):
        raise NumericFailureError("solver broke down")

    monkeypatch.setattr(ga, "wigner_values", failing)
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
    steps = tb.GRID_GUARD // n

    def grid(steps):
        return RunConfig(command="wigner", n=n, grid=[("p7", -1.0, 1.0, steps)])

    q, p = tb._wigner_points(grid(steps), n)
    assert q.shape == p.shape == (steps, n)
    assert p[-1, 6] == 1.0
    with pytest.raises(ResourceLimitError, match="over the guard"):
        tb._wigner_points(grid(steps + 1), n)


def test_main_grid_span_past_float_range_is_refused(capsys):
    # hi - lo overflows: refused before np.linspace warns on the way to inf
    assert main(["wigner", "--n", "3", "--grid", "q1=-1e308:1e308:3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: grid axis q1 spans -1e+308:1e+308;")


@pytest.mark.parametrize("command", ["coupling", "normal-form", "state", "wigner"])
def test_dense_guard_counts_matrix_entries(command, monkeypatch):
    # The boundary without building anything: a config the guard lets
    # through reaches build_coupling, which stops it.
    class Reached(Exception):
        pass

    def stop(n):
        raise Reached(n)

    monkeypatch.setattr(cp, "build_coupling", stop)
    results = getattr(tb, f"_results_{command.replace('-', '_')}")
    largest = math.isqrt(tb.DENSE_GUARD)
    with pytest.raises(Reached):
        results(RunConfig(command=command, n=largest))
    with pytest.raises(ResourceLimitError, match="over the guard"):
        results(RunConfig(command=command, n=largest + 1))


DENSE_GUARD_REFUSALS = [
    (
        ["coupling", "--n", "100000"],
        "n=100000 needs 100000x100000 matrices of 10000000000 entries, over the guard of 2097152",
    ),
    (
        ["normal-form", "--n", "60000"],
        "n=60000 needs 60000x60000 matrices of 3600000000 entries, over the guard of 2097152",
    ),
    (
        ["state", "--n", "60000", "--cutoff", "2"],
        "n=60000 needs 60000x60000 matrices of 3600000000 entries, over the guard of 2097152",
    ),
    (["wigner", "--n", "60000"], "n=60000 is over the guard of 1448 modes"),
    (["wigner", "--n", "60000", "--grid", "q1=-1:1:3"], "n=60000 is over the guard of 1448 modes"),
    (
        ["state", "--n", "1449"],
        "n=1449 needs 1449x1449 matrices of 2099601 entries, over the guard of 2097152",
    ),
    # wigner builds no n x n matrix, so its refusal names only the cap on n
    (["wigner", "--n", "1449"], "n=1449 is over the guard of 1448 modes"),
]


@pytest.mark.parametrize(
    "argv, message",
    [pytest.param(*case, id=f"argv{k}") for k, case in enumerate(DENSE_GUARD_REFUSALS)],
)
def test_main_dense_guard_exit(argv, message, capsys):
    assert main(argv) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource error: {message}\n"


def test_variances_is_not_dense_guarded(capsys):
    n = math.isqrt(tb.DENSE_GUARD) + 1
    assert main(["variances", "--n", str(n), "--lambda", "0.5"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["matrix_sum"]["var_x1"] == pytest.approx(math.exp(-2.0) / 4, rel=1e-10)


@pytest.mark.parametrize("n", [10**10, MODE_GUARD], ids=["1e10", "guard"])
def test_main_variances_at_huge_n(n, capsys):
    assert main(["variances", "--n", str(n), "--lambda", "20"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    results = _strict_json(captured.out)["results"]
    assert results["product_matrix_sum"] == pytest.approx(1.0 / 16.0, abs=1e-12)
    for key, closed in results["closed"].items():
        assert results["matrix_sum"][key] == pytest.approx(closed, rel=1e-15)


PAST_THE_GUARD = (
    "need at most 3.244569e+273 modes, so that n exp(4 * 20) is a finite float, got n of about "
)


@pytest.mark.parametrize(
    "n, message",
    [
        (1, "need at least 2 modes, got n=1"),
        # n exp(80) would overflow, and 10^400 has no float at all
        (MODE_GUARD + 1, PAST_THE_GUARD + "1e273.5"),
        (10**400, PAST_THE_GUARD + "1e400.0"),
    ],
    ids=["1", "guard+1", "1e400"],
)
def test_main_variances_outside_the_mode_range(n, message, capsys):
    assert main(["variances", "--n", str(n), "--lambda", "0.3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _strict_json(text: str) -> dict:
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


# sha256 of whole documents as numpy 2.4.6 renders them: a change
# that moves one byte of them changes what the commands print.  Another
# numpy may round a last bit differently, so there the pin is skipped.
PINNED_NUMPY = "2.4.6"
VARIANCES = {"command": "variances", "n": 5, "lam": 0.37}
COUPLING = {"command": "coupling", "n": 5, "lam": 0.3}
NORMAL_FORM = {"command": "normal-form", "n": 4, "lam": 0.3}
STATE = {"command": "state", "n": 3, "lam": 0.3, "cutoff": 8}
BASELINE = {"command": "baseline", "lam": 0.6}
COUPLING_N8 = {"command": "coupling", "n": 8, "lam": 0.0}
NORMAL_FORM_SUBNORMAL = {"command": "normal-form", "n": 8, "lam": 1e-320}
STATE_N8_CUTOFF1 = {"command": "state", "n": 8, "lam": -20.0, "cutoff": 1}
STATE_N3_CUTOFF12 = {"command": "state", "n": 3, "lam": 0.5, "cutoff": 12}
NORMAL_FORM_N64 = {"command": "normal-form", "n": 64, "lam": -7.0}
STATE_NO_AMPLITUDES = {"command": "state", "n": 64, "lam": 20.0, "cutoff": 0}
PINNED_DOCUMENTS = [
    pytest.param(
        RunConfig(command="verify", seed=0),
        "0f0aee1b5a3165bbd241941c3f0da853606906fb61325d56418462580b448324",
        id="verify-seed0",
    ),
    pytest.param(
        RunConfig(command="verify", seed=7),
        "7adc1e13a9d51ba16bc8df03eff1c2c680b5ad13bdc5e90d8db3b6be89aca8b9",
        id="verify-seed7",
    ),
    pytest.param(
        RunConfig(
            command="wigner", n=4, lam=0.3, grid=[("q1", -2.0, 2.0, 201), ("p2", -2.0, 2.0, 201)]
        ),
        "6c713989dc5bb967d27bd31742bf6d47b79d7121ad5271a979c218e1b72aecdd",
        id="wigner-n4-201x201",
    ),
    *(
        pytest.param(RunConfig(**config, fmt=fmt), digest, id=f"{name}-{fmt}")
        for name, config, fmt, digest in [
            ("verify-seed0", {"command": "verify", "seed": 0}, "csv",
             "4d94979421db57def847a321078211a823913ea866a3111c8398135c117d8f58"),
            ("verify-seed7", {"command": "verify", "seed": 7}, "csv",
             "1fea3ddf3386298e74db234aee86db588aaad11805efb8c67c6cc48610d881c0"),
            ("variances", VARIANCES, "json",
             "a6068e892569cf2cfa42e1630c2c5b8daf48d755585d7d4db3547ea21aa2a681"),
            ("variances", VARIANCES, "csv",
             "7c6af4ff516b091c0de300a9d9518566e491f5a30d0a8f90862d46897be73e30"),
            ("coupling", COUPLING, "json",
             "ac7669445f42d1086d5695ad80a64bb62c5a391b82cd964e456138347974d518"),
            ("coupling", COUPLING, "csv",
             "fd37147a11d54a7b64297a6452ac13e52e184430f69f2b199fabf5bfcedd9dd7"),
            ("normal-form", NORMAL_FORM, "json",
             "2eeb5e9e6bbc3c0ce871fb792ba14f196556f9c6672178b0f934219f6b70750b"),
            ("normal-form", NORMAL_FORM, "csv",
             "638f56dfc93b4210cb36547b9b0ed608db42fc5930039de5b2a741aa3d6d7e98"),
            ("state", STATE, "json",
             "37ecc1c31d79ac2444e86359e5fe0f3be322da496ad219b5b9e2bdbf7442d1e7"),
            ("state", STATE, "csv",
             "dd0efc70a72d8e9824efbe40864db3defb267375ad32d17e2784f7b9aa3f4a63"),
            ("baseline", BASELINE, "json",
             "b8057d0827073f1e996d1b33a6348bcb55bb6d694f129b7c617fc107eb7f764b"),
            ("baseline", BASELINE, "csv",
             "28727eebba97ceef67a888000f69678de66f3c6dabf24cdc56a87c8d33ebffcc"),
            # n >= 8 renders a matrix row past the inline list of seven or
            # fewer entries, and entries of 24 characters take a wide row.
            ("coupling-n8", COUPLING_N8, "json",
             "4bf18a098231c183d27989228c33147e22c1642933ed5bb1061cf2071a4bacfd"),
            ("coupling-n8", COUPLING_N8, "csv",
             "2b3f0d3184b1d2cf442251970642bf6fa819dd7631e97175b50b59947f8bd6ae"),
            ("normal-form-subnormal", NORMAL_FORM_SUBNORMAL, "json",
             "a933784c776e5f6f75393702985a32c8bed9f35f77d24db3738169c680f2869b"),
            ("normal-form-subnormal", NORMAL_FORM_SUBNORMAL, "csv",
             "42398e0342cd40bbffab1bf64422d8fc0b9b7e67226fa4cb84d08371b7fb0c5c"),
            ("state-n8-cutoff1", STATE_N8_CUTOFF1, "json",
             "34c5048465a1f319a260658d7fdbd72014009e80759883beaeb53be508d72159"),
            ("state-n8-cutoff1", STATE_N8_CUTOFF1, "csv",
             "580fa55f2a827aa24ee53f56a54800eaef3869a2277130eff447f39b33d8d83a"),
            ("state-n3-cutoff12", STATE_N3_CUTOFF12, "json",
             "a486ebe708119f36997793e1638622d5eb1236fafa92648c457d397f8f56da79"),
            ("state-n3-cutoff12", STATE_N3_CUTOFF12, "csv",
             "b5955b4a4dd967c32af8e32e2e2823ed948b2a359d9f0cc7cc617b7b9ac9e230"),
            ("normal-form-n64", NORMAL_FORM_N64, "json",
             "d6ce9d4cee508afb276854b6bb8bb36685891f76a587695a227b58129638f15d"),
            ("normal-form-n64", NORMAL_FORM_N64, "csv",
             "05cc634090158f65a67bc38ed6e3b3f7b1dc0b28e983f119d4b08de840bc0f11"),
            # the prefactor underflows to 0, so no amplitude is nonzero
            ("state-no-amplitudes", STATE_NO_AMPLITUDES, "json",
             "4a71d71c52758a21a8451fe8a11369b682196d6898ea521bc5e2e1ef587f3b29"),
            ("state-no-amplitudes", STATE_NO_AMPLITUDES, "csv",
             "58ad2ce59298edfb5b2b21e002a62c3377c522924870f7783656bbe09df10fc9"),
        ]
    ),
]


@pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests pinned under numpy {PINNED_NUMPY}, running numpy {np.__version__}",
)
@pytest.mark.parametrize("config, digest", PINNED_DOCUMENTS)
def test_document_bytes_pinned(config, digest):
    text, code = run(config)
    assert code == EXIT_OK
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_non_finite_floats_render_as_null():
    assert cli._fmt_float(math.nan) == "null"
    assert cli._fmt_float(math.inf) == "null"
    assert cli._fmt_float(-math.inf) == "null"
    assert cli._fmt_float(-0.0) == "-0"


def test_main_wigner_squeezed_direction_at_large_lambda(capsys):
    # p along the all-ones mode, the most squeezed: the exponent is
    # 9 exp(-60), so the value is pi^-9, with nothing on stderr
    zeros, ones = ",".join(["0"] * 9), ",".join(["1"] * 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["wigner", "--n", "9", "--lambda", "15", f"--point={zeros}:{ones}"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    value = _strict_json(captured.out)["results"]["points"][0]["value"]
    assert value == math.pi**-9 == 3.3546803572088706e-05


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

    monkeypatch.setattr(nf, "normal_form", failing)
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


@pytest.mark.parametrize("q1", ["26", "26.5", "27", "27.2"])
@pytest.mark.parametrize("n", [3, 4])
def test_main_closed_wigner_below_the_floor_is_zero(n, q1, capsys):
    # log W passes LOG_FLOOR = -700 between q1 = 26 and 26.5 at lambda = 0:
    # below it both forms print exactly 0, above it the same value
    point = ",".join([q1] + ["0"] * (n - 1)) + ":" + ",".join(["0"] * n)
    assert main(["wigner", "--n", str(n), f"--point={point}"]) == EXIT_OK
    (entry,) = _strict_json(capsys.readouterr().out)["results"]["points"]
    assert entry["value_closed"] == entry["value"]
    assert (entry["value"] == 0.0) == (q1 != "26")


def test_help_lists_each_command_with_its_flags(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    lines = text.splitlines()
    for command, (reads, _) in cli.COMMANDS.items():
        (line,) = [line for line in lines if line.split()[:1] == [command]]
        assert line.split()[1:] == (list(reads) or ["none"])
    assert "os._exit" not in text and "64 KiB" not in text
    assert len(lines) < 47


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
