import csv
import io
import json
import math

import pytest

from nmodesqueeze import fockoracle as fo
from nmodesqueeze.cli import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    RunConfig,
    main,
    run,
)
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


def test_main_resource_guard_exit():
    assert main(["state", "--n", "4", "--lambda", "0.1", "--cutoff", "30"]) == EXIT_RESOURCE
