"""What importing the package costs: importing the cli and running
variances or baseline load no numpy at all, the Fock oracle loads only
when a command needs it, no command loads scipy, numpy.random or
numpy.polynomial, importing the cli loads no package
module but errors, each command loads only the package modules and the
parts of numpy and the stdlib it reads, normalform and gaussian import
neither each other nor more than they read, and every re-exported name
resolves on first use.  Two fresh verify processes print the same bytes."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nmodesqueeze
from nmodesqueeze import fockoracle

ROOT = Path(__file__).resolve().parent.parent
# A top-level name here also covers its submodules ("scipy" covers "scipy.sparse");
# a dotted name is listed alone, and loading any of its submodules loads it too.
# numpy.random (which pulls in secrets and _hashlib) and numpy.polynomial add
# import time and peak RSS to a cold start, and no command needs either:
# verify draws from the stdlib random.Random and takes its Gauss-Hermite
# rule from gaussian.
HEAVY = (
    "scipy",
    "numpy.polynomial",
    "numpy.random",
    "nmodesqueeze.fockoracle",
    "nmodesqueeze.verification",
)
# Loaded only by the commands that read them: gaussian by wigner and
# verify, normalform by normal-form, state and verify, variances by those
# that load normalform (which imports it) and by variances and baseline,
# numpy.fft by the commands that read the spectrum, csv by --format csv,
# tables by the commands that print a Table and by --format csv.  No
# command loads dataclasses.
PER_COMMAND = (
    "csv",
    "dataclasses",
    "nmodesqueeze.gaussian",
    "nmodesqueeze.normalform",
    "nmodesqueeze.tables",
    "nmodesqueeze.variances",
    "numpy.fft",
)
FOCK_NAMES = (
    "FockOperator",
    "FockSpace",
    "FockTensor",
    "assemble_normal_form",
    "build_space",
    "evolve_vacuum",
    "generator",
    "normalized",
    "overlap",
    "tail_mass",
    "two_photon_expand",
    "vacuum",
    "variance_numeric",
    "wigner_numeric",
)
# Every name the package re-exports, by the module that defines it.
REEXPORTS = {
    "coupling": (
        "CouplingMatrix",
        "SqueezeKernel",
        "build_coupling",
        "build_kernel",
        "expm_taylor",
        "matrix_function",
        "sum_identities",
    ),
    "errors": (
        "ModeCountError",
        "NumericFailureError",
        "ParameterRangeError",
        "ResourceLimitError",
        "TruncationError",
    ),
    "gaussian": (
        "GaussianWigner",
        "alpha_rows",
        "normalization_by_quadrature",
        "wigner3_closed",
        "wigner4_closed",
        "wigner_from_kernel",
        "wigner_value_alpha",
        "wigner_values",
    ),
    "variances": (
        "VariancePair",
        "variances_closed",
        "variances_matrix_sum",
    ),
    "normalform": (
        "FourModeClosed",
        "NormalOrderedForm",
        "ThreeModeClosed",
        "TwoPhotonState",
        "baseline_two_mode",
        "four_mode_closed",
        "normal_form",
        "squeezed_vacuum",
        "three_mode_closed",
    ),
    "fockoracle": FOCK_NAMES,
}
ALL_NAMES = sorted(name for names in REEXPORTS.values() for name in names)

# Runs in a fresh interpreter; records which of the watched modules are
# loaded after each step and prints them as the last line of stdout.  With
# no argv the module is only imported, and main adds nothing.
PROBE = """
import importlib, json, sys
watch = {watch!r}
stages = {{}}
def mark(stage):
    stages[stage] = sorted(
        m for m in sys.modules if m in watch or m.partition(".")[0] in watch
    )
import nmodesqueeze
mark("import nmodesqueeze")
module = importlib.import_module({module!r})
mark("import {module}")
code = module.main({argv!r}) if {argv!r} else 0
mark("main")
print(json.dumps({{"code": code, "stages": stages}}))
"""


def _env(**extra: str) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _loaded_modules(
    argv: list[str], watch: tuple[str, ...] = HEAVY, module: str = "nmodesqueeze.cli"
) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(watch=watch, argv=argv, module=module)],
        capture_output=True,
        text=True,
        env=_env(),
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return result["stages"]


def test_cli_import_loads_no_package_module_but_errors():
    # so it compiles no Table renderer, CSV writer or Table-command builder;
    # argparse comes with it, since every command line parses through it
    stages = _loaded_modules(["baseline"], ("argparse", "nmodesqueeze"))
    assert stages["import nmodesqueeze"] == ["nmodesqueeze"]
    assert stages["import nmodesqueeze.cli"] == [
        "argparse",
        "nmodesqueeze",
        "nmodesqueeze.cli",
        "nmodesqueeze.errors",
    ]


def test_cold_start_loads_no_fock_oracle():
    stages = _loaded_modules(["variances", "--n", "50", "--lambda", "0.3"])
    assert stages == {"import nmodesqueeze": [], "import nmodesqueeze.cli": [], "main": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["variances", "--n", "3000", "--lambda", "0.3"],
        ["variances", "--n", "5", "--format", "csv"],
        ["baseline", "--lambda", "0.6"],
        ["baseline", "--lambda", "0.6", "--format", "csv"],
    ],
    ids=["variances", "variances-csv", "baseline", "baseline-csv"],
)
def test_variances_loads_no_numpy(argv):
    stages = _loaded_modules(argv, ("numpy",))
    assert stages == {"import nmodesqueeze": [], "import nmodesqueeze.cli": [], "main": []}


@pytest.mark.parametrize(
    "argv",
    [
        ["coupling", "--n", "5", "--lambda", "0.3"],
        ["normal-form", "--n", "5", "--lambda", "0.3"],
        ["state", "--n", "5", "--lambda", "0.3"],
        ["wigner", "--n", "4", "--lambda", "0.3", "--grid", "q1=-1:1:5", "--grid", "p2=-1:1:5"],
        ["baseline", "--lambda", "0.3"],
    ],
    ids=lambda argv: argv[0],
)
def test_other_commands_load_nothing_heavy(argv):
    stages = _loaded_modules(argv)
    assert stages == {"import nmodesqueeze": [], "import nmodesqueeze.cli": [], "main": []}


def test_state_cutoff_loads_fock_oracle():
    stages = _loaded_modules(["state", "--n", "2", "--lambda", "0.1", "--cutoff", "6"])
    assert stages["import nmodesqueeze.cli"] == []
    assert stages["main"] == ["nmodesqueeze.fockoracle"]  # and no scipy module


def test_verify_loads_no_scipy():
    # nor numpy.random, nor the OpenSSL chain it brings
    stages = _loaded_modules(["verify"], (*HEAVY, "secrets", "_hashlib"))
    assert stages["import nmodesqueeze.cli"] == []
    assert stages["main"] == ["nmodesqueeze.fockoracle", "nmodesqueeze.verification"]


def test_verify_prints_the_same_bytes_in_fresh_processes():
    # the seed alone fixes the draws, whatever each process's hash seed
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "nmodesqueeze", "verify", "--seed", "7"],
            capture_output=True,
            env=_env(PYTHONHASHSEED=hash_seed),
            cwd=ROOT,
            timeout=120,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1] != b""


GAUSSIAN, NORMALFORM, FFT = "nmodesqueeze.gaussian", "nmodesqueeze.normalform", "numpy.fft"
TABLES, VARIANCES = "nmodesqueeze.tables", "nmodesqueeze.variances"


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(["variances", "--n", "50", "--lambda", "0.3"], [VARIANCES], id="variances"),
        pytest.param(
            ["variances", "--n", "5", "--format", "csv"],
            ["csv", TABLES, VARIANCES],
            id="variances-csv",
        ),
        pytest.param(["coupling", "--n", "5", "--lambda", "0.3"], [TABLES, FFT], id="coupling"),
        pytest.param(
            ["coupling", "--n", "5", "--format", "csv"], ["csv", TABLES, FFT], id="coupling-csv"
        ),
        pytest.param(
            ["normal-form", "--n", "5"], [NORMALFORM, TABLES, VARIANCES, FFT], id="normal-form"
        ),
        pytest.param(["state", "--n", "5"], [NORMALFORM, TABLES, VARIANCES, FFT], id="state"),
        pytest.param(["wigner", "--n", "2"], [GAUSSIAN, TABLES, FFT], id="wigner-n2"),
        pytest.param(
            ["wigner", "--n", "4", "--grid", "q1=-1:1:5", "--format", "csv"],
            ["csv", GAUSSIAN, TABLES, FFT],
            id="wigner-n4-csv",
        ),
        pytest.param(["baseline", "--lambda", "0.3"], [VARIANCES], id="baseline"),
        pytest.param(
            ["baseline", "--lambda", "0.3", "--format", "csv"],
            ["csv", TABLES, VARIANCES],
            id="baseline-csv",
        ),
        pytest.param(["verify"], [GAUSSIAN, NORMALFORM, VARIANCES, FFT], id="verify"),
        pytest.param(
            ["verify", "--format", "csv"],
            ["csv", GAUSSIAN, NORMALFORM, TABLES, VARIANCES, FFT],
            id="verify-csv",
        ),
    ],
)
def test_each_command_loads_only_what_it_reads(argv, loaded):
    stages = _loaded_modules(argv, PER_COMMAND)
    assert stages == {"import nmodesqueeze": [], "import nmodesqueeze.cli": [], "main": loaded}


# normalform holds the operator and its states, gaussian the phase-space
# functions: neither imports the other, and the Fock oracle needs only gaussian.
@pytest.mark.parametrize(
    "module, imports",
    [
        pytest.param(
            "normalform", ["coupling", "errors", "normalform", "variances"], id="normalform"
        ),
        pytest.param("gaussian", ["coupling", "errors", "gaussian"], id="gaussian"),
        pytest.param(
            "fockoracle", ["coupling", "errors", "fockoracle", "gaussian"], id="fockoracle"
        ),
    ],
)
def test_module_import_graph(module, imports):
    stages = _loaded_modules([], ("nmodesqueeze",), f"nmodesqueeze.{module}")
    expected = ["nmodesqueeze", *(f"nmodesqueeze.{name}" for name in imports)]
    assert stages[f"import nmodesqueeze.{module}"] == expected


@pytest.mark.parametrize(
    "module, name",
    [pytest.param(module, name, id=name) for module, names in REEXPORTS.items() for name in names],
)
def test_fock_names_reexported(module, name):
    assert getattr(nmodesqueeze, name) is getattr(
        importlib.import_module(f"nmodesqueeze.{module}"), name
    )
    assert name not in vars(nmodesqueeze)  # resolved through the module, never copied


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from nmodesqueeze import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == ALL_NAMES
    assert nmodesqueeze.__all__ == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(nmodesqueeze))


def test_docstring_counts_every_name():
    assert f"each of the {len(ALL_NAMES)} names" in " ".join(nmodesqueeze.__doc__.split())


def test_fock_names_resolve_on_every_access(monkeypatch):
    from nmodesqueeze import evolve_vacuum

    assert evolve_vacuum is fockoracle.evolve_vacuum
    # Not copied into the package: a wrapper set on the module is what callers see.
    assert "evolve_vacuum" not in vars(nmodesqueeze)
    sentinel = object()
    monkeypatch.setattr(fockoracle, "evolve_vacuum", sentinel)
    assert nmodesqueeze.evolve_vacuum is sentinel


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nmodesqueeze' has no attribute 'no_such_name'"):
        nmodesqueeze.no_such_name
