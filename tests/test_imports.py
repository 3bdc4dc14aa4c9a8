"""What importing the package costs: the Fock oracle loads only when a
command needs it, no command loads scipy, and the Fock names resolve on
first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nmodesqueeze
from nmodesqueeze import fockoracle

ROOT = Path(__file__).resolve().parent.parent
# A top-level name here also covers its submodules ("scipy" covers "scipy.sparse").
HEAVY = ("scipy", "nmodesqueeze.fockoracle", "nmodesqueeze.verification")
FOCK_NAMES = (
    "FockOperator",
    "FockSpace",
    "FockTensor",
    "assemble_normal_form",
    "build_space",
    "evolve_vacuum",
    "generator",
    "ladder_ops",
    "normalized",
    "overlap",
    "quadrature_ops",
    "tail_mass",
    "two_photon_expand",
    "vacuum",
    "variance_numeric",
    "wigner_numeric",
)

# Runs in a fresh interpreter; records which of HEAVY are loaded after each
# step and prints them as the last line of stdout.
PROBE = """
import json, sys
heavy = {heavy!r}
stages = {{}}
def mark(stage):
    stages[stage] = sorted(
        m for m in sys.modules if m in heavy or m.partition(".")[0] in heavy
    )
import nmodesqueeze
mark("import nmodesqueeze")
import nmodesqueeze.cli as cli
mark("import nmodesqueeze.cli")
code = cli.main({argv!r})
mark("main")
print(json.dumps({{"code": code, "stages": stages}}))
"""


def _loaded_modules(argv: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(heavy=HEAVY, argv=argv)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    return result["stages"]


def test_cold_start_loads_no_fock_oracle():
    stages = _loaded_modules(["variances", "--n", "50", "--lambda", "0.3"])
    assert stages == {"import nmodesqueeze": [], "import nmodesqueeze.cli": [], "main": []}


def test_state_cutoff_loads_fock_oracle():
    stages = _loaded_modules(["state", "--n", "2", "--lambda", "0.1", "--cutoff", "6"])
    assert stages["import nmodesqueeze.cli"] == []
    assert stages["main"] == ["nmodesqueeze.fockoracle"]  # and no scipy module


def test_verify_loads_no_scipy():
    stages = _loaded_modules(["verify"])
    assert stages["import nmodesqueeze.cli"] == []
    assert stages["main"] == ["nmodesqueeze.fockoracle", "nmodesqueeze.verification"]


@pytest.mark.parametrize("name", FOCK_NAMES)
def test_fock_names_reexported(name):
    assert getattr(nmodesqueeze, name) is getattr(fockoracle, name)


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
