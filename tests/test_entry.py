"""``python -m nmodesqueeze`` end to end: exit codes, the bytes it writes,
and failures to write them, through the console entry that ends the
process with ``os._exit``."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from nmodesqueeze import cli
from nmodesqueeze.cli import (
    EXIT_CHECK_FAILED,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
)

ROOT = Path(__file__).resolve().parent.parent
GRID_ARGV = ["wigner", "--n", "4", "--lambda", "0.3", "--grid", "q1=-2:2:41", "--grid", "p3=-2:2:41"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _console(argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "nmodesqueeze", *argv],
        capture_output=True, env=_env(), cwd=ROOT, timeout=120, **kwargs,
    )


def _document(argv) -> bytes:
    text, _ = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    return text.encode()


def _assert_one_resource_line(stderr: bytes) -> None:
    lines = stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("resource error: "), lines
    assert "Traceback" not in lines[0]


@pytest.mark.parametrize(
    "argv,code",
    [
        (["variances", "--n", "3", "--lambda", "0.25"], EXIT_OK),
        (["verify", "--tolerance", "variance=1e-20"], EXIT_CHECK_FAILED),
        (["verify", "--cutoff", "450"], EXIT_RESOURCE),
        (GRID_ARGV, EXIT_OK),
    ],
)
def test_console_writes_the_run_document(argv, code):
    proc = _console(argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == _document(argv)


@pytest.mark.parametrize(
    "argv,line",
    [
        (["variances"], "error: command 'variances' requires --n"),
        (["wigner", "--n", "4", "--grid=q1=-2:2:1000000000000"], "resource error: grid of"),
        (["wigner", "--n", "3", "--grid=q1=-1e308:1e308:3"], "error: grid axis q1 spans"),
        (["coupling", "--n", "100000"], "resource error: n=100000 needs "),
        (
            ["wigner", "--n", "2", "--grid=q1=-1:1:2", "--grid=q1=-1:1:2"],
            "error: grid axes must differ, got q1 and q1",
        ),
    ],
)
def test_console_refusals_write_one_line(argv, line):
    proc = _console(argv)
    assert proc.returncode == (EXIT_USAGE if line.startswith("error") else EXIT_RESOURCE)
    assert proc.stdout == b""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.decode().startswith(line)


def test_console_numeric_failure_exit():
    script = (
        "import sys\n"
        "from nmodesqueeze import cli, errors, normalform\n"
        "def failing(*args, **kwargs):\n"
        "    raise errors.NumericFailureError('solver broke down')\n"
        "normalform.normal_form = failing\n"
        "sys.argv = ['nmode-squeeze', 'normal-form', '--n', '3']\n"
        "cli.console_main()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=_env(), cwd=ROOT, timeout=120
    )
    assert proc.returncode == EXIT_NUMERIC
    assert proc.stdout == b""
    assert proc.stderr == b"numeric error: solver broke down\n"


def test_console_out_holds_the_full_document(tmp_path):
    out = tmp_path / "grid.json"
    proc = _console([*GRID_ARGV, "--out", str(out)])
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == proc.stderr == b""
    assert out.read_bytes() == _document(GRID_ARGV)


def test_console_closed_pipe_is_a_resource_error():
    """The reader stops after 10 bytes, as ``| head -c 10`` does."""
    assert len(_document(GRID_ARGV)) > 2 * cli._WRITE_BYTES
    with subprocess.Popen(
        [sys.executable, "-m", "nmodesqueeze", *GRID_ARGV],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(), cwd=ROOT,
    ) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == EXIT_RESOURCE
    _assert_one_resource_line(stderr)
    assert b"Broken pipe" in stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["variances", "--n", "3"], GRID_ARGV])
def test_console_full_device_is_a_resource_error(argv):
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "nmodesqueeze", *argv],
            stdout=full, stderr=subprocess.PIPE, env=_env(), cwd=ROOT, timeout=120,
        )
    assert proc.returncode == EXIT_RESOURCE
    _assert_one_resource_line(proc.stderr)


def test_console_closed_stdout_is_a_resource_error():
    command = shlex.join([sys.executable, "-m", "nmodesqueeze", "variances", "--n", "3"])
    proc = subprocess.run(
        f"{command} >&-", shell=True, stderr=subprocess.PIPE,
        env=_env(), cwd=ROOT, timeout=120,
    )
    assert proc.returncode == EXIT_RESOURCE
    _assert_one_resource_line(proc.stderr)
    assert b"stdout is closed" in proc.stderr


def test_console_out_in_missing_directory_is_a_resource_error(tmp_path):
    target = tmp_path / "missing" / "x.json"
    proc = _console(["variances", "--n", "3", "--out", str(target)])
    assert proc.returncode == EXIT_RESOURCE
    assert proc.stdout == b""
    _assert_one_resource_line(proc.stderr)
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "command,redirect,code",
    [
        ("variances", "2>&-", EXIT_USAGE),
        ("variances", "2>/dev/full", EXIT_USAGE),
        ("verify", "2>&- >/dev/full", EXIT_RESOURCE),
        ("verify", "2>/dev/full >/dev/full", EXIT_RESOURCE),
    ],
)
def test_console_lost_stderr_keeps_the_exit_code(command, redirect, code):
    """With stderr closed, or failing every write, the error line is lost
    but the exit code is not, and nothing reaches stdout instead."""
    argv = shlex.join([sys.executable, "-m", "nmodesqueeze", command])
    proc = subprocess.run(
        f"{argv} {redirect}", shell=True, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, timeout=120
    )
    assert proc.returncode == code
    assert proc.stdout == b""
