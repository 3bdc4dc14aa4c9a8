"""README against the code: its command table is ``cli.COMMANDS``, its
``--tolerance`` names are the ones verify accepts, and every example
command line in it exits with the code it states."""

import re
import shlex
from pathlib import Path

import pytest

from nmodesqueeze.cli import COMMANDS, main
from nmodesqueeze.verification import DEFAULT_TOLERANCES, TOLERANCE_ALIASES

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _command_table() -> dict[str, tuple[str, ...]]:
    """The rows under the "| command | also reads |" header, in order."""
    lines = README.splitlines()
    rows = {}
    for line in lines[lines.index("| command | also reads |") + 2:]:
        if not line.startswith("|"):
            break
        command, reads = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = tuple(re.findall(r"--[a-z]+", reads))
    return rows


def _example_lines() -> list[str]:
    """Every line of a ```sh block that runs nmode-squeeze."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README, flags=re.S | re.M)
    return [line for block in blocks for line in block.splitlines() if line.startswith("nmode-squeeze ")]


def test_command_table_is_the_cli_table():
    assert list(_command_table().items()) == [(name, reads) for name, (reads, _) in COMMANDS.items()]


def test_tolerance_names_are_the_accepted_names():
    paragraph = README[README.index("Tolerance names accepted by `--tolerance`:"):].split("\n\n")[0]
    names = re.findall(r"`([a-z0-9_]+)`", paragraph)
    assert sorted(names) == sorted({*DEFAULT_TOLERANCES, *TOLERANCE_ALIASES})


def test_every_command_has_an_example():
    assert {shlex.split(line)[1] for line in _example_lines()} >= set(COMMANDS)


@pytest.mark.parametrize("line", _example_lines())
def test_example_exits_as_stated(line, capsys):
    command, _, comment = line.partition("#")
    stated = re.search(r"exit (\d)", comment)
    try:
        code = main(shlex.split(command)[1:])
    except SystemExit as stop:  # --help
        code = stop.code
    capsys.readouterr()
    assert code == (int(stated.group(1)) if stated else 0)
