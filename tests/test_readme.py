"""README's examples run as written.

The Library block is executed as it stands, and every `twistrb ...` line of
the shell block under "Instance format" goes through `cli.main` from the
root of the repository, where its instance paths resolve.  Each must exit 0.
"""
import re
import shlex
from pathlib import Path

import pytest

from twistrb import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> str:
    """The first fenced block of `language` after the line `heading`."""
    section = README[README.index(f"\n{heading}\n"):]
    match = re.search(rf"```{language}\n(.*?)```", section, re.S)
    assert match, f"no {language} block after {heading!r}"
    return match.group(1)


LIBRARY = _block("## Library", "python")
COMMANDS = [shlex.split(line) for line in _block("## Instance format", "sh").splitlines() if line.startswith("twistrb ")]


def test_readme_has_its_examples():
    assert "from twistrb import" in LIBRARY
    assert [argv[1] for argv in COMMANDS] == ["check-mc", "cohomology-of-t", "check-r-matrix", "ns-from"]


def test_library_block_runs(capsys):
    exec(compile(LIBRARY, "README.md (Library)", "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv[1:2]) for argv in COMMANDS])
def test_cli_example_exits_zero(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv[1:]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"command: {argv[1]}") or f'"command": "{argv[1]}"' in out
