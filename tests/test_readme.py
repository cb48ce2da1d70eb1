"""Every ```python block in README.md runs as written, and so does every
`blockinv ...` line of a ```sh block.

Each block's test is named by the nearest heading above it, so editing
the README elsewhere does not rename it.
"""

import re
import shlex
from pathlib import Path

import pytest

from blockinv import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)
HEADING = re.compile(r"^#+ (.+)$", re.MULTILINE)


def _heading(end: int) -> str:
    """The last heading before offset `end`, outside code blocks, as an id."""
    prose = FENCED.sub("", TEXT[:end])
    return HEADING.findall(prose)[-1].lower().replace(" ", "-")


BLOCKS = [pytest.param(TEXT.count("\n", 0, m.start(2)) + 1, m.group(2),
                       id=_heading(m.start()))
          for m in FENCED.finditer(TEXT) if m.group(1) == "python"]

COMMANDS = [pytest.param(lines, id=_heading(m.start()))
            for m in FENCED.finditer(TEXT) if m.group(1) == "sh"
            if (lines := [line for line in m.group(2).splitlines()
                          if line.startswith("blockinv ")])]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line,code", BLOCKS)
def test_readme_python_block_runs(line, code):
    # padded so that a traceback names the README line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})


def test_readme_has_cli_commands():
    assert COMMANDS


@pytest.mark.parametrize("lines", COMMANDS)
def test_readme_cli_commands_run(lines, tmp_path, monkeypatch):
    # in order, in one fresh directory, so a later line reads the files
    # an earlier one wrote
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
