"""Every ```python block in README.md runs as written.

Each block's test is named by the nearest heading above it, so editing
the README elsewhere does not rename it.
"""

import re
from pathlib import Path

import pytest

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


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line,code", BLOCKS)
def test_readme_python_block_runs(line, code):
    # padded so that a traceback names the README line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})
