"""Every ```python block in README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [pytest.param(line, m.group(1), id=f"line{line}")
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT,
                               re.MULTILINE | re.DOTALL)
          for line in [TEXT.count("\n", 0, m.start(1)) + 1]]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line,code", BLOCKS)
def test_readme_python_block_runs(line, code):
    # padded so that a traceback names the README line
    exec(compile("\n" * (line - 1) + code, str(README), "exec"), {})
