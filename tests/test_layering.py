"""Only field.py knows how a field is represented.

Every other module in the package does its arithmetic through the
FieldSpec interface (scalar ops and the row operations scale/axpy), so
a change of representation, such as bit-packed GF(2) rows, stays inside
field.py. This test reads the sources with `ast` and fails on any
reference to the field kind, the log/exp tables or the kind constants.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blockinv"

FORBIDDEN_ATTRS = {"kind", "_mul_tables", "_exp", "_log"}
FORBIDDEN_NAMES = {"_mul_tables", "_exp", "_log"}
FORBIDDEN_IMPORTS = {"PRIME", "BINARY"}


def violations(source: str, module: str) -> list[str]:
    """Field-representation leaks in one module's source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FORBIDDEN_ATTRS:
            found.append(f"{module}:{node.lineno} .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in FORBIDDEN_NAMES:
            found.append(f"{module}:{node.lineno} {node.id}")
        elif (isinstance(node, ast.ImportFrom) and module != "__init__.py"
              and any(a.name in FORBIDDEN_IMPORTS for a in node.names)):
            found.append(f"{module}:{node.lineno} imports PRIME/BINARY")
    return found


def test_package_modules_found():
    assert (PACKAGE / "field.py").is_file()
    assert (PACKAGE / "matrix.py").is_file()


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "field.py"),
    ids=lambda p: p.name)
def test_no_field_representation_outside_field_module(path):
    assert violations(path.read_text(encoding="utf-8"), path.name) == []


@pytest.mark.parametrize("snippet", [
    "if f.kind == 'prime': pass",
    "exp, log = field._mul_tables()",
    "t = f._log[a]",
    "from .field import PRIME",
    "from .field import FieldSpec, BINARY",
])
def test_guard_flags_each_leak(snippet):
    assert violations(snippet, "matrix.py")


def test_guard_allows_package_reexport():
    assert violations("from .field import BINARY, PRIME", "__init__.py") == []
