"""Only field.py knows how a field is represented.

Every other module in the package does its arithmetic through the
FieldSpec interface (scalar ops and the row operations scale/axpy), so
a change of representation, such as bit-packed GF(2) rows, stays inside
field.py. This test reads the sources with `ast` and fails on any
reference to the field kind, the log/exp tables or the kind constants.

Inside field.py the kind is read only where it names the field
(identity and notation) and where `_arithmetic` picks the arm that binds
a field's operations once, so no operation tests the kind per call.

The runtime is stdlib-only: no module of the package imports anything
outside the standard library.
"""

import ast
import sys
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


KIND_READERS = {"__init__", "__eq__", "__hash__", "__str__", "_arithmetic"}


def kind_reads(source: str) -> list[str]:
    """`.kind` reads in field.py outside the functions allowed to make them."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name  # innermost: a closure is not its maker
        if (isinstance(node, ast.Attribute) and node.attr == "kind"
                and func not in KIND_READERS):
            found.append(f"field.py:{node.lineno} .kind in {func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
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


def test_field_module_reads_kind_only_to_pick_the_arm():
    source = (PACKAGE / "field.py").read_text(encoding="utf-8")
    assert kind_reads(source) == []


@pytest.mark.parametrize("snippet", [
    "class F:\n    def mul(self, a, b):\n        return self.kind",
    "def _row_ops(field):\n    return field.kind",
    "def _arithmetic(field):\n    def mul(a, b):\n        return field.kind",
    "x = f.kind",
])
def test_kind_guard_flags_each_read(snippet):
    assert kind_reads(snippet)


def test_kind_guard_allows_identity_and_arm_choice():
    assert kind_reads("class F:\n    def __eq__(self, o):\n"
                      "        return self.kind == o.kind\n"
                      "def _arithmetic(field):\n"
                      "    return field.kind") == []


def non_stdlib_imports(source: str, module: str) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.extend(f"{module}:{node.lineno} {name}" for name in names
                     if name.partition(".")[0] not in sys.stdlib_module_names)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path.read_text(encoding="utf-8"),
                              path.name) == []


@pytest.mark.parametrize("snippet", [
    "import numpy",
    "import numpy.linalg as la",
    "from numpy import zeros",
    "import json, galois",
])
def test_stdlib_guard_flags_third_party_imports(snippet):
    assert non_stdlib_imports(snippet, "matrix.py")


def test_stdlib_guard_allows_stdlib_and_relative_imports():
    assert non_stdlib_imports("from __future__ import annotations\n"
                              "import json, os.path\n"
                              "from .field import FieldSpec\n"
                              "from . import matrixfile", "cli.py") == []
