"""Only field.py knows how a field is represented.

Every other module in the package does its arithmetic through the
FieldSpec interface (scalar ops, the row operation scale, the
operations column/sub_rows on lists of rows, and the lane update
lane_adder), so a change of representation, such as the slot
width of a packed row or the GF(2^k) log/exp arrays, stays inside
field.py. This test reads the sources with `ast` and fails on any
reference to the field kind, the log/exp tables or the kind constants.

Inside field.py the kind is read only where it names the field
(identity and notation) and, at most, where `_arithmetic` picks the arm
that binds a field's operations once (it picks by characteristic), so
no operation tests the kind per call.

The field has no surface that only tests use: every operation that
`_arithmetic` binds and every public FieldSpec method is read as an
attribute by some other module of the package.

The runtime is stdlib-only: no module of the package imports anything
outside the standard library.

A `verify` run loads only the modules it runs: the generators, and
`dataclasses` with the `inspect` machinery it pulls in, stay unimported,
while the package still resolves every public name on first use. A
`generate` run loads the generators but neither `dataclasses` nor
`inspect`: every record type is a namedtuple. A run that reads and
writes only text never loads `json`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockinv

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


def row_type_leaks(source: str, module: str) -> list[str]:
    """References to the stored-row type: its typecode or `array`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "typecode":
            found.append(f"{module}:{node.lineno} .typecode")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "array" in (
                [getattr(node, "module", None)]
                + [a.name for a in node.names]):
            found.append(f"{module}:{node.lineno} imports array")
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "field.py"),
    ids=lambda p: p.name)
def test_only_field_module_knows_the_row_type(path):
    # rows are built by FieldSpec.row, join and store, never by hand
    assert row_type_leaks(path.read_text(encoding="utf-8"), path.name) == []


@pytest.mark.parametrize("snippet", [
    "r = array(f.typecode, codes)",
    "from array import array",
    "import array",
])
def test_row_type_guard_flags_each_leak(snippet):
    assert row_type_leaks(snippet, "matrix.py")


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


#: FieldSpec attributes that describe the field rather than compute in it.
FIELD_METADATA = {"kind", "characteristic", "degree", "modulus", "order",
                  "typecode"}


def unread_field_surface(field_source: str, sources: list[str]) -> list[str]:
    """Operations bound by `_arithmetic` (the keywords of its `dict`
    calls) and public FieldSpec methods that no source reads as an
    attribute, metadata left out."""
    surface = set()
    for node in ast.walk(ast.parse(field_source)):
        if isinstance(node, ast.FunctionDef) and node.name == "_arithmetic":
            surface.update(kw.arg for call in ast.walk(node)
                           if isinstance(call, ast.Call)
                           and isinstance(call.func, ast.Name)
                           and call.func.id == "dict"
                           for kw in call.keywords)
        elif isinstance(node, ast.ClassDef) and node.name == "FieldSpec":
            surface.update(f.name for f in node.body
                           if isinstance(f, ast.FunctionDef)
                           and not f.name.startswith("_"))
    read = {node.attr for source in sources
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}
    return sorted(surface - FIELD_METADATA - read)


def test_every_field_operation_has_a_caller_in_the_package():
    others = [p.read_text(encoding="utf-8") for p in sorted(
        PACKAGE.glob("*.py")) if p.name != "field.py"]
    assert unread_field_surface(
        (PACKAGE / "field.py").read_text(encoding="utf-8"), others) == []


def test_surface_guard_flags_unread_operations_and_methods():
    field_source = ("class FieldSpec:\n"
                    "    def row(self, codes): pass\n"
                    "    def check(self, codes): pass\n"
                    "    def _private(self): pass\n"
                    "def _arithmetic(field):\n"
                    "    return dict(pack=1, unpack=2, order=3)\n")
    assert unread_field_surface(field_source, ["f.row(x)", "f.pack(r)"]) == [
        "check", "unpack"]


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


VERIFY_MODULES = {"blockinv", "blockinv.cli", "blockinv.matrixfile",
                  "blockinv.field", "blockinv.matrix", "blockinv.verify"}
GENERATORS = {"blockinv.construct", "blockinv.decompose", "blockinv.rng"}
RECORD_MACHINERY = {"dataclasses", "inspect"}

#: Runs `python -m blockinv ARGS...`, then reports the exit code and the
#: loaded modules as a Python literal, so that the report itself loads no
#: module. The CLI ends its process with os._exit, which is bound to
#: sys.exit here so that the report can still be printed.
RUN_CLI = """
import os, runpy, sys
os._exit = sys.exit
sys.argv = ["blockinv", *sys.argv[1:]]
try:
    runpy.run_module("blockinv", run_name="__main__", alter_sys=True)
except SystemExit as e:
    print(repr([e.code, sorted(sys.modules)]))
"""


def cli_modules(*args: str) -> tuple[int, set[str]]:
    """Exit code and loaded modules of one `python -m blockinv` process."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", RUN_CLI, *args],
                          capture_output=True, text=True, env=env,
                          timeout=60, check=True)
    code, modules = ast.literal_eval(done.stdout.splitlines()[-1])
    return code, set(modules)


def test_verify_process_imports_only_what_it_runs(tmp_path):
    path = tmp_path / "m.bim"
    path.write_text("bim v1\ngf(2^8;0x11b)\n4 4 2\n193 103 193 103\n"
                    "94 11 94 11\n193 103 166 193\n94 11 85 94\n")
    code, modules = cli_modules("verify", str(path))
    assert code == 0
    loaded = {m for m in modules if m.startswith("blockinv.")} | {"blockinv"}
    assert loaded <= VERIFY_MODULES | {"blockinv.__main__"}
    assert VERIFY_MODULES <= modules
    assert (GENERATORS | RECORD_MACHINERY).isdisjoint(modules)


def test_generate_process_imports_no_record_machinery(tmp_path):
    code, modules = cli_modules("generate", "--n", "8", "--p", "2",
                                "--field", "gf(2)",
                                "--out", str(tmp_path / "m.bim"))
    assert code == 0
    assert VERIFY_MODULES | GENERATORS <= modules
    assert RECORD_MACHINERY.isdisjoint(modules)


def test_text_processes_never_load_json(tmp_path):
    path = str(tmp_path / "m.bim")
    for args in (("generate", "--n", "8", "--p", "2", "--field", "gf(2^8)",
                  "--out", path),
                 ("verify", path), ("verify", path, "--quiet")):
        code, modules = cli_modules(*args)
        assert code == 0 and "json" not in modules, args
    # the same file verified with a JSON report does load it
    code, modules = cli_modules("verify", path, "--json")
    assert code == 0 and "json" in modules


def test_every_public_name_resolves():
    namespace = {}
    exec("from blockinv import *", namespace)
    assert set(blockinv.__all__) <= namespace.keys()
    for name in blockinv.__all__:
        assert getattr(blockinv, name) is namespace[name]
    from blockinv.matrix import Matrix
    assert blockinv.Matrix is Matrix
    with pytest.raises(AttributeError):
        blockinv.no_such_name
