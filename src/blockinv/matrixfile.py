"""Matrix file formats: a human-diffable text form and a JSON mirror.

Text format, one matrix per file:

    bim v1
    gf(2)
    6 6 2
    1 0 1 1 0 0
    ... one line of space-separated ASCII decimal codes per row ...

Line 3 is "rows cols p" where p is the block size the matrix was built
for (metadata; verification may override it). JSON carries the same
fields::

    {"format": "bim", "version": 1, "field": "gf(2)", "rows": 6,
     "cols": 6, "p": 2, "data": [[1,0,...], ...]}

Both writers are byte-deterministic, loaders leave the element codes to
the field (through `Matrix`), and load(save(m)) reproduces the matrix
exactly, modulus included (binary field notation spells out the modulus).
"""

from __future__ import annotations

import json

from .field import FieldError, _clip, parse_field
from .matrix import Matrix

MAGIC = "bim v1"

TEXT = "text"
JSON = "json"
FORMATS = (TEXT, JSON)


class MatrixFileError(ValueError):
    """File content is not a well-formed matrix file."""


def dump_text(m: Matrix, p: int) -> str:
    lines = [MAGIC, str(m.field), f"{m.nrows} {m.ncols} {p}"]
    lines.extend(" ".join(str(x) for x in row) for row in m._rows)
    return "\n".join(lines) + "\n"


def dump_json(m: Matrix, p: int) -> str:
    return json.dumps({
        "format": "bim",
        "version": 1,
        "field": str(m.field),
        "rows": m.nrows,
        "cols": m.ncols,
        "p": p,
        "data": m.to_lists(),
    }) + "\n"


def dump(m: Matrix, p: int, fmt: str = TEXT) -> str:
    if fmt == TEXT:
        return dump_text(m, p)
    if fmt == JSON:
        return dump_json(m, p)
    raise ValueError(f"unknown format {fmt!r}")


def load(text: str) -> tuple[Matrix, int]:
    """Parse either format (sniffed from the first byte) into (matrix, p)."""
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        return _load_json(stripped)
    return _load_text(text)


def _load_text(text: str) -> tuple[Matrix, int]:
    lines = text.splitlines()
    if len(lines) < 4:
        raise MatrixFileError("file too short for a matrix")
    if lines[0].strip() != MAGIC:
        raise MatrixFileError(
            f"bad magic line {_clip(repr(lines[0]))}, expected {MAGIC!r}")
    try:
        field = parse_field(lines[1])
    except FieldError as e:
        raise MatrixFileError(f"bad field line: {e}") from None
    if len(lines[2].split()) != 3:
        raise MatrixFileError(
            f"header line must be 'rows cols p', got {_clip(repr(lines[2]))}")
    nrows, ncols, p = _ints(lines[2], "header fields in")
    _check_shape(nrows, ncols, p)
    body = [ln for ln in lines[3:] if ln.strip()]
    if len(body) != nrows:
        raise MatrixFileError(
            f"expected {_clip(str(nrows))} data rows, found {len(body)}")
    rows = [_ints(ln, "entry in row") for ln in body]
    return _build(field, ncols, rows), p


def _ints(line: str, what: str) -> list[int]:
    """The whitespace-separated ASCII decimal ints on one text-file line."""
    tokens = line.split()
    # int() alone would also take "+", "_" and non-ASCII digits
    if line.isascii() and "+" not in line and "_" not in line:
        try:
            return list(map(int, tokens))
        except ValueError:  # a misplaced "-", or over int()'s length limit
            if all(t.removeprefix("-").isdigit() for t in tokens):
                raise MatrixFileError(
                    f"over-long {what} {_clip(repr(line))}") from None
    raise MatrixFileError(f"non-integer {what} {_clip(repr(line))}")


def _load_json(text: str) -> tuple[Matrix, int]:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer literal over the int-conversion
        # limit, or nesting deeper than the decoder's recursion limit
        raise MatrixFileError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or obj.get("format") != "bim":
        raise MatrixFileError("not a bim matrix object")
    version = obj.get("version")
    if type(version) is not int or version != 1:
        raise MatrixFileError(
            f"unsupported version {_clip(repr(version))}")
    for key in ("field", "rows", "cols", "p", "data"):
        if key not in obj:
            raise MatrixFileError(f"missing key {key!r}")
    try:
        field = parse_field(str(obj["field"]))
    except FieldError as e:
        raise MatrixFileError(f"bad field: {e}") from None
    nrows, ncols, p = obj["rows"], obj["cols"], obj["p"]
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in (nrows, ncols, p)):
        raise MatrixFileError("rows, cols and p must be integers")
    _check_shape(nrows, ncols, p)
    data = obj["data"]
    if not isinstance(data, list) or len(data) != nrows:
        raise MatrixFileError(
            f"data must be a list of {_clip(str(nrows))} rows")
    return _build(field, ncols, data), p


def _check_shape(nrows: int, ncols: int, p: int):
    if nrows < 1 or ncols < 1:
        raise MatrixFileError(
            f"bad dimensions {_clip(str(nrows))}x{_clip(str(ncols))}")
    if p < 1:
        raise MatrixFileError(f"bad block size {_clip(str(p))}")


def _build(field, ncols, rows) -> Matrix:
    for row in rows:
        if not isinstance(row, list) or len(row) != ncols:
            raise MatrixFileError(
                f"expected {_clip(str(ncols))} entries per row")
    try:
        return Matrix(field, rows)
    except ValueError as e:  # a code the field rejects
        raise MatrixFileError(str(e)) from None
