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
the field (`FieldSpec.row`), and load(save(m)) reproduces the matrix
exactly, modulus included (binary field notation spells out the modulus).
A loader converts each row to the field's stored row as soon as it has
read it, a text line as it parses it and a JSON row in place in the
decoded list, so the ints of one row at a time are alive, not those of
the whole matrix beside a copy. The errors are those of reading every
row first: a malformed text line before a row of the wrong length, and
that before a code the field rejects, the first in row order.
"""

from __future__ import annotations

import json
import re

from .field import FieldError, _clip, parse_field
from .matrix import Matrix

MAGIC = "bim v1"

TEXT = "text"
JSON = "json"
FORMATS = (TEXT, JSON)

#: A line of whitespace-separated numbers, each in the one spelling str()
#: gives an int: ASCII digits after an optional "-", no leading zero and
#: no "-0". re's \s and str.split() both split on str.isspace() characters.
_SPELLED_LINE = re.compile(r"\s*(?:(?:0|-?[1-9][0-9]*)(?:\s+|\Z))*")


class MatrixFileError(ValueError):
    """File content is not a well-formed matrix file."""


def dump_text(m: Matrix, p: int) -> str:
    return f"{MAGIC}\n{m.field}\n{m.nrows} {m.ncols} {p}\n{m}\n"


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
    return _build(field, ncols, body,
                  lambda line: _ints(line, "entry in row")), p


def _ints(line: str, what: str) -> list[int]:
    """The whitespace-separated ints on one text-file line, each token its
    int's one ASCII decimal spelling: str(int(t)) == t, as int() alone
    would also take "+", "_", leading zeros, "-0" and non-ASCII digits.
    The spelling is checked on the whole line at once, by _SPELLED_LINE."""
    tokens = line.split()
    try:
        values = list(map(int, tokens))
    except ValueError:  # no int, or over int()'s length limit
        if line.isascii() and all(t.removeprefix("-").isdigit()
                                  for t in tokens):
            raise MatrixFileError(
                f"over-long {what} {_clip(repr(line))}") from None
    else:
        if _SPELLED_LINE.fullmatch(line):
            return values
    raise MatrixFileError(f"non-integer {what} {_clip(repr(line))}")


def _json_int(token: str) -> int:
    """A JSON integer literal in its one spelling: json.loads reads -0,
    which no writer emits, as 0."""
    if token == "-0":
        raise MatrixFileError("non-integer number -0")
    return int(token)


def _load_json(text: str) -> tuple[Matrix, int]:
    try:
        obj = json.loads(text)
        if "-0" in text:
            # a hook on every int would slow every load, so only a text
            # that may hold -0 is parsed again with it
            obj = json.loads(text, parse_int=_json_int)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError, an integer literal over the int-conversion
        # limit, nesting deeper than the decoder's recursion limit, or -0
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


def _build(field, ncols, rows: list, read=None) -> Matrix:
    """The matrix of `rows`, each replaced in place by its stored row.

    A row is read with `read` first, if given, and must be a list of
    `ncols` codes. Once a row is wrong, later rows are only read and
    measured, so that the error raised is the one the checks give in
    their order (see the module docstring)."""
    shaped, bad_code = True, None
    for i, row in enumerate(rows):
        if read:
            row = read(row)
        if not isinstance(row, list) or len(row) != ncols:
            shaped = False
        elif shaped and bad_code is None:
            try:
                rows[i] = field.row(row)
            except ValueError as e:  # a code the field rejects
                bad_code = e
    if not shaped:
        raise MatrixFileError(f"expected {_clip(str(ncols))} entries per row")
    if bad_code is not None:
        raise MatrixFileError(str(bad_code))
    return Matrix._new(field, tuple(rows))
