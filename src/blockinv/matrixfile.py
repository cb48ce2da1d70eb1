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
read it, so the ints of one row at a time are alive, not those of the
whole matrix beside a copy. The text loader converts each line as it
parses it. The JSON loader walks the top-level object itself, decoding
each key and value with json's scanner, and decodes a "data" array one
row at a time; once "field" and "cols" have been read, each row is
converted before the next is decoded. Rows read before both are known
are converted after the walk. Either way the errors are those of
decoding and reading every row first: a JSON syntax error anywhere,
then the header checks, then a malformed text line before a row of the
wrong length, and that before a code the field rejects, the first in
row order.

Over a field of order <= 256, text codes are spelled through one table
of the 256 strings str(0)..str(255) (matrix.py): the writer indexes it
with each code, and the text loader looks each token up in its inverse,
cut to the field's codes, and hands the field each row as bytes. A
token missing from that inverse (another spelling, or a code out of
range) or a row of the wrong length sends the whole body back through
the general reader, which checks each line's spelling against a regular
expression and reads its ints; so both accept the same files, and every
error comes from the general reader, in its order.
"""

from __future__ import annotations

import json
import re

from .field import FieldError, FieldSpec, _clip, parse_field
from .matrix import _SPELLINGS, Matrix

MAGIC = "bim v1"

TEXT = "text"
JSON = "json"
FORMATS = (TEXT, JSON)

#: A line of whitespace-separated numbers, each in the one spelling str()
#: gives an int: ASCII digits after an optional "-", no leading zero and
#: no "-0". re's \s and str.split() both split on str.isspace() characters.
_SPELLED_LINE = re.compile(r"\s*(?:(?:0|-?[1-9][0-9]*)(?:\s+|\Z))*")

#: JSON's whitespace, which json's own scanner skips between tokens.
_SPACE = re.compile(r"[ \t\n\r]*")


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
    if field.order <= len(_SPELLINGS):
        m = _spelled_rows(field, ncols, body)
        if m is not None:
            return m, p
    return _build(field, ncols, body,
                  lambda line: _ints(line, "entry in row")), p


def _spelled_rows(field: FieldSpec, ncols: int, body: list[str]):
    """The matrix of `body` over a field of order <= 256, each token read
    through the inverse of the spelling table cut to the field's codes;
    None at the first token not in it or row not `ncols` long, so that
    `_build` reads the whole body again and raises its error."""
    code = dict(zip(_SPELLINGS, range(field.order))).__getitem__
    rows = []
    for line in body:
        try:
            row = bytes(map(code, line.split()))
        except KeyError:
            return None
        if len(row) != ncols:
            return None
        rows.append(field.row(row))
    return Matrix._new(field, tuple(rows))


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
    # a hook on every int would slow every load, so only a text that
    # may hold -0 is decoded with it
    decoder = json.JSONDecoder(parse_int=_json_int if "-0" in text else None)
    try:
        if text.startswith("{"):
            obj, stored = _read_object(text, decoder.raw_decode)
        else:
            obj, stored = decoder.decode(text), 0
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
    field = obj["field"]
    if isinstance(field, FieldError):
        raise MatrixFileError(f"bad field: {field}")
    nrows, ncols, p = obj["rows"], obj["cols"], obj["p"]
    if not all(isinstance(v, int) and not isinstance(v, bool)
               for v in (nrows, ncols, p)):
        raise MatrixFileError("rows, cols and p must be integers")
    _check_shape(nrows, ncols, p)
    data = obj["data"]
    if not isinstance(data, list) or len(data) != nrows:
        raise MatrixFileError(
            f"data must be a list of {_clip(str(nrows))} rows")
    return _build(field, ncols, data, stored=stored), p


def _read_object(s: str, decode) -> tuple[dict, int]:
    """The members of the JSON object `s`, the last of a repeated key
    winning as in json.loads, and how many leading rows of "data" are
    stored rows. `decode` is a JSONDecoder's raw_decode; a syntax error
    raises json's JSONDecodeError, with json's wording and position.

    "field" is parsed as soon as it is read, and kept as its FieldSpec or
    the FieldError that parsing raised. A "data" array is read by
    `_read_rows`, which stores rows while it knows the field and "cols".
    Stored rows checked against a field or "cols" that a later member
    replaced are turned back into lists, for `_build` to read again."""
    members = {}
    stored, checked = 0, None
    i = _SPACE.match(s, 1).end()
    if s[i:i + 1] != "}":
        while True:
            if s[i:i + 1] != '"':
                raise json.JSONDecodeError(
                    "Expecting property name enclosed in double quotes", s, i)
            key, i = decode(s, i)
            i = _SPACE.match(s, i).end()
            if s[i:i + 1] != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", s, i)
            i = _SPACE.match(s, i + 1).end()
            if key == "data" and s[i:i + 1] == "[":
                checked = members.get("field"), members.get("cols")
                members[key], stored, i = _read_rows(s, i, decode, *checked)
            else:
                value, i = decode(s, i)
                if key == "field":
                    try:
                        value = parse_field(str(value))
                    except FieldError as e:
                        value = e
                elif key == "data":
                    stored = 0
                members[key] = value
            i = _SPACE.match(s, i).end()
            if s[i:i + 1] == "}":
                break
            if s[i:i + 1] != ",":
                raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
            i = _SPACE.match(s, i + 1).end()
    end = _SPACE.match(s, i + 1).end()
    if end != len(s):
        raise json.JSONDecodeError("Extra data", s, end)
    if stored and checked != (members["field"], members["cols"]):
        rows = members["data"]
        rows[:stored] = map(list, rows[:stored])
        stored = 0
    return members, stored


def _read_rows(s: str, i: int, decode, field, ncols) -> tuple[list, int, int]:
    """The elements of the JSON array at s[i], how many leading ones are
    stored rows, and the index after the array.

    Each element is decoded on its own. If `field` is a FieldSpec and
    `ncols` a positive int, then while every element so far was a list
    of `ncols` codes that the field accepts, each is replaced by its
    stored row before the next is decoded; the first that is not stays
    as decoded, as do all after it."""
    rows, stored = [], 0
    storing = isinstance(field, FieldSpec) and type(ncols) is int and ncols > 0
    i = _SPACE.match(s, i + 1).end()
    if s[i:i + 1] == "]":
        return rows, 0, i + 1
    while True:
        row, i = decode(s, i)
        if storing and type(row) is list and len(row) == ncols:
            try:
                row = field.row(row)
            except ValueError:  # a code the field rejects
                storing = False
            else:
                stored += 1
        else:
            storing = False
        rows.append(row)
        i = _SPACE.match(s, i).end()
        if s[i:i + 1] == "]":
            break
        if s[i:i + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
        i = _SPACE.match(s, i + 1).end()
    return rows, stored, i + 1


def _check_shape(nrows: int, ncols: int, p: int):
    if nrows < 1 or ncols < 1:
        raise MatrixFileError(
            f"bad dimensions {_clip(str(nrows))}x{_clip(str(ncols))}")
    if p < 1:
        raise MatrixFileError(f"bad block size {_clip(str(p))}")


def _build(field, ncols, rows: list, read=None, stored=0) -> Matrix:
    """The matrix of `rows`, each replaced in place by its stored row.

    The first `stored` rows are stored rows already. Each other row is
    read with `read` first, if given, and must be a list of `ncols`
    codes. Once a row is wrong, later rows are only read and measured,
    so that the error raised is the one the checks give in their order
    (see the module docstring)."""
    shaped, bad_code = True, None
    for i in range(stored, len(rows)):
        row = rows[i]
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
