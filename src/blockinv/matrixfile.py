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

Both loaders hand each row to one sink, `_Rows`, which stores it as the
field's row as soon as it is added, so the ints of one row at a time are
alive, not those of the whole matrix beside a copy. A text line over a
field of order <= 256 is read through the inverse of the table of the
256 strings str(0)..str(255) that the writer spells codes with
(matrix.py), cut to the field's codes; a line with a token not in it
(another spelling, or a code out of range), and every line over a larger
field, is read by `_ints`, which checks its spelling and reads its ints
or raises. The JSON loader walks the top-level object itself, decoding
each key and value with json's scanner, and a "data" array one row at a
time, into the sink once "field" and "cols" have been read; rows read
before both are known go into it after the walk. Either way the errors
are those of reading every row first: a JSON syntax error anywhere, then
the header checks, then a malformed text line before a row of the wrong
length, and that before a code the field rejects, the first in row
order.
"""

from __future__ import annotations

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
    import json
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
    if text.lstrip().startswith(("{", "[")):
        return _load_json(text)
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
    # the inverse of the spelling table, cut to the field's codes; a line
    # it cannot read, and every line over a larger field, goes to _ints,
    # which reads it or raises its error
    code = (dict(zip(_SPELLINGS, range(field.order))).__getitem__
            if field.order <= len(_SPELLINGS) else None)
    rows = _Rows(field, ncols)
    for line in body:
        try:
            row = code and bytes(map(code, line.split()))
        except KeyError:  # another spelling, or a code out of range
            row = None
        rows.append(row or _ints(line, "entry in row"))
    return rows.matrix(), p


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
    import json
    # a hook on every int would slow every load, so only a text that
    # may hold -0 is decoded with it
    decoder = json.JSONDecoder(parse_int=_json_int if "-0" in text else None)
    # only JSON whitespace may precede the value, and error positions
    # count from the start of the text
    start = _SPACE.match(text).end()
    try:
        obj = (_read_object(text, start, decoder.raw_decode)
               if text.startswith("{", start) else decoder.decode(text))
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
    if not isinstance(data, (list, _Rows)) or len(data) != nrows:
        raise MatrixFileError(
            f"data must be a list of {_clip(str(nrows))} rows")
    if not (isinstance(data, _Rows)
            and (data.field, data.ncols) == (field, ncols)):
        rows = _Rows(field, ncols)
        for row in data:
            rows.append(row)
        data = rows
    return data.matrix(), p


def _read_object(s: str, i: int, decode) -> dict:
    """The members of the JSON object at s[i], the last of a repeated key
    winning as in json.loads, with nothing but JSON whitespace after it.
    `decode` is a JSONDecoder's raw_decode; a syntax error raises json's
    JSONDecodeError, with json's wording and position.

    "field" is parsed as soon as it is read, and kept as its FieldSpec or
    the FieldError that parsing raised. A "data" array read after a
    FieldSpec "field" and a positive int "cols" goes into a `_Rows` of
    that field and width, which stores each row as it is decoded; any
    other is kept as the list of its decoded elements."""
    import json
    members = {}
    i = _SPACE.match(s, i + 1).end()
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
                field, ncols = members.get("field"), members.get("cols")
                value = (_Rows(field, ncols) if isinstance(field, FieldSpec)
                         and type(ncols) is int and ncols > 0 else [])
                i = _read_rows(s, i, decode, value)
            else:
                value, i = decode(s, i)
                if key == "field":
                    try:
                        value = parse_field(str(value))
                    except FieldError as e:
                        value = e
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
    return members


def _read_rows(s: str, i: int, decode, rows) -> int:
    """Append each element of the JSON array at s[i] to `rows`, decoded
    on its own, before the next is decoded; return the index after the
    array."""
    import json
    i = _SPACE.match(s, i + 1).end()
    if s[i:i + 1] == "]":
        return i + 1
    while True:
        row, i = decode(s, i)
        rows.append(row)
        i = _SPACE.match(s, i).end()
        if s[i:i + 1] == "]":
            return i + 1
        if s[i:i + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
        i = _SPACE.match(s, i + 1).end()


def _check_shape(nrows: int, ncols: int, p: int):
    if nrows < 1 or ncols < 1:
        raise MatrixFileError(
            f"bad dimensions {_clip(str(nrows))}x{_clip(str(ncols))}")
    if p < 1:
        raise MatrixFileError(f"bad block size {_clip(str(p))}")


class _Rows:
    """A matrix's rows, stored as they are added.

    While every row added so far is a list, or a `bytes` read through the
    spelling table, of `ncols` codes that the field accepts, each is
    stored as soon as it is added. From the first row that is not, the
    rest are only measured, and kept as added, so that `matrix` raises
    the error the checks give in their order (see the module docstring)
    and the rows can still be added again to a sink of another field or
    width."""

    def __init__(self, field: FieldSpec, ncols: int):
        self.field, self.ncols = field, ncols
        self.stored, self.rest = [], []
        self.shaped, self.bad_code = True, None

    def append(self, row):
        if not isinstance(row, (list, bytes)) or len(row) != self.ncols:
            self.shaped = False
        elif self.shaped and self.bad_code is None:
            try:
                self.stored.append(self.field.row(row))
                return
            except ValueError as e:  # a code the field rejects
                self.bad_code = e
        self.rest.append(row)

    def __len__(self):
        return len(self.stored) + len(self.rest)

    def __iter__(self):
        """The rows as they were added, stored rows back as lists."""
        yield from map(list, self.stored)
        yield from self.rest

    def matrix(self) -> Matrix:
        if not self.shaped:
            raise MatrixFileError(
                f"expected {_clip(str(self.ncols))} entries per row")
        if self.bad_code is not None:
            raise MatrixFileError(str(self.bad_code))
        return Matrix._new(self.field, tuple(self.stored))
