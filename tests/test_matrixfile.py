"""Matrix file round trips and malformed-input handling."""

import enum
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from blockinv import matrixfile
from blockinv.field import _clip, binary_field, parse_field, prime_field
from blockinv.matrix import Matrix
from blockinv.matrixfile import (JSON, TEXT, MatrixFileError, _ints, dump,
                                 dump_json, dump_text, load)
from oracles import load_json

GF2 = prime_field(2)
GF7 = prime_field(7)
GF256 = binary_field(8)

SAMPLE_FIELDS = [GF2, prime_field(3), GF7, prime_field(257),
                 binary_field(4), GF256, binary_field(8, 0x11D)]


def random_matrix(field, nrows, ncols, rnd):
    return Matrix(field, [[rnd.randrange(field.order) for _ in range(ncols)]
                          for _ in range(nrows)])


def test_text_format_shape():
    m = Matrix(GF2, [[1, 0], [1, 1]])
    text = dump_text(m, 2)
    assert text == "bim v1\ngf(2)\n2 2 2\n1 0\n1 1\n"


def test_json_format_shape():
    m = Matrix(GF7, [[1, 2, 3], [4, 5, 6]])
    obj = json.loads(dump_json(m, 1))
    assert obj == {"format": "bim", "version": 1, "field": "gf(7)",
                   "rows": 2, "cols": 3, "p": 1,
                   "data": [[1, 2, 3], [4, 5, 6]]}


def test_round_trip_100_random_matrices():
    rnd = random.Random(2718)
    for i in range(100):
        field = SAMPLE_FIELDS[i % len(SAMPLE_FIELDS)]
        nr = rnd.randrange(1, 9)
        nc = rnd.randrange(1, 9)
        m = random_matrix(field, nr, nc, rnd)
        p = rnd.randrange(1, 5)
        for fmt in (TEXT, JSON):
            text = dump(m, p, fmt)
            m2, p2 = load(text)
            assert m2 == m
            assert p2 == p
            assert dump(m2, p2, fmt) == text  # save -> load -> save stable


def test_modulus_survives_round_trip():
    f = binary_field(8, 0x11D)
    m = random_matrix(f, 3, 3, random.Random(0))
    m2, _ = load(dump_text(m, 3))
    assert m2.field.modulus == 0x11D
    assert m2 == m


def test_format_sniffing():
    m = Matrix(GF2, [[1]])
    assert load(dump_text(m, 1))[0] == m
    assert load(dump_json(m, 1))[0] == m
    assert load("  " + dump_json(m, 1))[0] == m  # leading whitespace ok


def test_unknown_dump_format():
    with pytest.raises(ValueError):
        dump(Matrix(GF2, [[1]]), 1, "csv")


@pytest.mark.parametrize("text", [
    "",
    "bim v2\ngf(2)\n1 1 1\n1\n",
    "nonsense\ngf(2)\n1 1 1\n1\n",
    "bim v1\ngf(6)\n1 1 1\n1\n",           # composite field
    "bim v1\nzf(2)\n1 1 1\n1\n",           # unparseable field
    "bim v1\ngf(2)\n1 1\n1\n",             # two header fields
    "bim v1\ngf(2)\n1 x 1\n1\n",           # non-integer header
    "bim v1\ngf(2)\n0 1 1\n\n",            # zero rows
    "bim v1\ngf(2)\n1 1 0\n1\n",           # zero block size
    "bim v1\ngf(2)\n2 1 1\n1\n",           # missing data row
    "bim v1\ngf(2)\n1 2 1\n1\n",           # short data row
    "bim v1\ngf(2)\n1 1 1\n2\n",           # code out of range
    "bim v1\ngf(2)\n1 1 1\nx\n",           # non-integer entry
    # int() takes these, but they are not ASCII decimal tokens
    "bim v1\ngf(11)\n1 1 1\n1_0\n",
    "bim v1\ngf(2)\n1 1 1\n+0\n",
    "bim v1\ngf(2)\n1 1 1\n\u0661\n",
    "bim v1\ngf(2)\n+1 1 1\n1\n",
    "bim v1\ngf(2)\n1 1 1_0\n1\n",
    "bim v1\ngf(2)\n1 1 \uff11\n1\n",
    "bim v1\ngf(\u0663)\n1 1 1\n1\n",
    # ints, but not in their one decimal spelling
    "bim v1\ngf(2)\n1 1 1\n-0\n",
    "bim v1\ngf(11)\n1 1 1\n007\n",
    "bim v1\ngf(2)\n001 1 1\n1\n",
    "bim v1\ngf(2)\n1 1 01\n1\n",
    "bim v1\ngf(007)\n1 1 1\n1\n",
    "bim v1\ngf(2^08)\n1 1 1\n1\n",
    "[[1]]",                               # JSON, but not an object
])
def test_malformed_text_rejected(text):
    with pytest.raises(MatrixFileError):
        load(text)


TOKENS = ["0", "7", "-7", "10", "-10", "65520", "007", "00", "-0", "-00",
          "+1", "1_0", "-", "--1", "1-", "x", "0x1", "1e3", "\u0661",
          "\uff11", "1\u0663", "9" * 5000]
#: str.isspace() characters, a run of them, and characters that are not
SEPARATORS = ([chr(c) for c in range(0x3001) if chr(c).isspace()]
              + [" \t\u3000", "\u200b", "\ufeff", "\u180e", ",", ""])
EDGES = [("", ""), (" ", "\n"), ("\u3000", "\x85")]


def per_token_rule(line):
    """Accept a line exactly when every token is str() of its int."""
    tokens = line.split()
    try:
        return all(str(int(t)) == t for t in tokens)
    except ValueError:
        return False


def test_line_spelling_check_matches_per_token_rule():
    for a, b in itertools.product(TOKENS, repeat=2):
        for sep in SEPARATORS:
            for lead, trail in EDGES:
                line = f"{lead}{a}{sep}{b}{trail}"
                if per_token_rule(line):
                    assert _ints(line, "entry in row") == list(
                        map(int, line.split())), repr(line)
                else:
                    with pytest.raises(MatrixFileError):
                        _ints(line, "entry in row")


@pytest.mark.parametrize("mutate", [
    lambda o: o.pop("field"),
    lambda o: o.pop("data"),
    lambda o: o.update(version=2),
    lambda o: o.update(format="csv"),
    lambda o: o.update(rows="2"),
    lambda o: o.update(data=[[0, 1]]),          # row count mismatch
    lambda o: o.update(data=[[0], [1, 0]]),     # ragged
    lambda o: o.update(data=[[0, 9], [1, 0]]),  # out of range
    lambda o: o.update(data=[[0, True], [1, 0]]),
    lambda o: o.update(p=True),
    lambda o: o.update(version=True),
    lambda o: o.update(version=1.0),
])
def test_malformed_json_rejected(mutate):
    obj = json.loads(dump_json(Matrix(GF2, [[0, 1], [1, 0]]), 2))
    mutate(obj)
    with pytest.raises(MatrixFileError):
        load(json.dumps(obj))


class Code(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("code", [-1, GF7.order, True, 1.5, "1", None],
                         ids=repr)
def test_loader_and_constructor_reject_the_same_codes(code):
    with pytest.raises(ValueError) as direct:
        Matrix(GF7, [[code]])
    obj = json.loads(dump_json(Matrix(GF7, [[0]]), 1))
    obj["data"] = [[code]]
    with pytest.raises(MatrixFileError) as loaded:
        load(json.dumps(obj))
    assert str(loaded.value) == str(direct.value)


@pytest.mark.parametrize("field", [GF7, prime_field(65521), binary_field(16)],
                         ids=str)
@pytest.mark.parametrize("code", [True, 2.0, -1, "order", 1 << 70], ids=repr)
def test_rejected_code_messages(field, code):
    code = field.order if code == "order" else code
    message = (f"element code must be an int, got {code!r}"
               if type(code) is not int else
               f"code {code} out of range for {field}")
    with pytest.raises(ValueError) as direct:
        Matrix(field, [[0, code]])
    obj = json.loads(dump_json(Matrix(field, [[0, 0]]), 1))
    obj["data"] = [[0, code]]
    with pytest.raises(MatrixFileError) as loaded:
        load(json.dumps(obj))
    assert str(direct.value) == str(loaded.value) == message
    if type(code) is int:  # the text format spells only ints
        with pytest.raises(MatrixFileError) as read:
            load(f"bim v1\n{field}\n1 2 1\n0 {code}\n")
        assert str(read.value) == message


def test_int_subclass_code_accepted():
    assert Matrix(GF7, [[Code.ONE]]) == Matrix(GF7, [[1]])


def test_json_minus_zero_rejected():
    # json.loads reads -0 as 0; a file spells zero one way, as in text
    text = dump_json(Matrix(GF2, [[1, 0], [0, 1]]), 1)
    for bad in (text.replace("[1, 0]", "[1, -0]"),
                text.replace('"p": 1', '"p": -0')):
        with pytest.raises(MatrixFileError, match="non-integer number -0"):
            load(bad)
    # -0 in a string, and -0.0, take the usual paths
    assert load(text.replace("{", '{"note": "-0", ', 1))[0] == load(text)[0]
    with pytest.raises(MatrixFileError, match="must be an int"):
        load(text.replace("[1, 0]", "[1, -0.0]"))


def test_invalid_json_text():
    with pytest.raises(MatrixFileError):
        load("{not json")
    with pytest.raises(MatrixFileError):
        load("[1, 2, 3]")


HUGE_INT = "9" * 5000  # longer than Python's int-conversion limit


@pytest.mark.parametrize("text", [
    '{"a": ' * 200_000,
    '{"format": "bim", "data": ' + "[" * 200_000 + "]" * 200_000 + "}",
    dump_json(Matrix(GF2, [[0, 1], [1, 0]]), 2).replace("[[0, 1]",
                                                        f"[[{HUGE_INT}, 1]"),
    dump_json(Matrix(GF2, [[0, 1], [1, 0]]), 2).replace('"rows": 2',
                                                        f'"rows": {HUGE_INT}'),
    f"bim v1\ngf({HUGE_INT})\n1 1 1\n1\n",
], ids=["deep-object", "deep-array", "huge-data", "huge-rows", "huge-field"])
def test_overlong_or_deep_input_rejected(text):
    with pytest.raises(MatrixFileError):
        load(text)


def test_field_notation_in_file_is_parseable_standalone():
    for field in SAMPLE_FIELDS:
        m = Matrix(field, [[0]])
        line = dump_text(m, 1).splitlines()[1]
        assert parse_field(line) == field


def assert_load_matches_oracle(text):
    """`load` rejects `text` exactly when `oracles.load_json` does, with
    the same message, and otherwise gives the same matrix and p. Both
    read the whole text, so both give an error's position from its
    start. Both reject every JSON syntax error and every -0 as invalid
    JSON, but where a text holds both, each may report either first."""
    try:
        expected = load_json(text)
    except MatrixFileError as e:
        with pytest.raises(MatrixFileError) as got:
            load(text)
        if "-0" in text and str(e).startswith("invalid JSON: "):
            assert str(got.value).startswith("invalid JSON: ")
        else:
            assert str(got.value) == str(e)
    else:
        assert load(text) == expected


JSON_SPACE = st.text(alphabet=" \t\n\r", max_size=2)
ONE_IN_EIGHT = st.sampled_from([False] * 7 + [True])
BAD_CODES = [-1, 7, True, 1.5, "1", None, [0], {"a": 0}]


@st.composite
def json_documents(draw):
    """JSON matrix files over GF(7), most of them sound: members in any
    order, some repeated or unknown, JSON whitespace between any two
    tokens, -0 for any 0, bad codes, rows that are not lists, wrong
    header values, and data after the object."""
    nrows, ncols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows = [draw(st.lists(st.integers(0, 6), min_size=ncols,
                          max_size=ncols)) for _ in range(nrows)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, ncols - 1))
        rows[i][j] = draw(st.sampled_from(BAD_CODES))
    if draw(st.booleans()):
        i = draw(st.integers(0, nrows - 1))
        rows[i] = draw(st.sampled_from([0, "row", None, [], [0] * (ncols + 1),
                                        {"a": [0]}]))
    header = st.sampled_from([0, 1, 2, -1, True, 2.0, "2", None])
    members = [("format", "bim"), ("version", 1), ("field", "gf(7)"),
               ("rows", nrows), ("cols", ncols), ("p", 1), ("data", rows)]
    members += draw(st.lists(st.sampled_from([
        ("format", "csv"), ("version", 2), ("field", "gf(2)"),
        ("field", "gf(6)"), ("field", 7), ("rows", nrows), ("cols", ncols),
        ("data", [[0] * ncols] * nrows), ("data", 0), ("note", "-0"),
        ("note", [[1, 2]])]), max_size=2))
    members += [(key, draw(header)) for key in draw(st.lists(
        st.sampled_from(["version", "rows", "cols", "p"]), max_size=1))]
    if draw(st.booleans()):
        members.pop(draw(st.integers(0, len(members) - 1)))
    members = draw(st.permutations(members))

    def space():
        return draw(JSON_SPACE)

    def spell(value):
        if isinstance(value, list):
            return "[" + (",".join(space() + spell(v) + space()
                                   for v in value) or space()) + "]"
        if value == 0 and type(value) is int and draw(ONE_IN_EIGHT):
            return "-0"
        return json.dumps(value)

    body = ",".join(f"{space()}{json.dumps(k)}{space()}:{space()}"
                    f"{spell(v)}{space()}" for k, v in members)
    tail = (draw(st.sampled_from(["x", "}", " {}", " 1"]))
            if draw(ONE_IN_EIGHT) else space())
    return f"{space()}{{{body or space()}}}{tail}"


@settings(deadline=None, max_examples=300)
@given(json_documents())
def test_json_reader_matches_whole_document_oracle(text):
    assert_load_matches_oracle(text)


SMALL = Matrix(GF7, [[1, 0], [6, 3]])
WRITTEN = dump_json(SMALL, 1)
REVERSED = ('{"data": [[1, 0], [6, 3]], "p": 1, "cols": 2, "rows": 2, '
            '"field": "gf(7)", "version": 1, "format": "bim"}')


@pytest.mark.parametrize("text", [
    WRITTEN,
    " {\n\t\"format\" :\r\"bim\" , \"version\":1,\"field\": \"gf(7)\","
    "\n \"rows\": 2, \"cols\": 2, \"p\": 1,\"data\":[ [1,0 ] ,\n[6, 3]\t]\n}\n",
    REVERSED,
], ids=["written", "spaced", "reversed"])
def test_every_truncation_matches_oracle(text):
    assert load(text)[0] == SMALL
    for end in range(1, len(text)):
        if text[:end].strip():
            assert_load_matches_oracle(text[:end])


@pytest.mark.parametrize("text, message", [
    # str.strip takes these as whitespace and JSON does not: the file is
    # still sniffed as JSON, and json.loads rejects it at its first char
    *[(c + WRITTEN, "Expecting value: line 1 column 1 (char 0)")
      for c in ("\x0c", "\x0b", "\u00a0", "\u0085", "\u3000")],
    (' \n\n  {"format": "bim", "version": 1,, }',
     "Expecting property name enclosed in double quotes: "
     "line 3 column 34 (char 36)"),
], ids=["form-feed", "vertical-tab", "no-break-space", "next-line",
        "ideographic-space", "error-after-newlines"])
def test_leading_whitespace_is_json_whitespace(text, message):
    # an error's position counts from the start of the file
    assert_load_matches_oracle(text)
    with pytest.raises(MatrixFileError) as got:
        load(text)
    assert str(got.value) == f"invalid JSON: {message}"


@pytest.mark.parametrize("text, message", [
    # rows stored against an earlier field or cols are read again
    (WRITTEN.replace("}", ', "field": "gf(3)"}'),
     "code 6 out of range for gf(3)"),
    (WRITTEN.replace("}", ', "cols": 1}'), "expected 1 entries per row"),
    (WRITTEN.replace('"data"', '"data": [[0, 9]], "data"'), None),
    (WRITTEN.replace("}", ', "data": [[1, 0], [6]]}'),
     "expected 2 entries per row"),
    (WRITTEN.replace('"field"', '"field": "gf(6)", "cols": 3, "field"')
     .replace("}", ', "cols": 2}'), None),
], ids=["field-after-data", "cols-after-data", "data-twice", "bad-data-last",
        "bad-header-first"])
def test_repeated_keys_last_one_wins(text, message):
    assert_load_matches_oracle(text)
    if message is None:
        assert load(text)[0] == SMALL
    else:
        with pytest.raises(MatrixFileError) as got:
            load(text)
        assert str(got.value) == message


@pytest.mark.parametrize("field, dump", [(binary_field(16), dump_json),
                                         (prime_field(65521), dump_text)],
                         ids=["gf(2^16)-json", "gf(65521)-text"])
def test_load_peak_is_well_below_one_boxed_int_per_code(field, dump):
    """Each row is stored as soon as it is read, so a 256x256 load never
    holds the matrix as ints. Holding it so takes an int object and a
    list slot per code; the traced peak of the load, field tables and
    the loaded matrix included, must stay under half of that."""
    rnd = random.Random(5)
    m = random_matrix(field, 256, 256, rnd)
    text = dump(m, 8)
    boxed = 256 * 256 * (sys.getsizeof(field.order - 1) + 8)
    load(text)  # so that imports and caches are not traced
    tracemalloc.start()
    try:
        got = load(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == (m, 8)
    assert peak < boxed / 2, (peak, boxed)


# ----------------------------------------------------------------------
# text codes over fields of order <= 256, spelled through one table
# ----------------------------------------------------------------------

#: Fields whose text codes go through the spelling table, and GF(257),
#: the first order whose codes do not.
SPELLED_FIELDS = [GF2, prime_field(3), prime_field(251), binary_field(4),
                  binary_field(8, 0x11B), binary_field(8, 0x11D),
                  prime_field(257)]


def load_general(text):
    """`load` with the spelling table emptied, so that every text body is
    read by the general reader (`_ints`), as before the table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixfile, "_SPELLINGS", ())
        return load(text)


def load_by_table(text):
    """`load` with `_ints` refusing every body line, so that it succeeds
    only if the spelling table read every row; `_ints` still reads the
    header line."""
    def header_only(line, what):
        assert what != "entry in row", f"_ints read the row {line!r}"
        return _ints(line, what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrixfile, "_ints", header_only)
        return load(text)


#: Runs of str.isspace() characters that split no line.
BLANKS = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "\u3000"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r", "\n \t\n", "\r\r\n"])


@st.composite
def spaced_text_files(draw):
    """A matrix and a text file of it whose codes are separated by mixed
    blanks, with blanks before and after them and mixed line ends."""
    field = draw(st.sampled_from(SPELLED_FIELDS))
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    m = Matrix(field, [draw(st.lists(st.integers(0, field.order - 1),
                                     min_size=ncols, max_size=ncols))
                       for _ in range(nrows)])
    lines = []
    for row in m.to_lists():
        spaced = [draw(st.sampled_from(["", " ", "\t"]))]
        for code in row:
            spaced += [str(code), draw(BLANKS)]
        spaced[-1] = draw(st.sampled_from(["", " ", "\t ", "\xa0"]))
        lines.append("".join(spaced) + draw(LINE_ENDS))
    return m, f"bim v1\n{field}\n{nrows} {ncols} 2\n" + "".join(lines)


@settings(deadline=None, max_examples=300)
@given(spaced_text_files())
def test_spelled_codes_read_as_the_general_reader_does(case):
    m, text = case
    assert load(text) == load_general(text) == (m, 2)
    if m.field.order <= 256:
        assert load_by_table(text) == (m, 2)
    written = dump_text(m, 2)
    assert written.splitlines()[3:] == [" ".join(map(str, row))
                                        for row in m.to_lists()]
    assert load(written) == (m, 2)


#: Tokens that int() may take but that are not a code's one spelling, an
#: over-long one, and ORDER, the field's order, one past its last code.
BAD_TOKENS = ["+0", "1_0", "007", "-0", "\u0661", "9" * 5000, "ORDER"]
LAYOUTS = {
    "first-row": "{t} 0\n0 0\n",
    "after-short-row": "0\n0 {t}\n",
    "before-short-row": "0 {t}\n0\n",
    "after-out-of-range": "0 ORDER\n{t} 0\n",
}


@pytest.mark.parametrize("field", [GF2, prime_field(11), GF256], ids=str)
@pytest.mark.parametrize("token", BAD_TOKENS,
                         ids=lambda t: repr(t[:6]))
@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
def test_bad_tokens_fail_as_in_the_general_reader(field, token, layout):
    body = layout.replace("{t}", token).replace("ORDER", str(field.order))
    text = f"bim v1\n{field}\n2 2 1\n{body}"
    with pytest.raises(MatrixFileError) as general:
        load_general(text)
    with pytest.raises(MatrixFileError) as got:
        load(text)
    assert str(got.value) == str(general.value)
    if layout == LAYOUTS["first-row"]:
        kind = "over-long" if token[0] == "9" else "non-integer"
        assert str(got.value) == (
            f"code {field.order} out of range for {field}" if token == "ORDER"
            else f"{kind} entry in row {_clip(repr(token + ' 0'))}")


@pytest.mark.parametrize("field", SPELLED_FIELDS, ids=str)
def test_boundary_codes(field):
    last = field.order - 1
    m, _ = load(f"bim v1\n{field}\n1 2 1\n{last} 0\n")
    assert m == Matrix(field, [[last, 0]])
    with pytest.raises(MatrixFileError) as got:
        load(f"bim v1\n{field}\n1 2 1\n{field.order} 0\n")
    assert str(got.value) == f"code {field.order} out of range for {field}"
