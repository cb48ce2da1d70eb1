"""Matrix file round trips and malformed-input handling."""

import enum
import itertools
import json
import random

import pytest

from blockinv.field import binary_field, parse_field, prime_field
from blockinv.matrix import Matrix
from blockinv.matrixfile import (JSON, TEXT, MatrixFileError, _ints, dump,
                                 dump_json, dump_text, load)

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
