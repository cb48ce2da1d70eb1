"""Reference checks that tests compare the library against.

`scalar_rref` and `scalar_matmul` never go through the field's packed
rows: entries are lists of codes and every operation is a scalar
`add`/`mul`/`neg`/`inv`, so a slip in packing, slot reduction or tail
updates cannot hide in both sides. `decomposition_check` decides whether
a rank decomposition is valid, using the library's own algebra.
`SLOW_REDUCTION` is the field whose packed rows are slowest to read.
`zeros` builds a zero matrix. `fixed_free_count` and `two_block_count`
are exact counts that enumeration checks at small sizes and that stand
in for it beyond them. `load_json` reads a JSON matrix file by decoding
the whole document with `json.loads` before any check.
"""

import json

from blockinv.construct import gl_count
from blockinv.decompose import RankDecomposition, rank_normal_form
from blockinv.field import FieldError, _clip, _is_irreducible, binary_field
from blockinv.field import parse_field
from blockinv.matrix import Matrix, SingularMatrixError
from blockinv.matrixfile import MatrixFileError

#: The first GF(2^16) modulus x^16 + x^15 + ... : r = m XOR x^16 has degree
#: 15, so each reduction round lowers a slot's high part by one degree
#: only, and a packed row takes the most rounds to read.
SLOW_REDUCTION = binary_field(16, next(m for m in range(0x18001, 0x20000, 2)
                                       if _is_irreducible(m, 16)))


def scalar_rref(rows, field):
    """Gauss-Jordan on lists of codes, one entry at a time.

    Same pivot rule as the kernel: the first nonzero entry scanning down
    each column, columns left to right. Returns (reduced rows, pivot
    columns); `rows` is left untouched.
    """
    add, mul, neg = field.add, field.mul, field.neg
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        v = field.inv(rows[r][c])
        prow = rows[r] = [mul(v, x) for x in rows[r]]
        for i in range(len(rows)):
            g = neg(rows[i][c])
            if i != r and g:
                rows[i][c:] = [add(x, mul(g, y))
                               for x, y in zip(rows[i][c:], prow[c:])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def scalar_matmul(a, b, rows=None):
    """Rows of a @ b (all, or those listed) by the textbook triple loop."""
    f = a.field
    out = []
    for i in range(a.nrows) if rows is None else rows:
        row = []
        for j in range(b.ncols):
            acc = 0
            for k in range(a.ncols):
                acc = f.add(acc, f.mul(a[i, k], b[k, j]))
            row.append(acc)
        out.append(row)
    return out


def decomposition_check(s: Matrix, d: RankDecomposition) -> bool:
    """True iff d is a valid rank decomposition of s."""
    if not (s.is_square and d.left.nrows == s.nrows
            and d.right.nrows == s.nrows):
        return False
    try:
        d.left.inverse()
        d.right.inverse()
    except SingularMatrixError:
        return False
    if d.rank != s.rank():
        return False
    return d.left @ rank_normal_form(s.field, s.nrows, d.rank) @ d.right == s


def zeros(field, nrows: int, ncols: int) -> Matrix:
    """The nrows x ncols zero matrix over `field`."""
    return Matrix(field, [[0] * ncols] * nrows)


def _gaussian_binomial(p: int, k: int, q: int) -> int:
    """[p choose k]_q, the number of k-dimensional subspaces of GF(q)^p."""
    num = den = 1
    for i in range(k):
        num *= q ** (p - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def fixed_free_count(p: int, q: int) -> int:
    """N(p, q) = #{E in GL(p, q) : E - I in GL(p, q)}.

    Moebius inversion over the subspaces that E fixes pointwise:
    N = sum_k (-1)^k q^(k(k-1)/2) [p choose k]_q q^(k(p-k)) |GL(p-k, q)|,
    where q^(k(p-k)) |GL(p-k, q)| counts the E in GL(p, q) that fix a
    given k-dimensional subspace pointwise.
    """
    return sum((-1) ** k * q ** (k * (k - 1) // 2)
               * _gaussian_binomial(p, k, q) * q ** (k * (p - k))
               * (gl_count(p - k, q) if k < p else 1)
               for k in range(p + 1))


def two_block_count(p: int, q: int) -> int:
    """The number of (2p, p) block invertible squares over GF(q).

    [[A, B], [C, D]] with A, B, C, D in GL(p, q) is invertible iff
    D - C A^-1 B is. C -> C A^-1 B is a bijection of GL(p, q), and
    writing D = C A^-1 B E turns the condition into E - I in GL(p, q),
    so the count is |GL(p, q)|^3 N(p, q).
    """
    return gl_count(p, q) ** 3 * fixed_free_count(p, q)


def _no_minus_zero(token: str) -> int:
    if token == "-0":
        raise MatrixFileError("non-integer number -0")
    return int(token)


def load_json(text: str) -> tuple[Matrix, int]:
    """(matrix, p) of a JSON matrix file, or MatrixFileError.

    The whole document is decoded by `json.loads`, and decoded again with
    a hook that rejects the integer -0 if the text holds "-0". Then come
    the checks, in order: a "bim" object, version 1, every key present,
    the field, integer rows, cols and p, the shape, a list of `rows`
    rows, `cols` entries in each row, and the first code that
    `Matrix(field, rows)` rejects."""
    try:
        obj = json.loads(text)
        if "-0" in text:
            obj = json.loads(text, parse_int=_no_minus_zero)
    except (ValueError, RecursionError) as e:
        raise MatrixFileError(f"invalid JSON: {e}") from None
    if not isinstance(obj, dict) or obj.get("format") != "bim":
        raise MatrixFileError("not a bim matrix object")
    version = obj.get("version")
    if type(version) is not int or version != 1:
        raise MatrixFileError(f"unsupported version {_clip(repr(version))}")
    for key in ("field", "rows", "cols", "p", "data"):
        if key not in obj:
            raise MatrixFileError(f"missing key {key!r}")
    try:
        field = parse_field(str(obj["field"]))
    except FieldError as e:
        raise MatrixFileError(f"bad field: {e}") from None
    nrows, ncols, p = obj["rows"], obj["cols"], obj["p"]
    if not all(type(v) is int for v in (nrows, ncols, p)):
        raise MatrixFileError("rows, cols and p must be integers")
    if nrows < 1 or ncols < 1:
        raise MatrixFileError(
            f"bad dimensions {_clip(str(nrows))}x{_clip(str(ncols))}")
    if p < 1:
        raise MatrixFileError(f"bad block size {_clip(str(p))}")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != nrows:
        raise MatrixFileError(
            f"data must be a list of {_clip(str(nrows))} rows")
    if not all(isinstance(row, list) and len(row) == ncols for row in data):
        raise MatrixFileError(f"expected {_clip(str(ncols))} entries per row")
    try:
        return Matrix(field, data), p
    except ValueError as e:
        raise MatrixFileError(str(e)) from None
