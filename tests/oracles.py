"""Reference checks that tests compare the library against.

`scalar_rref` and `scalar_matmul` never go through the field's packed
rows: entries are lists of codes and every operation is a scalar
`add`/`mul`/`neg`/`inv`, so a slip in packing, slot reduction or tail
updates cannot hide in both sides. `decomposition_check` decides whether
a rank decomposition is valid, using the library's own algebra.
`SLOW_REDUCTION` is the field whose packed rows are slowest to read.
`zeros` builds a zero matrix. `fixed_free_count`, `two_block_count`
and `normalized_count` are exact counts that enumeration checks at
small sizes and that stand in for it beyond them. `load_json` reads a
JSON matrix file by decoding the whole document with `json.loads`
before any check.
"""

import itertools
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


def normalized_count(k: int, p: int, q: int) -> int:
    """The number of (kp, p) block invertible squares over GF(q), q prime.

    Let G = GL(p, q) and S the set of kp x kp matrices M over GF(q) whose
    k^2 blocks M_ij are all in G and which are invertible. Call N in S
    normalized when N_1j = N_i1 = I for all i and j. The map
    (D1, N, D2) -> D1 N D2, with D1 = diag(g_1 .. g_k) and
    D2 = diag(h_1 .. h_k) block diagonal over G and N normalized, sends
    each triple into S: block (i, j) is g_i N_ij h_j, in G, and a product
    of invertible matrices is invertible. It is onto and exactly
    |G|-to-one. Given M and any g_1 in G, the first block-row forces
    h_j = g_1^-1 M_1j, the first block-column then forces
    g_i = M_i1 h_1^-1 (which for i = 1 gives back g_1), and with D1 and
    D2 fixed N = D1^-1 M D2^-1 is normalized and in S. So each of the
    |G| choices of g_1 gives one triple, and distinct g_1 give distinct
    triples. Hence |S| = |G|^(2k-1) times the number of normalized N:
    those whose (k-1)^2 inner blocks are in G and which are invertible.

    The normalized N are counted block-row by block-row, each choice of
    the k-1 inner blocks of a block-row kept only while the rows so far
    are independent, so a prefix of block-rows is reduced once for all
    the block-rows that may follow it.
    """
    blocks = itertools.product(itertools.product(range(q), repeat=p),
                               repeat=p)
    gl = [b for b in blocks if _extend({}, b, q) is not None]
    identity = tuple(tuple(int(i == j) for j in range(p)) for i in range(p))
    # the p rows of each block-row (I, B_2 .. B_k), as kp-tuples
    block_rows = [[sum(row, ()) for row in zip(identity, *inner)]
                  for inner in itertools.product(gl, repeat=k - 1)]

    def completions(basis, left):
        if not left:
            return 1
        return sum(completions(wider, left - 1) for rows in block_rows
                   if (wider := _extend(basis, rows, q)) is not None)

    first = [sum(row, ()) for row in zip(*[identity] * k)]
    return gl_count(p, q) ** (2 * k - 1) * completions(
        _extend({}, first, q), k - 1)


def _extend(basis: dict, rows, q: int):
    """`basis` (rows over GF(q) keyed by their leading column, where each
    holds a 1) with `rows` added, or None if they are not independent of
    it and of each other."""
    basis = dict(basis)
    for row in rows:
        while any(row):
            lead = next(c for c, x in enumerate(row) if x)
            if lead not in basis:
                inv = pow(row[lead], -1, q)
                basis[lead] = [x * inv % q for x in row]
                break
            f = row[lead]
            row = [(x - f * y) % q for x, y in zip(row, basis[lead])]
        else:
            return None
    return basis


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
