"""Reference checks that tests compare the library against.

`scalar_rref` and `scalar_matmul` never go through the field's packed
rows: entries are lists of codes and every operation is a scalar
`add`/`mul`/`neg`/`inv`, so a slip in packing, slot reduction or tail
updates cannot hide in both sides. `decomposition_check` decides whether
a rank decomposition is valid, using the library's own algebra.
"""

from blockinv.decompose import RankDecomposition, rank_normal_form
from blockinv.matrix import Matrix, SingularMatrixError


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
    return d.left @ s @ d.right == rank_normal_form(s.field, s.nrows, d.rank)
