"""Rank decomposition of a square matrix through its rank normal form.

For any square S over a field there are invertible L and R with
S = L @ diag(I_r, 0) @ R where r = rank(S). This module reads one such
pair off the single reduction of [S | I] to [E | P] that
`matrix._gauss_jordan` runs: E is the reduced row-echelon form of S and
P @ S = E.

R is E's r nonzero rows followed by the unit rows e_j of the non-pivot
columns j in increasing order, so diag(I_r, 0) @ R = E. R is invertible:
with its pivot columns moved to the front it is unit upper triangular.

L is P^-1, read off without inverting P: P @ [S | I] = [E | P] gives
L @ [E | P] = [S | I], so wherever a column of [E | P] is the unit
column e_k, column k of L is the column of [S | I] in that place. For
k < r that is E's k-th pivot column. For k >= r it is a column of P:
the row that elimination leaves at position k is never scaled and never
used to update another row, so the column of P that started as its unit
column is still e_k. When S is invertible this gives L = S and R = I.
Identical input yields bit-identical output.
"""

from __future__ import annotations

from collections import namedtuple

from .field import FieldSpec
from .matrix import Matrix, _gauss_jordan


class RankDecomposition(namedtuple("RankDecomposition",
                                   ("left", "right", "rank"))):
    """Invertible pair (left, right) with S = left @ diag(I_r, 0) @ right."""

    __slots__ = ()


def rank_normal_form(field: FieldSpec, n: int, r: int) -> Matrix:
    """The n x n matrix diag(I_r, 0)."""
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} out of range 0..{n}")
    return Matrix._new(field, Matrix.identity(field, n)._rows[:r]
                       + (field.row((0,) * n),) * (n - r))


def rank_decompose(s: Matrix) -> RankDecomposition:
    """Factor square S as S = left @ diag(I_r, 0) @ right.

    The output is deterministic but not unique as a mathematical object;
    for S already in normal form (identity, zero) both factors come out
    as the identity because elimination performs no operations.
    """
    if not s.is_square:
        raise ValueError(f"cannot decompose {s.nrows}x{s.ncols} matrix")
    n, f = s.nrows, s.field

    rows, pivots = _gauss_jordan(s)
    eye = [tuple(row) for row in Matrix.identity(f, n)._rows]
    # column k of left: the column of [S | I] under the first e_k in [E | P]
    reduced, source = list(zip(*rows)), [*zip(*s._rows), *eye]
    left = zip(*(source[reduced.index(e)] for e in eye))
    right = [row[:n] for row in rows[:len(pivots)]] + [
        eye[j] for j in range(n) if j not in pivots]
    return RankDecomposition(Matrix._new(f, tuple(map(f.row, left))),
                             Matrix._new(f, tuple(map(f.row, right))),
                             len(pivots))
