"""Rank decomposition of a square matrix through its rank normal form.

For any square S over a field there are invertible P and Q with
P @ S @ Q = diag(I_r, 0) where r = rank(S). This module computes one
such pair: reducing [S | I] brings S to reduced row-echelon form and
leaves P in the right half, then column operations (recorded as Q) clear
the remaining entries and permute the pivots onto the leading diagonal.
Identical input yields bit-identical output.

Note the orientation: P and Q multiply S into the normal form, which is
what the corner-completion step consumes; they are the inverses of the
factors that would express S as a product through diag(I_r, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSpec
from .matrix import Matrix, _augmented, _row_reduce


@dataclass(frozen=True)
class RankDecomposition:
    """Invertible pair (left, right) with left @ S @ right = diag(I_r, 0)."""

    left: Matrix
    right: Matrix
    rank: int


def rank_normal_form(field: FieldSpec, n: int, r: int) -> Matrix:
    """The n x n matrix diag(I_r, 0)."""
    if not 0 <= r <= n:
        raise ValueError(f"rank {r} out of range 0..{n}")
    return Matrix._new(field, tuple(
        tuple(1 if i == j and i < r else 0 for j in range(n))
        for i in range(n)))


def rank_decompose(s: Matrix) -> RankDecomposition:
    """Factor square S as left @ S @ right = diag(I_r, 0).

    The output is deterministic but not unique as a mathematical object;
    for S already in normal form (identity, zero) both factors come out
    as the identity because elimination performs no operations.
    """
    if not s.is_square:
        raise ValueError(f"cannot decompose {s.nrows}x{s.ncols} matrix")
    n = s.nrows
    f = s.field

    rows = _augmented(s)
    pivots = _row_reduce(rows, f, n)
    rows = [f.unpack(row, 2 * n) for row in rows]
    r = len(pivots)

    # Column phase, on the right factor held as columns. In RREF, pivot
    # column pc has a lone 1 in pivot row i, so clearing entry (i, j)
    # with col_j -= rows[i][j] * col_pc touches no other entry of rows;
    # only the right factor needs the update, one axpy per operation.
    cols = [f.pack([1 if i == j else 0 for i in range(n)]) for j in range(n)]
    pivot_set = set(pivots)
    for i, pc in enumerate(pivots):
        for j in range(pc + 1, n):
            v = rows[i][j]
            if v and j not in pivot_set:
                cols[j] = f.axpy(cols[j], f.neg(v), cols[pc])

    # Permute pivot columns onto the leading diagonal; the remaining
    # columns keep their relative order.
    order = pivots + [j for j in range(n) if j not in pivot_set]

    p_mat = Matrix._new(f, tuple(tuple(row[n:]) for row in rows))
    q_mat = Matrix._new(f, tuple(zip(*(f.unpack(cols[j], n)
                                       for j in order))))
    return RankDecomposition(p_mat, q_mat, r)
