"""Rank decomposition of a square matrix through its rank normal form.

For any square S over a field there are invertible L and R with
S = L @ diag(I_r, 0) @ R where r = rank(S). This module computes one
such pair from a single reduction of [S | I]: it brings S to reduced
row-echelon form E and leaves P with P @ S = E in the right half. Then
L = P^-1, and R is E's r nonzero rows followed by the unit rows e_j of
the non-pivot columns j in increasing order, so diag(I_r, 0) @ R = E.
R is invertible: with its pivot columns moved to the front it is unit
upper triangular. Identical input yields bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldSpec
from .matrix import Matrix, _augmented, _row_reduce


@dataclass(frozen=True)
class RankDecomposition:
    """Invertible pair (left, right) with S = left @ diag(I_r, 0) @ right."""

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
    """Factor square S as S = left @ diag(I_r, 0) @ right.

    The output is deterministic but not unique as a mathematical object;
    for S already in normal form (identity, zero) both factors come out
    as the identity because elimination performs no operations.
    """
    if not s.is_square:
        raise ValueError(f"cannot decompose {s.nrows}x{s.ncols} matrix")
    n, f = s.nrows, s.field

    rows = _augmented(s)
    pivots = _row_reduce(rows, f, n)
    rows = [tuple(f.unpack(row, 2 * n)) for row in rows]
    units = tuple(tuple(1 if i == j else 0 for i in range(n))
                  for j in sorted(set(range(n)) - set(pivots)))
    left = Matrix._new(f, tuple(row[n:] for row in rows)).inverse()
    right = tuple(row[:n] for row in rows[:len(pivots)]) + units
    return RankDecomposition(left, Matrix._new(f, right), len(pivots))
