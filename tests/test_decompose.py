"""Rank decomposition: left @ S @ right = diag(I_r, 0)."""

import random

import pytest

from blockinv.decompose import (RankDecomposition, rank_decompose,
                                rank_normal_form)
from blockinv.field import binary_field, prime_field
from blockinv.matrix import Matrix

from oracles import decomposition_check

GF2 = prime_field(2)
GF3 = prime_field(3)
GF5 = prime_field(5)
GF16 = binary_field(4)
FIELDS = (GF2, GF3, GF16)


def random_square(field, n, rnd):
    """Square matrix of mixed rank: sometimes forced rank-deficient."""
    if n > 1 and rnd.random() < 0.5:
        r = rnd.randrange(0, n)
        if r == 0:
            return Matrix.zeros(field, n, n)
        a = Matrix(field, [[rnd.randrange(field.order) for _ in range(r)]
                           for _ in range(n)])
        b = Matrix(field, [[rnd.randrange(field.order) for _ in range(n)]
                           for _ in range(r)])
        return a @ b
    return Matrix(field, [[rnd.randrange(field.order) for _ in range(n)]
                          for _ in range(n)])


def test_identity_is_its_own_decomposition():
    for n in (1, 3, 5):
        d = rank_decompose(Matrix.identity(GF3, n))
        assert d.rank == n
        assert d.left == Matrix.identity(GF3, n)
        assert d.right == Matrix.identity(GF3, n)


def test_zero_matrix():
    d = rank_decompose(Matrix.zeros(GF2, 4, 4))
    assert d.rank == 0
    assert d.left == Matrix.identity(GF2, 4)
    assert d.right == Matrix.identity(GF2, 4)


def test_gf2_all_ones():
    s = Matrix(GF2, [[1, 1], [1, 1]])
    d = rank_decompose(s)
    assert d.rank == 1
    assert d.left @ s @ d.right == Matrix(GF2, [[1, 0], [0, 0]])


def test_rank_normal_form_shape():
    assert rank_normal_form(GF3, 3, 2).to_lists() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 0]]
    with pytest.raises(ValueError):
        rank_normal_form(GF3, 3, 4)


def test_non_square_rejected():
    with pytest.raises(ValueError):
        rank_decompose(Matrix.zeros(GF2, 2, 3))


def test_check_rejects_wrong_rank():
    eye = Matrix.identity(GF2, 2)
    good = RankDecomposition(eye, eye, 2)
    assert decomposition_check(eye, good)
    assert not decomposition_check(Matrix.zeros(GF2, 2, 2),
                                   RankDecomposition(eye, eye, 1))


def test_check_rejects_singular_factor():
    z = Matrix.zeros(GF2, 2, 2)
    eye = Matrix.identity(GF2, 2)
    assert not decomposition_check(eye, RankDecomposition(z, eye, 2))


def test_thousand_random_decompositions():
    rnd = random.Random(2024)
    for i in range(1000):
        field = FIELDS[i % 3]
        n = rnd.randrange(1, 9)
        s = random_square(field, n, rnd)
        d = rank_decompose(s)
        assert decomposition_check(s, d), f"failed at sample {i}"
        assert d.rank == s.rank()


def test_determinism():
    rnd = random.Random(7)
    for _ in range(20):
        s = random_square(GF16, 5, rnd)
        d1 = rank_decompose(s)
        d2 = rank_decompose(s)
        assert d1.left == d2.left
        assert d1.right == d2.right
        assert d1.rank == d2.rank


def test_needs_column_permutation():
    # First column zero forces the pivot off the diagonal.
    s = Matrix(GF5, [[0, 2, 0], [0, 0, 3], [0, 0, 0]])
    d = rank_decompose(s)
    assert d.rank == 2
    assert decomposition_check(s, d)
