"""Matrix algebra: multiply, invert, rank, Kronecker, blocking."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from blockinv.field import binary_field, prime_field
from blockinv.matrix import FieldMismatchError, Matrix, SingularMatrixError
from blockinv.matrixfile import dump_json, dump_text, load

from oracles import zeros

GF2 = prime_field(2)
GF3 = prime_field(3)
GF5 = prime_field(5)
GF16 = binary_field(4)


def random_matrix(field, nrows, ncols, rnd):
    return Matrix(field, [[rnd.randrange(field.order) for _ in range(ncols)]
                          for _ in range(nrows)])


def random_invertible(field, n, rnd):
    while True:
        m = random_matrix(field, n, n, rnd)
        if m.rank() == n:
            return m


# ----------------------------------------------------------------------
# multiply / add
# ----------------------------------------------------------------------

def test_identity_law():
    rnd = random.Random(0)
    m = random_matrix(GF5, 3, 3, rnd)
    assert Matrix.identity(GF5, 3) @ m == m
    assert m @ Matrix.identity(GF5, 3) == m


def test_gf2_product_by_hand():
    a = Matrix(GF2, [[1, 1], [0, 1]])
    b = Matrix(GF2, [[1, 0], [1, 1]])
    assert (a @ b).to_lists() == [[0, 1], [1, 1]]


def test_zero_annihilates():
    rnd = random.Random(1)
    m = random_matrix(GF3, 2, 4, rnd)
    z = zeros(GF3, 2, 2)
    assert (z @ m) == zeros(GF3, 2, 4)


def test_add_and_shape_errors():
    a = Matrix(GF5, [[1, 2], [3, 4]])
    b = Matrix(GF5, [[4, 3], [2, 1]])
    assert (a + b).to_lists() == [[0, 0], [0, 0]]
    with pytest.raises(ValueError):
        a + Matrix(GF5, [[1, 2, 3]])
    with pytest.raises(ValueError):
        a @ Matrix(GF5, [[1, 2], [3, 4], [0, 1]])


def test_field_mismatch():
    a = Matrix(GF2, [[1]])
    b = Matrix(GF3, [[1]])
    with pytest.raises(FieldMismatchError):
        a @ b
    with pytest.raises(FieldMismatchError):
        a + b
    # same order, different kind is still a mismatch
    with pytest.raises(FieldMismatchError):
        Matrix(GF2, [[1]]) @ Matrix(binary_field(1), [[1]])


def test_binary_field_product_against_scalar_expansion():
    rnd = random.Random(7)
    for _ in range(50):
        a = random_matrix(GF16, 3, 4, rnd)
        b = random_matrix(GF16, 4, 2, rnd)
        c = a @ b
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc = GF16.add(acc, GF16.mul(a[i, k], b[k, j]))
                assert c[i, j] == acc


# ----------------------------------------------------------------------
# inverse / rank
# ----------------------------------------------------------------------

def test_inverse_of_identity():
    for n in (1, 2, 5):
        assert Matrix.identity(GF5, n).inverse() == Matrix.identity(GF5, n)


def test_gf2_inverse_by_hand():
    m = Matrix(GF2, [[0, 1], [1, 1]])
    assert m.inverse().to_lists() == [[1, 1], [1, 0]]


def test_singular_and_nonsquare():
    with pytest.raises(SingularMatrixError):
        zeros(GF2, 2, 2).inverse()
    with pytest.raises(ValueError):
        zeros(GF2, 2, 3).inverse()


def test_thousand_random_inverses():
    rnd = random.Random(99)
    for field in (GF2, GF5, GF16):
        for _ in range(334):
            n = rnd.randrange(1, 9)
            m = random_invertible(field, n, rnd)
            assert m @ m.inverse() == Matrix.identity(field, n)
            assert m.inverse() @ m == Matrix.identity(field, n)


def test_rank_examples():
    assert Matrix.identity(GF2, 4).rank() == 4
    assert zeros(GF5, 3, 5).rank() == 0
    assert Matrix(GF2, [[1, 1], [1, 1]]).rank() == 1


def test_rank_equals_transpose_rank():
    rnd = random.Random(5)
    for field in (GF2, GF3, GF16):
        for _ in range(100):
            m = random_matrix(field, rnd.randrange(1, 7), rnd.randrange(1, 7), rnd)
            assert m.rank() == Matrix(field, zip(*m.to_lists())).rank()


def test_rank_of_forced_deficient_product():
    rnd = random.Random(8)
    for _ in range(50):
        r = rnd.randrange(0, 4)
        if r == 0:
            assert zeros(GF3, 5, 5).rank() == 0
            continue
        a = random_matrix(GF3, 5, r, rnd)
        b = random_matrix(GF3, r, 5, rnd)
        assert (a @ b).rank() <= r


# ----------------------------------------------------------------------
# kronecker
# ----------------------------------------------------------------------

def test_kron_with_identity_is_block_diagonal():
    rnd = random.Random(3)
    b = random_matrix(GF5, 2, 2, rnd)
    k = Matrix.identity(GF5, 2).kron(b)
    assert k.block(2, 0, 0) == b
    assert k.block(2, 1, 1) == b
    assert k.block(2, 0, 1) == zeros(GF5, 2, 2)
    assert k.block(2, 1, 0) == zeros(GF5, 2, 2)


def test_kron_gf3_example():
    a = Matrix(GF3, [[1, 1], [1, 2]])
    k = a.kron(Matrix.identity(GF3, 2))
    eye = Matrix.identity(GF3, 2)
    two_eye = Matrix(GF3, [[2, 0], [0, 2]])
    assert k.block(2, 0, 0) == eye
    assert k.block(2, 0, 1) == eye
    assert k.block(2, 1, 0) == eye
    assert k.block(2, 1, 1) == two_eye


def test_kron_scalar_case():
    b = Matrix(GF5, [[1, 2], [3, 4]])
    # 3 * B with entries reduced mod 5
    assert Matrix(GF5, [[3]]).kron(b).to_lists() == [[3, 1], [4, 2]]


def test_kron_block_law():
    rnd = random.Random(11)
    for field in (GF3, GF16):
        a = random_matrix(field, 3, 3, rnd)
        b = random_matrix(field, 2, 2, rnd)
        k = a.kron(b)
        for i in range(3):
            for j in range(3):
                scaled = Matrix(field, [[field.mul(a[i, j], x) for x in row]
                                        for row in b.to_lists()])
                assert k.block(2, i, j) == scaled


def test_kron_invertibility_exhaustive_gf2():
    # A (x) B invertible exactly when both factors are, over all 2x2 pairs
    mats = [Matrix(GF2, [[(v >> s) & 1 for s in (0, 1)],
                         [(v >> s) & 1 for s in (2, 3)]])
            for v in range(16)]
    for a in mats:
        for b in mats:
            expected = a.rank() == 2 and b.rank() == 2
            assert (a.kron(b).rank() == 4) == expected


# ----------------------------------------------------------------------
# blocking
# ----------------------------------------------------------------------

def test_block_get_on_identity():
    i4 = Matrix.identity(GF2, 4)
    assert i4.block(2, 0, 0) == Matrix.identity(GF2, 2)
    assert i4.block(2, 0, 1) == zeros(GF2, 2, 2)


def test_block_errors():
    i4 = Matrix.identity(GF2, 4)
    with pytest.raises(ValueError):
        i4.block(3, 0, 0)
    with pytest.raises(IndexError):
        i4.block(2, 0, 2)


def test_block_round_trip():
    rnd = random.Random(17)
    for field in (GF2, GF5):
        for (nr, nc, p) in [(4, 4, 2), (6, 4, 2), (6, 6, 3), (2, 8, 2)]:
            m = random_matrix(field, nr, nc, rnd)
            grid = [[m.block(p, i, j) for j in range(nc // p)]
                    for i in range(nr // p)]
            assert Matrix.from_blocks(grid) == m


def test_from_blocks_validates():
    a = Matrix.identity(GF2, 2)
    with pytest.raises(ValueError):
        Matrix.from_blocks([[a], [Matrix.identity(GF2, 3)]])
    with pytest.raises(FieldMismatchError):
        Matrix.from_blocks([[a, Matrix.identity(GF3, 2)]])


# ----------------------------------------------------------------------
# value semantics
# ----------------------------------------------------------------------

def test_constructor_validation():
    with pytest.raises(ValueError):
        Matrix(GF2, [])
    with pytest.raises(ValueError):
        Matrix(GF2, [[0, 1], [1]])
    with pytest.raises(ValueError):
        Matrix(GF2, [[0, 2]])


def test_equality_includes_field():
    assert Matrix(GF2, [[1]]) != Matrix(GF3, [[1]])
    assert Matrix(GF5, [[1, 2]]) == Matrix(GF5, [[1, 2]])
    assert hash(Matrix(GF5, [[1, 2]])) == hash(Matrix(GF5, [[1, 2]]))


@pytest.mark.parametrize("field", [GF5, GF16, binary_field(16),
                                   prime_field(65521)], ids=str)
def test_equal_matrices_hash_equal_however_built(field):
    rnd = random.Random(str(field))
    m = random_invertible(field, 4, rnd)
    eye = Matrix.identity(field, 4)
    grid = [[m.block(2, i, j) for j in range(2)] for i in range(2)]
    built = [Matrix(field, m.to_lists()),
             Matrix(field, (iter(row) for row in m.to_lists())),
             m @ eye, eye @ m, m.inverse().inverse(), m + zeros(field, 4, 4),
             Matrix.from_blocks(grid), load(dump_text(m, 2))[0],
             load(dump_json(m, 2))[0]]
    for other in built:
        assert other == m and hash(other) == hash(m)
    # the same codes in another shape are another matrix
    assert Matrix(field, [sum(m.to_lists(), [])]) != m
    # a set of blocks keeps one of each: the identity's blocks, those of
    # a strip assembled from them, and a unit block built from codes
    strip = Matrix.from_blocks([[eye.block(2, 1, 1), eye.block(2, 0, 1)]])
    blocks = {eye.block(2, i, j) for i in (0, 1) for j in (0, 1)}
    blocks |= {strip.block(2, 0, 0), strip.block(2, 0, 1),
               Matrix(field, [[1, 0], [0, 1]])}
    assert blocks == {Matrix.identity(field, 2), zeros(field, 2, 2)}


@pytest.mark.parametrize("field", [binary_field(16), prime_field(65521)],
                         ids=str)
def test_rows_are_stored_compactly(field):
    # two bytes a code: 256 rows of 256 codes take 128 KiB and a small
    # header per row, where tuples of int references took over 512 KiB
    rnd = random.Random(256)
    codes = [[rnd.randrange(field.order) for _ in range(256)]
             for _ in range(256)]
    tracemalloc.start()
    try:
        m = Matrix(field, codes)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 300_000
    assert m.to_lists() == codes


@settings(deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
       st.randoms(use_true_random=False))
def test_matmul_associative(n, m, k, rnd):
    a = random_matrix(GF16, n, m, rnd)
    b = random_matrix(GF16, m, k, rnd)
    c = random_matrix(GF16, k, n, rnd)
    assert (a @ b) @ c == a @ (b @ c)
