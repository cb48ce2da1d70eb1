"""The field-owned row operations and the elimination kernel built on them."""

import hashlib
import json

import pytest

from blockinv import field as field_module
from blockinv.decompose import rank_decompose
from blockinv.field import (_SHORT_ROW, _TABLE_ROWS, _shift_xor, binary_field,
                            parse_field, prime_field)
from blockinv.matrix import Matrix, SingularMatrixError, _echelon, _row_reduce
from blockinv.rng import SplitMix64

from oracles import (SLOW_REDUCTION, decomposition_check, scalar_matmul,
                     scalar_rref)

KERNEL_FIELDS = (prime_field(2), prime_field(3), prime_field(65521),
                 binary_field(8), binary_field(8, 0x11D), binary_field(16))
#: GF(2^k) for each slot width and for a partial top 4-bit window.
EXTENSION_FIELDS = [binary_field(k) for k in (2, 4, 5, 8, 9, 13, 16)] + [
    SLOW_REDUCTION]

#: sha256 of `_kernel_records()`. Results must stay byte-identical across
#: refactors of the kernel, so any change in pivot order or arithmetic
#: shows up here.
KERNEL_DIGEST = "f1352a3c7b2dcd84b8d45a55adbd6b2623b9ab7decd1fab44dbdb639ae69b644"


def _kernel_records():
    """Every kernel-backed result over a fixed-seed grid of matrices.

    Square matrices of sizes 1..13 in each field, dense (uniform codes)
    and sparse (three entries in four are zero, so singular matrices and
    pivot swaps are common), plus a wide n x (n+3) matrix per case for
    the rectangular rank path.
    """
    rng = SplitMix64(0xB10C)
    records = []
    for field in KERNEL_FIELDS:
        q = field.order
        for n in range(1, 14):
            for sparse in (False, True):
                def code():
                    if sparse and rng.below(4):
                        return 0
                    return rng.below(q)
                m = Matrix(field, [[code() for _ in range(n)]
                                   for _ in range(n)])
                wide = Matrix(field, [[code() for _ in range(n + 3)]
                                      for _ in range(n)])
                try:
                    inv = m.inverse().to_lists()
                except SingularMatrixError:
                    inv = "singular"
                # the digest pins the factors that reduce m to its normal
                # form, P @ m @ Q = diag(I_r, 0): the inverses of left
                # and right
                d = rank_decompose(m)
                rec = [str(field), n, sparse, m.rank(), wide.rank(), inv,
                       d.left.inverse().to_lists(),
                       d.right.inverse().to_lists(), d.rank,
                       (m @ m).to_lists(), (m + m).to_lists()]
                if n <= 5:
                    rec.append(m.kron(m).to_lists())
                records.append(rec)
    return records


def test_kernel_digest_is_pinned():
    blob = json.dumps(_kernel_records(), separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == KERNEL_DIGEST


def _check_row_ops(field, coeffs, xs, ys):
    """Row operations against scalar ones, on packed rows and on the rows
    an update returns, which a packed form may leave unreduced, with the
    update made for one use and for enough uses to build product tables;
    then the same on short rows cut from xs and ys."""
    pack, unpack, n = field.pack, field.unpack, len(xs)
    px, py = pack(xs), pack(ys)
    assert unpack(px, n) == xs and unpack(py, n) == ys
    assert [field.entry(px, j) for j in range(n)] == xs
    adds = [field.adder(py, uses) for uses in (1, _TABLE_ROWS)]
    for a in coeffs:
        assert unpack(field.scale(px, a), n) == [field.mul(a, x) for x in xs]
        sums = [field.add(x, field.mul(a, y)) for x, y in zip(xs, ys)]
        rows = [add(px, a) for add in adds]
        assert rows[0] == rows[1]
        row = rows[0]
        assert unpack(row, n) == sums
        assert [field.entry(row, j) for j in range(n)] == sums
        assert unpack(field.scale(row, a), n) == [field.mul(a, x)
                                                  for x in sums]
    if n > 7:
        for i in range(0, n, 7):
            _check_row_ops(field, coeffs, xs[i:i + 7], ys[i:i + 7])


@pytest.fixture
def shift_xors(monkeypatch):
    """The `other` of each shift-XOR product the fields compute."""
    calls = []

    def counted(other, row, a):
        calls.append(other)
        return _shift_xor(other, row, a)

    monkeypatch.setattr(field_module, "_shift_xor", counted)
    return calls


@pytest.mark.parametrize("field, width", [
    (prime_field(2), 1), (binary_field(1), 1), (prime_field(3), 64),
    (prime_field(65521), 64), (binary_field(2), 8), (binary_field(4), 8),
    (binary_field(5), 16), (binary_field(8), 16), (binary_field(9), 32),
    (binary_field(16), 32)], ids=str)
def test_pack_lays_entry_j_in_slot_j(field, width):
    rng = SplitMix64(width)
    for n in (1, 7, 65):
        codes = [rng.below(field.order) for _ in range(n)]
        assert field.pack(codes) == sum(x << (width * j)
                                        for j, x in enumerate(codes))


@pytest.mark.parametrize("field", [prime_field(2), prime_field(5),
                                   binary_field(4), binary_field(2),
                                   binary_field(5)], ids=str)
def test_row_ops_match_scalar_ops_exhaustively(field):
    elems = list(range(field.order))
    xs = [x for x in elems for _ in elems]
    ys = [y for _ in elems for y in elems]
    _check_row_ops(field, elems, xs, ys)


@pytest.mark.parametrize("field", [prime_field(65521), binary_field(16),
                                   SLOW_REDUCTION], ids=str)
def test_row_ops_match_scalar_ops_on_samples(field):
    rng = SplitMix64(0x5CA1E)
    q = field.order
    xs = [rng.below(q) for _ in range(4000)] + [0, 0, q - 1, 1]
    ys = [rng.below(q) for _ in range(4000)] + [0, q - 1, 0, 1]
    coeffs = [0, 1, q - 1] + [rng.below(q) for _ in range(40)]
    _check_row_ops(field, coeffs, xs, ys)


@pytest.mark.parametrize("field", EXTENSION_FIELDS, ids=str)
@pytest.mark.parametrize("slots", [_SHORT_ROW, _SHORT_ROW + 1])
def test_each_path_starts_past_its_boundary(field, slots, shift_xors):
    # Rows whose last entry is nonzero span exactly `slots` slots. Up to
    # _SHORT_ROW slots a scale works slot by slot, and one slot more it
    # runs one shift-XOR product. An update made for _TABLE_ROWS - 1 uses
    # runs one shift-XOR product per call, and one made for _TABLE_ROWS
    # uses reads product tables instead, on rows of either length.
    rng = SplitMix64(slots * field.degree)
    q = field.order
    xs, ys = ([rng.below(q) for _ in range(slots - 1)] + [1 + rng.below(q - 1)]
              for _ in range(2))
    px, py = field.pack(xs), field.pack(ys)
    adds = [field.adder(py, uses) for uses in (_TABLE_ROWS - 1, _TABLE_ROWS)]
    for a in [0, 1, q - 1] + [rng.below(q) for _ in range(20)]:
        sums = [field.add(x, field.mul(a, y)) for x, y in zip(xs, ys)]
        for add, tables in zip(adds, (False, True)):
            shift_xors.clear()
            row = add(px, a)
            assert len(shift_xors) == (not tables)
            assert field.unpack(row, slots) == sums
            assert [field.entry(row, j) for j in range(slots)] == sums
        shift_xors.clear()
        assert field.unpack(field.scale(px, a), slots) == [field.mul(a, x)
                                                           for x in xs]
        assert len(shift_xors) == (slots > _SHORT_ROW)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
def test_reduced_rows_match_scalar_gauss_jordan(field):
    # the whole reduced form, pivot columns included: outputs read only
    # the right half or the rank, so they would not show a stale pivot
    # column
    rng = SplitMix64(0x4EF)
    for nrows, ncols, zero_share in [(12, 15, 0), (12, 15, 3), (15, 12, 2),
                                     (30, 30, 1)]:
        codes = [[0 if rng.below(4) < zero_share else rng.below(field.order)
                  for _ in range(ncols)] for _ in range(nrows)]
        rref, pivots = scalar_rref(codes, field)
        rows = [field.pack(row) for row in codes]
        assert _echelon(list(rows), field, ncols) == pivots
        assert _row_reduce(rows, field, ncols) == pivots
        assert [field.unpack(row, ncols) for row in rows] == rref


def _counting_adder(field, uses_seen):
    """A fresh copy of `field` whose row updates record their `uses`."""
    field = parse_field(str(field))
    adder = field.adder

    def counted(other, uses):
        uses_seen.append(uses)
        return adder(other, uses)

    field.adder = counted
    return field


@pytest.mark.parametrize("field", EXTENSION_FIELDS, ids=str)
@pytest.mark.parametrize("nrows, tables", [(_TABLE_ROWS, False),
                                           (_TABLE_ROWS + 1, True),
                                           (3 * _TABLE_ROWS, True)])
def test_table_path_matches_scalar_gauss_jordan(field, nrows, tables):
    # A pivot row updates at most nrows - 1 rows, so nrows = _TABLE_ROWS
    # never builds product tables and one more row does; dense and sparse
    # fills, on wide and tall matrices, both ways.
    rng = SplitMix64(nrows * field.degree)
    for ncols, zero_share in [(nrows + 3, 0), (nrows + 3, 3),
                              (nrows - 2, 0), (nrows - 2, 2)]:
        codes = [[0 if rng.below(4) < zero_share else rng.below(field.order)
                  for _ in range(ncols)] for _ in range(nrows)]
        rref, pivots = scalar_rref(codes, field)
        uses = []
        counted = _counting_adder(field, uses)
        rows = [counted.pack(row) for row in codes]
        assert _echelon(list(rows), counted, ncols) == pivots
        assert _row_reduce(rows, counted, ncols) == pivots
        assert [counted.unpack(row, ncols) for row in rows] == rref
        if zero_share == 0:
            assert (max(uses) >= _TABLE_ROWS) == tables


def test_a_clear_column_builds_no_update():
    uses = []
    field = _counting_adder(binary_field(16), uses)
    rows = [field.pack(row) for row in Matrix.identity(field, 40).to_lists()]
    assert _row_reduce(rows, field, 40) == list(range(40))
    assert uses == []


def _square(field, n, fill, rng):
    """An invertible uniform n x n matrix, or the all-(q-1) matrix."""
    top = field.order - 1
    if fill == "top":
        return Matrix(field, [[top] * n] * n)
    while True:
        m = Matrix(field, [[rng.below(field.order) for _ in range(n)]
                           for _ in range(n)])
        if m.rank() == n:
            return m


# GF(2) rows that end just before, at and just past a 64-bit word,
# GF(65521) rows of 260 64-bit slots, and GF(2^k) rows of 8-, 16- and
# 32-bit slots on both sides of each slot-width switch, 20 slots (160 to
# 640 bits) or 260 slots long
@pytest.mark.parametrize("field, n", [(prime_field(2), 63),
                                      (prime_field(2), 64),
                                      (prime_field(2), 65),
                                      (prime_field(2), 130),
                                      (prime_field(65521), 260),
                                      (binary_field(2), 20),
                                      (binary_field(4), 20),
                                      (binary_field(5), 20),
                                      (binary_field(8), 20),
                                      (binary_field(9), 20),
                                      (binary_field(16), 20),
                                      (SLOW_REDUCTION, 20),
                                      (binary_field(16), 260)],
                         ids=lambda v: str(v))
@pytest.mark.parametrize("fill", ["random", "top"])
def test_kernel_past_one_machine_word(field, n, fill):
    m = _square(field, n, fill, SplitMix64(n))
    codes = m.to_lists()
    rref, pivots = scalar_rref(codes, field)
    assert m.rank() == len(pivots) == (n if fill == "random" else 1)

    rows = [field.pack(row) for row in codes]
    assert _echelon(list(rows), field, n) == pivots
    assert _row_reduce(rows, field, n) == pivots
    assert [field.unpack(row, n) for row in rows] == rref

    if fill == "random":
        assert m @ m.inverse() == Matrix.identity(field, n)
    else:
        with pytest.raises(SingularMatrixError):
            m.inverse()
    assert decomposition_check(m, rank_decompose(m))

    assert (m + m).to_lists() == [[field.add(x, x) for x in row]
                                  for row in codes]
    a = Matrix(field, [[1, field.order - 1, 0]])
    assert a.kron(m).to_lists() == [
        [field.mul(x, y) for x in a.to_lists()[0] for y in row]
        for row in codes]


@pytest.mark.parametrize("field", [prime_field(2), prime_field(3),
                                   prime_field(65521), binary_field(8),
                                   binary_field(16)], ids=str)
def test_product_matches_scalar_triple_loop(field):
    rng = SplitMix64(0x9E3)
    for r, k, c in [(1, 1, 1), (3, 70, 5), (40, 40, 40), (17, 65, 130)]:
        a = Matrix(field, [[rng.below(field.order) for _ in range(k)]
                           for _ in range(r)])
        b = Matrix(field, [[rng.below(field.order) for _ in range(c)]
                           for _ in range(k)])
        assert (a @ b).to_lists() == scalar_matmul(a, b)


def test_product_of_top_codes_fills_every_slot():
    # 300 products (p-1)^2 per entry: the heaviest load a 300-term GF(p)
    # sum can put on one slot. Every row of the left factor is the same,
    # so every row of the product must equal the triple-loop row 0.
    field = prime_field(65521)
    m = Matrix(field, [[field.order - 1] * 300] * 300)
    (row0,) = scalar_matmul(m, m, rows=[0])
    assert (m @ m).to_lists() == [row0] * 300


@pytest.mark.parametrize("n", [300, 301])
def test_binary_product_of_top_codes_fills_every_slot(n):
    # every term is the carry-less product (q-1)*(q-1) of degree 30, the
    # highest an unreduced 32-bit slot holds; n = 300 equal terms cancel
    # to 0, n = 301 leave one to reduce
    field = binary_field(16)
    m = Matrix(field, [[field.order - 1] * n] * n)
    (row0,) = scalar_matmul(m, m, rows=[0])
    assert row0 == [0 if n % 2 == 0 else field.mul(field.order - 1,
                                                    field.order - 1)] * n
    assert (m @ m).to_lists() == [row0] * n
