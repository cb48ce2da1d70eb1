"""The field-owned row operations and the elimination kernel built on them."""

import hashlib
import json
import sys
import tracemalloc

import pytest

from blockinv import field as field_module
from blockinv.decompose import rank_decompose
from blockinv.field import (_combine, _product_tables, binary_field,
                            parse_field, prime_field)
from blockinv.matrix import Matrix, SingularMatrixError, _echelon, _row_reduce
from blockinv.rng import SplitMix64

from oracles import (SLOW_REDUCTION, decomposition_check, scalar_matmul,
                     scalar_rref)

KERNEL_FIELDS = (prime_field(2), prime_field(3), prime_field(65521),
                 binary_field(8), binary_field(8, 0x11D), binary_field(16))
#: GF(2^k) for each slot width, for spare bits in a slot and for a
#: partial top 4-bit window.
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
    update applied to one row and to 16 rows, and with entry 0 dropped
    and shifted back in; then the same on short rows cut from xs and
    ys."""
    pack, n = field.pack, len(xs)

    def codes(row):
        return field.store(row, n).tolist()

    px, py = pack(xs), pack(ys)
    assert codes(px) == xs and codes(py) == ys
    assert [field.column([px, py], j) for j in range(n)] == [
        [x, y] for x, y in zip(xs, ys)]
    for a in coeffs:
        assert codes(field.scale(px, a)) == [field.mul(a, x) for x in xs]
        sums = [field.add(x, field.mul(a, y)) for x, y in zip(xs, ys)]
        # row - f*other with f = -a adds a*other
        f = field.neg(a)
        rows = field.sub_rows([px], [f], py) + field.sub_rows(
            [px] * 16, [f] * 16, py)
        assert rows == [rows[0]] * 17
        if not a:
            assert all(row is px for row in rows)
        row = rows[0]
        assert codes(row) == sums
        dropped = field.drop_rows([px] * 16, [f] * 16, py)
        assert dropped == [dropped[0]] * 16
        assert codes(field.shift(dropped[0], 1)) == [0] + sums[1:]
        assert [field.column([row, px], j) for j in range(n)] == [
            [s, x] for s, x in zip(sums, xs)]
        assert codes(field.scale(row, a)) == [field.mul(a, x) for x in sums]
    if n > 7:
        for i in range(0, n, 7):
            _check_row_ops(field, coeffs, xs[i:i + 7], ys[i:i + 7])


@pytest.fixture
def combines(monkeypatch):
    """The `other` of each product the fields form bit by bit from the
    rows x^i*other."""
    calls = []

    def counted(basis, row, a):
        calls.append(basis[0] if basis else None)
        return _combine(basis, row, a)

    monkeypatch.setattr(field_module, "_combine", counted)
    return calls


@pytest.fixture
def table_builds(monkeypatch):
    """The rows x^i*other behind each set of product tables the fields
    build, as (other, how many), (None, 0) for no row."""
    calls = []

    def counted(basis, *args):
        calls.append((basis[0] if basis else None, len(basis)))
        return _product_tables(basis, *args)

    monkeypatch.setattr(field_module, "_product_tables", counted)
    return calls


@pytest.mark.parametrize("name", ["pack", "store", "column", "scale",
                                  "sub_rows", "drop_rows", "shift",
                                  "lane_adder"])
def test_characteristic_two_binds_one_arm(name):
    # GF(2) in either spelling is GF(2^k) at k = 1: its row operations are
    # the same code as those of GF(2^8)
    codes = {getattr(field, name).__code__ for field in (
        prime_field(2), binary_field(1), binary_field(8))}
    assert len(codes) == 1


@pytest.mark.parametrize("field, width", [
    (prime_field(2), 8), (binary_field(1), 8), (prime_field(3), 64),
    (prime_field(65521), 64), (binary_field(2), 8), (binary_field(4), 8),
    (binary_field(5), 8), (binary_field(8), 8), (binary_field(9), 16),
    (binary_field(16), 16)], ids=str)
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
@pytest.mark.parametrize("slots", [8, 9])
def test_each_path_starts_past_its_boundary(field, slots, combines,
                                            table_builds):
    # Rows whose last entry is nonzero span exactly `slots` slots. Each
    # operation forms its products one way, on rows of either length and
    # however many rows it updates: a scale forms one product bit by bit,
    # and so does an update for each row with a nonzero factor, neither
    # building tables; a row with a zero factor forms none. The update
    # that drops entry 0 builds tables exactly once, from no row of
    # `other` when every factor is zero, and forms nothing bit by bit.
    rng = SplitMix64(slots * field.degree)
    q = field.order
    xs, ys = ([rng.below(q) for _ in range(slots - 1)] + [1 + rng.below(q - 1)]
              for _ in range(2))
    px, py = field.pack(xs), field.pack(ys)
    for a in [0, 1, q - 1] + [rng.below(q) for _ in range(20)]:
        sums = [field.add(x, field.mul(a, y)) for x, y in zip(xs, ys)]
        f = field.neg(a)
        for nrows in (1, 15, 16, 48):
            combines.clear()
            table_builds.clear()
            rows = field.sub_rows([px] * nrows, [f] * nrows, py)
            assert combines == ([py] * nrows if a else [])
            assert table_builds == []
            assert rows == [rows[0]] * nrows
            assert field.store(rows[0], slots).tolist() == sums
            assert [field.column(rows[:1], j)[0]
                    for j in range(slots)] == sums
            combines.clear()
            rows = field.drop_rows([px] * nrows, [f] * nrows, py)
            assert combines == []
            assert [b for b, _ in table_builds] == [py if a else None]
            assert rows == [rows[0]] * nrows
            assert field.store(field.shift(rows[0], 1), slots).tolist() == [
                0] + sums[1:]
        combines.clear()
        table_builds.clear()
        assert field.store(field.scale(px, a), slots).tolist() == [
            field.mul(a, x) for x in xs]
        assert len(combines) == 1
        assert table_builds == []


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
        assert [field.store(row, ncols).tolist() for row in rows] == rref


def _counting_updates(field, seen):
    """A fresh copy of `field` whose row updates, `sub_rows` and
    `drop_rows`, record how many of their factors are nonzero."""
    field = parse_field(str(field))

    def counting(update):
        def counted(rows, fs, other):
            seen.append(len(fs) - fs.count(0))
            return update(rows, fs, other)
        return counted

    field.sub_rows, field.drop_rows = map(counting, (field.sub_rows,
                                                     field.drop_rows))
    return field


@pytest.mark.parametrize("field", EXTENSION_FIELDS, ids=str)
@pytest.mark.parametrize("nrows", [16, 17, 48])
def test_many_rows_match_scalar_gauss_jordan(field, nrows):
    # A pivot row updates up to nrows - 1 rows, in the forward pass and
    # in the back-substitution. Dense and sparse fills, on wide and tall
    # matrices, both ways, and a fill with no zero code (zero_share
    # None), where the first pivot has nrows - 1 nonzero factors below
    # it.
    rng = SplitMix64(nrows * field.degree)
    for ncols, zero_share in [(nrows + 3, 0), (nrows + 3, 3),
                              (nrows - 2, 0), (nrows - 2, 2),
                              (nrows + 3, None), (nrows - 2, None)]:
        if zero_share is None:
            codes = [[1 + rng.below(field.order - 1) for _ in range(ncols)]
                     for _ in range(nrows)]
        else:
            codes = [[0 if rng.below(4) < zero_share
                      else rng.below(field.order) for _ in range(ncols)]
                     for _ in range(nrows)]
        rref, pivots = scalar_rref(codes, field)
        rows = [field.pack(row) for row in codes]
        assert _echelon(list(rows), field, ncols) == pivots
        assert _row_reduce(rows, field, ncols) == pivots
        assert [field.store(row, ncols).tolist() for row in rows] == rref


def test_a_clear_column_builds_no_update(table_builds):
    # every update of the identity has only zero factors, so none forms
    # a product: the tables that dropping a column builds hold no row
    seen = []
    field = _counting_updates(binary_field(16), seen)
    table_builds.clear()
    rows = [field.pack(row) for row in Matrix.identity(field, 40).to_lists()]
    assert _row_reduce(rows, field, 40) == list(range(40))
    assert set(seen) == {0}
    assert set(table_builds) == {(None, 0)}


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


# GF(2) rows of 8-bit slots that end just before, at and just past a
# 64-bit word (8 slots) and far past it, GF(65521) rows of 260 64-bit
# slots, and GF(2^k) rows of 8- and 16-bit slots on both sides of the
# slot-width switch and of a full slot, 20 slots (160 or 320 bits) or
# 260 slots long
@pytest.mark.parametrize("field, n", [(prime_field(2), 7),
                                      (prime_field(2), 8),
                                      (prime_field(2), 9),
                                      (prime_field(2), 63),
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
    assert [field.store(row, n).tolist() for row in rows] == rref

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
    # every term is the product (q-1)*(q-1), whose carry-less form has
    # degree 30, the most a product must reduce; n = 300 equal terms
    # cancel to 0, n = 301 leave one
    field = binary_field(16)
    m = Matrix(field, [[field.order - 1] * n] * n)
    (row0,) = scalar_matmul(m, m, rows=[0])
    assert row0 == [0 if n % 2 == 0 else field.mul(field.order - 1,
                                                    field.order - 1)] * n
    assert (m @ m).to_lists() == [row0] * n


#: The fields of the rank shapes below: GF(2), GF(p), and GF(2^k) for
#: each slot width and both GF(2^8) moduli.
RANK_FIELDS = [prime_field(2), prime_field(3), prime_field(65521),
               *EXTENSION_FIELDS, binary_field(8, 0x11D)]


def _rank_shapes(field, rng):
    """Matrices whose elimination leaves rows in every state: wide and
    tall, zero columns, columns with no pivot, duplicate rows, a pivot
    only in the last row, a single row or column, and all zeros."""
    q = field.order

    def rand(nrows, ncols):
        return [[rng.below(q) for _ in range(ncols)] for _ in range(nrows)]

    wide, tall = rand(5, 9), rand(9, 5)
    zero_cols = [[0, x, 0, y, 0, z] for x, y, z in rand(6, 3)]
    # column 2 is column 0 plus column 1, so it never holds a pivot
    no_pivot = [[x, y, field.add(x, y), z] for x, y, z in rand(5, 3)]
    dup = rand(3, 7)
    dup = [dup[0], dup[1], dup[0], dup[2], dup[1]]
    last = [[0] + row[1:] for row in rand(6, 6)]
    last[-1][0] = 1 + rng.below(q - 1)
    return [wide, tall, zero_cols, no_pivot, dup, last, rand(1, 7),
            rand(7, 1), [[0] * 4] * 3]


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
def test_rank_matches_scalar_oracle(field):
    # `_echelon` shifts each row back into place after dropping the
    # columns it cleared; the rank and the reduced form must agree with
    # entry-by-entry Gauss-Jordan on shapes that leave rows with and
    # without a pivot, and the inverse and rank decomposition of every
    # square one, built on the same pass over [A | I], must hold
    rng = SplitMix64(0x0A4C)
    for codes in _rank_shapes(field, rng):
        nrows, ncols = len(codes), len(codes[0])
        rref, pivots = scalar_rref(codes, field)
        m = Matrix(field, codes)
        assert m.rank() == len(pivots)
        rows = [field.pack(row) for row in codes]
        assert _row_reduce(rows, field, ncols) == pivots
        assert [field.store(row, ncols).tolist() for row in rows] == rref
        if nrows == ncols:
            assert decomposition_check(m, rank_decompose(m))
            if len(pivots) == nrows:
                assert m @ m.inverse() == Matrix.identity(field, nrows)


def _products_are_canonical(field, coeffs, codes):
    """a*row for each a of coeffs, through every path that forms a
    product, as packed rows equal to the packed scalar products: a slot
    holding anything but its canonical code would differ."""
    pack, n = field.pack, len(codes)
    row, zero = pack(codes), pack([0] * n)
    for a in coeffs:
        want = [field.mul(a, x) for x in codes]
        assert field.scale(row, a) == pack(want)
        for nrows in (1, 16):
            # 0 - a*row = a*row in characteristic 2
            assert field.sub_rows([zero] * nrows, [a] * nrows, row) == [
                pack(want)] * nrows
        assert field.drop_rows([zero] * 2, [a] * 2, row) == [
            pack(want[1:])] * 2


@pytest.mark.parametrize("field", [prime_field(2)]
                         + [binary_field(k) for k in range(1, 9)]
                         + [binary_field(8, 0x11D)], ids=str)
def test_products_are_canonical_exhaustively(field):
    # every factor times a row holding every code, so every slot with its
    # top bit set meets every factor, x = 2 (one step of the
    # multiply-by-x) among them
    q = field.order
    _products_are_canonical(field, range(q), list(range(q)))


@pytest.mark.parametrize("field", [binary_field(k) for k in range(9, 17)]
                         + [SLOW_REDUCTION], ids=str)
def test_products_are_canonical_on_samples(field):
    # long rows that hold the codes with only the top bit set, or all
    # bits, among random ones, times each power of x and sampled factors
    rng = SplitMix64(field.modulus)
    q = field.order
    codes = [rng.below(q) for _ in range(1500)] + [q >> 1, q - 1, 1]
    coeffs = ([1 << i for i in range(field.degree)] + [0, q - 1]
              + [rng.below(q) for _ in range(12)])
    _products_are_canonical(field, coeffs, codes)


def test_rank_holds_two_lists_of_two_byte_rows():
    # The rank of a random 256 x 256 GF(2^16) matrix keeps at most two
    # lists of n packed rows, the live rows and the ones an update makes,
    # each row an int of 2 bytes per code (sys.getsizeof gives what
    # CPython takes for one), plus a list pointer each; 64 KB covers the
    # product tables of one update, k + 64 rows the length of the first
    # one, and the column it reads. Rows of unreduced 32-bit slots would
    # need twice the first term.
    field, n = binary_field(16), 256
    rng = SplitMix64(0x3E3)
    m = Matrix(field, [[rng.below(field.order) for _ in range(n)]
                       for _ in range(n)])
    row_size = sys.getsizeof(field.pack([field.order - 1] * n))
    bound = 2 * n * (row_size + 8) + 64 * 1024
    tracemalloc.start()
    try:
        assert m.rank() == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
