"""Field layer: construction, arithmetic axioms, notation."""

import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from blockinv.field import (BINARY, MAX_DEGREE, DegreeMismatchError,
                            FieldError, FieldSpec, NotPrimeError,
                            ReduciblePolynomialError, UnsupportedSizeError,
                            _generator, binary_field, parse_field,
                            prime_field)
from blockinv.matrix import Matrix
from oracles import SLOW_REDUCTION

GF2 = prime_field(2)
GF3 = prime_field(3)
GF5 = prime_field(5)
GF8 = binary_field(3)
GF16 = binary_field(4)
GF256 = binary_field(8)

SMALL_FIELDS = [GF2, GF3, GF5, GF8, GF16]


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------

def test_gf2_smallest_field():
    assert GF2.order == 2
    assert GF2.characteristic == 2
    assert GF2.degree == 1


def test_gf256_explicit_modulus():
    f = binary_field(8, 0x11B)
    assert f.order == 256
    assert f.modulus == 0x11B
    assert f == GF256  # 0x11B is also the default


def test_composite_characteristic_rejected():
    with pytest.raises(NotPrimeError):
        prime_field(4)
    with pytest.raises(NotPrimeError):
        prime_field(1)
    with pytest.raises(NotPrimeError):
        prime_field(65535)  # 3 * 5 * 17 * 257


def test_unsupported_sizes():
    with pytest.raises(UnsupportedSizeError):
        prime_field(65537)  # prime, but >= 2^16
    with pytest.raises(UnsupportedSizeError):
        binary_field(17)
    with pytest.raises(UnsupportedSizeError):
        binary_field(0)


def test_reducible_modulus_rejected():
    # x^8 + 1 = (x + 1)^8 over GF(2)
    with pytest.raises(ReduciblePolynomialError):
        binary_field(8, 0x101)
    # x^2 (degree matches, divisible by x)
    with pytest.raises(ReduciblePolynomialError):
        binary_field(2, 0b100)


def test_modulus_degree_must_match():
    for k, mask in ((8, 0x13),  # degree 4 polynomial for k=8
                    (2, 0x13),
                    (4, 0),
                    (2, -7),  # a negative int is no coefficient mask
                    (8, -0x11B)):
        with pytest.raises(DegreeMismatchError):
            binary_field(k, mask)


def test_bad_kind():
    with pytest.raises(FieldError):
        FieldSpec("ternary", 3)


def poly_long_division_remainder(a, m):
    """Independent oracle: schoolbook long division of GF(2) polynomials."""
    deg_m = m.bit_length() - 1
    while a.bit_length() - 1 >= deg_m and a != 0:
        shift = (a.bit_length() - 1) - deg_m
        a ^= m << shift
    return a


#: The default modulus of each degree: the smallest irreducible mask.
DEFAULT_MASKS = {1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43,
                 7: 0x83, 8: 0x11B, 9: 0x203, 10: 0x409, 11: 0x805,
                 12: 0x1009, 13: 0x201B, 14: 0x4021, 15: 0x8003,
                 16: 0x1002B}


def test_default_table_is_irreducible_by_long_division():
    # The constructor derives each default; this checks independently of
    # its trial division that the mask is irreducible and that every
    # smaller mask of degree k has a factor of degree 1..k//2.
    def has_factor(mask, k):
        return any(poly_long_division_remainder(mask, trial) == 0
                   for d in range(1, k // 2 + 1)
                   for trial in range(1 << d, 1 << (d + 1)))

    for k, mask in DEFAULT_MASKS.items():
        assert binary_field(k).modulus == mask
        assert mask.bit_length() - 1 == k
        assert not has_factor(mask, k), f"k={k}: 0x{mask:x} is reducible"
        for smaller in range(1 << k, mask):
            assert has_factor(smaller, k), f"k={k}: 0x{smaller:x} irreducible"


def test_every_default_degree_constructs():
    for k in range(1, MAX_DEGREE + 1):
        f = binary_field(k)
        assert f.order == 1 << k
        assert f.kind == BINARY


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------

def test_gf2_addition_is_xor():
    assert GF2.add(1, 1) == 0
    assert GF2.add(0, 1) == 1


def test_gf5_inverse_of_two():
    assert GF5.inv(2) == 3
    assert GF5.mul(2, 3) == 1


def test_gf256_times_x():
    # x * x^7 = x^8 = x^4 + x^3 + x + 1 modulo the AES polynomial
    assert GF256.mul(0x02, 0x80) == 0x1B


def test_binary_mul_matches_long_division_oracle():
    def oracle_mul(a, b, modulus):
        prod = 0
        for i in range(a.bit_length()):
            if (a >> i) & 1:
                prod ^= b << i
        return poly_long_division_remainder(prod, modulus)

    # 0x17B and 0x1CEB5 have the smallest generators 9 and 26, found
    # after rejecting several candidates of smaller order
    for fld in (GF16, binary_field(8, 0x17B)):
        for a in range(fld.order):
            for b in range(fld.order):
                assert fld.mul(a, b) == oracle_mul(a, b, fld.modulus)
            if a:
                assert oracle_mul(a, fld.inv(a), fld.modulus) == 1

    rnd = random.Random(1)
    for fld in (GF256, binary_field(8, 0x11D), binary_field(12),
                binary_field(14), binary_field(16, 0x1CEB5)):
        for _ in range(2000):
            a = rnd.randrange(fld.order)
            b = rnd.randrange(fld.order)
            assert fld.mul(a, b) == oracle_mul(a, b, fld.modulus)
            if b:
                assert oracle_mul(b, fld.inv(b), fld.modulus) == 1


def test_inverse_of_zero_raises():
    # both arms of the field arithmetic (odd p, characteristic 2) check
    # zero; over GF(2^k) the log table's zero sentinel does not stand in
    # for it
    for f in SMALL_FIELDS + [binary_field(1), prime_field(65521), GF256,
                             binary_field(16), SLOW_REDUCTION]:
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_binary_product_with_zero_is_zero():
    # log[0] is a sentinel that sends every product with a zero factor
    # into the zeros at the end of exp, instead of a test for zero
    rnd = random.Random(3)
    sample = [0, 1, 2, 0xFFFF] + [rnd.randrange(1 << 16) for _ in range(2000)]
    for f, codes in ((GF256, range(256)), (binary_field(16), sample),
                     (SLOW_REDUCTION, sample)):
        for a in codes:
            assert f.mul(0, a) == f.mul(a, 0) == 0


def multiplicative_order(f, g):
    v, i = g, 1
    while v != 1:
        v, i = f.mul(v, g), i + 1
    return i


@pytest.mark.parametrize("f", [binary_field(2), GF8, GF16, GF256,
                               binary_field(8, 0x17B), binary_field(12),
                               binary_field(16), binary_field(16, 0x1CEB5)],
                         ids=str)
def test_generator_is_the_smallest_of_full_order(f):
    g = _generator(f.degree, f.mul)
    assert multiplicative_order(f, g) == f.order - 1
    assert all(multiplicative_order(f, c) < f.order - 1 for c in range(2, g))


@pytest.mark.parametrize("f", [GF2, binary_field(1)], ids=str)
def test_gf2_is_the_degree_one_extension(f):
    # both spellings of GF(2) share the characteristic-2 tables, whose
    # generator search starts at 1, the generator of the trivial group
    assert _generator(1, f.mul) == 1
    assert [[f.mul(a, b) for b in (0, 1)] for a in (0, 1)] == [[0, 0], [0, 1]]
    assert f.inv(1) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


LANE_FIELDS = [GF2, GF3, prime_field(65521), GF256, binary_field(16),
               SLOW_REDUCTION, binary_field(8, 0x17B)]


@pytest.mark.parametrize("f", LANE_FIELDS, ids=str)
def test_lane_adder_matches_scalar_ops(f):
    # lane by lane x + g*y, over every triple of a few codes, zeros
    # included, then over random lanes; one pivot row of two lanes
    # serves several rows and factor lists. Over GF(p) the sums may be
    # left unreduced, so each is read as its code mod the order, which
    # is the code itself in a binary field; an unreduced sum added to
    # again stays congruent.
    rnd = random.Random(11)
    q = f.order
    codes = {0, 1, q - 1} | {rnd.randrange(q) for _ in range(3)}
    lanes = list(itertools.product(sorted(codes), repeat=3))
    lanes += [tuple(rnd.randrange(q) for _ in range(3))
              for _ in range(500)]
    xs, gs, ys = map(list, zip(*lanes))

    def added(row, fs):
        return [[f.add(x, f.mul(g, y)) for x, g, y in zip(lane, fs, top)]
                for lane, top in zip(row, (ys, xs))]

    def codes(row):
        return [[x % q for x in lane] for lane in row]

    add = f.lane_adder([ys, xs])
    for row, fs in (([xs, ys], gs), ([ys, xs], gs), ([xs, xs], ys)):
        sums = add(row, fs)
        assert codes(sums) == added(row, fs)
        assert codes(add(sums, fs)) == added(added(row, fs), fs)


@pytest.mark.parametrize("f", SMALL_FIELDS + [GF256, prime_field(251)],
                         ids=str)
def test_axioms(f):
    q = f.order
    # identities and commutativity: exhaustive pairs (every order here <= 256)
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
        for b in range(q):
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)

    # associativity and distributivity: exhaustive for tiny orders,
    # seeded random triples otherwise
    if q <= 8:
        triples = [(a, b, c) for a in range(q) for b in range(q)
                   for c in range(q)]
    else:
        rnd = random.Random(13)
        triples = [(rnd.randrange(q), rnd.randrange(q), rnd.randrange(q))
                   for _ in range(3000)]
    for a, b, c in triples:
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("f", SMALL_FIELDS + [GF256], ids=str)
def test_inverse_properties_exhaustive(f):
    for a in range(1, f.order):
        inv = f.inv(a)
        assert f.mul(a, inv) == 1
        assert f.inv(inv) == a


@pytest.mark.parametrize("f", SMALL_FIELDS + [GF256, prime_field(257)],
                         ids=str)
def test_characteristic_sum(f):
    acc = 0
    for _ in range(f.characteristic):
        acc = f.add(acc, 1)
    assert acc == 0


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_gf256_distributes(a, b, c):
    assert GF256.mul(a, GF256.add(b, c)) == GF256.add(
        GF256.mul(a, b), GF256.mul(a, c))


def test_validate_codes():
    GF5.row([4])
    with pytest.raises(ValueError):
        GF5.row([5])
    with pytest.raises(ValueError):
        GF5.row([-1])
    with pytest.raises(ValueError):
        GF5.row([True])
    # a whole row is checked, up to its last entry
    GF5.row([0, 1, 2, 3, 4])
    with pytest.raises(ValueError, match="code 5 out of range for gf"):
        GF5.row([0, 1, 2, 3, 5])


@pytest.mark.parametrize("f", [GF2, GF3, GF256, prime_field(65521),
                               binary_field(16)], ids=str)
def test_empty_row_in_every_spelling(f):
    # an empty bytes row is an empty stored row, as an empty list is
    for codes in (b"", [], ()):
        assert len(f.row(codes)) == 0


# ----------------------------------------------------------------------
# notation
# ----------------------------------------------------------------------

def test_notation_round_trip():
    for f in SMALL_FIELDS + [GF256, binary_field(8, 0x11D), prime_field(257)]:
        assert parse_field(str(f)) == f


def test_parse_is_case_insensitive():
    # in the gf prefix only: the mask is spelled as str() writes it
    assert parse_field("GF(5)") == GF5
    assert parse_field("Gf(2^8;0x11b)") == GF256


def test_parse_default_modulus():
    assert parse_field("gf(2^4)") == GF16


def test_parse_rejects_junk():
    huge = "9" * 5000  # longer than Python's int-conversion limit
    for bad in ("gf()", "gf(2^)", "gf(-3)", "field(5)", "gf(2^4;13)", "",
                f"gf({huge})", "gf(" + "0" * 4999 + "2)", f"gf(2^{huge})",
                f"gf(2^{huge};0x11b)", "gf(\u0663)", "gf(2^\u0668)",
                "gf(2^\uff18)", "gf(007)", "gf(00)", "gf(2^08)",
                "gf(2^08;0x11b)", "gf(2^8;0x011b)", "gf(2^8;0x11B)",
                "GF(2^8;0X011B)", "Gf(2^8;0X11B)", "gf(2^8;0x)",
                "gf(2^8;0x\uff11\uff11b)"):
        with pytest.raises(FieldError):
            parse_field(bad)


def test_field_equality_distinguishes_kind_and_modulus():
    assert prime_field(2) != binary_field(1)
    assert binary_field(8, 0x11B) != binary_field(8, 0x11D)
    assert prime_field(3) == prime_field(3)


# ----------------------------------------------------------------------
# pickling
# ----------------------------------------------------------------------

@pytest.mark.parametrize("notation", ["gf(2)", "gf(65521)", "gf(2^8;0x11d)",
                                      "gf(2^16)", "gf(2^1)"])
def test_field_and_matrix_pickle_round_trip(notation):
    # a field pickles as its notation, so the copy is equal, modulus
    # included, and computes the same
    f = parse_field(notation)
    copy = pickle.loads(pickle.dumps(f))
    assert copy == f and str(copy) == str(f) and copy.modulus == f.modulus
    top = f.order - 1
    assert copy.mul(top, top) == f.mul(top, top)
    assert copy.inv(top) == f.inv(top)
    m = Matrix(f, [[1, top], [top, 0]])
    back = pickle.loads(pickle.dumps(m))
    assert back == m and back.field == f
    assert back @ back == m @ m and back.inverse() == m.inverse()
