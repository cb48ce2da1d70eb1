"""Exact arithmetic for the finite fields GF(p) and GF(2^k).

Field elements are plain Python ints ("codes"): the residue 0..p-1 for a
prime field, or the coefficient bitmask for a binary extension field
(bit i holds the coefficient of x^i). Zero and one are always the ints
0 and 1, so element equality, hashing and serialization need no wrapper
type. A FieldSpec validates its parameters once at construction and then
performs all arithmetic on codes.

A matrix stores each row as a compact array of codes, the field's
stored row, whose type only the field picks: an `array` of `typecode`,
the narrowest unsigned type that holds every code, 'B' for order <= 256
and 'H' above. `row(codes)` validates a row of codes and returns it as a
stored row, and `join(rows)` joins stored rows, or their bytes, into one.
A FieldSpec carries its operations as plain function attributes: the
scalar `add`, `neg`, `mul` and `inv`, and the row operations that all of
the matrix algebra is written in. Rows are handled packed: `pack` turns
a row of codes, a stored row above all, into the field's packed row,
`store(row, n)` turns a packed row of n entries back into a stored row,
and `scale(row, a) = a*row` works on a packed row. Three operations
take a whole list of packed rows at once, each one list comprehension:
`column(rows, j)` reads entry j of every row, the row update
`sub_rows(rows, fs, other)` returns the list of `row - f*other` for
each row and factor f, with a row whose factor is zero returned as it
is, and `drop_rows(rows, fs, other)` returns the same rows with entry 0,
which that update clears, shifted out of each. `shift(row, j)` undoes j
such drops: it moves a packed row up by j entries, with zeros in front.
One more operation works on lanes, plain lists of codes with one
entry per independent problem (verify.py decides many blocks at once
this way): `add = lane_adder(top)` reads the lanes of a pivot row once,
and `add(row, gs)` returns the lanes x + g*y of another row, lane by
lane, one list comprehension with no call per entry; over GF(p) it
leaves each sum unreduced, adding less than p^2 per update. All of them
are chosen together at construction by one arm per characteristic,
so neither the field nor any caller branches on the kind per operation,
and no caller sees a packed form:

    GF(p)      p odd: one int per row of 64-bit slots, slot j for column
               j; an update is row + (p - f)*other, reduced mod p only by
               `column`, `scale` and `store` (delayed modular reduction).
    GF(2^k)    k >= 1, gf(2) included: one int per row of w-bit slots,
               slot j holding the code of column j; w = 8 for k <= 8 and
               16 above, the width of a stored entry, so `pack` is one
               `int.from_bytes` of the stored row and `store` one
               `to_bytes`. An update XORs in the product f*other (in
               characteristic 2, -f = f), formed already reduced, so
               every slot always holds a canonical code.

Over GF(p), `pack` lays the bytes of a stored row into a zeroed buffer
of 64-bit slots by strided slice assignment, one per byte of an entry,
and reads the buffer with one `int.from_bytes`; `store` and `scale` read
the slots with one `struct.unpack` and reduce each mod p.

A GF(2^k) product starts from the rows x^i*other, i < k, each one step
from the one before, which multiplies every slot by x at once:
((v & low) << 1) XOR ((v >> (k-1)) & ones)*r, where `low` keeps bits
0..k-2 of each slot, `ones` holds 1 in each slot, and r = m XOR 2^k is
x^k mod m, of degree below k; a slot whose top bit shifts out takes r
in its place, so it stays canonical and never reaches the next slot. By
linearity f*other is the XOR of the rows x^i*other over the set bits i
of f (`_combine`), which is how `scale` and `sub_rows` form every
product. `drop_rows` instead first builds product tables from those rows
(the windows of M4RIE: Albrecht, ISSAC 2012): for each 4-bit window of a
scalar, the 16 sums of the four rows its bits select, by XOR doubling,
so a row costs one lookup and XOR per window, ceil(k/4) in all, whatever
the bits of f. Building them takes 15 row XORs per window, and a
window saves a row about one XOR (half of a factor's bits are set), so
tables pay off only when some 15 rows or more share them. Each
`drop_rows` call clears a column below a pivot, in every live row of an
elimination. `sub_rows` serves products and the back-substitution of
`inverse` and `rank_decompose`; the construction calls them on p x p
blocks, so an update there has at most p nonzero factors, too few to
share tables for the usual block sizes of 4 to 8. `sub_rows` keeps the
one form that builds none, and a large dense product or inverse over
GF(2^k), k >= 8, pays for that.
At k = 1 the only nonzero factor is 1, whose product is `other` itself,
so no row is ever multiplied by x, and prime gf(2), which has no
modulus, needs none.

A GF(p) slot never borrows, because `sub_rows` subtracts f*other by
adding (p - f)*other, whose factor lies in 1..p-1 for a nonzero
canonical f, and never carries into the next slot: if every row added is
canonical (scaled, or fresh from `pack`), each update adds less than
p^2 <= 2^32 to a slot, so a slot that starts canonical stays below 2^64
for fewer than 2^32 additions. The elimination kernel adds to a row at
most once per pivot, and a product once per inner index. The slot that
`drop_rows` shifts out holds a multiple of p, an entry of 0.

The default modulus for GF(2^k) is derived: it is the irreducible
polynomial of degree k with the smallest coefficient mask, so that
independent implementations agree byte-for-byte. For reference:

    k=1   x                  0x2        k=9    x^9+x+1            0x203
    k=2   x^2+x+1            0x7        k=10   x^10+x^3+1         0x409
    k=3   x^3+x+1            0xB        k=11   x^11+x^2+1         0x805
    k=4   x^4+x+1            0x13       k=12   x^12+x^3+1         0x1009
    k=5   x^5+x^2+1          0x25       k=13   x^13+x^4+x^3+x+1   0x201B
    k=6   x^6+x+1            0x43       k=14   x^14+x^5+1         0x4021
    k=7   x^7+x+1            0x83       k=15   x^15+x+1           0x8003
    k=8   x^8+x^4+x^3+x+1    0x11B      k=16   x^16+x^5+x^3+x+1   0x1002B

Any other irreducible polynomial of the right degree may be passed in
explicitly (e.g. the mask 0x11D for the Reed-Solomon flavour of GF(2^8)).
The log/exp tables behind GF(2^k) products use the smallest generator of
the multiplicative group, also derived: g = 1, 2, 3, ... is tested by
its order, g^((2^k - 1)/r) != 1 for each prime r dividing 2^k - 1 (1
passes only for k = 1), and one walk of the first g that passes fills
the tables. (The default modulus is not always primitive: x has order
21845 under 0x1002B, and g = 3.)
The tables are arrays of machine ints, 768 KB in all for GF(2^16), and
boxed ints would take six times that: exp holds 16-bit codes, the powers
g^0 .. g^(q-2) twice so that exp[log[a] + log[b]] needs no reduction,
then zeros up to index 4(q-1); log holds 32-bit logs, with the sentinel
log[0] = 2(q-1), which sends every sum with a zero factor into those
zeros. So `mul` and `lane_adder` read a product with no test for
zero; `inv` still tests for it, and raises.

Field notation used by files and the CLI: ``gf(p)`` for prime fields and
``gf(2^k;0xMASK)`` for binary fields (``gf(2^k)`` selects the default
modulus). Parsing is whitespace-free, takes ``gf`` in either case, and
takes each number in the one spelling that str() of a FieldSpec writes:
decimal sizes in ASCII digits with no leading zero, and the mask as
``0x`` followed by lowercase hex digits with no leading zero.
"""

from __future__ import annotations

import operator
import re
import struct
import sys
from array import array

PRIME = "prime"
BINARY = "binary"

#: Exclusive upper bound on the prime p; keeps every code in 16 bits and
#: every product of two codes below 2^32.
MAX_PRIME = 1 << 16
#: A GF(p) packed row holds one entry per 64-bit slot.
_SLOT_MASK = (1 << 64) - 1
#: Largest supported extension degree for GF(2^k).
MAX_DEGREE = 16
#: An array holds its entries in the machine's byte order; packed rows
#: are read from little-endian bytes.
_BIG_ENDIAN = sys.byteorder == "big"


class FieldError(ValueError):
    """Invalid field description."""


class NotPrimeError(FieldError):
    """Requested prime field with a composite characteristic."""


class ReduciblePolynomialError(FieldError):
    """Modulus polynomial factors over GF(2)."""


class DegreeMismatchError(FieldError):
    """Modulus polynomial degree differs from the extension degree."""


class UnsupportedSizeError(FieldError):
    """Field size outside the supported range."""


def _clip(text: str) -> str:
    """Input quoted in an error message: 40 characters, then its length."""
    return (text if len(text) <= 40
            else f"{text[:40]}... ({len(text)} characters)")


#: Witnesses that make Miller-Rabin exact for every n < 3.1 * 10^23
#: (Sorenson and Webster, Math. Comp. 86, 2017), so for every 64-bit n.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; exact for n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_mod(a: int, m: int) -> int:
    """Remainder of the GF(2) polynomial a modulo m."""
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def _is_irreducible(mask: int, k: int) -> bool:
    """Trial division by every polynomial of degree 1..k//2."""
    for d in range(1, k // 2 + 1):
        for t in range(1 << d, 1 << (d + 1)):
            if _poly_mod(mask, t) == 0:
                return False
    return True


def _default_modulus(k: int) -> int:
    """The irreducible polynomial of degree k with the smallest mask."""
    return next(m for m in range(1 << k, 2 << k) if _is_irreducible(m, k))


class FieldSpec:
    """A finite field GF(p) or GF(2^k), operating on int element codes.

    Immutable after construction; all operations are pure functions of
    their arguments, so a FieldSpec may be shared freely across threads.
    `typecode` is the array typecode of the field's stored rows, which
    `row(codes)` and `join(rows)` build. The attributes `add(a, b)`,
    `neg(a)`, `mul(a, b)`, `inv(a)`, the packed-row conversions
    `pack(codes)` and `store(row, n)`, the row operation `scale(row, a)`,
    the operations on lists of rows `column(rows, j)`,
    `sub_rows(rows, fs, other)` and `drop_rows(rows, fs, other)`,
    `shift(row, j)` and the lane update `lane_adder(top)` are its
    arithmetic, bound once by `_arithmetic`.
    """

    __slots__ = ("kind", "characteristic", "degree", "modulus", "order",
                 "typecode", "add", "neg", "mul", "inv", "pack", "store",
                 "column", "scale", "sub_rows", "drop_rows", "shift",
                 "lane_adder")

    def __init__(self, kind: str, size: int, modulus: int | None = None):
        """Build GF(size) for kind PRIME, or GF(2^size) for kind BINARY."""
        if kind == PRIME:
            if modulus is not None:
                raise FieldError("prime fields take no modulus polynomial")
            if size >= MAX_PRIME:
                raise UnsupportedSizeError(
                    f"prime {_clip(str(size))} is >= 2^16")
            if not _is_prime(size):
                raise NotPrimeError(f"{size} is not prime")
            self.characteristic = size
            self.degree = 1
            self.modulus = None
            self.order = size
        elif kind == BINARY:
            if not 1 <= size <= MAX_DEGREE:
                raise UnsupportedSizeError(
                    f"extension degree {_clip(str(size))} "
                    f"outside 1..{MAX_DEGREE}")
            if modulus is None:
                modulus = _default_modulus(size)
            elif modulus >> size != 1:
                raise DegreeMismatchError(
                    f"modulus {_clip(hex(modulus))} is not a polynomial of "
                    f"degree {size}")
            elif not _is_irreducible(modulus, size):
                raise ReduciblePolynomialError(
                    f"modulus 0x{modulus:x} is reducible over GF(2)")
            self.characteristic = 2
            self.degree = size
            self.modulus = modulus
            self.order = 1 << size
        else:
            raise FieldError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.typecode = "B" if self.order <= 256 else "H"
        for name, op in _arithmetic(self).items():
            setattr(self, name, op)

    # ------------------------------------------------------------------
    # identity / notation
    # ------------------------------------------------------------------
    def __eq__(self, other):
        return self is other or (isinstance(other, FieldSpec)
                                 and self.kind == other.kind
                                 and self.order == other.order
                                 and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.kind, self.order, self.modulus))

    def __str__(self):
        if self.kind == PRIME:
            return f"gf({self.characteristic})"
        return f"gf(2^{self.degree};0x{self.modulus:x})"

    def __repr__(self):
        return f"FieldSpec({self})"

    def __reduce__(self):
        # the operations are closures, so a field pickles as its notation,
        # which names it exactly, modulus included
        return parse_field, (str(self),)

    def row(self, codes) -> array:
        """A sequence of codes as a stored row, an array of `typecode`;
        raises ValueError unless every code is a canonical element here.

        Over a field of order <= 256, a `bytes` row of codes below the
        order is copied as it is. A row of plain ints below the order is
        packed by one `struct.pack`, which also rejects a negative code,
        so a sound row is never read code by code in Python; any other
        row is checked code by code, which names its first bad code."""
        if type(codes) is bytes and self.typecode == "B":
            if max(codes, default=0) < self.order:
                return array("B", codes)
        elif set(map(type, codes)) == {int} and max(codes) < self.order:
            try:
                return array(self.typecode, struct.pack(
                    f"{len(codes)}{self.typecode}", *codes))
            except struct.error:  # a negative code
                pass
        for code in codes:
            if not isinstance(code, int) or isinstance(code, bool):
                raise ValueError(
                    f"element code must be an int, got {_clip(repr(code))}")
            if not 0 <= code < self.order:
                raise ValueError(
                    f"code {_clip(str(code))} out of range for {self}")
        return array(self.typecode, codes)  # codes of an int subclass

    def join(self, rows) -> array:
        """Stored rows, or their bytes, end to end as one stored row."""
        return array(self.typecode, b"".join(rows))


def _little_endian(row, typecode: str) -> array:
    """A row of codes as an array of `typecode` in little-endian byte
    order, or an array of little-endian codes back in the host's order
    (a byte swap is its own inverse); on a little-endian host an array
    is returned as it is."""
    if type(row) is not array or _BIG_ENDIAN:
        row = array(typecode, row)
        if _BIG_ENDIAN:
            row.byteswap()
    return row


def _combine(basis: list[int], row: int, a: int) -> int:
    """row XOR basis[i] for each set bit i of a."""
    while a:
        bit = a & -a
        row ^= basis[bit.bit_length() - 1]
        a ^= bit
    return row


def _product_tables(basis: list[int], bits: int = 4) -> list[list[int]]:
    """For each `bits`-bit window of a 16-bit scalar, the sums of the
    basis rows that the values of the window select, built by doubling;
    a window past the basis is [0]."""
    tables = []
    for s in range(0, 16, bits):
        table = [0]
        for b in basis[s:s + bits]:
            table += [x ^ b for x in table]
        tables.append(table)
    return tables


def _power(a: int, e: int, mul) -> int:
    """a^e under the product `mul`, by square-and-multiply."""
    r = 1
    while e:
        if e & 1:
            r = mul(r, a)
        a = mul(a, a)
        e >>= 1
    return r


def _generator(k: int, mul) -> int:
    """The smallest generator of GF(2^k)*, k >= 1, under the product
    `mul`.

    g generates the group of order n = 2^k - 1 exactly when
    g^(n/r) != 1 for every prime r dividing n, so no candidate's powers
    are walked. The search starts at 1, which passes only for k = 1,
    where n = 1 has no prime divisor and the group is {1}.
    """
    n = (1 << k) - 1
    primes, rest, d = [], n, 3  # n is odd
    while d * d <= rest:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 2
    if rest > 1:
        primes.append(rest)
    return next(g for g in range(1, n + 1)
                if all(_power(g, n // r, mul) != 1 for r in primes))


def _arithmetic(field: FieldSpec) -> dict:
    """The operations of `field` by name, one arm per characteristic:
    64-bit slots for odd p, canonical w-bit slots for every field of
    characteristic 2, gf(2) and gf(2^1) included.

    `pack(codes)` turns a row of codes into the arm's packed row, and
    `store(row, n)` turns a packed row of n entries back into a stored
    row of canonical codes; `column(rows, j)` returns entry j of each of
    a list of packed rows as a list of canonical codes. scale(row, a) is
    a*row with canonical entries. sub_rows(rows, fs, other) takes a list
    of packed rows, a list of as many canonical codes and a canonical row
    `other` (scaled, or fresh from `pack`), and returns a new list of
    row - f*other for each row and its f; a row whose f is zero comes
    back as it is. drop_rows(rows, fs, other) returns the same new rows
    with entry 0 shifted out of each, so with each f entry 0 of its row
    and entry 0 of `other` 1 it clears and drops column 0. shift(row, j)
    returns `row` with j zero entries in front. None of them modifies
    its arguments. Over GF(p) the rows `sub_rows` and `drop_rows` return
    may hold unreduced slots, which only `column`, `scale` and `store`
    read (see the module docstring for why no slot overflows). Over
    GF(2^k), `scale` and `sub_rows` form each product bit by bit, and
    `drop_rows` builds product tables once per call and reads every
    product from them.
    lane_adder(top) takes the lanes of a pivot row, equal length lists
    of codes, and returns add(row, gs), which takes as many lanes of the
    same length and a list of canonical factors, and returns the new
    lanes x + g*y lane by lane, reduced except over GF(p); top may hold
    unreduced GF(p) codes. inv(0) raises ZeroDivisionError.
    """
    no_inverse = f"0 has no multiplicative inverse in {field}"

    if field.characteristic != 2:
        # GF(p), p odd: a row is one int of 64-bit slots, slot j for
        # column j, reduced mod p only when read. An update adds
        # (p - f)*other slot by slot with no carry between slots, as long
        # as every slot stays below 2^64 (see the module docstring).
        p, size = field.characteristic, array(field.typecode).itemsize

        def add(a, b):
            return (a + b) % p

        def neg(a):
            return -a % p

        def mul(a, b):
            return a * b % p

        def inv(a):
            if not a:
                raise ZeroDivisionError(no_inverse)
            return pow(a, -1, p)

        def pack(row):
            data = _little_endian(row, field.typecode).tobytes()
            wide = bytearray(8 * len(data) // size)
            for b in range(size):
                wide[b::8] = data[b::size]
            return int.from_bytes(wide, "little")

        def reduced(row, n):
            return [x % p for x in
                    struct.unpack(f"<{n}Q", row.to_bytes(8 * n, "little"))]

        def store(row, n):
            return array(field.typecode, reduced(row, n))

        def column(rows, j):
            s = j << 6
            mask = _SLOT_MASK << s
            return [((row & mask) >> s) % p for row in rows]

        def scale(row, a):
            return pack([x * a % p for x in
                         reduced(row, (row.bit_length() + 63) >> 6)])

        def sub_rows(rows, fs, other):
            return [row + (p - f) * other if f else row
                    for row, f in zip(rows, fs)]

        def drop_rows(rows, fs, other):
            return [(row + (p - f) * other if f else row) >> 64
                    for row, f in zip(rows, fs)]

        def shift(row, j):
            return row << (j << 6)

        def lane_adder(top):
            top = [[y % p for y in ys] for ys in top]

            def add(row, gs):
                return [[x + g * y for x, g, y in zip(xs, gs, ys)]
                        for xs, ys in zip(row, top)]
            return add

        return dict(add=add, neg=neg, mul=mul, inv=inv, pack=pack,
                    store=store, column=column, scale=scale,
                    sub_rows=sub_rows, drop_rows=drop_rows, shift=shift,
                    lane_adder=lane_adder)

    # GF(2^k), k >= 1, gf(2) included: a row is the stored row's
    # little-endian bytes read as one int of w-bit slots, each a canonical
    # code (module docstring). Prime gf(2) has no modulus, so r = 0 stands
    # in, as over gf(2^1); at k = 1 no slot is multiplied by x to read it.
    k, q = field.degree, field.order
    tc = field.typecode
    size = array(tc).itemsize
    w, r, top, low = 8 * size, (field.modulus or q) ^ q, k - 1, (q >> 1) - 1
    one = (1).to_bytes(size, "little")

    def pack(row):
        return int.from_bytes(_little_endian(row, tc), "little")

    def store(row, n):
        return _little_endian(array(tc, row.to_bytes(size * n, "little")), tc)

    def column(rows, j):
        s = j * w
        mask = (q - 1) << s
        return [(row & mask) >> s for row in rows]

    def powers(other, count):
        # x^i*other for i < count: a step doubles every slot, and a slot
        # whose top bit falls out takes r in its place
        ones = int.from_bytes(one * (other.bit_length() // w + 1), "little")
        lows = ones * low
        return [other][:count] + [other := (other & lows) << 1
                                  ^ (other >> top & ones) * r
                                  for _ in range(1, count)]

    def sub_rows(rows, fs, other):
        basis = powers(other, max(fs, default=0).bit_length())
        return [_combine(basis, row, f) if f else row
                for row, f in zip(rows, fs)]

    def drop_rows(rows, fs, other):
        # row - f*other through product tables, then shifted down a slot
        t0, t1, t2, t3 = _product_tables(
            powers(other, max(fs, default=0).bit_length()))
        # A scalar of k <= 8 bits reaches only the two low windows, and an
        # XOR with an empty window's 0 still copies the row, so it reads
        # two; that keeps a dense 256x256 GF(2^8) rank about 20% faster.
        if k <= 8:
            return [(row ^ t0[f & 15] ^ t1[f >> 4] if f else row) >> w
                    for row, f in zip(rows, fs)]
        return [(row ^ t0[f & 15] ^ t1[f >> 4 & 15] ^ t2[f >> 8 & 15]
                 ^ t3[f >> 12] if f else row) >> w for row, f in zip(rows, fs)]

    def shift(row, j):
        return row << j * w

    def scale(row, a):
        return _combine(powers(row, a.bit_length()), 0, a)

    # Scalar products go through discrete log/antilog tables w.r.t. the
    # smallest generator g, found with `scale` as the product and filled
    # by one walk of its q - 1 powers; v*g is linear in v, so a step reads
    # it off one table per byte of v, lo[c] = c*g and hi[c] = (c << 8)*g.
    # The tables are laid out as the module docstring says.
    n = q - 1
    g = _generator(k, scale)
    lo, hi = _product_tables(powers(g, k), 8)
    exp = array("H", [0]) * (4 * n + 1)
    log = array("I", [0]) * q
    v = 1
    for i in range(n):
        exp[i] = v
        log[v] = i
        v = lo[v & 255] ^ hi[v >> 8]
    view = memoryview(exp)  # copies the powers with no temporary array
    view[n:2 * n] = view[:n]
    view.release()
    log[0] = 2 * n

    def mul(a, b):
        return exp[log[a] + log[b]]

    def inv(a):
        if not a:
            raise ZeroDivisionError(no_inverse)
        return exp[q - 1 - log[a]]

    def lane_adder(top):
        top = [[log[y] for y in ys] for ys in top]

        def add(row, gs):
            lgs = [log[g] for g in gs]
            return [[x ^ exp[lg + ly] for x, lg, ly in zip(xs, lgs, ys)]
                    for xs, ys in zip(row, top)]
        return add

    # In characteristic 2, -a = a, so `neg` is operator.pos, which hands
    # back the int itself with no Python-level call.
    return dict(add=operator.xor, neg=operator.pos, mul=mul, inv=inv,
                pack=pack, store=store, column=column, scale=scale,
                sub_rows=sub_rows, drop_rows=drop_rows, shift=shift,
                lane_adder=lane_adder)


def prime_field(p: int) -> FieldSpec:
    """GF(p) for a prime p < 2^16."""
    return FieldSpec(PRIME, p)


def binary_field(k: int, modulus: int | None = None) -> FieldSpec:
    """GF(2^k) for 1 <= k <= 16, with the default or a given modulus."""
    return FieldSpec(BINARY, k, modulus)


_PRIME_RE = re.compile(r"(?i:gf)\((0|[1-9][0-9]*)\)")
_BINARY_RE = re.compile(
    r"(?i:gf)\(2\^(0|[1-9][0-9]*)(?:;0x(0|[1-9a-f][0-9a-f]*))?\)")


def parse_field(text: str) -> FieldSpec:
    """Parse field notation: gf(p), gf(2^k) or gf(2^k;0xMASK).

    Raises FieldError for any text that names no supported field.
    """
    s = text.strip()
    m = _BINARY_RE.fullmatch(s) or _PRIME_RE.fullmatch(s)
    if not m:
        raise FieldError(f"cannot parse field notation {_clip(repr(text))}")
    try:
        size = int(m.group(1))
    except ValueError:  # longer than the interpreter's int-conversion limit
        raise UnsupportedSizeError(
            f"over-long field size ({len(m.group(1))} digits)") from None
    if m.re is _PRIME_RE:
        return prime_field(size)
    return binary_field(size, int(m.group(2), 16) if m.group(2) else None)
