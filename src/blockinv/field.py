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
and `scale(row, a) = a*row` works on a packed row. Two operations take
a whole list of packed rows at once, each one list comprehension:
`column(rows, j)` reads entry j of every row, and the one row update
`sub_rows(rows, fs, other)` returns the list of `row - f*other` for
each row and factor f, with a row whose factor is zero returned as it
is. One more operation works on lanes, plain lists of codes with one
entry per independent problem (verify.py decides many blocks at once
this way): `add = lane_adder(gs)` returns
`add(xs, ys) = [x + g*y for each lane]`, one list comprehension with no
call per entry. All of them are chosen together at construction by one
arm per field kind, so neither the field nor any caller branches on the
kind per operation, and no caller sees a packed form:

    GF(2)      one int per row, bit j for column j; an update is an XOR.
               `pack` maps the row's bytes to the digits of a binary
               numeral (`bytes.translate`) and reads it with `int`;
               `store` translates the numeral's digits back to bytes.
    GF(p)      one int per row of 64-bit slots, slot j for column j;
               an update is row + (p - f)*other, reduced mod p only by
               `column`, `scale` and `store` (delayed modular reduction).
    GF(2^k)    one int per row of w-bit slots, slot j for column j, for
               k >= 2; w = 8 for k <= 4, 16 for k <= 8, 32 for k <= 16,
               the smallest struct width that holds 2k-1 bits. An update
               XORs in the carry-less product f*other (in characteristic
               2, -f = f) and leaves each slot unreduced; `column`,
               `scale` and `store` reduce it mod the modulus.

Over GF(p) and GF(2^k), `pack` lays the bytes of a stored row into a
zeroed buffer of slots by strided slice assignment, one per byte of an
entry, and reads the buffer with one `int.from_bytes`. Over GF(2^k),
`store` is the reverse: it reduces every slot at once, writes the row
out as bytes and narrows each slot back to an entry by strided slices.
A GF(p) slot is reduced mod p one at a time, so there `store` and
`scale` read the slots with one `struct.unpack` and reduce each.

A GF(2^k) update forms f*other in one of two ways, with the same result.
With fewer than _TABLE_ROWS nonzero factors it XORs one shifted copy of
`other` per set bit of f (`_shift_xor`). With more, `sub_rows` first
builds product tables (the Newton-John tables of M4RIE: Albrecht, ISSAC
2012): for each 4-bit window of a scalar, the 16 carry-less multiples
d*other shifted into that window, so an update is one lookup and XOR per
window, ceil(k/4) in all, whatever the bits of f. Both ways cost time in
proportion to the row's length, so only the number of rows that share
the tables decides whether they pay off, and `sub_rows` counts them
from the factors it is given.

A GF(p) slot never borrows, because `sub_rows` subtracts f*other by
adding (p - f)*other, whose factor lies in 1..p-1 for a nonzero
canonical f, and never carries into the next slot: if every row added is
canonical (scaled, or fresh from `pack`), each update adds less than
p^2 <= 2^32 to a slot, so a slot that starts canonical stays below 2^64
for fewer than 2^32 additions. The elimination kernel adds to a row at
most once per pivot, and a product once per inner index.

A GF(2^k) slot cannot overflow at all. With `other` canonical, its
slots are below 2^k and are shifted by at most k-1, so each copy stays
below 2^(2k-1) inside its own slot; XOR has no carry, so any number of
updates keeps every slot below 2^(2k-1) <= 2^w. Reduction uses
x^k = r mod m, where r = m XOR 2^k has degree below k: a slot
hi*x^k + lo becomes lo XOR hi*r, which lowers the degree of hi, so
repeating it leaves the canonical code. `store` does this for every slot
at once with masks repeated in each slot, and so does `scale`, before
and after it XORs in one shifted copy of the row per set bit of its
scalar; `column` reads one slot of each row and takes lo XOR hi*r
through the log/exp tables in one step.

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
the multiplicative group, also derived: g = 2, 3, ... is tested by its
order, g^((2^k - 1)/r) != 1 for each prime r dividing 2^k - 1, and one
walk of the first g that passes fills the tables. (The default modulus
is not always primitive: x has order 21845 under 0x1002B, and g = 3.)
The tables are arrays of machine ints, 768 KB in all for GF(2^16), and
boxed ints would take six times that: exp holds 16-bit codes, the powers
g^0 .. g^(q-2) twice so that exp[log[a] + log[b]] needs no reduction,
then zeros up to index 4(q-1); log holds 32-bit logs, with the sentinel
log[0] = 2(q-1), which sends every sum with a zero factor into those
zeros. So `mul`, `scale` and `lane_adder` read a product with no test
for zero; `inv` still tests for it, and raises.

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
#: A GF(2^k) row update with at least this many nonzero factors builds
#: product tables for its fixed operand first.
_TABLE_ROWS = 16
#: Largest supported extension degree for GF(2^k).
MAX_DEGREE = 16
#: An array holds its entries in the machine's byte order; packed rows
#: are read from little-endian bytes.
_BIG_ENDIAN = sys.byteorder == "big"
#: The bytes 0 and 1 of a GF(2) stored row as binary digits, and back.
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


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
    the operations on lists of rows `column(rows, j)` and
    `sub_rows(rows, fs, other)`, and the lane update `lane_adder(gs)` are
    its arithmetic, bound once by `_arithmetic`.
    """

    __slots__ = ("kind", "characteristic", "degree", "modulus", "order",
                 "typecode", "add", "neg", "mul", "inv", "pack", "store",
                 "column", "scale", "sub_rows", "lane_adder")

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
            if max(codes) < self.order:
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


def _slot_codec(typecode: str, width: int):
    """`pack`, and its reverse `narrow`, for rows of equal little-endian
    slots of `width` bytes, slot j for column j, and stored rows of
    `typecode` ('B' or 'H'). `pack` lays the bytes of a stored row into
    the slots, one strided slice assignment per byte of an entry, and
    reads them with one `int.from_bytes`; `narrow` takes the bytes of a
    row of canonical slots back to a stored row by strided slices the
    same way."""
    size = array(typecode).itemsize

    def pack(row):
        if type(row) is not array or _BIG_ENDIAN:
            row = array(typecode, row)
            if _BIG_ENDIAN:
                row.byteswap()
        wide = bytearray(width * len(row))
        if size == 1:
            wide[::width] = row
        else:
            data = row.tobytes()
            wide[::width], wide[1::width] = data[::2], data[1::2]
        return int.from_bytes(wide, "little")

    def narrow(data):
        if size == 1:
            row = array(typecode, data[::width])
        else:
            entries = bytearray(len(data) // width * size)
            entries[::2], entries[1::2] = data[::width], data[1::width]
            row = array(typecode, entries)
            if _BIG_ENDIAN:
                row.byteswap()
        return row

    return pack, narrow


def _shift_xor(other: int, row: int, a: int) -> int:
    """row XOR the carry-less product a*other: one copy of `other`
    shifted by i for each set bit i of a, whatever its slot layout."""
    while a:
        bit = a & -a
        row ^= other << (bit.bit_length() - 1)
        a ^= bit
    return row


def _product_tables(other: int, k: int) -> list[list[int]]:
    """The Newton-John tables of `other` for the four 4-bit windows of
    a GF(2^k) scalar: table i holds, for each value d of window i, the
    carry-less product d*other shifted into that window. Tables are
    built by doubling, one shifted copy per bit of d. A window holds only
    the bits a scalar reaches, so one above bit k - 1 is [0]."""
    low4 = [0]
    for b in range(min(k, 4)):
        copy = other << b
        low4 += [x ^ copy for x in low4]
    return [low4] + [[x << s for x in low4[:1 << k - s]] if s < k else [0]
                     for s in (4, 8, 12)]


def _poly_pow(a: int, e: int, m: int) -> int:
    """a^e modulo the GF(2) polynomial m, by square-and-multiply."""
    r = 1
    while e:
        if e & 1:
            r = _poly_mod(_shift_xor(a, 0, r), m)
        a = _poly_mod(_shift_xor(a, 0, a), m)
        e >>= 1
    return r


def _generator(k: int, m: int) -> int:
    """The smallest generator of GF(2^k)* under the modulus m, k >= 2.

    g generates the group of order n = 2^k - 1 exactly when
    g^(n/r) != 1 for every prime r dividing n, so no candidate's powers
    are walked.
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
    return next(g for g in range(2, n + 1)
                if all(_poly_pow(g, n // r, m) != 1 for r in primes))


def _arithmetic(field: FieldSpec) -> dict:
    """The operations of `field` by name, one arm per kind.

    `pack(codes)` turns a row of codes into the arm's packed row, and
    `store(row, n)` turns a packed row of n entries back into a stored
    row of canonical codes; `column(rows, j)` returns entry j of each of
    a list of packed rows as a list of canonical codes. scale(row, a) is
    a*row with canonical entries. sub_rows(rows, fs, other) takes a list
    of packed rows, a list of as many canonical codes and a canonical row
    `other` (scaled, or fresh from `pack`), and returns a new list of
    row - f*other for each row and its f; a row whose f is zero comes
    back as it is. None of them modifies its arguments. Over GF(p) and
    GF(2^k) the rows `sub_rows` returns may hold unreduced slots, which
    only `column`, `scale` and `store` read (see the module docstring
    for why no slot overflows). lane_adder(gs) takes a list of canonical
    codes and returns add(xs, ys), a new list of canonical codes x + g*y
    for equal length lists xs and ys, lane by lane. inv(0) raises
    ZeroDivisionError.
    """
    no_inverse = f"0 has no multiplicative inverse in {field}"
    # In characteristic 2, -a = a, so `neg` is operator.pos, which hands
    # back the int itself with no Python-level call.

    if field.order == 2:
        # GF(2), spelled gf(2) or gf(2^1): a row is one int with bit j
        # for column j, and the only nonzero factor is 1, so a row
        # update is an XOR.
        def inv(a):
            if not a:
                raise ZeroDivisionError(no_inverse)
            return 1

        def pack(row):
            return int(bytes(row)[::-1].translate(_TO_DIGITS), 2)

        def store(row, n):
            return array(field.typecode,
                         f"{row:0{n}b}".encode()[::-1].translate(_FROM_DIGITS))

        def column(rows, j):
            return [row >> j & 1 for row in rows]

        def scale(row, a):
            return row if a else 0

        def sub_rows(rows, fs, other):
            return [row ^ other if f else row for row, f in zip(rows, fs)]

        def lane_adder(gs):
            def add(xs, ys):
                return [x ^ (g & y) for x, g, y in zip(xs, gs, ys)]
            return add

        return dict(add=operator.xor, neg=operator.pos, mul=operator.and_,
                    inv=inv, pack=pack, store=store, column=column,
                    scale=scale, sub_rows=sub_rows, lane_adder=lane_adder)

    if field.kind == PRIME:
        # GF(p): a row is one int of 64-bit slots, slot j for column j,
        # reduced mod p only when read. An update adds (p - f)*other slot
        # by slot with no carry between slots, as long as every slot stays
        # below 2^64 (see the module docstring).
        p = field.characteristic

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

        pack, _ = _slot_codec(field.typecode, 8)

        def reduced(row, n):
            return [x % p for x in
                    struct.unpack(f"<{n}Q", row.to_bytes(8 * n, "little"))]

        def store(row, n):
            return array(field.typecode, reduced(row, n))

        def column(rows, j):
            s = j << 6
            return [(row >> s & _SLOT_MASK) % p for row in rows]

        def scale(row, a):
            return pack([x * a % p for x in
                         reduced(row, (row.bit_length() + 63) >> 6)])

        def sub_rows(rows, fs, other):
            return [row + (p - f) * other if f else row
                    for row, f in zip(rows, fs)]

        def lane_adder(gs):
            def add(xs, ys):
                return [(x + g * y) % p for x, g, y in zip(xs, gs, ys)]
            return add

        return dict(add=add, neg=neg, mul=mul, inv=inv, pack=pack,
                    store=store, column=column, scale=scale,
                    sub_rows=sub_rows, lane_adder=lane_adder)

    # GF(2^k), k >= 2: scalar products go through discrete log/antilog
    # tables w.r.t. the smallest generator g, filled by one walk of its
    # q - 1 powers; v*g is linear in v, so a step reads it off one table
    # per byte of v. The tables are laid out as the module docstring
    # says: exp doubled and then zero-padded, log[0] the zero sentinel.
    k, q, m = field.degree, field.order, field.modulus
    n = q - 1
    g = _generator(k, m)
    # lo[c] = c*g and hi[c] = (c << 8)*g: bit b of v adds t = g*x^b
    lo, hi, t = [0], [0], g
    for b in range(k):
        half = lo if b < 8 else hi
        half += [x ^ t for x in half]
        t <<= 1
        if t >> k:
            t ^= m
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

    # A row is one int of w-bit slots, slot j for column j, each holding
    # a polynomial of degree below 2k - 1 that is reduced mod m only when
    # read, by x^k = r (see the module docstring). `reduce` folds every
    # slot at once: lo keeps bits 0..k-1 of each slot, top the rest. The
    # two masks are built once for the widest row reduced so far, as a
    # mask wider than a row masks it the same; `masks` only ever holds a
    # correct pair, so sharing the field across threads stays safe.
    w = 8 if k <= 4 else 16 if k <= 8 else 32
    nbytes, slot, low = w // 8, (1 << w) - 1, q - 1
    r = m ^ q
    r_bits = [i for i in range(k) if r >> i & 1]
    log_r = log[r]
    masks = [(0, 0)]

    def reduce(row):
        lo, top = masks[0]
        if row.bit_length() > top.bit_length():
            full = (1 << (w * -(-row.bit_length() // w))) - 1
            lo = full // slot * low
            top = full ^ lo
            masks[0] = lo, top
        hi = row & top
        while hi:
            row &= lo
            hi >>= k
            for i in r_bits:
                row ^= hi << i
            hi = row & top
        return row

    pack, narrow = _slot_codec(field.typecode, nbytes)

    def store(row, n):
        return narrow(reduce(row).to_bytes(nbytes * n, "little"))

    def column(rows, j):
        s = j * w
        return [x if (x := row >> s & slot) < q
                else x & low ^ exp[log[x >> k] + log_r] for row in rows]

    def sub_rows(rows, fs, other):
        if len(fs) - fs.count(0) < _TABLE_ROWS:
            return [_shift_xor(other, row, f) if f else row
                    for row, f in zip(rows, fs)]
        t0, t1, t2, t3 = _product_tables(other, k)
        # A scalar of k <= 8 bits reaches only the two low windows, and an
        # XOR with an empty window's 0 still copies the row, so it reads
        # two; that keeps a dense 256x256 GF(2^8) rank about 20% faster.
        if k <= 8:
            return [row ^ t0[f & 15] ^ t1[f >> 4] if f else row
                    for row, f in zip(rows, fs)]
        return [row ^ t0[f & 15] ^ t1[f >> 4 & 15] ^ t2[f >> 8 & 15]
                ^ t3[f >> 12] if f else row for row, f in zip(rows, fs)]

    def scale(row, a):
        return reduce(_shift_xor(reduce(row), 0, a))

    def lane_adder(gs):
        lgs = [log[g] for g in gs]

        def add(xs, ys):
            return [x ^ exp[lg + log[y]] for x, lg, y in zip(xs, lgs, ys)]
        return add

    return dict(add=operator.xor, neg=operator.pos, mul=mul, inv=inv,
                pack=pack, store=store, column=column, scale=scale,
                sub_rows=sub_rows, lane_adder=lane_adder)


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
