"""Reference checker for block invertibility, sharing no code with blockinv.

The benchmark uses it outside its timed region to decide, for every
matrix file a workload writes or reads, which p x p blocks are singular
and whether the whole matrix is invertible. Arithmetic is written from
the definitions:

* GF(2): rows are Python ints (bit j = column j) reduced by XOR against
  a basis keyed by leading bit;
* GF(p): mod-p integer arithmetic;
* GF(2^k): carry-less multiply, reducing by the modulus one shift at a
  time, so no log/exp tables are involved.

GF(p) and GF(2^k) eliminate with NumPy over a stack of square matrices
at once, so all (n/p)^2 blocks of a file cost a few array passes per
column. The reader and writer follow the documented `bim v1` text and
JSON matrix formats.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RefField:
    """GF(char) when degree == 1, else GF(2^degree) modulo `modulus`."""

    char: int
    degree: int = 1
    modulus: int = 0

    @property
    def order(self) -> int:
        return self.char ** self.degree

    @property
    def notation(self) -> str:
        """Field line of a matrix file; the CLI accepts the same string."""
        if self.degree == 1:
            return f"gf({self.char})"
        return f"gf(2^{self.degree};0x{self.modulus:x})"

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.char if self.degree == 1 else a ^ b

    def mul(self, x, y):
        """Elementwise product of int64 arrays (broadcasting) or ints."""
        if self.degree == 1:
            return x * y % self.char
        k, m = self.degree, self.modulus
        acc = 0
        for i in range(k):
            acc = acc ^ (((x >> i) & 1) * y)
            y = y << 1
            y = y ^ (((y >> k) & 1) * m)
        return acc

    def inverse(self, x):
        """x^(q-2) by square and multiply: the inverse of x, and 0 for 0."""
        e = self.order - 2
        result = np.ones_like(x)
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def sub(self, x, y):
        return (x - y) % self.char if self.degree == 1 else x ^ y


@dataclass(frozen=True)
class Verdict:
    """Singular blocks in row-major order, and whether the whole is invertible."""

    failing_blocks: tuple[tuple[int, int], ...]
    whole_invertible: bool

    @property
    def ok(self) -> bool:
        return not self.failing_blocks and self.whole_invertible

    @classmethod
    def from_dict(cls, d: dict) -> "Verdict":
        """From the "failing_blocks" / "whole_invertible" keys of a report."""
        return cls(tuple(map(tuple, d["failing_blocks"])),
                   d["whole_invertible"])


def invertible_stack(stack: np.ndarray, field: RefField) -> np.ndarray:
    """Invertibility of each square matrix in a (count, n, n) stack.

    Forward elimination column by column. A matrix whose column c has no
    nonzero entry at or below row c is singular; its later steps run on
    a zero pivot, which leaves it unchanged and does not affect the
    other matrices of the stack.
    """
    a = np.array(stack, dtype=np.int64)
    count, n, _ = a.shape
    ok = np.ones(count, dtype=bool)
    idx = np.arange(count)
    for c in range(n):
        nonzero = a[:, c:, c] != 0
        ok &= nonzero.any(axis=1)
        piv = c + nonzero.argmax(axis=1)
        top = a[idx, c].copy()
        a[idx, c] = a[idx, piv]
        a[idx, piv] = top
        prow = field.mul(a[:, c, c:], field.inverse(a[:, c, c])[:, None])
        factors = a[:, c + 1:, c]
        a[:, c + 1:, c:] = field.sub(
            a[:, c + 1:, c:], field.mul(factors[:, :, None], prow[:, None, :]))
    return ok


def gf2_invertible(rows: list[int]) -> bool:
    """True iff the square GF(2) matrix with these bitmask rows is invertible."""
    basis: dict[int, int] = {}
    for r in rows:
        while r:
            lead = r.bit_length() - 1
            if lead not in basis:
                basis[lead] = r
                break
            r ^= basis[lead]
        else:
            return False
    return True


def check(rows: list[list[int]], p: int, field: RefField) -> Verdict:
    """Reference verdict for a square matrix of element codes."""
    n = len(rows)
    if any(len(r) != n for r in rows) or n % p:
        raise ValueError(f"expected a square matrix with p={p} dividing n")
    if any(not 0 <= v < field.order for r in rows for v in r):
        raise ValueError(f"entry out of range for {field.notation}")
    nb = n // p
    if field.order == 2:
        bits = [sum(1 << j for j, v in enumerate(r) if v) for r in rows]
        mask = (1 << p) - 1
        failing = tuple(
            (i, j) for i in range(nb) for j in range(nb)
            if not gf2_invertible([(b >> (j * p)) & mask
                                   for b in bits[i * p:(i + 1) * p]]))
        return Verdict(failing, gf2_invertible(bits))
    a = np.array(rows, dtype=np.int64)
    blocks = a.reshape(nb, p, nb, p).transpose(0, 2, 1, 3).reshape(-1, p, p)
    block_ok = invertible_stack(blocks, field)
    failing = tuple((int(k) // nb, int(k) % nb)
                    for k in np.flatnonzero(~block_ok))
    return Verdict(failing, bool(invertible_stack(a[None], field)[0]))


@dataclass(frozen=True)
class MatrixFile:
    field: str
    p: int
    rows: list[list[int]]


def read_matrix(text: str) -> MatrixFile:
    """Parse a `bim v1` text or JSON matrix file; ValueError if malformed."""
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        if (not isinstance(obj, dict) or obj.get("format") != "bim"
                or obj.get("version") != 1):
            raise ValueError("not a bim v1 JSON matrix")
        field, nrows, ncols, p = (obj["field"], obj["rows"], obj["cols"],
                                  obj["p"])
        rows = obj["data"]
    else:
        lines = text.split("\n")
        if lines[0] != "bim v1" or len(lines) < 4:
            raise ValueError("not a bim v1 text matrix")
        field = lines[1]
        nrows, ncols, p = (int(v) for v in lines[2].split())
        rows = [[int(v) for v in ln.split()] for ln in lines[3:3 + nrows]]
        if lines[3 + nrows:] != [""]:
            raise ValueError("text matrix must end after its last row")
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise ValueError(f"data does not match the {nrows}x{ncols} header")
    return MatrixFile(field, p, rows)


def write_matrix(rows: list[list[int]], p: int, field: RefField,
                 fmt: str) -> str:
    """Serialise in the `bim v1` text or JSON format."""
    n = len(rows)
    if fmt == "json":
        return json.dumps({"format": "bim", "version": 1,
                           "field": field.notation, "rows": n,
                           "cols": len(rows[0]), "p": p, "data": rows}) + "\n"
    lines = ["bim v1", field.notation, f"{n} {len(rows[0])} {p}"]
    lines.extend(" ".join(map(str, r)) for r in rows)
    return "\n".join(lines) + "\n"


def make_random(n: int, p: int, field: RefField, planted: bool,
                rng: random.Random) -> tuple[list[list[int]], Verdict]:
    """Uniform random n x n matrix whose only singular block is the planted one.

    With planted, one block drawn from rng gets a last row equal to the
    sum of its first two. Draws are repeated until the reference finds
    exactly the intended singular blocks and, without a planted block, an
    invertible whole; a planted file's whole matrix may be either.
    """
    while True:
        rows = [[rng.randrange(field.order) for _ in range(n)]
                for _ in range(n)]
        intended = ()
        if planted:
            bi, bj = rng.randrange(n // p), rng.randrange(n // p)
            top = bi * p
            for c in range(bj * p, (bj + 1) * p):
                rows[top + p - 1][c] = field.add(rows[top][c],
                                                 rows[top + 1][c])
            intended = ((bi, bj),)
        verdict = check(rows, p, field)
        if verdict.failing_blocks == intended and (planted
                                                   or verdict.whole_invertible):
            return rows, verdict
