"""The field-owned row operations and the elimination kernel built on them."""

import hashlib
import json

import pytest

from blockinv.decompose import rank_decompose
from blockinv.field import binary_field, prime_field
from blockinv.matrix import Matrix, SingularMatrixError
from blockinv.rng import SplitMix64

KERNEL_FIELDS = (prime_field(2), prime_field(3), prime_field(65521),
                 binary_field(8), binary_field(8, 0x11D), binary_field(16))

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
                d = rank_decompose(m)
                rec = [str(field), n, sparse, m.rank(), wide.rank(), inv,
                       d.left.to_lists(), d.right.to_lists(), d.rank,
                       (m @ m).to_lists(), (m + m).to_lists()]
                if n <= 5:
                    rec.append(m.kron(m).to_lists())
                records.append(rec)
    return records


def test_kernel_digest_is_pinned():
    blob = json.dumps(_kernel_records(), separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == KERNEL_DIGEST


def _check_row_ops(field, coeffs, xs, ys):
    for a in coeffs:
        assert field.scale(xs, a) == [field.mul(a, x) for x in xs]
        assert field.axpy(xs, a, ys) == [field.add(x, field.mul(a, y))
                                         for x, y in zip(xs, ys)]


@pytest.mark.parametrize("field", [prime_field(2), prime_field(5),
                                   binary_field(4)], ids=str)
def test_row_ops_match_scalar_ops_exhaustively(field):
    elems = list(range(field.order))
    xs = [x for x in elems for _ in elems]
    ys = [y for _ in elems for y in elems]
    _check_row_ops(field, elems, xs, ys)


@pytest.mark.parametrize("field", [prime_field(65521), binary_field(16)],
                         ids=str)
def test_row_ops_match_scalar_ops_on_samples(field):
    rng = SplitMix64(0x5CA1E)
    q = field.order
    xs = [rng.below(q) for _ in range(4000)] + [0, 0, q - 1, 1]
    ys = [rng.below(q) for _ in range(4000)] + [0, q - 1, 0, 1]
    coeffs = [0, 1, q - 1] + [rng.below(q) for _ in range(40)]
    _check_row_ops(field, coeffs, xs, ys)
