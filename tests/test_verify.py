"""Block verifier and its report."""

import json
import math
import random
from collections import Counter

import pytest

from blockinv import verify
from blockinv.construct import GeneratorConfig, generate
from blockinv.field import binary_field, prime_field
from blockinv.matrix import Matrix, SingularMatrixError
from blockinv.verify import (render_report, render_report_json,
                             report_as_dict, verify_blocks)
from oracles import SLOW_REDUCTION, scalar_rref, zeros

GF2 = prime_field(2)
GF3 = prime_field(3)
GF16 = binary_field(4)


def test_identity_fails_off_diagonal():
    rep = verify_blocks(Matrix.identity(GF2, 4), 2)
    assert rep.block_verdicts == ((True, False), (False, True))
    assert rep.failing_blocks == ((0, 1), (1, 0))
    assert not rep.is_block_invertible
    assert not rep.is_block_invertible_square
    assert rep.whole_invertible is True  # the identity itself is fine


def test_generated_matrix_passes():
    m = generate(GeneratorConfig(n=8, p=2, field=GF2, seed=21))
    rep = verify_blocks(m, 2)
    assert rep.whole_invertible is True
    assert rep.is_block_invertible
    assert rep.is_block_invertible_square
    assert all(all(row) for row in rep.block_verdicts)
    assert rep.failing_blocks == ()


def test_non_square_strip():
    m = generate(GeneratorConfig(n=8, p=2, field=GF3, seed=2))
    strip = Matrix(GF3, m.to_lists()[:2])  # 2 x 8, all blocks invertible
    rep = verify_blocks(strip, 2)
    assert rep.is_block_invertible
    assert rep.whole_invertible is None
    assert not rep.is_block_invertible_square


def test_block_size_must_divide():
    with pytest.raises(ValueError):
        verify_blocks(Matrix.identity(GF2, 4), 3)
    with pytest.raises(ValueError):
        verify_blocks(Matrix.identity(GF2, 4), 0)


def test_grid_dimensions():
    rnd = random.Random(4)
    for nr, nc, p in [(4, 6, 2), (6, 6, 3), (2, 2, 1), (9, 3, 3)]:
        m = Matrix(GF3, [[rnd.randrange(3) for _ in range(nc)]
                         for _ in range(nr)])
        rep = verify_blocks(m, p)
        assert len(rep.block_verdicts) == nr // p
        assert all(len(row) == nc // p for row in rep.block_verdicts)


def invertible_by_inverse(m):
    try:
        m.inverse()
    except SingularMatrixError:
        return False
    return True


def test_verdicts_agree_with_inverse():
    fixtures = [
        Matrix.identity(GF2, 4),
        zeros(GF3, 4, 4),
        generate(GeneratorConfig(n=8, p=2, field=GF2, seed=5)),
        generate(GeneratorConfig(n=9, p=3, field=GF16, seed=6)),
        Matrix(GF3, generate(GeneratorConfig(n=6, p=2, field=GF3,
                                             seed=7)).to_lists()[2:4]),
    ]
    rnd = random.Random(12)
    fixtures.append(Matrix(GF2, [[rnd.randrange(2) for _ in range(6)]
                                 for _ in range(6)]))
    for m in fixtures:
        p = 2 if m.nrows % 2 == 0 else 3
        rep = verify_blocks(m, p)
        for i, row in enumerate(rep.block_verdicts):
            for j, verdict in enumerate(row):
                assert verdict == invertible_by_inverse(m.block(p, i, j))
        if m.is_square:
            assert rep.whole_invertible == invertible_by_inverse(m)


def test_render_text():
    rep = verify_blocks(Matrix.identity(GF2, 4), 2)
    text = render_report(rep)
    assert "4x4 matrix, 2x2 blocks (2x2 grid)" in text
    assert "✓ ✗" in text
    assert "failing blocks: (0,1) (1,0)" in text
    assert "whole matrix: invertible" in text
    assert "block invertible: no" in text
    summary_only = render_report(rep, grid=False)
    assert "✓" not in summary_only


def test_render_json_mirrors_report():
    m = generate(GeneratorConfig(n=4, p=2, field=GF2, seed=1))
    rep = verify_blocks(m, 2)
    obj = json.loads(render_report_json(rep))
    assert obj == report_as_dict(rep)
    assert obj["rows"] == 4 and obj["cols"] == 4
    assert obj["block_size"] == 2
    assert obj["whole_invertible"] is True
    assert obj["is_block_invertible_square"] is True
    assert obj["block_verdicts"] == [[True, True], [True, True]]
    # non-square reports null
    strip = Matrix(GF2, m.to_lists()[:2])
    assert json.loads(render_report_json(verify_blocks(strip, 2)))[
        "whole_invertible"] is None


def palette_matrix(field, p, kr, kc, rnd):
    """A kr x kc grid of p x p blocks drawn from two invertible and two
    singular blocks, so each verdict recurs at many positions. Returns
    the matrix and the grid of block rows."""
    def draw(invertible):
        while True:
            rows = [tuple(rnd.randrange(field.order) for _ in range(p))
                    for _ in range(p)]
            if not invertible:  # last row a multiple of the first
                c = rnd.randrange(field.order)
                rows[-1] = tuple(field.mul(c, x) for x in rows[0])
            if (len(scalar_rref(rows, field)[1]) == p) == invertible:
                return tuple(rows)
    palette = [draw(True), draw(True), draw(False), draw(False)]
    grid = [[rnd.choice(palette) for _ in range(kc)] for _ in range(kr)]
    rows = [sum((b[r] for b in grow), ()) for grow in grid for r in range(p)]
    return Matrix(field, rows), grid


@pytest.mark.parametrize("field,p", [(GF2, 2), (GF3, 3), (GF16, 2),
                                     (prime_field(65521), 3)], ids=str)
@pytest.mark.parametrize("kr,kc", [(6, 6), (4, 7)])
def test_repeated_blocks_match_per_block_oracle(field, p, kr, kc):
    rnd = random.Random(field.order * 100 + kr * 10 + kc)
    for _ in range(5):
        m, grid = palette_matrix(field, p, kr, kc, rnd)
        oracle = [[len(scalar_rref(b, field)[1]) == p for b in grow]
                  for grow in grid]
        rep = verify_blocks(m, p)
        assert rep.block_verdicts == tuple(map(tuple, oracle))
        assert rep.failing_blocks == tuple(
            (i, j) for i in range(kr) for j in range(kc) if not oracle[i][j])
        copies = Counter(b for grow in grid for b in grow)
        assert rep.distinct_blocks == len(copies)
        assert rep.max_block_multiplicity == max(copies.values())
        if m.is_square:
            assert rep.whole_invertible == invertible_by_inverse(m)


@pytest.mark.parametrize("m,p", [
    (generate(GeneratorConfig(n=32, p=4, field=binary_field(8), seed=3)), 4),
    (generate(GeneratorConfig(n=24, p=3, field=GF3, seed=8)), 3),
    (palette_matrix(GF2, 2, 6, 6, random.Random(1))[0], 2),
    (palette_matrix(GF3, 2, 3, 5, random.Random(2))[0], 2),
    (Matrix.identity(GF2, 8), 2),
], ids=["gf256-generated", "gf3-generated", "gf2-palette", "gf3-strip",
        "identity"])
def test_each_distinct_block_is_batched_once(monkeypatch, m, p):
    batched, ranked = [], []
    invertible, rank = verify._invertible, Matrix.rank

    def batch(blocks, field, size):
        batched.extend(blocks)
        return invertible(blocks, field, size)

    def counted(self):
        ranked.append((self.nrows, self.ncols))
        return rank(self)

    monkeypatch.setattr(verify, "_invertible", batch)
    monkeypatch.setattr(Matrix, "rank", counted)
    rep = verify_blocks(m, p)
    blocks = {m.block(p, i, j)._rows for i in range(m.nrows // p)
              for j in range(m.ncols // p)}
    assert len(batched) == len(set(batched)) == rep.distinct_blocks
    assert set(batched) == blocks
    assert ranked == ([(m.nrows, m.ncols)] if m.is_square else [])
    assert rep.distinct_blocks < (m.nrows // p) * (m.ncols // p)


BATCH_FIELDS = (GF2, GF3, prime_field(65521), binary_field(8),
                binary_field(16), SLOW_REDUCTION)


def random_block(field, p, rnd, sparse):
    """p x p rows of codes; three entries in four are zero when sparse."""
    return tuple(tuple(0 if sparse and rnd.randrange(4) else
                       rnd.randrange(field.order) for _ in range(p))
                 for _ in range(p))


def singular_block(field, p, rnd):
    """A random p x p block whose last row is a multiple of its first
    (for p = 1, the zero block)."""
    rows = list(random_block(field, p, rnd, False))
    c = rnd.randrange(field.order)
    rows[-1] = tuple(field.mul(c, x) for x in rows[0]) if p > 1 else (0,)
    return tuple(rows)


def grid_matrix(field, blocks, kc):
    """The matrix whose p x p blocks, row-major on a grid kc wide, are
    `blocks`."""
    p = len(blocks[0])
    return Matrix(field, [sum((b[r] for b in blocks[i:i + kc]), ())
                          for i in range(0, len(blocks), kc)
                          for r in range(p)])


def assert_exact_verdicts(m, p, blocks, kc):
    """verify_blocks agrees with rank and with inverse() on every block."""
    rep = verify_blocks(m, p)
    verdicts = [v for row in rep.block_verdicts for v in row]
    assert len(verdicts) == len(blocks)
    for verdict, rows in zip(verdicts, blocks):
        block = Matrix(m.field, rows)
        assert verdict == (block.rank() == p) == invertible_by_inverse(block)
    assert rep.failing_blocks == tuple(
        divmod(k, kc) for k, v in enumerate(verdicts) if not v)
    return rep


@pytest.mark.parametrize("field", BATCH_FIELDS, ids=str)
@pytest.mark.parametrize("p", [1, 2, 3, 8])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kr, kc", [(4, 4), (3, 5)], ids=["square", "wide"])
def test_batched_verdicts_are_exact(field, p, sparse, kr, kc):
    # sparse blocks make the per-block pivot swaps and the columns with no
    # pivot; every fourth position holds a planted singular block
    rnd = random.Random(f"{field} {p} {sparse} {kr}")
    blocks = [singular_block(field, p, rnd) if k % 4 == 1 else
              random_block(field, p, rnd, sparse) for k in range(kr * kc)]
    rep = assert_exact_verdicts(grid_matrix(field, blocks, kc), p, blocks, kc)
    assert not rep.is_block_invertible


@pytest.mark.parametrize("field, p", [(prime_field(65521), 2),
                                      (binary_field(16), 3), (GF3, 3),
                                      (SLOW_REDUCTION, 2)], ids=str)
@pytest.mark.parametrize("count", [verify._BATCH - 1, verify._BATCH,
                                   verify._BATCH + 1],
                         ids=["batch-1", "batch", "batch+1"])
def test_verdicts_across_batch_boundaries(field, p, count):
    # all blocks distinct, so block k is decided in batch k // _BATCH;
    # the planted singular blocks sit on both sides of each boundary, and
    # the grid is the most nearly square one that count fills
    kc = next(d for d in range(math.isqrt(count), 0, -1) if count % d == 0)
    rnd = random.Random(count * p)
    planted = {0, count - 2, count - 1, verify._BATCH - 1, verify._BATCH}
    blocks, seen = [], set()
    while len(blocks) < count:
        b = (singular_block(field, p, rnd) if len(blocks) in planted else
             random_block(field, p, rnd, False))
        if b not in seen:
            seen.add(b)
            blocks.append(b)
    rep = assert_exact_verdicts(grid_matrix(field, blocks, kc), p, blocks, kc)
    assert rep.distinct_blocks == count
