"""Block verifier and its report."""

import json
import random

import pytest

from blockinv.construct import GeneratorConfig, generate
from blockinv.field import binary_field, prime_field
from blockinv.matrix import Matrix, SingularMatrixError
from blockinv.verify import (render_report, render_report_json,
                             report_as_dict, verify_blocks)

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
    strip = m.block_row(2, 0)  # 2 x 8, all blocks invertible
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
        Matrix.zeros(GF3, 4, 4),
        generate(GeneratorConfig(n=8, p=2, field=GF2, seed=5)),
        generate(GeneratorConfig(n=9, p=3, field=GF16, seed=6)),
        generate(GeneratorConfig(n=6, p=2, field=GF3, seed=7)).block_row(2, 1),
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
    strip = m.block_row(2, 0)
    assert json.loads(render_report_json(verify_blocks(strip, 2)))[
        "whole_invertible"] is None
