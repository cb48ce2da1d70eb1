"""Independent checker for block invertibility.

`verify_blocks` decides every p x p block (and, for a square matrix,
the whole matrix) by rank: a square matrix is invertible exactly when
its rank is its size. It is the one place this is decided: `extend`
checks its input through it, and the test suite cross-checks every
verdict against whether `inverse()` succeeds. Verdicts are gathered in
row-major block order, so the report is deterministic.

A block's verdict depends only on its contents, so each distinct block
is ranked once and its verdict reused wherever it recurs. This matters
for generated matrices: a growth step copies blocks of M into its
border and derives the corner from one of them, so a 256 x 256 output
with 4 x 4 blocks has 4096 blocks but only a handful of distinct ones.
The report counts the distinct blocks and the most copies of any one.
"""

from __future__ import annotations

import json
from collections import namedtuple

from .matrix import Matrix


class BlockReport(namedtuple("BlockReport", (
        "nrows", "ncols", "block_size", "whole_invertible", "block_verdicts",
        "failing_blocks", "is_block_invertible", "is_block_invertible_square",
        "distinct_blocks", "max_block_multiplicity"))):
    """Per-block invertibility verdicts for one matrix.

    whole_invertible is True/False for square matrices and None when the
    matrix is not square (so "block invertible square" cannot apply).
    distinct_blocks counts the blocks that differ in content, and
    max_block_multiplicity is the number of positions holding the most
    repeated one.
    """

    __slots__ = ()


def verify_blocks(m: Matrix, p: int) -> BlockReport:
    """Check every p x p block of m, and m itself when square."""
    m._check_block_size(p)

    seen = {}  # block rows -> [verdict, positions holding that block]
    verdicts = []
    failing = []
    for i in range(m.nrows // p):
        strip = m._rows[i * p:(i + 1) * p]
        row = []
        for j in range(m.ncols // p):
            block = tuple(r[j * p:(j + 1) * p] for r in strip)
            memo = seen.get(block)
            if memo is None:
                memo = seen[block] = [
                    Matrix._new(m.field, block).rank() == p, 0]
            memo[1] += 1
            ok = memo[0]
            row.append(ok)
            if not ok:
                failing.append((i, j))
        verdicts.append(tuple(row))

    whole = m.is_invertible() if m.is_square else None

    all_blocks = not failing
    return BlockReport(
        nrows=m.nrows,
        ncols=m.ncols,
        block_size=p,
        whole_invertible=whole,
        block_verdicts=tuple(verdicts),
        failing_blocks=tuple(failing),
        is_block_invertible=all_blocks,
        is_block_invertible_square=all_blocks and whole is True,
        distinct_blocks=len(seen),
        max_block_multiplicity=max(copies for _, copies in seen.values()),
    )


def render_report(rep: BlockReport, grid: bool = True) -> str:
    """Plain-text rendering: a grid of check marks plus summary lines."""
    head = (f"{rep.nrows}x{rep.ncols} matrix, "
            f"{rep.block_size}x{rep.block_size} blocks "
            f"({len(rep.block_verdicts)}x{len(rep.block_verdicts[0])} grid)")
    lines = [head]
    if grid:
        for row in rep.block_verdicts:
            lines.append("  " + " ".join("✓" if ok else "✗" for ok in row))
    if rep.failing_blocks:
        lines.append("failing blocks: "
                     + " ".join(f"({i},{j})" for i, j in rep.failing_blocks))
    lines.append("whole matrix: " + _tristate(rep.whole_invertible))
    lines.append("block invertible: " + ("yes" if rep.is_block_invertible else "no"))
    lines.append("block invertible square: "
                 + ("yes" if rep.is_block_invertible_square else "no"))
    return "\n".join(lines)


def _tristate(whole: bool | None) -> str:
    if whole is None:
        return "not square"
    return "invertible" if whole else "singular"


def report_as_dict(rep: BlockReport) -> dict:
    """Machine-readable mirror of the report fields (JSON-serializable)."""
    return {
        "rows": rep.nrows,
        "cols": rep.ncols,
        "block_size": rep.block_size,
        "whole_invertible": rep.whole_invertible,
        "block_verdicts": [list(row) for row in rep.block_verdicts],
        "failing_blocks": [list(b) for b in rep.failing_blocks],
        "is_block_invertible": rep.is_block_invertible,
        "is_block_invertible_square": rep.is_block_invertible_square,
        "distinct_blocks": rep.distinct_blocks,
        "max_block_multiplicity": rep.max_block_multiplicity,
    }


def render_report_json(rep: BlockReport) -> str:
    return json.dumps(report_as_dict(rep))
