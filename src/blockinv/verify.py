"""Independent checker for block invertibility.

`verify_blocks` decides every p x p block (and, for a square matrix,
the whole matrix) by rank: a square matrix is invertible exactly when
its rank is its size. It is the one place this is decided: `extend`
checks its input through it, and the test suite cross-checks every
verdict against whether `inverse()` succeeds. Verdicts are gathered in
row-major block order, so the report is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .matrix import Matrix


@dataclass(frozen=True)
class BlockReport:
    """Per-block invertibility verdicts for one matrix.

    whole_invertible is True/False for square matrices and None when the
    matrix is not square (so "block invertible square" cannot apply).
    """

    nrows: int
    ncols: int
    block_size: int
    whole_invertible: bool | None
    block_verdicts: tuple[tuple[bool, ...], ...]
    failing_blocks: tuple[tuple[int, int], ...]
    is_block_invertible: bool
    is_block_invertible_square: bool


def verify_blocks(m: Matrix, p: int) -> BlockReport:
    """Check every p x p block of m, and m itself when square."""
    m._check_block_size(p)

    verdicts = []
    failing = []
    for i in range(m.nrows // p):
        strip = m._rows[i * p:(i + 1) * p]
        row = []
        for j in range(m.ncols // p):
            block = tuple(r[j * p:(j + 1) * p] for r in strip)
            ok = Matrix._new(m.field, block).rank() == p
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
    }


def render_report_json(rep: BlockReport) -> str:
    return json.dumps(report_as_dict(rep))
