"""Independent checker for block invertibility.

`verify_blocks` decides every p x p block, and, for a square matrix,
the whole matrix. It is the one place this is decided: `extend` checks
its input through it, and the test suite cross-checks every verdict
against whether `inverse()` succeeds. Verdicts are gathered in
row-major block order, so the report is deterministic.

The whole matrix is decided first, by its rank (`Matrix.rank`, the
packed-row kernel): it is invertible exactly when its rank is its size.
Its packed rows are freed before any block is cut, so the two phases
never hold their working sets at once.

A block's verdict depends only on its contents, so each distinct block
is decided once and its verdict reused wherever it recurs. This matters
for generated matrices: a growth step copies blocks of M into its
border and derives the corner from one of them, so a 256 x 256 output
with 4 x 4 blocks has 4096 blocks but only a handful of distinct ones.
The report counts the distinct blocks and the most copies of any one.
A block is keyed by its bytes: the slices of its p stored rows (compact
arrays of codes, see field.py), joined.

The distinct blocks are decided together, up to _BATCH at a time, by
one forward elimination over lanes: lane (i, j) holds entry (i, j) of
every block in the batch, one strided slice of the batch's keys joined
into one stored row. Each row update is one call of the field's
lane update (`FieldSpec.lane_adder`), a list comprehension over whole
lanes, so the per-call cost of an elimination is paid once per batch
instead of once per block, and no field operation is called per entry.
Each block searches its own pivot and swaps rows only inside its own
lanes; a p x p block is invertible exactly when every one of its p
columns yields a pivot, so the verdicts are exact.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .field import FieldSpec
from .matrix import Matrix

#: Most distinct blocks decided by one batched elimination; bounds the
#: memory its lanes take.
_BATCH = 128


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


def _invertible(blocks: list[bytes], field: FieldSpec, p: int) -> list[bool]:
    """Whether each of `blocks`, the bytes of p x p blocks of stored rows
    over `field`, row after row, is invertible, by one forward
    elimination over all of them at once.

    lanes[i][j][b] is entry (i, j) of block b: the blocks' bytes are
    joined into one stored row (`FieldSpec.join`), and each lane is one
    strided slice of it. Column c of every block
    takes row c as its pivot row; a block whose entry there is zero
    swaps in the first row below it with a nonzero entry, and a block
    with none is singular. A singular block clears nothing in that
    column and goes on through the later ones, but its verdict is
    already fixed. The pivot row's lanes right of column c are read
    once, by `add = field.lane_adder(top[c + 1:])`, and each row below
    it gets one lane update, `add(row[c + 1:], gs)` with gs[b] = -entry
    / pivot of block b (0 for a singular block), which clears it lane by
    lane in every column right of c. Over GF(p) an update leaves its
    sums unreduced, so a code is tested for zero as x % order, which is
    the code itself in a binary field.
    """
    lane_adder, mul, neg, inv = (field.lane_adder, field.mul, field.neg,
                                 field.inv)
    codes, size, q = field.join(blocks), p * p, field.order
    lanes = [[codes[i * p + j::size].tolist() for j in range(p)]
             for i in range(p)]
    ok = [True] * len(blocks)
    for c in range(p):
        top = lanes[c]
        for b in [b for b, x in enumerate(top[c]) if not x % q]:
            i = next((i for i in range(c + 1, p) if lanes[i][c][b] % q), 0)
            if not i:
                ok[b] = False
                continue
            for j in range(c, p):
                top[j][b], lanes[i][j][b] = lanes[i][j][b], top[j][b]
        if c + 1 == p:
            break
        # g = -entry / pivot, so row i + g * row c clears column c
        piv = [neg(inv(x)) if x % q else 0 for x in top[c]]
        add = lane_adder(top[c + 1:])
        for row in lanes[c + 1:]:
            row[c + 1:] = add(row[c + 1:], list(map(mul, row[c], piv)))
    return ok


def verify_blocks(m: Matrix, p: int) -> BlockReport:
    """Check every p x p block of m, and m itself when square."""
    m._check_block_size(p)
    # first, so that the packed rows of the rank are freed before the
    # blocks are cut
    whole = m.is_invertible() if m.is_square else None

    index = {}  # block bytes -> its number among the distinct blocks
    grid = []   # the number of the block at each position
    for i in range(0, m.nrows, p):
        strip = m._rows[i:i + p]
        grid.append([
            index.setdefault(b"".join([r[j:j + p] for r in strip]),
                             len(index))
            for j in range(0, m.ncols, p)])
    distinct = list(index)
    ok = []
    for s in range(0, len(distinct), _BATCH):
        ok += _invertible(distinct[s:s + _BATCH], m.field, p)
    verdicts = tuple(tuple(ok[k] for k in row) for row in grid)
    failing = tuple((i, j) for i, row in enumerate(verdicts)
                    for j, v in enumerate(row) if not v)

    all_blocks = not failing
    return BlockReport(
        nrows=m.nrows,
        ncols=m.ncols,
        block_size=p,
        whole_invertible=whole,
        block_verdicts=verdicts,
        failing_blocks=failing,
        is_block_invertible=all_blocks,
        is_block_invertible_square=all_blocks and whole is True,
        distinct_blocks=len(distinct),
        max_block_multiplicity=max(
            Counter(k for row in grid for k in row).values()),
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
    import json
    return json.dumps(report_as_dict(rep))
