"""Coverage census: which outputs a generation method reaches at small
sizes, and with what exact probability.

`walk` runs a method once for every sequence of answers its rng's
`below` calls can get, so it visits every choice the stream can make.
The seed block is drawn by rejection, which has no finite tree of
answers; it is uniform over GL(p), so the census takes every seed block
in turn, each with probability 1/|GL(p)|.
"""

import itertools
from collections import defaultdict
from fractions import Fraction
from functools import cache

import pytest

from blockinv import StripChoice
from blockinv.construct import GeneratorConfig, _grow, generate
from blockinv.field import prime_field
from blockinv.matrix import Matrix
from blockinv.verify import verify_blocks

from oracles import two_block_count

GF2 = prime_field(2)
GF3 = prime_field(3)


class Scripted:
    """Stands in for SplitMix64: `below` answers from `script`, a list of
    [answer, bound] pairs that it extends with answer 0 past its end, and
    `chance` is the probability of the answers given so far."""

    def __init__(self, script):
        self.script, self.at, self.chance = script, 0, Fraction(1)

    def below(self, bound):
        if self.at == len(self.script):
            self.script.append([0, bound])
        answer, scripted_bound = self.script[self.at]
        # the same earlier answers must lead to the same draw
        assert scripted_bound == bound
        self.at += 1
        self.chance /= bound
        return answer


def walk(run):
    """Yield (run(rng), probability) for every answer sequence rng can
    give, in lexicographic order: after each run, the last answer that
    is not yet at its bound is advanced and the ones after it dropped."""
    script = []
    while True:
        rng = Scripted(script)
        yield run(rng), rng.chance
        while script and script[-1][0] == script[-1][1] - 1:
            script.pop()
        if not script:
            return
        script[-1][0] += 1


def general_linear(p, field):
    """Every matrix of GL(p, field)."""
    every = (Matrix(field, rows) for rows in itertools.product(
        itertools.product(range(field.order), repeat=p), repeat=p))
    return [m for m in every if m.rank() == p]


def border_census(n, p, field):
    """Every (n, p) output of border growth with StripChoice.RANDOM,
    mapped to its exact probability."""
    seeds = general_linear(p, field)
    census = defaultdict(Fraction)
    for seed in seeds:
        def run(rng):
            grid = [[seed]]
            _grow(grid, n // p - 1, StripChoice.RANDOM, rng)
            return Matrix.from_blocks(grid)
        for m, chance in walk(run):
            census[m] += chance / len(seeds)
    return census, seeds


@cache
def gf2_block_invertible_count(k):
    """The number of (2k, 2) block invertible squares over GF(2).

    Right-multiplying block-column j by g_j in GL(2) maps block-rows of
    GL(2) blocks onto themselves and keeps the rank, so every first
    block-row (A_1 .. A_k) admits as many completions as (I .. I) does:
    the count is 6^k times the completions of (I .. I). A block is its
    two rows as 2-bit masks, invertible when they are nonzero and
    distinct; a block-row packs into two masks of 2k bits, and rows are
    ranked by their leading bits.
    """
    gl = [(a, b) for a in range(1, 4) for b in range(1, 4) if a != b]

    def pack(blocks):
        return tuple(sum(blk[i] << 2 * j for j, blk in enumerate(blocks))
                     for i in range(2))

    block_rows = [pack(row) for row in itertools.product(gl, repeat=k)]
    first = pack([(2, 1)] * k)  # (I .. I)

    def full_rank(rows):
        lead = {}
        for r in rows:
            while r and r.bit_length() in lead:
                r ^= lead[r.bit_length()]
            if not r:
                return False
            lead[r.bit_length()] = r
        return True

    completions = sum(full_rank(first + sum(rest, ()))
                      for rest in itertools.product(block_rows, repeat=k - 1))
    return len(gl) ** k * completions


def test_gf2_block_invertible_count():
    assert gf2_block_invertible_count(2) == two_block_count(2, 2) == 432
    assert gf2_block_invertible_count(3) == 2_488_320


def test_walk_visits_every_answer_sequence_once():
    def run(rng):
        first = rng.below(3)
        return (first,) + tuple(rng.below(2) for _ in range(first))

    paths = dict(walk(run))
    assert paths == {(0,): Fraction(1, 3),
                     (1, 0): Fraction(1, 6), (1, 1): Fraction(1, 6),
                     **{(2, *tail): Fraction(1, 12)
                        for tail in itertools.product(range(2), repeat=2)}}


@pytest.mark.parametrize("n, p, field, reached, share", [
    (4, 2, GF2, 6, Fraction(6, 432)),
    (6, 2, GF2, 24, Fraction(24, 2_488_320)),
    (4, 2, GF3, 48, Fraction(48, 2_985_984)),
    (6, 2, GF3, 192, None),
    (8, 2, GF2, 216, None),
], ids=["4-2-gf2", "6-2-gf2", "4-2-gf3", "6-2-gf3", "8-2-gf2"])
def test_border_reaches(n, p, field, reached, share):
    census, seeds = border_census(n, p, field)
    # each seed block and strip sequence gives its own output, so every
    # reached output is equally likely
    assert len(census) == reached
    assert set(census.values()) == {Fraction(1, reached)}
    if share is not None:  # of all (n, p) block invertible squares
        total = (two_block_count(p, field.order) if n == 2 * p
                 else gf2_block_invertible_count(n // p))
        assert Fraction(reached, total) == share
    for m in census:
        report = verify_blocks(m, p)
        assert report.whole_invertible and not report.failing_blocks
    # the fixed strips take one path of the walk from each seed block
    for strip in (StripChoice.FIRST, StripChoice.LAST):
        for seed in seeds:
            grid = [[seed]]
            _grow(grid, n // p - 1, strip, None)
            assert Matrix.from_blocks(grid) in census
    for strip, seed in itertools.product(StripChoice, range(3)):
        assert generate(GeneratorConfig(n, p, field, seed, strip)) in census
