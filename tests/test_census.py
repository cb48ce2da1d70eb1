"""Coverage census: which outputs a generation method reaches at small
sizes, and with what exact probability.

`walk` runs a method once for every sequence of answers its rng's
`below` calls can get, so it visits every choice the stream can make.
The seed block is drawn by rejection, which has no finite tree of
answers; it is uniform over GL(p), so the census takes every seed block
in turn, each with probability 1/|GL(p)|.

`TOTALS` counts every (n, p) block invertible square at each census
size, which is what the reached outputs are a share of. The small ones
are recounted by `oracles.normalized_count`; the two that take it
minutes are pinned.
"""

import itertools
from collections import defaultdict
from fractions import Fraction

import pytest

from blockinv import StripChoice
from blockinv.construct import GeneratorConfig, _grow, generate
from blockinv.field import prime_field
from blockinv.matrix import Matrix
from blockinv.verify import verify_blocks

from oracles import normalized_count, two_block_count

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


#: Every (n, p) block invertible square over GF(q), keyed by (n, p, q):
#: the totals of the README's census table.
TOTALS = {(4, 2, 2): 432, (6, 2, 2): 2_488_320, (4, 2, 3): 2_985_984,
          (8, 2, 2): 649_917_333_504, (6, 2, 3): 741_481_075_703_808}

#: Totals too slow to count in the suite. Each was counted by
#: `normalized_count(n // p, p, q)` run on its own, with Python 3.11 on
#: one core of a 2-CPU x86-64 host: (8, 2, 2) from 2,321,664 normalized
#: squares in 93 s, and (6, 2, 3) from 2,910,006 in 59 s.
PINNED = {(8, 2, 2), (6, 2, 3)}


def test_normalized_count():
    for (n, p, q), total in TOTALS.items():
        if (n, p, q) not in PINNED:
            assert normalized_count(n // p, p, q) == total
        if n == 2 * p:
            assert total == two_block_count(p, q)


def test_walk_visits_every_answer_sequence_once():
    def run(rng):
        first = rng.below(3)
        return (first,) + tuple(rng.below(2) for _ in range(first))

    paths = dict(walk(run))
    assert paths == {(0,): Fraction(1, 3),
                     (1, 0): Fraction(1, 6), (1, 1): Fraction(1, 6),
                     **{(2, *tail): Fraction(1, 12)
                        for tail in itertools.product(range(2), repeat=2)}}


@pytest.mark.parametrize("n, p, field, reached", [
    (4, 2, GF2, 6),
    (6, 2, GF2, 24),
    (4, 2, GF3, 48),
    (6, 2, GF3, 192),
    (8, 2, GF2, 216),
], ids=["4-2-gf2", "6-2-gf2", "4-2-gf3", "6-2-gf3", "8-2-gf2"])
def test_border_reaches(n, p, field, reached):
    census, seeds = border_census(n, p, field)
    # each seed block and strip sequence gives its own output, so every
    # reached output is equally likely, with probability 1/reached, and
    # reached of the TOTALS[n, p, q] block invertible squares
    assert len(census) == reached < TOTALS[n, p, field.order]
    assert set(census.values()) == {Fraction(1, reached)}
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
