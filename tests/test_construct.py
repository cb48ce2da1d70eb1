"""Generator layer: perturbation matrix, corner completion, extension,
full generation, GL counting, Kronecker alternative."""

import hashlib
import itertools
import random

import pytest

from blockinv import construct, matrixfile
from blockinv.construct import (GeneratorConfig, NotBlockInvertibleError,
                                StripChoice, corner_completion, extend,
                                generate, gl_count, kronecker_generate,
                                perturbation_matrix, random_invertible)
from blockinv.decompose import rank_normal_form
from blockinv.field import binary_field, prime_field
from blockinv.matrix import Matrix
from blockinv.rng import SplitMix64
from blockinv.verify import verify_blocks

GF2 = prime_field(2)
GF3 = prime_field(3)
GF5 = prime_field(5)
GF16 = binary_field(4)
GF256 = binary_field(8)
#: The field list of the acceptance suite.
FIELDS = [GF2, GF3, GF5, prime_field(257), GF16, GF256]


# ----------------------------------------------------------------------
# perturbation matrix
# ----------------------------------------------------------------------

def test_block_size_two_cases():
    assert perturbation_matrix(2, 0, GF2) == Matrix.identity(GF2, 2)
    assert perturbation_matrix(2, 1, GF2).to_lists() == [[1, 1], [1, 0]]
    assert perturbation_matrix(2, 2, GF2).to_lists() == [[0, 1], [1, 1]]


def test_odd_rank_three_leading_tile():
    a = perturbation_matrix(3, 3, GF2)
    assert a.to_lists() == [[1, 1, 1], [1, 1, 0], [1, 0, 0]]
    t = Matrix.identity(GF2, 3) + a
    assert t.to_lists() == [[0, 1, 1], [1, 0, 0], [1, 0, 1]]
    t.inverse()  # must not raise


def test_sweep_all_ranks_and_fields():
    for f in (GF2, GF3, GF5, GF16):
        for p in range(2, 9):
            for r in range(0, p + 1):
                a = perturbation_matrix(p, r, f)
                assert a.rank() == p
                assert (rank_normal_form(f, p, r) + a).rank() == p


def test_rank_bounds():
    with pytest.raises(ValueError):
        perturbation_matrix(2, 3, GF2)
    with pytest.raises(ValueError):
        perturbation_matrix(2, -1, GF2)
    with pytest.raises(ValueError):
        perturbation_matrix(1, 0, GF2)


# ----------------------------------------------------------------------
# corner completion
# ----------------------------------------------------------------------

def test_completion_of_zero_corner():
    w, corner = corner_completion(Matrix.zeros(GF2, 2, 2))
    assert w == Matrix.identity(GF2, 2)
    assert corner == Matrix.identity(GF2, 2)


def test_completion_of_identity_corner():
    w, corner = corner_completion(Matrix.identity(GF2, 2))
    assert w.to_lists() == [[0, 1], [1, 1]]
    assert corner.to_lists() == [[1, 1], [1, 0]]
    corner.inverse()  # invertible over GF(2)


def test_completion_of_singular_input():
    rnd = random.Random(31)
    for _ in range(50):
        r = rnd.randrange(0, 3)
        a = Matrix(GF5, [[rnd.randrange(5) for _ in range(3)] for _ in range(3)])
        b = rank_normal_form(GF5, 3, r)
        s = a @ b  # rank <= r < 3
        w, corner = corner_completion(s)
        w.inverse()
        corner.inverse()
        assert s + w == corner


def test_completion_all_ranks_property():
    rnd = random.Random(32)
    for field in (GF2, GF3, GF16):
        for _ in range(60):
            p = rnd.randrange(2, 6)
            s = Matrix(field, [[rnd.randrange(field.order) for _ in range(p)]
                               for _ in range(p)])
            w, corner = corner_completion(s)
            assert w.rank() == p
            assert corner.rank() == p


# ----------------------------------------------------------------------
# extend
# ----------------------------------------------------------------------

def test_extend_any_invertible_2x2():
    # every invertible 2x2 over GF(2) is a (2, 2) block invertible square
    for flat in itertools.product((0, 1), repeat=4):
        m = Matrix.from_flat(GF2, 2, 2, flat)
        if m.rank() != 2:
            continue
        n = extend(m, 2)
        assert n.nrows == 4
        assert verify_blocks(n, 2).is_block_invertible_square


def test_extend_gf3_six_by_six():
    rng = SplitMix64(5)
    m = random_invertible(2, GF3, rng)
    m = extend(m, 2)
    assert verify_blocks(m, 2).is_block_invertible_square
    m = extend(m, 2)
    assert m.nrows == 6
    assert verify_blocks(m, 2).is_block_invertible_square


def test_strips_of_block_invertible_are_block_invertible():
    m = generate(GeneratorConfig(n=8, p=2, field=GF2, seed=3))
    for i in range(4):
        assert verify_blocks(m.block_row(2, i), 2).is_block_invertible
        assert verify_blocks(m.block_col(2, i), 2).is_block_invertible


def test_extend_rejects_bad_input():
    with pytest.raises(NotBlockInvertibleError):
        extend(Matrix.identity(GF2, 4), 2)  # off-diagonal blocks singular
    with pytest.raises(NotBlockInvertibleError):
        extend(Matrix.zeros(GF2, 2, 2), 2)  # whole matrix singular
    with pytest.raises(ValueError):
        extend(Matrix.identity(GF2, 4), 3)  # 3 does not divide 4
    with pytest.raises(ValueError):
        extend(Matrix.zeros(GF2, 2, 3), 2)  # not square


def test_extend_strip_choices():
    base = generate(GeneratorConfig(n=6, p=2, field=GF5, seed=11))
    first = extend(base, 2, StripChoice.FIRST)
    last = extend(base, 2, StripChoice.LAST)
    rnd = extend(base, 2, StripChoice.RANDOM, SplitMix64(4))
    for m in (first, last, rnd):
        assert verify_blocks(m, 2).is_block_invertible_square
    # first/last pick different strips of a non-trivial matrix
    assert first != last
    with pytest.raises(ValueError):
        extend(base, 2, StripChoice.RANDOM)  # rng required


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------

def gl22_elements():
    out = []
    for flat in itertools.product((0, 1), repeat=4):
        m = Matrix.from_flat(GF2, 2, 2, flat)
        if m.rank() == 2:
            out.append(m)
    return out


def test_generate_smallest_case_is_gl22():
    elems = gl22_elements()
    assert len(elems) == 6
    for seed in range(20):
        m = generate(GeneratorConfig(n=2, p=2, field=GF2, seed=seed))
        assert m in elems


def test_generate_sixteen_by_sixteen_gf2():
    m = generate(GeneratorConfig(n=16, p=2, field=GF2, seed=77))
    rep = verify_blocks(m, 2)
    assert rep.whole_invertible is True
    assert len(rep.block_verdicts) == 8
    assert all(all(row) for row in rep.block_verdicts)  # all 64 blocks


def test_generate_gf16_p3():
    m = generate(GeneratorConfig(n=12, p=3, field=GF16, seed=1))
    assert verify_blocks(m, 3).is_block_invertible_square


def test_generate_deterministic():
    cfg = GeneratorConfig(n=10, p=2, field=GF3, seed=123,
                          strip=StripChoice.RANDOM)
    assert generate(cfg) == generate(cfg)


@pytest.mark.parametrize("strip", list(StripChoice))
@pytest.mark.parametrize("p", [2, 3, 4])
def test_generate_equals_folded_extend(p, strip):
    # generate skips extend's input checks but must take the same steps,
    # drawing from one shared stream in the same order
    for field in FIELDS:
        seed = 1000 * p + field.order
        rng = SplitMix64(seed)
        m = random_invertible(p, field, rng)
        for _ in range(3):
            m = extend(m, p, strip, rng)
        cfg = GeneratorConfig(n=4 * p, p=p, field=field, seed=seed,
                              strip=strip)
        assert generate(cfg) == m, (str(field), p, strip)


@pytest.mark.parametrize("bad", ["corner", "w"])
def test_generate_rejects_singular_completion(monkeypatch, bad):
    def broken(s):
        zero = Matrix.zeros(s.field, s.nrows, s.ncols)
        ident = Matrix.identity(s.field, s.nrows)
        return (zero, ident) if bad == "w" else (ident, zero)

    monkeypatch.setattr(construct, "corner_completion", broken)
    with pytest.raises(AssertionError):
        generate(GeneratorConfig(n=8, p=2, field=GF3, seed=1))


# sha256 of matrixfile.dump text: generation must stay byte-reproducible,
# so any change to the bytes a config produces breaks these.
GOLDEN = [
    (256, 4, GF256, 0xB10CC0DE, StripChoice.RANDOM,
     "b06a5f7e30942e0a5556381512e545eeea0fc4a1dc6cc78fa27272ce464119d1"),
    (128, 8, GF2, 0xB10CC0DE, StripChoice.FIRST,
     "5cc540934d48ef07e30772ae983a5b0a97dcf855dda8fbe1d0b10b9e82e04388"),
    (64, 4, prime_field(65521), 0xB10CC0DE, StripChoice.LAST,
     "b8d8ee1be7acb4d899412db328c6e81914d1e1bd589874bf7d259e2ae00e1804"),
    (64, 2, GF3, 0xB10CC0DE, StripChoice.RANDOM,
     "167bdb7f7f36f574a254b690ce18fcaecba32ffbb0e329e7712fffa9e96b39ef"),
    (48, 3, GF16, 5, StripChoice.FIRST,
     "267f364572dc29d134dc943d099ff78c25858dac525c9592a5ee28ed0709c3a2"),
    (40, 5, prime_field(257), 9, StripChoice.RANDOM,
     "8f4fe6ae9638f5845ee780e0821860859ede04c9864090807556e0dda16747af"),
]


@pytest.mark.parametrize("n,p,field,seed,strip,digest", GOLDEN)
def test_generate_golden_bytes(n, p, field, seed, strip, digest):
    m = generate(GeneratorConfig(n=n, p=p, field=field, seed=seed,
                                 strip=strip))
    text = matrixfile.dump(m, p)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=7, p=2, field=GF2)
    with pytest.raises(ValueError):
        GeneratorConfig(n=4, p=1, field=GF2)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=4, field=GF2)


# ----------------------------------------------------------------------
# random invertible
# ----------------------------------------------------------------------

def test_one_by_one_over_gf2():
    rng = SplitMix64(0)
    for _ in range(10):
        assert random_invertible(1, GF2, rng) == Matrix(GF2, [[1]])


def test_uniformity_chi_square():
    # 6000 draws over the 6 elements of GL(2, 2); chi-square threshold
    # 20.52 is the 0.001 tail at 5 degrees of freedom, and the seed is
    # fixed so the test is deterministic.
    rng = SplitMix64(20240607)
    counts = {m: 0 for m in gl22_elements()}
    for _ in range(6000):
        counts[random_invertible(2, GF2, rng)] += 1
    chi2 = sum((obs - 1000) ** 2 / 1000 for obs in counts.values())
    assert chi2 < 20.52, counts


def test_samples_always_invertible():
    rng = SplitMix64(5150)
    for field in (GF2, GF3, GF16):
        for p in (1, 2, 3, 4):
            random_invertible(p, field, rng).inverse()


# ----------------------------------------------------------------------
# GL counting
# ----------------------------------------------------------------------

def brute_force_gl(p, field):
    q = field.order
    return sum(1 for flat in itertools.product(range(q), repeat=p * p)
               if Matrix.from_flat(field, p, p, flat).rank() == p)


@pytest.mark.parametrize("p,field,expected", [
    (1, GF2, 1),
    (2, GF2, 6),
    (3, GF2, 168),
    (2, GF3, 48),
    (2, GF5, 480),
])
def test_gl_count_matches_enumeration(p, field, expected):
    assert brute_force_gl(p, field) == expected
    assert gl_count(p, field.order) == expected


def test_gl_count_large_exact():
    # product formula at a size far beyond enumeration
    assert gl_count(8, 2) == 5348063769211699200


def test_gl_count_validation():
    with pytest.raises(ValueError):
        gl_count(2, 6)  # 6 is not a prime power
    with pytest.raises(ValueError):
        gl_count(0, 2)
    assert gl_count(2, 8) == (64 - 1) * (64 - 8)  # prime power accepted


# ----------------------------------------------------------------------
# kronecker alternative
# ----------------------------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 4])
def test_no_all_nonzero_matrix_over_gf2(p):
    res = kronecker_generate(p, GF2, SplitMix64(1))
    assert not res.found
    assert res.exhaustive
    assert res.proved_nonexistence
    assert res.trials == 1  # only the all-ones candidate exists


def test_gf3_kronecker_succeeds():
    res = kronecker_generate(2, GF3, SplitMix64(9))
    assert res.found and res.exhaustive
    assert all(x != 0 for x in res.factor_a.flat())
    assert res.matrix == res.factor_a.kron(res.factor_b)
    assert res.matrix.nrows == 4
    assert verify_blocks(res.matrix, 2).is_block_invertible_square


def test_random_mode_when_space_is_large():
    # 257^4 > 2^20 forces the capped random search; all-nonzero
    # invertible matrices abound over GF(257) so it succeeds at once
    res = kronecker_generate(2, prime_field(257), SplitMix64(3))
    assert res.found and not res.exhaustive
    assert verify_blocks(res.matrix, 2).is_block_invertible_square


def test_random_mode_cap_hit_is_inconclusive():
    # over GF(2) with p=5 the only all-nonzero candidate is the singular
    # all-ones matrix, and 2^25 > 2^20 rules out exhaustion: the search
    # must give up without claiming nonexistence
    res = kronecker_generate(5, GF2, SplitMix64(0), max_trials=40)
    assert not res.found
    assert not res.exhaustive
    assert not res.proved_nonexistence
    assert res.trials == 40


def test_kronecker_deterministic():
    a = kronecker_generate(2, GF3, SplitMix64(42))
    b = kronecker_generate(2, GF3, SplitMix64(42))
    assert a.matrix == b.matrix
