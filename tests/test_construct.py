"""Generator layer: perturbation matrix, corner completion, extension,
full generation, GL counting, Kronecker alternative."""

import hashlib
import itertools
import pickle
import random
from collections import Counter

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

from oracles import fixed_free_count, scalar_rref, two_block_count, zeros

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


#: perturbation_matrix(p, r) for p = 5 and 6 and every r, rows as digits.
PERTURBATION = {
    (5, 0): "10000 01000 00100 00010 00001",
    (5, 1): "11000 10000 00100 00010 00001",
    (5, 2): "01000 11000 00100 00010 00001",
    (5, 3): "11100 11000 10000 00010 00001",
    (5, 4): "01000 11000 00010 00110 00001",
    (5, 5): "11100 11000 10000 00001 00011",
    (6, 0): "100000 010000 001000 000100 000010 000001",
    (6, 1): "110000 100000 001000 000100 000010 000001",
    (6, 2): "010000 110000 001000 000100 000010 000001",
    (6, 3): "111000 110000 100000 000100 000010 000001",
    (6, 4): "010000 110000 000100 001100 000010 000001",
    (6, 5): "111000 110000 100000 000010 000110 000001",
    (6, 6): "010000 110000 000100 001100 000001 000011",
}


@pytest.mark.parametrize("p, r", sorted(PERTURBATION))
def test_perturbation_matrix_is_pinned(p, r):
    want = [list(map(int, row)) for row in PERTURBATION[p, r].split()]
    for field in (GF2, GF3, GF256):
        assert perturbation_matrix(p, r, field).to_lists() == want


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
    w, corner = corner_completion(zeros(GF2, 2, 2))
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


@pytest.mark.parametrize("field", [GF2, GF3, GF16, prime_field(65521)],
                         ids=str)
def test_completion_of_invertible_input_is_that_of_identity_times_it(field):
    # what border growth rests on: for invertible s the rank normal form
    # has left = s and right = I, so the completion of s is s times that
    # of I, and a step needs only the product s @ c
    rng = SplitMix64(field.order)
    for p in range(2, 6):
        a, c = corner_completion(Matrix.identity(field, p))
        for _ in range(5):
            s = random_invertible(p, field, rng)
            assert corner_completion(s) == (s @ a, s @ c)


# ----------------------------------------------------------------------
# extend
# ----------------------------------------------------------------------

def test_extend_any_invertible_2x2():
    # every invertible 2x2 over GF(2) is a (2, 2) block invertible square
    for rows in itertools.product(itertools.product((0, 1), repeat=2),
                                  repeat=2):
        m = Matrix(GF2, rows)
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
    # why any strip may border M: its blocks are blocks of M
    m = generate(GeneratorConfig(n=8, p=2, field=GF2, seed=3))
    rows = m.to_lists()
    for i in range(4):
        block_row = Matrix(GF2, rows[2 * i:2 * i + 2])
        block_col = Matrix(GF2, [row[2 * i:2 * i + 2] for row in rows])
        assert verify_blocks(block_row, 2).is_block_invertible
        assert verify_blocks(block_col, 2).is_block_invertible


def test_extend_rejects_bad_input():
    with pytest.raises(NotBlockInvertibleError):
        extend(Matrix.identity(GF2, 4), 2)  # off-diagonal blocks singular
    with pytest.raises(NotBlockInvertibleError):
        extend(zeros(GF2, 2, 2), 2)  # whole matrix singular
    with pytest.raises(ValueError, match="does not divide"):
        extend(Matrix.identity(GF2, 4), 3)
    with pytest.raises(ValueError, match="at least 2"):
        extend(Matrix.identity(GF2, 4), 1)
    with pytest.raises(ValueError):
        extend(zeros(GF2, 2, 3), 2)  # not square


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
def test_extend_rejects_exactly_what_verify_blocks_rejects(field):
    # generated 6x6 matrices with up to three entries overwritten: good
    # inputs, singular wholes and singular blocks all occur
    rng = SplitMix64(0xE7E0 + field.order)
    outcomes = set()
    for seed in range(150):
        rows = generate(GeneratorConfig(n=6, p=2, field=field,
                                        seed=seed)).to_lists()
        for _ in range(rng.below(4)):
            rows[rng.below(6)][rng.below(6)] = rng.below(field.order)
        m = Matrix(field, rows)
        rep = verify_blocks(m, 2)
        if rep.is_block_invertible_square:
            outcomes.add("ok")
            assert extend(m, 2).nrows == 8
            continue
        if not rep.whole_invertible:
            outcomes.add("singular, blocks fail" if rep.failing_blocks
                         else "singular")
            msg = "input matrix is singular"
        else:
            outcomes.add("blocks fail")
            i, j = rep.failing_blocks[0]
            msg = rf"input block \({i}, {j}\) is singular"
        with pytest.raises(NotBlockInvertibleError, match=msg):
            extend(m, 2)
    assert outcomes == {"ok", "singular", "singular, blocks fail",
                        "blocks fail"}


def _with_blocks(m, p, block, positions):
    rows = m.to_lists()
    for i, j in positions:
        for r in range(p):
            rows[i * p + r][j * p:(j + 1) * p] = block[r]
    return Matrix(m.field, rows)


@pytest.mark.parametrize("field", [GF3, GF5], ids=str)
def test_extend_names_first_copy_of_a_repeated_singular_block(field):
    # the same singular block at four positions: the message names the
    # first of them in row-major order, as when each block is ranked
    s = [[1, 2], [field.mul(2, 1), field.mul(2, 2)]]
    positions = [(3, 0), (1, 3), (3, 3), (2, 1)]
    named = 0
    for seed in range(40):
        m = _with_blocks(generate(GeneratorConfig(n=8, p=2, field=field,
                                                  seed=seed)),
                         2, s, positions)
        if not m.is_invertible():
            continue
        named += 1
        with pytest.raises(NotBlockInvertibleError,
                           match=r"^input block \(1, 3\) is singular$"):
            extend(m, 2)
    assert named >= 5
    # across a whole block-row the copies make the matrix singular too
    m = _with_blocks(generate(GeneratorConfig(n=8, p=2, field=field)), 2, s,
                     [(2, j) for j in range(4)])
    with pytest.raises(NotBlockInvertibleError,
                       match="^input matrix is singular$"):
        extend(m, 2)


def test_strip_given_by_value_means_that_choice():
    m = generate(GeneratorConfig(n=4, p=2, field=GF3, seed=11))
    for choice in StripChoice:
        assert (extend(m, 2, choice.value, SplitMix64(1))
                == extend(m, 2, choice, SplitMix64(1)))
        cfg = GeneratorConfig(n=12, p=2, field=GF3, seed=11,
                              strip=choice.value)
        assert cfg.strip is choice
        assert generate(cfg) == generate(cfg._replace(strip=choice))
    # the choices give different bytes here, so a value read as FIRST
    # would show
    assert len({generate(GeneratorConfig(n=12, p=2, field=GF3, seed=11,
                                         strip=c)) for c in StripChoice}) == 3
    with pytest.raises(ValueError, match="StripChoice"):
        GeneratorConfig(n=4, p=2, field=GF3, strip="middle")
    with pytest.raises(ValueError, match="StripChoice"):
        extend(m, 2, "middle")


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


def test_extend_checks_its_arguments_before_its_input(monkeypatch):
    # a missing rng is reported as such, even for a singular input, and
    # before any block of the input is verified
    def no_verify(m, p):
        raise AssertionError("verify_blocks ran")

    monkeypatch.setattr(construct, "verify_blocks", no_verify)
    for m in (zeros(GF2, 4, 4), Matrix.identity(GF2, 4)):
        with pytest.raises(ValueError, match="requires an rng"):
            extend(m, 2, StripChoice.RANDOM)
        with pytest.raises(ValueError, match="requires an rng"):
            extend(m, 2, "random")


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------

def gl22_elements():
    out = []
    for rows in itertools.product(itertools.product((0, 1), repeat=2),
                                  repeat=2):
        m = Matrix(GF2, rows)
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
        zero = zeros(s.field, s.nrows, s.ncols)
        ident = Matrix.identity(s.field, s.nrows)
        return (zero, ident) if bad == "w" else (ident, zero)

    monkeypatch.setattr(construct, "corner_completion", broken)
    with pytest.raises(AssertionError):
        generate(GeneratorConfig(n=8, p=2, field=GF3, seed=1))


@pytest.mark.parametrize("strip", list(StripChoice))
def test_generate_completes_once_and_takes_one_product_per_step(
        monkeypatch, strip):
    # (A, C) is the completion of I, taken and certified once per run;
    # each step is then the one product corner = S @ C
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("corner_completion", "rank_decompose"):
        monkeypatch.setattr(construct, name,
                            counted(name, getattr(construct, name)))
    for name in ("__matmul__", "__add__", "rank"):
        monkeypatch.setattr(Matrix, name, counted(name, getattr(Matrix, name)))
    per_run = None
    for n in (2, 4, 10, 18, 34):
        calls.clear()
        generate(GeneratorConfig(n=n, p=2, field=GF3, seed=3, strip=strip))
        steps = n // 2 - 1
        assert calls.pop("__matmul__") == steps + 2, n
        # one seed, so the same seed draws: nothing else grows with n
        per_run = per_run or dict(calls)
        assert dict(calls) == per_run, n
    assert per_run["corner_completion"] == per_run["rank_decompose"] == 1
    assert per_run["__add__"] == 1


@pytest.mark.parametrize("strip", list(StripChoice))
def test_generate_assembles_once_and_reads_no_block(monkeypatch, strip):
    # a growth step appends block references to the grid of p x p blocks,
    # so the n x n matrix is built once, at the end, and no block of it
    # is ever read back
    calls = Counter()
    block, from_blocks = Matrix.block, Matrix.from_blocks.__func__

    def counted_block(self, *args):
        calls["block"] += 1
        return block(self, *args)

    def counted_from_blocks(cls, grid):
        calls["from_blocks"] += 1
        return from_blocks(cls, grid)

    monkeypatch.setattr(Matrix, "block", counted_block)
    monkeypatch.setattr(Matrix, "from_blocks",
                        classmethod(counted_from_blocks))
    for n, p in ((2, 2), (4, 2), (10, 2), (18, 2), (9, 3), (32, 4)):
        calls.clear()
        m = generate(GeneratorConfig(n=n, p=p, field=GF3, seed=n,
                                     strip=strip))
        assert m.nrows == n
        assert dict(calls) == {"from_blocks": 1}, (n, p)


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
    # GF(2^16) rows take 32-bit slots
    (64, 8, binary_field(16), 0xB10CC0DE, StripChoice.FIRST,
     "becd87729bd72071decc9eecb787faeae5fafcb9b244156e6f56dcdbf7187d4a"),
    # 17x17 blocks: a block product's update has up to 17 nonzero factors
    (68, 17, GF256, 7, StripChoice.RANDOM,
     "98d08632055864c01702794f900d3298d67905bc8f6df7f02071b74719e294be"),
    (51, 17, binary_field(16), 7, StripChoice.LAST,
     "f490c287e13e3c0f0de95a025b458d9d273e399e53d3da5ee78968792e2c4989"),
]


@pytest.mark.parametrize("n,p,field,seed,strip,digest", GOLDEN)
def test_generate_golden_bytes(n, p, field, seed, strip, digest):
    m = generate(GeneratorConfig(n=n, p=p, field=field, seed=seed,
                                 strip=strip))
    text = matrixfile.dump(m, p)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("n, p, field, strip, order, distinct", [
    (64, 8, GF2, StripChoice.FIRST, 3, 2),
    (32, 4, GF256, StripChoice.RANDOM, 3, 3),
    (16, 2, GF3, StripChoice.LAST, 4, 4),
    (32, 4, prime_field(65521), StripChoice.RANDOM, 8190, 3),
], ids=["gf2-first", "gf256-random", "gf3-last", "gf65521-random"])
def test_every_block_is_the_seed_block_times_a_power_of_c(
        n, p, field, strip, order, distinct):
    # The defect S is a block of M, so it has full rank, left = S and
    # right = I: W = S @ A and the corner is S @ C for C = I + A with A
    # the (p, p) perturbation matrix. Every block is then B @ C^e, for
    # B the seed block (0, 0) and 0 <= e < ord(C): a known limitation.
    m = generate(GeneratorConfig(n=n, p=p, field=field, strip=strip))
    b = m.block(p, 0, 0)
    eye = Matrix.identity(field, p)
    c = eye + perturbation_matrix(p, p, field)
    closed_form, power = {b}, c
    while power != eye:
        closed_form.add(b @ power)
        power = power @ c
    assert len(closed_form) == order
    blocks = {m.block(p, i, j) for i in range(n // p) for j in range(n // p)}
    assert blocks <= closed_form
    assert len(blocks) == distinct


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=7, p=2, field=GF2)
    with pytest.raises(ValueError):
        GeneratorConfig(n=4, p=1, field=GF2)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=4, field=GF2)
    for n in (0, -4):
        with pytest.raises(ValueError, match=f"n={n} must be positive"):
            GeneratorConfig(n=n, p=2, field=GF2)


def test_config_validates_every_way_it_is_built():
    cfg = GeneratorConfig(n=8, p=2, field=GF3, seed=5)
    assert cfg.seed == 5 and cfg.strip is StripChoice.FIRST
    assert cfg._replace(n=12) == GeneratorConfig(12, 2, GF3, 5)
    with pytest.raises(ValueError, match="p=2 must divide n=7"):
        cfg._replace(n=7)
    with pytest.raises(ValueError, match="must be at least 2"):
        GeneratorConfig._make((8, 1, GF3, 5, StripChoice.FIRST))
    with pytest.raises(AttributeError):
        cfg.n = 4


@pytest.mark.parametrize("name, value", [
    ("n", 4.0), ("n", True), ("n", "4"), ("p", 2.0), ("p", True),
    ("seed", "7"), ("seed", True), ("seed", 7.0), ("seed", None)])
def test_config_rejects_an_n_p_or_seed_that_is_not_an_int(name, value):
    kwargs = {"n": 4, "p": 2, "field": GF2, "seed": 7, name: value}
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        GeneratorConfig(**kwargs)


@pytest.mark.parametrize("seed", [-1, 1 << 64, -(10 ** 3000)],
                         ids=["minus-one", "two-to-the-64", "long-negative"])
def test_config_rejects_a_seed_outside_the_stream(seed):
    # SplitMix64 keeps the seed mod 2^64, so -1 would give the bytes of
    # 2^64 - 1 under a config that compares unequal to it
    with pytest.raises(ValueError, match=r"is outside \[0, 2\^64\)") as e:
        GeneratorConfig(n=4, p=2, field=GF2, seed=seed)
    assert len(str(e.value)) < 300
    for edge in (0, (1 << 64) - 1):
        assert GeneratorConfig(n=4, p=2, field=GF2, seed=edge).seed == edge


def test_config_rejects_a_field_that_is_not_a_fieldspec():
    for field in ("gf(2)", 2, None):
        with pytest.raises(TypeError, match="FieldSpec"):
            GeneratorConfig(n=4, p=2, field=field)


@pytest.mark.parametrize("field", [GF2, prime_field(65521),
                                   binary_field(8, 0x11D), binary_field(16)],
                         ids=str)
def test_pickled_config_generates_the_same_bytes(field):
    cfg = GeneratorConfig(n=8, p=2, field=field, seed=3,
                          strip=StripChoice.RANDOM)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and copy.strip is StripChoice.RANDOM
    assert (matrixfile.dump(generate(copy), 2)
            == matrixfile.dump(generate(cfg), 2))


# ----------------------------------------------------------------------
# random invertible
# ----------------------------------------------------------------------

def reference_search(rng, p, field, low, cap=None):
    """Whole p x p candidates from a raw stream, entries row-major, each
    low + next_u64() % (order - low), until one has rank p (by the scalar
    oracle) or cap candidates are spent; returns (rows or None, tries)."""
    span, tries = field.order - low, 0
    while cap is None or tries < cap:
        rows = [[low + rng.next_u64() % span for _ in range(p)]
                for _ in range(p)]
        tries += 1
        if len(scalar_rref(rows, field)[1]) == p:
            return rows, tries
    return None, tries


@pytest.mark.parametrize("p, field, seed, tries", [
    (3, GF2, 1, 4),
    (2, GF256, 58, 2),
    (4, GF3, 2, None),
], ids=["gf2-p3", "gf256-p2", "gf3-p4"])
def test_random_invertible_follows_the_stream(p, field, seed, tries):
    # the documented stream: entries row-major, each next_u64() % order,
    # whole matrices redrawn until invertible, and nothing else drawn
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    rows, spent = reference_search(ref, p, field, 0)
    assert random_invertible(p, field, rng).to_lists() == rows
    assert rng.state == ref.state
    if tries is not None:
        assert spent == tries  # some candidates were rejected


@pytest.mark.parametrize("p, field, seed, cap, trials", [
    (5, GF3, 0, 1000, 2),
    (2, prime_field(257), 4, 1000, 1),
    (5, GF2, 0, 40, 40),
], ids=["gf3-p5", "gf257-p2", "gf2-p5-capped"])
def test_kronecker_random_search_follows_the_stream(p, field, seed, cap,
                                                    trials):
    # random candidates take entries 1 + next_u64() % (order - 1); after
    # a hit B is drawn from the same stream as random_invertible draws
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    res = kronecker_generate(p, field, rng, max_trials=cap)
    a, spent = reference_search(ref, p, field, 1, cap)
    assert not res.exhaustive and res.trials == spent == trials
    if a is None:
        assert not res.found
    else:
        b, _ = reference_search(ref, p, field, 0)
        assert res.factor_a.to_lists() == a
        assert res.factor_b.to_lists() == b
    assert rng.state == ref.state

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
    return sum(1 for rows in itertools.product(
                   itertools.product(range(q), repeat=p), repeat=p)
               if Matrix(field, rows).rank() == p)


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
    with pytest.raises(ValueError, match="below 2"):
        gl_count(1, 1 << 64)


@pytest.mark.parametrize("p, field, expected", [
    (1, GF2, 0), (2, GF2, 2), (3, GF2, 48), (2, GF3, 27), (4, GF2, 5824)],
    ids=str)
def test_fixed_free_count_matches_enumeration(p, field, expected):
    # every E in GL(p) whose E - I is invertible too
    minus_one = field.neg(1)
    found = 0
    for rows in itertools.product(itertools.product(range(field.order),
                                                    repeat=p), repeat=p):
        if Matrix(field, rows).rank() == p:
            shifted = [[field.add(x, minus_one) if i == j else x
                        for j, x in enumerate(row)]
                       for i, row in enumerate(rows)]
            found += Matrix(field, shifted).rank() == p
    assert found == fixed_free_count(p, field.order) == expected


def test_two_block_count_matches_enumeration():
    # all 6^4 choices of the four blocks of a 4 x 4 over GF(2) from GL(2)
    gl2 = [Matrix(GF2, rows) for rows in itertools.product(
        itertools.product(range(2), repeat=2), repeat=2)
        if Matrix(GF2, rows).rank() == 2]
    found = sum(Matrix.from_blocks([[a, b], [c, d]]).rank() == 4
                for a, b, c, d in itertools.product(gl2, repeat=4))
    assert found == two_block_count(2, 2) == 432


def test_two_block_count_pins():
    assert two_block_count(2, 3) == 2_985_984
    assert two_block_count(4, 2) == 47_719_177_519_104_000


def _trial_division_prime_power(q):
    """Reference: strip the smallest factor, as trial division finds it."""
    if q < 2:
        return False
    c = 2
    while c * c <= q:
        if q % c == 0:
            while q % c == 0:
                q //= c
            return q == 1
        c += 1
    return True


def test_prime_power_agrees_with_trial_division():
    for q in range(-2, 10 ** 5):
        assert construct._is_prime_power(q) == _trial_division_prime_power(q), q


@pytest.mark.parametrize("q, expected", [
    (2 ** 61 - 1, True),
    (3 ** 40, True),
    (2 ** 63, True),
    ((2 ** 31 - 1) ** 2, True),
    (2 ** 64 - 59, True),  # the largest prime below 2^64
    (561, False),  # Carmichael number 3 * 11 * 17
    (2 ** 64 - 1, False),
    ((2 ** 31 - 1) * (2 ** 31 + 11), False),
    (3 ** 39 * 2, False),
])
def test_prime_power_past_trial_division_reach(q, expected):
    assert construct._is_prime_power(q) is expected


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
    assert all(x != 0 for row in res.factor_a.to_lists() for x in row)
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


@pytest.mark.parametrize("field", [GF2, prime_field(257)], ids=str)
def test_negative_trial_cap_is_rejected(field):
    # GF(2) at p=2 takes the exhaustive search and GF(257) the random
    # one; the cap is checked before either is picked
    for cap in (-1, -(10 ** 3000)):
        rng = SplitMix64(0)
        with pytest.raises(ValueError, match="trial cap .* is negative") as e:
            kronecker_generate(2, field, rng, max_trials=cap)
        assert len(str(e.value)) < 300
        assert rng.state == SplitMix64(0).state


def test_all_nonzero_candidates_in_row_major_code_order():
    fld = prime_field(5)
    got = [m.to_lists() for m in construct._all_nonzero_matrices(2, fld)]
    want = sorted([list(c[:2]), list(c[2:])]
                  for c in itertools.product(range(1, 5), repeat=4))
    assert got == want  # all 256, in lexicographic order


def test_kronecker_deterministic():
    a = kronecker_generate(2, GF3, SplitMix64(42))
    b = kronecker_generate(2, GF3, SplitMix64(42))
    assert a.matrix == b.matrix
