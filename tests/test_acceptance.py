"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as they complete. Every criterion is exact (no numeric tolerances; the
arithmetic is exact by construction); criteria 1 and 2 also carry wall-
clock budgets which are asserted.
"""

import itertools
import random
import time

from blockinv import cli
from blockinv.construct import (GeneratorConfig, generate, gl_count,
                                kronecker_generate, perturbation_matrix,
                                random_invertible)
from blockinv.decompose import rank_decompose, rank_normal_form
from blockinv.field import binary_field, prime_field
from blockinv.matrix import Matrix
from blockinv.matrixfile import JSON, TEXT, dump, load
from blockinv.rng import SplitMix64
from blockinv.verify import verify_blocks

from oracles import decomposition_check, zeros

FIELDS = [prime_field(2), prime_field(3), prime_field(5), prime_field(257),
          binary_field(4), binary_field(8)]


def report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] criterion {num} {status}: {desc}")
    assert not failures, f"criterion {num} failures: {failures[:10]}"


def test_criterion_1_perturbation_sweep():
    t0 = time.perf_counter()
    failures = []
    cases = 0
    for f in FIELDS:
        for p in range(2, 9):
            for r in range(0, p + 1):
                cases += 1
                a = perturbation_matrix(p, r, f)
                if a.rank() != p:
                    failures.append((str(f), p, r, "A singular"))
                if (rank_normal_form(f, p, r) + a).rank() != p:
                    failures.append((str(f), p, r, "diag+A singular"))
    elapsed = time.perf_counter() - t0
    # 2 <= p <= 8 with 0 <= r <= p is 42 pairs per field
    assert cases == 6 * 42
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s budget")
    report(1, f"perturbation sweep, {cases} cases over 6 fields "
              f"({elapsed:.2f}s)", failures)


def test_criterion_2_generate_and_verify_grid():
    t0 = time.perf_counter()
    failures = []
    runs = 0
    for p in (2, 3, 4, 5):
        for k in range(1, 13):
            for f in FIELDS:
                for seed in range(5):
                    runs += 1
                    cfg = GeneratorConfig(n=p * k, p=p, field=f, seed=seed)
                    rep = verify_blocks(generate(cfg), p)
                    if not rep.is_block_invertible_square:
                        failures.append((p, k, str(f), seed,
                                         rep.failing_blocks,
                                         rep.whole_invertible))
    elapsed = time.perf_counter() - t0
    assert runs == 4 * 12 * 6 * 5
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s budget")
    report(2, f"end-to-end grid, {runs} generate+verify runs "
              f"({elapsed:.1f}s)", failures)


def test_criterion_3_stepwise_growth_gf2():
    from blockinv.construct import extend
    gf2 = prime_field(2)
    failures = []
    rng = SplitMix64(404)
    m = random_invertible(2, gf2, rng)
    if not verify_blocks(m, 2).is_block_invertible_square:
        failures.append(("seed matrix", 2))
    while m.nrows < 32:
        m = extend(m, 2, rng=rng)
        if not verify_blocks(m, 2).is_block_invertible_square:
            failures.append(("after extend", m.nrows))
    assert m.nrows == 32
    report(3, "stepwise growth 2 -> 32 over gf(2), verified at every "
              "intermediate size", failures)


def test_criterion_4_gl_counts_against_enumeration():
    expected = {(1, 2): 1, (2, 2): 6, (3, 2): 168, (2, 3): 48, (2, 5): 480}
    field_of = {2: prime_field(2), 3: prime_field(3), 5: prime_field(5)}
    failures = []
    for (p, q), want in expected.items():
        f = field_of[q]
        brute = sum(1 for rows in itertools.product(
                        itertools.product(range(q), repeat=p), repeat=p)
                    if Matrix(f, rows).rank() == p)
        formula = gl_count(p, q)
        if brute != want or formula != want:
            failures.append((p, q, brute, formula, want))
    report(4, "GL counts vs brute-force enumeration for 5 (p, q) pairs",
           failures)


def test_criterion_5_kronecker_failure_and_success():
    gf2 = prime_field(2)
    gf3 = prime_field(3)
    failures = []
    for p in (2, 3, 4):
        res = kronecker_generate(p, gf2, SplitMix64(1))
        if res.found or not res.proved_nonexistence:
            failures.append(("gf(2)", p, "expected proven nonexistence"))
    res = kronecker_generate(2, gf3, SplitMix64(1))
    if not res.found:
        failures.append(("gf(3)", 2, "expected a construction"))
    elif not verify_blocks(res.matrix, 2).is_block_invertible_square:
        failures.append(("gf(3)", 2, "output failed verification"))
    report(5, "kronecker route impossible over gf(2) (p=2,3,4), "
              "succeeds over gf(3)", failures)


def test_criterion_6_rank_decomposition_property():
    fields = (prime_field(2), prime_field(3), binary_field(4))
    rnd = random.Random(909)
    failures = []
    for i in range(1000):
        f = fields[i % 3]
        n = rnd.randrange(1, 9)
        if n > 1 and rnd.random() < 0.5:  # force mixed ranks
            r = rnd.randrange(0, n)
            a = Matrix(f, [[rnd.randrange(f.order) for _ in range(max(r, 1))]
                           for _ in range(n)])
            b = Matrix(f, [[rnd.randrange(f.order) for _ in range(n)]
                           for _ in range(max(r, 1))])
            s = a @ b if r else zeros(f, n, n)
        else:
            s = Matrix(f, [[rnd.randrange(f.order) for _ in range(n)]
                           for _ in range(n)])
        if not decomposition_check(s, rank_decompose(s)):
            failures.append((i, str(f), n))
    report(6, "1000 randomized rank decompositions, exact normal form",
           failures)


def test_criterion_7_determinism_and_round_trip(tmp_path, capsys):
    failures = []

    def run(*argv):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    # identical CLI invocations are byte-identical, stdout and file
    for args in (("generate", "--n", "10", "--p", "2", "--field", "gf(2)",
                  "--seed", "99"),
                 ("generate", "--n", "9", "--p", "3", "--field",
                  "gf(2^4)", "--seed", "1", "--format", "json"),
                 ("kron", "--p", "2", "--field", "gf(3)", "--seed", "4")):
        c1, out1, _ = run(*args)
        c2, out2, _ = run(*args)
        if c1 != 0 or c2 != 0 or out1 != out2:
            failures.append(("stdout determinism", args))
        f1, f2 = tmp_path / "r1", tmp_path / "r2"
        run(*args, "--out", str(f1))
        run(*args, "--out", str(f2))
        if f1.read_bytes() != f2.read_bytes():
            failures.append(("file determinism", args))
        if f1.read_text() != out1:
            failures.append(("file/stdout mismatch", args))

    # save -> load -> save is exact for both formats, 100 random matrices
    sample_fields = FIELDS + [binary_field(8, 0x11D)]
    rnd = random.Random(314159)
    for i in range(100):
        f = sample_fields[i % len(sample_fields)]
        nr, nc = rnd.randrange(1, 9), rnd.randrange(1, 9)
        m = Matrix(f, [[rnd.randrange(f.order) for _ in range(nc)]
                       for _ in range(nr)])
        p = rnd.randrange(1, 5)
        for fmt in (TEXT, JSON):
            text = dump(m, p, fmt)
            m2, p2 = load(text)
            if m2 != m or p2 != p or dump(m2, p2, fmt) != text:
                failures.append(("round trip", i, fmt, str(f)))

    # generate | verify pipeline exits 0 across the acceptance grid corners
    for (n, p, fld) in ((2, 2, "gf(2)"), (24, 2, "gf(257)"),
                        (15, 5, "gf(2^8)"), (12, 3, "gf(5)")):
        path = tmp_path / f"pipe-{n}-{p}.bim"
        c, _, _ = run("generate", "--n", str(n), "--p", str(p),
                      "--field", fld, "--out", str(path))
        cv, _, _ = run("verify", str(path))
        if c != 0 or cv != 0:
            failures.append(("pipeline", n, p, fld, c, cv))

    report(7, "CLI byte-determinism, 100 save/load round trips, "
              "generate|verify pipeline", failures)
