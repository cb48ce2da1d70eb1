"""Checks of the benchmark itself: the reference checker and exact counters.

Run from the repository root: python -m pytest perfbench
"""

import itertools
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run
from refcheck import RefField, check, make_random, read_matrix, write_matrix

HERE = Path(__file__).resolve().parent
FIELDS = [RefField(2), RefField(5), RefField(2, 3, 0b1011),
          RefField(2, 8, 0x11B)]


def test_carry_less_multiply_matches_fips197():
    gf256 = RefField(2, 8, 0x11B)
    assert gf256.mul(0x57, 0x83) == 0xC1
    assert gf256.mul(0x57, 0x13) == 0xFE


@pytest.mark.parametrize("fld", [RefField(7), RefField(2, 4, 0x13),
                                 RefField(2, 16, 0x1002B)])
def test_inverse_of_every_nonzero_element(fld):
    x = np.arange(1, fld.order, dtype=np.int64)
    assert (fld.mul(x, fld.inverse(x)) == 1).all()


def _determinant(rows, fld):
    """Leibniz formula; the sign matters only in odd characteristic."""
    n, det = len(rows), 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = fld.mul(term, rows[i][j])
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        if inversions % 2 and fld.degree == 1:
            term = -term % fld.char
        det = fld.add(det, term)
    return det


@pytest.mark.parametrize("fld", FIELDS)
def test_verdicts_match_determinants(fld):
    rng = np.random.default_rng(fld.order)
    for _ in range(200):
        rows = rng.integers(0, fld.order, (4, 4)).tolist()
        verdict = check(rows, 2, fld)
        assert verdict.whole_invertible == (_determinant(rows, fld) != 0)
        for i, j in itertools.product(range(2), repeat=2):
            block = [r[2 * j:2 * j + 2] for r in rows[2 * i:2 * i + 2]]
            singular = _determinant(block, fld) == 0
            assert ((i, j) in verdict.failing_blocks) == singular


@pytest.mark.parametrize("planted", [False, True])
def test_random_matrix_has_exactly_the_intended_failures(planted):
    fld = RefField(2, 8, 0x11B)
    rows, verdict = make_random(32, 4, fld, planted, random.Random(1))
    assert len(verdict.failing_blocks) == int(planted)
    assert planted or verdict.whole_invertible
    assert check(rows, 4, fld) == verdict
    assert make_random(32, 4, fld, planted, random.Random(1)) == (rows,
                                                                   verdict)


def test_text_and_json_round_trip():
    rows = [[1, 2], [3, 4]]
    fld = RefField(5)
    for fmt in ("text", "json"):
        mf = read_matrix(write_matrix(rows, 2, fld, fmt))
        assert (mf.field, mf.p, mf.rows) == ("gf(5)", 2, rows)


def _traced_counters(workdir: Path, seed: int) -> tuple[dict, list]:
    wl = run.GenerateWorkload(name="small", n=16, p=4,
                              field=RefField(2, 8, 0x11B), strip="random",
                              fmt="text", traced_rounds=2)
    client = run.Client(workdir)
    try:
        metrics = run.per_layer(client, wl, wl.prepare(seed, client), {})
    finally:
        client.close()
    assert client.failures == []
    outputs = sorted(p.read_bytes() for p in workdir.glob("gen-traced-*"))
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    return counts, outputs


def test_traced_counters_repeat_exactly(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first, out_a = _traced_counters(tmp_path / "a", 7)
    second, out_b = _traced_counters(tmp_path / "b", 7)
    assert first == second
    assert out_a == out_b
    # Steps grow a 4x4 seed to 8, 12 and 16, re-checking k^2 blocks at k.
    assert first["construct.blocks_rechecked"] == 1 + 4 + 9
    assert first["construct.extend.calls"] == 3
    assert first["verify.blocks_checked"] == 16
    assert first["construct.rank_s_below_p"] == 0


def test_exits_nonzero_without_the_program_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "wbaes-gf2",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_every_declared_layer_metric_is_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics, _ = run.layer_metrics([], run.WORKLOADS["wbaes-gf2"], 1)
    metrics["trace.overhead_s"] = (0.0, "s")
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])
