"""CLI surface: flags, exit codes, determinism, pipelines."""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from blockinv import cli
from blockinv.construct import DEFAULT_SEED, gl_count, kronecker_generate
from blockinv.matrixfile import dump_text, load
from blockinv.field import parse_field, prime_field
from blockinv.matrix import Matrix
from blockinv.rng import SplitMix64


def run(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


# ----------------------------------------------------------------------
# generate
# ----------------------------------------------------------------------

def test_generate_to_stdout_and_determinism(capsys):
    code1, out1, err1 = run(capsys, "generate", "--n", "6", "--p", "2",
                            "--field", "gf(2)", "--seed", "7")
    code2, out2, _ = run(capsys, "generate", "--n", "6", "--p", "2",
                         "--field", "gf(2)", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    m, p = load(out1)
    assert m.nrows == 6 and p == 2
    assert "seed=7" in err1 and "extension steps=2" in err1


def test_generate_to_file_byte_identical(tmp_path, capsys):
    f1, f2 = tmp_path / "a.bim", tmp_path / "b.bim"
    args = ("generate", "--n", "8", "--p", "2", "--field", "gf(5)",
            "--seed", "0x2A")
    assert run(capsys, *args, "--out", str(f1))[0] == 0
    assert run(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_generate_json_format(capsys):
    code, out, _ = run(capsys, "generate", "--n", "4", "--p", "2",
                       "--field", "gf(3)", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["rows"] == 4 and obj["p"] == 2


def test_generate_validation_exit_2(capsys):
    code, _, err = run(capsys, "generate", "--n", "7", "--p", "2",
                       "--field", "gf(2)")
    assert code == 2
    assert "divide" in err
    assert run(capsys, "generate", "--n", "4", "--p", "1",
               "--field", "gf(2)")[0] == 2
    assert run(capsys, "generate", "--n", "4", "--p", "2",
               "--field", "gf(6)")[0] == 2
    assert run(capsys, "generate", "--n", "4", "--p", "2",
               "--field", "nonsense")[0] == 2
    assert run(capsys, "generate", "--n", "4", "--p", "2",
               "--field", "gf(\u0663)")[0] == 2
    # seeds are 64-bit: out-of-range values are rejected, not reduced
    for seed in ("-1", "0x10000000000000000", "18446744073709551616"):
        code, out, err = run(capsys, "generate", "--n", "4", "--p", "2",
                             "--field", "gf(2)", "--seed", seed)
        assert code == 2 and out == ""
        assert "outside [0, 2^64)" in err
    assert run(capsys, "generate", "--n", "4", "--p", "2", "--field", "gf(2)",
               "--seed", "0xffffffffffffffff")[0] == 0


def test_generate_unknown_flag_exit_2(capsys):
    assert run(capsys, "generate", "--n", "4", "--p", "2",
               "--field", "gf(2)", "--bogus")[0] == 2


def test_generate_io_failure_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--n", "4", "--p", "2",
                       "--field", "gf(2)", "--out", str(tmp_path))  # a dir
    assert code == 1
    assert "cannot write" in err


def test_generate_strip_flags(capsys):
    for strip in ("first", "last", "random"):
        code, out, _ = run(capsys, "generate", "--n", "6", "--p", "2",
                           "--field", "gf(3)", "--strip", strip)
        assert code == 0
        assert load(out)[0].nrows == 6


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_generate_verify_pipeline(tmp_path, capsys):
    path = tmp_path / "m.bim"
    assert run(capsys, "generate", "--n", "12", "--p", "3",
               "--field", "gf(2^4)", "--format", "json",
               "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "block invertible square: yes" in out


def test_verify_identity_fails_exit_3(tmp_path, capsys):
    path = tmp_path / "i4.bim"
    path.write_text(dump_text(Matrix.identity(prime_field(2), 4), 2))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 3
    assert "(0,1)" in out and "(1,0)" in out


def test_verify_block_size_override_exit_2(tmp_path, capsys):
    path = tmp_path / "m.bim"
    path.write_text(dump_text(Matrix.identity(prime_field(2), 4), 2))
    code, _, err = run(capsys, "verify", str(path), "--p", "3")
    assert code == 2
    assert "divide" in err


def test_verify_quiet_and_json(tmp_path, capsys):
    path = tmp_path / "m.bim"
    assert run(capsys, "generate", "--n", "4", "--p", "2",
               "--field", "gf(2)", "--out", str(path))[0] == 0
    code, out, _ = run(capsys, "verify", str(path), "--quiet")
    assert code == 0
    assert "✓" not in out
    code, out, _ = run(capsys, "verify", str(path), "--json")
    assert code == 0
    assert json.loads(out)["is_block_invertible_square"] is True


def test_verify_missing_file_exit_1(tmp_path, capsys):
    assert run(capsys, "verify", str(tmp_path / "nope.bim"))[0] == 1


def test_verify_malformed_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.bim"
    path.write_text("bim v9\nnothing\n")
    assert run(capsys, "verify", str(path))[0] == 2


def test_verify_non_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.bim"
    path.write_bytes(b"\xff\xfe bim v1\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err


HUGE = "9" * 5000  # longer than Python's int-conversion limit


@pytest.mark.parametrize("content", [
    f"bim v1\ngf({HUGE})\n2 2 2\n1 0\n0 1\n",
    json.dumps({"format": "bim", "version": 1, "field": f"gf(2^{HUGE})",
                "rows": 2, "cols": 2, "p": 2, "data": [[1, 0], [0, 1]]}),
    '{"a": ' * 200_000,
    '{"format": "bim", "version": 1, "field": "gf(2)", "rows": 2, '
    f'"cols": 2, "p": 2, "data": [[{HUGE}, 0], [0, 1]]}}',
    '{"format": "bim", "version": 1, "field": "gf(2)", '
    f'"rows": {HUGE}, "cols": 2, "p": 2, "data": [[1, 0], [0, 1]]}}',
], ids=["text-field", "json-field", "json-deep", "json-huge-data",
        "json-huge-rows"])
def test_verify_undecodable_file_exit_2(tmp_path, capsys, content):
    path = tmp_path / "bad.bim"
    path.write_text(content)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("blockinv: ")


def _bim_json(**fields):
    obj = {"format": "bim", "version": 1, "field": "gf(2)", "rows": 1,
           "cols": 1, "p": 1, "data": [[1]]}
    obj.update(fields)
    return json.dumps(obj)


LONG = "x" * 100_000
DIGITS = "9" * 4000  # under the int-conversion limit, so it parses


# malformed input, and a word the message must contain
@pytest.mark.parametrize("content, word", [
    (f"{LONG}\ngf(2)\n1 1 1\n1\n", "magic"),
    (f"bim v1\ngf(2)\n{LONG}\n1\n", "header"),
    (f"bim v1\ngf(2)\n1 1 {LONG}\n1\n", "non-integer header"),
    (f"bim v1\n{LONG}\n1 1 1\n1\n", "field"),
    (_bim_json(version=LONG), "version"),
    (f"bim v1\ngf(2^{DIGITS})\n1 1 1\n1\n", "extension degree"),
    (f"bim v1\ngf({DIGITS})\n1 1 1\n1\n", "prime"),
    (f"bim v1\ngf(2)\n{DIGITS} 1 1\n1\n", "data rows"),
    (f"bim v1\ngf(2)\n1 {DIGITS} 1\n1\n", "entries per row"),
    (f"bim v1\ngf(2)\n-{DIGITS} 1 1\n1\n", "dimensions"),
    (f"bim v1\ngf(2)\n1 1 -{DIGITS}\n1\n", "block size"),
    (f"bim v1\ngf(2)\n1 1 {DIGITS}\n1\n", "does not divide"),
    (_bim_json(rows=int(DIGITS)), "list of"),
    (f"bim v1\ngf(2)\n1 1 1\n{HUGE}\n", "over-long entry in row '99"),
    (f"bim v1\ngf(2)\n1 1 1\n{DIGITS}\n", "out of range"),
    (_bim_json(data=[[LONG]]), "must be an int"),
    (f"bim v1\ngf(2^8;0x{'f' * 5000})\n1 1 1\n1\n", "degree 8"),
    ("bim v1\ngf(11)\n1 1 1\n1_0\n", "non-integer entry"),
    ("bim v1\ngf(2)\n1 1 1\n+0\n", "non-integer entry"),
    ("bim v1\ngf(2)\n1 1 1\n\u0661\n", "non-integer entry"),
    ("bim v1\ngf(2)\n+1 1 1_0\n1\n", "non-integer header"),
    ("bim v1\ngf(\u0663)\n1 1 1\n1\n", "field"),
    (_bim_json(version=True), "version"),
    (_bim_json(version=1.0), "version"),
    ("[[1, 0], [0, 1]]", "not a bim matrix object"),
], ids=["magic", "header", "header-token", "field", "json-version",
        "binary-degree", "prime", "rows", "cols", "negative-rows",
        "negative-p", "file-p", "json-rows", "data-token", "data-code",
        "json-data-string", "hex-mask", "data-underscore", "data-plus",
        "data-arabic-digit", "header-plus", "field-arabic-digit",
        "json-version-true", "json-version-float", "json-array"])
def test_verify_bounds_echoed_input(tmp_path, capsys, content, word):
    path = tmp_path / "bad.bim"
    path.write_text(content)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert len(err.encode()) < 300 and err.count("\n") == 1
    assert word in err


def test_verify_nonsquare_strip_exit_0(tmp_path, capsys):
    # a block-invertible strip verifies clean even though not square
    from blockinv.construct import GeneratorConfig, generate
    m = generate(GeneratorConfig(n=6, p=2, field=prime_field(3), seed=8))
    path = tmp_path / "strip.bim"
    path.write_text(dump_text(m.block_row(2, 0), 2))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "whole matrix: not square" in out


def test_pipeline_full_acceptance_grid(tmp_path, capsys):
    # every config of the acceptance grid must generate and verify clean
    # through the CLI (p in 2..5, k in 1..12, six fields, five seeds)
    fields = ("gf(2)", "gf(3)", "gf(5)", "gf(257)", "gf(2^4)", "gf(2^8)")
    path = tmp_path / "grid.bim"
    for p in (2, 3, 4, 5):
        for k in range(1, 13):
            for fld in fields:
                for seed in range(5):
                    code, _, err = run(capsys, "generate", "--n", str(p * k),
                                       "--p", str(p), "--field", fld,
                                       "--seed", str(seed),
                                       "--out", str(path))
                    assert code == 0, (p, k, fld, seed, err)
                    code, _, err = run(capsys, "verify", str(path), "--quiet")
                    assert code == 0, (p, k, fld, seed, err)


# ----------------------------------------------------------------------
# count
# ----------------------------------------------------------------------

def test_count_2_2(capsys):
    code, out, _ = run(capsys, "count", "--p", "2", "--q", "2")
    assert code == 0
    assert "|GL(2, 2)| = 6" in out
    assert "6/16 = 0.375" in out


def test_count_more_values(capsys):
    assert "|GL(1, 2)| = 1" in run(capsys, "count", "--p", "1", "--q", "2")[1]
    assert "|GL(3, 2)| = 168" in run(capsys, "count", "--p", "3", "--q", "2")[1]


def test_count_probability_matches_exact_fraction(capsys):
    for p in range(1, 5):
        for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 256, 65521, 65536):
            code, out, _ = run(capsys, "count", "--p", str(p), "--q", str(q))
            assert code == 0
            count = gl_count(p, q)
            total = q ** (p * p)
            exact = float(Fraction(count, total))
            assert out.splitlines()[1] == (
                f"acceptance probability: {count}/{total} = {exact:.6g}")


def test_count_largest_printable(capsys):
    code, out, _ = run(capsys, "count", "--p", "119", "--q", "2")
    assert code == 0
    count = gl_count(119, 2)
    assert len(str(count)) == 4263
    assert out.splitlines()[0] == f"|GL(119, 2)| = {count}"


@pytest.mark.parametrize("p, q", [(120, 2), (300, 3), (3000, 2), (60, 65521)])
def test_count_too_large_to_print_exit_2(capsys, p, q):
    start = time.perf_counter()
    code, out, err = run(capsys, "count", "--p", str(p), "--q", str(q))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "digits" in err


def test_count_large_prime_order(capsys):
    q = 2 ** 61 - 1
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--p", "1", "--q", str(q))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[0] == f"|GL(1, {q})| = {q - 1}"


def test_count_order_past_64_bits_exit_2(capsys):
    code, out, err = run(capsys, "count", "--p", "1", "--q", str(2 ** 64))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "2^64" in err


def test_count_bad_order_exit_2(capsys):
    assert run(capsys, "count", "--p", "2", "--q", "6")[0] == 2
    assert run(capsys, "count", "--p", "2", "--q", "1")[0] == 2


# ----------------------------------------------------------------------
# kron
# ----------------------------------------------------------------------

def test_kron_gf2_nonexistence_exit_0(capsys):
    code, out, _ = run(capsys, "kron", "--p", "2", "--field", "gf(2)")
    assert code == 0
    assert "no invertible all-nonzero" in out
    assert "exhaustive" in out


def test_kron_gf3_writes_verified_matrix(tmp_path, capsys):
    path = tmp_path / "k.bim"
    code, _, err = run(capsys, "kron", "--p", "2", "--field", "gf(3)",
                       "--out", str(path))
    assert code == 0
    assert "verified" in err
    assert run(capsys, "verify", str(path))[0] == 0
    m, p = load(path.read_text())
    assert m.nrows == 4 and p == 2


def test_kron_inconclusive_exit_4(capsys):
    # large field, zero-trial cap: the search cannot conclude anything
    code, _, err = run(capsys, "kron", "--p", "4", "--field", "gf(2^16)",
                       "--max-trials", "0")
    assert code == 4
    assert "inconclusive" in err
    # same for a capped search that keeps drawing the singular all-ones
    assert run(capsys, "kron", "--p", "5", "--field", "gf(2)",
               "--max-trials", "10")[0] == 4


def test_kron_determinism(capsys):
    args = ("kron", "--p", "2", "--field", "gf(3)", "--seed", "5")
    assert run(capsys, *args)[1] == run(capsys, *args)[1]


def test_kron_validation_exit_2(capsys):
    assert run(capsys, "kron", "--p", "1", "--field", "gf(3)")[0] == 2
    assert run(capsys, "kron", "--p", "2", "--field", "gf(4)")[0] == 2
    assert run(capsys, "kron", "--p", "2", "--field", f"gf({HUGE})")[0] == 2
    for seed in ("-1", "0x10000000000000000"):
        assert run(capsys, "kron", "--p", "2", "--field", "gf(3)",
                   "--seed", seed)[0] == 2
    for field in ("gf(2)", "gf(2^16)"):
        for trials in ("-1", "-3", "x"):
            assert run(capsys, "kron", "--p", "2", "--field", field,
                       "--max-trials", trials)[0] == 2


@pytest.mark.parametrize("p", [str(cli.KRON_MAX_P + 1), "9" * 3000])
def test_kron_p_above_limit_exit_2(capsys, p):
    start = time.perf_counter()
    code, out, err = run(capsys, "kron", "--p", p, "--field", "gf(2)")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 300
    assert f"limit {cli.KRON_MAX_P}" in err


def test_kron_exhaustive_choice_needs_no_large_power():
    # p * p > 20 rules the exhaustive search out before q^(p*p), here a
    # 64-million-bit int, is formed; a zero trial cap makes the random
    # search return at once
    start = time.perf_counter()
    res = kronecker_generate(2000, prime_field(65521), SplitMix64(1),
                             max_trials=0)
    assert time.perf_counter() - start < 1.0
    assert not res.exhaustive and res.trials == 0


# sha256 of `kron` stdout and the exhaustive search's trial count, at the
# default seed; the candidates are enumerated in row-major code order
@pytest.mark.parametrize("p, field, digest, trials", [
    (2, "gf(3)",
     "759dcd78cef2e32f24de6e6023d9da459b1eb592caa8c38d673a66d652d7fa28", 2),
    (2, "gf(5)",
     "056f36cb6924629d0324b40d8d1a46c11dd5d9b331c43e73a7eb00cb9d923ae4", 2),
    (2, "gf(2^2)",
     "87ef1d64d8ef14ef3663f93e61a3c5e1b9e97cf5895b686af6b14a723df565fe", 2),
    (3, "gf(3)",
     "8fe37694f3c37d83ac16ccb3bf65b294b30ee1b168c21b2ac651091707432e97", 11),
])
def test_kron_golden_bytes(capsys, p, field, digest, trials):
    code, out, _ = run(capsys, "kron", "--p", str(p), "--field", field)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    res = kronecker_generate(p, parse_field(field), SplitMix64(DEFAULT_SEED))
    assert res.exhaustive and res.trials == trials


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------

def test_no_command_exit_2(capsys):
    assert run(capsys)[0] == 2


def test_entry_raises_system_exit(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["blockinv", "count", "--p", "1", "--q", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.entry()
    assert exc.value.code == 0


# every int or choice option of every subcommand, with the other
# arguments valid
OPTION_CASES = [
    ("generate", "--n", "--n 4 --p 2 --field gf(2)"),
    ("generate", "--p", "--n 4 --p 2 --field gf(2)"),
    ("generate", "--seed", "--n 4 --p 2 --field gf(2)"),
    ("generate", "--strip", "--n 4 --p 2 --field gf(2)"),
    ("generate", "--format", "--n 4 --p 2 --field gf(2)"),
    ("verify", "--p", "m.bim"),
    ("count", "--p", "--p 1 --q 2"),
    ("count", "--q", "--p 1 --q 2"),
    ("kron", "--p", "--p 2 --field gf(3)"),
    ("kron", "--seed", "--p 2 --field gf(3)"),
    ("kron", "--max-trials", "--p 2 --field gf(3)"),
    ("kron", "--format", "--p 2 --field gf(3)"),
]


@pytest.mark.parametrize("command, option, rest", OPTION_CASES,
                         ids=[f"{c}{o}" for c, o, _ in OPTION_CASES])
@pytest.mark.parametrize("value", ["x" * 3000, "-" + "9" * 3000],
                         ids=["junk", "long-negative"])
def test_option_values_quoted_bounded(tmp_path, capsys, command, option,
                                     rest, value):
    (tmp_path / "m.bim").write_text(
        dump_text(Matrix.identity(prime_field(2), 4), 2))
    code, out, err = run(capsys, command,
                         *rest.replace("m.bim", str(tmp_path / "m.bim")).split(),
                         option, value)
    assert code == 2 and out == ""
    assert len(err.splitlines()[-1].encode()) < 300


@pytest.mark.parametrize("n, p", [("9" * 3000, "2"), ("4", "9" * 3000)],
                         ids=["long-n", "long-p"])
def test_generate_config_error_quoted_bounded(capsys, n, p):
    code, out, err = run(capsys, "generate", "--n", n, "--p", p,
                         "--field", "gf(2)")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 300
