"""CLI surface: flags, exit codes, determinism, pipelines."""

import json

import pytest

from blockinv import cli
from blockinv.matrixfile import dump_text, load
from blockinv.field import prime_field
from blockinv.matrix import Matrix


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
