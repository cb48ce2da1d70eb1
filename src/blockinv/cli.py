"""Command-line front end.

Subcommands:

    generate   build an (n, p) block invertible square matrix
    verify     check a matrix file for block invertibility
    count      |GL(p, q)| and the rejection-sampling acceptance rate
    kron       Kronecker-product construction, or proof it cannot work

Exit codes: 0 success (including a conclusive negative kron result),
1 I/O failure (a file that cannot be read or written, or a stdout that
cannot be written or flushed), 2 usage or validation error (argparse
uses 2 as well), 3 verification failure, 4 inconclusive kron search.
Matrix data goes to --out or stdout; summary lines and errors go to
stderr, so stdout stays byte-reproducible for identical flags and seed.

The console script (`entry`) runs `main`, flushes stdout and stderr and
ends the process with `os._exit`, skipping interpreter teardown, which
would only free what the process is about to give back; a caller that
needs a normal exit calls `main`.

The generators (`construct`, and `rng` for their seeded stream) are
imported by the subcommands that run them, so `verify` loads only the
file, field, matrix and verifier modules.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys

from . import DEFAULT_SEED, StripChoice, matrixfile
from .field import FieldError, _clip, parse_field
from .matrixfile import MatrixFileError
from .verify import render_report, render_report_json, verify_blocks


def _err(msg: str) -> None:
    print(f"blockinv: {msg}", file=sys.stderr)


def _write(text: str) -> int:
    """Write text to stdout and flush it; returns an exit code. A stdout
    that fails (a full device, a closed pipe, or file descriptor 1 closed
    at start-up, when sys.stdout is None) gives one error line and 1."""
    try:
        if sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as e:
        _err(f"cannot write stdout: {e}")
        return 1
    return 0


def _emit(text: str, out: str | None) -> int:
    """Write matrix text to a file or stdout; returns an exit code."""
    if out is None:
        return _write(text)
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        _err(f"cannot write {out}: {e}")
        return 1
    return 0


def _int(text: str) -> int:
    """argparse type for an int option: as in matrix files, only its int's
    one ASCII decimal spelling, str(int(text)) == text; else quoted clipped."""
    try:
        if str(value := int(text)) == text:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"invalid int value: {_clip(repr(text))}")


def _seed(text: str) -> int:
    """argparse type for --seed: decimal as `_int`, or 0x and hex digits,
    in [0, 2^64)."""
    value = (int(text, 16) if re.fullmatch(r"0x[0-9a-fA-F]+", text)
             else _int(text))
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(
            f"seed {_clip(text)} is outside [0, 2^64)")
    return value


def cmd_generate(args) -> int:
    from .construct import GeneratorConfig, generate
    try:
        fld = parse_field(args.field)
        config = GeneratorConfig(n=args.n, p=args.p, field=fld,
                                 seed=args.seed, strip=args.strip)
    except ValueError as e:  # covers FieldError and config validation
        _err(str(e))
        return 2
    m = generate(config)
    rc = _emit(matrixfile.dump(m, args.p, args.fmt), args.out)
    if rc == 0:
        steps = (args.n - args.p) // args.p
        print(f"generated {m.nrows}x{m.ncols} over {fld}, p={args.p}, "
              f"seed={args.seed}, extension steps={steps}", file=sys.stderr)
    return rc


def cmd_verify(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        _err(f"cannot read {args.path}: {e}")
        return 1
    except UnicodeDecodeError as e:
        _err(f"malformed file {args.path}: not UTF-8 text (byte {e.start})")
        return 2
    try:
        m, file_p = matrixfile.load(text)
    except MatrixFileError as e:
        _err(str(e))
        return 2
    del text  # the matrix holds every code; free the file before checking
    p = args.p if args.p is not None else file_p
    try:
        rep = verify_blocks(m, p)
    except ValueError as e:
        _err(str(e))
        return 2
    report = (render_report_json(rep) if args.as_json
              else render_report(rep, grid=not args.quiet))
    ok = rep.is_block_invertible_square if m.is_square else rep.is_block_invertible
    return _write(report + "\n") or (0 if ok else 3)


def cmd_count(args) -> int:
    from .construct import gl_count
    p, q, limit = args.p, args.q, sys.get_int_max_str_digits()
    # q^(p^2) is printed below; past 4 * limit bits it exceeds 10^limit
    if limit and p > 0 and q > 1 and not (
            p <= limit and p * p * math.log2(q) <= 4 * limit
            and q ** (p * p) < 10 ** limit):
        _err(f"q^(p^2) has over {limit} digits, too many to print")
        return 2
    try:
        count = gl_count(p, q)
    except ValueError as e:
        _err(str(e))
        return 2
    total = q ** (p * p)
    return _write(f"|GL({p}, {q})| = {count}\nacceptance probability: "
                  f"{count}/{total} = {count / total:.6g}\n")


#: Largest `kron --p`: the product is p^2 x p^2, 1024 x 1024 at the bound.
KRON_MAX_P = 32


def cmd_kron(args) -> int:
    from .construct import kronecker_generate
    from .rng import SplitMix64
    try:
        fld = parse_field(args.field)
    except FieldError as e:
        _err(str(e))
        return 2
    if args.p > KRON_MAX_P:
        _err(f"p {_clip(str(args.p))} is above the limit {KRON_MAX_P}")
        return 2
    rng = SplitMix64(args.seed)
    try:
        res = kronecker_generate(args.p, fld, rng, max_trials=args.max_trials)
    except ValueError as e:  # a block size below 2, a negative trial cap
        _err(str(e))
        return 2
    if res.found:
        rep = verify_blocks(res.matrix, args.p)
        if not rep.is_block_invertible_square:
            _err("kronecker product failed verification")  # defensive
            return 3
        rc = _emit(matrixfile.dump(res.matrix, args.p, args.fmt), args.out)
        if rc == 0:
            print(f"kronecker construction: {res.matrix.nrows}x"
                  f"{res.matrix.ncols} over {fld} from an all-nonzero "
                  f"factor, verified", file=sys.stderr)
        return rc
    if res.proved_nonexistence:
        plural = "s" if res.trials != 1 else ""
        return _write(f"no invertible all-nonzero {args.p}x{args.p} matrix "
                      f"exists over {fld} (exhaustive search, {res.trials} "
                      f"candidate{plural})\n")
    _err(f"search inconclusive after {res.trials} random trials")
    return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockinv",
        description="Construct and verify block invertible matrices "
                    "over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by the subcommands that write a seeded matrix
    writer = argparse.ArgumentParser(add_help=False)
    writer.add_argument("--field", required=True,
                        help="field notation, e.g. 'gf(2)' or "
                             "'gf(2^8;0x11b)'")
    writer.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help=f"64-bit RNG seed (default 0x{DEFAULT_SEED:X})")
    writer.add_argument("--out", default=None,
                        help="output path (default stdout)")
    # type=_clip on a choices option: argparse quotes a rejected choice
    # after conversion, so an over-long one is quoted clipped
    writer.add_argument("--format", dest="fmt", type=_clip,
                        choices=matrixfile.FORMATS, default=matrixfile.TEXT)

    g = sub.add_parser("generate", parents=[writer],
                       help="build an (n, p) block invertible square matrix")
    g.add_argument("--n", type=_int, required=True, help="matrix dimension")
    g.add_argument("--p", type=_int, required=True, help="block size (>= 2)")
    g.add_argument("--strip", type=_clip,
                   choices=[c.value for c in StripChoice],
                   default="first",
                   help="which block row/column borders each step")
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="check a matrix file block by block")
    v.add_argument("path", help="matrix file (text or json)")
    v.add_argument("--p", type=_int, default=None,
                   help="block size (default: the file's p field)")
    v.add_argument("--quiet", action="store_true", help="summary lines only")
    v.add_argument("--json", dest="as_json", action="store_true",
                   help="emit the report as JSON")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("count",
                       help="|GL(p, q)| and rejection acceptance probability")
    c.add_argument("--p", type=_int, required=True)
    c.add_argument("--q", type=_int, required=True, help="field order (prime power)")
    c.set_defaults(func=cmd_count)

    k = sub.add_parser("kron", parents=[writer],
                       help="Kronecker-product construction attempt")
    k.add_argument("--p", type=_int, required=True,
                   help=f"block size, 2..{KRON_MAX_P}")
    k.add_argument("--max-trials", type=_int, default=1000,
                   help="random search cap for large fields")
    k.set_defaults(func=cmd_kron)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    """The console script: `main`, then `os._exit` with its exit code.

    Each command writes stdout through `_write`, which flushes it, so
    after a failed run nothing is left there that could still be
    written. After a successful one, stdout is flushed here, which
    delivers what argparse printed for --help; stderr is flushed last."""
    try:
        rc = main()
    except SystemExit as e:  # argparse, after a usage error or --help
        rc = e.code
    rc = rc or _write("")
    sys.stderr.flush()
    os._exit(rc)
