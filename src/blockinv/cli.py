"""Command-line front end.

Subcommands:

    generate   build an (n, p) block invertible square matrix
    verify     check a matrix file for block invertibility
    count      |GL(p, q)| and the rejection-sampling acceptance rate
    kron       Kronecker-product construction, or proof it cannot work

Exit codes: 0 success (including a conclusive negative kron result),
1 I/O failure, 2 usage or validation error (argparse uses 2 as well),
3 verification failure, 4 inconclusive kron search. Matrix data goes to
--out or stdout; summary lines and errors go to stderr, so stdout stays
byte-reproducible for identical flags and seed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import matrixfile
from .construct import (DEFAULT_SEED, GeneratorConfig, StripChoice,
                        generate, gl_count, kronecker_generate)
from .field import FieldError, parse_field
from .matrixfile import MatrixFileError
from .rng import SplitMix64
from .verify import render_report, render_report_json, verify_blocks


def _err(msg: str) -> None:
    print(f"blockinv: {msg}", file=sys.stderr)


def _emit(text: str, out: str | None) -> int:
    """Write matrix text to a file or stdout; returns an exit code."""
    if out is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        _err(f"cannot write {out}: {e}")
        return 1
    return 0


def cmd_generate(args) -> int:
    try:
        fld = parse_field(args.field)
        config = GeneratorConfig(n=args.n, p=args.p, field=fld,
                                 seed=args.seed,
                                 strip=StripChoice(args.strip))
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
    p = args.p if args.p is not None else file_p
    try:
        rep = verify_blocks(m, p)
    except ValueError as e:
        _err(str(e))
        return 2
    if args.as_json:
        print(render_report_json(rep))
    else:
        print(render_report(rep, grid=not args.quiet))
    ok = rep.is_block_invertible_square if m.is_square else rep.is_block_invertible
    return 0 if ok else 3


def cmd_count(args) -> int:
    try:
        count = gl_count(args.p, args.q)
    except ValueError as e:
        _err(str(e))
        return 2
    total = args.q ** (args.p * args.p)
    prob = Fraction(count, total)
    print(f"|GL({args.p}, {args.q})| = {count}")
    print(f"acceptance probability: {count}/{total} = {float(prob):.6g}")
    return 0


def cmd_kron(args) -> int:
    try:
        fld = parse_field(args.field)
    except FieldError as e:
        _err(str(e))
        return 2
    if args.p < 2:
        _err("p must be at least 2")
        return 2
    rng = SplitMix64(args.seed)
    res = kronecker_generate(args.p, fld, rng, max_trials=args.max_trials)
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
        print(f"no invertible all-nonzero {args.p}x{args.p} matrix exists "
              f"over {fld} (exhaustive search, {res.trials} candidate{plural})")
        return 0
    _err(f"search inconclusive after {res.trials} random trials")
    return 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockinv",
        description="Construct and verify block invertible matrices "
                    "over finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate",
                       help="build an (n, p) block invertible square matrix")
    g.add_argument("--n", type=int, required=True, help="matrix dimension")
    g.add_argument("--p", type=int, required=True, help="block size (>= 2)")
    g.add_argument("--field", required=True,
                   help="field notation, e.g. 'gf(2)' or 'gf(2^8;0x11b)'")
    g.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED,
                   help=f"64-bit RNG seed (default 0x{DEFAULT_SEED:X})")
    g.add_argument("--strip", choices=[c.value for c in StripChoice],
                   default="first",
                   help="which block row/column borders each step")
    g.add_argument("--out", default=None, help="output path (default stdout)")
    g.add_argument("--format", dest="fmt", choices=matrixfile.FORMATS,
                   default=matrixfile.TEXT)
    g.set_defaults(func=cmd_generate)

    v = sub.add_parser("verify", help="check a matrix file block by block")
    v.add_argument("path", help="matrix file (text or json)")
    v.add_argument("--p", type=int, default=None,
                   help="block size (default: the file's p field)")
    v.add_argument("--quiet", action="store_true", help="summary lines only")
    v.add_argument("--json", dest="as_json", action="store_true",
                   help="emit the report as JSON")
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("count",
                       help="|GL(p, q)| and rejection acceptance probability")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, required=True, help="field order (prime power)")
    c.set_defaults(func=cmd_count)

    k = sub.add_parser("kron",
                       help="Kronecker-product construction attempt")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--field", required=True)
    k.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    k.add_argument("--max-trials", type=int, default=1000,
                   help="random search cap for large fields")
    k.add_argument("--out", default=None)
    k.add_argument("--format", dest="fmt", choices=matrixfile.FORMATS,
                   default=matrixfile.TEXT)
    k.set_defaults(func=cmd_kron)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    raise SystemExit(main())
