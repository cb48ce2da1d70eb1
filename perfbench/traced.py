"""Run one blockinv CLI command with timing spans around each module.

Usage: python perfbench/traced.py SPANS_JSON ITEM LAUNCHED -- CLI_ARGS...

LAUNCHED is the parent's time.monotonic() just before it asked for this
process, so the time until `blockinv` is imported is the interpreter
start and import cost. The wrappers time public functions from outside;
private helpers such as `_row_reduce` are not wrapped, so kernel time
is read from the `rank` / `inverse` / `rank_decompose` spans that
enclose them. A name
imported into another module (`construct.rank_decompose`,
`cli.generate`, `matrixfile.parse_field`, ...) is replaced wherever it
is bound, so every call path goes through the wrapper.

Spans stay in memory and are written as JSON when the command returns:
{"item", "startup_s", "rng_draws",
 "spans": [[name, start, end, parent_index, item, attr], ...]}
where attr is the operand size, multiply count, byte count or
(size, rank) the span's name calls for, and parent_index is -1 at the
top.
"""

from __future__ import annotations

import json
import sys
import time


class Tracer:
    """Span recorder for one process; spans nest strictly (one thread)."""

    def __init__(self, item: int):
        self.item = item
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rng_draws = 0

    def wrap(self, name, fn, attr=None):
        """Return fn wrapped in a span; attr(args, result) describes the call."""
        spans, stack, item = self.spans, self.stack, self.item
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, item, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = clock()
                stack.pop()
                if attr is not None:
                    rec[5] = attr(args, result)

        return traced

    def count_draws(self, fn):
        def counted(*args, **kwargs):
            self.rng_draws += 1
            return fn(*args, **kwargs)
        return counted


def _rebind(modules, original, replacement):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    import blockinv
    from blockinv import (cli, construct, decompose, field, matrix,
                          matrixfile, rng, verify)
    modules = (blockinv, cli, construct, decompose, field, matrix, matrixfile,
               verify)
    parse = field.parse_field

    def parse_field(text):
        fs = parse(text)
        fs.mul(1, 1)  # builds a binary field's log/exp tables, as first use would
        return fs

    functions = [
        (field.parse_field, "field.parse_field", parse_field, None),
        (construct.generate, "construct.generate", None, None),
        (construct.extend, "construct.extend", None,
         lambda a, r: a[0].nrows),
        (construct.corner_completion, "construct.corner_completion", None,
         None),
        (construct.random_invertible, "construct.random_invertible", None,
         None),
        (decompose.rank_decompose, "decompose.rank_decompose", None,
         lambda a, r: [a[0].nrows, r.rank if r is not None else -1]),
        (verify.verify_blocks, "verify.verify_blocks", None, None),
        (matrixfile.dump, "matrixfile.dump", None,
         lambda a, r: len(r) if r is not None else 0),
        (matrixfile.load, "matrixfile.load", None, lambda a, r: len(a[0])),
    ]
    for original, name, body, attr in functions:
        _rebind(modules, original, tracer.wrap(name, body or original, attr))

    m = matrix.Matrix
    size = lambda a, r: a[0].nrows  # noqa: E731
    for meth, name, attr in (
            ("inverse", "matrix.inverse", size),
            ("rank", "matrix.rank", size),
            ("block", "matrix.block", None),
            ("__matmul__", "matrix.matmul",
             lambda a, r: a[0].nrows * a[0].ncols * a[1].ncols)):
        setattr(m, meth, tracer.wrap(name, getattr(m, meth), attr))
    m.from_blocks = classmethod(tracer.wrap(
        "matrix.from_blocks", m.__dict__["from_blocks"].__func__))
    rng.SplitMix64.below = tracer.count_draws(rng.SplitMix64.below)


def main(argv: list[str]) -> int:
    out, item, launched, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON ITEM LAUNCHED -- ARGS...")
    from blockinv import cli
    startup_s = time.monotonic() - float(launched)
    tracer = Tracer(int(item))
    install(tracer)
    try:
        return tracer.wrap("cli.main", cli.main)(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"item": tracer.item, "startup_s": startup_s,
                       "rng_draws": tracer.rng_draws,
                       "spans": tracer.spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
