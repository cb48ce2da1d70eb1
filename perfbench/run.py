"""Benchmark of the blockinv CLI end to end, and of each module under it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark drives the real CLI, `python -m blockinv ...` with
PYTHONPATH=src, as a closed loop with a single client: one child process
at a time, the next started only after the previous one has ended, so a
slower program receives less work. Inputs come from --seed alone.

--trace 0 measures the end-to-end metrics: a set-up phase times
`verify` on a 2x2 file in each field the workload uses (setup_s), then
whole rounds of items run until the next round would pass --seconds.
--trace 1 runs a fixed set of rounds twice, once plain and once through
perfbench/traced.py, which wraps the public functions of each module
with timing spans; the per-layer metrics come from those spans, and the
difference between the two passes is the tracing overhead. A fixed set
keeps every counter of a traced run identical for the same seed.

Every output is checked outside the timed region against
perfbench/refcheck.py, which shares no code with blockinv, and repeated
work must give identical bytes. The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it is a
report with the environment, sample counts, input hashes and, for
generation workloads, the per-step growth curve.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

from refcheck import (RefField, Verdict, check, make_random, read_matrix,
                      write_matrix)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

GF2 = RefField(2)
GF256 = RefField(2, 8, 0x11B)
GF65521 = RefField(65521)
GF65536 = RefField(2, 16, 0x1002B)

#: verify runs per field for setup_s, after one untimed warm-up run.
SETUP_REPS = 15
#: Rounds a timed loop always completes, even past --seconds.
MIN_ROUNDS = 2
#: The whole run is abandoned, without a result, after this many seconds.
WATCHDOG_S = 170


class WatchdogExpired(Exception):
    pass


@dataclass
class Proc:
    """One finished blockinv process."""

    op: int
    args: list[str]
    wall_s: float
    rc: int
    rss_mb: float
    stdout: bytes
    spans: Path | None


@dataclass
class Item:
    """One unit of work: generate -> file -> verify, or one verify."""

    procs: list[Proc]
    path: Path
    field: str
    expected: Verdict | None = None

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.procs)


class Client:
    """Runs blockinv processes one at a time and records failed checks.

    Children are started by perfbench/spawn.py, a small process of its
    own, so that their peak memory is not raised to this process's.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.child: int | None = None
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT)

    def run(self, args: list[str], trace_item: int | None = None) -> Proc:
        op = self.attempted
        self.attempted += 1
        out = self.workdir / f"out-{op}"
        spans = None
        if trace_item is None:
            argv = [sys.executable, "-m", "blockinv", *args]
        else:
            spans = self.workdir / f"spans-{op}.json"
            argv = [sys.executable, str(HERE / "traced.py"), str(spans),
                    str(trace_item), repr(time.monotonic()), "--", *args]
        self.spawner.stdin.write("\t".join([str(out), *argv]) + "\n")
        self.spawner.stdin.flush()
        self.child = int(self.spawner.stdout.readline())
        rc, wall, maxrss_kb = self.spawner.stdout.readline().split()
        self.child = None
        return Proc(op, args, float(wall), int(rc), int(maxrss_kb) / 1024,
                    out.read_bytes(), spans)

    def expect(self, proc: Proc, ok: bool, what: str) -> bool:
        if not ok:
            self.failed_ops.add(proc.op)
            self.failures.append(f"op {proc.op} ({' '.join(proc.args[:2])}): "
                                 f"{what}")
        return ok

    def close(self) -> None:
        """Stop the spawner, killing a child left running by an abandoned run."""
        if self.child is not None:
            os.kill(self.child, signal.SIGKILL)
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()


def verify_args(path: Path) -> list[str]:
    return ["verify", str(path), "--json"]


def check_report(client: Client, proc: Proc, expected: Verdict) -> None:
    """The verify exit code and JSON verdicts must match the reference."""
    client.expect(proc, proc.rc == (0 if expected.ok else 3),
                  f"exit code {proc.rc}")
    try:
        got = Verdict.from_dict(json.loads(proc.stdout))
    except (ValueError, KeyError, TypeError) as e:
        client.expect(proc, False, f"unreadable verify report: {e}")
        return
    client.expect(proc, got == expected, f"{got}, expected {expected}")


class ItemSeeds:
    """The 64-bit generate seeds of items 0, 1, ..., drawn as needed."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._seeds: list[int] = []

    def __getitem__(self, r: int) -> int:
        while len(self._seeds) <= r:
            self._seeds.append(self._rng.getrandbits(64))
        return self._seeds[r]


@dataclass(frozen=True)
class GenerateWorkload:
    """Each item: `generate` an (n, p) matrix, then `verify` the file."""

    name: str
    n: int
    p: int
    field: RefField
    strip: str
    fmt: str
    traced_rounds: int

    @property
    def setup_fields(self):
        return [(self.field, self.fmt)]

    def prepare(self, seed: int, client: Client) -> ItemSeeds:
        return ItemSeeds(random.Random(f"{self.name}:{seed}"))

    def inputs_sha256(self, seeds: ItemSeeds, rounds: int) -> list[str]:
        argv = [self.generate_args(seeds[r], Path("out.bim"))
                for r in range(rounds)]
        return [hashlib.sha256(json.dumps(argv).encode()).hexdigest()]

    def generate_args(self, seed: int, path: Path) -> list[str]:
        return ["generate", "--n", str(self.n), "--p", str(self.p),
                "--field", self.field.notation,
                "--seed", str(seed), "--strip", self.strip,
                "--format", self.fmt, "--out", str(path)]

    def run_round(self, client: Client, seeds: ItemSeeds, r: int,
                  tag: str, trace: bool) -> list[Item]:
        path = client.workdir / f"gen-{tag}-{r}.bim"
        item_id = r if trace else None
        gen = client.run(self.generate_args(seeds[r], path), item_id)
        ver = client.run(verify_args(path), item_id)
        return [Item([gen, ver], path, self.field.notation)]

    def check(self, client: Client, items: list[Item]) -> None:
        for item in items:
            gen, ver = item.procs
            if not client.expect(gen, gen.rc == 0, f"exit code {gen.rc}"):
                continue
            try:
                mf = read_matrix(item.path.read_text(encoding="utf-8"))
                verdict = check(mf.rows, self.p, self.field)
            except (OSError, ValueError, KeyError, TypeError) as e:
                client.expect(gen, False, f"unreadable output: {e}")
                continue
            client.expect(gen, (mf.field, mf.p, len(mf.rows))
                          == (self.field.notation, self.p, self.n),
                          f"header {mf.field} p={mf.p} n={len(mf.rows)}")
            client.expect(gen, verdict.ok, f"reference verdict {verdict}")
            check_report(client, ver, verdict)

    def repeat(self, client: Client, seeds: ItemSeeds) -> list[Item]:
        return self.run_round(client, seeds, 0, "repeat", False)

    def fingerprint(self, item: Item) -> bytes:
        return item.path.read_bytes() if item.path.exists() else b""


@dataclass(frozen=True)
class AuditWorkload:
    """Each item: `verify` one stored random file, cycling through the set.

    A round verifies one file per field, so every round costs the same.
    The second half of the set has one singular block planted at a
    position drawn from the seed; `verify` must exit 3 and list it.
    """

    name: str
    n: int
    p: int
    files: tuple[tuple[RefField, str, bool], ...]
    traced_rounds: int

    @property
    def setup_fields(self):
        return list(dict.fromkeys((f, fmt) for f, fmt, _ in self.files))

    @property
    def per_round(self) -> int:
        return len(self.setup_fields)

    def prepare(self, seed: int,
                client: Client) -> list[tuple[Path, RefField, Verdict, str]]:
        stored = []
        for k, (fld, fmt, planted) in enumerate(self.files):
            rng = random.Random(f"{self.name}:{seed}:{k}")
            rows, verdict = make_random(self.n, self.p, fld, planted, rng)
            text = write_matrix(rows, self.p, fld, fmt)
            path = client.workdir / f"audit-{k}.bim"
            path.write_text(text, encoding="utf-8")
            stored.append((path, fld, verdict,
                           hashlib.sha256(text.encode()).hexdigest()))
        return stored

    def inputs_sha256(self, stored, rounds: int) -> list[str]:
        return [sha for *_, sha in stored]

    def run_round(self, client: Client, stored, r: int, tag: str,
                  trace: bool) -> list[Item]:
        items = []
        for j in range(self.per_round):
            key = r * self.per_round + j
            path, fld, expected, _ = stored[key % len(stored)]
            proc = client.run(verify_args(path), key if trace else None)
            items.append(Item([proc], path, fld.notation, expected))
        return items

    def check(self, client: Client, items: list[Item]) -> None:
        for item in items:
            check_report(client, item.procs[0], item.expected)

    def repeat(self, client: Client, stored) -> list[Item]:
        path, fld, expected, _ = stored[0]
        return [Item([client.run(verify_args(path))], path, fld.notation,
                     expected)]

    def fingerprint(self, item: Item) -> bytes:
        return item.procs[0].stdout


WORKLOADS = {wl.name: wl for wl in (
    GenerateWorkload(
        name="wbaes-gf2",
        n=128, p=8, field=GF2, strip="first", fmt="text", traced_rounds=3),
    GenerateWorkload(
        name="grow-gf256",
        n=256, p=4, field=GF256, strip="random", fmt="text", traced_rounds=1),
    AuditWorkload(
        name="audit-received",
        n=256, p=8,
        files=((GF65521, "text", False), (GF65536, "json", False),
               (GF65521, "text", True), (GF65536, "json", True)),
        traced_rounds=1),
)}


def measure_setup(client: Client, wl) -> tuple[float, dict]:
    """Sum over the workload's fields of the median 2x2 `verify` time."""
    paths = {}
    for k, (fld, fmt) in enumerate(wl.setup_fields):
        path = client.workdir / f"setup-{k}.bim"
        path.write_text(write_matrix([[1, 1], [0, 1]], 2, fld, fmt),
                        encoding="utf-8")
        paths[fld.notation] = path
    ok = Verdict((), True)
    times = defaultdict(list)
    for rep in range(SETUP_REPS + 1):
        for notation, path in paths.items():
            proc = client.run(verify_args(path))
            check_report(client, proc, ok)
            if rep:
                times[notation].append(proc.wall_s)
    medians = {name: statistics.median(ts) for name, ts in times.items()}
    return sum(medians.values()), medians


def run_rounds(client: Client, wl, inputs, tag: str, trace: bool,
               rounds: int | None = None, seconds: float = 0.0):
    """Closed loop: a fixed number of rounds, or rounds until --seconds.

    With a time budget, a round starts only while the median round so far
    still fits, so a run ends near --seconds with whole rounds only.
    """
    items, round_s = [], []
    start = time.perf_counter()
    r = 0
    while True:
        t0 = time.perf_counter()
        items.extend(wl.run_round(client, inputs, r, tag, trace))
        round_s.append(time.perf_counter() - t0)
        r += 1
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if r == rounds:
                break
        elif r >= MIN_ROUNDS and elapsed + statistics.median(round_s) > seconds:
            break
    return items, r, time.perf_counter() - start


def check_same(client: Client, wl, first: list[Item],
               again: list[Item]) -> None:
    """Repeated work must give identical bytes."""
    for a, b in zip(first, again):
        client.expect(b.procs[0], wl.fingerprint(a) == wl.fingerprint(b),
                      f"bytes differ from op {a.procs[0].op} on a repeat")


def median_per_field(items: list[Item], samples) -> tuple[float, int]:
    """Mean over fields of each field's median sample, and the sample count.

    With one field this is the plain median. Weighting fields equally
    keeps a mixed workload's figure a central statistic: the pooled
    median of two cost clusters is the mean of two extreme order
    statistics, one from each cluster.
    """
    by_field = defaultdict(list)
    for it in items:
        by_field[it.field].extend(samples(it))
    medians = [statistics.median(v) for v in by_field.values() if v]
    return (statistics.fmean(medians) if medians else 0.0,
            sum(len(v) for v in by_field.values()))


def walls_of(command: str):
    return lambda it: [p.wall_s for p in it.procs if p.args[0] == command]


def end_to_end(client: Client, wl, inputs, seconds: float,
               report: dict) -> dict:
    setup_s, setup_medians = measure_setup(client, wl)
    items, rounds, loop_s = run_rounds(client, wl, inputs, "timed", False,
                                       seconds=seconds)
    repeat = wl.repeat(client, inputs)
    wl.check(client, items + repeat)
    check_same(client, wl, items, repeat)
    verify_s, n_verify = median_per_field(items, walls_of("verify"))
    generate_s, n_generate = median_per_field(items, walls_of("generate"))
    item_s, _ = median_per_field(items, lambda it: [it.wall_s])
    report.update(
        rounds=rounds, items=len(items), loop_s=loop_s,
        setup_medians_s=setup_medians, setup_samples=SETUP_REPS,
        verify_samples=n_verify, generate_s=generate_s,
        generate_samples=n_generate,
        inputs_sha256=wl.inputs_sha256(inputs, rounds))
    return {
        "throughput_per_s": (len(items) / loop_s, "1/s"),
        "item_s": (item_s, "s"),
        "verify_s": (verify_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(p.rss_mb for it in items for p in it.procs),
                        "MB"),
    }


def per_layer(client: Client, wl, inputs, report: dict) -> dict:
    plain, _, _ = run_rounds(client, wl, inputs, "plain", False,
                             rounds=wl.traced_rounds)
    traced, _, _ = run_rounds(client, wl, inputs, "traced", True,
                              rounds=wl.traced_rounds)
    wl.check(client, plain + traced)
    check_same(client, wl, plain, traced)
    traces = []
    for proc in (p for it in traced for p in it.procs):
        try:
            traces.append(json.loads(proc.spans.read_text(encoding="utf-8")))
        except (OSError, ValueError) as e:
            client.expect(proc, False, f"no spans written: {e}")
    overhead = (sum(it.wall_s for it in traced)
                - sum(it.wall_s for it in plain)) / len(traced)
    metrics, curve = layer_metrics(traces, wl, len(traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    report.update(items=len(traced), traced_processes=len(traces),
                  inputs_sha256=wl.inputs_sha256(inputs, wl.traced_rounds),
                  growth_curve=curve)
    return metrics


def layer_metrics(traces: list[dict], wl, items: int):
    """Per-layer metrics from the spans of every traced process.

    Self time is a span's duration minus that of its direct children
    (spans nest strictly). inverse and rank spans are split by operand
    size: a p x p block or a whole matrix. Counts and times are per item,
    except cli.startup_s and field.setup_s, which are per process.
    """
    p = wl.p
    calls, self_s, count = Counter(), Counter(), Counter()
    extend_s = defaultdict(list)
    for tr in traces:
        spans = tr["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent, _, attr) in enumerate(spans):
            up = spans[parent][0] if parent >= 0 else None
            if name in ("matrix.inverse", "matrix.rank"):
                count["matrix.elim_ops"] += attr ** 3
                name += "_block" if attr <= p else "_whole"
                if up == "construct.extend" and name == "matrix.rank_block":
                    count["construct.blocks_rechecked"] += 1
                elif up == "construct.random_invertible":
                    count["sample_attempts"] += 1
                elif up == "verify.verify_blocks" and attr <= p:
                    count["verify.blocks_checked"] += 1
            elif name == "matrix.matmul":
                count["matrix.matmul.mults"] += attr
            elif name == "decompose.rank_decompose":
                count["matrix.elim_ops"] += attr[0] ** 3
                count["construct.rank_s_below_p"] += attr[1] < attr[0]
            elif name == "construct.extend":
                extend_s[attr].append(end - start)
            elif name.startswith("matrixfile."):
                count["matrixfile.bytes"] += attr
            calls[name] += 1
            self_s[name] += end - start - child[k]
        count["cli.startup_s"] += tr["startup_s"]
        count["rng.draws"] += tr["rng_draws"]

    curve = [[t, statistics.fmean(ds)] for t, ds in sorted(extend_s.items())]
    big = [(math.log(t), math.log(s)) for t, s in curve if t >= 64]
    slope = (statistics.linear_regression(*zip(*big)).slope
             if len(big) >= 2 else 0.0)
    processes = max(len(traces), 1)
    blocks_out = calls["construct.generate"] * (wl.n // p) ** 2
    m = {
        "field.setup_s": (self_s["field.parse_field"] / processes, "s"),
        "cli.startup_s": (count["cli.startup_s"] / processes, "s"),
        "construct.recheck_ratio": (
            count["construct.blocks_rechecked"] / blocks_out
            if blocks_out else 0.0, "ratio"),
        "construct.accept_rate": (
            calls["construct.random_invertible"] / count["sample_attempts"]
            if count["sample_attempts"] else 0.0, "ratio"),
        "construct.extend_last_s": (curve[-1][1] if curve else 0.0, "s"),
        "construct.extend_slope": (slope, "ratio"),
    }
    for name in ("matrix.inverse_whole", "matrix.inverse_block",
                 "matrix.rank_block", "matrix.matmul",
                 "decompose.rank_decompose", "construct.extend"):
        m[f"{name}.calls"] = (calls[name] / items, "count")
    for name in ("matrix.inverse_whole", "matrix.inverse_block",
                 "matrix.rank_block", "matrix.matmul", "matrix.block",
                 "matrix.from_blocks", "decompose.rank_decompose",
                 "construct.extend", "construct.corner_completion",
                 "verify.verify_blocks", "matrixfile.dump",
                 "matrixfile.load"):
        m[f"{name}.self_s"] = (self_s[name] / items, "s")
    for name, unit in (("rng.draws", "count"), ("matrix.elim_ops", "count"),
                       ("matrix.matmul.mults", "count"),
                       ("construct.blocks_rechecked", "count"),
                       ("construct.rank_s_below_p", "count"),
                       ("verify.blocks_checked", "count"),
                       ("matrixfile.bytes", "B")):
        m[name] = (count[name] / items, unit)
    return m, curve


def environment(seed: int) -> dict:
    src = b"".join(path.name.encode() + b"\0" + path.read_bytes()
                   for path in sorted((SRC / "blockinv").glob("*.py")))
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (head if not head.startswith("ref: ")
                  else (ROOT / ".git" / head[5:]).read_text().strip())
    except OSError:
        commit = "unknown"
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "machine": platform.machine(), "commit": commit,
            "source_sha256": hashlib.sha256(src).hexdigest(), "seed": seed}


def _expired(signum, frame):
    raise WatchdogExpired(f"run exceeded {WATCHDOG_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "blockinv" / "cli.py").is_file():
        print(f"perfbench: no blockinv sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {"workload": wl.name, "trace": args.trace,
              "why": next(w["why"] for w in spec["workloads"]
                          if w["name"] == wl.name)}
    WORK_ROOT.mkdir(exist_ok=True)
    client = Client(Path(tempfile.mkdtemp(dir=WORK_ROOT)))
    signal.signal(signal.SIGALRM, _expired)
    signal.alarm(WATCHDOG_S)
    try:
        inputs = wl.prepare(args.seed, client)
        if args.trace:
            metrics = per_layer(client, wl, inputs, report)
        else:
            metrics = end_to_end(client, wl, inputs, args.seconds, report)
    except WatchdogExpired as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        client.close()
        shutil.rmtree(client.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    report["env"] = environment(args.seed)
    report["failures"] = client.failures
    print(json.dumps(report))
    print(json.dumps({
        "correct": not client.failed_ops,
        "attempted": client.attempted,
        "failed": len(client.failed_ops),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
