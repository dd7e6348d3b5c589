"""Benchmark of the `mw` command line: three workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Each workload is a list of `mw` commands generated from the seed (see the
wl_*.py modules for what each one loads and why its sizes were chosen).
The commands run in one process and one thread through
`multiwedge.cli.main(argv)` with stdout captured, in a closed loop: the
next command starts when the previous one returns. Inputs are JSON files
written at set-up, so every command parses its wedges and pays for its own
conversions. Every output is checked with exact arithmetic that does not
use the package. Python start-up is not measured.

The end-to-end times are given at a reference speed: a fixed arithmetic
kernel that shares no code with the program runs before and after each
op and set-up and, outside traced runs, every 0.05 s inside it; each piece
of time is scaled by the kernel's reference time over its time then (see
`Clock`). On a shared host the machine's speed changes by a third or more
within a second, which otherwise swamps a change of the program; the
wall-clock figures are kept in the env line.

--trace 0 prints the end-to-end metrics. --trace 1 wraps the layers of
the package (spans.py), runs for the same time, writes the spans to
perfbench/.traces/, and prints the per-layer metrics; it then replays the
same commands untraced, and trace.overhead_ratio is untraced over traced
throughput. The last stdout line is the result object; the line before
it records the environment.

Two maintenance modes take no workload:

    python3 perfbench/run.py --self-check     # small runs of every workload,
                                              # a corrupted output, repeat counts
    python3 perfbench/run.py --write-digests  # reference outputs of the
                                              # conversion pool
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work", str(os.getpid()))
TRACES = os.path.join(HERE, ".traces")

# The script's own directory would shadow standard modules; import the
# benchmark as a package from the checkout root instead.
sys.path[:] = [ROOT, SRC] + [p for p in sys.path[1:] if os.path.abspath(p) not in (HERE, ROOT, SRC)]

from perfbench import spans, wl_conversion, wl_operator, wl_search  # noqa: E402

WORKLOADS = {"search": wl_search, "operator": wl_operator, "conversion": wl_conversion}
SETUP_REPEATS = 9
# Seconds the calibration kernel takes on the reference machine (Python
# 3.11, no gmpy2, 2 shared CPUs, in its usual state); see `calibrate`.
CALIBRATION_REF_S = 0.0023
# Wall seconds between two samples of the kernel inside an op.
SAMPLE_S = 0.05
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]


def import_program():
    """Import `multiwedge.cli` afresh from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "multiwedge" or m.startswith("multiwedge.")]:
        del sys.modules[name]
    cli = importlib.import_module("multiwedge.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"multiwedge was imported from {cli.__file__}, not from {SRC}")
    return cli


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(WORK))


def set_up(workload: str, seed: int):
    """Import the program, generate the inputs and write them as fixtures."""
    cli = import_program()
    wl = WORKLOADS[workload].build(seed, WORK)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    for name, data in wl.fixtures.items():
        with open(os.path.join(WORK, name), "w") as fh:
            json.dump(data, fh)
    return cli, wl


def call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    """Run one command; returns (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # any escape from main is a failed op, not a crash
        return None, out.getvalue(), f"unexpected {type(exc).__name__}: {exc}"
    return rc, out.getvalue(), ""


def _kernel() -> Fraction:
    """Fixed exact arithmetic of the kind the program spends its time on."""
    row = [Fraction(i + 1, 2 * i + 3) for i in range(24)]
    acc = Fraction(0)
    for k in range(4):
        pivot = row[k]
        row = [x - pivot * y for x, y in zip(row, row[1:] + row[:1])]
        for x in row:
            acc = acc / 3 + x * x - Fraction(k, 7)
    return acc


def calibrate() -> float:
    """Seconds the calibration kernel takes now: the faster of two runs.

    The kernel uses no code of the program, so a change to the program
    does not move it; what moves it is the speed of the machine, which on
    a shared host changes by a third or more within a second.
    """
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times a stretch of work in wall seconds and at the reference speed.

    The calibration kernel runs when the stretch starts, when it stops,
    and every SAMPLE_S in between: a one-shot SIGALRM timer, re-armed after
    each sample, interrupts the work (Python runs the handler between two
    bytecodes). Each piece of the stretch between two samples is scaled by
    CALIBRATION_REF_S over the mean of the kernel times at its two ends,
    and the kernel's own time is left out. A long op thus follows the
    machine's speed while it runs, not only at its two ends. With
    `inside=False` the kernel runs only at the two ends, which keeps it
    out of the spans of a traced run.
    """

    def __init__(self, inside: bool = True):
        self.calibrations = [calibrate()]
        self._period = SAMPLE_S if inside else 0
        self._pieces: list[tuple[float, float]] = []
        self._mark = 0.0
        self._running = False
        self._previous = signal.signal(signal.SIGALRM, self._sample)

    def close(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        if not self._running:  # a signal that arrived as the stretch stopped
            return
        now = perf_counter()
        self._pieces.append((now - self._mark, calibrate()))
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._period)

    def start(self) -> None:
        self._pieces = []
        self._running = True
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self._period)

    def stop(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) since `start`."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._pieces.append((perf_counter() - self._mark, calibrate()))
        wall = reference = 0.0
        for seconds, after in self._pieces:
            before = self.calibrations[-1]
            wall += seconds
            reference += seconds * CALIBRATION_REF_S * 2 / (before + after)
            self.calibrations.append(after)
        return wall, reference


class Loop:
    """Closed-loop run over the ops, cycling the list if a run outlasts it.

    A timed run goes on past `seconds` of busy time at the reference speed
    (so that it covers the same ops whatever the machine's speed) to the
    next multiple of `period` ops, but never past twice `seconds` of wall
    time, so that ops that fail at once cannot keep a run going.

    `latencies` holds the wall time of each op and `scaled` its time at
    the reference speed (see `Clock`). The end-to-end timings are taken
    from `scaled`, so that they follow the program rather than the speed
    of a shared machine.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.calibrations: list[float] = []
        self.failures: list[str] = []

    def run(self, cli, ops, seconds=None, period=1, count=None, tracer=None) -> "Loop":
        busy = 0.0
        i = 0
        deadline = perf_counter() + 2 * (seconds or 0)

        def going() -> bool:
            if count is not None:
                return i < count
            return (busy < seconds or i % period > 0) and perf_counter() < deadline

        clock = Clock(inside=tracer is None)
        try:
            while going():
                op = ops[i % len(ops)]
                if tracer is not None:
                    tracer.begin_op(i)
                clock.start()
                rc, out, error = call(cli, op.argv)
                wall, reference = clock.stop()
                problem = error or op.check(rc, out)
                if problem:
                    self.failures.append(f"{op.kind} {' '.join(op.argv)}: {problem}")
                self.latencies.append(wall)
                self.scaled.append(reference)
                busy += reference
                i += 1
        finally:
            clock.close()
        self.calibrations = clock.calibrations
        return self

    @property
    def ops_per_s(self) -> float:
        """Throughput at the reference speed."""
        return len(self.scaled) / sum(self.scaled)

    @property
    def wall_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """Highest whole percentile with at least 10 samples beyond it.

    Returns (percentile, value in seconds, samples beyond). Uses the
    nearest-rank definition; with fewer than 20 samples it falls back to
    the median.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50, ordered[rank - 1], n - rank


def environment(args, wl, loop: Loop, extra: dict) -> dict:
    p, _, beyond = tail(loop.scaled)
    attempted = len(loop.latencies)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "ops_generated": len(wl.ops),
        "ops_attempted": attempted,
        "tail_percentile": p,
        "tail_samples_beyond": beyond,
        "failed_ratio": len(loop.failures) / attempted,
        "calibration_ref_ms": CALIBRATION_REF_S * 1e3,
        "calibration_median_ms": statistics.median(loop.calibrations) * 1e3,
        **extra,
    }


def measure(args) -> int:
    setups, wall_setups = [], []
    clock = Clock()
    try:
        for _ in range(SETUP_REPEATS):
            clock.start()
            cli, wl = set_up(args.workload, args.seed)
            wall, reference = clock.stop()
            setups.append(reference)
            wall_setups.append(wall)
    finally:
        clock.close()
    try:
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                loop = Loop().run(
                    cli, wl.ops, seconds=args.seconds, period=wl.period, tracer=tracer
                )
            finally:
                tracer.uninstall()
            plain = Loop().run(cli, wl.ops, count=len(loop.latencies))
            os.makedirs(TRACES, exist_ok=True)
            trace_file = os.path.join(TRACES, f"{args.workload}-seed{args.seed}.jsonl.gz")
            tracer.write(trace_file)
            traced = tracer.metrics()
            traced["trace.ops"] = len(loop.latencies)
            traced["trace.overhead_ratio"] = plain.ops_per_s / loop.ops_per_s
            values = {name: traced[name] for name, _, _ in spans.METRICS}
            units = {name: unit for name, unit, _ in spans.METRICS}
            extra = {
                "traced_ops_per_s": loop.ops_per_s,
                "untraced_ops_per_s": plain.ops_per_s,
                "trace_file": os.path.relpath(trace_file, ROOT),
            }
        else:
            loop = Loop().run(cli, wl.ops, seconds=args.seconds, period=wl.period)
            _, value, _ = tail(loop.scaled)
            _, wall_tail, _ = tail(loop.latencies)
            values = {
                "setup_s": statistics.median(setups),
                "ops_per_s": loop.ops_per_s,
                "latency_p50_ms": statistics.median(loop.scaled) * 1e3,
                "latency_tail_ms": value * 1e3,
                "ok_ratio": 1 - len(loop.failures) / len(loop.latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
            extra = {
                "wall_setup_runs_s": wall_setups,
                "wall_ops_per_s": loop.wall_ops_per_s,
                "wall_latency_p50_ms": statistics.median(loop.latencies) * 1e3,
                "wall_latency_tail_ms": wall_tail * 1e3,
            }
    finally:
        remove_work()

    for failure in loop.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    env = environment(args, wl, loop, extra)
    if not args.trace:
        print(f"failed_ratio {env['failed_ratio']:.6f} ratio")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": not loop.failures,
        "attempted": len(loop.latencies),
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


def _corrupt(out: str) -> str:
    """Add 1 to the first rational of an answer, or flip its first boolean."""
    payload = json.loads(out)

    def walk(node, want):
        if isinstance(node, dict):
            items = sorted(node.items())
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return False
        for key, value in items:
            if want == "rational" and isinstance(value, str):
                try:
                    node[key] = str(Fraction(value) + 1)
                    return True
                except ValueError:
                    pass
            if want == "bool" and isinstance(value, bool):
                node[key] = not value
                return True
            if walk(value, want):
                return True
        return False

    if not walk(payload, "rational"):
        walk(payload, "bool")
    return json.dumps(payload, sort_keys=True) + "\n"


# Per-layer metrics that count work rather than time it; they must repeat
# exactly for one seed.
WORK_COUNTS = [
    name for name, unit, _ in spans.METRICS
    if (unit == "count" or name.endswith("_ratio")) and not name.startswith("trace.")
]

# The op kind whose output the self-check corrupts, per workload.
CORRUPTED = {"search": "lattice-ex2.7-k2", "operator": "rdp-check", "conversion": "dual-d4"}


def self_check() -> int:
    """Small runs of every workload, a corrupted output, and exact repeats."""
    problems = []
    for name, module in WORKLOADS.items():
        cli, wl = set_up(name, 1)
        ops = wl.ops[: sum(weight for _, weight in module.STRATA)]
        loop = Loop().run(cli, ops, count=len(ops))
        problems += [f"{name}: {f}" for f in loop.failures]
        print(f"{name}: {len(ops)} ops, {len(loop.failures)} failed")

        op = next(o for o in wl.ops if o.kind == CORRUPTED[name])
        rc, out, _ = call(cli, op.argv)
        if op.check(rc, _corrupt(out)) is None:
            problems.append(f"{name}: a corrupted {op.kind} answer passed its check")
        else:
            print(f"{name}: corrupted {op.kind} answer is counted as failed")

        counts = []
        for seed in (1, 1, 2):
            cli, wl = set_up(name, seed)
            tracer = spans.Tracer()
            tracer.install()
            try:
                Loop().run(cli, wl.ops, count=len(ops), tracer=tracer)
            finally:
                tracer.uninstall()
            counts.append({k: v for k, v in tracer.metrics().items() if k in WORK_COUNTS})
        if counts[0] != counts[1]:
            problems.append(f"{name}: work counts differ between two runs of one seed")
        elif counts[0] == counts[2]:
            problems.append(f"{name}: work counts do not depend on the seed")
        else:
            print(f"{name}: work counts repeat for one seed and change with the seed")
    remove_work()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if [m["name"] for m in spec["end_to_end"]] != [n for n, _ in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end names differ from the runner's")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != spans.METRICS:
        problems.append("BENCHMARK.json per_layer entries differ from spans.METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def write_digests() -> int:
    cli = import_program()
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, "item.json")
    digests = {}
    try:
        for kind in wl_conversion.SHAPES:
            digests[kind] = []
            for index in range(wl_conversion.POOL_PER_STRATUM):
                data, facts = wl_conversion.pool_item(kind, index)
                with open(path, "w") as fh:
                    json.dump(data, fh)
                rc, out, error = call(cli, wl_conversion.argv_for(kind, path))
                problem = error or wl_conversion.answer_check(kind, facts)(rc, out)
                if problem:
                    print(f"{kind}[{index}]: {problem}", file=sys.stderr)
                    return 1
                digests[kind].append(wl_conversion.output_digest(out))
    finally:
        remove_work()
    with open(wl_conversion.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "multiwedge", "cli.py")):
        print(f"error: no multiwedge sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
