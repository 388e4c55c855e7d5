"""hakensum benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the library is
imported from ``src/`` next to this directory.  One process and one
thread drive a closed loop with one caller: each operation starts after
the previous one returns.  An operation is one call of ``cli.main(argv)``
in-process with stdout and stderr captured, or one library call (see
``workloads.py``).  Operations run in passes over the workload's fixed
list, in a seeded shuffled order per pass, until ``--seconds`` have gone.
Every output is checked outside the timed region (``checks.py``).

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (interpreter
start, import, seeded input generation, scenario files written and
warm-up, each in a fresh interpreter; median of nine set-ups spread
through the run), ``pass_s`` (the sum over operations of each one's
fastest time across passes), ``op_tail_ms`` over all operation samples,
one per operation per pass, and ``peak_rss_mb`` of this process.  The
median of the same samples, ``op_p50_ms``, is printed on a line of its
own and is not one of the benchmark's gated metrics (see README).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics
(``tracing.py``), with ``tracing_overhead`` the traced over the untraced
``pass_s``, minus 1.  The last line of stdout is one JSON object; the
lines before it give every figure with its unit, the tail percentile and
sample count, and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter, perf_counter_ns
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 9
MIN_PASSES = 11
MIN_TRACED_PASSES = 2
MODULES = ("cli", "disk", "reductions", "scenarios", "schema", "shifts")

# One set-up in a fresh interpreter: argv is the source directories, the
# workload, the seed and the work directory.  Exits 1 if a warm-up call
# raises or exits non-zero.
SETUP_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import run
warm = run.setup(sys.argv[3], int(sys.argv[4]), run.Path(sys.argv[5]))[2]
sys.exit(any(error or (op.argv and outcome[0]) for op, outcome, _, error in warm))
"""


def setup(workload, seed, workdir):
    """Import hakensum, generate inputs, write scenario files and warm up.

    Returns (library modules, operations, warm-up outcomes).  Warm-up runs
    the small calls that reach every layer once.
    """
    import workloads
    hs = SimpleNamespace(**{
        name: importlib.import_module("hakensum." + name)
        for name in MODULES})
    workdir.mkdir(parents=True)
    ops, warm = workloads.build(workload, seed, hs, str(workdir))
    return hs, ops, [(op, *execute(hs, op)) for op in ops[:warm]]


def timed_setup(workload, seed, workdir):
    """Seconds one ``setup`` takes in a fresh interpreter, from its start to
    its exit, and whether every warm-up call succeeded."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(ROOT / "src"),
            str(Path(__file__).resolve().parent), workload, str(seed),
            str(workdir)]
    start = perf_counter()
    code = subprocess.call(argv, stdin=subprocess.DEVNULL,
                           stdout=subprocess.DEVNULL)
    seconds = perf_counter() - start
    return seconds, code == 0


def execute(hs, op):
    """Run one operation; returns (outcome, ns, exception or None)."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = hs.cli.main(op.argv)
        except Exception as exc:  # a crash is a failed operation
            return None, perf_counter_ns() - start, exc
        elapsed = perf_counter_ns() - start
        return (code, out.getvalue(), err.getvalue()), elapsed, None
    start = perf_counter_ns()
    try:
        result = op.call()
    except Exception as exc:
        return None, perf_counter_ns() - start, exc
    return result, perf_counter_ns() - start, None


class Verifier:
    """Checks outcomes, remembering CLI outputs already found right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._good = set()

    def __call__(self, op, outcome, error):
        self.attempted += 1
        if error is None:
            key = None
            if op.argv is not None:
                key = (op.name, hashlib.sha1(
                    repr(outcome).encode()).hexdigest())
                if key in self._good:
                    return
            try:
                error = op.check(outcome)
            except Exception as exc:  # an unreadable output is wrong
                error = "unreadable output: {!r}".format(exc)
            if error is None:
                if key:
                    self._good.add(key)
                return
        self.fail(op.name, error)

    def fail(self, name, error):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append("{}: {}".format(name, error)[:300])


def run_pass(hs, ops, rng, verify, tracer=None):
    """One pass: every operation once, in a shuffled order.  Returns each
    operation's ns and the stdout bytes of the CLI calls."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    times = [0] * len(ops)
    report_bytes = 0
    for i in order:
        if tracer:
            tracer.op = i
        outcome, times[i], error = execute(hs, ops[i])
        if ops[i].argv is not None and outcome:
            report_bytes += len(outcome[1])
        verify(ops[i], outcome, error)
    return times, report_bytes


def pass_seconds(passes):
    """Sum over operations of each operation's fastest time, in s."""
    return sum(min(column) for column in zip(*passes)) / 1e9


def tail(samples):
    """(value, percentile) of the highest percentile with ten samples
    beyond it."""
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def trace_peak_alloc(hs, ops):
    """tracemalloc peak, in MB, of ``disk.trace`` on the workload's largest
    trace inputs, measured outside any timed pass."""
    inputs = {op.trace_input for op in ops if op.trace_input}
    if not inputs:
        return 0.0
    n = max(copies for _, copies in inputs)
    peak = 0
    for word in sorted(w for w, copies in inputs if copies == n):
        pattern = hs.disk.DiskPattern(word=word, copies=n)
        tracemalloc.start()
        try:
            hs.disk.trace(pattern)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def measure(args, workdir):
    import tracing

    verify = Verifier()
    hs, ops, warm = setup(args.workload, args.seed, workdir / "run")
    for op, outcome, _, error in warm:
        verify(op, outcome, error)
    setups = []

    def timed_setups(due):
        # The set-ups are spread through the run, so that their median
        # does not rest on one moment of the host's load.
        while len(setups) < due:
            seconds, ok = timed_setup(
                args.workload, args.seed,
                workdir / "setup{}".format(len(setups)))
            verify.attempted += 1
            if not ok:
                verify.fail("set-up {}".format(len(setups)),
                            "a warm-up call failed in a fresh interpreter")
            setups.append(seconds)

    rng = random.Random("order:{}:{}".format(args.workload, args.seed))
    start = perf_counter()
    deadline = start + args.seconds
    lines = []
    if not args.trace:
        plain = []
        while len(plain) < MIN_PASSES or perf_counter() < deadline:
            timed_setups(min(SETUP_REPEATS, 1 + int(
                SETUP_REPEATS * (perf_counter() - start) / args.seconds)))
            plain.append(run_pass(hs, ops, rng, verify)[0])
        timed_setups(SETUP_REPEATS)
        samples = [ns for times in plain for ns in times]
        tail_ns, tail_pct = tail(samples)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (pass_seconds(plain), "s"),
            "op_tail_ms": (tail_ns / 1e6, "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        lines.append("setup_s is the median of {} set-ups: {}".format(
            len(setups), " ".join("{:.4f}".format(s) for s in setups)))
        lines.append("op_p50_ms = {!r} ms, the median of all {} samples "
                     "(not gated)".format(statistics.median(samples) / 1e6,
                                          len(samples)))
        lines.append("op_tail_ms is p{:.2f} of {} samples ({} operations x "
                     "{} passes)".format(tail_pct, len(samples), len(ops),
                                         len(plain)))
    else:
        tracer = tracing.Tracer(hs)
        plain, traced, spans, totals, sizes = [], [], [], [], []
        while (len(traced) < MIN_TRACED_PASSES
               or perf_counter() < deadline):
            plain.append(run_pass(hs, ops, rng, verify)[0])
            tracer.install()
            try:
                times, size = run_pass(hs, ops, rng, verify, tracer)
            finally:
                tracer.uninstall()
            traced.append(times)
            spans.append(tracer.take())
            totals.append(sum(times))
            sizes.append(size)
        figures = tracing.layer_metrics(hs, spans, totals, sizes)
        figures["disk.trace.peak_alloc_mb"] = trace_peak_alloc(hs, ops)
        figures["tracing_overhead"] = (pass_seconds(traced)
                                       / pass_seconds(plain) - 1)
        units = {m["name"]: m["unit"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (value, units.get(name, ""))
                   for name, value in figures.items()}
        lines.append("{} untraced and {} traced passes of {} operations"
                     .format(len(plain), len(traced), len(ops)))
    lines.append("fail_ratio = {} / {} = {:.6f} ratio".format(
        verify.failed, verify.attempted, verify.failed / verify.attempted))
    lines.extend("failure: " + e for e in verify.errors)
    return verify, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hakensum" / "__init__.py").is_file():
        sys.stderr.write("no hakensum sources under {}\n".format(ROOT / "src"))
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("unknown workload {!r}; choose from {}\n".format(
            args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    work = ROOT / ".perfbench_work"
    workdir = work / "{}-{}-{}".format(args.workload, args.seed, os.getpid())
    try:
        verify, metrics, lines = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.rmdir()
    for name, (value, unit) in metrics.items():
        print("{} {} = {!r} {}".format(args.workload, name, value, unit))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": verify.failed == 0,
        "attempted": verify.attempted,
        "failed": verify.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
