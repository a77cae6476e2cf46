#!/usr/bin/env python3
"""Run one workload of the mdp-workbench benchmark and print its metrics.

    python3 perfbench/run.py --workload enum-tables --seed 1 --seconds 20 --trace 0

Closed loop, one client: a single process and thread submits the next job
only when the previous one has returned.  The run byte-compiles ``src/``,
times the package import and the workload's set-up (median of five), then
submits whole cycles of seeded jobs until the jobs' own time reaches
``--seconds`` and at least MIN_JOBS have run.  Every answer is checked by
``checks.py`` outside the timed calls.

``--trace 0`` prints the end-to-end metrics, scaled to a reference machine
speed by a calibration loop timed after every job (see CAL_REF_NS), with
the raw figures beside them.  ``--trace 1`` runs every job
twice, untraced and then traced against a twin set-up with every layer's
public functions wrapped in spans, and prints the per-layer metrics plus the
tracing overhead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 5
# Ten jobs must lie beyond p90: at least 110 jobs a run.
MIN_JOBS = 110
# Stop at the next cycle boundary after this much wall time whatever the
# job count, to stay inside the three-minute limit of one run.
WALL_CAP_S = 140

# A host shared with other tenants can run 1.2-1.6x slower for minutes at a
# time (seen on a 2-vCPU cloud VM).  A fixed calibration loop runs after every job; timed
# metrics are scaled per cycle by CAL_REF_NS / (the cycle's median loop
# time), i.e. reported at the speed where the loop takes CAL_REF_NS.  The
# loop mixes the program's two kinds of work: small-Fraction arithmetic with
# dict updates, and Gauss-Jordan on 30-digit rationals (as in the grid
# metrics' rounded stretches).  Raw figures are printed beside the scaled.
CAL_REF_NS = 2_000_000
_BIG = Fraction(Decimal("1.63252691943815284477349538100"))  # 2 ** (1 / sqrt 2)
CAL_MATRIX = [
    [_BIG ** ((i * j) % 3) + 3 * (i == j) + Fraction(i + 1, j + 2) for j in range(5)]
    for i in range(5)
]

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import mdp_workbench, mdp_workbench.cli; print(time.perf_counter() - t)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def timed_import() -> float:
    """Import time of the package in a fresh interpreter (seconds)."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        fail(f"cannot import mdp_workbench from {SRC}:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def calibration() -> int:
    """Nanoseconds one fixed loop takes now; see CAL_REF_NS."""
    start = time.perf_counter_ns()
    acc, counts = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        counts[i % 11] = counts.get(i % 11, 0) + acc.denominator % 97
    n = len(CAL_MATRIX)
    rows = [row + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(CAL_MATRIX)]
    for c in range(n):
        inv = 1 / rows[c][c]
        rows[c] = [v * inv for v in rows[c]]
        for i in range(n):
            if i != c:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return time.perf_counter_ns() - start


def speed(samples) -> float:
    """Scale factor from measured to reference speed."""
    return CAL_REF_NS / statistics.median(samples)


class Result:
    """Outcome of one job: label, wall and CPU nanoseconds of the program
    call, nanoseconds spent checking the answer, error or None."""

    __slots__ = ("label", "wall_ns", "cpu_ns", "check_ns", "error")

    def __init__(self, label, wall_ns, cpu_ns, check_ns, error):
        self.label, self.wall_ns, self.cpu_ns = label, wall_ns, cpu_ns
        self.check_ns, self.error = check_ns, error


def execute(job, ctx, kinds) -> Result:
    run, check = kinds[job.kind]
    t0, c0 = time.perf_counter_ns(), time.process_time_ns()
    try:
        answer, error = run(job.args, ctx), None
    except Exception as exc:  # a raising or refusing job is a failed job
        answer, error = None, f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter_ns() - t0, time.process_time_ns() - c0
    if error is None:
        try:
            error = check(job.args, answer, ctx)
        except Exception as exc:  # a malformed answer can trip the checker
            error = f"checker raised {type(exc).__name__}: {exc}"
    return Result(job.label, wall, cpu, time.perf_counter_ns() - t0 - wall, error)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "mdp_workbench" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'mdp_workbench'}")
    if not compileall.compile_dir(str(SRC), quiet=1):
        fail("byte-compiling src/ failed")
    imports, setup_cal = [], []
    for _ in range(SETUP_REPS):
        imports.append(timed_import())
        setup_cal += [calibration() for _ in range(5)]
    import_s = statistics.median(imports)

    sys.path[:0] = [str(SRC), str(ROOT)]
    import mdp_workbench

    if Path(mdp_workbench.__file__).resolve().parent != SRC / "mdp_workbench":
        fail(f"imported mdp_workbench from {mdp_workbench.__file__}, not {SRC}")
    from perfbench import inputs

    if args.workload not in inputs.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}")
    from perfbench import jobs

    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    try:
        (run_dir / "inputs").mkdir(parents=True)
        bench(args, import_s, setup_cal, run_dir, inputs, jobs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class Stream:
    """A workload's cycles in order, with cli inputs written as they come."""

    def __init__(self, workload, seed, ctx, inputs):
        self.workload, self.seed, self.ctx, self.inputs = workload, seed, ctx, inputs
        self.cycle = 0

    def next(self) -> list:
        cycle = self.inputs.cycle_jobs(self.workload, self.seed, self.cycle, self.ctx.plain)
        self.cycle += 1
        for job in cycle:
            self.ctx.prepare(job)
        return cycle


def set_up(args, run_dir, rep, inputs, jobs):
    """One timed set-up: spaces and kernels, cache warm-up, first cycle."""
    start = time.perf_counter()
    ctx = jobs.Context(args.workload, args.seed, run_dir / "inputs", run_dir / f"cache{rep}")
    stream = Stream(args.workload, args.seed, ctx, inputs)
    first = stream.next()
    return time.perf_counter() - start, ctx, stream, first


class Cycle(list):
    """One cycle's results, with the calibration loop timed after each job."""

    def __init__(self):
        super().__init__()
        self.cal_ns = []


def run_cycles(stream, first, budget_ns, min_jobs, kinds, started):
    """Whole cycles until the jobs' own time reaches the budget; returns the
    results, one list per cycle."""
    cycles, busy, cycle = [], 0, first
    while True:
        done = Cycle()
        for job in cycle:
            done.append(execute(job, stream.ctx, kinds))
            done.cal_ns.append(calibration())
        cycles.append(done)
        busy += sum(r.wall_ns for r in done)
        if busy >= budget_ns and sum(map(len, cycles)) >= min_jobs:
            break
        if time.perf_counter() - started > WALL_CAP_S:
            break
        cycle = stream.next()
    return cycles


def bench(args, import_s, setup_cal, run_dir, inputs, jobs) -> None:
    started = time.perf_counter()
    setups = []
    for rep in range(SETUP_REPS):
        seconds, ctx, stream, first = set_up(args, run_dir, rep, inputs, jobs)
        setups.append(seconds)
        setup_cal += [calibration() for _ in range(5)]
    ctx.verify()
    raw_setup_s = import_s + statistics.median(setups)
    setup_s = raw_setup_s * speed(setup_cal)

    children0 = os.times()
    budget = args.seconds * 1e9
    if args.trace:
        run_traced(args, stream, first, run_dir, jobs, started)
        return
    cycles = run_cycles(stream, first, budget, MIN_JOBS, jobs.KINDS, started)
    children = os.times()
    child_cpu_ms = 1e3 * (
        children.children_user - children0.children_user
        + children.children_system - children0.children_system
    )
    report(args, (setup_s, raw_setup_s), import_s, setups, cycles, child_cpu_ms)


def run_traced(args, stream, first, run_dir, jobs, started) -> None:
    """Each job runs twice in a row: untraced against the run's set-up, then
    traced against a twin set-up, so both see the same machine speed and
    the same cache state.  Whole cycles until both together reach the
    budget."""
    from perfbench import spans

    twin = jobs.Context(args.workload, args.seed, run_dir / "inputs", run_dir / "cache-traced")
    twin.verify()
    recorder = spans.Recorder()
    untraced, traced, busy, cycle = [], [], 0, first
    while True:
        for job in cycle:
            untraced.append(execute(job, stream.ctx, jobs.KINDS))
            recorder.job = len(traced)
            restore = recorder.install()
            try:
                traced.append(execute(job, twin, jobs.KINDS))
            finally:
                restore()
            busy += untraced[-1].wall_ns + traced[-1].wall_ns
        if busy >= args.seconds * 1e9 or time.perf_counter() - started > WALL_CAP_S:
            break
        cycle = stream.next()
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    recorder.write(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
    report_trace(args, untraced, traced, recorder)


def rate(results) -> float:
    return len(results) / (sum(r.wall_ns for r in results) / 1e9)


def failures(results) -> int:
    bad = [r for r in results if r.error]
    for r in bad[:5]:
        print(f"perfbench: FAILED {r.label}: {r.error}", file=sys.stderr)
    return len(bad)


def print_labels(results) -> None:
    by_label: dict = {}
    for r in results:
        by_label.setdefault(r.label, []).append(r)
    print(f"{'job type':34} {'count':>5} {'median ms':>10} {'max ms':>9} {'check ms':>9}")
    for label, rs in sorted(
        by_label.items(), key=lambda kv: statistics.median(r.wall_ns for r in kv[1])
    ):
        ms = [r.wall_ns / 1e6 for r in rs]
        check_ms = sum(r.check_ns for r in rs) / 1e6 / len(rs)
        print(f"{label:34} {len(ms):5d} {statistics.median(ms):10.2f} {max(ms):9.2f} {check_ms:9.2f}")


def emit(results, failed, metrics) -> None:
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of all order statistics.  Where the job mix has a gap in
    cost next to the quantile, it moves smoothly instead of jumping between
    the job types on either side."""
    n = len(values)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [float(mpmath.betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((hi - lo) * v for lo, hi, v in zip(cdf, cdf[1:], sorted(values)))


def scaled_results(cycles, scaled: bool):
    """(wall ms, CPU ms) of every job, each cycle brought to reference speed
    if ``scaled``."""
    out = []
    for c in cycles:
        f = speed(c.cal_ns) if scaled else 1.0
        out += [(r.wall_ns * f / 1e6, r.cpu_ns * f / 1e6) for r in c]
    return out


def report(args, setup, import_s, setups, cycles, child_cpu_ms) -> None:
    results = sum(cycles, [])
    failed = failures(results)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {args.workload}, seed {args.seed}: {len(results)} jobs in "
          f"{len(cycles)} cycles; per cycle raw jobs/s @ speed factor: "
          + ", ".join(f"{rate(c):.2f}@{speed(c.cal_ns):.2f}" for c in cycles))
    print_labels(results)
    print(f"{'':16} {'scaled':>12} {'raw':>12}")
    metrics = {}
    for scaled in (True, False):
        wall, cpu = zip(*scaled_results(cycles, scaled))
        metrics[scaled] = {
            "setup_s": (setup[0] if scaled else setup[1], "s"),
            "jobs_per_s": (len(wall) / (sum(wall) / 1e3), "jobs/s"),
            "job_p50_ms": (hd_quantile(wall, 0.5), "ms"),
            "job_p90_ms": (hd_quantile(wall, 0.9), "ms"),
            "cpu_ms_per_job": ((sum(cpu) + child_cpu_ms) / len(cpu), "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    p90 = metrics[True]["job_p90_ms"][0]
    beyond = sum(1 for w, _ in scaled_results(cycles, True) if w > p90)
    for name, (value, unit) in metrics[True].items():
        print(f"{name:16} {value:12.4f} {metrics[False][name][0]:12.4f} {unit}")
    print(f"  setup_s = import {import_s:.4f} s + median of set-ups "
          + ", ".join(f"{s:.4f}" for s in setups) + " s (raw)")
    print(f"  job_p90_ms over {len(results)} jobs, {beyond} beyond it")
    print(f"  untimed answer checks took {sum(r.check_ns for r in results) / 1e9:.2f} s")
    print(f"failed_share     {failed / len(results):12.4f} ({failed} of {len(results)})")
    emit(results, failed, metrics[True])


def report_trace(args, untraced, traced, recorder) -> None:
    from perfbench import spans

    metrics = spans.layer_metrics(recorder.spans, len(traced))
    metrics["trace.untraced_jobs_per_s"] = rate(untraced)
    metrics["trace.traced_jobs_per_s"] = rate(traced)
    metrics["trace.overhead_jobs_per_s"] = rate(traced) - rate(untraced)
    metrics["trace.spans_per_job"] = len(recorder.spans) / len(traced)
    results = untraced + traced
    failed = failures(results)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} jobs, each run "
          f"untraced then traced; {len(recorder.spans)} spans")
    print(f"tracing overhead: {rate(untraced):.3f} jobs/s untraced, "
          f"{rate(traced):.3f} jobs/s traced")
    for name, value in metrics.items():
        print(f"{name:46} {value:14.4f} {spans.LAYER_METRICS[name][0]}")
    emit(results, failed, {k: (v, spans.LAYER_METRICS[k][0]) for k, v in metrics.items()})


if __name__ == "__main__":
    main()
