"""Benchmark of formation-forge scenario runs, end to end and per module.

Run from the root of a checkout:

    python3 bench/run.py --workload census-fig2 --seed 1 --seconds 20 --trace 0

Each run is one process with one closed-loop client: an operation starts
when the previous one has finished and been checked. Operations go through
``formation_forge.cli.run_scenario`` on scenario files the benchmark writes
from ``--seed`` (see workloads.py).

``--trace 0`` measures with the program unmodified and reports the
end-to-end metrics. Their timings are in seconds on a reference host: a
probe of fixed work, run before each operation, gives this host's speed
at that moment (see run_plain). Before the timed window it runs the operations of
the reference seed, whose CSVs must match bench/reference/ to 1e-9
(spectra as multisets, clustered eigenvalues by their sums; see
compare_spectrum).

``--trace 1`` reports per-module metrics. It repeats a fixed prefix of the
seed's operations, alternating plain passes with passes under a
SpanRecorder (spans.py), until ``--seconds`` of operation time has passed.
Each metric is the median over traced passes; counts repeat exactly for a
seed. The overhead is the median traced pass time over the median plain
pass time, minus one.

Every operation is checked (see workloads.py); one that exits nonzero or
fails a check counts as failed. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# One process and no extra threads: the matrices are 8x8 and smaller.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import itertools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_RUNS = 11
# Timings are scaled to a host on which host_probe takes this long. On a
# shared 2-vCPU x86-64 VM at 2.1 GHz nominal it took 5.8 to 9.6 ms.
PROBE_REFERENCE_S = 0.007

# The benchmark measures the sources next to it, never an installed copy.
if not (SRC / "formation_forge" / "__init__.py").is_file():
    sys.exit(f"bench: no formation_forge package under {SRC}")
sys.path.insert(0, str(SRC))

from formation_forge import cli  # noqa: E402
from spans import SpanRecorder, calls_under, function_totals  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE_DIR,
    REFERENCE_SEED,
    WORKLOADS,
    check_reference,
    write_scenarios,
)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # numkernel
    "fd_jacobian.calls": "count",
    "fd_jacobian.self_s": "s",
    "eigenvalues.calls": "count",
    "eigenvalues.self_s": "s",
    "integrate_ode.self_s": "s",
    # dynamics
    "eval_F_x.calls": "count",
    "eval_F_x.self_s": "s",
    "eval_F_x.us_per_call": "us",
    "eval_F_z.calls": "count",
    "eval_F_z.self_s": "s",
    "edge_weights.self_s": "s",
    # rigidity
    "realize_two_cycles.calls": "count",
    "realize_two_cycles.self_s": "s",
    "edge_vectors.calls": "count",
    "edge_errors.self_s": "s",
    # graph
    "two_cycles.calls": "count",
    "mixed_adjacency.calls": "count",
    # equilibria
    "census.self_s": "s",
    "census.dropped_seeds": "count",
    "census.evals_per_equilibrium": "evals/record",
    "solve_ancillary_aligned.calls": "count",
    "solve_ancillary_aligned.self_s": "s",
    "gauge_fixed_spectrum.calls": "count",
    "gauge_fixed_spectrum.self_s": "s",
    # bifurcation
    "mu_sweep.self_s": "s",
    "sotomayor_check.self_s": "s",
    "sweep.point_yield": "ratio",
    "detect.detected_ratio": "ratio",
    # cli
    "load_scenario.self_s": "s",
    "run_scenario.self_s": "s",
    "bytes_written": "B",
    # the tracing itself
    "trace.overhead_frac": "ratio",
}

# ROADMAP's baseline, per call: (function, what the baseline timed, seconds).
BASELINE = (
    ("eval_F_x", "eval_F_x (two-cycles)", 20e-6),
    ("fd_jacobian", "fd_jacobian of eval_F_x", 380e-6),
    ("solve_ancillary_aligned", "solve_ancillary_aligned", 112e-3),
    ("census", "census(n_random=60) for fig2", 0.49),
    ("mu_sweep", "mu_sweep((1,5,4,8,4)), 21 samples", 44e-3),
    ("integrate_ode", "integrate_ode, 10 k RK4 steps", 1.09),
)

# A fresh interpreter runs this and prints the clock when it is ready. It
# builds the bundle the way run_scenario does, through the cli's own path.
# time.monotonic is CLOCK_MONOTONIC on Linux, shared by all processes.
SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
import formation_forge as ff
ff.cli._build_bundle(ff.load_scenario(sys.argv[1]))
print(time.monotonic())
"""


class Tally:
    """Attempted and failed operations, with the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, op, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.extend(f"op {op.index}: {p}" for p in problems)


def execute(workload, op, directory):
    """Run one operation's scenarios and check what they wrote.

    Only the run_scenario calls are timed; scenario files are written
    before and outputs checked after. Returns (seconds, outcome, outs).
    """
    paths = write_scenarios(op, directory)
    codes = {}
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for run, (path, out) in paths.items():
            codes[run] = cli.run_scenario(path, out_dir=out)
        seconds = time.perf_counter() - start
    outs = {run: out for run, (_, out) in paths.items()}
    outcome = workload.check(op, codes, outs)
    if any(codes.values()):
        outcome.fail(f"program output: {sink.getvalue().strip()[-300:]}")
    return seconds, outcome, outs


def run_op(workload, op, directory, reference=False):
    """Run and check one operation; returns (seconds, problems, stats)."""
    seconds, outcome, outs = execute(workload, op, directory)
    problems = outcome.failures
    if reference and not problems:
        problems.extend(check_reference(workload, op, outs))
    shutil.rmtree(directory)
    return seconds, problems, outcome.stats


def write_reference(workload, work):
    """Store the reference seed's CSVs as the snapshots runs compare with."""
    for op in itertools.islice(workload.ops(REFERENCE_SEED), workload.n_reference):
        _, outcome, outs = execute(workload, op, work / f"ref{op.index}")
        if outcome.failures:
            raise RuntimeError(f"op {op.index} failed its checks: {outcome.failures}")
        for run, out in outs.items():
            dest = REFERENCE_DIR / workload.name / f"op{op.index}" / run
            dest.mkdir(parents=True, exist_ok=True)
            for produced in out.glob("*.csv"):
                shutil.copyfile(produced, dest / produced.name)


def check_reference_ops(workload, work, tally):
    """Run the reference seed's first operations and compare with snapshots.

    This also warms the process up before anything is timed.
    """
    for op in itertools.islice(workload.ops(REFERENCE_SEED), workload.n_reference):
        _, problems, _ = run_op(workload, op, work / f"ref{op.index}", reference=True)
        tally.add(op, problems)


def time_setup(path):
    """Seconds from starting a fresh interpreter to a loaded scenario and bundle."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(path), str(SRC)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1]) - start


def host_probe():
    """Seconds for fixed work that does not use formation_forge.

    The work is of the package's kind, small NumPy calls between Python
    loops, so that a host's slow spells stretch it as they stretch the
    operations.
    """
    a = np.random.default_rng(0).random((8, 8))
    start = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        acc += float(np.linalg.eigvals(a).real.sum()) + float((a @ a)[0, 0])
        for j in range(60):
            acc += j * 0.5
    return time.perf_counter() - start


def run_plain(workload, seed, seconds, work):
    """End-to-end metrics over ``seconds`` of closed-loop operation time.

    The SETUP_RUNS fresh interpreters of ``setup_s`` start one at a time
    between operations, spread evenly over the window, so that its median
    and the operation times see the same spells of a busy host. A
    host_probe runs before each operation, outside its timing. Each
    operation time, and each set-up time that follows it, is scaled by
    PROBE_REFERENCE_S over that probe, to seconds on the reference host.
    The wall-clock values are printed beside the scaled ones.
    """
    tally = Tally()
    first = next(workload.ops(seed))
    setup_file, _ = next(iter(write_scenarios(first, work / "setup").values()))
    check_reference_ops(workload, work, tally)
    times, factors, setup = [], [], []  # setup: (wall seconds, factor)
    stats = Counter()
    for op in workload.ops(seed):
        factor = PROBE_REFERENCE_S / host_probe()
        reference = seed == REFERENCE_SEED and op.index < workload.n_reference
        dt, problems, op_stats = run_op(workload, op, work / f"op{op.index}", reference)
        tally.add(op, problems)
        stats.update(op_stats)
        times.append(dt)
        factors.append(factor)
        while len(setup) < SETUP_RUNS and sum(times) >= len(setup) * seconds / SETUP_RUNS:
            setup.append((time_setup(setup_file), factor))
        if sum(times) >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scaled = [t * f for t, f in zip(times, factors)]
    wall = {
        "setup_s": statistics.median(s for s, _ in setup),
        "ops_per_s": len(times) / sum(times),
        "op_s.p50": statistics.median(times),
    }
    metrics = {
        "setup_s": statistics.median(s * f for s, f in setup),
        "ops_per_s": len(scaled) / sum(scaled),
        "op_s.p50": statistics.median(scaled),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    lines = [
        f"{workload.name}, seed {seed}: {len(times)} timed operations "
        f"in {sum(times):.3f} s, one closed-loop client",
        f"  host_probe reference {1e3 * PROBE_REFERENCE_S:.4g} ms; timings scaled by a median "
        f"{statistics.median(factors):.4g} (n = {len(factors)} probes)",
        *(
            f"  {name:<12} {value:.6g} {END_TO_END[name]}"
            + (f"   (wall clock {wall[name]:.6g})" if name in wall else "")
            for name, value in metrics.items()
        ),
        f"  setup_s is the median of {SETUP_RUNS} fresh interpreters; "
        f"op_s.p50 is over n = {len(times)}",
    ]
    if len(times) >= 100:
        p90 = statistics.quantiles(scaled, n=10)[-1]
        wall_p90 = statistics.quantiles(times, n=10)[-1]
        lines.append(
            f"  op_s.p90     {p90:.6g} s   (wall clock {wall_p90:.6g}; n = {len(times)})"
        )
    else:
        lines.append(f"  op_s.p90     not reported: {len(times)} operations, needs 100")
    if stats["sweeps"]:
        lines.append(
            f"  sweeps       {stats['sweeps']} members, {stats['sweeps_with_gaps']} with "
            f"sweep gaps, crossing detected on {stats['detected']}"
        )
    lines.append(
        f"  fail_frac    {tally.failed / tally.attempted:.6g} "
        f"({tally.failed} of {tally.attempted} attempted, "
        f"including {workload.n_reference} reference operations)"
    )
    return tally, metrics, lines


def traced_metrics(spans, stats):
    """Per-module metrics of one traced pass."""
    totals = function_totals(spans)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for name in PER_LAYER:
        function, _, kind = name.rpartition(".")
        count, inclusive, own = totals.get(function, (0, 0.0, 0.0))
        if kind == "calls":
            metrics[name] = count
        elif kind == "self_s":
            metrics[name] = own
        elif kind == "us_per_call":
            metrics[name] = 1e6 * ratio(inclusive, count)
    metrics.update({
        "census.dropped_seeds": stats["dropped_seeds"],
        "census.evals_per_equilibrium": ratio(calls_under(spans, "eval_F_x", "census"),
                                              stats["records"]),
        "sweep.point_yield": ratio(stats["sweep_points"], stats["sweep_slots"]),
        "detect.detected_ratio": ratio(stats["detected"], stats["sweeps"]),
        "bytes_written": stats["bytes_written"],
    })
    return metrics, totals


def run_pass(workload, prefix, work, tally, recorder=None):
    """Run the operations once, under ``recorder`` if given.

    Returns the summed operation seconds and the summed check stats.
    """
    stats = Counter()
    busy = 0.0
    with recorder or contextlib.nullcontext():
        for op in prefix:
            dt, problems, op_stats = run_op(workload, op, work / f"op{op.index}")
            tally.add(op, problems)
            stats.update(op_stats)
            busy += dt
    return busy, stats


def run_traced(workload, seed, seconds, work):
    """Per-module metrics from alternating plain and traced passes."""
    tally = Tally()
    check_reference_ops(workload, work, tally)
    prefix = list(itertools.islice(workload.ops(seed), workload.n_traced))
    plain, traced, passes = [], [], []
    while not passes or sum(plain) + sum(traced) < seconds:
        plain.append(run_pass(workload, prefix, work, tally)[0])
        recorder = SpanRecorder()
        busy, stats = run_pass(workload, prefix, work, tally, recorder)
        traced.append(busy)
        passes.append(traced_metrics(recorder.spans, stats))
    # median_low keeps counts, which repeat exactly, as the integers they are.
    metrics = {name: statistics.median_low(p[0][name] for p in passes) for name in passes[0][0]}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    lines = [
        f"{workload.name}, seed {seed}: {len(passes)} traced and {len(plain)} plain "
        f"passes over its first {len(prefix)} operations",
        *(f"  {name:<32} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()),
        "  per-call means in the first traced pass (inclusive, with span overhead):",
    ]
    first_totals = passes[0][1]
    for function, label, baseline in BASELINE:
        count, inclusive, _ = first_totals.get(function, (0, 0.0, 0.0))
        if count:
            lines.append(
                f"    {label:<36} {inclusive / count:.4g} s x {count}"
                f"   baseline {baseline:.4g} s"
            )
    return tally, metrics, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference", action="store_true",
        help="store the reference seed's CSVs under bench/reference/ and exit",
    )
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    try:
        if args.write_reference:
            write_reference(workload, work)
            return 0
        runner = run_traced if args.trace else run_plain
        tally, values, lines = runner(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for reason in tally.reasons[:20]:
        print(f"bench: failed {reason}", file=sys.stderr)
    print("\n".join(lines))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
