"""Tests of the benchmark itself: its correctness gate, tracing and output.

Run from the root of a checkout:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import formation_forge  # noqa: E402
from formation_forge import dynamics, equilibria  # noqa: E402

# Every metric the benchmark's definition names, with its unit.
NAMED_END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_s.p50": "s", "peak_rss_mb": "MB"}
NAMED_PER_LAYER = [
    "fd_jacobian.calls", "fd_jacobian.self_s", "eigenvalues.calls", "eigenvalues.self_s",
    "integrate_ode.self_s",
    "eval_F_x.calls", "eval_F_x.self_s", "eval_F_x.us_per_call", "eval_F_z.calls",
    "eval_F_z.self_s", "edge_weights.self_s",
    "realize_two_cycles.calls", "realize_two_cycles.self_s", "edge_vectors.calls",
    "edge_errors.self_s",
    "two_cycles.calls", "mixed_adjacency.calls",
    "census.self_s", "census.dropped_seeds", "census.evals_per_equilibrium",
    "solve_ancillary_aligned.calls", "solve_ancillary_aligned.self_s",
    "gauge_fixed_spectrum.calls", "gauge_fixed_spectrum.self_s",
    "mu_sweep.self_s", "sotomayor_check.self_s", "sweep.point_yield",
    "detect.detected_ratio",
    "load_scenario.self_s", "run_scenario.self_s", "bytes_written",
    "trace.overhead_frac",
]


def bench_run(*args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice():
    args = ("--workload", "branches-singular", "--seed", "5", "--seconds", "0.1", "--trace", "1")
    return bench_run(*args), bench_run(*args)


def test_perturbed_reference_trips_the_gate(tmp_path, monkeypatch):
    wl = workloads.WORKLOADS["branches-singular"]
    op = next(wl.ops(workloads.REFERENCE_SEED))
    _, problems, _ = run.run_op(wl, op, tmp_path / "clean", reference=True)
    assert problems == []

    copy = tmp_path / "reference"
    shutil.copytree(workloads.REFERENCE_DIR, copy)
    sweep = copy / wl.name / "op0" / "sweep" / "sweep.csv"
    header, *rows = sweep.read_text().splitlines()
    cells = rows[3].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-7))
    rows[3] = ",".join(cells)
    sweep.write_text("\n".join([header, *rows]) + "\n")
    monkeypatch.setattr(workloads, "REFERENCE_DIR", copy)
    _, problems, _ = run.run_op(wl, op, tmp_path / "perturbed", reference=True)
    assert len(problems) == 1 and "sweep.csv differs from reference" in problems[0]


def test_compare_csv_tolerance():
    ref = "mu,eig\n0.5,-1.25+2j;-1.25-2j\n"
    assert workloads.compare_csv(ref, ref) is None
    assert workloads.compare_csv("mu,eig\n0.5,-1.25+2.0000000001j;-1.25-2j\n", ref) is None
    assert workloads.compare_csv("mu,eig\n0.5,-1.25+2.00001j;-1.25-2j\n", ref) is not None
    assert workloads.compare_csv("mu,eig\n0.5,-1.25+2j\n", ref) is not None


def test_spectrum_clusters_are_held_to_their_sums():
    ref = "kind,eigenvalues\nd,-8+0j;-9.99999346986+0j;-10.0000065308+0j;-16+0j\n"
    # Roundoff may split the double eigenvalue -10 as a complex pair instead.
    split = "-9.99999999987+8.89330584165e-06j;-9.99999999987-8.89330584165e-06j"
    assert workloads.compare_csv(ref.replace("-9.99999346986+0j;-10.0000065308+0j", split),
                                 ref) is None
    # A lone eigenvalue is held to 1e-9, a cluster to its sum, and counts must match.
    assert workloads.compare_csv(ref.replace("-16+0j", "-16.0000001+0j"), ref) is not None
    assert workloads.compare_csv(ref.replace("-10.0000065308", "-10.0000067308"), ref) is not None
    assert workloads.compare_csv(ref.replace("-8+0j", "-10+0j"), ref) is not None


def test_members_are_realizable_at_both_sweep_ends():
    wl = workloads.WORKLOADS["branches-singular"]
    for d in itertools.islice(wl.members(3), 20):
        assert formation_forge.in_singular_set(formation_forge.TargetLengths(d=d))
        for mu in (-workloads.SWEEP_EPS, workloads.SWEEP_EPS):
            assert workloads.sweep_end_realizable(d, mu)
    assert not workloads.sweep_end_realizable((1.0, 1.0, 0.1, 1.0, 1.0), -workloads.SWEEP_EPS)


def test_recorder_rebinds_every_name_and_restores_them():
    original = dynamics.eval_F_x
    with spans.SpanRecorder() as recorder:
        assert equilibria.eval_F_x is dynamics.eval_F_x is formation_forge.eval_F_x
        assert dynamics.eval_F_x is not original
        bundle = formation_forge.VectorFieldBundle(
            graph=formation_forge.two_cycles(),
            law=formation_forge.builtin_law("gradient_squared"),
            lengths=formation_forge.TargetLengths(d=workloads.SWEEP_S0),
        )
        equilibria.eval_F_x(bundle, [0.0, 0.0, 1.0, 0.0, 0.5, 1.0, -1.0, 0.0])
    assert dynamics.eval_F_x is original and equilibria.eval_F_x is original
    names = [s[0] for s in recorder.spans]
    assert names.count("eval_F_x") == 1 and names.count("edge_weights") == 1
    child = names.index("edge_weights")
    assert names[recorder.spans[child][3]] == "eval_F_x"


def test_self_time_subtracts_children():
    recorded = [
        ("outer", 0.0, 10.0, -1),
        ("inner", 1.0, 3.0, 0),
        ("leaf", 1.5, 2.0, 1),
        ("inner", 4.0, 8.0, 0),
    ]
    totals = spans.function_totals(recorded)
    assert totals["outer"] == [1, 10.0, 4.0]
    assert totals["inner"] == [2, 6.0, 5.5]
    assert spans.calls_under(recorded, "leaf", "outer") == 1
    assert spans.calls_under(recorded, "inner", "leaf") == 0


def test_trace_counts_repeat_exactly(traced_twice):
    first, second = traced_twice
    for name, entry in first["metrics"].items():
        if entry["unit"] in ("count", "B", "ratio") and name != "trace.overhead_frac":
            assert entry["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["eval_F_x.calls"]["value"] > 0


def test_every_metric_appears_with_its_unit(traced_twice):
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = bench_run("--workload", "branches-singular", "--seed", "5", "--seconds", "0.5")
    for result, key, named in (
        (plain, "end_to_end", NAMED_END_TO_END),
        (traced_twice[0], "per_layer", dict.fromkeys(NAMED_PER_LAYER)),
    ):
        assert result["correct"] and result["failed"] == 0
        units = {m["name"]: m["unit"] for m in definition[key]}
        assert {n: e["unit"] for n, e in result["metrics"].items()} == units
        assert set(named) <= set(units)
        assert all(unit is None or units[n] == unit for n, unit in named.items())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census-fig2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
