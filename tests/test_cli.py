"""Tests for scenario loading, the experiment runners, and the reports."""

import dataclasses
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import formation_forge
from formation_forge import equilibria, errors
from formation_forge.cli import (
    _PARAMS,
    _RUNNERS,
    _sweep_lines,
    load_scenario,
    main,
    run_scenario,
)
from formation_forge.errors import ScenarioError
from formation_forge.numkernel import rank_tol
from formation_forge.rigidity import realize_two_cycles

SCENARIO_DIR = Path(formation_forge.__file__).parent / "scenarios"

BASE = {
    "format": 1,
    "name": "case",
    "graph": {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 1], [4, 3], [1, 4]]},
    "lengths": {"values": [2.0, 2.6, 2.0, 3.3, 1.4], "convention": "plain"},
    "law": {"name": "gradient_squared", "gain": 1.0},
    "experiment": {"kind": "census", "n_random": 10},
    "seed": 7,
}

# A JSON integer too large for a float: "1" followed by 400 zeros.
HUGE = 10**400


def write_scenario(tmp_path, overrides, name="case.json"):
    raw = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw, indent=2))
    return path


def run_bundled_as(tmp_path, scenario, kind):
    """Run a bundled scenario with its experiment kind replaced, into ``tmp_path / "out"``."""
    raw = json.loads((SCENARIO_DIR / scenario).read_text())
    raw["experiment"]["kind"] = kind
    path = tmp_path / scenario
    path.write_text(json.dumps(raw))
    return run_scenario(path, out_dir=tmp_path / "out")


def count_calls(monkeypatch, fn):
    """Count the calls of ``fn`` through every package module that binds its name."""
    calls = []

    def spy(*args):
        calls.append(args)
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "formation_forge" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, spy)
    return calls


def read_stderr_record(capsys):
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0]), captured.out


class TestLoadScenario:
    def test_bundled_census_scenario(self):
        sc = load_scenario(SCENARIO_DIR / "fig2.json")
        assert sc.name == "benchmark-census"
        assert sc.graph.n == 4 and sc.graph.m == 5
        assert sc.graph.edges == ((0, 1), (1, 2), (2, 0), (3, 2), (0, 3))
        assert sc.length_values == (2.0, 2.6, 2.0, 3.3, 1.4)
        assert sc.length_convention == "plain"
        assert sc.law_name == "gradient_squared"
        assert sc.experiment == "census"
        assert sc.params == {"n_random": 60}
        assert sc.seed == 7

    def test_bundled_sweep_scenario(self):
        sc = load_scenario(SCENARIO_DIR / "sweep_s0.json")
        assert sc.name == "singular-set-sweep"
        assert sc.length_values == (1.0, 5.0, 4.0, 8.0, 4.0)
        assert sc.length_convention == "squared"
        assert sc.experiment == "sweep"
        assert sc.params == {"eps": 0.2, "samples": 21}

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "format": 1,\n  oops\n}\n')
        with pytest.raises(ScenarioError, match=r"broken\.json: line 3 column 3"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read scenario file"):
            load_scenario(tmp_path / "absent.json")

    def test_unknown_top_level_key(self, tmp_path):
        path = write_scenario(tmp_path, {"extras": {"x": 1}})
        with pytest.raises(ScenarioError, match="unknown scenario keys: extras"):
            load_scenario(path)

    def test_unsupported_format_version(self, tmp_path):
        path = write_scenario(tmp_path, {"format": 2})
        with pytest.raises(ScenarioError, match="unsupported scenario format 2"):
            load_scenario(path)

    def test_missing_lengths(self, tmp_path):
        path = write_scenario(tmp_path, {"lengths": None})
        with pytest.raises(ScenarioError, match="missing required key 'lengths'"):
            load_scenario(path)

    def test_length_count_mismatch(self, tmp_path):
        path = write_scenario(
            tmp_path, {"lengths": {"values": [1.0, 2.0, 3.0], "convention": "plain"}}
        )
        with pytest.raises(ScenarioError, match="3 length values for a graph with 5"):
            load_scenario(path)

    def test_unknown_convention(self, tmp_path):
        path = write_scenario(
            tmp_path, {"lengths": {"values": [1.0] * 5, "convention": "cubed"}}
        )
        with pytest.raises(ScenarioError, match="unknown length convention 'cubed'"):
            load_scenario(path)

    def test_unknown_experiment(self, tmp_path):
        path = write_scenario(tmp_path, {"experiment": {"kind": "dance"}})
        with pytest.raises(ScenarioError, match="unknown experiment 'dance'"):
            load_scenario(path)

    # m edges name at most 2m agents; the fresh-interpreter test runs a far larger count
    def test_vertices_are_at_most_two_per_edge(self, tmp_path):
        path = write_scenario(tmp_path, {"graph": dict(BASE["graph"], vertices=10)})
        assert load_scenario(path).graph.n == 10
        path = write_scenario(tmp_path, {"graph": dict(BASE["graph"], vertices=11)})
        with pytest.raises(ScenarioError, match=re.escape(
            "graph: key 'vertices' must be at most 10, two per edge, got 11"
        )):
            load_scenario(path)

    def test_edge_must_be_a_pair(self, tmp_path):
        path = write_scenario(
            tmp_path, {"graph": {"vertices": 4, "edges": [[1, 2, 3]]}}
        )
        with pytest.raises(ScenarioError, match="edge 1 must be a pair"):
            load_scenario(path)


class TestCensusRun:
    def test_bundled_census_scenario_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run_scenario(SCENARIO_DIR / "fig2.json", out_dir=out)
        assert status == 0
        report = (out / "report.txt").read_text()
        assert capsys.readouterr().out == report
        assert "scenario: benchmark-census" in report
        assert "feasible: yes" in report
        assert "almost surely stable: no" in report
        assert "dropped seeds: 4" in report
        assert "index sum: -6" in report
        csv_text = (out / "census.csv").read_text()
        assert csv_text.splitlines()[0] == "kind,stable,index,eigenvalues,positions"
        kinds = [line.split(",")[0] for line in csv_text.splitlines()[1:]]
        assert kinds == sorted(kinds)
        assert kinds.count("design") == 4
        assert kinds.count("ancillary_aligned") == 4

    def test_census_csv_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_scenario(SCENARIO_DIR / "fig2.json", out_dir=first) == 0
        assert run_scenario(SCENARIO_DIR / "fig2.json", out_dir=second) == 0
        capsys.readouterr()
        assert (first / "census.csv").read_bytes() == (second / "census.csv").read_bytes()


    def test_two_cycles_edges_with_an_idle_agent_run_the_generic_census(self, tmp_path, capsys):
        # Five vertices make another graph than two-cycles: Newton seeds only.
        graph = dict(BASE["graph"], vertices=5)
        path = write_scenario(tmp_path, {"graph": graph})
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == 0
        assert capsys.readouterr().err == ""
        assert "graph: 5 agents, 5 edges" in (out / "report.txt").read_text()


class TestSweepRun:
    def test_bundled_sweep_scenario_detects_the_exchange(self, tmp_path, capsys):
        out = tmp_path / "out"
        status = run_scenario(SCENARIO_DIR / "sweep_s0.json", out_dir=out)
        assert status == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        assert (
            "transcritical exchange: detected (ancillary_aligned stable below "
            "the crossing, design stable above)"
        ) in report
        assert "crossing design: mu = " in report
        csv_lines = (out / "sweep.csv").read_text().splitlines()
        assert csv_lines[0] == "mu,branch,leading_real,stable,e1,e2,e3,e4,e5,positions"
        assert len(csv_lines) == 43

    def test_sweep_design_error_columns_track_perturbed_targets(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_scenario(SCENARIO_DIR / "sweep_s0.json", out_dir=out) == 0
        capsys.readouterr()
        for line in (out / "sweep.csv").read_text().splitlines()[1:]:
            cells = line.split(",")
            if cells[1] != "design":
                continue
            errs = [abs(float(v)) for v in cells[4:9]]
            assert max(errs) <= 1e-9

    def test_sweep_refuses_other_graphs(self, tmp_path, capsys):
        # The realizer refuses first, with the code of the sweep's own refusal before it.
        lengths = {"values": [1.0, 5.0, 4.0, 8.0, 4.0], "convention": "squared"}
        for graph in (
            {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]]},
            dict(BASE["graph"], vertices=5),
        ):
            path = write_scenario(
                tmp_path, {"graph": graph, "lengths": lengths, "experiment": {"kind": "sweep"}}
            )
            assert run_scenario(path, out_dir=tmp_path / "out") == 2
            record, _ = read_stderr_record(capsys)
            assert record["error"] == "configuration"
            assert "two-cycles" in record["message"]

    def test_a_fig2_sweep_realizes_its_base_once(self, tmp_path, capsys, monkeypatch):
        # Each target set once: the 21 samples, among them both grid ends and,
        # at mu = 0, the base targets of the witness test and the design start.
        calls = count_calls(monkeypatch, realize_two_cycles)
        assert run_bundled_as(tmp_path, "fig2.json", "sweep") == 0
        capsys.readouterr()
        assert len(calls) == 21
        assert len({lengths for _, lengths in calls}) == 21


class TestOtherRuns:
    def test_rigidity_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {"experiment": {"kind": "rigidity"}})
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        assert "rank 5 of 5 (infinitesimally rigid, minimally rigid)" in report
        csv_lines = (out / "rigidity.csv").read_text().splitlines()
        assert csv_lines == [
            "rank,rows,infinitesimally_rigid,minimally_rigid",
            "5,5,true,true",
        ]

    def test_a_rigidity_run_takes_one_rank(self, tmp_path, capsys, monkeypatch):
        # One rigidity matrix, one rank, and both verdicts read off it.
        calls = count_calls(monkeypatch, rank_tol)
        assert run_bundled_as(tmp_path, "fig2.json", "rigidity") == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_rigidity_at_a_flat_triangle_is_not_infinitesimally_rigid(self, tmp_path, capsys):
        # Plain lengths 1, 1, 2 put agents 1, 2 and 3 on one line.
        out = tmp_path / "out"
        lengths = {"values": [1.0, 1.0, 2.0, 1.5, 1.5], "convention": "plain"}
        path = write_scenario(tmp_path, {"lengths": lengths, "experiment": {"kind": "rigidity"}})
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        assert "rank 4 of 5 (not infinitesimally rigid)" in (out / "report.txt").read_text()
        assert (out / "rigidity.csv").read_text().splitlines()[1] == "4,5,false,false"

    def test_rigidity_one_ulp_short_of_the_flat_triangle_is_rigid(self, tmp_path, capsys):
        # The flat triangle above keeps a smallest singular value 3e-17 of
        # the largest and this one 7e-9, the nearest to flat that doubles
        # near 2 can state; the default rank tolerance, 1e-9, parts them.
        out = tmp_path / "out"
        values = [1.0, 1.0, math.nextafter(2.0, 0.0), 1.5, 1.5]
        lengths = {"values": values, "convention": "plain"}
        path = write_scenario(tmp_path, {"lengths": lengths, "experiment": {"kind": "rigidity"}})
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        assert (out / "rigidity.csv").read_text().splitlines()[1] == "5,5,true,true"

    def test_simulate_stride_that_does_not_divide_keeps_the_last_row(self, tmp_path, capsys):
        # 11 states at stride 3: rows 0, 3, 6 and 9, then the final state.
        out = tmp_path / "out"
        path = write_scenario(
            tmp_path, {"experiment": {"kind": "simulate", "t_end": 0.01, "stride": 3}}
        )
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        rows = [line.split(",") for line in (out / "simulate.csv").read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.01])
        final = "final edge errors: " + ", ".join(f"{float(e):.6g}" for e in rows[-1][9:])
        assert final in (out / "report.txt").read_text()

    def test_sotomayor_verdict_on_singular_targets(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(
            tmp_path,
            {
                "lengths": {"values": [1.0, 5.0, 4.0, 8.0, 4.0], "convention": "squared"},
                "experiment": {"kind": "sotomayor"},
            },
        )
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        assert "zero eigenvalue unique: yes" in report
        assert "other eigenvalues negative: yes" in report
        assert "verdict: yes" in report
        assert (out / "sotomayor.csv").exists()

    def test_sotomayor_requires_singular_targets(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"experiment": {"kind": "sotomayor"}})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, _ = read_stderr_record(capsys)
        assert status == 2
        assert record["error"] == "formula-domain"
        assert "singular set" in record["message"]

    def test_sotomayor_refuses_other_graphs(self, tmp_path, capsys):
        # Singular witnesses are two-cycles frameworks; another five-edge
        # graph, or the two-cycles edges on five vertices, has none.
        lengths = {"values": [1.0, 5.0, 4.0, 8.0, 4.0], "convention": "squared"}
        for graph in (
            {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4], [4, 1], [1, 3]]},
            dict(BASE["graph"], vertices=5),
        ):
            path = write_scenario(
                tmp_path, {"graph": graph, "lengths": lengths, "experiment": {"kind": "sotomayor"}}
            )
            assert run_scenario(path, out_dir=tmp_path / "out") == 2
            record, _ = read_stderr_record(capsys)
            assert record["error"] == "configuration"
            assert "two-cycles" in record["message"]

    def test_spectrum_lists_design_and_aligned(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {"experiment": {"kind": "spectrum"}})
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        assert "equilibria: 8" in report
        csv_lines = (out / "spectrum.csv").read_text().splitlines()
        assert csv_lines[0] == "kind,stable,index,eigenvalues,positions"
        assert len(csv_lines) == 9

    def test_simulate_settles_near_a_design_shape(self, tmp_path, capsys):
        out = tmp_path / "out"
        from formation_forge.rigidity import realize_two_cycles
        from formation_forge.rigidity import TargetLengths

        lengths = TargetLengths.from_values((2.0, 2.6, 2.0, 3.3, 1.4), convention="plain")
        stable = realize_two_cycles(load_scenario(SCENARIO_DIR / "fig2.json").graph, lengths)[1]
        initial = (stable.x + 0.02).tolist()
        path = write_scenario(
            tmp_path,
            {"experiment": {"kind": "simulate", "t_end": 20.0, "initial": initial}},
        )
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        assert "settled: yes" in report
        assert "final kind: design" in report
        header = (out / "simulate.csv").read_text().splitlines()[0]
        assert header == "t,x1,y1,x2,y2,x3,y3,x4,y4,e1,e2,e3,e4,e5"


class TestErrorPaths:
    def test_out_of_range_edge(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {
                "graph": {
                    "vertices": 4,
                    "edges": [[1, 2], [2, 3], [3, 1], [4, 3], [1, 4], [2, 9]],
                },
                "lengths": {"values": [1.0] * 6, "convention": "plain"},
            },
        )
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record["error"] == "configuration"
        assert record["message"] == "edge 6 references vertex 9 of 4"

    @pytest.mark.parametrize(
        "overrides, position, message",
        [
            (
                {"graph": {"vertices": 4, "edges": [[1, "x"]]}},
                "graph",
                "edge 1 vertex must be an integer, got 'x'",
            ),
            (
                {"experiment": {"kind": "census", "n_random": "many"}},
                "experiment",
                "key 'n_random' must be an integer, got 'many'",
            ),
        ],
    )
    def test_mistyped_field_is_a_scenario_error(
        self, tmp_path, capsys, overrides, position, message
    ):
        path = write_scenario(tmp_path, overrides)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert info.value.position == position
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": "scenario", "message": f"{position}: {message}"}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"lengths": {"values": [2.0, "long", 2.0, 3.3, 1.4], "convention": "plain"}},
            {"law": {"name": "gradient_squared", "gain": "high"}},
            {"seed": 1.5},
            {"experiment": {"kind": "sweep", "samples": True}},
            {"experiment": {"kind": "sweep", "mu_edge": 9}},
            {"experiment": {"kind": "simulate", "initial": [[0, 0], [1, "a"]]}},
            {
                "graph": {"vertices": 4, "edges": []},
                "lengths": {"values": [], "convention": "plain"},
            },
            {
                "graph": {"vertices": 4, "edges": []},
                "lengths": {"values": [], "convention": "plain"},
                "experiment": {"kind": "simulate"},
            },
            {"experiment": {"kind": "census", "dedupe_tol": -1e-6}},
            {"experiment": {"kind": "census", "n_random": -1}},
            {"experiment": {"kind": "simulate", "t_end": -1.0}},
            {"experiment": {"kind": "simulate", "t_end": 0.0}},
            {"experiment": {"kind": "simulate", "stride": -4}},
            {"experiment": {"kind": "simulate", "stride": 0}},
            {"experiment": {"kind": "census", "dedupe_tol": float("inf")}},
        ],
    )
    def test_other_malformed_fields_exit_2(self, tmp_path, capsys, overrides):
        path = write_scenario(tmp_path, overrides)
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record["error"] == "scenario"

    @pytest.mark.parametrize(
        "key, value",
        [
            ("t_end", float("inf")),
            ("t_end", 1e300),
            ("step", float("nan")),
            ("step", float("inf")),
            ("step", 0.0),
            ("step", -1e-3),
        ],
    )
    def test_unusable_simulate_time_grid_exits_2(self, tmp_path, capsys, key, value):
        # JSON as Python reads it admits Infinity and NaN. A finite t_end
        # whose step count overflows an array index is refused by the
        # integrator, still as a validation error.
        path = write_scenario(tmp_path, {"experiment": {"kind": "simulate", key: value}})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        if key == "t_end" and value == 1e300:
            assert record["error"] == "configuration"
            assert "cannot index an array" in record["message"]
        else:
            assert record == {
                "error": "scenario",
                "message": f"experiment: key {key!r} must be finite and positive, got {value!r}",
            }

    @pytest.mark.parametrize(
        "value, kind, error",
        [
            (1e150, "census", "dimension"),
            (1e154, "census", "configuration"),
            (1e150, "sotomayor", "formula-domain"),
        ],
    )
    def test_huge_targets_give_one_error_line_and_no_numpy_warning(
        self, tmp_path, capsys, value, kind, error
    ):
        # The fields overflow to inf and NaN, or at 1e154 the realizer's sums
        # of squares do. NumPy's warnings stay inside the run, even when
        # warnings are errors, and the package's own finite checks report,
        # as one stderr line.
        experiment = {"kind": kind, "n_random": 5} if kind == "census" else {"kind": kind}
        path = write_scenario(
            tmp_path,
            {"lengths": {"values": [value] * 5, "convention": "plain"}, "experiment": experiment},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record["error"] == error

    @pytest.mark.parametrize("value, convention", [(1e154, "plain"), (1e308, "squared")])
    def test_targets_whose_squares_overflow_are_refused_as_an_overflow(
        self, tmp_path, capsys, value, convention
    ):
        # Equilateral targets of 1e308 squared are feasible, but the
        # realizer's sums of squares pass the float range.
        path = write_scenario(tmp_path, {
            "lengths": {"values": [value] * 5, "convention": convention},
            "experiment": {"kind": "rigidity"},
        })
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record["error"] == "configuration"
        assert record["message"].startswith("edges 1, 2, 3 overflow the float range")

    def test_plain_lengths_whose_squares_overflow_name_the_overflow(self, tmp_path, capsys):
        # Each value is positive and finite; the refusal used to say otherwise.
        path = write_scenario(tmp_path, {
            "lengths": {"values": [1e155] * 5, "convention": "plain"},
            "experiment": {"kind": "rigidity"},
        })
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "configuration",
            "message": "edge 1's plain length 1e+155 overflows the float range when squared",
        }

    def test_plain_lengths_whose_squares_underflow_name_the_underflow(self, tmp_path, capsys):
        # Each value is positive and finite; the refusal used to say otherwise.
        path = write_scenario(tmp_path, {
            "lengths": {"values": [1e-200] * 5, "convention": "plain"},
            "experiment": {"kind": "rigidity"},
        })
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "configuration",
            "message": "edge 1's plain length 1e-200 underflows to zero when squared",
        }

    @pytest.mark.parametrize(
        "eps, error, message",
        [
            # mu = -1e300 takes the third target, 4, below zero
            (1e300, "infeasible-lengths", "the sweep's end mu = -1e+300 takes edge 3's squared "
                                          "target 4 to -1e+300, outside the positive range"),
            # the grid's width, 2e308, overflows, and np.linspace gave NaN ends
            (1e308, "configuration", "a sweep of half-width 1e+308 passes the float range"),
        ],
    )
    def test_a_sweep_grid_past_its_range_names_the_sweep(
        self, tmp_path, capsys, eps, error, message
    ):
        raw = json.loads((SCENARIO_DIR / "sweep_s0.json").read_text())
        raw["experiment"]["eps"] = eps
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(raw))
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": error, "message": message}

    def test_a_simulate_run_too_long_to_store_exits_2(self, tmp_path, capsys):
        # Every scenario bound holds, but 1e18 rows of states cannot be allocated.
        path = write_scenario(
            tmp_path, {"experiment": {"kind": "simulate", "t_end": 1e9, "step": 1e-9}}
        )
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "configuration",
            "message": "1e+18 integration steps cannot index an array; use a larger step",
        }

    @pytest.mark.parametrize(
        "key, value, wording",
        [
            ("eps", float("inf"), "must be finite and positive"),
            ("eps", float("nan"), "must be finite and positive"),
            ("eps", -0.2, "must be finite and positive"),
            ("eps", 0.0, "must be finite and positive"),
            ("samples", 0, "must be at least 1"),
        ],
    )
    def test_unusable_sweep_grid_exits_2(self, tmp_path, capsys, key, value, wording):
        # Unchecked, an infinite eps puts NumPy warnings on stderr and a NaN
        # one surfaces as infeasible target lengths, so both are refused
        # at load time with the zero and negative ones.
        path = write_scenario(tmp_path, {"experiment": {"kind": "sweep", key: value}})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "scenario",
            "message": f"experiment: key {key!r} {wording}, got {value!r}",
        }

    def test_a_sweep_grid_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # 1e30 samples pass the scenario bound; NumPy refuses the grid before allocating.
        path = write_scenario(tmp_path, {"experiment": {"kind": "sweep", "samples": 10**30}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "configuration",
            "message": f"{10**30} sweep samples cannot be allocated",
        }

    def test_scenario_root_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "case.json"
        path.write_text("[1, 2]")
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "scenario", "message": "case.json: scenario root must be an object"
        }

    def test_out_is_an_unknown_scenario_key(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"out": 3})
        status = run_scenario(path)
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": "scenario", "message": "case.json: unknown scenario keys: out"}

    def test_a_file_that_names_an_output_directory_exits_2_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        # Results go to --out, else to the working directory; the file names no place.
        raw = json.loads((SCENARIO_DIR / "fig2.json").read_text())
        path = tmp_path / "case.json"
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        path.write_text(json.dumps(dict(raw, out="x")))
        assert run_scenario(path) == 2
        record, out_text = read_stderr_record(capsys)
        assert out_text == ""
        assert record == {"error": "scenario", "message": "case.json: unknown scenario keys: out"}
        assert list(work.iterdir()) == []
        path.write_text(json.dumps(raw))
        assert run_scenario(path) == 0
        capsys.readouterr()
        assert sorted(p.name for p in work.iterdir()) == ["census.csv", "report.txt"]

    def test_negative_seed_in_the_file_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"seed": -1})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "scenario",
            "message": "case.json: key 'seed' must not be negative, got -1",
        }

    def test_name_must_be_a_string(self, tmp_path, capsys):
        # Passed through str(), [1] used to run as scenario "[1]" with exit 0.
        path = write_scenario(tmp_path, {"name": [1]})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "scenario", "message": "case.json: key 'name' must be of type str"
        }

    def test_initial_booleans_are_not_coordinates(self, tmp_path, capsys):
        # numpy reads true as 1.0, so this used to run from all-ones positions.
        initial = [[True, True], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        path = write_scenario(tmp_path, {"experiment": {"kind": "simulate", "initial": initial}})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "scenario",
            "message": "experiment: key 'initial' must hold 8 numbers, two per agent",
        }

    @pytest.mark.parametrize(
        "law, message",
        [
            ({"name": "gradient_squared", "gain": float("nan")},
             "key 'gain' must be finite and positive, got nan"),
            ({"name": "gradient_squared", "gain": float("inf")},
             "key 'gain' must be finite and positive, got inf"),
            ({"name": "gradient_squared", "gain": 0},
             "key 'gain' must be finite and positive, got 0"),
            # the corrected literal law is gradient_plain, so there is no toggle
            ({"name": "eq1_plain", "sign_corrected": True},
             "unknown law keys: sign_corrected"),
        ],
    )
    def test_unusable_law_section_exits_2(self, tmp_path, capsys, law, message):
        # Unchecked, a NaN gain gives a NaN report with exit 0, and an
        # infinite one puts NumPy warnings on stderr.
        path = write_scenario(tmp_path, {"law": law})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": "scenario", "message": f"law: {message}"}

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"law": {"name": "gradient_squared", "gain": HUGE}},
             "law: key 'gain' must be a number within float range"),
            ({"lengths": {"values": [HUGE, 2.6, 2.0, 3.3, 1.4], "convention": "plain"}},
             "lengths: length value 1 must be a number within float range"),
            ({"experiment": {"kind": "simulate", "initial": [HUGE] + [0.0] * 7}},
             "experiment: key 'initial' must hold 8 finite numbers"),
            ({"experiment": {"kind": "sweep", "eps": HUGE}},
             "experiment: key 'eps' must be a number within float range"),
            ({"experiment": {"kind": "simulate", "t_end": HUGE}},
             "experiment: key 't_end' must be a number within float range"),
        ],
    )
    def test_integer_past_float_range_exits_2(self, tmp_path, capsys, overrides, message):
        # float() of such an integer raises OverflowError, which used to
        # surface as an internal error with exit 3.
        path = write_scenario(tmp_path, overrides)
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": "scenario", "message": message}

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        # Python 3.11 on (and 3.10 from 3.10.7) refuses to read an integer
        # literal of more than 4300 digits with a ValueError; older Pythons
        # read it and the float range check refuses it.
        path = write_scenario(tmp_path, {"law": {"name": "gradient_squared", "gain": 1}})
        path.write_text(path.read_text().replace('"gain": 1', '"gain": 1' + "0" * 5000))
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record["error"] == "scenario"

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('"seed": 7', '"seed": 3, "seed": -1, "seed": 5', "seed"),
            ('"n_random": 60', '"n_random": 60, "n_random": 2', "n_random"),
        ],
    )
    def test_a_repeated_key_exits_2(self, tmp_path, capsys, old, new, key):
        # json.loads keeps a repeated key's last value, so fig2 with seed 3,
        # -1 and 5 ran with seed 5 and exited 0.
        path = tmp_path / "repeated.json"
        text = (SCENARIO_DIR / "fig2.json").read_text(encoding="utf-8")
        path.write_text(text.replace(old, new), encoding="utf-8")
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": "scenario", "message": f"repeated.json: repeated key {key!r}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"experiment": {"kind": "simulate", "initial": [0.0] * 7 + [float("nan")]}},
                "experiment: key 'initial' must hold 8 finite numbers",
            ),
            (
                {"experiment": {"kind": "simulate", "initial": [float("inf")] + [0.0] * 7}},
                "experiment: key 'initial' must hold 8 finite numbers",
            ),
            (
                {"graph": {**BASE["graph"], "directed": True}},
                "graph: unknown graph keys: directed",
            ),
            (
                {"lengths": {**BASE["lengths"], "unit": "m"}},
                "lengths: unknown lengths keys: unit",
            ),
            (
                {"law": {"name": "gradient_squared", "gian": 3}},
                "law: unknown law keys: gian",
            ),
            (
                {"experiment": {"kind": "census", "n_randon": 10}},
                "experiment: unknown experiment keys: n_randon",
            ),
            ({"format": True}, "case.json: key 'format' must be of type int"),
            (
                {"graph": {**BASE["graph"], "vertices": True}},
                "graph: key 'vertices' must be of type int",
            ),
            # the census's dedupe bound is the module constant DEDUPE_TOL, not a run setting
            (
                {"experiment": {"kind": "census", "dedupe_tol": 1e-6}},
                "experiment: unknown experiment keys: dedupe_tol",
            ),
        ],
    )
    def test_section_refuses_what_it_does_not_read(
        self, tmp_path, capsys, overrides, message
    ):
        path = write_scenario(tmp_path, overrides)
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": "scenario", "message": message}

    def test_unknown_law(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"law": {"name": "bang_bang"}})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, _ = read_stderr_record(capsys)
        assert status == 2
        assert record["error"] == "unknown-law"

    def test_malformed_scenario_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, _ = read_stderr_record(capsys)
        assert status == 2
        assert record["error"] == "scenario"
        assert "line 1 column" in record["message"]

    def test_infeasible_lengths(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {
                "lengths": {"values": [1.0, 9.0, 2.0, 3.3, 1.4], "convention": "plain"},
                "experiment": {"kind": "rigidity"},
            },
        )
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, _ = read_stderr_record(capsys)
        assert status == 2
        assert record["error"] == "infeasible-lengths"

    def test_census_reports_infeasible_targets_instead_of_failing(self, tmp_path, capsys):
        # The census is the experiment that answers the feasibility
        # question, so unrealizable targets are a result, not an error.
        path = write_scenario(
            tmp_path,
            {
                "lengths": {"values": [1.0, 9.0, 2.0, 3.3, 1.4], "convention": "plain"},
                "experiment": {"kind": "census", "n_random": 10},
            },
        )
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        assert "feasible: no" in (out / "report.txt").read_text()

    # The first triangle is flat within the clamp's rounding, but its edge 3
    # is short, so the clamped apex leaves edge 2 outside the length check.
    FLAT_WITHIN_ROUNDING = [6.031488263166337, 6.658104267921951, 0.015480688925320526,
                            3.544476758474448, 4.028448395448576]

    @pytest.mark.parametrize("kind", ["rigidity", "spectrum", "sotomayor"])
    def test_targets_flat_within_rounding_are_infeasible(self, tmp_path, capsys, kind):
        # These exited 3 as an internal error when the realizer's length check failed.
        path = write_scenario(tmp_path, {
            "lengths": {"values": self.FLAT_WITHIN_ROUNDING, "convention": "squared"},
            "experiment": {"kind": kind},
        })
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, _ = read_stderr_record(capsys)
        assert status == 2
        assert record == {
            "error": "infeasible-lengths",
            "message": "edges 1, 2, 3 are too near flat to realize: edge 2 misses its "
                       "squared target by 1.619e-11, above 6.658e-12",
        }

    def test_an_unforeseen_failure_exits_3_as_internal(self, tmp_path, capsys, monkeypatch):
        # No package module raises the base error, so only this catch-all reports "internal".
        def failing(sc, bundle):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setitem(_RUNNERS, "rigidity", failing)
        path = write_scenario(tmp_path, {"experiment": {"kind": "rigidity"}})
        assert run_scenario(path, out_dir=tmp_path / "out") == 3
        record, _ = read_stderr_record(capsys)
        assert record == {"error": "internal", "message": "ZeroDivisionError: float division by zero"}

    def test_census_reports_targets_flat_within_rounding_as_infeasible(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {
            "lengths": {"values": self.FLAT_WITHIN_ROUNDING, "convention": "squared"},
            "experiment": {"kind": "census", "n_random": 10},
        })
        out = tmp_path / "out"
        assert run_scenario(path, out_dir=out) == 0
        capsys.readouterr()
        assert "feasible: no" in (out / "report.txt").read_text()

    def test_unusable_output_directory_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {})
        blocker = tmp_path / "taken"
        blocker.write_text("")
        for out in (blocker, blocker / "sub"):
            assert main(["run", str(path), "--out", str(out)]) == 2
            record, stdout = read_stderr_record(capsys)
            assert record["error"] == "scenario"
            assert "cannot create output directory" in record["message"]
            assert str(out) in record["message"]
            assert stdout == ""

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"out": "x\u0000y"}, "case.json: unknown scenario keys: out"),
            ({"name": "a\ud800b"},
             "case.json: key 'name' must not hold a NUL or a lone surrogate, got 'a\\ud800b'"),
            # m edges name at most 2m agents; the kernel source grew with the count
            ({"graph": dict(BASE["graph"], vertices=10**12)},
             "graph: key 'vertices' must be at most 10, two per edge, got 1000000000000"),
            (b'\xff\xfe{"format": 1}',
             "case.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["out-nul", "name-surrogate", "vertices", "not-utf8"],
    )
    def test_a_file_no_run_can_use_exits_2_before_writing(self, tmp_path, overrides, message):
        # In a fresh interpreter with a time limit: the vertex count used to hang the census.
        if isinstance(overrides, bytes):
            path = tmp_path / "case.json"
            path.write_bytes(overrides)
        else:
            path = write_scenario(tmp_path, overrides)
        work = tmp_path / "work"
        work.mkdir()
        proc = run_cli(["run", str(path)], work, {})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [
            {"error": "scenario", "message": message}
        ]
        assert list(work.iterdir()) == []

    def test_an_output_directory_no_path_can_hold_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"experiment": {"kind": "rigidity"}})
        assert run_scenario(path, out_dir=tmp_path / "x\0y") == 2
        record, out_text = read_stderr_record(capsys)
        assert out_text == ""
        assert record["error"] == "scenario"
        assert "cannot create output directory" in record["message"]

    def test_numerical_blow_up_exits_three(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            {
                "law": {"name": "gradient_squared", "gain": 500.0},
                "experiment": {"kind": "simulate", "t_end": 2.0},
                "seed": 3,
            },
        )
        with np.errstate(over="ignore", invalid="ignore"):
            status = run_scenario(path, out_dir=tmp_path / "out")
        record, _ = read_stderr_record(capsys)
        assert status == 3
        assert record["error"] == "blow-up"
        assert "finite range" in record["message"]


# sha256 of every file the CLI writes when a bundled scenario runs as the
# given experiment. A change to any byte of a CSV or report fails these.
CLI_OUTPUT_SHA256 = {
    ("fig2.json", "census"): {
        "census.csv": "86808b7b34082ca61e72897be3d6e4dd3fd03b42d8b82d698c321aa589314cbf",
        "report.txt": "22660183cbe3d92f6e436af93c25aa88ec4d71eead151a57652523d3d467c1a0",
    },
    ("fig2.json", "rigidity"): {
        "report.txt": "e0c01ac9b12745e53e87c2b917a2a56f0f6537fb86e58564f6c2bb4d3242a030",
        "rigidity.csv": "a426aaa6109fb6068407b00a645b70a433eab4c77732a1acce557c76ba237c0f",
    },
    ("fig2.json", "simulate"): {
        "report.txt": "ed2d5d70cac46cdb09476a70d94ad548fcc0163a6aadf282c68fc842f67645bc",
        "simulate.csv": "79faeabef5dcf69837ebb09c8bd544490b620b5129229bcae76ccea6d5812d66",
    },
    ("fig2.json", "spectrum"): {
        "report.txt": "df2cbf6fc19abddcb6d9e0899d0d0c3fe24c6fd46f5232f36975cb16b833ff8f",
        "spectrum.csv": "f7cab7148454a09f81ee6ff22b0db0a7040c72ea8731a0958995d53ffd7403ab",
    },
    ("fig2.json", "sweep"): {
        "report.txt": "37b2efc2058409b4895e826e877090b2885bc8e7ed9f54b1ef95e88b06e62f6c",
        "sweep.csv": "62241bd074be500ece11c206a50dc9781e535e7180c9b64b52ed87474446ad83",
    },
    ("sweep_s0.json", "sweep"): {
        "report.txt": "0fe3432e93129a8ffcef83c9c5a0fc9e3ce61f8a4890d20cea0d9cadd1013bb2",
        "sweep.csv": "c46f8db7a880c25a76b7733ad2cd5bc98dd041f6a8c008fddc57b0ea4f23e0cc",
    },
    ("sweep_s0.json", "sotomayor"): {
        "report.txt": "19beb1eee90acdb73a2ffa33c29b0d77a3d8244e492c06c06d7a5e575a1d4dea",
        "sotomayor.csv": "e881598f3819f6b82bd07968b835c58f5d6774d3ef94f570e3f22ee8928e6e74",
    },
}


@pytest.mark.parametrize("scenario, kind", sorted(CLI_OUTPUT_SHA256))
def test_bundled_scenario_outputs_are_pinned(tmp_path, capsys, scenario, kind):
    assert run_bundled_as(tmp_path, scenario, kind) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == CLI_OUTPUT_SHA256[(scenario, kind)]


@pytest.mark.parametrize("law", formation_forge.BUILTIN_LAW_NAMES)
@pytest.mark.parametrize("kind", ["census", "spectrum"])
def test_squared_values_give_the_plain_values_csv(tmp_path, capsys, law, kind):
    # fig2's plain values and the same targets written squared (json writes
    # repr(v * v)) give the same stored targets, so the same CSV bytes under
    # every law: the values' convention only says how to read the file.
    raw = json.loads((SCENARIO_DIR / "fig2.json").read_text())
    raw["law"]["name"] = law
    raw["experiment"]["kind"] = kind
    plain = raw["lengths"]["values"]
    csvs = []
    for convention, values in (("plain", plain), ("squared", [v * v for v in plain])):
        raw["lengths"] = {"values": values, "convention": convention}
        path = tmp_path / f"{convention}.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / convention
        assert run_scenario(path, out_dir=out) == 0
        csvs.append((out / f"{kind}.csv").read_bytes())
    capsys.readouterr()
    assert csvs[0] == csvs[1]


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {"experiment": {"kind": "rigidity"}})
        status = main(["run", str(path), "--out", str(out)])
        capsys.readouterr()
        assert status == 0
        assert (out / "report.txt").exists()

    def test_run_with_seed(self, tmp_path, capsys):
        # The seed is the scenario file's key.
        out = tmp_path / "out"
        path = write_scenario(
            tmp_path, {"experiment": {"kind": "census", "n_random": 5}, "seed": 11}
        )
        status = main(["run", str(path), "--out", str(out)])
        capsys.readouterr()
        assert status == 0
        assert "seed: 11" in (out / "report.txt").read_text()

    def test_dedupe_tol_reaches_the_census(self, tmp_path, capsys, monkeypatch):
        # fig2 lists 10 equilibria at DEDUPE_TOL; a bound wider than the
        # formation folds them into one.
        monkeypatch.setattr(equilibria, "DEDUPE_TOL", 1e6)
        assert run_scenario(SCENARIO_DIR / "fig2.json", out_dir=tmp_path / "out") == 0
        capsys.readouterr()
        assert "equilibria: 1\n" in (tmp_path / "out" / "report.txt").read_text()

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "command"),
            (["run"], "scenario"),
            (["bogus"], "bogus"),
            (["run", "fig2.json", "--seed", "abc"], "unrecognized arguments: --seed abc"),
            (["run", "fig2.json", "--seed", "11"], "unrecognized arguments: --seed 11"),
            (["run", "fig2.json", "--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        ],
    )
    def test_command_line_errors_print_one_record(
        self, tmp_path, capsys, monkeypatch, argv, message
    ):
        # argparse's wording differs across Python versions, so the message
        # is matched by a part that each of them prints.
        monkeypatch.chdir(tmp_path)
        status = main([str(SCENARIO_DIR / a) if a == "fig2.json" else a for a in argv])
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record["error"] == "scenario"
        assert record["message"].startswith("formation-forge")
        assert message in record["message"]
        assert not list(tmp_path.iterdir())

    def test_help_prints_and_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "-h"])
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert captured.err == ""
        assert "--out" in captured.out


class TestEmitReport:
    def test_empty_sweep_is_reported_indeterminate(self):
        # The sweep's report lines with no points; load time refuses
        # samples < 1, so no scenario reaches this through the CLI.
        text = "\n".join(_sweep_lines([]))
        assert "transcritical exchange: indeterminate (no sweep points)" in text


def run_fresh(command, tmp_path):
    """Run a blow-up scenario in a fresh interpreter; returns the process.

    A fresh interpreter lets NumPy's floating-point warnings and runpy's
    import warnings reach stderr the way they do for a user instead of
    being collected by pytest.
    """
    path = write_scenario(
        tmp_path,
        {
            "law": {"name": "gradient_squared", "gain": 500.0},
            "experiment": {"kind": "simulate", "t_end": 2.0},
            "seed": 3,
        },
    )
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    src = str(Path(formation_forge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *command, "run", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def run_cli(args, cwd, env_overrides):
    """Run the command line in a fresh interpreter in ``cwd``; returns the process."""
    env = dict(os.environ)
    env.pop("PYTHONIOENCODING", None)
    src = str(Path(formation_forge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-m", "formation_forge", *args],
        cwd=cwd,
        capture_output=True,
        encoding="utf-8",
        errors="backslashreplace",
        env=env,
        timeout=60,
    )


class TestLocale:
    # The scenario's name from its "name" key, or from the stem of its file name.
    @pytest.mark.parametrize("from_key", [True, False], ids=["name-key", "file-name"])
    def test_a_utf8_name_runs_under_an_ascii_locale(self, tmp_path, capsys, from_key):
        # The scenario is read and the files are written as UTF-8 whatever the
        # locale; the echo on an ASCII stdout escapes what it cannot encode.
        raw = json.loads((SCENARIO_DIR / "fig2.json").read_text(encoding="utf-8"))
        raw["experiment"] = {"kind": "rigidity"}
        if from_key:
            raw["name"] = "formaci\u00f3n"
            path = tmp_path / "case.json"
        else:
            del raw["name"]
            # the locale's spelling of a UTF-8 file name, which an ASCII locale escapes
            path = tmp_path / os.fsdecode("formaci\u00f3n.json".encode("utf-8"))
        path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
        ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        proc = run_cli(["run", str(path), "--out", str(tmp_path / "ascii")], tmp_path, ascii_locale)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("scenario: formaci\\")
        assert run_scenario(path, out_dir=tmp_path / "here") == 0
        capsys.readouterr()
        files = sorted(f.name for f in (tmp_path / "here").iterdir())
        assert files == ["report.txt", "rigidity.csv"]
        for name in files:
            assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
        report = (tmp_path / "here" / "report.txt").read_bytes()
        assert report.startswith("scenario: formaci\u00f3n\n".encode("utf-8"))


class TestStderrContract:
    def assert_one_blow_up_record(self, proc):
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        record = json.loads(lines[0])
        assert record["error"] == "blow-up"
        assert "finite range" in record["message"]

    def test_blow_up_prints_one_json_record_and_no_warnings(self, tmp_path):
        command = [
            "-c",
            "import sys; from formation_forge.cli import main; sys.exit(main(sys.argv[1:]))",
        ]
        self.assert_one_blow_up_record(run_fresh(command, tmp_path))

    def test_module_route_prints_one_json_record(self, tmp_path):
        # ``python -m formation_forge.cli`` would first print runpy's warning
        # that the package already imported its cli module.
        self.assert_one_blow_up_record(run_fresh(["-m", "formation_forge"], tmp_path))


class TestReadme:
    def test_scenario_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        assert block is not None
        path = tmp_path / "readme.json"
        path.write_text(block.group(1))
        sc = load_scenario(path)
        bundled = load_scenario(SCENARIO_DIR / "fig2.json")
        assert dataclasses.astuple(sc) == dataclasses.astuple(bundled)

    def test_named_constants_exist(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        names = set(re.findall(r"`([A-Z][A-Z0-9_]+)`", readme.read_text(encoding="utf-8")))
        assert names
        modules = [formation_forge] + [
            importlib.import_module(f"formation_forge.{info.name}")
            for info in pkgutil.iter_modules(formation_forge.__path__)
        ]
        missing = {name for name in names if not any(hasattr(m, name) for m in modules)}
        assert not missing

    def test_parameter_table_matches_the_code(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        # | `key` | read by | type | default | bound |
        row = r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \| ([^|]+) \|"
        rows = re.findall(row, readme.read_text(encoding="utf-8"), re.M)
        table = {key: (kind.strip(), default.strip()) for key, kind, default in rows}
        assert set(table) == set(_PARAMS) | {"initial"}
        for key, (kind, default, _, _) in _PARAMS.items():
            assert table[key][0] == ("integer" if kind is int else "number")
            assert float(table[key][1]) == default

    def test_exit_codes_name_every_error_class(self):
        # "`a`, `b` and `c` exit 2;": each error code with its exit status
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        paragraph = re.search(r"^Exit codes:.*?(?=\n\n)", text, re.S | re.M).group(0)
        listed = {
            code: int(status)
            for codes, status in re.findall(r"((?:`[a-z-]+`,?\s+(?:and\s+)?)+)exit ([0-9])", paragraph)
            for code in re.findall(r"`([a-z-]+)`", codes)
        }
        classes = [
            cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.FormationForgeError)
        ]
        assert listed == {cls.code: cls.exit_status for cls in classes}
