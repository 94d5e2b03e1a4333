"""Tests for scenario loading, the experiment runners, and the reports."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import formation_forge
from formation_forge.bifurcation import transcritical_detect
from formation_forge.cli import (
    RunResult,
    emit_report,
    load_scenario,
    main,
    run_scenario,
)
from formation_forge.errors import ScenarioError

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
        assert "dropped seeds: 6" in report
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

    def test_seed_override_is_reported(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {"experiment": {"kind": "census", "n_random": 5}})
        assert run_scenario(path, out_dir=out, seed=11) == 0
        capsys.readouterr()
        assert "seed: 11" in (out / "report.txt").read_text()


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
        from formation_forge.equilibria import design_frameworks
        from formation_forge.rigidity import TargetLengths

        lengths = TargetLengths.from_values((2.0, 2.6, 2.0, 3.3, 1.4), convention="plain")
        stable = design_frameworks(load_scenario(SCENARIO_DIR / "fig2.json").graph, lengths)[1]
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
        ],
    )
    def test_other_malformed_fields_exit_2(self, tmp_path, capsys, overrides):
        path = write_scenario(tmp_path, overrides)
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, _ = read_stderr_record(capsys)
        assert status == 2
        assert record["error"] == "scenario"

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


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(tmp_path, {"experiment": {"kind": "rigidity"}})
        status = main(["run", str(path), "--out", str(out)])
        capsys.readouterr()
        assert status == 0
        assert (out / "report.txt").exists()

    def test_run_with_seed_and_tol(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_scenario(
            tmp_path, {"experiment": {"kind": "census", "n_random": 5}}
        )
        status = main(["run", str(path), "--out", str(out), "--seed", "11", "--tol", "1e-5"])
        capsys.readouterr()
        assert status == 0
        assert "seed: 11" in (out / "report.txt").read_text()


class TestEmitReport:
    def test_empty_sweep_is_reported_indeterminate(self):
        sc = dataclasses.replace(
            load_scenario(SCENARIO_DIR / "sweep_s0.json"), params={"samples": 0}
        )
        result = RunResult(
            kind="sweep",
            scenario=sc,
            bundle=None,
            payload={
                "points": [],
                "detection": transcritical_detect([]),
                "eps": 0.2,
                "samples": 0,
            },
        )
        text = emit_report(result)
        assert "transcritical exchange: indeterminate (no sweep points)" in text


class TestStderrContract:
    def test_blow_up_prints_one_json_record_and_no_warnings(self, tmp_path):
        # A fresh interpreter, so NumPy's floating-point warnings reach stderr
        # the way they do for a user instead of being collected by pytest.
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
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; from formation_forge.cli import main; sys.exit(main(sys.argv[1:]))",
                "run",
                str(path),
                "--out",
                str(tmp_path / "out"),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        record = json.loads(lines[0])
        assert record["error"] == "blow-up"
        assert "finite range" in record["message"]


class TestReadme:
    def test_scenario_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = re.search(r"```json\n(.*?)```", readme.read_text(), re.S)
        assert block is not None
        path = tmp_path / "readme.json"
        path.write_text(block.group(1))
        sc = load_scenario(path)
        bundled = load_scenario(SCENARIO_DIR / "fig2.json")
        assert dataclasses.astuple(sc) == dataclasses.astuple(bundled)
