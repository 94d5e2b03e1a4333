"""Tests for scenario loading, the experiment runners, and the reports."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import formation_forge
from formation_forge.cli import (
    _PARAMS,
    _sweep_lines,
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

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        fig2 = str(SCENARIO_DIR / "fig2.json")
        status = main(["run", fig2, "--out", str(out), "--seed", "-1"])
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {
            "error": "scenario", "message": "--seed must not be negative, got -1"
        }
        assert not out.exists()

    @pytest.mark.parametrize(
        "law, message",
        [
            ({"name": "gradient_squared", "gain": float("nan")},
             "key 'gain' must be finite and positive, got nan"),
            ({"name": "gradient_squared", "gain": float("inf")},
             "key 'gain' must be finite and positive, got inf"),
            ({"name": "gradient_squared", "gain": 0},
             "key 'gain' must be finite and positive, got 0"),
            ({"name": "eq1_plain", "sign_corrected": "false"},
             "key 'sign_corrected' must be true or false, got 'false'"),
            ({"name": "eq1_plain", "sign_corrected": 0},
             "key 'sign_corrected' must be true or false, got 0"),
        ],
    )
    def test_unusable_law_section_exits_2(self, tmp_path, capsys, law, message):
        # Unchecked, a NaN gain gives a NaN report with exit 0, an infinite
        # one puts NumPy warnings on stderr, and the string "false" reads
        # as true.
        path = write_scenario(tmp_path, {"law": law})
        status = run_scenario(path, out_dir=tmp_path / "out")
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record == {"error": "scenario", "message": f"law: {message}"}

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

    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_nonpositive_tol_exits_2(self, tmp_path, capsys, tol):
        out = tmp_path / "out"
        status = main(["run", str(SCENARIO_DIR / "fig2.json"), "--out", str(out), "--tol", tol])
        record, out_text = read_stderr_record(capsys)
        assert status == 2
        assert out_text == ""
        assert record["error"] == "scenario"
        assert "--tol must be positive" in record["message"]
        assert not out.exists()

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


# sha256 of every file the CLI writes when a bundled scenario runs as the
# given experiment. A change to any byte of a CSV or report fails these.
CLI_OUTPUT_SHA256 = {
    ("fig2.json", "census"): {
        "census.csv": "86808b7b34082ca61e72897be3d6e4dd3fd03b42d8b82d698c321aa589314cbf",
        "report.txt": "0dd681d5692588a42bfb2f0512be144f47453f83e16ae7d06be6a50f6af5aa8d",
    },
    ("fig2.json", "spectrum"): {
        "report.txt": "df2cbf6fc19abddcb6d9e0899d0d0c3fe24c6fd46f5232f36975cb16b833ff8f",
        "spectrum.csv": "f7cab7148454a09f81ee6ff22b0db0a7040c72ea8731a0958995d53ffd7403ab",
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
    raw = json.loads((SCENARIO_DIR / scenario).read_text())
    raw["experiment"]["kind"] = kind
    path = tmp_path / scenario
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run_scenario(path, out_dir=out) == 0
    capsys.readouterr()
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert digests == CLI_OUTPUT_SHA256[(scenario, kind)]


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
        block = re.search(r"```json\n(.*?)```", readme.read_text(), re.S)
        assert block is not None
        path = tmp_path / "readme.json"
        path.write_text(block.group(1))
        sc = load_scenario(path)
        bundled = load_scenario(SCENARIO_DIR / "fig2.json")
        assert dataclasses.astuple(sc) == dataclasses.astuple(bundled)

    def test_parameter_table_matches_the_code(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        # | `key` | read by | type | default | bound |
        row = r"^\| `(\w+)` \| [^|]+ \| ([^|]+) \| ([^|]+) \|"
        rows = re.findall(row, readme.read_text(), re.M)
        table = {key: (kind.strip(), default.strip()) for key, kind, default in rows}
        assert set(table) == set(_PARAMS) | {"initial"}
        for key, (kind, default, _, _) in _PARAMS.items():
            assert table[key][0] == ("integer" if kind is int else "number")
            assert float(table[key][1]) == default
