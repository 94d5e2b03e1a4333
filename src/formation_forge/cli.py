"""Scenario-driven command line front end.

A scenario is a small JSON file naming a graph, target lengths, a control
law, and one experiment. Running it writes CSV artifacts plus a summary
report; identical scenario and seed give byte-identical CSV. Every error
path exits nonzero after printing a single-line machine-readable record
to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bifurcation import (
    mu_sweep,
    sotomayor_at_witness,
    transcritical_detect,
)
from .dynamics import VectorFieldBundle, builtin_law, eval_F_x
from .equilibria import (
    census,
    classify_kind,
    design_frameworks,
    equilibrium_record,
    solve_ancillary_aligned,
)
from .errors import (
    FormationForgeError,
    FormulaDomainError,
    ScenarioError,
)
from .graph import FormationGraph
from .numkernel import integrate_ode, rank_tol
from .rigidity import (
    Framework,
    TargetLengths,
    edge_errors,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    rigidity_matrix,
    singular_witnesses,
)

SCENARIO_FORMAT = 1
EXPERIMENTS = ("census", "spectrum", "sweep", "sotomayor", "simulate", "rigidity")

_TOP_KEYS = {"format", "name", "graph", "lengths", "law", "experiment", "seed", "out"}


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    graph: FormationGraph
    length_values: tuple
    length_convention: str
    law_name: str
    law_gain: float
    law_sign_corrected: bool
    experiment: str
    params: dict
    seed: int
    out: str | None


@dataclass(frozen=True, eq=False)
class RunResult:
    """Everything an experiment produced, ready for report rendering."""

    kind: str
    scenario: Scenario
    bundle: VectorFieldBundle | None
    payload: dict


# Types of the experiment parameters the runners read; other keys are ignored.
_PARAM_TYPES = {
    "n_random": int,
    "samples": int,
    "mu_edge": int,
    "stride": int,
    "dedupe_tol": float,
    "eps": float,
    "t_end": float,
    "step": float,
}

# Lower bounds of the experiment parameters that have one, and their wording.
_PARAM_BOUNDS = {
    "n_random": (lambda v: v >= 0, "must not be negative"),
    "dedupe_tol": (lambda v: v >= 0, "must not be negative"),
    "t_end": (lambda v: v > 0, "must be positive"),
    "stride": (lambda v: v >= 1, "must be at least 1"),
}


def _check_type(value, kind, what, where):
    """Raise a ScenarioError unless ``value`` is a JSON integer or number.

    ``kind`` is int for integers and float for any number; booleans are
    neither, although Python counts them as integers.
    """
    ok = isinstance(value, int if kind is int else (int, float))
    if isinstance(value, bool) or not ok:
        noun = "an integer" if kind is int else "a number"
        raise ScenarioError(f"{what} must be {noun}, got {value!r}", position=where)
    return value


def _require(raw, key, kind, where):
    if key not in raw:
        raise ScenarioError(f"missing required key {key!r}", position=where)
    value = raw[key]
    if not isinstance(value, kind):
        raise ScenarioError(f"key {key!r} must be of type {kind.__name__}", position=where)
    return value


def load_scenario(path):
    """Parse and validate a scenario file into a :class:`Scenario`."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            exc.msg, position=f"{p.name}: line {exc.lineno} column {exc.colno}"
        )
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object", position=p.name)
    unknown = sorted(set(raw) - _TOP_KEYS)
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {', '.join(unknown)}", position=p.name)
    fmt = _require(raw, "format", int, p.name)
    if fmt != SCENARIO_FORMAT:
        raise ScenarioError(
            f"unsupported scenario format {fmt!r}; this build reads format {SCENARIO_FORMAT}",
            position=p.name,
        )

    graph_raw = _require(raw, "graph", dict, p.name)
    vertices = _require(graph_raw, "vertices", int, "graph")
    edges_raw = _require(graph_raw, "edges", list, "graph")
    edges = []
    for i, pair in enumerate(edges_raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ScenarioError(
                f"edge {i + 1} must be a pair of 1-indexed vertices", position="graph"
            )
        for v in pair:
            _check_type(v, int, f"edge {i + 1} vertex", "graph")
        edges.append((pair[0] - 1, pair[1] - 1))
    if not edges:
        raise ScenarioError("a formation graph needs at least one edge", position="graph")
    graph = FormationGraph(n=vertices, edges=tuple(edges))

    lengths_raw = _require(raw, "lengths", dict, p.name)
    values = tuple(
        float(_check_type(v, float, f"length value {i + 1}", "lengths"))
        for i, v in enumerate(_require(lengths_raw, "values", list, "lengths"))
    )
    convention = lengths_raw.get("convention", "squared")
    if convention not in ("squared", "plain"):
        raise ScenarioError(
            f"unknown length convention {convention!r}", position="lengths"
        )
    if len(values) != graph.m:
        raise ScenarioError(
            f"{len(values)} length values for a graph with {graph.m} edges",
            position="lengths",
        )

    law_raw = _require(raw, "law", dict, p.name)
    law_name = _require(law_raw, "name", str, "law")
    law_gain = float(_check_type(law_raw.get("gain", 1.0), float, "key 'gain'", "law"))
    sign_corrected = bool(law_raw.get("sign_corrected", False))

    exp_raw = _require(raw, "experiment", dict, p.name)
    experiment = _require(exp_raw, "kind", str, "experiment")
    if experiment not in EXPERIMENTS:
        raise ScenarioError(
            f"unknown experiment {experiment!r}; one of {', '.join(EXPERIMENTS)}",
            position="experiment",
        )
    params = {k: v for k, v in exp_raw.items() if k != "kind"}
    for key, value in params.items():
        if key in _PARAM_TYPES:
            _check_type(value, _PARAM_TYPES[key], f"key {key!r}", "experiment")
        if key in _PARAM_BOUNDS:
            within, wording = _PARAM_BOUNDS[key]
            if not within(value):
                raise ScenarioError(f"key {key!r} {wording}, got {value!r}", "experiment")
    if "mu_edge" in params and not 1 <= params["mu_edge"] <= graph.m:
        raise ScenarioError(
            f"key 'mu_edge' must name an edge from 1 to {graph.m}", position="experiment"
        )
    if "initial" in params:
        try:
            initial = np.asarray(params["initial"], dtype=float)
        except (TypeError, ValueError):
            initial = None
        if initial is None or initial.size != 2 * graph.n:
            raise ScenarioError(
                f"key 'initial' must hold {2 * graph.n} numbers, two per agent",
                position="experiment",
            )
    seed = _check_type(raw.get("seed", 0), int, "key 'seed'", p.name)
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ScenarioError("key 'out' must be of type str", position=p.name)

    return Scenario(
        name=str(raw.get("name", p.stem)),
        graph=graph,
        length_values=values,
        length_convention=convention,
        law_name=law_name,
        law_gain=law_gain,
        law_sign_corrected=sign_corrected,
        experiment=experiment,
        params=params,
        seed=seed,
        out=out,
    )


def _build_bundle(sc: Scenario):
    """Scenario fields to a vector-field bundle.

    The scenario convention says how to read the value array (plain
    lengths get squared for storage); the error convention the flow uses
    is the law's own.
    """
    law = builtin_law(sc.law_name, sc.law_gain, sign_corrected=sc.law_sign_corrected)
    stored = TargetLengths.from_values(sc.length_values, sc.length_convention).d
    lengths = TargetLengths(d=stored, convention=law.convention)
    return VectorFieldBundle(graph=sc.graph, law=law, lengths=lengths)


def _num(v):
    return "%.12g" % float(v)


def _eig_cell(values):
    parts = []
    for c in values:
        c = complex(c)
        sign = "+" if c.imag >= 0 else "-"
        parts.append(f"{_num(c.real)}{sign}{_num(abs(c.imag))}j")
    return ";".join(parts)


def _positions_cell(x):
    return ";".join(f"{_num(px)} {_num(py)}" for px, py in np.asarray(x).reshape(-1, 2))


def _bool_cell(v):
    return "true" if v else "false"


def _sorted_records(records):
    def key(r):
        eigs = tuple((v.real, v.imag) for v in r.spectrum_gauge.values)
        pos = tuple(r.framework.x.ravel()) if r.framework is not None else ()
        return (r.kind, r.leading_real, eigs, pos)

    return sorted(records, key=key)


def _write_csv(path, header, rows):
    import csv as _csv

    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_records_csv(path, records):
    rows = [
        [
            r.kind,
            _bool_cell(r.stable),
            "" if r.index is None else str(r.index),
            _eig_cell(r.spectrum_gauge.values),
            _positions_cell(r.framework.x) if r.framework is not None else "",
        ]
        for r in records
    ]
    _write_csv(path, ["kind", "stable", "index", "eigenvalues", "positions"], rows)


def _run_census(sc, bundle, out, seed, tol):
    report = census(
        bundle,
        n_random=int(sc.params.get("n_random", 200)),
        seed=seed,
        dedupe_tol=tol if tol is not None else float(sc.params.get("dedupe_tol", 1e-6)),
    )
    rows = _sorted_records(report.records)
    _write_records_csv(out / "census.csv", rows)
    return RunResult("census", sc, bundle, {"report": report, "rows": rows})


def _run_spectrum(sc, bundle, out, seed, tol):
    records = [
        equilibrium_record(bundle, fw)
        for fw in design_frameworks(bundle.graph, bundle.lengths)
    ]
    records.extend(solve_ancillary_aligned(bundle))
    rows = _sorted_records(records)
    _write_records_csv(out / "spectrum.csv", rows)
    return RunResult("spectrum", sc, bundle, {"rows": rows})


def _run_sweep(sc, bundle, out, seed, tol):
    eps = float(sc.params.get("eps", 0.2))
    samples = int(sc.params.get("samples", 21))
    mu_edge = int(sc.params.get("mu_edge", 3)) - 1
    points = mu_sweep(
        bundle.lengths, eps=eps, samples=samples, template=bundle, mu_edge=mu_edge
    )
    detection = transcritical_detect(points)
    rows = []
    for p in points:
        lengths_mu = bundle.lengths.perturbed(mu_edge, p.mu)
        errs = edge_errors(p.framework, lengths_mu)
        rows.append(
            [_num(p.mu), p.branch, _num(p.leading_real), _bool_cell(p.stable)]
            + [_num(e) for e in errs]
            + [_positions_cell(p.framework.x)]
        )
    header = ["mu", "branch", "leading_real", "stable"]
    header += [f"e{i + 1}" for i in range(bundle.graph.m)]
    header += ["positions"]
    _write_csv(out / "sweep.csv", header, rows)
    return RunResult(
        "sweep", sc, bundle,
        {"points": points, "detection": detection, "eps": eps, "samples": samples},
    )


def _run_sotomayor(sc, bundle, out, seed, tol):
    mu_edge = int(sc.params.get("mu_edge", 3)) - 1
    witnesses = singular_witnesses(bundle.lengths)
    if not witnesses:
        raise FormulaDomainError(
            "the sotomayor experiment needs targets in the singular set "
            "(no realization has its first and fifth edges parallel)"
        )
    kwargs = {}
    if tol is not None:
        kwargs["tol_nondegen"] = tol
    report = sotomayor_at_witness(bundle, witnesses[0], mu_edge=mu_edge, **kwargs)
    _write_csv(
        out / "sotomayor.csv",
        [
            "t_mu", "t_quad", "t_mixed", "verdict", "zero_eig_unique",
            "others_negative", "degenerate", "fmu_norm", "slice_spectrum",
        ],
        [[
            _num(report.t_mu), _num(report.t_quad), _num(report.t_mixed),
            _bool_cell(report.verdict), _bool_cell(report.zero_eig_unique),
            _bool_cell(report.others_negative), _bool_cell(report.degenerate),
            _num(report.fmu_norm), _eig_cell(report.slice_spectrum.values),
        ]],
    )
    return RunResult(
        "sotomayor", sc, bundle, {"report": report, "witness": witnesses[0]}
    )


def _run_simulate(sc, bundle, out, seed, tol):
    t_end = float(sc.params.get("t_end", 10.0))
    step = float(sc.params.get("step", 1e-3))
    stride = int(sc.params.get("stride", 50))
    if "initial" in sc.params:
        x0 = np.asarray(sc.params["initial"], dtype=float).reshape(bundle.graph.n, 2)
    else:
        rng = np.random.default_rng(seed)
        span = 2.0 * float(np.max(np.sqrt(bundle.lengths.as_array())))
        x0 = rng.uniform(-span, span, (bundle.graph.n, 2))
    traj = integrate_ode(lambda x: eval_F_x(bundle, x), x0.ravel(), t_end, step=step)

    indices = list(range(0, len(traj.times), stride))
    if indices[-1] != len(traj.times) - 1:
        indices.append(len(traj.times) - 1)
    rows = []
    for i in indices:
        x = traj.states[i].reshape(bundle.graph.n, 2)
        fw = Framework(graph=bundle.graph, x=x)
        errs = edge_errors(fw, bundle.lengths)
        rows.append([_num(traj.times[i])] + [_num(v) for v in traj.states[i]]
                    + [_num(e) for e in errs])
    header = ["t"]
    for i in range(bundle.graph.n):
        header += [f"x{i + 1}", f"y{i + 1}"]
    header += [f"e{i + 1}" for i in range(bundle.graph.m)]
    _write_csv(out / "simulate.csv", header, rows)

    final = Framework(graph=bundle.graph, x=traj.final_state.reshape(bundle.graph.n, 2))
    payload = {
        "t_end": t_end,
        "step": step,
        "final_residual": traj.final_residual,
        "final_errors": edge_errors(final, bundle.lengths),
        "final_kind": classify_kind(bundle, final),
        "settled": traj.final_residual <= 1e-6,
    }
    return RunResult("simulate", sc, bundle, payload)


def _rigidity_line(rank, rows, rigid, minimal):
    if not rigid:
        quals = "not infinitesimally rigid"
    elif minimal:
        quals = "infinitesimally rigid, minimally rigid"
    else:
        quals = "infinitesimally rigid, not minimally rigid"
    return f"rank {rank} of {rows} ({quals})"


def _run_rigidity(sc, bundle, out, seed, tol):
    fw = design_frameworks(bundle.graph, bundle.lengths)[0]
    r = rigidity_matrix(fw)
    rank_tolerance = tol if tol is not None else 1e-9
    rank = rank_tol(r, rank_tolerance)
    rigid = is_infinitesimally_rigid(fw, rank_tolerance)
    minimal = is_minimally_rigid(fw, rank_tolerance)
    line = _rigidity_line(rank, r.shape[0], rigid, minimal)
    _write_csv(
        out / "rigidity.csv",
        ["rank", "rows", "infinitesimally_rigid", "minimally_rigid"],
        [[str(rank), str(r.shape[0]), _bool_cell(rigid), _bool_cell(minimal)]],
    )
    return RunResult(
        "rigidity", sc, bundle,
        {"line": line, "rank": rank, "rows": r.shape[0], "framework": fw},
    )


_RUNNERS = {
    "census": _run_census,
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "sotomayor": _run_sotomayor,
    "simulate": _run_simulate,
    "rigidity": _run_rigidity,
}


def _fmt(v):
    return f"{float(v):.6g}"


def _fmt_eig(c):
    c = complex(c)
    if abs(c.imag) < 1e-12:
        return _fmt(c.real)
    sign = "+" if c.imag >= 0 else "-"
    return f"{_fmt(c.real)}{sign}{_fmt(abs(c.imag))}i"


def _yesno(v):
    return "yes" if v else "no"


def _report_header(result: RunResult):
    sc = result.scenario
    lines = [
        f"scenario: {sc.name}",
        f"experiment: {sc.experiment}",
        f"graph: {sc.graph.n} agents, {sc.graph.m} edges",
        f"law: {sc.law_name} (gain {_fmt(sc.law_gain)})",
        "lengths: " + ", ".join(_fmt(v) for v in sc.length_values)
        + f" ({sc.length_convention} values)",
        f"seed: {sc.seed}",
    ]
    return lines


def _record_table(rows):
    lines = ["kind                 stable  index  leading      eigenvalues"]
    for r in rows:
        index = "n/a" if r.index is None else str(r.index)
        eigs = ", ".join(_fmt_eig(v) for v in r.spectrum_gauge.values)
        lines.append(
            f"{r.kind:<20} {_yesno(r.stable):<7} {index:<6} "
            f"{_fmt(r.leading_real):<12} {eigs}"
        )
    return lines


def emit_report(result: RunResult):
    """Render an experiment's outcome as a deterministic text block.

    Records are sorted by kind then leading eigenvalue; floats print at
    6 significant digits.
    """
    lines = _report_header(result)
    kind = result.kind
    p = result.payload

    if kind in ("census", "spectrum"):
        rows = p["rows"]
        lines.append(f"equilibria: {len(rows)}")
        lines.extend(_record_table(rows))
        if kind == "census":
            report = p["report"]
            lines.append(f"dropped seeds: {report.dropped_seeds}")
            lines.append(f"feasible: {_yesno(report.feasible)}")
            lines.append(f"almost surely stable: {_yesno(report.almost_surely_stable)}")
            lines.append(f"index sum: {report.index_sum}")
    elif kind == "sweep":
        points = p["points"]
        detection = p["detection"]
        by_branch = {}
        for pt in points:
            by_branch.setdefault(pt.branch, []).append(pt)
        lines.append(
            f"points: {len(points)} ("
            + ", ".join(f"{name} {len(pts)}" for name, pts in sorted(by_branch.items()))
            + ")"
        )
        for name in sorted(by_branch):
            pts = sorted(by_branch[name], key=lambda q: q.mu)
            lines.append(
                f"branch {name}: leading {_fmt(pts[0].leading_real)} at mu "
                f"{_fmt(pts[0].mu)} to {_fmt(pts[-1].leading_real)} at mu "
                f"{_fmt(pts[-1].mu)}"
            )
        if detection.detected:
            lines.append(f"transcritical exchange: detected ({detection.orientation})")
            for name in sorted(detection.crossings):
                lines.append(
                    f"crossing {name}: mu = {_fmt(detection.crossings[name])}"
                )
        elif detection.indeterminate:
            lines.append(f"transcritical exchange: indeterminate ({detection.reason})")
        else:
            lines.append(f"transcritical exchange: not detected ({detection.reason})")
    elif kind == "sotomayor":
        report = p["report"]
        lines.append(f"zero eigenvalue unique: {_yesno(report.zero_eig_unique)}")
        lines.append(f"other eigenvalues negative: {_yesno(report.others_negative)}")
        lines.append(f"degenerate: {_yesno(report.degenerate)}")
        lines.append(f"t_mu: {_fmt(report.t_mu)} (|dF/dmu| = {_fmt(report.fmu_norm)})")
        lines.append(f"t_quad: {_fmt(report.t_quad)}")
        lines.append(f"t_mixed: {_fmt(report.t_mixed)}")
        lines.append(
            "slice spectrum: "
            + ", ".join(_fmt_eig(v) for v in report.slice_spectrum.values)
        )
        lines.append(f"verdict: {_yesno(report.verdict)}")
    elif kind == "simulate":
        lines.append(f"t_end: {_fmt(p['t_end'])}  step: {_fmt(p['step'])}")
        lines.append(f"final residual: {_fmt(p['final_residual'])}")
        lines.append(
            "final edge errors: " + ", ".join(_fmt(e) for e in p["final_errors"])
        )
        lines.append(f"settled: {_yesno(p['settled'])}")
        lines.append(f"final kind: {p['final_kind']}")
    elif kind == "rigidity":
        lines.append(p["line"])
    return "\n".join(lines) + "\n"


def run_scenario(path, out_dir=None, seed=None, tol=None):
    """Run one scenario file; returns the process exit status.

    Artifacts are written to ``out_dir``, the scenario's ``out`` field, or
    the working directory, in that precedence. The report is printed to
    stdout and saved as report.txt next to the CSV artifacts.
    """
    try:
        if tol is not None and not tol > 0:
            raise ScenarioError(f"--tol must be positive, got {tol!r}")
        sc = load_scenario(path)
        if seed is not None:
            sc = dataclasses.replace(sc, seed=int(seed))
        bundle = _build_bundle(sc)
        out = Path(out_dir or sc.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        result = _RUNNERS[sc.experiment](sc, bundle, out, sc.seed, tol)
        text = emit_report(result)
        (out / "report.txt").write_text(text)
    except FormationForgeError as exc:
        record = {"error": exc.code, "message": str(exc)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return exc.exit_status
    except Exception as exc:  # noqa: BLE001 - the CLI must not panic
        record = {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 3
    sys.stdout.write(text)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="formation-forge",
        description="Formation graph rigidity, equilibrium, and bifurcation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--out", default=None, help="directory for CSV artifacts")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument(
        "--tol", type=float, default=None,
        help="override the experiment's main tolerance "
        "(census dedupe, rigidity rank, sotomayor nondegeneracy)",
    )
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_scenario(args.scenario, out_dir=args.out, seed=args.seed, tol=args.tol)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
