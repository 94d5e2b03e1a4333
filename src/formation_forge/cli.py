"""Scenario-driven command line front end.

A scenario is a small JSON file naming a graph, target lengths, a control
law, and one experiment. Running it writes CSV artifacts plus a summary
report; identical scenario and seed give byte-identical CSV. Every error
path exits nonzero after printing a single-line machine-readable record
to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bifurcation import mu_sweep, sotomayor_at_witness, transcritical_detect
from .dynamics import VectorFieldBundle, builtin_law
from .equilibria import census, classify_kind, equilibrium_record, solve_ancillary_aligned
from .errors import ConfigurationError, FormationForgeError, FormulaDomainError, ScenarioError
from .graph import FormationGraph, two_cycles
from .numkernel import DEFAULT_RANK_TOL, integrate_ode, rank_tol
from .rigidity import (
    CONVENTIONS,
    Framework,
    TargetLengths,
    edge_errors,
    is_infinitesimally_rigid,
    is_minimally_rigid,
    length_errors,
    realize_two_cycles,
    rigidity_matrix,
    singular_witnesses,
)

SCENARIO_FORMAT = 1

_TOP_KEYS = {"format", "name", "graph", "lengths", "law", "experiment", "seed", "out"}


@dataclass(frozen=True, eq=False)
class Scenario:
    name: str
    graph: FormationGraph
    length_values: tuple
    length_convention: str
    law_name: str
    law_gain: float
    experiment: str
    params: dict
    seed: int
    out: str | None


# A bound is a test of a value against the graph's edge count m and the
# wording when it fails. JSON as Python reads it admits Infinity and NaN,
# which no bound lets through to the integrator, the sweep or the census.
_POSITIVE = (
    lambda v, m: math.isfinite(v) and v > 0, "must be finite and positive, got {v!r}"
)
_NON_NEGATIVE = (lambda v, m: v >= 0, "must not be negative, got {v!r}")
_FINITE_NON_NEGATIVE = (
    lambda v, m: 0 <= v < math.inf, "must not be negative or infinite, got {v!r}"
)
_AT_LEAST_ONE = (lambda v, m: v >= 1, "must be at least 1, got {v!r}")

# Every experiment parameter: its type, its default and its bound. Any
# experiment may carry any of these keys; each reads its own.
_PARAMS = {
    "n_random": (int, 200, *_NON_NEGATIVE),
    "dedupe_tol": (float, 1e-6, *_FINITE_NON_NEGATIVE),
    "eps": (float, 0.2, *_POSITIVE),
    "samples": (int, 21, *_AT_LEAST_ONE),
    "mu_edge": (int, 3, lambda v, m: 1 <= v <= m, "must name an edge from 1 to {m}"),
    "t_end": (float, 10.0, *_POSITIVE),
    "step": (float, 1e-3, *_POSITIVE),
    "stride": (int, 50, *_AT_LEAST_ONE),
}


def _param(sc, key):
    """The experiment parameter ``key``: the scenario's value, else the default."""
    kind, default, _, _ = _PARAMS[key]
    return kind(sc.params[key] if key in sc.params else default)


def _check_type(value, kind, what, where):
    """Raise a ScenarioError unless ``value`` is a JSON integer or number.

    ``kind`` is int for integers and float for any number; booleans are
    neither, although Python counts them as integers.
    """
    ok = isinstance(value, int if kind is int else (int, float))
    if isinstance(value, bool) or not ok:
        noun = "an integer" if kind is int else "a number"
        raise ScenarioError(f"{what} must be {noun}, got {value!r}", position=where)
    if kind is float and not _fits_float(value):
        raise ScenarioError(f"{what} must be a number within float range", position=where)
    return value


def _fits_float(value):
    """Whether a JSON number converts to a float; an integer can be too large."""
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _checked(value, key, kind, within, wording, where, m):
    """``value`` of key ``key``, refused unless of ``kind`` and ``within(value, m)``."""
    _check_type(value, kind, f"key {key!r}", where)
    if not within(value, m):
        raise ScenarioError(f"key {key!r} " + wording.format(v=value, m=m), position=where)
    return value


def _require(raw, key, kind, where):
    """The required key's value, of type ``kind`` (never a JSON boolean)."""
    if key not in raw:
        raise ScenarioError(f"missing required key {key!r}", position=where)
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ScenarioError(f"key {key!r} must be of type {kind.__name__}", position=where)
    return value


def _refuse_unknown(raw, known, noun, where):
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ScenarioError(f"unknown {noun} keys: {', '.join(unknown)}", position=where)


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
    except ValueError as exc:  # an integer past Python's digit limit for int()
        raise ScenarioError(str(exc), position=p.name)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object", position=p.name)
    _refuse_unknown(raw, _TOP_KEYS, "scenario", p.name)
    fmt = _require(raw, "format", int, p.name)
    if fmt != SCENARIO_FORMAT:
        raise ScenarioError(
            f"unsupported scenario format {fmt!r}; this build reads format {SCENARIO_FORMAT}",
            position=p.name,
        )

    graph_raw = _require(raw, "graph", dict, p.name)
    _refuse_unknown(graph_raw, ("vertices", "edges"), "graph", "graph")
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
    _refuse_unknown(lengths_raw, ("values", "convention"), "lengths", "lengths")
    values = tuple(
        float(_check_type(v, float, f"length value {i + 1}", "lengths"))
        for i, v in enumerate(_require(lengths_raw, "values", list, "lengths"))
    )
    convention = lengths_raw.get("convention", "squared")
    if convention not in CONVENTIONS:
        raise ScenarioError(
            f"unknown length convention {convention!r}", position="lengths"
        )
    if len(values) != graph.m:
        raise ScenarioError(
            f"{len(values)} length values for a graph with {graph.m} edges",
            position="lengths",
        )

    law_raw = _require(raw, "law", dict, p.name)
    _refuse_unknown(law_raw, ("name", "gain"), "law", "law")
    law_name = _require(law_raw, "name", str, "law")
    gain = _checked(law_raw.get("gain", 1.0), "gain", float, *_POSITIVE, "law", graph.m)

    exp_raw = _require(raw, "experiment", dict, p.name)
    experiment = _require(exp_raw, "kind", str, "experiment")
    if experiment not in _RUNNERS:
        raise ScenarioError(
            f"unknown experiment {experiment!r}; one of {', '.join(_RUNNERS)}",
            position="experiment",
        )
    _refuse_unknown(exp_raw, ["kind", "initial", *_PARAMS], "experiment", "experiment")
    params = {k: v for k, v in exp_raw.items() if k != "kind"}
    for key, value in params.items():
        if key != "initial":
            kind, _, within, wording = _PARAMS[key]
            _checked(value, key, kind, within, wording, "experiment", graph.m)
    if "initial" in params:
        # JSON numbers only: a boolean is no coordinate, though numpy reads it as one
        entries = np.asarray(params["initial"], dtype=object).ravel().tolist()
        if len(entries) != 2 * graph.n or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in entries
        ):
            raise ScenarioError(
                f"key 'initial' must hold {2 * graph.n} numbers, two per agent",
                position="experiment",
            )
        if not all(_fits_float(v) and math.isfinite(v) for v in entries):
            raise ScenarioError(
                f"key 'initial' must hold {2 * graph.n} finite numbers",
                position="experiment",
            )
    seed = _checked(raw.get("seed", 0), "seed", int, *_NON_NEGATIVE, p.name, graph.m)
    name = raw.get("name", p.stem)
    if not isinstance(name, str):
        raise ScenarioError("key 'name' must be of type str", position=p.name)
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ScenarioError("key 'out' must be of type str", position=p.name)

    return Scenario(
        name=name,
        graph=graph,
        length_values=values,
        length_convention=convention,
        law_name=law_name,
        law_gain=float(gain),
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
    law = builtin_law(sc.law_name, sc.law_gain)
    stored = TargetLengths.from_values(sc.length_values, sc.length_convention).d
    lengths = TargetLengths(d=stored, convention=law.convention)
    return VectorFieldBundle(graph=sc.graph, law=law, lengths=lengths)


# CSV cells print floats at 12 significant digits, report lines at 6.
def _num(v):
    return "%.12g" % float(v)


def _complex(c, num, unit):
    c = complex(c)
    return f"{num(c.real)}{'+' if c.imag >= 0 else '-'}{num(abs(c.imag))}{unit}"


def _eig_cell(values):
    return ";".join(_complex(c, _num, "j") for c in values)


def _positions_cell(x):
    return ";".join(f"{_num(px)} {_num(py)}" for px, py in np.asarray(x).reshape(-1, 2))


def _bool_cell(v):
    return "true" if v else "false"


def _fmt(v):
    return f"{float(v):.6g}"


def _fmt_eig(c):
    return _fmt(c.real) if abs(c.imag) < 1e-12 else _complex(c, _fmt, "i")


def _yesno(v):
    return "yes" if v else "no"


def _records_table(records):
    """Records sorted by kind, then leading eigenvalue: their CSV table and report lines."""

    def key(r):
        eigs = tuple((v.real, v.imag) for v in r.spectrum_gauge.values)
        return (r.kind, r.leading_real, eigs, tuple(r.framework.x.ravel()))

    rows = sorted(records, key=key)
    table = [
        [
            r.kind,
            _bool_cell(r.stable),
            "" if r.index is None else str(r.index),
            _eig_cell(r.spectrum_gauge.values),
            _positions_cell(r.framework.x),
        ]
        for r in rows
    ]
    lines = [
        f"equilibria: {len(rows)}",
        "kind                 stable  index  leading      eigenvalues",
    ]
    for r in rows:
        index = "n/a" if r.index is None else str(r.index)
        eigs = ", ".join(_fmt_eig(v) for v in r.spectrum_gauge.values)
        lines.append(
            f"{r.kind:<20} {_yesno(r.stable):<7} {index:<6} "
            f"{_fmt(r.leading_real):<12} {eigs}"
        )
    return ["kind", "stable", "index", "eigenvalues", "positions"], table, lines


# Each runner computes its experiment and returns the CSV header, the CSV
# rows and the report lines; run_scenario writes them. ``tol`` is the
# --tol override or None.


def _run_census(sc, bundle, tol):
    report = census(
        bundle,
        n_random=_param(sc, "n_random"),
        seed=sc.seed,
        dedupe_tol=tol if tol is not None else _param(sc, "dedupe_tol"),
    )
    header, rows, lines = _records_table(report.records)
    return header, rows, lines + [
        f"dropped seeds: {report.dropped_seeds}",
        f"feasible: {_yesno(report.feasible)}",
        f"almost surely stable: {_yesno(report.almost_surely_stable)}",
        f"index sum: {report.index_sum}",
    ]


def _run_spectrum(sc, bundle, tol):
    records = [
        equilibrium_record(bundle, fw)
        for fw in realize_two_cycles(bundle.graph, bundle.lengths)
    ]
    records.extend(solve_ancillary_aligned(bundle))
    return _records_table(records)


def _sweep_lines(points):
    """Report lines of a sweep: its points per branch and the exchange verdict."""
    detection = transcritical_detect(points)
    by_branch = {}
    for pt in points:
        by_branch.setdefault(pt.branch, []).append(pt)
    lines = [
        f"points: {len(points)} ("
        + ", ".join(f"{name} {len(pts)}" for name, pts in sorted(by_branch.items()))
        + ")"
    ]
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
            lines.append(f"crossing {name}: mu = {_fmt(detection.crossings[name])}")
    elif detection.indeterminate:
        lines.append(f"transcritical exchange: indeterminate ({detection.reason})")
    else:
        lines.append(f"transcritical exchange: not detected ({detection.reason})")
    return lines


def _run_sweep(sc, bundle, tol):
    mu_edge = _param(sc, "mu_edge") - 1
    points = mu_sweep(
        bundle, eps=_param(sc, "eps"), samples=_param(sc, "samples"), mu_edge=mu_edge
    )
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
    header += [f"e{i + 1}" for i in range(bundle.graph.m)] + ["positions"]
    return header, rows, _sweep_lines(points)


def _run_sotomayor(sc, bundle, tol):
    if bundle.graph != two_cycles():
        raise ConfigurationError("the sotomayor experiment is specific to the two-cycles graph")
    witnesses = singular_witnesses(bundle.lengths)
    if not witnesses:
        raise FormulaDomainError(
            "the sotomayor experiment needs targets in the singular set "
            "(no realization has its first and fifth edges parallel)"
        )
    kwargs = {} if tol is None else {"tol_nondegen": tol}
    report = sotomayor_at_witness(
        bundle, witnesses[0], mu_edge=_param(sc, "mu_edge") - 1, **kwargs
    )
    header = [
        "t_mu", "t_quad", "t_mixed", "verdict", "zero_eig_unique",
        "others_negative", "degenerate", "fmu_norm", "slice_spectrum",
    ]
    row = [
        _num(report.t_mu), _num(report.t_quad), _num(report.t_mixed),
        _bool_cell(report.verdict), _bool_cell(report.zero_eig_unique),
        _bool_cell(report.others_negative), _bool_cell(report.degenerate),
        _num(report.fmu_norm), _eig_cell(report.slice_spectrum.values),
    ]
    return header, [row], [
        f"zero eigenvalue unique: {_yesno(report.zero_eig_unique)}",
        f"other eigenvalues negative: {_yesno(report.others_negative)}",
        f"degenerate: {_yesno(report.degenerate)}",
        f"t_mu: {_fmt(report.t_mu)} (|dF/dmu| = {_fmt(report.fmu_norm)})",
        f"t_quad: {_fmt(report.t_quad)}",
        f"t_mixed: {_fmt(report.t_mixed)}",
        "slice spectrum: " + ", ".join(_fmt_eig(v) for v in report.slice_spectrum.values),
        f"verdict: {_yesno(report.verdict)}",
    ]


def _run_simulate(sc, bundle, tol):
    t_end = _param(sc, "t_end")
    step = _param(sc, "step")
    stride = _param(sc, "stride")
    if "initial" in sc.params:
        x0 = np.asarray(sc.params["initial"], dtype=float).reshape(bundle.graph.n, 2)
    else:
        rng = np.random.default_rng(sc.seed)
        span = 2.0 * float(np.max(np.sqrt(bundle.lengths.as_array())))
        x0 = rng.uniform(-span, span, (bundle.graph.n, 2))
    traj = integrate_ode(bundle.flow, x0.ravel(), t_end, step=step)

    indices = list(range(0, len(traj.times), stride))
    if indices[-1] != len(traj.times) - 1:
        indices.append(len(traj.times) - 1)
    pts = traj.states[indices].reshape(len(indices), bundle.graph.n, 2)
    z = pts[:, bundle.graph.targets()] - pts[:, bundle.graph.origins()]
    errors = length_errors(z, bundle.lengths)
    rows = [
        [_num(traj.times[i])] + [_num(v) for v in traj.states[i]] + [_num(e) for e in errs]
        for i, errs in zip(indices, errors)
    ]
    header = ["t"]
    for i in range(bundle.graph.n):
        header += [f"x{i + 1}", f"y{i + 1}"]
    header += [f"e{i + 1}" for i in range(bundle.graph.m)]

    final = Framework(graph=bundle.graph, x=traj.final_state.reshape(bundle.graph.n, 2))
    return header, rows, [
        f"t_end: {_fmt(t_end)}  step: {_fmt(step)}",
        f"final residual: {_fmt(traj.final_residual)}",
        # the stride keeps the last state, so the last row's errors are the final ones
        "final edge errors: " + ", ".join(_fmt(e) for e in errors[-1]),
        f"settled: {_yesno(traj.final_residual <= 1e-6)}",
        f"final kind: {classify_kind(bundle, final)}",
    ]


def _run_rigidity(sc, bundle, tol):
    fw = realize_two_cycles(bundle.graph, bundle.lengths)[0]
    r = rigidity_matrix(fw)
    rows = r.shape[0]
    rank_tolerance = tol if tol is not None else DEFAULT_RANK_TOL
    rank = rank_tol(r, rank_tolerance)
    rigid = is_infinitesimally_rigid(fw, rank_tolerance)
    minimal = is_minimally_rigid(fw, rank_tolerance)
    header = ["rank", "rows", "infinitesimally_rigid", "minimally_rigid"]
    row = [str(rank), str(rows), _bool_cell(rigid), _bool_cell(minimal)]
    if not rigid:
        quals = "not infinitesimally rigid"
    elif minimal:
        quals = "infinitesimally rigid, minimally rigid"
    else:
        quals = "infinitesimally rigid, not minimally rigid"
    return header, [row], [f"rank {rank} of {rows} ({quals})"]


_RUNNERS = {
    "census": _run_census,
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "sotomayor": _run_sotomayor,
    "simulate": _run_simulate,
    "rigidity": _run_rigidity,
}
_TOL_READERS = ("census", "rigidity", "sotomayor")  # the runners that read --tol


def run_scenario(path, out_dir=None, seed=None, tol=None):
    """Run one scenario file; returns the process exit status.

    The experiment's table is written as ``<kind>.csv`` to ``out_dir``,
    the scenario's ``out`` field, or the working directory, in that
    precedence. The report, the scenario header followed by the
    experiment's lines, is printed to stdout and saved as report.txt next
    to the CSV.
    """
    try:
        if tol is not None and not 0 < tol < math.inf:
            raise ScenarioError(f"--tol must be positive and finite, got {tol!r}")
        if seed is not None and seed < 0:
            raise ScenarioError(f"--seed must not be negative, got {seed!r}")
        sc = load_scenario(path)
        if seed is not None:
            sc = dataclasses.replace(sc, seed=int(seed))
        if tol is not None and sc.experiment not in _TOL_READERS:
            raise ScenarioError(f"--tol selects nothing on a {sc.experiment} run; "
                                f"only {', '.join(_TOL_READERS)} read it")
        bundle = _build_bundle(sc)
        out = Path(out_dir or sc.out or ".")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ScenarioError(f"cannot create output directory: {exc}")
        with np.errstate(all="ignore"):  # the package's finite checks report, not NumPy
            header, rows, lines = _RUNNERS[sc.experiment](sc, bundle, tol)
        with open(out / f"{sc.experiment}.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        text = "\n".join([
            f"scenario: {sc.name}",
            f"experiment: {sc.experiment}",
            f"graph: {sc.graph.n} agents, {sc.graph.m} edges",
            f"law: {sc.law_name} (gain {_fmt(sc.law_gain)})",
            "lengths: " + ", ".join(_fmt(v) for v in sc.length_values)
            + f" ({sc.length_convention} values)",
            f"seed: {sc.seed}",
            *lines,
        ]) + "\n"
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
    return run_scenario(args.scenario, out_dir=args.out, seed=args.seed, tol=args.tol)


if __name__ == "__main__":
    sys.exit(main())
