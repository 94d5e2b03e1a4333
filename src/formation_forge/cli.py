"""Scenario-driven command line front end.

A scenario is a small JSON file naming a graph, target lengths, a control
law, and one experiment. Running it writes CSV artifacts plus a summary
report; identical scenarios give byte-identical CSV. Every error
path exits nonzero after printing a single-line machine-readable record
to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bifurcation import mu_sweep, sotomayor_at_witness, transcritical_detect
from .dynamics import VectorFieldBundle, builtin_law
from .equilibria import EquilibriumBatch, census, classify_kind, solve_ancillary_aligned
from .errors import FormationForgeError, FormulaDomainError, ScenarioError
from .graph import FormationGraph
from .numkernel import integrate_ode, rank_tol
from .rigidity import (
    CONVENTIONS,
    RANK_TOL,
    Framework,
    TargetLengths,
    length_errors,
    realize_two_cycles,
    rigidity_matrix,
    rigidity_verdicts,
    singular_witnesses,
)

SCENARIO_FORMAT = 1


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


# A bound is a test of a value against the graph's edge count m and the
# error message when it fails, formatted with the key k, the value v and m.
# JSON as Python reads it admits Infinity and NaN, which no bound lets
# through to the integrator, the sweep or the census.
_POSITIVE = (
    lambda v, m: math.isfinite(v) and v > 0,
    "key {k!r} must be finite and positive, got {v!r}",
)
_NON_NEGATIVE = (lambda v, m: v >= 0, "key {k!r} must not be negative, got {v!r}")
_AT_LEAST_ONE = (lambda v, m: v >= 1, "key {k!r} must be at least 1, got {v!r}")

# A name must be text a report can hold: UTF-8 (no lone surrogate, which a
# JSON escape can spell) and no NUL.
_TEXT = (
    lambda v, m: not any(c == "\0" or "\ud800" <= c <= "\udfff" for c in v),
    "key {k!r} must not hold a NUL or a lone surrogate, got {v!r}",
)

# Every experiment parameter: its type, its default and its bound. Any
# experiment may carry any of these keys; each reads its own.
_PARAMS = {
    "n_random": (int, 200, *_NON_NEGATIVE),
    "eps": (float, 0.2, *_POSITIVE),
    "samples": (int, 21, *_AT_LEAST_ONE),
    "mu_edge": (
        int, 3, lambda v, m: 1 <= v <= m, "key {k!r} must name an edge from 1 to {m}"
    ),
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


def _build_bundle(sc: Scenario):
    """Scenario fields to a vector-field bundle.

    The scenario convention says how to read the value array (plain
    lengths get squared for storage); the error convention the flow uses
    is the law's own.
    """
    law = builtin_law(sc.law_name, sc.law_gain)
    lengths = TargetLengths.from_values(sc.length_values, sc.length_convention)
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
    rows = np.asarray(x).reshape(-1, 2).tolist()
    return ";".join(f"{_num(px)} {_num(py)}" for px, py in rows)


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
# rows and the report lines; run_scenario writes them.


def _run_census(sc, bundle):
    report = census(bundle, n_random=_param(sc, "n_random"), seed=sc.seed)
    header, rows, lines = _records_table(report.records)
    return header, rows, lines + [
        f"dropped seeds: {report.dropped_seeds}",
        f"feasible: {_yesno(report.feasible)}",
        f"almost surely stable: {_yesno(report.almost_surely_stable)}",
        f"index sum: {report.index_sum}",
    ]


def _run_spectrum(sc, bundle):
    batch = EquilibriumBatch()
    for fw in realize_two_cycles(bundle.graph, bundle.lengths):
        batch.add(bundle, fw)
    return _records_table(batch.records() + solve_ancillary_aligned(bundle))


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


def _run_sweep(sc, bundle):
    points = mu_sweep(
        bundle, eps=_param(sc, "eps"), samples=_param(sc, "samples"),
        mu_edge=_param(sc, "mu_edge") - 1,
    )
    # every point's edge errors in one pass, each against its own sample's targets
    g = bundle.graph
    x = np.array([p.framework.x for p in points])
    errors = length_errors(
        x[:, g.targets()] - x[:, g.origins()], [p.lengths.d for p in points],
        bundle.law.convention,
    ).tolist() if points else []
    rows = [
        [_num(p.mu), p.branch, _num(p.leading_real), _bool_cell(p.stable)]
        + [_num(e) for e in errs]
        + [_positions_cell(p.framework.x)]
        for p, errs in zip(points, errors)
    ]
    header = ["mu", "branch", "leading_real", "stable"]
    header += [f"e{i + 1}" for i in range(bundle.graph.m)] + ["positions"]
    return header, rows, _sweep_lines(points)


def _run_sotomayor(sc, bundle):
    witnesses = singular_witnesses(realize_two_cycles(bundle.graph, bundle.lengths))
    if not witnesses:
        raise FormulaDomainError(
            "the sotomayor experiment needs targets in the singular set "
            "(no realization has its first and fifth edges parallel)"
        )
    report = sotomayor_at_witness(bundle, witnesses[0], mu_edge=_param(sc, "mu_edge") - 1)
    cells = {
        "t_mu": _num(report.t_mu),
        "t_quad": _num(report.t_quad),
        "t_mixed": _num(report.t_mixed),
        "verdict": _bool_cell(report.verdict),
        "zero_eig_unique": _bool_cell(report.zero_eig_unique),
        "others_negative": _bool_cell(report.others_negative),
        "degenerate": _bool_cell(report.degenerate),
        "fmu_norm": _num(report.fmu_norm),
        "slice_spectrum": _eig_cell(report.slice_spectrum.values),
    }
    return list(cells), [list(cells.values())], [
        f"zero eigenvalue unique: {_yesno(report.zero_eig_unique)}",
        f"other eigenvalues negative: {_yesno(report.others_negative)}",
        f"degenerate: {_yesno(report.degenerate)}",
        f"t_mu: {_fmt(report.t_mu)} (|dF/dmu| = {_fmt(report.fmu_norm)})",
        f"t_quad: {_fmt(report.t_quad)}",
        f"t_mixed: {_fmt(report.t_mixed)}",
        "slice spectrum: " + ", ".join(_fmt_eig(v) for v in report.slice_spectrum.values),
        f"verdict: {_yesno(report.verdict)}",
    ]


def _run_simulate(sc, bundle):
    t_end = _param(sc, "t_end")
    step = _param(sc, "step")
    stride = _param(sc, "stride")
    if "initial" in sc.params:
        x0 = np.asarray(sc.params["initial"], dtype=float).reshape(bundle.graph.n, 2)
    else:
        x0 = bundle.random_start(np.random.default_rng(sc.seed))
    traj = integrate_ode(bundle.flow, x0.ravel(), t_end, step=step)

    indices = list(range(0, len(traj.times), stride))
    if indices[-1] != len(traj.times) - 1:
        indices.append(len(traj.times) - 1)
    pts = traj.states[indices].reshape(len(indices), bundle.graph.n, 2)
    z = pts[:, bundle.graph.targets()] - pts[:, bundle.graph.origins()]
    errors = length_errors(z, bundle.lengths.d, bundle.law.convention)
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


def _run_rigidity(sc, bundle):
    fw = realize_two_cycles(bundle.graph, bundle.lengths)[0]
    r = rigidity_matrix(fw)
    rank = rank_tol(r, RANK_TOL)
    rigid, minimal = rigidity_verdicts(fw.graph, rank)
    cells = {
        "rank": str(rank),
        "rows": str(r.shape[0]),
        "infinitesimally_rigid": _bool_cell(rigid),
        "minimally_rigid": _bool_cell(minimal),
    }
    quals = "infinitesimally rigid" if rigid else "not infinitesimally rigid"
    quals += ", minimally rigid" if minimal else ""
    return list(cells), [list(cells.values())], [f"rank {rank} of {r.shape[0]} ({quals})"]


_RUNNERS = {
    "census": _run_census,
    "spectrum": _run_spectrum,
    "sweep": _run_sweep,
    "sotomayor": _run_sotomayor,
    "simulate": _run_simulate,
    "rigidity": _run_rigidity,
}


_REQUIRED = object()  # the default of a key that every scenario file gives

# Each section's keys: type, default (or _REQUIRED) and an optional bound.
# The type int or float is a JSON number, checked by _check_type; a tuple
# holds the Python types the value may have (never a JSON boolean); None
# admits any value, which load_scenario checks entry by entry.
_SCENARIO = {
    "format": ((int,), _REQUIRED, lambda v, m: v == SCENARIO_FORMAT,
               f"unsupported scenario format {{v!r}}; this build reads format {SCENARIO_FORMAT}"),
    "name": ((str,), None, *_TEXT),  # None: the file's stem
    "graph": ((dict,), _REQUIRED),
    "lengths": ((dict,), _REQUIRED),
    "law": ((dict,), _REQUIRED),
    "experiment": ((dict,), _REQUIRED),
    "seed": (int, 0, *_NON_NEGATIVE),
}
_GRAPH = {"vertices": ((int,), _REQUIRED), "edges": ((list,), _REQUIRED)}
_LENGTHS = {
    "values": ((list,), _REQUIRED),
    "convention": (None, "squared", lambda v, m: v in CONVENTIONS,
                   "unknown length convention {v!r}"),
}
_LAW = {"name": ((str,), _REQUIRED), "gain": (float, 1.0, *_POSITIVE)}
_EXPERIMENT = {
    "kind": ((str,), _REQUIRED, lambda v, m: v in _RUNNERS,
             "unknown experiment {v!r}; one of " + ", ".join(_RUNNERS)),
    "initial": (None, None),
    **_PARAMS,
}


def _reader(raw, table, noun, where, m):
    """Refuse the keys of section ``raw`` outside ``table``; return its reader.

    ``read(key)`` checks the key against its row, so errors come in the order
    of the reads, and returns its value or default. A bound sees the edge count ``m``.
    """
    unknown = sorted(set(raw) - set(table))
    if unknown:
        raise ScenarioError(f"unknown {noun} keys: {', '.join(unknown)}", position=where)

    def read(key):
        kind, default, *bound = table[key]
        if key not in raw:
            if default is _REQUIRED:
                raise ScenarioError(f"missing required key {key!r}", position=where)
            return default
        value = raw[key]
        if kind in (int, float):
            _check_type(value, kind, f"key {key!r}", where)
        elif kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
            raise ScenarioError(f"key {key!r} must be of type {kind[0].__name__}", position=where)
        if bound and not bound[0](value, m):
            raise ScenarioError(bound[1].format(k=key, v=value, m=m), position=where)
        return value

    return read


def load_scenario(path):
    """Parse and validate a scenario file into a :class:`Scenario`."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}")

    def unique(pairs):  # json.loads alone would keep a repeated key's last value
        section = {}
        for key, value in pairs:
            if key in section:
                raise ScenarioError(f"repeated key {key!r}", position=p.name)
            section[key] = value
        return section

    try:
        raw = json.loads(data.decode("utf-8"), object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            exc.msg, position=f"{p.name}: line {exc.lineno} column {exc.colno}"
        )
    except ValueError as exc:  # bytes that are not UTF-8, or an integer past int()'s digit limit
        raise ScenarioError(str(exc), position=p.name)
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be an object", position=p.name)
    top = _reader(raw, _SCENARIO, "scenario", p.name, None)
    top("format")

    graph_in = _reader(top("graph"), _GRAPH, "graph", "graph", None)
    vertices = graph_in("vertices")
    edges = []
    for i, pair in enumerate(graph_in("edges")):
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
    # m edges name at most 2m agents; more would make a run's work grow with one number
    if graph.n > 2 * graph.m:
        raise ScenarioError(f"key 'vertices' must be at most {2 * graph.m}, two per edge, "
                            f"got {graph.n}", position="graph")

    lengths_in = _reader(top("lengths"), _LENGTHS, "lengths", "lengths", graph.m)
    values = tuple(
        float(_check_type(v, float, f"length value {i + 1}", "lengths"))
        for i, v in enumerate(lengths_in("values"))
    )
    convention = lengths_in("convention")
    if len(values) != graph.m:
        raise ScenarioError(
            f"{len(values)} length values for a graph with {graph.m} edges",
            position="lengths",
        )

    law_in = _reader(top("law"), _LAW, "law", "law", graph.m)
    law_name = law_in("name")
    gain = law_in("gain")

    exp_raw = top("experiment")
    exp_in = _reader(exp_raw, _EXPERIMENT, "experiment", "experiment", graph.m)
    experiment = exp_in("kind")
    params = {key: exp_in(key) for key in exp_raw if key != "kind"}
    if "initial" in params:
        # JSON numbers only: a boolean is no coordinate, though numpy reads it as one
        entries = np.asarray(params["initial"], dtype=object).ravel().tolist()
        numbers = len(entries) == 2 * graph.n and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in entries
        )
        if not numbers or not all(_fits_float(v) and math.isfinite(v) for v in entries):
            what = "finite numbers" if numbers else "numbers, two per agent"
            raise ScenarioError(f"key 'initial' must hold {2 * graph.n} {what}",
                                position="experiment")
    seed = top("seed")
    name = top("name")

    return Scenario(
        name=p.stem if name is None else name,
        graph=graph,
        length_values=values,
        length_convention=convention,
        law_name=law_name,
        law_gain=float(gain),
        experiment=experiment,
        params=params,
        seed=seed,
    )


def run_scenario(path, out_dir=None):
    """Run one scenario file; returns the process exit status.

    The experiment's table is written as ``<kind>.csv`` to ``out_dir``,
    else to the working directory. The report, the scenario header
    followed by the experiment's lines, is printed to stdout and saved as
    report.txt next to the CSV.
    """
    try:
        sc = load_scenario(path)
        bundle = _build_bundle(sc)
        out = Path(out_dir or ".")
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (OSError, ValueError) as exc:  # ValueError: a NUL or a lone surrogate
            raise ScenarioError(f"cannot create output directory: {exc}")
        with np.errstate(all="ignore"):  # the package's finite checks report, not NumPy
            header, rows, lines = _RUNNERS[sc.experiment](sc, bundle)
        with open(out / f"{sc.experiment}.csv", "w", newline="", encoding="utf-8") as fh:
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
        # surrogateescape gives back the bytes of a file name the locale could not decode
        (out / "report.txt").write_text(text, encoding="utf-8", errors="surrogateescape")
    except FormationForgeError as exc:
        return _error_record(exc.code, str(exc), exc.exit_status)
    except Exception as exc:  # noqa: BLE001 - the CLI must not panic
        return _error_record("internal", f"{type(exc).__name__}: {exc}", 3)
    # The files are UTF-8; the echo takes what the terminal encodes and escapes the rest.
    encoding = sys.stdout.encoding or "utf-8"
    sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))
    return 0


def _error_record(code, message, status):  # every failure's one stderr line
    sys.stderr.write(json.dumps({"error": code, "message": message}, sort_keys=True) + "\n")
    return status


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ScenarioError, not print usage text."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


def main(argv=None):
    parser = _Parser(
        prog="formation-forge",
        description="Formation graph rigidity, equilibrium, and bifurcation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a scenario file")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--out", default=None, help="directory for CSV artifacts")
    try:
        args = parser.parse_args(argv)
    except ScenarioError as exc:
        return _error_record(exc.code, str(exc), exc.exit_status)
    return run_scenario(args.scenario, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
