"""Workload generators and output checks for the formation-forge benchmark.

A workload turns a seed into an endless, deterministic sequence of
operations. One operation is one or more scenario files, each run through
``formation_forge.cli.run_scenario`` the way the command line runs them.
The program sees only those files. Each operation's check reads back what
the program wrote: exit codes, CSVs and report.txt.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from formation_forge import make_singular_lengths
from formation_forge.errors import InfeasibleLengthsError

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 0
REFERENCE_TOL = 1e-9
# Columns holding a whole spectrum, as ``;``-separated eigenvalues. These are
# compared as multisets, with clustered eigenvalues held to their sums; see
# compare_spectrum.
SPECTRUM_COLUMNS = frozenset({"eigenvalues", "slice_spectrum"})

# The two-cycles graph, 1-indexed as in the bundled scenarios.
EDGES = ((1, 2), (2, 3), (3, 1), (4, 3), (1, 4))
FIG2_PLAIN = (2.0, 2.6, 2.0, 3.3, 1.4)
SWEEP_S0 = (1.0, 5.0, 4.0, 8.0, 4.0)
LAWS = ("gradient_squared", "gradient_plain")
SWEEP_SAMPLES = 21
SWEEP_EPS = 0.2
# Plain side lengths of branches-singular members: a factor 2 below and above
# the bundled scenarios' plain lengths, which run from 1.0 to 3.3.
SIDE_RANGE = (0.5, 6.6)
SIMULATE_ROWS = 201
# A sweep point must zero the gradient field to this accuracy, relative to
# the largest target. Positions are printed with 12 significant digits,
# which alone leaves residuals near 1e-11.
EQUILIBRIUM_TOL = 1e-8


def scenario(name, values, convention, law, experiment, seed=0):
    return {
        "format": 1,
        "name": name,
        "graph": {"vertices": 4, "edges": [list(e) for e in EDGES]},
        "lengths": {"values": [float(v) for v in values], "convention": convention},
        "law": {"name": law, "gain": 1.0},
        "experiment": experiment,
        "seed": int(seed),
    }


@dataclass
class Op:
    """One closed-loop operation: scenario runs, in order, by run name."""

    index: int
    scenarios: dict
    targets: tuple = ()


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)

    def fail(self, reason):
        self.failures.append(reason)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _tokens(cell):
    return [t for part in cell.split(";") for t in part.split(" ") if t]


def _number(token):
    try:
        return complex(token)
    except ValueError:
        return None


def compare_spectrum(got, want, tol=REFERENCE_TOL):
    """First difference between two spectra, or None when they agree.

    A cluster of k nearly equal eigenvalues moves by about the k-th root of
    a perturbation of its matrix, so roundoff alone shifts the members of a
    double eigenvalue by about 1e-8 relative, and may turn a close real pair
    into a complex pair. The cluster's sum moves only as much as the
    perturbation. Reference eigenvalues within ``sqrt(tol)`` of each other,
    relative to their size, therefore form a cluster. Each produced
    eigenvalue joins the cluster of its nearest reference eigenvalue and must
    lie within ``sqrt(tol)`` of it. Each cluster must receive as many
    eigenvalues as it has, and its sum must agree to ``tol`` per member.
    A lone eigenvalue is thereby held to ``tol``, like any other number.
    """
    if len(got) != len(want):
        return f"{len(got)} eigenvalues, reference has {len(want)}"
    radius = math.sqrt(tol)
    scale = [max(1.0, abs(w)) for w in want]
    # Single-linkage clusters, each labelled by the index of one member.
    label = list(range(len(want)))
    for i in range(len(want)):
        for j in range(i):
            if abs(want[i] - want[j]) <= radius * max(scale[i], scale[j]):
                old, new = label[i], label[j]
                label = [new if lab == old else lab for lab in label]
    count, total = Counter(), {}
    for g in got:
        k = min(range(len(want)), key=lambda i: abs(g - want[i]))
        if abs(g - want[k]) > radius * scale[k]:
            return f"eigenvalue {g} has no reference eigenvalue within {radius:.3g} relative"
        count[label[k]] += 1
        total[label[k]] = total.get(label[k], 0) + g
    for lab in sorted(set(label)):
        members = [i for i in range(len(want)) if label[i] == lab]
        if count[lab] != len(members):
            return f"{count[lab]} eigenvalues near {want[lab]}, reference has {len(members)}"
        want_sum = sum(want[i] for i in members)
        if abs(total[lab] - want_sum) > len(members) * tol * max(scale[i] for i in members):
            return f"eigenvalues near {want[lab]} sum to {total[lab]}, reference {want_sum}"
    return None


def compare_csv(produced, reference, tol=REFERENCE_TOL):
    """First difference between two CSV texts, or None when they agree.

    Numbers (real or complex, also inside ``;``/space separated cells)
    agree when ``|a - b| <= tol * max(1, |b|)``, except in SPECTRUM_COLUMNS,
    which compare_spectrum compares; all other tokens must be identical.
    """
    got = list(csv.reader(io.StringIO(produced)))
    want = list(csv.reader(io.StringIO(reference)))
    if len(got) != len(want):
        return f"{len(got)} rows, reference has {len(want)}"
    header = want[0] if want else []
    for r, (row_got, row_want) in enumerate(zip(got, want)):
        if len(row_got) != len(row_want):
            return f"row {r}: {len(row_got)} cells, reference has {len(row_want)}"
        for c, (cell_got, cell_want) in enumerate(zip(row_got, row_want)):
            tok_got, tok_want = _tokens(cell_got), _tokens(cell_want)
            num_got = [_number(t) for t in tok_got]
            num_want = [_number(t) for t in tok_want]
            numeric = None not in num_got and None not in num_want
            if r and header[c] in SPECTRUM_COLUMNS and numeric:
                diff = compare_spectrum(num_got, num_want, tol)
                if diff:
                    return f"row {r} cell {c}: {diff}"
                continue
            if len(tok_got) != len(tok_want):
                return f"row {r} cell {c}: {cell_got!r} vs reference {cell_want!r}"
            for a, b, na, nb in zip(tok_got, tok_want, num_got, num_want):
                if na is None or nb is None:
                    same = a == b
                else:
                    same = abs(na - nb) <= tol * max(1.0, abs(nb))
                if not same:
                    return f"row {r} cell {c}: {a} vs reference {b}"
    return None


def _finite_cells(rows):
    for row in rows:
        for cell in row:
            for token in _tokens(cell):
                value = _number(token)
                if value is not None and not (
                    math.isfinite(value.real) and math.isfinite(value.imag)
                ):
                    return False
    return True


def _report(out):
    return (out / "report.txt").read_text()


def _report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


def gradient_squared_field(targets, x):
    """``xdot`` of the squared-error gradient law, written out independently."""
    xdot = np.zeros_like(x)
    for (o, t), d in zip(EDGES, targets):
        z = x[t - 1] - x[o - 1]
        xdot[o - 1] += (z @ z - d) * z
    return xdot


def sweep_end_realizable(d, mu):
    """Whether squared targets ``d``, with ``d[2] + mu``, fit both triangles.

    The two-cycles graph is the triangles (d1, d2, d3) and (d3, d4, d5),
    which share the third edge; each needs a strict triangle inequality.
    """
    for a, b, c in ((d[0], d[1], d[2] + mu), (d[2] + mu, d[3], d[4])):
        if min(a, b, c) <= 0:
            return False
        ra, rb, rc = math.sqrt(a), math.sqrt(b), math.sqrt(c)
        if 2 * max(ra, rb, rc) >= ra + rb + rc:
            return False
    return True


class Workload:
    name = ""
    runs = ()
    # Operations of REFERENCE_SEED whose CSVs are kept under reference/.
    n_reference = 0
    # Operations in one traced pass; fixed so that call counts repeat.
    n_traced = 0

    def ops(self, seed):
        raise NotImplementedError

    def check(self, op, codes, outs):
        """Check one operation's outputs; ``outs`` maps run name to its directory."""
        outcome = Outcome()
        for run in self.runs:
            if codes[run] != 0:
                outcome.fail(f"{run} exited with status {codes[run]}")
        if not outcome.failures:
            self._check_outputs(op, outs, outcome)
        outcome.stats["bytes_written"] = sum(
            f.stat().st_size for out in outs.values() for f in out.iterdir()
        )
        return outcome

    def _check_outputs(self, op, outs, outcome):
        raise NotImplementedError

    def reference_files(self, index):
        base = REFERENCE_DIR / self.name / f"op{index}"
        return sorted(base.glob("*/*.csv")) if base.is_dir() else []


class CensusFig2(Workload):
    name = "census-fig2"
    runs = ("census",)
    n_reference = 2
    n_traced = 4

    def ops(self, seed):
        rng = np.random.default_rng(seed)
        for i in itertools.count():
            census_seed = int(rng.integers(0, 2**31 - 1))
            sc = scenario(
                f"census-{i}", FIG2_PLAIN, "plain", LAWS[i % 2],
                {"kind": "census", "n_random": 60}, seed=census_seed,
            )
            yield Op(i, {"census": sc})

    def _check_outputs(self, op, outs, outcome):
        out = outs["census"]
        report = _report(out)
        if _report_value(report, "feasible") != "yes":
            outcome.fail("census: not feasible")
        if _report_value(report, "almost surely stable") != "no":
            outcome.fail("census: almost surely stable is not 'no'")
        _, rows = read_csv(out / "census.csv")
        kinds = Counter((row[0], row[1]) for row in rows)
        if kinds[("design", "true")] != 2 or kinds[("design", "false")] != 2:
            outcome.fail(f"census: design records {dict(kinds)}, want 2 stable, 2 unstable")
        if kinds[("ancillary_aligned", "true")] != 4 or kinds[("ancillary_aligned", "false")]:
            outcome.fail(f"census: aligned records {dict(kinds)}, want 4 stable")
        if not _finite_cells(rows):
            outcome.fail("census: non-finite value in census.csv")
        outcome.stats["records"] += len(rows)
        outcome.stats["dropped_seeds"] += int(_report_value(report, "dropped seeds") or 0)


class Simulate10s(Workload):
    name = "simulate-10s"
    runs = ("simulate",)
    n_reference = 2
    n_traced = 2

    def ops(self, seed):
        rng = np.random.default_rng(seed)
        span = max(FIG2_PLAIN)
        for i in itertools.count():
            initial = rng.uniform(-span, span, (4, 2))
            sc = scenario(
                f"simulate-{i}", FIG2_PLAIN, "plain", LAWS[i % 2],
                {"kind": "simulate", "t_end": 10.0, "step": 1e-3, "stride": 50,
                 "initial": initial.round(6).tolist()},
            )
            yield Op(i, {"simulate": sc})

    def _check_outputs(self, op, outs, outcome):
        _, rows = read_csv(outs["simulate"] / "simulate.csv")
        if len(rows) != SIMULATE_ROWS:
            outcome.fail(f"simulate: {len(rows)} rows, want {SIMULATE_ROWS}")
        if not _finite_cells(rows):
            outcome.fail("simulate: non-finite value in simulate.csv")


class BranchesSingular(Workload):
    name = "branches-singular"
    runs = ("sweep", "sotomayor", "spectrum")
    n_reference = 3
    n_traced = 6

    def members(self, seed):
        """sweep_s0's targets, then members drawn from the seed.

        The triangle sides on agents 1, 2, 3 and the fifth length are drawn
        uniformly from SIDE_RANGE, and the fifth length's sign is a coin
        flip, so agent 4 lies on either side of agent 1. Members are skipped
        for two reasons only, both properties of the targets: the three
        sides form no triangle (make_singular_lengths refuses them), or a
        sweep end is unrealizable (mu_sweep refuses them). Members are kept
        whatever their sweep or Sotomayor outcome.
        """
        yield SWEEP_S0
        rng = np.random.default_rng(seed)
        while True:
            r1, r2, r3, z5 = rng.uniform(*SIDE_RANGE, 4)
            signed_z5 = rng.choice((-1.0, 1.0)) * z5
            try:
                d = make_singular_lengths(r1 * r1, r2 * r2, r3 * r3, signed_z5).lengths.d
            except InfeasibleLengthsError:
                continue
            if all(sweep_end_realizable(d, mu) for mu in (-SWEEP_EPS, SWEEP_EPS)):
                yield d

    def ops(self, seed):
        for i, d in enumerate(self.members(seed)):
            def make(kind, **params):
                return scenario(
                    f"{kind}-{i}", d, "squared", "gradient_squared", {"kind": kind, **params}
                )

            yield Op(
                i,
                {
                    "sweep": make("sweep", eps=SWEEP_EPS, samples=SWEEP_SAMPLES),
                    "sotomayor": make("sotomayor"),
                    "spectrum": make("spectrum"),
                },
                targets=tuple(d),
            )

    def _check_outputs(self, op, outs, outcome):
        header, rows = read_csv(outs["sweep"] / "sweep.csv")
        scale = max(1.0, max(op.targets))
        for row in rows:
            record = dict(zip(header, row))
            mu = float(record["mu"])
            targets = list(op.targets)
            targets[2] += mu
            x = np.array([[float(v) for v in p.split()] for p in record["positions"].split(";")])
            residual = float(np.max(np.abs(gradient_squared_field(targets, x))))
            if not residual <= EQUILIBRIUM_TOL * scale:
                outcome.fail(
                    f"sweep: {record['branch']} point at mu {mu:g} has residual {residual:.3g}"
                )
                break
        for run in self.runs:
            _, run_rows = read_csv(outs[run] / f"{run}.csv")
            if not run_rows or not _finite_cells(run_rows):
                outcome.fail(f"{run}: empty or non-finite {run}.csv")
        outcome.stats["sweeps"] += 1
        outcome.stats["sweep_points"] += len(rows)
        outcome.stats["sweep_slots"] += 2 * SWEEP_SAMPLES
        outcome.stats["sweeps_with_gaps"] += len(rows) < 2 * SWEEP_SAMPLES
        detected = (_report_value(_report(outs["sweep"]), "transcritical exchange") or "")
        outcome.stats["detected"] += detected.startswith("detected")


WORKLOADS = {w.name: w for w in (CensusFig2(), Simulate10s(), BranchesSingular())}


def write_scenarios(op, directory):
    """Write an operation's scenario files; returns ``{run: (file, out_dir)}``."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for run, sc in op.scenarios.items():
        path = directory / f"{run}.json"
        path.write_text(json.dumps(sc, indent=1))
        out = directory / run
        out.mkdir()
        paths[run] = (path, out)
    return paths


def check_reference(workload, op, outs):
    """Differences between an operation's CSVs and its stored snapshots."""
    problems = []
    files = workload.reference_files(op.index)
    if not files:
        return [f"no reference snapshots for operation {op.index}"]
    for ref in files:
        produced = outs[ref.parent.name] / ref.name
        if not produced.is_file():
            problems.append(f"{ref.parent.name}/{ref.name} was not written")
            continue
        diff = compare_csv(produced.read_text(), ref.read_text())
        if diff:
            problems.append(f"{ref.parent.name}/{ref.name} differs from reference: {diff}")
    return problems
