"""The census and the singular set against exact and closed-form oracles.

The abstract's claim is that the singular set makes stable configurations
off the prescribed lengths generic. These tests pin the facts it rests on,
each against an oracle that shares no code with the package's solvers:

- fig2's census under gradient_squared is every equilibrium with agent 2
  off agent 1 that a lex Gröbner basis lists (``tests/exact_census.py``),
  one to one, and misses only the total collapse;
- the singular set of two-cycles is the zero set of the cubic
  ``S(d) = d5 (d1 + d3 - d2)^2 - d1 (d3 + d5 - d4)^2``, and the sign of S
  tells which design class has agent 4 on which side;
- at the witness of each drawn singular member the gauge spectrum has one
  eigenvalue at zero and every other in the open left half plane, under
  both gradient laws: the witness is transversally stable.
"""

from fractions import Fraction

import numpy as np
import pytest

from exact_census import DIGITS, equilibria, lex_basis, real_solutions, solutions
from formation_forge.dynamics import VectorFieldBundle, builtin_law, eval_F_x
from formation_forge.equilibria import EquilibriumBatch, canonical_gauge, census
from formation_forge.errors import InfeasibleLengthsError
from formation_forge.graph import two_cycles
from formation_forge.rigidity import (
    TargetLengths,
    edge_vectors,
    planar_cross,
    realize_two_cycles,
    singular_witnesses,
)
from test_equilibria import FIG2_PLAIN, fig2_bundle, singular_members

# fig2's squared targets as exact rationals: 2.0, 2.6, 2.0, 3.3 and 1.4 squared.
FIG2_EXACT = tuple(Fraction(str(v)) ** 2 for v in FIG2_PLAIN)


def exact_kind(x, d):
    """The census kind of the oracle's positions ``x`` at targets ``d``, each test to 30 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DIGITS):
        z = [[x[k][0] - x[o][0], x[k][1] - x[o][1]] for o, k in two_cycles().edges]
        errors = [abs(zk[0] ** 2 + zk[1] ** 2 - mpmath.mpf(dk.numerator) / dk.denominator)
                  for zk, dk in zip(z, d)]
        tol = mpmath.mpf(10) ** -30 * max(d)
        if max(errors) <= tol:
            return "design"
        # agent 1's two edges z1 and z5 parallel, the other three at their targets
        if abs(x[3][1]) <= tol and max(errors[1:4]) <= tol:
            return "ancillary_aligned"
        return "ancillary_other"


@pytest.fixture(scope="module")
def fig2_census():
    return census(fig2_bundle("gradient_squared"), n_random=60, seed=7)


class TestExactCensus:
    def test_the_lex_basis_is_triangular_down_to_agent_4s_ordinate(self):
        basis = lex_basis(FIG2_EXACT)
        assert len(basis) == 8
        last = basis[-1]
        assert last.monoms() and all(m[:-1] == (0,) * 5 for m in last.monoms())
        assert last.degree(-1) == 7
        assert (len(solutions(FIG2_EXACT)), len(real_solutions(FIG2_EXACT))) == (28, 20)

    def test_fig2s_census_records_are_the_oracles_equilibria_one_to_one(self, fig2_census):
        exact = equilibria(FIG2_EXACT)
        assert len(exact) == 10
        oracle = [np.array(x, dtype=float) for x in exact]
        assert len(fig2_census.records) == len(oracle)
        matched = []
        for rec in fig2_census.records:
            x = canonical_gauge(rec.framework).x
            near = [i for i, y in enumerate(oracle)
                    if np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(y))]
            assert len(near) == 1, (rec.kind, x)
            matched.append(near[0])
            assert rec.kind == exact_kind(exact[near[0]], FIG2_EXACT)
        assert sorted(matched) == list(range(len(oracle)))
        kinds = [rec.kind for rec in fig2_census.records]
        assert [kinds.count(k) for k in ("design", "ancillary_aligned", "ancillary_other")] == [
            4, 4, 2,
        ]

    def test_the_total_collapse_is_the_one_equilibrium_the_census_misses(self, fig2_census):
        # With agent 2 on agent 1, agent 3 sits on both or is at both its
        # targets d2 and d3, and then agent 4 likewise with d4 and d5; fig2's
        # d2 != d3 and d4 != d5 leave only the total collapse, outside the
        # oracle's a != 0. The census by case split is to add it as a record.
        d = FIG2_EXACT
        assert d[1] != d[2] and d[3] != d[4]
        b = fig2_bundle("gradient_squared")
        collapse = np.zeros((4, 2))
        assert not np.any(eval_F_x(b, collapse))
        assert not any(np.max(np.abs(canonical_gauge(r.framework).x)) <= 1e-9
                       for r in fig2_census.records)


def singular_polynomial(d):
    d1, d2, d3, d4, d5 = d
    return d5 * (d1 + d3 - d2) ** 2 - d1 * (d3 + d5 - d4) ** 2


class TestSingularSet:
    def test_the_cubic_vanishes_on_the_drawn_singular_members(self):
        members = singular_members(159, seed=0)
        assert len(members) == 160
        off = [(i, d) for i, d in enumerate(members)
               if abs(singular_polynomial(d)) > 1e-12 * max(d) ** 3]
        assert off == []

    def test_the_cubics_sign_tells_the_design_classes_sides_apart(self):
        # Frameworks 0 and 3, and 1 and 2, are the realizer's mirror classes
        # (both heights negated). Each class's design with z1 x z3 > 0 puts
        # agent 4 on one side of edge 1: sign z1 x z5. Across the singular
        # set one class's agent 4 crosses edge 1's line.
        rng = np.random.default_rng(11)
        checked, wrong = 0, []
        for draw in range(3000):
            d = tuple(rng.uniform(0.25, 40.0, 5).tolist())
            try:
                frameworks = realize_two_cycles(two_cycles(), TargetLengths(d=d))
            except InfeasibleLengthsError:
                continue
            assert len(frameworks) == 4, (draw, d)
            sides = []
            for mirror_class in ((0, 3), (1, 2)):
                for k in mirror_class:
                    z = edge_vectors(frameworks[k])
                    if planar_cross(z[0], z[2]) > 0:
                        sides.append(planar_cross(z[0], z[4]))
            assert len(sides) == 2, (draw, d)
            checked += 1
            if np.sign(singular_polynomial(d)) != -np.sign(sides[0] * sides[1]):
                wrong.append((draw, d))
        assert (checked, wrong) == (2199, [])

    def test_each_witness_is_transversally_stable_under_both_gradient_laws(self):
        members = singular_members(159, seed=0)
        failing = []
        for name in ("gradient_squared", "gradient_plain"):
            law = builtin_law(name)
            batch = EquilibriumBatch()
            for d in members:
                b = VectorFieldBundle(graph=two_cycles(), law=law, lengths=TargetLengths(d=d))
                batch.add(b, singular_witnesses(realize_two_cycles(b.graph, b.lengths))[0])
            for i, spec in enumerate(batch.spectra()):
                radius = spec.spectral_radius
                zero = [v for v in spec.values if abs(v) <= 1e-5 * radius]
                rest = [v for v in spec.values if abs(v) > 1e-5 * radius]
                if len(zero) != 1 or any(v.real >= -1e-6 * radius for v in rest):
                    failing.append((name, i, members[i]))
        assert failing == []
