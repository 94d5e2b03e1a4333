"""Tests for equilibrium construction, classification, and the census."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from formation_forge import bifurcation, equilibria
from formation_forge.dynamics import (
    BUILTIN_LAW_NAMES,
    CustomLaw,
    VectorFieldBundle,
    builtin_law,
    edge_weights,
    eval_F_x,
    reduced_J,
    weight_slopes,
)
from formation_forge.equilibria import (
    BENCHMARK_LENGTHS,
    BENCHMARK_SPECTRA,
    RECORD_KINDS,
    ALIGNED_MIN_GAP,
    CENSUS_MAX_ITER,
    NEWTON_TOL,
    RESIDUAL_TOL,
    CensusReport,
    EquilibriumBatch,
    _aligned_jacobian,
    _aligned_residual,
    _aligned_triangle,
    aligned_framework,
    aligned_parameters,
    aligned_root_near,
    canonical_gauge,
    census,
    classify_kind,
    gauge_slice_basis,
    identify_convention,
    solve_ancillary_aligned,
)
from formation_forge.errors import (
    ConfigurationError,
    ConvergenceError,
    FormulaDomainError,
    InfeasibleLengthsError,
)
from formation_forge.graph import FormationGraph, two_cycles
from formation_forge.numkernel import eigenvalues, fd_jacobian, left_nullspace, newton_root
from formation_forge.rigidity import (
    DESIGN_TOL,
    Framework,
    TargetLengths,
    edge_errors,
    edge_vectors,
    edges_aligned,
    make_singular_lengths,
    planar_cross,
    realize_two_cycles,
    singular_witnesses,
    within_design_tol,
)
from normal_forms import gauge_spectrum_oracle, one_record, one_spectrum, scalar_census
from test_dynamics import FLOW_GRAPHS
from test_kernel import make_law
from test_numkernel import array_newton_root

BENCHMARK_SQUARED = (4.0, 6.76, 4.0, 10.89, 1.96)


def aligned_residual(b, d, a, bb, sigma):
    """The aligned residual through the framework's edge vectors; NaN off-domain.

    The oracle of ``_aligned_residual``: the fourth edge's weight and the
    force balance on agent 1, from :func:`edge_weights` on the placed agents.
    """
    triangle = _aligned_triangle(d, a)
    if triangle is None:
        return np.full(2, np.nan)
    alpha, beta = triangle
    x = aligned_framework(b.graph, a, alpha, sigma * beta, bb).x
    # x_target - x_origin over the two-cycles edges, as edge_vectors computes it
    u = edge_weights(b, (x[[1, 2, 0, 2, 3]] - x[[0, 1, 2, 3, 0]]).ravel().tolist())
    return np.array([u[3], u[0] * a + u[4] * bb])


def benchmark_bundle():
    return VectorFieldBundle(
        graph=two_cycles(),
        law=builtin_law("gradient_squared"),
        lengths=TargetLengths(d=BENCHMARK_SQUARED),
    )


def chebyshev(a, b):
    """Worst-case pairing distance between two small eigenvalue multisets."""
    from itertools import permutations

    aa = [complex(v) for v in a]
    bb = [complex(v) for v in b]
    assert len(aa) == len(bb)
    return min(
        max(abs(aa[i] - bb[p[i]]) for i in range(len(aa)))
        for p in permutations(range(len(bb)))
    )


def edgeless_bundle():
    """One agent and no edges: a graph FormationGraph takes but no census or batch can."""
    return VectorFieldBundle(
        graph=FormationGraph(n=1, edges=()), law=builtin_law("gradient_squared"),
        lengths=TargetLengths(d=()),
    )


class TestDesignFrameworks:
    def test_equilateral_targets_give_four_with_coincidence(self):
        frameworks = realize_two_cycles(two_cycles(), TargetLengths(d=(1.0,) * 5))
        assert len(frameworks) == 4
        coincident = [
            fw for fw in frameworks if np.max(np.abs(fw.x[3] - fw.x[1])) <= 1e-12
        ]
        assert coincident

    def test_benchmark_targets_give_two_mirror_pairs(self):
        frameworks = realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))
        assert len(frameworks) == 4
        flip = np.array([1.0, -1.0])
        for fw in frameworks:
            partners = [
                other
                for other in frameworks
                if np.max(np.abs(other.x - fw.x * flip)) <= 1e-9
            ]
            assert len(partners) == 1

    def test_singular_witness_appears_among_realizations(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        frameworks = realize_two_cycles(two_cycles(), out.lengths)
        target = canonical_gauge(out.witness)
        assert any(np.max(np.abs(fw.x - target.x)) <= 1e-9 for fw in frameworks)

    def test_infeasible_targets_raise(self):
        with pytest.raises(InfeasibleLengthsError, match="edges 1, 2, 3"):
            realize_two_cycles(two_cycles(), TargetLengths(d=(1.0, 25.0, 4.0, 8.0, 4.0)))


class TestCanonicalGauge:
    def test_pins_first_agent_and_first_edge(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            fw = Framework(graph=two_cycles(), x=rng.normal(size=(4, 2)))
            gauged = canonical_gauge(fw)
            assert np.max(np.abs(gauged.x[0])) == 0.0
            z1 = gauged.x[1] - gauged.x[0]
            assert abs(z1[1]) <= 1e-12 and z1[0] > 0.0

    def test_rigid_motions_are_quotiented(self):
        rng = np.random.default_rng(1)
        fw = Framework(graph=two_cycles(), x=rng.normal(size=(4, 2)))
        theta = 1.234
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        moved = fw.with_positions(fw.x @ rot.T + np.array([3.0, -4.0]))
        assert np.max(np.abs(canonical_gauge(moved).x - canonical_gauge(fw).x)) <= 1e-12

    def test_reflections_stay_distinct(self):
        rng = np.random.default_rng(2)
        fw = Framework(graph=two_cycles(), x=rng.normal(size=(4, 2)))
        mirrored = fw.with_positions(fw.x * np.array([1.0, -1.0]))
        assert np.max(np.abs(canonical_gauge(mirrored).x - canonical_gauge(fw).x)) > 1e-3

    def test_zero_first_edge_falls_back_to_next(self):
        x = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [0.0, 3.0]])
        gauged = canonical_gauge(Framework(graph=two_cycles(), x=x))
        z2 = gauged.x[2] - gauged.x[1]
        assert abs(z2[1]) <= 1e-12 and z2[0] > 0.0

    def test_fully_superposed_framework_is_only_translated(self):
        x = np.full((4, 2), 7.5)
        gauged = canonical_gauge(Framework(graph=two_cycles(), x=x))
        assert np.max(np.abs(gauged.x)) == 0.0

    @settings(max_examples=300, deadline=None)
    @given(points=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8))
    # all four agents on a line: the realizer once put a -0.0 where the gauge has 0.0
    @example(points=[0.0, 0.0, 0.5, 0.0, -0.5, 0.0, 0.5, 0.0])
    # agent 3 within 6e-16 of agent 1: a triangle flat within rounding, whose
    # clamped apex must still sit at its length
    @example(points=[0.0, 0.0, 1.0, 1.0, 3.9e-16, 3.9e-16, 0.0, 1.0])
    def test_realizations_are_fixed_points_byte_for_byte(self, points):
        # The sweep's design step relies on this and does not re-gauge them.
        # canonical_gauge's axis is the first edge longer than 1e-12, the
        # realizer's always the first edge, so the two agree above that.
        z = edge_vectors(Framework(graph=two_cycles(), x=np.reshape(points, (4, 2))))
        d = tuple(np.sum(z * z, axis=1))
        assume(min(d) > 0.0 and d[0] > 1e-24)
        try:
            frameworks = realize_two_cycles(two_cycles(), TargetLengths(d=d))
        except InfeasibleLengthsError:  # refused: a triangle that does not close
            assume(False)
        for fw in frameworks:
            assert canonical_gauge(fw).x.tobytes() == fw.x.tobytes()


class TestGaugeSliceBasis:
    def test_orthonormal_complement_of_rigid_directions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=(4, 2))
            basis = gauge_slice_basis(x)
            assert basis.shape == (8, 5)
            assert np.max(np.abs(basis.T @ basis - np.eye(5))) <= 1e-12
            t1 = np.tile([1.0, 0.0], 4)
            t2 = np.tile([0.0, 1.0], 4)
            rot = np.column_stack([-x[:, 1], x[:, 0]]).ravel()
            for rigid in (t1, t2, rot):
                assert np.max(np.abs(basis.T @ rigid)) <= 1e-12

    def test_superposed_configuration_widens_the_slice(self):
        # All agents at one point leave only two independent rigid
        # directions, so the complement gains a dimension.
        basis = gauge_slice_basis(np.full((4, 2), 2.0))
        assert basis.shape == (8, 6)

    def test_matches_the_stacked_array_form_bit_for_bit(self):
        # The constraint matrix written from floats is the one np.tile and
        # np.column_stack built, so the SVD returns the same basis.
        rng = np.random.default_rng(11)
        cases = [rng.normal(size=(4, 2)) * 10.0 ** rng.uniform(-8.0, 8.0) for _ in range(40)]
        cases += [fw.x for fw in realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))]
        cases += [np.full((4, 2), 2.0), np.zeros((4, 2)), [[0.0, -0.0]], np.zeros((0, 2)),
                  rng.normal(size=(7, 2)), rng.normal(size=8)]
        for x in cases:
            pts = np.asarray(x, dtype=float).reshape(-1, 2)
            translations = np.tile(np.eye(2), (pts.shape[0], 1))
            rot = np.column_stack([-pts[:, 1], pts[:, 0]]).ravel()
            want = left_nullspace(np.column_stack([translations, rot]), 1e-12)
            got = gauge_slice_basis(x)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGaugeFixedSpectrum:
    def test_benchmark_design_classes(self):
        b = benchmark_bundle()
        frameworks = realize_two_cycles(b.graph, b.lengths)
        stable = [fw for fw in frameworks if one_spectrum(b, fw).is_stable()]
        assert len(stable) == 2
        for fw in frameworks:
            spec = one_spectrum(b, fw)
            positive = sum(1 for v in spec.values if v.real > 0)
            assert positive in (0, 1)
            assert len(spec.values) == 5

    def test_matches_reduced_jacobian_spectrum(self):
        b = benchmark_bundle()
        for fw in realize_two_cycles(b.graph, b.lengths):
            gauge = one_spectrum(b, fw)
            reduced = eigenvalues(reduced_J(b, edge_vectors(fw)))
            assert chebyshev(gauge.values, reduced.values) <= 1e-6

    def test_nan_residual_is_refused(self):
        # Agents near 1e155 overflow the squared-law field to inf and NaN;
        # a NaN residual must fail the equilibrium test, not pass it.
        b = VectorFieldBundle(
            two_cycles(),
            builtin_law("gradient_squared"),
            TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0)),
        )
        x = np.array([[0.0, 0.0], [1e155, 0.0], [0.0, 1e155], [1e155, 1e155]])
        fw = Framework(b.graph, x)
        assert np.isnan(eval_F_x(b, fw.x)).any()
        with pytest.raises(FormulaDomainError, match="residual nan"):
            one_record(b, fw)


def spectrum_bits(spec):
    return np.array([(v.real, v.imag) for v in spec.values]).tobytes()


# The batch's laws: the built-ins and a separable law through the array kernel,
# a law whose weight is a call and a coupled one through the scalar flow row
# by row. The coupled pair's weights vanish with its errors at any inner
# product, so designs stay equilibria.
BATCH_LAWS = {
    **{name: builtin_law(name) for name in BUILTIN_LAW_NAMES},
    "separable": make_law("separable"),
    "coupled": CustomLaw(
        lambda d, s2: s2 - d, name="coupled",
        pair_func=lambda dp, sp, s: ((sp[0] - dp[0]) * (1.0 + 0.1 * s * s),
                                     (sp[1] - dp[1]) * (1.0 - 0.2 * s)),
    ),
}


class TestEquilibriumBatch:
    @settings(max_examples=40, deadline=None)
    @given(
        law_name=st.sampled_from(sorted(BATCH_LAWS)),
        sides=st.tuples(*[st.floats(0.5, 6.6)] * 4),
        flip=st.booleans(),
        mu=st.floats(-0.2, 0.2),
    )
    def test_singular_members_match_the_one_framework_oracle(self, law_name, sides, flip, mu):
        # A drawn singular member's realizations, those of a shifted target
        # set as a sweep sample, and the total collapse, whose rigid
        # directions span two dimensions only, so its slice is larger.
        r1, r2, r3, z5 = sides
        try:
            lengths = make_singular_lengths(r1 * r1, r2 * r2, r3 * r3, -z5 if flip else z5).lengths
            shifted = lengths.perturbed(2, mu)
            base = VectorFieldBundle(two_cycles(), BATCH_LAWS[law_name], lengths)
            pairs = [(base, fw) for fw in realize_two_cycles(base.graph, lengths)]
            sample = base.with_lengths(shifted)
            pairs += [(sample, fw) for fw in realize_two_cycles(base.graph, shifted)]
        except InfeasibleLengthsError:
            assume(False)
        pairs.insert(1, (base, Framework(base.graph, np.zeros((4, 2)))))
        batch = EquilibriumBatch()
        for b, fw in pairs:
            batch.add(b, fw)
        spectra = batch.spectra()
        assert [len(spec.values) for spec in spectra[:2]] == [5, 6]
        for (b, fw), spec in zip(pairs, spectra):
            assert spectrum_bits(spec) == spectrum_bits(gauge_spectrum_oracle(b, fw))

    @settings(max_examples=20, deadline=None)
    @given(
        law_name=st.sampled_from(sorted(BATCH_LAWS)),
        graph=st.sampled_from(FLOW_GRAPHS),
        values=st.tuples(*[st.floats(0.5, 6.0)] * 9),
        seed=st.integers(0, 2**16),
    )
    def test_census_records_match_the_one_framework_oracle(self, law_name, graph, values, seed):
        # Off two-cycles the records are Newton's roots alone; the idle-agent
        # graph's agent 3 moves at the array flow's scalar 0.0.
        law = BATCH_LAWS[law_name]
        lengths = TargetLengths.from_values(values[: graph.m], "plain")
        b = VectorFieldBundle(graph, law, lengths)
        report = census(b, n_random=6, seed=seed)
        for rec in report.records:
            assert spectrum_bits(rec.spectrum_gauge) == spectrum_bits(
                gauge_spectrum_oracle(b, rec.framework)
            )
            assert rec.residual == float(np.abs(eval_F_x(b, rec.framework.x)).max())

    def test_a_non_equilibrium_is_refused_and_left_out(self):
        b = benchmark_bundle()
        frameworks = realize_two_cycles(b.graph, b.lengths)
        batch = EquilibriumBatch()
        batch.add(b, frameworks[0])
        moved = frameworks[1].with_positions(frameworks[1].x * 1.05)
        with pytest.raises(FormulaDomainError, match="requires an equilibrium; residual"):
            batch.add(b, moved)
        batch.add(b, frameworks[2])
        assert [fw for _, fw in batch.pairs] == [frameworks[0], frameworks[2]]
        records = batch.records()
        for rec, fw in zip(records, (frameworks[0], frameworks[2])):
            assert_same_record(rec, one_record(b, fw))

    def test_holds_one_graph_and_one_law(self):
        b = benchmark_bundle()
        fw = realize_two_cycles(b.graph, b.lengths)[0]
        batch = EquilibriumBatch()
        batch.add(b, fw)
        # another bundle of the same law and graph may differ in its targets
        batch.add(b.with_lengths(b.lengths), fw)
        other = VectorFieldBundle(b.graph, builtin_law("gradient_squared"), b.lengths)
        with pytest.raises(ConfigurationError, match="one graph and one law"):
            batch.add(other, fw)
        assert EquilibriumBatch().spectra() == [] and EquilibriumBatch().records() == []

    def test_refuses_a_framework_of_another_graph(self):
        # fig2's first realization on a graph whose fourth edge is reversed:
        # the framework's own edges would read its kind against the
        # bundle's targets, and the spectrum would be the bundle's graph's.
        b = fig2_bundle("gradient_squared")
        fw = realize_two_cycles(b.graph, b.lengths)[0]
        reversed_edge = FormationGraph(4, ((0, 1), (1, 2), (2, 0), (2, 3), (0, 3)))
        batch = EquilibriumBatch()
        with pytest.raises(ConfigurationError, match="graph must be its bundle's"):
            batch.add(b, Framework(graph=reversed_edge, x=fw.x))
        assert batch.pairs == [] and batch.residuals == []
        batch.add(b, fw)
        with pytest.raises(ConfigurationError, match="graph must be its bundle's"):
            batch.add(b, Framework(graph=reversed_edge, x=fw.x))
        assert [f for _, f in batch.pairs] == [fw]

    def test_refuses_a_graph_with_no_edges(self):
        b = edgeless_bundle()
        batch = EquilibriumBatch()
        with pytest.raises(ConfigurationError, match="at least one edge"):
            batch.add(b, Framework(graph=b.graph, x=np.zeros((1, 2))))
        assert batch.pairs == [] and batch.records() == []


class TestPoincareIndex:
    def test_benchmark_design_indices(self):
        b = benchmark_bundle()
        for fw in realize_two_cycles(b.graph, b.lengths):
            spec = one_spectrum(b, fw)
            expected = -1 if spec.is_stable() else 1
            assert one_record(b, fw).index == expected

    @pytest.mark.parametrize("law_name", ("gradient_squared", "gradient_plain", "eq1_plain"))
    def test_index_from_the_spectrum_matches_the_determinant_sign(self, law_name):
        # The record reads the index off its spectrum; slogdet's sign of the
        # same gauge matrix is the oracle: fig2's census under the two
        # gradient laws, then seeded random target sets under every law.
        law = builtin_law(law_name)
        bundles = [fig2_bundle(law_name)] if law_name != "eq1_plain" else []
        rng = np.random.default_rng(5)
        for _ in range(4):
            d = tuple(rng.uniform(0.25, 40.0, 5))
            lengths = TargetLengths(d=d)
            bundles.append(VectorFieldBundle(graph=two_cycles(), law=law, lengths=lengths))
        seen = set()
        for b in bundles:
            for rec in census(b, n_random=20, seed=7).records:
                x = rec.framework.x
                basis = gauge_slice_basis(x)
                m = basis.T @ fd_jacobian(b.flow, x.ravel()) @ basis
                assert eigenvalues(m) == rec.spectrum_gauge
                if rec.index is not None:
                    sign, _ = np.linalg.slogdet(m)
                    assert rec.index == int(sign)
                    seen.add(rec.index)
        assert seen == {-1, 1}

    def test_undefined_at_a_singular_witness(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        b = benchmark_bundle().with_lengths(out.lengths)
        assert one_record(b, canonical_gauge(out.witness)).index is None


class TestClassifyKind:
    def test_design_framework(self):
        b = benchmark_bundle()
        fw = realize_two_cycles(b.graph, b.lengths)[0]
        assert classify_kind(b, fw) == "design"

    def test_collinear_framework(self):
        b = benchmark_bundle()
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0], [-0.7, 0.0]])
        assert classify_kind(b, Framework(graph=b.graph, x=x)) == "ancillary_collinear"

    def test_aligned_solutions_are_aligned(self):
        b = benchmark_bundle()
        for rec in solve_ancillary_aligned(b):
            assert rec.kind == "ancillary_aligned"

    def test_generic_framework_is_other(self):
        b = benchmark_bundle()
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 2)) * 3.0
        assert classify_kind(b, Framework(graph=b.graph, x=x)) == "ancillary_other"

    def test_an_aligned_chain_without_pairs_is_other(self):
        # A chain has no two-coleader agent, so no pair to align: edges 1
        # and 5 parallel with the middle edges at target is an equilibrium
        # (edge 6 collapsed) of no aligned kind.
        g = FormationGraph(n=7, edges=tuple((k + 1, k) for k in range(6)))
        b = VectorFieldBundle(
            graph=g, law=builtin_law("gradient_squared"), lengths=TargetLengths(d=(1.0,) * 6)
        )
        x = np.array([[0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [3, 2], [3, 2]], dtype=float)
        fw = Framework(graph=g, x=x)
        assert b.matrices["pairs"] == ()
        assert float(np.max(np.abs(eval_F_x(b, x)))) == 0.0
        assert classify_kind(b, fw) == "ancillary_other"

    def test_a_followers_aligned_pair_is_aligned(self):
        # Two-cycles plus followers: agent 5 (0-based 4) observes agents 1
        # and 2 on their line, agent 6 observes agents 5 and 3. Every edge
        # but agent 5's two is at its target, and agent 5's weights balance
        # along the line, so the framework is an aligned equilibrium.
        g = FormationGraph(
            n=6, edges=two_cycles().edges + ((4, 0), (4, 1), (5, 4), (5, 2))
        )
        core = realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))[0].x
        x = np.vstack([core, core[0] + 2.5 * (core[1] - core[0]), core[2] + [1.3, -0.7]])
        s2 = np.sum(edge_vectors(Framework(graph=g, x=x)) ** 2, axis=1)
        d = s2.copy()
        d[5] -= 1.0  # u5 = 1 on z5 = (5/3) z6, so u6 = -5/3
        d[6] += 5.0 / 3.0
        b = VectorFieldBundle(
            graph=g, law=builtin_law("gradient_squared"), lengths=TargetLengths(d=tuple(d))
        )
        assert b.matrices["pairs"] == ((0, 4), (5, 6), (7, 8))
        rec = one_record(b, Framework(graph=g, x=x))
        assert rec.kind == "ancillary_aligned"

    @settings(max_examples=150, deadline=None)
    @given(
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        shape=st.sampled_from(("random", "aligned", "collinear", "design")),
        coords=st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
        theta=st.floats(0.0, 2.0 * math.pi),
        offsets=st.lists(st.floats(0.5, 2.0), min_size=5, max_size=5),
    )
    def test_two_cycles_kinds_match_the_edge_slot_rule(
        self, law_name, shape, coords, theta, offsets
    ):
        # On two-cycles the graph's one pair is edges 1 and 5, so the pair
        # rule decides as the slot rule it replaced, kept here as the oracle.
        def slot_rule_kind(b, f):
            errs = edge_errors(f, b.lengths, b.law.convention)
            if within_design_tol(errs):
                return "design"
            z = edge_vectors(f)
            svals = np.linalg.svd(z, compute_uv=False)
            if svals[0] <= DESIGN_TOL or svals[1] <= DESIGN_TOL * svals[0]:
                return "ancillary_collinear"
            if edges_aligned(z[0], z[4], DESIGN_TOL) and within_design_tol(errs[1:4]):
                return "ancillary_aligned"
            return "ancillary_other"

        x = np.array(coords).reshape(4, 2)
        if shape == "collinear":
            x[:, 1] = 0.0
        elif shape == "aligned":  # agents 1, 2 and 4 on the x axis
            x[[0, 1, 3], 1] = 0.0
        rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        fw = Framework(graph=two_cycles(), x=x @ rot.T + offsets[:2])
        s2 = np.sum(edge_vectors(fw) ** 2, axis=1)
        assume(np.all(s2 > 1e-6))
        # aligned frameworks keep the middle targets, designs keep every one
        keep = {"aligned": (1, 2, 3), "design": range(5)}.get(shape, ())
        d = [s2[k] if k in keep else s2[k] + offsets[k] for k in range(5)]
        law = builtin_law(law_name)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law,
            lengths=TargetLengths(d=tuple(d)),
        )
        assert classify_kind(b, fw) == slot_rule_kind(b, fw)

    def test_all_kinds_are_known(self):
        assert set(RECORD_KINDS) == {
            "design",
            "ancillary_aligned",
            "ancillary_collinear",
            "ancillary_other",
        }


class TestAlignedSolver:
    def test_benchmark_aligned_equilibria(self):
        b = benchmark_bundle()
        records = solve_ancillary_aligned(b)
        assert len(records) == 4
        for rec in records:
            assert rec.stable
            assert rec.residual <= 1e-9
            z = edge_vectors(rec.framework)
            n1, n5 = np.hypot(*z[0]), np.hypot(*z[4])
            assert abs(planar_cross(z[0], z[4])) <= 1e-9 * n1 * n5
        leads = sorted({round(rec.leading_real, 4) for rec in records})
        assert leads == [-1.7676, -0.5983]

    def test_aligned_only_supports_two_cycles(self):
        g = FormationGraph(n=3, edges=((0, 1), (1, 2), (2, 0)))
        b = VectorFieldBundle(
            graph=g,
            law=builtin_law("gradient_squared"),
            lengths=TargetLengths(d=(1.0, 1.0, 1.0)),
        )
        with pytest.raises(Exception, match="two-cycles"):
            solve_ancillary_aligned(b)
        # the two-cycles edges with a fifth, idle agent are another graph
        idle = VectorFieldBundle(
            graph=FormationGraph(n=5, edges=two_cycles().edges),
            law=builtin_law("gradient_squared"),
            lengths=TargetLengths(d=BENCHMARK_SQUARED),
        )
        with pytest.raises(Exception, match="two-cycles"):
            solve_ancillary_aligned(idle)

    def test_pair_law_takes_the_finite_difference_path(self):
        # A pair law that ignores the coupling is gradient_squared in disguise.
        # The scan reads its weights through pair_weights like any law's; as a
        # non-separable law it gets central differences in aligned_root_near.
        def pair(d_pair, s2_pair, s):
            return (s2_pair[0] - d_pair[0], s2_pair[1] - d_pair[1])

        law = CustomLaw(lambda d, s2: s2 - d, name="uncoupled", pair_func=pair)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths(d=BENCHMARK_SQUARED)
        )
        def positions(bundle):
            return sorted(r.framework.x.ravel().tolist() for r in solve_ancillary_aligned(bundle))

        assert np.allclose(positions(b), positions(benchmark_bundle()), rtol=0.0, atol=1e-8)
        for rec in solve_ancillary_aligned(benchmark_bundle()):
            a, bb, sigma = aligned_parameters(rec.framework)
            fw = aligned_root_near(b, a + 1e-3, bb - 1e-3, sigma)
            assert np.max(np.abs(fw.x - rec.framework.x)) <= 1e-8

    def test_first_and_fifth_errors_do_not_vanish(self):
        # Aligned equilibria balance the two-coleader forces without
        # meeting either of that agent's length targets.
        b = benchmark_bundle()
        from formation_forge.rigidity import edge_errors

        for rec in solve_ancillary_aligned(b):
            errs = edge_errors(rec.framework, b.lengths, b.law.convention)
            assert abs(errs[0]) > 1e-3 and abs(errs[4]) > 1e-3
            assert np.max(np.abs(errs[1:4])) <= 1e-9


def squared_law_aligned_roots():
    """A function from squared targets to their aligned roots ``(a, b)``, a > 0.

    Under the squared law an aligned equilibrium solves two polynomials in
    agent 2's abscissa ``a`` and agent 4's ``b``: the fourth edge at its
    target, ``a b^2 - (a^2 + d3 - d2) b + a (d3 - d4) = 0``, and agent 1's
    balance, ``a^3 - d1 a + b^3 - d5 b = 0``. Their resultant in ``b`` is a
    polynomial of degree 9 in ``a``. Its real roots where agent 3 can stand
    off the line, each with the ``b`` of the quadratic that satisfies the
    cubic, are every aligned equilibrium up to mirror images.
    """
    sp = pytest.importorskip("sympy")
    a, b, *d = sp.symbols("a b d1:6")
    edge4 = a * b**2 - (a**2 + d[2] - d[1]) * b + a * (d[2] - d[3])
    balance = a**3 - d[0] * a + b**3 - d[4] * b
    resultant = sp.Poly(sp.resultant(edge4, balance, b), a)
    assert resultant.degree() == 9
    coefficients = sp.lambdify(d, resultant.all_coeffs())

    def roots(dv):
        d1, d2, d3, d4, d5 = dv
        found = []
        for r in np.roots(np.array(coefficients(*dv), dtype=float)):
            va = r.real
            if abs(r.imag) > 1e-7 * max(1.0, abs(r)) or va <= 1e-9:
                continue
            alpha = (va * va + d3 - d2) / (2.0 * va)
            if d3 - alpha * alpha <= 0.0:
                continue
            p, q = -(va * va + d3 - d2) / va, d3 - d4
            disc = math.sqrt(max(0.0, p * p / 4.0 - q))
            for vb in (-p / 2.0 + disc, -p / 2.0 - disc):
                scale = max(1.0, va**3, abs(vb) ** 3, d1 * va, d5 * abs(vb))
                if abs(va**3 - d1 * va + vb**3 - d5 * vb) <= 1e-6 * scale:
                    found.append((va, vb))
        return found

    return roots


def same_root(p, q):
    return all(abs(u - v) <= 1e-6 * max(1.0, abs(v)) for u, v in zip(p, q))


def test_aligned_scan_finds_every_resultant_root():
    roots = squared_law_aligned_roots()
    rng = np.random.default_rng(3)
    target_sets = [tuple(v * v for v in FIG2_PLAIN), (1.0, 5.0, 4.0, 8.0, 4.0)]
    target_sets += [tuple(row) for row in rng.uniform(0.25, 40.0, (300, 5))]
    law = builtin_law("gradient_squared")
    total = 0
    for d in target_sets:
        b = VectorFieldBundle(graph=two_cycles(), law=law, lengths=TargetLengths(d=d))
        records = solve_ancillary_aligned(b)
        upper = [
            aligned_parameters(r.framework)[:2] for r in records if r.framework.x[2, 1] > 0.0
        ]
        want = []
        for root in roots(d):
            if not any(same_root(root, w) for w in want):
                want.append(root)
        assert len(records) == 2 * len(upper), d
        assert all(any(same_root(w, u) for u in upper) for w in want), d
        assert all(any(same_root(u, w) for w in want) for u in upper), d
        for rec in records:
            assert float(np.max(np.abs(eval_F_x(b, rec.framework.x)))) <= 1e-12, d
        total += len(want)
    assert total == 420


@pytest.mark.parametrize("law_name", ("gradient_squared", "gradient_plain", "eq1_plain"))
def test_aligned_mirror_pairs_have_identical_spectra(law_name):
    # Each mirror is its root with agent 3's height negated, so the
    # linearizations agree up to sign flips and the spectra bit for bit.
    law = builtin_law(law_name)
    b = VectorFieldBundle(
        graph=two_cycles(), law=law,
        lengths=TargetLengths(d=tuple(v * v for v in FIG2_PLAIN)),
    )
    records = solve_ancillary_aligned(b)
    assert len(records) == 4
    for rec, mirror in zip(records[:2], records[2:]):
        flipped = rec.framework.x.copy()
        flipped[2, 1] = -flipped[2, 1]
        assert np.array_equal(mirror.framework.x, flipped)
        assert mirror.spectrum_gauge.values == rec.spectrum_gauge.values


class TestAlignedJacobian:
    @settings(max_examples=80, deadline=None)
    @given(
        law_name=st.sampled_from(("gradient_squared", "gradient_plain", "eq1_plain")),
        a=st.floats(0.3, 5.0),
        bb=st.floats(-5.0, 5.0),
        sigma=st.sampled_from((1.0, -1.0)),
    )
    def test_matches_central_differences_of_the_residual(self, law_name, a, bb, sigma):
        law = builtin_law(law_name)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law,
            lengths=TargetLengths(d=BENCHMARK_SQUARED),
        )
        d = np.array(b.lengths.d)
        res = _aligned_residual(law, d, a, bb)
        assume(res is not None)
        jac = _aligned_jacobian(law, d, a, bb)
        # Straight from the parameters, the residual keeps the rounding of
        # the route through the framework's edge vectors.
        assert np.array_equal(res, aligned_residual(b, d, a, bb, sigma))
        alpha = (a * a + d[2] - d[1]) / (2.0 * a)
        # Central differences lose accuracy as a plain-law edge 4 vanishes.
        assume(bb * bb - 2.0 * alpha * bb + d[2] >= 0.1)
        numeric = np.zeros((2, 2))
        v = np.array([a, bb])
        for col in range(2):
            step = np.eye(2)[col] * 1e-6 * max(1.0, abs(v[col]))
            rp = aligned_residual(b, d, *(v + step), sigma)
            rm = aligned_residual(b, d, *(v - step), sigma)
            assume(np.all(np.isfinite(rp)) and np.all(np.isfinite(rm)))
            numeric[:, col] = (rp - rm) / (2.0 * step[col])
        scale = max(1.0, float(np.max(np.abs(numeric))))
        assert float(np.max(np.abs(jac - numeric))) <= 1e-6 * scale


    @settings(max_examples=80, deadline=None)
    @given(
        a=st.floats(0.3, 5.0),
        bb=st.floats(-5.0, 5.0),
        sigma=st.sampled_from((1.0, -1.0)),
    )
    def test_coupled_pair_residual_matches_the_framework_route(self, a, bb, sigma):
        # A coupled pair reads s = a b through pair_weights as edge_weights
        # does; its Jacobian is left to newton_root's central differences.
        law = make_law("pair")
        assert not law.separable
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths(d=BENCHMARK_SQUARED)
        )
        d = np.array(b.lengths.d)
        res = _aligned_residual(law, d, a, bb)
        assume(res is not None)
        assert np.array_equal(res, aligned_residual(b, d, a, bb, sigma))

    def test_residual_is_nan_off_domain(self):
        # Agent 3 cannot be placed when a is too small for the triangle. The
        # oracle returns NaN there, and _aligned_residual None, which
        # aligned_root_near turns into the NaN that newton_root rejects
        # before it reads the Jacobian, None there too.
        b = benchmark_bundle()
        d = np.array(b.lengths.d)
        assert np.isnan(aligned_residual(b, d, 0.1, 1.0, 1.0)).all()
        assert _aligned_residual(b.law, d, 0.1, 1.0) is None
        assert _aligned_jacobian(b.law, d, 0.1, 1.0) is None


def combined_aligned_system(law, d, a, bb):
    """The aligned residual and its Jacobian in one evaluation, as one system.

    The oracle of the split into ``_aligned_residual`` and ``_aligned_jacobian``:
    the residual and, for separable laws, the closed-form Jacobian, or None
    where agent 3 cannot be placed.
    """
    triangle = _aligned_triangle(d, a)
    if triangle is None:
        return None
    alpha, beta = triangle
    gap = alpha - bb
    s2 = [a * a, gap * gap + beta * beta, bb * bb]
    u1, u5 = law.pair_weights((d[0], d[4]), (s2[0], s2[2]), a * bb)
    u4 = law.weight(d[3], s2[1])
    res = (u4, u1 * a + u5 * bb)
    if not law.separable:
        return res, None
    du = weight_slopes(law, [d[0], d[3], d[4]], s2)
    dalpha = 0.5 - (d[2] - d[1]) / (2.0 * a * a)
    jac = np.array([
        [-2.0 * bb * dalpha * du[1], 2.0 * (bb - alpha) * du[1]],
        [u1 + 2.0 * s2[0] * du[0], u5 + 2.0 * s2[2] * du[2]],
    ])
    return res, jac


def combined_aligned_root_near(b, a0, b0, sigma):
    """``aligned_root_near`` on :func:`combined_aligned_system`, whose line search builds Jacobians."""
    d = b.lengths.d

    def system(v):
        return combined_aligned_system(b.law, d, v[0], v[1]) or ((math.nan, math.nan), None)

    jac = (lambda v: system(v)[1]) if b.law.separable else None
    try:
        a, bb = newton_root(lambda v: system(v)[0], [a0, b0], max_iter=CENSUS_MAX_ITER,
                            tol=NEWTON_TOL, jac=jac).x.tolist()
    except ConvergenceError:
        return None
    alpha, beta = _aligned_triangle(d, a)
    return aligned_framework(b.graph, a, alpha, sigma * beta, bb)


def singular_members(count, seed=0):
    """sweep_s0's targets, then ``count`` singular targets drawn as the sweep benchmark draws them.

    Triangle sides and the fifth length uniform on [0.5, 6.6], the fifth
    length's sign a coin flip; kept when ``mu_sweep`` accepts both ends of
    the CLI's default grid, mu from -0.2 to 0.2 on the third edge.
    """
    members = [(1.0, 5.0, 4.0, 8.0, 4.0)]
    rng = np.random.default_rng(seed)
    while len(members) <= count:
        r1, r2, r3, z5 = rng.uniform(0.5, 6.6, 4)
        signed_z5 = rng.choice((-1.0, 1.0)) * z5
        try:
            d = make_singular_lengths(r1 * r1, r2 * r2, r3 * r3, signed_z5).lengths.d
            for end in (-0.2, 0.2):
                realize_two_cycles(two_cycles(), TargetLengths(d=d).perturbed(2, end))
        except InfeasibleLengthsError:
            continue
        members.append(d)
    return members


@pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES + ("pair",))
def test_aligned_split_reaches_the_combined_systems_roots(monkeypatch, law_name):
    # Every aligned continuation step of a sweep, at sweep_s0 and at 20
    # singular members, and the same steps from a nudged start: the split
    # residual and Jacobian reach the combined system's root bit for bit,
    # or both reach none.
    law = make_law(law_name)
    calls = []

    def recording(bundle, a0, b0, sigma):
        calls.append((bundle, a0, b0, sigma))
        return aligned_root_near(bundle, a0, b0, sigma)

    monkeypatch.setattr(bifurcation, "aligned_root_near", recording)
    for d in singular_members(20):
        lengths = TargetLengths(d=d)
        bundle = VectorFieldBundle(graph=two_cycles(), law=law, lengths=lengths)
        bifurcation.mu_sweep(bundle, eps=0.2, samples=21, mu_edge=2)
    assert len(calls) >= 21 * 20
    found = 0
    for bundle, a0, b0, sigma in calls:
        for start in ((a0, b0), (1.05 * a0, b0 - 0.05)):
            got = aligned_root_near(bundle, *start, sigma)
            want = combined_aligned_root_near(bundle, *start, sigma)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.x.tobytes() == want.x.tobytes()
                found += 1
    assert found


def gap_bundle(a):
    """gradient_squared targets with an aligned equilibrium at agent 2's abscissa ``a``.

    Agents 1, 2 and 4 at 0, ``a`` and 2 on the x axis, agent 3 at (0.3, 1);
    edges 2 to 4 at their targets, the first edge's target 1, and the
    fifth's set so that agent 1's forces balance.
    """
    d = (1.0, (0.3 - a) ** 2 + 1.0, 1.09, 3.89, 4.0 - a / 2.0)
    return VectorFieldBundle(
        graph=two_cycles(), law=builtin_law("gradient_squared"), lengths=TargetLengths(d=d)
    )


class TestAlignedMinGap:
    # ALIGNED_MIN_GAP bounds agent 2's abscissa a on every aligned path. A
    # root 1e-8 from agent 1 lies above it, one 1e-10 away below it.
    def test_a_root_above_the_gap_is_found(self):
        assert 1e-8 > ALIGNED_MIN_GAP
        b = gap_bundle(1e-8)
        fw = aligned_root_near(b, 1e-8, 2.0, 1.0)
        assert fw is not None and abs(fw.x[1, 0] - 1e-8) <= 1e-15
        near = [r for r in solve_ancillary_aligned(b) if r.framework.x[1, 0] < 1e-6]
        assert len(near) == 2
        for rec in near:
            assert abs(rec.framework.x[1, 0] - 1e-8) <= 1e-15
            assert rec.kind == "ancillary_aligned"

    def test_a_root_below_the_gap_is_left_out(self):
        # The same construction 1e-10 from agent 1 is an equilibrium of the
        # flow, but the solver and the continuation do not return it.
        assert 1e-10 < ALIGNED_MIN_GAP
        b = gap_bundle(1e-10)
        a, bb, h = 1e-10, 2.0, 1.0
        x = aligned_framework(b.graph, a, 0.3, h, bb).x
        assert np.max(np.abs(eval_F_x(b, x.ravel()))) <= RESIDUAL_TOL
        assert aligned_root_near(b, a, bb, 1.0) is None
        assert all(r.framework.x[1, 0] > 1e-6 for r in solve_ancillary_aligned(b))


@pytest.fixture(scope="module")
def census_report():
    return census(benchmark_bundle(), n_random=60, seed=7)


@pytest.fixture(scope="module")
def convention_report():
    return identify_convention(BENCHMARK_LENGTHS)


class TestCensus:
    @pytest.fixture
    def report(self, census_report):
        return census_report

    def test_refuses_a_graph_with_no_edges(self):
        with pytest.raises(ConfigurationError, match="at least one edge"):
            census(edgeless_bundle(), 0, 0)

    def test_benchmark_population(self, report):
        assert report.feasible
        assert not report.almost_surely_stable
        assert len([r for r in report.records if r.kind == "design"]) == 4
        assert len([r for r in report.records if r.kind == "ancillary_aligned"]) == 4
        stable_design = [r for r in report.records if r.kind == "design" and r.stable]
        assert len(stable_design) == 2

    def test_stable_records_have_index_minus_one(self, report):
        stable = [r for r in report.records if r.stable]
        assert stable
        for rec in stable:
            assert rec.index == -1

    def test_index_matches_eigenvalue_sign_product(self, report):
        for rec in report.records:
            if rec.index is None:
                continue
            product = np.prod(np.array(rec.spectrum_gauge.values))
            assert rec.index == int(np.sign(product.real))

    def test_residuals_are_equilibrium_grade(self, report):
        b = benchmark_bundle()
        for rec in report.records:
            assert rec.residual <= 1e-9
            assert np.max(np.abs(eval_F_x(b, rec.framework.x))) <= 1e-9

    def test_full_spectrum_is_gauge_plus_three_zeros(self, report):
        b = benchmark_bundle()
        for rec in report.records[:3]:
            jac = fd_jacobian(lambda v: eval_F_x(b, v), rec.framework.x.ravel())
            full = np.array(eigenvalues(jac).values)
            radius = max(1.0, float(np.max(np.abs(full))))
            order = np.argsort(np.abs(full))
            zeros, rest = full[order[:3]], full[order[3:]]
            assert np.max(np.abs(zeros)) <= 1e-6 * radius
            assert chebyshev(rest, rec.spectrum_gauge.values) <= 1e-4 * radius

    def test_identical_inputs_give_identical_reports(self, report):
        again = census(benchmark_bundle(), n_random=60, seed=7)
        assert len(again.records) == len(report.records)
        assert again.dropped_seeds == report.dropped_seeds
        assert again.index_sum == report.index_sum
        for a, r in zip(again.records, report.records):
            assert a.kind == r.kind
            assert np.array_equal(a.framework.x, r.framework.x)
            assert a.spectrum_gauge.values == r.spectrum_gauge.values

    def test_mirror_pairs_share_spectra(self, report):
        flip = np.array([1.0, -1.0])
        for rec in [r for r in report.records if r.kind == "design"]:
            mirrored = canonical_gauge(
                rec.framework.with_positions(rec.framework.x * flip)
            )
            partners = [
                other
                for other in report.records
                if other.kind == "design"
                and np.max(np.abs(other.framework.x - mirrored.x)) <= 1e-6
            ]
            assert len(partners) == 1
            assert (
                chebyshev(partners[0].spectrum_gauge.values, rec.spectrum_gauge.values)
                <= 1e-8
            )

    def test_a_34_agent_chain_runs(self):
        # 68 coordinates less 3 rigid directions: a 65 x 65 gauge matrix,
        # which no size cap may refuse
        g = FormationGraph(n=34, edges=tuple((k + 1, k) for k in range(33)))
        b = VectorFieldBundle(
            graph=g, law=builtin_law("gradient_squared"), lengths=TargetLengths(d=(1.0,) * 33)
        )
        assert census(b, n_random=3, seed=0).records


# The plain lengths of the bundled fig2.json census, in its edge order.
FIG2_PLAIN = (2.0, 2.6, 2.0, 3.3, 1.4)

# sha256 of the fig2 census (n_random=60, seed 7) under each law, over every
# record's kind, index, positions and gauge spectrum, with the dropped-seed
# count beside it. Any change to a bit of the census fails them. The digests
# were last recorded when solve_ancillary_aligned became a scan, which moved
# the aligned seeds by rounding only and put each mirror pair in a fixed
# order; the counts when the collinear line seeds, which never converged
# here, left the census.
FIG2_CENSUS_PINS = {
    "gradient_squared": ("2f4e264b5c7b032d3fb603f7eab5803d77ff64367ca22a286ee350267d555edc", 4),
    "gradient_plain": ("85a17fce6340fe963c03dac631819d91a0d890128aa6df9ed0df14215b792c3a", 1),
}


def census_digest(report):
    h = hashlib.sha256()
    for rec in report.records:
        h.update(rec.kind.encode())
        h.update(repr(rec.index).encode())
        h.update(np.ascontiguousarray(rec.framework.x).tobytes())
        h.update(np.array(rec.spectrum_gauge.values, dtype=complex).tobytes())
    return h.hexdigest()


def fig2_bundle(law_name):
    law = builtin_law(law_name)
    return VectorFieldBundle(
        graph=two_cycles(),
        law=law,
        lengths=TargetLengths(d=tuple(v * v for v in FIG2_PLAIN)),
    )


@pytest.mark.parametrize("law_name", sorted(FIG2_CENSUS_PINS))
def test_fig2_census_is_pinned(law_name):
    report = census(fig2_bundle(law_name), n_random=60, seed=7)
    assert (census_digest(report), report.dropped_seeds) == FIG2_CENSUS_PINS[law_name]


@pytest.mark.parametrize("law_name", sorted(FIG2_CENSUS_PINS))
def test_fig2_census_matches_the_array_newton_oracle(monkeypatch, law_name):
    # Newton on floats must reach every random root of the array form, bit
    # for bit, and drop the same seeds.
    b = fig2_bundle(law_name)
    reports = [census(b, n_random=60, seed=seed) for seed in range(10)]

    def oracle(f, x0, **options):
        return array_newton_root(lambda v: np.array(f(v.tolist())), x0, **options)

    monkeypatch.setattr(equilibria, "newton_root", oracle)
    for seed, report in enumerate(reports):
        expected = census(b, n_random=60, seed=seed)
        assert report.dropped_seeds == expected.dropped_seeds
        assert len(report.records) == len(expected.records)
        for rec, other in zip(report.records, expected.records):
            assert_same_record(rec, other)


def assert_same_record(rec, other):
    assert (rec.kind, rec.index, rec.stable, rec.residual) == (
        other.kind, other.index, other.stable, other.residual
    )
    assert np.array_equal(rec.framework.x, other.framework.x)
    assert rec.spectrum_gauge.values == other.spectrum_gauge.values


class TestCensusTakesStructuralRecordsAsBuilt:
    @pytest.mark.parametrize("law_name", sorted(FIG2_CENSUS_PINS))
    def test_one_spectrum_per_record(self, monkeypatch, law_name):
        # Two passes, the aligned solver's batch and the census's own, take
        # one spectrum per record between them.
        b = fig2_bundle(law_name)
        calls = []
        original = EquilibriumBatch.spectra

        def counted(batch):
            calls.append(len(batch.pairs))
            return original(batch)

        monkeypatch.setattr(EquilibriumBatch, "spectra", counted)
        report = census(b, n_random=60, seed=7)
        assert len(report.records) == 10
        assert len(calls) == 2 and sum(calls) == 10

    @pytest.mark.parametrize("law_name", sorted(FIG2_CENSUS_PINS))
    def test_design_and_aligned_records_are_bit_identical(self, law_name):
        b = fig2_bundle(law_name)
        report = census(b, n_random=60, seed=7)
        built = [one_record(b, fw) for fw in realize_two_cycles(b.graph, b.lengths)]
        built += solve_ancillary_aligned(b)
        assert [r.kind for r in built] == ["design"] * 4 + ["ancillary_aligned"] * 4
        for rec, other in zip(report.records, built):
            assert_same_record(rec, other)

    def test_design_short_of_the_residual_tolerance_is_dropped(self):
        # At 100 times fig2's lengths two realizations' field residuals are
        # about 1e-8 under the squared law; a record of one would be refused.
        b = VectorFieldBundle(
            graph=two_cycles(), law=builtin_law("gradient_squared"),
            lengths=TargetLengths(d=tuple((100.0 * v) ** 2 for v in FIG2_PLAIN)),
        )
        residuals = [
            float(np.max(np.abs(eval_F_x(b, fw.x))))
            for fw in realize_two_cycles(b.graph, b.lengths)
        ]
        short = sum(r > RESIDUAL_TOL for r in residuals)
        assert 0 < short < len(residuals)
        report = census(b, n_random=0, seed=0)
        assert report.dropped_seeds == short
        assert len([r for r in report.records if r.kind == "design"]) == len(residuals) - short

    def test_singular_witness_is_one_design_record(self):
        lengths = TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0))
        b = VectorFieldBundle(graph=two_cycles(), law=builtin_law("gradient_squared"),
                              lengths=lengths)
        witnesses = singular_witnesses(realize_two_cycles(b.graph, lengths))
        assert witnesses
        aligned = solve_ancillary_aligned(b)
        report = census(b, n_random=10, seed=0)

        def near(records, fw):
            return [r for r in records if np.max(np.abs(r.framework.x - fw.x)) <= 1e-6]

        for fw in witnesses:
            # the aligned solver reaches the witness too; the census keeps one record
            assert near(aligned, fw)
            assert [r.kind for r in near(report.records, fw)] == ["design"]


class TestCensusVerdicts:
    def test_verdicts_are_read_off_the_records(self, census_report):
        records = census_report.records
        assert census_report.feasible == any(r.kind == "design" for r in records)
        assert census_report.index_sum == sum(r.index for r in records if r.index is not None)
        bare = CensusReport(records=())
        assert not bare.feasible
        assert bare.almost_surely_stable
        assert bare.index_sum == 0
        assert bare.dropped_seeds == 0


class TestScalarCensus:
    def test_pitchfork_demo(self):
        report = scalar_census(lambda x: x * (1.0 - x * x), design_values=(1.0,))
        assert len(report.records) == 3
        roots = sorted(
            (rec.kind, rec.stable, rec.index, round(rec.leading_real, 6))
            for rec in report.records
        )
        assert roots == [
            ("ancillary_other", False, 1, 1.0),
            ("ancillary_other", True, -1, -2.0),
            ("design", True, -1, -2.0),
        ]
        assert report.feasible
        assert not report.almost_surely_stable
        assert report.index_sum == -1

    def test_exact_slopes_with_supplied_derivative(self):
        report = scalar_census(
            lambda x: x * (1.0 - x * x),
            design_values=(1.0,),
            fprime=lambda x: 1.0 - 3.0 * x * x,
        )
        leads = sorted(rec.leading_real for rec in report.records)
        assert leads == pytest.approx([-2.0, -2.0, 1.0], abs=1e-9)

    def test_records_have_no_frameworks(self):
        report = scalar_census(lambda x: -x, design_values=(0.0,))
        assert all(rec.framework is None for rec in report.records)
        assert report.almost_surely_stable

    def test_seeds_whose_newton_fails_are_skipped(self):
        # x^2 + 1 has no real root, so Newton fails from every seed.
        report = scalar_census(lambda x: x * x + 1.0, design_values=(0.0,))
        assert report.records == ()
        assert not report.feasible


class TestIdentifyConvention:
    @pytest.fixture
    def report(self, convention_report):
        return convention_report

    def test_all_combinations_are_scored(self, report):
        assert len(report.candidates) == 12

    def test_best_candidate_is_qualitative_only(self, report):
        best = report.best
        assert best.law_name == "gradient_squared"
        assert best.interpretation == "plain_values"
        assert best.leg_order == "swapped_pair"
        assert best.qualitative_ok
        # The reference spectra are quoted to one decimal; no convention
        # reproduces them to the quantitative tolerance.
        assert not best.quantitative_ok
        assert 0.3 <= best.worst_deviation <= 1.0

    def test_self_consistency_when_published_matches(self, report):
        published = {
            key: spec.values for key, spec in report.best.spectra.items()
        }
        again = identify_convention(BENCHMARK_LENGTHS, published=published)
        assert again.best.law_name == report.best.law_name
        assert again.best.leg_order == report.best.leg_order
        assert again.best.quantitative_ok
        assert again.best.worst_deviation <= 1e-9

    def test_tangent_targets_give_one_design_class(self):
        # Squared targets (1, 5, 4, 1, 1) make agent 4's circles tangent, so both
        # realizations share one spectrum; read as plain lengths, the triangle
        # (1, 5, 4) is flat. References of one value pair with no spectrum.
        one_value = {key: [-1.0] for key in BENCHMARK_SPECTRA}
        report = identify_convention((1.0, 5.0, 4.0, 1.0, 1.0), published=one_value)
        for c in report.candidates:
            assert c.feasible == (c.interpretation == "squared_values")
            if c.feasible:
                assert c.spectra["design_stable"] is c.spectra["design_unstable"]
                assert c.worst_deviation == math.inf

    def test_reference_spectra_shape(self):
        assert set(BENCHMARK_SPECTRA) == {"design_stable", "design_unstable", "aligned"}
        for values in BENCHMARK_SPECTRA.values():
            assert len(values) == 5
