"""Tests for frameworks, rigidity predicates, and the singular length set."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from formation_forge.errors import (
    ConfigurationError,
    FormationForgeError,
    InfeasibleLengthsError,
)
from formation_forge.graph import FormationGraph, mixed_adjacency, two_cycles
from formation_forge.numkernel import kron_I2, rank_tol
from formation_forge.rigidity import (
    Framework,
    TargetLengths,
    edge_block_rows,
    edge_errors,
    edge_vectors,
    edges_aligned,
    in_singular_set,
    length_errors,
    make_singular_lengths,
    planar_cross,
    realize_two_cycles,
    rigidity_matrix,
    rigidity_verdicts,
    singular_witnesses,
)
from normal_forms import array_realize_two_cycles

BENCHMARK_SQUARED = (4.0, 6.76, 4.0, 10.89, 1.96)


def framework(x):
    return Framework(graph=two_cycles(), x=np.asarray(x, dtype=float))


def random_framework(rng, graph=None):
    g = graph if graph is not None else two_cycles()
    return Framework(graph=g, x=rng.normal(size=(g.n, 2)))


def rotate_translate(fw, theta, t):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return fw.with_positions(fw.x @ rot.T + np.asarray(t))


def verdicts(f, tol):
    """Infinitesimally and minimally rigid, read off the framework's one rank."""
    return rigidity_verdicts(f.graph, rank_tol(rigidity_matrix(f), tol))


def two_cycles_witnesses(lengths):
    return singular_witnesses(realize_two_cycles(two_cycles(), lengths))


def edge_deletion_minimally_rigid(f, tol):
    """The former rule, kept as the oracle: rigid, and every edge deletion loses the rank."""
    g = f.graph
    if rank_tol(rigidity_matrix(f), tol) != 2 * g.n - 3:
        return False
    for k in range(g.m):
        reduced = FormationGraph(n=g.n, edges=g.edges[:k] + g.edges[k + 1 :])
        if rank_tol(rigidity_matrix(Framework(graph=reduced, x=f.x)), tol) >= 2 * g.n - 3:
            return False
    return True


def random_outvalence_graph(rng, n, m):
    """``m`` distinct edges on ``n`` vertices, each vertex observing at most two."""
    pairs = [(o, t) for o in range(n) for t in range(n) if o != t]
    rng.shuffle(pairs)
    edges, counts = [], [0] * n
    for o, t in pairs:
        if len(edges) < m and counts[o] < 2:
            edges.append((o, t))
            counts[o] += 1
    return FormationGraph(n=n, edges=tuple(edges))


class TestFramework:
    def test_wrong_shape_rejected(self):
        with pytest.raises(ConfigurationError, match=r"expected 4 planar points, got .* \(3, 2\)"):
            Framework(graph=two_cycles(), x=np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_rejected(self, bad):
        x = np.zeros((4, 2))
        x[2, 1] = bad
        with pytest.raises(ConfigurationError, match="framework coordinates must be finite"):
            Framework(graph=two_cycles(), x=x)

    def test_later_writes_to_the_input_do_not_reach_the_framework(self):
        x = np.arange(8.0).reshape(4, 2)
        fw = Framework(graph=two_cycles(), x=x)
        x[1, 0] = 99.0
        assert fw.x.tolist() == np.arange(8.0).reshape(4, 2).tolist()

    def test_a_fortran_ordered_input_gives_a_c_contiguous_read_only_copy(self):
        x = np.asfortranarray(np.arange(8.0).reshape(4, 2))
        fw = Framework(graph=two_cycles(), x=x)
        assert fw.x.flags.c_contiguous and not fw.x.flags.writeable
        assert np.array_equal(fw.x, x)
        with pytest.raises(ValueError):
            fw.x[0, 0] = 1.0


class TestEdgeVectors:
    def test_explicit_square_layout(self):
        fw = framework([(0, 0), (1, 0), (0, 1), (-1, 0)])
        z = edge_vectors(fw)
        expected = [(1, 0), (-1, 1), (0, -1), (1, 1), (-1, 0)]
        assert np.array_equal(z, np.asarray(expected, float))

    def test_superposed_agents_give_zero_vectors(self):
        fw = framework(np.ones((4, 2)))
        assert np.array_equal(edge_vectors(fw), np.zeros((5, 2)))

    def test_translation_invariance(self):
        fw = framework([(0, 0), (1, 0), (0, 1), (-1, 0)])
        shifted = fw.with_positions(fw.x + np.array([5.0, 7.0]))
        assert np.array_equal(edge_vectors(fw), edge_vectors(shifted))

    def test_matches_doubled_incidence_product(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            fw = random_framework(rng)
            stacked = kron_I2(mixed_adjacency(fw.graph)) @ fw.x.ravel()
            assert np.max(np.abs(edge_vectors(fw).ravel() - stacked)) <= 1e-14

    def test_block_row_matrix_projects_onto_edges(self):
        rng = np.random.default_rng(1)
        fw = random_framework(rng)
        z = edge_vectors(fw)
        w = rng.normal(size=(5, 2))
        assert np.allclose(edge_block_rows(z) @ w.ravel(), np.sum(z * w, axis=1))


class TestEdgeErrors:
    def test_vanish_on_design_frameworks(self):
        lengths = TargetLengths(d=BENCHMARK_SQUARED)
        for fw in realize_two_cycles(two_cycles(), lengths):
            assert np.max(np.abs(edge_errors(fw, lengths, "squared"))) <= 1e-12

    def test_unit_edge_zero_error(self):
        g = FormationGraph(n=2, edges=((0, 1),))
        fw = Framework(graph=g, x=np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert edge_errors(fw, TargetLengths(d=(1.0,)), "squared")[0] == 0.0

    def test_squared_convention_value(self):
        g = FormationGraph(n=2, edges=((0, 1),))
        fw = Framework(graph=g, x=np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert edge_errors(fw, TargetLengths(d=(1.0,)), "squared")[0] == 3.0

    def test_plain_convention_value(self):
        g = FormationGraph(n=2, edges=((0, 1),))
        fw = Framework(graph=g, x=np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert edge_errors(fw, TargetLengths(d=(1.0,)), "plain")[0] == 1.0

    def test_length_count_mismatch(self):
        fw = framework(np.zeros((4, 2)))
        with pytest.raises(ConfigurationError):
            edge_errors(fw, TargetLengths(d=(1.0, 1.0)), "squared")

    @pytest.mark.parametrize("convention", ["Plain", None])
    def test_an_unknown_convention_is_refused(self, convention):
        message = f"unknown length convention {convention!r}; expected one of"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            length_errors(np.array([1.0, 0.0, 0.0, 1.0]), (1.0, 1.0), convention)
        fw = Framework(graph=FormationGraph(n=2, edges=((0, 1),)), x=np.eye(2))
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            edge_errors(fw, TargetLengths(d=(1.0,)), convention)


class TestTargetLengths:
    def test_plain_values_are_squared_for_storage(self):
        lengths = TargetLengths.from_values((2.0, 3.0), convention="plain")
        assert lengths.d == (4.0, 9.0)
        assert tuple(math.sqrt(v) for v in lengths.d) == (2.0, 3.0)

    def test_squared_values_are_stored_as_given(self):
        lengths = TargetLengths.from_values((2.0, 3.0), convention="squared")
        assert lengths.d == (2.0, 3.0)

    @pytest.mark.parametrize("value", [0.0, -2.0])
    def test_nonpositive_plain_value_rejected(self, value):
        with pytest.raises(InfeasibleLengthsError, match="plain lengths must be positive"):
            TargetLengths.from_values((1.0, value), convention="plain")

    def test_nonpositive_rejected(self):
        with pytest.raises(InfeasibleLengthsError):
            TargetLengths(d=(1.0, 0.0))

    def test_a_plain_value_whose_square_overflows_is_named(self):
        with pytest.raises(ConfigurationError) as info:
            TargetLengths.from_values((1.0, 1e155), convention="plain")
        assert str(info.value) == (
            "edge 2's plain length 1e+155 overflows the float range when squared"
        )

    def test_a_plain_value_whose_square_underflows_is_named(self):
        # 1e-200 is positive and finite, but its square rounds to zero.
        with pytest.raises(ConfigurationError) as info:
            TargetLengths.from_values((1.0, 1e-200), convention="plain")
        assert str(info.value) == "edge 2's plain length 1e-200 underflows to zero when squared"
        assert TargetLengths.from_values((1e-160,), convention="plain").d[0] > 0.0  # subnormal

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_plain_value_that_is_not_finite_keeps_its_message(self, value):
        message = "^target lengths must be positive and finite$"
        with pytest.raises(InfeasibleLengthsError, match=message):
            TargetLengths.from_values((1.0, value), convention="plain")

    def test_unknown_convention_rejected(self):
        with pytest.raises(ConfigurationError):
            TargetLengths.from_values((1.0,), "cubed")

    def test_perturbed_shifts_one_entry(self):
        lengths = TargetLengths(d=(1.0, 2.0, 3.0))
        assert lengths.perturbed(1, 0.5).d == (1.0, 2.5, 3.0)

    @pytest.mark.parametrize("edge", [-1, 3])
    def test_perturbed_refuses_an_edge_outside_the_graph(self, edge):
        # -1 would wrap around to the last edge, 3 would be a bare IndexError.
        with pytest.raises(ConfigurationError, match=f"edge index {edge} outside 0..2"):
            TargetLengths(d=(1.0, 2.0, 3.0)).perturbed(edge, 0.5)


class TestRigidityMatrix:
    def test_row_sign_layout(self):
        fw = framework([(0, 0), (1, 0), (0, 1), (-1, 0)])
        r = rigidity_matrix(fw)
        z = edge_vectors(fw)
        for i, (o, t) in enumerate(fw.graph.edges):
            row = np.zeros(8)
            row[2 * o : 2 * o + 2] = -z[i]
            row[2 * t : 2 * t + 2] = z[i]
            assert np.array_equal(r[i], row)

    def test_factors_through_block_rows(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            fw = random_framework(rng)
            product = edge_block_rows(edge_vectors(fw)) @ kron_I2(mixed_adjacency(fw.graph))
            assert np.max(np.abs(rigidity_matrix(fw) - product)) <= 1e-12

    def test_collinear_framework_drops_rank(self):
        fw = framework([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert rank_tol(rigidity_matrix(fw), 1e-9) < 5

    def test_rank_is_rigid_motion_invariant(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            fw = random_framework(rng)
            rank = rank_tol(rigidity_matrix(fw), 1e-9)
            moved = rotate_translate(fw, rng.uniform(0, 2 * np.pi), rng.normal(size=2))
            assert rank_tol(rigidity_matrix(moved), 1e-9) == rank


class TestRigidityPredicates:
    def test_generic_framework_is_rigid(self):
        fw = realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))[0]
        assert verdicts(fw, 1e-9)[0]

    def test_parallel_edge_witness_is_rigid(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        assert verdicts(out.witness, 1e-9)[0]

    def test_collinear_framework_is_not_rigid(self):
        fw = framework([(0, 0), (1, 0), (2, 0), (3, 0)])
        assert verdicts(fw, 1e-9) == (False, False)

    def test_two_cycles_is_minimally_rigid(self):
        fw = realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))[0]
        assert verdicts(fw, 1e-9) == (True, True)

    def test_redundant_edge_breaks_minimality(self):
        base = realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))[0]
        g = FormationGraph(n=4, edges=base.graph.edges + ((1, 3),))
        fw = Framework(graph=g, x=base.x)
        assert verdicts(fw, 1e-9) == (True, False)

    def test_triangle_is_minimally_rigid(self):
        g = FormationGraph(n=3, edges=((0, 1), (1, 2), (2, 0)))
        fw = Framework(graph=g, x=np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.8]]))
        assert verdicts(fw, 1e-9) == (True, True)


class TestMinimalRigidityRule:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rank_count_matches_the_edge_deletion_rule(self, data):
        n = data.draw(st.integers(3, 6))
        m = data.draw(st.integers(2 * n - 4, 2 * n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fw = Framework(graph=random_outvalence_graph(rng, n, m), x=rng.normal(size=(n, 2)))
        assert verdicts(fw, 1e-9)[1] == edge_deletion_minimally_rigid(fw, 1e-9)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_zero_tolerance_refused_on_every_size(self, n):
        graph = FormationGraph(n=n, edges=tuple((k + 1, k) for k in range(n - 1)))
        fw = Framework(graph=graph, x=np.random.default_rng(n).normal(size=(n, 2)))
        with pytest.raises(ConfigurationError, match="rank tolerance must be positive"):
            verdicts(fw, 0.0)


class TestRealization:
    def test_generic_lengths_give_four_frameworks(self):
        frameworks = realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))
        assert len(frameworks) == 4
        for fw in frameworks:
            assert np.array_equal(fw.x[0], [0.0, 0.0])
            assert fw.x[1][1] == 0.0 and fw.x[1][0] > 0.0

    def test_infeasible_triangle_names_edges(self):
        lengths = TargetLengths(d=(1.0, 25.0, 4.0, 8.0, 4.0))
        with pytest.raises(InfeasibleLengthsError, match="edges 1, 2, 3"):
            realize_two_cycles(two_cycles(), lengths)

    def test_squares_past_the_float_range_are_refused_as_an_overflow(self):
        # Equilateral targets of 1e308 are feasible, but the sum of two
        # squared radii is inf: the refusal names the overflow, not the
        # triangle inequality.
        lengths = TargetLengths(d=(1e308,) * 5)
        with pytest.raises(ConfigurationError, match="edges 1, 2, 3 overflow the float range"):
            realize_two_cycles(two_cycles(), lengths)

    def test_second_triangle_infeasibility_names_edges(self):
        lengths = TargetLengths(d=(1.0, 5.0, 4.0, 100.0, 4.0))
        with pytest.raises(InfeasibleLengthsError, match="edges 3, 4, 5"):
            realize_two_cycles(two_cycles(), lengths)

    def test_rejects_other_graphs(self):
        g = FormationGraph(n=3, edges=((0, 1), (1, 2), (2, 0)))
        with pytest.raises(ConfigurationError):
            realize_two_cycles(g, TargetLengths(d=(1.0, 1.0, 1.0)))
        # the two-cycles edges with a fifth, idle agent are another graph
        g = FormationGraph(n=5, edges=two_cycles().edges)
        with pytest.raises(ConfigurationError, match="two-cycles graph"):
            realize_two_cycles(g, TargetLengths(d=(1.0,) * 5))

    @pytest.mark.parametrize("count", [4, 6])
    def test_rejects_a_target_count_other_than_five(self, count):
        with pytest.raises(ConfigurationError, match=f"needs 5 target lengths, got {count}"):
            realize_two_cycles(two_cycles(), TargetLengths(d=(1.0,) * count))


def squared_edge_lengths(points):
    """The two-cycles squared edge lengths of four agents given as eight coordinates."""
    x = np.reshape(np.asarray(points, dtype=float), (4, 2))
    z = x[[1, 2, 0, 2, 3]] - x[[0, 1, 2, 3, 0]]
    return tuple(float(v) for v in np.sum(z * z, axis=1))


coordinates = st.floats(-5.0, 5.0)


@st.composite
def near_flat_targets(draw):
    """Agents within 1e-13 of a line, targets shifted by up to 1e-13 relative: flat and tangent triangles."""
    xs = draw(st.lists(coordinates, min_size=4, max_size=4))
    ys = draw(st.lists(st.floats(-1e-13, 1e-13), min_size=4, max_size=4))
    shifts = draw(st.lists(st.floats(-1e-13, 1e-13), min_size=5, max_size=5))
    d = squared_edge_lengths([v for pair in zip(xs, ys) for v in pair])
    return tuple(v * (1.0 + t) for v, t in zip(d, shifts))


@st.composite
def scaled_targets(draw):
    """Targets read off random agents whose coordinates are scaled by 1e-20 to 1e20."""
    points = draw(st.lists(coordinates, min_size=8, max_size=8))
    scale = 10.0 ** draw(st.floats(-20.0, 20.0))
    return squared_edge_lengths([scale * v for v in points])


@st.composite
def vanishing_third_edge_targets(draw):
    """Agent 3 within 1e-14 of agent 1: a triangle flat within rounding, its apex clamped to the axis."""
    e = 10.0 ** draw(st.floats(-17.0, -14.0))
    tilt = draw(st.floats(0.5, 1.5))
    x4 = draw(coordinates)
    return squared_edge_lengths([0.0, 0.0, 1.0, 1.0, e, e * tilt, x4, 1.0])


realizer_targets = st.one_of(
    st.tuples(*[st.floats(0.01, 100.0)] * 5),  # generic, feasible or not
    st.lists(coordinates, min_size=8, max_size=8).map(squared_edge_lengths),
    near_flat_targets(),
    scaled_targets(),
    vanishing_third_edge_targets(),
    # mixed magnitudes, where the circle abscissa's square can pass the float range
    st.tuples(*[st.floats(-300.0, 300.0).map(lambda k: 10.0**k)] * 5),
)


def realization_outcome(realize, d):
    """Each framework's bytes, or the refusal's class and message."""
    try:
        # NumPy's overflow gives inf, as under run_scenario
        with np.errstate(all="ignore"):
            frameworks = realize(two_cycles(), TargetLengths(d=d))
    except FormationForgeError as exc:
        return type(exc), str(exc)
    return [fw.x.tobytes() for fw in frameworks]


class TestRealizationOnFloats:
    @settings(max_examples=600, deadline=None)
    @given(d=realizer_targets)
    @example(d=squared_edge_lengths([0.0, 0.0, 1.0, 1.0, 3.9e-16, 3.9e-16, 0.0, 1.0]))
    @example(d=(1e-300, 1.0, 1e10, 1.0, 1.0))  # the first abscissa's square overflows
    @example(d=(1.0, 1.0, 1.0, 1.0, 1.0))  # agents 2 and 4 coincide in one realization
    @example(d=(1e308,) * 5)  # the circle abscissa's numerator overflows
    # flat within rounding, yet the clamped apex misses edge 2's target
    @example(d=(6.031488263166337, 6.658104267921951, 0.015480688925320526,
                3.544476758474448, 4.028448395448576))
    def test_matches_the_array_realizer_bit_for_bit(self, d):
        assume(all(math.isfinite(v) and v > 0.0 for v in d))
        assert realization_outcome(realize_two_cycles, d) == realization_outcome(
            array_realize_two_cycles, d
        )


class TestSingularLengths:
    def test_canonical_construction(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        assert out.lengths.d == (1.0, 5.0, 4.0, 8.0, 4.0)
        z = edge_vectors(out.witness)
        assert abs(planar_cross(z[0], z[4])) <= 1e-12
        assert np.max(np.abs(edge_errors(out.witness, out.lengths, "squared"))) <= 1e-12
        assert not out.coincident_agents

    def test_negative_offset_lands_on_second_agent(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, -1.0)
        assert out.coincident_agents
        assert np.max(np.abs(out.witness.x[3] - out.witness.x[1])) <= 1e-12

    def test_degenerate_triangle_is_rejected(self):
        with pytest.raises(InfeasibleLengthsError, match="degenerate"):
            make_singular_lengths(1.0, 4.0, 9.0, 2.0)

    def test_zero_offset_is_rejected(self):
        with pytest.raises(InfeasibleLengthsError):
            make_singular_lengths(1.0, 5.0, 4.0, 0.0)

    @pytest.mark.parametrize(
        "d, name", [((0.0, 5.0, 4.0), "d1"), ((1.0, -5.0, 4.0), "d2"), ((1.0, 5.0, 0.0), "d3")]
    )
    def test_nonpositive_triangle_target_is_rejected(self, d, name):
        with pytest.raises(InfeasibleLengthsError, match=f"{name} must be positive"):
            make_singular_lengths(*d, 2.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 5.0, 4.0, 2.0), "d1 must be positive"),
            ((1.0, math.nan, 4.0, 2.0), "d2 must be positive"),
            ((1.0, 5.0, math.nan, 2.0), "d3 must be positive"),
            ((1.0, 5.0, 4.0, math.nan), "fifth-edge length must be finite"),
            ((1.0, 5.0, 4.0, math.inf), "fifth-edge length must be finite"),
            ((1.0, 5.0, 4.0, -math.inf), "fifth-edge length must be finite"),
        ],
    )
    def test_non_finite_input_is_rejected_by_name(self, args, message):
        with pytest.raises(InfeasibleLengthsError, match=message):
            make_singular_lengths(*args)


class TestSingularSet:
    def test_constructed_lengths_are_members(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            r = rng.uniform(0.5, 2.0, size=3)
            d1, d2 = r[0] ** 2, (r[0] + r[1]) ** 2 * 0.8
            d3 = (np.sqrt(d1) + np.sqrt(d2)) ** 2 * 0.7
            s = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            out = make_singular_lengths(d1, d2, d3, s)
            assert in_singular_set(out.lengths)
            assert len(two_cycles_witnesses(out.lengths)) >= 1

    def test_benchmark_lengths_are_not_members(self):
        lengths = TargetLengths.from_values((2.0, 2.6, 2.0, 1.4, 3.3), convention="plain")
        assert not in_singular_set(lengths)
        # nor within 1e-6, a thousand times SINGULAR_TOL: edges 1 and 5 are two-cycles' one pair
        for fw in realize_two_cycles(two_cycles(), lengths):
            assert not edges_aligned(*edge_vectors(fw)[[0, 4]], 1e-6)

    def test_equilateral_lengths_are_members_via_coincident_agents(self):
        # Two of the four realizations place agent 4 on top of agent 2, which
        # makes the first and last edge vectors equal and hence parallel.
        lengths = TargetLengths(d=(1.0, 1.0, 1.0, 1.0, 1.0))
        assert in_singular_set(lengths)
        coincident = [
            fw
            for fw in two_cycles_witnesses(lengths)
            if np.max(np.abs(fw.x[3] - fw.x[1])) <= 1e-12
        ]
        assert len(coincident) == 2

    def test_generic_scaled_lengths_are_not_members(self):
        assert not in_singular_set(TargetLengths(d=(1.0, 2.0, 1.5, 2.5, 1.2)))

    def test_witness_appears_among_realizations(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        hits = two_cycles_witnesses(out.lengths)
        assert hits
        for fw in hits:
            z = edge_vectors(fw)
            n1, n5 = np.hypot(*z[0]), np.hypot(*z[4])
            assert abs(planar_cross(z[0], z[4])) <= 1e-9 * n1 * n5

    def test_a_pair_of_another_graph_is_found(self):
        # Two-cycles plus agent 5 observing agents 1 and 2: its pair (edges
        # 6 and 7) aligns when it sits on their line, the x axis, and the
        # frameworks are tested on their own graph's pairs.
        graph = FormationGraph(n=5, edges=two_cycles().edges + ((4, 0), (4, 1)))
        base = realize_two_cycles(two_cycles(), TargetLengths(d=BENCHMARK_SQUARED))[0]
        assert not singular_witnesses([base])
        on_line, off_line = (
            Framework(graph=graph, x=np.vstack([base.x, [p]])) for p in ([3.5, 0.0], [3.5, 0.5])
        )
        assert singular_witnesses([off_line, on_line]) == [on_line]


class TestEdgesAligned:
    @pytest.mark.parametrize(
        "u, v, aligned",
        [
            ((1.0, 0.0), (2.0, 0.0), True),
            ((1.0, 1.0), (-3.0, -3.0), True),
            ((1.0, 0.0), (0.0, 1.0), False),
            ((1.0, 0.0), (1.0, 5e-10), True),
            ((1.0, 0.0), (1.0, 2e-9), False),
            ((0.0, 0.0), (1.0, 0.0), False),
            ((1.0, 0.0), (0.0, 0.0), False),
            ((5e-10, 0.0), (1.0, 0.0), False),
        ],
    )
    def test_cases(self, u, v, aligned):
        assert edges_aligned(np.array(u), np.array(v), 1e-9) is aligned

    def test_invariant_under_rotation_and_scale(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            u = rng.normal(size=2)
            theta = rng.uniform(0.0, 2.0 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
            scale = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            assert edges_aligned(rot @ u, scale * (rot @ u), 1e-9)


class TestBlockRowRank:
    def test_full_row_rank_without_zero_edges(self):
        rng = np.random.default_rng(7)
        fw = random_framework(rng)
        assert rank_tol(edge_block_rows(edge_vectors(fw)), 1e-9) == 5

    def test_zero_edge_drops_row_rank(self):
        # Superposing the first two agents kills the first edge vector.
        fw = framework([(0, 0), (0, 0), (0.4, 1.1), (-0.9, 0.2)])
        z = edge_vectors(fw)
        assert np.max(np.abs(z[0])) == 0.0
        assert rank_tol(edge_block_rows(z), 1e-9) == 4
