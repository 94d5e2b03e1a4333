"""Tests for the control laws, the formation flow, and its factorizations."""

import math
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formation_forge.dynamics import (
    BUILTIN_LAW_NAMES,
    ControlLaw,
    CustomLaw,
    GradientSquaredLaw,
    VectorFieldBundle,
    builtin_law,
    edge_weights,
    eval_F_x,
    eval_F_z,
    jacobian_d,
    jacobian_x,
    jacobian_z,
    reduced_J,
    verify_compatibility,
    zdprime_vectors,
    zprime_vectors,
)
from formation_forge.errors import (
    ConfigurationError,
    DimensionError,
    FormulaDomainError,
    InconsistentStateError,
    UnknownLawError,
)
from formation_forge.graph import FormationGraph, graph_matrices, mixed_adjacency, two_cycles
from formation_forge.numkernel import (
    eigenvalues,
    fd_jacobian,
    integrate_ode,
    kron_I2,
    left_nullspace,
    rank_tol,
)
from formation_forge.rigidity import (
    Framework,
    TargetLengths,
    edge_vectors,
    make_singular_lengths,
    realize_two_cycles,
)
from normal_forms import one_spectrum, scalar_census

BENCHMARK_SQUARED = (4.0, 6.76, 4.0, 10.89, 1.96)
SQUARED = builtin_law("gradient_squared")


def squared_bundle(d, gain=1.0):
    return VectorFieldBundle(
        graph=two_cycles(),
        law=builtin_law("gradient_squared", gain=gain),
        lengths=TargetLengths(d=tuple(d)),
    )


def random_design_point(rng, law=SQUARED):
    """A random two-cycles framework, and the bundle whose targets are its squared lengths."""
    fw = Framework(graph=two_cycles(), x=rng.normal(size=(4, 2)))
    z = edge_vectors(fw)
    lengths = TargetLengths(d=tuple(np.sum(z * z, axis=1)))
    return fw, z, VectorFieldBundle(graph=two_cycles(), law=law, lengths=lengths)


class TestControlLaws:
    @pytest.mark.parametrize("name", BUILTIN_LAW_NAMES)
    def test_builtin_weights_vanish_at_zero_error(self, name):
        law = builtin_law(name, gain=1.7)
        assert verify_compatibility(law, (0.5, 1.0, 4.0, 10.89)) == 0.0

    def test_gradient_squared_weight_and_derivatives(self):
        law = builtin_law("gradient_squared", gain=2.0)
        assert law.weight(4.0, 9.0) == 10.0
        assert law.weight_dlen(4.0, 9.0) == 2.0
        assert law.weight_dtarget(4.0, 9.0) == -2.0
        assert law.weight_dlen2(4.0, 9.0) == 0.0

    def test_gradient_plain_weight(self):
        law = builtin_law("gradient_plain", gain=3.0)
        assert law.weight(4.0, 9.0) == pytest.approx(3.0, abs=1e-15)
        assert law.weight_dlen(4.0, 9.0) == pytest.approx(0.5, abs=1e-15)

    def test_the_base_law_has_no_weight(self):
        with pytest.raises(NotImplementedError):
            ControlLaw().weight(1.0, 1.0)

    def test_repr_names_the_law_class_and_gain(self):
        assert repr(builtin_law("gradient_plain", 2.0)) == "GradientPlainLaw(gain=2.0)"

    def test_literal_plain_law_repels(self):
        literal = builtin_law("eq1_plain")
        reference = builtin_law("gradient_plain")
        assert literal.weight(4.0, 9.0) == -reference.weight(4.0, 9.0)

    def test_unknown_law_lists_builtins(self):
        with pytest.raises(UnknownLawError, match="gradient_squared"):
            builtin_law("bang_bang")

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ConfigurationError):
            builtin_law("gradient_squared", gain=0.0)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf")])
    def test_nonfinite_gain_rejected(self, gain):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            builtin_law("gradient_squared", gain=gain)

    @settings(max_examples=100, deadline=None)
    @given(
        name=st.sampled_from(BUILTIN_LAW_NAMES),
        gain=st.floats(0.1, 10.0),
        d=st.floats(1e-2, 1e2),
        s2=st.floats(1e-2, 1e2),
    )
    def test_builtin_hooks_match_the_central_difference_defaults(self, name, gain, d, s2):
        law = builtin_law(name, gain=gain)
        for hook, rel, scale in (
            ("weight_dlen", 1e-6, gain / math.sqrt(s2)),
            ("weight_dtarget", 1e-6, gain / math.sqrt(d)),
            ("weight_dlen2", 1e-3, gain / s2),
        ):
            closed = getattr(law, hook)(d, s2)
            differenced = getattr(ControlLaw, hook)(law, d, s2)
            assert abs(closed - differenced) <= rel * scale

    def test_custom_law_finite_difference_hooks(self):
        law = CustomLaw(
            lambda d, s2: (s2 - d) + 0.3 * (s2 - d) ** 2,
            name="quadratic",
        )
        d, s2 = 2.0, 3.5
        e = s2 - d
        assert law.weight(d, s2) == pytest.approx(e + 0.3 * e * e, abs=1e-12)
        assert law.weight_dlen(d, s2) == pytest.approx(1.0 + 0.6 * e, abs=1e-8)
        assert law.weight_dtarget(d, s2) == pytest.approx(-1.0 - 0.6 * e, abs=1e-8)
        assert law.weight_dlen2(d, s2) == pytest.approx(0.6, abs=1e-5)

    def test_custom_pair_law_cross_derivatives(self):
        # The pair's slopes in both squared lengths reach jacobian_z through
        # the field's finite differences, so its spectrum is the gauge one.
        law = CustomLaw(lambda d, s2: s2 - d, name="coupled", pair_func=cross_pair)
        assert not law.separable
        fw, z, b = random_design_point(np.random.default_rng(21), law)
        assert spectrum_gap(fw, z, b) <= 1e-7


# The central differences CustomLaw and the scalar census of the tests'
# normal_forms wrote out by hand before they called fd_jacobian and
# fd_second_directional, kept as the oracle that the move changed no bit.
def quotient_step(v):
    return 1e-6 * max(1.0, abs(float(v)))


def quotient_dlen(f, d, s2):
    h = quotient_step(s2)
    return (f(d, s2 + h) - f(d, s2 - h)) / (2.0 * h)


def quotient_dtarget(f, d, s2):
    h = quotient_step(d)
    return (f(d + h, s2) - f(d - h, s2)) / (2.0 * h)


def quotient_dlen2(f, d, s2):
    h = 1e-4 * max(1.0, abs(float(s2)))
    return (f(d, s2 + h) - 2.0 * f(d, s2) + f(d, s2 - h)) / (h * h)


def quotient_slope(f, x):
    h = 1e-6 * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


QUOTIENT_WEIGHTS = (
    lambda d, s2: (s2 - d) * (1.0 + 0.5 * s2),
    lambda d, s2: math.sqrt(s2) - math.sqrt(d),
    lambda d, s2: math.tanh(s2 - d) * d,
)


def curved_pair(d_pair, s2_pair, s):
    """A two-coleader law whose weights curve in both squared lengths."""
    ea, eb = s2_pair[0] - d_pair[0], s2_pair[1] - d_pair[1]
    ua = ea * (1.0 + 0.1 * s2_pair[1] ** 2) + 0.1 * s
    return ua, eb * math.exp(-0.2 * s2_pair[0]) - 0.2 * s


class TestCustomLawStencils:
    @settings(max_examples=100, deadline=None)
    @given(
        k=st.integers(0, len(QUOTIENT_WEIGHTS) - 1),
        d=st.floats(1e-3, 1e3),
        s2=st.floats(1e-3, 1e3),
    )
    def test_hooks_match_the_hand_written_quotients(self, k, d, s2):
        # ControlLaw's default hooks, which CustomLaw inherits; a pair_func
        # leaves the single-edge hooks alone.
        f = QUOTIENT_WEIGHTS[k]
        law = CustomLaw(f, name="oracle", pair_func=curved_pair)
        assert same_bits(law.weight_dlen(d, s2), quotient_dlen(f, d, s2))
        assert same_bits(law.weight_dtarget(d, s2), quotient_dtarget(f, d, s2))
        assert same_bits(law.weight_dlen2(d, s2), quotient_dlen2(f, d, s2))

    def test_overflowing_weight_differences_to_nan_without_a_warning(self):
        # The float quotients turned inf - inf into NaN silently; so must the
        # array stencil, or the RuntimeWarning filter of the suite trips.
        law = CustomLaw(lambda d, s2: s2 * s2 * 1e300, name="overflow")
        assert math.isnan(law.weight_dlen2(1.0, 1e10))
        assert math.isnan(quotient_dlen2(law.weight, 1.0, 1e10))

    @settings(max_examples=40, deadline=None)
    @given(roots=st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    def test_scalar_census_slope_matches_the_hand_written_quotient(self, roots):
        a, b, c = roots
        calls = []

        def f(x):
            calls.append(x)
            return -(x - a) * (x - b) * (x - c)

        report = scalar_census(f, [a])
        assert report.records
        # Each record ends with f at its root + h and root - h (the slope),
        # then at the root itself (the residual).
        tail = calls[-3 * len(report.records):]
        for rec, root in zip(report.records, tail[2::3]):
            assert same_bits(rec.spectrum_gauge.values[0].real, quotient_slope(f, root))


class TestBundle:
    def test_length_count_must_match_edges(self):
        with pytest.raises(ConfigurationError):
            squared_bundle((1.0, 1.0))

    def test_targets_bind_to_a_law_of_either_convention(self):
        # The targets are numbers; how an edge error reads them is the law's.
        for name in ("gradient_squared", "gradient_plain"):
            lengths = TargetLengths(d=BENCHMARK_SQUARED)
            b = VectorFieldBundle(graph=two_cycles(), law=builtin_law(name), lengths=lengths)
            assert b.lengths is lengths

    def test_with_lengths_swaps_targets_only(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        other = b.with_lengths(TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0)))
        assert other.graph is b.graph and other.law is b.law
        assert other.lengths.d == (1.0, 5.0, 4.0, 8.0, 4.0)


class TestAgentField:
    def test_vanishes_on_design_frameworks(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        for fw in realize_two_cycles(two_cycles(), b.lengths):
            assert np.max(np.abs(eval_F_x(b, fw.x))) <= 1e-12

    def test_vanishes_on_superposed_agents(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        assert np.max(np.abs(eval_F_x(b, np.ones((4, 2))))) == 0.0

    def test_collinear_states_stay_collinear(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0], [-0.7, 0.0]])
        assert np.max(np.abs(eval_F_x(b, x)[:, 1])) == 0.0

    def test_flat_input_gives_flat_output(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        flat = eval_F_x(b, x.ravel())
        assert flat.shape == (8,)
        assert np.array_equal(flat, eval_F_x(b, x).ravel())

    @pytest.mark.parametrize("route", [eval_F_x, jacobian_x])
    def test_wrong_coordinate_count_is_a_dimension_error(self, route):
        b = squared_bundle(BENCHMARK_SQUARED)
        with pytest.raises(DimensionError, match="6 coordinates for 4 planar agents"):
            route(b, np.zeros(6))

    def test_velocity_reads_only_observed_agents(self):
        # Edges run 1->2, 2->3, 3->1, 4->3, 1->4. Moving agent 2 leaves
        # the velocities of agents 3 and 4 untouched, moving agent 3
        # leaves agent 1 untouched, and moving agent 4 leaves agents 2
        # and 3 untouched. The untouched rows must agree bit for bit,
        # not merely closely.
        b = squared_bundle(BENCHMARK_SQUARED)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=(4, 2))
            base = eval_F_x(b, x)
            moved = x.copy()
            moved[1] += rng.normal(size=2)
            bumped = eval_F_x(b, moved)
            assert np.array_equal(bumped[2], base[2])
            assert np.array_equal(bumped[3], base[3])
            moved = x.copy()
            moved[2] += rng.normal(size=2)
            bumped = eval_F_x(b, moved)
            assert np.array_equal(bumped[0], base[0])
            moved = x.copy()
            moved[3] += rng.normal(size=2)
            bumped = eval_F_x(b, moved)
            assert np.array_equal(bumped[1], base[1])
            assert np.array_equal(bumped[2], base[2])

    def test_rigid_motion_equivariance(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=(4, 2))
            theta = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            t = rng.normal(size=2)
            moved = eval_F_x(b, x @ rot.T + t)
            assert np.max(np.abs(moved - eval_F_x(b, x) @ rot.T)) <= 1e-12


def loop_weights(b, z):
    """Per-edge weights of the flat edge vectors ``z``, one law call per origin agent.

    A lone edge gets ``law.weight``; a two-coleader pair gets
    ``law.pair_weights`` with its inner product summed in floats, for
    every law: a separable law's is ``law.weight`` of each edge.
    """
    law, d = b.law, b.lengths.d
    by_origin = {}
    for k, (o, _) in enumerate(b.graph.edges):
        by_origin.setdefault(o, []).append(k)
    u = [0.0] * b.graph.m
    for ks in by_origin.values():
        if len(ks) == 1:
            (k,) = ks
            u[k] = law.weight(d[k], z[2 * k] * z[2 * k] + z[2 * k + 1] * z[2 * k + 1])
            continue
        i, j = ks
        zi, zj = (z[2 * i], z[2 * i + 1]), (z[2 * j], z[2 * j + 1])
        s = zi[0] * zj[0] + zi[1] * zj[1]
        s2 = (zi[0] * zi[0] + zi[1] * zi[1], zj[0] * zj[0] + zj[1] * zj[1])
        u[i], u[j] = law.pair_weights((d[i], d[j]), s2, s)
    return u


def gather_scatter_field(b, x):
    """The agent field as a gather, :func:`loop_weights` and a scatter.

    The flat edge vectors are gathered edge by edge, and each ``u_k z_k``
    is added into its origin agent in edge order from 0.0, as a list of
    floats. ``VectorFieldBundle.flow`` must match it bit for bit.
    """
    xs = np.asarray(x, dtype=float).ravel().tolist()
    z = []
    for o, t in b.graph.edges:
        z.append(xs[2 * t] - xs[2 * o])
        z.append(xs[2 * t + 1] - xs[2 * o + 1])
    u = loop_weights(b, z)
    xdot = [0.0] * len(xs)
    for k, (o, _) in enumerate(b.graph.edges):
        xdot[2 * o] += u[k] * z[2 * k]
        xdot[2 * o + 1] += u[k] * z[2 * k + 1]
    return xdot


def coupled_pair(d_pair, s2_pair, s):
    """tests/test_kernel.py's two-coleader law that reads the pair's inner product."""
    return (s2_pair[0] - d_pair[0] + 0.1 * s, s2_pair[1] - d_pair[1] - 0.2 * s)


class PairOverrideLaw(ControlLaw):
    """tests/test_kernel.py's law with its own ``pair_weights``, so a coupled one.

    The pair's weights ``1.3 s2 - 1.3 d`` ignore the inner product but
    round differently from ``weight``'s ``1.3 (s2 - d)``, so weighing a
    pair with ``weight`` would move bits.
    """

    name = "pair_override"

    def weight(self, d, s2):
        return 1.3 * (s2 - d)

    def weight_dlen(self, d, s2):
        return 1.3

    def pair_weights(self, d_pair, s2_pair, s):
        return 1.3 * s2_pair[0] - 1.3 * d_pair[0], 1.3 * s2_pair[1] - 1.3 * d_pair[1]


FLOW_LAWS = {
    **{name: builtin_law(name) for name in BUILTIN_LAW_NAMES},
    "separable": CustomLaw(lambda d, s2: (s2 - d) * (1.0 + 0.5 * s2), name="separable"),
    "pair": CustomLaw(lambda d, s2: s2 - d, name="pair", pair_func=coupled_pair),
    "pair_override": PairOverrideLaw(),
}
# Agent 1 (1-based) observes two others, agents 2 and 4 one each, and agent 3
# observes nobody, so its velocity stays 0.0.
IDLE_AGENT = FormationGraph(n=4, edges=((0, 1), (0, 2), (1, 2), (3, 1)))
# Two-cycles plus followers: agent 5 observes 1 and 2, agent 6 observes 5
# and 3, so three agents are two-coleader agents.
TWO_CYCLES_FOLLOWERS = FormationGraph(
    n=6, edges=two_cycles().edges + ((4, 0), (4, 1), (5, 4), (5, 2))
)
# Every agent observes at most one other: no two-coleader pair at all.
CHAIN = FormationGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
FLOW_GRAPHS = (two_cycles(), IDLE_AGENT, TWO_CYCLES_FOLLOWERS, CHAIN)
FLOW_VALUES = (2.0, 2.6, 2.0, 3.3, 1.4, 1.7, 2.2, 1.9, 3.1)


def flow_bundle(graph, law):
    lengths = TargetLengths.from_values(FLOW_VALUES[: graph.m], law.convention)
    return VectorFieldBundle(graph=graph, law=law, lengths=lengths)


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestFloatFlow:
    @settings(max_examples=120, deadline=None)
    @given(
        law_name=st.sampled_from(sorted(FLOW_LAWS)),
        graph=st.sampled_from(FLOW_GRAPHS),
        coords=st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_matches_the_gather_scatter_oracle_bit_for_bit(
        self, law_name, graph, coords, collapse
    ):
        b = flow_bundle(graph, FLOW_LAWS[law_name])
        coords = coords[: 2 * graph.n]
        if collapse is not None:
            # Coincident agents give the edge between them zero length.
            o, t = graph.edges[collapse % graph.m]
            coords[2 * t : 2 * t + 2] = coords[2 * o : 2 * o + 2]
        expected = gather_scatter_field(b, coords)
        flow = b.flow(list(coords))
        assert all(type(v) is float for v in flow)
        assert same_bits(flow, expected)
        assert same_bits(eval_F_x(b, np.array(coords)), expected)
        rows = eval_F_x(b, np.array(coords).reshape(graph.n, 2))
        assert rows.shape == (graph.n, 2) and same_bits(rows.ravel(), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        graph=st.sampled_from(FLOW_GRAPHS),
        states=st.lists(
            st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12), min_size=1, max_size=16
        ),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_coordinate_arrays_give_the_per_state_bits(self, law_name, graph, states, collapse):
        # The graph's kernel compiled with np.sqrt runs every built-in law on
        # one NumPy array per coordinate, with the targets one array per edge.
        b = flow_bundle(graph, builtin_law(law_name))
        pts = np.array(states)[:, : 2 * graph.n]
        if collapse is not None:
            o, t = graph.edges[collapse % graph.m]
            pts[:, 2 * t : 2 * t + 2] = pts[:, 2 * o : 2 * o + 2]
        # each state its own targets: the bundle's, scaled by 1, 1.5, 2, ...
        scale = 1.0 + 0.5 * np.arange(len(pts))
        columns = b.array_flow([dk * scale for dk in b.lengths.d])(list(pts.T))
        if graph == IDLE_AGENT:  # agent 3 observes nobody: the scalar 0.0 for every state
            assert [type(v) for v in columns[4:6]] == [float, float] and columns[4:6] == [0.0, 0.0]
        stacked = np.array([np.broadcast_to(v, len(pts)) for v in columns]).T
        own = [b.with_lengths(TargetLengths(d=[dk * k for dk in b.lengths.d])) for k in scale]
        assert same_bits(stacked, [bk.flow(row) for bk, row in zip(own, pts.tolist())])

    def test_no_array_flow_for_a_called_weight_or_a_coupled_law(self):
        for name in ("separable", "pair", "pair_override"):
            b = flow_bundle(two_cycles(), FLOW_LAWS[name])
            assert b.array_flow(b.lengths.d) is None

    def test_bundle_reads_the_graph_cache(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        assert b.matrices is graph_matrices(b.graph) is b.matrices
        # The kernel is compiled once per graph and law expression; each bundle
        # binds its own targets.
        other = b.with_lengths(TargetLengths(d=(1.0,) * 5))
        assert other.flow.__globals__ is b.flow.__globals__
        x = [0.0, 0.0, 1.0, 0.1, 0.5, 1.0, -1.0, 0.3]
        assert same_bits(other.flow(x), gather_scatter_field(other, x))
        assert not same_bits(other.flow(x), b.flow(x))
        # The kernel reads floats and the law's hooks only: its namespace holds no module.
        namespace = b.flow.__globals__.values()
        assert not any(isinstance(value, types.ModuleType) for value in namespace)


class TestEdgeField:
    def test_vanishes_on_design_edge_vectors(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        for fw in realize_two_cycles(two_cycles(), b.lengths):
            z = edge_vectors(fw)
            assert np.max(np.abs(eval_F_z(b, z))) <= 1e-12

    def test_pushforward_of_agent_field(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        mixed2 = kron_I2(mixed_adjacency(b.graph))
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=(4, 2))
            z = edge_vectors(Framework(graph=b.graph, x=x))
            assert np.max(np.abs(eval_F_z(b, z).ravel() - mixed2 @ eval_F_x(b, x).ravel())) <= 1e-12

    def test_cycle_violation_is_rejected(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]).copy()
        z[0] += np.array([0.5, 0.0])
        with pytest.raises(InconsistentStateError, match="cycle"):
            eval_F_z(b, z)

    @pytest.mark.parametrize(
        "route", [eval_F_z, zprime_vectors, zdprime_vectors, jacobian_z, jacobian_d, reduced_J]
    )
    def test_wrong_coordinate_count_is_a_dimension_error(self, route):
        # Nine numbers are no state of two-cycles' five edge vectors; NumPy's
        # reshape raised a bare ValueError here.
        b = squared_bundle(BENCHMARK_SQUARED)
        with pytest.raises(DimensionError, match="9 coordinates for 5 planar edge vectors"):
            route(b, np.zeros(9))

    @pytest.mark.parametrize("factor", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("share, refused", [(0.5, False), (2.0, True)])
    def test_cycle_sums_are_checked_at_1e_6_of_the_largest_coordinate(
        self, factor, share, refused
    ):
        # A cycle sum of half the bound passes and one of twice it is refused,
        # the bound being 1e-6 times the largest coordinate, at least 1.
        b = squared_bundle(BENCHMARK_SQUARED)
        z = factor * edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0])
        cycle = left_nullspace(mixed_adjacency(b.graph), 1e-12)[:, 0]
        z[:, 0] += share * 1e-6 * max(1.0, float(np.max(np.abs(z)))) * cycle
        if refused:
            with pytest.raises(InconsistentStateError, match="cycle"):
                eval_F_z(b, z)
        else:
            assert eval_F_z(b, z).shape == (5, 2)

    def test_check_flag_admits_off_surface_states(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]).copy()
        z[0] += np.array([0.5, 0.0])
        out = eval_F_z(b, z, check=False)
        assert out.shape == (5, 2)

    def test_cycle_sums_are_conserved_along_the_flow(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        cycles = left_nullspace(mixed_adjacency(b.graph), 1e-12)
        fw = realize_two_cycles(two_cycles(), b.lengths)[0]
        rng = np.random.default_rng(4)
        x = fw.x + 0.1 * rng.normal(size=(4, 2))
        z0 = edge_vectors(Framework(graph=b.graph, x=x))
        run = integrate_ode(
            lambda v: eval_F_z(b, v, check=False), z0.ravel(), t_end=5.0, step=1e-3
        )
        z_end = run.final_state.reshape(5, 2)
        assert np.max(np.abs(cycles.T @ z_end)) <= 1e-8


class TestResponseVectors:
    def test_zprime_scales_with_gain(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(5, 2))
        for gain in (1.0, 1.75):
            b = squared_bundle(BENCHMARK_SQUARED, gain=gain)
            assert np.array_equal(zprime_vectors(b, z), 2.0 * gain * z)

    def test_zdprime_is_target_sensitivity(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 2))
        b = squared_bundle(BENCHMARK_SQUARED, gain=1.25)
        assert np.array_equal(zdprime_vectors(b, z), -1.25 * z)

    def test_pair_coupling_is_refused_by_zprime(self):
        # A pair_func makes a law coupled even when it weighs the pair as
        # gradient_squared does; the separable law keeps its vectors.
        def pair(d_pair, s2_pair, s):
            return (s2_pair[0] - d_pair[0], s2_pair[1] - d_pair[1])

        coupled = VectorFieldBundle(
            graph=two_cycles(),
            law=CustomLaw(lambda d, s2: s2 - d, name="cross", pair_func=pair),
            lengths=TargetLengths(d=BENCHMARK_SQUARED),
        )
        z = np.random.default_rng(7).normal(size=(5, 2))
        with pytest.raises(FormulaDomainError, match="separable law"):
            zprime_vectors(coupled, z)
        assert np.array_equal(zprime_vectors(squared_bundle(BENCHMARK_SQUARED), z), 2.0 * z)


class TestJacobianZ:
    def test_matches_finite_differences_at_design_points(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            _, z, b = random_design_point(rng)
            analytic = jacobian_z(b, z)
            numeric = fd_jacobian(lambda v: eval_F_z(b, v, check=False), z.ravel())
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale

    def test_matches_finite_differences_for_plain_law(self):
        rng = np.random.default_rng(9)
        fw = Framework(graph=two_cycles(), x=rng.normal(size=(4, 2)))
        z = edge_vectors(fw)
        values = tuple(np.sqrt(np.sum(z * z, axis=1)))
        b = VectorFieldBundle(
            graph=two_cycles(),
            law=builtin_law("gradient_plain"),
            lengths=TargetLengths.from_values(values, convention="plain"),
        )
        analytic = jacobian_z(b, z)
        numeric = fd_jacobian(lambda v: eval_F_z(b, v, check=False), z.ravel())
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale

    def test_zero_eigenvalue_multiplicity_is_five(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            _, z, b = random_design_point(rng)
            values = np.array(eigenvalues(jacobian_z(b, z)).values)
            radius = max(1.0, float(np.max(np.abs(values))))
            assert int(np.sum(np.abs(values) <= 1e-8 * radius)) == 5

    def test_nonzero_spectrum_matches_reduced_jacobian(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            _, z, b = random_design_point(rng)
            full = np.array(eigenvalues(jacobian_z(b, z)).values)
            order = np.argsort(np.abs(full))
            nonzero = np.sort_complex(full[order[5:]])
            small = np.sort_complex(np.array(eigenvalues(reduced_J(b, z)).values))
            assert np.max(np.abs(nonzero - small)) <= 1e-6

    def test_refused_away_from_design_points(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]) * 1.1
        with pytest.raises(FormulaDomainError, match="design equilibria"):
            jacobian_z(b, z)
        z[0, 0] = np.nan  # a NaN edge error is not within the design tolerance
        with pytest.raises(FormulaDomainError, match="design equilibria"):
            jacobian_z(b, z)


def fig2_bundle(law_name):
    law = builtin_law(law_name)
    lengths = TargetLengths.from_values((2.0, 2.6, 2.0, 3.3, 1.4), convention="plain")
    return VectorFieldBundle(graph=two_cycles(), law=law, lengths=lengths)


def relative_gap(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


class TestJacobianX:
    @settings(max_examples=60, deadline=None)
    @given(
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        x=st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
    )
    def test_matches_finite_differences_away_from_equilibrium(self, law_name, x):
        b = fig2_bundle(law_name)
        x = np.array(x)
        z = edge_vectors(Framework(graph=b.graph, x=x.reshape(4, 2)))
        # Central differences lose accuracy near a vanishing plain-law edge.
        assume(float(np.min(np.hypot(z[:, 0], z[:, 1]))) >= 0.1)
        numeric = fd_jacobian(lambda v: eval_F_x(b, v), x)
        assert relative_gap(jacobian_x(b, x), numeric) <= 1e-7

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES)
    def test_zero_length_edge_takes_the_limit(self, law_name):
        # Agents 2 and 3 coincide, so edge 2 has zero length; gradient_plain's
        # weight slope is infinite there but its product with z z^T tends to 0.
        b = fig2_bundle(law_name)
        x = np.array([0.0, 0.0, 1.5, 0.5, 1.5, 0.5, -1.0, 2.0])
        with np.errstate(divide="raise", invalid="raise"):
            analytic = jacobian_x(b, x)
        u2 = edge_weights(b, [0.0] * 10)[1]
        assert np.array_equal(analytic[2:4, 4:6], u2 * np.eye(2))
        assert np.array_equal(analytic[2:4, 2:4], -u2 * np.eye(2))
        # At the kink of |z| at zero, central differences are only O(h) accurate.
        numeric = fd_jacobian(lambda v: eval_F_x(b, v), x)
        assert relative_gap(analytic, numeric) <= 1e-5

    def test_pair_law_falls_back_to_finite_differences(self):
        def pair(d_pair, s2_pair, s):
            return (s2_pair[0] - d_pair[0] + s, s2_pair[1] - d_pair[1] - s)

        law = CustomLaw(lambda d, s2: s2 - d, name="inner", pair_func=pair)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths(d=(1.0,) * 5)
        )
        x = np.random.default_rng(3).normal(size=8)
        numeric = fd_jacobian(lambda v: eval_F_x(b, v), x)
        assert np.array_equal(jacobian_x(b, x), numeric)


class DoubledPairLaw(GradientSquaredLaw):
    """gradient_squared with each two-coleader pair's weights doubled."""

    def pair_weights(self, d_pair, s2_pair, s):
        ua, ub = super().pair_weights(d_pair, s2_pair, s)
        return 2.0 * ua, 2.0 * ub


def cross_pair(d_pair, s2_pair, s):
    """u_a = (s2_a - d_a)(1 + 0.1 s2_b), u_b = (s2_b - d_b)(1 - 0.2 s2_a)."""
    ea, eb = s2_pair[0] - d_pair[0], s2_pair[1] - d_pair[1]
    return ea * (1.0 + 0.1 * s2_pair[1]), eb * (1.0 - 0.2 * s2_pair[0])


class CrossPairLaw(GradientSquaredLaw):
    """gradient_squared with :func:`cross_pair` for each two-coleader pair."""

    def pair_weights(self, d_pair, s2_pair, s):
        return cross_pair(d_pair, s2_pair, s)


def target_reading_pair(d_pair, s2_pair, s):
    """u_a = s2_a - d_a, u_b = (s2_b - d_b)(1 + 0.1 d_a): u_b reads d_a."""
    ea, eb = s2_pair[0] - d_pair[0], s2_pair[1] - d_pair[1]
    return ea, eb * (1.0 + 0.1 * d_pair[0])


def joint_pair(d_pair, s2_pair, s):
    """u_a = e_a + 0.3 e_b, u_b = e_b - 0.2 e_a: zero only where both errors are."""
    ea, eb = s2_pair[0] - d_pair[0], s2_pair[1] - d_pair[1]
    return ea + 0.3 * eb, eb - 0.2 * ea


COUPLED_LAWS = {
    "doubled": DoubledPairLaw,
    "cross": CrossPairLaw,
    "target_reading": lambda: CustomLaw(lambda d, s2: s2 - d, pair_func=target_reading_pair),
    "joint": lambda: CustomLaw(lambda d, s2: s2 - d, pair_func=joint_pair),
}
RULE_LAWS = {
    **COUPLED_LAWS, **{name: lambda name=name: builtin_law(name) for name in BUILTIN_LAW_NAMES}
}


def spectrum_gap(fw, z, b):
    """Relative gap between jacobian_z's 5 nonzero eigenvalues and the gauge spectrum."""
    full = np.array(eigenvalues(jacobian_z(b, z)).values)
    nonzero = np.sort_complex(full[np.argsort(np.abs(full))[5:]])
    gauge = np.sort_complex(np.array(one_spectrum(b, fw).values))
    return float(np.max(np.abs(nonzero - gauge))) / float(np.max(np.abs(gauge)))


def target_gap(fw, z, b):
    """Relative gap between jacobian_d and the x-form's differences in the targets."""
    x = fw.x.ravel()
    in_x = fd_jacobian(lambda v: eval_F_x(b.with_lengths(TargetLengths(v)), x), b.lengths.d)
    expected = kron_I2(mixed_adjacency(b.graph)) @ in_x
    return float(np.max(np.abs(jacobian_d(b, z) - expected))) / float(np.max(np.abs(expected)))


class WeightOnlyLaw(ControlLaw):
    """A law that writes ``weight`` and no derivative hook."""

    name = "weight_only"

    def weight(self, d, s2):
        return QUOTIENT_WEIGHTS[0](d, s2)


class TestDerivativeRule:
    """A law's closed-form hook where it writes one, else a finite difference."""

    @pytest.mark.parametrize("name", sorted(RULE_LAWS))
    def test_jacobian_z_holds_the_gauge_spectrum(self, name):
        rng = np.random.default_rng(20)
        for _ in range(10):
            assert spectrum_gap(*random_design_point(rng, RULE_LAWS[name]())) <= 1e-7

    @pytest.mark.parametrize("name", sorted(RULE_LAWS))
    def test_jacobian_d_matches_the_x_form_in_the_targets(self, name):
        rng = np.random.default_rng(22)
        for _ in range(10):
            assert target_gap(*random_design_point(rng, RULE_LAWS[name]())) <= 1e-7

    @pytest.mark.parametrize("name", sorted(COUPLED_LAWS))
    def test_response_vectors_refuse_a_coupled_law(self, name):
        _, z, b = random_design_point(np.random.default_rng(23), COUPLED_LAWS[name]())
        for route in (zprime_vectors, zdprime_vectors, reduced_J):
            with pytest.raises(FormulaDomainError, match="separable law"):
                route(b, z)

    @settings(max_examples=60, deadline=None)
    @given(d=st.floats(1e-3, 1e3), s2=st.floats(1e-3, 1e3))
    def test_unwritten_hooks_are_custom_law_differences(self, d, s2):
        law, custom = WeightOnlyLaw(), CustomLaw(QUOTIENT_WEIGHTS[0])
        for hook in ("weight_dlen", "weight_dtarget", "weight_dlen2"):
            assert same_bits(getattr(law, hook)(d, s2), getattr(custom, hook)(d, s2))


class TestCoupling:
    def test_a_subclass_cannot_define_separable(self):
        with pytest.raises(ConfigurationError, match="DeclaredSeparable defines separable"):

            class DeclaredSeparable(DoubledPairLaw):
                separable = True

    def test_a_coupled_subclass_differences_its_pair_weights(self):
        # A subclass that replaces pair_weights gets the field's finite
        # differences, as a CustomLaw with the same pair does.
        _, z, sub = random_design_point(np.random.default_rng(4), CrossPairLaw())
        custom = VectorFieldBundle(
            graph=two_cycles(),
            law=CustomLaw(lambda d, s2: s2 - d, pair_func=cross_pair),
            lengths=sub.lengths,
        )
        assert np.array_equal(jacobian_z(sub, z), jacobian_z(custom, z))
        assert np.array_equal(jacobian_d(sub, z), jacobian_d(custom, z))

    def test_a_law_that_replaces_pair_weights_is_coupled(self):
        law = DoubledPairLaw()
        assert not law.separable
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0))
        )
        x = [0.0, 0.0, 2.1, 0.1, 0.9, 1.8, -1.0, 0.3]
        assert np.array_equal(jacobian_x(b, x), fd_jacobian(b.flow, x))

    def test_separable_is_derived_and_cannot_be_set(self):
        laws = (
            builtin_law("gradient_plain"),
            CustomLaw(lambda d, s2: s2 - d),
            CustomLaw(lambda d, s2: s2 - d, pair_func=lambda d, s2, s: (s2[0], s2[1])),
        )
        assert [law.separable for law in laws] == [True, True, False]
        for law in laws:
            with pytest.raises(AttributeError):
                law.separable = True

    def test_a_separable_law_makes_no_pair_weights_call(self, monkeypatch):
        def refuse(self, d_pair, s2_pair, s):
            raise AssertionError("a separable law's pair was weighed with pair_weights")

        x = [0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1, 0.4, 2.2, -0.7, -1.5]
        names = BUILTIN_LAW_NAMES + ("separable",)
        bundles = [
            VectorFieldBundle(
                graph=TWO_CYCLES_FOLLOWERS,
                law=FLOW_LAWS[name],
                lengths=TargetLengths.from_values(
                    (2.0, 2.6, 2.0, 3.3, 1.4, 1.7, 2.2, 1.9, 3.1), FLOW_LAWS[name].convention
                ),
            )
            for name in names
        ]
        expected = [gather_scatter_field(b, x) for b in bundles]
        # A CustomLaw without a pair_func inherits this one, as the built-in laws do.
        monkeypatch.setattr(ControlLaw, "pair_weights", refuse)
        for b, xdot in zip(bundles, expected):
            assert b.law.separable
            assert b.flow(x) == xdot


class TestJacobianD:
    def test_matches_finite_differences_in_targets(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            _, z, b = random_design_point(rng)
            analytic = jacobian_d(b, z)

            def in_targets(dv):
                return eval_F_z(b.with_lengths(TargetLengths(d=tuple(dv))), z.ravel())

            numeric = fd_jacobian(in_targets, np.asarray(b.lengths.d))
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale

    def test_refused_away_from_design_points(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]) * 1.1
        with pytest.raises(FormulaDomainError, match="design equilibria"):
            jacobian_d(b, z)
        z[0, 0] = np.nan  # a NaN edge error is not within the design tolerance
        with pytest.raises(FormulaDomainError, match="design equilibria"):
            jacobian_d(b, z)

    def test_left_kernels_agree_at_a_singular_witness(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        b = squared_bundle(out.lengths.d)
        z = edge_vectors(out.witness)
        in_z = jacobian_z(b, z)
        in_d = jacobian_d(b, z)
        w_z = left_nullspace(in_z, 1e-8)
        w_d = left_nullspace(in_d, 1e-8)
        assert w_z.shape == w_d.shape
        assert np.linalg.norm(w_z.T @ in_d) <= 1e-8 * np.linalg.norm(in_d)
        assert np.linalg.norm(w_d.T @ in_z) <= 1e-8 * np.linalg.norm(in_z)


class TestReducedJacobian:
    def test_full_rank_at_generic_design_points(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        for fw in realize_two_cycles(two_cycles(), b.lengths):
            reduced = reduced_J(b, edge_vectors(fw))
            assert rank_tol(reduced, 1e-8) == 5
            assert min(abs(v.real) for v in eigenvalues(reduced).values) > 1e-6

    def test_corank_one_at_a_singular_witness(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        b = squared_bundle(out.lengths.d)
        reduced = reduced_J(b, edge_vectors(out.witness))
        assert rank_tol(reduced, 1e-8) == 4

    def test_zero_edge_state_loses_more_rank(self):
        b = squared_bundle((1.0, 1.0, 1.0, 4.0, 4.0))
        z = np.array([(1, 0), (-1, 0), (0, 0), (-2, 0), (2, 0)], dtype=float)
        assert rank_tol(reduced_J(b, z), 1e-9) == 3

    def test_zero_length_edge_gets_slope_zero(self):
        # gradient_plain's slope divides by the length; on a zero-length edge
        # the response vector takes weight_slopes' zero, as jacobian_x does.
        law = builtin_law("gradient_plain")
        b = VectorFieldBundle(
            graph=two_cycles(),
            law=law,
            lengths=TargetLengths.from_values((1.0, 1.0, 1.0, 2.0, 2.0), "plain"),
        )
        z = np.array([(1, 0), (-1, 0), (0, 0), (-2, 0), (2, 0)], dtype=float)
        zp = zprime_vectors(b, z)
        assert np.array_equal(zp[2], [0.0, 0.0])
        for k in (0, 1, 3, 4):
            slope = law.weight_dlen(b.lengths.d[k], float(z[k] @ z[k]))
            assert np.array_equal(zp[k], 2.0 * slope * z[k])
        reduced = reduced_J(b, z)
        assert np.isfinite(reduced).all() and np.array_equal(reduced[:, 2], np.zeros(5))

    def test_entry_formula(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(5, 2))
        b = squared_bundle(BENCHMARK_SQUARED, gain=1.4)
        reduced = reduced_J(b, z)
        from formation_forge.graph import edge_adjacency

        adj = edge_adjacency(b.graph)
        zp = zprime_vectors(b, z)
        for i in range(5):
            for j in range(5):
                assert reduced[i, j] == pytest.approx(adj[i, j] * float(z[i] @ zp[j]), abs=1e-14)


class TestEdgeWeights:
    def test_separable_law_broadcasts(self):
        b = squared_bundle((1.0, 1.0, 1.0, 1.0, 1.0), gain=2.0)
        z = np.array([(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], dtype=float)
        expected = 2.0 * (np.array([1.0, 1.0, 4.0, 4.0, 2.0]) - 1.0)
        assert np.array_equal(edge_weights(b, z.ravel().tolist()), expected)

    def test_pair_law_uses_the_coupled_path(self):
        def pair(d_pair, s2_pair, s):
            return (s2_pair[0] - d_pair[0] + s, s2_pair[1] - d_pair[1] - s)

        law = CustomLaw(lambda d, s2: s2 - d, name="inner", pair_func=pair)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths(d=(1.0,) * 5)
        )
        z = np.array([(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], dtype=float)
        u = edge_weights(b, z.ravel().tolist())
        s = float(z[0] @ z[4])
        assert u[0] == pytest.approx((1.0 - 1.0) + s, abs=1e-14)
        assert u[4] == pytest.approx((2.0 - 1.0) - s, abs=1e-14)
        # Lone edges fall back to the separable weight.
        assert u[1] == pytest.approx(0.0, abs=1e-14)
        assert u[2] == pytest.approx(3.0, abs=1e-14)
