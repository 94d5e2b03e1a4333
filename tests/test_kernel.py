"""Tests for the flow kernel: the per-edge field, its Jacobian, the weights,
the integrator.

The agent field is checked bit for bit against an accumulation per agent
with ``np.add.at`` over edge origins, and ``jacobian_x`` against an
``einsum`` of its edge blocks over the graph's incidence; both stay here
as references. The trajectory hashes were recorded with the reference
field, so any change to a bit of a trajectory fails them, and the compiled
RK4 loop, the generic one and each bundle's with its flow inlined, is
checked against the ``zip`` loop it replaced, kept here too. The built-in
laws' hand-written hook bodies stay here as the oracles of the expressions
their hooks are now compiled from.
"""

import builtins
import hashlib
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import formation_forge
from formation_forge.dynamics import (
    BUILTIN_LAW_NAMES,
    ControlLaw,
    CustomLaw,
    GradientPlainLaw,
    GradientSquaredLaw,
    VectorFieldBundle,
    builtin_law,
    edge_weights,
    eval_F_x,
    eval_F_z,
    jacobian_x,
)
from formation_forge.errors import BlowUpError, DimensionError
from formation_forge.graph import FormationGraph, graph_matrices, two_cycles
from formation_forge.numkernel import integrate_ode, squared_lengths
from formation_forge.rigidity import TargetLengths

# Agent 3 (1-based) observes nobody, so its velocity row is all zeros.
LEADER_FOLLOWER = FormationGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
# Two-cycles plus followers: agent 5 (1-based) observes 1 and 2, and agent 6
# observes 5 and 3, so three agents are two-coleader agents.
TWO_CYCLES_FOLLOWERS = FormationGraph(
    n=6, edges=two_cycles().edges + ((4, 0), (4, 1), (5, 4), (5, 2))
)
# Every agent observes at most one other: no two-coleader pair at all.
CHAIN = FormationGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
GRAPHS = (two_cycles(), LEADER_FOLLOWER, TWO_CYCLES_FOLLOWERS, CHAIN)
# A directed 3-cycle: every agent observes one other.
TRIANGLE = FormationGraph(n=3, edges=((0, 1), (1, 2), (2, 0)))

PLAIN_VALUES = (2.0, 2.6, 2.0, 3.3, 1.4, 1.7, 2.2, 1.9, 3.1)


def coupled_pair(d_pair, s2_pair, s):
    """A two-coleader law whose weights also read the pair's inner product."""
    return (s2_pair[0] - d_pair[0] + 0.1 * s, s2_pair[1] - d_pair[1] - 0.2 * s)


class PairOverrideLaw(ControlLaw):
    """A law with its own ``pair_weights``, so a coupled one.

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


def make_law(name, gain=1.0):
    """A built-in law with ``gain``, or one of this module's laws, which read no gain."""
    if name == "separable":
        return CustomLaw(lambda d, s2: (s2 - d) * (1.0 + 0.5 * s2), name="separable")
    if name == "pair":
        return CustomLaw(lambda d, s2: s2 - d, name="pair", pair_func=coupled_pair)
    if name == "pair_override":
        return PairOverrideLaw()
    return builtin_law(name, gain)


def make_bundle(graph, law_name, gain=1.0):
    law = make_law(law_name, gain)
    values = PLAIN_VALUES[: graph.m]
    return VectorFieldBundle(
        graph=graph, law=law, lengths=TargetLengths.from_values(values, law.convention)
    )


def reference_weights(b, z):
    """Per-edge weights of edge-vector rows ``z``, gathered by origin agent.

    A two-coleader pair gets ``pair_weights`` at its inner product summed
    in floats, for every law: a separable law's is ``weight`` of each edge.
    """
    s2 = np.sum(z * z, axis=1)
    d = np.array(b.lengths.d)
    by_origin = {}
    for k, o in enumerate(b.graph.origins()):
        by_origin.setdefault(int(o), []).append(k)
    u = np.zeros(b.graph.m)
    for ks in by_origin.values():
        if len(ks) == 1:
            u[ks[0]] = float(b.law.weight(d[ks[0]], s2[ks[0]]))
        else:
            i, j = ks
            s = float(z[i, 0] * z[j, 0] + z[i, 1] * z[j, 1])
            u[i], u[j] = b.law.pair_weights((d[i], d[j]), (s2[i], s2[j]), s)
    return u


def add_at_field(b, x):
    """The agent field accumulated per origin with ``np.add.at``."""
    pts = np.asarray(x, dtype=float).reshape(b.graph.n, 2)
    origins = b.graph.origins()
    z = pts[b.graph.targets()] - pts[origins]
    xdot = np.zeros_like(pts)
    np.add.at(xdot, origins, reference_weights(b, z)[:, None] * z)
    return xdot


def einsum_jacobian(b, x):
    """``jacobian_x`` as the edge blocks ``u I + 2u' z z^T`` summed by ``einsum``.

    ``incidence[k] = e_o (e_t - e_o)^T`` places edge ``k``'s block in the
    agent Jacobian. The weight and slope of each edge come from the law's
    ``weight`` and ``weight_dlen`` hooks, with slope zero on a zero-length
    edge.
    """
    g = b.graph
    pts = np.asarray(x, dtype=float).reshape(g.n, 2)
    z = pts[g.targets()] - pts[g.origins()]
    s2 = np.sum(z * z, axis=1)
    d = b.lengths.d
    u = np.array([float(b.law.weight(d[k], s2[k])) for k in range(g.m)])
    slopes = np.array(
        [0.0 if s2[k] == 0.0 else float(b.law.weight_dlen(d[k], s2[k])) for k in range(g.m)]
    )
    blocks = (2.0 * slopes)[:, None, None] * z[:, :, None] * z[:, None, :]
    blocks[:, 0, 0] += u
    blocks[:, 1, 1] += u
    incidence = np.zeros((g.m, g.n, g.n))
    for k, (o, t) in enumerate(g.edges):
        incidence[k, o, t] = 1.0
        incidence[k, o, o] = -1.0
    return np.einsum("kab,kij->aibj", incidence, blocks).reshape(2 * g.n, 2 * g.n)


coordinates = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
# Gains other than 1 give each built-in law's constant ``c`` bits of its own.
gains = st.sampled_from((1.0, 0.37, 1.7, 3.0))


def same_bits(a, b):
    """Equal bytes, so a signed zero or a NaN payload counts."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestAgentField:
    @settings(max_examples=60, deadline=None)
    @given(
        graph_index=st.integers(0, len(GRAPHS) - 1),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES + ("pair", "pair_override")),
        gain=gains,
        coords=st.lists(coordinates, min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_matches_the_add_at_reference_bit_for_bit(
        self, graph_index, law_name, gain, coords, collapse
    ):
        # The reference reads law.weight, so a built-in law's inlined
        # expression is checked against its hook.
        graph = GRAPHS[graph_index]
        b = make_bundle(graph, law_name, gain)
        pts = np.asarray(coords[: 2 * graph.n]).reshape(graph.n, 2)
        if collapse is not None:
            o, t = graph.edges[collapse % graph.m]
            pts[t] = pts[o]
        expected = add_at_field(b, pts)
        flat = eval_F_x(b, pts.ravel())
        rows = eval_F_x(b, pts)
        assert flat.shape == (2 * graph.n,) and rows.shape == (graph.n, 2)
        assert np.array_equal(flat, expected.ravel())
        assert np.array_equal(rows, expected)

    @settings(max_examples=80, deadline=None)
    @given(
        graph=st.sampled_from((two_cycles(), TWO_CYCLES_FOLLOWERS, TRIANGLE)),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES + ("separable", "pair")),
        coords=st.lists(coordinates, min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_the_bound_flow_matches_eval_F_x_bit_for_bit(self, graph, law_name, coords, collapse):
        # The bundle's flow is one compiled function; eval_F_x composes the
        # compiled gather, edge_weights and the compiled scatter.
        b = make_bundle(graph, law_name)
        xs = coords[: 2 * graph.n]
        if collapse is not None:
            # Coincident agents give the edge between them zero length.
            o, t = graph.edges[collapse % graph.m]
            xs[2 * t : 2 * t + 2] = xs[2 * o : 2 * o + 2]
        assert type(b.flow) is types.FunctionType and b.flow is b.flow
        flow = b.flow(list(xs))
        assert all(type(v) is float for v in flow)
        assert np.array(flow).tobytes() == eval_F_x(b, np.array(xs)).tobytes()

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES + ("pair",))
    def test_observer_free_agent_stays_put(self, law_name):
        b = make_bundle(LEADER_FOLLOWER, law_name)
        x = np.array([0.0, 0.0, 1.5, 0.2, 0.4, 1.9])
        xdot = eval_F_x(b, x)
        assert np.array_equal(xdot[4:], [0.0, 0.0])
        assert np.array_equal(xdot, add_at_field(b, x).ravel())

    def test_coupled_pair_reads_the_float_sum_of_its_edges(self):
        # Where BLAS fuses a multiply into the add, numpy's dot of edges 1
        # and 5 here is 11.899500000000002 while the float sum
        # z1x*z5x + z1y*z5y is 11.8995; the coupled pair reads the sum.
        seen = []

        def pair(d_pair, s2_pair, s):
            seen.append(s)
            return coupled_pair(d_pair, s2_pair, s)

        law = CustomLaw(lambda d, s2: s2 - d, name="pair", pair_func=pair)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths.from_values(PLAIN_VALUES[:5], "squared")
        )
        x = np.array([-2.04, 2.98, -0.24, 1.15, -2.67, -2.8, 2.08, 0.53])
        assert np.array_equal(eval_F_x(b, x), add_at_field(b, x).ravel())
        assert seen[0] == 11.8995

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES + ("pair",))
    def test_zero_length_edge(self, law_name):
        b = make_bundle(two_cycles(), law_name)
        x = np.array([0.3, -0.7, 0.3, -0.7, 1.2, 0.8, -1.0, 0.4])
        assert np.array_equal(eval_F_x(b, x), add_at_field(b, x).ravel())


class TestEdgeWeights:
    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES + ("pair",))
    def test_flat_and_row_layouts_agree(self, law_name):
        # eval_F_z takes rows or a flat vector and weighs either as the flat list
        b = make_bundle(two_cycles(), law_name)
        z = np.random.default_rng(5).normal(size=(5, 2))
        u = np.array(edge_weights(b, z.ravel().tolist()))
        expected = graph_matrices(b.graph)["edge_adj"] @ (u[:, None] * z)
        assert np.array_equal(eval_F_z(b, z, check=False), expected)
        assert np.array_equal(eval_F_z(b, z.ravel(), check=False), expected.ravel())

    def test_squared_lengths_match_the_row_sum(self):
        z = np.random.default_rng(6).normal(size=(7, 2)) * 10.0 ** np.arange(-3, 4)[:, None]
        expected = np.sum(z * z, axis=1)
        assert np.array_equal(squared_lengths(z), expected)
        assert np.array_equal(squared_lengths(z.ravel()), expected)

    def test_a_flat_list_gives_a_list_of_the_same_weights(self):
        for law_name in BUILTIN_LAW_NAMES + ("pair",):
            b = make_bundle(TWO_CYCLES_FOLLOWERS, law_name)
            z = np.random.default_rng(7).normal(size=(9, 2))
            weights = edge_weights(b, z.ravel().tolist())
            assert isinstance(weights, list)
            assert np.array_equal(np.array(weights), reference_weights(b, z))



class TestJacobianX:
    @settings(max_examples=200, deadline=None)
    @given(
        graph=st.sampled_from((two_cycles(), TWO_CYCLES_FOLLOWERS, CHAIN)),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        gain=gains,
        coords=st.lists(coordinates, min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_matches_the_einsum_reference_bit_for_bit(
        self, graph, law_name, gain, coords, collapse
    ):
        # The reference reads law.weight and law.weight_dlen, so the
        # inlined expressions are checked against the hooks.
        b = make_bundle(graph, law_name, gain)
        pts = np.asarray(coords[: 2 * graph.n]).reshape(graph.n, 2)
        if collapse is not None:
            o, t = graph.edges[collapse % graph.m]
            pts[t] = pts[o]
        expected = einsum_jacobian(b, pts)
        assert same_bits(jacobian_x(b, pts), expected)
        assert same_bits(jacobian_x(b, pts.ravel()), expected)
        # Newton's iterate, a list of floats, is read as it is.
        assert same_bits(jacobian_x(b, pts.ravel().tolist()), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        graph=st.sampled_from((two_cycles(), TWO_CYCLES_FOLLOWERS, CHAIN)),
        gain=gains,
        coords=st.lists(coordinates, min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_a_subclass_slope_is_called(self, graph, gain, coords, collapse):
        # SteeperPlainLaw replaces weight_dlen only: the kernel keeps the
        # plain weight expression and calls the subclass's slope.
        law = SteeperPlainLaw(gain)
        lengths = TargetLengths.from_values(PLAIN_VALUES[: graph.m], "plain")
        b = VectorFieldBundle(graph=graph, law=law, lengths=lengths)
        pts = np.asarray(coords[: 2 * graph.n]).reshape(graph.n, 2)
        if collapse is not None:
            o, t = graph.edges[collapse % graph.m]
            pts[t] = pts[o]
        expected = einsum_jacobian(b, pts)
        assert same_bits(jacobian_x(b, pts), expected)
        assert np.array_equal(eval_F_x(b, pts), add_at_field(b, pts))
        # At a spread-out state the slope moves the Jacobian, not the flow.
        plain = VectorFieldBundle(graph=graph, law=GradientPlainLaw(gain), lengths=b.lengths)
        xs = SPREAD_START[: 2 * graph.n]
        assert not np.array_equal(jacobian_x(b, xs), jacobian_x(plain, xs))
        assert b.flow(xs) == plain.flow(xs)


class SteeperPlainLaw(GradientPlainLaw):
    """gradient_plain with its own ``weight_dlen``: twice the plain slope."""

    name = "steeper_plain"

    def weight_dlen(self, d, s2):
        return self.sign * self.gain / math.sqrt(s2)


HOOK_LAWS = BUILTIN_LAW_NAMES + ("custom",)

# Squared target lengths are positive and finite; squared current lengths
# are sums of squares, so they may be zero and may reach the float range.
targets = st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False)
squared_lengths_drawn = st.one_of(
    st.just(0.0),
    st.floats(0.0, 100.0),
    st.floats(1e300, 1.7976931348623157e308),
    st.floats(0.0, 1.7976931348623157e308),
)


def numpy_weight(law_name, gain, d, s2):
    """The weight of each hook law written on NumPy arrays of one element."""
    d, s2 = np.array([d]), np.array([s2])
    if law_name == "gradient_squared":
        return (gain * (s2 - d))[0]
    if law_name == "custom":
        return (gain * (s2 - d) * (1.0 + s2))[0]
    sign = -1.0 if law_name == "eq1_plain" else 1.0
    return (sign * gain * (np.sqrt(s2) - np.sqrt(d)))[0]


class TestFloatWeightHook:
    """The scalar ``weight`` hooks against the same formulas on NumPy arrays."""

    @staticmethod
    def hook_law(name, gain):
        if name == "custom":
            return CustomLaw(lambda d, s2: gain * (s2 - d) * (1.0 + s2), name="grown")
        return builtin_law(name, gain=gain)

    @settings(max_examples=300, deadline=None)
    @given(
        law_name=st.sampled_from(HOOK_LAWS),
        gain=st.sampled_from((1.0, 0.3, 2.5)),
        d=targets,
        s2=squared_lengths_drawn,
    )
    def test_float_hook_matches_the_array_weight_bit_for_bit(self, law_name, gain, d, s2):
        law = self.hook_law(law_name, gain)
        with np.errstate(over="ignore"):
            expected = numpy_weight(law_name, gain, d, s2)
        got = law.weight(d, s2)
        assert type(got) is float
        assert same_bits(got, expected)

    # Draws on [0, 100) where ``s2 ** 0.5`` (libm pow) and the correctly
    # rounded square root differ; 1,697 of 2,000,000 uniform draws did.
    POW_MISSES = (17.72267404746588, 37.7463431532434, 57.81557539306126, 8.22532882518997)

    def test_the_plain_hook_needs_a_correctly_rounded_square_root(self):
        law = builtin_law("gradient_plain")
        for s2 in self.POW_MISSES:
            assert same_bits(law.weight(4.0, s2), numpy_weight("gradient_plain", 1.0, 4.0, s2))
            assert math.sqrt(s2) == float(np.sqrt(s2))
        # A hook written with ``** 0.5`` would break bit-identity with the arrays.
        assert any(s2**0.5 != math.sqrt(s2) for s2 in self.POW_MISSES)


class HandSquaredLaw(ControlLaw):
    """gradient_squared's hooks as they were written by hand, kept as an oracle."""

    def weight(self, d, s2):
        return self.gain * (s2 - d)

    def weight_dlen(self, d, s2):
        return self.gain

    def weight_dtarget(self, d, s2):
        return -self.gain

    def weight_dlen2(self, d, s2):
        return 0.0


class HandPlainLaw(ControlLaw):
    """gradient_plain's and eq1_plain's hooks as they were written by hand, kept as an oracle."""

    sign = 1.0

    def weight(self, d, s2):
        return self.sign * self.gain * (math.sqrt(s2) - math.sqrt(d))

    def weight_dlen(self, d, s2):
        return self.sign * self.gain / (2.0 * math.sqrt(s2))

    def weight_dtarget(self, d, s2):
        return -self.sign * self.gain / (2.0 * math.sqrt(d))

    def weight_dlen2(self, d, s2):
        return -self.sign * self.gain / (4.0 * s2 * math.sqrt(s2))


class HandEq1PlainLaw(HandPlainLaw):
    sign = -1.0


HAND_WRITTEN_LAWS = {
    "gradient_squared": HandSquaredLaw,
    "gradient_plain": HandPlainLaw,
    "eq1_plain": HandEq1PlainLaw,
}
HOOKS = ("weight", "weight_dlen", "weight_dtarget", "weight_dlen2")
hook_values = st.floats(1e-8, 1e8)


class TestExpressionHooks:
    """Each built-in hook is compiled from its expression, with the hand-written body's bits."""

    @settings(max_examples=400, deadline=None)
    @given(
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        gain=st.one_of(gains, st.floats(0.01, 100.0)),
        d=hook_values,
        s2=st.one_of(hook_values, st.sampled_from(TestFloatWeightHook.POW_MISSES)),
        at_target=st.booleans(),
    )
    @example("gradient_plain", 0.37, 4.0, TestFloatWeightHook.POW_MISSES[0], False)
    @example("eq1_plain", 1.7, 1e-8, 1.0, True)
    @example("gradient_squared", 3.0, 1e8, 1e-8, False)
    def test_each_hook_matches_its_hand_written_body_bit_for_bit(
        self, law_name, gain, d, s2, at_target
    ):
        s2 = d if at_target else s2
        law, oracle = builtin_law(law_name, gain), HAND_WRITTEN_LAWS[law_name](gain)
        for hook in HOOKS:
            got = getattr(law, hook)(d, s2)
            assert type(got) is float
            assert same_bits(got, getattr(oracle, hook)(d, s2)), hook
            assert isinstance(getattr(law, hook).source, str)

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES)
    def test_each_derivative_expression_is_the_derivative_of_the_weight(self, law_name):
        # Proved symbolically: weight_dlen and weight_dlen2 are the first and
        # second derivatives of weight in s2, weight_dtarget its derivative in d.
        sympy = pytest.importorskip("sympy")
        d, s2 = sympy.symbols("d s2", positive=True)
        names = {"d": d, "s2": s2, "c": sympy.Symbol("c"), "sqrt": sympy.sqrt}
        law = builtin_law(law_name)
        weight, dlen, dtarget, dlen2 = (
            sympy.sympify(getattr(law, hook).source, locals=names) for hook in HOOKS
        )
        for derivative, written in (
            (sympy.diff(weight, s2), dlen),
            (sympy.diff(weight, d), dtarget),
            (sympy.diff(weight, s2, 2), dlen2),
        ):
            assert sympy.simplify(sympy.nsimplify(derivative - written)) == 0

    def test_the_law_constant_is_an_instance_attribute(self):
        # A property would add a call to every hook call.
        for law_name, c in zip(BUILTIN_LAW_NAMES, (1.7, 1.7, -1.7)):
            assert vars(builtin_law(law_name, 1.7))["c"] == c


# sha256 of ``states.tobytes()`` for the trajectory in ``pinned_trajectory``,
# recorded with the ``np.add.at`` kernel and the list-building integrator.
PINNED_STATES_SHA256 = {
    "gradient_squared": "afccb2d19be7aa4fecbd84544284503bbed748537f54caa35970d00354ef7e60",
    "gradient_plain": "76152ad7d614cbb8f689c585ce41e8534dfe9442347d1daacb65aeeb3e0680cc",
    "eq1_plain": "7c2d46b8bb199d889581e996bedb0d52310a70e8f3dacf3e53c2a52ae6abbf5f",
}


def zip_rk4(f, x0, t_end, step):
    """The RK4 loop as it was written before its step was compiled, kept as an oracle.

    Each stage is a ``zip`` comprehension over lists of floats. Returns the
    times, the states and the final residual, or raises ``BlowUpError``.
    """
    x = np.asarray(x0, dtype=float).ravel().tolist()
    n_full, rem = divmod(t_end, step)
    steps = [step] * int(n_full)
    if rem > 1e-12 * max(1.0, abs(t_end)):
        steps.append(rem)
    times, states, t = [0.0], [x], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = f(x)
        for h in steps:
            half, sixth = 0.5 * h, h / 6.0
            k2 = f([a + half * k for a, k in zip(x, k1)])
            k3 = f([a + half * k for a, k in zip(x, k2)])
            k4 = f([a + h * k for a, k in zip(x, k3)])
            x = [
                a + sixth * (((p + 2.0 * q) + 2.0 * r) + w)
                for a, p, q, r, w in zip(x, k1, k2, k3, k4)
            ]
            t += h
            if not all(map(math.isfinite, x)):
                raise BlowUpError(f"trajectory left the finite range at t={t:.6g}", time=t)
            times.append(t)
            states.append(x)
            k1 = f(x)
        return np.array(times), np.array(states), float(np.max(np.abs(k1)))


def lorenz(x):
    """The Lorenz field, chaotic, so a moved bit grows along the run."""
    u, v, w = x
    return [10.0 * (v - u), u * (28.0 - w) - v, u * v - 8.0 / 3.0 * w]


# State length -> (field, start); 8 and 12 are flows of two-cycles and of
# two-cycles plus followers.
RK4_FIELDS = {
    1: (lambda x: [x[0] - x[0] * x[0] * x[0]], [0.3]),
    3: (lorenz, [1.0, 1.0, 1.0]),
    8: (
        make_bundle(two_cycles(), "gradient_plain").flow,
        [0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1],
    ),
    12: (
        make_bundle(TWO_CYCLES_FOLLOWERS, "pair").flow,
        [0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1, 0.4, 2.2, -0.7, -1.5],
    ),
}


def pinned_trajectory(law_name):
    law = builtin_law(law_name)
    b = VectorFieldBundle(
        graph=two_cycles(),
        law=law,
        lengths=TargetLengths.from_values(PLAIN_VALUES[:5], law.convention),
    )
    x0 = [0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1]
    return integrate_ode(b.flow, x0, 2.0, step=1e-2)


class TestIntegrator:
    def test_states_are_one_preallocated_array(self):
        traj = pinned_trajectory("gradient_squared")
        assert isinstance(traj.states, np.ndarray) and isinstance(traj.times, np.ndarray)
        assert traj.states.shape == (201, 8) and traj.times.shape == (201,)
        assert np.array_equal(traj.final_state, traj.states[-1])

    @pytest.mark.parametrize("size", [24, 6])
    def test_a_state_of_another_size_is_refused(self, size):
        # Two-cycles reads 8 coordinates: 24 would leave 16 unmoved, 6 cannot be read.
        b = make_bundle(two_cycles(), "gradient_squared")
        message = {
            24: "the field maps 24 coordinates to 8",
            6: "the field cannot read a state of 6 coordinates",
        }[size]
        with pytest.raises(DimensionError, match=rf"^{message}$"):
            integrate_ode(b.flow, [0.1 * i for i in range(size)], 0.01, step=1e-3)

    @pytest.mark.parametrize("size", sorted(RK4_FIELDS))
    def test_the_compiled_step_matches_the_zip_loop_bit_for_bit(self, size):
        f, x0 = RK4_FIELDS[size]
        # 0.505 = 50 steps of 0.01 and a remainder step.
        traj = integrate_ode(f, x0, 0.505, step=0.01)
        times, states, final_residual = zip_rk4(f, x0, 0.505, 0.01)
        assert traj.states.shape == (52, size)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert same_bits(traj.final_residual, final_residual)

    def test_the_compiled_step_blows_up_where_the_zip_loop_does(self):
        b = make_bundle(two_cycles(), "eq1_plain")
        x0 = 2.0 * np.array([0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1])
        with pytest.raises(BlowUpError) as oracle:
            zip_rk4(b.flow, x0, 20.0, 1e-3)
        with pytest.raises(BlowUpError) as info:
            integrate_ode(b.flow, x0, 20.0, step=1e-3)
        assert info.value.time == oracle.value.time == 0.23600000000000018

    def test_the_field_is_evaluated_four_times_per_step_and_once_at_the_end(self):
        calls = []

        def f(x):
            calls.append(x)
            return [-v for v in x]

        traj = integrate_ode(f, [1.0, 2.0], 0.3, step=0.1)
        assert len(calls) == 4 * 3 + 1 and calls[0] == [1.0, 2.0]
        assert calls[-1] == traj.states[-1].tolist()

    def test_remainder_step_adds_a_row(self):
        traj = integrate_ode(lambda x: [-v for v in x], [1.0, 2.0], 0.25, step=0.1)
        assert traj.states.shape == (4, 2)
        assert traj.times[-1] == pytest.approx(0.25)

    def test_eq1_plain_blow_up_time_is_pinned(self):
        # As printed, eq1_plain pushes a spread-out start apart in finite
        # time; the time of the first non-finite state was recorded with the
        # array kernel and the array integrator.
        law = builtin_law("eq1_plain")
        b = VectorFieldBundle(
            graph=two_cycles(),
            law=law,
            lengths=TargetLengths.from_values(PLAIN_VALUES[:5], law.convention),
        )
        x0 = 2.0 * np.array([0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1])
        with pytest.raises(BlowUpError) as info:
            integrate_ode(b.flow, x0, 20.0, step=1e-3)
        assert info.value.time == 0.23600000000000018

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES)
    def test_trajectory_bits_are_pinned(self, law_name):
        states = pinned_trajectory(law_name).states
        digest = hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()
        assert digest == PINNED_STATES_SHA256[law_name]


# The pinned start, spread out; eq1_plain on two-cycles blows up from it.
SPREAD_START = [0.2, -0.4, 3.4, 0.6, 1.8, 3.2, -2.4, 2.2, 0.8, 4.4, -1.4, -3.0]


class HalvedSquaredLaw(GradientSquaredLaw):
    """gradient_squared with its own ``weight``: half the squared-length error."""

    name = "halved_squared"

    def weight(self, d, s2):
        return 0.5 * (s2 - d)


class TestInlinedLoop:
    """A bundle's flow carries the RK4 loop with the flow's own lines inlined."""

    @settings(max_examples=120, deadline=None)
    @given(
        graph=st.sampled_from(GRAPHS),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES + ("separable", "pair")),
        coords=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
        t_end=st.sampled_from((0.305, 1.005)),
    )
    @example(two_cycles(), "eq1_plain", SPREAD_START, None, 1.005)
    @example(LEADER_FOLLOWER, "gradient_plain", SPREAD_START, 1, 0.305)
    def test_the_inlined_loop_matches_the_zip_loop_bit_for_bit(
        self, graph, law_name, coords, collapse, t_end
    ):
        # 0.305 and 1.005 end in a remainder step of 0.005 after steps of
        # 0.01; eq1_plain blows up from most of these starts.
        b = make_bundle(graph, law_name)
        xs = coords[: 2 * graph.n]
        if collapse is not None:
            # Coincident agents give the edge between them zero length.
            o, t = graph.edges[collapse % graph.m]
            xs[2 * t : 2 * t + 2] = xs[2 * o : 2 * o + 2]
        try:
            times, states, final_residual = zip_rk4(b.flow, xs, t_end, 0.01)
        except BlowUpError as oracle:
            with pytest.raises(BlowUpError) as info:
                integrate_ode(b.flow, xs, t_end, step=0.01)
            assert info.value.time == oracle.time
            return
        traj = integrate_ode(b.flow, xs, t_end, step=0.01)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert same_bits(traj.final_residual, final_residual)

    @settings(max_examples=60, deadline=None)
    @given(
        graph=st.sampled_from(GRAPHS),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        gain=gains,
        coords=st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
        t_end=st.sampled_from((0.305, 1.005)),
    )
    @example(two_cycles(), "eq1_plain", 1.7, SPREAD_START, None, 1.005)
    @example(TWO_CYCLES_FOLLOWERS, "gradient_plain", 0.37, SPREAD_START, 4, 0.305)
    def test_the_inlined_loop_matches_the_hooks_trajectory_bit_for_bit(
        self, graph, law_name, gain, coords, collapse, t_end
    ):
        # The oracle field reads law.weight at every edge, so the loop's
        # inlined weight expressions are checked against the hooks along a
        # whole trajectory, blow-up time included.
        b = make_bundle(graph, law_name, gain)
        xs = coords[: 2 * graph.n]
        if collapse is not None:
            o, t = graph.edges[collapse % graph.m]
            xs[2 * t : 2 * t + 2] = xs[2 * o : 2 * o + 2]

        def hooks_field(x):
            return add_at_field(b, x).ravel().tolist()

        try:
            times, states, final_residual = zip_rk4(hooks_field, xs, t_end, 0.01)
        except BlowUpError as oracle:
            with pytest.raises(BlowUpError) as info:
                integrate_ode(b.flow, xs, t_end, step=0.01)
            assert info.value.time == oracle.time
            return
        traj = integrate_ode(b.flow, xs, t_end, step=0.01)
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()
        assert same_bits(traj.final_residual, final_residual)

    def test_the_loop_calls_the_bundles_own_weight(self):
        law = HalvedSquaredLaw()
        b = VectorFieldBundle(
            graph=TWO_CYCLES_FOLLOWERS,
            law=law,
            lengths=TargetLengths.from_values(PLAIN_VALUES, law.convention),
        )
        x0 = SPREAD_START[:6] + [0.4, 2.2, -0.7, -1.5, 0.9, 0.1]
        traj = integrate_ode(b.flow, x0, 0.505, step=0.01)
        # The reference field reads law.weight, the override, at every edge.
        _, states, _ = zip_rk4(lambda x: add_at_field(b, x).ravel().tolist(), x0, 0.505, 0.01)
        assert traj.states.tobytes() == states.tobytes()
        base = make_bundle(TWO_CYCLES_FOLLOWERS, "gradient_squared")
        assert not np.array_equal(integrate_ode(base.flow, x0, 0.505, step=0.01).states, states)

    def test_bundles_of_one_graph_share_one_loop_compiled_on_the_first_run(self, monkeypatch):
        # No other test builds this graph, so its kernels are compiled here.
        graph = FormationGraph(n=5, edges=((0, 1), (1, 2), (2, 0), (3, 2), (0, 3), (4, 1)))
        sources = []

        def compile_logged(source, *args, **kwargs):
            sources.append(source)
            return compile_builtin(source, *args, **kwargs)

        compile_builtin = builtins.compile
        monkeypatch.setattr(builtins, "compile", compile_logged)
        first = make_bundle(graph, "gradient_squared")
        second = make_bundle(graph, "gradient_plain")
        third = first.with_lengths(TargetLengths(d=(1.0,) * graph.m))
        x0 = [0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1, 0.4, 2.2]
        assert sources == []  # building bundles compiles nothing
        # Flows and Jacobians compile one kernel per law expression of the graph.
        jacobian_x(first, x0)
        eval_F_x(second, x0)
        eval_F_x(third, x0)
        assert len(sources) == 2 and all("def bind(weight, " in source for source in sources)
        # The built-in laws' weights are written inline, with no hook call.
        assert "u1 = c * ((z2 * z2 + z3 * z3) - d1)" in sources[0]
        assert "u1 = c * (sqrt((z2 * z2 + z3 * z3)) - root1)" in sources[1]
        assert not any("weight(d" in source for source in sources)
        # Bundles of one law share one bind, each with its own targets.
        assert third.flow.__globals__ is first.flow.__globals__
        assert second.flow.__globals__ is not first.flow.__globals__
        for b in (first, second, first, third):
            integrate_ode(b.flow, x0, 0.105, step=0.01)
        assert len(sources) == 4
        assert "def integrate(weight, pair_weights, c, sqrt, d0, " in sources[2]
        assert "root5, x, k1, plan, times, store):" in sources[3]
        for b in (first, second):
            kernel = b.flow.__globals__
            loop = kernel["integrate"]
            assert loop.__code__.co_filename == "<rk4 loop>"
            # Neither namespace holds a module: the loop reads locals only.
            for namespace in (kernel, loop.__globals__):
                assert not any(isinstance(v, types.ModuleType) for v in namespace.values())


def test_the_kernel_cost_script_runs():
    # CI prints this script's lines to the job summary; run here, a change to
    # a signature it calls fails tier-1 and not only that step.
    script = Path(__file__).with_name("kernel_costs.py")
    src = str(Path(formation_forge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 * len(BUILTIN_LAW_NAMES)
    for name, hooks, costs in zip(BUILTIN_LAW_NAMES, lines[0::2], lines[1::2]):
        assert hooks.startswith(f"{name} hooks at gain 1 (c = ")
        assert costs.startswith(f"{name} on two-cycles: kernel compiled in ")
