"""Tests for the flow kernel: the per-edge field, its Jacobian, the weights,
the integrator.

The agent field is checked bit for bit against an accumulation per agent
with ``np.add.at`` over edge origins, and ``jacobian_x`` against an
``einsum`` of its edge blocks over the graph's incidence; both stay here
as references. The trajectory hashes were recorded with the reference
field, so any change to a bit of a trajectory fails them.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formation_forge.dynamics import (
    BUILTIN_LAW_NAMES,
    CustomLaw,
    VectorFieldBundle,
    builtin_law,
    edge_weights,
    eval_F_x,
    jacobian_x,
)
from formation_forge.errors import BlowUpError
from formation_forge.graph import FormationGraph, two_cycles
from formation_forge.numkernel import integrate_ode, squared_lengths
from formation_forge.rigidity import TargetLengths

# Agent 3 (1-based) observes nobody, so its velocity row is all zeros.
LEADER_FOLLOWER = FormationGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
# Two-cycles plus followers: agent 5 (1-based) observes 1 and 2, and agent 6
# observes 5 and 3, so three agents are two-coleader agents.
TWO_CYCLES_FOLLOWERS = FormationGraph(
    n=6, edges=two_cycles().edges + ((4, 0), (4, 1), (5, 4), (5, 2))
)
GRAPHS = (two_cycles(), LEADER_FOLLOWER, TWO_CYCLES_FOLLOWERS)

PLAIN_VALUES = (2.0, 2.6, 2.0, 3.3, 1.4, 1.7, 2.2, 1.9, 3.1)


def coupled_pair(d_pair, s2_pair, s):
    """A two-coleader law whose weights also read the pair's inner product."""
    return (s2_pair[0] - d_pair[0] + 0.1 * s, s2_pair[1] - d_pair[1] - 0.2 * s)


def make_law(name):
    if name == "pair":
        return CustomLaw(lambda d, s2: s2 - d, name="pair", pair_func=coupled_pair)
    return builtin_law(name)


def make_bundle(graph, law_name):
    law = make_law(law_name)
    values = PLAIN_VALUES[: graph.m]
    return VectorFieldBundle(
        graph=graph, law=law, lengths=TargetLengths.from_values(values, law.convention)
    )


def add_at_field(b, x):
    """The agent field accumulated per origin with ``np.add.at``."""
    pts = np.asarray(x, dtype=float).reshape(b.graph.n, 2)
    origins = b.graph.origins()
    z = pts[b.graph.targets()] - pts[origins]
    s2 = np.sum(z * z, axis=1)
    d = b.lengths.as_array()
    by_origin = {}
    for k, o in enumerate(origins):
        by_origin.setdefault(int(o), []).append(k)
    u = np.zeros(b.graph.m)
    for ks in by_origin.values():
        if len(ks) == 1:
            u[ks[0]] = float(b.law.weight(d[ks[0]], s2[ks[0]]))
        else:
            i, j = ks
            s = float(z[i] @ z[j])
            u[i], u[j] = b.law.pair_weights((d[i], d[j]), (s2[i], s2[j]), s)
    xdot = np.zeros_like(pts)
    np.add.at(xdot, origins, u[:, None] * z)
    return xdot


def einsum_jacobian(b, x):
    """``jacobian_x`` as the edge blocks ``u I + 2u' z z^T`` summed by ``einsum``.

    ``incidence[k] = e_o (e_t - e_o)^T`` places edge ``k``'s block in the
    agent Jacobian. The weight and slope of each edge come from the law's
    hooks, with slope zero on a zero-length edge.
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


class TestAgentField:
    @settings(max_examples=60, deadline=None)
    @given(
        graph_index=st.integers(0, len(GRAPHS) - 1),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES + ("pair",)),
        coords=st.lists(coordinates, min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_matches_the_add_at_reference_bit_for_bit(
        self, graph_index, law_name, coords, collapse
    ):
        graph = GRAPHS[graph_index]
        b = make_bundle(graph, law_name)
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

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES + ("pair",))
    def test_observer_free_agent_stays_put(self, law_name):
        b = make_bundle(LEADER_FOLLOWER, law_name)
        x = np.array([0.0, 0.0, 1.5, 0.2, 0.4, 1.9])
        xdot = eval_F_x(b, x)
        assert np.array_equal(xdot[4:], [0.0, 0.0])
        assert np.array_equal(xdot, add_at_field(b, x).ravel())

    def test_coupled_pair_reads_numpy_dot_of_its_edges(self):
        # Where BLAS fuses a multiply into the add, numpy's dot of edges 1
        # and 5 here is 11.899500000000002 while the float sum
        # z1x*z5x + z1y*z5y is 11.8995, and the coupled field would differ.
        b = make_bundle(two_cycles(), "pair")
        x = np.array([-2.04, 2.98, -0.24, 1.15, -2.67, -2.8, 2.08, 0.53])
        assert np.array_equal(eval_F_x(b, x), add_at_field(b, x).ravel())

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES + ("pair",))
    def test_zero_length_edge(self, law_name):
        b = make_bundle(two_cycles(), law_name)
        x = np.array([0.3, -0.7, 0.3, -0.7, 1.2, 0.8, -1.0, 0.4])
        assert np.array_equal(eval_F_x(b, x), add_at_field(b, x).ravel())


class TestEdgeWeights:
    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES + ("pair",))
    def test_flat_and_row_layouts_agree(self, law_name):
        b = make_bundle(two_cycles(), law_name)
        z = np.random.default_rng(5).normal(size=(5, 2))
        rows = edge_weights(b, z)
        assert rows.shape == (5,)
        assert np.array_equal(edge_weights(b, z.ravel()), rows)

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
            assert np.array_equal(np.array(weights), edge_weights(b, z))



class TestJacobianX:
    @settings(max_examples=150, deadline=None)
    @given(
        graph=st.sampled_from((two_cycles(), TWO_CYCLES_FOLLOWERS)),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        coords=st.lists(coordinates, min_size=12, max_size=12),
        collapse=st.one_of(st.none(), st.integers(0, 8)),
    )
    def test_matches_the_einsum_reference_bit_for_bit(self, graph, law_name, coords, collapse):
        b = make_bundle(graph, law_name)
        pts = np.asarray(coords[: 2 * graph.n]).reshape(graph.n, 2)
        if collapse is not None:
            o, t = graph.edges[collapse % graph.m]
            pts[t] = pts[o]
        expected = einsum_jacobian(b, pts)
        assert np.array_equal(jacobian_x(b, pts), expected)
        assert np.array_equal(jacobian_x(b, pts.ravel()), expected)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


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


# sha256 of ``states.tobytes()`` for the trajectory in ``pinned_trajectory``,
# recorded with the ``np.add.at`` kernel and the list-building integrator.
PINNED_STATES_SHA256 = {
    "gradient_squared": "afccb2d19be7aa4fecbd84544284503bbed748537f54caa35970d00354ef7e60",
    "gradient_plain": "76152ad7d614cbb8f689c585ce41e8534dfe9442347d1daacb65aeeb3e0680cc",
    "eq1_plain": "7c2d46b8bb199d889581e996bedb0d52310a70e8f3dacf3e53c2a52ae6abbf5f",
}


def pinned_trajectory(law_name):
    law = builtin_law(law_name)
    b = VectorFieldBundle(
        graph=two_cycles(),
        law=law,
        lengths=TargetLengths.from_values(PLAIN_VALUES[:5], law.convention),
    )
    x0 = [0.1, -0.2, 1.7, 0.3, 0.9, 1.6, -1.2, 1.1]
    return integrate_ode(lambda x: eval_F_x(b, x), x0, 2.0, step=1e-2)


class TestIntegrator:
    def test_states_are_one_preallocated_array(self):
        traj = pinned_trajectory("gradient_squared")
        assert isinstance(traj.states, np.ndarray) and isinstance(traj.times, np.ndarray)
        assert traj.states.shape == (201, 8) and traj.times.shape == (201,)
        assert np.array_equal(traj.final_state, traj.states[-1])

    def test_remainder_step_adds_a_row(self):
        traj = integrate_ode(lambda x: -x, [1.0, 2.0], 0.25, step=0.1)
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
            integrate_ode(lambda x: eval_F_x(b, x), x0, 20.0, step=1e-3)
        assert info.value.time == 0.23600000000000018

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES)
    def test_trajectory_bits_are_pinned(self, law_name):
        states = pinned_trajectory(law_name).states
        digest = hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()
        assert digest == PINNED_STATES_SHA256[law_name]
