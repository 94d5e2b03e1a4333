"""Tests for the flow kernel: the gather/scatter field, the weights, the integrator.

The agent field is checked bit for bit against the per-agent accumulation
it replaced (``np.add.at`` over edge origins), which stays here as the
reference. The trajectory hashes were recorded with that reference
kernel, so any change to a bit of a trajectory fails them.
"""

import hashlib

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
)
from formation_forge.graph import FormationGraph, two_cycles
from formation_forge.numkernel import integrate_ode, squared_lengths
from formation_forge.rigidity import TargetLengths

# Agent 3 (1-based) observes nobody, so its velocity row is all zeros.
LEADER_FOLLOWER = FormationGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
GRAPHS = (two_cycles(), LEADER_FOLLOWER)

PLAIN_VALUES = (2.0, 2.6, 2.0, 3.3, 1.4, 1.7)


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
    if b.law.separable:
        u = np.asarray(b.law.weight(d, s2), dtype=float)
    else:
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


coordinates = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


class TestAgentField:
    @settings(max_examples=60, deadline=None)
    @given(
        graph_index=st.integers(0, len(GRAPHS) - 1),
        law_name=st.sampled_from(BUILTIN_LAW_NAMES + ("pair",)),
        coords=st.lists(coordinates, min_size=8, max_size=8),
        collapse=st.one_of(st.none(), st.integers(0, 4)),
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

    def test_bundle_targets_are_read_only(self):
        b = make_bundle(two_cycles(), "gradient_squared")
        assert np.array_equal(b.squared_targets, b.lengths.as_array())
        assert b.squared_targets is b.squared_targets
        with pytest.raises(ValueError):
            b.squared_targets[0] = 1.0


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

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES)
    def test_trajectory_bits_are_pinned(self, law_name):
        states = pinned_trajectory(law_name).states
        digest = hashlib.sha256(np.ascontiguousarray(states).tobytes()).hexdigest()
        assert digest == PINNED_STATES_SHA256[law_name]
