"""Tests for formation graphs and their adjacency matrices."""

import numpy as np
import pytest

from formation_forge.errors import ConfigurationError
from formation_forge.graph import (
    FormationGraph,
    contains_subformation,
    edge_adjacency,
    graph_matrices,
    mixed_adjacency,
    two_cycles,
)
from formation_forge.numkernel import kron_I2

TWO_CYCLES_MIXED = np.array(
    [
        [-1, 1, 0, 0],
        [0, -1, 1, 0],
        [1, 0, -1, 0],
        [0, 0, 1, -1],
        [-1, 0, 0, 1],
    ],
    dtype=float,
)

TWO_CYCLES_EDGE = np.array(
    [
        [-1, 1, 0, 0, -1],
        [0, -1, 1, 0, 0],
        [1, 0, -1, 0, 1],
        [0, 0, 1, -1, 0],
        [-1, 0, 0, 1, -1],
    ],
    dtype=float,
)


def triangle():
    return FormationGraph(n=3, edges=((0, 1), (1, 2), (2, 0)))


def observation_graph():
    """Five agents; the last two each follow two others.

    Agents 1, 2, 3 form a directed triangle; agent 4 follows agents 3 and
    2; agent 5 follows agents 1 and 4.
    """
    return FormationGraph(
        n=5,
        edges=((0, 1), (4, 0), (2, 0), (1, 2), (3, 2), (4, 3), (3, 1)),
    )


def random_graph(rng):
    n = int(rng.integers(2, 8))
    edges = []
    for o in range(n):
        others = [t for t in range(n) if t != o]
        rng.shuffle(others)
        for t in others[: int(rng.integers(0, 3))]:
            edges.append((o, t))
    if not edges:
        edges = [(0, 1)]
    return FormationGraph(n=n, edges=tuple(edges))


class TestConstruction:
    def test_two_cycles_layout(self):
        g = two_cycles()
        assert g.n == 4
        assert g.edges == ((0, 1), (1, 2), (2, 0), (3, 2), (0, 3))
        assert g.m == 5

    def test_vertex_out_of_range(self):
        with pytest.raises(ConfigurationError, match=r"edge 2 references vertex 5 of 4"):
            FormationGraph(n=4, edges=((0, 1), (1, 4)))

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError, match="self-loop"):
            FormationGraph(n=3, edges=((1, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            FormationGraph(n=3, edges=((0, 1), (0, 1)))

    def test_no_vertices_rejected(self):
        with pytest.raises(ConfigurationError, match="vertex count must be positive"):
            FormationGraph(n=0, edges=())

    def test_outvalence_cap(self):
        with pytest.raises(ConfigurationError, match="outvalence"):
            FormationGraph(n=4, edges=((0, 1), (0, 2), (0, 3)))


class TestMixedAdjacency:
    def test_two_cycles_fixture(self):
        assert np.array_equal(mixed_adjacency(two_cycles()), TWO_CYCLES_MIXED)

    def test_single_edge(self):
        g = FormationGraph(n=2, edges=((0, 1),))
        assert np.array_equal(mixed_adjacency(g), [[-1.0, 1.0]])

    def test_triangle(self):
        expected = [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]
        assert np.array_equal(mixed_adjacency(triangle()), np.asarray(expected, float))

    def test_rows_sum_to_zero_with_unit_entries(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = mixed_adjacency(random_graph(rng))
            assert np.array_equal(np.sort(a, axis=1)[:, [0, -1]],
                                  np.tile([-1.0, 1.0], (a.shape[0], 1)))
            assert np.max(np.abs(a.sum(axis=1))) == 0.0

    def test_doubled_matrix_recovers_edge_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            g = random_graph(rng)
            x = rng.normal(size=(g.n, 2))
            stacked = kron_I2(mixed_adjacency(g)) @ x.ravel()
            direct = (x[g.targets()] - x[g.origins()]).ravel()
            assert np.max(np.abs(stacked - direct)) <= 1e-14


class TestSharedGraphData:
    def test_two_cycles_is_one_instance(self):
        assert two_cycles() is two_cycles()

    @pytest.mark.parametrize("graph", [two_cycles(), triangle()])
    def test_index_arrays_are_built_once_and_refuse_writes(self, graph):
        for indices, ends in ((graph.origins, 0), (graph.targets, 1)):
            assert indices() is indices()
            assert indices().tolist() == [edge[ends] for edge in graph.edges]
            with pytest.raises(ValueError):
                indices()[0] = 1


class TestEdgeAdjacency:
    def test_two_cycles_fixture(self):
        assert np.array_equal(edge_adjacency(two_cycles()), TWO_CYCLES_EDGE)

    def test_single_edge(self):
        g = FormationGraph(n=2, edges=((0, 1),))
        assert np.array_equal(edge_adjacency(g), [[-1.0]])

    def test_triangle(self):
        expected = [[-1, 1, 0], [0, -1, 1], [1, 0, -1]]
        assert np.array_equal(edge_adjacency(triangle()), np.asarray(expected, float))

    def test_diagonal_is_minus_one(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = edge_adjacency(random_graph(rng))
            assert np.array_equal(np.diag(a), -np.ones(a.shape[0]))

    def test_bundle_is_consistent(self):
        g = two_cycles()
        mats = graph_matrices(g)
        assert np.array_equal(mats["edge_adj"], edge_adjacency(g))


class TestSubformation:
    def test_closed_triangle_embeds(self):
        h = FormationGraph(n=3, edges=((0, 1), (2, 0), (1, 2)))
        assert contains_subformation(observation_graph(), h)

    def test_closed_four_vertex_subgraph_embeds(self):
        h = FormationGraph(n=4, edges=((0, 1), (2, 0), (1, 2), (3, 2), (3, 1)))
        assert contains_subformation(observation_graph(), h)

    def test_fork_with_external_targets_does_not_embed(self):
        # A vertex following two others can only map onto agents 4 or 5 of
        # the observation graph, and both of those images leak outgoing
        # edges to vertices outside the image set.
        h = FormationGraph(n=3, edges=((2, 0), (2, 1)))
        assert not contains_subformation(observation_graph(), h)

    def test_graph_embeds_into_itself(self):
        g = observation_graph()
        assert contains_subformation(g, g)

    def test_core_with_feeder_vertex_still_contains_core(self):
        core = two_cycles()
        g = FormationGraph(n=6, edges=core.edges + ((4, 0), (5, 2)))
        assert contains_subformation(g, core)

    def test_larger_graph_does_not_embed_into_smaller(self):
        assert not contains_subformation(triangle(), observation_graph())
