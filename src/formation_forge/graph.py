"""Directed information-flow graphs and their adjacency matrices.

A formation graph records which agents measure which others: edge
``(o, t)`` means agent ``o`` observes agent ``t`` and steers along the
relative position ``x_t - x_o``. Edge identity is positional, so every
matrix built here indexes edges by their slot in the edge list.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import ConfigurationError
from .numkernel import kron_I2, left_nullspace


@dataclass(frozen=True)
class FormationGraph:
    """Directed graph on vertices ``0..n-1`` with an ordered edge list.

    Vertices may observe at most two others (outvalence at most 2), the
    regime the control laws in :mod:`.dynamics` are written for.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigurationError("vertex count must be positive")
        edges = tuple((int(o), int(t)) for o, t in self.edges)
        object.__setattr__(self, "edges", edges)
        seen = set()
        counts = {}
        for i, (o, t) in enumerate(edges):
            for v in (o, t):
                if not 0 <= v < self.n:
                    raise ConfigurationError(
                        f"edge {i + 1} references vertex {v + 1} of {self.n}"
                    )
            if o == t:
                raise ConfigurationError(f"edge {i + 1} is a self-loop on vertex {o + 1}")
            if (o, t) in seen:
                raise ConfigurationError(f"edge {i + 1} duplicates edge ({o + 1},{t + 1})")
            seen.add((o, t))
            counts[o] = counts.get(o, 0) + 1
            if counts[o] > 2:
                raise ConfigurationError(
                    f"vertex {o + 1} has outvalence {counts[o]}; at most 2 is supported"
                )

    @property
    def m(self):
        return len(self.edges)

    def origins(self):
        return np.array([o for o, _ in self.edges], dtype=int)

    def targets(self):
        return np.array([t for _, t in self.edges], dtype=int)


def two_cycles():
    """The canonical 4-agent, 5-edge graph made of two directed 3-cycles.

    Edge order: (1,2), (2,3), (3,1), (4,3), (1,4) in 1-based labels.
    Vertex 1 is the only two-coleader agent.
    """
    return FormationGraph(n=4, edges=((0, 1), (1, 2), (2, 0), (3, 2), (0, 3)))


def mixed_adjacency(g: FormationGraph):
    """Edge-by-vertex signed adjacency: -1 at the origin, +1 at the target.

    Stacked edge vectors are recovered as ``kron_I2(mixed_adjacency(g)) @ x``.
    """
    a = np.zeros((g.m, g.n))
    for i, (o, t) in enumerate(g.edges):
        a[i, o] = -1.0
        a[i, t] = 1.0
    return a


def edge_adjacency(g: FormationGraph):
    """Edge-by-edge coupling matrix of the edge-vector dynamics.

    Entry ``(i, j)`` is -1 when the edges share their origin (so the
    diagonal is -1), +1 when edge ``i`` ends where edge ``j`` starts, and
    0 otherwise, including when edge ``i`` starts where edge ``j`` ends.
    """
    a = np.zeros((g.m, g.m))
    for i, (oi, ti) in enumerate(g.edges):
        for j, (oj, _) in enumerate(g.edges):
            if oi == oj:
                a[i, j] = -1.0
            elif ti == oj:
                a[i, j] = 1.0
    return a


def outvalence(g: FormationGraph, v: int):
    """Number of edges leaving vertex ``v``."""
    if not 0 <= v < g.n:
        raise ConfigurationError(f"vertex {v + 1} of {g.n} does not exist")
    return sum(1 for o, _ in g.edges if o == v)


@lru_cache(maxsize=32)
def graph_matrices(g: FormationGraph):
    """Every matrix and index set the flow needs for ``g``, built once per graph.

    ``singles`` and ``pairs`` group the edges by origin agent: the edge of
    each agent that observes one other, and the two edges of each
    two-coleader agent. ``gather`` pairs ``(2o+c, 2t+c)`` and ``scatter``
    triples ``(2o+c, k, 2k+c)`` index the flat coordinates of the float
    flow, edge by edge. The arrays are read-only because every caller of
    the graph shares them.
    """
    edge_adj = edge_adjacency(g)
    by_origin = {}
    for k, (o, _) in enumerate(g.edges):
        by_origin.setdefault(o, []).append(k)
    mats = {
        "edge_adj": edge_adj,
        "edge_adj2": kron_I2(edge_adj),
        "cycles": left_nullspace(mixed_adjacency(g), 1e-12),
        "singles": tuple(ks[0] for ks in by_origin.values() if len(ks) == 1),
        "pairs": tuple(tuple(ks) for ks in by_origin.values() if len(ks) == 2),
        "gather": tuple((2 * o + c, 2 * t + c) for o, t in g.edges for c in (0, 1)),
        "scatter": tuple(
            (2 * o + c, k, 2 * k + c) for k, (o, _) in enumerate(g.edges) for c in (0, 1)
        ),
    }
    for value in mats.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return mats


def contains_subformation(g: FormationGraph, h: FormationGraph):
    """Whether ``h`` embeds into ``g`` as a subformation.

    An embedding is an injection of vertices that maps every edge of ``h``
    onto an edge of ``g`` and whose image is closed under outgoing edges:
    any edge of ``g`` leaving an image vertex must itself be the image of
    an edge of ``h``. Closure is what lets stability obstructions on the
    sub-graph transfer to the whole formation.
    """
    if h.n > g.n:
        return False
    g_edges = set(g.edges)
    for image in permutations(range(g.n), h.n):
        mapped = {(image[o], image[t]) for o, t in h.edges}
        if not mapped <= g_edges:
            continue
        image_set = set(image)
        closed = all(
            (o, t) in mapped for (o, t) in g.edges if o in image_set
        )
        if closed:
            return True
    return False
