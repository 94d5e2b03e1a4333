"""Directed information-flow graphs and their adjacency matrices.

A formation graph records which agents measure which others: edge
``(o, t)`` means agent ``o`` observes agent ``t`` and steers along the
relative position ``x_t - x_o``. Edge identity is positional, so every
matrix built here indexes edges by their slot in the edge list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .errors import ConfigurationError
from .numkernel import NULLSPACE_TOL, left_nullspace, rk4_loop


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
        """Each edge's origin vertex, a read-only array shared by every caller."""
        return graph_matrices(self)["origins"]

    def targets(self):
        """Each edge's target vertex, a read-only array shared by every caller."""
        return graph_matrices(self)["targets"]


_TWO_CYCLES = FormationGraph(n=4, edges=((0, 1), (1, 2), (2, 0), (3, 2), (0, 3)))


def two_cycles():
    """The canonical 4-agent, 5-edge graph made of two directed 3-cycles.

    Edge order: (1,2), (2,3), (3,1), (4,3), (1,4) in 1-based labels.
    Vertex 1 is the only two-coleader agent. Every call returns the same
    frozen instance.
    """
    return _TWO_CYCLES


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


def _sum_source(terms, sign):
    """``0.0`` with each term added (``sign`` "+") or subtracted, left to right."""
    return " ".join(["0.0", *(f"{sign} {term}" for term in terms)])


def _at_edge(expression, k, s2):
    """A law expression at edge ``k``: ``sqrt(d)`` and ``d`` read its bound constants."""
    names = {"sqrt(d)": f"root{k}", "d": f"d{k}", "s2": f"({s2})"}
    return re.sub(r"\bsqrt\(d\)|\bd\b|\bs2\b", lambda name: names[name[0]], expression)


def _kernel_source(g, by_origin, weight, weight_dlen):
    """The flow kernel of ``g`` under one law's expressions, as Python source.

    ``weight`` and ``weight_dlen`` are a law's hooks as expressions over
    ``d``, ``s2``, ``sqrt`` and the law constant ``c``, or the calls
    ``weight(d, s2)`` and ``weight_dlen(d, s2)`` (see
    :class:`~.dynamics.ControlLaw`), and are written out at every edge.
    Returns the source, the flow as a ``field(xs, out)`` of
    :func:`~.numkernel.rk4_loop`, and the parameters of its loop.
    ``bind(weight, pair_weights, weight_dlen, c, d)`` binds a law's hooks,
    its constant and the targets, which it unpacks once into ``d0, d1, ...``
    with their square roots ``root0, root1, ...``, and returns five
    functions. ``gather(xs)`` returns the flat edge vectors ``z`` of a
    list of 2n coordinates, and ``scatter(u, z)`` adds each ``u_k z_k``
    into its origin agent in edge order from 0.0. ``weights(z)`` writes
    the weight per edge, but a coupled law's ``pair_weights`` (None if
    separable) weighs each two-coleader pair at its float inner product.
    ``flow(xs)`` is the gather lines, those weight lines and the scatter
    sums in one straight-line function, so it equals
    ``scatter(weights(z), z)`` at ``z = gather(xs)`` bit for bit without a
    nested call. ``field`` writes the same three parts on named
    coordinates, and ``bind`` sets ``flow.rk4_loop`` to the RK4 loop with
    them inlined, bound to the hooks and constants: the kernel's global
    ``integrate``, which :func:`graph_matrices` compiles on its first call.
    ``jacobian(xs)``, None if coupled, starts from the flow's gather and
    weight lines: edge ``k`` from ``o`` to ``t`` adds ``M_k = u_k I + 2
    u'_k z_k z_k^T`` at block ``(o, t)`` and subtracts it at block ``(o,
    o)``, each entry summed in edge order from 0.0, ``u'_k`` the
    ``weight_dlen`` (0.0 on a zero-length edge). Each expression is written
    once, in one list that every function using it is written from. The
    text holds integer indices and fixed names only.
    """
    n2 = 2 * g.n
    edges = range(g.m)

    def gather(xs):
        return [f"{xs[2 * t + c]} - {xs[2 * o + c]}" for o, t in g.edges for c in (0, 1)]

    xdot = [
        _sum_source([f"u{k} * z{2 * k + c}" for k in by_origin.get(a, ())], "+")
        for a in range(g.n)
        for c in (0, 1)
    ]

    def s2(k):
        return f"z{2 * k} * z{2 * k} + z{2 * k + 1} * z{2 * k + 1}"

    each = [_at_edge(weight, k, s2(k)) for k in edges]
    weighs = [f"u{ks[0]} = {each[ks[0]]}" for ks in by_origin.values() if len(ks) == 1]
    for i, j in (ks for ks in by_origin.values() if len(ks) == 2):
        inner = f"z{2 * i} * z{2 * j} + z{2 * i + 1} * z{2 * j + 1}"
        weighs.append(
            f"u{i}, u{j} = ({each[i]}, {each[j]}) if pair_weights is None else "
            f"pair_weights((d{i}, d{j}), ({s2(i)}, {s2(j)}), {inner})"
        )

    def weighed(xs):
        return [f"z{j} = {zj}" for j, zj in enumerate(gather(xs))] + weighs

    def field(xs, out):
        return weighed(xs) + [f"{v} = {vdot}" for v, vdot in zip(out, xdot)]

    ds, roots = ([f"{name}{k}" for k in edges] for name in ("d", "root"))
    params = ", ".join(["weight, pair_weights, c, sqrt", *ds, *roots])
    u = ", ".join(f"u{k}" for k in edges)
    z = ", ".join(f"z{j}" for j in range(2 * g.m))
    xs = [f"xs[{i}]" for i in range(n2)]
    jac = weighed(xs) + [f"q{k} = {s2(k)}" for k in edges]
    jac += [
        f"w{k} = 2.0 * (0.0 if q{k} == 0.0 else {_at_edge(weight_dlen, k, f'q{k}')})"
        for k in edges
    ]
    jac.append(f"jac = [0.0] * {n2 * n2}")
    diagonal = {}
    for k, (o, t) in enumerate(g.edges):
        x, y = f"z{2 * k}", f"z{2 * k + 1}"
        entries = (f"xx{k}", f"xy{k}", f"yx{k}", f"yy{k}")
        jac += [
            f"xx{k} = w{k} * {x} * {x} + u{k}",
            f"xy{k} = w{k} * {x} * {y}",
            f"yx{k} = w{k} * {y} * {x}",
            f"yy{k} = w{k} * {y} * {y} + u{k}",
        ]
        for r in (0, 1):
            row = (2 * o + r) * n2
            for c in (0, 1):
                jac.append(f"jac[{row + 2 * t + c}] = 0.0 + {entries[2 * r + c]}")
                diagonal.setdefault(row + 2 * o + c, []).append(entries[2 * r + c])
    jac += [f"jac[{at}] = {_sum_source(terms, '-')}" for at, terms in diagonal.items()]

    body = "\n        ".join
    source = f"""\
def gather(xs):
    return [{", ".join(gather(xs))}]


def scatter(u, z):
    [{u}] = u
    [{z}] = z
    return [{", ".join(xdot)}]


def bind(weight, pair_weights, weight_dlen, c, d):
    [{", ".join(ds)}] = d
    [{", ".join(roots)}] = map(sqrt, d)

    def weights(z):
        [{z}] = z
        {body(weighs)}
        return [{u}]

    def flow(xs):
        {body(weighed(xs))}
        return [{", ".join(xdot)}]

    def rk4_loop(x, k1, plan, times, store):
        return integrate({params}, x, k1, plan, times, store)

    def jacobian(xs):
        {body(jac)}
        return jac

    flow.rk4_loop = rk4_loop
    return {{
        "gather": gather,
        "scatter": scatter,
        "weights": weights,
        "flow": flow,
        "jacobian": jacobian if pair_weights is None else None,
    }}
"""
    return source, field, params


@lru_cache(maxsize=32)
def graph_matrices(g: FormationGraph):
    """Every matrix and index set the flow needs for ``g``, built once per graph.

    ``origins`` and ``targets`` hold each edge's end vertices, which
    :meth:`FormationGraph.origins` and :meth:`FormationGraph.targets` return.
    ``pairs`` holds the two edges of each two-coleader agent, which
    :func:`~.equilibria.classify_kind` tests for alignment.
    ``kernel(weight, weight_dlen, sqrt)`` returns the ``bind`` of the
    graph's flow kernel under one pair of law expressions (see
    :func:`_kernel_source`), compiled on the first call with that pair and
    ``sqrt`` and kept, in a namespace that holds no module and whose
    ``sqrt`` is the one given. That function sets the number type the
    kernel runs on: ``math.sqrt``, correctly rounded, for Python floats,
    and ``np.sqrt``, correctly rounded too, for NumPy arrays with one entry
    per state, whose rows then carry the float kernel's bits. Each bundle
    binds its law's hooks, constant and targets with it, which compiles
    nothing. The
    flow's RK4 loop, :func:`~.numkernel.rk4_loop` with the flow's lines
    inlined, is compiled into that namespace on the first integration with
    any bundle bound to it, so a process that never integrates never
    compiles it. The arrays are read-only because every caller of the
    graph shares them.
    """
    edge_adj = edge_adjacency(g)
    by_origin = {}
    for k, (o, _) in enumerate(g.edges):
        by_origin.setdefault(o, []).append(k)

    @lru_cache(maxsize=None)
    def kernel(weight, weight_dlen, sqrt):
        source, field, params = _kernel_source(g, by_origin, weight, weight_dlen)

        def integrate(*run):  # replaces itself with the compiled loop on the first run
            namespace["integrate"] = rk4_loop(2 * g.n, params, field)
            return namespace["integrate"](*run)

        namespace = {"sqrt": sqrt, "integrate": integrate}
        exec(compile(source, "<flow kernel>", "exec"), namespace)
        return namespace["bind"]

    mats = {
        "origins": np.array([o for o, _ in g.edges], dtype=int),
        "targets": np.array([t for _, t in g.edges], dtype=int),
        "edge_adj": edge_adj,
        "cycles": left_nullspace(mixed_adjacency(g), NULLSPACE_TOL),
        "pairs": tuple(tuple(ks) for ks in by_origin.values() if len(ks) == 2),
        "kernel": kernel,
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
