"""Frameworks, target lengths, rigidity predicates, and the singular set.

A framework places a graph's vertices in the plane. Target lengths are
stored as squared distances regardless of how the user supplied them.
Whether edge errors compare squared or plain lengths is the control law's
convention, which the error functions take as an argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibleLengthsError
from .graph import FormationGraph, graph_matrices, mixed_adjacency, two_cycles
from .numkernel import kron_I2, squared_lengths

CONVENTIONS = ("squared", "plain")
DESIGN_TOL = 1e-8  # largest edge error of a design point; also classify_kind's tolerance
SINGULAR_TOL = 1e-9  # alignment tolerance of a singular witness's two-coleader pair
# The rigidity run's rank tolerance: a flat triangle's smallest singular value
# ratio, 3e-17, is rounding, and the 7e-9 of one an ulp short of flat is rank.
RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Framework:
    """Planar embedding of a formation graph's vertices."""

    graph: FormationGraph
    x: np.ndarray

    def __post_init__(self):
        pts = np.array(self.x, dtype=float, order="C")  # the one copy, whatever the input
        if pts.shape != (self.graph.n, 2):
            raise ConfigurationError(
                f"expected {self.graph.n} planar points, got array of shape {pts.shape}"
            )
        if np.count_nonzero(np.isfinite(pts)) != pts.size:
            raise ConfigurationError("framework coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "x", pts)

    def with_positions(self, x):
        return Framework(graph=self.graph, x=x)


def aligned_framework(graph, a, alpha, h, bb):
    """Agents 1, 2 and 4 at 0, ``a`` and ``bb`` on the x axis, agent 3 at ``(alpha, h)``.

    The one aligned placement, of the aligned solver and the singular witness.
    """
    return Framework(graph=graph, x=np.array([[0.0, 0.0], [a, 0.0], [alpha, h], [bb, 0.0]]))


def edge_block_rows(z):
    """The m-by-2m matrix ``D(z)`` whose i-th row carries ``z_i`` in pair i.

    It turns stacked planar vectors into per-edge scalar projections.
    """
    z = np.asarray(z, dtype=float)
    m = z.shape[0]
    d = np.zeros((m, 2 * m))
    for i in range(m):
        d[i, 2 * i : 2 * i + 2] = z[i]
    return d


def edge_vectors(f: Framework):
    """Edge vectors ``z_i = x_target - x_origin`` in edge order, as (m, 2) rows."""
    return f.x[f.graph.targets()] - f.x[f.graph.origins()]


def _check_convention(v):
    if v not in CONVENTIONS:
        raise ConfigurationError(f"unknown length convention {v!r}; expected one of {CONVENTIONS}")


@dataclass(frozen=True)
class TargetLengths:
    """Squared target lengths ``d``, each positive and finite."""

    d: tuple[float, ...]

    def __post_init__(self):
        d = tuple(float(v) for v in self.d)
        object.__setattr__(self, "d", d)
        if any(not math.isfinite(v) or v <= 0 for v in d):
            raise InfeasibleLengthsError("target lengths must be positive and finite")

    @classmethod
    def from_values(cls, values, convention):
        """Build from user-facing values in ``convention``: plain lengths get squared."""
        _check_convention(convention)
        vals = [float(v) for v in values]
        if convention == "plain":
            if any(v <= 0 for v in vals):
                raise InfeasibleLengthsError("plain lengths must be positive")
            for i, v in enumerate(vals, 1):
                if math.isfinite(v) and not math.isfinite(v * v):
                    raise ConfigurationError(
                        f"edge {i}'s plain length {v:.6g} overflows the float range when squared"
                    )
                if v * v == 0.0:
                    raise ConfigurationError(
                        f"edge {i}'s plain length {v:.6g} underflows to zero when squared"
                    )
            vals = [v * v for v in vals]
        return cls(d=tuple(vals))

    def perturbed(self, edge, delta):
        """A copy with the stored squared length of edge ``0 <= edge < m`` shifted by ``delta``."""
        if not 0 <= edge < len(self.d):
            raise ConfigurationError(f"edge index {edge} outside 0..{len(self.d) - 1}")
        d = list(self.d)
        d[edge] += delta
        return TargetLengths(d=tuple(d))


def edge_errors(f: Framework, lengths: TargetLengths, convention):
    """Per-edge length errors of a framework under the error ``convention``."""
    if len(lengths.d) != f.graph.m:
        raise ConfigurationError(
            f"{len(lengths.d)} target lengths for a graph with {f.graph.m} edges"
        )
    return length_errors(edge_vectors(f), lengths.d, convention)


def length_errors(z, d, convention):
    """Edge errors of ``z``: ``|z|^2 - d`` if squared, ``|z| - sqrt(d)`` if plain, else refused.

    ``z`` is flat (2m), rows (m, 2), or a stack of rows (..., m, 2), whose
    errors come back with the stack's leading shape. ``d`` holds the
    squared targets, one per edge, or rows of them that broadcast against
    the stack, so each framework of a stack may have targets of its own.
    """
    _check_convention(convention)
    z = np.asarray(z, dtype=float)
    s2 = squared_lengths(z).reshape(z.shape[:-2] + (-1,))
    d = np.asarray(d, dtype=float)
    if convention == "plain":
        return np.sqrt(s2) - np.sqrt(d)
    return s2 - d


def within_design_tol(errors):
    """The design test: every edge error within ``DESIGN_TOL``; a NaN is not."""
    return bool(np.max(np.abs(errors)) <= DESIGN_TOL)


def rigidity_matrix(f: Framework):
    """Jacobian of the squared-length map, factored as ``D(z) @ A_m^(2)``.

    Row ``i`` therefore carries ``-z_i`` transposed in the origin block and
    ``+z_i`` transposed in the target block.
    """
    return edge_block_rows(edge_vectors(f)) @ kron_I2(mixed_adjacency(f.graph))


def rigidity_verdicts(graph: FormationGraph, rank):
    """``(rigid, minimal)``: rigid at ``rank`` 2n - 3, minimal with 2n - 3 edges too."""
    rigid = rank == 2 * graph.n - 3
    return rigid, rigid and graph.m == 2 * graph.n - 3


def planar_cross(u, v):
    """Scalar cross product of two planar vectors."""
    return float(u[0] * v[1] - u[1] * v[0])


def edges_aligned(u, v, tol):
    """Whether planar vectors ``u`` and ``v`` are parallel or antiparallel.

    Both must be longer than ``tol``; then ``|u x v| <= tol |u| |v|``.
    """
    nu = float(np.hypot(*u))
    nv = float(np.hypot(*v))
    return nu > tol and nv > tol and abs(planar_cross(u, v)) <= tol * nu * nv


def _circle_intersection_height(center_dist, r_near, r_far, edge_names):
    """Abscissa and height of the intersection of two circles.

    Centers sit ``center_dist`` apart on a local axis; the first circle has
    radius ``r_near`` about the axis origin and the second radius ``r_far``
    about the far center. Raises when the circles do not meet, naming the
    edge triple whose triangle inequality failed. A triangle flat within
    the rounding tolerance, whose abscissa overshoots ``r_near``, puts the
    apex on the axis at distance ``r_near`` on the abscissa's side, so the
    near edge keeps its length. Squares that sum past the float range raise.
    """
    e1, e2, e3 = edge_names
    numerator = center_dist**2 + r_near**2 - r_far**2
    if not math.isfinite(numerator):
        raise ConfigurationError(
            f"edges {e1}, {e2}, {e3} overflow the float range: the squares of circle "
            f"radii {r_near:.6g} and {r_far:.6g} and of their centers' distance "
            f"{center_dist:.6g} sum past the largest float"
        )
    alpha = numerator / (2.0 * center_dist)
    try:
        beta_sq = r_near**2 - alpha**2
    except OverflowError:  # alpha's square is past the float range: no intersection
        beta_sq = -math.inf
    if beta_sq < -1e-12 * max(1.0, r_near**2):
        raise InfeasibleLengthsError(
            f"edges {e1}, {e2}, {e3} violate the triangle inequality: "
            f"circles of radii {r_near:.6g} and {r_far:.6g} with centers "
            f"{center_dist:.6g} apart do not intersect"
        )
    if beta_sq < 0.0:
        return math.copysign(r_near, alpha), 0.0
    return alpha, math.sqrt(beta_sq)


def realize_two_cycles(graph: FormationGraph, lengths: TargetLengths):
    """All planar realizations of two-cycles target lengths, in canonical gauge.

    The gauge pins ``x1`` at the origin and the first edge along the
    positive x axis. Generic lengths give four frameworks (two mirror
    pairs); tangency of either circle pair collapses coincident solutions,
    so fewer may be returned. Infeasible lengths raise, naming the violated
    triangle. Each framework is verified to meet its squared-length targets
    to 1e-12 relative to the largest (at least 1); a triangle flat within
    rounding whose apex misses that bound is infeasible too, and named.

    The construction, the deduplication and the verification run on Python
    floats. They perform the IEEE operations of the same construction on
    NumPy arrays (``np.sqrt`` of the targets, (4, 2) position rows,
    ``squared_lengths(edge_vectors(f))``) in the same order, so every
    framework, refusal and message matches that construction bit for bit;
    ``tests/normal_forms.py`` keeps it as the oracle.
    """
    if graph != two_cycles():
        raise ConfigurationError("realization is implemented for the two-cycles graph")
    d = lengths.d
    if len(d) != 5:
        raise ConfigurationError(f"two-cycles needs 5 target lengths, got {len(d)}")
    r = [math.sqrt(v) for v in d]
    alpha3, beta3 = _circle_intersection_height(r[0], r[2], r[1], (1, 2, 3))
    alpha4, beta4 = _circle_intersection_height(r[2], r[4], r[3], (3, 4, 5))
    placed = []
    for s3 in (1.0, -1.0):
        h3 = s3 * beta3
        ux, uy = alpha3 / r[2], h3 / r[2]  # agent 3's unit direction
        for s4 in (1.0, -1.0):
            w = s4 * beta4
            # + 0.0 turns a -0.0 into 0.0, as canonical_gauge would
            x = [0.0, 0.0, r[0] + 0.0, 0.0, alpha3 + 0.0, h3 + 0.0,
                 alpha4 * ux + w * -uy + 0.0, alpha4 * uy + w * ux + 0.0]
            if not any(all(abs(p - q) <= 1e-12 for p, q in zip(x, other)) for other in placed):
                placed.append(x)
    # a non-finite placement lies within 1e-12 of no other, so it is kept and refused here
    frameworks = [Framework(graph=graph, x=p) for p in np.array(placed).reshape(-1, 4, 2)]
    tol = 1e-12 * max(1.0, max(d))
    for x in placed:
        for k, ((o, t), dk) in enumerate(zip(graph.edges, d)):
            zx, zy = x[2 * t] - x[2 * o], x[2 * t + 1] - x[2 * o + 1]
            miss = abs(zx * zx + zy * zy - dk)
            if miss > tol:
                raise InfeasibleLengthsError(
                    f"edges {'1, 2, 3' if k < 3 else '3, 4, 5'} are too near flat to realize: "
                    f"edge {k + 1} misses its squared target by {miss:.3e}, above {tol:.3e}"
                )
    return frameworks


@dataclass(frozen=True, eq=False)
class SingularLengths:
    """Output of :func:`make_singular_lengths`: lengths plus their witness."""

    lengths: TargetLengths
    witness: Framework
    coincident_agents: bool


def make_singular_lengths(d1, d2, d3, signed_z5_length):
    """Target lengths whose realization set touches the singular locus.

    The first three squared lengths fix the triangle on agents 1, 2, 3;
    the signed scalar places agent 4 on the line through the first edge,
    at ``x4 = x1 - s * zhat1``, which forces the first and fifth edge
    vectors parallel. Positive ``s`` puts agent 4 on the far side of
    agent 1; ``s = -sqrt(d1)`` lands exactly on agent 2, which is allowed
    but flagged. The remaining lengths ``d4``, ``d5`` are read off the
    construction.
    """
    s = float(signed_z5_length)
    if s == 0.0:
        raise InfeasibleLengthsError("the signed fifth-edge length must be nonzero")
    if not math.isfinite(s):
        raise InfeasibleLengthsError(f"the signed fifth-edge length must be finite, got {s!r}")
    for name, val in (("d1", d1), ("d2", d2), ("d3", d3)):
        if not float(val) > 0:  # NaN too; an infinite side fails the triangle test below
            raise InfeasibleLengthsError(f"{name} must be positive")
    r1, r2, r3 = math.sqrt(d1), math.sqrt(d2), math.sqrt(d3)
    sides = {"sqrt(d1)": r1, "sqrt(d2)": r2, "sqrt(d3)": r3}
    for name, val in sides.items():
        others = sum(v for k, v in sides.items() if k != name)
        if val >= others:
            raise InfeasibleLengthsError(
                f"triangle on agents 1, 2, 3 is degenerate: {name} = {val:.6g} "
                f">= sum of the other sides = {others:.6g} (strict inequality required)"
            )
    alpha = (d1 + d3 - d2) / (2.0 * r1)
    beta = math.sqrt(d3 - alpha * alpha)
    witness = aligned_framework(two_cycles(), r1, alpha, -beta, -s)
    x = witness.x
    d4 = float(squared_lengths(x[3] - x[2])[0])
    d5 = s * s
    lengths = TargetLengths(d=(float(d1), float(d2), float(d3), d4, d5))
    coincident = bool(np.max(np.abs(x[3] - x[1])) <= 1e-12 * max(1.0, r1))
    return SingularLengths(lengths=lengths, witness=witness, coincident_agents=coincident)


def in_singular_set(lengths: TargetLengths):
    """Whether some two-cycles realization aligns edges 1 and 5; infeasible ``lengths`` raise."""
    return bool(singular_witnesses(realize_two_cycles(two_cycles(), lengths)))


def singular_witnesses(frameworks):
    """The frameworks in which a two-coleader pair of their graph's edges is aligned."""
    return [fw for fw in frameworks if any(
        edges_aligned(*edge_vectors(fw)[list(p)], SINGULAR_TOL)
        for p in graph_matrices(fw.graph)["pairs"]
    )]
