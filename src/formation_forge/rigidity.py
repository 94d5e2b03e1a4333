"""Frameworks, target lengths, rigidity predicates, and the singular set.

A framework places a graph's vertices in the plane. Target lengths are
stored as squared distances regardless of how the user supplied them; a
``convention`` tag records whether edge errors compare squared lengths or
plain lengths, because the two choices produce genuinely different
dynamics away from equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InfeasibleLengthsError
from .graph import FormationGraph, mixed_adjacency, two_cycles
from .numkernel import kron_I2, rank_tol, squared_lengths

CONVENTIONS = ("squared", "plain")


@dataclass(frozen=True, eq=False)
class Framework:
    """Planar embedding of a formation graph's vertices."""

    graph: FormationGraph
    x: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.x, dtype=float)
        if pts.shape != (self.graph.n, 2):
            raise ConfigurationError(
                f"expected {self.graph.n} planar points, got array of shape {pts.shape}"
            )
        if not np.all(np.isfinite(pts)):
            raise ConfigurationError("framework coordinates must be finite")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "x", pts)

    def with_positions(self, x):
        return Framework(graph=self.graph, x=x)


@dataclass(frozen=True, eq=False)
class EdgeVectors:
    """Per-edge relative positions and their block-row matrix.

    ``Dz`` is the m-by-2m matrix whose i-th row carries ``z_i`` transposed
    in the i-th coordinate pair; it turns stacked planar vectors into
    per-edge scalar projections.
    """

    z: np.ndarray
    Dz: np.ndarray


def edge_block_rows(z):
    z = np.asarray(z, dtype=float)
    m = z.shape[0]
    d = np.zeros((m, 2 * m))
    for i in range(m):
        d[i, 2 * i : 2 * i + 2] = z[i]
    return d


def edge_vectors(f: Framework):
    """Edge vectors ``z_i = x_target - x_origin`` in edge order."""
    z = f.x[f.graph.targets()] - f.x[f.graph.origins()]
    return EdgeVectors(z=z, Dz=edge_block_rows(z))


@dataclass(frozen=True)
class TargetLengths:
    """Squared target lengths plus the error convention they drive.

    ``d`` always holds squared lengths. Under the ``squared`` convention
    the edge error is ``|z|^2 - d``; under ``plain`` it is ``|z| - sqrt(d)``.
    """

    d: tuple[float, ...]
    convention: str = "squared"

    def __post_init__(self):
        d = tuple(float(v) for v in self.d)
        object.__setattr__(self, "d", d)
        if self.convention not in CONVENTIONS:
            raise ConfigurationError(
                f"unknown length convention {self.convention!r}; expected one of {CONVENTIONS}"
            )
        if any(not math.isfinite(v) or v <= 0 for v in d):
            raise InfeasibleLengthsError("target lengths must be positive and finite")

    @classmethod
    def from_values(cls, values, convention="squared"):
        """Build from user-facing values: plain lengths get squared for storage."""
        vals = [float(v) for v in values]
        if convention == "plain":
            if any(v <= 0 for v in vals):
                raise InfeasibleLengthsError("plain lengths must be positive")
            return cls(d=tuple(v * v for v in vals), convention="plain")
        return cls(d=tuple(vals), convention=convention)

    @property
    def values(self):
        """User-facing values: square roots under the plain convention."""
        if self.convention == "plain":
            return tuple(math.sqrt(v) for v in self.d)
        return self.d

    def as_array(self):
        return np.asarray(self.d, dtype=float)

    def perturbed(self, edge, delta):
        """A copy with the stored squared length of one edge shifted by ``delta``."""
        d = list(self.d)
        d[edge] += delta
        return TargetLengths(d=tuple(d), convention=self.convention)


def edge_errors(f: Framework, lengths: TargetLengths):
    """Per-edge length errors under the convention carried by ``lengths``."""
    if len(lengths.d) != f.graph.m:
        raise ConfigurationError(
            f"{len(lengths.d)} target lengths for a graph with {f.graph.m} edges"
        )
    return length_errors(edge_vectors(f).z, lengths)


def length_errors(z, lengths: TargetLengths):
    """Per-edge errors of edge vectors ``z`` against ``lengths``.

    ``z`` is flat (2m), rows (m, 2), or a stack of rows (..., m, 2), whose
    errors come back with the stack's leading shape.
    """
    z = np.asarray(z, dtype=float)
    s2 = squared_lengths(z).reshape(z.shape[:-2] + (-1,))
    d = lengths.as_array()
    if lengths.convention == "plain":
        return np.sqrt(s2) - np.sqrt(d)
    return s2 - d


def rigidity_matrix(f: Framework):
    """Jacobian of the squared-length map, factored as ``D(z) @ A_m^(2)``.

    Row ``i`` therefore carries ``-z_i`` transposed in the origin block and
    ``+z_i`` transposed in the target block.
    """
    ev = edge_vectors(f)
    return ev.Dz @ kron_I2(mixed_adjacency(f.graph))


def is_infinitesimally_rigid(f: Framework, tol=1e-9):
    """True when the rigidity matrix reaches rank ``2n - 3``."""
    return rank_tol(rigidity_matrix(f), tol) == 2 * f.graph.n - 3


def is_minimally_rigid(f: Framework, tol=1e-9):
    """True when rigid and no single edge can be removed without losing rigidity."""
    if not is_infinitesimally_rigid(f, tol):
        return False
    full_rank = 2 * f.graph.n - 3
    g = f.graph
    for k in range(g.m):
        reduced = FormationGraph(n=g.n, edges=g.edges[:k] + g.edges[k + 1 :])
        sub = Framework(graph=reduced, x=f.x)
        if rank_tol(rigidity_matrix(sub), tol) >= full_rank:
            return False
    return True


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
    edge triple whose triangle inequality failed.
    """
    alpha = (center_dist**2 + r_near**2 - r_far**2) / (2.0 * center_dist)
    beta_sq = r_near**2 - alpha**2
    if beta_sq < -1e-12 * max(1.0, r_near**2):
        e1, e2, e3 = edge_names
        raise InfeasibleLengthsError(
            f"edges {e1}, {e2}, {e3} violate the triangle inequality: "
            f"circles of radii {r_near:.6g} and {r_far:.6g} with centers "
            f"{center_dist:.6g} apart do not intersect"
        )
    return alpha, math.sqrt(max(beta_sq, 0.0))


def realize_two_cycles(lengths: TargetLengths, graph: FormationGraph | None = None):
    """All planar realizations of two-cycles target lengths, in canonical gauge.

    The gauge pins ``x1`` at the origin and the first edge along the
    positive x axis. Generic lengths give four frameworks (two mirror
    pairs); tangency of either circle pair collapses coincident solutions,
    so fewer may be returned. Infeasible lengths raise, naming the violated
    triangle.
    """
    g = graph if graph is not None else two_cycles()
    if g.edges != two_cycles().edges or g.n != 4:
        raise ConfigurationError("realization is implemented for the two-cycles graph")
    d = lengths.as_array()
    if d.size != 5:
        raise ConfigurationError(f"two-cycles needs 5 target lengths, got {d.size}")
    r = np.sqrt(d)
    x1 = np.zeros(2)
    x2 = np.array([r[0], 0.0])
    alpha3, beta3 = _circle_intersection_height(r[0], r[2], r[1], (1, 2, 3))
    frameworks = []
    for s3 in (1.0, -1.0):
        x3 = np.array([alpha3, s3 * beta3])
        u_hat = x3 / r[2]
        u_perp = np.array([-u_hat[1], u_hat[0]])
        alpha4, beta4 = _circle_intersection_height(r[2], r[4], r[3], (3, 4, 5))
        for s4 in (1.0, -1.0):
            x4 = alpha4 * u_hat + s4 * beta4 * u_perp
            fw = Framework(graph=g, x=np.vstack([x1, x2, x3, x4]))
            if not any(np.max(np.abs(fw.x - other.x)) <= 1e-12 for other in frameworks):
                frameworks.append(fw)
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
    for name, val in (("d1", d1), ("d2", d2), ("d3", d3)):
        if float(val) <= 0:
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
    x = np.array(
        [
            [0.0, 0.0],
            [r1, 0.0],
            [alpha, -beta],
            [-s, 0.0],
        ]
    )
    witness = Framework(graph=two_cycles(), x=x)
    d4 = float(np.sum((x[2] - x[3]) ** 2))
    d5 = s * s
    lengths = TargetLengths(d=(float(d1), float(d2), float(d3), d4, d5))
    coincident = bool(np.max(np.abs(x[3] - x[1])) <= 1e-12 * max(1.0, r1))
    return SingularLengths(lengths=lengths, witness=witness, coincident_agents=coincident)


def in_singular_set(lengths: TargetLengths, tol=1e-9):
    """Whether some realization has its first and fifth edges parallel.

    Infeasible lengths raise rather than returning false, because
    membership is only defined over realizable targets.
    """
    return bool(singular_witnesses(lengths, tol))


def singular_witnesses(lengths: TargetLengths, tol=1e-9):
    """Realizations of ``lengths`` whose first and fifth edges are aligned."""
    return [
        fw for fw in realize_two_cycles(lengths)
        if edges_aligned(*edge_vectors(fw).z[[0, 4]], tol)
    ]
