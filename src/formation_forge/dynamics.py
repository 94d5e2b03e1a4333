"""Decentralized control laws and the formation vector field.

The dynamics move every agent along its outgoing edge vectors, weighted
by a scalar feedback ``u`` of the edge's length error. The same flow can
be written in agent coordinates (``F_x``, dimension 2n) or edge
coordinates (``F_z``, dimension 2m); the edge form is the one whose
Jacobian factors in closed form at design equilibria, which is what the
singularity and bifurcation analyses lean on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    FormulaDomainError,
    InconsistentStateError,
    UnknownLawError,
)
from .graph import FormationGraph, graph_matrices
from .numkernel import fd_jacobian
from .rigidity import TargetLengths, edge_block_rows, length_errors

BUILTIN_LAW_NAMES = ("gradient_squared", "gradient_plain", "eq1_plain")

_EQUILIBRIUM_ERROR_TOL = 1e-8
_CYCLE_TOL = 1e-6


class ControlLaw:
    """Scalar edge feedback ``u(d; length)`` with derivative hooks.

    Every hook reads one edge: the stored squared target ``d`` and the
    squared current length ``s2`` come in as floats and a float goes out.
    Working in squared quantities keeps the chain rule through
    ``s2 = z.z`` uniform across conventions. Compatibility requires the
    weight to vanish exactly when the edge error does.

    Two-coleader agents evaluate their pair of weights through
    ``pair_weights``, which also receives the inner product of the two
    edge vectors so laws may couple the pair. The built-in laws are
    separable (each weight depends on its own edge only), which is also
    the regime where the analytic Jacobian factorizations are exact.
    """

    name = "abstract"
    convention = "squared"
    separable = True

    def __init__(self, gain=1.0):
        if not (math.isfinite(gain) and gain > 0):
            raise ConfigurationError(f"law gain must be finite and positive, got {gain!r}")
        self.gain = float(gain)

    def weight(self, d, s2):
        raise NotImplementedError

    def weight_dlen(self, d, s2):
        """Derivative of the weight in the squared current length."""
        raise NotImplementedError

    def weight_dtarget(self, d, s2):
        """Derivative of the weight in the stored squared target."""
        raise NotImplementedError

    def weight_dlen2(self, d, s2):
        """Second derivative of the weight in the squared current length."""
        raise NotImplementedError

    def pair_weights(self, d_pair, s2_pair, s):
        return self.weight(d_pair[0], s2_pair[0]), self.weight(d_pair[1], s2_pair[1])

    def pair_cross(self, d_pair, s2_pair, s):
        """Cross derivatives (du_a/ds2_b, du_b/ds2_a) for a coupled pair."""
        return (0.0, 0.0)

    def __repr__(self):
        return f"{type(self).__name__}(gain={self.gain})"


class GradientSquaredLaw(ControlLaw):
    """Weight equal to the squared-length error: ``u = gain * (|z|^2 - d)``."""

    name = "gradient_squared"
    convention = "squared"

    def weight(self, d, s2):
        return self.gain * (s2 - d)

    def weight_dlen(self, d, s2):
        return self.gain

    def weight_dtarget(self, d, s2):
        return -self.gain

    def weight_dlen2(self, d, s2):
        return 0.0


class GradientPlainLaw(ControlLaw):
    """Weight equal to the plain-length error: ``u = gain * (|z| - sqrt(d))``.

    The square roots are ``math.sqrt``, which is correctly rounded;
    ``s2 ** 0.5`` is not, and would move the last bit of some weights.
    """

    name = "gradient_plain"
    convention = "plain"

    def __init__(self, gain=1.0, sign=1.0):
        super().__init__(gain)
        self._sign = float(sign)

    def weight(self, d, s2):
        return self._sign * self.gain * (math.sqrt(s2) - math.sqrt(d))

    def weight_dlen(self, d, s2):
        return self._sign * self.gain / (2.0 * math.sqrt(s2))

    def weight_dtarget(self, d, s2):
        return -self._sign * self.gain / (2.0 * math.sqrt(d))

    def weight_dlen2(self, d, s2):
        return -self._sign * self.gain / (4.0 * s2 * math.sqrt(s2))


class Eq1PlainLaw(GradientPlainLaw):
    """Literal transcription of the plain-error law with its printed sign.

    As printed the coefficient pushes agents away from their targets, so
    every design equilibrium repels; the ``sign_corrected`` toggle flips
    the orientation, after which the law coincides with
    :class:`GradientPlainLaw`. Both variants are kept so the published
    form stays reproducible exactly as stated.
    """

    name = "eq1_plain"
    convention = "plain"

    def __init__(self, gain=1.0, sign_corrected=False):
        super().__init__(gain, sign=1.0 if sign_corrected else -1.0)
        self.sign_corrected = bool(sign_corrected)


class CustomLaw(ControlLaw):
    """User-supplied weight function with finite-difference derivatives.

    ``func(d, s2)`` must return the scalar weight. Derivative hooks fall
    back to central differences with the shared step policy, which is
    accurate enough for the second-derivative quantities the bifurcation
    tests need. An optional ``pair_func(d_pair, s2_pair, s)`` makes the
    law non-separable; its cross derivatives are also finite differences.
    """

    def __init__(self, func, name="custom", gain=1.0, convention="squared", pair_func=None):
        super().__init__(gain)
        if convention not in ("squared", "plain"):
            raise ConfigurationError(f"unknown law convention {convention!r}")
        self.name = name
        self.convention = convention
        self._func = func
        self._pair = pair_func
        self.separable = pair_func is None

    def weight(self, d, s2):
        return float(self._func(d, s2))

    def _step(self, v):
        return 1e-6 * max(1.0, abs(float(v)))

    def weight_dlen(self, d, s2):
        h = self._step(s2)
        return (self._func(d, s2 + h) - self._func(d, s2 - h)) / (2.0 * h)

    def weight_dtarget(self, d, s2):
        h = self._step(d)
        return (self._func(d + h, s2) - self._func(d - h, s2)) / (2.0 * h)

    def weight_dlen2(self, d, s2):
        h = 1e-4 * max(1.0, abs(float(s2)))
        f = self._func
        return (f(d, s2 + h) - 2.0 * f(d, s2) + f(d, s2 - h)) / (h * h)

    def pair_weights(self, d_pair, s2_pair, s):
        if self._pair is None:
            return super().pair_weights(d_pair, s2_pair, s)
        ua, ub = self._pair(d_pair, s2_pair, s)
        return float(ua), float(ub)

    def pair_cross(self, d_pair, s2_pair, s):
        if self._pair is None:
            return (0.0, 0.0)
        ha = self._step(s2_pair[1])
        hb = self._step(s2_pair[0])
        up = self._pair(d_pair, (s2_pair[0], s2_pair[1] + ha), s)[0]
        um = self._pair(d_pair, (s2_pair[0], s2_pair[1] - ha), s)[0]
        vp = self._pair(d_pair, (s2_pair[0] + hb, s2_pair[1]), s)[1]
        vm = self._pair(d_pair, (s2_pair[0] - hb, s2_pair[1]), s)[1]
        return ((up - um) / (2.0 * ha), (vp - vm) / (2.0 * hb))


def builtin_law(name, gain=1.0, sign_corrected=False):
    """Construct one of the built-in laws by name."""
    if name == "gradient_squared":
        return GradientSquaredLaw(gain)
    if name == "gradient_plain":
        return GradientPlainLaw(gain)
    if name == "eq1_plain":
        return Eq1PlainLaw(gain, sign_corrected=sign_corrected)
    raise UnknownLawError(
        f"unknown control law {name!r}; built-ins are {', '.join(BUILTIN_LAW_NAMES)}"
    )


@dataclass(frozen=True, eq=False)
class VectorFieldBundle:
    """A graph, a law, and target lengths, ready to evaluate the flow."""

    graph: FormationGraph
    law: ControlLaw
    lengths: TargetLengths

    def __post_init__(self):
        if len(self.lengths.d) != self.graph.m:
            raise ConfigurationError(
                f"{len(self.lengths.d)} target lengths for {self.graph.m} edges"
            )
        if self.law.convention != self.lengths.convention:
            raise ConfigurationError(
                f"law convention {self.law.convention!r} does not match "
                f"lengths convention {self.lengths.convention!r}"
            )

    def with_lengths(self, lengths: TargetLengths):
        return VectorFieldBundle(graph=self.graph, law=self.law, lengths=lengths)

    @cached_property
    def matrices(self):
        """The graph's :func:`~.graph.graph_matrices`, looked up once per bundle."""
        return graph_matrices(self.graph)

    def flow(self, xs):
        """Agent velocities on Python floats: a list of 2n floats in, 2n out.

        Gathers the flat edge vectors, weighs them with :func:`edge_weights`
        and adds each ``u_k z_k`` into its origin agent in edge order from
        0.0; at a formation's few agents NumPy would cost more in call
        overhead than in arithmetic. :func:`eval_F_x` is its array form and
        checks the size, which this leaves to its caller.
        """
        mats = self.matrices
        z = [xs[j] - xs[i] for i, j in mats["gather"]]
        u = edge_weights(self, z)
        xdot = [0.0] * len(xs)
        for i, k, j in mats["scatter"]:
            xdot[i] += u[k] * z[j]
        return xdot


def _edge_state(b, z):
    arr = np.asarray(z, dtype=float)
    flat = arr.ndim == 1
    zz = arr.reshape(b.graph.m, 2)
    return zz, flat


def edge_weights(b: VectorFieldBundle, z):
    """Per-edge feedback weights as a list, in one loop over the graph's agents.

    ``z`` is a list of floats holding the edge vectors stacked flat (2m),
    as :meth:`VectorFieldBundle.flow` gathers them. A lone edge gets
    ``law.weight``, a two-coleader pair ``law.pair_weights``.
    A coupled pair's inner product is numpy's dot, which may fuse the
    multiply-add and so differ from float arithmetic in the last bit; it
    is how coupled weights have always been computed. A separable law
    ignores the product, which is then summed in floats, at no numpy cost.
    """
    law = b.law
    d = b.lengths.d
    mats = b.matrices
    u = [0.0] * len(d)
    for k in mats["singles"]:
        zx, zy = z[2 * k], z[2 * k + 1]
        u[k] = law.weight(d[k], zx * zx + zy * zy)
    for i, j in mats["pairs"]:
        zix, ziy, zjx, zjy = z[2 * i], z[2 * i + 1], z[2 * j], z[2 * j + 1]
        if law.separable:
            s = zix * zjx + ziy * zjy
        else:
            s = float(np.dot((zix, ziy), (zjx, zjy)))
        u[i], u[j] = law.pair_weights(
            (d[i], d[j]), (zix * zix + ziy * ziy, zjx * zjx + zjy * zjy), s
        )
    return u


def eval_F_x(b: VectorFieldBundle, x):
    """Agent velocities: each agent moves along its outgoing edge vectors.

    Decentralization is structural here, an agent's velocity only reads
    the relative positions of the agents it observes. This is the array
    form of :meth:`VectorFieldBundle.flow`, with its bits: ``x`` may be
    flat (2n) or rows (n, 2), the result is an array of the same layout,
    and any other coordinate count is a :class:`DimensionError`.
    """
    arr = np.asarray(x, dtype=float)
    xs = arr.ravel().tolist()
    if len(xs) != 2 * b.graph.n:
        raise DimensionError(f"{len(xs)} coordinates for {b.graph.n} planar agents")
    out = np.array(b.flow(xs))
    return out if arr.ndim == 1 else out.reshape(b.graph.n, 2)


def weight_slopes(law: ControlLaw, d, s2):
    """``law.weight_dlen`` over matching sequences of floats, as a list.

    A zero-length edge gets slope zero. Callers multiply the slope by the
    edge vector's outer product or its squared length, a product whose
    limit on a vanishing edge is zero for both built-in laws;
    ``gradient_plain``'s slope divides by zero there.
    """
    return [0.0 if s == 0.0 else law.weight_dlen(dk, s) for dk, s in zip(d, s2)]


def jacobian_x(b: VectorFieldBundle, x):
    """Jacobian of :func:`eval_F_x` at any state, as a 2n-by-2n matrix.

    Edge ``k`` from ``o`` to ``t`` adds ``M_k = u_k I + 2 u'_k z_k z_k^T``
    at block ``(o, t)`` and ``-M_k`` at block ``(o, o)``, where ``u'`` is
    the weight's derivative in the squared length. The blocks are summed
    in one loop over the edge list on Python floats, like
    :func:`eval_F_x`. Unlike :func:`jacobian_z` this holds away from
    equilibria too. A law that couples a two-coleader pair has no such
    per-edge blocks, so non-separable laws fall back to central
    differences of the field.
    """
    arr = np.asarray(x, dtype=float).ravel()
    n2 = 2 * b.graph.n
    if arr.size != n2:
        raise DimensionError(f"{arr.size} coordinates for {b.graph.n} planar agents")
    if not b.law.separable:
        return fd_jacobian(lambda v: eval_F_x(b, v), arr)
    xs = arr.tolist()
    edges = b.graph.edges
    z = [(xs[2 * t] - xs[2 * o], xs[2 * t + 1] - xs[2 * o + 1]) for o, t in edges]
    s2 = [zx * zx + zy * zy for zx, zy in z]
    d = b.lengths.d
    slopes = weight_slopes(b.law, d, s2)
    jac = [[0.0] * n2 for _ in range(n2)]
    for k, (o, t) in enumerate(edges):
        zx, zy = z[k]
        u = b.law.weight(d[k], s2[k])
        w = 2.0 * slopes[k]
        rows = ((w * zx) * zx + u, (w * zx) * zy), ((w * zy) * zx, (w * zy) * zy + u)
        for row, (mx, my) in zip((jac[2 * o], jac[2 * o + 1]), rows):
            row[2 * t] += mx
            row[2 * t + 1] += my
            row[2 * o] -= mx
            row[2 * o + 1] -= my
    return np.array(jac)


def eval_F_z(b: VectorFieldBundle, z, check=True):
    """Edge-vector velocities via the edge adjacency coupling.

    The state must satisfy the graph's cycle constraints (edge vectors
    around each independent cycle sum to zero) to describe an actual
    framework; ``check=False`` skips that validation, which finite
    difference probes need because their perturbations leave the
    constraint surface.
    """
    zz, flat = _edge_state(b, z)
    mats = b.matrices
    if check and mats["cycles"].shape[1]:
        sums = mats["cycles"].T @ zz
        scale = max(1.0, float(np.max(np.abs(zz))))
        if np.max(np.abs(sums)) > _CYCLE_TOL * scale:
            raise InconsistentStateError(
                "edge-vector state violates the cycle constraints "
                f"(max violation {np.max(np.abs(sums)):.3e})"
            )
    u = np.array(edge_weights(b, zz.ravel().tolist()))
    zdot = mats["edge_adj"] @ (u[:, None] * zz)
    return zdot.ravel() if flat else zdot


def _require_design_point(b, zz, what):
    err = np.max(np.abs(length_errors(zz, b.lengths)))
    if err > _EQUILIBRIUM_ERROR_TOL:
        raise FormulaDomainError(
            f"{what} is only valid at design equilibria where every edge error "
            f"vanishes; max |e| = {err:.3e}"
        )


def zprime_vectors(b: VectorFieldBundle, z):
    """First-order response vectors: ``z'_i = 2 u_x z_i`` plus pair coupling.

    ``u_x`` is the weight's derivative in the squared edge length. For a
    coupled two-coleader pair the partner edge contributes through the
    cross derivative, which is zero for all built-in laws.
    """
    zz, _ = _edge_state(b, z)
    s2 = [zx * zx + zy * zy for zx, zy in zz.tolist()]
    d = b.lengths.d
    zp = np.array([2.0 * b.law.weight_dlen(dk, s) for dk, s in zip(d, s2)])[:, None] * zz
    if not b.law.separable:
        for i, j in b.matrices["pairs"]:
            s = float(zz[i] @ zz[j])
            cij, cji = b.law.pair_cross((d[i], d[j]), (s2[i], s2[j]), s)
            zp[i] = zp[i] + 2.0 * cij * zz[j]
            zp[j] = zp[j] + 2.0 * cji * zz[i]
    return zp


def zdprime_vectors(b: VectorFieldBundle, z):
    """Target-sensitivity vectors: ``z''_i = (du_i/dd_i) z_i``.

    These are the columns of the derivative of the flow in the stored
    squared targets, up to the edge adjacency factor.
    """
    zz, _ = _edge_state(b, z)
    s2 = [zx * zx + zy * zy for zx, zy in zz.tolist()]
    c = [b.law.weight_dtarget(dk, s) for dk, s in zip(b.lengths.d, s2)]
    return np.array(c)[:, None] * zz


def jacobian_z(b: VectorFieldBundle, z):
    """Closed-form edge-coordinate Jacobian at a design equilibrium.

    Away from design equilibria the derivation's dropped terms (the
    weight itself and its inner-product derivative) do not vanish, so the
    product is refused there rather than silently returned.
    """
    zz, _ = _edge_state(b, z)
    _require_design_point(b, zz, "the analytic Jacobian in z")
    mats = b.matrices
    dz = edge_block_rows(zz)
    dzp = edge_block_rows(zprime_vectors(b, zz))
    return mats["edge_adj2"] @ dzp.T @ dz


def jacobian_d(b: VectorFieldBundle, z):
    """Closed-form derivative in the stored squared targets, at a design point."""
    zz, _ = _edge_state(b, z)
    _require_design_point(b, zz, "the analytic Jacobian in d")
    mats = b.matrices
    dzpp = edge_block_rows(zdprime_vectors(b, zz))
    return mats["edge_adj2"] @ dzpp.T


def reduced_J(b: VectorFieldBundle, z):
    """The m-by-m reduced Jacobian ``D(z) A_e D(z')^T``.

    Its entry ``(i, j)`` is ``A_e[i, j] * (z_i . z'_j)``. At design
    equilibria its spectrum is exactly the nonzero part of the full
    edge-coordinate Jacobian's spectrum, which collapses the stability
    question to an m-dimensional computation.
    """
    zz, _ = _edge_state(b, z)
    mats = b.matrices
    zp = zprime_vectors(b, zz)
    return (zz @ zp.T) * mats["edge_adj"]


def verify_compatibility(law: ControlLaw, d_samples, s_samples=(0.0, 1.0, -2.5)):
    """Check the defining property of admissible laws on sample targets.

    The weight must vanish exactly at zero edge error, and a coupled pair
    must vanish at zero errors for every value of the inner product.
    Returns the largest violation found.
    """
    worst = 0.0
    for d in d_samples:
        d = float(d)
        worst = max(worst, abs(law.weight(d, d)))
        for d2 in d_samples:
            for s in s_samples:
                ua, ub = law.pair_weights((d, float(d2)), (d, float(d2)), float(s))
                worst = max(worst, abs(ua), abs(ub))
    return worst
