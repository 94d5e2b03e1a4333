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
from .numkernel import fd_jacobian, fd_second_directional, kron_I2, squared_lengths
from .rigidity import TargetLengths, edge_block_rows, length_errors, within_design_tol

# Cycle sums an edge state may keep, per unit of its largest coordinate (at least 1):
# a framework's sum to rounding, and an edge-coordinate integration drifts 1e-8 in 5 s.
_CYCLE_TOL = 1e-6


class ControlLaw:
    """Scalar edge feedback ``u(d; length)`` with derivative hooks.

    Every hook reads one edge: the stored squared target ``d`` and the
    squared current length ``s2`` come in as floats and a float goes out.
    Working in squared quantities keeps the chain rule through
    ``s2 = z.z`` uniform across conventions. Compatibility requires the
    weight to vanish exactly when the edge error does. A derivative hook
    that a subclass leaves unwritten takes central differences of ``weight``
    (:func:`~.numkernel.fd_jacobian`, :func:`~.numkernel.fd_second_directional`).

    A two-coleader agent is the one place where a law may couple two edges:
    a law that replaces ``pair_weights``, which also reads the inner product
    of the pair's edge vectors, is coupled. Every other law is separable
    (each weight reads its own edge, and the analytic Jacobians are exact);
    ``separable`` is derived from that and cannot be set, nor defined by a
    subclass. A coupled law has no per-edge slope: the Jacobians difference
    the field instead, and the response vectors refuse it.

    ``weight`` and ``weight_dlen`` may carry their value as a source
    expression, their ``source`` attribute, over ``d``, ``s2``, ``sqrt``
    (``math.sqrt``) and the law constant ``c = sign * gain``, with the hook's
    bits; the graph kernel writes it inline at every edge. A hook without one,
    such as :class:`CustomLaw`'s ``weight`` or a subclass's replacement of an
    inherited hook, is called there instead, as ``pair_weights`` always is.
    """

    name = "abstract"
    convention = "squared"
    sign = 1.0

    def __init_subclass__(cls):
        super().__init_subclass__()
        if "separable" in vars(cls):
            raise ConfigurationError(
                f"{cls.__name__} defines separable; it is derived from pair_weights"
            )

    def __init__(self, gain=1.0):
        if not (math.isfinite(gain) and gain > 0):
            raise ConfigurationError(f"law gain must be finite and positive, got {gain!r}")
        self.gain = float(gain)
        self.c = self.sign * self.gain

    def weight(self, d, s2):
        raise NotImplementedError

    def weight_dlen(self, d, s2):
        """Derivative of the weight in the squared current length."""
        return float(fd_jacobian(lambda v: [self.weight(d, v[0])], [s2])[0, 0])

    def weight_dtarget(self, d, s2):
        """Derivative of the weight in the stored squared target."""
        return float(fd_jacobian(lambda v: [self.weight(v[0], s2)], [d])[0, 0])

    def weight_dlen2(self, d, s2):
        """Second derivative of the weight in the squared current length."""
        return float(fd_second_directional(lambda v: [self.weight(d, v[0])], [s2], [1.0])[0])

    @property
    def separable(self):
        return getattr(self.pair_weights, "__func__", None) is ControlLaw.pair_weights

    def pair_weights(self, d_pair, s2_pair, s):
        return self.weight(d_pair[0], s2_pair[0]), self.weight(d_pair[1], s2_pair[1])

    def __repr__(self):
        return f"{type(self).__name__}(gain={self.gain})"


def _law_hooks(*sources):
    """The four hooks compiled from their expressions, each carrying its own as ``source``."""
    hooks = ("weight", "weight_dlen", "weight_dtarget", "weight_dlen2")
    namespace = {"sqrt": math.sqrt}
    for hook, source in zip(hooks, sources):
        code = f"def {hook}(self, d, s2):\n    c = self.c\n    return {source}\n"
        exec(compile(code, "<law hooks>", "exec"), namespace)
        namespace[hook].source = source
    return [namespace[hook] for hook in hooks]


class GradientSquaredLaw(ControlLaw):
    """Weight equal to the squared-length error: ``u = gain * (|z|^2 - d)``."""

    name = "gradient_squared"
    convention = "squared"
    weight, weight_dlen, weight_dtarget, weight_dlen2 = _law_hooks("c * (s2 - d)", "c", "-c", "0.0")


class GradientPlainLaw(ControlLaw):
    """Weight equal to the plain-length error: ``u = gain * (|z| - sqrt(d))``.

    The square roots are ``math.sqrt``, which is correctly rounded;
    ``s2 ** 0.5`` is not, and would move the last bit of some weights.
    """

    name = "gradient_plain"
    convention = "plain"
    weight, weight_dlen, weight_dtarget, weight_dlen2 = _law_hooks(
        "c * (sqrt(s2) - sqrt(d))",
        "c / (2.0 * sqrt(s2))",
        "-c / (2.0 * sqrt(d))",
        "-c / (4.0 * s2 * sqrt(s2))",
    )


class Eq1PlainLaw(GradientPlainLaw):
    """Literal transcription of the plain-error law with its printed sign.

    As printed the coefficient pushes agents away from their targets, so
    every design equilibrium repels: the weight is exactly the negative of
    :class:`GradientPlainLaw`'s. The sign-corrected form is that law, so
    only the published form is kept here, reproducible exactly as stated.
    """

    name = "eq1_plain"
    sign = -1.0


class CustomLaw(ControlLaw):
    """User-supplied weight function with finite-difference derivatives.

    ``func(d, s2)`` must return the scalar weight, any gain included: no
    hook reads ``gain``. The derivative hooks are :class:`ControlLaw`'s
    central differences of ``weight``, accurate enough for the quantities
    the tests need. A ``pair_func(d_pair, s2_pair, s)`` replaces
    ``pair_weights``, so the law is coupled. Its edge errors are in
    :class:`ControlLaw`'s squared convention.
    """

    def __init__(self, func, name="custom", pair_func=None):
        super().__init__()
        self.name = name
        self._func = func
        if pair_func is not None:
            self.pair_weights = lambda *args: tuple(float(u) for u in pair_func(*args))

    def weight(self, d, s2):
        return float(self._func(d, s2))


_BUILTIN_LAWS = (GradientSquaredLaw, GradientPlainLaw, Eq1PlainLaw)
BUILTIN_LAW_NAMES = tuple(law.name for law in _BUILTIN_LAWS)


def builtin_law(name, gain=1.0):
    """Construct one of the built-in laws by name."""
    for law in _BUILTIN_LAWS:
        if law.name == name:
            return law(gain)
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

    def with_lengths(self, lengths: TargetLengths):
        return VectorFieldBundle(graph=self.graph, law=self.law, lengths=lengths)

    def random_start(self, rng):
        """(n, 2) positions drawn uniformly on a square of half-side twice the longest target."""
        span = 2.0 * math.sqrt(max(self.lengths.d))
        return rng.uniform(-span, span, (self.graph.n, 2))

    @cached_property
    def matrices(self):
        """The graph's :func:`~.graph.graph_matrices`, looked up once per bundle."""
        return graph_matrices(self.graph)

    def _bind(self, sqrt, d):
        """The graph's kernel for the law's expressions and ``sqrt``, bound to the law and ``d``."""
        law = self.law
        sources = (getattr(law.weight, "source", "weight(d, s2)"),
                   getattr(law.weight_dlen, "source", "weight_dlen(d, s2)"))
        bind = self.matrices["kernel"](*sources, sqrt)
        pair_weights = None if law.separable else law.pair_weights
        return bind(law.weight, pair_weights, law.weight_dlen, law.c, d)

    @cached_property
    def _kernel(self):
        """The graph's float kernel for the law's expressions, bound to law and targets."""
        return self._bind(math.sqrt, self.lengths.d)

    def array_flow(self, d):
        """The flow on NumPy arrays, one entry per state, or None where the law cannot take them.

        ``flow(xs)`` maps a list of 2n coordinate arrays to 2n arrays, and
        ``d`` holds the squared targets, one array (or float) per edge, so
        each state may carry targets of its own. It is the graph's kernel
        compiled, on the first call, with ``np.sqrt`` for ``sqrt`` and
        bound to the law, so each state's row has the bits of
        :attr:`flow` at that state and its targets; an agent that observes
        nobody gets the scalar 0.0. Only a separable law whose weight is an
        expression has such a kernel: a law whose weight is a call, such
        as :class:`CustomLaw`'s, and a coupled law get None. Where the
        float kernel overflows silently, NumPy warns, so a caller that wants
        the float semantics runs it under ``np.errstate``.
        """
        if not (self.law.separable and hasattr(self.law.weight, "source")):
            return None
        return self._bind(np.sqrt, d)["flow"]

    @cached_property
    def flow(self):
        """Agent velocities on Python floats: ``flow(xs)`` maps a list of 2n floats to 2n.

        This is the graph's compiled ``flow`` bound to the law and targets,
        one straight-line function from :func:`~.graph.graph_matrices` that
        gathers the flat edge vectors, weighs them as :func:`edge_weights`
        does, with a built-in law's weight expression written inline and no
        ``weight`` call, and adds each ``u_k z_k`` into its origin agent in
        edge order from 0.0; at a formation's few agents NumPy would cost
        more in call overhead than in arithmetic. :func:`eval_F_x` is its
        array form and checks the size, which this leaves to its caller.
        """
        return self._kernel["flow"]


def _edge_state(b, z):
    zz = np.asarray(z, dtype=float)
    if zz.size != 2 * b.graph.m:
        raise DimensionError(f"{zz.size} coordinates for {b.graph.m} planar edge vectors")
    return zz.reshape(b.graph.m, 2)


def edge_weights(b: VectorFieldBundle, z):
    """Per-edge feedback weights as a list, written out edge by edge.

    ``z`` is a list of floats holding the edge vectors stacked flat (2m),
    as the graph's compiled ``gather`` writes them. The bundle's compiled
    ``weights`` evaluates the law's weight expression inline at each edge,
    or makes one ``law.weight`` call per edge for a law without one (see
    :class:`ControlLaw`). A coupled law's lone edges get the weight too,
    and each two-coleader pair one ``law.pair_weights`` call with its inner
    product summed in floats, ``zix*zjx + ziy*zjy``.
    :attr:`VectorFieldBundle.flow` runs the same weight lines inline,
    without calling this.
    """
    return b._kernel["weights"](z)


def eval_F_x(b: VectorFieldBundle, x):
    """Agent velocities: each agent moves along its outgoing edge vectors.

    Decentralization is structural here, an agent's velocity only reads
    the relative positions of the agents it observes. This is the array
    form of :attr:`VectorFieldBundle.flow`, with its bits: ``x`` may be
    flat (2n) or rows (n, 2), the result is an array of the same layout,
    and any other coordinate count is a :class:`DimensionError`. It
    composes the bundle's compiled ``gather``, :func:`edge_weights` and
    the compiled ``scatter`` explicitly rather than calling the bound
    ``flow``, so that the weights stay a call of their own, one
    ``edge_weights`` per field evaluation, that a profiler can time.
    """
    arr = np.asarray(x, dtype=float)
    xs = arr.ravel().tolist()
    if len(xs) != 2 * b.graph.n:
        raise DimensionError(f"{len(xs)} coordinates for {b.graph.n} planar agents")
    kernel = b._kernel
    z = kernel["gather"](xs)
    out = np.array(kernel["scatter"](edge_weights(b, z), z))
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
    the weight's derivative in the squared length (zero on a zero-length
    edge, as :func:`weight_slopes` gives it). The bundle's compiled
    ``jacobian`` writes every entry out, summed in edge order from 0.0 on
    Python floats like :attr:`VectorFieldBundle.flow`. A list is taken as
    the flat list of floats that Newton iterates on; any other ``x`` is
    flattened through NumPy. Unlike :func:`jacobian_z` this holds away from
    equilibria too. A coupled law, one that replaces ``pair_weights``, has
    no such per-edge blocks, so it gets :func:`~.numkernel.fd_jacobian` of
    the flow instead.
    """
    xs = x if type(x) is list else np.asarray(x, dtype=float).ravel().tolist()
    n2 = 2 * b.graph.n
    if len(xs) != n2:
        raise DimensionError(f"{len(xs)} coordinates for {b.graph.n} planar agents")
    jacobian = b._kernel["jacobian"]
    if jacobian is None:  # a coupled law
        return fd_jacobian(b.flow, xs)
    return np.fromiter(jacobian(xs), float, n2 * n2).reshape(n2, n2)


def eval_F_z(b: VectorFieldBundle, z, check=True):
    """Edge-vector velocities via the edge adjacency coupling.

    The state must satisfy the graph's cycle constraints (edge vectors
    around each independent cycle sum to zero) to describe an actual
    framework; ``check=False`` skips that validation, which finite
    difference probes need because their perturbations leave the
    constraint surface.
    """
    zz = _edge_state(b, z)
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
    return zdot.ravel() if np.ndim(z) == 1 else zdot


def _require_design_point(b, zz, what):
    errs = length_errors(zz, b.lengths.d, b.law.convention)
    if not within_design_tol(errs):
        raise FormulaDomainError(
            f"{what} is only valid at design equilibria where every edge error "
            f"vanishes; max |e| = {np.max(np.abs(errs)):.3e}"
        )


def _response_vectors(b, z, what, coefficients):
    """Each ``z_i`` times entry i of ``coefficients(d, s2)``; a coupled law is refused."""
    if not b.law.separable:
        raise FormulaDomainError(f"{what} needs a separable law, not the coupled {b.law.name!r}")
    zz = _edge_state(b, z)
    return np.array(coefficients(b.lengths.d, squared_lengths(zz).tolist()))[:, None] * zz


def zprime_vectors(b: VectorFieldBundle, z):
    """First-order response vectors: ``z'_i = 2 u_x z_i``.

    ``u_x`` is the weight's derivative in the squared edge length, zero on
    a zero-length edge as :func:`weight_slopes` gives it. A coupled law is
    refused with a :class:`FormulaDomainError`: its pair's cross slopes
    belong in the off-diagonal block of the Jacobian, which no per-edge
    vector can carry.
    """
    return _response_vectors(
        b, z, "zprime_vectors", lambda d, s2: [2.0 * u for u in weight_slopes(b.law, d, s2)]
    )


def zdprime_vectors(b: VectorFieldBundle, z):
    """Target-sensitivity vectors: ``z''_i = (du_i/dd_i) z_i``.

    These are the columns of the derivative of the flow in the stored
    squared targets, up to the edge adjacency factor. A coupled law, whose
    pair weight may read its partner's target, is refused with a
    :class:`FormulaDomainError`.
    """
    return _response_vectors(
        b, z, "zdprime_vectors", lambda d, s2: list(map(b.law.weight_dtarget, d, s2))
    )


def jacobian_z(b: VectorFieldBundle, z):
    """Edge-coordinate Jacobian at a design equilibrium, in closed form.

    Away from design equilibria the derivation's dropped terms (the
    weight itself and its inner-product derivative) do not vanish, so the
    product is refused there rather than silently returned. A coupled law
    has no per-edge response vectors, so it gets
    :func:`~.numkernel.fd_jacobian` of :func:`eval_F_z` (unchecked) in the
    edge vectors instead, at design equilibria only too.
    """
    zz = _edge_state(b, z)
    _require_design_point(b, zz, "the analytic Jacobian in z")
    if not b.law.separable:
        return fd_jacobian(lambda v: eval_F_z(b, v, check=False), zz.ravel())
    dz = edge_block_rows(zz)
    dzp = edge_block_rows(zprime_vectors(b, zz))
    return kron_I2(b.matrices["edge_adj"]) @ dzp.T @ dz


def jacobian_d(b: VectorFieldBundle, z):
    """Derivative in the stored squared targets at a design point, in closed form.

    A coupled law gets :func:`~.numkernel.fd_jacobian` of :func:`eval_F_z`
    in the targets instead, whose :class:`~.rigidity.TargetLengths` refuses
    a stored target within one ``fd_jacobian`` step of zero.
    """
    zz = _edge_state(b, z)
    _require_design_point(b, zz, "the analytic Jacobian in d")
    if not b.law.separable:
        flat = zz.ravel()
        return fd_jacobian(
            lambda dv: eval_F_z(b.with_lengths(TargetLengths(dv)), flat, check=False),
            b.lengths.d,
        )
    dzpp = edge_block_rows(zdprime_vectors(b, zz))
    return kron_I2(b.matrices["edge_adj"]) @ dzpp.T


def reduced_J(b: VectorFieldBundle, z):
    """The m-by-m reduced Jacobian ``D(z) A_e D(z')^T``.

    Its entry ``(i, j)`` is ``A_e[i, j] * (z_i . z'_j)``. At design
    equilibria its spectrum is exactly the nonzero part of the full
    edge-coordinate Jacobian's spectrum, which collapses the stability
    question to an m-dimensional computation. It is built from
    :func:`zprime_vectors`, so a coupled law is refused with a
    :class:`FormulaDomainError`; its :func:`jacobian_z` holds the spectrum.
    """
    zz = _edge_state(b, z)
    return (zz @ zprime_vectors(b, zz).T) * b.matrices["edge_adj"]


def verify_compatibility(law: ControlLaw, d_samples):
    """Check the defining property of admissible laws on sample targets.

    The weight must vanish exactly at zero edge error, and a coupled pair
    must vanish at zero errors for every value of the inner product
    (sampled at 0, 1 and -2.5). Returns the largest violation found.
    """
    worst = 0.0
    for d in d_samples:
        d = float(d)
        worst = max(worst, abs(law.weight(d, d)))
        for d2 in d_samples:
            for s in (0.0, 1.0, -2.5):
                ua, ub = law.pair_weights((d, float(d2)), (d, float(d2)), float(s))
                worst = max(worst, abs(ua), abs(ub))
    return worst
