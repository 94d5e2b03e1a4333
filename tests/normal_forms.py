"""Reference constructions the tests compare the package against.

A scalar census with the planar census's taxonomy and verdicts, the
transcritical normal form ``xdot = x (mu - x)`` with its closed-form
equilibria and bifurcation diagram, the two-cycles realizer on NumPy
arrays, the gauge spectrum of one framework at a time, and a record or
spectrum from an equilibrium batch of one. Nothing in the package calls
them; they are test fixtures built from the package's public pieces.
"""

import math

import numpy as np

from formation_forge.bifurcation import BranchPoint
from formation_forge.equilibria import (
    CensusReport,
    EquilibriumBatch,
    EquilibriumRecord,
    gauge_slice_basis,
)
from formation_forge.errors import (
    ConfigurationError,
    ConvergenceError,
    InfeasibleLengthsError,
)
from formation_forge.graph import FormationGraph, two_cycles
from formation_forge.numkernel import (
    Spectrum,
    eigenvalues,
    fd_jacobian,
    newton_root,
    squared_lengths,
)
from formation_forge.rigidity import Framework, TargetLengths, edge_vectors

SCALAR_SEEDS = 41


def scalar_census(f, design_values, fprime=None):
    """Census of a one-dimensional flow ``xdot = f(x)``.

    The taxonomy and verdicts match the planar census: ``design_values``
    play the role of the target configurations, every other root is
    ancillary, and the almost-sure-stability verdict asks whether every
    stable root is a design one. Newton runs from ``SCALAR_SEEDS`` evenly
    spaced seeds on 2.5 times the largest design value (at least 1) either
    side of zero. The records carry no framework.
    """
    design = [float(v) for v in design_values]
    scale = max([1.0] + [abs(v) for v in design])

    def f_vec(v):
        return [f(v[0])]

    roots = []
    for x0 in np.linspace(-2.5 * scale, 2.5 * scale, SCALAR_SEEDS):
        try:
            root = float(newton_root(f_vec, [x0], max_iter=60, tol=1e-12, jac=None).x[0])
        except ConvergenceError:
            continue
        if any(abs(root - r) <= 1e-8 * max(1.0, abs(r)) for r in roots):
            continue
        roots.append(root)
    records = []
    for root in sorted(roots):
        slope = float(fprime(root) if fprime is not None else fd_jacobian(f_vec, [root])[0, 0])
        hyperbolic = abs(slope) > 1e-9
        is_design = any(abs(root - v) <= 1e-8 * max(1.0, abs(v)) for v in design)
        records.append(
            EquilibriumRecord(
                framework=None,
                kind="design" if is_design else "ancillary_other",
                spectrum_gauge=Spectrum.from_values([slope]),
                index=(1 if slope > 0 else -1) if hyperbolic else None,
                stable=slope < 0,
                residual=abs(float(f(root))),
            )
        )
    return CensusReport(records=tuple(records))


def logistic_family(x, mu):
    """The transcritical normal form ``xdot = x (mu - x)``."""
    x = np.asarray(x, dtype=float)
    return x * (mu - x)


def logistic_equilibria(mu):
    """Equilibria of the normal form with stability labels, as a dict.

    At mu = 0 the two equilibria coalesce into a single degenerate one.
    """
    mu = float(mu)
    out = {0.0: mu < 0.0}
    if mu != 0.0:
        out[mu] = mu > 0.0
    return out


def logistic_reference(mu_range, samples):
    """Bifurcation diagram rows for the normal form, as branch points.

    The zero branch sits at x = 0 with eigenvalue mu; the carrying branch
    sits at x = mu with eigenvalue -mu. Feeding these rows to
    ``transcritical_detect`` exercises the detector on the textbook
    exchange the formation sweep is compared against. The rows carry no
    framework and no targets.
    """
    rows = []
    for branch in ("zero", "carrying"):
        for mu in np.linspace(-float(mu_range), float(mu_range), int(samples)):
            lr = float(mu) if branch == "zero" else -float(mu)
            rows.append(
                BranchPoint(
                    mu=float(mu), branch=branch, framework=None, lengths=None,
                    leading_real=lr, stable=lr < 0.0,
                )
            )
    return rows


def array_circle_intersection_height(center_dist, r_near, r_far, edge_names):
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
    beta_sq = r_near**2 - alpha**2
    if beta_sq < -1e-12 * max(1.0, r_near**2):
        raise InfeasibleLengthsError(
            f"edges {e1}, {e2}, {e3} violate the triangle inequality: "
            f"circles of radii {r_near:.6g} and {r_far:.6g} with centers "
            f"{center_dist:.6g} apart do not intersect"
        )
    if beta_sq < 0.0:
        return math.copysign(r_near, alpha), 0.0
    return alpha, math.sqrt(beta_sq)


def array_realize_two_cycles(graph: FormationGraph, lengths: TargetLengths):
    """All planar realizations of two-cycles target lengths, in canonical gauge.

    The oracle of :func:`~formation_forge.rigidity.realize_two_cycles`: the
    same construction on NumPy arrays and NumPy scalars.

    The gauge pins ``x1`` at the origin and the first edge along the
    positive x axis. Generic lengths give four frameworks (two mirror
    pairs); tangency of either circle pair collapses coincident solutions,
    so fewer may be returned. Infeasible lengths raise, naming the violated
    triangle. Each framework is verified to meet its squared-length targets
    to 1e-12 relative to the largest (at least 1); a triangle flat within
    rounding whose apex misses that bound is infeasible too, and named.
    """
    if graph != two_cycles():
        raise ConfigurationError("realization is implemented for the two-cycles graph")
    d = np.array(lengths.d)
    if d.size != 5:
        raise ConfigurationError(f"two-cycles needs 5 target lengths, got {d.size}")
    r = np.sqrt(d)
    x1 = np.zeros(2)
    x2 = np.array([r[0], 0.0])
    alpha3, beta3 = array_circle_intersection_height(r[0], r[2], r[1], (1, 2, 3))
    frameworks = []
    for s3 in (1.0, -1.0):
        x3 = np.array([alpha3, s3 * beta3])
        u_hat = x3 / r[2]
        u_perp = np.array([-u_hat[1], u_hat[0]])
        alpha4, beta4 = array_circle_intersection_height(r[2], r[4], r[3], (3, 4, 5))
        for s4 in (1.0, -1.0):
            x4 = alpha4 * u_hat + s4 * beta4 * u_perp
            # + 0.0 turns a -0.0 into 0.0, as canonical_gauge would
            fw = Framework(graph=graph, x=np.vstack([x1, x2, x3, x4]) + 0.0)
            if not any(np.max(np.abs(fw.x - other.x)) <= 1e-12 for other in frameworks):
                frameworks.append(fw)
    tol = 1e-12 * max(1.0, float(np.max(d)))
    for fw in frameworks:
        misses = np.abs(squared_lengths(edge_vectors(fw)) - d)
        if float(np.max(misses)) > tol:
            k = int(np.argmax(misses > tol))  # the first edge that misses
            raise InfeasibleLengthsError(
                f"edges {'1, 2, 3' if k < 3 else '3, 4, 5'} are too near flat to realize: "
                f"edge {k + 1} misses its squared target by {misses[k]:.3e}, above {tol:.3e}"
            )
    return frameworks



def gauge_spectrum_oracle(b, f):
    """The gauge-fixed spectrum of equilibrium ``f`` of bundle ``b``, one framework alone.

    ``eigenvalues(basis.T @ fd_jacobian(b.flow, x) @ basis)``: the scalar
    flow differenced column by column, as the package took every spectrum
    before it batched them. The residual is not checked.
    """
    basis = gauge_slice_basis(f.x)
    return eigenvalues(basis.T @ fd_jacobian(b.flow, f.x.ravel()) @ basis)


def one_record(b, f):
    """The record of equilibrium ``f`` of bundle ``b``: an :class:`EquilibriumBatch` of one."""
    batch = EquilibriumBatch()
    batch.add(b, f)
    return batch.records()[0]


def one_spectrum(b, f):
    """The gauge spectrum of equilibrium ``f`` of ``b``: an :class:`EquilibriumBatch` of one."""
    batch = EquilibriumBatch()
    batch.add(b, f)
    return batch.spectra()[0]
