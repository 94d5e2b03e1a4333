"""One-dimensional reference flows the tests compare the package against.

A scalar census with the planar census's taxonomy and verdicts, and the
transcritical normal form ``xdot = x (mu - x)`` with its closed-form
equilibria and bifurcation diagram. Nothing in the package calls them;
they are test fixtures built from the package's public pieces.
"""

import numpy as np

from formation_forge.bifurcation import DEFAULT_SWEEP_HALF_WIDTH, BranchPoint
from formation_forge.equilibria import CensusReport, EquilibriumRecord
from formation_forge.errors import ConvergenceError
from formation_forge.numkernel import Spectrum, fd_jacobian, newton_root

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
            root = float(newton_root(f_vec, [x0], max_iter=60, tol=1e-12).x[0])
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


def logistic_reference(mu_range=DEFAULT_SWEEP_HALF_WIDTH, samples=21):
    """Bifurcation diagram rows for the normal form, as branch points.

    The zero branch sits at x = 0 with eigenvalue mu; the carrying branch
    sits at x = mu with eigenvalue -mu. Feeding these rows to
    ``transcritical_detect`` exercises the detector on the textbook
    exchange the formation sweep is compared against. The rows carry no
    framework.
    """
    rows = []
    for branch in ("zero", "carrying"):
        for mu in np.linspace(-float(mu_range), float(mu_range), int(samples)):
            lr = float(mu) if branch == "zero" else -float(mu)
            rows.append(
                BranchPoint(
                    mu=float(mu), branch=branch, framework=None,
                    leading_real=lr, stable=lr < 0.0,
                )
            )
    return rows
