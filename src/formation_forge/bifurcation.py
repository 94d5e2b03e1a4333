"""Transcritical bifurcation analysis along one target-length parameter.

Perturbing the third stored squared target by mu moves the design
equilibria and the aligned ancillary equilibria along two branches that
meet at a singular target vector. This module sweeps the branches,
detects the exchange of stability between them, and runs the Sotomayor
nondegeneracy test that certifies the crossing is a genuine
transcritical bifurcation and not something more degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import VectorFieldBundle, eval_F_x, eval_F_z
from .equilibria import (
    RESIDUAL_TOL,
    TOL_ZERO,
    aligned_parameters,
    aligned_root_near,
    canonical_gauge,
    gauge_fixed_spectrum,
    solve_ancillary_aligned,
)
from .errors import ConfigurationError, FormulaDomainError, InfeasibleLengthsError
from .graph import two_cycles
from .numkernel import Spectrum, eigenvalues, fd_jacobian, fd_second_directional
from .rigidity import Framework, edge_vectors, realize_two_cycles, singular_witnesses

DEFAULT_SWEEP_HALF_WIDTH = 0.2

# The settings of every Sotomayor test; only its nondegeneracy bound is an option.
SOTOMAYOR_TOL_EQ = 1e-9  # largest family residual accepted as an equilibrium
SOTOMAYOR_STATE_STEP = 1e-4  # central-difference step in the state
SOTOMAYOR_PARAM_STEP = 1e-7  # central-difference step in the parameter


@dataclass(frozen=True, eq=False)
class SotomayorReport:
    """Outcome of the three transcritical nondegeneracy conditions.

    ``t_mu`` must vanish (the parameter does not unfold the equilibrium),
    while ``t_quad`` and ``t_mixed`` must not. ``degenerate`` flags a zero
    eigenvalue of multiplicity two or more, where the scalar test does
    not apply and the verdict is false by construction.
    """

    zero_eig_unique: bool
    others_negative: bool
    w: np.ndarray
    v: np.ndarray
    t_mu: float
    t_quad: float
    t_mixed: float
    verdict: bool
    degenerate: bool
    slice_spectrum: Spectrum
    fmu_norm: float
    tolerances: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One sweep sample: a branch equilibrium and its leading eigenvalue."""

    mu: float
    branch: str
    framework: Framework | None
    leading_real: float
    stable: bool


@dataclass(frozen=True, eq=False)
class TranscriticalReport:
    """A sweep's verdict; the fields a verdict does not reach stay empty."""

    detected: bool = False
    indeterminate: bool = False
    reason: str | None = None
    crossings: dict = field(default_factory=dict)
    orientation: str | None = None
    grid_step: float | None = None


def _normalize_sign(vec):
    idx = int(np.argmax(np.abs(vec)))
    return -vec if vec[idx] < 0 else vec


def sotomayor_check(family, x0, mu0, tol_nondegen=1e-3):
    """Evaluate the transcritical conditions for ``xdot = family(x, mu)``.

    The family must already be free of structural kernel directions
    (for formation flows, use the gauge-reduced family from
    :func:`formation_family`), so a unique zero eigenvalue is meaningful.
    All derivatives are central finite differences;
    ``SOTOMAYOR_STATE_STEP`` steps the state, ``SOTOMAYOR_PARAM_STEP`` the
    parameter.

    The verdict is true exactly when the zero eigenvalue is unique, the
    remaining eigenvalues have negative real part, ``|t_mu|`` is below
    ``TOL_ZERO`` times the parameter-derivative norm, and both ``t_quad``
    and ``t_mixed`` clear ``tol_nondegen``.
    """
    tol_eq, tol_zero = SOTOMAYOR_TOL_EQ, TOL_ZERO
    h, k = SOTOMAYOR_STATE_STEP, SOTOMAYOR_PARAM_STEP
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    mu0 = float(mu0)

    def f(x, mu):
        return np.atleast_1d(np.asarray(family(x, mu), dtype=float))

    f0 = f(x0, mu0)
    residual = float(np.max(np.abs(f0)))
    if residual > tol_eq:
        raise FormulaDomainError(
            f"sotomayor analysis requires an equilibrium of the family; "
            f"residual {residual:.3e} exceeds {tol_eq:g}"
        )

    jac = fd_jacobian(lambda x: f(x, mu0), x0)
    spec = eigenvalues(jac)
    radius = max(spec.spectral_radius, 0.0)
    zero_scale = tol_zero * max(1.0, radius)
    n_zero = sum(1 for lam in spec.values if abs(lam) <= zero_scale)
    zero_eig_unique = n_zero == 1
    degenerate = n_zero >= 2
    others_negative = all(
        lam.real < -zero_scale for lam in spec.values if abs(lam) > zero_scale
    )

    u_svd, _, vt_svd = np.linalg.svd(jac)
    v = _normalize_sign(vt_svd[-1].copy())
    w = _normalize_sign(u_svd[:, -1].copy())

    fmu = (f(x0, mu0 + k) - f(x0, mu0 - k)) / (2.0 * k)
    fmu_norm = float(np.linalg.norm(fmu))
    t_mu = float(w @ fmu)

    t_quad = float(w @ fd_second_directional(lambda x: f(x, mu0), x0, v, h))
    hs = h * max(1.0, float(np.max(np.abs(x0))))

    def dir_deriv(mu):
        return (f(x0 + hs * v, mu) - f(x0 - hs * v, mu)) / (2.0 * hs)

    t_mixed = float(w @ ((dir_deriv(mu0 + k) - dir_deriv(mu0 - k)) / (2.0 * k)))

    verdict = bool(
        zero_eig_unique
        and others_negative
        and not degenerate
        and abs(t_mu) <= tol_zero * fmu_norm
        and abs(t_quad) >= tol_nondegen
        and abs(t_mixed) >= tol_nondegen
    )
    return SotomayorReport(
        zero_eig_unique=zero_eig_unique,
        others_negative=others_negative,
        w=w,
        v=v,
        t_mu=t_mu,
        t_quad=t_quad,
        t_mixed=t_mixed,
        verdict=verdict,
        degenerate=degenerate,
        slice_spectrum=spec,
        fmu_norm=fmu_norm,
        tolerances={
            "tol_eq": tol_eq,
            "tol_zero": tol_zero,
            "tol_nondegen": tol_nondegen,
            "h": h,
            "k": k,
        },
    )


def gauge_slice_z_basis(b: VectorFieldBundle, witness: Framework):
    """Orthonormal slice basis in edge coordinates at a framework.

    The slice is orthogonal to the graph's cycle constraints (so sliced
    states stay realizable as frameworks) and to the rotation direction
    (so the structural zero eigenvalue from rotational symmetry drops
    out). Translations do not act on edge vectors, so nothing else needs
    removing.
    """
    z0 = edge_vectors(witness)
    cycles = b.matrices["cycles"]
    rows = [np.kron(cycles.T, np.eye(2))] if cycles.shape[1] else []
    rotation = np.column_stack([-z0[:, 1], z0[:, 0]]).ravel()
    rows.append(rotation[None, :])
    constraints = np.vstack(rows)
    _, s, vt = np.linalg.svd(constraints)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return vt[rank:].T


def formation_family(b: VectorFieldBundle, witness: Framework, mu_edge=2):
    """The gauge-reduced one-parameter family at a witness framework.

    Returns ``(family, q0)`` where ``family(q, mu)`` evaluates the edge
    flow at ``z0 + B q`` with the stored squared target of ``mu_edge``
    shifted by ``mu``, projected onto the slice basis ``B``; ``q0`` is
    the zero vector placing the family at the witness.
    """
    basis = gauge_slice_z_basis(b, witness)
    z0 = edge_vectors(witness).ravel()

    def family(q, mu):
        bundle = b.with_lengths(b.lengths.perturbed(mu_edge, float(mu)))
        z = z0 + basis @ np.asarray(q, dtype=float)
        return basis.T @ eval_F_z(bundle, z, check=False)

    return family, np.zeros(basis.shape[1])


def sotomayor_at_witness(b: VectorFieldBundle, witness: Framework, mu_edge=2, **kwargs):
    """Run the transcritical test on the formation family at a witness."""
    family, q0 = formation_family(b, witness, mu_edge)
    return sotomayor_check(family, q0, 0.0, **kwargs)


def _branch_point(bundle, mu, branch, fw):
    spec = gauge_fixed_spectrum(bundle, fw)
    return BranchPoint(
        mu=mu, branch=branch, framework=fw,
        leading_real=spec.leading_real, stable=spec.is_stable(TOL_ZERO),
    )


def _follow_branch(grid, center, branch, start, step):
    """One branch over ``grid``'s (mu, bundle) samples, walked outward from ``center``.

    At each sample ``step(bundle, previous)`` continues the branch from the
    framework found last, ``start`` at the centre. A sample where it
    returns None, or a framework whose field residual exceeds
    ``RESIDUAL_TOL``, is left out: a gap in the branch.
    """
    points = {}
    for indices in (range(center, len(grid)), range(center - 1, -1, -1)):
        previous = start
        for idx in indices:
            mu, bundle = grid[idx]
            fw = step(bundle, previous)
            if fw is None or float(np.max(np.abs(eval_F_x(bundle, fw.x)))) > RESIDUAL_TOL:
                continue
            points[idx] = _branch_point(bundle, mu, branch, fw)
            previous = fw
    return [points[i] for i in sorted(points)]


def mu_sweep(b: VectorFieldBundle, eps=DEFAULT_SWEEP_HALF_WIDTH, samples=21, mu_edge=2):
    """Sweep the design and aligned branches over a symmetric mu grid.

    ``b`` gives the graph, the law and the base targets; the stored
    squared target of ``mu_edge`` is shifted by each mu. Both grid
    endpoints must be realizable. Both branches follow one rule: walk
    outward from the sample nearest mu = 0 in both directions, each sample
    continuing from the framework found last; a sample whose step finds
    nothing, or finds a framework that is not an equilibrium of the flow,
    is omitted, leaving a gap. When the base targets sit in the singular
    set both branches start at the witness in canonical gauge, so they
    meet there. Otherwise the design branch starts at the first design
    realization of the base targets and the aligned branch at the first
    stable (else first) aligned equilibrium of the centre sample; the
    detector is then expected to report no crossing. The design step picks
    the closed-form realization nearest the last one. The aligned step is
    :func:`aligned_root_near` from the last root's ``(a, b)``, on the
    mirror of the branch start.
    """
    if b.graph != two_cycles():
        raise ConfigurationError("the branch sweep is specific to the two-cycles graph")
    base = b.lengths
    samples = int(samples)
    if samples < 1:
        raise ConfigurationError("a sweep needs at least one sample")
    mus = np.linspace(-float(eps), float(eps), samples)
    for end in (float(mus[0]), float(mus[-1])):
        realize_two_cycles(b.graph, base.perturbed(mu_edge, end))

    grid = [(float(mu), b.with_lengths(base.perturbed(mu_edge, float(mu)))) for mu in mus]
    center = int(np.argmin(np.abs(mus)))

    def design_step(bundle, previous):
        try:
            frameworks = realize_two_cycles(bundle.graph, bundle.lengths)
        except InfeasibleLengthsError:
            return None
        gauged = [canonical_gauge(fw) for fw in frameworks]
        return min(gauged, key=lambda g: float(np.max(np.abs(g.x - previous.x))))

    witnesses = singular_witnesses(base)
    start = canonical_gauge(witnesses[0] if witnesses else realize_two_cycles(b.graph, base)[0])
    points = _follow_branch(grid, center, "design", start, design_step)
    if not witnesses:
        records = solve_ancillary_aligned(grid[center][1])
        stable = [r for r in records if r.stable]
        start = (stable or records)[0].framework if records else None
    if start is not None:
        sigma = aligned_parameters(start)[2]

        def aligned_step(bundle, previous):
            a, bb, _ = aligned_parameters(previous)
            return aligned_root_near(bundle, a, bb, sigma)

        points += _follow_branch(grid, center, "ancillary_aligned", start, aligned_step)
    return points


def transcritical_detect(points):
    """Decide whether a sweep shows a transcritical exchange of stability.

    Detection needs each branch's leading eigenvalue to change sign
    exactly once, the two branches to change in opposite directions, and
    both interpolated crossings to land within one grid step of mu = 0.
    Incomplete data (missing branches, gapped or non-uniform grids) gives
    an indeterminate report rather than a verdict.
    """
    points = list(points)
    branches = {}
    for p in points:
        branches.setdefault(p.branch, []).append(p)
    names = sorted(branches)
    for name in names:
        branches[name].sort(key=lambda p: p.mu)
    short = [name for name in names if len(branches[name]) < 2]
    grids = [np.array([p.mu for p in branches[name]]) for name in names]
    if not points:
        reason = "no sweep points"
    elif len(names) < 2:
        reason = "fewer than two branches in the sweep"
    elif len(names) > 2:
        reason = "more than two branches in the sweep"
    elif short:
        reason = f"branch {short[0]!r} has fewer than two sweep points"
    elif len(grids[0]) != len(grids[1]) or np.max(np.abs(grids[0] - grids[1])) > 1e-12:
        reason = "branch grids differ; the sweep has gaps"
    else:
        diffs = np.diff(grids[0])
        reason = None
        if np.max(diffs) - np.min(diffs) > 1e-9 * (1.0 + float(np.max(np.abs(grids[0])))):
            reason = "sweep grid is not uniform; the sweep has gaps"
    if reason is not None:
        return TranscriticalReport(indeterminate=True, reason=reason)
    grid_step = float(np.mean(diffs))

    crossings = {}
    first_signs = {}
    for name in names:
        lr = np.array([p.leading_real for p in branches[name]])
        positive = lr > 0.0
        changes = [i for i in range(len(lr) - 1) if positive[i] != positive[i + 1]]
        if len(changes) != 1:
            return TranscriticalReport(
                reason=f"branch {name!r} leading eigenvalue changes sign "
                       f"{len(changes)} times, expected exactly one",
                grid_step=grid_step,
            )
        i = changes[0]
        mu_i, mu_j = grids[0][i], grids[0][i + 1]
        crossings[name] = float(mu_i - lr[i] * (mu_j - mu_i) / (lr[i + 1] - lr[i]))
        first_signs[name] = bool(positive[0])

    if first_signs[names[0]] == first_signs[names[1]]:
        return TranscriticalReport(
            reason="branches do not exchange stability; their sign patterns agree",
            crossings=crossings, grid_step=grid_step,
        )
    for name, mu_c in crossings.items():
        if abs(mu_c) > grid_step * (1.0 + 1e-9):
            return TranscriticalReport(
                reason=f"branch {name!r} crossing estimate {mu_c:.3g} is farther "
                       f"than one grid step from zero",
                crossings=crossings, grid_step=grid_step,
            )
    stable_low = names[0] if not first_signs[names[0]] else names[1]
    stable_high = names[1] if stable_low == names[0] else names[0]
    orientation = f"{stable_low} stable below the crossing, {stable_high} stable above"
    return TranscriticalReport(
        detected=True, crossings=crossings, orientation=orientation, grid_step=grid_step,
    )


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
    :func:`transcritical_detect` exercises the detector on the textbook
    exchange the formation sweep is compared against.
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
