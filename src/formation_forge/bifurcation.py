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

from .dynamics import VectorFieldBundle, builtin_law, eval_F_z
from .equilibria import (
    TOL_ZERO,
    aligned_parameters,
    aligned_root_near,
    canonical_gauge,
    design_frameworks,
    gauge_fixed_spectrum,
    solve_ancillary_aligned,
)
from .errors import ConfigurationError, FormulaDomainError, InfeasibleLengthsError
from .graph import two_cycles
from .numkernel import Spectrum, eigenvalues, fd_jacobian, fd_second_directional
from .rigidity import (
    Framework,
    TargetLengths,
    edge_vectors,
    singular_witnesses,
)

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
    detected: bool
    indeterminate: bool
    reason: str | None
    crossings: dict
    orientation: str | None
    grid_step: float | None


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
    z0 = edge_vectors(witness).z
    cycles = b.cycle_basis
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
    z0 = edge_vectors(witness).z.ravel()

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


def _design_branch_points(b0, base, mus, center, ref, mu_edge):
    points = {}
    for indices in (range(center, len(mus)), range(center - 1, -1, -1)):
        chain_ref = ref
        for idx in indices:
            lengths = base.perturbed(mu_edge, float(mus[idx]))
            try:
                frameworks = design_frameworks(b0.graph, lengths)
            except InfeasibleLengthsError:
                continue
            gauged = [canonical_gauge(fw) for fw in frameworks]
            pick = min(gauged, key=lambda g: float(np.max(np.abs(g.x - chain_ref))))
            points[idx] = _branch_point(
                b0.with_lengths(lengths), float(mus[idx]), "design", pick
            )
            chain_ref = pick.x
    return [points[i] for i in sorted(points)]


def _aligned_anchor(b0, base, mus, center, witness, mu_edge):
    """The aligned branch's start: the witness, else the first stable (or first) centre root."""
    if witness is not None:
        return aligned_parameters(canonical_gauge(witness))
    bundle = b0.with_lengths(base.perturbed(mu_edge, float(mus[center])))
    records = solve_ancillary_aligned(bundle)
    if not records:
        return None
    stable = [r for r in records if r.stable]
    return aligned_parameters((stable or records)[0].framework)


def _aligned_branch_points(b0, base, mus, center, params, mu_edge):
    """The aligned branch, each sample's Newton started from the last root found.

    A sample where Newton fails is left out, a gap in the branch.
    """
    *start, sigma = params
    points = {}
    for indices in (range(center, len(mus)), range(center - 1, -1, -1)):
        state = start
        for idx in indices:
            mu = float(mus[idx])
            bundle = b0.with_lengths(base.perturbed(mu_edge, mu))
            fw = aligned_root_near(bundle, *state, sigma)
            if fw is None:
                continue
            state = aligned_parameters(fw)[:2]
            points[idx] = _branch_point(bundle, mu, "ancillary_aligned", fw)
    return [points[i] for i in sorted(points)]


def mu_sweep(d0, eps=DEFAULT_SWEEP_HALF_WIDTH, samples=21, template=None, mu_edge=2):
    """Sweep the design and aligned branches over a symmetric mu grid.

    ``d0`` gives the base targets (a TargetLengths or a tuple of stored
    squared values); ``template`` supplies the graph and law, defaulting
    to the squared-error gradient law on the two-cycles graph. Both grid
    endpoints must be realizable. The design branch follows the nearest
    closed-form realization from sample to sample. The aligned branch
    starts at the sample nearest mu = 0: from the witness when ``d0`` sits
    in the singular set, so the branches meet there, and otherwise from
    the first stable aligned equilibrium (the detector is then expected to
    report no crossing). It is continued outward by :func:`newton_root` on
    the 2x2 aligned residual, each sample from the last root found.
    Samples where a branch's solver fails are omitted, leaving a gap.
    """
    if template is None:
        law = builtin_law("gradient_squared")
        graph = two_cycles()
    else:
        law = template.law
        graph = template.graph
    if graph.edges != two_cycles().edges:
        raise ConfigurationError("the branch sweep is specific to the two-cycles graph")
    if isinstance(d0, TargetLengths):
        base = d0
    else:
        base = TargetLengths(d=tuple(float(v) for v in d0), convention=law.convention)
    b0 = VectorFieldBundle(graph=graph, law=law, lengths=base)

    samples = int(samples)
    if samples < 1:
        raise ConfigurationError("a sweep needs at least one sample")
    mus = np.linspace(-float(eps), float(eps), samples)
    for end in (float(mus[0]), float(mus[-1])):
        design_frameworks(graph, base.perturbed(mu_edge, end))

    witnesses = singular_witnesses(base)
    witness = witnesses[0] if witnesses else None
    center = int(np.argmin(np.abs(mus)))

    if witness is not None:
        ref = canonical_gauge(witness).x
    else:
        ref = canonical_gauge(design_frameworks(graph, base)[0]).x
    points = _design_branch_points(b0, base, mus, center, ref, mu_edge)

    params = _aligned_anchor(b0, base, mus, center, witness, mu_edge)
    if params is not None:
        points.extend(_aligned_branch_points(b0, base, mus, center, params, mu_edge))
    return points


def transcritical_detect(points):
    """Decide whether a sweep shows a transcritical exchange of stability.

    Detection needs each branch's leading eigenvalue to change sign
    exactly once, the two branches to change in opposite directions, and
    both interpolated crossings to land within one grid step of mu = 0.
    Incomplete data (missing branches, gapped or non-uniform grids) gives
    an indeterminate report rather than a verdict.
    """

    def indeterminate(reason):
        return TranscriticalReport(
            detected=False, indeterminate=True, reason=reason,
            crossings={}, orientation=None, grid_step=None,
        )

    points = list(points)
    if not points:
        return indeterminate("no sweep points")
    branches = {}
    for p in points:
        branches.setdefault(p.branch, []).append(p)
    if len(branches) < 2:
        return indeterminate("fewer than two branches in the sweep")
    if len(branches) > 2:
        return indeterminate("more than two branches in the sweep")
    names = sorted(branches)
    for name in names:
        branches[name].sort(key=lambda p: p.mu)
        if len(branches[name]) < 2:
            return indeterminate(f"branch {name!r} has fewer than two sweep points")
    grids = [np.array([p.mu for p in branches[name]]) for name in names]
    if len(grids[0]) != len(grids[1]) or np.max(np.abs(grids[0] - grids[1])) > 1e-12:
        return indeterminate("branch grids differ; the sweep has gaps")
    diffs = np.diff(grids[0])
    if np.max(diffs) - np.min(diffs) > 1e-9 * (1.0 + float(np.max(np.abs(grids[0])))):
        return indeterminate("sweep grid is not uniform; the sweep has gaps")
    grid_step = float(np.mean(diffs))

    crossings = {}
    first_signs = {}
    for name in names:
        lr = np.array([p.leading_real for p in branches[name]])
        positive = lr > 0.0
        changes = [i for i in range(len(lr) - 1) if positive[i] != positive[i + 1]]
        if len(changes) != 1:
            return TranscriticalReport(
                detected=False, indeterminate=False,
                reason=f"branch {name!r} leading eigenvalue changes sign "
                       f"{len(changes)} times, expected exactly one",
                crossings={}, orientation=None, grid_step=grid_step,
            )
        i = changes[0]
        mu_i, mu_j = grids[0][i], grids[0][i + 1]
        crossings[name] = float(mu_i - lr[i] * (mu_j - mu_i) / (lr[i + 1] - lr[i]))
        first_signs[name] = bool(positive[0])

    if first_signs[names[0]] == first_signs[names[1]]:
        return TranscriticalReport(
            detected=False, indeterminate=False,
            reason="branches do not exchange stability; their sign patterns agree",
            crossings=crossings, orientation=None, grid_step=grid_step,
        )
    for name, mu_c in crossings.items():
        if abs(mu_c) > grid_step * (1.0 + 1e-9):
            return TranscriticalReport(
                detected=False, indeterminate=False,
                reason=f"branch {name!r} crossing estimate {mu_c:.3g} is farther "
                       f"than one grid step from zero",
                crossings=crossings, orientation=None, grid_step=grid_step,
            )
    stable_low = names[0] if not first_signs[names[0]] else names[1]
    stable_high = names[1] if stable_low == names[0] else names[0]
    orientation = f"{stable_low} stable below the crossing, {stable_high} stable above"
    return TranscriticalReport(
        detected=True, indeterminate=False, reason=None,
        crossings=crossings, orientation=orientation, grid_step=grid_step,
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
