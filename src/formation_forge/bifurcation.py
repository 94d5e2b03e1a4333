"""Transcritical bifurcation analysis along one target-length parameter.

Perturbing the stored squared target of edge ``mu_edge`` (0-based) by mu
moves the design equilibria and the aligned ancillary equilibria along
two branches that meet at a singular target vector. This module sweeps
the branches, detects the exchange of stability between them, and runs
the Sotomayor nondegeneracy test that certifies the crossing is a
genuine transcritical bifurcation and not something more degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import sub

import numpy as np

from .dynamics import VectorFieldBundle, eval_F_z
from .equilibria import (
    RESIDUAL_TOL,
    EquilibriumBatch,
    aligned_parameters,
    aligned_root_near,
    solve_ancillary_aligned,
)
from .errors import ConfigurationError, FormulaDomainError, InfeasibleLengthsError
from .numkernel import (
    NULLSPACE_TOL,
    TOL_ZERO,
    Spectrum,
    eigenvalues,
    fd_jacobian,
    fd_second_directional,
    fd_second_step,
    kron_I2,
)
from .rigidity import Framework, TargetLengths, edge_vectors, realize_two_cycles, singular_witnesses

# The settings of every Sotomayor test.
SOTOMAYOR_PARAM_STEP = 1e-7  # central-difference step in the parameter (FD_SECOND_STEP in x)
NONDEGEN_TOL = 1e-3  # the least |t_quad| and |t_mixed| of a nondegenerate crossing


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


@dataclass(frozen=True, eq=False)
class BranchPoint:
    """One sweep sample: a branch equilibrium, its targets and its leading eigenvalue."""

    mu: float
    branch: str
    framework: Framework
    lengths: TargetLengths  # the sample's targets
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


def sotomayor_check(family, x0):
    """Evaluate the transcritical conditions for ``xdot = family(x, mu)`` at mu = 0.

    The family must already be free of structural kernel directions
    (for formation flows, :func:`sotomayor_at_witness` builds the
    gauge-reduced family), so a unique zero eigenvalue is meaningful.
    All derivatives are central finite differences: the state step is
    ``fd_second_step``'s (``FD_SECOND_STEP`` scaled by ``x0``), the
    parameter step is ``SOTOMAYOR_PARAM_STEP``. A residual at ``(x0, 0)``
    above ``RESIDUAL_TOL``, NaN included, is a :class:`FormulaDomainError`.

    The verdict is true exactly when the zero eigenvalue is unique, the
    remaining eigenvalues have negative real part, ``|t_mu|`` is below
    ``TOL_ZERO`` times the parameter-derivative norm, and both ``t_quad``
    and ``t_mixed`` clear ``NONDEGEN_TOL``.
    """
    k = SOTOMAYOR_PARAM_STEP
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def f(x, mu):
        return np.atleast_1d(np.asarray(family(np.asarray(x, dtype=float), mu), dtype=float))

    f0 = f(x0, 0.0)
    residual = float(np.max(np.abs(f0)))
    if not residual <= RESIDUAL_TOL:  # a NaN residual is no equilibrium either
        raise FormulaDomainError(
            f"sotomayor analysis requires an equilibrium of the family; "
            f"residual {residual:.3e} exceeds {RESIDUAL_TOL:g}"
        )

    jac = fd_jacobian(lambda x: f(x, 0.0), x0)
    spec = eigenvalues(jac)
    zero_scale = TOL_ZERO * max(1.0, spec.spectral_radius)
    n_zero = sum(1 for lam in spec.values if abs(lam) <= zero_scale)
    zero_eig_unique = n_zero == 1
    degenerate = n_zero >= 2
    others_negative = all(
        lam.real < -zero_scale for lam in spec.values if abs(lam) > zero_scale
    )

    u_svd, _, vt_svd = np.linalg.svd(jac)
    v = _normalize_sign(vt_svd[-1].copy())
    w = _normalize_sign(u_svd[:, -1].copy())

    fmu = (f(x0, k) - f(x0, -k)) / (2.0 * k)
    fmu_norm = float(np.linalg.norm(fmu))
    t_mu = float(w @ fmu)

    t_quad = float(w @ fd_second_directional(lambda x: f(x, 0.0), x0, v))
    hs = fd_second_step(x0.tolist())

    def dir_deriv(mu):
        return (f(x0 + hs * v, mu) - f(x0 - hs * v, mu)) / (2.0 * hs)

    t_mixed = float(w @ ((dir_deriv(k) - dir_deriv(-k)) / (2.0 * k)))

    verdict = bool(
        zero_eig_unique
        and others_negative
        and abs(t_mu) <= TOL_ZERO * fmu_norm
        and abs(t_quad) >= NONDEGEN_TOL
        and abs(t_mixed) >= NONDEGEN_TOL
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
    rows = [kron_I2(cycles.T)] if cycles.shape[1] else []
    rotation = np.column_stack([-z0[:, 1], z0[:, 0]]).ravel()
    rows.append(rotation[None, :])
    constraints = np.vstack(rows)
    _, s, vt = np.linalg.svd(constraints)
    rank = int(np.sum(s > NULLSPACE_TOL * s[0]))
    return vt[rank:].T


def sotomayor_at_witness(b: VectorFieldBundle, witness: Framework, mu_edge):
    """Run the transcritical test on the gauge-reduced formation family at a witness.

    The family ``family(q, mu)`` evaluates the edge flow at ``z0 + B q``
    with the stored squared target of ``mu_edge`` shifted by ``mu``,
    projected onto the slice basis ``B``; ``q = 0`` places it at the witness.
    """
    basis = gauge_slice_z_basis(b, witness)
    z0 = edge_vectors(witness).ravel()

    @lru_cache(maxsize=None)
    def bundle_at(mu):  # one bundle, and one bound kernel, per distinct mu
        return b.with_lengths(b.lengths.perturbed(mu_edge, mu))

    def family(q, mu):
        bundle = bundle_at(float(mu))
        z = z0 + basis @ np.asarray(q, dtype=float)
        return basis.T @ eval_F_z(bundle, z, check=False)

    return sotomayor_check(family, np.zeros(basis.shape[1]))


def _follow_branch(batch, grid, center, start, step):
    """One branch over ``grid``'s (mu, bundle) samples, walked outward from ``center``.

    At each sample ``step(bundle, previous)`` continues the branch from the
    framework found last, ``start`` at the centre, and the framework goes
    into ``batch``. A sample where it returns None, or a framework that
    :meth:`~.equilibria.EquilibriumBatch.add` refuses because its field
    residual exceeds ``RESIDUAL_TOL``, is left out: a gap in the branch,
    which the walk continues from the framework before it. Returns each
    sample's index in ``batch`` and framework, by sample index.
    """
    found = {}
    for indices in (range(center, len(grid)), range(center - 1, -1, -1)):
        previous = start
        for idx in indices:
            bundle = grid[idx][1]
            fw = step(bundle, previous)
            try:
                if fw is not None:
                    found[idx] = batch.add(bundle, fw), fw
                    previous = fw
            except FormulaDomainError:
                pass
    return found


def mu_sweep(b: VectorFieldBundle, eps, samples, mu_edge):
    """Sweep the design and aligned branches over a symmetric mu grid.

    ``b`` gives the graph, the law and the base targets; the stored
    squared target of ``mu_edge`` is shifted by each mu. Both grid
    endpoints must be realizable (the realizer refuses any graph but
    two-cycles), and an end that shifts the target out of the positive
    range is refused naming that end and the edge; a grid that cannot be
    allocated, or whose width passes the float range, is a
    :class:`ConfigurationError`. Both branches follow one rule: walk
    outward from the sample nearest mu = 0 in both directions, each sample
    continuing from the framework found last; a sample whose step finds
    nothing, or finds a framework that is not an equilibrium of the flow,
    is omitted, leaving a gap. When a realization of the base targets is
    a singular witness both branches start at the first, so they meet
    there. Otherwise the design branch starts at the first realization and
    the aligned branch at the first stable (else first) aligned equilibrium
    of the centre sample; the detector is then expected to report no
    crossing. The design step picks the closed-form realization nearest
    the last one by the largest coordinate difference, in the canonical
    gauge it comes in. The aligned step is :func:`aligned_root_near` from
    the last root's ``(a, b)``, on the mirror of the branch start. Each
    sample is checked as the walk reaches it, and the gauge spectra of
    both branches are taken in one :class:`~.equilibria.EquilibriumBatch`
    after the walks.
    """
    base = b.lengths
    samples = int(samples)
    if samples < 1:
        raise ConfigurationError("a sweep needs at least one sample")
    if not np.isfinite(2.0 * float(eps)):  # the grid's width, which np.linspace computes
        raise ConfigurationError(f"a sweep of half-width {float(eps):.6g} passes the float range")
    try:
        mus = np.linspace(-float(eps), float(eps), samples)
    except (MemoryError, ValueError):  # ValueError: more samples than an index can count
        raise ConfigurationError(f"{samples} sweep samples cannot be allocated") from None
    realize = lru_cache(maxsize=None)(partial(realize_two_cycles, b.graph))  # once per target set
    for end in (float(mus[0]), float(mus[-1])):
        try:
            lengths = base.perturbed(mu_edge, end)
        except InfeasibleLengthsError:
            raise InfeasibleLengthsError(
                f"the sweep's end mu = {end:.6g} takes edge {mu_edge + 1}'s squared target "
                f"{base.d[mu_edge]:.6g} to {base.d[mu_edge] + end:.6g}, outside the positive range"
            ) from None
        realize(lengths)

    grid = [(float(mu), b.with_lengths(base.perturbed(mu_edge, float(mu)))) for mu in mus]
    center = int(np.argmin(np.abs(mus)))

    def design_step(bundle, previous):
        try:
            frameworks = realize(bundle.lengths)
        except InfeasibleLengthsError:
            return None
        last = previous.x.ravel().tolist()
        return min(frameworks, key=lambda g: max(map(abs, map(sub, g.x.ravel().tolist(), last))))

    realized = realize(base)
    witnesses = singular_witnesses(realized)
    start = (witnesses or realized)[0]
    batch = EquilibriumBatch()
    branches = {"design": _follow_branch(batch, grid, center, start, design_step)}
    if not witnesses:
        records = solve_ancillary_aligned(grid[center][1])
        stable = [r for r in records if r.stable]
        start = (stable or records)[0].framework if records else None
    if start is not None:
        sigma = aligned_parameters(start)[2]

        def aligned_step(bundle, previous):
            a, bb, _ = aligned_parameters(previous)
            return aligned_root_near(bundle, a, bb, sigma)

        branches["ancillary_aligned"] = _follow_branch(batch, grid, center, start, aligned_step)
    spectra = batch.spectra()
    return [
        BranchPoint(
            mu=grid[idx][0], branch=branch, framework=fw,
            lengths=grid[idx][1].lengths, leading_real=spectra[k].leading_real,
            stable=spectra[k].is_stable(),
        )
        for branch, found in branches.items()
        for idx, (k, fw) in sorted(found.items())
    ]


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
