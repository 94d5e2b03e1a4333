"""Equilibrium construction, discovery, classification, and verdicts.

The flow's equilibria split into design equilibria (every edge error
vanishes, the configurations the targets describe) and ancillary
equilibria created by the decentralized topology. The census gathers
both kinds, deduplicates them modulo rigid motions, attaches gauge-fixed
spectra and indices, and answers the two verdict questions: are the
targets realizable at all, and is every stable equilibrium a design one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .dynamics import (
    VectorFieldBundle,
    builtin_law,
    edge_weights,
    eval_F_x,
    jacobian_x,
    weight_slopes,
)
from .errors import (
    ConfigurationError,
    FormationForgeError,
    FormulaDomainError,
    InfeasibleLengthsError,
    SingularityError,
)
from .graph import two_cycles
from .numkernel import Spectrum, eigenvalues, fd_jacobian, squared_lengths
from .rigidity import (
    Framework,
    TargetLengths,
    edge_errors,
    edge_vectors,
    planar_cross,
    realize_two_cycles,
)

RECORD_KINDS = ("design", "ancillary_aligned", "ancillary_collinear", "ancillary_other")

TOL_ZERO = 1e-6
_DESIGN_TOL = 1e-8
_RESIDUAL_TOL = 1e-9

BENCHMARK_LENGTHS = (2.0, 2.6, 2.0, 1.4, 3.3)
"""Plain-length values of the reference census the test suite reproduces."""

BENCHMARK_SPECTRA = {
    "design_stable": (-17.5 + 1.3j, -17.5 - 1.3j, -11.9, -7.9, -0.6),
    "design_unstable": (0.6, -18.6 + 3.0j, -18.6 - 3.0j, -9.4 + 3.1j, -9.4 - 3.1j),
    "aligned": (-23.4 + 4.8j, -23.4 - 4.8j, -11.0 + 2.8j, -11.0 - 2.8j, -1.6),
}
"""Reference gauge spectra quoted for the benchmark lengths: one stable
design class, one design class with a single unstable direction, and a
stable aligned ancillary equilibrium."""


@dataclass(frozen=True, eq=False)
class EquilibriumRecord:
    """One equilibrium with its classification and linearization data.

    ``index`` is None when the gauge Jacobian is not hyperbolic, where the
    sign of the determinant carries no topological meaning. ``framework``
    is None only for records produced by :func:`scalar_census`.
    """

    framework: Framework | None
    kind: str
    spectrum_gauge: Spectrum
    index: int | None
    stable: bool
    residual: float

    @property
    def leading_real(self):
        return self.spectrum_gauge.leading_real


@dataclass(frozen=True, eq=False)
class CensusReport:
    records: tuple[EquilibriumRecord, ...]
    feasible: bool
    almost_surely_stable: bool
    index_sum: int
    dropped_seeds: int = 0

    def by_kind(self, kind):
        return [r for r in self.records if r.kind == kind]


def design_frameworks(graph, lengths: TargetLengths):
    """All design equilibria of the two-cycles targets, in canonical gauge.

    Wraps the closed-form realization and verifies each returned framework
    satisfies its squared-length targets to 1e-12.
    """
    frameworks = realize_two_cycles(lengths, graph)
    d = lengths.as_array()
    for fw in frameworks:
        z = edge_vectors(fw).z
        err = float(np.max(np.abs(squared_lengths(z) - d)))
        if err > 1e-12 * max(1.0, float(np.max(d))):
            raise FormationForgeError(
                f"design realization failed its length verification (error {err:.3e})"
            )
    return frameworks


def canonical_gauge(f: Framework):
    """Translate the first agent to the origin and rotate the first edge to +x.

    Degenerate frameworks whose first edge vanishes fall back to the first
    nonzero edge; a fully superposed framework is only translated.
    Reflections are deliberately not quotiented, so mirror-image
    frameworks stay distinct.
    """
    x = f.x - f.x[0]
    fw = f.with_positions(x)
    z = edge_vectors(fw).z
    direction = None
    for k in range(z.shape[0]):
        norm = float(np.hypot(*z[k]))
        if norm > 1e-12:
            direction = z[k] / norm
            break
    if direction is None:
        return fw
    c, s = float(direction[0]), float(direction[1])
    rot = np.array([[c, s], [-s, c]])
    return f.with_positions(x @ rot.T)


def gauge_slice_basis(x):
    """Orthonormal complement of the rigid-motion directions at ``x``.

    The columns span the slice on which the linearization acts without
    its structural zeros. The rigid directions are the two translations
    and the infinitesimal rotation about the origin; their span can drop
    below three dimensions for degenerate configurations (all agents
    superposed), in which case the slice is correspondingly larger.
    """
    pts = np.asarray(x, dtype=float).reshape(-1, 2)
    n = pts.shape[0]
    t1 = np.tile([1.0, 0.0], n)
    t2 = np.tile([0.0, 1.0], n)
    rot = np.column_stack([-pts[:, 1], pts[:, 0]]).ravel()
    sym = np.column_stack([t1, t2, rot])
    u, s, _ = np.linalg.svd(sym, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * s[0]))
    return u[:, rank:]


def _gauge_jacobian(b: VectorFieldBundle, f: Framework, tol_residual=_RESIDUAL_TOL):
    fx = eval_F_x(b, f.x.ravel())
    residual = float(np.max(np.abs(fx)))
    if residual > tol_residual:
        raise FormulaDomainError(
            f"gauge-fixed linearization requires an equilibrium; residual {residual:.3e}"
        )
    jac = fd_jacobian(lambda v: eval_F_x(b, v), f.x.ravel())
    basis = gauge_slice_basis(f.x)
    return basis.T @ jac @ basis, residual


def gauge_fixed_spectrum(b: VectorFieldBundle, f: Framework, tol_residual=_RESIDUAL_TOL):
    """Spectrum of the linearization restricted to the gauge slice.

    The rigid directions lie in the kernel at any equilibrium, so the
    full spectrum is exactly this slice spectrum plus the structural
    zeros; restricting first avoids having to tell a genuinely small
    eigenvalue apart from a symmetry zero.

    The linearization is a central difference of :func:`eval_F_x`, not
    the closed form :func:`jacobian_x` the solvers use. The two differ
    by about 1e-9 relative, enough to move printed spectra past their
    pinned tolerance; where two agents coincide, the difference quotient
    straddles the kink of a zero-length plain-law edge and is off by its
    step. Moving spectra to the closed form changes published numbers.
    """
    m, _ = _gauge_jacobian(b, f, tol_residual)
    return eigenvalues(m)


def poincare_index(b: VectorFieldBundle, f: Framework, tol_zero=TOL_ZERO):
    """Sign of the gauge-slice Jacobian determinant at a hyperbolic equilibrium."""
    m, _ = _gauge_jacobian(b, f)
    spec = eigenvalues(m)
    radius = max(spec.spectral_radius, 1e-300)
    if min(abs(v.real) for v in spec.values) <= tol_zero * radius:
        raise SingularityError(
            "poincare index is undefined at a non-hyperbolic equilibrium "
            f"(an eigenvalue real part is within {tol_zero:g} of zero, relative)"
        )
    sign, _ = np.linalg.slogdet(m)
    return int(round(sign))


def classify_kind(b: VectorFieldBundle, f: Framework, tol=_DESIGN_TOL):
    """Assign a census kind by priority: design, collinear, aligned, other."""
    errs = edge_errors(f, b.lengths)
    if float(np.max(np.abs(errs))) <= tol:
        return "design"
    z = edge_vectors(f).z
    svals = np.linalg.svd(z, compute_uv=False)
    if svals[0] <= tol or (len(svals) > 1 and svals[1] <= tol * svals[0]):
        return "ancillary_collinear"
    n1 = float(np.hypot(*z[0]))
    n5 = float(np.hypot(*z[4])) if z.shape[0] >= 5 else 0.0
    if z.shape[0] >= 5 and n1 > tol and n5 > tol:
        aligned = abs(planar_cross(z[0], z[4])) <= tol * n1 * n5
        middle_ok = float(np.max(np.abs(errs[1:4]))) <= tol
        if aligned and middle_ok:
            return "ancillary_aligned"
    return "ancillary_other"


def _damped_newton(f, x0, tol=1e-11, max_iter=80, jac=None):
    """Newton iteration with least-squares steps and residual backtracking.

    The plain iteration overshoots badly on the cubic formation field from
    generic seeds; halving the step until the residual decreases keeps
    distant seeds usable. The least-squares solve truncates small singular
    values so the step stays orthogonal to the numerical kernel (the field
    is translation invariant, so the two translation directions would
    otherwise blow the iterate up without changing the residual). Returns
    the root, or None when the iteration stagnates or runs out of budget.

    ``jac(x)`` supplies the Jacobian; the census passes the closed form
    :func:`jacobian_x`. Without it the Jacobian is a central difference
    of ``f``, which is what :func:`scalar_census` uses for its
    user-supplied flows.
    """
    x = np.array(x0, dtype=float).ravel()
    fx = np.atleast_1d(np.asarray(f(x), dtype=float))
    res = float(np.max(np.abs(fx)))
    for _ in range(max_iter):
        if res <= tol:
            return x
        jx = fd_jacobian(f, x) if jac is None else jac(x)
        step, *_ = np.linalg.lstsq(jx, -fx, rcond=1e-8)
        if not np.all(np.isfinite(step)):
            return None
        alpha = 1.0
        for _ in range(25):
            xn = x + alpha * step
            fn = np.atleast_1d(np.asarray(f(xn), dtype=float))
            rn = float(np.max(np.abs(fn))) if np.all(np.isfinite(fn)) else np.inf
            if rn < res:
                break
            alpha *= 0.5
        else:
            return None
        x, fx, res = xn, fn, rn
    return x if res <= tol else None


def equilibrium_record(b: VectorFieldBundle, f: Framework, tol_zero=TOL_ZERO):
    """Classify an equilibrium and attach its gauge-fixed spectrum and index."""
    m, residual = _gauge_jacobian(b, f)
    spec = eigenvalues(m)
    radius = max(spec.spectral_radius, 1e-300)
    stable = all(v.real < -tol_zero * radius for v in spec.values)
    if min(abs(v.real) for v in spec.values) > tol_zero * radius:
        sign, _ = np.linalg.slogdet(m)
        index = int(round(sign))
    else:
        index = None
    return EquilibriumRecord(
        framework=f,
        kind=classify_kind(b, f),
        spectrum_gauge=spec,
        index=index,
        stable=stable,
        residual=residual,
    )


def _aligned_positions(d, a, bb, sigma):
    if a <= 1e-9:
        return None
    alpha = (a * a + d[2] - d[1]) / (2.0 * a)
    beta_sq = d[2] - alpha * alpha
    if beta_sq < 0.0:
        return None
    beta = math.sqrt(beta_sq)
    return np.array([[0.0, 0.0], [a, 0.0], [alpha, sigma * beta], [bb, 0.0]])


def _aligned_residual(b, d, a, bb, sigma):
    """The fourth edge's weight and the force balance on agent 1."""
    x = _aligned_positions(d, a, bb, sigma)
    if x is None:
        return None
    # x_target - x_origin over the two-cycles edges, as edge_vectors computes it
    u = edge_weights(b, x[[1, 2, 0, 2, 3]] - x[[0, 1, 2, 3, 0]])
    return np.array([u[3], u[0] * a + u[4] * bb])


def _aligned_system(law, d, a, bb, sigma):
    """:func:`_aligned_residual` and its closed-form Jacobian in ``(a, b)``.

    Valid for separable laws, and evaluated straight from the parameters:
    only edges 1, 4 and 5 enter, with squared lengths ``a^2``,
    ``(alpha - b)^2 + beta^2`` and ``b^2`` summed as the edge vectors'
    components would be, so the residual matches the framework route bit
    for bit. With ``beta^2 = d_3 - alpha^2`` the fourth length is
    ``b^2 - 2 alpha b + d_3``, which depends on ``a`` only through
    ``alpha(a)``. Returns None where agent 3 cannot be placed.
    """
    if a <= 1e-9:
        return None
    alpha = (a * a + d[2] - d[1]) / (2.0 * a)
    beta_sq = d[2] - alpha * alpha
    if beta_sq < 0.0:
        return None
    beta = math.sqrt(beta_sq)
    gap = alpha - bb
    s2 = np.array([a * a, gap * gap + beta * beta, bb * bb])
    dk = d[[0, 3, 4]]
    u = np.asarray(law.weight(dk, s2), dtype=float)
    du = weight_slopes(law, dk, s2)
    dalpha = 0.5 - (d[2] - d[1]) / (2.0 * a * a)
    res = np.array([u[1], u[0] * a + u[2] * bb])
    jac = np.array([
        [-2.0 * bb * dalpha * du[1], 2.0 * (bb - alpha) * du[1]],
        [u[0] + 2.0 * s2[0] * du[0], u[2] + 2.0 * s2[2] * du[2]],
    ])
    return res, jac


def _aligned_fd_jacobian(b, d, v, sigma):
    jac = np.zeros((2, 2))
    for col in range(2):
        h = 1e-7 * max(1.0, abs(v[col]))
        vp = v.copy()
        vm = v.copy()
        vp[col] += h
        vm[col] -= h
        rp = _aligned_residual(b, d, vp[0], vp[1], sigma)
        rm = _aligned_residual(b, d, vm[0], vm[1], sigma)
        if rp is None or rm is None:
            return None
        jac[:, col] = (rp - rm) / (2.0 * h)
    return jac


def aligned_newton(b, a0, b0, sigma, newton_tol=1e-11, max_iter=60):
    """Newton from one aligned seed; the converged framework or None.

    The unknowns are the signed positions ``a`` and ``b`` of agents 2 and
    4 on the line through agent 1, with agent 3 on mirror ``sigma``. For
    separable laws the 2x2 Jacobian is closed form (:func:`_aligned_system`);
    a law that couples a two-coleader pair has no closed form here and
    gets central differences of the residual. The returned framework is
    verified to be an equilibrium of the full flow, not just a root of
    the two-scalar reduction.
    """
    d = b.lengths.as_array()
    v = np.array([float(a0), float(b0)])
    ok = False
    for _ in range(max_iter):
        jac = None
        if b.law.separable:
            system = _aligned_system(b.law, d, v[0], v[1], sigma)
            res, jac = (None, None) if system is None else system
        else:
            res = _aligned_residual(b, d, v[0], v[1], sigma)
        if res is None or not np.all(np.isfinite(res)):
            return None
        if np.max(np.abs(res)) <= newton_tol:
            ok = True
            break
        if jac is None:
            jac = _aligned_fd_jacobian(b, d, v, sigma)
            if jac is None:
                return None
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        v = v + step
        if abs(v[0]) > 1e6 or abs(v[1]) > 1e6:
            return None
    if not ok:
        return None
    x = _aligned_positions(d, v[0], v[1], sigma)
    if x is None:
        return None
    fw = Framework(graph=b.graph, x=x)
    if float(np.max(np.abs(eval_F_x(b, fw.x)))) > _RESIDUAL_TOL:
        return None
    return fw


def aligned_parameters(f: Framework):
    """Recover the (a, b, sigma) aligned parametrization from a framework.

    Assumes the framework is in canonical gauge with agents 1, 2, 4 on
    the x axis, the gauge every aligned solution is produced in.
    """
    x = f.x - f.x[0]
    return float(x[1, 0]), float(x[3, 0]), 1.0 if x[2, 1] >= 0.0 else -1.0


def solve_ancillary_aligned(
    b: VectorFieldBundle,
    a_seeds=None,
    b_seeds=None,
    newton_tol=1e-11,
    max_iter=60,
):
    """Equilibria whose first and fifth edge vectors are parallel.

    The configuration is parameterized by the signed positions of agents
    2 and 4 on the common line through agent 1, with agent 3 pinned by
    its two exact length constraints (two mirror branches). Newton then
    solves the remaining two scalars: the fourth edge's weight and the
    force balance on the two-coleader agent. Seeds cover a coarse grid;
    everything that converges and verifies as a genuine equilibrium of
    the full flow is returned, deduplicated. The seed grid does not claim
    completeness.
    """
    if b.graph.edges != two_cycles().edges:
        raise ConfigurationError("the aligned solver is specific to the two-cycles graph")
    d = b.lengths.as_array()
    r1 = math.sqrt(d[0])
    r5 = math.sqrt(d[4])
    if a_seeds is None:
        a_seeds = [f * r1 for f in (0.4, 0.7, 1.0, 1.4, 2.0)]
    if b_seeds is None:
        b_seeds = [s * f * r5 for s in (1.0, -1.0) for f in (0.4, 0.8, 1.2, 2.0)]
    solutions = []
    records = []
    for sigma in (1.0, -1.0):
        for a0 in a_seeds:
            for b0 in b_seeds:
                fw = aligned_newton(b, a0, b0, sigma, newton_tol, max_iter)
                if fw is None:
                    continue
                if any(np.max(np.abs(fw.x - sx)) <= 1e-7 for sx in solutions):
                    continue
                solutions.append(fw.x)
                records.append(equilibrium_record(b, fw))
    return records


def _collinear_line_equilibria(b, rng, n_trials, span, newton_tol, max_iter):
    """Equilibria of the flow restricted to a line through the origin.

    Collinear configurations form an invariant subspace, so roots of the
    one-dimensional restriction are equilibria of the full flow. These
    are representatives only; collinear equilibria can come in continua.
    """
    n = b.graph.n

    def line_field(p):
        x = np.column_stack([p, np.zeros(n)])
        return eval_F_x(b, x)[:, 0]

    def line_jacobian(p):
        return jacobian_x(b, np.column_stack([p, np.zeros(n)]))[0::2, 0::2]

    found = []
    for _ in range(n_trials):
        p0 = rng.uniform(-span, span, n)
        root = _damped_newton(
            line_field, p0, tol=newton_tol, max_iter=max_iter, jac=line_jacobian
        )
        if root is not None:
            found.append(np.column_stack([root, np.zeros(n)]))
    return found


def census(
    b: VectorFieldBundle,
    n_random=200,
    seed=0,
    dedupe_tol=1e-6,
    n_collinear=24,
    newton_tol=1e-11,
    max_iter=80,
):
    """Find, polish, deduplicate, and classify equilibria of the flow.

    Seeds come from the closed-form design realizations, the aligned
    solver, random collinear lines, and random frameworks drawn uniformly
    from a square sized to the targets. Non-convergent seeds are counted,
    not raised. Identical seeds and tolerances give an identical report.
    """
    rng = np.random.default_rng(seed)
    span = 2.0 * float(np.max(np.sqrt(b.lengths.as_array())))
    seeds = []
    if b.graph.edges == two_cycles().edges:
        try:
            seeds.extend(fw.x for fw in design_frameworks(b.graph, b.lengths))
        except InfeasibleLengthsError:
            pass
        for rec in solve_ancillary_aligned(b, newton_tol=newton_tol):
            seeds.append(rec.framework.x)
    seeds.extend(
        _collinear_line_equilibria(b, rng, n_collinear, span, newton_tol, max_iter)
    )
    seeds.extend(rng.uniform(-span, span, (b.graph.n, 2)) for _ in range(n_random))

    kept = []
    records = []
    dropped = 0
    for s in seeds:
        root = _damped_newton(
            lambda v: eval_F_x(b, v), np.asarray(s, dtype=float).ravel(),
            tol=newton_tol, max_iter=max_iter, jac=lambda v: jacobian_x(b, v),
        )
        if root is None:
            dropped += 1
            continue
        fw = Framework(graph=b.graph, x=root.reshape(b.graph.n, 2))
        gauged = canonical_gauge(fw)
        if any(np.max(np.abs(gauged.x - kx)) <= dedupe_tol for kx in kept):
            continue
        kept.append(gauged.x)
        records.append(equilibrium_record(b, gauged))

    feasible = any(r.kind == "design" for r in records)
    almost_surely_stable = all(r.kind == "design" for r in records if r.stable)
    index_sum = sum(r.index for r in records if r.index is not None)
    return CensusReport(
        records=tuple(records),
        feasible=feasible,
        almost_surely_stable=almost_surely_stable,
        index_sum=index_sum,
        dropped_seeds=dropped,
    )


def scalar_census(f, design_values, lo=None, hi=None, n_seeds=41, fprime=None):
    """Census of a one-dimensional flow ``xdot = f(x)``.

    The taxonomy and verdicts match the planar census: ``design_values``
    play the role of the target configurations, every other root is
    ancillary, and the almost-sure-stability verdict asks whether every
    stable root is a design one.
    """
    design = [float(v) for v in design_values]
    scale = max([1.0] + [abs(v) for v in design])
    if lo is None:
        lo = -2.5 * scale
    if hi is None:
        hi = 2.5 * scale
    roots = []
    for x0 in np.linspace(lo, hi, n_seeds):
        found = _damped_newton(lambda x: np.atleast_1d(f(float(x[0]))), np.array([float(x0)]),
                               tol=1e-12, max_iter=60)
        if found is None:
            continue
        root = float(found[0])
        if any(abs(root - r) <= 1e-8 * max(1.0, abs(r)) for r in roots):
            continue
        roots.append(root)
    records = []
    for root in sorted(roots):
        if fprime is not None:
            slope = float(fprime(root))
        else:
            h = 1e-6 * max(1.0, abs(root))
            slope = (f(root + h) - f(root - h)) / (2.0 * h)
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
    feasible = any(r.kind == "design" for r in records)
    almost_surely_stable = all(r.kind == "design" for r in records if r.stable)
    index_sum = sum(r.index for r in records if r.index is not None)
    return CensusReport(
        records=tuple(records),
        feasible=feasible,
        almost_surely_stable=almost_surely_stable,
        index_sum=index_sum,
    )


def _chebyshev_multiset(computed, reference):
    """Smallest worst-case pairing distance between two eigenvalue lists."""
    comp = [complex(v) for v in computed]
    ref = [complex(v) for v in reference]
    if len(comp) != len(ref):
        return float("inf")
    best = float("inf")
    for perm in permutations(range(len(ref))):
        worst = max(abs(comp[i] - ref[perm[i]]) for i in range(len(ref)))
        best = min(best, worst)
    return best


@dataclass(frozen=True, eq=False)
class ConventionCandidate:
    """One law/interpretation/leg-order combination scored against references."""

    law_name: str
    interpretation: str
    leg_order: str
    feasible: bool
    deviations: dict
    quantitative_ok: bool
    qualitative_ok: bool
    spectra: dict

    @property
    def worst_deviation(self):
        vals = [v for v in self.deviations.values()]
        return max(vals) if vals else float("inf")


@dataclass(frozen=True, eq=False)
class ConventionReport:
    candidates: tuple[ConventionCandidate, ...]
    best: ConventionCandidate


def _spectrum_positive_count(spec: Spectrum, tol):
    radius = max(spec.spectral_radius, 1e-300)
    return sum(1 for v in spec.values if v.real > tol * radius)


def identify_convention(values=BENCHMARK_LENGTHS, published=None, tol=0.15):
    """Score every built-in convention against reference spectra.

    The reference data pins neither the error convention (plain or
    squared), nor whether the quoted numbers are lengths or squared
    lengths, nor the assignment of the last two quoted values to the two
    single-coleader legs of agent 4 and agent 1 (the remaining ordering is
    forced by the realization's triangle structure). Every combination of
    built-in law, value interpretation, and leg order is therefore
    evaluated: design classes and aligned equilibria are computed, matched
    against the references as multisets, and scored by worst absolute
    deviation. A candidate passes quantitatively when every deviation is
    within ``tol`` and qualitatively when the stability pattern matches
    the references (one stable design class, one design class with exactly
    one unstable direction, a stable aligned equilibrium).

    A no-match outcome is valid: the best candidate is still returned
    with its flags down.
    """
    if published is None:
        published = BENCHMARK_SPECTRA
    graph = two_cycles()
    candidates = []
    for law_name in ("gradient_squared", "gradient_plain", "eq1_plain"):
        law = builtin_law(law_name, 1.0)
        for interpretation in ("plain_values", "squared_values"):
            base = [float(v) for v in values]
            stored = [v * v for v in base] if interpretation == "plain_values" else base
            for leg_order in ("given", "swapped_pair"):
                d = list(stored)
                if leg_order == "swapped_pair":
                    d[3], d[4] = d[4], d[3]
                candidates.append(
                    _score_candidate(graph, law, law_name, interpretation, leg_order, d,
                                     published, tol)
                )
    ranked = sorted(
        candidates,
        key=lambda c: (not c.quantitative_ok, not c.qualitative_ok, c.worst_deviation),
    )
    return ConventionReport(candidates=tuple(candidates), best=ranked[0])


def _score_candidate(graph, law, law_name, interpretation, leg_order, d, published, tol):
    inf = float("inf")
    try:
        lengths = TargetLengths(d=tuple(d), convention=law.convention)
        bundle = VectorFieldBundle(graph=graph, law=law, lengths=lengths)
        frameworks = design_frameworks(graph, lengths)
    except (InfeasibleLengthsError, ConfigurationError):
        return ConventionCandidate(
            law_name=law_name, interpretation=interpretation, leg_order=leg_order,
            feasible=False, deviations={}, quantitative_ok=False, qualitative_ok=False,
            spectra={},
        )
    specs = [gauge_fixed_spectrum(bundle, fw) for fw in frameworks]
    classes = []
    for spec in specs:
        if not any(_chebyshev_multiset(spec.values, c.values) <= 1e-6 for c in classes):
            classes.append(spec)
    aligned = solve_ancillary_aligned(bundle)

    best_assign = None
    if len(classes) == 1:
        pairs = [(0, 0)]
    else:
        pairs = list(permutations(range(len(classes)), 2))
    for i_st, i_un in pairs:
        dev_s = _chebyshev_multiset(classes[i_st].values, published["design_stable"])
        dev_u = _chebyshev_multiset(classes[i_un].values, published["design_unstable"])
        key = max(dev_s, dev_u)
        if best_assign is None or key < best_assign[0]:
            best_assign = (key, i_st, i_un, dev_s, dev_u)
    _, i_st, i_un, dev_s, dev_u = best_assign

    dev_a = inf
    aligned_spec = None
    aligned_stable = False
    for rec in aligned:
        dev = _chebyshev_multiset(rec.spectrum_gauge.values, published["aligned"])
        if dev < dev_a or (dev == dev_a and rec.stable and not aligned_stable):
            dev_a = dev
            aligned_spec = rec.spectrum_gauge
            aligned_stable = rec.stable

    deviations = {"design_stable": dev_s, "design_unstable": dev_u, "aligned": dev_a}
    quantitative_ok = all(v <= tol for v in deviations.values())
    qual_stable = classes[i_st].is_stable(0.0)
    qual_unstable = _spectrum_positive_count(classes[i_un], TOL_ZERO) == 1
    qualitative_ok = bool(qual_stable and qual_unstable and aligned_stable)
    spectra = {
        "design_stable": classes[i_st],
        "design_unstable": classes[i_un],
        "aligned": aligned_spec,
    }
    return ConventionCandidate(
        law_name=law_name, interpretation=interpretation, leg_order=leg_order,
        feasible=True, deviations=deviations, quantitative_ok=quantitative_ok,
        qualitative_ok=qualitative_ok, spectra=spectra,
    )
