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
    ConvergenceError,
    FormationForgeError,
    FormulaDomainError,
    InfeasibleLengthsError,
    SingularityError,
)
from .graph import two_cycles
from .numkernel import Spectrum, eigenvalues, fd_jacobian, left_nullspace, newton_root
from .numkernel import squared_lengths
from .rigidity import (
    Framework,
    TargetLengths,
    edge_errors,
    edge_vectors,
    edges_aligned,
    realize_two_cycles,
)

RECORD_KINDS = ("design", "ancillary_aligned", "ancillary_collinear", "ancillary_other")

# The settings every classification and solve in this module runs with.
TOL_ZERO = 1e-6  # stability margin, relative to the spectral radius
DESIGN_TOL = 1e-8  # edge-error, collinearity and alignment tolerance of classify_kind
RESIDUAL_TOL = 1e-9  # largest field residual accepted as an equilibrium
NEWTON_TOL = 1e-11  # residual at which the census and aligned solves stop
CENSUS_MAX_ITER = 80
CENSUS_COLLINEAR_SEEDS = 24
ALIGNED_SCAN_STEPS = 64  # scan steps along each aligned path; even, so the top is a sample
SCALAR_SEEDS = 41

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
    """The census records and the verdicts read off them."""

    records: tuple[EquilibriumRecord, ...]
    dropped_seeds: int = 0

    @property
    def feasible(self):
        """Whether a design equilibrium was found."""
        return any(r.kind == "design" for r in self.records)

    @property
    def almost_surely_stable(self):
        """Whether every stable equilibrium is a design one."""
        return all(r.kind == "design" for r in self.records if r.stable)

    @property
    def index_sum(self):
        """Sum of the indices of the hyperbolic equilibria."""
        return sum(r.index for r in self.records if r.index is not None)

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
    translations = np.tile(np.eye(2), (pts.shape[0], 1))
    rot = np.column_stack([-pts[:, 1], pts[:, 0]]).ravel()
    return left_nullspace(np.column_stack([translations, rot]), 1e-12)


def _gauge_jacobian(b: VectorFieldBundle, f: Framework):
    fx = eval_F_x(b, f.x.ravel())
    residual = float(np.max(np.abs(fx)))
    if residual > RESIDUAL_TOL:
        raise FormulaDomainError(
            f"gauge-fixed linearization requires an equilibrium; residual {residual:.3e}"
        )
    jac = fd_jacobian(lambda v: eval_F_x(b, v), f.x.ravel())
    basis = gauge_slice_basis(f.x)
    return basis.T @ jac @ basis, residual


def gauge_fixed_spectrum(b: VectorFieldBundle, f: Framework):
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
    m, _ = _gauge_jacobian(b, f)
    return eigenvalues(m)


def poincare_index(b: VectorFieldBundle, f: Framework):
    """Sign of the gauge-slice Jacobian determinant at a hyperbolic equilibrium."""
    index = equilibrium_record(b, f).index
    if index is None:
        raise SingularityError(
            "poincare index is undefined at a non-hyperbolic equilibrium "
            f"(an eigenvalue real part is within {TOL_ZERO:g} of zero, relative)"
        )
    return index


def classify_kind(b: VectorFieldBundle, f: Framework):
    """Assign a census kind by priority: design, collinear, aligned, other."""
    errs = edge_errors(f, b.lengths)
    if float(np.max(np.abs(errs))) <= DESIGN_TOL:
        return "design"
    z = edge_vectors(f).z
    svals = np.linalg.svd(z, compute_uv=False)
    if svals[0] <= DESIGN_TOL or (len(svals) > 1 and svals[1] <= DESIGN_TOL * svals[0]):
        return "ancillary_collinear"
    if (
        z.shape[0] >= 5
        and edges_aligned(z[0], z[4], DESIGN_TOL)
        and float(np.max(np.abs(errs[1:4]))) <= DESIGN_TOL
    ):
        return "ancillary_aligned"
    return "ancillary_other"


def equilibrium_record(b: VectorFieldBundle, f: Framework):
    """Classify an equilibrium and attach its gauge-fixed spectrum and index."""
    m, residual = _gauge_jacobian(b, f)
    spec = eigenvalues(m)
    if spec.is_hyperbolic(TOL_ZERO):
        sign, _ = np.linalg.slogdet(m)
        index = int(round(sign))
    else:
        index = None
    return EquilibriumRecord(
        framework=f,
        kind=classify_kind(b, f),
        spectrum_gauge=spec,
        index=index,
        stable=spec.is_stable(TOL_ZERO),
        residual=residual,
    )


def _aligned_triangle(d, a):
    """Agent 3's abscissa and height with agents 1 and 2 at 0 and ``a``.

    This is the domain of :func:`aligned_root_near`: None where ``a <= 1e-9``
    (the scan's bound too) or the circles of radii ``sqrt(d3)`` and
    ``sqrt(d2)`` about them do not meet.
    """
    if a <= 1e-9:
        return None
    alpha = (a * a + d[2] - d[1]) / (2.0 * a)
    beta_sq = d[2] - alpha * alpha
    if beta_sq < 0.0:
        return None
    return alpha, math.sqrt(beta_sq)


def _aligned_positions(d, a, bb, sigma):
    triangle = _aligned_triangle(d, a)
    if triangle is None:
        return None
    alpha, beta = triangle
    return np.array([[0.0, 0.0], [a, 0.0], [alpha, sigma * beta], [bb, 0.0]])


def _aligned_residual(b, d, a, bb, sigma):
    """The fourth edge's weight and the force balance on agent 1; NaN off-domain."""
    x = _aligned_positions(d, a, bb, sigma)
    if x is None:
        return np.full(2, np.nan)
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
    triangle = _aligned_triangle(d, a)
    if triangle is None:
        return None
    alpha, beta = triangle
    gap = alpha - bb
    s2 = [a * a, gap * gap + beta * beta, bb * bb]
    dk = [d[0], d[3], d[4]]
    u = [law.weight(dk_i, s2_i) for dk_i, s2_i in zip(dk, s2)]
    du = weight_slopes(law, dk, s2)
    dalpha = 0.5 - (d[2] - d[1]) / (2.0 * a * a)
    res = np.array([u[1], u[0] * a + u[2] * bb])
    jac = np.array([
        [-2.0 * bb * dalpha * du[1], 2.0 * (bb - alpha) * du[1]],
        [u[0] + 2.0 * s2[0] * du[0], u[2] + 2.0 * s2[2] * du[2]],
    ])
    return res, jac


def aligned_root_near(b, a0, b0, sigma):
    """The aligned equilibrium :func:`newton_root` reaches from ``(a0, b0)``, or None.

    The unknowns are agent 2's and agent 4's positions on the line through
    agent 1, agent 3 on mirror ``sigma``; the residual is the fourth edge's
    weight and agent 1's balance, with :func:`_aligned_system`'s closed-form
    Jacobian for separable laws and central differences for coupled pairs.
    The root is verified to be an equilibrium of the full flow.
    """
    d = b.lengths.d
    if b.law.separable:

        def system(v):
            found = _aligned_system(b.law, d, float(v[0]), float(v[1]), sigma)
            return found or (np.full(2, np.nan), None)

        fun, jac = (lambda v: system(v)[0]), (lambda v: system(v)[1])
    else:
        fun, jac = (lambda v: _aligned_residual(b, d, v[0], v[1], sigma)), None
    try:
        root = newton_root(
            fun, np.array([a0, b0], dtype=float),
            max_iter=CENSUS_MAX_ITER, tol=NEWTON_TOL, jac=jac,
        ).x
    except ConvergenceError:
        return None
    # a finite converged residual puts the root inside the domain
    fw = Framework(graph=b.graph, x=_aligned_positions(d, float(root[0]), float(root[1]), sigma))
    if float(np.max(np.abs(eval_F_x(b, fw.x)))) > RESIDUAL_TOL:
        return None
    return fw


def aligned_parameters(f: Framework):
    """Recover the (a, b, sigma) aligned parametrization from a framework.

    Assumes the framework is in canonical gauge with agents 1, 2, 4 on
    the x axis, the gauge every aligned solution is produced in.
    """
    x = f.x - f.x[0]
    return float(x[1, 0]), float(x[3, 0]), 1.0 if x[2, 1] >= 0.0 else -1.0


def solve_ancillary_aligned(b: VectorFieldBundle):
    """Every equilibrium whose first and fifth edge vectors are parallel.

    Agents 1, 2 and 4 lie on a line, at 0, ``a > 0`` and ``b``. With edges
    2 to 4 at their targets, agent 3 stands at a height ``h`` over the line
    and its legs to agents 2, 1 and 4 span ``w_i = +-sqrt(d_i - h^2)`` along
    it. For ``r`` the shortest leg, ``h = r cos(phi)`` and that leg's
    ``w = r sin(phi)`` with ``phi`` in ``[-pi/2, pi/2]``; the signs of the
    other two ``w`` give four paths that cover the curve, none folding in
    ``phi``. An equilibrium on it is a zero of agent 1's balance
    ``g = u1 a + u5 b``, weighted by ``law.pair_weights`` at ``s = a b``, so
    every law takes this route. Each path is sampled at
    ``ALIGNED_SCAN_STEPS + 1`` even steps of ``phi``; an inner sample with
    ``g == 0`` is a root, and each sign change is bisected to adjacent
    floats. Roots that pass the full field's residual check are returned,
    then their mirror images, which negate agent 3's height exactly.
    """
    if b.graph.edges != two_cycles().edges:
        raise ConfigurationError("the aligned solver is specific to the two-cycles graph")
    d = b.lengths.d
    legs = (d[1], d[2], d[3])  # squared legs from agent 3 to agents 2, 1 and 4
    top = min(range(3), key=legs.__getitem__)
    r = math.sqrt(legs[top])
    rest = [leg - legs[top] for leg in legs]

    def place(phi, signs):
        """``(a, alpha, h, b)``: agents 2, 3 and 4 at ``phi`` on one path."""
        w_top = r * math.sin(phi)
        w = [s * math.sqrt(extra + w_top * w_top) for s, extra in zip(signs, rest)]
        w[top] = w_top
        return w[1] + w[0], w[1], r * math.cos(phi), w[1] + w[2]

    def balance(point):
        a, _, _, bb = point
        u1, u5 = b.law.pair_weights((d[0], d[4]), (a * a, bb * bb), a * bb)
        return u1 * a + u5 * bb

    phis = [math.pi * (j / ALIGNED_SCAN_STEPS - 0.5) for j in range(ALIGNED_SCAN_STEPS + 1)]
    roots = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            signs = [s1, s2]
            signs.insert(top, 1.0)
            g = [balance(place(phi, signs)) for phi in phis]
            for j in range(ALIGNED_SCAN_STEPS):
                if g[j] == 0.0:
                    if j > 0:  # phi = -pi/2 puts agent 3 on the line
                        roots.append(place(phis[j], signs))
                elif g[j + 1] != 0.0 and (g[j] < 0.0) != (g[j + 1] < 0.0):
                    lo, hi = (phis[j], g[j]), (phis[j + 1], g[j + 1])
                    while lo[0] < (mid := 0.5 * (lo[0] + hi[0])) < hi[0]:
                        g_mid = balance(place(mid, signs))
                        if (g_mid < 0.0) == (lo[1] < 0.0):
                            lo = (mid, g_mid)
                        else:
                            hi = (mid, g_mid)
                    phi = min(lo, hi, key=lambda pg: abs(pg[1]))[0]
                    roots.append(place(phi, signs))
    # dict.fromkeys: paths whose top legs tie share their top sample
    kept = [root for root in dict.fromkeys(roots) if root[0] > 1e-9]
    records = []
    for mirror in (1.0, -1.0):
        for a, alpha, h, bb in kept:
            x = np.array([[0.0, 0.0], [a, 0.0], [alpha, mirror * h], [bb, 0.0]])
            if float(np.max(np.abs(eval_F_x(b, x)))) <= RESIDUAL_TOL:
                records.append(equilibrium_record(b, Framework(graph=b.graph, x=x)))
    return records


def _collinear_line_equilibria(b, rng, span):
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
    for _ in range(CENSUS_COLLINEAR_SEEDS):
        p0 = rng.uniform(-span, span, n)
        try:
            root = newton_root(
                line_field, p0, max_iter=CENSUS_MAX_ITER, tol=NEWTON_TOL, jac=line_jacobian
            ).x
        except ConvergenceError:
            continue
        found.append(np.column_stack([root, np.zeros(n)]))
    return found


def census(b: VectorFieldBundle, n_random=200, seed=0, dedupe_tol=1e-6):
    """Find, polish, deduplicate, and classify equilibria of the flow.

    Seeds come from the closed-form design realizations, every aligned
    equilibrium (:func:`solve_ancillary_aligned`), random collinear lines,
    and random frameworks drawn uniformly from a square sized to the
    targets. Non-convergent seeds are counted, not raised. Identical seeds
    and tolerances give an identical report.
    """
    rng = np.random.default_rng(seed)
    span = 2.0 * float(np.max(np.sqrt(b.lengths.as_array())))
    seeds = []
    if b.graph.edges == two_cycles().edges:
        try:
            seeds.extend(fw.x for fw in design_frameworks(b.graph, b.lengths))
        except InfeasibleLengthsError:
            pass
        for rec in solve_ancillary_aligned(b):
            seeds.append(rec.framework.x)
    seeds.extend(_collinear_line_equilibria(b, rng, span))
    seeds.extend(rng.uniform(-span, span, (b.graph.n, 2)) for _ in range(n_random))

    records = []
    dropped = 0
    for s in seeds:
        try:
            root = newton_root(
                lambda v: eval_F_x(b, v), np.asarray(s, dtype=float).ravel(),
                max_iter=CENSUS_MAX_ITER, tol=NEWTON_TOL, jac=lambda v: jacobian_x(b, v),
            ).x
        except ConvergenceError:
            dropped += 1
            continue
        fw = Framework(graph=b.graph, x=root.reshape(b.graph.n, 2))
        gauged = canonical_gauge(fw)
        if any(np.max(np.abs(gauged.x - r.framework.x)) <= dedupe_tol for r in records):
            continue
        records.append(equilibrium_record(b, gauged))
    return CensusReport(records=tuple(records), dropped_seeds=dropped)


def scalar_census(f, design_values, fprime=None):
    """Census of a one-dimensional flow ``xdot = f(x)``.

    The taxonomy and verdicts match the planar census: ``design_values``
    play the role of the target configurations, every other root is
    ancillary, and the almost-sure-stability verdict asks whether every
    stable root is a design one. Newton runs from ``SCALAR_SEEDS`` evenly
    spaced seeds on 2.5 times the largest design value (at least 1) either
    side of zero.
    """
    design = [float(v) for v in design_values]
    scale = max([1.0] + [abs(v) for v in design])
    roots = []
    for x0 in np.linspace(-2.5 * scale, 2.5 * scale, SCALAR_SEEDS):
        try:
            root = float(newton_root(f, float(x0), max_iter=60, tol=1e-12).x)
        except ConvergenceError:
            continue
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
    return CensusReport(records=tuple(records))


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
    qual_stable = classes[i_st].is_stable()
    qual_unstable = classes[i_un].unstable_count(TOL_ZERO) == 1
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
