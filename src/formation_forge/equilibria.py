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
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .dynamics import (
    BUILTIN_LAW_NAMES,
    VectorFieldBundle,
    builtin_law,
    eval_F_x,
    jacobian_x,
    weight_slopes,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    FormulaDomainError,
    InfeasibleLengthsError,
)
from .graph import two_cycles
from .numkernel import (
    FD_STEP, NULLSPACE_TOL, Spectrum, eigenvalues, fd_jacobian, left_nullspace, newton_root,
)
from .rigidity import (
    DESIGN_TOL,
    Framework,
    TargetLengths,
    aligned_framework,
    edge_errors,
    edge_vectors,
    edges_aligned,
    realize_two_cycles,
    within_design_tol,
)

RECORD_KINDS = ("design", "ancillary_aligned", "ancillary_collinear", "ancillary_other")

# The settings every classification and solve in this module runs with.
RESIDUAL_TOL = 1e-9  # largest field residual accepted as an equilibrium
NEWTON_TOL = 1e-11  # residual at which the census and aligned solves stop
CENSUS_MAX_ITER = 80
DEDUPE_TOL = 1e-6  # largest position gap at which two census records count as one
ALIGNED_SCAN_STEPS = 64  # scan steps along each aligned path; even, so the top is a sample
# Agent 2's abscissa a must exceed this on an aligned path. a is the first
# edge's length and divides agent 3's abscissa (a^2 + d3 - d2) / (2 a), so
# the bound keeps agents 1 and 2 apart and agent 2 on the gauge's +x side.
ALIGNED_MIN_GAP = 1e-9
CONVENTION_TOL = 0.15  # largest spectrum deviation of a quantitative convention match

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
    sign of the determinant carries no topological meaning.
    """

    framework: Framework
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


def canonical_gauge(f: Framework):
    """Translate the first agent to the origin and rotate the first edge to +x.

    Degenerate frameworks whose first edge vanishes fall back to the first
    nonzero edge; a fully superposed framework is only translated.
    Reflections are deliberately not quotiented, so mirror-image
    frameworks stay distinct.
    """
    x = f.x - f.x[0]
    fw = f.with_positions(x)
    z = edge_vectors(fw)
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

    The directions are the 2n-by-3 matrix with rows ``(1, 0, -y_k)`` and
    ``(0, 1, x_k)`` for agent k. ``x`` is one state, flat (2n) or as rows
    (n, 2); a stack of states as rows, a 3-d array, gives a list of bases
    from one stacked SVD, each with the bits of its state's basis alone.
    """
    pts = np.asarray(x, dtype=float)
    if pts.ndim != 3:
        return gauge_slice_basis(pts.reshape(1, -1, 2))[0]
    rows = np.zeros(pts.shape + (3,))
    rows[:, :, 0, 0] = rows[:, :, 1, 1] = 1.0
    rows[:, :, 0, 2] = -pts[:, :, 1]
    rows[:, :, 1, 2] = pts[:, :, 0]
    return left_nullspace(rows.reshape(len(pts), -1, 3), NULLSPACE_TOL)


def _flow_jacobians(pairs):
    """Central-difference Jacobians of the flow at each pair's framework, as an (N, 2n, 2n) stack.

    The pairs share one graph and law. Column j of a Jacobian is
    :func:`~.numkernel.fd_jacobian`'s, with its step ``FD_STEP * max(|x_j|,
    1)`` and its quotient ``(p - m) / (2 step)``, entry for entry on arrays.
    The 2 * 2n stepped states of every framework go through one call of
    the bundle's :meth:`~.dynamics.VectorFieldBundle.array_flow`, each
    state with its own bundle's targets. A law without an array kernel
    takes :func:`~.numkernel.fd_jacobian` of each bundle's scalar ``flow``.
    """
    b = pairs[0][0]
    n2 = 2 * b.graph.n
    x = np.array([f.x for _, f in pairs]).reshape(len(pairs), n2)
    d = np.empty((b.graph.m, 2) + x.shape)  # [edge, sign, framework, stepped coordinate]
    d[:] = np.array([pb.lengths.d for pb, _ in pairs]).T[:, None, :, None]
    flow = b.array_flow(list(d.reshape(b.graph.m, -1)))
    if flow is None:
        return np.array([fd_jacobian(pb.flow, f.x) for pb, f in pairs])
    steps = FD_STEP * np.maximum(np.abs(x), 1.0)
    # coordinate c of the state that steps coordinate j of framework p by sign s: [c, s, p, j]
    states = np.empty((n2, 2) + x.shape)
    states[:] = x.T[:, None, :, None]
    j = np.arange(n2)
    states[j, 0, :, j] = (x + steps).T
    states[j, 1, :, j] = (x - steps).T
    states = states.reshape(n2, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # the float kernel's silence
        values = np.empty_like(states)
        for row, v in zip(values, flow(list(states))):
            row[:] = v  # v is the scalar 0.0 for an agent that observes nobody
        plus, minus = values.reshape(n2, 2, *x.shape).transpose(1, 2, 0, 3)
        return np.ascontiguousarray((plus - minus) / (2.0 * steps[:, None, :]))


class EquilibriumBatch:
    """Equilibria of one graph and law, gathered for one pass of gauge-fixed spectra.

    ``add(b, f)`` checks that framework ``f`` is an equilibrium of bundle
    ``b``, the package's one equilibrium test: the largest entry of
    :func:`eval_F_x` must be at most ``RESIDUAL_TOL`` (a NaN is not), or
    :class:`FormulaDomainError` is raised and nothing is added. Callers
    that skip non-equilibria catch it. ``add`` returns the equilibrium's
    index, its place in ``pairs``, ``residuals``, ``spectra()`` and
    ``records()``, which hold what was added, in order. A framework of
    another graph than its bundle's, a bundle of another graph or law than
    the batch's, and a graph with no edges are each a
    :class:`ConfigurationError`.

    ``spectra()`` returns each equilibrium's spectrum on the gauge slice.
    The rigid directions lie in the kernel at any equilibrium, so the full
    spectrum is exactly the slice spectrum plus the structural zeros;
    restricting first avoids having to tell a genuinely small eigenvalue
    apart from a symmetry zero. Each gauge matrix is ``basis.T @ jac @
    basis``, ``jac`` from :func:`_flow_jacobians` and ``basis`` from one
    stacked :func:`gauge_slice_basis`; the matrices of each slice size are
    multiplied and their eigenvalues taken as one stack, so each spectrum
    has the bits of the same steps on its framework alone, and the pass's
    fixed cost is that of a single spectrum: gather every framework first.
    ``jac`` is the central-difference Jacobian with :func:`fd_jacobian`'s
    steps, not the closed form :func:`jacobian_x` the solvers use. The two
    differ by about 1e-9 relative, enough to move printed spectra past
    their pinned tolerance; where two agents coincide, the difference
    quotient straddles the kink of a zero-length plain-law edge and is off
    by its step. Moving spectra to the closed form changes published numbers.

    ``records()`` returns each equilibrium's :class:`EquilibriumRecord`.
    The index of a hyperbolic equilibrium is the sign of the gauge matrix's
    determinant, read off its spectrum: conjugate pairs multiply to a
    positive number, so the sign is -1 to the number of real negative
    eigenvalues. Off hyperbolicity it is None.
    """

    def __init__(self):
        self.pairs = []
        self.residuals = []

    def add(self, b, f):
        if not b.graph.m:
            raise ConfigurationError("a batch needs a graph with at least one edge")
        if f.graph != b.graph:
            raise ConfigurationError("a framework's graph must be its bundle's")
        if self.pairs and (b.graph, b.law) != (self.pairs[0][0].graph, self.pairs[0][0].law):
            raise ConfigurationError("a batch holds the equilibria of one graph and one law")
        residual = float(np.abs(eval_F_x(b, f.x.ravel())).max())
        if not residual <= RESIDUAL_TOL:  # a NaN residual is no equilibrium either
            raise FormulaDomainError(
                f"gauge-fixed linearization requires an equilibrium; residual {residual:.3e}"
            )
        self.pairs.append((b, f))
        self.residuals.append(residual)
        return len(self.pairs) - 1

    def spectra(self):
        if not self.pairs:
            return []
        jacs = _flow_jacobians(self.pairs)
        bases = gauge_slice_basis(np.array([f.x for _, f in self.pairs]))
        by_size = {}
        for i, basis in enumerate(bases):
            by_size.setdefault(basis.shape[1], []).append(i)
        spectra = [None] * len(self.pairs)
        for ks in by_size.values():
            basis = np.array([bases[k] for k in ks])
            for k, spec in zip(ks, eigenvalues(np.swapaxes(basis, 1, 2) @ jacs[ks] @ basis)):
                spectra[k] = spec
        return spectra

    def records(self):
        records = []
        for (b, f), spec, residual in zip(self.pairs, self.spectra(), self.residuals):
            negative = sum(1 for v in spec.values if v.imag == 0.0 and v.real < 0.0)
            records.append(EquilibriumRecord(
                framework=f, kind=classify_kind(b, f), spectrum_gauge=spec,
                index=(-1) ** negative if spec.is_hyperbolic() else None,
                stable=spec.is_stable(), residual=residual,
            ))
        return records


def classify_kind(b: VectorFieldBundle, f: Framework):
    """Assign a census kind by priority: design, collinear, aligned, other.

    Aligned: some pair of the graph's ``pairs`` is parallel and every other edge meets
    its target (never an empty set: an aligned pair that is every edge is collinear).
    """
    errs = edge_errors(f, b.lengths, b.law.convention)
    if within_design_tol(errs):
        return "design"
    z = edge_vectors(f)
    svals = np.linalg.svd(z, compute_uv=False)
    if svals[0] <= DESIGN_TOL or (len(svals) > 1 and svals[1] <= DESIGN_TOL * svals[0]):
        return "ancillary_collinear"
    for i, j in b.matrices["pairs"]:
        if edges_aligned(z[i], z[j], DESIGN_TOL) and within_design_tol(np.delete(errs, (i, j))):
            return "ancillary_aligned"
    return "ancillary_other"


def _aligned_triangle(d, a):
    """Agent 3's abscissa and height with agents 1 and 2 at 0 and ``a``.

    This is the domain of :func:`aligned_root_near`: None where ``a`` is at
    most ``ALIGNED_MIN_GAP`` (the scan's bound too) or the circles of radii
    ``sqrt(d3)`` and ``sqrt(d2)`` about them do not meet.
    """
    if a <= ALIGNED_MIN_GAP:
        return None
    alpha = (a * a + d[2] - d[1]) / (2.0 * a)
    beta_sq = d[2] - alpha * alpha
    if beta_sq < 0.0:
        return None
    return alpha, math.sqrt(beta_sq)


def _agent1_pair(law, d, a, bb):
    """Agent 1's ``law.pair_weights`` at ``s = a b`` and its balance ``u1 a + u5 b``."""
    u1, u5 = law.pair_weights((d[0], d[4]), (a * a, bb * bb), a * bb)
    return u1, u5, u1 * a + u5 * bb


def _aligned_residual(law, d, a, bb):
    """The fourth edge's weight and the force balance on agent 1, or None.

    Evaluated straight from the parameters: only edges 1, 4 and 5 enter,
    with squared lengths ``a^2``, ``(alpha - b)^2 + beta^2`` and ``b^2``
    summed as the edge vectors' components would be, and agent 1's pair
    read through ``law.pair_weights`` at ``s = a b`` as :func:`edge_weights`
    reads it, so the residual matches the route through the framework bit
    for bit under every law. The residual is a pair of floats; None is
    returned where agent 3 cannot be placed.
    """
    triangle = _aligned_triangle(d, a)
    if triangle is None:
        return None
    alpha, beta = triangle
    gap = alpha - bb
    return law.weight(d[3], gap * gap + beta * beta), _agent1_pair(law, d, a, bb)[2]


def _aligned_jacobian(law, d, a, bb):
    """The closed-form Jacobian of :func:`_aligned_residual` in ``(a, b)``.

    Only for separable laws. With ``beta^2 = d_3 - alpha^2`` the fourth
    length is ``b^2 - 2 alpha b + d_3``, which depends on ``a`` only through
    ``alpha(a)``. None where agent 3 cannot be placed, where the residual
    is NaN and Newton stops before reading it.
    """
    triangle = _aligned_triangle(d, a)
    if triangle is None:
        return None
    alpha, beta = triangle
    gap = alpha - bb
    s2 = [a * a, gap * gap + beta * beta, bb * bb]
    u1, u5, _ = _agent1_pair(law, d, a, bb)
    du = weight_slopes(law, [d[0], d[3], d[4]], s2)
    dalpha = 0.5 - (d[2] - d[1]) / (2.0 * a * a)
    return np.array([
        [-2.0 * bb * dalpha * du[1], 2.0 * (bb - alpha) * du[1]],
        [u1 + 2.0 * s2[0] * du[0], u5 + 2.0 * s2[2] * du[2]],
    ])


def aligned_root_near(b, a0, b0, sigma):
    """The aligned equilibrium :func:`newton_root` reaches from ``(a0, b0)``, or None.

    The unknowns are agent 2's and agent 4's positions on the line through
    agent 1, agent 3 on mirror ``sigma``; the residual is
    :func:`_aligned_residual`'s, the fourth edge's weight and agent 1's
    balance, for every law. Newton's line search evaluates only the
    residual; separable laws get :func:`_aligned_jacobian` at each step,
    and coupled pairs get newton_root's central differences of the
    residual. Whether the root is an equilibrium of the full flow is left
    to the caller.
    """
    law, d = b.law, b.lengths.d

    def residual(v):
        return _aligned_residual(law, d, v[0], v[1]) or (math.nan, math.nan)

    jac = (lambda v: _aligned_jacobian(law, d, v[0], v[1])) if law.separable else None
    try:
        a, bb = newton_root(residual, [a0, b0], max_iter=CENSUS_MAX_ITER,
                            tol=NEWTON_TOL, jac=jac).x.tolist()
    except ConvergenceError:
        return None
    alpha, beta = _aligned_triangle(d, a)  # a finite converged residual puts a inside the domain
    return aligned_framework(b.graph, a, alpha, sigma * beta, bb)


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
    then their mirror images, which negate agent 3's height exactly, as
    records from one :class:`EquilibriumBatch`.
    """
    if b.graph != two_cycles():
        raise ConfigurationError("the aligned solver is specific to the two-cycles graph")
    d = b.lengths.d
    legs = (d[1], d[2], d[3])  # squared legs from agent 3 to agents 2, 1 and 4
    top = min(range(3), key=legs.__getitem__)
    r = math.sqrt(legs[top])
    rest = [leg - legs[top] for leg in legs]

    def spans(phi, signs):
        """The legs' spans ``w`` along the line at ``phi`` on one path."""
        w_top = r * math.sin(phi)
        w = [s * math.sqrt(extra + w_top * w_top) for s, extra in zip(signs, rest)]
        w[top] = w_top
        return w

    def place(phi, signs):
        """``(a, alpha, h, b)``: agents 2, 3 and 4 at ``phi`` on one path."""
        w = spans(phi, signs)
        return w[1] + w[0], w[1], r * math.cos(phi), w[1] + w[2]

    def balance(phi, signs):
        """Agent 1's balance at ``phi``, from ``a`` and ``b`` alone."""
        w = spans(phi, signs)
        return _agent1_pair(b.law, d, w[1] + w[0], w[1] + w[2])[2]

    phis = [math.pi * (j / ALIGNED_SCAN_STEPS - 0.5) for j in range(ALIGNED_SCAN_STEPS + 1)]
    roots = []
    for s1 in (1.0, -1.0):
        for s2 in (1.0, -1.0):
            signs = [s1, s2]
            signs.insert(top, 1.0)
            g = [balance(phi, signs) for phi in phis]
            for j in range(ALIGNED_SCAN_STEPS):
                if g[j] == 0.0:
                    if j > 0:  # phi = -pi/2 puts agent 3 on the line
                        roots.append(place(phis[j], signs))
                elif g[j + 1] != 0.0 and (g[j] < 0.0) != (g[j + 1] < 0.0):
                    lo, hi = (phis[j], g[j]), (phis[j + 1], g[j + 1])
                    while lo[0] < (mid := 0.5 * (lo[0] + hi[0])) < hi[0]:
                        g_mid = balance(mid, signs)
                        if (g_mid < 0.0) == (lo[1] < 0.0):
                            lo = (mid, g_mid)
                        else:
                            hi = (mid, g_mid)
                    phi = min(lo, hi, key=lambda pg: abs(pg[1]))[0]
                    roots.append(place(phi, signs))
    # dict.fromkeys: paths whose top legs tie share their top sample
    kept = [root for root in dict.fromkeys(roots) if root[0] > ALIGNED_MIN_GAP]
    batch = EquilibriumBatch()
    for mirror in (1.0, -1.0):
        for a, alpha, h, bb in kept:
            try:
                batch.add(b, aligned_framework(b.graph, a, alpha, mirror * h, bb))
            except FormulaDomainError:  # not an equilibrium of the full flow
                pass
    return batch.records()


def census(b: VectorFieldBundle, n_random, seed):
    """Gather, deduplicate and classify the flow's equilibria.

    On two-cycles the closed-form design realizations and every aligned
    equilibrium (:func:`solve_ancillary_aligned`) enter as built, designs
    first; a design whose field residual exceeds ``RESIDUAL_TOL`` is
    counted as dropped. Then Newton runs on :attr:`VectorFieldBundle.flow`
    with :func:`jacobian_x`, the graph's compiled kernel on Python floats,
    from ``n_random`` frameworks drawn by
    :meth:`VectorFieldBundle.random_start` from ``default_rng(seed)``;
    its roots enter in canonical gauge, and a non-convergent draw is
    counted, not raised. A record within ``DEDUPE_TOL`` of an earlier one
    is skipped. The designs' and the roots' spectra come from one
    :class:`EquilibriumBatch`, the aligned records' from the solver's.
    Identical bundles and seeds give an identical report. A graph with no
    edges is a :class:`ConfigurationError`.
    """
    if not b.graph.m:
        raise ConfigurationError("a census needs a graph with at least one edge")
    dropped = 0
    batch = EquilibriumBatch()  # the designs, then the random roots
    kept = []  # the positions of the report's records, in record order
    design_ks, root_ks = [], []  # the records' indices in the batch
    aligned = []

    def admit(x):
        """Whether positions ``x`` are a new record, which they then are."""
        new = all(np.max(np.abs(x - y)) > DEDUPE_TOL for y in kept)
        if new:
            kept.append(x)
        return new

    if b.graph == two_cycles():
        try:
            designs = realize_two_cycles(b.graph, b.lengths)
        except InfeasibleLengthsError:
            designs = []
        for fw in designs:
            try:  # at large targets rounding can leave a realization short of RESIDUAL_TOL
                k = batch.add(b, fw)
            except FormulaDomainError:
                dropped += 1
                continue
            if admit(fw.x):
                design_ks.append(k)
        aligned = [rec for rec in solve_ancillary_aligned(b) if admit(rec.framework.x)]

    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        try:
            root = newton_root(
                b.flow, b.random_start(rng).ravel(),
                max_iter=CENSUS_MAX_ITER, tol=NEWTON_TOL, jac=lambda v: jacobian_x(b, v),
            ).x
        except ConvergenceError:
            dropped += 1
            continue
        gauged = canonical_gauge(Framework(graph=b.graph, x=root.reshape(b.graph.n, 2)))
        if admit(gauged.x):
            root_ks.append(batch.add(b, gauged))
    made = batch.records()
    records = [made[k] for k in design_ks] + aligned + [made[k] for k in root_ks]
    return CensusReport(records=tuple(records), dropped_seeds=dropped)


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
    feasible: bool = False
    deviations: dict = field(default_factory=dict)
    quantitative_ok: bool = False
    qualitative_ok: bool = False
    spectra: dict = field(default_factory=dict)

    @property
    def worst_deviation(self):
        return max(self.deviations.values(), default=float("inf"))


@dataclass(frozen=True, eq=False)
class ConventionReport:
    candidates: tuple[ConventionCandidate, ...]
    best: ConventionCandidate


def identify_convention(values=BENCHMARK_LENGTHS, published=None):
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
    within ``CONVENTION_TOL`` and qualitatively when the stability pattern matches
    the references (one stable design class, one design class with exactly
    one unstable direction, a stable aligned equilibrium).

    A no-match outcome is valid: the best candidate is still returned
    with its flags down.
    """
    if published is None:
        published = BENCHMARK_SPECTRA
    graph = two_cycles()
    candidates = []
    for law_name in BUILTIN_LAW_NAMES:
        law = builtin_law(law_name, 1.0)
        for interpretation in ("plain_values", "squared_values"):
            base = [float(v) for v in values]
            stored = [v * v for v in base] if interpretation == "plain_values" else base
            for leg_order in ("given", "swapped_pair"):
                d = list(stored)
                if leg_order == "swapped_pair":
                    d[3], d[4] = d[4], d[3]
                candidates.append(
                    _score_candidate(graph, law, law_name, interpretation, leg_order, d, published)
                )
    ranked = sorted(
        candidates,
        key=lambda c: (not c.quantitative_ok, not c.qualitative_ok, c.worst_deviation),
    )
    return ConventionReport(candidates=tuple(candidates), best=ranked[0])


def _score_candidate(graph, law, law_name, interpretation, leg_order, d, published):
    try:
        lengths = TargetLengths(d=tuple(d))
        bundle = VectorFieldBundle(graph=graph, law=law, lengths=lengths)
        frameworks = realize_two_cycles(graph, lengths)
    except (InfeasibleLengthsError, ConfigurationError):
        return ConventionCandidate(law_name, interpretation, leg_order)
    batch = EquilibriumBatch()
    for fw in frameworks:
        batch.add(bundle, fw)
    specs = batch.spectra()
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

    dev_a, aligned_spec, aligned_stable = float("inf"), None, False
    for rec in aligned:
        dev = _chebyshev_multiset(rec.spectrum_gauge.values, published["aligned"])
        if dev < dev_a or (dev == dev_a and rec.stable and not aligned_stable):
            dev_a = dev
            aligned_spec = rec.spectrum_gauge
            aligned_stable = rec.stable

    deviations = {"design_stable": dev_s, "design_unstable": dev_u, "aligned": dev_a}
    quantitative_ok = all(v <= CONVENTION_TOL for v in deviations.values())
    qual_stable = classes[i_st].is_stable()
    qual_unstable = classes[i_un].unstable_count() == 1
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
