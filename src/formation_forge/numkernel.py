"""Dense linear algebra and small-scale numerics.

Everything here works on ``numpy`` arrays a few dozen entries across, or
on lists of Python floats where that is cheaper (Newton, finite
differences, the integrator). LAPACK does the heavy lifting (eigenvalues,
singular values, least squares) through numpy; this module pins down the
conventions the rest of the package relies on: eigenvalue ordering,
rank/null-space tolerances, finite-difference step policies, and a
fixed-step integrator whose output is bit-reproducible.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import (
    BlowUpError,
    ConfigurationError,
    ConvergenceError,
    DimensionError,
)

FD_STEP = 1e-6  # central-difference step of fd_jacobian, scaled by the coordinate
FD_SECOND_STEP = 1e-4  # second-difference step, scaled by the largest coordinate
NULLSPACE_TOL = 1e-12  # the package's null-space rank cut, relative to the largest singular value
# The package's one stability rule, Spectrum's: a real part counts as negative or positive
# only beyond TOL_ZERO times the spectral radius (floored at 1e-300), so a leading real part
# within it of zero, as beside the singular set, is not stable. A drawn singular member's
# sweep puts design points at ratios -7.8e-7 and -1.05e-6, one on each side.
TOL_ZERO = 1e-6


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real matrix, descending by real part then imaginary part."""

    values: tuple[complex, ...]

    @property
    def leading_real(self):
        """Largest real part; the decisive quantity for linear stability."""
        return max(v.real for v in self.values)

    @property
    def spectral_radius(self):
        return max((abs(v) for v in self.values), default=0.0)

    def _margin(self):
        return TOL_ZERO * max(self.spectral_radius, 1e-300)

    def is_stable(self):
        margin = self._margin()
        return all(v.real < -margin for v in self.values)

    def is_hyperbolic(self):
        margin = self._margin()
        return all(abs(v.real) > margin for v in self.values)

    def unstable_count(self):
        margin = self._margin()
        return sum(1 for v in self.values if v.real > margin)

    @classmethod
    def from_values(cls, values):
        """Sort ``values``, a sequence, read as Python complex numbers."""
        vals = [complex(v) for v in values]
        vals.sort(key=lambda c: (-c.real, -c.imag))
        return cls(tuple(vals))


def _finite(a):
    # count_nonzero: isfinite(a).all() makes the same decision at twice the cost
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise DimensionError("matrix entries must be finite")
    return a


def _as_matrix(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    return _finite(a)


def eigenvalues(m):
    """All eigenvalues of a square matrix of any size, as a :class:`Spectrum`.

    A 0 x 0 matrix has the empty spectrum. A stack of matrices, a 3-d
    array, gives a list of spectra from one ``np.linalg.eigvals`` call,
    each with the bits of the call on its matrix alone: a matrix whose
    eigenvalues are all real reads them as real even where another
    matrix of the stack makes the array complex.
    """
    a = np.asarray(m, dtype=float)
    stack = _finite(a) if a.ndim == 3 else _as_matrix(a)[None]
    rows, cols = stack.shape[1:]
    if rows != cols:
        raise DimensionError(f"eigenvalues requires a square matrix, got {rows}x{cols}")
    w = np.linalg.eigvals(stack)
    spectra = [Spectrum.from_values(v if is_complex else r) for v, r, is_complex in
               zip(w.tolist(), w.real.tolist(), w.imag.any(axis=-1).tolist())]
    return spectra if a.ndim == 3 else spectra[0]


def _rank(s, tol):
    """The count of singular values ``s`` (descending, last axis) above ``tol`` times the largest."""
    return np.count_nonzero(s > tol * s[..., :1], axis=-1)


def rank_tol(m, tol):
    """Numerical rank: singular values above ``tol`` times the largest one (none if it is 0)."""
    if not 0 < tol < math.inf:
        raise ConfigurationError(f"rank tolerance must be positive and finite, got {tol!r}")
    return int(_rank(np.linalg.svd(_as_matrix(m), compute_uv=False), tol))


def left_nullspace(m, tol):
    """Orthonormal basis of the left null space, returned as matrix columns.

    The basis ``B`` satisfies ``||B.T @ m|| <= tol * ||m||`` and has
    ``rows - rank`` columns, the rank counted as in :func:`rank_tol`; a
    zero matrix's basis spans the whole space. A stack of matrices, a 3-d
    array, gives a list of bases from one ``np.linalg.svd`` call, each
    with the bits of the call on its matrix alone.
    """
    if not 0 < tol < math.inf:
        raise ConfigurationError(f"null-space tolerance must be positive and finite, got {tol!r}")
    a = np.asarray(m, dtype=float)
    u, s, _ = np.linalg.svd(_finite(a) if a.ndim == 3 else _as_matrix(a)[None])
    bases = [uk[:, rank:].copy() for uk, rank in zip(u, _rank(s, tol).tolist())]
    return bases if a.ndim == 3 else bases[0]


def kron_I2(m):
    """Kronecker product with the 2x2 identity, doubling both dimensions."""
    a = _as_matrix(m)
    return np.kron(a, np.eye(2))


def squared_lengths(z):
    """Squared lengths of planar vectors stacked flat (2m) or as rows (m, 2).

    Bit-identical to ``np.sum(z * z, axis=1)`` on the rows, at a fraction
    of its call overhead on the few-edge arrays of a formation.
    """
    w = np.asarray(z, dtype=float).ravel()
    w = w * w
    return w[0::2] + w[1::2]


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual: float


def _max_abs(values):
    """``np.max(np.abs(values))`` on floats; a NaN anywhere wins, as in NumPy."""
    return math.nan if any(map(math.isnan, values)) else max(map(abs, values))


def _first_value(f, x):
    """``f(x)``; an ``IndexError`` from ``f`` or a value of another length is a DimensionError."""
    try:
        fx = f(x)
    except IndexError as exc:
        raise DimensionError(f"the field cannot read a state of {len(x)} coordinates") from exc
    if len(fx) != len(x):
        raise DimensionError(f"the field maps {len(x)} coordinates to {len(fx)}")
    return fx


def newton_root(f, x0, max_iter, tol, jac):
    """Damped Newton iteration for ``f(x) = 0`` with least-squares steps.

    The plain iteration overshoots badly on the cubic formation field from
    generic seeds; halving the step (up to 25 times) until the residual
    decreases keeps distant seeds usable. The least-squares solve truncates
    singular values below ``1e-8`` of the largest, so on systems with a
    continuous symmetry (the formation field is translation invariant) the
    step stays orthogonal to the numerical kernel instead of blowing the
    iterate up without changing the residual. The iterate is ``x0`` as a
    flat list of Python floats, which ``f`` maps to a sequence of floats,
    as the bound :attr:`~.dynamics.VectorFieldBundle.flow` does;
    the Jacobian is :func:`fd_jacobian` of ``f`` when ``jac`` is None,
    else the analytic ``jac``, such as :func:`~.dynamics.jacobian_x`, which
    takes the list as it is. ``f`` is checked at ``x0`` as in :func:`integrate_ode`.

    Returns a :class:`NewtonResult`; raises :class:`ConvergenceError`
    carrying the last iterate when the residual, Jacobian or step is not
    finite, no halving decreases the residual (stagnation), or the
    residual misses ``tol`` within ``max_iter`` steps. Both hold arrays.
    """
    x = np.asarray(x0, dtype=float).ravel().tolist()

    def fail(reason, it):
        return ConvergenceError(
            f"newton iteration {reason}", last_iterate=np.array(x), iterations=it
        )

    fx = _first_value(f, x)
    res = _max_abs(fx)
    for it in range(max_iter):
        if res <= tol:
            break
        jx = fd_jacobian(f, x) if jac is None else jac(x)
        if not (math.isfinite(res) and np.count_nonzero(np.isfinite(jx)) == np.size(jx)):
            raise fail("met a non-finite residual or Jacobian", it)
        step = np.linalg.lstsq(jx, -np.asarray(fx, dtype=float), rcond=1e-8)[0].tolist()
        if not all(map(math.isfinite, step)):
            raise fail("took a non-finite step", it)
        alpha = 1.0
        for _ in range(25):
            xn = [a + alpha * s for a, s in zip(x, step)]
            fn = f(xn)
            rn = _max_abs(fn)  # a NaN or inf never decreases the residual
            if rn < res:
                break
            alpha *= 0.5
        else:
            raise fail(f"stagnated at residual {res:.3e}", it)
        x, fx, res = xn, fn, rn
    else:
        it = max_iter
        if res > tol:
            raise fail(
                f"did not reach tol={tol:g} in {max_iter} steps (residual {res:.3e})", it
            )
    return NewtonResult(x=np.array(x), iterations=it, residual=float(res))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    final_residual: float

    @property
    def final_state(self):
        return self.states[-1]


def rk4_loop(n, params, field):
    """The classical RK4 integration loop on ``n`` floats, compiled around ``field``.

    ``field(xs, out)`` writes the field as lines of source that read the
    ``n`` local names ``xs`` and assign its value to the names ``out``.
    Those lines may read the names in ``params`` and assign any local the
    loop leaves alone: the loop's own are ``a``, ``p``, ``q``, ``r``,
    ``s`` and ``w`` followed by an index, and ``x``, ``k1``, ``plan``,
    ``times``, ``store``, ``t``, ``h``, ``half``, ``sixth``, ``i`` and
    ``rows``. The loop is compiled into
    ``integrate(<params>, x, k1, plan, times, store)``. It unpacks the
    state ``x`` and its field value ``k1`` into locals and, for each
    ``(h, rows)`` of ``plan``, takes one step of size ``h`` per row index
    ``i`` in ``rows``. Each stage assigns its input, ``a + half*p`` (or
    ``a + h*r``) per coordinate, to locals and runs the field lines on
    them; the new state is ``a + h/6 * (((p + 2q) + 2r) + w)``. After a
    step, ``t`` is advanced by ``h`` and written to ``times[i]``, the state
    goes to ``store(8 n i, *state)``, which packs it into row ``i`` of the
    states, and the field runs once at the new state for the next step's
    first stage. A state that is not finite ends the loop with
    ``(t, None)`` before it is stored; otherwise the loop returns ``t``
    and the field value at the last state, as a list. The text holds
    integer indices and fixed names only, and reads no global.
    """
    a, p, q, r, s, w = ([f"{c}{i}" for i in range(n)] for c in "apqrsw")

    def stage(out, form):
        inputs = [f"s{i} = {form.format(i=i)}" for i in range(n)]
        return inputs + field(s, out)

    finite = " + ".join(f"(a{i} - a{i})" for i in range(n)) or "0.0"
    step = [
        *stage(q, "a{i} + half * p{i}"),
        *stage(r, "a{i} + half * q{i}"),
        *stage(w, "a{i} + h * r{i}"),
        *(f"a{i} = a{i} + sixth * (((p{i} + 2.0 * q{i}) + 2.0 * r{i}) + w{i})" for i in range(n)),
        "t += h",
        f"if {finite} != 0.0:",  # inf - inf and NaN - NaN are NaN
        "    return t, None",
        "times[i] = t",
        f"store({8 * n} * i, {', '.join(a)})",
        *field(a, p),
    ]
    body = "\n            ".join
    source = f"""\
def integrate({params}, x, k1, plan, times, store):
    [{", ".join(a)}] = x
    [{", ".join(p)}] = k1
    t = 0.0
    for h, rows in plan:
        half, sixth = 0.5 * h, h / 6.0
        for i in rows:
            {body(step)}
    return t, [{", ".join(p)}]
"""
    namespace = {}
    exec(compile(source, "<rk4 loop>", "exec"), namespace)
    return namespace["integrate"]


@lru_cache(maxsize=16)
def _call_loop(n):
    """:func:`rk4_loop` on ``n`` floats for a field ``f`` called on a list of them."""
    return rk4_loop(n, "f", lambda xs, out: [f"[{', '.join(out)}] = f([{', '.join(xs)}])"])


def integrate_ode(f, x0, t_end, step):
    """Fixed-step integration of ``xdot = f(x)`` from 0 to ``t_end``.

    Only the classical 4th-order scheme is provided; the fixed step keeps
    trajectories deterministic so they can serve as golden fixtures. The
    state is ``x0`` flattened into a list of Python floats, and ``f`` maps
    such a list to a sequence of as many floats, as the bound
    :attr:`~.dynamics.VectorFieldBundle.flow` does. The whole run is one
    call of a straight-line RK4 loop from :func:`rk4_loop`, which keeps
    the state and the stages in locals from step to step; the stages keep
    the expression order of the array form and its bits. A bundle's flow
    carries its own loop, with the flow's lines inlined, as its
    ``rk4_loop`` attribute; any other ``f`` is called from a loop
    compiled once per state length. ``f`` is evaluated once per state: the
    value is the next step's first stage, and at the final state its norm
    is reported on the result. ``f`` is checked once, at the start: an
    ``IndexError`` from it, or a value of another length than the state,
    is a :class:`DimensionError`. A non-finite state aborts with
    :class:`BlowUpError` carrying the time; the overflow on the way there
    raises no floating-point warning, so the error is the only report of
    it. Times and states are written into arrays allocated once for the
    whole run. A non-finite ``t_end`` or ``step``, a negative ``t_end``, a
    step that is not positive, or a step count whose arrays cannot be
    allocated is a :class:`ConfigurationError`.
    """
    t_end, step = float(t_end), float(step)
    if not (math.isfinite(t_end) and math.isfinite(step)):
        raise ConfigurationError(
            f"integration end time and step must be finite, got {t_end!r} and {step!r}"
        )
    if step <= 0 or t_end < 0:
        raise ConfigurationError("integration step must be positive and end time not negative")
    n_full, rem = divmod(t_end, step)
    rows = int(n_full) + 1
    plan = [(step, range(1, rows))]
    if rem > 1e-12 * max(1.0, abs(t_end)):
        plan.append((rem, range(rows, rows + 1)))
        rows += 1
    x = np.asarray(x0, dtype=float).ravel().tolist()
    try:
        times = np.empty(rows)
        states = np.empty((rows, len(x)))
    except (MemoryError, ValueError):  # ValueError: more bytes than an index can count
        raise ConfigurationError(
            f"{n_full:.3g} integration steps cannot index an array; use a larger step"
        ) from None
    times[0] = 0.0
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = _first_value(f, x)
        loop = getattr(f, "rk4_loop", None) or partial(_call_loop(len(x)), f)
        store = partial(struct.Struct(f"{len(x)}d").pack_into, memoryview(states))
        t, k1 = loop(x, k1, plan, memoryview(times), store)
        if k1 is None:
            raise BlowUpError(f"trajectory left the finite range at t={t:.6g}", time=t)
        final_residual = float(np.max(np.abs(k1)))
    return Trajectory(times=times, states=states, final_residual=final_residual)


def fd_jacobian(f, x):
    """Central-difference Jacobian with steps ``FD_STEP`` times ``max(|x_j|, 1)``.

    ``x`` is flattened into a list of Python floats, which ``f`` maps to a
    sequence of floats; the result is an array.
    """
    xs = np.asarray(x, dtype=float).ravel().tolist()
    cols = []
    for j, xj in enumerate(xs):
        step = FD_STEP * max(abs(xj), 1.0)  # NaN at a NaN coordinate, as np.maximum gives
        xp, xm = xs.copy(), xs.copy()
        xp[j], xm[j] = xj + step, xj - step
        cols.append([(p - m) / (2.0 * step) for p, m in zip(f(xp), f(xm))])
    return np.array(cols).T.copy()


def fd_second_step(xs):
    """``FD_SECOND_STEP`` times the largest magnitude among floats ``xs``, at least 1."""
    return FD_SECOND_STEP * max(1.0, _max_abs(xs))


def fd_second_directional(f, x, v):
    """Second directional derivative ``d^2/dt^2 f(x + t v)`` at ``t = 0``.

    ``x`` and ``v`` are flattened into lists of Python floats, which ``f``
    maps to a sequence of values, as in :func:`fd_jacobian`; the result is
    an array. ``v`` should be unit length; the step ``h`` is
    :func:`fd_second_step` of ``x``, scaled by its largest coordinate so
    the stencil stays well conditioned on states that are not order one.
    The result is ``(f(x + h v) - 2 f(x) + f(x - h v)) / h^2``, computed on
    ``f``'s values converted to floats, so an overflow gives inf or NaN
    without a floating-point warning.
    """
    xs = np.asarray(x, dtype=float).ravel().tolist()
    vs = np.asarray(v, dtype=float).ravel().tolist()
    hh = fd_second_step(xs)
    f0 = [float(u) for u in f(xs)]
    fp = [float(u) for u in f([a + hh * b for a, b in zip(xs, vs)])]
    fm = [float(u) for u in f([a - hh * b for a, b in zip(xs, vs)])]
    return np.array([(p - 2.0 * c + m) / (hh * hh) for p, c, m in zip(fp, f0, fm)])
