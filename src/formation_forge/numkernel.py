"""Dense linear algebra and small-scale numerics.

Everything in this module operates on plain ``numpy`` arrays a few dozen
entries across. The heavy lifting (eigenvalues, singular values, least
squares) is delegated to LAPACK through numpy; this module pins down the
conventions the rest of the package relies on: eigenvalue ordering,
rank/null-space tolerances, finite-difference step policies, and a
fixed-step integrator whose output is bit-reproducible.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    BlowUpError,
    ConfigurationError,
    ConvergenceError,
    DimensionError,
)

MAX_DIM = 64
DEFAULT_RANK_TOL = 1e-9
_CONJUGATE_TOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a real matrix, descending by real part then imaginary part."""

    values: tuple[complex, ...]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    @property
    def real_parts(self):
        return tuple(v.real for v in self.values)

    @property
    def leading_real(self):
        """Largest real part; the decisive quantity for linear stability."""
        return max(v.real for v in self.values)

    @property
    def spectral_radius(self):
        return max((abs(v) for v in self.values), default=0.0)

    # The package's one stability rule: a real part counts as negative or
    # positive only beyond ``tol`` times the spectral radius (floored at 1e-300).
    def _margin(self, tol):
        return tol * max(self.spectral_radius, 1e-300)

    def is_stable(self, tol):
        margin = self._margin(tol)
        return all(v.real < -margin for v in self.values)

    def is_hyperbolic(self, tol):
        margin = self._margin(tol)
        return all(abs(v.real) > margin for v in self.values)

    def unstable_count(self, tol):
        margin = self._margin(tol)
        return sum(1 for v in self.values if v.real > margin)

    @classmethod
    def from_values(cls, values):
        vals = [complex(v) for v in values]
        vals.sort(key=lambda c: (-c.real, -c.imag))
        spec = cls(tuple(vals))
        spec._check_conjugate_pairing()
        return spec

    def _check_conjugate_pairing(self):
        scale = max(1.0, max((abs(v) for v in self.values), default=0.0))
        tol = _CONJUGATE_TOL * scale
        unmatched = [v for v in self.values if abs(v.imag) > tol]
        while unmatched:
            v = unmatched.pop()
            best = None
            for i, w in enumerate(unmatched):
                if abs(w - v.conjugate()) <= tol:
                    best = i
                    break
            if best is None:
                raise ConvergenceError(
                    f"complex eigenvalue {v} lacks a conjugate partner within {tol:g}"
                )
            unmatched.pop(best)


def _as_matrix(m):
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise DimensionError("matrix entries must be finite")
    return a


def eigenvalues(m):
    """All eigenvalues of a square matrix, as a :class:`Spectrum`."""
    a = _as_matrix(m)
    rows, cols = a.shape
    if rows != cols:
        raise DimensionError(f"eigenvalues requires a square matrix, got {rows}x{cols}")
    if rows > MAX_DIM:
        raise DimensionError(f"matrix dimension {rows} exceeds the supported {MAX_DIM}")
    if rows == 0:
        return Spectrum(())
    return Spectrum.from_values(np.linalg.eigvals(a))


def rank_tol(m, tol=DEFAULT_RANK_TOL):
    """Numerical rank: singular values above ``tol`` times the largest one."""
    if tol <= 0:
        raise ConfigurationError("rank tolerance must be positive")
    a = _as_matrix(m)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def left_nullspace(m, tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the left null space, returned as matrix columns.

    The basis ``B`` satisfies ``||B.T @ m|| <= tol * ||m||`` and has
    ``rows - rank`` columns.
    """
    if tol <= 0:
        raise ConfigurationError("null-space tolerance must be positive")
    a = _as_matrix(m)
    u, s, _ = np.linalg.svd(a)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol * smax)) if smax > 0 else 0
    return u[:, rank:].copy()


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


def newton_root(f, x0, max_iter=50, tol=1e-12, jac=None):
    """Damped Newton iteration for ``f(x) = 0`` with least-squares steps.

    The plain iteration overshoots badly on the cubic formation field from
    generic seeds; halving the step (up to 25 times) until the residual
    decreases keeps distant seeds usable. The least-squares solve truncates
    singular values below ``1e-8`` of the largest, so on systems with a
    continuous symmetry (the formation field is translation invariant) the
    step stays orthogonal to the numerical kernel instead of blowing the
    iterate up without changing the residual. The Jacobian comes from
    central finite differences unless an analytic ``jac`` is supplied.
    ``x0`` is a vector, and ``f`` maps a vector to a vector.

    Returns a :class:`NewtonResult`; raises :class:`ConvergenceError`
    carrying the last iterate when the residual, Jacobian or step is not
    finite, no halving decreases the residual (stagnation), or the
    residual misses ``tol`` within ``max_iter`` steps.
    """
    x = np.array(x0, dtype=float)

    def fail(reason, it):
        return ConvergenceError(f"newton iteration {reason}", last_iterate=x, iterations=it)

    fx = np.asarray(f(x), dtype=float)
    res = float(np.max(np.abs(fx)))
    for it in range(max_iter):
        if res <= tol:
            break
        jx = fd_jacobian(f, x) if jac is None else jac(x)
        if not (math.isfinite(res) and np.isfinite(jx).all()):
            raise fail("met a non-finite residual or Jacobian", it)
        step, *_ = np.linalg.lstsq(jx, -fx, rcond=1e-8)
        if not np.isfinite(step).all():
            raise fail("took a non-finite step", it)
        alpha = 1.0
        for _ in range(25):
            xn = x + alpha * step
            fn = np.asarray(f(xn), dtype=float)
            rn = float(np.max(np.abs(fn))) if np.all(np.isfinite(fn)) else np.inf
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
    return NewtonResult(x=x, iterations=it, residual=res)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    final_residual: float

    @property
    def final_state(self):
        return self.states[-1]


def integrate_ode(f, x0, t_end, step=1e-3):
    """Fixed-step integration of ``xdot = f(x)`` from 0 to ``t_end``.

    Only the classical 4th-order scheme is provided; the fixed step keeps
    trajectories deterministic so they can serve as golden fixtures. The
    state is ``x0`` flattened into a list of Python floats, and ``f`` maps
    such a list to a sequence of as many floats, as
    :meth:`~.dynamics.VectorFieldBundle.flow` does. No array is built
    between the calls of ``f``; the stages keep the expression order of
    the array form and its bits. The final state's vector-field norm is
    reported on the result. A non-finite state aborts with
    :class:`BlowUpError` carrying the time; the overflow on the way there
    raises no floating-point warning, so the error is the only report of
    it. Times and states are written into arrays allocated once for the
    whole run. A non-finite ``t_end`` or ``step``, a step that is not
    positive, or a step count that cannot index an array is a
    :class:`ConfigurationError`.
    """
    t_end, step = float(t_end), float(step)
    if not (math.isfinite(t_end) and math.isfinite(step)):
        raise ConfigurationError(
            f"integration end time and step must be finite, got {t_end!r} and {step!r}"
        )
    if step <= 0:
        raise ConfigurationError("integration step must be positive")
    n_full, rem = divmod(t_end, step)
    if n_full >= sys.maxsize:
        raise ConfigurationError(
            f"{n_full:.3g} integration steps cannot index an array; use a larger step"
        )
    x = np.asarray(x0, dtype=float).ravel().tolist()
    steps = [step] * int(n_full)
    if rem > 1e-12 * max(1.0, abs(t_end)):
        steps.append(rem)
    times = np.empty(len(steps) + 1)
    states = np.empty((len(steps) + 1, len(x)))
    times[0] = 0.0
    states[0] = x
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, h in enumerate(steps, 1):
            half, sixth = 0.5 * h, h / 6.0
            k1 = f(x)
            k2 = f([a + half * k for a, k in zip(x, k1)])
            k3 = f([a + half * k for a, k in zip(x, k2)])
            k4 = f([a + h * k for a, k in zip(x, k3)])
            x = [
                a + sixth * (((p + 2.0 * q) + 2.0 * r) + w)
                for a, p, q, r, w in zip(x, k1, k2, k3, k4)
            ]
            t += h
            if not all(map(math.isfinite, x)):
                raise BlowUpError(f"trajectory left the finite range at t={t:.6g}", time=t)
            times[i] = t
            states[i] = x
        final_residual = float(np.max(np.abs(f(x))))
    return Trajectory(times=times, states=states, final_residual=final_residual)


def fd_steps(x, h):
    """Per-coordinate central-difference steps, scaled by coordinate size."""
    return h * np.maximum(1.0, np.abs(x))


def fd_jacobian(f, x, h=1e-6):
    """Central-difference Jacobian with coordinate-scaled steps."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    steps = fd_steps(x, h)
    cols = []
    for j in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[j] += steps[j]
        xm[j] -= steps[j]
        fp = np.atleast_1d(np.asarray(f(xp), dtype=float))
        fm = np.atleast_1d(np.asarray(f(xm), dtype=float))
        cols.append((fp - fm) / (2.0 * steps[j]))
    return np.column_stack(cols)


def fd_second_directional(f, x, v, h=1e-4):
    """Second directional derivative ``d^2/dt^2 f(x + t v)`` at ``t = 0``.

    ``v`` should be unit length; the step is scaled by the largest
    coordinate of ``x`` so the stencil stays well conditioned on states
    that are not order one.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    hh = h * max(1.0, float(np.max(np.abs(x))))
    f0 = np.atleast_1d(np.asarray(f(x), dtype=float))
    fp = np.atleast_1d(np.asarray(f(x + hh * v), dtype=float))
    fm = np.atleast_1d(np.asarray(f(x - hh * v), dtype=float))
    return (fp - 2.0 * f0 + fm) / (hh * hh)
