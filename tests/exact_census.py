"""The equilibria of two-cycles under gradient_squared, exactly: a test oracle.

With agent 1 at the origin and agent 2 at ``(a, 0)``, the field's eight
components are polynomials in ``a``, agent 3's ``(x3, y3)`` and agent 4's
``(x4, y4)`` whose coefficients are the squared targets. A ninth,
``a t - 1``, keeps ``a`` nonzero (the Rabinowitsch trick; Cox, Little and
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 4). On rational targets
sympy's lex Gröbner basis of the nine, in ``VARIABLES`` order, is
triangular: each polynomial's first variable is solved from the values of
the later ones, down to one polynomial in ``y4`` alone. Back-substitution
with ``mpmath.polyroots`` at ``DIGITS`` digits lists every solution,
complex ones included. The rotation by pi, ``a -> -a``, pairs the real
ones, and those with ``a > 0`` are in the census's canonical gauge. An
equilibrium with agent 2 on agent 1 lies outside; the caller settles that
case by hand. sympy and mpmath are test-only imports, and a test that
calls this module is skipped where either is missing.
"""

import functools

import pytest

from formation_forge.graph import two_cycles

VARIABLES = ("t", "a", "x3", "y3", "x4", "y4")
DIGITS = 50
# A root of one polynomial of a level must zero the level's others, and a
# real root's imaginary part must vanish, to this many digits.
AGREE_DIGITS = 30


@functools.lru_cache(maxsize=None)
def lex_basis(d):
    """The lex Gröbner basis at rational squared targets ``d``, as sympy Polys in ``VARIABLES``.

    ``d`` holds the five targets as ``fractions.Fraction`` in the edge
    order of ``two_cycles()``.
    """
    sp = pytest.importorskip("sympy")
    t, a, x3, y3, x4, y4 = symbols = sp.symbols(VARIABLES)
    points = [(0, 0), (a, 0), (x3, y3), (x4, y4)]
    field = [[0, 0] for _ in points]
    for (o, k), dk in zip(two_cycles().edges, d):
        z = (points[k][0] - points[o][0], points[k][1] - points[o][1])
        u = z[0] ** 2 + z[1] ** 2 - sp.Rational(dk.numerator, dk.denominator)
        field[o][0] += u * z[0]
        field[o][1] += u * z[1]
    equations = [sp.expand(c) for row in field for c in row] + [a * t - 1]
    basis = sp.groebner(equations, *symbols, order="lex")
    return tuple(sp.Poly(g, *symbols) for g in basis.exprs)


def _first_variable(poly):
    return min(i for monom in poly.monoms() for i, power in enumerate(monom) if power)


def _univariate(poly, i, known, mpmath):
    """``poly``'s coefficients in variable ``i``, highest first, at the ``known`` later values.

    Leading coefficients below ``AGREE_DIGITS`` of the largest are dropped;
    a polynomial that vanishes there is the empty list.
    """
    coefficients = {}
    for monom, c in poly.terms():
        term = mpmath.mpf(c.p) / c.q
        for j, power in enumerate(monom[i + 1:], i + 1):
            term *= known[j] ** power
        coefficients[monom[i]] = coefficients.get(monom[i], 0) + term
    scale = max(abs(c) for c in coefficients.values())
    if not scale:
        return []
    cut = mpmath.mpf(10) ** -AGREE_DIGITS * scale
    degree = max(k for k, c in coefficients.items() if abs(c) > cut)
    return [coefficients.get(k, 0) for k in range(degree, -1, -1)]


@functools.lru_cache(maxsize=None)
def solutions(d):
    """Every solution of the system, complex ones included: tuples of mpc in ``VARIABLES`` order."""
    mpmath = pytest.importorskip("mpmath")
    levels = {}
    for poly in lex_basis(d):
        levels.setdefault(_first_variable(poly), []).append(poly)
    agree = mpmath.mpf(10) ** -AGREE_DIGITS
    found = [{}]
    with mpmath.workdps(DIGITS):
        for i in reversed(range(len(VARIABLES))):
            extended = []
            for known in found:
                polys = sorted(filter(None, (_univariate(p, i, known, mpmath) for p in levels[i])),
                               key=len)
                roots = (mpmath.polyroots(polys[0], maxsteps=200, extraprec=2 * DIGITS)
                         if len(polys[0]) > 1 else ())  # a nonzero constant: no root
                for root in roots:
                    if all(
                        abs(mpmath.polyval(c, root))
                        <= agree * max(abs(v) for v in c) * max(1, abs(root)) ** (len(c) - 1)
                        for c in polys[1:]
                    ):
                        extended.append({**known, i: mpmath.mpc(root)})
            found = extended
    return tuple(tuple(s[i] for i in range(len(VARIABLES))) for s in found)


def real_solutions(d):
    """The real solutions, as tuples of mpf in ``VARIABLES`` order."""
    mpmath = pytest.importorskip("mpmath")
    agree = mpmath.mpf(10) ** -AGREE_DIGITS
    return [
        tuple(v.real for v in s) for s in solutions(d)
        if all(abs(v.imag) <= agree * max(1, abs(v)) for v in s)
    ]


def equilibria(d):
    """The real equilibria with ``a > 0``, each as four ``[x, y]`` rows of mpf, agent 1 first.

    Each real solution with ``a < 0`` is checked to be one of them turned by pi.
    """
    mpmath = pytest.importorskip("mpmath")
    agree = mpmath.mpf(10) ** -AGREE_DIGITS
    real = real_solutions(d)
    canonical = [s for s in real if s[1] > 0]
    for s in real:
        if s[1] < 0:
            assert any(all(abs(p + q) <= agree * max(1, abs(q)) for p, q in zip(s, c))
                       for c in canonical), s
    return [[[mpmath.mpf(0), mpmath.mpf(0)], [a, mpmath.mpf(0)], [x3, y3], [x4, y4]]
            for _, a, x3, y3, x4, y4 in canonical]
