"""Tests for the dense linear-algebra and numerics kernel."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from formation_forge import numkernel, rigidity
from formation_forge.dynamics import VectorFieldBundle, builtin_law, eval_F_x, jacobian_x
from formation_forge.errors import (
    BlowUpError,
    ConfigurationError,
    ConvergenceError,
    DimensionError,
)
from formation_forge.graph import mixed_adjacency, two_cycles
from formation_forge.numkernel import (
    TOL_ZERO,
    NewtonResult,
    Spectrum,
    eigenvalues,
    fd_jacobian,
    fd_second_directional,
    integrate_ode,
    kron_I2,
    left_nullspace,
    newton_root,
    rank_tol,
)
from formation_forge.rigidity import (
    TargetLengths,
    edge_errors,
    realize_two_cycles,
    rigidity_matrix,
)
from test_dynamics import FLOW_LAWS, IDLE_AGENT, same_bits


def array_fd_jacobian(f, x, h=1e-6):
    """Central differences on arrays, the oracle of :func:`fd_jacobian`.

    ``f`` maps an array to an array; each coordinate's column is stacked
    with ``np.column_stack``. The float form must match it bit for bit.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    steps = h * np.maximum(1.0, np.abs(x))
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


def array_newton_root(f, x0, max_iter, tol, jac):
    """Damped Newton on arrays, the oracle of :func:`newton_root`.

    ``f`` and ``jac`` take an array. The float form must reach the same
    iterates, bit for bit, and fail where this fails.
    """
    x = np.array(x0, dtype=float)

    def fail(reason, it):
        return ConvergenceError(f"newton iteration {reason}", last_iterate=x, iterations=it)

    fx = np.asarray(f(x), dtype=float)
    res = float(np.max(np.abs(fx)))
    for it in range(max_iter):
        if res <= tol:
            break
        jx = array_fd_jacobian(f, x) if jac is None else jac(x)
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


def spectra_close(a, b, tol):
    """Worst pairing distance between two spectra sorted the same way."""
    va = np.asarray(Spectrum.from_values(a).values)
    vb = np.asarray(Spectrum.from_values(b).values)
    return float(np.max(np.abs(va - vb))) <= tol


class TestEigenvalues:
    def test_identity(self):
        spec = eigenvalues(np.eye(3))
        assert spectra_close(spec.values, [1.0, 1.0, 1.0], 1e-12)

    def test_rotation_generator(self):
        spec = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
        assert spectra_close(spec.values, [1j, -1j], 1e-12)

    def test_logistic_linearization_at_carrying_capacity(self):
        # d/dx of x*(mu - x) is mu - 2x; at x = mu = 1 that is -1.
        spec = eigenvalues([[1.0 - 2.0 * 1.0]])
        assert spectra_close(spec.values, [-1.0], 1e-12)

    def test_transpose_has_same_spectrum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.normal(size=(6, 6))
            sa = eigenvalues(a)
            sb = eigenvalues(a.T)
            assert spectra_close(sa.values, sb.values, 1e-9 * max(1.0, sa.spectral_radius))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.ones((2, 3)))

    def test_rejects_a_vector(self):
        with pytest.raises(DimensionError, match="expected a 2-d matrix, got ndim=1"):
            eigenvalues(np.ones(3))

    def test_takes_matrices_of_any_size(self):
        # no size cap: a 34-agent census needs a 65 x 65 gauge matrix
        spec = eigenvalues(np.diag(np.arange(1.0, 66.0)))
        assert spec.values == tuple(complex(v) for v in range(65, 0, -1))


class TestSpectrum:
    def test_ordering_descends_by_real_then_imag(self):
        spec = Spectrum.from_values([-1.0, 2.0 + 1.0j, 2.0 - 1.0j, 0.5])
        assert spec.values == (2.0 + 1.0j, 2.0 - 1.0j, 0.5 + 0.0j, -1.0 + 0.0j)

    def test_leading_real_and_stability(self):
        spec = Spectrum.from_values([-0.5, -2.0 + 1.0j, -2.0 - 1.0j])
        assert spec.leading_real == -0.5
        assert spec.is_stable() and spec.is_hyperbolic()
        assert spec.unstable_count() == 0

    # With the dominant eigenvalue -10, the margin is TOL_ZERO * 10.
    @pytest.mark.parametrize(
        "multiple, stable, hyperbolic, unstable",
        [
            (-2.0, True, True, 0),
            (-0.5, False, False, 0),
            (0.5, False, False, 0),
            (2.0, False, True, 1),
        ],
    )
    def test_relative_rule_margin(self, multiple, stable, hyperbolic, unstable):
        spec = Spectrum.from_values([-10.0, multiple * TOL_ZERO * 10.0, -3.0 + 4.0j, -3.0 - 4.0j])
        assert spec.is_stable() is stable
        assert spec.is_hyperbolic() is hyperbolic
        assert spec.unstable_count() == unstable

    # The rule reads numkernel.TOL_ZERO at each call; at a margin of 0 it is the sign.
    def test_zero_tolerance_is_the_sign(self, monkeypatch):
        monkeypatch.setattr(numkernel, "TOL_ZERO", 0.0)
        spec = Spectrum.from_values([-1e-300, -5.0])
        assert spec.is_stable() and spec.is_hyperbolic()
        assert Spectrum.from_values([1e-300, -5.0]).unstable_count() == 1
        assert not Spectrum.from_values([0.0, -5.0]).is_hyperbolic()

    def test_zero_spectrum_is_neither_stable_nor_hyperbolic(self):
        spec = Spectrum.from_values([0.0, 0.0])
        assert not spec.is_stable()
        assert not spec.is_hyperbolic()
        assert spec.unstable_count() == 0

    @pytest.mark.parametrize(
        "values",
        [np.array([-1.0, 2.5, 0.0]), np.array([1.0 + 2.0j, 1.0 - 2.0j, -3.0]), np.zeros(0)],
    )
    def test_an_array_and_its_list_give_one_spectrum(self, values):
        from_array, from_list = Spectrum.from_values(values), Spectrum.from_values(list(values))
        assert from_array == from_list
        assert all(type(v) is complex for v in from_array.values)

    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_empty_spectrum(self, tol, monkeypatch):
        monkeypatch.setattr(numkernel, "TOL_ZERO", tol)
        spec = eigenvalues(np.zeros((0, 0)))
        assert spec.is_stable()
        assert spec.is_hyperbolic()
        assert spec.unstable_count() == 0

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 29),
        exponent=st.integers(-8, 8),
        shape=st.sampled_from(("dense", "near_defective", "rounded")),
    )
    def test_complex_eigenvalues_come_in_exact_conjugate_pairs(self, seed, n, exponent, shape):
        # The index rule, (-1) to the number of real negative eigenvalues,
        # assumes LAPACK returns each non-real eigenvalue of a real matrix
        # with its exact conjugate, equally often; Spectrum does not check it.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        if shape == "near_defective":  # a Jordan-like block, perturbed below the diagonal
            m = np.triu(m, 1) + m[0, 0] * np.eye(n) + 1e-9 * np.tril(m, -1)
        elif shape == "rounded":
            m = np.round(4.0 * m) / 4.0
        values = eigenvalues(m * 10.0**exponent).values
        nonreal = Counter(v for v in values if v.imag != 0.0)
        assert nonreal == Counter(v.conjugate() for v in nonreal.elements())


class TestRank:
    def test_zero_matrix(self):
        assert rank_tol(np.zeros((3, 3)), 1e-9) == 0

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_has_rank_zero(self, shape):
        assert rank_tol(np.zeros(shape), 1e-9) == 0

    def test_two_cycles_incidence_rank(self):
        assert rank_tol(mixed_adjacency(two_cycles()), 1e-9) == 3

    def test_generic_rigidity_matrix_rank(self):
        lengths = TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.1))
        fw = realize_two_cycles(two_cycles(), lengths)[0]
        assert rank_tol(rigidity_matrix(fw), 1e-9) == 5

    def test_kron_doubles_rank(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            rows, cols, inner = rng.integers(1, 6, size=3)
            m = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
            assert rank_tol(kron_I2(m), 1e-9) == 2 * rank_tol(m, 1e-9)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ConfigurationError):
            rank_tol(np.eye(2), 0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite(self, tol):
        # Both counted no singular value of the identity.
        with pytest.raises(ConfigurationError, match="rank tolerance must be positive and finite"):
            rank_tol(np.eye(3), tol)

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.lists(
            st.one_of(st.floats(0.0, 1e300), st.just(0.0), st.just(math.nan)), max_size=8
        ).map(lambda v: np.array(sorted(v, reverse=True), dtype=float)),
        tol=st.floats(1e-15, 1.0),
    )
    def test_the_rank_count_is_numpys(self, s, tol):
        # Counted on Python floats, the same decisions as the array comparison,
        # with zeros, NaN (which no comparison passes) and no values at all.
        expected = int(np.sum(s > tol * s[0])) if s.size else 0
        assert numkernel._rank(s, tol) == expected

    @pytest.mark.parametrize("ratio, rank", [(1e-7, 2), (1e-11, 1)])
    def test_default_tolerance_splits_singular_value_ratios_at_1e_9(self, ratio, rank):
        # 1e-7 counts and 1e-11 does not: scaling the rigidity run's RANK_TOL
        # by 1e3 or by 1e-3 moves one of them across.
        assert rank_tol(np.diag([1.0, ratio]), rigidity.RANK_TOL) == rank


class TestLeftNullspace:
    @pytest.mark.parametrize("tol", [0.0, -1e-9])
    def test_rejects_nonpositive_tolerance(self, tol):
        with pytest.raises(ConfigurationError, match="null-space tolerance must be positive"):
            left_nullspace(np.eye(2), tol)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite(self, tol):
        # NaN gave the whole space as the null space of the identity.
        with pytest.raises(ConfigurationError, match="positive and finite"):
            left_nullspace(np.eye(2), tol)

    def test_two_cycles_cokernel(self):
        basis = left_nullspace(mixed_adjacency(two_cycles()), 1e-9)
        assert basis.shape == (5, 2)
        for vec in ([0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0, 0.0]):
            v = np.asarray(vec)
            residual = v - basis @ (basis.T @ v)
            assert np.max(np.abs(residual)) <= 1e-9 * np.linalg.norm(v)

    def test_full_rank_matrix_has_empty_basis(self):
        assert left_nullspace(np.eye(4), 1e-9).shape == (4, 0)

    def test_repeated_row(self):
        basis = left_nullspace(np.array([[1.0, 0.0], [1.0, 0.0]]), 1e-9)
        assert basis.shape == (2, 1)
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(
            np.max(np.abs(basis[:, 0] - expected)),
            np.max(np.abs(basis[:, 0] + expected)),
        ) <= 1e-12

    def test_annihilation_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows, cols, inner = rng.integers(1, 8, size=3)
            m = rng.normal(size=(rows, inner)) @ rng.normal(size=(inner, cols))
            basis = left_nullspace(m, 1e-9)
            if basis.shape[1]:
                assert np.max(np.abs(basis.T @ m)) <= 1e-9 * np.linalg.norm(m)
                gram = basis.T @ basis
                assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-12
            assert basis.shape[1] == rows - rank_tol(m, 1e-9)


class TestKron:
    def test_scalar(self):
        assert np.array_equal(kron_I2([[3.0]]), [[3.0, 0.0], [0.0, 3.0]])

    def test_two_cycles_shape(self):
        assert kron_I2(mixed_adjacency(two_cycles())).shape == (10, 8)

    def test_row_expansion(self):
        out = kron_I2([[1.0, -1.0]])
        expected = [[1.0, 0.0, -1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]
        assert np.array_equal(out, expected)


class TestNewton:
    # A scalar equation is solved as a 1-vector one.
    def test_scalar_quadratic(self):
        result = newton_root(
            lambda x: [v * v - 4.0 for v in x], [3.0], max_iter=50, tol=1e-12, jac=None
        )
        assert result.x.shape == (1,)
        assert abs(result.x[0] - 2.0) <= 1e-10
        assert result.residual <= 1e-12
        assert result.iterations >= 1

    def test_scalar_cubic(self):
        result = newton_root(
            lambda x: [v * (1.0 - v * v) for v in x], [0.8], max_iter=50, tol=1e-12, jac=None
        )
        assert abs(result.x[0] - 1.0) <= 1e-10

    def test_circle_intersection_matches_closed_form(self):
        # The third agent of a realization sits on two circles at once;
        # solving that system directly must land on the constructed point.
        lengths = TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0))
        fw = realize_two_cycles(two_cycles(), lengths)[0]
        x2 = fw.x[1]

        def f(p):
            px, py = p
            qx, qy = px - x2[0], py - x2[1]
            return [px * px + py * py - lengths.d[2], qx * qx + qy * qy - lengths.d[1]]

        seed = fw.x[2] + np.array([0.05, -0.08])
        result = newton_root(f, seed, max_iter=50, tol=1e-13, jac=None)
        assert np.max(np.abs(result.x - fw.x[2])) <= 1e-10

    def test_failure_carries_last_iterate(self):
        # x^2 + 1 has no real root; the iteration must fail loudly.
        with pytest.raises(ConvergenceError) as info:
            newton_root(
                lambda x: [v * v + 1.0 for v in x], [0.5], max_iter=30, tol=1e-12, jac=None
            )
        assert info.value.last_iterate is not None
        assert info.value.iterations is not None
        assert "stagnated" in str(info.value)

    def test_damped_steps_converge_from_far_out(self):
        # The undamped iteration on arctan diverges from |x0| > 1.39;
        # halving the step until the residual falls brings it home.
        result = newton_root(np.arctan, [3.0], max_iter=50, tol=1e-12, jac=None)
        assert abs(result.x[0]) <= 1e-12
        assert result.residual <= 1e-12

    def test_budget_exhaustion_is_reported(self):
        with pytest.raises(ConvergenceError, match="did not reach") as info:
            newton_root(np.arctan, [3.0], max_iter=2, tol=1e-12, jac=None)
        assert info.value.iterations == 2

    def test_non_finite_seed_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match="non-finite"):
            newton_root(lambda x: np.array([np.inf * x[0], x[1]]), [1.0, 1.0],
                        max_iter=50, tol=1e-12, jac=lambda x: np.eye(2))

    def test_non_finite_step_is_a_convergence_error(self):
        # A finite residual over a finite but tiny slope overflows the step.
        with pytest.raises(ConvergenceError, match="took a non-finite step") as info:
            newton_root(lambda x: [1e300], [0.0], max_iter=50, tol=1e-12,
                        jac=lambda x: np.array([[1e-300]]))
        assert info.value.iterations == 0

    @pytest.mark.parametrize("position", [0, 1])
    def test_nan_anywhere_in_the_initial_residual_is_refused(self, position):
        # Python's max drops a NaN that sits after a number; np.max never does.
        def f(x):
            out = [x[0] - 1.0, x[1] - 2.0]
            out[position] = math.nan
            return out

        with pytest.raises(ConvergenceError, match="non-finite residual or Jacobian") as info:
            newton_root(f, [0.5, 0.5], max_iter=50, tol=1e-12, jac=lambda x: np.eye(2))
        assert isinstance(info.value.last_iterate, np.ndarray)

    @pytest.mark.parametrize("size", [24, 6])
    def test_a_state_of_another_size_is_refused(self, size):
        # Two-cycles reads 8 coordinates: 24 would leave 16 unread, 6 cannot be read.
        b = VectorFieldBundle(
            graph=two_cycles(),
            law=builtin_law("gradient_squared"),
            lengths=TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0)),
        )
        with pytest.raises(DimensionError, match=rf"\b{size} coordinates"):
            newton_root(b.flow, [0.1 * i for i in range(size)], max_iter=50, tol=1e-12, jac=None)

    def test_analytic_jacobian_is_used(self):
        calls = []

        def jac(x):
            calls.append(x)
            return np.diag([2.0 * v for v in x])

        result = newton_root(
            lambda x: [v * v - 4.0 for v in x], [3.0], max_iter=50, tol=1e-12, jac=jac
        )
        assert abs(result.x[0] - 2.0) <= 1e-12
        assert len(calls) == result.iterations


class TestIntegrate:
    def test_linear_decay(self):
        traj = integrate_ode(lambda x: [-v for v in x], 1.0, 1.0, step=1e-3)
        assert abs(traj.final_state[0] - np.exp(-1.0)) <= 1e-6

    def test_logistic_settles_at_carrying_capacity(self):
        traj = integrate_ode(lambda x: [v * (1.0 - v) for v in x], 0.5, 25.0, step=1e-3)
        assert abs(traj.final_state[0] - 1.0) <= 1e-6

    def test_formation_flow_reaches_design_shape(self):
        lengths = TargetLengths(d=(4.0, 6.76, 4.0, 10.89, 1.96))
        bundle = VectorFieldBundle(
            graph=two_cycles(), law=builtin_law("gradient_squared"), lengths=lengths
        )
        # Pick an attracting realization: beyond the three zero eigenvalues
        # from rigid motions, every real part must be negative.
        stable = None
        for fw in realize_two_cycles(two_cycles(), lengths):
            jac = fd_jacobian(lambda v: eval_F_x(bundle, v), fw.x.ravel())
            reals = sorted((v.real for v in eigenvalues(jac).values), reverse=True)
            if reals[3] < -1e-6:
                stable = fw
                break
        assert stable is not None
        rng = np.random.default_rng(5)
        x0 = stable.x + 0.05 * rng.normal(size=stable.x.shape)
        traj = integrate_ode(lambda x: eval_F_x(bundle, x), x0.ravel(), 40.0, step=1e-3)
        final = stable.with_positions(traj.final_state.reshape(4, 2))
        assert np.max(np.abs(edge_errors(final, lengths, "squared"))) < 1e-8

    def test_blow_up_is_reported_with_time(self):
        with pytest.raises(BlowUpError) as info, np.errstate(over="ignore"):
            integrate_ode(lambda x: [v * v for v in x], 2.0, 10.0, step=1e-2)
        assert info.value.time is not None

    @pytest.mark.parametrize(
        "t_end, step",
        [
            (float("inf"), 1e-3),
            (float("nan"), 1e-3),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (1.0, 0.0),
            (1.0, -1e-3),
            # 1e303 steps: more than an array index can count.
            (1e300, 1e-3),
            # a negative end time once stepped forward, or returned the start
            (-0.0015, 1e-3),
            (-1.0, 1e-3),
        ],
    )
    def test_unusable_time_grid_is_a_configuration_error(self, t_end, step):
        with pytest.raises(ConfigurationError):
            integrate_ode(lambda x: [-v for v in x], 1.0, t_end, step=step)

    def test_a_step_count_no_array_can_hold_is_a_configuration_error(self):
        # 1e18 steps fit an array index, but 1e18 rows of floats are more
        # bytes than the address space, so their allocation fails at once.
        with pytest.raises(ConfigurationError, match=r"^1e\+18 integration steps cannot index"):
            integrate_ode(lambda x: [-v for v in x], [1.0, 2.0], 1e9, step=1e-9)


class TestFiniteDifferences:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.normal(size=(4, 3))
            jac = fd_jacobian(lambda v: a @ v, rng.normal(size=3))
            assert np.max(np.abs(jac - a)) <= 1e-9

    def test_logistic_derivative_vanishes_at_origin(self):
        jac = fd_jacobian(lambda x: [v * (0.0 - v) for v in x], np.array([0.0]))
        assert abs(jac[0, 0]) <= 1e-9

    def test_matches_analytic_formation_jacobian(self):
        from formation_forge.dynamics import eval_F_z, jacobian_z
        from formation_forge.rigidity import edge_vectors

        lengths = TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.1))
        bundle = VectorFieldBundle(
            graph=two_cycles(), law=builtin_law("gradient_squared"), lengths=lengths
        )
        z = edge_vectors(realize_two_cycles(two_cycles(), lengths)[0])
        analytic = jacobian_z(bundle, z)
        numeric = fd_jacobian(lambda v: eval_F_z(bundle, v, check=False), z.ravel())
        scale = np.max(np.abs(analytic))
        assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale

    @settings(max_examples=80, deadline=None)
    @given(
        law_name=st.sampled_from(sorted(FLOW_LAWS)),
        graph=st.sampled_from((two_cycles(), IDLE_AGENT)),
        coords=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
        collapse=st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_flow_differences_match_the_array_oracle_bit_for_bit(
        self, law_name, graph, coords, collapse
    ):
        law = FLOW_LAWS[law_name]
        values = (2.0, 2.6, 2.0, 3.3, 1.4)[: graph.m]
        b = VectorFieldBundle(
            graph=graph, law=law, lengths=TargetLengths.from_values(values, law.convention)
        )
        if collapse is not None:
            # Coincident agents put a zero-length edge inside the stencil.
            o, t = graph.edges[collapse % graph.m]
            coords[2 * t : 2 * t + 2] = coords[2 * o : 2 * o + 2]
        expected = array_fd_jacobian(lambda v: eval_F_x(b, v), np.array(coords))
        jac = fd_jacobian(b.flow, coords)
        assert jac.flags.c_contiguous and jac.shape == expected.shape
        assert same_bits(jac, expected)
        if not law.separable:
            # jacobian_x's coupled-pair fallback is the same difference.
            assert same_bits(jacobian_x(b, coords), expected)

    def test_second_directional_scalar_square(self):
        out = fd_second_directional(lambda x: [v * v for v in x], np.array([0.3]), np.array([1.0]))
        assert abs(out[0] - 2.0) <= 1e-6

    def test_second_directional_logistic(self):
        out = fd_second_directional(
            lambda x: [v * (0.7 - v) for v in x], np.array([0.0]), np.array([1.0])
        )
        assert abs(out[0] + 2.0) <= 1e-6

    def test_second_directional_reads_lists_of_floats(self):
        # As fd_jacobian's, its field takes lists of Python floats; NumPy
        # values are floats before the quotient, so an overflow warns nothing.
        seen = []

        def f(x):
            seen.append(x)
            return [np.float64(1e308), np.float64(x[1])]

        out = fd_second_directional(f, np.array([2.0, 0.5]), (1.0, 0.0))
        assert all(type(x) is list and all(type(v) is float for v in x) for x in seen)
        assert type(out) is np.ndarray and out[0] == -math.inf and out[1] == 0.0

    def test_second_directional_quadratic_form(self):
        rng = np.random.default_rng(9)
        q = rng.normal(size=(4, 4))
        q = q + q.T
        x = rng.normal(size=4)
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        out = fd_second_directional(lambda y: [0.5 * (y @ q @ y)], x, v)
        assert abs(out[0] - v @ q @ v) <= 1e-5 * max(1.0, abs(v @ q @ v))
