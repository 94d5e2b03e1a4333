"""Tests for the dense linear-algebra and numerics kernel."""

import numpy as np
import pytest

from formation_forge.dynamics import VectorFieldBundle, builtin_law, eval_F_x
from formation_forge.errors import (
    BlowUpError,
    ConfigurationError,
    ConvergenceError,
    DimensionError,
)
from formation_forge.graph import mixed_adjacency, two_cycles
from formation_forge.numkernel import (
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

    def test_rejects_oversized(self):
        with pytest.raises(DimensionError):
            eigenvalues(np.eye(65))


class TestSpectrum:
    def test_ordering_descends_by_real_then_imag(self):
        spec = Spectrum.from_values([-1.0, 2.0 + 1.0j, 2.0 - 1.0j, 0.5])
        assert spec.values == (2.0 + 1.0j, 2.0 - 1.0j, 0.5 + 0.0j, -1.0 + 0.0j)

    def test_leading_real_and_stability(self):
        spec = Spectrum.from_values([-0.5, -2.0 + 1.0j, -2.0 - 1.0j])
        assert spec.leading_real == -0.5
        assert spec.is_stable(0.0)
        assert not spec.is_stable(tol=1.0)

    # With the dominant eigenvalue -10 and tol 1e-3, the margin is 1e-2.
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
        tol = 1e-3
        spec = Spectrum.from_values([-10.0, multiple * tol * 10.0, -3.0 + 4.0j, -3.0 - 4.0j])
        assert spec.is_stable(tol) is stable
        assert spec.is_hyperbolic(tol) is hyperbolic
        assert spec.unstable_count(tol) == unstable

    def test_zero_tolerance_is_the_sign(self):
        spec = Spectrum.from_values([-1e-300, -5.0])
        assert spec.is_stable(0.0) and spec.is_hyperbolic(0.0)
        assert Spectrum.from_values([1e-300, -5.0]).unstable_count(0.0) == 1
        assert not Spectrum.from_values([0.0, -5.0]).is_hyperbolic(0.0)

    def test_zero_spectrum_is_neither_stable_nor_hyperbolic(self):
        spec = Spectrum.from_values([0.0, 0.0])
        assert not spec.is_stable(1e-6)
        assert not spec.is_hyperbolic(1e-6)
        assert spec.unstable_count(1e-6) == 0

    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    def test_empty_spectrum(self, tol):
        spec = eigenvalues(np.zeros((0, 0)))
        assert spec.is_stable(tol)
        assert spec.is_hyperbolic(tol)
        assert spec.unstable_count(tol) == 0

    def test_unpaired_complex_value_is_rejected(self):
        with pytest.raises(ConvergenceError):
            Spectrum.from_values([1.0 + 1.0j, 2.0])


class TestRank:
    def test_zero_matrix(self):
        assert rank_tol(np.zeros((3, 3)), 1e-9) == 0

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
            assert rank_tol(kron_I2(m)) == 2 * rank_tol(m)

    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ConfigurationError):
            rank_tol(np.eye(2), 0.0)


class TestLeftNullspace:
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
            assert basis.shape[1] == rows - rank_tol(m)


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
        result = newton_root(lambda x: x * x - 4.0, [3.0], tol=1e-12)
        assert result.x.shape == (1,)
        assert abs(result.x[0] - 2.0) <= 1e-10
        assert result.residual <= 1e-12
        assert result.iterations >= 1

    def test_scalar_cubic(self):
        result = newton_root(lambda x: x * (1.0 - x * x), [0.8], tol=1e-12)
        assert abs(result.x[0] - 1.0) <= 1e-10

    def test_circle_intersection_matches_closed_form(self):
        # The third agent of a realization sits on two circles at once;
        # solving that system directly must land on the constructed point.
        lengths = TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0))
        fw = realize_two_cycles(two_cycles(), lengths)[0]
        x2 = fw.x[1]

        def f(p):
            return np.array(
                [
                    p @ p - lengths.d[2],
                    (p - x2) @ (p - x2) - lengths.d[1],
                ]
            )

        seed = fw.x[2] + np.array([0.05, -0.08])
        result = newton_root(f, seed, tol=1e-13)
        assert np.max(np.abs(result.x - fw.x[2])) <= 1e-10

    def test_failure_carries_last_iterate(self):
        # x^2 + 1 has no real root; the iteration must fail loudly.
        with pytest.raises(ConvergenceError) as info:
            newton_root(lambda x: x * x + 1.0, [0.5], max_iter=30)
        assert info.value.last_iterate is not None
        assert info.value.iterations is not None
        assert "stagnated" in str(info.value)

    def test_damped_steps_converge_from_far_out(self):
        # The undamped iteration on arctan diverges from |x0| > 1.39;
        # halving the step until the residual falls brings it home.
        result = newton_root(np.arctan, [3.0])
        assert abs(result.x[0]) <= 1e-12
        assert result.residual <= 1e-12

    def test_budget_exhaustion_is_reported(self):
        with pytest.raises(ConvergenceError, match="did not reach") as info:
            newton_root(np.arctan, [3.0], max_iter=2)
        assert info.value.iterations == 2

    def test_non_finite_seed_is_a_convergence_error(self):
        with pytest.raises(ConvergenceError, match="non-finite"):
            newton_root(lambda x: np.array([np.inf * x[0], x[1]]), [1.0, 1.0],
                        jac=lambda x: np.eye(2))

    def test_analytic_jacobian_is_used(self):
        calls = []

        def jac(x):
            calls.append(x)
            return np.diag(2.0 * x)

        result = newton_root(lambda x: x * x - 4.0, [3.0], jac=jac)
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
            reals = sorted(eigenvalues(jac).real_parts, reverse=True)
            if reals[3] < -1e-6:
                stable = fw
                break
        assert stable is not None
        rng = np.random.default_rng(5)
        x0 = stable.x + 0.05 * rng.normal(size=stable.x.shape)
        traj = integrate_ode(lambda x: eval_F_x(bundle, x), x0.ravel(), 40.0, step=1e-3)
        final = stable.with_positions(traj.final_state.reshape(4, 2))
        assert np.max(np.abs(edge_errors(final, lengths))) < 1e-8

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
        ],
    )
    def test_unusable_time_grid_is_a_configuration_error(self, t_end, step):
        with pytest.raises(ConfigurationError):
            integrate_ode(lambda x: [-v for v in x], 1.0, t_end, step=step)


class TestFiniteDifferences:
    def test_linear_map_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = rng.normal(size=(4, 3))
            jac = fd_jacobian(lambda v: a @ v, rng.normal(size=3))
            assert np.max(np.abs(jac - a)) <= 1e-9

    def test_logistic_derivative_vanishes_at_origin(self):
        jac = fd_jacobian(lambda x: x * (0.0 - x), np.array([0.0]))
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

    def test_second_directional_scalar_square(self):
        out = fd_second_directional(lambda x: x * x, np.array([0.3]), np.array([1.0]))
        assert abs(out[0] - 2.0) <= 1e-6

    def test_second_directional_logistic(self):
        out = fd_second_directional(
            lambda x: x * (0.7 - x), np.array([0.0]), np.array([1.0])
        )
        assert abs(out[0] + 2.0) <= 1e-6

    def test_second_directional_quadratic_form(self):
        rng = np.random.default_rng(9)
        q = rng.normal(size=(4, 4))
        q = q + q.T
        x = rng.normal(size=4)
        v = rng.normal(size=4)
        v /= np.linalg.norm(v)
        out = fd_second_directional(lambda y: 0.5 * y @ q @ y, x, v)
        assert abs(out[0] - v @ q @ v) <= 1e-5 * max(1.0, abs(v @ q @ v))
