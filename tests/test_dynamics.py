"""Tests for the control laws, the formation flow, and its factorizations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from formation_forge.dynamics import (
    BUILTIN_LAW_NAMES,
    CustomLaw,
    VectorFieldBundle,
    builtin_law,
    edge_weights,
    eval_F_x,
    eval_F_z,
    jacobian_d,
    jacobian_x,
    jacobian_z,
    reduced_J,
    verify_compatibility,
    zdprime_vectors,
    zprime_vectors,
)
from formation_forge.errors import (
    ConfigurationError,
    FormulaDomainError,
    InconsistentStateError,
    UnknownLawError,
)
from formation_forge.graph import FormationGraph, graph_matrices, mixed_adjacency, two_cycles
from formation_forge.numkernel import (
    eigenvalues,
    fd_jacobian,
    integrate_ode,
    kron_I2,
    left_nullspace,
    rank_tol,
)
from formation_forge.rigidity import (
    Framework,
    TargetLengths,
    edge_vectors,
    make_singular_lengths,
    realize_two_cycles,
)

BENCHMARK_SQUARED = (4.0, 6.76, 4.0, 10.89, 1.96)


def squared_bundle(d, gain=1.0):
    return VectorFieldBundle(
        graph=two_cycles(),
        law=builtin_law("gradient_squared", gain=gain),
        lengths=TargetLengths(d=tuple(d)),
    )


def random_design_point(rng):
    """A random framework together with the bundle it is an equilibrium of."""
    fw = Framework(graph=two_cycles(), x=rng.normal(size=(4, 2)))
    z = edge_vectors(fw)
    d = tuple(np.sum(z * z, axis=1))
    return fw, z, squared_bundle(d)


class TestControlLaws:
    @pytest.mark.parametrize("name", BUILTIN_LAW_NAMES)
    def test_builtin_weights_vanish_at_zero_error(self, name):
        law = builtin_law(name, gain=1.7)
        assert verify_compatibility(law, (0.5, 1.0, 4.0, 10.89)) == 0.0

    def test_gradient_squared_weight_and_derivatives(self):
        law = builtin_law("gradient_squared", gain=2.0)
        assert law.weight(4.0, 9.0) == 10.0
        assert law.weight_dlen(4.0, 9.0) == 2.0
        assert law.weight_dtarget(4.0, 9.0) == -2.0
        assert law.weight_dlen2(4.0, 9.0) == 0.0

    def test_gradient_plain_weight(self):
        law = builtin_law("gradient_plain", gain=3.0)
        assert law.weight(4.0, 9.0) == pytest.approx(3.0, abs=1e-15)
        assert law.weight_dlen(4.0, 9.0) == pytest.approx(0.5, abs=1e-15)

    def test_literal_plain_law_repels(self):
        literal = builtin_law("eq1_plain")
        corrected = builtin_law("eq1_plain", sign_corrected=True)
        reference = builtin_law("gradient_plain")
        assert literal.weight(4.0, 9.0) == -reference.weight(4.0, 9.0)
        assert corrected.weight(4.0, 9.0) == reference.weight(4.0, 9.0)

    def test_unknown_law_lists_builtins(self):
        with pytest.raises(UnknownLawError, match="gradient_squared"):
            builtin_law("bang_bang")

    def test_nonpositive_gain_rejected(self):
        with pytest.raises(ConfigurationError):
            builtin_law("gradient_squared", gain=0.0)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf")])
    def test_nonfinite_gain_rejected(self, gain):
        with pytest.raises(ConfigurationError, match="finite and positive"):
            builtin_law("gradient_squared", gain=gain)

    def test_custom_law_finite_difference_hooks(self):
        law = CustomLaw(
            lambda d, s2: (s2 - d) + 0.3 * (s2 - d) ** 2,
            name="quadratic",
        )
        d, s2 = 2.0, 3.5
        e = s2 - d
        assert law.weight(d, s2) == pytest.approx(e + 0.3 * e * e, abs=1e-12)
        assert law.weight_dlen(d, s2) == pytest.approx(1.0 + 0.6 * e, abs=1e-8)
        assert law.weight_dtarget(d, s2) == pytest.approx(-1.0 - 0.6 * e, abs=1e-8)
        assert law.weight_dlen2(d, s2) == pytest.approx(0.6, abs=1e-5)

    def test_custom_pair_law_cross_derivatives(self):
        def pair(d_pair, s2_pair, s):
            ea = s2_pair[0] - d_pair[0]
            eb = s2_pair[1] - d_pair[1]
            return ea * (1.0 + 0.1 * s2_pair[1]), eb * (1.0 - 0.2 * s2_pair[0])

        law = CustomLaw(lambda d, s2: s2 - d, name="coupled", pair_func=pair)
        assert not law.separable
        d_pair, s2_pair = (1.0, 2.0), (1.5, 2.5)
        cab, cba = law.pair_cross(d_pair, s2_pair, 0.4)
        assert cab == pytest.approx(0.1 * (s2_pair[0] - d_pair[0]), abs=1e-8)
        assert cba == pytest.approx(-0.2 * (s2_pair[1] - d_pair[1]), abs=1e-8)


class TestBundle:
    def test_length_count_must_match_edges(self):
        with pytest.raises(ConfigurationError):
            squared_bundle((1.0, 1.0))

    def test_convention_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="convention"):
            VectorFieldBundle(
                graph=two_cycles(),
                law=builtin_law("gradient_plain"),
                lengths=TargetLengths(d=BENCHMARK_SQUARED),
            )

    def test_with_lengths_swaps_targets_only(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        other = b.with_lengths(TargetLengths(d=(1.0, 5.0, 4.0, 8.0, 4.0)))
        assert other.graph is b.graph and other.law is b.law
        assert other.lengths.d == (1.0, 5.0, 4.0, 8.0, 4.0)


class TestAgentField:
    def test_vanishes_on_design_frameworks(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        for fw in realize_two_cycles(two_cycles(), b.lengths):
            assert np.max(np.abs(eval_F_x(b, fw.x))) <= 1e-12

    def test_vanishes_on_superposed_agents(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        assert np.max(np.abs(eval_F_x(b, np.ones((4, 2))))) == 0.0

    def test_collinear_states_stay_collinear(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        x = np.array([[0.0, 0.0], [1.0, 0.0], [2.5, 0.0], [-0.7, 0.0]])
        assert np.max(np.abs(eval_F_x(b, x)[:, 1])) == 0.0

    def test_flat_input_gives_flat_output(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 2))
        flat = eval_F_x(b, x.ravel())
        assert flat.shape == (8,)
        assert np.array_equal(flat, eval_F_x(b, x).ravel())

    def test_velocity_reads_only_observed_agents(self):
        # Edges run 1->2, 2->3, 3->1, 4->3, 1->4. Moving agent 2 leaves
        # the velocities of agents 3 and 4 untouched, moving agent 3
        # leaves agent 1 untouched, and moving agent 4 leaves agents 2
        # and 3 untouched. The untouched rows must agree bit for bit,
        # not merely closely.
        b = squared_bundle(BENCHMARK_SQUARED)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.normal(size=(4, 2))
            base = eval_F_x(b, x)
            moved = x.copy()
            moved[1] += rng.normal(size=2)
            bumped = eval_F_x(b, moved)
            assert np.array_equal(bumped[2], base[2])
            assert np.array_equal(bumped[3], base[3])
            moved = x.copy()
            moved[2] += rng.normal(size=2)
            bumped = eval_F_x(b, moved)
            assert np.array_equal(bumped[0], base[0])
            moved = x.copy()
            moved[3] += rng.normal(size=2)
            bumped = eval_F_x(b, moved)
            assert np.array_equal(bumped[1], base[1])
            assert np.array_equal(bumped[2], base[2])

    def test_rigid_motion_equivariance(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=(4, 2))
            theta = rng.uniform(0.0, 2.0 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            rot = np.array([[c, -s], [s, c]])
            t = rng.normal(size=2)
            moved = eval_F_x(b, x @ rot.T + t)
            assert np.max(np.abs(moved - eval_F_x(b, x) @ rot.T)) <= 1e-12


def gather_scatter_field(b, x):
    """The agent field as a gather, :func:`edge_weights` and a scatter.

    The flat edge vectors are gathered edge by edge, and each ``u_k z_k``
    is added into its origin agent in edge order from 0.0, as a list of
    floats. ``VectorFieldBundle.flow`` must match it bit for bit.
    """
    xs = np.asarray(x, dtype=float).ravel().tolist()
    z = []
    for o, t in b.graph.edges:
        z.append(xs[2 * t] - xs[2 * o])
        z.append(xs[2 * t + 1] - xs[2 * o + 1])
    u = edge_weights(b, z)
    xdot = [0.0] * len(xs)
    for k, (o, _) in enumerate(b.graph.edges):
        xdot[2 * o] += u[k] * z[2 * k]
        xdot[2 * o + 1] += u[k] * z[2 * k + 1]
    return xdot


def coupled_pair(d_pair, s2_pair, s):
    """tests/test_kernel.py's two-coleader law that reads the pair's inner product."""
    return (s2_pair[0] - d_pair[0] + 0.1 * s, s2_pair[1] - d_pair[1] - 0.2 * s)


FLOW_LAWS = {
    **{name: builtin_law(name) for name in BUILTIN_LAW_NAMES},
    "separable": CustomLaw(lambda d, s2: (s2 - d) * (1.0 + 0.5 * s2), name="separable"),
    "pair": CustomLaw(lambda d, s2: s2 - d, name="pair", pair_func=coupled_pair),
}
# Agent 1 (1-based) observes two others, agents 2 and 4 one each, and agent 3
# observes nobody, so its velocity stays 0.0.
IDLE_AGENT = FormationGraph(n=4, edges=((0, 1), (0, 2), (1, 2), (3, 1)))


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestFloatFlow:
    @settings(max_examples=80, deadline=None)
    @given(
        law_name=st.sampled_from(sorted(FLOW_LAWS)),
        graph=st.sampled_from((two_cycles(), IDLE_AGENT)),
        coords=st.lists(st.floats(-5.0, 5.0), min_size=8, max_size=8),
        collapse=st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_matches_the_gather_scatter_oracle_bit_for_bit(
        self, law_name, graph, coords, collapse
    ):
        law = FLOW_LAWS[law_name]
        values = (2.0, 2.6, 2.0, 3.3, 1.4)[: graph.m]
        b = VectorFieldBundle(
            graph=graph, law=law, lengths=TargetLengths.from_values(values, law.convention)
        )
        if collapse is not None:
            # Coincident agents give the edge between them zero length.
            o, t = graph.edges[collapse % graph.m]
            coords[2 * t : 2 * t + 2] = coords[2 * o : 2 * o + 2]
        expected = gather_scatter_field(b, coords)
        flow = b.flow(list(coords))
        assert all(type(v) is float for v in flow)
        assert same_bits(flow, expected)
        assert same_bits(eval_F_x(b, np.array(coords)), expected)
        rows = eval_F_x(b, np.array(coords).reshape(4, 2))
        assert rows.shape == (4, 2) and same_bits(rows.ravel(), expected)

    def test_bundle_reads_the_graph_cache(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        assert b.matrices is graph_matrices(b.graph) is b.matrices


class TestEdgeField:
    def test_vanishes_on_design_edge_vectors(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        for fw in realize_two_cycles(two_cycles(), b.lengths):
            z = edge_vectors(fw)
            assert np.max(np.abs(eval_F_z(b, z))) <= 1e-12

    def test_pushforward_of_agent_field(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        mixed2 = kron_I2(mixed_adjacency(b.graph))
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=(4, 2))
            z = edge_vectors(Framework(graph=b.graph, x=x))
            assert np.max(np.abs(eval_F_z(b, z).ravel() - mixed2 @ eval_F_x(b, x).ravel())) <= 1e-12

    def test_cycle_violation_is_rejected(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]).copy()
        z[0] += np.array([0.5, 0.0])
        with pytest.raises(InconsistentStateError, match="cycle"):
            eval_F_z(b, z)

    def test_check_flag_admits_off_surface_states(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]).copy()
        z[0] += np.array([0.5, 0.0])
        out = eval_F_z(b, z, check=False)
        assert out.shape == (5, 2)

    def test_cycle_sums_are_conserved_along_the_flow(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        cycles = left_nullspace(mixed_adjacency(b.graph), 1e-12)
        fw = realize_two_cycles(two_cycles(), b.lengths)[0]
        rng = np.random.default_rng(4)
        x = fw.x + 0.1 * rng.normal(size=(4, 2))
        z0 = edge_vectors(Framework(graph=b.graph, x=x))
        run = integrate_ode(
            lambda v: eval_F_z(b, v, check=False), z0.ravel(), t_end=5.0, step=1e-3
        )
        z_end = run.final_state.reshape(5, 2)
        assert np.max(np.abs(cycles.T @ z_end)) <= 1e-8


class TestResponseVectors:
    def test_zprime_scales_with_gain(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(5, 2))
        for gain in (1.0, 1.75):
            b = squared_bundle(BENCHMARK_SQUARED, gain=gain)
            assert np.array_equal(zprime_vectors(b, z), 2.0 * gain * z)

    def test_zdprime_is_target_sensitivity(self):
        rng = np.random.default_rng(6)
        z = rng.normal(size=(5, 2))
        b = squared_bundle(BENCHMARK_SQUARED, gain=1.25)
        assert np.array_equal(zdprime_vectors(b, z), -1.25 * z)

    def test_pair_coupling_enters_zprime(self):
        def pair(d_pair, s2_pair, s):
            return (s2_pair[0] - d_pair[0], s2_pair[1] - d_pair[1])

        def cross_pair(d_pair, s2_pair, s):
            ea = s2_pair[0] - d_pair[0]
            eb = s2_pair[1] - d_pair[1]
            return ea + 0.1 * s2_pair[1] * ea, eb

        plain = CustomLaw(lambda d, s2: s2 - d, name="sep", pair_func=pair)
        coupled = CustomLaw(lambda d, s2: s2 - d, name="cross", pair_func=cross_pair)
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 2))
        b0 = VectorFieldBundle(
            graph=two_cycles(), law=plain, lengths=TargetLengths(d=BENCHMARK_SQUARED)
        )
        b1 = VectorFieldBundle(
            graph=two_cycles(), law=coupled, lengths=TargetLengths(d=BENCHMARK_SQUARED)
        )
        zp0 = zprime_vectors(b0, z)
        zp1 = zprime_vectors(b1, z)
        # Vertex 1 originates edges 1 and 5; only those rows pick up the
        # partner term, and the coupled row mixes in the partner edge.
        assert np.array_equal(zp0[1:4], zp1[1:4])
        assert not np.allclose(zp0[0], zp1[0])


class TestJacobianZ:
    def test_matches_finite_differences_at_design_points(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            _, z, b = random_design_point(rng)
            analytic = jacobian_z(b, z)
            numeric = fd_jacobian(lambda v: eval_F_z(b, v, check=False), z.ravel())
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale

    def test_matches_finite_differences_for_plain_law(self):
        rng = np.random.default_rng(9)
        fw = Framework(graph=two_cycles(), x=rng.normal(size=(4, 2)))
        z = edge_vectors(fw)
        values = tuple(np.sqrt(np.sum(z * z, axis=1)))
        b = VectorFieldBundle(
            graph=two_cycles(),
            law=builtin_law("gradient_plain"),
            lengths=TargetLengths.from_values(values, convention="plain"),
        )
        analytic = jacobian_z(b, z)
        numeric = fd_jacobian(lambda v: eval_F_z(b, v, check=False), z.ravel())
        scale = max(1.0, float(np.max(np.abs(analytic))))
        assert np.max(np.abs(analytic - numeric)) <= 1e-5 * scale

    def test_zero_eigenvalue_multiplicity_is_five(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            _, z, b = random_design_point(rng)
            values = np.array(eigenvalues(jacobian_z(b, z)).values)
            radius = max(1.0, float(np.max(np.abs(values))))
            assert int(np.sum(np.abs(values) <= 1e-8 * radius)) == 5

    def test_nonzero_spectrum_matches_reduced_jacobian(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            _, z, b = random_design_point(rng)
            full = np.array(eigenvalues(jacobian_z(b, z)).values)
            order = np.argsort(np.abs(full))
            nonzero = np.sort_complex(full[order[5:]])
            small = np.sort_complex(np.array(eigenvalues(reduced_J(b, z)).values))
            assert np.max(np.abs(nonzero - small)) <= 1e-6

    def test_refused_away_from_design_points(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]) * 1.1
        with pytest.raises(FormulaDomainError, match="design equilibria"):
            jacobian_z(b, z)


def fig2_bundle(law_name):
    law = builtin_law(law_name)
    lengths = TargetLengths.from_values((2.0, 2.6, 2.0, 3.3, 1.4), convention="plain")
    return VectorFieldBundle(
        graph=two_cycles(), law=law, lengths=TargetLengths(lengths.d, law.convention)
    )


def relative_gap(a, b):
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(b))))


class TestJacobianX:
    @settings(max_examples=60, deadline=None)
    @given(
        law_name=st.sampled_from(BUILTIN_LAW_NAMES),
        x=st.lists(st.floats(-4.0, 4.0), min_size=8, max_size=8),
    )
    def test_matches_finite_differences_away_from_equilibrium(self, law_name, x):
        b = fig2_bundle(law_name)
        x = np.array(x)
        z = edge_vectors(Framework(graph=b.graph, x=x.reshape(4, 2)))
        # Central differences lose accuracy near a vanishing plain-law edge.
        assume(float(np.min(np.hypot(z[:, 0], z[:, 1]))) >= 0.1)
        numeric = fd_jacobian(lambda v: eval_F_x(b, v), x)
        assert relative_gap(jacobian_x(b, x), numeric) <= 1e-7

    @pytest.mark.parametrize("law_name", BUILTIN_LAW_NAMES)
    def test_zero_length_edge_takes_the_limit(self, law_name):
        # Agents 2 and 3 coincide, so edge 2 has zero length; gradient_plain's
        # weight slope is infinite there but its product with z z^T tends to 0.
        b = fig2_bundle(law_name)
        x = np.array([0.0, 0.0, 1.5, 0.5, 1.5, 0.5, -1.0, 2.0])
        with np.errstate(divide="raise", invalid="raise"):
            analytic = jacobian_x(b, x)
        u2 = edge_weights(b, [0.0] * 10)[1]
        assert np.array_equal(analytic[2:4, 4:6], u2 * np.eye(2))
        assert np.array_equal(analytic[2:4, 2:4], -u2 * np.eye(2))
        # At the kink of |z| at zero, central differences are only O(h) accurate.
        numeric = fd_jacobian(lambda v: eval_F_x(b, v), x)
        assert relative_gap(analytic, numeric) <= 1e-5

    def test_pair_law_falls_back_to_finite_differences(self):
        def pair(d_pair, s2_pair, s):
            return (s2_pair[0] - d_pair[0] + s, s2_pair[1] - d_pair[1] - s)

        law = CustomLaw(lambda d, s2: s2 - d, name="inner", pair_func=pair)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths(d=(1.0,) * 5)
        )
        x = np.random.default_rng(3).normal(size=8)
        numeric = fd_jacobian(lambda v: eval_F_x(b, v), x)
        assert np.array_equal(jacobian_x(b, x), numeric)


class TestJacobianD:
    def test_matches_finite_differences_in_targets(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            _, z, b = random_design_point(rng)
            analytic = jacobian_d(b, z)

            def in_targets(dv):
                return eval_F_z(b.with_lengths(TargetLengths(d=tuple(dv))), z.ravel())

            numeric = fd_jacobian(in_targets, np.asarray(b.lengths.d))
            scale = max(1.0, float(np.max(np.abs(analytic))))
            assert np.max(np.abs(analytic - numeric)) <= 1e-6 * scale

    def test_refused_away_from_design_points(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        z = edge_vectors(realize_two_cycles(two_cycles(), b.lengths)[0]) * 1.1
        with pytest.raises(FormulaDomainError, match="design equilibria"):
            jacobian_d(b, z)

    def test_left_kernels_agree_at_a_singular_witness(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        b = squared_bundle(out.lengths.d)
        z = edge_vectors(out.witness)
        in_z = jacobian_z(b, z)
        in_d = jacobian_d(b, z)
        w_z = left_nullspace(in_z, 1e-8)
        w_d = left_nullspace(in_d, 1e-8)
        assert w_z.shape == w_d.shape
        assert np.linalg.norm(w_z.T @ in_d) <= 1e-8 * np.linalg.norm(in_d)
        assert np.linalg.norm(w_d.T @ in_z) <= 1e-8 * np.linalg.norm(in_z)


class TestReducedJacobian:
    def test_full_rank_at_generic_design_points(self):
        b = squared_bundle(BENCHMARK_SQUARED)
        for fw in realize_two_cycles(two_cycles(), b.lengths):
            reduced = reduced_J(b, edge_vectors(fw))
            assert rank_tol(reduced, 1e-8) == 5
            assert np.min(np.abs(eigenvalues(reduced).real_parts)) > 1e-6

    def test_corank_one_at_a_singular_witness(self):
        out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
        b = squared_bundle(out.lengths.d)
        reduced = reduced_J(b, edge_vectors(out.witness))
        assert rank_tol(reduced, 1e-8) == 4

    def test_zero_edge_state_loses_more_rank(self):
        b = squared_bundle((1.0, 1.0, 1.0, 4.0, 4.0))
        z = np.array([(1, 0), (-1, 0), (0, 0), (-2, 0), (2, 0)], dtype=float)
        assert rank_tol(reduced_J(b, z), 1e-9) == 3

    def test_entry_formula(self):
        rng = np.random.default_rng(13)
        z = rng.normal(size=(5, 2))
        b = squared_bundle(BENCHMARK_SQUARED, gain=1.4)
        reduced = reduced_J(b, z)
        from formation_forge.graph import edge_adjacency

        adj = edge_adjacency(b.graph)
        zp = zprime_vectors(b, z)
        for i in range(5):
            for j in range(5):
                assert reduced[i, j] == pytest.approx(adj[i, j] * float(z[i] @ zp[j]), abs=1e-14)


class TestEdgeWeights:
    def test_separable_law_broadcasts(self):
        b = squared_bundle((1.0, 1.0, 1.0, 1.0, 1.0), gain=2.0)
        z = np.array([(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], dtype=float)
        expected = 2.0 * (np.array([1.0, 1.0, 4.0, 4.0, 2.0]) - 1.0)
        assert np.array_equal(edge_weights(b, z.ravel().tolist()), expected)

    def test_pair_law_uses_the_coupled_path(self):
        def pair(d_pair, s2_pair, s):
            return (s2_pair[0] - d_pair[0] + s, s2_pair[1] - d_pair[1] - s)

        law = CustomLaw(lambda d, s2: s2 - d, name="inner", pair_func=pair)
        b = VectorFieldBundle(
            graph=two_cycles(), law=law, lengths=TargetLengths(d=(1.0,) * 5)
        )
        z = np.array([(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], dtype=float)
        u = edge_weights(b, z.ravel().tolist())
        s = float(z[0] @ z[4])
        assert u[0] == pytest.approx((1.0 - 1.0) + s, abs=1e-14)
        assert u[4] == pytest.approx((2.0 - 1.0) - s, abs=1e-14)
        # Lone edges fall back to the separable weight.
        assert u[1] == pytest.approx(0.0, abs=1e-14)
        assert u[2] == pytest.approx(3.0, abs=1e-14)
