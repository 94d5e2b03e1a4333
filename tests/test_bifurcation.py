"""Tests for the branch sweep, the exchange detector, and the Sotomayor test."""

import numpy as np
import pytest

from formation_forge import bifurcation
from formation_forge.bifurcation import (
    BranchPoint,
    gauge_slice_z_basis,
    mu_sweep,
    sotomayor_at_witness,
    sotomayor_check,
    transcritical_detect,
)
from formation_forge.dynamics import VectorFieldBundle, builtin_law
from formation_forge.equilibria import canonical_gauge, solve_ancillary_aligned
from formation_forge.errors import (
    ConfigurationError,
    FormulaDomainError,
    InfeasibleLengthsError,
)
from formation_forge.graph import mixed_adjacency, two_cycles
from formation_forge.numkernel import kron_I2, left_nullspace
from formation_forge.rigidity import (
    TargetLengths,
    edge_errors,
    edge_vectors,
    in_singular_set,
    make_singular_lengths,
    planar_cross,
    realize_two_cycles,
    singular_witnesses,
)
from normal_forms import logistic_equilibria, logistic_family, logistic_reference
from test_equilibria import singular_members
from test_kernel import make_law

PROOF_LENGTHS = (5.0, 8.0, 1.0, 0.8125, 0.3125)


def squared_bundle(lengths):
    return VectorFieldBundle(
        graph=two_cycles(), law=builtin_law("gradient_squared"), lengths=lengths
    )


def singular_setup():
    out = make_singular_lengths(1.0, 5.0, 4.0, 2.0)
    return out, squared_bundle(out.lengths)


@pytest.fixture(scope="module")
def canonical_sweep():
    _, bundle = singular_setup()
    return mu_sweep(bundle, eps=0.2, samples=21, mu_edge=2)


class TestSotomayorNormalForm:
    def test_logistic_scalars_are_exact(self):
        report = sotomayor_check(logistic_family, 0.0)
        assert report.verdict
        assert report.zero_eig_unique
        assert not report.degenerate
        assert abs(report.t_mu) <= 1e-9
        assert report.t_quad == pytest.approx(-2.0, abs=1e-6)
        assert report.t_mixed == pytest.approx(1.0, abs=1e-6)

    def test_saddle_node_fails_the_parameter_condition(self):
        report = sotomayor_check(lambda x, mu: mu - x * x, 0.0)
        assert not report.verdict
        assert abs(report.t_mu) == pytest.approx(1.0, abs=1e-6)

    def test_rejected_away_from_equilibria(self):
        with pytest.raises(FormulaDomainError, match="equilibrium"):
            sotomayor_check(logistic_family, 0.5)

    def test_nan_residual_is_refused(self):
        def family(x, mu):
            return np.full_like(np.asarray(x, dtype=float), np.nan)

        with pytest.raises(FormulaDomainError, match="residual nan"):
            sotomayor_check(family, np.zeros(2))

    def test_double_zero_is_degenerate(self):
        def family(x, mu):
            x = np.asarray(x, dtype=float)
            return mu * x - x**3

        report = sotomayor_check(family, np.zeros(2))
        assert report.degenerate
        assert not report.zero_eig_unique
        assert not report.verdict

    def test_the_nondegeneracy_bound_decides_the_verdict(self, monkeypatch):
        # The logistic form's mixed scalar is 1 and its quadratic one -2.
        monkeypatch.setattr(bifurcation, "NONDEGEN_TOL", 0.99)
        assert sotomayor_check(logistic_family, 0.0).verdict
        monkeypatch.setattr(bifurcation, "NONDEGEN_TOL", 1.01)
        assert not sotomayor_check(logistic_family, 0.0).verdict


class TestSotomayorAtWitness:
    def test_constructed_singular_targets_pass(self):
        out, bundle = singular_setup()
        report = sotomayor_at_witness(bundle, out.witness, mu_edge=2)
        assert report.verdict
        assert report.zero_eig_unique
        assert report.others_negative
        assert abs(report.t_mu) <= 1e-6 * report.fmu_norm
        assert abs(report.t_quad) == pytest.approx(0.973171, abs=1e-4)
        assert abs(report.t_mixed) == pytest.approx(0.028791, abs=1e-4)
        assert report.fmu_norm == pytest.approx(3.4378, abs=1e-3)

    def test_proof_example_lengths_have_a_degenerate_mixed_term(self):
        # At these targets the witness kernel direction does not excite
        # the perturbed edge, so the mixed nondegeneracy scalar vanishes
        # structurally and only the quadratic condition can be verified.
        lengths = TargetLengths(d=PROOF_LENGTHS)
        assert in_singular_set(lengths)
        bundle = VectorFieldBundle(
            graph=two_cycles(), law=builtin_law("gradient_squared"), lengths=lengths
        )
        witness = singular_witnesses(realize_two_cycles(bundle.graph, lengths))[0]
        report = sotomayor_at_witness(bundle, witness, mu_edge=2)
        assert report.zero_eig_unique
        assert report.others_negative
        assert abs(report.t_mu) <= 1e-6 * report.fmu_norm
        assert abs(report.t_quad) == pytest.approx(0.186008, abs=1e-4)
        assert abs(report.t_mixed) <= 1e-6
        assert not report.verdict

    def test_proof_example_framework_realizes_the_lengths(self):
        from formation_forge.rigidity import Framework

        x = np.array([[0.0, 0.0], [-2.0, 1.0], [0.0, -1.0], [0.5, -0.25]])
        fw = Framework(graph=two_cycles(), x=x)
        z = edge_vectors(fw)
        assert tuple(np.sum(z * z, axis=1)) == PROOF_LENGTHS
        assert abs(planar_cross(z[0], z[4])) <= 1e-12


class TestGaugeSliceZBasis:
    def test_orthonormal_and_annihilates_constraints(self):
        out, bundle = singular_setup()
        basis = gauge_slice_z_basis(bundle, out.witness)
        assert basis.shape == (10, 5)
        assert np.max(np.abs(basis.T @ basis - np.eye(5))) <= 1e-12
        z0 = edge_vectors(out.witness)
        cycles = left_nullspace(mixed_adjacency(bundle.graph), 1e-12)
        assert np.max(np.abs(kron_I2(cycles.T) @ basis)) <= 1e-12
        rotation = np.column_stack([-z0[:, 1], z0[:, 0]]).ravel()
        assert np.max(np.abs(rotation @ basis)) <= 1e-12


class TestMuSweep:
    def test_canonical_sweep_has_both_full_branches(self, canonical_sweep):
        by_branch = {}
        for p in canonical_sweep:
            by_branch.setdefault(p.branch, []).append(p)
        assert set(by_branch) == {"design", "ancillary_aligned"}
        assert len(by_branch["design"]) == 21
        assert len(by_branch["ancillary_aligned"]) == 21

    def test_branches_coincide_at_the_singular_point(self, canonical_sweep):
        at_zero = [p for p in canonical_sweep if abs(p.mu) <= 1e-15]
        assert len(at_zero) == 2
        a, b = (canonical_gauge(p.framework).x for p in at_zero)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_design_branch_tracks_the_perturbed_targets(self, canonical_sweep):
        out, _ = singular_setup()
        for p in canonical_sweep:
            if p.branch != "design":
                continue
            lengths = out.lengths.perturbed(2, p.mu)
            assert np.max(np.abs(edge_errors(p.framework, lengths, "squared"))) <= 1e-9

    def test_each_point_carries_its_samples_targets(self, canonical_sweep):
        out, _ = singular_setup()
        for p in canonical_sweep:
            assert p.lengths.d == out.lengths.perturbed(2, p.mu).d

    def test_stability_reads_the_leading_real_part_relative_to_tol_zero(self):
        # Two design points of one drawn singular member, both with a negative
        # leading real part against a spectral radius of 69.39: the ratio
        # -7.8e-7 is within TOL_ZERO (1e-6) of zero, so not stable, and
        # -1.05e-6 is past it. TOL_ZERO 1e-3 times smaller calls the first
        # stable, 1e3 times larger the second not stable.
        d = singular_members(1, seed=1)[1]  # the first of the twelve that the sample pins draw
        points = mu_sweep(squared_bundle(TargetLengths(d=d)), eps=0.2, samples=21, mu_edge=2)
        design = {round(p.mu, 12): p for p in points if p.branch == "design"}
        assert design[0.06].leading_real == pytest.approx(-5.40e-5, rel=1e-2)
        assert not design[0.06].stable
        assert design[0.08].leading_real == pytest.approx(-7.29e-5, rel=1e-2)
        assert design[0.08].stable

    def test_aligned_branch_meets_middle_targets_only(self, canonical_sweep):
        out, _ = singular_setup()
        for p in canonical_sweep:
            if p.branch != "ancillary_aligned":
                continue
            lengths = out.lengths.perturbed(2, p.mu)
            errs = edge_errors(p.framework, lengths, "squared")
            assert np.max(np.abs(errs[1:4])) <= 1e-9
            z = edge_vectors(p.framework)
            n1, n5 = np.hypot(*z[0]), np.hypot(*z[4])
            assert abs(planar_cross(z[0], z[4])) <= 1e-8 * n1 * n5
            if abs(p.mu) >= 0.199:
                assert abs(errs[0]) > 1e-6 and abs(errs[4]) > 1e-6

    def test_leading_eigenvalues_exchange_sign(self, canonical_sweep):
        for p in canonical_sweep:
            if abs(p.mu) < 0.05:
                continue
            if p.branch == "design":
                assert np.sign(p.leading_real) == -np.sign(p.mu)
            else:
                assert np.sign(p.leading_real) == np.sign(p.mu)

    def test_a_failed_step_leaves_a_gap(self):
        # The aligned branch through this witness ends at mu = 0: for mu > 0
        # the continuation finds no root, and the scan's nearest aligned
        # equilibrium at the next sample is about 2 away, on another branch.
        out = make_singular_lengths(1.0, 1.0, 2.0, -2.0)
        points = mu_sweep(squared_bundle(out.lengths), eps=0.2, samples=21, mu_edge=2)
        mus = np.linspace(-0.2, 0.2, 21)
        design = [p for p in points if p.branch == "design"]
        aligned = [p for p in points if p.branch == "ancillary_aligned"]
        assert [p.mu for p in design] == mus.tolist()
        assert [p.mu for p in aligned] == mus[:11].tolist()
        report = transcritical_detect(points)
        assert report.indeterminate and "gaps" in report.reason
        beyond = solve_ancillary_aligned(squared_bundle(out.lengths.perturbed(2, float(mus[11]))))
        assert beyond
        end = aligned[-1].framework.x
        assert min(np.max(np.abs(r.framework.x - end)) for r in beyond) > 1.9

    def test_a_design_sample_the_realizer_refuses_leaves_a_gap(self, monkeypatch):
        # A realizer that refuses one interior sample's targets: the design
        # branch has no point there, continues past it from the last point,
        # and the detector reports the gap.
        _, bundle = singular_setup()
        mus = np.linspace(-0.2, 0.2, 21).tolist()
        refused = bundle.lengths.perturbed(2, mus[15]).d
        realize = bifurcation.realize_two_cycles

        def realize_but_one(graph, lengths):
            if lengths.d == refused:
                raise InfeasibleLengthsError("refused at one sample")
            return realize(graph, lengths)

        monkeypatch.setattr(bifurcation, "realize_two_cycles", realize_but_one)
        points = mu_sweep(bundle, eps=0.2, samples=21, mu_edge=2)
        assert [p.mu for p in points if p.branch == "design"] == mus[:15] + mus[16:]
        assert [p.mu for p in points if p.branch == "ancillary_aligned"] == mus
        report = transcritical_detect(points)
        assert report.indeterminate and report.reason == "branch grids differ; the sweep has gaps"

    def test_a_design_that_is_no_equilibrium_leaves_a_gap(self):
        # Under test_kernel's coupled pair, agent 1's weights do not vanish at
        # the targets, so no design realization is an equilibrium of the flow.
        _, bundle = singular_setup()
        points = mu_sweep(
            VectorFieldBundle(graph=bundle.graph, law=make_law("pair"), lengths=bundle.lengths),
            eps=0.2, samples=21, mu_edge=2,
        )
        assert not [p for p in points if p.branch == "design"]
        report = transcritical_detect(points)
        assert report.indeterminate and report.reason == "fewer than two branches in the sweep"

    def test_rejects_empty_grids(self):
        _, bundle = singular_setup()
        with pytest.raises(ConfigurationError):
            mu_sweep(bundle, eps=0.2, samples=0, mu_edge=2)

    def test_rejects_other_graphs(self):
        from formation_forge.graph import FormationGraph

        out, _ = singular_setup()
        triangle = VectorFieldBundle(
            graph=FormationGraph(n=3, edges=((0, 1), (1, 2), (2, 0))),
            law=builtin_law("gradient_squared"),
            lengths=TargetLengths(d=(1.0, 1.0, 1.0)),
        )
        # the two-cycles edges with a fifth, idle agent are another graph
        idle = VectorFieldBundle(
            graph=FormationGraph(n=5, edges=two_cycles().edges),
            law=builtin_law("gradient_squared"),
            lengths=out.lengths,
        )
        for bundle in (triangle, idle):
            with pytest.raises(ConfigurationError, match="two-cycles"):
                mu_sweep(bundle, eps=0.2, samples=21, mu_edge=2)

    def test_infeasible_endpoint_raises(self):
        # sweep_s0's third target is 4: mu = -5 takes it to -1, and the refusal says so.
        _, bundle = singular_setup()
        message = (
            "^the sweep's end mu = -5 takes edge 3's squared target 4 to -1, "
            "outside the positive range$"
        )
        with pytest.raises(InfeasibleLengthsError, match=message):
            mu_sweep(bundle, eps=5.0, samples=21, mu_edge=2)

    def test_a_grid_wider_than_the_float_range_is_refused_before_numpy_sees_it(self):
        # np.linspace overflowed on the width with a RuntimeWarning and gave NaN ends.
        _, bundle = singular_setup()
        with pytest.raises(ConfigurationError, match="half-width 1e\\+308 passes the float range"):
            mu_sweep(bundle, eps=1e308, samples=21, mu_edge=2)

    def test_a_positive_end_that_breaks_a_triangle_names_the_triangle(self):
        _, bundle = singular_setup()
        with pytest.raises(InfeasibleLengthsError, match="violate the triangle inequality"):
            mu_sweep(bundle, eps=3.9, samples=21, mu_edge=2)

    @pytest.mark.parametrize("mu_edge", [-1, 5])
    def test_a_swept_edge_outside_the_graph_is_refused(self, mu_edge):
        # -1 swept the fifth edge, as 4 does; 5 ended in a bare IndexError.
        out, bundle = singular_setup()
        with pytest.raises(ConfigurationError, match=f"edge index {mu_edge} outside 0..4"):
            mu_sweep(bundle, eps=0.2, samples=21, mu_edge=mu_edge)
        with pytest.raises(ConfigurationError, match=f"edge index {mu_edge} outside 0..4"):
            sotomayor_at_witness(bundle, out.witness, mu_edge=mu_edge)


class TestTranscriticalDetect:
    def test_canonical_sweep_is_detected(self, canonical_sweep):
        report = transcritical_detect(canonical_sweep)
        assert report.detected
        assert not report.indeterminate
        assert report.grid_step == pytest.approx(0.02, abs=1e-12)
        for mu_c in report.crossings.values():
            assert abs(mu_c) <= 1e-9
        assert (
            report.orientation
            == "ancillary_aligned stable below the crossing, design stable above"
        )

    def test_generic_targets_show_no_crossing(self):
        bundle = squared_bundle(TargetLengths(d=(4.0, 6.76, 4.0, 10.89, 1.96)))
        points = mu_sweep(bundle, eps=0.2, samples=21, mu_edge=2)
        report = transcritical_detect(points)
        assert not report.detected
        assert not report.indeterminate
        assert "changes sign" in report.reason

    def test_single_sample_sweep_is_indeterminate(self):
        _, bundle = singular_setup()
        report = transcritical_detect(mu_sweep(bundle, eps=0.2, samples=1, mu_edge=2))
        assert report.indeterminate
        assert "fewer than two sweep points" in report.reason

    def test_empty_input_is_indeterminate(self):
        report = transcritical_detect([])
        assert report.indeterminate
        assert report.reason == "no sweep points"

    @staticmethod
    def _points(branch, mus, leads):
        return [
            BranchPoint(
                mu=float(m), branch=branch, framework=None, lengths=None,
                leading_real=float(lr), stable=lr < 0,
            )
            for m, lr in zip(mus, leads)
        ]

    def test_one_branch_is_indeterminate(self):
        mus = np.linspace(-0.2, 0.2, 5)
        report = transcritical_detect(self._points("design", mus, mus))
        assert report.indeterminate
        assert "fewer than two branches" in report.reason

    def test_three_branches_are_indeterminate(self):
        mus = np.linspace(-0.2, 0.2, 5)
        points = (
            self._points("a", mus, mus)
            + self._points("b", mus, -mus)
            + self._points("c", mus, mus)
        )
        report = transcritical_detect(points)
        assert report.indeterminate
        assert "more than two branches" in report.reason

    def test_gapped_grids_are_indeterminate(self):
        mus = np.linspace(-0.2, 0.2, 5)
        points = self._points("a", mus, mus) + self._points("b", mus[:-1], -mus[:-1])
        report = transcritical_detect(points)
        assert report.indeterminate
        assert "gaps" in report.reason

    def test_non_uniform_grid_is_indeterminate(self):
        mus = [-0.2, -0.1, 0.0, 0.05, 0.2]
        points = self._points("a", mus, mus) + self._points("b", mus, [-m for m in mus])
        report = transcritical_detect(points)
        assert report.indeterminate
        assert "not uniform" in report.reason

    def test_agreeing_sign_patterns_are_a_determinate_no(self):
        mus = np.linspace(-0.2, 0.2, 5)
        points = self._points("a", mus, mus) + self._points("b", mus, 2.0 * mus)
        report = transcritical_detect(points)
        assert not report.detected
        assert not report.indeterminate
        assert "do not exchange stability" in report.reason

    def test_far_crossing_is_a_determinate_no(self):
        mus = np.linspace(-0.2, 0.2, 5)
        points = self._points("a", mus, mus - 0.15) + self._points("b", mus, -mus)
        report = transcritical_detect(points)
        assert not report.detected
        assert not report.indeterminate
        assert "farther than one grid step" in report.reason


class TestLogisticReference:
    def test_equilibria_labels(self):
        assert logistic_equilibria(-1.0) == {0.0: True, -1.0: False}
        assert logistic_equilibria(1.0) == {0.0: False, 1.0: True}
        assert logistic_equilibria(0.0) == {0.0: False}

    def test_reference_rows_drive_the_detector(self):
        rows = logistic_reference(mu_range=0.2, samples=21)
        report = transcritical_detect(rows)
        assert report.detected
        assert report.crossings["zero"] == pytest.approx(0.0, abs=1e-12)
        assert report.crossings["carrying"] == pytest.approx(0.0, abs=1e-12)
        assert report.orientation == "zero stable below the crossing, carrying stable above"

    def test_reference_rows_match_the_closed_form(self):
        for row in logistic_reference(mu_range=0.1, samples=5):
            expected = row.mu if row.branch == "zero" else -row.mu
            assert row.leading_real == expected
            assert row.stable == (expected < 0.0)
