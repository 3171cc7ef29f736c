"""Tests for drift certificates, certified bounds and the comparison harness."""

import math
import warnings

import numpy as np
import pytest

from bmtrunc import (
    BlockVector,
    BoundViolationError,
    DriftCertificate,
    GeometricTail,
    ReferenceNotConvergedError,
    bound_theorem31,
    compare_against_oracle,
    lift_certificate,
    optimize_m,
    verify_certificate,
)
from bmtrunc.drift_bounds import (
    BOUND_CHECK_SLACK,
    REFERENCE_CONVERGENCE_TOLERANCE,
    VERIFY_TOLERANCE,
)
from bmtrunc.gig1 import assemble, certificate_for_model

from helpers import (
    corner_from_dense,
    dense,
    dominance_pair,
    gig1_d2,
    mg1_d2,
    natural_walk,
    random_monotone_gig1,
    scan_optimize_m,
)

ALPHA = math.sqrt(1.5)
# drift factor of the 0.4-up / 0.6-down walk at the optimal weight base
WALK_GAMMA = 0.6 / ALPHA + 0.4 * ALPHA
WALK_B = ALPHA - 1.0


def walk_certificate(gamma: float, b: float, levels: int = 60) -> DriftCertificate:
    v = BlockVector(1, (ALPHA ** np.arange(levels))[:, None])
    tail = GeometricTail(alpha=ALPHA, coeff=[1.0])
    return DriftCertificate(v=v, gamma=gamma, b=b, tail=tail)


class TestGeometricTail:
    def test_closed_form_values(self):
        tail = GeometricTail(alpha=2.0, coeff=[1.0, 3.0], shift=0.5)
        np.testing.assert_allclose(tail.values(3), [8.5, 24.5])
        np.testing.assert_allclose(tail.values([0, 1]), [[1.5, 3.5], [2.5, 6.5]])

    def test_rejects_non_expanding_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            GeometricTail(alpha=1.0, coeff=[1.0])

    def test_rejects_bad_coeff_and_shift(self):
        with pytest.raises(ValueError, match="coefficients"):
            GeometricTail(alpha=2.0, coeff=[0.0])
        with pytest.raises(ValueError, match="non-negative"):
            GeometricTail(alpha=2.0, coeff=[1.0], shift=-0.1)


class TestDriftCertificate:
    def test_parameter_validation(self):
        v = BlockVector(1, [[1.0], [2.0]])
        with pytest.raises(ValueError, match="gamma"):
            DriftCertificate(v, gamma=1.0, b=1.0)
        with pytest.raises(ValueError, match="b must be positive"):
            DriftCertificate(v, gamma=0.5, b=0.0)
        with pytest.raises(TypeError):
            DriftCertificate(v, 0.5, 1.0, 0)  # the tail is keyword-only

    def test_weight_vector_constraints(self):
        with pytest.raises(ValueError, match="v >= 1"):
            DriftCertificate(BlockVector(1, [[0.5], [2.0]]), gamma=0.5, b=1.0)
        with pytest.raises(ValueError, match="block-increasing"):
            DriftCertificate(BlockVector(1, [[2.0], [1.0]]), gamma=0.5, b=1.0)

    def test_tail_must_match_stored_entries(self):
        v = BlockVector(1, [[1.0], [3.0]])
        with pytest.raises(ValueError, match="disagree"):
            DriftCertificate(v, 0.5, 1.0, tail=GeometricTail(alpha=2.0, coeff=[1.0]))

    def test_value_lookup_with_and_without_tail(self):
        cert = walk_certificate(WALK_GAMMA, WALK_B, levels=4)
        assert cert.value_at(2) == pytest.approx(ALPHA ** 2, rel=1e-15)
        assert cert.value_at(10) == pytest.approx(ALPHA ** 10, rel=1e-12)
        grid = cert.values_up_to(8)
        np.testing.assert_allclose(grid[:, 0], ALPHA ** np.arange(8), rtol=1e-12)

        tailless = DriftCertificate(BlockVector(1, [[1.0], [2.0]]), 0.5, 1.0)
        with pytest.raises(ValueError, match="undefined"):
            tailless.value_at(5)
        with pytest.raises(ValueError, match="undefined"):
            tailless.values_up_to(5)


class TestVerifyCertificate:
    def test_identity_boundary_row_passes(self):
        # single boundary level: Iv = v <= gamma v + b holds with room
        P = corner_from_dense(2, np.eye(2))
        cert = DriftCertificate(BlockVector(2, [[1.0, 1.0]]), gamma=0.99, b=1.0)
        check = verify_certificate(P, cert)
        assert check.ok
        assert check.violations == []

    def test_walk_certificate_passes_with_analytic_tail(self):
        check = natural_walk().verify_drift(walk_certificate(0.98, 0.23))
        assert check.ok
        # the tightest row is level 1, alpha (WALK_GAMMA - 0.98) below its ceiling
        assert check.max_slack == pytest.approx(ALPHA * (WALK_GAMMA - 0.98), rel=1e-9)

    def test_walk_certificate_fails_everywhere_above_boundary(self):
        # drift factor 0.9798 exceeds 0.97, so every non-boundary level slips
        model = natural_walk()
        check = model.verify_drift(walk_certificate(0.97, 0.23))
        assert not check.ok
        levels = {k for k, _, _ in check.violations}
        # rows 1..k_star on the corner, then the first closed-form level
        assert levels == set(range(1, model.k_star + 2))
        assert all(slack > 0 for _, _, slack in check.violations)

    def test_dense_corner_path(self):
        P = corner_from_dense(1, [[1.0, 0.0], [0.6, 0.4]])
        v = BlockVector(1, [[1.0], [2.0]])
        assert verify_certificate(P, DriftCertificate(v, 0.9, 0.2)).ok
        bad = verify_certificate(P, DriftCertificate(v, 0.7, 0.2))
        assert not bad.ok
        assert bad.violations and bad.max_slack > 0

    def test_stored_corners_match_the_dense_product(self):
        # assembled corners are rectangular: col_levels > levels
        failed = 0
        for model in (natural_walk(), mg1_d2(), gig1_d2(), random_monotone_gig1()):
            _, _, cert = certificate_for_model(model)
            P = assemble(model, 60)
            lhs = (dense(P) @ cert.values_up_to(P.col_levels).reshape(-1)).reshape(60, P.d)
            for scale in (1.0, 0.97, 0.5):
                low = DriftCertificate(cert.v, cert.gamma * scale, cert.b, tail=cert.tail)
                rhs = low.gamma * low.values_up_to(60)
                rhs[0] += low.b
                bad = np.argwhere(lhs - rhs - VERIFY_TOLERANCE * np.maximum(1.0, rhs) > 0.0)
                check = verify_certificate(P, low)
                assert check.ok == (bad.size == 0)
                assert [(k, i) for k, i, _ in check.violations] == [tuple(x) for x in bad]
                slacks = np.array([s for _, _, s in check.violations])
                rows = tuple(bad.T)
                assert np.all(np.abs(slacks - (lhs - rhs)[rows]) <= 1e-15 * lhs[rows])
                failed += not check.ok
        assert failed >= 4

    def test_block_size_mismatch(self):
        P = corner_from_dense(2, np.eye(2))
        cert = DriftCertificate(BlockVector(1, [[1.0]]), 0.9, 1.0)
        with pytest.raises(ValueError, match="block size"):
            verify_certificate(P, cert)


class TestBoundTheorem31:
    def test_pinned_first_form(self):
        cert = DriftCertificate(BlockVector(1, [[1.0], [100.0]]), 0.5, 0.5)
        report = bound_theorem31(cert, m=1, n=1, top_mass=[0.01])
        assert report.bound1 == 2.02
        assert report.n == 1 and report.m == 1

    def test_pinned_second_form(self):
        cert = DriftCertificate(BlockVector(1, [[1.0], [100.0]]), 0.5, 0.5)
        report = bound_theorem31(cert, m=2, n=1)
        assert report.bound2 == 1.04
        assert report.bound1 is None

    def test_first_form_never_exceeds_second(self):
        # mass term of bound1 at the true stationary mass is dominated by
        # the 1/v term of bound2, so bound1 <= bound2 at any shared m
        cert = walk_certificate(WALK_GAMMA, WALK_B)
        prefactor = cert.b / (1.0 - cert.gamma)
        for n in (5, 20, 50):
            top = prefactor / cert.value_at(n)  # the largest mass the proof allows
            for m in (1, 10, 100):
                rep = bound_theorem31(cert, m, n, top_mass=top)
                assert rep.bound1 <= rep.bound2 + 1e-12

    def test_large_m_growth_is_linear(self):
        cert = DriftCertificate(BlockVector(1, [[1.0], [100.0]]), 0.5, 0.5)
        values = [bound_theorem31(cert, m, 1).bound2 for m in range(200, 210)]
        diffs = np.diff(values)
        np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)
        assert diffs[0] > 0

    def test_rejects_bad_arguments(self):
        cert = DriftCertificate(BlockVector(1, [[1.0], [100.0]]), 0.5, 0.5)
        with pytest.raises(ValueError, match="m must be"):
            bound_theorem31(cert, m=0, n=1)
        with pytest.raises(ValueError, match="top_mass"):
            bound_theorem31(cert, m=1, n=1, top_mass=[-0.1])


class TestOptimizeM:
    def test_interior_minimum_matches_brute_force(self):
        cert = walk_certificate(WALK_GAMMA, WALK_B)
        m_star, best = optimize_m(cert, 50, m_max=2000)
        prefactor = cert.b / (1.0 - cert.gamma)
        inv_v = float(np.sum(1.0 / cert.value_at(50)))
        brute = [prefactor * (4.0 * cert.gamma ** m + 2.0 * m * inv_v)
                 for m in range(1, 2001)]
        assert m_star == int(np.argmin(brute)) + 1
        assert best == min(brute)
        # frozen scan output; the interior minimum fits under the default cap
        assert m_star == 340
        assert best == pytest.approx(0.34265004588266557, rel=1e-15)
        assert optimize_m(cert, 50) == (m_star, best)

    def test_pure_geometric_runs_to_the_cap(self):
        cert = walk_certificate(WALK_GAMMA, WALK_B)
        m_star, best = optimize_m(cert, 50, m_max=77, top_mass=[0.0])
        assert m_star == 77
        prefactor = cert.b / (1.0 - cert.gamma)
        assert best == pytest.approx(4.0 * cert.gamma ** 77 * prefactor, rel=1e-15)

    def test_overflowing_weights_are_silent(self):
        # alpha^2000 is past float range on mg1_d2, so v(2000) reads inf and
        # the minimum sits at the default cap, without an overflow warning
        cert = certificate_for_model(mg1_d2())[2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m_star, best = optimize_m(cert, 2000)
        assert m_star == 120
        assert best == pytest.approx(0.0003704484477542362, rel=1e-12)

    def test_refuses_a_subnormal_minimum(self):
        # a top mass at the smallest subnormal lets the scan run down to a
        # rounding residue far below the normal range
        cert = certificate_for_model(mg1_d2())[2]
        top_mass = [5e-324, 0.0]
        assert scan_optimize_m(cert, 5, 20000, top_mass)[1] < np.finfo(float).tiny
        with pytest.raises(ValueError, match="smallest normal double"):
            optimize_m(cert, 5, m_max=20000, top_mass=top_mass)

    def test_ties_break_toward_smaller_m(self):
        # with gamma=0.5, prefactor 1 and mass 0.5 the scan sees 3.0 at m=1 and m=2
        cert = DriftCertificate(BlockVector(1, [[1.0], [2.0]]), 0.5, 0.5)
        m_star, best = optimize_m(cert, 1, m_max=5, top_mass=[0.5])
        assert (m_star, best) == (1, 3.0)

    def test_rejects_bad_arguments(self):
        cert = DriftCertificate(BlockVector(1, [[1.0], [2.0]]), 0.5, 0.5)
        with pytest.raises(ValueError, match="m_max"):
            optimize_m(cert, 1, m_max=0)

    def test_bound2_minimum_improves_with_n(self):
        cert = walk_certificate(WALK_GAMMA, WALK_B, levels=120)
        best_20 = optimize_m(cert, 20, m_max=2000)[1]
        best_100 = optimize_m(cert, 100, m_max=2000)[1]
        assert best_100 < best_20

    def test_bound2_non_increasing_in_n_at_fixed_m(self):
        cert = walk_certificate(WALK_GAMMA, WALK_B)
        values = [bound_theorem31(cert, 7, n).bound2 for n in range(1, 59)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestLiftCertificate:
    def test_pinned_arithmetic(self):
        lifted = lift_certificate(
            BlockVector(1, [[1.0], [1.0]]), gamma_prime=0.5, b_prime=1.0,
            boundary_block=[[0.25]],
        )
        assert lifted.gamma == pytest.approx(0.9, rel=1e-15)
        assert lifted.b == pytest.approx(5.0, rel=1e-15)
        np.testing.assert_allclose(lifted.v.entries, [[1.0], [5.0]])

    def test_sure_jump_halves_the_gap(self):
        lifted = lift_certificate(
            BlockVector(1, [[1.0]]), gamma_prime=0.6, b_prime=1.0,
            boundary_block=[[1.0]],
        )
        assert lifted.gamma == pytest.approx(0.8, rel=1e-15)  # (gamma' + 1) / 2
        assert lifted.b == pytest.approx(2.0, rel=1e-15)

    def test_vanishing_b_prime_is_continuous(self):
        lifted = lift_certificate(
            BlockVector(1, [[1.0], [1.0]]), gamma_prime=0.5, b_prime=1e-12,
            boundary_block=[[0.25]],
        )
        assert abs(lifted.gamma - 0.5) < 5e-12
        assert lifted.b < 1e-11
        np.testing.assert_allclose(lifted.v.entries, [[1.0], [1.0]], atol=5e-12)

    def test_tail_is_shifted_with_the_weights(self):
        tail = GeometricTail(alpha=2.0, coeff=[1.0], start=0)
        lifted = lift_certificate(
            BlockVector(1, [[1.0], [2.0]]), gamma_prime=0.5, b_prime=1.0,
            boundary_block=[[0.5]], tail=tail,
        )
        assert lifted.tail.shift == pytest.approx(2.0)  # B = 1 / 0.5
        assert lifted.tail.start == 1
        assert lifted.tail.alpha == 2.0
        assert lifted.value_at(3) == pytest.approx(8.0 + 2.0)

    def test_unreachable_boundary_is_rejected(self):
        with pytest.raises(ValueError, match="zero row sum"):
            lift_certificate(
                BlockVector(2, [[1.0, 1.0]]), 0.5, 1.0,
                boundary_block=[[0.5, 0.5], [0.0, 0.0]],
            )

    def test_rejects_bad_arguments(self):
        v = BlockVector(1, [[1.0]])
        with pytest.raises(ValueError, match="gamma_prime"):
            lift_certificate(v, 1.5, 1.0, [[1.0]])
        with pytest.raises(ValueError, match="b_prime"):
            lift_certificate(v, 0.5, 0.0, [[1.0]])
        with pytest.raises(ValueError, match="d x d"):
            lift_certificate(v, 0.5, 1.0, [[1.0, 0.0]])


class TestCompareAgainstOracle:
    def test_walk_pipeline_is_sound(self):
        model = natural_walk()
        cert = walk_certificate(WALK_GAMMA, WALK_B, levels=120)
        reports = compare_against_oracle(model, [10, 20, 50], cert, reference_level=400)
        assert [r.n for r in reports] == [10, 20, 50]
        for r in reports:
            assert r.reference_level == 400
            assert r.measured_error <= r.bound1 <= r.bound2
        errors = [r.measured_error for r in reports]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] <= 1e-6  # n=50 is already far into the tail

    def test_walk_errors_match_the_closed_form(self):
        # The walk's stationary vector is (1/3)(2/3)^k and its level-n LCB
        # truncation is that vector renormalised on 0..n, so the TV error is
        # exactly 2 (2/3)^(n+1): an oracle that needs no truncation.
        model = natural_walk()
        _, _, cert = certificate_for_model(model)
        ns = list(range(10, 201, 10))
        reports = compare_against_oracle(model, ns, cert, reference_level=1600)
        assert [r.n for r in reports] == ns
        for r in reports:
            assert abs(r.measured_error - 2.0 * (2.0 / 3.0) ** (r.n + 1)) <= 1e-12

    def test_reference_must_exceed_requested_levels(self):
        cert = walk_certificate(WALK_GAMMA, WALK_B, levels=120)
        with pytest.raises(ValueError, match="reference_level"):
            compare_against_oracle(natural_walk(), [10, 50], cert, reference_level=50)

    def test_unconverged_reference_is_reported(self):
        # A chain known by a finite corner only is measured against its own
        # truncation at the reference level, which must have converged.
        cert = walk_certificate(WALK_GAMMA, WALK_B, levels=120)
        with pytest.raises(ReferenceNotConvergedError) as exc:
            compare_against_oracle(assemble(natural_walk(), 81), [5], cert, reference_level=40)
        assert exc.value.level == 40
        assert exc.value.gap > REFERENCE_CONVERGENCE_TOLERANCE

    def test_bound1_below_the_error_lower_bound_trips_the_gate(self):
        # At n = 54 the walk's error is 2 (2/3)^55 = 4.3e-10, which is also
        # twice pi's mass above n. A certificate with a tiny b gives bound1
        # = 2 pi_n(n) + 4e-12 = 2.2e-10 at m = 1: the measured error is
        # within BOUND_CHECK_SLACK of it, but the lower bound is not.
        bogus = DriftCertificate(BlockVector(1, np.ones((80, 1))), 0.5, 1e-12)
        n = 54
        lower = 2.0 * (2.0 / 3.0) ** (n + 1)
        with pytest.raises(BoundViolationError, match="lower bound"):
            compare_against_oracle(natural_walk(), [n], bogus, reference_level=400)
        (report,) = compare_against_oracle(
            assemble(natural_walk(), 801), [n], bogus, reference_level=400
        )
        assert report.bound1 < lower / 1.5
        assert report.measured_error <= report.bound1 + BOUND_CHECK_SLACK

    def test_bogus_certificate_trips_the_soundness_guard(self):
        bogus = DriftCertificate(BlockVector(1, np.ones((80, 1))), 0.5, 1e-6)
        with pytest.raises(BoundViolationError, match="exceeds"):
            compare_against_oracle(natural_walk(), [5], bogus, reference_level=60)

    def test_dominating_chain_supplies_the_top_mass(self):
        P, tilde = dominance_pair(levels=161)
        _, _, cert = certificate_for_model(tilde)
        reports = compare_against_oracle(
            P, [5, 10], cert, reference_level=40, dominating=assemble(tilde, 161)
        )
        for r in reports:
            assert r.bound1 is not None
            assert r.measured_error <= r.bound1 <= r.bound2
