"""Tests for the repeating-structure models and their drift certificates."""

import math
import tracemalloc

import numpy as np
import pytest

from bmtrunc import (
    BlockVector,
    DriftCertificate,
    GIG1Model,
    MultipleClosedClassesError,
    PhaseMatrix,
    PhaseStructureError,
    is_block_monotone,
    lcb_truncate,
    save_model,
    stationary,
)
from bmtrunc import gig1
from bmtrunc.cli import EXIT_VALIDATION, main
from bmtrunc.drift_bounds import VERIFY_TOLERANCE
from bmtrunc.gig1 import (
    PATH_BOUNDARY_LIFT,
    PATH_SKIP_FREE,
    GIG1DriftData,
    _row_image,
    a_hat,
    assemble,
    certificate_for_model,
    find_alpha,
    mean_drift,
    perron,
)

from helpers import (
    _A2,
    broken_walk,
    dense,
    full_band_fold,
    gig1_d2,
    halve_searched_delta,
    mg1_d2,
    mg1_walk,
    natural_walk,
    oracle_block_monotone,
    random_monotone_gig1,
    symmetric_walk,
)

ALPHA = math.sqrt(1.5)
WALK_DELTA = 2.0 * math.sqrt(0.24)  # = 0.6/alpha + 0.4*alpha at alpha = sqrt(1.5)


def falling_phase_pair() -> GIG1Model:
    """Every up-move from phase 0 lands in phase 1, which must step back down."""
    A = {1: [[0.0, 0.3], [0.0, 0.0]], -1: [[0.7, 0.0], [1.0, 0.0]]}
    return GIG1Model(d=2, A=A, B={-1: A[-1], 0: A[-1], 2: A[1]})


def no_upward_walk() -> GIG1Model:
    """U_A = 0: delta(z) = 0.5/z + 0.5 falls for ever."""
    return GIG1Model(
        d=1,
        A={-1: [[0.5]], 0: [[0.5]]},
        B={-1: [[0.5]], 0: [[0.5]], 1: [[0.5]]},
    )


class TestGIG1Model:
    def test_rejects_malformed_blocks(self):
        with pytest.raises(ValueError, match="shape"):
            GIG1Model(d=2, A={0: [[1.0]]}, B={0: [[1.0]]})
        with pytest.raises(ValueError, match="non-negative"):
            GIG1Model(d=1, A={-1: [[-0.5]], 1: [[1.5]]}, B={0: [[1.0]]})
        with pytest.raises(ValueError, match="no nonzero block"):
            GIG1Model(d=1, A={0: [[0.0]]}, B={0: [[1.0]]})

    def test_rejects_non_stochastic_structure(self):
        with pytest.raises(ValueError, match="sum to a stochastic"):
            GIG1Model(d=1, A={-1: [[0.6]], 1: [[0.3]]}, B={0: [[1.0]]})
        with pytest.raises(ValueError, match="irreducible"):
            GIG1Model(d=2, A={0: np.eye(2)}, B={0: np.eye(2)})
        with pytest.raises(ValueError, match=r"row \(level 0"):
            GIG1Model(d=1, A={-1: [[0.6]], 1: [[0.4]]}, B={0: [[0.9]]})
        with pytest.raises(ValueError, match=r"row \(level 1"):
            GIG1Model(d=1, A={-1: [[0.6]], 1: [[0.4]]}, B={-1: [[0.7]], 0: [[1.0]]})

    def test_support_extents_and_block_lookup(self):
        model = mg1_d2()
        assert (model.L_A, model.U_A) == (1, 1)
        assert (model.L_B, model.U_B) == (1, 2)
        assert model.k_star == 2
        np.testing.assert_array_equal(model.A_block(7), np.zeros((2, 2)))
        np.testing.assert_array_equal(model.B_block(1), _A2[0])

    def test_zero_blocks_are_dropped(self):
        model = GIG1Model(
            d=1,
            A={-1: [[0.6]], 0: [[0.0]], 1: [[0.4]]},
            B={-1: [[0.6]], 0: [[0.6]], 1: [[0.4]]},
        )
        assert 0 not in model.A

    def test_monotonicity_matches_the_dense_oracle(self):
        for model in (natural_walk(), mg1_walk(), mg1_d2(), gig1_d2(),
                      random_monotone_gig1(), broken_walk()):
            monotone = model.is_block_monotone()
            assert monotone == is_block_monotone(assemble(model, 10))
            assert monotone == oracle_block_monotone(model.truncate(6))
        assert not broken_walk().is_block_monotone()

    def test_mg1_pattern_detection(self):
        assert mg1_walk().mg1_pattern_mismatches() == []
        assert mg1_d2().mg1_pattern_mismatches() == []
        assert natural_walk().mg1_pattern_mismatches() == [
            "B(1) != A(0)",
            "B(2) != A(1)",
        ]
        assert gig1_d2().mg1_pattern_mismatches()

    def test_phase_matrix_pinned(self):
        pm = mg1_d2().phase_matrix()
        np.testing.assert_allclose(pm.psi, [[0.7, 0.3], [0.5, 0.5]])
        np.testing.assert_allclose(pm.varpi, [0.625, 0.375], atol=1e-12)

    def test_phase_structure_violation_detected(self):
        model = GIG1Model(d=2, A=_A2, B={-1: _A2[-1], 0: [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(PhaseStructureError, match="vary across levels"):
            model.phase_matrix()

    def test_truncate_equals_folding_the_assembled_corner(self):
        for model in (natural_walk(), mg1_d2(), gig1_d2(), random_monotone_gig1()):
            U = max(model.U_A, model.U_B)
            for n in range(1, model.k_star + U + 3):
                direct = model.truncate(n)
                folded = full_band_fold(assemble(model, max(n + 1, model.k_star)), n)
                assert np.array_equal(direct.band, folded.band)
                assert direct.lower == folded.lower
        with pytest.raises(ValueError, match="n must be"):
            natural_walk().truncate(0)

    def test_assemble_pinned_pattern(self):
        corner = assemble(mg1_walk(), 3)
        expected = np.array(
            [
                [0.6, 0.0, 0.4, 0.0],
                [0.6, 0.0, 0.4, 0.0],
                [0.0, 0.6, 0.0, 0.4],
            ]
        )
        np.testing.assert_array_equal(dense(corner), expected)
        assert not corner.square
        with pytest.raises(ValueError, match="too small"):
            assemble(mg1_walk(), 1)


class TestSpectral:
    def test_a_hat_pinned(self):
        walk = natural_walk()
        assert a_hat(walk, 2.0)[0, 0] == pytest.approx(1.1, rel=1e-15)
        assert a_hat(walk, ALPHA)[0, 0] == pytest.approx(WALK_DELTA, rel=1e-15)
        with pytest.raises(ValueError, match="positive"):
            a_hat(walk, 0.0)

    def test_perron_pinned_stochastic(self):
        delta, mu, v = perron([[0.5, 0.5], [0.3, 0.7]])
        assert delta == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(v, [1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(mu, [0.375, 0.625], atol=1e-12)

    def test_perron_rejects_bad_input(self):
        with pytest.raises(ValueError, match="reducible"):
            perron(np.diag([2.0, 3.0]))
        with pytest.raises(ValueError, match="square"):
            perron(np.ones((2, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            perron([[1.0, -0.1], [1.0, 1.0]])

    def test_perron_large_positive_matrix(self):
        rng = np.random.default_rng(7)
        M = rng.uniform(0.1, 1.0, size=(80, 80))
        delta, mu, v = perron(M)
        # the Perron root is the spectral radius, the largest eigenvalue modulus
        radius = float(np.max(np.abs(np.linalg.eigvals(M))))
        assert delta == pytest.approx(radius, rel=1e-12)
        scale = delta * v.max()
        assert np.max(np.abs(M @ v - delta * v)) <= 1e-12 * scale
        assert np.max(np.abs(mu @ M - delta * mu)) <= 1e-12 * scale
        assert v.min() == pytest.approx(1.0)
        assert float(mu @ v) == pytest.approx(1.0)

    def test_spectral_residuals_tiny(self):
        for model in (mg1_d2(), gig1_d2(), random_monotone_gig1()):
            for z in (1.1, 1.4):
                M = a_hat(model, z)
                delta, mu, v = perron(M)
                scale = max(1.0, delta) * v.max()
                assert np.max(np.abs(M @ v - delta * v)) <= 1e-12 * scale
                assert np.max(np.abs(mu @ M - delta * mu)) <= 1e-12 * scale

    def test_unit_argument_recovers_phase_structure(self):
        # at z=1 the transform is the phase kernel: delta=1, v=e, mu=varpi
        for model in (mg1_d2(), gig1_d2()):
            delta, mu, v = perron(a_hat(model, 1.0))
            assert delta == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(v, np.ones(2), atol=1e-10)
            np.testing.assert_allclose(mu, model.phase_matrix().varpi, atol=1e-10)

    def test_mean_drift_pinned(self):
        assert mean_drift(natural_walk()) == pytest.approx(-0.2, rel=1e-12)
        assert mean_drift(symmetric_walk()) == pytest.approx(0.0, abs=1e-14)
        assert mean_drift(mg1_d2()) == pytest.approx(-0.3625, rel=1e-12)

    def test_mean_drift_is_the_transform_slope_at_one(self):
        h = 1e-6
        for model in (mg1_d2(), gig1_d2()):
            up = perron(a_hat(model, 1.0 + h))[0]
            down = perron(a_hat(model, 1.0 - h))[0]
            assert (up - down) / (2.0 * h) == pytest.approx(mean_drift(model), abs=1e-4)


class TestFindAlpha:
    def test_walk_minimizer_pinned(self):
        for model in (natural_walk(), mg1_walk()):
            alpha, delta, _, _ = find_alpha(model)
            assert alpha == pytest.approx(ALPHA, abs=1e-9)
            assert delta == pytest.approx(WALK_DELTA, abs=1e-12)
            assert delta < 1.0

    def test_zero_drift_is_rejected(self):
        with pytest.raises(ValueError, match="not negative"):
            find_alpha(symmetric_walk())

    def test_rare_upward_walk_finds_the_far_minimum(self):
        # delta(z) = 0.999/z + 0.001 z is smallest at sqrt(999), far past z = 10
        up = 0.001
        model = GIG1Model(
            d=1,
            A={-1: [[1.0 - up]], 1: [[up]]},
            B={-1: [[1.0 - up]], 0: [[1.0 - up]], 2: [[up]]},
        )
        alpha, delta, _, _ = find_alpha(model)
        assert alpha == pytest.approx(math.sqrt(999.0), rel=1e-9)
        assert delta == pytest.approx(2.0 * math.sqrt(0.999 * 0.001), abs=1e-12)

    @pytest.mark.parametrize("model", [falling_phase_pair(), no_upward_walk()])
    def test_no_finite_minimiser_is_rejected(self, model, tmp_path, capsys):
        assert model.is_block_monotone() and mean_drift(model) < 0.0
        with pytest.raises(ValueError, match="no finite minimiser"):
            find_alpha(model)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        assert main(["--model", path, "--command", "validate"]) == EXIT_VALIDATION
        assert "no finite minimiser" in capsys.readouterr().err

    def test_search_uses_few_perron_calls(self, monkeypatch):
        # the eigen part runs once per point of the Newton search and once under perron at alpha
        calls = []
        eigen = gig1._perron

        def counted(M):
            calls.append(1)
            return eigen(M)

        monkeypatch.setattr(gig1, "_perron", counted)
        for model in (mg1_d2(), gig1_d2(), random_monotone_gig1()):
            calls.clear()
            find_alpha(model)
            assert 0 < len(calls) <= 6

    def test_minimum_beats_neighbours(self):
        model = gig1_d2()
        alpha, delta, _, _ = find_alpha(model)
        for z in (alpha * 0.99, alpha * 1.01):
            assert delta <= perron(a_hat(model, z))[0]


class TestWVector:
    def test_skip_free_boundary_row_pinned(self):
        model = mg1_walk()
        alpha, _, _, v = find_alpha(model)
        # row 0 image: 0.6 + 0.4 alpha^2 = 1.2 = alpha * delta exactly
        assert _row_image(model, alpha, v, 0)[0] == pytest.approx(1.2, rel=1e-15)

    def test_collapses_to_the_eigen_identity_past_the_boundary(self):
        for model in (natural_walk(), mg1_d2(), gig1_d2()):
            alpha, delta, _, v = find_alpha(model)
            for k in range(model.k_star, model.k_star + 4):
                expected = alpha ** k * delta * v
                np.testing.assert_allclose(
                    _row_image(model, alpha, v, k), expected, rtol=1e-12
                )

    def test_monotone_in_the_level(self):
        for model in (natural_walk(), mg1_d2(), gig1_d2()):
            alpha, _, _, v = find_alpha(model)
            rows = [_row_image(model, alpha, v, k) for k in range(11)]
            for lo, hi in zip(rows, rows[1:]):
                assert np.all(lo <= hi + 1e-12)

    def test_rejects_bad_arguments(self):
        model = natural_walk()
        alpha, _, _, v = find_alpha(model)
        with pytest.raises(ValueError, match="non-negative"):
            _row_image(model, alpha, v, -1)


class TestCertificates:
    def test_boundary_lift_pinned_on_the_walk(self):
        model = natural_walk()
        path, data, cert = certificate_for_model(model)
        assert path == PATH_BOUNDARY_LIFT
        assert (model.k_star, data.K) == (2, 1)
        assert data.gamma_prime == pytest.approx(WALK_DELTA, abs=1e-12)
        # row-0 slack 0.6 (1 - 1/alpha) is the only positive gap
        assert data.b_prime == pytest.approx(0.6 * (1.0 - 1.0 / ALPHA), abs=1e-12)
        assert _row_image(model, data.alpha, data.v, 1)[0] == pytest.approx(1.2, rel=1e-12)
        assert cert.gamma == pytest.approx(0.9829285639896449, abs=1e-9)
        assert cert.b == pytest.approx(0.29360547051563834, abs=1e-9)
        assert cert.b == pytest.approx(1.6 * (1.0 - 1.0 / ALPHA), abs=1e-12)

    def test_skip_free_pinned_on_the_walk(self):
        path, data, cert = certificate_for_model(mg1_walk())
        assert path == PATH_SKIP_FREE
        assert (data.K, data.gamma_prime, data.b_prime) == (0, None, None)
        assert cert.gamma == pytest.approx(WALK_DELTA, abs=1e-12)
        assert cert.b == pytest.approx(ALPHA - 1.0, abs=1e-9)
        assert cert.tail is not None

    def test_skip_free_requires_the_pattern(self):
        # the walk differs from mg1_walk only in its row-0 blocks
        model = natural_walk()
        assert model.mg1_pattern_mismatches()
        path, _, _ = certificate_for_model(model)
        assert path == PATH_BOUNDARY_LIFT

    def test_lift_requires_monotonicity(self):
        with pytest.raises(ValueError, match="block-monotone"):
            certificate_for_model(broken_walk())

    def test_unreachable_boundary_has_no_admissible_K(self):
        A = {
            -1: [[0.4, 0.4], [0.0, 0.0]],
            0: [[0.1, 0.1], [0.3, 0.3]],
            1: [[0.0, 0.0], [0.2, 0.2]],
        }
        # reflecting row 0, so off the skip-free pattern: the lift must run
        B = {-1: A[-1], 0: np.add(A[-1], A[0]), 1: A[1]}
        model = GIG1Model(d=2, A=A, B=B)
        assert model.is_block_monotone() and model.mg1_pattern_mismatches()
        assert mean_drift(model) < 0
        with pytest.raises(ValueError, match="zero row sum"):
            certificate_for_model(model)

    def test_path_selection(self):
        for model, want in ((natural_walk(), PATH_BOUNDARY_LIFT), (mg1_walk(), PATH_SKIP_FREE)):
            path, data, cert = certificate_for_model(model)
            assert path == want
            assert isinstance(data, GIG1DriftData)
            assert data.gamma_prime == (data.delta if path == PATH_BOUNDARY_LIFT else None)
            # the record, the tail and the stored weights agree to the bit
            assert data.alpha == cert.tail.alpha and np.array_equal(data.v, cert.tail.coeff)
            stored = np.arange(cert.tail.start, cert.v.levels)
            assert np.array_equal(cert.v.entries[cert.tail.start:], cert.tail.values(stored))
        assert data.delta == cert.gamma  # the shortcut's rate is delta itself

    def test_every_emitted_certificate_verifies(self):
        for model in (natural_walk(), mg1_walk(), mg1_d2(), gig1_d2(),
                      random_monotone_gig1()):
            _, _, cert = certificate_for_model(model)
            check = model.verify_drift(cert)
            assert check.ok, check.violations
            # skip-free rows above level 0 hold with equality, up to rounding
            assert check.max_slack <= VERIFY_TOLERANCE

    def test_unverified_certificate_is_refused(self, monkeypatch):
        halve_searched_delta(monkeypatch)
        with pytest.raises(ValueError, match="unverified certificate"):
            certificate_for_model(mg1_walk())

    def test_certificate_weights_dominate_their_images(self):
        # w(k) <= gamma' alpha^k v + b' row-wise, the inequality the data encodes
        model = gig1_d2()
        _, data, _ = certificate_for_model(model)
        for k in range(data.K + 1):
            ceiling = data.gamma_prime * data.alpha ** k * data.v + data.b_prime
            assert np.all(_row_image(model, data.alpha, data.v, k) <= ceiling + 1e-12)

    def test_verify_needs_a_closed_form_tail(self):
        tailless = DriftCertificate(
            BlockVector(1, [[1.0], [2.0]]), gamma=0.98, b=0.3
        )
        with pytest.raises(ValueError, match="tail"):
            natural_walk().verify_drift(tailless)


class TestTruncationPipeline:
    def test_truncated_stationary_matches_phase_marginals(self):
        model = mg1_d2()
        varpi = model.phase_matrix().varpi
        for n in (5, 20):
            pi = stationary(model.truncate(n))
            np.testing.assert_allclose(pi.entries.sum(axis=0), varpi, atol=1e-9)

    def test_deep_truncations_agree_with_each_other(self):
        model = gig1_d2()
        from bmtrunc import tv_distance

        gap = tv_distance(stationary(model.truncate(60)), stationary(model.truncate(120)))
        assert gap <= 1e-10


class TestStationaryLaw:
    def test_walk_tail_is_the_closed_form(self):
        # pi(k) = (1/3)(2/3)^k, so pi's mass above n is (2/3)^(n+1); every
        # mass is a sum of non-negative terms, down to (2/3)^201 ~ 5e-36.
        pi, beyond = natural_walk().stationary_law(200)
        masses = np.concatenate((pi.entries[:, 0], [beyond]))
        above = np.cumsum(masses[::-1])[::-1]  # above[k]: levels >= k
        for n in range(201):
            assert abs(above[n + 1] / (2.0 / 3.0) ** (n + 1) - 1.0) <= 1e-12
        np.testing.assert_allclose(pi.entries[:, 0], (2.0 / 3.0) ** np.arange(201) / 3.0,
                                   rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("build", [mg1_d2, gig1_d2, random_monotone_gig1])
    def test_masses_sum_to_one_and_match_the_phase_law(self, build):
        model = build()
        pi, beyond = model.stationary_law(50)
        assert pi.levels == 51 and beyond > 0.0
        assert abs(pi.entries.sum() + beyond - 1.0) <= 1e-14
        np.testing.assert_allclose(pi.entries.sum(axis=0), model.phase_matrix().varpi,
                                   atol=1e-12)

    def test_rows_short_of_one_solve_the_completed_chain(self):
        # Rows 9e-10 short of 1: pi is the law of the chain whose diagonal
        # completes them, the walk itself, while the residual on the given
        # rows is up to the defect.
        q = 0.5999999991
        model = GIG1Model(d=1, A={-1: [[q]], 1: [[0.4]]}, B={-1: [[q]], 0: [[q]], 1: [[0.4]]})
        pi, _ = model.stationary_law(40)
        rho = 0.4 / q
        np.testing.assert_allclose(pi.entries[:, 0], (1 - rho) * rho ** np.arange(41),
                                   rtol=1e-12, atol=0.0)

    def test_a_reduction_that_does_not_converge_is_a_solve_error(self, monkeypatch):
        from bmtrunc import StationarySolveError

        monkeypatch.setattr(gig1, "_DOUBLING_STEPS", 1)
        with pytest.raises(StationarySolveError, match="logarithmic reduction"):
            mg1_d2().stationary_law(20)

    def test_a_failed_residual_is_a_solve_error(self, monkeypatch, tmp_path, capsys):
        from bmtrunc import StationarySolveError

        solve = gig1._kernel_stationary
        # a boundary vector 1e-6 off its censored chain's law
        monkeypatch.setattr(gig1, "_kernel_stationary",
                            lambda K, d: solve(K, d) * np.linspace(1.0 - 1e-6, 1.0 + 1e-6, len(K)))
        with pytest.raises(StationarySolveError, match="stationary residual"):
            mg1_d2().stationary_law(20)
        path = str(tmp_path / "model.json")
        save_model(mg1_d2(), path)
        assert main(["--model", path, "--command", "compare", "--n", "10"]) == EXIT_VALIDATION
        assert "stationary residual" in capsys.readouterr().err

    def test_out_of_range_levels_are_refused_before_allocation(self):
        with pytest.raises(ValueError, match="MAX_ARRAY_BYTES"):
            natural_walk().stationary_law(10 ** 12)
        with pytest.raises(ValueError, match="level >= 0"):
            natural_walk().stationary_law(-1)

    def test_too_large_law_is_refused_before_allocation(self):
        # _band counts the bytes of the law's band before it builds anything
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                mg1_d2().stationary_law(10 ** 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{gig1.MAX_ARRAY_BYTES} bytes (MAX_ARRAY_BYTES)" in str(err.value)
        assert peak < 2**20

    def test_reducible_group_zero_names_level_and_phase(self):
        # Both phases of level 0 are absorbing. The censored group-0 chain
        # has two phases per level, so its classes are named as the
        # truncation's sweep names them: phases 0 and 1 of level 0.
        M = np.full((2, 2), 0.5)
        model = GIG1Model(d=2, A={-1: 0.6 * M, 1: 0.4 * M}, B={0: np.eye(2), -1: 0.6 * M})
        want = [[(0, 0)], [(0, 1)]]
        with pytest.raises(MultipleClosedClassesError) as law:
            model.stationary_law(5)
        with pytest.raises(MultipleClosedClassesError) as sweep:
            stationary(lcb_truncate(model, 6))
        assert law.value.classes == sweep.value.classes == want
        with pytest.raises(MultipleClosedClassesError) as kernel:
            PhaseMatrix(np.eye(2)).varpi
        assert kernel.value.classes == want
