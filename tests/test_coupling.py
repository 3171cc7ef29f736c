"""Tests for the inverse-CDF coupling simulator."""

import tracemalloc

import numpy as np
import pytest

from bmtrunc import (
    BlockStochasticMatrix,
    OrderingViolationError,
    PhaseMatrix,
    lcb_truncate,
    level_step,
    phase_matrix,
    phase_step,
    run_coupled_dominance_batch,
    run_coupled_monotone_batch,
)
from bmtrunc import block_matrix, cli, load_model, save_model, verify_certificate
from bmtrunc.gig1 import assemble, certificate_for_model

from helpers import (
    corner_from_dense,
    dense_blocks,
    dominance_pair,
    gig1_d2,
    mg1_d2,
    natural_walk,
    random_bm_corner,
)

PSI2 = PhaseMatrix(psi=[[0.3, 0.7], [0.5, 0.5]])


def walk_corner(n: int) -> BlockStochasticMatrix:
    return natural_walk().truncate(n)


def zero_phase_move_corner() -> BlockStochasticMatrix:
    """Block-monotone d=2 corner in which phase 0 never moves to phase 1.

    Moving the (0 -> 1) mass of each block onto (0 -> 0) adds one
    level-increasing tail sum to another, so monotonicity survives.
    """
    blocks = dense_blocks(random_bm_corner(np.random.default_rng(5), 2, 8))
    blocks[:, 0, :, 0] += blocks[:, 0, :, 1]
    blocks[:, 0, :, 1] = 0.0
    return corner_from_dense(2, blocks.reshape(16, 16))


def scalar_replay(low, high, x0_low, x0_high, j0, T, seed, paths):
    """(phases, levels_low, levels_high) of the batch samplers, one scalar step at a time.

    Replays their streams: spawn(2) of the seed gives the level uniforms and
    then the phase uniforms, `paths` of each per step.
    """
    psi = phase_matrix(low)
    u_seq, s_seq = np.random.SeedSequence(seed).spawn(2)
    u_rng, s_rng = np.random.default_rng(u_seq), np.random.default_rng(s_seq)
    phases = np.full((paths, T + 1), j0)
    lev_low = np.full((paths, T + 1), x0_low)
    lev_high = np.full((paths, T + 1), x0_high)
    for t in range(1, T + 1):
        s, u = s_rng.random(paths), u_rng.random(paths)
        for p in range(paths):
            i = int(phases[p, t - 1])
            j = phase_step(psi, i, float(s[p]))
            lev_low[p, t] = level_step(low, int(lev_low[p, t - 1]), i, j, float(u[p]))
            lev_high[p, t] = level_step(high, int(lev_high[p, t - 1]), i, j, float(u[p]))
            phases[p, t] = j
    return phases, lev_low, lev_high


class TestPhaseStep:
    def test_pinned_row(self):
        assert phase_step(PSI2, 0, 0.2) == 0
        assert phase_step(PSI2, 0, 0.3) == 0  # boundary mass belongs below
        assert phase_step(PSI2, 0, 0.31) == 1
        assert phase_step(PSI2, 1, 0.5) == 0
        assert phase_step(PSI2, 1, 0.51) == 1

    def test_single_phase_is_constant(self):
        trivial = PhaseMatrix(psi=[[1.0]])
        for s in (0.1, 0.5, 0.999999):
            assert phase_step(trivial, 0, s) == 0

    def test_near_one_lands_on_last_positive_phase(self):
        assert phase_step(PSI2, 0, 1.0 - 1e-12) == 1
        sticky = PhaseMatrix(psi=[[1.0, 0.0], [0.5, 0.5]])
        assert phase_step(sticky, 0, 1.0 - 1e-12) == 0

    def test_rows_just_under_one_draw_the_last_phase_with_mass(self, monkeypatch):
        # Rows summing to 1 - 5e-11 pass the row check; s = 1 - 1e-11 lies past
        # every CDF value, and phase 0 cannot move to phase 1.
        P = zero_phase_move_corner()
        P = BlockStochasticMatrix(2, P.band * (1.0 - 5e-11), P.lower, P.col_levels)
        psi = phase_matrix(P)
        assert phase_step(psi, 0, 1.0 - 1e-11) == 0
        assert phase_step(psi, 1, 1.0 - 1e-11) == 1

        class Constant:
            def __init__(self, value):
                self.value = value

            def random(self, shape):
                return np.full(shape, self.value)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Constant(next(draws)))
        for j0 in (0, 1):
            draws = iter([0.5, 1.0 - 1e-11])  # level uniforms, then phase uniforms
            ens = run_coupled_monotone_batch(P, 0, P.levels - 1, j0, T=5, seed=0, paths=3)
            assert np.all(ens.phases == j0)

    def test_rejects_boundary_uniforms(self):
        with pytest.raises(ValueError, match="strictly between"):
            phase_step(PSI2, 0, 0.0)
        with pytest.raises(ValueError, match="strictly between"):
            phase_step(PSI2, 0, 1.0)


class TestLevelStep:
    def test_pinned_walk_row(self):
        P = walk_corner(2)  # rows: [.6 .4 0], [.6 0 .4], [0 .6 .4]
        assert level_step(P, 1, 0, 0, 0.5) == 0
        assert level_step(P, 1, 0, 0, 0.6) == 0
        assert level_step(P, 1, 0, 0, 0.7) == 2

    def test_zero_mass_levels_are_never_drawn(self):
        P = walk_corner(2)
        assert level_step(P, 2, 0, 0, 1e-9) == 1
        assert level_step(P, 2, 0, 0, 1.0 - 1e-12) == 2

    def test_impossible_phase_transition_is_a_caller_bug(self):
        P = corner_from_dense(2, np.eye(2))
        with pytest.raises(ValueError, match="probability zero"):
            level_step(P, 0, 0, 1, 0.5)

    def test_monotone_corner_gives_monotone_draws(self):
        rng = np.random.default_rng(11)
        P = random_bm_corner(rng, 2, 6)
        for u in (0.05, 0.3, 0.62, 0.97):
            for i in range(2):
                for j in range(2):
                    draws = [level_step(P, k, i, j, u) for k in range(P.levels)]
                    assert draws == sorted(draws)

    def test_rejects_boundary_uniforms(self):
        P = walk_corner(2)
        with pytest.raises(ValueError, match="strictly between"):
            level_step(P, 0, 0, 0, 0.0)


class TestMonotoneCoupling:
    def test_equal_starts_stay_glued(self):
        ens = run_coupled_monotone_batch(walk_corner(30), 4, 4, 0, T=100, seed=3, paths=8)
        np.testing.assert_array_equal(ens.levels_low, ens.levels_high)

    def test_paths_coincide_after_first_meeting(self):
        ens = run_coupled_monotone_batch(walk_corner(40), 0, 8, 0, T=300, seed=5, paths=16)
        met = 0
        for p in range(ens.paths):
            low, high = ens.levels_low[p], ens.levels_high[p]
            meets = np.nonzero(low == high)[0]
            if meets.size:
                met += 1
                t0 = meets[0]
                np.testing.assert_array_equal(low[t0:], high[t0:])
        assert met == ens.paths  # negative drift coalesces all pairs in 300 steps

    def test_ordering_holds_in_bulk(self):
        ens = run_coupled_monotone_batch(walk_corner(40), 0, 10, 0, T=200, seed=7, paths=200)
        assert np.all(ens.levels_low <= ens.levels_high)
        assert ens.kind == "monotone"
        assert (ens.paths, ens.steps) == (200, 200)

    def test_same_seed_reproduces_different_seed_varies(self):
        a = run_coupled_monotone_batch(walk_corner(30), 0, 5, 0, T=60, seed=9, paths=4)
        b = run_coupled_monotone_batch(walk_corner(30), 0, 5, 0, T=60, seed=9, paths=4)
        c = run_coupled_monotone_batch(walk_corner(30), 0, 5, 0, T=60, seed=10, paths=4)
        np.testing.assert_array_equal(a.levels_high, b.levels_high)
        assert not np.array_equal(a.levels_high, c.levels_high)

    def test_requires_block_monotone_square_corner(self):
        P, _ = dominance_pair(levels=31)
        with pytest.raises(ValueError, match="block-monotone"):
            run_coupled_monotone_batch(lcb_truncate(P, 20), 0, 5, 0, T=10, seed=0)
        rect = assemble(mg1_d2(), 10)
        with pytest.raises(ValueError, match="square"):
            run_coupled_monotone_batch(rect, 0, 5, 0, T=10, seed=0)

    def test_argument_validation(self):
        P = walk_corner(10)
        with pytest.raises(ValueError, match="start level"):
            run_coupled_monotone_batch(P, 0, 11, 0, T=10, seed=0)
        with pytest.raises(ValueError, match="start phase"):
            run_coupled_monotone_batch(P, 0, 5, 2, T=10, seed=0)
        with pytest.raises(ValueError, match="x0_low <= x0_high"):
            run_coupled_monotone_batch(P, 5, 0, 0, T=10, seed=0)
        with pytest.raises(ValueError, match=">= 1"):
            run_coupled_monotone_batch(P, 0, 5, 0, T=0, seed=0)

    def test_top_level_contact_sets_hit_top(self):
        # hit_top is the only report of the contact: the library warns nothing.
        ens = run_coupled_monotone_batch(walk_corner(3), 0, 3, 0, T=5, seed=0, paths=2)
        assert ens.hit_top


class TestDominanceCoupling:
    def test_folded_pair_stays_ordered(self):
        # deeper folds dominate shallower ones of the same monotone chain
        deep = mg1_d2().truncate(30)
        shallow = lcb_truncate(deep, 15)
        ens = run_coupled_dominance_batch(shallow, deep, 0, 0, 0, T=150, seed=2, paths=64)
        assert np.all(ens.levels_low <= ens.levels_high)
        assert ens.kind == "dominance"

    def test_edited_chain_under_its_monotone_majorant(self):
        P, tilde = dominance_pair(levels=61)
        low = lcb_truncate(P, 40)
        high = tilde.truncate(40)
        ens = run_coupled_dominance_batch(low, high, 3, 3, 0, T=150, seed=4, paths=64)
        assert np.all(ens.levels_low <= ens.levels_high)

    def test_preconditions(self):
        deep = mg1_d2().truncate(20)
        shallow = lcb_truncate(deep, 10)
        with pytest.raises(ValueError, match="dominated"):
            run_coupled_dominance_batch(deep, shallow, 0, 0, 0, T=5, seed=0)
        P, _ = dominance_pair(levels=31)
        folded = lcb_truncate(P, 20)
        # reflexive dominance but no monotone participant
        with pytest.raises(ValueError, match="block-monotone"):
            run_coupled_dominance_batch(folded, folded, 0, 0, 0, T=5, seed=0)
        with pytest.raises(ValueError, match="block size"):
            run_coupled_dominance_batch(walk_corner(10), deep, 0, 0, 0, T=5, seed=0)


class TestScalarOracle:
    """The batch samplers take, step by step, the scalar draws of phase_step/level_step."""

    @staticmethod
    def assert_replays(ens, low, high, x0_low, x0_high, j0, T, seed, paths):
        phases, lev_low, lev_high = scalar_replay(low, high, x0_low, x0_high, j0, T, seed, paths)
        np.testing.assert_array_equal(ens.phases, phases)
        np.testing.assert_array_equal(ens.levels_low, lev_low)
        np.testing.assert_array_equal(ens.levels_high, lev_high)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: walk_corner(30),
            lambda: mg1_d2().truncate(30),
            lambda: lcb_truncate(mg1_d2().truncate(30), 15),
            # lower = 1, so row 0's first band slot lies left of column 0
            lambda: gig1_d2().truncate(30),
            lambda: random_bm_corner(np.random.default_rng(3), 3, 10),
            zero_phase_move_corner,
        ],
        ids=["walk", "mg1_d2", "mg1_d2_lcb", "gig1_d2", "random_d3", "zero_phase_move"],
    )
    def test_monotone_batch(self, make):
        P = make()
        args = (0, P.levels - 1, 0, 80, 4, 8)
        self.assert_replays(run_coupled_monotone_batch(P, *args), P, P, *args)

    def test_dominance_batch(self):
        deep = mg1_d2().truncate(30)
        shallow = lcb_truncate(deep, 15)
        args = (2, 3, 1, 80, 6, 8)
        ens = run_coupled_dominance_batch(shallow, deep, *args)
        self.assert_replays(ens, shallow, deep, *args)


class TestBandKernel:
    def test_memory_is_linear_in_levels(self):
        # 3002 states: the dense N x N view and level CDFs peaked at 138 MB here
        tracemalloc.start()
        try:
            P = lcb_truncate(mg1_d2(), 1500)
            run_coupled_monotone_batch(P, 0, 1500, 0, T=50, seed=0, paths=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_no_entry_point_builds_the_dense_view(self, monkeypatch, tmp_path, capsys):
        deep = mg1_d2().truncate(30)
        shallow = lcb_truncate(deep, 15)
        gig1_path, finite_path = str(tmp_path / "gig1.json"), str(tmp_path / "finite.json")
        dense = BlockStochasticMatrix.values
        reads = []

        def counted(self):
            reads.append(self)
            return dense.fget(self)

        monkeypatch.setattr(BlockStochasticMatrix, "values", property(counted))
        run_coupled_monotone_batch(deep, 0, 30, 0, T=20, seed=0, paths=4)
        run_coupled_dominance_batch(shallow, deep, 0, 0, 0, T=20, seed=0, paths=4)
        level_step(deep, 3, 0, 1, 0.5)
        save_model(gig1_d2(), gig1_path)
        save_model(deep, finite_path)
        assert load_model(finite_path).levels == 31
        for command, n in (("validate", "10"), ("bound", "5:20"), ("compare", "5,10"),
                           ("couple", "20")):
            assert cli.main(["--model", gig1_path, "--command", command, "--n", n]) == 0
        for command in ("validate", "couple"):
            assert cli.main(["--model", finite_path, "--command", command, "--n", "20"]) == 0
        _, _, cert = certificate_for_model(mg1_d2())
        assert verify_certificate(assemble(mg1_d2(), 40), cert).ok
        assert gig1_d2().verify_drift(certificate_for_model(gig1_d2())[2]).ok
        phase_matrix(deep)
        gig1_d2().phase_matrix()
        capsys.readouterr()
        assert reads == []
        shallow.values  # the hook itself counts
        assert reads == [shallow]

    def test_samplers_skip_the_phase_stationary_solve(self, monkeypatch):
        deep = mg1_d2().truncate(30)
        shallow = lcb_truncate(deep, 15)
        solve = block_matrix._kernel_stationary
        calls = []

        def counted(psi, d):
            calls.append(psi)
            return solve(psi, d)

        monkeypatch.setattr(block_matrix, "_kernel_stationary", counted)
        run_coupled_monotone_batch(deep, 0, 30, 0, T=20, seed=0, paths=4)
        run_coupled_dominance_batch(shallow, deep, 0, 0, 0, T=20, seed=0, paths=4)
        assert calls == []
        pm = phase_matrix(deep)
        np.testing.assert_allclose(pm.varpi, [0.625, 0.375], atol=1e-12)
        pm.varpi  # solved once, then cached
        assert len(calls) == 1


class TestOneStepMarginals:
    def test_walk_row_frequencies(self):
        # iid one-step draws: every path starts at the same state
        P = walk_corner(3)
        N = 100_000
        ens = run_coupled_monotone_batch(P, 1, 1, 0, T=1, seed=13, paths=N)
        landed = ens.levels_high[:, 1]
        for level, prob in ((0, 0.6), (2, 0.4)):
            freq = float(np.mean(landed == level))
            sigma = np.sqrt(prob * (1.0 - prob) / N)
            assert abs(freq - prob) <= 3.0 * sigma

    def test_joint_level_phase_frequencies_d2(self):
        P = mg1_d2().truncate(4)
        N = 100_000
        start_level, start_phase = 2, 0
        ens = run_coupled_monotone_batch(P, start_level, start_level, start_phase,
                                         T=1, seed=17, paths=N)
        blocks = dense_blocks(P)
        for level in range(P.levels):
            for phase in range(P.d):
                prob = blocks[start_level, start_phase, level, phase]
                freq = float(np.mean(
                    (ens.levels_high[:, 1] == level) & (ens.phases[:, 1] == phase)
                ))
                if prob == 0.0:
                    assert freq == 0.0
                else:
                    sigma = np.sqrt(prob * (1.0 - prob) / N)
                    assert abs(freq - prob) <= 3.0 * sigma

    def test_phase_kernel_preserves_its_stationary_vector(self):
        pm = mg1_d2().phase_matrix()
        rng = np.random.default_rng(23)
        N = 20_000
        start_cdf = np.cumsum(pm.varpi)
        starts = np.searchsorted(start_cdf, rng.random(N), side="left")
        moved = np.array([phase_step(pm, int(i), float(s))
                          for i, s in zip(starts, rng.random(N))])
        for phase in range(pm.d):
            prob = pm.varpi[phase]
            freq = float(np.mean(moved == phase))
            sigma = np.sqrt(prob * (1.0 - prob) / N)
            assert abs(freq - prob) <= 3.0 * sigma


class TestOrderingViolationError:
    def test_carries_the_offending_coordinates(self):
        err = OrderingViolationError(step=7, path=3, low=5, high=2)
        assert (err.step, err.path) == (7, 3)
        assert "step 7" in str(err) and "5 > 2" in str(err)
