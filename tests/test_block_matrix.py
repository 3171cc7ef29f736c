"""Containers, monotonicity/dominance checks, truncation, stationary, distances."""

import tracemalloc

import numpy as np
import pytest

from bmtrunc import (
    BlockStochasticMatrix,
    BlockVector,
    MultipleClosedClassesError,
    PhaseStructureError,
    block_dominates,
    is_block_increasing,
    is_block_monotone,
    lcb_truncate,
    phase_matrix,
    stationary,
    transient_distribution,
    tv_distance,
    v_norm_distance,
    vector_dominates,
)

from helpers import band_corner, corner_from_dense, dense, mg1_d2, natural_walk, random_band


def corner(rows, d=1):
    return corner_from_dense(d, rows)


WALK3 = [[0.6, 0.4, 0.0], [0.6, 0.0, 0.4], [0.0, 0.6, 0.4]]


class TestBlockStochasticMatrix:
    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            corner([[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_bad_row_sum_naming_the_state(self):
        with pytest.raises(ValueError, match=r"level 1, phase 0"):
            corner([[0.5, 0.5], [0.3, 0.6]])

    def test_substochastic_rows_allowed_when_flagged(self):
        P = corner_from_dense(1, [[0.3, 0.3], [0.1, 0.2]], substochastic=True)
        assert P.levels == 2

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="col_levels >= levels"):
            BlockStochasticMatrix(1, np.ones((3, 1, 1, 1)), col_levels=2)

    def test_block_indexing(self):
        P = corner(WALK3)
        assert P.levels == P.col_levels == 3
        assert P.block(1, 2) == pytest.approx(np.array([[0.4]]))
        assert P.block(2, 1) == pytest.approx(np.array([[0.6]]))

    def test_from_blocks_round_trip(self):
        P = BlockStochasticMatrix.from_blocks(
            2, {(0, 0): np.eye(2) * 0.5, (0, 1): np.eye(2) * 0.5, (1, 1): np.eye(2)}
        )
        assert P.levels == 2
        assert P.block(0, 1) == pytest.approx(np.eye(2) * 0.5)
        assert P.block(1, 0) == pytest.approx(np.zeros((2, 2)))

    def test_from_blocks_keeps_only_nonzero_offsets(self):
        # the zero (1, 0) block widens neither the band nor the corner's levels
        blocks = {(0, 0): [[0.5]], (0, 2): [[0.5]], (1, 0): [[0.0]], (1, 1): [[1.0]],
                  (2, 2): [[1.0]]}
        P = BlockStochasticMatrix.from_blocks(1, blocks)
        assert (P.lower, P.upper, P.levels, P.col_levels) == (0, 2, 3, 3)
        np.testing.assert_array_equal(dense(P), [[0.5, 0, 0.5], [0, 1, 0], [0, 0, 1]])

    def test_from_blocks_names_a_block_outside_the_corner(self):
        blocks = {(0, 0): [[1.0]], (1, 3): [[1.0]]}
        with pytest.raises(ValueError, match=r"block \(1,3\) lies outside the 2 x 3 corner"):
            BlockStochasticMatrix.from_blocks(1, blocks, levels=2, col_levels=3)
        with pytest.raises(ValueError, match=r"block \(2,0\) lies outside the 2 x 2 corner"):
            BlockStochasticMatrix.from_blocks(1, {(0, 0): [[1.0]], (2, 0): [[1.0]]}, levels=2)

    def test_rejects_malformed_band(self):
        with pytest.raises(ValueError, match="band shape"):
            BlockStochasticMatrix(2, np.ones((3, 1, 1, 1)))
        with pytest.raises(ValueError, match="band shape"):
            BlockStochasticMatrix(1, np.ones((3, 1)))
        with pytest.raises(ValueError, match="0 <= lower < width"):
            BlockStochasticMatrix(1, np.ones((3, 1, 1, 1)), lower=1)
        with pytest.raises(ValueError, match="outside the column range"):
            BlockStochasticMatrix(1, np.full((2, 2, 1, 1), 0.5))


class TestBlockVector:
    def test_suffix_sums(self):
        vec = BlockVector(2, [[0.1, 0.2], [0.3, 0.4]])
        assert vec.suffix_sums() == pytest.approx(np.array([[0.4, 0.6], [0.3, 0.4]]))

    def test_padding(self):
        vec = BlockVector(1, [[1.0]])
        assert vec.padded(3) == pytest.approx(np.array([[1.0], [0.0], [0.0]]))

    def test_probability_tagging(self):
        assert BlockVector(1, [[0.5], [0.5]]).is_probability()
        assert not BlockVector(1, [[0.5], [0.6]]).is_probability()


class TestIsBlockMonotone:
    def test_identity_any_d(self):
        for d, levels in [(1, 4), (2, 3), (3, 2)]:
            assert is_block_monotone(corner_from_dense(d, np.eye(d * levels)))

    def test_pinned_true_pair(self):
        assert is_block_monotone(corner([[0.5, 0.5], [0.3, 0.7]]))

    def test_pinned_false_pair(self):
        assert not is_block_monotone(corner([[0.3, 0.7], [0.5, 0.5]]))


class TestBlockDominates:
    def test_reflexive(self):
        P = corner(WALK3)
        assert block_dominates(P, P)

    def test_pinned_true_pair(self):
        low = corner([[1.0, 0.0], [1.0, 0.0]])
        high = corner([[0.0, 1.0], [0.0, 1.0]])
        assert block_dominates(low, high)
        assert not block_dominates(high, low)

    def test_zero_padding_compares_different_sizes(self):
        big = corner(WALK3)
        small = lcb_truncate(big, 1)
        assert block_dominates(small, big)


class TestVectorDominates:
    def test_equal_vectors(self):
        v = BlockVector(1, [[0.5], [0.5]])
        assert vector_dominates(v, v)

    def test_pinned_pair(self):
        low = BlockVector(1, [[1.0], [0.0]])
        high = BlockVector(1, [[0.0], [1.0]])
        assert vector_dominates(low, high)
        assert not vector_dominates(high, low)

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError, match="probability"):
            vector_dominates(BlockVector(1, [[0.4], [0.4]]), BlockVector(1, [[0.5], [0.5]]))


class TestIsBlockIncreasing:
    def test_constant(self):
        assert is_block_increasing(BlockVector(2, [[1.0, 1.0], [1.0, 1.0]]))

    def test_phase_decrease_detected(self):
        assert not is_block_increasing(BlockVector(2, [[1.0, 5.0], [2.0, 4.0]]))

    def test_geometric(self):
        alpha = 1.3
        vec = BlockVector(1, [[alpha ** k] for k in range(6)])
        assert is_block_increasing(vec)


class TestLcbTruncate:
    def test_birth_death_n2_pinned_rows(self):
        got = lcb_truncate(natural_walk(), 2)
        assert dense(got) == pytest.approx(np.asarray(WALK3))

    def test_already_supported_is_identity(self):
        P = corner(WALK3)
        assert dense(lcb_truncate(P, 2)) == pytest.approx(dense(P))

    def test_tail_mass_folds_into_last_column(self):
        rows = [
            [0.1, 0.2, 0.3, 0.4],
            [0.25, 0.25, 0.25, 0.25],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.0, 1.0],
        ]
        got = lcb_truncate(corner(rows), 2)
        assert dense(got)[:, 2] == pytest.approx(np.array([0.7, 0.5, 1.0]))
        assert dense(got)[:, :2] == pytest.approx(np.asarray(rows)[:3, :2])

    def test_requires_enough_stored_rows(self):
        with pytest.raises(ValueError):
            lcb_truncate(corner(WALK3), 5)


class TestStationary:
    def test_two_state_pinned(self):
        pi = stationary(corner([[0.5, 0.5], [0.3, 0.7]]))
        assert pi.flat == pytest.approx([0.375, 0.625])

    def test_doubly_stochastic_uniform(self):
        P = corner(np.full((5, 5), 0.2))
        assert stationary(P).flat == pytest.approx(np.full(5, 0.2))

    def test_lcb_birth_death_pinned(self):
        pi = stationary(corner(WALK3))
        assert pi.flat == pytest.approx([9 / 19, 6 / 19, 4 / 19], abs=1e-14)

    def test_multiple_closed_classes_reported(self):
        P = corner([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MultipleClosedClassesError) as err:
            stationary(P)
        assert len(err.value.classes) == 2

    def test_transient_states_get_zero_mass(self):
        P = corner([[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.0, 0.7, 0.3]])
        pi = stationary(P)
        assert pi.flat[0] == 0.0
        assert pi.flat.sum() == pytest.approx(1.0)

    def test_rejects_rectangular_corner(self):
        P = corner_from_dense(1, [[0.5, 0.3, 0.2]])
        with pytest.raises(ValueError, match="square"):
            stationary(P)

    def test_linear_memory_on_ten_thousand_levels(self):
        # 20002 states: one dense N x N copy would need 3.2 GB.
        tracemalloc.start()
        try:
            P = lcb_truncate(mg1_d2(), 10_000)
            pi = stationary(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        x = pi.entries
        image = np.zeros_like(x)
        for o in range(P.band.shape[1]):
            shift = o - P.lower  # slot o maps row level k to column level k + shift
            k = np.arange(max(0, -shift), min(P.levels, P.levels - shift))
            image[k + shift] += np.einsum("ki,kij->kj", x[k], P.band[k, o])
        assert np.abs(image - x).max() <= 1e-10

    def test_residual_small_on_larger_corner(self):
        P = lcb_truncate(natural_walk(), 200)
        pi = stationary(P)
        residual = np.abs(pi.flat @ dense(P) - pi.flat).max()
        assert residual <= 1e-12


class TestDistances:
    def test_identical_zero(self):
        pi = stationary(corner(WALK3))
        assert tv_distance(pi, pi) == 0.0

    def test_disjoint_support_two(self):
        x = BlockVector(1, [[1.0], [0.0]])
        y = BlockVector(1, [[0.0], [1.0]])
        assert tv_distance(x, y) == pytest.approx(2.0)

    def test_pinned_geometric_gap(self):
        x = BlockVector(1, [[9 / 19], [6 / 19], [4 / 19]])
        y = BlockVector(1, [[(1 / 3) * (2 / 3) ** k] for k in range(150)])
        assert tv_distance(x, y) == pytest.approx(16 / 27, abs=1e-12)

    def test_v_norm_reduces_to_tv_at_ones(self):
        x = BlockVector(1, [[0.2], [0.8]])
        y = BlockVector(1, [[0.5], [0.5]])
        v = BlockVector(1, [[1.0], [1.0]])
        assert v_norm_distance(x, y, v) == pytest.approx(tv_distance(x, y))

    def test_single_state_gap_scales_by_v(self):
        x = BlockVector(1, [[0.5], [0.5]])
        y = BlockVector(1, [[0.4], [0.6]])
        v = BlockVector(1, [[5.0], [1.0]])
        # gaps 0.1 at both states, weights 5 and 1
        assert v_norm_distance(x, y, v) == pytest.approx(0.5 + 0.1)

    def test_v_norm_matches_sign_pattern_sup(self):
        rng = np.random.default_rng(5)
        x = rng.dirichlet(np.ones(3))
        y = rng.dirichlet(np.ones(3))
        v = 1.0 + rng.uniform(0.0, 2.0, size=3)
        best = max(
            abs(np.dot(x - y, signs * v))
            for signs in np.array(np.meshgrid(*[[-1, 1]] * 3)).T.reshape(-1, 3)
        )
        got = v_norm_distance(
            BlockVector(1, x[:, None]), BlockVector(1, y[:, None]), BlockVector(1, v[:, None])
        )
        assert got == pytest.approx(best, abs=1e-12)

    def test_v_norm_rejects_small_weights(self):
        x = BlockVector(1, [[0.5], [0.5]])
        with pytest.raises(ValueError):
            v_norm_distance(x, x, BlockVector(1, [[0.5], [1.0]]))

    def test_tv_metric_on_random_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y, z = (BlockVector(1, rng.dirichlet(np.ones(4))[:, None]) for _ in range(3))
            assert tv_distance(x, y) == pytest.approx(tv_distance(y, x))
            assert tv_distance(x, z) <= tv_distance(x, y) + tv_distance(y, z) + 1e-12


class TestPhaseMatrix:
    def test_d1_trivial(self):
        got = phase_matrix(corner(WALK3))
        assert got.psi == pytest.approx(np.ones((1, 1)))
        assert got.varpi == pytest.approx(np.ones(1))

    def test_phase_block_diagonal_kernel(self):
        Q = np.array([[0.3, 0.7], [0.6, 0.4]])
        blocks = {(k, k): Q for k in range(3)}
        P = BlockStochasticMatrix.from_blocks(2, blocks)
        got = phase_matrix(P)
        assert got.psi == pytest.approx(Q)

    def test_gig1_kernel_is_a_sum(self):
        model = mg1_d2()
        got = phase_matrix(model)
        assert got.psi == pytest.approx(model.a_sum())
        assert got.varpi == pytest.approx([5 / 8, 3 / 8])

    def test_level_dependent_kernel_rejected(self):
        P = corner([[0.5, 0.5, 0.0, 0.0], [0.5, 0.0, 0.5, 0.0],
                    [0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.5, 0.5]], d=2)
        with pytest.raises(PhaseStructureError):
            phase_matrix(P)


class TestTransientDistribution:
    def test_identity_keeps_init(self):
        init = BlockVector(1, [[0.3], [0.7]])
        P = corner(np.eye(2))
        np.testing.assert_allclose(transient_distribution(P, init, 3).entries, init.entries,
                                   rtol=0, atol=1e-14)

    def test_point_mass_one_step_is_row(self):
        P = corner(WALK3)
        init = BlockVector(1, [[0.0], [1.0], [0.0]])
        got = transient_distribution(P, init, 1)
        np.testing.assert_allclose(got.flat, dense(P)[1], rtol=0, atol=1e-14)

    def test_two_steps_match_matrix_square(self):
        P = corner(WALK3)
        init = BlockVector(1, [[1.0], [0.0], [0.0]])
        got = transient_distribution(P, init, 2)
        np.testing.assert_allclose(got.flat, (dense(P) @ dense(P))[0], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("d,lower,upper", [(1, 0, 2), (2, 1, 2), (3, 3, 1)])
    def test_band_steps_match_dense_product(self, d, lower, upper):
        rng = np.random.default_rng(d + 10 * lower)
        P = band_corner(d, random_band(rng, d, 9, lower, upper, density=0.5), lower)
        init = BlockVector(d, rng.dirichlet(np.ones(9 * d)).reshape(9, d))
        want = init.flat
        for _ in range(6):
            want = want @ dense(P)
        got = transient_distribution(P, init, 6)
        np.testing.assert_allclose(got.flat, want, rtol=0, atol=1e-14)
