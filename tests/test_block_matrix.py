"""Containers, monotonicity/dominance checks, truncation, stationary, distances."""

import tracemalloc

import numpy as np
import pytest

from bmtrunc import (
    BlockStochasticMatrix,
    GIG1Model,
    BlockVector,
    MultipleClosedClassesError,
    PhaseStructureError,
    assemble,
    block_dominates,
    certificate_for_model,
    compare_against_oracle,
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

from bmtrunc import block_matrix
from bmtrunc.block_matrix import StationarySolveError

from helpers import (
    band_corner,
    corner_from_dense,
    dense,
    dense_blocks,
    dense_stationary,
    full_sweep,
    full_sweep_stationary,
    mg1_d2,
    natural_walk,
    random_band,
    random_monotone_gig1,
)


def corner(rows, d=1):
    return corner_from_dense(d, rows)


WALK3 = [[0.6, 0.4, 0.0], [0.6, 0.0, 0.4], [0.0, 0.6, 0.4]]

# Rows 9e-10 short of 1, within the 1e-9 row tolerance (see the CLI test
# test_rows_short_within_the_row_tolerance).
SHORT_WALK = GIG1Model(
    d=1,
    A={-1: [[0.5999999991]], 1: [[0.4]]},
    B={-1: [[0.5999999991]], 0: [[0.5999999991]], 1: [[0.4]]},
)


class TestBlockStochasticMatrix:
    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            corner([[1.1, -0.1], [0.5, 0.5]])

    def test_rejects_bad_row_sum_naming_the_state(self):
        with pytest.raises(ValueError, match=r"level 1, phase 0"):
            corner([[0.5, 0.5], [0.3, 0.6]])

    @pytest.mark.parametrize("edits, message", [
        # the first negative row, not the most negative one
        ({(0, 0, 0): -0.1, (0, 0, 1): 1.1, (1, 1, 1): -0.5, (1, 1, 0): 1.5},
         "negative entry in row (level 0, phase 0)"),
        # a non-finite entry anywhere comes before a negative one
        ({(0, 1, 0): -0.1, (0, 1, 1): 1.1, (2, 0, 1): np.nan, (1, 1, 0): np.inf},
         "non-finite entry in row (level 1, phase 1)"),
        ({(1, 0, 0): 0.5 + 2e-9, (2, 1, 1): 0.0},
         "row (level 1, phase 0) sums to 1.000000002, outside tolerance 1e-09"),
    ])
    def test_row_check_names_the_first_failing_row(self, edits, message):
        band = np.full((3, 1, 2, 2), 0.5)
        for (k, i, j), value in edits.items():
            band[k, 0, i, j] = value
        with pytest.raises(ValueError) as err:
            BlockStochasticMatrix(2, band)
        assert str(err.value) == message

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="col_levels >= levels"):
            BlockStochasticMatrix(1, np.ones((3, 1, 1, 1)), col_levels=2)

    def test_block_indexing(self):
        P = corner(WALK3)
        assert P.levels == P.col_levels == 3
        blocks = dense_blocks(P)
        assert blocks[1, :, 2, :] == pytest.approx(np.array([[0.4]]))
        assert blocks[2, :, 1, :] == pytest.approx(np.array([[0.6]]))

    def test_from_blocks_round_trip(self):
        P = BlockStochasticMatrix.from_blocks(
            2, {(0, 0): np.eye(2) * 0.5, (0, 1): np.eye(2) * 0.5, (1, 1): np.eye(2)}
        )
        assert P.levels == 2
        blocks = dense_blocks(P)
        assert blocks[0, :, 1, :] == pytest.approx(np.eye(2) * 0.5)
        assert blocks[1, :, 0, :] == pytest.approx(np.zeros((2, 2)))

    def test_from_blocks_keeps_only_nonzero_offsets(self):
        # the zero (1, 0) block widens neither the band nor the corner's levels
        blocks = {(0, 0): [[0.5]], (0, 2): [[0.5]], (1, 0): [[0.0]], (1, 1): [[1.0]],
                  (2, 2): [[1.0]]}
        P = BlockStochasticMatrix.from_blocks(1, blocks)
        assert (P.lower, P.upper, P.levels, P.col_levels) == (0, 2, 3, 3)
        np.testing.assert_array_equal(dense(P), [[0.5, 0, 0.5], [0, 1, 0], [0, 0, 1]])

    def test_from_blocks_names_a_block_outside_the_corner(self):
        # the corner grows to the largest k and l, so only a negative level lies outside
        with pytest.raises(ValueError, match=r"block \(-1,0\) lies outside the 1 x 1 corner"):
            BlockStochasticMatrix.from_blocks(1, {(0, 0): [[1.0]], (-1, 0): [[1.0]]})
        with pytest.raises(ValueError, match=r"block \(1,-2\) lies outside the 2 x 2 corner"):
            BlockStochasticMatrix.from_blocks(1, {(0, 0): [[1.0]], (1, -2): [[1.0]]})

    def test_from_blocks_of_an_empty_map_fails_the_row_check(self):
        with pytest.raises(ValueError, match=r"row \(level 0, phase 0\) sums to 0"):
            BlockStochasticMatrix.from_blocks(1, {})

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
        with pytest.raises(ValueError, match=r"^n=5 exceeds the 3 stored levels$"):
            lcb_truncate(corner(WALK3), 5)
        # a rectangular corner of complete rows truncates only within them
        rows = assemble(mg1_d2(), 6)
        assert lcb_truncate(rows, 5).levels == 6
        with pytest.raises(ValueError, match=r"^n=6 exceeds the 6 stored levels$"):
            lcb_truncate(rows, 6)


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

    @pytest.mark.parametrize(
        "rows, d",
        [
            ([[1.0]], 1),
            ([[0.3, 0.7], [0.6, 0.4]], 2),
            ([[0.5, 0.5], [0.0, 1.0]], 2),  # phase 0 transient
            ([[1.0, 0.0], [0.8, 0.2]], 2),  # phase 1 transient: the class is below the top
        ],
    )
    def test_one_level_corner_matches_dense(self, rows, d):
        # P's top level is level 0: the corner is the truncation at its own top
        P = corner(rows, d)
        assert P.levels == 1
        want = dense_stationary(P)
        for pi in (stationary(P), *stationary(P, [0])):
            assert np.max(np.abs(pi.flat - want)) <= 1e-15
            assert np.array_equal(pi.flat == 0.0, want == 0.0)

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

    def test_linear_memory_on_many_levels_of_a_tall_corner(self):
        # 401 levels solved at once: padding every vector to the 10 001
        # levels of the largest would need 64 MB.
        P = lcb_truncate(mg1_d2(), 10_000)
        levels = list(range(1, 401)) + [10_000]
        tracemalloc.start()
        try:
            solved = stationary(P, levels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert [pi.levels for pi in solved] == [n + 1 for n in levels]

    def test_level_vectors_are_most_of_a_many_level_solve(self):
        # The vectors of these 240 levels take 4.4 MiB, and the descent
        # writes them in place: the residual check's product of the same
        # size is the only other array that large.
        P = lcb_truncate(mg1_d2(), 2410)
        tracemalloc.start()
        try:
            solved = stationary(P, range(10, 2401, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20
        assert solved[-1].levels == 2401

    def test_level_vectors_above_the_byte_limit_are_refused_before_the_sweep(self):
        # The vectors of these 20000 levels would take 3.2 GB. stationary
        # counts them for every caller, and compare_against_oracle solves
        # its truncations before it forms the law.
        model = mg1_d2()
        P = lcb_truncate(model, 20_020)
        cert = certificate_for_model(model)[2]
        levels = range(1, 20_001)
        limit = rf"{block_matrix.MAX_ARRAY_BYTES} bytes \(MAX_ARRAY_BYTES\)"
        for solve in (
            lambda: stationary(P, levels),
            lambda: compare_against_oracle(model, levels, cert, reference_level=20_001),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=limit):
                    solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20

    def test_residual_small_on_larger_corner(self):
        P = lcb_truncate(natural_walk(), 200)
        pi = stationary(P)
        residual = np.abs(pi.flat @ dense(P) - pi.flat).max()
        assert residual <= 1e-12


class TestStationarySweep:
    def test_solves_levels_inside_the_top_fold(self):
        # U = 2 and 3: levels 10 and 9..11 fold rows P has folded already.
        for P in (band_corner(2, random_band(np.random.default_rng(3), 2, 12, 1, 2), 1),
                  lcb_truncate(random_monotone_gig1(), 12)):
            levels = list(range(1, P.levels))
            solved = stationary(P, levels)
            for n, got, want in zip(levels, solved, full_sweep_stationary(P, levels)):
                assert np.array_equal(got.entries, want.entries)
                assert np.abs(got.flat - dense_stationary(lcb_truncate(P, n))).max() <= 1e-15
            for n in (0, P.levels):
                with pytest.raises(ValueError, match=f"level {n} is outside"):
                    stationary(P, [9, n])

    def test_scales_carry_past_float_range(self):
        # The up-0.001 walk: pi(0) / pi(800) is about 10^2400, so unscaled
        # bottom-up back-substitution would overflow.
        up = 0.001
        model = GIG1Model(
            d=1,
            A={-1: [[1.0 - up]], 1: [[up]]},
            B={-1: [[1.0 - up]], 0: [[1.0 - up]], 2: [[up]]},
        )
        levels = [10, 50, 400, 800]
        P = lcb_truncate(model, 800)
        for n, pi in zip(levels, stationary(P, levels)):
            assert np.all(np.isfinite(pi.flat))
            assert np.abs(pi.flat - stationary(lcb_truncate(P, n)).flat).max() <= 1e-15

    def test_chunks_shorter_than_the_band(self, monkeypatch):
        # lo = 7 states feed each chunk or map; with a 2-bit budget most of
        # them are shorter, so their feed spans several of them and scales.
        P = band_corner(2, random_band(np.random.default_rng(5), 2, 40, 3, 2), 3)
        levels = [5, 20, 39]
        want = stationary(P, levels)
        pieces = []
        store = block_matrix._Solution._store

        def counted(solution, z):
            pieces.append(z.size - solution.feed.size)
            return store(solution, z)

        monkeypatch.setattr(block_matrix._Solution, "_store", counted)
        monkeypatch.setattr(block_matrix, "_CHUNK_BITS", 2.0)
        for pi, ref in zip(stationary(P, levels), want):
            assert np.abs(pi.flat - ref.flat).max() <= 1e-14
        assert sum(size < 7 for size in pieces) > 20

    def test_short_chunks_see_each_level_cut_at_its_top(self, monkeypatch):
        # Short chunks make the back-substitution read the column sums of
        # every state. With L = 3 > U + 1, rows above a level reach into the
        # columns of states the shared sweep eliminated below it, and into
        # the level's own: the level must see its own columns cut at its top
        # and the shared ones as they were swept, like the full-sweep oracle.
        P = band_corner(2, random_band(np.random.default_rng(0), 2, 14, 3, 1), 3)
        monkeypatch.setattr(block_matrix, "_CHUNK_BITS", 2.0)
        levels = list(range(1, P.levels))
        for got, want in zip(stationary(P, levels), full_sweep_stationary(P, levels)):
            assert np.array_equal(got.entries, want.entries)

    @staticmethod
    def swept_states(monkeypatch, P, levels) -> np.ndarray:
        """How often stationary(P, levels) eliminates each state for real."""
        counts = np.zeros(P.levels * P.d, dtype=int)
        sweep, windows = block_matrix._sweep_up, block_matrix._top_windows

        def counted(views, start, stop, pivots):
            counts[start:stop] += 1
            return sweep(views, start, stop, pivots)

        def counted_windows(P, shared, ks, span):
            for k in ks:  # each level sweeps the states of its window
                counts[k * P.d:(k + span + 1) * P.d] += 1
            return windows(P, shared, ks, span)

        monkeypatch.setattr(block_matrix, "_sweep_up", counted)
        monkeypatch.setattr(block_matrix, "_top_windows", counted_windows)
        stationary(P, levels)
        monkeypatch.undo()
        return counts

    @pytest.mark.parametrize("model", [natural_walk, random_monotone_gig1])
    def test_repeat_stops_before_a_perturbed_row(self, monkeypatch, model):
        # Level 200 swaps its outermost blocks: the sweep copies the repeating
        # range below it, eliminates every state that reads it, then repeats.
        P = lcb_truncate(model(), 400)
        band = P.band.copy()
        band[200, [0, -1]] = band[200, [-1, 0]]
        P = BlockStochasticMatrix(P.d, band, P.lower)
        levels = [10, 150, 199, 250, 350, 400]
        for got, want in zip(stationary(P, levels), full_sweep_stationary(P, levels)):
            assert np.array_equal(got.entries, want.entries)
        counts = self.swept_states(monkeypatch, P, [400])
        lo = P.lower * P.d + P.d - 1
        assert np.all(counts[200 * P.d - lo:201 * P.d] == 1)
        assert counts[:400 * P.d].sum() < 200 * P.d

    def test_level_dependent_band_sweeps_every_state(self, monkeypatch):
        P = band_corner(2, random_band(np.random.default_rng(7), 2, 60, 2, 1), 2)
        levels = [5, 30, 58, 59]
        for got, want in zip(stationary(P, levels), full_sweep_stationary(P, levels)):
            assert np.array_equal(got.entries, want.entries)
        assert np.all(self.swept_states(monkeypatch, P, [59]) == 1)

    def test_repeating_walk_eliminates_few_states(self, monkeypatch):
        P = lcb_truncate(natural_walk(), 3200)
        assert self.swept_states(monkeypatch, P, [10, 1600, 3200]).sum() < 100

    # d = 1 chains, rows {level: probability}. A: {0,1,2} closed, 3 transient
    # and {4,5} closed; its truncation at 4 folds 4 -> 5 into a closed {4}.
    # B: {0,1} closed and 2 -> 3 -> 1, so its truncation at 2 folds 2 -> 3
    # into a closed {2} while B itself has one closed class.
    REDUCIBLE_A = {0: {0: .5, 1: .5}, 1: {0: .5, 2: .5}, 2: {1: 1.0}, 3: {2: 1.0},
                   4: {5: 1.0}, 5: {4: 1.0}}
    REDUCIBLE_B = {0: {0: .5, 1: .5}, 1: {0: .5, 1: .5}, 2: {3: 1.0}, 3: {1: 1.0},
                   4: {3: 1.0}, 5: {4: 1.0}}

    @pytest.mark.parametrize("rows, levels, classes", [
        # only P's top level is reducible
        (REDUCIBLE_A, [1, 3, 5], [[0, 1, 2], [4, 5]]),
        # only a lower level is reducible
        (REDUCIBLE_B, [2, 5], [[0, 1], [2]]),
        # both: the levels are checked from the lowest up, so level 4 names its
        # classes before the top level does
        (REDUCIBLE_A, [1, 3, 4, 5], [[0, 1, 2], [4]]),
    ])
    def test_the_lowest_reducible_level_names_its_classes(self, rows, levels, classes):
        P = BlockStochasticMatrix.from_blocks(
            1, {(k, l): [[p]] for k, row in rows.items() for l, p in row.items()}
        )
        with pytest.raises(MultipleClosedClassesError) as err:
            stationary(P, levels)
        assert err.value.classes == [[(s, 0) for s in cls] for cls in classes]

    def test_a_lower_residual_failure_comes_before_a_higher_class_error(self, monkeypatch):
        # Each level is checked as a whole, from the lowest up: levels 1 and
        # 3 of REDUCIBLE_A fail their residual check here, so level 5 never
        # names its two classes, although its class is checked during the
        # sweep, before any level is solved.
        P = BlockStochasticMatrix.from_blocks(
            1, {(k, l): [[p]] for k, row in self.REDUCIBLE_A.items() for l, p in row.items()}
        )
        monkeypatch.setattr(block_matrix, "STATIONARY_RESIDUAL_TOLERANCE", -1.0)
        with pytest.raises(StationarySolveError, match="stationary residual"):
            stationary(P, [1, 3, 5])
        with pytest.raises(MultipleClosedClassesError):
            stationary(P, [5])

    def test_a_folded_row_outside_the_tolerance_fails_the_lowest_level_that_holds_it(
        self, monkeypatch
    ):
        # Row 6 is 5e-10 short: it passes P's check, and then the row
        # tolerance drops to 1e-10. A level folds and checks its top U + 1 = 3
        # levels, so levels 6..8 fail and the others pass; in one stack of
        # levels the lowest failing one names the row.
        P = band_corner(2, random_band(np.random.default_rng(0), 2, 12, 1, 2), 1)
        band = P.band.copy()
        band[6, :, 1, :] *= 1 - 5e-10
        P = BlockStochasticMatrix(2, band, 1)
        monkeypatch.setattr(block_matrix, "ROW_SUM_TOLERANCE", 1e-10)
        assert len(stationary(P, [1, 2, 5, 9, 11])) == 5
        with pytest.raises(ValueError, match=r"row \(level 6, phase 1\) sums to 0.9999999995"):
            stationary(P, [3, 5, 7, 8, 11])

    def test_a_zero_pivot_takes_the_slow_path(self, monkeypatch):
        # An underflowed pivot inside the class cannot pass for a class top:
        # the slow path finds the class and rejects the zero pivot.
        P = lcb_truncate(mg1_d2(), 20)
        _, _, pivots = full_sweep(P)
        assert block_matrix._class_top(P.band, P.lower, pivots) == pivots.size - 1
        calls = []
        graph = block_matrix._closed_classes
        monkeypatch.setattr(
            block_matrix, "_closed_classes", lambda *a: calls.append(1) or graph(*a)
        )
        pivots[7] = 0.0
        with pytest.raises(StationarySolveError, match=r"level 3, phase 1"):
            block_matrix._class_top(P.band, P.lower, pivots)
        assert calls == [1]

    @pytest.mark.parametrize("P", [
        lcb_truncate(mg1_d2(), 60),
        lcb_truncate(random_monotone_gig1(), 80),
        lcb_truncate(SHORT_WALK, 40),
        band_corner(2, random_band(np.random.default_rng(4), 2, 30, 2, 3), 2),
    ])
    def test_residual_check_sees_the_truncated_band(self, monkeypatch, P):
        # Each level's residual runs on the band lcb_truncate(P, n) builds, with
        # its largest |row sum - 1|, without building that corner: P's own
        # rows below the fold, read from P's band, then the folded rows. The
        # batch gives each level the residual _left_product gives it on
        # those rows.
        top = P.levels - 1
        levels = [1, 2, 10, top // 2, top - P.upper, top]
        seen = []
        check = block_matrix._checked_levels

        def recorded(band, lower, ks, folds, x, starts, deviations):
            assert np.shares_memory(band, P.band)
            residuals = check(band, lower, ks, folds, x, starts, deviations)
            folded = [rows for stack in folds for rows in stack]
            for k, rows, a, deviation, residual in zip(ks, folded, starts, deviations, residuals):
                assert len(rows) <= P.upper + 1
                pi = x[a:a + k + len(rows)]
                truncated = np.concatenate((band[:k], rows))
                product = block_matrix._left_product(truncated, lower, pi)
                assert residual == np.max(np.abs(product - pi))
                seen.append((truncated, lower, deviation))
            return residuals

        monkeypatch.setattr(block_matrix, "_checked_levels", recorded)
        stationary(P, levels)
        assert len(seen) == len(levels)
        for n, (band, lower, deviation) in zip(sorted(levels), seen):
            want = lcb_truncate(P, n)
            assert np.array_equal(band, want.band) and lower == want.lower
            assert deviation == np.max(np.abs(block_matrix._row_sums(want.band) - 1.0))


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
        got = model.phase_matrix()
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
