"""Property tests for the ordering calculus on random block matrices.

Each property runs on 200 random instances (hypothesis profile) with
d in {1,2,3} and at most 8 levels. The explicit transform-product oracles
and the dense stationary oracle from helpers are materialized only here.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bmtrunc.coupling import _CouplingKernel

from bmtrunc import (
    BlockStochasticMatrix,
    BlockVector,
    MultipleClosedClassesError,
    block_dominates,
    closed_classes,
    find_alpha,
    is_block_increasing,
    is_block_monotone,
    lcb_truncate,
    load_model,
    phase_matrix,
    save_model,
    stationary,
    tv_distance,
    vector_dominates,
)

from helpers import (
    band_columns,
    band_corner,
    corner_from_dense,
    dense,
    dense_blocks,
    dense_closed_classes,
    dense_level_inverse,
    dense_stationary,
    oracle_block_monotone,
    oracle_dominates,
    random_block_increasing,
    random_bm_corner,
    random_corner,
    random_dominated_corner,
    random_dominated_vectors,
    random_band,
    random_monotone_gig1,
)

dims = st.integers(min_value=1, max_value=3)
level_counts = st.integers(min_value=2, max_value=8)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
band_widths = st.integers(min_value=0, max_value=3)


def make_rng(seed):
    return np.random.default_rng(seed)


@given(seeds, dims, level_counts, st.booleans())
def test_monotone_check_matches_transform_oracle(seed, d, levels, want_monotone):
    # mix of monotone-by-construction and generic corners
    rng = make_rng(seed)
    P = random_bm_corner(rng, d, levels) if want_monotone else random_corner(rng, d, levels)
    assert is_block_monotone(P) == oracle_block_monotone(P)


@given(seeds, dims, level_counts)
def test_constructed_monotone_corners_check_out(seed, d, levels):
    P = random_bm_corner(make_rng(seed), d, levels)
    assert is_block_monotone(P)


@given(seeds, dims, level_counts)
def test_dominance_check_matches_transform_oracle(seed, d, levels):
    rng = make_rng(seed)
    high = random_bm_corner(rng, d, levels)
    low = random_dominated_corner(rng, high)
    assert block_dominates(low, high)
    assert oracle_dominates(low, high)
    # and the generic pair agrees with the oracle in both directions
    other = random_corner(rng, d, levels)
    assert block_dominates(other, high) == oracle_dominates(other, high)
    assert block_dominates(high, other) == oracle_dominates(high, other)


@given(seeds, dims, level_counts)
def test_monotone_step_preserves_vector_dominance(seed, d, levels):
    rng = make_rng(seed)
    S = random_bm_corner(rng, d, levels)
    mu, eta = random_dominated_vectors(rng, d, levels)
    assert vector_dominates(mu, eta)
    mu_next = BlockVector(d, (mu.flat @ dense(S)).reshape(levels, d))
    eta_next = BlockVector(d, (eta.flat @ dense(S)).reshape(levels, d))
    assert vector_dominates(mu_next, eta_next, tol=1e-9)


@given(seeds, dims, level_counts)
def test_monotone_matrix_maps_increasing_to_increasing(seed, d, levels):
    rng = make_rng(seed)
    S = random_bm_corner(rng, d, levels)
    f = random_block_increasing(rng, d, levels)
    image = BlockVector(d, (dense(S) @ f.flat).reshape(levels, d))
    assert is_block_increasing(image, tol=1e-9)


@given(seeds, dims, level_counts)
def test_dominance_propagates_through_powers(seed, d, levels):
    rng = make_rng(seed)
    high = random_bm_corner(rng, d, levels)
    low = random_dominated_corner(rng, high)
    low_m, high_m = dense(low), dense(high)
    for m in range(2, 6):
        low_m = low_m @ dense(low)
        high_m = high_m @ dense(high)
        assert oracle_dominates(
            corner_from_dense(d, low_m), corner_from_dense(d, high_m), tol=1e-9
        ), f"power {m} broke dominance"


@given(seeds, dims, level_counts)
def test_dominance_orders_stationary_vectors(seed, d, levels):
    rng = make_rng(seed)
    high = random_bm_corner(rng, d, levels)
    low = random_dominated_corner(rng, high)
    pi_low = stationary(low)
    pi_high = stationary(high)
    assert vector_dominates(pi_low, pi_high, tol=1e-9)


@given(seeds, dims, st.integers(min_value=4, max_value=8))
def test_truncation_closure_and_dominance_chain(seed, d, levels):
    rng = make_rng(seed)
    P = random_bm_corner(rng, d, levels)
    for n in range(1, levels - 1):
        cut = lcb_truncate(P, n)
        assert is_block_monotone(cut, tol=1e-9)
        assert block_dominates(cut, lcb_truncate(P, n + 1), tol=1e-9)
        assert block_dominates(cut, P, tol=1e-9)


@given(seeds, dims, st.integers(min_value=4, max_value=8))
def test_truncated_phase_marginals_are_invariant(seed, d, levels):
    rng = make_rng(seed)
    P = random_bm_corner(rng, d, levels)
    varpi = phase_matrix(P).varpi
    for n in range(1, levels):
        pi_n = stationary(lcb_truncate(P, n))
        assert np.abs(pi_n.entries.sum(axis=0) - varpi).max() <= 1e-9


@given(seeds, dims, level_counts)
def test_stationary_residual_and_simplex(seed, d, levels):
    P = random_bm_corner(make_rng(seed), d, levels)
    pi = stationary(P)
    assert np.all(pi.flat >= 0.0)
    assert pi.flat.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(pi.flat @ dense(P) - pi.flat).max() <= 1e-10


@given(seeds, dims, level_counts)
def test_truncation_error_shrinks_with_n(seed, d, levels):
    rng = make_rng(seed)
    P = random_bm_corner(rng, d, levels)
    pi = stationary(P)
    errors = [tv_distance(stationary(lcb_truncate(P, n)), pi) for n in range(1, levels)]
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-9


# --- banded stationary solver against the dense GTH oracle ---


def assert_stationary_matches_dense(P):
    try:
        expected = dense_stationary(P)
    except MultipleClosedClassesError as want:
        with pytest.raises(MultipleClosedClassesError) as got:
            stationary(P)
        assert got.value.classes == want.classes
        return
    pi = stationary(P).flat
    assert np.max(np.abs(pi - expected)) <= 1e-13
    assert np.all(pi[expected == 0.0] == 0.0)


@given(seeds, dims, level_counts, band_widths, band_widths, st.sampled_from([1.0, 0.5]))
def test_banded_stationary_matches_dense_oracle(seed, d, levels, lower, upper, density):
    P = band_corner(d, random_band(make_rng(seed), d, levels, lower, upper, density), lower)
    want = dense_closed_classes(dense(P) > 0.0)
    assert [c.tolist() for c in closed_classes(P)] == [c.tolist() for c in want]
    assert_stationary_matches_dense(P)


@given(seeds, dims, level_counts, band_widths, st.integers(min_value=1, max_value=3))
def test_banded_stationary_gives_transient_states_zero_mass(seed, d, levels, lower, upper):
    # No row above level 0 returns to it while level 0 moves up: level 0 is
    # transient, and with lower = 0 every level below the last one is too.
    band = random_band(make_rng(seed), d, levels, lower, upper)
    cols = band_columns(levels, band.shape[1], lower)
    band[1:][cols[1:] == 0] = 0.0
    P = band_corner(d, band, lower)
    assert np.all(stationary(P).entries[0] == 0.0)
    assert_stationary_matches_dense(P)


@given(seeds, dims, level_counts, band_widths, band_widths)
def test_banded_stationary_reports_every_closed_class(seed, d, levels, lower, upper):
    # Cutting every block between the two halves of the levels leaves at
    # least one closed class in each half.
    band = random_band(make_rng(seed), d, levels, lower, upper)
    split = levels // 2
    rows = np.arange(levels)[:, None]
    band[(rows < split) != (band_columns(levels, band.shape[1], lower) < split)] = 0.0
    P = band_corner(d, band, lower)
    with pytest.raises(MultipleClosedClassesError) as err:
        dense_stationary(P)
    assert len(err.value.classes) >= 2
    assert_stationary_matches_dense(P)


@given(seeds, st.integers(min_value=1, max_value=12))
def test_band_monotone_check_on_truncations_matches_transform_oracle(seed, n):
    # support -2..2 and boundary blocks up to level 3: narrow against n
    P = lcb_truncate(random_monotone_gig1(seed), n)
    assert is_block_monotone(P) and oracle_block_monotone(P)


@given(seeds)
def test_find_alpha_matches_brute_force_minimum(seed):
    model = random_monotone_gig1(seed)
    alpha, point = find_alpha(model)
    # oracle: largest eigenvalue modulus of the transform on a log grid
    zs = np.geomspace(1.0, 4.0 * alpha, 401)[1:]
    transforms = sum(zs[:, None, None] ** j * blk for j, blk in model.A.items())
    deltas = np.abs(np.linalg.eigvals(transforms)).max(axis=1)
    assert point.delta <= deltas.min() + 1e-12
    slope = sum(j * alpha ** (j - 1) * blk for j, blk in model.A.items())
    assert abs(point.mu @ slope @ point.v) <= 1e-9 * np.abs(slope).max()


@given(seeds, dims, level_counts, band_widths, band_widths)
def test_band_order_checks_match_transform_oracles(seed, d, levels, lower, upper):
    band = random_band(make_rng(seed), d, levels, lower, upper, density=0.5)
    P = band_corner(d, band, lower)
    # Moving half of every row's mass to its rightmost column raises every
    # tail sum: Q dominates P on the same band.
    cols = band_columns(levels, band.shape[1], lower)
    last = np.where(cols < levels, np.arange(band.shape[1]), -1).max(axis=1)
    moved = P.band * 0.5
    moved[np.arange(levels), last] += P.band.sum(axis=1) * 0.5
    Q = BlockStochasticMatrix(d=d, band=moved, lower=lower)
    assert is_block_monotone(P) == oracle_block_monotone(P)
    assert block_dominates(P, Q) and oracle_dominates(P, Q)
    assert block_dominates(Q, P) == oracle_dominates(Q, P)


@given(seeds, dims, level_counts, band_widths, band_widths, st.integers(min_value=0, max_value=2))
def test_block_maps_and_files_rebuild_the_band_read_off_the_dense_array(
    seed, d, levels, lower, upper, extra
):
    # Half the blocks are zero, so the nonzero ones often span fewer offsets
    # than the band was drawn with; `extra` adds columns past the last level.
    rng = make_rng(seed)
    col_levels = levels + extra
    band = rng.uniform(0.05, 1.0, size=(levels, lower + upper + 1, d, d))
    band *= rng.uniform(size=(levels, lower + upper + 1, 1, 1)) < 0.5
    band[:, lower] += 0.01 * np.eye(d)
    cols = band_columns(levels, band.shape[1], lower)
    band[(cols < 0) | (cols >= col_levels)] = 0.0
    P = BlockStochasticMatrix(d, band / band.sum(axis=(1, 3), keepdims=True), lower, col_levels)

    def assert_same(got, want):
        np.testing.assert_array_equal(got.band, want.band)
        assert (got.lower, got.col_levels) == (want.lower, want.col_levels)

    want = corner_from_dense(d, dense(P))
    k, o = np.nonzero(np.any(P.band != 0.0, axis=(2, 3)))
    nonzero = {(r, r - lower + s): P.band[r, s] for r, s in zip(k.tolist(), o.tolist())}
    assert_same(BlockStochasticMatrix.from_blocks(d, nonzero, col_levels=col_levels), want)
    blocks = dense_blocks(P)
    every = {(r, c): blocks[r, :, c, :] for r, c in np.ndindex(levels, col_levels)}
    assert_same(BlockStochasticMatrix.from_blocks(d, every), want)
    # A file lists the nonzero blocks only, so the loaded corner ends at the
    # last column level that holds one.
    last = max(levels, max(c for _, c in nonzero) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corner.json")
        save_model(P, path)
        assert_same(load_model(path), corner_from_dense(d, dense(P)[:, :last * d]))


@given(seeds, dims, level_counts, band_widths, band_widths, st.sampled_from([1.0, 0.5]))
def test_band_level_inverse_matches_dense_inverse(seed, d, levels, lower, upper, density):
    # density 0.5 leaves zero-mass slots inside the band and zero-mass phase moves
    P = band_corner(d, random_band(make_rng(seed), d, levels, lower, upper, density), lower)
    kernel = _CouplingKernel(P)
    blocks = dense_blocks(P)
    for k, i, j in np.ndindex(levels, d, d):
        cdf = np.cumsum(blocks[k, i, :, j])
        breaks = cdf / cdf[-1] if cdf[-1] > 0.0 else cdf
        u = np.concatenate([np.linspace(0.0, 1.0, 33), breaks,
                            np.nextafter(breaks, 0.0), np.nextafter(breaks, 1.0)])
        u = np.unique(u[(u >= 0.0) & (u < 1.0)])
        n = u.size
        got = kernel.level_inverse(np.full(n, k), np.full(n, i), np.full(n, j), u)
        want = dense_level_inverse(P, k, i, j, u)
        np.testing.assert_array_equal(got[u > 0.0], want[u > 0.0])
        # u = 0.0 (probability 2**-53 per draw) may land on another level than
        # the dense inverse, but on a stored level the move i -> j can reach.
        assert u[0] == 0.0
        if cdf[-1] > 0.0:
            assert 0 <= got[0] < levels and blocks[k, i, got[0], j] > 0.0
        else:
            assert got[0] == want[0] == 0
