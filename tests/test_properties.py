"""Property tests for the ordering calculus on random block matrices.

The stationary law of random GI/G/1 models is checked against the
truncation reference of a stored corner, and compare_against_oracle's
measured error on a stored corner against the TV distance to its own law.

Each property runs on 200 random instances (hypothesis profile) with
d in {1,2,3} and at most 8 levels. The explicit transform-product oracles
and the dense stationary oracle from helpers are materialized only here.
The closed-form horizon optimizer is checked against the full m scan, and
the shared sweep's repeat shortcut and per-level finish against a sweep over
every state that finishes each level on its own corner, the truncation's
top-level fold against a fold over every level, and the row check and band
products against numpy's axis reductions, einsum and the dense product.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmtrunc import block_matrix
from bmtrunc.block_matrix import (
    _SharedSweep,
    _checked_row_sums,
    _class_top,
    _left_product,
    _right_product,
    _state_band,
)
from bmtrunc.coupling import _CouplingKernel

from bmtrunc import (
    BlockStochasticMatrix,
    BlockVector,
    GIG1Model,
    DriftCertificate,
    GeometricTail,
    MultipleClosedClassesError,
    assemble,
    block_dominates,
    certificate_for_model,
    closed_classes,
    compare_against_oracle,
    find_alpha,
    is_block_increasing,
    is_block_monotone,
    lcb_truncate,
    load_model,
    optimize_m,
    phase_matrix,
    save_model,
    stationary,
    tv_distance,
    vector_dominates,
)

from helpers import (
    axis_row_error,
    axis_row_sums,
    band_columns,
    band_corner,
    corner_from_dense,
    dense,
    dense_blocks,
    dense_closed_classes,
    dense_level_inverse,
    dense_stationary,
    einsum_left_product,
    einsum_right_product,
    full_band_fold,
    full_sweep,
    full_sweep_stationary,
    oracle_block_monotone,
    oracle_dominates,
    random_block_increasing,
    random_bm_corner,
    random_corner,
    random_dominated_corner,
    random_dominated_vectors,
    random_band,
    random_monotone_gig1,
    random_shaped_gig1,
    random_skip_free_d8,
    scan_optimize_m,
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


@given(seeds, dims, st.integers(min_value=4, max_value=11), st.data())
def test_stored_corner_is_measured_against_its_own_law(seed, d, levels, data):
    # A stored corner is the finite chain it closes to, so its oracle is its
    # own law, split at the reference level. A b of 1e6 with m_max = 1 puts
    # bound1 above 4e6, so no gate fires, whatever the corner.
    P = random_bm_corner(make_rng(seed), d, levels)
    cert = DriftCertificate(BlockVector(d, np.ones((levels, d))), 0.5, 1e6)
    reference = data.draw(st.integers(min_value=2, max_value=levels - 1))
    ns = list(range(1, reference))
    reports = compare_against_oracle(P, ns, cert, m_max=1, reference_level=reference)
    pi = stationary(P)
    for n, r in zip(ns, reports):
        exact = tv_distance(stationary(lcb_truncate(P, n)), pi)
        assert abs(r.measured_error - exact) <= 1e-14
        assert 2.0 * pi.entries[n + 1:].sum() <= r.measured_error + 1e-15


# --- banded stationary solver against the dense GTH oracle ---


reducible_kinds = st.sampled_from(["dense", "sparse", "transient", "split"])


def reducible_corner(seed, d, levels, lower, upper, kind):
    """A random square corner: full or sparse, with a transient level 0, or cut in halves.

    "transient": no row above level 0 returns to it while level 0 moves up
    (needs upper >= 1). "split": no block crosses between the two halves of
    the levels, so each half holds a closed class.
    """
    band = random_band(make_rng(seed), d, levels, lower, upper, 0.5 if kind == "sparse" else 1.0)
    cols = band_columns(levels, band.shape[1], lower)
    if kind == "transient":
        band[1:][cols[1:] == 0] = 0.0
    elif kind == "split":
        rows = np.arange(levels)[:, None]
        band[(rows < levels // 2) != (cols < levels // 2)] = 0.0
    return band_corner(d, band, lower)


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
    # Level 0 is transient, and with lower = 0 every level below the last one is too.
    P = reducible_corner(seed, d, levels, lower, upper, "transient")
    assert np.all(stationary(P).entries[0] == 0.0)
    assert_stationary_matches_dense(P)


@given(seeds, dims, level_counts, band_widths, band_widths)
def test_banded_stationary_reports_every_closed_class(seed, d, levels, lower, upper):
    P = reducible_corner(seed, d, levels, lower, upper, "split")
    with pytest.raises(MultipleClosedClassesError) as err:
        dense_stationary(P)
    assert len(err.value.classes) >= 2
    assert_stationary_matches_dense(P)


# --- one bottom-up sweep for a family of truncation levels ---

sweep_level_counts = st.integers(min_value=2, max_value=10)


def sweep_levels(P):
    """Every level stationary(P, levels) accepts on a corner of two or more levels."""
    return list(range(1, P.levels))


def assert_sweep_matches(P, levels):
    """Each level's vector matches its own top-down solve and the dense oracle.

    When some level has several closed classes, the sweep must raise the
    classes of one such level instead. Returns the vectors (or []).
    """
    expected = {}
    for n in levels:
        try:
            expected[n] = dense_stationary(lcb_truncate(P, n))
        except MultipleClosedClassesError as err:
            expected[n] = err.classes
    failing = [want for want in expected.values() if isinstance(want, list)]
    if failing:
        with pytest.raises(MultipleClosedClassesError) as got:
            stationary(P, levels)
        assert got.value.classes in failing
        return []
    family = stationary(P, levels)
    for got, want in zip(family, full_sweep_stationary(P, levels)):
        assert np.array_equal(got.entries, want.entries)
    for n, pi in zip(levels, family):
        want = expected[n]
        assert np.max(np.abs(pi.flat - want)) <= 1e-13
        assert np.max(np.abs(pi.flat - stationary(lcb_truncate(P, n)).flat)) <= 1e-13
        assert np.all(pi.flat[want == 0.0] == 0.0)
    return family


@given(seeds, dims, sweep_level_counts, band_widths, band_widths, st.sampled_from([1.0, 0.5]))
def test_sweep_matches_every_level_and_the_dense_oracle(seed, d, levels, lower, upper, density):
    P = band_corner(d, random_band(make_rng(seed), d, levels, lower, upper, density), lower)
    assert_sweep_matches(P, sweep_levels(P))


@given(seeds, dims, sweep_level_counts, band_widths, st.integers(min_value=1, max_value=3))
def test_sweep_gives_transient_states_zero_mass(seed, d, levels, lower, upper):
    # As in the top-down test, in every truncation.
    P = reducible_corner(seed, d, levels, lower, upper, "transient")
    family = assert_sweep_matches(P, sweep_levels(P))
    assert family and all(np.all(pi.entries[0] == 0.0) for pi in family)


@given(seeds, dims, st.integers(min_value=4, max_value=10), band_widths, band_widths)
def test_sweep_names_the_closed_classes_of_the_failing_level(seed, d, levels, lower, upper):
    # Every level from levels // 2 up has a closed class in each half, and
    # the levels below it may have one.
    P = reducible_corner(seed, d, levels, lower, upper, "split")
    for n in sweep_levels(P):
        assert_sweep_matches(P, [n])
    with pytest.raises(MultipleClosedClassesError):
        stationary(P, sweep_levels(P))


@given(seeds, st.integers(min_value=10, max_value=200), st.data())
def test_repeat_shortcut_matches_the_full_sweep_bit_for_bit(seed, top, data):
    # The frontier first repeats at about level 40-80 on these models, so
    # short corners sweep every state and long ones copy most of theirs.
    P = lcb_truncate(random_monotone_gig1(seed), top)
    W, lo, up = _state_band(P)
    pivots = np.zeros(P.levels * P.d)
    _SharedSweep(P, W, lo, up, pivots).run_to(P.levels)
    W_full, _, pivots_full = full_sweep(P)
    assert np.array_equal(pivots, pivots_full)
    assert np.array_equal(W[:, :lo], W_full[:, :lo])
    levels = data.draw(st.lists(st.sampled_from(sweep_levels(P)), min_size=1, max_size=12))
    for got, want in zip(stationary(P, levels), full_sweep_stationary(P, levels)):
        assert np.array_equal(got.entries, want.entries)


@given(seeds, st.integers(min_value=10, max_value=200), st.data())
def test_a_level_has_the_same_bits_whatever_else_is_solved(seed, top, data):
    # The descent anchors its maps at positions fixed by P, so a level's
    # vector does not depend on the other levels of the call, also when a
    # small bit budget splits the tree's nodes below the repeat.
    if data.draw(st.booleans()):
        P = lcb_truncate(random_monotone_gig1(seed), top)
    else:
        P = band_corner(2, random_band(make_rng(seed), 2, top // 4, 2, 1), 2)
    levels = data.draw(st.lists(st.sampled_from(sweep_levels(P)), min_size=1, max_size=12))
    with mock.patch.object(block_matrix, "_CHUNK_BITS", data.draw(st.sampled_from([1000.0, 20.0]))):
        for n, pi in zip(levels, stationary(P, levels)):
            assert np.array_equal(pi.entries, stationary(P, [n])[0].entries)


@given(seeds, dims, level_counts, band_widths, band_widths, st.sampled_from([1.0, 0.5]))
def test_lcb_truncate_matches_the_full_band_fold(seed, d, levels, lower, upper, density):
    P = band_corner(d, random_band(make_rng(seed), d, levels, lower, upper, density), lower)
    for n in range(1, levels):
        got, want = lcb_truncate(P, n), full_band_fold(P, n)
        assert np.array_equal(got.band, want.band)
        assert (got.lower, got.col_levels) == (want.lower, want.col_levels)


# --- the band kernels against axis reductions, einsum and dense products ---

row_faults = st.sampled_from(["nan", "inf", "-inf", "negative", "over", "under"])


def inject(band, state, fault, rng):
    """Put a fault into row `state` (flat k*d + i) of a band: one bad entry or a sum off by 2e-9."""
    d = band.shape[2]
    k, i = divmod(state, d)
    # the first slot the row stores mass in; every row has its self-loop
    o = int(np.flatnonzero(band[k, :, i].any(axis=1))[0])
    if fault in ("over", "under"):
        j = int(np.argmax(band[k, o, i]))
        band[k, o, i, j] += 2e-9 if fault == "over" else -2e-9
    else:
        j = int(rng.integers(d))
        band[k, o, i, j] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}.get(
            fault, -(band[k, o, i, j] + rng.uniform(0.01, 1.0))
        )


def assert_row_check_matches(band, first, faults, rng):
    d = band.shape[2]
    for where, fault in faults:
        inject(band, where % (band.shape[0] * d), fault, rng)
    want = axis_row_error(band, first)
    if want is None:
        sums, oracle = _checked_row_sums(band, d, first), axis_row_sums(band)
        assert np.all(np.abs(sums - oracle) <= 4 * np.spacing(oracle))
    else:
        with pytest.raises(ValueError) as err:
            _checked_row_sums(band, d, first)
        assert str(err.value) == want


@given(seeds, dims, level_counts, st.integers(min_value=0, max_value=2), band_widths,
       st.sampled_from([1.0, 0.5]), st.integers(min_value=0, max_value=5),
       st.lists(st.tuples(st.integers(min_value=0, max_value=99), row_faults), max_size=3))
def test_row_check_matches_the_axis_oracle(seed, d, levels, lower, upper, density, first, faults):
    # Row sums within 4 ulp of numpy's (1, 3)-axis sum; NaN, inf, negative
    # and off-by-2e-9 rows raise the oracle's error, naming the first failing
    # row.
    rng = make_rng(seed)
    band = band_corner(d, random_band(rng, d, levels, lower, upper, density), lower).band
    assert_row_check_matches(band, first, faults, rng)


@pytest.mark.parametrize("faults", [[], [(9, "negative"), (30, "nan")], [(70, "over"), (5, "under")]])
def test_row_check_matches_the_axis_oracle_at_d8(faults):
    rng = make_rng(8)
    band = band_corner(8, random_band(rng, 8, 12, 1, 2), 1).band
    assert_row_check_matches(band, 0, faults, rng)


@given(seeds, dims, level_counts, st.integers(min_value=0, max_value=2), band_widths,
       st.sampled_from([1.0, 0.5]), st.data())
def test_band_products_match_the_dense_product(seed, d, levels, lower, upper, density, data):
    # The residual product runs on a band split into row blocks anywhere.
    rng = make_rng(seed)
    P = band_corner(d, random_band(rng, d, levels, lower, upper, density), lower)
    x = rng.dirichlet(np.ones(levels * d)).reshape(levels, d)
    split = data.draw(st.integers(min_value=0, max_value=levels))
    got = _left_product((P.band[:split], P.band[split:]), lower, x)
    assert np.max(np.abs(got.reshape(-1) - x.reshape(-1) @ dense(P))) <= 1e-15
    assert np.max(np.abs(got - einsum_left_product(P.band, lower, x))) <= 1e-15
    v = rng.uniform(size=(levels, d))
    got = _right_product(P, v)
    assert np.max(np.abs(got.reshape(-1) - dense(P) @ v.reshape(-1))) <= 1e-15
    assert np.max(np.abs(got - einsum_right_product(P, v))) <= 1e-15


@pytest.mark.parametrize("corner", [
    lambda rng: assemble(random_monotone_gig1(), 30),
    lambda rng: band_corner(8, random_band(rng, 8, 40, 1, 2), 1),
], ids=["rectangular", "d8"])
def test_band_products_match_the_dense_product_on_wide_corners(corner):
    rng = make_rng(3)
    P = corner(rng)
    if P.square:
        x = rng.dirichlet(np.ones(P.levels * P.d)).reshape(P.levels, P.d)
        got = _left_product((P.band,), P.lower, x).reshape(-1)
        assert np.max(np.abs(got - x.reshape(-1) @ dense(P))) <= 1e-15
    v = rng.uniform(size=(P.col_levels, P.d))
    got = _right_product(P, v).reshape(-1)
    assert np.max(np.abs(got - dense(P) @ v.reshape(-1))) <= 1e-15


@given(seeds, dims, level_counts, band_widths, st.integers(min_value=1, max_value=3),
       reducible_kinds)
def test_pivots_decide_the_closed_class(seed, d, levels, lower, upper, kind):
    # All pivots below the top are positive exactly when the oracle finds one
    # closed class holding the top state; only then is the class graph
    # skipped. Otherwise the slow path names the oracle's classes in its
    # order, or gives the top state of the one class.
    P = reducible_corner(seed, d, levels, lower, upper, kind)
    _, _, pivots = full_sweep(P)
    want = dense_closed_classes(dense(P) > 0.0)
    top = P.levels * d - 1
    one = len(want) == 1 and want[0][-1] == top
    assert bool(np.all(pivots[:top] > 0.0)) == one
    graph = block_matrix._closed_classes
    with mock.patch.object(block_matrix, "_closed_classes", side_effect=graph) as slow:
        if len(want) > 1:
            with pytest.raises(MultipleClosedClassesError) as err:
                _class_top((P.band,), P.lower, pivots)
            assert err.value.classes == [[(int(s) // d, int(s) % d) for s in c] for c in want]
        else:
            assert _class_top((P.band,), P.lower, pivots) == want[0][-1]
    assert slow.call_count == (0 if one else 1)


@given(seeds, st.integers(min_value=1, max_value=12))
def test_band_monotone_check_on_truncations_matches_transform_oracle(seed, n):
    # support -2..2 and boundary blocks up to level 3: narrow against n
    P = lcb_truncate(random_monotone_gig1(seed), n)
    assert is_block_monotone(P) and oracle_block_monotone(P)


@given(seeds, st.integers(min_value=1, max_value=3), st.sampled_from([0.0, 0.05, 0.2, 0.5]))
def test_model_monotone_check_matches_transform_oracle(seed, l, share):
    # Moving part of B(0) up to B(l) raises row 0's tail sums, which may
    # then pass row 1's; the oracle sees rows 0..k_star unfolded.
    model = random_monotone_gig1(seed)
    B = dict(model.B)
    B[0], B[l] = (1.0 - share) * B[0], B[l] + share * B[0]
    model = GIG1Model(d=model.d, A=model.A, B=B)
    n = model.k_star + max(model.U_A, model.U_B) + 2
    assert model.is_block_monotone() == oracle_block_monotone(model.truncate(n))


@given(seeds)
def test_find_alpha_matches_brute_force_minimum(seed):
    model = random_monotone_gig1(seed)
    alpha, delta, mu, v = find_alpha(model)
    # oracle: largest eigenvalue modulus of the transform on a log grid
    zs = np.geomspace(1.0, 4.0 * alpha, 401)[1:]
    transforms = sum(zs[:, None, None] ** j * blk for j, blk in model.A.items())
    deltas = np.abs(np.linalg.eigvals(transforms)).max(axis=1)
    assert delta <= deltas.min() + 1e-12
    slope = sum(j * alpha ** (j - 1) * blk for j, blk in model.A.items())
    assert abs(mu @ slope @ v) <= 1e-9 * np.abs(slope).max()


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


@st.composite
def horizon_problems(draw):
    """A certificate with a geometric tail, a level n, m_max and top mass."""
    d = draw(dims)
    floats = st.floats
    tail = GeometricTail(
        alpha=draw(floats(1.001, 11.0, exclude_max=True)),
        coeff=[10.0 ** draw(floats(0.0, 2.0)) for _ in range(d)],
        shift=draw(st.one_of(st.just(0.0), floats(1e-3, 1e3))),
    )
    cert = DriftCertificate(
        BlockVector(d, tail.values([0])),
        gamma=draw(floats(0.01, 1.0 - 1e-5, exclude_min=True, exclude_max=True)),
        b=10.0 ** draw(floats(-15.0, 2.0)),
        tail=tail,
    )
    n = draw(st.integers(min_value=1, max_value=5000))
    m_max = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=50_000)))
    # per-phase mass log-uniform down to the smallest subnormal, or all zero
    mass = st.builds(lambda e: max(10.0 ** e, 5e-324), floats(-323.3, 0.0))
    top_mass = draw(st.one_of(
        st.none(), st.just([0.0] * d), st.lists(mass, min_size=d, max_size=d)
    ))
    return cert, n, m_max, top_mass


@given(horizon_problems())
def test_closed_form_horizon_matches_the_full_scan(problem):
    cert, n, m_max, top_mass = problem
    m_scan, value_scan = scan_optimize_m(cert, n, m_max, top_mass)
    if value_scan >= np.finfo(float).tiny:
        assert optimize_m(cert, n, m_max, top_mass) == (m_scan, value_scan)
        return
    # below the normal range the bound is refused; a value returned from the
    # three evaluated points can never undercut the scan over all of them
    try:
        _, value = optimize_m(cert, n, m_max, top_mass)
    except ValueError as exc:
        assert "smallest normal double" in str(exc)
    else:
        assert value >= value_scan


@st.composite
def law_models(draw):
    """Block-monotone GI/G/1 models of every shape with d <= 3, or d = 8 skip-free ones."""
    seed = draw(seeds)
    if draw(st.booleans()):
        return random_skip_free_d8(seed)
    L_A, U_A = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    return random_shaped_gig1(seed, draw(dims), L_A, U_A, draw(st.integers(1, min(3, U_A + 1))))


@settings(max_examples=50)
@given(law_models())
def test_stationary_law_matches_the_truncation_reference(model):
    # The certificate bounds pi's mass at levels >= R by b / ((1 - gamma)
    # min v(R)). At 1e-40 the truncation at R is pi to far below the checked
    # digits, on the levels and on every tail mass of at least 1e-20.
    _, _, cert = certificate_for_model(model)
    R = 1
    while cert.b / ((1.0 - cert.gamma) * cert.value_at(R).min()) > 1e-40:
        R += 1
    reference = stationary(lcb_truncate(assemble(model, R + 1), R)).entries
    pi, beyond = model.stationary_law(R)
    assert np.abs(pi.entries - reference).max() <= 1e-13
    law_above = np.cumsum(pi.entries.sum(axis=1)[::-1])[::-1][1:] + beyond  # levels > n
    ref_above = np.cumsum(reference.sum(axis=1)[::-1])[::-1][1:]
    kept = ref_above >= 1e-20
    assert kept[:10].all()
    np.testing.assert_allclose(law_above[kept], ref_above[kept], rtol=1e-13, atol=0.0)


@settings(max_examples=50)
@given(law_models(), st.data())
def test_a_level_keeps_its_bits_on_the_smallest_corner(model, data):
    # compare solves its levels on the truncation at max n plus the widest
    # block offset, down or up; each level has the bits it has on a corner
    # 16 times taller.
    levels = sorted(set(data.draw(st.lists(st.integers(1, 80), min_size=1, max_size=4))))
    reach = max(model.L_A, model.L_B, model.U_A, model.U_B)
    small = stationary(lcb_truncate(model, levels[-1] + reach), levels)
    tall = stationary(lcb_truncate(model, 16 * levels[-1]), levels)
    for got, want in zip(small, tall):
        assert np.array_equal(got.entries, want.entries)
