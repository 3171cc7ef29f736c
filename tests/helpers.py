"""Shared model builders, random generators and slow explicit oracles.

The library stores corners only as block bands. corner_from_dense and dense
convert to and from N x N arrays for tests that state a matrix densely or
check the band code against a dense computation. The explicit T-product
oracles materialize the block lower-triangular all-ones transform, which the
library itself never builds; tests use them to cross-check the suffix-sum
implementations. scan_optimize_m evaluates every horizon m, where the library
solves for the minimizer in closed form. full_sweep and
full_sweep_stationary eliminate every state of the shared bottom-up sweep,
where the library copies the range in which the sweep repeats, and
finish each level on its own whole corner with the csgraph class check,
folding the shared sweep's reduced rows with fold_state_rows where the
library rebuilds each level's window from the sweep's frontier;
solve_up runs the library's descent for one level alone, and
lapack_solve_up back-substitutes with LAPACK's banded triangular solve,
where the library steps through the sweep's maps in numpy;
full_band_fold folds every level of a corner, where lcb_truncate folds only
the top ones. axis_row_sums, axis_row_error and einsum_left_product are
the row check and the band product in numpy's multi-axis reductions and
einsum, where the library loops over the band's offset slots.
halve_searched_delta makes the alpha search report half of delta(alpha), so
a skip-free certificate built on it fails verification. per_level_compare
forms compare_against_oracle's rows one level at a time through
tv_distance, optimize_m and bound_theorem31, where the library forms all
of them in one array pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse
from scipy.linalg.lapack import dtbtrs
from scipy.sparse import csgraph

from bmtrunc import (
    BlockStochasticMatrix,
    BlockVector,
    GIG1Model,
    MultipleClosedClassesError,
    assemble,
)
from bmtrunc.block_matrix import (
    ROW_SUM_TOLERANCE,
    _Descent,
    _SharedSweep,
    _checked,
    _one_class,
    _state_band,
    _sweep_up,
    _upward_views,
    lcb_truncate,
    stationary,
    tv_distance,
)
from bmtrunc.drift_bounds import (
    BOUND_CHECK_SLACK,
    LOWER_BOUND_RELATIVE_SLACK,
    BoundReport,
    BoundViolationError,
    _bound_terms,
    bound_theorem31,
    optimize_m,
)

# deterministic seed for the randomly generated acceptance model
RANDOM_MODEL_SEED = 20260814


# --- dense views of corners (tests only) ---


def band_columns(levels: int, width: int, lower: int) -> np.ndarray:
    """Column level of each band slot: slot o of row level k is column k - lower + o."""
    return np.arange(levels)[:, None] + np.arange(width) - lower


def corner_from_dense(d: int, values, **kwargs) -> BlockStochasticMatrix:
    """Corner from a dense (levels*d, col_levels*d) array.

    The band is read off the nonzero blocks, as `from_blocks` does.
    """
    values = np.asarray(values, dtype=float)
    blocks = values.reshape(values.shape[0] // d, d, values.shape[1] // d, d)
    k, l = np.nonzero(np.any(blocks != 0.0, axis=(1, 3)))
    lower = max(0, int((k - l).max())) if k.size else 0
    upper = max(0, int((l - k).max())) if k.size else 0
    band = np.zeros((blocks.shape[0], lower + upper + 1, d, d))
    band[k, l - k + lower] = blocks[k, :, l, :]
    return BlockStochasticMatrix(d, band, lower, blocks.shape[2], **kwargs)


def dense_blocks(P: BlockStochasticMatrix) -> np.ndarray:
    """Dense (levels, d, col_levels, d) block array of a corner, built from its band."""
    blocks = np.zeros((P.levels, P.d, P.col_levels, P.d))
    cols = band_columns(P.levels, P.band.shape[1], P.lower)
    k, o = np.nonzero((cols >= 0) & (cols < P.col_levels))
    blocks[k, :, cols[k, o], :] = P.band[k, o]
    return blocks


def dense(P: BlockStochasticMatrix) -> np.ndarray:
    """Dense (levels*d, col_levels*d) array of a corner, built from its band."""
    return dense_blocks(P).reshape(P.levels * P.d, P.col_levels * P.d)


# --- explicit transform oracles (tests only) ---


def t_matrix(levels: int, d: int) -> np.ndarray:
    """Block lower-triangular matrix of identity blocks."""
    return np.kron(np.tril(np.ones((levels, levels))), np.eye(d))


def t_inverse(levels: int, d: int) -> np.ndarray:
    core = np.eye(levels)
    core[np.arange(1, levels), np.arange(levels - 1)] = -1.0
    return np.kron(core, np.eye(d))


def oracle_block_monotone(P: BlockStochasticMatrix, tol: float = 1e-12) -> bool:
    """Def-style oracle: T^{-1} S T >= O, with T materialized."""
    if not P.square:
        raise ValueError("oracle needs a square corner")
    levels, d = P.levels, P.d
    product = t_inverse(levels, d) @ dense(P) @ t_matrix(levels, d)
    return bool(np.all(product >= -tol))


def oracle_dominates(P1: BlockStochasticMatrix, P2: BlockStochasticMatrix, tol=1e-12) -> bool:
    """Def-style oracle: P1 T <= P2 T element-wise, with T materialized."""
    T = t_matrix(P1.col_levels, P1.d)
    return bool(np.all(dense(P1) @ T <= dense(P2) @ T + tol))


# --- dense stationary oracle (tests only) ---


def dense_closed_classes(pattern: np.ndarray) -> list[np.ndarray]:
    """State lists of the closed strongly connected classes of an N x N 0/1 pattern."""
    n_comp, labels = csgraph.connected_components(
        sparse.csr_matrix(pattern), directed=True, connection="strong"
    )
    rows, cols = np.nonzero(pattern)
    is_open = np.zeros(n_comp, dtype=bool)
    crossing = labels[rows] != labels[cols]
    is_open[labels[rows[crossing]]] = True
    return [np.nonzero(labels == c)[0] for c in range(n_comp) if not is_open[c]]


def dense_gth(W: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible stochastic matrix, dense GTH elimination."""
    A = np.array(W, dtype=float)
    n = A.shape[0]
    trim = np.empty(n)
    for s in range(n - 1, 0, -1):
        row = A[s, :s]
        trim[s] = row.sum()
        A[:s, :s] += np.outer(A[:s, s], row / trim[s])
    pi = np.empty(n)
    pi[0] = 1.0
    for s in range(1, n):
        pi[s] = (pi[:s] @ A[:s, s]) / trim[s]
    return pi / pi.sum()


def dense_stationary(P: BlockStochasticMatrix) -> np.ndarray:
    """Flat stationary vector of a square corner from its N x N dense array.

    Raises MultipleClosedClassesError (classes as (level, phase) lists) like
    the library's banded solver.
    """
    W = dense(P)
    classes = dense_closed_classes(W > 0.0)
    if len(classes) > 1:
        raise MultipleClosedClassesError(
            [[(int(s) // P.d, int(s) % P.d) for s in cls] for cls in classes]
        )
    pi = np.zeros(W.shape[0])
    pi[classes[0]] = dense_gth(W[np.ix_(classes[0], classes[0])])
    return pi


def dense_level_inverse(P: BlockStochasticMatrix, k: int, i: int, j: int, u) -> np.ndarray:
    """Levels that uniforms u draw from row (k, i) given the phase move i -> j.

    The conditional CDF runs over every column level of the dense view, as
    the coupling kernel did before it moved to the band; a zero-mass row
    draws level 0.
    """
    cdf = np.cumsum(dense_blocks(P)[k, i, :, j])
    u = np.asarray(u, dtype=float)
    if cdf[-1] <= 0.0:
        return np.zeros(u.shape, dtype=np.int64)
    return (cdf / cdf[-1] < u[..., None]).sum(axis=-1)


# --- full bottom-up sweep oracle (tests only) ---


def full_sweep(P: BlockStochasticMatrix):
    """Padded state band, lo and pivots after eliminating every state of P bottom-up."""
    W, lo, up = _state_band(P)
    pivots = np.zeros(P.levels * P.d)
    _sweep_up(_upward_views(W, lo, up), 0, P.levels * P.d, pivots)
    return W, lo, pivots


def sweep_repeat(P: BlockStochasticMatrix):
    """(j, q, end) of the range the shared sweep of P copies, or None."""
    W, lo, up = _state_band(P)
    sweep = _SharedSweep(P, W, lo, up, np.zeros(P.levels * P.d))
    sweep.run_to(P.levels)
    return sweep.repeat


def fold_state_rows(rows: np.ndarray, first: int, n: int, d: int, lo: int) -> np.ndarray:
    """LCB fold at level n of the state-band rows first..(n+1)d-1 (a copy).

    Entries in column levels beyond n move into the same phase of level n,
    added one at a time in column order.
    """
    count, width = rows.shape
    out = rows.copy()
    states = np.arange(first, first + count)
    cols = states[:, None] + np.arange(width) - lo
    r, c = np.nonzero(cols >= (n + 1) * d)
    np.add.at(out, (r, n * d + cols[r, c] % d - states[r] + lo), out[r, c])
    out[r, c] = 0.0
    return out


def full_sweep_stationary(P: BlockStochasticMatrix, levels) -> list:
    """stationary(P, levels) the long way, with a shared sweep over every state.

    Oracle for the repeat shortcut and the per-level finish: each level
    builds its whole corner with lcb_truncate, takes its closed class from
    the csgraph check, folds the shared sweep's reduced rows, sweeps them and
    checks the residual on that corner. No state is copied from an earlier
    level and no class is read off the pivots. Each level back-substitutes
    with the library's descent on maps of its own, anchored where the
    library's sweep repeats (sweep_repeat).
    """
    top, d = P.levels - 1, P.d
    repeat = sweep_repeat(P)
    W, lo, up = _state_band(P)
    pivots = np.zeros(P.levels * d)
    views = _upward_views(W, lo, up)
    solved = {}
    swept = 0
    for n in sorted(set(levels)):
        corner = P if n == top else lcb_truncate(P, n)
        Wn, _, _ = _state_band(corner)
        cls = _one_class(dense_closed_classes(dense(corner) > 0.0), d)
        states = corner.levels * d
        first = states if n == top else max(0, n - P.upper) * d
        _sweep_up(views, swept, first, pivots)
        swept = first
        Wn[first:states] = fold_state_rows(W[first:states], first, n, d, lo)
        level_pivots = pivots[:states].copy()
        level_views = _upward_views(Wn, lo, up)
        _sweep_up(level_views, first, states, level_pivots)
        h = int(cls[-1])
        assert np.all(level_pivots[cls[:-1]] > 0.0)
        below = np.concatenate((views[1][:min(first, h)], level_views[1][min(first, h):h]))
        pi = np.zeros(states)
        descent = _Descent(below, level_pivots[:h], d)
        pi[:h + 1] = solve_up(descent, h, max(0, n - P.upper), repeat)
        deviation = np.abs(corner.band.sum(axis=(1, 3)) - 1.0).max()
        solved[n] = _checked(corner.band, corner.lower, pi, deviation)
    return [solved[n] for n in levels]


def solve_up(descent: _Descent, h: int, level: int, repeat) -> np.ndarray:
    """x(0..h), summing to 1, of a closed class with top state h, by the descent of one level.

    The states from `level`'s boundary up to h are the level's own, and
    repeat is the sweep's (j, q, end) or None; stationary runs the same
    steps for all its levels at once.
    """
    own = slice(min(level, h // descent.d) * descent.d, h)
    x = np.zeros(h + 1)
    (solution,) = descent.start([(x, descent.cols[own], descent.pivots[own])])
    descent.finish([solution], repeat)
    solution.normalize()
    return x


def lapack_solve_up(below: np.ndarray, pivots: np.ndarray, chunk_bits: float = 1000.0) -> np.ndarray:
    """x(0..h) of a closed class from its bottom-up reduction, by LAPACK's dtbtrs.

    Oracle for the library's descent (solve_up): below[r, s] is the reduced
    entry (s+1+r, s) and pivots[s] the pivot of state s < h, a zero pivot
    taken as 1, and x(h) = 1. dtbtrs solves the banded triangular system
    with the entries below the diagonal negated, so each term it subtracts is
    non-positive. It runs in chunks from the top down that grow x by at most
    2^chunk_bits, each in a power-of-two scale whose exponent carries over to
    the next chunk; the scales are applied at the end.
    """
    lo, h = below.shape
    ab = np.empty((lo + 1, h), order="F")
    ab[0] = np.where(pivots > 0.0, pivots, 1.0)
    ab[1:] = -below
    growth = np.log2(np.maximum(1.0, -ab[1:].sum(axis=0) / ab[0]))
    bits = np.concatenate(([0.0], np.cumsum(growth[::-1])))  # bits[k]: top k states
    x = np.zeros(h + 1)
    x[h] = 1.0
    scale = np.zeros(h + 1, dtype=int)
    feed = np.zeros(lo)  # x(b..b+lo-1), b the lowest state solved so far
    feed[:1] = 1.0
    exponent = 0
    b = h
    while b > 0:
        k = h - b
        a = h - max(int(np.searchsorted(bits, bits[k] + chunk_bits, side="right")) - 1, k + 1)
        rhs = np.zeros((b - a, 1))
        for r in range(min(lo, b - a)):
            rhs[b - 1 - r - a] = -(ab[1 + r:, b - 1 - r] @ feed[:lo - r])
        chunk, _ = dtbtrs(ab[:, a:b], rhs, uplo="L", trans="T")
        x[a:b] = chunk[:, 0]
        scale[a:b] = exponent
        feed = np.concatenate((x[a:b], feed))[:lo]
        if feed.any():
            shift = int(np.frexp(feed.max())[1])
            feed = np.ldexp(feed, -shift)
            exponent += shift
        b = a
    return np.ldexp(x, scale - scale.max())


def full_band_fold(P: BlockStochasticMatrix, n: int) -> BlockStochasticMatrix:
    """lcb_truncate(P, n) of a stored corner by a fold over every level of the band.

    Oracle for lcb_truncate, which folds only the top U+1 levels.
    """
    band = P.band[: n + 1].copy()
    beyond = band_columns(n + 1, band.shape[1], P.lower) >= n
    fold = np.where(beyond[:, :, None, None], band, 0.0).sum(axis=1)
    band[beyond] = 0.0
    k = np.arange(max(0, n - P.upper), n + 1)
    band[k, n - k + P.lower] = fold[k]
    return BlockStochasticMatrix(d=P.d, band=band, lower=P.lower)


# --- axis-reduction and einsum kernel oracles (tests only) ---


def axis_row_sums(band: np.ndarray) -> np.ndarray:
    """(levels, d) row sums of band rows, by numpy's reduction over axes (1, 3)."""
    return band.sum(axis=(1, 3))


def axis_row_error(band: np.ndarray, first: int = 0):
    """Message of the row check's ValueError on band rows (levels first..), or None.

    A non-finite entry anywhere is reported first, then a negative entry, then
    a row sum off 1 by more than ROW_SUM_TOLERANCE;
    each names the first row that fails, from per-row (1, 3)-axis reductions.
    """
    d = band.shape[2]
    sums = axis_row_sums(band).reshape(-1)
    off = np.abs(sums - 1.0)
    for failing, message in (
        (~np.isfinite(band).all(axis=(1, 3)).reshape(-1), "non-finite entry in row {}"),
        ((band < 0.0).any(axis=(1, 3)).reshape(-1), "negative entry in row {}"),
        (~(off <= ROW_SUM_TOLERANCE), "row {} sums to {:.12g}, outside tolerance {:g}"),
    ):
        if failing.any():
            s = int(np.flatnonzero(failing)[0])
            where = f"(level {first + s // d}, phase {s % d})"
            return message.format(where, sums[s], ROW_SUM_TOLERANCE)
    return None


def einsum_left_product(band: np.ndarray, lower: int, x: np.ndarray) -> np.ndarray:
    """x P for x of shape (levels, d) and P the square corner of a band, by einsum."""
    levels, width = band.shape[:2]
    terms = np.einsum("ki,koij->koj", x, band)
    out = np.zeros((max(levels + width - 1, lower + levels), band.shape[2]))
    for o in range(width):
        out[o:o + levels] += terms[:, o]
    return out[lower:lower + levels]


def einsum_right_product(P: BlockStochasticMatrix, x: np.ndarray) -> np.ndarray:
    """P x for x of shape (col_levels, d), by one einsum per band slot."""
    width = P.band.shape[1]
    padded = np.zeros((max(P.levels + width - 1, P.lower + P.col_levels), P.d))
    padded[P.lower:P.lower + P.col_levels] = x
    out = np.zeros((P.levels, P.d))
    for o in range(width):
        out += np.einsum("kij,kj->ki", P.band[:, o], padded[o:o + P.levels])
    return out


# --- horizon scan oracle (tests only) ---


def scan_optimize_m(cert, n: int, m_max: int | None = None, top_mass=None):
    """(m, value) minimizing bound1 (given top_mass) or bound2 over m in 1..m_max.

    Scans every m with the library's own bound expressions; ties break toward
    the smaller m. Oracle for the closed-form optimize_m.
    """
    if m_max is None:
        m_max = 10 * math.ceil(1.0 / (1.0 - cert.gamma))
    prefactor, inv_v_sum = _bound_terms(cert, n)
    ms = np.arange(1, m_max + 1, dtype=float)
    geom = np.power(cert.gamma, ms)
    if top_mass is None:
        values = prefactor * (4.0 * geom + 2.0 * ms * inv_v_sum)
    else:
        total = float(np.asarray(top_mass, dtype=float).sum())
        values = 4.0 * geom * prefactor + 2.0 * ms * total
    best = int(np.argmin(values))
    return best + 1, float(values[best])


# --- per-level compare oracle (tests only) ---


def per_level_compare(model, n_list, cert, m_max=None, *, reference_level, dominating=None):
    """compare_against_oracle's reports, formed one level at a time.

    The same solves, then for each n in turn: the measured error from
    tv_distance, m from optimize_m, both bounds from bound_theorem31, then
    the measured gate and the lower-bound gate. So the first failing level
    raises, and within a level optimize_m's residue error comes first.
    """
    n_list = [int(n) for n in n_list]
    if isinstance(model, BlockStochasticMatrix):
        top = model.levels - 1
        *solved, law = stationary(lcb_truncate(model, top), n_list + [top])
        pi = BlockVector(model.d, law.entries[:reference_level + 1])
        beyond = float(law.entries[reference_level + 1:].sum())
    else:
        pi, beyond = model.stationary_law(reference_level)
        reach = max(model.L_A, model.L_B, model.U_A, model.U_B)
        solved = stationary(lcb_truncate(model, max(n_list) + reach), n_list)
    above = np.cumsum(np.append(pi.entries.sum(axis=1), beyond)[::-1])[::-1]
    if dominating is None:
        masses = solved
    else:
        masses = stationary(lcb_truncate(dominating, max(n_list)), n_list)
    reports = []
    for n, pi_n, mass_n in zip(n_list, solved, masses):
        measured = tv_distance(pi_n, BlockVector(pi.d, pi.entries[:n + 1])) + above[n + 1]
        lower = 2.0 * above[n + 1]
        top_mass = mass_n.entries[n]
        m_star, _ = optimize_m(cert, n, m_max, top_mass=top_mass)
        report = bound_theorem31(cert, m_star, n, top_mass=top_mass)
        if measured > report.bound1 + BOUND_CHECK_SLACK:
            raise BoundViolationError(
                f"n={n}: measured error {measured:.6e} exceeds "
                f"certified bound {report.bound1:.6e}"
            )
        if lower > report.bound1 * (1.0 + LOWER_BOUND_RELATIVE_SLACK):
            raise BoundViolationError(
                f"n={n}: twice the stationary mass above n, {lower:.6e}, a lower bound "
                f"on the error, exceeds certified bound {report.bound1:.6e}"
            )
        reports.append(
            BoundReport(n, report.m, report.bound2, report.bound1, float(measured), reference_level)
        )
    return reports


# --- models ---


def natural_walk() -> GIG1Model:
    """d=1 birth-death, up 0.4 / down 0.6, reflecting self-loop at 0."""
    return GIG1Model(
        d=1,
        A={-1: [[0.6]], 1: [[0.4]]},
        B={-1: [[0.6]], 0: [[0.6]], 1: [[0.4]]},
    )


def mg1_walk() -> GIG1Model:
    """Same walk in skip-free-downward form (level-0 row jumps to level 2)."""
    return GIG1Model(
        d=1,
        A={-1: [[0.6]], 1: [[0.4]]},
        B={-1: [[0.6]], 0: [[0.6]], 2: [[0.4]]},
    )


def symmetric_walk() -> GIG1Model:
    """Up and down 0.5 each: zero mean drift, so no certificate exists."""
    return GIG1Model(
        d=1,
        A={-1: [[0.5]], 1: [[0.5]]},
        B={-1: [[0.5]], 0: [[0.5]], 1: [[0.5]]},
    )


def broken_walk() -> GIG1Model:
    """Row 0 sends 0.5 to level 2, above row 1's upward mass 0.4."""
    return GIG1Model(
        d=1,
        A={-1: [[0.6]], 1: [[0.4]]},
        B={-1: [[0.6]], 0: [[0.5]], 2: [[0.5]]},
    )


_A2 = {
    -1: np.array([[0.5, 0.1], [0.2, 0.3]]),
    0: np.array([[0.1, 0.1], [0.2, 0.1]]),
    1: np.array([[0.1, 0.1], [0.1, 0.1]]),
}


def mg1_d2() -> GIG1Model:
    """d=2 skip-free-downward model with three-term A-support."""
    return GIG1Model(
        d=2,
        A=_A2,
        B={-1: _A2[-1], 0: _A2[-1], 1: _A2[0], 2: _A2[1]},
    )


def gig1_d2() -> GIG1Model:
    """d=2 model off the skip-free pattern (forces the boundary lift)."""
    return GIG1Model(
        d=2,
        A=_A2,
        B={
            -1: _A2[-1],
            0: _A2[-1] + _A2[0] + 0.5 * _A2[1],
            1: 0.5 * _A2[1],
        },
    )


def dominance_pair(levels: int = 801):
    """(P, Ptilde): Ptilde the monotone d=2 corner, P a dominated non-monotone edit.

    Row 1 of the assembled corner moves 0.05 from every entry of its
    level-2 block to the matching entry of its level-0 block: downward mass
    moves shrink tail sums (dominated) while breaking the row-0 <= row-1
    tail-sum ordering (not block-monotone). Phase sums are untouched.
    """
    model = mg1_d2()
    corner = assemble(model, levels)
    band = corner.band.copy()
    shift = 0.05 * np.ones((model.d, model.d))
    band[1, 0 - 1 + corner.lower] += shift
    band[1, 2 - 1 + corner.lower] -= shift
    edited = BlockStochasticMatrix(model.d, band, corner.lower, corner.col_levels)
    return edited, model


def random_monotone_gig1(seed: int = RANDOM_MODEL_SEED) -> GIG1Model:
    """Random block-monotone d=2 model with A-support {-2..2}.

    Rows below the boundary are forced by monotonicity (B(-k) = sum of
    A-blocks at or below -k); the level-0 row starts from the fold of all
    downward mass into level 0 and then moves extra random mass downward,
    which keeps the tail-sum inequalities intact.
    """
    from bmtrunc import mean_drift

    rng = np.random.default_rng(seed)
    d = 2
    while True:
        weights = np.array([3.0, 2.5, 1.0, 1.0, 0.8])  # tilt toward downward moves
        raw = {
            j: w * rng.uniform(0.05, 1.0, size=(d, d))
            for j, w in zip(range(-2, 3), weights)
        }
        total = sum(raw.values()).sum(axis=1)
        A = {j: blk / total[:, None] for j, blk in raw.items()}
        B = {-2: A[-2], -1: A[-2] + A[-1], 0: A[-2] + A[-1]}
        for l in range(1, 4):
            B[l] = A[l - 1].copy()
        if mean_drift(GIG1Model(d=d, A=A, B=B)) < -0.05:
            break
    # push random mass down from column blocks 1..3 to column 0
    for l in range(1, 4):
        movable = rng.uniform(0.0, 0.5, size=(d, d)) * B[l]
        B[l] = B[l] - movable
        B[0] = B[0] + movable
    return GIG1Model(d=d, A=A, B=B)


def random_shaped_gig1(seed: int, d: int, L_A: int, U_A: int, U_B: int) -> GIG1Model:
    """Random block-monotone model with A-support -L_A..U_A and row 0 up to level U_B.

    In the style of random_monotone_gig1: downward offsets get weights that
    make the expected mean drift negative for every shape, a draw is kept
    once its mean drift is below -0.05, and row 0 starts as row
    1 (with A's mass from offset U_B - 1 up folded into B(U_B)) before random
    mass moves down to level 0. Block monotonicity fixes the rest: the
    column-0 blocks are the A-mass at or below -k, so L_B = L_A, and row 0
    reaches at most one level above A, so U_B <= U_A + 1.
    """
    from bmtrunc import mean_drift

    if not 1 <= U_B <= U_A + 1:
        raise ValueError("a block-monotone row 0 reaches levels 1..U_A + 1")
    rng = np.random.default_rng(seed)
    down = 1.5 * U_A * (U_A + 1) / (L_A * (L_A + 1)) + 0.5
    while True:
        raw = {j: (down if j < 0 else 1.0) * rng.uniform(0.05, 1.0, size=(d, d))
               for j in range(-L_A, U_A + 1)}
        total = sum(raw.values()).sum(axis=1)
        A = {j: blk / total[:, None] for j, blk in raw.items()}
        B = {-k: sum(A[j] for j in range(-L_A, 1 - k)) for k in range(1, L_A + 1)}
        B[0] = B[-1].copy()
        for l in range(1, U_B + 1):
            B[l] = A[l - 1].copy() if l < U_B else sum(A[j] for j in range(l - 1, U_A + 1))
        if mean_drift(GIG1Model(d=d, A=A, B=B)) < -0.05:
            break
    for l in range(1, U_B + 1):
        movable = rng.uniform(0.0, 0.5, size=(d, d)) * B[l]
        B[l] = B[l] - movable
        B[0] = B[0] + movable
    return GIG1Model(d=d, A=A, B=B)


def random_skip_free_d8(seed: int) -> GIG1Model:
    """Random d=8 skip-free-downward model: B(-1) = B(0) = A(-1), B(l) = A(l-1).

    The benchmark's rand_d8 draw, kept once its mean drift is below -0.05.
    """
    from bmtrunc import mean_drift

    rng = np.random.default_rng(seed)
    d = 8
    while True:
        raw = {j: w * rng.uniform(0.05, 1.0, size=(d, d))
               for j, w in zip(range(-1, 2), (2.0, 1.0, 1.0))}
        total = sum(raw.values()).sum(axis=1)
        A = {j: blk / total[:, None] for j, blk in raw.items()}
        model = GIG1Model(d=d, A=A, B={-1: A[-1], 0: A[-1], 1: A[0], 2: A[1]})
        if mean_drift(model) < -0.05:
            return model


def acceptance_models():
    """The five-model soundness suite: (name, model, dominating or None)."""
    edited, tilde = dominance_pair()
    return [
        ("d1-birth-death", natural_walk(), None),
        ("d2-skip-free", mg1_d2(), None),
        ("d2-general", gig1_d2(), None),
        ("dominated-pair", edited, tilde),
        ("random-monotone", random_monotone_gig1(), None),
    ]


# --- random instance generators for property tests ---


def random_phase_kernel(rng, d: int) -> np.ndarray:
    psi = rng.dirichlet(np.ones(d) * 2.0, size=d) + 0.05
    return psi / psi.sum(axis=1, keepdims=True)


def _base_cdfs(rng, d: int, levels: int) -> np.ndarray:
    """One strictly positive conditional CDF over levels per (i, j) pair."""
    pmf = rng.dirichlet(np.ones(levels), size=(d, d)) + 1e-3
    pmf /= pmf.sum(axis=2, keepdims=True)
    return np.cumsum(pmf, axis=2)


def _corner_from_cdfs(psi: np.ndarray, cdfs: np.ndarray) -> BlockStochasticMatrix:
    """cdfs has shape (levels, d, d, levels): row level, i, j, column level."""
    levels, d = cdfs.shape[0], cdfs.shape[1]
    pmf = np.diff(cdfs, axis=3, prepend=0.0)
    blocks = pmf * psi[None, :, :, None]
    values = blocks.transpose(0, 1, 3, 2).reshape(levels * d, levels * d)
    values = np.maximum(values, 0.0)
    values /= values.sum(axis=1, keepdims=True)
    return corner_from_dense(d, values)


def random_bm_corner(rng, d: int, levels: int) -> BlockStochasticMatrix:
    """Strictly positive block-monotone square corner.

    Per (i, j), successive row levels take powers >= 1 of one base CDF: the
    CDF shrinks pointwise with the level, so tail sums grow with it.
    """
    psi = random_phase_kernel(rng, d)
    base = _base_cdfs(rng, d, levels)
    exponents = np.cumprod(rng.uniform(1.0, 2.0, size=levels))
    cdfs = base[None, :, :, :] ** exponents[:, None, None, None]
    cdfs[..., -1] = 1.0
    return _corner_from_cdfs(psi, cdfs)


def random_corner(rng, d: int, levels: int) -> BlockStochasticMatrix:
    """Plain random stochastic corner (usually not block-monotone)."""
    values = rng.dirichlet(np.ones(levels * d), size=levels * d) + 1e-6
    values /= values.sum(axis=1, keepdims=True)
    return corner_from_dense(d, values)


def random_dominated_corner(rng, dominating: BlockStochasticMatrix) -> BlockStochasticMatrix:
    """Corner block-wise dominated by `dominating`, same phase kernel.

    Raises each conditional CDF to a power in (0, 1], which lifts it
    pointwise, i.e. pushes mass toward lower levels.
    """
    d, levels = dominating.d, dominating.levels
    blocks = dense_blocks(dominating).transpose(0, 1, 3, 2)
    psi = blocks.sum(axis=3)[0]
    cond = blocks / np.where(psi[None, :, :, None] > 0, psi[None, :, :, None], 1.0)
    cdfs = np.cumsum(cond, axis=3)
    powers = rng.uniform(0.4, 1.0, size=(levels, d, d))
    lowered = cdfs ** powers[:, :, :, None]
    lowered[..., -1] = 1.0
    return _corner_from_cdfs(psi, lowered)


def random_dominated_vectors(rng, d: int, levels: int):
    """(mu, eta) probability vectors with mu block-wise dominated by eta."""
    marginal = rng.dirichlet(np.ones(d)) + 0.01
    marginal /= marginal.sum()
    pmf = rng.dirichlet(np.ones(levels), size=d) + 1e-4
    pmf /= pmf.sum(axis=1, keepdims=True)
    eta_cdf = np.cumsum(pmf, axis=1)
    mu_cdf = eta_cdf ** rng.uniform(0.3, 1.0, size=(d, 1))
    mu_cdf[:, -1] = 1.0
    eta = (np.diff(eta_cdf, axis=1, prepend=0.0) * marginal[:, None]).T
    mu = (np.diff(mu_cdf, axis=1, prepend=0.0) * marginal[:, None]).T
    return BlockVector(d, mu), BlockVector(d, eta)


def random_band(rng, d: int, levels: int, lower: int, upper: int, density: float = 1.0):
    """Random non-negative square-corner band, shape (levels, lower+upper+1, d, d).

    Entries are kept with probability `density`; every state keeps a small
    self-loop so no row is empty. Slots outside the corner are zero.
    """
    width = lower + upper + 1
    band = rng.uniform(0.05, 1.0, size=(levels, width, d, d))
    band *= rng.uniform(size=band.shape) < density
    band[:, lower] += 0.01 * np.eye(d)
    cols = band_columns(levels, width, lower)
    band[(cols < 0) | (cols >= levels)] = 0.0
    return band


def band_corner(d: int, band: np.ndarray, lower: int) -> BlockStochasticMatrix:
    """Square corner from a non-negative band, rows normalised to sum 1."""
    return BlockStochasticMatrix(
        d=d, band=band / band.sum(axis=(1, 3), keepdims=True), lower=lower
    )


def random_block_increasing(rng, d: int, levels: int) -> BlockVector:
    steps = rng.uniform(0.0, 2.0, size=(levels, d))
    return BlockVector(d, np.cumsum(steps, axis=0))


def halve_searched_delta(monkeypatch):
    """Patch gig1.find_alpha to return its Perron triple with delta halved.

    The skip-free certificate takes delta as its gamma, and the rows above
    level 0 hold with equality at the true delta, so every one of them fails.
    """
    from bmtrunc import gig1

    search = gig1.find_alpha

    def halved(model):
        alpha, delta, mu, v = search(model)
        return alpha, delta / 2.0, mu, v

    monkeypatch.setattr(gig1, "find_alpha", halved)
