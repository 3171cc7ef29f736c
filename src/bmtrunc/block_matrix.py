"""Block-partitioned stochastic matrices and vectors.

Core containers and checks for level-phase Markov chains with block size d:

- BlockStochasticMatrix / BlockVector / PhaseMatrix
- block-monotonicity, block-wise dominance, block-increasing predicates
  (all computed via suffix-sum passes over level blocks)
- last-column-block-augmented (LCB) truncation
- closed-class check and stationary distributions via subtraction-free
  state reduction, all on the block band
- total-variation and weighted-norm distances

Levels index the unbounded coordinate, phases the finite one; state (k, i)
maps to flat index k*d + i.

Every CLI command runs in a fresh process, so import time is part of its
run time. numpy takes about 0.1 s to import, and scipy.linalg about 0.2 s
and 28 MB more, which is more than the whole `validate` or `bound` work. So
the package needs numpy alone: the back-substitution of every stationary
solve steps through the maps of its sweep in numpy (_Descent), and closed
classes come from one iterative Tarjan search on a block band
(_closed_classes). That search serves closed_classes, the slow path of
stationary, which otherwise reads a corner's closed class off its own GTH
pivots (_class_top), and the d x d kernels of a GI/G/1 model
(_kernel_stationary, gig1._is_irreducible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "BlockStochasticMatrix",
    "BlockVector",
    "PhaseMatrix",
    "MultipleClosedClassesError",
    "PhaseStructureError",
    "StationarySolveError",
    "closed_classes",
    "is_block_monotone",
    "block_dominates",
    "vector_dominates",
    "is_block_increasing",
    "lcb_truncate",
    "stationary",
    "tv_distance",
    "v_norm_distance",
    "phase_matrix",
    "transient_distribution",
]

# Slack for monotonicity/dominance comparisons and the phase-sum check: folded
# tail sums carry rounding, so exact comparisons would reject valid inputs. The
# ordering predicates take tol=0 for a strict check.
CHECK_TOLERANCE = 1e-12

ROW_SUM_TOLERANCE = 1e-9
STATIONARY_RESIDUAL_TOLERANCE = 1e-10


class MultipleClosedClassesError(ValueError):
    """The chain has more than one closed communicating class."""

    def __init__(self, classes: list[list[tuple[int, int]]]):
        self.classes = classes
        preview = "; ".join(str(cls[:4]) + ("..." if len(cls) > 4 else "") for cls in classes)
        super().__init__(f"{len(classes)} closed classes detected: {preview}")


class PhaseStructureError(ValueError):
    """Row phase sums are not constant across levels within tolerance."""


class StationarySolveError(RuntimeError):
    """The stationary solve failed a numerical sanity check."""


def _slot_columns(levels: int, width: int, lower: int) -> np.ndarray:
    """Column level of every band slot: slot o of row level k holds column k - lower + o."""
    return np.arange(levels)[:, None] + np.arange(width) - lower


def _row_sums(band: np.ndarray) -> np.ndarray:
    """Row sums of band rows as a (levels, d) array.

    The width offset slots are added as whole contiguous d x d blocks, then
    the d columns of the result: a few passes at memory speed, where numpy's
    sum over axes (1, 3) of the band runs 40-70x slower than one pass.
    """
    blocks = band[:, 0].copy()
    for o in range(1, band.shape[1]):
        blocks += band[:, o]
    sums = blocks[..., 0].copy()
    for j in range(1, band.shape[3]):
        sums += blocks[..., j]
    return sums


def _checked_row_sums(band: np.ndarray, d: int, first: int = 0):
    """Row sums of band rows (levels first..), once the rows pass the corner checks.

    Every entry must be finite and non-negative, and every row must sum to 1
    within ROW_SUM_TOLERANCE; a ValueError names the first row that fails.
    The sums come back as a (levels, d) array.

    Passing rows cost one band minimum and the row sums: a NaN or -inf entry
    makes the minimum fail `>= 0`, and a +inf entry among non-negative ones
    makes its row sum inf. Only failing rows are scanned row by row.
    """
    sums = _row_sums(band)
    fits = np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE
    if band.min() >= 0.0 and fits.all():
        return sums
    rows = band.transpose(0, 2, 1, 3).reshape(fits.size, -1)
    flat = sums.reshape(-1)
    # a non-finite entry anywhere comes first, then a negative one, then a sum
    for failing, message in (
        (~np.isfinite(rows).all(axis=1), "non-finite entry in row {}"),
        ((rows < 0.0).any(axis=1), "negative entry in row {}"),
        (~fits.reshape(-1), "row {} sums to {:.12g}, outside tolerance {:g}"),
    ):
        if failing.any():
            s = int(np.argmax(failing))
            where = f"(level {first + s // d}, phase {s % d})"
            raise ValueError(message.format(where, flat[s], ROW_SUM_TOLERANCE))


class BlockStochasticMatrix:
    """Finite corner of a block-partitioned stochastic matrix, stored as a block band.

    Rows are levels 0..levels-1 and columns levels 0..col_levels-1 of d x d
    blocks. Only the blocks within `lower` levels below and `upper` levels
    above the diagonal are stored: band[k, o] is the block at row level k,
    column level k - lower + o, and the band slots outside the column range
    are zero. Rectangular corners (col_levels > levels) hold complete rows of
    a larger matrix.

    Build from `band` with its `lower` width and `col_levels` (default: a
    square corner), or from a sparse block map with from_blocks. The band is
    the only storage, and no library code builds an N x N view of a corner.
    """

    def __init__(self, d: int, band, lower: int = 0, col_levels: int | None = None):
        if d < 1:
            raise ValueError("block size d must be >= 1")
        band = np.asarray(band, dtype=float)
        if band.ndim != 4 or band.shape[0] == 0 or band.shape[2:] != (d, d):
            raise ValueError(f"band shape {band.shape} is not (levels, width, {d}, {d})")
        col_levels = band.shape[0] if col_levels is None else col_levels
        if col_levels < band.shape[0] or not 0 <= lower < band.shape[1]:
            raise ValueError("band needs col_levels >= levels and 0 <= lower < width")
        cols = _slot_columns(band.shape[0], band.shape[1], lower)
        if np.any(band[(cols < 0) | (cols >= col_levels)] != 0.0):
            raise ValueError("band holds entries outside the column range")
        self.d = d
        self.band = band
        self.lower = lower
        self.col_levels = col_levels
        self._values = None
        _checked_row_sums(band, d)

    @property
    def levels(self) -> int:
        """Number of stored row levels."""
        return self.band.shape[0]

    @property
    def upper(self) -> int:
        """Widest upward block offset the band stores."""
        return self.band.shape[1] - 1 - self.lower

    @property
    def square(self) -> bool:
        return self.levels == self.col_levels

    @property
    def values(self) -> np.ndarray:
        """Dense (levels*d, col_levels*d) array, built from the band on first use.

        No library code reads it; it stays only until the size hooks in
        perfbench/tracing.py read `levels * d` instead of `.values.shape[0]`.
        """
        if self._values is None:
            d = self.d
            blocks = np.zeros((self.levels, d, self.col_levels, d))
            cols = _slot_columns(self.levels, self.band.shape[1], self.lower)
            k, o = np.nonzero((cols >= 0) & (cols < self.col_levels))
            blocks[k, :, cols[k, o], :] = self.band[k, o]
            self._values = blocks.reshape(self.levels * d, self.col_levels * d)
        return self._values

    def block(self, k: int, l: int) -> np.ndarray:
        """The d x d block at row level k, column level l (copy)."""
        o = l - k + self.lower
        if 0 <= o < self.band.shape[1] and 0 <= l < self.col_levels:
            return self.band[k, o].copy()
        return np.zeros((self.d, self.d))

    @classmethod
    def from_blocks(
        cls,
        d: int,
        blocks: dict[tuple[int, int], np.ndarray],
        levels: int | None = None,
        col_levels: int | None = None,
    ) -> "BlockStochasticMatrix":
        """Assemble from a sparse {(k, l): d x d block} map; absent blocks are zero.

        The blocks go straight into a band as wide as the largest downward and
        upward offsets l - k among the nonzero blocks.
        """
        if not blocks and levels is None:
            raise ValueError("empty block map needs explicit levels")
        levels = max((k for k, _ in blocks), default=0) + 1 if levels is None else levels
        if col_levels is None:
            col_levels = max(max((l for _, l in blocks), default=0) + 1, levels)
        arrays = [np.asarray(blk, dtype=float) for blk in blocks.values()]
        for (k, l), blk in zip(blocks, arrays):
            if blk.shape != (d, d):
                raise ValueError(f"block ({k},{l}) has shape {blk.shape}, expected ({d},{d})")
            if not (0 <= k < levels and 0 <= l < col_levels):
                raise ValueError(f"block ({k},{l}) lies outside the {levels} x {col_levels} corner")
        rows, cols = np.array(list(blocks), dtype=int).reshape(-1, 2).T
        stack = np.array(arrays).reshape(-1, d, d)
        keep = stack.any(axis=(1, 2))
        rows, cols, stack = rows[keep], cols[keep], stack[keep]
        lower = max(0, int((rows - cols).max(initial=0)))
        band = np.zeros((levels, lower + max(0, int((cols - rows).max(initial=0))) + 1, d, d))
        band[rows, cols - rows + lower] = stack
        return cls(d, band, lower, col_levels)


@dataclass(frozen=True, eq=False)
class BlockVector:
    """Level-indexed list of length-d vectors, stored as an (levels, d) array."""

    d: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.atleast_2d(np.asarray(self.entries, dtype=float))
        object.__setattr__(self, "entries", entries)
        if self.d < 1:
            raise ValueError("block size d must be >= 1")
        if entries.ndim != 2 or entries.shape[1] != self.d:
            raise ValueError(f"entries shape {entries.shape} incompatible with d={self.d}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("vector entries must be finite")

    @property
    def levels(self) -> int:
        return self.entries.shape[0]

    @property
    def flat(self) -> np.ndarray:
        return self.entries.reshape(-1)

    def padded(self, levels: int) -> np.ndarray:
        """Entries zero-padded to the requested level count; `entries` itself if none is needed."""
        if levels < self.levels:
            raise ValueError("padding cannot drop levels")
        if levels == self.levels:
            return self.entries
        out = np.zeros((levels, self.d))
        out[: self.levels] = self.entries
        return out

    def suffix_sums(self) -> np.ndarray:
        """S[l, j] = sum over m >= l of entries[m, j]."""
        return np.flip(np.cumsum(np.flip(self.entries, axis=0), axis=0), axis=0)

    def is_probability(self) -> bool:
        tol = ROW_SUM_TOLERANCE
        return bool(np.all(self.entries >= -tol) and abs(self.entries.sum() - 1.0) <= tol)


@dataclass(frozen=True, eq=False)
class PhaseMatrix:
    """Phase-marginal transition kernel; its stationary vector is solved on first use."""

    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
            raise ValueError("psi must be square")
        if np.any(psi < 0) or np.any(np.abs(psi.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE):
            raise ValueError("psi must be a stochastic matrix")

    @property
    def d(self) -> int:
        return self.psi.shape[0]

    @cached_property
    def varpi(self) -> np.ndarray:
        """Stationary phase vector: varpi psi = varpi, summing to 1."""
        return _kernel_stationary(self.psi)


def _band_tails(P: BlockStochasticMatrix, levels: int, lower: int, upper: int) -> np.ndarray:
    """Block tail sums of P in a band frame at least as wide as P's band.

    T[k, e, i, j] = sum over column levels m >= k - lower + e of
    p(k,i;m,j), for e = 0..lower+upper; rows beyond P's levels are zero.
    Left of the frame every tail sum is the whole row, T[k, 0], and right of
    it zero, which no non-negative tail sum can break an order against. The
    sums run from the rightmost column down, as a dense pass would.
    """
    frame = np.zeros((levels, lower + upper + 1, P.d, P.d))
    start = lower - P.lower
    frame[: P.levels, start:start + P.band.shape[1]] = P.band
    return np.flip(np.cumsum(np.flip(frame, axis=1), axis=1), axis=1)


def is_block_monotone(S: BlockStochasticMatrix, tol: float = CHECK_TOLERANCE) -> bool:
    """Check block-monotonicity of a stored corner: block tail sums non-decreasing in the level.

    True iff for every stored pair of consecutive row levels k, k+1 and every
    (l, i, j): sum over m >= l of s(k,i;m,j) <= the same sum at k+1, within
    tol. The check runs on the corner's band. A GIG1Model answers through its
    own method, which runs it on the boundary rows that decide.
    """
    tails = _band_tails(S, S.levels, S.lower, S.upper)
    # column k - lower + e sits at slot e in row k and slot e - 1 in row k+1
    below = np.maximum(np.arange(tails.shape[1]) - 1, 0)
    return bool(np.all(tails[:-1] <= tails[1:, below] + tol))


def block_dominates(P1, P2, tol: float = CHECK_TOLERANCE) -> bool:
    """Check block-wise dominance of P1 by P2 (P1's block tail sums <= P2's).

    Rows and columns are compared over the union of stored levels; the
    shorter operand is zero-padded, so a truncated corner can be compared
    against a larger corner of the original chain. Both are compared on one
    band frame wide enough for either.
    """
    if P1.d != P2.d:
        raise ValueError(f"block size mismatch: {P1.d} != {P2.d}")
    frame = (max(P1.levels, P2.levels), max(P1.lower, P2.lower), max(P1.upper, P2.upper))
    return bool(np.all(_band_tails(P1, *frame) <= _band_tails(P2, *frame) + tol))


def vector_dominates(mu: BlockVector, eta: BlockVector, tol: float = CHECK_TOLERANCE) -> bool:
    """Check block-wise dominance of probability vector mu by eta."""
    if mu.d != eta.d:
        raise ValueError(f"block size mismatch: {mu.d} != {eta.d}")
    for name, vec in (("mu", mu), ("eta", eta)):
        if not vec.is_probability():
            raise ValueError(f"{name} is not a probability vector")
    levels = max(mu.levels, eta.levels)
    s_mu = BlockVector(mu.d, mu.padded(levels)).suffix_sums()
    s_eta = BlockVector(eta.d, eta.padded(levels)).suffix_sums()
    return bool(np.all(s_mu <= s_eta + tol))


def is_block_increasing(f: BlockVector, tol: float = 0.0) -> bool:
    """True iff f(k, i) <= f(k+1, i) for all stored k and every phase i."""
    return bool(np.all(f.entries[:-1] <= f.entries[1:] + tol))


def lcb_truncate(P, n: int) -> BlockStochasticMatrix:
    """Last-column-block-augmented truncation at level n.

    Keeps rows/columns 0..n, copying columns l < n and folding all mass from
    column levels >= n into column n. Accepts either a stored corner with at
    least n+1 complete rows or a GI/G/1-type model object (its own truncate,
    the same fold). The fold stays inside the band: a row's column-n slot is
    at most `upper` levels above it whenever the row has mass at or beyond n,
    so only the top `upper` + 1 levels are folded (_fold_levels).

    Args:
        P: BlockStochasticMatrix (complete rows) or GI/G/1-type model.
        n: truncation level, >= 1.

    Returns:
        Square (n+1)-level BlockStochasticMatrix with the band width of P.
    """
    if n < 1:
        raise ValueError("truncation level n must be >= 1")
    if not isinstance(P, BlockStochasticMatrix):
        return P.truncate(n)
    if P.levels < n + 1:
        raise ValueError(f"n={n} exceeds the {P.levels} stored levels")
    band = P.band[: n + 1].copy()
    first = max(0, n - P.upper)
    band[first:] = _fold_levels(P.band[first:n + 1], P.lower)
    return BlockStochasticMatrix(d=P.d, band=band, lower=P.lower)


def _fold_levels(rows: np.ndarray, lower: int) -> np.ndarray:
    """LCB fold of block-band rows (..., levels, width, d, d) at their last level (a copy).

    Each row's blocks in column levels at or beyond the last row's level n
    are summed, in slot order, into its column-n slot. Rows more than
    `upper` levels below n reach no column level >= n, so the rows of levels
    max(0, n - upper)..n are every row that changes. Leading axes stack
    levels with the same number of rows, folded each at its own last level.
    """
    span = rows.shape[-4] - 1
    beyond = (_slot_columns(span + 1, rows.shape[-3], lower) >= span)[:, :, None, None]
    fold = np.where(beyond, rows, 0.0).sum(axis=-3)
    out = np.where(beyond, 0.0, rows)
    i = np.arange(span + 1)
    out[..., i, span - i + lower, :, :] = fold
    return out


def _state_band(P: BlockStochasticMatrix) -> tuple[np.ndarray, int, int]:
    """Padded state-level band (W, lo, up) of a square corner.

    State s = k*d + i keeps columns s-lo..s+up: W[s, t - s + lo] is the
    entry (s, t). The last `lo` rows are zero padding, so the strided views
    of the bottom-up sweep (_upward_views), which read up to lo rows below
    a state, never leave the array.
    """
    d = P.d
    lo = P.lower * d + d - 1
    up = P.upper * d + d - 1
    states = P.levels * d
    W = np.zeros((states + lo, lo + up + 1))
    _place_states(W[:states], P.band)
    return W, lo, up


def _place_states(out: np.ndarray, band: np.ndarray):
    """Write block-band rows (..., levels, width, d, d) into state-band rows (..., levels*d, slots).

    Entry (k, o, i, j), column level k - lower + o, goes to row k*d + i,
    slot o*d + j - i + d - 1: the slot lo + (column - row state) of a band
    with lo = lower*d + d - 1 slots left of the diagonal.
    """
    *lead, levels, width, d, _ = band.shape
    o = np.arange(width)[:, None, None]
    i = np.arange(d)[None, :, None]
    j = np.arange(d)[None, None, :]
    rows = np.broadcast_to(i, (width, d, d))
    out.reshape(*lead, levels, d, out.shape[-1])[..., rows, o * d + j - i + d - 1] = band


def _closed_classes(band: np.ndarray, lower: int = 0) -> list[np.ndarray]:
    """Increasing state lists of the closed classes of a square corner's block band.

    The state graph is read off the band: np.nonzero lists its entries by row
    state, then by increasing column state. An iterative Tarjan search (SIAM
    J. Comput. 1, 1972) takes the roots in increasing order and the highest
    successor first, and finishes the strongly connected components in the
    order scipy's csgraph numbers them. A state's Tarjan stack position
    stands in for its DFS number, and a finished state's is `states`, above
    every low link. A component is closed unless one of its states leaks: it
    has an edge into a component finished before it.
    """
    levels, _, d, _ = band.shape
    k, i, o, j = np.nonzero(band.transpose(0, 2, 1, 3))
    states = levels * d
    heads = np.searchsorted(k * d + i, np.arange(states + 1)).tolist()
    succ = ((k - lower + o) * d + j).tolist()
    unread = heads[1:]  # each state's successors are read from the highest down
    pos, low, leaks = [-1] * states, [0] * states, [False] * states
    stack, closed = [], []
    for root in range(states):
        if pos[root] >= 0:
            continue
        pos[root] = low[root] = 0  # the stack is empty between roots
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            e = unread[v]
            if e > heads[v]:
                unread[v] = e = e - 1
                w = succ[e]
                if pos[w] < 0:
                    pos[w] = low[w] = len(stack)
                    stack.append(w)
                    path.append(w)
                elif pos[w] < low[v]:
                    low[v] = pos[w]
                elif pos[w] == states:
                    leaks[v] = True
                continue
            path.pop()
            if low[v] == pos[v]:
                members = stack[low[v]:]
                del stack[low[v]:]
                for w in members:
                    pos[w] = states
                if not any(leaks[w] for w in members):
                    closed.append(np.array(sorted(members)))
                if path:
                    leaks[path[-1]] = True
            elif low[v] < low[path[-1]]:
                low[path[-1]] = low[v]
    return closed


def _one_class(classes: list[np.ndarray], d: int) -> np.ndarray:
    """The only class of the list, or MultipleClosedClassesError naming all of them."""
    if len(classes) > 1:
        raise MultipleClosedClassesError(
            [[(int(s) // d, int(s) % d) for s in cls] for cls in classes]
        )
    return classes[0]


def closed_classes(P: BlockStochasticMatrix) -> list[np.ndarray]:
    """Closed communicating classes of a square corner, as flat state lists.

    State (k, i) is k*d + i; each list is increasing. The pattern graph is
    read off the band, so the cost is linear in the number of levels.
    """
    if not P.square:
        raise ValueError("closed classes need a square corner; apply lcb_truncate first")
    return _closed_classes(P.band, P.lower)


def _upward_views(W: np.ndarray, lo: int, up: int):
    """Views of a padded band for bottom-up elimination, one row per state s.

    rows[s, c] = (s, s + 1 + c) is row s right of the diagonal, cols[s, r] =
    (s + 1 + r, s) column s below it, and windows[s, r, c] =
    (s + 1 + r, s + 1 + c) the entries that eliminating s updates. Leading
    axes of W stack bands, and the views keep them.
    """
    *lead, rows_total, width = W.shape
    states = rows_total - lo
    flat = W.reshape(*lead, -1)
    step = flat.strides[-1]
    skew = (*flat.strides[:-1], width * step, (width - 1) * step)
    below = width + lo
    rows = W[..., :states, lo + 1:]
    cols = as_strided(flat[..., below - 1:], (*lead, states, lo), skew)
    windows = as_strided(flat[..., below:], (*lead, states, lo, up), skew + (step,))
    return rows, cols, windows


def _sweep_up(views, start: int, stop: int, pivots: np.ndarray):
    """Bottom-up GTH elimination of states start..stop-1, in place on a padded band.

    Eliminating state s adds col(s) row(s) / sum(row(s)) to the entries
    (i, j), s < i <= s+lo and s < j <= s+up, and pivots[s] gets sum(row(s)).
    A state with no mass right of the diagonal is left in place with pivot
    0. Such a state is transient or the top state of the closed class: a
    state of the class below its top always reaches higher class states.
    Eliminating a transient state is harmless, because no row of the closed
    class has an entry in its column. `views` are the band's _upward_views.
    """
    rows, cols, windows = views
    part = slice(start, stop)
    for s, row, col, window in zip(range(start, stop), rows[part], cols[part], windows[part]):
        total = np.add.reduce(row)
        pivots[s] = total
        if total > 0.0:
            window += np.multiply.outer(col, row / total)


def _sweep_stack(views, pivots: np.ndarray):
    """_sweep_up of every state of a stack of padded bands, one step per state for all.

    views are the stack's _upward_views and pivots is (bands, states). Each
    entry gets the arithmetic _sweep_up gives it; a state with pivot 0 has
    no mass right of its diagonal and adds col * 0 = 0, which changes no
    entry.
    """
    rows, cols, windows = views
    for s in range(pivots.shape[1]):
        row = rows[:, s]
        total = np.add.reduce(row, axis=-1)
        pivots[:, s] = total
        scaled = row / np.where(total > 0.0, total, 1.0)[:, None]
        windows[:, s] += cols[:, s, :, None] * scaled[:, None, :]


class _SharedSweep:
    """The bottom-up sweep of a corner's padded state band, run level by level.

    After the states below f = k*d are eliminated, later eliminations read
    only the frontier F_k: rows f..f+lo-1 in the columns from f on, the
    diagonal left out, which GTH never reads. They also read P's own rows
    above the frontier. On a GI/G/1 corner the frontier converges like the
    G/R iteration of the censored chain and reaches a bit-exact fixed point
    or short cycle within a few dozen levels. So at the first repeat F_k ==
    F_j, compared byte for byte, the levels from k on repeat the q = k - j
    levels from j on: same pivots, same final columns below the diagonal,
    and F_(k+t) == F_(j + t mod q). The sweep then copies that q-level block
    instead of eliminating, as far as every band row the copied range reads
    is bitwise equal to the row q levels below it in P.band. Boundary rows
    at the bottom and folded rows at the top of the corner are therefore
    always eliminated for real. The rows of the copied states right of the
    diagonal, and the diagonal, keep stale values: nothing reads them again.

    Every level eliminated for real keeps its frontier's key, so the repeat
    found, and with it every solved vector, does not depend on how far above
    the requested levels the corner reaches.
    """

    def __init__(self, P: BlockStochasticMatrix, W: np.ndarray, lo: int, up: int, pivots):
        self.band, self.lower, self.d = P.band, P.lower, P.d
        self.W, self.lo = W, lo
        self.views = _upward_views(W, lo, up)
        self.pivots = pivots
        self.level = 0
        r = np.arange(lo)[:, None]
        slot = np.arange(lo + up + 1)
        self.mask = (slot >= lo - r) & (slot != lo)  # frontier row f + r, column >= f
        self.frontiers = []  # bytes of F_p for every level p below self.level
        self.seen = {}  # frontier bytes -> the latest level that had them
        self.repeat = None  # (j, q, end): levels j..end-1 repeat with period q

    def _frontier(self, level: int) -> np.ndarray:
        f = level * self.d
        return self.W[f:f + self.lo]

    def frontier(self, level: int) -> bytes:
        """The bytes of F_level, for any level up to the one the sweep has reached."""
        if level < self.level:
            return self.frontiers[level]
        return self._frontier(level)[self.mask].tobytes()

    def run_to(self, stop: int):
        """Eliminate (or copy) every state below level `stop`."""
        d = self.d
        while self.level < stop:
            k = self.level
            key = self._frontier(k)[self.mask].tobytes()
            j = self.seen.get(key)
            if j is not None:
                end = self._periodic_until(j, k, stop)
                if end > k:
                    self._tile(j, k, end)
                    continue
            self.seen[key] = k
            self.frontiers.append(key)
            _sweep_up(self.views, k * d, (k + 1) * d, self.pivots)
            self.level = k + 1

    def _periodic_until(self, j: int, k: int, stop: int) -> int:
        """Largest level e <= stop such that the states of levels k..e-1 may copy levels j..

        Eliminating them reads band levels k+L..e+L at most (L = P.lower);
        each must equal the level q = k - j below it, and exist.
        """
        q, first = k - j, k + self.lower
        rows = self.band[first:stop + self.lower + 1]
        same = np.all(rows == self.band[first - q:first - q + len(rows)], axis=(1, 2, 3))
        differ = np.flatnonzero(~same)
        return k + (int(differ[0]) if differ.size else len(rows)) - 1

    def _tile(self, j: int, k: int, end: int):
        """Fill levels k..end-1 with copies of levels j..k-1 and set the frontier at end."""
        d, q = self.d, k - j
        if self.repeat is None:
            self.repeat = (j, q, end)
        elif self.repeat[1:] == (q, k):
            self.repeat = (self.repeat[0], q, end)
        repeat = np.arange((end - k) * d) % (q * d)
        self.pivots[k * d:end * d] = self.pivots[j * d:k * d][repeat]
        cols = self.views[1]
        cols[k * d:end * d] = cols[j * d:k * d][repeat]
        block = self.frontiers[j:k]
        self.frontiers += (block * ((end - k) // q + 1))[:end - k]
        self._frontier(end)[self.mask] = np.frombuffer(self.frontiers[end - q], dtype=float)
        self.seen.update(zip(self.frontiers[end - q:end], range(end - q, end)))
        self.level = end


# The back-substitution multiplies x by up to max(1, column sum / pivot) per
# state, and pi(0) / pi(top) can leave float range: 1.5^3200 over a
# 3200-level walk. So no product it forms may grow by more than 2^_CHUNK_BITS
# over the feed it starts from.
_CHUNK_BITS = 1000.0


def _compose(lower: np.ndarray, upper: np.ndarray, lo: int) -> np.ndarray:
    """The map of the states of `lower` and then of `upper`, fed from above upper.

    The map of a range of states takes its feed, x of the lo states just above
    the range, to x of the range's states in increasing order, followed by
    lo identity rows that give the feed back. So upper[:lo] gives the feed of
    the range just below upper. Every entry is non-negative.

    A map grows a feed by at most its largest row sum, or 1 if that is
    smaller; the log2 of that bound is the map's bits. Every row sum of
    upper[:lo] is within upper's bound, so the bits of the composition are at
    most the sum of the two. Stacks of maps compose pair by pair.
    """
    below = np.matmul(lower[..., :lower.shape[-2] - lo, :], upper[..., :lo, :])
    return np.concatenate((below, upper), axis=-2)


def _recur(below: np.ndarray, pivots: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Run the descent's recurrence on a batch of feeds, from the top down, in place.

    below (batch, count, lo) and pivots (batch, count) are the rows of count
    states (see _upward_views), a zero pivot taken as 1 already, and
    z (batch, count + lo, f) holds from row count on f feeds, x of the lo
    states just above them. Each step solves x(s) = sum over r of
    below[s, r] x(s+1+r) / pivot(s) for one state of every batch entry. The
    rows are copied first: numpy's product can round differently on a
    strided view, and the bits must not depend on where the rows came from.
    """
    count, lo = below.shape[1:]
    rows = np.ascontiguousarray(below)[:, :, None]
    for i in range(count - 1, -1, -1):
        z[:, i] = np.matmul(rows[:, i], z[:, i + 1:i + 1 + lo])[:, 0] / pivots[:, i, None]
    return z


def _level_maps(cols: np.ndarray, pivots: np.ndarray, d: int, stop: int):
    """Maps (see _compose) of the levels 0..stop-1, one per level on its own feed, and their bits.

    Each runs the recurrence of its level's d states on lo unit feeds. The
    levels do not depend on each other, so each step is one product for all.
    """
    lo = cols.shape[1]
    piv = pivots[:stop * d].reshape(stop, d)
    maps = np.zeros((stop, d + lo, lo))
    maps[:, d:] = np.eye(lo)
    _recur(cols[:stop * d].reshape(stop, d, lo), np.where(piv > 0.0, piv, 1.0), maps)
    return maps, np.log2(np.maximum(1.0, maps[:, :d].sum(axis=2).max(axis=1, initial=0.0)))


def _growth(below: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Bits by which each state can grow x over its feed: log2 max(1, column sum / pivot)."""
    return np.log2(np.maximum(1.0, below.sum(axis=-1) / pivots))


class _Solution:
    """x(0..h) of one closed class, solved from its top state h down.

    x(h) = 1. The states b..h solved so far keep a power-of-two exponent
    each, applied at the end, where what underflows is negligible against the
    largest x. The feed x(b..b+lo-1) is held at the current exponent with its
    largest entry in [1/2, 1), so a product grows from it by at most its
    map's row sums.
    """

    def __init__(self, h: int, lo: int):
        self.x = np.zeros(h + 1)
        self.x[h] = 1.0
        self.scale = np.zeros(h + 1, dtype=int)
        self.feed = np.zeros(lo)
        self.feed[:1] = 1.0
        self.exponent = 0
        self.b = h

    def _store(self, z: np.ndarray):
        """Take z, x of the states just below b followed by the feed, and rescale."""
        lo = self.feed.size
        a = self.b - (z.size - lo)
        self.x[a:self.b] = z[:z.size - lo]
        self.scale[a:self.b] = self.exponent
        self.feed = z[:lo]
        top = float(self.feed.max(initial=0.0))
        if top > 0.0:
            shift = math.frexp(top)[1]
            self.feed = np.ldexp(self.feed, -shift)
            self.exponent += shift
        self.b = a

    def apply(self, M: np.ndarray):
        """Solve the states of the map M (see _compose) below b with one product."""
        self._store(M @ self.feed)

    def states(self, below: np.ndarray, pivots: np.ndarray):
        """Solve the states just below b one at a time, in chunks that fit _CHUNK_BITS.

        below and pivots are the rows of those states (see _upward_views). A
        chunk takes as many states as fit, at least one (see _growth).
        """
        count, lo = len(pivots), self.feed.size
        if count == 0:
            return
        pivots = np.where(pivots > 0.0, pivots, 1.0)
        bits = np.concatenate(([0.0], np.cumsum(_growth(below, pivots)[::-1])))  # bits[k]: top k states
        k = 0
        while k < count:
            stop = max(int(np.searchsorted(bits, bits[k] + _CHUNK_BITS, side="right")) - 1, k + 1)
            part = slice(count - stop, count - k)
            z = np.zeros((1, stop - k + lo, 1))
            z[0, stop - k:, 0] = self.feed
            self._store(_recur(below[None, part], pivots[None, part], z)[0, :, 0])
            k = stop

    def result(self) -> np.ndarray:
        return np.ldexp(self.x, self.scale - self.scale.max())


def _tree_nodes(base: int, top: int):
    """(t, end) of the tree nodes (see _Descent) that tile levels base..top-1, from the top down.

    Each is the highest node that ends where the last one began, inside the
    range: at most two per height.
    """
    while top > base:
        t = min((top & -top).bit_length(), (top - base).bit_length()) - 1
        yield t, top
        top -= 1 << t


class _Descent:
    """The back-substitution of the levels of one bottom-up sweep.

    `cols` and `pivots` are the sweep's (see _upward_views): cols[s, r] is
    the entry (s+1+r, s) and pivots[s] the pivot of state s. With x(h) = 1 at
    the top state h of a closed class, the class solves x(s) = sum over r of
    cols[s, r] x(s+1+r) / pivot(s), from the top down. Every term is
    non-negative, so the descent is subtraction-free. No class row has an
    entry in the column of a state off the class, so such a state gets
    x = 0; a zero pivot, which only such a state can have, is taken as 1.

    Once the sweep has passed every level, `start` solves each level's own
    states one at a time, from copies of their rows taken while they held
    that level's reduction, and `finish` solves the states below each level's
    fold, which are shared and final, with maps (see _compose):

    - a tree of level maps: the node of height t ending at level e is the
      map of the 2^t levels below e, for every multiple e of 2^t. A height
      is built from the one below by composing pairs, all in one product.
      A level goes down to level 0 with one product per binary digit of its
      boundary (_tree_nodes); a node that would leave _CHUNK_BITS goes as
      its two halves, and a level that would, one state at a time;
    - where the sweep copied its repeating range, the map of 2^i whole
      periods, by doubling (`_through_repeat`).

    Every map is anchored at positions fixed by P alone: state 0, the level
    boundaries and their binary digits, and the start of the repeating range
    with its period boundaries. So a level's x does not depend on which
    other levels are solved.
    """

    def __init__(self, cols: np.ndarray, pivots: np.ndarray, d: int):
        self.cols, self.pivots, self.d = cols, pivots, d
        self.lo = cols.shape[1]
        self.tree = [(np.zeros((0, d + self.lo, self.lo)), np.zeros(0))]  # (maps, bits) by height

    def _grow(self, top: int):
        """Build the tree over levels 0..top-1, unless it reaches that far already.

        A node past _CHUNK_BITS may overflow as it is built, and so may its
        ancestors, which are past it too; none of them is ever applied.
        """
        if top <= len(self.tree[0][0]):
            return
        with np.errstate(over="ignore", invalid="ignore"):
            maps, bits = _level_maps(self.cols, self.pivots, self.d, top)
            self.tree = [(maps, bits)]
            while len(maps) > 1:
                pairs = len(maps) // 2 * 2
                maps = _compose(maps[0:pairs:2], maps[1:pairs:2], self.lo)
                bits = bits[0:pairs:2] + bits[1:pairs:2]
                self.tree.append((maps, bits))

    def _node(self, x: _Solution, t: int, end: int):
        """Solve with the node of height t that ends at level `end`, or with its halves if it does not fit.

        A level that does not fit goes one state at a time.
        """
        maps, bits = self.tree[t]
        i = (end >> t) - 1
        if bits[i] <= _CHUNK_BITS:
            x.apply(maps[i])
        elif t:
            self._node(x, t - 1, end)
            self._node(x, t - 1, end - (1 << (t - 1)))
        else:
            part = slice((end - 1) * self.d, end * self.d)
            x.states(self.cols[part], self.pivots[part])

    def start(self, parts) -> list[_Solution]:
        """Solutions of closed classes, each solved down to its level's boundary.

        parts are (h, below, pivots): a class's top state h, and the rows (see
        _upward_views) of the states from the level's boundary, or from the
        boundary below h, up to h. Those are the level's own, and they go one
        at a time. Where they fit _CHUNK_BITS, the parts with as many of them
        take each step together; the others go in chunks (_Solution.states).
        """
        solutions, groups = [], {}
        for h, below, pivots in parts:
            x = _Solution(h, self.lo)
            solutions.append(x)
            pivots = np.where(pivots > 0.0, pivots, 1.0)
            if _growth(below, pivots).sum() <= _CHUNK_BITS:
                groups.setdefault(len(pivots), []).append((x, below, pivots))
            else:
                x.states(below, pivots)
        for count, group in groups.items():
            xs, below, pivots = zip(*group)
            z = np.zeros((len(xs), count + self.lo, 1))
            z[:, count:, 0] = [x.feed for x in xs]
            _recur(np.array(below), np.array(pivots), z)
            for x, values in zip(xs, z[:, :, 0]):
                x._store(values)
        return solutions

    def finish(self, solutions, repeat):
        """Solve the states below each solution's level boundary, sharing maps between them.

        repeat is the sweep's (j, q, end), or None: levels j..end-1 repeat
        with period q. A level above j + q goes down through the repeating
        range first (_through_repeat); then every level goes down to level 0
        through the tree.
        """
        if repeat is not None:
            self._through_repeat(solutions, *repeat)
        self._grow(max((x.b for x in solutions), default=0) // self.d)
        for x in solutions:
            for t, end in _tree_nodes(0, x.b // self.d):
                self._node(x, t, end)

    def _through_repeat(self, solutions, j: int, q: int, end: int):
        """Take each solution above level j + q down to level j.

        The sweep copied such a level before reaching it. It goes down to end
        one state at a time, to the period boundary below with the tree's
        nodes from base j, then in whole periods with one product per chunk
        of them; unless one period would leave _CHUNK_BITS. K maps c whole
        periods, and its top c' periods map c' for every c' <= c: it doubles
        from one period while it fits and c stays within the most periods
        any solution crosses.
        """
        d, cols, pivots = self.d, self.cols, self.pivots
        periodic = [x for x in solutions if x.b > (j + q) * d]
        if not periodic:
            return
        self._grow(j + q)
        bits = float(self.tree[0][1][j:j + q].sum())
        if bits > _CHUNK_BITS:
            return
        for x in periodic:
            part = slice(min(x.b, end * d), x.b)
            x.states(cols[part], pivots[part])
            for t, top in _tree_nodes(j, j + (x.b // d - j) % q):
                self._node(x, t, top)
        counts = [(x.b // d - j) // q for x in periodic]
        c, K = 1, None
        for t, top in _tree_nodes(j, j + q):
            node = self.tree[t][0][(top >> t) - 1]
            K = node if K is None else _compose(node, K, self.lo)
        while 2 * c <= max(counts) and 2 * bits <= _CHUNK_BITS:
            c, K, bits = 2 * c, _compose(K, K, self.lo), 2 * bits
        for x, left in zip(periodic, counts):
            most = min(c, 1 << (left.bit_length() - 1))
            while left:
                step = min(left, most)
                x.apply(K[(c - step) * q * d:])
                left -= step


def _left_product(rows, lower: int, x: np.ndarray) -> np.ndarray:
    """x P for x of shape (levels, d) and P a square corner; same shape.

    P's band is `rows`, a sequence of band row blocks in level order, so a
    corner whose rows live in separate arrays needs no copy. Each offset
    slot o of a block adds the stacked 1 x d by d x d products x(k) band[k, o]
    at column level k - lower + o: one matmul per slot.
    """
    levels, d = x.shape
    width = rows[0].shape[1]
    out = np.zeros((levels + width - 1, d))
    k = 0
    for band in rows:
        m = len(band)
        part = x[k:k + m, None, :]
        for o in range(width):
            out[k + o:k + o + m] += np.matmul(part, band[:, o])[:, 0]
        k += m
    return out[lower:lower + levels]


def _right_product(P: BlockStochasticMatrix, x: np.ndarray) -> np.ndarray:
    """P x for x of shape (col_levels, d), computed on the band; shape (levels, d).

    Each offset slot o adds the stacked d x d by d x 1 products
    band[k, o] x(k - lower + o): one matmul per slot, as in _left_product.
    """
    width = P.band.shape[1]
    padded = np.zeros((max(P.levels + width - 1, P.lower + P.col_levels), P.d, 1))
    padded[P.lower:P.lower + P.col_levels, :, 0] = x
    out = np.zeros((P.levels, P.d))
    for o in range(width):
        out += np.matmul(P.band[:, o], padded[o:o + P.levels])[..., 0]
    return out


def _checked(rows, lower: int, pi: np.ndarray, deviation: float, levels=None) -> BlockVector:
    """pi (flat) as a BlockVector, once its residual on a square corner's band passes.

    The band is `rows`, band row blocks in level order (see _left_product).
    GTH takes each diagonal entry as the complement of the rest of its row,
    so on rows that sum to 1 - e the exact solution has a residual of up to
    e. The bound is STATIONARY_RESIDUAL_TOLERANCE plus `deviation`, the
    band's largest |row sum - 1|, which is 1e-10 on exactly stochastic rows.
    With `levels`, only the residual of the first `levels` levels is
    checked: rows of an infinite chain, whose columns near the last row
    miss the rows above it.
    """
    d = rows[0].shape[2]
    pi = pi.reshape(-1, d)
    bound = STATIONARY_RESIDUAL_TOLERANCE + float(deviation)
    residual = float(np.max(np.abs(_left_product(rows, lower, pi)[:levels] - pi[:levels])))
    if not residual <= bound:
        raise StationarySolveError(f"stationary residual {residual:.3e} exceeds {bound:g}")
    return BlockVector(d, pi)


def _class_top(rows, lower: int, pivots: np.ndarray) -> int:
    """Top state h of the one closed class of a square corner, from its bottom-up pivots.

    The top state of every closed class gets a pivot of exactly 0.0: it
    reaches no higher state, and no elimination puts an entry right of its
    diagonal. So when every pivot below the corner's top state is positive,
    the corner has one closed class and it holds the top state. Otherwise
    (the slow path) the classes are read off the graph of its band row
    blocks `rows`: several raise MultipleClosedClassesError, and one gives
    its own top state. A pivot that underflows to 0.0 sends a corner to the
    slow path, never past it, and a zero pivot below h inside the class is a
    StationarySolveError.
    """
    h = pivots.size - 1
    if np.all(pivots[:h] > 0.0):
        return h
    d = rows[0].shape[2]
    cls = _one_class(_closed_classes(np.concatenate(rows), lower), d)
    stalled = cls[:-1][pivots[cls[:-1]] <= 0.0]
    if stalled.size:
        s = int(stalled[0])
        raise StationarySolveError(
            f"state (level {s // d}, phase {s % d}) cannot reach higher states inside "
            "its class (numerical degeneracy)"
        )
    return int(cls[-1])


# The product of P's own rows with a batch of vectors gathers a band row per
# row of the batch; at most this many bytes of them at a time.
_GATHER_BYTES = 1 << 18


def _checked_levels(band, lower: int, ks, folds, x: np.ndarray, starts, deviation):
    """Check the residual of a batch of levels, each on its truncation's band, from the lowest up.

    Level i has the vector x[starts[i]:starts[i] + n_i + 1], and its corner's
    band is P's own rows band[:ks[i]] followed by its folded rows, the
    levels of the stacks `folds` (see _top_windows) taken in order. Each
    vector is followed by width - 1 zero levels of x, where its product
    x P_n spills. The product adds P's rows first, then the folded ones,
    each by slot, as _left_product adds them, so every entry has the bits
    it has there. The lowest level whose residual exceeds
    STATIONARY_RESIDUAL_TOLERANCE plus its `deviation` raises
    StationarySolveError, as _checked raises it; otherwise the max-norm
    residuals come back, one per level.
    """
    width, d = band.shape[1], band.shape[2]
    out = np.zeros((lower + len(x), d))  # out[lower + p] is row p of x P_n
    # P's own rows first, on every row of x but the last width - 1 (zeros).
    # The rows from each level's fold on count as zero here, which adds 0 and
    # changes no entry. The chunks go from the top down, so each entry still
    # gets its slots in order.
    used = len(x) - width + 1
    chunk = max(1, _GATHER_BYTES // (8 * width * d * d))
    for a in reversed(range(0, used, chunk)):
        b = min(a + chunk, used)
        owner = np.searchsorted(starts, np.arange(a, b), side="right") - 1
        level = np.arange(a, b) - starts[owner]
        own = level < ks[owner]
        part = np.where(own[:, None], x[a:b], 0.0)[:, None, :]
        blocks = band.take(np.where(own, level, 0), axis=0)
        for o in range(width):
            out[a + o:b + o] += np.matmul(part, blocks[:, o])[:, 0]
    i = 0
    for rows in folds:
        at = (starts + ks)[i:i + len(rows), None] + np.arange(rows.shape[1])
        part = x[at][:, :, None, :]
        for o in range(width):
            out[at + o] += np.matmul(part, rows[:, :, o])[:, :, 0]
        i += len(rows)
    diff = out[lower:]
    diff -= x
    np.abs(diff, out=diff)
    diff[np.append(starts[1:], len(x))[:, None] - np.arange(1, width)] = 0.0  # where products spill
    residual = np.maximum.reduceat(diff, starts).max(axis=1)
    bound = STATIONARY_RESIDUAL_TOLERANCE + deviation
    failing = ~(residual <= bound)
    if failing.any():
        i = int(np.argmax(failing))
        raise StationarySolveError(f"stationary residual {residual[i]:.3e} exceeds {bound[i]:g}")
    return residual


def _top_windows(P: BlockStochasticMatrix, sweep: _SharedSweep, ks: np.ndarray, span: int):
    """The top windows of the truncations at ks + span, folded and swept bottom-up as one stack.

    The window of the truncation at n = k + span is its state band from
    level k up, once the states below k are eliminated. Its first lo rows
    are the frontier F_k, whose bytes the sweep keeps, and the rows above
    are P's own, which no elimination below k reaches. The window is folded
    as lcb_truncate folds: each entry beyond level n is added to the same
    phase of level n, in column order. Its rows past n are zero, so no
    elimination reaches beyond n. Returns the stack's cols view (see
    _upward_views) and pivots, (len(ks), (span + 1) d) of them.
    """
    d, lo = P.d, sweep.lo
    states, slots = (span + 1) * d, sweep.W.shape[1]
    W = np.zeros((len(ks), states + lo, slots))
    _place_states(W[:, :states], P.band[ks[:, None] + np.arange(span + 1)])
    frontiers = np.frombuffer(b"".join(sweep.frontier(int(k)) for k in ks), dtype=float)
    W[:, :lo][:, sweep.mask] = frontiers.reshape(len(ks), -1)
    W[:, states:] = 0.0
    column = np.arange(states)[:, None] - lo + np.arange(slots)
    beyond = column >= states
    above = column // d - span  # levels above n
    for t in range(1, int(above.max()) + 1):
        r, c = np.nonzero(beyond & (above == t))
        W[:, r, c - t * d] += W[:, r, c]
    W[:, :states][:, beyond] = 0.0
    pivots = np.zeros((len(ks), states))
    views = _upward_views(W, lo, slots - lo - 1)
    _sweep_stack(views, pivots)
    return views[1], pivots


def _stationary_levels(P: BlockStochasticMatrix, levels) -> list[BlockVector]:
    """Stationary vectors of lcb_truncate(P, n) for n in levels, one sweep for all."""
    top = P.levels - 1
    for n in levels:
        if not (1 <= n <= top or n == top):
            raise ValueError(f"level {n} is outside the corner's levels 1..{top}")
    d, U = P.d, P.upper
    W, lo, up = _state_band(P)
    pivots = np.zeros(P.levels * d)
    sweep = _SharedSweep(P, W, lo, up, pivots)
    ns = np.array(sorted(set(levels)))
    ks = np.maximum(ns - U, 0)
    sweep.run_to(int(ks[-1]))
    cols = sweep.views[1]
    # deviation[k]: the largest |row sum - 1| of P's levels below k
    worst = np.abs(_row_sums(P.band) - 1.0).max(axis=1)
    deviation = np.maximum.accumulate(np.concatenate(([0.0], worst)))
    # stalls[f]: how many of the shared pivots below state f are not positive
    stalls = np.concatenate(([0], np.cumsum(~(pivots[:ks[-1] * d] > 0.0))))
    folds, devs, parts, failure = [], [], [], None
    start = 0
    while start < len(ns) and failure is None:
        # Rows below k = n - span reach no column level beyond n, so they
        # are P's own, checked by its constructor, in every truncation at n
        # or above, and so is their reduction. The span is min(n, U): each
        # level below U on its own, then all the others as one stack.
        span = int(ns[start] - ks[start])
        stop = start + 1 if span < U else len(ns)
        k = ks[start:stop]
        rows = _fold_levels(P.band[k[:, None] + np.arange(span + 1)], P.lower)
        sums = _row_sums(rows.reshape(-1, *rows.shape[2:])).reshape(len(k), -1)
        fits = np.abs(sums - 1.0) <= ROW_SUM_TOLERANCE
        bad = ~(fits.all(axis=1) & (rows.min(axis=(1, 2, 3, 4)) >= 0.0))
        if bad.any():
            g = int(np.argmax(bad))
            try:
                _checked_row_sums(rows[g], d, first=int(k[g]))
            except ValueError as error:
                failure = error  # raised once the levels below pass their residual checks
                k, rows, sums = k[:g], rows[:g], sums[:g]
        if not len(k):
            break
        below, piv = _top_windows(P, sweep, k, span)
        below = np.ascontiguousarray(below[:, :-1])
        first = k * d
        tops = first + piv.shape[1] - 1
        # The class tops of levels off the fast path (see _class_top), lowest first.
        for g in np.flatnonzero((stalls[first] > 0) | ~(piv[:, :-1] > 0.0).all(axis=1)):
            try:
                tops[g] = _class_top(
                    (P.band[:k[g]], rows[g]), P.lower, np.concatenate((pivots[:first[g]], piv[g]))
                )
            except (ValueError, StationarySolveError) as error:
                failure = error
                k, rows, sums, tops = k[:g], rows[:g], sums[:g], tops[:g]
                break
        for g, (f, h) in enumerate(zip(first.tolist(), tops.tolist())):
            if h >= f:
                parts.append((h, below[g, :h - f], piv[g, :h - f]))
            else:
                own = slice(h // d * d, h)
                parts.append((h, cols[own].copy(), pivots[own].copy()))
        folds.append(rows)
        devs.append(np.maximum(deviation[k], np.abs(sums - 1.0).max(axis=1)))
        start = stop
    if not parts:
        raise failure
    descent = _Descent(cols, pivots, d)
    solutions = descent.start(parts)
    descent.finish(solutions, sweep.repeat)
    ns, ks = ns[:len(parts)], ks[:len(parts)]
    width = P.band.shape[1]
    starts = np.cumsum(ns + width) - (ns + width)
    x = np.zeros((int(starts[-1] + ns[-1]) + width, d))
    flat = x.reshape(-1)
    for a, solution in zip(starts.tolist(), solutions):
        values = solution.result()
        flat[a * d:a * d + values.size] = values / values.sum()
    del solutions  # frees their x and exponents, each as large as x, before the check
    _checked_levels(P.band, P.lower, ks, folds, x, starts, np.concatenate(devs))
    if failure is not None:
        raise failure
    solved = {n: BlockVector(d, x[a:a + n + 1]) for n, a in zip(ns.tolist(), starts.tolist())}
    return [solved[n] for n in levels]


def stationary(P: BlockStochasticMatrix, levels=None):
    """Stationary distribution of a finite stochastic corner, or of its truncations.

    With `levels`: a list with the stationary vector of lcb_truncate(P, n)
    for each n in levels, from one bottom-up GTH sweep (Masuyama's sequential
    update, Queueing Systems 2019). The states below level n - U are the
    same in every truncation at n or above, so the sweep eliminates them
    once for all levels, up to the largest n - U, and copies the levels
    where it repeats bit for bit (see _SharedSweep). Each level's own
    states are its top window, levels n - U..n: the sweep's frontier there,
    kept as bytes, and P's rows above it, folded at n (see _top_windows).
    The windows of all levels with the same span n - k (k = max(0, n - U))
    are stacked and swept together, one step per window state, with the
    arithmetic the shared sweep gives each entry: O((U+1) d) states per
    level, with no corner of its own built and nothing of P's padded to the
    largest n. A level's pivots decide its closed class (see _class_top).
    Once the sweep has passed every level, the window states are
    back-substituted one at a time, all levels in one loop, and the states
    below each window with maps the levels share: whole periods of the
    range where the sweep copied, and a tree of level maps below it (see
    _Descent). The residuals of all levels are checked in one batch, each
    on the band lcb_truncate(P, n) would build: P's own rows below the
    window and its folded rows, with no copy of P's band (see
    _checked_levels). The results are bit for bit those of eliminating
    every state and back-substituting with the same maps, and a level's
    vector depends on P and n alone, not on the other levels asked for. A
    level may be any of 1..P.levels - 1 (0 on a one-level corner); within U
    of the top it folds P's folded rows again, as lcb_truncate(P, n) does.
    The levels are checked from the lowest up, each as a whole: its folded
    rows and closed class, then its residual once it is solved. So the
    first level that fails a check raises its error: with several
    reducible levels, the lowest one names its classes.

    Without `levels`: the vector of P itself, stationary(P, [P.levels - 1])[0],
    in O(levels (L+1)(U+1) d^3) time and O(levels (L+U+1) d^2 log(levels))
    memory for a corner with L block levels below and U above the diagonal;
    the log factor is the descent's tree, which covers only the levels below
    the repeat where the sweep repeats.

    Args:
        P: square, stochastic BlockStochasticMatrix (truncate first if needed).
        levels: optional truncation levels.

    Returns:
        Probability BlockVector, or one per level; states outside the unique
        closed class get 0.

    Raises:
        MultipleClosedClassesError: more than one closed class (lists them).
        ValueError: non-square input, a level outside 1..P.levels-1 that
            is not P's top level, or a folded row whose sum leaves the row
            tolerance.
        StationarySolveError: a zero pivot, or a max-norm residual of pi*P - pi
            above STATIONARY_RESIDUAL_TOLERANCE plus the corner's largest
            |row sum - 1|.
    """
    if not P.square:
        raise ValueError("stationary needs a square corner; apply lcb_truncate first")
    if levels is None:
        return _stationary_levels(P, [P.levels - 1])[0]
    return _stationary_levels(P, [int(n) for n in levels])


def tv_distance(x: BlockVector, y: BlockVector) -> float:
    """Total variation distance: sum of |x - y| over all (level, phase)."""
    if x.d != y.d:
        raise ValueError(f"block size mismatch: {x.d} != {y.d}")
    levels = max(x.levels, y.levels)
    return float(np.abs(x.padded(levels) - y.padded(levels)).sum())


def v_norm_distance(x: BlockVector, y: BlockVector, v: BlockVector) -> float:
    """Weighted distance sum |x - y| * v with weights v >= 1 everywhere."""
    if x.d != y.d or x.d != v.d:
        raise ValueError("block size mismatch")
    if np.any(v.entries < 1.0 - 1e-12):
        raise ValueError("weight vector must be >= 1 everywhere")
    levels = max(x.levels, y.levels)
    if v.levels < levels:
        raise ValueError(f"weight vector covers {v.levels} levels, need {levels}")
    diff = np.abs(x.padded(levels) - y.padded(levels))
    return float((diff * v.entries[:levels]).sum())


def phase_matrix(P: BlockStochasticMatrix) -> PhaseMatrix:
    """Phase-marginal kernel psi(i, j) = sum over l of p(k,i;l,j), any k, of a stored corner.

    The row phase sums of a block-monotone chain do not depend on the level;
    this is verified across all stored levels within CHECK_TOLERANCE. A
    GIG1Model answers through its own method, which runs this on the
    boundary rows that decide.

    Raises:
        PhaseStructureError: phase sums vary with the level beyond CHECK_TOLERANCE.
    """
    per_level = P.band.sum(axis=1)
    spread = float(np.max(np.abs(per_level - per_level[0]))) if P.levels > 1 else 0.0
    if spread > CHECK_TOLERANCE:
        raise PhaseStructureError(
            f"row phase sums vary across levels by {spread:.3e} (> {CHECK_TOLERANCE:g})"
        )
    return PhaseMatrix(psi=per_level[0])


def _kernel_stationary(psi: np.ndarray) -> np.ndarray:
    """Stationary vector of a d x d stochastic kernel, by dense GTH on its closed class.

    The class comes from the kernel's graph as a one-level band. States are
    eliminated top-down on the class's own submatrix (Grassmann, Taksar &
    Heyman 1985); states off the class get 0. The residual is checked as
    stationary checks it, with the kernel as a one-level corner of d phases.
    """
    psi = np.asarray(psi, dtype=float)
    cls = _one_class(_closed_classes(psi[None, None]), 1)
    A = psi[np.ix_(cls, cls)]
    trim = np.empty(cls.size)
    for s in range(cls.size - 1, 0, -1):
        row = A[s, :s]
        trim[s] = row.sum()
        if trim[s] <= 0.0:
            raise StationarySolveError(
                f"state (level {cls[s]}, phase 0) cannot reach lower states inside "
                "its class (numerical degeneracy)"
            )
        A[:s, :s] += np.outer(A[:s, s], row / trim[s])
    x = np.empty(cls.size)
    x[0] = 1.0
    for s in range(1, cls.size):
        x[s] = (x[:s] @ A[:s, s]) / trim[s]
    pi = np.zeros(len(psi))
    pi[cls] = x / x.sum()
    return _checked((psi[None, None],), 0, pi, np.max(np.abs(psi.sum(axis=1) - 1.0))).flat


def transient_distribution(P: BlockStochasticMatrix, init: BlockVector, m: int) -> BlockVector:
    """Distribution after m steps from init under a finite square corner, on its band."""
    if not P.square:
        raise ValueError("transient_distribution needs a square corner")
    if m < 1:
        raise ValueError("step count m must be >= 1")
    if init.d != P.d:
        raise ValueError("block size mismatch")
    if not init.is_probability():
        raise ValueError("init is not a probability vector")
    if init.levels > P.levels:
        raise ValueError("init has more levels than the matrix")
    x = init.padded(P.levels)
    for _ in range(m):
        x = _left_product((P.band,), P.lower, x)
    return BlockVector(P.d, x)
