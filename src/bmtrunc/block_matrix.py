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
run time. numpy takes about 0.1 s to import, and scipy.linalg.lapack about
0.2 s more, which is more than the whole `validate` or `bound` work. So the
one scipy routine, the banded back-substitution (dtbtrs) of every stationary
solve of a corner, is imported on the first solve. Closed classes come from
one iterative Tarjan search on a block band (_closed_classes): it serves
closed_classes, the slow path of stationary, which otherwise reads a
corner's closed class off its own GTH pivots (_class_top), and the d x d
kernels of a GI/G/1 model (_kernel_stationary, gig1._is_irreducible).
"""

from __future__ import annotations

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

# Default slack for monotonicity/dominance comparisons: folded tail sums carry
# rounding, so exact comparisons would reject valid inputs. Strict checks are
# available by passing tol=0.
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
        """Entries zero-padded (or unchanged) to the requested level count."""
        if levels < self.levels:
            raise ValueError("padding cannot drop levels")
        out = np.zeros((levels, self.d))
        out[: self.levels] = self.entries
        return out

    def suffix_sums(self) -> np.ndarray:
        """S[l, j] = sum over m >= l of entries[m, j]."""
        return np.flip(np.cumsum(np.flip(self.entries, axis=0), axis=0), axis=0)

    def is_probability(self, tol: float = ROW_SUM_TOLERANCE) -> bool:
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


def is_block_monotone(S, tol: float = CHECK_TOLERANCE) -> bool:
    """Check block-monotonicity: block tail sums non-decreasing in the level.

    True iff for every stored pair of consecutive row levels k, k+1 and every
    (l, i, j): sum over m >= l of s(k,i;m,j) <= the same sum at k+1, within
    tol. GI/G/1-type model objects answer through their own method, which
    runs this check on the boundary rows that decide (their repeating rows
    cannot be enumerated). Stored corners are checked on their band.
    """
    if hasattr(S, "is_block_monotone"):
        return S.is_block_monotone(tol)
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
    band[first:] = _fold_levels(P.band, P.lower, n, first)
    return BlockStochasticMatrix(d=P.d, band=band, lower=P.lower)


def _fold_levels(band: np.ndarray, lower: int, n: int, first: int) -> np.ndarray:
    """LCB fold at level n of the block-band rows of levels first..n (a copy).

    Each row's blocks in column levels >= n are summed, in slot order, into
    its column-n slot. Rows below n - upper reach no column level >= n, so
    first = max(0, n - upper) folds every row that changes.
    """
    rows = band[first:n + 1]
    beyond = _slot_columns(n + 1, band.shape[1], lower)[first:] >= n
    fold = np.where(beyond[:, :, None, None], rows, 0.0).sum(axis=1)
    out = np.where(beyond[:, :, None, None], 0.0, rows)
    k = np.arange(first, n + 1)
    out[k - first, n - k + lower] = fold
    return out


def _state_band(P: BlockStochasticMatrix) -> tuple[np.ndarray, int, int]:
    """Padded state-level band (W, lo, up) of a square corner.

    State s = k*d + i keeps columns s-lo..s+up: W[s, t - s + lo] is the
    entry (s, t). The last `lo` rows are zero padding, so the strided views
    of the bottom-up sweep (_upward_views), which read up to lo rows below
    a state, never leave the array.
    """
    d, width = P.d, P.band.shape[1]
    lo = P.lower * d + d - 1
    up = P.upper * d + d - 1
    states = P.levels * d
    W = np.zeros((states + lo, lo + up + 1))
    o = np.arange(width)[:, None, None]
    i = np.arange(d)[None, :, None]
    j = np.arange(d)[None, None, :]
    rows = np.broadcast_to(i, (width, d, d))
    W[:states].reshape(P.levels, d, lo + up + 1)[:, rows, o * d + j - i + d - 1] = P.band
    return W, lo, up


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
    (s + 1 + r, s + 1 + c) the entries that eliminating s updates.
    """
    states = W.shape[0] - lo
    width = lo + up + 1
    flat = W.reshape(-1)
    step = flat.strides[0]
    skew = (width * step, (width - 1) * step)
    below = width + lo
    rows = W[:states, lo + 1:]
    cols = as_strided(flat[below - 1:], (states, lo), skew)
    windows = as_strided(flat[below:], (states, lo, up), skew + (step,))
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

    The stored frontiers hold no more entries than the band itself; past
    that budget the sweep stops looking for repeats.
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
        self.keys_left = W.size // max(1, int(self.mask.sum()))
        self.frontiers = []  # bytes of F_p for every level p below self.level
        self.seen = {}  # frontier bytes -> the latest level that had them

    def _frontier(self, level: int) -> np.ndarray:
        f = level * self.d
        return self.W[f:f + self.lo]

    def run_to(self, stop: int):
        """Eliminate (or copy) every state below level `stop`."""
        d = self.d
        while self.level < stop:
            k = self.level
            if self.keys_left == 0:
                _sweep_up(self.views, k * d, stop * d, self.pivots)
                self.level = stop
                return
            key = self._frontier(k)[self.mask].tobytes()
            j = self.seen.get(key)
            if j is not None:
                end = self._periodic_until(j, k, stop)
                if end > k:
                    self._tile(j, k, end)
                    continue
            self.seen[key] = k
            self.frontiers.append(key)
            self.keys_left -= 1
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
        repeat = np.arange((end - k) * d) % (q * d)
        self.pivots[k * d:end * d] = self.pivots[j * d:k * d][repeat]
        cols = self.views[1]
        cols[k * d:end * d] = cols[j * d:k * d][repeat]
        block = self.frontiers[j:k]
        self.frontiers += (block * ((end - k) // q + 1))[:end - k]
        self._frontier(end)[self.mask] = np.frombuffer(self.frontiers[end - q], dtype=float)
        self.seen.update(zip(self.frontiers[end - q:end], range(end - q, end)))
        self.level = end


def _fold_rows(rows: np.ndarray, first: int, n: int, d: int, lo: int) -> np.ndarray:
    """LCB fold at level n of the state-band rows first..(n+1)d-1 (a copy).

    Entries in column levels beyond n move into the same phase of level n.
    """
    count, width = rows.shape
    out = rows.copy()
    states = np.arange(first, first + count)
    cols = states[:, None] + np.arange(width) - lo
    r, c = np.nonzero(cols >= (n + 1) * d)
    np.add.at(out, (r, n * d + cols[r, c] % d - states[r] + lo), out[r, c])
    out[r, c] = 0.0
    return out


# Bottom-up back-substitution multiplies x by up to max(1, column sum / pivot)
# per state, and pi(0) / pi(top) can leave float range: 1.5^3200 over a
# 3200-level walk. Each chunk of the solve keeps that bound below 2^1000.
_CHUNK_BITS = 1000.0


def dtbtrs(*args, **kwargs):
    """scipy.linalg.lapack.dtbtrs, imported on the first solve (see the module docstring)."""
    from scipy.linalg.lapack import dtbtrs as banded_triangular_solve

    return banded_triangular_solve(*args, **kwargs)


def _solve_up(below: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Unnormalised stationary vector x(0..h) of a closed class with top state h.

    below[r, s] is the reduced entry (s+1+r, s) and pivots[s] the pivot of
    state s < h after bottom-up elimination. With x(h) = 1 the class solves
    pivot(s) x(s) = sum over r of below[r, s] x(s+1+r), a banded triangular
    system that LAPACK's dtbtrs solves with the entries below the diagonal
    negated. Each term it subtracts is then non-positive, so the solve stays
    subtraction-free. No class row has an entry in the column of a state
    off the class, so such a state gets x = 0; a zero pivot, which only such
    a state can have, is taken as 1.

    The solve runs in chunks from the top down, each in a power-of-two scale
    whose exponent carries over to the next chunk, and the scales are applied
    at the end, where what underflows is negligible against the largest x.
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
        # The chunk a..b-1 takes as many states as fit in _CHUNK_BITS, at
        # least one; its last lo states are fed by the ones solved above it.
        k = h - b
        a = h - max(int(np.searchsorted(bits, bits[k] + _CHUNK_BITS, side="right")) - 1, k + 1)
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


def _checked(rows, lower: int, pi: np.ndarray, deviation: float) -> BlockVector:
    """pi (flat) as a BlockVector, once its residual on a square corner's band passes.

    The band is `rows`, band row blocks in level order (see _left_product).
    GTH takes each diagonal entry as the complement of the rest of its row,
    so on rows that sum to 1 - e the exact solution has a residual of up to
    e. The bound is STATIONARY_RESIDUAL_TOLERANCE plus `deviation`, the
    band's largest |row sum - 1|, which is 1e-10 on exactly stochastic rows.
    """
    d = rows[0].shape[2]
    pi = pi.reshape(-1, d)
    bound = STATIONARY_RESIDUAL_TOLERANCE + float(deviation)
    residual = float(np.max(np.abs(_left_product(rows, lower, pi) - pi)))
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


def _level_vector(rows, lower: int, pivots, cols, deviation: float) -> BlockVector:
    """Checked stationary vector of a square corner from its bottom-up reduction.

    pivots[s] is the pivot and cols[s] the reduced column below the diagonal
    (see _upward_views) of every state s of the corner, and `rows` are its
    unreduced band row blocks in level order. The pivots decide the closed
    class (_class_top); only a zero pivot below the top state sends the
    corner to the slow path, which reads the classes off the band's graph.
    The class is solved by _solve_up, and the residual is checked on the
    unreduced band, whose largest |row sum - 1| is `deviation`.
    """
    h = _class_top(rows, lower, pivots)
    x = _solve_up(cols[:h].T, pivots[:h])
    pi = np.zeros(pivots.size)
    pi[:h + 1] = x / x.sum()
    return _checked(rows, lower, pi, deviation)


def _stationary_levels(P: BlockStochasticMatrix, levels) -> list[BlockVector]:
    """Stationary vectors of lcb_truncate(P, n) for n in levels, one sweep for all."""
    top = P.levels - 1
    for n in levels:
        if not (1 <= n <= top or n == top):
            raise ValueError(f"level {n} is outside the corner's levels 1..{top}")
    d = P.d
    W, lo, up = _state_band(P)
    pivots = np.zeros(P.levels * d)
    sweep = _SharedSweep(P, W, lo, up, pivots)
    cols = sweep.views[1]
    # deviation[k]: the largest |row sum - 1| of P's levels below k
    worst = np.abs(_row_sums(P.band) - 1.0).max(axis=1)
    deviation = np.maximum.accumulate(np.concatenate(([0.0], worst)))
    solved = {}
    for n in sorted(set(levels)):
        # Rows below `first` reach no column level beyond n, so they are P's
        # own rows, checked by P's constructor, in every truncation at n or
        # above, and so is their reduction. Its fill reaches no column level
        # beyond n either, so folding the reduced rows from `first` up equals
        # reducing the folded rows: only those (U+1)d states are swept here,
        # in place in W and pivots, and put back for the levels above. The
        # folded band rows go to a scratch of their own, and the residual
        # runs on P's rows below them plus the scratch.
        sweep.run_to(max(0, n - P.upper))
        k = sweep.level
        first, states = k * d, (n + 1) * d
        saved = W[first:states + lo].copy(), pivots[first:states].copy()
        folded = _fold_levels(P.band, P.lower, n, k)
        sums = _checked_row_sums(folded, d, first=k)
        W[first:states] = _fold_rows(W[first:states], first, n, d, lo)
        # Their columns have no entries in rows above level n; cols[first + i, r]
        # is the entry (first + i + 1 + r, first + i).
        m = states - first
        cols[first:states][np.add.outer(np.arange(m), np.arange(lo)) >= m - 1] = 0.0
        _sweep_up(sweep.views, first, states, pivots)
        solved[n] = _level_vector(
            (P.band[:k], folded),
            P.lower,
            pivots[:states],
            cols,
            max(deviation[k], float(np.max(np.abs(sums - 1.0)))),
        )
        W[first:states + lo], pivots[first:states] = saved
    return [solved[n] for n in levels]


def stationary(P: BlockStochasticMatrix, levels=None):
    """Stationary distribution of a finite stochastic corner, or of its truncations.

    With `levels`: a list with the stationary vector of lcb_truncate(P, n)
    for each n in levels, from one bottom-up GTH sweep (Masuyama's sequential
    update, Queueing Systems 2019). The states below level n - U are the
    same in every truncation at n or above, so the sweep eliminates them
    once for all levels, and copies the levels where it repeats bit for bit
    (see _SharedSweep). Each level then folds its last U+1 reduced levels in
    place, eliminates those states and puts them back afterwards: O((U+1) d)
    states of its own, with no corner of its own built. Its pivots decide its
    closed class (see _class_top), it back-substitutes (see _solve_up), and
    its residual is checked on the band lcb_truncate(P, n) would build: P's
    own rows below the fold and a scratch of the folded rows, with no copy
    of P's band. The results are bit for bit those of eliminating every
    state. A level may be any of 1..P.levels - 1 (0 on a one-level corner);
    within U of the top it folds P's folded rows again, as lcb_truncate(P, n)
    does. The levels are solved from the lowest up, and the first level that
    fails a check raises its error: with several reducible levels, the
    lowest one names its classes.

    Without `levels`: the vector of P itself, stationary(P, [P.levels - 1])[0],
    in O(levels (L+1)(U+1) d^3) time and O(levels (L+U+1) d^2) memory for a
    corner with L block levels below and U above the diagonal.

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


def phase_matrix(P, tol: float = CHECK_TOLERANCE) -> PhaseMatrix:
    """Phase-marginal kernel psi(i, j) = sum over l of p(k,i;l,j), any k.

    The row phase sums of a block-monotone chain do not depend on the level;
    this is verified across all stored levels within tol.

    Raises:
        PhaseStructureError: phase sums vary with the level beyond tol.
    """
    if hasattr(P, "phase_matrix"):
        return P.phase_matrix(tol)
    per_level = P.band.sum(axis=1)
    spread = float(np.max(np.abs(per_level - per_level[0]))) if P.levels > 1 else 0.0
    if spread > tol:
        raise PhaseStructureError(
            f"row phase sums vary across levels by {spread:.3e} (> {tol:g})"
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
