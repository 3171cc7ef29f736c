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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import sparse
from scipy.sparse import csgraph

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


class BlockStochasticMatrix:
    """Finite corner of a block-partitioned (sub)stochastic matrix, stored as a block band.

    Rows are levels 0..levels-1 and columns levels 0..col_levels-1 of d x d
    blocks. Only the blocks within `lower` levels below and `upper` levels
    above the diagonal are stored: band[k, o] is the block at row level k,
    column level k - lower + o, and the band slots outside the column range
    are zero. Rectangular corners (col_levels > levels) hold complete rows of
    a larger matrix whose remaining rows, if any, are described by `tail` (a
    GI/G/1-type model object that can regenerate them).

    Build from `band` with its `lower` width and `col_levels` (default: a
    square corner), or from a sparse block map with from_blocks. The band is
    the only storage, and no library code builds an N x N view of a corner.
    """

    def __init__(
        self,
        d: int,
        band,
        lower: int = 0,
        col_levels: int | None = None,
        substochastic: bool = False,
        tail: object | None = None,
        row_tolerance: float = ROW_SUM_TOLERANCE,
    ):
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
        self.substochastic = substochastic
        self.tail = tail
        self.row_tolerance = row_tolerance
        self._values = None
        self._check_rows()

    def _check_rows(self):
        band = self.band
        if not np.all(np.isfinite(band)):
            raise ValueError("matrix entries must be finite")
        mins = band.min(axis=(1, 3)).reshape(-1)
        if np.any(mins < 0):
            k, i = divmod(int(np.argmin(mins)), self.d)
            raise ValueError(f"negative entry in row (level {k}, phase {i})")
        sums = band.sum(axis=(1, 3)).reshape(-1)
        if self.substochastic:
            bad = sums > 1.0 + self.row_tolerance
        else:
            bad = np.abs(sums - 1.0) > self.row_tolerance
        if np.any(bad):
            state = int(np.argmax(bad))
            raise ValueError(
                f"row (level {state // self.d}, phase {state % self.d}) sums to "
                f"{sums[state]:.12g}, outside tolerance {self.row_tolerance:g}"
            )

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
        **kwargs,
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
        return cls(d, band, lower, col_levels, **kwargs)


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
    """Phase-marginal transition kernel with its stationary vector."""

    psi: np.ndarray
    varpi: np.ndarray | None = None

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float)
        object.__setattr__(self, "psi", psi)
        if psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
            raise ValueError("psi must be square")
        if np.any(psi < 0) or np.any(np.abs(psi.sum(axis=1) - 1.0) > ROW_SUM_TOLERANCE):
            raise ValueError("psi must be a stochastic matrix")
        if self.varpi is not None:
            varpi = np.asarray(self.varpi, dtype=float)
            object.__setattr__(self, "varpi", varpi)
            if varpi.shape != (psi.shape[0],):
                raise ValueError("varpi has wrong shape")
            if np.any(varpi < -1e-12) or abs(varpi.sum() - 1.0) > 1e-8:
                raise ValueError("varpi must be a probability vector")
            if np.max(np.abs(varpi @ psi - varpi)) > 1e-8:
                raise ValueError("varpi is not stationary for psi")

    @property
    def d(self) -> int:
        return self.psi.shape[0]


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
    tol. GI/G/1-type model objects are checked analytically via their own
    method (their repeating rows cannot be enumerated). Stored corners are
    checked on their band.
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
    least n+1 complete rows or a GI/G/1-type model object (exact analytic
    fold). The fold stays inside the band: a row's column-n slot is at most
    `upper` levels above it whenever the row has mass at or beyond n.

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
        if P.tail is not None:
            return P.tail.truncate(n)
        raise ValueError(
            f"n={n} exceeds the {P.levels} stored levels and no tail descriptor is attached"
        )
    band = P.band[: n + 1].copy()
    width = band.shape[1]
    beyond = _slot_columns(n + 1, width, P.lower) >= n
    fold = np.where(beyond[:, :, None, None], band, 0.0).sum(axis=1)
    band[beyond] = 0.0
    k = np.arange(max(0, n - P.upper), n + 1)
    band[k, n - k + P.lower] = fold[k]
    return BlockStochasticMatrix(
        d=P.d,
        band=band,
        lower=P.lower,
        substochastic=P.substochastic,
        row_tolerance=P.row_tolerance,
    )


def _state_band(P: BlockStochasticMatrix) -> tuple[np.ndarray, int, int]:
    """Padded state-level band (W, lo, up) of a square corner.

    State s = k*d + i keeps columns s-lo..s+up: W[up + s, t - s + lo] is the
    entry (s, t). The first `up` rows are zero padding, so the strided views
    of _gth_band never leave the array.
    """
    d, width = P.d, P.band.shape[1]
    lo = P.lower * d + d - 1
    up = P.upper * d + d - 1
    W = np.zeros((P.levels * d + up, lo + up + 1))
    o = np.arange(width)[:, None, None]
    i = np.arange(d)[None, :, None]
    j = np.arange(d)[None, None, :]
    rows = np.broadcast_to(i, (width, d, d))
    W[up:].reshape(P.levels, d, lo + up + 1)[:, rows, o * d + j - i + d - 1] = P.band
    return W, lo, up


def _band_closed_classes(W: np.ndarray, lo: int) -> list[np.ndarray]:
    """Increasing state lists of the closed classes of an unpadded state band."""
    states = W.shape[0]
    rows, slots = np.nonzero(W)
    cols = rows + slots - lo
    graph = sparse.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(states, states))
    n_comp, labels = csgraph.connected_components(graph, directed=True, connection="strong")
    is_open = np.zeros(n_comp, dtype=bool)
    crossing = labels[rows] != labels[cols]
    is_open[labels[rows[crossing]]] = True
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    return [members[c] for c in np.nonzero(~is_open)[0]]


def closed_classes(P: BlockStochasticMatrix) -> list[np.ndarray]:
    """Closed communicating classes of a square corner, as flat state lists.

    State (k, i) is k*d + i; each list is increasing. The pattern graph is
    read off the band, so the cost is linear in the number of levels.
    """
    if not P.square:
        raise ValueError("closed classes need a square corner; apply lcb_truncate first")
    W, lo, up = _state_band(P)
    return _band_closed_classes(W[up:], lo)


def _gth_band(W: np.ndarray, lo: int, up: int, states: list[int], d: int) -> np.ndarray:
    """Stationary vector of one closed class by GTH state reduction on the band.

    Subtraction-free top-down elimination (Grassmann, Taksar & Heyman 1985),
    in place on the padded band from _state_band. Eliminating state s adds
    col(s) row(s) / sum(row(s)) to the entries (i, j), s-up <= i < s and
    s-lo <= j < s: all inside the band, so the band never grows. A skewed
    strided view exposes each of those windows as a plain 2-D array.

    States outside `states` are skipped. A closed class has no entries
    leading out of it, so its rows reduce exactly as in the class's own
    submatrix; skipped rows pick up updates but get zero mass.
    """
    total_states = W.shape[0] - up
    width = lo + up + 1
    flat = W.reshape(-1)
    step = flat.strides[0]
    rows = W[up:, :lo]  # rows[s, c] = (s, s - lo + c)
    cols = as_strided(flat[lo + up:], (total_states, up), (width * step, (width - 1) * step))
    windows = as_strided(
        flat[up:], (total_states, up, lo), (width * step, (width - 1) * step, step)
    )  # windows[s, r, c] = (s - up + r, s - lo + c); cols[s, r] = (s - up + r, s)
    trim = np.empty(total_states)
    for s in reversed(states[1:]):
        # Near the top-left corner the band reaches past state 0: clip to the
        # real columns, so a short full kernel reduces exactly as a dense one.
        row = rows[s] if s >= lo else rows[s, lo - s:]
        total = row.sum()
        if total <= 0.0:
            raise StationarySolveError(
                f"state (level {s // d}, phase {s % d}) cannot reach lower states inside "
                "its class (numerical degeneracy)"
            )
        trim[s] = total
        window = windows[s] if s >= lo else windows[s, :, lo - s:]
        window += np.multiply.outer(cols[s], row / total)
    pi = np.zeros(total_states)
    pi[states[0]] = 1.0
    for s in states[1:]:
        if s >= up:
            pi[s] = (pi[s - up:s] @ cols[s]) / trim[s]
        else:
            pi[s] = (pi[:s] @ cols[s, up - s:]) / trim[s]
    return pi / pi.sum()


def _left_product(P: BlockStochasticMatrix, x: np.ndarray) -> np.ndarray:
    """x P for x of shape (levels, d), computed on the band; shape (col_levels, d)."""
    width = P.band.shape[1]
    terms = np.einsum("ki,koij->koj", x, P.band)
    out = np.zeros((max(P.levels + width - 1, P.lower + P.col_levels), P.d))
    for o in range(width):
        out[o:o + P.levels] += terms[:, o]
    return out[P.lower:P.lower + P.col_levels]


def _right_product(P: BlockStochasticMatrix, x: np.ndarray) -> np.ndarray:
    """P x for x of shape (col_levels, d), computed on the band; shape (levels, d)."""
    width = P.band.shape[1]
    padded = np.zeros((max(P.levels + width - 1, P.lower + P.col_levels), P.d))
    padded[P.lower:P.lower + P.col_levels] = x
    out = np.zeros((P.levels, P.d))
    for o in range(width):
        out += np.einsum("kij,kj->ki", P.band[:, o], padded[o:o + P.levels])
    return out


def stationary(
    P: BlockStochasticMatrix, residual_tol: float = STATIONARY_RESIDUAL_TOLERANCE
) -> BlockVector:
    """Stationary distribution of a finite stochastic corner.

    Closed-class check, GTH elimination and residual all run on the band:
    O(levels (L+U)^2 d^3) time and O(levels (L+U) d^2) memory for a corner
    with L block levels below and U above the diagonal.

    Args:
        P: square, stochastic BlockStochasticMatrix (truncate first if needed).
        residual_tol: maximum allowed max-norm residual of pi*P - pi.

    Returns:
        Probability BlockVector; states outside the unique closed class get 0.

    Raises:
        MultipleClosedClassesError: more than one closed class (lists them).
        ValueError: non-square or substochastic input.
        StationarySolveError: a zero pivot or a failed residual check.
    """
    if not P.square:
        raise ValueError("stationary needs a square corner; apply lcb_truncate first")
    if P.substochastic:
        raise ValueError("stationary needs stochastic rows")
    d = P.d
    W, lo, up = _state_band(P)
    classes = _band_closed_classes(W[up:], lo)
    if len(classes) > 1:
        raise MultipleClosedClassesError(
            [[(int(s) // d, int(s) % d) for s in cls] for cls in classes]
        )
    pi = _gth_band(W, lo, up, classes[0].tolist(), d).reshape(P.levels, d)
    residual = float(np.max(np.abs(_left_product(P, pi) - pi)))
    if residual > residual_tol:
        raise StationarySolveError(f"stationary residual {residual:.3e} exceeds {residual_tol:g}")
    return BlockVector(d, pi)


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
    this is verified across all stored levels within tol. Also solves for the
    stationary phase vector.

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
    psi = per_level[0]
    return PhaseMatrix(psi=psi, varpi=_kernel_stationary(psi, P.row_tolerance))


def _kernel_stationary(psi: np.ndarray, row_tolerance: float) -> np.ndarray:
    """Stationary vector of a d x d stochastic kernel: a one-phase corner with d levels."""
    entries = {(i, j): [[p]] for (i, j), p in np.ndenumerate(psi)}
    P = BlockStochasticMatrix.from_blocks(1, entries, row_tolerance=row_tolerance)
    return stationary(P).flat


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
        x = _left_product(P, x)
    return BlockVector(P.d, x)
