"""Coupled trajectory simulation via inverse-transform sampling.

Two constructions driven by shared uniform streams (S for phases, U for
levels):

- monotone coupling: two copies of one block-monotone chain started at
  ordered levels stay ordered pathwise;
- dominance coupling: a chain and a block-wise dominating chain with the
  same phase kernel stay ordered pathwise.

Each step first draws the shared phase from the phase kernel's CDF, then
each chain draws its own level from the conditional CDF of levels given the
phase transition. Ordering along every sampled path is asserted, not just
observed: a violation raises, because the constructions make it impossible
up to a precondition failure or a bug.

The level CDFs are taken over the L+U+1 band slots of each row, never over
all levels: the columns outside the band hold exact zeros, so the running
sums are those of the full row, and every uniform in (0, 1) picks the level
the full-row CDF picks. No sampler builds the dense N x N view of a corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_matrix import (
    BlockStochasticMatrix,
    PhaseMatrix,
    block_dominates,
    is_block_monotone,
    phase_matrix,
)

__all__ = [
    "CoupledEnsemble",
    "OrderingViolationError",
    "phase_step",
    "level_step",
    "run_coupled_monotone_batch",
    "run_coupled_dominance_batch",
]

PHASE_AGREEMENT_TOLERANCE = 1e-9


class OrderingViolationError(RuntimeError):
    """A coupled pair of paths broke the pathwise level ordering."""

    def __init__(self, step: int, path: int, low: int, high: int):
        self.step = step
        self.path = path
        super().__init__(
            f"pathwise ordering violated at step {step} (path {path}): {low} > {high}"
        )


@dataclass(frozen=True, eq=False)
class CoupledEnsemble:
    """Batch of independent coupled pairs sharing a phase sequence per path.

    Arrays are (paths, steps+1). levels_low/levels_high hold the two chains'
    levels; for the dominance coupling "low" is the dominated chain. hit_top
    flags that some step touched a chain's top stored level, where a
    truncated corner distorts the infinite chain it stands in for; it is the
    only report of that contact, and nothing is warned.
    """

    kind: str
    seed: int
    phases: np.ndarray
    levels_low: np.ndarray
    levels_high: np.ndarray
    hit_top: bool = False

    @property
    def paths(self) -> int:
        return self.phases.shape[0]

    @property
    def steps(self) -> int:
        return self.phases.shape[1] - 1


def _last_with_mass(psi: PhaseMatrix) -> np.ndarray:
    """Per row i, the last phase j with psi(i, j) > 0: the draw for an s past the row's total."""
    return psi.d - 1 - np.argmax(psi.psi[:, ::-1] > 0.0, axis=1)


def phase_step(psi: PhaseMatrix, i: int, s: float) -> int:
    """Inverse-CDF phase draw: smallest j with sum_{j' <= j} psi(i, j') >= s.

    Rows may sum to just under 1: an s past the total draws the last phase with mass.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie strictly between 0 and 1")
    cdf = np.cumsum(psi.psi[i])
    return min(int(np.searchsorted(cdf, s, side="left")), int(_last_with_mass(psi)[i]))


def level_step(P: BlockStochasticMatrix, k: int, i: int, j: int, u: float) -> int:
    """Inverse-CDF level draw conditional on the phase transition i -> j.

    Returns the smallest l with sum_{m <= l} p(k,i;m,j) / psi(i,j) >= u,
    read off row k's band slots.

    Raises:
        ValueError: the (i, j) phase transition has probability zero in
            row (k, i), so conditioning on it is a caller bug.
    """
    if not 0.0 < u < 1.0:
        raise ValueError("u must lie strictly between 0 and 1")
    row = P.band[k, :, i, j]
    cdf = np.cumsum(row)
    total = float(cdf[-1])
    if total <= 0.0:
        raise ValueError(f"phase transition {i} -> {j} has probability zero in row (level {k})")
    slot = int(np.searchsorted(cdf / total, u, side="left"))
    return k - P.lower + min(slot, int(np.max(np.nonzero(row)[0])))


class _CouplingKernel:
    """Precomputed conditional level CDFs of one square corner, on its band."""

    def __init__(self, P: BlockStochasticMatrix):
        if not P.square:
            raise ValueError("coupling needs a square folded corner; apply lcb_truncate first")
        self.levels = P.levels
        self.d = P.d
        # cond[k, i, j, o]: CDF over the band slots of row k given phase move
        # i->j; slot o is column level k - lower + o.
        cond = np.cumsum(np.transpose(P.band, (0, 2, 3, 1)), axis=3)
        totals = cond[..., -1].copy()
        valid = totals > 0.0
        cond /= np.where(valid, totals, 1.0)[..., None]
        # Leading zero-mass slots (including those left of column 0) count as
        # passed for every u >= 0, so even u = 0 lands on a level with mass.
        cond[cond == 0.0] = -1.0
        cond[~valid] = 1.0  # never selected: the phase draw skips zero-mass phases
        self.cond = cond
        # Column of slot 0; a zero-mass row draws level 0, as a full-row CDF of ones would.
        self.first = np.where(valid, np.arange(P.levels)[:, None, None] - P.lower, 0)

    def level_inverse(self, k: np.ndarray, i: np.ndarray, j: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.first[k, i, j] + (self.cond[k, i, j] < u[:, None]).sum(axis=1)


def _run_pair(
    kind: str,
    low: _CouplingKernel,
    high: _CouplingKernel,
    psi: PhaseMatrix,
    x0_low: int,
    x0_high: int,
    j0: int,
    T: int,
    seed: int,
    paths: int,
) -> CoupledEnsemble:
    for name, x0, kernel in (("low", x0_low, low), ("high", x0_high, high)):
        if not 0 <= x0 < kernel.levels:
            raise ValueError(f"{name} start level {x0} outside stored levels 0..{kernel.levels - 1}")
    if not 0 <= j0 < psi.d:
        raise ValueError(f"start phase {j0} outside 0..{psi.d - 1}")
    if x0_low > x0_high:
        raise ValueError("start levels must satisfy x0_low <= x0_high")
    if T < 1 or paths < 1:
        raise ValueError("T and paths must be >= 1")

    phase_cdf = np.cumsum(psi.psi, axis=1)
    last = _last_with_mass(psi)
    streams = np.random.SeedSequence(seed).spawn(2)
    u_rng = np.random.default_rng(streams[0])
    s_rng = np.random.default_rng(streams[1])

    phases = np.empty((T + 1, paths), dtype=np.int64)
    lev_low = np.empty((T + 1, paths), dtype=np.int64)
    lev_high = np.empty((T + 1, paths), dtype=np.int64)
    phases[0] = j0
    lev_low[0] = x0_low
    lev_high[0] = x0_high
    # one (T, paths) draw is the same stream as T draws of `paths` uniforms
    s = s_rng.random((T, paths))
    u = u_rng.random((T, paths))
    for t in range(1, T + 1):
        j_prev = phases[t - 1]
        j_new = np.minimum((phase_cdf[j_prev] < s[t - 1][:, None]).sum(axis=1), last[j_prev])
        lev_low[t] = low.level_inverse(lev_low[t - 1], j_prev, j_new, u[t - 1])
        lev_high[t] = high.level_inverse(lev_high[t - 1], j_prev, j_new, u[t - 1])
        phases[t] = j_new

    bad = np.argwhere(lev_low > lev_high)
    if bad.size:
        t, p = map(int, bad[0])
        raise OrderingViolationError(t, p, int(lev_low[t, p]), int(lev_high[t, p]))
    hit_top = bool(np.any(lev_low == low.levels - 1) or np.any(lev_high == high.levels - 1))
    return CoupledEnsemble(
        kind=kind,
        seed=seed,
        phases=phases.T.copy(),
        levels_low=lev_low.T.copy(),
        levels_high=lev_high.T.copy(),
        hit_top=hit_top,
    )


def run_coupled_monotone_batch(
    P: BlockStochasticMatrix,
    x0_low: int,
    x0_high: int,
    j0: int,
    T: int,
    seed: int,
    paths: int = 1,
) -> CoupledEnsemble:
    """Coupled pairs of one block-monotone chain from two ordered starts.

    Both copies consume the same uniform streams, so their levels stay
    ordered at every step; any violation raises OrderingViolationError.
    """
    if not is_block_monotone(P):
        raise ValueError("monotone coupling needs a block-monotone matrix")
    psi = phase_matrix(P)
    kernel = _CouplingKernel(P)
    return _run_pair("monotone", kernel, kernel, psi, x0_low, x0_high, j0, T, seed, paths)


def run_coupled_dominance_batch(
    P: BlockStochasticMatrix,
    Ptilde: BlockStochasticMatrix,
    x0: int,
    x0_tilde: int,
    j0: int,
    T: int,
    seed: int,
    paths: int = 1,
) -> CoupledEnsemble:
    """Coupled pairs of a chain and a block-wise dominating chain.

    Preconditions: P block-wise dominated by Ptilde, at least one of the two
    block-monotone, and identical phase kernels (checked within tolerance).
    """
    if P.d != Ptilde.d:
        raise ValueError("block size mismatch")
    if not block_dominates(P, Ptilde):
        raise ValueError("dominance coupling needs P block-wise dominated by Ptilde")
    if not (is_block_monotone(P) or is_block_monotone(Ptilde)):
        raise ValueError("dominance coupling needs at least one block-monotone chain")
    psi = phase_matrix(P)
    psi_tilde = phase_matrix(Ptilde)
    if float(np.max(np.abs(psi.psi - psi_tilde.psi))) > PHASE_AGREEMENT_TOLERANCE:
        raise ValueError("the two chains have different phase kernels")
    return _run_pair(
        "dominance",
        _CouplingKernel(P),
        _CouplingKernel(Ptilde),
        psi,
        x0,
        x0_tilde,
        j0,
        T,
        seed,
        paths,
    )

