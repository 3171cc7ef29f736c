"""GI/G/1-type chains: spectral analysis and drift-certificate construction.

Block layout over levels (block size d, finitely supported sequences):

    row 0:      B(0)    B(1)    B(2)   ...
    row k >= 1: B(-k)   A(1-k)  A(2-k) ...      (column 0, then Toeplitz)

The transform of the Toeplitz part, ahat(z) = sum_k z^k A(k), has a Perron
eigenvalue delta(z) that dips below 1 for some z = alpha > 1 exactly when the
mean level drift is negative. The weight vector alpha^k * v(alpha) then
satisfies a geometric drift inequality up to finitely many boundary rows,
which a boundary lift turns into a certificate for every row.

The module needs numpy only. The root of the delta slope comes from a port
of scipy's brentq (_brentq below), because importing scipy.optimize costs
about 0.4 s per process on top of numpy's 0.1 s, several times the work of
a `validate` or `bound` run. Irreducibility is read off the closed classes
of block_matrix's Tarjan search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .block_matrix import (
    CHECK_TOLERANCE,
    ROW_SUM_TOLERANCE,
    BlockStochasticMatrix,
    BlockVector,
    PhaseMatrix,
    StationarySolveError,
    _checked,
    _closed_classes,
    _fold_levels,
    _kernel_stationary,
    _row_sums,
    is_block_monotone,
    phase_matrix,
)
from .drift_bounds import (
    VERIFY_TOLERANCE,
    CertificateCheck,
    DriftCertificate,
    GeometricTail,
    lift_certificate,
    verify_certificate,
)

__all__ = [
    "GIG1Model",
    "GIG1DriftData",
    "a_hat",
    "perron",
    "mean_drift",
    "find_alpha",
    "certificate_for_model",
    "assemble",
]

# Floor for the boundary constant so it stays strictly positive even when the
# boundary rows already satisfy the pure drift inequality.
B_PRIME_FLOOR = 1e-15

# Descriptive certificate-path labels (also emitted by the CLI).
PATH_SKIP_FREE = "skip-free-shortcut"
PATH_BOUNDARY_LIFT = "boundary-lift"

# Upper end of the doubling bracket in find_alpha. delta(z) can fall for ever
# (U_A = 0, or every up-move forced straight back down), and then it has no
# finite minimiser. Past 2^30 the weights alpha^k leave float range by level
# 35, so a larger alpha would not give a usable certificate anyway.
_ALPHA_LIMIT = 2.0 ** 30

# Largest Perron eigen-residual accepted, relative to max(1, delta) * max(v).
PERRON_TOLERANCE = 1e-12

# scipy.optimize.brentq's relative tolerance and iteration limit.
_BRENT_RTOL = 4.0 * np.finfo(float).eps
_BRENT_MAXITER = 100

# The largest array a model builds, in bytes: the band of its complete rows,
# from which its corners and the residual check of its stationary law are
# built. Larger input is refused before anything is allocated.
MAX_ARRAY_BYTES = 2 ** 27

# Steps of the logarithmic reduction and of the doubling of R's powers. Step
# t covers 2^t groups of levels, so 64 steps reach past any level there is.
_DOUBLING_STEPS = 64

# The reduction stops once the mass that has not returned a group down is
# below this in every row.
_UNRETURNED = np.finfo(float).eps ** 2

# The doubling of R's powers stops at a power whose row sums are at most
# this: the powers after it add at most its square, relatively, to the sums.
_NEGLIGIBLE = 2.0 ** -30


def _as_block_map(raw: dict, d: int, name: str) -> dict[int, np.ndarray]:
    out = {}
    for offset in sorted(raw, key=int):  # sums over the blocks add in one order
        arr = np.asarray(raw[offset], dtype=float)
        if arr.shape != (d, d):
            raise ValueError(f"{name}({offset}) has shape {arr.shape}, expected ({d},{d})")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError(f"{name}({offset}) must be finite and non-negative")
        if np.any(arr > 0):
            out[int(offset)] = arr
    return out


def _completed(N: np.ndarray, leaving: np.ndarray) -> np.ndarray:
    """I - N with its diagonal completed as GTH completes a row.

    The diagonal entry of row i is leaving[i] plus the row's other entries
    of N, so the rows of the result sum to `leaving`, the mass that leaves,
    and no diagonal entry is a difference. N's own diagonal is not read.
    """
    M = -N
    np.fill_diagonal(M, 0.0)
    np.fill_diagonal(M, leaving - M.sum(axis=1))
    return M


def _solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """M^-1 rhs for a completed M (an M-matrix) and rhs >= 0.

    The exact solution is non-negative; a rounding below 0 is set to 0.
    """
    try:
        return np.maximum(np.linalg.solve(M, rhs), 0.0)
    except np.linalg.LinAlgError as error:
        raise StationarySolveError(f"the structured solve of the stationary law failed: {error}")


def _is_irreducible(pattern: np.ndarray) -> bool:
    """True when a square 0/1 pattern has one closed class holding all its states."""
    return _closed_classes(pattern[None, None])[0].size == len(pattern)


@dataclass(frozen=True, eq=False)
class GIG1Model:
    """Finitely supported block sequences {A(k)}, {B(k)} of a GI/G/1-type chain.

    A maps Toeplitz offsets (column minus row level) to d x d blocks; B maps
    boundary offsets: B(l), l >= 0 are the row-0 blocks and B(-k), k >= 1 the
    column-0 blocks of rows k >= 1. All-zero blocks may be omitted; offsets
    are kept in increasing order. Rows are checked, ordered and folded by
    the block_matrix code on the complete rows that _band writes.
    """

    d: int
    A: dict[int, np.ndarray]
    B: dict[int, np.ndarray]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("block size d must be >= 1")
        object.__setattr__(self, "A", _as_block_map(self.A, self.d, "A"))
        object.__setattr__(self, "B", _as_block_map(self.B, self.d, "B"))
        if not self.A:
            raise ValueError("A-sequence has no nonzero block")
        a_total = self.a_sum()
        if np.max(np.abs(a_total.sum(axis=1) - 1.0)) > ROW_SUM_TOLERANCE:
            raise ValueError("the A-blocks must sum to a stochastic matrix")
        if not _is_irreducible(a_total > 0):
            raise ValueError("the summed A-matrix must be irreducible")
        self.boundary_corner  # its constructor checks that rows 0..k_star are stochastic

    @property
    def L_A(self) -> int:
        return max((-j for j in self.A if j < 0), default=0)

    @property
    def U_A(self) -> int:
        return max((j for j in self.A if j > 0), default=0)

    @property
    def L_B(self) -> int:
        return max((-j for j in self.B if j < 0), default=0)

    @property
    def U_B(self) -> int:
        return max((j for j in self.B if j >= 0), default=0)

    @property
    def k_star(self) -> int:
        """First level from which all rows are pure Toeplitz: max(L_A, L_B) + 1."""
        return max(self.L_A, self.L_B) + 1

    def A_block(self, j: int) -> np.ndarray:
        blk = self.A.get(j)
        return blk.copy() if blk is not None else np.zeros((self.d, self.d))

    def B_block(self, j: int) -> np.ndarray:
        blk = self.B.get(j)
        return blk.copy() if blk is not None else np.zeros((self.d, self.d))

    def a_sum(self) -> np.ndarray:
        return sum(self.A.values(), np.zeros((self.d, self.d)))

    @cached_property
    def a_stationary(self) -> np.ndarray:
        """Stationary vector of the summed A-kernel, solved on first use."""
        return _kernel_stationary(self.a_sum())

    @cached_property
    def boundary_corner(self) -> BlockStochasticMatrix:
        """Complete rows 0..k_star: the rows that decide row sums, order and phase sums.

        The pure Toeplitz rows from k_star on sum to the A-sum and are ordered.
        """
        return assemble(self, self.k_star + 1)

    def is_block_monotone(self) -> bool:
        """Block-monotonicity of the infinite chain, decided on boundary_corner."""
        return is_block_monotone(self.boundary_corner)

    def phase_matrix(self) -> PhaseMatrix:
        """Phase-marginal kernel of the infinite chain, checked on boundary_corner."""
        return phase_matrix(self.boundary_corner)

    def mg1_pattern_mismatches(self) -> list[str]:
        """Deviations from the skip-free-downward pattern, empty when it matches.

        The pattern: B(-1) = A(-1), no deeper column-0 or A-blocks, and
        B(l) = A(l-1) for every l >= 0, each within CHECK_TOLERANCE.
        """
        problems = []
        if self.L_A > 1 or self.L_B > 1:
            problems.append("downward jumps deeper than one level")
        if np.max(np.abs(self.B_block(-1) - self.A_block(-1))) > CHECK_TOLERANCE:
            problems.append("B(-1) != A(-1)")
        for l in range(0, max(self.U_B, self.U_A + 1) + 1):
            if np.max(np.abs(self.B_block(l) - self.A_block(l - 1))) > CHECK_TOLERANCE:
                problems.append(f"B({l}) != A({l - 1})")
        return problems

    def _band(self, levels: int) -> tuple[np.ndarray, int]:
        """Band and lower width of the complete rows 0..levels-1.

        Raises:
            ValueError: the band would take more than MAX_ARRAY_BYTES.
        """
        L = max(self.L_A, self.L_B)
        shape = (levels, L + max(self.U_A, self.U_B) + 1, self.d, self.d)
        size = 8 * levels * shape[1] * self.d * self.d
        if size > MAX_ARRAY_BYTES:
            raise ValueError(
                f"the band of {levels} levels needs {size} bytes, above the limit of "
                f"{MAX_ARRAY_BYTES} bytes (MAX_ARRAY_BYTES)"
            )
        band = np.zeros(shape)
        for l, blk in self.B.items():
            if l >= 0:
                band[0, L + l] = blk
            elif -l < levels:
                band[-l, L + l] = blk  # column 0 of row -l
        for j, blk in self.A.items():
            band[max(1, 1 - j):, L + j] = blk
        return band, L

    def truncate(self, n: int) -> BlockStochasticMatrix:
        """Exact LCB truncation at level n: complete rows 0..n, folded as lcb_truncate folds."""
        if n < 1:
            raise ValueError("truncation level n must be >= 1")
        band, L = self._band(n + 1)
        first = max(0, n - max(self.U_A, self.U_B))
        band[first:] = _fold_levels(band[first:n + 1], L)
        return BlockStochasticMatrix(d=self.d, band=band, lower=L)

    def _group_blocks(self):
        """The chain in groups of g levels: (g, B0, B1, down, level, up), each g d x g d.

        Group i holds levels i g..i g + g - 1. With g at least k_star, U_A and
        (U_B + 1) / 2, every row moves at most one group, and the rows of the
        groups from 1 on are pure Toeplitz: a level-independent
        quasi-birth-death chain with the boundary blocks B0 (group 0 to 0)
        and B1 (0 to 1), and down, level and up from every other group.
        """
        d, L = self.d, max(self.L_A, self.L_B)
        g = max(self.k_star, self.U_A, self.U_B // 2 + 1)
        band, _ = self._band(2 * g)
        rows = np.zeros((2 * g, d, 3 * g, d))
        k = np.arange(2 * g)
        for o in range(band.shape[1]):
            cols = k - L + o
            keep = (cols >= 0) & (cols < 3 * g)
            rows[k[keep], :, cols[keep], :] = band[k[keep], o]
        m = g * d
        rows = rows.reshape(2 * m, 3 * m)
        return g, rows[:m, :m], rows[:m, m:2 * m], rows[m:, :m], rows[m:, m:2 * m], rows[m:, 2 * m:]

    def stationary_law(self, through: int) -> tuple[BlockVector, float]:
        """pi(0..through) of the infinite chain, and its mass above level `through`.

        In groups of levels the chain is a quasi-birth-death chain
        (_group_blocks). Its G, the first-passage matrix from a group to the
        one below, comes from logarithmic reduction (Latouche & Ramaswami,
        J. Appl. Probab. 30, 1993), and its rate matrix is R = up (I - U)^-1
        with U = level + up G. Group 0 is solved on its censored chain
        B0 + B1 G by _kernel_stationary's subtraction-free GTH, and the
        groups above it by the matrix-geometric form pi_1 = pi_0 B1 (I - U)^-1,
        pi_(i+1) = pi_i R (Bini, Latouche & Meini, Numerical Methods for
        Structured Markov Chains, 2005). Each I - X in these solves has its
        diagonal completed as GTH completes a row (_completed), so rows
        short of 1 are solved as the chain whose diagonal completes them.
        The groups are formed by doubling, with R^(2t) = R^t R^t, and
        the mass of the groups beyond the last one formed is
        pi_i sum_k R^k 1, with sum_k R^k 1 = prod_t (I + R^(2^t)) 1. So every
        mass is a sum of non-negative terms, and nothing is taken as 1 minus
        a sum.

        The levels through `through` + L (L = max(L_A, L_B)) are formed, and
        the residual of levels 0..through is checked on the model's complete
        rows as stationary checks a corner's. The band of those rows is the
        largest array built, and _band refuses it above MAX_ARRAY_BYTES
        before anything is allocated.

        Raises:
            ValueError: a negative level, or a band above MAX_ARRAY_BYTES.
            StationarySolveError: a reduction or a doubling that does not
                converge within _DOUBLING_STEPS steps, or a residual above
                the bound.
        """
        if through < 0:
            raise ValueError("the stationary law is formed through a level >= 0")
        d, L = self.d, max(self.L_A, self.L_B)
        g, B0, B1, down, level, up = self._group_blocks()
        groups = -(-(through + L + 1) // g)
        band, _ = self._band(groups * g)
        m = g * d

        halves = _solve(_completed(level, (down + up).sum(axis=1)), np.hstack((down, up)))
        H0, H1 = halves[:, :m], halves[:, m:]
        G, T = H0, H1  # T 1 = 1 - G 1, the mass that has not returned a group down
        for _ in range(_DOUBLING_STEPS):
            if T.sum(axis=1).max() <= _UNRETURNED:
                break
            D0, D1 = H0 @ H0, H1 @ H1
            leaving = D0.sum(axis=1) + D1.sum(axis=1)
            halves = _solve(_completed(H0 @ H1 + H1 @ H0, leaving), np.hstack((D0, D1)))
            H0, H1 = halves[:, :m], halves[:, m:]
            G, T = G + T @ H0, T @ H1
        else:
            raise StationarySolveError("logarithmic reduction did not converge")
        # the rows of I - U sum to down 1 + up T 1; R and B1 (I - U)^-1 in one solve
        I_U = _completed(level + up @ G, down.sum(axis=1) + up @ T.sum(axis=1))
        rates = _solve(I_U.T, np.vstack((up, B1)).T).T
        R, R0 = rates[:m], rates[m:]
        pi0 = _kernel_stationary(B0 + B1 @ G)

        above = (pi0 @ R0)[None]  # rows pi_1, pi_2, ...
        sums = np.ones(m)  # sum_k R^k 1, one doubling at a time
        power = R
        for _ in range(_DOUBLING_STEPS):
            if len(above) < groups:
                above = np.concatenate((above, above @ power))
            sums = sums + power @ sums
            if len(above) >= groups and power.sum(axis=1).max() <= _NEGLIGIBLE:
                break
            power = power @ power
        else:
            raise StationarySolveError("the powers of the rate matrix R do not vanish")
        total = pi0.sum() + above[0] @ sums
        pi = np.concatenate((pi0[None], above[:groups - 1])).reshape(-1, d) / total
        beyond = float(above[groups - 1] @ sums) / total
        # rows 0..k_star hold every row sum: the rows above repeat row k_star's
        deviation = np.abs(_row_sums(self.boundary_corner.band) - 1.0).max()
        pi = _checked((band,), L, pi, deviation, levels=through + 1).entries
        return BlockVector(d, pi[:through + 1]), float(pi[through + 1:].sum() + beyond)

    def verify_drift(self, cert: DriftCertificate) -> CertificateCheck:
        """Drift-inequality check covering all infinitely many rows.

        Rows 0..k_tail are checked row by row on an assembled corner, where
        k_tail is the first pure Toeplitz row whose weights all come from the
        closed form; the rows above it are checked in closed form (see
        _verify_tail_drift), so the check is exact for every level despite
        the finite corner.
        """
        if cert.tail is None:
            raise ValueError(
                "certificate lacks a closed-form tail; cannot cover the repeating rows"
            )
        k_tail = max(self.k_star, cert.tail.start + self.L_A)
        dense = verify_certificate(assemble(self, levels=k_tail + 1), cert)
        tail = _verify_tail_drift(self, cert, k_tail + 1)
        return CertificateCheck(
            dense.violations + tail.violations, max(dense.max_slack, tail.max_slack)
        )


def _verify_tail_drift(model: GIG1Model, cert: DriftCertificate, k_from: int) -> CertificateCheck:
    """Closed-form drift check for all pure Toeplitz rows k >= k_from.

    With v(l) = alpha^l * c + s for l >= k_from - L_A, a Toeplitz row gives

        (P v)(k) - gamma v(k) = alpha^k (ahat(alpha) c - gamma c) + s (1 - gamma) e.

    Each phase's slack is monotone in k (the alpha^k coefficient has a fixed
    sign), so checking the boundary level plus the coefficient sign decides
    every level at once. Rows get the slack VERIFY_TOLERANCE * max(1, rhs),
    as in verify_certificate.

    k_from must be at least k_star, with v in closed form from k_from - L_A on.

    Returns:
        CertificateCheck with violations as (k, i, slack) and the largest
        slack at the first tail level.
    """
    alpha, c, s = cert.tail.alpha, cert.tail.coeff, cert.tail.shift
    gamma = cert.gamma
    h = a_hat(model, alpha) @ c - gamma * c

    def slack_at(k: int) -> np.ndarray:
        rhs = gamma * (alpha ** k * c + s)
        diff = alpha ** k * h + s * (1.0 - gamma)
        return diff - VERIFY_TOLERANCE * np.maximum(1.0, rhs)

    violations: list[tuple[int, int, float]] = []
    first = alpha ** k_from * h + s * (1.0 - gamma)
    flagged = set(np.nonzero(slack_at(k_from) > 0.0)[0])
    # Phases whose slack grows with k will violate eventually even if the
    # first tail level passes; locate the first failing level for the report.
    growing = set(np.nonzero(h > VERIFY_TOLERANCE * gamma * c)[0]) - flagged
    for i in flagged:
        violations.append((k_from, int(i), float(first[i])))
    for i in growing:
        k = k_from + 1
        while slack_at(k)[i] <= 0.0 and k < k_from + 100_000 and np.isfinite(alpha ** k):
            k += 1
        diff = alpha ** k * h[i] + s * (1.0 - gamma)
        violations.append((int(k), int(i), float(diff)))
    return CertificateCheck(sorted(violations), float(first.max()))


def a_hat(model: GIG1Model, z: float) -> np.ndarray:
    """The A-transform sum_k z^k A(k) (entrywise non-negative for z > 0)."""
    if z <= 0:
        raise ValueError("z must be positive")
    return sum(
        (z ** j * blk for j, blk in model.A.items()), np.zeros((model.d, model.d))
    )


def perron(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron triple (delta, mu, v) of a non-negative irreducible matrix.

    The right eigenvector is scaled to min_i v_i = 1 (so v >= 1 everywhere)
    and the left one to mu . v = 1, both from a dense eigendecomposition.

    Raises:
        ValueError: negative entries or a reducible nonzero pattern.
        ArithmeticError: residuals above PERRON_TOLERANCE (numerically degenerate input).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(M < 0):
        raise ValueError("matrix must be non-negative")
    if not _is_irreducible(M > 0):
        raise ValueError("matrix is reducible; no Perron triple with positive eigenvectors")
    return _perron(M)


def _perron(M: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """The eigen part of perron, for a square, non-negative, irreducible float array M.

    The alpha search calls it on a_hat(z), z > 0, whose pattern is the pattern of
    the A-sum that GIG1Model's constructor checked, so it skips perron's
    input checks; the residual checks stay.
    """
    (eigvals, eigvals_l), (right, left) = np.linalg.eig(np.stack((M, M.T)))
    idx = int(np.argmax(eigvals.real))
    delta = float(eigvals[idx].real)
    v = right[:, idx].real
    idx_l = int(np.argmax(eigvals_l.real))
    mu = left[:, idx_l].real
    v = v * np.sign(v[int(np.argmax(np.abs(v)))])
    mu = mu * np.sign(mu[int(np.argmax(np.abs(mu)))])
    if v.min() <= 0 or mu.min() <= 0:
        raise ArithmeticError("Perron eigenvectors not strictly positive (near-reducible input)")
    v = v / v.min()
    mu = mu / float(mu @ v)
    scale = max(1.0, delta) * float(v.max())
    if float(np.max(np.abs(M @ v - delta * v))) > PERRON_TOLERANCE * scale:
        raise ArithmeticError("right eigen-residual above tolerance")
    if float(np.max(np.abs(mu @ M - delta * mu))) > PERRON_TOLERANCE * scale:
        raise ArithmeticError("left eigen-residual above tolerance")
    return delta, mu, v


def mean_drift(model: GIG1Model) -> float:
    """Stationary mean level increment of the Toeplitz part.

    Negative drift certifies positive recurrence and guarantees a growth
    rate alpha > 1 with delta(alpha) < 1 exists.
    """
    step = sum(
        (j * blk.sum(axis=1) for j, blk in model.A.items()), np.zeros(model.d)
    )
    return float(model.a_stationary @ step)


def _brentq(f, a: float, b: float, xtol: float, fa: float | None = None, fb: float | None = None):
    """Root of f in the sign-change bracket [a, b], as scipy.optimize.brentq finds it.

    A line-for-line port of scipy's Zeros/brentq.c with rtol = 4 eps and 100
    iterations, so it returns the same bits. fa and fb are f(a) and f(b) when
    the caller has them already; f is then not called there again.

    Raises:
        ValueError: a NaN value of f, or f(a) and f(b) of the same sign.
        RuntimeError: no convergence in 100 iterations.
    """

    def value(x: float, fx: float | None) -> float:
        fx = float(f(x)) if fx is None else float(fx)
        if fx != fx:
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre, fa), value(xcur, fb)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur, None)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def _delta_slope(model: GIG1Model, z: float) -> float:
    """delta'(z) = mu(z) A'(z) v(z), the slope of the Perron eigenvalue at z."""
    _, mu, v = _perron(a_hat(model, z))
    transform_slope = sum(
        (j * z ** (j - 1) * blk for j, blk in model.A.items() if j != 0),
        np.zeros((model.d, model.d)),
    )
    return float(mu @ transform_slope @ v)


def find_alpha(model: GIG1Model) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Growth rate alpha > 1 minimizing the Perron eigenvalue delta(z).

    Returns (alpha, delta, mu, v) with the Perron triple of perron(a_hat(alpha)).

    log delta(e^t) is convex in t (Kingman 1961), and the slope
    delta'(z) = mu(z) A'(z) v(z) (first-order perturbation of a simple
    eigenvalue) equals the mean drift at z = 1, which is negative. So the
    minimiser is the one sign change of the slope on z > 1: doubling from
    [1, 2] brackets it and Brent's method finds it to machine precision,
    where minimizing delta itself would stall at ~sqrt(eps). The minimized
    delta(alpha) becomes the drift rate of the constructed certificates, so
    smaller is directly better.

    Raises:
        ValueError: non-negative mean drift, or delta(z) still falling at
            z = 2^30 (no finite minimiser, e.g. no upward A-block).
    """
    drift = mean_drift(model)
    if drift >= 0:
        raise ValueError(f"mean drift {drift:.6g} is not negative; no certificate exists")

    delta_slope = partial(_delta_slope, model)
    lo, hi = 1.0, 2.0
    f_lo, f_hi = None, delta_slope(hi)
    while f_hi < 0.0:
        if hi >= _ALPHA_LIMIT:
            raise ValueError(
                f"delta(z) has no finite minimiser: it still falls at z = {hi:.6g}"
            )
        lo, f_lo, hi = hi, f_hi, 2.0 * hi
        f_hi = delta_slope(hi)
    alpha = _brentq(delta_slope, lo, hi, xtol=1e-15, fa=f_lo, fb=f_hi)
    delta, mu, v = perron(a_hat(model, alpha))
    if delta >= 1.0:
        raise ValueError(f"refined delta({alpha:.9g}) = {delta:.9g} is not below 1")
    return alpha, delta, mu, v


def _row_image(model: GIG1Model, alpha: float, v: np.ndarray, k: int) -> np.ndarray:
    """Row-k image of the geometric weight vector alpha^l v.

    w(0) = sum_l alpha^l B(l) v;  for k >= 1,
    w(k) = B(-k) v + alpha^k * sum_{j >= 1-k} alpha^j A(j) v.
    Finite supports make both sums exact. Beyond all supports this collapses
    to alpha^k delta(alpha) v (the eigen-identity).
    """
    if k < 0:
        raise ValueError("level k must be non-negative")
    if k == 0:
        return sum(
            (alpha ** l * (blk @ v) for l, blk in model.B.items() if l >= 0),
            np.zeros(model.d),
        )
    partial = sum(
        (alpha ** j * (blk @ v) for j, blk in model.A.items() if j >= 1 - k),
        np.zeros(model.d),
    )
    return model.B_block(-k) @ v + alpha ** k * partial


@dataclass(frozen=True, eq=False)
class GIG1DriftData:
    """find_alpha's (alpha, delta, mu, v) and the level-K inequality's (K, b').

    Only the boundary lift builds a drift inequality whose constant covers
    levels 0..K, with rate gamma' = delta; on the skip-free shortcut K = 0
    and gamma', b' are None.
    """

    alpha: float
    delta: float
    mu: np.ndarray
    v: np.ndarray
    K: int = 0
    b_prime: float | None = None

    @property
    def gamma_prime(self) -> float | None:
        return None if self.b_prime is None else self.delta


def certificate_for_model(
    model: GIG1Model,
) -> tuple[str, GIG1DriftData, DriftCertificate]:
    """Verified certificate via the tightest applicable path.

    Returns (path label, drift data, certificate), the certificate only once
    model.verify_drift has accepted every row. alpha minimizes delta(z)
    and is searched once; the geometric weights alpha^k v(alpha) satisfy the
    drift inequality with rate delta(alpha) exactly from level k_star on.

    - Skip-free shortcut, when B(-1) = A(-1) and B(l) = A(l-1): the weights
      satisfy the inequality everywhere with boundary constant
      (alpha - 1) * max_i v(alpha, i) at level 0 only.
    - Boundary lift otherwise: boundary levels 0..K (K = k_star - 1) are
      absorbed into a constant b', and that inequality is lifted to one
      with its constant on level 0 through the B(-K) block, which must have
      positive row sums.

    Raises:
        ValueError: off the skip-free pattern and not block-monotone,
            non-negative drift, a B(-K) block with a zero row sum (some
            phase at level K cannot reach level 0: lift_certificate refuses
            it), or a certificate that fails verification.
    """
    skip_free = not model.mg1_pattern_mismatches()
    if not skip_free and not model.is_block_monotone():
        raise ValueError("certificate construction needs a block-monotone model")
    alpha, delta, mu, v = find_alpha(model)
    tail = GeometricTail(alpha=alpha, coeff=v, shift=0.0, start=0)
    weights = BlockVector(model.d, tail.values(np.arange(model.k_star + 1)))
    if skip_free:
        b = (alpha - 1.0) * float(v.max())
        cert = DriftCertificate(v=weights, gamma=delta, b=b, tail=tail)
        path, data = PATH_SKIP_FREE, GIG1DriftData(alpha, delta, mu, v)
    else:
        # K >= 1: find_alpha has refused any model without a downward A-block
        K = model.k_star - 1
        boundary = model.B_block(-K)
        gaps = [_row_image(model, alpha, v, k) - delta * alpha ** k * v for k in range(K + 1)]
        b_prime = max(float(np.max(np.stack(gaps))), B_PRIME_FLOOR)
        cert = lift_certificate(weights, delta, b_prime, boundary, tail=tail)
        path, data = PATH_BOUNDARY_LIFT, GIG1DriftData(alpha, delta, mu, v, K, b_prime)
    check = model.verify_drift(cert)
    if not check.ok:
        raise ValueError(
            f"certificate verification failed with {len(check.violations)} violating rows; "
            "refusing to use an unverified certificate"
        )
    return path, data, cert


def assemble(model: GIG1Model, levels: int) -> BlockStochasticMatrix:
    """Explicit corner with complete rows 0..levels-1 (no folding).

    Columns extend far enough to hold every stored row in full, so each row
    sums to 1 exactly as in the infinite matrix.
    """
    if levels < model.k_star:
        raise ValueError(
            f"levels={levels} too small: boundary structure extends to level {model.k_star - 1}"
        )
    col_levels = max(levels - 1 + model.U_A, model.U_B) + 1
    band, L = model._band(levels)
    return BlockStochasticMatrix(d=model.d, band=band, lower=L, col_levels=col_levels)
