"""Geometric drift certificates and certified truncation error bounds.

A drift certificate (v, gamma, b) witnesses the row-wise inequality

    (P v)(k, i) <= gamma * v(k, i) + b * [k = 0]

with gamma < 1, b > 0 and a block-increasing weight vector v >= 1. It yields
two computable upper bounds on the total-variation error of the level-n LCB
truncation, one using the truncation's own top-level mass and one using
1/v(n, .) only. A drift inequality whose constant covers levels 0..K is
reduced to this form by lift_certificate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .block_matrix import (
    BlockStochasticMatrix,
    BlockVector,
    _right_product,
    is_block_increasing,
    lcb_truncate,
    stationary,
    tv_distance,
)

__all__ = [
    "GeometricTail",
    "DriftCertificate",
    "CertificateCheck",
    "BoundReport",
    "BoundViolationError",
    "ReferenceNotConvergedError",
    "verify_certificate",
    "bound_theorem31",
    "optimize_m",
    "lift_certificate",
    "compare_against_oracle",
]

# Row slack allowed when checking the drift inequality. Scaled by max(1, rhs):
# weight vectors grow geometrically, so an absolute tolerance would reject
# rows where the inequality holds with exact equality but the row values are
# astronomically large.
VERIFY_TOLERANCE = 1e-10

REFERENCE_CONVERGENCE_TOLERANCE = 1e-10
BOUND_CHECK_SLACK = 1e-9
# Relative slack of the gate on the error's lower bound 2 pi(levels > n): the
# mass is a sum of non-negative terms, so only its rounding needs room.
LOWER_BOUND_RELATIVE_SLACK = 1e-9


class BoundViolationError(RuntimeError):
    """A measured error exceeded its certified bound (soundness alarm)."""


class ReferenceNotConvergedError(RuntimeError):
    """The reference truncation has not converged to the requested accuracy."""

    def __init__(self, gap: float, level: int):
        self.gap = gap
        self.level = level
        super().__init__(
            f"reference truncation at level {level} not converged: "
            f"TV gap to level {2 * level} is {gap:.3e}"
        )


@dataclass(frozen=True, eq=False)
class GeometricTail:
    """Closed form v(k) = alpha^k * coeff + shift for all levels k >= start."""

    alpha: float
    coeff: np.ndarray
    shift: float = 0.0
    start: int = 0

    def __post_init__(self):
        coeff = np.asarray(self.coeff, dtype=float).reshape(-1)
        object.__setattr__(self, "coeff", coeff)
        if not self.alpha > 1.0:
            raise ValueError("tail growth rate alpha must exceed 1")
        if np.any(coeff <= 0):
            raise ValueError("tail coefficients must be positive")
        if self.shift < 0 or self.start < 0:
            raise ValueError("tail shift and start level must be non-negative")

    def values(self, ks) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        return np.power(self.alpha, ks)[..., None] * self.coeff + self.shift


@dataclass(frozen=True, eq=False)
class DriftCertificate:
    """Witness (v, gamma, b) of the geometric drift inequality, b on level 0.

    v stores finitely many levels; an optional GeometricTail extends it in
    closed form so certificates remain checkable against repeating-tail
    chains of any depth. tail is keyword-only, so a stray positional
    number is refused rather than taken for a tail.
    """

    v: BlockVector
    gamma: float
    b: float
    tail: GeometricTail | None = field(default=None, kw_only=True)

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma={self.gamma} outside (0, 1)")
        if not self.b > 0.0:
            raise ValueError("b must be positive")
        if np.any(self.v.entries < 1.0 - 1e-12):
            raise ValueError("weight vector must satisfy v >= 1 everywhere")
        if not is_block_increasing(self.v, tol=1e-9):
            raise ValueError("weight vector must be block-increasing")
        if self.tail is not None:
            if self.tail.start > self.v.levels:
                raise ValueError("tail must start within or adjacent to stored levels")
            last = self.v.levels - 1
            if self.tail.start <= last:
                stored = self.v.entries[last]
                closed = self.tail.values(last)
                rel = np.max(np.abs(stored - closed) / np.maximum(1.0, np.abs(closed)))
                if rel > 1e-8:
                    raise ValueError("stored entries disagree with the closed-form tail")

    @property
    def d(self) -> int:
        return self.v.d

    def value_at(self, k: int) -> np.ndarray:
        """v(k, .) as a length-d array, from storage or the closed form."""
        if k < self.v.levels:
            return self.v.entries[k].copy()
        if self.tail is not None and k >= self.tail.start:
            return self.tail.values(k)
        raise ValueError(f"certificate vector undefined at level {k} (no closed-form tail)")

    def values_up_to(self, levels: int) -> np.ndarray:
        """Materialized (levels, d) array of v(0..levels-1, .)."""
        stored = min(levels, self.v.levels)
        out = np.empty((levels, self.d))
        out[:stored] = self.v.entries[:stored]
        if levels > stored:
            if self.tail is None:
                raise ValueError(
                    f"certificate vector undefined beyond level {stored - 1} "
                    "(no closed-form tail)"
                )
            out[stored:] = self.tail.values(np.arange(stored, levels))
        return out


@dataclass(frozen=True, eq=False)
class CertificateCheck:
    """Outcome of a row-wise certificate verification."""

    violations: list[tuple[int, int, float]]
    max_slack: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_certificate(P: BlockStochasticMatrix, cert: DriftCertificate) -> CertificateCheck:
    """Row-by-row check of the drift inequality for cert against a stored corner P.

    Every stored row of P is checked. A row (k, i) is violating when
    (Pv)(k,i) exceeds gamma*v(k,i) + b*[k = 0] by more than
    VERIFY_TOLERANCE*max(1, rhs). A GIG1Model answers through its own
    verify_drift, which runs this on its boundary rows and covers the
    repeating tail in closed form.

    Returns:
        CertificateCheck (truthy iff no violations) listing violating rows
        with their slack.
    """
    d = P.d
    if d != cert.d:
        raise ValueError("block size mismatch between matrix and certificate")
    v_cols = cert.values_up_to(P.col_levels)
    lhs = _right_product(P, v_cols)
    rhs = cert.gamma * cert.values_up_to(P.levels)
    rhs[0] += cert.b
    slack = lhs - rhs - VERIFY_TOLERANCE * np.maximum(1.0, rhs)
    bad = np.argwhere(slack > 0.0)
    violations = [(int(k), int(i), float(lhs[k, i] - rhs[k, i])) for k, i in bad]
    return CertificateCheck(violations, float(np.max(lhs - rhs)))


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Evaluation of the certified bounds at one (n, m) pair."""

    n: int
    m: int
    bound2: float
    bound1: float | None = None
    measured_error: float | None = None
    reference_level: int | None = None


def _bound_terms(cert: DriftCertificate, n: int):
    # Once alpha^n passes float range, v(n) reads inf. Every phase weight is
    # then above the largest double, so summing 1/min(v, DBL_MAX) still bounds
    # sum 1/v(n) from above, where 1/inf = 0 would let bound2 read 0.
    with np.errstate(over="ignore"):
        v_n = cert.value_at(n)
    prefactor = cert.b / (1.0 - cert.gamma)
    return prefactor, float((1.0 / np.minimum(v_n, sys.float_info.max)).sum())


def bound_theorem31(
    cert: DriftCertificate, m: int, n: int, top_mass=None
) -> BoundReport:
    """Both certified TV bounds for the level-n truncation at parameter m.

    Args:
        cert: drift certificate for the (block-monotone) chain.
        m: free coupling-horizon parameter, >= 1.
        n: truncation level.
        top_mass: optional length-d array of the truncation's stationary mass
            on level n; enables the first (sharper) bound.

    Returns:
        BoundReport with bound2 always set and bound1 set iff top_mass given.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    prefactor, inv_v_sum = _bound_terms(cert, n)
    geom = cert.gamma ** m
    bound2 = prefactor * (4.0 * geom + 2.0 * m * inv_v_sum)
    bound1 = None
    if top_mass is not None:
        top_mass = np.asarray(top_mass, dtype=float).reshape(-1)
        if top_mass.shape != (cert.d,) or np.any(top_mass < 0):
            raise ValueError("top_mass must be a non-negative length-d vector")
        bound1 = 4.0 * geom * prefactor + 2.0 * m * float(top_mass.sum())
    return BoundReport(n=n, m=m, bound2=bound2, bound1=bound1)


def optimize_m(
    cert: DriftCertificate, n: int, m_max: int | None = None, top_mass=None
) -> tuple[int, float]:
    """Exact minimizer over m in 1..m_max of bound1 (given top_mass) or bound2.

    Both bounds read P*gamma^m + Q*m with P = 4b/(1-gamma), which is convex
    in m with real minimizer t = ln(Q / (P ln(1/gamma))) / ln(gamma). The
    logs are taken factor by factor, so a subnormal Q still gives a finite t;
    Q = 0 puts the minimum at m_max. Only the integers floor(t)-1..floor(t)+1,
    clamped to 1..m_max, are evaluated; ties break toward the smaller m.
    m_max defaults to 10*ceil(1/(1-gamma)).

    Raises:
        ValueError: m_max < 1, or the minimum is below the smallest normal
            double, where it is a rounding residue rather than a bound.
    """
    if m_max is None:
        m_max = 10 * math.ceil(1.0 / (1.0 - cert.gamma))
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    prefactor, inv_v_sum = _bound_terms(cert, n)
    if top_mass is None:
        log_q = math.log(2.0 * inv_v_sum) + math.log(prefactor)
    else:
        total = float(np.asarray(top_mass, dtype=float).sum())
        log_q = math.log(2.0 * total) if total > 0.0 else -math.inf
    m = m_max
    if log_q > -math.inf:
        log_gamma = math.log(cert.gamma)
        t = (log_q - math.log(4.0 * prefactor) - math.log(-log_gamma)) / log_gamma
        m = min(max(math.floor(t), 1), m_max)
    ms = np.arange(max(m - 1, 1), min(m + 1, m_max) + 1, dtype=float)
    geom = np.power(cert.gamma, ms)
    if top_mass is None:
        values = prefactor * (4.0 * geom + 2.0 * ms * inv_v_sum)
    else:
        values = 4.0 * geom * prefactor + 2.0 * ms * total
    best = int(values.argmin())
    value = float(values[best])
    if value < sys.float_info.min:  # smallest normal double
        raise ValueError(
            f"n={n}: bound minimum {value:.3e} at m={int(ms[best])} is below the "
            "smallest normal double, a rounding residue and not a certified bound"
        )
    return int(ms[best]), value


def lift_certificate(
    vprime: BlockVector,
    gamma_prime: float,
    b_prime: float,
    boundary_block: np.ndarray,
    tail: GeometricTail | None = None,
) -> DriftCertificate:
    """Lift a drift inequality whose constant b' covers levels 0..K to a certificate.

    Needs every phase of the level-K rows to reach level 0 in one step:
    boundary_block (the chain's (K; 0) block) must have positive row sums.
    The smallest feasible shift B = b'/min_i row_sum_i is used, which gives
    the smallest lifted gamma; then

        gamma = (gamma' + B) / (1 + B),  b = b' + B,
        v(0) = v'(0),  v(k) = v'(k) + B for k >= 1.

    Args:
        vprime: weight vector of the level-K inequality.
        gamma_prime, b_prime: its drift rate and boundary constant.
        boundary_block: d x d block mapping level K to level 0.
        tail: optional closed form of vprime beyond its stored levels; the
            lifted closed form (shifted by B) is attached to the result.

    Returns:
        DriftCertificate with its constant on level 0.
    """
    if not 0.0 < gamma_prime < 1.0:
        raise ValueError(f"gamma_prime={gamma_prime} outside (0, 1)")
    if not b_prime > 0.0:
        raise ValueError("b_prime must be positive")
    boundary_block = np.asarray(boundary_block, dtype=float)
    if boundary_block.shape != (vprime.d, vprime.d):
        raise ValueError("boundary_block must be d x d")
    row_sums = boundary_block.sum(axis=1)
    min_row = float(row_sums.min())
    if min_row <= 0.0:
        raise ValueError(
            "boundary block has a zero row sum: some phase cannot reach level 0, no feasible lift"
        )
    B = b_prime / min_row
    gamma = (gamma_prime + B) / (1.0 + B)
    b = b_prime + B
    entries = vprime.entries.copy()
    entries[1:] += B
    lifted_tail = None
    if tail is not None:
        lifted_tail = GeometricTail(
            alpha=tail.alpha,
            coeff=tail.coeff,
            shift=tail.shift + B,
            start=max(tail.start, 1),
        )
    return DriftCertificate(
        v=BlockVector(vprime.d, entries), gamma=gamma, b=b, tail=lifted_tail
    )


def compare_against_oracle(
    model,
    n_list,
    cert: DriftCertificate,
    m_max: int | None = None,
    *,
    reference_level: int,
    dominating=None,
) -> list[BoundReport]:
    """Measure truncation errors against the chain's stationary law and bound them.

    A GI/G/1-type model is measured against the stationary law pi of its
    infinite chain (GIG1Model.stationary_law), formed and residual-checked
    through reference_level. One sweep over the truncation at max(n_list)
    plus the model's widest block offset solves every requested level (see
    stationary). The error of level n is the sum over k <= n of
    |pi_n(k) - pi(k)| plus pi's mass above n, which is a sum of
    non-negative terms: pi's entries through reference_level and a
    closed-form tail beyond it. pi_n puts no mass above n, so twice that
    mass is a lower bound on the error, and a bound1 below it is a
    BoundViolationError.

    A stored corner, a chain known by a finite corner only, is measured
    against its truncation at reference_level, which one sweep over the
    truncation at twice that level solves with the requested levels. It is
    accepted only if its TV gap to the top level's is at most
    REFERENCE_CONVERGENCE_TOLERANCE.

    For each n, m minimizes the sharper available bound, and both bounds are
    reported at that m.

    Args:
        model: chain under study (GI/G/1-type model or stored corner).
        n_list: truncation levels to evaluate.
        cert: certificate for the chain, or for a dominating chain.
        m_max: cap on the horizon m (None: certificate default).
        reference_level: level through which the oracle is formed (keyword,
            required), must exceed max(n_list).
        dominating: optional block-monotone chain dominating `model`; its
            truncations then supply the level-n mass for the first bound
            (the first bound is not available from `model`'s own truncation
            when only the dominating chain is certified). One sweep over its
            truncation at max(n_list) solves all of them.

    Raises:
        ValueError: no levels, a reference level at or below max(n_list), or
            an array above the model's byte limit.
        ReferenceNotConvergedError: a stored corner's oracle gap above
            REFERENCE_CONVERGENCE_TOLERANCE.
        StationarySolveError: the stationary law or a truncation fails its
            solve or residual check.
        BoundViolationError: a measured error, or twice the mass above n,
            exceeded its bound.
    """
    n_list = [int(n) for n in n_list]
    if not n_list or min(n_list) < 1:
        raise ValueError("n_list must contain levels >= 1")
    if reference_level <= max(n_list):
        raise ValueError("reference_level must exceed every requested n")

    if isinstance(model, BlockStochasticMatrix):
        top = 2 * reference_level
        corner = lcb_truncate(model, top)
        *solved, pi_ref, pi_top = stationary(corner, n_list + [reference_level, top])
        gap = tv_distance(pi_ref, pi_top)
        if gap > REFERENCE_CONVERGENCE_TOLERANCE:
            raise ReferenceNotConvergedError(gap, reference_level)
        # (measured, lower bound): a truncation oracle gives no lower bound
        errors = [(tv_distance(pi_n, pi_ref), 0.0) for pi_n in solved]
    else:
        pi, beyond = model.stationary_law(reference_level)
        # On this corner every band row the sweep reads for a requested
        # level is unfolded, so each level has the bits it has on any
        # taller corner.
        reach = max(model.L_A, model.L_B, model.U_A, model.U_B)
        solved = stationary(lcb_truncate(model, max(n_list) + reach), n_list)
        # above[k]: pi's mass at levels >= k, summed from the top
        above = np.cumsum(np.append(pi.entries.sum(axis=1), beyond)[::-1])[::-1]
        errors = [
            (float(np.abs(pi_n.entries - pi.entries[:n + 1]).sum()) + above[n + 1],
             2.0 * above[n + 1])
            for n, pi_n in zip(n_list, solved)
        ]
    if dominating is None:
        masses = solved
    else:
        masses = stationary(lcb_truncate(dominating, max(n_list)), n_list)

    reports = []
    for n, (measured, lower), mass_n in zip(n_list, errors, masses):
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
        reports.append(replace(report, measured_error=measured, reference_level=reference_level))
    return reports
