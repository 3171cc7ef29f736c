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
from dataclasses import dataclass, field

import numpy as np

from .block_matrix import (
    BlockStochasticMatrix,
    BlockVector,
    _right_product,
    is_block_increasing,
    lcb_truncate,
    stationary,
    tv_distance,  # noqa: F401 - stays importable here for perfbench's tracer
)

__all__ = [
    "GeometricTail",
    "DriftCertificate",
    "CertificateCheck",
    "BoundReport",
    "BoundViolationError",
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

BOUND_CHECK_SLACK = 1e-9
# Relative slack of the gate on the error's lower bound 2 pi(levels > n): the
# mass is a sum of non-negative terms, so only its rounding needs room.
LOWER_BOUND_RELATIVE_SLACK = 1e-9


class BoundViolationError(RuntimeError):
    """A measured error exceeded its certified bound (soundness alarm)."""


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


@np.errstate(over="ignore")  # as a decorator it costs half of a with-block
def _weights(cert: DriftCertificate, n: int) -> np.ndarray:
    """v(n, .) as a length-d array; past float range it reads inf (see _inv_v_sum)."""
    return cert.value_at(n)


def _inv_v_sum(v: np.ndarray):
    """Sum over the phases (last axis) of 1/v.

    Once alpha^n passes float range, v(n) reads inf. Every phase weight is
    then above the largest double, so summing 1/min(v, DBL_MAX) still bounds
    sum 1/v(n) from above, where 1/inf = 0 would let bound2 read 0.
    """
    return np.add.reduce(1.0 / np.minimum(v, sys.float_info.max), axis=-1)


def _bound_terms(cert: DriftCertificate, n: int):
    return cert.b / (1.0 - cert.gamma), float(_inv_v_sum(_weights(cert, n)))


def _bounds(prefactor, geom, m, inv_v_sum, total=None):
    """bound1 (None without top masses) and bound2 at horizon m, elementwise.

    With P = b/(1-gamma) and geom = gamma^m,
    bound2 = P (4 gamma^m + 2 m sum 1/v(n)) and bound1 = 4 gamma^m P + 2 m pi_n(n),
    where total is the top mass pi_n(n) summed over phases. Scalars or
    broadcastable arrays.
    """
    bound2 = prefactor * (4.0 * geom + 2.0 * m * inv_v_sum)
    bound1 = None if total is None else 4.0 * geom * prefactor + 2.0 * m * total
    return bound1, bound2


def _residue(n: int, m: int, value: float) -> ValueError:
    return ValueError(
        f"n={n}: bound minimum {value:.3e} at m={m} is below the "
        "smallest normal double, a rounding residue and not a certified bound"
    )


def _horizon_cap(cert: DriftCertificate, m_max: int | None) -> int:
    """m_max, or its default 10*ceil(1/(1-gamma)); ValueError below 1."""
    if m_max is None:
        m_max = 10 * math.ceil(1.0 / (1.0 - cert.gamma))
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return m_max


def _minimize_m(cert: DriftCertificate, m_max: int, inv_v_sums: np.ndarray, totals=None):
    """Exact minimizer over m in 1..m_max of bound1 (given totals) or bound2, per level.

    Both bounds read P*gamma^m + Q*m with P = 4b/(1-gamma), which is convex
    in m with real minimizer t = ln(Q / (P ln(1/gamma))) / ln(gamma). The
    logs are taken factor by factor, with math.log, so a subnormal Q still
    gives a finite t; Q = 0 puts the minimum at m_max. Only the integers
    floor(t)-1..floor(t)+1, clamped to 1..m_max, are evaluated, with
    np.power, as one (3, levels) array; ties break toward the smaller m.

    Args:
        inv_v_sums: sum over phases of 1/v(n, .), a 1-D array, one entry
            per level.
        totals: the levels' top masses summed over phases, to minimize
            bound1; None minimizes bound2.

    Returns:
        Lists of m* (int) and of the minimum (float), one entry per level.
    """
    prefactor = cert.b / (1.0 - cert.gamma)
    log_gamma = math.log(cert.gamma)
    log_p, log_4p, log_rate = math.log(prefactor), math.log(4.0 * prefactor), math.log(-log_gamma)
    rows = []
    for q in (inv_v_sums if totals is None else totals).tolist():
        if totals is None:
            log_q = math.log(2.0 * q) + log_p
        else:
            log_q = math.log(2.0 * q) if q > 0.0 else -math.inf
        m = m_max
        if log_q > -math.inf:
            m = min(max(math.floor((log_q - log_4p - log_rate) / log_gamma), 1), m_max)
        rows.append((max(m - 1, 1), m, min(m + 1, m_max)))
    ms = np.array(rows, dtype=float).T
    bound1, bound2 = _bounds(prefactor, np.power(cert.gamma, ms), ms, inv_v_sums, totals)
    best_m, minima = [], []
    for row, column in zip(rows, (bound2 if totals is None else bound1).T.tolist()):
        value = min(column)  # the first minimum, so ties go to the smaller m
        best_m.append(row[column.index(value)])
        minima.append(value)
    return best_m, minima


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
    total = None
    if top_mass is not None:
        top_mass = np.asarray(top_mass, dtype=float).reshape(-1)
        if top_mass.shape != (cert.d,) or np.any(top_mass < 0):
            raise ValueError("top_mass must be a non-negative length-d vector")
        total = float(top_mass.sum())
    bound1, bound2 = _bounds(prefactor, cert.gamma ** m, m, inv_v_sum, total)
    return BoundReport(n=n, m=m, bound2=bound2, bound1=bound1)


def optimize_m(
    cert: DriftCertificate, n: int, m_max: int | None = None, top_mass=None
) -> tuple[int, float]:
    """Exact minimizer over m in 1..m_max of bound1 (given top_mass) or bound2.

    Only floor(t)-1..floor(t)+1 around the real minimizer t are evaluated;
    this runs _minimize_m, which describes the search, for one level. m_max
    defaults to 10*ceil(1/(1-gamma)).

    Raises:
        ValueError: m_max < 1, or the minimum is below the smallest normal
            double, where it is a rounding residue rather than a bound.
    """
    m_max = _horizon_cap(cert, m_max)
    totals = None
    if top_mass is not None:
        totals = np.asarray(top_mass, dtype=float).reshape(1, -1).sum(axis=1)
    (m,), (value,) = _minimize_m(cert, m_max, _inv_v_sum(_weights(cert, n)[None]), totals)
    if value < sys.float_info.min:  # smallest normal double
        raise _residue(n, m, value)
    return m, value


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

    The oracle is the exact stationary law pi of the chain under study,
    split at reference_level into pi(0..reference_level) and its mass above.
    A GI/G/1-type model is its infinite chain, whose law comes from
    GIG1Model.stationary_law (formed and residual-checked through
    reference_level, with a closed-form tail beyond it); one sweep over the
    truncation at max(n_list) plus the model's widest block offset solves
    every requested level. A stored corner P is the finite chain
    lcb_truncate(P, top), top = P.levels - 1: a square corner is that chain
    already, and a corner of complete rows is closed by folding its columns
    beyond the top. One sweep over it solves every requested level and the
    chain's own law. For a corner of an infinite chain, its errors differ
    from the infinite chain's by at most the TV distance between the two
    laws.

    The error of level n is tv_distance(pi_n, pi(0..n)) plus pi's mass
    above n, a sum of non-negative terms. pi_n puts no mass above n, so
    twice that mass is a lower bound on the error, and a bound1 below it is
    a BoundViolationError. For each n, m minimizes the sharper available
    bound, and both bounds are reported at that m. The rows of all levels
    are formed in one array pass, with the bits optimize_m and
    bound_theorem31 give each level; the first failing level of n_list
    raises, its residue error before its gates.

    Args:
        model: chain under study (GI/G/1-type model or stored corner).
        n_list: truncation levels to evaluate.
        cert: certificate for the chain, or for a dominating chain. It is
            used as given: certificate_for_model is what verifies one.
        m_max: cap on the horizon m (None: certificate default).
        reference_level: level at which the law is split (keyword,
            required); it must exceed max(n_list) and, for a stored corner,
            not exceed its top level.
        dominating: optional block-monotone chain dominating `model`; its
            truncations then supply the level-n mass for the first bound
            (the first bound is not available from `model`'s own truncation
            when only the dominating chain is certified). One sweep over its
            truncation at max(n_list) solves all of them.

    Raises:
        ValueError: no levels, a reference level at or below max(n_list) or
            above a stored corner's top level, or a model's band or the
            level vectors above MAX_ARRAY_BYTES.
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
        top = model.levels - 1
        if reference_level > top:
            raise ValueError(f"reference_level must not exceed the corner's top level {top}")
        *solved, law = stationary(lcb_truncate(model, top), n_list + [top])
        pi = BlockVector(model.d, law.entries[:reference_level + 1])
        beyond = float(law.entries[reference_level + 1:].sum())
    else:
        # On this corner every band row the sweep reads for a requested level is
        # unfolded, so each level has the bits it has on any taller corner. The
        # solve goes first, so too many level vectors are refused before the law.
        reach = max(model.L_A, model.L_B, model.U_A, model.U_B)
        solved = stationary(lcb_truncate(model, max(n_list) + reach), n_list)
        pi, beyond = model.stationary_law(reference_level)
    if dominating is None:
        masses = solved
    else:
        masses = stationary(lcb_truncate(dominating, max(n_list)), n_list)

    # One array pass over the levels. tails[g]: pi's mass above level
    # n_list[g], summed from the top. The head of each error is one pairwise
    # sum, as tv_distance takes it.
    ns = np.array(n_list)
    tails = np.cumsum(np.append(pi.entries.sum(axis=1), beyond)[::-1])[::-1][ns + 1]
    heads = [np.abs(x.entries - pi.entries[:n + 1]).sum() for n, x in zip(n_list, solved)]
    measured = np.array(heads) + tails
    totals = np.array([mass.entries[n] for n, mass in zip(n_list, masses)]).sum(axis=1)
    m_max = _horizon_cap(cert, m_max)
    # v is read through the certificate's last defined level at most; the
    # levels above it keep a stand-in and raise value_at's error below.
    top = max(n_list) + 1 if cert.tail is not None else min(max(n_list) + 1, cert.v.levels)
    with np.errstate(over="ignore"):
        inv_v_sums = _inv_v_sum(cert.values_up_to(top)[np.minimum(ns, top - 1)])
    ms, minima = _minimize_m(cert, m_max, inv_v_sums, totals)
    # The printed bounds take gamma^m with Python's power, as bound_theorem31 does.
    geom = np.array([cert.gamma ** m for m in ms])
    bound1, bound2 = _bounds(cert.b / (1.0 - cert.gamma), geom, np.array(ms), inv_v_sums, totals)

    # The first failing level raises, with its checks in the order a single
    # level takes them: its weights, optimize_m's residue, then both gates.
    undefined = ns >= top
    residue = np.array(minima) < sys.float_info.min  # smallest normal double
    exceeds = measured > bound1 + BOUND_CHECK_SLACK
    lower = 2.0 * tails
    below = lower > bound1 * (1.0 + LOWER_BOUND_RELATIVE_SLACK)
    failing = undefined | residue | exceeds | below
    if failing.any():
        g = int(failing.argmax())
        n = n_list[g]
        if undefined[g]:
            cert.value_at(n)  # raises
        if residue[g]:
            raise _residue(n, ms[g], minima[g])
        if exceeds[g]:
            raise BoundViolationError(
                f"n={n}: measured error {measured[g]:.6e} exceeds "
                f"certified bound {bound1[g]:.6e}"
            )
        raise BoundViolationError(
            f"n={n}: twice the stationary mass above n, {lower[g]:.6e}, a lower bound "
            f"on the error, exceeds certified bound {bound1[g]:.6e}"
        )
    return [
        BoundReport(n, m, b2, b1, error, reference_level)
        for n, m, b2, b1, error in zip(
            n_list, ms, bound2.tolist(), bound1.tolist(), measured.tolist()
        )
    ]
