"""Acceptance gate: the seven desk-scale checks, one pass/fail line each.

Each test prints a single [ok]/[FAIL] line (visible under pytest -s, or in
the captured output of a failing test) in addition to its pytest verdict.
"""

import math
import time

import numpy as np
import pytest

from bmtrunc import (
    BlockVector,
    assemble,
    block_dominates,
    bound_theorem31,
    certificate_for_model,
    compare_against_oracle,
    find_alpha,
    is_block_increasing,
    is_block_monotone,
    lcb_truncate,
    optimize_m,
    run_coupled_dominance_batch,
    run_coupled_monotone_batch,
    stationary,
    vector_dominates,
    verify_certificate,
)
from bmtrunc.gig1 import PATH_BOUNDARY_LIFT, PATH_SKIP_FREE

from helpers import (
    acceptance_models,
    dense,
    gig1_d2,
    mg1_d2,
    mg1_walk,
    natural_walk,
    oracle_block_monotone,
    oracle_dominates,
    random_block_increasing,
    random_bm_corner,
    random_corner,
    random_dominated_corner,
    random_dominated_vectors,
    random_monotone_gig1,
)


def report_line(ok: bool, label: str, detail: str = ""):
    tag = "ok" if ok else "FAIL"
    suffix = f": {detail}" if detail else ""
    print(f"[{tag}] {label}{suffix}")


def test_criterion_1_soundness_sweep():
    started = time.perf_counter()
    ns = [10, 20, 50]
    for name, model, dominating in acceptance_models():
        if dominating is None:
            _, _, cert = certificate_for_model(model)
            reports = compare_against_oracle(model, ns, cert, reference_level=400)
        else:
            _, _, cert = certificate_for_model(dominating)
            reports = compare_against_oracle(
                model, ns, cert,
                reference_level=400,
                dominating=assemble(dominating, model.levels),
            )
        for r in reports:
            assert r.measured_error <= r.bound1 <= r.bound2, (name, r.n)
    elapsed = time.perf_counter() - started
    report_line(True, "criterion 1 soundness sweep",
                f"5 models, n in {ns}, zero violations, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_2_worked_example_certificate():
    model = mg1_walk()
    alpha, point = find_alpha(model)
    assert abs(alpha - math.sqrt(1.5)) <= 1e-9
    assert abs(point.delta - 0.979796) <= 1e-6
    path, _, cert = certificate_for_model(model)
    assert path == PATH_SKIP_FREE
    assert abs(cert.gamma - 0.979796) <= 1e-6
    assert abs(cert.b - 0.224745) <= 1e-6
    reports = compare_against_oracle(model, [50], cert, m_max=2000, reference_level=400)
    assert reports[0].measured_error <= 1e-6
    report_line(True, "criterion 2 worked example",
                f"alpha={alpha:.12f}, delta={point.delta:.6f}, "
                f"(gamma, b)=({cert.gamma:.6f}, {cert.b:.6f}), "
                f"measured@n=50 {reports[0].measured_error:.2e}")


def test_criterion_2_scan_regression():
    # guards the actual scan optimum so the window failure below stays explained
    _, _, cert = certificate_for_model(mg1_walk())
    m_star, best = optimize_m(cert, 50, m_max=2000)
    assert (m_star, best) == (340, 0.34265004588266557)
    report_line(True, "criterion 2 scan regression",
                f"direct bound2 scan minimum pinned at (m*={m_star}, {best:.17g})")


def test_criterion_2_worked_example_window():
    _, _, cert = certificate_for_model(mg1_walk())
    m_star, best = optimize_m(cert, 50, m_max=2000)
    ok = 400 <= m_star <= 600 and 0.40 <= best <= 0.50
    report_line(ok, "criterion 2 window",
                f"observed (m*={m_star}, bound2={best:.17g}) "
                "against m* in [400, 600], bound2 in [0.40, 0.50]")
    assert ok, (
        f"bound2 scan minimum at n=50, m_max=2000 is (m*={m_star}, bound2={best:.17g}). "
        "The stated window matches the value reported when the bound1 optimization "
        "runs into its default scan cap and bound2 is then evaluated at that m "
        "(m=500, bound2=0.44216797663967951); the direct bound2 scan minimum is "
        "smaller and sits outside the window."
    )


def test_criterion_3_ordering_property_suites():
    rng = np.random.default_rng(20260814)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        levels = int(rng.integers(2, 9))
        S = random_bm_corner(rng, d, levels)
        assert is_block_monotone(S) and oracle_block_monotone(S)
        G = random_corner(rng, d, levels)
        assert is_block_monotone(G) == oracle_block_monotone(G)
        low = random_dominated_corner(rng, S)
        assert block_dominates(low, S) and oracle_dominates(low, S)
        assert block_dominates(G, S) == oracle_dominates(G, S)
        mu, eta = random_dominated_vectors(rng, d, levels)
        mu_next = BlockVector(d, (mu.flat @ dense(S)).reshape(levels, d))
        eta_next = BlockVector(d, (eta.flat @ dense(S)).reshape(levels, d))
        assert vector_dominates(mu_next, eta_next, tol=1e-9)
        f = random_block_increasing(rng, d, levels)
        image = BlockVector(d, (dense(S) @ f.flat).reshape(levels, d))
        assert is_block_increasing(image, tol=1e-9)
    report_line(True, "criterion 3 ordering properties",
                "200 instances, d in {1,2,3}, levels <= 8, transform-product oracle")


def test_criterion_4_phase_marginal_invariance():
    models = [
        ("d1-boundary-mix", natural_walk()),
        ("d1-skip-free", mg1_walk()),
        ("d2-skip-free", mg1_d2()),
        ("d2-general", gig1_d2()),
        ("random-monotone", random_monotone_gig1()),
    ]
    worst = 0.0
    for name, model in models:
        varpi = model.phase_matrix().varpi
        for n in (5, 20, 50):
            pi_hat = stationary(model.truncate(n))
            gap = float(np.abs(pi_hat.entries.sum(axis=0) - varpi).max())
            worst = max(worst, gap)
            assert gap <= 1e-9, (name, n, gap)
    report_line(True, "criterion 4 marginal invariance",
                f"max phase-marginal deviation {worst:.2e}")


def test_criterion_5_certificate_round_trips():
    cases = [
        ("boundary-lift", natural_walk(), PATH_BOUNDARY_LIFT),
        ("skip-free", mg1_walk(), PATH_SKIP_FREE),
        ("d2-skip-free", mg1_d2(), PATH_SKIP_FREE),
        ("d2-general", gig1_d2(), PATH_BOUNDARY_LIFT),
        ("random-monotone", random_monotone_gig1(), None),
    ]
    for name, model, want in cases:
        path, _, cert = certificate_for_model(model)
        if want is not None:
            assert path == want, name
        check = verify_certificate(assemble(model, 200), cert)
        assert check.ok and not check.violations, (name, check.violations[:5])
    report_line(True, "criterion 5 certificate round-trips",
                "both construction paths verify on 200-level corners, zero violating rows")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_6_coupling_suite():
    corner = mg1_d2().truncate(30)
    mono = run_coupled_monotone_batch(corner, 0, 30, j0=0, T=1000, seed=101, paths=1000)
    assert mono.levels_low.shape == (1000, 1001)
    assert np.all(mono.levels_low <= mono.levels_high)
    small = lcb_truncate(corner, 15)
    dom = run_coupled_dominance_batch(small, corner, 0, 0, j0=0, T=1000, seed=202, paths=1000)
    assert np.all(dom.levels_low <= dom.levels_high)

    paths = 100_000
    walk = natural_walk().truncate(3)
    ens = run_coupled_monotone_batch(walk, 1, 1, j0=0, T=1, seed=7, paths=paths)
    for level, p in ((0, 0.6), (2, 0.4)):
        freq = float(np.mean(ens.levels_low[:, 1] == level))
        sigma = math.sqrt(p * (1.0 - p) / paths)
        assert abs(freq - p) <= 3.0 * sigma, (level, freq)

    corner4 = mg1_d2().truncate(4)
    d = corner4.d
    ens2 = run_coupled_monotone_batch(corner4, 2, 2, j0=0, T=1, seed=11, paths=paths)
    row = dense(corner4)[2 * d + 0]
    levels1, phases1 = ens2.levels_low[:, 1], ens2.phases[:, 1]
    for idx, p in enumerate(row):
        level, j = divmod(idx, d)
        freq = float(np.mean((levels1 == level) & (phases1 == j)))
        if p == 0.0:
            assert freq == 0.0
        else:
            sigma = math.sqrt(p * (1.0 - p) / paths)
            assert abs(freq - p) <= 3.0 * sigma, (level, j, freq, p)
    report_line(True, "criterion 6 coupling suite",
                "ordering held on 10^3 paths x 10^3 steps (both configurations); "
                "one-step marginals within 3 sigma at 10^5 samples")


def test_criterion_7_bound_decay():
    model = natural_walk()
    _, _, cert = certificate_for_model(model)
    m20, best20 = optimize_m(cert, 20)
    m100, best100 = optimize_m(cert, 100)
    assert best100 < best20
    for n in (10, 20, 50, 100):
        top = stationary(model.truncate(n)).entries[-1]
        for m in [*range(1, 400, 13), m20, m100]:
            r = bound_theorem31(cert, m, n, top_mass=top)
            assert r.bound1 <= r.bound2, (n, m)
    report_line(True, "criterion 7 bound decay",
                f"min bound2 improves with n: {best20:.4g} (n=20) -> {best100:.4g} (n=100); "
                "bound1 <= bound2 at every evaluated (n, m)")
