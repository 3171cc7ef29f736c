"""Output checks for one op. Any error string makes the op count as failed.

The checks need nothing from `bmtrunc`: they parse the CLI's stdout and hold
it against invariants that hold for any correct build, and against the
certified bounds recorded for the fixed models (baseline_bounds.json), which
may get tighter but not looser.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from perfbench.workloads import Op

BOUND_SLACK = 1e-9
WALK_TOLERANCE = 1e-12
BASELINE_PATH = Path(__file__).with_name("baseline_bounds.json")
BASELINE_SLACK = 1e-9
REPORT_COLUMNS = ["n", "m_star", "bound1", "bound2", "measured_error", "reference_level"]


def walk_error(n: int) -> float:
    """Exact TV error of the level-n LCB truncation of walk_d1 (up 0.4, down 0.6).

    The truncation is a birth-death chain with pi_n(k) proportional to (2/3)^k
    on 0..n, so |pi_n - pi| sums to twice the infinite tail beyond n.
    """
    return 2.0 * (2.0 / 3.0) ** (n + 1)


def geomean(values: list[float]) -> float | None:
    if not values or min(values) <= 0.0:
        return None
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def load_baseline() -> dict[str, dict[str, float]]:
    """Recorded bound geomeans of the fixed-model ops, keyed by Op.key."""
    return json.loads(BASELINE_PATH.read_text())


def check_baseline(op: Op, rows: list[dict], baseline: dict) -> list[str]:
    """The op's bound1/bound2 geomeans are no looser than the recorded ones."""
    errors = []
    for column, pinned in baseline.get(op.key, {}).items():
        value = geomean([r[column] for r in rows])
        if value is None or value > pinned * (1.0 + BASELINE_SLACK):
            errors.append(f"{column} geomean {value!r} is looser than the recorded {pinned!r}")
    return errors


def parse_report(text: str) -> list[dict]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != REPORT_COLUMNS:
        raise ValueError(f"unexpected report header {header}")
    rows = []
    for cells in reader:
        row = dict(zip(REPORT_COLUMNS, cells))
        rows.append(
            {
                "n": int(row["n"]),
                "m": int(row["m_star"]),
                "bound1": float(row["bound1"]) if row["bound1"] else None,
                "bound2": float(row["bound2"]),
                "measured": float(row["measured_error"]) if row["measured_error"] else None,
            }
        )
    return rows


def _check_rows(op: Op, rows: list[dict]) -> list[str]:
    errors = []
    if [r["n"] for r in rows] != op.n_values:
        errors.append(f"rows cover n={[r['n'] for r in rows]}, requested {op.n_values}")
    for r in rows:
        if r["m"] < 1:
            errors.append(f"n={r['n']}: m={r['m']} < 1")
        if not (math.isfinite(r["bound2"]) and r["bound2"] > 0.0):
            errors.append(f"n={r['n']}: bound2={r['bound2']} is not a positive number")
    return errors


def check_compare(op: Op, rows: list[dict]) -> list[str]:
    errors = _check_rows(op, rows)
    for r in rows:
        measured, b1, b2 = r["measured"], r["bound1"], r["bound2"]
        if measured is None or b1 is None:
            errors.append(f"n={r['n']}: measured error or bound1 missing")
            continue
        if not measured <= b1 + BOUND_SLACK:
            errors.append(f"n={r['n']}: measured {measured!r} > bound1 {b1!r}")
        if not b1 <= b2 + BOUND_SLACK:
            errors.append(f"n={r['n']}: bound1 {b1!r} > bound2 {b2!r}")
        if op.model == "walk_d1" and not abs(measured - walk_error(r["n"])) <= WALK_TOLERANCE:
            errors.append(
                f"n={r['n']}: measured {measured!r} is not the closed form {walk_error(r['n'])!r}"
            )
    return errors


def check_bound(op: Op, rows: list[dict]) -> list[str]:
    errors = _check_rows(op, rows)
    for prev, cur in zip(rows, rows[1:]):
        if cur["bound2"] > prev["bound2"]:
            errors.append(f"bound2 rises from n={prev['n']} to n={cur['n']}")
    return errors


def check_validate(report: dict, expected_path: str) -> list[str]:
    if report.get("path") != expected_path:
        return [f"path {report.get('path')!r}, expected {expected_path!r}"]
    return []


def check_couple(summary: dict) -> list[str]:
    return [
        f"{kind}: ordering not ok"
        for kind in ("monotone", "dominance")
        if summary.get(kind, {}).get("ordering_ok") is not True
    ]


def check_op(
    op: Op, code, stdout: str, expected_path: str, baseline: dict | None = None
) -> tuple[list[str], dict]:
    """Errors found in one op's result, and the figures it contributes.

    The figures are `rows` (bound and compare rows parsed from stdout) and
    `steps` (coupled path-steps simulated).
    """
    if code != 0:
        return [f"exit code {code}"], {}
    try:
        if op.command in ("compare", "bound"):
            rows = parse_report(stdout)
            check = check_compare if op.command == "compare" else check_bound
            return check(op, rows) + check_baseline(op, rows, baseline or {}), {"rows": rows}
        doc = json.loads(stdout)
        if op.command == "validate":
            return check_validate(doc, expected_path), {}
        return check_couple(doc), {"steps": 2 * int(doc["paths"]) * int(doc["steps"])}
    except (ValueError, KeyError, TypeError, StopIteration) as exc:
        return [f"unparsable output: {exc!r}"], {}
