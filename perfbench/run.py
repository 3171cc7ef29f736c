"""bmtrunc benchmark: the four CLI commands, in-process, on generated model files.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is compare-levels, compare-phases or certify-couple (see
perfbench/workloads.py and perfbench/README.md), or `all`, which runs the
three in turn, each in a fresh process.

The seed generates the model files (perfbench/models.py), which are the
program's only input. One client runs the workload's ops one after another
(a closed loop), in passes, until S seconds have gone and at least two passes
are done. Every op's stdout is checked (perfbench/checks.py) and must be
byte-identical across passes.

--trace 0 prints the end-to-end metrics, measured with tracing off.
--trace 1 cycles through plain passes, span passes and memory passes (see
perfbench/tracing.py) and prints the per-layer metrics and the tracing
overhead: span-pass and memory-pass wall time over plain-pass wall time.

A readable table comes first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. The full record (machine,
versions, seed, model file hashes, every pass) goes to
.perfbench_out/results/, traced spans to .perfbench_out/traces/.
"""

from __future__ import annotations

import os

# BLAS must be pinned to one thread before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import envinfo, models  # noqa: E402
from perfbench.checks import check_op, geomean, load_baseline  # noqa: E402
from perfbench.tracing import LAYER_METRICS, LAYER_SUMS, Tracer, layer_shares, layer_totals  # noqa: E402
from perfbench.workloads import WORKLOADS, Op, reference_levels  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_PASSES = 2

# Every end-to-end metric the table shows: name -> (unit, better).
# BENCHMARK.json gates the ones every workload has: setup_s, pass_s and
# peak_rss_mb.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "validate_per_s": ("models/s", "higher"),
    "bound_rows_per_s": ("rows/s", "higher"),
    "compare_rows_per_s": ("rows/s", "higher"),
    "couple_steps_per_s": ("path-steps/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("ratio", "lower"),
    "bound1_geomean": ("1", "lower"),
    "bound2_geomean": ("1", "lower"),
}
GATED = ("setup_s", "pass_s", "peak_rss_mb")
# Throughput metric -> (command, what one unit of work is).
RATES = {
    "validate_per_s": ("validate", "ops"),
    "bound_rows_per_s": ("bound", "rows"),
    "compare_rows_per_s": ("compare", "rows"),
    "couple_steps_per_s": ("couple", "steps"),
}


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import bmtrunc from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "bmtrunc" / "__init__.py").is_file():
        _fail(f"no bmtrunc package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bmtrunc

    if Path(bmtrunc.__file__).resolve().parent != (SRC / "bmtrunc").resolve():
        _fail(f"bmtrunc imported from {bmtrunc.__file__}, not from {SRC}")


@dataclass
class OpResult:
    op: Op
    seconds: float
    errors: list[str]
    stderr: str = ""
    rows: list[dict] = field(default_factory=list)
    steps: int = 0


PASS_KINDS = ("plain", "spans", "memory")


@dataclass
class Pass:
    seconds: float
    kind: str  # one of PASS_KINDS
    ops: list[OpResult]


class Runner:
    """Runs one workload's ops against generated files and checks each output."""

    def __init__(self, workload, files):
        from bmtrunc import cli

        self.workload = workload
        self.files = files
        self.main = cli.main
        self.baseline = load_baseline()
        self.digests: dict[int, str] = {}
        self.passes: list[Pass] = []

    def run_op(self, index: int, op, tracer=None) -> OpResult:
        model = self.files[op.model]
        out, err = io.StringIO(), io.StringIO()
        span = tracer.begin(f"cli.{op.command}") if tracer else None
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.main(op.argv(str(model.path)))
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            code = f"uncaught {exc!r}"
        finally:
            seconds = time.perf_counter() - start
            if span:
                tracer.end(span)
        stdout = out.getvalue()
        errors, figures = check_op(op, code, stdout, model.expected_path, self.baseline)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            errors.append("stdout differs from the first pass")
        stderr = err.getvalue().strip()[-500:] if errors else ""
        return OpResult(op, seconds, errors, stderr, figures.get("rows", []), figures.get("steps", 0))

    def run_pass(self, kind: str = "plain", tracer=None) -> Pass:
        start = time.perf_counter()
        ops = [self.run_op(i, op, tracer) for i, op in enumerate(self.workload.ops)]
        done = Pass(time.perf_counter() - start, kind, ops)
        self.passes.append(done)
        return done

    def of_kind(self, kind: str) -> list[Pass]:
        return [p for p in self.passes if p.kind == kind]

    @property
    def ops(self) -> list[OpResult]:
        return [op for p in self.passes for op in p.ops]


def pass_rates(p: Pass) -> dict[str, float]:
    """Throughput of each command present in the pass, over its wall time."""
    rates = {}
    for metric, (command, unit) in RATES.items():
        ops = [r for r in p.ops if r.op.command == command]
        if not ops:
            continue
        work = {"ops": len(ops), "rows": sum(len(r.rows) for r in ops), "steps": sum(r.steps for r in ops)}
        rates[metric] = work[unit] / sum(r.seconds for r in ops)
    return rates


def quality(p: Pass) -> dict[str, float | None]:
    """Geometric means of the certified bounds reported in one pass."""
    compare = [row for r in p.ops if r.op.command == "compare" for row in r.rows]
    bound = [row for r in p.ops if r.op.command == "bound" for row in r.rows]
    return {
        "bound1_geomean": geomean([r["bound1"] for r in compare]),
        "bound2_geomean": geomean([r["bound2"] for r in compare + bound]),
    }


def pin_threads(workload) -> dict[str, str]:
    """Set BMTRUNC_THREADS for the workload, at most nproc; return the environment."""
    os.environ.pop("BMTRUNC_THREADS", None)
    if workload.threads is not None:
        os.environ["BMTRUNC_THREADS"] = str(min(workload.threads, envinfo.nproc()))
    return dict(os.environ)


def measure_setup(workload, files, env, repeats: int = SETUP_REPEATS) -> tuple[list[float], list[str]]:
    """Wall time of `repeats` fresh set-ups, and the errors they hit."""
    first = workload.ops[0]
    warmup = ["--model", str(files[first.model].path), "--command", "validate"]
    argv = [sys.executable, str(Path(__file__).with_name("probe_setup.py")), str(SRC)]
    argv += [str(files[name].path) for name in sorted({op.model for op in workload.ops})]
    argv += ["--", *warmup]
    times, errors = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            errors.append(f"set-up exited {done.returncode}: {done.stderr.strip()[-500:]}")
    return times, errors


def run_workload(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    min_passes: int = MIN_PASSES,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Generate inputs, measure one workload, and return the full record.

    min_passes and setup_repeats are lowered only by the self-tests' smoke runs.
    """
    files = models.generate(seed, OUT / "models" / f"seed{seed}", reference_levels())
    env = pin_threads(workload)
    setup_times, setup_errors = ([], []) if trace else measure_setup(workload, files, env, setup_repeats)

    runner = Runner(workload, files)
    first = workload.ops[0]
    # Lazy set-up inside the program is paid here, not by the first timed pass.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        runner.main(["--model", str(files[first.model].path), "--command", "validate"])

    kinds = PASS_KINDS if trace else ("plain",)
    tracers: dict[str, list] = {"spans": [], "memory": []}
    start = time.perf_counter()
    while True:
        done = [len(runner.of_kind(k)) for k in kinds]
        enough = min(done) >= (1 if trace else min_passes)
        if enough and time.perf_counter() - start >= seconds:
            break
        kind = kinds[done.index(min(done))]
        if kind == "plain":
            runner.run_pass()
        else:
            tracer = Tracer(memory=kind == "memory")
            tracers[kind].append(tracer)
            with tracer:
                runner.run_pass(kind, tracer)
    elapsed = time.perf_counter() - start

    plain = runner.of_kind("plain")
    ops = runner.ops
    failures = [{"op": "set-up", "errors": [e]} for e in setup_errors]
    failures += [{"op": r.op.key, "errors": r.errors, "stderr": r.stderr} for r in ops if r.errors]
    attempted = len(ops) + len(setup_times)
    failed = sum(1 for op in ops if op.errors) + len(setup_errors)
    per_pass = [pass_rates(p) for p in plain]

    metrics: dict[str, float | None] = dict.fromkeys(END_TO_END)
    if setup_times:
        metrics["setup_s"] = statistics.median(setup_times)
    metrics["pass_s"] = statistics.median(p.seconds for p in plain)
    for name in RATES:
        values = [r[name] for r in per_pass if name in r]
        metrics[name] = statistics.median(values) if values else None
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["failed_frac"] = failed / attempted
    metrics.update(quality(plain[0]))

    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "threads": env.get("BMTRUNC_THREADS"),
        "env": envinfo.collect(ROOT),
        "models": {m.name: {"sha256": m.sha256, "expected_path": m.expected_path} for m in files.values()},
        "elapsed_s": elapsed,
        "setup_s_samples": setup_times,
        "passes": [
            {"seconds": p.seconds, "kind": p.kind, "op_seconds": [op.seconds for op in p.ops]}
            for p in runner.passes
        ],
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
    }
    if trace:
        record["per_layer"], record["per_layer_sums"] = per_layer(runner, tracers, metrics["pass_s"])
        spans_path = OUT / "traces" / f"{workload.name}-seed{seed}.jsonl"
        write_spans(spans_path, tracers)
        record["trace_file"] = str(spans_path.relative_to(ROOT))
    return record


def per_layer(runner: Runner, tracers: dict[str, list], plain_s: float) -> tuple[dict, dict]:
    """Median per-pass layer metrics and the overheads, and the raw sums.

    Busy and self shares come from span passes, *.peak_mb from memory passes.
    """
    sums = [layer_totals(t.spans) for t in tracers["spans"]]
    shares = [layer_shares(t, p.seconds) for t, p in zip(sums, runner.of_kind("spans"))]
    memory = [layer_totals(t.spans) for t in tracers["memory"]]
    out = {
        k: statistics.median(t[k] for t in (memory if k.endswith(".peak_mb") else shares))
        for k in LAYER_METRICS
    }
    for kind in ("spans", "memory"):
        out[f"trace.{kind}_overhead_ratio"] = statistics.median(p.seconds for p in runner.of_kind(kind)) / plain_s
    return out, {k: statistics.median(t[k] for t in sums) for k in LAYER_SUMS}


def write_spans(path: Path, tracers: dict[str, list]):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for kind, kind_tracers in tracers.items():
            for i, t in enumerate(kind_tracers):
                for sp in t.spans:
                    row = {"pass": f"{kind}{i}", "id": sp.id, "name": sp.name, "parent": sp.parent}
                    row.update(thread=sp.thread, start=sp.start, end=sp.end, **sp.attrs)
                    fh.write(json.dumps(row) + "\n")


def layer_units() -> dict[str, str]:
    return {**LAYER_METRICS, "trace.spans_overhead_ratio": "ratio", "trace.memory_overhead_ratio": "ratio"}


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def table(record: dict) -> list[str]:
    head = (
        f"== {record['workload']}  seed={record['seed']}  passes={len(record['passes'])}  "
        f"BMTRUNC_THREADS={record['threads'] or 'unset'}  trace={record['trace']}"
    )
    lines = [head]
    if record["trace"]:
        sums = record["per_layer_sums"]
        for name, unit in layer_units().items():
            seconds = sums.get(name.replace("_share", "_s"))
            note = "" if seconds is None or not name.endswith("_share") else f"  ({seconds:.4g} s per pass)"
            lines.append(f"  {name:<45} {_fmt(record['per_layer'][name]):>14} {unit}{note}")
    else:
        for name, (unit, better) in END_TO_END.items():
            value = record["metrics"][name]
            lines.append(f"  {name:<20} {_fmt(value):>14} {unit:<13} ({better} is better)")
    for failure in record["failures"][:10]:
        lines.append(f"  FAILED {failure['op']}: {'; '.join(failure['errors'])[:300]}")
    return lines


def result_line(record: dict) -> dict:
    if record["trace"]:
        chosen = {name: (record["per_layer"][name], unit) for name, unit in layer_units().items()}
    else:
        chosen = {name: (record["metrics"][name], END_TO_END[name][0]) for name in GATED}
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }


def run_all(args) -> int:
    """Each workload in a fresh process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(table(record)))
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
