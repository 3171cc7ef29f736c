"""Span tracing of `bmtrunc` layers, wrapped from outside the package.

The tracer replaces each public function where its caller looks it up (the
`stationary` that `drift_bounds.compare_against_oracle` calls is
`drift_bounds.stationary`, the `perron` that `find_alpha` calls is
`gig1.perron`, and so on) with a wrapper that records a span, and puts every
original back on exit. The package source is not touched.

A span records name, start, end, parent, thread and a few sizes. Spans stay
in memory until the run ends. The parent of a span is the innermost open
span on its thread; the first span on a worker thread gets the innermost
open span of the thread that started tracing, which is the call that
spawned the worker pool.

Memory figures come from tracemalloc. It roughly doubles the time of an
allocation-heavy call such as `stationary`, so a Tracer(memory=True) is used
on passes of their own, whose times are not reported. There tracemalloc runs
only while a call wrapped with memory=True is open, and such a call reports
the peak of traced memory above the level at its start. Calls overlapping on
two threads share one peak counter, so their figures are upper bounds.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _n_levels(args, kwargs, result):
    return {"level": int(args[1] if len(args) > 1 else kwargs["n"])}


def _states(args, kwargs, result):
    return {"states": int(result.values.shape[0])}


def _matrix_states(args, kwargs, result):
    P = args[0]
    return {"states": int(P.values.shape[0]), "level": int(P.levels) - 1}


def _reference(args, kwargs, result):
    return {"reference_level": int(kwargs["reference_level"])}


def _bytes(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _steps(args, kwargs, result):
    return {"steps": int(kwargs["T"]) * int(kwargs["paths"])}


class Tracer:
    """Records spans around the wrapped calls between install() and restore()."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []
        self._memory_spans = 0

    def _stack(self) -> list[Span]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def begin(self, name: str, memory: bool = False) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].id if home and threading.get_ident() != self._home else None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(), 0.0)
            self.spans.append(span)
        if memory and self.memory:
            with self._lock:
                if self._memory_spans == 0:
                    tracemalloc.start()
                self._memory_spans += 1
                span.attrs["mem_base"] = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        if "mem_base" in span.attrs:
            with self._lock:
                peak = tracemalloc.get_traced_memory()[1]
                span.attrs["peak_bytes"] = max(0, peak - span.attrs.pop("mem_base"))
                self._memory_spans -= 1
                if self._memory_spans == 0:
                    tracemalloc.stop()

    def wrap(self, owner, attr: str, name: str, sizes=None, memory: bool = False):
        """Replace owner.attr by a spanned wrapper until restore()."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.begin(name, memory)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if sizes is not None:
                span.attrs.update(sizes(args, kwargs, result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced layer entry point at its call sites."""
        from bmtrunc import cli, coupling, drift_bounds, gig1
        from bmtrunc.gig1 import GIG1Model

        w = self.wrap
        w(cli, "load_model", "model_io.load_model")
        for attr in ("render_json", "reports_to_csv", "reports_to_json"):
            w(cli, attr, "model_io.render", _bytes)
        w(cli, "certificate_for_model", "gig1.certificate_for_model")
        w(cli, "find_alpha", "gig1.find_alpha")  # validate's second search
        w(gig1, "find_alpha", "gig1.find_alpha")  # the search in mg1_certificate and build_certificate_gig1
        w(gig1, "perron", "gig1.perron")
        w(GIG1Model, "truncate", "gig1.truncate", _states)
        w(GIG1Model, "verify_drift", "gig1.verify_drift")
        w(cli, "compare_against_oracle", "drift_bounds.compare_against_oracle", _reference)
        w(cli, "optimize_m", "drift_bounds.optimize_m")
        w(drift_bounds, "optimize_m", "drift_bounds.optimize_m")
        w(drift_bounds, "bound_theorem31", "drift_bounds.bound_theorem31")
        w(cli, "lcb_truncate", "block_matrix.lcb_truncate", _n_levels)
        w(drift_bounds, "lcb_truncate", "block_matrix.lcb_truncate", _n_levels)
        w(drift_bounds, "stationary", "block_matrix.stationary", _matrix_states, memory=True)
        w(drift_bounds, "tv_distance", "block_matrix.tv_distance")
        w(cli, "is_block_monotone", "block_matrix.is_block_monotone")
        w(coupling, "is_block_monotone", "block_matrix.is_block_monotone")
        steps = functools.partial(self.wrap, sizes=_steps, memory=True)
        steps(cli, "run_coupled_monotone_batch", "coupling.monotone_batch")
        steps(cli, "run_coupled_dominance_batch", "coupling.dominance_batch")

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


# Per-layer sums of one pass: name -> unit. Layers a workload never reaches
# read 0. The *.peak_mb figures come from memory passes, the rest from span
# passes.
LAYER_SUMS = {
    "model_io.load_model.calls": "count",
    "model_io.load_model.busy_s": "s",
    "model_io.render.busy_s": "s",
    "model_io.render.bytes": "B",
    "gig1.certificate_for_model.busy_s": "s",
    "gig1.find_alpha.calls": "count",
    "gig1.find_alpha.busy_s": "s",
    "gig1.perron.calls": "count",
    "gig1.perron.busy_s": "s",
    "gig1.verify_drift.busy_s": "s",
    "gig1.truncate.calls": "count",
    "gig1.truncate.busy_s": "s",
    "gig1.truncate.states": "count",
    "drift_bounds.compare_against_oracle.busy_s": "s",
    "drift_bounds.compare_against_oracle.self_s": "s",
    "drift_bounds.reference_solve.busy_s": "s",
    "drift_bounds.reference_solve.states": "count",
    "drift_bounds.per_n_solve.busy_s": "s",
    "drift_bounds.optimize_m.calls": "count",
    "drift_bounds.optimize_m.busy_s": "s",
    "drift_bounds.bound_theorem31.calls": "count",
    "block_matrix.lcb_truncate.busy_s": "s",
    "block_matrix.stationary.calls": "count",
    "block_matrix.stationary.busy_s": "s",
    "block_matrix.stationary.states": "count",
    "block_matrix.stationary.peak_mb": "MB",
    "block_matrix.tv_distance.busy_s": "s",
    "block_matrix.is_block_monotone.busy_s": "s",
    "coupling.monotone_batch.busy_s": "s",
    "coupling.dominance_batch.busy_s": "s",
    "coupling.steps": "count",
    "coupling.peak_mb": "MB",
    "cli.self_s": "s",
    "cli.validate.busy_s": "s",
    "cli.bound.busy_s": "s",
    "cli.compare.busy_s": "s",
    "cli.couple.busy_s": "s",
}

def _reported(name: str, unit: str) -> tuple[str, str]:
    """A time sum X_s is reported as X_share: its share of the pass's wall time.

    A share is steadier than seconds while the host's speed drifts, and an
    unreached layer's 0 is then not a time that reads the same on every run.
    Shares exceed 1 when calls overlap on two threads.
    """
    return (name[: -len("_s")] + "_share", "ratio") if unit == "s" else (name, unit)


# The reported per-layer metrics: name -> unit.
LAYER_METRICS = dict(_reported(name, unit) for name, unit in LAYER_SUMS.items())


def layer_shares(sums: dict[str, float], pass_seconds: float) -> dict[str, float]:
    """Turn one pass's LAYER_SUMS into LAYER_METRICS."""
    return {
        _reported(name, unit)[0]: sums[name] / pass_seconds if unit == "s" else sums[name]
        for name, unit in LAYER_SUMS.items()
    }


_SOLVE_STEPS = ("block_matrix.lcb_truncate", "block_matrix.stationary")


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Sum the spans into LAYER_SUMS.

    busy_s sums span durations, so calls running on two threads at once
    both count. self_s is a span's duration minus the union of its
    children's intervals. A solve inside compare_against_oracle is a
    reference solve when its level reaches the call's reference level, and a
    per-n solve otherwise.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = dict.fromkeys(LAYER_SUMS, 0.0)

    def add(key: str, value: float):
        out[key] += value

    def self_time(s: Span) -> float:
        return s.duration - _covered([(c.start, c.end) for c in children.get(s.id, [])])

    def enclosing(s: Span, name: str) -> Span | None:
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return s
        return None

    for s in spans:
        name = s.name
        if name.startswith("cli."):
            add(f"{name}.busy_s", s.duration)
            add("cli.self_s", self_time(s))
            continue
        if f"{name}.calls" in out:
            add(f"{name}.calls", 1)
        if f"{name}.busy_s" in out:
            add(f"{name}.busy_s", s.duration)
        if name == "drift_bounds.compare_against_oracle":
            add(f"{name}.self_s", self_time(s))
        if name == "model_io.render":
            add("model_io.render.bytes", s.attrs.get("bytes", 0))
        if name == "gig1.truncate":
            add("gig1.truncate.states", s.attrs.get("states", 0))
        if name == "block_matrix.stationary":
            add("block_matrix.stationary.states", s.attrs.get("states", 0))
            peak = s.attrs.get("peak_bytes", 0) / 2**20
            out["block_matrix.stationary.peak_mb"] = max(out["block_matrix.stationary.peak_mb"], peak)
        if name.startswith("coupling."):
            add("coupling.steps", s.attrs.get("steps", 0))
            out["coupling.peak_mb"] = max(out["coupling.peak_mb"], s.attrs.get("peak_bytes", 0) / 2**20)
        if name in _SOLVE_STEPS:
            compare = enclosing(s, "drift_bounds.compare_against_oracle")
            if compare is not None:
                ref = compare.attrs.get("reference_level")
                level = s.attrs.get("level", -1)
                kind = "reference_solve" if ref is not None and level >= ref else "per_n_solve"
                add(f"drift_bounds.{kind}.busy_s", s.duration)
                if name == "block_matrix.stationary" and kind == "reference_solve":
                    add("drift_bounds.reference_solve.states", s.attrs.get("states", 0))
    return out
