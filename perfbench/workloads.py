"""The three workloads: fixed op lists of `bmtrunc` CLI invocations.

One op is one CLI invocation. A pass runs a workload's ops in order, one at
a time (a closed loop with one client); a run repeats passes. Every rate the
benchmark reports is taken over whole passes, so it repeats from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# The CLI resolves the default reference level as 8 * max(n).
REFERENCE_FACTOR = 8


@dataclass(frozen=True)
class Op:
    command: str
    model: str
    n: str = "10"

    @property
    def key(self) -> str:
        return f"{self.command} {self.model} {self.n}"

    def argv(self, model_path: str) -> list[str]:
        return ["--model", model_path, "--command", self.command, "--n", self.n]

    @property
    def n_values(self) -> list[int]:
        """The distinct requested n, parsed here so the checks do not trust the CLI's parser."""
        values: list[int] = []
        for token in self.n.split(","):
            parts = [int(p) for p in token.split(":")]
            if len(parts) == 1:
                values.append(parts[0])
            else:
                step = parts[2] if len(parts) == 3 else 1
                values.extend(range(parts[0], parts[1] + 1, step))
        return sorted(set(values))


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int | None  # BMTRUNC_THREADS, or None to leave it unset
    ops: tuple[Op, ...]
    why: str


MODELS = ("walk_d1", "slow_d1", "mg1_d2", "gig1_d2", "finite_d2", "rand_d2", "rand_d8")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-levels",
            threads=None,
            ops=(
                Op("compare", "walk_d1", "10:200:10"),
                Op("compare", "mg1_d2", "10:150:10"),
                Op("compare", "gig1_d2", "10,20,50,100"),
                Op("compare", "rand_d2", "10:100:10"),
            ),
            why=(
                "compare on d<=2 chains with many levels: dense stationary solves of up to "
                "4800 states dominate, where a banded solver or an exact oracle acts"
            ),
        ),
        Workload(
            name="compare-phases",
            threads=2,
            ops=(Op("compare", "rand_d8", "10:40:5"),),
            why=(
                "compare on a d=8 skip-free chain with few levels and wide blocks, "
                "through the per-n thread pool: d^3 block work outweighs per-level overhead"
            ),
        ),
        Workload(
            name="certify-couple",
            threads=None,
            ops=tuple(Op("validate", m) for m in MODELS)
            + (
                Op("bound", "slow_d1", "5:2000"),
                Op("bound", "mg1_d2", "5:2000"),
                Op("bound", "rand_d8", "5:2000"),
                Op("couple", "mg1_d2", "1000"),
                Op("couple", "rand_d8", "400"),
            ),
            why=(
                "validate, bound and couple with no stationary solve: alpha search, m "
                "optimisation, report rendering and coupling; solver changes must not move it"
            ),
        ),
    )
}


def reference_levels() -> dict[str, int]:
    """Smallest reference level any workload's `compare` uses, per model."""
    levels: dict[str, int] = {}
    for workload in WORKLOADS.values():
        for op in workload.ops:
            if op.command == "compare":
                level = REFERENCE_FACTOR * max(op.n_values)
                levels[op.model] = min(level, levels.get(op.model, level))
    return levels


_SMOKE_N = {"bound": "5:40", "couple": "20", "validate": "10"}


def smoke(workload: Workload) -> Workload:
    """The same workload with every op shrunk, for self-tests.

    A `compare` op keeps only its largest n, so its reference level (and the
    convergence the generator guarantees there) stays the same.
    """
    def shrink(op: Op) -> Op:
        n = str(max(op.n_values)) if op.command == "compare" else _SMOKE_N[op.command]
        return replace(op, n=n)

    return replace(workload, ops=tuple(shrink(op) for op in workload.ops))
