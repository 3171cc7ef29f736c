"""Record the bound geomeans of every fixed-model `bound` and `compare` op.

Usage: python3 perfbench/record_baseline.py

Writes perfbench/baseline_bounds.json, which the checks hold later builds to:
a geomean may get tighter but not looser. Re-record only in a change that
edits the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import models, run  # noqa: E402
from perfbench.checks import BASELINE_PATH, geomean, parse_report  # noqa: E402
from perfbench.workloads import WORKLOADS, reference_levels  # noqa: E402


def main() -> int:
    run.load_program()
    from bmtrunc.cli import main as cli_main

    files = models.generate(0, run.OUT / "models" / "baseline", reference_levels())
    baseline = {}
    for workload in WORKLOADS.values():
        for op in workload.ops:
            if op.model not in models.FIXED or op.command not in ("bound", "compare"):
                continue
            out = io.StringIO()
            with redirect_stdout(out):
                if cli_main(op.argv(str(files[op.model].path))) != 0:
                    sys.exit(f"{op.key} failed; nothing recorded")
            rows = parse_report(out.getvalue())
            columns = ("bound1", "bound2") if op.command == "compare" else ("bound2",)
            baseline[op.key] = {c: geomean([r[c] for r in rows]) for c in columns}
    BASELINE_PATH.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(baseline)} ops in {BASELINE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
