"""Self-tests of the benchmark. Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from perfbench import run
from perfbench.checks import check_op, geomean, load_baseline, walk_error
from perfbench.workloads import WORKLOADS, Op, Workload, reference_levels, smoke

run.load_program()

from bmtrunc import cli, coupling, drift_bounds, gig1  # noqa: E402
from bmtrunc.gig1 import GIG1Model  # noqa: E402

from perfbench import models  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

HEADER = "n,m_star,bound1,bound2,measured_error,reference_level"


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return models.generate(7, tmp_path_factory.mktemp("models"), reference_levels())


def _compare_csv(rows) -> str:
    return "\n".join([HEADER] + [f"{n},{m},{b1!r},{b2!r},{e!r},80" for n, m, b1, b2, e in rows]) + "\n"


def _bound_csv(rows) -> str:
    return "\n".join([HEADER] + [f"{n},{m},,{b2!r},," for n, m, b2 in rows]) + "\n"


WALK_OP = Op("compare", "walk_d1", "10,20")
GOOD_WALK = [(n, 5, walk_error(n) * 2, walk_error(n) * 3, walk_error(n)) for n in (10, 20)]


class TestChecker:
    def test_accepts_consistent_output(self):
        assert check_op(WALK_OP, 0, _compare_csv(GOOD_WALK), "")[0] == []

    def test_flags_bound1_below_measured(self):
        rows = [(10, 5, walk_error(10) / 2, 1.0, walk_error(10)), GOOD_WALK[1]]
        errors, _ = check_op(WALK_OP, 0, _compare_csv(rows), "")
        assert any("> bound1" in e for e in errors)

    def test_flags_walk_error_off_by_1e9(self):
        n, m, b1, b2, e = GOOD_WALK[0]
        rows = [(n, m, b1, b2, e + 1e-9), GOOD_WALK[1]]
        errors, _ = check_op(WALK_OP, 0, _compare_csv(rows), "")
        assert any("closed form" in e for e in errors)

    def test_flags_missing_row_and_bad_exit(self):
        assert check_op(WALK_OP, 0, _compare_csv(GOOD_WALK[:1]), "")[0]
        assert check_op(WALK_OP, 2, "", "")[0] == ["exit code 2"]

    def test_flags_rising_bound2(self):
        op = Op("bound", "mg1_d2", "5:7")
        assert check_op(op, 0, _bound_csv([(5, 3, 0.3), (6, 3, 0.2), (7, 3, 0.1)]), "")[0] == []
        errors, _ = check_op(op, 0, _bound_csv([(5, 3, 0.3), (6, 3, 0.31), (7, 3, 0.1)]), "")
        assert errors == ["bound2 rises from n=5 to n=6"]

    def test_flags_bounds_looser_than_recorded(self):
        op = Op("bound", "mg1_d2", "5:6")
        baseline = {op.key: {"bound2": geomean([0.3, 0.2])}}
        assert check_op(op, 0, _bound_csv([(5, 3, 0.3), (6, 3, 0.2)]), "", baseline)[0] == []
        assert check_op(op, 0, _bound_csv([(5, 3, 0.2), (6, 3, 0.1)]), "", baseline)[0] == []
        errors, _ = check_op(op, 0, _bound_csv([(5, 3, 0.31), (6, 3, 0.2)]), "", baseline)
        assert len(errors) == 1 and "looser than the recorded" in errors[0]

    def test_flags_wrong_path_and_broken_ordering(self):
        op = Op("validate", "mg1_d2")
        assert check_op(op, 0, '{"path": "boundary-lift"}', "skip-free-shortcut")[0]
        couple = {"paths": 32, "steps": 500, "monotone": {"ordering_ok": True}, "dominance": {}}
        errors, _ = check_op(Op("couple", "mg1_d2"), 0, json.dumps(couple), "")
        assert errors == ["dominance: ordering not ok"]

    def test_flags_bytes_that_change_between_passes(self, files):
        workload = Workload("fake", None, (Op("validate", "finite_d2"),), "")
        runner = run.Runner(workload, files)
        outputs = iter(['{"path": "monotone-truncation"}\n', '{"path":  "monotone-truncation"}\n'])

        def fake_main(argv):
            sys.stdout.write(next(outputs))
            return 0

        runner.main = fake_main
        assert runner.run_pass().ops[0].errors == []
        assert runner.run_pass().ops[0].errors == ["stdout differs from the first pass"]


def _wrapped_targets():
    return [
        (cli, "load_model"), (cli, "render_json"), (cli, "reports_to_csv"),
        (cli, "reports_to_json"), (cli, "certificate_for_model"), (cli, "find_alpha"),
        (gig1, "find_alpha"), (gig1, "perron"), (GIG1Model, "truncate"),
        (GIG1Model, "verify_drift"), (cli, "compare_against_oracle"), (cli, "optimize_m"),
        (drift_bounds, "optimize_m"), (drift_bounds, "bound_theorem31"), (cli, "lcb_truncate"),
        (drift_bounds, "lcb_truncate"), (drift_bounds, "stationary"), (drift_bounds, "tv_distance"),
        (cli, "is_block_monotone"), (coupling, "is_block_monotone"),
        (cli, "run_coupled_monotone_batch"), (cli, "run_coupled_dominance_batch"),
    ]


@pytest.mark.parametrize("memory", [False, True])
def test_tracer_keeps_stdout_and_restores_every_wrapper(files, memory):
    before = {(id(owner), attr): owner.__dict__[attr] for owner, attr in _wrapped_targets()}
    ops = [
        Op("validate", "mg1_d2"),
        Op("bound", "slow_d1", "5:30"),
        Op("compare", "gig1_d2", "10,20"),
        Op("couple", "mg1_d2", "20"),
    ]

    def outputs():
        texts = []
        for op in ops:
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert cli.main(op.argv(str(files[op.model].path))) == 0
            texts.append(buf.getvalue())
        return texts

    plain = outputs()
    with Tracer(memory=memory) as tracer:
        traced = outputs()
        assert all(owner.__dict__[attr] is not before[(id(owner), attr)] for owner, attr in _wrapped_targets())
    assert traced == plain
    assert {(id(owner), attr): owner.__dict__[attr] for owner, attr in _wrapped_targets()} == before
    names = {s.name for s in tracer.spans}
    assert {"gig1.perron", "block_matrix.stationary", "coupling.monotone_batch"} <= names


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_pass_of_every_workload(monkeypatch, name, trace):
    monkeypatch.delenv("BMTRUNC_THREADS", raising=False)
    record = run.run_workload(smoke(WORKLOADS[name]), 3, 0.0, trace, min_passes=1, setup_repeats=1)
    assert record["failed"] == 0, record["failures"]
    result = run.result_line(record)
    assert result["correct"] and result["attempted"] >= 1
    expected = run.layer_units() if trace else {n: run.END_TO_END[n][0] for n in run.GATED}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_generator_is_deterministic(tmp_path, files):
    again = models.generate(7, tmp_path / "a", reference_levels())
    other = models.generate(8, tmp_path / "b", reference_levels())
    assert {k: f.sha256 for k, f in again.items()} == {k: f.sha256 for k, f in files.items()}
    assert other["walk_d1"].sha256 == files["walk_d1"].sha256
    assert other["rand_d8"].sha256 != files["rand_d8"].sha256


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == [(n, run.END_TO_END[n][0]) for n in run.GATED]
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.layer_units()


def test_baseline_covers_every_fixed_model_bound_op():
    ops = {
        op.key
        for w in WORKLOADS.values()
        for op in w.ops
        if op.model in models.FIXED and op.command in ("bound", "compare")
    }
    assert set(load_baseline()) == ops


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "compare-levels", "--seed", "1"]
    done = subprocess.run(argv + ["--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
    assert not Path(tmp_path / ".perfbench_out").exists()
