"""End-to-end tests of the command line front end."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from bmtrunc import (
    BlockStochasticMatrix,
    BoundViolationError,
    GIG1Model,
    OrderingViolationError,
    StationarySolveError,
    compare_against_oracle,
    reports_to_csv,
    save_model,
)
from bmtrunc import block_matrix, cli, drift_bounds, gig1
from bmtrunc.cli import (
    EXIT_BOUND_VIOLATED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
    parse_n_spec,
)

from helpers import (
    broken_walk,
    dominance_pair,
    gig1_d2,
    halve_searched_delta,
    mg1_d2,
    mg1_walk,
    natural_walk,
    random_monotone_gig1,
    symmetric_walk,
)


@pytest.fixture
def walk_path(tmp_path):
    path = str(tmp_path / "walk.json")
    save_model(natural_walk(), path)
    return path


@pytest.fixture
def mg1_path(tmp_path):
    path = str(tmp_path / "mg1.json")
    save_model(mg1_walk(), path)
    return path


@pytest.fixture
def finite_path(tmp_path):
    path = str(tmp_path / "corner.json")
    save_model(mg1_d2().truncate(12), path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_n_spec_forms(self):
        assert parse_n_spec("10,20,50") == [10, 20, 50]
        assert parse_n_spec("2:6") == [2, 3, 4, 5, 6]
        assert parse_n_spec("10:50:20") == [10, 30, 50]
        assert parse_n_spec("1,4:6") == [1, 4, 5, 6]

    def test_n_spec_counts_its_levels_before_listing_them(self):
        assert len(parse_n_spec(f"1:{cli.MAX_N_VALUES}")) == cli.MAX_N_VALUES
        for spec in (f"1:{cli.MAX_N_VALUES},1", "1:1000000000000", "1:10,5:1000000000000:2"):
            with pytest.raises(ValueError, match="MAX_N_VALUES"):
                parse_n_spec(spec)

    def test_n_spec_rejects_garbage(self):
        for bad in ("", "0", "5:1", "1:10:0", "2:4:6:8"):
            with pytest.raises(ValueError):
                parse_n_spec(bad)
        for bad, token in (("abc", "'abc'"), ("5, 1:x", "'1:x'"), ("1:10:y", "'1:10:y'")):
            with pytest.raises(ValueError, match=f"--n entry {token} is not an integer"):
                parse_n_spec(bad)

    def test_missing_required_flags_exit_via_argparse(self):
        for argv in (
            ["--command", "validate"],
            ["--model", "m.json", "--command", "bound", "--format", "xml"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestValidate:
    @pytest.mark.parametrize("build", [mg1_d2, gig1_d2])
    def test_one_a_kernel_solve_per_validate(self, capsys, tmp_path, monkeypatch, build):
        # mean_drift, printed by validate, and find_alpha share the solve.
        path = str(tmp_path / "model.json")
        save_model(build(), path)
        calls = []
        solve = gig1._kernel_stationary

        def counted(psi, d):
            calls.append(psi)
            return solve(psi, d)

        monkeypatch.setattr(gig1, "_kernel_stationary", counted)
        code, _, _ = run(capsys, "--model", path, "--command", "validate")
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_boundary_lift_model(self, capsys, walk_path):
        code, out, _ = run(capsys, "--model", walk_path, "--command", "validate")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "gig1"
        assert doc["checks"]["block_monotone"] is True
        assert doc["checks"]["skip_free_pattern"] is False
        assert doc["checks"]["mean_drift"] == pytest.approx(-0.2)
        assert doc["path"] == "boundary-lift"
        assert doc["certificate"]["gamma"] == pytest.approx(0.9829285639896449)
        assert doc["certificate"]["K"] == 0
        assert doc["drift"]["alpha"] == pytest.approx(np.sqrt(1.5))
        assert doc["drift"]["K"] == 1
        assert doc["drift"]["gamma_prime"] is not None
        assert doc["note"] is None

    def test_skip_free_model(self, capsys, mg1_path):
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "validate")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["checks"]["skip_free_pattern"] is True
        assert doc["path"] == "skip-free-shortcut"
        assert doc["certificate"]["gamma"] == pytest.approx(2 * np.sqrt(0.24))
        # the shortcut path has no intermediate level-K certificate
        assert doc["drift"]["gamma_prime"] is None
        assert doc["drift"]["b_prime"] is None
        assert doc["drift"]["K"] == 0

    def test_skip_free_model_searches_alpha_once(self, capsys, mg1_path, monkeypatch):
        from bmtrunc import gig1

        calls = []
        search = gig1.find_alpha

        def counted(*args, **kwargs):
            calls.append(args[0])
            return search(*args, **kwargs)

        monkeypatch.setattr(gig1, "find_alpha", counted)
        monkeypatch.setattr(cli, "find_alpha", counted)
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "validate")
        assert code == EXIT_OK
        assert len(calls) == 1
        assert json.loads(out)["drift"]["alpha"] == search(mg1_walk())[0]

    def test_zero_drift_has_no_certificate(self, capsys, tmp_path):
        path = str(tmp_path / "flat.json")
        save_model(symmetric_walk(), path)
        code, out, _ = run(capsys, "--model", path, "--command", "validate")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["path"] == "none"
        assert doc["certificate"] is None
        assert "no certificate available" in doc["note"]
        assert "drift" in doc["note"]

    def test_non_monotone_gig1_points_to_dominance(self, capsys, tmp_path):
        path = str(tmp_path / "broken.json")
        save_model(broken_walk(), path)
        code, out, _ = run(capsys, "--model", path, "--command", "validate")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["path"] == "none"
        assert "no certificate available" in doc["note"]
        assert "block-monotone" in doc["note"]

    def test_finite_monotone_corner(self, capsys, finite_path):
        code, out, _ = run(capsys, "--model", finite_path, "--command", "validate")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "finite"
        assert doc["checks"]["square"] is True
        assert doc["checks"]["closed_classes"] == 1
        assert doc["path"] == "monotone-truncation"

    def test_finite_non_monotone_corner(self, capsys, tmp_path):
        P, _ = dominance_pair(levels=13)
        path = str(tmp_path / "edited.json")
        save_model(P, path)
        code, out, _ = run(capsys, "--model", path, "--command", "validate")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["path"] == "dominance-required"
        assert "no certificate available" in doc["note"]

    def test_out_flag_writes_the_file(self, capsys, walk_path, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "--model", walk_path, "--command", "validate",
                           "--out", str(target))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(target.read_text())["kind"] == "gig1"


    def test_offset_order_does_not_change_output(self, capsys, tmp_path):
        # Sums over the blocks run in increasing offset order, whatever
        # order the file lists them in.
        path, reversed_path = str(tmp_path / "model.json"), tmp_path / "reversed.json"
        save_model(random_monotone_gig1(), path)
        with open(path) as fh:
            doc = json.load(fh)
        for key in ("A", "B"):
            doc["gig1"][key] = dict(reversed(doc["gig1"][key].items()))
        reversed_path.write_text(json.dumps(doc))
        for argv in (("validate",), ("bound", "--n", "5:30:5"), ("compare", "--n", "5,10")):
            want = run(capsys, "--model", path, "--command", *argv)
            assert want[0] == EXIT_OK
            assert run(capsys, "--model", str(reversed_path), "--command", *argv) == want


class TestBound:
    def test_csv_output_and_determinism(self, capsys, mg1_path):
        argv = ("--model", mg1_path, "--command", "bound",
                "--n", "10,20", "--m-max", "2000")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,m_star,bound1,bound2,measured_error,reference_level"
        assert len(lines) == 3
        again_code, again_out, _ = run(capsys, *argv)
        assert again_code == EXIT_OK and again_out == out

    def test_n_values_are_sorted_and_deduplicated(self, capsys, mg1_path):
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "bound",
                           "--n", "20,10,10")
        assert code == EXIT_OK
        ns = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert ns == [10, 20]

    def test_json_format(self, capsys, mg1_path):
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "bound",
                           "--n", "50", "--m-max", "2000", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        report = doc["reports"][0]
        assert report["n"] == 50
        assert report["m_star"] == 340
        assert report["bound2"] == pytest.approx(0.34265004588266557, rel=1e-15)
        assert report["bound1"] is None

    def test_threads_do_not_change_bytes(self, capsys, mg1_path, monkeypatch):
        argv = ("--model", mg1_path, "--command", "bound", "--n", "5:40:5")
        _, serial, _ = run(capsys, *argv)
        # nothing reads BMTRUNC_THREADS; a leftover setting changes nothing
        monkeypatch.setenv("BMTRUNC_THREADS", "4")
        code, threaded, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert threaded == serial

    def test_overflowing_weights_give_a_positive_bound(self, capsys, tmp_path):
        # alpha^n passes float range on mg1_d2 near n = 1394; past it v(n)
        # reads inf and 1/v(n) is clipped at 1/DBL_MAX instead of reading 0
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        code, out, _ = run(capsys, "--model", path, "--command", "bound",
                           "--n", "1390,1400,1500", "--m-max", "20000")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        bounds = [float(r[3]) for r in rows]
        assert all(b > 0.0 for b in bounds)
        assert bounds == sorted(bounds, reverse=True)
        assert [(r[1], r[3]) for r in rows[1:]] == [("7490", "1.2920841943087345e-303")] * 2

    def test_finite_models_are_rejected(self, capsys, finite_path):
        code, _, err = run(capsys, "--model", finite_path, "--command", "bound")
        assert code == EXIT_VALIDATION
        assert "needs a gig1 model" in err


class TestCompare:
    def test_sound_reports(self, capsys, mg1_path):
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "compare",
                           "--n", "5,10")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [5, 10]
        for r in rows:
            bound1, bound2, measured = float(r[2]), float(r[3]), float(r[4])
            assert measured <= bound1 <= bound2
            assert int(r[5]) == 11

    def test_default_reference_level(self, capsys, mg1_path):
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "compare",
                           "--n", "50")
        assert code == EXIT_OK
        assert int(out.splitlines()[1].split(",")[5]) == 51  # max n + 1

    @pytest.mark.parametrize("build, n", [
        (natural_walk, "10:200:10"),
        (lambda: GIG1Model(d=1, A={-1: [[0.55]], 1: [[0.45]]},
                           B={-1: [[0.55]], 0: [[0.55]], 1: [[0.45]]}), "10:300:10"),
        (mg1_d2, "10:150:10"),
        (gig1_d2, "10,20,50,100"),
    ])
    def test_default_reference_level_prints_what_eight_times_max_n_prints(
        self, capsys, tmp_path, build, n
    ):
        # The law is exact, so forming it only through max n + 1 moves no
        # printed figure: columns 0-4 of compare match the library's rows
        # at 8 max n, the CLI's former default, on the walks (the slow one
        # has gamma near 1), mg1_d2 and gig1_d2.
        model = build()
        path = str(tmp_path / "model.json")
        save_model(model, path)
        code, out, _ = run(capsys, "--model", path, "--command", "compare", "--n", n)
        assert code == EXIT_OK
        levels = sorted(set(parse_n_spec(n)))
        _, _, cert = gig1.certificate_for_model(model)
        deep = compare_against_oracle(model, levels, cert, reference_level=8 * levels[-1])
        outs = [[line.rsplit(",", 1)[0] for line in text.splitlines()]
                for text in (out, reports_to_csv(deep))]
        assert outs[0] == outs[1]

    def test_reruns_are_byte_identical(self, capsys, mg1_path, monkeypatch):
        argv = ("--model", mg1_path, "--command", "compare",
                "--n", "5,10,15", "--format", "json")
        _, first, _ = run(capsys, *argv)
        # a leftover BMTRUNC_THREADS setting changes nothing
        monkeypatch.setenv("BMTRUNC_THREADS", "3")
        code, second, _ = run(capsys, *argv)
        assert code == EXIT_OK and second == first

    def test_reference_level_must_clear_n(self, capsys, mg1_path):
        # The library keeps its check; the CLI has no flag to check, and
        # argparse refuses it for every command, bound included.
        model = mg1_walk()
        _, _, cert = gig1.certificate_for_model(model)
        for level in (30, 50):
            with pytest.raises(ValueError, match="reference_level"):
                compare_against_oracle(model, [10, 50], cert, reference_level=level)
        for command in ("compare", "bound"):
            with pytest.raises(SystemExit) as exc:
                main(["--model", mg1_path, "--command", command,
                      "--n", "50", "--reference-level", "100"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "unrecognized arguments: --reference-level 100" in err

    def test_reference_level_inside_the_top_fold_is_solved(self):
        # Level-0 rows reach 3 levels up, so the truncation at n = 1 folds
        # rows that reach past reference level 2 or 3. The stationary law
        # is formed through the reference level whatever the truncation
        # folds, so both levels give sound rows.
        model = random_monotone_gig1()
        _, _, cert = gig1.certificate_for_model(model)
        for level in (2, 3):
            (row,) = compare_against_oracle(model, [1], cert, reference_level=level)
            assert (row.n, row.reference_level) == (1, level)
            assert row.measured_error <= row.bound1 <= row.bound2

    def test_one_stationary_call_per_compare(self, capsys, mg1_path, monkeypatch):
        # perfbench/tracing.py wraps drift_bounds.stationary and reads the
        # first argument's size: compare must reach every solve through it.
        calls = []
        solve = drift_bounds.stationary

        def counted(P, *args, **kwargs):
            calls.append(P)
            return solve(P, *args, **kwargs)

        monkeypatch.setattr(drift_bounds, "stationary", counted)
        code, _, _ = run(capsys, "--model", mg1_path, "--command", "compare",
                         "--n", "5,10,15")
        assert code == EXIT_OK
        assert len(calls) == 1
        assert isinstance(calls[0], BlockStochasticMatrix)
        assert calls[0].levels == 15 + 2 + 1  # max n plus the widest offset, U_B = 2

    @pytest.mark.parametrize("build, argv", [
        (mg1_d2, ["--n", "10,20,50"]),
        (gig1_d2, []),
    ])
    def test_levels_finish_without_a_corner_or_a_class_graph(
        self, capsys, tmp_path, monkeypatch, build, argv
    ):
        # Every level of these models finishes from the sweep's pivots: no
        # class graph and no corner built inside the solve, and one
        # residual check per requested n. The largest corner is the
        # truncation at max n plus the widest block offset.
        path = str(tmp_path / "model.json")
        save_model(build(), path)
        counts = {"graph": 0, "residual": 0}
        built = []
        graph, check = block_matrix._closed_classes, block_matrix._checked
        check_levels = block_matrix._checked_levels
        init, solve = BlockStochasticMatrix.__init__, drift_bounds.stationary

        def counted_graph(*args):
            counts["graph"] += solving  # the d x d kernel solve reads its own graph
            return graph(*args)

        def counted_check(*args):
            counts["residual"] += solving  # and checks its own residual
            return check(*args)

        def counted_levels(band, lower, ks, *args):
            counts["residual"] += solving * len(ks)  # one residual per level of the batch
            return check_levels(band, lower, ks, *args)

        def recorded_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append((self.levels, solving))

        def flagged_solve(*args, **kwargs):
            nonlocal solving
            solving = True
            try:
                return solve(*args, **kwargs)
            finally:
                solving = False

        solving = False
        monkeypatch.setattr(block_matrix, "_closed_classes", counted_graph)
        monkeypatch.setattr(block_matrix, "_checked", counted_check)
        monkeypatch.setattr(block_matrix, "_checked_levels", counted_levels)
        monkeypatch.setattr(BlockStochasticMatrix, "__init__", recorded_init)
        monkeypatch.setattr(drift_bounds, "stationary", flagged_solve)
        code, out, _ = run(capsys, "--model", path, "--command", "compare", *argv)
        assert code == EXIT_OK
        rows = len(out.splitlines()) - 1
        assert counts == {"graph": 0, "residual": rows}
        assert not any(inside for _, inside in built)
        model = build()
        reach = max(model.L_A, model.L_B, model.U_A, model.U_B)
        assert max(levels for levels, _ in built) == 50 + reach + 1

    def test_bound_columns_are_pinned(self, capsys, tmp_path):
        # The digests of compare's stdout without the measured_error column.
        # Columns 0-3 were recorded while the oracle was the truncation at
        # 8 max n checked against 16 max n: every solved level keeps its bits
        # on the corner at max n plus the widest offset. The reference_level
        # column holds the default, max n + 1. On random_monotone_gig1(20) the
        # sweep first repeats at level 95 of a 124-level corner; a repeat
        # search that gave up after 0.6 keys per level would miss it and
        # move the bits of both levels, which bound1 shows under a large m
        # cap.
        cases = {
            "walk": (natural_walk(), ["--n", "10:200:10"],
                     "f4904ce1486649931ba7d249044af56834003b376078be5ba685a91827f2688a"),
            "mg1_d2": (mg1_d2(), ["--n", "10:150:10"],
                       "83fd5cda9d3e388b60e4a904bf294d50d1eb3fa258d8c4ed450a38c77103362d"),
            "gig1_d2": (gig1_d2(), ["--n", "10,20,50,100"],
                        "b2fabcb8076c8ce08396577de661ae02c98dc01ca1c470f26c561b65d6258cb9"),
            "late_repeat": (random_monotone_gig1(20), ["--n", "100,120", "--m-max", "10000000"],
                            "8ed0acaf6a6225e9872dbaf575936bbb31e26c4d37c0132417532d1900c29067"),
        }
        for name, (model, argv, digest) in cases.items():
            path = str(tmp_path / f"{name}.json")
            save_model(model, path)
            code, out, _ = run(capsys, "--model", path, "--command", "compare", *argv)
            assert code == EXIT_OK
            kept = "".join(
                ",".join(cell for i, cell in enumerate(line.split(",")) if i != 4) + "\n"
                for line in out.splitlines()
            )
            assert hashlib.sha256(kept.encode()).hexdigest() == digest, name

    @pytest.mark.parametrize("argv", [
        ["--command", "compare", "--n", "10000000"],
        ["--command", "couple", "--n", "1000000000"],
        ["--command", "bound", "--n", "1:1000000000000"],
    ])
    def test_too_large_input_is_refused_before_allocation(self, capsys, tmp_path, argv):
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "--model", path, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "MAX_N_VALUES" in err or f"{gig1.MAX_ARRAY_BYTES} bytes (MAX_ARRAY_BYTES)" in err
        assert peak < 2**20

    def test_level_vectors_above_the_byte_limit_are_refused_before_the_solve(self, capsys, tmp_path):
        # Each level and the law's band fit their limits here, but the 20000
        # level vectors would take 3.2 GB together: each holds n + 1 levels
        # and the width - 1 = 3 levels its product spills into. Listing the
        # 20000 levels and truncating the model at 20002 are most of what
        # the refusal costs.
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "--model", path, "--command", "compare", "--n", "1:20000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (EXIT_VALIDATION, "")
        assert f"need {16 * (20000 * 20001 // 2 + 4 * 20000)} bytes" in err
        assert f"{gig1.MAX_ARRAY_BYTES} bytes (MAX_ARRAY_BYTES)" in err
        assert peak < 2**23

    def test_rows_short_within_the_row_tolerance(self, capsys, tmp_path):
        # Rows 9e-10 short of 1 pass the 1e-9 row check. GTH solves the chain
        # whose diagonal completes each row, so the residual on the given
        # rows is up to that defect.
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"d": 1, "kind": "gig1", "gig1": {
            "A": {"-1": [[0.5999999991]], "1": [[0.4]]},
            "B": {"-1": [[0.5999999991]], "0": [[0.5999999991]], "1": [[0.4]]},
        }}))
        for command in ("validate", "bound", "compare"):
            code, out, err = run(capsys, "--model", str(path), "--command", command)
            assert code == EXIT_OK, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [10, 20, 50]
        for r in rows:
            assert float(r[4]) <= float(r[2]) <= float(r[3])


class TestCouple:
    def test_negative_seed_is_refused_by_name(self, capsys, tmp_path):
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        code, out, err = run(capsys, "--model", path, "--command", "couple",
                             "--n", "8", "--seed", "-1")
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err == "validation failure: --seed must be a non-negative integer, got -1\n"

    def test_summary_and_dumps(self, capsys, tmp_path):
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        target = tmp_path / "traj.csv"
        code, out, _ = run(capsys, "--model", path, "--command", "couple",
                           "--n", "8", "--seed", "3", "--out", str(target))
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["corner_level"] == 8
        assert summary["dominated_level"] == 4
        assert summary["paths"] == cli.COUPLE_PATHS
        assert summary["steps"] == cli.COUPLE_STEPS
        assert summary["seed"] == 3
        assert summary["monotone"]["ordering_ok"] is True
        assert summary["dominance"]["ordering_ok"] is True
        for dump in (target, tmp_path / "traj_dominance.csv"):
            lines = dump.read_text().splitlines()
            assert lines[0] == "step,phase,level_low,level_high"
            assert len(lines) == cli.COUPLE_STEPS + 2

    def test_output_bytes_are_pinned(self, capsys, tmp_path):
        # Any change to the sampler's draws changes these digests.
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        target = tmp_path / "paths.csv"
        code, out, _ = run(capsys, "--model", path, "--command", "couple",
                           "--n", "200", "--seed", "3", "--out", str(target))
        assert code == EXIT_OK
        digests = [hashlib.sha256(data).hexdigest() for data in (
            out.encode(), target.read_bytes(), (tmp_path / "paths_dominance.csv").read_bytes())]
        assert digests == [
            "b23b92bb67dc2170f97b8dcdba3235cdd39526292f9c7a937be0830d35449763",
            "7c185ddf582bcb068e9803fe8f6894530adbb4f62721d4b4fb26cb7d47a98723",
            "0fb000f960dc5acc1e60bb530c4da9131960731514a150160b9c8a2b5578f448",
        ]

    def test_certificate_output_bytes_are_pinned(self, capsys, tmp_path):
        # Both certificate paths (skip-free: mg1_walk, mg1_d2; boundary lift:
        # natural_walk, gig1_d2) feed validate, bound and compare. compare's
        # measured_error is taken against the infinite chain's stationary
        # law; its other columns are also pinned, apart from measured_error,
        # by TestCompare.test_bound_columns_are_pinned.
        expected = {
            "natural_walk": (
                "80581ab28f409751eeee75522ee63fd6eb6b3707959d42062fefd20945c16fc6",
                "2b07b9141bb3c22617aec1d9cba15137d0fca2256ac19b359fbef23b616b5379",
                "46816434d698e5d69bbb2b90f41ad3f2cab9343a7f13ab66e3f9e0ff8f3f75c6",
            ),
            "mg1_walk": (
                "609da06f3abcb4ef721d1ec287a25f6d8f8cfbadfcc5335c15700626a62510ce",
                "8fbf161b2f6a91d53bfc9853d01f73e83e8c59b5654884f324d7b38806a1f4f9",
                "90f554863905952f628bd258a2c36c3aea123ce6e9998865f43237db16c8daf4",
            ),
            "mg1_d2": (
                "0ea321c3346efcf9a0817e3a48500dd5bbe12a3b8b0a900b763bfbbe8181e1df",
                "f61ce994aab6d0f47e80985cc28331f015b37e8439ce16ae471b28d9061dd5e2",
                "34c6a9b9b9241bcf1495f69641f8cb9bff47dcd93c053d0faab467cb2e377913",
            ),
            "gig1_d2": (
                "66fcfd62f122bb46c3a0790b44a33c5cc6846205a511e2783d22ab26a0f6cf5e",
                "299c0241f7bf2c2d033fab9321442303dee8671e311b660b87595b26c46c784c",
                "dd8e851271458cebf39b3b83f434a306f7d5f8c41f708ad8125d37171fcaf443",
            ),
        }
        builders = {"natural_walk": natural_walk, "mg1_walk": mg1_walk,
                    "mg1_d2": mg1_d2, "gig1_d2": gig1_d2}
        for name, digests in expected.items():
            path = str(tmp_path / f"{name}.json")
            save_model(builders[name](), path)
            got = []
            for command, n in (("validate", "10"), ("bound", "5:300"), ("compare", "10,20")):
                code, out, _ = run(capsys, "--model", path, "--command", command, "--n", n)
                assert code == EXIT_OK
                got.append(hashlib.sha256(out.encode()).hexdigest())
            assert tuple(got) == digests, name

    def test_summary_only_without_out(self, capsys, tmp_path):
        path = str(tmp_path / "walk.json")
        save_model(natural_walk(), path)
        code, out, err = run(capsys, "--model", path, "--command", "couple", "--n", "6")
        assert code == EXIT_OK
        summary = json.loads(out)
        # the high path starts at the stored top, so contact is certain
        assert summary["monotone"]["hit_top"] is True
        assert summary["dominance"]["hit_top"] is True
        assert not list(tmp_path.glob("*.csv"))
        # one line per chain that touched its own top, naming no source path
        tail = "; the finite corner distorts the infinite chain there\n"
        assert err == (
            "warning: monotone coupling: a path reached the top stored level 6" + tail
            + "warning: dominance coupling, dominated chain: a path reached the top "
            "stored level 3" + tail
            + "warning: dominance coupling, dominating chain: a path reached the top "
            "stored level 6" + tail
        )

    def test_warnings_name_the_chain_that_touched_its_top(self, capsys, tmp_path):
        # the dominated chain touches its top 4, the dominating one never reaches 8
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        code, out, err = run(capsys, "--model", path, "--command", "couple", "--n", "8")
        assert code == EXIT_OK
        assert json.loads(out)["dominance"]["hit_top"] is True
        tail = "; the finite corner distorts the infinite chain there\n"
        assert err == (
            "warning: monotone coupling: a path reached the top stored level 8" + tail
            + "warning: dominance coupling, dominated chain: a path reached the top "
            "stored level 4" + tail
        )

    def test_no_warning_where_the_corner_folded_nothing(self, capsys, tmp_path):
        # A square corner coupled at its own top level is the chain itself, so
        # the monotone coupling and the dominating chain warn nothing; the
        # dominated chain, a fold at 4, still warns. The chain at 8 is mg1_d2's
        # truncation there, so the summary matches mg1_d2's own.
        model_path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), model_path)
        _, model_out, _ = run(capsys, "--model", model_path, "--command", "couple", "--n", "8")
        path = str(tmp_path / "corner.json")
        save_model(mg1_d2().truncate(8), path)
        code, out, err = run(capsys, "--model", path, "--command", "couple", "--n", "8")
        assert code == EXIT_OK
        assert out == model_out
        assert json.loads(out)["monotone"]["hit_top"] is True
        assert err == (
            "warning: dominance coupling, dominated chain: a path reached the top "
            "stored level 4; the finite corner distorts the infinite chain there\n"
        )

    def test_non_monotone_model_is_rejected(self, capsys, tmp_path):
        P, _ = dominance_pair(levels=13)
        path = str(tmp_path / "edited.json")
        save_model(P, path)
        code, _, err = run(capsys, "--model", path, "--command", "couple", "--n", "6")
        assert code == EXIT_VALIDATION
        assert "block-monotone" in err

    def test_dominance_dump_path_without_extension(self):
        assert cli._dominance_dump_path("plain") == "plain_dominance"
        assert cli._dominance_dump_path("a/b.csv") == "a/b_dominance.csv"
        # the extension comes from the file name only
        assert cli._dominance_dump_path("run.v2/traj") == "run.v2/traj_dominance"
        assert cli._dominance_dump_path(".hidden") == ".hidden_dominance"
        assert cli._dominance_dump_path("run.v2/.hidden") == "run.v2/.hidden_dominance"

    def test_dumps_into_a_dotted_directory(self, capsys, tmp_path):
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)
        folder = tmp_path / "run.v2"
        folder.mkdir()
        code, _, err = run(capsys, "--model", path, "--command", "couple",
                           "--n", "8", "--seed", "3", "--out", str(folder / "traj"))
        assert code == EXIT_OK, err
        assert sorted(f.name for f in folder.iterdir()) == ["traj", "traj_dominance"]


class TestExitCodes:
    def test_missing_file_is_io(self, capsys, tmp_path):
        code, _, err = run(capsys, "--model", str(tmp_path / "gone.json"),
                           "--command", "validate")
        assert code == EXIT_IO
        assert err.startswith("i/o error:")

    def test_bad_json_is_validation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "--model", str(path), "--command", "validate")
        assert code == EXIT_VALIDATION
        assert "not valid JSON" in err

    def test_non_stochastic_model_is_validation(self, capsys, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text(json.dumps({
            "d": 1, "kind": "finite",
            "blocks": [{"k": 0, "l": 0, "values": [[0.9]]}],
        }))
        code, _, err = run(capsys, "--model", str(path), "--command", "validate")
        assert code == EXIT_VALIDATION
        assert "level 0" in err

    def test_colliding_offsets_are_validation(self, capsys, tmp_path):
        # "1" and "01" are both A(1): A's row would sum to 1.4
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"d": 1, "kind": "gig1", "gig1": {
            "A": {"-1": [[0.7]], "1": [[0.4]], "01": [[0.3]]},
            "B": {"-1": [[0.7]], "0": [[0.7]], "1": [[0.3]]},
        }}))
        for command in ("validate", "bound"):
            code, out, err = run(capsys, "--model", str(path), "--command", command)
            assert (code, out) == (EXIT_VALIDATION, "")
            assert "gig1.A: offsets '1' and '01' are both 1" in err

    def test_colliding_blocks_are_validation(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"d": 1, "kind": "finite", "blocks": [
            {"k": 0, "l": 0, "values": [[0.5]]},
            {"k": 0, "l": 0, "values": [[0.5]]},
        ]}))
        code, out, err = run(capsys, "--model", str(path), "--command", "validate")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "blocks[0] and blocks[1]: both are block (k=0, l=0)" in err

    def test_repeated_keys_are_validation(self, capsys, tmp_path):
        # Read as written, A's row sums to 1.4; json would keep only the 0.3.
        path = tmp_path / "twice.json"
        path.write_text('{"d": 1, "kind": "gig1", "gig1": {'
                        '"A": {"-1": [[0.7]], "1": [[0.4]], "1": [[0.3]]}, '
                        '"B": {"-1": [[0.7]], "0": [[0.7]], "1": [[0.3]]}}}')
        code, out, err = run(capsys, "--model", str(path), "--command", "validate")
        assert (code, out) == (EXIT_VALIDATION, "")
        assert "key '1' appears twice in one object" in err

    def test_json_booleans_are_validation(self, capsys, tmp_path):
        # true is an int to Python; as d it used to crash validate with a TypeError
        path = tmp_path / "bool.json"
        for doc, message in (
            ({"d": True, "kind": "gig1", "gig1": {"A": {"-1": [[0.6]], "1": [[0.4]]},
                                                "B": {"0": [[0.6]], "1": [[0.4]]}}},
             "d: expected a positive integer"),
            ({"d": 1, "kind": "finite", "blocks": [{"k": 0, "l": False, "values": [[True]]}]},
             "blocks[0]: k and l must be non-negative integers"),
        ):
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "--model", str(path), "--command", "validate")
            assert (code, out) == (EXIT_VALIDATION, "")
            assert message in err

    def test_positive_drift_bound_is_validation(self, capsys, tmp_path):
        path = str(tmp_path / "flat.json")
        save_model(symmetric_walk(), path)
        code, _, err = run(capsys, "--model", path, "--command", "bound")
        assert code == EXIT_VALIDATION
        assert "not negative" in err

    def test_stationary_solve_failure_is_validation(self, capsys, walk_path, monkeypatch):
        def failing(psi, d):
            raise StationarySolveError("stationary residual 2.000e-10 exceeds 1e-10")

        monkeypatch.setattr(gig1, "_kernel_stationary", failing)
        for command in ("validate", "bound", "compare"):
            code, out, err = run(capsys, "--model", walk_path, "--command", command)
            assert code == EXIT_VALIDATION
            assert err.startswith("validation failure: stationary residual")
            assert out == ""

    def test_unverified_certificate_is_validation(self, capsys, mg1_path, monkeypatch):
        halve_searched_delta(monkeypatch)
        for command in ("validate", "bound", "compare"):
            code, out, err = run(capsys, "--model", mg1_path, "--command", command,
                                 "--n", "5")
            assert code == EXIT_VALIDATION
            assert "unverified certificate" in err
            assert out == ""

    def test_bound_violation_maps_to_soundness_exit(self, capsys, mg1_path, monkeypatch):
        def explode(*args, **kwargs):
            raise BoundViolationError("n=5: measured error exceeds certified bound")

        monkeypatch.setattr(cli, "compare_against_oracle", explode)
        code, _, err = run(capsys, "--model", mg1_path, "--command", "compare", "--n", "5")
        assert code == EXIT_BOUND_VIOLATED
        assert err.startswith("soundness violation:")

    def test_ordering_violation_maps_to_soundness_exit(self, capsys, tmp_path, monkeypatch):
        path = str(tmp_path / "mg1d2.json")
        save_model(mg1_d2(), path)

        def explode(*args, **kwargs):
            raise OrderingViolationError(step=1, path=0, low=3, high=2)

        monkeypatch.setattr(cli, "run_coupled_monotone_batch", explode)
        code, _, err = run(capsys, "--model", path, "--command", "couple", "--n", "6")
        assert code == EXIT_BOUND_VIOLATED
        assert "soundness violation" in err
