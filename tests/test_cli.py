"""End-to-end tests of the command line front end."""

import hashlib
import json

import numpy as np
import pytest

from bmtrunc import BoundViolationError, OrderingViolationError, save_model
from bmtrunc import cli
from bmtrunc.cli import (
    EXIT_BOUND_VIOLATED,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    RunConfig,
    main,
    parse_n_spec,
    thread_count,
)

from helpers import dominance_pair, mg1_d2, mg1_walk, natural_walk


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

    def test_n_spec_rejects_garbage(self):
        for bad in ("", "0", "5:1", "1:10:0", "2:4:6:8"):
            with pytest.raises(ValueError):
                parse_n_spec(bad)
        with pytest.raises(ValueError):
            parse_n_spec("abc")

    def test_thread_count_from_environment(self, monkeypatch):
        monkeypatch.delenv("BMTRUNC_THREADS", raising=False)
        assert thread_count() == 1
        monkeypatch.setenv("BMTRUNC_THREADS", "4")
        assert thread_count() == 4
        monkeypatch.setenv("BMTRUNC_THREADS", "zero")
        with pytest.raises(ValueError, match="BMTRUNC_THREADS"):
            thread_count()
        monkeypatch.setenv("BMTRUNC_THREADS", "0")
        with pytest.raises(ValueError, match=">= 1"):
            thread_count()

    def test_run_config_validation(self):
        config = RunConfig(model_path="m.json", command="bound")
        assert config.n_values == [10, 20, 50]
        assert config.resolved_reference_level == 400
        with pytest.raises(ValueError, match="reference level"):
            RunConfig(model_path="m", command="bound", n_values=[50], reference_level=50)
        with pytest.raises(ValueError, match="format"):
            RunConfig(model_path="m", command="bound", format="xml")
        with pytest.raises(ValueError, match=">= 1"):
            RunConfig(model_path="m", command="bound", n_values=[])

    def test_missing_required_flags_exit_via_argparse(self):
        with pytest.raises(SystemExit):
            main(["--command", "validate"])


class TestValidate:
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
        _, point = search(mg1_walk())
        assert json.loads(out)["drift"]["alpha"] == point.z

    def test_zero_drift_has_no_certificate(self, capsys, tmp_path):
        from test_gig1 import symmetric_walk

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
        from test_gig1 import broken_walk

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
        monkeypatch.setenv("BMTRUNC_THREADS", "4")
        code, threaded, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert threaded == serial

    def test_finite_models_are_rejected(self, capsys, finite_path):
        code, _, err = run(capsys, "--model", finite_path, "--command", "bound")
        assert code == EXIT_VALIDATION
        assert "needs a gig1 model" in err


class TestCompare:
    def test_sound_reports(self, capsys, mg1_path):
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "compare",
                           "--n", "5,10", "--reference-level", "60")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [5, 10]
        for r in rows:
            bound1, bound2, measured = float(r[2]), float(r[3]), float(r[4])
            assert measured <= bound1 <= bound2
            assert int(r[5]) == 60

    def test_default_reference_level(self, capsys, mg1_path):
        code, out, _ = run(capsys, "--model", mg1_path, "--command", "compare",
                           "--n", "50")
        assert code == EXIT_OK
        assert int(out.splitlines()[1].split(",")[5]) == 400  # 8 * max n

    def test_unconverged_reference_is_validation(self, capsys, mg1_path):
        code, _, err = run(capsys, "--model", mg1_path, "--command", "compare",
                           "--n", "5", "--reference-level", "40")
        assert code == EXIT_VALIDATION
        assert "reference" in err

    def test_reruns_are_byte_identical(self, capsys, mg1_path, monkeypatch):
        argv = ("--model", mg1_path, "--command", "compare",
                "--n", "5,10,15", "--reference-level", "80", "--format", "json")
        _, first, _ = run(capsys, *argv)
        monkeypatch.setenv("BMTRUNC_THREADS", "3")
        code, second, _ = run(capsys, *argv)
        assert code == EXIT_OK and second == first

    def test_reference_level_must_clear_n(self, capsys, mg1_path):
        code, _, err = run(capsys, "--model", mg1_path, "--command", "compare",
                           "--n", "10,50", "--reference-level", "30")
        assert code == EXIT_VALIDATION
        assert "reference level" in err


class TestCouple:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_summary_only_without_out(self, capsys, tmp_path):
        path = str(tmp_path / "walk.json")
        save_model(natural_walk(), path)
        code, out, _ = run(capsys, "--model", path, "--command", "couple", "--n", "6")
        assert code == EXIT_OK
        summary = json.loads(out)
        # the high path starts at the stored top, so contact is certain
        assert summary["monotone"]["hit_top"] is True
        assert not list(tmp_path.glob("*.csv"))

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

    def test_positive_drift_bound_is_validation(self, capsys, tmp_path):
        from test_gig1 import symmetric_walk

        path = str(tmp_path / "flat.json")
        save_model(symmetric_walk(), path)
        code, _, err = run(capsys, "--model", path, "--command", "bound")
        assert code == EXIT_VALIDATION
        assert "not negative" in err

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

    def test_bad_thread_environment_is_validation(self, capsys, mg1_path, monkeypatch):
        monkeypatch.setenv("BMTRUNC_THREADS", "many")
        code, _, err = run(capsys, "--model", mg1_path, "--command", "validate")
        assert code == EXIT_VALIDATION
        assert "BMTRUNC_THREADS" in err
