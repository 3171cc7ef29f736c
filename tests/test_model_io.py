"""Tests for model files and deterministic report rendering."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from bmtrunc import (
    assemble,
    BoundReport,
    GIG1Model,
    ModelSchemaError,
    format_float,
    lcb_truncate,
    load_model,
    render_json,
    reports_to_csv,
    reports_to_json,
    save_model,
)

from helpers import dense, gig1_d2, mg1_d2, natural_walk


class TestRendering:
    def test_float_formatting(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1"
        assert format_float(0.34265004588266557) == "0.34265004588266557"
        assert float(format_float(np.pi)) == np.pi

    def test_render_json_shapes(self):
        text = render_json({"b": 1, "a": [1.5, None, True], "c": {}, "d": []})
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc == {"b": 1, "a": [1.5, None, True], "c": {}, "d": []}
        # insertion order is preserved, not sorted
        assert text.index('"b"') < text.index('"a"') < text.index('"c"')

    def test_render_json_arrays_and_rejects_unknown(self):
        assert json.loads(render_json(np.array([[1.0, 2.0]]))) == [[1.0, 2.0]]
        with pytest.raises(TypeError, match="cannot render"):
            render_json(object())


class TestModelRoundTrip:
    def test_finite_corner(self, tmp_path):
        corner = natural_walk().truncate(3)
        path = str(tmp_path / "walk.json")
        save_model(corner, path)
        loaded = load_model(path)
        assert loaded.d == corner.d
        np.testing.assert_array_equal(dense(loaded), dense(corner))

    @pytest.mark.parametrize(
        "make,digest",
        [
            (lambda: lcb_truncate(mg1_d2(), 30),
             "80409f610b825ebdbddb11b17bee7dc626f5acbfcb932e26a0284fe4348368c7"),
            (lambda: assemble(gig1_d2(), 20),
             "af3b58808432bf100ba308064a1391fbf2be0a3979b7b17bf7e04e892a8bc6f9"),
            (lambda: lcb_truncate(gig1_d2(), 200),
             "54e6ab1bf57020e72f64d6b3112dbbcd221c5cc6a4b4815c4c0a5cbbf72a392d"),
        ],
        ids=["mg1_d2_lcb30", "gig1_d2_assembled20", "gig1_d2_lcb200"],
    )
    def test_finite_file_bytes_are_pinned(self, tmp_path, make, digest):
        # digests of the block-by-block writer that scanned the dense view
        path = tmp_path / "corner.json"
        save_model(make(), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_loading_a_deep_corner_stays_small(self, tmp_path):
        # 20002 states: a dense N x N array would need 3.2 GB
        path = str(tmp_path / "deep.json")
        save_model(lcb_truncate(mg1_d2(), 10_000), path)
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert (loaded.levels, loaded.col_levels) == (10_001, 10_001)
        assert (loaded.lower, loaded.upper) == (1, 2)

    def test_gig1_models(self, tmp_path):
        for name, model in (("mg1", mg1_d2()), ("gig1", gig1_d2())):
            path = str(tmp_path / f"{name}.json")
            save_model(model, path)
            loaded = load_model(path)
            assert isinstance(loaded, GIG1Model)
            assert set(loaded.A) == set(model.A) and set(loaded.B) == set(model.B)
            for j in model.A:
                np.testing.assert_array_equal(loaded.A[j], model.A[j])
            for j in model.B:
                np.testing.assert_array_equal(loaded.B[j], model.B[j])

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_model(gig1_d2(), str(first))
        save_model(load_model(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_save_rejects_unknown_types(self, tmp_path):
        with pytest.raises(TypeError, match="cannot save"):
            save_model({"not": "a model"}, str(tmp_path / "x.json"))


class TestModelSchemaErrors:
    def load_text(self, tmp_path, text: str):
        path = tmp_path / "model.json"
        path.write_text(text)
        return load_model(str(path))

    def test_missing_file_is_an_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_model(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ModelSchemaError, match="not valid JSON"):
            self.load_text(tmp_path, "{")

    def test_field_errors_name_the_field(self, tmp_path):
        cases = [
            ("[]", "top level"),
            ('{"kind": "finite"}', "d: expected"),
            ('{"d": 1, "kind": "weird"}', "kind: expected"),
            ('{"d": 1, "kind": "finite"}', "blocks: expected"),
            ('{"d": 1, "kind": "finite", "blocks": [{"l": 0}]}', "k and l"),
            (
                '{"d": 2, "kind": "finite", "blocks": [{"k": 0, "l": 0, "values": [[1.0]]}]}',
                "values: expected 2 rows",
            ),
            ('{"d": 1, "kind": "gig1"}', "gig1: expected"),
            (
                '{"d": 1, "kind": "gig1", "gig1": {"A": {"x": [[1.0]]}, "B": {}}}',
                "offset 'x'",
            ),
            (
                '{"d": 1, "kind": "gig1", "gig1": {"A": {}, "B": {"1": [[0.5]], "+1": [[0.5]]}}}',
                "gig1.B: offsets '1' and '\\+1' are both 1",
            ),
            (
                '{"d": 1, "kind": "finite", "blocks": [{"k": 0, "l": 1, "values": [[1.0]]}, '
                '{"k": 1, "l": 0, "values": [[1.0]]}, {"k": 0, "l": 1, "values": [[1.0]]}]}',
                "blocks\\[0\\] and blocks\\[2\\]: both are block \\(k=0, l=1\\)",
            ),
            (
                '{"d": 1, "kind": "gig1", "gig1": {"A": {"-1": [[0.7]], "1": [[0.4]], '
                '"1": [[0.3]]}, "B": {"-1": [[0.7]], "0": [[0.7]], "1": [[0.3]]}}}',
                "key '1' appears twice",
            ),
            (
                '{"d": 1, "kind": "finite", "blocks": [{"k": 0, "l": 0, "values": [[0.5]], '
                '"values": [[1.0]]}]}',
                "key 'values' appears twice",
            ),
            # json reads true and false as bool, a subclass of int
            (
                '{"d": true, "kind": "gig1", "gig1": {"A": {"-1": [[0.6]], "1": [[0.4]]}, '
                '"B": {"0": [[0.6]], "1": [[0.4]]}}}',
                "d: expected",
            ),
            (
                '{"d": 1, "kind": "gig1", "gig1": {"A": {"-1": [[true]], "1": [[0.4]]}, '
                '"B": {"0": [[0.6]], "1": [[0.4]]}}}',
                "gig1.A\\[-1\\]\\[0\\]: expected 1 numbers",
            ),
            ('{"d": 1, "kind": "finite", "blocks": [{"k": false, "l": 0, "values": [[1.0]]}]}',
             "blocks\\[0\\]: k and l"),
            ('{"d": 1, "kind": "finite", "blocks": [{"k": 0, "l": false, "values": [[1.0]]}]}',
             "blocks\\[0\\]: k and l"),
            ('{"d": 1, "kind": "finite", "blocks": [{"k": 0, "l": 0, "values": [[true]]}]}',
             "blocks\\[0\\].values\\[0\\]: expected 1 numbers"),
        ]
        for text, fragment in cases:
            with pytest.raises(ModelSchemaError, match=fragment):
                self.load_text(tmp_path, text)

    def test_structurally_valid_but_bad_model_is_wrapped(self, tmp_path):
        text = json.dumps(
            {
                "d": 1,
                "kind": "gig1",
                "gig1": {"A": {"-1": [[0.2]], "1": [[0.2]]}, "B": {"0": [[1.0]]}},
            }
        )
        with pytest.raises(ModelSchemaError, match="invalid model: .*stochastic"):
            self.load_text(tmp_path, text)

    def test_schema_error_is_a_value_error(self):
        assert issubclass(ModelSchemaError, ValueError)


class TestReports:
    REPORTS = [
        BoundReport(n=10, m=34, bound2=0.5, bound1=0.25,
                    measured_error=0.001, reference_level=400),
        BoundReport(n=20, m=55, bound2=0.125),
    ]

    def test_csv_layout(self):
        text = reports_to_csv(self.REPORTS)
        lines = text.splitlines()
        assert lines[0] == "n,m_star,bound1,bound2,measured_error,reference_level"
        assert lines[1] == "10,34,0.25,0.5,0.001,400"
        assert lines[2] == "20,55,,0.125,,"
        assert text.endswith("\n")

    def test_csv_uses_full_precision(self):
        report = BoundReport(n=1, m=1, bound2=0.34265004588266557)
        assert "0.34265004588266557" in reports_to_csv([report])

    def test_json_mirror(self):
        doc = json.loads(reports_to_json(self.REPORTS))
        assert [r["n"] for r in doc["reports"]] == [10, 20]
        first, second = doc["reports"]
        assert first["m_star"] == 34 and first["bound1"] == 0.25
        assert second["bound1"] is None and second["measured_error"] is None
        assert set(first) == {
            "n", "m_star", "bound1", "bound2", "measured_error", "reference_level"
        }
