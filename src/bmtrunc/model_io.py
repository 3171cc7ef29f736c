"""JSON model/vector files and deterministic report rendering.

Model files:
    {"d": 1, "kind": "finite", "blocks": [{"k": 0, "l": 0, "values": [[0.6]]}, ...]}
    {"d": 1, "kind": "gig1", "gig1": {"A": {"-1": [[0.6]], "1": [[0.4]]},
                                      "B": {"0": [[0.6]], "1": [[0.4]]}}}
Vector files:
    {"d": 2, "entries": [[0.5, 0.5], [0.0, 0.0]]}

All floats in emitted reports are rendered with 17 significant digits so
reruns are byte-identical and diffs are stable.
"""

from __future__ import annotations

import json

import numpy as np

from .block_matrix import BlockStochasticMatrix, BlockVector
from .drift_bounds import BoundReport
from .gig1 import GIG1Model

__all__ = [
    "ModelSchemaError",
    "load_model",
    "save_model",
    "load_vector",
    "save_vector",
    "format_float",
    "render_json",
    "reports_to_csv",
    "reports_to_json",
]

REPORT_COLUMNS = ("n", "m_star", "bound1", "bound2", "measured_error", "reference_level")


class ModelSchemaError(ValueError):
    """A model/vector file violates the JSON schema (message names the field)."""


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def _render(value, indent: int) -> str:
    pad = " " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(pad + "  " + _render(v, indent + 2) for v in value)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + _render(v, indent + 2)
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(value) -> str:
    """JSON text with %.17g floats and stable key order (insertion order)."""
    return _render(value, 0) + "\n"


def _expect(condition: bool, message: str):
    if not condition:
        raise ModelSchemaError(message)


def _json_is(x, kind) -> bool:
    """isinstance for a parsed JSON value: json reads true and false as bool, a subclass of int."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _unique_keys(pairs: list) -> dict:
    """json object_pairs_hook that rejects a repeated key, where json keeps the last."""
    out = {}
    for key, value in pairs:
        _expect(key not in out, f"key {key!r} appears twice in one object")
        out[key] = value
    return out


def _parse_matrix(raw, d: int, where: str) -> np.ndarray:
    _expect(isinstance(raw, list) and len(raw) == d, f"{where}: expected {d} rows")
    for r, row in enumerate(raw):
        _expect(
            isinstance(row, list) and len(row) == d and all(_json_is(x, (int, float)) for x in row),
            f"{where}[{r}]: expected {d} numbers",
        )
    return np.asarray(raw, dtype=float)


def _parse_block_map(raw, d: int, where: str) -> dict[int, np.ndarray]:
    _expect(isinstance(raw, dict), f"{where}: expected an object of offset -> matrix")
    out, keys = {}, {}
    for key, mat in raw.items():
        try:
            offset = int(key)
        except (TypeError, ValueError):
            raise ModelSchemaError(f"{where}: offset {key!r} is not an integer") from None
        _expect(
            offset not in keys,
            f"{where}: offsets {keys.get(offset)!r} and {key!r} are both {offset}",
        )
        keys[offset] = key
        out[offset] = _parse_matrix(mat, d, f"{where}[{key}]")
    return out


def load_model(path: str):
    """Parse a model file into a BlockStochasticMatrix or GIG1Model.

    Raises:
        ModelSchemaError: malformed schema (field named in the message) or
            an invalid model (non-stochastic row, reducible A-sum, ...).
        OSError: unreadable file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ModelSchemaError(f"not valid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "top level: expected an object")
    d = doc.get("d")
    _expect(_json_is(d, int) and d >= 1, "d: expected a positive integer")
    kind = doc.get("kind")
    _expect(kind in ("finite", "gig1"), 'kind: expected "finite" or "gig1"')
    try:
        if kind == "finite":
            raw_blocks = doc.get("blocks")
            _expect(isinstance(raw_blocks, list) and raw_blocks, "blocks: expected a non-empty list")
            blocks, first = {}, {}
            for idx, entry in enumerate(raw_blocks):
                _expect(isinstance(entry, dict), f"blocks[{idx}]: expected an object")
                k, l = entry.get("k"), entry.get("l")
                _expect(
                    _json_is(k, int) and _json_is(l, int) and k >= 0 and l >= 0,
                    f"blocks[{idx}]: k and l must be non-negative integers",
                )
                _expect(
                    (k, l) not in first,
                    f"blocks[{first.get((k, l))}] and blocks[{idx}]: both are block (k={k}, l={l})",
                )
                first[(k, l)] = idx
                blocks[(k, l)] = _parse_matrix(entry.get("values"), d, f"blocks[{idx}].values")
            return BlockStochasticMatrix.from_blocks(d, blocks)
        section = doc.get("gig1")
        _expect(isinstance(section, dict), "gig1: expected an object with A and B")
        A = _parse_block_map(section.get("A"), d, "gig1.A")
        B = _parse_block_map(section.get("B"), d, "gig1.B")
        return GIG1Model(d=d, A=A, B=B)
    except ModelSchemaError:
        raise
    except ValueError as exc:
        raise ModelSchemaError(f"invalid model: {exc}") from None


def save_model(model, path: str):
    """Write a model back out in the schema above."""
    if isinstance(model, BlockStochasticMatrix):
        # row-major over (k, slot): k ascending, then l ascending within a row
        k, o = np.nonzero(np.any(model.band != 0.0, axis=(2, 3)))
        blocks = [
            {"k": row, "l": row - model.lower + slot, "values": model.band[row, slot]}
            for row, slot in zip(k.tolist(), o.tolist())
        ]
        doc = {"d": model.d, "kind": "finite", "blocks": blocks}
    elif isinstance(model, GIG1Model):
        doc = {
            "d": model.d,
            "kind": "gig1",
            "gig1": {
                "A": {str(j): blk for j, blk in sorted(model.A.items())},
                "B": {str(j): blk for j, blk in sorted(model.B.items())},
            },
        }
    else:
        raise TypeError(f"cannot save {type(model).__name__}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_json(doc))


def load_vector(path: str) -> BlockVector:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ModelSchemaError(f"not valid JSON: {exc}") from None
    _expect(isinstance(doc, dict), "top level: expected an object")
    d = doc.get("d")
    _expect(_json_is(d, int) and d >= 1, "d: expected a positive integer")
    entries = doc.get("entries")
    _expect(isinstance(entries, list) and entries, "entries: expected a non-empty list")
    parsed = []
    for r, row in enumerate(entries):
        _expect(
            isinstance(row, list) and len(row) == d and all(_json_is(x, (int, float)) for x in row),
            f"entries[{r}]: expected {d} numbers",
        )
        parsed.append(row)
    return BlockVector(d, np.asarray(parsed, dtype=float))


def save_vector(vec: BlockVector, path: str):
    doc = {"d": vec.d, "entries": vec.entries}
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_json(doc))


def _report_row(report: BoundReport) -> dict:
    return {
        "n": report.n,
        "m_star": report.m,
        "bound1": report.bound1,
        "bound2": report.bound2,
        "measured_error": report.measured_error,
        "reference_level": report.reference_level,
    }


def reports_to_csv(reports: list[BoundReport]) -> str:
    lines = [",".join(REPORT_COLUMNS)]
    for report in reports:
        row = _report_row(report)
        cells = []
        for col in REPORT_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            else:
                cells.append(format_float(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def reports_to_json(reports: list[BoundReport]) -> str:
    return render_json({"reports": [_report_row(r) for r in reports]})
