"""Seeded input generator: the model files the benchmark feeds to `bmtrunc`.

Fixed models (the same for every seed):

* walk_d1   d=1 birth-death walk, up 0.4 / down 0.6, reflecting at 0. Its
            LCB truncation error has the closed form 2 (2/3)^(n+1).
* slow_d1   the same walk with up 0.45: gamma close to 1, long m scans.
* mg1_d2    d=2 skip-free-downward model (direct certificate).
* gig1_d2   d=2 model off the skip-free pattern (boundary lift).
* finite_d2 explicit `kind: finite` corner: the LCB truncation of mg1_d2 at
            level 30, written out block by block. Block-monotone.

Random models (drawn from the seed, rejection-sampled):

* rand_d2   d=2, A-support -2..2, boundary row built to keep monotonicity.
* rand_d8   d=8 skip-free-downward, A-support -1..1.

A random draw is kept only when the model is block-monotone, has mean drift
<= -0.05, certifies, and the certificate's own tail estimate puts less than
TAIL_MASS_LIMIT of stationary mass beyond the reference level `compare`
uses for it. The last condition keeps every `compare` op from failing on a
reference that has not converged, whatever the seed.

Files are plain JSON written here with Python's shortest round-trip floats,
so the generator does not depend on the writer under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIXED = ("walk_d1", "slow_d1", "mg1_d2", "gig1_d2", "finite_d2")
MIN_DRIFT = -0.05
TAIL_MASS_LIMIT = 1e-12
MAX_DRAWS = 1000

# Expected `validate` path labels, fixed by how each model is built.
SKIP_FREE = "skip-free-shortcut"
BOUNDARY_LIFT = "boundary-lift"
MONOTONE_TRUNCATION = "monotone-truncation"

_A2 = {
    -1: [[0.5, 0.1], [0.2, 0.3]],
    0: [[0.1, 0.1], [0.2, 0.1]],
    1: [[0.1, 0.1], [0.1, 0.1]],
}


@dataclass(frozen=True)
class ModelFile:
    name: str
    path: Path
    sha256: str
    expected_path: str


def _walk(up: float) -> dict:
    down = 1.0 - up
    return {"A": {-1: [[down]], 1: [[up]]}, "B": {-1: [[down]], 0: [[down]], 1: [[up]]}}


def _mg1_d2() -> dict:
    A = {j: np.array(b) for j, b in _A2.items()}
    return {"A": A, "B": {-1: A[-1], 0: A[-1], 1: A[0], 2: A[1]}}


def _gig1_d2() -> dict:
    A = {j: np.array(b) for j, b in _A2.items()}
    return {"A": A, "B": {-1: A[-1], 0: A[-1] + A[0] + 0.5 * A[1], 1: 0.5 * A[1]}}


def _draw_d2(rng) -> dict:
    """Random d=2 model, A-support -2..2, monotone by construction of B."""
    d = 2
    weights = np.array([3.0, 2.5, 1.0, 1.0, 0.8])  # tilt toward downward moves
    raw = {j: w * rng.uniform(0.05, 1.0, size=(d, d)) for j, w in zip(range(-2, 3), weights)}
    total = sum(raw.values()).sum(axis=1)
    A = {j: blk / total[:, None] for j, blk in raw.items()}
    # Rows 1 and 2 reach level 0 with all mass that would fall below it;
    # row 0 starts as the fold of its downward mass and then moves extra
    # random mass down to level 0, which keeps the tail-sum order.
    B = {-2: A[-2], -1: A[-2] + A[-1], 0: A[-2] + A[-1]}
    for l in range(1, 4):
        B[l] = A[l - 1].copy()
    for l in range(1, 4):
        movable = rng.uniform(0.0, 0.5, size=(d, d)) * B[l]
        B[l] = B[l] - movable
        B[0] = B[0] + movable
    return {"A": A, "B": B}


def _draw_d8(rng) -> dict:
    """Random d=8 skip-free-downward model: B(-1) = B(0) = A(-1), B(l) = A(l-1)."""
    d = 8
    weights = np.array([2.0, 1.0, 1.0])
    raw = {j: w * rng.uniform(0.05, 1.0, size=(d, d)) for j, w in zip(range(-1, 2), weights)}
    total = sum(raw.values()).sum(axis=1)
    A = {j: blk / total[:, None] for j, blk in raw.items()}
    return {"A": A, "B": {-1: A[-1], 0: A[-1], 1: A[0], 2: A[1]}}


def _gig1_doc(d: int, blocks: dict) -> dict:
    def as_map(m):
        return {str(j): np.asarray(b, dtype=float).tolist() for j, b in sorted(m.items())}

    return {"d": d, "kind": "gig1", "gig1": {"A": as_map(blocks["A"]), "B": as_map(blocks["B"])}}


def _lcb_corner_doc(d: int, blocks: dict, n: int) -> dict:
    """Explicit LCB truncation at level n of a gig1 block description."""
    A = {j: np.asarray(b, dtype=float) for j, b in blocks["A"].items()}
    B = {j: np.asarray(b, dtype=float) for j, b in blocks["B"].items()}
    corner = np.zeros((n + 1, n + 1, d, d))
    for l, blk in B.items():
        if l >= 0:
            corner[0, min(l, n)] += blk
    for k in range(1, n + 1):
        if -k in B:
            corner[k, 0] += B[-k]
        for j, blk in A.items():
            if k + j >= 1:
                corner[k, min(k + j, n)] += blk
    entries = [
        {"k": k, "l": l, "values": corner[k, l].tolist()}
        for k in range(n + 1)
        for l in range(n + 1)
        if np.any(corner[k, l] != 0.0)
    ]
    return {"d": d, "kind": "finite", "blocks": entries}


def _accept(blocks: dict, d: int, reference_level: int) -> bool:
    """Monotone, drift <= MIN_DRIFT, certifies, and a converged reference."""
    from bmtrunc import GIG1Model, certificate_for_model, mean_drift

    model = GIG1Model(d=d, A=blocks["A"], B=blocks["B"])
    if not model.is_block_monotone() or mean_drift(model) > MIN_DRIFT:
        return False
    try:
        _, _, cert = certificate_for_model(model)
    except (ValueError, ArithmeticError):
        return False
    # pi(v) <= b / (1 - gamma), so the mass at levels >= L is at most
    # b / ((1 - gamma) min_i v(L, i)).
    tail = cert.b / ((1.0 - cert.gamma) * float(cert.value_at(reference_level).min()))
    return tail < TAIL_MASS_LIMIT


def _sample(draw, rng, d: int, reference_level: int) -> dict:
    for _ in range(MAX_DRAWS):
        blocks = draw(rng)
        if _accept(blocks, d, reference_level):
            return blocks
    raise RuntimeError(f"no acceptable d={d} model in {MAX_DRAWS} draws")


def generate(seed: int, out_dir: Path, reference_levels: dict[str, int]) -> dict[str, ModelFile]:
    """Write every model file for `seed` into out_dir and return them by name.

    reference_levels maps each random model to the smallest reference level
    `compare` will use on it; its draw must have converged by that level.
    """
    rng = np.random.default_rng(seed)
    rand_d2 = _sample(_draw_d2, rng, 2, reference_levels["rand_d2"])
    rand_d8 = _sample(_draw_d8, rng, 8, reference_levels["rand_d8"])
    docs = {
        "walk_d1": (_gig1_doc(1, _walk(0.4)), BOUNDARY_LIFT),
        "slow_d1": (_gig1_doc(1, _walk(0.45)), BOUNDARY_LIFT),
        "mg1_d2": (_gig1_doc(2, _mg1_d2()), SKIP_FREE),
        "gig1_d2": (_gig1_doc(2, _gig1_d2()), BOUNDARY_LIFT),
        "finite_d2": (_lcb_corner_doc(2, _mg1_d2(), 30), MONOTONE_TRUNCATION),
        "rand_d2": (_gig1_doc(2, rand_d2), BOUNDARY_LIFT),
        "rand_d8": (_gig1_doc(8, rand_d8), SKIP_FREE),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, (doc, expected_path) in docs.items():
        data = (json.dumps(doc, indent=1) + "\n").encode()
        path = out_dir / f"{name}.json"
        path.write_bytes(data)
        files[name] = ModelFile(name, path, hashlib.sha256(data).hexdigest(), expected_path)
    return files
