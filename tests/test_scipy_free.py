"""The numpy replacements for scipy on the GI/G/1 path, checked against scipy.

The Brent port must return scipy.optimize.brentq's bits, the boolean closure
must give csgraph's classes in csgraph's order, and a fresh process that runs
`validate`, `bound` and `couple` on a GI/G/1 model must not import scipy.
`compare` may then import scipy.linalg, but not scipy.sparse.
"""

import json
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

import bmtrunc
from bmtrunc import MultipleClosedClassesError, save_model, stationary
from bmtrunc import gig1
from bmtrunc.block_matrix import BlockStochasticMatrix, _kernel_stationary, _small_closed_classes
from bmtrunc.gig1 import _brentq, _delta_slope, _is_irreducible, find_alpha

from helpers import dense_closed_classes, gig1_d2, mg1_d2, random_monotone_gig1

seeds = st.integers(min_value=0, max_value=2**32 - 1)
tolerances = st.sampled_from([1e-15, 1e-12, 2e-12, 1e-8, 1e-3])


@st.composite
def monotone_functions(draw):
    """A strictly increasing cubic or exponential with its root strictly inside a bracket."""
    floats = st.floats
    root = draw(floats(-5.0, 5.0))
    if draw(st.booleans()):
        c1, c3 = draw(floats(0.0, 5.0)), draw(floats(0.01, 5.0))
        f = lambda x: c3 * (x - root) ** 3 + c1 * (x - root)  # noqa: E731
    else:
        rate = draw(floats(0.05, 5.0))
        f = lambda x: math.exp(rate * (x - root)) - 1.0  # noqa: E731
    a = root - draw(floats(1e-6, 20.0))
    b = root + draw(floats(1e-6, 20.0))
    return f, a, b


def outcome(solve, *args, **kwargs):
    """The root, or the type of the error (a flat cubic root can exhaust the iterations)."""
    try:
        return solve(*args, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


@given(monotone_functions(), tolerances)
def test_brent_port_returns_scipys_root(problem, xtol):
    f, a, b = problem
    assert outcome(_brentq, f, a, b, xtol=xtol) == outcome(brentq, f, a, b, xtol=xtol)
    assert outcome(_brentq, f, b, a, xtol=xtol) == outcome(brentq, f, b, a, xtol=xtol)


@given(seeds)
def test_brent_port_returns_scipys_alpha(seed):
    slope = partial(_delta_slope, random_monotone_gig1(seed))
    lo, hi = 1.0, 2.0
    while slope(hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    want = brentq(slope, lo, hi, xtol=1e-15)
    assert _brentq(slope, lo, hi, xtol=1e-15) == want
    assert _brentq(slope, lo, hi, xtol=1e-15, fa=slope(lo), fb=slope(hi)) == want
    assert find_alpha(random_monotone_gig1(seed))[0] == want


def assert_same_error(f, a, b, error, match):
    with pytest.raises(error, match=match):
        brentq(f, a, b, xtol=1e-12)
    with pytest.raises(error, match=match):
        _brentq(f, a, b, xtol=1e-12)


def test_brent_port_rejects_nan():
    assert_same_error(lambda x: math.nan, 0.0, 1.0, ValueError, "NaN")
    assert_same_error(lambda x: math.nan if x > 0.3 else -1.0, 0.0, 1.0, ValueError, "NaN")
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: x - 0.5, 0.0, 1.0, xtol=1e-12, fb=math.nan)


def test_brent_port_rejects_a_bracket_without_a_sign_change():
    assert_same_error(lambda x: x * x + 1.0, -1.0, 2.0, ValueError, "different signs")
    assert_same_error(lambda x: -x - 1.0, 0.0, 2.0, ValueError, "different signs")


def test_brent_port_gives_up_after_100_iterations():
    def step(x):  # no root, and the jump at 1e-300 needs some 2000 halvings to pin
        return -1.0 if x < 1e-300 else 1.0

    assert_same_error(step, -1e300, 1e300, RuntimeError, "converge")


@pytest.mark.parametrize("up", [0.4, 0.01, 0.001])
def test_find_alpha_evaluates_the_slope_once_per_point(up, monkeypatch):
    points = []

    def counted(model, z):
        points.append(z)
        return _delta_slope(model, z)

    monkeypatch.setattr(gig1, "_delta_slope", counted)
    model = gig1.GIG1Model(
        d=1, A={-1: [[1.0 - up]], 1: [[up]]}, B={-1: [[1.0 - up]], 0: [[1.0 - up]], 2: [[up]]}
    )
    find_alpha(model)
    assert len(points) == len(set(points))


@st.composite
def patterns(draw):
    """A d x d 0/1 pattern, d = 1..12, sparse enough to be reducible often."""
    d = draw(st.integers(min_value=1, max_value=12))
    density = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6, 1.0]))
    return np.random.default_rng(draw(seeds)).random((d, d)) < density


@given(patterns())
def test_closure_matches_the_csgraph_classes(pattern):
    want = dense_closed_classes(pattern)
    assert [c.tolist() for c in _small_closed_classes(pattern)] == [c.tolist() for c in want]
    irreducible = len(want) == 1 and len(want[0]) == len(pattern)
    assert _is_irreducible(pattern) == irreducible


@given(patterns(), seeds)
def test_kernel_classes_match_the_csgraph_classes(pattern, seed):
    pattern = pattern | np.diag(~pattern.any(axis=1))  # every row needs mass
    psi = pattern * np.random.default_rng(seed).uniform(0.1, 1.0, pattern.shape)
    psi /= psi.sum(axis=1, keepdims=True)
    want = dense_closed_classes(pattern)
    if len(want) > 1:
        with pytest.raises(MultipleClosedClassesError) as err:
            _kernel_stationary(psi)
        assert err.value.classes == [[(int(s), 0) for s in cls] for cls in want]
        return
    entries = {(i, j): [[p]] for (i, j), p in np.ndenumerate(psi)}
    banded = stationary(BlockStochasticMatrix.from_blocks(1, entries)).flat
    pi = _kernel_stationary(psi)
    assert np.array_equal(pi, banded)
    assert np.nonzero(pi)[0].tolist() == want[0].tolist()


_COLD_RUN = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

if sys.argv[1] == "import":
    import bmtrunc
    print(json.dumps({"import": scipy_modules()}))
    raise SystemExit(0)
from bmtrunc.cli import main

mg1, gig1 = sys.argv[1:3]
report = {}
with contextlib.redirect_stdout(io.StringIO()):
    for model, command in ((mg1, "validate"), (gig1, "validate"), (mg1, "bound"), (mg1, "couple")):
        report[command + " " + model] = main(["--model", model, "--command", command])
    report["cold"] = scipy_modules()
    report["compare"] = main(["--model", mg1, "--command", "compare", "--n", "10,20"])
    report["compare " + gig1] = main(["--model", gig1, "--command", "compare"])
report["warm"] = [m for m in scipy_modules() if m.startswith("scipy.sparse")]

from bmtrunc import BlockStochasticMatrix, MultipleClosedClassesError, stationary

# two absorbing states: only the slow path can name the classes
P = BlockStochasticMatrix.from_blocks(1, {(0, 0): [[1.0]], (1, 1): [[1.0]]})
try:
    stationary(P, [1])
except MultipleClosedClassesError as err:
    report["classes"] = err.classes
report["slow"] = "scipy.sparse.csgraph" in sys.modules
print(json.dumps(report))
"""


def cold_run(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(bmtrunc.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", _COLD_RUN, *args]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_gig1_cold_path_loads_no_scipy(tmp_path):
    # compare loads scipy.linalg for dtbtrs, but no scipy.sparse: its levels
    # take their closed class from the sweep's pivots. A reducible corner
    # still loads csgraph, which names its classes.
    mg1, gig = str(tmp_path / "mg1_d2.json"), str(tmp_path / "gig1_d2.json")
    save_model(mg1_d2(), mg1)
    save_model(gig1_d2(), gig)
    assert cold_run("import") == {"import": []}
    report = cold_run(mg1, gig)
    assert report.pop("cold") == []
    assert report.pop("warm") == []
    assert report.pop("classes") == [[[0, 0]], [[1, 0]]]
    assert report.pop("slow") is True
    assert set(report.values()) == {0}
    assert len(report) == 6
