"""The replacements for scipy in the package, checked against scipy.

The Brent port must return scipy.optimize.brentq's bits, the Tarjan search
must give csgraph's classes in csgraph's order, the kernel solve must give
the dense GTH oracle's bits, and the numpy back-substitution of the shared
sweep must agree with LAPACK's banded triangular solve (dtbtrs). A fresh
process that runs any command, or stationary(P), must not import scipy, and
no module of the package imports it.
"""

import ast
import json
import math
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

import bmtrunc
from bmtrunc import BlockStochasticMatrix, MultipleClosedClassesError, closed_classes, save_model
from bmtrunc import block_matrix, gig1, lcb_truncate
from bmtrunc.block_matrix import (
    _Descent,
    _class_top,
    _closed_classes,
    _kernel_stationary,
    _upward_views,
)
from bmtrunc.gig1 import _brentq, _delta_slope, _is_irreducible, find_alpha

from helpers import (
    band_corner,
    corner_from_dense,
    dense,
    dense_closed_classes,
    dense_gth,
    full_sweep,
    gig1_d2,
    lapack_solve_up,
    mg1_d2,
    random_band,
    random_monotone_gig1,
    solve_up,
    sweep_repeat,
)

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


@st.composite
def corners(draw):
    """A square corner, d = 1..3, 1..40 levels, up to 2 levels below and above the diagonal."""
    d, levels = draw(st.integers(1, 3)), draw(st.integers(1, 40))
    lower, upper = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    rng = np.random.default_rng(draw(seeds))
    return band_corner(d, random_band(rng, d, levels, lower, upper, density), lower)


def same_classes(got, want):
    return [c.tolist() for c in got] == [c.tolist() for c in want]


@given(patterns(), corners())
def test_closure_matches_the_csgraph_classes(pattern, P):
    want = dense_closed_classes(pattern)
    assert same_classes(_closed_classes(pattern[None, None]), want)
    irreducible = len(want) == 1 and len(want[0]) == len(pattern)
    assert _is_irreducible(pattern) == irreducible
    assert same_classes(closed_classes(P), dense_closed_classes(dense(P) > 0.0))


def test_a_long_path_has_one_class_without_recursion():
    # 0 -> 1 -> ... -> N-1, absorbed at N-1: a search 20 000 states deep
    states = 20_000
    band = np.zeros((states, 2, 1, 1))
    band[:-1, 1] = band[-1, 0] = 1.0
    P = BlockStochasticMatrix(1, band)
    start = time.perf_counter()
    assert same_classes(closed_classes(P), [np.array([states - 1])])
    assert time.perf_counter() - start < 0.5


@given(patterns(), seeds)
def test_kernel_classes_match_the_csgraph_classes(pattern, seed):
    pattern = pattern | np.diag(~pattern.any(axis=1))  # every row needs mass
    psi = pattern * np.random.default_rng(seed).uniform(0.1, 1.0, pattern.shape)
    psi /= psi.sum(axis=1, keepdims=True)
    want = dense_closed_classes(pattern)
    if len(want) > 1:
        with pytest.raises(MultipleClosedClassesError) as err:
            _kernel_stationary(psi, len(psi))
        assert err.value.classes == [[(0, int(s)) for s in cls] for cls in want]
        return
    cls = want[0]
    expected = np.zeros(len(psi))
    expected[cls] = dense_gth(psi[np.ix_(cls, cls)])
    pi = _kernel_stationary(psi, len(psi))
    assert np.array_equal(pi, expected)
    assert np.nonzero(pi)[0].tolist() == cls.tolist()


@st.composite
def swept_corners(draw):
    """A random band corner, or a truncation of a random GI/G/1 model whose sweep repeats."""
    seed = draw(seeds)
    if draw(st.booleans()):
        return lcb_truncate(random_monotone_gig1(seed), draw(st.integers(10, 160)))
    d, lower, upper = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
    levels = draw(st.integers(2, 40))
    density = draw(st.sampled_from([1.0, 0.5]))
    rng = np.random.default_rng(seed)
    return band_corner(d, random_band(rng, d, levels, lower, upper, density), lower)


@pytest.mark.parametrize("bits", [1000.0, 2.0])
@given(swept_corners(), st.data())
def test_descent_matches_lapack_dtbtrs(bits, P, data):
    # The descent from any level boundary, through the repeat's maps where
    # the sweep copies and the tree of level maps below, against LAPACK's
    # solve of the same reduced band. With 2 bits most tree nodes split.
    W, lo, pivots = full_sweep(P)
    cols = _upward_views(W, lo, P.upper * P.d + P.d - 1)[1]
    try:
        h = _class_top((P.band,), P.lower, pivots)
    except MultipleClosedClassesError:
        return
    level = data.draw(st.integers(0, h // P.d))
    with mock.patch.object(block_matrix, "_CHUNK_BITS", bits):
        got = solve_up(_Descent(cols, pivots, P.d), h, level, sweep_repeat(P))
    want = lapack_solve_up(cols[:h].T, pivots[:h], bits)
    np.testing.assert_allclose(got / got.sum(), want / want.sum(), rtol=1e-12, atol=1e-300)


_COLD_RUN = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

if sys.argv[1] == "import":
    import bmtrunc
    print(json.dumps({"import": scipy_modules()}))
    raise SystemExit(0)
from bmtrunc.cli import main

mg1, gig1, split = sys.argv[1:4]
report = {}
cold = ((mg1, "validate"), (gig1, "validate"), (split, "validate"), (mg1, "bound"), (mg1, "couple"))
with contextlib.redirect_stdout(io.StringIO()):
    for model, command in cold:
        report[command + " " + model] = main(["--model", model, "--command", command])
    report["cold"] = scipy_modules()
    report["compare"] = main(["--model", mg1, "--command", "compare", "--n", "10,20"])
    report["compare " + gig1] = main(["--model", gig1, "--command", "compare"])
report["warm"] = scipy_modules()

from bmtrunc import BlockStochasticMatrix, MultipleClosedClassesError, lcb_truncate, load_model
from bmtrunc import stationary

report["corner"] = stationary(lcb_truncate(load_model(mg1), 50)).is_probability()
report["solved"] = scipy_modules()

# two closed classes: only the slow path can name them
absorbing = BlockStochasticMatrix.from_blocks(1, {(0, 0): [[1.0]], (1, 1): [[1.0]]})
for key, solve in (
    ("classes", lambda: stationary(absorbing, [1])),
    ("split", lambda: stationary(load_model(split))),
):
    try:
        solve()
    except MultipleClosedClassesError as err:
        report[key] = err.classes
report["slow"] = scipy_modules()
print(json.dumps(report))
"""

# d = 2: level 0 leaks into the absorbing state (1, 0) and into the pair
# (2, 0) <-> (2, 1); state (1, 1) moves to (1, 0).
_SPLIT = [
    [0.2, 0.3, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.6, 0.0, 0.0, 0.0, 0.4],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 0.0, 0.0, 0.7, 0.3],
]


def cold_run(*args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(bmtrunc.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", _COLD_RUN, *args]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_gig1_cold_path_loads_no_scipy(tmp_path):
    # validate of a reducible finite corner counts its classes with no scipy,
    # and compare and stationary(P) solve with none either, also when a
    # reducible corner names its classes.
    mg1, gig = str(tmp_path / "mg1_d2.json"), str(tmp_path / "gig1_d2.json")
    split = str(tmp_path / "split.json")
    save_model(mg1_d2(), mg1)
    save_model(gig1_d2(), gig)
    save_model(corner_from_dense(2, _SPLIT), split)
    assert cold_run("import") == {"import": []}
    report = cold_run(mg1, gig, split)
    assert report.pop("cold") == []
    assert report.pop("warm") == []
    assert report.pop("corner") is True
    assert report.pop("solved") == []
    assert report.pop("classes") == [[[0, 0]], [[1, 0]]]
    want = dense_closed_classes(np.array(_SPLIT) > 0.0)
    assert len(want) == 2
    assert report.pop("split") == [[[int(s) // 2, int(s) % 2] for s in c] for c in want]
    assert report.pop("slow") == []
    assert set(report.values()) == {0}
    assert len(report) == 7


def test_the_package_imports_no_scipy():
    imports = []
    for path in sorted(Path(bmtrunc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                imports.append((path.name, ast.unparse(node)))
    assert imports == []
