"""The replacements for scipy in the package, checked against scipy.

The alpha search must find a delta no larger, to 4 eps, than the one at
scipy.optimize.brentq's root of the slope, the Tarjan search
must give csgraph's classes in csgraph's order, the kernel solve must give
the dense GTH oracle's bits, and the numpy back-substitution of the shared
sweep must agree with LAPACK's banded triangular solve (dtbtrs). A fresh
process that runs any command, or stationary(P), must not import scipy, and
no module of the package imports it.
"""

import ast
import json
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
from bmtrunc import (
    BlockStochasticMatrix,
    MultipleClosedClassesError,
    closed_classes,
    load_model,
    save_model,
)
from bmtrunc import block_matrix, gig1, lcb_truncate
from bmtrunc.block_matrix import (
    _Descent,
    _class_top,
    _closed_classes,
    _kernel_stationary,
    _upward_views,
)
from bmtrunc.gig1 import _is_irreducible, a_hat, find_alpha, perron

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

EPS = np.finfo(float).eps


def oracle_slope(model, z):
    """delta'(z) = mu(z) A'(z) v(z) from the public Perron triple."""
    _, mu, v = perron(a_hat(model, z))
    return mu @ sum(j * z ** (j - 1) * blk for j, blk in model.A.items()) @ v


def brentq_alpha(model):
    """alpha as scipy's brentq finds the root of the slope, bracketed by doubling from [1, 2]."""
    lo, hi = 1.0, 2.0
    while oracle_slope(model, hi) < 0.0:
        lo, hi = hi, 2.0 * hi
    return brentq(partial(oracle_slope, model), lo, hi, xtol=1e-15)


def searched(model, monkeypatch):
    """find_alpha's result, and the points at which its search solved an eigenproblem."""
    points = []
    transforms = gig1._transforms

    def recorded(model, z):
        points.append(z)
        return transforms(model, z)

    with monkeypatch.context() as patch:
        patch.setattr(gig1, "_transforms", recorded)
        found = find_alpha(model)
    assert points[0] == 1.0  # the first step reads z = 1 without an eigen-solve
    return found, points[1:]


def assert_matches_brentq(model, monkeypatch):
    (alpha, delta, _, _), points = searched(model, monkeypatch)
    assert delta <= perron(a_hat(model, brentq_alpha(model)))[0] * (1.0 + 4.0 * EPS)
    assert len(points) == len(set(points)) <= 5
    assert alpha not in points  # perron(a_hat(alpha)) is the one solve at alpha


@pytest.mark.parametrize("up", [0.4, 0.01, 0.001])
def test_find_alpha_evaluates_the_slope_once_per_point(up, monkeypatch):
    model = gig1.GIG1Model(
        d=1, A={-1: [[1.0 - up]], 1: [[up]]}, B={-1: [[1.0 - up]], 0: [[1.0 - up]], 2: [[up]]}
    )
    _, points = searched(model, monkeypatch)
    assert len(points) == len(set(points))


def test_alpha_search_matches_brentq_on_random_models(monkeypatch):
    for seed in range(200):
        assert_matches_brentq(random_monotone_gig1(seed), monkeypatch)


@pytest.fixture(scope="module")
def benchmark_gig1_models(tmp_path_factory):
    """The GI/G/1 models of the benchmark at seeds 3 and 7."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench import models, workloads
    found = []
    for seed in (3, 7):
        files = models.generate(seed, tmp_path_factory.mktemp(f"models{seed}"),
                                workloads.reference_levels())
        found += [load_model(str(f.path)) for f in files.values()]
    return [model for model in found if isinstance(model, gig1.GIG1Model)]


def test_alpha_search_matches_brentq_on_benchmark_models(benchmark_gig1_models, monkeypatch):
    assert len(benchmark_gig1_models) == 12
    for model in benchmark_gig1_models:
        assert_matches_brentq(model, monkeypatch)


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
        h = _class_top(P.band, P.lower, pivots)
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
