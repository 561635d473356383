"""Column passes over a short last axis, against numpy's own reductions."""

import ast
from pathlib import Path

import numpy as np
import pytest

from toricray import columns
from toricray.columns import (row_all, row_any, row_dot, row_max, row_min,
                              row_prod, row_sum)

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5,
                    -3.0, 1e-300, 5e-324, 1e308])

SHAPES = [(n,) for n in range(1, 5)] + [(60, n) for n in range(1, 5)] \
    + [(3, 60, n) for n in range(1, 5)]


def _same(got, want):
    """Same type, shape, dtype and bits; any nan matches any nan."""
    if type(got) is not type(want):
        return False
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype:
        return False
    if got.dtype.kind != "f":
        return np.array_equal(got, want)
    return bool(np.all((got.view(np.int64) == want.view(np.int64))
                       | np.isnan(got) & np.isnan(want)))


def _draws(shape, rng):
    """Wide-range normals, and draws from the special values: signed zeros,
    infinities, nan, subnormals and the edge of overflow."""
    wide = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    return [wide] + [rng.choice(SPECIAL, size=shape) for _ in range(8)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_helpers_have_numpys_bits(shape):
    rng = np.random.default_rng(sum(shape))
    checked = 0
    with np.errstate(all="ignore"):
        for a in _draws(shape, rng):
            b = rng.choice(SPECIAL, size=shape)
            mask = a > 0
            pairs = [(row_sum(a), np.sum(a, axis=-1)),
                     (row_sum(a), a.sum(axis=-1)),
                     (row_min(a), np.min(a, axis=-1)),
                     (row_max(a), np.max(a, axis=-1)),
                     (row_prod(a), np.prod(a, axis=-1)),
                     (row_dot(a, b), (a * b).sum(axis=-1)),
                     (row_sum(mask), np.sum(mask, axis=-1)),
                     (row_all(mask), np.all(mask, axis=-1)),
                     (row_any(mask), np.any(mask, axis=-1))]
            for k, (got, want) in enumerate(pairs):
                assert _same(got, want), (k, a, got, want)
                checked += 1
    assert checked == 81


def test_row_dot_broadcasts_like_the_product():
    rng = np.random.default_rng(7)
    X, m, g = (rng.standard_normal(s) for s in ((50, 2), (4, 1, 2), (50, 2)))
    assert _same(row_dot(X - m, g), ((X - m) * g).sum(axis=-1))


def test_helpers_return_new_arrays():
    a = np.arange(6.0).reshape(3, 2)
    for f in (row_sum, row_min, row_max, row_prod):
        out = f(a[:, :1])
        out[0] = -7.0
        assert a[0, 0] == 0.0


_REDUCTIONS = {"sum", "min", "max", "prod", "all", "any"}


def _last_axis_reductions(tree):
    """Calls of a numpy sum, min, max, prod, all or any function or method
    over axis -1, as a keyword or in the axis's place."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _REDUCTIONS):
            continue
        is_np = isinstance(node.func.value, ast.Name) \
            and node.func.value.id == "np"
        place = 1 if is_np else 0
        axis = [k.value for k in node.keywords if k.arg == "axis"]
        axis += node.args[place:place + 1]
        if any(_is_minus_one(a) for a in axis):
            found.append(node.lineno)
    return found


def _is_minus_one(node):
    try:
        return ast.literal_eval(node) == -1
    except ValueError:
        return False


def test_the_guard_finds_last_axis_reductions():
    code = ("np.sum(a, axis=-1)\nb.min(-1)\nnp.prod(a, -1)\n"
            "(x > 0).any(axis=-1)\nnp.max(a, axis=0)\nnp.sum(a)\n"
            "c.all(axis=1)\n")
    assert _last_axis_reductions(ast.parse(code)) == [1, 2, 3, 4]


def test_only_the_helpers_reduce_over_the_last_axis():
    # every reduction over axis -1 in the package is over a few
    # coordinates, facets or pieces, which the column passes reduce faster
    # with numpy's bits
    src = Path(columns.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name != "columns.py":
            found += [f"{path.name}:{line}" for line in
                      _last_axis_reductions(ast.parse(path.read_text()))]
    assert found == []
