"""The smooth kernel's tables against a Gauss-Legendre reference.

Each table is the cubic Hermite interpolant of exact node slopes, so it
must lie within h^4/384 * max|f^(4)| of the function it tabulates, plus the
rounding of its node values.
"""

import tracemalloc

import numpy as np
import pytest

from toricray import kernels
from toricray.kernels import get_kernel

H = 2.0 / 8192
# rounding of node values summed over up to 8192 panels, set from the dtype
NODE_ROUNDING = 64 * np.finfo(float).eps
# the 15-point Gauss-Legendre rule on [-1, 1], apart from the package's K15
GL15_NODES, GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _reference(kernel, t, weight):
    """integral over [-1, t] of weight(u, t) * density(u), 64 GL15 panels."""
    out = []
    for ti in t:
        edges = np.linspace(-1.0, ti, 65)
        a, b = edges[:-1], edges[1:]
        u = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * GL15_NODES
        vals = weight(u, ti) * kernel.density(u.ravel()).reshape(u.shape)
        out.append(np.sum(0.5 * (b - a) * (vals @ GL15_WEIGHTS)))
    return np.array(out)


def _fourth_derivative_bounds(kernel):
    """max|f^(4)| of each table's function: density^(3), (t density)^(3)
    and density^(2); the third derivative by differencing density^(2)."""
    u = np.linspace(-1.0, 1.0, 400001)
    d2 = kernel.density_d2(u)
    d3 = np.gradient(d2, u[1] - u[0])
    return {"cdf": float(np.max(np.abs(d3))),
            "first_moment": float(np.max(np.abs(u * d3 + 3.0 * d2))),
            "cdf_integral": float(np.max(np.abs(d2)))}


@pytest.mark.parametrize("name, weight", [
    ("cdf", lambda u, t: 1.0),
    ("first_moment", lambda u, t: u),
    # integral of cdf from -1 to t, by parts
    ("cdf_integral", lambda u, t: t - u),
])
def test_smooth_tables_within_hermite_bound(name, weight):
    kernel = get_kernel("smooth")
    rng = np.random.default_rng(5)
    nodes = np.linspace(-1.0, 1.0, 8193)
    t = np.concatenate([rng.uniform(-1.0, 1.0, 400), nodes[::97],
                        nodes[4090:4104], [-1.0, 1.0]])
    err = np.abs(getattr(kernel, name)(t) - _reference(kernel, t, weight))
    bound = H ** 4 / 384.0 * _fourth_derivative_bounds(kernel)[name]
    assert bound < 5e-15
    assert np.max(err) <= bound + NODE_ROUNDING


def test_smooth_tables_take_scalars_and_clamp():
    kernel = get_kernel("smooth")
    for name in ("cdf", "first_moment", "cdf_integral"):
        table = getattr(kernel, name)
        assert np.shape(table(0.25)) == ()
        assert table(3.0) == table(1.0) and table(-3.0) == table(-1.0) == 0.0
    assert kernel.cdf(1.0) == pytest.approx(1.0, abs=1e-15)
    assert kernel.cdf_integral(1.0) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("kernel", kernels.KERNEL_NAMES)
def test_a_lone_t_is_its_entry_of_an_array(kernel):
    # every kernel function gives a lone t a 0-d value with the bits of its
    # entry in an array: on a numpy scalar the cosine kernel's t ** 2 is
    # libm's pow, which rounds some squares otherwise than an array's t * t
    kern = get_kernel(kernel)
    T = np.random.default_rng(0).uniform(-1.2, 1.2, 20000)
    for name in ("density", "density_d1", "density_d2",
                 "cdf", "first_moment", "cdf_integral"):
        fn = getattr(kern, name)
        array = fn(T)
        lone = [fn(t) for t in T]
        assert {np.shape(v) for v in lone} == {()}, name
        assert [k for k, v in enumerate(lone)
                if not np.array_equal(v, array[k])] == [], name


def test_smooth_table_build_stays_small():
    # the nodes of cdf_integral come by parts from the other two tables, not
    # from a nested quadrature pass over the grid (which peaked at 91 MB)
    tracemalloc.start()
    try:
        kernels._smooth_kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
