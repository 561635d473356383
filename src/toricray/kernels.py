"""Bump kernels on [-1, 1] and their antiderivatives.

A kernel is the normalized profile of a generator's second derivative (or of
a mollifier): density >= 0, even, supported on [-1, 1], unit mass.  Two
profiles are provided:

* ``cosine``: cos^2(pi t / 2), closed-form antiderivatives, C^1 at the
  support endpoints.  Gives bit-stable regression values.
* ``smooth``: exp(-1/(1-t^2)) normalized, C-infinity.  Antiderivatives are
  precomputed on a fine grid by panelwise Gauss-Legendre and interpolated
  with monotone cubics (PCHIP); the unit-mass normalization is applied to
  the first antiderivative only, so downstream identities (e.g. that the
  second antiderivative reaches exactly 1) remain honest checks of the
  quadrature rather than definitions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.interpolate import PchipInterpolator

from .quadrature import GL15_NODES, GL15_WEIGHTS

__all__ = ["Kernel", "get_kernel", "KERNEL_NAMES"]

KERNEL_NAMES = ("cosine", "smooth")


def _panel_integrals(f, grid):
    """Integral of f over each [grid[i], grid[i+1]] with 15-point GL."""
    a = grid[:-1]
    b = grid[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * GL15_NODES[None, :]
    vals = f(pts.ravel()).reshape(pts.shape)
    return half * (vals @ GL15_WEIGHTS)


class Kernel:
    """Even probability density on [-1, 1] with cumulative tables.

    Attributes
    ----------
    density(t): the normalized profile, zero outside [-1, 1].
    cdf(t): integral of density from -1.
    first_moment(t): integral of u * density(u) from -1; vanishes at t = 1.
    cdf_integral(t): integral of cdf from -1 (clamped outside [-1, 1]).
    """

    def __init__(self, name, density, cdf, first_moment, cdf_integral, peak,
                 density_d1=None, density_d2=None):
        self.name = name
        self._density = density
        self._cdf = cdf
        self._first_moment = first_moment
        self._cdf_integral = cdf_integral
        self._density_d1 = density_d1
        self._density_d2 = density_d2
        self.peak = peak

    def _masked(self, fn, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        if np.any(inside):
            out[inside] = fn(t[inside])
        return out

    def density(self, t):
        return self._masked(self._density, t)

    def density_d1(self, t):
        return self._masked(self._density_d1, t)

    def density_d2(self, t):
        return self._masked(self._density_d2, t)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        return self._cdf(np.clip(t, -1.0, 1.0))

    def first_moment(self, t):
        t = np.asarray(t, dtype=float)
        return self._first_moment(np.clip(t, -1.0, 1.0))

    def cdf_integral(self, t):
        t = np.asarray(t, dtype=float)
        return self._cdf_integral(np.clip(t, -1.0, 1.0))

    def __repr__(self):
        return f"Kernel({self.name!r})"


def _cosine_kernel() -> Kernel:
    def density(t):
        return np.cos(np.pi * t / 2.0) ** 2

    def cdf(t):
        return (t + 1.0) / 2.0 + np.sin(np.pi * t) / (2.0 * np.pi)

    def first_moment(t):
        return ((t ** 2 - 1.0) / 4.0 + t * np.sin(np.pi * t) / (2.0 * np.pi)
                + (np.cos(np.pi * t) + 1.0) / (2.0 * np.pi ** 2))

    def cdf_integral(t):
        return (t + 1.0) ** 2 / 4.0 - (np.cos(np.pi * t) + 1.0) / (2.0 * np.pi ** 2)

    return Kernel("cosine", density, cdf, first_moment, cdf_integral, peak=1.0,
                  density_d1=lambda t: -0.5 * np.pi * np.sin(np.pi * t),
                  density_d2=lambda t: -0.5 * np.pi ** 2 * np.cos(np.pi * t))


def _smooth_kernel(grid_size: int = 8193) -> Kernel:
    def raw(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ti ** 2))
        return out

    grid = np.linspace(-1.0, 1.0, grid_size)
    mass_panels = _panel_integrals(raw, grid)
    cum_raw = np.concatenate([[0.0], np.cumsum(mass_panels)])
    c0 = cum_raw[-1]

    def density(t):
        return raw(t) / c0

    cdf_nodes = cum_raw / c0
    cdf_interp = PchipInterpolator(grid, cdf_nodes)

    moment_panels = _panel_integrals(lambda t: t * raw(t) / c0, grid)
    moment_nodes = np.concatenate([[0.0], np.cumsum(moment_panels)])
    moment_interp = PchipInterpolator(grid, moment_nodes)

    # cdf evaluated exactly (panel-accumulated + partial GL), then integrated
    # panelwise, so cdf_integral does not inherit interpolation error twice.
    def exact_cdf(t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid_size - 2)
        base = cdf_nodes[idx]
        a = grid[idx]
        half = 0.5 * (t - a)
        mid = 0.5 * (t + a)
        pts = mid[:, None] + half[:, None] * GL15_NODES[None, :]
        vals = density(pts.ravel()).reshape(pts.shape)
        return base + half * (vals @ GL15_WEIGHTS)

    k2_panels = _panel_integrals(lambda t: exact_cdf(t), grid)
    k2_nodes = np.concatenate([[0.0], np.cumsum(k2_panels)])
    k2_interp = PchipInterpolator(grid, k2_nodes)

    def density_d1(t):
        u = 1.0 - t ** 2
        return raw(t) / c0 * (-2.0 * t / u ** 2)

    def density_d2(t):
        u = 1.0 - t ** 2
        return raw(t) / c0 * ((2.0 * t / u ** 2) ** 2
                              - 2.0 * (1.0 + 3.0 * t ** 2) / u ** 3)

    return Kernel("smooth",
                  density=lambda t: raw(t) / c0,
                  cdf=lambda t: cdf_interp(t),
                  first_moment=lambda t: moment_interp(t),
                  cdf_integral=lambda t: k2_interp(t),
                  peak=float(np.exp(-1.0) / c0),
                  density_d1=density_d1,
                  density_d2=density_d2)


@lru_cache(maxsize=None)
def get_kernel(name: str) -> Kernel:
    if name == "cosine":
        return _cosine_kernel()
    if name == "smooth":
        return _smooth_kernel()
    raise ValueError(f"unknown kernel {name!r}; choose from {KERNEL_NAMES}")
