"""Bump kernels on [-1, 1] and their antiderivatives.

A kernel is the normalized profile of a generator's second derivative (or of
a mollifier): density >= 0, even, supported on [-1, 1], unit mass.  Two
profiles are provided:

* ``cosine``: cos^2(pi t / 2), closed-form antiderivatives, C^1 at the
  support endpoints.  Gives bit-stable regression values.
* ``smooth``: exp(-1/(1-t^2)) normalized, C-infinity.  Each antiderivative
  is tabulated on the uniform grid of 8193 nodes, h = 2/8192: node values
  of cdf and first_moment by panelwise K15 (``quadrature.panel_nodes``),
  with the profile evaluated once per node for both, those of
  cdf_integral by parts, t * cdf(t) - first_moment(t); node slopes exact
  (cdf' = density, first_moment' = t * density, cdf_integral' = cdf); and
  between the nodes the cubic Hermite interpolant of those values and
  slopes.  That interpolant is within h^4/384 * max|f^(4)| of the table's
  function f: 3.9e-15 for cdf (max|density^(3)| = 420), 3.4e-15 for
  first_moment and 1.6e-16 for cdf_integral (max|density^(2)| = 17.5).
  Beyond that bound only the rounding of the node values remains.  The
  unit-mass normalization is applied to the first antiderivative only, so
  that cdf_integral reaches 1 at t = 1 remains an honest check that the
  first moment vanishes there, rather than a definition.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .quadrature import panel_nodes

__all__ = ["Kernel", "get_kernel", "KERNEL_NAMES"]

KERNEL_NAMES = ("cosine", "smooth")

# nodes of the smooth kernel's uniform tables on [-1, 1]
_GRID_SIZE = 8193


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
                 density_d1, density_d2):
        self.name = name
        self._density = density
        self._cdf = cdf
        self._first_moment = first_moment
        self._cdf_integral = cdf_integral
        self._density_d1 = density_d1
        self._density_d2 = density_d2
        self.peak = peak

    # a lone t is evaluated as an array of one, so that it gets the bits
    # of its entry in any array: on a numpy scalar ``t ** 2`` is libm's
    # pow, which rounds some squares otherwise than an array's t * t
    def _masked(self, fn, t):
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        out = np.zeros_like(flat)
        inside = np.abs(flat) < 1.0
        if np.any(inside):
            out[inside] = fn(flat[inside])
        return out.reshape(t.shape)

    def _clipped(self, fn, t):
        t = np.asarray(t, dtype=float)
        return fn(np.minimum(np.maximum(t.reshape(-1), -1.0), 1.0)
                  ).reshape(t.shape)

    def density(self, t):
        return self._masked(self._density, t)

    def density_d1(self, t):
        return self._masked(self._density_d1, t)

    def density_d2(self, t):
        return self._masked(self._density_d2, t)

    def cdf(self, t):
        return self._clipped(self._cdf, t)

    def first_moment(self, t):
        return self._clipped(self._first_moment, t)

    def cdf_integral(self, t):
        return self._clipped(self._cdf_integral, t)

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


def _hermite_table(values, slopes):
    """Cubic Hermite interpolant on the uniform grid of [-1, 1] with the
    given node values and slopes, for t already clipped to [-1, 1]."""
    n = len(values) - 1
    h = 2.0 / n
    y0, y1 = values[:-1], values[1:]
    d0, d1 = h * slopes[:-1], h * slopes[1:]
    dy = y1 - y0
    # y0 + u (d0 + u (c2 + u c3)) on each cell, u in [0, 1] its local
    # coordinate; the standard Hermite basis, expanded in powers of u
    coef = np.stack([y0, d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy])

    def table(t):
        x = (t + 1.0) * (n / 2.0)
        idx = np.minimum(np.floor(x).astype(np.intp), n - 1)
        u = x - idx
        out = coef[3][idx]
        for c in coef[2::-1]:
            out *= u
            out += c[idx]
        return out
    return table


def _smooth_kernel() -> Kernel:
    def raw(t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        ti = t[inside]
        out[inside] = np.exp(-1.0 / (1.0 - ti ** 2))
        return out

    grid = np.linspace(-1.0, 1.0, _GRID_SIZE)
    u, w = panel_nodes(grid[:-1], grid[1:])
    # every node lies inside (-1, 1); the panels' integrals of the profile
    # and of t times it, from one evaluation
    w *= np.exp(-1.0 / (1.0 - u ** 2))
    cum_raw = np.concatenate([[0.0], np.cumsum(w.sum(axis=1))])
    c0 = cum_raw[-1]

    def density(t):
        return raw(t) / c0

    cdf_nodes = cum_raw / c0
    moment_nodes = np.concatenate([[0.0], np.cumsum((u * w).sum(axis=1)
                                                    / c0)])

    # by parts: the integral of cdf from -1 to t is t cdf(t) - first_moment(t)
    k2_nodes = grid * cdf_nodes - moment_nodes
    density_nodes = density(grid)

    def density_d1(t):
        u = 1.0 - t ** 2
        return raw(t) / c0 * (-2.0 * t / u ** 2)

    def density_d2(t):
        u = 1.0 - t ** 2
        return raw(t) / c0 * ((2.0 * t / u ** 2) ** 2
                              - 2.0 * (1.0 + 3.0 * t ** 2) / u ** 3)

    return Kernel("smooth",
                  density=density,
                  cdf=_hermite_table(cdf_nodes, density_nodes),
                  first_moment=_hermite_table(moment_nodes,
                                              grid * density_nodes),
                  cdf_integral=_hermite_table(k2_nodes, cdf_nodes),
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
