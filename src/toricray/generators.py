"""Convex generators for Mabuchi rays.

A generator is a convex function psi on the moment polytope with one
evaluator, ``jet``, for its value, gradient and Hessian, plus a description
of where the Hessian is supported.  Two families are built here:

* wall-sum generators psi(x) = sum_i psi_i(<nu_i, x>) in any dimension,
  whose Hessians are sums of rank-one slabs.  A 1-D bump generator is the
  wall sum of bump kernels with pairwise disjoint supports across the
  normal (1,).  Off the supports psi is exactly affine with slope equal to
  the accumulated bump masses; the value and slope are anchored to vanish
  at the left endpoint of the first support.  The empty wall sum is zero.
  A bump's effective mass is its kernel's cdf difference across its
  (possibly clipped) support, mass * (cdf(t_hi) - cdf(t_lo)), so a
  generator is built without integration.
* rational piecewise-linear convex functions f = max_i(<g_i, x> + b_i)
  (as data for test configurations; their smoothings live in smoothing.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._exact import dot, frac, vec_frac
from .columns import row_max
from .kernels import Kernel, get_kernel
from .polytope import MEMBERSHIP_TOL, Polytope

__all__ = [
    "BumpSpec", "Generator", "GeneratorError",
    "Bump1D", "BumpGenerator1D", "WallSumGenerator",
    "PLConvex", "build_bump_generator", "build_wall_sum", "eval_generator",
]

# the shortest gap ``components`` reports: shorter ones lie between bump
# ends that meet up to rounding
_MIN_GAP = 1e-14
# how far one bump's support may reach into the next one's by rounding
_OVERLAP_SLACK = 1e-15


class GeneratorError(ValueError):
    pass


@dataclass(frozen=True)
class BumpSpec:
    """One bump of the generator's second derivative.

    ``center`` and ``halfwidth`` fix the support [center - halfwidth,
    center + halfwidth]; ``mass`` is the full integral of the kernel on
    that support (the effective mass is smaller if the polytope clips it).
    """
    center: float
    halfwidth: float
    mass: float
    kernel: str = "cosine"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center, self.halfwidth, self.mass))):
            raise GeneratorError("bump center, halfwidth and mass must be finite")
        if self.halfwidth <= 0:
            raise GeneratorError("bump halfwidth must be positive")
        if self.mass <= 0:
            raise GeneratorError("bump mass must be positive")
        if self.kernel not in ("cosine", "smooth"):
            raise GeneratorError(f"unknown kernel {self.kernel!r}")


class Generator:
    """Base interface: the jet of psi over points of shape (..., n).

    ``jet(x, order)`` returns (value, gradient, hessian) with shapes (...),
    (..., n) and (..., n, n), and None for the entries above ``order``.
    It evaluates every x as a stack of points (N, n) through the
    subclass's ``_jet(X, order)`` and gives each entry x's leading shape;
    a lone point is row 0 of a stack of one, so that it gets the bits of
    its row in any stack.  ``support`` is a tuple of slabs (nu, lo, hi),
    each {lo <= <nu, x> <= hi}, whose union carries Hess psi.
    """

    dim: int
    support: tuple

    def jet(self, x, order: int):
        x = np.asarray(x, dtype=float)
        jet = self._jet(x.reshape(-1, self.dim), order)
        return tuple([None if a is None else a[0] if x.ndim == 1
                      else a.reshape(x.shape[:-1] + a.shape[1:]) for a in jet])

    def _jet(self, X, order: int):
        raise NotImplementedError

    def value(self, x) -> np.ndarray:
        return self.jet(x, 0)[0]

    def gradient(self, x) -> np.ndarray:
        return self.jet(x, 1)[1]

    def hessian(self, x) -> np.ndarray:
        return self.jet(x, 2)[2]


class Bump1D:
    """A single (possibly clipped) kernel bump on the line.

    Evaluators are anchored at the bump's own left endpoint: value and slope
    vanish there, the slope reaches the effective mass at the right endpoint
    and stays constant beyond.
    """

    def __init__(self, spec: BumpSpec, domain: tuple[float, float]):
        self.spec = spec
        self.kernel: Kernel = get_kernel(spec.kernel)
        m, a = spec.center, spec.halfwidth
        lo = max(m - a, domain[0])
        hi = min(m + a, domain[1])
        if not hi > lo:
            raise GeneratorError(
                f"bump at {m} with halfwidth {a} has empty support in {domain}")
        self.lo, self.hi = lo, hi
        self.t_lo = (lo - m) / a
        self.t_hi = (hi - m) / a
        self.base_cdf = float(self.kernel.cdf(self.t_lo))
        self.base_k2 = float(self.kernel.cdf_integral(self.t_lo))
        self.top_cdf = float(self.kernel.cdf(self.t_hi))
        self.eff_mass = spec.mass * (self.top_cdf - self.base_cdf)
        self.clipped = (self.t_lo > -1.0) or (self.t_hi < 1.0)
        # d0 = _k2 * K2(t) - _slope * x + _shift on the support; the shift
        # is rounded as the negated left-end value, so d0 is 0 there
        self._k2 = spec.mass * a
        self._slope = spec.mass * self.base_cdf
        self._shift = self._slope * lo - self._k2 * self.base_k2

    def _t(self, x):
        return (np.asarray(x, dtype=float) - self.spec.center) / self.spec.halfwidth

    def d2(self, x):
        x = np.asarray(x, dtype=float)
        t = self._t(x)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.zeros_like(x)
        if np.any(inside):
            out[inside] = (self.spec.mass / self.spec.halfwidth
                           ) * self.kernel.density(t[inside])
        return out

    def d01(self, x, order: int = 1, value: bool = True):
        """(d0, d1) from one coordinate clipped to the support: both vanish
        at its left end, d1 is ``eff_mass`` at its right end, and beyond
        it d0 goes on affinely with that slope.  At order 0, d1 is None;
        without ``value``, d0 is."""
        x = np.asarray(x, dtype=float)
        xc = np.minimum(np.maximum(x, self.lo), self.hi)
        t = (xc - self.spec.center) / self.spec.halfwidth
        d1 = self.spec.mass * self.kernel.cdf(t) - self._slope \
            if order >= 1 else None
        d0 = (self._k2 * self.kernel.cdf_integral(t) - self._slope * xc
              + self._shift + self.eff_mass * np.maximum(x - self.hi, 0.0)
              ) if value else None
        return d0, d1

    def d1(self, x):
        return self.d01(x, 1, False)[1]

    def d0(self, x):
        return self.d01(x, 0)[0]

    def centroid(self) -> float:
        """Mass centroid of the clipped profile; equals center if unclipped."""
        k = self.kernel
        m, a = self.spec.center, self.spec.halfwidth
        num = m * (self.top_cdf - self.base_cdf) + a * float(
            k.first_moment(self.t_hi) - k.first_moment(self.t_lo))
        return num / (self.top_cdf - self.base_cdf)


class WallSumGenerator(Generator):
    """psi(x) = sum_i psi_i(<nu_i, x>) with 1-D bumps across lattice walls."""

    def __init__(self, P: Polytope, walls):
        # walls: list of (normal int-vector, BumpSpec); the bump center is the
        # wall offset in the <nu, x> coordinate.
        groups = []
        verts = P.vertices_np
        for nu, spec in walls:
            nu_arr = np.asarray(nu, dtype=float)
            if nu_arr.shape != (P.dim,):
                raise GeneratorError(f"wall normal {nu} has wrong dimension")
            tvals = verts @ nu_arr
            bump = Bump1D(spec, (float(tvals.min()), float(tvals.max())))
            groups.append((nu_arr, [bump]))
        self._set_walls(P, groups)

    def _set_walls(self, P, groups):
        """groups: (normal, bumps across it); the bumps of one group share
        the coordinate <nu, x>, and their derivatives meet nu once, summed."""
        self.polytope = P
        self.dim = P.dim
        self.bumps = [b for _, bumps in groups for b in bumps]
        self._walls = [(nu, np.outer(nu, nu), bumps) for nu, bumps in groups
                       if bumps]
        self.support = tuple((nu, float(b.lo), float(b.hi))
                             for nu, bumps in groups for b in bumps)

    def _jet(self, X, order):
        val = np.zeros(len(X))
        grad = np.zeros(X.shape) if order >= 1 else None
        hess = np.zeros((len(X), self.dim, self.dim)) if order >= 2 else None
        for nu, outer, bumps in self._walls:
            t = np.dot(X, nu)
            d1 = 0.0
            for b in bumps:
                d0, d1_b = b.d01(t, order)
                val = val + d0
                if order >= 1:
                    d1 = d1 + d1_b
            if order >= 1:
                grad = grad + d1[..., None] * nu
            if order >= 2:
                d2 = sum(b.d2(t) for b in bumps)
                hess = hess + d2[..., None, None] * outer
        return val, grad, hess


class BumpGenerator1D(WallSumGenerator):
    """1-D generator from ordered disjoint bumps; exact affine gaps.

    It is the wall sum of its bumps, each across the normal (1,)."""

    def __init__(self, P: Polytope, specs: Sequence[BumpSpec]):
        if P.dim != 1:
            raise GeneratorError("bump generators need a 1-D polytope")
        lo, hi = (float(P.vertices_np.min()), float(P.vertices_np.max()))
        self.domain = (lo, hi)
        bumps = [Bump1D(s, self.domain) for s in specs]
        bumps.sort(key=lambda b: b.lo)
        for prev, nxt in zip(bumps, bumps[1:]):
            if nxt.lo < prev.hi - _OVERLAP_SLACK:
                raise GeneratorError(
                    f"bump supports [{prev.lo}, {prev.hi}] and "
                    f"[{nxt.lo}, {nxt.hi}] overlap")
        self._set_walls(P, [(np.ones(1), bumps)])

    # scalar-line evaluators: entries of the jet at the points t[..., None]

    def psi(self, t):
        return self.jet(np.asarray(t, dtype=float)[..., None], 0)[0]

    def dpsi(self, t):
        return self._line(t, Bump1D.d1)

    def d2psi(self, t):
        return self._line(t, Bump1D.d2)

    def _line(self, t, each):
        """The sum over the bumps of each(bump, t), only the order asked, on
        the flat array of t as the jet sums it, so that it has the jet's
        bits and a lone t those of its entry in an array."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.size)
        for b in self.bumps:
            out = out + each(b, t.reshape(-1))
        return out.reshape(t.shape)[()]

    # components -------------------------------------------------------------

    def components(self):
        """Closed gap intervals of P on which psi is exactly affine."""
        lo, hi = self.domain
        cuts = [lo] + [v for b in self.bumps for v in (b.lo, b.hi)] + [hi]
        return [(a, b) for a, b in zip(cuts[::2], cuts[1::2])
                if b - a > _MIN_GAP]


class PLConvex:
    """Rational piecewise-linear convex f = max_i(<g_i, x> + b_i)."""

    def __init__(self, pieces):
        self.pieces = tuple((vec_frac(g), frac(b)) for g, b in pieces)
        if not self.pieces:
            raise GeneratorError("need at least one affine piece")
        self.dim = len(self.pieces[0][0])
        for g, _ in self.pieces:
            if len(g) != self.dim:
                raise GeneratorError("inconsistent piece dimensions")
        self.G = np.array([[float(c) for c in g] for g, _ in self.pieces])
        self.B = np.array([float(b) for _, b in self.pieces])

    @property
    def npieces(self):
        return len(self.pieces)

    def piece_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.G.T + self.B

    def value(self, x) -> np.ndarray:
        return row_max(self.piece_values(x))

    def gradient(self, x) -> np.ndarray:
        vals = self.piece_values(x)
        idx = np.argmax(vals, axis=-1)
        return self.G[idx]

    def value_exact(self, x) -> Fraction:
        return max(dot(g, x) + b for g, b in self.pieces)

    def max_over(self, P: Polytope) -> Fraction:
        """Maximum of f over P; attained at a vertex by convexity."""
        return max(self.value_exact(v) for v in P.vertices)

    def __repr__(self):
        return f"PLConvex(pieces={self.npieces}, dim={self.dim})"


def build_bump_generator(P: Polytope,
                         bumps: Sequence[BumpSpec]) -> WallSumGenerator:
    if not bumps:
        return WallSumGenerator(P, [])
    return BumpGenerator1D(P, bumps)


def build_wall_sum(P: Polytope, walls) -> WallSumGenerator:
    return WallSumGenerator(P, walls)


def eval_generator(gen: Generator, x):
    """(psi, grad psi, Hess psi) at a point of the generator's polytope."""
    x = np.asarray(x, dtype=float)
    P = getattr(gen, "polytope", None)
    if P is not None and not np.all(P.contains(x, tol=MEMBERSHIP_TOL)):
        raise GeneratorError(f"point {x} is outside the polytope")
    return gen.jet(x, 2)
