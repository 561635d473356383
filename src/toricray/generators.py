"""Convex generators for Mabuchi rays.

A generator is a convex function psi on the moment polytope with one
evaluator, ``jet``, for its value, gradient and Hessian, plus a description
of where the Hessian is supported.  Three families are built here:

* 1-D generators whose second derivative is a sum of bump kernels with
  pairwise disjoint supports.  Off the supports psi is exactly affine with
  slope equal to the accumulated bump masses; the value and slope are
  anchored to vanish at the left endpoint of the first support.
* wall-sum generators psi(x) = sum_i psi_i(<nu_i, x>) in any dimension,
  whose Hessians are sums of rank-one slabs.
* rational piecewise-linear convex functions f = max_i(<g_i, x> + b_i)
  (as data for test configurations; their smoothings live in smoothing.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ._exact import dot, frac, vec_frac
from .kernels import Kernel, get_kernel
from .polytope import Polytope

__all__ = [
    "BumpSpec", "Generator", "GeneratorError", "SupportSlabs",
    "Bump1D", "BumpGenerator1D", "WallSumGenerator", "ZeroGenerator",
    "PLConvex", "build_bump_generator", "build_wall_sum", "eval_generator",
]


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
        if self.halfwidth <= 0:
            raise GeneratorError("bump halfwidth must be positive")
        if self.mass <= 0:
            raise GeneratorError("bump mass must be positive")
        if self.kernel not in ("cosine", "smooth"):
            raise GeneratorError(f"unknown kernel {self.kernel!r}")


class SupportSlabs:
    """Union of slabs {lo_i <= <nu_i, x> <= hi_i} carrying Hess psi."""

    def __init__(self, slabs):
        # slabs: list of (normal ndarray (n,), lo, hi)
        self.slabs = [(np.asarray(nu, dtype=float), float(lo), float(hi))
                      for nu, lo, hi in slabs]

    def contains(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.slabs:
            return np.zeros(x.shape[:-1], dtype=bool)
        out = np.zeros(x.shape[:-1], dtype=bool)
        for nu, lo, hi in self.slabs:
            t = x @ nu
            out |= (t > lo) & (t < hi)
        return out

    def __iter__(self):
        return iter(self.slabs)

    def __len__(self):
        return len(self.slabs)


class Generator:
    """Base interface: the jet of psi over points of shape (..., n).

    ``jet(x, order)`` returns (value, gradient, hessian) with shapes (...),
    (..., n) and (..., n, n), and None for the entries above ``order``.
    """

    dim: int
    support: SupportSlabs
    provenance: str

    def jet(self, x, order: int):
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

    def d1(self, x):
        x = np.asarray(x, dtype=float)
        t = np.clip(self._t(x), self.t_lo, self.t_hi)
        out = self.spec.mass * (self.kernel.cdf(t) - self.base_cdf)
        return np.where(x <= self.lo, 0.0,
                        np.where(x >= self.hi, self.eff_mass, out))

    def d0(self, x):
        x = np.asarray(x, dtype=float)
        t = np.clip(self._t(x), self.t_lo, self.t_hi)
        a = self.spec.halfwidth
        inner = (self.spec.mass * a * (self.kernel.cdf_integral(t) - self.base_k2)
                 - self.spec.mass * self.base_cdf
                 * (np.clip(x, self.lo, self.hi) - self.lo))
        top = float(self.spec.mass * a * (self.kernel.cdf_integral(self.t_hi)
                                          - self.base_k2)
                    - self.spec.mass * self.base_cdf * (self.hi - self.lo))
        return np.where(x <= self.lo, 0.0,
                        np.where(x >= self.hi,
                                 top + self.eff_mass * (x - self.hi), inner))

    def centroid(self) -> float:
        """Mass centroid of the clipped profile; equals center if unclipped."""
        k = self.kernel
        m, a = self.spec.center, self.spec.halfwidth
        num = m * (self.top_cdf - self.base_cdf) + a * float(
            k.first_moment(self.t_hi) - k.first_moment(self.t_lo))
        return num / (self.top_cdf - self.base_cdf)


class BumpGenerator1D(Generator):
    """1-D generator from ordered disjoint bumps; exact affine gaps."""

    def __init__(self, P: Polytope, specs: Sequence[BumpSpec]):
        if P.dim != 1:
            raise GeneratorError("bump generators need a 1-D polytope")
        self.polytope = P
        lo, hi = (float(P.vertices_np.min()), float(P.vertices_np.max()))
        self.domain = (lo, hi)
        bumps = [Bump1D(s, self.domain) for s in specs]
        bumps.sort(key=lambda b: b.lo)
        for prev, nxt in zip(bumps, bumps[1:]):
            if nxt.lo < prev.hi - 1e-15:
                raise GeneratorError(
                    f"bump supports [{prev.lo}, {prev.hi}] and "
                    f"[{nxt.lo}, {nxt.hi}] overlap")
        for b in bumps:
            if b.lo < lo - 1e-12 or b.hi > hi + 1e-12:
                raise GeneratorError("bump support escapes the polytope")
        self.bumps = bumps
        self.dim = 1
        self.provenance = "bumps"
        self.support = SupportSlabs([((1.0,), b.lo, b.hi) for b in bumps])
        self._check_masses()

    def _check_masses(self, tol: float = 1e-10):
        from .quadrature import integrate_1d
        for b in self.bumps:
            got = integrate_1d(b.d2, b.lo, b.hi, rel_tol=1e-12)
            target = b.eff_mass
            if abs(got - target) > tol * max(1.0, abs(target)):
                raise GeneratorError(
                    f"bump mass check failed: integral {got} vs {target}")

    # scalar-line evaluators -------------------------------------------------

    def psi(self, t):
        t = np.asarray(t, dtype=float)
        return sum((b.d0(t) for b in self.bumps), np.zeros_like(t))

    def dpsi(self, t):
        t = np.asarray(t, dtype=float)
        return sum((b.d1(t) for b in self.bumps), np.zeros_like(t))

    def d2psi(self, t):
        t = np.asarray(t, dtype=float)
        return sum((b.d2(t) for b in self.bumps), np.zeros_like(t))

    # components -------------------------------------------------------------

    def _gaps_with_slopes(self):
        lo, hi = self.domain
        cuts = [lo] + [v for b in self.bumps for v in (b.lo, b.hi)] + [hi]
        acc = 0.0
        out = []
        for k, (a, b) in enumerate(zip(cuts[::2], cuts[1::2])):
            if b - a > 1e-14:
                out.append(((a, b), acc))
            if k < len(self.bumps):
                acc += self.bumps[k].eff_mass
        return out

    def components(self):
        """Closed gap intervals of P on which psi is exactly affine."""
        return [iv for iv, _ in self._gaps_with_slopes()]

    def component_slopes(self):
        """Slope of psi on each gap: accumulated effective masses."""
        return [s for _, s in self._gaps_with_slopes()]

    # Generator interface ------------------------------------------------------

    def jet(self, x, order):
        t = np.asarray(x, dtype=float)[..., 0]
        return (self.psi(t),
                self.dpsi(t)[..., None] if order >= 1 else None,
                self.d2psi(t)[..., None, None] if order >= 2 else None)


class ZeroGenerator(Generator):
    def __init__(self, P: Polytope):
        self.polytope = P
        self.dim = P.dim
        self.provenance = "empty"
        self.support = SupportSlabs([])

    def jet(self, x, order):
        x = np.asarray(x, dtype=float)
        return (np.zeros(x.shape[:-1]),
                np.zeros_like(x) if order >= 1 else None,
                np.zeros(x.shape[:-1] + (self.dim, self.dim))
                if order >= 2 else None)


class WallSumGenerator(Generator):
    """psi(x) = sum_i psi_i(<nu_i, x>) with 1-D bumps across lattice walls."""

    def __init__(self, P: Polytope, walls):
        # walls: list of (normal int-vector, BumpSpec); the bump center is the
        # wall offset in the <nu, x> coordinate.
        self.polytope = P
        self.dim = P.dim
        self.provenance = "wall-sum"
        self.normals = []
        self.bumps = []
        slabs = []
        verts = P.vertices_np
        for nu, spec in walls:
            nu_arr = np.asarray(nu, dtype=float)
            if nu_arr.shape != (P.dim,):
                raise GeneratorError(f"wall normal {nu} has wrong dimension")
            tvals = verts @ nu_arr
            bump = Bump1D(spec, (float(tvals.min()), float(tvals.max())))
            self.normals.append(nu_arr)
            self.bumps.append(bump)
            slabs.append((nu_arr, bump.lo, bump.hi))
        self.support = SupportSlabs(slabs)

    def jet(self, x, order):
        x = np.asarray(x, dtype=float)
        val = np.zeros(x.shape[:-1])
        grad = np.zeros_like(x) if order >= 1 else None
        hess = np.zeros(x.shape[:-1] + (self.dim, self.dim)) \
            if order >= 2 else None
        for nu, b in zip(self.normals, self.bumps):
            t = x @ nu
            val = val + b.d0(t)
            if order >= 1:
                grad = grad + b.d1(t)[..., None] * nu
            if order >= 2:
                hess = hess + b.d2(t)[..., None, None] * np.outer(nu, nu)
        return val, grad, hess


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
        return np.max(self.piece_values(x), axis=-1)

    def gradient(self, x) -> np.ndarray:
        vals = self.piece_values(x)
        idx = np.argmax(vals, axis=-1)
        return self.G[idx]

    def value_exact(self, x) -> Fraction:
        return max(dot(g, x) + b for g, b in self.pieces)

    def active_set_exact(self, x):
        vals = [dot(g, x) + b for g, b in self.pieces]
        top = max(vals)
        return frozenset(i for i, v in enumerate(vals) if v == top)

    def active_set(self, x, tol: float = 1e-9):
        vals = self.piece_values(x)
        top = np.max(vals, axis=-1, keepdims=True)
        return vals >= top - tol

    def max_over(self, P: Polytope) -> Fraction:
        """Maximum of f over P; attained at a vertex by convexity."""
        return max(self.value_exact(v) for v in P.vertices)

    def __repr__(self):
        return f"PLConvex(pieces={self.npieces}, dim={self.dim})"


def build_bump_generator(P: Polytope, bumps: Sequence[BumpSpec]) -> Generator:
    if not bumps:
        return ZeroGenerator(P)
    return BumpGenerator1D(P, bumps)


def build_wall_sum(P: Polytope, walls) -> WallSumGenerator:
    return WallSumGenerator(P, walls)


def eval_generator(gen: Generator, x):
    """(psi, grad psi, Hess psi) at a point of the generator's polytope."""
    x = np.asarray(x, dtype=float)
    P = getattr(gen, "polytope", None)
    if P is not None and not np.all(P.contains(x, tol=1e-12)):
        raise GeneratorError(f"point {x} is outside the polytope")
    return gen.jet(x, 2)
