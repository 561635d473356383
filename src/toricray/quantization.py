"""Monomial-section fiber densities along the ray and their norms.

For a lattice point m of P the fiber log-density at ray time s splits as
-(base weight) - s * (rate):

    base_log_weight(x)  = (x - m) . grad g_P(x) - g_P(x)
    ray_rate(x)         = (x - m) . grad psi(x) - psi(x)

The base weight has the closed facet form

    exp(-base) = prod_r ell_r(x)^(ell_r(m)/2) * exp(-(ell_r(x)-ell_r(m))/2),

which extends continuously to the boundary whenever m lies in P; that form
is what the evaluators use, so facet quadrature never touches grad g_P.
The rate is bounded below by -psi(m) with equality at x = m, so densities
are integrated through the nonnegative gap ray_rate + psi(m); all norms are
handled in log space with max-subtraction.

The log density peaks at x = m exactly, in every dimension, bare and
weighted.  The gap

    rate_gap(x) = psi(m) - psi(x) - grad psi(x) . (m - x)

is the Bregman divergence of the convex psi, so it is >= 0 and vanishes at
m; and

    h(x) - h(m) = 1/2 sum_r [ell_r(x) - ell_r(m)
                             - ell_r(m) log(ell_r(x) / ell_r(m))]

is >= 0 term by term, because y - 1 - log y >= 0 (a facet with
ell_r(m) = 0 contributes ell_r(x) / 2 >= 0).  So log_gap_density(m) is the
reference level of every norm, and in 1-D the quadrature is seeded at m and
at the ends of the generator's support slabs only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .generators import Generator
from .polytope import Polytope
from .quadrature import (TriangleMesh, _diameters_batch, log_integral_1d,
                         panel_nodes)

__all__ = [
    "base_log_weight", "ray_rate", "rate_gap", "MonomialDensity",
    "GcstImage", "gcst_image", "l1_norm", "normalized_density",
    "basis_census", "QuantizationError",
]


class QuantizationError(ValueError):
    pass


# default density-quadrature tolerance per dimension, read-only; a caller
# that needs another one passes MonomialDensity(rel_tol=...)
DEFAULT_REL_TOL = MappingProxyType({1: 1e-10, 2: 1e-6})


def base_log_weight(P: Polytope, m, X) -> np.ndarray:
    """h(x) with exp(-h) the s = 0 fiber density of the section at m."""
    X = np.asarray(X, dtype=float)
    m = np.asarray(m, dtype=float)
    ell_x = P.ell(X)
    ell_m = P.ell(m)
    if np.min(ell_m) < -1e-12:
        raise QuantizationError(f"lattice point {m} lies outside P")
    pos = ell_m > 0
    with np.errstate(divide="ignore"):
        log_ell = np.log(np.maximum(ell_x[..., pos], 0.0))
    return (-0.5 * np.sum(ell_m[pos] * log_ell, axis=-1)
            + 0.5 * np.sum(ell_x - ell_m, axis=-1))


def ray_rate(gen: Generator, m, X) -> np.ndarray:
    """(x - m) . grad psi - psi; constant on each affinity component of psi."""
    X = np.asarray(X, dtype=float)
    m = np.asarray(m, dtype=float)
    val, grad, _ = gen.jet(X, 1)
    return np.sum((X - m) * grad, axis=-1) - val


def rate_gap(gen: Generator, m, X) -> np.ndarray:
    """psi(m) + ray_rate >= 0, vanishing on the concentration set."""
    m = np.asarray(m, dtype=float)
    return float(gen.value(m)) + ray_rate(gen, m, X)


def _near_points(cloud):
    """Zoom predicate: a triangle's centroid lies within the triangle's
    diameter of some point of the cloud.  Squared distances come from
    |c|^2 - 2 c.p + |p|^2, one matrix product per chunk of about 2^20."""
    cloud_t = cloud.T.copy()
    sq = np.sum(cloud * cloud, axis=1)
    step = max(1, (1 << 20) // len(cloud))

    def near(tris):
        c = tris.mean(axis=1)
        reach = _diameters_batch(tris) ** 2
        out = np.empty(len(c), dtype=bool)
        for i in range(0, len(c), step):
            cc = c[i:i + step]
            d2 = np.min(sq - 2.0 * (cc @ cloud_t), axis=1) + \
                np.sum(cc * cc, axis=1)
            out[i:i + step] = d2 <= reach[i:i + step]
        return out
    return near


def basis_census(P: Polytope):
    pts = P.integral_points()
    return len(pts), pts


class MonomialDensity:
    """Fiber density of one monomial section at ray time s.

    weighted=True gives exp(-base - s*rate) (the section density); False
    gives the bare exp(-s*rate) used for the distributional-limit checks.
    """

    def __init__(self, P: Polytope, gen: Generator, m, s: float, *,
                 weighted: bool = True, rel_tol: float = None,
                 max_leaves: int = 60000):
        self.polytope = P
        self.generator = gen
        self.m = np.asarray(m, dtype=float)
        self.s = float(s)
        self.weighted = bool(weighted)
        self.rel_tol = rel_tol if rel_tol is not None else \
            DEFAULT_REL_TOL.get(P.dim, 1e-6)
        self.max_leaves = max_leaves
        self.psi_m = float(gen.value(self.m))
        self._norm_ready = False
        self._nodes = None      # 1-D: GL15 nodes of the final panels
        self._weights = None    # 1-D: rule weight times normalized density
        self._mesh = None

    # -- log densities -------------------------------------------------------

    def log_density(self, X) -> np.ndarray:
        """Unnormalized log density (can be large when psi(m) > 0)."""
        return self.log_gap_density(X) + self.s * self.psi_m

    def log_gap_density(self, X) -> np.ndarray:
        """Stable form -base - s*gap (bare: -s*gap); max is O(1)."""
        gap = self.s * (self.psi_m + ray_rate(self.generator, self.m, X))
        if self.weighted:
            return -base_log_weight(self.polytope, self.m, X) - gap
        return -gap

    # -- concentration geometry ----------------------------------------------

    def _concentration_cloud(self):
        """The points of a 96 x 96 grid of P, and m, whose rate gap is
        within 10 / s of the smallest: the concentration set at scale s."""
        P = self.polytope
        lo, hi = P.bbox()
        g1 = np.linspace(lo[0], hi[0], 96)
        g2 = np.linspace(lo[1], hi[1], 96)
        pts = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
        pts = np.vstack([pts[P.contains(pts, tol=1e-12)], self.m[None, :]])
        gaps = self.psi_m + ray_rate(self.generator, self.m, pts)
        tol = max(1e-9, 10.0 / self.s) if self.s > 0 else float(np.max(gaps))
        return pts[gaps <= np.min(gaps) + tol]

    def _width_hint(self, cloud) -> float:
        hess = self.generator.hessian(cloud)
        if hess.ndim == 2:
            hess = hess[None]
        curly = float(np.max(np.abs(hess))) if hess.size else 0.0
        width = 1.0 / math.sqrt(1.0 + self.s * max(curly, 0.0))
        return width

    # -- norms and pairings ----------------------------------------------------

    def _ensure_norm(self):
        if self._norm_ready:
            return
        P = self.polytope
        if P.dim == 1:
            lo, hi = P.bbox()
            seeds = {float(self.m[0])}
            for nu, a, b in self.generator.support:
                seeds.update((a, b))
            log_f = lambda t: self.log_gap_density(np.asarray(t)[..., None])
            self._log_gap_mass, panels, _ = log_integral_1d(
                log_f, float(lo[0]), float(hi[0]),
                rel_tol=self.rel_tol, seeds=sorted(seeds))
            # the normalized density on the GL15 nodes of both halves of
            # every final panel, the rule the mass was summed with, once, so
            # that a pairing is one call of tau and one dot product
            lo, hi = np.array(panels).T
            mid = 0.5 * (lo + hi)
            nodes, weights = panel_nodes(np.concatenate([lo, mid]),
                                         np.concatenate([mid, hi]))
            self._nodes = nodes.reshape(-1, 1)
            with np.errstate(over="ignore"):
                self._weights = weights.ravel() * np.exp(
                    self.log_gap_density(self._nodes) - self._log_gap_mass)
        elif P.dim == 2:
            cloud = self._concentration_cloud()
            width = self._width_hint(cloud)
            poly = np.array([[float(c) for c in v] for v in P._sorted_boundary()])
            mesh = TriangleMesh(poly)
            ref = float(self.log_gap_density(self.m[None, :])[0])
            self._ref = ref

            def driver(X):
                with np.errstate(over="ignore"):
                    return np.exp(self.log_gap_density(X) - ref)

            target = max(1.5 * width, P.diameter() / 2048.0)
            mesh.refine(driver, rel_tol=self.rel_tol,
                        max_leaves=self.max_leaves,
                        presplit_depth=1, zoom=(_near_points(cloud), target))
            if mesh.value <= 0:
                raise QuantizationError("density mass underflowed")
            if mesh.err_estimate > 50.0 * self.rel_tol * abs(mesh.value):
                raise QuantizationError(
                    f"density quadrature did not converge: relative error "
                    f"estimate {mesh.err_estimate / abs(mesh.value):.2e} at "
                    f"{len(mesh.tris)} leaves of the {self.max_leaves}-leaf "
                    f"budget (tolerance {self.rel_tol})")
            self._log_gap_mass = ref + math.log(mesh.value)
            self._mesh = mesh
        else:
            raise NotImplementedError("densities implemented for dim <= 2")
        self._norm_ready = True

    def log_mass(self) -> float:
        """log of integral of the unnormalized density over P."""
        self._ensure_norm()
        return self._log_gap_mass + self.s * self.psi_m

    def log_l1(self) -> float:
        """log of (2 pi)^n times the density integral (the section L1 norm)."""
        return self.log_mass() + self.polytope.dim * math.log(2.0 * math.pi)

    def normalized(self, X) -> np.ndarray:
        self._ensure_norm()
        with np.errstate(over="ignore"):
            return np.exp(self.log_gap_density(X) - self._log_gap_mass)

    def pair(self, tau) -> float:
        """Integral of the normalized density against tau."""
        self._ensure_norm()
        if self.polytope.dim == 1:
            return float(np.sum(self._weights * tau(self._nodes)))
        mesh = self._mesh
        return mesh.pair_against_driver(tau) * math.exp(self._ref - self._log_gap_mass)

    def pair_absolute(self, tau) -> float:
        """Integral of the gap density (= gCST scalar density) against tau."""
        self._ensure_norm()
        return self.pair(tau) * math.exp(self._log_gap_mass)


@dataclass
class GcstImage:
    """Diagonal coherent-state-transform image of a monomial section.

    The transform multiplies the section by exp(-s psi(m)); the resulting
    scalar density exp(-base - s*(psi(m) + rate)) is exactly the stable gap
    density of the underlying MonomialDensity.
    """
    m: np.ndarray
    s: float
    coefficient: float
    density: MonomialDensity

    def log_scalar_density(self, X) -> np.ndarray:
        return self.density.log_gap_density(X)

    def pair(self, tau) -> float:
        """Unnormalized pairing of the transformed scalar density with tau."""
        return self.density.pair_absolute(tau)


def gcst_image(density: MonomialDensity) -> GcstImage:
    m = density.m
    if not np.allclose(m, np.round(m)):
        raise QuantizationError(f"{m} is not a lattice point")
    if not density.polytope.contains(m, tol=1e-12):
        raise QuantizationError(f"{m} is not a lattice point of P")
    coeff = math.exp(-density.s * density.psi_m)
    return GcstImage(m=m, s=density.s, coefficient=coeff, density=density)


def l1_norm(density: MonomialDensity) -> float:
    """log[(2 pi)^n * integral of the fiber density]."""
    return density.log_l1()


def normalized_density(density: MonomialDensity):
    """Evaluator of the mass-one density on P."""
    density._ensure_norm()
    return density.normalized
