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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
from scipy.spatial import cKDTree

from .generators import Generator
from .polytope import Polytope
from .quadrature import TriangleMesh, integrate_on_panels, log_integral_1d

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
        self._panels = None
        self._mesh = None

    # -- log densities -------------------------------------------------------

    def log_density(self, X) -> np.ndarray:
        """Unnormalized log density (can be large when psi(m) > 0)."""
        return self.log_gap_density(X) + self.s * self.psi_m

    def log_gap_density(self, X) -> np.ndarray:
        """Stable form -base - s*gap (bare: -s*gap); max is O(1)."""
        gap = self.s * rate_gap(self.generator, self.m, X)
        if self.weighted:
            return -base_log_weight(self.polytope, self.m, X) - gap
        return -gap

    # -- concentration geometry ----------------------------------------------

    def _concentration_cloud(self, grid: int = 96):
        P = self.polytope
        lo, hi = P.bbox()
        if P.dim == 1:
            xs = np.linspace(lo[0], hi[0], 4097)[:, None]
            pts = xs
        else:
            g1 = np.linspace(lo[0], hi[0], grid)
            g2 = np.linspace(lo[1], hi[1], grid)
            pts = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
            pts = pts[P.contains(pts, tol=1e-12)]
        pts = np.vstack([pts, self.m[None, :]])
        gaps = rate_gap(self.generator, self.m, pts)
        # the concentration set at scale s: points whose density is within
        # exp(-10) of the peak
        tol = max(1e-9, 10.0 / self.s) if self.s > 0 else float(np.max(gaps))
        cloud = pts[gaps <= np.min(gaps) + tol]
        return cloud

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
            seeds = set()
            for nu, a, b in self.generator.support:
                seeds.update((a, b))
            seeds.add(float(self.m[0]))
            cloud = self._concentration_cloud()
            seeds.update(float(c) for c in cloud[:, 0][::max(1, len(cloud) // 32)])
            log_f = lambda t: self.log_gap_density(np.asarray(t)[..., None])
            self._log_gap_mass, self._panels, _ = log_integral_1d(
                log_f, float(lo[0]), float(hi[0]),
                rel_tol=self.rel_tol, seeds=sorted(seeds))
        elif P.dim == 2:
            cloud = self._concentration_cloud()
            tree = cKDTree(cloud)
            width = self._width_hint(cloud)
            poly = np.array([[float(c) for c in v] for v in P._sorted_boundary()])
            mesh = TriangleMesh(poly)
            probe = np.vstack([poly, cloud, self.m[None, :]])
            ref = float(np.max(self.log_gap_density(probe)))
            self._ref = ref

            def driver(X):
                with np.errstate(over="ignore"):
                    return np.exp(self.log_gap_density(X) - ref)

            def near_cloud(tri):
                c = tri.mean(axis=0)
                diam = max(np.linalg.norm(tri[0] - tri[1]),
                           np.linalg.norm(tri[1] - tri[2]),
                           np.linalg.norm(tri[2] - tri[0]))
                d, _ = tree.query(c)
                return d <= diam

            target = max(1.5 * width, P.diameter() / 2048.0)
            mesh.refine(driver, rel_tol=self.rel_tol,
                        max_leaves=self.max_leaves,
                        presplit_depth=1, zoom=(near_cloud, target))
            if mesh.value <= 0:
                raise QuantizationError("density mass underflowed")
            if mesh.err_estimate > 50.0 * self.rel_tol * abs(mesh.value):
                raise QuantizationError(
                    f"density quadrature did not converge: relative error "
                    f"estimate {mesh.err_estimate / abs(mesh.value):.2e} at "
                    f"the {self.max_leaves}-leaf budget (tolerance "
                    f"{self.rel_tol})")
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
            ref = self._log_gap_mass

            def f(t):
                X = np.asarray(t)[..., None]
                with np.errstate(over="ignore"):
                    return np.exp(self.log_gap_density(X) - ref) * tau(X)

            return integrate_on_panels(f, self._panels)
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
