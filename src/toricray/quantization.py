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
reference level of every norm.  The density is smooth between the facets
and the ends of the generator's support slabs, so the norm's panels are cut
there and at m, in 1-D and 2-D alike (``quadrature.integrate_polytope``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .generators import Generator
from .polytope import Polytope
from . import quadrature

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
                 weighted: bool = True, rel_tol: float = None):
        self.polytope = P
        self.generator = gen
        self.m = np.asarray(m, dtype=float)
        self.s = float(s)
        self.weighted = bool(weighted)
        self.rel_tol = rel_tol if rel_tol is not None else \
            DEFAULT_REL_TOL.get(P.dim, 1e-6)
        self.psi_m = float(gen.value(self.m))
        self._norm_ready = False
        self._nodes = None      # GL15 nodes of the final panels, (N, n)
        self._weights = None    # rule weight times normalized density

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

    # -- norms and pairings ----------------------------------------------------

    def _ensure_norm(self):
        if self._norm_ready:
            return
        ref = float(self.log_gap_density(self.m[None, :])[0])

        def driver(X):
            with np.errstate(over="ignore"):
                return np.exp(self.log_gap_density(X) - ref)

        lines = [(nu, c) for nu, lo, hi in self.generator.support
                 for c in (lo, hi)]
        res = quadrature.integrate_polytope(driver, self.polytope, lines=lines,
                                            point=self.m,
                                            rel_tol=self.rel_tol)
        if res.value <= 0:
            raise QuantizationError("density mass underflowed")
        if res.err > 50.0 * self.rel_tol * res.value:
            raise QuantizationError(
                f"density quadrature did not converge: relative error "
                f"estimate {res.err / res.value:.2e} at {res.panels} panels, "
                f"with a budget of {quadrature.MAX_PANELS} panels per integral "
                f"(tolerance {self.rel_tol})")
        self._log_gap_mass = ref + math.log(res.value)
        # the normalized density on the nodes the mass was summed on, so
        # that a pairing is one call of tau and one dot product
        self._nodes = res.nodes
        self._weights = res.weights * res.values / res.value
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
        return float(np.sum(self._weights * tau(self._nodes)))

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
