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
there and at m, in every dimension (``quadrature.integrate_polytope``).
"""

from __future__ import annotations

import math
import weakref
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
    return _base_log_weight(P, _facet_terms(P, m), X)


def _facet_terms(P: Polytope, m):
    """The terms of h that depend on m alone: the facets where ell(m) is
    positive, ell(m) on them, and the sum of ell(m)."""
    m = np.asarray(m, dtype=float)
    ell_m = P.ell(m)
    if np.min(ell_m) < -1e-12:
        raise QuantizationError(f"lattice point {m} lies outside P")
    pos = ell_m > 0
    return pos, ell_m[pos], float(ell_m.sum())


def _base_log_weight(P: Polytope, terms, X) -> np.ndarray:
    pos, ell_m, total = terms
    ell_x = P.ell(np.asarray(X, dtype=float))
    with np.errstate(divide="ignore"):
        log_ell = np.log(np.maximum(ell_x[..., pos], 0.0))
    return -0.5 * (log_ell @ ell_m) + 0.5 * (ell_x.sum(axis=-1) - total)


def ray_rate(gen: Generator, m, X) -> np.ndarray:
    """(x - m) . grad psi - psi; constant on each affinity component of psi."""
    X = np.asarray(X, dtype=float)
    m = np.asarray(m, dtype=float)
    val, grad, _ = gen.jet(X, 1)
    return ((X - m) * grad).sum(axis=-1) - val


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
        # checks that m lies in P, in both variants
        self._facets = _facet_terms(P, self.m)
        self._norm_ready = False
        self._rule = None       # the NodeSet the mass was summed on

    # -- log densities -------------------------------------------------------

    def log_density(self, X) -> np.ndarray:
        """Unnormalized log density (can be large when psi(m) > 0)."""
        return self.log_gap_density(X) + self.s * self.psi_m

    def log_gap_density(self, X) -> np.ndarray:
        """Stable form -base - s*gap (bare: -s*gap); max is O(1)."""
        gap = self.s * (self.psi_m + ray_rate(self.generator, self.m, X))
        if self.weighted:
            return -_base_log_weight(self.polytope, self._facets, X) - gap
        return -gap

    # -- norms and pairings ----------------------------------------------------

    def _ensure_norm(self):
        if self._norm_ready:
            return
        self._ref = float(self.log_gap_density(self.m[None, :])[0])
        # cut at the facets, the ends of the generator's support slabs and
        # m; the rule keeps its integrand for NodeSet.pair, weakly, so that
        # no reference cycle keeps a dropped density alive
        driver = weakref.WeakMethod(self._driver)
        self._rule = quadrature.integrate_polytope(
            lambda X: driver()(X), self.polytope, lines=[
                (nu, c) for nu, lo, hi in self.generator.support
                for c in (lo, hi)], point=self.m, rel_tol=self.rel_tol)
        if self._rule.value <= 0:
            raise QuantizationError("density mass underflowed")
        self._log_gap_mass = self._ref + math.log(self._rule.value)
        self._norm_ready = True

    def _driver(self, X):
        """The density over its value at m, its peak."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_gap_density(X) - self._ref)

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
        return self.pair_with_error(tau)[0]

    def pair_with_error(self, tau):
        """(pairing, error estimate) of the normalized density against tau:
        ``NodeSet.pair`` on the density's rule, over its mass."""
        self._ensure_norm()
        value, err = self._rule.pair(tau)
        return value / self._rule.value, err / self._rule.value

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

    def pair(self, tau) -> float:
        """Unnormalized pairing of the transformed scalar density with tau."""
        return self.density.pair_absolute(tau)


def gcst_image(density: MonomialDensity) -> GcstImage:
    m = density.m
    if not np.allclose(m, np.round(m)):
        raise QuantizationError(f"{m} is not a lattice point")
    coeff = math.exp(-density.s * density.psi_m)
    return GcstImage(m=m, s=density.s, coefficient=coeff, density=density)


def l1_norm(density: MonomialDensity) -> float:
    """log[(2 pi)^n * integral of the fiber density]."""
    return density.log_l1()


def normalized_density(density: MonomialDensity):
    """Evaluator of the mass-one density on P."""
    density._ensure_norm()
    return density.normalized
