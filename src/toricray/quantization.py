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

is >= 0 term by term, because y - 1 - log y >= 0 (a facet with ell_r(m) = 0
contributes ell_r(x) / 2 >= 0).  So log_gap_density(m) = -h(m) (0 when
bare) is the reference level of every norm.  The density is smooth between
the facets and the ends of the generator's support slabs, so the norm's
panels are cut there and at m, in every dimension
(``quadrature.integrate_polytope``).  Laplace's method (Wong 1989) gives
the peak's scales before any node, from the ray's curvature alone: where
s Hess psi(m) is positive definite and m is interior, the mass of the
density over its value at m is near (2 pi)^(n/2) det(s Hess psi(m))^(-1/2),
capped at vol(P), since that density is at most 1.  The mass sets the
floor the first round hands the inner slices (``scales``; a no-op in 1-D,
which has no inner level), and in 1-D the width sigma = (s psi''(m))^(-1/2)
also cuts the panels at m +- sigma 2^k, k = 0..3.  The densities of one P and
generator at several (m, s), bare or weighted as each member says, such
as every diagnostic of a criterion, share the facet and slab cuts and one
generator jet per node, so ``density_family`` norms them as the members
of one integral: one family per (P, generator), in which only the
weighted members' rows gather facet terms.  A family takes psi(m) of all
its distinct m from one jet, their facet terms and exact exponents once
each, and their Laplace widths and masses from one order-2 jet.
``pair_each`` pairs them with their test functions through one
``pair_all``.

The weight of a lattice point m behaves like ell_r(x)^(ell_r(m)/2) near
facet r, and ell_r(m)/2 is an exact rational, from the offsets of P and the
integer m.  Where it is not an integer (ell_r(m) odd, or in 1/2 + Z on a
half-form corrected P) the weight has an algebraic singularity on facet r,
so a weighted member hands these exponents to ``integrate_polytope``, whose
innermost level maps each chord end on such a facet by x = a + L t^q, q the
exponent's denominator (Guillemin 1994 for the weight; Davis and Rabinowitz
1984 for the map).  Bare members, and weighted ones whose exponents are
integers, keep the unmapped rule bit for bit.  ``ray_rate`` of a stack of
points (k, n) gives each point's rate from one jet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .columns import row_dot, row_min, row_sum
from .generators import Generator
from .polytope import MEMBERSHIP_TOL, Polytope
from . import quadrature

__all__ = [
    "base_log_weight", "ray_rate", "rate_gap", "MonomialDensity",
    "density_family", "pair_each", "pair_densities", "GcstImage",
    "gcst_image", "l1_norm", "normalized_density", "basis_census",
    "QuantizationError",
]


class QuantizationError(ValueError):
    pass


# the density-quadrature tolerance per dimension, read-only: the one
# source of a density's ``rel_tol``
DEFAULT_REL_TOL = MappingProxyType({1: quadrature.REL_TOL, 2: 1e-6})


def base_log_weight(P: Polytope, m, X) -> np.ndarray:
    """h(x) with exp(-h) the s = 0 fiber density of the section at m."""
    return _base_log_weight(P, _facet_terms(P, m), X)


def _facet_terms(P: Polytope, m):
    """The terms of h that depend on m alone: the facets where ell(m) is
    positive, ell(m) on them and 0 on the others, and the sum of ell(m)."""
    m = np.asarray(m, dtype=float)
    ell_m = P.ell(m)
    if np.min(ell_m) < -MEMBERSHIP_TOL:
        raise QuantizationError(f"lattice point {m} lies outside P")
    pos = ell_m > 0
    return pos, np.where(pos, ell_m, 0.0), float(ell_m.sum())


def _base_log_weight(P: Polytope, terms, X) -> np.ndarray:
    """h at the points X, from the facet terms of one m or of one m per
    point (each term with a leading axis over the points)."""
    pos, ell_m, total = terms
    ell_x = P.ell(np.asarray(X, dtype=float))
    with np.errstate(divide="ignore"):
        log_ell = np.where(pos, np.log(np.maximum(ell_x, 0.0)), 0.0)
    return -0.5 * row_dot(log_ell, ell_m) + 0.5 * (row_sum(ell_x) - total)


def _exponents(P: Polytope, m) -> list:
    """ell_r(m) / 2 at each facet r, exact, the power of ell_r in the weight
    exp(-h); 0 where m is not a lattice point, whose float ell_r(m) gives
    no exact power."""
    if not all(c.is_integer() for c in m):
        return [0] * len(P.normals)
    m = [int(c) for c in m]
    return [P.ell_exact(m, r) / 2 for r in range(len(P.normals))]


def _log_gap(P, gen, X, m, s, psi_m, weighted, facets) -> np.ndarray:
    """-s * gap - base at the points X where ``weighted`` holds and -s * gap
    at the others, from one jet of gen, for one member (m, s, psi(m),
    weighted) or one per point; ``facets`` are the facet terms of the
    member or of each weighted point."""
    val, grad, _ = gen.jet(X, 1)
    log = -(s * (psi_m + (row_dot(X - m, grad) - val)))
    w = np.broadcast_to(weighted, log.shape)
    if w.any():
        log[w] -= _base_log_weight(P, facets, X.compress(w, axis=0))
    return log


def ray_rate(gen: Generator, m, X) -> np.ndarray:
    """(x - m) . grad psi - psi; constant on each affinity component of psi.
    For one point m (n,) it is (N,) at the points X (N, n); for a stack of
    points m (k, n) it is (k, N), one row per m, from one jet of gen."""
    X = np.asarray(X, dtype=float)
    m = np.asarray(m, dtype=float)
    val, grad, _ = gen.jet(X, 1)
    return row_dot(X - m[..., None, :], grad) - val


def rate_gap(gen: Generator, m, X) -> np.ndarray:
    """psi(m) + ray_rate >= 0, vanishing on the concentration set."""
    m = np.asarray(m, dtype=float)
    return float(gen.value(m)) + ray_rate(gen, m, X)


def basis_census(P: Polytope):
    pts = P.integral_points()
    return len(pts), pts


def _laplace(P: Polytope, gen: Generator, m, s):
    """Laplace's estimates of each member (m, s) of a family, from one jet
    on the stack of m (k, n), nan where s Hess psi(m) is not positive
    definite or m lies on a facet: the width (s psi''(m))^(-1/2) (k, 1) of
    a 1-D family (None in higher dimensions, where cuts at the peak's
    scales cost more nodes than they save), and the mass
    min((2 pi)^(n/2) det(s Hess psi(m))^(-1/2), vol(P)) (k,) of the
    density over its value at m, which is at most 1 on P."""
    # symmetric elimination on s Hess psi(m): it is positive definite iff
    # every pivot is positive, and its determinant is their product
    a, det = s[:, None, None] * gen.jet(m, 2)[2], np.ones(len(m))
    while a.shape[1]:
        pivot = np.where(a[:, 0, 0] > 0.0, a[:, 0, 0], np.nan)[:, None, None]
        det = det * pivot[:, 0, 0]
        a = a[:, 1:, 1:] - a[:, 1:, :1] * (a[:, :1, 1:] / pivot)
    det = np.where(np.isfinite(det) & (row_min(P.ell(m)) > 0.0), det, np.nan)
    mass = (2.0 * math.pi) ** (P.dim / 2) / np.sqrt(det)
    if np.isfinite(mass).any():
        mass = np.minimum(mass, float(P.volume_exact()))
    return (1.0 / np.sqrt(det)[:, None] if P.dim == 1 else None), mass


class MonomialDensity:
    """Fiber density of one monomial section at ray time s.

    weighted=True gives exp(-base - s*rate) (the section density); False
    gives the bare exp(-s*rate) used for the distributional-limit checks.
    A density made alone is a family of one; ``density_family`` makes
    densities whose norms are integrated together.
    """

    def __init__(self, P: Polytope, gen: Generator, m, s: float, *,
                 weighted: bool = True):
        m = np.asarray(m, dtype=float)
        # the facet terms check that m lies in P, in both variants
        self._set(P, gen, m, s, weighted, float(gen.value(m)),
                  _facet_terms(P, m))

    def _set(self, P, gen, m, s, weighted, psi_m, facets):
        """The fields of the density at m (n,), with psi(m) and the facet
        terms of m given, as ``density_family`` computes them once per
        distinct m."""
        self.polytope = P
        self.generator = gen
        self.m = m
        self.s = float(s)
        self.weighted = bool(weighted)
        self.rel_tol = DEFAULT_REL_TOL.get(P.dim, 1e-6)
        self.psi_m = psi_m
        self._facets = facets
        self._family = None     # the densities normed with this one
        self._norm_ready = False
        self._rule = None       # the NodeSet the mass was summed on

    # -- log densities -------------------------------------------------------

    def log_density(self, X) -> np.ndarray:
        """Unnormalized log density (can be large when psi(m) > 0)."""
        return self.log_gap_density(X) + self.s * self.psi_m

    def log_gap_density(self, X) -> np.ndarray:
        """Stable form -base - s*gap (bare: -s*gap); max is O(1)."""
        return _log_gap(self.polytope, self.generator,
                        np.asarray(X, dtype=float), self.m, self.s,
                        self.psi_m, self.weighted, self._facets)

    # -- norms and pairings ----------------------------------------------------

    def _ensure_norm(self):
        """Integrate the mass of this density and of every density of its
        family not yet normed, as the members of one ``integrate_polytope``
        call: one pass of panels cut at the facets, the ends of the
        generator's support slabs, each member's m and, in 1-D, the ladder
        of its Laplace width, with each member's Laplace mass as its scale
        (``_laplace``)."""
        if self._norm_ready:
            return
        todo = [d for d in self._family or (self,) if not d._norm_ready]
        P, gen = self.polytope, self.generator
        m = np.array([d.m for d in todo])
        s = np.array([d.s for d in todo])
        psi_m = np.array([d.psi_m for d in todo])
        weighted = np.array([d.weighted for d in todo])
        facets = tuple(np.array(t) for t in zip(*(d._facets for d in todo)))
        # each distinct m of a weighted member gets its exact powers once
        powers = {d.m.tobytes(): d.m for d in todo if d.weighted}
        powers = {key: _exponents(P, m) for key, m in powers.items()}
        exponents = [powers[d.m.tobytes()] if d.weighted
                     else [0] * len(P.normals) for d in todo]
        # each member's log density at its m, its peak, is its reference:
        # the gap vanishes there, so it is -h(m), or 0 when bare
        ref = np.zeros(len(todo))
        ref[weighted] = -_base_log_weight(
            P, tuple(t[weighted] for t in facets), m[weighted])
        many = len(todo) > 1

        def driver(X, i):
            """Each member's density over its value at m; the closure holds
            the members' arrays, not the densities.  A family of one reads
            its arrays without a per-point gather."""
            if not many:
                i = 0
            w = weighted[i]
            # the facet terms of the weighted rows only
            rows = np.extract(w, i)
            terms = tuple(t.take(rows, axis=0) for t in facets)
            with np.errstate(over="ignore"):
                return np.exp(_log_gap(P, gen, X, m[i], s[i], psi_m[i], w,
                                       terms) - ref[i])

        widths, masses = _laplace(P, gen, m, s)
        rules = quadrature.integrate_polytope(
            driver, P, lines=[(nu, c) for nu, lo, hi in gen.support
                              for c in (lo, hi)], points=m, widths=widths,
            scales=masses, exponents=exponents, rel_tol=self.rel_tol)
        if min(rule.value for rule in rules) <= 0:
            raise QuantizationError("density mass underflowed")
        for d, r, rule in zip(todo, ref.tolist(), rules):
            d._ref, d._rule = r, rule
            d._log_gap_mass = r + math.log(rule.value)
            d._norm_ready, d._family = True, None

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
        """Integral of the normalized density against tau (its lone
        ``pair_densities`` value)."""
        return float(pair_densities([self], [tau])[0][0, 0])

    def pair_absolute(self, tau) -> float:
        """Integral of the gap density (= gCST scalar density) against tau."""
        self._ensure_norm()
        return self.pair(tau) * math.exp(self._log_gap_mass)


def density_family(P: Polytope, gen: Generator, members) -> list:
    """The densities of the members (m, s, weighted) on P under one
    generator, whose norms are integrated together the first time one of
    them is needed; bare and weighted densities may share a family.  Each
    member keeps its own panels, reference level and rule, so each behaves
    as the density made alone.  psi(m) of every distinct m comes from one
    generator jet on their stack, and the facet terms (checking that m lies
    in P) once per distinct m."""
    members = [(np.asarray(m, dtype=float), s, w) for m, s, w in members]
    distinct = {m.tobytes(): m for m, _, _ in members}
    if not distinct:
        return []
    psi = gen.value(np.array(list(distinct.values()))).tolist()
    terms = {key: (p, _facet_terms(P, m))
             for (key, m), p in zip(distinct.items(), psi)}
    family = []
    for m, s, weighted in members:
        d = MonomialDensity.__new__(MonomialDensity)
        d._set(P, gen, m, s, weighted, *terms[m.tobytes()])
        family.append(d)
    for d in family:
        d._family = family
    return family


def pair_each(pairings):
    """(values, errors), each (len(pairings),): the pairing of the
    normalized density with tau, and its error estimate, for each
    (density, tau) in ``pairings``.  The densities are normed first, a
    family in one pass, and every pairing goes to one ``pair_all``, so the
    pairings that miss on their nodes are repaired from their rules' panels
    as one family."""
    pairings = list(pairings)
    for d in dict.fromkeys(d for d, _ in pairings):
        d._ensure_norm()
    res = np.array(quadrature.pair_all(
        [(d._rule, tau) for d, tau in pairings]), dtype=float).reshape(-1, 2)
    mass = np.array([d._rule.value for d, _ in pairings])
    return res[:, 0] / mass, res[:, 1] / mass


def pair_densities(densities, taus):
    """(values, errors), each (len(densities), len(taus)): ``pair_each``
    over every density and every tau."""
    values, errs = pair_each((d, tau) for d in densities for tau in taus)
    shape = (len(densities), len(taus))
    return values.reshape(shape), errs.reshape(shape)


@dataclass
class GcstImage:
    """Diagonal coherent-state-transform image of a monomial section.

    The transform multiplies the section by exp(-s psi(m)); the resulting
    scalar density exp(-base - s*(psi(m) + rate)) is exactly the stable gap
    density of the underlying MonomialDensity, whose integral over P is
    ``gap_mass``.
    """
    m: np.ndarray
    s: float
    coefficient: float
    density: MonomialDensity
    gap_mass: float

    def pair(self, tau) -> float:
        """Unnormalized pairing of the transformed scalar density with tau."""
        return self.density.pair_absolute(tau)


def gcst_image(density: MonomialDensity) -> GcstImage:
    m = density.m
    if not np.array_equal(m, np.round(m)):
        raise QuantizationError(f"{m} is not a lattice point")
    coeff = math.exp(-density.s * density.psi_m)
    density._ensure_norm()
    return GcstImage(m=m, s=density.s, coefficient=coeff, density=density,
                     gap_mass=math.exp(density._log_gap_mass))


def l1_norm(density: MonomialDensity) -> float:
    """log[(2 pi)^n * integral of the fiber density]."""
    return density.log_l1()


def normalized_density(density: MonomialDensity):
    """Evaluator of the mass-one density on P."""
    density._ensure_norm()
    return density.normalized
