"""Symplectic potentials along a Mabuchi ray.

The canonical potential of a facet system is g_P(x) = sum_r ell_r log(ell_r)/2;
the ray is g_s = g_P + s psi for a convex generator psi.  All derivatives are
closed-form from the facet description (no differencing, no symbolic engine):

    grad g_P = sum_r v_r (log ell_r + 1) / 2
    Hess g_P = sum_r v_r v_r^T / (2 ell_r)

Every routine takes the polytope, the generator, the ray time s >= 0 and a
point x of shape (n,) or a batch of shape (k, n), and every potential
evaluation needs min ell >= INTERIOR_TOL; a BoundaryError names the point
of a batch nearest a facet.  ``ray_jet`` also takes a grid of s: the ray
is affine in s, so one jet of g_P and one of psi at x serve every s.  The
Legendre inverse is a damped Newton whose line search keeps the iterate
inside P and lowers the residual |grad g_s(x) - y|.

The determinant identity det(Hess g) * prod_r ell_r = 1/delta(x), with delta
smooth and positive up to the boundary, is exposed as a report-style check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .columns import row_dot, row_min, row_prod
from .generators import Generator
from .polytope import Polytope

__all__ = [
    "BoundaryError", "NewtonError", "PotentialJet",
    "guillemin_jet", "ray_jet",
    "legendre_forward", "legendre_inverse", "holo_log_coordinate",
    "kahler_dual_value", "det_identity_check", "DetIdentityReport",
]

INTERIOR_TOL = 1e-14
# the residual |grad g_s(x) - y| at which Newton stops
NEWTON_TOL = 1e-10


class BoundaryError(ValueError):
    pass


class NewtonError(RuntimeError):
    pass


@dataclass
class PotentialJet:
    """Value, gradient and Hessian at one point (a float value) or at a
    batch of k points (shapes (k,), (k, n) and (k, n, n))."""
    value: float | np.ndarray
    gradient: np.ndarray
    hessian: np.ndarray


def _interior_ell(P: Polytope, x: np.ndarray) -> np.ndarray:
    ell = P.ell(x)
    if ell.min() < INTERIOR_TOL:
        where = x if x.ndim == 1 else x[np.argmin(row_min(ell))]
        raise BoundaryError(
            f"point {where} is not strictly interior: potential evaluation "
            f"needs min ell >= {INTERIOR_TOL}, got {ell.min()}")
    return ell


def guillemin_jet(P: Polytope, x) -> PotentialJet:
    """Jet of g_P at x of shape (n,) or at each row of x of shape (k, n)."""
    x = np.asarray(x, dtype=float)
    ell = _interior_ell(P, x)
    A = P._A
    log_ell = np.log(ell)
    value = 0.5 * row_dot(ell, log_ell)
    grad = 0.5 * (log_ell + 1.0) @ A
    hess = 0.5 * np.einsum("...r,ri,rj->...ij", 1.0 / ell, A, A)
    return PotentialJet(float(value) if x.ndim == 1 else value, grad, hess)


def ray_jet(P: Polytope, gen: Generator, s, x) -> PotentialJet:
    """Jet of g_s = g_P + s psi at x, one generator call for a batch.

    ``s`` is one ray time or a grid of them (S,).  The ray is affine in s,
    so a grid takes one jet of g_P and one of psi at x, and gives each
    entry of the jet a leading axis over s.  A lone s combines them as
    its entry of a grid does, and each s = 0 is the jet of g_P alone; a
    lone x at a lone s has a float value.
    """
    grid = np.asarray(s, dtype=float)
    if np.any(grid < 0):
        raise ValueError("ray parameter s must be >= 0")
    x = np.asarray(x, dtype=float)
    base = guillemin_jet(P, x)
    if grid.ndim == 0 and s == 0:
        return base
    val, grad, hess = gen.jet(x, 2)

    def combine(b, d):
        t = grid.reshape(grid.shape + (1,) * np.ndim(d))
        return np.where(t == 0, b, b + t * d)
    value = combine(base.value, val)
    return PotentialJet(float(value) if value.ndim == 0 else value,
                        combine(base.gradient, grad),
                        combine(base.hessian, hess))


def legendre_forward(P: Polytope, gen: Generator, s: float, x) -> np.ndarray:
    """Moment-to-holomorphic map y = grad g_s(x)."""
    return ray_jet(P, gen, s, x).gradient


def legendre_inverse(P: Polytope, gen: Generator, s: float, y) -> np.ndarray:
    """Solve grad g_s(x) = y by damped Newton from the centroid of P.

    Steps are halved until the iterate stays INTERIOR_TOL inside P and the
    residual |grad g_s(x) - y| decreases; the Newton direction descends it
    because Hess g_s is positive definite, and the log barrier of g_P
    guarantees an interior solution for every y.  Newton stops once the
    residual is at most NEWTON_TOL and raises NewtonError, with the residual
    reached, when no step lowers it (the solution lies closer to a facet
    than floats resolve grad g_P) or after 200 steps.
    """
    y = np.asarray(y, dtype=float)
    x = P.centroid()
    jet = ray_jet(P, gen, s, x)
    r = np.linalg.norm(jet.gradient - y)
    for _ in range(200):
        if r <= NEWTON_TOL:
            return x
        step = -np.linalg.solve(jet.hessian, jet.gradient - y)
        t = 1.0
        for _ in range(80):
            cand = x + t * step
            try:
                cand_jet = ray_jet(P, gen, s, cand)
                cand_r = np.linalg.norm(cand_jet.gradient - y)
            except BoundaryError:
                cand_r = np.inf
            if cand_r < r:
                x, jet, r = cand, cand_jet, cand_r
                break
            t *= 0.5
        else:
            raise NewtonError(f"line search failed at residual {r}")
    raise NewtonError(
        f"Newton did not reach tol={NEWTON_TOL} in 200 iterations; "
        f"residual={r}")


def holo_log_coordinate(P: Polytope, gen: Generator, s: float, x,
                        theta) -> np.ndarray:
    """Log of the holomorphic coordinate: y + i theta, componentwise.

    Exponentiation is left to the caller; at large s the real part grows
    linearly in s on the generator's support and would overflow exp.
    """
    theta = np.asarray(theta, dtype=float)
    return legendre_forward(P, gen, s, x) + 1j * theta


def kahler_dual_value(P: Polytope, gen: Generator, s: float, y) -> float:
    """Legendre dual h(y) = <x(y), y> - g_s(x(y))."""
    x = legendre_inverse(P, gen, s, y)
    return float(np.dot(x, y)) - ray_jet(P, gen, s, x).value


@dataclass
class DetIdentityReport:
    samples: np.ndarray
    deltas: np.ndarray
    ok_positive: bool
    ok_finite: bool


def det_identity_check(P: Polytope, gen: Generator, s: float,
                       samples) -> DetIdentityReport:
    """delta(x) = [det(Hess g_s) * prod ell_r]^-1 at the given samples.

    For a genuine toric potential delta extends positively to the boundary;
    non-positive or diverging values flag a defective Hessian.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    hess = ray_jet(P, gen, s, samples).hessian
    val = np.linalg.det(hess) * row_prod(P.ell(samples))
    with np.errstate(divide="ignore"):
        deltas = np.where(val != 0, 1.0 / val, np.inf)
    return DetIdentityReport(samples, deltas, bool(np.all(deltas > 0)),
                             bool(np.all(np.isfinite(deltas))))
