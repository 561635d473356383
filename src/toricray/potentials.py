"""Symplectic potentials along a Mabuchi ray.

The canonical potential of a facet system is g_P(x) = sum_r ell_r log(ell_r)/2;
the ray is g_s = g_P + s psi for a convex generator psi.  All derivatives are
closed-form from the facet description (no differencing, no symbolic engine):

    grad g_P = sum_r v_r (log ell_r + 1) / 2
    Hess g_P = sum_r v_r v_r^T / (2 ell_r)

The determinant identity det(Hess g) * prod_r ell_r = 1/delta(x), with delta
smooth and positive up to the boundary, is exposed as a report-style check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .generators import Generator
from .polytope import Polytope

__all__ = [
    "BoundaryError", "NewtonError", "PotentialJet", "RayPoint",
    "guillemin_jet", "ray_jet",
    "legendre_forward", "legendre_inverse", "holo_log_coordinate",
    "kahler_dual_value", "det_identity_check", "DetIdentityReport",
]

INTERIOR_TOL = 1e-14


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


@dataclass
class RayPoint:
    """A point x of shape (n,), or a batch of shape (k, n), at ray time s."""
    polytope: Polytope
    generator: Generator
    s: float
    x: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.s < 0:
            raise ValueError("ray parameter s must be >= 0")
        ell = self.polytope.ell(self.x)
        if np.min(ell) <= 0:
            where = self.x if self.x.ndim == 1 else \
                self.x[np.argmin(np.min(ell, axis=-1))]
            raise BoundaryError(
                f"point {where} is not strictly interior (min ell = {np.min(ell)})")


def _interior_ell(P: Polytope, x) -> np.ndarray:
    ell = P.ell(x)
    if np.min(ell) < INTERIOR_TOL:
        raise BoundaryError(
            f"potential evaluation needs min ell >= {INTERIOR_TOL}, got {np.min(ell)}")
    return ell


def guillemin_jet(P: Polytope, x) -> PotentialJet:
    """Jet of g_P at x of shape (n,) or at each row of x of shape (k, n)."""
    x = np.asarray(x, dtype=float)
    ell = _interior_ell(P, x)
    A = P._A
    log_ell = np.log(ell)
    value = 0.5 * np.sum(ell * log_ell, axis=-1)
    grad = 0.5 * (log_ell + 1.0) @ A
    hess = 0.5 * np.einsum("...r,ri,rj->...ij", 1.0 / ell, A, A)
    return PotentialJet(float(value) if x.ndim == 1 else value, grad, hess)


def ray_jet(rp: RayPoint) -> PotentialJet:
    """Jet of g_s = g_P + s psi at rp.x, one generator call for a batch."""
    base = guillemin_jet(rp.polytope, rp.x)
    if rp.s == 0:
        return base
    val, grad, hess = rp.generator.jet(rp.x, 2)
    if rp.x.ndim == 1:
        val = float(val)
    return PotentialJet(base.value + rp.s * val,
                        base.gradient + rp.s * grad,
                        base.hessian + rp.s * hess)


def legendre_forward(rp: RayPoint) -> np.ndarray:
    """Moment-to-holomorphic map y = grad g_s(x)."""
    return ray_jet(rp).gradient


def _ray_objective(P, gen, s, x, y):
    ell = _interior_ell(P, x)
    g = 0.5 * float(np.sum(ell * np.log(ell))) + s * float(gen.value(x))
    return g - float(np.dot(y, x))


def legendre_inverse(P: Polytope, gen: Generator, s: float, y,
                     guess=None) -> np.ndarray:
    """Solve grad g_s(x) = y by damped Newton on the convex dual objective.

    Steps are halved until the iterate stays strictly interior and the
    objective g_s(x) - <y, x> decreases; the log barrier of g_P guarantees
    an interior solution for every y.  Newton stops once the residual is
    at most 1e-10, and raises NewtonError after 200 steps.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(guess, dtype=float) if guess is not None else P.centroid()
    if np.min(P.ell(x)) <= 0:
        raise BoundaryError("initial guess must be strictly interior")
    fx = _ray_objective(P, gen, s, x, y)
    for _ in range(200):
        jet = ray_jet(RayPoint(P, gen, s, x))
        r = jet.gradient - y
        if np.linalg.norm(r) <= 1e-10:
            return x
        step = -np.linalg.solve(jet.hessian, r)
        t = 1.0
        for _ in range(80):
            cand = x + t * step
            if np.min(P.ell(cand)) > 0:
                f_cand = _ray_objective(P, gen, s, cand, y)
                if f_cand <= fx + 1e-4 * t * float(np.dot(r, step)):
                    x, fx = cand, f_cand
                    break
            t *= 0.5
        else:
            raise NewtonError(f"line search failed at residual {np.linalg.norm(r)}")
    raise NewtonError(
        "Newton did not reach tol=1e-10 in 200 iterations; "
        f"residual={np.linalg.norm(ray_jet(RayPoint(P, gen, s, x)).gradient - y)}")


def holo_log_coordinate(rp: RayPoint, theta) -> np.ndarray:
    """Log of the holomorphic coordinate: y + i theta, componentwise.

    Exponentiation is left to the caller; at large s the real part grows
    linearly in s on the generator's support and would overflow exp.
    """
    theta = np.asarray(theta, dtype=float)
    y = legendre_forward(rp)
    return y + 1j * theta


def kahler_dual_value(P: Polytope, gen: Generator, s: float, y,
                      guess=None) -> float:
    """Legendre dual h(y) = <x(y), y> - g_s(x(y))."""
    x = legendre_inverse(P, gen, s, y, guess=guess)
    jet = ray_jet(RayPoint(P, gen, s, x))
    return float(np.dot(x, y)) - jet.value


@dataclass
class DetIdentityReport:
    samples: np.ndarray
    deltas: np.ndarray = field(default=None)
    ok_positive: bool = True
    ok_finite: bool = True


def det_identity_check(P: Polytope, gen: Generator, s: float,
                       samples) -> DetIdentityReport:
    """delta(x) = [det(Hess g_s) * prod ell_r]^-1 at the given samples.

    For a genuine toric potential delta extends positively to the boundary;
    non-positive or diverging values flag a defective Hessian.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    hess = ray_jet(RayPoint(P, gen, s, samples)).hessian
    val = np.linalg.det(hess) * np.prod(P.ell(samples), axis=-1)
    with np.errstate(divide="ignore"):
        deltas = np.where(val != 0, 1.0 / val, np.inf)
    report = DetIdentityReport(samples=samples, deltas=deltas)
    report.ok_positive = bool(np.all(deltas > 0))
    report.ok_finite = bool(np.all(np.isfinite(deltas)))
    return report
