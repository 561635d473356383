"""Convergence diagnostics along the ray.

Distributional convergence is operationalized as convergence of pairings of
the normalized densities against a fixed, named battery of smooth test
functions; the battery is part of the configuration so runs reproduce.
Predicted laws: Laplace concentration gives O(1/s) errors (power fits with
exponent near 1), spectral-gap suppression gives exp(-g s); the fitter
tries both models and keeps the smaller log-space residual.

Polarizations are handled as points of the complex Lagrangian Grassmannian:
the holomorphic plane of a Hessian G is span{(b, -i G b)}, the real toric
plane is the angular block, and distances are Frobenius norms of orthogonal
projector differences (chordal metric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .generators import Generator
from .polytope import FaceFrame, Polytope
from .potentials import RayPoint, ray_jet
from .quadrature import (QuadratureError, integrate_1d, integrate_polytope,
                         panel_nodes)
from .quantization import MonomialDensity, base_log_weight, rate_gap

__all__ = [
    "BatteryMember", "TestBattery", "battery_for", "RateFit", "fit_rate",
    "pair", "delta_diagnostic", "uniform_diagnostic", "face_delta_diagnostic",
    "PolarizationFrame", "polarization_frame", "polarization_distance",
    "distance_to_real", "mixed_limit_frame", "metric_length",
    "region_mean", "chord_mean", "DiagnosticResult",
]


# ---------------------------------------------------------------------------
# test batteries
# ---------------------------------------------------------------------------

@dataclass
class BatteryMember:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, X):
        return self.fn(np.asarray(X, dtype=float))


@dataclass
class TestBattery:
    members: list

    def __iter__(self):
        return iter(self.members)

    def names(self):
        return [m.name for m in self.members]


def battery_for(P: Polytope) -> TestBattery:
    """Constants, coordinates, quadratics, a cosine wave and a smooth bump."""
    diam = P.diameter()
    center = P.centroid()
    members = [BatteryMember("one", lambda X: np.ones(X.shape[:-1]))]
    for i in range(P.dim):
        members.append(BatteryMember(f"x{i + 1}",
                                     lambda X, i=i: X[..., i]))
    for i in range(P.dim):
        for j in range(i, P.dim):
            members.append(BatteryMember(
                f"x{i + 1}x{j + 1}", lambda X, i=i, j=j: X[..., i] * X[..., j]))
    for i in range(P.dim):
        members.append(BatteryMember(
            f"cos_x{i + 1}",
            lambda X, i=i, d=diam: np.cos(np.pi * X[..., i] / d)))
    width = diam / 3.0

    def bump(X, c=center, w=width):
        r2 = np.sum(((X - c) / w) ** 2, axis=-1)
        out = np.zeros(X.shape[:-1])
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    members.append(BatteryMember("bump", bump))
    return TestBattery(members)


# ---------------------------------------------------------------------------
# region means (limits of the uniform/weighted diagnostics)
# ---------------------------------------------------------------------------

def region_mean(region: Polytope, tau, *, weight=None, rel_tol=1e-10) -> float:
    """Mean of tau over the region, optionally weighted by a density."""
    def integral(f):
        res = integrate_polytope(f, region, rel_tol=rel_tol)
        # relative to the integral of |f|, which stays positive where the
        # integral of f cancels to zero
        scale = float(res.weights @ np.abs(res.values))
        if res.err > 100.0 * rel_tol * scale + 1e-300:
            raise QuadratureError(
                f"region integral missed its tolerance {rel_tol}: relative "
                f"error {res.err / max(scale, 1e-300):.2e}")
        return res.value
    if weight is None:
        return integral(tau) / float(region.volume_exact())
    return integral(lambda X: weight(X) * tau(X)) / integral(weight)


def chord_mean(P: Polytope, frame: FaceFrame, c_perp, tau, *, weight=None,
               rel_tol=1e-10) -> float:
    """Mean of tau along the chord {x_perp = c} of P (uniform or weighted)."""
    if frame.n_parallel != 1 or P.dim != 2:
        raise NotImplementedError("chord means implemented for 2-D walls")
    c_perp = np.atleast_1d(np.asarray(c_perp, dtype=float))

    def point(u):
        u = np.asarray(u, dtype=float)
        xt = np.stack([u, np.full_like(u, c_perp[0])], axis=-1)
        return xt @ frame.inverse_np.T

    # exact parallel range: each facet constraint is affine in u
    x0, x1 = point(np.array([0.0, 1.0]))
    u_lo, u_hi = (float(u) for u in P.chord(x0, x1 - x0))
    if not u_lo < u_hi:
        raise ValueError("chord misses the polytope")
    if weight is None:
        num = integrate_1d(lambda u: tau(point(u)), u_lo, u_hi, rel_tol=rel_tol)
        den = u_hi - u_lo
    else:
        num = integrate_1d(lambda u: weight(point(u)) * tau(point(u)),
                           u_lo, u_hi, rel_tol=rel_tol)
        den = integrate_1d(lambda u: weight(point(u)), u_lo, u_hi,
                           rel_tol=rel_tol)
    return num / den


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    s_grid: np.ndarray
    errors: np.ndarray
    model: str                  # "power" or "exponential"
    exponent: float             # p in s^-p, or g in exp(-g s)
    amplitude: float
    residual: float             # rms relative residual in log space
    aux: dict = field(default_factory=dict)

    def is_decreasing(self, noise: float = 0.05, burn_in: int = 0) -> bool:
        e = self.errors[burn_in:]
        return bool(np.all(e[1:] <= e[:-1] * (1.0 + noise)))


def fit_rate(s_grid, errors, floor: float = 1e-13) -> RateFit:
    """Least-squares fit of errors against s; picks power vs exponential.

    Points at or below the numerical floor are dropped from the fit.
    """
    s = np.asarray(s_grid, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > floor
    if keep.sum() < 2:
        return RateFit(s, e, "floor", 0.0, 0.0, 0.0,
                       aux={"note": "errors at numerical floor"})
    ls, le = np.log(s[keep]), np.log(e[keep])
    # power law: log e = log A - p log s
    ap, bp = np.polyfit(ls, le, 1)
    res_p = float(np.sqrt(np.mean((np.polyval([ap, bp], ls) - le) ** 2)))
    # exponential: log e = log A - g s
    ae, be = np.polyfit(s[keep], le, 1)
    res_e = float(np.sqrt(np.mean((np.polyval([ae, be], s[keep]) - le) ** 2)))
    if res_p <= res_e:
        return RateFit(s, e, "power", float(-ap), float(math.exp(bp)), res_p,
                       aux={"residual_exponential": res_e})
    return RateFit(s, e, "exponential", float(-ae), float(math.exp(be)), res_e,
                   aux={"residual_power": res_p})


# ---------------------------------------------------------------------------
# pairings and diagnostics
# ---------------------------------------------------------------------------

def pair(density: MonomialDensity, tau, region: Polytope = None) -> float:
    """Pairing of the normalized density with tau, optionally over a region."""
    if region is None or region is density.polytope:
        return density.pair(tau)

    def masked(X):
        inside = region.contains(X, tol=1e-12)
        return np.where(inside, tau(X), 0.0)

    return density.pair(masked)


@dataclass
class DiagnosticResult:
    fit: RateFit
    table: dict                 # name -> per-s errors
    limits: dict                # name -> limit value
    aux: dict = field(default_factory=dict)

    def rows(self):
        """(s, error per battery member) table, CSV-ready."""
        names = sorted(self.table)
        out = [("s", *names)]
        for i, s in enumerate(self.fit.s_grid):
            out.append((float(s), *(float(self.table[n][i]) for n in names)))
        return out

    def as_text(self) -> str:
        fit = self.fit
        lines = [f"fit: {fit.model}, exponent {fit.exponent:.4g}, "
                 f"residual {fit.residual:.3g}"]
        for k, v in fit.aux.items():
            lines.append(f"  {k}: {v}")
        for row in self.rows():
            lines.append("  " + "  ".join(
                f"{v:.6g}" if isinstance(v, float) else f"{v:>10s}"
                for v in row))
        return "\n".join(lines)


def _max_battery_errors(P, gen, m, s_grid, battery, limits, *, weighted):
    per_s = []
    for s in s_grid:
        md = MonomialDensity(P, gen, m, s, weighted=weighted)
        per_s.append({t.name: md.pair(t) - limits[t.name] for t in battery})
    table = {t.name: np.array([abs(row[t.name]) for row in per_s])
             for t in battery}
    errors = np.array([max(abs(v) for v in row.values()) for row in per_s])
    return errors, table


def delta_diagnostic(P: Polytope, gen: Generator, m, s_grid,
                     battery: TestBattery, *,
                     weighted=False) -> DiagnosticResult:
    """Concentration at m: pairings approach point evaluation at m.

    Laplace order predicts a power law with exponent near one.
    """
    m_arr = np.asarray(m, dtype=float)
    limits = {t.name: float(t(m_arr[None, :])[0]) for t in battery}
    errors, table = _max_battery_errors(P, gen, m, s_grid, battery, limits,
                                        weighted=weighted)
    fit = fit_rate(s_grid, errors)
    return DiagnosticResult(fit=fit, table=table, limits=limits)


def uniform_diagnostic(P: Polytope, gen: Generator, m, s_grid,
                       battery: TestBattery, region: Polytope, *,
                       weighted=False,
                       gap_scan: int = 10000) -> DiagnosticResult:
    """Flattening onto the affinity component: pairings approach the
    (uniform or base-weighted) mean of tau over the component.

    The scanned gap min rate_gap off the component is reported and compared
    with an exponential fit of the errors.
    """
    if weighted:
        w = lambda X: np.exp(-base_log_weight(P, m, X))
        limits = {t.name: region_mean(region, t, weight=w) for t in battery}
    else:
        limits = {t.name: region_mean(region, t) for t in battery}
    errors, table = _max_battery_errors(P, gen, m, s_grid, battery, limits,
                                        weighted=weighted)
    fit = fit_rate(s_grid, errors)

    lo, hi = P.bbox()
    if P.dim == 1:
        xs = np.linspace(lo[0], hi[0], gap_scan)[:, None]
    else:
        side = int(math.sqrt(gap_scan))
        g1 = np.linspace(lo[0], hi[0], side)
        g2 = np.linspace(lo[1], hi[1], side)
        xs = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
        xs = xs[P.contains(xs, tol=1e-12)]
    off = ~region.contains(xs, tol=1e-12)
    gaps = rate_gap(gen, m, xs[off])
    gap = float(gaps.min()) if gaps.size else math.inf
    fit.aux["gap"] = gap
    fit.aux["gap_match"] = (fit.model == "exponential"
                            and gap > 0
                            and abs(fit.exponent - gap) <= 0.15 * gap)
    return DiagnosticResult(fit=fit, table=table, limits=limits,
                            aux={"gap": gap})


def face_delta_diagnostic(P: Polytope, gen: Generator, m, s_grid,
                          frame: FaceFrame, separable, *,
                          weighted=False) -> DiagnosticResult:
    """Localization on a wall chord: transverse delta times parallel profile.

    ``separable`` lists (name, tau_perp(t), tau_par(u)) factors in the frame
    coordinates; the limit of the pairing is tau_perp at the wall offset
    times the mean of tau_par along the chord (uniform for the bare
    variant, base-weighted otherwise).
    """
    if frame.codim != 1:
        raise NotImplementedError("separable diagnostics ship for walls")
    m_arr = np.asarray(m, dtype=float)
    npar = frame.n_parallel
    c = float(frame.offsets_np[0])
    weight = None
    if weighted:
        weight = lambda X: np.exp(-base_log_weight(P, m_arr, X))
    limits = {}
    taus = []
    for name, tperp, tpar in separable:
        def tau(X, tperp=tperp, tpar=tpar):
            xt = frame.to_frame(X)
            return tperp(xt[..., npar]) * tpar(xt[..., 0])
        taus.append(BatteryMember(name, tau))
        par_mean = chord_mean(P, frame, [c], lambda X, tpar=tpar:
                              tpar(frame.to_frame(X)[..., 0]), weight=weight)
        limits[name] = float(tperp(np.array([c]))[0]) * par_mean
    battery = TestBattery(taus)
    errors, table = _max_battery_errors(P, gen, m, s_grid, battery, limits,
                                        weighted=weighted)
    fit = fit_rate(s_grid, errors)
    return DiagnosticResult(fit=fit, table=table, limits=limits)


# ---------------------------------------------------------------------------
# polarization frames in the Lagrangian Grassmannian
# ---------------------------------------------------------------------------

@dataclass
class PolarizationFrame:
    """Orthonormal basis of a complex n-plane in C^2n = (dx block, dtheta block)."""
    basis: np.ndarray           # (2n, n), orthonormal columns

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


def polarization_frame(G) -> PolarizationFrame:
    """Holomorphic plane span{(b, -i G b)} of an SPD Hessian G."""
    G = np.atleast_2d(np.asarray(G, dtype=float))
    n = G.shape[0]
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError("polarization frame needs a positive definite "
                         "Hessian") from exc
    M = np.vstack([np.eye(n), -1j * G]).astype(complex)
    q, _ = np.linalg.qr(M)
    return PolarizationFrame(basis=q)


def real_torus_frame(n: int) -> PolarizationFrame:
    M = np.vstack([np.zeros((n, n)), np.eye(n)]).astype(complex)
    return PolarizationFrame(basis=M)


def polarization_distance(a: PolarizationFrame, b: PolarizationFrame) -> float:
    """Chordal Grassmannian distance: Frobenius norm of projector difference."""
    return float(np.linalg.norm(a.projector() - b.projector(), "fro"))


def distance_to_real(frame_or_G) -> float:
    if isinstance(frame_or_G, PolarizationFrame):
        fr = frame_or_G
        n = fr.basis.shape[0] // 2
    else:
        fr = polarization_frame(frame_or_G)
        n = np.atleast_2d(np.asarray(frame_or_G)).shape[0]
    return polarization_distance(fr, real_torus_frame(n))


def mixed_limit_frame(G0, transverse_normals, parallel_dirs) -> PolarizationFrame:
    """Limit plane at a wall point: angular transverse directions plus the
    initial holomorphic plane along the parallel directions."""
    G0 = np.atleast_2d(np.asarray(G0, dtype=float))
    n = G0.shape[0]
    cols = []
    for nu in np.atleast_2d(np.asarray(transverse_normals, dtype=float)):
        cols.append(np.concatenate([np.zeros(n), nu]).astype(complex))
    for t in np.atleast_2d(np.asarray(parallel_dirs, dtype=float)):
        cols.append(np.concatenate([t, -1j * (G0 @ t)]))
    M = np.stack(cols, axis=1)
    q, _ = np.linalg.qr(M)
    return PolarizationFrame(basis=q)


def ray_polarization(P: Polytope, gen: Generator, s: float, x) -> PolarizationFrame:
    return polarization_frame(ray_jet(RayPoint(P, gen, s, x)).hessian)


# ---------------------------------------------------------------------------
# metric lengths
# ---------------------------------------------------------------------------

def metric_length(P: Polytope, gen: Generator, s: float, path,
                  panels_per_segment: int = 48) -> float:
    """Length of a polyline in (x, theta) under dx' G_s dx + dth' G_s^-1 dth.

    Panels are split at the generator's support boundaries so segments off
    the support integrate identically for every s.  Each segment takes one
    batched ray_jet call on all of its GL15 nodes and one fsum.
    """
    total = 0.0
    path = [(np.asarray(x, dtype=float), np.asarray(th, dtype=float))
            for x, th in path]
    for (x0, th0), (x1, th1) in zip(path[:-1], path[1:]):
        cuts = {0.0, 1.0}
        dx = x1 - x0
        for nu, lo, hi in gen.support:
            denom = float(np.dot(nu, dx))
            if abs(denom) > 1e-14:
                for bound in (lo, hi):
                    t = (bound - float(np.dot(nu, x0))) / denom
                    if 0.0 < t < 1.0:
                        cuts.add(t)
        cuts = sorted(cuts)
        grids = [np.linspace(a, b, panels_per_segment + 1)
                 for a, b in zip(cuts[:-1], cuts[1:])]
        t, w = panel_nodes(np.concatenate([g[:-1] for g in grids]),
                           np.concatenate([g[1:] for g in grids]))
        G = ray_jet(RayPoint(P, gen, s, x0 + t.reshape(-1, 1) * dx)).hessian
        speed2 = np.einsum("i,kij,j->k", dx, G, dx)
        dth = th1 - th0
        if np.any(dth):
            rhs = np.broadcast_to(dth[:, None], (len(G), len(dth), 1))
            speed2 = speed2 + np.linalg.solve(G, rhs)[..., 0] @ dth
        total += math.fsum(w.ravel() * np.sqrt(np.maximum(speed2, 0.0)))
    return total
