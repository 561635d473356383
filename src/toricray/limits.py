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

from .columns import row_sum
from .generators import Generator
from .polytope import (CROSSING_TOL, MEMBERSHIP_TOL, FaceFrame, Polytope,
                       make_polytope, vertices_of_system)
from .potentials import ray_jet
from .quadrature import REL_TOL, integrate_polytope, pair_all, panel_nodes
from .quantization import (MonomialDensity, base_log_weight, density_family,
                           pair_each, ray_rate)

__all__ = [
    "BatteryMember", "battery_for", "RateFit", "fit_rate",
    "pair", "DiagnosticCase", "diagnose", "delta_case", "uniform_case",
    "face_delta_case", "delta_diagnostic", "uniform_diagnostic",
    "face_delta_diagnostic",
    "PolarizationFrame", "polarization_frame", "polarization_distance",
    "distance_to_real", "mixed_limit_frame", "metric_length",
    "region_mean", "chord_mean", "DiagnosticResult",
]

# errors at or below this floor are rounding, not a rate, and fit_rate
# drops them
RATE_FIT_FLOOR = 1e-13


# ---------------------------------------------------------------------------
# test batteries
# ---------------------------------------------------------------------------

@dataclass
class BatteryMember:
    """A named test function.  ``cuts`` (n, c), where given, are the
    breakpoints of each variable at which fn is not analytic, or that
    bound its scales: a repair of a missed pairing starts with its panels
    split there (``quadrature.pair_all``)."""
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    cuts: np.ndarray | None = None

    def __call__(self, X):
        return self.fn(np.asarray(X, dtype=float))


def battery_for(P: Polytope) -> list:
    """Constants, coordinates, quadratics, a cosine wave and a smooth bump.

    The bump is exp(-1 / (1 - r^2)) on the ball of radius w = diam(P) / 3
    about c = ``P.centroid()`` (the vertex mean), r the distance to c over
    w, and 0 off it: it is smooth but not analytic on the sphere.  Its
    ``cuts`` in each variable are the support's ends c_j +- w and one rung
    c_j +- 3w/4 inside; no other member has cuts."""
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
        r2 = row_sum(((X - c) / w) ** 2)
        out = np.zeros(X.shape[:-1])
        inside = r2 < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    members.append(BatteryMember(
        "bump", bump, center[:, None] + width * np.array([-1.0, -0.75, 0.75,
                                                          1.0])))
    return members


# ---------------------------------------------------------------------------
# region means (limits of the uniform/weighted diagnostics)
# ---------------------------------------------------------------------------

def region_mean(region: Polytope, battery, *, weight=None) -> list:
    """Means over the region of each member of ``battery`` (callables on
    points), optionally weighted by a density.  The weight (1 when there is
    none) is integrated once, and every member is paired on its nodes by
    one ``pair_all``, which raises QuadratureError when one misses
    REL_TOL."""
    rule = integrate_polytope(weight or (lambda X: np.ones(len(X))), region)
    return [value / rule.value
            for value, _ in pair_all([(rule, tau) for tau in battery])]


def chord_mean(P: Polytope, frame: FaceFrame, c_perp, battery, *,
               weight=None) -> list:
    """Means of each member of ``battery`` along the chord {x_perp = c} of P
    (uniform or weighted): ``region_mean`` over the chord as a 1-D polytope
    in the parallel coordinate u."""
    if frame.n_parallel != 1 or P.dim != 2:
        raise NotImplementedError("chord means implemented for 2-D walls")
    c_perp = np.atleast_1d(np.asarray(c_perp, dtype=float))

    def point(U):
        u = U[..., 0]
        xt = np.stack([u, np.full_like(u, c_perp[0])], axis=-1)
        return xt @ frame.inverse_np.T

    # the exact parallel range: u at the vertices of the wall's slice of P
    u = sorted(sum(a * x for a, x in zip(frame.matrix[0], v)) for v, _ in
               vertices_of_system(P.normals, P.offsets, 2,
                                  [(frame.normals[0], c_perp[0])]))
    if len(u) < 2:
        raise ValueError("chord misses the polytope")
    chord = make_polytope([[1], [-1]], [u[0], -u[-1]], require_delzant=False)
    return region_mean(chord, [lambda U, tau=tau: tau(point(U))
                               for tau in battery],
                       weight=None if weight is None
                       else lambda U: weight(point(U)))


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

    def is_decreasing(self) -> bool:
        e = self.errors
        return bool(np.all(e[1:] <= e[:-1] * 1.05))


def fit_rate(s_grid, errors) -> RateFit:
    """Least-squares fit of errors against s; picks power vs exponential.

    Points at or below RATE_FIT_FLOOR are dropped from the fit.
    """
    s = np.asarray(s_grid, dtype=float)
    e = np.asarray(errors, dtype=float)
    keep = e > RATE_FIT_FLOOR
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

def pair(density: MonomialDensity, tau) -> float:
    """Pairing of the normalized density with tau."""
    return density.pair(tau)


@dataclass
class DiagnosticResult:
    fit: RateFit
    table: dict                 # name -> per-s errors
    limits: dict                # name -> limit value
    pairing_err: np.ndarray     # per s, the largest error estimate of a
                                # normalized pairing


@dataclass
class DiagnosticCase:
    """One diagnostic of ``diagnose``: the densities at m over ``s_grid``,
    bare or weighted, paired with ``battery`` against ``limits``.  A
    uniform case scans the rate gap off its ``region``."""
    m: list
    s_grid: list
    battery: list
    limits: dict
    weighted: bool
    region: Polytope | None = None


def diagnose(P: Polytope, gen: Generator, cases) -> list:
    """One ``DiagnosticResult`` per case on (P, gen): pairing errors against
    the case's limits per s, and their rate fit.  The densities of every
    case are one family, so their norms make one pass; every pairing goes
    to one ``pair_each``, so the missed ones make one more.  The rate gap
    of every uniform case comes from one ``ray_rate`` over the stack of
    their m, on the union of their scan points off their regions, with
    psi(m) read off the family; each case takes the least gap on its own
    points."""
    cases = list(cases)
    family = density_family(P, gen, [(c.m, s, c.weighted)
                                     for c in cases for s in c.s_grid])
    starts = np.cumsum([0] + [len(c.s_grid) for c in cases]).tolist()
    densities = [family[a:b] for a, b in zip(starts[:-1], starts[1:])]
    values, errs = pair_each([(d, t) for c, ds in zip(cases, densities)
                              for d in ds for t in c.battery])
    ends = np.cumsum([len(c.s_grid) * len(c.battery) for c in cases])[:-1]
    gaps = {}
    scanned = [i for i, c in enumerate(cases) if c.region is not None]
    if scanned:
        # the gap scan's points: those of P on 10,000 grid points of its
        # bounding box (a 100 x 100 grid in 2-D)
        axes = [np.linspace(a, b, 10000 if P.dim == 1 else 100)
                for a, b in zip(*P.bbox())]
        xs = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, P.dim)
        xs = xs[P.contains(xs, tol=MEMBERSHIP_TOL)]
        off = np.array([~cases[i].region.contains(xs, tol=MEMBERSHIP_TOL)
                        for i in scanned])
        union = off.any(axis=0)
        rates = ray_rate(gen, [cases[i].m for i in scanned], xs[union])
        for i, rate, own in zip(scanned, rates, off[:, union]):
            ds = densities[i]
            psi_m = ds[0].psi_m if ds else float(gen.value(
                np.asarray(cases[i].m, dtype=float)))
            gap = psi_m + rate[own]
            gaps[i] = float(gap.min()) if gap.size else math.inf
    out = []
    for i, (c, v, e) in enumerate(zip(cases, np.split(values, ends),
                                      np.split(errs, ends))):
        v, e = (x.reshape(len(c.s_grid), len(c.battery)) for x in (v, e))
        dev = np.abs(v - [c.limits[t.name] for t in c.battery])
        fit = fit_rate(c.s_grid, dev.max(axis=1))
        if i in gaps:
            gap = fit.aux["gap"] = gaps[i]
            fit.aux["gap_match"] = (fit.model == "exponential"
                                    and gap > 0
                                    and abs(fit.exponent - gap) <= 0.15 * gap)
        out.append(DiagnosticResult(
            fit=fit, table={t.name: dev[:, j]
                            for j, t in enumerate(c.battery)},
            limits=c.limits, pairing_err=e.max(axis=1)))
    return out


def delta_case(m, s_grid, battery, *, weighted=False) -> DiagnosticCase:
    """The case of ``delta_diagnostic``: its limit is point evaluation at
    m."""
    m_arr = np.asarray(m, dtype=float)
    limits = {t.name: float(t(m_arr[None, :])[0]) for t in battery}
    return DiagnosticCase(m, s_grid, battery, limits, weighted)


def uniform_case(P: Polytope, m, s_grid, battery, region: Polytope, *,
                 weighted=False) -> DiagnosticCase:
    """The case of ``uniform_diagnostic``: its limit is the (uniform or
    base-weighted) mean of tau over ``region``, off which the rate gap is
    scanned."""
    w = (lambda X: np.exp(-base_log_weight(P, m, X))) if weighted else None
    limits = dict(zip([t.name for t in battery],
                      region_mean(region, battery, weight=w)))
    return DiagnosticCase(m, s_grid, battery, limits, weighted, region)


def face_delta_case(P: Polytope, m, s_grid, frame: FaceFrame, separable, *,
                    weighted=False) -> DiagnosticCase:
    """The case of ``face_delta_diagnostic``: separable test functions
    whose limit is tau_perp at the wall offset times the chord mean of
    tau_par."""
    if frame.codim != 1:
        raise NotImplementedError("separable diagnostics ship for walls")
    npar = frame.n_parallel
    c = float(frame.offsets_np[0])
    w = (lambda X: np.exp(-base_log_weight(P, m, X))) if weighted else None
    limits, taus = {}, []
    par_means = chord_mean(P, frame, [c], [
        lambda X, tpar=tpar: tpar(frame.to_frame(X)[..., 0])
        for _, _, tpar in separable], weight=w)
    for (name, tperp, tpar), par_mean in zip(separable, par_means):
        def tau(X, tperp=tperp, tpar=tpar):
            xt = frame.to_frame(X)
            return tperp(xt[..., npar]) * tpar(xt[..., 0])
        taus.append(BatteryMember(name, tau))
        limits[name] = float(tperp(np.array([c]))[0]) * par_mean
    return DiagnosticCase(m, s_grid, taus, limits, weighted)


def delta_diagnostic(P: Polytope, gen: Generator, m, s_grid, battery, *,
                     weighted=False) -> DiagnosticResult:
    """Concentration at m: pairings approach point evaluation at m.

    Laplace order predicts a power law with exponent near one.
    """
    return diagnose(P, gen, [delta_case(m, s_grid, battery,
                                        weighted=weighted)])[0]


def uniform_diagnostic(P: Polytope, gen: Generator, m, s_grid, battery,
                       region: Polytope, *,
                       weighted=False) -> DiagnosticResult:
    """Flattening onto the affinity component: pairings approach the
    (uniform or base-weighted) mean of tau over the component.

    The gap min rate_gap off the component, scanned on 10,000 grid points
    of P's bounding box (a 100 x 100 grid in 2-D), is reported as
    ``fit.aux["gap"]`` and compared with an exponential fit of the errors.
    """
    return diagnose(P, gen, [uniform_case(P, m, s_grid, battery, region,
                                          weighted=weighted)])[0]


def face_delta_diagnostic(P: Polytope, gen: Generator, m, s_grid,
                          frame: FaceFrame, separable, *,
                          weighted=False) -> DiagnosticResult:
    """Localization on a wall chord: transverse delta times parallel profile.

    ``separable`` lists (name, tau_perp(t), tau_par(u)) factors in the frame
    coordinates; the limit of the pairing is tau_perp at the wall offset
    times the mean of tau_par along the chord (uniform for the bare
    variant, base-weighted otherwise).
    """
    return diagnose(P, gen, [face_delta_case(P, m, s_grid, frame, separable,
                                             weighted=weighted)])[0]


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


def distance_to_real(G) -> float:
    """Distance of the holomorphic plane of the SPD Hessian G to the real
    toric plane."""
    n = np.atleast_2d(np.asarray(G)).shape[0]
    return polarization_distance(polarization_frame(G), real_torus_frame(n))


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


def ray_polarization(P: Polytope, gen: Generator, s, x):
    """Holomorphic plane of Hess g_s at the point x: one frame for one ray
    time s, or a list of one frame per s for a grid, whose Hessians come
    from one ``ray_jet`` call."""
    hess = ray_jet(P, gen, s, x).hessian
    if np.ndim(s) == 0:
        return polarization_frame(hess)
    return [polarization_frame(h) for h in hess]


# ---------------------------------------------------------------------------
# metric lengths
# ---------------------------------------------------------------------------

def metric_length(P: Polytope, gen: Generator, s, path):
    """Length of a polyline in (x, theta) under dx' G_s dx + dth' G_s^-1 dth.

    Each segment is cut at the generator's support boundaries, and each
    piece into 48 uniform K15 panels (``panel_nodes``), so pieces off the
    support integrate identically for every s.  Each segment takes one
    batched ray_jet call on all of its nodes and one fsum per s.  ``s`` is
    one ray time, giving a float, or a grid of them (S,), giving an array
    of S lengths from the same jets of g_P and psi per segment.
    """
    grid = np.atleast_1d(np.asarray(s, dtype=float))
    totals = [0.0] * len(grid)
    path = [(np.asarray(x, dtype=float), np.asarray(th, dtype=float))
            for x, th in path]
    for (x0, th0), (x1, th1) in zip(path[:-1], path[1:]):
        cuts = {0.0, 1.0}
        dx = x1 - x0
        for nu, lo, hi in gen.support:
            denom = float(np.dot(nu, dx))
            if abs(denom) > CROSSING_TOL:
                for bound in (lo, hi):
                    t = (bound - float(np.dot(nu, x0))) / denom
                    if 0.0 < t < 1.0:
                        cuts.add(t)
        cuts = sorted(cuts)
        grids = [np.linspace(a, b, 48 + 1)
                 for a, b in zip(cuts[:-1], cuts[1:])]
        t, w = panel_nodes(np.concatenate([g[:-1] for g in grids]),
                           np.concatenate([g[1:] for g in grids]))
        dth = th1 - th0
        hessians = ray_jet(P, gen, grid, x0 + t.reshape(-1, 1) * dx).hessian
        for j, G in enumerate(hessians):
            speed2 = np.einsum("i,kij,j->k", dx, G, dx)
            if np.any(dth):
                rhs = np.broadcast_to(dth[:, None], (len(G), len(dth), 1))
                speed2 = speed2 + np.linalg.solve(G, rhs)[..., 0] @ dth
            totals[j] += math.fsum(w.ravel()
                                   * np.sqrt(np.maximum(speed2, 0.0)))
    return totals[0] if np.ndim(s) == 0 else np.array(totals)
