"""Nice smoothings of rational PL convex functions.

A family psi_eps is "nice" when each member is smooth and convex, varies
smoothly in eps, equals f off the thickening W_eps, and near the relative
interior of each codimension-j face of W has Hessian of rank exactly j,
positive definite across the face.

The construction mollifies f along directions dual to the face frames.
Directional convolutions of a PL function have closed forms through the
kernel's cumulative tables (upper envelope of affine pieces along the shift
line), so equality with f off the slabs and the rank-one Hessian structure
hold to machine precision.  For a single wall the smoothing is exactly the
one-dimensional transverse mollification.  When W has several faces the
smoothing is one global iterated mollification whose innermost direction is
transversal to every kink normal (so the convolution is C-infinity and
derivatives pass under the integral) and whose radii are budgeted so the
result equals f outside W_eps; near a codimension-j face only j kink
directions are within reach, so the Hessian rank is exactly j there by the
ridge structure of the convolution, and no explicit blending bump is needed
(the would-be blend zones are regions of exact equality).  Convexity is
inherited from f exactly; it is still verified by sampling as a guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .generators import Generator, PLConvex
from .kernels import Kernel, get_kernel
from .polytope import FaceFrame, Polytope
from .quadrature import GL15_NODES, GL15_WEIGHTS
from .testconfig import Decomposition, thickening_membership

__all__ = [
    "build_nice_smoothing", "verify_nice_family", "NiceSmoothingGenerator",
    "NiceFamilyReport", "SmoothingError", "default_check_samples",
]


class SmoothingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Directional mollification of a PL convex function (closed form)
# ---------------------------------------------------------------------------

def _upper_envelope(slopes, intercepts):
    """Breakpoint structure of max_i(intercept_i + slope_i * y).

    Returns (order, cuts): piece indices active left-to-right in y, and the
    crossing ordinates between consecutive active pieces.
    """
    idx = np.argsort(slopes, kind="stable")
    lines = []
    for i in idx:
        s, c = slopes[i], intercepts[i]
        if lines and lines[-1][0] == s:
            if lines[-1][1] >= c:
                continue
            lines.pop()
        while len(lines) >= 2:
            s1, c1, _ = lines[-2]
            s2, c2, _ = lines[-1]
            # middle line useless if the new line overtakes l1 before l2 does
            if (c - c1) * (s2 - s1) >= (c2 - c1) * (s - s1):
                lines.pop()
            else:
                break
        lines.append((s, c, i))
    order = [l[2] for l in lines]
    cuts = []
    for (s1, c1, _), (s2, c2, _) in zip(lines[:-1], lines[1:]):
        cuts.append((c1 - c2) / (s2 - s1))
    return order, cuts


class LineMollifier:
    """Closed-form convolution of a PL convex f along one direction.

    value(x) = integral of theta_delta(y) f(x - y w) dy with theta the scaled
    kernel density of unit mass and radius delta.  Equality with f on
    single-piece windows, affine gradients, and the rank-one Hessian jumps
    are exact consequences of the envelope bookkeeping:

        value = sum_seg a_i(x) dTheta + s_i delta dE
        grad  = sum_seg g_i dTheta
        hess  = sum_breaks theta(y_b) (g_L - g_R)(g_L - g_R)^T / <g_L - g_R, w>
    """

    def __init__(self, f: PLConvex, w, delta: float, kernel: Kernel):
        self.f = f
        self.w = np.asarray(w, dtype=float)
        self.delta = float(delta)
        self.kernel = kernel
        self.slopes_w = -(f.G @ self.w)
        self._pair = f.npieces == 2 and self.slopes_w[0] != self.slopes_w[1]

    def eval_point(self, x):
        x = np.asarray(x, dtype=float)
        f, d, k = self.f, self.delta, self.kernel
        vals_plus = f.piece_values(x + d * self.w)
        vals_minus = f.piece_values(x - d * self.w)
        i_dom = int(np.argmax(vals_plus + vals_minus))
        if vals_plus[i_dom] >= vals_plus.max() and \
           vals_minus[i_dom] >= vals_minus.max():
            return float(f.piece_values(x)[i_dom]), f.G[i_dom].copy(), \
                np.zeros((f.dim, f.dim))
        intercepts = f.piece_values(x)
        order, cuts = _upper_envelope(self.slopes_w, intercepts)
        ys = [-d] + list(cuts) + [d]
        value = 0.0
        grad = np.zeros(f.dim)
        hess = np.zeros((f.dim, f.dim))
        for seg, i in enumerate(order):
            y0 = max(-d, ys[seg])
            y1 = min(d, ys[seg + 1])
            if y1 <= y0:
                continue
            t0, t1 = y0 / d, y1 / d
            dT = float(k.cdf(t1) - k.cdf(t0))
            dE = float(k.first_moment(t1) - k.first_moment(t0))
            value += intercepts[i] * dT + self.slopes_w[i] * d * dE
            grad += f.G[i] * dT
        for seg in range(len(order) - 1):
            yb = cuts[seg]
            if -d < yb < d:
                gl = f.G[order[seg]]
                gr = f.G[order[seg + 1]]
                dg = gl - gr
                denom = float(dg @ self.w)
                weight = float(k.density(yb / d)[0]) / d
                hess += weight * np.outer(dg, dg) / denom
        return value, grad, hess

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        npts, n = X.shape
        f, d = self.f, self.delta
        vals = np.empty(npts)
        grads = np.empty((npts, n))
        hesses = np.zeros((npts, n, n))

        A_plus = f.piece_values(X + d * self.w)
        A_minus = f.piece_values(X - d * self.w)
        i_dom = np.argmax(A_plus + A_minus, axis=1)
        rows = np.arange(npts)
        trivial = (A_plus[rows, i_dom] >= A_plus.max(axis=1)) & \
                  (A_minus[rows, i_dom] >= A_minus.max(axis=1))
        if np.any(trivial):
            it = i_dom[trivial]
            vals[trivial] = f.piece_values(X[trivial])[np.arange(it.size), it]
            grads[trivial] = f.G[it]
        rest = ~trivial
        if np.any(rest):
            Xr = X[rest]
            if self._pair:
                v, g, h = self._pair_closed_form(Xr)
            else:
                v = np.empty(len(Xr))
                g = np.empty((len(Xr), n))
                h = np.empty((len(Xr), n, n))
                for i, x in enumerate(Xr):
                    v[i], g[i], h[i] = self.eval_point(x)
            vals[rest] = v
            grads[rest] = g
            hesses[rest] = h
        return vals, grads, hesses

    def _pair_closed_form(self, X):
        f, d, k = self.f, self.delta, self.kernel
        sw = self.slopes_w
        # L is active at small y (smallest slope, i.e. largest <g, w>)
        iL, iR = (0, 1) if sw[0] < sw[1] else (1, 0)
        gL, gR = f.G[iL], f.G[iR]
        c = float((gL - gR) @ self.w)
        a = f.piece_values(X)
        aL, aR = a[:, iL], a[:, iR]
        yb = (aL - aR) / c
        tb = np.clip(yb / d, -1.0, 1.0)
        T = k.cdf(tb)
        E = k.first_moment(tb)
        vals = aR + (aL - aR) * T - d * c * E
        grads = gR[None, :] + (gL - gR)[None, :] * T[:, None]
        weight = k.density(tb) / d
        hesses = (weight / c)[:, None, None] * np.outer(gL - gR, gL - gR)[None]
        return vals, grads, hesses


class IteratedMollifier:
    """Mollification along several directions; inner closed form, outer GL.

    The innermost direction must be transversal to every kink normal of f:
    then the inner convolution is already C-infinity and differentiating the
    outer integrals under the integral sign is legitimate.
    """

    def __init__(self, f: PLConvex, dirs, radii, kernel: Kernel, panels: int = 16):
        self.f = f
        self.dirs = [np.asarray(w, dtype=float) for w in dirs]
        self.radii = [float(r) for r in radii]
        self.kernel = kernel
        self.inner = LineMollifier(f, self.dirs[0], self.radii[0], kernel)
        self.panels = panels
        self._levels = []
        for w, r in zip(self.dirs[1:], self.radii[1:]):
            edges = np.linspace(-r, r, self.panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            ys = (mid[:, None] + half[:, None] * GL15_NODES[None, :]).ravel()
            wts = (half[:, None] * GL15_WEIGHTS[None, :]).ravel()
            theta = kernel.density(ys / r) / r
            self._levels.append((w, ys, wts * theta))

    def _box_corners(self, x):
        corners = [np.asarray(x, dtype=float)]
        for w, r in zip(self.dirs, self.radii):
            corners = [c + sgn * r * w for c in corners for sgn in (1.0, -1.0)]
        return np.array(corners)

    def eval_point(self, x):
        x = np.asarray(x, dtype=float)
        f = self.f
        corners = self._box_corners(x)
        piece_vals = f.piece_values(corners)
        i_dom = int(np.argmax(piece_vals.sum(axis=0)))
        if np.all(piece_vals[:, i_dom] >= piece_vals.max(axis=1)):
            return float(f.piece_values(x)[i_dom]), f.G[i_dom].copy(), \
                np.zeros((f.dim, f.dim))
        return self._eval_level(x, len(self.dirs) - 1)

    def _eval_level(self, x, level):
        if level == 0:
            return self.inner.eval_point(x)
        w, ys, wts = self._levels[level - 1]
        pts = x[None, :] - ys[:, None] * w[None, :]
        if level == 1:
            vals, grads, hesses = self.inner.eval_many(pts)
        else:  # pragma: no cover - three+ directions unused at desk scale
            vals = np.empty(len(pts))
            grads = np.empty_like(pts)
            hesses = np.empty((len(pts), self.f.dim, self.f.dim))
            for i, p in enumerate(pts):
                vals[i], grads[i], hesses[i] = self._eval_level(p, level - 1)
        return (float(wts @ vals), wts @ grads,
                np.einsum("k,kij->ij", wts, hesses))

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        npts, n = X.shape
        f, k = self.f, len(self.dirs)
        vals = np.empty(npts)
        grads = np.empty((npts, n))
        hesses = np.zeros((npts, n, n))
        # vectorized single-piece short circuit over the convolution box
        offsets = [np.zeros(n)]
        for w, r in zip(self.dirs, self.radii):
            offsets = [o + sgn * r * w for o in offsets for sgn in (1.0, -1.0)]
        piece_sum = np.zeros((npts, f.npieces))
        corner_vals = []
        for o in offsets:
            pv = f.piece_values(X + o)
            corner_vals.append(pv)
            piece_sum += pv
        i_dom = np.argmax(piece_sum, axis=1)
        rows = np.arange(npts)
        trivial = np.ones(npts, dtype=bool)
        for pv in corner_vals:
            trivial &= pv[rows, i_dom] >= pv.max(axis=1)
        if np.any(trivial):
            it = i_dom[trivial]
            vals[trivial] = f.piece_values(X[trivial])[np.arange(it.size), it]
            grads[trivial] = f.G[it]
        for i in np.nonzero(~trivial)[0]:
            vals[i], grads[i], hesses[i] = self._eval_level(X[i], k - 1)
        return vals, grads, hesses


def _kink_normals(f: PLConvex):
    from ._exact import primitivize
    seen = set()
    out = []
    for i in range(f.npieces):
        for j in range(i + 1, f.npieces):
            d = tuple(a - b for a, b in zip(f.pieces[i][0], f.pieces[j][0]))
            if all(c == 0 for c in d):
                continue
            nu, _ = primitivize(d)
            key = max(nu, tuple(-c for c in nu))
            if key not in seen:
                seen.add(key)
                out.append(np.array(key, dtype=float))
    return out


def _generic_direction(kinks, dim):
    """Small integer direction with nonzero pairing against every kink."""
    best = None
    for radius in range(1, 8):
        for cand in product(range(-radius, radius + 1), repeat=dim):
            if max(abs(c) for c in cand) != radius:
                continue
            w = np.array(cand, dtype=float)
            pairings = [abs(float(nu @ w)) for nu in kinks]
            if min(pairings) == 0:
                continue
            lam = max(pairings)
            if best is None or lam < best[0]:
                best = (lam, w)
        if best is not None:
            return best[1]
    raise SmoothingError("no direction transversal to all kinks found")


# ---------------------------------------------------------------------------
# the smoothing generator
# ---------------------------------------------------------------------------

class _ThickeningSupport:
    """Support region of Hess psi_eps: the closed thickening of W."""

    slabs = ()

    def __init__(self, decomp: Decomposition, eps: float):
        self.decomp = decomp
        self.eps = eps

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return thickening_membership(self.decomp, self.eps, x)[0]
        return np.array([thickening_membership(self.decomp, self.eps, xi)[0]
                         for xi in x])

    def __iter__(self):
        return iter(())

    def __len__(self):
        return 0


class _StrictTerm:
    """Ghomi-style strictly convexifying wall term (negative control).

    eta * B((xt_perp - c)/delta) * (xt_par - u0)^2 adds positive curvature
    along the wall while staying supported in the wall slab; the family
    keeps conditions a-d but the Hessian rank on the wall becomes full.
    """

    def __init__(self, frame: FaceFrame, delta: float, kernel: Kernel,
                 eta: float, u0: np.ndarray):
        if frame.n_parallel < 1:
            raise SmoothingError("strict variant needs a parallel direction")
        self.frame = frame
        self.delta = delta
        self.kernel = kernel
        self.eta = eta
        self.u0 = np.asarray(u0, dtype=float)

    def eval(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        npts, n = X.shape
        fr = self.frame
        xt = X @ fr.matrix_np.T
        npar = fr.n_parallel
        c = fr.offsets_np
        t = (xt[:, npar] - c[0]) / self.delta
        q = xt[:, :npar] - self.u0[None, :]
        q2 = np.sum(q ** 2, axis=1)
        b = self.kernel.density(t)
        b1 = self.kernel.density_d1(t)
        b2 = self.kernel.density_d2(t)
        val = self.eta * b * q2
        grad_t = np.zeros((npts, n))
        grad_t[:, :npar] = 2.0 * self.eta * b[:, None] * q
        grad_t[:, npar] = self.eta * b1 * q2 / self.delta
        hess_t = np.zeros((npts, n, n))
        for a in range(npar):
            hess_t[:, a, a] = 2.0 * self.eta * b
            hess_t[:, a, npar] = 2.0 * self.eta * b1 * q[:, a] / self.delta
            hess_t[:, npar, a] = hess_t[:, a, npar]
        hess_t[:, npar, npar] = self.eta * b2 * q2 / self.delta ** 2
        U = fr.matrix_np
        return val, grad_t @ U, np.einsum("ai,kab,bj->kij", U, hess_t, U)


class NiceSmoothingGenerator(Generator):
    """Smooth convex psi_eps equal to f off W_eps."""

    def __init__(self, f: PLConvex, P: Polytope, decomp: Decomposition,
                 eps: float, kernel_name: str, mollifier, strict_term=None):
        self.pl = f
        self.polytope = P
        self.decomp = decomp
        self.eps = float(eps)
        self.kernel_name = kernel_name
        self.mollifier = mollifier
        self.strict_term = strict_term
        self.dim = P.dim
        self.provenance = "pl-smooth" if strict_term is None else "pl-smooth-strict"
        self.support = _ThickeningSupport(decomp, self.eps)

    def _eval(self, X):
        X = np.asarray(X, dtype=float).reshape(-1, self.dim)
        vals, grads, hesses = self.mollifier.eval_many(X)
        if self.strict_term is not None:
            sv, sg, sh = self.strict_term.eval(X)
            vals = vals + sv
            grads = grads + sg
            hesses = hesses + sh
        return vals, grads, hesses

    def value(self, x):
        x = np.asarray(x, dtype=float)
        v, _, _ = self._eval(x)
        return v[0] if x.ndim == 1 else v.reshape(x.shape[:-1])

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        _, g, _ = self._eval(x)
        return g[0] if x.ndim == 1 else g.reshape(x.shape)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        _, _, h = self._eval(x)
        return h[0] if x.ndim == 1 else h.reshape(
            x.shape[:-1] + (self.dim, self.dim))


def build_nice_smoothing(f: PLConvex, P: Polytope, decomp: Decomposition,
                         eps: float, kernel: str = "smooth",
                         variant: str = "nice",
                         check_convexity: bool = True) -> NiceSmoothingGenerator:
    """Construct the smoothing psi_eps of f adapted to the decomposition.

    variant "nice" is the rank-adapted construction; "strict" (alias
    "global") adds a strictly convexifying term on the wall slab and is the
    negative control that keeps conditions a-d but breaks the exact-rank
    condition e.
    """
    eps = float(eps)
    if eps <= 0:
        raise SmoothingError("eps must be positive")
    if P.dim > 2:
        raise NotImplementedError("smoothings implemented for dim <= 2")
    kern = get_kernel(kernel)
    faces = sorted(decomp.faces, key=lambda F: F.codim)
    if not faces:
        raise SmoothingError("f is affine on P; nothing to smooth")
    for F in faces:
        if F.frame is None:
            raise SmoothingError(
                f"face {sorted(F.active)} has no lattice-adapted frame: "
                f"{F.frame_error}")

    # distinct faces without common closure points must not approach each
    # other closer than the mollification footprint
    hulls = [np.array([[float(c) for c in v] for v in F.vertices]) for F in faces]
    for i in range(len(faces)):
        for j in range(i + 1, len(faces)):
            if set(faces[i].vertices) & set(faces[j].vertices):
                continue
            dmin = min(np.linalg.norm(p - q)
                       for p in hulls[i] for q in hulls[j])
            if dmin < 4.0 * eps:
                raise SmoothingError(
                    f"eps={eps} too large: faces {sorted(faces[i].active)} and "
                    f"{sorted(faces[j].active)} are only {dmin:.3g} apart")

    kinks = _kink_normals(f)
    single_wall = len(faces) == 1 and faces[0].codim == 1
    if single_wall:
        fr = faces[0].frame
        w = fr.shift_vectors()[:, 0]
        lam = max([1.0] + [abs(float(nu @ w)) for nu in kinks])
        moll = LineMollifier(f, w, eps / lam, kern)
    else:
        ndirs = P.dim
        w1 = _generic_direction(kinks, P.dim)
        dirs = [w1]
        # complete with coordinate directions, most transversal first
        for cand in sorted(map(tuple, np.eye(P.dim)),
                           key=lambda e: -min(abs(float(nu @ np.array(e)))
                                              for nu in kinks)):
            cand = np.array(cand)
            if np.linalg.matrix_rank(np.vstack(dirs + [cand])) > len(dirs):
                dirs.append(cand)
            if len(dirs) == ndirs:
                break
        lams = [max([1.0] + [abs(float(nu @ w)) for nu in kinks]) for w in dirs]
        radii = [eps / (2.0 * ndirs * lam) for lam in lams]
        moll = IteratedMollifier(f, dirs, radii, kern)

    strict_term = None
    if variant in ("strict", "global"):
        if not single_wall:
            raise NotImplementedError(
                "strict negative-control variant shipped for single-wall "
                "decompositions only")
        F = faces[0]
        fr = F.frame
        if fr.n_parallel < 1:
            raise SmoothingError("strict variant needs a parallel direction")
        par = np.array([[float(c) for c in v] for v in F.vertices]) @ \
            fr.matrix_np.T[:, :fr.n_parallel]
        u0 = 0.5 * (par.min(axis=0) + par.max(axis=0))
        span = max(1.0, float(np.max(par.max(axis=0) - par.min(axis=0))))
        delta = moll.delta
        c_jump = max(abs(float((f.G[i] - f.G[j]) @ fr.shift_vectors()[:, 0]))
                     for i in range(f.npieces) for j in range(i + 1, f.npieces))
        eta = 0.02 * c_jump * kern.peak / delta / span ** 2
        for _ in range(40):
            term = _StrictTerm(fr, delta, kern, eta, u0)
            gen = NiceSmoothingGenerator(f, P, decomp, eps, kernel, moll,
                                         strict_term=term)
            if _convexity_probe(gen) >= -1e-10:
                strict_term = term
                break
            eta *= 0.5
        if strict_term is None:
            raise SmoothingError("could not tune a convex strict variant")
    elif variant != "nice":
        raise SmoothingError(f"unknown smoothing variant {variant!r}")

    gen = NiceSmoothingGenerator(f, P, decomp, eps, kernel, moll,
                                 strict_term=strict_term)
    if check_convexity:
        worst = _convexity_probe(gen)
        if worst < -1e-10:
            raise SmoothingError(
                f"convexity violated: min sampled eigenvalue {worst:.3e}")
    return gen


def default_check_samples(decomp: Decomposition, eps: float,
                          per_face: int = 7):
    """Deterministic sample battery concentrated on slabs plus bulk points."""
    P = decomp.polytope
    pts = []
    offs = np.array([0.0, 0.45, -0.45, 0.95, -0.95, 1.3, -1.3]) * eps
    for F in decomp.faces:
        if F.frame is None:
            continue
        fr = F.frame
        verts = np.array([[float(c) for c in v] for v in F.vertices])
        if len(verts) == 1:
            base = [verts[0]]
        else:
            lams = np.linspace(0.08, 0.92, per_face)
            base = [(1 - t) * verts[0] + t * verts[-1] for t in lams]
        shifts = fr.shift_vectors()
        for b in base:
            for col in range(fr.codim):
                for o in offs:
                    pts.append(b + o * shifts[:, col])
    lo, hi = P.bbox()
    if P.dim == 1:
        grid = np.linspace(lo[0], hi[0], 33)[:, None]
    else:
        g1 = np.linspace(lo[0], hi[0], 9)
        g2 = np.linspace(lo[1], hi[1], 9)
        grid = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
    pts.extend(grid)
    pts = np.array(pts)
    return pts[P.contains(pts, tol=-1e-9)]


def _convexity_probe(gen: NiceSmoothingGenerator) -> float:
    samples = default_check_samples(gen.decomp, gen.eps)
    H = gen.hessian(samples)
    eigs = np.linalg.eigvalsh(H)
    return float(eigs.min())


# ---------------------------------------------------------------------------
# family verification
# ---------------------------------------------------------------------------

def _rank(H, rank_tol=1e-8):
    eigs = np.linalg.eigvalsh(np.atleast_2d(H))
    floor = rank_tol * max(float(np.max(np.abs(eigs))), 1.0)
    return int(np.sum(eigs > floor))


@dataclass
class ConditionReport:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass
class NiceFamilyReport:
    conditions: dict
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = all(c.passed for c in self.conditions.values())

    def as_text(self) -> str:
        lines = [f"nice-family verification: {'PASS' if self.passed else 'FAIL'}"]
        for key in sorted(self.conditions):
            c = self.conditions[key]
            lines.append(f"  {key}) {c.name}: "
                         f"{'pass' if c.passed else 'FAIL'} "
                         f"(worst {c.worst:.3e}) {c.detail}")
        return "\n".join(lines)


def verify_nice_family(f: PLConvex, gens: dict, samples=None) -> NiceFamilyReport:
    """Check conditions (a)-(e) for a family {eps: generator}.

    a) sampled convexity; b) Lipschitz variation in eps; c) equality with f
    off W_eps; d) Hessian rank >= codim with positive-definite transverse
    block on each face; e) rank exactly codim at face points for the family
    members below each point's own eps threshold.
    """
    if len(gens) < 2:
        raise SmoothingError("need at least two eps values")
    eps_list = sorted(gens)
    decomp = gens[eps_list[0]].decomp
    P = decomp.polytope
    eps_max = max(eps_list)
    if samples is None:
        samples = default_check_samples(decomp, eps_max)
    conditions = {}

    worst_a = min(_convexity_probe(g) for g in gens.values())
    conditions["a"] = ConditionReport("smooth and convex", worst_a >= -1e-10,
                                      worst_a)

    lip = max(abs(float(c)) for g, _ in f.pieces for c in g) + 1.0
    worst_b = 0.0
    for e1, e2 in zip(eps_list[:-1], eps_list[1:]):
        dv = np.max(np.abs(gens[e1].value(samples) - gens[e2].value(samples)))
        bound = 2.0 * P.dim * lip * (e1 + e2) + 1e-12
        worst_b = max(worst_b, float(dv / bound))
    conditions["b"] = ConditionReport("smooth in eps (Lipschitz proxy)",
                                      worst_b <= 1.0, worst_b)

    worst_c = 0.0
    for e in eps_list:
        outside = np.array([p for p in samples
                            if not thickening_membership(decomp, e, p)[0]])
        if len(outside):
            dv = np.max(np.abs(gens[e].value(outside) - f.value(outside)))
            worst_c = max(worst_c, float(dv))
    conditions["c"] = ConditionReport("equals f off W_eps", worst_c <= 1e-12,
                                      worst_c)

    face_pts = _face_interior_points(decomp, eps_max)
    worst_d = np.inf
    ok_d = True
    for face, p, _ in face_pts:
        fr = face.frame
        for e in eps_list:
            H = gens[e].hessian(p)
            if _rank(H) < face.codim:
                ok_d = False
            Ht = fr.inverse_np.T @ H @ fr.inverse_np
            block = Ht[fr.n_parallel:, fr.n_parallel:]
            lam = float(np.linalg.eigvalsh(np.atleast_2d(block)).min())
            worst_d = min(worst_d, lam)
            if lam <= 0:
                ok_d = False
    conditions["d"] = ConditionReport(
        "rank >= codim, transverse block positive definite", ok_d,
        worst_d if np.isfinite(worst_d) else 0.0)

    ok_e = True
    checked = 0
    worst_e = 0
    for face, p, margin in face_pts:
        eps_p = margin / 7.0 if np.isfinite(margin) else np.inf
        usable = [e for e in eps_list if e < eps_p]
        if not usable:
            continue
        checked += 1
        for e in usable:
            r = _rank(gens[e].hessian(p))
            worst_e = max(worst_e, r - face.codim)
            if r != face.codim:
                ok_e = False
    if checked == 0:
        ok_e = False
    conditions["e"] = ConditionReport(
        f"rank exactly codim for small eps ({checked} points checked)",
        ok_e, float(worst_e))

    return NiceFamilyReport(conditions=conditions)


def _face_interior_points(decomp: Decomposition, eps_ref: float, per_face: int = 5):
    """(face, point, margin) with margin the distance to adjacent deeper faces."""
    out = []
    for face in decomp.faces:
        if face.frame is None:
            continue
        verts = np.array([[float(c) for c in v] for v in face.vertices])
        deeper_pts = []
        for other in decomp.faces:
            if other.codim > face.codim and set(other.vertices) & set(face.vertices):
                deeper_pts.extend([[float(c) for c in v] for v in other.vertices])
        deeper_pts = np.array(deeper_pts) if deeper_pts else None
        if len(verts) == 1:
            cands = [verts[0]]
        else:
            lams = np.linspace(0.1, 0.9, per_face)
            cands = [(1 - t) * verts[0] + t * verts[-1] for t in lams]
        for p in cands:
            if deeper_pts is None:
                margin = np.inf
            else:
                margin = float(np.min(np.abs(deeper_pts - p[None, :]).max(axis=1)))
                if margin < 1e-12:
                    continue
            out.append((face, p, margin))
    return out
