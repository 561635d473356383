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
from functools import cached_property
from itertools import product

import numpy as np

from .generators import Generator, PLConvex, SupportSlabs
from .kernels import Kernel, get_kernel
from .polytope import FaceFrame, Polytope
from .quadrature import GL15_NODES, GL15_WEIGHTS
from .testconfig import Decomposition, thickening_mask

__all__ = [
    "build_nice_smoothing", "verify_nice_family", "NiceSmoothingGenerator",
    "NiceFamilyReport", "SmoothingError", "default_check_samples",
]


class SmoothingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Directional mollification of a PL convex function (closed form)
# ---------------------------------------------------------------------------

# rows per inner batch of the outer Gauss-Legendre level; one batch holds
# _OUTER_CHUNK * panels * 15 inner points
_OUTER_CHUNK = 64


class LineMollifier:
    """Closed-form convolution of a PL convex f along one direction.

    value(x) = integral of theta_delta(y) f(x - y w) dy with theta the scaled
    kernel density of unit mass and radius delta.  Along the shift line piece
    i reads a_i(x) + s_i y with s_i = -<g_i, w>; it is on top on the interval
    [lo_i, hi_i] that its crossings with the other pieces cut out of
    [-delta, delta].  Equality with f on single-piece windows, affine
    gradients, and the rank-one Hessian jumps are exact consequences:

        value = sum_i a_i(x) dTheta_i + s_i delta dE_i
        grad  = sum_i g_i dTheta_i
        hess  = sum_breaks theta(y_b) (g_L - g_R)(g_L - g_R)^T / <g_L - g_R, w>
    """

    def __init__(self, f: PLConvex, w, delta: float, kernel: Kernel):
        self.f = f
        self.w = np.asarray(w, dtype=float)
        self.delta = float(delta)
        self.kernel = kernel
        self.slopes_w = -(f.G @ self.w)
        self._pair = f.npieces == 2 and self.slopes_w[0] != self.slopes_w[1]
        # pieces by increasing slope; equal slopes keep their index order
        self._by_slope = np.argsort(self.slopes_w, kind="stable")

    def eval_point(self, x):
        v, g, h = self.eval_many(np.asarray(x, dtype=float)[None])
        return v[0], g[0], h[0]

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
            jet = self._pair_closed_form if self._pair else self._envelope
            vals[rest], grads[rest], hesses[rest] = jet(X[rest])
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

    def _envelope(self, X):
        """The closed form for any number of pieces, one array pass."""
        f, d, k = self.f, self.delta, self.kernel
        order = self._by_slope
        p = order.size
        s, G = self.slopes_w[order], f.G[order]
        a = f.piece_values(X)[:, order]
        ds = s[:, None] - s[None, :]                  # s_i - s_j
        da = a[:, None, :] - a[:, :, None]            # a_j - a_i
        with np.errstate(divide="ignore", invalid="ignore"):
            y = da / ds                               # where i and j cross
        lo = np.maximum(-d, np.where(ds > 0, y, -np.inf).max(axis=2))
        hi = np.minimum(d, np.where(ds < 0, y, np.inf).min(axis=2))
        # of pieces with one slope only the highest is ever on top, the
        # first one on a tie
        same = (ds == 0) & ~np.eye(p, dtype=bool)
        first = np.tri(p, k=-1, dtype=bool)           # j before i
        beaten = (same & ((da > 0) | ((da == 0) & first))).any(axis=2)
        active = (hi > lo) & ~beaten

        T = k.cdf(np.stack((hi, lo)) / d)
        E = k.first_moment(np.stack((hi, lo)) / d)
        dT = np.where(active, T[0] - T[1], 0.0)
        dE = np.where(active, E[0] - E[1], 0.0)
        vals = np.sum(a * dT + s * d * dE, axis=1)
        grads = dT @ G

        # one break between each active piece and the next active one
        idx = np.where(active, np.arange(p), p)
        nxt = np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1][:, 1:]
        brk = active[:, :-1] & (nxt < p)
        right = np.minimum(nxt, p - 1)
        yb = np.take_along_axis(y[:, :-1, :], right[..., None], axis=2)[..., 0]
        dg = G[:-1][None] - G[right]
        with np.errstate(divide="ignore", invalid="ignore"):
            coef = k.density(np.where(brk, yb, d) / d) / d / (dg @ self.w)
        coef = np.where(brk, coef, 0.0)
        hesses = np.einsum("ku,kui,kuj->kij", coef, dg, dg)
        return vals, grads, hesses


class IteratedMollifier:
    """Mollification along one or two directions; inner closed form, outer GL.

    The innermost direction must be transversal to every kink normal of f:
    then the inner convolution is already C-infinity and differentiating the
    outer integral under the integral sign is legitimate.
    """

    def __init__(self, f: PLConvex, dirs, radii, kernel: Kernel, panels: int = 16):
        if len(dirs) > 2:
            raise ValueError("iterated mollification takes at most two "
                             f"directions, got {len(dirs)}")
        self.f = f
        self.dirs = [np.asarray(w, dtype=float) for w in dirs]
        self.radii = [float(r) for r in radii]
        self.kernel = kernel
        self.inner = LineMollifier(f, self.dirs[0], self.radii[0], kernel)
        self.panels = panels
        self._outer = None
        if len(self.dirs) == 2:
            w, r = self.dirs[1], self.radii[1]
            edges = np.linspace(-r, r, self.panels + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])
            half = 0.5 * (edges[1:] - edges[:-1])
            ys = (mid[:, None] + half[:, None] * GL15_NODES[None, :]).ravel()
            wts = (half[:, None] * GL15_WEIGHTS[None, :]).ravel()
            theta = kernel.density(ys / r) / r
            self._outer = (w, ys, wts * theta)

    def eval_point(self, x):
        v, g, h = self.eval_many(np.asarray(x, dtype=float)[None])
        return v[0], g[0], h[0]

    def eval_many(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        npts, n = X.shape
        f = self.f
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
        rest = np.nonzero(~trivial)[0]
        if self._outer is None:
            vals[rest], grads[rest], hesses[rest] = self.inner.eval_many(X[rest])
            return vals, grads, hesses
        w, ys, wts = self._outer
        for start in range(0, rest.size, _OUTER_CHUNK):
            idx = rest[start:start + _OUTER_CHUNK]
            pts = X[idx, None, :] - ys[None, :, None] * w[None, None, :]
            v, g, h = self.inner.eval_many(pts.reshape(-1, n))
            # one contraction of the stacked jets with the outer weights
            jets = np.concatenate((v[:, None], g, h.reshape(-1, n * n)), axis=1)
            out = wts @ jets.reshape(idx.size, ys.size, -1)
            vals[idx] = out[:, 0]
            grads[idx] = out[:, 1:n + 1]
            hesses[idx] = out[:, n + 1:].reshape(-1, n, n)
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

class _ThickeningSupport(SupportSlabs):
    """Support region of Hess psi_eps: the closed thickening of W.

    Its slabs are the footprint of the mollifier across each wall.  The
    footprint is the set of sums of t_i * radius_i * w_i, |t_i| <= 1, over
    the mollification steps (radius_i, w_i).  Across a wall {row . x = c}
    its corners sit at the offsets sum_i +-radius_i * (row . w_i), and each
    absolute value h > 0 among them gives the slab (row, c - h, c + h).
    Hess psi_eps vanishes off the widest slab of every wall.  The slab ends
    are the lines where a footprint corner crosses a wall; away from the
    vertices of W, psi_eps loses smoothness only there, so they are the
    breakpoints of its quadrature.  ``contains`` is W_eps itself.
    """

    def __init__(self, decomp: Decomposition, eps: float, steps):
        self.decomp = decomp
        self.eps = eps
        self._steps = steps

    @cached_property
    def slabs(self):
        # on first use: tuning loops build generators that never need them
        slabs = {}
        for F in self.decomp.faces_of_codim(1):
            row, = F.frame.matrix[F.frame.n_parallel:]
            c, = F.frame.offsets_np
            reach = [r * float(np.dot(w, row)) for r, w in self._steps]
            corners = {abs(sum(t * x for t, x in zip(signs, reach)))
                       for signs in product((1, -1), repeat=len(reach))}
            for h in sorted(corners - {0.0}, reverse=True):
                slabs[row, c, h] = (np.array(row, dtype=float),
                                    float(c - h), float(c + h))
        return list(slabs.values())

    def contains(self, x):
        inside = thickening_mask(self.decomp, self.eps, x)
        return bool(inside) if inside.ndim == 0 else inside


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
        steps = ([(mollifier.delta, mollifier.w)]
                 if isinstance(mollifier, LineMollifier)
                 else list(zip(mollifier.radii, mollifier.dirs)))
        self.support = _ThickeningSupport(decomp, self.eps, steps)

    def jet(self, x, order):
        x = np.asarray(x, dtype=float)
        X = x.reshape(-1, self.dim)
        jet = self.mollifier.eval_many(X)
        if self.strict_term is not None:
            jet = [a + b for a, b in zip(jet, self.strict_term.eval(X))]
        return tuple(None if k > order else a[0] if x.ndim == 1
                     else a.reshape(x.shape[:-1] + a.shape[1:])
                     for k, a in enumerate(jet))


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
    samples = np.asarray(samples, dtype=float)
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
        outside = samples[~thickening_mask(decomp, e, samples)]
        if len(outside):
            dv = np.max(np.abs(gens[e].value(outside) - f.value(outside)))
            worst_c = max(worst_c, float(dv))
    conditions["c"] = ConditionReport("equals f off W_eps", worst_c <= 1e-12,
                                      worst_c)

    face_pts = _face_interior_points(decomp, eps_max)
    # one batched Hessian per eps on all face points, shared by d) and e)
    X_face = np.array([p for _, p, _ in face_pts]).reshape(-1, P.dim)
    hess = {e: gens[e].hessian(X_face) for e in eps_list}
    worst_d = np.inf
    ok_d = True
    for k, (face, _, _) in enumerate(face_pts):
        fr = face.frame
        for e in eps_list:
            H = hess[e][k]
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
    for k, (face, _, margin) in enumerate(face_pts):
        eps_p = margin / 7.0 if np.isfinite(margin) else np.inf
        usable = [e for e in eps_list if e < eps_p]
        if not usable:
            continue
        checked += 1
        for e in usable:
            r = _rank(hess[e][k])
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
