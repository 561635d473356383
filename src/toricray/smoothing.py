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

from ._exact import primitivize, rank_exact
from .columns import row_max, row_sum
from .generators import Generator, PLConvex
from .kernels import Kernel, get_kernel
from .polytope import FaceFrame, Polytope
from .quadrature import panel_nodes
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

# uniform K15 panels (``panel_nodes``) of the outer level
_OUTER_PANELS = 16
# rows per inner batch of the outer level; one batch holds
# _OUTER_CHUNK * _OUTER_PANELS * 15 = 3840 inner points, so the envelope's
# per-piece columns and the jets' bins stay a few hundred KB; 32 rows were
# at most a few percent faster on the corner family and took about 1.4 MB
# more peak memory
_OUTER_CHUNK = 16


def _footprint_corners(steps):
    """Corners sum_i +-radius_i * w_i of the footprint of the mollification
    steps (radius_i, w_i)."""
    corners = [np.zeros(len(steps[0][1]))]
    for r, w in steps:
        corners = [c + sgn * r * w for c in corners for sgn in (1.0, -1.0)]
    return corners


class LineMollifier:
    """Closed-form convolution of a PL convex f along one direction.

    value(x) = integral of theta_delta(y) f(x - y w) dy with theta the scaled
    kernel density of unit mass and radius delta.  Along the shift line piece
    i reads a_i(x) + s_i y with s_i = -<g_i, w>; the pieces on top of
    [-delta, delta] follow one another by increasing slope.  The jet is the
    top piece's at y = delta plus the sum over the breaks t = y_b / delta
    from a piece L to the next piece R on top, with dA = a_L - a_R,
    dS = s_L - s_R, dG = g_L - g_R and Theta, E, theta the kernel's cdf,
    first moment and density:

        value = a_top + sum_breaks dA Theta(t) + delta dS E(t)
        grad  = g_top + sum_breaks dG Theta(t)
        hess  = sum_breaks theta(t) / delta dG dG^T / <dG, w>

    One pass serves every row: a one-piece window has no break, so its jet
    is f's value and gradient bit for bit and a zero Hessian.  Two pieces
    cross once, at t = (a_R - a_L) / (s_L - s_R) / delta: a break where
    |t| < 1, else L on top for t >= 1 and R for t <= -1.
    """

    def __init__(self, f: PLConvex, w, delta: float, kernel: Kernel):
        self.f = f
        self.w = np.asarray(w, dtype=float)
        self.delta = float(delta)
        self.kernel = kernel
        self._corners = _footprint_corners([(self.delta, self.w)])
        self.slopes_w = -(f.G @ self.w)
        self._pair = f.npieces == 2 and self.slopes_w[0] != self.slopes_w[1]
        # pieces by increasing slope; equal slopes keep their index order
        self._by_slope = np.argsort(self.slopes_w, kind="stable")

    def eval_point(self, x):
        v, g, h = self.eval_many(np.asarray(x, dtype=float)[None])
        return v[0], g[0], h[0]

    def eval_many(self, X, order=2):
        """The top piece's jet plus the terms of each row's breaks: value,
        gradient and Hessian, None above ``order``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        (npts, n), G, s = X.shape, self.f.G, self.slopes_w
        a = self.f.piece_values(X)
        p = a.shape[1]
        rows, L, R, t, top = self._breaks(a)
        # gathers from the flat piece values, p a row
        dA, dS, dG = (a.take(rows * p + L) - a.take(rows * p + R),
                      s.take(L) - s.take(R),
                      G.take(L, axis=0) - G.take(R, axis=0))
        sums = _row_sums(rows, self._break_jet(dA, dS, dG, t, order), npts)
        # the Theta and E terms are added in turn, in the formula's order
        value = a.take(np.arange(0, npts * p, p) + top) + sums[0] + sums[1]
        # the Hessians copied out, so that no view keeps the sums alive: one
        # raised the peak memory of criterion 8 by about 1 MB
        return (value,
                G.take(top, axis=0) + sums[2:n + 2].T if order >= 1 else None,
                np.ascontiguousarray(sums[n + 2:].T).reshape(npts, n, n)
                if order >= 2 else None)

    def _break_jet(self, dA, dS, dG, t, order):
        """The value's Theta and E terms, then the gradient and the Hessian
        up to ``order``, that the breaks at t add to the top piece's jet:
        one row per term and entry, one column per break.  Each row is
        summed apart, so a lower order gets the same bits."""
        k, d, (nb, n) = self.kernel, self.delta, dG.shape
        jet = np.empty((2 + n * (order >= 1) + n * n * (order >= 2), nb))
        T = k.cdf(t)
        np.multiply(dA, T, out=jet[0])
        np.multiply(d * dS, k.first_moment(t), out=jet[1])
        if order >= 1:
            np.multiply(dG.T, T, out=jet[2:n + 2])
        if order >= 2:
            coef = k.density(t) / d / (dG @ self.w)
            hess = jet[n + 2:]
            # dG dG^T first, then times coef
            np.multiply(dG.T[:, None], dG.T[None], out=hess.reshape(n, n, nb))
            hess *= coef
        return jet

    def _breaks(self, a):
        """(rows, L, R, t, top) of the envelope of the piece values a on
        [-delta, delta]: each break's row, pieces and t, each row's top,
        the breaks by row, then by slope.

        With the pieces by increasing slope, piece i is on top of the
        window where lo_i < y < hi_i: lo_i the largest crossing with a
        piece of lower slope (or -delta), hi_i the least with one of higher
        slope (or delta).  Each unordered pair i < j of distinct slopes
        crosses once, at y = (a_j - a_i) / (s_i - s_j), which bounds hi_i
        and lo_j.  Of pieces with one slope only the highest is ever on
        top, the first one on a tie.  A break lies between each active
        piece and the next active one."""
        d, order = self.delta, self._by_slope
        if self._pair:
            # one crossing, at t: the pairwise loop below would cost two
            # pieces more than twice the time
            L, R = order
            t = (a[:, R] - a[:, L]) / (self.slopes_w[L] - self.slopes_w[R]) / d
            rows = np.nonzero(np.abs(t) < 1.0)[0]
            return (rows, np.full(rows.size, L), np.full(rows.size, R),
                    t[rows], np.where(t >= 1.0, L, R))
        p, n = order.size, len(a)
        s, cols = self.slopes_w[order], a.T[order]    # one column a piece
        lo, hi = np.full((p, n), -d), np.full((p, n), d)
        beaten = np.zeros((p, n), dtype=bool)
        for i in range(p):
            for j in range(i + 1, p):
                if s[i] == s[j]:
                    beaten[i] |= cols[i] < cols[j]
                    beaten[j] |= cols[j] <= cols[i]
                else:
                    y = (cols[j] - cols[i]) / (s[i] - s[j])
                    np.minimum(hi[i], y, out=hi[i])
                    np.maximum(lo[j], y, out=lo[j])
        active = (hi > lo) & ~beaten
        # the next active piece from each one on, p where there is none: a
        # loop over the pieces, faster here than an accumulate over them
        nxt = np.full((p + 1, n), p)
        for i in range(p - 1, -1, -1):
            nxt[i] = np.where(active[i], i, nxt[i + 1])
        # one break between each active piece and the next active one, by
        # row, then by slope: a row's terms are summed in this order
        rows, left = np.nonzero((active[:-1] & (nxt[1:-1] < p)).T)
        L, R = order[left], order[nxt[left + 1, rows]]
        # the last active piece, the last piece where none is
        top = p - 1 - np.argmax(active[::-1], axis=0)
        return (rows, L, R, (a[rows, R] - a[rows, L])
                / (self.slopes_w[L] - self.slopes_w[R]) / d, order[top])


def _row_sums(rows, terms, nrows):
    """Each row's sum of the terms of its breaks, ``terms`` one row per
    entry and one column per break, ``rows`` the row of each break: one
    bincount over the bins entry * nrows + row, each bin adding its terms
    in their order."""
    bins = (np.arange(0, len(terms) * nrows, nrows)[:, None] + rows).ravel()
    return np.bincount(bins, terms.ravel(), len(terms) * nrows).reshape(
        len(terms), nrows)


class IteratedMollifier:
    """Mollification along two directions; inner closed form, outer K15.

    The inner direction must be transversal to every kink normal of f:
    then the inner convolution is already C-infinity and differentiating the
    outer integral under the integral sign is legitimate.
    """

    def __init__(self, f: PLConvex, dirs, radii, kernel: Kernel):
        if len(dirs) != 2:
            raise ValueError("iterated mollification takes exactly two "
                             f"directions, got {len(dirs)}")
        self.f = f
        self.steps = [(float(r), np.asarray(w, dtype=float))
                      for w, r in zip(dirs, radii)]
        self._corners = _footprint_corners(self.steps)
        (r1, w1), (r2, w2) = self.steps
        self.inner = LineMollifier(f, w1, r1, kernel)
        edges = np.linspace(-r2, r2, _OUTER_PANELS + 1)
        ys, wts = (a.ravel() for a in panel_nodes(edges[:-1], edges[1:]))
        self._outer = (w2, ys, wts * (kernel.density(ys / r2) / r2))

    def eval_point(self, x):
        v, g, h = self.eval_many(np.asarray(x, dtype=float)[None])
        return v[0], g[0], h[0]

    def eval_many(self, X, order=2):
        """The full jet at every order: trimming the outer contraction to
        ``order`` would change its shapes, and so the bits of the orders
        kept."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        f, (npts, n) = self.f, X.shape
        jet = np.zeros((npts, 1 + n + n * n))  # value, gradient, Hessian
        # where one piece of f is on top at every footprint corner X + c,
        # the mollification is that piece: no inner evaluation
        corner_vals = [f.piece_values(X + c) for c in self._corners]
        i_dom = np.argmax(sum(corner_vals[1:], corner_vals[0]), axis=1)
        one = np.logical_and.reduce([pv[np.arange(npts), i_dom]
                                     >= row_max(pv) for pv in corner_vals])
        it = i_dom[one]
        jet[one, 0] = f.piece_values(X[one])[np.arange(it.size), it]
        jet[one, 1:n + 1] = f.G[it]
        rest = np.nonzero(~one)[0]
        w, ys, wts = self._outer
        for start in range(0, rest.size, _OUTER_CHUNK):
            idx = rest[start:start + _OUTER_CHUNK]
            pts = X[idx, None, :] - ys[None, :, None] * w[None, None, :]
            v, g, h = self.inner.eval_many(pts.reshape(-1, n))
            # one contraction of the stacked jets with the outer weights
            jets = np.concatenate((v[:, None], g, h.reshape(-1, n * n)), axis=1)
            jet[idx] = wts @ jets.reshape(idx.size, ys.size, -1)
        return jet[:, 0], jet[:, 1:n + 1], jet[:, n + 1:].reshape(-1, n, n)


def _kink_normals(f: PLConvex):
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

class _StrictTerm:
    """Ghomi-style strictly convexifying wall term (negative control).

    eta * B((xt_perp - c)/delta) * (xt_par - u0)^2 adds positive curvature
    along the wall while staying supported in the wall slab; the family
    keeps conditions a-d but the Hessian rank on the wall becomes full.
    """

    def __init__(self, frame: FaceFrame, delta: float, kernel: Kernel,
                 eta: float, u0: np.ndarray):
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
        q2 = row_sum(q ** 2)
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
        return val, grad_t @ U, U.T @ hess_t @ U


class NiceSmoothingGenerator(Generator):
    """Smooth convex psi_eps equal to f off W_eps.

    ``build_nice_smoothing`` sets ``checks``, the check samples
    (``default_check_samples``) and the jet ``jet(samples, 2)`` there,
    evaluated once, which ``verify_nice_family`` reads, and
    ``convexity``, the least eigenvalue of its Hessians."""

    def __init__(self, P: Polytope, decomp: Decomposition, eps: float,
                 mollifier, strict_term=None):
        self.polytope = P
        self.decomp = decomp
        self.eps = float(eps)
        self.mollifier = mollifier
        self.strict_term = strict_term
        self.dim = P.dim

    def _jet(self, X, order):
        jet = self.mollifier.eval_many(X, order)
        if self.strict_term is not None:
            jet = [a if a is None else a + b
                   for a, b in zip(jet, self.strict_term.eval(X))]
        return tuple(None if k > order else a for k, a in enumerate(jet))

    @cached_property
    def support(self) -> tuple:
        """Slabs of Hess psi_eps: the mollifier's footprint across each
        wall, the set of sums of t_i * radius_i * w_i, |t_i| <= 1, over the
        mollification steps (radius_i, w_i).  Across a wall {row . x = c}
        its corners (``_footprint_corners``) sit at the offsets row . corner,
        and each absolute value h > 0 among them gives the slab (row, c - h,
        c + h).  Hess psi_eps vanishes off the widest slab of every wall.
        Away from the vertices of W, psi_eps loses smoothness only at the
        slab ends, so they are the breakpoints of its quadrature.  Built on
        first use: tuning loops build generators that never need it."""
        slabs = {}
        for F in self.decomp.faces_of_codim(1):
            row, = F.frame.matrix[F.frame.n_parallel:]
            c, = F.frame.offsets_np
            corners = {abs(float(np.dot(row, corner)))
                       for corner in self.mollifier._corners}
            for h in sorted(corners - {0.0}, reverse=True):
                slabs[row, c, h] = (np.array(row, dtype=float),
                                    float(c - h), float(c + h))
        return tuple(slabs.values())


def build_nice_smoothing(f: PLConvex, P: Polytope, decomp: Decomposition,
                         eps: float, kernel: str = "smooth",
                         variant: str = "nice") -> NiceSmoothingGenerator:
    """Construct the smoothing psi_eps of f adapted to the decomposition.

    variant "nice" is the rank-adapted construction; "strict" adds a
    strictly convexifying term on the wall slab and is the negative control
    that keeps conditions a-d but breaks the exact-rank condition e.  The
    mollifier's jet on the check samples is evaluated once and kept, with
    the samples, as the result's ``checks``, and the least eigenvalue of
    its Hessians, the result's ``convexity``, must be >= -1e-10.  The
    strict term's eta is halved against that jet's Hessians and one
    strict-term jet on the same samples, and the least eigenvalue of the
    halving that passes is the strict result's ``convexity``.
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
    hulls = [F.vertices_np for F in faces]
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
            rows = np.vstack(dirs + [cand]).astype(int).tolist()
            if rank_exact(rows) > len(dirs):
                dirs.append(cand)
            if len(dirs) == ndirs:
                break
        lams = [max([1.0] + [abs(float(nu @ w)) for nu in kinks]) for w in dirs]
        radii = [eps / (2.0 * ndirs * lam) for lam in lams]
        # one direction (a 1-D f with several kinks) is a line mollification
        moll = (LineMollifier(f, dirs[0], radii[0], kern) if ndirs == 1
                else IteratedMollifier(f, dirs, radii, kern))

    samples = default_check_samples(decomp, eps)
    jet = moll.eval_many(samples)
    strict_term = None
    if variant == "strict":
        if not single_wall:
            raise NotImplementedError(
                "strict negative-control variant shipped for single-wall "
                "decompositions only")
        F = faces[0]
        fr = F.frame
        if fr.n_parallel < 1:
            raise SmoothingError("strict variant needs a parallel direction")
        par = F.vertices_np @ fr.matrix_np.T[:, :fr.n_parallel]
        u0 = 0.5 * (par.min(axis=0) + par.max(axis=0))
        span = max(1.0, float(np.max(par.max(axis=0) - par.min(axis=0))))
        delta = moll.delta
        c_jump = max(abs(float((f.G[i] - f.G[j]) @ fr.shift_vectors()[:, 0]))
                     for i in range(f.npieces) for j in range(i + 1, f.npieces))
        eta = 0.02 * c_jump * kern.peak / delta / span ** 2
        # the term is linear in eta, so halving eta k times scales its jet
        # by 0.5**k, bit for bit above the subnormal range: one term jet
        # serves every k
        term = _StrictTerm(fr, delta, kern, eta, u0).eval(samples)
        for k in range(40):
            least = float(np.linalg.eigvalsh(jet[2] + term[2]
                                             * 0.5 ** k).min())
            if least >= _CONVEXITY_ALLOWANCE:
                strict_term = _StrictTerm(fr, delta, kern, eta * 0.5 ** k, u0)
                jet = tuple(a + b * 0.5 ** k for a, b in zip(jet, term))
                break
        if strict_term is None:
            raise SmoothingError("could not tune a convex strict variant")
    elif variant == "nice":
        least = float(np.linalg.eigvalsh(jet[2]).min())
    else:
        raise SmoothingError(f"unknown smoothing variant {variant!r}")

    gen = NiceSmoothingGenerator(P, decomp, eps, moll, strict_term=strict_term)
    # a strict build's passing halving decomposed the very Hessians of
    # ``checks``, as a nice build does here
    gen.checks, gen.convexity = (samples, jet), least
    if gen.convexity < _CONVEXITY_ALLOWANCE:
        raise SmoothingError(
            f"convexity violated: min sampled eigenvalue {gen.convexity:.3e}")
    return gen


_CHECK_INSET = 1e-9  # how far inside P every check sample lies
# the least sampled Hessian eigenvalue of a convex smoothing: a mollified
# Hessian carries its outer quadrature's error, a few 1e-12 on the corner
_CONVEXITY_ALLOWANCE = -1e-10
# added to condition b's Lipschitz bound 2 n L (eps1 + eps2)
_LIPSCHITZ_SLACK = 1e-12
# the most |psi_eps - f| may be off W_eps (condition c)
_OFF_WALL_BOUND = 1e-12
# face points closer than this to a deeper face are not checked
_MIN_FACE_MARGIN = 1e-12


def default_check_samples(decomp: Decomposition, eps: float):
    """Deterministic sample battery concentrated on slabs plus bulk points:
    seven points along each face with a vertex pair, each shifted across
    the face by seven multiples of eps."""
    P = decomp.polytope
    pts = []
    offs = np.array([0.0, 0.45, -0.45, 0.95, -0.95, 1.3, -1.3]) * eps
    lams = np.linspace(0.08, 0.92, 7)[:, None]
    for F in decomp.faces:
        if F.frame is None:
            continue
        verts = F.vertices_np
        base = verts[:1] if len(verts) == 1 else \
            (1 - lams) * verts[0] + lams * verts[-1]
        # by base point, then shift column, then offset
        steps = offs[:, None] * F.frame.shift_vectors().T[:, None]
        pts.append((base[:, None, None] + steps).reshape(-1, P.dim))
    lo, hi = P.bbox()
    if P.dim == 1:
        grid = np.linspace(lo[0], hi[0], 33)[:, None]
    else:
        g1 = np.linspace(lo[0], hi[0], 9)
        g2 = np.linspace(lo[1], hi[1], 9)
        grid = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
    pts = np.concatenate(pts + [grid])
    return pts[P.contains(pts, tol=-_CHECK_INSET)]


# ---------------------------------------------------------------------------
# family verification
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    name: str
    passed: bool
    worst: float


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
                         f"(worst {c.worst:.3e})")
        return "\n".join(lines)


def verify_nice_family(f: PLConvex, gens: dict) -> NiceFamilyReport:
    """Check conditions (a)-(e) for a family {eps: generator}.

    a) sampled convexity, each generator's cached ``convexity``; b)
    Lipschitz variation in eps; c) equality with f off W_eps; d) Hessian
    rank >= codim with positive-definite transverse block on each face; e)
    rank exactly codim at face points for the family members below each
    point's own eps threshold.  b) and c) read values on the eps_max
    member's check samples, d) and e) Hessians at the face points: that
    member's ``checks`` hold its jet on the samples, so it is evaluated at
    the face points alone, and each other member once on the samples
    stacked with the face points.
    """
    if len(gens) < 2:
        raise SmoothingError("need at least two eps values")
    eps_list = sorted(gens)
    top = gens[eps_list[-1]]
    decomp = top.decomp
    P = decomp.polytope
    samples, (top_values, _, _) = top.checks
    face_pts = _face_interior_points(decomp)
    Xf = np.array([p for _, p, _ in face_pts]).reshape(-1, P.dim)
    ns = len(samples)
    jets = [gens[e].jet(np.vstack([samples, Xf]), 2) for e in eps_list[:-1]]
    values = [v[:ns] for v, _, _ in jets] + [top_values]
    # each face point's Hessians, one per eps, and their eigenvalues
    H = np.stack([h[ns:] for _, _, h in jets] + [top.hessian(Xf)], axis=1)
    eigs = np.linalg.eigvalsh(H)
    floor = 1e-8 * np.maximum(row_max(np.abs(eigs)), 1.0)
    ranks = row_sum(eigs > floor[..., None])
    conditions = {}

    worst_a = min(g.convexity for g in gens.values())
    conditions["a"] = ConditionReport(
        "smooth and convex", worst_a >= _CONVEXITY_ALLOWANCE, worst_a)

    lip = max(abs(float(c)) for g, _ in f.pieces for c in g) + 1.0
    worst_b = 0.0
    for e1, e2, v1, v2 in zip(eps_list[:-1], eps_list[1:], values[:-1],
                              values[1:]):
        dv = np.max(np.abs(v1 - v2))
        bound = 2.0 * P.dim * lip * (e1 + e2) + _LIPSCHITZ_SLACK
        worst_b = max(worst_b, float(dv / bound))
    conditions["b"] = ConditionReport("smooth in eps (Lipschitz proxy)",
                                      worst_b <= 1.0, worst_b)

    worst_c = 0.0
    for e, v in zip(eps_list, values):
        outside = ~thickening_mask(decomp, e, samples)
        if np.any(outside):
            dv = np.max(np.abs(v[outside] - f.value(samples[outside])))
            worst_c = max(worst_c, float(dv))
    conditions["c"] = ConditionReport("equals f off W_eps",
                                      worst_c <= _OFF_WALL_BOUND, worst_c)

    worst_d = np.inf
    ok_d = True
    for (face, _, _), Hk, rk in zip(face_pts, H, ranks):
        fr = face.frame
        Ht = fr.inverse_np.T @ Hk @ fr.inverse_np
        lam = np.linalg.eigvalsh(Ht[:, fr.n_parallel:, fr.n_parallel:])
        worst_d = min(worst_d, float(lam.min()))
        ok_d &= bool(np.all(rk >= face.codim) and not np.any(lam <= 0))
    conditions["d"] = ConditionReport(
        "rank >= codim, transverse block positive definite", ok_d,
        worst_d if np.isfinite(worst_d) else 0.0)

    ok_e = True
    checked = 0
    worst_e = 0
    for (face, _, margin), rk in zip(face_pts, ranks):
        usable = rk[np.array(eps_list) < margin / 7.0]
        if usable.size:
            checked += 1
            worst_e = max(worst_e, int(usable.max()) - face.codim)
            ok_e &= bool(np.all(usable == face.codim))
    if checked == 0:
        ok_e = False
    conditions["e"] = ConditionReport(
        f"rank exactly codim for small eps ({checked} points checked)",
        ok_e, float(worst_e))

    return NiceFamilyReport(conditions=conditions)


def _face_interior_points(decomp: Decomposition):
    """(face, point, margin) at five points along each face with a vertex
    pair, margin the distance to adjacent deeper faces."""
    out = []
    for face in decomp.faces:
        if face.frame is None:
            continue
        verts = face.vertices_np
        deeper_pts = []
        for other in decomp.faces:
            if other.codim > face.codim and set(other.vertices) & set(face.vertices):
                deeper_pts.extend(other.vertices_np)
        deeper_pts = np.array(deeper_pts) if deeper_pts else None
        if len(verts) == 1:
            cands = [verts[0]]
        else:
            lams = np.linspace(0.1, 0.9, 5)
            cands = [(1 - t) * verts[0] + t * verts[-1] for t in lams]
        for p in cands:
            if deeper_pts is None:
                margin = np.inf
            else:
                margin = float(np.min(np.abs(deeper_pts - p[None, :]).max(axis=1)))
                if margin < _MIN_FACE_MARGIN:
                    continue
            out.append((face, p, margin))
    return out
