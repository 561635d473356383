"""Adaptive quadrature engines.

Panels: adaptive Gauss-Legendre (GL15) panels refined by level-by-level
bisection, for many independent integrals ("groups") at once.  Panels live
in flat arrays, and each level measures the new panels of every group with
one call of the integrand: a panel's error is the difference between its
GL15 value and the sum of the GL15 values of its two halves, and a split
panel's halves become its children's coarse values.  A group's scale is the
GL15 integral of |f| (or of magnitudes the integrand supplies), which is
|total| for a one-signed integrand and stays positive where the total
cancels to zero.  Each round splits, in every group whose summed error
exceeds rel_tol * scale + abs_floor, each panel whose error exceeds
max(rel_tol * scale / n_panels, 1e-18 * scale + abs_floor) and which is at
least 1e-15 wide.  Each split adds one panel, so a round splits at most the
group's remaining budget of ``max_panels`` (``MAX_PANELS`` by default),
largest errors first, and no group exceeds its budget.  A single group sums
with math.fsum, several with one bincount.  The engine returns the nodes,
weights and integrand values of both GL15 halves of every final panel, the
rule its totals are summed with, so callers reuse them instead of
evaluating the integrand again.  ``adaptive_panels`` is the one-group form.

Polytopes: ``integrate_polytope`` cuts the panels at exact breakpoints: the
facets of P and the caller's hyperplanes (the ends of a generator's support
slabs).  Between them the integrand is smooth, so nothing is sampled to
find where it concentrates; a point (the integrand's peak) adds one cut per
variable.  In 2-D the integral is iterated.  The outer variable is x1, cut
at the peak's x1 and at the x1 of every pairwise intersection inside P of
the breakpoint lines; the inner integrals run over the chords [x2_lo(x1),
x2_hi(x1)] of P, each cut at the peak's x2 and where a breakpoint line
crosses it, and each outer level solves all of its chords in one grouped
call, whose integrals of |f| are the outer magnitudes.  The error estimate is the outer error
plus the outer-weighted sum of the chord errors.  Each integral has a
budget of ``MAX_PANELS`` panels.

TriangleMesh, an adaptive degree-5 triangle mesh over a convex polygon, is
an independent 2-D reference for the panels; each leaf stores a one-level
and a four-child rule value, whose difference drives refinement.  Nothing
in the package calls it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "adaptive_panels", "integrate_on_panels", "panel_nodes", "integrate_1d",
    "log_integral_1d", "refine_groups", "integrate_polytope", "Panels",
    "NodeSet", "TriangleMesh", "polygon_mesh", "QuadratureError",
    "MAX_PANELS",
]

# the panel budget of one integral
MAX_PANELS = 20000


class QuadratureError(RuntimeError):
    pass


# the 15-point Gauss-Legendre rule on [-1, 1], shared by the package
GL15_NODES, GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)


def panel_nodes(lo, hi):
    """GL15 nodes and weights, each (k, 15), of the panels [lo_i, hi_i]."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return (mid[:, None] + half[:, None] * GL15_NODES,
            half[:, None] * GL15_WEIGHTS)


def _gl15(f, lo, hi):
    """(k,) GL15 values of f on the panels [lo_i, hi_i], one call of f."""
    nodes, _ = panel_nodes(lo, hi)
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    return 0.5 * (hi - lo) * (vals @ GL15_WEIGHTS)


class Panels(NamedTuple):
    """Final panels of ``refine_groups``, in no particular order.

    ``nodes``, ``weights``, ``values`` and ``pos`` are (k, 30): GL15 on the
    left then the right half of each panel, and the index of each node
    among all the points the integrand was called on, in call order.
    ``total`` and ``err`` hold one entry per group.
    """
    lo: np.ndarray
    hi: np.ndarray
    group: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    pos: np.ndarray
    total: np.ndarray
    err: np.ndarray


def _cut(lo, hi, cuts):
    """Panels (a, b, group) of the intervals [lo_g, hi_g], each cut at the
    entries of its row of ``cuts`` that lie strictly inside it."""
    inside = (cuts > lo[:, None]) & (cuts < hi[:, None])
    cuts = np.sort(np.hstack([lo[:, None], np.where(inside, cuts, lo[:, None]),
                              hi[:, None]]), axis=1)
    a, b = cuts[:, :-1], cuts[:, 1:]
    keep = b > a
    return a[keep], b[keep], np.nonzero(keep)[0]


def refine_groups(f, lo, hi, group, n_groups: int, *, rel_tol: float = 1e-10,
                  max_panels: int = MAX_PANELS, abs_floor: float = 1e-300):
    """Refine the panels [lo_i, hi_i] of ``n_groups`` independent integrals.

    ``f(x, g)`` maps 1-D points and the group of each to values, or to a
    pair (values, magnitudes), and is called once per level.  Group g is
    refined until its summed error is at most rel_tol * scale_g + abs_floor,
    or it has nothing left to split within its budget of ``max_panels``
    panels.  scale_g is the integral of the magnitudes, |values| unless f
    gives them, so it stays positive where the integral of f cancels to
    zero.  Returns ``Panels``.
    """
    outs = []

    def measure(a, b, g, coarse):
        """Columns of the panels [a_i, b_i] from one call of f on their
        halves, and on the panels themselves where ``coarse`` is None: lo,
        hi, group, the GL15 values of the two halves, the GL15 value of the
        magnitudes on both, the error against the coarse value and the
        position of each half's first node among all the points f was
        called on."""
        mid = 0.5 * (a + b)
        ends = [(a, mid), (mid, b)] + ([(a, b)] if coarse is None else [])
        a_all, b_all = (np.concatenate(e) for e in zip(*ends))
        nodes, weights = panel_nodes(a_all, b_all)
        groups = np.concatenate([g] * len(ends)).astype(np.intp)
        vals = f(nodes.ravel(), groups.repeat(15))
        vals, mags = vals if isinstance(vals, tuple) else (vals, None)
        vals = np.asarray(vals, dtype=float)
        half = 0.5 * (b_all - a_all)
        sums = (half * (vals.reshape(-1, 15) @ GL15_WEIGHTS)).reshape(
            len(ends), -1)
        # a nonnegative f is its own magnitude
        if mags is not None or vals.min(initial=0.0) < 0.0:
            mags = np.abs(vals) if mags is None else np.asarray(mags, float)
            mags = (half * (mags.reshape(-1, 15) @ GL15_WEIGHTS)).reshape(
                len(ends), -1)
        else:
            mags = sums
        first = sum(o.shape[1] for o in outs) + 15 * np.arange(2 * len(a))
        outs.append(np.array([nodes.ravel(), weights.ravel(), vals]))
        coarse = sums[2] if coarse is None else coarse
        return np.array([a, b, g, sums[0], sums[1], mags[0] + mags[1],
                         np.abs(sums[0] + sums[1] - coarse),
                         first[:len(a)], first[len(a):]])

    cols = measure(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float),
                   np.asarray(group, dtype=float), None)
    while True:
        lo, hi, g, left, right, mass, err = cols[:7]
        g = g.astype(np.intp)
        sums = (left + right, err, mass)
        # the error a panel must exceed to be split: inf once its group has
        # converged.  One group sums exactly and tests on scalars.
        if n_groups == 1:
            total, err_total, scale = (math.fsum(v.tolist()) for v in sums)
            floor = max(rel_tol * scale / len(lo),
                        1e-18 * scale + abs_floor) \
                if err_total > rel_tol * scale + abs_floor else np.inf
            total, err_total = np.array([total]), np.array([err_total])
            n_panels = np.array([len(lo)])
        else:
            total, err_total, scale = (np.bincount(g, v, n_groups)
                                       for v in sums)
            n_panels = np.bincount(g, minlength=n_groups)
            floor = np.where(
                err_total > rel_tol * scale + abs_floor,
                np.maximum(rel_tol * scale / np.maximum(n_panels, 1),
                           1e-18 * scale + abs_floor), np.inf)[g]
        split = np.nonzero((err > floor) & (hi - lo >= 1e-15))[0]
        if split.size > max_panels - len(lo):
            # largest errors first, at most the room left in each group
            split = split[np.lexsort((-err[split], g[split]))]
            gs = g[split]
            split = split[np.arange(len(split)) - np.searchsorted(gs, gs)
                          < max_panels - n_panels[gs]]
        if split.size == 0:
            break
        # the halves of a split panel are its children, and their GL15
        # values the children's coarse values: one call measures the level
        mid = 0.5 * (lo[split] + hi[split])
        children = measure(np.concatenate([lo[split], mid]),
                           np.concatenate([mid, hi[split]]),
                           np.concatenate([g[split], g[split]]),
                           np.concatenate([left[split], right[split]]))
        # the left child takes its parent's place, the right one is appended
        cols[:, split] = children[:, :len(split)]
        cols = np.hstack([cols, children[:, len(split):]])
    pos = cols[7:, :, None].astype(np.intp) + np.arange(15)
    pos = np.concatenate([pos[0], pos[1]], axis=1)
    nodes, weights, values = np.concatenate(outs, axis=1)[:, pos]
    return Panels(lo, hi, g, nodes, weights, values, pos, total, err_total)


def adaptive_panels(f, a: float, b: float, *, rel_tol: float = 1e-10,
                    seeds=(), max_panels: int = MAX_PANELS,
                    abs_floor: float = 1e-300):
    """Refine [a, b] into GL15 panels: ``refine_groups`` with one group.

    ``f`` maps a 1-D array of points to values and is called once per
    level.  ``seeds`` are interior split points inserted before adaptivity
    starts.  When the budget runs out with the error above 100 * rel_tol *
    |total| + abs_floor, QuadratureError is raised.

    Returns (value, panels) where panels is the list of (lo, hi) intervals
    at convergence, sorted by lo.
    """
    if not b > a:
        raise QuadratureError(f"empty interval [{a}, {b}]")
    res = refine_groups(lambda x, g: f(x), *_cut(
        np.array([a], dtype=float), np.array([b], dtype=float),
        np.array(seeds, dtype=float).reshape(1, -1)), 1, rel_tol=rel_tol,
        max_panels=max_panels, abs_floor=abs_floor)
    total = float(res.total[0])
    if len(res.lo) >= max_panels and \
            res.err[0] > 100.0 * rel_tol * abs(total) + abs_floor:
        raise QuadratureError(
            f"interval refinement exhausted {max_panels} panels with "
            f"relative error {res.err[0] / max(abs(total), 1e-300):.2e} "
            f"(tolerance {rel_tol})")
    order = np.argsort(res.lo)
    return total, list(zip(res.lo[order].tolist(), res.hi[order].tolist()))


def integrate_on_panels(f, panels):
    """Sum of GL15 on the given (lo, hi) panels, with one call of f."""
    lo, hi = np.asarray(panels, dtype=float).reshape(-1, 2).T
    return math.fsum(_gl15(f, lo, hi))


def integrate_1d(f, a, b, *, rel_tol=1e-10, seeds=()):
    value, _ = adaptive_panels(f, a, b, rel_tol=rel_tol, seeds=seeds)
    return value


def log_integral_1d(log_f, a, b, *, rel_tol=1e-10, seeds=()):
    """log of integral of exp(log_f) over [a, b], max-factored for stability.

    The reference level is the largest finite log_f over a, b and the
    seeds.  The caller seeds a maximiser of log_f, so exp(log_f - ref) never
    overflows for peaked integrands; QuadratureError is raised when log_f is
    finite at none of these points.  Returns (log_value, panels, ref).
    """
    probe = np.array([a, b, *(s for s in seeds if a <= s <= b)], dtype=float)
    vals = np.asarray(log_f(probe), dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise QuadratureError("log integrand is finite at no endpoint or seed")
    ref = float(vals.max())

    def f(x):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(log_f(x), dtype=float) - ref)

    value, panels = adaptive_panels(f, a, b, rel_tol=rel_tol, seeds=seeds)
    if value <= 0:
        raise QuadratureError("integral underflowed to zero")
    return ref + math.log(value), panels, ref


# ---------------------------------------------------------------------------
# polytopes: (iterated) panels cut at exact breakpoints
# ---------------------------------------------------------------------------

class NodeSet(NamedTuple):
    """Final nodes of ``integrate_polytope``: points (N, n), rule weights
    and integrand values (N,), the integral, its error estimate and the
    final panel count."""
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    value: float
    err: float
    panels: int


def integrate_polytope(f, P, *, lines=(), point=None,
                       rel_tol: float = 1e-10) -> NodeSet:
    """Integral of f over the polytope P (dim 1 or 2) on GL15 panels.

    ``f`` maps points (k, n) to values.  The breakpoints are the facets of
    P and the hyperplanes {nu . x = c} given as (nu, c) pairs in ``lines``;
    between them f should be smooth.  Each panel is also cut at the
    coordinate of ``point`` (the integrand's peak) in its variable.  In 1-D
    this is one group of ``refine_groups``.  In 2-D the outer panels in x1
    are cut at the x1 of the pairwise intersections of breakpoint lines
    inside P, and every outer level refines all of its chords in x2 in one
    grouped call.  Each chord and the outer integral have a budget of
    ``MAX_PANELS`` panels; the caller judges the returned error estimate.
    """
    n = P.dim
    max_panels = MAX_PANELS
    # a nan peak cuts nothing
    peak = np.full(n, np.nan) if point is None else \
        np.asarray(point, dtype=float)
    lines = np.array([[*nu, c] for nu, c in [*zip(P.normals, P.offsets),
                                             *lines]], dtype=float)
    if n == 1:
        (lo,), (hi,) = P.bbox()
        res = refine_groups(lambda x, g: f(x[:, None]),
                            *_cut(np.array([lo]), np.array([hi]),
                                  np.append(lines[:, 1] / lines[:, 0],
                                            peak)[None]),
                            1, rel_tol=rel_tol, max_panels=max_panels)
        return NodeSet(res.nodes.reshape(-1, 1), res.weights.ravel(),
                       res.values.ravel(), float(res.total[0]),
                       float(res.err[0]), len(res.lo))
    if n != 2:
        raise NotImplementedError("polytope quadrature for dim <= 2")
    # outer cuts: x1 of the pairwise intersections of the lines inside P
    i, j = np.triu_indices(len(lines), 1)
    pairs = np.stack([lines[i], lines[j]], axis=1)
    pairs = pairs[np.abs(np.linalg.det(pairs[:, :, :2])) > 1e-12]
    x = np.linalg.solve(pairs[:, :, :2], pairs[:, :, 2:])[..., 0]
    (x1_lo, _), (x1_hi, _) = P.bbox()
    crossing = lines[np.abs(lines[:, 1]) > 1e-14]
    chords, chord_err = [], []

    def outer(x1, _):
        # the chords {x1_g} x [x2_lo, x2_hi], one group each, cut where the
        # breakpoint lines cross them
        lo, hi = P.chord(np.column_stack([x1, 0.0 * x1]), (0.0, 1.0))
        cuts = (crossing[:, 2] - np.outer(x1, crossing[:, 0])) / crossing[:, 1]
        cuts = np.column_stack([cuts, np.full(len(x1), peak[1])])
        res = refine_groups(lambda x2, g: f(np.column_stack([x1[g], x2])),
                            *_cut(lo, hi, cuts), len(x1), rel_tol=rel_tol,
                            max_panels=max_panels)
        chords.append((sum(map(len, chord_err)) + res.group, x1[res.group],
                       res.nodes, res.weights, res.values))
        chord_err.append(res.err)
        # the chord integrals of |f| scale the outer integral
        return res.total, np.bincount(
            res.group, np.abs(res.weights * res.values).sum(axis=1), len(x1))

    out = refine_groups(outer, *_cut(np.array([x1_lo]), np.array([x1_hi]),
                                     np.append(x[P.contains(x, tol=1e-9), 0],
                                               peak[0])[None]),
                        1, rel_tol=rel_tol, max_panels=max_panels)
    # the chords of the final outer nodes, each weighted by its outer weight
    outer_w = np.zeros(sum(map(len, chord_err)))
    outer_w[out.pos.ravel()] = out.weights.ravel()
    owner, x1, x2, weights, values = (np.concatenate(a) for a in zip(*chords))
    kept = outer_w[owner] > 0
    nodes = np.stack([np.broadcast_to(x1[kept][:, None], x2[kept].shape),
                      x2[kept]], axis=-1).reshape(-1, 2)
    weights = outer_w[owner[kept]][:, None] * weights[kept]
    return NodeSet(nodes, weights.ravel(), values[kept].ravel(),
                   float(out.total[0]),
                   float(out.err[0] + outer_w @ np.concatenate(chord_err)),
                   len(out.lo) + int(kept.sum()))


# ---------------------------------------------------------------------------
# the 2-D reference: adaptive triangle meshes
# ---------------------------------------------------------------------------

# Degree-5 seven-point symmetric rule (barycentric points, weights sum to 1).
_T_A = 0.4701420641051151
_T_B = 0.1012865073234563
_T_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_T_A, _T_A, 1 - 2 * _T_A],
    [_T_A, 1 - 2 * _T_A, _T_A],
    [1 - 2 * _T_A, _T_A, _T_A],
    [_T_B, _T_B, 1 - 2 * _T_B],
    [_T_B, 1 - 2 * _T_B, _T_B],
    [1 - 2 * _T_B, _T_B, _T_B],
])
_T_W = np.array([0.225,
                 0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
                 0.1259391805448271, 0.1259391805448271, 0.1259391805448271])


def _split4_batch(tris):
    """(B, 3, 2) -> (4B, 3, 2) children in blocks of four per parent."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    m01 = 0.5 * (a + b)
    m12 = 0.5 * (b + c)
    m20 = 0.5 * (c + a)
    out = np.empty((len(tris), 4, 3, 2))
    out[:, 0] = np.stack([a, m01, m20], axis=1)
    out[:, 1] = np.stack([m01, b, m12], axis=1)
    out[:, 2] = np.stack([m20, m12, c], axis=1)
    out[:, 3] = np.stack([m01, m12, m20], axis=1)
    return out.reshape(-1, 3, 2)


def _areas_batch(tris):
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


class TriangleMesh:
    """Adaptive triangle mesh over a convex polygon, reusable for pairings.

    Each leaf stores a coarse (degree-5, 7-point) value and the four-child
    fine value; their difference is the refinement indicator and the fine
    value the contribution.  Refinement proceeds in batches so the driver
    is always evaluated on large arrays.
    """

    def __init__(self, polygon_vertices: np.ndarray):
        self.polygon = np.asarray(polygon_vertices, dtype=float)
        center = self.polygon.mean(axis=0)
        order = np.argsort(np.arctan2(self.polygon[:, 1] - center[1],
                                      self.polygon[:, 0] - center[0]))
        ring = self.polygon[order]
        fan = np.stack([np.broadcast_to(center, ring.shape), ring,
                        np.roll(ring, -1, axis=0)], axis=1)
        self._initial = fan[_areas_batch(fan) > 0]

    def _measure(self, tris, f):
        """Coarse/fine rule data for a batch of triangles."""
        B = len(tris)
        children = _split4_batch(tris)              # (4B, 3, 2)
        child_nodes = np.einsum("rb,tbj->trj", _T_BARY, children)  # (4B,7,2)
        child_areas = _areas_batch(children)
        vals = np.asarray(f(child_nodes.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(4 * B, 7)
        child_int = child_areas * (vals @ _T_W)
        fine = child_int.reshape(B, 4).sum(axis=1)
        coarse_nodes = np.einsum("rb,tbj->trj", _T_BARY, tris)
        cvals = np.asarray(f(coarse_nodes.reshape(-1, 2)), dtype=float)
        cvals = cvals.reshape(B, 7)
        coarse = _areas_batch(tris) * (cvals @ _T_W)
        fine_nodes = child_nodes.reshape(B, 28, 2)
        fine_vals = vals.reshape(B, 28)
        fine_weights = np.repeat(child_areas.reshape(B, 4), 7, axis=1) * \
            np.tile(_T_W, 4)[None, :]
        return fine_nodes, fine_vals, fine_weights, fine, np.abs(fine - coarse)

    def refine(self, f, *, rel_tol=1e-6, max_leaves=30000, presplit_depth=0):
        """Adapt the mesh to the driver f (values at (k, 2) arrays).

        The fan is split ``presplit_depth`` times before refinement.  Each
        error-driven round splits at most (max_leaves - L) // 3 of the
        L leaves, largest errors first, so refinement never takes the mesh
        past max_leaves.

        Records ``presplit_leaves`` (leaves entering refinement) and
        ``rounds`` (error-driven refinement rounds) on the mesh.
        """
        work = self._initial
        for _ in range(presplit_depth):
            work = _split4_batch(work)
        self.presplit_leaves = len(work)
        self.rounds = 0

        nodes, vals, weights, fine, errs = self._measure(work, f)
        tris = work
        total = float(fine.sum())
        err_total = float(errs.sum())
        while err_total > rel_tol * abs(total) + 1e-300:
            # each split adds three leaves: never split past the budget
            k = min(max(16, len(tris) // 8), (max_leaves - len(tris)) // 3)
            if k <= 0:
                break
            order = np.argsort(errs)
            hot = order[-k:]
            hot = hot[errs[hot] > (rel_tol * abs(total)) / max(len(tris), 1)]
            if len(hot) == 0:
                break
            cold = np.setdiff1d(order, hot, assume_unique=True)
            children = _split4_batch(tris[hot])
            cn, cv, cw, cf, ce = self._measure(children, f)
            tris = np.concatenate([tris[cold], children])
            nodes = np.concatenate([nodes[cold], cn])
            vals = np.concatenate([vals[cold], cv])
            weights = np.concatenate([weights[cold], cw])
            fine = np.concatenate([fine[cold], cf])
            errs = np.concatenate([errs[cold], ce])
            total = float(fine.sum())
            err_total = float(errs.sum())
            self.rounds += 1
        self.tris = tris                            # (L, 3, 2)
        self.fine_nodes = nodes.reshape(-1, 2)      # (28 L, 2)
        self.fine_vals = vals.ravel()               # (28 L,)
        self.fine_weights = weights.ravel()         # (28 L,)
        self.value = total
        self.err_estimate = err_total
        return self.value

    # -- reuse ---------------------------------------------------------------

    def integrate_values(self, values: np.ndarray) -> float:
        return float(self.fine_weights @ values)

    def integrate(self, g) -> float:
        return self.integrate_values(
            np.asarray(g(self.fine_nodes), dtype=float))

    def pair_against_driver(self, g) -> float:
        """Integral of driver * g on the refined mesh."""
        return self.integrate(lambda X: self.fine_vals * g(X))


def polygon_mesh(vertices) -> TriangleMesh:
    return TriangleMesh(np.asarray(vertices, dtype=float))
