"""Adaptive quadrature engines.

1-D: adaptive Gauss-Legendre (GL15) panels refined by level-by-level
bisection, seeded at structurally special points (facets, support
endpoints, the density's maximiser) so that sharply peaked integrands are
bracketed before refinement starts.  Panels live in flat arrays, and each
level measures all of its new panels with one call of the integrand: a
panel's error is the difference between its GL15 value and the sum of the
GL15 values of its two halves, and a split panel's halves become its
children's coarse values.  Each round splits every panel whose error
exceeds max(rel_tol * |total| / n_panels, 1e-18 * |total| + abs_floor) and
which is at least 1e-15 wide; refinement stops once the summed error is at
most rel_tol * |total| + abs_floor.  Each split adds one panel, so a round
splits at most the remaining ``max_panels`` budget, largest errors first,
and the panel count never exceeds the budget.

2-D: adaptive triangle meshes over convex polygons.  Each leaf stores both a
one-level and a four-child rule value; their difference drives refinement
and the fine value is the leaf's contribution.  Meshes are reusable: after
refining against a driver function (the density), any number of secondary
integrands (battery members) are integrated on the same nodes, which keeps
pairings mutually consistent and deterministic.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "adaptive_panels", "integrate_on_panels", "panel_nodes", "integrate_1d",
    "log_integral_1d", "TriangleMesh", "polygon_mesh", "QuadratureError",
]


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


def adaptive_panels(f, a: float, b: float, *, rel_tol: float = 1e-10,
                    seeds=(), max_panels: int = 20000,
                    abs_floor: float = 1e-300):
    """Refine [a, b] into GL15 panels by level-by-level bisection.

    ``f`` maps a 1-D array of points to values and is called once per
    level.  ``seeds`` are interior split points inserted before adaptivity
    starts.  A panel's error is |GL15 on it - GL15 on its two halves|, its
    value the sum over the halves.  Each round splits every panel whose
    error exceeds max(rel_tol * |total| / n_panels, 1e-18 * |total| +
    abs_floor) and which is at least 1e-15 wide, until the summed error is
    at most rel_tol * |total| + abs_floor.  A round splits at most
    max_panels - n_panels panels, largest errors first, so the panel count
    never exceeds ``max_panels``; when the budget runs out with the error
    above 100 * rel_tol * |total| + abs_floor, QuadratureError is raised.

    Returns (value, panels) where panels is the list of (lo, hi) intervals
    at convergence, sorted by lo.
    """
    if not b > a:
        raise QuadratureError(f"empty interval [{a}, {b}]")
    cuts = np.array(sorted({float(a), float(b),
                            *(float(s) for s in seeds if a < float(s) < b)}))
    lo, hi = cuts[:-1], cuts[1:]
    mid = 0.5 * (lo + hi)
    coarse, left, right = np.split(
        _gl15(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi])),
        3)
    fine = left + right
    err = np.abs(fine - coarse)
    while True:
        total = math.fsum(fine)
        err_total = math.fsum(err)
        if err_total <= rel_tol * abs(total) + abs_floor:
            break
        floor = max(rel_tol * abs(total) / len(lo),
                    1e-18 * abs(total) + abs_floor)
        split = np.flatnonzero((err > floor) & (hi - lo >= 1e-15))
        room = max(max_panels - len(lo), 0)
        if split.size > room:
            split = split[np.argsort(-err[split], kind="stable")[:room]]
        if split.size == 0:
            if room == 0 and \
                    err_total > 100.0 * rel_tol * abs(total) + abs_floor:
                raise QuadratureError(
                    f"interval refinement exhausted {max_panels} panels with "
                    f"relative error {err_total / max(abs(total), 1e-300):.2e} "
                    f"(tolerance {rel_tol})")
            break
        # the halves of a split panel are its children, and their GL15
        # values the children's coarse values: one call measures the level
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        c_lo = np.concatenate([lo[split], mid])
        c_hi = np.concatenate([mid, hi[split]])
        c_mid = 0.5 * (c_lo + c_hi)
        c_left, c_right = np.split(
            _gl15(f, np.concatenate([c_lo, c_mid]),
                  np.concatenate([c_mid, c_hi])), 2)
        c_fine = c_left + c_right
        c_err = np.abs(c_fine - np.concatenate([left[split], right[split]]))
        lo = np.concatenate([lo[keep], c_lo])
        hi = np.concatenate([hi[keep], c_hi])
        left = np.concatenate([left[keep], c_left])
        right = np.concatenate([right[keep], c_right])
        fine = np.concatenate([fine[keep], c_fine])
        err = np.concatenate([err[keep], c_err])
    order = np.argsort(lo, kind="stable")
    return total, list(zip(lo[order].tolist(), hi[order].tolist()))


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
# 2-D: adaptive triangle meshes
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


def _diameters_batch(tris):
    """(B, 3, 2) -> (B,) longest edge lengths.

    Each edge length is the square root of its dot product with itself,
    which gives the same floats as ``np.linalg.norm`` of that edge.
    """
    edges = tris - tris[:, [1, 2, 0]]
    sq = (edges[..., None, :] @ edges[..., :, None])[..., 0, 0]
    return np.sqrt(sq).max(axis=1)


def _zoom_pass(work, predicate, target, budget):
    """One zoom pre-split at a fixed target, or None if it exceeds budget.

    Splits, level by level, every triangle whose diameter exceeds target
    and for which the predicate holds.  Each split adds three leaves, so
    the leaf count only grows and the pass stops at the first level past
    the budget.  Leaves come back in the order of a depth-first walk that
    pops the last root and the last child first: descending in (root
    index, child digits).
    """
    front = work
    keys = np.arange(len(work))[:, None]  # root index, then child digits
    count = len(work)
    leaves, leaf_keys = [], []
    while len(front):
        split = _diameters_batch(front) > target
        big = np.flatnonzero(split)
        if big.size:
            split[big] = predicate(front[big])
        n_split = int(np.count_nonzero(split))
        count += 3 * n_split
        if count > budget:
            return None
        leaves.append(front[~split])
        leaf_keys.append(keys[~split])
        front = _split4_batch(front[split])
        keys = np.hstack([np.repeat(keys[split], 4, axis=0),
                          np.tile(np.arange(4), n_split)[:, None]])
    # no leaf path is a prefix of another, so zero padding never decides
    depth = leaf_keys[-1].shape[1]
    keys = np.vstack([np.pad(k, ((0, 0), (0, depth - k.shape[1])))
                      for k in leaf_keys])
    order = np.lexsort(keys.T[::-1])[::-1]
    return np.concatenate(leaves)[order]


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
        self.tris = None        # (L, 3, 2)
        self.fine_nodes = None  # (L, 28, 2)
        self.fine_vals = None   # (L, 28)
        self.fine_weights = None  # (L, 28)
        self.values = None      # (L,)
        self.errs = None        # (L,)

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

    def refine(self, f, *, rel_tol=1e-6, max_leaves=30000,
               presplit_depth=0, zoom=None):
        """Adapt the mesh to the driver f (values at (k, 2) arrays).

        ``zoom`` is an optional (predicate, target_size) pair: triangles for
        which the predicate holds are pre-split until their diameter drops
        below target_size, which points the mesh at an analytically known
        concentration set before error-driven refinement starts.  The
        predicate takes a (B, 3, 2) batch of triangles, all of diameter
        above the current target, and returns a bool (B,) array; it is
        called once per split level.  While the pre-split would end with
        more than max(n + 16, max_leaves // 3) leaves, n the leaves before
        it, the target is doubled and the pre-split redone.  Pre-split
        leaves are ordered as a depth-first walk of a stack that pops the
        last root and the last child first.

        Each error-driven round splits at most (max_leaves - L) // 3 of the
        L leaves, largest errors first, so refinement never takes the mesh
        past max_leaves.

        Records ``presplit_leaves`` (leaves entering refinement) and
        ``rounds`` (error-driven refinement rounds) on the mesh.
        """
        work = self._initial
        for _ in range(presplit_depth):
            work = _split4_batch(work)
        if zoom is not None:
            predicate, target = zoom
            budget = max(len(work) + 16, max_leaves // 3)
            while True:
                zoomed = _zoom_pass(work, predicate, target, budget)
                if zoomed is not None:
                    break
                target *= 2.0
            work = zoomed
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
        self.tris = tris
        self.fine_nodes = nodes
        self.fine_vals = vals
        self.fine_weights = weights
        self.values = fine
        self.errs = errs
        self.value = total
        self.err_estimate = err_total
        return self.value

    @property
    def leaves(self):
        return self.tris

    # -- reuse ---------------------------------------------------------------

    def nodes(self) -> np.ndarray:
        return self.fine_nodes.reshape(-1, 2)

    def node_weights(self) -> np.ndarray:
        return self.fine_weights.ravel()

    def driver_values(self) -> np.ndarray:
        return self.fine_vals.ravel()

    def integrate_values(self, values: np.ndarray) -> float:
        return float(self.node_weights() @ values)

    def integrate(self, g) -> float:
        return self.integrate_values(np.asarray(g(self.nodes()), dtype=float))

    def pair_against_driver(self, g) -> float:
        """Integral of driver * g on the refined mesh."""
        vals = np.asarray(g(self.nodes()), dtype=float)
        return float(self.node_weights() @ (self.driver_values() * vals))


def polygon_mesh(vertices) -> TriangleMesh:
    return TriangleMesh(np.asarray(vertices, dtype=float))
