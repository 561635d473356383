"""Test-configuration combinatorics of a rational PL convex function on P.

The non-differentiability locus W of f = max_i a_i stratifies into faces
indexed by maximal active sets; the closures of the activity regions give
the sub-polytope decomposition P = union P_j.  Both, and the vertices of the
polytope Q, are read off one table: the vertices of the epigraph of f over
P in dimension n + 1.  Each face carries (when the normal directions are
lattice-adapted) a unimodular frame in which it lies in a coordinate slab,
which is what the epsilon-thickening W_eps and the nice smoothings are
built from.  All geometry here is exact rational; floating point enters
only through membership tests and volumes-by-float conveniences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Optional

import numpy as np

from ._exact import (SaturationError, dot, frac, primitivize, rank_exact,
                     row_reduce)
from .columns import row_all
from .generators import PLConvex
from .polytope import (MEMBERSHIP_TOL, FaceFrame, Polytope, PolytopeError,
                       face_frame, vertices_of_system)

__all__ = [
    "Face", "Decomposition", "QPolytope", "nondiff_locus", "decompose",
    "thickening_membership", "thickening_mask", "build_Q",
    "central_fiber_report", "CentralFiberReport", "DecompositionError",
]


class DecompositionError(ValueError):
    pass


@dataclass
class Face:
    """A relatively open stratum of W: the locus where exactly the pieces in
    ``active`` achieve the maximum, together with codimension data."""
    active: frozenset
    codim: int
    normals: tuple              # primitive integer normal directions (j of them)
    offsets: tuple              # rational c_F with the face in {<nu_k, x> = c_k}
    vertices: tuple             # rational vertices of the closed face
    frame: Optional[FaceFrame]
    frame_error: Optional[str] = None
    _shadow: Optional[tuple] = field(default=None, repr=False)

    @cached_property
    def vertices_np(self) -> np.ndarray:
        """The vertices as floats (k, n), converted once."""
        return np.array([[float(c) for c in p] for p in self.vertices])

    def barycenter(self) -> np.ndarray:
        return self.vertices_np.mean(axis=0)

    def contains_parallel(self, x_par) -> np.ndarray:
        """Whether each row of a (k, n_parallel) batch lies in the face's
        activity shadow, up to ``MEMBERSHIP_TOL``."""
        x_par = np.asarray(x_par, dtype=float)
        inside = np.ones(x_par.shape[:-1], dtype=bool)
        for coef, rhs in self._shadow or ():
            inside &= x_par @ coef >= rhs - MEMBERSHIP_TOL
        return inside

    def in_slab(self, x, eps: float) -> np.ndarray:
        """Membership of each row of a (k, n) batch in the open transverse
        box over the face's shadow."""
        x = np.asarray(x, dtype=float)
        if self.frame is None:
            return np.zeros(x.shape[:-1], dtype=bool)
        npar = self.frame.n_parallel
        xt = self.frame.to_frame(x)
        inside = row_all(np.abs(xt[..., npar:] - self.frame.offsets_np) < eps)
        return inside & self.contains_parallel(xt[..., :npar])


def _vertex_table(f: PLConvex, P: Polytope):
    """The vertices x of the subdivision of P by f, sorted, as (x, the facets
    of P tight at x, the pieces active at x, f(x)): the vertices of the
    epigraph {x in P, y >= a_i(x)}, rows (v_j, 0) >= lambda_j and
    (-g_i, 1) >= b_i, from one enumeration."""
    m = len(P.normals)
    found = vertices_of_system(
        [*((*v, 0) for v in P.normals), *((*(-c for c in g), 1)
                                          for g, _ in f.pieces)],
        [*P.offsets, *(b for _, b in f.pieces)], P.dim + 1)
    return [(xy[:-1], frozenset(j for j in tight if j < m),
             frozenset(j - m for j in tight if j >= m), xy[-1])
            for xy, tight in found]


def _affine_dim(points) -> int:
    """Dimension of the affine hull of the points; -1 when there are none."""
    return rank_exact([[a - b for a, b in zip(p, points[0])]
                       for p in points[1:]]) if points else -1


def _spans(points, d) -> bool:
    """Whether distinct points that lie in a flat of dimension d span it:
    fewer than d + 1 cannot, d + 1 or more do when d <= 1, and only the
    others take a rank test."""
    return len(points) > d and (d <= 1 or _affine_dim(points) == d)


def _face_for_subset(f: PLConvex, P: Polytope, subset, table):
    pieces = [f.pieces[i] for i in subset]
    g0, b0 = pieces[0]
    diffs = [tuple(gi - g0i for gi, g0i in zip(g, g0)) for g, _ in pieces[1:]]
    rhs = [b0 - b for _, b in pieces[1:]]
    # the first independent difference rows: the pivot columns of diffs^T
    indep = row_reduce(list(zip(*diffs))).pivots
    j = len(indep)
    if j == 0:
        return None

    # the closed face is the table vertices where the whole subset is active
    found = [(x, active) for x, _, active, _ in table if active >= set(subset)]
    verts = [x for x, _ in found]
    if not _spans(verts, P.dim - j):
        return None
    # maximality: no other piece is active at every vertex, so none is
    # active at the barycenter
    if frozenset.intersection(*(active for _, active in found)) != set(subset):
        return None

    # the pieces outside the subset stay below: <g0 - gk, x> >= bk - b0
    others = [(tuple(g0i - gki for g0i, gki in zip(g0, gk)), bk - b0)
              for k, (gk, bk) in enumerate(f.pieces) if k not in subset]
    prims = [primitivize(diffs[k]) for k in indep]
    prim_normals = [nu for nu, _ in prims]
    offsets = [scale * rhs[k] for k, (_, scale) in zip(indep, prims)]
    frame = None
    err = None
    try:
        frame = face_frame(P, prim_normals, offsets)
    except (SaturationError, PolytopeError) as exc:
        err = str(exc)

    face = Face(active=frozenset(subset), codim=j,
                normals=tuple(prim_normals), offsets=tuple(offsets),
                vertices=tuple(verts), frame=frame, frame_error=err)
    if frame is not None:
        # slab shadow: the activity constraints bounding the face; the
        # polytope's own facets only truncate through the final cap with P,
        # so boundary slivers beyond a chord's endpoint on a transversal
        # facet still count as thickening (f is affine there anyway).
        shadow = []
        Winv = frame.inverse  # exact integer columns
        npar = frame.n_parallel
        c = frame.offsets
        for w, lam in others:
            coef_full = [sum(w[i] * Winv[i][col] for i in range(P.dim))
                         for col in range(P.dim)]
            coef_par = coef_full[:npar]
            rhs = lam - sum(coef_full[npar + t] * c[t] for t in range(j))
            if all(cc == 0 for cc in coef_par):
                continue
            shadow.append((np.array([float(cc) for cc in coef_par]), float(rhs)))
        face._shadow = tuple(shadow)
    return face


def _faces(f: PLConvex, P: Polytope, table):
    faces = []
    for size in range(2, f.npieces + 1):
        for subset in combinations(range(f.npieces), size):
            face = _face_for_subset(f, P, subset, table)
            if face is not None:
                faces.append(face)
    faces.sort(key=lambda F: (F.codim, sorted(F.active)))
    return faces


def nondiff_locus(f: PLConvex, P: Polytope):
    """All faces of the non-differentiability locus of f inside P.

    Faces are keyed by maximal active sets; each carries its codimension,
    primitive normal directions, exact vertices, and (when lattice-adapted)
    a unimodular frame.
    """
    return _faces(f, P, _vertex_table(f, P))


@dataclass
class Decomposition:
    pl: PLConvex
    polytope: Polytope
    subpolytopes: list          # list of (piece index, Polytope)
    faces: list                 # list of Face

    def faces_of_codim(self, j: int):
        return [F for F in self.faces if F.codim == j]

    def volumes_exact(self):
        return [Q.volume_exact() for _, Q in self.subpolytopes]

    def volume_defect(self) -> Fraction:
        return self.polytope.volume_exact() - sum(self.volumes_exact())

    def activity_consistency_exact(self) -> bool:
        """f at every vertex of every region equals its piece's affine value."""
        for i, Q in self.subpolytopes:
            g, b = self.pl.pieces[i]
            for v in Q.vertices:
                if self.pl.value_exact(v) != dot(g, v) + b:
                    return False
        return True


def decompose(f: PLConvex, P: Polytope) -> Decomposition:
    """Sub-polytope decomposition of P by the activity regions of f: P_i,
    the table vertices where piece i (the first of equal pieces) is active,
    when they span dimension n, cut out by the rows of P and the kink rows
    a_i >= a_k tight on vertices of P_i spanning dimension n - 1.  A row of
    P_i is tight at a vertex x where its facet of P is tight or its piece k
    is active at x, so P_i is built from the table with no enumeration."""
    if f.dim != P.dim:
        raise DecompositionError(f"the PL pieces are {f.dim}-dimensional "
                                 f"but the polytope is {P.dim}-dimensional")
    table = _vertex_table(f, P)
    n = P.dim
    subs = []
    for i, (g, b) in enumerate(f.pieces):
        region = [(x, tight, active) for x, tight, active, _ in table
                  if i in active]
        if (f.pieces.index((g, b)) != i
                or not _spans([x for x, _, _ in region], n)):
            continue
        # each distinct row's index, and the row of each facet j of P and
        # of each kink with a piece k that bounds P_i
        rows, facet, kink = {}, {}, {}
        for j, row in enumerate(zip(P.normals, P.offsets)):
            if _spans([x for x, t, _ in region if j in t], n - 1):
                facet[j] = rows.setdefault(row, len(rows))
        for k, (gk, bk) in enumerate(f.pieces):
            # a piece of P_i's gradient is active on all of P_i or nowhere
            if gk != g and _spans([x for x, _, a in region if k in a], n - 1):
                nu, scale = primitivize([gi - gki for gi, gki in zip(g, gk)])
                kink[k] = rows.setdefault((nu, (bk - b) * scale), len(rows))
        incidence = tuple(frozenset([*(facet[j] for j in tight if j in facet),
                                     *(kink[k] for k in active if k in kink)])
                          for _, tight, active in region)
        subs.append((i, Polytope._region(
            n, *map(tuple, zip(*rows)), tuple(x for x, _, _ in region),
            incidence)))
    return Decomposition(pl=f, polytope=P, subpolytopes=subs,
                         faces=_faces(f, P, table))


def thickening_membership(decomp: Decomposition, eps: float, x):
    """(inside W_eps, attributed face) with minimal-dimension attribution.

    The thickening is the union over faces of (activity shadow of F) x
    (open transverse eps-box in the face frame), capped with P; when several
    slabs contain x the face of maximal codimension (minimal dimension) wins.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(decomp.polytope.contains(x, tol=MEMBERSHIP_TOL)):
        return False, None
    for face in sorted(decomp.faces, key=lambda F: -F.codim):
        if face.in_slab(x[None], eps)[0]:
            return True, face
    return False, None


def thickening_mask(decomp: Decomposition, eps: float, X) -> np.ndarray:
    """Membership in W_eps of each row of X (k, n): a bool (k,) array equal
    row by row to ``thickening_membership(decomp, eps, x)[0]``, with one
    batched slab test per face."""
    X = np.asarray(X, dtype=float)
    inside = np.zeros(X.shape[:-1], dtype=bool)
    for face in decomp.faces:
        inside |= face.in_slab(X, eps)
    return inside & decomp.polytope.contains(X, tol=MEMBERSHIP_TOL)


@dataclass
class QPolytope:
    """(n+1)-dimensional test-configuration polytope over (P, f, K)."""
    base: Polytope
    pl: PLConvex
    K: Fraction
    vertices: tuple
    integral: bool


def build_Q(f: PLConvex, P: Polytope, K) -> QPolytope:
    """The exact vertices of {x in P, 0 <= y <= K - f(x)}: (v, 0) for each
    vertex v of P and (x, K - f(x)) for each vertex x of the subdivision."""
    K = frac(K)
    fmax = f.max_over(P)
    if K < fmax:
        raise ValueError(f"ceiling K={K} is below max f = {fmax}")
    table = _vertex_table(f, P)
    if all(fx == K for *_, fx in table):
        raise PolytopeError("polytope is not full-dimensional")
    verts = tuple(sorted({*((*v, Fraction(0)) for v in P.vertices),
                          *((*x, K - fx) for x, *_, fx in table)}))
    integral = all(all(c.denominator == 1 for c in v) for v in verts)
    return QPolytope(base=P, pl=f, K=K, vertices=verts, integral=integral)


@dataclass
class CentralFiberReport:
    pieces: list      # (piece index, region Polytope, lifted vertices, label)
    q: QPolytope

    def as_text(self) -> str:
        lines = [f"central fiber: {len(self.pieces)} ceiling piece(s), "
                 f"Q integral: {self.q.integral}"]
        for i, region, lifted, label in self.pieces:
            vs = ", ".join("(" + ", ".join(str(c) for c in v) + ")"
                           for v in lifted)
            lines.append(f"  piece {i}: {label}; lifted vertices {vs}")
        return "\n".join(lines)


def central_fiber_report(decomp: Decomposition, q: QPolytope) -> CentralFiberReport:
    """Ceiling pieces {(x, K - a_i(x)) : x in P_i}, one per sub-polytope.

    Each piece is tagged with the ray-limit region it corresponds to: the
    sub-polytope itself keeps its initial complex structure, while the
    seams between pieces are the mixed-polarization faces of W.
    """
    entries = []
    for i, region in decomp.subpolytopes:
        g, b = decomp.pl.pieces[i]
        lifted = []
        for v in region.vertices:
            height = q.K - (dot(g, v) + b)
            lifted.append(tuple(list(v) + [height]))
        label = (f"uniform component over P_{i} "
                 f"(holomorphic structure retained off W_eps)")
        entries.append((i, region, tuple(lifted), label))
    return CentralFiberReport(pieces=entries, q=q)
