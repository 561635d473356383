"""Test-configuration combinatorics of a rational PL convex function on P.

The non-differentiability locus W of f = max_i a_i stratifies into faces
indexed by maximal active sets; the closures of the activity regions give
the sub-polytope decomposition P = union P_j.  Each face carries (when the
normal directions are lattice-adapted) a unimodular frame in which it lies
in a coordinate slab, which is what the epsilon-thickening W_eps and the
nice smoothings are built from.  All geometry here is exact rational;
floating point enters only through membership tests and volumes-by-float
conveniences.
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
from .generators import PLConvex
from .polytope import (MEMBERSHIP_TOL, FaceFrame, Polytope, PolytopeError,
                       face_frame, make_polytope, vertices_of_system)

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
        inside = np.all(np.abs(xt[..., npar:] - self.frame.offsets_np) < eps,
                        axis=-1)
        return inside & self.contains_parallel(xt[..., :npar])


def _face_for_subset(f: PLConvex, P: Polytope, subset):
    pieces = [f.pieces[i] for i in subset]
    g0, b0 = pieces[0]
    diffs = [tuple(gi - g0i for gi, g0i in zip(g, g0)) for g, _ in pieces[1:]]
    rhs = [b0 - b for _, b in pieces[1:]]
    # the first independent difference rows: the pivot columns of diffs^T
    indep = row_reduce(list(zip(*diffs))).pivots
    j = len(indep)
    if j == 0:
        return None

    # the pieces outside the subset stay below: <g0 - gk, x> >= bk - b0
    others = [(tuple(g0i - gki for g0i, gki in zip(g0, gk)), bk - b0)
              for k, (gk, bk) in enumerate(f.pieces) if k not in subset]
    m = len(P.normals)
    found = vertices_of_system([*P.normals, *(w for w, _ in others)],
                               [*P.offsets, *(lam for _, lam in others)],
                               P.dim, list(zip(diffs, rhs)))
    verts = [x for x, _ in found]
    if not verts or rank_exact([[v[i] - verts[0][i] for i in range(P.dim)]
                                for v in verts[1:]]) != P.dim - j:
        return None
    # maximality: no other piece is tight at every vertex, so none is
    # active at the barycenter
    if any(k >= m for k in frozenset.intersection(*(t for _, t in found))):
        return None

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


def nondiff_locus(f: PLConvex, P: Polytope):
    """All faces of the non-differentiability locus of f inside P.

    Faces are keyed by maximal active sets; each carries its codimension,
    primitive normal directions, exact vertices, and (when lattice-adapted)
    a unimodular frame.
    """
    faces = []
    for size in range(2, f.npieces + 1):
        for subset in combinations(range(f.npieces), size):
            face = _face_for_subset(f, P, subset)
            if face is not None:
                faces.append(face)
    faces.sort(key=lambda F: (F.codim, sorted(F.active)))
    return faces


@dataclass
class Decomposition:
    pl: PLConvex
    polytope: Polytope
    subpolytopes: list          # list of (piece index, Polytope)
    faces: list                 # list of Face
    delzant_flags: dict

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
    """Sub-polytope decomposition of P by the activity regions of f."""
    if f.dim != P.dim:
        raise DecompositionError(f"the PL pieces are {f.dim}-dimensional "
                                 f"but the polytope is {P.dim}-dimensional")
    subs = []
    seen_pieces = set()
    for i, (g, b) in enumerate(f.pieces):
        if (g, b) in seen_pieces:
            continue
        seen_pieces.add((g, b))
        if any(gk == g and bk > b for gk, bk in f.pieces):
            continue  # a parallel piece lies above this one everywhere
        normals = [list(v) for v in P.normals]
        offsets = list(P.offsets)
        for k, (gk, bk) in enumerate(f.pieces):
            if (gk, bk) == (g, b):
                continue
            diff = tuple(gi - gki for gi, gki in zip(g, gk))
            if all(d == 0 for d in diff):
                continue
            nu, scale = primitivize(diff)
            normals.append(list(nu))
            offsets.append((bk - b) * scale)
        try:
            Q = make_polytope(normals, offsets, require_delzant=False, prune=True)
        except PolytopeError:
            continue
        subs.append((i, Q))
    faces = nondiff_locus(f, P)
    flags = {i: Q.delzant_ok for i, Q in subs}
    return Decomposition(pl=f, polytope=P, subpolytopes=subs, faces=faces,
                         delzant_flags=flags)


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
    polytope: Polytope
    integral: bool

    @property
    def vertices(self):
        return self.polytope.vertices


def build_Q(f: PLConvex, P: Polytope, K) -> QPolytope:
    """Halfspace system {x in P, 0 <= y <= K - f(x)} with exact vertices."""
    K = frac(K)
    fmax = f.max_over(P)
    if K < fmax:
        raise ValueError(f"ceiling K={K} is below max f = {fmax}")
    n = P.dim
    normals = [list(v) + [0] for v in P.normals]
    offsets = list(P.offsets)
    normals.append([0] * n + [1])
    offsets.append(Fraction(0))
    for g, b in f.pieces:
        row = tuple([-gi for gi in g] + [Fraction(-1)])
        nu, scale = primitivize(row)
        normals.append(list(nu))
        offsets.append((b - K) * scale)
    Q = make_polytope(normals, offsets, require_delzant=False, prune=True)
    integral = all(all(c.denominator == 1 for c in v) for v in Q.vertices)
    return QPolytope(base=P, pl=f, K=K, polytope=Q, integral=integral)


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
