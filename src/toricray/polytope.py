"""Delzant polytopes in facet-normal form, with exact rational geometry.

A polytope is stored as the system ell_j(x) = <x, v_j> - lambda_j >= 0 with
primitive integer inward normals v_j and rational offsets lambda_j.  Offsets
live in Z for ordinary polytopes and in 1/2 + Z for half-form corrected ones.
Vertices are computed exactly; floating point appears only in the read-only
numpy views used by evaluators.  Each distinct system (primitive integer
normals and ``Fraction`` offsets, duplicate facets dropped) is enumerated
and checked once; a later construction of it shares that geometry and
repeats only the input checks.  A region derived from a bounded polytope
comes with its vertices and incidence and is not enumerated again.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from ._exact import (SaturationError, det_exact, dot, frac, integer_row,
                     integer_vector, is_primitive, invert_unimodular,
                     rank_exact, row_reduce, unimodular_completion, vec_frac)
from .columns import row_min, row_sum

__all__ = [
    "Polytope", "FaceFrame", "PolytopeError", "DelzantError",
    "parse_polytope", "make_polytope", "ell_values", "integral_points",
    "face_frame", "vertices_of_system", "MEMBERSHIP_TOL", "CROSSING_TOL",
]


def vertices_of_system(normals, offsets, dim: int, equalities=()) -> list:
    """Exact vertices of {x : <v_j, x> >= o_j, <u_i, x> = c_i}, sorted, each
    paired with the frozenset of inequalities j tight there.

    The rational rows are scaled to integers.  The equality rows (u_i, c_i)
    are row-reduced once, and the result is empty when they are
    inconsistent; otherwise their r reduced rows are stacked with each
    (dim - r)-subset of the inequality rows (a_j, b_j).  A stack whose
    echelon has pivots 0..dim-1 gives the candidate num / det, num its last
    column, with integer slacks sign(det) (<a_j, num> - b_j det).  The
    feasible candidates (all slacks >= 0) are the vertices, their zero
    slacks the tight set, and only they become ``Fraction``s; a subset
    inside a tight set already found is skipped.  The list may be empty;
    when the v_j and u_i span R^dim it is empty iff the system is.
    """
    eqs = row_reduce([[*u, c] for u, c in equalities], dim + 1)
    if dim in eqs.pivots:
        return []
    rows = [integer_row([*v, o])[0] for v, o in zip(normals, offsets)]
    verts = {}
    for subset in combinations(range(len(rows)), dim - len(eqs.pivots)):
        if any(tight.issuperset(subset) for tight in verts.values()):
            continue
        ech = row_reduce([*eqs.rows, *(rows[j] for j in subset)], dim + 1)
        if ech.pivots != tuple(range(dim)):
            continue
        num, det = [r[dim] for r in ech.rows], ech.det
        sign = 1 if det > 0 else -1
        slacks = [sign * (sum(a * x for a, x in zip(r, num)) - r[dim] * det)
                  for r in rows]
        if min(slacks, default=0) >= 0:
            verts[tuple(Fraction(c, det) for c in num)] = frozenset(
                j for j, c in enumerate(slacks) if c == 0)
    return sorted(verts.items())


def _has_ray(V, rows) -> bool:
    """Whether the n - 1 integer ``rows`` are independent and one side r
    of their null line has <v, r> >= 0 for every row v of V, so that r is
    a ray of the recession cone {V r >= 0}."""
    n = len(V[0])
    ech = row_reduce(rows, n)
    if len(ech.pivots) < n - 1:
        return False
    # the free column gets det, each pivot column minus its row's entry
    free = next(k for k in range(n) if k not in ech.pivots)
    r = [0] * n
    r[free] = ech.det
    for row, k in zip(ech.rows, ech.pivots):
        r[k] = -row[free]
    dots = [sum(a * b for a, b in zip(v, r)) for v in V]
    return min(dots) >= 0 or max(dots) <= 0


class PolytopeError(ValueError):
    pass


class DelzantError(PolytopeError):
    pass


def _integer_normal(v) -> tuple[int, ...]:
    try:
        return integer_vector(v)
    except ValueError as exc:
        raise PolytopeError(f"normal {list(v)}: {exc}") from None


# the slack ``contains(x, tol=MEMBERSHIP_TOL)`` gives a float point on the
# boundary of P (a grid end, a facet value evaluated at m): a few thousand
# ulps at unit scale, far below every quadrature tolerance
MEMBERSHIP_TOL = 1e-12
# the least |component| along a metric path of a hyperplane's normal for the
# path to cross it; below it they are parallel, not divided by rounding noise
CROSSING_TOL = 1e-14


@functools.lru_cache(maxsize=256)
def _geometry(n, V, offsets):
    """``_derive`` of the vertices of one normalized facet system, which
    must be nonempty, bounded and full-dimensional.  The cache keeps only
    what succeeds: a system that fails raises again on every call.

    The free columns k of V's echelon are pinned to 0 by the equalities
    <e_k, x> = 0.  A move along the null space of V takes every solution
    to one of the pinned system, whose rows span R^n, so the system is
    empty iff the pinned one has no vertex.  A nonempty system with free
    columns contains a line.  Otherwise the recession cone {V r >= 0} is
    pointed, so it is {0} iff it has no extreme ray; each extreme ray is
    the null line of n - 1 independent rows of V, so the system is
    unbounded iff one side of such a line has V r >= 0.
    """
    pivots = row_reduce(V, n).pivots
    pins = [(tuple(int(i == k) for i in range(n)), 0)
            for k in range(n) if k not in pivots]
    verts = vertices_of_system(V, offsets, n, pins)
    if not verts:
        raise PolytopeError("polytope is empty")
    if pins or any(_has_ray(V, rows) for rows in combinations(V, n - 1)):
        raise PolytopeError("polytope is unbounded")
    vertices = tuple(v for v, _ in verts)
    if rank_exact([[v[i] - vertices[0][i] for i in range(n)]
                   for v in vertices[1:]]) != n:
        raise PolytopeError("polytope is not full-dimensional")
    return _derive(n, V, offsets, vertices, tuple(t for _, t in verts))


def _delzant_check(dim, normals, vertices, incidence):
    for v, tight in zip(vertices, incidence):
        if len(tight) != dim:
            return False, (f"vertex {tuple(map(str, v))} lies on {len(tight)} "
                           f"facets; expected {dim}")
        d = det_exact([normals[j] for j in sorted(tight)])
        if abs(d) != 1:
            return False, (f"normals at vertex {tuple(map(str, v))} have "
                           f"determinant {d}; not Delzant")
    return True, ""


def _derive(dim, normals, offsets, vertices, incidence):
    """What a polytope reads off its rows, vertices and incidence: the
    Delzant verdict and message, the integer facet rows, and read-only
    float views of the normals, offsets and vertices."""
    views = (np.array(normals, dtype=float),
             np.array([float(o) for o in offsets]),
             np.array([[float(c) for c in v] for v in vertices]))
    for view in views:
        view.flags.writeable = False
    return (vertices, incidence,
            *_delzant_check(dim, normals, vertices, incidence),
            tuple(tuple(integer_row([*v, o])[0])
                  for v, o in zip(normals, offsets)), *views)


@functools.lru_cache(maxsize=256)
def _volume(dim, vertices, incidence, n_facets) -> Fraction:
    """Exact volume from the pulling triangulation: a face (a set of
    vertices) is the union of the cones from its first vertex over its
    facets that miss that vertex, and the facets of a face are its maximal
    proper intersections with the facets of P.  Determinants are taken on
    the vertices scaled to integers."""
    den = math.lcm(*(c.denominator for v in vertices for c in v))
    pts = [[int(c * den) for c in v] for v in vertices]
    facets = {frozenset(i for i, tight in enumerate(incidence) if j in tight)
              for j in range(n_facets)}

    def simplices(face):
        apex = min(face)
        subs = {face & F for F in facets} - {face}
        return [(apex, *s) for G in subs
                if apex not in G and not any(G < H for H in subs)
                for s in simplices(G)] if len(face) > 1 else [(apex,)]

    total = sum(abs(det_exact([[a - b for a, b in zip(pts[i], pts[s[0]])]
                               for i in s[1:]]))
                for s in simplices(frozenset(range(len(pts)))))
    return Fraction(total, math.factorial(dim) * den ** dim)


class Polytope:
    """Bounded full-dimensional lattice polytope given by facet inequalities."""

    def __init__(self, dim, normals, offsets, corrected=False, *,
                 require_delzant=True):
        dim = int(dim)
        normals = [_integer_normal(v) for v in normals]
        offsets = [frac(o) for o in offsets]
        if len(normals) != len(offsets):
            raise PolytopeError("normals and offsets length mismatch")
        for v in normals:
            if len(v) != dim:
                raise PolytopeError(f"normal {v} has wrong dimension")
            if not is_primitive(v):
                raise PolytopeError(f"normal {v} is not primitive")
        # drop exact duplicates (same facet listed twice)
        seen = dict.fromkeys(zip(normals, offsets))
        normals = tuple(v for v, _ in seen)
        offsets = tuple(o for _, o in seen)
        # uncorrected lattice polytopes carry integer offsets; rational
        # offsets are allowed for derived objects (sub-polytopes, Q)
        if corrected:
            for o in offsets:
                if (o - Fraction(1, 2)).denominator != 1:
                    raise PolytopeError(
                        f"corrected polytope needs offsets in 1/2+Z, got {o}")
        self._adopt(dim, normals, offsets, corrected,
                    _geometry(dim, normals, offsets))
        if require_delzant and not self.delzant_ok:
            raise DelzantError(self._delzant_msg)

    @classmethod
    def _region(cls, dim, normals, offsets, vertices, incidence) -> Polytope:
        """A full-dimensional region of a bounded polytope from its distinct
        rows, its sorted vertices and the rows tight at each: bounded by
        construction, so neither enumerated nor checked again."""
        P = cls.__new__(cls)
        P._adopt(dim, normals, offsets, False,
                 _derive(dim, normals, offsets, vertices, incidence))
        return P

    def _adopt(self, dim, normals, offsets, corrected, geometry):
        self.dim, self.normals, self.offsets = dim, normals, offsets
        self.corrected = bool(corrected)
        # incidence[i]: the facets tight at vertices[i]; facet_rows: each
        # facet {v . x = lambda} as an integer row, (v, lambda) scaled
        (self.vertices, self.incidence, self.delzant_ok, self._delzant_msg,
         self.facet_rows, self._A, self._b, self._verts_np) = geometry

    # -- exact queries ---------------------------------------------------------

    def ell_exact(self, x: Sequence, j: int) -> Fraction:
        return dot(x, self.normals[j]) - self.offsets[j]

    def contains_exact(self, x: Sequence) -> bool:
        return all(self.ell_exact(x, j) >= 0 for j in range(len(self.normals)))

    def volume_exact(self) -> Fraction:
        """Exact volume from the pulling triangulation (``_volume``), once
        per vertex set and incidence."""
        return _volume(self.dim, self.vertices, self.incidence,
                       len(self.normals))

    def integral_points(self):
        lo = [min(v[i] for v in self.vertices) for i in range(self.dim)]
        hi = [max(v[i] for v in self.vertices) for i in range(self.dim)]
        ranges = [range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)]
        pts = [p for p in product(*ranges) if self.contains_exact(p)]
        return sorted(pts)

    # -- float evaluators ------------------------------------------------------

    def ell(self, x) -> np.ndarray:
        """All facet values ell_j(x); x has shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        return x @ self._A.T - self._b

    def contains(self, x, tol: float = 0.0) -> np.ndarray:
        return row_min(self.ell(x)) >= -tol

    def interior_contains(self, x) -> np.ndarray:
        return row_min(self.ell(x)) > 0.0

    @property
    def vertices_np(self) -> np.ndarray:
        return self._verts_np

    def centroid(self) -> np.ndarray:
        """The mean of the vertices, which is the centroid only of a
        simplex.  It places the battery's bump (``limits.battery_for``) and
        the Newton guess of ``potentials.legendre_inverse``."""
        return self._verts_np.mean(axis=0)

    def bbox(self):
        return self._verts_np.min(axis=0), self._verts_np.max(axis=0)

    def diameter(self) -> float:
        v = self._verts_np
        diff = v[:, None, :] - v[None, :, :]
        return float(np.sqrt(row_sum(diff ** 2)).max())

    # -- misc -------------------------------------------------------------------

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, facets={len(self.normals)}, "
                f"vertices={len(self.vertices)}, corrected={self.corrected})")


def make_polytope(normals, offsets, corrected=False, *,
                  require_delzant=True) -> Polytope:
    if not normals:
        raise PolytopeError("no facets given")
    return Polytope(len(normals[0]), normals, offsets, corrected,
                    require_delzant=require_delzant)


def parse_polytope(spec) -> Polytope:
    """Build a Polytope from a dict or a JSON string/path-like content.

    Expected fields: dim, normals (list of integer lists), offsets (list of
    rationals as 'p/q' strings, decimals, or ints), optional corrected flag.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise PolytopeError("polytope spec must be a dict or JSON object")
    try:
        (dim,) = integer_vector([spec["dim"]])
        normals = spec["normals"]
        offsets = spec["offsets"]
    except KeyError as exc:
        raise PolytopeError(f"polytope spec missing field {exc}") from exc
    if not (isinstance(offsets, list) and isinstance(normals, list)
            and all(isinstance(v, list) for v in normals)):
        raise PolytopeError("normals must be arrays in an array, offsets one")
    if dim < 1:
        raise PolytopeError(f"dim must be at least 1, not {dim}")
    if not normals:
        raise PolytopeError("normals must not be empty")
    corrected = spec.get("corrected", False)
    if not isinstance(corrected, bool):
        raise PolytopeError(
            f"corrected must be true or false, not {corrected!r}")
    if any(len(v) != dim for v in normals):
        raise PolytopeError("normal dimension does not match dim")
    return Polytope(dim, normals, offsets, corrected)


def ell_values(P: Polytope, x) -> np.ndarray:
    return P.ell(x)


def integral_points(P: Polytope):
    return P.integral_points()


class FaceFrame:
    """Unimodular coordinates adapted to a face of codimension j.

    The rows of ``matrix`` form a Z-basis whose last j rows are the face
    normals: in the transformed coordinates xt = matrix @ x the face lies in
    {xt[n-j:] = c}.  The first n-j coordinates are the parallel coordinates.
    """

    def __init__(self, normals, offsets, matrix):
        self.normals = tuple(tuple(int(c) for c in v) for v in normals)
        self.offsets = vec_frac(offsets)
        self.matrix = tuple(tuple(int(c) for c in row) for row in matrix)
        self.codim = len(self.normals)
        self.dim = len(self.matrix)
        self.matrix_np = np.array(self.matrix, dtype=float)
        inv = invert_unimodular([list(r) for r in self.matrix])
        self.inverse = tuple(tuple(row) for row in inv)
        self.inverse_np = np.array(inv, dtype=float)
        self.offsets_np = np.array([float(c) for c in self.offsets])

    @property
    def n_parallel(self) -> int:
        return self.dim - self.codim

    def to_frame(self, x) -> np.ndarray:
        """Map x (..., n) to frame coordinates (parallel first)."""
        return np.asarray(x, dtype=float) @ self.matrix_np.T

    def from_frame(self, xt) -> np.ndarray:
        return np.asarray(xt, dtype=float) @ self.inverse_np.T

    def transverse(self, x) -> np.ndarray:
        return self.to_frame(x)[..., self.n_parallel:]

    def parallel(self, x) -> np.ndarray:
        return self.to_frame(x)[..., :self.n_parallel]

    def shift_vectors(self) -> np.ndarray:
        """Columns of matrix^-1 dual to the transverse coordinates, (n, j)."""
        return self.inverse_np[:, self.n_parallel:]

    def __repr__(self):
        return f"FaceFrame(codim={self.codim}, normals={self.normals})"


def face_frame(P: Polytope, normals: Sequence[Sequence[int]],
               offsets: Sequence) -> FaceFrame:
    """Unimodular frame for the affine face {<v_k, x> = c_k} of P.

    The normals must be primitive, independent, and span a saturated
    sublattice of Z^n (otherwise no unimodular completion exists and the
    wall system is not lattice-adapted).
    """
    n = P.dim
    normals = [_integer_normal(v) for v in normals]
    offsets = vec_frac(offsets)
    if len(normals) != len(offsets):
        raise PolytopeError("normals and offsets length mismatch")
    for v in normals:
        if len(v) != n:
            raise PolytopeError(f"normal {v} has wrong dimension")
        if not is_primitive(v):
            raise PolytopeError(f"normal {v} is not primitive")
    if rank_exact(normals) != len(normals):
        raise PolytopeError("face normals are linearly dependent")
    try:
        U = unimodular_completion(normals, n)
    except SaturationError as exc:
        raise SaturationError(
            f"face normals {normals} are not lattice-adapted: {exc}") from exc
    return FaceFrame(normals, offsets, U)
