"""Delzant polytopes in facet-normal form, with exact rational geometry.

A polytope is stored as the system ell_j(x) = <x, v_j> - lambda_j >= 0 with
primitive integer inward normals v_j and rational offsets lambda_j.  Offsets
live in Z for ordinary polytopes and in 1/2 + Z for half-form corrected ones.
Vertices are computed exactly; floating point appears only in the cached
numpy views used by evaluators.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

import numpy as np

from ._exact import (SaturationError, affine_solutions, det_exact, dot, frac,
                     is_primitive, invert_unimodular, rank_exact, solve_exact,
                     unimodular_completion, vec_frac)

__all__ = [
    "Polytope", "FaceFrame", "PolytopeError", "DelzantError",
    "parse_polytope", "make_polytope", "ell_values", "integral_points",
    "face_frame", "vertices_of_system",
]


def vertices_of_system(normals, offsets, dim: int) -> list:
    """Sorted exact vertices of {x : <v_j, x> >= o_j}, assumed bounded.

    Every dim-subset of the constraints with a unique common solution is a
    candidate; the feasible ones are the vertices.  The list may be empty.
    """
    verts = set()
    for subset in combinations(range(len(normals)), dim):
        x = solve_exact([normals[j] for j in subset],
                        [offsets[j] for j in subset])
        if x is not None and all(dot(v, x) >= o
                                 for v, o in zip(normals, offsets)):
            verts.add(x)
    return sorted(verts)


class PolytopeError(ValueError):
    pass


class DelzantError(PolytopeError):
    pass


class Polytope:
    """Bounded full-dimensional lattice polytope given by facet inequalities."""

    def __init__(self, dim, normals, offsets, corrected=False, *,
                 require_delzant=True, prune=False):
        self.dim = int(dim)
        normals = [tuple(int(c) for c in v) for v in normals]
        offsets = [frac(o) for o in offsets]
        if len(normals) != len(offsets):
            raise PolytopeError("normals and offsets length mismatch")
        for v in normals:
            if len(v) != self.dim:
                raise PolytopeError(f"normal {v} has wrong dimension")
            if not is_primitive(v):
                raise PolytopeError(f"normal {v} is not primitive")
        # drop exact duplicates (same facet listed twice)
        seen = {}
        for v, o in zip(normals, offsets):
            if (v, o) not in seen:
                seen[(v, o)] = None
        normals = [k[0] for k in seen]
        offsets = [k[1] for k in seen]
        self.normals = tuple(normals)
        self.offsets = tuple(offsets)
        self.corrected = bool(corrected)
        if self.corrected:
            for o in self.offsets:
                if (o - Fraction(1, 2)).denominator != 1:
                    raise PolytopeError(
                        f"corrected polytope needs offsets in 1/2+Z, got {o}")
        else:
            # uncorrected lattice polytopes carry integer offsets; rational
            # offsets are allowed for derived objects (sub-polytopes, Q).
            pass

        self._check_bounded_nonempty()
        self.vertices = tuple(vertices_of_system(self.normals, self.offsets,
                                                 self.dim))
        if len(self.vertices) < self.dim + 1:
            raise PolytopeError("polytope is not full-dimensional")
        if rank_exact([[v[i] - self.vertices[0][i] for i in range(self.dim)]
                       for v in self.vertices[1:]]) != self.dim:
            raise PolytopeError("polytope is not full-dimensional")

        if prune:
            self._prune_facets()

        self.delzant_ok, self._delzant_msg = self._delzant_check()
        if require_delzant and not self.delzant_ok:
            raise DelzantError(self._delzant_msg)

        self._A = np.array(self.normals, dtype=float)
        self._b = np.array([float(o) for o in self.offsets])
        self._verts_np = np.array([[float(c) for c in v] for v in self.vertices])

    # -- construction internals ------------------------------------------------

    def _check_bounded_nonempty(self):
        """Exact emptiness and boundedness of the facet system.

        A nonempty system has a minimal face: the solutions of rank(V)
        tight rows, so it is empty iff no such subsystem has a feasible
        solution.  It is bounded iff its recession cone {V r >= 0} is zero:
        V has rank n and no extreme ray, the null vector of n - 1
        independent rows, lies in the cone with either sign.
        """
        n, V, o = self.dim, self.normals, self.offsets
        rank = rank_exact(V)
        for subset in combinations(range(len(V)), rank):
            sol = affine_solutions([V[j] for j in subset],
                                   [o[j] for j in subset], n)
            if sol is not None and all(dot(v, sol[0]) >= c
                                       for v, c in zip(V, o)):
                break
        else:
            raise PolytopeError("polytope is empty")
        if rank < n:
            raise PolytopeError("polytope is unbounded")
        for subset in combinations(V, n - 1):
            _, null = affine_solutions(subset, [0] * (n - 1), n)
            if len(null) == 1:
                pairings = [dot(v, null[0]) for v in V]
                if min(pairings) >= 0 or max(pairings) <= 0:
                    raise PolytopeError("polytope is unbounded")
        if len(V) < n + 1:
            raise PolytopeError("too few facets to bound a polytope")

    def _prune_facets(self):
        """Drop facets that do not support an (n-1)-dimensional face."""
        keep_n, keep_o = [], []
        for j in range(len(self.normals)):
            active = [v for v in self.vertices if self.ell_exact(v, j) == 0]
            if not active:
                continue
            dim_aff = rank_exact([[a[i] - active[0][i] for i in range(self.dim)]
                                  for a in active[1:]]) if len(active) > 1 else 0
            if dim_aff == self.dim - 1:
                keep_n.append(self.normals[j])
                keep_o.append(self.offsets[j])
        if keep_n:
            self.normals = tuple(keep_n)
            self.offsets = tuple(keep_o)

    def _delzant_check(self):
        for v in self.vertices:
            active = [j for j in range(len(self.normals))
                      if self.ell_exact(v, j) == 0]
            if len(active) != self.dim:
                return False, (f"vertex {tuple(map(str, v))} lies on {len(active)} "
                               f"facets; expected {self.dim}")
            d = det_exact([self.normals[j] for j in active])
            if abs(d) != 1:
                return False, (f"normals at vertex {tuple(map(str, v))} have "
                               f"determinant {d}; not Delzant")
        return True, ""

    # -- exact queries ---------------------------------------------------------

    def ell_exact(self, x: Sequence, j: int) -> Fraction:
        return dot(x, self.normals[j]) - self.offsets[j]

    def contains_exact(self, x: Sequence) -> bool:
        return all(self.ell_exact(x, j) >= 0 for j in range(len(self.normals)))

    def volume_exact(self) -> Fraction:
        if self.dim == 1:
            xs = [v[0] for v in self.vertices]
            return max(xs) - min(xs)
        if self.dim == 2:
            pts = self._sorted_boundary()
            area = Fraction(0)
            for i in range(len(pts)):
                x0, y0 = pts[i]
                x1, y1 = pts[(i + 1) % len(pts)]
                area += x0 * y1 - x1 * y0
            return abs(area) / 2
        raise NotImplementedError("exact volume implemented for dim <= 2")

    def _sorted_boundary(self):
        cx = sum(v[0] for v in self.vertices) / len(self.vertices)
        cy = sum(v[1] for v in self.vertices) / len(self.vertices)
        return sorted(self.vertices,
                      key=lambda v: math.atan2(float(v[1] - cy), float(v[0] - cx)))

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
        return np.min(self.ell(x), axis=-1) >= -tol

    def interior_contains(self, x, margin: float = 0.0) -> np.ndarray:
        return np.min(self.ell(x), axis=-1) > margin

    def chord(self, x0, d):
        """Ends (lo, hi) of the chords {x0 + u d : lo <= u <= hi} of P from
        the facet inequalities, for points x0 (..., n) and a direction d
        (n,); lo >= hi where the line misses P."""
        a = self._A @ np.asarray(d, dtype=float)
        ell = self.ell(x0)
        up, down = a > 1e-14, a < -1e-14
        lo = np.max(-ell[..., up] / a[up], axis=-1, initial=-np.inf)
        hi = np.min(-ell[..., down] / a[down], axis=-1, initial=np.inf)
        misses = np.any(ell[..., ~(up | down)] < 0, axis=-1)
        return lo, np.where(misses, -np.inf, hi)

    @property
    def vertices_np(self) -> np.ndarray:
        return self._verts_np

    def centroid(self) -> np.ndarray:
        return self._verts_np.mean(axis=0)

    def bbox(self):
        return self._verts_np.min(axis=0), self._verts_np.max(axis=0)

    def diameter(self) -> float:
        v = self._verts_np
        diff = v[:, None, :] - v[None, :, :]
        return float(np.sqrt((diff ** 2).sum(-1)).max())

    # -- misc -------------------------------------------------------------------

    def __repr__(self):
        return (f"Polytope(dim={self.dim}, facets={len(self.normals)}, "
                f"vertices={len(self.vertices)}, corrected={self.corrected})")

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "normals": [list(v) for v in self.normals],
            "offsets": [str(o) for o in self.offsets],
            "corrected": self.corrected,
        }


def make_polytope(normals, offsets, corrected=False, *,
                  require_delzant=True, prune=False) -> Polytope:
    if not normals:
        raise PolytopeError("no facets given")
    return Polytope(len(normals[0]), normals, offsets, corrected,
                    require_delzant=require_delzant, prune=prune)


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
        dim = int(spec["dim"])
        normals = spec["normals"]
        offsets = spec["offsets"]
    except KeyError as exc:
        raise PolytopeError(f"polytope spec missing field {exc}") from exc
    corrected = bool(spec.get("corrected", False))
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
    normals = [tuple(int(c) for c in v) for v in normals]
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
