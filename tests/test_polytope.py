"""Facet-exact polytope geometry."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from toricray._exact import SaturationError, det_exact
from toricray.polytope import (DelzantError, Polytope, PolytopeError,
                               ell_values, face_frame, integral_points,
                               make_polytope, parse_polytope)


def segment(N=2):
    return make_polytope([[1], [-1]], [0, -N])


def simplex(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def test_parse_segment():
    P = parse_polytope({"dim": 1, "normals": [[1], [-1]], "offsets": ["0", "-2"]})
    assert set(P.vertices) == {(Fraction(0),), (Fraction(2),)}


def test_parse_corrected_segment():
    P = parse_polytope({"dim": 1, "normals": [[1], [-1]],
                        "offsets": ["-1/2", "-5/2"], "corrected": True})
    assert set(P.vertices) == {(Fraction(-1, 2),), (Fraction(5, 2),)}


def test_corrected_flag_requires_half_integers():
    with pytest.raises(PolytopeError):
        make_polytope([[1], [-1]], [0, -2], corrected=True)


def test_simplex_vertices():
    P = simplex(3)
    assert set(P.vertices) == {(Fraction(0), Fraction(0)),
                               (Fraction(3), Fraction(0)),
                               (Fraction(0), Fraction(3))}


def test_non_primitive_normal_rejected():
    with pytest.raises(PolytopeError):
        make_polytope([[2], [-1]], [0, -2])


def test_unbounded_and_empty_rejected():
    with pytest.raises(PolytopeError):
        make_polytope([[1], [1]], [0, -1])
    with pytest.raises(PolytopeError):
        make_polytope([[1], [-1]], [2, -1])


def classify(normals, offsets, dim):
    """accepted, empty or unbounded, as the exact facet-system check says."""
    try:
        Polytope(dim, normals, offsets, require_delzant=False)
    except PolytopeError as exc:
        msg = str(exc)
        if msg == "polytope is empty":
            return "empty"
        if msg in ("polytope is unbounded", "too few facets to bound a polytope"):
            return "unbounded"
    return "accepted"


def classify_lp(normals, offsets, dim):
    """The same classification from HiGHS: feasibility with a zero objective,
    then boundedness of every coordinate in both directions."""
    A_ub = -np.array(normals, dtype=float).reshape(-1, dim)
    b_ub = -np.array([float(Fraction(o)) for o in offsets])
    free = [(None, None)] * dim
    if linprog(np.zeros(dim), A_ub=A_ub, b_ub=b_ub, bounds=free,
               method="highs").status == 2:
        return "empty"
    for c in np.vstack([np.eye(dim), -np.eye(dim)]):
        if linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=free,
                   method="highs").status != 0:
            return "unbounded"
    return "accepted"


@pytest.mark.parametrize("normals,offsets,want", [
    ([[1, 0], [-1, 0]], [0, -1], "unbounded"),                 # strip
    ([[1, 0], [-1, 0], [0, 1]], [0, -1, 0], "unbounded"),      # half strip
    ([[1, 0], [0, 1], [1, 1]], [0, 0, 1], "unbounded"),        # wedge
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], [2, -1, 0, -1], "empty"),
    ([[1, 0], [-1, 0]], [1, 0], "empty"),                      # rank 1, empty
    ([[1, 0], [-1, 0], [0, 1]], [1, 0, 0], "empty"),           # empty, ray
    ([[1, 1], [-1, -1]], [0, -2], "unbounded"),                # rank 1 slab
    ([[1, 0], [0, 1], [-1, -1]], [0, 0, -3], "accepted"),
])
def test_exact_boundedness_and_emptiness(normals, offsets, want):
    assert classify(normals, offsets, 2) == want
    assert classify_lp(normals, offsets, 2) == want


def test_rank_deficient_normals_are_unbounded():
    with pytest.raises(PolytopeError, match="polytope is unbounded"):
        make_polytope([[1, 1], [-1, -1], [1, 1]], [0, -2, 1])


PRIMITIVE = {1: [(1,), (-1,)],
             2: [(a, b) for a in range(-2, 3) for b in range(-2, 3)
                 if np.gcd(a, b) == 1]}


@st.composite
def facet_systems(draw):
    dim = draw(st.integers(1, 2))
    m = draw(st.integers(1, 5))
    normals = [draw(st.sampled_from(PRIMITIVE[dim])) for _ in range(m)]
    offsets = [Fraction(draw(st.integers(-6, 6)), 2) for _ in range(m)]
    return normals, offsets, dim


@settings(derandomize=True, deadline=None, max_examples=150)
@given(facet_systems())
def test_exact_classification_matches_lp(system):
    assert classify(*system) == classify_lp(*system)


def test_delzant_failure_reports_vertex():
    with pytest.raises(DelzantError) as err:
        make_polytope([[1, 0], [0, 1], [-1, -2]], [0, 0, -2])
    assert "determinant" in str(err.value)


def test_ell_values_examples():
    P = segment()
    assert np.allclose(ell_values(P, np.array([1.0])), [1.0, 1.0])
    assert np.allclose(ell_values(P, np.array([0.0])), [0.0, 2.0])
    assert np.allclose(ell_values(simplex(), np.array([1.0, 1.0])),
                       [1.0, 1.0, 1.0])


def test_ell_values_affine_property():
    rng = np.random.default_rng(0)
    P = simplex()
    for _ in range(50):
        x, y = rng.uniform(0, 1, size=(2, 2))
        a = rng.uniform()
        lhs = ell_values(P, a * x + (1 - a) * y)
        rhs = a * ell_values(P, x) + (1 - a) * ell_values(P, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_integral_points_counts():
    assert integral_points(segment(2)) == [(0,), (1,), (2,)]
    Pc = make_polytope([[1], [-1]], ["-1/2", "-5/2"], corrected=True)
    assert integral_points(Pc) == [(0,), (1,), (2,)]
    for N in (1, 2, 3, 4):
        assert len(integral_points(simplex(N))) == (N + 1) * (N + 2) // 2


def test_integral_points_match_float_scan():
    P = simplex(3)
    lo, hi = P.bbox()
    brute = []
    for i in range(int(np.floor(lo[0])), int(np.ceil(hi[0])) + 1):
        for j in range(int(np.floor(lo[1])), int(np.ceil(hi[1])) + 1):
            if np.all(P.ell(np.array([float(i), float(j)])) >= -1e-12):
                brute.append((i, j))
    assert sorted(brute) == P.integral_points()


def test_face_frame_axis_wall():
    fr = face_frame(simplex(), [[1, 0]], [1])
    assert abs(det_exact(fr.matrix)) == 1
    x = np.array([1.0, 0.7])
    xt = fr.to_frame(x)
    assert xt[-1] == pytest.approx(1.0)  # transverse coordinate is x1
    assert np.allclose(fr.from_frame(xt), x)


def test_face_frame_diagonal_wall():
    fr = face_frame(simplex(), [[1, 1]], [1])
    assert abs(det_exact(fr.matrix)) == 1
    for x in ([0.3, 0.7], [0.9, 0.1]):
        assert fr.to_frame(np.array(x))[-1] == pytest.approx(sum(x))


def test_face_frame_rejects_non_primitive_and_non_saturated():
    with pytest.raises(PolytopeError):
        face_frame(simplex(), [[2, 0]], [1])
    with pytest.raises(SaturationError):
        face_frame(simplex(), [[1, 1], [1, -1]], [1, 0])


def test_volume_and_diameter():
    assert segment(2).volume_exact() == 2
    assert simplex(3).volume_exact() == Fraction(9, 2)
    assert simplex(3).diameter() == pytest.approx(3 * np.sqrt(2))


def test_delzant_holds_at_every_vertex():
    for P in (segment(), simplex(1), simplex(4)):
        for v in P.vertices:
            active = [j for j in range(len(P.normals))
                      if P.ell_exact(v, j) == 0]
            assert len(active) == P.dim
            assert abs(det_exact([P.normals[j] for j in active])) == 1
