"""Facet-exact polytope geometry."""

import ast
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from toricray import (acceptance, generators, limits, polytope, potentials,
                      quadrature, quantization, smoothing)
from toricray._exact import SaturationError, det_exact, dot, row_reduce
from toricray.polytope import (DelzantError, Polytope, PolytopeError,
                               ell_values, face_frame, integral_points,
                               make_polytope, parse_polytope,
                               vertices_of_system)


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


@pytest.mark.parametrize("flag, offsets", [
    ("no", ["-1/2", "-5/2"]), ("false", ["0", "-2"]), (1, ["0", "-2"]),
    (None, ["0", "-2"])])
def test_corrected_flag_must_be_a_json_boolean(flag, offsets):
    # "no" would build a corrected polytope and "false" fail on its offsets
    with pytest.raises(PolytopeError, match="corrected must be true or false"):
        parse_polytope({"dim": 1, "normals": [[1], [-1]], "offsets": offsets,
                        "corrected": flag})


@pytest.mark.parametrize("dim, normals, msg", [
    (0, [], "dim must be at least 1, not 0"),
    (-1, [], "dim must be at least 1, not -1"),
    (1, [], "normals must not be empty")])
def test_parse_rejects_no_dimension_and_no_normals(dim, normals, msg):
    with pytest.raises(PolytopeError, match=msg):
        parse_polytope({"dim": dim, "normals": normals, "offsets": []})


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


def test_non_integer_normals_rejected():
    spec = {"dim": 2, "normals": [[1.7, 0], [0, 1], [-1, -1]],
            "offsets": [0, 0, -3]}
    with pytest.raises(PolytopeError, match="entry 1.7 is not an integer"):
        parse_polytope(spec)
    for bad in ("3/2", Fraction(1, 2), float("inf"), float("nan"), "x"):
        with pytest.raises(PolytopeError, match="is not an integer"):
            make_polytope([[bad], [-1]], [0, -2])
    with pytest.raises(PolytopeError, match="is not an integer"):
        face_frame(simplex(), [(0.5, 1)], [1])
    # integral floats, Fractions and strings are integers
    spec["normals"][0] = [1.0, Fraction(0)]
    spec["normals"][1] = ["0", 1]
    P = parse_polytope(spec)
    assert P.normals == simplex().normals
    assert all(type(c) is int for v in P.normals for c in v)
    assert face_frame(P, [(1.0, 0)], [1]).normals == ((1, 0),)


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
        if msg == "polytope is unbounded":
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
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]], [0, 0, 0, -3],
     "accepted"),                                              # CP^3(3)
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], "unbounded"),  # m = n
    ([[1, 0, 0], [0, 1, 0], [-1, -1, 0]], [0, 0, -3],
     "unbounded"),                                             # prism, rank 2
    ([[1, 0, 0], [0, 1, 0], [-1, -1, 0]], [0, 0, 1], "empty"),  # rank 2
    ([[1, 1, 1], [-1, -1, -1]], [0, -2], "unbounded"),         # rank 1 slab
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, 0, -1]],
     [0, 0, 0, -3, 1], "empty"),                               # rank 3
    ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0]], [0, 0, 0, -3],
     "unbounded"),                                             # one ray left
])
def test_exact_boundedness_and_emptiness(normals, offsets, want):
    dim = len(normals[0])
    assert classify(normals, offsets, dim) == want
    assert classify_lp(normals, offsets, dim) == want


def test_rank_deficient_normals_are_unbounded():
    with pytest.raises(PolytopeError, match="polytope is unbounded"):
        make_polytope([[1, 1], [-1, -1], [1, 1]], [0, -2, 1])


PRIMITIVE = {dim: [v for v in product(range(-2, 3), repeat=dim)
                   if math.gcd(*v) == 1] for dim in (1, 2, 3)}


@st.composite
def facet_systems(draw):
    """Random facets at half-integer distances from an integer point p,
    which violates some of them.  Half the systems also get a simplex's
    normals, which make them bounded: few random ones in dimension 3 are."""
    dim = draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    normals = [draw(st.sampled_from(PRIMITIVE[dim])) for _ in range(m)]
    if draw(st.booleans()):
        normals += [(-1,) * dim, *(tuple(int(i == k) for i in range(dim))
                                   for k in range(dim))]
    p = [draw(st.integers(-2, 2)) for _ in range(dim)]
    offsets = [Fraction(2 * dot(v, p) - draw(st.integers(-4, 6)), 2)
               for v in normals]
    return normals, offsets, dim


@settings(derandomize=True, deadline=None, max_examples=300)
@given(facet_systems())
def test_exact_classification_matches_lp(system):
    assert classify(*system) == classify_lp(*system)


def classify_cut_cone(normals, offsets, dim):
    """The classification by the cut-cone rule: pin V's free columns to 0;
    the system is empty iff the pinned one has no vertex, contains a line
    iff it is nonempty with pins, and is otherwise unbounded iff the cut
    cone {V r >= 0, <sum_j v_j, r> <= 1} has a vertex other than 0.
    Also whether it contains a line."""
    pivots = row_reduce(normals, dim).pivots
    pins = [(tuple(int(i == k) for i in range(dim)), 0)
            for k in range(dim) if k not in pivots]
    if not vertices_of_system(normals, offsets, dim, pins):
        return "empty", False
    cut = tuple(-sum(col) for col in zip(*normals))
    if pins or len(vertices_of_system(
            [*normals, cut], [0] * len(normals) + [-1], dim)) > 1:
        return "unbounded", bool(pins)
    return "accepted", False


def test_extreme_rays_decide_as_the_cut_cone():
    # random small rational systems in 1-3 D: bounded, empty, unbounded
    # with a pointed recession cone, and ones containing a line
    rng = random.Random(7)
    seen = Counter()
    for _ in range(600):
        dim = rng.randint(1, 3)
        normals = [rng.choice(PRIMITIVE[dim])
                   for _ in range(rng.randint(1, dim + 3))]
        if dim > 1 and rng.random() < 0.15:
            normals = [tuple(s * c for c in normals[0])
                       for s in rng.choices((1, -1), k=len(normals))]
        offsets = [Fraction(rng.randint(-9, 6), rng.randint(1, 3))
                   for _ in normals]
        want, line = classify_cut_cone(normals, offsets, dim)
        assert classify(normals, offsets, dim) == want
        seen[want, line] += 1
    assert set(seen) == {("accepted", False), ("empty", False),
                         ("unbounded", False), ("unbounded", True)}
    assert min(seen.values()) >= 20


def solve(rows, rhs):
    """The solution of a square rational system, from ``row_reduce`` of its
    augmented rows; None when it is singular."""
    n = len(rows)
    ech = row_reduce([[*r, b] for r, b in zip(rows, rhs)], n + 1)
    return (tuple(Fraction(r[n], ech.det) for r in ech.rows)
            if ech.pivots == tuple(range(n)) else None)


def fraction_vertices(normals, offsets, dim, equalities=()):
    """Reference enumeration on Fractions: each equality becomes a pair of
    opposite rows; solve every dim-subset with ``solve`` and keep the
    solutions whose ``dot`` slacks are >= 0, with the inequalities tight
    there."""
    rows = [*zip(normals, offsets),
            *((tuple(s * a for a in u), s * c)
              for u, c in equalities for s in (1, -1))]
    verts = {}
    for subset in combinations(range(len(rows)), dim):
        x = solve([rows[j][0] for j in subset],
                  [rows[j][1] for j in subset])
        if x is None or x in verts:
            continue
        slacks = [dot(v, x) - o for v, o in rows]
        if min(slacks, default=0) >= 0:
            verts[x] = frozenset(j for j, c in enumerate(slacks)
                                 if c == 0 and j < len(normals))
    return sorted(verts.items())


rationals = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def rational_systems(draw):
    """Systems like those of a kink face: rational normals, zero rows, and
    offsets that often make several rows tight at one point p; equality
    rows through p, multiples of earlier ones (dependent), and multiples
    with a shifted right-hand side or zero rows with c != 0 (inconsistent
    unless the shift is 0)."""
    dim = draw(st.integers(0, 3))
    p = [draw(rationals) for _ in range(dim)]
    normals, offsets = [], []
    for _ in range(draw(st.integers(0, 6))):
        v = tuple(draw(rationals) for _ in range(dim))
        if draw(st.integers(0, 4)) == 0:
            v = (Fraction(0),) * dim
        normals.append(v)
        offsets.append(dot(v, p) - draw(rationals))
    equalities = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 5))
        if kind >= 3 and equalities:
            u, c = draw(st.sampled_from(equalities))
            k = draw(st.sampled_from([Fraction(-2), Fraction(1, 3), 1]))
            u, c = tuple(k * a for a in u), k * c
            if kind == 5:
                c += draw(rationals)
        elif kind == 2:
            u, c = (Fraction(0),) * dim, draw(rationals)
        else:
            u = tuple(draw(rationals) for _ in range(dim))
            c = dot(u, p)
        equalities.append((u, c))
    return normals, offsets, dim, equalities


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rational_systems())
def test_integer_enumeration_matches_fraction_reference(system):
    verts = vertices_of_system(*system)
    assert verts == fraction_vertices(*system)
    assert all(type(c) is Fraction for x, _ in verts for c in x)


def test_only_vertices_become_fractions(monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    def no_dot(*args):
        raise AssertionError("slacks are integer dot products")

    monkeypatch.setattr(polytope, "Fraction", counted)
    monkeypatch.setattr(polytope, "dot", no_dot)
    # the square [0, 2]^2 cut by x + y <= 3: eight nonsingular pairs give
    # five vertices and three infeasible candidates, (2, 2), (3, 0), (0, 3)
    verts = vertices_of_system([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)],
                               [0, 0, -2, -2, -3], 2)
    assert [x for x, _ in verts] == [(0, 0), (0, 2), (1, 2), (2, 0), (2, 1)]
    assert len(made) == 2 * len(verts)


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
    # 3-D: the side-3 simplex, the 2 x 3 x 5 box, a prism and the
    # octahedron, which is not simple
    cp3 = make_polytope([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                        [0, 0, 0, -3])
    box = make_polytope([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0],
                         [0, -1, 0], [0, 0, -1]], [0, 0, 0, -2, -3, -5])
    prism = make_polytope([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1],
                           [0, 0, -1]], [0, 0, -3, 0, -1])
    octahedron = make_polytope(
        [[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)],
        [-1] * 8, require_delzant=False)
    assert cp3.volume_exact() == Fraction(9, 2)
    assert box.volume_exact() == 30
    assert prism.volume_exact() == Fraction(9, 2)
    assert octahedron.volume_exact() == Fraction(4, 3)


def test_delzant_holds_at_every_vertex():
    for P in (segment(), simplex(1), simplex(4)):
        for v in P.vertices:
            active = [j for j in range(len(P.normals))
                      if P.ell_exact(v, j) == 0]
            assert len(active) == P.dim
            assert abs(det_exact([P.normals[j] for j in active])) == 1


def test_incidence_is_the_tight_facets_with_redundant_rows():
    # CP^2(3), the 2 x 3 x 5 box and the octahedron (four facets at each
    # vertex, found by several subsets), each with one redundant facet
    # inserted that touches a single vertex and one that touches none
    cases = [
        ([[1, 0], [0, 1], [-1, -1]], [0, 0, -3], [1, 1], 0, True),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], [0, -1, 0],
          [0, 0, -1]], [0, 0, 0, -2, -3, -5], [1, 1, 1], 0, True),
        ([[a, b, c] for a in (1, -1) for b in (1, -1) for c in (1, -1)],
         [-1] * 8, [1, 0, 0], -1, False),
    ]
    for normals, offsets, extra, extra_offset, delzant in cases:
        P = make_polytope(normals, offsets, require_delzant=False)
        far = [-c for c in extra]
        Q = make_polytope(normals[:1] + [extra] + normals[1:] + [far],
                          offsets[:1] + [extra_offset] + offsets[1:] + [-99],
                          require_delzant=False)
        for R in (P, Q):
            assert len(R.incidence) == len(R.vertices)
            for v, tight in zip(R.vertices, R.incidence):
                assert tight == {j for j in range(len(R.normals))
                                 if R.ell_exact(v, j) == 0}
        # facet j of P is row j + (j > 0) of Q; the redundant rows 1 and
        # len(normals) + 1 move no vertex, and the one touching a vertex
        # makes it not simple
        moved = [0, *range(2, len(normals) + 1)]
        assert Q.vertices == P.vertices
        assert [frozenset(moved[j] for j in t) for t in P.incidence] == [
            t - {1, len(normals) + 1} for t in Q.incidence]
        assert Q.volume_exact() == P.volume_exact()
        assert P.delzant_ok == delzant and not Q.delzant_ok


def geometry(P):
    return (P.normals, P.offsets, P.vertices, P.incidence, P.delzant_ok,
            P._delzant_msg, P.facet_rows)


def test_one_system_is_enumerated_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return vertices_of_system(*args, **kwargs)

    monkeypatch.setattr(polytope, "vertices_of_system", counting)
    # the simplex with a redundant row: not Delzant, so the message counts
    normals, offsets = [[1, 0], [0, 1], [-1, -1], [1, 1]], [0, 0, -3, 0]
    P = make_polytope(normals, offsets, require_delzant=False)
    Q = make_polytope(normals + normals[:1], offsets + offsets[:1],
                      require_delzant=False)
    assert len(calls) == 1
    assert geometry(P) == geometry(Q) and not P.delzant_ok
    assert "lies on 3 facets" in P._delzant_msg
    for a, b in ((P._A, Q._A), (P._b, Q._b), (P.vertices_np, Q.vertices_np)):
        assert np.array_equal(a, b)


def test_offsets_of_every_form_share_one_entry():
    # 1/2 and -1 written as a string, a Fraction, a float and an int
    for half in ("1/2", Fraction(1, 2), 0.5):
        for one in (-1, "-1", Fraction(-1), -1.0):
            P = make_polytope([[1], [-1]], [half, one])
            assert P.offsets == (Fraction(1, 2), Fraction(-1))
            assert all(type(o) is Fraction for o in P.offsets)
    info = polytope._geometry.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 11, 1)


@pytest.mark.parametrize("normals, offsets, msg", [
    ([[1], [-1]], [2, -1], "polytope is empty"),
    ([[1, 0], [0, 1]], [0, 0], "polytope is unbounded"),
    ([[1], [-1]], [1, -1], "polytope is not full-dimensional"),
    ([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, -2, 1, -1],
     "polytope is not full-dimensional"),
])
def test_a_failing_system_raises_on_every_call(normals, offsets, msg):
    for _ in range(3):
        with pytest.raises(PolytopeError, match=f"^{msg}$"):
            make_polytope(normals, offsets, require_delzant=False)
    assert polytope._geometry.cache_info().currsize == 0


def test_delzant_is_required_after_a_build_that_did_not_require_it():
    normals, offsets = [[1, 0], [0, 1], [-1, -2]], [0, 0, -2]
    P = make_polytope(normals, offsets, require_delzant=False)
    assert not P.delzant_ok
    with pytest.raises(DelzantError, match="determinant") as err:
        make_polytope(normals, offsets)
    assert str(err.value) == P._delzant_msg
    assert polytope._geometry.cache_info().hits == 1


def test_shared_views_cannot_be_written():
    P, Q = simplex(), simplex()
    assert P.vertices_np is Q.vertices_np
    for view in (P.vertices_np, P._A, P._b):
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        P.vertices_np += 1.0
    assert Q.vertices_np.tolist() == [[0, 0], [0, 3], [3, 0]]
    assert Q.centroid().tolist() == [1, 1]


def test_membership_tolerance_is_named_once():
    # contains(x, tol=...) is called with the one named slack, never with a
    # number written at the call
    def number(node):
        if isinstance(node, ast.UnaryOp) and isinstance(
                node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and isinstance(
            node.value, (int, float)) and not isinstance(node.value, bool)

    src = Path(polytope.__file__).resolve().parent
    calls, literal = 0, []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "contains"):
                continue
            calls += 1
            tols = node.args[1:] + [k.value for k in node.keywords
                                    if k.arg == "tol"]
            if any(number(t) for t in tols):
                literal.append(f"{path.name}:{node.lineno}")
    assert calls >= 7 and literal == []
    assert polytope.MEMBERSHIP_TOL == 1e-12


def test_crossing_and_convexity_tolerances_are_named_once():
    # no float below 1e-8 is written in src but where a module constant is
    # defined; 1e-10 in smoothing only as its convexity allowance and in
    # quadrature, limits and quantization only as the default tolerance,
    # and 1e-13 only as the rate-fit floor of limits
    def defined(tree, name=None):
        """ids of the nodes under the module-level constant definitions,
        or under the one of ``name``."""
        return {id(n) for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)
                and t.id.lstrip("_").isupper() and name in (None, t.id)
                for n in ast.walk(node.value)}

    src = Path(polytope.__file__).resolve().parent
    stray, seen = [], 0
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        constants = defined(tree)
        # the nodes each value may be written at, where not any constant
        allowed = {1e-13: defined(tree, "RATE_FIT_FLOOR")
                   if path.name == "limits.py" else set()}
        if path.name == "smoothing.py":
            allowed[1e-10] = defined(tree, "_CONVEXITY_ALLOWANCE")
        if path.name in ("quadrature.py", "limits.py", "quantization.py"):
            allowed[1e-10] = defined(tree, "REL_TOL")
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is \
                    float and 0 < abs(node.value) < 1e-8:
                seen += 1
                if id(node) not in allowed.get(node.value, constants):
                    stray.append(f"{path.name}:{node.lineno}")
    assert seen >= 21 and stray == []
    assert polytope.CROSSING_TOL == 1e-14
    assert (quadrature._UNDERFLOW, quadrature._SPLIT_FLOOR,
            quadrature._MIN_WIDTH, generators._OVERLAP_SLACK) == \
        (1e-300, 1e-18, 1e-15, 1e-15)
    assert limits.RATE_FIT_FLOOR == 1e-13
    assert quadrature.REL_TOL == 1e-10
    assert quantization.DEFAULT_REL_TOL[1] is quadrature.REL_TOL
    assert (acceptance.C02_COSINE_BAND, acceptance.C03_PLATEAU_BAND,
            acceptance.C06_LIMIT_REL_TOL, acceptance.C10_VOLUME_DEFECT,
            acceptance.C11_OFF_SPREAD) == (1e-10, 1e-10, 1e-12, 1e-9, 1e-10)
    assert potentials.NEWTON_TOL == 1e-10
    assert (smoothing._LIPSCHITZ_SLACK, smoothing._OFF_WALL_BOUND,
            smoothing._MIN_FACE_MARGIN) == (1e-12, 1e-12, 1e-12)
