"""PL decomposition, faces, thickenings, and the Q polytope."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricray import polytope, testconfig
from toricray._exact import (SaturationError, det_exact, dot, primitivize,
                             rank_exact)
from toricray.generators import PLConvex
from toricray.polytope import (PolytopeError, face_frame, make_polytope,
                               vertices_of_system)
from toricray.testconfig import (build_Q, central_fiber_report, decompose,
                                 nondiff_locus, thickening_mask,
                                 thickening_membership)


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def segment(N=2):
    return make_polytope([[1], [-1]], [0, -N])


F = Fraction


def test_single_wall_locus():
    f = PLConvex([((0, 0), 0), ((1, 0), -1)])
    faces = nondiff_locus(f, cp2())
    assert len(faces) == 1
    face = faces[0]
    assert face.codim == 1
    assert face.normals == ((1, 0),)
    assert set(face.vertices) == {(F(1), F(0)), (F(1), F(2))}
    assert face.frame is not None


def test_corner_locus_includes_diagonal():
    # pieces 0, x1-1, x2-1: two axis walls, a diagonal wall, and the corner
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])
    faces = nondiff_locus(f, cp2())
    by_codim = {}
    for face in faces:
        by_codim.setdefault(face.codim, []).append(face)
    assert len(by_codim[1]) == 3
    assert len(by_codim[2]) == 1
    assert by_codim[2][0].vertices == ((F(1), F(1)),)
    normals = {face.normals[0] for face in by_codim[1]}
    assert (1, 0) in normals and (0, 1) in normals
    assert (1, -1) in normals or (-1, 1) in normals


def test_never_active_piece_pruned():
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((1, 0), -5)])
    faces = nondiff_locus(f, cp2())
    assert len(faces) == 1
    dec = decompose(f, cp2())
    assert len(dec.subpolytopes) == 2
    # a piece under a parallel one has no region, even with no third piece
    dec = decompose(PLConvex([((0, 1), 0), ((0, 1), 1)]), cp2())
    assert [i for i, _ in dec.subpolytopes] == [1]
    assert dec.volume_defect() == 0


def test_decompose_single_wall_vertex_sets():
    f = PLConvex([((0, 0), 0), ((1, 0), -1)])
    dec = decompose(f, cp2())
    regions = {i: set(Q.vertices) for i, Q in dec.subpolytopes}
    assert regions[0] == {(F(0), F(0)), (F(1), F(0)), (F(1), F(2)),
                          (F(0), F(3))}
    assert regions[1] == {(F(1), F(0)), (F(3), F(0)), (F(1), F(2))}
    assert dec.volume_defect() == 0
    assert dec.activity_consistency_exact()
    assert all(Q.delzant_ok for _, Q in dec.subpolytopes)


def test_decompose_affine_piece_trivial():
    f = PLConvex([((1, 0), 2)])
    dec = decompose(f, cp2())
    assert len(dec.subpolytopes) == 1
    assert dec.faces == []


def test_two_wall_decomposition_counts():
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec = decompose(f, cp2())
    assert len(dec.subpolytopes) == 4
    assert dec.volume_defect() == 0
    codims = sorted(face.codim for face in dec.faces)
    assert codims == [1, 1, 1, 1, 2]


def test_three_wall_corner_in_three_dimensions():
    # max(0, x1 - 1, x2 - 1, x3 - 1) on the side-3 simplex: four pieces
    # whose exact volumes sum to the simplex's 9/2
    f = PLConvex([((0, 0, 0), 0), ((1, 0, 0), -1), ((0, 1, 0), -1),
                  ((0, 0, 1), -1)])
    P = make_polytope([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                      [0, 0, 0, -3])
    dec = decompose(f, P)
    assert len(dec.subpolytopes) == 4
    assert P.volume_exact() == F(9, 2)
    assert dec.volume_defect() == 0
    assert dec.activity_consistency_exact()


def test_every_point_attributed_once():
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec = decompose(f, cp2())
    rng = np.random.default_rng(8)
    eps = 0.05
    for _ in range(300):
        x = rng.uniform(0, 3, size=2)
        if not dec.polytope.contains(x, tol=-1e-9):
            continue
        inside, face = thickening_membership(dec, eps, x)
        strict_owners = [i for i, Q in dec.subpolytopes
                         if np.min(Q.ell(x)) > 1e-12]
        if inside:
            assert face is not None
        else:
            # off the thickening the point lies in exactly one open region
            assert len(strict_owners) == 1


def test_thickening_attribution_rules():
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec = decompose(f, cp2())
    eps = 0.1
    inside, face = thickening_membership(dec, eps, np.array([1.05, 0.5]))
    assert inside and face.codim == 1
    inside, face = thickening_membership(dec, eps, np.array([1.2, 0.5]))
    assert not inside
    inside, face = thickening_membership(dec, eps, np.array([1.05, 1.05]))
    assert inside and face.codim == 2  # minimal-dimension rule at the corner


def test_thickening_nesting():
    f = PLConvex([((0, 0), 0), ((1, 0), -1)])
    dec = decompose(f, cp2())
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = rng.uniform(0, 3, size=2)
        if not dec.polytope.contains(x, tol=-1e-9):
            continue
        small, _ = thickening_membership(dec, 0.05, x)
        big, _ = thickening_membership(dec, 0.1, x)
        assert big or not small


def test_build_q_hand_example():
    f = PLConvex([((0,), 0), ((1,), -1)])
    q = build_Q(f, segment(), 1)
    assert set(q.vertices) == {(F(0), F(0)), (F(2), F(0)),
                               (F(0), F(1)), (F(1), F(1))}
    assert q.integral


def test_build_q_prism():
    q = build_Q(PLConvex([((0,), 0)]), segment(), 1)
    assert set(q.vertices) == {(F(0), F(0)), (F(2), F(0)),
                               (F(0), F(1)), (F(2), F(1))}
    assert q.integral


def test_build_q_non_integral_flagged():
    P = make_polytope([[1], [-1]], [0, -1])
    q = build_Q(PLConvex([((0,), 0), ((1,), F(-1, 2))]), P, 1)
    assert not q.integral
    assert (F(1, 2), F(1)) in set(q.vertices)


def test_build_q_rejects_low_ceiling():
    f = PLConvex([((0,), 0), ((1,), -1)])
    with pytest.raises(ValueError):
        build_Q(f, segment(), F(1, 2))


def test_build_q_rejects_a_flat_polytope():
    # f = K on all of P leaves Q = P x {0}
    with pytest.raises(PolytopeError,
                       match="^polytope is not full-dimensional$"):
        build_Q(PLConvex([((0,), 1)]), segment(), 1)


def test_central_fiber_counts():
    seg = segment()
    f = PLConvex([((0,), 0), ((1,), -1)])
    dec = decompose(f, seg)
    rep = central_fiber_report(dec, build_Q(f, seg, 1))
    assert len(rep.pieces) == 2
    # the two ceiling pieces meet over the wall x = 1 at height K - f = 1
    lifted = {v for _, _, lift, _ in rep.pieces for v in lift}
    assert (F(1), F(1)) in lifted

    f2 = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec2 = decompose(f2, cp2())
    rep2 = central_fiber_report(dec2, build_Q(f2, cp2(), 2))
    assert len(rep2.pieces) == 4
    assert "4 ceiling piece" in rep2.as_text()


def test_face_frames_on_two_wall_config():
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec = decompose(f, cp2())
    for face in dec.faces:
        assert face.frame is not None
        # transverse coordinates equal the offsets on the face vertices
        for v in face.vertices:
            xt = face.frame.to_frame(np.array([float(c) for c in v]))
            trans = xt[face.frame.n_parallel:]
            assert np.max(np.abs(trans - face.frame.offsets_np)) < 1e-12


def _edge_grid(eps):
    """Coordinates on a 0.1 grid plus every slab edge, edge +- one ulp and
    half-slab offset of the walls x = 1 and the diagonal through (1, 1)."""
    vals = {float(v) for v in np.linspace(0.0, 3.0, 31)}
    for c in (0.0, 1.0, 2.0):
        for o in (eps, -eps, 0.5 * eps, -0.5 * eps):
            vals.update((c + o, np.nextafter(c + o, 0.0),
                         np.nextafter(c + o, 3.0)))
    v = np.array(sorted(vals))
    return np.stack(np.meshgrid(v, v), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize("eps", [0.02, 0.04, 0.06])
@pytest.mark.parametrize("pieces", [
    [((0, 0), 0), ((1, 0), -1), ((0, 1), -1)],
    [((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)],
], ids=["corner", "two-wall"])
def test_thickening_mask_matches_membership(pieces, eps):
    dec = decompose(PLConvex(pieces), cp2())
    X = _edge_grid(eps)
    verts = [[float(c) for c in v] for F in dec.faces for v in F.vertices]
    X = np.vstack([X, verts, dec.polytope.vertices_np])
    want = np.array([thickening_membership(dec, eps, x)[0] for x in X])
    got = thickening_mask(dec, eps, X)
    assert got.dtype == bool and got.shape == (len(X),)
    assert np.array_equal(got, want)
    assert 0 < want.sum() < len(X)


def test_thickening_slab_is_open():
    # eps = 1/4 is exact in binary: the slab edge of the wall x1 = 1 lies
    # exactly at x1 = 1.25 and belongs to no slab
    dec = decompose(PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1),
                              ((1, 1), -2)]), cp2())
    X = np.array([[1.25, 0.5], [np.nextafter(1.25, 0.0), 0.5],
                  [0.75, 0.5], [np.nextafter(0.75, 2.0), 0.5]])
    want = [False, True, False, True]
    assert [thickening_membership(dec, 0.25, x)[0] for x in X] == want
    assert thickening_mask(dec, 0.25, X).tolist() == want


def affine_hull(rows, rhs, n):
    """(x0, null) with {rows @ x = rhs} = x0 + span(null), by Gauss-Jordan
    over Fractions; None when the system is inconsistent."""
    mat = [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(n + 1):
        r = len(pivots)
        piv = next((k for k in range(r, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            continue
        if col == n:
            return None
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for k in range(len(mat)):
            if k != r:
                c = mat[k][col]
                mat[k] = [v - c * w for v, w in zip(mat[k], mat[r])]
        pivots.append(col)
    x0 = [F(0)] * n
    for row, pc in zip(mat, pivots):
        x0[pc] = row[n]
    null = []
    for fc in (c for c in range(n) if c not in pivots):
        u = [F(int(i == fc)) for i in range(n)]
        for row, pc in zip(mat, pivots):
            u[pc] = -row[fc]
        null.append(u)
    return x0, null


def reference_face(f, P, subset):
    """A kink face by restriction: the rows of P and of the other pieces
    restricted to the affine hull x0 + span(null) of the subset's ties,
    their vertices mapped back, and the active set at the barycenter."""
    n = P.dim
    (g0, b0), rest = f.pieces[subset[0]], [f.pieces[i] for i in subset[1:]]
    diffs = [[a - c for a, c in zip(g, g0)] for g, _ in rest]
    rhs = [b0 - b for _, b in rest]
    hull = affine_hull(diffs, rhs, n)
    if hull is None or len(hull[1]) == n:
        return None
    x0, null = hull
    others = [([c - a for c, a in zip(g0, g)], b - b0)
              for k, (g, b) in enumerate(f.pieces) if k not in subset]
    rows = [*zip(P.normals, P.offsets), *others]
    restricted = vertices_of_system(
        [[dot(v, u) for u in null] for v, _ in rows],
        [lam - dot(v, x0) for v, lam in rows], len(null))
    verts = sorted({tuple(x0[i] + sum(c * u[i] for c, u in zip(w, null))
                          for i in range(n)) for w, _ in restricted})
    if not verts or rank_exact([[a - b for a, b in zip(v, verts[0])]
                                for v in verts[1:]]) != len(null):
        return None
    bary = [sum(v[i] for v in verts) / len(verts) for i in range(n)]
    vals = [dot(g, bary) + b for g, b in f.pieces]
    if {i for i, v in enumerate(vals) if v == max(vals)} != set(subset):
        return None
    indep = []
    for k in range(len(diffs)):
        if rank_exact([diffs[i] for i in [*indep, k]]) > len(indep):
            indep.append(k)
    normals = [primitivize(diffs[k])[0] for k in indep]
    offsets = [dot(nu, x0) for nu in normals]
    try:
        frame, err = face_frame(P, normals, offsets), None
    except (SaturationError, PolytopeError) as exc:
        frame, err = None, str(exc)
    shadow = []
    if frame is not None:
        npar = frame.n_parallel
        for w, lam in others:
            coef = [dot(w, col) for col in zip(*frame.inverse)]
            if any(coef[:npar]):
                shadow.append((coef[:npar], lam - dot(coef[npar:],
                                                      frame.offsets)))
    return (frozenset(subset), n - len(null), tuple(normals), tuple(offsets),
            tuple(verts), frame and frame.matrix, err, shadow)


def hirzebruch():
    return make_polytope([[1, 0], [0, 1], [-1, -1], [0, -1]], [0, 0, -3, -2])


def hexagon():
    return make_polytope([[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
                         [0, 0, 1, -3, -3, -5])


def cp3(N=3):
    return make_polytope([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                         [0, 0, 0, -N])


BASES = {"cp2": cp2(), "f1": hirzebruch(), "hexagon": hexagon(), "cp3": cp3()}
slopes = st.sampled_from(sorted({F(a, d) for d in (1, 2, 3)
                                 for a in range(-2 * d, 2 * d + 1)}))


@st.composite
def pl_on_base(draw):
    """1-4 pieces whose half-integer offsets put them near a tie at a
    lattice point p of P, so that most kink faces meet P."""
    P = BASES[draw(st.sampled_from(sorted(BASES)))]
    p = draw(st.sampled_from(P.integral_points()))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        g = draw(st.tuples(*[slopes] * P.dim))
        b = F(round(-2 * dot(g, p)) + draw(st.integers(-2, 2)), 2)
        pieces.append((g, b))
    return PLConvex(pieces), P


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pl_on_base())
def test_faces_match_the_restriction_reference(case):
    f, P = case
    want = [face for size in range(2, f.npieces + 1)
            for subset in combinations(range(f.npieces), size)
            if (face := reference_face(f, P, subset)) is not None]
    want.sort(key=lambda face: (face[1], sorted(face[0])))
    got = nondiff_locus(f, P)
    assert len(got) == len(want)
    for face, (active, codim, normals, offsets, verts, matrix, err,
               shadow) in zip(got, want):
        assert (face.active, face.codim, face.normals, face.offsets,
                face.vertices) == (active, codim, normals, offsets, verts)
        assert all(type(c) is F for c in (*face.offsets, *sum(verts, ())))
        assert (face.frame and face.frame.matrix, face.frame_error) == (
            matrix, err)
        assert [(list(c), r) for c, r in face._shadow or ()] == [
            ([float(x) for x in c], float(r)) for c, r in shadow]


@st.composite
def pl_with_repeats(draw):
    """``pl_on_base`` with a duplicated piece and a parallel piece below
    another sometimes added, in a drawn order."""
    f, P = draw(pl_on_base())
    pieces = list(f.pieces)
    if draw(st.booleans()):
        pieces.append(draw(st.sampled_from(pieces)))
    if draw(st.booleans()):
        g, b = draw(st.sampled_from(pieces))
        pieces.append((g, b - draw(st.sampled_from([F(1, 2), F(1)]))))
    return PLConvex(draw(st.permutations(pieces))), P


def affine_dim(points):
    return rank_exact([[a - b for a, b in zip(p, points[0])]
                       for p in points[1:]]) if points else -1


def reference_regions(f, P):
    """Each region P_i as the system of all rows of P and all kink rows
    a_i >= a_k, with the rows that support no facet pruned: (i, normals,
    offsets, vertices, incidence, delzant_ok)."""
    n, out, seen = P.dim, [], set()
    for i, (g, b) in enumerate(f.pieces):
        if (g, b) in seen or any(gk == g and bk > b for gk, bk in f.pieces):
            continue
        seen.add((g, b))
        rows = list(zip(P.normals, P.offsets))
        for gk, bk in f.pieces:
            if gk != g:
                nu, scale = primitivize([a - c for a, c in zip(g, gk)])
                rows.append((nu, (bk - b) * scale))
        try:
            R = make_polytope(*zip(*rows), require_delzant=False)
        except PolytopeError:
            continue
        keep = [j for j in range(len(R.normals))
                if affine_dim([v for v, t in zip(R.vertices, R.incidence)
                               if j in t]) == n - 1]
        incidence = tuple(frozenset(keep.index(j) for j in t if j in keep)
                          for t in R.incidence)
        delzant = all(len(t) == n and abs(det_exact(
            [R.normals[keep[j]] for j in sorted(t)])) == 1 for t in incidence)
        out.append((i, tuple(R.normals[j] for j in keep),
                    tuple(R.offsets[j] for j in keep), R.vertices, incidence,
                    delzant))
    return out


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pl_with_repeats())
def test_regions_match_the_pruned_reference(case):
    f, P = case
    dec = decompose(f, P)
    assert [(i, R.normals, R.offsets, R.vertices, R.incidence, R.delzant_ok)
            for i, R in dec.subpolytopes] == reference_regions(f, P)
    for _, R in dec.subpolytopes:
        for j in range(len(R.normals)):
            assert affine_dim([v for v, t in zip(R.vertices, R.incidence)
                               if j in t]) == P.dim - 1
    # a region read off the table is the polytope its rows enumerate afresh
    for _, R in dec.subpolytopes:
        polytope._geometry.cache_clear()
        fresh = make_polytope(R.normals, R.offsets, require_delzant=False)
        assert (R.dim, R.normals, R.offsets, R.corrected, R.vertices,
                R.incidence, R.delzant_ok, R._delzant_msg, R.facet_rows,
                R.volume_exact()) == (
            fresh.dim, fresh.normals, fresh.offsets, fresh.corrected,
            fresh.vertices, fresh.incidence, fresh.delzant_ok,
            fresh._delzant_msg, fresh.facet_rows, fresh.volume_exact())
        for view in ("_A", "_b", "vertices_np"):
            assert np.array_equal(getattr(R, view), getattr(fresh, view))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(pl_with_repeats())
def test_q_matches_its_halfspace_system(case):
    f, P = case
    n = P.dim
    for K in (f.max_over(P) + d for d in (0, F(1, 2), 3)):
        found = vertices_of_system(
            [*((*v, 0) for v in P.normals), (0,) * n + (1,),
             *((*(-c for c in g), -1) for g, _ in f.pieces)],
            [*P.offsets, 0, *(b - K for _, b in f.pieces)], n + 1)
        want = tuple(v for v, _ in found)
        if affine_dim(want) < n + 1:
            with pytest.raises(PolytopeError,
                               match="^polytope is not full-dimensional$"):
                build_Q(f, P, K)
            continue
        q = build_Q(f, P, K)
        assert q.vertices == want
        assert q.integral == all(c.denominator == 1 for v in want for c in v)


@pytest.mark.parametrize("pieces, P", [
    ([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)], cp2()),
    ([((0, 0, 0), 0), ((1, 0, 0), -1), ((0, 1, 0), -1), ((0, 0, 1), -1)],
     cp3()),
], ids=["cp2-corner", "cp3-corner"])
def test_one_vertex_enumeration_per_call(monkeypatch, pieces, P):
    # the regions of a decomposition are read off its table: no polytope
    # built on the way enumerates its own vertices
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return vertices_of_system(*args, **kwargs)

    monkeypatch.setattr(testconfig, "vertices_of_system", counting)
    monkeypatch.setattr(polytope, "vertices_of_system", counting)
    f = PLConvex(pieces)
    for call in (decompose, nondiff_locus, lambda f, P: build_Q(f, P, 2)):
        calls.clear()
        call(f, P)
        assert len(calls) == 1


@pytest.mark.parametrize("pieces, P, most", [
    ([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)], cp2(), 3),
    ([((0, 0, 0), 0), ((1, 0, 0), -1), ((0, 1, 0), -1), ((0, 0, 1), -1)],
     cp3(), 34),
], ids=["cp2-corner", "cp3-corner"])
def test_vertex_counts_decide_most_rank_tests(monkeypatch, pieces, P, most):
    # a set of fewer than d + 1 distinct vertices spans no d-flat, and two
    # span a line: only the other sets take an exact rank test (25 on the
    # CP2 corner and 47 on the CP3 corner with one per set)
    calls = []
    rank = testconfig._affine_dim
    monkeypatch.setattr(testconfig, "_affine_dim",
                        lambda points: calls.append(len(points)) or
                        rank(points))
    dec = decompose(PLConvex(pieces), P)
    assert len(calls) <= most
    monkeypatch.undo()
    assert len(dec.subpolytopes) == P.dim + 1
    assert dec.volume_defect() == 0
