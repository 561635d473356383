"""PL decomposition, faces, thickenings, and the Q polytope."""

from fractions import Fraction

import numpy as np
import pytest

from toricray.generators import PLConvex
from toricray.polytope import make_polytope
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
    assert all(dec.delzant_flags.values())


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


def test_central_fiber_counts():
    seg = segment()
    f = PLConvex([((0,), 0), ((1,), -1)])
    dec = decompose(f, seg)
    rep = central_fiber_report(dec, build_Q(f, seg, 1))
    assert rep.piece_count() == 2
    # the two ceiling pieces meet over the wall x = 1 at height K - f = 1
    lifted = {v for _, _, lift, _ in rep.pieces for v in lift}
    assert (F(1), F(1)) in lifted

    f2 = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec2 = decompose(f2, cp2())
    rep2 = central_fiber_report(dec2, build_Q(f2, cp2(), 2))
    assert rep2.piece_count() == 4
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
