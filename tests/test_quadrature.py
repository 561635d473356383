"""The batched zoom pre-split of TriangleMesh.refine against the scalar walk."""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from toricray.quadrature import (TriangleMesh, _diameters_batch,
                                 _split4_batch)

POLYGONS = {
    "simplex": np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
    "square": np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]),
    "hexagon": np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [2.0, 2.0],
                         [1.0, 2.0], [0.0, 1.0]]),
}


def reference_presplit(work, predicate, target, max_leaves):
    """The scalar depth-first pre-split: one predicate call per triangle.

    Returns the leaves and the target the walk ended at.
    """
    budget = max(len(work) + 16, max_leaves // 3)
    while True:
        out = []
        stack = list(work)
        over = False
        while stack:
            tri = stack.pop()
            diam = max(np.linalg.norm(tri[0] - tri[1]),
                       np.linalg.norm(tri[1] - tri[2]),
                       np.linalg.norm(tri[2] - tri[0]))
            if diam > target and predicate(tri):
                stack.extend(_split4_batch(tri[None]))
                if len(out) + len(stack) > budget:
                    over = True
                    break
            else:
                out.append(tri)
        if not over:
            return np.array(out), target
        target *= 2.0


def _disc(center, radius):
    center = np.asarray(center, dtype=float)

    def pred(tris):
        # the triangle may meet the disc
        d = tris.mean(axis=1) - center
        return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]) < \
            radius + _diameters_batch(tris)
    return pred


def _cloud():
    # a wall x = 1 plus scattered points, as the density zoom sees it
    rng = np.random.default_rng(3)
    wall = np.stack([np.ones(40), np.linspace(0.0, 2.0, 40)], axis=1)
    return np.vstack([wall, rng.uniform(0.0, 2.0, size=(15, 2))])


def _near_cloud_pair():
    tree = cKDTree(_cloud())

    def scalar(tri):
        c = tri.mean(axis=0)
        diam = max(np.linalg.norm(tri[0] - tri[1]),
                   np.linalg.norm(tri[1] - tri[2]),
                   np.linalg.norm(tri[2] - tri[0]))
        d, _ = tree.query(c)
        return d <= diam

    def batch(tris):
        d, _ = tree.query(tris.mean(axis=1))
        return d <= _diameters_batch(tris)
    return scalar, batch


def _predicates():
    disc = _disc([0.7, 0.9], 0.3)
    near_scalar, near_batch = _near_cloud_pair()
    return {
        "all": (lambda tri: True, lambda tris: np.ones(len(tris), bool)),
        "none": (lambda tri: False, lambda tris: np.zeros(len(tris), bool)),
        "disc": (lambda tri: bool(disc(tri[None])[0]), disc),
        "near_cloud": (near_scalar, near_batch),
    }


def _roots(polygon, depth):
    work = TriangleMesh(polygon)._initial
    for _ in range(depth):
        work = _split4_batch(work)
    return work


def _zoomed_mesh(polygon, batch, target, max_leaves, depth):
    """Pre-split only: a constant driver and rel_tol 1 stop refinement."""
    calls = []

    def recording(tris):
        calls.append(tris.copy())
        return batch(tris)
    mesh = TriangleMesh(polygon)
    mesh.refine(lambda X: np.ones(len(X)), rel_tol=1.0,
                max_leaves=max_leaves, presplit_depth=depth,
                zoom=(recording, target))
    return mesh, calls


def _check_targets(calls, roots, target):
    """Each pass starts with a call on roots; pass j runs at target * 2**j."""
    root_set = {tri.tobytes() for tri in roots}
    passes = -1
    for tris in calls:
        if all(tri.tobytes() in root_set for tri in tris):
            passes += 1
        assert len(tris) > 0
        assert np.all(_diameters_batch(tris) > target * 2.0 ** passes)
    return passes + 1


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("name", ["all", "none", "disc", "near_cloud"])
@pytest.mark.parametrize("poly", sorted(POLYGONS))
def test_batched_presplit_matches_scalar_walk(poly, name, depth):
    polygon = POLYGONS[poly]
    scalar, batch = _predicates()[name]
    target = 0.15
    roots = _roots(polygon, depth)
    want, final = reference_presplit(roots, scalar, target, 60000)
    assert final == target
    mesh, calls = _zoomed_mesh(polygon, batch, target, 60000, depth)
    assert mesh.tris.tobytes() == want.tobytes()
    assert mesh.presplit_leaves == len(want) and mesh.rounds == 0
    assert _check_targets(calls, roots, target) == 1


@pytest.mark.parametrize("name", ["all", "disc", "near_cloud"])
def test_batched_presplit_matches_under_target_doubling(name):
    polygon = POLYGONS["square"]
    scalar, batch = _predicates()[name]
    target, max_leaves = 0.02, 900
    roots = _roots(polygon, 1)
    want, final = reference_presplit(roots, scalar, target, max_leaves)
    assert final >= 4.0 * target
    mesh, calls = _zoomed_mesh(polygon, batch, target, max_leaves, 1)
    assert mesh.tris.tobytes() == want.tobytes()
    assert len(want) <= max_leaves // 3
    assert _check_targets(calls, roots, target) >= 3


@pytest.mark.parametrize("max_leaves, leaves", [(3072, 1024), (3071, 256)])
def test_presplit_budget_boundary(max_leaves, leaves):
    # four fan pieces of diameter 2 split four times to reach 0.15: exactly
    # 1024 leaves, within a budget of 3072 // 3 but not of 3071 // 3
    polygon = POLYGONS["square"]
    scalar, batch = _predicates()["all"]
    want, _ = reference_presplit(_roots(polygon, 0), scalar, 0.15, max_leaves)
    assert len(want) == leaves
    mesh, _ = _zoomed_mesh(polygon, batch, 0.15, max_leaves, 0)
    assert mesh.tris.tobytes() == want.tobytes()


def test_refine_records_presplit_leaves_and_rounds():
    mesh = TriangleMesh(POLYGONS["hexagon"])
    fan = len(mesh._initial)
    mesh.refine(lambda X: np.exp(-40.0 * np.sum((X - 1.3) ** 2, axis=-1)),
                rel_tol=1e-9, presplit_depth=2)
    assert mesh.presplit_leaves == 16 * fan
    assert mesh.rounds >= 2
    # each round splits at least one leaf in four
    assert len(mesh.tris) >= mesh.presplit_leaves + 3 * mesh.rounds


def test_diameters_batch_matches_edge_norms():
    rng = np.random.default_rng(11)
    tris = rng.standard_normal((2000, 3, 2)) * \
        rng.uniform(1e-6, 10.0, size=(2000, 1, 1))
    want = [max(np.linalg.norm(t[0] - t[1]), np.linalg.norm(t[1] - t[2]),
                np.linalg.norm(t[2] - t[0])) for t in tris]
    assert _diameters_batch(tris).tobytes() == np.array(want).tobytes()


def test_fan_drops_degenerate_triangles():
    square = POLYGONS["square"]
    # a repeated vertex gives a zero-area fan piece, which is dropped; a
    # point inside an edge splits that edge's piece in two
    padded = np.vstack([square, square[:1], [[1.0, 0.0]]])
    fan = TriangleMesh(padded)._initial
    assert len(fan) == 5
    d1, d2 = fan[:, 1] - fan[:, 0], fan[:, 2] - fan[:, 0]
    assert np.all(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0] > 0)
