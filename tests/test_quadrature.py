"""The quadrature engines against test-local references.

1-D: the level-by-level panel engine against the heap refinement it
replaced, closed forms and its panel budget.  2-D: the iterated panels of
``integrate_polytope`` against exact polynomial integrals, an erf product,
and TriangleMesh, which stays as an independent reference.  3-D: the same
engine against Dirichlet integrals over simplices, a prism and a kink
plane.  The zoom pre-split, which splits a reference mesh's triangles near
a set of lines before refinement, lives here with its scalar reference
walk.
"""

import ast
import heapq
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import erf
from scipy.spatial import cKDTree

from toricray import quadrature, scenarios
from toricray.generators import (BumpSpec, Generator, build_bump_generator,
                                 build_wall_sum)
from toricray.limits import battery_for, region_mean
from toricray.polytope import make_polytope
from toricray.quadrature import (REL_TOL, QuadratureError, TriangleMesh,
                                 _split4_batch, adaptive_panels,
                                 integrate_on_panels, integrate_polytope,
                                 log_integral_1d, panel_nodes)
from toricray.quantization import MonomialDensity, density_family
from toricray.smoothing import build_nice_smoothing

POLYGONS = {
    "simplex": np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]),
    "square": np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]]),
    "hexagon": np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 1.0], [2.0, 2.0],
                         [1.0, 2.0], [0.0, 1.0]]),
}


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


def zoom_presplit(work, predicate, target, max_leaves):
    """Triangles of ``work`` for which the predicate holds, split until
    their diameter drops below target.

    The predicate takes a (B, 3, 2) batch of triangles, all of diameter
    above the current target, and returns a bool (B,) array; it is called
    once per split level.  While the pre-split would end with more than
    max(n + 16, max_leaves // 3) leaves, n the leaves before it, the target
    is doubled and the pre-split redone.
    """
    budget = max(len(work) + 16, max_leaves // 3)
    while True:
        zoomed = _zoom_pass(work, predicate, target, budget)
        if zoomed is not None:
            return zoomed
        target *= 2.0


def zoomed_mesh(polygon, predicate, target, max_leaves=30000, depth=0):
    """A TriangleMesh whose fan, split ``depth`` times, is zoom pre-split
    before refinement (refine with the same ``max_leaves``)."""
    mesh = TriangleMesh(polygon)
    mesh._initial = zoom_presplit(_roots(polygon, depth), predicate, target,
                                  max_leaves)
    return mesh


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
    mesh = zoomed_mesh(polygon, recording, target, max_leaves, depth)
    mesh.refine(lambda X: np.ones(len(X)), rel_tol=1.0,
                max_leaves=max_leaves)
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


# ---------------------------------------------------------------------------
# 1-D panels
# ---------------------------------------------------------------------------

def test_gauss_kronrod_degrees():
    # K15 integrates the monomials exactly to degree 23, G7 to degree 13,
    # and neither beyond
    for rule, degree in ((quadrature.GK15_WEIGHTS, 23),
                         (quadrature.G7_WEIGHTS, 13)):
        for d in range(degree + 3):
            miss = abs(quadrature.GK15_NODES ** d @ rule
                       - (1 + (-1) ** d) / (d + 1))
            assert (miss <= 1e-14) == (d <= degree or d % 2 == 1), d
    # G7 lives on every other Kronrod node
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(quadrature.GK15_NODES[1::2], nodes, rtol=0,
                       atol=1e-15)
    assert np.allclose(quadrature.G7_WEIGHTS[1::2], weights, rtol=0,
                       atol=1e-15)
    assert not quadrature.G7_WEIGHTS[::2].any()


# the 15-point Gauss-Legendre rule on [-1, 1] of the heap reference
GL15_NODES, GL15_WEIGHTS = np.polynomial.legendre.leggauss(15)


def _gl_panel(f, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.asarray(f(mid + half * GL15_NODES), dtype=float)
                        @ GL15_WEIGHTS)


def reference_panels(f, a, b, *, rel_tol=1e-10, seeds=(), max_panels=20000,
                     abs_floor=1e-300):
    """The heap refinement: split the worst panel, three rule calls each."""
    cuts = sorted({float(a), float(b), *(float(s) for s in seeds
                                         if a < float(s) < b)})
    heap = []
    counter = 0
    total = 0.0

    def push(lo, hi):
        nonlocal counter, total
        coarse = _gl_panel(f, lo, hi)
        mid = 0.5 * (lo + hi)
        fine = _gl_panel(f, lo, mid) + _gl_panel(f, mid, hi)
        total += fine
        heapq.heappush(heap, (-abs(fine - coarse), counter, lo, hi, fine))
        counter += 1

    for lo, hi in zip(cuts[:-1], cuts[1:]):
        push(lo, hi)
    while len(heap) < max_panels:
        if -sum(item[0] for item in heap) <= rel_tol * abs(total) + abs_floor:
            break
        neg_err, _, lo, hi, fine = heapq.heappop(heap)
        if -neg_err <= 1e-18 * abs(total) + abs_floor or hi - lo < 1e-15:
            heapq.heappush(heap, (0.0, counter, lo, hi, fine))
            break
        total -= fine
        mid = 0.5 * (lo + hi)
        push(lo, mid)
        push(mid, hi)
    panels = sorted((item[2], item[3]) for item in heap)
    return math.fsum(item[4] for item in heap), panels


def _segment(N):
    return make_polytope([[1], [-1]], [0, -N])


def _density_cases():
    """(label, polytope, generator, m, s, weighted): the s = 0 Beta masses
    of criterion 1, the cosine-bump densities of criterion 4 and the
    smooth-kernel delta densities, at both ends of their s grid."""
    cases = []
    for N in (1, 2, 3):
        P = _segment(N)
        gen = build_bump_generator(P, [])
        cases += [(f"beta-N{N}-n{n}", P, gen, [n], 0.0, True)
                  for n in range(N + 1)]
    for kernel in ("cosine", "smooth"):
        sc = scenarios.segment(kernel)
        cases += [(f"{kernel}-s{s}-{'weighted' if w else 'bare'}",
                   sc.polytope, sc.generator, [1], float(s), w)
                  for s in (32, 4096) for w in (False, True)]
    return cases


@pytest.mark.parametrize("case", _density_cases(), ids=lambda c: c[0])
def test_panels_agree_with_heap_reference(case):
    _, P, gen, m, s, weighted = case
    md = MonomialDensity(P, gen, m, s, weighted=weighted)
    # the heap refinement of the same driver, seeded at m and the slab ends
    ref = float(md.log_gap_density(np.array([m], dtype=float))[0])
    driver = lambda t: np.exp(md.log_gap_density(np.asarray(t)[..., None])
                              - ref)
    seeds = [float(m[0])] + [c for _, lo, hi in gen.support for c in (lo, hi)]
    value, panels = reference_panels(driver, 0.0, float(P.bbox()[1][0]),
                                     rel_tol=md.rel_tol, seeds=seeds)
    ref_mass = ref + math.log(value) + s * md.psi_m
    # the masses (hence the normalized densities) agree within rel_tol
    assert abs(md.log_mass() - ref_mass) <= md.rel_tol
    # each pairing against scipy's quad, given the ends of the bump's
    # support, which no cut of the density follows, and the centroid
    N = float(P.bbox()[1][0])
    c, w = float(P.centroid()[0]), P.diameter() / 3.0
    points = [t for t in (c - w, c, c + w) if 0.0 < t < N]
    for tau in battery_for(P):
        want, _ = quad(lambda t: float(driver(np.array([t]))[0]
                                       * tau(np.array([[t]]))[0]),
                       0.0, N, points=points, epsabs=1e-13, epsrel=1e-12,
                       limit=200)
        assert md.pair(tau) == pytest.approx(want / value, abs=1e-9)
    if s == 0.0:
        n = m[0]
        beta = N ** (N / 2 + 1) * beta_fn(n / 2 + 1, (N - n) / 2 + 1)
        assert abs(md.log_mass() - math.log(beta)) <= md.rel_tol


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-12])
def test_gaussian_peak_against_erf(rel_tol):
    s = 1e4
    value, panels = adaptive_panels(
        lambda x: np.exp(-s * (x - 1.0) ** 2), 0.0, 3.0, rel_tol=rel_tol)
    exact = 0.5 * math.sqrt(math.pi / s) * (erf(2.0 * math.sqrt(s))
                                            + erf(math.sqrt(s)))
    assert abs(value / exact - 1.0) <= rel_tol
    # the panels tile [0, 3] in order
    lo, hi = np.array(panels).T
    assert lo[0] == 0.0 and hi[-1] == 3.0 and np.all(lo[1:] == hi[:-1])


def test_panel_budget_is_never_exceeded(monkeypatch):
    peak = lambda x: np.exp(-1e4 * (x - 0.3) ** 2) + 1e-3 * np.sin(40.0 * x)
    natural = len(adaptive_panels(peak, 0.0, 2.0, rel_tol=1e-12)[1])
    converged = raised = 0
    for budget in range(2, natural + 4):
        monkeypatch.setattr(quadrature, "MAX_PANELS", budget)
        try:
            _, panels = adaptive_panels(peak, 0.0, 2.0, rel_tol=1e-12)
        except QuadratureError as exc:
            assert f"exhausted {budget} panels" in str(exc)
            raised += 1
            continue
        assert len(panels) <= budget
        converged += 1
    assert converged and raised


def test_budget_splits_largest_errors_first(monkeypatch):
    # ten seeded panels, each with a kink; the peak makes [1.0, 1.2] the
    # worst, and a budget of eleven panels allows one split
    calls = []

    def integrand(x):
        calls.append(np.array(x))
        return (np.exp(-1e4 * (x - 1.13) ** 2)
                + np.abs(np.sin(5.0 * np.pi * x + 0.3)) ** 1.5)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 11)
    with pytest.raises(QuadratureError, match="exhausted 11 panels"):
        adaptive_panels(integrand, 0.0, 2.0, seeds=np.linspace(0.2, 1.8, 9))
    assert len(calls) == 2
    assert np.all((calls[1] > 1.0) & (calls[1] < 1.2))


@pytest.mark.parametrize("seeds", [(), tuple(np.linspace(0.1, 2.9, 9))])
def test_tiny_budget_on_a_peak_raises(seeds, monkeypatch):
    # nine seeds already give ten panels, more than the budget of four
    monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
    with pytest.raises(QuadratureError, match="exhausted 4 panels"):
        adaptive_panels(lambda x: np.exp(-1e4 * (x - 1.1) ** 2), 0.0, 3.0,
                        seeds=seeds)


SPIKE = lambda x: 1.0 / np.sqrt(np.abs(x - 1.0 / math.pi) + 1e-24)


def test_width_floor_within_budget_raises():
    # an integrable spike refined down to the 1e-15 width floor on about a
    # hundred panels, far inside the budget, still about 1e-5 off
    with pytest.raises(QuadratureError, match=r"width floor on (\d+) panels: "
                       r"relative error \S+e-05") as exc:
        adaptive_panels(SPIKE, 0.0, 1.0, rel_tol=1e-10)
    panels = int(re.search(r"on (\d+) panels", str(exc.value)).group(1))
    assert panels < quadrature.MAX_PANELS // 100


def test_nonfinite_integral_raises():
    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_panels(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


@pytest.mark.parametrize("P", [make_polytope([[1], [-1]], [0, -1]),
                               make_polytope([[1, 0], [0, 1], [-1, -1]],
                                             [0, 0, -3])],
                         ids=["interval", "triangle"])
def test_polytope_nonfinite_integral_raises(P):
    with pytest.raises(QuadratureError, match="not finite"):
        integrate_polytope(lambda X: np.full(len(X), np.nan), P)


def test_polytope_width_floor_raises():
    # the spike of test_width_floor_within_budget_raises, over the unit
    # interval as a polytope: the same miss raises here too
    with pytest.raises(QuadratureError) as exc:
        adaptive_panels(SPIKE, 0.0, 1.0, rel_tol=1e-10)
    miss = re.search(r"relative error \S+", str(exc.value)).group(0)
    with pytest.raises(QuadratureError, match=re.escape(miss)):
        integrate_polytope(lambda X: SPIKE(X[:, 0]),
                           make_polytope([[1], [-1]], [0, -1]), rel_tol=1e-10)


def test_only_quadrature_judges_and_names_the_1d_wrappers():
    # the 1-D wrappers are kept for the benchmark's tracer only, and the
    # verdict's allowance is spelled once, as quadrature.ALLOWANCE
    src = Path(quadrature.__file__).resolve().parent
    wrappers = re.compile(r"\b(integrate_1d|adaptive_panels|log_integral_1d"
                          r"|integrate_on_panels)\b")
    allowance = re.compile(r"(50|100)\.0 ?\*")
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        if path.name != "quadrature.py":
            assert not wrappers.search(text), path.name
        assert not allowance.search(text), path.name
    assert quadrature.ALLOWANCE == 50.0


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its module: no module of
    # the package imports one from another, or reads one off a sibling
    # module it imports
    src = Path(quadrature.__file__).resolve().parent
    imports, private = 0, []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        siblings = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                imports += 1
                private += [f"{path.name}:{node.lineno} {a.name}"
                            for a in node.names if a.name.startswith("_")]
                if node.module is None:
                    siblings |= {a.asname or a.name for a in node.names}
        private += [f"{path.name}:{node.lineno} {node.value.id}.{node.attr}"
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in siblings
                    and node.attr.startswith("_")]
    assert imports >= 30 and private == []


def test_construction_layers_import_nothing_from_quadrature():
    # polytopes, generators, potentials and decompositions are built
    # without the integration engine: none of their modules imports from
    # the quadrature module
    src = Path(quadrature.__file__).resolve().parent
    found = []
    for name in ("_exact.py", "polytope.py", "generators.py", "potentials.py",
                 "testconfig.py"):
        tree = ast.parse((src / name).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and (
                    node.module == "quadrature" or node.module is None and
                    any(a.name == "quadrature" for a in node.names)):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_every_engine_keyword_has_a_caller():
    # the keywords the package's calls hand integrate_polytope are exactly
    # its signature's: an engine knob that no caller sets fails here
    src = Path(quadrature.__file__).resolve().parent
    handed = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "integrate_polytope" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                handed |= {k.arg for k in node.keywords}
    params = inspect.signature(integrate_polytope).parameters.values()
    assert handed == {p.name for p in params if p.kind is p.KEYWORD_ONLY}


def test_only_quadrature_and_the_cli_catch_quadrature_errors():
    # a missed estimate is refined again in one place, pair_all, which
    # reads the verdict and catches nothing; everywhere else a
    # QuadratureError propagates, up to cli.main's exit code.  A bare
    # except, or one of its bases, would catch it too.
    broad = re.compile(r"\b(QuadratureError|RuntimeError|Exception"
                       r"|BaseException)\b")
    src = Path(quadrature.__file__).resolve().parent
    catchers = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                child.parent = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and (
                    node.type is None or broad.search(ast.unparse(node.type))):
                while not isinstance(node, (ast.FunctionDef, ast.Module)):
                    node = node.parent
                catchers.add((path.name, getattr(node, "name", None)))
    assert catchers == {("cli.py", "main")}


@pytest.mark.parametrize("seeds", [(), (0.7, 1.3)])
def test_one_integrand_call_per_level(seeds):
    """Level j measures panels of width w / 2**(j + 1), w the initial
    width, so the rounds are log2(w / smallest final panel)."""
    calls = []

    def integrand(x):
        calls.append(np.array(x))
        return np.exp(-300.0 * (x - 1.05) ** 2) + np.abs(x - 0.4) ** 1.5
    value, panels = adaptive_panels(integrand, 0.0, 2.0, rel_tol=1e-11,
                                    seeds=seeds)
    cuts = np.array([0.0, *seeds, 2.0])
    lo, hi = np.array(panels).T
    width0 = np.diff(cuts)[np.searchsorted(cuts, lo, side="right") - 1]
    rounds = int(round(np.log2(width0 / (hi - lo)).max()))
    assert rounds >= 3
    assert len(calls) == rounds + 1
    # every call holds whole GK15 panels; the first call measures each
    # initial panel, later calls both halves of each split panel
    assert len(calls[0]) == 15 * (len(cuts) - 1)
    assert all(len(c) % 30 == 0 for c in calls[1:])
    assert value == pytest.approx(integrate_on_panels(integrand, panels),
                                  rel=1e-9)


class _CountingGenerator(Generator):
    """Delegates to a generator and counts its jet calls."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.support = inner.support
        self.jet_calls = 0

    def jet(self, x, order):
        self.jet_calls += 1
        return self.inner.jet(x, order)


@pytest.mark.parametrize("weighted", [False, True])
def test_pair_reevaluates_no_generator(weighted):
    # in 1-D and 2-D alike, pairings reuse the nodes the norm was summed on
    for sc, m in ((scenarios.segment("smooth"), [1]),
                  (scenarios.cp2_wall_sum("cosine"), [1, 1])):
        gen = _CountingGenerator(sc.generator)
        md = MonomialDensity(sc.polytope, gen, m, 512.0, weighted=weighted)
        md.log_mass()
        before = gen.jet_calls
        battery = battery_for(sc.polytope)
        pairs = {tau.name: md.pair(tau) for tau in battery}
        assert gen.jet_calls == before
        assert abs(pairs["one"] - 1.0) <= md.rel_tol
        # a test function may return a scalar
        assert md.pair(lambda X: 2.0) == pytest.approx(2.0 * pairs["one"],
                                                       rel=1e-15)


def test_refine_never_exceeds_max_leaves():
    polygon = POLYGONS["hexagon"]
    driver = lambda X: np.exp(-40.0 * np.sum((X - 1.3) ** 2, axis=-1))
    natural = TriangleMesh(polygon)
    natural.refine(driver, rel_tol=1e-6, presplit_depth=1)
    assert natural.rounds >= 4
    for budget in range(natural.presplit_leaves, len(natural.tris) + 1):
        mesh = TriangleMesh(polygon)
        mesh.refine(driver, rel_tol=1e-6, max_leaves=budget, presplit_depth=1)
        assert len(mesh.tris) <= budget
    assert mesh.tris.tobytes() == natural.tris.tobytes()


def test_log_integral_needs_a_finite_seed():
    # finite only inside (0.4, 0.6): neither an endpoint nor a seed sees it
    log_f = lambda x: np.where(np.abs(x - 0.5) < 0.1, 0.0, -np.inf)
    with pytest.raises(QuadratureError, match="finite at no endpoint or seed"):
        log_integral_1d(log_f, 0.0, 1.0, seeds=(0.2, 0.8))
    value, _, ref = log_integral_1d(
        lambda x: -((x - 0.5) ** 2), 0.0, 1.0, seeds=(0.5,))
    assert ref == 0.0
    assert value == pytest.approx(math.log(math.sqrt(math.pi) * erf(0.5)),
                                  abs=1e-10)


class _PointCountingGenerator(_CountingGenerator):
    """Counts the points its jet is called on."""

    def __init__(self, inner):
        super().__init__(inner)
        self.jet_points = 0

    def jet(self, x, order):
        self.jet_points += len(np.reshape(x, (-1, self.dim)))
        return super().jet(x, order)


@pytest.mark.parametrize("s", [32.0, 4096.0])
def test_one_norm_takes_few_jet_points(s):
    # seeds at m and the support ends, the reference level at m: no scan
    sc = scenarios.segment("smooth")
    gen = _PointCountingGenerator(sc.generator)
    md = MonomialDensity(sc.polytope, gen, [1], s, weighted=True)
    md.log_mass()
    assert gen.jet_points < 2000


@pytest.mark.parametrize("kernel", ["cosine", "smooth"])
def test_pairing_unit_mass_to_rounding(kernel):
    # pairings run on the rule the mass was summed with: both halves of
    # every final panel
    sc = scenarios.segment(kernel)
    one = lambda X: np.ones(len(X))
    for m in (0, 1, 2):
        for s in (0.0, 32.0, 512.0, 4096.0):
            for weighted in (False, True):
                md = MonomialDensity(sc.polytope, sc.generator, [m], s,
                                     weighted=weighted)
                assert abs(md.pair(one) - 1.0) <= 1e-13


def test_norm_makes_no_jet_call_after_last_level(monkeypatch):
    # the norm keeps the driver values of the final panels from the engine
    # instead of evaluating the density on them again
    seen = []
    engine = quadrature.integrate_polytope

    def recording(f, *args, **kwargs):
        def density(X, i):
            out = f(X, i)
            seen.append(gen.jet_calls)
            return out
        return engine(density, *args, **kwargs)
    cases = ((scenarios.segment("smooth"), [1]),
             (scenarios.cp2_wall_sum("cosine"), [1, 1]))
    monkeypatch.setattr(quadrature, "integrate_polytope", recording)
    for sc, m in cases:
        for s in (32.0, 4096.0):
            for weighted in (False, True):
                gen = _CountingGenerator(sc.generator)
                md = MonomialDensity(sc.polytope, gen, m, s,
                                     weighted=weighted)
                md.log_mass()
                assert gen.jet_calls == seen[-1]


def test_groups_refine_independently(monkeypatch):
    # a grouped call makes the same panels and totals as one call per group
    fs = [lambda x: np.exp(-1e4 * (x - 0.3) ** 2),
          lambda x: np.abs(x - 1.1) ** 1.5,
          lambda x: np.cos(3.0 * x)]
    bounds = [(0.0, 1.0), (0.5, 2.0), (-1.0, 1.0)]
    calls = []

    def grouped(x, g):
        calls.append(len(x))
        out = np.empty_like(x)
        for k, f in enumerate(fs):
            out[g == k] = f(x[g == k])
        return out
    lo, hi = np.array(bounds).T
    res = quadrature.refine_groups(grouped, lo, hi, np.arange(3), 3,
                                   rel_tol=1e-11)
    levels = 0
    for k, (f, (a, b)) in enumerate(zip(fs, bounds)):
        value, panels = adaptive_panels(f, a, b, rel_tol=1e-11)
        mine = res.group == k
        assert sorted(zip(res.lo[mine], res.hi[mine])) == panels
        assert res.total[k] == value
        levels = max(levels, int(round(np.log2((b - a) / np.min(
            res.hi[mine] - res.lo[mine])))))
        # the nodes, weights and values are the rule each total sums
        assert np.sum(res.weights[mine] * res.values[mine]) == \
            pytest.approx(value, rel=1e-14)
        assert np.array_equal(res.values[mine], f(res.nodes[mine]))
    assert len(calls) == levels + 1
    # a budget each group fits but the three together exceed changes no
    # panel, order or bit: the room is counted per group
    monkeypatch.setattr(quadrature, "MAX_PANELS", 20)
    tight = quadrature.refine_groups(grouped, lo, hi, np.arange(3), 3,
                                     rel_tol=1e-11)
    assert max(np.bincount(res.group)) <= 20 < len(res.lo)
    for got, want in zip(tight, res):
        assert np.array_equal(got, want)


def test_panel_nodes_are_the_engines_final_panels():
    # the one node builder gives, bit for bit, the nodes and weights the
    # engine's final panels hold, each panel alone and all at once
    res = quadrature.refine_groups(
        lambda x, g: np.exp(-1e3 * (x - 0.3) ** 2) + np.abs(x - 1.1) ** 1.5,
        np.array([0.0]), np.array([2.0]), np.array([0]), 1, rel_tol=1e-12)
    assert len(res.lo) > 10
    nodes, weights = panel_nodes(res.lo, res.hi)
    assert nodes.tobytes() == res.nodes.tobytes()
    assert weights.tobytes() == res.weights.tobytes()
    for i in range(len(res.lo)):
        nodes, weights = panel_nodes([res.lo[i]], [res.hi[i]])
        assert nodes.tobytes() == res.nodes[i:i + 1].tobytes()
        assert weights.tobytes() == res.weights[i:i + 1].tobytes()


# pairs a 30k-node CP^2 rule with the battery and prints each value's bits
_PAIRING_BITS = """
import numpy as np
from toricray.limits import battery_for
from toricray.quadrature import integrate_polytope, pair_all
from toricray.scenarios import cp2
P = cp2(3)
rule = integrate_polytope(
    lambda X: np.exp(-40.0 * ((X - [1.0, 1.0]) ** 2).sum(-1)), P,
    rel_tol=1e-12)
assert len(rule.nodes) >= 30000
print(*(value.hex() for value, _ in pair_all(
    [(rule, tau) for tau in battery_for(P)])))
"""


def test_pairing_bits_do_not_depend_on_blas_threads():
    # a BLAS dot splits a long sum among its threads; the pairing's own
    # reduction gives the same bits with one thread and with two
    src = str(Path(quadrature.__file__).resolve().parent.parent)
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])])
        out.append(subprocess.run(
            [sys.executable, "-c", _PAIRING_BITS], env=env, check=True,
            capture_output=True, text=True).stdout.split())
    assert len(out[0]) == 9 and out[0] == out[1]


POLYTOPES = {
    "simplex": make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -3]),
    "square": make_polytope([[1, 0], [0, 1], [-1, 0], [0, -1]],
                            [0, 0, -2, -2]),
    "hexagon": make_polytope([[0, 1], [0, -1], [1, 1], [-1, 1], [-1, -1],
                              [1, -1]], [0, -2, 1, -2, -4, -1],
                             require_delzant=False),
}


def _monomial_integral(vertices, a, b):
    """Exact integral of x^a y^b over a counterclockwise polygon (Green)."""
    total = Fraction(0)
    ring = [tuple(Fraction(c) for c in v) for v in vertices]
    for (x0, y0), (x1, y1) in zip(ring, ring[1:] + ring[:1]):
        dx, dy = x1 - x0, y1 - y0
        for i in range(a + 2):
            for j in range(b + 1):
                total += (math.comb(a + 1, i) * x0 ** (a + 1 - i) * dx ** i
                          * math.comb(b, j) * y0 ** (b - j) * dy ** j
                          * dy / (i + j + 1))
    return total / (a + 1)


@pytest.mark.parametrize("poly", sorted(POLYTOPES))
def test_polytope_panels_exact_on_polynomials(poly):
    P = POLYTOPES[poly]
    vertices = POLYGONS[poly]
    assert {tuple(v) for v in P.vertices_np} == {tuple(v) for v in vertices}
    assert P.volume_exact() == _monomial_integral(vertices, 0, 0)
    for deg in range(11):
        for a in range(deg + 1):
            b = deg - a
            res = integrate_polytope(lambda X: X[:, 0] ** a * X[:, 1] ** b,
                                     P, rel_tol=1e-12)
            exact = float(_monomial_integral(vertices, a, b))
            assert abs(res.value - exact) <= 1e-13 * exact
            assert res.err <= 1e-12 * exact


def test_polytope_panels_separable_gaussian_against_erf():
    s, c = 1e3, np.array([0.7, 1.3])
    res = integrate_polytope(
        lambda X, i: np.exp(-s * np.sum((X - c) ** 2, axis=-1)),
        POLYTOPES["square"], points=[c], rel_tol=1e-10)[0]
    r = math.sqrt(s)
    exact = math.prod(0.5 * math.sqrt(math.pi / s)
                      * (erf(r * (2.0 - ci)) + erf(r * ci)) for ci in c)
    assert abs(res.value / exact - 1.0) <= 1e-10
    assert res.err <= 1e-10 * exact
    assert np.sum(res.weights * res.values) == pytest.approx(res.value,
                                                             rel=1e-14)


def _simplex(n, N=3):
    """The simplex {x >= 0, x1 + ... + xn <= N}."""
    return make_polytope([*np.eye(n, dtype=int).tolist(), [-1] * n],
                         [0] * n + [-N])


# {x1, x2 >= 0, x1 + x2 <= 3, 0 <= x3 <= 1}
PRISM = make_polytope([[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1],
                       [0, 0, -1]], [0, 0, -3, 0, -1])


def test_empty_interval_gives_no_panel():
    # a slice that misses P has lo >= hi, or nan ends from the exact cut
    # maps: it contributes nothing instead of the panel [hi, lo]
    for hi in (0.0, -np.inf, np.nan):
        a, b, g = quadrature._cut(np.array([1.0]), np.array([hi]),
                                  np.empty((1, 0)))
        assert len(a) == len(b) == len(g) == 0
    res = quadrature.refine_groups(
        lambda x, g: np.ones_like(x),
        *quadrature._cut(np.array([0.0, 1.0]), np.array([2.0, -np.inf]),
                         np.empty((2, 0))), 2)
    assert res.total.tolist() == [2.0, 0.0]
    # K15 - G7 of a constant is a rounding error; the empty chord has none
    assert res.err[0] <= 1e-15 and res.err[1] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simplex_monomials_against_dirichlet(n):
    # integral of x^a over the side-N simplex: N^(n+|a|) prod a_i! / (n+|a|)!
    P, N = _simplex(n), 3
    for a in itertools.product(range(4), repeat=n):
        if sum(a) > 3:
            continue
        res = integrate_polytope(lambda X: np.prod(X ** np.array(a), axis=1),
                                 P, rel_tol=1e-12)
        exact = Fraction(N ** (n + sum(a)) * math.prod(map(math.factorial, a)),
                         math.factorial(n + sum(a)))
        assert abs(res.value - float(exact)) <= 1e-13 * float(exact)
        assert np.sum(res.weights * res.values) == pytest.approx(res.value,
                                                                 rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrand_on_its_nodes_gets_its_estimate(n):
    # summed on its own nodes, the integrand gets back the engine's value
    # and its error estimate, to which every level contributes
    c = np.full(n, 0.8)
    res = integrate_polytope(
        lambda X: np.exp(-30.0 * np.sum((X - c) ** 2, axis=1)), _simplex(n),
        rel_tol=1e-6)
    value, err = quadrature.pair_all([(res, lambda X: np.ones(len(X)))])[0]
    assert value == pytest.approx(res.value, rel=1e-13)
    assert err == pytest.approx(res.err, rel=1e-8)
    assert res.owners.shape == res.diffs.shape == (len(res.values), n)
    assert all(np.abs(np.bincount(own, d * res.values)).sum() > 0.01 * err
               for own, d in zip(res.owners.T, res.diffs.T))
    assert len(res.values) == 15 * res.panels


def _refuse_fresh_integrals(monkeypatch):
    """Fail the test on any call of ``integrate_polytope`` from here on."""
    def fresh(*args, **kwargs):
        raise AssertionError("a missed pairing is integrated afresh")
    monkeypatch.setattr(quadrature, "integrate_polytope", fresh)


def _repair_reference(f, P, rel_tol, **cuts):
    """A fresh integral of f(X, i) over P as a family of one at rel_tol /
    100, and its integral of |f|."""
    ref = integrate_polytope(f, P, rel_tol=rel_tol / 100, **cuts)[0]
    return ref.value, float(np.add.reduce(ref.weights * np.abs(ref.values)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_node_sets_keep_each_levels_final_panels(n):
    # each innermost panel row of a member knows the ends of the final
    # panel of every level above it and the place of its node there: the
    # nodes are those ends' K15 nodes, bit for bit, and the rows under one
    # panel agree on its ends
    peaks = np.array([np.full(n, 0.8), np.linspace(0.4, 1.2, n)])
    rules = integrate_polytope(
        lambda X, i: np.exp(-3.0 * np.sum((X - peaks[i]) ** 2, axis=1)),
        _simplex(n), points=peaks, rel_tol=1e-8)
    for rule in rules:
        rows = len(rule.nodes) // 15
        assert rule.ends.shape == (rows, n, 2)
        assert rule.slots.shape == (rows, n - 1)
        lo, hi = rule.ends[..., 0], rule.ends[..., 1]
        head = rule.nodes[::15, :-1]
        assert np.array_equal(head, lo[:, :-1] + (hi - lo)[:, :-1]
                              * quadrature._GK15_UNIT[rule.slots])
        assert np.array_equal(rule.nodes[:, -1].reshape(rows, 15),
                              panel_nodes(lo[:, -1], hi[:, -1])[0])
        for j in range(n):
            _, panel = np.unique(rule.owners[::15, j], return_inverse=True)
            first = np.zeros(panel.max() + 1, np.intp)
            first[panel[::-1]] = np.arange(rows)[::-1]
            assert np.array_equal(rule.ends[:, j], rule.ends[first[panel], j])


def test_missed_pairing_is_repaired_from_its_rules_panels(monkeypatch):
    # a narrow peak the panels of f never see misses the verdict on f's
    # nodes; the repair goes on refining f times it from f's final panels,
    # on the same cuts and rel_tol: it calls no fresh integral, evaluates
    # no node of f's rule again and fewer points than a fresh integral,
    # meets the verdict and agrees with a reference at rel_tol / 100
    P = _simplex(2)
    cuts = dict(lines=[((1, 1), 2.0)], points=[(0.8, 0.8)])
    f = lambda X: np.exp(-3.0 * np.sum((X - 0.8) ** 2, axis=1))
    tau = lambda X: np.exp(-400.0 * np.sum((X - [2.0, 0.5]) ** 2, axis=1))
    res = integrate_polytope(lambda X, i: f(X), P, rel_tol=1e-6, **cuts)[0]
    on_nodes = res.values * tau(res.nodes)
    assert quadrature._verdict(
        float(np.add.reduce(res.weights * on_nodes)),
        math.fsum(np.abs(np.bincount(own, d * on_nodes)).sum()
                  for own, d in zip(res.owners.T, res.diffs.T)),
        res.weights, on_nodes, 1e-6) is not None
    seen = []

    def counted(X):
        seen.append(np.array(X))
        return tau(X)

    _refuse_fresh_integrals(monkeypatch)
    value, err = quadrature.pair_all([(res, counted)])[0]
    monkeypatch.undo()
    assert np.array_equal(seen[0], res.nodes)
    repair = np.concatenate(seen[1:])
    assert not set(map(tuple, repair)) & set(map(tuple, res.nodes))
    want, scale = _repair_reference(lambda X, i: f(X) * tau(X), P, 1e-6,
                                    **cuts)
    assert 0.0 < err <= quadrature.ALLOWANCE * 1e-6 * scale
    assert abs(value - want) <= quadrature.ALLOWANCE * 1e-6 * scale
    calls = []
    integrate_polytope(lambda X, i: calls.append(len(X)) or f(X) * tau(X), P,
                       rel_tol=1e-6, **cuts)
    assert len(repair) < sum(calls)


def test_missed_pairing_of_a_mapped_rule_keeps_its_end_maps(monkeypatch):
    # sqrt(x (3 - x)) on [0, 3] has both ends mapped by t^2; a narrow peak
    # near x = 0 misses on its nodes, and the repair maps the rule's nodes
    # and every new node by the same end map: f * tau is evaluated only on
    # mapped points, and the value meets the verdict and agrees with an
    # independent quadrature
    P = make_polytope([[1], [-1]], [0, -3])
    half = [[Fraction(1, 2), Fraction(1, 2)]]
    f = lambda X: np.sqrt(X[:, 0] * (3.0 - X[:, 0]))
    tau = lambda X: np.exp(-400.0 * (X[:, 0] - 0.2) ** 2)
    res = integrate_polytope(f, P, exponents=half)
    assert res.value == pytest.approx(9 * math.pi / 8, rel=1e-13)
    mapped, seen = [], []
    end_map = quadrature._end_map

    def mapping(u, g, pieces):
        x, jac = end_map(u, g, pieces)
        mapped.append(x)
        return x, jac

    def counted(X):
        seen.append(X[:, 0].copy())
        return tau(X)
    monkeypatch.setattr(quadrature, "_end_map", mapping)
    value, err = quadrature.pair_all([(res, counted)])[0]
    monkeypatch.undo()
    # the rule's own nodes, mapped again as they were, then each level's
    # new ones, the very points f * tau is evaluated on
    assert np.array_equal(mapped[0], res.nodes[:, 0])
    assert len(mapped) == len(seen) > 2
    assert all(np.array_equal(x, t) for x, t in zip(mapped[1:], seen[1:]))
    want, _ = quad(lambda x: math.sqrt(x * (3.0 - x))
                   * math.exp(-400.0 * (x - 0.2) ** 2), 0.0, 3.0,
                   points=[0.2], epsabs=0.0, epsrel=1e-13, limit=200)
    scale = want  # f * tau is positive
    assert 0.0 < err <= quadrature.ALLOWANCE * res.rel_tol * scale
    assert abs(value - want) <= quadrature.ALLOWANCE * res.rel_tol * scale


def test_a_cut_in_a_mapped_end_piece_is_mapped_into_u(monkeypatch):
    # on [0, 3] with both ends mapped by t^2 the rule of sqrt(x (3 - x))
    # is cut at 3/2, and every cut of the battery's bump (1/2, 3/4, 9/4 and
    # 5/2) lies in a mapped end piece: the repair splits the panels in u
    # where the map puts the cut, _end_map brings each cut back to itself,
    # and the pairing agrees with scipy's quad, given the support's ends
    P = make_polytope([[1], [-1]], [0, -3])
    bump = battery_for(P)[-1]
    res = integrate_polytope(lambda X: np.sqrt(X[:, 0] * (3.0 - X[:, 0])), P,
                             exponents=[[Fraction(1, 2), Fraction(1, 2)]])
    lo, hi, cuts = np.array([0.0]), np.array([3.0]), np.array([[1.5]])
    pieces, _ = quadrature._end_pieces(lo, hi, cuts, np.array([2]),
                                       np.array([2]))
    x = bump.cuts.ravel()
    u = quadrature._end_unmap(x, np.zeros(4, np.intp), pieces)
    assert not np.any(np.isclose(u, x))
    assert np.allclose(quadrature._end_map(u, np.zeros(4, np.intp),
                                           pieces)[0], x, rtol=1e-15)
    off = quadrature._end_unmap(np.array([1.5, np.nan]), np.zeros(2, np.intp),
                                pieces)
    assert off[0] == 1.5 and np.isnan(off[1])
    parts = _splits(monkeypatch)
    value, err = quadrature.pair_all([(res, bump)])[0]
    assert parts
    want, _ = quad(lambda x: math.sqrt(x * (3.0 - x))
                   * bump(np.array([[x]]))[0], 0.0, 3.0, points=[0.5, 2.5],
                   epsabs=0.0, epsrel=1e-13, limit=200)
    assert 0.0 < err <= quadrature.ALLOWANCE * res.rel_tol * want
    assert abs(value - want) <= quadrature.ALLOWANCE * res.rel_tol * want


@pytest.mark.parametrize("exponents, message", [
    ([[Fraction(1, 2)]], r"\(1 members, 2 facets\)"),
    ([[0, 0], [0, 0]], r"\(1 members, 2 facets\)"),
    ([[0.5, 0]], "exponent 0.5 of member 0 at facet 0 is not an exact"),
    ([[0, True]], "exponent True of member 0 at facet 1 is not an exact"),
    ([[0, Fraction(-1)]], "exponent -1 of member 0 at facet 1 is not "
                          "integrable"),
    ([[0, Fraction(-3, 2)]], "of member 0 at facet 1 is not integrable"),
])
def test_exponents_are_exact_integrable_rationals(exponents, message):
    P = make_polytope([[1], [-1]], [0, -3])
    with pytest.raises(ValueError, match=message):
        integrate_polytope(lambda X: np.ones(len(X)), P, exponents=exponents)


def test_negative_exponent_is_integrated_exactly():
    # x^(-1/2) on [0, 1] is 2; mapped by t^2 it is the constant 2
    P = make_polytope([[1], [-1]], [0, -1])
    res = integrate_polytope(lambda X: X[:, 0] ** -0.5, P,
                             exponents=[[Fraction(-1, 2), 0]])
    assert res.value == pytest.approx(2.0, rel=1e-14)
    assert res.panels == 1


def test_missed_pairings_are_repaired_as_one_family(monkeypatch):
    # the misses of several members and test functions are repaired as one
    # family: its levels call f once each, as many calls as the longest
    # lone repair makes, and no fresh integral; each miss gets the bits of
    # its lone repair, meets the verdict and agrees with a reference
    P = _simplex(2)
    peaks = np.array([[0.8, 0.8], [0.5, 1.2], [1.5, 0.3]])
    calls = []

    def f(X, i):
        calls.append(len(X))
        return np.exp(-3.0 * np.sum((X - peaks[i]) ** 2, axis=1))
    rules = integrate_polytope(f, P, lines=[((1, 1), 2.0)], points=peaks,
                               rel_tol=1e-6)
    narrow = [lambda X, c=c: np.exp(-400.0 * np.sum((X - c) ** 2, axis=1))
              for c in ([2.0, 0.5], [0.3, 2.2])]
    one = lambda X: np.ones(len(X))
    pairings = [(rule, tau) for rule in rules for tau in (one, *narrow)]

    _refuse_fresh_integrals(monkeypatch)
    calls.clear()
    got = quadrature.pair_all(pairings)
    together, longest = len(calls), 0
    for (rule, tau), (value, err) in zip(pairings, got):
        calls.clear()
        assert (value, err) == quadrature.pair_all([(rule, tau)])[0]
        longest = max(longest, len(calls))
        if tau is one:
            assert not calls
            assert value == pytest.approx(rule.value, rel=1e-13)
            continue
        assert calls
        monkeypatch.undo()
        want, scale = _repair_reference(
            lambda X, i: f(X, rule.member) * tau(X), P, 1e-6,
            lines=[((1, 1), 2.0)], points=[peaks[rule.member]])
        _refuse_fresh_integrals(monkeypatch)
        assert 0.0 < err <= quadrature.ALLOWANCE * 1e-6 * scale
        assert abs(value - want) <= quadrature.ALLOWANCE * 1e-6 * scale
    assert together == longest > 0


def test_family_members_are_their_lone_integrals_in_three_dimensions():
    # two peaks on the prism, integrated as one family: each member's
    # value, error and pairings are those of its integral made alone, bit
    # for bit, also where a pairing misses and is repaired from the rule's
    # final panels
    peaks = np.array([[0.8, 0.8, 0.5], [2.0, 0.4, 0.9]])
    f = lambda X, i: np.exp(-3.0 * np.sum((X - peaks[i]) ** 2, axis=1))
    cuts = dict(lines=[((1, 1, 0), 2.0)], rel_tol=1e-6)
    rules = integrate_polytope(f, PRISM, points=peaks, **cuts)
    taus = [lambda X: np.ones(len(X)), lambda X: X[:, 0] * X[:, 2],
            lambda X: np.exp(-20.0 * np.sum((X - [0.2, 2.5, 0.5]) ** 2,
                                             axis=1))]
    together = quadrature.pair_all(
        [(rule, tau) for rule in rules for tau in taus])
    for rule in rules:
        alone = integrate_polytope(lambda X, i: f(X, rule.member), PRISM,
                                   points=[peaks[rule.member]], **cuts)[0]
        assert (rule.value, rule.err) == (alone.value, alone.err)
        for tau in taus:
            assert quadrature.pair_all([(rule, tau)])[0] == \
                quadrature.pair_all([(alone, tau)])[0] == \
                together[len(taus) * rule.member + taus.index(tau)]


def _curvatures(peaks, width):
    """The curvature I / width^2 of a Gaussian of that width at every peak
    but the second, nan there: a Gaussian member and one without any."""
    k, n = np.shape(peaks)
    a = np.tile(np.eye(n) / width ** 2, (k, 1, 1))
    a[1] = np.nan
    return a


@pytest.mark.parametrize("P, peaks, lines, width", [
    (scenarios.cp2(3), [[1.0, 1.0], [0.4, 2.1]], [((1, 0), 1.5)], 0.05),
    (PRISM, [[0.8, 0.8, 0.5], [2.0, 0.4, 0.9]], [((1, 1, 0), 2.0)], 0.2),
    (PRISM, [[0.8, 0.8, 0.5], [2.0, 0.4, 0.9]], [((1, 1, 0), 2.0)], 0.02),
], ids=["cp2", "prism", "prism-narrow"])
def test_width_ladder_agrees_with_the_unseeded_rule(P, peaks, lines, width):
    # Gaussian peaks handed their curvature I / w^2, one member with a nan
    # curvature: each seeded integral and pairing agrees with the unseeded
    # rule within the verdict, and the member without curvature keeps its
    # bits.  On the prism, w = 0.2 has no room (16 w exceeds the distance
    # from the peak to the nearest cut in every variable), so the engine
    # drops its ladder; w = 0.02 fits and cuts the panels
    peaks = np.array(peaks)
    f = lambda X, i: np.exp(-0.5 * np.sum((X - peaks[i]) ** 2, axis=1)
                            / width ** 2)
    cuts = dict(points=peaks, lines=lines, rel_tol=1e-6)
    plain = integrate_polytope(f, P, **cuts)
    curvatures = _curvatures(peaks, width)
    seeded = integrate_polytope(f, P, curvatures=curvatures, **cuts)
    tau = lambda X: 1.0 + X[:, 0] * X[:, -1]
    for a, b in zip(plain, seeded):
        scale = float(np.sum(a.weights * np.abs(a.values)))
        assert abs(a.value - b.value) <= quadrature.ALLOWANCE * 1e-6 * scale
        (pa, _), (pb, _) = quadrature.pair_all([(a, tau), (b, tau)])
        assert abs(pa - pb) <= quadrature.ALLOWANCE * 1e-6 * abs(pa)
    ladder = seeded[0].family[3].shape[2] > 1
    assert ladder == (width != 0.2)
    if ladder:
        assert seeded[0].panels != plain[0].panels
    for got, want in zip(seeded[1][:6], plain[1][:6]):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="curvatures must be a"):
        integrate_polytope(f, P, curvatures=curvatures[:, :1], **cuts)


def test_only_the_slices_near_the_peak_take_its_ladder():
    # a Gaussian of width w on CP^2(3) peaked at (1, 1), its x2 integrals at
    # x1 = 1 + w t: the slices with t^2 <= 2 ln(1 / rel_tol), t up to 5.26
    # at 1e-6, are cut at the ladder in x2, and the others keep their bits
    # without it
    P, w, m = scenarios.cp2(3), 0.01, np.array([1.0, 1.0])
    f = lambda X, i: np.exp(-0.5 * np.sum((X - m) ** 2, axis=1) / w ** 2)
    t = np.array([0.0, 1.0, 5.0, 5.5, -20.0])
    peak = m[None, :, None]
    ladder = np.concatenate([peak, peak + w * quadrature._LADDER], axis=2)
    maps, rows = quadrature._maps(P, ()), (
        None, np.zeros(len(t), np.intp), 1.0 + w * t[:, None], 1e-6,
        np.zeros(len(t)))
    seeded = quadrature._level(f, maps, ladder, *rows)
    plain = quadrature._level(f, maps, peak, *rows)

    def row_of(rule, row):
        """The row's integral, error and final panels' arrays."""
        own, total, err, *panels = rule
        return [total[row], err[row], *(a[own == row] for a in panels)]
    for row in range(len(t)):
        got, want = row_of(seeded, row), row_of(plain, row)
        # the ends of the final x2 panels
        rungs = np.isin(got[-1][:, 0], ladder[0, 1, 1:]).any()
        assert rungs == (abs(t[row]) <= 5.26)
        assert rungs or all(np.array_equal(a, b) for a, b in zip(got, want))


def test_a_known_scale_sets_only_the_first_round(monkeypatch):
    # Gaussian peaks on CP^2(3), handed their Laplace mass 2 pi w^2, none
    # (a nan curvature) and a tenth of it (``_laplace`` scaled, with no
    # widths): the first round hands its slices rel_tol times that mass, so
    # the slices far in the tails stop at once.  The estimated members take
    # no more panels and agree with the plain rule within the verdict, the
    # member with no scale keeps its bits, and an estimated member alone is
    # its row of the family, bit for bit
    P, width = scenarios.cp2(3), 0.05
    peaks = np.array([[1.0, 1.0], [0.4, 2.1], [2.0, 0.5]])
    f = lambda X, i: np.exp(-0.5 * np.sum((X - peaks[i]) ** 2, axis=1)
                            / width ** 2)
    mass = 2.0 * np.pi * width ** 2
    cuts = dict(lines=[((1, 1), 2.0)], rel_tol=1e-6)
    plain = integrate_polytope(f, P, points=peaks, **cuts)
    laplace, factor = quadrature._laplace, np.array([1.0, 1.0, 0.1])

    def masses(*args):
        scales = laplace(*args)[1]
        return None, scales * factor[:len(scales)]
    monkeypatch.setattr(quadrature, "_laplace", masses)
    curvatures = _curvatures(peaks, width)
    known = integrate_polytope(f, P, points=peaks, curvatures=curvatures,
                               **cuts)
    for a, b in zip(plain, known):
        assert abs(a.value - mass) <= quadrature.ALLOWANCE * 1e-6 * mass
        assert abs(a.value - b.value) <= quadrature.ALLOWANCE * 1e-6 * mass
        assert b.family[3].shape[2] == 1
    assert known[0].panels < plain[0].panels
    assert known[2].panels <= plain[2].panels
    for got, want in zip(known[1][:6], plain[1][:6]):
        assert np.array_equal(got, want)
    alone = integrate_polytope(lambda X, i: f(X, 0), P, points=peaks[:1],
                               curvatures=curvatures[:1], **cuts)[0]
    for got, want in zip(alone[:6], known[0][:6]):
        assert np.array_equal(got, want)


def test_prism_integrals():
    # the x3 chords above x1 + x2 > 3 miss the prism and must give no
    # panel, not the panel [-inf, 0]
    one = integrate_polytope(lambda X: np.ones(len(X)), PRISM)
    assert one.value == pytest.approx(4.5, rel=1e-13)
    x1x3 = integrate_polytope(lambda X: X[:, 0] * X[:, 2], PRISM)
    assert x1x3.value == pytest.approx(2.25, rel=1e-13)


def test_kink_plane_cut_in_three_dimensions():
    # |x1 + x2 + x3 - 2| over the side-3 simplex, cut at its kink plane
    res = integrate_polytope(lambda X, i: np.abs(X.sum(axis=1) - 2.0),
                             _simplex(3), lines=[((1, 1, 1), 2)],
                             points=[(1, 1, 1)])[0]
    assert res.value == pytest.approx(59 / 24, rel=1e-12)


def test_middle_level_runs_over_the_slice(monkeypatch):
    # the x2 range of each x1 slice is the extent of the slice's vertices,
    # not the bounding box's, so no innermost x3 chord misses the simplex
    rows = []
    cut = quadrature._cut

    def counting_cut(lo, hi, cuts):
        rows.append(np.count_nonzero(~(hi > lo)))
        return cut(lo, hi, cuts)

    monkeypatch.setattr(quadrature, "_cut", counting_cut)
    res = integrate_polytope(lambda X: np.ones(len(X)), _simplex(3))
    assert res.value == pytest.approx(4.5, rel=1e-13)
    assert len(rows) > 2 and sum(rows) == 0


def _float_cuts(P, lines, prefix):
    """The float cut rule the exact maps replaced, kept as a reference: at
    level j, each set of n - j hyperplanes (the facets, then the lines)
    whose determinant on the columns x_{j+1}, ..., x_n exceeds 1e-12 is
    solved by one stacked solve, and its x_{j+1} cuts where
    ``P.contains(tol=1e-9)`` accepts its meeting point; nan elsewhere."""
    (k, j), n = prefix.shape, P.dim
    planes = np.array([[*v, float(o)] for v, o in zip(P.normals, P.offsets)]
                      + [[*nu, c] for nu, c in lines], dtype=float)
    sub = planes[np.array(list(itertools.combinations(range(len(planes)),
                                                      n - j)))]
    sub = sub[np.abs(np.linalg.det(sub[:, :, j:n])) > 1e-12]
    rhs = sub[:, :, n] - np.moveaxis(sub[:, :, :j] @ prefix.T, -1, 0)
    y = np.linalg.solve(sub[:, :, j:n], rhs[..., None])[..., 0]
    points = np.concatenate([np.broadcast_to(prefix[:, None],
                                             (*y.shape[:2], j)), y], axis=-1)
    return np.where(P.contains(points, tol=1e-9), y[..., 0], np.nan)


def _float_chord(P, prefix):
    """The float x_n chords at the prefix rows (k, n - 1), as
    ``Polytope.chord`` gave them, kept as a reference: the ends (lo, hi)
    from the facet inequalities, and the facet of each end, the first
    where several give it."""
    A = np.array(P.normals, dtype=float)
    ell = prefix @ A[:, :-1].T - np.array([float(o) for o in P.offsets])
    a = A[:, -1]
    up, down = a > 1e-14, a < -1e-14
    lo, hi = (-ell[:, side] / a[side] for side in (up, down))
    return (lo.max(axis=1), hi.min(axis=1),
            np.flatnonzero(up)[lo.argmax(axis=1)],
            np.flatnonzero(down)[hi.argmin(axis=1)])


def _maps(P, lines):
    """The exact cut maps ``integrate_polytope`` builds for P and lines."""
    return quadrature._slice_maps(P.facet_rows, tuple(
        tuple(map(float, (*nu, c))) for nu, c in lines))


def _merged(values, gap):
    """The sorted values, each run closer than ``gap`` merged to its
    first."""
    values = np.sort(values)
    return values[np.concatenate([[True], np.diff(values) >= gap])]


def _cut_cases():
    """(P, lines) pairs: every shipped scenario with its generator's lines,
    the cp2-corner and two-wall smoothings, Hirzebruch F1 and F2 and a
    hexagon with walls and a diagonal, CP^3(3) with three walls, and
    degenerate arrangements on CP^2(3) and CP^3(3)."""
    cases = {}
    for name, build in scenarios.BUILTIN_SCENARIOS.items():
        sc = build()
        gen = sc.generator or build_nice_smoothing(
            sc.pl, sc.polytope, sc.decomposition, 0.1)
        cases[name] = (sc.polytope, [(nu, c) for nu, lo, hi in gen.support
                                     for c in (lo, hi)])
    walls = [((1, 0), 1.0), ((0, 1), 1.0), ((1, 1), 2.0)]
    for name, normals, offsets in (
            ("F1", [[1, 0], [0, 1], [0, -1], [-1, -1]], [0, 0, -2, -4]),
            ("F2", [[1, 0], [0, 1], [0, -1], [-1, -2]], [0, 0, -2, -6]),
            ("hexagon", [[1, 0], [0, 1], [-1, 0], [0, -1], [1, 1], [-1, -1]],
             [0, 0, -3, -3, 1, -5])):
        cases[name] = (make_polytope(normals, offsets,
                                     require_delzant=False), walls)
    cp2 = scenarios.cp2()
    # x1 = 1 and x2 = 2 meet on the facet x1 + x2 = 3; x1 + x2 = 2 is
    # parallel to it, and x1 = 5 misses P
    cases["cp2-through-vertex"] = (cp2, [((1, 0), 1.0), ((0, 1), 2.0)])
    cases["cp2-parallel"] = (cp2, [((1, 1), 2.0), ((1, 0), 1.0)])
    cases["cp2-missing"] = (cp2, [((1, 0), 5.0), ((0, 1), 1.0)])
    cp3 = _simplex(3)
    three = [(tuple(float(i == a) for i in range(3)), c) for a in range(3)
             for c in (0.8, 1.2)]
    cases["cp3-three-walls"] = (cp3, three)
    # the plane x1 + 2 x2 = 3 meets P's vertex (3, 0, 0)
    cases["cp3-vertex-plane"] = (cp3, [((1, 2, 0), 3.0), ((0, 0, 1), 1.0)])
    return cases


@pytest.mark.parametrize("case", list(_cut_cases()))
def test_exact_cuts_match_the_float_rule(case):
    # at random prefixes of every level the exact maps give the float
    # rule's cut points, near-duplicates within 1e-12 merged (the float
    # solves scatter one meeting point over several; float lines that are
    # not concurrent, as the cp2-corner smoothing's slab ends, meet 1 ulp
    # apart exactly), its ranges (the bounding box on the first level, the
    # chords innermost, the extent of the cuts in between) and the facets
    # Polytope.chord named
    P, lines = _cut_cases()[case]
    maps = _maps(P, lines)
    rng = np.random.default_rng(0)
    V = P.vertices_np
    points = rng.dirichlet(np.ones(len(V)), size=40) @ V
    for j in range(P.dim):
        prefix = points[:, :j]
        lo, hi, cuts, at_lo, at_hi = quadrature._slice(maps, prefix)
        ref = _float_cuts(P, lines, prefix)
        for exact, want in zip(cuts, ref):
            exact, want = (_merged(c[~np.isnan(c)], 1e-12)
                           for c in (exact, want))
            assert exact.shape == want.shape
            assert np.allclose(exact, want, rtol=0, atol=1e-9)
        if j == P.dim - 1:
            want = _float_chord(P, prefix)
            assert at_lo.tolist() == want[2].tolist()
            assert at_hi.tolist() == want[3].tolist()
        else:
            want = (np.nanmin(ref, axis=1), np.nanmax(ref, axis=1)) if j \
                else tuple(np.full(len(prefix), c[0]) for c in P.bbox())
        assert np.allclose(lo, want[0], rtol=0, atol=1e-12)
        assert np.allclose(hi, want[1], rtol=0, atol=1e-12)


def test_cuts_take_no_slack():
    # the line x1 + x2 = 3 + 2^-30 misses CP^2(3) by 2^-30: none of its
    # meeting points cuts a level, where a slack of 1e-9 took them in
    maps = _maps(_simplex(2), [((1, 1), 3.0 + 2.0 ** -30)])
    for prefix, want in ((np.empty((1, 0)), [0.0, 3.0]),
                         (np.array([[1.0], [2.5]]), [0.0, 2.0])):
        cuts = quadrature._slice(maps, prefix)[2][0]
        assert np.unique(cuts[~np.isnan(cuts)]).tolist() == want


def test_innermost_ends_and_their_facets():
    # x2 chords of the simplex at x1 = 1 and 2.5 run from facet 1 (x2 = 0)
    # to facet 2 (x1 + x2 = 3); a segment's chord is its bounding box
    P = _simplex(2)
    lo, hi, _, at_lo, at_hi = quadrature._slice(
        _maps(P, ()), np.array([[1.0], [2.5]]))
    assert lo.tolist() == [0.0, 0.0] and hi.tolist() == [2.0, 0.5]
    assert at_lo.tolist() == [1, 1] and at_hi.tolist() == [2, 2]
    Q = make_polytope([[1], [-1]], [Fraction(-1, 2), Fraction(-5, 2)],
                      corrected=True)
    lo, hi, _, at_lo, at_hi = quadrature._slice(
        _maps(Q, ()), np.zeros((1, 0)))
    assert (lo[0], hi[0]) == tuple(Q.bbox()[i][0] for i in (0, 1))
    assert (at_lo[0], at_hi[0]) == (0, 1)


def _outer_widths(rule):
    """The width of each outer (x1) panel of a ``NodeSet``, from the panel
    ends it keeps."""
    _, first = np.unique(rule.owners[::15, 0], return_index=True)
    lo, hi = rule.ends[first, 0].T
    return hi - lo


@pytest.mark.parametrize("build, most", [
    (lambda: scenarios.cp2_wall_sum("cosine"), 4500),
    (scenarios.cp2_wall, 1750)], ids=["wall-sum", "wall"])
def test_wall_densities_have_no_sliver_panels(build, most):
    # the outer x1 level is cut where the walls' slab ends meet the facets,
    # exactly: no two distinct outer-panel edges lie within 1e-12, so no
    # outer panel is narrower (a float solve put the slab end x1 = 0.8
    # beside its meeting with x1 + x2 = 3 at 0.7999999999999998), and the
    # bare densities at (1, 1), s = 32, take 4,380 and 1,680 nodes
    # (5,280 and 2,130 with the slivers)
    sc = build()
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], 32.0,
                         weighted=False)
    md.log_mass()
    assert _outer_widths(md._rule).min() >= 1e-12
    assert len(md._rule.weights) <= most


def _repair_points(monkeypatch):
    """(pairings, points, calls) of each repair from here on: how many
    missed pairings it repairs, on how many points it evaluates the
    integrand and in how many calls."""
    made, times = [], quadrature._times

    def counting(f, members, taus):
        g, record = times(f, members, taus), [len(members), 0, 0]
        made.append(record)

        def h(X, i):
            record[1] += len(X)
            record[2] += 1
            return g(X, i)
        return h
    monkeypatch.setattr(quadrature, "_times", counting)
    return made


def test_wall_sum_bump_is_repaired_on_few_points(monkeypatch):
    # the battery's bump misses on the 4,380 nodes of the bare wall-sum
    # density at (1, 1), s = 32; repaired from the density's panels, split
    # first at the bump's cuts, it evaluates 3,690 points in 5 calls
    # (7,485 in 7 unsplit), where a fresh integral on the bare cuts
    # evaluated 12,285 to end on 7,410 final nodes
    made = _repair_points(monkeypatch)
    sc = scenarios.cp2_wall_sum("cosine")
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], 32.0,
                         weighted=False)
    for tau in battery_for(sc.polytope):
        md.pair(tau)
    assert len(made) == 1 and made[0][0] == 1
    assert made[0][1] <= 7600
    assert made[0][2] <= 5


def test_criterion_5_bumps_are_repaired_on_few_points(monkeypatch):
    # criterion 5's 32 densities miss the battery's bump on their nodes;
    # repaired from their panels as one family they evaluate 5,640 points
    # (5,760 unsplit), where a fresh family on the bare cuts evaluated
    # 13,560 to end on 7,500 final nodes
    from toricray import acceptance
    made = _repair_points(monkeypatch)
    acceptance.ALL_CRITERIA[5]()
    family = [points for pairings, points, _ in made if pairings == 32]
    assert len(family) == 1 and family[0] <= 5850


def test_criterion_8_bumps_are_repaired_in_few_calls(monkeypatch):
    # criterion 8 repairs two bump pairings: its region mean's, on the
    # 225 nodes of the weight 1 at rel_tol 1e-10, and the density at
    # (2, 0)'s.  Split first at the bump's cuts they make 14 and 6 calls
    # on 11,805 and 3,000 points; unsplit they made 23 and 8 on 15,150 and
    # 3,420
    from toricray import acceptance
    made = _repair_points(monkeypatch)
    acceptance.ALL_CRITERIA[8]()
    assert [pairings for pairings, _, _ in made] == [1, 1]
    (_, mean_points, mean_calls), (_, points, calls) = made
    assert mean_calls <= 14 and mean_points <= 15150
    assert calls <= 6 and points <= 3420


def _splits(monkeypatch):
    """The parts of every seeded level split at a break from here on: for
    each, whether it kept some seeded panels and its count of pieces."""
    parts, split = [], quadrature._split

    def recording(*args):
        out = split(*args)
        if out[-1][1] is None:
            parts.append((len(out) == 2, len(out[-1][0][0])))
        return out
    monkeypatch.setattr(quadrature, "_split", recording)
    return parts


@pytest.mark.parametrize("n", [1, 2])
def test_a_row_whose_seeded_panels_are_all_split_runs(monkeypatch, n):
    # the weight 1 ends on one outer panel, which the bump's cuts cross in
    # x1: the repair's outermost level keeps no seeded panel, and only its
    # pieces and the slices under their nodes call f * tau.  The mean
    # agrees with scipy's quad, given the ends of the bump's support
    P = make_polytope([[1], [-1]], [0, -2]) if n == 1 else _simplex(2)
    bump = battery_for(P)[-1]
    rule = integrate_polytope(lambda X: np.ones(len(X)), P)
    assert len(np.unique(rule.owners[:, 0])) == 1
    parts = _splits(monkeypatch)
    value, err = quadrature.pair_all([(rule, bump)])[0]
    assert parts[0] == (False, 5 if n == 1 else 3)
    if n == 1:
        want, _ = quad(lambda x: bump(np.array([[x]]))[0], 0.0, 2.0,
                       points=[1.0 / 3.0, 5.0 / 3.0], epsabs=0.0,
                       epsrel=1e-13, limit=200)
    else:
        want, _ = _repair_reference(lambda X, i: bump(X), P, REL_TOL,
                                    points=[P.centroid()])
    assert 0.0 < err <= quadrature.ALLOWANCE * REL_TOL * want
    assert abs(value - want) <= quadrature.ALLOWANCE * REL_TOL * want


@pytest.mark.parametrize("peak", [[0.8], [0.5, 1.5], [0.5, 1.5, 0.5]])
def test_a_split_repair_agrees_with_a_fresh_integral(monkeypatch, peak):
    # a peak's rule on the segment [0, 3], on CP^2(3) and on CP^3(3) misses
    # the battery's bump; the repair splits some seeded panels at the
    # bump's cuts and keeps the others with the seeds below them, and
    # agrees with a fresh integral of f * bump at rel_tol / 100 within its
    # own estimate
    peak = np.array(peak)
    P = _simplex(len(peak))
    bump = battery_for(P)[-1]
    f = lambda X: np.exp(-3.0 * np.sum((X - peak) ** 2, axis=1))
    rule = integrate_polytope(lambda X, i: f(X), P, points=[peak],
                              rel_tol=1e-6)[0]
    parts = _splits(monkeypatch)
    value, err = quadrature.pair_all([(rule, bump)])[0]
    monkeypatch.undo()
    assert any(kept for kept, _ in parts)
    want, scale = _repair_reference(lambda X, i: f(X) * bump(X), P, 1e-6,
                                    points=[peak])
    assert 0.0 < err <= quadrature.ALLOWANCE * 1e-6 * scale
    assert abs(value - want) <= err


def test_three_wall_density_takes_few_nodes():
    # CP^3(3) with a cosine bump across each x_i = 1: the bare density at
    # (1, 1, 1), s = 32, takes 325,170 nodes on exact cuts (468,135 with
    # the float solves' slivers)
    P = _simplex(3)
    gen = build_wall_sum(P, [(tuple(int(i == a) for i in range(3)),
                              BumpSpec(1.0, 0.2, 1.0, "cosine"))
                             for a in range(3)])
    md = MonomialDensity(P, gen, [1, 1, 1], 32.0, weighted=False)
    md.log_mass()
    assert len(md._rule.weights) <= 330000


def test_region_mean_in_three_dimensions():
    P = _simplex(3)
    bat = battery_for(P)
    means = dict(zip([t.name for t in bat], region_mean(P, bat)))
    assert means["one"] == pytest.approx(1.0, rel=1e-13)
    for name in ("x1", "x2", "x3"):
        assert means[name] == pytest.approx(0.75, rel=1e-13)


def _near_lines(lines):
    """Zoom predicate: the triangles within their diameter of one of the
    lines {nu . x = c}, given as (nu, c) pairs."""
    L = np.array([[*nu, c] for nu, c in lines], dtype=float)
    norms = np.linalg.norm(L[:, :2], axis=1)

    def pred(tris):
        dist = np.abs(tris.mean(axis=1) @ L[:, :2].T - L[:, 2]) / norms
        return np.any(dist <= _diameters_batch(tris)[:, None], axis=1)
    return pred


def test_wall_sum_density_against_triangle_mesh():
    # s = 32 against meshes zoomed onto the slab ends.  A plain mesh's
    # four-child indicator misses the C^3 slab ends of the cosine kernel:
    # refined on the driver to rel_tol 1e-9 to 1e-11 it settles 7.9e-8
    # below the log mass that nested adaptive scipy quadrature gives to
    # 1e-15.  Zoomed to triangles of diameter 0.05 along the slab ends it
    # agrees to 2e-12.  The bump's flat edge is cut by neither engine, so
    # it gets a mesh refined on driver * bump and a looser bound.
    sc = scenarios.cp2_wall_sum("cosine")
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], 32.0,
                         weighted=False)
    ref = float(md.log_gap_density(md.m[None, :])[0])
    driver = lambda X: np.exp(md.log_gap_density(X) - ref)
    pred = _near_lines([(nu, c) for nu, lo, hi in sc.generator.support
                        for c in (lo, hi)])
    mesh = zoomed_mesh(sc.polytope.vertices_np, pred, 0.05)
    mesh.refine(driver, rel_tol=1e-9)
    assert md.log_mass() == pytest.approx(
        ref + math.log(mesh.value) + md.s * md.psi_m, abs=1e-10)
    for tau in battery_for(sc.polytope):
        if tau.name == "bump":
            paired = zoomed_mesh(sc.polytope.vertices_np, pred, 0.05)
            paired.refine(lambda X: driver(X) * tau(X), rel_tol=1e-9)
            assert md.pair(tau) == pytest.approx(paired.value / mesh.value,
                                                 abs=1e-8)
        else:
            assert md.pair(tau) == pytest.approx(
                mesh.pair_against_driver(tau) / mesh.value, abs=1e-10)


def test_corner_smoothing_density_against_quad():
    # on the box [0.95, 1.05] x [0.45, 0.55] across the wall x1 = 1, far
    # from the corner, the eps = 0.1 cp2-corner smoothing only sees the
    # kink x1 = 1, so its density is a function of x1: scipy's quad,
    # given the footprint lines, is a one-dimensional reference for the
    # panels, which are cut where the support lists its slab ends
    from scipy.integrate import quad
    sc = scenarios.cp2_corner()
    gen = build_nice_smoothing(sc.pl, sc.polytope, sc.decomposition, 0.1,
                               kernel="cosine")
    md = MonomialDensity(sc.polytope, gen, [1, 1], 32.0, weighted=False)
    ref = float(md.log_gap_density(md.m[None, :])[0])
    driver = lambda X: np.exp(md.log_gap_density(X) - ref)
    box = make_polytope([[1, 0], [0, 1], [-1, 0], [0, -1]],
                        ["19/20", "9/20", "-21/20", "-11/20"],
                        require_delzant=False)
    lines = [(nu, c) for nu, lo, hi in gen.support for c in (lo, hi)]
    ends = sorted(c for nu, c in lines if tuple(nu) == (1.0, 0.0))
    assert np.allclose(ends, [0.9625, 0.9875, 1.0125, 1.0375], atol=1e-15)
    res = integrate_polytope(driver, box, lines=lines, rel_tol=1e-10)
    want, _ = quad(lambda t: float(driver(np.array([[t, 0.5]]))[0]),
                   0.95, 1.05, points=ends, epsabs=0.0, epsrel=1e-12)
    assert res.value == pytest.approx(0.1 * want, rel=1e-10)
    assert res.err <= 1e-10 * res.value


# recorded from the zoomed triangle mesh (rel_tol 1e-6), as in the
# benchmark's cp2-wall workload
WALL_SUM_RECORDED = {
    512: {"log_mass": 24.47868182632851,
          "x1": 1.000000000197548, "x2": 1.000000000197548,
          "x1x1": 1.0004278192354035, "x1x2": 0.9999999962100229,
          "x2x2": 1.0004278192354035, "cos_x1": 0.7380579320256416,
          "cos_x2": 0.738057932025642, "bump": 0.3677217941864878},
    8192: {"log_mass": 478.4105401375036,
           "x1": 1.0000000000032057, "x2": 1.0000000000027394,
           "x1x1": 1.000024525437408, "x1x2": 1.0000000000059182,
           "x2x2": 1.0000245254364715, "cos_x1": 0.7381395219945805,
           "cos_x2": 0.7381395219948143, "bump": 0.3678704185478011},
}


@pytest.mark.parametrize("s", sorted(WALL_SUM_RECORDED))
def test_wall_sum_density_recorded_values(s):
    sc = scenarios.cp2_wall_sum("cosine")
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], float(s),
                         weighted=False)
    rec = WALL_SUM_RECORDED[s]
    assert md.log_mass() == pytest.approx(rec["log_mass"], abs=1e-6)
    for tau in battery_for(sc.polytope):
        want = 1.0 if tau.name == "one" else rec[tau.name]
        assert md.pair(tau) == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("s", [2048.0, 8192.0])
def test_wall_sum_mass_is_the_square_of_the_segment_mass(s):
    # cp2_wall_sum is separable (walls x1 = 1 and x2 = 1), so its bare mass
    # at (1,1) is the square of the mass of the same bump on [0, 3], up to
    # the triangle's cut corner x1 + x2 > 3.  At these s the corner weighs
    # below 1e-14 of the mass; at s = 512 it weighs 1e-5, far above the
    # estimates.  The difference is within the estimates of the two rules
    sc = scenarios.cp2_wall_sum("cosine")
    seg = make_polytope([[1], [-1]], [0, -3])
    gen = build_bump_generator(seg, [BumpSpec(1.0, 0.2, 1.0, "cosine")])
    rules = []
    for P, g, m in ((sc.polytope, sc.generator, [1, 1]), (seg, gen, [1])):
        md = MonomialDensity(P, g, m, s, weighted=False)
        md.log_mass()
        rules.append(md._rule)
    two, one = rules
    assert one.rel_tol == 1e-10
    assert abs(two.value - one.value ** 2) <= \
        two.err + 2.0 * one.value * one.err


def test_wall_sum_density_takes_few_nodes():
    # the x2 slices the x1 integral cannot see stop at the tolerance it
    # hands them, not at their own relative one: 36,975 final nodes
    # without that floor, 23,595 with it
    sc = scenarios.cp2_wall_sum("cosine")
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], 8192.0,
                         weighted=False)
    md.log_mass()
    assert len(md._rule.weights) <= 28000


def test_weighted_wall_sum_density_takes_few_nodes():
    # at (1,1) the weight is sqrt(x1 x2 (3 - x1 - x2)) times a smooth
    # function: the innermost x2 chords map their ends by t^2, and the
    # outer x1 level's ends at the vertex projections are what is left
    # (44,385 final nodes with no map, 11,220 with it)
    sc = scenarios.cp2_wall_sum("cosine")
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], 32.0)
    md.log_mass()
    assert len(md._rule.weights) <= 12000


def test_beta_family_takes_few_nodes():
    # criterion 1's family on [0, 3] at s = 0: each half-integer power of
    # a facet is mapped by t^2 (750 final nodes with no map, 120 with it)
    P = make_polytope([[1], [-1]], [0, -3])
    family = density_family(P, build_bump_generator(P, []),
                            [([n], 0.0, True) for n in range(4)])
    family[0].log_mass()
    assert sum(len(d._rule.weights) for d in family) <= 150
