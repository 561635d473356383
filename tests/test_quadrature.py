"""The quadrature engines against test-local references.

1-D: the level-by-level panel engine against the heap refinement it
replaced, closed forms and its panel budget.  2-D: the batched zoom
pre-split of TriangleMesh.refine against the scalar walk.
"""

import heapq
import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import erf
from scipy.spatial import cKDTree

from toricray import quadrature, scenarios
from toricray.generators import Generator, build_bump_generator
from toricray.limits import battery_for
from toricray.polytope import make_polytope
from toricray.quadrature import (GL15_NODES, GL15_WEIGHTS, QuadratureError,
                                 TriangleMesh, _diameters_batch,
                                 _split4_batch, adaptive_panels,
                                 integrate_on_panels, log_integral_1d)
from toricray.quantization import MonomialDensity, _near_points

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


# ---------------------------------------------------------------------------
# 1-D panels
# ---------------------------------------------------------------------------

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
def test_panels_agree_with_heap_reference(case, monkeypatch):
    _, P, gen, m, s, weighted = case
    md = MonomialDensity(P, gen, m, s, weighted=weighted)
    with monkeypatch.context() as mp:
        mp.setattr(quadrature, "adaptive_panels", reference_panels)
        ref = MonomialDensity(P, gen, m, s, weighted=weighted)
        ref_mass = ref.log_mass()
    # the masses (hence the normalized densities) agree within rel_tol
    assert abs(md.log_mass() - ref_mass) <= md.rel_tol
    xs = np.linspace(0.0, float(P.bbox()[1][0]), 41)[:, None]
    assert np.allclose(md.normalized(xs), ref.normalized(xs),
                       rtol=md.rel_tol, atol=0.0)
    # pairings run the GL15 rule on each engine's final panels
    for tau in battery_for(P):
        assert md.pair(tau) == pytest.approx(ref.pair(tau), abs=1e-9)
    if s == 0.0:
        N = float(P.bbox()[1][0])
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


def test_panel_budget_is_never_exceeded():
    peak = lambda x: np.exp(-1e4 * (x - 0.3) ** 2) + 1e-3 * np.sin(40.0 * x)
    natural = len(adaptive_panels(peak, 0.0, 2.0, rel_tol=1e-12)[1])
    converged = raised = 0
    for budget in range(2, natural + 4):
        try:
            _, panels = adaptive_panels(peak, 0.0, 2.0, rel_tol=1e-12,
                                        max_panels=budget)
        except QuadratureError as exc:
            assert f"exhausted {budget} panels" in str(exc)
            raised += 1
            continue
        assert len(panels) <= budget
        converged += 1
    assert converged and raised


def test_budget_splits_largest_errors_first():
    # ten seeded panels, each with a kink; the peak makes [1.0, 1.2] the
    # worst, and a budget of eleven panels allows one split
    calls = []

    def integrand(x):
        calls.append(np.array(x))
        return (np.exp(-1e4 * (x - 1.13) ** 2)
                + np.abs(np.sin(5.0 * np.pi * x + 0.3)) ** 1.5)
    with pytest.raises(QuadratureError, match="exhausted 11 panels"):
        adaptive_panels(integrand, 0.0, 2.0, seeds=np.linspace(0.2, 1.8, 9),
                        max_panels=11)
    assert len(calls) == 2
    assert np.all((calls[1] > 1.0) & (calls[1] < 1.2))


@pytest.mark.parametrize("seeds", [(), tuple(np.linspace(0.1, 2.9, 9))])
def test_tiny_budget_on_a_peak_raises(seeds):
    # nine seeds already give ten panels, more than the budget of four
    with pytest.raises(QuadratureError, match="exhausted 4 panels"):
        adaptive_panels(lambda x: np.exp(-1e4 * (x - 1.1) ** 2), 0.0, 3.0,
                        seeds=seeds, max_panels=4)


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
    # every call holds whole GL15 panels; the first call measures each
    # initial panel and both halves, later calls both halves of each child
    assert len(calls[0]) == 45 * (len(cuts) - 1)
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
    sc = scenarios.segment("smooth")
    gen = _CountingGenerator(sc.generator)
    md = MonomialDensity(sc.polytope, gen, [1], 512.0, weighted=weighted)
    md.log_mass()
    before = gen.jet_calls
    battery = battery_for(sc.polytope)
    pairs = {tau.name: md.pair(tau) for tau in battery}
    assert gen.jet_calls == before
    assert abs(pairs["one"] - 1.0) <= md.rel_tol
    # a test function may return a scalar, as with the 2-D mesh
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


def test_near_points_matches_kd_tree():
    rng = np.random.default_rng(17)
    cloud = _cloud()
    tree = cKDTree(cloud)
    near = _near_points(cloud)
    for n in (1, 7, 5000, 40000):
        centers = rng.uniform(-0.5, 2.5, size=(n, 1, 2))
        tris = centers + rng.uniform(-0.05, 0.05, size=(n, 3, 2)) * \
            rng.uniform(0.01, 10.0, size=(n, 1, 1))
        d, _ = tree.query(tris.mean(axis=1))
        want = d <= _diameters_batch(tris)
        assert np.array_equal(near(tris), want)
        assert 0 < np.count_nonzero(want) < n or n < 10


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
