"""The quadrature engines against test-local references.

1-D: the level-by-level panel engine against the heap refinement it
replaced, closed forms and its panel budget.  2-D: the iterated panels of
``integrate_polytope`` against exact polynomial integrals, an erf product,
and TriangleMesh, which stays as an independent reference.  The zoom
pre-split, which splits a reference mesh's triangles near a set of lines
before refinement, lives here with its scalar reference walk.
"""

import heapq
import math
from fractions import Fraction

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
                                 TriangleMesh, _split4_batch, adaptive_panels,
                                 integrate_on_panels, integrate_polytope,
                                 log_integral_1d)
from toricray.quantization import MonomialDensity

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
    # pairings run GL15 on both halves of each engine's final panels
    lo, hi = np.array(panels).T
    mid = 0.5 * (lo + hi)
    halves = np.column_stack([np.concatenate([lo, mid]),
                              np.concatenate([mid, hi])])
    for tau in battery_for(P):
        want = integrate_on_panels(
            lambda t: driver(t) * tau(np.asarray(t)[..., None]), halves)
        assert md.pair(tau) == pytest.approx(want / value, abs=1e-9)
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
    engine = quadrature.refine_groups

    def recording(f, *args, **kwargs):
        def level(x, g):
            out = f(x, g)
            seen.append(gen.jet_calls)
            return out
        return engine(level, *args, **kwargs)
    cases = ((scenarios.segment("smooth"), [1]),
             (scenarios.cp2_wall_sum("cosine"), [1, 1]))
    monkeypatch.setattr(quadrature, "refine_groups", recording)
    for sc, m in cases:
        for s in (32.0, 4096.0):
            for weighted in (False, True):
                gen = _CountingGenerator(sc.generator)
                md = MonomialDensity(sc.polytope, gen, m, s,
                                     weighted=weighted)
                md.log_mass()
                assert gen.jet_calls == seen[-1]


def test_groups_refine_independently():
    # a grouped call makes the same panels as one call per group
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
        assert res.total[k] == pytest.approx(value, rel=1e-14)
        levels = max(levels, int(round(np.log2((b - a) / np.min(
            res.hi[mine] - res.lo[mine])))))
        # the nodes, weights and values are the rule each total sums
        assert np.sum(res.weights[mine] * res.values[mine]) == \
            pytest.approx(value, rel=1e-14)
        assert np.array_equal(res.values[mine], f(res.nodes[mine]))
    assert len(calls) == levels + 1


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
        lambda X: np.exp(-s * np.sum((X - c) ** 2, axis=-1)),
        POLYTOPES["square"], point=c, rel_tol=1e-10)
    r = math.sqrt(s)
    exact = math.prod(0.5 * math.sqrt(math.pi / s)
                      * (erf(r * (2.0 - ci)) + erf(r * ci)) for ci in c)
    assert abs(res.value / exact - 1.0) <= 1e-10
    assert res.err <= 1e-10 * exact
    assert np.sum(res.weights * res.values) == pytest.approx(res.value,
                                                             rel=1e-14)


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
                         weighted=False, rel_tol=1e-10)
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
    from toricray.smoothing import build_nice_smoothing
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
