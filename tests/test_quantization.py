"""Monomial densities, norms, and transform coefficients."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn

from toricray import quadrature, quantization
from toricray.generators import BumpSpec, Generator, build_bump_generator
from toricray.limits import battery_for
from toricray.polytope import make_polytope
from toricray.scenarios import (corrected_segment, cp2, cp2_wall, cp2_wall_sum,
                                segment as seg_scenario)
from toricray.quadrature import QuadratureError, integrate_1d
from toricray.quantization import (MonomialDensity, QuantizationError,
                                   base_log_weight, basis_census,
                                   density_family, gcst_image, l1_norm,
                                   normalized_density, pair_densities,
                                   ray_rate, rate_gap)


def segment(N=2):
    return make_polytope([[1], [-1]], [0, -N])


def bump_gen(P=None):
    P = P or segment()
    return build_bump_generator(P, [BumpSpec(1.0, 0.25, 1.0)])


def test_base_density_closed_form_on_segment():
    # exp(-h) = x^(n/2) (N-x)^((N-n)/2) for P = [0, N]
    rng = np.random.default_rng(6)
    for N in (1, 2, 3):
        P = segment(N)
        for n in range(N + 1):
            xs = rng.uniform(1e-3, N - 1e-3, size=100)[:, None]
            got = np.exp(-base_log_weight(P, [n], xs))
            want = xs[:, 0] ** (n / 2) * (N - xs[:, 0]) ** ((N - n) / 2)
            assert np.max(np.abs(got / want - 1.0)) < 1e-10


def test_base_density_boundary_limits():
    P = segment(2)
    # n = 1, x = 1: both factors are 1
    assert np.exp(-base_log_weight(P, [1], np.array([[1.0]])))[0] == \
        pytest.approx(1.0, abs=1e-14)
    # n = 0, x = 0: finite nonzero boundary value N^(N/2)
    val = np.exp(-base_log_weight(P, [0], np.array([[0.0]])))[0]
    assert val == pytest.approx(2.0, abs=1e-12)
    # vanishing at the far facet
    assert np.exp(-base_log_weight(P, [0], np.array([[2.0]])))[0] == 0.0


def test_rate_examples_single_bump():
    P = segment()
    gen = bump_gen(P)
    xs1 = np.linspace(0.0, 0.75, 30)[:, None]
    assert np.max(np.abs(ray_rate(gen, [0.0], xs1))) < 1e-12
    xs2 = np.linspace(1.25, 2.0, 30)[:, None]
    # constant (m - n) * A on the far gap
    assert np.max(np.abs(ray_rate(gen, [0.0], xs2) - 1.0)) < 1e-10
    assert np.max(np.abs(ray_rate(gen, [2.0], xs2) + 1.0)) < 1e-10


def test_rate_minimum_property():
    rng = np.random.default_rng(7)
    P = segment()
    gen = bump_gen(P)
    xs = rng.uniform(0, 2, size=10000)[:, None]
    for n in (0.0, 0.9, 1.0, 1.6, 2.0):
        vals = ray_rate(gen, [n], xs)
        floor = -float(gen.value(np.array([n])))
        assert vals.min() >= floor - 1e-12
        at_n = float(ray_rate(gen, [n], np.array([[n]]))[0])
        assert at_n == pytest.approx(floor, abs=1e-12)
        assert np.min(rate_gap(gen, [n], xs)) >= -1e-12


def test_l1_norm_beta_oracle():
    for N in (1, 2, 3):
        P = segment(N)
        gen = build_bump_generator(P, [])
        for n in range(N + 1):
            md = MonomialDensity(P, gen, [n], 0.0)
            target = N ** (N / 2 + 1) * beta_fn(n / 2 + 1, (N - n) / 2 + 1)
            assert md.log_mass() == pytest.approx(math.log(target), abs=1e-8)
            assert l1_norm(md) == pytest.approx(
                math.log(2 * math.pi * target), abs=1e-8)


def test_corrected_segment_masses_against_beta():
    # on [-1/2, 5/2] the facet values sum to 3, so the s = 0 weighted mass
    # at m is 3^(a+b+1) B(a+1, b+1) with a = (m + 1/2)/2 and b = (5/2 -
    # m)/2 in 1/4 + Z/2: both ends are mapped by t^4
    sc = corrected_segment("cosine")
    family = density_family(sc.polytope, sc.generator,
                            [([m], 0.0, True) for m in (0, 1, 2)])
    for m, md in zip((0, 1, 2), family):
        a, b = (m + 0.5) / 2, (2.5 - m) / 2
        target = 3.0 ** (a + b + 1) * beta_fn(a + 1, b + 1)
        assert abs(math.expm1(md.log_mass() - math.log(target))) <= 1e-12


def test_cp2_masses_against_dirichlet():
    # on CP^2(3) the facet values x1, x2 and 3 - x1 - x2 sum to 3, so the
    # s = 0 weighted mass at m is the Dirichlet integral
    # 3^(a+b+c+2) G(a+1) G(b+1) G(c+1) / G(a+b+c+3), with a, b, c the
    # half facet values at m, at all 10 lattice points
    sc = cp2_wall_sum("cosine")
    points = cp2(3).integral_points()
    assert len(points) == 10
    family = density_family(sc.polytope, sc.generator,
                            [(m, 0.0, True) for m in points])
    for (m1, m2), md in zip(points, family):
        a, b, c = m1 / 2, m2 / 2, (3 - m1 - m2) / 2
        target = 3.0 ** (a + b + c + 2) * gamma_fn(a + 1) * gamma_fn(b + 1) \
            * gamma_fn(c + 1) / gamma_fn(a + b + c + 3)
        assert abs(math.expm1(md.log_mass() - math.log(target))) <= 1e-6


def test_ray_rate_of_stacked_points_is_each_points_rate():
    # one jet for k lattice points gives each point's row bit for bit
    for gen, ms, xs in (
            (bump_gen(), [[0.0], [1.0], [2.0]],
             np.linspace(0.0, 2.0, 50)[:, None]),
            (cp2_wall_sum("cosine").generator, [[1, 1], [2, 0], [0, 3]],
             np.random.default_rng(2).uniform(0.0, 1.5, size=(40, 2)))):
        got = ray_rate(gen, ms, xs)
        assert got.shape == (len(ms), len(xs))
        for m, row in zip(ms, got):
            assert np.array_equal(row, ray_rate(gen, m, xs))


def test_normalized_density_integrates_to_one():
    P = segment()
    gen = bump_gen(P)
    for s, weighted in ((0.0, True), (100.0, True), (1000.0, False)):
        md = MonomialDensity(P, gen, [1], s, weighted=weighted)
        rho = normalized_density(md)
        total = integrate_1d(lambda t: rho(np.asarray(t)[..., None]), 0.0, 2.0,
                             rel_tol=1e-11,
                             seeds=(0.75, 1.0, 1.25))
        assert total == pytest.approx(1.0, abs=1e-9)
        assert md.pair(lambda X: np.ones(X.shape[:-1])) == pytest.approx(
            1.0, abs=1e-9)


def test_bare_variant_at_s_zero_is_uniform():
    P = segment()
    gen = bump_gen(P)
    md = MonomialDensity(P, gen, [1], 0.0, weighted=False)
    xs = np.linspace(0, 2, 15)[:, None]
    assert np.max(np.abs(md.normalized(xs) - 0.5)) < 1e-12


def test_log_mass_scaling_property():
    P = segment()
    gen = bump_gen(P)
    md = MonomialDensity(P, gen, [1], 3.0)
    shifted = md.log_density(np.array([[0.4], [1.1]])) + math.log(2.5)
    # scaling the density scales the mass: verified through the gap identity
    assert md.log_mass() + math.log(2.5) == pytest.approx(
        math.log(2.5 * math.exp(md.log_mass())), rel=1e-12)
    assert np.all(np.isfinite(shifted))


def test_mass_tends_to_component_restriction():
    # s -> infinity: mass -> integral of the base density over the component
    P = segment()
    gen = bump_gen(P)
    target = integrate_1d(
        lambda t: np.exp(-base_log_weight(P, [0], np.asarray(t)[..., None])),
        0.0, 0.75, rel_tol=1e-12)
    errs = []
    for s in (256.0, 1024.0, 4096.0):
        md = MonomialDensity(P, gen, [0], s)
        errs.append(abs(math.exp(md.log_mass()) - target))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] <= 0.1 * target


def test_gcst_coefficients():
    P = segment()
    gen = bump_gen(P)
    md0 = MonomialDensity(P, gen, [0], 50.0)
    assert gcst_image(md0).coefficient == 1.0  # psi vanishes left of the bump
    md1 = MonomialDensity(P, gen, [1], 0.0)
    assert gcst_image(md1).coefficient == 1.0
    md2 = MonomialDensity(P, gen, [2], 10.0)
    # psi(n) = A (n - m) beyond the support
    assert gcst_image(md2).coefficient == pytest.approx(
        math.exp(-10.0 * 1.0 * (2.0 - 1.0)), rel=1e-12)


def test_gcst_rejects_non_lattice():
    P = segment()
    gen = bump_gen(P)
    with pytest.raises(QuantizationError):
        gcst_image(MonomialDensity(P, gen, [0.5], 1.0))


def test_gcst_lattice_test_is_exact():
    # a point a millionth off the lattice is not a lattice point
    P = segment()
    gen = bump_gen(P)
    with pytest.raises(QuantizationError, match="not a lattice point"):
        gcst_image(MonomialDensity(P, gen, [1.000001], 32.0))
    assert gcst_image(MonomialDensity(P, gen, [1.0], 32.0)).m[0] == 1.0


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "bare"])
def test_lattice_point_outside_P_is_rejected(weighted):
    # the base weight's facet terms are not needed by the bare variant, but
    # m must lie in P in both
    P = segment()
    for m in ([3], [-1]):
        with pytest.raises(QuantizationError, match="lies outside P"):
            MonomialDensity(P, bump_gen(P), m, 8.0, weighted=weighted)


def test_gcst_scalar_density_monotone_in_s():
    P = segment()
    gen = bump_gen(P)
    xs = np.linspace(0.05, 1.95, 25)[:, None]
    prev = None
    for s in (0.0, 2.0, 8.0, 32.0):
        md = MonomialDensity(P, gen, [1], s)
        vals = gcst_image(md).density.log_gap_density(xs)
        if prev is not None:
            assert np.all(vals <= prev + 1e-12)
        prev = vals


def test_basis_census():
    assert basis_census(segment(2))[0] == 3
    Pc = make_polytope([[1], [-1]], ["-1/2", "-5/2"], corrected=True)
    assert basis_census(Pc)[0] == 3
    simplex = make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -3])
    count, pts = basis_census(simplex)
    assert count == 10 and (1, 1) in pts


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


def test_log_gap_density_makes_one_jet_call():
    P = segment()
    gen = _CountingGenerator(bump_gen(P))
    xs = np.linspace(0.05, 1.95, 25)[:, None]
    for weighted in (True, False):
        md = MonomialDensity(P, gen, [1], 8.0, weighted=weighted)
        for _ in range(3):
            before = gen.jet_calls
            got = md.log_gap_density(xs)
            assert gen.jet_calls == before + 1
        want = -8.0 * rate_gap(gen.inner, [1], xs)
        if weighted:
            want = want - base_log_weight(P, [1], xs)
        assert np.array_equal(got, want)


def test_pairings_carry_estimates_within_the_verdict(monkeypatch):
    # no cut of the s = 0 Beta density on [0, 2] follows the ends of the
    # battery's bump, so on the density's own nodes the bump's estimate
    # misses the verdict and density times bump is repaired from the
    # density's own panels, with no fresh integral; every other member is
    # summed on the nodes, with one call of it.  Each pairing meets the
    # verdict and agrees with scipy's quad within it
    P = segment(2)
    md = MonomialDensity(P, build_bump_generator(P, []), [0], 0.0)
    battery = battery_for(P)
    magnitudes = [md.pair(lambda X: np.abs(tau(X))) for tau in battery]

    def fresh(*args, **kwargs):
        raise AssertionError("a missed pairing is integrated afresh")
    monkeypatch.setattr(quadrature, "integrate_polytope", fresh)
    for tau, magnitude in zip(battery, magnitudes):
        calls = []
        values, errs = pair_densities(
            [md], [lambda X: calls.append(len(X)) or tau(X)])
        value, err = values[0, 0], errs[0, 0]
        bound = quadrature.ALLOWANCE * md.rel_tol * magnitude
        assert 0.0 < err <= bound
        assert md.pair(tau) == value
        assert (len(calls) > 1) == (tau.name == "bump")
        want, _ = quad(lambda x: md.normalized(np.array([[x]]))[0]
                       * tau(np.array([[x]]))[0], 0.0, 2.0,
                       points=[1.0 / 3.0, 5.0 / 3.0], epsabs=0.0,
                       epsrel=1e-13, limit=200)
        assert abs(value - want) <= bound


def test_nonconvergence_reports_panel_count(monkeypatch):
    # eight panels per integral cannot resolve the s = 8192 peak (thirteen
    # do);
    # the engine judges its own error estimate
    sc = cp2_wall_sum("cosine")
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], 8192.0,
                         weighted=False)
    with pytest.raises(QuadratureError,
                       match=r"at \d+ panels, with a budget of 8 panels "
                             r"per integral"):
        md.log_mass()


class _NanGenerator(_CountingGenerator):
    """A generator whose value is nan everywhere."""

    def jet(self, x, order):
        val, grad, hess = self.inner.jet(x, order)
        return np.full_like(val, np.nan), grad, hess


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_generator_raises(dim):
    # every comparison with nan is false, so no tolerance test can pass it:
    # the engine's verdict rejects the non-finite mass
    if dim == 1:
        P, gen, m = segment(), bump_gen(), [1]
    else:
        sc = cp2_wall_sum("cosine")
        P, gen, m = sc.polytope, sc.generator, [1, 1]
    md = MonomialDensity(P, _NanGenerator(gen), m, 32.0)
    with pytest.raises(QuadratureError, match="not finite"):
        md.log_mass()


def _peak_cases():
    """(label, polytope, generator, m) over the shipped scenarios, with m
    interior, on a facet and at a vertex (both ends of a segment)."""
    from toricray import scenarios
    from toricray.smoothing import build_nice_smoothing
    cases = []
    for name in ("segment", "segment_narrow", "corrected_segment",
                 "three_bumps"):
        sc = getattr(scenarios, name)("smooth")
        cases += [(f"{name}-m{m[0]}", sc.polytope, sc.generator, m)
                  for m in sc.lattice_points]
    wall = scenarios.cp2_wall()
    corner = scenarios.cp2_corner()
    gens = {"cp2-wall": wall.generator,
            "cp2-wall-sum": scenarios.cp2_wall_sum("smooth").generator,
            "cp2-corner": build_nice_smoothing(corner.pl, corner.polytope,
                                               corner.decomposition, 0.1)}
    for name, gen in gens.items():
        cases += [(f"{name}-m{m[0]}{m[1]}", wall.polytope, gen, m)
                  for m in ([1, 1], [1, 0], [2, 1], [0, 0], [3, 0])]
    return cases


@pytest.mark.parametrize("case", _peak_cases(), ids=lambda c: c[0])
def test_log_density_peaks_at_m(case):
    # rate_gap is a Bregman divergence of the convex psi and h(x) - h(m) a
    # sum of y - 1 - log y >= 0 terms: the log density is largest at m.  Up
    # to rounding: the mollified generators' gradients carry their outer
    # quadrature's error, which leaves gaps of -3.2e-12 on cp2-corner
    _, P, gen, m = case
    lo, hi = P.bbox()
    if P.dim == 1:
        X = np.linspace(lo[0], hi[0], 20001)[:, None]
    else:
        g = np.stack(np.meshgrid(np.linspace(lo[0], hi[0], 121),
                                 np.linspace(lo[1], hi[1], 121)),
                     axis=-1).reshape(-1, 2)
        X = g[P.contains(g, tol=1e-12)]
    for s in (0.0, 32.0, 4096.0):
        for weighted in (False, True):
            md = MonomialDensity(P, gen, m, s, weighted=weighted)
            peak = float(md.log_gap_density(md.m[None, :])[0])
            assert np.max(md.log_gap_density(X)) <= \
                peak + 1e-12 * max(1.0, abs(peak)) + 1e-11 * s


def _family_cases():
    """(label, scenario, members (m, s, weighted)) of one family each."""
    grid = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    for kernel in ("cosine", "smooth"):
        sc = seg_scenario(kernel)
        for m in (0, 1, 2):
            for weighted in (False, True):
                tag = "weighted" if weighted else "bare"
                yield (f"segment-{kernel}-m{m}-{tag}", sc,
                       [([m], s, weighted) for s in grid])
        # bare and weighted members at every lattice point in one family
        yield (f"segment-{kernel}-mixed", sc,
               [([m], s, weighted) for m in (0, 1, 2)
                for weighted in (False, True) for s in grid])
    wall = cp2_wall()
    wall_sum = cp2_wall_sum("cosine")
    for weighted in (False, True):
        tag = "weighted" if weighted else "bare"
        yield (f"cp2-wall-20-{tag}", wall,
               [([2, 0], s, weighted) for s in [64, 256, 1024, 2048]])
        yield (f"cp2-wall-sum-11-{tag}", wall_sum,
               [([1, 1], s, weighted) for s in [32, 512, 8192]])
        # s five orders of magnitude apart: each member's inner integrals
        # get the floor its own outer integral hands them
        yield (f"cp2-wall-sum-20-{tag}", wall_sum,
               [([2, 0], s, weighted) for s in [4, 4096, 262144]])
    yield ("cp2-wall-sum-mixed", wall_sum,
           [(m, s, weighted) for m in ([1, 1], [2, 0])
            for weighted in (False, True) for s in (4, 4096)])
    # the half-form corrected segment: every weighted end mapped by t^4,
    # next to bare members whose ends are not mapped
    corrected = corrected_segment("cosine")
    yield ("corrected-segment-weighted", corrected,
           [([m], s, True) for m in (0, 1, 2) for s in [0.0, *grid]])
    yield ("corrected-segment-mixed", corrected,
           [([m], s, weighted) for m in (0, 1, 2)
            for weighted in (False, True) for s in (0.0, 32, 4096)])


@pytest.mark.parametrize("case", list(_family_cases()), ids=lambda c: c[0])
def test_family_equals_lone_densities(case, monkeypatch):
    # the densities of one family, normed in one pass and paired in one
    # batch, get the masses, pairings and estimates each has alone, bit for
    # bit, whether the members are all bare, all weighted or mixed.  The
    # norms make one integral in all.
    _, sc, members = case
    P, gen = sc.polytope, sc.generator
    bat = list(battery_for(P))
    calls = []
    engine = quadrature.integrate_polytope
    monkeypatch.setattr(quadrature, "integrate_polytope",
                        lambda *a, **k: calls.append(len(k["points"]))
                        or engine(*a, **k))
    family = density_family(P, gen, members)
    family[-1].log_mass()
    assert calls == [len(members)]
    values, errs = pair_densities(family, bat)
    assert len(calls) <= 2
    monkeypatch.undo()
    for d, (m, s, weighted), row, erow in zip(family, members, values, errs):
        lone = MonomialDensity(P, gen, m, s, weighted=weighted)
        assert d.weighted == weighted
        assert d.log_mass() == lone.log_mass()
        assert d.rel_tol == lone.rel_tol
        assert d._ref == lone._ref
        for tau, value, err in zip(bat, row, erow):
            want, want_err = pair_densities([lone], [tau])
            assert (value, err) == (want[0, 0], want_err[0, 0])
            assert d.pair(tau) == want[0, 0]


def test_shared_tau_is_called_once_per_level():
    # the battery's bump misses on the nodes of each of the eight densities
    # at m = 0: their repair, one family, calls the one bump once per call
    # of the densities' integrand, on the rows of every pairing, and each
    # pairing gets the value it has from a pair_all of its own
    sc = seg_scenario("cosine")
    family = density_family(sc.polytope, sc.generator, [
        ([0], s, False) for s in (32, 64, 128, 256, 512, 1024, 2048, 4096)])
    family[0].log_mass()
    bump = next(t for t in battery_for(sc.polytope) if t.name == "bump")
    calls, levels = [], []
    f, *rest = family[0]._rule.family

    def driver(X, i):
        levels.append(len(calls))
        return f(X, i)
    # the rules of one call share one family tuple, with a counting f
    counting = (driver, *rest)
    rules = [d._rule._replace(family=counting) for d in family]

    def tau(X):
        calls.append(len(X))
        return bump(X)

    got = quadrature.pair_all([(rule, tau) for rule in rules])
    # one call per pairing on its own nodes, then one per level of the
    # repair, made after the level's integrand
    assert levels and levels == list(range(len(rules), len(calls)))
    for rule, value in zip(rules, got):
        assert value == quadrature.pair_all([(rule, bump)])[0]


@pytest.mark.parametrize("which", ["segment", "cp2_wall_sum"])
def test_family_members_equal_lone_densities(monkeypatch, which):
    # a family takes psi(m) for all its distinct m from one jet, and the
    # facet terms and exact powers once per distinct m; each member still
    # equals the density made alone, bit for bit
    if which == "segment":
        sc = seg_scenario("cosine")
        members = [([n], s, w) for n in (0, 1) for s in (64.0, 512.0)
                   for w in (False, True)]
    else:
        sc = cp2_wall_sum("cosine")
        members = [(m, s, w) for m in ([1, 1], [2, 0]) for s in (32.0, 512.0)
                   for w in (False, True)]
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)[:3]
    values = []
    value = gen.value
    monkeypatch.setattr(gen, "value", lambda x: values.append(x) or value(x))
    family = density_family(P, gen, members)
    assert len(values) == 1 and len(values[0]) == 2
    monkeypatch.undo()
    pairs = pair_densities(family, bat)
    for d, (m, s, w), vals, errs in zip(family, members, *pairs):
        lone = MonomialDensity(P, gen, m, s, weighted=w)
        # the segment's m = 1 is seeded with its width, m = 0 is not
        lone.log_mass()
        seeded = [np.isfinite(r.family[3][r.member, :, 1:]).any()
                  for r in (d._rule, lone._rule)]
        assert seeded == [which == "segment" and m == [1]] * 2
        assert d.psi_m == lone.psi_m
        for got, want in zip(d._facets, lone._facets):
            assert np.array_equal(got, want)
        assert d.log_mass() == lone.log_mass()
        want = pair_densities([lone], bat)
        assert np.array_equal(vals, want[0][0])
        assert np.array_equal(errs, want[1][0])


DELTA_GRID = [32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0]


def _unseeded(monkeypatch):
    """Norm densities as if no width or mass were known."""
    monkeypatch.setattr(quantization, "_laplace", lambda *args: (None, None))


@pytest.mark.parametrize("kernel", ["cosine", "smooth"])
def test_delta_family_norms_in_few_driver_calls(monkeypatch, kernel):
    # m = 1 is interior and psi''(1) > 0: each member's panels are also cut
    # at m +- sigma 2^k, sigma = (s psi''(m))^(-1/2), so a delta family
    # converges in at most three levels (seven unseeded), and its masses
    # and pairings agree with the unseeded rule within the verdict
    sc = seg_scenario(kernel)
    P, gen = sc.polytope, sc.generator
    members = [([1], s, w) for s in DELTA_GRID for w in (False, True)]
    bat = battery_for(P)
    calls = []
    engine = quadrature.integrate_polytope
    monkeypatch.setattr(quadrature, "integrate_polytope", lambda f, *a, **k:
                        engine(lambda X, i: calls.append(len(X)) or f(X, i),
                               *a, **k))
    family = density_family(P, gen, members)
    family[0].log_mass()
    assert 0 < len(calls) <= 3
    monkeypatch.undo()
    values, _ = pair_densities(family, bat)
    _unseeded(monkeypatch)
    plain = density_family(P, gen, members)
    want, _ = pair_densities(plain, bat)
    bound = quadrature.ALLOWANCE * family[0].rel_tol
    for d, p in zip(family, plain):
        assert abs(d.log_mass() - p.log_mass()) <= bound
    assert np.all(np.abs(values - want) <= bound * np.maximum(1.0, abs(want)))


def test_a_member_without_width_keeps_its_bits(monkeypatch):
    # m = 0 lies on a facet and on the plateau, where psi'' = 0: it has no
    # width, and keeps the panels, mass and pairings of the unseeded rule,
    # alone and in a family with seeded members
    sc = seg_scenario("cosine")
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    members = [([0], 512.0, w) for w in (False, True)] + [
        ([1], s, w) for s in (64.0, 4096.0) for w in (False, True)]
    widths, _ = quantization._laplace(P, gen,
                                      np.array([[0.0], [1.0], [1.0]]),
                                      np.array([512.0, 512.0, 0.0]))
    assert np.isnan(widths[[0, 2]]).all() and widths[1, 0] > 0
    seeded = [density_family(P, gen, members),
              [MonomialDensity(P, gen, m, s, weighted=w)
               for m, s, w in members[:2]]]
    got = [pair_densities(densities[:2], bat) for densities in seeded]
    _unseeded(monkeypatch)
    plain = [MonomialDensity(P, gen, m, s, weighted=w)
             for m, s, w in members[:2]]
    want = pair_densities(plain, bat)
    for densities, pairs in zip(seeded, got):
        for d, p in zip(densities, plain):
            assert d.log_mass() == p.log_mass()
            assert d._rule.panels == p._rule.panels
        for a, b in zip(pairs, want):
            assert np.array_equal(a, b)


WALL_SUM_S = [32.0, 512.0, 8192.0]


def _count_points(monkeypatch):
    """The integrand points of every norm from here on, counted by a wrapper
    on the engine's integrand."""
    points = []
    engine = quadrature.integrate_polytope
    monkeypatch.setattr(quadrature, "integrate_polytope", lambda f, *a, **k:
                        engine(lambda X, i: points.append(len(X)) or f(X, i),
                               *a, **k))
    return points


@pytest.mark.parametrize("s, most", [(512.0, 26000), (8192.0, 52000)])
def test_laplace_mass_spares_the_first_rounds_slices(monkeypatch, s, most):
    # the bare wall-sum density at (1,1) hands its first round's slices
    # rel_tol times its Laplace mass, as later rounds hand rel_tol times the
    # measured mass: 29,670 and 62,850 points without it
    sc = cp2_wall_sum("cosine")
    points = _count_points(monkeypatch)
    MonomialDensity(sc.polytope, sc.generator, [1, 1], s,
                    weighted=False).log_mass()
    assert 0 < sum(points) <= most


def test_laplace_mass_is_the_gaussians_capped_at_the_volume():
    # Hess psi = 5 I at (1,1) on the cosine wall sum: the mass is
    # (2 pi / s) det(Hess psi)^(-1/2), capped at vol(P) = 9/2; nan at s = 0,
    # on a facet and at cp2_wall's (1,1), where Hess psi has rank 1.  In
    # 1-D it is sqrt(2 pi) times the width
    sc = cp2_wall_sum("cosine")
    P, gen = sc.polytope, sc.generator
    m = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [2.0, 0.0]])
    det = np.linalg.det(gen.jet(m[:1], 2)[2][0])
    assert det == pytest.approx(25.0, rel=1e-12)
    widths, mass = quantization._laplace(P, gen, m,
                                         np.array([512.0, 0.1, 0.0, 512.0]))
    assert widths is None
    assert mass[0] == pytest.approx(2.0 * np.pi / 512.0 / np.sqrt(det),
                                    rel=1e-12)
    assert 2.0 * np.pi / 0.1 / np.sqrt(det) > 4.5 and mass[1] == 4.5
    assert np.isnan(mass[2:]).all()
    wall = cp2_wall()
    assert np.isnan(quantization._laplace(
        wall.polytope, wall.generator, m[:1], np.array([512.0]))[1]).all()
    seg = seg_scenario("cosine")
    widths, mass = quantization._laplace(seg.polytope, seg.generator,
                                         np.array([[1.0]]), np.array([512.0]))
    assert mass[0] == pytest.approx(np.sqrt(2.0 * np.pi) * widths[0, 0],
                                    rel=1e-15)


def test_a_member_without_laplace_mass_keeps_its_bits(monkeypatch):
    # s = 0 and the facet point (2,0) have no Laplace mass: they keep the
    # panels, masses and pairings of the unestimated rule, alone and in a
    # family with estimated members; an estimated member made alone is its
    # row of the family, bit for bit, and its estimate spares nodes
    sc = cp2_wall_sum("cosine")
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    plain = [([1, 1], 0.0), ([2, 0], 512.0)]
    members = [(m, s, w) for m, s in [*plain, ([1, 1], 512.0)]
               for w in (False, True)]
    family = density_family(P, gen, members)
    lone = [MonomialDensity(P, gen, m, s, weighted=w) for m, s, w in members]
    got = [pair_densities(densities, bat) for densities in (family, lone)]
    _unseeded(monkeypatch)
    want = [MonomialDensity(P, gen, m, s, weighted=w) for m, s, w in members]
    ref = pair_densities(want, bat)
    for i, (d, a, w) in enumerate(zip(family, lone, want)):
        assert d.log_mass() == a.log_mass()
        assert d._rule.panels == a._rule.panels
        for pairs in got:
            assert np.array_equal(pairs[0][i], got[1][0][i])
            assert np.array_equal(pairs[1][i], got[1][1][i])
        if i < 4:
            assert d.log_mass() == w.log_mass()
            assert d._rule.panels == w._rule.panels
            assert np.array_equal(got[0][0][i], ref[0][i])
            assert np.array_equal(got[0][1][i], ref[1][i])
        else:
            assert d._rule.panels < w._rule.panels


@pytest.mark.parametrize("kernel", ["cosine", "smooth"])
@pytest.mark.parametrize("factor", [10.0, 0.1])
def test_a_wrong_laplace_mass_changes_only_the_cost(monkeypatch, kernel,
                                                    factor):
    # a mass ten times or a tenth of Laplace's sets a looser or a tighter
    # first round, never the verdict: the wall-sum densities at (1,1), bare
    # and weighted, meet it and agree with the unestimated rule within
    # ALLOWANCE * rel_tol times their mass, as do their pairings
    sc = cp2_wall_sum(kernel)
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    members = [([1, 1], s, w) for s in WALL_SUM_S for w in (False, True)]
    laplace = quantization._laplace

    def scaled(*args):
        widths, mass = laplace(*args)
        return widths, mass * factor
    monkeypatch.setattr(quantization, "_laplace", scaled)
    family = density_family(P, gen, members)
    values, _ = pair_densities(family, bat)
    _unseeded(monkeypatch)
    plain = density_family(P, gen, members)
    want, _ = pair_densities(plain, bat)
    bound = quadrature.ALLOWANCE * family[0].rel_tol
    for d, p in zip(family, plain):
        assert abs(d._rule.value - p._rule.value) <= bound * p._rule.value
    assert np.all(np.abs(values - want) <= bound * np.maximum(1.0, abs(want)))
