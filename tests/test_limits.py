"""Diagnostics, rate fits, polarization geometry, metric lengths."""

import math

import numpy as np
import pytest

from toricray import acceptance, limits, potentials, quadrature, scenarios
from toricray.generators import BumpSpec, build_bump_generator, build_wall_sum
from toricray.limits import (battery_for, chord_mean, delta_case,
                             delta_diagnostic, diagnose, distance_to_real,
                             face_delta_case, face_delta_diagnostic,
                             fit_rate, metric_length, mixed_limit_frame, pair,
                             polarization_distance, polarization_frame,
                             ray_polarization, real_torus_frame, region_mean,
                             uniform_case, uniform_diagnostic)
from toricray.polytope import MEMBERSHIP_TOL, face_frame, make_polytope
from toricray.quadrature import (QuadratureError, integrate_1d,
                                 integrate_polytope)
from toricray.quantization import MonomialDensity, pair_densities, rate_gap
from toricray.scenarios import cp2_wall, segment as seg_scenario, three_bumps


def segment(N=2):
    return make_polytope([[1], [-1]], [0, -N])


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def big_bump():
    return build_bump_generator(segment(), [BumpSpec(1.0, 0.5, 4.0)])


def test_battery_contents():
    bat = battery_for(cp2())
    names = [t.name for t in bat]
    for required in ("one", "x1", "x2", "x1x1", "x1x2", "x2x2",
                     "cos_x1", "cos_x2"):
        assert required in names


def test_pair_normalization_and_uniform_mean():
    P = segment()
    gen = build_bump_generator(P, [])
    md = MonomialDensity(P, gen, [1], 0.0, weighted=False)
    assert pair(md, lambda X: np.ones(X.shape[:-1])) == pytest.approx(1.0,
                                                                      abs=1e-9)
    assert pair(md, lambda X: X[..., 0]) == pytest.approx(1.0, abs=1e-9)


def test_wall_sum_slabs_match_two_wall_decomposition():
    # the wall-sum generator across x1 = 1, x2 = 1 carries exactly the
    # codimension-one faces of the four-piece PL decomposition
    from toricray.generators import PLConvex
    from toricray.testconfig import decompose
    P = cp2()
    gen = build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                             ((0, 1), BumpSpec(1.0, 0.2, 1.0))])
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    dec = decompose(f, P)
    assert len(dec.subpolytopes) == 4
    slab_normals = {tuple(int(c) for c in nu) for nu, _, _ in gen.support}
    face_normals = {F.normals[0] for F in dec.faces_of_codim(1)}
    assert slab_normals == face_normals == {(1, 0), (0, 1)}
    for nu, lo, hi in gen.support:
        assert lo < 1.0 < hi  # slabs straddle the wall offsets


def test_fit_rate_recovers_synthetic_laws():
    s = np.array([32, 64, 128, 256, 512, 1024], dtype=float)
    power = fit_rate(s, 5.0 / s)
    assert power.model == "power"
    assert power.exponent == pytest.approx(1.0, abs=1e-9)
    expo = fit_rate(s, 3.0 * np.exp(-0.8 * s / 100))
    assert expo.model == "exponential"
    assert expo.exponent == pytest.approx(0.008, rel=1e-6)
    floored = fit_rate(s, np.full_like(s, 1e-16))
    assert floored.model == "floor"


def test_delta_diagnostic_power_law():
    P = segment()
    gen = big_bump()
    bat = battery_for(P)
    res = delta_diagnostic(P, gen, [1], [64, 256, 1024, 4096], bat)
    assert res.fit.model == "power"
    assert 0.8 <= res.fit.exponent <= 1.2
    assert res.fit.is_decreasing()
    assert res.table["one"].max() < 1e-9  # normalization is exact for tau=1


def test_uniform_diagnostic_limits_and_honest_rate():
    P = segment()
    gen = big_bump()
    bat = battery_for(P)
    P1 = make_polytope([[1], [-1]], [0, "-1/2"], require_delzant=False)
    res = uniform_diagnostic(P, gen, [0], [128, 512, 2048, 8192], bat, P1)
    assert res.limits["x1"] == pytest.approx(0.25, abs=1e-9)  # midpoint of P1
    assert res.fit.is_decreasing()
    # the component-edge boundary layer forces a power law near 1/3
    assert res.fit.model == "power"
    assert 0.25 <= res.fit.exponent <= 0.45
    resw = uniform_diagnostic(P, gen, [0], [128, 512], bat, P1, weighted=True)
    assert resw.limits["one"] == pytest.approx(1.0, abs=1e-9)


def test_region_and_chord_means():
    P1 = make_polytope([[1], [-1]], [0, "-1/2"], require_delzant=False)
    assert region_mean(P1, [lambda X: X[..., 0]])[0] == pytest.approx(
        0.25, abs=1e-12)
    # weighted 2-D mean over the unit simplex: E[x2 | weight x1] = 1/4
    unit = cp2(1)
    got, = region_mean(unit, [lambda X: X[..., 1]],
                       weight=lambda X: X[..., 0])
    assert got == pytest.approx(0.25, abs=1e-9)
    # on CP^2(3), int x1^a x2^b = 3^(a+b+2) a! b! / (a+b+2)!, so the mean
    # of x1^2 under the weight x1 x2 is (3^6 3! / 6!) / (3^4 / 4!) = 9/5
    got, = region_mean(cp2(), [lambda X: X[..., 0] ** 2],
                       weight=lambda X: X[..., 0] * X[..., 1])
    assert got == pytest.approx(1.8, abs=1e-12)
    # means that cancel to zero: the tolerance is relative to the mean of
    # |tau|, so they converge like any other
    seg = make_polytope([[1], [-1]], [0, -2])
    assert abs(region_mean(seg, [lambda X: np.cos(np.pi * X[..., 0] / 2.0)])
               [0]) <= 1e-14
    square = make_polytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [-1] * 4)
    for weight in (None, lambda X: 1.0 + X[..., 1] ** 2):
        for tau in (lambda X: X[..., 0], lambda X: X[..., 0] * X[..., 1]):
            assert abs(region_mean(square, [tau], weight=weight)[0]) <= 1e-14
    P = cp2()
    fr = face_frame(P, [[1, 0]], [1])
    # chord {x1 = 1}: x2 ranges over [0, 2]
    assert chord_mean(P, fr, [1.0], [lambda X: X[..., 1]])[0] == \
        pytest.approx(1.0, abs=1e-12)
    assert chord_mean(P, fr, [1.0], [lambda X: X[..., 0]])[0] == \
        pytest.approx(1.0, abs=1e-12)
    w = lambda X: X[..., 1]
    assert chord_mean(P, fr, [1.0], [lambda X: X[..., 1]], weight=w)[0] == \
        pytest.approx(4.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("c", [5, 3, -1], ids=["misses", "vertex", "below"])
def test_chord_mean_of_a_wall_off_the_polytope_raises(c):
    # {x1 = 5} and {x1 = -1} miss CP^2(3), and {x1 = 3} touches it only at
    # the vertex (3, 0): the exact slice has fewer than two vertices
    P = cp2()
    with pytest.raises(ValueError, match="chord misses the polytope"):
        chord_mean(P, face_frame(P, [[1, 0]], [c]), [float(c)],
                   [lambda X: X[..., 1]])


@pytest.mark.parametrize("weighted", [False, True], ids=["bare", "weighted"])
def test_region_mean_nonfinite_raises(weighted):
    weight = (lambda X: X[..., 0]) if weighted else None
    with pytest.raises(QuadratureError, match="not finite"):
        region_mean(cp2(), [lambda X: np.full(X.shape[:-1], np.nan)],
                    weight=weight)


def _count_integrals(monkeypatch):
    """The dimension of every polytope integral from here on, whether
    limits or pair_all asks for it."""
    calls = []

    def counting(f, P, **kwargs):
        calls.append(P.dim)
        return integrate_polytope(f, P, **kwargs)
    monkeypatch.setattr(limits, "integrate_polytope", counting)
    monkeypatch.setattr(quadrature, "integrate_polytope", counting)
    return calls


def test_battery_means_integrate_the_weight_once(monkeypatch):
    # the weight is integrated once and every member paired on its nodes;
    # the bump, which the weight's panels do not resolve, is repaired from
    # them, and nothing is integrated again
    calls = _count_integrals(monkeypatch)
    P = cp2()
    bat = battery_for(P)
    w = lambda X: 1.0 + X[..., 0]
    means = region_mean(P, bat, weight=w)
    assert calls == [2]
    assert means[0] == pytest.approx(1.0, abs=1e-12)
    # each member's mean is the one it has alone
    for t, got in zip(bat, means):
        assert got == region_mean(P, [t], weight=w)[0]
    calls.clear()
    fr = face_frame(P, [[1, 0]], [1])
    chord_mean(P, fr, [1.0], bat, weight=w)
    assert calls == [1]


@pytest.mark.parametrize("weighted", [False, True], ids=["bare", "weighted"])
def test_resolved_members_share_the_weights_rule(monkeypatch, weighted):
    # members the weight's rule resolves make one integral in all, and the
    # battery's bump, repaired from that rule's panels, adds none
    calls = _count_integrals(monkeypatch)
    P = cp2()
    bat = battery_for(P)
    w = (lambda X: 1.0 + X[..., 0]) if weighted else None
    resolved = [t for t in bat if t.name != "bump"]
    region_mean(P, resolved, weight=w)
    assert calls == [2]
    calls.clear()
    region_mean(P, bat, weight=w)
    assert calls == [2]


def test_diagnostic_makes_one_density_pass(monkeypatch):
    # an 8-point diagnostic norms its densities in one integral of eight
    # members and repairs its missed pairings with no other integral
    sc_P, gen = segment(), big_bump()
    bat = battery_for(sc_P)
    P1 = make_polytope([[1], [-1]], [0, "-1/2"], require_delzant=False)
    grid = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    calls = []
    engine = quadrature.integrate_polytope
    ensure = MonomialDensity._ensure_norm

    def counting(f, P, **kwargs):
        calls.append(len(kwargs.get("points", [None])))
        return engine(f, P, **kwargs)

    def norming(self):
        if not self._norm_ready:
            calls.append("norm")
        ensure(self)
    monkeypatch.setattr(quadrature, "integrate_polytope", counting)
    monkeypatch.setattr(limits, "integrate_polytope", counting)
    monkeypatch.setattr(MonomialDensity, "_ensure_norm", norming)
    res = uniform_diagnostic(sc_P, gen, [0], grid, bat, P1)
    # the region's mean first (the weight alone), then one pass of the
    # densities and nothing more
    first = calls.index("norm")
    assert calls.count("norm") == 1 and calls[first + 1] == len(grid)
    assert len(calls) == first + 2
    assert calls[:first] == [1]
    # the largest error bar of each s's pairings, normalized like them
    assert res.pairing_err.shape == (len(grid),)
    assert np.all(res.pairing_err > 0)
    monkeypatch.undo()
    for s, err in zip(grid, res.pairing_err):
        md = MonomialDensity(sc_P, gen, [0], s, weighted=False)
        assert err == max(pair_densities([md], [t])[1][0, 0] for t in bat)


def _assert_same_diagnostic(got, want):
    """Bit for bit: the fit's errors, the table, the pairing errors and the
    gap scan's aux entries."""
    assert np.array_equal(got.fit.errors, want.fit.errors)
    assert list(got.table) == list(want.table)
    for name, errors in want.table.items():
        assert np.array_equal(got.table[name], errors)
    assert np.array_equal(got.pairing_err, want.pairing_err)
    for key in ("gap", "gap_match"):
        assert got.fit.aux.get(key) == want.fit.aux.get(key)


def test_batched_uniform_cases_equal_lone_diagnostics():
    # criterion 5's four cases, bare and weighted at m = 0 and 2, as one
    # family give what each uniform diagnostic gives alone
    sc = seg_scenario("cosine")
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    grid = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    keys = [(n, key, weighted) for n, key in ((0, "P1"), (2, "P2"))
            for weighted in (False, True)]
    batched = diagnose(P, gen, [
        uniform_case(P, [n], grid, bat, sc.regions[key], weighted=weighted)
        for n, key, weighted in keys])
    for (n, key, weighted), got in zip(keys, batched):
        _assert_same_diagnostic(got, uniform_diagnostic(
            P, gen, [n], grid, bat, sc.regions[key], weighted=weighted))
        assert "gap" in got.fit.aux


def test_batched_delta_and_face_delta_equal_lone_diagnostics():
    # a weighted delta case at (2, 0) and a bare face-delta case on the
    # wall at (1, 1) of cp2_wall, mixed in one family
    sc = cp2_wall()
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    frame = sc.decomposition.faces[0].frame
    sep = [("perp", lambda t: t, lambda u: np.ones_like(u)),
           ("prod", lambda t: t * t, lambda u: np.cos(u))]
    got = diagnose(P, gen, [
        delta_case([2, 0], [64, 256], bat, weighted=True),
        face_delta_case(P, [1, 1], [1024, 4096], frame, sep)])
    _assert_same_diagnostic(got[0], delta_diagnostic(
        P, gen, [2, 0], [64, 256], bat, weighted=True))
    _assert_same_diagnostic(got[1], face_delta_diagnostic(
        P, gen, [1, 1], [1024, 4096], frame, sep))


@pytest.mark.parametrize("cid,members", [(4, 16), (5, 32), (6, 2), (8, 5)])
def test_criterion_makes_one_density_pass(monkeypatch, cid, members):
    # a criterion norms all of its densities in one integral and repairs
    # their missed pairings with no other integral; every integral before
    # that pass is a region or chord mean's weight
    from toricray import acceptance
    calls = []
    engine = quadrature.integrate_polytope
    ensure = MonomialDensity._ensure_norm

    def counting(f, P, **kwargs):
        calls.append(len(kwargs.get("points", [None])))
        return engine(f, P, **kwargs)

    def norming(self):
        if not self._norm_ready:
            calls.append("norm")
        ensure(self)
    for module in (quadrature, limits, acceptance):
        monkeypatch.setattr(module, "integrate_polytope", counting)
    monkeypatch.setattr(MonomialDensity, "_ensure_norm", norming)
    acceptance.ALL_CRITERIA[cid]()
    first = calls.index("norm")
    assert calls.count("norm") == 1 and calls[first + 1] == members
    assert len(calls) == first + 2


def test_uniform_diagnostic_two_dimensional():
    sc = cp2_wall()
    bat = battery_for(sc.polytope)
    region = sc.regions["P2_minus_W"]
    res = uniform_diagnostic(sc.polytope, sc.generator, [2, 0],
                             [64, 256, 1024], bat, region)
    # limit of the x1 pairing: mean of x1 over the shrunk triangle
    # {x1 >= 1.1} with vertices (1.1,0),(3,0),(1.1,1.9): mean = (2*1.1+3)/3
    assert res.limits["x1"] == pytest.approx((2 * 1.1 + 3.0) / 3.0, abs=1e-9)
    assert res.fit.is_decreasing()
    assert res.fit.errors[-1] < 0.05


def test_face_delta_separable_products():
    P = cp2()
    gen = build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 2.0))])
    fr = face_frame(P, [[1, 0]], [1])
    sep = [("x1", lambda t: t, lambda u: np.ones_like(u)),
           ("x2", lambda t: np.ones_like(t), lambda u: u),
           ("x1sq_x2", lambda t: t * t, lambda u: u)]
    res = face_delta_diagnostic(P, gen, [1, 1], [256, 1024, 4096], fr, sep)
    assert res.limits["x1"] == pytest.approx(1.0, abs=1e-9)
    assert res.limits["x2"] == pytest.approx(1.0, abs=1e-9)
    # separable quadratic: product of the two limits
    assert res.limits["x1sq_x2"] == pytest.approx(1.0, abs=1e-9)
    assert res.fit.errors[-1] < 2e-3


def test_polarization_one_dim_closed_form():
    for G in (0.2, 1.0, 3.7, 44.0):
        assert distance_to_real(np.array([[G]])) == pytest.approx(
            math.sqrt(2.0 / (1.0 + G * G)), abs=1e-12)


def test_polarization_metric_properties():
    rng = np.random.default_rng(12)
    frames = []
    for _ in range(6):
        A = rng.normal(size=(2, 2))
        frames.append(polarization_frame(A @ A.T + 0.5 * np.eye(2)))
    for fa in frames:
        assert polarization_distance(fa, fa) == 0.0
    for fa in frames:
        for fb in frames:
            assert polarization_distance(fa, fb) == pytest.approx(
                polarization_distance(fb, fa), abs=1e-13)
            for fc in frames:
                assert polarization_distance(fa, fc) <= \
                    polarization_distance(fa, fb) + \
                    polarization_distance(fb, fc) + 1e-12


def test_polarization_rejects_non_spd():
    with pytest.raises(ValueError):
        polarization_frame(np.array([[1.0, 0.0], [0.0, -2.0]]))


def test_stasis_is_exact_zero():
    P = segment()
    gen = big_bump()
    base = ray_polarization(P, gen, 0.0, np.array([0.25]))
    for s in (1.0, 10.0, 100.0):
        assert polarization_distance(
            ray_polarization(P, gen, s, np.array([0.25])), base) == 0.0


def test_distance_to_real_rate():
    from toricray.potentials import ray_jet
    P = segment()
    gen = big_bump()
    s = np.array([32, 128, 512, 2048], dtype=float)
    d = [distance_to_real(ray_jet(P, gen, sv, np.array([1.0])).hessian)
         for sv in s]
    fit = fit_rate(s, d)
    assert fit.model == "power" and 0.9 <= fit.exponent <= 1.1


def test_mixed_limit_frame_block_structure():
    P = cp2()
    gen = build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                             ((0, 1), BumpSpec(1.0, 0.2, 1.0))])
    from toricray.potentials import ray_jet
    x = np.array([1.0, 0.5])
    G0 = ray_jet(P, gen, 0.0, x).hessian
    ref = mixed_limit_frame(G0, [[1, 0]], [[0, 1]])
    ds = [polarization_distance(ray_polarization(P, gen, s, x), ref)
          for s in (1e2, 1e4, 1e6)]
    assert ds[0] > ds[1] > ds[2]
    assert ds[-1] < 1e-4
    # at the crossing both directions collapse: the full angular plane
    xc = np.array([1.0, 1.0])
    dist = polarization_distance(ray_polarization(P, gen, 1e8, xc),
                                 real_torus_frame(2))
    assert dist < 1e-6


def test_metric_oracles():
    P = segment()
    gen = big_bump()
    s = 400.0
    # independent oracle: sqrt(s) * integral of sqrt(psi'') across the bump
    oracle = math.sqrt(s) * integrate_1d(
        lambda t: np.sqrt(gen.d2psi(t)), 0.5, 1.5, rel_tol=1e-10)
    got = metric_length(P, gen, s, [((0.5,), (0.0,)), ((1.5,), (0.0,))])
    assert got == pytest.approx(oracle, rel=2e-2)
    # theta circle at the center: 2 pi / sqrt(G_s(m))
    from toricray.potentials import ray_jet
    Gs = ray_jet(P, gen, s, np.array([1.0])).hessian[0, 0]
    circ = metric_length(P, gen, s, [((1.0,), (0.0,)),
                                     ((1.0,), (2 * math.pi,))])
    assert circ == pytest.approx(2 * math.pi / math.sqrt(Gs), rel=1e-10)
    # off-support lengths do not depend on s at all
    vals = {metric_length(P, gen, s2, [((0.1,), (0.0,)), ((0.4,), (0.0,))])
            for s2 in (0.0, 10.0, 1e4)}
    assert len(vals) == 1


def test_three_bumps_metric_picture():
    # the sphere at infinite time: psi is affine on the four gap components,
    # so their lengths do not move with s; the first and last hold an end of
    # P (the two discs), the middle two do not (the cylinders).  For the
    # cosine kernel, psi'' = (A/alpha) cos^2(pi t/2), so each neck over
    # sqrt(s) tends to the integral of sqrt(psi''), 4 sqrt(A alpha)/pi, and
    # each circle over a bump centre times sqrt(s) to 2 pi sqrt(alpha/A)
    sc = three_bumps("cosine")
    P, gen = sc.polytope, sc.generator
    lo, hi = gen.domain
    comps = gen.components()
    assert [a == lo or b == hi for a, b in comps] == [True, False, False, True]
    assert comps[0] == (lo, 0.75) and comps[-1] == (4.25, hi)
    specs = [b.spec for b in gen.bumps]
    neck_limit = [4 * math.sqrt(m.mass * m.halfwidth) / math.pi for m in specs]
    assert neck_limit == pytest.approx([0.636620, 0.450158, 0.900316],
                                       abs=1e-6)
    circle_limit = [2 * math.pi * math.sqrt(m.halfwidth / m.mass)
                    for m in specs]
    lengths, neck_err, circle_err = set(), [], []
    for s in (1e2, 1e4, 1e6):
        lengths.add(tuple(metric_length(P, gen, s, [((a,), (0.0,)),
                                                    ((b,), (0.0,))])
                          for a, b in comps))
        necks = [metric_length(P, gen, s, [((b.lo,), (0.0,)),
                                           ((b.hi,), (0.0,))]) / math.sqrt(s)
                 for b in gen.bumps]
        circles = [metric_length(P, gen, s, [((m.center,), (0.0,)),
                                             ((m.center,), (2 * math.pi,))])
                   * math.sqrt(s) for m in specs]
        neck_err.append([abs(g / w - 1) for g, w in zip(necks, neck_limit)])
        circle_err.append([abs(g / w - 1)
                           for g, w in zip(circles, circle_limit)])
    assert len(lengths) == 1
    for errs in (neck_err, circle_err):
        assert all(a > b > c for a, b, c in zip(*errs))
    assert max(neck_err[-1]) < 1e-6 and max(circle_err[-1]) < 1.1e-7


def _metric_cases():
    ws = scenarios.cp2_wall_sum("cosine")
    return [("segment", segment(), big_bump(),
             [[((0.5,), (0.0,)), ((1.5,), (0.0,))],
              [((0.1,), (0.0,)), ((0.4,), (0.0,))],
              [((1.0,), (0.0,)), ((1.0,), (2 * math.pi,))]]),
            ("cp2_wall_sum", ws.polytope, ws.generator,
             [[((0.5, 0.5), (0.0, 0.0)), ((1.5, 1.0), (1.0, 2.0)),
               ((0.6, 1.8), (1.0, 2.0))],
              [((1.0, 0.8), (0.0, 0.0)), ((1.0, 0.8), (2 * math.pi, 0.0))]])]


@pytest.mark.parametrize("case", _metric_cases(), ids=lambda c: c[0])
def test_s_grid_lengths_and_planes_equal_each_s_call(case):
    # a grid of s gives, bit for bit, each s's lone length and plane
    _, P, gen, paths = case
    grid = [0.0, 100.0, 316.0, 1e4]
    for path in paths:
        got = metric_length(P, gen, grid, path)
        assert isinstance(got, np.ndarray) and got.shape == (len(grid),)
        assert got.tolist() == [metric_length(P, gen, s, path) for s in grid]
        assert type(metric_length(P, gen, grid[1], path)) is float
        x = np.asarray(path[0][0], dtype=float)
        frames = ray_polarization(P, gen, grid, x)
        assert len(frames) == len(grid)
        for s, frame in zip(grid, frames):
            assert np.array_equal(frame.basis,
                                  ray_polarization(P, gen, s, x).basis)


def test_diagnose_gap_is_each_cases_rate_gap_scan(monkeypatch):
    # criterion 5's four uniform cases scan their gaps with one ray_rate
    # jet on the union of their off-region points, and each case's gap is
    # the least rate_gap on its own points
    sc = seg_scenario("cosine")
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    cases = [uniform_case(P, [n], [64, 1024], bat, sc.regions[key],
                          weighted=weighted)
             for n, key in ((0, "P1"), (2, "P2"))
             for weighted in (False, True)]
    calls, values = [], []
    rate = limits.ray_rate
    value = gen.value
    monkeypatch.setattr(limits, "ray_rate",
                        lambda *a: calls.append(a[1]) or rate(*a))
    monkeypatch.setattr(gen, "value", lambda x: values.append(x) or value(x))
    got = diagnose(P, gen, cases)
    assert len(calls) == 1 and np.shape(calls[0]) == (4, 1)
    # psi(m) once for the family's two distinct m
    assert len(values) == 1 and np.shape(values[0]) == (2, 1)
    monkeypatch.undo()
    xs = np.linspace(*P.bbox(), 10000).reshape(-1, 1)
    xs = xs[P.contains(xs, tol=MEMBERSHIP_TOL)]
    for c, res in zip(cases, got):
        own = xs[~c.region.contains(xs, tol=MEMBERSHIP_TOL)]
        assert res.fit.aux["gap"] == float(rate_gap(gen, c.m, own).min())


def _counting(monkeypatch, modules, name):
    calls = []
    fn = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


def test_polarization_criterion_takes_four_ray_jets(monkeypatch):
    calls = _counting(monkeypatch, [potentials, limits, acceptance],
                      "ray_jet")
    assert acceptance.c07_polarization().passed
    assert len(calls) <= 4


def test_metric_criterion_takes_three_length_jets(monkeypatch):
    calls = _counting(monkeypatch, [potentials, limits], "ray_jet")
    assert acceptance.c11_metric_degeneration().passed
    assert len(calls) <= 3
