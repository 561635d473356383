"""Diagnostics, rate fits, polarization geometry, metric lengths."""

import math

import numpy as np
import pytest

from toricray.generators import BumpSpec, build_bump_generator, build_wall_sum
from toricray.limits import (battery_for, chord_mean, delta_diagnostic,
                             distance_to_real, face_delta_diagnostic,
                             fit_rate, metric_length, mixed_limit_frame, pair,
                             polarization_distance, polarization_frame,
                             ray_polarization, real_torus_frame, region_mean,
                             uniform_diagnostic)
from toricray.polytope import face_frame, make_polytope
from toricray.quadrature import integrate_1d
from toricray.quantization import MonomialDensity


def segment(N=2):
    return make_polytope([[1], [-1]], [0, -N])


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def big_bump():
    return build_bump_generator(segment(), [BumpSpec(1.0, 0.5, 4.0)])


def test_battery_contents():
    bat = battery_for(cp2())
    names = bat.names()
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
    # restricted pairing over a sub-polytope: uniform density, half the mass
    half = make_polytope([[1], [-1]], [0, -1], require_delzant=False)
    assert pair(md, lambda X: np.ones(X.shape[:-1]), region=half) == \
        pytest.approx(0.5, abs=1e-9)


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


def test_diagnostic_report_interface():
    P = segment()
    gen = big_bump()
    bat = battery_for(P)
    res = delta_diagnostic(P, gen, [1], [64, 256, 1024], bat)
    rows = res.rows()
    assert rows[0][0] == "s" and len(rows) == 4
    assert rows[1][0] == 64.0 and len(rows[1]) == 1 + len(bat.names())
    text = res.as_text()
    assert "fit: power" in text and "exponent" in text


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
    assert res.fit.is_decreasing(noise=0.05)
    # the component-edge boundary layer forces a power law near 1/3
    assert res.fit.model == "power"
    assert 0.25 <= res.fit.exponent <= 0.45
    resw = uniform_diagnostic(P, gen, [0], [128, 512], bat, P1, weighted=True)
    assert resw.limits["one"] == pytest.approx(1.0, abs=1e-9)


def test_region_and_chord_means():
    P1 = make_polytope([[1], [-1]], [0, "-1/2"], require_delzant=False)
    assert region_mean(P1, lambda X: X[..., 0]) == pytest.approx(0.25,
                                                                 abs=1e-12)
    # weighted 2-D mean over the unit simplex: E[x2 | weight x1] = 1/4
    unit = cp2(1)
    got = region_mean(unit, lambda X: X[..., 1], weight=lambda X: X[..., 0])
    assert got == pytest.approx(0.25, abs=1e-9)
    # on CP^2(3), int x1^a x2^b = 3^(a+b+2) a! b! / (a+b+2)!, so the mean
    # of x1^2 under the weight x1 x2 is (3^6 3! / 6!) / (3^4 / 4!) = 9/5
    got = region_mean(cp2(), lambda X: X[..., 0] ** 2,
                      weight=lambda X: X[..., 0] * X[..., 1], rel_tol=1e-12)
    assert got == pytest.approx(1.8, abs=1e-12)
    # means that cancel to zero: the tolerance is relative to the mean of
    # |tau|, so they converge like any other
    seg = make_polytope([[1], [-1]], [0, -2])
    assert abs(region_mean(seg, lambda X: np.cos(np.pi * X[..., 0] / 2.0),
                           rel_tol=1e-12)) <= 1e-14
    square = make_polytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [-1] * 4)
    for weight in (None, lambda X: 1.0 + X[..., 1] ** 2):
        for tau in (lambda X: X[..., 0], lambda X: X[..., 0] * X[..., 1]):
            assert abs(region_mean(square, tau, weight=weight,
                                   rel_tol=1e-12)) <= 1e-14
    P = cp2()
    fr = face_frame(P, [[1, 0]], [1])
    # chord {x1 = 1}: x2 ranges over [0, 2]
    assert chord_mean(P, fr, [1.0], lambda X: X[..., 1]) == pytest.approx(
        1.0, abs=1e-12)
    assert chord_mean(P, fr, [1.0], lambda X: X[..., 0]) == pytest.approx(
        1.0, abs=1e-12)
    w = lambda X: X[..., 1]
    assert chord_mean(P, fr, [1.0], lambda X: X[..., 1], weight=w) == \
        pytest.approx(4.0 / 3.0, abs=1e-10)


def test_uniform_diagnostic_two_dimensional():
    from fractions import Fraction
    from toricray.scenarios import cp2_wall
    sc = cp2_wall(eps=Fraction(1, 10))
    bat = battery_for(sc.polytope)
    region = sc.regions["P2_minus_W"]
    res = uniform_diagnostic(sc.polytope, sc.generator, [2, 0],
                             [64, 256, 1024], bat, region)
    # limit of the x1 pairing: mean of x1 over the shrunk triangle
    # {x1 >= 1.1} with vertices (1.1,0),(3,0),(1.1,1.9): mean = (2*1.1+3)/3
    assert res.limits["x1"] == pytest.approx((2 * 1.1 + 3.0) / 3.0, abs=1e-9)
    assert res.fit.is_decreasing(noise=0.05)
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
    from toricray.potentials import RayPoint, ray_jet
    P = segment()
    gen = big_bump()
    s = np.array([32, 128, 512, 2048], dtype=float)
    d = [distance_to_real(ray_jet(RayPoint(P, gen, sv, np.array([1.0]))).hessian)
         for sv in s]
    fit = fit_rate(s, d)
    assert fit.model == "power" and 0.9 <= fit.exponent <= 1.1


def test_mixed_limit_frame_block_structure():
    P = cp2()
    gen = build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                             ((0, 1), BumpSpec(1.0, 0.2, 1.0))])
    from toricray.potentials import RayPoint, ray_jet
    x = np.array([1.0, 0.5])
    G0 = ray_jet(RayPoint(P, gen, 0.0, x)).hessian
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
    from toricray.potentials import RayPoint, ray_jet
    Gs = ray_jet(RayPoint(P, gen, s, np.array([1.0]))).hessian[0, 0]
    circ = metric_length(P, gen, s, [((1.0,), (0.0,)),
                                     ((1.0,), (2 * math.pi,))])
    assert circ == pytest.approx(2 * math.pi / math.sqrt(Gs), rel=1e-10)
    # off-support lengths do not depend on s at all
    vals = {metric_length(P, gen, s2, [((0.1,), (0.0,)), ((0.4,), (0.0,))])
            for s2 in (0.0, 10.0, 1e4)}
    assert len(vals) == 1
