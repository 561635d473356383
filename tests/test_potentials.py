"""Symplectic potentials, Legendre geometry, determinant identity."""

import numpy as np
import pytest

from toricray.generators import (BumpSpec, Generator, build_bump_generator,
                                 build_wall_sum)
from toricray.polytope import make_polytope
from toricray.potentials import (BoundaryError, RayPoint,
                                 det_identity_check, guillemin_jet,
                                 holo_log_coordinate, kahler_dual_value,
                                 legendre_forward, legendre_inverse, ray_jet)


def segment(N=2):
    return make_polytope([[1], [-1]], [0, -N])


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def bump_gen():
    return build_bump_generator(segment(), [BumpSpec(1.0, 0.25, 1.0)])


def test_guillemin_segment_values():
    P = segment()
    jet = guillemin_jet(P, np.array([1.0]))
    assert jet.value == pytest.approx(0.0, abs=1e-15)
    assert jet.gradient[0] == pytest.approx(0.0, abs=1e-15)
    assert jet.hessian[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_guillemin_matches_finite_differences():
    rng = np.random.default_rng(3)
    P = cp2()
    h = 1e-6
    for _ in range(20):
        x = rng.uniform(0.2, 0.8, size=2)
        if np.min(P.ell(x)) < 1e-3:
            continue
        jet = guillemin_jet(P, x)
        fd_grad = np.array([
            (guillemin_jet(P, x + h * e).value
             - guillemin_jet(P, x - h * e).value) / (2 * h)
            for e in np.eye(2)])
        assert np.max(np.abs(fd_grad - jet.gradient)) < 1e-6 * (
            1 + np.max(np.abs(jet.gradient)))
        fd_hess = np.vstack([
            (guillemin_jet(P, x + h * e).gradient
             - guillemin_jet(P, x - h * e).gradient) / (2 * h)
            for e in np.eye(2)])
        assert np.max(np.abs(fd_hess - jet.hessian)) < 1e-6 * (
            1 + np.max(np.abs(jet.hessian)))


def test_determinant_identity_constant_on_segment():
    # det(Hess g_P) * ell_1 * ell_2 = N/2, so delta = 2/N at every point
    for N in (1, 2, 3):
        P = make_polytope([[1], [-1]], [0, -N])
        gen = build_bump_generator(P, [])
        xs = np.linspace(0.01, N - 0.01, 100)[:, None]
        rep = det_identity_check(P, gen, 0.0, xs)
        assert rep.ok_positive and rep.ok_finite
        assert np.max(np.abs(rep.deltas - 2.0 / N)) < 1e-10


def test_determinant_identity_along_ray():
    P = segment()
    gen = bump_gen()
    s = 25.0
    xs = np.geomspace(1e-4, 1.0, 40)[:, None]
    rep = det_identity_check(P, gen, s, xs)
    assert rep.ok_positive and rep.ok_finite
    # delta dips to ~1/(1 + s psi''(m)) inside the bump, no further
    floor = 1.0 / (2.0 * (1.0 + s * 4.0))
    assert rep.deltas.min() > floor
    assert rep.deltas.max() < 2.0


class _BadGenerator(Generator):
    dim = 1
    support = ()

    def jet(self, x, order):
        x = np.asarray(x, dtype=float)
        return (np.zeros(x.shape[:-1]), np.zeros_like(x),
                np.full(x.shape[:-1] + (1, 1), -2.0))


def test_determinant_identity_flags_non_psd():
    P = segment()
    rep = det_identity_check(P, _BadGenerator(), 1.0,
                             np.linspace(0.2, 1.8, 9)[:, None])
    assert not rep.ok_positive


def test_hessian_stasis_off_support():
    P = segment()
    gen = bump_gen()
    x = np.array([0.3])
    base = ray_jet(RayPoint(P, gen, 0.0, x))
    for s in (1.0, 10.0, 100.0):
        jet = ray_jet(RayPoint(P, gen, s, x))
        assert np.all(jet.hessian == base.hessian)
        shift = jet.gradient - base.gradient
        assert np.all(shift == s * gen.gradient(x))


def test_ray_jet_adds_at_center():
    P = segment()
    gen = bump_gen()
    x = np.array([1.0])
    j0 = ray_jet(RayPoint(P, gen, 0.0, x))
    j10 = ray_jet(RayPoint(P, gen, 10.0, x))
    assert j10.hessian[0, 0] == pytest.approx(j0.hessian[0, 0] + 10 * 4.0)


def test_positive_definite_along_ray():
    rng = np.random.default_rng(4)
    P = cp2()
    gen = build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0))])
    for s in (0.0, 3.0, 50.0):
        for _ in range(25):
            x = rng.uniform(0.05, 0.9, size=2)
            if np.min(P.ell(x)) < 1e-3:
                continue
            jet = ray_jet(RayPoint(P, gen, s, x))
            np.linalg.cholesky(jet.hessian)


def test_legendre_roundtrip_and_duality():
    rng = np.random.default_rng(5)
    P = segment()
    gen = bump_gen()
    s = 4.0
    for _ in range(100):
        x = np.array([rng.uniform(0.05, 1.95)])
        y = legendre_forward(RayPoint(P, gen, s, x))
        back = legendre_inverse(P, gen, s, y)
        assert np.max(np.abs(back - x)) < 1e-9
    # dual potential gradient recovers the point
    y0 = np.array([0.7])
    h = 1e-6
    fd = (kahler_dual_value(P, gen, s, y0 + h)
          - kahler_dual_value(P, gen, s, y0 - h)) / (2 * h)
    x0 = legendre_inverse(P, gen, s, y0)
    assert abs(fd - x0[0]) < 1e-6


def test_legendre_symmetric_point():
    P = segment()
    gen = build_bump_generator(P, [])
    x = legendre_inverse(P, gen, 0.0, np.array([0.0]))
    assert x[0] == pytest.approx(1.0, abs=1e-12)


def test_forward_map_monotone_and_divergent():
    P = segment()
    gen = bump_gen()
    xs = np.linspace(1e-6, 2 - 1e-6, 200)
    ys = [legendre_forward(RayPoint(P, gen, 2.0, np.array([x])))[0]
          for x in xs]
    assert np.all(np.diff(ys) > 0)
    assert ys[0] < -5 and ys[-1] > 5


def test_holo_log_coordinate_component_shift():
    P = segment()
    gen = bump_gen()
    s = 7.0
    for (a, b), slope in zip(gen.components(), gen.component_slopes()):
        pts = [a + 0.2 * (b - a), a + 0.8 * (b - a)]
        shifts = []
        for x in pts:
            if not a < x < b:
                continue
            w_s = holo_log_coordinate(RayPoint(P, gen, s, np.array([x])),
                                      np.array([0.25]))
            w_0 = holo_log_coordinate(RayPoint(P, gen, 0.0, np.array([x])),
                                      np.array([0.25]))
            shifts.append((w_s - w_0)[0])
        if len(shifts) == 2:
            assert shifts[0] == pytest.approx(shifts[1], abs=1e-12)
            assert shifts[0] == pytest.approx(s * slope, abs=1e-10)
            assert shifts[0].imag == 0.0


def test_stasis_persists_toward_boundary():
    # support away from the facets: the Hessian is s-independent even at
    # interior points with ell = 1e-3
    P = segment()
    gen = bump_gen()
    for x in (np.array([1e-3]), np.array([2.0 - 1e-3])):
        base = ray_jet(RayPoint(P, gen, 0.0, x))
        for s in (1.0, 100.0):
            jet = ray_jet(RayPoint(P, gen, s, x))
            assert np.all(jet.hessian == base.hessian)


def test_holo_coordinate_angle_periodicity():
    P = segment()
    gen = bump_gen()
    rp = RayPoint(P, gen, 2.0, np.array([0.8]))
    w0 = holo_log_coordinate(rp, np.array([0.3]))
    w1 = holo_log_coordinate(rp, np.array([0.3 + 2 * np.pi]))
    assert np.allclose(w1 - w0, 2j * np.pi)
    assert np.allclose(np.exp(w1), np.exp(w0))


def test_boundary_guards():
    P = segment()
    gen = bump_gen()
    with pytest.raises(BoundaryError):
        guillemin_jet(P, np.array([0.0]))
    with pytest.raises(BoundaryError):
        RayPoint(P, gen, 1.0, np.array([2.5]))
    with pytest.raises(BoundaryError):
        legendre_inverse(P, gen, 1.0, np.array([0.0]), guess=np.array([2.0]))
