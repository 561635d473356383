"""Symplectic potentials, Legendre geometry, determinant identity."""

import numpy as np
import pytest

from toricray import scenarios
from toricray.generators import (BumpSpec, Generator, build_bump_generator,
                                 build_wall_sum)
from toricray.polytope import make_polytope
from toricray.potentials import (BoundaryError, NewtonError,
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
    base = ray_jet(P, gen, 0.0, x)
    for s in (1.0, 10.0, 100.0):
        jet = ray_jet(P, gen, s, x)
        assert np.all(jet.hessian == base.hessian)
        shift = jet.gradient - base.gradient
        assert np.all(shift == s * gen.gradient(x))


def test_ray_jet_adds_at_center():
    P = segment()
    gen = bump_gen()
    x = np.array([1.0])
    j0 = ray_jet(P, gen, 0.0, x)
    j10 = ray_jet(P, gen, 10.0, x)
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
            jet = ray_jet(P, gen, s, x)
            np.linalg.cholesky(jet.hessian)


def test_legendre_roundtrip_and_duality():
    rng = np.random.default_rng(5)
    P = segment()
    gen = bump_gen()
    s = 4.0
    for _ in range(100):
        x = np.array([rng.uniform(0.05, 1.95)])
        y = legendre_forward(P, gen, s, x)
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
    ys = [legendre_forward(P, gen, 2.0, np.array([x]))[0]
          for x in xs]
    assert np.all(np.diff(ys) > 0)
    assert ys[0] < -5 and ys[-1] > 5


def test_holo_log_coordinate_component_shift():
    P = segment()
    gen = bump_gen()
    s = 7.0
    for a, b in gen.components():
        slope = gen.dpsi(np.array([0.5 * (a + b)]))[0]
        pts = [a + 0.2 * (b - a), a + 0.8 * (b - a)]
        shifts = []
        for x in pts:
            if not a < x < b:
                continue
            w_s = holo_log_coordinate(P, gen, s, np.array([x]),
                                      np.array([0.25]))
            w_0 = holo_log_coordinate(P, gen, 0.0, np.array([x]),
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
        base = ray_jet(P, gen, 0.0, x)
        for s in (1.0, 100.0):
            jet = ray_jet(P, gen, s, x)
            assert np.all(jet.hessian == base.hessian)


def test_holo_coordinate_angle_periodicity():
    P = segment()
    gen = bump_gen()
    x = np.array([0.8])
    w0 = holo_log_coordinate(P, gen, 2.0, x, np.array([0.3]))
    w1 = holo_log_coordinate(P, gen, 2.0, x, np.array([0.3 + 2 * np.pi]))
    assert np.allclose(w1 - w0, 2j * np.pi)
    assert np.allclose(np.exp(w1), np.exp(w0))


@pytest.mark.parametrize("s", [0.0, 100.0])
def test_legendre_round_trips_near_the_facets(s):
    # solutions as close to a facet as 4e-9
    seg, wall = scenarios.segment("cosine"), scenarios.cp2_wall_sum("cosine")
    cases = [(seg, [y]) for y in (-10.0, -5.0, 5.0)] + [
        (wall, [-10.0, -10.0]), (wall, [-5.0, -5.0])]
    for sc, y in cases:
        P, gen = sc.polytope, sc.generator
        x = legendre_inverse(P, gen, s, np.array(y))
        y_back = legendre_forward(P, gen, s, x)
        assert np.max(np.abs(y_back - y)) <= 1e-10
        assert np.max(np.abs(legendre_inverse(P, gen, s, y_back) - x)) < 1e-9


def test_legendre_inverse_shifts_by_the_slope_on_gap_components():
    # the complex structure is unchanged off the support: on a gap
    # component grad g_s = grad g_P + s * slope, so y + s * slope has the
    # same preimage at every s
    P = segment()
    gen = bump_gen()
    for (a, b), ys in zip(gen.components(), [(-10.0, -1.0), (0.5, 5.0)]):
        slope = gen.dpsi(np.array([0.5 * (a + b)]))
        for y in ys:
            x0 = legendre_inverse(P, gen, 0.0, np.array([y]))
            assert a < x0[0] < b
            for s in (1.0, 100.0):
                xs = legendre_inverse(P, gen, s, y + s * slope)
                assert np.max(np.abs(xs - x0)) < 1e-9


def test_unresolved_solutions_raise_newton_error():
    # y = 10 solves at 2 - 4.1e-9, where floats resolve grad g_P only to
    # about 1e-8; y = +-20 and +-40 solve closer to a facet than
    # INTERIOR_TOL
    P = segment()
    gen = bump_gen()
    for y in (10.0, 20.0, -20.0, 40.0, -40.0):
        with pytest.raises(NewtonError, match="residual"):
            legendre_inverse(P, gen, 0.0, np.array([y]))


def test_boundary_guards():
    P = segment()
    gen = bump_gen()
    with pytest.raises(BoundaryError):
        guillemin_jet(P, np.array([0.0]))
    with pytest.raises(BoundaryError):
        ray_jet(P, gen, 1.0, np.array([2.5]))
    with pytest.raises(ValueError, match="s must be >= 0"):
        ray_jet(P, gen, -1.0, np.array([1.0]))


def _batch_cases():
    rng = np.random.default_rng(12)
    P1 = segment()
    X1 = rng.uniform(0.01, 1.99, size=(40, 1))
    P2 = cp2()
    X2 = rng.uniform(0.01, 2.9, size=(200, 2))
    X2 = X2[np.min(P2.ell(X2), axis=1) > 1e-3]
    wall = build_wall_sum(P2, [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                               ((0, 1), BumpSpec(1.0, 0.2, 1.0))])
    return [("segment", P1, bump_gen(), X1), ("cp2", P2, wall, X2)]


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.all(np.abs(a - b) <= 1e-15 * np.maximum(np.abs(b), 1.0))


@pytest.mark.parametrize("case", _batch_cases(), ids=lambda c: c[0])
def test_batched_jets_match_rows(case):
    _, P, gen, X = case
    jet = guillemin_jet(P, X)
    assert jet.value.shape == (len(X),)
    assert jet.gradient.shape == X.shape
    assert jet.hessian.shape == (len(X), P.dim, P.dim)
    for s in (0.0, 7.0):
        batch = ray_jet(P, gen, s, X)
        for k, x in enumerate(X):
            for got, one in ((jet, guillemin_jet(P, x)),
                             (batch, ray_jet(P, gen, s, x))):
                assert type(one.value) is float
                assert _close(got.value[k], one.value)
                assert _close(got.gradient[k], one.gradient)
                assert _close(got.hessian[k], one.hessian)


def test_batch_with_a_boundary_point_raises():
    P = cp2()
    X = np.array([[0.5, 0.5], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(BoundaryError, match=r"point \[0\. 1\.\]"):
        guillemin_jet(P, X)
    with pytest.raises(BoundaryError, match=r"point \[0\. 1\.\]"):
        ray_jet(P, build_wall_sum(P, []), 1.0, X)


def test_det_identity_batch_matches_pointwise():
    P = cp2()
    gen = build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0))])
    X = _batch_cases()[1][3]
    rep = det_identity_check(P, gen, 20.0, X)
    want = [1.0 / (np.linalg.det(ray_jet(P, gen, 20.0, x).hessian)
                   * float(np.prod(P.ell(x)))) for x in X]
    assert _close(rep.deltas, want) and rep.ok_positive and rep.ok_finite
    assert det_identity_check(P, gen, 20.0, X[0]).deltas.shape == (1,)


def _s_grid_cases():
    ws = scenarios.cp2_wall_sum("cosine")
    return [("segment", segment(), bump_gen(),
             np.array([[0.3], [0.8], [1.0], [1.6]])),
            ("cp2_wall_sum", ws.polytope, ws.generator,
             np.array([[1.0, 0.8], [0.4, 0.4], [1.0, 1.0], [0.7, 1.9]]))]


@pytest.mark.parametrize("case", _s_grid_cases(), ids=lambda c: c[0])
def test_s_grid_jets_equal_each_s_call(case):
    # the ray is affine in s: one jet of g_P and one of psi serve every s
    # of a grid, bit for bit what a lone call at that s gives, and s = 0
    # is the jet of g_P alone
    _, P, gen, X = case
    grid = [0.0, 1.0, 32.0, 4096.0, 1e8]
    for x in (X, X[0]):
        jet = ray_jet(P, gen, grid, x)
        assert jet.hessian.shape == (len(grid),) + np.shape(x) + (P.dim,)
        for k, s in enumerate(grid):
            one = ray_jet(P, gen, s, x)
            for got, want in ((jet.value[k], one.value),
                              (jet.gradient[k], one.gradient),
                              (jet.hessian[k], one.hessian)):
                assert np.array_equal(got, want)
        base = guillemin_jet(P, x)
        assert np.array_equal(jet.hessian[0], base.hessian)


def test_s_grid_takes_one_generator_jet(monkeypatch):
    P, gen = segment(), bump_gen()
    calls = []
    jet = gen.jet

    def counting(x, order):
        calls.append(order)
        return jet(x, order)
    monkeypatch.setattr(gen, "jet", counting)
    ray_jet(P, gen, [0.0, 10.0, 100.0], np.array([[0.5], [1.0]]))
    assert calls == [2]
    with pytest.raises(ValueError, match="s must be >= 0"):
        ray_jet(P, gen, [1.0, -1.0], np.array([1.0]))
