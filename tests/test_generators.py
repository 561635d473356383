"""Bump and wall-sum generators, PL convex data."""

import numpy as np
import pytest

from toricray.generators import (BumpSpec, GeneratorError, PLConvex,
                                 build_bump_generator, build_wall_sum,
                                 eval_generator)
from toricray.polytope import make_polytope
from toricray.quadrature import integrate_1d


def segment(N=2):
    return make_polytope([[1], [-1]], [0, -N])


def single_bump(kernel="cosine"):
    return build_bump_generator(segment(), [BumpSpec(1.0, 0.25, 1.0, kernel)])


def test_single_bump_values():
    gen = single_bump()
    assert gen.psi(np.array([1.5]))[0] == pytest.approx(0.5, abs=1e-12)
    assert gen.psi(np.array([1.25]))[0] == pytest.approx(0.25, abs=1e-12)
    assert np.all(gen.psi(np.linspace(0, 0.75, 20)) == 0.0)
    assert gen.dpsi(np.array([1.0]))[0] == pytest.approx(0.5, abs=1e-12)


def test_kernel_peak_at_center():
    gen = single_bump()
    # cosine kernel peak: A/alpha
    assert gen.d2psi(np.array([1.0]))[0] == pytest.approx(4.0, abs=1e-12)
    sm = single_bump("smooth")
    # independent quadrature oracle: half the mass sits left of the center
    half = integrate_1d(sm.d2psi, 0.75, 1.0, rel_tol=1e-12)
    assert half == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("kernel,tol", [("cosine", 1e-10), ("smooth", 1e-8)])
def test_affine_tail(kernel, tol):
    gen = single_bump(kernel)
    xs = np.linspace(1.25, 2.0, 200)
    assert np.max(np.abs(gen.psi(xs) - (xs - 1.0))) <= tol


def test_gradient_matches_finite_differences():
    h = 2e-6
    for kernel in ("cosine", "smooth"):
        gen = single_bump(kernel)
        xs = np.linspace(0.7, 1.3, 41)
        fd = (gen.psi(xs + h) - gen.psi(xs - h)) / (2 * h)
        rel = np.abs(fd - gen.dpsi(xs)) / (1.0 + np.abs(gen.dpsi(xs)))
        assert np.max(rel) < 1e-6
        fd2 = (gen.dpsi(xs + h) - gen.dpsi(xs - h)) / (2 * h)
        rel2 = np.abs(fd2 - gen.d2psi(xs)) / (1.0 + np.abs(gen.d2psi(xs)))
        assert np.max(rel2) < 1e-6


def test_convexity_sampled():
    rng = np.random.default_rng(1)
    for kernel in ("cosine", "smooth"):
        gen = single_bump(kernel)
        xs = rng.uniform(0, 2, size=500)
        assert gen.d2psi(xs).min() >= -1e-10


def multi_bump(kernel="cosine"):
    P = make_polytope([[1], [-1]], [0, -5])
    specs = [BumpSpec(1.0, 0.25, 1.0, kernel),
             BumpSpec(2.5, 0.25, 0.5, kernel),
             BumpSpec(4.0, 0.25, 2.0, kernel)]
    return build_bump_generator(P, specs)


def test_multi_bump_staircase():
    gen = multi_bump()
    comps = gen.components()
    slopes = gen.component_slopes()
    assert len(comps) == 4
    assert slopes == pytest.approx([0.0, 1.0, 1.5, 3.5])
    for (a, b), slope in zip(comps, slopes):
        xs = np.linspace(a, b, 50)
        assert np.max(np.abs(gen.d2psi(xs))) == 0.0
        assert np.max(np.abs(gen.dpsi(xs) - slope)) < 1e-10
        # affine with the stacked slope: second differences vanish
        vals = gen.psi(xs)
        assert np.max(np.abs(np.diff(vals) - slope * np.diff(xs))) < 1e-10


def test_multi_bump_closed_form_value():
    gen = multi_bump()
    # on the j-th gap: psi(x) = sum_{k<j} A_k (x - m_k)
    x = np.array([3.0])  # third gap (after bumps at 1 and 2.5)
    expected = 1.0 * (3.0 - 1.0) + 0.5 * (3.0 - 2.5)
    assert gen.psi(x)[0] == pytest.approx(expected, abs=1e-12)


def test_clipped_bump_mass_and_anchor():
    P = segment()
    gen = build_bump_generator(P, [BumpSpec(0.1, 0.25, 1.0, "cosine")])
    b = gen.bumps[0]
    assert b.lo == 0.0 and b.clipped
    assert b.eff_mass < 1.0
    got = integrate_1d(gen.d2psi, 0.0, 0.35, rel_tol=1e-12)
    assert got == pytest.approx(b.eff_mass, abs=1e-10)
    assert gen.psi(np.array([0.0]))[0] == 0.0
    # affine tail with the effective slope and centroid anchor
    xs = np.linspace(0.5, 2.0, 9)
    expected = b.eff_mass * (xs - b.centroid())
    assert np.max(np.abs(gen.psi(xs) - expected)) < 1e-10


def test_bump_errors():
    P = segment()
    with pytest.raises(GeneratorError):
        build_bump_generator(P, [BumpSpec(1.0, 0.3, 1.0),
                                 BumpSpec(1.4, 0.3, 1.0)])
    with pytest.raises(GeneratorError):
        build_bump_generator(P, [BumpSpec(3.0, 0.2, 1.0)])
    with pytest.raises(GeneratorError):
        BumpSpec(1.0, -0.1, 1.0)


def test_eval_generator_guard():
    gen = single_bump()
    psi, grad, hess = eval_generator(gen, np.array([1.0]))
    assert grad.shape == (1,) and hess.shape == (1, 1)
    with pytest.raises(GeneratorError):
        eval_generator(gen, np.array([2.5]))


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def test_wall_sum_ranks():
    gen = build_wall_sum(cp2(), [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                                 ((0, 1), BumpSpec(1.0, 0.2, 1.0))])
    def rank_at(x):
        eigs = np.linalg.eigvalsh(gen.hessian(np.array(x)))
        return int(np.sum(eigs > 1e-8 * max(eigs.max(), 1.0)))
    assert rank_at([1.0, 0.5]) == 1
    assert rank_at([0.5, 1.0]) == 1
    assert rank_at([1.0, 1.0]) == 2
    assert rank_at([0.5, 0.5]) == 0
    assert np.all(gen.hessian(np.array([0.5, 0.5])) == 0.0)


def test_wall_sum_gradient_consistency():
    gen = build_wall_sum(cp2(), [((1, 1), BumpSpec(1.5, 0.2, 2.0))])
    h = 1e-6
    x0 = np.array([0.8, 0.75])
    fd = np.array([(gen.value(x0 + h * e) - gen.value(x0 - h * e)) / (2 * h)
                   for e in np.eye(2)])
    assert np.max(np.abs(fd - gen.gradient(x0))) < 1e-6


def test_pl_convex_basics():
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])
    assert f.value(np.array([0.5, 0.5])) == 0.0
    assert f.value(np.array([2.0, 0.5])) == 1.0
    assert f.active_set_exact((1, 1)) == frozenset({0, 1, 2})
    assert f.max_over(cp2()) == 2
    assert np.allclose(f.gradient(np.array([2.0, 0.3])), [1.0, 0.0])


def test_pl_value_is_convex_sampled():
    rng = np.random.default_rng(2)
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1), ((1, 1), -2)])
    for _ in range(100):
        x, y = rng.uniform(0, 3, size=(2, 2))
        lam = rng.uniform()
        mid = f.value(lam * x + (1 - lam) * y)
        assert mid <= lam * f.value(x) + (1 - lam) * f.value(y) + 1e-12


def _all_generators():
    """One generator of each kind, with a point set inside its polytope."""
    from toricray.generators import ZeroGenerator
    from toricray.smoothing import build_nice_smoothing
    from toricray.testconfig import decompose
    P = cp2()
    wall = PLConvex([((0, 0), 0), ((1, 0), -1)])
    corner = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])
    pts_2d = np.array([[1.0, 1.0], [0.98, 0.5], [1.03, 1.01], [0.4, 0.4],
                       [1.2, 0.97], [0.99, 1.6]])
    pts_1d = np.array([[0.8], [1.0], [1.1], [0.2], [1.9], [1.24]])
    return [
        ("bumps", multi_bump("smooth"), pts_1d * 2.0),
        ("zero", ZeroGenerator(P), pts_2d),
        ("wall-sum", build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                                        ((1, 1), BumpSpec(2.0, 0.2, 0.5))]),
         pts_2d),
        ("pl-wall", build_nice_smoothing(wall, P, decompose(wall, P), 0.1),
         pts_2d),
        ("pl-wall-strict", build_nice_smoothing(
            wall, P, decompose(wall, P), 0.1, variant="strict"), pts_2d),
        ("pl-corner", build_nice_smoothing(corner, P, decompose(corner, P),
                                           0.05), pts_2d),
    ]


@pytest.mark.parametrize("kind,gen,pts", _all_generators(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_jet_contract(kind, gen, pts):
    n = gen.dim
    for x in (pts[0], pts, pts.reshape(2, 3, n)):
        lead = x.shape[:-1]
        jets = [gen.jet(x, order) for order in (0, 1, 2)]
        for order, jet in enumerate(jets):
            assert len(jet) == 3
            assert all(jet[k] is None for k in range(order + 1, 3))
        val, grad, hess = jets[2]
        assert np.shape(val) == lead
        assert np.shape(grad) == lead + (n,)
        assert np.shape(hess) == lead + (n, n)
        # lower orders are the same numbers, bit for bit
        assert np.array_equal(jets[0][0], val)
        assert np.array_equal(jets[1][0], val)
        assert np.array_equal(jets[1][1], grad)
        # the views and eval_generator are the same jet
        assert np.array_equal(gen.value(x), val)
        assert np.array_equal(gen.gradient(x), grad)
        assert np.array_equal(gen.hessian(x), hess)
        ev = eval_generator(gen, x)
        assert all(np.array_equal(a, b) for a, b in zip(ev, (val, grad, hess)))
    # a stack of points is evaluated row by row
    val, grad, hess = gen.jet(pts, 2)
    for k, x in enumerate(pts):
        v1, g1, h1 = gen.jet(x, 2)
        assert v1 == val[k] and np.array_equal(g1, grad[k]) \
            and np.array_equal(h1, hess[k])


def test_no_generator_overrides_the_views():
    from toricray import generators, smoothing
    for mod in (generators, smoothing):
        for cls in vars(mod).values():
            if isinstance(cls, type) and issubclass(cls, generators.Generator) \
                    and cls is not generators.Generator:
                assert "jet" in vars(cls)
                assert not {"value", "gradient", "hessian"} & set(vars(cls))
