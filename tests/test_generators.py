"""Bump and wall-sum generators, PL convex data."""

import numpy as np
import pytest

from toricray import scenarios
from toricray._exact import dot
from toricray.generators import (BumpSpec, GeneratorError, PLConvex,
                                 build_bump_generator, build_wall_sum,
                                 eval_generator)
from toricray.polytope import make_polytope
from toricray.quadrature import integrate_1d, integrate_polytope
from toricray.smoothing import build_nice_smoothing


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
    slopes = [gen.dpsi(np.array([0.5 * (a + b)]))[0] for a, b in comps]
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
    assert gen.psi(np.array([0.0]))[0] == 0.0
    # affine tail with the effective slope and centroid anchor
    xs = np.linspace(0.5, 2.0, 9)
    expected = b.eff_mass * (xs - b.centroid())
    assert np.max(np.abs(gen.psi(xs) - expected)) < 1e-10


def clipped_at_both_ends(kernel):
    return build_bump_generator(segment(), [BumpSpec(0.1, 0.25, 1.0, kernel),
                                            BumpSpec(1.9, 0.25, 1.0, kernel)])


@pytest.mark.parametrize("kernel", ["cosine", "smooth"])
@pytest.mark.parametrize("build", [
    lambda k: scenarios.segment(k).generator,
    lambda k: scenarios.segment_narrow(k).generator,
    lambda k: scenarios.corrected_segment(k).generator,
    lambda k: scenarios.three_bumps(k).generator,
    clipped_at_both_ends,
], ids=["segment", "segment_narrow", "corrected_segment", "three_bumps",
        "clipped"])
def test_effective_mass_is_the_integral_of_d2(build, kernel):
    # a bump's effective mass is its kernel's cdf difference; it meets the
    # integral of its d2 over P, cut at the support's ends, within
    # 1e-10 * max(1, |mass|)
    gen = build(kernel)
    for b in gen.bumps:
        got = integrate_polytope(lambda X: b.d2(X[:, 0]), gen.polytope,
                                 lines=[((1.0,), b.lo), ((1.0,), b.hi)],
                                 rel_tol=1e-12).value
        assert abs(got - b.eff_mass) <= 1e-10 * max(1.0, abs(b.eff_mass))
    if build is clipped_at_both_ends:
        lo, hi = gen.domain
        assert [(b.lo, b.hi) for b in gen.bumps] == [(lo, 0.35), (1.65, hi)]
        assert all(b.clipped and b.eff_mass < 1.0 for b in gen.bumps)


def test_bump_errors():
    P = segment()
    with pytest.raises(GeneratorError):
        build_bump_generator(P, [BumpSpec(1.0, 0.3, 1.0),
                                 BumpSpec(1.4, 0.3, 1.0)])
    with pytest.raises(GeneratorError):
        build_bump_generator(P, [BumpSpec(3.0, 0.2, 1.0)])
    with pytest.raises(GeneratorError):
        BumpSpec(1.0, -0.1, 1.0)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_bump_spec_rejects_non_finite_sizes(bad):
    for args in ((bad, 0.25, 1.0), (1.0, bad, 1.0), (1.0, 0.25, bad)):
        with pytest.raises(GeneratorError, match="finite"):
            BumpSpec(*args)


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
    # all three pieces tie at (1, 1)
    assert {dot(g, (1, 1)) + b for g, b in f.pieces} == {f.value_exact((1, 1))}
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
    from toricray.smoothing import build_nice_smoothing
    from toricray.testconfig import decompose
    P = cp2()
    wall = PLConvex([((0, 0), 0), ((1, 0), -1)])
    corner = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])
    seg = segment(3)
    kinks = PLConvex([((0,), 0), ((1,), -1), ((2,), -3)])  # kinks at 1, 2
    pts_2d = np.array([[1.0, 1.0], [0.98, 0.5], [1.03, 1.01], [0.4, 0.4],
                       [1.2, 0.97], [0.99, 1.6]])
    pts_1d = np.array([[0.8], [1.0], [1.1], [0.2], [1.9], [1.24]])
    return [
        ("bumps", multi_bump("smooth"), pts_1d * 2.0),
        ("zero", build_bump_generator(P, []), pts_2d),
        ("wall-sum", build_wall_sum(P, [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                                        ((1, 1), BumpSpec(2.0, 0.2, 0.5))]),
         pts_2d),
        ("pl-wall", build_nice_smoothing(wall, P, decompose(wall, P), 0.1),
         pts_2d),
        ("pl-wall-strict", build_nice_smoothing(
            wall, P, decompose(wall, P), 0.1, variant="strict"), pts_2d),
        ("pl-corner", build_nice_smoothing(corner, P, decompose(corner, P),
                                           0.05), pts_2d),
        ("pl-two-kinks", build_nice_smoothing(kinks, seg, decompose(kinks, seg),
                                              0.1),
         np.array([[1.0], [1.02], [2.0], [1.97], [0.4], [2.6]])),
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


def _shipped_generators(kernel):
    """Every shipped generator kind on ``kernel``: the segment's bump, the
    CP^2 wall sum, the CP^2 wall's nice and strict smoothings and the CP^2
    corner's smoothing, each at eps = 0.1."""
    wall, corner = scenarios.cp2_wall(), scenarios.cp2_corner()
    return {
        "segment": scenarios.segment(kernel).generator,
        "cp2-wall-sum": scenarios.cp2_wall_sum(kernel).generator,
        **{f"cp2-wall-{variant}": build_nice_smoothing(
            wall.pl, wall.polytope, wall.decomposition, 0.1, kernel, variant)
           for variant in ("nice", "strict")},
        "cp2-corner": build_nice_smoothing(
            corner.pl, corner.polytope, corner.decomposition, 0.1, kernel)}


@pytest.mark.parametrize("kernel", ["cosine", "smooth"])
def test_a_lone_wall_sum_jet_is_its_row_of_a_stack(kernel):
    # a lone point gets the bits of its row in any stack, for every kind of
    # generator, also where both bumps of the CP^2 wall sum are curved: on
    # numpy scalars t ** 2 is libm's pow, which rounds some squares
    # otherwise than an array's t * t
    differ = []
    for name, gen in _shipped_generators(kernel).items():
        X = np.random.default_rng(0).uniform(0.75, 1.25, (2000, gen.dim))
        for order in range(3):
            stack = gen.jet(X, order)
            for k, x in enumerate(X):
                lone = gen.jet(x, order)
                if not all(a is None and b is None or np.array_equal(a, b[k])
                           for a, b in zip(lone, stack)):
                    differ.append((name, order, k))
    assert differ == []


def test_a_lone_line_evaluation_is_its_entry_of_an_array():
    # psi, dpsi and d2psi of a lone t get the bits of its entry in an
    # array: on a numpy scalar the cosine kernel's t ** 2 is libm's pow
    gen = scenarios.segment("cosine").generator
    T = np.random.default_rng(0).uniform(*gen.domain, 20000)
    for evaluate in (gen.psi, gen.dpsi, gen.d2psi):
        array = evaluate(T)
        assert [k for k, t in enumerate(T)
                if not np.array_equal(evaluate(t), array[k])] == []


def test_order_zero_jet_computes_the_value_alone(monkeypatch):
    # an order-0 wall-sum jet looks up no cdf for the slope, one per bump
    # at order 1, and both give the same values
    from toricray.kernels import Kernel
    gen = build_wall_sum(make_polytope([[1, 0], [0, 1], [-1, -1]],
                                       [0, 0, -3]),
                         [((1, 0), BumpSpec(1.0, 0.2, 1.0)),
                          ((1, 1), BumpSpec(2.0, 0.2, 0.5, "smooth"))])
    x = np.array([[1.0, 1.0], [0.9, 1.05], [0.4, 0.4]])
    lookups = []
    cdf = Kernel.cdf
    monkeypatch.setattr(Kernel, "cdf", lambda self, t: lookups.append(1)
                        or cdf(self, t))
    val0 = gen.jet(x, 0)[0]
    assert lookups == []
    val1 = gen.jet(x, 1)[0]
    assert len(lookups) == 2
    assert np.array_equal(val0, val1)


def test_no_generator_overrides_the_views():
    # Generator.jet is the one evaluator that shapes a generator's input;
    # each subclass evaluates a stack of points in its _jet
    import importlib
    import pkgutil

    import toricray
    from toricray.generators import Generator
    classes = {cls for info in pkgutil.iter_modules(toricray.__path__)
               for cls in vars(importlib.import_module(
                   f"toricray.{info.name}")).values()
               if isinstance(cls, type) and issubclass(cls, Generator)
               and cls is not Generator}
    assert {"WallSumGenerator", "BumpGenerator1D",
            "NiceSmoothingGenerator"} <= {cls.__name__ for cls in classes}
    for cls in classes:
        assert cls._jet is not Generator._jet
        assert not {"jet", "value", "gradient", "hessian"} & set(vars(cls))
