"""Nice smoothings: exactness, rank structure, family verification."""

import numpy as np
import pytest

from toricray.generators import PLConvex
from toricray.polytope import make_polytope
from toricray.smoothing import (SmoothingError, build_nice_smoothing,
                                default_check_samples, verify_nice_family)
from toricray.testconfig import decompose, thickening_membership


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def wall_setup():
    P = cp2()
    f = PLConvex([((0, 0), 0), ((1, 0), -1)])
    return P, f, decompose(f, P)


def corner_setup():
    P = cp2()
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])
    return P, f, decompose(f, P)


def _rank(H):
    eigs = np.linalg.eigvalsh(H)
    return int(np.sum(eigs > 1e-8 * max(eigs.max(), 1.0)))


def test_single_wall_depends_on_transverse_only():
    P, f, dec = wall_setup()
    gen = build_nice_smoothing(f, P, dec, 0.1)
    for x2 in (0.3, 0.9, 1.7):
        line = np.array([[1.0 + t, x2] for t in (-0.05, 0.0, 0.06)])
        ref = gen.value(np.array([[1.0 - 0.05, 0.5],
                                  [1.0, 0.5], [1.0 + 0.06, 0.5]]))
        assert np.max(np.abs(gen.value(line) - ref)) < 1e-14


def test_equals_f_outside_slab_exactly():
    P, f, dec = wall_setup()
    gen = build_nice_smoothing(f, P, dec, 0.1)
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 3, size=(500, 2))
    pts = pts[P.contains(pts, tol=-1e-9)]
    outside = np.abs(pts[:, 0] - 1.0) >= 0.1
    assert np.all(gen.value(pts[outside]) == f.value(pts[outside]))


def test_wall_rank_and_transverse_positivity():
    P, f, dec = wall_setup()
    gen = build_nice_smoothing(f, P, dec, 0.1)
    for x2 in (0.2, 1.0, 1.8):
        H = gen.hessian(np.array([1.0, x2]))
        assert _rank(H) == 1
        assert H[0, 0] > 1.0 and abs(H[0, 1]) < 1e-14


def test_derivatives_match_finite_differences():
    P, f, dec = corner_setup()
    gen = build_nice_smoothing(f, P, dec, 0.05)
    h = 1e-6
    for p in ([1.01, 0.78], [0.99, 0.99], [1.24, 1.21], [1.0, 1.02]):
        x0 = np.array(p)
        fd_g = np.array([(gen.value(x0 + h * e) - gen.value(x0 - h * e))
                         / (2 * h) for e in np.eye(2)])
        assert np.max(np.abs(fd_g - gen.gradient(x0))) < 1e-6
        fd_h = np.vstack([(gen.gradient(x0 + h * e) - gen.gradient(x0 - h * e))
                          / (2 * h) for e in np.eye(2)])
        assert np.max(np.abs(fd_h - gen.hessian(x0))) < 1e-5


def test_corner_rank_structure():
    P, f, dec = corner_setup()
    gen = build_nice_smoothing(f, P, dec, 0.05)
    assert _rank(gen.hessian(np.array([1.0, 1.0]))) == 2
    assert _rank(gen.hessian(np.array([1.0, 0.5]))) == 1
    assert _rank(gen.hessian(np.array([0.5, 1.0]))) == 1
    assert _rank(gen.hessian(np.array([1.3, 1.3]))) == 1
    assert np.all(gen.hessian(np.array([0.5, 0.5])) == 0.0)


def test_corner_convexity_sampled():
    P, f, dec = corner_setup()
    gen = build_nice_smoothing(f, P, dec, 0.05)
    samples = default_check_samples(dec, 0.05)
    eigs = np.linalg.eigvalsh(gen.hessian(samples))
    assert eigs.min() >= -1e-10


def test_line_mollifier_against_quadrature_oracle():
    # closed-form directional convolution vs direct numerical convolution
    from scipy.integrate import quad
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1),
                  ((2, 1), "-7/2")])
    kern = get_kernel("cosine")
    w = np.array([2.0, 1.0])
    delta = 0.08
    moll = LineMollifier(f, w, delta, kern)
    rng = np.random.default_rng(13)
    for _ in range(12):
        x = rng.uniform(0.5, 2.0, size=2)

        def integrand(y):
            return float(kern.density(np.array([y / delta]))[0]) / delta * \
                float(f.value(x - y * w))

        oracle, _ = quad(integrand, -delta, delta, limit=200)
        val, grad, hess = moll.eval_point(x)
        assert val == pytest.approx(oracle, abs=1e-9)
        h = 1e-6
        fd = [(moll.eval_point(x + h * e)[0] - moll.eval_point(x - h * e)[0])
              / (2 * h) for e in np.eye(2)]
        assert np.max(np.abs(np.array(fd) - grad)) < 1e-6
        fd_h = np.vstack([
            (moll.eval_point(x + h * e)[1] - moll.eval_point(x - h * e)[1])
            / (2 * h) for e in np.eye(2)])
        assert np.max(np.abs(fd_h - hess)) < 1e-5


def test_iterated_mollifier_against_double_quadrature():
    from scipy.integrate import dblquad
    from toricray.kernels import get_kernel
    from toricray.smoothing import IteratedMollifier
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])
    kern = get_kernel("cosine")
    dirs = [np.array([2.0, 1.0]), np.array([0.0, 1.0])]
    radii = [0.06, 0.06]
    moll = IteratedMollifier(f, dirs, radii, kern)
    x = np.array([1.02, 0.97])

    def integrand(y2, y1):
        p = x - y1 * dirs[0] - y2 * dirs[1]
        th1 = float(kern.density(np.array([y1 / radii[0]]))[0]) / radii[0]
        th2 = float(kern.density(np.array([y2 / radii[1]]))[0]) / radii[1]
        return th1 * th2 * float(f.value(p))

    oracle, _ = dblquad(integrand, -radii[0], radii[0],
                        lambda _: -radii[1], lambda _: radii[1],
                        epsabs=1e-12)
    val, grad, hess = moll.eval_point(x)
    assert val == pytest.approx(oracle, abs=1e-8)
    h = 1e-5
    fd = [(moll.eval_point(x + h * e)[0] - moll.eval_point(x - h * e)[0])
          / (2 * h) for e in np.eye(2)]
    assert np.max(np.abs(np.array(fd) - grad)) < 1e-6
    fd_h = np.vstack([
        (moll.eval_point(x + h * e)[1] - moll.eval_point(x - h * e)[1])
        / (2 * h) for e in np.eye(2)])
    assert np.max(np.abs(fd_h - hess)) < 1e-5


def _line_oracle(f, w, delta, kern, x):
    """Value and gradient of the directional convolution by quadrature."""
    from scipy.integrate import quad

    def theta(y):
        return float(kern.density(np.array([y / delta]))[0]) / delta

    def conv(g):
        return quad(lambda y: theta(y) * g(x - y * w), -delta, delta,
                    points=(-delta / 2, 0.0, delta / 2), limit=400,
                    epsabs=1e-14, epsrel=1e-12)[0]

    return (conv(lambda p: float(f.value(p))),
            np.array([conv(lambda p, i=i: float(f.gradient(p)[i]))
                      for i in range(f.dim)]))


def _fd_hessian(moll, x, h=1e-6):
    return np.vstack([(moll.eval_point(x + h * e)[1]
                       - moll.eval_point(x - h * e)[1]) / (2 * h)
                      for e in np.eye(len(x))])


CORNER_PIECES = [((0, 0), 0), ((1, 0), -1), ((0, 1), -1)]


@pytest.mark.parametrize("pieces,w", [
    # w = (0, 1) is orthogonal to the kink normal (1, 0): equal slopes
    (CORNER_PIECES, (0.0, 1.0)),
    # a duplicated piece
    (CORNER_PIECES + [((1, 0), -1)], (2.0, 1.0)),
    (CORNER_PIECES + [((2, 1), "-7/2"), ((0, 0), 0)], (2.0, 1.0)),
])
def test_envelope_with_equal_slopes(pieces, w):
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    f = PLConvex(pieces)
    kern = get_kernel("cosine")
    w, delta = np.array(w), 0.08
    moll = LineMollifier(f, w, delta, kern)
    rng = np.random.default_rng(17)
    checked = 0
    for x in rng.uniform(0.85, 1.15, size=(12, 2)):
        val, grad, hess = moll.eval_point(x)
        if not np.any(hess):
            continue  # a single piece covers the window
        checked += 1
        v_ref, g_ref = _line_oracle(f, w, delta, kern, x)
        assert val == pytest.approx(v_ref, abs=1e-12)
        assert np.max(np.abs(grad - g_ref)) < 1e-8
        assert np.max(np.abs(_fd_hessian(moll, x) - hess)) < 1e-5
    assert checked >= 4


def test_envelope_with_three_pieces_crossing_in_the_window():
    # for the corner f all three pieces meet where the shift line through
    # x = (1, 1) + t w passes (1, 1), i.e. at the ordinate y = t
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    f = PLConvex(CORNER_PIECES)
    kern = get_kernel("cosine")
    w, delta = np.array([2.0, 1.0]), 0.08
    moll = LineMollifier(f, w, delta, kern)
    normal = np.array([-w[1], w[0]]) / np.linalg.norm(w)
    for t in (-0.5 * delta, 0.0, 0.3 * delta, 0.9 * delta):
        x = np.array([1.0, 1.0]) + t * w
        val, grad, hess = moll.eval_point(x)
        v_ref, g_ref = _line_oracle(f, w, delta, kern, x)
        assert val == pytest.approx(v_ref, abs=1e-12)
        assert np.max(np.abs(grad - g_ref)) < 1e-8
        # the Hessian jumps across that line; on it, it is one of the two
        # one-sided limits, never a mixture of both
        sides = [moll.eval_point(x + sgn * 1e-9 * normal)[2]
                 for sgn in (1.0, -1.0)]
        assert min(np.max(np.abs(hess - H)) for H in sides) < 1e-6
        assert np.max(np.abs(sides[0] - sides[1])) > 0.1


def test_envelope_batch_matches_rows_bitwise():
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    f = PLConvex(CORNER_PIECES + [((2, 1), "-7/2")])
    for name in ("cosine", "smooth"):
        moll = LineMollifier(f, np.array([2.0, 1.0]), 0.08, get_kernel(name))
        rng = np.random.default_rng(19)
        X = rng.uniform(0.5, 2.0, size=(60, 2))
        vals, grads, hesses = moll.eval_many(X)
        trivial = ~np.any(hesses, axis=(1, 2))
        assert 5 < trivial.sum() < len(X) - 5
        for x, v, g, h in zip(X, vals, grads, hesses):
            v1, g1, h1 = moll.eval_point(x)
            assert v1 == v and np.array_equal(g1, g) and np.array_equal(h1, h)


def _scalar_envelope(moll, x):
    """Reference: the per-point convex-hull envelope, one segment at a time."""
    f, d, k, w = moll.f, moll.delta, moll.kernel, moll.w
    s, c = -(f.G @ w), f.piece_values(x)
    lines = []
    for i in np.argsort(s, kind="stable"):
        if lines and s[lines[-1]] == s[i]:
            if c[lines[-1]] >= c[i]:
                continue
            lines.pop()
        while len(lines) >= 2 and ((c[i] - c[lines[-2]])
                                   * (s[lines[-1]] - s[lines[-2]])
                                   >= (c[lines[-1]] - c[lines[-2]])
                                   * (s[i] - s[lines[-2]])):
            lines.pop()
        lines.append(i)
    cuts = [(c[l] - c[r]) / (s[r] - s[l]) for l, r in zip(lines, lines[1:])]
    ys = np.clip([-d, *cuts, d], -d, d)
    val, grad, hess = 0.0, np.zeros(f.dim), np.zeros((f.dim, f.dim))
    for i, y0, y1 in zip(lines, ys[:-1], ys[1:]):
        if y1 > y0:
            dT = k.cdf(y1 / d) - k.cdf(y0 / d)
            dE = k.first_moment(y1 / d) - k.first_moment(y0 / d)
            val += c[i] * dT + s[i] * d * dE
            grad += f.G[i] * dT
    for l, r, yb in zip(lines, lines[1:], cuts):
        dg = f.G[l] - f.G[r]
        hess += k.density(yb / d)[0] / d * np.outer(dg, dg) / (dg @ w)
    return val, grad, hess


def test_envelope_against_scalar_reference():
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    rng = np.random.default_rng(23)
    rank2 = 0
    for trial in range(12):
        p = rng.integers(3, 6)
        grads = rng.integers(-2, 3, size=(p, 2))
        grads[-1] = grads[0]  # a repeated gradient: equal slopes
        f = PLConvex([(tuple(g), b) for g, b in
                      zip(grads, rng.integers(-2, 2, size=p))])
        w = rng.integers(-2, 3, size=2).astype(float)
        if not w.any():
            w[0] = 1.0
        kern = get_kernel(("cosine", "smooth")[trial % 2])
        moll = LineMollifier(f, w, 1.0, kern)
        X = rng.uniform(-1, 1, size=(80, 2))
        vals, grads_, hesses = moll.eval_many(X)
        rank2 += np.sum(np.abs(np.linalg.det(hesses)) > 1e-8)
        for x, v, g, h in zip(X, vals, grads_, hesses):
            v_ref, g_ref, h_ref = _scalar_envelope(moll, x)
            assert abs(v - v_ref) <= 1e-12 * (1.0 + abs(v_ref))
            assert np.max(np.abs(g - g_ref)) <= 1e-12
            assert np.max(np.abs(h - h_ref)) <= 1e-12 * (1.0 + np.max(np.abs(h_ref)))
    assert rank2 > 30  # windows with two or more breaks are well covered


def test_iterated_mollifier_batch_against_double_quadrature():
    from math import cos, pi

    from scipy.integrate import dblquad
    from toricray.kernels import get_kernel
    from toricray.smoothing import IteratedMollifier
    f = PLConvex(CORNER_PIECES)
    kern = get_kernel("cosine")
    w1, w2 = np.array([2.0, 1.0]), np.array([0.0, 1.0])
    r = 0.06
    moll = IteratedMollifier(f, [w1, w2], [r, r], kern)
    X = np.array([[1.01, 0.995], [0.99, 1.03], [1.05, 0.98], [0.6, 1.01],
                  [1.3, 0.95]])
    vals, grads, hesses = moll.eval_many(X)

    def theta(y):  # the cosine kernel, scaled to radius r
        return cos(pi * y / (2 * r)) ** 2 / r

    for x, v in zip(X, vals):
        def integrand(y2, y1):
            p1 = x[0] - y1 * w1[0] - y2 * w2[0]
            p2 = x[1] - y1 * w1[1] - y2 * w2[1]
            return theta(y1) * theta(y2) * max(0.0, p1 - 1.0, p2 - 1.0)

        oracle, _ = dblquad(integrand, -r, r, -r, r, epsabs=1e-11,
                            epsrel=1e-10)
        assert v == pytest.approx(oracle, abs=1e-8)
    for x, v, g, h in zip(X, vals, grads, hesses):
        v1, g1, h1 = moll.eval_point(x)
        assert v1 == v and np.array_equal(g1, g) and np.array_equal(h1, h)


def test_iterated_mollifier_takes_at_most_two_directions():
    from toricray.kernels import get_kernel
    from toricray.smoothing import IteratedMollifier
    f = PLConvex([((0, 0, 0), 0), ((1, 0, 0), -1)])
    with pytest.raises(ValueError):
        IteratedMollifier(f, np.eye(3), [0.1] * 3, get_kernel("cosine"))


def test_family_passes_and_nests():
    P, f, dec = wall_setup()
    fam = {e: build_nice_smoothing(f, P, dec, e) for e in (0.05, 0.1, 0.2)}
    rep = verify_nice_family(f, fam)
    assert rep.passed, rep.as_text()
    # generators agree (with f) outside the larger thickening
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 3, size=(300, 2))
    pts = pts[P.contains(pts, tol=-1e-9)]
    outside = np.array([not thickening_membership(dec, 0.2, p)[0]
                        for p in pts])
    v_small = fam[0.05].value(pts[outside])
    v_big = fam[0.2].value(pts[outside])
    assert np.all(v_small == v_big)


def test_strict_control_fails_only_rank_condition():
    P, f, dec = wall_setup()
    fam = {e: build_nice_smoothing(f, P, dec, e, variant="strict")
           for e in (0.05, 0.1, 0.2)}
    rep = verify_nice_family(f, fam)
    assert not rep.passed
    assert not rep.conditions["e"].passed
    for key in "abcd":
        assert rep.conditions[key].passed, rep.as_text()


def test_strict_needs_parallel_direction():
    P = make_polytope([[1], [-1]], [0, -2])
    f = PLConvex([((0,), 0), ((1,), -1)])
    dec = decompose(f, P)
    with pytest.raises((SmoothingError, NotImplementedError)):
        build_nice_smoothing(f, P, dec, 0.1, variant="strict")


def test_corner_family_verification():
    P, f, dec = corner_setup()
    fam = {e: build_nice_smoothing(f, P, dec, e) for e in (0.02, 0.04, 0.06)}
    rep = verify_nice_family(f, fam)
    assert rep.passed, rep.as_text()


def test_one_dimensional_pl_smoothing():
    P = make_polytope([[1], [-1]], [0, -2])
    f = PLConvex([((0,), 0), ((1,), -1)])
    dec = decompose(f, P)
    gen = build_nice_smoothing(f, P, dec, 0.1)
    xs = np.array([[0.5], [0.95], [1.0], [1.05], [1.5]])
    vals = gen.value(xs)
    assert vals[0] == 0.0 and vals[-1] == 0.5
    assert vals[2] > 0.0
    assert gen.hessian(np.array([1.0]))[0, 0] > 0


def test_affine_pl_rejected():
    P = cp2()
    f = PLConvex([((1, 0), 0)])
    dec = decompose(f, P)
    with pytest.raises(SmoothingError):
        build_nice_smoothing(f, P, dec, 0.1)


def test_eps_guard_for_disjoint_walls():
    # two parallel walls 1 apart: eps = 0.3 collides, eps = 0.1 is fine
    P = make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -4])
    f = PLConvex([((0, 0), 0), ((1, 0), -1), ((2, 0), -3)])
    dec = decompose(f, P)
    assert len(dec.faces_of_codim(1)) == 2
    with pytest.raises(SmoothingError):
        build_nice_smoothing(f, P, dec, 0.3)
    gen = build_nice_smoothing(f, P, dec, 0.1)
    assert gen.value(np.array([0.5, 0.5])) == f.value(np.array([0.5, 0.5]))
