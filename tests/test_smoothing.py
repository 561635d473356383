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


@pytest.mark.parametrize("kernel", ["smooth", "cosine"])
def test_equals_f_outside_slab_exactly(kernel):
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    P, f, dec = wall_setup()
    gen = build_nice_smoothing(f, P, dec, 0.1, kernel=kernel)
    rng = np.random.default_rng(10)
    pts = rng.uniform(0, 3, size=(500, 2))
    pts = pts[P.contains(pts, tol=-1e-9)]
    outside = np.abs(pts[:, 0] - 1.0) >= 0.1
    assert np.all(gen.value(pts[outside]) == f.value(pts[outside]))

    # two pieces with non-integer data: where the window holds one piece
    # the jet is that piece's, bit for bit, although the kernel's tables
    # miss 0 and 1 at their ends by a few 1e-17
    f = PLConvex([(("1/3", "1/2"), "1/10"), ((2, "-1/2"), "-17/10")])
    w, delta = np.array([1.0, 0.0]), 0.05
    moll = LineMollifier(f, w, delta, get_kernel(kernel))
    assert moll._pair
    x1 = rng.uniform(0.5, 2.0, size=400)
    X = np.stack([x1, 5.0 / 3.0 * x1 - 1.8 + rng.uniform(-0.3, 0.3, 400)],
                 axis=1)
    # the pieces cross on the shift line at y = -3/5 (a_0 - a_1)
    a = f.piece_values(X)
    one = 0.6 * np.abs(a[:, 0] - a[:, 1]) > delta * (1.0 + 1e-9)
    assert 50 < one.sum() < len(X) - 50
    for rows in (np.arange(len(X)), np.nonzero(one)[0]):
        vals, grads, hesses = moll.eval_many(X[rows])
        lone = one[rows]
        assert np.all(vals[lone] == f.value(X[rows][lone]))
        assert np.all(grads[lone] == f.gradient(X[rows][lone]))
        assert np.all(hesses[lone] == 0.0)
        assert np.all(np.any(hesses[~lone], axis=(1, 2)))


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


def _hull(moll, x):
    """The pieces on top along the shift line through x, by increasing
    slope, and the ordinates where each hands over to the next."""
    f, w = moll.f, moll.w
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
    return lines, cuts


def _scalar_envelope(moll, x):
    """Reference: the per-point convex-hull envelope, one segment at a time."""
    f, d, k, w = moll.f, moll.delta, moll.kernel, moll.w
    s, c = -(f.G @ w), f.piece_values(x)
    lines, cuts = _hull(moll, x)
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
        hess += k.density(yb / d) / d * np.outer(dg, dg) / (dg @ w)
    return val, grad, hess


def test_envelope_against_scalar_reference():
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    rng = np.random.default_rng(23)

    def check(moll):
        X = rng.uniform(-1, 1, size=(80, 2))
        vals, grads_, hesses = moll.eval_many(X)
        for x, v, g, h in zip(X, vals, grads_, hesses):
            v_ref, g_ref, h_ref = _scalar_envelope(moll, x)
            assert abs(v - v_ref) <= 1e-12 * (1.0 + abs(v_ref))
            assert np.max(np.abs(g - g_ref)) <= 1e-12
            assert np.max(np.abs(h - h_ref)) <= 1e-12 * (1.0 + np.max(np.abs(h_ref)))
        return hesses

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
        hesses = check(LineMollifier(f, w, 1.0, kern))
        rank2 += np.sum(np.abs(np.linalg.det(hesses)) > 1e-8)
    assert rank2 > 30  # windows with two or more breaks are well covered

    # two pieces with distinct slopes take the two-piece closed form
    kinked = 0
    for trial in range(8):
        w = rng.integers(-2, 3, size=2).astype(float)
        if not w.any():
            w[0] = 1.0
        grads = rng.integers(-2, 3, size=(2, 2))
        while (grads[0] - grads[1]) @ w == 0:
            grads = rng.integers(-2, 3, size=(2, 2))
        f = PLConvex([(tuple(g), b) for g, b in
                      zip(grads, rng.integers(-2, 2, size=2))])
        moll = LineMollifier(f, w, 1.0, get_kernel(("cosine", "smooth")[trial % 2]))
        assert moll._pair
        kinked += np.sum(np.any(check(moll), axis=(1, 2)))
    assert kinked > 300


def test_kernel_is_evaluated_once_per_break(monkeypatch):
    # the jet is the top piece plus one term per break of the envelope in
    # the window, so each kernel table sees one point per break, not one
    # per end of every piece.  The kernel is a fresh one, not the instance
    # get_kernel caches, which the patches would outlive
    from toricray.kernels import _cosine_kernel
    from toricray.smoothing import LineMollifier
    kern = _cosine_kernel()
    seen = {}
    for name in ("cdf", "first_moment", "density"):
        table = getattr(kern, name)
        monkeypatch.setattr(kern, name, lambda t, name=name, table=table: (
            seen.__setitem__(name, seen.get(name, 0) + np.size(t))
            or table(t)))
    moll = LineMollifier(PLConvex(CORNER_PIECES), np.array([2.0, 1.0]),
                         0.08, kern)
    X = np.random.default_rng(5).uniform(0.85, 1.15, size=(1000, 2))
    moll.eval_many(X)
    breaks = sum(sum(abs(y) < moll.delta for y in _hull(moll, x)[1])
                 for x in X)
    assert breaks == 1022
    assert seen == {"cdf": breaks, "first_moment": breaks, "density": breaks}


def _table_breaks(moll, a):
    """Reference envelope: the (N, p, p) table of every ordered pair's
    crossing, each piece's window [lo, hi] a max and a min over a row."""
    d, order = moll.delta, moll._by_slope
    p = order.size
    s, a = moll.slopes_w[order], a[:, order]
    ds = s[:, None] - s[None, :]                  # s_i - s_j
    da = a[:, None, :] - a[:, :, None]            # a_j - a_i
    with np.errstate(divide="ignore", invalid="ignore"):
        y = da / ds                               # where i and j cross
    lo = np.maximum(-d, np.where(ds > 0, y, -np.inf).max(axis=2))
    hi = np.minimum(d, np.where(ds < 0, y, np.inf).min(axis=2))
    same = (ds == 0) & ~np.eye(p, dtype=bool)
    first = np.tri(p, k=-1, dtype=bool)           # j before i
    beaten = (same & ((da > 0) | ((da == 0) & first))).any(axis=2)
    active = (hi > lo) & ~beaten
    idx = np.where(active, np.arange(p), p)
    nxt = np.minimum.accumulate(idx[:, ::-1], axis=1)[:, ::-1]
    rows, left = np.nonzero(active[:, :-1] & (nxt[:, 1:] < p))
    right = nxt[rows, left + 1]
    top = p - 1 - np.argmax(active[:, ::-1], axis=1)
    return (rows, order[left], order[right], y[rows, left, right] / d,
            order[top])


def test_envelope_breaks_match_the_pair_table_bitwise():
    # quarter-grid piece values and slopes: ties between pieces, equal
    # slopes and crossings exactly at +-delta are common
    from toricray.kernels import get_kernel
    from toricray.smoothing import LineMollifier
    rng = np.random.default_rng(31)
    kern = get_kernel("cosine")
    at_edge = ties = equal = pairs = 0
    for trial in range(400):
        p = int(rng.integers(1, 7))
        grads = rng.integers(-2, 3, size=(p, 2))
        if p > 1 and trial % 4 == 0:
            grads[-1] = grads[0]                  # a duplicate piece
        f = PLConvex([(tuple(int(c) for c in g), 0) for g in grads])
        w = rng.integers(-2, 3, size=2).astype(float)
        if not w.any():
            w[0] = 1.0
        moll = LineMollifier(f, w, (0.25, 0.5, 1.0)[trial % 3], kern)
        a = np.concatenate([rng.integers(-6, 7, size=(150, p)) / 4.0,
                            f.piece_values(rng.integers(-8, 9, size=(150, 2))
                                           / 4.0)])
        s = moll.slopes_w
        y = (a[:, None, :] - a[:, :, None]) / np.where(
            s[:, None] == s[None, :], np.inf, s[:, None] - s[None, :])
        at_edge += np.sum(np.abs(y) == moll.delta)
        ties += np.sum(a[:, :, None] == a[:, None, :]) - a.size
        equal += np.sum(s[:, None] == s[None, :]) - p
        for forced_off in (False, True):
            if forced_off:
                pairs += moll._pair
                moll._pair = False
            want, got = _table_breaks(moll, a), moll._breaks(a)
            for u, v in zip(want, got):
                assert u.shape == v.shape and u.dtype == v.dtype
                assert u.tobytes() == v.tobytes()
    assert min(at_edge, ties, equal) > 500 and pairs > 20


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


@pytest.mark.parametrize("kernel", ["cosine", "smooth"])
def test_iterated_mollifier_batches_match_rows_bitwise(kernel):
    from toricray import smoothing
    P, f, dec = corner_setup()
    moll = build_nice_smoothing(f, P, dec, 0.1, kernel=kernel).mollifier
    assert isinstance(moll, smoothing.IteratedMollifier)
    rng = np.random.default_rng(23)
    X = 1.0 + rng.uniform(-0.01, 0.01, size=(64, 2))
    vals, grads, hesses = moll.eval_many(X)
    # every point is inside the footprint: at least three inner batches
    assert np.all(np.any(hesses, axis=(1, 2)))
    assert len(X) >= 3 * smoothing._OUTER_CHUNK
    for x, v, g, h in zip(X, vals, grads, hesses):
        v1, g1, h1 = moll.eval_point(x)
        assert v1 == v and np.array_equal(g1, g) and np.array_equal(h1, h)


def test_iterated_mollifier_takes_at_most_two_directions():
    from toricray.kernels import get_kernel
    from toricray.smoothing import IteratedMollifier
    f = PLConvex([((0, 0, 0), 0), ((1, 0, 0), -1)])
    with pytest.raises(ValueError):
        IteratedMollifier(f, np.eye(3), [0.1] * 3, get_kernel("cosine"))
    # one direction is a line mollification
    with pytest.raises(ValueError):
        IteratedMollifier(f, np.eye(3)[:1], [0.1], get_kernel("cosine"))


def test_one_direction_family_is_line_mollified():
    from toricray.smoothing import LineMollifier
    P = make_polytope([[1], [-1]], [0, -3])
    f = PLConvex([((0,), 0), ((1,), -1), ((2,), -3)])   # kinks at 1 and 2
    dec = decompose(f, P)
    assert len(dec.faces) == 2
    fam = {e: build_nice_smoothing(f, P, dec, e) for e in (0.05, 0.1, 0.2)}
    for gen in fam.values():
        assert isinstance(gen.mollifier, LineMollifier)
    rep = verify_nice_family(f, fam)
    assert rep.passed, rep.as_text()


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


@pytest.mark.parametrize("kernel", ["smooth", "cosine"])
@pytest.mark.parametrize("setup", [wall_setup, corner_setup])
def test_slabs_are_the_mollifier_footprint(setup, kernel):
    # the slabs cross the walls only, and across each wall the widest one
    # is exactly where Hess psi_eps lives: nonzero just inside its ends,
    # zero just outside.  One wall is mollified across the full eps; the
    # corner's iterated mollification reaches 3/8, 1/8 and 1/2 of eps.
    P, f, dec = setup()
    gen = build_nice_smoothing(f, P, dec, 0.1, kernel=kernel)
    walls = dec.faces_of_codim(1)
    rows = {tuple(F.frame.matrix[F.frame.n_parallel]) for F in walls}
    assert {tuple(int(c) for c in nu) for nu, _, _ in gen.support} == rows
    widths = {}
    for F in walls:
        row = F.frame.matrix[F.frame.n_parallel]
        c = float(F.frame.offsets_np[0])
        halves = [0.5 * (hi - lo) for nu, lo, hi in gen.support
                  if tuple(nu) == row]
        assert all(0.5 * (lo + hi) == pytest.approx(c, abs=1e-15)
                   for nu, lo, hi in gen.support if tuple(nu) == row)
        h = max(halves)
        widths[row] = sorted(round(w / 0.1, 12) for w in halves)
        nu = np.array(row, dtype=float)
        mid = np.mean([[float(v) for v in p] for p in F.vertices], axis=0)
        step = np.outer([-1.0, 1.0], nu / (nu @ nu))
        hess_in = gen.hessian(mid + 0.9 * h * step)
        assert np.all(np.abs(hess_in).max(axis=(1, 2)) > 1e-8)
        assert np.all(gen.hessian(mid + 1.001 * h * step) == 0.0)
    if len(walls) == 1:
        assert list(widths.values()) == [[1.0]]
    else:
        assert widths == {(1, 0): [0.125, 0.375], (0, 1): [0.125],
                          (-1, 1): [0.5]}


def test_convexity_is_the_sampled_minimum_eigenvalue():
    P, f, dec = wall_setup()
    Pc, fc, decc = corner_setup()
    cases = [(dec, build_nice_smoothing(f, P, dec, 0.1)),
             (dec, build_nice_smoothing(f, P, dec, 0.1, variant="strict")),
             (decc, build_nice_smoothing(fc, Pc, decc, 0.04))]
    for d, gen in cases:
        H = gen.hessian(default_check_samples(d, gen.eps))
        assert gen.convexity == np.linalg.eigvalsh(H).min()


def reference_strict_eta(f, P, dec, eps, moll):
    """The strict tuning loop with a whole generator per eta."""
    from itertools import combinations
    from toricray.smoothing import NiceSmoothingGenerator, _StrictTerm
    F, = dec.faces
    fr, kern = F.frame, moll.kernel
    par = np.array([[float(c) for c in v] for v in F.vertices]) @ \
        fr.matrix_np.T[:, :fr.n_parallel]
    u0 = 0.5 * (par.min(axis=0) + par.max(axis=0))
    span = max(1.0, float(np.max(par.max(axis=0) - par.min(axis=0))))
    c_jump = max(abs(float((f.G[i] - f.G[j]) @ fr.shift_vectors()[:, 0]))
                 for i, j in combinations(range(f.npieces), 2))
    eta = 0.02 * c_jump * kern.peak / moll.delta / span ** 2
    samples = default_check_samples(dec, eps)
    for halvings in range(40):
        term = _StrictTerm(fr, moll.delta, kern, eta, u0)
        gen = NiceSmoothingGenerator(P, dec, eps, moll, strict_term=term)
        if np.linalg.eigvalsh(gen.hessian(samples)).min() >= -1e-10:
            return eta, halvings
        eta *= 0.5


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_strict_tuning_picks_the_reference_eta(eps):
    P, f, dec = wall_setup()
    gen = build_nice_smoothing(f, P, dec, eps, variant="strict")
    eta, halvings = reference_strict_eta(f, P, dec, eps, gen.mollifier)
    assert halvings > 0
    assert gen.strict_term.eta == eta


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_strict_build_decomposes_each_halving_once(monkeypatch, eps):
    # the strict tuning decomposes one Hessian stack per halving it tries,
    # and bisects for the first that passes once the 39th does: the least
    # eigenvalue is concave in the height, so passing is monotone from
    # there.  The passing one's least eigenvalue, of the very Hessians the
    # build keeps as its checks, is its convexity, with no further stack
    P, f, dec = wall_setup()
    stacks, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: stacks.append(len(a)) or eigvalsh(a))
    gen = build_nice_smoothing(f, P, dec, eps, variant="strict")
    convexity = gen.convexity
    monkeypatch.undo()
    _, halvings = reference_strict_eta(f, P, dec, eps, gen.mollifier)
    # the 39th halving, then at most six bisection steps over 0..39, where
    # the scan tried every halving up to the passing one
    assert len(stacks) <= 7 < halvings + 1
    assert convexity == float(np.linalg.eigvalsh(gen.checks[1][2]).min())


def test_each_smoothing_is_evaluated_once_per_point_set(monkeypatch):
    from collections import Counter
    from toricray.smoothing import (IteratedMollifier, LineMollifier,
                                    _StrictTerm)
    from toricray.smoothing import _face_interior_points
    calls, rows = Counter(), Counter()
    for cls, name in ((LineMollifier, "eval_many"),
                      (IteratedMollifier, "eval_many"), (_StrictTerm, "eval")):
        def counted(self, X, *args, _orig=getattr(cls, name),
                    _name=cls.__name__):
            calls[_name] += 1
            rows[_name] += len(X)
            return _orig(self, X, *args)
        monkeypatch.setattr(cls, name, counted)

    P, f, dec = corner_setup()
    fam = {e: build_nice_smoothing(f, P, dec, e) for e in (0.02, 0.04, 0.06)}
    assert calls["IteratedMollifier"] == len(fam)     # one check jet each
    calls.clear()
    rows.clear()
    assert verify_nice_family(f, fam).passed
    # the eps_max member at the face points alone, its samples' jet read
    # off its checks; each other member on the samples and the face points
    ns = len(default_check_samples(dec, max(fam)))
    nf = len(_face_interior_points(dec))
    assert calls["IteratedMollifier"] == len(fam)
    assert rows["IteratedMollifier"] == (len(fam) - 1) * (ns + nf) + nf

    # the strict build halves eta 12 to 16 times at these eps
    P, f, dec = wall_setup()
    for eps in (0.05, 0.1, 0.2):
        calls.clear()
        build_nice_smoothing(f, P, dec, eps, variant="strict")
        # one check jet of the mollifier, and one term jet that serves
        # every eta and the checks
        assert calls["LineMollifier"] == 1
        assert calls["_StrictTerm"] == 1


def _one_dimensional_setup():
    # f = max(0, x - 1, 2x - 3) on [0, 4]: kinks at x = 1 and x = 2
    P = make_polytope([[1], [-1]], [0, -4])
    f = PLConvex([((0,), 0), ((1,), -1), ((2,), -3)])
    return P, f, decompose(f, P)


def _scenario_setup(name):
    from toricray.scenarios import get_scenario
    sc = get_scenario(name)
    return sc.polytope, sc.pl, sc.decomposition


# (setup, variant, family eps) of the check-jet and verification tests
CHECK_FAMILIES = {
    "cp2-wall": (lambda: _scenario_setup("cp2-wall"), "nice",
                 (0.05, 0.1, 0.2)),
    "cp2-wall-strict": (lambda: _scenario_setup("cp2-wall"), "strict",
                        (0.05, 0.1, 0.2)),
    "cp2-corner": (lambda: _scenario_setup("cp2-corner"), "nice",
                   (0.02, 0.04, 0.06)),
    "cp2-two-walls": (lambda: _scenario_setup("cp2-two-walls"), "nice",
                      (0.02, 0.04, 0.06)),
    "segment-two-kinks": (_one_dimensional_setup, "nice", (0.05, 0.1, 0.2)),
}


def _family(name):
    setup, variant, eps_list = CHECK_FAMILIES[name]
    P, f, dec = setup()
    return f, dec, {e: build_nice_smoothing(f, P, dec, e, variant=variant)
                    for e in eps_list}


@pytest.mark.parametrize("name", sorted(CHECK_FAMILIES))
def test_checks_are_the_jet_on_the_check_samples(name):
    # the build evaluates the mollifier once on the check samples; a
    # strict build adds its term's jet scaled by 0.5**k, which is exact
    f, dec, fam = _family(name)
    for eps, gen in fam.items():
        samples, jet = gen.checks
        assert np.array_equal(samples, default_check_samples(dec, eps))
        assert len(jet) == 3
        for got, want in zip(jet, gen.jet(samples, 2)):
            assert np.array_equal(got, want)


def reference_check_samples(decomp, eps):
    """The sample battery built point by point."""
    P = decomp.polytope
    pts = []
    offs = np.array([0.0, 0.45, -0.45, 0.95, -0.95, 1.3, -1.3]) * eps
    for F in decomp.faces:
        if F.frame is None:
            continue
        fr = F.frame
        verts = F.vertices_np
        if len(verts) == 1:
            base = [verts[0]]
        else:
            lams = np.linspace(0.08, 0.92, 7)
            base = [(1 - t) * verts[0] + t * verts[-1] for t in lams]
        shifts = fr.shift_vectors()
        for b in base:
            for col in range(fr.codim):
                for o in offs:
                    pts.append(b + o * shifts[:, col])
    lo, hi = P.bbox()
    if P.dim == 1:
        grid = np.linspace(lo[0], hi[0], 33)[:, None]
    else:
        g1 = np.linspace(lo[0], hi[0], 9)
        g2 = np.linspace(lo[1], hi[1], 9)
        grid = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
    pts.extend(grid)
    pts = np.array(pts)
    return pts[P.contains(pts, tol=-1e-9)]


def reference_verify(f, gens):
    """Conditions a)-e) with every member evaluated on the eps_max samples
    stacked with the face points, and one rank per (point, eps)."""
    from toricray.smoothing import (ConditionReport, _face_interior_points,
                                    _CONVEXITY_ALLOWANCE, _LIPSCHITZ_SLACK,
                                    _OFF_WALL_BOUND)
    from toricray.testconfig import thickening_mask

    def rank(H):
        eigs = np.linalg.eigvalsh(np.atleast_2d(H))
        floor = 1e-8 * max(float(np.max(np.abs(eigs))), 1.0)
        return int(np.sum(eigs > floor))

    eps_list = sorted(gens)
    decomp = gens[eps_list[0]].decomp
    P = decomp.polytope
    samples = reference_check_samples(decomp, max(eps_list))
    face_pts = _face_interior_points(decomp)
    X = np.vstack([samples] + [p[None] for _, p, _ in face_pts])
    ns = len(samples)
    jets = {e: gens[e].jet(X, 2) for e in eps_list}
    out = {}
    worst_a = min(g.convexity for g in gens.values())
    out["a"] = ConditionReport(
        "smooth and convex", worst_a >= _CONVEXITY_ALLOWANCE, worst_a)
    lip = max(abs(float(c)) for g, _ in f.pieces for c in g) + 1.0
    worst_b = 0.0
    for e1, e2 in zip(eps_list[:-1], eps_list[1:]):
        dv = np.max(np.abs(jets[e1][0][:ns] - jets[e2][0][:ns]))
        bound = 2.0 * P.dim * lip * (e1 + e2) + _LIPSCHITZ_SLACK
        worst_b = max(worst_b, float(dv / bound))
    out["b"] = ConditionReport("smooth in eps (Lipschitz proxy)",
                               worst_b <= 1.0, worst_b)
    worst_c = 0.0
    for e in eps_list:
        outside = ~thickening_mask(decomp, e, samples)
        if np.any(outside):
            dv = np.max(np.abs(jets[e][0][:ns][outside]
                               - f.value(samples[outside])))
            worst_c = max(worst_c, float(dv))
    out["c"] = ConditionReport("equals f off W_eps",
                               worst_c <= _OFF_WALL_BOUND, worst_c)
    worst_d, ok_d = np.inf, True
    for k, (face, _, _) in enumerate(face_pts):
        fr = face.frame
        for e in eps_list:
            H = jets[e][2][ns + k]
            if rank(H) < face.codim:
                ok_d = False
            Ht = fr.inverse_np.T @ H @ fr.inverse_np
            block = Ht[fr.n_parallel:, fr.n_parallel:]
            lam = float(np.linalg.eigvalsh(np.atleast_2d(block)).min())
            worst_d = min(worst_d, lam)
            if lam <= 0:
                ok_d = False
    out["d"] = ConditionReport(
        "rank >= codim, transverse block positive definite", ok_d,
        worst_d if np.isfinite(worst_d) else 0.0)
    ok_e, checked, worst_e = True, 0, 0
    for k, (face, _, margin) in enumerate(face_pts):
        eps_p = margin / 7.0 if np.isfinite(margin) else np.inf
        usable = [e for e in eps_list if e < eps_p]
        if not usable:
            continue
        checked += 1
        for e in usable:
            r = rank(jets[e][2][ns + k])
            worst_e = max(worst_e, r - face.codim)
            if r != face.codim:
                ok_e = False
    if checked == 0:
        ok_e = False
    out["e"] = ConditionReport(
        f"rank exactly codim for small eps ({checked} points checked)",
        ok_e, float(worst_e))
    return out


@pytest.mark.parametrize("name", sorted(CHECK_FAMILIES))
def test_verification_matches_the_per_point_reference(name):
    f, dec, fam = _family(name)
    for eps in fam:
        assert np.array_equal(default_check_samples(dec, eps),
                              reference_check_samples(dec, eps))
    # name, passed and worst of each condition, exactly
    assert verify_nice_family(f, fam).conditions == reference_verify(f, fam)
