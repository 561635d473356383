"""Randomized cross-checks of the exact geometry and the quadrature engines."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from toricray.generators import PLConvex
from toricray.kernels import get_kernel
from toricray.limits import battery_for, delta_diagnostic
from toricray.polytope import make_polytope
from toricray.quadrature import TriangleMesh, adaptive_panels, integrate_1d
from toricray.scenarios import segment
from toricray.smoothing import LineMollifier
from toricray.testconfig import decompose, thickening_membership


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


def square(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, 0], [0, -1]], [0, 0, -N, -N])


def random_pl(rng, npieces, dim=2, denom=4):
    pieces = []
    for _ in range(npieces):
        g = tuple(Fraction(int(rng.integers(-2 * denom, 2 * denom + 1)), denom)
                  for _ in range(dim))
        b = Fraction(int(rng.integers(-3 * denom, 3 * denom + 1)), denom)
        pieces.append((g, b))
    return PLConvex(pieces)


@pytest.mark.parametrize("seed", range(8))
def test_random_decompositions_are_exact_partitions(seed):
    rng = np.random.default_rng(seed)
    P = cp2() if seed % 2 == 0 else square()
    f = random_pl(rng, int(rng.integers(2, 6)))
    dec = decompose(f, P)
    assert dec.volume_defect() == 0
    assert dec.activity_consistency_exact()
    # random interior points: in the thickening or in exactly one open region
    for _ in range(60):
        x = rng.uniform(0, 3, size=2)
        if not P.contains(x, tol=-1e-9):
            continue
        inside, _ = thickening_membership(dec, 1e-7, x)
        owners = [i for i, Q in dec.subpolytopes if np.min(Q.ell(x)) > 1e-9]
        assert inside or len(owners) == 1
    # frames, where they exist, put their faces into coordinate slabs
    for face in dec.faces:
        if face.frame is None:
            continue
        for v in face.vertices:
            xt = face.frame.to_frame(np.array([float(c) for c in v]))
            assert np.max(np.abs(xt[face.frame.n_parallel:]
                                 - face.frame.offsets_np)) < 1e-10


@pytest.mark.parametrize("seed", range(5))
def test_line_mollifier_random_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    f = random_pl(rng, int(rng.integers(2, 6)))
    kern = get_kernel("cosine")
    w = rng.uniform(-1, 1, size=2)
    w /= np.linalg.norm(w)
    delta = float(rng.uniform(0.03, 0.15))
    moll = LineMollifier(f, w, delta, kern)
    for _ in range(6):
        x = rng.uniform(0, 3, size=2)

        def integrand(y):
            return float(kern.density(np.array([y / delta]))[0]) / delta * \
                float(f.value(x - y * w))

        oracle, _ = quad(integrand, -delta, delta, limit=300)
        val, grad, _ = moll.eval_point(x)
        assert val == pytest.approx(oracle, abs=1e-8)
        h = 1e-6
        fd = [(moll.eval_point(x + h * e)[0] - moll.eval_point(x - h * e)[0])
              / (2 * h) for e in np.eye(2)]
        assert np.max(np.abs(np.array(fd) - grad)) < 2e-6


def test_triangle_mesh_polynomial_exactness():
    P = cp2(1)
    mesh = TriangleMesh(P.vertices_np)
    mesh.refine(lambda X: np.ones(len(X)), rel_tol=1e-13, presplit_depth=1)
    assert mesh.value == pytest.approx(0.5, abs=1e-14)
    # degree-5 rule: exact on degree <= 5 polynomials
    for fn, exact in [
        (lambda X: X[:, 0], 1.0 / 6.0),
        (lambda X: X[:, 0] * X[:, 1], 1.0 / 24.0),
        (lambda X: X[:, 0] ** 2 * X[:, 1] ** 3, 1.0 / 420.0),
    ]:
        assert mesh.integrate(fn) == pytest.approx(exact, abs=1e-14)


def test_triangle_mesh_gaussian_against_dblquad():
    P = cp2(3)
    mesh = TriangleMesh(P.vertices_np)

    def g(X):
        X = np.atleast_2d(X)
        return np.exp(-8.0 * ((X[:, 0] - 1.0) ** 2 + (X[:, 1] - 0.7) ** 2))

    mesh.refine(g, rel_tol=1e-9, presplit_depth=2)
    oracle, err = dblquad(lambda y, x: float(g(np.array([[x, y]]))[0]),
                          0.0, 3.0, lambda x: 0.0, lambda x: 3.0 - x,
                          epsabs=1e-11)
    assert mesh.value == pytest.approx(oracle, rel=1e-7)


def test_adaptive_panels_endpoint_singularity():
    # sqrt singularities at both ends, the worst case for the density masses
    val, panels = adaptive_panels(lambda t: np.sqrt(t * (2.0 - t)), 0.0, 2.0,
                                  rel_tol=1e-12)
    assert val == pytest.approx(np.pi / 2.0, rel=1e-9)
    assert len(panels) > 8
    assert integrate_1d(lambda t: np.sin(t), 0.0, np.pi) == pytest.approx(
        2.0, abs=1e-12)


def test_delta_diagnostic_quality_gates():
    sc = segment("cosine")
    bat = battery_for(sc.polytope)
    res = delta_diagnostic(sc.polytope, sc.generator, [1], [64, 256, 1024], bat)
    # spec'd quality gates for the shipped scenario
    assert res.fit.residual < 0.1
    assert res.fit.is_decreasing()
