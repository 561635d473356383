"""Monomial densities, norms, and transform coefficients."""

import math

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from toricray import quadrature
from toricray.generators import BumpSpec, Generator, build_bump_generator
from toricray.polytope import make_polytope
from toricray.scenarios import cp2_wall_sum
from toricray.quadrature import integrate_1d
from toricray.quantization import (MonomialDensity, QuantizationError,
                                   base_log_weight, basis_census, gcst_image,
                                   l1_norm, normalized_density, ray_rate,
                                   rate_gap)


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


def test_gcst_scalar_density_monotone_in_s():
    P = segment()
    gen = bump_gen(P)
    xs = np.linspace(0.05, 1.95, 25)[:, None]
    prev = None
    for s in (0.0, 2.0, 8.0, 32.0):
        md = MonomialDensity(P, gen, [1], s)
        vals = gcst_image(md).log_scalar_density(xs)
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


def test_nonconvergence_reports_panel_count(monkeypatch):
    # eight panels per integral cannot resolve the s = 8192 peak (ten do);
    # MonomialDensity judges the engine's own error estimate
    sc = cp2_wall_sum("cosine")
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    md = MonomialDensity(sc.polytope, sc.generator, [1, 1], 8192.0,
                         weighted=False)
    with pytest.raises(QuantizationError,
                       match=r"at \d+ panels, with a budget of 8 panels "
                             r"per integral"):
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
