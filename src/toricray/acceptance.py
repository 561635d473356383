"""Verification suite: every shipped claim as a pass/fail check.

Each criterion is a function returning a CheckResult with the measured
quantities pinned against its stated tolerance.  ``run_acceptance`` runs a
selection and is what both the CLI ``verify`` subcommand and the pytest
acceptance module call.

Three checks (5, 6a inside 6, 8a inside 8) encode gap-exponential limit
rates.  The implemented geometry does not satisfy them: the rate gap of a
compactly supported C^1-or-smoother bump vanishes continuously at the edge
of each flat component, so the mass in the boundary layer decays like a
power of s (s^(-1/3) for the cosine kernel) or like 1/log(s) (smooth
kernel), never exponentially.  The checks are kept as stated and report
honest failures; see the sibling tests for the measured laws.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import scenarios
from .generators import BumpSpec, PLConvex, build_bump_generator
from .limits import (DiagnosticCase, battery_for, delta_case, diagnose,
                     distance_to_real, face_delta_case, fit_rate,
                     metric_length, mixed_limit_frame, polarization_distance,
                     polarization_frame, ray_polarization, region_mean,
                     uniform_case)
from .polytope import make_polytope
from .potentials import ray_jet
from .quantization import (base_log_weight, density_family, gcst_image,
                           pair_densities, ray_rate)
from .quadrature import integrate_polytope, pair_all
from .smoothing import build_nice_smoothing, verify_nice_family
from .testconfig import build_Q

__all__ = ["CheckResult", "run_acceptance", "ALL_CRITERIA"]

# criterion bounds below 1e-8, each a target of its criterion
# c02: the cosine bump's affine tail, max |psi - A(x - m)| beyond the support
C02_COSINE_BAND = 1e-10
# c03: the rate against its stacked value on every gap component
C03_PLATEAU_BAND = 1e-10
# c06: the relative tolerance of the restricted limit's rule
C06_LIMIT_REL_TOL = 1e-12
# c10: |sum of the pieces' volumes - vol P|
C10_VOLUME_DEFECT = 1e-9
# c11: the spread over s of a path length off the support
C11_OFF_SPREAD = 1e-10


@dataclass
class CheckResult:
    cid: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)
    note: str = ""
    runtime: float = 0.0        # set by run_acceptance

    def as_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in self.details.items())
        line = f"[{mark}] {self.cid:2d} {self.title} ({self.runtime:.2f}s)"
        if extras:
            line += f"  {extras}"
        if self.note:
            line += f"  -- {self.note}"
        return line


def c01_beta_norm_oracle() -> CheckResult:
    """s = 0 density masses against the Beta-integral closed form."""
    worst = 0.0
    for N in (1, 2, 3):
        P = make_polytope([[1], [-1]], [0, -N])
        gen = build_bump_generator(P, [])
        for n, md in enumerate(density_family(
                P, gen, [([n], 0.0, True) for n in range(N + 1)])):
            a, b = n / 2 + 1, (N - n) / 2 + 1
            target = math.log(N ** (N / 2 + 1) * math.gamma(a)
                              * math.gamma(b) / math.gamma(a + b))
            rel = abs(math.expm1(md.log_mass() - target))
            worst = max(worst, rel)
    return CheckResult(1, "Beta-norm oracle for s=0 masses", worst <= 1e-8,
                       {"worst_rel": worst})


def c02_affine_tail() -> CheckResult:
    """Single even bump: psi(x) = A(x - m) exactly beyond the support."""
    P = make_polytope([[1], [-1]], [0, -2])
    worst = {}
    ok = True
    for kernel, tol in (("cosine", C02_COSINE_BAND), ("smooth", 1e-8)):
        gen = build_bump_generator(P, [BumpSpec(1.0, 0.25, 1.0, kernel)])
        xs = np.linspace(1.25, 2.0, 200)
        err = float(np.max(np.abs(gen.psi(xs) - 1.0 * (xs - 1.0))))
        worst[kernel] = err
        ok = ok and err <= tol
    return CheckResult(2, "affine tail identity psi = A(x-m) off support", ok,
                       {"cosine": worst["cosine"], "smooth": worst["smooth"]})


def c03_gap_plateau_values() -> CheckResult:
    """Three bumps: rate function constant on each gap with the stacked value."""
    sc = scenarios.three_bumps("cosine")
    gen = sc.generator
    comps = gen.components()
    masses = [b.eff_mass for b in gen.bumps]
    centers = [b.spec.center for b in gen.bumps]
    worst = 0.0
    # the rate at every lattice point from one jet per component
    ns = np.arange(6.0)[:, None]
    for l, (a, b) in enumerate(comps):
        expected = sum((centers[j] - ns) * masses[j] for j in range(l))
        got = ray_rate(gen, ns, np.linspace(a, b, 100)[:, None])
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return CheckResult(3, "stacked rate values on all gap components",
                       worst <= C03_PLATEAU_BAND, {"worst": worst})


def c04_delta_convergence() -> CheckResult:
    """Concentration at an interior-support lattice point, both variants."""
    sc = scenarios.segment("cosine")
    bat = battery_for(sc.polytope)
    s_grid = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    labels = ("bare", "weighted")
    details = {}
    ok = True
    for label, res in zip(labels, diagnose(sc.polytope, sc.generator, [
            delta_case([1], s_grid, bat, weighted=label == "weighted")
            for label in labels])):
        fit = res.fit
        good = (fit.is_decreasing()
                and fit.model == "power"
                and 0.8 <= fit.exponent <= 1.2
                and fit.errors[-1] <= 1e-3)
        details[f"{label}_exponent"] = fit.exponent
        details[f"{label}_final"] = float(fit.errors[-1])
        ok = ok and good
    return CheckResult(4, "delta convergence at interior support point", ok,
                       details)


def c05_uniform_convergence() -> CheckResult:
    """Flattening on the gap components with gap-exponential target rate."""
    sc = scenarios.segment("cosine")
    bat = battery_for(sc.polytope)
    s_grid = [32, 64, 128, 256, 512, 1024, 2048, 4096]
    keys = [(n, region_key, label) for n, region_key in ((0, "P1"), (2, "P2"))
            for label in ("bare", "weighted")]
    details = {}
    ok = True
    for (n, _, label), res in zip(keys, diagnose(sc.polytope, sc.generator, [
            uniform_case(sc.polytope, [n], s_grid, bat, sc.regions[key],
                         weighted=label == "weighted")
            for n, key, label in keys])):
        fit = res.fit
        good = (fit.model == "exponential"
                and fit.aux.get("gap_match", False)
                and fit.errors[-1] <= 1e-8)
        details[f"n{n}_{label}_model"] = fit.model
        details[f"n{n}_{label}_final"] = float(fit.errors[-1])
        if label == "bare":
            details[f"n{n}_gap"] = fit.aux.get("gap", float("nan"))
        ok = ok and good
    return CheckResult(
        5, "uniform convergence with gap-exponential rate", ok, details,
        note="" if ok else "component-edge boundary layer decays as a power "
        "of s; exponential target unattainable (see notes)")


def c06_gcst_limits() -> CheckResult:
    """Transform limits: restriction on a gap component, Laplace at center."""
    sc = scenarios.corrected_segment("cosine")
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    details = {}

    # the limit: e^(-h) restricted to P1, one rule for every member; at
    # x = -1/2, the facet P1 shares with P, e^(-h) is ell_0^(ell_0(0)/2)
    # = ell_0^(1/4) times a smooth function
    restricted = integrate_polytope(
        lambda X: np.exp(-base_log_weight(P, [0], X)), sc.regions["P1"],
        exponents=[[P.ell_exact([0], 0) / 2, 0]], rel_tol=C06_LIMIT_REL_TOL)
    limits = pair_all([(restricted, t) for t in bat])

    # the densities at m = 0 and 1 are one family, paired in one batch
    family = density_family(P, gen, [([0], 4096.0, True),
                                     ([1], 4096.0, True)])
    img, img1 = (gcst_image(md) for md in family)
    pairs = pair_densities(family, bat)[0].tolist()
    err_a = max(abs(v * img.gap_mass - limit)
                for v, (limit, _) in zip(pairs[0], limits))
    ok_a = err_a <= 1e-6
    details["component_err"] = err_a

    n = np.array([1.0])
    h0_n = float(base_log_weight(P, n, n[None, :])[0])
    psi2 = float(gen.hessian(n[None, :])[0, 0, 0])
    ref = math.exp(-h0_n) * math.sqrt(2 * math.pi / psi2)
    err_b = max(abs(math.sqrt(4096.0) * (v * img1.gap_mass)
                    - ref * float(t(n[None, :])[0])) / ref
                for v, t in zip(pairs[1], bat))
    ok_b = err_b <= 0.02
    details["laplace_rel_err"] = err_b

    note = ""
    if not ok_a:
        note = ("support-edge boundary layer decays as s^(-1/3); "
                "1e-6 target unattainable (see notes)")
    return CheckResult(6, "coherent-state-transform limits", ok_a and ok_b,
                       details, note=note)


def c07_polarization() -> CheckResult:
    """Stasis off the support, 1/s approach to the real plane, mixed limit."""
    details = {}
    sc = scenarios.segment("cosine")
    P, gen = sc.polytope, sc.generator
    stasis_grid = [0.0, 1.0, 10.0, 100.0]
    f0, *fs = ray_polarization(P, gen, stasis_grid, np.array([0.25]))
    stasis = max(polarization_distance(f, f0) for f in fs)
    ok_stasis = stasis == 0.0
    details["stasis"] = stasis

    s_grid = np.array([32, 64, 128, 256, 512, 1024, 2048, 4096], dtype=float)
    dists = [distance_to_real(G)
             for G in ray_jet(P, gen, s_grid, np.array([1.0])).hessian]
    fit = fit_rate(s_grid, dists)
    ok_rate = fit.model == "power" and 0.9 <= fit.exponent <= 1.1
    details["real_rate_exponent"] = fit.exponent

    ws = scenarios.cp2_wall_sum("cosine")
    x = np.array([1.0, 0.8])
    G0, G_far = ray_jet(ws.polytope, ws.generator, [0.0, 1e8], x).hessian
    ref = mixed_limit_frame(G0, [[1.0, 0.0]], [[0.0, 1.0]])
    mixed = polarization_distance(polarization_frame(G_far), ref)
    ok_mixed = mixed <= 1e-6
    details["mixed_limit_dist"] = mixed

    f0w, *fsw = ray_polarization(ws.polytope, ws.generator, stasis_grid,
                                 np.array([0.4, 0.4]))
    stasis2 = max(polarization_distance(f, f0w) for f in fsw)
    ok_stasis = ok_stasis and stasis2 == 0.0
    details["stasis_2d"] = stasis2

    return CheckResult(7, "polarization stasis, rate, and mixed limit",
                       ok_stasis and ok_rate and ok_mixed, details)


def c08_higher_dim_localization() -> CheckResult:
    """CP^2 wall scenario: component flattening and on-wall localization."""
    sc = scenarios.cp2_wall()
    P, gen = sc.polytope, sc.generator
    bat = battery_for(P)
    details = {}

    # the uniform limit on P2 minus the wall at one s, and the localization
    # on the wall, as one family and one batch of pairings
    uniform = DiagnosticCase([2, 0], [2048.0], bat, dict(zip(
        [t.name for t in bat], region_mean(sc.regions["P2_minus_W"], bat))),
        weighted=False)
    frame = sc.decomposition.faces[0].frame
    sep = [
        ("perp", lambda t: t, lambda u: np.ones_like(u)),
        ("par", lambda t: np.ones_like(t), lambda u: u),
        ("prod", lambda t: t * t, lambda u: np.cos(u)),
    ]
    # window past the e^(-s psi_eps(m)) transient, which dies near s ~ 700
    face = face_delta_case(P, [1, 1], [1024, 2048, 4096, 8192], frame, sep,
                           weighted=False)
    res_a, res = diagnose(P, gen, [uniform, face])
    err_a = float(res_a.fit.errors[0])
    ok_a = err_a <= 1e-4
    details["uniform_err"] = err_a

    ok_b = res.fit.model == "power" and 0.8 <= res.fit.exponent <= 1.2
    details["transverse_exponent"] = res.fit.exponent
    details["face_final_err"] = float(res.fit.errors[-1])

    note = ""
    if not ok_a:
        note = ("slab boundary layer of the smooth mollifier decays like "
                "1/log(s); 1e-4 target unattainable (see notes)")
    return CheckResult(8, "higher-dimensional localization", ok_a and ok_b,
                       details, note=note)


def c09_nice_family() -> CheckResult:
    """Shipped smoothing family passes a-e; strict control fails e only."""
    sc = scenarios.cp2_wall()
    f, P, dec = sc.pl, sc.polytope, sc.decomposition
    fam = {e: build_nice_smoothing(f, P, dec, e) for e in sc.family_eps}
    rep = verify_nice_family(f, fam)
    neg = {e: build_nice_smoothing(f, P, dec, e, variant="strict")
           for e in sc.family_eps}
    rep_neg = verify_nice_family(f, neg)
    ok = (rep.passed
          and not rep_neg.conditions["e"].passed
          and all(rep_neg.conditions[k].passed for k in "abcd"))
    details = {"family": "pass" if rep.passed else "FAIL",
               "control_e": "fails" if not rep_neg.conditions["e"].passed
               else "PASSES (bad)"}
    return CheckResult(9, "nice-family conditions and strict negative control",
                       ok, details)


def c10_decomposition_q() -> CheckResult:
    """Two-wall decomposition count/volumes and test-configuration vertices."""
    sc = scenarios.cp2_two_walls()
    dec = sc.decomposition
    ok = len(dec.subpolytopes) == 4
    defect = abs(float(dec.volume_defect()))
    ok = (ok and defect <= C10_VOLUME_DEFECT
          and dec.activity_consistency_exact())

    seg = make_polytope([[1], [-1]], [0, -2])
    f = PLConvex([((0,), 0), ((1,), -1)])
    q = build_Q(f, seg, 1)
    expected = {(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
                (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1))}
    ok = ok and set(q.vertices) == expected and q.integral

    prism = build_Q(PLConvex([((0,), 0)]), seg, 1)
    expected_prism = {(Fraction(0), Fraction(0)), (Fraction(2), Fraction(0)),
                      (Fraction(0), Fraction(1)), (Fraction(2), Fraction(1))}
    ok = ok and set(prism.vertices) == expected_prism
    return CheckResult(10, "decomposition and test-configuration polytope", ok,
                       {"pieces": len(dec.subpolytopes), "vol_defect": defect})


def c11_metric_degeneration() -> CheckResult:
    """sqrt(s) stretching across the bump, stasis off it, shrinking circles."""
    sc = scenarios.segment("cosine")
    P, gen = sc.polytope, sc.generator
    s_grid = np.array([100.0, 316.0, 1000.0, 3162.0, 10000.0])
    across = metric_length(P, gen, s_grid,
                           [((0.5,), (0.0,)), ((1.5,), (0.0,))])
    fit_g = fit_rate(s_grid, across)
    growth = -fit_g.exponent
    ok = fit_g.model == "power" and abs(growth - 0.5) <= 0.05

    off = metric_length(P, gen, [0.0, 100.0, 10000.0],
                        [((0.1,), (0.0,)), ((0.45,), (0.0,))]).tolist()
    spread = max(off) - min(off)
    ok = ok and spread <= C11_OFF_SPREAD

    circ = metric_length(P, gen, s_grid,
                         [((1.0,), (0.0,)), ((1.0,), (2 * math.pi,))])
    fit_c = fit_rate(s_grid, circ)
    ok = ok and fit_c.model == "power" and abs(fit_c.exponent - 0.5) <= 0.05
    return CheckResult(11, "metric stretching and collapse rates", ok,
                       {"growth_exponent": growth, "off_spread": spread,
                        "circle_exponent": fit_c.exponent})


ALL_CRITERIA = {
    1: c01_beta_norm_oracle,
    2: c02_affine_tail,
    3: c03_gap_plateau_values,
    4: c04_delta_convergence,
    5: c05_uniform_convergence,
    6: c06_gcst_limits,
    7: c07_polarization,
    8: c08_higher_dim_localization,
    9: c09_nice_family,
    10: c10_decomposition_q,
    11: c11_metric_degeneration,
}

# criteria whose stated rate targets the implemented geometry cannot meet;
# they run and report honestly (see module docstring and the package notes)
KNOWN_UNATTAINABLE = (5, 6, 8)


def run_acceptance(ids=None):
    """Run the selected criteria in order, timing each one."""
    results = []
    for cid in sorted(ALL_CRITERIA) if ids is None else sorted(ids):
        t0 = time.perf_counter()
        result = ALL_CRITERIA[cid]()
        result.runtime = time.perf_counter() - t0
        results.append(result)
    return results
