"""The benchmark's three workloads: fixed operation lists with output checks.

Every operation calls the public API of ``toricray`` through module
attributes (``acceptance.ALL_CRITERIA``, ``limits.delta_diagnostic`` ...),
never through names copied into this module, so that the tracer's patches
reach every call.  An operation returns a flat dict of observed values;
``check`` compares it against the reference of that operation.

References are closed forms where they exist (Beta masses, affine tails,
plateau values, unit mass of a normalized density, the exact decomposition),
otherwise the criterion's stated band, otherwise a value recorded from the
code as shipped, compared within ``NEAR[dim]``: fifty times the package's
own density tolerance, the factor at which ``MonomialDensity`` itself
reports non-convergence.  Criteria 5, 6a and 8a are expected red
(``acceptance.KNOWN_UNATTAINABLE``); they pass here when they fail exactly
as recorded.
"""

from __future__ import annotations

import math

import numpy as np

# density-quadrature tolerances the operations must run at; a workload that
# leaves them changed (as an in-process ``--tol-override`` would) is wrong
EXPECTED_REL_TOL = {1: 1e-10, 2: 1e-6}
NEAR = {d: 50.0 * t for d, t in EXPECTED_REL_TOL.items()}
# recorded values of closed-form evaluators (no adaptive quadrature involved)
EXACT_REL = 1e-9

DELTA_S_GRID = (32, 64, 128, 256, 512, 1024, 2048, 4096)
WALL_SUM_S = (32, 512, 8192)
CORNER_EPS = (0.02, 0.04, 0.06)


def _criterion(cid):
    def op(ctx):
        from toricray import acceptance
        res = acceptance.ALL_CRITERIA[cid]()
        out = {"passed": bool(res.passed)}
        for key, val in res.details.items():
            out[key] = float(val) if isinstance(val, (float, np.floating)) \
                else val
        return out
    return op


def _delta_smooth(weighted):
    def op(ctx):
        from toricray import limits, scenarios
        sc = scenarios.segment("smooth")
        bat = limits.battery_for(sc.polytope)
        res = limits.delta_diagnostic(sc.polytope, sc.generator, [1],
                                      list(DELTA_S_GRID), bat,
                                      weighted=weighted)
        out = {"model": res.fit.model, "exponent": float(res.fit.exponent)}
        for s, err in zip(DELTA_S_GRID, res.fit.errors):
            out[f"err_s{s}"] = float(err)
        return out
    return op


def _wall_sum_density(s):
    def op(ctx):
        from toricray import limits, quantization, scenarios
        sc = scenarios.cp2_wall_sum("cosine")
        bat = limits.battery_for(sc.polytope)
        md = quantization.MonomialDensity(sc.polytope, sc.generator, [1, 1],
                                          float(s), weighted=False)
        out = {"log_mass": float(md.log_mass())}
        for t in bat:
            out[f"pair_{t.name}"] = float(md.pair(t))
        return out
    return op


def _corner_pl():
    from toricray import generators
    return generators.PLConvex([((0, 0), 0), ((1, 0), -1), ((0, 1), -1)])


def _corner_decompose(ctx):
    from toricray import scenarios, testconfig
    P = scenarios.cp2(3)
    f = _corner_pl()
    dec = testconfig.decompose(f, P)
    ctx["corner"] = (P, f, dec)
    ctx["family"] = {}
    return {"pieces": len(dec.subpolytopes),
            "vol_defect": str(dec.volume_defect()),
            "activity_exact": bool(dec.activity_consistency_exact()),
            "codims": str(sorted(F.codim for F in dec.faces))}


# points off every thickening W_eps (eps <= 0.06), where psi_eps equals f
_OFF_WALL = np.array([[0.3, 0.3], [2.0, 0.5], [0.5, 2.0], [1.6, 1.2]])


def _corner_build(eps):
    def op(ctx):
        from toricray import smoothing
        P, f, dec = ctx["corner"]
        gen = smoothing.build_nice_smoothing(f, P, dec, eps)
        ctx["family"][eps] = gen
        off = gen.value(_OFF_WALL)
        return {"off_wall_defect": float(np.max(np.abs(off - f.value(_OFF_WALL)))),
                "corner_value": float(gen.value(np.array([1.0, 1.0]))),
                "corner_hess_trace": float(np.trace(
                    gen.hessian(np.array([1.0, 1.0]))))}
    return op


def _corner_verify(ctx):
    from toricray import smoothing
    _, f, _ = ctx["corner"]
    rep = smoothing.verify_nice_family(f, ctx["family"])
    out = {"passed": bool(rep.passed)}
    for key, cond in sorted(rep.conditions.items()):
        out[f"{key}_passed"] = bool(cond.passed)
        out[f"{key}_worst"] = float(cond.worst)
    return out


# -- plans: the seed permutes operation order, never the operations -----------

def plan_ray1d(rng):
    ops = [(f"c{cid:02d}", _criterion(cid)) for cid in (1, 2, 3, 4, 5, 6, 7, 11)]
    ops += [("delta_smooth_bare", _delta_smooth(False)),
            ("delta_smooth_weighted", _delta_smooth(True))]
    rng.shuffle(ops)
    return ops


def plan_cp2_wall(rng):
    ops = [("c08", _criterion(8))]
    ops += [(f"wall_sum_s{s}", _wall_sum_density(s)) for s in WALL_SUM_S]
    rng.shuffle(ops)
    return ops


def plan_corner_family(rng):
    builds = [(f"corner_build_eps{e}", _corner_build(e)) for e in CORNER_EPS]
    rng.shuffle(builds)
    units = [[("corner_decompose", _corner_decompose), *builds,
              ("corner_verify", _corner_verify)],
             [("c09", _criterion(9))],
             [("c10", _criterion(10))]]
    rng.shuffle(units)
    return [op for unit in units for op in unit]


PLANS = {"ray1d": plan_ray1d, "cp2-wall": plan_cp2_wall,
         "corner-family": plan_corner_family}

# -- references ----------------------------------------------------------------

def _is(value):
    return ("is", value)


def _band(lo=None, hi=None):
    return ("band", lo, hi)


def _near(value, tol):
    return ("near", value, tol)


def _rel(value):
    return ("near", value, EXACT_REL * max(1.0, abs(value)))


WALL_SUM_RECORDED = {
    32: {"log_mass": 1.712477407922873,
         "pair_x1": 0.9999207160091363, "pair_x2": 0.9999207159776629,
         "pair_x1x1": 1.4358365027108422, "pair_x1x2": 0.7965537455849877,
         "pair_x2x2": 1.4358365026184037, "pair_cos_x1": 0.661335822737817,
         "pair_cos_x2": 0.6613358227576256, "pair_bump": 0.20392789700943198},
    512: {"log_mass": 24.47868182632851,
          "pair_x1": 1.000000000197548, "pair_x2": 1.000000000197548,
          "pair_x1x1": 1.0004278192354035, "pair_x1x2": 0.9999999962100229,
          "pair_x2x2": 1.0004278192354035, "pair_cos_x1": 0.7380579320256416,
          "pair_cos_x2": 0.738057932025642, "pair_bump": 0.3677217941864878},
    8192: {"log_mass": 478.4105401375036,
           "pair_x1": 1.0000000000032057, "pair_x2": 1.0000000000027394,
           "pair_x1x1": 1.000024525437408, "pair_x1x2": 1.0000000000059182,
           "pair_x2x2": 1.0000245254364715, "pair_cos_x1": 0.7381395219945805,
           "pair_cos_x2": 0.7381395219948143, "pair_bump": 0.3678704185478011},
}

REFERENCE = {
    # closed forms inside the criteria: Beta masses, affine tail, plateaus
    "c01": {"passed": _is(True), "worst_rel": _band(hi=1e-8)},
    "c02": {"passed": _is(True), "cosine": _band(hi=1e-10),
            "smooth": _band(hi=1e-8)},
    "c03": {"passed": _is(True), "worst": _band(hi=1e-10)},
    "c04": {"passed": _is(True),
            "bare_exponent": _band(0.8, 1.2), "weighted_exponent": _band(0.8, 1.2),
            "bare_final": _band(hi=1e-3), "weighted_final": _band(hi=1e-3)},
    "c07": {"passed": _is(True), "stasis": _is(0.0), "stasis_2d": _is(0.0),
            "real_rate_exponent": _band(0.9, 1.1),
            "mixed_limit_dist": _band(hi=1e-6)},
    "c11": {"passed": _is(True), "growth_exponent": _band(0.45, 0.55),
            "off_spread": _band(hi=1e-10), "circle_exponent": _band(0.45, 0.55)},
    "c09": {"passed": _is(True), "family": _is("pass"), "control_e": _is("fails")},
    "c10": {"passed": _is(True), "pieces": _is(4), "vol_defect": _is(0.0)},
    # exact combinatorics of f = max(0, x1 - 1, x2 - 1) on CP^2(3)
    "corner_decompose": {"pieces": _is(3), "vol_defect": _is("0"),
                         "activity_exact": _is(True),
                         "codims": _is("[1, 1, 1, 2]")},
    # expected red (KNOWN_UNATTAINABLE): reproduce the recorded failures
    "c05": {"passed": _is(False),
            **{f"n{n}_{v}_model": _is("power")
               for n in (0, 2) for v in ("bare", "weighted")},
            "n0_bare_final": _near(0.011741524752413829, NEAR[1]),
            "n0_weighted_final": _near(0.01049530421979708, NEAR[1]),
            "n2_bare_final": _near(0.03893099982213277, NEAR[1]),
            "n2_weighted_final": _near(0.03488339554520303, NEAR[1]),
            "n0_gap": _near(1.645590315466707e-12, NEAR[1]),
            "n2_gap": _near(1.645350522494482e-12, NEAR[1])},
    "c06": {"passed": _is(False),
            "component_err": _near(0.05525384146239887, NEAR[1]),
            "laplace_rel_err": _band(hi=0.02)},
    "c08": {"passed": _is(False),
            "uniform_err": _near(0.023554624011366432, NEAR[2]),
            "transverse_exponent": _band(0.8, 1.2),
            "face_final_err": _near(9.522219318158776e-06, NEAR[2])},
    # recorded battery errors; the limit is point evaluation at m = 1
    "delta_smooth_bare": {"model": _is("power"), **{
        f"err_s{s}": _near(e, NEAR[1]) for s, e in zip(DELTA_S_GRID, (
            0.005142535661949221, 0.0024317695377562565,
            0.0011961773794710862, 0.0005935814942199524,
            0.0002957083855372744, 0.00014758878867238145,
            7.372866489485652e-05, 3.684797835390441e-05))}},
    "delta_smooth_weighted": {"model": _is("power"), **{
        f"err_s{s}": _near(e, NEAR[1]) for s, e in zip(DELTA_S_GRID, (
            0.005079346526871253, 0.002425613965194584,
            0.0011947205780669101, 0.0005932261133567707,
            0.0002956205732491668, 0.0001475669607955421,
            7.372322335319481e-05, 3.684661987835014e-05))}},
    # bare wall-sum densities at (1, 1): unit mass is exact, the rest recorded
    **{f"wall_sum_s{s}": {"pair_one": _near(1.0, NEAR[2]), **{
        k: _near(v, NEAR[2]) for k, v in rec.items()}}
       for s, rec in WALL_SUM_RECORDED.items()},
    # psi_eps equals f off W_eps exactly; corner jets recorded
    **{f"corner_build_eps{e}": {"off_wall_defect": _is(0.0),
                                "corner_value": _rel(v),
                                "corner_hess_trace": _rel(h)}
       for e, v, h in ((0.02, 0.0012392968919874574, 380.176908815823),
                       (0.04, 0.002478593783974915, 190.08845440791157),
                       (0.06, 0.0037178906759623752, 126.72563627194097))},
    "corner_verify": {"passed": _is(True),
                      **{f"{k}_passed": _is(True) for k in "abcde"},
                      "a_worst": _band(lo=-1e-10), "c_worst": _band(hi=1e-12),
                      "b_worst": _rel(0.0025818685249684907),
                      "d_worst": _rel(36.65737250268417), "e_worst": _is(0.0)},
}


def check(name, observed):
    """List of human-readable problems; empty when the output is correct."""
    ref = REFERENCE.get(name)
    if ref is None:
        return [f"{name}: no reference"]
    problems = []
    for key, spec in ref.items():
        if key not in observed:
            problems.append(f"{name}.{key}: missing")
            continue
        got = observed[key]
        kind = spec[0]
        if kind == "is":
            ok = got == spec[1] and type(got) is type(spec[1])
        elif kind == "band":
            lo, hi = spec[1], spec[2]
            ok = (isinstance(got, float) and math.isfinite(got)
                  and (lo is None or got >= lo) and (hi is None or got <= hi))
        else:
            ok = isinstance(got, float) and abs(got - spec[1]) <= spec[2]
        if not ok:
            problems.append(f"{name}.{key}: got {got!r}, want {spec!r}")
    return problems
