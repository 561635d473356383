"""Command-line experiment runner.

Subcommands reproduce the library's verification checks and emit figure
data as CSV (comma separator, dot decimal, header row, LF endings, values
printed with 17 significant digits so reruns are byte-identical).  Exit
codes: 0 all checks pass, 1 a check failed, 2 bad input or an integral that
missed its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import scenarios
from ._exact import integer_vector
from .acceptance import ALL_CRITERIA, run_acceptance
from .generators import BumpSpec, PLConvex, build_bump_generator, build_wall_sum
from .limits import battery_for, fit_rate, metric_length
from .polytope import MEMBERSHIP_TOL, parse_polytope
from .quadrature import QuadratureError
from .quantization import density_family, gcst_image, pair_densities
from .smoothing import build_nice_smoothing, verify_nice_family
from .testconfig import build_Q, central_fiber_report, decompose

__all__ = ["main"]


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


def _write_csv(path, header, rows, comment=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def _load_json_arg(arg):
    """Accept inline JSON, a file path, or builtin:<scenario-name>."""
    if arg.startswith("builtin:"):
        return arg
    if arg.lstrip()[:1] in ("{", "["):
        return json.loads(arg)
    with open(arg) as fh:
        return json.load(fh)


def _capped(s_grid, max_s):
    """The s values of ``s_grid`` at most ``max_s``, of which there must be
    one."""
    kept = [s for s in s_grid if s <= max_s]
    if not kept:
        raise ValueError(f"no s of the grid {list(s_grid)} is at most "
                         f"--max-s {max_s:g}")
    return kept


def _typed(value, kind, what):
    """``value``, or ValueError "<what>, not <value>" unless it is a kind."""
    if not isinstance(value, kind):
        raise ValueError(f"{what}, not {value!r}")
    return value


def _bump(spec, center) -> BumpSpec:
    """The BumpSpec of a bump or wall object centred at ``center``."""
    size = [center, spec["alpha"], spec["A"]]
    if any(type(v) not in (int, float, str) for v in size):
        raise ValueError(f"a bump's center, alpha and A must be numbers, "
                         f"not {size}")
    return BumpSpec(*map(float, size), spec.get("kernel", "cosine"))


def _build_generator(spec, P):
    kind = _typed(spec, dict, "a generator must be an object").get("kind")
    if kind == "bumps":
        bumps = [_bump(_typed(b, dict, "a bump must be an object"), b["m"])
                 for b in _typed(spec["bumps"], list,
                                 "bumps must be an array")]
        return build_bump_generator(P, bumps)
    if kind == "wall-sum":
        walls = []
        for w in _typed(spec["walls"], list, "walls must be an array"):
            normal = _typed(_typed(w, dict, "a wall must be an object")[
                "normal"], list, "a wall's normal must be an array")
            walls.append((integer_vector(normal),
                          _bump(w, float(Fraction(str(w["c"]))))))
        return build_wall_sum(P, walls)
    if kind == "pl-smooth":
        f = _build_pl(spec)
        dec = decompose(f, P)
        return build_nice_smoothing(
            f, P, dec, float(Fraction(str(spec["epsilon"]))),
            kernel=spec.get("kernel", "smooth"),
            variant=spec.get("variant", "nice"))
    raise ValueError(f"unknown generator kind {kind!r}")


def _build_pl(spec) -> PLConvex:
    pieces = []
    for p in _typed(_typed(spec, dict, "a PL spec must be an object")[
            "pieces"], list, "pieces must be an array"):
        g = _typed(_typed(p, dict, "a piece must be an object")["g"], list,
                   "a piece's g must be an array")
        pieces.append((tuple(Fraction(str(c)) for c in g),
                       Fraction(str(p["b"]))))
    return PLConvex(pieces)


def _load_scenario(arg, polytope=None):
    """The scenario of inline JSON, a path or builtin:<name>, which must
    carry a generator.  Given ``polytope`` (a spec, inline JSON or a path),
    an object without a polytope is a bare generator spec on it."""
    data = _load_json_arg(arg)
    if isinstance(data, str) and data.startswith("builtin:"):
        sc = scenarios.get_scenario(data)
    else:
        if "polytope" not in _typed(data, dict,
                                    "a scenario must be an object"):
            if polytope is None:
                raise ValueError("need --polytope with a bare generator spec")
            data = {"polytope": polytope, "generator": data}
        spec = data["polytope"]
        P = parse_polytope(_load_json_arg(spec) if isinstance(spec, str)
                           else spec)
        s_grid = data.get("s_grid", [32, 128, 512, 2048])
        if not (isinstance(s_grid, list) and all(
                type(s) in (int, float) and s > 0 for s in s_grid)
                and s_grid == sorted(set(s_grid))):
            raise ValueError("s_grid must be increasing positive numbers")
        sc = scenarios.Scenario(
            name=data.get("name", "custom"),
            polytope=P,
            generator=_build_generator(data["generator"], P)
            if "generator" in data else None,
            s_grid=tuple(s_grid),
            lattice_points=tuple(integer_vector(_typed(
                m, (list, tuple), "a lattice point must be an array"))
                for m in _typed(data.get("lattice_points",
                                         P.integral_points()),
                                list, "lattice_points must be an array")))
    if sc.generator is None:
        raise ValueError("scenario carries no generator")
    return sc


def cmd_profile(args) -> int:
    sc = _load_scenario(args.generator, polytope=args.polytope)
    gen, P = sc.generator, sc.polytope
    if P.dim != 1:
        print("profile emits 1-D data; use a segment scenario", file=sys.stderr)
        return 2
    lo, hi = P.bbox()
    xs = np.linspace(float(lo[0]), float(hi[0]), args.samples)
    d0, d1, d2 = gen.jet(xs[:, None], 2)
    path = _write_csv(
        args.output, ["x", "d2psi", "dpsi", "psi"],
        zip(xs, d2[:, 0, 0], d1[:, 0], d0),
        comment="gnuplot: plot 'profile.csv' every ::1 using 1:4 with lines")
    print(f"wrote {path}")
    return 0


def cmd_ray_density(args) -> int:
    sc = _load_scenario(args.scenario)
    P = sc.polytope
    outdir = Path(args.output)
    bat = battery_for(P)
    s_grid = _capped(sc.s_grid, args.max_s)
    axes = [np.linspace(float(a), float(b), 513 if P.dim == 1 else 65)
            for a, b in zip(*P.bbox())]
    grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, P.dim)
    grid = grid[P.contains(grid, tol=MEMBERSHIP_TOL)]
    for m in sc.lattice_points:
        tag = "-".join(str(int(c)) for c in m)
        family = density_family(P, sc.generator,
                                [(list(m), float(s), not args.bare)
                                 for s in s_grid])
        pairs, _ = pair_densities(family, bat)
        for s, md in zip(s_grid, family):
            logd = md.log_density(grid)
            dens = md.normalized(grid)
            rows = [tuple(x) + (ld, d)
                    for x, ld, d in zip(grid, logd, dens)]
            _write_csv(outdir / f"density_m{tag}_s{_fmt(s)}.csv",
                       [f"x{i + 1}" for i in range(P.dim)]
                       + ["log_density", "density_normalized"], rows)
        _write_csv(outdir / f"pairings_m{tag}.csv",
                   ["s"] + [t.name for t in bat],
                   [(s, *row) for s, row in zip(s_grid, pairs)])
    print(f"wrote densities for {len(sc.lattice_points)} lattice points "
          f"under {outdir}")
    return 0


def cmd_gcst(args) -> int:
    sc = _load_scenario(args.scenario)
    P = sc.polytope
    bat = battery_for(P)
    rows = []
    s_grid = _capped(sc.s_grid, args.max_s)
    for m in sc.lattice_points:
        family = density_family(P, sc.generator,
                                [(list(m), float(s), True) for s in s_grid])
        images = [gcst_image(md) for md in family]
        pairs, _ = pair_densities(family, bat)
        for s, img, row in zip(s_grid, images, pairs):
            rows.append(tuple(m) + (s, img.coefficient)
                        + tuple(row * img.gap_mass))
    path = _write_csv(
        Path(args.output) / "gcst.csv",
        [f"m{i + 1}" for i in range(P.dim)] + ["s", "coefficient"]
        + [f"pair_{t.name}" for t in bat], rows)
    print(f"wrote {path}")
    return 0


def cmd_decompose(args) -> int:
    P = parse_polytope(_load_json_arg(args.polytope))
    f = _build_pl(_load_json_arg(args.pl))
    dec = decompose(f, P)
    report = {
        "subpolytopes": [
            {"piece": i,
             "vertices": [[str(c) for c in v] for v in Q.vertices],
             "delzant": Q.delzant_ok}
            for i, Q in dec.subpolytopes],
        "faces": [
            {"codim": F.codim, "active": sorted(F.active),
             "normals": [list(nu) for nu in F.normals],
             "offsets": [str(c) for c in F.offsets],
             "frame": [list(r) for r in F.frame.matrix] if F.frame else None,
             "frame_error": F.frame_error}
            for F in dec.faces],
        "volume_defect": str(dec.volume_defect()),
    }
    if args.ceiling is not None:
        q = build_Q(f, P, Fraction(str(args.ceiling)))
        report["Q_vertices"] = [[str(c) for c in v] for v in q.vertices]
        report["Q_integral"] = q.integral
        print(central_fiber_report(dec, q).as_text())
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{len(dec.subpolytopes)} sub-polytopes, "
          f"{len(dec.faces)} faces; wrote {out}")
    return 0


def cmd_smooth(args) -> int:
    P = parse_polytope(_load_json_arg(args.polytope))
    f = _build_pl(_load_json_arg(args.pl))
    dec = decompose(f, P)
    eps_list = [float(Fraction(e)) for e in args.eps]
    gens = {e: build_nice_smoothing(f, P, dec, e, kernel=args.kernel,
                                    variant=args.variant)
            for e in eps_list}
    if len(gens) >= 2:
        rep = verify_nice_family(f, gens)
        print(rep.as_text())
        ok = rep.passed
    else:
        ok = True
    # transect through the first face for plotting
    face = dec.faces[0]
    if face.frame is not None and args.output:
        fr = face.frame
        c = float(fr.offsets_np[0])
        base = face.barycenter()
        ts = np.linspace(-3 * max(eps_list), 3 * max(eps_list), 401)
        w = fr.shift_vectors()[:, 0]
        pts = base[None, :] + ts[:, None] * w[None, :]
        rows = []
        for e in eps_list:
            vals = gens[e].value(pts)
            for t, v, x in zip(ts, vals, pts):
                rows.append((e, c + t, v, f.value(x)))
        path = _write_csv(Path(args.output), ["eps", "transverse", "psi", "f"],
                          rows)
        print(f"wrote {path}")
    return 0 if ok else 1


def cmd_metric(args) -> int:
    sc = _load_scenario(args.scenario)
    if sc.polytope.dim != 1:
        print("metric subcommand ships 1-D paths; use a segment scenario",
              file=sys.stderr)
        return 2
    P, gen = sc.polytope, sc.generator
    s_grid = _capped((100.0, 316.0, 1000.0, 3162.0, 10000.0), args.max_s)
    slabs = list(gen.support)
    lo, hi = (float(P.bbox()[0][0]), float(P.bbox()[1][0]))
    if slabs:
        _, a, b = slabs[0]
        xpath = [((max(lo + 0.05, a - 0.25),), (0.0,)),
                 ((min(hi - 0.05, b + 0.25),), (0.0,))]
        center = 0.5 * (a + b)
    else:
        xpath = [((lo + 0.1,), (0.0,)), ((hi - 0.1,), (0.0,))]
        center = 0.5 * (lo + hi)
    crossing = metric_length(P, gen, s_grid, xpath).tolist()
    circle = metric_length(P, gen, s_grid, [
        ((center,), (0.0,)), ((center,), (2 * math.pi,))]).tolist()
    rows = list(zip(s_grid, crossing, circle))
    path = _write_csv(Path(args.output), ["s", "crossing_length",
                                          "circle_length"], rows)
    fit_x = fit_rate(s_grid, [r[1] for r in rows])
    fit_c = fit_rate(s_grid, [r[2] for r in rows])
    print(f"crossing growth exponent {-fit_x.exponent:.3f}; "
          f"circle decay exponent {fit_c.exponent:.3f}; wrote {path}")
    return 0


def cmd_verify(args) -> int:
    ids = None
    if args.only:
        ids = sorted({int(tok) for tok in args.only.split(",")})
        unknown = [i for i in ids if i not in ALL_CRITERIA]
        if unknown:
            print(f"unknown criteria {unknown}", file=sys.stderr)
            return 2
    results = run_acceptance(ids)
    for r in results:
        print(r.as_line())
    failed = [r.cid for r in results if not r.passed]
    if failed:
        print(json.dumps({"failed": failed}))
        return 1
    print("all criteria passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="toricray",
        description="Mabuchi-ray experiments on toric polytopes")
    ap.add_argument("--max-s", type=float, default=1e4,
                    help="cap applied to scenario s grids")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="sample psi'', psi', psi to CSV")
    p.add_argument("--generator", required=True,
                   help="generator spec JSON, path, or builtin:<scenario>")
    p.add_argument("--polytope", help="polytope spec (not needed for builtins)")
    p.add_argument("--samples", type=int, default=801)
    p.add_argument("-o", "--output", default="profile.csv")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("ray-density", help="density grids and battery pairings")
    p.add_argument("--scenario", required=True)
    p.add_argument("--bare", action="store_true",
                   help="drop the base weight (distributional-limit variant)")
    p.add_argument("-o", "--output", default="out")
    p.set_defaults(func=cmd_ray_density)

    p = sub.add_parser("gcst", help="coherent-state-transform coefficients")
    p.add_argument("--scenario", required=True)
    p.add_argument("-o", "--output", default="out")
    p.set_defaults(func=cmd_gcst)

    p = sub.add_parser("decompose", help="PL decomposition, faces, Q polytope")
    p.add_argument("--polytope", required=True)
    p.add_argument("--pl", required=True, help="PL spec JSON or path")
    p.add_argument("--ceiling", help="ceiling constant K for the Q polytope")
    p.add_argument("-o", "--output", default="decomposition.json")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("smooth", help="build and verify nice smoothings")
    p.add_argument("--polytope", required=True)
    p.add_argument("--pl", required=True)
    p.add_argument("--eps", nargs="+", required=True)
    p.add_argument("--kernel", default="smooth", choices=["smooth", "cosine"])
    p.add_argument("--variant", default="nice", choices=["nice", "strict"])
    p.add_argument("-o", "--output", default="smoothing.csv")
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("metric", help="path lengths along the ray")
    p.add_argument("--scenario", required=True)
    p.add_argument("-o", "--output", default="metric.csv")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="comma-separated criterion ids")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            QuadratureError, NotImplementedError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
