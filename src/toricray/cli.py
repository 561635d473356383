"""Command-line experiment runner.

Subcommands reproduce the library's verification checks and emit figure
data as CSV (comma separator, dot decimal, header row, LF endings, values
printed with 17 significant digits so reruns are byte-identical).  Exit
codes: 0 all checks pass, 1 a check failed, 2 bad input.
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
from .acceptance import ALL_CRITERIA, run_acceptance
from .generators import BumpSpec, PLConvex, build_bump_generator, build_wall_sum
from .limits import battery_for, fit_rate, metric_length
from .polytope import parse_polytope
from .quantization import MonomialDensity, gcst_image
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
    if arg.strip().startswith("{"):
        return json.loads(arg)
    with open(arg) as fh:
        return json.load(fh)


def _build_generator(spec, P):
    kind = spec.get("kind")
    if kind == "bumps":
        bumps = [BumpSpec(float(b["m"]), float(b["alpha"]), float(b["A"]),
                          b.get("kernel", "cosine")) for b in spec["bumps"]]
        return build_bump_generator(P, bumps)
    if kind == "wall-sum":
        walls = []
        for w in spec["walls"]:
            bump = BumpSpec(float(Fraction(str(w["c"]))), float(w["alpha"]),
                            float(w["A"]), w.get("kernel", "cosine"))
            walls.append((tuple(int(c) for c in w["normal"]), bump))
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
    pieces = [(tuple(Fraction(str(c)) for c in p["g"]), Fraction(str(p["b"])))
              for p in spec["pieces"]]
    return PLConvex(pieces)


def _load_scenario(arg):
    data = _load_json_arg(arg)
    if isinstance(data, str) and data.startswith("builtin:"):
        return scenarios.get_scenario(data)
    P = parse_polytope(data["polytope"]) if isinstance(data["polytope"], dict) \
        else parse_polytope(_load_json_arg(data["polytope"]))
    s_grid = tuple(data.get("s_grid", (32, 128, 512, 2048)))
    if any(s <= 0 for s in s_grid) or list(s_grid) != sorted(set(s_grid)):
        raise ValueError("scenario s_grid must be positive and increasing")
    sc = scenarios.Scenario(
        name=data.get("name", "custom"),
        polytope=P,
        generator=_build_generator(data["generator"], P)
        if "generator" in data else None,
        s_grid=s_grid,
        lattice_points=tuple(tuple(m) for m in data.get(
            "lattice_points", [list(p) for p in P.integral_points()])))
    return sc


def cmd_profile(args) -> int:
    data = _load_json_arg(args.generator)
    if isinstance(data, str) and data.startswith("builtin:"):
        sc = scenarios.get_scenario(data)
        gen, P = sc.generator, sc.polytope
    elif isinstance(data, dict) and "polytope" in data:
        P = parse_polytope(data["polytope"])
        gen = _build_generator(data["generator"], P)
    else:
        if not args.polytope:
            print("need --polytope with a bare generator spec", file=sys.stderr)
            return 2
        P = parse_polytope(_load_json_arg(args.polytope))
        gen = _build_generator(data, P)
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
    if sc.generator is None:
        print("scenario carries no generator", file=sys.stderr)
        return 2
    P = sc.polytope
    outdir = Path(args.output)
    bat = battery_for(P)
    s_grid = [s for s in sc.s_grid if s <= args.max_s]
    lo, hi = P.bbox()
    if P.dim == 1:
        grid = np.linspace(float(lo[0]), float(hi[0]), 513)[:, None]
    else:
        g1 = np.linspace(float(lo[0]), float(hi[0]), 65)
        g2 = np.linspace(float(lo[1]), float(hi[1]), 65)
        grid = np.stack(np.meshgrid(g1, g2), axis=-1).reshape(-1, 2)
        grid = grid[P.contains(grid, tol=1e-12)]
    for m in sc.lattice_points:
        pair_rows = []
        tag = "-".join(str(int(c)) for c in m)
        for s in s_grid:
            md = MonomialDensity(P, sc.generator, list(m), float(s),
                                 weighted=not args.bare)
            logd = md.log_density(grid)
            dens = md.normalized(grid)
            rows = [tuple(x) + (ld, d)
                    for x, ld, d in zip(grid, logd, dens)]
            _write_csv(outdir / f"density_m{tag}_s{_fmt(s)}.csv",
                       [f"x{i + 1}" for i in range(P.dim)]
                       + ["log_density", "density_normalized"], rows)
            pair_rows.append((s,) + tuple(md.pair(t) for t in bat))
        _write_csv(outdir / f"pairings_m{tag}.csv",
                   ["s"] + bat.names(), pair_rows)
    print(f"wrote densities for {len(sc.lattice_points)} lattice points "
          f"under {outdir}")
    return 0


def cmd_gcst(args) -> int:
    sc = _load_scenario(args.scenario)
    if sc.generator is None:
        print("scenario carries no generator", file=sys.stderr)
        return 2
    P = sc.polytope
    bat = battery_for(P)
    rows = []
    s_grid = [s for s in sc.s_grid if s <= args.max_s]
    for m in sc.lattice_points:
        for s in s_grid:
            md = MonomialDensity(P, sc.generator, list(m), float(s))
            img = gcst_image(md)
            rows.append(tuple(m) + (s, img.coefficient)
                        + tuple(img.pair(t) for t in bat))
    path = _write_csv(
        Path(args.output) / "gcst.csv",
        [f"m{i + 1}" for i in range(P.dim)] + ["s", "coefficient"]
        + [f"pair_{n}" for n in bat.names()], rows)
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
             "delzant": dec.delzant_flags[i]}
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
    if sc.generator is None or sc.polytope.dim != 1:
        print("metric subcommand ships 1-D paths; use a segment scenario",
              file=sys.stderr)
        return 2
    P, gen = sc.polytope, sc.generator
    s_grid = [s for s in (100.0, 316.0, 1000.0, 3162.0, 10000.0)
              if s <= args.max_s]
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
    rows = []
    for s in s_grid:
        crossing = metric_length(P, gen, s, xpath)
        circle = metric_length(P, gen, s, [((center,), (0.0,)),
                                           ((center,), (2 * math.pi,))])
        rows.append((s, crossing, circle))
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
    p.add_argument("--variant", default="nice", choices=["nice", "strict",
                                                         "global"])
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
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
