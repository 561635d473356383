"""CLI subcommands: outputs, determinism, exit codes."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toricray
from toricray import quadrature, quantization
from toricray.cli import main


def run(argv):
    return main(argv)


def test_profile_staircase(tmp_path):
    out = tmp_path / "profile.csv"
    scenario = json.dumps({
        "name": "stairs",
        "polytope": {"dim": 1, "normals": [[1], [-1]], "offsets": ["0", "-5"]},
        "generator": {"kind": "bumps", "bumps": [
            {"m": 1.0, "alpha": 0.25, "A": 1.0},
            {"m": 2.5, "alpha": 0.25, "A": 0.5},
            {"m": 4.0, "alpha": 0.25, "A": 2.0}]},
    })
    assert run(["profile", "--generator", scenario, "-o", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
    # plateau slopes between the bumps: 0, 1, 1.5, 3.5
    def slope_at(x):
        idx = np.argmin(np.abs(rows["x"] - x))
        return rows["dpsi"][idx]
    assert slope_at(0.4) == pytest.approx(0.0, abs=1e-12)
    assert slope_at(1.8) == pytest.approx(1.0, abs=1e-10)
    assert slope_at(3.2) == pytest.approx(1.5, abs=1e-10)
    assert slope_at(4.8) == pytest.approx(3.5, abs=1e-10)


def test_profile_zero_generator(tmp_path):
    out = tmp_path / "zero.csv"
    scenario = json.dumps({
        "polytope": {"dim": 1, "normals": [[1], [-1]], "offsets": ["0", "-2"]},
        "generator": {"kind": "bumps", "bumps": []},
    })
    assert run(["profile", "--generator", scenario, "-o", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True, skip_header=1)
    assert np.all(rows["psi"] == 0.0)
    assert np.all(rows["d2psi"] == 0.0)


def test_ray_density_deterministic(tmp_path):
    scenario = json.dumps({
        "name": "mini",
        "polytope": {"dim": 1, "normals": [[1], [-1]], "offsets": ["0", "-2"]},
        "generator": {"kind": "bumps", "bumps": [
            {"m": 1.0, "alpha": 0.25, "A": 1.0}]},
        "s_grid": [8, 32],
        "lattice_points": [[1]],
    })
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["ray-density", "--scenario", scenario, "-o", str(out1)]) == 0
    assert run(["ray-density", "--scenario", scenario, "-o", str(out2)]) == 0
    for name in ("density_m1_s8.csv", "density_m1_s32.csv",
                 "pairings_m1.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_gcst_csv(tmp_path):
    scenario = json.dumps({
        "polytope": {"dim": 1, "normals": [[1], [-1]],
                     "offsets": ["-1/2", "-5/2"], "corrected": True},
        "generator": {"kind": "bumps", "bumps": [
            {"m": 1.0, "alpha": 0.5, "A": 4.0}]},
        "s_grid": [4, 16],
        "lattice_points": [[0], [2]],
    })
    assert run(["gcst", "--scenario", scenario, "-o", str(tmp_path)]) == 0
    rows = np.genfromtxt(tmp_path / "gcst.csv", delimiter=",", names=True)
    coeff = {(int(r["m1"]), int(r["s"])): r["coefficient"] for r in rows}
    assert coeff[(0, 4)] == pytest.approx(1.0)
    assert coeff[(2, 16)] == pytest.approx(np.exp(-16.0 * 4.0 * 1.0), rel=1e-10)


_GRID_SCENARIO = json.dumps({
    "polytope": {"dim": 1, "normals": [[1], [-1]], "offsets": ["0", "-2"]},
    "generator": {"kind": "bumps", "bumps": [
        {"m": 1.0, "alpha": 0.25, "A": 1.0, "kernel": "smooth"}]},
    "s_grid": [8, 64, 512],
    "lattice_points": [[0], [1], [2]],
})


def _lone_densities(weighted=True):
    """(m, s, MonomialDensity made alone) over the grid scenario."""
    from toricray.cli import _load_scenario
    sc = _load_scenario(_GRID_SCENARIO)
    return sc, [(m, s, quantization.MonomialDensity(
        sc.polytope, sc.generator, list(m), float(s), weighted=weighted))
        for m in sc.lattice_points for s in sc.s_grid]


@pytest.mark.parametrize("bare", [False, True], ids=["weighted", "bare"])
def test_ray_density_grid_is_the_lone_densities(tmp_path, bare):
    # each lattice point's s-grid is built as one family; its CSVs are
    # those of densities made one at a time, bit for bit
    from toricray.limits import battery_for
    argv = ["ray-density", "--scenario", _GRID_SCENARIO, "-o", str(tmp_path)]
    assert run(argv + ["--bare"] * bare) == 0
    sc, lone = _lone_densities(weighted=not bare)
    bat = battery_for(sc.polytope)
    for m, s, md in lone:
        tag = f"m{m[0]}"
        rows = np.genfromtxt(tmp_path / f"density_{tag}_s{s}.csv",
                             delimiter=",", names=True)
        X = rows["x1"][:, None]
        logd = md.log_density(X)
        finite = np.isfinite(logd)
        assert np.array_equal(finite, np.isfinite(rows["log_density"]))
        assert np.array_equal(rows["log_density"][finite], logd[finite])
        assert np.array_equal(rows["density_normalized"], md.normalized(X))
        pairs = np.genfromtxt(tmp_path / f"pairings_{tag}.csv",
                              delimiter=",", names=True)
        row = pairs[list(pairs["s"]).index(s)]
        for t in bat:
            assert row[t.name] == md.pair(t)


def test_gcst_grid_is_the_lone_densities(tmp_path):
    from toricray.limits import battery_for
    assert run(["gcst", "--scenario", _GRID_SCENARIO,
                "-o", str(tmp_path)]) == 0
    sc, lone = _lone_densities()
    bat = battery_for(sc.polytope)
    rows = np.genfromtxt(tmp_path / "gcst.csv", delimiter=",", names=True)
    assert len(rows) == len(lone)
    for row, (m, s, md) in zip(rows, lone):
        img = quantization.gcst_image(md)
        assert (row["m1"], row["s"]) == (m[0], s)
        assert row["coefficient"] == img.coefficient
        for t in bat:
            assert row[f"pair_{t.name}"] == img.pair(t)


def test_gcst_pairs_each_s_grid_as_one_family(tmp_path, monkeypatch):
    # each lattice point's densities are normed in one call of the engine,
    # and the pairings that miss on their nodes are repaired from their
    # rules' panels as one family per lattice point, with no fresh
    # integral and not one repair per missed pairing
    import sys
    from toricray import quadrature
    engine, repair = quadrature.integrate_polytope, quadrature._repair
    callers, repaired = [], []

    def counting(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return engine(*args, **kwargs)

    def repairing(pairings, *args):
        repaired.append(len(pairings))
        return repair(pairings, *args)

    monkeypatch.setattr(quadrature, "integrate_polytope", counting)
    monkeypatch.setattr(quadrature, "_repair", repairing)
    assert run(["--max-s", "2048", "gcst", "--scenario",
                "builtin:three-bumps", "-o", str(tmp_path)]) == 0
    assert callers == ["_ensure_norm"] * 6
    assert len(repaired) == 2 and min(repaired) > 1


def test_decompose_and_q(tmp_path):
    out = tmp_path / "dec.json"
    poly = json.dumps({"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]],
                       "offsets": ["0", "0", "-3"]})
    pl = json.dumps({"pieces": [{"g": ["0", "0"], "b": "0"},
                                {"g": ["1", "0"], "b": "-1"},
                                {"g": ["0", "1"], "b": "-1"},
                                {"g": ["1", "1"], "b": "-2"}]})
    assert run(["decompose", "--polytope", poly, "--pl", pl,
                "--ceiling", "2", "-o", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["subpolytopes"]) == 4
    assert report["Q_integral"] is True
    assert report["volume_defect"] == "0"
    assert report["Q_vertices"] == [list(v) for v in (
        "000", "002", "012", "030", "102", "112", "121", "211", "300")]
    assert [(s["piece"], s["vertices"]) for s in report["subpolytopes"]] == [
        (i, [list(v) for v in vs]) for i, vs in enumerate((
            ("00", "01", "10", "11"), ("10", "11", "21", "30"),
            ("01", "03", "11", "12"), ("11", "12", "21")))]


def test_smooth_subcommand(tmp_path):
    out = tmp_path / "sm.csv"
    poly = json.dumps({"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]],
                       "offsets": ["0", "0", "-3"]})
    pl = json.dumps({"pieces": [{"g": ["0", "0"], "b": "0"},
                                {"g": ["1", "0"], "b": "-1"}]})
    assert run(["smooth", "--polytope", poly, "--pl", pl,
                "--eps", "1/20", "1/10", "-o", str(out)]) == 0
    assert out.exists()
    # the strict control family fails verification: nonzero exit
    assert run(["smooth", "--polytope", poly, "--pl", pl,
                "--eps", "1/20", "1/10", "--variant", "strict",
                "-o", str(tmp_path / "neg.csv")]) == 1


def test_metric_subcommand(tmp_path):
    out = tmp_path / "metric.csv"
    assert run(["--max-s", "1000", "metric", "--scenario",
                "builtin:segment-bump", "-o", str(out)]) == 0
    rows = np.genfromtxt(out, delimiter=",", names=True)
    assert np.all(np.diff(rows["crossing_length"]) > 0)
    assert np.all(np.diff(rows["circle_length"]) < 0)


def test_verify_subset_exit_codes():
    assert run(["verify", "--only", "1,2,3"]) == 0
    assert run(["verify", "--only", "99"]) == 2


def test_input_errors_exit_two(tmp_path, capsys):
    assert run(["profile", "--generator", "builtin:not-a-scenario"]) == 2
    assert run(["decompose", "--polytope", "{bad json", "--pl", "{}"]) == 2
    # the strict negative control ships for single walls only
    poly = json.dumps({"dim": 2, "normals": [[1, 0], [0, 1], [-1, -1]],
                       "offsets": ["0", "0", "-3"]})
    corner = json.dumps({"pieces": [{"g": ["0", "0"], "b": "0"},
                                    {"g": ["1", "0"], "b": "-1"},
                                    {"g": ["0", "1"], "b": "-1"}]})
    capsys.readouterr()
    assert run(["smooth", "--polytope", poly, "--pl", corner,
                "--eps", "1/10", "--variant", "strict",
                "-o", str(tmp_path / "strict.csv")]) == 2
    assert "input error: strict negative-control" in capsys.readouterr().err
    # non-finite bump sizes and polytope offsets are input errors
    segment = json.dumps({"dim": 1, "normals": [[1], [-1]],
                          "offsets": ["0", "-2"]})
    bumps = '{"kind": "bumps", "bumps": [{"m": 1, "alpha": Infinity, "A": 1}]}'
    walls = ('{"kind": "wall-sum", "walls": '
             '[{"normal": [1], "c": "1", "alpha": 1e400, "A": 1}]}')
    for gen in (bumps, walls):
        assert run(["profile", "--generator", gen, "--polytope", segment,
                    "-o", str(tmp_path / "p.csv")]) == 2
        assert "input error: bump center, halfwidth and mass must be finite" \
            in capsys.readouterr().err
    infinite = '{"dim": 1, "normals": [[1], [-1]], "offsets": [0, -Infinity]}'
    assert run(["decompose", "--polytope", infinite, "--pl",
                json.dumps({"pieces": [{"g": ["0"], "b": "0"},
                                       {"g": ["1"], "b": "-1"}]}),
                "-o", str(tmp_path / "dec.json")]) == 2
    assert "input error: -inf is not a finite number" \
        in capsys.readouterr().err
    # a lattice point outside P is an input error, bare or weighted, and
    # nothing is written
    outside = json.dumps({
        "polytope": json.loads(segment), "lattice_points": [[3]],
        "generator": {"kind": "bumps",
                      "bumps": [{"m": 1, "alpha": 0.5, "A": 1}]}})
    for bare in (["--bare"], []):
        assert run(["ray-density", *bare, "--scenario", outside,
                    "-o", str(tmp_path / "rd")]) == 2
        assert "input error: lattice point [3.] lies outside P" \
            in capsys.readouterr().err
    assert not (tmp_path / "rd").exists()
    # so is a lattice point off the lattice: m = 0.5 would write m = 0's
    # files
    half = json.dumps({**json.loads(outside), "lattice_points": [[0.5], [0]]})
    assert run(["ray-density", "--scenario", half,
                "-o", str(tmp_path / "rd")]) == 2
    assert "input error: entry 0.5 is not an integer" \
        in capsys.readouterr().err
    assert not (tmp_path / "rd").exists()
    # PL pieces of another dimension than the polytope
    line = json.dumps({"pieces": [{"g": ["0"], "b": "0"},
                                  {"g": ["1"], "b": "-1"}]})
    flat = json.dumps({"polytope": json.loads(poly), "generator": {
        "kind": "pl-smooth", "epsilon": "1/10", **json.loads(line)}})
    for argv in (["decompose", "--polytope", poly, "--pl", line],
                 ["smooth", "--polytope", poly, "--pl", line, "--eps", "1/10"],
                 ["ray-density", "--scenario", flat]):
        assert run(argv + ["-o", str(tmp_path / "out")]) == 2
        assert ("input error: the PL pieces are 1-dimensional but the "
                "polytope is 2-dimensional") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # wrongly typed fields, wherever a spec is read
    null_alpha = {"kind": "bumps", "bumps": [{"m": 1, "alpha": None, "A": 1}]}
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    base = {**json.loads(outside), "lattice_points": [[1]]}
    for argv, msg in [
            (["ray-density", "--scenario", json.dumps(
                {**base, "s_grid": ["a"]})],
             "s_grid must be increasing positive numbers"),
            (["ray-density", "--scenario", json.dumps(
                {**base, "generator": null_alpha})],
             "a bump's center, alpha and A must be numbers, not [1, None, 1]"),
            (["profile", "--generator", json.dumps(null_alpha),
              "--polytope", segment],
             "a bump's center, alpha and A must be numbers, not [1, None, 1]"),
            (["ray-density", "--scenario", json.dumps(
                {**base, "lattice_points": 3})],
             "lattice_points must be an array, not 3"),
            (["ray-density", "--scenario", json.dumps(
                {**base, "generator": {"kind": "bumps", "bumps": 7}})],
             "bumps must be an array, not 7"),
            (["ray-density", "--scenario", str(listed)],
             "a scenario must be an object, not [1, 2]"),
            (["profile", "--generator", str(listed)],
             "a scenario must be an object, not [1, 2]"),
            (["ray-density", "--scenario", " [1, 2]"],
             "a scenario must be an object, not [1, 2]"),
            (["decompose", "--polytope",
              '{"dim": 1, "normals": 5, "offsets": [0]}', "--pl", line],
             "normals must be arrays in an array, offsets one"),
            (["decompose", "--polytope", segment, "--pl", '{"pieces": 3}'],
             "pieces must be an array, not 3"),
            (["decompose", "--polytope", json.dumps(
                {**json.loads(segment), "corrected": "no"}), "--pl", line],
             "corrected must be true or false, not 'no'")] + [
            # a polytope of no dimension or of no facets
            ([cmd, "--scenario", json.dumps({
                **base, "generator": {"kind": "wall-sum", "walls": []},
                "polytope": {"dim": dim, "normals": [], "offsets": []}})],
             msg)
            for cmd in ("ray-density", "gcst") for dim, msg in (
                (0, "dim must be at least 1, not 0"),
                (-1, "dim must be at least 1, not -1"),
                (1, "normals must not be empty"))]:
        assert run(argv + ["-o", str(tmp_path / "out")]) == 2
        assert f"input error: {msg}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a --max-s below the whole s grid leaves nothing to compute or fit
    for cmd, grid in [("ray-density", "[32, 64, 128, 256, 512, 1024, 2048, "
                                      "4096]"),
                      ("gcst", "[32, 64, 128, 256, 512, 1024, 2048, 4096]"),
                      ("metric", "[100.0, 316.0, 1000.0, 3162.0, 10000.0]")]:
        assert run(["--max-s", "1", cmd, "--scenario", "builtin:segment-bump",
                    "-o", str(tmp_path / "capped")]) == 2
        assert (f"input error: no s of the grid {grid} is at most --max-s 1"
                in capsys.readouterr().err)
    assert not (tmp_path / "capped").exists()


def test_non_integer_normals_exit_two(tmp_path, capsys):
    # 1.7 would truncate to CP^2(3) and 1.5 to the wall normal (1,)
    poly = json.dumps({"dim": 2, "normals": [[1.7, 0], [0, 1], [-1, -1]],
                       "offsets": [0, 0, -3]})
    pl = json.dumps({"pieces": [{"g": ["0", "0"], "b": "0"},
                                {"g": ["1", "0"], "b": "-1"}]})
    assert run(["decompose", "--polytope", poly, "--pl", pl,
                "-o", str(tmp_path / "dec.json")]) == 2
    walls = json.dumps({
        "polytope": {"dim": 1, "normals": [[1], [-1]], "offsets": [0, -2]},
        "generator": {"kind": "wall-sum", "walls": [
            {"normal": [1.5], "c": "1", "alpha": 0.25, "A": 1.0}]}})
    assert run(["profile", "--generator", walls,
                "-o", str(tmp_path / "p.csv")]) == 2
    assert "entry 1.5 is not an integer" in capsys.readouterr().err
    walls = walls.replace("[1.5]", "[1.0]")
    assert run(["profile", "--generator", walls,
                "-o", str(tmp_path / "p.csv")]) == 0


def test_quadrature_failure_exits_two(monkeypatch, tmp_path, capsys):
    # eight panels per integral cannot resolve the wall-sum densities
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    assert run(["ray-density", "--scenario", "builtin:cp2-wall-sum",
                "-o", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "with a budget of 8 panels per integral" in err


def test_density_tolerances_are_read_only():
    before = dict(quantization.DEFAULT_REL_TOL)
    with pytest.raises(TypeError):
        quantization.DEFAULT_REL_TOL[2] = 1e-4
    with pytest.raises(SystemExit) as exc:
        run(["--tol-override", "100", "verify", "--only", "2"])
    assert exc.value.code == 2
    assert dict(quantization.DEFAULT_REL_TOL) == before == {1: 1e-10, 2: 1e-6}


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: the package and its CLI never load
    # it, nor numpy.polynomial, whose import would cost every start-up
    code = ("import importlib, pkgutil, sys, toricray\n"
            "for mod in pkgutil.iter_modules(toricray.__path__):\n"
            "    importlib.import_module('toricray.' + mod.name)\n"
            "print('toricray.cli' in sys.modules, *sorted(\n"
            "    m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "    or m.startswith('numpy.polynomial')))")
    src = str(Path(toricray.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True"]


def test_every_exported_name_resolves_once():
    # each module's __all__ lists only names the module binds, each once,
    # so a deleted class cannot stay exported
    checked = 0
    for info in pkgutil.iter_modules(toricray.__path__):
        mod = importlib.import_module(f"toricray.{info.name}")
        names = getattr(mod, "__all__", None)
        if names is None:
            continue
        checked += 1
        assert [n for n in names if not hasattr(mod, n)] == [], info.name
        assert len(set(names)) == len(names), info.name
    assert checked > 0
