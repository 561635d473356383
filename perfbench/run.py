"""toricray benchmark: three verification workloads, closed loop, one client.

    python3 perfbench/run.py --workload ray1d --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed or built.  Every pass of a workload
runs in a fresh interpreter (``worker.py``), one at a time, with BLAS and
OpenMP pinned to one thread, so no state leaks between passes and set-up is
paid as a user of ``toricray verify`` pays it.  The seed permutes the order
of each pass's operations; the results must not depend on it.

--trace 0 runs passes until --seconds have elapsed (at least two) plus a few
set-up-only interpreters, and reports the end-to-end metrics.  Their times
are in reference seconds (``hostspeed``): each pass samples the host's speed
while it runs, and its measured times are scaled by that speed, because this
benchmark's shared host drifts in speed by more than any useful bound.  --trace 1
runs one untraced and two traced passes and reports the per-layer metrics;
the traced results must equal the untraced ones and the two traced passes
must give identical work counts.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 2
MIN_PASSES = 2
PASS_TIMEOUT_S = 150.0
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "verified_frac": "ratio"}


def _env():
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args):
    """Run worker.py; (monotonic spawn time, parsed last line or error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return t_spawn, f"worker {args} timed out after {PASS_TIMEOUT_S} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return t_spawn, (f"worker {args} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return t_spawn, json.loads(lines[-1])


def _with_setup(t_spawn, res):
    res["setup_s"] = res["ready"] - t_spawn
    if "setup_speed" in res:
        res["setup_ref_s"] = ((res["setup_s"] - res["setup_sampling_s"])
                              * res["setup_speed"])
    return res


def _setup_probe(workload, problems):
    t_spawn, res = _spawn(["--workload", workload, "--setup-only", "--speed"])
    if isinstance(res, str):
        problems.append(res)
        return None
    return _with_setup(t_spawn, res)["setup_ref_s"]


def _pass(workload, order_seed, trace=False, speed=False):
    args = ["--workload", workload, "--order-seed", str(order_seed)]
    args += ["--trace"] if trace else []
    args += ["--speed"] if speed else []
    t_spawn, res = _spawn(args)
    if isinstance(res, str):
        return {"error": res, "ops": [], "problems": [res]}
    return _with_setup(t_spawn, res)


def _pin_cpu():
    """Pin this process, and so every worker, to one CPU: a pass that
    migrates between CPUs times less steadily.  Returns the CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _context(cpu):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "pinned_cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            **PINNED}


def _median_line(name, values, unit):
    """Median, quartiles and the highest percentile with ten samples beyond."""
    n = len(values)
    qs = statistics.quantiles(values, n=4) if n > 1 else values * 3
    tail = "no percentile has 10 samples beyond it"
    if n > 10:
        tail = f"p{100 * (n - 10) / n:.0f} {sorted(values)[n - 11]:.6g} {unit}"
    return (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"quartiles {qs[0]:.6g}..{qs[2]:.6g}, {tail}, n={n}")


def _account(passes, expected_ops):
    """(attempted, failed, problems) over all passes, with consistency."""
    attempted = failed = 0
    problems = []
    for p in passes:
        attempted += expected_ops
        bad = [op for op in p["ops"] if op["problems"]]
        failed += len(bad) + (expected_ops - len(p["ops"]))
        problems += p["problems"] + [q for op in bad for q in op["problems"]]
    digests = {p.get("digest") for p in passes}
    if len(digests) > 1:
        problems.append("results differ between passes (operation order or "
                        f"tracing changed them): {sorted(map(str, digests))}")
    return attempted, failed, problems


def _measure(workload, rng, seconds, nops):
    """End-to-end metrics of passes run until `seconds` have elapsed."""
    problems = []
    setups = [_setup_probe(workload, problems) for _ in range(SETUP_PROBES)]
    passes = []
    t0 = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - t0 < seconds:
        passes.append(_pass(workload, rng.randrange(2 ** 32), speed=True))
    attempted, failed, more = _account(passes, nops)
    problems += more
    ok = [p for p in passes if "error" not in p]
    if not ok:
        sys.exit("no pass finished:\n" + "\n".join(problems))
    values = {"setup_s": [t for t in setups if t is not None]
              + [p["setup_ref_s"] for p in ok],
              "wall_s": [p["wall_ref_s"] for p in ok],
              "cpu_s": [p["cpu_ref_s"] for p in ok],
              "peak_rss_mb": [p["peak_rss_mb"] for p in ok]}
    for name, vals in values.items():
        print(_median_line(name, vals, END_TO_END_UNITS[name]))
    for name in ("setup_s", "wall_s", "cpu_s", "speed"):
        print(_median_line(f"  measured {name}", [p[name] for p in ok],
                           "x reference" if name == "speed" else "s"))
    for name in sorted(op["name"] for op in ok[0]["ops"]):
        secs = [op["seconds"] for p in ok for op in p["ops"]
                if op["name"] == name]
        print(f"  op {name}: median {statistics.median(secs):.4f} s")
    metrics = {name: statistics.median(vals) for name, vals in values.items()}
    metrics["verified_frac"] = (attempted - failed) / attempted
    return metrics, attempted, failed, problems


def _trace(workload, rng, nops):
    """Per-layer metrics of two traced passes, checked against an untraced one."""
    plain = _pass(workload, rng.randrange(2 ** 32))
    traced = [_pass(workload, rng.randrange(2 ** 32), trace=True)
              for _ in range(2)]
    attempted, failed, problems = _account([plain, *traced], nops)
    if any("error" in p for p in (plain, *traced)):
        sys.exit("a pass did not finish:\n" + "\n".join(problems))
    layers = [p["layers"] for p in traced]
    for key in spans.REPEATABLE:
        if layers[0][key] != layers[1][key]:
            problems.append(f"count {key} differs between traced passes: "
                            f"{layers[0][key]} vs {layers[1][key]}")
    metrics = dict(layers[0])
    metrics["trace.overhead_s"] = traced[0]["wall_s"] - plain["wall_s"]
    print(f"untraced pass {plain['wall_s']:.3f} s, traced passes "
          f"{traced[0]['wall_s']:.3f} s and {traced[1]['wall_s']:.3f} s")
    for row in traced[0]["span_table"]:
        print("  span {}: {} spans, {:.4f} s inclusive, {:.4f} s self"
              .format(*row))
    return metrics, attempted, failed, problems


def run(workload, seed, seconds, trace):
    rng = random.Random(seed)
    nops = len(workloads.PLANS[workload](random.Random(0)))
    print(f"context: {json.dumps(_context(_pin_cpu()))}")
    if trace:
        metrics, attempted, failed, problems = _trace(workload, rng, nops)
        units = spans.UNITS
    else:
        metrics, attempted, failed, problems = _measure(workload, rng,
                                                        seconds, nops)
        units = END_TO_END_UNITS
    for q in problems:
        print(f"PROBLEM: {q}")
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in sorted(metrics.items())}}
    print(json.dumps(result))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "toricray" / "__init__.py").is_file():
        sys.exit(f"no toricray sources under {ROOT / 'src'}; run from the "
                 "root of a toricray checkout")
    run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    main()
