"""One pass of one workload, in a fresh interpreter started by run.py.

Prints one JSON line: the monotonic time at which set-up finished (the
interpreter, ``import toricray`` and both kernel tables), the pass's wall and
CPU time, peak RSS, each operation's result and check, and with --trace the
per-layer metrics.  --setup-only stops after set-up.  --speed samples the
host's speed from the start of set-up (``hostspeed``) and adds the pass's
times in reference seconds, and the set-up window's speed and sampling time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _tolerances():
    from toricray import quantization
    return dict(quantization.DEFAULT_REL_TOL)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PLANS))
    ap.add_argument("--order-seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--speed", action="store_true")
    args = ap.parse_args(argv)
    sampler = hostspeed.Sampler() if args.speed else None
    if sampler is not None:
        t_start = time.monotonic()
        sampler.start()

    import toricray
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(toricray.__file__).resolve().parents:
        sys.exit(f"toricray imported from {toricray.__file__}, not from {src}")
    from toricray import acceptance, kernels, scenarios  # noqa: F401 (set-up)
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    kernels.get_kernel("cosine")
    kernels.get_kernel("smooth")
    ready = time.monotonic()
    out = {"ready": ready}
    if sampler is not None:
        out["setup_speed"], out["setup_sampling_s"] = sampler.window(t_start,
                                                                    ready)
    if args.setup_only:
        if sampler is not None:
            sampler.stop()
        print(json.dumps(out))
        return

    problems = []
    if _tolerances() != workloads.EXPECTED_REL_TOL:
        problems.append(f"tolerances before the workload: {_tolerances()}")
    plan = workloads.PLANS[args.workload](random.Random(args.order_seed))
    cpu0 = _cpu_seconds()
    t0 = time.monotonic()
    ctx = {}
    ops = []
    for i, (name, fn) in enumerate(plan):
        if tracer is not None:
            tracer.current_op = i
        t_op = time.perf_counter()
        try:
            observed = fn(ctx)
            op_problems = workloads.check(name, observed)
        except Exception:  # a failed operation is counted, not fatal
            observed = None
            op_problems = [f"{name} raised:\n{traceback.format_exc()}"]
        ops.append({"name": name, "seconds": time.perf_counter() - t_op,
                    "observed": observed, "problems": op_problems})
    t1 = time.monotonic()
    cpu = _cpu_seconds() - cpu0
    wall = t1 - t0
    if sampler is not None:
        sampler.stop()
        speed, sampling = sampler.window(t0, t1)
        out.update(speed=speed, wall_ref_s=(wall - sampling) * speed,
                   cpu_ref_s=(cpu - sampling) * speed)
    if _tolerances() != workloads.EXPECTED_REL_TOL:
        problems.append(f"tolerances after the workload: {_tolerances()}")

    by_name = {op["name"]: op["observed"] for op in ops}
    digest = hashlib.sha256(json.dumps(by_name, sort_keys=True).encode())
    out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=_peak_rss_mb(), ops=ops,
               digest=digest.hexdigest(), problems=problems)
    if tracer is not None:
        left = tracer.uninstall()
        if left:
            problems.append(f"names not restored after tracing: {left}")
        out["layers"] = tracer.metrics()
        out["span_table"] = tracer.table()[:25]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
