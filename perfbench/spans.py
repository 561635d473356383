"""Per-layer tracing from outside the package, by wrapping public names.

``Tracer.install`` replaces every traced function or method with a wrapper
that records one span (name, start, end, parent span, operation id) and
updates the layer's work counters.  A module function is patched in every
``toricray`` namespace that binds it (modules use ``from .x import y``), and
in ``acceptance.ALL_CRITERIA``; a method is patched on its class.  The
drivers and zoom predicates handed to the quadrature engines are wrapped
per call, which is how rule calls, points, rounds and pre-split leaves are
counted.  ``Tracer.uninstall`` puts every original back and checks it.

Spans are kept in flat arrays and reduced once, after the workload:
a span's self time is its duration minus the durations of its children.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("kernels", "generators", "smoothing", "testconfig", "polytope",
          "potentials", "quadrature", "quantization", "limits", "acceptance")

# functions and methods traced per layer: "name" is a module function,
# "Class.method" a method patched on the class
TRACED = {
    "kernels": ["_cosine_kernel", "_smooth_kernel",
                "Kernel.density", "Kernel.density_d1", "Kernel.density_d2",
                "Kernel.cdf", "Kernel.first_moment", "Kernel.cdf_integral"],
    "generators": ["build_bump_generator", "build_wall_sum", "eval_generator",
                   "Bump1D.d0", "Bump1D.d1", "Bump1D.d2",
                   "BumpGenerator1D.psi", "BumpGenerator1D.dpsi",
                   "BumpGenerator1D.d2psi",
                   "PLConvex.piece_values", "PLConvex.value",
                   "PLConvex.gradient"],
    "smoothing": ["build_nice_smoothing", "verify_nice_family",
                  "LineMollifier.eval_point", "LineMollifier.eval_many",
                  "IteratedMollifier.eval_point", "IteratedMollifier.eval_many"],
    "testconfig": ["decompose", "nondiff_locus", "thickening_membership",
                   "build_Q", "central_fiber_report",
                   "Decomposition.faces_of_codim", "Decomposition.volumes_exact",
                   "Decomposition.volume_defect",
                   "Decomposition.activity_consistency_exact",
                   "Face.in_slab", "Face.contains_parallel"],
    "polytope": ["make_polytope", "parse_polytope", "face_frame",
                 "integral_points", "ell_values",
                 "Polytope.ell", "Polytope.contains", "Polytope.interior_contains",
                 "Polytope.integral_points", "Polytope.centroid",
                 "Polytope.bbox", "Polytope.diameter", "Polytope.volume_exact",
                 "Polytope.contains_exact", "Polytope.ell_exact",
                 "FaceFrame.to_frame", "FaceFrame.from_frame",
                 "FaceFrame.transverse", "FaceFrame.parallel",
                 "FaceFrame.shift_vectors"],
    "potentials": ["guillemin_jet", "ray_jet", "legendre_forward",
                   "legendre_inverse", "holo_log_coordinate",
                   "kahler_dual_value", "det_identity_check"],
    "quadrature": ["adaptive_panels", "integrate_on_panels", "integrate_1d",
                   "log_integral_1d", "polygon_mesh",
                   "TriangleMesh.refine", "TriangleMesh.integrate",
                   "TriangleMesh.integrate_values",
                   "TriangleMesh.pair_against_driver"],
    "quantization": ["base_log_weight", "ray_rate", "rate_gap", "gcst_image",
                     "l1_norm", "normalized_density", "basis_census",
                     "MonomialDensity.log_density",
                     "MonomialDensity.log_gap_density",
                     "MonomialDensity._ensure_norm",
                     "MonomialDensity.log_mass", "MonomialDensity.log_l1",
                     "MonomialDensity.normalized", "MonomialDensity.pair",
                     "MonomialDensity.pair_absolute"],
    "limits": ["battery_for", "region_mean", "chord_mean", "fit_rate", "pair",
               "delta_diagnostic", "uniform_diagnostic",
               "face_delta_diagnostic", "polarization_frame",
               "polarization_distance", "distance_to_real",
               "mixed_limit_frame", "ray_polarization", "metric_length",
               "BatteryMember.__call__"],
    "acceptance": [],  # the criteria, read from acceptance.ALL_CRITERIA
}

# the Generator interface; every subclass in the package is traced under
# "generators", wherever it is defined (NiceSmoothingGenerator lives in
# smoothing, but its value/gradient/hessian re-run the mollifier jet)
GENERATOR_METHODS = ("value", "gradient", "hessian")

# counters raised by one on each call of the named functions
EXTRA_CALLS = {
    "testconfig.membership_calls": ("thickening_membership",),
    "potentials.jet_calls": ("ray_jet", "guillemin_jet"),
    "limits.diagnostics": ("delta_diagnostic", "uniform_diagnostic",
                           "face_delta_diagnostic"),
    "quantization.pairings": ("MonomialDensity.pair",),
    "smoothing.scalar_points": ("LineMollifier.eval_point",
                                "IteratedMollifier.eval_point"),
}
# counters that accumulate the inclusive time of the named functions
TIMED = {"_cosine_kernel": "kernels.table_build_s",
         "_smooth_kernel": "kernels.table_build_s",
         "build_nice_smoothing": "smoothing.build_s",
         "verify_nice_family": "smoothing.verify_s",
         "region_mean": "limits.reference_s",
         "chord_mean": "limits.reference_s"}

# per-layer metrics reported by the traced run, with their units
UNITS = {
    "kernels.table_build_s": "s", "kernels.calls": "count",
    "kernels.points": "count", "kernels.self_s": "s",
    "generators.calls": "count", "generators.points": "count",
    "generators.self_s": "s", "generators.repeat_pass_frac": "ratio",
    "smoothing.scalar_points": "count", "smoothing.batch_points": "count",
    "smoothing.self_s": "s", "smoothing.build_s": "s",
    "smoothing.verify_s": "s",
    "testconfig.calls": "count", "testconfig.membership_calls": "count",
    "testconfig.self_s": "s",
    "polytope.calls": "count", "polytope.self_s": "s",
    "potentials.jet_calls": "count", "potentials.self_s": "s",
    "quadrature.rule_calls_1d": "count", "quadrature.points_1d": "count",
    "quadrature.panels_1d": "count", "quadrature.self_s": "s",
    "quadrature.leaves_2d": "count", "quadrature.presplit_leaves_2d": "count",
    "quadrature.rounds_2d": "count", "quadrature.points_2d": "count",
    "quadrature.err_over_tol_max_2d": "ratio",
    "quantization.densities": "count", "quantization.norm_s": "s",
    "quantization.pairings": "count", "quantization.pair_s": "s",
    "quantization.zoom_calls": "count", "quantization.zoom_s": "s",
    "quantization.self_s": "s",
    "limits.diagnostics": "count", "limits.reference_s": "s",
    "limits.self_s": "s",
    **{f"acceptance.c{cid:02d}_s": "s" for cid in range(1, 12)},
    "trace.overhead_s": "s", "trace.spans": "count",
}

# counts that later changes may claim; they must repeat exactly
REPEATABLE = ("smoothing.scalar_points", "smoothing.batch_points",
              "quadrature.leaves_2d", "quadrature.presplit_leaves_2d",
              "quadrature.rounds_2d", "quadrature.points_2d",
              "quadrature.panels_1d", "quadrature.points_1d",
              "quadrature.rule_calls_1d", "kernels.calls", "kernels.points",
              "generators.calls", "generators.points",
              "testconfig.membership_calls", "potentials.jet_calls",
              "quantization.densities", "quantization.pairings",
              "quantization.zoom_calls")



def _npoints(x, trailing=0):
    """Number of points in an array of shape (..., n) (trailing=1) or (...)."""
    shape = np.shape(x)
    if trailing and len(shape) >= trailing:
        shape = shape[:-trailing]
    return int(np.prod(shape)) if shape else 1


def _counters(layer, name):
    """(counters raised per call, (points counter, trailing axes) or None,
    duration counter or None) for one traced name."""
    cls, _, meth = name.rpartition(".")
    calls = [key for key, names in EXTRA_CALLS.items() if name in names]
    if layer in ("generators", "testconfig", "polytope") or cls == "Kernel":
        calls.append(f"{layer}.calls")
    points = None
    if cls == "Kernel":
        points = ("kernels.points", 0)
    elif cls == "PLConvex" or meth in GENERATOR_METHODS:
        points = ("generators.points", 1)
    elif cls in ("Bump1D", "BumpGenerator1D"):
        points = ("generators.points", 0)
    elif meth == "eval_many":
        points = ("smoothing.batch_points", 1)
    timed = TIMED.get(name)
    if layer == "acceptance":
        timed = f"acceptance.{name[:3]}_s"  # c01_beta_norm_oracle -> c01
    return tuple(calls), points, timed


class Tracer:
    def __init__(self):
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.op = array("l")
        self.names = []
        self._name_ids = {}
        self._layer_of = []
        self.stack = []
        self.current_op = -1
        self.counts = Counter()
        self.err_over_tol_max_2d = 0.0
        self.norm_in_pair_s = 0.0
        self._prev_interface = None
        self._patches = []

    # -- spans -----------------------------------------------------------------

    def _name_id(self, layer, name):
        key = f"{layer}:{name}"
        nid = self._name_ids.get(key)
        if nid is None:
            nid = self._name_ids[key] = len(self.names)
            self.names.append(key)
            self._layer_of.append(layer)
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(nid)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer, name, fn, before=None, after=None):
        """fn wrapped in a span plus the name's counters.  before(args,
        kwargs) returns (args, kwargs, state); after(state, args, result,
        span) runs once the span has closed."""
        nid = self._name_id(layer, name)
        calls, points, timed = _counters(layer, name)
        c = self.counts
        tracer = self

        def traced(*args, **kwargs):
            for key in calls:
                c[key] += 1
            if points is not None:
                c[points[0]] += _npoints(args[1], points[1])
            state = None
            if before is not None:
                args, kwargs, state = before(args, kwargs)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if timed is not None:
                c[timed] += tracer.end[idx] - tracer.start[idx]
            if after is not None:
                after(state, args, result, idx)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- hooks that wrap what a call is handed ---------------------------------

    def _hooks(self, name):
        if name in ("adaptive_panels", "integrate_on_panels"):
            return self._panel_hooks(name)
        if name == "TriangleMesh.refine":
            return self._refine_hooks()
        if name == "MonomialDensity._ensure_norm":
            return self._norm_hooks()
        return None, None

    def _panel_hooks(self, name):
        c = self.counts

        def before(args, kwargs):
            f = args[0]

            def driver(x):
                c["quadrature.rule_calls_1d"] += 1
                c["quadrature.points_1d"] += _npoints(x)
                return f(x)
            return (driver, *args[1:]), kwargs, None

        def after(state, args, result, idx):
            c["quadrature.panels_1d"] += len(result[1])
        return before, after if name == "adaptive_panels" else None

    def _refine_hooks(self):
        c = self.counts
        zoom_id = self._name_id("quantization", "zoom_predicate")
        sig = None

        def before(args, kwargs):
            nonlocal sig
            from toricray.quadrature import TriangleMesh
            if sig is None:
                sig = inspect.signature(TriangleMesh.refine.__wrapped__)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            f = bound.arguments["f"]
            calls = []

            def driver(X):
                calls.append(_npoints(X, 1))
                return f(X)
            bound.arguments["f"] = driver
            if bound.arguments["zoom"] is not None:
                pred, target = bound.arguments["zoom"]

                def predicate(tri):
                    c["quantization.zoom_calls"] += 1
                    idx = self._open(zoom_id)
                    try:
                        return pred(tri)
                    finally:
                        self._close(idx)
                bound.arguments["zoom"] = (predicate, target)
            return bound.args, bound.kwargs, (calls, bound.arguments["rel_tol"])

        def after(state, args, result, idx):
            calls, rel_tol = state
            mesh = args[0]
            c["quadrature.points_2d"] += sum(calls)
            # each measure evaluates the four children (28 nodes per leaf),
            # then the parents; the first measure covers the pre-split mesh
            c["quadrature.presplit_leaves_2d"] += calls[0] // 28
            c["quadrature.rounds_2d"] += len(calls) // 2 - 1
            c["quadrature.leaves_2d"] += len(mesh.tris)
            if mesh.value:
                ratio = mesh.err_estimate / (rel_tol * abs(mesh.value))
                self.err_over_tol_max_2d = max(self.err_over_tol_max_2d, ratio)
        return before, after

    def _norm_hooks(self):
        c = self.counts
        pair_id = self._name_id("quantization", "MonomialDensity.pair")

        def before(args, kwargs):
            return args, kwargs, not args[0]._norm_ready

        def after(building, args, result, idx):
            if not building:
                return
            dur = self.end[idx] - self.start[idx]
            c["quantization.densities"] += 1
            c["quantization.norm_s"] += dur
            p = self.parent[idx]
            while p >= 0 and self.name[p] != pair_id:
                p = self.parent[p]
            if p >= 0:  # built lazily inside a pairing: not pairing time
                self.norm_in_pair_s += dur
        return before, after

    def _interface_before(self, args, kwargs):
        gen, x = args[0], args[1]
        prev = self._prev_interface
        repeat = prev is not None and prev[0] is gen and (
            prev[1] is x or (np.shape(prev[1]) == np.shape(x)
                             and np.array_equal(prev[1], x)))
        self._prev_interface = (gen, x)
        self.counts["generators.interface_calls"] += 1
        self.counts["generators.repeat_calls"] += int(repeat)
        return args, kwargs, None

    # -- installing ------------------------------------------------------------

    def install(self):
        import toricray
        from toricray import (acceptance, generators, kernels, limits,
                              polytope, potentials, quadrature, quantization,
                              scenarios, smoothing, testconfig)
        modules = dict(zip(LAYERS, (
            kernels, generators, smoothing, testconfig, polytope, potentials,
            quadrature, quantization, limits, acceptance)))
        namespaces = [toricray, scenarios, *modules.values()]
        criteria = [fn.__name__ for fn in acceptance.ALL_CRITERIA.values()]
        for layer, mod in modules.items():
            for name in TRACED[layer] or criteria:
                before, after = self._hooks(name)
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    self._patch(cls, meth, self.wrap(
                        layer, name, cls.__dict__[meth], before, after))
                    continue
                orig = getattr(mod, name)
                wrapped = self.wrap(layer, name, orig, before, after)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            self._patch(ns, key, wrapped)
                for cid, fn in list(acceptance.ALL_CRITERIA.items()):
                    if fn is orig:
                        self._patch(acceptance.ALL_CRITERIA, cid, wrapped)
        for mod in modules.values():
            for cls in list(vars(mod).values()):
                if (isinstance(cls, type) and issubclass(cls, generators.Generator)
                        and cls.__module__ == mod.__name__):
                    for meth in GENERATOR_METHODS:
                        if meth in cls.__dict__:
                            self._patch(cls, meth, self.wrap(
                                "generators", f"{cls.__name__}.{meth}",
                                cls.__dict__[meth], self._interface_before))

    def _patch(self, container, key, value):
        if isinstance(container, dict):
            self._patches.append((container, key, container[key]))
            container[key] = value
        else:
            self._patches.append((container, key, vars(container)[key]))
            setattr(container, key, value)

    def uninstall(self):
        """Restore every patched name; returns the names left wrong."""
        for container, key, orig in reversed(self._patches):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        wrong = []
        for container, key, orig in self._patches:
            now = container[key] if isinstance(container, dict) \
                else vars(container)[key]
            if now is not orig:
                wrong.append(f"{getattr(container, '__name__', 'dict')}.{key}")
        return wrong

    # -- reduction -------------------------------------------------------------

    def _reduce(self):
        """(name id, duration, self time) per recorded span."""
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        return name, dur, dur - child

    def metrics(self):
        """Per-layer metrics (the keys of UNITS but trace.overhead_s)."""
        name, dur, own = self._reduce()
        layer_ids = np.array([LAYERS.index(l) for l in self._layer_of],
                             dtype=np.int64)
        by_layer = np.bincount(layer_ids[name], weights=own,
                               minlength=len(LAYERS))
        c = self.counts
        out = {key: c[key] for key in UNITS}
        out.update({f"{layer}.self_s": float(by_layer[i])
                    for i, layer in enumerate(LAYERS)
                    if f"{layer}.self_s" in UNITS})
        zoom_id = self._name_ids["quantization:zoom_predicate"]
        pair_id = self._name_ids["quantization:MonomialDensity.pair"]
        out["quantization.zoom_s"] = float(dur[name == zoom_id].sum())
        out["quantization.pair_s"] = float(dur[name == pair_id].sum()
                                           - self.norm_in_pair_s)
        calls = c["generators.interface_calls"]
        out["generators.repeat_pass_frac"] = \
            c["generators.repeat_calls"] / calls if calls else 0.0
        out["quadrature.err_over_tol_max_2d"] = self.err_over_tol_max_2d
        out["trace.spans"] = len(name)
        del out["trace.overhead_s"]
        return out

    def table(self):
        """(name, spans, inclusive s, self s) per traced name, busiest first."""
        name, dur, own = self._reduce()
        k = len(self.names)
        cnt = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=own, minlength=k)
        rows = [(self.names[i], int(cnt[i]), float(incl[i]), float(own[i]))
                for i in range(k) if cnt[i]]
        return sorted(rows, key=lambda r: -r[3])
