"""Adaptive quadrature engines.

Panels: adaptive 7/15 Gauss-Kronrod (GK15) panels refined by level-by-level
bisection, for many independent integrals ("groups") at once.  A panel
holds the 15 Kronrod nodes; its value is the K15 sum and its error
|K15 - G7|, the 7-point Gauss rule on every other node of the same values,
so a split costs 30 evaluations and reuses none.  Panels live in flat
arrays, and each level measures the new panels of every group with one call
of the integrand.  A group's scale is the K15 integral of |f| (or of
magnitudes the integrand supplies), which is |total| for a one-signed
integrand and stays positive where the total cancels to zero.  Each round
splits, in every group whose summed error exceeds rel_tol * scale + 1e-300,
each panel whose error exceeds max(rel_tol * scale / n_panels,
1e-18 * scale + 1e-300) and which is at least 1e-15 wide.  Each split adds
one panel, so a round splits at most the group's remaining budget of
``MAX_PANELS`` panels, read at call time, largest errors first, and no
group exceeds its budget.  Every group sums with one bincount in panel
order, so it gets the same panels and bits alone as among others.  The
engine returns the nodes, K15 weights and integrand values of every final
panel, the rule its totals are summed with, so callers reuse them instead
of evaluating the integrand again.
``adaptive_panels`` is the one-group form.  K15 is the package's one
15-node rule: ``panel_nodes`` builds the nodes and weights of any panels,
for the engine and for the fixed grids of ``integrate_on_panels``, the
mollifier's outer level, the metric lengths and the kernel tables.

Polytopes: ``integrate_polytope`` cuts the panels at exact breakpoints: the
facets of P and the caller's hyperplanes (the ends of a generator's support
slabs).  Between them the integrand is smooth, so nothing is sampled to
find where it concentrates; a point (the integrand's peak) adds one cut per
variable.  Where the caller hands the curvature of -log f at the peak m
(its Hessian there), Laplace's method (Wong 1989) gives the peak's widths
w_j and mass before any node, and the engine alone decides what they
seed.  The widths bring the ladder m_j +- w_j 2^k, k = 0..3, in 1-D
always and above only where it fits the slice through m: the panels
start at the scales of the peak, which bisection would reach one level
at a time.  An inner level cuts only the slices near the peak at the
ladder, where the widths put the slice's Gaussian mass at least rel_tol
times the peak slice's, and no ladder takes a row past its budget.  The
mass sets the floor of the outermost level's first round (below).  It
integrates a family of k integrands f(X, i) that share P and the
hyperplanes, each cut at its own peak and ladder, as independent groups
of one refinement: every level calls f once on the new nodes of all the
members, and each member keeps its own panels, scale, floor, budget and
verdict.
One integrand is the family of one.  The integral is iterated in x1, ...,
xn, in every dimension, by one recursive level with a group per fixed
prefix (x1, ..., x_{j-1}), each prefix row carrying its member.  Where a
set of n - j + 1 hyperplanes meets in one point at a fixed prefix (an
exact pivot of ``row_reduce`` on their integer rows), that point's x_j and
the facet values there are affine in the prefix (Schechter 1998).  By one
rule, each level runs from the least to the greatest such point of facets
alone, cut at each one where no facet value is negative.  An outer level's
integrand is the level below, called once per round on its new nodes, and
the innermost level calls f.  Final panels stay rows of 15 nodes through the
levels, rows under nodes off the final panels are dropped, and the nodes
(N, n) are built once, then split into one ``NodeSet`` per member by one
stable sort (none for a family of one).  A level's error estimate is its
own plus the weighted errors of the levels below.  An inner integral stops
once its error is within the larger of rel_tol times its own scale and a
floor its outer group hands it: that group's tolerance (rel_tol times its
current integral of |f|, or the floor it was handed, whichever is larger)
over the length of its range (Fritsch, Kahaner and Lyness 1981).  So the
slices the outer integral cannot see stop early, and the weighted errors
of an inner level sum to at most the outer tolerance.  The floor is a
member's own, so a family member keeps its lone integral's bits.  The
outermost level's first round, fresh or seeded, hands down rel_tol times
the integral of |f| known before any node: a repair's (below) from its
rule's nodes, the Laplace mass of a member's curvature, or none; every
stop test reads the measured integral.  Each integral along one variable
has a budget of ``MAX_PANELS`` panels.  A ``NodeSet`` keeps, for every
level, the final panel above each node, its ends and the node's share of
that panel's K15 - G7 difference.  ``pair_all`` sums
f_i * tau on the nodes of each (rule, tau) it is given, with that
estimate over every level, and repairs the pairings that miss the
verdict: their refinement goes on from the rule's final panels at every
level, whose values are the products on the rule's nodes, as one family
of f_i * tau per family of rules, on the same cuts, end maps, rel_tol and
budget.  Only the children of split panels and the inner integrals under
new outer nodes call f_i * tau.  A tau may carry ``cuts`` (n, c), its
breakpoints in each variable (the battery's bump ends its support there,
where it is not analytic): as QUADPACK's QAGP takes known break points
(Piessens et al. 1983), the repair's first round replaces each seeded
panel that a cut of its tau crosses by its pieces, and cuts the slices
under their new nodes there too, instead of bisecting down to the cuts.
It is the one place that refines again after a missed estimate, and the
one pairing of a rule.

End maps: a member may behave like ell_r^e times a smooth function near
facet r, with e = k/q an exact rational (``exponents``), where bisection
converges only algebraically.  Where q > 1 the innermost level measures
each chord piece that ends on facet r in u, with x = a + (b - a) t^q and
t = (u - a) / (b - a), a the chord's end and b the nearest cut: then
(x - a)^(k/q) dx/du is a polynomial in t (Davis and Rabinowitz 1984).
The map is monotone and fixes the piece's ends, so the cuts, the panels,
``owners``, ``diffs`` and the verdict are those in x; only the innermost
driver maps its nodes and multiplies by dx/du, and a ``NodeSet`` keeps the
x nodes, the weights times dx/du and the innermost panel ends in u, from
which a repair maps the nodes again.  A chord with no cut inside and both
ends mapped is cut at its midpoint.  Each end's facet is the facet whose
meeting point gives that end.  The outer levels' ends, at the projections
of vertices, are not mapped.

One verdict: ``integrate_polytope``, the one integrator other modules call,
``pair_all`` and ``adaptive_panels`` raise QuadratureError when a
result or its error is not finite, or ends above
ALLOWANCE * rel_tol * (integral of |f|) + 1e-300.

TriangleMesh, an adaptive degree-5 triangle mesh over a convex polygon, is
an independent 2-D reference for the panels; each leaf stores a one-level
and a four-child rule value, whose difference drives refinement.  Nothing
in the package calls it.
"""

from __future__ import annotations

import functools
import math
import numbers
from itertools import combinations
from typing import NamedTuple

import numpy as np

from ._exact import integer_row, row_reduce
from .columns import row_any, row_max, row_min

__all__ = [
    "adaptive_panels", "integrate_on_panels", "panel_nodes", "integrate_1d",
    "log_integral_1d", "refine_groups", "integrate_polytope", "pair_all",
    "Panels", "NodeSet", "TriangleMesh", "polygon_mesh", "QuadratureError",
    "MAX_PANELS", "ALLOWANCE", "REL_TOL",
]

# the panel budget of one integral
MAX_PANELS = 20000
# the default relative tolerance of an integral
REL_TOL = 1e-10
# added to error bounds and scales, so that a zero integral meets its bound
_UNDERFLOW = 1e-300
# the least error, relative to its group's scale, of a panel that is split
_SPLIT_FLOOR = 1e-18
# the narrowest panel that is split: its halves' nodes would collide
_MIN_WIDTH = 1e-15
# the most a returned error may be, in units of rel_tol * integral of |f|
ALLOWANCE = 50.0
# a member's cuts about its peak, in units of its width
_LADDER = np.array([-8.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0])


class QuadratureError(RuntimeError):
    pass


# the 7/15 Gauss-Kronrod pair on [-1, 1] of QUADPACK's qk15 (Kronrod 1965;
# Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner 1983), as the reprs
# of its 33-digit constants: K15's nodes and weights, and G7's weights on
# the same nodes, 0 on the seven Kronrod nodes that G7 lacks
GK15_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.20778495500789848, 0.0, 0.20778495500789848, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126])
GK15_WEIGHTS = np.array([
    0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
    0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
    0.20443294007529889, 0.20948214108472782, 0.20443294007529889,
    0.19035057806478542, 0.1690047266392679, 0.14065325971552592,
    0.10479001032225019, 0.06309209262997856, 0.022935322010529224])
G7_WEIGHTS = np.array([
    0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0,
    0.3818300505051189, 0.0, 0.4179591836734694, 0.0, 0.3818300505051189,
    0.0, 0.27970539148927664, 0.0, 0.1294849661688697, 0.0])
# the nodes on [0, 1], and K15, K15 - G7 and K15 again on [0, 1] side by
# side, so that one product gives a panel's value, its error and the value
# of its magnitudes where the integrand is nonnegative
_GK15_UNIT = 0.5 * (1.0 + GK15_NODES)
_GK15_SUMS = 0.5 * np.column_stack([GK15_WEIGHTS, GK15_WEIGHTS - G7_WEIGHTS,
                                    GK15_WEIGHTS])
# each node's share of K15 - G7 per unit of its K15 weight
_GK15_RATIO = 1.0 - G7_WEIGHTS / GK15_WEIGHTS


def panel_nodes(lo, hi):
    """K15 nodes and weights, each (k, 15), of the panels [lo_i, hi_i]."""
    lo = np.asarray(lo, dtype=float)
    width = np.asarray(hi, dtype=float) - lo
    return _nodes(lo, width), width[:, None] * _GK15_SUMS[:, 0]


def _nodes(lo, width):
    """The K15 nodes (k, 15) of the panels of the given lo and width."""
    return lo[:, None] + width[:, None] * _GK15_UNIT


class Panels(NamedTuple):
    """Final panels of ``refine_groups``, in no particular order.

    ``nodes``, ``weights``, ``values`` and ``pos`` are (k, 15): the GK15
    nodes of each panel, their K15 weights, the integrand's values and the
    index of each node among all the points the integrand was called on, in
    call order.  ``total`` and ``err`` hold one entry per group.
    """
    lo: np.ndarray
    hi: np.ndarray
    group: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    pos: np.ndarray
    total: np.ndarray
    err: np.ndarray


def _cut(lo, hi, cuts):
    """Panels (a, b, group) of the intervals [lo_g, hi_g], each cut at the
    entries of its row of ``cuts`` that lie strictly inside it.  An empty
    interval (lo_g >= hi_g) gives no panel."""
    # a cut outside the interval (or nan) makes an empty panel at an end
    lo_, hi_ = lo[:, None], hi[:, None]
    cuts = np.sort(np.concatenate([lo_, np.minimum(np.maximum(
        cuts, lo_), hi_), hi_], axis=1), axis=1)
    a, b = cuts[:, :-1], cuts[:, 1:]
    keep = (b > a) & (hi > lo)[:, None]
    return a[keep], b[keep], np.nonzero(keep)[0]


def refine_groups(f, lo, hi, group, n_groups: int, *,
                  rel_tol: float = REL_TOL):
    """Refine the panels [lo_i, hi_i] of ``n_groups`` independent integrals.

    ``f(x, g)`` maps 1-D points and the group of each to values, or to a
    pair (values, magnitudes), and is called once per level.  Group g is
    refined until its summed error is at most rel_tol * scale_g + 1e-300,
    or it has nothing left to split within its budget of ``MAX_PANELS``
    panels.  scale_g is the integral of the magnitudes, |values| unless f
    gives them, so it stays positive where the integral of f cancels to
    zero.  Returns ``Panels``.
    """
    return _refine(lambda x, g, _: f(x, g), lo, hi, group, n_groups,
                   rel_tol, np.zeros(n_groups))


def _lengths(lo, hi, group, n_groups):
    """The summed length of each group's panels, inf for an empty group,
    which computes no integral."""
    length = np.bincount(group, hi - lo, n_groups)
    length[length == 0.0] = np.inf
    return length


def _refine(f, lo, hi, group, n_groups, rel_tol, floor, known=None):
    """``refine_groups``, where ``floor`` (n_groups,) is an absolute
    tolerance each group may stop at: group g's tolerance T_g is the larger
    of rel_tol * scale_g and floor_g, so a zero floor leaves rel_tol *
    scale_g.  f is called as f(x, g, hand), ``hand`` (n_groups,) the floor
    each group hands to the integrals f computes for its nodes: T_g over
    the length of g's interval, floor_g over it before g has a scale.
    ``known``, what f would give on the 15 nodes of each given panel, in
    their order, spares that first call (``_level`` makes it, with the
    floor it knows before any node), so that only the children of split
    panels call f."""
    outs, called, budget = [], 0, MAX_PANELS
    length = _lengths(lo, hi, group, n_groups)

    def measure(ends, tol, vals=None):
        """Columns of the panels whose lo, hi and group are the rows of
        ``ends``, from one call of f on their GK15 nodes or from ``vals``
        given there: lo, hi, group, the K15 value, |K15 - G7|, the K15 value
        of the magnitudes and the position of each panel's first node among
        all the points f was called on or given.  ``tol`` is each group's
        tolerance."""
        nonlocal called
        width = ends[1] - ends[0]
        if vals is None:
            vals = f(_nodes(ends[0], width).ravel(),
                     ends[2].astype(np.intp).repeat(15), tol / length)
        vals, mags = vals if isinstance(vals, tuple) else (vals, None)
        vals = np.asarray(vals, dtype=float).reshape(-1, 15)
        sums = (vals @ _GK15_SUMS) * width[:, None]
        np.abs(sums[:, 1], out=sums[:, 1])
        # a nonnegative f is its own magnitude
        if mags is not None or np.minimum.reduce(vals, axis=None,
                                                 initial=0.0) < 0.0:
            mags = np.abs(vals) if mags is None else \
                np.asarray(mags, float).reshape(-1, 15)
            sums[:, 2] = width * (mags @ _GK15_SUMS[:, 0])
        first = np.arange(called, called + vals.size, 15)
        called += vals.size
        outs.append(vals.ravel())
        return np.concatenate([ends, sums.T, first[None]])

    cols = measure(np.array([lo, hi, group], dtype=float), floor, known)
    while True:
        lo, hi, g, value, err, mass = cols[:6]
        g = g.astype(np.intp)
        n_panels = np.bincount(g, minlength=n_groups)
        err_total, scale = (np.bincount(g, v, n_groups) for v in (err, mass))
        tol = np.maximum(rel_tol * scale, floor)
        live = err_total > tol + _UNDERFLOW
        if not live.any():
            break
        # the error a panel must exceed to be split: inf once its group has
        # converged
        least = np.where(live, np.maximum(tol / np.maximum(n_panels, 1),
                                          _SPLIT_FLOOR * scale + _UNDERFLOW),
                         np.inf)[g]
        split = np.nonzero((err > least) & (hi - lo >= _MIN_WIDTH))[0]
        if split.size > budget - len(lo):
            # largest errors first, at most the room left in each group,
            # then back in panel order
            split = split[np.lexsort((-err[split], g[split]))]
            gs = g[split]
            split = np.sort(split[np.arange(len(split))
                                  - np.searchsorted(gs, gs)
                                  < budget - n_panels[gs]])
        if split.size == 0:
            break
        # a split panel's halves are its children: one call measures them
        k = len(split)
        ends = cols[:3, np.concatenate([split, split])]
        ends[1, :k] = ends[0, k:] = 0.5 * (ends[0, :k] + ends[1, k:])
        children = measure(ends, tol)
        # the left child takes its parent's place, the right one is appended
        cols[:, split] = children[:, :k]
        cols = np.concatenate([cols, children[:, k:]], axis=1)
    total = np.bincount(g, value, n_groups)
    pos = cols[6, :, None].astype(np.intp) + np.arange(15)
    # the final panels' nodes again, the very points f was called on
    nodes, weights = panel_nodes(lo, hi)
    return Panels(lo, hi, g, nodes, weights, np.concatenate(outs)[pos], pos,
                  total, err_total)


def _verdict(value, err, weights, values, rel_tol, reason="missed"):
    """The module's verdict on an integral summed on weights and values:
    None when it passes, else what is wrong with it."""
    if not (math.isfinite(value) and math.isfinite(err)):
        return f"is not finite: {value} with error {err}"
    scale = float(np.add.reduce(weights * np.abs(values)))
    if err > ALLOWANCE * rel_tol * scale + _UNDERFLOW:
        return (f"{reason}: relative error {err / max(scale, _UNDERFLOW):.2e} "
                f"(tolerance {rel_tol})")
    return None


def _judge(what, value, err, weights, values, rel_tol, reason):
    """Raise QuadratureError when the verdict fails the integral."""
    miss = _verdict(value, err, weights, values, rel_tol, reason)
    if miss is not None:
        raise QuadratureError(f"{what} {miss}")


def adaptive_panels(f, a: float, b: float, *, rel_tol: float = REL_TOL,
                    seeds=()):
    """Refine [a, b] into GK15 panels: ``refine_groups`` with one group.

    ``f`` maps a 1-D array of points to values and is called once per
    level.  ``seeds`` are interior split points inserted before adaptivity
    starts.  Raises QuadratureError by the module's verdict: the budget ran
    out, or every panel left to split is narrower than the 1e-15 width
    floor.

    Returns (value, panels) where panels is the list of (lo, hi) intervals
    at convergence, sorted by lo.
    """
    if not b > a:
        raise QuadratureError(f"empty interval [{a}, {b}]")
    res = refine_groups(lambda x, g: f(x), *_cut(
        np.array([a], dtype=float), np.array([b], dtype=float),
        np.array(seeds, dtype=float).reshape(1, -1)), 1, rel_tol=rel_tol)
    total = float(res.total[0])
    _judge("interval integral", total, float(res.err[0]), res.weights.ravel(),
           res.values.ravel(), rel_tol,
           f"exhausted {MAX_PANELS} panels" if len(res.lo) >= MAX_PANELS
           else f"stopped at the {_MIN_WIDTH:g} panel width floor on "
           f"{len(res.lo)} panels")
    order = np.argsort(res.lo)
    return total, list(zip(res.lo[order].tolist(), res.hi[order].tolist()))


def integrate_on_panels(f, panels):
    """Sum of K15 on the given (lo, hi) panels, with one call of f."""
    nodes, weights = panel_nodes(*np.asarray(panels, dtype=float)
                                 .reshape(-1, 2).T)
    return math.fsum(weights.ravel()
                     * np.asarray(f(nodes.ravel()), dtype=float))


def integrate_1d(f, a, b, *, rel_tol=REL_TOL, seeds=()):
    value, _ = adaptive_panels(f, a, b, rel_tol=rel_tol, seeds=seeds)
    return value


def log_integral_1d(log_f, a, b, *, rel_tol=REL_TOL, seeds=()):
    """log of integral of exp(log_f) over [a, b], max-factored for stability.

    The reference level is the largest finite log_f over a, b and the
    seeds.  The caller seeds a maximiser of log_f, so exp(log_f - ref) never
    overflows for peaked integrands; QuadratureError is raised when log_f is
    finite at none of these points.  Returns (log_value, panels, ref).
    """
    probe = np.array([a, b, *(s for s in seeds if a <= s <= b)], dtype=float)
    vals = np.asarray(log_f(probe), dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise QuadratureError("log integrand is finite at no endpoint or seed")
    ref = float(vals.max())

    def f(x):
        with np.errstate(over="ignore"):
            return np.exp(np.asarray(log_f(x), dtype=float) - ref)

    value, panels = adaptive_panels(f, a, b, rel_tol=rel_tol, seeds=seeds)
    if value <= 0:
        raise QuadratureError("integral underflowed to zero")
    return ref + math.log(value), panels, ref


# ---------------------------------------------------------------------------
# polytopes: (iterated) panels cut at exact breakpoints
# ---------------------------------------------------------------------------

class NodeSet(NamedTuple):
    """Final nodes of one member of ``integrate_polytope``: points (N, n),
    rule weights and integrand values (N,), the integral, its error
    estimate and the count of final innermost panels, N / 15.  The nodes
    and weights are those of x, also where an end map measured the
    innermost level in u.  ``owners`` and ``diffs`` (N, n) hold, for each
    level of the iterated rule (x1 first), the final panel of that level
    each node lies under and the node's weight in that panel's K15 - G7
    difference, so that ``pair_all`` gives f times any test function the
    estimate f got.  ``ends`` (N / 15, n, 2) holds, for each final
    innermost panel (15 nodes in a row) and each level, the lo and hi of
    the final panel it lies under, in u where the innermost level measured
    in u, and ``slots`` (N / 15, n - 1) the place of its node of each outer
    level among the 15 of that level's panel, so that ``pair_all`` can go on
    refining from the final panels.  ``rel_tol`` is the call's tolerance,
    ``family`` the call's integrand f(X, i), P, lines, each member's cuts
    (its peak and ladder) and the exponents' denominators (see
    ``_level``), and ``member`` the index i of this member."""
    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray
    value: float
    err: float
    panels: int
    owners: np.ndarray
    diffs: np.ndarray
    ends: np.ndarray
    slots: np.ndarray
    rel_tol: float
    family: tuple
    member: int


def pair_all(pairings):
    """(integral, error estimate) of f * tau for each (NodeSet, tau) in
    ``pairings``, f the integrand of the NodeSet's member.  Each is summed
    on the rule's nodes, with the estimate of every level: the sum over the
    level's final panels of |K15 - G7| of the integral below them.  A
    pairing that misses the module's verdict is repaired: the refinement of
    f * tau goes on from its rule's final panels, at every level, with the
    values f * tau has on the rule's nodes, on the rule's cuts, end maps
    and rel_tol (see ``_level``); the first round splits the panels that
    the ``cuts`` of tau (n, c), where it has them, cross in their variable.
    The misses of the rules of one ``integrate_polytope`` call are repaired
    together, as the members of one family whose levels call each distinct
    tau once, and each gets the bits of its lone repair.  Raises
    QuadratureError by the verdict."""
    pairings = list(pairings)
    out, missed = [], {}
    for r, (rule, tau) in enumerate(pairings):
        values = rule.values * tau(rule.nodes)
        # a reduction whose order does not depend on BLAS threads
        value = float(np.add.reduce(rule.weights * values))
        # each level's bins summed in order, so that the empty bins of the
        # other members of a family add exact zeros
        err = math.fsum(np.cumsum(np.abs(np.bincount(own, d * values, 1)))[-1]
                        for own, d in zip(rule.owners.T, rule.diffs.T))
        out.append((value, err))
        if _verdict(value, err, rule.weights, values, rule.rel_tol):
            missed.setdefault(id(rule.family), []).append((r, values))
    for misses in missed.values():
        rs, values = zip(*misses)
        for r, res in zip(rs, _repair([pairings[r] for r in rs], values)):
            out[r] = res
    return out


def _repair(pairings, values):
    """(integral, error estimate) of f * tau for each (rule, tau) of
    ``pairings``, rules of one family, as one family whose member r goes on
    from the final panels of rule r, on whose nodes f * tau has the values
    ``values[r]``."""
    rules, taus = zip(*pairings)
    f, P, lines, cuts, powers = rules[0].family
    members = np.array([rule.member for rule in rules])
    k, rel_tol = len(rules), rules[0].rel_tol
    # each row's integral of |f * tau| on its rule's nodes
    scales = np.array([float(np.add.reduce(rule.weights * np.abs(v)))
                       for rule, v in zip(rules, values)])
    own, total, err, _, _, _, w, v, _ = _level(
        _times(f, members, taus), _maps(P, lines), cuts[members],
        None if powers is None else powers[members], np.arange(k),
        np.empty((k, 0)), rel_tol, np.zeros(k), _seed(rules, values), scales,
        _breaks(taus, P.dim))
    _members(own, total, err, rel_tol, f"{P.dim}-D polytope integral", [w, v])
    return list(zip(total.tolist(), err.tolist()))


def _breaks(taus, n):
    """The breakpoints (k, n, c) of each tau in each variable, its ``cuts``
    (n, c'), nan where it has fewer or none; None when no tau has any."""
    cuts = [getattr(tau, "cuts", None) for tau in taus]
    widths = [np.shape(c)[1] for c in cuts if c is not None]
    if not widths:
        return None
    breaks = np.full((len(taus), n, max(widths)), np.nan)
    for row, c in zip(breaks, cuts):
        if c is not None:
            row[:, :np.shape(c)[1]] = c
    return breaks


def _seed(rules, values):
    """The seed of ``_level`` (see there) that starts row r from the final
    panels of ``rules[r]``, on whose nodes the integrand has ``values[r]``.
    Each row's panels of a level keep the order the rule had them in."""
    ends = np.concatenate([rule.ends for rule in rules])
    slots = np.concatenate([rule.slots for rule in rules])
    panel = np.concatenate([rule.owners[::15] for rule in rules])
    row = np.arange(len(rules)).repeat([len(rule.ends) for rule in rules])
    levels = []
    for j in range(ends.shape[1] - 1):
        # each row's distinct panels, by their index among the final panels
        _, first, local = np.unique(row * (panel[:, j].max() + 1)
                                    + panel[:, j], return_index=True,
                                    return_inverse=True)
        levels.append((ends[first, j, 0], ends[first, j, 1], row[first]))
        # the row of the level below is the node it lies under
        row = 15 * local + slots[:, j]
    seed = np.concatenate(values)
    for a, b, g in reversed([*levels, (ends[:, -1, 0], ends[:, -1, 1], row)]):
        seed = (a, b, g, seed)
    return seed


def _times(f, members, taus):
    """The family integrand f(X, members[i]) * taus[i](X), each distinct
    tau (by identity) called once on the rows of every member paired with
    it."""
    fns = list({id(tau): tau for tau in taus}.values())
    index = {id(fn): k for k, fn in enumerate(fns)}
    which = np.array([index[id(tau)] for tau in taus])

    def g(X, i):
        if len(fns) == 1:
            return f(X, members[i]) * fns[0](X)
        j = which[i]
        order = np.argsort(j, kind="stable")
        ends = np.searchsorted(j[order], np.arange(len(fns) + 1))
        tau = np.empty(len(X))
        for fn, a, b in zip(fns, ends[:-1], ends[1:]):
            tau[order[a:b]] = fn(X[order[a:b]])
        return f(X, members[i]) * tau
    return g


def _members(own, total, err, rel_tol, what, rows):
    """The bounds of each member's final innermost panels among those of a
    family, and ``rows`` (the weights and values (R, 15) first, then any
    arrays with a row per panel) in the order that puts each member's panels
    together, in the order they had.  Raises QuadratureError when the
    verdict fails a member."""
    k = len(total)
    if k == 1:
        bounds = (0, len(own))
    else:
        order = np.argsort(own, kind="stable")
        rows = [a[order] for a in rows]
        bounds = np.searchsorted(own[order], np.arange(k + 1))
    weights, values = rows[:2]
    for i, a, b in zip(range(k), bounds[:-1], bounds[1:]):
        _judge(what, float(total[i]), float(err[i]),
               weights[a:b].ravel(), values[a:b].ravel(), rel_tol,
               f"did not converge at {b - a} panels, with a budget of "
               f"{MAX_PANELS} panels per integral")
    return bounds, rows


def _maps(P, lines):
    """The exact cut maps of P and of the hyperplanes (nu, c) of
    ``lines``."""
    return _slice_maps(P.facet_rows, tuple(tuple(map(float, (*nu, c)))
                                           for nu, c in lines))


def integrate_polytope(f, P, *, lines=(), points=None, curvatures=None,
                       exponents=None, rel_tol: float = REL_TOL):
    """Integral of f over the polytope P on iterated GK15 panels.

    ``f`` maps points (k, n) to values.  The breakpoints are the facets of
    P and the hyperplanes {nu . x = c} given as (nu, c) pairs in ``lines``;
    between them f should be smooth.  The integral is iterated in x1, ...,
    xn by ``_level``, and each integral along one variable has a budget of
    ``MAX_PANELS`` panels, read at call time.  Raises QuadratureError by
    the module's verdict, so a returned estimate has met its tolerance.
    Returns a ``NodeSet``.

    Given ``points`` (k, n), it integrates a family of k integrands over
    P, one per row of ``points``, its peak: each panel of member i is also
    cut at the coordinate of row i in its variable.  ``curvatures``
    (k, n, n), the Hessian of -log f_i at each member's peak m, where f_i
    peaks at 1, seeds the member by Laplace's method (``_laplace``): where
    it is positive definite and m is interior, the widths w_j add the cuts
    m_j +- w_j 2^k, k = 0..3 (in 2-D and above only where the ladder fits
    the slice through m), on the slice through the peak and on each slice
    of an inner level whose prefix lies within sum_i ((x_i - m_i) / w_i)^2
    <= 2 ln(1 / rel_tol), where a Gaussian of these widths keeps at least
    rel_tol of its peak slice's mass; a row whose cuts inside would leave
    more than ``MAX_PANELS`` panels drops its ladder.  The Gaussian's mass
    sets only the floor the first round of the outermost level hands the
    slices below it (see ``_level``); the stop test reads the measured
    integral, so a wrong curvature changes only the cost, and a member
    without widths or mass keeps its bits.
    ``f(X, i)`` then maps points and the member i of each to values, and
    the members refine as independent groups of one pass, each with its
    own panels, budget and verdict.  Returns one ``NodeSet`` per member.
    The one integrand is the family of one.

    ``exponents`` (k, facets), exact rationals (ints or ``Fraction``s)
    above -1, say that member i behaves like ell_r^e_ir times a smooth
    function near facet r; the one integrand is member 0.  Where e_ir has
    a denominator q > 1, the innermost level maps each chord piece that
    ends on facet r (see ``_level``).  Raises ValueError, naming the member
    and the facet, for an entry that is not an exact rational above -1.
    """
    one = points is None
    if one:
        # the family of one; a nan peak cuts nothing
        lone, points = f, [np.full(P.dim, np.nan)]
        f = lambda X, i: lone(X)
    points = np.asarray(points, dtype=float)
    k, n = points.shape
    powers = _end_powers(exponents, k, len(P.normals))
    maps = _maps(P, lines)
    # each member's cuts (k, n, c) in each variable: its peak, then the
    # ladder of its width
    cuts, mass = points[..., None], 0.0
    if curvatures is not None:
        curvatures = np.asarray(curvatures, dtype=float)
        if curvatures.shape != (k, n, n):
            raise ValueError(f"curvatures must be a {(k, n, n)} array, a "
                             f"matrix per member, not {curvatures.shape}")
        widths, mass = _laplace(P, maps, points, curvatures)
        if widths is not None:
            cuts = np.concatenate([cuts, cuts + widths[..., None] * _LADDER],
                                  2)
    # the outermost level is handed a zero floor, from which it hands its
    # own down
    own, total, err, head, ids, x, weights, values, ends = _level(
        f, maps, cuts, powers, np.arange(k), np.empty((k, 0)), rel_tol,
        np.zeros(k), scale=mass)
    bounds, (weights, values, head, ids, x, ends) = _members(
        own, total, err, rel_tol, f"{n}-D polytope integral",
        [weights, values, head, ids, x, ends])
    nodes = np.empty((*x.shape, n))
    nodes[..., :-1] = head[:, None]
    nodes[..., -1] = x
    slots = ids % 15
    # each node's index among the final nodes of every level, 15 a panel
    ids = np.column_stack([ids.repeat(15, axis=0), np.arange(x.size)])
    nodes, weights, values = (a.reshape(-1, *a.shape[2:]) for a in (
        nodes, weights, values))
    owners, diffs = ids // 15, weights[:, None] * _GK15_RATIO[ids % 15]
    family = (f, P, lines, cuts, powers)
    out = []
    for i, a, b in zip(range(k), bounds[:-1], bounds[1:]):
        rows = slice(15 * a, 15 * b)
        out.append(NodeSet(nodes[rows], weights[rows], values[rows],
                           float(total[i]), float(err[i]), int(b - a),
                           owners[rows], diffs[rows], ends[a:b], slots[a:b],
                           rel_tol, family, i))
    return out[0] if one else out


def _end_powers(exponents, k, n_facets):
    """The denominators q (k, n_facets) of ``exponents``, exact rationals,
    None when every q is 1 (or no exponents are given); raises ValueError
    for a wrong shape, or an entry that is not an exact rational above
    -1."""
    if exponents is None:
        return None
    try:
        e = np.array(exponents, dtype=object)
    except ValueError:
        e = None
    if e is None or e.shape != (k, n_facets):
        raise ValueError(f"exponents must be a ({k} members, {n_facets} "
                         f"facets) array, not {np.shape(e)}")
    q = []
    for at, v in enumerate(e.flat):
        if isinstance(v, bool) or not isinstance(v, numbers.Rational):
            what = "is not an exact rational"
        elif v.numerator <= -v.denominator:
            what = "is not integrable: it is at most -1"
        else:
            q.append(v.denominator)
            continue
        i, r = divmod(at, n_facets)
        raise ValueError(f"exponent {v} of member {i} at facet {r} {what}")
    return np.reshape(q, e.shape) if max(q, default=1) > 1 else None


def _end_pieces(lo, hi, cuts, q_lo, q_hi):
    """The end pieces of the chords [lo_g, hi_g], None when no end is
    mapped: each chord's last cut strictly inside (lo_g where there is
    none, hi_g where its upper end is not mapped), which decides a node's
    side, for each end (2g the lower, 2g + 1 the upper) the end a, the
    signed length b - a of its piece to the nearest cut b inside (the other
    end where there is none) and its power q, 1 where it is not mapped,
    and whether each chord has a mapped end; and the cuts, with one more
    at the midpoint of each chord with no cut inside and both ends mapped,
    nan on the others."""
    mapped = (q_lo > 1) | (q_hi > 1)
    if not mapped.any():
        return None, cuts
    inside = (cuts > lo[:, None]) & (cuts < hi[:, None])
    first = np.minimum(row_min(np.where(inside, cuts, np.inf)), hi)
    last = np.maximum(row_max(np.where(inside, cuts, -np.inf)), lo)
    mid = np.where((q_lo > 1) & (q_hi > 1) & ~row_any(inside),
                   0.5 * (lo + hi), np.nan)
    halved = ~np.isnan(mid)
    first[halved] = last[halved] = mid[halved]
    # an end that is not mapped has no piece, which the other end's piece
    # may overlap
    last = np.where(q_hi > 1, last, hi)
    ends, spans, powers = (np.column_stack(c).ravel() for c in (
        (lo, hi), (first - lo, last - hi), (q_lo, q_hi)))
    return ((last, ends, spans, powers.astype(float), mapped),
            np.concatenate([cuts, mid[:, None]], axis=1))


def _end_map(u, g, pieces):
    """x and dx/du at the points u of the groups g: on the end piece
    between a chord end a and its nearest cut b, of power q > 1,
    x = a + (b - a) t^q with t = (u - a) / (b - a), so that
    (x - a)^(k/q) dx/du is a polynomial in t; x = u and dx/du = 1 off the
    mapped pieces, and only the points of groups with a mapped end are
    computed.  Only exactly rounded operations, so that a point gets the
    same bits in any family."""
    last, ends, spans, powers, mapped = pieces
    x, jac = u.copy(), np.ones(len(u))
    at = np.flatnonzero(mapped.take(g))
    u, g = u[at], g[at]
    side = 2 * g + (u > last.take(g))
    a, span, q = ends.take(side), spans.take(side), powers.take(side)
    t = (u - a) / span
    # between the end pieces t >= 1, and nothing is mapped
    q = np.where(t < 1.0, q, 1.0)
    # t^(q - 1), one factor of t per power still owed
    power = np.ones(len(t))
    for e in range(1, int(q.max(initial=1.0))):
        power = np.where(q > e, power * t, power)
    x[at] = np.where(q > 1.0, a + span * (power * t), u)
    jac[at] = q * power
    return x, jac


@functools.lru_cache(maxsize=64)
def _slice_maps(facets, lines):
    """Per level j, the maps (cut, values, ends, facet) of the S sets of
    n - j hyperplanes, rows made exact integers, on whose columns x_{j+1},
    ..., x_n ``row_reduce`` pivots: at a prefix row p, x_{j+1} is
    cut[-1] - p @ cut[:-1] at each set's meeting point, and its F facet
    values times a positive integer are p @ values[:-1] - values[-1]
    (S * F, set-major).  ``ends`` are the sets of facets alone, ``facet``
    their first facets; equal arguments share the arrays, never written."""
    n, F = len(facets[0]) - 1, len(facets)
    rows, maps = [*facets, *(integer_row(r)[0] for r in lines)], []
    for j in range(n):
        # the unknowns x_{j+1}, ..., x_n first, then the prefix and 1
        m, order = n - j, [*range(j, n), *range(j), n]
        level = [[r[c] for c in order] for r in rows]
        cut, values, facet = [], [], []
        for S in combinations(range(len(rows)), m):
            ech = row_reduce([level[s] for s in S], n + 1)
            if ech.pivots == tuple(range(m)):
                # x_{j+i+1} = (R_i[n] - R_i[m:n] . p) / D, and D^2 times a
                # facet value is u[m:n] . p - u[n], u = D (D W - sum W_i R_i)
                R, D = ech.rows, ech.det
                facet.append(S[0] if S[-1] < F else -1)
                cut.append([a / D for a in R[0][m:]])
                values += ([D * (D * w - sum(a * r[t] for a, r in zip(W, R)))
                            for t, w in enumerate(W[m:], m)]
                           for W in level[:F])
        ends = np.flatnonzero(np.array(facet) >= 0)
        maps.append((*(np.array(a, dtype=float).reshape(-1, j + 1).T
                       for a in (cut, values)), ends, np.array(facet)[ends]))
    return maps


def _slice(maps, prefix):
    """The slice of P at each row of ``prefix`` (k, j) in x_{j+1}: its ends
    (lo, hi), the least and the greatest meeting point of facets alone (nan
    where it is empty), its cuts (k, S), each meeting point where no facet
    value is negative (nan at the others), and the facets of its ends."""
    cut, values, ends, facet = maps[prefix.shape[1]]
    x = cut[-1] - prefix @ cut[:-1]
    cuts = np.where(row_min((prefix @ values[:-1] - values[-1]).reshape(
        *x.shape, -1)) >= 0.0, x, np.nan)
    e = cuts[:, ends]
    at_lo = np.where(np.isnan(e), np.inf, e).argmin(axis=1)
    at_hi = np.where(np.isnan(e), -np.inf, e).argmax(axis=1)
    return (np.fmin.reduce(e, axis=1), np.fmax.reduce(e, axis=1), cuts,
            facet[at_lo], facet[at_hi])


def _pivots(a):
    """The pivots (k, n) of symmetric elimination on the stack a (k, n, n),
    first row first, nan from the first that is not positive: a is
    positive definite iff every pivot is positive."""
    pivots = np.empty(a.shape[:2])
    for c in range(a.shape[1]):
        pivots[:, c] = np.where(a[:, 0, 0] > 0.0, a[:, 0, 0], np.nan)
        a = a[:, 1:, 1:] - a[:, 1:, :1] * (a[:, :1, 1:]
                                           / pivots[:, c, None, None])
    return pivots


def _laplace(P, maps, points, a):
    """Laplace's estimates (Wong 1989) of each member of
    ``integrate_polytope`` from a (k, n, n), the Hessian of -log f_i at its
    peak m, nan where a is not positive definite or m lies on a facet: the
    widths (k, n), p_j^(-1/2) with p_j the pivots of a eliminated from x_n
    back to x_1, so that p_n = a_nn is the precision a slice through m sees
    and p_1 the marginal one the outer integral sees, and the mass
    min((2 pi)^(n/2) det(a)^(-1/2), vol(P)) (k,) of f_i, which peaks at 1.
    In 1-D every width is kept and the mass is 0, as no inner level reads
    it.  Above, a width is kept only where its ladder fits: nan in x_j
    where twice the outermost rung, 16 w_j, exceeds the room from m_j to
    the nearest cut or end of the slice at (m_1, ..., m_{j-1}) of
    ``maps``, and None where none is left.  So a ladder replaces only
    bisection from the peak's panel that would take four or more levels;
    elsewhere its cuts cost nodes."""
    (k, n), interior = points.shape, row_min(P.ell(points)) > 0.0
    # one elimination from x_1 on and one from x_n back, stacked (one in
    # 1-D); the determinant is the product of the first's pivots
    pivots = _pivots(np.concatenate([a, a[:, ::-1, ::-1]]) if n > 1 else a)
    det = np.prod(pivots[:k], axis=1)
    known = np.isfinite(det) & interior
    widths = np.where(known[:, None], 1.0 / np.sqrt(pivots[-k:, ::-1]),
                      np.nan)
    if n == 1:
        return widths, 0.0
    mass = (2.0 * math.pi) ** (n / 2) / np.sqrt(np.where(known, det, np.nan))
    if np.isfinite(mass).any():
        mass = np.minimum(mass, float(P.volume_exact()))
    room = np.empty(widths.shape)
    for j in range(n):
        cuts = _slice(maps, points[:, :j])[2]
        room[:, j] = np.fmin.reduce(np.abs(cuts - points[:, j:j + 1]), axis=1)
    widths = np.where(2.0 * _LADDER[-1] * widths <= room, widths, np.nan)
    return None if np.isnan(widths).all() else widths, mass


def _split(a, b, g, below, at):
    """The parts of a seeded level (see ``_level``), each its panels (a, b,
    g) and their seed below: the panels that no entry of their row of
    ``at`` (one row per panel, nan where there is none) crosses, with their
    seed, then the pieces of the others cut there, with none (they call f).
    An empty part is left out."""
    cross = row_any((at > a[:, None]) & (at < b[:, None]))
    if not cross.any():
        return [((a, b, g), below)]
    a_, b_, i = _cut(a[cross], b[cross], at[cross])
    pieces = ((a_, b_, g[cross][i]), None)
    keep = ~cross
    if not keep.any():
        return [pieces]
    return [((a[keep], b[keep], g[keep]), _kept(below, keep)), pieces]


def _kept(seed, keep):
    """The seed of the rows under the panels ``keep`` (a mask) of a level,
    renumbered in order: the values of their nodes on the innermost level,
    else the panels of the level below whose row is one of their nodes, and
    so on down."""
    if not isinstance(seed, tuple):
        return seed.reshape(-1, 15)[keep].ravel()
    a, b, g, below = seed
    at = keep[g // 15]
    g = g[at]
    return (a[at], b[at], 15 * (np.cumsum(keep) - 1)[g // 15] + g % 15,
            _kept(below, at))


def _end_unmap(x, g, pieces):
    """u at the points x of the rows g (of any one shape), the inverse of
    ``_end_map``: a + (b - a) ((x - a) / (b - a))^(1/q) inside a mapped end
    piece, x elsewhere (nan stays nan)."""
    last, ends, spans, powers, _ = pieces
    side = 2 * g + (x > last.take(g))
    a, span, q = ends.take(side), spans.take(side), powers.take(side)
    # an end that is not mapped may have no piece
    t = (x - a) / np.where(q > 1.0, span, 1.0)
    inside = (q > 1.0) & (t > 0.0) & (t < 1.0)
    return np.where(inside, a + span * np.where(inside, t, 1.0) ** (1.0 / q),
                    x)


def _drop_ladders(cuts, marks, member, prefix, lo, hi, rel_tol):
    """Set to nan, in place, the ladder that ends each row of ``cuts``, the
    cuts of the slices of ``_level`` at ``prefix`` (k, j), but on the rows
    near the peak and within the budget: where sum_i ((x_i - m_i) / w_i)^2
    <= 2 ln(1 / rel_tol) over the prefix, the slice's Laplace mass at
    least rel_tol times the peak slice's (a nan width adds 0), and where
    the row's cuts inside, ladder included, leave at most ``MAX_PANELS``
    panels."""
    j = prefix.shape[1]
    peak = marks[member, :j, 0]
    # each width from its member's outermost rung
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (prefix - peak) * (_LADDER[-1] / (marks[member, :j, -1] - peak))
    drop = ~(np.nansum(z * z, axis=1) <= -2.0 * math.log(rel_tol))
    if cuts.shape[1] >= MAX_PANELS:
        drop |= np.count_nonzero((cuts > lo[:, None]) & (cuts < hi[:, None]),
                                 axis=1) >= MAX_PANELS
    cuts[drop, -len(_LADDER):] = np.nan


def _level(f, maps, marks, powers, member, prefix, rel_tol, floor, seed=None,
           scale=0.0, breaks=None):
    """The integrals of f over x_{j+1}, ..., x_n of P at each of the k rows
    of ``prefix`` (k, j), the fixed x_1, ..., x_j, one group per row, cut
    by ``_slice`` of ``maps``.  ``member`` (k,) is the family member of
    each row, whose row of ``marks`` (members, n, c), its peak and the
    ladder of its width in each variable (nan where there is none), cuts
    its panels, the ladder only where ``_drop_ladders`` keeps it (near the
    peak and within the budget), whose row of ``powers`` (members, facets;
    None when there is none) maps the ends of its innermost chords, and
    ``floor`` (k,) the absolute tolerance the level above hands each row
    (see ``_refine``).
    Returns the prefix row of each final innermost panel (R,), the
    integrals and their errors (k,), the coordinates the levels below
    fixed for each panel and the index of each of those nodes among the
    final nodes of its level, 15 a panel (R, n - 1 - j) each, x_n, the
    rule weights and the values of its 15 nodes (R, 15), and the lo and hi
    of the final panel of each level each panel lies under (R, n - j, 2).

    On the innermost level a chord piece that ends on a facet r where the
    member's power q is above 1 is measured in u, with x = a + (b - a) t^q
    the map of ``_end_map``: it fixes the piece's ends, so the cuts and the
    panels in u are those in x.  A chord with no cut inside and both ends
    mapped is cut at its midpoint.  The level returns the nodes in x, the
    weights times dx/du and the values of f.

    A ``seed`` (lo, hi, group, below) starts the rows from panels a rule
    ended with instead of from their cuts: the lo and hi of each panel (in
    u where it is mapped) and its row, the panels of each row in the order
    the rule had them, and ``below``, the seed of the level below, whose
    rows are the nodes of these panels, 15 a panel in order, or on the
    innermost level the values of f at the nodes in x.  The seeded panels
    are measured from those values, with no call of f: the innermost
    level maps their nodes as it maps new ones, and an outer level refines
    the rows below from their seed.  Only the children of split panels and
    the rows under new nodes call f.  ``breaks`` (members, n, c), nan where
    there is none, are each member's own cuts in each variable: in the
    first round a seeded panel that a break of its row crosses (in u where
    the innermost level maps it, see ``_end_unmap``) is replaced by its
    pieces, which call f with the rows under their nodes, while the other
    panels and the rows under them keep their seed; a fresh row is cut at
    its breaks too, before its ladder.

    The first round of fresh and seeded rows alike hands the rows below
    the larger of ``floor`` and rel_tol times ``scale`` (k,), each row's
    integral of |f| known before it (nan or 0 where none is), over the
    length of the row's range; later rounds hand ``_refine``'s."""
    (k, j), n = prefix.shape, len(maps)
    inner, mapped, pieces = [], [], None
    lo, hi, cuts, at_lo, at_hi = _slice(maps, prefix)
    cuts = [cuts, marks[member, j]]
    if breaks is not None and seed is None:
        # a fresh row is also cut at its breaks, before the ladder; a seeded
        # one keeps its rule's cuts, and so its end maps
        cuts.insert(1, breaks[member, j])
    cuts = np.concatenate(cuts, axis=1)
    # the outermost level's one slice is the peak's, and a row's panels
    # number at most its cuts plus one
    if marks.shape[2] > 1 and (j or cuts.shape[1] >= MAX_PANELS):
        _drop_ladders(cuts, marks, member, prefix, lo, hi, rel_tol)
    if j == n - 1:
        if powers is not None:
            pieces, cuts = _end_pieces(lo, hi, cuts, powers[member, at_lo],
                                       powers[member, at_hi])

        def driver(x, g, hand, vals=None):
            if pieces is not None:
                x, jac = _end_map(x, g, pieces)
            if vals is None:
                X = x[:, None] if j == 0 else np.concatenate(
                    [prefix[g], x[:, None]], axis=1)
                vals = f(X, member[g])
            if pieces is None:
                return vals
            vals = np.asarray(vals, dtype=float)
            mapped.append((x, jac, vals))
            return vals * jac
    else:
        def driver(x, g, hand, seed=None):
            rows = _level(f, maps, marks, powers, member[g],
                          np.concatenate([prefix[g], x[:, None]], axis=1),
                          rel_tol, hand[g], seed, breaks=breaks)
            inner.append((x, g, *rows))
            # the integrals of |f| over the slices scale this level
            own, total, _, _, _, _, w, v, _ = rows
            return total, np.bincount(own, np.abs(w * v).sum(axis=1), len(x))
    if seed is None:
        panels, below = _cut(lo, hi, cuts), None
    else:
        *panels, below = seed
    # the first round, fresh or seeded: its floor is known before any node
    hand = np.fmax(floor, rel_tol * scale) / _lengths(*panels, k)
    parts = [(panels, below)]
    if seed is not None and breaks is not None:
        # a seeded panel that a break of its row crosses is replaced by its
        # pieces, which alone call f; the others keep their seed
        at = breaks[member[panels[2]], j]
        if pieces is not None:
            at = _end_unmap(at, panels[2][:, None], pieces)
        parts = _split(*panels, below, at)
    known = [driver(_nodes(a, b - a).ravel(), g.repeat(15), hand, below)
             for (a, b, g), below in parts]
    panels = parts[0][0]
    if len(parts) > 1:
        panels = [np.concatenate(c) for c in zip(*(p for p, _ in parts))]
        known = [tuple(map(np.concatenate, zip(*known)))
                 if isinstance(known[0], tuple) else np.concatenate(known)]
    res = _refine(driver, *panels, k, rel_tol, floor, known[0])
    ends = np.stack([res.lo, res.hi], axis=1)
    if j == n - 1:
        none = np.empty((len(res.group), 0))
        nodes, weights, values = res.nodes, res.weights, res.values
        if mapped:
            # the x, dx/du and f the driver had at each final node
            nodes, jac, values = (np.concatenate(a)[res.pos]
                                  for a in zip(*mapped))
            weights = weights * jac
        return (res.group, res.total, res.err, none, none.astype(np.intp),
                nodes, weights, values, ends[:, None])
    x, g, own, _, err, head, ids, xs, ws, vs, spans = zip(*inner)
    # the owner of each panel row among all the nodes of this level
    own = np.concatenate([o + a for o, a in zip(
        np.cumsum([0, *map(len, x[:-1])]), own)])
    # the node indices of the levels below, kept apart between the calls
    # by offsets that are whole panels
    ids = np.concatenate([i + a for i, a in zip(np.cumsum([
        np.zeros(n - 2 - j, np.intp),
        *((i.max(axis=0, initial=-1) // 15 + 1) * 15 for i in ids[:-1])],
        axis=0), ids)])
    x, g, err, head, xs, ws, vs, spans = map(np.concatenate, (
        x, g, err, head, xs, ws, vs, spans))
    # the rule weight of each node, 0 off the final panels, and its index
    # among the final nodes
    w = np.zeros(len(x))
    w[res.pos.ravel()] = res.weights.ravel()
    index = np.zeros(len(x), np.intp)
    index[res.pos.ravel()] = np.arange(res.pos.size)
    kept = w[own] > 0
    own = own[kept]
    node = index[own]
    return (g[own], res.total, res.err + np.bincount(g, w * err, k),
            np.column_stack([x[own], head[kept]]),
            np.column_stack([node, ids[kept]]), xs[kept],
            w[own][:, None] * ws[kept], vs[kept],
            np.concatenate([ends[node // 15, None], spans[kept]], axis=1))


# ---------------------------------------------------------------------------
# the 2-D reference: adaptive triangle meshes
# ---------------------------------------------------------------------------

# Degree-5 seven-point symmetric rule (barycentric points, weights sum to 1).
_T_A = 0.4701420641051151
_T_B = 0.1012865073234563
_T_BARY = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_T_A, _T_A, 1 - 2 * _T_A],
    [_T_A, 1 - 2 * _T_A, _T_A],
    [1 - 2 * _T_A, _T_A, _T_A],
    [_T_B, _T_B, 1 - 2 * _T_B],
    [_T_B, 1 - 2 * _T_B, _T_B],
    [1 - 2 * _T_B, _T_B, _T_B],
])
_T_W = np.array([0.225,
                 0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
                 0.1259391805448271, 0.1259391805448271, 0.1259391805448271])


def _split4_batch(tris):
    """(B, 3, 2) -> (4B, 3, 2) children in blocks of four per parent."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    m01 = 0.5 * (a + b)
    m12 = 0.5 * (b + c)
    m20 = 0.5 * (c + a)
    out = np.empty((len(tris), 4, 3, 2))
    out[:, 0] = np.stack([a, m01, m20], axis=1)
    out[:, 1] = np.stack([m01, b, m12], axis=1)
    out[:, 2] = np.stack([m20, m12, c], axis=1)
    out[:, 3] = np.stack([m01, m12, m20], axis=1)
    return out.reshape(-1, 3, 2)


def _areas_batch(tris):
    d1 = tris[:, 1] - tris[:, 0]
    d2 = tris[:, 2] - tris[:, 0]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


class TriangleMesh:
    """Adaptive triangle mesh over a convex polygon, reusable for pairings.

    Each leaf stores a coarse (degree-5, 7-point) value and the four-child
    fine value; their difference is the refinement indicator and the fine
    value the contribution.  Refinement proceeds in batches so the driver
    is always evaluated on large arrays.
    """

    def __init__(self, polygon_vertices: np.ndarray):
        self.polygon = np.asarray(polygon_vertices, dtype=float)
        center = self.polygon.mean(axis=0)
        order = np.argsort(np.arctan2(self.polygon[:, 1] - center[1],
                                      self.polygon[:, 0] - center[0]))
        ring = self.polygon[order]
        fan = np.stack([np.broadcast_to(center, ring.shape), ring,
                        np.roll(ring, -1, axis=0)], axis=1)
        self._initial = fan[_areas_batch(fan) > 0]

    def _measure(self, tris, f):
        """Coarse/fine rule data for a batch of triangles."""
        B = len(tris)
        children = _split4_batch(tris)              # (4B, 3, 2)
        child_nodes = np.einsum("rb,tbj->trj", _T_BARY, children)  # (4B,7,2)
        child_areas = _areas_batch(children)
        vals = np.asarray(f(child_nodes.reshape(-1, 2)), dtype=float)
        vals = vals.reshape(4 * B, 7)
        child_int = child_areas * (vals @ _T_W)
        fine = child_int.reshape(B, 4).sum(axis=1)
        coarse_nodes = np.einsum("rb,tbj->trj", _T_BARY, tris)
        cvals = np.asarray(f(coarse_nodes.reshape(-1, 2)), dtype=float)
        cvals = cvals.reshape(B, 7)
        coarse = _areas_batch(tris) * (cvals @ _T_W)
        fine_nodes = child_nodes.reshape(B, 28, 2)
        fine_vals = vals.reshape(B, 28)
        fine_weights = np.repeat(child_areas.reshape(B, 4), 7, axis=1) * \
            np.tile(_T_W, 4)[None, :]
        return fine_nodes, fine_vals, fine_weights, fine, np.abs(fine - coarse)

    def refine(self, f, *, rel_tol=1e-6, max_leaves=30000, presplit_depth=0):
        """Adapt the mesh to the driver f (values at (k, 2) arrays).

        The fan is split ``presplit_depth`` times before refinement.  Each
        error-driven round splits at most (max_leaves - L) // 3 of the
        L leaves, largest errors first, so refinement never takes the mesh
        past max_leaves.

        Records ``presplit_leaves`` (leaves entering refinement) and
        ``rounds`` (error-driven refinement rounds) on the mesh.
        """
        work = self._initial
        for _ in range(presplit_depth):
            work = _split4_batch(work)
        self.presplit_leaves = len(work)
        self.rounds = 0

        nodes, vals, weights, fine, errs = self._measure(work, f)
        tris = work
        total = float(fine.sum())
        err_total = float(errs.sum())
        while err_total > rel_tol * abs(total) + _UNDERFLOW:
            # each split adds three leaves: never split past the budget
            k = min(max(16, len(tris) // 8), (max_leaves - len(tris)) // 3)
            if k <= 0:
                break
            order = np.argsort(errs)
            hot = order[-k:]
            hot = hot[errs[hot] > (rel_tol * abs(total)) / max(len(tris), 1)]
            if len(hot) == 0:
                break
            cold = np.setdiff1d(order, hot, assume_unique=True)
            children = _split4_batch(tris[hot])
            cn, cv, cw, cf, ce = self._measure(children, f)
            tris = np.concatenate([tris[cold], children])
            nodes = np.concatenate([nodes[cold], cn])
            vals = np.concatenate([vals[cold], cv])
            weights = np.concatenate([weights[cold], cw])
            fine = np.concatenate([fine[cold], cf])
            errs = np.concatenate([errs[cold], ce])
            total = float(fine.sum())
            err_total = float(errs.sum())
            self.rounds += 1
        self.tris = tris                            # (L, 3, 2)
        self.fine_nodes = nodes.reshape(-1, 2)      # (28 L, 2)
        self.fine_vals = vals.ravel()               # (28 L,)
        self.fine_weights = weights.ravel()         # (28 L,)
        self.value = total
        self.err_estimate = err_total
        return self.value

    # -- reuse ---------------------------------------------------------------

    def integrate_values(self, values: np.ndarray) -> float:
        return float(self.fine_weights @ values)

    def integrate(self, g) -> float:
        return self.integrate_values(
            np.asarray(g(self.fine_nodes), dtype=float))

    def pair_against_driver(self, g) -> float:
        """Integral of driver * g on the refined mesh."""
        return self.integrate(lambda X: self.fine_vals * g(X))


def polygon_mesh(vertices) -> TriangleMesh:
    return TriangleMesh(np.asarray(vertices, dtype=float))
