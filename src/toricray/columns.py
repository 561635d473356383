"""Reductions over a short last axis, one column at a time.

Every evaluator reduces over a trailing axis of a few coordinates, facets
or pieces: ell(x) has one column per facet, a jet's gradient one per
coordinate.  numpy reduces a contiguous last axis one row at a time, with
an inner loop of n elements per row: on (15000, 2) a ``sum(axis=-1)``
took 220 us against 18 us for adding the two columns (numpy 2.4, 2-vCPU
Xeon).  These helpers walk the columns in order instead, one elementwise
pass each.

They keep numpy's bits.  numpy adds fewer than eight elements in order,
starting from its identity 0, so ``row_sum`` starts from 0 too (a row of
-0.0 sums to 0.0) and equals ``np.sum(a, axis=-1)`` bit for bit below
eight columns (Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 4).  numpy multiplies in order too; min and max are exact in any
order and propagate nan like ``np.min``.  Each returns what numpy would:
a numpy scalar for one row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_sum", "row_min", "row_max", "row_prod", "row_all", "row_any",
           "row_dot"]


def _fold(op, a):
    """``op`` over the columns of ``a`` in order: a new array, or a numpy
    scalar for one row."""
    if a.shape[-1] == 1:
        return a[..., 0].copy()[()]
    out = op(a[..., 0], a[..., 1])
    for j in range(2, a.shape[-1]):
        out = op(out, a[..., j])
    return out


def row_sum(a):
    """Sum over the last axis in column order, from 0 as numpy sums: a row
    of -0.0 sums to 0.0, and a boolean row counts its true entries."""
    a = np.asarray(a)
    out = a[..., 0] + 0
    for j in range(1, a.shape[-1]):
        out = out + a[..., j]
    return out


def row_min(a):
    return _fold(np.minimum, np.asarray(a))


def row_max(a):
    return _fold(np.maximum, np.asarray(a))


def row_prod(a):
    return _fold(np.multiply, np.asarray(a))


def row_all(a):
    return _fold(np.logical_and, np.asarray(a, dtype=bool))


def row_any(a):
    return _fold(np.logical_or, np.asarray(a, dtype=bool))


def row_dot(a, b):
    """sum_j a_j b_j over the last axis of the broadcast a * b, with the
    bits of ``(a * b).sum(axis=-1)``."""
    return row_sum(np.multiply(a, b))
