"""Exact rational and integer linear algebra helpers.

Everything in here operates on plain Python ints and ``fractions.Fraction``
so that polytope geometry (vertices, activity ties, lattice frames) is
bit-exact.  One elimination, the fraction-free Gauss-Jordan ``row_reduce``
on integer rows, serves solves, ranks, determinants, unimodular inverses
and the vertex enumeration of ``polytope.vertices_of_system``.  Sizes are
tiny (n <= ~12 facet systems), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence


def frac(value) -> Fraction:
    """Coerce ints, strings like '1/2' or '0.5', and floats to Fraction."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError(f"{value} is not a finite number")
        return Fraction(value)
    return Fraction(str(value))


def vec_frac(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(frac(v) for v in values)


def _rational(value):
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def dot(a: Sequence, b: Sequence) -> Fraction:
    """Exact: ints and Fractions multiply as they are, and any other
    entry (a float) as its Fraction."""
    return Fraction(sum(map(mul, map(_rational, a), map(_rational, b))))


def integer_vector(values: Iterable) -> tuple[int, ...]:
    """The entries as ints; ValueError unless each is an integer (1.0 is)."""
    out = []
    for v in values:
        if type(v) is int:
            out.append(v)
            continue
        try:
            q = frac(v)
        except (ValueError, ArithmeticError):
            q = None
        if q is None or q.denominator != 1:
            raise ValueError(f"entry {v!r} is not an integer")
        out.append(q.numerator)
    return tuple(out)


def integer_row(row: Iterable) -> tuple[list[int], int]:
    """(ints, den): a rational row times ``den``, the lcm of its
    denominators, so that ``ints`` are integers."""
    row = list(row)
    if all(type(v) is int for v in row):
        return row, 1
    row = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in row]
    den = lcm(*(v.denominator for v in row))
    return [v.numerator * (den // v.denominator) for v in row], den


class Echelon(NamedTuple):
    """Fraction-free reduced row-echelon form of a rational matrix.

    The reduced form is ``rows / det``: each integer row holds ``det`` in
    its own pivot column and 0 in every other pivot column.
    """
    rows: list          # the nonzero integer rows, one per pivot
    pivots: tuple       # pivot column of each row, increasing
    det: int            # the common pivot, a minor of the scaled matrix
    scale: int          # product of the row scales
    sign: int           # (-1) ** (number of row swaps)


def row_reduce(rows: Sequence[Sequence], ncols: int | None = None) -> Echelon:
    """Fraction-free (Bareiss) Gauss-Jordan elimination.

    Each row is scaled to integers by ``integer_row``, unless its entries
    are plain ints already.  A pivot p replaces every other row by
    (p * row - c * pivot_row) // prev, where c is the row's entry in the
    pivot column and prev the previous pivot; Sylvester's identity makes
    every division exact.  For a square matrix
    of full rank, sign * det / scale is its determinant.  ``ncols`` is
    needed only when ``rows`` is empty.
    """
    mat, scale = [], 1
    for row in rows:
        # rows of plain ints, as the vertex enumeration stacks them, are
        # already scaled
        if all(type(v) is int for v in row):
            mat.append(list(row))
            continue
        row, den = integer_row(row)
        mat.append(row)
        scale *= den
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots, sign, prev = [], 1, 1
    for col in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        top = mat[r]
        p = top[col]
        for k, row in enumerate(mat):
            if k != r:
                c = row[col]
                mat[k] = [(p * v - c * w) // prev for v, w in zip(row, top)]
        prev = p
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    return Echelon(mat[:len(pivots)], tuple(pivots), prev, scale, sign)


def rank_exact(rows: Sequence[Sequence]) -> int:
    return len(row_reduce(rows).pivots)


def det_exact(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square rational matrix, read off its row reduction."""
    ech = row_reduce(rows, len(rows))
    if len(ech.pivots) < len(rows):
        return Fraction(0)
    return Fraction(ech.sign * ech.det, ech.scale)


def gcd_vec(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(int(v)))
    return g


def is_primitive(vec: Sequence[int]) -> bool:
    return gcd_vec(vec) == 1


def primitivize(vec: Sequence) -> tuple[tuple[int, ...], Fraction]:
    """Scale a nonzero rational vector to a primitive integer vector.

    Returns (primitive, scale) with scale > 0 and primitive = scale * vec.
    """
    ints, den = integer_row(vec)
    g = gcd_vec(ints)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return tuple(i // g for i in ints), Fraction(den, g)


def invert_unimodular(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Invert an integer matrix with determinant +-1; result is integral."""
    n = len(mat)
    ech = row_reduce([list(row) + [int(i == j) for j in range(n)]
                      for i, row in enumerate(mat)], 2 * n)
    if ech.pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    if ech.scale != 1 or abs(ech.det) != 1:
        raise ValueError("matrix is not unimodular")
    return [[v * ech.det for v in row[n:]] for row in ech.rows]


class SaturationError(ValueError):
    """The integer rows do not span a direct summand of Z^n."""


def unimodular_completion(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """Complete j independent primitive integer rows to a det +-1 matrix.

    The returned n x n matrix U has the given rows as its LAST j rows; its
    first n-j rows complete them to a basis of Z^n.  Uses fraction-free
    column reduction (Hermite-style): find unimodular V with rows @ V =
    [L | 0], L lower triangular.  The rows span a saturated sublattice iff
    |det L| = 1, in which case the last n-j rows of V^-1 complete the basis.
    """
    j = len(rows)
    work = [[int(v) for v in row] for row in rows]
    V = [[1 if a == b else 0 for b in range(n)] for a in range(n)]

    def col_swap(a, b):
        for r in range(j):
            work[r][a], work[r][b] = work[r][b], work[r][a]
        for r in range(n):
            V[r][a], V[r][b] = V[r][b], V[r][a]

    def col_axpy(dst, src, q):
        # column_dst -= q * column_src
        for r in range(j):
            work[r][dst] -= q * work[r][src]
        for r in range(n):
            V[r][dst] -= q * V[r][src]

    for i in range(j):
        while True:
            nonzero = [k for k in range(i, n) if work[i][k] != 0]
            if not nonzero:
                raise ValueError("rows are linearly dependent")
            piv = min(nonzero, key=lambda k: abs(work[i][k]))
            done = True
            for k in nonzero:
                if k == piv:
                    continue
                q = work[i][k] // work[i][piv]
                col_axpy(k, piv, q)
                if work[i][k] != 0:
                    done = False
            if done:
                if piv != i:
                    col_swap(piv, i)
                break

    det_l = 1
    for i in range(j):
        det_l *= work[i][i]
    if abs(det_l) != 1:
        raise SaturationError(
            f"sublattice has index {abs(det_l)} in its saturation; "
            "no unimodular completion exists")

    W = invert_unimodular(V)  # rows of W form a Z-basis adapted to the span
    U = [list(W[r]) for r in range(j, n)] + [[int(v) for v in row] for row in rows]
    d = det_exact(U)
    if abs(d) != 1:
        raise AssertionError("completion lost unimodularity")  # pragma: no cover
    return U
