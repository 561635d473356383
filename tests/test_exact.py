"""Property tests for the exact rational core and the decompositions on it."""

from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricray import _exact
from toricray._exact import (det_exact, invert_unimodular, is_primitive,
                             primitivize, rank_exact, row_reduce,
                             unimodular_completion)
from toricray.generators import PLConvex
from toricray.polytope import make_polytope
from toricray.testconfig import decompose

exact = settings(derandomize=True, deadline=None, max_examples=80)

entries = st.one_of(st.just(Fraction(0)),
                    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


def matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def matvec(a, x):
    return [sum((ai * xi for ai, xi in zip(row, x)), Fraction(0)) for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def matrices(draw, rows=None, cols=None):
    """Small rational matrices; half of them products through a thin inner
    dimension, so singular and rank-deficient inputs are common."""
    m = draw(st.integers(1, 4)) if rows is None else rows
    n = draw(st.integers(1, 4)) if cols is None else cols

    def block(r, c):
        return [[draw(entries) for _ in range(c)] for _ in range(r)]

    if draw(st.booleans()):
        return block(m, n)
    k = draw(st.integers(1, min(m, n)))
    return matmul(block(m, k), block(k, n))


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 4))
    return draw(matrices(n, n))


@st.composite
def unimodular(draw, n):
    """(U, U^-1) as a product of integer shears, swaps and sign flips."""
    U, Uinv = identity(n), identity(n)
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            E = identity(n)
            E[i][i] = -1
            Einv = E
        elif draw(st.booleans()):
            k = draw(st.integers(-2, 2))
            E, Einv = identity(n), identity(n)
            E[i][j], Einv[i][j] = k, -k
        else:
            E = identity(n)
            E[i], E[j] = E[j], E[i]
            Einv = E
        U, Uinv = matmul(E, U), matmul(Uinv, Einv)
    return ([[int(v) for v in row] for row in U],
            [[int(v) for v in row] for row in Uinv])


def leibniz(a):
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) ** inversions
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


@exact
@given(square_matrices(), st.data())
def test_det_rank_and_solve_agree(A, data):
    # row_reduce of the augmented rows [A | b] pivots on every column of A
    # exactly when det A != 0, and then x = rows[:, n] / det solves A x = b
    n = len(A)
    b = [data.draw(entries) for _ in range(n)]
    ech = row_reduce([[*r, v] for r, v in zip(A, b)], n + 1)
    solved = ech.pivots == tuple(range(n))
    assert (det_exact(A) != 0) == (rank_exact(A) == n) == solved
    if solved:
        assert matvec(A, [Fraction(r[n], ech.det) for r in ech.rows]) == b


@exact
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(matrices(n, n), matrices(n, n))))
def test_det_is_multiplicative(AB):
    A, B = AB
    assert det_exact(matmul(A, B)) == det_exact(A) * det_exact(B)


@exact
@given(square_matrices(), st.booleans())
def test_det_matches_leibniz_expansion(A, integer):
    # integer inputs stay ints; singular matrices (common here) give 0
    if integer:
        A = [[int(v * 6) for v in row] for row in A]
    d = det_exact(A)
    assert isinstance(d, Fraction) and d == leibniz(A)


def fraction_rref(rows, ncols):
    """Gauss-Jordan over Fractions: (reduced nonzero rows, pivots)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((k for k in range(r, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for k in range(len(mat)):
            if k != r:
                c = mat[k][col]
                mat[k] = [v - c * w for v, w in zip(mat[k], mat[r])]
        pivots.append(col)
    return mat[:len(pivots)], tuple(pivots)


def fraction_det(rows):
    """Determinant by Gaussian elimination over Fractions: the signed
    product of the pivots, 0 when a column has none."""
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(len(mat)):
        piv = next((k for k in range(col, len(mat)) if mat[k][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for k in range(col + 1, len(mat)):
            c = mat[k][col] / mat[col][col]
            mat[k] = [v - c * w for v, w in zip(mat[k], mat[col])]
    return det


@exact
@given(square_matrices(), st.booleans())
def test_bareiss_det_matches_row_reduction(A, integer):
    # the fraction-free determinant against plain Fraction elimination;
    # integer inputs stay ints, singular matrices (common here) give 0
    if integer:
        A = [[int(v * 6) for v in row] for row in A]
    d = det_exact(A)
    assert isinstance(d, Fraction) and d == fraction_det(A)


@st.composite
def any_shape(draw):
    """Wide, tall, square, rank-deficient, and empty matrices with their
    column count."""
    if draw(st.integers(0, 9)) == 0:
        return [], draw(st.integers(0, 4))
    A = draw(matrices(draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    return A, len(A[0])


@exact
@given(any_shape())
def test_row_reduce_matches_fraction_gauss_jordan(shape):
    A, ncols = shape
    ech = row_reduce(A, ncols)
    ref_rows, ref_pivots = fraction_rref(A, ncols)
    assert ech.pivots == ref_pivots
    assert all(type(v) is int for row in ech.rows for v in row)
    assert ech.det != 0
    for row, pc in zip(ech.rows, ech.pivots):
        assert [row[p] for p in ech.pivots] == [
            ech.det if p == pc else 0 for p in ech.pivots]
    reduced = [[Fraction(v, ech.det) for v in row] for row in ech.rows]
    assert reduced == ref_rows


def test_ints_pass_through_the_conversions():
    # ints take no detour through str; everything else converts as before
    assert _exact.frac(-7) == Fraction(-7)
    assert _exact.frac("3/6") == Fraction(1, 2)
    assert _exact.integer_vector([3, -2, 1.0, Fraction(4)]) == (3, -2, 1, 4)
    assert _exact.integer_row([4, -6, 0]) == ([4, -6, 0], 1)
    assert _exact.integer_row([1, Fraction(1, 2)]) == ([2, 1], 2)
    for bad in ([True], [0.5]):
        with pytest.raises(ValueError, match="not an integer"):
            _exact.integer_vector(bad)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_frac_rejects_non_finite_floats(value):
    with pytest.raises(ValueError, match="not a finite number"):
        _exact.frac(value)
    assert _exact.frac(0.5) == Fraction(1, 2)


@exact
@given(st.lists(entries, min_size=1, max_size=5))
def test_primitivize_scales_to_a_primitive_integer_row(vec):
    if not any(vec):
        with pytest.raises(ValueError):
            primitivize(vec)
        return
    prim, scale = primitivize(vec)
    assert scale > 0 and is_primitive(prim)
    assert all(type(c) is int for c in prim)
    assert list(prim) == [scale * v for v in vec]


def test_every_exact_query_runs_the_one_row_reduction(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return row_reduce(*args, **kwargs)

    monkeypatch.setattr(_exact, "row_reduce", counted)
    A = [[2, 1], [1, 1]]
    for query in (lambda: rank_exact(A), lambda: det_exact(A),
                  lambda: invert_unimodular(A)):
        calls.clear()
        query()
        assert calls == [1]


def test_no_float_rank_in_the_package():
    src = Path(_exact.__file__).parent
    assert not [p.name for p in src.glob("*.py")
                if "matrix_rank" in p.read_text()]


@exact
@given(st.integers(1, 4).flatmap(unimodular))
def test_invert_unimodular(pair):
    U, Uinv = pair
    inv = invert_unimodular(U)
    assert inv == Uinv
    assert matmul(inv, U) == identity(len(U))


@exact
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(unimodular(n), st.integers(1, n))))
def test_unimodular_completion_keeps_rows_last(args):
    (U, _), j = args
    n = len(U)
    rows = U[n - j:]
    C = unimodular_completion(rows, n)
    assert abs(det_exact(C)) == 1
    assert C[n - j:] == rows


def cp2(N=3):
    return make_polytope([[1, 0], [0, 1], [-1, -1]], [0, 0, -N])


half_integers = st.builds(Fraction, st.integers(-4, 4), st.just(2))
pl_pieces = st.lists(
    st.tuples(st.tuples(half_integers, half_integers),
              st.builds(Fraction, st.integers(-6, 6), st.just(2))),
    min_size=2, max_size=4, unique_by=lambda piece: piece[0])


@settings(derandomize=True, deadline=None, max_examples=30)
@given(unimodular(2), st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
       pl_pieces)
def test_decompositions_of_unimodular_images(U_pair, t, pieces):
    """f on cp2(3) and its transport along y = U x + t decompose alike."""
    _, Uinv = U_pair
    P = cp2()

    def pull(v):  # covector v -> v U^-1
        return tuple(sum(v[k] * Uinv[k][i] for k in range(2)) for i in range(2))

    normals = [pull(v) for v in P.normals]
    image = make_polytope(
        normals, [lam + sum(a * b for a, b in zip(nu, t))
                  for nu, lam in zip(normals, P.offsets)])
    f = PLConvex(pieces)
    f_image = PLConvex([(pull(g), b - sum(a * c for a, c in zip(pull(g), t)))
                        for g, b in pieces])
    dec, dec_image = decompose(f, P), decompose(f_image, image)
    assert dec_image.volume_defect() == 0
    assert dec_image.activity_consistency_exact()
    assert sorted(dec_image.volumes_exact()) == sorted(dec.volumes_exact())
    assert ([(sorted(F.active), F.codim) for F in dec_image.faces]
            == [(sorted(F.active), F.codim) for F in dec.faces])


@exact
@given(st.lists(st.tuples(st.one_of(st.integers(-9, 9), entries,
                                    st.floats(-4, 4)),
                          st.one_of(st.integers(-9, 9), entries,
                                    st.floats(-4, 4))),
                max_size=4))
def test_dot_is_the_exact_sum_of_products(pairs):
    # ints and Fractions multiply as they are, a float as its Fraction:
    # never a rounded float product
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    got = _exact.dot(a, b)
    assert type(got) is Fraction
    assert got == sum((Fraction(x) * Fraction(y) for x, y in pairs),
                      Fraction(0))
