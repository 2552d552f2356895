import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraction_refs import fraction_rows, ref_det, ref_matrix
from quatforms.intmat import integral_rows
from quatforms.matrices import Matrix, _echelon, integer_kernel, poly_at_matrix, primitive
from quatforms.polynomials import Poly, _zmul, _zprod, _zsubtract, factor_poly

small = st.integers(min_value=-9, max_value=9)


def mats(n):
    return st.lists(st.lists(small, min_size=n, max_size=n), min_size=n, max_size=n).map(Matrix)


def charpoly_oracle(m: Matrix) -> Poly:
    """det(x*I - A) by cofactor expansion over integer coefficient
    lists.  Dim <= 5 only."""
    n = m.nrows
    entries = [[[-m.rows[i][j], int(i == j)] for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(cols) == 1:
            return rows[0][cols[0]]
        total = []
        for k, c in enumerate(cols):
            term = _zmul(rows[0][c], det(rows[1:], cols[:k] + cols[k + 1 :]))
            total = _zsubtract(total, [(-1) ** (k + 1) * v for v in term])
        return total

    return Poly(det(entries, list(range(n))))


def companion(f: Poly) -> Matrix:
    assert f.coeffs[-1] == 1
    n = f.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -f.coeffs[i]
    return Matrix(rows)


@given(mats(3))
@settings(max_examples=50, deadline=None)
def test_charpoly_against_cofactor_oracle(m):
    assert m.charpoly() == charpoly_oracle(m)


@given(mats(4))
@settings(max_examples=25, deadline=None)
def test_charpoly_oracle_dim4(m):
    assert m.charpoly() == charpoly_oracle(m)


@given(mats(3))
@settings(max_examples=30, deadline=None)
def test_cayley_hamilton(m):
    assert all(v == 0 for row in poly_at_matrix(m.charpoly().coeffs, m).rows for v in row)


def test_charpoly_companion_small():
    f = Poly([2, 0, -6, 0, 1])
    assert companion(f).charpoly() == f


def test_charpoly_companion_crt_path():
    # the coefficient bound of degree 12 needs more than one CRT prime
    rng = random.Random(3)
    f = Poly([rng.randint(-40, 40) for _ in range(12)] + [1])
    assert companion(f).charpoly() == f


def test_charpoly_block_matches_factor_product():
    parts = [Poly([-4, 1]), Poly([4, 1]), Poly([4, 0, 1]), Poly([2, 0, -6, 0, 1])]
    n = sum(p.degree for p in parts)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for p in parts:
        c = companion(p)
        for i in range(p.degree):
            for j in range(p.degree):
                rows[off + i][off + j] = c.rows[i][j]
        off += p.degree
    cp = Matrix(rows).charpoly()
    assert cp == Poly(_zprod([p.coeffs for p in parts]))
    assert factor_poly(cp) == [(p, 1) for p in sorted(parts, key=lambda q: (q.degree, q.coeffs))]


def test_charpoly_rational_entries():
    # [[1, 1/2], [0, 1]] has den 2 and the integral charpoly (x - 1)^2,
    # scaled back from charpoly(2 A) = (x - 2)^2; diag(1/2, 1/3) has the
    # charpoly (x - 1/2)(x - 1/3), which is not integral, and so has A/2
    # for the 1 x 1 matrix A = 1
    m = Matrix([[2, 1], [0, 2]], 2)
    assert m.den == 2 and m.charpoly() == Poly([1, -2, 1])
    for bad in (ref_matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]]), Matrix([[1]], 2)):
        with pytest.raises(ArithmeticError, match="characteristic polynomial is not integral"):
            bad.charpoly()


def test_charpoly_rational_entries_crt():
    # the companion matrix of degree 12 conjugated by diag(1, 2, ..., 2^11):
    # 1/2 below the diagonal, so den 2, and the same integral charpoly,
    # which needs more than one CRT prime
    rng = random.Random(3)
    f = Poly([rng.randint(-40, 40) for _ in range(12)] + [1])
    c = companion(f)
    m = ref_matrix([[Fraction(v * 2 ** j, 2 ** i) for j, v in enumerate(row)]
                    for i, row in enumerate(c.rows)])
    assert m.den == 2
    assert m.charpoly() == f


def charpoly_det(m):
    """det(A) = (-1)^n times the constant term of det(x*I - A)."""
    c0 = m.charpoly().coeffs[0]
    return -c0 if m.nrows % 2 else c0


@given(mats(3), mats(3))
@settings(max_examples=40, deadline=None)
def test_det_multiplicative(a, b):
    assert charpoly_det(ref_matrix(ref_mul(a, b))) == charpoly_det(a) * charpoly_det(b)


@given(mats(4))
@settings(max_examples=40, deadline=None)
def test_rank_nullity_and_kernel(m):
    ker = integer_kernel(m.rows)
    assert len(ref_rref(m.rows)[1]) + len(ker) == 4
    for v in ker:
        assert all(x == 0 for x in m.apply(v))


@given(mats(3), st.lists(small, min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_solve_right(m, x):
    b = m.apply(x)
    sol = m.solve_right(b)
    assert sol is not None
    assert m.apply(sol) == b


def test_solve_right_inconsistent():
    m = Matrix([[1, 0], [1, 0]])
    assert m.solve_right([1, 2]) is None


def test_ragged_rows_rejected():
    with pytest.raises(ValueError, match="different lengths"):
        Matrix([[1, 2], [3]])


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError, match="non-square"):
        Matrix([[1, 2, 3], [4, 5, 6]]).charpoly()


def test_trace_is_charpoly_coefficient():
    m = Matrix([[1, 2], [3, 4]])
    cp = m.charpoly()
    assert cp.coeffs[1] == -(m.rows[0][0] + m.rows[1][1])


# -- the integer-row kernels against plain Fraction references ------------

rationals = st.builds(
    Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=12)
)


@st.composite
def rational_mats(draw, nrows=None, ncols=None):
    """Rational matrices with some zero rows and some dependent rows."""
    nr = draw(st.integers(1, 5)) if nrows is None else nrows
    nc = draw(st.integers(1, 5)) if ncols is None else ncols
    rows = []
    for _ in range(nr):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "combination")))
        if kind == "zero":
            rows.append([Fraction(0)] * nc)
        elif kind == "combination" and len(rows) >= 2:
            i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
            a, b = draw(rationals), draw(rationals)
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
        else:
            rows.append(draw(st.lists(rationals, min_size=nc, max_size=nc)))
    return ref_matrix(rows)


def ref_mul(a, b):
    cols = list(zip(*fraction_rows(b)))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in fraction_rows(a)]


def ref_apply(a, vec):
    return [sum((x * Fraction(y) for x, y in zip(row, vec)), Fraction(0))
            for row in fraction_rows(a)]


def ref_rref(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    nr, nc = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def ref_kernel(a):
    red, pivots = ref_rref(fraction_rows(a))
    basis = []
    for fc in (c for c in range(a.ncols) if c not in pivots):
        v = [Fraction(0)] * a.ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def ref_integer_kernel(a):
    """ref_kernel with each vector scaled to a primitive integer row."""
    return [primitive(integral_rows([v])[1][0]) for v in ref_kernel(a)]


def ref_solve(a, b):
    red, pivots = ref_rref([row + [Fraction(bv)] for row, bv in zip(fraction_rows(a), b)])
    if a.ncols in pivots:
        return None
    x = [Fraction(0)] * a.ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][a.ncols]
    return x


def ref_poly_at(coeffs, a):
    n = a.nrows
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        out = ref_mul(ref_matrix(out), a)
        out = [[v + (c if i == j else 0) for j, v in enumerate(row)] for i, row in enumerate(out)]
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_apply_matches_fraction_reference(data):
    a = data.draw(rational_mats())
    vec = data.draw(st.lists(rationals | small, min_size=a.ncols, max_size=a.ncols))
    assert a.apply(vec) == ref_apply(a, vec)


@given(rational_mats(), st.data())
@settings(max_examples=80, deadline=None)
def test_elimination_matches_fraction_reference(a, data):
    # each pivot row of the fraction-free elimination, divided by its
    # pivot, is a row of the RREF; the other rows are zero
    m, pivots = _echelon(a.rows)
    red = [[Fraction(v, m[r][pc]) for v in m[r]] for r, pc in enumerate(pivots)]
    red += [[0] * a.ncols for _ in range(a.nrows - len(pivots))]
    assert (red, pivots) == ref_rref(fraction_rows(a))
    assert integer_kernel(a.rows) == ref_integer_kernel(a)
    # consistent right-hand sides (in the column span) and arbitrary ones
    x = data.draw(st.lists(rationals, min_size=a.ncols, max_size=a.ncols))
    for b in (ref_apply(a, x), data.draw(st.lists(rationals, min_size=a.nrows, max_size=a.nrows))):
        assert a.solve_right(b) == ref_solve(a, b)


@given(st.integers(1, 4).flatmap(lambda n: rational_mats(nrows=n, ncols=n)),
       st.lists(rationals, max_size=6))
@settings(max_examples=60, deadline=None)
def test_poly_at_matrix_matches_fraction_reference(a, coeffs):
    assert fraction_rows(poly_at_matrix(coeffs, a)) == ref_poly_at(coeffs, a)


@given(st.integers(0, 6).flatmap(lambda n: rational_mats(nrows=n, ncols=n)))
@settings(max_examples=80, deadline=None)
def test_det_matches_fraction_reference(a):
    # the integer rows of A = rows / den have det(rows) = den^n det(A)
    assert charpoly_det(Matrix(a.rows)) == ref_det(fraction_rows(a)) * a.den ** a.nrows


def test_bad_inputs_raise_under_optimize(run_optimized):
    # input checks are raises, not asserts, so -O keeps them
    out = run_optimized(
        "from quatforms.arith import factor_int\n"
        "from quatforms.eigen import decompose\n"
        "from fractions import Fraction\n"
        "from quatforms.matrices import Matrix, poly_at_matrix\n"
        "for call in (lambda: factor_int(0), lambda: decompose([]),\n"
        "             lambda: Matrix([[1, 2]]).apply([1]),\n"
        "             lambda: poly_at_matrix([1], Matrix([[1, 2]])),\n"
        "             lambda: Matrix([[1, Fraction(1, 2)]]), lambda: Matrix([[1]], 0),\n"
        "             lambda: Matrix([[1]], -2), lambda: Matrix([[1]], Fraction(2)),\n"
        "             lambda: Matrix([[1, 2]]).solve_right([1, 2])):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except (ValueError, ZeroDivisionError) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    assert out.split() == ["ValueError"] * 9
