import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from fraction_refs import hnf_coords, ref_det, ref_inverse_rows
from quatforms.intmat import (
    abs_det,
    canonical_lattice,
    hnf_rows,
    identity_int,
    int_product,
    integral_preimage_rows,
    integral_rows,
    inverse_rows,
)
from quatforms.matrices import Matrix
from quatforms.residue import QuotientSpace

small_int = st.integers(min_value=-30, max_value=30)


def square_mats(n):
    return st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n)


def test_hnf_known():
    h = hnf_rows([[2, 0], [0, 2], [1, 1]])
    assert h == [[1, 1], [0, 2]]


def test_hnf_zero_matrix():
    assert hnf_rows([[0, 0], [0, 0]]) == []


def ref_hnf_with_transform(mat):
    """Row HNF carrying the transform through every step of the elimination."""
    h = [row[:] for row in mat]
    n = len(h)
    m = len(h[0]) if n else 0
    u = identity_int(n)
    row = 0
    for col in range(m):
        piv = None
        for i in range(row, n):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        u[row], u[piv] = u[piv], u[row]
        for i in range(row + 1, n):
            while h[i][col]:
                q = h[row][col] // h[i][col]
                if q:
                    h[row] = [a - q * b for a, b in zip(h[row], h[i])]
                    u[row] = [a - q * b for a, b in zip(u[row], u[i])]
                h[row], h[i] = h[i], h[row]
                u[row], u[i] = u[i], u[row]
        if h[row][col] < 0:
            h[row] = [-a for a in h[row]]
            u[row] = [-a for a in u[row]]
        p = h[row][col]
        for i in range(row):
            q = h[i][col] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[row])]
        row += 1
        if row == n:
            break
    return h, u


@st.composite
def hnf_inputs(draw):
    """Integer matrices of any shape, with zero and dependent rows.

    One branch stacks two 2x2 upper triangular blocks, the HNF rows of
    two field ideals, into the 4x2 shape of the rows of their sum.
    """
    if draw(st.booleans()):
        blocks = [
            [[draw(st.integers(1, 30)), draw(small_int)], [0, draw(st.integers(1, 30))]]
            for _ in range(2)
        ]
        return blocks[0] + blocks[1]
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(small_int, min_size=m, max_size=m), min_size=n, max_size=n))
    for i in range(n):
        kind = draw(st.sampled_from(["keep", "zero", "combination"]))
        if kind == "zero":
            rows[i] = [0] * m
        elif kind == "combination" and i:
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            c = draw(small_int)
            rows[i] = [x + c * y for x, y in zip(rows[a], rows[b])]
    return rows


@given(hnf_inputs())
@settings(max_examples=300, deadline=None)
def test_hnf_matches_transform_carrying_reference(mat):
    want, _ = ref_hnf_with_transform(mat)
    assert hnf_rows(mat) == [row for row in want if any(row)]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_int_product_matches_fraction_reference(data):
    # matrix products run on integer rows, inside poly_at_matrix and the
    # quaternion lattice products
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    x = data.draw(st.lists(st.lists(small_int, min_size=k, max_size=k), min_size=n, max_size=n))
    y = data.draw(st.lists(st.lists(small_int, min_size=m, max_size=m), min_size=k, max_size=k))
    want = [[sum(Fraction(x[i][t]) * y[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]
    assert int_product(x, y) == want


@given(square_mats(4))
@settings(max_examples=60, deadline=None)
def test_abs_det_and_inverse_rows(mat):
    det = ref_det(mat)
    assert abs_det(mat) == abs(det)
    assume(det != 0)
    h = hnf_rows(mat)
    adj, d = inverse_rows(h)
    assert d > 0
    assert int_product(h, adj) == [[d * int(i == j) for j in range(4)] for i in range(4)]
    # the least denominator, as the Fraction substitution finds it
    assert (adj, d) == ref_inverse_rows(h)


def test_inverse_rows_rejects_non_hnf():
    for rows in ([[1, 0], [1, 1]], [[1, 0], [0, 0]], [[-1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0]]):
        with pytest.raises(ValueError):
            inverse_rows(rows)


@given(square_mats(3), st.lists(small_int, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_membership_of_row_combinations(mat, coeffs):
    h = hnf_rows(mat)
    v = [0, 0, 0]
    for c, row in zip(coeffs, mat):
        v = [a + c * b for a, b in zip(v, row)]
    sol = hnf_coords(h, v)
    assert all(c.denominator == 1 for c in sol)
    w = [0, 0, 0]
    for c, row in zip(sol, h):
        w = [a + c * b for a, b in zip(w, row)]
    assert w == v


def test_membership_negative():
    h = hnf_rows([[2, 0], [0, 2]])
    assert hnf_coords(h, [1, 0]) == [Fraction(1, 2), 0]
    assert hnf_coords(h, [4, -2]) == [2, -1]


def test_solve_against_random_unimodular():
    rng = random.Random(7)
    base = identity_int(4)
    for _ in range(20):
        i, j = rng.randrange(4), rng.randrange(4)
        if i != j:
            c = rng.randint(-3, 3)
            base[i] = [a + c * b for a, b in zip(base[i], base[j])]
    h = hnf_rows(base)
    assert h == identity_int(4)


# --- rational preimage lattices ---


def preimage(mat, den):
    """integral_preimage_rows as Fraction rows."""
    rows, d = integral_preimage_rows(mat, den)
    return [[Fraction(v, d) for v in row] for row in rows]


def test_preimage_scalar_and_diagonal():
    assert preimage([[2]], 1) == [[Fraction(1, 2)]]
    assert preimage([[4]], 2) == [[Fraction(1, 2)]]
    assert preimage([[3]], 2) == [[Fraction(2, 3)]]
    assert preimage([[1, 0], [0, 3]], 1) == [[1, 0], [0, Fraction(1, 3)]]


def test_preimage_wide_matrix():
    # x must be integral against both columns blocks
    rows = preimage([[2, 0, 1], [0, 2, 1]], 1)
    for r in rows:
        for c in range(3):
            v = r[0] * Fraction([[2, 0, 1], [0, 2, 1]][0][c]) + r[1] * Fraction(
                [[2, 0, 1], [0, 2, 1]][1][c]
            )
            assert v.denominator == 1


def test_preimage_random_square():
    rng = random.Random(23)
    for _ in range(20):
        while True:
            m = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            h = hnf_rows(m)
            if len(h) == 3:
                break
        pre = preimage(m, 1)
        den, _ = integral_rows(pre)
        # every basis row of the preimage really maps into Z^3
        for r in pre:
            for c in range(3):
                v = sum(r[k] * m[k][c] for k in range(3))
                assert Fraction(v).denominator == 1
        # maximality: any integer vector y gives x = y * m^-1 in the preimage
        scaled = hnf_rows([[int(v * den) for v in row] for row in pre])
        for _ in range(5):
            y = [rng.randint(-6, 6) for _ in range(3)]
            x = _solve_left(m, y)
            target = [v * den for v in x]
            assert all(Fraction(t).denominator == 1 for t in target)
            assert all(c.denominator == 1 for c in hnf_coords(scaled, target))


def _solve_left(m, y):
    # x with x * m = y, over Q
    n = len(m)
    cols = [[Fraction(m[i][j]) for i in range(n)] for j in range(n)]
    aug = [cols[j] + [Fraction(y[j])] for j in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


# --- the shared HNF coordinate solve ---


@st.composite
def hnf_bases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    mat = draw(st.lists(st.lists(small_int, min_size=n, max_size=n), min_size=n, max_size=n))
    h = hnf_rows(mat)
    assume(len(h) == n)
    return h, draw(st.integers(min_value=1, max_value=12))


fracs = st.fractions(min_value=-20, max_value=20, max_denominator=9)


@given(hnf_bases(), st.data())
@settings(max_examples=80, deadline=None)
def test_hnf_coords_matches_dense_solve(basis, data):
    h, den = basis
    vec = data.draw(st.lists(fracs, min_size=len(h), max_size=len(h)))
    # w * h / den = vec is the column system (h / den)^T w = vec
    system = Matrix([[h[i][j] for i in range(len(h))] for j in range(len(h))], den)
    assert hnf_coords(h, vec, den) == system.solve_right(vec)


def test_hnf_coords_rejects_vectors_outside_the_span():
    with pytest.raises(ValueError, match="outside the span"):
        hnf_coords([[1, 0, 0], [0, 2, 0]], [0, 0, 1])
    with pytest.raises(ValueError, match="echelon"):
        hnf_coords([[0, 1], [1, 0]], [1, 1])


def test_quotient_projection_rejects_vectors_outside_the_lattice():
    V = QuotientSpace([[1, 1], [0, 2]], 1, [[5, 5], [0, 10]], 1, 5)
    assert V.proj((Fraction(3), Fraction(1))) == (3, 4)
    with pytest.raises(ValueError, match="not in lattice"):
        V.proj((Fraction(1, 2), Fraction(0)))
    with pytest.raises(ValueError, match="not in lattice"):
        V.proj((Fraction(1), Fraction(0)))


def test_canonical_lattice_divides_out_the_common_factor():
    # the span of (4, 2), (0, 6) over 6 is the span of (2, 1), (0, 3) over 3
    assert canonical_lattice([[0, 6], [4, 2]], 6, 2) == ([[2, 1], [0, 3]], 3)
    assert canonical_lattice([[2, 0], [0, 2]], 1, 2) == ([[2, 0], [0, 2]], 1)
    with pytest.raises(ValueError, match="full rank"):
        canonical_lattice([[1, 2], [2, 4]], 1, 2)


def test_integer_rows_checked_under_optimize(run_optimized):
    # a Fraction entry would be truncated by int(); it is refused instead,
    # with asserts stripped, as is a denominator that is not positive
    out = run_optimized(
        "from fractions import Fraction\n"
        "from quatforms.intmat import check_int_rows\n"
        "for rows, den in (([[1, Fraction(1, 2)]], 1), ([[1]], 0), ([[1]], -1),\n"
        "                  ([[1]], Fraction(2)), ([[1.0]], 1), ([[1]], 1)):\n"
        "    try:\n"
        "        print('returned', check_int_rows(rows, den))\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    assert out.splitlines() == ["ValueError"] * 5 + ["returned None"]
