import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraction_refs import (
    lattice_basis,
    ref_compose,
    ref_coords,
    ref_det,
    ref_is_order,
    ref_lattice,
    ref_left_matrix,
    ref_mul,
    ref_mul_table,
    ref_pair,
)
from quatforms import quaternion
from quatforms.classset import compute_class_set, narrow_support
from quatforms.intmat import integral_rows
from quatforms.numberfield import field_from_spec
from quatforms.quaternion import (
    QuatAlgebra,
    QuatLattice,
    _norm_shell,
    hilbert_ramification_free_algebra,
    is_order,
    maximalize,
    norm_equation_solutions,
    reduced_discriminant_norm,
    trace_form_gram,
)

F85 = field_from_spec("quad:85")
F10 = field_from_spec("quad:10")
F5 = field_from_spec("quad:5")


def _alg(F):
    return QuatAlgebra(F, -1, -1)


def test_rejects_indefinite_structure_constants():
    with pytest.raises(ValueError):
        QuatAlgebra(F85, 1, -1)
    with pytest.raises(ValueError):
        QuatAlgebra(F85, -1, 1)
    # omega = (1 + sqrt(85))/2 is positive at one real place, negative at
    # the other; mixed signs must be rejected just like positive ones
    w = F85.el((0, 1))
    with pytest.raises(ValueError):
        QuatAlgebra(F85, F85.neg(w), -1)
    with pytest.raises(ValueError):
        QuatAlgebra(F85, Fraction(-1, 2), -1)


def test_element_arithmetic():
    alg = _alg(F85)
    i, j, k = alg.el(0, 1), alg.el(0, 0, 1), alg.el(0, 0, 0, 1)
    assert alg.mul(i, j) == k
    assert alg.mul(j, i) == alg.el(0, 0, 0, -1)
    assert alg.mul(i, i) == alg.el(-1)
    assert alg.mul(k, k) == alg.el(-1)
    x = alg.el(2, 1, 0, 3)
    # nr(2 + i + 3k) = 4 + 1 + 9
    assert alg.base.el(alg.nr(x)) == F85.from_int(14)
    xbar = alg.conj(x)
    assert xbar == alg.el(2, -1, 0, -3)
    # trd(x) = x + conj(x) = 4
    assert tuple(a + b for a, b in zip(x, xbar)) == alg.el(4)
    prod = alg.mul(x, xbar)
    assert prod == alg.el(14)
    xi = alg.inv(x)
    assert alg.mul(x, xi) == alg.one
    assert alg.mul(xi, x) == alg.one
    with pytest.raises(ZeroDivisionError):
        alg.inv(alg.el(0))


def _random_elems(alg, rng, count, span=5):
    out = []
    for _ in range(count):
        out.append(
            tuple(Fraction(rng.randint(-span, span)) for _ in range(alg.dim))
        )
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_norm_is_multiplicative(seed):
    alg = _alg(F10)
    rng = random.Random(seed)
    x, y = _random_elems(alg, rng, 2)
    lhs = alg.nr(alg.mul(x, y))
    rhs = alg.base.mul(alg.nr(x), alg.nr(y))
    assert alg.base.el(lhs) == alg.base.el(rhs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_multiplication_is_associative(seed):
    alg = _alg(F85)
    rng = random.Random(seed)
    x, y, z = _random_elems(alg, rng, 3, span=3)
    assert alg.mul(alg.mul(x, y), z) == alg.mul(x, alg.mul(y, z))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_conjugation_reverses_products(seed):
    alg = _alg(F5)
    rng = random.Random(seed)
    x, y = _random_elems(alg, rng, 2)
    assert alg.conj(alg.mul(x, y)) == alg.mul(alg.conj(y), alg.conj(x))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_totally_definite_norm(seed):
    # nonzero elements have totally positive reduced norm
    alg = _alg(F10)
    rng = random.Random(seed)
    (x,) = _random_elems(alg, rng, 1)
    if any(x):
        assert alg.base.is_totally_positive(alg.nr(x))


def test_standard_order_discriminant():
    # disc of O_F<1,i,j,k> is (2ab)^2 = (4), so the reduced discriminant
    # has norm 16 over any real quadratic field
    for F in (F85, F10):
        order = _alg(F).standard_order()
        assert reduced_discriminant_norm(order) == 16


def test_maximalize_reaches_unit_discriminant():
    expected_trails = {
        "quad:85": [16, 4, 1],
        "quad:10": [16, 8, 1],
        "quad:5": [16, 4, 1],
    }
    for spec, want in expected_trails.items():
        alg = _alg(field_from_spec(spec))
        start = alg.standard_order()
        top, trail = quaternion._maximalize(start)
        assert trail == want
        assert maximalize(start) == top
        assert all(a > b for a, b in zip(trail, trail[1:]))
        assert reduced_discriminant_norm(top) == 1
        assert is_order(top)
        assert top.contains_lattice(start)
        assert maximalize(top) == top


def test_maximalize_rejects_non_orders():
    alg = _alg(F85)
    rows = [list(r) for r in lattice_basis(alg.standard_order())]
    # halve the i block; nr(i/2) = 1/4 is not integral
    for t in range(2, 4):
        rows[t] = [c / 2 for c in rows[t]]
    lat = ref_lattice(alg, rows)
    assert not is_order(lat)
    with pytest.raises(ValueError):
        maximalize(lat)


@pytest.mark.parametrize("spec", ["quad:3", "quad:5", "quad:10", "quad:13", "quad:15", "quad:85"])
def test_mul_table_matches_fraction_products(spec):
    # the table read off the relations against the Fraction products of
    # basis vectors, for a = -1 and each b of the list that is totally
    # negative (-1 - omega is not over quad:3 or quad:15)
    F = field_from_spec(spec)
    bs = [b for b in (F.from_int(-1), F.el((-1, -1)), F.from_int(-3))
          if F.sign_vector(b) == (-1, -1)]
    assert len(bs) >= 2
    for b in bs:
        alg = QuatAlgebra(F, -1, b)
        assert alg.mul_table() == ref_mul_table(alg)


def _non_orders(alg):
    """Three lattices that fail is_order: the halved i block (nr(i/2) is
    not integral), 2 O for the standard order O (integral and closed
    under products, but without 1), and an integral lattice with 1 that
    is not closed under products (it has i and j but only 2k)."""
    N, n = alg.dim, alg.base.degree
    unit = [[int(r == c) for c in range(N)] for r in range(N)]
    halved = [[2 * c for c in row] for row in unit]
    for t in range(n, 2 * n):
        halved[t] = unit[t]
    no_one = [[2 * c for c in row] for row in unit]
    no_k = [row[:] for row in unit]
    for t in range(3 * n, N):
        no_k[t][t] = 2
    return [QuatLattice(alg, halved, 2), QuatLattice(alg, no_one, 1), QuatLattice(alg, no_k, 1)]


def test_is_order_matches_fraction_reference():
    # standard, intermediate and maximal orders of three fields, the
    # left orders of the quad:85 class representatives, and non-orders
    cases = []
    for F in (F5, F10, F85):
        alg = hilbert_ramification_free_algebra(F)
        start = alg.standard_order()
        cases += [(start, True), (quaternion._enlarge_at(start, 2), True),
                  (maximalize(start), True)]
        cases += [(lat, False) for lat in _non_orders(alg)]
    R = maximalize(hilbert_ramification_free_algebra(F85).standard_order())
    cs = compute_class_set(R, narrow_support(F85))
    assert len(cs.left_orders) == 8
    cases += [(O, True) for O in cs.left_orders]
    for lat, want in cases:
        assert ref_is_order(lat) is want
        assert is_order(lat) is want


def test_maximal_orders_pinned():
    # (rows, den, trail) of the maximalized standard order of each field;
    # 2 is inert in quad:13 and split in quad:41 and quad:65, whose
    # searches also enlarge at 3
    pins = {
        F5: "151b49ce91bc2bba50132f7e35f88b394f765983d24504bea5f47df6103d8fcb",
        F10: "67bd0f937c06743f2016ba9125cab02f79128a53a36ff3e0a3cbaaab6127783e",
        F85: "151b49ce91bc2bba50132f7e35f88b394f765983d24504bea5f47df6103d8fcb",
        field_from_spec("quad:13"): "151b49ce91bc2bba50132f7e35f88b394f765983d24504bea5f47df6103d8fcb",
        field_from_spec("quad:41"): "4d1e845204a6a0c306d5e32182cf0a3b944e9c58a142d8f646679c3c58ca0acb",
        field_from_spec("quad:65"): "4d1e845204a6a0c306d5e32182cf0a3b944e9c58a142d8f646679c3c58ca0acb",
    }
    for F, digest in pins.items():
        top, trail = quaternion._maximalize(hilbert_ramification_free_algebra(F).standard_order())
        assert hashlib.sha256(repr((top.rows, top.den, trail)).encode()).hexdigest() == digest


@pytest.mark.parametrize("spec, b", [
    # -4 - omega and -6 - omega, at box radii 4 and 6: no candidate of
    # radius 3 or less leaves these algebras unramified
    ("quad:73", (-4, -1)),
    ("quad:97", (-6, -1)),
])
def test_structure_search_walks_past_radius_three(spec, b):
    F = field_from_spec(spec)
    alg = hilbert_ramification_free_algebra(F)
    assert (tuple(alg.a), tuple(alg.b)) == ((-1, 0), b)
    assert reduced_discriminant_norm(maximalize(alg.standard_order())) == 1


def test_idealizer_stabilizes_right_order_only_when_left_did_not_grow(monkeypatch):
    # each idealizer step stabilizes the left order of the lifted ideal,
    # and its right order only when the left order is the order itself
    stabilizer, growth = QuatLattice._stabilizer, quaternion._idealizer_growth
    sides = []
    steps = []

    def recorded(self, left):
        out = stabilizer(self, left)
        sides.append((left, out))
        return out

    def recorded_growth(order, *args):
        start = len(sides)
        out = growth(order, *args)
        steps.append((sides[start][1] != order, [left for left, _ in sides[start:]]))
        return out

    monkeypatch.setattr(QuatLattice, "_stabilizer", recorded)
    monkeypatch.setattr(quaternion, "_idealizer_growth", recorded_growth)
    for F in (F5, F10, F85):
        # a fresh algebra, so maximalize finds nothing kept
        maximalize(_alg(F).standard_order())
    assert steps
    assert all(got == ([True] if grew else [True, False]) for grew, got in steps)
    assert any(grew for grew, _ in steps) and not all(grew for grew, _ in steps)


def test_setup_builds_no_fraction_quaternion_product(monkeypatch):
    # the algebra search and the maximal order run on the integer table
    def refuse(*args):
        raise AssertionError("Fraction quaternion product in the setup")

    monkeypatch.setattr(QuatAlgebra, "mul", refuse)
    for F in (F5, F10, F85):
        alg = hilbert_ramification_free_algebra(F)
        top = maximalize(alg.standard_order())
        assert reduced_discriminant_norm(top) == 1
        assert is_order(top)


def test_lattice_requires_full_rank():
    alg = _alg(F85)
    i, j = alg.el(0, 1), alg.el(0, 0, 1)
    with pytest.raises(ValueError):
        ref_lattice(alg, [alg.one, i, j, alg.el(1, 1)])


def test_ramification_free_search_quadratic():
    alg = hilbert_ramification_free_algebra(F85)
    assert alg.base is F85
    assert alg.a == F85.from_int(-1) and alg.b == F85.from_int(-1)
    top = maximalize(alg.standard_order())
    assert reduced_discriminant_norm(top) == 1
    # the cached order is reused
    assert maximalize(alg.standard_order()) is top


def test_principal_ideal_identities():
    alg = hilbert_ramification_free_algebra(F85)
    R = maximalize(alg.standard_order())
    x = alg.el(1, 1, 1, 0)  # nr = 3
    assert alg.base.el(alg.nr(x)) == F85.from_int(3)
    I = R.lmul_element(x)
    assert I.nr_ideal() == F85.ideal(F85.from_int(3))
    assert I.right_order() == R
    xinv = alg.inv(x)
    conj_order = ref_lattice(alg, [alg.mul(alg.mul(x, v), xinv) for v in lattice_basis(R)])
    assert I.left_order() == conj_order
    assert conj_order != R
    Iinv = I.inverse()
    assert I.compose(Iinv) == I.left_order()
    assert Iinv.compose(I) == R
    assert R.compose(R) == R
    assert R.inverse() == R
    assert R.nr_ideal() == F85.unit_ideal()


def test_compose_requires_matching_orders():
    alg = hilbert_ramification_free_algebra(F85)
    R = maximalize(alg.standard_order())
    x = alg.el(1, 1, 1, 0)
    I = R.lmul_element(x)
    assert I.left_order() != I.right_order()
    with pytest.raises(ValueError, match="incompatible orders"):
        I.compose(I)


def test_int_coords_and_lattice_products():
    # integer coordinates of whole matrices against the Fraction solve,
    # None for vectors outside the lattice, and the lattice product, the
    # full one and compose where the orders match, against the span of
    # all quaternion products
    alg = _alg(F10)
    R = maximalize(alg.standard_order())
    I = R.lmul_element(alg.el(1, 1, 1, 0))
    rng = random.Random(4)
    mat = [[rng.randint(-6, 6) for _ in range(alg.dim)] for _ in range(5)]
    for den in (1, 2, 3):
        want = [ref_coords(R, [Fraction(c, den) for c in row]) for row in mat]
        got = R.int_coords(mat, den)
        if all(c.denominator == 1 for row in want for c in row):
            assert got == want
        else:
            assert got is None
    assert R.int_coords([list(r) for r in R.rows], R.den) == [
        [int(i == j) for j in range(alg.dim)] for i in range(alg.dim)
    ]
    assert R.int_coords([list(r) for r in R.rows], 2 * R.den) is None
    for x, y in ((I, R), (R, I), (I, I.conjugate())):
        span = ref_lattice(
            alg, [alg.mul(u, v) for u in lattice_basis(x) for v in lattice_basis(y)]
        )
        assert ref_compose(x, y) == span
        if x.right_order() == y.left_order():
            assert x.compose(y) == span


def test_lattice_sum_and_intersection():
    alg = hilbert_ramification_free_algebra(F85)
    R = maximalize(alg.standard_order())
    x = alg.el(1, 1, 1, 0)
    y = alg.el(1, 0, 1, 1)
    I = R.lmul_element(x)
    J = R.lmul_element(y)
    S = ref_lattice(alg, lattice_basis(I) + lattice_basis(J))
    assert S.right_order() == R
    # the basis rows of I have integer coordinates over S
    assert S.int_coords([list(r) for r in I.rows], I.den) is not None
    assert S.contains_lattice(I) and S.contains_lattice(J)
    # the norm of the sum divides the norm of each summand
    assert S.nr_ideal().divides(I.nr_ideal())


def test_ideal_scaling_and_conjugate():
    alg = hilbert_ramification_free_algebra(F10)
    R = maximalize(alg.standard_order())
    two = R.iscale(F10.ideal(2))
    for c in (2, Fraction(-2, 3)):
        assert R.iscale(F10.ideal(c)) == ref_lattice(
            alg, [[c * u for u in v] for v in lattice_basis(R)])
    assert two.covolume() / R.covolume() == 2 ** alg.dim
    assert two.nr_ideal() == F10.ideal(F10.from_int(4))
    w = F10.el((0, 1))  # sqrt(10)
    scaled = R.iscale(F10.ideal(w))
    assert scaled.nr_ideal() == F10.ideal(F10.from_int(10))
    assert R.conjugate() == R


def test_norm_shell_is_integral():
    # the shell search hands iter_norm ints only, and no shell when the
    # shell value on the integral Gram is not an integer: the maximal
    # order over Q(sqrt 10) has basis denominator 2, and the target 1/4
    # passes the norm form test (D * alpha integral) but has shell value
    # 1/2
    R = maximalize(hilbert_ramification_free_algebra(F10).standard_order())
    assert R.den == 2
    assert _norm_shell(R, (Fraction(1, 4), 0)) is None
    assert norm_equation_solutions(R, (Fraction(1, 4), 0)) == []
    gram, value, forms = _norm_shell(R, 3)
    ints = [value] + [c for row in gram for c in row] + [v for _, v in forms]
    assert all(type(c) is int for c in ints)


def test_norm_equation_recovers_witness():
    alg = hilbert_ramification_free_algebra(F85)
    R = maximalize(alg.standard_order())
    x = alg.el(1, 1, 1, 0)
    sols = norm_equation_solutions(R, 3)
    assert len(sols) == 48
    tx = tuple(Fraction(c) for c in x)
    neg = tuple(-c for c in tx)
    assert any(s == tx or s == neg for s in sols)
    for s in sols:
        assert alg.base.el(alg.nr(s)) == F85.from_int(3)
    # every solution lies in R
    d, rows = integral_rows(sols)
    assert R.int_coords(rows, d) is not None


def test_norm_equation_takes_rational_scalar_targets():
    # a Fraction scalar is the field element it names, as an int is
    R = maximalize(hilbert_ramification_free_algebra(F5).standard_order())
    sols = norm_equation_solutions(R, 1)
    assert len(sols) == 60
    assert norm_equation_solutions(R, Fraction(1)) == sols
    assert norm_equation_solutions(R, Fraction(1, 2)) == []


def test_norm_equation_rejects_not_totally_positive():
    alg = hilbert_ramification_free_algebra(F85)
    R = maximalize(alg.standard_order())
    with pytest.raises(ValueError):
        norm_equation_solutions(R, -1)
    w = F85.el((0, 1))  # mixed signs
    with pytest.raises(ValueError):
        norm_equation_solutions(R, w)


def test_unit_counts_of_maximal_orders():
    # norm one elements up to sign; 60 pairs is the icosian group over
    # Q(sqrt 5), and the order the search lands on over Q(sqrt 10) has a
    # Hurwitz unit group (12 pairs, consistent with Eichler mass 7/6)
    alg5 = hilbert_ramification_free_algebra(F5)
    assert len(norm_equation_solutions(maximalize(alg5.standard_order()), 1)) == 60
    alg10 = hilbert_ramification_free_algebra(F10)
    assert len(norm_equation_solutions(maximalize(alg10.standard_order()), 1)) == 12


def test_trace_form_is_positive_definite():
    alg = hilbert_ramification_free_algebra(F10)
    R = maximalize(alg.standard_order())
    # the plain form, and the weight N(eps^2) / eps^2 of a skewed target
    eps = F10.el((3, 1))
    eps_sq = F10.mul(eps, eps)
    skewed = F10.smul(F10.norm(eps_sq), F10.inv(eps_sq))
    bs = lattice_basis(R)
    for w in ((1, 0), tuple(c.numerator for c in skewed)):
        gram, g = trace_form_gram(R, w)
        # the integer Gram is D / (2 g) times the Fraction one from ref_pair
        scale = Fraction(R.norm_forms()[1], 2 * g)
        assert [[Fraction(v) / scale for v in row] for row in gram] == [
            [F10.trace(F10.mul(w, ref_pair(alg, x, y))) for y in bs] for x in bs
        ]
        # leading principal minors all positive
        for t in range(1, len(gram) + 1):
            assert ref_det([row[:t] for row in gram[:t]]) > 0


def test_discriminant_certificate_checked_under_optimize(run_optimized):
    # a Gram determinant whose quotient by disc(F)^4 is not a square must
    # be rejected with asserts stripped
    out = run_optimized(
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import QuatAlgebra, QuatLattice, reduced_discriminant_norm\n"
        "F = field_from_spec('quad:10')\n"
        "QuatLattice.disc_z = lambda self: 2 * F.disc ** 4\n"
        "try:\n"
        "    print('returned', reduced_discriminant_norm(QuatAlgebra(F, -1, -1).standard_order()))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: discriminant norm is not a square")


def test_lattice_product_rejects_another_algebra():
    R, S = _alg(F10).standard_order(), _alg(F10).standard_order()
    with pytest.raises(ValueError, match="different algebras"):
        R.compose(S)


def test_idealizer_containment_checked_under_optimize(run_optimized):
    # an idealizer that fails to contain the order must be rejected with
    # asserts stripped
    out = run_optimized(
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import QuatAlgebra, QuatLattice, maximalize\n"
        "QuatLattice.contains_lattice = lambda self, other: False\n"
        "alg = QuatAlgebra(field_from_spec('quad:5'), -1, -1)\n"
        "try:\n"
        "    print('returned', maximalize(alg.standard_order()))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: idealizer does not contain the order")


def test_lattice_rejects_fractions_under_optimize(run_optimized):
    # the one constructor takes integer rows over a positive denominator;
    # a Fraction entry or a bad denominator is refused, asserts stripped
    out = run_optimized(
        "from fractions import Fraction\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import QuatAlgebra, QuatLattice\n"
        "alg = QuatAlgebra(field_from_spec('quad:10'), -1, -1)\n"
        "unit = [[int(i == j) for j in range(8)] for i in range(8)]\n"
        "half = [row[:] for row in unit]\n"
        "half[3][3] = Fraction(1, 2)\n"
        "for rows, den in ((half, 1), (unit, 0), (unit, -1), (unit, Fraction(1, 2))):\n"
        "    try:\n"
        "        print('returned', QuatLattice(alg, rows, den))\n"
        "    except ValueError:\n"
        "        print('ValueError')\n"
    )
    assert out.split() == ["ValueError"] * 4


@pytest.mark.parametrize("F", [F5, F10, F85], ids=["quad:5", "quad:10", "quad:85"])
def test_left_matrix_matches_dense_reference(F):
    # the sparse structure table against the dense one, on integer rows
    # and on rational coordinates
    alg = hilbert_ramification_free_algebra(F)
    rng = random.Random(19)
    for _ in range(20):
        xs = [rng.randint(-9, 9) for _ in range(alg.dim)]
        q = tuple(Fraction(c, rng.randint(1, 6)) for c in xs)
        assert alg.left_matrix(tuple(xs)) == ref_left_matrix(alg, xs)
        assert alg.left_matrix(q) == ref_left_matrix(alg, q)
    for row in maximalize(alg.standard_order()).rows:
        assert alg.left_matrix(row) == ref_left_matrix(alg, row)


@pytest.mark.parametrize("F", [F5, F85], ids=["quad:5", "quad:85"])
def test_right_matrix_matches_quaternion_products(F):
    # y M / d is the closed-form product y * x, for rational x
    alg = hilbert_ramification_free_algebra(F)
    rng = random.Random(23)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(alg.dim))
        y = [rng.randint(-9, 9) for _ in range(alg.dim)]
        m, d = alg.right_matrix(x)
        got = tuple(Fraction(sum(a * row[u] for a, row in zip(y, m)), d) for u in range(alg.dim))
        assert got == ref_mul(alg, y, x)
        assert alg.mul(x, y) == ref_mul(alg, x, y)


def test_left_matrix_builds_no_fraction_on_integers(monkeypatch):
    # neither the structure tables of a fresh algebra nor the left matrix
    # of an integer vector build a Fraction
    alg = QuatAlgebra(F10, -1, -1)
    want = ref_left_matrix(QuatAlgebra(F10, -1, -1), list(range(alg.dim)))

    def refuse(*args):
        raise AssertionError("Fraction built on integer input")

    monkeypatch.setattr(quaternion, "Fraction", refuse)
    assert alg.left_matrix(tuple(range(alg.dim))) == want


def test_shell_vectors_off_the_norm_checked_under_optimize(run_optimized):
    # a shell walk that reports every vector inside the shell as lying on
    # it hands the norm form test vectors of the wrong values; with
    # asserts stripped they must all be rejected
    out = run_optimized(
        "from quatforms import latticetools\n"
        "from quatforms.numberfield import field_from_spec\n"
        "from quatforms.quaternion import (\n"
        "    hilbert_ramification_free_algebra, maximalize, norm_equation_solutions)\n"
        "R = maximalize(hilbert_ramification_free_algebra(field_from_spec('quad:5')).standard_order())\n"
        "want = norm_equation_solutions(R, 4)\n"
        "walk = latticetools.fincke_pohst\n"
        "injected = []\n"
        "def faulty(gram, bound):\n"
        "    for t in range(1, bound + 1):\n"
        "        for x in walk(gram, t):\n"
        "            injected.append(x)\n"
        "            yield x\n"
        "latticetools.fincke_pohst = faulty\n"
        "got = norm_equation_solutions(R, 4)\n"
        "print(got == want, len(injected) > 2 * len(want))\n"
    )
    assert out.split() == ["True", "True"]
