import functools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from quatforms.numberfield import (
    FieldCtx,
    field_from_spec,
    make_quadratic_field,
    siegel_zeta_quadratic,
)


def F85():
    return make_quadratic_field(85)


def F10():
    return make_quadratic_field(10)


# -- construction and basic invariants --------------------------------


def test_rejects_bad_d():
    for d in (0, 1, -5, 12, 45, 99):
        with pytest.raises(ValueError):
            make_quadratic_field(d)
        with pytest.raises(ValueError):
            FieldCtx(d)


def test_field_from_spec():
    F = field_from_spec("quad:85")
    assert F.name == "quad:85" and F.degree == 2 and F.disc == 85
    with pytest.raises(ValueError):
        field_from_spec("cubic:7")


def test_zeta_values():
    assert make_quadratic_field(5).zeta_minus_one == Fraction(1, 30)
    assert make_quadratic_field(10).zeta_minus_one == Fraction(7, 6)
    assert make_quadratic_field(85).zeta_minus_one == 3
    assert siegel_zeta_quadratic(8) == Fraction(1, 12)


def test_fundamental_units():
    # basis (1, omega): (9+sqrt85)/2 = 4 + omega, 3+sqrt10, (1+sqrt5)/2 = omega
    assert make_quadratic_field(85).fundamental_units[0] == (4, 1)
    assert make_quadratic_field(10).fundamental_units[0] == (3, 1)
    assert make_quadratic_field(5).fundamental_units[0] == (0, 1)
    assert make_quadratic_field(13).fundamental_units[0] == (1, 1)
    for d in (5, 10, 13, 85):
        F = make_quadratic_field(d)
        assert abs(F.norm(F.fundamental_units[0])) == 1


def test_class_numbers():
    known = {
        2: (1, 1), 3: (1, 2), 5: (1, 1), 10: (2, 2), 13: (1, 1), 85: (2, 2),
        # fundamental unit of norm +1: (sqrt d) is principal but not
        # narrowly principal, so h+ = 2h
        6: (1, 2), 7: (1, 2), 15: (2, 4), 30: (2, 4),
    }
    for d, (h, hp) in known.items():
        F = make_quadratic_field(d)
        assert F.class_number == h, d
        assert F.narrow_class_number == hp, d


def test_element_arithmetic():
    F = F85()
    w = F.el((0, 1))
    assert F.mul(w, w) == F.el((21, 1))  # omega^2 = 21 + omega
    assert F.trace(w) == 1 and F.norm(w) == -21
    x = F.el((3, Fraction(1, 2)))
    assert F.mul(x, F.inv(x)) == F.one
    # omega = (1 +- sqrt 85)/2 is about -4.11 and 5.11, the smaller first
    assert F.sign_vector(w) == (-1, 1)
    assert F.sign_vector(F.el((-5, 1))) == (-1, 1)
    assert F.sign_vector(F.el((5, -1))) == (1, -1)
    assert F.sign_vector(F.zero) == (0, 0)
    assert F.is_totally_positive(F.el((5, 1)))
    assert not F.is_totally_positive(w)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    with pytest.raises(ValueError):
        F.el_pow(w, -1)


# -- closed forms against the table-driven references --------------------

ARITH_DS = (2, 3, 5, 10, 41, 85)


@functools.cache
def _field(d):
    return make_quadratic_field(d)


def _table(d):
    """Multiplication table of (1, omega): table[i][j] = e_i * e_j."""
    w2 = [(d - 1) // 4, 1] if d % 4 == 1 else [d, 0]
    return [[[1, 0], [0, 1]], [[0, 1], w2]]


def _table_mul(table, x, y):
    out = [Fraction(0)] * 2
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k in range(2):
                out[k] += xi * yj * table[i][j][k]
    return tuple(out)


def _table_norm(table, x):
    # determinant of multiplication by x
    (a, b), (c, e) = (_table_mul(table, basis, x) for basis in ((1, 0), (0, 1)))
    return a * e - b * c


def _isqrt_sign(d, x, root_sign):
    """Sign of x at the embedding omega -> (t1 + root_sign * sqrt D)/2.

    Clears denominators to A + B sqrt D with integers A, B; for B != 0,
    r = isqrt(B^2 D) < |B| sqrt D < r + 1 brackets the irrational part,
    and an integer A cannot fall strictly between -r - 1 and -r.
    """
    t0, t1 = _table(d)[1][1]
    D = t1 * t1 + 4 * t0
    den = x[0].denominator * x[1].denominator
    A = int(den * (2 * x[0] + t1 * x[1]))
    B = int(den * x[1]) * root_sign
    if B == 0:
        return (A > 0) - (A < 0)
    r = isqrt(B * B * D)
    if B > 0:
        return 1 if A + r >= 0 else -1
    return -1 if r - A >= 0 else 1


def _conj(d, x):
    t1 = _table(d)[1][1][1]
    return (x[0] + t1 * x[1], -x[1])


# zero coordinates often, since mul skips the terms they zero out
coords = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=12),
)


def field_elements(d):
    """Random elements of Q(sqrt d), and +-eps^k or its conjugate plus a
    small shift, whose embeddings nearly cancel."""
    F = _field(d)
    eps = F.fundamental_units[0]
    near = st.builds(
        lambda k, conj, sign, shift: F.add(
            F.smul(sign, F.el(_conj(d, F.el_pow(eps, k))) if conj else F.el_pow(eps, k)),
            F.from_int(shift),
        ),
        st.integers(min_value=1, max_value=12),
        st.booleans(),
        st.sampled_from((1, -1)),
        st.sampled_from((0, 1, -1, Fraction(1, 7), Fraction(-1, 7))),
    )
    return st.one_of(st.builds(lambda a, b: F.el((a, b)), coords, coords), near)


@given(st.sampled_from(ARITH_DS).flatmap(
    lambda d: st.tuples(st.just(d), field_elements(d), field_elements(d))))
@settings(max_examples=300, deadline=None)
def test_closed_forms_match_references(dxy):
    d, x, y = dxy
    F = _field(d)
    table = _table(d)
    assert F.sign_vector(x) == (_isqrt_sign(d, x, -1), _isqrt_sign(d, x, 1))
    assert F.mul(x, y) == _table_mul(table, x, y)
    assert F.norm(x) == _table_norm(table, x)
    assert F.trace(x) == x[0] + _table_mul(table, x, (0, 1))[1]
    if any(x):
        assert _table_mul(table, x, F.inv(x)) == F.one


def test_signs_of_unit_powers():
    for d in ARITH_DS:
        F = _field(d)
        x = F.one
        for _ in range(12):
            x = F.mul(x, F.fundamental_units[0])
            signs = (_isqrt_sign(d, x, -1), _isqrt_sign(d, x, 1))
            assert F.sign_vector(x) == signs
            assert F.sign_vector(F.neg(x)) == (-signs[0], -signs[1])
            assert F.sign_vector(F.el(_conj(d, x))) == signs[::-1]


def test_unit_index_checked_under_optimize(run_optimized):
    # a wrong cube of the half-integral unit must raise with asserts stripped
    out = run_optimized(
        "from quatforms import numberfield\n"
        "numberfield._half_mul = lambda d, u, v: (0, 0)\n"
        "try:\n"
        "    print('returned', numberfield.make_quadratic_field(5).fundamental_units)\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: unit index check failed")


# -- primes ------------------------------------------------------------


def test_primes_above_85():
    F = F85()
    above3 = F.primes_above(3)
    assert [(f, e) for _, f, e in above3] == [(1, 1), (1, 1)]
    P1, P2 = above3[0][0], above3[1][0]
    assert P1 != P2 and P1.norm() == 3 and P2.norm() == 3
    assert P1 * P2 == F.ideal(3)
    # (3, 2*omega) is the second prime in canonical order
    assert F.ideal(3, (0, 2)) == P2
    assert P2.rows == ((3, 0), (0, 1))

    above2 = F.primes_above(2)
    assert [(f, e) for _, f, e in above2] == [(2, 1)]  # inert
    for p in (5, 17):  # ramified divisors of 85
        above = F.primes_above(p)
        assert [(f, e) for _, f, e in above] == [(1, 2)]
        assert above[0][0] ** 2 == F.ideal(p)


def test_primes_above_10():
    F = F10()
    above2 = F.primes_above(2)
    assert [(f, e) for _, f, e in above2] == [(1, 2)]
    assert above2[0][0].rows == ((2, 0), (0, 1))
    assert len(F.primes_above(3)) == 2  # 10 is a square mod 3
    assert [(f, e) for _, f, e in F.primes_above(7)] == [(2, 1)]


def _kronecker(D, p):
    """(D/p) for a prime p."""
    if p == 2:
        return 0 if D % 2 == 0 else (1 if D % 8 in (1, 7) else -1)
    s = pow(D, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 15, 41, 85])
def test_splitting_follows_kronecker_symbol(d):
    F = make_quadratic_field(d)
    shapes = {1: [(1, 1), (1, 1)], -1: [(2, 1)], 0: [(1, 2)]}
    for p in range(2, 400):
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        above = F.primes_above(p)
        assert [(f, e) for _, f, e in above] == shapes[_kronecker(F.disc, p)], (d, p)
        prod = F.unit_ideal()
        for P, f, e in above:
            assert P.norm() == p**f
            prod = prod * P**e
        assert prod == F.ideal(p)


def test_prime_ideals_up_to():
    norms = [pr.norm for pr in F85().prime_ideals_up_to(20)]
    assert norms == [3, 3, 4, 5, 7, 7, 17, 19, 19]


# -- ideal arithmetic ---------------------------------------------------


def _random_ideal(F, rng):
    return F.ideal(
        (rng.randint(-9, 9), rng.randint(1, 9)),
        rng.randint(2, 40),
    )


def test_ideal_norm_and_inverse_random():
    rng = random.Random(11)
    for F in (F85(), F10()):
        for _ in range(8):
            a = _random_ideal(F, rng)
            b = _random_ideal(F, rng)
            assert (a * b).norm() == a.norm() * b.norm()
            assert a * a.inverse() == F.unit_ideal()
            s = F.ideal(*a.basis_vectors(), *b.basis_vectors())
            assert s.divides(a) and s.divides(b)


small = st.integers(min_value=-6, max_value=6)


@given(small, st.integers(min_value=1, max_value=6), st.integers(min_value=2, max_value=20))
@settings(max_examples=40, deadline=None)
def test_ideal_inverse_matches_conjugate(a, b, m):
    # for quadratic fields the inverse is the conjugate over the norm
    F = make_quadratic_field(85)
    ideal = F.ideal((a, b), m)
    t = F.trace(F.el((0, 1)))

    def conj(v):
        return (v[0] + t * v[1], -v[1])

    conj_ideal = F.ideal(*[conj(v) for v in ideal.basis_vectors()])
    assert ideal.inverse() == conj_ideal * (1 / ideal.norm())


def test_ideal_factor():
    F = F10()
    P2 = F.primes_above(2)[0][0]
    assert F.ideal(2).factor() == [(P2, 2)]
    fac = F.ideal(30).factor()
    assert sorted(e for _, e in fac) == [1, 1, 2, 2]
    assert F.ideal(2).valuation(P2) == 2
    frac = F.ideal(Fraction(1, 2))
    assert frac.valuation(P2) == -2


def test_contains_and_integrality():
    F = F85()
    P = F.primes_above(3)[0][0]
    assert P.den == 1
    assert P.contains(F.el((1, 2)))
    assert not P.contains(F.one)
    assert not F.ideal(3).contains(F.el((1, 2)))


# -- principality -------------------------------------------------------


def test_principality_certified():
    F = F85()
    P3 = F.primes_above(3)[0][0]
    assert F.principal_generator(P3) is None
    g = F.principal_generator(P3 * P3)
    assert g is not None
    assert F.principal_ideal(g) == P3 * P3
    assert abs(F.norm(g)) == 9


def test_principal_generator_random():
    rng = random.Random(5)
    for F in (F85(), F10()):
        for _ in range(8):
            x = F.el((rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3])))
            a = F.principal_ideal(x)
            g = F.principal_generator(a)
            assert g is not None and F.principal_ideal(g) == a


def test_principal_generator_searches_each_ideal_once(monkeypatch):
    # the answer is kept by the canonical basis, so an equal ideal built
    # another way, or a repeated narrow test, searches nothing again
    F = F10()
    searched = []
    search = FieldCtx._search_generator

    def counted(self, a):
        searched.append(a)
        return search(self, a)

    monkeypatch.setattr(FieldCtx, "_search_generator", counted)
    P2 = F.primes_above(2)[0][0]
    a = P2 * F.ideal(7)
    b = F.ideal(7) * P2
    assert F.principal_generator(a) is None
    assert F.principal_generator(b) is None
    assert F.narrowly_principal_generator(a) is None
    g = F.principal_generator(F.ideal(31, (14, 1)))
    assert F.narrowly_principal_generator(F.principal_ideal((11, 3))) is not None
    assert F.principal_generator(F.ideal(31, (14, 1))) == g
    assert searched == [a, F.ideal(31, (14, 1))]


def test_narrow_principality():
    F = F10()
    P2 = F.primes_above(2)[0][0]
    assert F.narrowly_principal_generator(P2) is None
    P31 = F.ideal(31, (14, 1))
    g = F.narrowly_principal_generator(P31)
    assert g is not None and F.is_totally_positive(g)
    assert F.principal_ideal(g) == P31 == F.principal_ideal((11, 3))


def test_narrow_strictly_finer_than_wide():
    # (sqrt 3) is principal but has no totally positive generator
    F = make_quadratic_field(3)
    sq3 = F.principal_ideal((0, 1))
    assert F.principal_generator(sq3) is not None
    assert F.narrowly_principal_generator(sq3) is None


def test_class_and_narrow_dlog():
    F = F10()
    P2 = F.primes_above(2)[0][0]
    P31 = F.ideal(31, (14, 1))
    assert F.class_of(F.unit_ideal()) == 0
    assert F.class_of(P2) == 1
    assert F.narrow_dlog(P2) == (1,)
    assert F.narrow_dlog(P31) == (0,)
    # genus signs used by the Eisenstein tables: chi = -1 at 2,3,5,13,37
    for p, res in ((3, 1), (5, 0), (13, 6), (37, 11)):
        P = F.ideal(p, (res, 1)) if res else F.primes_above(p)[0][0]
        assert F.narrow_dlog(P) == (1,), p


def test_minkowski_pool_covered():
    for d in (10, 85):
        F = make_quadratic_field(d)
        for pr in F.prime_ideals_up_to(10):
            assert F.class_of(pr.ideal) in range(F.class_number)


# -- units ---------------------------------------------------------------


def _is_unit_square(F, x):
    # x = eps^(2k) for some |k| <= 5, which covers the exponents tested below
    eps = F.fundamental_units[0]
    return any(F.el_pow(eps, 2 * k) == x or F.el_pow(F.inv(eps), 2 * k) == x
               for k in range(6))


def test_totally_positive_units():
    for d, count in ((3, 2), (5, 1), (10, 1), (85, 1)):
        F = make_quadratic_field(d)
        reps = F.totally_positive_units()
        assert len(reps) == count
        assert reps[0] == F.one
        for u in reps:
            assert F.is_totally_positive(u)
            assert abs(F.norm(u)) == 1
        # pairwise distinct modulo unit squares
        for i, u in enumerate(reps):
            for v in reps[i + 1:]:
                assert not _is_unit_square(F, F.mul(u, F.inv(v)))
        # every totally positive +-eps^k, |k| <= 4, is a rep times a square
        eps = F.fundamental_units[0]
        for k in range(-4, 5):
            for sign in (1, -1):
                x = F.smul(sign, F.el_pow(eps, k) if k >= 0 else F.el_pow(F.inv(eps), -k))
                if F.is_totally_positive(x):
                    assert any(_is_unit_square(F, F.mul(x, F.inv(u))) for u in reps)
