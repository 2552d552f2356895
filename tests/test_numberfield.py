import functools
import hashlib
import random
from fractions import Fraction
from math import isqrt, log, sqrt

import pytest
from hypothesis import given, settings, strategies as st

from fraction_refs import (
    el_pow,
    hnf_coords,
    ideal_basis,
    ref_narrow_class,
    ref_principal_generator,
)
from quatforms import numberfield
from quatforms.numberfield import (
    FieldCtx,
    _reduced_cycles,
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


def _element_orders(mul):
    """The orders of the elements of the group with table mul, sorted."""
    out = []
    for i in range(len(mul)):
        k, x = 1, i
        while x:
            k, x = k + 1, mul[x][i]
        out.append(k)
    return sorted(out)


def test_class_numbers():
    known = {
        2: (1, 1), 3: (1, 2), 5: (1, 1), 10: (2, 2), 13: (1, 1), 85: (2, 2),
        # fundamental unit of norm +1: (sqrt d) is principal but not
        # narrowly principal, so h+ = 2h
        6: (1, 2), 7: (1, 2), 15: (2, 4), 30: (2, 4),
        # narrow class groups that are not 2-elementary
        34: (2, 4), 79: (3, 6), 82: (4, 4),
    }
    # Cl+ is Z/2 x Z/2 for 15 and 30, and cyclic for 34, 79 and 82
    orders = {
        15: [1, 2, 2, 2], 30: [1, 2, 2, 2],
        34: [1, 2, 4, 4], 79: [1, 2, 3, 3, 6, 6], 82: [1, 2, 4, 4],
    }
    for d, (h, hp) in known.items():
        F = make_quadratic_field(d)
        assert F.class_number == h, d
        assert F.narrow_class_number == hp, d
        mul = F.narrow_mul
        # a group table: the unit ideal's class is the identity, every
        # row is a permutation, and the product is associative
        assert mul[0] == list(range(hp))
        assert all(sorted(row) == list(range(hp)) for row in mul)
        assert all(
            mul[mul[i][j]][k] == mul[i][mul[j][k]]
            for i in range(hp) for j in range(hp) for k in range(hp)
        )
        assert _element_orders(mul) == orders.get(d, [1, 2][:hp]), d


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
            F.smul(sign, F.el(_conj(d, el_pow(F, eps, k))) if conj else el_pow(F, eps, k)),
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


# the fundamental unit x + y omega of every squarefree d < 200, computed
# independently: the least solution of x^2 - d y^2 = +-1, and for d = 1
# mod 4 the least of X^2 - d Y^2 = +-4 when it gives a unit of O
UNITS_BELOW_200 = {
    2: (1, 1), 3: (2, 1), 5: (0, 1), 6: (5, 2), 7: (8, 3), 10: (3, 1), 11: (10, 3),
    13: (1, 1), 14: (15, 4), 15: (4, 1), 17: (3, 2), 19: (170, 39), 21: (2, 1),
    22: (197, 42), 23: (24, 5), 26: (5, 1), 29: (2, 1), 30: (11, 2), 31: (1520, 273),
    33: (19, 8), 34: (35, 6), 35: (6, 1), 37: (5, 2), 38: (37, 6), 39: (25, 4),
    41: (27, 10), 42: (13, 2), 43: (3482, 531), 46: (24335, 3588), 47: (48, 7),
    51: (50, 7), 53: (3, 1), 55: (89, 12), 57: (131, 40), 58: (99, 13), 59: (530, 69),
    61: (17, 5), 62: (63, 8), 65: (7, 2), 66: (65, 8), 67: (48842, 5967), 69: (11, 3),
    70: (251, 30), 71: (3480, 413), 73: (943, 250), 74: (43, 5), 77: (4, 1),
    78: (53, 6), 79: (80, 9), 82: (9, 1), 83: (82, 9), 85: (4, 1), 86: (10405, 1122),
    87: (28, 3), 89: (447, 106), 91: (1574, 165), 93: (13, 3), 94: (2143295, 221064),
    95: (39, 4), 97: (5035, 1138), 101: (9, 2), 102: (101, 10), 103: (227528, 22419),
    105: (37, 8), 106: (4005, 389), 107: (962, 93), 109: (118, 25), 110: (21, 2),
    111: (295, 28), 113: (703, 146), 114: (1025, 96), 115: (1126, 105),
    118: (306917, 28254), 119: (120, 11), 122: (11, 1), 123: (122, 11),
    127: (4730624, 419775), 129: (15371, 2968), 130: (57, 5), 131: (10610, 927),
    133: (79, 15), 134: (145925, 12606), 137: (1595, 298), 138: (47, 4),
    139: (77563250, 6578829), 141: (87, 16), 142: (143, 12), 143: (12, 1), 145: (11, 2),
    146: (145, 12), 149: (28, 5), 151: (1728148040, 140634693), 154: (21295, 1716),
    155: (249, 20), 157: (98, 17), 158: (7743, 616), 159: (1324, 105),
    161: (10847, 1856), 163: (64080026, 5019135), 165: (6, 1),
    166: (1700902565, 132015642), 167: (168, 13), 170: (13, 1), 173: (6, 1),
    174: (1451, 110), 177: (57731, 9384), 178: (1601, 120), 179: (4190210, 313191),
    181: (604, 97), 182: (27, 2), 183: (487, 36), 185: (63, 10), 186: (7501, 550),
    187: (1682, 123), 190: (52021, 3774), 191: (8994000, 650783),
    193: (1637147, 253970), 194: (195, 14), 195: (14, 1), 197: (13, 2),
    199: (16266196520, 1153080099),
}


def test_fundamental_units_below_200():
    ds = [d for d in range(2, 200) if all(d % (q * q) for q in range(2, 15))]
    assert sorted(UNITS_BELOW_200) == ds
    for d, unit in UNITS_BELOW_200.items():
        assert _reduced_cycles(FieldCtx(d).disc)[1] == unit, d


# (h, h+) of every squarefree d <= 105, as the short-vector principality
# test (ref_principal_generator) computed them
CLASS_NUMBERS_TO_105 = {
    2: (1, 1), 3: (1, 2), 5: (1, 1), 6: (1, 2), 7: (1, 2), 10: (2, 2), 11: (1, 2),
    13: (1, 1), 14: (1, 2), 15: (2, 4), 17: (1, 1), 19: (1, 2), 21: (1, 2), 22: (1, 2),
    23: (1, 2), 26: (2, 2), 29: (1, 1), 30: (2, 4), 31: (1, 2), 33: (1, 2), 34: (2, 4),
    35: (2, 4), 37: (1, 1), 38: (1, 2), 39: (2, 4), 41: (1, 1), 42: (2, 4), 43: (1, 2),
    46: (1, 2), 47: (1, 2), 51: (2, 4), 53: (1, 1), 55: (2, 4), 57: (1, 2), 58: (2, 2),
    59: (1, 2), 61: (1, 1), 62: (1, 2), 65: (2, 2), 66: (2, 4), 67: (1, 2), 69: (1, 2),
    70: (2, 4), 71: (1, 2), 73: (1, 1), 74: (2, 2), 77: (1, 2), 78: (2, 4), 79: (3, 6),
    82: (4, 4), 83: (1, 2), 85: (2, 2), 86: (1, 2), 87: (2, 4), 89: (1, 1), 91: (2, 4),
    93: (1, 2), 94: (1, 2), 95: (2, 4), 97: (1, 1), 101: (1, 1), 102: (2, 4),
    103: (1, 2), 105: (2, 4),
}


def test_field_invariants_to_105():
    ds = [d for d in range(2, 106) if all(d % (q * q) for q in range(2, 11))]
    assert sorted(CLASS_NUMBERS_TO_105) == ds
    for d, (h, hp) in CLASS_NUMBERS_TO_105.items():
        F = make_quadratic_field(d)
        assert (F.class_number, F.narrow_class_number) == (h, hp), d
        assert F.fundamental_units[0] == UNITS_BELOW_200[d], d


# sorted element orders of Cl+ of every squarefree d <= 105, as the
# closure of principality tests over the Minkowski primes computed them
NARROW_ORDERS_TO_105 = {
    2: [1], 3: [1, 2], 5: [1], 6: [1, 2], 7: [1, 2], 10: [1, 2], 11: [1, 2], 13: [1],
    14: [1, 2], 15: [1, 2, 2, 2], 17: [1], 19: [1, 2], 21: [1, 2], 22: [1, 2], 23: [1, 2],
    26: [1, 2], 29: [1], 30: [1, 2, 2, 2], 31: [1, 2], 33: [1, 2], 34: [1, 2, 4, 4],
    35: [1, 2, 2, 2], 37: [1], 38: [1, 2], 39: [1, 2, 2, 2], 41: [1], 42: [1, 2, 2, 2],
    43: [1, 2], 46: [1, 2], 47: [1, 2], 51: [1, 2, 2, 2], 53: [1], 55: [1, 2, 2, 2], 57: [1, 2],
    58: [1, 2], 59: [1, 2], 61: [1], 62: [1, 2], 65: [1, 2], 66: [1, 2, 2, 2], 67: [1, 2],
    69: [1, 2], 70: [1, 2, 2, 2], 71: [1, 2], 73: [1], 74: [1, 2], 77: [1, 2], 78: [1, 2, 2, 2],
    79: [1, 2, 3, 3, 6, 6], 82: [1, 2, 4, 4], 83: [1, 2], 85: [1, 2], 86: [1, 2],
    87: [1, 2, 2, 2], 89: [1], 91: [1, 2, 2, 2], 93: [1, 2], 94: [1, 2], 95: [1, 2, 2, 2],
    97: [1], 101: [1], 102: [1, 2, 2, 2], 103: [1, 2], 105: [1, 2, 2, 2],
}


def test_narrow_class_group_structure_to_105():
    assert list(NARROW_ORDERS_TO_105) == list(CLASS_NUMBERS_TO_105)
    for d, orders in NARROW_ORDERS_TO_105.items():
        assert _element_orders(make_quadratic_field(d).narrow_mul) == orders, d


def _class_sample(F, d):
    """The primes of norm <= 60, then 40 random products of three of them
    or their inverses."""
    primes = [pr.ideal for pr in F.prime_ideals_up_to(60)]
    rng = random.Random(d)
    out = list(primes)
    for _ in range(40):
        a = F.unit_ideal()
        for _ in range(3):
            a = a * rng.choice(primes) ** rng.choice((1, -1))
        out.append(a)
    return out


def test_generators_pinned_to_105():
    # every generator and totally positive generator of the sample ideals
    # of every squarefree d <= 105, hashed; the digest is the one the walk
    # gave when it stopped at its first |Q| = 2, before it named classes
    digest = hashlib.sha256()
    for d in CLASS_NUMBERS_TO_105:
        F = make_quadratic_field(d)
        for a in _class_sample(F, d):
            gens = (F.principal_generator(a), F.narrowly_principal_generator(a))
            digest.update(repr((d, a.rows, a.den, *gens)).encode())
    assert digest.hexdigest() == "fcee34ba34412cec171e0419ef56b01d2e0698b50a088bd1b496fa3d8b49d3ff"


def test_classes_match_principality_reference():
    # narrow_class and class_of against the lookup by principality tests
    # (ref_narrow_class), whose representatives are the unit ideal and
    # then each sample ideal in none of their classes: the two labelings
    # meet every class and agree through one bijection fixing the unit
    # class, on every squarefree d <= 105
    for d in CLASS_NUMBERS_TO_105:
        F = make_quadratic_field(d)
        for classify, generator, count in (
            (F.narrow_class, F.narrowly_principal_generator, F.narrow_class_number),
            (F.class_of, F.principal_generator, F.class_number),
        ):
            inverses, label = [F.unit_ideal()], {0: 0}
            for a in _class_sample(F, d):
                i = ref_narrow_class(a, inverses, generator)
                if i is None:
                    i = len(inverses)
                    inverses.append(a.inverse())
                assert label.setdefault(i, classify(a)) == classify(a), (d, a)
            assert sorted(label.values()) == list(range(count)), d


def test_large_unit_1021(monkeypatch):
    # eps = 41531201 + 2683493 omega; the cycles of reduced forms, which
    # give the unit, and the walk of every class representative step
    # through a continued fraction.  The convergent denominators grow at
    # least as the Fibonacci numbers, so a period has at most about
    # 2.1 log eps steps; all walks together stay within 4 log eps
    walk = numberfield._continued_fraction
    steps = []

    def counted(D, P, Q):
        for step in walk(D, P, Q):
            steps.append(step)
            yield step

    monkeypatch.setattr(numberfield, "_continued_fraction", counted)
    F = make_quadratic_field(1021)
    (eps,) = F.fundamental_units
    assert eps == (41531201, 2683493)
    assert F.norm(eps) in (1, -1)
    # eps > 1 at the real embedding that sends omega to the larger root
    assert eps[1] > 0 and F.sign_vector(F.sub(eps, F.one))[1] == 1
    assert (F.class_number, F.narrow_class_number) == (1, 1)
    assert len(steps) <= 4 * log(eps[0] + eps[1] * (1 + sqrt(1021)) / 2)


def test_unit_norm_checked_under_optimize(run_optimized):
    # a wrong last partial quotient gives no unit: quad:7 has the one
    # cycle from (1 + sqrt 7)/2 with the period 1, 1, 4, 1, and 1, 1, 4, 2
    # adds q_(l-2) = 5 to the last convergent denominator q_(l-1) = 6,
    # giving 11 theta_0 + 5 = (21 + 11 sqrt 7)/2, not integral; with
    # asserts stripped the unit certificate must still raise
    out = run_optimized(
        "from quatforms import numberfield\n"
        "walk = numberfield._continued_fraction\n"
        "def faulty(D, P, Q):\n"
        "    start = P, Q\n"
        "    for k, (P, Q, q1, q2) in enumerate(walk(D, P, Q)):\n"
        "        yield (P, Q, q1 + q2, q2) if k and (P, Q) == start else (P, Q, q1, q2)\n"
        "numberfield._continued_fraction = faulty\n"
        "try:\n"
        "    print('returned', numberfield.make_quadratic_field(7).fundamental_units)\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: cycle periods do not give one integral unit")


@pytest.mark.parametrize("shifted, message", [
    # eps + 1 from the second cycle only: two units
    ("(2,)", "cycle periods do not give one integral unit"),
    # eps + 1 = 81 + 9 sqrt 79 from all three: one unit of norm 162
    ("(1, 2, 3)", "continued fraction period gives no unit"),
])
def test_cycle_units_checked_under_optimize(run_optimized, shifted, message):
    # quad:79 has three cycles, each of which gives eps = 80 + 9 sqrt 79;
    # q_(l-2) shifted by 1 at the closing state of some of them adds 1 to
    # their unit.  With asserts stripped the field layer must raise
    out = run_optimized(
        "from quatforms import numberfield\n"
        "walk = numberfield._continued_fraction\n"
        "calls = []\n"
        "def faulty(D, P, Q):\n"
        "    calls.append((P, Q))\n"
        "    for k, (P, Q, q1, q2) in enumerate(walk(D, P, Q)):\n"
        f"        shift = k and (P, Q) == calls[-1] and len(calls) in {shifted}\n"
        "        yield P, Q, q1, q2 + shift\n"
        "numberfield._continued_fraction = faulty\n"
        "try:\n"
        "    print('returned', numberfield.make_quadratic_field(79).fundamental_units)\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith(f"ArithmeticError: {message}")


def test_generator_certified_under_optimize(run_optimized):
    # a wrong convergent q_(k-2) at the closing quotient gives an element
    # that does not generate (31, 14 + omega) over quad:10; with asserts
    # stripped the generator certificate must still raise
    out = run_optimized(
        "from quatforms import numberfield\n"
        "F = numberfield.make_quadratic_field(10)\n"
        "walk = numberfield._continued_fraction\n"
        "def faulty(D, P, Q):\n"
        "    for P, Q, q1, q2 in walk(D, P, Q):\n"
        "        yield (P, Q, q1, q2 + 1) if Q in (2, -2) else (P, Q, q1, q2)\n"
        "numberfield._continued_fraction = faulty\n"
        "try:\n"
        "    print('returned', F.principal_generator(F.ideal(31, (14, 1))))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: continued fraction gives no generator of the ideal")


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


def test_primes_above_rejects_non_primes():
    # (9) and (15) are not primes of Q(sqrt 10), (1) is the unit ideal and
    # 3 splits; none of them may be returned, or cached, as a prime
    F = F10()
    for n in (0, 1, -3, 4, 9, 15):
        with pytest.raises(ValueError):
            F.primes_above(n)
    shapes = {2: [(1, 2)], 3: [(1, 1), (1, 1)], 5: [(1, 2)]}
    for p, shape in shapes.items():
        above = F.primes_above(p)
        assert [(f, e) for _, f, e in above] == shape
        assert [P.norm() for P, _, _ in above] == [p] * len(shape)


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


def _primes_from_roots(F, p):
    """primes_above by the roots of x^2 - t1 x - t0 mod p, found by trying
    every residue: (rows, den, f, e) sorted by rows.  Two roots r
    give the primes (p, omega - r), one gives (p, omega - r) squared, and
    none leaves (p) inert."""
    roots = [r for r in range(p) if (r * r - F.t1 * r - F.t0) % p == 0]
    if not roots:
        P = F.ideal(p)
        return [(P.rows, P.den, 2, 1)]
    out = []
    for r in roots:
        P = F.ideal(p, (-r, 1))
        out.append((P.rows, P.den, 1, 3 - len(roots)))
    return sorted(out, key=lambda t: t[0])


@pytest.mark.parametrize("d", [2, 3, 5, 10, 13, 15, 34, 85, 94, 105])
def test_primes_above_match_factor_mod_p(d):
    # the roots from Euler's criterion and one modular square root give
    # the primes that the factorization of x^2 - t1 x - t0 mod p gives,
    # read off its roots by enumeration
    F = FieldCtx(d)
    for p in range(2, 2000):
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)):
            continue
        got = [(P.rows, P.den, f, e) for P, f, e in F.primes_above(p)]
        assert got == _primes_from_roots(F, p), (d, p)


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
            s = F.ideal(*ideal_basis(a), *ideal_basis(b))
            assert s.divides(a) and s.divides(b)


@pytest.mark.parametrize("d", [10, 85])
def test_ideal_products_and_membership_match_fraction_coords(d):
    # *, contains and divides run on integer rows; the reference spans the
    # Fraction products and solves coordinates by rational substitution
    F = make_quadratic_field(d)
    rng = random.Random(d)

    def inside(a, v):
        return all(c.denominator == 1 for c in hnf_coords(a.rows, v, a.den))

    for _ in range(12):
        a = _random_ideal(F, rng) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
        b = _random_ideal(F, rng)
        prod = F.ideal(*[F.mul(x, y) for x in ideal_basis(a) for y in ideal_basis(b)])
        assert a * b == prod == b * a
        x = F.el((Fraction(rng.randint(-9, 9), rng.randint(1, 3)), rng.randint(1, 9)))
        assert a * x == F.ideal(*[F.mul(v, x) for v in ideal_basis(a)])
        for v in ideal_basis(a) + ideal_basis(b) + ideal_basis(prod) + [x, F.one]:
            assert a.contains(v) == inside(a, v)
            assert b.contains(v) == inside(b, v)
        for u, w in ((a, b), (b, a), (a, prod), (b, prod), (prod, a), (a, a)):
            assert u.divides(w) == all(inside(u, v) for v in ideal_basis(w))
        # b is integral, so a divides a * b
        assert a.divides(prod)


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

    conj_ideal = F.ideal(*[conj(v) for v in ideal_basis(ideal)])
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
    assert F.ideal(g) == P3 * P3
    assert abs(F.norm(g)) == 9


def test_principal_generator_random():
    rng = random.Random(5)
    for F in (F85(), F10()):
        for _ in range(8):
            x = F.el((rng.randint(-9, 9), rng.choice([-3, -2, -1, 1, 2, 3])))
            a = F.ideal(x)
            g = F.principal_generator(a)
            assert g is not None and F.ideal(g) == a


# fields with h > 1, h+ > h, or both; 221 has h = 2 and h+ = 4
DECISION_DS = (3, 5, 10, 15, 34, 79, 82, 85, 221, 229)


@pytest.mark.parametrize("d", DECISION_DS)
def test_principality_matches_short_vector_search(d):
    # the continued fraction walk and the short-vector search decide
    # principality and narrow principality alike on random fractional
    # ideals, and every generator generates its ideal
    F = make_quadratic_field(d)
    rng = random.Random(d)
    primes = [pr.ideal for pr in F.prime_ideals_up_to(60)]
    for _ in range(60):
        a = F.ideal(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        for _ in range(rng.randint(1, 3)):
            a = a * rng.choice(primes) ** rng.choice((1, 2, -1))
        g, ref = F.principal_generator(a), ref_principal_generator(F, a)
        assert (g is None) == (ref is None), (d, a)
        pos = F.narrowly_principal_generator(a)
        if g is None:
            assert pos is None
            continue
        assert F.ideal(g) == a
        units = [F.one, F.fundamental_units[0], F.neg(F.one), F.neg(F.fundamental_units[0])]
        ref_pos = any(F.is_totally_positive(F.mul(ref, u)) for u in units)
        assert (pos is not None) == ref_pos, (d, a)
        if pos is not None:
            assert F.ideal(pos) == a and F.is_totally_positive(pos)


def test_principal_generator_searches_each_ideal_once(monkeypatch):
    # the walk is kept by the canonical basis, so an equal ideal built
    # another way, a narrow test or a class lookup walks nothing again
    F = F10()
    walked = []
    walk = FieldCtx._cycle_walk

    def counted(self, a):
        walked.append(a)
        return walk(self, a)

    monkeypatch.setattr(FieldCtx, "_cycle_walk", counted)
    P2 = F.primes_above(2)[0][0]
    a = P2 * F.ideal(7)
    b = F.ideal(7) * P2
    assert F.principal_generator(a) is None
    assert F.narrow_class(b) == F.class_of(a) == 1
    assert F.narrowly_principal_generator(a) is None
    g = F.principal_generator(F.ideal(31, (14, 1)))
    assert F.narrowly_principal_generator(F.ideal((11, 3))) is not None
    assert F.principal_generator(F.ideal(31, (14, 1))) == g
    assert F.narrow_class(F.ideal((11, 3))) == 0
    assert walked == [a, F.ideal(31, (14, 1))]


def test_narrow_principality():
    F = F10()
    P2 = F.primes_above(2)[0][0]
    assert F.narrowly_principal_generator(P2) is None
    P31 = F.ideal(31, (14, 1))
    g = F.narrowly_principal_generator(P31)
    assert g is not None and F.is_totally_positive(g)
    assert F.ideal(g) == P31 == F.ideal((11, 3))


def test_narrow_strictly_finer_than_wide():
    # (sqrt 3) is principal but has no totally positive generator
    F = make_quadratic_field(3)
    sq3 = F.ideal((0, 1))
    assert F.principal_generator(sq3) is not None
    assert F.narrowly_principal_generator(sq3) is None


def test_class_and_narrow_dlog():
    F = F10()
    P2 = F.primes_above(2)[0][0]
    P31 = F.ideal(31, (14, 1))
    assert F.class_of(F.unit_ideal()) == 0
    assert F.class_of(P2) == 1
    assert F.narrow_class(P2) == 1
    assert F.narrow_class(P31) == 0
    # genus signs used by the Eisenstein tables: chi = -1 at 2,3,5,13,37
    for p, res in ((3, 1), (5, 0), (13, 6), (37, 11)):
        P = F.ideal(p, (res, 1)) if res else F.primes_above(p)[0][0]
        assert F.narrow_class(P) == 1, p


def test_quadratic_characters_of_a_cyclic_narrow_class_group():
    # Cl+ of Q(sqrt 34) is cyclic of order 4: the squares are a subgroup
    # of order 2, so of its four characters two are quadratic
    F = make_quadratic_field(34)
    mul = F.narrow_mul
    squares = {mul[i][i] for i in range(4)}
    assert len(squares) == 2
    assert F.narrow_class_number // len(squares) == 2
    # the table is multiplicative on ideals, read through narrow_class
    primes = [pr.ideal for pr in F.prime_ideals_up_to(13)]
    for p in primes:
        for q in primes:
            assert F.narrow_class(p * q) == mul[F.narrow_class(p)][F.narrow_class(q)]


def test_narrow_class_number_checked_under_optimize(run_optimized):
    # a sign-blind narrow key, the wide key, folds Cl+ of quad:3 onto its
    # trivial Cl: every class is principal, and the principal wide key
    # also names the principal ideals with no totally positive generator,
    # so both parities of its one even cycle walk to one key where
    # h * |kernel| = 2; with asserts stripped the count must raise
    out = run_optimized(
        "from quatforms import numberfield\n"
        "walk = numberfield.FieldCtx._cycle_walk\n"
        "def blind(self, a):\n"
        "    g, _, wide = walk(self, a)\n"
        "    return g, wide, wide\n"
        "numberfield.FieldCtx._cycle_walk = blind\n"
        "try:\n"
        "    print('returned', numberfield.make_quadratic_field(3).narrow_class_number)\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith("ArithmeticError: class representatives do not walk to one key per class")


def test_cut_walk_checked_under_optimize(run_optimized):
    # a walk cut after four steps stops short of its cycle; a closure of
    # principality tests read that as non-principal and found (h, h+) =
    # (2, 4) on quad:103.  With asserts stripped, make_quadratic_field
    # must raise on quad:103 and quad:79 within seconds
    out = run_optimized(
        "import itertools, time\n"
        "from quatforms import numberfield\n"
        "walk = numberfield._continued_fraction\n"
        "cycle_walk = numberfield.FieldCtx._cycle_walk\n"
        "def cut(self, a):\n"
        "    numberfield._continued_fraction = lambda D, P, Q: itertools.islice(walk(D, P, Q), 4)\n"
        "    try:\n"
        "        return cycle_walk(self, a)\n"
        "    finally:\n"
        "        numberfield._continued_fraction = walk\n"
        "numberfield.FieldCtx._cycle_walk = cut\n"
        "start = time.perf_counter()\n"
        "for d in (103, 79):\n"
        "    try:\n"
        "        print('returned', numberfield.make_quadratic_field(d).class_number)\n"
        "    except ArithmeticError as exc:\n"
        "        print('ArithmeticError:', exc)\n"
        "print(time.perf_counter() - start < 10)\n"
    )
    message = "ArithmeticError: continued fraction walk ends before its cycle closes"
    assert out.splitlines() == [message, message, "True"]


def test_dropped_cycle_checked_under_optimize(run_optimized):
    # Cl of quad:79 is cyclic of order 3, so no two of its three cycles
    # are closed under products.  Without its last cycle, the principal
    # one, the unit ideal walks to a key beyond h; without its first, a
    # product of representatives walks to no known class.  With asserts
    # stripped both must raise
    out = run_optimized(
        "from quatforms import numberfield\n"
        "reduced_cycles = numberfield._reduced_cycles\n"
        "for part in (slice(-1), slice(1, None)):\n"
        "    def dropped(D):\n"
        "        cycles, eps = reduced_cycles(D)\n"
        "        return cycles[part], eps\n"
        "    numberfield._reduced_cycles = dropped\n"
        "    try:\n"
        "        print('returned', numberfield.make_quadratic_field(79).class_number)\n"
        "    except ArithmeticError as exc:\n"
        "        print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == [
        "ArithmeticError: class representatives do not walk to one key per class",
        "ArithmeticError: ideal walks to a cycle of no known class",
    ]


@pytest.mark.parametrize("entries, message", [
    # 2g and 3g in the row of an element g of order 4: a square changes
    ("g, two", "narrow class group fails the genus count 2^(t-1)"),
    # 3g and 0 in that row: the squares stay, associativity fails
    ("two, three", "narrow class table is not a group with identity 0"),
])
def test_swapped_class_table_entry_checked_under_optimize(run_optimized, entries, message):
    # Cl+ of quad:34 is cyclic of order 4 and D = 136 has two prime
    # factors, so its squares are 2 of 4 classes; narrow_class answers
    # the products of representatives in table order, two entries of a
    # row swapped.  With asserts stripped the field layer must raise
    out = run_optimized(
        "from quatforms import numberfield\n"
        "mul = numberfield.make_quadratic_field(34).narrow_mul\n"
        "g = next(i for i in range(4) if mul[i][i])\n"
        "two = mul[g][g]\n"
        "three = mul[g][two]\n"
        "table = [row[:] for row in mul]\n"
        f"j, k = {entries}\n"
        "table[g][j], table[g][k] = table[g][k], table[g][j]\n"
        "answers = iter([x for row in table for x in row])\n"
        "numberfield.FieldCtx.narrow_class = lambda self, a: next(answers)\n"
        "try:\n"
        "    print('returned', numberfield.make_quadratic_field(34).narrow_mul)\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.startswith(f"ArithmeticError: {message}")


def test_small_primes_classified():
    for d in (10, 85):
        F = make_quadratic_field(d)
        for pr in F.prime_ideals_up_to(10):
            assert F.class_of(pr.ideal) in range(F.class_number)


# -- units ---------------------------------------------------------------


def _is_unit_square(F, x):
    # x = eps^(2k) for some |k| <= 5, which covers the exponents tested below
    eps = F.fundamental_units[0]
    return any(el_pow(F, eps, 2 * k) == x or el_pow(F, F.inv(eps), 2 * k) == x
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
                x = F.smul(sign, el_pow(F, eps, k) if k >= 0 else el_pow(F, F.inv(eps), -k))
                if F.is_totally_positive(x):
                    assert any(_is_unit_square(F, F.mul(x, F.inv(u))) for u in reps)
