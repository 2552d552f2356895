import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from fraction_refs import ref_gcd, ref_yun
from quatforms import polynomials
from quatforms.arith import FIRST_CRT_PRIME, next_prime
from quatforms.polynomials import (
    Poly,
    _coeff_bound,
    _distinct_degree,
    _recombine,
    _zderiv,
    _zdivmod_monic,
    _zgcd_mod,
    _zmul,
    _zprod,
    _zquotient,
    _zsubtract,
    factor_poly,
    factor_squarefree_mod_p,
    factor_squarefree_monic_int,
    gcd_int_poly,
    hensel_lift_factors,
    isolate_real_roots,
)

small_coeff = st.integers(min_value=-9, max_value=9)
int_lists = st.lists(small_coeff, min_size=0, max_size=6)


def mul(*fs):
    """The product of Polys, by the package's integer product."""
    return Poly(_zprod([f.coeffs for f in fs]))


def test_scalar_operands():
    # a Poly is integer coefficients and no arithmetic: it neither takes
    # a scalar operand nor equals one, and it trims trailing zeros
    x = Poly([0, 1, 0, 0])
    assert x.coeffs == (0, 1) and x.degree == 1 and x == Poly([0, 1])
    assert Poly([2]) != 2 and Poly([]).degree == -1 and repr(Poly([-2, 0, 1, 0])) == "Poly([-2, 0, 1])"
    assert hash(Poly([-2, 0, 1])) == hash(Poly((-2, 0, 1, 0)))
    with pytest.raises(TypeError):
        x + 1
    with pytest.raises(ValueError, match="must be ints"):
        Poly([1, Fraction(1, 2)])
    with pytest.raises(ValueError, match="must be ints"):
        Poly([Fraction(2)])


@given(int_lists, int_lists)
@settings(max_examples=80, deadline=None)
def test_ring_identities(a, b):
    # the integer products and differences that the factorization runs on
    s = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    d = _zsubtract(a, b)
    assert _zsubtract(_zmul(s, d), _zsubtract(_zmul(a, a), _zmul(b, b))) == []
    assert _zmul(a, b) == _zmul(b, a)


@given(int_lists, st.lists(small_coeff, min_size=0, max_size=4).map(lambda cs: cs + [1]))
@settings(max_examples=80, deadline=None)
def test_divmod_identity(a, b):
    # exact division by a monic b over Z, and division mod a prime
    assert _zquotient(_zmul(a, b), b) == a
    p = 101
    q, r = _zdivmod_monic(a, b, p)
    assert all(c % p == 0 for c in _zsubtract(_zsubtract(a, _zmul(q, b)), r))
    assert len(r) < len(b)


monic_lists = st.lists(small_coeff, min_size=0, max_size=4).map(lambda cs: cs + [1])


@given(monic_lists, monic_lists, monic_lists, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_gcd_common_factor(a, b, h, c):
    # the monic product a h against any integer multiple of b h, zero too
    f, g = _zmul(a, h), [c * v for v in _zmul(b, h)]
    assert gcd_int_poly(f, g) == ref_gcd(f, g)


def test_gcd_int_poly_known():
    # (x^2-1)(x+2) and (x-1)(x+3): common factor x-1
    f = [-2, -1, 2, 1]
    g = [-3, 2, 1]
    assert gcd_int_poly(f, g) == [-1, 1]
    assert gcd_int_poly(f, []) == f
    assert gcd_int_poly(f, [6]) == [1]


def test_gcd_needs_monic_first_argument():
    for f in ([2, 4], [], [1, 2, -1]):
        with pytest.raises(ValueError):
            gcd_int_poly(f, [6])


def _residue_degrees(monkeypatch):
    """The degrees of the gcds mod p that gcd_int_poly computes, in order."""
    degrees = []

    def recording(f, g, p):
        h = _zgcd_mod(f, g, p)
        degrees.append(len(h) - 1)
        return h

    monkeypatch.setattr(polynomials, "_zgcd_mod", recording)
    return degrees


def test_gcd_restarts_after_an_unlucky_prime(monkeypatch):
    # g = f mod the first CRT prime p0, so the gcd mod p0 is f itself
    p0 = FIRST_CRT_PRIME
    f = _zmul([-2, 0, 1], [-1, 1])
    g = _zmul([-2, 0, 1], [-1 - p0, 1])
    degrees = _residue_degrees(monkeypatch)
    assert gcd_int_poly(f, g) == [-2, 0, 1]
    assert degrees == [3, 2]


def test_gcd_bound_needs_two_primes(monkeypatch):
    # the common factor x - a has a coefficient above 2^61, so one CRT
    # prime cannot certify it
    a = (1 << 62) + 3
    f = _zmul([-a, 1], [-2, 0, 1])
    g = _zprod([[-a, 1], [5, 1], [7]])
    assert 2 * _coeff_bound(f) > FIRST_CRT_PRIME
    degrees = _residue_degrees(monkeypatch)
    assert gcd_int_poly(f, g) == [-a, 1]
    assert degrees == [1, 1]


def test_factor_squarefree_monic_int_rejects_bad_input():
    # without the check no prime keeps x^2 or (x + 1)^2 squarefree, and the
    # search for five good primes never ends
    for f in ([0, 0, 1], [1, 2, 1], [1, 2], [2, 0, 2]):
        with pytest.raises(ValueError):
            factor_squarefree_monic_int(f)
    assert factor_squarefree_monic_int([-2, 0, 1]) == [[-2, 0, 1]]


def test_factor_poly_multiplicities():
    # Yun's split gives the multiplicities: (x + 1)^3 (x^2 - 2)
    f = mul(Poly([1, 1]), Poly([1, 1]), Poly([1, 1]), Poly([-2, 0, 1]))
    parts = factor_poly(f)
    assert parts == [(Poly([1, 1]), 3), (Poly([-2, 0, 1]), 1)]
    assert mul(*(g for g, m in parts for _ in range(m))) == f
    assert factor_poly(Poly([1])) == []


def test_factor_quadratics():
    assert factor_poly(Poly([-1, 0, 1])) == [(Poly([-1, 1]), 1), (Poly([1, 1]), 1)]


def test_factor_irreducible_eisenstein():
    # Eisenstein at 2, the oracle for irreducibility
    f = Poly([2, 0, -6, 0, 1])
    assert factor_poly(f) == [(f, 1)]


def test_factor_cyclotomic5():
    f = Poly([1, 1, 1, 1, 1])
    assert factor_poly(f) == [(f, 1)]


def test_factor_product_with_multiplicity():
    f = mul(Poly([-2, 0, 1]), Poly([-2, 0, 1]), Poly([3, 1]))
    assert factor_poly(f) == [(Poly([3, 1]), 1), (Poly([-2, 0, 1]), 2)]


def test_factor_level_one_shape():
    # product of the shape that shows up for class-set charpolys
    f = mul(Poly([-4, 1]), Poly([4, 1]), Poly([4, 0, 1]), Poly([2, 0, -6, 0, 1]))
    fs = factor_poly(f)
    assert [(g.degree, m) for g, m in fs] == [(1, 1), (1, 1), (2, 1), (4, 1)]
    assert mul(*(g for g, m in fs for _ in range(m))) == f


def test_factor_rational_input():
    # rational polynomials are rejected; x^2 + 1/4 and x^2 - 1/4 enter as
    # their monic integer rescalings y^2 + 1 and y^2 - 1, y = 2x, and
    # integer polynomials that are not monic are rejected too
    with pytest.raises(ValueError, match="must be ints"):
        Poly([Fraction(1, 4), 0, 1])
    with pytest.raises(ValueError, match="not monic"):
        factor_poly(Poly([1, 0, 4]))
    f = Poly([1, 0, 1])
    assert factor_poly(f) == [(f, 1)]
    assert factor_poly(Poly([-1, 0, 1])) == [(Poly([-1, 1]), 1), (Poly([1, 1]), 1)]


def test_factor_random_products():
    rng = random.Random(11)
    irreducibles = [
        Poly([1, 1]),
        Poly([-3, 1]),
        Poly([1, 1, 1]),
        Poly([-2, 0, 1]),
        Poly([2, 0, -6, 0, 1]),
    ]
    for _ in range(8):
        picks = [rng.choice(irreducibles) for _ in range(rng.randint(1, 4))]
        expected: dict[tuple, int] = {}
        for g in picks:
            expected[g.coeffs] = expected.get(g.coeffs, 0) + 1
        got = {g.coeffs: m for g, m in factor_poly(mul(*picks))}
        assert got == expected


def test_isolate_and_refine_roots():
    f = mul(Poly([-2, 0, 1]), Poly([-3, 1]))  # roots -sqrt2, sqrt2, 3
    ivs = isolate_real_roots(f)
    assert len(ivs) == 3
    # middle interval holds sqrt(2)
    lo, hi = ivs[1]
    assert lo * lo < 2 < hi * hi and hi < 3
    # last interval holds 3
    lo, hi = ivs[2]
    assert lo < 3 < hi


def test_isolate_no_real_roots():
    assert isolate_real_roots(Poly([1, 0, 1])) == []


def _sign(f, x):
    """The sign of f(x), by Fraction Horner."""
    v = Fraction(0)
    for c in reversed(f.coeffs):
        v = v * x + c
    return (v > 0) - (v < 0)


@pytest.mark.parametrize("coeffs, count", [
    ([2, 0, -6, 0, 1], 4),
    ([4, 0, 1], 0),
    # the level-13 piece of quad:10: no real root, so no real embedding
    ([36, 0, 220, 0, 253, 0, 102, 0, 17, 0, 1], 0),
    ([1], 0),
], ids=["x4-6x2+2", "x2+4", "quad10-level13", "one"])
def test_isolate_baseline_polynomials(coeffs, count):
    f = Poly(coeffs)
    ivs = isolate_real_roots(f)
    assert len(ivs) == count
    assert all(_sign(f, a) == -_sign(f, b) != 0 for a, b in ivs)


def _root_above(s, disc, b, t):
    """Whether the root (-b + s sqrt(disc)) / 2 exceeds the rational t."""
    y = 2 * t + b  # the root exceeds t iff s sqrt(disc) > y
    return (y < 0 or y * y < disc) if s > 0 else (y < 0 and y * y > disc)


def test_isolate_random_products():
    # products of distinct integer linear factors and distinct monic
    # irreducible quadratics: each interval holds one sign change of f and
    # exactly one of its known real roots, and every real root is held
    rng = random.Random(5)
    for _ in range(40):
        roots = rng.sample(range(-12, 13), rng.randint(0, 4))
        quads, nquads = set(), rng.randint(0, 3)
        while len(quads) < nquads:
            b, c = rng.randint(-9, 9), rng.randint(-20, 20)
            disc = b * b - 4 * c
            if disc < 0 or isqrt(disc) ** 2 != disc:
                quads.add((b, c))
        factors = [Poly([-r, 1]) for r in roots] + [Poly([c, b, 1]) for b, c in quads]
        if not factors:
            continue
        f = mul(*factors)
        ivs = isolate_real_roots(f)
        real_quads = [(b, b * b - 4 * c) for b, c in quads if b * b > 4 * c]
        assert len(ivs) == len(roots) + 2 * len(real_quads)
        assert ivs == sorted(ivs) and all(b1 <= a2 for (_, b1), (a2, _) in zip(ivs, ivs[1:]))
        for a, b in ivs:
            assert _sign(f, a) == -_sign(f, b) != 0
            inside = sum(a < r < b for r in roots) + sum(
                _root_above(s, disc, qb, a) and not _root_above(s, disc, qb, b)
                for qb, disc in real_quads for s in (1, -1)
            )
            assert inside == 1


# --- squarefree factorization over F_p at odd p ---


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _factor(f, p, rng=None):
    """The distinct-degree and equal-degree split that Hensel lifting uses."""
    return factor_squarefree_mod_p(_distinct_degree(f, p), p, rng or random.Random(0))


def _ref_factor_mod_p(f, p):
    """Sorted monic irreducible factors of a monic squarefree f over F_p by
    trial division: the monic polynomials of each degree are tried in
    turn, and a divisor of least degree is irreducible."""
    out, d = [], 1
    f = [c % p for c in f]
    while len(f) - 1 >= 2 * d:
        for low in itertools.product(range(p), repeat=d):
            q = list(low) + [1]
            quo, rem = [0] * (len(f) - d), list(f)
            for k in range(len(f) - 1 - d, -1, -1):
                c = rem[k + d]
                if c:
                    quo[k] = c
                    for i, a in enumerate(q):
                        rem[k + i] = (rem[k + i] - c * a) % p
            if not any(rem):
                out.append(q)
                f = quo
                break
        else:
            d += 1
    if len(f) > 1:
        out.append(f)
    return sorted(out)


def test_factor_mod_p_known():
    # x^2 + 1 stays irreducible mod 3 and splits mod 5; x^4 + 1 is two
    # quadratics mod 3
    assert _factor([1, 0, 1], 3) == [[1, 0, 1]]
    assert _factor([1, 0, 1], 5) == [[2, 1], [3, 1]]
    assert _factor([1, 0, 0, 0, 1], 3) == [[2, 1, 1], [2, 2, 1]]
    # the split needs an odd prime, and says so at 2
    with pytest.raises(ValueError, match="odd prime"):
        _factor([1, 1, 1], 2)


def test_factor_mod_p_derivative_zero():
    # x^(p^2) - x, whose leading term has derivative zero mod p, is the
    # product of the monic irreducibles of degree 1 and 2 over F_p
    for p in (3, 5):
        f = [0, p - 1] + [0] * (p * p - 2) + [1]
        got = _factor(f, p)
        assert got == _ref_factor_mod_p(f, p)
        assert [len(g) - 1 for g in got].count(2) == (p * p - p) // 2


def test_factor_mod_p_multiply_back():
    rng = random.Random(11)
    checked = 0
    for p in (3, 5, 13):
        for _ in range(25):
            deg = rng.randint(1, 7)
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            if len(_zgcd_mod(f, _zderiv(f), p)) != 1:
                continue
            got = _factor(f, p, rng)
            prod = [1]
            for g in got:
                assert g[-1] == 1 and len(g) >= 2
                prod = _pmul(prod, g, p)
            assert prod == [c % p for c in f]
            assert got == _ref_factor_mod_p(f, p)
            checked += 1
    assert checked >= 40


def test_rational_inputs_under_optimize(run_optimized):
    # rational coefficients and polynomials that are not monic are
    # rejected, and a square is refused root isolation, with no assert
    # that -O strips
    out = run_optimized(
        "from fractions import Fraction\n"
        "from quatforms.polynomials import Poly, factor_poly, isolate_real_roots\n"
        "for call in (lambda: Poly([Fraction(1, 2), 1]), lambda: factor_poly(Poly([1, 2])),\n"
        "             lambda: isolate_real_roots(Poly([1, 2, 1]))):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ValueError as exc:\n"
        "        print('ValueError:', exc)\n"
    )
    assert out.splitlines() == [
        "ValueError: polynomial coefficients must be ints",
        "ValueError: polynomial is not monic",
        "ValueError: input must be squarefree",
    ]


def test_bad_inputs_raise_under_optimize(run_optimized):
    # input checks are raises, not asserts, so -O keeps them
    out = run_optimized(
        "from quatforms.polynomials import Poly, factor_poly, isolate_real_roots,"
        " _poly_xgcd_mod, _zdivmod_monic\n"
        "zero = Poly([])\n"
        "for call in (lambda: Poly([1.0]), lambda: factor_poly(zero),\n"
        "             lambda: factor_poly(Poly([0, 2])),\n"
        "             lambda: isolate_real_roots(zero), lambda: isolate_real_roots(Poly([0, 0, 1])),\n"
        "             lambda: isolate_real_roots(Poly([1, 3])),\n"
        "             lambda: _zdivmod_monic([1, 2, 3], [1, 2], 5),\n"
        "             lambda: _poly_xgcd_mod([0, 1], [0, 2, 1], 3)):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except ValueError as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    assert out.split() == ["ValueError"] * 8


def test_recombination_certificate_checked_under_optimize(run_optimized):
    # an exact division that drops its remainder makes recombination take
    # a modular factor of the irreducible x^4 - 10x^2 + 1 for a true one.
    # Modulo 103 it splits into two quadratics with constant term -1, so
    # the constant-term pre-test lets the bogus factor through.  With
    # asserts stripped the product check must still raise
    out = run_optimized(
        "from quatforms import polynomials\n"
        "def dropping(f, g):\n"
        "    q, r = [0] * (len(f) - len(g) + 1), list(f)\n"
        "    for k in range(len(q) - 1, -1, -1):\n"
        "        q[k] = r[k + len(g) - 1]\n"
        "        for j, b in enumerate(g):\n"
        "            r[k + j] -= q[k] * b\n"
        "    return q\n"
        "polynomials._zquotient = dropping\n"
        "try:\n"
        "    print('returned', polynomials.factor_poly(polynomials.Poly([1, 0, -10, 0, 1])))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == ["ArithmeticError: recombined factors do not multiply back"]


def test_modular_factor_degrees_checked_under_optimize(run_optimized):
    # x^4 - 10x^2 + 1 splits modulo every prime, so its factorization
    # reaches the equal-degree split; one that drops a factor must trip
    # the degree sum with asserts stripped
    out = run_optimized(
        "from quatforms import polynomials\n"
        "real = polynomials._equal_degree_split\n"
        "polynomials._equal_degree_split = lambda g, d, p, rng: real(g, d, p, rng)[:-1]\n"
        "try:\n"
        "    print('returned', polynomials.factor_poly(polynomials.Poly([1, 0, -10, 0, 1])))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == ["ArithmeticError: modular factor degrees do not sum to the degree"]


def test_squarefree_split_checked_under_optimize(run_optimized):
    # a gcd that is monic but divides nothing: Yun's exact division must
    # raise with asserts stripped
    out = run_optimized(
        "from quatforms import polynomials\n"
        "polynomials.gcd_int_poly = lambda f, g: [1, 1]\n"
        "try:\n"
        "    print('returned', polynomials.factor_poly(polynomials.Poly([-2, 0, 1])))\n"
        "except ArithmeticError as exc:\n"
        "    print('ArithmeticError:', exc)\n"
    )
    assert out.splitlines() == ["ArithmeticError: polynomial division leaves a remainder"]


# --- the factorization against the earlier Fraction Yun and nine-prime search ---


def ref_factor_squarefree_monic_int(f):
    """Degree sets from full factorizations modulo five primes above 101,
    then the Hensel prime picked among four more above 1000."""
    n = len(f) - 1
    if n <= 1:
        return [list(f)]
    degset = set(range(n + 1))
    p, good, attempts = 101, 0, 0
    rng = random.Random(1)
    while good < 5 and attempts < 60:
        p = next_prime(p)
        attempts += 1
        if len(_zgcd_mod(f, _zderiv(f), p)) != 1:
            continue
        sums = {0}
        for g in factor_squarefree_mod_p(_distinct_degree(f, p), p, rng):
            sums |= {s + len(g) - 1 for s in sums}
        degset &= sums
        good += 1
        if degset == {0, n}:
            return [list(f)]
    rng = random.Random(2)
    best = None
    p, good = 1000, 0
    while good < 4:
        p = next_prime(p)
        if len(_zgcd_mod(f, _zderiv(f), p)) != 1:
            continue
        facs = factor_squarefree_mod_p(_distinct_degree(f, p), p, rng)
        good += 1
        if best is None or len(facs) < len(best[1]):
            best = (p, facs)
        if len(facs) == 1:
            break
    p, modular = best
    if len(modular) == 1:
        return [list(f)]
    lifted, modulus = hensel_lift_factors(f, modular, p, 2 * _coeff_bound(f) + 1)
    return _recombine(f, lifted, modulus, degset)


def ref_factor_poly(f):
    """Yun's split over Q (ref_yun) and the earlier prime search; the
    squarefree parts of a monic integer f are monic integer (Gauss)."""
    out = []
    for g, mult in ref_yun(f.coeffs):
        assert all(c.denominator == 1 for c in g)
        out += [(Poly(fc), mult) for fc in ref_factor_squarefree_monic_int([int(c) for c in g])]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


small_factors = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(lambda cs: Poly(cs + [1]))


@given(st.lists(st.tuples(small_factors, st.integers(1, 3)), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_factor_poly_matches_reference(parts):
    f = mul(*(g for g, m in parts for _ in range(m)))
    assert factor_poly(f) == ref_factor_poly(f)


def test_factor_poly_on_polynomials_split_modulo_every_prime():
    # x^4 - x^2 + 1 (the 12th cyclotomic polynomial) and x^4 - 10x^2 + 1
    # (the minimal polynomial of sqrt2 + sqrt3) are irreducible over Q, yet
    # split into linear or quadratic factors modulo every prime, so only
    # recombination proves them irreducible
    c12, s23 = Poly([1, 0, -1, 0, 1]), Poly([1, 0, -10, 0, 1])
    r2, r3 = Poly([-2, 0, 1]), Poly([-3, 0, 1])
    for f in (c12, s23, mul(c12, s23, s23), mul(c12, r3, r2, r2, r2)):
        assert factor_poly(f) == ref_factor_poly(f)
    assert factor_poly(c12) == [(c12, 1)]
    assert factor_poly(s23) == [(s23, 1)]
