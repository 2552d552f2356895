import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from quatforms import polynomials
from quatforms.arith import FIRST_CRT_PRIME, next_prime
from quatforms.polynomials import (
    Poly,
    _coeff_bound,
    _distinct_degree,
    _recombine,
    _zderiv,
    _zgcd_mod,
    factor_poly,
    factor_squarefree_mod_p,
    factor_squarefree_monic_int,
    gcd_int_poly,
    hensel_lift_factors,
    isolate_real_roots,
)

small_coeff = st.integers(min_value=-9, max_value=9)
polys = st.lists(small_coeff, min_size=0, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_scalar_operands():
    assert Poly([1, 1]) - 1 == Poly([0, 1])
    assert 1 + Poly([0, 1]) == Poly([1, 1])
    assert sum([Poly([0, 1]), Poly([2])]) == Poly([2, 1])
    assert (Poly([4, 2]) % 2).is_zero()
    assert Poly([2]) == 2 and Poly([Fraction(1, 2)]) == Fraction(1, 2)
    assert Poly([0, 1]) != 0


@given(polys, polys)
@settings(max_examples=80, deadline=None)
def test_ring_identities(a, b):
    assert (a + b) * (a - b) == a * a - b * b
    assert a * b == b * a


@given(polys, nonzero_polys)
@settings(max_examples=80, deadline=None)
def test_divmod_identity(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


def ref_gcd(a, b):
    """Monic gcd over Q by Euclid on Fraction polynomials."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _ints(f):
    return [int(c) for c in f.coeffs]


monic_polys = st.lists(small_coeff, min_size=0, max_size=4).map(lambda cs: Poly(cs + [1]))


@given(monic_polys, monic_polys, monic_polys, st.integers(-3, 3))
@settings(max_examples=60, deadline=None)
def test_gcd_common_factor(a, b, h, c):
    # the monic product a h against any integer multiple of b h, zero too
    f, g = a * h, b * h * c
    assert Poly(gcd_int_poly(_ints(f), _ints(g))) == ref_gcd(f, g)


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
    f = _ints(Poly([-2, 0, 1]) * Poly([-1, 1]))
    g = _ints(Poly([-2, 0, 1]) * Poly([-1 - p0, 1]))
    degrees = _residue_degrees(monkeypatch)
    assert gcd_int_poly(f, g) == [-2, 0, 1]
    assert degrees == [3, 2]


def test_gcd_bound_needs_two_primes(monkeypatch):
    # the common factor x - a has a coefficient above 2^61, so one CRT
    # prime cannot certify it
    a = (1 << 62) + 3
    f = _ints(Poly([-a, 1]) * Poly([-2, 0, 1]))
    g = _ints(Poly([-a, 1]) * Poly([5, 1]) * 7)
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
    # Yun's split gives the multiplicities: (x + 1)^3 (x^2 - 2) times 5
    f = Poly([1, 1]) ** 3 * Poly([-2, 0, 1]) * 5
    unit, parts = factor_poly(f)
    assert unit == 5
    assert parts == [(Poly([1, 1]), 3), (Poly([-2, 0, 1]), 1)]
    prod = Poly([unit])
    for g, m in parts:
        prod = prod * g ** m
    assert prod == f


def test_factor_quadratics():
    unit, fs = factor_poly(Poly([-1, 0, 1]))
    assert unit == 1
    assert fs == [(Poly([-1, 1]), 1), (Poly([1, 1]), 1)]


def test_factor_irreducible_eisenstein():
    # Eisenstein at 2, the oracle for irreducibility
    f = Poly([2, 0, -6, 0, 1])
    unit, fs = factor_poly(f)
    assert fs == [(f, 1)]


def test_factor_cyclotomic5():
    f = Poly([1, 1, 1, 1, 1])
    _, fs = factor_poly(f)
    assert fs == [(f, 1)]


def test_factor_product_with_multiplicity():
    f = Poly([-2, 0, 1]) ** 2 * Poly([3, 1])
    _, fs = factor_poly(f)
    assert fs == [(Poly([3, 1]), 1), (Poly([-2, 0, 1]), 2)]


def test_factor_level_one_shape():
    # product of the shape that shows up for class-set charpolys
    f = Poly([-4, 1]) * Poly([4, 1]) * Poly([4, 0, 1]) * Poly([2, 0, -6, 0, 1])
    unit, fs = factor_poly(f)
    assert unit == 1
    assert [(g.degree, m) for g, m in fs] == [(1, 1), (1, 1), (2, 1), (4, 1)]
    prod = Poly([1])
    for g, m in fs:
        prod = prod * g ** m
    assert prod == f


def test_factor_rational_input():
    f = Poly([Fraction(1, 4), 0, 1])  # x^2 + 1/4 = (x+i/2)(x-i/2): irreducible over Q
    _, fs = factor_poly(f)
    assert fs == [(f, 1)]
    g = Poly([Fraction(-1, 4), 0, 1])  # (x-1/2)(x+1/2)
    _, gs = factor_poly(g)
    assert gs == [(Poly([Fraction(-1, 2), 1]), 1), (Poly([Fraction(1, 2), 1]), 1)]


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
        f = Poly([rng.choice([1, 2, -3])])
        expected: dict[tuple, int] = {}
        for g in picks:
            f = f * g
            expected[g.coeffs] = expected.get(g.coeffs, 0) + 1
        _, fs = factor_poly(f)
        got = {g.coeffs: m for g, m in fs}
        assert got == expected


def test_isolate_and_refine_roots():
    f = Poly([-2, 0, 1]) * Poly([-3, 1])  # roots -sqrt2, sqrt2, 3
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


# --- full factorization over F_p ---

from quatforms.polynomials import factor_mod_p


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def test_factor_mod_p_known():
    # x^2 + 1 stays irreducible mod 3, splits mod 5, ramifies mod 2
    assert factor_mod_p([1, 0, 1], 3) == [((1, 0, 1), 1)]
    assert factor_mod_p([1, 0, 1], 5) == [((2, 1), 1), ((3, 1), 1)]
    assert factor_mod_p([1, 0, 1], 2) == [((1, 1), 2)]
    # (x^2+x+1)^2 over F_2, written out
    assert factor_mod_p([1, 0, 1, 0, 1], 2) == [((1, 1, 1), 2)]


def test_factor_mod_p_derivative_zero():
    # x^5 - x = x(x-1)(x+1)(x^2+2)... over F_5 it is prod (x - a)
    got = factor_mod_p([0, 4, 0, 0, 0, 1], 5)
    assert got == [((0, 1), 1), ((1, 1), 1), ((2, 1), 1), ((3, 1), 1), ((4, 1), 1)]
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 mod 2; f' = 0
    assert factor_mod_p([1, 0, 1, 0, 1], 2) == [((1, 1, 1), 2)]
    # x^9 mod 3
    assert factor_mod_p([0] * 9 + [1], 3) == [((0, 1), 9)]


def test_factor_mod_p_multiply_back():
    rng = random.Random(11)
    for p in (2, 3, 5, 13):
        for _ in range(25):
            deg = rng.randint(1, 7)
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            fac = factor_mod_p(f, p)
            prod = [1]
            total = 0
            for q, m in fac:
                assert q[-1] == 1 and len(q) >= 2
                total += (len(q) - 1) * m
                for _ in range(m):
                    prod = _pmul(prod, list(q), p)
            assert total == deg
            assert prod == [c % p for c in f]


def _ref_factor_mod_2(f):
    """Sorted factorization of a monic f over F_2 by trial division: the
    monic divisors of each degree are tried in turn, and the first divisor
    of least degree is irreducible."""
    out = {}
    d = 1
    while len(f) > 1:
        if len(f) - 1 < 2 * d:
            out[tuple(f)] = out.get(tuple(f), 0) + 1
            break
        for bits in range(1 << d):
            q = [(bits >> i) & 1 for i in range(d)] + [1]
            quo, rem = [0] * (len(f) - d), list(f)
            for k in range(len(f) - 1 - d, -1, -1):
                if rem[k + d]:
                    quo[k] = 1
                    for i, c in enumerate(q):
                        rem[k + i] ^= c
            if not any(rem):
                out[tuple(q)] = out.get(tuple(q), 0) + 1
                f = quo
                break
        else:
            d += 1
    return sorted(out.items())


def test_factor_mod_2_matches_trial_division():
    # every monic f of degree at most 8 over F_2
    for deg in range(9):
        for bits in range(1 << deg):
            f = [(bits >> i) & 1 for i in range(deg)] + [1]
            assert factor_mod_p(f, 2) == _ref_factor_mod_2(f), f


def test_rational_inputs_under_optimize(run_optimized):
    # rational inputs are cleared of denominators with no assert that -O strips
    out = run_optimized(
        "from fractions import Fraction\n"
        "from quatforms.polynomials import Poly, factor_poly, isolate_real_roots\n"
        "a = Poly([Fraction(1, 2), 1])\n"
        "print(factor_poly(a * a)[1])\n"
        "try:\n"
        "    print('returned', isolate_real_roots(a * a * Poly([3, 1])))\n"
        "except ValueError as exc:\n"
        "    print('ValueError:', exc)\n"
    )
    assert out.splitlines() == ["[(Poly(x + 1/2), 2)]", "ValueError: input must be squarefree"]


def test_bad_inputs_raise_under_optimize(run_optimized):
    # input checks are raises, not asserts, so -O keeps them
    out = run_optimized(
        "from quatforms.polynomials import Poly, factor_poly, isolate_real_roots,"
        " _poly_xgcd_mod, _zdivmod_monic\n"
        "zero, x = Poly([]), Poly([0, 1])\n"
        "for call in (zero.leading, lambda: x ** -1, lambda: x.divmod(zero),\n"
        "             lambda: factor_poly(zero),\n"
        "             lambda: isolate_real_roots(zero), lambda: isolate_real_roots(x * x),\n"
        "             lambda: _zdivmod_monic([1, 2, 3], [1, 2], 5),\n"
        "             lambda: _poly_xgcd_mod([0, 1], [0, 2, 1], 3)):\n"
        "    try:\n"
        "        print('returned', call())\n"
        "    except (ValueError, ZeroDivisionError) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    assert out.split() == ["ValueError", "ValueError", "ZeroDivisionError"] + ["ValueError"] * 5


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


def ref_squarefree_decomposition(f):
    """Yun's algorithm on Fraction polynomials."""
    lc = f.leading()
    f = f.monic()
    if f.degree == 0:
        return lc, []
    out = []
    df = f.derivative()
    a = ref_gcd(f, df)
    b, c = f.divmod(a)[0], df.divmod(a)[0]
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = ref_gcd(b, d)
        if g.degree > 0:
            out.append((g, i))
        b, c = b.divmod(g)[0], d.divmod(g)[0]
        i += 1
    return lc, out


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
    unit, sqfree = ref_squarefree_decomposition(f)
    out = []
    for g, mult in sqfree:
        d = 1
        for c in g.coeffs:
            d = d * c.denominator // gcd(d, c.denominator)
        n = g.degree
        h = [(c * d ** (n - i)).numerator for i, c in enumerate(g.coeffs)]
        for fc in ref_factor_squarefree_monic_int(h):
            m = len(fc) - 1
            out.append((Poly([Fraction(c, d ** (m - i)) for i, c in enumerate(fc)]), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return unit, out


small_factors = st.lists(st.integers(-4, 4), min_size=2, max_size=4).map(Poly).filter(
    lambda p: p.degree >= 1
)


@given(st.lists(st.tuples(small_factors, st.integers(1, 3)), min_size=1, max_size=3),
       st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool))
@settings(max_examples=60, deadline=None)
def test_factor_poly_matches_reference(parts, unit):
    f = Poly([unit])
    for g, m in parts:
        f = f * g ** m
    assert factor_poly(f) == ref_factor_poly(f)


def test_factor_poly_on_polynomials_split_modulo_every_prime():
    # x^4 - x^2 + 1 (the 12th cyclotomic polynomial) and x^4 - 10x^2 + 1
    # (the minimal polynomial of sqrt2 + sqrt3) are irreducible over Q, yet
    # split into linear or quadratic factors modulo every prime, so only
    # recombination proves them irreducible
    c12, s23 = Poly([1, 0, -1, 0, 1]), Poly([1, 0, -10, 0, 1])
    for f in (c12, s23, c12 * s23 ** 2, c12 * Poly([-3, 0, 1]) * Poly([-2, 0, 1]) ** 3):
        assert factor_poly(f) == ref_factor_poly(f)
    assert factor_poly(c12) == (1, [(c12, 1)])
    assert factor_poly(s23) == (1, [(s23, 1)])
