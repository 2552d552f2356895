"""Monic integer polynomials: factorization over Z and real roots.

Every polynomial of the pipeline is the characteristic polynomial of an
integer Hecke matrix on a stable subspace, or a factor of one.  It
divides the monic integer characteristic polynomial of the whole matrix,
so by Gauss's lemma it is monic in Z[x], and integer coefficients are
its one representation: Poly holds them, lowest degree first, and the
arithmetic runs on plain integer lists.  factor_poly splits a monic
integer polynomial by Yun's squarefree split with gcd_int_poly,
distinct-degree patterns mod five primes to bound factor degrees, and
equal-degree splitting, Hensel lifting and recombination at the one of
those primes with the fewest factors.

Every gcd over Z has a monic first argument, which makes it monic and
bounds its coefficients (Mignotte), and the one exact division over Z,
_zquotient, is by a monic polynomial.  isolate_real_roots runs a Sturm
chain of integer pseudo-remainders.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from .arith import FIRST_CRT_PRIME, next_prime, symmetric_mod


class Poly:
    """Polynomial with int coefficients, coeffs[i] is the x^i term.

    Trailing zeros are trimmed; a coefficient that is not an int raises
    ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        if not all(isinstance(c, int) for c in cs):
            raise ValueError("polynomial coefficients must be ints")
        self.coeffs = tuple(_ztrim(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


# ---------------------------------------------------------------------------
# integer coefficient lists (low degree first), helpers for the factor code


def _ztrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _zmul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _zderiv(f):
    return [i * c for i, c in enumerate(f)][1:]


def _zmod(f, m):
    return _ztrim([c % m for c in f])


def _zdivmod_monic(f, g, m):
    """(q, r) with f = q*g + r mod m; g monic mod m."""
    if not g or g[-1] % m != 1:
        raise ValueError("divisor is not monic mod m")
    r = [c % m for c in f]
    q = [0] * max(0, len(r) - len(g) + 1)
    dn = len(g)
    for k in range(len(r) - dn, -1, -1):
        c = r[k + dn - 1] % m
        if c:
            q[k] = c
            for j, b in enumerate(g):
                r[k + j] = (r[k + j] - c * b) % m
    return _ztrim(q), _ztrim(r[: dn - 1])


def _zmulmod(f, g, h, m):
    return _zdivmod_monic(_zmul(f, g), h, m)[1]


def _zpowmod(f, e, h, m):
    out = [1]
    base = _zdivmod_monic(f, h, m)[1]
    while e:
        if e & 1:
            out = _zmulmod(out, base, h, m)
        base = _zmulmod(base, base, h, m)
        e >>= 1
    return out


def _zgcd_mod(f, g, p):
    """Monic gcd of f, g mod prime p."""
    f, g = _zmod(f, p), _zmod(g, p)
    while g:
        inv = pow(g[-1], -1, p)
        gm = [c * inv % p for c in g]
        _, r = _zdivmod_monic(f, gm, p)
        f, g = gm, r
    if f:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def gcd_int_poly(f: list[int], g: list[int]) -> list[int]:
    """The monic gcd h in Z[x] of a monic f (else ValueError) and any g.

    h divides the gcd mod every prime, of equal degree at all but finitely
    many, and its coefficients lie below _coeff_bound(f) (Mignotte).  Euclid
    runs mod the primes from FIRST_CRT_PRIME on; residues of least degree are
    combined by CRT (a lower degree restarts, a higher one is skipped) until
    the modulus passes 2 _coeff_bound(f).  The symmetric lift is returned
    once it divides f and g exactly.  A residue of degree 0 gives 1, a zero
    g gives f.
    """
    f, g = _ztrim(list(f)), _ztrim(list(g))
    if not f or f[-1] != 1:
        raise ValueError("polynomial is not monic")
    if not g:
        return f
    bound = 2 * _coeff_bound(f)
    p, modulus, residues = FIRST_CRT_PRIME, 1, None
    while True:
        h = _zgcd_mod(f, g, p)
        if len(h) == 1:
            return [1]
        if residues is None or len(h) < len(residues):
            modulus, residues = p, h
        elif len(h) == len(residues):
            inv = pow(modulus, -1, p)
            residues = [a + (b - a) * inv % p * modulus for a, b in zip(residues, h)]
            modulus *= p
        if len(h) == len(residues) and modulus > bound:
            lift = [symmetric_mod(c, modulus) for c in residues]
            if _zquotient(f, lift) is not None and _zquotient(g, lift) is not None:
                return lift
        p = next_prime(p)


def _zquotient(f, g):
    """f / g in Z[x] for a monic g, or None when g does not divide f."""
    if not g or g[-1] != 1:
        raise ValueError("divisor is not monic")
    r = list(f)
    q = [0] * max(0, len(r) - len(g) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + len(g) - 1]
        if c:
            for j, b in enumerate(g):
                r[k + j] -= c * b
    return None if any(r[: len(g) - 1]) else q


# ---------------------------------------------------------------------------
# squarefree decomposition (Yun)


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """[(g_i, i)] with the monic integer f = prod g_i^i, g_i squarefree,
    pairwise coprime and of positive degree.

    Yun's algorithm over Z: every gcd has a monic first argument, so it is
    monic, and a quotient by it that leaves a remainder raises.
    """

    def div(u, v):
        q = _zquotient(u, v)
        if q is None:
            raise ArithmeticError("polynomial division leaves a remainder")
        return q

    out = []
    df = _zderiv(f)
    a = gcd_int_poly(f, df)
    b, c = div(f, a), div(df, a)
    i = 1
    while len(b) > 1:
        d = _zsubtract(c, _zderiv(b))
        g = gcd_int_poly(b, d)
        if len(g) > 1:
            out.append((g, i))
        b, c = div(b, g), div(d, g)
        i += 1
    return out


# ---------------------------------------------------------------------------
# squarefree factorization mod an odd prime p (distinct degree, then
# equal degree), for Hensel lifting


def _distinct_degree(f: list[int], p: int) -> list[tuple[int, list[int]]]:
    """[(d, g_d)]: g_d the product of the degree-d irreducible factors of a
    monic squarefree f mod p, for each degree d that occurs."""
    rem = _zmod(f, p)
    parts = []
    xq = [0, 1]
    d = 0
    while len(rem) - 1 >= 2 * (d + 1):
        d += 1
        # xq holds x^(p^d) mod rem; gcd with x^(p^d) - x catches degree-d parts
        xq = _zpowmod(xq, p, rem, p)
        sub = xq + [0] * (2 - len(xq))
        sub[1] = (sub[1] - 1) % p
        g = _zgcd_mod(sub, rem, p)
        if len(g) > 1:
            parts.append((d, g))
            rem = _zdivmod_monic(rem, g, p)[0]
            xq = _zdivmod_monic(xq, rem, p)[1]
    # what is left has no factor of degree below half its own: irreducible
    if len(rem) > 1:
        parts.append((len(rem) - 1, rem))
    return parts


def factor_squarefree_mod_p(parts: list[tuple[int, list[int]]], p: int, rng: random.Random) -> list[list[int]]:
    """Monic irreducible factors mod an odd prime p of a monic squarefree
    polynomial, given its distinct-degree parts (_distinct_degree)."""
    found = [h for d, g in parts for h in _equal_degree_split(g, d, p, rng)]
    if sum(len(h) - 1 for h in found) != sum(len(g) - 1 for _, g in parts):
        raise ArithmeticError("modular factor degrees do not sum to the degree")
    return sorted(found)


def _equal_degree_split(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """All irreducible factors of g, which is a product of degree-d primes
    mod an odd prime p.

    gcd(b, g) splits g for most random a, with b = a^((p^d - 1)/2) - 1
    (Cantor-Zassenhaus).  That b needs an odd p, so p = 2 raises
    ValueError; factor_squarefree_monic_int uses primes above 101.
    """
    if p == 2:
        raise ValueError("equal-degree splitting needs an odd prime")
    n = len(g) - 1
    if n == d:
        return [g]
    e = (pow(p, d) - 1) // 2
    while True:
        a = _ztrim([rng.randrange(p) for _ in range(n)])
        if not a:
            continue
        b = _zpowmod(a, e, g, p)
        b = _zmod([(b[0] if b else 0) - 1] + b[1:], p)
        h = _zgcd_mod(b, g, p)
        if 0 < len(h) - 1 < n:
            rest = _zdivmod_monic(g, h, p)[0]
            return _equal_degree_split(h, d, p, rng) + _equal_degree_split(rest, d, p, rng)


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, factor-tree)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic step: from f=gh, sg+th=1 (mod m) to the same mod m^2.

    All polynomials integer lists; g, h monic; degrees are preserved.
    """
    m2 = m * m
    e = _zmod([a - b for a, b in _zip_pad(f, _zmul(g, h))], m2)
    q, r = _zdivmod_monic(_zmul(s, e), h, m2)
    g1 = _zmod([a + b for a, b in _zip_pad(g, [x + y for x, y in _zip_pad(_zmul(t, e), _zmul(q, g))])], m2)
    h1 = _zmod([a + b for a, b in _zip_pad(h, r)], m2)
    b = _zmod([a - c for a, c in _zip_pad([x + y for x, y in _zip_pad(_zmul(s, g1), _zmul(t, h1))], [1])], m2)
    c, dpoly = _zdivmod_monic(_zmul(s, b), h1, m2)
    s1 = _zmod([a - b2 for a, b2 in _zip_pad(s, dpoly)], m2)
    t1 = _zmod([a - b2 for a, b2 in _zip_pad(t, [x + y for x, y in _zip_pad(_zmul(t, b), _zmul(c, g1))])], m2)
    return g1, h1, s1, t1


def _zip_pad(f, g):
    n = max(len(f), len(g))
    return zip(f + [0] * (n - len(f)), g + [0] * (n - len(g)))


def _poly_xgcd_mod(f, g, p):
    """(s, t) with s*f + t*g = 1 mod p for coprime f, g mod p."""
    r0, r1 = _zmod(f, p), _zmod(g, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1m = [c * inv % p for c in r1]
        q, r = _zdivmod_monic(r0, r1m, p)
        q = _zmod(_zmul(q, [inv]), p)
        r0, r1 = r1, r
        s0, s1 = s1, _zmod([a - b for a, b in _zip_pad(s0, _zmul(q, s1))], p)
        t0, t1 = t1, _zmod([a - b for a, b in _zip_pad(t0, _zmul(q, t1))], p)
    if len(r0) != 1:
        raise ValueError("inputs are not coprime mod p")
    inv = pow(r0[0], -1, p)
    return _zmod(_zmul(s0, [inv]), p), _zmod(_zmul(t0, [inv]), p)


def hensel_lift_factors(f: list[int], factors: list[list[int]], p: int, target: int) -> tuple[list[list[int]], int]:
    """Lift monic factors of f mod p to mod p^(2^k) >= target.

    Returns (lifted factors, modulus).  f monic with f = prod(factors) mod p,
    factors pairwise coprime mod p.
    """
    k = 1
    m = p
    while m < target:
        m *= m
        k *= 2
    modulus = p ** k

    def lift(fcur, facs):
        if len(facs) == 1:
            return [_zmod(fcur, modulus)]
        half = len(facs) // 2
        left, right = facs[:half], facs[half:]
        g = [1]
        for q in left:
            g = _zmod(_zmul(g, q), p)
        h = [1]
        for q in right:
            h = _zmod(_zmul(h, q), p)
        s, t = _poly_xgcd_mod(g, h, p)
        m_cur = p
        while m_cur < modulus:
            g, h, s, t = _hensel_step(fcur, g, h, s, t, m_cur)
            m_cur *= m_cur
        return lift(g, left) + lift(h, right)

    return lift(_zmod(f, modulus), factors), modulus


# ---------------------------------------------------------------------------
# factorization over Z / Q


def _coeff_bound(f: list[int]) -> int:
    """Bound on coefficient size of any monic factor of monic f (Mignotte-ish)."""
    norm2 = isqrt(sum(c * c for c in f)) + 1
    return (1 << (len(f))) * norm2


def factor_squarefree_monic_int(f: list[int]) -> list[list[int]]:
    """Irreducible monic integer factors of a squarefree monic f in Z[x].

    Five primes above 101 at which f stays squarefree give distinct-degree
    patterns.  A factor over Z has a degree that is a sum of modular factor
    degrees at each of them, so f is irreducible once only 0 and n remain.
    Otherwise the first of the five primes with the fewest modular factors
    is split completely, and its factors are lifted and recombined.
    ValueError unless f is monic and squarefree, else no prime is good.
    """
    df = _zderiv(f)
    if gcd_int_poly(f, df) != [1]:
        raise ValueError("polynomial is not squarefree")
    n = len(f) - 1
    if n <= 1:
        return [list(f)]
    degset = set(range(n + 1))
    best = None
    p = 101
    good = 0
    # a squarefree f has a nonzero discriminant, so good primes never run out
    while good < 5:
        p = next_prime(p)
        if len(_zgcd_mod(f, df, p)) != 1:
            continue
        good += 1
        parts = _distinct_degree(f, p)
        sums = {0}
        for d, g in parts:
            for _ in range((len(g) - 1) // d):
                sums |= {s + d for s in sums}
        degset &= sums
        if degset == {0, n}:
            return [list(f)]
        count = sum((len(g) - 1) // d for d, g in parts)
        if best is None or count < best[0]:
            best = (count, p, parts)
    _, p, parts = best
    modular = factor_squarefree_mod_p(parts, p, random.Random(0))
    lifted, modulus = hensel_lift_factors(f, modular, p, 2 * _coeff_bound(f) + 1)
    return _recombine(f, lifted, modulus, degset)


def _recombine(f, lifted, modulus, degset):
    """Search products of lifted modular factors that divide f over Z."""
    out = []
    remaining = list(range(len(lifted)))
    fcur = list(f)
    card = 1
    while 2 * card <= len(remaining):
        hit = False
        for subset in combinations(remaining, card):
            deg = sum(len(lifted[i]) - 1 for i in subset)
            if deg not in degset:
                continue
            cand = [1]
            for i in subset:
                cand = _zmod(_zmul(cand, lifted[i]), modulus)
            cand = [symmetric_mod(c, modulus) for c in cand]
            # cheap test first: constant term must divide f(0) when nonzero
            if fcur[0] and cand[0] and fcur[0] % cand[0]:
                continue
            quo = _zquotient(fcur, cand)
            if quo is not None:
                out.append(cand)
                fcur = quo
                remaining = [i for i in remaining if i not in subset]
                hit = True
                break
        if not hit:
            card += 1
    if len(fcur) > 1:
        out.append(fcur)
    if _zsubtract(_zprod(out), f):
        raise ArithmeticError("recombined factors do not multiply back")
    return sorted(out)


def _zprod(fs):
    out = [1]
    for f in fs:
        out = _zmul(out, f)
    return out


def _zsubtract(f, g):
    return _ztrim([a - b for a, b in _zip_pad(list(f), list(g))])


def factor_poly(f: Poly) -> list[tuple[Poly, int]]:
    """[(g, e)] with f = prod g^e for a monic f in Z[x] (ValueError
    otherwise), each g monic and irreducible over Z, hence over Q (Gauss).

    Sorted by (degree, coefficient tuple) for reproducible output.
    """
    if not f.coeffs or f.coeffs[-1] != 1:
        raise ValueError("polynomial is not monic")
    out = [
        (Poly(q), mult)
        for g, mult in _yun(list(f.coeffs))
        for q in factor_squarefree_monic_int(g)
    ]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


# ---------------------------------------------------------------------------
# real root isolation (Sturm)


def _sturm_chain(f: list[int]) -> list[list[int]]:
    """The Sturm chain of a squarefree integer f, in integer polynomials,
    ending in a nonzero constant.

    Each next member is the negated pseudo-remainder of the two before
    it: the remainder of |lc|^(delta+1) a by b, exact over Z for
    lc = lc(b) and delta = deg a - deg b, divided by its positive content.
    Positive scalings keep every sign, so the chain counts roots as the
    rational Sturm chain does.
    """
    chain = [f, _zderiv(f)]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = [abs(b[-1]) ** (len(a) - len(b) + 1) * c for c in a]
        for k in range(len(a) - len(b), -1, -1):
            q = r[k + len(b) - 1] // b[-1]
            for j, c in enumerate(b):
                r[k + j] -= q * c
        r = _ztrim(r[: len(b) - 1])
        g = gcd(*r)
        chain.append([-c // g for c in r])
    return chain


def _sign_at(f: list[int], x: Fraction) -> int:
    """The sign of f(x) at x = n/d, as that of the integer d^deg f(n/d)."""
    n, d = x.numerator, x.denominator
    acc, dk = 0, 1
    for c in reversed(f):
        acc = acc * n + c * dk
        dk *= d
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: list[list[int]], x: Fraction) -> int:
    signs = [s for s in (_sign_at(g, x) for g in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def isolate_real_roots(f: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals (a, b), sorted, each containing exactly one
    real root of a monic squarefree f in Z[x] (ValueError otherwise).

    Bisection from the Cauchy bound 1 + max |c_i|, which every real root
    lies strictly inside, with Sturm counts at the endpoints; endpoints
    are Fractions and never roots.
    """
    h = list(f.coeffs)
    if not h or h[-1] != 1:
        raise ValueError("polynomial is not monic")
    if gcd_int_poly(h, _zderiv(h)) != [1]:
        raise ValueError("input must be squarefree")
    if len(h) == 1:
        return []
    chain = _sturm_chain(h)
    bound = Fraction(1 + max(abs(c) for c in h[:-1]))
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound, _sign_changes(chain, -bound), _sign_changes(chain, bound))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb
        if count == 0:
            continue
        if count == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        while _sign_at(h, mid) == 0:
            mid = (a + mid) / 2
        vm = _sign_changes(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out
