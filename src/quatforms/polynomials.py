"""Dense univariate polynomials over Q, and factorization over Z.

The public Poly class keeps Fraction coefficients, lowest degree first.
factor_poly clears denominators once (y = d x makes f monic integral);
the rest runs on integer coefficient lists: Yun's squarefree split with
gcd_int_poly, distinct-degree patterns mod five primes to bound factor
degrees, and equal-degree splitting, Hensel lifting and recombination
at the one of those primes with the fewest factors.

Every gcd over Z has a monic first argument, which makes it monic and
bounds its coefficients (Mignotte), and the one exact division over Z,
_zquotient, is by a monic polynomial.  There is no gcd over Q:
isolate_real_roots tests squarefreeness on the monic integer rescaling.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import isqrt, lcm

from .arith import FIRST_CRT_PRIME, next_prime, symmetric_mod


class Poly:
    """Polynomial with Fraction coefficients, coeffs[i] is the x^i term."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(other.coeffs) + [Fraction(0)] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        out = Poly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q = [Fraction(0)] * max(0, len(self.coeffs) - len(other.coeffs) + 1)
        r = list(self.coeffs)
        dlead = other.coeffs[-1]
        dn = len(other.coeffs)
        while len(r) >= dn and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) < dn:
                break
            c = r[-1] / dlead
            k = len(r) - dn
            q[k] = c
            for j, b in enumerate(other.coeffs):
                r[k + j] -= c * b
            r.pop()
        return Poly(q), Poly(r)

    def __mod__(self, other):
        return self.divmod(_coerce(other))[1]

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return Poly([c / lc for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            else:
                xs = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    terms.append(xs)
                elif c == -1:
                    terms.append(f"-{xs}")
                else:
                    terms.append(f"{c}*{xs}")
        return "Poly(" + " + ".join(terms).replace("+ -", "- ") + ")"


def _coerce(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly([v])


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


def _monic_integer(f: Poly) -> tuple[Fraction, int, list[int]]:
    """(lc, d, h) with f(x) = lc * h(d x) / d^n, h monic in Z[x], n = deg f.

    d is the least common denominator of the coefficients of f / lc.
    """
    lc = f.leading()
    g = f.monic()
    d = lcm(*(c.denominator for c in g.coeffs))
    n = g.degree
    return lc, d, [c.numerator * d ** (n - i) // c.denominator for i, c in enumerate(g.coeffs)]


def _unscale(h: list[int], d: int) -> Poly:
    """The monic h(d x) / d^deg h of a monic integer h."""
    m = len(h) - 1
    return Poly([Fraction(c, d ** (m - i)) for i, c in enumerate(h)])


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


def factor_poly(f: Poly) -> tuple[Fraction, list[tuple[Poly, int]]]:
    """Full factorization over Q: f = unit * prod factor_i^mult_i.

    Factors are monic irreducible over Q with integer coefficients after
    scaling (returned monic, so coefficients may be rational).  Sorted by
    (degree, coefficient tuple) for reproducible output.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit, d, h = _monic_integer(f)
    out = [
        (_unscale(q, d), mult)
        for g, mult in _yun(h)
        for q in factor_squarefree_monic_int(g)
    ]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return unit, out


# ---------------------------------------------------------------------------
# real root isolation (Sturm)


def sturm_chain(f: Poly) -> list[Poly]:
    chain = [f, f.derivative()]
    while not chain[-1].is_zero() and chain[-1].degree > 0:
        chain.append(-(chain[-2] % chain[-1]))
    if chain[-1].is_zero():
        chain.pop()
    return chain


def _sign_changes(chain: list[Poly], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = p(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(f: Poly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lc = abs(f.leading())
    return 1 + max((abs(c) for c in f.coeffs[:-1]), default=Fraction(0)) / lc


def isolate_real_roots(f: Poly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open intervals (a, b), each containing exactly one real root.

    Requires f squarefree (ValueError otherwise), tested as gcd(h, h') = 1
    on the monic integer h of _monic_integer(f).  Endpoints are never roots.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no isolated roots")
    if f.degree == 0:
        return []
    _, _, h = _monic_integer(f)
    if gcd_int_poly(h, _zderiv(h)) != [1]:
        raise ValueError("input must be squarefree")
    chain = sturm_chain(f.monic())
    bound = root_bound(f)
    lo, hi = -bound, bound
    while f(lo) == 0:
        lo -= 1
    while f(hi) == 0:
        hi += 1
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, _sign_changes(chain, lo), _sign_changes(chain, hi))]
    while stack:
        a, b, va, vb = stack.pop()
        count = va - vb
        if count == 0:
            continue
        if count == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        while f(mid) == 0:
            mid = (a + mid) / 2
        vm = _sign_changes(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    out.sort()
    return out

