"""Real quadratic fields Q(sqrt d) over the integral basis (1, omega).

A field context carries the relation omega^2 = t0 + t1 omega, the
discriminant D, and everything downstream needs exactly: signs at the
two real embeddings, the trace form, the fundamental unit, the primes,
class and narrow class data, and the value of the Dedekind zeta
function at -1.

make_quadratic_field computes every invariant from scratch.  One
continued fraction walk gives the unit, from one period of the reduced
omega + m, certified by its norm +-1, and principality, a generator
certified by norm and membership or None; Cl(F) and Cl+(F) come from
one closure over the primes below the Minkowski bound, a class being
the index of its representative, zeta(-1) from the finite divisor sum.
Generators and narrow classes are looked up once per ideal and kept on
the context.  The rest is in closed form for a quadratic field: the
primes above p are the roots of x^2 - t1 x - t0 mod p (Dedekind-Kummer),
and the norm of the fundamental unit decides the totally positive units
and the kernel of the map from the narrow class group onto the class
group.

Elements are coordinate tuples of Fractions over (1, omega), and their
arithmetic is in closed form.  An element is (a + b sqrt D)/2 with a, b
rational, so its sign at either embedding is decided exactly by
comparing a^2 with D b^2.  Ideals, their products and membership run
on integer HNF rows over one denominator.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import factor_int, next_prime, sqrt_mod
from .intmat import (
    canonical_lattice,
    int_product,
    integral_preimage_rows,
    integral_rows,
    inverse_rows,
    lattice_coords,
)

log = logging.getLogger(__name__)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _sigma1(n: int) -> int:
    total = 1
    for p, e in sorted(factor_int(n).items()):
        total *= (p ** (e + 1) - 1) // (p - 1)
    return total


def siegel_zeta_quadratic(disc: int) -> Fraction:
    """zeta_F(-1) for the real quadratic field of discriminant disc.

    Finite sum formula: (1/60) * sum of sigma_1((disc - b^2)/4) over all
    integers b (both signs) with b^2 < disc and b = disc mod 2.
    """
    total = 0
    b = disc % 2
    while b * b < disc:
        s = _sigma1((disc - b * b) // 4)
        total += s if b == 0 else 2 * s
        b += 2
    return Fraction(total, 60)


def _continued_fraction(D: int, P: int, Q: int) -> Iterator[tuple[int, int, int, int]]:
    """(P_k, Q_k, q_(k-1), q_(k-2)) without end: the complete quotients
    (P_k + sqrt D)/Q_k of the continued fraction of (P + sqrt D)/Q, Q
    dividing D - P^2, and the convergent denominators before each.  With
    r = isqrt(D), floor((P + sqrt D)/Q) is (P + r + [Q < 0]) // Q."""
    r = isqrt(D)
    q1, q2 = 0, 1
    while True:
        yield P, Q, q1, q2
        a = (P + r + (Q < 0)) // Q
        P = a * Q - P
        Q = (D - P * P) // Q
        q1, q2 = a * q1 + q2, q1


def _fundamental_unit_quadratic(d: int) -> tuple[int, int]:
    """Coordinates over (1, omega) of the fundamental unit eps > 1.

    x_0 = omega + m, m = floor((sqrt D - t1)/2), is reduced, so its
    period closes when Q_k returns to 2, and eps = q_(l-1) x_0 + q_(l-2)
    for the period length l (Buchmann-Vollmer, Binary Quadratic Forms,
    the cycle of reduced forms).  Certified by N(eps) = +-1.
    """
    F = FieldCtx(d)
    D, t1 = F.disc, F.t1
    m = (isqrt(D) - t1) // 2
    period = itertools.islice(_continued_fraction(D, t1 + 2 * m, 2), 1, None)
    q, q_prev = next((q1, q2) for _, Q, q1, q2 in period if Q == 2)
    eps = (q * m + q_prev, q)
    if F.norm(eps) not in (1, -1):
        raise ArithmeticError("continued fraction period gives no unit")
    return eps


def _sign_plus_root(a, b, D: int) -> int:
    """Sign of a + b sqrt(D) for rationals a, b and a non-square D > 0.

    With a and b of opposite signs the term of larger absolute value
    wins, and a^2 = D b^2 cannot hold unless both vanish.
    """
    sa = (a > 0) - (a < 0)
    sb = (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa or D * b * b > a * a:
        return sb
    return sa


class FieldCtx:
    """Immutable context for the real quadratic field Q(sqrt d).

    d is a squarefree integer greater than 1.  The integral basis is
    (1, omega) with omega = (1 + sqrt d)/2 and discriminant D = d when
    d = 1 mod 4, and omega = sqrt d and D = 4d otherwise; in both cases
    omega^2 = t0 + t1 omega and omega = (t1 + sqrt D)/2.  Field elements
    everywhere are coordinate tuples over (1, omega).  The two real
    embeddings are ordered by their value at omega, the smaller first, so
    the first sends sqrt D to -sqrt D.

    The fundamental unit, class data and zeta(-1) are attached by
    make_quadratic_field, which computes and certifies each of them.  A
    class of Cl(F) or Cl+(F) is an index into class_reps or narrow_reps
    (class_of, narrow_class); narrow_mul is the multiplication table of
    Cl+(F).
    Generators and narrow classes are kept per ideal, by canonical
    (rows, den), so callers ask for them where they need them.
    """

    degree = 2

    def __init__(self, d: int):
        if not isinstance(d, int) or d <= 1:
            raise ValueError("d must be an integer greater than 1")
        if any(e > 1 for e in factor_int(d).values()):
            raise ValueError("d must be squarefree")
        if d % 4 == 1:
            self.t0, self.t1, self.disc = (d - 1) // 4, 1, d
        else:
            self.t0, self.t1, self.disc = d, 0, 4 * d
        self.name = f"quad:{d}"
        self.one = (_ONE, _ZERO)
        self.zero = (_ZERO, _ZERO)
        # attached by make_quadratic_field
        self.fundamental_units: list[tuple] = []
        self.zeta_minus_one: Fraction | None = None
        self.class_reps: list[FieldIdeal] = []
        self.class_number: int | None = None
        self.narrow_reps: list[FieldIdeal] = []
        self.narrow_class_number: int | None = None
        self.narrow_mul: list[list[int]] = []
        self._class_inverses: list[FieldIdeal] = []
        self._narrow_inverses: list[FieldIdeal] = []
        self._primes_cache = {}
        self._generators = {}  # (rows, den) -> principal_generator
        self._positive_generators = {}  # (rows, den) -> narrowly_principal_generator
        self._narrow_classes = {}  # (rows, den) -> narrow_class

    # -- basic element arithmetic ------------------------------------

    def el(self, seq) -> tuple:
        v = tuple(Fraction(c) for c in seq)
        if len(v) != 2:
            raise ValueError("wrong coordinate length")
        return v

    def from_int(self, m) -> tuple:
        return (Fraction(m), _ZERO)

    def add(self, x, y) -> tuple:
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y) -> tuple:
        return tuple(a - b for a, b in zip(x, y))

    def neg(self, x) -> tuple:
        return tuple(-a for a in x)

    def smul(self, c, x) -> tuple:
        c = Fraction(c)
        return tuple(c * a for a in x)

    def mul(self, x, y) -> tuple:
        x0, x1 = x
        y0, y1 = y
        # each Fraction operation costs a gcd, and quaternion products
        # pass many zero coordinates, so only nonzero terms are formed
        z0 = x0 * y0 if x0 and y0 else _ZERO
        z1 = x0 * y1 if x0 and y1 else _ZERO
        if x1 and y0:
            z1 = z1 + x1 * y0 if z1 else x1 * y0
        if x1 and y1:
            c = x1 * y1
            z0 = z0 + self.t0 * c if z0 else self.t0 * c
            if self.t1:
                z1 = z1 + c if z1 else c
        return (z0, z1)

    def rep_rows(self, x) -> list[list]:
        """Rows of multiplication by x: row i is e_i * x."""
        x0, x1 = x
        return [[x0, x1], [self.t0 * x1, x0 + self.t1 * x1]]

    def trace(self, x):
        return 2 * x[0] + self.t1 * x[1]

    def norm(self, x):
        x0, x1 = x
        return x0 * x0 + self.t1 * x0 * x1 - self.t0 * x1 * x1

    def inv(self, x) -> tuple:
        """The conjugate over the norm."""
        n = Fraction(self.norm(x))
        if not n:
            raise ZeroDivisionError("element is not invertible")
        x0, x1 = x
        return ((x0 + self.t1 * x1) / n, -x1 / n)

    def is_integral(self, x) -> bool:
        return all(Fraction(c).denominator == 1 for c in x)

    # -- signs ------------------------------------------------------------

    def sign_vector(self, x) -> tuple[int, int]:
        """Signs of x at the two real embeddings, in their fixed order.

        x = (a + b sqrt D)/2 with a = 2 x0 + t1 x1 and b = x1, and the
        embeddings send it to (a - b sqrt D)/2 and (a + b sqrt D)/2.
        """
        a = 2 * x[0] + self.t1 * x[1]
        b = x[1]
        return (_sign_plus_root(a, -b, self.disc), _sign_plus_root(a, b, self.disc))

    def is_totally_positive(self, x) -> bool:
        return all(s > 0 for s in self.sign_vector(x))

    # -- units ---------------------------------------------------------

    def totally_positive_units(self) -> list[tuple]:
        """Representatives of the totally positive units modulo squares.

        A fundamental unit eps of norm -1 has mixed signs, and then only
        the squares are totally positive.  Otherwise eps or -eps is
        totally positive and represents the one other class.  reps[0] is
        1, and reps[i] * reps[j] is reps[i ^ j] times a square.
        """
        (eps,) = self.fundamental_units
        if self.norm(eps) == -1:
            return [self.one]
        return [self.one, eps if self.is_totally_positive(eps) else self.neg(eps)]

    # -- ideals ---------------------------------------------------------

    def unit_ideal(self) -> "FieldIdeal":
        return FieldIdeal(self, ((1, 0), (0, 1)), 1)

    def ideal(self, *gens) -> "FieldIdeal":
        vecs = []
        for g in gens:
            if isinstance(g, (int, Fraction)):
                vecs.append(self.from_int(g))
            else:
                vecs.append(self.el(g))
        rows = []
        for v in vecs:
            rows.extend(self.rep_rows(v))
        return _canonical_ideal(self, rows)

    def primes_above(self, p: int) -> list[tuple["FieldIdeal", int, int]]:
        """Complete factorization data of pO: list of (P, f, e), sorted by
        (norm, basis).

        O = Z[omega] is monogenic, so Dedekind-Kummer reads the primes off
        the roots of x^2 - t1 x - t0 mod p: two roots x give (p, omega - x)
        with f = e = 1, a double root e = 2, and no root leaves pO prime
        with f = 2.  For odd p the roots are (t1 +- sqrt D)/2, D a square
        mod p by Euler's criterion; at p = 2 both residues are tried.  The
        degree sum and the product with multiplicities are checked.
        """
        if p in self._primes_cache:
            return self._primes_cache[p]
        if p == 2:
            roots = [x for x in (0, 1) if (x * x - self.t1 * x - self.t0) % 2 == 0]
        elif self.disc % p and pow(self.disc, (p - 1) // 2, p) != 1:
            roots = []
        else:
            r, half = sqrt_mod(self.disc, p), (p + 1) // 2
            roots = {(self.t1 + r) * half % p, (self.t1 - r) * half % p}
        out = [(self.ideal(p, (-x, 1)), 1, 3 - len(roots)) for x in roots]
        out = out or [(self.ideal(p), 2, 1)]
        out.sort(key=lambda t: (p ** t[1], t[0].rows))
        if sum(f * e for _, f, e in out) != self.degree:
            raise ArithmeticError("prime factorization of p has the wrong degree")
        prod = self.unit_ideal()
        for ideal, _, e in out:
            prod = prod * ideal**e
        if prod != self.ideal(p):
            raise ArithmeticError("prime factorization of p does not multiply back")
        self._primes_cache[p] = out
        return out

    def primes_by_norm(self) -> Iterator["PrimeIdeal"]:
        """Every prime ideal, in (norm, HNF rows) order, without end.

        The rational primes are factored one at a time.  A prime above
        p has norm p or p^2, and every prime of norm below p lies above
        a rational prime below p, so the buffered primes of norm below p
        are final and leave before p is factored.
        """
        heap = []
        p = 2
        while True:
            while heap and heap[0][0] < p:
                yield heapq.heappop(heap)[2]
            for ideal, f, e in self.primes_above(p):
                heapq.heappush(heap, (p**f, ideal.rows, PrimeIdeal(ideal, p, f, e)))
            p = next_prime(p)

    def prime_ideals_up_to(self, bound: int) -> list["PrimeIdeal"]:
        return list(itertools.takewhile(lambda pr: pr.norm <= bound, self.primes_by_norm()))

    # -- principality ----------------------------------------------------

    def principal_generator(self, a: "FieldIdeal"):
        """A generator of a, or None (certified) if a is not principal,
        from the continued fraction of a (_search_generator).  Each ideal
        is walked once: the answer is kept by its canonical (rows, den).
        """
        key = (a.rows, a.den)
        if key not in self._generators:
            self._generators[key] = self._search_generator(a)
        return self._generators[key]

    def _search_generator(self, a: "FieldIdeal"):
        """The continued fraction walk of principal_generator.

        The numerator of a is c p, c its content and p = Z A + Z (x + omega)
        primitive, so p = A (Z + Z theta), theta = (2x + t1 + sqrt D)/(2A).
        Equivalent quadratic irrationals share the tails of their continued
        fractions (Lagrange), so p is principal exactly when some complete
        quotient theta_k = +-(omega + m), |Q_k| = 2; then p = (A/lam) O for
        lam = q_(k-1) theta_k + q_(k-2).  The walk is eventually periodic,
        so a repeated (P_k, Q_k) certifies None.  Certificate: the
        generator lies in p and has norm +-A.
        """
        (r0, r1), (_, r2) = a.rows
        c = gcd(r0, r1, r2)
        r0, r1, r2 = r0 // c, r1 // c, r2 // c
        A = r0 * r2
        # u (r0, r1) + v (0, r2) = (u r0, 1) for u = 1/r1 mod r2
        x = pow(r1, -1, r2) * r0 % A
        seen = set()
        for P, Q, q1, q2 in _continued_fraction(self.disc, 2 * x + self.t1, 2 * A):
            if Q in (2, -2):
                s, m = Q // 2, (P - self.t1) // 2
                g = self.smul(A, self.inv((s * q1 * m + q2, s * q1)))
                # g0 + g1 omega = g1 (x + omega) + g0 - x g1 is in p when A | g0 - x g1
                inside = self.is_integral(g) and (g[0] - x * g[1]) % A == 0
                if not inside or abs(self.norm(g)) != A:
                    raise ArithmeticError("continued fraction gives no generator of the ideal")
                return self.smul(Fraction(c, a.den), g)
            if (P, Q) in seen:
                return None
            seen.add((P, Q))

    def narrowly_principal_generator(self, a: "FieldIdeal"):
        """A totally positive generator, or None.

        The generator of principal_generator times one of +-1, +-eps, the
        units modulo squares, if one is totally positive.  None with a
        principal ideal is a certificate that the class of a in the narrow
        class group is the nontrivial coset cut out by unit signs; None
        otherwise certifies non-principality outright.  Kept per ideal, as
        in principal_generator.
        """
        key = (a.rows, a.den)
        if key not in self._positive_generators:
            g = self.principal_generator(a)
            if g is not None:
                ge = self.mul(g, self.fundamental_units[0])
                signed = (g, ge, self.neg(g), self.neg(ge))
                g = next((x for x in signed if self.is_totally_positive(x)), None)
            self._positive_generators[key] = g
        return self._positive_generators[key]

    # -- class data --------------------------------------------------------

    def class_of(self, a: "FieldIdeal") -> int:
        """Index of the class of a in class_reps (_class_index).  The last
        class is the one left when no other matches: it needs no test."""
        return _class_index(a, self._class_inverses[:-1], self.principal_generator)

    def narrow_class(self, a: "FieldIdeal") -> int:
        """Index of the narrow class of a in narrow_reps, as in class_of.

        Kept per ideal, as in principal_generator: every consumer asks
        here, so each ideal is tested once.
        """
        key = (a.rows, a.den)
        if key not in self._narrow_classes:
            self._narrow_classes[key] = _class_index(
                a, self._narrow_inverses[:-1], self.narrowly_principal_generator
            )
        return self._narrow_classes[key]

    def __repr__(self):
        return f"FieldCtx({self.name}, degree {self.degree}, disc {self.disc})"


class FieldIdeal:
    """Fractional ideal as a canonical integer HNF basis over a denominator.

    The lattice is the Z-span of rows/den; gcd of all entries and den is 1
    and den > 0, so equal ideals compare equal componentwise.  Stability
    under the ring is guaranteed by the constructors, which only build
    O-module spans.
    """

    __slots__ = ("field", "rows", "den", "_norm")

    def __init__(self, field: FieldCtx, rows, den: int):
        self.field = field
        self.rows = tuple(tuple(int(c) for c in r) for r in rows)
        self.den = int(den)
        self._norm = None

    def norm(self) -> Fraction:
        if self._norm is None:
            det = self.rows[0][0] * self.rows[1][1]
            self._norm = Fraction(abs(det), self.den ** 2)
        return self._norm

    def contains(self, vec) -> bool:
        den, rows = integral_rows([vec])
        return lattice_coords(inverse_rows(self.rows), self.den, rows, den) is not None

    def divides(self, other: "FieldIdeal") -> bool:
        return lattice_coords(inverse_rows(self.rows), self.den, other.rows, other.den) is not None

    def __mul__(self, other):
        """Product with an ideal, on integer rows (x * y is x times the rows
        of multiplication by y), or with the ideal of an element or rational."""
        F = self.field
        if isinstance(other, (tuple, list, int, Fraction)):
            other = F.ideal(other)
        if not isinstance(other, FieldIdeal):
            return NotImplemented
        rows = []
        for y in other.rows:
            rows += int_product(self.rows, F.rep_rows(y))
        return FieldIdeal(F, *canonical_lattice(rows, self.den * other.den, F.degree))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FieldIdeal":
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.unit_ideal()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def inverse(self) -> "FieldIdeal":
        """The fractional inverse {x : x * a within O}, via an integral
        preimage of the stacked multiplication matrices."""
        F = self.field
        reps = [F.rep_rows(r) for r in self.rows]
        mat = [[c for rows in reps for c in rows[k]] for k in range(F.degree)]
        return FieldIdeal(F, *canonical_lattice(*integral_preimage_rows(mat, self.den), F.degree))

    def valuation(self, prime: "FieldIdeal") -> int:
        pinv = prime.inverse()
        num = FieldIdeal(self.field, self.rows, 1)
        v = 0
        cur = num
        while prime.divides(cur):
            cur = cur * pinv
            v += 1
        if self.den != 1:
            dv = 0
            cur = self.field.ideal(self.den)
            while prime.divides(cur):
                cur = cur * pinv
                dv += 1
            v -= dv
        return v

    def factor(self) -> list[tuple["FieldIdeal", int]]:
        """Prime factorization, checked by product.

        Fractional ideals factor too, with negative exponents; the support
        is read off the numerator lattice and the denominator separately
        because valuations can cancel in the norm.
        """
        num_norm = int(FieldIdeal(self.field, self.rows, 1).norm())
        support = set(factor_int(num_norm)) | set(factor_int(self.den))
        out = []
        check = self.field.unit_ideal()
        for p in sorted(support):
            for prime, _f, _e in self.field.primes_above(p):
                v = self.valuation(prime)
                if v:
                    out.append((prime, v))
                    check = check * prime**v
        if check != self:
            raise ArithmeticError("factorization does not multiply back")
        return out

    def __eq__(self, other):
        if not isinstance(other, FieldIdeal):
            return NotImplemented
        return self.field is other.field and self.rows == other.rows and self.den == other.den

    def __hash__(self):
        return hash((self.rows, self.den))

    def __repr__(self):
        if self.den == 1:
            return f"FieldIdeal({list(map(list, self.rows))})"
        return f"FieldIdeal({list(map(list, self.rows))}/{self.den})"


def _canonical_ideal(F: FieldCtx, rows) -> FieldIdeal:
    """Canonical (HNF rows, minimal denominator) form of a Q-spanning set."""
    den, int_rows = integral_rows(rows)
    return FieldIdeal(F, *canonical_lattice(int_rows, den, F.degree))


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime with its residue degree and ramification index."""

    ideal: FieldIdeal
    p: int
    f: int
    e: int

    @property
    def norm(self) -> int:
        return self.p**self.f


# -- quadratic construction ------------------------------------------------


def make_quadratic_field(d: int) -> FieldCtx:
    """The real quadratic field Q(sqrt d), d squarefree and > 1.

    Basis (1, omega) with omega = (1+sqrt d)/2 when d = 1 mod 4 and
    omega = sqrt d otherwise.  All invariants are computed; classes are
    told apart by the continued fraction walk of principal_generator.

    The primes of norm at most sqrt(disc)/2 generate Cl(F) (Minkowski);
    those the closure kept and the kernel of Cl+ -> Cl generate Cl+(F).
    The kernel is trivial if the fundamental unit has norm -1, and else
    generated by (sqrt d), whose generators all have mixed signs.
    Certificates, each raising ArithmeticError: every class holds an
    integral ideal of norm at most sqrt(disc)/2, so h is at most the
    number of these ideals and h+ at most 2 h (_class_group); and
    h+ = h |kernel|.
    """
    F = FieldCtx(d)
    F.fundamental_units = [F.el(_fundamental_unit_quadratic(d))]
    F.zeta_minus_one = siegel_zeta_quadratic(F.disc)
    bound = isqrt(F.disc) // 2
    primes = F.prime_ideals_up_to(bound)
    # the norms of the integral ideals of norm <= bound, prime by prime
    norms = [1]
    for pr in primes:
        powers = [pr.norm**k for k in range(1, bound.bit_length()) if pr.norm**k <= bound]
        norms += [n * q for n in norms for q in powers if n * q <= bound]
    F.class_reps, F._class_inverses, _, joined = _class_group(
        F, [pr.ideal for pr in primes], F.principal_generator, len(norms)
    )
    # sqrt d is 2 omega - 1 when d = 1 mod 4 and omega otherwise
    kernel = [F.ideal((-1, 2) if F.t1 else (0, 1))] if F.norm(F.fundamental_units[0]) == 1 else []
    F.narrow_reps, F._narrow_inverses, F.narrow_mul, _ = _class_group(
        F, F.class_reps[1:joined] + kernel, F.narrowly_principal_generator, 2 * len(F.class_reps)
    )
    F.class_number, F.narrow_class_number = len(F.class_reps), len(F.narrow_reps)
    if F.narrow_class_number != F.class_number * 2 ** len(kernel):
        raise ArithmeticError("narrow class number is not h times the sign kernel")
    log.debug("class numbers %d, %d for %s", F.class_number, F.narrow_class_number, F.name)
    return F


def _class_index(a: FieldIdeal, inverses, generator) -> int:
    """The first i with a generator of a * inverses[i], else len(inverses),
    the index a new class would take.  A fractional a is replaced by its
    numerator, a totally positive integer multiple in the same class."""
    a = FieldIdeal(a.field, a.rows, 1)
    hits = (i for i, r in enumerate(inverses) if generator(a * r) is not None)
    return next(hits, len(inverses))


def _class_group(F: FieldCtx, pool, generator, limit):
    """(reps, inverses, mul, joined) of the class group that pool generates,
    under principal_generator or narrowly_principal_generator.

    reps[0] is the unit ideal, reps[1:joined] the pool ideals met in a new
    class.  Each pair of representatives, in the order (1, 1), (2, 1),
    (2, 2), (3, 1), ..., is multiplied once and looked up (_class_index),
    and a product in no known class joins, so mul[i][j] is the class of
    reps[i] * reps[j] and the classes close.  Certificate: at most limit
    classes join, else ArithmeticError."""
    reps, inverses, table = [], [], {}

    def join(a):
        if len(reps) == limit:
            raise ArithmeticError("more classes than the class number bound")
        table[0, len(reps)] = table[len(reps), 0] = len(reps)
        reps.append(a)
        inverses.append(a.inverse())

    join(F.unit_ideal())
    for a in pool:
        if _class_index(a, inverses, generator) == len(reps):
            join(a)
    joined = len(reps)
    for i, a in enumerate(reps):  # reps grows while it is walked
        for j in range(1, i + 1):
            c = a * reps[j]
            table[i, j] = table[j, i] = k = _class_index(c, inverses, generator)
            if k == len(reps):
                join(c)
    n = len(reps)
    return reps, inverses, [[table[i, j] for j in range(n)] for i in range(n)], joined


def field_from_spec(spec: str) -> FieldCtx:
    """Parse a field name like "quad:85"."""
    if spec.startswith("quad:"):
        return make_quadratic_field(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown field spec {spec!r}")
