"""Real quadratic fields Q(sqrt d) over the integral basis (1, omega).

A field context carries the relation omega^2 = t0 + t1 omega, the
discriminant D, and everything downstream needs exactly: signs at the
two real embeddings, the trace form, the fundamental unit, the primes,
class and narrow class data, and the value of the Dedekind zeta
function at -1.

make_quadratic_field computes every invariant from scratch: the unit from
one period of the continued fraction of the reduced omega + m over
Z[omega] itself, certified by its norm +-1, the class group by
enumerating primes below the Minkowski bound with a certified
short-vector principality test, zeta(-1) by the finite divisor sum.  The
rest is in closed form for a quadratic field: the primes above p come
from x^2 - t1 x - t0 mod p by Dedekind-Kummer, and the norm of the
fundamental unit decides the totally positive units and the kernel of
the map from the narrow class group onto the class group.

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
from math import isqrt

from .arith import factor_int, next_prime
from .intmat import (
    canonical_lattice,
    int_product,
    integral_preimage_rows,
    integral_rows,
    inverse_rows,
    lattice_coords,
)
from .latticetools import fincke_pohst
from .polynomials import factor_mod_p

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


def _period_quotients(D: int, P: int) -> list[int]:
    """One period of partial quotients of the purely periodic continued
    fraction of a reduced (P + sqrt D)/2, with 2 dividing D - P^2.

    Every complete quotient (P' + sqrt D)/Q' is reduced, and the reduced
    P for Q' = 2 is the one integer of the parity of D in (sqrt D - 2,
    sqrt D), so the period closes when Q' returns to 2.
    """
    r, Q = isqrt(D), 2
    out = []
    while True:
        out.append((P + r) // Q)
        P = out[-1] * Q - P
        Q = (D - P * P) // Q
        if Q == 2:
            return out


def _fundamental_unit_quadratic(d: int) -> tuple[int, int]:
    """Coordinates over (1, omega) of the fundamental unit eps > 1.

    x_0 = omega + m, m = floor((sqrt D - t1)/2), is reduced and Z[x_0] =
    Z[omega].  With q_k the convergent denominators of its period of
    length l, eps = q_(l-1) x_0 + q_(l-2) (Buchmann-Vollmer, Binary
    Quadratic Forms, the cycle of reduced forms).  Certified by N(eps) = +-1.
    """
    F = FieldCtx(d)
    D, t1 = F.disc, F.t1
    m = (isqrt(D) - t1) // 2
    q_prev, q = 1, 0
    for a in _period_quotients(D, t1 + 2 * m):
        q_prev, q = q, a * q + q_prev
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
    make_quadratic_field, which computes and certifies each of them.
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
        self.narrow_gens: list[FieldIdeal] = []
        self.narrow_class_number: int | None = None
        self._primes_cache = {}
        self._generators = {}  # (rows, den) -> principal_generator

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
        the factors of x^2 - t1 x - t0 mod p: a linear factor x + c of
        multiplicity e gives (p, c + omega) with f = 1, and an irreducible
        quadratic leaves pO prime with f = 2.  The degree sum and the
        product with multiplicities are checked.
        """
        if p in self._primes_cache:
            return self._primes_cache[p]
        out = []
        for q, e in factor_mod_p([-self.t0, -self.t1, 1], p):
            if len(q) == 2:
                out.append((self.ideal(p, (q[0], 1)), 1, e))
            else:
                out.append((self.ideal(p), 2, e))
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

    def _generator_bound(self, norm_int: int) -> int:
        # If the lattice is principal, some generator, unit-balanced by
        # rounding its log embeddings against the fundamental unit
        # eps = u + v sqrt d, has trace of square at most 2 N M, where
        # M = |u| + |v| sqrt d bounds |eps| and |1/eps| at both
        # embeddings.  With eps = (a + b sqrt D)/2, 2 N M is
        # N |a| + sqrt(N^2 b^2 D), rounded up here exactly.
        (eps,) = self.fundamental_units
        a = int(2 * eps[0] + self.t1 * eps[1])
        s = norm_int * norm_int * int(eps[1]) ** 2 * self.disc
        r = isqrt(s)
        return norm_int * abs(a) + r + (r * r != s) + 1

    def principal_generator(self, a: "FieldIdeal"):
        """A generator of a, or None (certified) if a is not principal.

        Each ideal is searched once: the answer is kept by its canonical
        (rows, den).
        """
        key = (a.rows, a.den)
        if key not in self._generators:
            self._generators[key] = self._search_generator(a)
        return self._generators[key]

    def _search_generator(self, a: "FieldIdeal"):
        """The short vector search of principal_generator."""
        rows = [self.el(r) for r in a.rows]
        target = abs(a.rows[0][0] * a.rows[1][1])
        bound = self._generator_bound(target)
        # traces of integral elements: integers, as fincke_pohst takes them
        gram = [[int(self.trace(self.mul(bi, bj))) for bj in rows] for bi in rows]
        for coords, _val in fincke_pohst(gram, bound):
            x = self.zero
            for c, b in zip(coords, rows):
                if c:
                    x = self.add(x, self.smul(c, b))
            if abs(self.norm(x)) == target:
                return tuple(c / a.den for c in x)
        return None

    def narrowly_principal_generator(self, a: "FieldIdeal"):
        """A totally positive generator, or None.

        None with a principal ideal is a certificate that the class of a
        in the narrow class group is the nontrivial coset cut out by unit
        signs; None otherwise certifies non-principality outright.
        """
        g = self.principal_generator(a)
        if g is None:
            return None
        (eps,) = self.fundamental_units
        ge = self.mul(g, eps)
        for x in (g, ge, self.neg(g), self.neg(ge)):
            if self.is_totally_positive(x):
                return x
        return None

    # -- class data --------------------------------------------------------

    def class_of(self, a: "FieldIdeal") -> int:
        for i, r in enumerate(self.class_reps):
            if self.principal_generator(a * r.inverse()) is not None:
                return i
        raise ValueError("ideal class not matched by stored representatives")

    def narrow_dlog(self, a: "FieldIdeal") -> tuple[int, ...]:
        """Exponents of a's narrow class over narrow_gens (all order 2)."""
        if not self.narrow_gens:
            return ()  # narrow class number 1: every ideal is narrowly principal
        if a.den != 1:
            a = FieldIdeal(self, a.rows, 1)  # positive integer scaling is totally positive
        bits = self._narrow_bits(a, self.narrow_gens)
        if bits is None:
            raise ValueError("ideal class outside the stored narrow class group")
        return bits

    def _narrow_bits(self, a: "FieldIdeal", gens) -> tuple[int, ...] | None:
        """The lexicographically first b in {0, 1}^k with a * prod gens[i]^b[i]
        narrowly principal, or None."""
        for bits in itertools.product((0, 1), repeat=len(gens)):
            c = a
            for g, b in zip(gens, bits):
                if b:
                    c = c * g
            if self.narrowly_principal_generator(c) is not None:
                return bits
        return None

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
    omega = sqrt d otherwise.  All invariants are computed.
    """
    F = FieldCtx(d)
    F.fundamental_units = [F.el(_fundamental_unit_quadratic(d))]
    F.zeta_minus_one = siegel_zeta_quadratic(F.disc)
    _attach_class_data_by_search(F)
    _attach_narrow_data(F)
    return F


def _attach_class_data_by_search(F: FieldCtx):
    """Class group by Minkowski-bound prime enumeration and closure.

    Every class contains an integral ideal of norm at most sqrt(disc)/2,
    hence a product of primes of norm below that bound; matching each
    pool prime and each product of found classes against the certified
    principality test closes the group.
    """
    pool = [pr.ideal for pr in F.prime_ideals_up_to(isqrt(F.disc) // 2)]
    reps = [F.unit_ideal()]

    def known(c):
        return any(F.principal_generator(c * r.inverse()) is not None for r in reps)

    for prime in pool:
        if not known(prime):
            reps.append(prime)
    while True:
        new = None
        for a, b in itertools.product(reps[1:], repeat=2):
            c = a * b
            if not known(c):
                new = FieldIdeal(F, c.rows, 1)
                break
        if new is None:
            break
        reps.append(new)
    F.class_reps = reps
    F.class_number = len(reps)
    log.debug("class number %d for %s", len(reps), F.name)


def _attach_narrow_data(F: FieldCtx):
    """Narrow class generators; the group must be 2-elementary.

    Cl+ -> Cl is onto, and its kernel holds the narrow classes of the
    principal ideals.  When the fundamental unit has norm -1 some
    generator of every principal ideal is totally positive, so the kernel
    is trivial.  Otherwise it has order 2 and is generated by (sqrt d),
    all of whose generators have mixed signs.  The greedy generator
    search is cross-checked against h * |kernel|.
    """
    (eps,) = F.fundamental_units
    kernel_ideals = []
    if F.norm(eps) == 1:
        # sqrt d is 2 omega - 1 when d = 1 mod 4 and omega otherwise
        kernel_ideals.append(F.ideal((-1, 2) if F.t1 else (0, 1)))
    expected = F.class_number * 2 ** len(kernel_ideals)
    gens = []
    for cand in F.class_reps[1:] + kernel_ideals:
        cand = FieldIdeal(F, cand.rows, 1)
        if F._narrow_bits(cand, gens) is None:
            gens.append(cand)
    h_plus = 2 ** len(gens)
    if h_plus != expected:
        raise ValueError("narrow class group is not 2-elementary or data inconsistent")
    for g in gens:
        if F.narrowly_principal_generator(g * g) is None:
            raise ValueError("narrow class generator does not have order 2")
    F.narrow_gens = gens
    F.narrow_class_number = h_plus


def field_from_spec(spec: str) -> FieldCtx:
    """Parse a field name like "quad:85"."""
    if spec.startswith("quad:"):
        return make_quadratic_field(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown field spec {spec!r}")
