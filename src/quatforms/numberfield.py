"""Real quadratic fields Q(sqrt d) over the integral basis (1, omega).

A field context carries the relation omega^2 = t0 + t1 omega, the
discriminant D, and everything downstream needs exactly: signs at the
two real embeddings, the trace form, the fundamental unit, the primes,
class and narrow class data, and the value of the Dedekind zeta
function at -1.

make_quadratic_field computes every invariant from scratch.  One
continued fraction walk gives the unit, from one period of the reduced
omega + m, certified by its norm +-1.  Cl(F) and Cl+(F) are the cycles
of the reduced (P, Q) of D (Buchmann-Vollmer, Binary Quadratic Forms),
and one walk per ideal, kept on the context, runs into the cycle of its
class: it gives a generator, certified by norm and membership, or None,
and the class, a class being the index of its representative.  zeta(-1)
is the finite divisor sum.  The primes above p are the roots of x^2 -
t1 x - t0 mod p (Dedekind-Kummer), and the norm of the fundamental unit
decides the totally positive units and the kernel of Cl+(F) -> Cl(F).

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
    Cl+(F).  Generators and classes are read off one continued fraction
    walk per ideal (_cycle_walk), kept by canonical (rows, den), so
    callers ask for them where they need them.
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
        self._class_keys = {}  # wide key -> index into class_reps
        self._narrow_keys = {}  # narrow key -> index into narrow_reps
        self._primes_cache = {}
        self._walks = {}  # (rows, den) -> _cycle_walk
        self._positive_generators = {}  # (rows, den) -> narrowly_principal_generator

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
        """A generator of a, or None (certified) if a is not principal."""
        return self._walk(a)[0]

    def _walk(self, a: "FieldIdeal"):
        """_cycle_walk of a, kept by canonical (rows, den): one per ideal."""
        key = (a.rows, a.den)
        if key not in self._walks:
            self._walks[key] = self._cycle_walk(a)
        return self._walks[key]

    def _cycle_walk(self, a: "FieldIdeal"):
        """(generator or None, narrow key, wide key) of a.

        The numerator of a is c p, c its content and p = Z A + Z (x + omega)
        primitive, so p = A (Z + Z theta), theta = (2x + t1 + sqrt D)/(2A).
        Z + Z theta_k = theta_k (Z + Z theta_(k-1)) for the complete
        quotients theta_k = (P_k + sqrt D)/Q_k, and N(theta_k) < 0 exactly
        when P_k^2 < D.  Equivalent quadratic irrationals share the tails of
        their continued fractions (Lagrange), so the walk runs into the
        cycle of reduced (P, Q) of the class of a; the wide key is its least
        (P, Q), the narrow key the least reached by a multiplier of positive
        norm, or by either sign when one period flips it.  p is principal
        exactly when some |Q_k| = 2; at the first, p = (A/lam) O for
        lam = q_(k-1) theta_k + q_(k-2).  Certificates, each raising
        ArithmeticError: the generator lies in p and has norm +-A, and the
        walk closes.
        """
        (r0, r1), (_, r2) = a.rows
        c = gcd(r0, r1, r2)
        r0, r1, r2 = r0 // c, r1 // c, r2 // c
        A = r0 * r2
        # u (r0, r1) + v (0, r2) = (u r0, 1) for u = 1/r1 mod r2
        x = pow(r1, -1, r2) * r0 % A
        g, sign, seen = None, 1, {}  # (P, Q) -> sign
        for P, Q, q1, q2 in _continued_fraction(self.disc, 2 * x + self.t1, 2 * A):
            if seen and P * P < self.disc:  # theta_0 carries nothing
                sign = -sign
            if g is None and Q in (2, -2):
                s, m = Q // 2, (P - self.t1) // 2
                g = self.smul(A, self.inv((s * q1 * m + q2, s * q1)))
                # g0 + g1 omega = g1 (x + omega) + g0 - x g1 is in p when A | g0 - x g1
                inside = self.is_integral(g) and (g[0] - x * g[1]) % A == 0
                if not inside or abs(self.norm(g)) != A:
                    raise ArithmeticError("continued fraction gives no generator of the ideal")
                g = self.smul(Fraction(c, a.den), g)
            if (P, Q) in seen:
                cycle = list(seen.items())[list(seen).index((P, Q)):]
                plus = [t for t, sg in cycle if sg > 0 or seen[P, Q] != sign]
                return g, min(plus), min(t for t, _ in cycle)
            seen[P, Q] = sign
        raise ArithmeticError("continued fraction walk ends before its cycle closes")

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
        """Index in class_reps of the class of a, by its walk's key."""
        return self._classes(a)[0]

    def narrow_class(self, a: "FieldIdeal") -> int:
        """Index in narrow_reps of the narrow class of a, by its walk's key."""
        return self._classes(a)[1]

    def _classes(self, a: "FieldIdeal") -> tuple[int, int]:
        _, narrow, wide = self._walk(a)
        if wide not in self._class_keys or narrow not in self._narrow_keys:
            raise ArithmeticError("ideal walks to a cycle of no known class")
        return self._class_keys[wide], self._narrow_keys[narrow]

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

    The reduced (P, Q) of D fall into h cycles (_reduced_cycles), and a
    walk's sign alternates on them, so an odd cycle holds one narrow class
    and an even one two.  narrow_reps is the unit ideal, then the ideal
    Z Q/2 + Z ((P - t1)/2 + omega) of the first state at each parity of
    each cycle, duplicate narrow keys dropped; class_reps the first of
    each wide key (_cycle_walk).  Certificates, each raising
    ArithmeticError: the representatives walk to h wide and sum(2 - len
    mod 2) narrow keys; h+ = h |ker(Cl+ -> Cl)|, the kernel trivial
    exactly when N(eps) = -1; h+ over the number of squares in narrow_mul
    is 2^(t-1), t the number of primes dividing D (genus theory); and
    narrow_mul is a group table with identity row 0.
    """
    F = FieldCtx(d)
    F.fundamental_units = [F.el(_fundamental_unit_quadratic(d))]
    F.zeta_minus_one = siegel_zeta_quadratic(F.disc)
    cycles = _reduced_cycles(F.disc)
    reps = [F.unit_ideal()]
    # the second parity of an odd cycle holds no other narrow class
    reps += [F.ideal(Q // 2, ((P - F.t1) // 2, 1)) for c in cycles for P, Q in c[: 2 - len(c) % 2]]
    narrow, wide = {}, {}
    for a in reps:
        _, n, w = F._walk(a)
        narrow.setdefault(n, a)
        wide.setdefault(w, a)
    h, hp = len(cycles), sum(2 - len(cycle) % 2 for cycle in cycles)
    if (len(wide), len(narrow)) != (h, hp):
        raise ArithmeticError("class representatives do not walk to one key per class")
    if hp != h * (1 if F.norm(F.fundamental_units[0]) == -1 else 2):
        raise ArithmeticError("narrow class number is not h times the sign kernel")
    F.class_reps, F.narrow_reps = list(wide.values()), list(narrow.values())
    F.class_number, F.narrow_class_number = h, hp
    F._class_keys = {w: i for i, w in enumerate(wide)}
    F._narrow_keys = {n: i for i, n in enumerate(narrow)}
    mul = F.narrow_mul = [[F.narrow_class(a * b) for b in F.narrow_reps] for a in F.narrow_reps]
    ids = list(range(hp))
    if hp != len({mul[i][i] for i in ids}) << (len(factor_int(F.disc)) - 1):
        raise ArithmeticError("narrow class group fails the genus count 2^(t-1)")
    if mul[0] != ids or any(sorted(row) != ids or row[0] != i for i, row in enumerate(mul)) or any(
        mul[mul[i][j]][k] != mul[i][mul[j][k]] for i in ids for j in ids for k in ids
    ):
        raise ArithmeticError("narrow class table is not a group with identity 0")
    log.debug("class numbers %d, %d for %s", h, hp, F.name)
    return F


def _reduced_cycles(D: int) -> list[list[tuple[int, int]]]:
    """The reduced (P, Q) of D in cycles under the continued fraction
    step, each from its least state: 0 < P < sqrt D, sqrt D - P < Q <
    sqrt D + P, Q = 2a and a | (D - P^2)/4, compared on r = isqrt(D).
    Reduced quadratic irrationals have purely periodic continued
    fractions and are equivalent exactly when they share a cycle, and
    for a fundamental D every form is primitive, so the cycles are the
    classes of Cl(F).  Certificate: each cycle closes, else
    ArithmeticError."""
    r = isqrt(D)
    left = {
        (P, 2 * a)
        for P in range(2 - D % 2, r + 1, 2)
        for a in range((r - P) // 2 + 1, (r + P) // 2 + 1)
        if (D - P * P) // 4 % a == 0
    }
    cycles = []
    while left:
        start, cycle = min(left), []
        for P, Q, _, _ in _continued_fraction(D, *start):
            if (P, Q) not in left:
                break
            left.remove((P, Q))
            cycle.append((P, Q))
        if (P, Q) != start:
            raise ArithmeticError("reduced forms do not close into a cycle")
        cycles.append(cycle)
    return cycles


def field_from_spec(spec: str) -> FieldCtx:
    """Parse a field name like "quad:85"."""
    if spec.startswith("quad:"):
        return make_quadratic_field(int(spec.split(":", 1)[1]))
    raise ValueError(f"unknown field spec {spec!r}")
