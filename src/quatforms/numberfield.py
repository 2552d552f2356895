"""Totally real number fields presented by an integral basis.

A field context carries an integral basis with an integer multiplication
table and everything downstream needs exactly: refinable real embeddings,
the trace form, fundamental units, class and narrow class data, and the
value of the Dedekind zeta function at -1.

The fields built are real quadratic (make_quadratic_field), with every
invariant computed from scratch: units by continued fractions, the class
group by enumerating primes below the Minkowski bound with a certified
short-vector principality test, zeta(-1) by the finite divisor sum.

Elements are plain coordinate tuples of Fractions over the integral
basis, whose first element must be 1.  Embeddings go through a primitive
element: its minimal polynomial is computed exactly, the real roots are
isolated once and cached, and every embedding value is a polynomial
evaluated on a refinable isolating interval.  Sign decisions are exact.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import factor_int, next_prime
from .intervals import Iv, eval_poly_interval, sign_at_root
from .intmat import hnf_coords, hnf_rows, integral_preimage_rows
from .latticetools import fincke_pohst, iroot, nth_root_interval
from .matrices import Matrix
from .polynomials import Poly, factor_poly, isolate_real_roots, refine_root

log = logging.getLogger(__name__)

DEFAULT_WIDTH = Fraction(1, 2**24)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _ceil_frac(x: Fraction) -> int:
    x = Fraction(x)
    return -((-x.numerator) // x.denominator)


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


def _pell(d: int) -> tuple[int, int]:
    """Smallest (x, y), y > 0, with x^2 - d y^2 = 1 or -1, via the
    continued fraction of sqrt(d)."""
    a0 = isqrt(d)
    assert a0 * a0 != d
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while p * p - d * q * q not in (1, -1):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return p, q


def _half_mul(d: int, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    # product of (x + y sqrt d)/2 representatives; parity keeps it integral
    x = u[0] * v[0] + d * u[1] * v[1]
    y = u[0] * v[1] + u[1] * v[0]
    assert x % 2 == 0 and y % 2 == 0
    return x // 2, y // 2


def _fundamental_unit_quadratic(d: int) -> tuple[int, int]:
    """Coordinates of the fundamental unit over the basis (1, omega)."""
    x0, y0 = _pell(d)
    if d % 4 != 1:
        return x0, y0
    # O may contain a unit of half-integer coordinates; the smallest
    # solution of X^2 - d Y^2 = +-4 is fundamental.  Its Y is at most a
    # little over twice the cube root of the Z[sqrt d] unit.
    cb = iroot(x0 + y0 * (isqrt(d) + 1), 3) + 2
    ymax = (2 * (cb + 1)) // isqrt(d) + 2
    found = None
    for y in range(1, ymax + 1):
        xs = []
        for s in (-4, 4):
            x2 = d * y * y + s
            if x2 > 0:
                x = isqrt(x2)
                if x * x == x2 and (x - y) % 2 == 0:
                    xs.append(x)
        if xs:
            found = (min(xs), y)
            break
    whole = (2 * x0, 2 * y0)
    if found is None or found == whole:
        u = whole
    else:
        u = found
        cube = _half_mul(d, _half_mul(d, u, u), u)
        assert cube == whole, "unit index check failed"
    x, y = u
    return (x - y) // 2, y


class FieldCtx:
    """Immutable context for a totally real field of even degree.

    Field elements everywhere are coordinate tuples over the integral
    basis.  The multiplication table is validated on construction
    (identity first, commutative, associative, trace form of the stated
    discriminant, irreducible primitive element with all roots real).

    Class data, units and zeta(-1) are attached by make_quadratic_field,
    which computes and certifies each of them.
    """

    def __init__(self, mult_table, disc: int, *, name: str):
        n = len(mult_table)
        if n < 2 or n % 2 != 0:
            raise ValueError("degree must be even and at least 2")
        table = tuple(
            tuple(tuple(int(c) for c in cell) for cell in row) for row in mult_table
        )
        if any(len(row) != n or any(len(cell) != n for cell in row) for row in table):
            raise ValueError("multiplication table has wrong shape")
        self.degree = n
        self.mult_table = table
        self.name = name
        self.disc = int(disc)
        self.one = tuple(_ONE if i == 0 else _ZERO for i in range(n))
        self.zero = tuple(_ZERO for _ in range(n))
        self._validate_table()
        self._init_embeddings()
        gram = [[self.trace(self.mul(self._basis(i), self._basis(j))) for j in range(n)]
                for i in range(n)]
        if Matrix(gram).det() != self.disc:
            raise ValueError("discriminant does not match the trace form")
        # attached by factories
        self.fundamental_units: list[tuple] = []
        self.zeta_minus_one: Fraction | None = None
        self.class_reps: list[FieldIdeal] = []
        self.class_number: int | None = None
        self.narrow_gens: list[FieldIdeal] = []
        self.narrow_class_number: int | None = None
        self._tpu = None
        self._unit_bounds = {}
        self._primes_cache = {}

    # -- basic element arithmetic ------------------------------------

    def _basis(self, i: int) -> tuple:
        return tuple(_ONE if j == i else _ZERO for j in range(self.degree))

    def el(self, seq) -> tuple:
        v = tuple(Fraction(c) for c in seq)
        if len(v) != self.degree:
            raise ValueError("wrong coordinate length")
        return v

    def from_int(self, m) -> tuple:
        return tuple(Fraction(m) if i == 0 else _ZERO for i in range(self.degree))

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
        n = self.degree
        out = [_ZERO] * n
        table = self.mult_table
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                cell = row[j]
                for k in range(n):
                    if cell[k]:
                        out[k] += c * cell[k]
        return tuple(out)

    def el_pow(self, x, k: int) -> tuple:
        assert k >= 0
        out = self.one
        for _ in range(k):
            out = self.mul(out, x)
        return out

    def rep_rows(self, x) -> list[list[Fraction]]:
        """Rows of multiplication by x: row i is e_i * x."""
        n = self.degree
        table = self.mult_table
        rows = []
        for i in range(n):
            acc = [_ZERO] * n
            for j, xj in enumerate(x):
                if not xj:
                    continue
                cell = table[i][j]
                for k in range(n):
                    if cell[k]:
                        acc[k] += xj * cell[k]
            rows.append(acc)
        return rows

    def trace(self, x) -> Fraction:
        return sum((xj * t for xj, t in zip(x, self._trace_vec)), _ZERO)

    def norm(self, x) -> Fraction:
        return Matrix(self.rep_rows(x)).det()

    def inv(self, x) -> tuple:
        cols = Matrix(self.rep_rows(x)).transpose()
        sol = cols.solve_right(list(self.one))
        if sol is None:
            raise ZeroDivisionError("element is not invertible")
        return tuple(sol)

    def is_integral(self, x) -> bool:
        return all(Fraction(c).denominator == 1 for c in x)

    # -- embeddings ---------------------------------------------------

    def _validate_table(self):
        n = self.degree
        basis = [self._basis(i) for i in range(n)]
        for j in range(n):
            if self.mult_table[0][j] != tuple(int(i == j) for i in range(n)):
                raise ValueError("first basis element must act as the identity")
        for i in range(n):
            for j in range(i + 1, n):
                if self.mult_table[i][j] != self.mult_table[j][i]:
                    raise ValueError("multiplication table is not commutative")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    left = self.mul(self.mul(basis[i], basis[j]), basis[k])
                    right = self.mul(basis[i], self.mul(basis[j], basis[k]))
                    if left != right:
                        raise ValueError("multiplication table is not associative")
        self._trace_vec = []
        for j in range(n):
            t = _ZERO
            for i in range(n):
                t += self.mult_table[i][j][i]
            self._trace_vec.append(t)

    def _init_embeddings(self):
        n = self.degree
        theta, powers = self._find_primitive()
        self._theta = theta
        sol = Matrix(powers[:n]).transpose().solve_right(list(powers[n]))
        coeffs = [-c for c in sol] + [_ONE]
        mp = Poly(coeffs)
        if any(c.denominator != 1 for c in mp.coeffs):
            raise ValueError("primitive element is not integral")
        _, factors = factor_poly(mp)
        if len(factors) != 1 or factors[0][1] != 1:
            raise ValueError("multiplication table has zero divisors")
        roots = isolate_real_roots(mp)
        if len(roots) != n:
            raise ValueError("field is not totally real")
        self._minpoly = mp
        self._roots = sorted(roots)
        pw = Matrix(powers[:n]).transpose()
        self._basis_polys = []
        for j in range(n):
            y = pw.solve_right(list(self._basis(j)))
            self._basis_polys.append(tuple(y))

    def _find_primitive(self):
        n = self.degree
        for radius in range(1, 5):
            for rev in itertools.product(range(radius + 1), repeat=n - 1):
                if max(rev) != radius:
                    continue
                cand = self.el((0,) + tuple(reversed(rev)))
                powers = [self.one]
                for _ in range(n):
                    powers.append(self.mul(powers[-1], cand))
                if Matrix([list(p) for p in powers[:n]]).rank() == n:
                    return cand, [list(p) for p in powers]
        raise ValueError("no primitive element found in search box")

    def _theta_poly(self, vec) -> Poly:
        n = self.degree
        coeffs = [_ZERO] * n
        for j, c in enumerate(vec):
            if not c:
                continue
            bp = self._basis_polys[j]
            for k in range(n):
                coeffs[k] += Fraction(c) * bp[k]
        return Poly(coeffs)

    def embeddings(self, vec, width: Fraction = DEFAULT_WIDTH) -> list[Iv]:
        """Interval enclosures of the real embeddings, each narrower than
        width, in the fixed (ascending primitive root) order."""
        g = self._theta_poly(vec)
        out = []
        for idx in range(self.degree):
            lo, hi = self._roots[idx]
            while True:
                iv = eval_poly_interval(g, Iv(lo, hi))
                if iv.hi - iv.lo <= width:
                    break
                lo, hi = refine_root(self._minpoly, lo, hi, (hi - lo) / 16)
            self._roots[idx] = (lo, hi)
            out.append(iv)
        return out

    def sign_vector(self, vec) -> tuple[int, ...]:
        g = self._theta_poly(vec)
        return tuple(sign_at_root(g, self._minpoly, r) for r in self._roots)

    def is_totally_positive(self, vec) -> bool:
        return all(s > 0 for s in self.sign_vector(vec))

    # -- units ---------------------------------------------------------

    def totally_positive_units(self) -> list[tuple]:
        """Representatives of the totally positive units modulo squares.

        The exponent vectors v with prod u_i^v_i of constant sign form a
        lattice containing 2Z^r; its image mod 2 is cut out by the sign
        conditions.  Each basis vector of that F_2-space, sign corrected,
        gives one generator g_j, and reps[i] is the product of the g_j
        selected by the binary digits of i.  The reps are pairwise
        distinct modulo squares, reps[0] is 1, and reps[i] * reps[j] is
        reps[i ^ j] times a square.
        """
        if self._tpu is not None:
            return self._tpu
        units = self.fundamental_units
        r = len(units)
        n = self.degree
        srows = [tuple(1 if s < 0 else 0 for s in self.sign_vector(u)) for u in units]
        from .residue import kernel_mod, solve_right_mod, span_basis_mod

        mt = tuple(tuple(srows[j][i] for j in range(r)) for i in range(n))
        gens = list(kernel_mod(mt, 2))
        part = solve_right_mod(mt, tuple([1] * n), 2)
        if part is not None:
            gens.append(part)
        gs = []
        for row in span_basis_mod(gens, 2):
            g = self.one
            for uj, e in zip(units, row):
                if e:
                    g = self.mul(g, uj)
            if all(s < 0 for s in self.sign_vector(g)):
                g = self.neg(g)
            if not self.is_totally_positive(g):
                raise ArithmeticError("unit of constant sign is not totally positive")
            gs.append(g)
        reps = []
        for bits in itertools.product((0, 1), repeat=len(gs)):
            v = self.one
            for g, b in zip(gs, bits):
                if b:
                    v = self.mul(v, g)
            reps.append(v)
        self._tpu = reps
        return reps

    def _unit_magnitude_bound(self, u) -> Fraction:
        """Rational M with 1/M <= |sigma_i(u)| <= M for every embedding."""
        key = tuple(u)
        if key in self._unit_bounds:
            return self._unit_bounds[key]
        width = DEFAULT_WIDTH
        while True:
            ivs = self.embeddings(u, width)
            if all(iv.lo > 0 or iv.hi < 0 for iv in ivs):
                break
            width /= 2**8
        best = _ONE
        for iv in ivs:
            lo, hi = (iv.lo, iv.hi) if iv.lo > 0 else (-iv.hi, -iv.lo)
            best = max(best, hi, _ONE / lo)
        self._unit_bounds[key] = best
        return best

    # -- ideals ---------------------------------------------------------

    def unit_ideal(self) -> "FieldIdeal":
        n = self.degree
        return FieldIdeal(self, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

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

    def principal_ideal(self, x) -> "FieldIdeal":
        return self.ideal(x)

    def primes_above(self, p: int) -> list[tuple["FieldIdeal", int, int]]:
        """Complete factorization data of pO: list of (P, f, e), sorted by
        (norm, basis).  The product with multiplicities is checked."""
        if p in self._primes_cache:
            return self._primes_cache[p]
        from .residue import LatticeQuotient, local_components

        n = self.degree
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        pid = [[p * int(i == j) for j in range(n)] for i in range(n)]
        q = LatticeQuotient(ident, 1, pid, 1, p, self.mul, self.one)
        out = []
        for comp in local_components(q.algebra):
            rows = [list(r) for r in pid]
            for v in comp.res_kernel:
                rows.append([int(c) for c in q.lift(v)])
            ideal = _canonical_ideal(self, rows)
            f = comp.f
            assert comp.algebra.dim % f == 0
            out.append((ideal, f, comp.algebra.dim // f))
        out.sort(key=lambda t: (p ** t[1], t[0].rows))
        assert sum(f * e for _, f, e in out) == n
        prod = self.unit_ideal()
        for ideal, _, e in out:
            prod = prod * ideal**e
        assert prod == self.ideal(p), "prime factorization of p does not multiply back"
        self._primes_cache[p] = out
        return out

    def prime_ideals_up_to(self, bound: int) -> list["PrimeIdeal"]:
        out = []
        p = 2
        while p <= bound:
            for ideal, f, e in self.primes_above(p):
                if p**f <= bound:
                    out.append(PrimeIdeal(ideal, p, f, e))
            p = next_prime(p)
        out.sort(key=lambda pr: (pr.norm, pr.ideal.rows))
        return out

    def residue_field(self, prime: "FieldIdeal"):
        """Quotient O/P as a LatticeQuotient whose algebra is a field."""
        from .residue import LatticeQuotient

        nrm = prime.norm()
        assert prime.den == 1 and nrm.denominator == 1
        fac = factor_int(int(nrm))
        assert len(fac) == 1
        p = next(iter(fac))
        n = self.degree
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        return LatticeQuotient(ident, 1, [list(r) for r in prime.rows], 1, p, self.mul, self.one)

    # -- principality ----------------------------------------------------

    def _generator_bound(self, norm_int: int) -> int:
        # If the lattice is principal, some generator, unit-balanced by
        # Babai rounding on the log embeddings, has trace-of-square at
        # most n * N^(2/n) * prod_j M_j.
        prod = _ONE
        for u in self.fundamental_units:
            prod *= self._unit_magnitude_bound(u)
        root = nth_root_interval(Fraction(norm_int) ** 2, self.degree)
        return _ceil_frac(self.degree * root.hi * prod) + 1

    def principal_generator(self, a: "FieldIdeal"):
        """A generator of a, or None (certified) if a is not principal."""
        rows = [self.el(r) for r in a.rows]
        target = 1
        for i in range(self.degree):
            target *= a.rows[i][i]
        target = abs(target)
        bound = self._generator_bound(target)
        gram = [[self.trace(self.mul(bi, bj)) for bj in rows] for bi in rows]
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
        r = len(self.fundamental_units)
        for sign_bit in (0, 1):
            for bits in itertools.product((0, 1), repeat=r):
                v = self.one
                for u, b in zip(self.fundamental_units, bits):
                    if b:
                        v = self.mul(v, u)
                x = self.mul(g, v)
                if sign_bit:
                    x = self.neg(x)
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
        if a.den != 1:
            a = FieldIdeal(self, a.rows, 1)  # positive integer scaling is totally positive
        k = len(self.narrow_gens)
        for bits in itertools.product((0, 1), repeat=k):
            c = a
            for g, b in zip(self.narrow_gens, bits):
                if b:
                    c = c * g
            if self.narrowly_principal_generator(c) is not None:
                return bits
        raise ValueError("ideal class outside the stored narrow class group")

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

    def basis_vectors(self) -> list[tuple]:
        d = self.den
        return [tuple(Fraction(c, d) for c in r) for r in self.rows]

    def norm(self) -> Fraction:
        if self._norm is None:
            det = 1
            for i in range(len(self.rows)):
                det *= self.rows[i][i]
            self._norm = Fraction(abs(det), self.den ** self.field.degree)
        return self._norm

    def contains(self, vec) -> bool:
        return all(c.denominator == 1 for c in hnf_coords(self.rows, vec, self.den))

    def divides(self, other: "FieldIdeal") -> bool:
        return all(self.contains(v) for v in other.basis_vectors())

    def __mul__(self, other):
        F = self.field
        if isinstance(other, FieldIdeal):
            rows = []
            for x in self.basis_vectors():
                for y in other.basis_vectors():
                    rows.append(F.mul(x, y))
            return _canonical_ideal(F, rows)
        if isinstance(other, (tuple, list)):
            x = F.el(other)
            return _canonical_ideal(F, [F.mul(b, x) for b in self.basis_vectors()])
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return _canonical_ideal(F, [[c * v for v in b] for b in self.basis_vectors()])
        return NotImplemented

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
        n = F.degree
        bs = self.basis_vectors()
        mat = []
        for k in range(n):
            ek = F._basis(k)
            row = []
            for b in bs:
                row.extend(F.mul(ek, b))
            mat.append(row)
        pre = integral_preimage_rows(mat)
        return _canonical_ideal(F, pre)

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
        assert check == self, "factorization does not multiply back"
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
    den = 1
    for r in rows:
        for c in r:
            c = Fraction(c)
            den = den * c.denominator // gcd(den, c.denominator)
    int_rows = []
    for r in rows:
        int_rows.append([int(Fraction(c) * den) for c in r])
    h = hnf_rows(int_rows)
    if len(h) != F.degree:
        raise ValueError("ideal basis does not have full rank")
    g = den
    for r in h:
        for c in r:
            if c:
                g = gcd(g, abs(c))
    return FieldIdeal(F, [[c // g for c in r] for r in h], den // g)


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
    if not isinstance(d, int) or d <= 1:
        raise ValueError("d must be an integer greater than 1")
    if any(e > 1 for e in factor_int(d).values()):
        raise ValueError("d must be squarefree")
    ident = [[1, 0], [0, 1]]
    if d % 4 == 1:
        table = [[ident[0], ident[1]], [ident[1], [(d - 1) // 4, 1]]]
        disc = d
    else:
        table = [[ident[0], ident[1]], [ident[1], [d, 0]]]
        disc = 4 * d
    F = FieldCtx(table, disc, name=f"quad:{d}")
    F.fundamental_units = [F.el(_fundamental_unit_quadratic(d))]
    F.zeta_minus_one = siegel_zeta_quadratic(disc)
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
    mink = isqrt(F.disc) // 2
    pool = []
    p = 2
    while p <= mink:
        for prime, f, _e in F.primes_above(p):
            if p**f <= mink:
                pool.append(prime)
        p = next_prime(p)
    pool.sort(key=lambda pr: (pr.norm(), pr.rows))
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

    The order is cross-checked against h * 2^degree / |unit sign group|,
    so the greedy generator search and the sign computation validate each
    other.
    """
    from .residue import span_basis_mod

    n = F.degree
    sign_rows = [tuple([1] * n)]
    for u in F.fundamental_units:
        sign_rows.append(tuple(1 if s < 0 else 0 for s in F.sign_vector(u)))
    basis = span_basis_mod(tuple(sign_rows), 2)
    rank = len(basis)
    expected = F.class_number * 2 ** (n - rank)

    kernel_ideals = []
    if rank < n:
        want = 2 ** (n - rank) - 1

        def reduce_pattern(vec):
            v = list(vec)
            for row in basis:
                piv = next(i for i, c in enumerate(row) if c)
                if v[piv]:
                    v = [(a + b) % 2 for a, b in zip(v, row)]
            return tuple(v)

        seen = {reduce_pattern([0] * n)}
        for radius in range(1, 9):
            for coords in itertools.product(range(-radius, radius + 1), repeat=n):
                if max(abs(c) for c in coords) != radius:
                    continue
                x = F.el(coords)
                sig = F.sign_vector(x)
                pat = reduce_pattern([1 if s < 0 else 0 for s in sig])
                if pat not in seen:
                    seen.add(pat)
                    kernel_ideals.append(F.principal_ideal(x))
            if len(kernel_ideals) == want:
                break
        if len(kernel_ideals) != want:
            raise ValueError("could not realize all unit sign cosets")

    def in_span(c, gens):
        for bits in itertools.product((0, 1), repeat=len(gens)):
            t = c
            for g, b in zip(gens, bits):
                if b:
                    t = t * g
            if F.narrowly_principal_generator(t) is not None:
                return True
        return False

    gens = []
    for cand in F.class_reps[1:] + kernel_ideals:
        cand = FieldIdeal(F, cand.rows, 1)
        if not in_span(cand, gens):
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
