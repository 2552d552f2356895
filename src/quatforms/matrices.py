"""Exact dense linear algebra over Q.

A Matrix is integer rows over one positive denominator, with no common
factor of the denominator and every entry, so equal matrices have equal
fields.  Every operation runs on Python ints and divides once per output
entry.  Row reduction is fraction-free, each row kept primitive by its
content; integer_kernel reads a kernel basis off it as primitive integer
rows, without dividing at all.  A polynomial at a matrix is an integer
combination of the powers of its integer rows, so one list of powers
serves every polynomial evaluated at that matrix; its coefficients are
ints or Fractions.  The characteristic polynomial is computed modulo
primes near 2^61, by Hessenberg reduction and its leading-minor
recurrence (Cohen, A Course in Computational Algebraic Number Theory,
section 2.2), and recombined by CRT under a Hadamard-style coefficient
bound, so intermediates never grow.  It is returned as a monic integer
Poly behind a certificate that it is integral, which holds for every
matrix of an integer operator on a stable subspace.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul

from .arith import FIRST_CRT_PRIME, next_prime, symmetric_mod
from .intmat import check_int_rows, identity_int, int_product, lowest_terms
from .polynomials import Poly


def primitive(row):
    """An integer row divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


class Matrix:
    """The rational matrix rows / den, for integer rows and an int den > 0."""

    __slots__ = ("rows", "den")

    def __init__(self, rows, den=1):
        rows = [list(row) for row in rows]
        check_int_rows(rows, den)
        if any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("matrix rows have different lengths")
        self.rows, self.den = lowest_terms(rows, den)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.rows, self.den) == (other.rows, other.den)

    def apply(self, vec: list) -> list[Fraction]:
        """Matrix times a column vector of ints or Fractions."""
        if len(vec) != self.ncols:
            raise ValueError("vector length differs from the column count")
        return [Fraction(sum(map(mul, row, vec)), self.den) for row in self.rows]

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    def solve_right(self, b: list) -> list[Fraction] | None:
        """One solution x of A x = b, or None; b holds ints or Fractions.

        With b = c / e for integers c, A x = b is rows x = den c / e, so
        e rows x = den c: one elimination of the augmented integer rows.
        """
        if len(b) != self.nrows:
            raise ValueError("right-hand side length differs from the row count")
        nc = self.ncols
        e = lcm(*(Fraction(v).denominator for v in b))
        m, pivots = _echelon([
            [e * v for v in row] + [self.den * int(Fraction(bv) * e)]
            for row, bv in zip(self.rows, b)
        ])
        if nc in pivots:
            return None
        x = [Fraction(0)] * nc
        for r, pc in enumerate(pivots):
            x[pc] = Fraction(m[r][nc], m[r][pc])
        return x

    def charpoly(self) -> Poly:
        """det(x*I - A) as a monic integer Poly.

        It is integral when A is an integer operator restricted to a
        stable subspace: it divides the operator's monic integer charpoly
        (Gauss's lemma).  Certificate: the coefficient at x^k of
        charpoly(den A) is divisible by den^(n-k), else ArithmeticError.
        """
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        return _charpoly_crt(self.rows, self.den)


def _echelon(rows):
    """Fraction-free Gauss-Jordan on integer rows: (m, pivot columns).

    Row_i becomes a*row_i - f*row_r for pivot a, divided by its content.
    Every row stays a nonzero multiple of the rational elimination's row,
    so the pivots agree, and dividing each pivot row of m by its pivot
    gives the unique RREF.  The rows passed in are not modified.
    """
    m = [primitive(row) for row in rows]
    nr, nc = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        a = prow[c]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = primitive([a * v - f * w for v, w in zip(m[i], prow)])
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return m, pivots


def integer_kernel(rows) -> list[list[int]]:
    """Basis of {v : A v = 0} for the integer matrix rows of A, as
    primitive integer rows.

    Row k is a positive multiple of the k-th vector of the echelon basis:
    the k-th free variable set to 1, the others to 0, and the pivot
    variables read off the RREF.
    """
    m, pivots = _echelon(rows)
    scale = lcm(*(m[r][pc] for r, pc in enumerate(pivots)))
    basis = []
    for fc in range(len(rows[0])):
        if fc in pivots:
            continue
        v = [0] * len(rows[0])
        v[fc] = scale
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc] * scale // m[r][pc]
        basis.append(primitive(v))
    return basis


def int_powers(a, top):
    """[A^0, A^1, ..., A^top] for the square integer matrix rows a."""
    out = [identity_int(len(a))]
    for _ in range(top):
        out.append(int_product(out[-1], a))
    return out


def int_poly_at(cs, d, powers):
    """(den, rows) with p(A/d) = rows / den for the polynomial p with
    coefficients cs (ints or Fractions, lowest degree first), for
    powers = int_powers(A, k), k >= deg p.

    With L the least common denominator of the coefficients c_k,
    L d^deg p(A/d) = sum_k (L c_k d^(deg-k)) A^k has integer entries.
    """
    deg = len(cs) - 1
    L = lcm(*(c.denominator for c in cs))
    terms = [
        (c.numerator * (L // c.denominator) * d ** (deg - k), powers[k])
        for k, c in enumerate(cs)
        if c
    ]
    n = len(powers[0])
    rows = []
    for i in range(n):
        row = [0] * n
        for ck, pk in terms:
            row = [v + ck * w for v, w in zip(row, pk[i])]
        rows.append(row)
    return L * d ** max(deg, 0), rows


def poly_at_matrix(cs, a: Matrix) -> Matrix:
    """The polynomial with coefficients cs (ints or Fractions, lowest
    degree first) at a square matrix, exactly."""
    if not a.is_square():
        raise ValueError("polynomial evaluated at a non-square matrix")
    den, rows = int_poly_at(cs, a.den, int_powers(a.rows, max(len(cs) - 1, 0)))
    return Matrix(rows, den)


def _charpoly_mod_p(int_rows, p) -> list[int]:
    """Coefficients of det(x*I - A) mod p, constant term first.

    A is reduced to upper Hessenberg form H by elementary similarities;
    then the charpoly P_m of the leading m x m block of H satisfies
    P_m = (x - h[m-1][m-1]) P_(m-1)
          - sum_(0<i<m) h[i-1][m-1] h[i][i-1] ... h[m-1][m-2] P_(i-1).
    """
    n = len(int_rows)
    h = [[v % p for v in row] for row in int_rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = pow(h[m][m - 1], -1, p)
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = h[i][m - 1] * inv % p
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        t = h[m - 1][m - 1]
        cur = [0] + prev
        for k, c in enumerate(prev):
            cur[k] = (cur[k] - t * c) % p
        coef = 1
        for i in range(m - 1, 0, -1):
            coef = coef * h[i][i - 1] % p
            t = h[i - 1][m - 1] * coef % p
            for k, c in enumerate(polys[i - 1]):
                cur[k] = (cur[k] - t * c) % p
        polys.append(cur)
    return polys[n]


def _charpoly_crt(int_rows, den) -> Poly:
    """det(x*I - A) for A = int_rows / den."""
    n = len(int_rows)
    bmax = max((abs(v) for row in int_rows for v in row), default=0)
    if bmax == 0:
        return Poly([0] * n + [1])
    # |c_k| <= C(n,k) (sqrt(n) B)^n <= 2^n (sqrt(n)+1)^n B^n
    bound = (2 * (isqrt(n) + 1) * bmax) ** n
    p = FIRST_CRT_PRIME
    residues, modulus = _charpoly_mod_p(int_rows, p), p
    while modulus <= 2 * bound:
        p = next_prime(p)
        cp = _charpoly_mod_p(int_rows, p)
        inv = pow(modulus, -1, p)
        new_mod = modulus * p
        residues = [
            (a + (b - a) * inv % p * modulus) % new_mod for a, b in zip(residues, cp)
        ]
        modulus = new_mod
    # scale back: charpoly(A) coefficients from charpoly(den*A)
    coeffs = [divmod(symmetric_mod(c, modulus), den ** (n - k)) for k, c in enumerate(residues)]
    if any(r for _, r in coeffs):
        raise ArithmeticError("characteristic polynomial is not integral")
    return Poly([q for q, _ in coeffs])
