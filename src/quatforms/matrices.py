"""Exact dense linear algebra over Q.

Matrix stores a list of Fraction rows.  Matrix-vector products,
polynomial evaluation and row reduction do not compute in Fractions: they
clear the rows to integers over one common denominator, run on Python
ints (elimination is fraction-free, each row kept primitive by its
content), and divide once per output entry.  The characteristic
polynomial runs over Q directly in small dimension and otherwise switches
to a modular Hessenberg computation recombined by CRT under a
Hadamard-style coefficient bound, which keeps the cost polynomial instead
of letting rational intermediates blow up.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import inv_mod, next_prime, symmetric_mod
from .intmat import int_product, integral_rows
from .polynomials import Poly

_RATIONAL_CUTOFF = 8


def _primitive(row):
    """An integer row divided by the gcd of its entries (zero stays zero)."""
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        # copies the rows; entries already Fractions are not rebuilt
        self.rows = [
            [v if isinstance(v, Fraction) else Fraction(v) for v in row] for row in rows
        ]
        if any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("matrix rows have different lengths")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def apply(self, vec: list) -> list[Fraction]:
        """Matrix times column vector."""
        assert len(vec) == self.ncols
        da, ia = integral_rows(self.rows)
        dv, (iv,) = integral_rows([vec])
        d = da * dv
        return [Fraction(sum(a * b for a, b in zip(row, iv)), d) for row in ia]

    def transpose(self) -> "Matrix":
        return Matrix([list(c) for c in zip(*self.rows)])

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"

    # -- elimination ------------------------------------------------------

    def rref(self) -> tuple["Matrix", list[int]]:
        """Reduced row echelon form and its pivot column list.

        Fraction-free Gauss-Jordan on the integer rows: row_i becomes
        a*row_i - f*row_r for pivot a, divided by its content.  Every row
        stays a nonzero multiple of the rational elimination's row, so the
        pivots agree and dividing each pivot row by its pivot at the end
        gives the unique RREF.
        """
        _, m = integral_rows(self.rows)
        m = [_primitive(row) for row in m]
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
                    m[i] = _primitive([a * v - f * w for v, w in zip(m[i], prow)])
            pivots.append(c)
            r += 1
            if r == nr:
                break
        for i, c in enumerate(pivots):
            a = m[i][c]
            m[i] = [Fraction(v, a) for v in m[i]]
        return Matrix(m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        m = [row[:] for row in self.rows]
        n = len(m)
        out = Fraction(1)
        for c in range(n):
            piv = next((i for i in range(c, n) if m[i][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                out = -out
            out *= m[c][c]
            inv = 1 / m[c][c]
            for i in range(c + 1, n):
                if m[i][c] != 0:
                    f = m[i][c] * inv
                    m[i] = [v - f * w for v, w in zip(m[i], m[c])]
        return out

    def right_kernel(self) -> list[list[Fraction]]:
        """Basis of {v : A v = 0}, echelonized, free variables set to 1."""
        red, pivots = self.rref()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * nc
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(v)
        return basis

    def solve_right(self, b: list) -> list[Fraction] | None:
        """One solution x of A x = b, or None."""
        nr, nc = self.nrows, self.ncols
        aug = Matrix([row + [Fraction(bv)] for row, bv in zip(self.rows, b)])
        red, pivots = aug.rref()
        if nc in pivots:
            return None
        x = [Fraction(0)] * nc
        for r, pc in enumerate(pivots):
            x[pc] = red.rows[r][nc]
        return x

    # -- characteristic polynomial ----------------------------------------

    def charpoly(self) -> Poly:
        """det(x*I - A), computed exactly."""
        if not self.is_square():
            raise ValueError("characteristic polynomial of a non-square matrix")
        n = self.nrows
        if n == 0:
            return Poly([1])
        if n <= _RATIONAL_CUTOFF:
            return _charpoly_rational(self.rows)
        return _charpoly_crt(self.rows)


def poly_at_matrix(p: Poly, a: Matrix) -> Matrix:
    """Evaluate a polynomial at a square matrix, exactly.

    With a = A/d for the integer matrix A and L the least common
    denominator of the coefficients, L d^deg p(a) = sum_k (L c_k d^(deg-k))
    A^k has integer coefficients: Horner runs on A over the integers and
    one division per entry happens at the end.
    """
    assert a.is_square()
    n = a.nrows
    d, ia = integral_rows(a.rows)
    cs = p.coeffs
    deg = len(cs) - 1
    L = lcm(*(c.denominator for c in cs))
    out = [[0] * n for _ in range(n)]
    for k in range(deg, -1, -1):
        ck = cs[k].numerator * (L // cs[k].denominator) * d ** (deg - k)
        if k < deg:
            out = int_product(out, ia)
        if ck:
            for i in range(n):
                out[i][i] += ck
    den = L * d ** max(deg, 0)
    return Matrix([[Fraction(v, den) for v in row] for row in out])


def _hessenberg_charpoly_generic(h, n, mul, sub, one, zero):
    """Characteristic polynomial of a Hessenberg matrix via the classic
    leading-minor recurrence; arithmetic supplied by callbacks."""
    polys = [[one]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        # (x - h[m-1][m-1]) * prev
        cur = [zero] + list(prev)
        t = h[m - 1][m - 1]
        cur = [sub(c, mul(t, p)) for c, p in zip(cur, list(prev) + [zero])]
        coef = one
        for i in range(m - 1, 0, -1):
            coef = mul(coef, h[i][i - 1])
            t = mul(h[i - 1][m - 1], coef)
            pi = polys[i - 1]
            for k in range(len(pi)):
                cur[k] = sub(cur[k], mul(t, pi[k]))
        polys.append(cur)
    return polys[n]


def _charpoly_rational(rows) -> Poly:
    n = len(rows)
    h = [row[:] for row in rows]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1] != 0), None)
        if piv is None:
            continue
        if piv != m:
            h[m], h[piv] = h[piv], h[m]
            for row in h:
                row[m], row[piv] = row[piv], row[m]
        inv = 1 / h[m][m - 1]
        for i in range(m + 1, n):
            if h[i][m - 1] != 0:
                u = h[i][m - 1] * inv
                h[i] = [a - u * b for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] += u * row[i]
    coeffs = _hessenberg_charpoly_generic(
        h, n, lambda a, b: a * b, lambda a, b: a - b, Fraction(1), Fraction(0)
    )
    return Poly(coeffs)


def _charpoly_mod_p(int_rows, p) -> list[int]:
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
        inv = inv_mod(h[m][m - 1], p)
        for i in range(m + 1, n):
            if h[i][m - 1]:
                u = h[i][m - 1] * inv % p
                h[i] = [(a - u * b) % p for a, b in zip(h[i], h[m])]
                for row in h:
                    row[m] = (row[m] + u * row[i]) % p
    return _hessenberg_charpoly_generic(
        h, n, lambda a, b: a * b % p, lambda a, b: (a - b) % p, 1, 0
    )


def _charpoly_crt(rows) -> Poly:
    n = len(rows)
    den = 1
    for row in rows:
        for v in row:
            den = den * v.denominator // gcd(den, v.denominator)
    int_rows = [[int(v * den) for v in row] for row in rows]
    bmax = max((abs(v) for row in int_rows for v in row), default=0)
    if bmax == 0:
        return Poly([0] * n + [1])
    # |c_k| <= C(n,k) (sqrt(n) B)^n <= 2^n (sqrt(n)+1)^n B^n
    bound = (2 * (isqrt(n) + 1) * bmax) ** n
    modulus = 1
    residues: list[int] | None = None
    p = 1 << 61
    while modulus <= 2 * bound:
        p = next_prime(p)
        if den % p == 0:
            continue
        cp = _charpoly_mod_p(int_rows, p)
        if residues is None:
            residues, modulus = cp, p
        else:
            inv = inv_mod(modulus % p, p)
            new_mod = modulus * p
            residues = [
                (a + (b - a) * inv % p * modulus) % new_mod for a, b in zip(residues, cp)
            ]
            modulus = new_mod
    coeffs = [symmetric_mod(c, modulus) for c in residues]
    # scale back: charpoly(A) coefficients from charpoly(den*A)
    return Poly([Fraction(c, den ** (n - k)) for k, c in enumerate(coeffs)])
