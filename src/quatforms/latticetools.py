"""Positive definite lattice algorithms in exact integer arithmetic.

Gram matrices may hold ints or Fractions.  LLL reduction and
Fincke-Pohst enumeration of short vectors each scale their Gram to
integers once and then run on Python ints: integral LLL keeps the
Gram-Schmidt data as integer minors, and the enumeration clears its
Cholesky coefficients to per-row common denominators.  enumerate_norm
is the exact shell enumeration that norm-equation searches are built
on; on a lattice without an ambient basis it returns integer
coefficient vectors.  Integer roots serve the unit search of the field
code.  No floating point is used anywhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .intmat import integral_rows

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# LLL on a Gram matrix


def lll_gram(gram):
    """LLL-reduce a positive definite Gram matrix.

    Returns (reduced_gram, U) with U integral, |det U| = 1 and
    reduced_gram = U * gram * U^T.  Integral LLL (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 2.6.7) on the Gram
    scaled to integers: the Gram-Schmidt data are kept as the integers
    d_i (leading principal minors) and lambda_ij = d_j mu_ij, and every
    rounding and Lovasz test is the rational one cleared of
    denominators.  The reduced Gram comes back in ints when the input is
    integral.
    """
    n = len(gram)
    den, g = integral_rows(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    p, q = 99, 100  # the Lovasz constant p/q
    lam = [[0] * n for _ in range(n)]
    # d[i + 1] is the leading principal minor of size i + 1; d[0] = 1
    d = [1] * (n + 1)
    if n:
        d[1] = g[0][0]
        if d[1] <= 0:
            raise ArithmeticError("form is not positive definite")

    def size_reduce(k, l):
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        r = (2 * lam[k][l] + dl) // (2 * dl)
        for j in range(n):
            g[k][j] -= r * g[l][j]
        for i in range(n):
            g[i][k] -= r * g[i][l]
        for j in range(n):
            u[k][j] -= r * u[l][j]
        lam[k][l] -= r * dl
        for i in range(l):
            lam[k][i] -= r * lam[l][i]

    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                t = g[k][j]
                for i in range(j):
                    t = (d[i + 1] * t - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = t
                elif t <= 0:
                    raise ArithmeticError("form is not positive definite")
                else:
                    d[k + 1] = t
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if q * d[k + 1] * d[k - 1] < p * d[k] ** 2 - q * m * m:
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            b = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (b * t + m * lam[i][k]) // d[k + 1]
            d[k] = b
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    if den != 1:
        g = [[Fraction(v, den) for v in row] for row in g]
    return g, u


# ---------------------------------------------------------------------------
# Lattices with an ambient coordinate system


@dataclass
class TraceFormLattice:
    """A positive definite lattice.

    basis rows give ambient coordinates of the lattice generators; gram
    is the matrix of the bilinear form on those generators.  basis may
    be None, in which case ambient coordinates are the coefficient
    vectors themselves.
    """

    gram: list
    basis: list | None = None

    def __post_init__(self):
        n = len(self.gram)
        if any(len(row) != n for row in self.gram):
            raise ValueError("Gram matrix is not square")
        if self.basis is not None and len(self.basis) != n:
            raise ValueError("basis and Gram matrix differ in rank")


# ---------------------------------------------------------------------------
# Short vector enumeration


def _cholesky(gram):
    """(s, k, e, c): the Cholesky form of s * Q in integers.

    Q is an integer form.  With C_i(x) = sum_{j>i} c[i][j] x_j,
    s * Q(x) = sum_i k[i] * (e[i] x_i + C_i(x))^2: the rational
    coefficients q of Q(x) = sum_i q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2
    are computed once, e[i] clears the denominators of row i and s
    those of the k[i].
    """
    n = len(gram)
    q = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ArithmeticError("form is not positive definite")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for r in range(i + 1, n):
            for c in range(r, n):
                q[r][c] -= q[r][i] * q[i][c]
    e = [math.lcm(*(q[i][j].denominator for j in range(i + 1, n)))
         for i in range(n)]
    kq = [q[i][i] / (e[i] * e[i]) for i in range(n)]
    s = math.lcm(*(v.denominator for v in kq))
    k = [int(v * s) for v in kq]
    c = [[0] * (i + 1) + [int(q[i][j] * e[i]) for j in range(i + 1, n)]
         for i in range(n)]
    return s, k, e, c


def fincke_pohst(gram, bound):
    """Yield (coords, value) for all x != 0 with Q(x) = x G x^T <= bound.

    One representative per +-pair: the last nonzero coordinate is
    positive.  Each level walks outward from the real center of its
    interval, so short vectors tend to appear early; callers doing
    existence tests can stop at the first hit.  The walk runs on the
    integer Cholesky form of the Gram scaled to integers, so centers,
    remainders and every comparison are Python ints; values come back
    exact (ints for an integer Gram).
    """
    n = len(gram)
    bound = Fraction(bound)
    if n == 0 or bound < 0:
        return
    d, ints = integral_rows(gram)
    s, k, e, c = _cholesky(ints)
    top = s * math.floor(bound * d)
    x = [0] * n

    def walk(i, rem, tie):
        if i < 0:
            if not tie:
                val = (top - rem) // s
                yield tuple(x), val if d == 1 else Fraction(val, d)
            return
        ki, ei = k[i], e[i]
        if tie:
            # all higher coordinates are zero, so the center is zero;
            # nonnegative values only, which halves the search
            v = 0
            while True:
                t = ki * (ei * v) ** 2
                if t > rem:
                    break
                x[i] = v
                yield from walk(i - 1, rem - t, v == 0)
                v += 1
        else:
            ci = c[i]
            cen = 0
            for j in range(i + 1, n):
                if x[j]:
                    cen += ci[j] * x[j]
            # the nearest integer to -cen / ei, halves rounding up
            v0 = (ei - 2 * cen) // (2 * ei)
            v = v0
            while True:
                t = ki * (ei * v + cen) ** 2
                if t > rem:
                    break
                x[i] = v
                yield from walk(i - 1, rem - t, False)
                v += 1
            v = v0 - 1
            while True:
                t = ki * (ei * v + cen) ** 2
                if t > rem:
                    break
                x[i] = v
                yield from walk(i - 1, rem - t, False)
                v -= 1

    yield from walk(n - 1, top, True)


@dataclass
class NormSolutions:
    """Solution vectors, one per +-pair: ambient coordinates, or integer
    coefficient vectors for a lattice without an ambient basis."""

    vectors: list


def enumerate_norm(lat: TraceFormLattice, t) -> NormSolutions:
    """All lattice vectors with Q(x) = t, up to sign.

    Reduces the basis first, then enumerates.  Vectors come back in
    ambient coordinates, sign-normalized (first nonzero entry positive)
    and sorted, so the result does not depend on the input basis.
    Without an ambient basis they are coefficient vectors, integer
    tuples.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("norm target must be positive")
    if t.denominator == 1:
        t = t.numerator
    g2, u = lll_gram(lat.gram)
    n = len(g2)
    if lat.basis is not None:
        rows = [
            [sum(u[i][k] * Fraction(lat.basis[k][j]) for k in range(n))
             for j in range(len(lat.basis[0]))]
            for i in range(n)
        ]
    else:
        rows = u
    found = []
    seen = 0
    for coords, val in fincke_pohst(g2, t):
        seen += 1
        if val != t:
            continue
        vec = [0] * len(rows[0])
        for i, ci in enumerate(coords):
            if ci:
                for j, r in enumerate(rows[i]):
                    vec[j] += ci * r
        lead = next(v for v in vec if v)
        if lead < 0:
            vec = [-v for v in vec]
        found.append(tuple(vec))
    found.sort()
    log.debug("enumerate_norm rank=%d t=%s candidates=%d hits=%d",
              n, t, seen, len(found))
    return NormSolutions(vectors=found)


# ---------------------------------------------------------------------------
# Integer roots


def iroot(a: int, k: int) -> int:
    """floor(a ** (1/k)) for integers a >= 0, k >= 1."""
    if a < 0 or k < 1:
        raise ValueError("iroot needs a >= 0 and k >= 1")
    if a < 2 or k == 1:
        return a
    x = 1 << ((a.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > a:
        x -= 1
    while (x + 1) ** k <= a:
        x += 1
    return x

