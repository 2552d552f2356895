"""Positive definite lattice algorithms in exact integer arithmetic.

Gram matrices, bounds and norm targets are Python ints; every entry
point raises ValueError on anything else.  Integral LLL keeps the
Gram-Schmidt data as integer minors d_i and lambda_ij = d_{j+1} mu_ij
(_gram_schmidt_row), and the Fincke-Pohst shell walk reads its integer
Cholesky form off the same data: each level walks its interval once, in
increasing order, and the last coordinate is solved by one integer
square root, so only vectors of the given value are yielded.
iter_norm, which norm-equation searches are built on, walks a reduced
basis, can test further integer forms on each shell vector before
mapping it back, and yields the survivors lazily, as integer
coefficient vectors on the basis of the given Gram.
enumerate_norm is its whole walk, sorted.
No floating point is used anywhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from operator import mul

from .intmat import check_int_rows, int_product

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# LLL on a Gram matrix


def _gram_schmidt_row(g, lam, d, k):
    """Row k of the integral Gram-Schmidt data of the integer Gram g.

    Fills lam[k][j] = d_{j+1} mu_kj for j < k and sets d[k + 1], the
    leading principal minor of size k + 1, from rows 0..k - 1 (Cohen,
    Alg. 2.6.7, step 3); every division is exact.  Raises
    ArithmeticError when that minor is not positive.
    """
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


def lll_gram(gram):
    """LLL-reduce a positive definite integer Gram matrix.

    Returns (reduced_gram, U) with U integral, |det U| = 1 and
    reduced_gram = U * gram * U^T, both in ints.  Integral LLL (Cohen, A
    Course in Computational Algebraic Number Theory, Alg. 2.6.7): the
    Gram-Schmidt data are kept as the integers d_i (leading principal
    minors) and lambda_ij = d_j mu_ij, and every rounding and Lovasz test
    is the rational one cleared of denominators.  Raises ValueError
    unless the Gram holds ints only.
    """
    check_int_rows(gram, 1)
    n = len(gram)
    g = [list(row) for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    p, q = 99, 100  # the Lovasz constant p/q
    lam = [[0] * n for _ in range(n)]
    # d[i + 1] is the leading principal minor of size i + 1; d[0] = 1
    d = [1] * (n + 1)
    if n:
        _gram_schmidt_row(g, lam, d, 0)

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
            _gram_schmidt_row(g, lam, d, k)
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
    return g, u


# ---------------------------------------------------------------------------
# Short vector enumeration


def _cholesky(gram):
    """(s, k, e, c): the Cholesky form of s * Q in integers.

    Q is an integer form.  With C_i(x) = sum_{j>i} c[i][j] x_j,
    s * Q(x) = sum_i k[i] * (e[i] x_i + C_i(x))^2.  It is read off the
    integral Gram-Schmidt data of lll_gram, the minors d_i (d_0 = 1) and
    lambda_ji = d_{i+1} mu_ji: Q(x) = sum_i B_i (x_i + sum_{j>i} mu_ji
    x_j)^2 with B_i = d_{i+1} / d_i, so e[i] = d_{i+1} / g_i and
    c[i][j] = lambda_ji / g_i, g_i the gcd of row i, and k[i] / s =
    g_i^2 / (d_i d_{i+1}) over the least common s.  Each e[i] is then the
    least common denominator of the mu_ji.
    """
    n = len(gram)
    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)
    for i in range(n):
        _gram_schmidt_row(gram, lam, d, i)
    e, c, kq = [], [], []
    for i in range(n):
        col = [lam[j][i] for j in range(i + 1, n)]
        g = math.gcd(d[i + 1], *col)
        e.append(d[i + 1] // g)
        c.append([0] * (i + 1) + [v // g for v in col])
        num, den = g * g, d[i] * d[i + 1]
        h = math.gcd(num, den)
        kq.append((num // h, den // h))
    s = math.lcm(*(den for _, den in kq))
    k = [num * (s // den) for num, den in kq]
    return s, k, e, c


def fincke_pohst(gram, bound):
    """Yield the coords of all x != 0 with Q(x) = x G x^T = bound.

    One representative per +-pair: the last nonzero coordinate is
    positive.  gram is an integer Gram and bound an int, else
    ValueError.  The walk runs on the integer Cholesky form of the Gram
    (_cholesky), s Q(x) = sum_i k_i (e_i x_i + C_i)^2, so centers,
    remainders and every comparison are Python ints.  Level i walks its
    interval once, in increasing order: the integers v with
    |e_i v + C_i| <= isqrt(rem // k_i), and only v >= 0 while every
    higher coordinate is zero.  At level 0 the remainder must be
    k_0 (e_0 x_0 + C_0)^2 exactly, one integer square root, so only the
    ends of that interval can be solutions.
    """
    check_int_rows(gram, 1)
    if not isinstance(bound, int):
        raise ValueError("bound must be an integer")
    n = len(gram)
    if n == 0 or bound <= 0:
        return
    s, k, e, c = _cholesky(gram)
    x = [0] * n

    def walk(i, rem, tie):
        ki, ei, ci = k[i], e[i], c[i]
        r = math.isqrt(rem // ki)
        if i == 0 and ki * r * r != rem:
            return
        cen = 0
        for j in range(i + 1, n):
            if x[j]:
                cen += ci[j] * x[j]
        lo, hi = (0 if tie else -((r + cen) // ei)), (r - cen) // ei
        # at level 0 only the ends of the interval can be solutions
        for v in range(lo, hi + 1, 1 if i else max(hi - lo, 1)):
            x[i] = v
            if i:
                yield from walk(i - 1, rem - ki * (ei * v + cen) ** 2, tie and not v)
            elif abs(ei * v + cen) == r:
                yield tuple(x)

    yield from walk(n - 1, s * bound, True)


def _quad(form, x):
    """x form x^T for an integer symmetric form and integer vector x."""
    return sum(xi * sum(map(mul, row, x)) for xi, row in zip(x, form) if xi)


@dataclass
class NormSolutions:
    """Solution vectors, one per +-pair: integer coefficient vectors."""

    vectors: list


def iter_norm(gram, t, forms):
    """The vectors x with Q(x) = x gram x^T = t, one per +-pair.

    gram is a square positive definite integer Gram matrix and t a
    positive int, else ValueError.  Reduces the basis first, then walks
    the shell Q(x) = t alone (fincke_pohst), lazily: a caller that has
    what it needs stops the walk by dropping the iterator.  The vectors
    come in the order of that walk on the reduced basis, which promises
    nothing; enumerate_norm sorts them.  forms holds pairs (N, v) of
    integer forms on the coefficient vectors and the values they must
    take: each is carried to the reduced basis once, as u N u^T for the
    LLL transform u, and every shell vector is tested there, so only the
    vectors that pass are mapped back.  Vectors come as integer
    coefficient tuples, sign-normalized (first nonzero entry positive).
    """
    n = len(gram)
    if any(len(row) != n for row in gram):
        raise ValueError("Gram matrix is not square")
    if t <= 0:
        raise ValueError("norm target must be positive")
    g2, u = lll_gram(gram)
    cols = list(zip(*u))
    reduced = [(int_product(int_product(u, N), cols), v) for N, v in forms]
    for coords in fincke_pohst(g2, t):
        if any(_quad(N, coords) != v for N, v in reduced):
            continue
        vec = [sum(map(mul, coords, col)) for col in cols]
        lead = next(v for v in vec if v)
        if lead < 0:
            vec = [-v for v in vec]
        yield tuple(vec)


def enumerate_norm(gram, t, forms) -> NormSolutions:
    """All vectors with Q(x) = t, up to sign: the whole walk of
    iter_norm, sorted, so the result does not depend on the order the
    walk finds them in."""
    found = sorted(iter_norm(gram, t, forms))
    log.debug("enumerate_norm rank=%d t=%s hits=%d", len(gram), t, len(found))
    return NormSolutions(vectors=found)
