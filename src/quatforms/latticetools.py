"""Positive definite lattice algorithms over exact rationals.

Everything here works on Gram matrices with Fraction entries: LLL
reduction, Fincke-Pohst enumeration of short vectors, and the exact
shell enumeration that norm-equation searches are built on.  Integer
roots and rational n-th root intervals serve the field code.  No
floating point is used anywhere.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .intervals import Iv

log = logging.getLogger(__name__)

HALF = Fraction(1, 2)


def round_frac(x) -> int:
    """Nearest integer, halves rounding up."""
    return math.floor(Fraction(x) + HALF)


# ---------------------------------------------------------------------------
# LLL on a Gram matrix


def lll_gram(gram, delta=Fraction(99, 100)):
    """LLL-reduce a positive definite Gram matrix.

    Returns (reduced_gram, U) with U integral, |det U| = 1 and
    reduced_gram = U * gram * U^T.  Exact rational arithmetic throughout.
    """
    n = len(gram)
    g = [[Fraction(v) for v in row] for row in gram]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    if n <= 1:
        if n == 1:
            assert g[0][0] > 0, "form is not positive definite"
        return g, u

    delta = Fraction(delta)
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    b[0] = g[0][0]
    assert b[0] > 0, "form is not positive definite"

    def size_reduce(k, l):
        if abs(mu[k][l]) <= HALF:
            return
        q = round_frac(mu[k][l])
        for j in range(n):
            g[k][j] -= q * g[l][j]
        for i in range(n):
            g[i][k] -= q * g[i][l]
        for j in range(n):
            u[k][j] -= q * u[l][j]
        mu[k][l] -= q
        for i in range(l):
            mu[k][i] -= q * mu[l][i]

    k = 1
    kmax = 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k):
                mu[k][j] = g[k][j]
                for i in range(j):
                    mu[k][j] -= mu[j][i] * mu[k][i] * b[i]
                mu[k][j] /= b[j]
            b[k] = g[k][k]
            for i in range(k):
                b[k] -= mu[k][i] ** 2 * b[i]
            assert b[k] > 0, "form is not positive definite"
        size_reduce(k, k - 1)
        if b[k] < (delta - mu[k][k - 1] ** 2) * b[k - 1]:
            g[k], g[k - 1] = g[k - 1], g[k]
            for row in g:
                row[k], row[k - 1] = row[k - 1], row[k]
            u[k], u[k - 1] = u[k - 1], u[k]
            m = mu[k][k - 1]
            bb = b[k] + m * m * b[k - 1]
            mu[k][k - 1] = m * b[k - 1] / bb
            b[k] = b[k - 1] * b[k] / bb
            b[k - 1] = bb
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, kmax + 1):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
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
        assert all(len(row) == n for row in self.gram)
        if self.basis is not None:
            assert len(self.basis) == n


# ---------------------------------------------------------------------------
# Short vector enumeration


def _cholesky(gram):
    """q with Q(x) = sum_i q[i][i] * (x_i + sum_{j>i} q[i][j] x_j)^2."""
    n = len(gram)
    q = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        assert q[i][i] > 0, "form is not positive definite"
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for r in range(i + 1, n):
            for c in range(r, n):
                q[r][c] -= q[r][i] * q[i][c]
    return q


def fincke_pohst(gram, bound):
    """Yield (coords, value) for all x != 0 with Q(x) = x G x^T <= bound.

    One representative per +-pair: the last nonzero coordinate is
    positive.  Each level walks outward from the real center of its
    interval, so short vectors tend to appear early; callers doing
    existence tests can stop at the first hit.
    """
    n = len(gram)
    bound = Fraction(bound)
    if n == 0 or bound < 0:
        return
    q = _cholesky(gram)
    x = [0] * n

    def walk(i, rem, tie):
        if i < 0:
            if not tie:
                yield tuple(x), bound - rem
            return
        qi = q[i][i]
        if tie:
            # all higher coordinates are zero, so the center is zero;
            # nonnegative values only, which halves the search
            v = 0
            while True:
                t = qi * v * v
                if t > rem:
                    break
                x[i] = v
                yield from walk(i - 1, rem - t, v == 0)
                v += 1
        else:
            c = Fraction(0)
            for j in range(i + 1, n):
                if x[j]:
                    c += q[i][j] * x[j]
            v0 = round_frac(-c)
            v = v0
            while True:
                s = v + c
                t = qi * s * s
                if t > rem:
                    break
                x[i] = v
                yield from walk(i - 1, rem - t, False)
                v += 1
            v = v0 - 1
            while True:
                s = v + c
                t = qi * s * s
                if t > rem:
                    break
                x[i] = v
                yield from walk(i - 1, rem - t, False)
                v -= 1

    yield from walk(n - 1, bound, True)


@dataclass
class NormSolutions:
    """Solution vectors in ambient coordinates, one per +-pair."""

    vectors: list


def enumerate_norm(lat: TraceFormLattice, t) -> NormSolutions:
    """All lattice vectors with Q(x) = t, up to sign.

    Reduces the basis first, then enumerates.  Vectors come back in
    ambient coordinates, sign-normalized (first nonzero entry positive)
    and sorted, so the result does not depend on the input basis.
    """
    t = Fraction(t)
    assert t > 0
    g2, u = lll_gram(lat.gram)
    n = len(g2)
    if lat.basis is not None:
        rows = [
            [sum(u[i][k] * Fraction(lat.basis[k][j]) for k in range(n))
             for j in range(len(lat.basis[0]))]
            for i in range(n)
        ]
    else:
        rows = [[Fraction(v) for v in row] for row in u]
    found = []
    seen = 0
    for coords, val in fincke_pohst(g2, t):
        seen += 1
        if val != t:
            continue
        vec = [Fraction(0)] * len(rows[0])
        for i, ci in enumerate(coords):
            if ci:
                for j in range(len(vec)):
                    vec[j] += ci * rows[i][j]
        lead = next(v for v in vec if v)
        if lead < 0:
            vec = [-v for v in vec]
        found.append(tuple(vec))
    found.sort()
    log.debug("enumerate_norm rank=%d t=%s candidates=%d hits=%d",
              n, t, seen, len(found))
    return NormSolutions(vectors=found)


# ---------------------------------------------------------------------------
# Integer roots and interval n-th roots


def iroot(a: int, k: int) -> int:
    """floor(a ** (1/k)) for integers a >= 0, k >= 1."""
    assert a >= 0 and k >= 1
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


def nth_root_interval(x, k: int, rel=Fraction(1, 2**24)) -> Iv:
    """Interval around x ** (1/k) for rational x > 0, relative width rel."""
    x = Fraction(x)
    assert x > 0 and k >= 1
    num, den = x.numerator, x.denominator
    lo = Fraction(iroot(num * den ** (k - 1), k), den)
    hi = lo + Fraction(1, den)
    if lo > 0 and lo**k == x:
        return Iv(lo, lo)
    while hi - lo > hi * rel:
        mid = (lo + hi) / 2
        mk = mid**k
        if mk == x:
            return Iv(mid, mid)
        if mk < x:
            lo = mid
        else:
            hi = mid
    return Iv(lo, hi)
