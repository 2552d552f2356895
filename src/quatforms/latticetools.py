"""Positive definite lattice algorithms over exact rationals.

Everything here works on Gram matrices with Fraction entries: LLL
reduction, Fincke-Pohst enumeration of short vectors, and the rescaling
trick that balances the real embeddings of a totally positive field
element before a norm-equation search.  No floating point is used on
any accept/reject path; intervals only steer the rounding step of the
rescaler, and the final ratio is certified by an exact interval.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .intervals import Iv, sqrt_interval

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
    vectors themselves.  ambient is an opaque tag for callers.
    """

    gram: list
    basis: list | None = None
    ambient: object = None

    def __post_init__(self):
        n = len(self.gram)
        assert all(len(row) == n for row in self.gram)
        if self.basis is not None:
            assert len(self.basis) == n

    @property
    def rank(self) -> int:
        return len(self.gram)


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
    paired: bool = True


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
    return NormSolutions(vectors=found, paired=True)


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


def _sqrt_of_interval(iv: Iv, width) -> Iv:
    assert iv.lo > 0
    return Iv(sqrt_interval(iv.lo, width).lo, sqrt_interval(iv.hi, width).hi)


# ---------------------------------------------------------------------------
# Rescaling multiplier


@dataclass
class RescaleResult:
    """Multiplier c and a certified interval around Tr(c^2 a) / N(c^2 a)^(1/n)."""

    c: tuple
    ratio: Iv


def _interval_solve(rows, rhs):
    """Solve a square linear system with interval entries.

    Raises ZeroDivisionError when some pivot interval straddles zero,
    which the caller treats as a request for more precision.
    """
    n = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(n)]
    for c in range(n):
        piv = None
        best = None
        for i in range(c, n):
            e = aug[i][c]
            if e.lo > 0 or e.hi < 0:
                m = abs(e.lo + e.hi)
                if best is None or m > best:
                    best, piv = m, i
        if piv is None:
            raise ZeroDivisionError("pivot interval straddles zero")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c].inv()
        aug[c] = [v * inv for v in aug[c]]
        for i in range(n):
            if i != c:
                f = aug[i][c]
                if f.lo != 0 or f.hi != 0:
                    aug[i] = [v - f * w for v, w in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def _balanced_rounding(fld, alpha, scale):
    """Integer coordinate vector c with sigma_i(c) near scale / sqrt(sigma_i(alpha)).

    Interval arithmetic drives the linear solve and the rounding; any
    ambiguity triggers a refinement, and after a few rounds a midpoint
    round is accepted (the caller certifies quality afterwards, so the
    tie-break only affects which candidate gets tried).
    """
    n = fld.degree
    unit_vecs = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    width = Fraction(1, 2**24)
    for _ in range(6):
        alpha_emb = fld.embeddings(alpha, width)
        targets = [Iv(scale, scale) / _sqrt_of_interval(iv, width) for iv in alpha_emb]
        cols = [fld.embeddings(v, width) for v in unit_vecs]
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        try:
            sol = _interval_solve(rows, targets)
        except ZeroDivisionError:
            width /= 2**8
            continue
        coords = []
        for iv in sol:
            a, b = round_frac(iv.lo), round_frac(iv.hi)
            if a != b:
                coords = None
                break
            coords.append(a)
        if coords is not None:
            return tuple(coords)
        width /= 2**8
    alpha_emb = fld.embeddings(alpha, width)
    targets = [Iv(scale, scale) / _sqrt_of_interval(iv, width) for iv in alpha_emb]
    cols = [fld.embeddings(v, width) for v in unit_vecs]
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    sol = _interval_solve(rows, targets)
    return tuple(round_frac((iv.lo + iv.hi) / 2) for iv in sol)


def rescale_multiplier(fld, alpha, C=None, eps=Fraction(1, 20), budget=40):
    """Find c with all sigma_i(c^2 * alpha) roughly equal.

    alpha must be totally positive.  Builds the real vector with entries
    C / sqrt(sigma_i(alpha)), writes it over the integral basis, and
    rounds the coordinates; C doubles until the certified ratio
    Tr(c^2 alpha) / N(c^2 alpha)^(1/n) drops to n + eps or the retry
    budget runs out, in which case the best candidate found is returned.
    The ratio can never go below n, so eps controls how tight a balance
    is demanded.
    """
    n = fld.degree
    eps = Fraction(eps)
    alpha_emb = fld.embeddings(alpha, Fraction(1, 2**16))
    assert all(iv.lo > 0 for iv in alpha_emb), "alpha is not totally positive"
    if C is None:
        top = max(iv.hi for iv in alpha_emb)
        C = Fraction(2**16) * sqrt_interval(top).hi
    C = Fraction(C)
    assert C > 0
    target = Fraction(n) + eps
    best = None
    for _ in range(budget):
        c = _balanced_rounding(fld, alpha, C)
        if any(c):
            beta = fld.mul(fld.mul(c, c), alpha)
            tr = Fraction(fld.trace(beta))
            nm = Fraction(fld.norm(beta))
            assert nm > 0
            ratio = Iv(tr, tr) / nth_root_interval(nm, n)
            res = RescaleResult(c=c, ratio=ratio)
            if ratio.hi <= target:
                return res
            if best is None or ratio.hi < best.ratio.hi:
                best = res
        C *= 2
    assert best is not None, "rescaling never produced a nonzero candidate"
    return best
