"""Exact interval arithmetic over Q.

Used to decide signs of algebraic numbers given by polynomial expressions
in a root isolated by a rational interval.  Intervals add and multiply;
all endpoints are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly, refine_root


@dataclass(frozen=True)
class Iv:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        assert self.lo <= self.hi

    def __add__(self, other):
        other = _as_iv(other)
        return Iv(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_iv(other)
        vals = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Iv(min(vals), max(vals))

    __rmul__ = __mul__

    def sign(self) -> int | None:
        """-1, 0 (exact zero point), +1, or None when the sign is undecided."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None


def _as_iv(v) -> Iv:
    if isinstance(v, Iv):
        return v
    f = Fraction(v)
    return Iv(f, f)


def eval_poly_interval(p: Poly, x: Iv) -> Iv:
    acc = _as_iv(Fraction(0))
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def sign_at_root(g: Poly, minpoly: Poly, root_iv: tuple[Fraction, Fraction]) -> int:
    """Sign of g(r) where r is the root of the irreducible minpoly isolated
    by root_iv.  Exact: returns 0 precisely when minpoly divides g."""
    r = g % minpoly
    if r.is_zero():
        return 0
    lo, hi = root_iv
    while True:
        s = eval_poly_interval(r, Iv(lo, hi)).sign()
        if s is not None and s != 0:
            return s
        lo, hi = refine_root(minpoly, lo, hi, (hi - lo) / 4)
