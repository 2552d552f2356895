"""Elementary integer arithmetic: symmetric residues, primality, factoring.

Modular inverses are the built-in pow(a, -1, m).

Everything is deterministic; the Pollard rho uses a fixed cycle of
increments so repeated runs factor the same way.
"""

from __future__ import annotations

from math import gcd, isqrt


def symmetric_mod(a: int, m: int) -> int:
    """Representative of a mod m in (-m/2, m/2]."""
    a %= m
    if 2 * a > m:
        a -= m
    return a


_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic for n < 3.3e24 with these bases; overwhelming otherwise
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    n += 1
    if n <= 2:
        return 2
    if n % 2 == 0:
        n += 1
    while not is_probable_prime(n):
        n += 2
    return n


def _pollard_rho(n: int) -> int:
    # Brent's variant with a deterministic increment schedule
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}."""
    if n < 1:
        raise ValueError("only integers n >= 1 are factored")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES + [41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        r = isqrt(m)
        if r * r == m:
            stack += [r, r]
            continue
        d = _pollard_rho(m)
        stack += [d, m // d]
    return dict(sorted(out.items()))
