"""Elementary integer arithmetic: symmetric residues, primality, square
roots mod p, factoring.

Modular inverses are the built-in pow(a, -1, m).  The integers the
package factors are small (squarefree d, ideal and discriminant norms,
orders of residue fields), so factoring is trial division.
"""

from __future__ import annotations


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


# the first prime of every CRT run mod primes above 2^61, computed once:
# next_prime there costs more than a small charpoly or gcd
FIRST_CRT_PRIME = next_prime(1 << 61)


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod the odd prime p, for a square a (Tonelli-Shanks;
    Cohen, A Course in Computational Algebraic Number Theory, 1.5.1)."""
    a %= p
    if not a:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    # invariant: r^2 = a t, c of order 2^s and t of order below 2^s
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, u = 0, t
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {p: exponent}, by trial division."""
    if n < 1:
        raise ValueError("only integers n >= 1 are factored")
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
