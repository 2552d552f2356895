from math import isqrt

from quatforms.arith import factor_int, sqrt_mod

LIMIT = 2 * 10**5


def _sieve(n):
    """is_prime[k] for 0 <= k <= n, by the sieve of Eratosthenes."""
    is_prime = bytearray([1]) * (n + 1)
    is_prime[0:2] = b"\x00\x00"
    for p in range(2, isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytearray(len(range(p * p, n + 1, p)))
    return is_prime


def test_factor_int_by_trial_division():
    # every n up to 2 * 10^5 factors into primes, in increasing order,
    # that multiply back to n
    is_prime = _sieve(LIMIT)
    for n in range(1, LIMIT + 1):
        fac = factor_int(n)
        assert list(fac) == sorted(fac)
        prod = 1
        for p, e in fac.items():
            assert is_prime[p] and e >= 1, n
            prod *= p**e
        assert prod == n


def test_sqrt_mod_every_square():
    # p = 3 mod 4 skips the Tonelli-Shanks loop; 17, 41, 97 and 257 have
    # p - 1 divisible by 8 or more, so it runs several rounds
    for p in (3, 5, 7, 13, 17, 41, 97, 257, 7919):
        for a in range(p):
            if a and pow(a, (p - 1) // 2, p) != 1:
                continue
            r = sqrt_mod(a, p)
            assert 0 <= r < p and r * r % p == a, (a, p)
