"""Small integer arithmetic helpers: primes, factorization, lcm."""

from __future__ import annotations

from bisect import bisect_left
from itertools import compress
from math import gcd, isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_PRIMES = [2]  # every prime up to _sieved, in increasing order
_sieved = 2


def _sieve(limit: int) -> None:
    """List every prime up to limit in _PRIMES, by the sieve of Eratosthenes
    over the odd numbers (entry i stands for 2i + 1)."""
    global _sieved
    odd = bytearray([1]) * ((limit + 1) // 2)
    odd[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, len(odd), p)))
    _PRIMES[:] = [2, *compress(range(1, limit + 1, 2), odd)]
    _sieved = limit


def nth_prime(i: int) -> int:
    """The i-th prime, 1-indexed (nth_prime(1) == 2)."""
    if i < 1:
        raise ValueError(f"prime index must be >= 1, got {i}")
    while len(_PRIMES) < i:
        _sieve(2 * _sieved)
    return _PRIMES[i - 1]


def prime_index(p: int) -> int:
    """Position of the prime p in the increasing enumeration, 1-indexed."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if _sieved < p:
        # at least doubling keeps a run of rising primes to few sieves
        _sieve(max(p, 2 * _sieved))
    return bisect_left(_PRIMES, p) + 1


def factorize(n: int, trial_limit: int | None = None) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: multiplicity}.

    With `trial_limit`, trial division stops below that divisor, and what is
    left of n, if more than 1, is listed once, prime or not: it is prime when
    it is below trial_limit**2.
    """
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    stop = n if trial_limit is None else trial_limit
    while d * d <= n and d < stop:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_divisors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n)))


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m


def multiplicative_order(a: int, n: int) -> int:
    """Order of a modulo n; requires gcd(a, n) == 1."""
    if gcd(a, n) != 1:
        raise ValueError(f"{a} is not invertible modulo {n}")
    x = a % n
    k = 1
    while x != 1 % n:
        x = (x * a) % n
        k += 1
    return k


def lcm_ints(values) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out
