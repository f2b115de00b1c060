"""Small integer arithmetic helpers: primes, factorization, lcm."""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, compress, islice
from math import gcd, isqrt


def _primes_upto(limit: int) -> list[int]:
    """Every prime up to limit, by the sieve of Eratosthenes over the odd
    numbers (entry i stands for 2i + 1)."""
    odd = bytearray([1]) * ((limit + 1) // 2)
    odd[0] = 0
    for i in range(1, (isqrt(limit) + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2::p] = bytes(len(range(p * p // 2, len(odd), p)))
    return [2, *compress(range(1, limit + 1, 2), odd)]


# Trial division runs over _SMALL_PRIMES first, so group orders, short
# literals and numbers left below _SMALL_BOUND**2 by their small factors never
# start the growing sieve.  Past them, it divides by the sieved primes up to
# _SIEVE_CAP (78,498 of them below 10^6, against 500,000 odd numbers), then by
# the odd numbers past the sieve.
_SMALL_BOUND = 1000
_SMALL_PRIMES = tuple(_primes_upto(_SMALL_BOUND - 1))
_SIEVE_CAP = 10**6
_PRIMES = [2]  # every prime up to _sieved, in increasing order
_sieved = 2


def _sieve(limit: int) -> None:
    """List every prime up to limit in _PRIMES."""
    global _sieved
    _PRIMES[:] = _primes_upto(limit)
    _sieved = limit


def _large_trial_divisors(n: int, stop: int):
    """Ascending trial divisors past _SMALL_PRIMES and below stop, among them
    every prime up to the square root of n."""
    bound = min(isqrt(n), stop - 1)
    if bound < _SMALL_BOUND:  # every prime up to bound is small
        return ()
    top = min(bound, max(_SIEVE_CAP, _sieved))
    if _sieved < top:
        # at least doubling keeps a run of rising bounds to few sieves
        _sieve(min(max(top, 2 * _sieved), _SIEVE_CAP))
    return chain(islice(_PRIMES, len(_SMALL_PRIMES), bisect_right(_PRIMES, top)),
                 range(top + 1 | 1, bound + 1, 2))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in _SMALL_PRIMES:
        if d * d > n:
            return True
        if n % d == 0:
            return False
    return all(n % d for d in _large_trial_divisors(n, n))


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
    stop = n if trial_limit is None else trial_limit
    for d in _SMALL_PRIMES:
        if d * d > n or d >= stop:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    else:
        for d in _large_trial_divisors(n, stop):
            if d * d > n:
                break
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
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
