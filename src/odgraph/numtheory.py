"""Exact integer number theory: totients, divisors, factorization, orders.

Everything works on plain Python ints, which are arbitrary precision, so
there is no overflow to guard against; the ceiling is factorization, which
divides by trial up to 10**7 and proves a large cofactor prime by
deterministic Miller-Rabin below 3.3e24 (see ``factorize``).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "divisors",
    "euler_phi",
    "factorize",
    "is_composite",
    "is_prime",
    "multiplicative_order",
]

_TRIAL_DIVISION_LIMIT = 10**7
# Trial division to the square root of a prime cofactor costs about as much
# as the primality test between 10**5 and 10**6, and less below.
_MR_FLOOR = 10**6
# The first 13 primes are exact witnesses below _MR_LIMIT (Sorenson and
# Webster 2015); without 41 the strong pseudoprime psi_12 ~ 3.19e23 passes.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _require_natural(n: int, name: str = "n") -> None:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"{name} must be an int, got {type(n).__name__}")
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n as ((prime, exponent), ...), primes ascending.

    Trial division stops at divisor 10**7 (about a second of work), so every
    n < 10**14 factors; a larger n factors only if what remains after its
    primes below 10**7 is 1 or a prime below 3.3e24, else DomainError. A
    cofactor of 10**6 or more is tested by deterministic Miller-Rabin before
    the trial divisors and after each prime divided out, and trial division
    stops as soon as the test proves it prime.
    """
    _require_natural(n)
    factors = []
    m = n
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
    p = 5
    stop = _trial_stop(m)
    while p <= stop:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
            stop = _trial_stop(m)
        p += 2 if p % 6 == 5 else 4
    if stop and p * p <= m:
        raise DomainError(
            f"cannot factor {n}: cofactor {m} has no prime factor up to "
            f"{_TRIAL_DIVISION_LIMIT} and is too large to be proved prime"
        )
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def _trial_stop(m: int) -> int:
    """Last trial divisor for a cofactor m prime to 6, or 0 once m is proved prime."""
    if _MR_FLOOR <= m < _MR_LIMIT and _is_prime_mr(m):
        return 0
    return min(math.isqrt(m), _TRIAL_DIVISION_LIMIT)


def _is_prime_mr(m: int) -> bool:
    """Deterministic Miller-Rabin test of an odd m with 41 < m < _MR_LIMIT."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def euler_phi(n: int) -> int:
    """Number of integers in [1, n] coprime to n."""
    phi = n
    for p, _ in factorize(n):
        phi -= phi // p
    return phi


@lru_cache(maxsize=None)
def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, in ascending order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def is_prime(n: int) -> bool:
    """True when n has exactly two divisors; 1 is not prime."""
    factors = factorize(n)
    return len(factors) == 1 and factors[0][1] == 1


def is_composite(n: int) -> bool:
    """True when n > 1 and n is not prime; 1 is neither prime nor composite."""
    return n > 1 and not is_prime(n)


def multiplicative_order(x: int, n: int) -> int:
    """Least t >= 1 with x**t congruent to 1 modulo n.

    Requires gcd(x, n) == 1; the result always divides euler_phi(n).
    """
    _require_natural(x, "x")
    _require_natural(n, "n")
    g = math.gcd(x, n)
    if g != 1:
        raise DomainError(f"multiplicative order needs gcd(x, n) == 1, got gcd = {g}")
    if n == 1:
        return 1
    t = euler_phi(n)
    return _reduce_order(x, n, t, [p for p, _ in factorize(t)])


def _reduce_order(x: int, n: int, t: int, primes: list[int]) -> int:
    """Order of x modulo n, given x**t == 1 (mod n) and the primes of t.

    Divides t by each prime while x**(t/p) is still 1, which leaves the
    least such exponent; callers that share n compute t and primes once.
    """
    for p in primes:
        while t % p == 0 and pow(x, t // p, n) == 1:
            t //= p
    return t
