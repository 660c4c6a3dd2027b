"""Number-theory primitives, checked against brute-force oracles."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from odgraph.errors import DomainError
from odgraph.numtheory import (
    divisors,
    euler_phi,
    factorize,
    is_composite,
    is_prime,
    multiplicative_order,
)


def phi_oracle(n: int) -> int:
    """Count coprime residues directly."""
    return sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


def factorize_oracle(n: int) -> tuple[tuple[int, int], ...]:
    """Divide by 2 and by every odd number up to the square root."""
    factors = []
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    """A prime in [lo, hi), proved by the trial-division oracle."""
    while True:
        q = rng.randrange(lo, hi)
        if factorize_oracle(q) == ((q, 1),):
            return q


def order_oracle(x: int, n: int) -> int:
    """Walk the powers of x until the first 1."""
    value = x % n
    t = 1
    while value != 1 % n:
        value = value * x % n
        t += 1
    return t


@pytest.mark.parametrize(
    "n,expected", [(1, 1), (2, 1), (6, 2), (12, 4), (24, 8), (97, 96), (360, 96)]
)
def test_euler_phi_values(n, expected):
    assert euler_phi(n) == expected
    assert phi_oracle(n) == expected


def test_euler_phi_matches_oracle_up_to_400():
    for n in range(1, 401):
        assert euler_phi(n) == phi_oracle(n)


def test_euler_phi_rejects_nonpositive():
    with pytest.raises(DomainError):
        euler_phi(0)
    with pytest.raises(DomainError):
        euler_phi(-6)


def test_totient_divisor_sum_identity():
    # sum of phi(d) over the divisors of n recovers n
    for n in range(1, 10_001):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_phi_multiplicative_on_coprime_pairs():
    for a in range(1, 301):
        for b in range(a, 301):
            if math.gcd(a, b) == 1:
                assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, (1,)),
        (12, (1, 2, 3, 4, 6, 12)),
        (49, (1, 7, 49)),
        (97, (1, 97)),
    ],
)
def test_divisors_values(n, expected):
    assert divisors(n) == expected


def test_divisors_sorted_and_paired():
    for n in range(1, 501):
        divs = divisors(n)
        assert list(divs) == sorted(divs)
        assert all(n % d == 0 for d in divs)
        # d <-> n/d pairing covers every divisor
        assert sorted(n // d for d in divs) == list(divs)


@given(st.integers(min_value=1, max_value=10**6))
def test_divisor_sum_identity_random(n):
    assert sum(euler_phi(d) for d in divisors(n)) == n


def test_factorize_values():
    assert factorize(1) == ()
    assert factorize(2) == ((2, 1),)
    assert factorize(360) == ((2, 3), (3, 2), (5, 1))
    assert factorize(9973) == ((9973, 1),)


def test_factorize_recomposes():
    for n in range(1, 2001):
        product = 1
        for p, e in factorize(n):
            product *= p**e
        assert product == n


def test_factorize_up_to_the_trial_division_ceiling():
    # every n below 10**14 factors, including the square of the largest
    # prime below the 10**7 divisor limit and a prime just under 10**14
    assert factorize(9999991**2) == ((9999991, 2),)
    assert factorize(99999999999973) == ((99999999999973, 1),)
    assert factorize(1000003 * 1000033) == ((1000003, 1), (1000033, 1))
    # past 10**14 a number still factors when its large cofactor is prime
    assert factorize(2**70) == ((2, 70),)
    assert factorize(2**5 * 99999999999973) == ((2, 5), (99999999999973, 1))
    # a prime cofactor past 10**14 is proved prime by Miller-Rabin
    assert factorize(10**18 + 3) == ((10**18 + 3, 1),)
    assert factorize(2**61 - 1) == ((2**61 - 1, 1),)
    assert factorize(2**5 * (10**18 + 9)) == ((2, 5), (10**18 + 9, 1))
    assert factorize(1000003 * (2**61 - 1)) == ((1000003, 1), (2**61 - 1, 1))


def test_factorize_matches_trial_division_below_200000():
    try:
        for n in range(1, 200_000):
            assert factorize(n) == factorize_oracle(n)
    finally:
        factorize.cache_clear()


def test_factorize_matches_trial_division_on_random_numbers():
    rng = random.Random(0)
    for _ in range(100):
        n = rng.randrange(1, 10**13)
        assert factorize(n) == factorize_oracle(n)


def test_factorize_finds_a_prime_near_10_6_beside_a_large_prime():
    # trial division finds p; the cofactor q is then accepted by Miller-Rabin
    rng = random.Random(1)
    for _ in range(10):
        p = random_prime(rng, 10**6 - 10**5, 10**6 + 10**5)
        q = random_prime(rng, 10**7, 10**11)
        assert factorize(p * q) == ((p, 1), (q, 1))


@pytest.mark.parametrize(
    "n,cofactor",
    [
        (10000019**2, 10000019**2),  # square of the first prime past 10**7
        (6 * 10000019 * 10000079, 10000019 * 10000079),
        # psi_12 = 399165290221 * 798330580441, a strong pseudoprime to every
        # base 2..37: only base 41 shows it composite
        (318665857834031151167461, 318665857834031151167461),
        # a Mersenne prime past the deterministic Miller-Rabin limit
        (2**89 - 1, 2**89 - 1),
    ],
)
def test_factorize_refuses_past_the_ceiling(n, cofactor):
    with pytest.raises(DomainError, match=f"cofactor {cofactor} "):
        factorize(n)


def test_primality_small_values():
    assert not is_prime(1) and not is_composite(1)
    assert is_prime(2) and not is_composite(2)
    assert is_prime(7) and not is_composite(7)
    assert not is_prime(9) and is_composite(9)
    # Carmichael numbers, and 151 * 751 * 28351, a strong pseudoprime to the
    # bases 2, 3, 5 and 7
    for n in (561, 41041, 3215031751):
        assert not is_prime(n) and is_composite(n)


def test_primality_versus_divisor_count():
    for n in range(1, 501):
        count = len(divisors(n))
        assert is_prime(n) == (count == 2)
        assert is_composite(n) == (count > 2)


@pytest.mark.parametrize("x,n,expected", [(1, 5, 1), (2, 7, 3), (3, 16, 4)])
def test_multiplicative_order_values(x, n, expected):
    assert multiplicative_order(x, n) == expected
    assert order_oracle(x, n) == expected


def test_multiplicative_order_rejects_common_factor():
    with pytest.raises(DomainError):
        multiplicative_order(2, 8)
    with pytest.raises(DomainError):
        multiplicative_order(6, 9)


def test_multiplicative_order_divides_phi():
    for n in range(1, 501):
        phi = euler_phi(n)
        for x in range(1, n + 1):
            if math.gcd(x, n) == 1:
                t = multiplicative_order(x, n)
                assert phi % t == 0
                assert pow(x, t, n) == 1 % n


def test_multiplicative_order_matches_oracle():
    for n in range(2, 101):
        for x in range(1, n):
            if math.gcd(x, n) == 1:
                assert multiplicative_order(x, n) == order_oracle(x, n)
