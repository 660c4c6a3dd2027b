"""Closed-form degree, size, and girth results for order-divisor graphs.

Every function here mirrors an exact integer identity. Divisions are
checked: a nonzero remainder can only mean the implementation is wrong,
so it raises ArithmeticError rather than returning a rounded value.
"""

from __future__ import annotations

from . import numtheory
from .errors import DomainError
from .groups import GroupSpec, OrderProfile, group_order, order_profile

__all__ = [
    "deg_dn",
    "deg_zn",
    "deg_zn_prime_power",
    "degree_sum_zn_prime_power",
    "dn_realized_orders",
    "girth_from_profile",
    "girth_of_group",
    "girth_of_product",
    "is_bipartite_group",
    "is_path_group",
    "is_star_group",
    "order_sum_prime_power",
    "size_dn",
    "size_zn",
    "size_zn_prime_power",
]


def _exact_half(total: int) -> int:
    if total % 2:
        raise ArithmeticError(f"expected an even degree sum, got {total}")
    return total // 2


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return quotient


def _require_prime(p: int) -> None:
    if not numtheory.is_prime(p):
        raise DomainError(f"p must be prime, got {p}")


def _upper_phi_sum(n: int, m: int) -> int:
    """Sum of phi(lam * m) over all divisors lam of n // m (requires m | n)."""
    return sum(numtheory.euler_phi(lam * m) for lam in numtheory.divisors(n // m))


def deg_zn(n: int, m: int) -> int:
    """Degree of any order-m vertex in the order-divisor graph of Z_n."""
    if n < 1 or m < 1 or n % m != 0:
        raise DomainError(f"m must divide n, got n={n}, m={m}")
    return m - 2 * numtheory.euler_phi(m) + _upper_phi_sum(n, m)


def deg_zn_prime_power(p: int, k: int, i: int) -> int:
    """Degree of an order-p**i vertex in the order-divisor graph of Z_{p**k}."""
    _require_prime(p)
    if k < 1 or i < 0 or i > k:
        raise DomainError(f"need k >= 1 and 0 <= i <= k, got k={k}, i={i}")
    if i == 0:
        return p**k - 1
    return p**k + p ** (i - 1) - p**i


def degree_sum_zn_prime_power(p: int, k: int) -> int:
    """Sum of all vertex degrees in the order-divisor graph of Z_{p**k}."""
    _require_prime(p)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    return _exact_div(2 * p ** (2 * k) - 2, p + 1)


def order_sum_prime_power(p: int, k: int) -> int:
    """Sum of the element orders of Z_{p**k}."""
    _require_prime(p)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    return _exact_div(p ** (2 * k + 1) + 1, p + 1)


def size_zn(n: int) -> int:
    """Edge count of the order-divisor graph of Z_n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    phi = numtheory.euler_phi
    total = sum(
        (m - 2 * phi(m) + _upper_phi_sum(n, m)) * phi(m)
        for m in numtheory.divisors(n)
    )
    return _exact_half(total)


def size_zn_prime_power(p: int, k: int) -> int:
    """Edge count of the order-divisor graph of Z_{p**k}, in closed form."""
    _require_prime(p)
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    return _exact_div(p ** (2 * k) - 1, p + 1)


def dn_realized_orders(n: int) -> tuple[int, ...]:
    """Element orders realized in the dihedral group of order 2n."""
    if n < 3:
        raise DomainError(f"dihedral group requires n >= 3, got {n}")
    return tuple(sorted({2, *numtheory.divisors(n)}))


def deg_dn(n: int, m: int) -> int:
    """Degree of any order-m vertex in the order-divisor graph of D_n."""
    if n < 3:
        raise DomainError(f"dihedral group requires n >= 3, got {n}")
    if m not in dn_realized_orders(n):
        raise DomainError(
            f"order {m} is not realized in the dihedral group of order {2 * n}"
        )
    phi = numtheory.euler_phi
    if m == 1:
        return 2 * n - 1
    if n % 2:
        # odd n: the order-2 class is exactly the n reflections
        if m == 2:
            return 1
        return m - 2 * phi(m) + _upper_phi_sum(n, m)
    if m == 2:
        return sum(phi(2 * lam) for lam in numtheory.divisors(n // 2))
    if m % 2:
        return m - 2 * phi(m) + _upper_phi_sum(n, m)
    # even m > 2: the n reflections sit below every even-order rotation
    return n + m - 2 * phi(m) + _upper_phi_sum(n, m)


def size_dn(n: int) -> int:
    """Edge count of the order-divisor graph of the dihedral group D_n."""
    if n < 3:
        raise DomainError(f"dihedral group requires n >= 3, got {n}")
    phi = numtheory.euler_phi
    if n % 2:
        total = 3 * n - 1 + sum(
            (m - 2 * phi(m) + _upper_phi_sum(n, m)) * phi(m)
            for m in numtheory.divisors(n)
            if m > 1
        )
        return _exact_half(total)
    reflection_block = (n + 1) * sum(phi(2 * lam) for lam in numtheory.divisors(n // 2))
    odd_block = sum(
        (m - 2 * phi(m) + _upper_phi_sum(n, m)) * phi(m)
        for m in numtheory.divisors(n)
        if m > 1 and m % 2
    )
    even_block = sum(
        (n + m - 2 * phi(m) + _upper_phi_sum(n, m)) * phi(m)
        for m in numtheory.divisors(n)
        if m > 2 and m % 2 == 0
    )
    return _exact_half(2 * n - 1 + reflection_block + odd_block + even_block)


def girth_from_profile(profile: OrderProfile) -> int:
    """Girth (0 = acyclic) decided from the order profile alone.

    A composite realized order m forces a triangle: the identity, an
    element of order m and one of order p for a prime p | m, p < m. With
    every order prime, no two non-identity orders divide one another, so
    the graph is a star.
    """
    return 3 if any(numtheory.is_composite(m) for m in profile) else 0


def girth_of_group(spec: GroupSpec) -> int:
    """Girth of the order-divisor graph, from the order profile."""
    return girth_from_profile(order_profile(spec))


def girth_of_product(left: GroupSpec, right: GroupSpec) -> int:
    """Girth of the order-divisor graph of a direct product of two groups.

    The graph has a triangle exactly when either factor realizes a
    composite order, or the factors realize two distinct primes.
    """
    left_profile = order_profile(left)
    right_profile = order_profile(right)
    for profile in (left_profile, right_profile):
        if any(numtheory.is_composite(m) for m in profile):
            return 3
    left_primes = {m for m in left_profile if numtheory.is_prime(m)}
    right_primes = {m for m in right_profile if numtheory.is_prime(m)}
    if left_primes and right_primes and len(left_primes | right_primes) >= 2:
        return 3
    return 0


def is_star_group(spec: GroupSpec) -> bool:
    """True when every non-identity element order is prime."""
    return all(m == 1 or numtheory.is_prime(m) for m in order_profile(spec))


def is_bipartite_group(spec: GroupSpec) -> bool:
    """True exactly when the graph is a star: any edge among non-identity
    vertices closes a triangle through the identity, which kills both
    bipartiteness and acyclicity at once."""
    return is_star_group(spec)


def is_path_group(spec: GroupSpec) -> bool:
    """True when the order-divisor graph is a path, i.e. |G| is 2 or 3."""
    return group_order(spec) in (2, 3)
