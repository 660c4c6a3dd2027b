"""Closed-form degree, size, and girth results for order-divisor graphs.

This is the formula route: it reads order profiles and closed forms, never
the explicit graph. All vertices of one order share a degree, so every edge
count (Z_n, D_n, any profile) is half the class-weighted degree sum.

Every function here mirrors an exact integer identity. Divisions are
checked: a nonzero remainder can only mean the implementation is wrong,
so it raises ArithmeticError rather than returning a rounded value.
"""

from __future__ import annotations

import functools
from collections.abc import Callable, Iterable, Mapping

from . import numtheory
from .errors import DomainError
from .groups import (
    Cyclic,
    Dihedral,
    GroupSpec,
    OrderProfile,
    group_order,
    order_profile,
)

__all__ = [
    "deg_dn",
    "deg_zn",
    "deg_zn_prime_power",
    "degree_sum_zn_prime_power",
    "degree_via_profile",
    "dn_realized_orders",
    "girth_from_profile",
    "girth_of_group",
    "girth_of_product",
    "is_bipartite_group",
    "is_path_group",
    "is_star_group",
    "order_sum_prime_power",
    "size_dn",
    "size_via_profile",
    "size_zn",
    "size_zn_prime_power",
]


def _half_degree_sum(counts: Mapping[int, int], degree: Callable[[int], int]) -> int:
    """Edge count: half of sum(count * degree) over the order classes."""
    total = sum(count * degree(m) for m, count in counts.items())
    if total % 2:
        raise ArithmeticError(f"expected an even degree sum, got {total}")
    return total // 2


def _exact_div(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        raise ArithmeticError(f"{numerator} is not divisible by {denominator}")
    return quotient


def _require_prime_power(p: int, k: int) -> None:
    if not numtheory.is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")


def _upper_phi_sum(n: int, m: int) -> int:
    """Sum of phi(lam * m) over all divisors lam of n // m (requires m | n)."""
    return sum(numtheory.euler_phi(lam * m) for lam in numtheory.divisors(n // m))


def _deg_zn(n: int, m: int) -> int:
    return m - 2 * numtheory.euler_phi(m) + _upper_phi_sum(n, m)


def deg_zn(n: int, m: int) -> int:
    """Degree of any order-m vertex in the order-divisor graph of Z_n."""
    if n < 1 or m < 1 or n % m != 0:
        raise DomainError(f"m must divide n, got n={n}, m={m}")
    return _deg_zn(n, m)


def deg_zn_prime_power(p: int, k: int, i: int) -> int:
    """Degree of an order-p**i vertex in the order-divisor graph of Z_{p**k}."""
    _require_prime_power(p, k)
    if i < 0 or i > k:
        raise DomainError(f"need 0 <= i <= k, got k={k}, i={i}")
    if i == 0:
        return p**k - 1
    return p**k + p ** (i - 1) - p**i


def degree_sum_zn_prime_power(p: int, k: int) -> int:
    """Sum of all vertex degrees in the order-divisor graph of Z_{p**k}."""
    _require_prime_power(p, k)
    return _exact_div(2 * p ** (2 * k) - 2, p + 1)


def order_sum_prime_power(p: int, k: int) -> int:
    """Sum of the element orders of Z_{p**k}."""
    _require_prime_power(p, k)
    return _exact_div(p ** (2 * k + 1) + 1, p + 1)


def size_zn(n: int) -> int:
    """Edge count of the order-divisor graph of Z_n."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return _half_degree_sum(Cyclic(n).profile(), functools.partial(_deg_zn, n))


def size_zn_prime_power(p: int, k: int) -> int:
    """Edge count of the order-divisor graph of Z_{p**k}, in closed form."""
    _require_prime_power(p, k)
    return _exact_div(p ** (2 * k) - 1, p + 1)


def dn_realized_orders(n: int) -> tuple[int, ...]:
    """Element orders realized in the dihedral group of order 2n."""
    if n < 3:
        raise DomainError(f"dihedral group requires n >= 3, got {n}")
    return tuple(sorted({2, *numtheory.divisors(n)}))


def _deg_dn(n: int, m: int) -> int:
    if m == 1:
        return 2 * n - 1
    if m == 2:
        # odd n: the order-2 class is exactly the n reflections
        if n % 2:
            return 1
        return sum(numtheory.euler_phi(2 * lam) for lam in numtheory.divisors(n // 2))
    # m > 2: the n reflections also sit below every even-order rotation
    return _deg_zn(n, m) + (0 if m % 2 else n)


def deg_dn(n: int, m: int) -> int:
    """Degree of any order-m vertex in the order-divisor graph of D_n."""
    if n < 3:
        raise DomainError(f"dihedral group requires n >= 3, got {n}")
    if not (m == 2 or (m >= 1 and n % m == 0)):
        raise DomainError(
            f"order {m} is not realized in the dihedral group of order {2 * n}"
        )
    return _deg_dn(n, m)


def size_dn(n: int) -> int:
    """Edge count of the order-divisor graph of the dihedral group D_n."""
    if n < 3:
        raise DomainError(f"dihedral group requires n >= 3, got {n}")
    return _half_degree_sum(Dihedral(n).profile(), functools.partial(_deg_dn, n))


def degree_via_profile(profile: OrderProfile, m: int) -> int:
    """Degree of any order-m vertex, computed from the order profile alone."""
    if m not in profile:
        raise DomainError(f"order {m} is not realized in the profile")
    return sum(
        count
        for order, count in profile.items()
        if order != m and (order % m == 0 or m % order == 0)
    )


def size_via_profile(profile: OrderProfile) -> int:
    """Edge count from the profile, by summing degrees over order classes."""
    return _half_degree_sum(profile, functools.partial(degree_via_profile, profile))


def _has_composite(orders: Iterable[int]) -> bool:
    """The girth and star rule. A composite order m forces a triangle: the
    identity, an element of order m and one of prime order p | m. With every
    order prime, no two non-identity orders divide one another: a star."""
    return any(numtheory.is_composite(m) for m in orders)


def girth_from_profile(profile: OrderProfile) -> int:
    """Girth (0 = acyclic) decided from the order profile alone: 3 when
    some realized order is composite, else 0 (see ``_has_composite``)."""
    return 3 if _has_composite(profile) else 0


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
    if _has_composite(left_profile) or _has_composite(right_profile):
        return 3
    # no composite order: every non-identity order is prime
    left_primes = set(left_profile) - {1}
    right_primes = set(right_profile) - {1}
    if left_primes and right_primes and len(left_primes | right_primes) >= 2:
        return 3
    return 0


def is_star_group(spec: GroupSpec) -> bool:
    """True when every non-identity element order is prime."""
    return not _has_composite(order_profile(spec))


def is_bipartite_group(spec: GroupSpec) -> bool:
    """True exactly when the graph is a star: any edge among non-identity
    vertices closes a triangle through the identity, which kills both
    bipartiteness and acyclicity at once."""
    return is_star_group(spec)


def is_path_group(spec: GroupSpec) -> bool:
    """True when the order-divisor graph is a path, i.e. |G| is 2 or 3."""
    return group_order(spec) in (2, 3)
