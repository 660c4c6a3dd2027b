"""Closed-form degree, size, girth and chromatic numbers of order-divisor graphs.

This is the formula route: it reads order profiles and closed forms, never
the explicit graph. All vertices of one order share a degree, so every edge
count (Z_n, D_n, any profile) is half the class-weighted degree sum. A Z_n
or D_n degree is a product over the factorization of n (see ``_deg_zn``),
so it costs O(omega(n)), and a size O(d(n) * omega(n)). Any profile's
degree table costs O(classes * omega) (see ``degree_via_profile``).
``prime_power_identities`` gives the paper's closed forms for Z_{p**k}:
each class degree, the degree sum, the order sum and the size.

Every function here mirrors an exact integer identity. Divisions are
checked: a nonzero remainder can only mean the implementation is wrong,
so it raises ArithmeticError rather than returning a rounded value.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from typing import Any

from . import numtheory
from .errors import DomainError
from .groups import (
    Cyclic,
    Dihedral,
    GroupSpec,
    OrderProfile,
    Product,
    group_order,
    order_profile,
)

__all__ = [
    "chromatic_from_profile",
    "deg_dn",
    "deg_zn",
    "degree_via_profile",
    "girth_from_profile",
    "girth_of_group",
    "girth_of_product",
    "is_bipartite_group",
    "is_path_group",
    "is_star_group",
    "is_star_profile",
    "prime_power_identities",
    "size_dn",
    "size_via_profile",
    "size_zn",
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


def _deg_zn(n: int, m: int) -> int:
    """Neighbours of an order-m vertex of Z_n: the m elements whose order
    divides m and those whose order m divides, less the phi(m) of order m
    in each. Over p**e || n with p**a || m, both counts are products:
    phi(m) of p**a - p**(a-1), the multiples of p**e - p**(a-1)."""
    phi = upper = 1
    for p, e in numtheory.factorize(n):
        g = math.gcd(m, p**e)  # p**a, as m divides n; g // p is 0 if a = 0
        phi *= g - g // p
        upper *= p**e - g // p
    return m - 2 * phi + upper


def deg_zn(n: int, m: int) -> int:
    """Degree of any order-m vertex in the order-divisor graph of Z_n."""
    if n < 1 or m < 1 or n % m != 0:
        raise DomainError(f"m must divide n, got n={n}, m={m}")
    return _deg_zn(n, m)


def prime_power_identities(p: int, k: int) -> dict[str, Any]:
    """The paper's closed forms for Z_{p**k}: the degree of an order-p**i
    vertex for each 0 <= i <= k, the degree sum, the order sum and the size."""
    if not numtheory.is_prime(p):
        raise DomainError(f"p must be prime, got {p}")
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    top = p**k
    degrees = {p**i: top + p ** (i - 1) - p**i for i in range(1, k + 1)}
    return {
        "degrees": {1: top - 1, **degrees},
        "degree_sum": _exact_div(2 * p ** (2 * k) - 2, p + 1),
        "order_sum": _exact_div(p ** (2 * k + 1) + 1, p + 1),
        "size": _exact_div(p ** (2 * k) - 1, p + 1),
    }


def size_zn(n: int) -> int:
    """Edge count of the order-divisor graph of Z_n."""
    return _half_degree_sum(Cyclic(n).profile(), functools.partial(_deg_zn, n))


def _deg_dn(n: int, m: int) -> int:
    if m == 2 and n % 2:
        # odd n: the order-2 class is exactly the n reflections
        return 1
    # the rotations form Z_n; the n reflections, of order 2, are adjacent
    # to the identity and to every rotation of even order above 2
    return _deg_zn(n, m) + (n if m == 1 or (m > 2 and m % 2 == 0) else 0)


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
    return _half_degree_sum(Dihedral(n).profile(), functools.partial(_deg_dn, n))


def _prime_passes(profile: OrderProfile) -> Iterator[tuple[int, list[int]]]:
    """Each realized prime p with its realized multiples, ascending. Realized
    orders are closed under divisors, so the primes are the orders that no
    smaller prime divides, and no order is factorized. A profile not closed
    under divisors raises DomainError, unless only primality would show it
    ({1, 4} looks like {1, 2}, and 4 is then taken for a prime)."""
    orders = sorted(profile)
    primes: list[int] = []
    for m in orders:
        if m > 1 and all(m % p for p in primes):
            if any(math.gcd(m, p) > 1 for p in primes):
                raise DomainError(f"order {m} has an unrealized proper divisor")
            primes.append(m)
    realized = set(orders)
    for p in primes:
        multiples = [m for m in orders if m % p == 0]
        for m in multiples:
            if m // p not in realized:
                raise DomainError(f"order {m} is realized but not {m // p}")
        yield p, multiples


def degree_via_profile(profile: OrderProfile) -> dict[int, int]:
    """Degree of every order class, ``{order: degree}``, from the profile alone.

    An order-m vertex is adjacent to the elements whose order divides m
    (down[m]) or is a multiple of m (up[m]), less its own class. Both sums
    are zeta transforms, one ascending and one descending pass per prime, so
    the table costs O(classes * omega).
    """
    down, up = dict(profile), dict(profile)
    for p, multiples in _prime_passes(profile):
        for m in multiples:
            down[m] += down[m // p]
        for m in reversed(multiples):
            up[m // p] += up[m]
    return {m: down[m] + up[m] - 2 * count for m, count in profile.items()}


def chromatic_from_profile(profile: OrderProfile) -> int:
    """Chromatic number: 1 + max Omega(m) over the realized orders, with
    Omega(m) the prime factors of m counted with multiplicity.

    Order classes are independent sets and edges follow divisibility, so the
    graph is a comparability graph with independent sets substituted for its
    vertices, which is perfect (Lovasz 1972): its chromatic number is its
    largest clique, one vertex per order of the longest divisor chain.
    """
    height = dict.fromkeys(profile, 1)  # 1 + Omega(m), the chain 1 | p | ... | m
    for p, multiples in _prime_passes(profile):
        for m in multiples:
            height[m] = height[m // p] + 1
    return max(height.values(), default=0)


def size_via_profile(profile: OrderProfile) -> int:
    """Edge count from the profile: half the class-weighted degree sum."""
    return _half_degree_sum(profile, degree_via_profile(profile).__getitem__)


def is_star_profile(orders: Iterable[int]) -> bool:
    """The star and girth rule: True when no realized order above 1 (each
    given once) divides another. Such a pair and the identity form a
    triangle; with none, only the identity has neighbours."""
    seen: list[int] = []  # the orders above 1 so far, ascending
    for m in sorted(orders):
        if any(m % k == 0 for k in seen):
            return False
        if m > 1:
            seen.append(m)
    return True


def girth_from_profile(profile: OrderProfile) -> int:
    """Girth (0 = acyclic) decided from the order profile alone: 0 for a
    star, else 3 (see ``is_star_profile``)."""
    return 0 if is_star_profile(profile) else 3


def girth_of_group(spec: GroupSpec) -> int:
    """Girth of the order-divisor graph, from the order profile."""
    return girth_from_profile(order_profile(spec))


def girth_of_product(left: GroupSpec, right: GroupSpec) -> int:
    """Girth of the order-divisor graph of a direct product of two groups."""
    return girth_of_group(Product((left, right)))


def is_star_group(spec: GroupSpec) -> bool:
    """True when the order-divisor graph is a star (see ``is_star_profile``)."""
    return is_star_profile(order_profile(spec))


def is_bipartite_group(spec: GroupSpec) -> bool:
    """True exactly when the graph is a star: any edge among non-identity
    vertices closes a triangle through the identity, which kills both
    bipartiteness and acyclicity at once."""
    return is_star_group(spec)


def is_path_group(spec: GroupSpec) -> bool:
    """True when the order-divisor graph is a path, i.e. |G| is 2 or 3."""
    return group_order(spec) in (2, 3)
