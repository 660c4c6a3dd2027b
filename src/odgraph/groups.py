"""Finite group families: cyclic, dihedral, unit groups, direct products.

A group is described by an immutable spec. The three one-parameter
families share the frozen base ``_Atom``, which holds ``n``, checks it
and writes the text form; each family states only its spec ``letter``,
its ``family`` name and the ``least`` n it allows. Each spec class knows
its own order and order profile, and, for the explicit graph, the
orders and labels of its elements, listed by canonical index so that
reports and exports come out deterministic:

* ``Cyclic(n)``   -- index ``i`` is the residue ``i``.
* ``Dihedral(n)`` -- indices ``0..n-1`` are the rotations ``a^i``, indices
  ``n..2n-1`` are the reflections ``a^(i-n) b``.
* ``Units(n)``    -- index ``i`` is the ``i``-th residue coprime to ``n``,
  residues taken in ascending order; orders are read off walks x, x^2, ...
  by multiplication modulo ``n``, at most one walk per cyclic subgroup.
* ``Product``     -- mixed-radix index over the factors, first factor most
  significant.

Order profiles are closed forms for every family and enumerate nothing:
Z_n has phi(d) elements of each order d | n; D_n adds its n reflections
of order 2; U(n) splits by the Chinese remainder theorem into cyclic
factors; and since |(g, h)| = lcm(|g|, |h|), the profile of a direct
product is the lcm-convolution of the factor profiles. Only the
per-element listings are subject to the enumeration bound.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar, Iterator, Union

from . import numtheory
from .errors import DomainError, EnumerationBoundError

DEFAULT_ENUMERATION_BOUND = 100_000

# most order classes of any profile (k distinct primes give 2**k)
MAX_PROFILE_CLASSES = 2**16
# most class pairs one lcm-convolution step may combine, about a second
MAX_PROFILE_PAIRS = 2**22

__all__ = [
    "Cyclic",
    "DEFAULT_ENUMERATION_BOUND",
    "Dihedral",
    "GroupSpec",
    "MAX_PROFILE_CLASSES",
    "MAX_PROFILE_PAIRS",
    "OrderProfile",
    "Product",
    "Units",
    "element_labels",
    "element_orders",
    "format_spec",
    "group_order",
    "order_profile",
]


def _lcm_convolution(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    """Profile of G x H from the profiles of G and H; DomainError when it
    would combine more than MAX_PROFILE_PAIRS pairs of classes, or once it
    has more than MAX_PROFILE_CLASSES classes."""
    pairs = len(left) * len(right)
    if pairs > MAX_PROFILE_PAIRS:
        raise DomainError(
            f"order profile needs {pairs} class pairs, over {MAX_PROFILE_PAIRS}"
        )
    result: dict[int, int] = {}
    for a, x in left.items():
        for b, y in right.items():
            m = math.lcm(a, b)
            result[m] = result.get(m, 0) + x * y
        if len(result) > MAX_PROFILE_CLASSES:
            raise DomainError(f"order profile has over {MAX_PROFILE_CLASSES} classes")
    return result


@dataclass(frozen=True)
class _Atom:
    """A one-parameter family; subclasses add no fields, only the class
    attributes below."""

    n: int
    letter: ClassVar[str]
    family: ClassVar[str]
    least: ClassVar[int]

    def __post_init__(self):
        n, family = self.n, self.family
        if isinstance(n, bool) or not isinstance(n, int):
            raise DomainError(f"{family} group requires an int parameter, got {n!r}")
        if n < self.least:
            raise DomainError(f"{family} group requires n >= {self.least}, got {n}")

    def text(self) -> str:
        return f"{self.letter}{self.n}"


class Cyclic(_Atom):
    """Additive group of residues modulo n."""

    letter, family, least = "Z", "cyclic", 1

    def order(self) -> int:
        return self.n

    def profile(self) -> dict[int, int]:
        # d(n) classes, counted before any divisor is listed; phi(d) from the
        # primes of n, so no divisor is factorized again
        factors = numtheory.factorize(self.n)
        if math.prod(k + 1 for _, k in factors) > MAX_PROFILE_CLASSES:
            raise DomainError(f"order profile has over {MAX_PROFILE_CLASSES} classes")
        primes = [p for p, _ in factors]
        profile = {}
        for d in numtheory.divisors(self.n):
            profile[d] = d
            for p in primes:
                if d % p == 0:
                    profile[d] -= profile[d] // p
        return profile

    def element_orders(self) -> tuple[int, ...]:
        n = self.n
        return tuple(n // math.gcd(i, n) for i in range(n))

    def labels(self) -> tuple[str, ...]:
        return tuple(map(str, range(self.n)))


class Dihedral(_Atom):
    """Symmetries of a regular n-gon (n >= 3); the group order is 2n."""

    letter, family, least = "D", "dihedral", 3

    def order(self) -> int:
        return 2 * self.n

    def profile(self) -> dict[int, int]:
        entries = Cyclic(self.n).profile()
        entries[2] = entries.get(2, 0) + self.n
        return entries

    def element_orders(self) -> tuple[int, ...]:
        return Cyclic(self.n).element_orders() + (2,) * self.n

    def labels(self) -> tuple[str, ...]:
        powers = ["", "a", *(f"a{i}" for i in range(2, self.n))]
        return ("e", *powers[1:], *(power + "b" for power in powers))


class Units(_Atom):
    """Multiplicative group of residues coprime to n (n >= 2)."""

    letter, family, least = "U", "units", 2

    def order(self) -> int:
        return numtheory.euler_phi(self.n)

    def profile(self) -> dict[int, int]:
        # U(n) is the product of U(p^k) over the prime powers of n; U(p^k)
        # is cyclic of order phi(p^k) for odd p, U(2) is trivial, and
        # U(2^k) is Z2 x Z_{2^(k-2)} for k >= 2
        cyclic_orders = []
        for p, k in numtheory.factorize(self.n):
            if p > 2:
                cyclic_orders.append((p - 1) * p ** (k - 1))
            elif k >= 2:
                cyclic_orders += [2, 2 ** (k - 2)]
        factors = (Cyclic(m).profile() for m in cyclic_orders)
        return functools.reduce(_lcm_convolution, factors, {1: 1})

    def _residues(self) -> list[int]:
        return [x for x in range(1, self.n) if math.gcd(x, self.n) == 1]

    def element_orders(self) -> tuple[int, ...]:
        # walk x, x^2, ..., x^m = 1 from each residue with no order yet and
        # give x^k its order m / gcd(k, m); a walk starts only where no
        # generator of <x> has an order yet, so no cyclic subgroup is
        # walked twice
        n = self.n
        residues = self._residues()
        order_of = [0] * n
        for x in residues:
            if order_of[x]:
                continue
            powers = [x]
            while powers[-1] != 1:
                powers.append(powers[-1] * x % n)
            m = len(powers)
            for k, y in enumerate(powers, 1):
                if not order_of[y]:
                    order_of[y] = m // math.gcd(k, m)
        return tuple(map(order_of.__getitem__, residues))

    def labels(self) -> tuple[str, ...]:
        return tuple(map(str, self._residues()))


@dataclass(frozen=True)
class Product:
    """Direct product of at least two factors; nested products are flattened."""

    factors: tuple["GroupSpec", ...]

    def __post_init__(self):
        flat: list[GroupSpec] = []
        for factor in self.factors:
            if isinstance(factor, Product):
                flat.extend(factor.factors)
            elif isinstance(factor, _Atom):
                flat.append(factor)
            else:
                raise DomainError(f"not a group spec: {factor!r}")
        if len(flat) < 2:
            raise DomainError("direct product requires at least 2 factors")
        object.__setattr__(self, "factors", tuple(flat))

    def text(self) -> str:
        return "x".join(factor.text() for factor in self.factors)

    def order(self) -> int:
        return math.prod(factor.order() for factor in self.factors)

    def profile(self) -> dict[int, int]:
        # |(g, h)| = lcm(|g|, |h|)
        return functools.reduce(
            _lcm_convolution, (factor.profile() for factor in self.factors)
        )

    # itertools.product varies the last factor fastest, matching the
    # mixed-radix indexing (first factor most significant)
    def element_orders(self) -> tuple[int, ...]:
        columns = [factor.element_orders() for factor in self.factors]
        return tuple(math.lcm(*combo) for combo in itertools.product(*columns))

    def labels(self) -> tuple[str, ...]:
        columns = [factor.labels() for factor in self.factors]
        return tuple(f"({','.join(combo)})" for combo in itertools.product(*columns))


GroupSpec = Union[Cyclic, Dihedral, Units, Product]


def format_spec(spec: GroupSpec) -> str:
    """Canonical text form: ``Z6``, ``D4``, ``U24``, ``Z2xZ3``."""
    return spec.text()


def group_order(spec: GroupSpec) -> int:
    """|Z_n| = n, |D_n| = 2n, |U(n)| = phi(n); products multiply."""
    return spec.order()


def _check_enumerable(spec: GroupSpec, bound: int) -> None:
    order = group_order(spec)
    if order > bound:
        raise EnumerationBoundError(
            f"group order {order} exceeds the enumeration bound {bound}"
        )


def element_orders(
    spec: GroupSpec, bound: int = DEFAULT_ENUMERATION_BOUND
) -> tuple[int, ...]:
    """Orders of all elements, aligned with canonical indices (bound-checked)."""
    _check_enumerable(spec, bound)
    return spec.element_orders()


def element_labels(
    spec: GroupSpec, bound: int = DEFAULT_ENUMERATION_BOUND
) -> tuple[str, ...]:
    """Short deterministic ASCII names of all elements, aligned with
    canonical indices (bound-checked); used in tables and graph exports."""
    _check_enumerable(spec, bound)
    return spec.labels()


class OrderProfile(Mapping):
    """Immutable map from element order to its multiplicity in the group.

    A valid profile has exactly one element of order 1, and every realized
    order divides the group order (the sum of the multiplicities).
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int]):
        items = {int(order): int(count) for order, count in entries.items()}
        total = sum(items.values())
        if items.get(1) != 1:
            raise DomainError("a group has exactly one element of order 1")
        for order, count in items.items():
            if order < 1 or count < 1:
                raise DomainError(f"bad profile entry {order}: {count}")
            if total % order != 0:
                raise DomainError(
                    f"order {order} does not divide the group order {total}"
                )
        self._entries = dict(sorted(items.items()))

    def __getitem__(self, order: int) -> int:
        return self._entries[order]

    def __iter__(self) -> Iterator[int]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        inner = ", ".join(f"{order}: {count}" for order, count in self._entries.items())
        return f"OrderProfile({{{inner}}})"


def order_profile(spec: GroupSpec) -> OrderProfile:
    """Order -> multiplicity map, in closed form for every family.

    Nothing is enumerated, so this works at any group order: Z_n and D_n
    read off the divisors of n, U(n) is a CRT product of cyclic groups,
    and a direct product convolves its factor profiles under lcm.
    """
    return OrderProfile(spec.profile())
