"""Independent reference route for checking odgraph's outputs.

Nothing here imports odgraph. Groups are described by atoms
``(family, n, factorization)`` and every expected value comes from the
structure of the group, not from odgraph's formulas or its explicit graph:

* cyclic and dihedral order profiles come from the factorization of n;
* U(n) is split by the Chinese remainder theorem into cyclic factors
  (U(2^e) = Z2 x Z_{2^(e-2)} for e >= 3), and products of groups combine
  their profiles by lcm convolution;
* the size of OD(Z_n) uses the multiplicative identity
  sum_{m | k | n} phi(k) = prod_p (p^e - p^(a-1)), so it costs O(d(n) * w(n))
  instead of a double sum over divisors;
* primality is deterministic Miller-Rabin.
"""

from __future__ import annotations

import math
from itertools import product as cartesian

Factorization = tuple[tuple[int, int], ...]
Atom = tuple[str, int, Factorization]
Profile = dict[int, int]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # the bases above are exact below this


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n below 3.3e24."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is past the deterministic Miller-Rabin range")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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
    """Smallest prime >= n."""
    while not is_prime(n):
        n += 1
    return n


def factor_small(n: int) -> Factorization:
    """Trial-division factorization; only for the small n the generators use."""
    if n > 10**10:
        raise ValueError(f"{n} is too large for trial division; pass its factorization")
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def value_of(fact: Factorization) -> int:
    return math.prod(p**e for p, e in fact)


def divisor_count(fact: Factorization) -> int:
    return math.prod(e + 1 for _, e in fact)


def phi_of(fact: Factorization) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in fact if e)


def _divisor_exponents(fact: Factorization):
    return cartesian(*(range(e + 1) for _, e in fact))


def cyclic_profile(fact: Factorization) -> Profile:
    """Order -> multiplicity for Z_n: phi(d) elements of each order d | n."""
    primes = [p for p, _ in fact]
    profile = {}
    for exps in _divisor_exponents(fact):
        d = math.prod(p**a for p, a in zip(primes, exps))
        profile[d] = math.prod(p ** (a - 1) * (p - 1) for p, a in zip(primes, exps) if a)
    return profile


def combine(left: Profile, right: Profile) -> Profile:
    """Profile of a direct product: orders combine by lcm."""
    out: Profile = {}
    for a, ca in left.items():
        for b, cb in right.items():
            m = math.lcm(a, b)
            out[m] = out.get(m, 0) + ca * cb
    return out


def _units_cyclic_factors(fact: Factorization) -> list[int]:
    orders = []
    for p, e in fact:
        if p == 2:
            if e == 2:
                orders.append(2)
            elif e >= 3:
                orders += [2, 2 ** (e - 2)]
        else:
            orders.append(p ** (e - 1) * (p - 1))
    return orders


def atom_profile(atom: Atom) -> Profile:
    family, n, fact = atom
    if family == "Z":
        return cyclic_profile(fact)
    if family == "D":
        profile = cyclic_profile(fact)
        profile[2] = profile.get(2, 0) + n
        return profile
    profile = {1: 1}
    for order in _units_cyclic_factors(fact):
        profile = combine(profile, cyclic_profile(factor_small(order)))
    return profile


def group_profile(atoms: tuple[Atom, ...]) -> Profile:
    profile = {1: 1}
    for atom in atoms:
        profile = combine(profile, atom_profile(atom))
    return dict(sorted(profile.items()))


def atom_order(atom: Atom) -> int:
    family, n, fact = atom
    if family == "Z":
        return n
    if family == "D":
        return 2 * n
    return phi_of(fact)


def group_order(atoms: tuple[Atom, ...]) -> int:
    return math.prod(atom_order(atom) for atom in atoms)


def size_from_profile(profile: Profile) -> int:
    """Edges of OD(G): pairs of elements whose distinct orders divide."""
    orders = sorted(profile)
    return sum(
        profile[a] * profile[b]
        for i, a in enumerate(orders)
        for b in orders[i + 1 :]
        if b % a == 0
    )


def _upper_phi_sums(fact: Factorization) -> dict[int, tuple[int, int]]:
    """m -> (phi(m), sum of phi(k) over m | k | n) for every m | n."""
    primes = [p for p, _ in fact]
    tops = [p**e for p, e in fact]
    out = {}
    for exps in _divisor_exponents(fact):
        m = math.prod(p**a for p, a in zip(primes, exps))
        phi = math.prod(p ** (a - 1) * (p - 1) for p, a in zip(primes, exps) if a)
        upper = math.prod(
            top - (p ** (a - 1) if a else 0) for p, top, a in zip(primes, tops, exps)
        )
        out[m] = (phi, upper)
    return out


def cyclic_degrees(fact: Factorization) -> dict[int, int]:
    """Degree of an order-m vertex of OD(Z_n): (m - phi(m)) below, the rest above."""
    return {m: m - 2 * phi + upper for m, (phi, upper) in _upper_phi_sums(fact).items()}


def cyclic_size(fact: Factorization) -> int:
    """Edges of OD(Z_n), each counted once from its lower-order end."""
    return sum(phi * (upper - phi) for phi, upper in _upper_phi_sums(fact).values())


def _even_above_two(n: int, sums: dict[int, tuple[int, int]]) -> int:
    """Rotations of even order > 2 in D_n (zero for odd n)."""
    if n % 2:
        return 0
    phi, upper = sums[2]
    return upper - phi


def dihedral_size(n: int, fact: Factorization) -> int:
    """OD(Z_n) plus the n reflections, each joined to e and to every
    rotation of even order above 2."""
    sums = _upper_phi_sums(fact)
    rotations = sum(phi * (upper - phi) for phi, upper in sums.values())
    return rotations + n * (1 + _even_above_two(n, sums))


def dihedral_degrees(n: int, fact: Factorization) -> dict[int, int]:
    sums = _upper_phi_sums(fact)
    degrees = {}
    for m, (phi, upper) in sums.items():
        degree = m - 2 * phi + upper
        if m % 2 == 0 and m > 2:
            degree += n
        degrees[m] = degree
    degrees[1] = 2 * n - 1
    degrees[2] = 1 + _even_above_two(n, sums)
    return degrees


def size_of(atoms: tuple[Atom, ...]) -> int:
    if len(atoms) == 1 and atoms[0][0] == "Z":
        return cyclic_size(atoms[0][2])
    if len(atoms) == 1 and atoms[0][0] == "D":
        return dihedral_size(atoms[0][1], atoms[0][2])
    return size_from_profile(group_profile(atoms))


def girth_of(profile: Profile) -> int:
    """A composite realized order forces a triangle; otherwise OD(G) is a star."""
    return 3 if any(m > 1 and not is_prime(m) for m in profile) else 0


def is_star(profile: Profile) -> bool:
    return all(m == 1 or is_prime(m) for m in profile)
