"""Group families: orders, element indexing, and order profiles."""

import itertools
import math
from collections import Counter

import pytest

from odgraph import numtheory
from odgraph.errors import DomainError, EnumerationBoundError
from odgraph.groups import (
    Cyclic,
    Dihedral,
    OrderProfile,
    Product,
    Units,
    element_labels,
    element_orders,
    format_spec,
    group_order,
    order_profile,
)


def units_oracle(n: int) -> list[int]:
    return [x for x in range(1, n) if math.gcd(x, n) == 1]


def product_order_oracle(moduli: list[int], components: list[int]) -> int:
    """Repeated componentwise addition until the identity tuple returns."""
    state = list(components)
    t = 1
    while any(state):
        state = [(s + c) % m for s, c, m in zip(state, components, moduli)]
        t += 1
    return t


def brute_force_elements(spec):
    """(identity, multiply, elements in canonical index order) from the
    group law itself; a dihedral element (i, s) stands for a^i b^s."""
    if isinstance(spec, Cyclic):
        return 0, lambda x, y: (x + y) % spec.n, list(range(spec.n))
    if isinstance(spec, Dihedral):
        n = spec.n

        def multiply(x, y):
            (i, s), (j, t) = x, y
            return ((i + (-1) ** s * j) % n, (s + t) % 2)

        return (0, 0), multiply, [(i, s) for s in (0, 1) for i in range(n)]
    if isinstance(spec, Units):
        return 1, lambda x, y: x * y % spec.n, units_oracle(spec.n)
    parts = [brute_force_elements(factor) for factor in spec.factors]

    def multiply(x, y):
        return tuple(part[1](a, b) for part, a, b in zip(parts, x, y))

    identity = tuple(part[0] for part in parts)
    return identity, multiply, list(itertools.product(*(part[2] for part in parts)))


def brute_force_orders(spec) -> list[int]:
    identity, multiply, elements = brute_force_elements(spec)
    orders = []
    for g in elements:
        power, t = g, 1
        while power != identity:
            power, t = multiply(power, g), t + 1
        orders.append(t)
    return orders


def test_group_orders():
    assert group_order(Cyclic(6)) == 6
    assert group_order(Cyclic(1)) == 1
    assert group_order(Dihedral(4)) == 8
    assert group_order(Units(24)) == len(units_oracle(24)) == 8
    assert group_order(Product((Cyclic(2), Cyclic(3)))) == 6
    assert group_order(Product((Cyclic(4), Units(5), Dihedral(3)))) == 96


def test_constructor_bounds():
    with pytest.raises(DomainError):
        Cyclic(0)
    with pytest.raises(DomainError):
        Dihedral(2)
    with pytest.raises(DomainError):
        Units(1)
    with pytest.raises(DomainError):
        Product((Cyclic(5),))


def test_product_flattens_nesting():
    nested = Product((Cyclic(2), Product((Cyclic(3), Cyclic(5)))))
    assert nested.factors == (Cyclic(2), Cyclic(3), Cyclic(5))
    assert format_spec(nested) == "Z2xZ3xZ5"


def test_format_spec():
    assert format_spec(Cyclic(6)) == "Z6"
    assert format_spec(Dihedral(4)) == "D4"
    assert format_spec(Units(24)) == "U24"
    assert format_spec(Product((Cyclic(2), Cyclic(3)))) == "Z2xZ3"


def test_constructors_reject_non_ints():
    with pytest.raises(DomainError):
        Cyclic(2.5)
    with pytest.raises(DomainError):
        Cyclic(True)
    with pytest.raises(DomainError):
        Dihedral("4")
    with pytest.raises(DomainError):
        Units(8.0)


def test_product_rejects_non_specs():
    with pytest.raises(DomainError):
        Product((Cyclic(2), 3))
    with pytest.raises(DomainError):
        Product((Cyclic(2), "Z3"))


def test_element_index_bounds():
    # canonical indices run over 0..order-1, one per element
    for spec in [Cyclic(6), Dihedral(5), Units(20), Product((Cyclic(2), Units(9)))]:
        labels = element_labels(spec)
        assert len(element_orders(spec)) == len(labels) == group_order(spec)
        assert len(set(labels)) == len(labels)


def test_cyclic_element_orders():
    assert element_orders(Cyclic(6)) == (1, 6, 3, 2, 3, 6)


def test_dihedral_element_orders():
    # rotations e, a, a2, a3 then four reflections
    assert element_orders(Dihedral(4)) == (1, 4, 2, 4, 2, 2, 2, 2)


def test_units_element_orders():
    spec = Units(8)
    assert element_orders(spec) == (1, 2, 2, 2)
    assert element_labels(spec) == ("1", "3", "5", "7")


def test_product_element_order_against_oracle():
    spec = Product((Cyclic(2), Cyclic(3)))
    orders = element_orders(spec)
    assert orders[4] == 6  # mixed radix: components (1, 1)
    assert product_order_oracle([2, 3], [1, 1]) == 6
    for index in range(6):
        i, j = divmod(index, 3)
        assert orders[index] == product_order_oracle([2, 3], [i, j])


def test_element_orders_match_brute_force():
    specs = [
        Cyclic(12),
        Dihedral(6),
        Units(20),
        Product((Cyclic(4), Cyclic(6))),
        Product((Cyclic(2), Dihedral(3), Units(5))),
    ]
    for spec in specs:
        fast = element_orders(spec)
        assert len(fast) == group_order(spec)
        assert list(fast) == brute_force_orders(spec)


def test_enumerate_elements():
    assert element_labels(Cyclic(5)) == ("0", "1", "2", "3", "4")
    with pytest.raises(EnumerationBoundError):
        element_orders(Cyclic(10), bound=5)
    with pytest.raises(EnumerationBoundError):
        element_labels(Cyclic(10), bound=5)
    big = Product((Cyclic(400), Cyclic(300)))
    with pytest.raises(EnumerationBoundError):
        element_orders(big, bound=100_000)
    # the profile is a closed form, so the bound does not apply to it
    assert sum(order_profile(big).values()) == 120_000


def test_order_profile_examples():
    assert order_profile(Cyclic(6)) == {1: 1, 2: 1, 3: 2, 6: 2}
    assert order_profile(Dihedral(4)) == {1: 1, 2: 5, 4: 2}
    assert order_profile(Dihedral(5)) == {1: 1, 2: 5, 5: 4}
    assert order_profile(Units(8)) == {1: 1, 2: 3}
    assert order_profile(Cyclic(1)) == {1: 1}
    assert order_profile(Product((Cyclic(2), Cyclic(2)))) == {1: 1, 2: 3}


def test_order_profile_group_order_and_lagrange():
    specs = [
        Cyclic(360),
        Dihedral(24),
        Units(100),
        Product((Cyclic(6), Cyclic(10))),
    ]
    for spec in specs:
        profile = order_profile(spec)
        total = group_order(spec)
        assert sum(profile.values()) == total
        assert all(total % order == 0 for order in profile)
        assert profile[1] == 1


def test_cyclic_generator_count():
    from odgraph.numtheory import euler_phi

    for n in (1, 2, 7, 12, 100):
        assert order_profile(Cyclic(n)).get(n, 0) == euler_phi(n)


def test_cyclic_profile_factorizes_only_n():
    numtheory.factorize.cache_clear()
    numtheory.divisors.cache_clear()
    Cyclic(299999999999886).profile()  # 2 * 3 * 49999999999981
    assert numtheory.factorize.cache_info().misses == 1


def test_profile_matches_enumeration_cyclic():
    for n in range(1, 2001):
        profile = order_profile(Cyclic(n))
        recount = Counter(element_orders(Cyclic(n)))
        assert profile == recount


def test_profile_matches_enumeration_dihedral():
    for n in range(3, 1001):
        profile = order_profile(Dihedral(n))
        recount = Counter(element_orders(Dihedral(n)))
        assert profile == recount


def test_profile_matches_enumeration_units():
    # the closed form (CRT into cyclic factors) against a recount of the
    # enumerated element orders
    for n in range(2, 2001):
        spec = Units(n)
        assert order_profile(spec) == Counter(element_orders(spec)), n


def test_profile_matches_enumeration_products():
    specs = [
        *(Product((Cyclic(a), Cyclic(b))) for a in range(1, 25) for b in range(1, 25)),
        *(Product((Cyclic(a), Dihedral(b))) for a in range(1, 25) for b in range(3, 25)),
        *(Product((Units(m), Cyclic(a))) for m in range(2, 40) for a in range(1, 13)),
        Product((Cyclic(8), Cyclic(125))),
        Product((Cyclic(2), Dihedral(3), Units(5))),
    ]
    for spec in specs:
        assert order_profile(spec) == Counter(element_orders(spec)), spec


def test_order_profile_validation():
    with pytest.raises(DomainError):
        OrderProfile({1: 2, 2: 2})  # two identities
    with pytest.raises(DomainError):
        OrderProfile({2: 2})  # no identity
    with pytest.raises(DomainError):
        OrderProfile({1: 1, 4: 1})  # 4 does not divide 2


def test_order_profile_is_mapping():
    profile = order_profile(Cyclic(6))
    assert list(profile) == [1, 2, 3, 6]  # ascending
    assert profile[3] == 2
    assert profile.get(4, 0) == 0
    assert 6 in profile
    assert dict(profile) == {1: 1, 2: 1, 3: 2, 6: 2}


def test_dihedral_labels():
    labels = element_labels(Dihedral(4))
    assert labels == ("e", "a", "a2", "a3", "b", "ab", "a2b", "a3b")


def test_product_labels():
    labels = element_labels(Product((Cyclic(2), Cyclic(3))))
    assert labels == ("(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)")
