"""Closed-form invariants, checked against the explicit-graph oracle."""

import pytest

from odgraph.errors import DomainError
from odgraph.formulas import (
    deg_dn,
    deg_zn,
    deg_zn_prime_power,
    degree_sum_zn_prime_power,
    girth_from_profile,
    girth_of_group,
    girth_of_product,
    is_bipartite_group,
    is_path_group,
    is_star_group,
    is_star_profile,
    order_sum_prime_power,
    size_dn,
    size_zn,
    size_zn_prime_power,
)
from odgraph.graph import build_graph, class_degrees, oracle_girth, oracle_is_star
from odgraph.groups import (
    Cyclic,
    Dihedral,
    Product,
    Units,
    element_orders,
    order_profile,
)
from odgraph.numtheory import divisors, euler_phi, is_prime

PRIMES_TO_13 = (2, 3, 5, 7, 11, 13)


def prime_power_cases(limit: int = 2000):
    for p in PRIMES_TO_13:
        k = 1
        while p**k <= limit:
            yield p, k
            k += 1


def dn_orders(n):
    """Element orders realized in the dihedral group of order 2n."""
    return sorted(Dihedral(n).profile())


# --- cyclic degrees ---------------------------------------------------------


def test_deg_zn_values():
    assert deg_zn(6, 1) == 5
    assert deg_zn(6, 6) == 4
    assert deg_zn(8, 4) == 6
    assert deg_zn(1, 1) == 0


def test_deg_zn_rejects_non_divisor():
    with pytest.raises(DomainError):
        deg_zn(6, 4)
    with pytest.raises(DomainError):
        deg_zn(6, 0)


def test_deg_zn_matches_oracle():
    for n in range(1, 101):
        graph = build_graph(Cyclic(n))
        degrees, problem = class_degrees(graph)
        assert problem is None
        for m in divisors(n):
            assert deg_zn(n, m) == degrees[m]


def test_deg_zn_prime_power_values():
    assert deg_zn_prime_power(2, 3, 0) == 7
    assert deg_zn_prime_power(2, 3, 2) == 6
    assert deg_zn_prime_power(3, 2, 1) == 7


def test_deg_zn_prime_power_validation():
    with pytest.raises(DomainError):
        deg_zn_prime_power(4, 2, 1)
    with pytest.raises(DomainError):
        deg_zn_prime_power(3, 2, 3)
    with pytest.raises(DomainError):
        deg_zn_prime_power(3, 0, 0)


def test_deg_zn_prime_power_matches_general_form():
    for p, k in prime_power_cases():
        for i in range(k + 1):
            assert deg_zn_prime_power(p, k, i) == deg_zn(p**k, p**i)


# --- degree and order sums --------------------------------------------------


def test_degree_sum_values():
    assert degree_sum_zn_prime_power(2, 1) == 2
    assert degree_sum_zn_prime_power(2, 3) == 42
    # (2 * 3**4 - 2) / 4; the explicit graph on 9 vertices confirms it
    assert degree_sum_zn_prime_power(3, 2) == 40
    assert degree_sum_zn_prime_power(3, 4) == 3280


def test_degree_sum_matches_oracle():
    for p, k in prime_power_cases(200):
        graph = build_graph(Cyclic(p**k))
        oracle_sum = sum(map(len, graph.adjacency))
        assert degree_sum_zn_prime_power(p, k) == oracle_sum


def test_degree_sum_matches_profile_route():
    for p, k in prime_power_cases():
        n = p**k
        profile_sum = sum(euler_phi(m) * deg_zn(n, m) for m in divisors(n))
        assert degree_sum_zn_prime_power(p, k) == profile_sum


def test_order_sum_values():
    assert order_sum_prime_power(3, 1) == 7
    assert order_sum_prime_power(2, 3) == 43


def test_order_sum_matches_enumeration():
    for p, k in prime_power_cases(2000):
        expected = sum(element_orders(Cyclic(p**k)))
        assert order_sum_prime_power(p, k) == expected


def test_divisibility_sanity():
    for p, k in prime_power_cases():
        assert (2 * p ** (2 * k) - 2) % (p + 1) == 0
        assert (p ** (2 * k + 1) + 1) % (p + 1) == 0
        assert (p ** (2 * k) - 1) % (p + 1) == 0


def test_degree_sum_order_sum_identity_p2():
    for k in range(1, 11):
        assert 1 + degree_sum_zn_prime_power(2, k) == order_sum_prime_power(2, k)
        # the p = 2 closed forms
        assert degree_sum_zn_prime_power(2, k) == (2 ** (2 * k + 1) - 2) // 3
        assert order_sum_prime_power(2, k) == (2 ** (2 * k + 1) + 1) // 3


# --- cyclic sizes -------------------------------------------------------------


def test_size_zn_values():
    assert size_zn(1) == 0
    assert size_zn(2) == 1
    assert size_zn(6) == 11
    assert size_zn(8) == 21


def test_size_zn_matches_oracle():
    for n in range(1, 101):
        assert size_zn(n) == build_graph(Cyclic(n)).edge_count


def test_size_zn_prime_power():
    assert size_zn_prime_power(2, 3) == 21
    assert size_zn_prime_power(3, 2) == 20
    for p, k in prime_power_cases():
        assert size_zn_prime_power(p, k) == size_zn(p**k)


# --- the closed forms against the divisor-lattice sums they replace ----------


def upper_phi_sum(n, m):
    """Sum of phi(lam * m) over the divisors lam of n // m: the elements of
    Z_n whose order is a multiple of m, summed class by class."""
    return sum(euler_phi(lam * m) for lam in divisors(n // m))


def lattice_deg_dn(n, m):
    """The dihedral degree as a case split over the same sums."""
    if m == 1:
        return 2 * n - 1
    if m == 2:
        return 1 if n % 2 else upper_phi_sum(n, 2)
    return m - 2 * euler_phi(m) + upper_phi_sum(n, m) + (0 if m % 2 else n)


def test_deg_zn_matches_divisor_lattice_sum():
    for n in range(1, 3000):
        for m in divisors(n):
            assert deg_zn(n, m) == m - 2 * euler_phi(m) + upper_phi_sum(n, m)


def test_deg_dn_matches_divisor_lattice_case_split():
    for n in range(3, 1000):
        for m in dn_orders(n):
            assert deg_dn(n, m) == lattice_deg_dn(n, m), (n, m)


def test_sizes_at_a_divisor_rich_order():
    # 963761198400 = 2^6 3^4 5^2 7 11 13 17 19 23 has 6720 divisors; both
    # values were computed with the divisor-lattice sums
    assert size_zn(963761198400) == 208072653369291087560313
    assert size_dn(963761198400) == 1122395243917860810080313


# --- dihedral degrees and sizes ----------------------------------------------


def test_dn_realized_orders():
    assert dn_orders(5) == [1, 2, 5]
    assert dn_orders(4) == [1, 2, 4]
    assert dn_orders(6) == [1, 2, 3, 6]


def test_deg_dn_values():
    assert deg_dn(4, 1) == 7
    assert deg_dn(4, 4) == 6
    assert deg_dn(4, 2) == 3
    assert deg_dn(5, 1) == 9
    assert deg_dn(5, 5) == 1
    assert deg_dn(5, 2) == 1
    assert deg_dn(6, 2) == 3
    assert deg_dn(6, 3) == 3
    assert deg_dn(6, 6) == 10


def test_deg_dn_rejects_unrealized_orders():
    with pytest.raises(DomainError):
        deg_dn(5, 4)
    with pytest.raises(DomainError):
        deg_dn(4, 8)
    with pytest.raises(DomainError):
        deg_dn(2, 2)
    # zero, negative, twice n, and an even order that does not divide n
    for n, m in [(5, 0), (6, 0), (5, -2), (6, -2), (5, 10), (6, 12), (10, 4)]:
        with pytest.raises(DomainError):
            deg_dn(n, m)


def test_deg_dn_matches_oracle():
    for n in range(3, 61):
        graph = build_graph(Dihedral(n))
        degrees, problem = class_degrees(graph)
        assert problem is None
        for m in dn_orders(n):
            assert deg_dn(n, m) == degrees[m]


def test_order_two_class_is_degree_uniform_for_even_n():
    # for even n the order-2 class mixes the half-turn rotation with the
    # reflections; the explicit graph confirms they share one degree
    for n in range(4, 41, 2):
        graph = build_graph(Dihedral(n))
        two_class = [v for v in range(graph.vertex_count) if graph.orders[v] == 2]
        assert len(two_class) == n + 1
        assert len({len(graph.adjacency[v]) for v in two_class}) == 1
        assert len(graph.adjacency[two_class[0]]) == deg_dn(n, 2)


def test_size_dn_values():
    assert size_dn(3) == 5
    assert size_dn(4) == 17
    assert size_dn(5) == 9
    assert size_dn(6) == 29


def test_size_dn_matches_oracle():
    for n in range(3, 61):
        assert size_dn(n) == build_graph(Dihedral(n)).edge_count


# --- girth and shape classification -------------------------------------------


def test_girth_values():
    assert girth_of_group(Cyclic(1)) == 0
    assert girth_of_group(Cyclic(5)) == 0
    assert girth_of_group(Cyclic(6)) == 3
    assert girth_of_group(Cyclic(8)) == 3
    assert girth_of_group(Dihedral(5)) == 0
    assert girth_of_group(Dihedral(4)) == 3
    assert girth_of_group(Units(8)) == 0
    assert girth_of_group(Units(16)) == 3


def test_girth_matches_oracle_small_sweep():
    specs = (
        [Cyclic(n) for n in range(1, 81)]
        + [Dihedral(n) for n in range(3, 41)]
        + [Units(n) for n in range(2, 81)]
    )
    for spec in specs:
        assert girth_of_group(spec) == oracle_girth(build_graph(spec))


def test_girth_composite_clause_subsumes_divisibility_clause():
    # a divisor pair of distinct non-identity orders makes the larger one
    # composite, so the composite-order rule alone decides the girth
    for spec in [Cyclic(n) for n in range(1, 121)] + [Dihedral(n) for n in range(3, 61)]:
        profile = order_profile(spec)
        composite_only = 3 if any(m > 1 and not is_prime(m) for m in profile) else 0
        assert girth_from_profile(profile) == composite_only


def test_girth_of_product_cases():
    assert girth_of_product(Cyclic(2), Cyclic(2)) == 0
    assert girth_of_product(Cyclic(2), Cyclic(3)) == 3
    assert girth_of_product(Cyclic(4), Cyclic(2)) == 3
    assert girth_of_product(Cyclic(1), Cyclic(1)) == 0
    assert girth_of_product(Cyclic(3), Cyclic(3)) == 0
    assert girth_of_product(Dihedral(3), Cyclic(2)) == 3  # D3 realizes orders 2 and 3


def test_girth_of_product_matches_group_girth():
    for a in range(1, 13):
        for b in range(1, 13):
            left, right = Cyclic(a), Cyclic(b)
            product = Product((left, right))
            assert girth_of_product(left, right) == girth_of_group(product)


def test_pq_order_girth_dichotomy():
    # among groups of order 2q: the cyclic one has girth 3, the dihedral 0
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        assert girth_of_group(Cyclic(2 * q)) == 3
        assert girth_of_group(Dihedral(q)) == 0


def test_star_and_path_classification():
    assert is_star_group(Cyclic(1))
    assert is_star_group(Cyclic(7))
    assert not is_star_group(Cyclic(6))
    assert is_star_group(Dihedral(5))
    assert not is_star_group(Dihedral(4))
    assert is_star_group(Units(24))
    assert not is_star_group(Units(16))
    assert is_bipartite_group(Dihedral(7)) == is_star_group(Dihedral(7))
    assert is_star_profile(order_profile(Units(24)))
    assert not is_star_profile(order_profile(Units(16)))
    assert is_path_group(Cyclic(2))
    assert is_path_group(Cyclic(3))
    assert not is_path_group(Cyclic(1))
    assert not is_path_group(Cyclic(4))


def test_star_matches_oracle_small_sweep():
    specs = [Cyclic(n) for n in range(1, 61)] + [Units(n) for n in range(2, 61)]
    for spec in specs:
        assert is_star_group(spec) == oracle_is_star(build_graph(spec))


def test_checked_divisions_guard():
    # internal identities keep every division exact across the tested range;
    # the guard itself is exercised through the private helper
    from odgraph.formulas import _exact_div

    with pytest.raises(ArithmeticError):
        _exact_div(7, 3)
