"""Acceptance gate: one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every numeric claim is checked on two independent routes: a closed-form
computation and the explicit graph built by element enumeration.
"""

import dataclasses
import time
from contextlib import contextmanager

from odgraph.formulas import (
    deg_dn,
    deg_zn,
    degree_via_profile,
    girth_from_profile,
    girth_of_product,
    is_path_group,
    is_star_group,
    prime_power_identities,
    size_dn,
    size_via_profile,
    size_zn,
)
from odgraph.graph import (
    build_graph,
    class_degrees,
    eccentricities,
    oracle_chromatic_number,
    oracle_girth,
    oracle_is_cycle_graph,
    oracle_is_path,
    oracle_is_star,
)
from odgraph.groups import (
    Cyclic,
    Dihedral,
    Product,
    Units,
    element_orders,
    group_order,
    order_profile,
)
from odgraph.numtheory import divisors, euler_phi, is_composite
from odgraph.verify import DEFAULT_SUITE, sweep, verify_group

PRIME_POWER_CASES = [
    (p, k)
    for p in (2, 3, 5, 7, 11, 13)
    for k in range(1, 11)
    if p**k <= 2000
]

_GRAPHS: dict = {}


def graph_of(spec):
    if spec not in _GRAPHS:
        _GRAPHS[spec] = build_graph(spec)
    return _GRAPHS[spec]


def swept_specs():
    return (
        [Cyclic(n) for n in range(1, 201)]
        + [Dihedral(n) for n in range(3, 101)]
        + [Units(n) for n in range(2, 201)]
    )


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"\nACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_cyclic_six_degrees_and_size():
    with criterion(
        1, "Z6 degree table and edge count agree: formula vs profile vs explicit graph"
    ):
        started = time.perf_counter()
        spec = Cyclic(6)
        graph = graph_of(spec)
        profile = order_profile(spec)
        profile_degrees = degree_via_profile(profile)
        expected = {0: 5, 1: 4, 2: 3, 3: 3, 4: 3, 5: 4}
        for index, m in enumerate(element_orders(spec)):
            assert len(graph.adjacency[index]) == expected[index]
            assert deg_zn(6, m) == expected[index]
            assert profile_degrees[m] == expected[index]
        assert size_zn(6) == 11
        assert graph.edge_count == 11
        assert size_via_profile(profile) == 11
        assert time.perf_counter() - started < 1.0


def test_criterion_2_dihedral_degrees_and_sizes():
    with criterion(
        2, "D4 and D5 degree tables and edge counts agree: formula vs explicit graph"
    ):
        started = time.perf_counter()
        expected_degrees = {
            4: {1: 7, 2: 3, 4: 6},
            5: {1: 9, 2: 1, 5: 1},
        }
        expected_sizes = {4: 17, 5: 9}
        for n, table in expected_degrees.items():
            graph = graph_of(Dihedral(n))
            degrees, problem = class_degrees(graph)
            assert problem is None
            assert degrees == table
            for m in sorted(Dihedral(n).profile()):
                assert deg_dn(n, m) == table[m]
            assert size_dn(n) == expected_sizes[n]
            assert graph.edge_count == expected_sizes[n]
        assert time.perf_counter() - started < 1.0


def test_criterion_3_prime_power_identities():
    with criterion(
        3,
        "prime-power identities (degree sum, order sum, size) hold for "
        "p <= 13, p^k <= 2000, against enumeration",
    ):
        started = time.perf_counter()
        assert PRIME_POWER_CASES[-1] == (13, 2)
        for p, k in PRIME_POWER_CASES:
            n = p**k
            graph = graph_of(Cyclic(n))
            identities = prime_power_identities(p, k)
            degree_sum = identities["degree_sum"]
            assert degree_sum == (2 * p ** (2 * k) - 2) // (p + 1)
            assert degree_sum == sum(map(len, graph.adjacency))
            assert degree_sum == sum(
                euler_phi(m) * deg_zn(n, m) for m in divisors(n)
            )
            order_sum = identities["order_sum"]
            assert order_sum == (p ** (2 * k + 1) + 1) // (p + 1)
            assert order_sum == sum(graph.orders)
            assert identities["size"] == (p ** (2 * k) - 1) // (p + 1)
            assert identities["size"] == graph.edge_count
        for k in range(1, 11):
            identities = prime_power_identities(2, k)
            assert 1 + identities["degree_sum"] == identities["order_sum"]
        assert time.perf_counter() - started < 5.0


def test_criterion_4_family_sweeps():
    with criterion(
        4, "cyclic 1..200 and dihedral 3..100 sweeps pass in full, under 60 seconds"
    ):
        started = time.perf_counter()
        cyclic_report = sweep("cyclic", 1, 200)
        dihedral_report = sweep("dihedral", 3, 100)
        elapsed = time.perf_counter() - started
        assert cyclic_report.passed and cyclic_report.passed_count == 200
        assert dihedral_report.passed and dihedral_report.passed_count == 98
        assert elapsed < 60.0


def test_criterion_5_girth_dichotomy():
    with criterion(
        5,
        "girth is 0 or 3 everywhere, equals 3 exactly when a composite order "
        "is realized, and the two-factor product rule matches the graph",
    ):
        for spec in swept_specs():
            graph = graph_of(spec)
            profile = order_profile(spec)
            got = oracle_girth(graph)
            assert got in (0, 3)
            assert got == girth_from_profile(profile)
            assert (got == 3) == any(is_composite(m) for m in profile)
        for a in range(1, 31):
            for b in range(1, 31):
                left, right = Cyclic(a), Cyclic(b)
                graph = build_graph(Product((left, right)))
                got = oracle_girth(graph)
                assert got in (0, 3)
                assert got == girth_of_product(left, right)


def test_criterion_6_units_star_classification():
    with criterion(
        6, "U(n) is a star for n in [2, 200] exactly when n divides 24"
    ):
        formula_stars = {n for n in range(2, 201) if is_star_group(Units(n))}
        oracle_stars = {
            n for n in range(2, 201) if oracle_is_star(graph_of(Units(n)))
        }
        divisor_set = {n for n in range(2, 201) if 24 % n == 0}
        assert formula_stars == oracle_stars == divisor_set
        assert divisor_set == {2, 3, 4, 6, 8, 12, 24}


def test_criterion_7_metric_and_shape_consequences():
    with criterion(
        7,
        "every swept group of order >= 3 has radius 1 and diameter 2, is "
        "neither complete nor a cycle; path graphs occur exactly at orders 2 and 3",
    ):
        for spec in swept_specs():
            graph = graph_of(spec)
            order = group_order(spec)
            assert order == graph.vertex_count
            if order >= 3:
                eccs = eccentricities(graph)
                assert min(eccs) == 1
                assert max(eccs) == 2
                assert graph.edge_count < order * (order - 1) // 2
                assert not oracle_is_cycle_graph(graph)
            assert oracle_is_path(graph) == (order in (2, 3))
            assert is_path_group(spec) == (order in (2, 3))


def test_criterion_8_chromatic_measurement():
    with criterion(
        8,
        "exact coloring of the Z6 graph measures chromatic number 3, the "
        "longest divisor chain, not the order plus one; verify checks it",
    ):
        measured = oracle_chromatic_number(graph_of(Cyclic(6)))
        assert measured == 3 != 6 + 1
        result = verify_group(Cyclic(6))
        assert result.passed
        chromatic = [c for c in result.checks if c.name == "chromatic"]
        assert [(c.formula, c.oracle) for c in chromatic] == [(3, 3)]


def perturbed_deg_zn(n, m):
    return deg_zn(n, m) + euler_phi(m)


def test_criterion_9_fault_injection():
    with criterion(
        9,
        "a deliberately wrong cyclic degree formula is rejected by the sweep, "
        "with Z4 among the reported failures",
    ):
        broken = dataclasses.replace(DEFAULT_SUITE, deg_zn=perturbed_deg_zn)
        report = sweep("cyclic", 1, 20, suite=broken)
        assert not report.passed
        z4 = next(r for r in report.results if r.group_order == 4)
        assert not z4.passed
        assert z4.first_mismatch.startswith("degrees_formula")
        assert sweep("cyclic", 1, 20).passed
