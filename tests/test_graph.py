"""Explicit graph construction and the brute-force invariant oracle."""

import functools
import itertools
import tracemalloc
from collections import deque
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from odgraph.errors import DomainError, EnumerationBoundError
from odgraph.formulas import (
    chromatic_from_profile,
    degree_via_profile,
    size_via_profile,
)
from odgraph.graph import (
    MAX_GRAPH_ENTRIES,
    MAX_GRAPH_VERTICES,
    ODGraph,
    build_graph,
    class_degrees,
    eccentricities,
    oracle_chromatic_number,
    oracle_girth,
    oracle_is_bipartite,
    oracle_is_cycle_graph,
    oracle_is_path,
    oracle_is_star,
    oracle_report,
)
from odgraph.groups import (
    DEFAULT_ENUMERATION_BOUND,
    Cyclic,
    Dihedral,
    Product,
    Units,
    element_orders,
    group_order,
    order_profile,
)


def graph_from_edges(n: int, edges: list[tuple[int, int]]) -> ODGraph:
    """Synthetic graph for oracle unit tests; orders are dummies."""
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return ODGraph(
        orders=(1,) * n,
        adjacency=tuple(tuple(sorted(a)) for a in adjacency),
    )


def cycle_graph(n: int) -> ODGraph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> ODGraph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> ODGraph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> ODGraph:
    return graph_from_edges(n, [(0, i) for i in range(1, n)])


def complete_bipartite_graph(a: int, b: int) -> ODGraph:
    return graph_from_edges(a + b, [(i, j) for i in range(a) for j in range(a, a + b)])


def doubled_five_cycle() -> ODGraph:
    """The 5-cycle with vertex 0 doubled: vertex 5 is its twin."""
    return graph_from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, 1), (5, 4)])


# --- oracle behavior on known synthetic graphs -----------------------------


def test_oracle_girth_known_graphs():
    assert oracle_girth(complete_graph(3)) == 3
    assert oracle_girth(complete_graph(4)) == 3
    assert oracle_girth(cycle_graph(4)) == 4
    assert oracle_girth(cycle_graph(5)) == 5
    assert oracle_girth(cycle_graph(6)) == 6
    assert oracle_girth(path_graph(4)) == 0
    assert oracle_girth(star_graph(7)) == 0
    # twins close every 4-cycle of these; K2,3's twin quotient is one edge
    assert oracle_girth(complete_bipartite_graph(2, 3)) == 4
    assert oracle_girth(complete_bipartite_graph(3, 3)) == 4
    # the quotient is the 5-cycle, but the doubled vertex closes a 4-cycle
    assert oracle_girth(doubled_five_cycle()) == 4
    # five-cycle with one chord has a triangle
    assert oracle_girth(graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])) == 3
    # Wagner graph (8-cycle plus its long diagonals): every BFS layer that
    # closes a 4-cycle also holds an edge closing a 5-cycle
    wagner = graph_from_edges(
        8, [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
    )
    assert oracle_girth(wagner) == 4
    # two four-cycles sharing one vertex
    assert (
        oracle_girth(
            graph_from_edges(
                7,
                [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
            )
        )
        == 4
    )


def test_oracle_bipartite_known_graphs():
    assert oracle_is_bipartite(cycle_graph(4))
    assert not oracle_is_bipartite(cycle_graph(5))
    assert oracle_is_bipartite(path_graph(6))
    assert oracle_is_bipartite(star_graph(9))
    assert not oracle_is_bipartite(complete_graph(3))
    assert oracle_is_bipartite(complete_bipartite_graph(2, 3))
    assert oracle_is_bipartite(complete_bipartite_graph(3, 3))
    assert not oracle_is_bipartite(doubled_five_cycle())
    # the odd cycle lies outside the first component
    assert not oracle_is_bipartite(graph_from_edges(4, [(1, 2), (2, 3), (3, 1)]))


def test_oracle_star_path_cycle_recognizers():
    assert oracle_is_star(star_graph(9))
    assert oracle_is_star(graph_from_edges(1, []))  # degenerate single vertex
    assert oracle_is_star(path_graph(2))
    assert oracle_is_star(path_graph(3))  # the 3-path is also a star
    assert not oracle_is_star(path_graph(4))
    assert not oracle_is_path(graph_from_edges(1, []))
    assert oracle_is_path(path_graph(2))
    assert oracle_is_path(path_graph(5))
    assert not oracle_is_path(cycle_graph(5))
    # degree multiset of a path, but disconnected: triangle + 2-path
    decoy = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
    assert not oracle_is_path(decoy)
    assert oracle_is_cycle_graph(cycle_graph(5))
    assert not oracle_is_cycle_graph(path_graph(5))
    # 2-regular but disconnected: two triangles
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not oracle_is_cycle_graph(two_triangles)


def test_shape_recognizers_search_only_on_a_degree_match(monkeypatch):
    decoy = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])

    def no_search(graph, root):
        raise AssertionError("BFS ran")

    monkeypatch.setattr("odgraph.graph._bfs_levels", no_search)
    for recognizer in (oracle_is_star, oracle_is_path, oracle_is_cycle_graph):
        assert not recognizer(build_graph(Cyclic(12)))
        assert not recognizer(graph_from_edges(0, []))
    with pytest.raises(AssertionError, match="BFS ran"):
        oracle_is_path(decoy)


def test_oracle_chromatic_known_graphs():
    assert oracle_chromatic_number(complete_graph(4)) == 4
    # twins collapse these to one edge or one vertex, whose chain is a clique
    assert oracle_chromatic_number(path_graph(3)) == 2
    assert oracle_chromatic_number(star_graph(8)) == 2
    assert oracle_chromatic_number(complete_bipartite_graph(3, 3)) == 2
    assert oracle_chromatic_number(graph_from_edges(3, [])) == 1
    # the greedy coloring's chain is a clique: certified at any size
    assert oracle_chromatic_number(complete_graph(65)) == 65
    # a cycle's chain is no clique, so no chromatic number is claimed
    for graph in (cycle_graph(5), cycle_graph(6), cycle_graph(65)):
        with pytest.raises(DomainError, match="no clique"):
            oracle_chromatic_number(graph)


def test_chromatic_colors_the_twin_quotient():
    # 840 elements, but 32 order classes: chain 1 | 2 | 4 | 8 | 24 | 120 | 840
    graph = build_graph(Cyclic(840))
    assert graph.twins[0].vertex_count == 32
    assert oracle_chromatic_number(graph) == 7


QUOTIENT_SIZES = {10080: 72, 27720: 96, 98280: 128}


@pytest.mark.parametrize("n", QUOTIENT_SIZES)
def test_chromatic_is_certified_past_the_search_bound(n):
    spec = Cyclic(n)
    graph = build_graph(spec)
    assert graph.twins[0].vertex_count == QUOTIENT_SIZES[n]
    assert oracle_chromatic_number(graph) == chromatic_from_profile(order_profile(spec))


def test_eccentricities_known_graphs():
    assert eccentricities(star_graph(5)) == [1, 2, 2, 2, 2]
    assert eccentricities(complete_graph(3)) == [1, 1, 1]
    assert eccentricities(graph_from_edges(1, [])) == [0]
    # no vertex is adjacent to all others, so no eccentricity is claimed
    for graph in (path_graph(4), cycle_graph(6), graph_from_edges(2, [])):
        with pytest.raises(DomainError, match="no vertex is adjacent to all others"):
            eccentricities(graph)


def naive_eccentricities(graph: ODGraph) -> Optional[list[int]]:
    """Eccentricities by one BFS per vertex; None when disconnected."""
    out = []
    for start in range(graph.vertex_count):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in graph.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != graph.vertex_count:
            return None
        out.append(max(dist.values()))
    return out


@settings(max_examples=120)
@given(st.integers(min_value=1, max_value=9), st.data())
def test_eccentricities_match_naive_bfs(n, data):
    """Exact where some vertex is adjacent to all others (or there is only
    one vertex), and a DomainError everywhere else."""
    edges = []
    for v in range(1, n):
        # attach each new vertex somewhere earlier, keeping the graph connected
        edges.append((data.draw(st.integers(min_value=0, max_value=v - 1)), v))
    extra = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            max_size=12,
        )
    )
    edges.extend((u, v) for u, v in extra if u != v)
    graph = graph_from_edges(n, edges)
    expected = naive_eccentricities(graph)
    if 1 in expected or n == 1:
        assert eccentricities(graph) == expected
    else:
        with pytest.raises(DomainError):
            eccentricities(graph)


@st.composite
def with_universal_vertex(draw) -> ODGraph:
    """A random graph with one vertex adjacent to all others inserted at a
    random index."""
    base = draw(small_graphs())
    hub = draw(st.integers(min_value=0, max_value=base.vertex_count))

    def moved(v: int) -> int:
        return v + (v >= hub)

    edges = [(moved(u), moved(v)) for u, v in base.edges()]
    edges += [(hub, moved(v)) for v in range(base.vertex_count)]
    return graph_from_edges(base.vertex_count + 1, edges)


@st.composite
def small_graphs(draw) -> ODGraph:
    """Random graphs on up to 9 vertices, possibly disconnected.

    A base graph on up to 7 vertices, bipartite half the time so that its
    shortest cycle, if any, is even and at least 4, blown up: random base
    vertices are copied, some of them several times, and every copy is a
    twin of its original (twins share no edge).
    """
    n = draw(st.integers(min_value=1, max_value=7))
    bipartite = draw(st.booleans())
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not bipartite or (u + v) % 2
    ]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    copies = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=9 - n))
    originals = [*range(n), *copies]
    return graph_from_edges(
        len(originals),
        [
            (x, y)
            for x, y in itertools.combinations(range(len(originals)), 2)
            if tuple(sorted((originals[x], originals[y]))) in edges
        ],
    )


def naive_girth(graph: ODGraph) -> int:
    """Shortest cycle through each edge (u, v): the shortest u-v path
    without that edge, plus one; 0 when no edge lies on a cycle."""
    lengths = []
    for u, v in graph.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in graph.adjacency[x]:
                if {x, w} != {u, v} and w not in dist:
                    dist[w] = dist[x] + 1
                    queue.append(w)
        if v in dist:
            lengths.append(dist[v] + 1)
    return min(lengths, default=0)


@functools.lru_cache(maxsize=None)
def colorings(n: int) -> list[tuple[int, ...]]:
    """Every coloring of n vertices up to renaming the colors: vertex v takes
    at most one more than the largest color among vertices 0..v-1."""
    out = [()]
    for _ in range(n):
        out = [c + (b,) for c in out for b in range(max(c, default=-1) + 2)]
    return out


def least_colors(graph: ODGraph) -> int:
    """The chromatic number, by trying every coloring."""
    edges = graph.edges()
    return min(
        max(c, default=-1) + 1
        for c in colorings(graph.vertex_count)
        if all(c[u] != c[v] for u, v in edges)
    )


def exact_or_domain_error(oracle, graph: ODGraph, expected) -> None:
    """The oracle's answer is the expected one, unless it refuses to claim
    one with a DomainError."""
    try:
        answer = oracle(graph)
    except DomainError:
        return
    assert answer == expected


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_oracles_match_naive_on_random_graphs(graph):
    assert oracle_girth(graph) == naive_girth(graph)
    chromatic = least_colors(graph)
    assert oracle_is_bipartite(graph) == (chromatic <= 2)
    exact_or_domain_error(oracle_chromatic_number, graph, chromatic)
    exact_or_domain_error(eccentricities, graph, naive_eccentricities(graph))


def graph_from_orders(labels: list[int]) -> ODGraph:
    """The graph of the divisibility rule on any labels, realized by a group
    or not: an edge where two labels differ and one divides the other."""
    return ODGraph(
        orders=tuple(labels),
        adjacency=tuple(
            tuple(
                w
                for w, b in enumerate(labels)
                if a != b and (a % b == 0 or b % a == 0)
            )
            for a in labels
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=60), max_size=8))
def test_certificates_answer_on_every_divisibility_graph(labels):
    graph = graph_from_orders([1, *labels])
    assert oracle_chromatic_number(graph) == least_colors(graph)
    assert eccentricities(graph) == naive_eccentricities(graph)


@settings(max_examples=200, deadline=None)
@given(with_universal_vertex())
def test_eccentricities_with_a_universal_vertex_match_naive_bfs(graph):
    assert eccentricities(graph) == naive_eccentricities(graph)


# --- explicit order-divisor graphs -----------------------------------------


def test_build_graph_z6():
    graph = build_graph(Cyclic(6))
    assert graph.vertex_count == 6
    assert graph.edge_count == 11
    assert [len(neighbors) for neighbors in graph.adjacency] == [5, 4, 3, 3, 3, 4]


def test_class_degrees_names_the_first_disagreeing_vertex():
    graph = ODGraph(orders=(1, 2, 2), adjacency=((1, 2), (0,), ()))
    assert class_degrees(graph) == (
        {1: 2, 2: 1},
        "vertices of order 2 disagree: degree 1 vs 0 (vertex 2)",
    )


def test_build_graph_degenerate():
    graph = build_graph(Cyclic(1))
    assert graph.vertex_count == 1
    assert graph.edge_count == 0
    report = oracle_report(graph)
    assert report.is_star and not report.is_path
    assert (report.radius, report.diameter, report.girth) == (0, 0, 0)


def test_build_graph_d5():
    graph = build_graph(Dihedral(5))
    assert graph.vertex_count == 10
    assert graph.edge_count == 9
    report = oracle_report(graph)
    assert report.is_star and report.is_bipartite and report.girth == 0
    assert [len(neighbors) for neighbors in graph.adjacency] == [9] + [1] * 9


def test_build_graph_respects_bound():
    with pytest.raises(EnumerationBoundError):
        build_graph(Cyclic(1000), bound=100)


def test_build_graph_entry_limit_is_exact(monkeypatch):
    # Z12 has 6 order classes: 12 * 5 neighbor entries at most
    monkeypatch.setattr("odgraph.graph.MAX_GRAPH_ENTRIES", 60)
    assert build_graph(Cyclic(12)).vertex_count == 12
    monkeypatch.setattr("odgraph.graph.MAX_GRAPH_ENTRIES", 59)
    with pytest.raises(EnumerationBoundError, match="OD\\(Z12\\) needs up to 60"):
        build_graph(Cyclic(12))


def test_build_graph_vertex_limit_lists_no_element(monkeypatch):
    monkeypatch.setattr("odgraph.graph.MAX_GRAPH_VERTICES", 11)
    # a group past the enumeration bound keeps the bound's message
    with pytest.raises(EnumerationBoundError, match="exceeds the enumeration bound 5"):
        build_graph(Cyclic(12), bound=5)

    def no_listing(*args):
        raise AssertionError("element_orders called past the vertex limit")

    monkeypatch.setattr("odgraph.graph.element_orders", no_listing)
    with pytest.raises(EnumerationBoundError, match="OD\\(Z12\\) has 12 vertices"):
        build_graph(Cyclic(12))


def test_graph_limits_refuse_no_group_within_the_default_bound():
    # every element order divides |G|, so a group has at most max d(m)
    # order classes over m <= the bound
    divisor_counts = [0] * (DEFAULT_ENUMERATION_BOUND + 1)
    for d in range(1, DEFAULT_ENUMERATION_BOUND + 1):
        for m in range(d, DEFAULT_ENUMERATION_BOUND + 1, d):
            divisor_counts[m] += 1
    most_classes = max(divisor_counts)
    assert most_classes == 128
    assert DEFAULT_ENUMERATION_BOUND <= MAX_GRAPH_VERTICES
    assert DEFAULT_ENUMERATION_BOUND * (most_classes - 1) <= MAX_GRAPH_ENTRIES


def test_adjacency_rule_brute_force():
    specs = [
        Cyclic(12),
        Cyclic(60),
        Dihedral(6),
        Dihedral(12),
        Units(15),
        Units(21),
        Product((Cyclic(2), Cyclic(9))),
        Product((Cyclic(4), Cyclic(6))),
        Product((Cyclic(2), Dihedral(3))),
    ]
    for spec in specs:
        graph = build_graph(spec)
        orders = element_orders(spec)
        n = graph.vertex_count
        neighbor_sets = [set(a) for a in graph.adjacency]
        for u in range(n):
            assert u not in neighbor_sets[u]
            for v in range(u + 1, n):
                expected = orders[u] != orders[v] and (
                    orders[u] % orders[v] == 0 or orders[v] % orders[u] == 0
                )
                assert (v in neighbor_sets[u]) == expected
                assert (u in neighbor_sets[v]) == expected
        # identity is adjacent to every other vertex
        assert len(neighbor_sets[0]) == n - 1


def test_build_graph_memory_grows_with_vertices_not_edges():
    # 1.3e8 edges; one neighbor tuple per order class keeps the build small
    spec = Cyclic(20000)
    tracemalloc.start()
    try:
        graph = build_graph(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.edge_count == size_via_profile(order_profile(spec))
    assert peak < 64 * 2**20


def test_oracle_report_z8():
    report = oracle_report(build_graph(Cyclic(8)))
    assert report.size == 21
    assert report.girth == 3
    assert (report.radius, report.diameter) == (1, 2)
    assert not report.is_star and not report.is_bipartite


def test_oracle_report_z2():
    report = oracle_report(build_graph(Cyclic(2)))
    assert report.is_star and report.is_path
    assert (report.radius, report.diameter) == (1, 1)
    assert report.size == 1


def test_oracle_report_builds_the_twin_quotient_once(monkeypatch):
    builds = []
    twins = ODGraph.twins

    def counting(graph):
        builds.append(graph)
        return twins.func(graph)

    counted = functools.cached_property(counting)
    counted.__set_name__(ODGraph, "twins")
    monkeypatch.setattr(ODGraph, "twins", counted)
    # girth, bipartiteness and the chromatic number each ask for it
    oracle_report(build_graph(Cyclic(12)))
    assert len(builds) == 1


def test_chromatic_of_z6_measured():
    # certified by the divisor chain 1 | 2 | 6 or 1 | 3 | 6; order classes
    # {2,3} share a color, so the value is 3, far from the group order plus one
    assert oracle_chromatic_number(build_graph(Cyclic(6))) == 3


def scan_degrees(profile) -> dict[int, int]:
    """The O(classes**2) pairwise scan that degree_via_profile replaced,
    kept as its reference: every other class whose order divides or is a
    multiple of m."""
    return {
        m: sum(
            count
            for order, count in profile.items()
            if order != m and (order % m == 0 or m % order == 0)
        )
        for m in profile
    }


def test_degree_via_profile():
    assert degree_via_profile(order_profile(Cyclic(6))) == {1: 5, 2: 3, 3: 3, 6: 4}
    assert degree_via_profile(order_profile(Dihedral(4))) == {1: 7, 2: 3, 4: 6}
    # no identity; 3 | 6 missing; 4 and 6 share the missing 2
    for not_closed in ({2: 1}, {1: 1, 2: 1, 6: 4}, {1: 1, 4: 1, 6: 1}):
        with pytest.raises(DomainError):
            degree_via_profile(not_closed)


def longest_chain(orders) -> int:
    """The O(classes**2) reference for chromatic_from_profile: the most
    orders in one divisor chain."""
    chain: dict[int, int] = {}
    for m in sorted(orders):
        chain[m] = 1 + max((chain[d] for d in chain if m % d == 0), default=0)
    return max(chain.values(), default=0)


def divisor_closure(counts: dict[int, int]) -> dict[int, int]:
    """counts with every divisor of its orders (and 1) added, at count 1."""
    return {
        d: counts.get(d, 1)
        for m in [1, *counts]
        for d in range(1, m + 1)
        if m % d == 0
    }


profile_counts = st.dictionaries(st.integers(1, 400), st.integers(1, 5), max_size=12)


@settings(max_examples=200)
@given(profile_counts)
def test_degree_via_profile_matches_the_pairwise_scan(counts):
    # closed under divisors, the table is the scan's
    closed = divisor_closure(counts)
    assert degree_via_profile(closed) == scan_degrees(closed)
    # otherwise it is refused, or still the scan's ({1, 4} looks like {1, 2})
    try:
        table = degree_via_profile(counts)
    except DomainError:
        return
    assert table == scan_degrees(counts)


def test_chromatic_from_profile():
    assert chromatic_from_profile(order_profile(Cyclic(1))) == 1
    assert chromatic_from_profile(order_profile(Cyclic(6))) == 3
    assert chromatic_from_profile(order_profile(Units(24))) == 2
    assert chromatic_from_profile(order_profile(Dihedral(8))) == 4
    with pytest.raises(DomainError):
        chromatic_from_profile({1: 1, 2: 1, 6: 4})


@settings(max_examples=200)
@given(profile_counts)
def test_chromatic_from_profile_matches_the_longest_chain(counts):
    closed = divisor_closure(counts)
    assert chromatic_from_profile(closed) == longest_chain(closed)
    # otherwise it is refused, or still the chain's ({1, 4} looks like {1, 2})
    try:
        chromatic = chromatic_from_profile(counts)
    except DomainError:
        return
    assert chromatic == longest_chain(counts)


def test_size_via_profile():
    assert size_via_profile(order_profile(Cyclic(6))) == 11
    assert size_via_profile(order_profile(Cyclic(1))) == 0
    assert size_via_profile(order_profile(Dihedral(4))) == 17
    assert size_via_profile(order_profile(Dihedral(5))) == 9


def test_profile_routes_match_oracle_on_small_sweep():
    specs = (
        [Cyclic(n) for n in range(1, 61)]
        + [Dihedral(n) for n in range(3, 31)]
        + [Units(n) for n in range(2, 41)]
        + [Product((Cyclic(a), Cyclic(b))) for a in range(1, 7) for b in range(1, 7)]
    )
    for spec in specs:
        profile = order_profile(spec)
        graph = build_graph(spec)
        degrees, problem = class_degrees(graph)
        assert problem is None
        assert degrees == degree_via_profile(profile) == scan_degrees(profile)
        assert size_via_profile(profile) == graph.edge_count
        # handshake on the explicit graph
        assert sum(map(len, graph.adjacency)) == 2 * graph.edge_count


def test_radius_diameter_rule_samples():
    for spec in [Cyclic(3), Cyclic(36), Dihedral(3), Dihedral(10), Units(16)]:
        if group_order(spec) < 3:
            continue
        report = oracle_report(build_graph(spec))
        assert report.radius == 1
        assert report.diameter == 2
        assert not oracle_is_cycle_graph(build_graph(spec))


def test_edges_listing_is_sorted():
    graph = build_graph(Cyclic(6))
    edges = graph.edges()
    assert len(edges) == 11
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)
