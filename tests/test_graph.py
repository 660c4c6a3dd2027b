"""Explicit graph construction and the brute-force invariant oracle."""

import functools
import tracemalloc
from collections import deque
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from odgraph.errors import DomainError, EnumerationBoundError
from odgraph.formulas import degree_via_profile, size_via_profile
from odgraph.graph import (
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
    Cyclic,
    Dihedral,
    Units,
    direct_product,
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
        spec=None,
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


# --- oracle behavior on known synthetic graphs -----------------------------


def test_oracle_girth_known_graphs():
    assert oracle_girth(complete_graph(3)) == 3
    assert oracle_girth(complete_graph(4)) == 3
    assert oracle_girth(cycle_graph(4)) == 4
    assert oracle_girth(cycle_graph(5)) == 5
    assert oracle_girth(cycle_graph(6)) == 6
    assert oracle_girth(path_graph(4)) == 0
    assert oracle_girth(star_graph(7)) == 0
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


def test_oracle_chromatic_known_graphs():
    assert oracle_chromatic_number(complete_graph(4)) == 4
    assert oracle_chromatic_number(cycle_graph(5)) == 3
    assert oracle_chromatic_number(cycle_graph(6)) == 2
    assert oracle_chromatic_number(path_graph(3)) == 2
    assert oracle_chromatic_number(star_graph(8)) == 2
    assert oracle_chromatic_number(graph_from_edges(3, [])) == 1
    assert oracle_chromatic_number(complete_graph(9), max_vertices=8) is None


def test_eccentricities_known_graphs():
    assert eccentricities(path_graph(4)) == [3, 2, 2, 3]
    assert eccentricities(cycle_graph(6)) == [3] * 6
    assert eccentricities(star_graph(5)) == [1, 2, 2, 2, 2]
    assert eccentricities(graph_from_edges(1, [])) == [0]
    with pytest.raises(DomainError):
        eccentricities(graph_from_edges(2, []))


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
    assert eccentricities(graph) == naive_eccentricities(graph)


@st.composite
def small_graphs(draw) -> ODGraph:
    """Random graphs on up to 9 vertices, possibly disconnected.

    A base graph on up to 7 vertices, bipartite half the time so that its
    shortest cycle, if any, is even and at least 4, plus up to two twins
    that copy a base vertex's neighbors (twins share no edge).
    """
    n = draw(st.integers(min_value=1, max_value=7))
    bipartite = draw(st.booleans())
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if not bipartite or (u + v) % 2
    ]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    neighbors = [{w for e in edges if v in e for w in e} - {v} for v in range(n)]
    originals = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2))
    for twin, original in enumerate(originals, start=n):
        edges += [(twin, w) for w in neighbors[original]]
    return graph_from_edges(n + len(originals), edges)


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


@settings(max_examples=200, deadline=None)
@given(small_graphs())
def test_oracles_match_naive_on_random_graphs(graph):
    assert oracle_girth(graph) == naive_girth(graph)
    edges = graph.edges()
    color_counts = [
        max(c, default=-1) + 1
        for c in colorings(graph.vertex_count)
        if all(c[u] != c[v] for u, v in edges)
    ]
    assert oracle_is_bipartite(graph) == (min(color_counts) <= 2)
    assert oracle_chromatic_number(graph) == min(color_counts)
    expected = naive_eccentricities(graph)
    if expected is None:
        with pytest.raises(DomainError):
            eccentricities(graph)
    else:
        assert eccentricities(graph) == expected


# --- explicit order-divisor graphs -----------------------------------------


def test_build_graph_z6():
    graph = build_graph(Cyclic(6))
    assert graph.vertex_count == 6
    assert graph.edge_count == 11
    assert {v: graph.degree(v) for v in range(6)} == {0: 5, 1: 4, 2: 3, 3: 3, 4: 3, 5: 4}


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
    assert report.degree_sequence[0] == 9
    assert all(report.degree_sequence[v] == 1 for v in range(1, 10))


def test_build_graph_respects_bound():
    with pytest.raises(EnumerationBoundError):
        build_graph(Cyclic(1000), bound=100)


def test_adjacency_rule_brute_force():
    specs = [
        Cyclic(12),
        Cyclic(60),
        Dihedral(6),
        Dihedral(12),
        Units(15),
        Units(21),
        direct_product(Cyclic(2), Cyclic(9)),
        direct_product(Cyclic(4), Cyclic(6)),
        direct_product(Cyclic(2), Dihedral(3)),
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


def test_chromatic_of_z6_measured():
    # frozen from the exact backtracking oracle; order classes {2,3} share
    # a color, so the value is 3, far from the group order plus one
    assert oracle_chromatic_number(build_graph(Cyclic(6))) == 3


def test_degree_via_profile():
    profile = order_profile(Cyclic(6))
    assert degree_via_profile(profile, 1) == 5
    assert degree_via_profile(profile, 2) == 3
    assert degree_via_profile(profile, 3) == 3
    assert degree_via_profile(profile, 6) == 4
    with pytest.raises(DomainError):
        degree_via_profile(profile, 4)
    d4 = order_profile(Dihedral(4))
    assert degree_via_profile(d4, 2) == 3
    assert degree_via_profile(d4, 1) == 7


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
        + [direct_product(Cyclic(a), Cyclic(b)) for a in range(1, 7) for b in range(1, 7)]
    )
    for spec in specs:
        profile = order_profile(spec)
        graph = build_graph(spec)
        degrees, problem = class_degrees(graph)
        assert problem is None
        assert degrees == {m: degree_via_profile(profile, m) for m in profile}
        assert size_via_profile(profile) == graph.edge_count
        # handshake on the explicit graph
        assert sum(graph.degree(v) for v in range(graph.vertex_count)) == 2 * graph.edge_count


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
