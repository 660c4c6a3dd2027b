"""Explicit order-divisor graphs and brute-force invariants.

The order-divisor graph of a finite group has one vertex per element; two
distinct vertices are adjacent exactly when their element orders differ
and one order divides the other. Everything in this module is computed
directly on the explicit graph (breadth-first layers, a coloring certified
by a clique of its size), so it can serve as an independent oracle for
the closed-form results elsewhere in the package.

Adjacency depends only on element orders, so every vertex of one order has
the same neighbors and no two of them are adjacent. ``build_graph`` builds
one sorted neighbor tuple per order class and every vertex of that class
points to it, so memory grows with vertices times order classes, not with
edges. Vertices with identical neighbor sets (twins) are never adjacent
and are interchangeable for distances and colorings, so girth,
bipartiteness and the chromatic number run on the twin quotient H
(``ODGraph.twins``), the subgraph induced by one representative per set
of twins, built at most once per graph from the explicit adjacency. A
shortest cycle through two twins u, u' shortens to the 4-cycle u, a, u',
b, so the girth is H's, or 4 if smaller and some twin set of size at least
2 has degree at least 2. All twins can take one color, so the graph is
bipartite exactly when H is, and H has the graph's chromatic number.

Two oracles read a certificate that only an order-divisor graph is sure to
carry, and raise DomainError on a graph without it. The chromatic number
comes from a greedy coloring of H in (order, index) order, whose
back-pointers give a clique with as many vertices as the coloring has
colors; on an order-divisor graph they form a divisor chain. The
eccentricities come from a vertex adjacent to all others, such as the
identity.
"""

from __future__ import annotations

import functools
import itertools
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import DomainError, EnumerationBoundError
from .groups import DEFAULT_ENUMERATION_BOUND, GroupSpec, element_orders

# most vertices build_graph enumerates, whatever the enumeration bound
MAX_GRAPH_VERTICES = 2**20
# most neighbor entries build_graph stores, |G| x (classes - 1) at most; a
# group of at most 10**5 elements has at most 128 orders, so stays within it
MAX_GRAPH_ENTRIES = 2**24

__all__ = [
    "MAX_GRAPH_ENTRIES",
    "MAX_GRAPH_VERTICES",
    "InvariantReport",
    "ODGraph",
    "build_graph",
    "class_degrees",
    "eccentricities",
    "oracle_chromatic_number",
    "oracle_girth",
    "oracle_is_bipartite",
    "oracle_is_cycle_graph",
    "oracle_is_path",
    "oracle_is_star",
    "oracle_report",
]


@dataclass(frozen=True)
class ODGraph:
    """Immutable simple graph over group elements, annotated with orders.

    ``adjacency[v]`` is the tuple of v's neighbors in ascending order.
    """

    orders: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.orders)

    @property
    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [
            (u, v)
            for u, neighbors in enumerate(self.adjacency)
            for v in neighbors[bisect_right(neighbors, u) :]
        ]

    @functools.cached_property
    def twins(self) -> tuple[ODGraph, tuple[int, ...]]:
        """The twin quotient H, and the H vertex of every vertex.

        H's vertices are the first vertex of each set of twins, in vertex
        order; its edges are read from the explicit adjacency. A tuple
        shared by several vertices (one per order class, from build_graph)
        is hashed once, keyed by identity, rather than per vertex.
        """
        class_by_signature: dict[tuple[int, ...], int] = {}
        class_by_identity: dict[int, int] = {}
        reps: list[int] = []
        class_of = []
        for v, neighbors in enumerate(self.adjacency):
            c = class_by_identity.get(id(neighbors))
            if c is None:
                c = class_by_signature.setdefault(neighbors, len(reps))
                if c == len(reps):
                    reps.append(v)
                class_by_identity[id(neighbors)] = c
            class_of.append(c)
        index = {rep: i for i, rep in enumerate(reps)}
        quotient = ODGraph(
            orders=tuple(self.orders[rep] for rep in reps),
            adjacency=tuple(
                tuple(index[w] for w in self.adjacency[rep] if w in index)
                for rep in reps
            ),
        )
        return quotient, tuple(class_of)


def build_graph(spec: GroupSpec, bound: int = DEFAULT_ENUMERATION_BOUND) -> ODGraph:
    """Construct the explicit order-divisor graph of a group.

    All vertices of one order share a single immutable neighbor tuple: the
    vertices of every other order that divides or is divided by theirs.
    Raises EnumerationBoundError past the bound, past MAX_GRAPH_VERTICES
    vertices (before any element is listed), or past MAX_GRAPH_ENTRIES
    neighbor entries (before any neighbor tuple is built).
    """
    vertices = spec.order()
    # a group past the bound gets the bound's own message from element_orders
    if bound >= vertices > MAX_GRAPH_VERTICES:
        raise EnumerationBoundError(
            f"OD({spec.text()}) has {vertices} vertices, over {MAX_GRAPH_VERTICES}"
        )
    orders = element_orders(spec, bound)
    classes: dict[int, list[int]] = {}
    for v, order in enumerate(orders):
        classes.setdefault(order, []).append(v)
    entries = len(orders) * (len(classes) - 1)
    if entries > MAX_GRAPH_ENTRIES:
        raise EnumerationBoundError(
            f"OD({spec.text()}) needs up to {entries} neighbor entries, "
            f"over {MAX_GRAPH_ENTRIES}"
        )
    neighbors: dict[int, tuple[int, ...]] = {}
    for m in classes:
        comparable = (
            members
            for k, members in classes.items()
            if k != m and (k % m == 0 or m % k == 0)
        )
        neighbors[m] = tuple(sorted(itertools.chain.from_iterable(comparable)))
    return ODGraph(
        orders=orders,
        adjacency=tuple(neighbors[order] for order in orders),
    )


def class_degrees(graph: ODGraph) -> tuple[dict[int, int], Optional[str]]:
    """Per-order-class oracle degree, confirming classes are degree-uniform.

    Returns (order -> degree, problem) where problem describes the first
    vertex whose degree disagrees with its class, or None.
    """
    degrees: dict[int, int] = {}
    for v, order in enumerate(graph.orders):
        d = len(graph.adjacency[v])
        seen = degrees.setdefault(order, d)
        if seen != d:
            return degrees, (
                f"vertices of order {order} disagree: degree {seen} vs {d} (vertex {v})"
            )
    return degrees, None


def _bfs_levels(graph: ODGraph, root: int) -> Iterator[set[int]]:
    """Breadth-first layers of root's component: {root}, its neighbors, ...

    Each layer is built only when the caller asks for the next one, so a
    caller that stops early skips the rest of the search.
    """
    visited = {root}
    frontier = {root}
    while frontier:
        yield frontier
        next_frontier: set[int] = set()
        for u in frontier:
            next_frontier.update(graph.adjacency[u])
        next_frontier -= visited
        visited |= next_frontier
        frontier = next_frontier


def eccentricities(graph: ODGraph) -> list[int]:
    """Eccentricity of every vertex, read off a universal vertex.

    On n > 1 vertices, each vertex of degree n - 1 has eccentricity 1, and
    every other vertex 2, since it misses some vertex and reaches every
    vertex through a universal one. A single vertex has eccentricity 0.
    Raises DomainError when no vertex is universal, which the identity of
    every order-divisor graph is.
    """
    n = graph.vertex_count
    degrees = list(map(len, graph.adjacency))
    if n == 1:
        return [0]
    if n - 1 not in degrees:
        raise DomainError("no vertex is adjacent to all others; no eccentricities")
    return [1 if d == n - 1 else 2 for d in degrees]


def oracle_girth(graph: ODGraph) -> int:
    """Length of a shortest cycle, 0 when the graph is acyclic.

    Runs on the twin quotient H, from 4 when a twin set of size at least 2
    has degree (its neighboring twin sets' sizes added up) at least 2. A BFS
    from every vertex of H: an edge x-y other than the tree edge into x
    closes a cycle of length at most dist(x) + dist(y) + 1 >= 2 dist(x),
    exact from a root on a shortest cycle, so a BFS stops once 2 dist(x)
    reaches the shortest found. 3 is an early exit (no shorter cycle exists).
    """
    quotient, class_of = graph.twins
    adjacency = quotient.adjacency
    class_sizes = Counter(class_of)
    twin_square = any(
        class_sizes[c] > 1 and sum(class_sizes[w] for w in neighbors) > 1
        for c, neighbors in enumerate(adjacency)
    )
    shortest = 4 if twin_square else math.inf
    for root in range(quotient.vertex_count):
        queue, dist, parent = [root], {root: 0}, {root: root}
        for x in queue:
            if 2 * dist[x] >= shortest:
                break
            for y in adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x]:
                    shortest = min(shortest, dist[x] + dist[y] + 1)
                    if shortest == 3:
                        return 3
    return 0 if shortest == math.inf else shortest


def oracle_is_bipartite(graph: ODGraph) -> bool:
    """No edge inside any BFS layer, over every component of the twin
    quotient H; all twins can take one color, so the graph is bipartite
    exactly when H is."""
    quotient = graph.twins[0]
    reached: set[int] = set()
    for root in range(quotient.vertex_count):
        if root in reached:
            continue
        for layer in _bfs_levels(quotient, root):
            if any(not layer.isdisjoint(quotient.adjacency[v]) for v in layer):
                return False
            reached |= layer
    return True


def _has_degrees(graph: ODGraph, degrees: list[int]) -> bool:
    """Connected, with this sorted degree sequence. The degree sums are
    compared first, then the sorted degrees, so the sort runs only on a
    matching sum and the BFS from vertex 0 only on matching degrees."""
    n = graph.vertex_count
    return (
        sum(map(len, graph.adjacency)) == sum(degrees)
        and sorted(map(len, graph.adjacency)) == degrees
        and 0 < n == sum(map(len, _bfs_levels(graph, 0)))
    )


def oracle_is_star(graph: ODGraph) -> bool:
    """One hub adjacent to every other vertex, each of those of degree 1; a
    single vertex counts as the degenerate star."""
    n = graph.vertex_count
    return _has_degrees(graph, [1] * (n - 1) + [n - 1])


def oracle_is_path(graph: ODGraph) -> bool:
    """Path on >= 2 vertices: two endpoints of degree 1, the rest degree 2.

    A single vertex is treated as a degenerate star rather than a path, so
    the path shape characterizes exactly the groups with 2 or 3 elements.
    """
    return _has_degrees(graph, [1, 1] + [2] * (graph.vertex_count - 2))


def oracle_is_cycle_graph(graph: ODGraph) -> bool:
    """Connected and 2-regular, so a cycle on at least 3 vertices."""
    return _has_degrees(graph, [2] * graph.vertex_count)


def oracle_chromatic_number(graph: ODGraph) -> int:
    """Exact chromatic number, certified by a coloring and a clique of the
    same size; DomainError when the coloring carries no such clique.

    Runs on the twin quotient H, which has the same chromatic number: each
    twin takes its representative's color. H's vertices, in (order, index)
    order, each take 1 + the largest color among their earlier neighbors,
    which is proper on every edge whatever the order. Back-pointers to those
    neighbors, from a vertex of the top color, give one vertex per color;
    when H's adjacency makes them a clique, no fewer colors suffice. Orders
    only break ties, so the certificate reads the explicit graph alone (on
    an order-divisor graph the chain is a divisor chain, hence a clique).
    """
    quotient = graph.twins[0]
    adjacency = quotient.adjacency
    color = [0] * len(adjacency)
    below: list[Optional[int]] = [None] * len(adjacency)
    for v in sorted(range(len(adjacency)), key=lambda v: (quotient.orders[v], v)):
        below[v] = max(
            (w for w in adjacency[v] if color[w]), key=color.__getitem__, default=None
        )
        color[v] = 1 if below[v] is None else color[below[v]] + 1
    top = max(range(len(color)), key=color.__getitem__, default=None)
    chain = []
    while top is not None:
        chain.append(top)
        top = below[top]
    clique = set(chain)
    if not all(clique.issubset((v, *adjacency[v])) for v in chain):
        raise DomainError("the coloring's chain is no clique; no chromatic number")
    return len(chain)


@dataclass(frozen=True)
class InvariantReport:
    """Invariants measured directly on an explicit graph."""

    size: int
    girth: int
    is_star: bool
    is_bipartite: bool
    is_path: bool
    radius: int
    diameter: int
    chromatic_number: int


def oracle_report(graph: ODGraph) -> InvariantReport:
    """Measure all supported invariants on the explicit graph."""
    ecc = eccentricities(graph)
    return InvariantReport(
        size=graph.edge_count,
        girth=oracle_girth(graph),
        is_star=oracle_is_star(graph),
        is_bipartite=oracle_is_bipartite(graph),
        is_path=oracle_is_path(graph),
        radius=min(ecc),
        diameter=max(ecc),
        chromatic_number=oracle_chromatic_number(graph),
    )
