"""Explicit order-divisor graphs and invariants certified on them.

The order-divisor graph of a finite group has one vertex per element; two
distinct vertices are adjacent exactly when their element orders differ
and one order divides the other. Everything in this module is read
directly off the explicit graph, so it can serve as an independent oracle
for the closed-form results elsewhere in the package.

Adjacency depends only on element orders, so every vertex of one order has
the same neighbors and no two of them are adjacent. ``build_graph`` builds
one sorted neighbor tuple per order class and every vertex of that class
points to it, so memory grows with vertices times order classes, not with
edges.

Every oracle reads a certificate that only an order-divisor graph is sure
to carry, and raises DomainError on a graph without it. The first is a
vertex adjacent to all others, such as the identity. It makes the graph
connected, gives each vertex that is not universal eccentricity 2, and
closes a triangle with every edge that avoids it. So the girth is 3 when
the graph has more than n - 1 edges, and 0 otherwise, when it is a star;
and the graph is bipartite exactly when it is a star. The second is a
clique as large as a greedy coloring of the twin quotient H
(``ODGraph.twins``), the subgraph induced by one representative per set of
vertices with identical neighbor sets. Twins are never adjacent, so each
takes its representative's color and H has the graph's chromatic number.
H's vertices, in (order, index) order, take greedy colors, whose
back-pointers give a clique with as many vertices as the coloring has
colors; on an order-divisor graph they form a divisor chain.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

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
    def twins(self) -> ODGraph:
        """The twin quotient H: the first vertex of each set of twins, in
        vertex order, with the edges of the explicit adjacency among them.

        A tuple shared by several vertices (one per order class, from
        build_graph) is found once by identity, equal tuples are merged,
        and each pair of representatives costs one bisect.
        """
        adjacency = self.adjacency
        # keyed while walking backwards, so each tuple keeps its first vertex
        first_of_tuple = dict(
            zip(map(id, reversed(adjacency)), reversed(range(len(adjacency))))
        )
        first_of_set: dict[tuple[int, ...], int] = {}
        for v in sorted(first_of_tuple.values()):
            first_of_set.setdefault(adjacency[v], v)
        reps = list(first_of_set.values())
        return ODGraph(
            orders=tuple(self.orders[rep] for rep in reps),
            adjacency=tuple(
                tuple(i for i, w in enumerate(reps) if _contains(adjacency[rep], w))
                for rep in reps
            ),
        )


def _contains(neighbors: tuple[int, ...], w: int) -> bool:
    """w is in the sorted tuple neighbors."""
    k = bisect_left(neighbors, w)
    return k < len(neighbors) and neighbors[k] == w


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


def class_degrees(graph: ODGraph) -> dict[int, int]:
    """Per-order-class oracle degree, order -> degree; DomainError names
    the first vertex whose degree disagrees with its class."""
    degrees: dict[int, int] = {}
    for v, order in enumerate(graph.orders):
        d = len(graph.adjacency[v])
        seen = degrees.setdefault(order, d)
        if seen != d:
            raise DomainError(
                f"vertices of order {order} disagree: degree {seen} vs {d} (vertex {v})"
            )
    return degrees


def _degrees(graph: ODGraph) -> list[int]:
    """Every vertex's degree, once some vertex is adjacent to all others;
    DomainError when none is (as on the empty graph)."""
    degrees = list(map(len, graph.adjacency))
    if len(degrees) - 1 not in degrees:
        raise DomainError(
            "no vertex is adjacent to all others; no universal-vertex certificate"
        )
    return degrees


def eccentricities(graph: ODGraph) -> list[int]:
    """Eccentricity of every vertex, read off a universal vertex.

    On n > 1 vertices, each vertex of degree n - 1 has eccentricity 1, and
    every other vertex 2, since it misses some vertex and reaches every
    vertex through a universal one. A single vertex has eccentricity 0.
    """
    degrees = _degrees(graph)
    n = len(degrees)
    if n == 1:
        return [0]
    return [1 if d == n - 1 else 2 for d in degrees]


def _has_triangle(graph: ODGraph) -> bool:
    """More edges than the n - 1 at a universal vertex: each further edge
    avoids it and closes a triangle with it. Otherwise every edge meets it,
    so the graph is a star."""
    degrees = _degrees(graph)
    return sum(degrees) > 2 * (len(degrees) - 1)


def oracle_girth(graph: ODGraph) -> int:
    """Length of a shortest cycle: 3 with a triangle, otherwise 0 (a star)."""
    return 3 if _has_triangle(graph) else 0


def oracle_is_bipartite(graph: ODGraph) -> bool:
    """No triangle, so a star, which is bipartite; a triangle is not."""
    return not _has_triangle(graph)


def _has_degrees(graph: ODGraph, degrees: list[int]) -> bool:
    """This sorted degree sequence, and connected through a universal
    vertex. The degree sums are compared first, so the sort runs only on a
    matching sum."""
    actual = _degrees(graph)
    return sum(actual) == sum(degrees) and sorted(actual) == degrees


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
    quotient = graph.twins
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
