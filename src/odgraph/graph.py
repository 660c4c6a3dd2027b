"""Explicit order-divisor graphs and brute-force invariants.

The order-divisor graph of a finite group has one vertex per element; two
distinct vertices are adjacent exactly when their element orders differ
and one order divides the other. Everything in this module is computed
directly on the explicit graph (breadth-first layers, backtracking search),
so it can serve as an independent oracle for the closed-form results
elsewhere in the package.

Adjacency depends only on element orders, so every vertex of one order has
the same neighbors and no two of them are adjacent. ``build_graph`` builds
one sorted neighbor tuple per order class and every vertex of that class
points to it, so memory grows with vertices times order classes, not with
edges. Vertices with identical neighbor sets (twins) are never adjacent
and are interchangeable for distances and colorings, so every structural
oracle runs on the twin quotient H (``ODGraph.twins``), the subgraph
induced by one representative per set of twins, built at most once per
graph from the explicit adjacency. A shortest cycle through two twins u,
u' shortens to the 4-cycle u, a, u', b, so the girth is H's, or 4 if
smaller and some twin set of size at least 2 has degree at least 2. All
twins can take one color, so the graph is bipartite exactly when H is,
and H has the graph's chromatic number, found by exact backtracking.
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

# most twin-quotient vertices the exact coloring search takes; past it the
# search grows too fast (96 quotient vertices already take seconds)
CHROMATIC_BOUND = 64
# most vertices build_graph enumerates, whatever the enumeration bound
MAX_GRAPH_VERTICES = 2**20
# most neighbor entries build_graph stores, |G| x (classes - 1) at most; a
# group of at most 10**5 elements has at most 128 orders, so stays within it
MAX_GRAPH_ENTRIES = 2**24

__all__ = [
    "CHROMATIC_BOUND",
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
    """BFS eccentricity of every vertex; raises on disconnected graphs.

    Twins are never adjacent and share their neighbors, so distances between
    representatives are the same in the twin quotient H as in the graph, and
    a vertex with a twin is at distance 2 from it. The BFS runs on H: a
    representative's eccentricity is its eccentricity in H, at least 2 when
    it has a twin, and the graph is connected when H is and no vertex of a
    graph with more than one vertex is isolated.
    """
    quotient, class_of = graph.twins
    class_sizes = Counter(class_of)
    ecc_of_class = []
    for i in range(quotient.vertex_count):
        sizes = [len(layer) for layer in _bfs_levels(quotient, i)]
        if sum(sizes) != quotient.vertex_count or (
            len(sizes) == 1 and graph.vertex_count > 1
        ):
            raise DomainError("graph is disconnected; eccentricities are undefined")
        ecc_of_class.append(max(len(sizes) - 1, 2 if class_sizes[i] > 1 else 0))
    return [ecc_of_class[c] for c in class_of]


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
    """Connected, with this sorted degree sequence. The degrees are compared
    first, so the BFS from vertex 0 runs only on a match."""
    n = graph.vertex_count
    return sorted(map(len, graph.adjacency)) == degrees and 0 < n == sum(
        map(len, _bfs_levels(graph, 0))
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


def _k_colorable(
    adjacency: tuple[tuple[int, ...], ...], order: list[int], k: int
) -> bool:
    n = len(order)
    colors: dict[int, int] = {}

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        v = order[i]
        taken = {colors[w] for w in adjacency[v] if w in colors}
        # symmetry break: allow at most one color not used so far
        for c in range(min(k, used + 1)):
            if c not in taken:
                colors[v] = c
                if assign(i + 1, max(used, c + 1)):
                    return True
                del colors[v]
        return False

    return assign(0, 0)


def oracle_chromatic_number(graph: ODGraph) -> Optional[int]:
    """Exact chromatic number by backtracking; None when the twin quotient
    has more than CHROMATIC_BOUND vertices.

    Runs on the subgraph induced by the twin representatives, which has the
    same chromatic number: each twin takes its representative's color.
    """
    adjacency = graph.twins[0].adjacency
    if len(adjacency) > CHROMATIC_BOUND:
        return None
    order = sorted(range(len(adjacency)), key=lambda v: -len(adjacency[v]))
    return next(k for k in itertools.count() if _k_colorable(adjacency, order, k))


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
    chromatic_number: Optional[int]


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
