"""Explicit order-divisor graphs and brute-force invariants.

The order-divisor graph of a finite group has one vertex per element; two
distinct vertices are adjacent exactly when their element orders differ
and one order divides the other. Everything in this module is computed
directly on the explicit graph (breadth-first layers, backtracking search),
so it can serve as an independent oracle for the closed-form results
elsewhere in the package. The chromatic number is exact backtracking on the
quotient by twins (vertices with identical neighbor sets); verification
reports it as information only, not as a check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import DomainError
from .groups import (
    DEFAULT_ENUMERATION_BOUND,
    GroupSpec,
    OrderProfile,
    element_orders,
)

DEFAULT_CHROMATIC_BOUND = 64

__all__ = [
    "DEFAULT_CHROMATIC_BOUND",
    "InvariantReport",
    "ODGraph",
    "build_graph",
    "class_degrees",
    "degree_via_profile",
    "eccentricities",
    "oracle_chromatic_number",
    "oracle_girth",
    "oracle_is_bipartite",
    "oracle_is_cycle_graph",
    "oracle_is_path",
    "oracle_is_star",
    "oracle_report",
    "size_via_profile",
]


@dataclass(frozen=True)
class ODGraph:
    """Immutable simple graph over group elements, annotated with orders."""

    spec: Optional[GroupSpec]
    orders: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.orders)

    @property
    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self.adjacency) // 2

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [
            (u, v)
            for u in range(len(self.adjacency))
            for v in self.adjacency[u]
            if u < v
        ]


def build_graph(spec: GroupSpec, bound: int = DEFAULT_ENUMERATION_BOUND) -> ODGraph:
    """Construct the explicit order-divisor graph of a group."""
    orders = element_orders(spec, bound)
    classes: dict[int, list[int]] = {}
    for v, order in enumerate(orders):
        classes.setdefault(order, []).append(v)
    adjacency: list[list[int]] = [[] for _ in orders]
    distinct = sorted(classes)
    # adjacency depends only on element orders, so edges run between whole
    # order classes: every pair of classes whose orders divide one another
    for i, low in enumerate(distinct):
        for high in distinct[i + 1 :]:
            if high % low == 0:
                for u in classes[low]:
                    for v in classes[high]:
                        adjacency[u].append(v)
                        adjacency[v].append(u)
    return ODGraph(
        spec=spec,
        orders=tuple(orders),
        adjacency=tuple(tuple(sorted(neighbors)) for neighbors in adjacency),
    )


def degree_via_profile(profile: OrderProfile, m: int) -> int:
    """Degree of any order-m vertex, computed from the order profile alone."""
    if m not in profile:
        raise DomainError(f"order {m} is not realized in the profile")
    return sum(
        count
        for order, count in profile.items()
        if order != m and (order % m == 0 or m % order == 0)
    )


def size_via_profile(profile: OrderProfile) -> int:
    """Edge count from the profile, by summing degrees over order classes."""
    total = sum(
        count * degree_via_profile(profile, order) for order, count in profile.items()
    )
    if total % 2:
        raise DomainError("degree sum is odd; not a valid order profile")
    return total // 2


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


def _twin_groups(graph: ODGraph) -> tuple[list[int], list[int]]:
    """Group vertices with identical neighbor sets.

    Such vertices are never adjacent and are interchangeable for distances,
    shortest cycles and colorings, so one representative each suffices.
    Returns the list of representatives and a vertex -> representative table.
    """
    reps_by_signature: dict[tuple[int, ...], int] = {}
    rep_of = [0] * graph.vertex_count
    for v in range(graph.vertex_count):
        rep_of[v] = reps_by_signature.setdefault(graph.adjacency[v], v)
    return sorted(reps_by_signature.values()), rep_of


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
    """BFS eccentricity of every vertex; raises on disconnected graphs."""
    reps, rep_of = _twin_groups(graph)
    ecc_of_rep = {}
    for rep in reps:
        sizes = [len(layer) for layer in _bfs_levels(graph, rep)]
        if sum(sizes) != graph.vertex_count:
            raise DomainError("graph is disconnected; eccentricities are undefined")
        ecc_of_rep[rep] = len(sizes) - 1
    return [ecc_of_rep[rep_of[v]] for v in range(graph.vertex_count)]


def oracle_girth(graph: ODGraph) -> int:
    """Length of a shortest cycle, 0 when the graph is acyclic.

    BFS layers from every twin representative: a layer-i vertex with two
    neighbors in layer i - 1 closes a cycle of length at most 2i, an edge
    inside layer i one of at most 2i + 1, and both are exact from a root on
    a shortest cycle. 3 is an early exit (no shorter cycle exists).
    """
    adjacency = graph.adjacency
    shortest = 0
    roots, _ = _twin_groups(graph)
    for root in roots:
        previous: set[int] = set()
        for i, layer in enumerate(_bfs_levels(graph, root)):
            if len(previous) > 1 and any(
                len(previous.intersection(adjacency[v])) > 1 for v in layer
            ):
                shortest = 2 * i
                break
            if any(not layer.isdisjoint(adjacency[v]) for v in layer):
                if i == 1:
                    return 3
                shortest = 2 * i + 1
                break
            if shortest and 2 * (i + 1) >= shortest:
                break
            previous = layer
    return shortest


def oracle_is_bipartite(graph: ODGraph) -> bool:
    """No edge inside any BFS layer, over every component."""
    reached: set[int] = set()
    for root in range(graph.vertex_count):
        if root in reached:
            continue
        for layer in _bfs_levels(graph, root):
            if any(not layer.isdisjoint(graph.adjacency[v]) for v in layer):
                return False
            reached |= layer
    return True


def oracle_is_star(graph: ODGraph) -> bool:
    """One hub adjacent to everything else, all other vertices of degree 1.

    A single vertex counts as the degenerate star; the degree multiset
    criterion below covers it (and forces connectivity via the hub).
    """
    n = graph.vertex_count
    degrees = sorted(len(neighbors) for neighbors in graph.adjacency)
    return degrees == [1] * (n - 1) + [n - 1]


def oracle_is_path(graph: ODGraph) -> bool:
    """Path on >= 2 vertices: two endpoints of degree 1, the rest degree 2.

    A single vertex is treated as a degenerate star rather than a path, so
    the path shape characterizes exactly the groups with 2 or 3 elements.
    """
    n = graph.vertex_count
    if n < 2:
        return False
    degrees = sorted(len(neighbors) for neighbors in graph.adjacency)
    if degrees != [1, 1] + [2] * (n - 2):
        return False
    return sum(map(len, _bfs_levels(graph, 0))) == n


def oracle_is_cycle_graph(graph: ODGraph) -> bool:
    """Connected, 2-regular, with as many edges as vertices."""
    n = graph.vertex_count
    if n < 3:
        return False
    if any(len(neighbors) != 2 for neighbors in graph.adjacency):
        return False
    return graph.edge_count == n and sum(map(len, _bfs_levels(graph, 0))) == n


def _k_colorable(adjacency: list[set[int]], order: list[int], k: int) -> bool:
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


def oracle_chromatic_number(
    graph: ODGraph, max_vertices: int = DEFAULT_CHROMATIC_BOUND
) -> Optional[int]:
    """Exact chromatic number by backtracking; None when past max_vertices.

    Runs on the subgraph induced by the twin representatives, which has the
    same chromatic number: each twin takes its representative's color.
    """
    if graph.vertex_count > max_vertices:
        return None
    reps, _ = _twin_groups(graph)
    index = {rep: i for i, rep in enumerate(reps)}
    adjacency = [{index[w] for w in graph.adjacency[r] if w in index} for r in reps]
    order = sorted(range(len(reps)), key=lambda v: -len(adjacency[v]))
    return next(k for k in itertools.count() if _k_colorable(adjacency, order, k))


@dataclass(frozen=True)
class InvariantReport:
    """Invariants measured directly on an explicit graph."""

    group_order: int
    size: int
    girth: int
    degree_sequence: dict[int, int]
    is_star: bool
    is_bipartite: bool
    is_path: bool
    radius: int
    diameter: int
    chromatic_number: Optional[int]


def oracle_report(
    graph: ODGraph, chromatic_bound: int = DEFAULT_CHROMATIC_BOUND
) -> InvariantReport:
    """Measure all supported invariants on the explicit graph."""
    n = graph.vertex_count
    degrees = {v: len(graph.adjacency[v]) for v in range(n)}
    ecc = eccentricities(graph)
    return InvariantReport(
        group_order=n,
        size=sum(degrees.values()) // 2,
        girth=oracle_girth(graph),
        degree_sequence=degrees,
        is_star=oracle_is_star(graph),
        is_bipartite=oracle_is_bipartite(graph),
        is_path=oracle_is_path(graph),
        radius=min(ecc),
        diameter=max(ecc),
        chromatic_number=oracle_chromatic_number(graph, chromatic_bound),
    )
