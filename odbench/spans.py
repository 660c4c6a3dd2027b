"""Layer spans for the traced run, installed from outside the program.

A wrapper only sees the calls that resolve through the attribute it
replaces, so each one is installed where its callers look the name up:
``from .graph import build_graph`` gives ``odgraph.verify.build_graph`` and
``odgraph.cli.build_graph`` their own bindings, while ``numtheory.X`` and
``formulas.X`` are looked up on the module at call time. ``FormulaSuite``
captured its functions when the class was defined, so verify_group and
sweep get a suite of wrapped functions through their keyword defaults.

Spans are aggregated as they close: per key the call count, the inclusive
time of the outermost span of that key, and self time (duration minus the
time of child spans); per layer the self time. The self times of all layers
plus the time outside any span add up to the traced wall time.

The boundaries crossed 10^5-10^6 times per run are not spanned per call:
``factorize`` and ``divisors`` keep an lru_cache in front of a spanned
function, so only misses are timed and hits come from ``cache_info()``;
``multiplicative_order`` is counted without a span; ``euler_phi`` is not
wrapped. The time of the calls left unspanned stays with their caller.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable

import odgraph.cli
import odgraph.formulas
import odgraph.graph
import odgraph.groups
import odgraph.numtheory
import odgraph.verify

LAYERS = ("cli", "numtheory", "groups", "formulas", "graph", "verify", "bench")


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, outermost inclusive s, self s, depth]
        self.layer_self = {layer: [0.0] for layer in LAYERS}
        self.counts: Counter = Counter()
        self.formula_calls: list[tuple[str, tuple]] = []
        self.built_specs: list[tuple[int, Any]] = []
        self.caches: dict[str, Callable] = {}  # numtheory lru_caches installed by install()
        self._stack: list[list[float]] = []

    def wrap(self, key: str, fn: Callable, after: Callable | None = None) -> Callable:
        """fn inside a span named key; after(result, args) runs once it closes."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])
        layer_self = self.layer_self[key.split(".", 1)[0]]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[3] -= 1
                own = elapsed - children[0]
                stat[0] += 1
                stat[2] += own
                layer_self[0] += own
                if not stat[3]:
                    stat[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(result, args)
            return result

        return functools.update_wrapper(traced, fn)

    def counted(self, key: str, fn: Callable) -> Callable:
        """fn with a call count but no span, for per-element boundaries."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0])

        def counting(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(counting, fn)

    def timer(self, fn, *args):
        """The runner's timer: the benchmark's own share of an operation is
        the ``bench`` layer."""
        traced = self.wrap("bench.op", fn)
        start = time.perf_counter()
        result = traced(*args)
        return result, time.perf_counter() - start

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def inclusive(self, *keys: str) -> float:
        return sum(self.stats.get(key, [0, 0.0])[1] for key in keys)

    def self_time(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[2]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap odgraph's layer boundaries; returns the function that undoes it."""
    cli, formulas, graph = odgraph.cli, odgraph.formulas, odgraph.graph
    groups, numtheory, verify = odgraph.groups, odgraph.numtheory, odgraph.verify
    undo: list[Callable[[], None]] = []

    def put(owner, name: str, value) -> None:
        old = owner.__dict__[name]
        setattr(owner, name, value)
        undo.append(lambda: setattr(owner, name, old))

    def span(owners, name: str, key: str, after=None) -> None:
        wrapped = tracer.wrap(key, getattr(owners[0], name), after)
        for owner in owners:
            put(owner, name, wrapped)

    def record_graph(graph_obj, args) -> None:
        edges = graph_obj.edge_count
        tracer.counts["vertices_built"] += graph_obj.vertex_count
        tracer.counts["edges_built"] += edges
        tracer.counts["order_classes"] += len(set(graph_obj.orders))
        tracer.built_specs.append((edges, args[0]))
        tracer.built_specs.sort(key=lambda item: -item[0])
        del tracer.built_specs[3:]

    def record_checks(result, args) -> None:
        tracer.counts["checks"] += len(result.checks)
        tracer.counts["checks_failed"] += sum(not check.passed for check in result.checks)

    def count(counter: str, amount: Callable[[Any], int]):
        def after(result, args):
            tracer.counts[counter] += amount(result)

        return after

    def log_formula(kind: str):
        def after(result, args):
            tracer.formula_calls.append((kind, args))

        return after

    # numtheory: misses only behind the caches; multiplicative_order runs
    # once per element of U(n), so it is counted, and its time stays with
    # groups, which enumerates
    for name in ("factorize", "divisors"):
        raw = getattr(numtheory, name).__wrapped__
        tracer.caches[name] = functools.lru_cache(maxsize=None)(
            tracer.wrap(f"numtheory.{name}", raw)
        )
        put(numtheory, name, tracer.caches[name])
    put(numtheory, "multiplicative_order", tracer.counted(
        "numtheory.multiplicative_order", numtheory.multiplicative_order))
    span([numtheory], "is_composite", "numtheory.primality")
    span([numtheory], "is_prime", "numtheory.primality")

    # groups, at every module that imported the names
    span([groups, graph], "element_orders", "groups.element_orders",
         count("elements_enumerated", len))
    span([cli, formulas, verify], "order_profile", "groups.order_profile")
    span([cli, formulas, verify], "group_order", "groups.group_order")
    span([cli, verify], "format_spec", "groups.format_spec")
    span([cli], "element_labels", "groups.element_labels")

    # formulas, looked up as formulas.X by cli and verify
    for name in ("size_zn", "size_dn"):
        span([formulas], name, "formulas.size", log_formula(name))
    for name in ("deg_zn", "deg_dn"):
        span([formulas], name, "formulas.degree", log_formula(name))
    for name in ("girth_of_group", "girth_from_profile", "girth_of_product"):
        span([formulas], name, "formulas.girth")
    for name in ("is_star_group", "is_bipartite_group"):
        span([formulas], name, "formulas.star")
    span([formulas], "is_path_group", "formulas.path")

    # graph
    span([cli, verify], "build_graph", "graph.build_graph", record_graph)
    span([cli, verify], "oracle_report", "graph.oracle_report")
    span([cli, verify], "class_degrees", "graph.class_degrees")
    span([cli, verify], "degree_via_profile", "graph.degree_via_profile")
    span([cli, verify], "size_via_profile", "graph.size_via_profile")
    span([verify], "oracle_is_cycle_graph", "graph.oracle_is_cycle_graph")
    span([graph], "eccentricities", "graph.eccentricities")
    span([graph], "oracle_girth", "graph.oracle_girth")
    span([graph], "oracle_is_bipartite", "graph.oracle_is_bipartite")
    span([graph], "oracle_chromatic_number", "graph.oracle_chromatic_number",
         count("chromatic_exact", lambda result: result is not None))
    span([graph.ODGraph], "edges", "graph.edges_iter")

    # verify
    span([verify], "verify_group", "verify.verify_group", record_checks)
    span([cli], "sweep", "verify.sweep")
    span([verify.SweepReport], "to_dict", "verify.to_dict")
    span([verify.VerificationResult], "to_dict", "verify.to_dict")
    for fn in (verify.verify_group.__wrapped__, verify.sweep):
        old_defaults = dict(fn.__kwdefaults__)
        suite = old_defaults["suite"]
        fn.__kwdefaults__["suite"] = type(suite)(
            deg_zn=tracer.wrap("formulas.degree", suite.deg_zn, log_formula("deg_zn")),
            deg_dn=tracer.wrap("formulas.degree", suite.deg_dn, log_formula("deg_dn")),
            size_zn=tracer.wrap("formulas.size", suite.size_zn, log_formula("size_zn")),
            size_dn=tracer.wrap("formulas.size", suite.size_dn, log_formula("size_dn")),
        )
        undo.append(lambda fn=fn, old=old_defaults: setattr(fn, "__kwdefaults__", old))

    # cli
    span([cli], "parse_spec", "cli.parse_spec")
    span([cli], "main", "cli.main")

    def restore() -> None:
        for step in reversed(undo):
            step()

    return restore
