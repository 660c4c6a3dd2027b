"""odgraph benchmark: one workload, one seed, one closed-loop run.

    python3 odbench/run.py --workload {sweep,oracle,formula} --seed N \
        --seconds S --trace {0,1} [--tiny]

Run it from the root of a checkout; it imports odgraph from ``src/`` and
builds nothing. One caller, one process, one thread: each operation starts
when the previous one has returned, until the operations have taken
``--seconds`` in total. Every output is checked against an independent
reference outside the timed region. The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
``setup_s`` is the median of fresh set-ups (interpreter, ``import odgraph``,
input generation) timed in child processes between operations.

The other end-to-end times are stated in reference time (``ref_ms``,
``ref_s``). On a shared host the speed a process gets can change by a
quarter or more for seconds to minutes at a time, for all code alike. So a
fixed pure-Python kernel that does not touch odgraph is timed between
operations (outside the timed region, once per CALIBRATION_EVERY_S of
operation time), and each operation's measured times are multiplied by
REF_CALIBRATION_S over the median kernel time of the samples around it:
the time the operation would have taken on a machine that runs the kernel
in exactly REF_CALIBRATION_S. A change to odgraph moves these figures as it
moves wall time; a change in the host's speed moves the kernel too and
cancels out.

``--trace 1`` wraps odgraph's layer boundaries with spans (see spans.py)
and reports the per-layer metrics; it then replays the same operations
untraced in a fresh interpreter to measure the tracing overhead, comparing
the two in reference time.

Computed size counts per case (vertices, edges, order classes, d(n)) go to
``.odbench/cases-<workload>-<seed>.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import chain, islice

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".odbench")
WORKLOADS = ("sweep", "oracle", "formula")

# cases generated up front as part of set-up; a run that outgrows the pool
# keeps drawing from the same seeded stream
POOL = {"sweep": 500, "oracle": 80, "formula": 600}
TINY_POOL = 20
# fresh set-ups timed per run, spread evenly over the timed loop: start-up
# time on this kind of shared VM swings by a third for seconds at a time, so
# back-to-back samples would all land in the same swing
SETUP_REPEATS = 15
# peak RSS is read once this many blocks of operations (cases.BLOCK) have
# returned (at the end of a shorter run): odgraph's unbounded lru_caches grow
# with every new formula query, so a reading at the end of the run would
# grow with throughput and a faster odgraph would read as a memory regression
RSS_BLOCKS = 4
# reference time: the calibration kernel's time on the reference machine;
# a kernel sample is taken once the operations have taken this much more
# time, and each operation is scaled by the samples this far either side
REF_CALIBRATION_S = 0.005
CALIBRATION_EVERY_S = 0.25
CALIBRATION_WINDOW = 10


def declared_metrics(kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares under `kind`:
    ``end_to_end`` for --trace 0, ``per_layer`` for --trace 1."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="odgraph benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    # internal: the children a run starts to time set-up and to replay untraced
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def case_stream(workload: str, seed: int, tiny: bool):
    """Set-up: generate the case pool; the stream continues past it."""
    import cases

    stream = cases.GENERATORS[workload](seed, tiny)
    pool = list(islice(stream, TINY_POOL if tiny else POOL[workload]))
    return chain(pool, stream)


def child(args, *extra: str) -> list[str]:
    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), *extra]
    return command + (["--tiny"] if args.tiny else [])


def setup_sampler(args, seconds: float):
    """(sample, times): sample(spent) times fresh interpreters that import
    odgraph and generate the run's inputs, one each time the loop's measured
    time passes another 1/SETUP_REPEATS of `seconds`; sample(math.inf) takes
    the rest. They run between operations, outside the timed region."""
    times = []

    def sample(spent: float) -> None:
        while len(times) < SETUP_REPEATS and spent >= (len(times) + 0.5) * seconds / SETUP_REPEATS:
            start = time.perf_counter()
            subprocess.run(child(args, "--setup-only"), check=True)
            times.append(time.perf_counter() - start)

    return sample, times


def calibration_kernel() -> int:
    """Fixed pure-Python integer work, independent of odgraph and of the
    inputs; its time tracks how fast the host runs Python at the moment."""
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return total


class Calibration:
    """Kernel samples taken between operations, and each operation's scale
    from measured to reference time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.marks: list[int] = []  # per operation: samples taken before it returned
        self._last = 0.0
        for _ in range(3):  # the first operations have samples before them too
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - start)

    def after(self, spent: float) -> None:
        """Call once per operation, after it returned; `spent` is the loop's
        measured time so far."""
        self.marks.append(len(self.samples))
        if spent - self._last >= CALIBRATION_EVERY_S:
            self._last = spent
            self.sample()

    def scales(self) -> list[float]:
        """Per operation: REF_CALIBRATION_S / the median of the samples
        within CALIBRATION_WINDOW of it, before and after."""
        w = CALIBRATION_WINDOW
        return [
            REF_CALIBRATION_S / statistics.median(self.samples[max(0, mark - w) : mark + w])
            for mark in self.marks
        ]


def run_loop(workload, stream, seconds, timer, max_ops=None, sink=None, between=None):
    """Closed loop; returns the operations' timings and the failures of their
    checks. Each output is checked, and dropped, before the next operation
    starts, and the per-case records go straight to `sink` (a text file, or
    None), so the benchmark's own memory does not grow with the operation
    count. `between(spent)`, if given, runs after each check."""
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    runner = workloads.RUNNERS[workload]
    ops, failures = [], []
    spent = 0.0
    for index, case in enumerate(stream):
        if (spent >= seconds) if max_ops is None else (index >= max_ops):
            break
        op, check = runner(case, index, WORKDIR, timer)
        op.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        spent += op.latency
        ops.append(op)
        try:
            failure, records = check()  # outside the timed region
        except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable output
            failure, records = f"operation {index}: check raised {exc!r}", []
        del check  # else the last output stays alive through the next operation
        if sink is not None:
            sink.writelines(json.dumps(record) + "\n" for record in records)
        if failure:
            failures.append(failure)
        if between is not None:
            between(spent)
    return ops, failures


def percentile(values, q: float) -> float:
    """Inclusive linear-interpolation percentile, q in (0, 1)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def end_to_end(workload, ops, failures, setup_s, scales) -> dict:
    """Throughput as whole-run totals and latency percentiles, all in
    reference time (each operation times its scale); set-up in seconds."""
    import cases

    latencies = [op.latency * scale for op, scale in zip(ops, scales)]
    work_seconds = sum(op.work_seconds * scale for op, scale in zip(ops, scales))
    out_seconds = sum(op.out_seconds * scale for op, scale in zip(ops, scales))
    rss_at = min(RSS_BLOCKS * cases.BLOCK[workload], len(ops)) - 1
    return {
        "setup_s": setup_s,
        "work_per_ref_s": sum(op.work for op in ops) / work_seconds,
        "out_mb_per_ref_s": sum(op.out_bytes for op in ops) / 1e6 / out_seconds,
        "p50_ref_ms": 1e3 * percentile(latencies, 0.5),
        "p90_ref_ms": 1e3 * percentile(latencies, 0.9),
        "peak_rss_mb": ops[rss_at].peak_rss_kb / 1024,
        "pass_ratio": (len(ops) - len(failures)) / len(ops),
    }


def phi_terms(formula_calls, factorizations) -> int:
    """phi terms the closed forms sum: d(n/m) for a degree, the divisor pairs
    m | k | n for a size (plus d(n/2) for D_n's reflection block)."""
    import reference as ref

    def fact_of(n):
        if n not in factorizations:
            factorizations[n] = ref.factor_small(n)
        return factorizations[n]

    def quotient(fact, m):
        out = []
        for p, e in fact:
            while m % p == 0:
                m //= p
                e -= 1
            out.append((p, e))
        return tuple(out)

    total = 0
    for kind, args in formula_calls:
        n = args[0]
        fact = fact_of(n)
        if kind.startswith("size"):
            total += math.prod((e + 1) * (e + 2) // 2 for _, e in fact)
            if kind == "size_dn" and n % 2 == 0:
                total += ref.divisor_count(quotient(fact, 2))
        else:
            m = args[1]
            if kind == "deg_dn" and m == 1:
                continue
            if n % m == 0:
                total += ref.divisor_count(quotient(fact, m))
    return total


def bytes_per_edge(tracer) -> float:
    """Peak traced allocation of build_graph per edge, over the (up to)
    three largest graphs of the run, rebuilt after the traced window."""
    import tracemalloc

    import odgraph.graph

    peak_total = edge_total = 0
    for edges, spec in tracer.built_specs:
        tracemalloc.start()
        try:
            odgraph.graph.build_graph(spec)
            peak_total += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        edge_total += edges
    return peak_total / edge_total if edge_total else 0.0


def per_layer(tracer, ops, factorizations, overhead_ratio) -> dict:
    factorize = tracer.caches["factorize"].cache_info()
    factorize_calls = factorize.hits + factorize.misses
    wall = sum(op.latency for op in ops)
    layers = {f"layer.{name}.self_s": cell[0] for name, cell in tracer.layer_self.items()}
    counts = tracer.counts
    return {
        "cli.main.calls": tracer.calls("cli.main"),
        "cli.main.self_s": tracer.self_time("cli.main"),
        "cli.parse_spec.s": tracer.inclusive("cli.parse_spec"),
        "cli.bytes_out": sum(op.out_bytes for op in ops),
        "numtheory.factorize.s": tracer.inclusive("numtheory.factorize"),
        "numtheory.factorize.calls": factorize_calls,
        "numtheory.factorize.miss_ratio": factorize.misses / factorize_calls if factorize_calls else 0.0,
        "numtheory.divisors.misses": tracer.caches["divisors"].cache_info().misses,
        "numtheory.multiplicative_order.calls": tracer.calls("numtheory.multiplicative_order"),
        "groups.order_profile.s": tracer.inclusive("groups.order_profile"),
        "groups.order_profile.calls": tracer.calls("groups.order_profile"),
        "groups.element_orders.s": tracer.inclusive("groups.element_orders"),
        "groups.elements_enumerated": counts["elements_enumerated"],
        "groups.element_labels.s": tracer.inclusive("groups.element_labels"),
        "formulas.size.s": tracer.inclusive("formulas.size"),
        "formulas.degree.s": tracer.inclusive("formulas.degree"),
        "formulas.girth.s": tracer.inclusive("formulas.girth"),
        "formulas.star.s": tracer.inclusive("formulas.star"),
        "formulas.phi_terms": phi_terms(tracer.formula_calls, factorizations),
        "graph.build_graph.s": tracer.inclusive("graph.build_graph"),
        "graph.vertices_built": counts["vertices_built"],
        "graph.edges_built": counts["edges_built"],
        "graph.order_classes": counts["order_classes"],
        "graph.build_bytes_per_edge": bytes_per_edge(tracer),
        "graph.eccentricities.s": tracer.inclusive("graph.eccentricities"),
        "graph.oracle_girth.s": tracer.inclusive("graph.oracle_girth"),
        "graph.oracle_is_bipartite.s": tracer.inclusive("graph.oracle_is_bipartite"),
        "graph.oracle_chromatic_number.s": tracer.inclusive("graph.oracle_chromatic_number"),
        "graph.chromatic_exact_count": counts["chromatic_exact"],
        "graph.class_degrees.s": tracer.inclusive("graph.class_degrees"),
        "graph.edges_iter.s": tracer.inclusive("graph.edges_iter"),
        "verify.verify_group.calls": tracer.calls("verify.verify_group"),
        "verify.verify_group.self_s": tracer.self_time("verify.verify_group"),
        "verify.checks": counts["checks"],
        "verify.checks_failed": counts["checks_failed"],
        "verify.to_dict.s": tracer.inclusive("verify.to_dict"),
        **layers,
        "trace.wall_s": wall,
        "trace.unaccounted_ratio": (wall - sum(layers.values())) / wall,
        "trace.overhead_ratio": overhead_ratio,
    }


def reference_wall(ops, calibration: Calibration) -> float:
    """The operations' total time in reference time."""
    return sum(op.latency * scale for op, scale in zip(ops, calibration.scales()))


def replay_wall(args, count: int) -> float:
    """Untraced time of the first `count` operations in reference time, in a
    fresh interpreter."""
    done = subprocess.run(child(args, "--replay", str(count)), check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["ref_wall_s"]


def run(args) -> dict:
    import spans
    import workloads

    factorizations = {}
    stream = case_stream(args.workload, args.seed, args.tiny)
    os.makedirs(WORKDIR, exist_ok=True)
    records = os.path.join(WORKDIR, f"cases-{args.workload}-{args.seed}.jsonl")
    calibration = Calibration()
    with open(records, "w", encoding="utf-8") as sink:
        if args.trace:

            def remember(case):
                for family, n, fact in getattr(case, "atoms", ()):
                    factorizations[n] = fact
                return case

            tracer = spans.Tracer()
            restore = spans.install(tracer)
            try:
                ops, failures = run_loop(args.workload, map(remember, stream), args.seconds,
                                         tracer.timer, sink=sink, between=calibration.after)
            finally:
                restore()
        else:
            sample_setup, setup_times = setup_sampler(args, args.seconds)

            def between(spent):
                calibration.after(spent)
                sample_setup(spent)

            ops, failures = run_loop(args.workload, stream, args.seconds, workloads.plain_timer,
                                     sink=sink, between=between)
            sample_setup(math.inf)
    if args.trace:
        untraced = replay_wall(args, len(ops))
        overhead = (reference_wall(ops, calibration) - untraced) / untraced
        metrics = per_layer(tracer, ops, factorizations, overhead)
        units = declared_metrics("per_layer")
    else:
        metrics = end_to_end(args.workload, ops, failures, statistics.median(setup_times),
                             calibration.scales())
        units = declared_metrics("end_to_end")
    for failure in failures[:10]:
        print(f"FAIL {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "odgraph", "__init__.py")):
        print(f"odbench: no odgraph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.setup_only:
        import workloads  # noqa: F401  (imports odgraph)

        case_stream(args.workload, args.seed, args.tiny)
        return 0
    if args.replay is not None:
        import workloads

        stream = case_stream(args.workload, args.seed, args.tiny)
        calibration = Calibration()
        ops, _ = run_loop(args.workload, stream, math.inf, workloads.plain_timer, args.replay,
                          between=calibration.after)
        print(json.dumps({"ref_wall_s": reference_wall(ops, calibration)}))
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
