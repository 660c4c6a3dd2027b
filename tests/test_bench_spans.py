"""The benchmark's tracer (odbench/spans.py) wraps odgraph functions by
module and name, so dropping or renaming one of them breaks every traced
benchmark run with a KeyError. Installing the tracer and undoing it here
catches that in the tier-1 run; odbench is only read, never changed."""

import types
from pathlib import Path

import odgraph.cli
import odgraph.formulas

SPANS = Path(__file__).resolve().parent.parent / "odbench" / "spans.py"


def load_spans() -> types.ModuleType:
    # executed from its source text, so no bytecode is written under odbench/
    module = types.ModuleType("odbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), vars(module))
    return module


def test_benchmark_tracer_installs_and_restores():
    spans = load_spans()
    originals = (odgraph.cli.main, odgraph.formulas.order_profile)
    restore = spans.install(spans.Tracer())
    try:
        assert (odgraph.cli.main, odgraph.formulas.order_profile) != originals
    finally:
        restore()
    assert (odgraph.cli.main, odgraph.formulas.order_profile) == originals
