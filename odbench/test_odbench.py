"""Tests of the benchmark itself: smoke runs, fault injection, the reference.

    python3 -m pytest -q odbench
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import odgraph  # noqa: E402
import odgraph.formulas  # noqa: E402
import odgraph.graph  # noqa: E402
import odgraph.verify  # noqa: E402

import cases  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def last_json_line(stdout: str) -> dict:
    def no_duplicates(pairs):
        keys = [key for key, _ in pairs]
        assert len(keys) == len(set(keys)), f"duplicate keys {keys}"
        return dict(pairs)

    return json.loads(stdout.strip().splitlines()[-1], object_pairs_hook=no_duplicates)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_prints_every_metric_once_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = last_json_line(done.stdout)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.declared_metrics("per_layer" if trace else "end_to_end")
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == expected
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert all(isinstance(value, (int, float)) for value in values.values())
    if trace:
        assert values["verify.checks_failed"] == 0
        # layer self times plus the benchmark's own time make up the wall time
        layers = sum(values[f"layer.{layer}.self_s"] for layer in ("cli", "numtheory", "groups",
                     "formulas", "graph", "verify", "bench"))
        assert layers == pytest.approx(values["trace.wall_s"], rel=0.02)
    else:
        assert all(value > 0 for value in values.values())


def run_in_process(workload: str) -> dict:
    args = run.parse_args(["--workload", workload, "--seed", "5", "--seconds", "0.5", "--tiny"])
    return run.run(args)


def wrong_deg_zn(n: int, m: int) -> int:
    return odgraph.formulas.deg_zn(n, m) + (n > 2 and m == n)


@pytest.mark.parametrize("workload", ["sweep", "oracle"])
def test_wrong_formula_suite_fails_the_run(workload, monkeypatch):
    for fn in (odgraph.verify.verify_group, odgraph.verify.sweep):
        broken = dataclasses.replace(fn.__kwdefaults__["suite"], deg_zn=wrong_deg_zn)
        monkeypatch.setitem(fn.__kwdefaults__, "suite", broken)
    result = run_in_process(workload)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["pass_ratio"]["value"] < 1


def test_corrupted_export_fails_the_run(monkeypatch):
    edges = odgraph.graph.ODGraph.edges
    monkeypatch.setattr(odgraph.graph.ODGraph, "edges", lambda graph: edges(graph)[:-1])
    result = run_in_process("oracle")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_wrong_size_formula_fails_the_run(monkeypatch):
    size_zn = odgraph.formulas.size_zn
    monkeypatch.setattr(odgraph.formulas, "size_zn", lambda n: size_zn(n) + 1)
    result = run_in_process("formula")
    assert not result["correct"] and result["failed"] > 0


def test_times_are_stated_in_reference_time():
    calibration = run.Calibration()
    calibration.samples = [2 * run.REF_CALIBRATION_S] * 4  # a host at half the reference speed
    calibration.marks = [1, 2, 4]
    ops = [workloads.Op(latency, 1, latency, 1000, latency) for latency in (0.1, 0.2, 0.3)]
    metrics = run.end_to_end("formula", ops, [], 0.5, calibration.scales())
    assert metrics["p50_ref_ms"] == pytest.approx(100.0)
    assert metrics["work_per_ref_s"] == pytest.approx(3 / 0.3)
    assert metrics["out_mb_per_ref_s"] == pytest.approx(0.003 / 0.3)
    assert metrics["setup_s"] == 0.5  # set-up stays in seconds


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "odbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "odbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_seeded(workload):
    generate = cases.GENERATORS[workload]
    first = list(itertools.islice(generate(7), 40))
    assert first == list(itertools.islice(generate(7), 40))
    assert first != list(itertools.islice(generate(8), 40))


def test_formula_cases_avoid_the_traps():
    for case in itertools.islice(cases.formula_cases(1), 300):
        cases.check_formula_case(case)
        if case.command == "degrees":
            assert ref.group_order(case.atoms) > cases.ENUM_BOUND


SMALL_GROUPS = (
    [(("Z", n, ref.factor_small(n)),) for n in range(1, 60)]
    + [(("D", n, ref.factor_small(n)),) for n in range(3, 40)]
    + [(("U", n, ref.factor_small(n)),) for n in range(2, 120)]
    + [(("Z", a, ref.factor_small(a)), ("D", b, ref.factor_small(b))) for a in (2, 4, 6) for b in (3, 4, 6)]
    + [(("U", 15, ref.factor_small(15)), ("Z", 6, ref.factor_small(6)), ("U", 16, ref.factor_small(16)))]
)


@pytest.mark.parametrize("atoms", SMALL_GROUPS, ids=cases.spec_text)
def test_reference_agrees_with_odgraph(atoms):
    spec = workloads.spec_object(atoms)
    profile = ref.group_profile(atoms)
    assert profile == dict(odgraph.order_profile(spec))
    assert ref.size_of(atoms) == odgraph.build_graph(spec).edge_count
    assert ref.girth_of(profile) == odgraph.girth_of_group(spec)
    family, n, fact = atoms[0]
    if len(atoms) == 1 and family == "Z":
        assert ref.cyclic_degrees(fact) == {m: odgraph.deg_zn(n, m) for m in profile}
    if len(atoms) == 1 and family == "D":
        assert ref.dihedral_degrees(n, fact) == {m: odgraph.deg_dn(n, m) for m in profile}
