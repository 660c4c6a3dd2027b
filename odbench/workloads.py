"""One operation of each workload, and the check of its output.

An operation drives odgraph the way its users do: ``odgraph.cli.main(argv)``
in-process, and for ``oracle`` a direct ``verify_group`` call. Only the
program calls sit inside the timer; each runner returns the operation's
timings and a ``check`` closure over its output, which the loop calls
afterwards, outside the timed region, and then drops. Checks compare
against ``reference``, a route the program did not take.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

import odgraph.cli
import odgraph.groups
import odgraph.verify

import cases
import reference as ref

Timer = Callable[..., tuple[Any, float]]
Check = Callable[[], tuple[Optional[str], list[dict]]]


def plain_timer(fn, *args):
    """Run fn(*args) and return (result, seconds)."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


@dataclass
class Op:
    latency: float  # seconds the closed-loop caller waited for this operation
    work: float  # work units: instances (sweep), edges verified (oracle), queries (formula)
    work_seconds: float
    out_bytes: int  # bytes the CLI wrote, to stdout or to --out files
    out_seconds: float
    peak_rss_kb: int = 0  # the process's ru_maxrss once this operation returned


def call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = odgraph.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def case_record(label: str, atoms: tuple[ref.Atom, ...]) -> dict:
    """Computed size counts of one group; they repeat exactly for a seed."""
    profile = ref.group_profile(atoms)
    return {
        "case": label,
        "group": cases.spec_text(atoms),
        "vertices": ref.group_order(atoms),
        "edges": ref.size_of(atoms),
        "order_classes": len(profile),
        "d": cases.divisor_count_of(atoms),
    }


def _cli_failure(argv, code, err) -> Optional[str]:
    if code != 0 or err:
        return f"{' '.join(argv)}: exit {code}: {err.strip()}"
    return None


# --- sweep -----------------------------------------------------------------


def run_sweep(case: cases.SweepCase, index: int, workdir: str, timer: Timer) -> tuple[Op, Check]:
    argv = case.argv
    (code, out, err), seconds = timer(call_cli, argv)
    size = len(out.encode())
    instances = case.instances()
    op = Op(seconds, len(instances), seconds, size, seconds)
    return op, lambda: check_sweep(case, argv, code, out, err, instances)


def check_sweep(case, argv, code, out, err, instances):
    label = " ".join(argv)
    records = [case_record(label, atoms) for atoms in instances]
    failure = _cli_failure(argv, code, err)
    if failure:
        return failure, records
    report = json.loads(out)
    if not report["pass"] or report["failed"] or report["range"] != [case.lo, case.hi]:
        return f"{label}: sweep reported failures", records
    if len(report["instances"]) != len(instances):
        return f"{label}: {len(report['instances'])} instances, expected {len(instances)}", records
    for instance, record in zip(report["instances"], records):
        sizes = [c["oracle"] for c in instance["checks"] if c["name"] == "size_profile"]
        if (
            not instance["pass"]
            or instance["spec"] != record["group"]
            or instance["order"] != record["vertices"]
            or sizes != [record["edges"]]
        ):
            return f"{label}: instance {instance['spec']} disagrees with the reference", records
    for key, value in report["notes"].items():
        if isinstance(value, bool) and not value:
            return f"{label}: note {key} is false", records
    if case.family == "units":
        stars = [atoms[0][1] for atoms in instances if ref.is_star(ref.group_profile(atoms))]
        if report["notes"].get("star_instances") != stars:
            return f"{label}: star instances differ from the reference {stars}", records
    return None, records


# --- oracle ----------------------------------------------------------------


def spec_object(atoms: tuple[ref.Atom, ...]):
    """The odgraph group spec of a case's atoms."""
    family = {"Z": odgraph.groups.Cyclic, "D": odgraph.groups.Dihedral, "U": odgraph.groups.Units}
    specs = tuple(family[f](n) for f, n, _ in atoms)
    return specs[0] if len(specs) == 1 else odgraph.groups.Product(specs)


def run_oracle(case: cases.OracleCase, index: int, workdir: str, timer: Timer) -> tuple[Op, Check]:
    spec = spec_object(case.atoms)
    path = os.path.join(workdir, f"export-{index}.{case.fmt}")
    argv = ["export", case.text, "--format", case.fmt, "--out", path]
    record = case_record(f"oracle {case.fmt}", case.atoms)
    result, verify_seconds = timer(odgraph.verify.verify_group, spec)
    (code, out, err), export_seconds = timer(call_cli, argv)
    size = os.path.getsize(path) if os.path.exists(path) else 0
    op = Op(
        verify_seconds + export_seconds,
        record["edges"], verify_seconds,
        size + len(out.encode()), export_seconds,
    )
    return op, lambda: check_oracle(case, argv, path, result, code, err, record)


def check_oracle(case, argv, path, result, code, err, record):
    try:
        sizes = [c.oracle for c in result.checks if c.name == "size_profile"]
        if not result.passed or sizes != [record["edges"]]:
            return f"verify_group {case.text}: {result.first_mismatch or sizes}", [record]
        failure = _cli_failure(argv, code, err)
        if failure:
            return failure, [record]
        vertices, edges = _exported_counts(path, case.fmt)
        if edges != record["edges"] or vertices not in (None, record["vertices"]):
            found = (vertices, edges)
            return f"export {case.text} {case.fmt}: {found} disagrees with {record}", [record]
        return None, [record]
    finally:
        if os.path.exists(path):
            os.remove(path)


def _exported_counts(path: str, fmt: str) -> tuple[Optional[int], int]:
    """(vertices, edges) as written; csv carries no vertex list."""
    with open(path, encoding="utf-8", newline="") as handle:
        if fmt == "dot":
            vertices = edges = 0
            for line in handle:
                if " -- " in line:
                    edges += 1
                elif "[label=" in line:
                    vertices += 1
            return vertices, edges
        if fmt == "csv":
            rows = sum(1 for _ in csv.reader(handle))
            return None, rows - 1
        data = json.load(handle)
    if data["invariants"]["size"] != len(data["edges"]) or data["order"] != len(data["vertices"]):
        return None, -1
    return len(data["vertices"]), len(data["edges"])


# --- formula ---------------------------------------------------------------


def run_formula(case: cases.FormulaCase, index: int, workdir: str, timer: Timer) -> tuple[Op, Check]:
    argv = case.argv
    (code, out, err), seconds = timer(call_cli, argv)
    op = Op(seconds, 1, seconds, len(out.encode()), seconds)
    return op, lambda: check_formula(case, argv, code, out, err)


def expected_formula_output(case: cases.FormulaCase) -> dict:
    atoms = case.atoms
    text = cases.spec_text(atoms)
    if case.command == "size":
        return {"group": text, "size": ref.size_of(atoms)}
    profile = ref.group_profile(atoms)
    if case.command == "girth":
        return {"group": text, "girth": ref.girth_of(profile)}
    order = ref.group_order(atoms)
    if case.command == "classify":
        star = ref.is_star(profile)
        return {
            "group": text,
            "order": order,
            "is_star": star,
            "is_bipartite": star,
            "is_path": order in (2, 3),
            "profile": {str(m): c for m, c in profile.items()},
        }
    family, n, fact = atoms[0]
    degrees = ref.cyclic_degrees(fact) if family == "Z" else ref.dihedral_degrees(n, fact)
    rows = [
        {"order": m, "count": c, "degree_formula": degrees[m], "degree_oracle": None}
        for m, c in profile.items()
    ]
    return {"group": text, "order": order, "rows": rows}


def check_formula(case, argv, code, out, err):
    record = case_record(case.kind, case.atoms)
    failure = _cli_failure(argv, code, err)
    if failure:
        return failure, [record]
    if json.loads(out) != expected_formula_output(case):
        return f"{' '.join(argv)}: output differs from the reference", [record]
    return None, [record]


RUNNERS = {"sweep": run_sweep, "oracle": run_oracle, "formula": run_formula}
