"""Command-line interface.

Subcommands::

    odgraph degrees  SPEC        per-order degree table
    odgraph size     SPEC        edge count
    odgraph girth    SPEC        girth (0 = acyclic)
    odgraph classify SPEC        star/bipartite/path flags plus order profile
    odgraph export   SPEC        graph as dot, json, or csv
    odgraph verify   FAMILY LO..HI   formula-vs-oracle sweep

Group specs use a small grammar: ``Z<n>``, ``D<n>`` (n >= 3), ``U<n>``
(n >= 2), joined with ``x`` for direct products, e.g. ``Z2xZ3xZ5``.
Letters are case-insensitive and whitespace is ignored.

Exit codes: 0 on success (all sweep instances passing), 1 on runtime
failure or any verification mismatch, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from typing import Any, Iterable, Optional, Sequence

from . import formulas
from .errors import (
    DomainError,
    EnumerationBoundError,
    SpecConstraintError,
    SpecSyntaxError,
)
from .formulas import degree_via_profile, size_via_profile
from .graph import build_graph, class_degrees, oracle_report
from .groups import (
    DEFAULT_ENUMERATION_BOUND,
    Cyclic,
    Dihedral,
    GroupSpec,
    Product,
    Units,
    element_labels,
    format_spec,
    group_order,
    order_profile,
)
from .verify import SWEEP_FAMILIES, family_formulas, sweep

__all__ = ["main", "parse_spec"]

_DIGITS = "0123456789"
_FAMILY_LETTERS = {"Z": Cyclic, "D": Dihedral, "U": Units}


def _decimal(digits: str) -> int:
    """int() of ASCII digits; past Python's digit limit, a DomainError."""
    try:
        return int(digits)
    except ValueError:
        raise DomainError(f"number too long: {len(digits)} digits") from None


def parse_spec(text: str) -> GroupSpec:
    """Parse group-spec text such as ``Z6`` or ``Z2xZ3``.

    Raises SpecSyntaxError (with the byte offset) on malformed text and
    SpecConstraintError when a family bound is violated (e.g. ``D2``).
    """

    def byte_offset(j: int) -> int:
        return len(text[:j].encode("utf-8"))

    def skip_ws(j: int) -> int:
        while j < len(text) and text[j].isspace():
            j += 1
        return j

    atoms: list[GroupSpec] = []
    i = 0
    expect_atom = True
    while True:
        i = skip_ws(i)
        if expect_atom:
            if i >= len(text):
                raise SpecSyntaxError(
                    "expected a group atom (Z<n>, D<n>, or U<n>)", byte_offset(i)
                )
            family = text[i].upper()
            if family not in _FAMILY_LETTERS:
                raise SpecSyntaxError(
                    f"expected family letter Z, D, or U, found {text[i]!r}",
                    byte_offset(i),
                )
            i = skip_ws(i + 1)
            start = i
            while i < len(text) and text[i] in _DIGITS:
                i += 1
            if start == i:
                raise SpecSyntaxError("expected a decimal number", byte_offset(i))
            try:
                atoms.append(_FAMILY_LETTERS[family](_decimal(text[start:i])))
            except DomainError as exc:
                raise SpecConstraintError(str(exc)) from exc
            expect_atom = False
        else:
            if i >= len(text):
                break
            if text[i] in "xX":
                i += 1
                expect_atom = True
            else:
                raise SpecSyntaxError(
                    f"expected 'x' or end of spec, found {text[i]!r}", byte_offset(i)
                )
    if len(atoms) == 1:
        return atoms[0]
    return Product(tuple(atoms))


def _emit(payload: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(payload)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)


def _json_payload(data: Any) -> str:
    return json.dumps(data, indent=2) + "\n"


def _csv_payload(header: list[str], rows: Iterable[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _aligned_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for col, cell in enumerate(row):
            widths[col] = max(widths[col], len(cell))
    lines = []
    for row in [headers, *rows]:
        lines.append("  ".join(cell.rjust(widths[col]) for col, cell in enumerate(row)))
    return "\n".join(lines) + "\n"


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _degree_rows(spec: GroupSpec, args) -> list[dict[str, Any]]:
    profile = order_profile(spec)
    oracle_degrees: Optional[dict[int, int]] = None
    # past the bound build_graph raises, which --oracle turns into a failure
    if args.oracle or group_order(spec) <= args.enum_bound:
        oracle_degrees, _ = class_degrees(build_graph(spec, args.enum_bound))
    # looked up on the module per call, so a patched formula takes effect
    closed_forms = family_formulas(spec, formulas)
    if closed_forms is None:
        degrees = degree_via_profile(profile)
    else:
        degrees = {m: closed_forms[0](m) for m in profile}
    return [
        {
            "order": m,
            "count": count,
            "degree_formula": degrees[m],
            "degree_oracle": None if oracle_degrees is None else oracle_degrees[m],
        }
        for m, count in profile.items()
    ]


def _cmd_degrees(args) -> int:
    spec = parse_spec(args.spec)
    text = format_spec(spec)
    rows = _degree_rows(spec, args)
    if args.format == "json":
        payload = _json_payload({"group": text, "order": group_order(spec), "rows": rows})
    else:
        # a missing oracle value is an empty csv field and a "-" in the table
        cells = [["" if v is None else str(v) for v in row.values()] for row in rows]
        if args.format == "csv":
            header = ["order", "count", "degree_formula", "degree_oracle"]
            payload = _csv_payload(header, cells)
        else:
            payload = f"group={text} order={group_order(spec)}\n" + _aligned_table(
                ["order", "count", "formula", "oracle"],
                [[cell or "-" for cell in row] for row in cells],
            )
    _emit(payload, args.out)
    return 0


def _scalar_command(args, spec: GroupSpec, name: str, value: int) -> int:
    if args.format == "json":
        payload = _json_payload({"group": format_spec(spec), name: value})
    else:
        payload = f"{value}\n"
    _emit(payload, args.out)
    return 0


def _cmd_size(args) -> int:
    spec = parse_spec(args.spec)
    closed_forms = family_formulas(spec, formulas)
    value = closed_forms[1]() if closed_forms else size_via_profile(order_profile(spec))
    return _scalar_command(args, spec, "size", value)


def _cmd_girth(args) -> int:
    spec = parse_spec(args.spec)
    return _scalar_command(args, spec, "girth", formulas.girth_of_group(spec))


def _cmd_classify(args) -> int:
    spec = parse_spec(args.spec)
    text = format_spec(spec)
    profile = order_profile(spec)
    # bipartite exactly when a star (see formulas.is_bipartite_group)
    star = bipartite = formulas.is_star_profile(profile)
    path = formulas.is_path_group(spec)
    if args.format == "json":
        payload = _json_payload(
            {
                "group": text,
                "order": group_order(spec),
                "is_star": star,
                "is_bipartite": bipartite,
                "is_path": path,
                "profile": {str(m): profile[m] for m in profile},
            }
        )
    else:
        profile_text = ",".join(f"{m}:{profile[m]}" for m in profile)
        payload = (
            f"group={text}\n"
            f"order={group_order(spec)}\n"
            f"star={_bool_text(star)}\n"
            f"bipartite={_bool_text(bipartite)}\n"
            f"path={_bool_text(path)}\n"
            f"profile={profile_text}\n"
        )
    _emit(payload, args.out)
    return 0


def _cmd_export(args) -> int:
    spec = parse_spec(args.spec)
    text = format_spec(spec)
    graph = build_graph(spec, args.enum_bound)
    labels = element_labels(spec, args.enum_bound)
    if args.format == "dot":
        lines = [f'graph "OD({text})" {{']
        for v in range(graph.vertex_count):
            lines.append(f'  {v} [label="{labels[v]}:{graph.orders[v]}"];')
        for u, v in graph.edges():
            lines.append(f"  {u} -- {v};")
        lines.append("}")
        payload = "\n".join(lines) + "\n"
    elif args.format == "json":
        report = oracle_report(graph)
        payload = _json_payload(
            {
                "group": text,
                "order": graph.vertex_count,
                "vertices": [
                    {"id": v, "label": labels[v], "order": graph.orders[v]}
                    for v in range(graph.vertex_count)
                ],
                "edges": [[u, v] for u, v in graph.edges()],
                "invariants": {
                    "size": report.size,
                    "girth": report.girth,
                    "is_star": report.is_star,
                    "is_bipartite": report.is_bipartite,
                    "is_path": report.is_path,
                    "radius": report.radius,
                    "diameter": report.diameter,
                    "chromatic_number": report.chromatic_number,
                },
            }
        )
    else:
        payload = _csv_payload(
            ["source", "target", "source_label", "target_label"],
            ([u, v, labels[u], labels[v]] for u, v in graph.edges()),
        )
    _emit(payload, args.out)
    return 0


_RANGE_PATTERN = re.compile(r"([0-9]+)\.\.([0-9]+)")


def _parse_range(text: str) -> tuple[int, int]:
    match = _RANGE_PATTERN.fullmatch(text)
    if match is None:
        raise DomainError(f"range must look like LO..HI, got {text!r}")
    return _decimal(match.group(1)), _decimal(match.group(2))


def _cmd_verify(args) -> int:
    lo, hi = _parse_range(args.range)
    report = sweep(args.family, lo, hi, enum_bound=args.enum_bound)
    if args.format == "json":
        payload = _json_payload(report.to_dict())
    else:
        lines = [report.summary()]
        for result in report.results:
            if not result.passed:
                lines.append(f"FAIL {result.spec_text}: {result.first_mismatch}")
        for key, value in report.notes.items():
            lines.append(f"note {key}={value}")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0 if report.passed else 1


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _format(*choices: str) -> tuple[str, dict[str, Any]]:
    """The --format option; the first choice is the default."""
    return "--format", {"choices": choices, "default": choices[0]}


_SPEC = ("spec", {})
_TEXT_OR_JSON = _format("text", "json")
_ORACLE_HELP = "fail instead of omitting the oracle column past the bound"
# only the commands that build the explicit graph take it
_ENUM_BOUND = (
    "--enum-bound",
    {
        "type": non_negative_int,
        "default": DEFAULT_ENUMERATION_BOUND,
        "help": "largest group order to enumerate explicitly",
    },
)

# name, help, handler, and the arguments in order; every command also
# takes --out
_COMMANDS = (
    (
        "degrees",
        "per-order degree table",
        _cmd_degrees,
        [
            ("spec", {"help": "group spec, e.g. Z6 or Z2xZ3"}),
            _format("text", "csv", "json"),
            ("--oracle", {"action": "store_true", "help": _ORACLE_HELP}),
            _ENUM_BOUND,
        ],
    ),
    ("size", "edge count", _cmd_size, [_SPEC, _TEXT_OR_JSON]),
    ("girth", "girth (0 = acyclic)", _cmd_girth, [_SPEC, _TEXT_OR_JSON]),
    ("classify", "star/bipartite/path flags", _cmd_classify, [_SPEC, _TEXT_OR_JSON]),
    (
        "export",
        "write the explicit graph",
        _cmd_export,
        [
            _SPEC,
            _format("dot", "json", "csv"),
            _ENUM_BOUND,
        ],
    ),
    (
        "verify",
        "formula-vs-oracle sweep",
        _cmd_verify,
        [
            ("family", {"choices": SWEEP_FAMILIES}),
            ("range", {"help": "inclusive parameter range, e.g. 1..200"}),
            _TEXT_OR_JSON,
            _ENUM_BOUND,
        ],
    ),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odgraph",
        description="Order-divisor graphs of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for argument, settings in arguments:
            command.add_argument(argument, **settings)
        command.add_argument("--out", default=None, help="write output to a file")
        command.set_defaults(handler=handler)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (SpecSyntaxError, SpecConstraintError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
