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
import dataclasses
import io
import itertools
import json
import re
import sys
from typing import Any, Iterable, Iterator, Optional, Sequence

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

__all__ = ["MAX_EXPORT_EDGES", "main", "parse_spec"]

# export lists every edge; past this many it refuses before listing any
MAX_EXPORT_EDGES = 2**21

# output is formatted and written this many edges (export) or instances
# (verify --format json) at a time, so it never exists whole in memory
EXPORT_BATCH = 8192
SWEEP_BATCH = 256

_FAMILY_LETTERS = {atom.letter: atom for atom in (Cyclic, Dihedral, Units)}

# one atom and the character after it: whitespace, the family letter,
# whitespace, ASCII decimal digits, whitespace, then the 'x' before the
# next atom or nothing at the end of the spec; \s is str.isspace()
_ATOM = re.compile(r"\s*(.?)\s*([0-9]*)\s*(.?)", re.DOTALL)

# the interpreter's int-to-str digit limit, where it has one (3.10.7 on)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def _decimal(digits: str) -> int:
    """int() of ASCII digits; past 4300 of them, a DomainError."""
    if len(digits) > 4300:
        raise DomainError(f"number too long: {len(digits)} digits")
    return int(digits)


def parse_spec(text: str) -> GroupSpec:
    """Parse group-spec text such as ``Z6`` or ``Z2xZ3``.

    Raises SpecSyntaxError (with the byte offset) on malformed text and
    SpecConstraintError when a family bound is violated (e.g. ``D2``).
    """

    def error(message: str, group: int) -> SpecSyntaxError:
        return SpecSyntaxError(message, len(text[: match.start(group)].encode("utf-8")))

    atoms: list[GroupSpec] = []
    i = 0
    while True:
        match = _ATOM.match(text, i)
        letter, digits, after = match.groups()
        family = _FAMILY_LETTERS.get(letter.upper())
        if not letter:
            raise error("expected a group atom (Z<n>, D<n>, or U<n>)", 1)
        if family is None:
            raise error(f"expected family letter Z, D, or U, found {letter!r}", 1)
        if not digits:
            raise error("expected a decimal number", 2)
        try:
            atoms.append(family(_decimal(digits)))
        except DomainError as exc:
            raise SpecConstraintError(str(exc)) from exc
        if not after:
            break
        if after not in "xX":
            raise error(f"expected 'x' or end of spec, found {after!r}", 3)
        i = match.end()
    if len(atoms) == 1:
        return atoms[0]
    return Product(tuple(atoms))


def _json_payload(data: Any) -> str:
    return json.dumps(data, indent=2) + "\n"


def _batches(items: Iterable, size: int) -> Iterator[list]:
    iterator = iter(items)
    while batch := list(itertools.islice(iterator, size)):
        yield batch


def _json_chunks(document: dict[str, Any], key: str, batches: Iterable[list]) -> Iterator[str]:
    """``_json_payload(document)`` with ``document[key]``, an empty list,
    holding the items of ``batches``, each batch formatted as one chunk."""
    # a raw newline and two spaces before a quote start a top-level key
    # only: json.dumps escapes newlines inside strings
    head, tail = _json_payload(document).split(f'\n  "{key}": []')
    yield f'{head}\n  "{key}": ['
    separator = ""
    for batch in batches:
        # the batch's items at indent 2, without its brackets, one level down
        yield separator + json.dumps(batch, indent=2)[1:-2].replace("\n", "\n  ")
        separator = ","
    yield ("\n  ]" if separator else "]") + tail


def _csv_chunks(header: list[str], batches: Iterable[Iterable[list]]) -> Iterator[str]:
    """The header line, then each batch of rows as one chunk."""
    for rows in itertools.chain([[header]], batches):
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        yield buffer.getvalue()


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
    oracle_degrees: Optional[dict[int, int]]
    try:
        oracle_degrees = class_degrees(build_graph(spec, args.enum_bound))
    except EnumerationBoundError:
        # past the enumeration bound or a graph limit the oracle column is left out
        oracle_degrees = None
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


def _cmd_degrees(args) -> tuple[Iterable[str], int]:
    spec = parse_spec(args.spec)
    text = format_spec(spec)
    rows = _degree_rows(spec, args)
    if args.format == "json":
        return [_json_payload({"group": text, "order": group_order(spec), "rows": rows})], 0
    # a missing oracle value is an empty csv field and a "-" in the table
    cells = [["" if v is None else str(v) for v in row.values()] for row in rows]
    if args.format == "csv":
        return _csv_chunks(["order", "count", "degree_formula", "degree_oracle"], [cells]), 0
    table = _aligned_table(
        ["order", "count", "formula", "oracle"],
        [[cell or "-" for cell in row] for row in cells],
    )
    return [f"group={text} order={group_order(spec)}\n", table], 0


def _scalar_command(args, spec: GroupSpec, name: str, value: int) -> tuple[list[str], int]:
    if args.format == "json":
        return [_json_payload({"group": format_spec(spec), name: value})], 0
    return [f"{value}\n"], 0


def _cmd_size(args) -> tuple[list[str], int]:
    spec = parse_spec(args.spec)
    closed_forms = family_formulas(spec, formulas)
    value = closed_forms[1]() if closed_forms else size_via_profile(order_profile(spec))
    return _scalar_command(args, spec, "size", value)


def _cmd_girth(args) -> tuple[list[str], int]:
    spec = parse_spec(args.spec)
    return _scalar_command(args, spec, "girth", formulas.girth_of_group(spec))


def _cmd_classify(args) -> tuple[list[str], int]:
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
    return [payload], 0


def _cmd_export(args) -> tuple[Iterable[str], int]:
    spec = parse_spec(args.spec)
    text = format_spec(spec)
    graph = build_graph(spec, args.enum_bound)
    edges = graph.edge_count
    if edges > MAX_EXPORT_EDGES:
        raise DomainError(f"OD({text}) has {edges} edges, over {MAX_EXPORT_EDGES}")
    labels = element_labels(spec, args.enum_bound)
    batches = _batches(graph.edges(), EXPORT_BATCH)
    if args.format == "json":
        document = {
            "group": text,
            "order": graph.vertex_count,
            "vertices": [
                {"id": v, "label": labels[v], "order": graph.orders[v]}
                for v in range(graph.vertex_count)
            ],
            "edges": [],
            "invariants": dataclasses.asdict(oracle_report(graph)),
        }
        return _json_chunks(document, "edges", batches), 0
    if args.format == "csv":
        rows = (([u, v, labels[u], labels[v]] for u, v in batch) for batch in batches)
        return _csv_chunks(["source", "target", "source_label", "target_label"], rows), 0
    vertices = "".join(
        f'  {v} [label="{labels[v]}:{graph.orders[v]}"];\n' for v in range(graph.vertex_count)
    )
    lines = ("".join(f"  {u} -- {v};\n" for u, v in batch) for batch in batches)
    return itertools.chain([f'graph "OD({text})" {{\n', vertices], lines, ["}\n"]), 0


_RANGE_PATTERN = re.compile(r"([0-9]+)\.\.([0-9]+)")


def _parse_range(text: str) -> tuple[int, int]:
    match = _RANGE_PATTERN.fullmatch(text)
    if match is None:
        raise DomainError(f"range must look like LO..HI, got {text!r}")
    return _decimal(match.group(1)), _decimal(match.group(2))


def _cmd_verify(args) -> tuple[Iterable[str], int]:
    lo, hi = _parse_range(args.range)
    report = sweep(args.family, lo, hi, enum_bound=args.enum_bound)
    code = 0 if report.passed else 1
    if args.format == "json":
        document = {**report.to_dict(), "instances": []}
        instances = (result.to_dict() for result in report.results)
        return _json_chunks(document, "instances", _batches(instances, SWEEP_BATCH)), code
    lines = [report.summary()]
    for result in report.results:
        if not result.passed:
            lines.append(f"FAIL {result.spec_text}: {result.first_mismatch}")
    for key, value in report.notes.items():
        lines.append(f"note {key}={value}")
    return ["\n".join(lines) + "\n"], code


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
# takes --out. A handler returns (output chunks, exit code) and does no I/O;
# whatever can fail runs before it returns, and the chunks only format.
_COMMANDS = (
    (
        "degrees",
        "per-order degree table",
        _cmd_degrees,
        [
            ("spec", {"help": "group spec, e.g. Z6 or Z2xZ3"}),
            _format("text", "csv", "json"),
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # written only once the handler returns: a failure creates no --out file;
    # answers print in full, so the digit limit is lifted until then
    limit = _digit_limit()
    _set_digit_limit(0)
    try:
        chunks, code = args.handler(args)
        if args.out is None:
            sys.stdout.writelines(chunks)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(chunks)
    except (SpecSyntaxError, SpecConstraintError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationBoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        _set_digit_limit(limit)
    return code


if __name__ == "__main__":
    sys.exit(main())
