"""CLI: spec grammar, output formats, exit codes."""

import contextlib
import decimal
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odgraph import cli, formulas, numtheory
from odgraph.cli import main, parse_spec
from odgraph.errors import DomainError, SpecConstraintError, SpecSyntaxError
from odgraph.graph import ODGraph
from odgraph.groups import Cyclic, Dihedral, Product, Units, format_spec
from odgraph.verify import SWEEP_FAMILIES


# --- spec grammar -------------------------------------------------------------


def test_parse_spec_atoms():
    assert parse_spec("Z6") == Cyclic(6)
    assert parse_spec("D4") == Dihedral(4)
    assert parse_spec("U24") == Units(24)


def test_parse_spec_products():
    assert parse_spec("Z2xZ3") == Product((Cyclic(2), Cyclic(3)))
    assert parse_spec("Z2XD3xU8") == Product((Cyclic(2), Dihedral(3), Units(8)))


def test_parse_spec_case_and_whitespace():
    assert parse_spec("z6") == Cyclic(6)
    assert parse_spec("d4") == Dihedral(4)
    assert parse_spec(" Z 6 x Z 3 ") == Product((Cyclic(6), Cyclic(3)))


def test_parse_spec_constraint_errors():
    with pytest.raises(SpecConstraintError):
        parse_spec("D2")
    with pytest.raises(SpecConstraintError):
        parse_spec("U1")
    with pytest.raises(SpecConstraintError):
        parse_spec("Z0")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["size", "Z0"], "cyclic group requires n >= 1, got 0"),
        (["size", "D2"], "dihedral group requires n >= 3, got 2"),
        (["verify", "units", "1..3"], "units group requires n >= 2, got 1"),
    ],
)
def test_family_floors_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("Q5", 0),
        ("Z", 1),
        ("Z6y", 2),
        ("Z6x", 3),
        ("Z6xx", 3),
        # byte offsets past a multi-byte character differ from its index
        ("Z6\u3000y", 5),
        ("Z6x\u3000", 6),
        ("\u00e9", 0),
        ("Z\u0661", 1),
        ("Z \u00e9", 2),
    ],
)
def test_parse_spec_syntax_errors(text, position):
    with pytest.raises(SpecSyntaxError) as info:
        parse_spec(text)
    assert info.value.position == position
    assert f"offset {position}" in str(info.value)


ATOMS = st.one_of(
    st.integers(min_value=1, max_value=50).map(Cyclic),
    st.integers(min_value=3, max_value=50).map(Dihedral),
    st.integers(min_value=2, max_value=50).map(Units),
)
SPECS = st.one_of(
    ATOMS,
    st.lists(ATOMS, min_size=2, max_size=4).map(lambda fs: Product(tuple(fs))),
)


@given(SPECS)
def test_parse_spec_round_trips_format_spec(spec):
    assert parse_spec(format_spec(spec)) == spec


# --- scalar commands -----------------------------------------------------------


def test_size_text(capsys):
    assert main(["size", "Z6"]) == 0
    assert capsys.readouterr().out == "11\n"
    # letters in either case, whitespace around and inside the product
    assert main(["size", " z6 X d3 "]) == 0
    assert capsys.readouterr().out == "335\n"


def test_size_json(capsys):
    assert main(["size", "D4", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"group": "D4", "size": 17}


def test_girth_text(capsys):
    assert main(["girth", "D9"]) == 0
    assert capsys.readouterr().out == "3\n"
    assert main(["girth", "U24"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_size_past_the_factorization_ceiling_fails_fast(capsys):
    # 10000019 * 10000079: past 10**14, with no prime factor below 10**7
    start = time.perf_counter()
    assert main(["size", "Z100000980001501"]) == 2
    assert time.perf_counter() - start < 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot factor 100000980001501")
    assert "Traceback" not in captured.err


def test_size_at_a_large_prime_order_is_fast(capsys):
    # 10**18 + 3 is prime: Miller-Rabin proves it without trial division
    numtheory.factorize.cache_clear()
    start = time.perf_counter()
    assert main(["size", "Z1000000000000000003"]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == "1000000000000000002\n"


def test_size_at_a_divisor_rich_order_is_fast(capsys):
    # 6720 divisors; with cold caches the closed form takes well under 2 s
    numtheory.factorize.cache_clear()
    numtheory.divisors.cache_clear()
    start = time.perf_counter()
    assert main(["size", "Z963761198400"]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "208072653369291087560313\n"


def test_size_of_a_product_of_sixteen_primes_is_fast(capsys):
    # 65536 order classes on the profile route; the group is cyclic, so the
    # Z_n closed form must give the same number
    numtheory.factorize.cache_clear()
    numtheory.divisors.cache_clear()
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    start = time.perf_counter()
    assert main(["size", "x".join(f"Z{p}" for p in primes)]) == 0
    assert time.perf_counter() - start < 20
    product_size = capsys.readouterr().out
    assert main(["size", "Z32589158477190044730"]) == 0
    assert capsys.readouterr().out == product_size


def test_profile_past_the_class_cap_fails_fast(capsys):
    # seventeen primes give 2**17 order classes, past MAX_PROFILE_CLASSES
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    start = time.perf_counter()
    assert main(["size", "x".join(f"Z{p}" for p in primes)]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "65536 classes" in captured.err
    assert "Traceback" not in captured.err


def test_cyclic_profile_past_the_class_cap_fails_fast(capsys):
    # the product of the primes up to 59: 2**17 divisors, one class each,
    # refused before any divisor is listed
    numtheory.factorize.cache_clear()
    numtheory.divisors.cache_clear()
    start = time.perf_counter()
    assert main(["size", "Z1922760350154212639070"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "65536 classes" in captured.err


def test_profile_past_the_pair_cap_fails_fast(capsys):
    # 6720 classes per factor: 6720**2 pairs, past MAX_PROFILE_PAIRS, are
    # refused before any lcm is taken
    start = time.perf_counter()
    assert main(["classify", "Z963761198400xZ963761198400"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    # 768 classes per factor: 768**2 pairs are under the cap and answer
    assert main(["classify", "Z73513440xZ73513440"]) == 0


def test_size_of_two_large_primes_factorizes_no_order(capsys):
    # the order (about 10**28) is past the factorization ceiling
    assert main(["size", "Z99999999999973xZ99999999999971"]) == 0
    assert capsys.readouterr().out == "1999999999998270000000000498799999999952062\n"


# --- degrees --------------------------------------------------------------------


def test_degrees_text(capsys):
    assert main(["degrees", "Z6"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "group=Z6 order=6"
    assert lines[1].split() == ["order", "count", "formula", "oracle"]
    body = [line.split() for line in lines[2:]]
    assert body == [
        ["1", "1", "5", "5"],
        ["2", "1", "3", "3"],
        ["3", "2", "3", "3"],
        ["6", "2", "4", "4"],
    ]


def test_degrees_json(capsys):
    assert main(["degrees", "D4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["group"] == "D4" and data["order"] == 8
    by_order = {row["order"]: row for row in data["rows"]}
    assert by_order[1]["degree_formula"] == 7
    assert by_order[2] == {
        "order": 2,
        "count": 5,
        "degree_formula": 3,
        "degree_oracle": 3,
    }


def test_degrees_csv(capsys):
    assert main(["degrees", "Z6", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "order,count,degree_formula,degree_oracle"
    assert len(lines) == 5
    assert lines[1] == "1,1,5,5"


def test_degrees_formula_only_past_bound(capsys):
    assert main(["degrees", "Z200000"]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[2:]:
        assert line.split()[-1] == "-"


def test_degrees_has_no_oracle_flag(capsys):
    # past the bound the oracle column is "-"; a larger --enum-bound fills it
    assert main(["degrees", "Z200000", "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("spec", ["U1000003", "Z2xU1000003"])
def test_formula_commands_work_past_bound_for_every_family(spec, capsys):
    # orders 1000002 and 2000004: the profile is a closed form, so only
    # the oracle column is left out
    for command in ("classify", "size", "girth"):
        assert main([command, spec]) == 0
    capsys.readouterr()
    assert main(["degrees", spec]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert rows
    assert all(row.split()[-1] == "-" for row in rows)


# --- classify -------------------------------------------------------------------


def test_classify_text(capsys):
    assert main(["classify", "U24"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "group=U24" in lines
    assert "order=8" in lines
    assert "star=true" in lines
    assert "bipartite=true" in lines
    assert "path=false" in lines
    assert "profile=1:1,2:7" in lines


def test_classify_json(capsys):
    assert main(["classify", "Z6", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "group": "Z6",
        "order": 6,
        "is_star": False,
        "is_bipartite": False,
        "is_path": False,
        "profile": {"1": 1, "2": 1, "3": 2, "6": 2},
    }


def test_classify_builds_the_profile_once(monkeypatch, capsys):
    calls = []
    profile = Product.profile

    def counted(self):
        calls.append(self)
        return profile(self)

    monkeypatch.setattr(Product, "profile", counted)
    assert main(["classify", "Z2xZ3xZ5"]) == 0
    assert len(calls) == 1
    assert "star=false" in capsys.readouterr().out.splitlines()


# --- export ---------------------------------------------------------------------


def test_export_dot(capsys):
    assert main(["export", "Z6"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == 'graph "OD(Z6)" {'
    assert lines[-1] == "}"
    assert sum("label=" in line for line in lines) == 6
    assert sum("--" in line for line in lines) == 11
    assert '  0 [label="0:1"];' in lines
    assert "  0 -- 1;" in lines


def test_export_dot_is_deterministic(capsys):
    assert main(["export", "Z8"]) == 0
    first = capsys.readouterr().out
    assert main(["export", "Z8"]) == 0
    assert capsys.readouterr().out == first
    assert sum("--" in line for line in first.splitlines()) == 21


def test_export_trivial_group(capsys):
    assert main(["export", "Z1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ['graph "OD(Z1)" {', '  0 [label="0:1"];', "}"]


def test_export_json(capsys):
    assert main(["export", "Z6", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"group", "order", "vertices", "edges", "invariants"}
    assert len(data["vertices"]) == 6
    assert len(data["edges"]) == 11
    assert data["vertices"][2] == {"id": 2, "label": "2", "order": 3}
    assert data["invariants"] == {
        "size": 11,
        "girth": 3,
        "is_star": False,
        "is_bipartite": False,
        "is_path": False,
        "radius": 1,
        "diameter": 2,
        "chromatic_number": 3,
    }


def test_export_csv(capsys):
    assert main(["export", "D5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "source,target,source_label,target_label"
    assert len(lines) == 10
    assert lines[1] == "0,1,e,a"


def test_export_product_labels(capsys):
    assert main(["export", "Z2xZ2", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert '"(0,0)"' in out or "(0,0)" in out


def _output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    return out.getvalue()


def _traced_peak(argv, code) -> int:
    """The tracemalloc peak, in bytes, of running the CLI on argv."""
    tracemalloc.start()
    try:
        assert main(argv) == code
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_seams_do_not_change_the_output(monkeypatch):
    argvs = [
        ["export", spec, "--format", fmt]
        for spec in ["Z1", "Z2", "Z6", "D4", "Z2xZ2"]
        for fmt in ["dot", "csv", "json"]
    ]
    argvs.append(["verify", "cyclic", "1..5", "--format", "json"])
    expected = [_output(argv) for argv in argvs]
    # two edges or instances a batch puts a seam between nearly every pair
    monkeypatch.setattr(cli, "EXPORT_BATCH", 2)
    monkeypatch.setattr(cli, "SWEEP_BATCH", 2)
    assert [_output(argv) for argv in argvs] == expected


def test_export_json_keeps_the_indent_2_layout_across_batches():
    # 202,613 edges: 24 whole batches and a short one
    out = _output(["export", "Z840", "--format", "json"])
    assert json.dumps(json.loads(out), indent=2) + "\n" == out


@pytest.mark.parametrize("fmt", ["dot", "csv", "json"])
def test_export_memory_stays_below_100_bytes_per_edge(fmt, tmp_path):
    # the edges() list, at about 70 B per edge, is held while it is written
    edges = formulas.size_zn(840)
    assert edges == 202_613
    peak = _traced_peak(["export", "Z840", "--format", fmt, "--out", str(tmp_path / "g")], 0)
    assert peak / edges < 100


def test_export_json_failing_its_invariants_writes_nothing(monkeypatch, tmp_path, capsys):
    def fail(graph):
        raise DomainError("no certificate")

    monkeypatch.setattr(cli, "oracle_report", fail)
    target = tmp_path / "g.json"
    assert main(["export", "Z6", "--format", "json", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: no certificate\n")
    assert not target.exists()


# --- verify ---------------------------------------------------------------------


def test_verify_cyclic_sweep(capsys):
    assert main(["verify", "cyclic", "1..20"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "cyclic 1..20: 20/20 pass"


def test_verify_units_notes(capsys):
    assert main(["verify", "units", "2..30"]) == 0
    out = capsys.readouterr().out
    assert "note star_instances=[2, 3, 4, 6, 8, 12, 24]" in out
    assert "note star_iff_divides_24=True" in out


def test_verify_json(capsys):
    assert main(["verify", "dihedral", "3..10", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert data["passed"] == 8 and data["failed"] == 0
    assert all(instance["pass"] for instance in data["instances"])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cyclic", "1000000..40000000"],
        ["verify", "product", "1..1000"],
        # within the instance cap, past the vertex budget
        ["verify", "cyclic", "1..100000"],
    ],
)
def test_verify_past_the_instance_cap_fails_fast(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert ("vertices" if argv[2] == "1..100000" else "instances") in captured.err
    assert "Traceback" not in captured.err


def test_verify_json_memory_stays_below_800_bytes_per_instance(tmp_path):
    # 9,999 instances past the enumeration bound, each a failure without a graph
    argv = ["verify", "cyclic", "100001..109999", "--format", "json", "--out", str(tmp_path / "v")]
    assert _traced_peak(argv, 1) / 9_999 < 800


def test_verify_reports_instances_past_the_bound_as_failures(capsys):
    assert main(["verify", "cyclic", "4..7", "--enum-bound", "5"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cyclic 4..7: 2/4 pass",
        "FAIL Z6: group order 6 exceeds the enumeration bound 5",
        "FAIL Z7: group order 7 exceeds the enumeration bound 5",
    ]


def test_an_oracle_without_a_certificate_fails_its_instance(monkeypatch, capsys):
    # an identity of order 5 in Z6 is adjacent to nothing, so no vertex of
    # its graph is universal and the oracle has no certificate to read
    honest = Cyclic.element_orders

    def broken(self):
        orders = honest(self)
        return (5,) + orders[1:] if self.n == 6 else orders

    monkeypatch.setattr(Cyclic, "element_orders", broken)
    assert main(["verify", "cyclic", "1..8"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cyclic 1..8: 7/8 pass",
        "FAIL Z6: no vertex is adjacent to all others; no universal-vertex certificate",
    ]


def test_a_formula_exactness_guard_fails_its_instance(monkeypatch, capsys):
    # an odd order-2 class with one more degree makes the degree sum odd,
    # which size_via_profile refuses with an ArithmeticError
    honest = formulas.degree_via_profile

    def broken(profile):
        degrees = honest(profile)
        if profile.get(2, 0) % 2:
            degrees[2] += 1
        return degrees

    monkeypatch.setattr(formulas, "degree_via_profile", broken)
    assert main(["verify", "cyclic", "1..6"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cyclic 1..6: 3/6 pass",
        "FAIL Z2: expected an even degree sum, got 3",
        "FAIL Z4: expected an even degree sum, got 11",
        "FAIL Z6: expected an even degree sum, got 23",
    ]


def test_an_invalid_profile_fails_its_instance(monkeypatch, capsys):
    honest = Cyclic.profile

    def broken(self):
        profile = honest(self)
        if self.n == 4:
            profile[2] += 1
        return profile

    monkeypatch.setattr(Cyclic, "profile", broken)
    assert main(["verify", "cyclic", "1..6"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cyclic 1..6: 5/6 pass",
        "FAIL Z4: order 2 does not divide the group order 5",
    ]


def test_degrees_refuses_class_degrees_that_disagree(monkeypatch, capsys):
    # the second order-2 vertex has no neighbours, unlike the first
    graph = ODGraph(orders=(1, 2, 2), adjacency=((1, 2), (0,), ()))
    monkeypatch.setattr(cli, "build_graph", lambda spec, bound: graph)
    assert main(["degrees", "Z4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: vertices of order 2 disagree: degree 1 vs 0 (vertex 2)\n"


def test_verify_usage_errors(capsys):
    assert main(["verify", "cyclic", "5..3"]) == 2
    assert main(["verify", "cyclic", "5-3"]) == 2
    assert main(["verify", "dihedral", "1..5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cyclic", "1..3", "--enum-bound", "-5"],
        ["export", "Z6", "--format", "json", "--enum-bound", "-1"],
        ["verify", "dihedral", "3..6", "--enum-bound", "-1"],
        ["degrees", "Z6", "--enum-bound", "-1"],
    ],
)
def test_negative_bounds_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err


@pytest.mark.parametrize("command", ["size", "girth", "classify"])
def test_formula_commands_take_no_enum_bound(command, capsys):
    # they never build the explicit graph, so the bound is not theirs to take
    assert main([command, "Z6", "--enum-bound", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --enum-bound" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["export", "Z6", "--chromatic-bound", "3"],
        ["verify", "cyclic", "1..3", "--chromatic-bound", "3"],
    ],
    ids=["export", "verify"],
)
def test_no_command_takes_a_chromatic_bound(argv, capsys):
    # the chromatic number is certified, never searched for, so no bound
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --chromatic-bound" in captured.err


@pytest.mark.parametrize(
    "argv, digits",
    [
        (["size", "Z" + "9" * 5000], 5000),
        (["verify", "cyclic", "1.." + "9" * 5000], 5000),
        (["size", "Z" + "1" * 4301], 4301),
    ],
    ids=["spec", "range", "one_past_the_bound"],
)
def test_overlong_numbers_are_usage_errors(argv, digits, capsys):
    # spec and range numbers stop at 4300 digits, Python's default limit
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: number too long: {digits} digits\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_answers_past_the_int_to_str_digit_limit_print_in_full(fmt, capsys):
    # the paper's size of Z_{p^k}, (p^{2k} - 1)/(p + 1), has 4335 digits here
    expected = str(decimal.Decimal((4**7200 - 1) // 3))
    assert main(["size", f"Z{2**7200}", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert json.loads(out, parse_int=str)["size"] == expected
    else:
        assert out == expected + "\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize("argv", [["size", "Z6"], ["size", "Z0"], ["size", "--bogus"]])
def test_main_restores_the_int_to_str_digit_limit(argv, capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("span", ["\u0661..\u0663", "1..3\n", "1..3 ", "+1..3"])
def test_verify_range_takes_only_ascii_digits(span, capsys):
    assert main(["verify", "cyclic", span]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "range must look like LO..HI" in captured.err


def test_unknown_family_rejected_by_argparse(capsys):
    assert main(["verify", "quaternion", "1..5"]) == 2
    capsys.readouterr()


@st.composite
def short_argvs(draw) -> list[str]:
    """Short argv for every command, valid or not; an --enum-bound of at
    most 64 keeps the graph-building commands small."""
    command = draw(
        st.sampled_from(["size", "girth", "classify", "degrees", "export", "verify", "junk"])
    )
    if command == "verify":
        argv = [
            command,
            draw(st.sampled_from([*SWEEP_FAMILIES, "junk"])),
            draw(st.text("0123456789.x", max_size=5)),
        ]
    else:
        argv = [command, draw(st.text("ZDUzdux0123456789 q", max_size=12))]
    argv += ["--format", draw(st.sampled_from(["text", "json", "csv", "dot", "junk"]))]
    if command in ("degrees", "export", "verify"):
        argv += ["--enum-bound", draw(st.sampled_from(["0", "64", "-1", "x"]))]
    return argv


@settings(max_examples=300, deadline=None)
@given(short_argvs())
def test_short_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 5
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# --- dispatch and io ------------------------------------------------------------


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "size.txt"
    assert main(["size", "Z6", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text(encoding="utf-8") == "11\n"


def test_out_failure_is_runtime_error(tmp_path, capsys):
    target = tmp_path / "missing" / "size.txt"
    assert main(["size", "Z6", "--out", str(target)]) == 1
    assert "error:" in capsys.readouterr().err


def test_export_past_the_bound_writes_nothing(tmp_path, capsys):
    target = tmp_path / "g.dot"
    assert main(["export", "Z6", "--enum-bound", "5", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group order 6 exceeds the enumeration bound 5\n"
    assert not target.exists()


def test_export_at_the_edge_cap_writes(monkeypatch, capsys):
    # OD(Z6) has 11 edges
    monkeypatch.setattr(cli, "MAX_EXPORT_EDGES", 11)
    assert main(["export", "Z6"]) == 0
    assert capsys.readouterr().out.count(" -- ") == 11


def test_export_past_the_edge_cap_writes_nothing(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "MAX_EXPORT_EDGES", 10)
    target = tmp_path / "g.dot"
    assert main(["export", "Z6", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OD(Z6) has 11 edges, over 10\n"
    assert not target.exists()


def test_export_past_the_edge_cap_fails_fast(capsys):
    # 3,331,705,729 edges pass the enumeration bound but are never listed
    start = time.perf_counter()
    assert main(["export", "Z100000"]) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OD(Z100000) has 3331705729 edges, over 2097152\n"


@pytest.mark.parametrize("spec", ["Z720720", "Z1441440"], ids=["entries", "vertices"])
def test_degrees_past_a_graph_limit_print_no_oracle_column(spec, capsys):
    start = time.perf_counter()
    assert main(["degrees", spec, "--enum-bound", "2000000", "--format", "json"]) == 0
    assert time.perf_counter() - start < 2
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows and all(row["degree_oracle"] is None for row in rows)


def test_export_and_verify_past_the_graph_entry_limit_fail(tmp_path, capsys):
    # 720720 elements in 240 order classes: 720720 * 239 entries at most
    error = "OD(Z720720) needs up to 172252080 neighbor entries, over 16777216"
    target = tmp_path / "g.dot"
    assert main(["export", "Z720720", "--enum-bound", "1000000", "--out", str(target)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert not target.exists()
    assert main(["verify", "cyclic", "720720..720720", "--enum-bound", "1000000"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cyclic 720720..720720: 0/1 pass",
        f"FAIL Z720720: {error}",
    ]


def test_bad_spec_is_usage_error(capsys):
    assert main(["girth", "Z6y"]) == 2
    assert main(["girth", "D2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_help_and_missing_command(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2
    capsys.readouterr()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        # -S keeps site-packages off the path: the runtime needs only the stdlib
        [sys.executable, "-S", "-W", "error", "-m", "odgraph", "size", "Z6"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "11\n", "")
