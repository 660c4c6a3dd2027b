"""Cross-checking harness: formula route vs oracle route per group."""

import dataclasses
import json
import math

import pytest

from odgraph import formulas, graph, verify
from odgraph.cli import main
from odgraph.errors import DomainError
from odgraph.formulas import deg_zn
from odgraph.groups import Cyclic, Dihedral, Product, Units, format_spec
from odgraph.numtheory import euler_phi
from odgraph.verify import (
    DEFAULT_SUITE,
    MAX_SWEEP_INSTANCES,
    FormulaSuite,
    _sweep_specs,
    sweep,
    verify_group,
)


def check_by_name(result, name):
    matches = [c for c in result.checks if c.name == name]
    assert len(matches) == 1, name
    return matches[0]


def test_verify_cyclic_six():
    result = verify_group(Cyclic(6))
    assert result.error is None
    assert result.passed
    assert result.group_order == 6
    size = check_by_name(result, "size_formula")
    assert size.formula == 11 and size.oracle == 11
    girth = check_by_name(result, "girth")
    assert girth.formula == 3 and girth.oracle == 3
    assert check_by_name(result, "radius_diameter").oracle == [1, 2]
    # the longest divisor chain 1 | 2 | 6, not the order plus one
    chromatic = check_by_name(result, "chromatic")
    assert chromatic.formula == 3 and chromatic.oracle == 3
    assert not hasattr(result, "info")


def test_verify_dihedral_four():
    result = verify_group(Dihedral(4))
    assert result.passed
    assert check_by_name(result, "size_formula").oracle == 17
    assert check_by_name(result, "star_equivalence").passed
    assert check_by_name(result, "not_a_cycle").passed


def test_verify_trivial_group():
    result = verify_group(Cyclic(1))
    assert result.passed
    assert check_by_name(result, "radius_diameter").oracle == [0, 0]
    # no degrees_formula mismatch and no path flag on one vertex
    assert check_by_name(result, "path_rule").passed


def test_verify_units_and_product():
    assert verify_group(Units(24)).passed
    result = verify_group(Product((Cyclic(2), Cyclic(3))))
    assert result.passed
    girth = check_by_name(result, "girth")
    assert girth.formula == 3 and girth.oracle == 3


def test_verify_respects_enumeration_bound():
    result = verify_group(Cyclic(1000), enum_bound=100)
    assert result.error is not None
    assert not result.passed
    assert result.checks == ()


# every check, in report order; each spec below drops the ones whose sides
# do not both apply
ALL_CHECKS = (
    "order_profile degrees_profile degrees_formula size_profile size_formula girth "
    "star_equivalence path_rule radius_diameter not_a_cycle chromatic prime_power"
).split()
NO_CLOSED_FORMS = {"degrees_formula", "size_formula"}
APPLICABILITY = [
    # one vertex: no cycle shape to rule out; the order 1 is no prime power
    (Cyclic(1), {"not_a_cycle", "prime_power"}),
    (Cyclic(8), set()),
    (Dihedral(4), {"prime_power"}),
    (Units(24), NO_CLOSED_FORMS | {"prime_power"}),
    (Product((Cyclic(2), Cyclic(3))), NO_CLOSED_FORMS | {"prime_power"}),
    # 72 twin-quotient vertices, certified like every order-divisor graph
    (Cyclic(10080), {"prime_power"}),
]


@pytest.mark.parametrize(
    "spec, missing", APPLICABILITY, ids=[format_spec(spec) for spec, _ in APPLICABILITY]
)
def test_a_check_exists_exactly_where_both_sides_apply(spec, missing):
    names = [check.name for check in verify_group(spec).checks]
    assert names == [name for name in ALL_CHECKS if name not in missing]


def test_sweep_ranges_pass_with_a_chromatic_check():
    # the ranges the benchmark's sweep workload draws from
    specs = [
        *(Cyclic(n) for n in range(1, 204)),
        *(Dihedral(n) for n in range(3, 110)),
        *(Units(n) for n in range(2, 401)),
        *(Product((Cyclic(a), Cyclic(b))) for a in range(1, 20) for b in range(1, 20)),
    ]
    assert len(specs) == 1070
    for spec in specs:
        result = verify_group(spec)
        assert result.passed, result.first_mismatch
        check_by_name(result, "chromatic")


@pytest.mark.parametrize("spec", [Units(15), Product((Cyclic(2), Cyclic(4)))])
def test_corrupted_closed_form_profile_fails(spec, monkeypatch):
    # both groups have the profile {1: 1, 2: 3, 4: 4}; the enumerated
    # recount on the graph side must catch a wrong closed form
    assert verify_group(spec).passed
    monkeypatch.setattr(type(spec), "profile", lambda self: {1: 1, 2: 5, 4: 2})
    result = verify_group(spec)
    assert not result.passed
    assert result.first_mismatch.startswith("order_profile")


def test_first_mismatch_reporting():
    good = verify_group(Cyclic(6))
    assert good.first_mismatch is None
    broken = dataclasses.replace(
        DEFAULT_SUITE, size_zn=lambda n: 0 if n == 6 else DEFAULT_SUITE.size_zn(n)
    )
    bad = verify_group(Cyclic(6), suite=broken)
    assert not bad.passed
    assert bad.first_mismatch.startswith("size_formula")
    assert "11" in bad.first_mismatch


def test_star_equivalence_names_the_first_fact_that_disagrees(monkeypatch):
    honest = graph.oracle_is_bipartite
    monkeypatch.setattr(graph, "oracle_is_bipartite", lambda g: not honest(g))
    result = verify_group(Cyclic(2))
    assert result.first_mismatch == "star_equivalence: bipartite: formula True != oracle False"
    check = check_by_name(result, "star_equivalence")
    assert check.formula == {"acyclic": True, "bipartite": True, "star": True}


def test_class_degrees_that_disagree_fail_the_instance(monkeypatch):
    broken = graph.ODGraph(orders=(1, 2, 2), adjacency=((1, 2), (0,), ()))
    monkeypatch.setattr(verify, "build_graph", lambda spec, bound: broken)
    result = verify_group(Cyclic(3))
    assert result.error == "vertices of order 2 disagree: degree 1 vs 0 (vertex 2)"
    assert result.checks == ()
    # a check passes exactly when its two sides agree
    check = verify._compare("size_profile", 3, 4)
    assert check.detail == "size_profile: formula 3 != oracle 4"
    assert check.to_dict()["pass"] is False
    assert verify._compare("size_profile", 3, 3).to_dict()["pass"] is True


def test_sweep_cyclic_counts():
    report = sweep("cyclic", 1, 50)
    assert report.passed
    assert report.passed_count == 50
    assert report.failed_count == 0
    assert report.summary() == "cyclic 1..50: 50/50 pass"


def test_sweep_dihedral_counts():
    report = sweep("dihedral", 3, 30)
    assert report.passed
    assert report.passed_count == 28


def test_sweep_units_records_star_set():
    report = sweep("units", 2, 60)
    assert report.passed
    assert report.notes["star_instances"] == [2, 3, 4, 6, 8, 12, 24]
    assert report.notes["divisors_of_24"] == [2, 3, 4, 6, 8, 12, 24]
    assert report.notes["star_iff_divides_24"] is True


def test_sweep_product_small():
    report = sweep("product", 1, 6)
    assert report.passed
    assert report.passed_count == 36


def test_sweep_spec_validation():
    with pytest.raises(DomainError):
        _sweep_specs("quaternion", 2, 4)
    with pytest.raises(DomainError):
        _sweep_specs("cyclic", 5, 3)
    with pytest.raises(DomainError):
        _sweep_specs("dihedral", 1, 5)


def test_sweep_instance_cap_is_exact():
    # hi - lo + 1 instances, squared for products; the cap is inclusive
    assert len(_sweep_specs("cyclic", 1, MAX_SWEEP_INSTANCES)) == MAX_SWEEP_INSTANCES
    with pytest.raises(DomainError, match="instances"):
        _sweep_specs("cyclic", 1, MAX_SWEEP_INSTANCES + 1)
    side = math.isqrt(MAX_SWEEP_INSTANCES)
    assert len(_sweep_specs("product", 1, side)) == side**2
    with pytest.raises(DomainError, match="instances"):
        _sweep_specs("product", 1, side + 1)


def test_sweep_vertex_cap_counts_instances_within_the_bound(monkeypatch):
    # Z_1..Z_10 have 55 vertices in all; the cap is inclusive
    monkeypatch.setattr(verify, "MAX_SWEEP_VERTICES", 55)
    assert sweep("cyclic", 1, 10).passed
    monkeypatch.setattr(verify, "MAX_SWEEP_VERTICES", 54)
    with pytest.raises(DomainError, match="cyclic 1..10 spans 55 vertices"):
        sweep("cyclic", 1, 10)
    # Z_6..Z_10 lie past the bound: they fail without a graph, and cost none
    monkeypatch.setattr(verify, "MAX_SWEEP_VERTICES", 15)
    assert sweep("cyclic", 1, 10, enum_bound=5).passed_count == 5


def test_sweep_serialization_is_deterministic(capsys):
    outputs = []
    for _ in range(2):
        assert main(["verify", "cyclic", "1..30", "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["family"] == "cyclic"
    assert payload["pass"] is True
    assert len(payload["instances"]) == 30


def perturbed_deg_zn(n, m):
    # drops one euler_phi(m) term: off by +euler_phi(m) for every class
    return deg_zn(n, m) + euler_phi(m)


def test_fault_injection_is_detected():
    broken = FormulaSuite(deg_zn=perturbed_deg_zn)
    report = sweep("cyclic", 1, 20, suite=broken)
    assert not report.passed
    z4 = next(r for r in report.results if r.group_order == 4)
    assert not z4.passed
    assert z4.first_mismatch.startswith("degrees_formula")
    # the oracle side is untouched, so the honest route still holds
    clean = sweep("cyclic", 1, 20)
    assert clean.passed


def test_chromatic_fault_injection_is_detected(monkeypatch):
    # verify looks the formula up on the module, so a patched one is used
    honest = formulas.chromatic_from_profile
    monkeypatch.setattr(
        formulas, "chromatic_from_profile", lambda profile: honest(profile) + 1
    )
    report = sweep("cyclic", 1, 20)
    assert not report.passed
    assert report.failed_count == 20
    first = next(r for r in report.results if not r.passed)
    assert first.first_mismatch.startswith("chromatic")


# --- one fault per check: each check can be the first mismatch on its own ---

# together these emit every check name verify_group has
MATRIX_SPECS = [*_sweep_specs("cyclic", 1, 30), *_sweep_specs("product", 1, 5)]


def off_by_one(fn):
    return lambda *args: fn(*args) + 1


def z12_moved(honest):
    """Z12's profile with two elements moved from order 12 to order 4."""

    def profile(self):
        entries = honest(self)
        if self.n == 12:
            entries[12] -= 2
            entries[4] += 2
        return entries

    return profile


def wrong_order_sum(honest):
    return lambda p, k: {**honest(p, k), "order_sum": honest(p, k)["order_sum"] + 1}


# check name -> (owner, attribute, wrong replacement from the honest one);
# a FormulaSuite field is patched in the suite instead
FAULTS = {
    "order_profile": (Cyclic, "profile", z12_moved),
    "degrees_profile": (
        verify,
        "degree_via_profile",
        lambda honest: lambda profile: {m: d + 1 for m, d in honest(profile).items()},
    ),
    "degrees_formula": (FormulaSuite, "deg_zn", off_by_one),
    "size_profile": (verify, "size_via_profile", off_by_one),
    "size_formula": (FormulaSuite, "size_zn", off_by_one),
    "girth": (formulas, "girth_from_profile", lambda honest: lambda p: 3 - honest(p)),
    "star_equivalence": (
        graph,
        "oracle_is_bipartite",
        lambda honest: lambda g: not honest(g),
    ),
    "path_rule": (graph, "oracle_is_path", lambda honest: lambda g: not honest(g)),
    "radius_diameter": (
        graph,
        "eccentricities",
        lambda honest: lambda g: [e + 1 for e in honest(g)],
    ),
    "not_a_cycle": (verify, "oracle_is_cycle_graph", lambda honest: lambda g: True),
    "chromatic": (formulas, "chromatic_from_profile", off_by_one),
    "prime_power": (formulas, "prime_power_identities", wrong_order_sum),
}


def test_fault_matrix_covers_every_check():
    results = [verify_group(spec) for spec in MATRIX_SPECS]
    assert all(result.passed for result in results)
    assert {c.name for result in results for c in result.checks} == set(FAULTS)


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_check_can_be_the_first_mismatch(name, monkeypatch):
    owner, attribute, wrong = FAULTS[name]
    suite = DEFAULT_SUITE
    if owner is FormulaSuite:
        broken = wrong(getattr(DEFAULT_SUITE, attribute))
        suite = dataclasses.replace(DEFAULT_SUITE, **{attribute: broken})
    else:
        monkeypatch.setattr(owner, attribute, wrong(getattr(owner, attribute)))
    firsts = [verify_group(spec, suite=suite).first_mismatch for spec in MATRIX_SPECS]
    assert any(first and first.startswith(f"{name}:") for first in firsts), firsts
