"""Cross-checking harness: formula route vs oracle route per group."""

import dataclasses
import json
import math

import pytest

from odgraph import formulas
from odgraph.errors import DomainError
from odgraph.formulas import deg_zn
from odgraph.groups import Cyclic, Dihedral, Product, Units
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
    assert check_by_name(result, "not_complete").passed
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
    rule = check_by_name(result, "girth_product_rule")
    assert rule.formula == 3 and rule.oracle == 3


def test_verify_respects_enumeration_bound():
    result = verify_group(Cyclic(1000), enum_bound=100)
    assert result.error is not None
    assert not result.passed
    assert result.checks == ()


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


def test_sweep_serialization_is_deterministic():
    first = json.dumps(sweep("cyclic", 1, 30).to_dict(), sort_keys=True)
    second = json.dumps(sweep("cyclic", 1, 30).to_dict(), sort_keys=True)
    assert first == second
    payload = json.loads(first)
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
