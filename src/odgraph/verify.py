"""Formula-vs-oracle verification harness.

Every group instance is checked along two independent routes: closed
formulas and order-profile arithmetic on one side, brute-force
computation on the explicit graph on the other. Mismatches are collected
rather than raised, so a sweep across a parameter range always runs to
completion and reports deterministically.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from . import formulas
from .formulas import degree_via_profile, size_via_profile
from .graph import build_graph, class_degrees, oracle_is_cycle_graph, oracle_report
from .groups import (
    DEFAULT_ENUMERATION_BOUND,
    Cyclic,
    Dihedral,
    GroupSpec,
    Product,
    Units,
    format_spec,
    group_order,
    order_profile,
)
from .errors import DomainError, EnumerationBoundError

__all__ = [
    "CheckResult",
    "DEFAULT_SUITE",
    "FormulaSuite",
    "MAX_SWEEP_INSTANCES",
    "SWEEP_FAMILIES",
    "SweepReport",
    "VerificationResult",
    "family_formulas",
    "sweep",
    "verify_group",
]


@dataclass(frozen=True)
class FormulaSuite:
    """Injected formula implementations.

    Swappable so tests can prove the harness actually fails when a
    formula is wrong.
    """

    deg_zn: Callable[[int, int], int] = formulas.deg_zn
    deg_dn: Callable[[int, int], int] = formulas.deg_dn
    size_zn: Callable[[int], int] = formulas.size_zn
    size_dn: Callable[[int], int] = formulas.size_dn


DEFAULT_SUITE = FormulaSuite()


def _jsonify(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonify(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


@dataclass(frozen=True)
class CheckResult:
    """One formula-vs-oracle comparison."""

    name: str
    formula: Any
    oracle: Any
    passed: bool
    detail: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "formula": _jsonify(self.formula),
            "oracle": _jsonify(self.oracle),
            "pass": self.passed,
            "detail": self.detail,
        }


def _first_diff(name: str, formula: Any, oracle: Any) -> str:
    if isinstance(formula, dict) and isinstance(oracle, dict):
        for key in sorted(set(formula) | set(oracle)):
            left = formula.get(key)
            right = oracle.get(key)
            if left != right:
                return f"{name}: order {key}: formula {left!r} != oracle {right!r}"
    return f"{name}: formula {formula!r} != oracle {oracle!r}"


def _compare(
    name: str, formula: Any, oracle: Any, detail: Optional[str] = None
) -> CheckResult:
    passed = formula == oracle and detail is None
    if not passed and detail is None:
        detail = _first_diff(name, formula, oracle)
    return CheckResult(name, formula, oracle, passed, None if passed else detail)


def _holds(
    name: str, formula: Any, oracle: Any, passed: bool, problem: str
) -> CheckResult:
    """A check that passes on a condition other than equality; ``problem``
    says what a failure found."""
    detail = None if passed else f"{name}: {problem}"
    return CheckResult(name, formula, oracle, passed, detail)


@dataclass(frozen=True)
class VerificationResult:
    """All checks for one group instance."""

    spec: GroupSpec
    spec_text: str
    group_order: int
    checks: tuple[CheckResult, ...]
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(check.passed for check in self.checks)

    @property
    def first_mismatch(self) -> Optional[str]:
        if self.error is not None:
            return self.error
        for check in self.checks:
            if not check.passed:
                return check.detail
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec_text,
            "order": self.group_order,
            "pass": self.passed,
            "error": self.error,
            "first_mismatch": self.first_mismatch,
            "checks": [check.to_dict() for check in self.checks],
        }


def family_formulas(
    spec: GroupSpec, suite
) -> Optional[tuple[Callable[[int], int], Callable[[], int]]]:
    """The closed forms for Z_n or D_n, as (degree of an order-m vertex,
    edge count); None for the families that only have the profile route.

    ``suite`` supplies ``deg_zn``, ``deg_dn``, ``size_zn`` and ``size_dn``:
    a FormulaSuite, or the formulas module itself.
    """
    if isinstance(spec, Cyclic):
        degree, size = suite.deg_zn, suite.size_zn
    elif isinstance(spec, Dihedral):
        degree, size = suite.deg_dn, suite.size_dn
    else:
        return None
    return functools.partial(degree, spec.n), functools.partial(size, spec.n)


def verify_group(
    spec: GroupSpec,
    *,
    suite: FormulaSuite = DEFAULT_SUITE,
    enum_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> VerificationResult:
    """Check one group along both routes; never raises on mismatch."""
    text = format_spec(spec)
    order = group_order(spec)
    try:
        graph = build_graph(spec, enum_bound)
    except EnumerationBoundError as exc:
        return VerificationResult(spec, text, order, checks=(), error=str(exc))
    profile = order_profile(spec)
    report = oracle_report(graph)
    checks: list[CheckResult] = []

    # order profile: closed form vs per-element recount
    recount = dict(Counter(graph.orders))
    checks.append(_compare("order_profile", dict(profile), recount))

    # degree per order class, profile route vs explicit graph
    profile_degrees = degree_via_profile(profile)
    oracle_degrees, problem = class_degrees(graph)
    checks.append(_compare("degrees_profile", profile_degrees, oracle_degrees, problem))

    closed_forms = family_formulas(spec, suite)
    if closed_forms is not None:
        family_degrees = {m: closed_forms[0](m) for m in profile}
        checks.append(_compare("degrees_formula", family_degrees, oracle_degrees))

    # edge counts
    checks.append(_compare("size_profile", size_via_profile(profile), report.size))
    if closed_forms is not None:
        checks.append(_compare("size_formula", closed_forms[1](), report.size))

    # girth: the profile rule (some realized order composite), the
    # dichotomy, and the factor-wise rule for products
    checks.append(_compare("girth", formulas.girth_from_profile(profile), report.girth))
    checks.append(
        _holds(
            "girth_dichotomy",
            [0, 3],
            report.girth,
            report.girth in (0, 3),
            f"oracle girth {report.girth} is neither 0 nor 3",
        )
    )
    if isinstance(spec, Product) and len(spec.factors) == 2:
        product_girth = formulas.girth_of_product(spec.factors[0], spec.factors[1])
        checks.append(_compare("girth_product_rule", product_girth, report.girth))

    # star / bipartite / acyclic must agree with the profile's star rule
    # (every non-identity order prime) as one block
    star_formula = formulas.is_star_profile(profile)
    formula_side = {"is_star_group": star_formula}
    oracle_side = {
        "star": report.is_star,
        "bipartite": report.is_bipartite,
        "acyclic": report.girth == 0,
    }
    checks.append(
        _holds(
            "star_equivalence",
            formula_side,
            oracle_side,
            len({star_formula, *oracle_side.values()}) == 1,
            f"formula {formula_side!r} vs oracle {oracle_side!r}",
        )
    )

    checks.append(_compare("path_rule", order in (2, 3), report.is_path))

    # the identity is adjacent to everything: radius 1, diameter at most 2
    expected = [min(order - 1, 1), min(order - 1, 2)]
    checks.append(
        _compare("radius_diameter", expected, [report.radius, report.diameter])
    )

    if order >= 3:
        is_complete = report.size == order * (order - 1) // 2
        checks.append(_compare("not_complete", False, is_complete))
        checks.append(_compare("not_a_cycle", False, oracle_is_cycle_graph(graph)))

    # the longest divisor chain, wherever the oracle colored the graph
    if report.chromatic_number is not None:
        chromatic = formulas.chromatic_from_profile(profile)
        checks.append(_compare("chromatic", chromatic, report.chromatic_number))

    return VerificationResult(spec, text, order, tuple(checks))


# the atom each family sweeps; ``product`` pairs two cyclic atoms
_SWEEP_ATOMS = {"cyclic": Cyclic, "dihedral": Dihedral, "units": Units, "product": Cyclic}

SWEEP_FAMILIES = tuple(_SWEEP_ATOMS)

# most instances one sweep verifies (hi - lo + 1, squared for ``product``);
# a longer range is refused before any spec is built
MAX_SWEEP_INSTANCES = 100_000


def _sweep_specs(family: str, lo: int, hi: int) -> list[GroupSpec]:
    if family not in SWEEP_FAMILIES:
        raise DomainError(
            f"unknown family {family!r}; expected one of {', '.join(SWEEP_FAMILIES)}"
        )
    if lo > hi:
        raise DomainError(f"empty range {lo}..{hi}")
    if (hi - lo + 1) ** (2 if family == "product" else 1) > MAX_SWEEP_INSTANCES:
        raise DomainError(f"{family} {lo}..{hi} exceeds {MAX_SWEEP_INSTANCES} instances")
    # the constructors reject parameters below the family minimum
    atoms = [_SWEEP_ATOMS[family](n) for n in range(lo, hi + 1)]
    if family == "product":
        return [Product((a, b)) for a in atoms for b in atoms]
    return atoms


@dataclass(frozen=True)
class SweepReport:
    """Verification results for every instance of a family over a range."""

    family: str
    lo: int
    hi: int
    results: tuple[VerificationResult, ...]
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def passed_count(self) -> int:
        return sum(1 for result in self.results if result.passed)

    @property
    def failed_count(self) -> int:
        return len(self.results) - self.passed_count

    @property
    def passed(self) -> bool:
        return self.failed_count == 0

    def summary(self) -> str:
        return (
            f"{self.family} {self.lo}..{self.hi}: "
            f"{self.passed_count}/{len(self.results)} pass"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "range": [self.lo, self.hi],
            "pass": self.passed,
            "passed": self.passed_count,
            "failed": self.failed_count,
            "notes": _jsonify(self.notes),
            "instances": [result.to_dict() for result in self.results],
        }


def sweep(
    family: str,
    lo: int,
    hi: int,
    *,
    suite: FormulaSuite = DEFAULT_SUITE,
    enum_bound: int = DEFAULT_ENUMERATION_BOUND,
) -> SweepReport:
    """Verify every instance of a family over an inclusive parameter range.

    For ``product`` the range applies to both cyclic factors, covering all
    Z_a x Z_b with lo <= a, b <= hi. Instances whose order exceeds the
    enumeration bound are reported as failures, not raised.
    """
    specs = _sweep_specs(family, lo, hi)
    results = tuple(
        verify_group(spec, suite=suite, enum_bound=enum_bound) for spec in specs
    )
    notes: dict[str, Any] = {}
    if family == "units":
        star_instances = [spec.n for spec in specs if formulas.is_star_group(spec)]
        divisors_of_24 = [n for n in range(lo, hi + 1) if 24 % n == 0]
        notes = {
            "star_instances": star_instances,
            "divisors_of_24": divisors_of_24,
            "star_iff_divides_24": star_instances == divisors_of_24,
        }
    return SweepReport(family, lo, hi, results, notes)
