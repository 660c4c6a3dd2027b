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

from . import formulas, numtheory
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
    "MAX_SWEEP_VERTICES",
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
    """One formula-vs-oracle comparison; it passed when it has no detail."""

    name: str
    formula: Any
    oracle: Any
    detail: Optional[str]

    @property
    def passed(self) -> bool:
        return self.detail is None

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
                label = f"order {key}" if isinstance(key, int) else key
                return _first_diff(f"{name}: {label}", left, right)
    return f"{name}: formula {formula!r} != oracle {oracle!r}"


def _compare(
    name: str, formula: Any, oracle: Any, detail: Optional[str] = None
) -> CheckResult:
    """The only builder of a check: a given ``detail`` fails it even when
    both sides agree; otherwise it fails with their first difference."""
    if detail is None and formula != oracle:
        detail = _first_diff(name, formula, oracle)
    return CheckResult(name, formula, oracle, detail)


@dataclass(frozen=True)
class VerificationResult:
    """All checks for one group instance."""

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
        return next((check.detail for check in self.checks if not check.passed), None)

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
        return VerificationResult(text, order, checks=(), error=str(exc))
    profile = order_profile(spec)
    report = oracle_report(graph)
    oracle_degrees, problem = class_degrees(graph)
    degree, size = family_formulas(spec, suite) or (None, None)
    chromatic = report.chromatic_number
    primes = numtheory.factorize(order) if isinstance(spec, Cyclic) else ()
    prime_power = primes[0] if len(primes) == 1 else None
    # acyclic, bipartite and a star each hold exactly when the profile's
    # star rule (no realized order above 1 divides another) does
    shapes = {
        "acyclic": report.girth == 0,
        "bipartite": report.is_bipartite,
        "star": report.is_star,
    }
    star_rule = dict.fromkeys(shapes, formulas.is_star_profile(profile))
    # (name, formula side, oracle side[, problem]); a side is None where the
    # check does not apply, and a check exists exactly where both sides do
    rows = [
        ("order_profile", dict(profile), dict(Counter(graph.orders))),
        ("degrees_profile", degree_via_profile(profile), oracle_degrees, problem),
        ("degrees_formula", degree and {m: degree(m) for m in profile}, oracle_degrees),
        ("size_profile", size_via_profile(profile), report.size),
        ("size_formula", size and size(), report.size),
        # girth: 3 exactly when one realized order above 1 divides another
        ("girth", formulas.girth_from_profile(profile), report.girth),
        ("star_equivalence", star_rule, shapes),
        ("path_rule", formulas.is_path_group(spec), report.is_path),
        # the identity is adjacent to everything: radius 1, diameter at most 2
        ("radius_diameter", [min(order - 1, 1), min(order - 1, 2)],
         [report.radius, report.diameter]),
        ("not_a_cycle", False if order >= 3 else None, oracle_is_cycle_graph(graph)),
        # the longest divisor chain, wherever the oracle colored the graph
        ("chromatic", chromatic and formulas.chromatic_from_profile(profile),
         chromatic),
        # the paper's closed forms for Z_{p^k}, k >= 1
        ("prime_power", prime_power and formulas.prime_power_identities(*prime_power),
         prime_power and {
             "degrees": oracle_degrees,
             "degree_sum": sum(map(len, graph.adjacency)),
             "order_sum": sum(graph.orders),
             "size": report.size,
         }),
    ]
    checks = tuple(
        _compare(*row) for row in rows if row[1] is not None and row[2] is not None
    )
    return VerificationResult(text, order, checks)


# the atom each family sweeps; ``product`` pairs two cyclic atoms
_SWEEP_ATOMS = {atom.family: atom for atom in (Cyclic, Dihedral, Units)}
_SWEEP_ATOMS["product"] = Cyclic

SWEEP_FAMILIES = tuple(_SWEEP_ATOMS)

# most instances one sweep verifies (hi - lo + 1, squared for ``product``);
# a longer range is refused before any spec is built
MAX_SWEEP_INSTANCES = 100_000

# most vertices one sweep builds, summed over the instances within the
# enumeration bound (past it an instance fails without a graph); about a
# minute for the slowest family, refused before any graph is built
MAX_SWEEP_VERTICES = 10**7


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
    enumeration bound are reported as failures, not raised. A range past
    MAX_SWEEP_INSTANCES instances, or past MAX_SWEEP_VERTICES vertices
    within the bound, raises DomainError before any graph is built.
    """
    specs = _sweep_specs(family, lo, hi)
    vertices = sum(o for o in (spec.order() for spec in specs) if o <= enum_bound)
    if vertices > MAX_SWEEP_VERTICES:
        raise DomainError(
            f"{family} {lo}..{hi} spans {vertices} vertices, over {MAX_SWEEP_VERTICES}"
        )
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
