"""Seeded input generators for the three workloads.

Each generator is an endless, deterministic stream: the same seed gives the
same cases in the same order. Cases cycle through fixed slots, so every run
sees the same mix of kinds whatever the seed; the seed only picks the
parameters inside each slot's band. Formula and oracle cases do not repeat
while their bands allow, so odgraph's caches warm the way they do for a user
who asks new questions.

``tiny=True`` shrinks every band so a run finishes in about a second; the
smoke tests use it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import count
from typing import Iterator

import reference as ref

ENUM_BOUND = 100_000  # odgraph's default --enum-bound; formula cases respect it

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# sweep: `odgraph verify FAMILY LO..HI --format json`. Each family's
# parameter range is cut into chunks of `width`; one round visits every
# chunk once, in seeded order and at a seeded offset below `width`, so every
# round does nearly the same work whatever the seed.
SWEEP = {
    # family: (first parameter, last parameter, width); product chunks
    # LO..HI cover Z_a x Z_b for a and b in the chunk
    "cyclic": (1, 192, 12),
    "dihedral": (3, 101, 9),
    "units": (2, 385, 16),
    "product": (1, 16, 4),
}
SWEEP_TINY = {
    "cyclic": (1, 24, 4),
    "dihedral": (3, 14, 3),
    "units": (2, 33, 4),
    "product": (1, 4, 2),
}

# oracle: one verify_group call and one export per group. The oracle's cost
# follows edges times order classes, not the group order, so both are held
# in a band: otherwise a prime order (a star) and a divisor-rich one would
# differ a thousandfold and the mix would change from seed to seed.
ORACLE = {"orders": (600, 1000), "edges": (100_000, 140_000), "order_classes": (8, 12)}
ORACLE_TINY = {"orders": (30, 60), "edges": (150, 1_500), "order_classes": (3, 12)}
EXPORT_FORMATS = ("dot", "csv", "json")

# formula: each kind's cost is held in a band so the mix costs the same for
# every seed. Divisor-rich n: d(n), and the phi terms of the size double sum
# (prod (e+1)(e+2)/2), which sets the cost of `size` and `degrees`. Primes
# and semiprime factors: magnitudes, which set trial-division cost. U(n):
# the range of n and of phi(n), the elements enumerated. Products: order.
FORMULA = {
    "rich_divisors": (400, 800),
    "rich_phi_terms": (30_000, 45_000),
    "big_prime": 10**12,
    "semiprime_factor": (9 * 10**5, 11 * 10**5),
    "units_n": (15_000, 25_000),
    "units_order": (9_000, 11_000),
    "product_order": (40_000, 60_000),
}
FORMULA_TINY = {
    "rich_divisors": (16, 48),
    "rich_phi_terms": (1, 10**9),
    "big_prime": 10**7,
    "semiprime_factor": (2_000, 5_000),
    "units_n": (200, 1_000),
    "units_order": (1, 1_000),
    "product_order": (200, 2_000),
}


def spec_text(atoms: tuple[ref.Atom, ...]) -> str:
    return "x".join(f"{family}{n}" for family, n, _ in atoms)


def _atom(family: str, n: int) -> ref.Atom:
    return (family, n, ref.factor_small(n))


@dataclass(frozen=True)
class SweepCase:
    family: str
    lo: int
    hi: int

    @property
    def argv(self) -> list[str]:
        return ["verify", self.family, f"{self.lo}..{self.hi}", "--format", "json"]

    def instances(self) -> list[tuple[ref.Atom, ...]]:
        params = range(self.lo, self.hi + 1)
        if self.family == "product":
            return [(_atom("Z", a), _atom("Z", b)) for a in params for b in params]
        family = {"cyclic": "Z", "dihedral": "D", "units": "U"}[self.family]
        return [(_atom(family, n),) for n in params]


@dataclass(frozen=True)
class OracleCase:
    atoms: tuple[ref.Atom, ...]
    fmt: str

    @property
    def text(self) -> str:
        return spec_text(self.atoms)


@dataclass(frozen=True)
class FormulaCase:
    kind: str
    command: str
    atoms: tuple[ref.Atom, ...]

    @property
    def argv(self) -> list[str]:
        return [self.command, spec_text(self.atoms), "--format", "json"]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"odbench/{workload}/{seed}")


def _sweep_rounds(rng: random.Random, family: str, first: int, last: int, width: int):
    while True:
        offset = rng.randrange(width)
        starts = list(range(first + offset, last + offset - width + 2, width))
        rng.shuffle(starts)
        for lo in starts:
            yield SweepCase(family, lo, lo + width - 1)


def sweep_cases(seed: int, tiny: bool = False) -> Iterator[SweepCase]:
    """The four families take turns, each working through its rounds."""
    rng = _rng("sweep", seed)
    bands = SWEEP_TINY if tiny else SWEEP
    rounds = [_sweep_rounds(rng, family, *band) for family, band in bands.items()]
    while True:
        for family_rounds in rounds:
            yield next(family_rounds)


def _oracle_group(rng: random.Random, slot: str, low: int, high: int):
    if slot == "Z":
        return (_atom("Z", rng.randint(low, high)),)
    if slot == "D":
        return (_atom("D", rng.randint(max(3, low // 2), high // 2)),)
    if slot == "U":
        while True:
            atom = _atom("U", rng.randint(low + 1, 4 * high))
            if _within(ref.atom_order(atom), (low, high)):
                return (atom,)
    while True:
        if slot == "product2":
            first = _atom(rng.choice("ZDU"), rng.randint(4, 40))
            k = ref.atom_order(first)
            rest = (_atom("Z", rng.randint(max(2, -(-low // k)), max(2, high // k))),)
        else:
            top = max(3, round(high ** (1 / 3)) + 2)
            rest = tuple(_atom("Z", rng.randint(2, top)) for _ in range(2))
            k = ref.group_order(rest)
            first = _atom("Z", rng.randint(max(2, -(-low // k)), max(2, high // k)))
        atoms = (first, *rest)
        if _within(ref.group_order(atoms), (low, high)):
            return atoms


def oracle_cases(seed: int, tiny: bool = False) -> Iterator[OracleCase]:
    """Five slots (Z, D, U, 2- and 3-factor products); the export format
    rotates with period 3, so every slot meets every format."""
    rng = _rng("oracle", seed)
    bands = ORACLE_TINY if tiny else ORACLE
    slots = ("Z", "D", "U", "product2", "product3")
    seen = set()
    for index in count():
        slot = slots[index % len(slots)]
        for attempt in count():
            atoms = _oracle_group(rng, slot, *bands["orders"])
            if spec_text(atoms) in seen and attempt < 1000:  # then allow repeats
                continue
            profile = ref.group_profile(atoms)
            if _within(len(profile), bands["order_classes"]) and _within(
                ref.size_from_profile(profile), bands["edges"]
            ):
                break
        seen.add(spec_text(atoms))
        yield OracleCase(atoms, EXPORT_FORMATS[index % len(EXPORT_FORMATS)])


def _rich(rng: random.Random, params: dict) -> ref.Factorization:
    """A divisor-rich n > 2 * ENUM_BOUND with d(n) and its phi terms in band."""
    while True:
        fact = []
        for i, p in enumerate(_SMALL_PRIMES):
            e = rng.randint(0, max(1, 6 - i))
            if e:
                fact.append((p, e))
        fact = tuple(fact)
        terms = math.prod((e + 1) * (e + 2) // 2 for _, e in fact)
        if (
            _within(ref.divisor_count(fact), params["rich_divisors"])
            and _within(terms, params["rich_phi_terms"])
            and 2 * ENUM_BOUND < ref.value_of(fact) < 10**16
        ):
            return fact


def _within(value: int, band: tuple[int, int]) -> bool:
    return band[0] <= value <= band[1]


def _big(rng: random.Random, params: dict, semiprime: bool) -> ref.Factorization:
    if semiprime:
        lo, hi = params["semiprime_factor"]
        p = ref.next_prime(rng.randint(lo, hi))
        q = ref.next_prime(rng.randint(lo, hi))
        return ((min(p, q), 1), (max(p, q), 1)) if p != q else ((p, 2),)
    base = params["big_prime"]
    return ((ref.next_prime(rng.randint(base, base + base // 10)), 1),)


def _product(rng: random.Random, band: tuple[int, int]) -> tuple[ref.Atom, ...]:
    while True:
        if rng.random() < 0.5:
            atoms = tuple(_atom("Z", rng.randint(20, 400)) for _ in range(2))
        else:
            atoms = (_atom(rng.choice("ZU"), rng.randint(10, 200)),) + tuple(
                _atom("Z", rng.randint(4, 40)) for _ in range(2)
            )
        if _within(ref.group_order(atoms), band):
            return atoms


_FORMULA_SLOTS = (
    # (kind, commands rotated within the slot)
    ("rich_Z", ("size", "degrees", "classify", "girth")),
    ("big_Z", ("size", "degrees", "classify", "girth")),
    ("units", ("size", "girth", "classify")),
    ("rich_D", ("size", "degrees", "classify", "girth")),
    ("product", ("size", "girth", "classify")),
    ("big_D", ("size", "degrees", "classify", "girth")),
)


def formula_cases(seed: int, tiny: bool = False) -> Iterator[FormulaCase]:
    """Six slots: divisor-rich Z_n and D_n, primes and semiprimes near the
    big-prime magnitude as Z_n and D_n, U(n), and small products. `degrees`
    is only asked of Z_n and D_n whose order exceeds the enumeration bound,
    where it builds no graph."""
    rng = _rng("formula", seed)
    params = FORMULA_TINY if tiny else FORMULA
    seen = set()
    for round_index in count():
        for kind, commands in _FORMULA_SLOTS:
            command = commands[round_index % len(commands)]
            while True:
                if kind in ("rich_Z", "rich_D"):
                    fact = _rich(rng, params)
                    atoms = ((kind[-1], ref.value_of(fact), fact),)
                elif kind in ("big_Z", "big_D"):
                    fact = _big(rng, params, semiprime=round_index % 2 == 1)
                    atoms = ((kind[-1], ref.value_of(fact), fact),)
                elif kind == "units":
                    atoms = (_atom("U", rng.randint(*params["units_n"])),)
                    if not _within(ref.group_order(atoms), params["units_order"]):
                        continue
                else:
                    atoms = _product(rng, params["product_order"])
                if spec_text(atoms) not in seen:
                    break
            seen.add(spec_text(atoms))
            case = FormulaCase(kind, command, atoms)
            check_formula_case(case)
            yield case


GENERATORS = {"sweep": sweep_cases, "oracle": oracle_cases, "formula": formula_cases}

# operations per block: whole cycles of each generator's slots, so every
# block has the same mix
# (sweep: 4 families x 8; oracle: 5 slots x 3 formats; formula: 6 slots x
# the 12 rounds after which every slot has used every command equally)
BLOCK = {"sweep": 32, "oracle": 15, "formula": 72}


def divisor_count_of(atoms: tuple[ref.Atom, ...]) -> int:
    """d(n) of a single-atom case, d(|G|) otherwise."""
    if len(atoms) == 1:
        return ref.divisor_count(atoms[0][2])
    return ref.divisor_count(ref.factor_small(ref.group_order(atoms)))


def order_is_enumerable(atoms: tuple[ref.Atom, ...]) -> bool:
    return ref.group_order(atoms) <= ENUM_BOUND


def check_formula_case(case: FormulaCase) -> None:
    """Guard against the two seed traps: `degrees` on an enumerable order
    builds the whole graph, and U/product specs past the bound fail."""
    enumerable = order_is_enumerable(case.atoms)
    single_zd = len(case.atoms) == 1 and case.atoms[0][0] in "ZD"
    if case.command == "degrees" and (enumerable or not single_zd):
        raise ValueError(f"degrees would build a graph or fail: {case}")
    if not single_zd and not enumerable:
        raise ValueError(f"order past the enumeration bound: {case}")

