"""Executable verification of the structural claims over declared populations.

Each check T1..T9 binds one claim to a finite population of rings, scans
it exhaustively, and reports pass/fail with a re-checkable counterexample
on failure.  Every check has the same three functions of one ring:
`premise(ring)`, `claim(ring)`, which returns a witness dict when the
claim fails, and `direct(ring)`, a scan-only recheck that reads the ring
and never the witness.  The zero ring is excluded from every population:
with 1 = 0 the unit-group conventions degenerate.

The populations mix constructed families (Z_n, fields, boolean products,
matrix and triangular rings) with the exhaustively enumerated rings of
small order, so every hypothesis branch — characteristic 2 and odd,
prime and prime-power fields, n = 1 edge cases — is exercised.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConstructionError
from .rings import (
    TABLE_CAP,
    Ring,
    TableRingStructure,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_triangular_ring,
    make_zn,
    quotient_ring,
    row_blocks,
)
from .analysis import (
    _find_units,
    characteristic,
    gl_order,
    is_boolean,
    is_commutative,
    jacobson_radical,
    primitive_element,
    unit_count,
    unit_first_column_classes,
    unit_group,
)
from .enumeration import (
    BEST_EFFORT_MAX_ORDER,
    enumerate_unital_rings,
    parse_table_ring,
    serialize_table_ring,
)

ALIASES = {"main": "T7"}

DEFAULT_MAX_ORDER = 8
FIELD_SIZES = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)
GL_INSTANCES = ((1, 5), (2, 2), (2, 3), (2, 4), (3, 2))
MATRIX_CHAR2_INSTANCES = ((2, 2), (3, 2), (2, 4))
TRIANGULAR_SIZES = (2, 3, 4)
BOOLEAN_EXPONENTS = (1, 2, 3, 4, 5, 6)


@dataclass
class TheoremReport:
    """Outcome of one check over its declared population.

    `population_count` is the number of rings or instances the claim was
    actually evaluated on (after premise filtering); the description also
    names the scanned universe.  `complete` is False when a budget stopped
    the scan early — an incomplete scan never reports a silent pass.
    """

    check_id: str
    description: str
    population: str
    population_count: int
    passed: bool
    complete: bool = True
    counterexample: dict | None = None
    elapsed: float = 0.0
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "description": self.description,
            "population": self.population,
            "population_count": self.population_count,
            "passed": self.passed,
            "complete": self.complete,
            "counterexample": self.counterexample,
            "elapsed_seconds": round(self.elapsed, 6),
            "note": self.note,
        }


def normalize_check_id(check_id: str) -> str:
    cid = ALIASES.get(check_id.strip().lower(), check_id.strip().upper())
    if cid not in CHECK_IDS:
        raise ConstructionError(
            f"unknown check {check_id!r}; expected one of {', '.join(CHECK_IDS)} or 'main'")
    return cid


# ---------------------------------------------------------------------------
# populations


@functools.cache
def _matrix_ring(n: int, q: int) -> Ring:
    """M(n, GF(q)), one ring per (n, q) for every population that holds it:
    the standard families, T5 and T6 share M(2,GF(2)), M(3,GF(2)) and
    M(2,GF(4)), so each dense table is built once per process."""
    return make_matrix_ring(n, make_gf(q))


@functools.cache
def _triangular_ring(n: int) -> Ring:
    """UT(n, Z(2)), one ring per n: the standard families, T7's non-example
    and T8 share UT(2,Z(2)), and the families and T8 share UT(3,Z(2)) and
    UT(4,Z(2)), so each dense table is built once per process."""
    return make_triangular_ring(n, make_zn(2))


def _family_population() -> list[tuple[str, Ring]]:
    """The constructed standard families, zero ring excluded."""
    pop: list[tuple[str, Ring]] = []
    for n in range(2, 31):
        pop.append((f"Z({n})", make_zn(n)))
    for q in FIELD_SIZES:
        pop.append((f"GF({q})", make_gf(q)))
    for k in BOOLEAN_EXPONENTS:
        pop.append((f"B({k})", make_boolean(k)))
    for n, q in ((2, 2), (2, 3), (2, 4), (3, 2)):
        pop.append((f"M({n},GF({q}))", _matrix_ring(n, q)))
    for n in TRIANGULAR_SIZES:
        pop.append((f"UT({n},Z(2))", _triangular_ring(n)))
    return pop


def _enumerated_rings(cache: dict, max_order: int, up_to_iso: bool, budget: int | None):
    """Enumerated rings of order 2..max_order, shared across checks.

    Returns (rings, complete, note); a budget stop marks the scan
    incomplete and records the resume token.  The budget applies to each
    order's search separately.
    """
    key = ("enum", max_order, up_to_iso)
    if key not in cache:
        rings: list[TableRingStructure] = []
        complete, note = True, None
        for order in range(2, max_order + 1):
            try:
                rings.extend(enumerate_unital_rings(order, up_to_iso=up_to_iso, budget=budget))
            except BudgetError as exc:
                complete = False
                note = (f"enumeration of order {order} stopped by the node budget; "
                        f"resume token {exc.resume_token}")
                break
        for order in range(2, max_order + 1):  # one stacked unit pass per order
            _find_units([r for r in rings if r.order == order])
        cache[key] = (rings, complete, note)
    return cache[key]


def _families_and_enumerated(up_to_iso: bool):
    """Population builder: the standard families, then every raw ring or one per class."""
    def build(max_order, budget, cache):
        rings, complete, note = _enumerated_rings(cache, max_order, up_to_iso, budget)
        return _family_population() + [(r.name, r) for r in rings], complete, note
    return build


def _fixed(build):
    """Population builder for a list that does not depend on the scan depth."""
    return lambda max_order, budget, cache: (build(), True, None)


def _t7_population(max_order, budget, cache):
    """Raw rings, one ring per isomorphism class, and the boolean products."""
    raw, complete_r, note_r = _enumerated_rings(cache, max_order, False, budget)
    iso, complete_i, note_i = _enumerated_rings(cache, max_order, True, budget)
    items = [(r.name, r) for r in raw] + [(f"{r.name}/iso", r) for r in iso]
    if max_order >= 2:
        items += [(f"B({k})", make_boolean(k)) for k in BOOLEAN_EXPONENTS]
    return items, complete_r and complete_i, note_r or note_i


def _counterexample(name: str, r: Ring, witness: dict) -> dict:
    serialization = serialize_table_ring(r) if r.order <= TABLE_CAP else None
    return {"ring": name, "witness": witness, "serialization": serialization}


# ---------------------------------------------------------------------------
# the checks, and the scans their rechecks share


def _units_by_scan(r: Ring) -> list[int]:
    """Every x with some y such that x*y = one = y*x, read from the dense table."""
    is_one = r.tables()[1] == r.one
    return np.flatnonzero((is_one & is_one.T).any(axis=1)).tolist()


def _radical_by_scan(r: Ring) -> list[int]:
    """J(R) = {a : 1 - x*a is a unit for every x}, read from the dense tables.

    The one-sided criterion of Lam (*A First Course in Noncommutative
    Rings*, section 4) reads "unit" as "left-invertible".  In a finite ring
    a left inverse is two-sided: if y*z = 1, then z*t = 0 forces
    t = y*z*t = 0, so t -> z*t is injective, hence onto, and z*w = 1 for
    some w, with y = y*z*w = w.  So the two-sided units of
    `_units_by_scan` serve; a is a member iff the column
    `unit[one_minus[mul[:, a]]]` is all true, and the columns go in blocks.
    """
    unit = np.zeros(r.order, dtype=bool)
    unit[_units_by_scan(r)] = True
    add, mul = r.tables()
    one_minus = add[r.one][np.argmax(add == 0, axis=1)]  # one_minus[t] = 1 - t
    member = np.concatenate([unit[one_minus[mul[:, cols]]].all(axis=0)
                             for cols in row_blocks(r.order, r.order)])
    return np.flatnonzero(member).tolist()


def _unit_total_by_scan(r: Ring) -> tuple[list[int], int]:
    units = _units_by_scan(r)
    total = r.zero
    for u in units:
        total = r.add(total, u)
    return units, total


def _has_characteristic_two(r: Ring) -> bool:
    return r.one != r.zero and r.add(r.one, r.one) == r.zero


@dataclass(frozen=True)
class CheckSpec:
    """One check: its claim, the population it is scanned over, and its recheck.

    `population(max_order, budget, cache)` returns (items, complete,
    note) with (name, ring) items; `population_text` is formatted with
    `max_order` and `scanned`, the number of items before premise filtering.
    `claim(ring)` runs on each ring passing `premise(ring)` (None: every
    ring) and returns None when the claim holds, else a witness dict; the
    first witness stops the scan, and `run_check` wraps it with the item's
    name and serialization into the counterexample.  `direct(ring)`
    re-tests premise and claim on a counterexample's parsed serialization
    with elementary scans only, True when the claim holds; it reads the
    ring alone, never the witness.  `non_example` is a (name, ring
    builder, premise wording) triple for a ring known to fail the premise:
    when the population is non-empty and that ring passes, the check fails
    on it before scanning.  Claims and premises look analysis functions up
    by module-level name when they run, so rebinding those names (as
    tracing does) reaches every call.
    """

    check_id: str
    description: str
    population_text: str
    population: Callable
    premise: Callable | None
    claim: Callable
    direct: Callable
    non_example: tuple[str, Callable[[], Ring], str] | None = None


def _t1_claim(r):
    ch = characteristic(r)
    if ch != 2:
        return {"characteristic": ch}
    if not is_commutative(r):
        return {"commutative": False}
    ug = unit_group(r)
    if ug.count != 1 or ug.units[0].index != r.one:
        return {"unit_count": ug.count, "units": [u.index for u in ug.units]}
    return None


def _t1_direct(r):
    n = r.order
    if not all(r.mul(x, x) == x for x in range(n)):
        return True  # premise fails, claim vacuous
    two_one = r.add(r.one, r.one)
    comm = all(r.mul(a, b) == r.mul(b, a) for a in range(n) for b in range(n))
    return two_one == r.zero and comm and _units_by_scan(r) == [r.one]


def _t2_claim(r):
    ug = unit_group(r)
    for u in ug.units:
        if r.neg(u.index) == u.index:
            return {"self_negative_unit": u.index}
    if ug.sum.index != r.zero:
        return {"unit_sum": ug.sum.index}
    return None


def _t2_direct(r):
    if _has_characteristic_two(r):
        return True
    total = r.zero
    for u in _units_by_scan(r):
        if r.neg(u) == u:
            return False
        total = r.add(total, u)
    return total == r.zero


def _t3_claim(r):
    c = unit_group(r).count
    if c % 2 != 0:
        return {"unit_count": c}
    return None


def _t3_direct(r):
    return _has_characteristic_two(r) or len(_units_by_scan(r)) % 2 == 0


def _t4_claim(f):
    q = f.order
    ug = unit_group(f)
    expected_sum = f.one if q == 2 else f.zero
    if ug.count != q - 1:
        return {"unit_count": ug.count, "expected": q - 1}
    if ug.sum.index != expected_sum:
        return {"unit_sum": ug.sum.index, "expected": expected_sum}
    alpha = primitive_element(f)
    acc = f.element(f.one)
    geo = f.element(f.one)
    for _ in range(q - 2):
        acc = acc * alpha
        geo = geo + acc
    if geo.index != expected_sum:
        return {"geometric_sum": geo.index, "expected": expected_sum}
    return None


def _t4_direct(f):
    expected = f.one if f.order == 2 else f.zero
    units, total = _unit_total_by_scan(f)
    if len(units) != f.order - 1 or total != expected:
        return False
    # find a multiplicative generator by direct order scanning
    for x in range(1, f.order):
        acc, k = x, 1
        while acc != f.one and k <= f.order:
            acc = f.mul(acc, x)
            k += 1
        if acc == f.one and k == f.order - 1:
            geo, powcur = f.one, f.one
            for _ in range(f.order - 2):
                powcur = f.mul(powcur, x)
                geo = f.add(geo, powcur)
            return geo == expected
    return False  # no generator found: not a field, so the report stands


def _t5_claim(r):
    n, q = r.n, r.base.order
    formula = gl_order(n, q)
    brute = unit_group(r).count
    if formula != brute:
        return {"n": n, "q": q, "formula": formula, "brute": brute}
    return None


def _t5_direct(r):
    # (n, q) comes from the order q^(n*n), which differs between instances
    instances = {q ** (n * n): (n, q) for n, q in GL_INSTANCES}
    if r.order not in instances:
        return True  # no instance has this order, so the claim says nothing of r
    return gl_order(*instances[r.order]) == len(_units_by_scan(r))


def _t6_claim(r):
    ug = unit_group(r)
    if ug.count % 2 != 0:
        return {"unit_count": ug.count}
    if ug.sum.index != r.zero:
        return {"unit_sum": ug.sum.index}
    for col, size in unit_first_column_classes(r).items():
        if size % 2 != 0:
            return {"first_column": list(col), "class_size": size}
    return None


def _t6_direct(r):
    units, total = _unit_total_by_scan(r)
    return len(units) % 2 == 0 and total == r.zero


def _t7_claim(r):
    if not is_boolean(r):
        bad = next(x for x in range(r.order) if r.mul(x, x) != x)
        return {"non_idempotent": bad}
    ch = characteristic(r)
    if ch != 2:
        return {"characteristic": ch}
    if not is_commutative(r):
        return {"commutative": False}
    rad = jacobson_radical(r)
    if not rad.is_zero:
        return {"radical": [e.index for e in rad.members]}
    return None


def _t7_direct(r):
    if _units_by_scan(r) != [r.one]:
        return True
    return all(r.mul(x, x) == x for x in range(r.order))


def _t8_expected(n):
    """(unit count, unit sum index) that the claim gives UT_n(Z_2)."""
    e12 = _triangular_ring(2).from_entries([0, 1, 0, 0])
    return 2 ** ((n - 1) * n // 2), (e12 if n == 2 else 0)


def _t8_claim(r):
    expected, expected_sum = _t8_expected(r.n)
    ug = unit_group(r)
    if ug.count != expected:
        return {"unit_count": ug.count, "expected": expected}
    if ug.sum.index != expected_sum:
        return {"unit_sum": ug.sum.index, "expected": expected_sum}
    return None


def _t8_direct(r):
    # n comes from the order 2^(n(n+1)/2), which differs between sizes
    sizes = {2 ** (n * (n + 1) // 2): n for n in range(1, r.order.bit_length() + 1)}
    if r.order not in sizes:
        return True  # no UT_n(Z_2) has this order, so the claim says nothing of r
    units, total = _unit_total_by_scan(r)
    return (len(units), total) == _t8_expected(sizes[r.order])


def _t9_claim(r):
    """A witness if J(R/J(R)) != 0.  R/0 is R, so a quotient is built only when J(R) != 0."""
    radical = jacobson_radical(r)
    if radical.is_zero:
        return None
    members = [e.index for e in radical.members]
    rad = jacobson_radical(quotient_ring(r, members, name=f"{r.name}/J"))
    if not rad.is_zero:
        return {"radical": members, "quotient_radical": [e.index for e in rad.members]}
    return None


def _t9_direct(r):
    return _radical_by_scan(quotient_ring(r, _radical_by_scan(r))) == [0]


_ENUMERATED = ("standard families and all enumerated rings of order <= {max_order}, "
               "restricted to characteristic != 2 ({scanned} rings scanned)")

CHECKS = {spec.check_id: spec for spec in (
    CheckSpec(
        "T1",
        "Every boolean ring has characteristic 2, is commutative, and its only unit is 1.",
        "boolean rings among the standard families and all enumerated rings of order "
        "<= {max_order} ({scanned} rings scanned)",
        _families_and_enumerated(False), lambda r: is_boolean(r), _t1_claim, _t1_direct),
    CheckSpec(
        "T2",
        "In a ring of characteristic other than 2, negation pairs the units without "
        "fixed points, so the units sum to 0.",
        _ENUMERATED, _families_and_enumerated(False), lambda r: characteristic(r) != 2,
        _t2_claim, _t2_direct),
    CheckSpec(
        "T3",
        "A ring of characteristic other than 2 has an even number of units.",
        _ENUMERATED, _families_and_enumerated(False), lambda r: characteristic(r) != 2,
        _t3_claim, _t3_direct),
    CheckSpec(
        "T4",
        "A field with q elements has q-1 units; they sum to 1 when q = 2 and to 0 "
        "otherwise, and the geometric sum of a primitive element agrees.",
        f"fields GF(q) for q in {list(FIELD_SIZES)}",
        _fixed(lambda: [(f"GF({q})", make_gf(q)) for q in FIELD_SIZES]), None,
        _t4_claim, _t4_direct),
    CheckSpec(
        "T5",
        "The closed product formula for the number of invertible n-by-n matrices "
        "over GF(q) matches a brute-force count.",
        f"(n, q) instances {list(GL_INSTANCES)}",
        _fixed(lambda: [(f"GL({n},{q})", _matrix_ring(n, q))
                        for n, q in GL_INSTANCES]), None,
        _t5_claim, _t5_direct),
    CheckSpec(
        "T6",
        "Over a characteristic-2 field, the invertible n-by-n matrices (n >= 2) are "
        "even in number and sum to 0; each first-column class has even size.",
        f"matrix rings M(n, GF(q)) for (n, q) in {list(MATRIX_CHAR2_INSTANCES)}",
        _fixed(lambda: [(f"M({n},GF({q}))", _matrix_ring(n, q))
                        for n, q in MATRIX_CHAR2_INSTANCES]),
        None, _t6_claim, _t6_direct),
    CheckSpec(
        "T7",
        "A finite ring with 1 whose only unit is 1 is boolean — hence of "
        "characteristic 2 and commutative — and its radical is zero.",
        "all enumerated rings of order <= {max_order} (raw and one per isomorphism "
        f"class) plus the boolean products B(k), k <= {max(BOOLEAN_EXPONENTS)}, "
        "restricted to trivial unit group ({scanned} rings scanned)",
        _t7_population, lambda r: unit_count(r) == 1, _t7_claim, _t7_direct,
        non_example=("UT(2,Z(2))", lambda: _triangular_ring(2), "trivial-unit")),
    CheckSpec(
        "T8",
        "UT_n(Z_2) has exactly 2^((n-1)n/2) units; they sum to the single "
        "off-diagonal matrix E_12 when n = 2 and to 0 for n >= 3.",
        f"triangular rings UT(n, Z(2)) for n in {list(TRIANGULAR_SIZES)}",
        _fixed(lambda: [(f"UT({n},Z(2))", _triangular_ring(n))
                        for n in TRIANGULAR_SIZES]), None,
        _t8_claim, _t8_direct),
    CheckSpec(
        "T9",
        "For every ring in the population, the quotient by its radical has zero "
        "radical (the quotient is semisimple).",
        "standard families and one ring per isomorphism class of order <= {max_order} "
        "({scanned} rings scanned)",
        _families_and_enumerated(True), None, _t9_claim, _t9_direct),
)}
CHECK_IDS = tuple(CHECKS)


# ---------------------------------------------------------------------------
# running and rechecking


def run_check(check_id: str, *, max_order: int = DEFAULT_MAX_ORDER,
              budget: int | None = None, cache: dict | None = None) -> TheoremReport:
    """Run one check; `cache` shares enumerated populations across checks."""
    spec = CHECKS[normalize_check_id(check_id)]
    if type(max_order) is not int or max_order < 1:
        raise ConstructionError(f"max_order must be a positive integer, got {max_order}")
    if max_order > BEST_EFFORT_MAX_ORDER:
        raise ConstructionError(
            f"max_order is scoped to orders <= {BEST_EFFORT_MAX_ORDER}, got {max_order}")
    if cache is None:
        cache = {}
    started = time.perf_counter()
    items, complete, note = spec.population(max_order, budget, cache)

    def finish(population, tested, name=None, ring=None, witness=None):
        counterexample = None if witness is None else _counterexample(name, ring, witness)
        return TheoremReport(
            check_id=spec.check_id, description=spec.description,
            population=population, population_count=tested, passed=witness is None,
            complete=complete, counterexample=counterexample,
            elapsed=time.perf_counter() - started, note=note)

    if spec.non_example is not None and items:
        name, build, wording = spec.non_example
        ring = build()
        if spec.premise(ring):
            return finish("premise sanity", 1, name, ring,
                          {"error": f"{name} must not satisfy the {wording} premise"})
    population = spec.population_text.format(max_order=max_order, scanned=len(items))
    tested = 0
    for name, ring in items:
        if spec.premise is not None and not spec.premise(ring):
            continue
        tested += 1
        witness = spec.claim(ring)
        if witness is not None:
            return finish(population, tested, name, ring, witness)
    if tested == 0 and note is None:
        note = "population empty (zero ring excluded)"
    return finish(population, tested)


def run_all(max_order: int = DEFAULT_MAX_ORDER, *,
            budget: int | None = None) -> list[TheoremReport]:
    """All nine checks with a shared enumeration cache, in T1..T9 order."""
    cache: dict = {}
    return [run_check(cid, max_order=max_order, budget=budget, cache=cache)
            for cid in CHECK_IDS]


def recheck_counterexample(report: TheoremReport) -> bool:
    """True iff the report's counterexample still violates the claim.

    The serialized ring is re-evaluated by the check's own direct
    (scan-based) recheck, which reads the parsed ring alone: no recheck
    reads the witness, so a report cannot choose what is rechecked.  A
    counterexample without a serialization (its ring was above TABLE_CAP)
    cannot be refuted.
    """
    if report.counterexample is None:
        raise ConstructionError(f"report {report.check_id} carries no counterexample")
    spec = CHECKS[normalize_check_id(report.check_id)]
    text = report.counterexample.get("serialization")
    if text is None:
        return True
    return not spec.direct(parse_table_ring(text))
