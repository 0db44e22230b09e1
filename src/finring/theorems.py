"""Executable verification of the structural claims over declared populations.

Each check T1..T9 binds one claim to a finite population of rings (or
parameter instances), scans it exhaustively, and reports pass/fail with a
re-checkable counterexample on failure.  The zero ring is excluded from
every population: with 1 = 0 the unit-group conventions degenerate.

The populations mix constructed families (Z_n, fields, boolean products,
matrix and triangular rings) with the exhaustively enumerated rings of
small order, so every hypothesis branch — characteristic 2 and odd,
prime and prime-power fields, n = 1 edge cases — is exercised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import BudgetError, ConstructionError
from .rings import (
    TABLE_CAP,
    Ring,
    TableRingStructure,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_table_ring,
    make_triangular_ring,
    make_zn,
    quotient_ring,
)
from .analysis import (
    characteristic,
    gl_order,
    is_boolean,
    is_commutative,
    inverse_by_scan,
    jacobson_radical,
    primitive_element,
    unit_census,
    unit_count,
    unit_first_column_classes,
    unit_group,
)
from .enumeration import (
    enumerate_unital_rings,
    parse_table_ring,
    serialize_table_ring,
)

CHECK_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")
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
    cid = ALIASES.get(cid, cid)
    if cid not in CHECK_IDS:
        raise ConstructionError(
            f"unknown check {check_id!r}; expected one of {', '.join(CHECK_IDS)} or 'main'")
    return cid


# ---------------------------------------------------------------------------
# populations


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
        pop.append((f"M({n},GF({q}))", make_matrix_ring(n, make_gf(q))))
    for n in TRIANGULAR_SIZES:
        pop.append((f"UT({n},Z(2))", make_triangular_ring(n, make_zn(2))))
    return pop


def _enumerated_rings(cache: dict, max_order: int, up_to_iso: bool,
                      jobs: int, budget: int | None):
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
            use_jobs = jobs if budget is None else 1
            try:
                rings.extend(enumerate_unital_rings(
                    order, up_to_iso=up_to_iso, jobs=use_jobs, budget=budget))
            except BudgetError as exc:
                complete = False
                note = (f"enumeration of order {order} stopped by the node budget; "
                        f"resume token {exc.resume_token}")
                break
        cache[key] = (rings, complete, note)
    return cache[key]


def _serialize_any(r: Ring) -> str | None:
    if isinstance(r, TableRingStructure):
        return serialize_table_ring(r)
    if r.order <= TABLE_CAP:
        add, mul = r.tables()
        return serialize_table_ring(make_table_ring(add, mul, one=r.one, name=r.name))
    return None


def _counterexample(name: str, r: Ring | None, witness: dict) -> dict:
    out = {"ring": name, "witness": witness}
    if r is not None:
        out["serialization"] = _serialize_any(r)
    return out


def _scan(check_id: str, description: str, population_desc: str,
          items, premise, violation, *, complete: bool = True,
          note: str | None = None, started: float) -> TheoremReport:
    """Evaluate `violation` on every premise-satisfying (name, subject) item.

    Subjects are rings or parameter instances; `violation(name, subject)`
    returns None when the claim holds, else a counterexample dict; the
    first violation stops the scan.
    """
    tested = 0
    for name, r in items:
        if premise is not None and not premise(r):
            continue
        tested += 1
        bad = violation(name, r)
        if bad is not None:
            return TheoremReport(
                check_id=check_id, description=description,
                population=population_desc, population_count=tested,
                passed=False, complete=complete, counterexample=bad,
                elapsed=time.perf_counter() - started, note=note)
    if tested == 0 and note is None:
        note = "empty population"
    return TheoremReport(
        check_id=check_id, description=description, population=population_desc,
        population_count=tested, passed=True, complete=complete,
        counterexample=None, elapsed=time.perf_counter() - started, note=note)


# ---------------------------------------------------------------------------
# the individual checks


def _run_t1(max_order, jobs, budget, cache):
    started = time.perf_counter()
    raw, complete, note = _enumerated_rings(cache, max_order, False, jobs, budget)
    items = _family_population() + [(r.name, r) for r in raw]

    def violation(name, r):
        ch = characteristic(r)
        if ch != 2:
            return _counterexample(name, r, {"characteristic": ch})
        if not is_commutative(r):
            return _counterexample(name, r, {"commutative": False})
        ug = unit_group(r)
        if ug.count != 1 or ug.units[0].index != r.one:
            return _counterexample(
                name, r, {"unit_count": ug.count,
                          "units": [u.index for u in ug.units]})
        return None

    return _scan(
        "T1",
        "Every boolean ring has characteristic 2, is commutative, and its only unit is 1.",
        f"boolean rings among the standard families and all enumerated rings of order <= {max_order} "
        f"({len(items)} rings scanned)",
        items, is_boolean, violation, complete=complete, note=note, started=started)


def _odd_char_items(max_order, jobs, budget, cache):
    raw, complete, note = _enumerated_rings(cache, max_order, False, jobs, budget)
    items = _family_population() + [(r.name, r) for r in raw]
    return items, complete, note


def _run_t2(max_order, jobs, budget, cache):
    started = time.perf_counter()
    items, complete, note = _odd_char_items(max_order, jobs, budget, cache)

    def premise(r):
        return characteristic(r) != 2

    def violation(name, r):
        ug = unit_group(r)
        for u in ug.units:
            nu = r.neg(u.index)
            if nu == u.index:
                return _counterexample(name, r, {"self_negative_unit": u.index})
        if ug.sum.index != r.zero:
            return _counterexample(name, r, {"unit_sum": ug.sum.index})
        return None

    return _scan(
        "T2",
        "In a ring of characteristic other than 2, negation pairs the units without "
        "fixed points, so the units sum to 0.",
        f"standard families and all enumerated rings of order <= {max_order}, "
        f"restricted to characteristic != 2 ({len(items)} rings scanned)",
        items, premise, violation, complete=complete, note=note, started=started)


def _run_t3(max_order, jobs, budget, cache):
    started = time.perf_counter()
    items, complete, note = _odd_char_items(max_order, jobs, budget, cache)

    def premise(r):
        return characteristic(r) != 2

    def violation(name, r):
        c = unit_count(r)
        if c % 2 != 0:
            return _counterexample(name, r, {"unit_count": c})
        return None

    return _scan(
        "T3",
        "A ring of characteristic other than 2 has an even number of units.",
        f"standard families and all enumerated rings of order <= {max_order}, "
        f"restricted to characteristic != 2 ({len(items)} rings scanned)",
        items, premise, violation, complete=complete, note=note, started=started)


def _run_t4(max_order, jobs, budget, cache):
    started = time.perf_counter()
    items = [(f"GF({q})", make_gf(q)) for q in FIELD_SIZES]

    def violation(name, f):
        q = f.order
        ug = unit_group(f)
        expected_sum = f.one if q == 2 else f.zero
        if ug.count != q - 1:
            return _counterexample(name, f, {"unit_count": ug.count, "expected": q - 1})
        if ug.sum.index != expected_sum:
            return _counterexample(name, f, {"unit_sum": ug.sum.index,
                                             "expected": expected_sum})
        alpha = primitive_element(f)
        acc = f.element(f.one)
        geo = f.element(f.one)
        for _ in range(q - 2):
            acc = acc * alpha
            geo = geo + acc
        if geo.index != expected_sum:
            return _counterexample(name, f, {"geometric_sum": geo.index,
                                             "expected": expected_sum})
        return None

    return _scan(
        "T4",
        "A field with q elements has q-1 units; they sum to 1 when q = 2 and to 0 "
        "otherwise, and the geometric sum of a primitive element agrees.",
        f"fields GF(q) for q in {list(FIELD_SIZES)}",
        items, None, violation, started=started)


def _run_t5(max_order, jobs, budget, cache):
    started = time.perf_counter()
    items = [(f"GL({n},{q})", (n, q)) for n, q in GL_INSTANCES]

    def violation(name, inst):
        n, q = inst
        formula = gl_order(n, q)
        brute = unit_count(make_matrix_ring(n, make_gf(q)))
        if formula != brute:
            return _counterexample(name, None, {"n": n, "q": q,
                                                "formula": formula, "brute": brute})
        return None

    return _scan(
        "T5",
        "The closed product formula for the number of invertible n-by-n matrices "
        "over GF(q) matches a brute-force count.",
        f"(n, q) instances {list(GL_INSTANCES)}",
        items, None, violation, started=started)


def _run_t6(max_order, jobs, budget, cache):
    started = time.perf_counter()
    items = [(f"M({n},GF({q}))", (n, q)) for n, q in MATRIX_CHAR2_INSTANCES]

    def violation(name, inst):
        n, q = inst
        r = make_matrix_ring(n, make_gf(q))
        c, s = unit_census(r)
        if c % 2 != 0:
            return _counterexample(name, r, {"unit_count": c})
        if s.index != r.zero:
            return _counterexample(name, r, {"unit_sum": s.index})
        for col, size in unit_first_column_classes(r).items():
            if size % 2 != 0:
                return _counterexample(name, r, {"first_column": list(col),
                                                 "class_size": size})
        return None

    return _scan(
        "T6",
        "Over a characteristic-2 field, the invertible n-by-n matrices (n >= 2) are "
        "even in number and sum to 0; each first-column class has even size.",
        f"matrix rings M(n, GF(q)) for (n, q) in {list(MATRIX_CHAR2_INSTANCES)}",
        items, None, violation, started=started)


def _run_t7(max_order, jobs, budget, cache):
    started = time.perf_counter()
    raw, complete_r, note_r = _enumerated_rings(cache, max_order, False, jobs, budget)
    iso, complete_i, note_i = _enumerated_rings(cache, max_order, True, jobs, budget)
    complete = complete_r and complete_i
    note = note_r or note_i
    items = [(r.name, r) for r in raw] + [(f"{r.name}/iso", r) for r in iso]
    if max_order >= 2:
        items += [(f"B({k})", make_boolean(k)) for k in BOOLEAN_EXPONENTS]
        ut2 = make_triangular_ring(2, make_zn(2))
        if unit_count(ut2) == 1:
            return TheoremReport(
                check_id="T7",
                description="A ring whose only unit is 1 is boolean and has zero radical.",
                population="premise sanity", population_count=1, passed=False,
                complete=complete,
                counterexample=_counterexample(
                    "UT(2,Z(2))", ut2,
                    {"error": "UT(2,Z(2)) must not satisfy the trivial-unit premise"}),
                elapsed=time.perf_counter() - started, note=note)
    elif note is None:
        note = "population empty (zero ring excluded)"

    def premise(r):
        return unit_count(r) == 1

    def violation(name, r):
        if not is_boolean(r):
            bad = next(x for x in range(r.order) if r.mul(x, x) != x)
            return _counterexample(name, r, {"non_idempotent": bad})
        ch = characteristic(r)
        if ch != 2:
            return _counterexample(name, r, {"characteristic": ch})
        if not is_commutative(r):
            return _counterexample(name, r, {"commutative": False})
        if not jacobson_radical(r).is_zero:
            return _counterexample(
                name, r, {"radical": [e.index for e in jacobson_radical(r).members]})
        return None

    return _scan(
        "T7",
        "A finite ring with 1 whose only unit is 1 is boolean — hence of "
        "characteristic 2 and commutative — and its radical is zero.",
        f"all enumerated rings of order <= {max_order} (raw and one per isomorphism "
        f"class) plus the boolean products B(k), k <= 6, restricted to trivial unit "
        f"group ({len(items)} rings scanned)",
        items, premise, violation, complete=complete, note=note, started=started)


def _run_t8(max_order, jobs, budget, cache):
    started = time.perf_counter()
    items = [(f"UT({n},Z(2))", n) for n in TRIANGULAR_SIZES]

    def violation(name, n):
        r = make_triangular_ring(n, make_zn(2))
        expected = 2 ** ((n - 1) * n // 2)
        c, s = unit_census(r)
        if c != expected:
            return _counterexample(name, r, {"unit_count": c, "expected": expected})
        if n == 2:
            e12 = [[0] * n for _ in range(n)]
            e12[0][1] = 1
            expected_sum = r.from_entries([v for row in e12 for v in row])
        else:
            expected_sum = r.zero
        if s.index != expected_sum:
            return _counterexample(name, r, {"unit_sum": s.index,
                                             "expected": expected_sum})
        return None

    return _scan(
        "T8",
        "UT_n(Z_2) has exactly 2^((n-1)n/2) units; they sum to the single "
        "off-diagonal matrix E_12 when n = 2 and to 0 for n >= 3.",
        f"triangular rings UT(n, Z(2)) for n in {list(TRIANGULAR_SIZES)}",
        items, None, violation, started=started)


def _run_t9(max_order, jobs, budget, cache):
    started = time.perf_counter()
    iso, complete, note = _enumerated_rings(cache, max_order, True, jobs, budget)
    items = _family_population() + [(r.name, r) for r in iso]

    def violation(name, r):
        members = [e.index for e in jacobson_radical(r).members]
        q = quotient_ring(r, members, name=f"{r.name}/J")
        rad = jacobson_radical(q)
        if not rad.is_zero:
            return _counterexample(
                name, r, {"radical": members,
                          "quotient_radical": [e.index for e in rad.members]})
        return None

    return _scan(
        "T9",
        "For every ring in the population, the quotient by its radical has zero "
        "radical (the quotient is semisimple).",
        f"standard families and one ring per isomorphism class of order <= {max_order} "
        f"({len(items)} rings scanned)",
        items, None, violation, complete=complete, note=note, started=started)


_RUNNERS = {
    "T1": _run_t1, "T2": _run_t2, "T3": _run_t3, "T4": _run_t4, "T5": _run_t5,
    "T6": _run_t6, "T7": _run_t7, "T8": _run_t8, "T9": _run_t9,
}


def run_check(check_id: str, *, max_order: int = DEFAULT_MAX_ORDER,
              jobs: int = 1, budget: int | None = None,
              cache: dict | None = None) -> TheoremReport:
    """Run one check; `cache` shares enumerated populations across checks."""
    cid = normalize_check_id(check_id)
    if not isinstance(max_order, int) or max_order < 1:
        raise ConstructionError(f"max_order must be a positive integer, got {max_order}")
    if cache is None:
        cache = {}
    return _RUNNERS[cid](max_order, jobs, budget, cache)


def run_all(max_order: int = DEFAULT_MAX_ORDER, *, jobs: int = 1,
            budget: int | None = None) -> list[TheoremReport]:
    """All nine checks with a shared enumeration cache, in T1..T9 order."""
    cache: dict = {}
    return [run_check(cid, max_order=max_order, jobs=jobs, budget=budget, cache=cache)
            for cid in CHECK_IDS]


# ---------------------------------------------------------------------------
# counterexample rechecking


def _units_by_scan(r: Ring) -> list[int]:
    return [x for x in range(r.order) if inverse_by_scan(r, x) is not None]


def _direct_holds(cid: str, r: Ring) -> bool:
    """Re-evaluate a check's per-ring claim with elementary scans only.

    Used to confirm counterexamples independently of the vectorized
    analysis paths; premises are re-tested as part of the claim.
    """
    n = r.order
    if cid == "T1":
        if not all(r.mul(x, x) == x for x in range(n)):
            return True  # premise fails, claim vacuous
        two_one = r.add(r.one, r.one)
        comm = all(r.mul(a, b) == r.mul(b, a) for a in range(n) for b in range(n))
        return two_one == r.zero and comm and _units_by_scan(r) == [r.one]
    if cid in ("T2", "T3"):
        ch = 1
        acc = r.one
        while acc != r.zero:
            acc = r.add(acc, r.one)
            ch += 1
        if ch == 2:
            return True
        units = _units_by_scan(r)
        if cid == "T3":
            return len(units) % 2 == 0
        total = r.zero
        for u in units:
            if r.neg(u) == u:
                return False
            total = r.add(total, u)
        return total == r.zero
    if cid == "T7":
        if _units_by_scan(r) != [r.one]:
            return True
        return all(r.mul(x, x) == x for x in range(n))
    if cid == "T9":
        members = [e.index for e in jacobson_radical(r).members]
        q = quotient_ring(r, members)
        return jacobson_radical(q).is_zero
    raise ConstructionError(f"no per-ring direct recheck for {cid}")


def recheck_counterexample(report: TheoremReport, direct=None) -> bool:
    """True iff the report's counterexample still violates the claim.

    `direct` overrides the claim predicate: a callable taking the
    reconstructed ring and returning True when the claim holds.  Without
    it, the check's own direct (scan-based) re-evaluation is used.
    """
    if report.counterexample is None:
        raise ConstructionError(f"report {report.check_id} carries no counterexample")
    ce = report.counterexample
    cid = normalize_check_id(report.check_id)
    w = ce.get("witness", {})
    if cid == "T4":
        text = ce.get("serialization")
        if text is None:
            return True
        f = parse_table_ring(text)
        expected = f.one if f.order == 2 else f.zero
        if "geometric_sum" in w:
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
                    return geo != expected
            return True  # no generator found: not a field, claim inapplicable
        units = _units_by_scan(f)
        total = f.zero
        for u in units:
            total = f.add(total, u)
        return not (len(units) == f.order - 1 and total == expected)
    if cid == "T5":
        formula = gl_order(w["n"], w["q"])
        brute = unit_count(make_matrix_ring(w["n"], make_gf(w["q"])))
        return formula != brute
    if cid in ("T6", "T8"):
        text = ce.get("serialization")
        if text is None:
            return True
        r = parse_table_ring(text)
        units = _units_by_scan(r)
        total = r.zero
        for u in units:
            total = r.add(total, u)
        if cid == "T6":
            return not (len(units) % 2 == 0 and total == r.zero)
        expected_sum = w.get("expected", r.zero) if "unit_sum" in w else None
        if "unit_count" in w:
            return len(units) != w["expected"]
        return total != expected_sum
    text = ce.get("serialization")
    if text is None:
        return True
    r = parse_table_ring(text)
    if direct is not None:
        return not direct(r)
    return not _direct_holds(cid, r)
