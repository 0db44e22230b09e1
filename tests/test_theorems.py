"""Check runner: reports, populations, budgets, counterexample rechecking."""

import collections
import dataclasses

import pytest

from finring import analysis, enumeration, inverse_by_scan, rings, theorems
from finring import (
    BEST_EFFORT_MAX_ORDER,
    CHECK_IDS,
    TABLE_CAP,
    BudgetError,
    ConstructionError,
    Elem,
    RadicalSummary,
    TheoremReport,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_table_ring,
    make_triangular_ring,
    make_zn,
    normalize_check_id,
    quotient_ring,
    recheck_counterexample,
    run_all,
    run_check,
    serialize_table_ring,
)

# Premise-satisfying population sizes at the default scan depth, frozen.
POPULATION_AT_8 = {"T1": 40, "T2": 71, "T3": 71, "T4": 10, "T5": 5,
                   "T6": 3, "T7": 41, "T8": 3, "T9": 72}


@pytest.fixture(scope="module")
def reports():
    return run_all(8)


def test_all_checks_pass(reports):
    assert [r.check_id for r in reports] == list(CHECK_IDS)
    for r in reports:
        assert r.passed and r.complete, r.check_id
        assert r.counterexample is None
        assert r.description and r.population
        assert r.elapsed >= 0.0


def test_population_counts_pinned(reports):
    assert {r.check_id: r.population_count for r in reports} == POPULATION_AT_8


def test_t9_builds_a_quotient_only_for_a_nonzero_radical(monkeypatch):
    # R/0 is R, so a semisimple ring needs no quotient: one QuotientRing per
    # population ring with J != 0 (24 of the 72), none for the others
    items, _, _ = theorems.CHECKS["T9"].population(8, None, {})
    radical = sum(not analysis.jacobson_radical(r).is_zero for _, r in items)
    built = []
    init = rings.QuotientRing.__init__
    monkeypatch.setattr(rings.QuotientRing, "__init__",
                        lambda s, *a, **k: built.append(1) or init(s, *a, **k))
    report = run_check("T9", max_order=8)
    assert report.passed and report.complete
    assert report.population_count == len(items) == 72
    assert len(built) == radical == 24


@pytest.mark.parametrize("check_id", ["T1", "T2", "T3", "T4", "T5", "T6", "T8"])
def test_formula_checks_never_read_the_structural_census(check_id, monkeypatch):
    # the unit checks test closed forms by brute force, so the units they
    # count and sum come from unit_group, never from the same formulas
    def refuse(r):
        raise AssertionError(f"structural census fed {check_id} on {r.name}")
    monkeypatch.setattr(analysis, "_structural_census", refuse)
    monkeypatch.setattr(analysis, "_signature", refuse)
    report = run_check(check_id)
    assert report.passed and report.complete
    assert report.population_count == POPULATION_AT_8[check_id]


def test_census_of_every_constructed_population_ring_matches_its_unit_group():
    # the constructed rings of T1-T9 at max order 8: the standard families and
    # the fixed T4, T5, T6 and T8 lists of one run, each ring object once; the
    # run's families hold all of them but GL(1,5)
    cache = {}
    items = theorems._family_population(cache)
    for cid in ("T4", "T5", "T6", "T8"):
        items += theorems.CHECKS[cid].population(8, None, cache)[0]
    distinct = {id(r): r for _, r in items}
    assert len(distinct) == 53
    for r in distinct.values():
        ug = analysis.unit_group(r)
        assert analysis.unit_census(r) == (ug.count, ug.sum), r.name


def test_run_all_shallow_scan_passes():
    shallow = run_all(4)
    assert all(r.passed and r.complete for r in shallow)
    by_id = {r.check_id: r for r in shallow}
    # the family-only checks are depth-independent ...
    for cid in ("T4", "T5", "T6", "T8"):
        assert by_id[cid].population_count == POPULATION_AT_8[cid]
    # ... while the enumeration-backed ones shrink with max_order
    assert by_id["T7"].population_count == 12
    assert by_id["T9"].population_count == 58


def test_to_dict_schema(reports):
    d = reports[0].to_dict()
    assert set(d) == {"check_id", "description", "population",
                      "population_count", "passed", "complete",
                      "counterexample", "elapsed_seconds", "note"}
    assert d["check_id"] == "T1" and d["passed"] is True


def test_report_determinism():
    a = run_check("T4").to_dict()
    b = run_check("T4").to_dict()
    a.pop("elapsed_seconds")
    b.pop("elapsed_seconds")
    assert a == b


def test_normalize_check_id():
    assert normalize_check_id("t3") == "T3"
    assert normalize_check_id(" T9 ") == "T9"
    assert normalize_check_id("main") == "T7"
    assert normalize_check_id("MAIN") == "T7"
    with pytest.raises(ConstructionError, match="unknown check"):
        normalize_check_id("T10")
    with pytest.raises(ConstructionError):
        normalize_check_id("")


def test_run_check_validates_max_order():
    with pytest.raises(ConstructionError):
        run_check("T1", max_order=0)
    with pytest.raises(ConstructionError):
        run_check("T1", max_order="deep")


def test_run_check_rejects_max_order_above_the_enumeration_scope(monkeypatch):
    # refused before any population is built, for every check alike
    def refuse(*_, **__):
        raise AssertionError("enumerate_unital_rings called")
    monkeypatch.setattr(theorems, "enumerate_unital_rings", refuse)
    for cid in ("T4", "T9"):
        with pytest.raises(ConstructionError, match=f"<= {BEST_EFFORT_MAX_ORDER}"):
            run_check(cid, max_order=BEST_EFFORT_MAX_ORDER + 1, budget=10 ** 7)


def test_empty_population_is_reported_not_passed_silently():
    r = run_check("T7", max_order=1)
    assert r.passed and r.complete
    assert r.population_count == 0
    assert "population empty" in r.note


def test_budget_yields_incomplete_report_with_resume_note():
    r = run_check("T7", max_order=9, budget=50)
    assert not r.complete
    assert "resume token v1:" in r.note
    # an incomplete scan is distinguishable from a full pass
    assert r.to_dict()["complete"] is False


def test_budgeted_scan_can_still_finish():
    r = run_check("T7", max_order=8, budget=10 ** 7)
    assert r.passed and r.complete
    assert r.population_count == POPULATION_AT_8["T7"]


# ---------------------------------------------------------------------------
# counterexample rechecking


def _snapshot(r):
    add, mul = r.tables()
    return serialize_table_ring(make_table_ring(add, mul, one=r.one))


def _fake_report(check_id, counterexample):
    return TheoremReport(
        check_id=check_id, description="doctored", population="doctored",
        population_count=1, passed=False, counterexample=counterexample)


def test_serialize_any_writes_constructed_rings_without_validating(monkeypatch):
    subjects = [make_matrix_ring(2, make_gf(2)), make_triangular_ring(3, make_zn(2)),
                quotient_ring(make_zn(12), [0, 4, 8])]
    round_trips = [_snapshot(r) for r in subjects]

    def refuse(*_):
        raise AssertionError("verify_tables called while serializing")
    monkeypatch.setattr(rings, "verify_tables", refuse)
    assert [serialize_table_ring(r) for r in subjects] == round_trips


def test_recheck_requires_a_counterexample(reports):
    with pytest.raises(ConstructionError, match="no counterexample"):
        recheck_counterexample(reports[0])


def test_recheck_refutes_a_doctored_claim():
    # B(2) satisfies the T1 conclusions, so a report naming it as a
    # counterexample does not survive an independent scan
    ce = {"ring": "B(2)", "witness": {"claim": "doctored"},
          "serialization": _snapshot(make_boolean(2))}
    assert recheck_counterexample(_fake_report("T1", ce)) is False


def test_recheck_t5_recomputes_from_witness():
    # the formula for the (n, q) that the ring's order names, against a scan
    # of the serialized ring; the witness's (n, q) is not read
    for n, q in ((1, 5), (2, 2), (2, 3)):
        r = make_matrix_ring(n, make_gf(q))
        ce = {"ring": r.name, "witness": {"n": n, "q": q}, "serialization": _snapshot(r)}
        assert recheck_counterexample(_fake_report("T5", ce)) is False
    # M(2,GF(2)) has order 16, so GL(2,2): a witness naming (2, 3) cannot
    # make its six units a violation
    ce = {"ring": "M(2,GF(3))", "witness": {"n": 2, "q": 3},
          "serialization": _snapshot(make_matrix_ring(2, make_gf(2)))}
    assert recheck_counterexample(_fake_report("T5", ce)) is False
    # an order that no instance has: the claim says nothing of the ring
    ce = {"ring": "Z(6)", "witness": {}, "serialization": _snapshot(make_zn(6))}
    assert recheck_counterexample(_fake_report("T5", ce)) is False


def test_t5_counterexample_carries_its_ring(monkeypatch):
    monkeypatch.setattr(theorems, "gl_order", lambda n, q: 0)
    report = run_check("T5")
    assert not report.passed
    ce = report.counterexample
    assert ce["serialization"] == serialize_table_ring(make_matrix_ring(1, make_gf(5)))
    assert recheck_counterexample(report) is True


def test_verify_all_builds_each_matrix_table_once(monkeypatch):
    # the standard families, T5 and T6 share one ring per (n, q), so
    # M(2,GF(2)), M(3,GF(2)) and M(2,GF(4)) build their dense tables once;
    # the families, T7's non-example and T8 share one UT(n,Z(2)) per n
    built = []
    build = rings.MatrixRing._build_tables

    def counted(self):
        built.append(self.name)
        return build(self)

    monkeypatch.setattr(rings.MatrixRing, "_build_tables", counted)
    assert all(report.passed for report in run_all(4))
    full = [name for name in built if name.startswith("M(")]
    assert len(full) == len(set(full))
    assert {"M(2,GF(2))", "M(3,GF(2))", "M(2,GF(4))"} <= set(full)
    triangular = [name for name in built if name.startswith("UT(")]
    assert sorted(triangular) == ["UT(2,Z(2))", "UT(3,Z(2))", "UT(4,Z(2))"]


def test_verify_all_validates_each_enumerated_class_once(monkeypatch):
    # the search screens one leaf per class where it first builds it, 20
    # classes of orders 2..8 on each route: the iso seeds and the seeds the
    # raw expansion relabels; relabeled tables are isomorphic rings and are
    # not screened again (601 tables when every emitted table was)
    calls = []
    screen = rings._axioms_hold

    def counted(add, mul, one):
        n = len(add)
        calls.append((n, len(mul.reshape(-1, n, n))))
        return screen(add, mul, one)

    monkeypatch.setattr(rings, "_axioms_hold", counted)
    monkeypatch.setattr(enumeration, "_axioms_hold", counted)
    assert all(report.passed for report in run_all(8))
    assert len(calls) == 40
    assert sorted(calls) == sorted((n, 1) for n in 2 * [2, 3, 4, 4, 4, 4, 5, 6, 7] + 2 * 11 * [8])


def _counted_unit_passes(monkeypatch):
    """The rings of each `_find_units` pass, in order; the rings stay
    referenced, so their ids stay distinct."""
    passes = []
    kernel = analysis._find_units

    def counted(rs):
        passes.append(list(rs))
        return kernel(rs)

    monkeypatch.setattr(analysis, "_find_units", counted)
    monkeypatch.setattr(theorems, "_find_units", counted)
    return passes


def test_verify_all_finds_each_rings_units_once(monkeypatch):
    # one run builds each ring once, in the run's store, and finds the units
    # of its population (the families and the enumerated rings, raw and one
    # per class) in one stacked pass per order: Z(16), GF(16), B(4) and
    # M(2,GF(2)) share a pass.  GL(1,5) of T5 is the one ring outside it.
    families = [name for name, _ in theorems._family_population({})]
    built = []
    for name in ("make_zn", "make_gf", "make_boolean", "make_matrix_ring",
                 "make_triangular_ring"):
        make = getattr(theorems, name)
        monkeypatch.setattr(theorems, name,
                            lambda *args, make=make: built.append(make(*args)) or built[-1])
    passes = _counted_unit_passes(monkeypatch)
    assert all(report.passed for report in run_all(8))
    assert sorted(r.name for r in built) == sorted(families + ["M(1,GF(5))"])
    examined = [r for rs in passes for r in rs]
    assert len(examined) == len({id(r) for r in examined}) == 52 + 581 + 20 + 1
    assert {id(r) for r in built} <= {id(r) for r in examined}
    *stacked, alone = passes
    assert [r.name for r in alone] == ["M(1,GF(5))"]
    assert all(len({r.order for r in rs}) == 1 for rs in passes)
    orders = sorted({r.order for r in built} | set(range(2, 9)))
    assert [rs[0].order for rs in stacked] == orders and len(orders) == 35
    # order 8: the 552 raw rings, 11 classes, Z(8), GF(8), B(3) and UT(2,Z(2))
    assert max(map(len, passes)) == 567


def test_each_run_builds_and_examines_its_own_rings(monkeypatch):
    # two runs in one process share no ring, so the second finds every unit
    # again: no ring, nor the units kept on it, outlives its run
    runs = []
    for _ in range(2):
        passes = _counted_unit_passes(monkeypatch)
        assert all(report.passed for report in run_all(8))
        runs.append({id(r): r for rs in passes for r in rs})
    first, second = runs
    assert len(first) == len(second) == 654
    assert not first.keys() & second.keys()


def test_a_single_check_builds_only_the_population_it_scans(monkeypatch):
    # T9 scans one ring per class and reads no units, so it enumerates no raw
    # ring and makes no stacked unit pass; T1 scans the families and the raw
    # rings, one stacked pass per order over those, and enumerates no class
    searched = []
    search = theorems.enumerate_unital_rings
    monkeypatch.setattr(theorems, "enumerate_unital_rings",
                        lambda order, up_to_iso, **kw: searched.append(up_to_iso)
                        or search(order, up_to_iso=up_to_iso, **kw))
    passes = _counted_unit_passes(monkeypatch)
    report = run_check("T9", max_order=8)
    assert report.passed and report.population_count == 72
    assert searched == [True] * 7 and passes == []
    searched.clear()
    passes.clear()
    report = run_check("T1", max_order=8)
    assert report.passed and report.population_count == POPULATION_AT_8["T1"]
    assert searched == [False] * 7
    examined = [r for rs in passes for r in rs]
    assert len(examined) == len({id(r) for r in examined}) == 52 + 581
    assert all(len({r.order for r in rs}) == 1 for rs in passes)


def test_t4_alone_builds_no_matrix_table(monkeypatch):
    # T4 takes the run's fields and nothing else of the population
    built = []
    build = rings.MatrixRing._build_tables
    monkeypatch.setattr(rings.MatrixRing, "_build_tables",
                        lambda self: built.append(self.name) or build(self))
    report = run_check("T4")
    assert report.passed and report.population_count == POPULATION_AT_8["T4"]
    assert built == []


def test_verify_all_finds_each_rings_characteristic_once(monkeypatch):
    # each ring keeps its characteristic: the checks ask for it far more often
    # than there are rings, and each ring's value is found and kept once
    asked, kept = [], []

    class Kept:
        """`Ring._characteristic`, recording every ring a value is kept on."""

        def __get__(self, ring, owner):
            return vars(ring).get("kept")

        def __set__(self, ring, value):
            if value is not None:
                kept.append(ring)
            vars(ring)["kept"] = value

    monkeypatch.setattr(rings.Ring, "_characteristic", Kept(), raising=False)
    ask = theorems.characteristic
    monkeypatch.setattr(theorems, "characteristic", lambda r: asked.append(r) or ask(r))
    assert all(report.passed for report in run_all(8))
    assert len(kept) == len({id(r) for r in kept}) == len({id(r) for r in asked})
    assert len(asked) > 2 * len(kept)


def test_t4_reports_a_failed_geometric_sum(monkeypatch):
    # every element passes for primitive, so alpha = 1: in GF(3) the sum
    # 1 + 1 is 2, not 0.  T4 reports that with its witness, and the
    # recheck, which finds the real generator, refutes it.
    monkeypatch.setattr(analysis, "multiplicative_order", lambda f, a: f.order - 1)
    report = run_check("T4")
    assert not report.passed
    ce = report.counterexample
    assert ce["ring"] == "GF(3)"
    assert ce["witness"] == {"geometric_sum": 2, "expected": 0}
    assert recheck_counterexample(report) is False


def _unit_group_summing_to(index):
    """`unit_group` with its sum read as the element `index(r)`."""
    return lambda r: dataclasses.replace(analysis.unit_group(r), sum=Elem(r, index(r)))


def _unit_group_with_zero(r):
    """`unit_group` with 0 counted among the units."""
    group = analysis.unit_group(r)
    return dataclasses.replace(group, units=[Elem(r, 0)] + group.units, count=group.count + 1)


@pytest.mark.parametrize("cid, name, fake, ring, witness", [
    ("T1", "is_commutative", lambda r: False, "Z(2)", {"commutative": False}),
    ("T1", "unit_group", _unit_group_with_zero, "Z(2)", {"unit_count": 2, "units": [0, 1]}),
    ("T2", "unit_group", _unit_group_summing_to(lambda r: r.one), "Z(3)", {"unit_sum": 1}),
    ("T4", "unit_group", _unit_group_summing_to(lambda r: r.zero), "GF(2)",
     {"unit_sum": 0, "expected": 1}),
    ("T6", "unit_group", _unit_group_summing_to(lambda r: r.one), "M(2,GF(2))",
     {"unit_sum": 9}),
    ("T6", "unit_first_column_classes", lambda r: {(1, 0): 3}, "M(2,GF(2))",
     {"first_column": [1, 0], "class_size": 3}),
    ("T7", "characteristic", lambda r: 4, "R2#0", {"characteristic": 4}),
    ("T7", "is_commutative", lambda r: False, "R2#0", {"commutative": False}),
    ("T7", "jacobson_radical",
     lambda r: RadicalSummary(members=[Elem(r, 0), Elem(r, r.one)], is_zero=False),
     "R2#0", {"radical": [0, 1]}),
    ("T8", "unit_group", _unit_group_summing_to(lambda r: r.zero), "UT(2,Z(2))",
     {"unit_sum": 0, "expected": 2}),
], ids=["T1-commutative", "T1-units", "T2-unit_sum", "T4-unit_sum", "T6-unit_sum",
        "T6-first_column", "T7-characteristic", "T7-commutative", "T7-radical", "T8-unit_sum"])
def test_each_claim_reports_its_witness(monkeypatch, cid, name, fake, ring, witness):
    # an analysis function read wrong in the claim gives the first ring its
    # witness, and the recheck, which scans the ring, refutes the report
    monkeypatch.setattr(theorems, name, fake)
    report = run_check(cid, max_order=2)
    assert not report.passed
    assert report.counterexample["ring"] == ring
    assert report.counterexample["witness"] == witness
    assert recheck_counterexample(report) is False


def test_t7_premise_sanity_stops_a_premise_that_admits_ut2(monkeypatch):
    # a unit count that reads 1 everywhere lets UT(2,Z(2)) through the
    # trivial-unit premise; T7 then fails on that one ring before scanning
    # its population, and the recheck, which scans the units, refutes it
    monkeypatch.setattr(theorems, "unit_count", lambda r: 1)
    report = run_check("T7", max_order=4)
    assert not report.passed
    assert report.population == "premise sanity" and report.population_count == 1
    assert report.counterexample["ring"] == "UT(2,Z(2))"
    assert report.counterexample["witness"] == {
        "error": "UT(2,Z(2)) must not satisfy the trivial-unit premise"}
    assert recheck_counterexample(report) is False


def test_recheck_without_serialization_cannot_be_refuted():
    ce = {"ring": "lost", "witness": {}}
    assert recheck_counterexample(_fake_report("T2", ce)) is True


def test_recheck_refutes_reports_whose_witness_agrees():
    # each of these claims holds on its ring, so its own recheck refutes the report
    ut2 = make_triangular_ring(2, make_zn(2))
    cases = [
        ("T8", ut2, {"unit_count": 2, "expected": 2}),
        ("T4", make_gf(4), {"unit_sum": 0, "expected": 0}),
        ("T6", make_matrix_ring(2, make_gf(2)), {"unit_count": 6}),
    ]
    for cid, r, witness in cases:
        ce = {"ring": r.name, "witness": witness, "serialization": _snapshot(r)}
        report = _fake_report(cid, ce)
        assert recheck_counterexample(report) is False, cid


# Every check's printed description and population text, frozen.
DESCRIPTIONS = {
    "T1": "Every boolean ring has characteristic 2, is commutative, and its only unit is 1.",
    "T2": "In a ring of characteristic other than 2, negation pairs the units without "
          "fixed points, so the units sum to 0.",
    "T3": "A ring of characteristic other than 2 has an even number of units.",
    "T4": "A field with q elements has q-1 units; they sum to 1 when q = 2 and to 0 "
          "otherwise, and the geometric sum of a primitive element agrees.",
    "T5": "The closed product formula for the number of invertible n-by-n matrices "
          "over GF(q) matches a brute-force count.",
    "T6": "Over a characteristic-2 field, the invertible n-by-n matrices (n >= 2) are "
          "even in number and sum to 0; each first-column class has even size.",
    "T7": "A finite ring with 1 whose only unit is 1 is boolean — hence of "
          "characteristic 2 and commutative — and its radical is zero.",
    "T8": "UT_n(Z_2) has exactly 2^((n-1)n/2) units; they sum to the single "
          "off-diagonal matrix E_12 when n = 2 and to 0 for n >= 3.",
    "T9": "For every ring in the population, the quotient by its radical has zero "
          "radical (the quotient is semisimple).",
}


def _populations(k, scanned, scanned_t7, scanned_t9):
    enumerated = f"standard families and all enumerated rings of order <= {k}"
    return {
        "T1": f"boolean rings among the {enumerated} ({scanned} rings scanned)",
        "T2": f"{enumerated}, restricted to characteristic != 2 ({scanned} rings scanned)",
        "T3": f"{enumerated}, restricted to characteristic != 2 ({scanned} rings scanned)",
        "T4": "fields GF(q) for q in [2, 3, 4, 5, 7, 8, 9, 16, 25, 27]",
        "T5": "(n, q) instances [(1, 5), (2, 2), (2, 3), (2, 4), (3, 2)]",
        "T6": "matrix rings M(n, GF(q)) for (n, q) in [(2, 2), (3, 2), (2, 4)]",
        "T7": f"all enumerated rings of order <= {k} (raw and one per isomorphism class) "
              f"plus the boolean products B(k), k <= 6, restricted to trivial unit group "
              f"({scanned_t7} rings scanned)",
        "T8": "triangular rings UT(n, Z(2)) for n in [2, 3, 4]",
        "T9": f"standard families and one ring per isomorphism class of order <= {k} "
              f"({scanned_t9} rings scanned)",
    }


def test_report_texts_pinned(reports):
    assert {r.check_id: r.description for r in reports} == DESCRIPTIONS
    assert {r.check_id: r.population for r in reports} == _populations(8, 633, 607, 72)
    shallow = run_all(4)
    assert {r.check_id: r.description for r in shallow} == DESCRIPTIONS
    assert {r.check_id: r.population for r in shallow} == _populations(4, 69, 29, 58)


def test_recheck_refutes_claims_that_hold():
    # doctored reports naming rings on which each claim holds: the scan-only
    # recheck must not confirm them
    gf4 = make_gf(4)
    ut2, ut3, ut4 = (make_triangular_ring(n, make_zn(2)) for n in (2, 3, 4))
    e12 = ut2.from_entries([0, 1, 0, 0])
    cases = [
        ("T3", make_zn(9), {"unit_count": 7}),
        ("T4", gf4, {"unit_sum": 1, "expected": 0}),
        ("T4", gf4, {"geometric_sum": 1, "expected": 0}),
        ("T6", make_matrix_ring(2, make_gf(2)), {"unit_sum": 1}),
        ("T8", ut2, {"unit_count": 3, "expected": 2}),
        ("T8", ut2, {"unit_sum": 0, "expected": e12}),
        ("T8", ut3, {"unit_count": 7, "expected": 8}),
        ("T8", ut3, {"unit_sum": 5, "expected": 0}),
        ("T8", ut4, {"unit_count": 63, "expected": 64}),
        ("T9", ut2, {"radical": [0, e12], "quotient_radical": [0, 1]}),
    ]
    for cid, r, witness in cases:
        ce = {"ring": r.name, "witness": witness, "serialization": _snapshot(r)}
        assert recheck_counterexample(_fake_report(cid, ce)) is False, (cid, witness)


def test_t9_recheck_does_not_call_the_radical_it_rechecks(monkeypatch):
    # the recheck must stand on its own scans, or it could never refute a
    # fault in the production radical
    cases = [make_zn(4), make_triangular_ring(2, make_zn(2)),
             make_matrix_ring(2, make_zn(4))]
    snapshots = [(r.name, _snapshot(r)) for r in cases]

    def refuse(r):
        raise AssertionError(f"jacobson_radical({r.name}) called by the T9 recheck")
    monkeypatch.setattr(theorems, "jacobson_radical", refuse)
    monkeypatch.setattr(analysis, "jacobson_radical", refuse)
    for name, text in snapshots:
        ce = {"ring": name, "witness": {"radical": [0], "quotient_radical": [0, 1]},
              "serialization": text}
        assert recheck_counterexample(_fake_report("T9", ce)) is False, name


def test_t8_recheck_ignores_the_witness():
    # the T8 recheck takes n from the order and its expectation from the
    # claim: a doctored witness cannot turn UT(2,Z(2)) into a violation,
    # while a ring of that order with other units stays one
    ut2 = make_triangular_ring(2, make_zn(2))
    for witness in ({"unit_count": 2, "expected": 3}, {}, {"unit_sum": 2, "expected": 0}):
        ce = {"ring": ut2.name, "witness": witness, "serialization": _snapshot(ut2)}
        assert recheck_counterexample(_fake_report("T8", ce)) is False, witness
    for r, violated in ((make_zn(8), True), (make_gf(8), True), (make_zn(4), False)):
        ce = {"ring": r.name, "witness": {}, "serialization": _snapshot(r)}
        assert recheck_counterexample(_fake_report("T8", ce)) is violated, r.name


def test_units_by_scan_table_route_matches_inverse_scan():
    ut2 = make_triangular_ring(2, make_zn(2))
    rings = [make_zn(12), ut2, make_matrix_ring(2, make_gf(2)),
             quotient_ring(make_zn(12), [0, 4, 8]), quotient_ring(ut2, [0, 2])]
    for r in rings:
        expected = [x for x in range(r.order) if inverse_by_scan(r, x) is not None]
        assert theorems._units_by_scan(r) == expected, r.name
    with pytest.raises(BudgetError):
        theorems._units_by_scan(make_zn(TABLE_CAP + 1))


def _first_premise_item(spec, max_order):
    items, _, _ = spec.population(max_order, None, {})
    return next((name, r) for name, r in items if spec.premise is None or spec.premise(r))


@pytest.mark.parametrize("cid", CHECK_IDS)
def test_run_check_builds_every_counterexample(monkeypatch, cid):
    # a claim that fails everywhere: run_check names the first ring passing
    # the premise, serializes it, and the recheck refutes the doctored report
    spec = theorems.CHECKS[cid]
    monkeypatch.setitem(theorems.CHECKS, cid,
                        dataclasses.replace(spec, claim=lambda r: {"doctored": True}))
    report = run_check(cid, max_order=4)
    assert not report.passed and report.population_count == 1
    name, ring = _first_premise_item(spec, 4)
    ce = report.counterexample
    assert ce == {"ring": name, "witness": {"doctored": True},
                  "serialization": serialize_table_ring(ring)}
    assert recheck_counterexample(report) is False


def _claim_witness_with_identity_quotient(monkeypatch, r):
    # T9's claim holds on every ring; with R/J(R) read as R it reports Z(4)
    with monkeypatch.context() as m:
        m.setattr(theorems, "quotient_ring", lambda ring, members, name=None: ring)
        return theorems.CHECKS["T9"].claim(r)


def test_rechecks_ignore_the_witness(monkeypatch):
    # each claim run on a ring outside its premise or population gives a
    # witness; the recheck's verdict on the ring is the same under that
    # witness, an empty one and a junk one
    cases = {
        "T1": (make_zn(3), False),
        "T2": (make_zn(2), False),
        "T3": (make_zn(2), False),
        "T4": (make_zn(4), True),
        "T5": (make_matrix_ring(2, make_zn(4)), True),
        "T6": (make_matrix_ring(1, make_gf(2)), True),
        "T7": (make_zn(3), False),
        "T8": (make_triangular_ring(2, make_zn(3)), False),
        "T9": (make_zn(4), False),
    }
    assert set(cases) == set(CHECK_IDS)
    for cid, (r, stands) in cases.items():
        if cid == "T9":
            own = _claim_witness_with_identity_quotient(monkeypatch, r)
        else:
            own = theorems.CHECKS[cid].claim(r)
        assert own, cid
        text = _snapshot(r)
        for witness in ({}, {"junk": [1, 2, 3], "n": 7, "q": 11}, own):
            ce = {"ring": r.name, "witness": witness, "serialization": text}
            assert recheck_counterexample(_fake_report(cid, ce)) is stands, (cid, witness)
