"""Acceptance gate: ten end-to-end criteria with stated runtime bounds.

Every criterion is self-contained (no shared fixtures), prints exactly
one PASS/FAIL line — visible even under pytest's output capture — and
fails the run on any violated claim or exceeded time bound.  All
arithmetic claims are exact: the tolerance is equality.
"""

import random
import time

from finring import (
    ParseError,
    canonical_form,
    characteristic,
    enumerate_unital_rings,
    gl_order,
    is_boolean,
    is_commutative,
    jacobson_radical,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_triangular_ring,
    make_zn,
    parse_ring_expr,
    pretty_expr,
    quotient_ring,
    unit_census,
    unit_count,
    unit_first_column_classes,
    unit_group,
)
from finring.expr import BExpr, GFExpr, MExpr, ProdExpr, UTExpr, ZnExpr


def _verdict(capsys, cid, desc, elapsed, failures, bound=None):
    ok = not failures and (bound is None or elapsed < bound)
    limit = f" of {bound:g}s" if bound is not None else ""
    with capsys.disabled():
        print(f"\n{cid} {'PASS' if ok else 'FAIL'}  {desc}  [{elapsed:.2f}s{limit}]")
    assert not failures, f"{cid}: " + "; ".join(failures[:5])
    if bound is not None:
        assert elapsed < bound, f"{cid}: {elapsed:.2f}s exceeded the {bound:g}s bound"


def test_criterion_01_field_unit_sums(capsys):
    started = time.perf_counter()
    failures = []
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        f = make_gf(q)
        count, total = unit_census(f)
        if count != q - 1:
            failures.append(f"GF({q}): unit count {count}, expected {q - 1}")
        expected = f.one if q == 2 else f.zero
        if total.index != expected:
            failures.append(f"GF({q}): unit sum index {total.index}, expected {expected}")
    _verdict(capsys, "C1", "field unit sums over ten field sizes",
             time.perf_counter() - started, failures, bound=1.0)


def test_criterion_02_gl_order_formula_vs_brute(capsys):
    started = time.perf_counter()
    failures = []
    for (n, q), expected in zip(((1, 5), (2, 2), (2, 3), (2, 4), (3, 2)),
                                (4, 6, 48, 180, 168)):
        formula = gl_order(n, q)
        brute = unit_count(make_matrix_ring(n, make_gf(q)))
        if not (formula == brute == expected):
            failures.append(
                f"GL({n},{q}): formula {formula}, brute {brute}, expected {expected}")
    _verdict(capsys, "C2", "GL order formula matches brute-force counts",
             time.perf_counter() - started, failures, bound=5.0)


def test_criterion_03_matrix_unit_sums(capsys):
    started = time.perf_counter()
    failures = []
    for n, q in ((2, 2), (3, 2), (2, 4)):
        m = make_matrix_ring(n, make_gf(q))
        count, total = unit_census(m)
        if count % 2 != 0:
            failures.append(f"M({n},GF({q})): odd unit count {count}")
        if total.index != m.zero:
            failures.append(f"M({n},GF({q})): unit sum {total.pretty()} != 0")
    for q in (2, 4):
        m = make_matrix_ring(2, make_gf(q))
        classes = unit_first_column_classes(m)
        if sum(classes.values()) != unit_count(m):
            failures.append(f"M(2,GF({q})): classes do not partition the units")
        odd = {col: size for col, size in classes.items() if size % 2 != 0}
        if odd:
            failures.append(f"M(2,GF({q})): odd first-column classes {odd}")
    _verdict(capsys, "C3", "matrix unit sums vanish; unit classes all even",
             time.perf_counter() - started, failures, bound=30.0)


def test_criterion_04_triangular_family(capsys):
    started = time.perf_counter()
    failures = []
    ut2 = make_triangular_ring(2, make_zn(2))
    summary = unit_group(ut2)
    got = {u.pretty() for u in summary.units}
    if got != {"[[1,0],[0,1]]", "[[1,1],[0,1]]"}:
        failures.append(f"UT_2(Z_2): units {sorted(got)}")
    if summary.sum.pretty() != "[[0,1],[0,0]]":
        failures.append(f"UT_2(Z_2): unit sum {summary.sum.pretty()}")
    for n, expected in ((3, 8), (4, 64)):
        ut = make_triangular_ring(n, make_zn(2))
        count, total = unit_census(ut)
        if count != expected:
            failures.append(f"UT_{n}(Z_2): unit count {count}, expected {expected}")
        if total.index != ut.zero:
            failures.append(f"UT_{n}(Z_2): unit sum {total.pretty()} != 0")
    _verdict(capsys, "C4", "triangular unit groups and sums",
             time.perf_counter() - started, failures, bound=10.0)


def test_criterion_05_main_theorem_exhaustive(capsys):
    started = time.perf_counter()
    failures = []
    checked = 0
    for order in range(2, 9):
        for up_to_iso in (False, True):
            for r in enumerate_unital_rings(order, up_to_iso=up_to_iso):
                if unit_count(r) != 1:
                    continue
                checked += 1
                tag = f"{r.name}{'/iso' if up_to_iso else ''}"
                if not is_boolean(r):
                    failures.append(f"{tag}: trivial units but not boolean")
                if characteristic(r) != 2:
                    failures.append(f"{tag}: characteristic {characteristic(r)} != 2")
                if not is_commutative(r):
                    failures.append(f"{tag}: not commutative")
                if not jacobson_radical(r).is_zero:
                    failures.append(f"{tag}: nonzero radical")
    if checked == 0:
        failures.append("no ring with a trivial unit group was scanned")
    _verdict(capsys, "C5",
             f"trivial units force boolean/char 2/commutative/J=0 "
             f"({checked} premise rings, raw and up-to-iso, order <= 8)",
             time.perf_counter() - started, failures, bound=600.0)


def test_criterion_06_order_4_classification(capsys):
    started = time.perf_counter()
    failures = []
    forward = list(enumerate_unital_rings(4, up_to_iso=True))
    if len(forward) != 4:
        failures.append(f"{len(forward)} classes of order 4, expected 4")
    signatures = {(characteristic(r), unit_count(r), is_boolean(r)) for r in forward}
    expected = {(4, 2, False), (2, 2, False), (2, 1, True), (2, 3, False)}
    if signatures != expected:
        failures.append(f"signature set {sorted(signatures)}")
    reverse = list(enumerate_unital_rings(4, up_to_iso=True, search_order="reversed"))
    if ({canonical_form(r) for r in forward} != {canonical_form(r) for r in reverse}):
        failures.append("forward and reversed search orders disagree")
    _verdict(capsys, "C6", "order-4 classification and dual search orders",
             time.perf_counter() - started, failures)


def test_criterion_07_radical_correctness(capsys):
    started = time.perf_counter()
    failures = []
    oracles = [
        (make_zn(4), [0, 2]),
        (make_zn(6), [0]),
        (make_triangular_ring(2, make_zn(2)), [0, 2]),  # {0, E_12}
    ] + [(make_gf(q), [0]) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)]
    for r, expected in oracles:
        got = [e.index for e in jacobson_radical(r).members]
        if got != expected:
            failures.append(f"J({r.name}) = {got}, expected {expected}")
    population = (
        [make_zn(n) for n in range(2, 31)]
        + [make_gf(q) for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27)]
        + [make_boolean(k) for k in range(1, 7)]
        + [make_matrix_ring(n, make_gf(q)) for n, q in ((2, 2), (2, 3), (2, 4), (3, 2))]
        + [make_triangular_ring(n, make_zn(2)) for n in (2, 3, 4)]
        + [r for order in range(2, 9)
           for r in enumerate_unital_rings(order, up_to_iso=True)]
    )
    for r in population:
        members = [e.index for e in jacobson_radical(r).members]
        if not jacobson_radical(quotient_ring(r, members)).is_zero:
            failures.append(f"J({r.name}/J) != 0")
    _verdict(capsys, "C7",
             f"radical oracles; J(R/J(R)) = 0 on {len(population)} population rings",
             time.perf_counter() - started, failures, bound=10.0)


def test_criterion_08_odd_characteristic_pairing(capsys):
    started = time.perf_counter()
    failures = []
    population = [make_zn(n) for n in range(3, 31)]
    population += [r for order in range(2, 9)
                   for r in enumerate_unital_rings(order)
                   if characteristic(r) != 2]
    scanned = 0
    for r in population:
        if characteristic(r) == 2:
            continue
        scanned += 1
        summary = unit_group(r)
        if summary.count % 2 != 0:
            failures.append(f"{r.name}: odd unit count {summary.count}")
        if summary.sum.index != r.zero:
            failures.append(f"{r.name}: unit sum {summary.sum.index} != 0")
        self_negative = [u.index for u in summary.units if r.neg(u.index) == u.index]
        if self_negative:
            failures.append(f"{r.name}: self-negative units {self_negative}")
    _verdict(capsys, "C8",
             f"char != 2 forces even unit count, zero sum, no self-negative "
             f"unit ({scanned} rings)",
             time.perf_counter() - started, failures, bound=30.0)


def test_criterion_09_boolean_family(capsys):
    started = time.perf_counter()
    failures = []
    for k in range(1, 7):
        b = make_boolean(k)
        if not is_boolean(b):
            failures.append(f"B({k}): not boolean")
        if characteristic(b) != 2:
            failures.append(f"B({k}): characteristic {characteristic(b)}")
        if not is_commutative(b):
            failures.append(f"B({k}): not commutative")
        if unit_count(b) != 1:
            failures.append(f"B({k}): unit count {unit_count(b)}")
    _verdict(capsys, "C9", "boolean family B(1)..B(6)",
             time.perf_counter() - started, failures, bound=1.0)


def _random_ast(depth, rng):
    leaves = [
        lambda: ZnExpr(rng.randint(1, 30)),
        lambda: GFExpr(rng.choice([2, 3, 4, 5, 7, 8, 9])),
        lambda: BExpr(rng.randint(1, 6)),
    ]
    if depth <= 0:
        return rng.choice(leaves)()
    picks = leaves + [
        lambda: MExpr(rng.randint(1, 3), _random_ast(depth - 1, rng)),
        lambda: UTExpr(rng.randint(1, 3), _random_ast(depth - 1, rng)),
        lambda: ProdExpr(tuple(_random_ast(depth - 1, rng)
                               for _ in range(rng.randint(1, 3)))),
    ]
    return rng.choice(picks)()


def test_criterion_10_parser_round_trip(capsys):
    started = time.perf_counter()
    failures = []
    grammar = {
        "M(2, GF(4))": MExpr(2, GFExpr(4)),
        "Z(2) x Z(2) x Z(2)": ProdExpr((ZnExpr(2), ZnExpr(2), ZnExpr(2))),
        "Prod(Z(2),Z(3))": ProdExpr((ZnExpr(2), ZnExpr(3))),
        "UT(3,Z(2))": UTExpr(3, ZnExpr(2)),
        "B(3)": BExpr(3),
    }
    for text, expected in grammar.items():
        got = parse_ring_expr(text)
        if got != expected:
            failures.append(f"{text!r} parsed to {got!r}")
    for text, column in (("Z(2", 4), ("Q(2)", 1), ("Z(0)", 3), ("", 1), ("Z(2))", 5)):
        try:
            parse_ring_expr(text)
            failures.append(f"{text!r}: no parse error raised")
        except ParseError as exc:
            if exc.column != column:
                failures.append(f"{text!r}: error column {exc.column}, expected {column}")
    rng = random.Random(1729)
    for i in range(1000):
        ast = _random_ast(rng.randint(0, 4), rng)
        text = pretty_expr(ast)
        if parse_ring_expr(text) != ast:
            failures.append(f"round-trip #{i} failed for {text!r}")
            break
    _verdict(capsys, "C10", "parser grammar, error columns, 1000 random round-trips",
             time.perf_counter() - started, failures)
