"""Structural analysis: characteristic, units, radical, field structure."""

import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census_oracle
from finring import analysis, cli, rings, theorems
from finring import (
    BudgetError,
    ConstructionError,
    characteristic,
    enumerate_unital_rings,
    gl_order,
    inverse_by_scan,
    inverse_index,
    is_boolean,
    is_commutative,
    is_division_ring,
    is_unit,
    jacobson_radical,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_product,
    make_table_ring,
    make_triangular_ring,
    make_zn,
    parse_ring,
    multiplicative_order,
    primitive_element,
    quotient_ring,
    unit_census,
    unit_count,
    unit_first_column_classes,
    unit_group,
    unit_sum,
)


def matrix_inverse_row_reduce(r, a):
    """Oracle: inverse by Gauss-Jordan elimination over a field base.

    An independent second route to invertibility: it never consults the
    determinant, so agreement with `inverse_index` (det^-1 * adj) is a
    real check.
    """
    base, n = r.base, r.n
    assert isinstance(r, rings.MatrixRing) and analysis._field_like(base)
    es = r.entries(a)
    left = [list(es[i * n:(i + 1) * n]) for i in range(n)]
    right = [[base.one if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((row for row in range(col, n) if left[row][col] != 0), None)
        if pivot is None:
            return None
        left[col], left[pivot] = left[pivot], left[col]
        right[col], right[pivot] = right[pivot], right[col]
        pinv = inverse_index(base, left[col][col])
        left[col] = [base.mul(pinv, v) for v in left[col]]
        right[col] = [base.mul(pinv, v) for v in right[col]]
        for row in range(n):
            if row == col or left[row][col] == 0:
                continue
            c = left[row][col]
            left[row] = [base.sub(u, base.mul(c, v)) for u, v in zip(left[row], left[col])]
            right[row] = [base.sub(u, base.mul(c, v)) for u, v in zip(right[row], right[col])]
    return r.from_entries([v for row in right for v in row])


def matrix_determinant(base, entries, n):
    """Determinant by cofactor expansion, one base-ring call at a time: the
    scalar reference for the stream oracle's row-batched `determinants`."""
    es = list(entries)

    def det(rows, cols):
        if len(rows) == 1:
            return es[rows[0] * n + cols[0]]
        total = 0
        for t, c in enumerate(cols):
            entry = es[rows[0] * n + c]
            if entry == 0:
                continue
            term = base.mul(entry, det(rows[1:], cols[:t] + cols[t + 1:]))
            total = base.add(total, term if t % 2 == 0 else base.neg(term))
        return total

    return det(tuple(range(n)), tuple(range(n)))


# ---------------------------------------------------------------------------
# characteristic


@pytest.mark.parametrize("build, want", [
    (lambda: make_zn(1), 1),
    (lambda: make_zn(12), 12),
    (lambda: make_gf(8), 2),
    (lambda: make_gf(27), 3),
    (lambda: make_product([make_zn(4), make_zn(6)]), 12),   # lcm
    (lambda: make_matrix_ring(2, make_zn(3)), 3),
    (lambda: make_triangular_ring(2, make_zn(4)), 4),
    (lambda: make_boolean(5), 2),
])
def test_characteristic(build, want):
    assert characteristic(build()) == want


def _characteristic_by_steps(r):
    """Oracle: add one to itself until the sum is zero."""
    acc, k = r.one, 1
    while acc != r.zero:
        acc, k = r.add(acc, r.one), k + 1
    return k


def test_characteristic_matches_the_stepwise_oracle(enum_raw):
    # prime by prime against one step at a time: every pinned structural
    # ring and every raw ring of order <= 8
    rs = [parse_ring(e) for e in _structural_cases()]
    rs += [r for n in sorted(enum_raw) for r in enum_raw[n]]
    for r in rs:
        assert characteristic(r) == _characteristic_by_steps(r), r.name


def test_characteristic_reads_one_prime_at_a_time(monkeypatch):
    # Z(1000) x Z(999) has characteristic 999000: a few hundred adds, not one per step
    calls = []
    add = rings.ProductRing.add
    monkeypatch.setattr(rings.ProductRing, "add", lambda s, a, b: calls.append(1) or add(s, a, b))
    assert characteristic(parse_ring("Z(1000) x Z(999)")) == 999000
    assert len(calls) < 500


# ---------------------------------------------------------------------------
# commutativity and booleanness


def test_is_commutative():
    assert is_commutative(make_zn(12))
    assert is_commutative(make_gf(16))
    assert is_commutative(make_product([make_zn(4), make_gf(4)]))
    assert is_commutative(make_matrix_ring(1, make_gf(4)))      # 1x1 is the base
    assert not is_commutative(make_matrix_ring(2, make_gf(2)))
    assert not is_commutative(make_triangular_ring(2, make_zn(2)))
    assert is_commutative(make_triangular_ring(1, make_zn(6)))


def test_commutativity_on_explicit_tables():
    z6 = make_zn(6)
    add, mul = z6.tables()
    assert is_commutative(make_table_ring(add, mul))


def test_is_boolean():
    assert is_boolean(make_zn(2))
    assert is_boolean(make_boolean(6))
    assert not is_boolean(make_zn(4))
    assert not is_boolean(make_gf(4))
    assert not is_boolean(make_gf(8))


def test_boolean_implies_trivial_units():
    for k in range(1, 7):
        b = make_boolean(k)
        ug = unit_group(b)
        assert ug.count == 1 and ug.units[0].index == b.one


# ---------------------------------------------------------------------------
# inverses: three independent routes agree


@pytest.mark.parametrize("build", [
    lambda: make_zn(12),
    lambda: make_gf(9),
    lambda: make_matrix_ring(2, make_zn(2)),
    lambda: make_matrix_ring(2, make_gf(2)),
    lambda: make_triangular_ring(2, make_zn(2)),
    lambda: make_product([make_zn(4), make_zn(3)]),
])
def test_inverse_routes_agree(build):
    r = build()
    for x in range(r.order):
        direct = inverse_index(r, x)
        scanned = inverse_by_scan(r, x)
        assert direct == scanned, (r.name, x)
        if direct is not None:
            assert r.mul(x, direct) == r.one and r.mul(direct, x) == r.one


def test_row_reduce_route_on_field_matrices():
    m = make_matrix_ring(2, make_gf(4))
    rng = random.Random(7)
    sample = rng.sample(range(m.order), 64)
    for x in sample:
        assert matrix_inverse_row_reduce(m, x) == inverse_index(m, x)


def test_is_unit_returns_elem():
    z = make_zn(10)
    inv = is_unit(z, 7)
    assert inv is not None and inv.index == 3
    assert is_unit(z, 5) is None
    assert is_unit(z, z.element(9)).index == 9


# ---------------------------------------------------------------------------
# unit groups: frozen values


def test_unit_group_zn12():
    ug = unit_group(make_zn(12))
    assert sorted(u.index for u in ug.units) == [1, 5, 7, 11]
    assert ug.count == 4 and ug.sum.index == 0
    assert ug.closure_verified


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16, 25, 27])
def test_field_unit_groups(q):
    f = make_gf(q)
    ug = unit_group(f)
    assert ug.count == q - 1
    assert ug.sum.index == (f.one if q == 2 else f.zero)


def test_unit_group_m2_gf2():
    m = make_matrix_ring(2, make_gf(2))
    ug = unit_group(m)
    assert ug.count == 6
    assert ug.sum.index == m.zero


def test_unit_group_calls_no_inverse_route(monkeypatch):
    # the radical reads no units, and the unit group reads its units and
    # their inverses from the table alone: neither the adjugate inverse nor
    # inverse_index runs, on a matrix ring or on the others
    calls = []
    monkeypatch.setattr(analysis, "_matrix_inverse", lambda r, a: calls.append(r))
    monkeypatch.setattr(analysis, "inverse_index", lambda r, a: calls.append(r))
    m = make_matrix_ring(2, make_gf(2))
    assert jacobson_radical(m).is_zero
    assert unit_group(m).count == 6
    assert unit_group(make_zn(12)).count == 4
    assert unit_group(parse_ring("Z(4) x GF(4)")).count == 6
    assert calls == []


def _scan_inverses(r):
    """`inverse_by_scan` for every element at once: the first y with
    a*y = y*a = one, read from the dense table, or -1."""
    is_one = r.tables()[1] == r.one
    both = is_one & is_one.T
    return np.where(both.any(axis=1), np.argmax(both, axis=1), -1).tolist()


@pytest.mark.parametrize("expr", ["M(2,Z(4))", "M(2,Z(6))", "UT(3,Z(4))", "M(1,Z(6))"])
def test_matrix_inverses_match_the_scan(expr):
    r = parse_ring(expr)
    got = [-1 if v is None else v for v in (inverse_index(r, a) for a in range(r.order))]
    assert got == _scan_inverses(r)
    if r.order <= 256:  # the scalar scan itself, where it is quick
        scanned = (inverse_by_scan(r, a) for a in range(r.order))
        assert got == [-1 if v is None else v for v in scanned]


@pytest.mark.parametrize("expr", ["M(2,GF(4))", "M(3,GF(2))", "UT(3,GF(4))"])
def test_matrix_inverses_match_row_reduction(expr):
    r = parse_ring(expr)
    want = [matrix_inverse_row_reduce(r, a) for a in range(r.order)]
    assert [inverse_index(r, a) for a in range(r.order)] == want


def test_matrix_inverse_edges_above_the_table_cap():
    # one inverse reads no base table, so bases above the cap invert:
    # GF(8192) for n = 2 and GF(4099) for n = 1
    m = parse_ring("M(2,GF(8192))")
    assert inverse_index(m, 5) is None  # one nonzero entry: determinant 0
    x = m.from_entries([5, 1, 0, 7])
    inv = is_unit(m, x)
    assert inv is not None and m.mul(x, inv.index) == m.mul(inv.index, x) == m.one
    m = parse_ring("M(1,GF(4099))")
    inv = is_unit(m, 5)
    assert inv is not None and m.mul(5, inv.index) == m.one


@pytest.mark.parametrize("expr", ["M(2,GF(4096))", "M(3,GF(8192))"])
def test_matrix_inverse_builds_no_base_table(expr):
    # det^-1 * adj runs on the base ring's scalar operations: seeded samples
    # and one singular matrix agree with row reduction, each inverse is
    # two-sided, and the base never builds its tables
    r = parse_ring(expr)
    rng = random.Random(5)
    rows = [[rng.randrange(r.base.order) for _ in range(r.cells)] for _ in range(12)]
    rows.append(rows[0][:r.n] * r.n)  # every row the same
    for es in rows:
        x = r.from_entries(es)
        inv = is_unit(r, x)
        assert (None if inv is None else inv.index) == matrix_inverse_row_reduce(r, x), es
        if inv is not None:
            assert r.mul(x, inv.index) == r.mul(inv.index, x) == r.one, es
    assert is_unit(r, r.from_entries(rows[-1])) is None
    assert r.base._tables is None


def test_unit_census_matches_unit_group():
    for build in (lambda: make_zn(30), lambda: make_matrix_ring(2, make_zn(4)),
                  lambda: make_triangular_ring(3, make_zn(2))):
        r = build()
        ug = unit_group(r)
        count, total = unit_census(r)
        assert (count, total.index) == (ug.count, ug.sum.index)
        assert unit_count(r) == count and unit_sum(r).index == total.index


def test_structural_census_above_table_cap():
    # M_2(Z_10) has 10^4 elements; |GL_2(Z_10)| = |GL_2(Z_2)|*|GL_2(Z_5)| = 6*480
    m = make_matrix_ring(2, make_zn(10))
    count, total = unit_census(m)
    assert count == 2880
    assert total.index == m.zero  # negation pairs the units (char 10)
    # UT_5(Z_2) has 2^15 elements and 2^10 units summing to 0
    t = make_triangular_ring(5, make_zn(2))
    count, total = unit_census(t)
    assert count == 2 ** 10 and total.index == t.zero


def test_census_answers_a_big_product_structurally():
    # phi(5000) * phi(3) units; each factor's units sum to 0
    big = make_product([make_zn(5000), make_zn(3)])
    count, total = unit_census(big)
    assert (count, total.index) == (4000, 0)


def test_first_column_classes_gl2():
    m = make_matrix_ring(2, make_gf(2))
    classes = unit_first_column_classes(m)
    assert sorted(classes.values()) == [2, 2, 2]
    assert sum(classes.values()) == 6
    with pytest.raises(ConstructionError):
        unit_first_column_classes(make_zn(6))


def test_is_division_ring():
    assert is_division_ring(make_gf(8))
    assert is_division_ring(make_zn(7))
    assert not is_division_ring(make_zn(6))
    assert not is_division_ring(make_matrix_ring(2, make_gf(2)))
    assert not is_division_ring(make_zn(1))


# ---------------------------------------------------------------------------
# the GL order formula


def test_gl_order_frozen_values():
    assert gl_order(1, 5) == 4
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(2, 4) == 180
    assert gl_order(3, 2) == 168


def test_gl_order_validation():
    with pytest.raises(ConstructionError):
        gl_order(2, 6)  # not a prime power
    with pytest.raises(ConstructionError):
        gl_order(0, 2)


def test_gl_order_matches_brute_force_spot():
    m = make_matrix_ring(2, make_gf(3))
    assert unit_count(m) == gl_order(2, 3)


# ---------------------------------------------------------------------------
# radical and semisimplicity


def test_radical_zn():
    assert sorted(e.index for e in jacobson_radical(make_zn(4)).members) == [0, 2]
    assert sorted(e.index for e in jacobson_radical(make_zn(8)).members) == [0, 2, 4, 6]
    assert sorted(e.index for e in jacobson_radical(make_zn(12)).members) == [0, 6]
    assert jacobson_radical(make_zn(6)).is_zero


def test_radical_squarings_reach_the_longest_nilpotent_index():
    # 2 has index 5 = log2 32 in Z(32), the bound's worst case: 2^3 >= 5
    # squarings find every even residue, while 2^2 would keep only the
    # multiples of 4
    members = sorted(e.index for e in jacobson_radical(make_zn(32)).members)
    assert members == list(range(0, 32, 2))


def test_radical_fields_and_matrices():
    for q in (2, 4, 9, 27):
        assert jacobson_radical(make_gf(q)).is_zero
    assert jacobson_radical(make_matrix_ring(2, make_gf(2))).is_zero


def test_radical_ut2():
    t = make_triangular_ring(2, make_zn(2))
    e12 = t.from_entries([0, 1, 0, 0])
    assert sorted(e.index for e in jacobson_radical(t).members) == sorted([0, e12])


def test_radical_is_ideal_and_quotient_semisimple():
    t = make_triangular_ring(3, make_zn(2))
    rad = jacobson_radical(t)
    assert len(rad.members) == 8  # strictly upper triangular part
    q = quotient_ring(t, rad.members)
    assert jacobson_radical(q).is_zero


def test_is_semisimple():
    # a finite ring is semisimple iff its radical is zero
    assert jacobson_radical(make_zn(6)).is_zero
    assert jacobson_radical(make_matrix_ring(2, make_gf(4))).is_zero
    assert not jacobson_radical(make_zn(4)).is_zero
    assert not jacobson_radical(make_triangular_ring(2, make_zn(2))).is_zero


# ---------------------------------------------------------------------------
# field structure


def test_primitive_element_gf4():
    f = make_gf(4)
    alpha = primitive_element(f)
    assert alpha.index == 2  # least encoding with full multiplicative order
    assert multiplicative_order(f, alpha) == 3


def test_primitive_element_gf9_order():
    f = make_gf(9)
    alpha = primitive_element(f)
    assert multiplicative_order(f, alpha) == 8


def test_primitive_element_prime_modular():
    z7 = make_zn(7)
    alpha = primitive_element(z7)
    assert alpha.index == 3  # least primitive root mod 7
    assert multiplicative_order(z7, alpha) == 6


def test_primitive_element_gf2():
    f = make_gf(2)
    assert primitive_element(f).index == f.one


def test_primitive_element_rejects_non_fields():
    with pytest.raises(ConstructionError):
        primitive_element(make_zn(6))
    with pytest.raises(ConstructionError):
        primitive_element(make_matrix_ring(2, make_gf(2)))


def test_multiplicative_order_edge_cases():
    z5 = make_zn(5)
    assert multiplicative_order(z5, 1) == 1
    assert multiplicative_order(z5, 4) == 2
    with pytest.raises(ConstructionError):
        multiplicative_order(make_zn(6), 2)  # not a unit


# ---------------------------------------------------------------------------
# property-based checks


@given(n=st.integers(2, 40))
@settings(max_examples=60, deadline=None)
def test_zn_unit_count_is_totient(n):
    from math import gcd
    expected = sum(1 for k in range(1, n) if gcd(k, n) == 1)
    assert unit_count(make_zn(n)) == expected


@given(q=st.sampled_from([4, 8, 9, 16, 25, 27]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_gf_multiplication_properties(q, data):
    f = make_gf(q)
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.mul(a, b) == f.mul(b, a)
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@given(n=st.integers(3, 30))
@settings(max_examples=40, deadline=None)
def test_odd_characteristic_unit_pairing(n):
    r = make_zn(n)
    if characteristic(r) == 2:
        return
    ug = unit_group(r)
    assert ug.count % 2 == 0
    assert ug.sum.index == 0
    for u in ug.units:
        assert r.neg(u.index) != u.index


# ---------------------------------------------------------------------------
# fast routes against their references


def _two_sided_radical(r):
    """{a : 1 - x*a*y is a unit for all x, y}, one candidate at a time
    (after the x = y = 1 prefilter), with the units of the theorem scans."""
    add, mul = r.tables()
    umask = np.zeros(r.order, dtype=bool)
    umask[theorems._units_by_scan(r)] = True
    one_minus = add[r.one][np.argmax(add == 0, axis=1)]
    return [a for a in range(r.order)
            if umask[one_minus[a]] and umask[one_minus[mul[mul[:, a]]]].all()]


def _radical_of_table_copy(r):
    """The members of J(r) as the nilpotency kernel reads them off r's tables.

    The copy skips `make_table_ring`'s axiom check, which takes about 2 s at
    order 4096: the tables of constructed rings are checked in test_rings.
    """
    copy = rings.TableRingStructure(*r.tables(), r.one, f"table({r.name})")
    return [e.index for e in jacobson_radical(copy).members]


def _radical_oracle_population(enum_raw):
    """Every ring of the T9 population (families and the rings of order <= 8),
    plus three larger matrix and triangular rings."""
    population = [r for _, r in theorems._family_population()]
    population += [r for n in sorted(enum_raw) for r in enum_raw[n]]
    return population + [parse_ring(e) for e in ("UT(4,Z(2))", "M(2,Z(4))", "M(3,GF(2))")]


def test_unit_group_inverses_match_the_independent_routes(enum_raw):
    # inverse_index (det^-1 * adj on matrix rings) inverts exactly the
    # units unit_group reads off the table, and each inverse it gives is
    # two-sided in the table
    for r in _radical_oracle_population(enum_raw):
        inverses = [inverse_index(r, a) for a in range(r.order)]
        pairs = [(a, v) for a, v in enumerate(inverses) if v is not None]
        assert [a for a, _ in pairs] == [u.index for u in unit_group(r).units], r.name
        mul = r.tables()[1]
        assert all(mul[a, v] == mul[v, a] == r.one for a, v in pairs), r.name


def test_nilpotency_radical_matches_two_sided_scan(enum_raw, monkeypatch):
    # a constructed ring reads its construction, and its table copy takes
    # the nilpotency kernel at orders up to 1024
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 16)  # several column blocks per ring
    for r in _radical_oracle_population(enum_raw):
        got = [e.index for e in jacobson_radical(r).members]
        assert got == _two_sided_radical(r), r.name
        if not isinstance(r, rings.TableRingStructure):
            assert _radical_of_table_copy(r) == got, r.name


def test_unit_count_factors_through_the_radical(enum_raw):
    # units lift modulo J and 1 + J lies in U, so |U(R)| = |J| * |U(R/J)|;
    # the radical reads no units, so the two sides are computed independently
    for r in _radical_oracle_population(enum_raw):
        members = [e.index for e in jacobson_radical(r).members]
        assert unit_count(r) == len(members) * unit_count(quotient_ring(r, members)), r.name


@pytest.mark.parametrize("expr, size", [("GF(4096)", 1), ("M(2,GF(8))", 1),
                                        ("UT(3,GF(4))", 64), ("Z(4096)", 2048), ("B(12)", 1)])
def test_radical_at_the_table_cap_matches_the_one_sided_scan(expr, size):
    r = parse_ring(expr)
    assert r.order == rings.TABLE_CAP
    got = [e.index for e in jacobson_radical(r).members]
    assert got == theorems._radical_by_scan(r) == _radical_of_table_copy(r)
    assert len(got) == size
    if expr.startswith("UT"):  # J(UT(3,GF(4))) is the strictly upper part
        assert got == [x for x in range(r.order) if not any(r.entries(x)[::r.n + 1])]


def _scalar_census(r):
    """(unit count, unit sum, first-column class sizes), one element at a time."""
    base, n = r.base, r.n
    count, sums, classes = 0, [0] * r.cells, {}
    for x in range(r.order):
        es = r.entries(x)
        if inverse_index(base, matrix_determinant(base, es, n)) is None:
            continue
        count += 1
        sums = [base.add(s, e) for s, e in zip(sums, es)]
        col = tuple(es[i * n] for i in range(n))
        classes[col] = classes.get(col, 0) + 1
    return count, r.from_entries(sums), classes


@pytest.mark.parametrize("expr", ["M(2,Z(4))", "M(2,GF(3))", "UT(3,GF(4))", "UT(3,Z(4))",
                                  "UT(2,Z(2))", "M(1,Z(2))"])
def test_block_census_matches_scalar_loop(expr, monkeypatch):
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 64)  # unit_group in several row blocks
    r = parse_ring(expr)
    count, total, classes = _scalar_census(r)
    census = analysis._triangular_census if r.kind == "triangular" else census_oracle.stream_units
    assert census(r) == (count, total)
    assert (count, total) == (unit_group(r).count, unit_group(r).sum.index)
    if r.kind == "matrix":
        got = unit_first_column_classes(r)
        assert got == classes
        assert list(got) == sorted(classes)  # lexicographic first columns


def _triangular_cases():
    """Every UT(n,B) of order <= TABLE_CAP over the bases Z(1..16), GF(q <= 16),
    B(2), B(3) and Z(2) x Z(3), as (n, base expression)."""
    bases = ([f"Z({m})" for m in range(1, 17)] + [f"GF({q})" for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
             + ["B(2)", "B(3)", "Z(2) x Z(3)"])
    return [(n, b) for b in bases for n in range(1, 5)
            if parse_ring(b).order ** (n * (n + 1) // 2) <= rings.TABLE_CAP]


@pytest.mark.parametrize("n, base", _triangular_cases())
def test_triangular_closed_form_matches_the_dense_unit_group(n, base):
    # the closed form against the unit group read off the dense tables
    r = make_triangular_ring(n, parse_ring(base))
    dense = unit_group(r)
    assert analysis._triangular_census(r) == (dense.count, dense.sum.index)


@pytest.mark.parametrize("expr", ["M(1,Z(4100))", "UT(1,Z(4100))", "M(1,GF(4099))"])
def test_block_census_of_one_by_one_rings_above_the_table_cap(expr):
    r = parse_ring(expr)
    assert r.order > rings.TABLE_CAP
    count, total, _ = _scalar_census(r)
    assert (unit_count(r), unit_sum(r).index) == (count, total)
    if r.kind == "matrix":  # first-column classes read the dense unit group
        with pytest.raises(BudgetError):
            unit_first_column_classes(r)


def _structural_cases():
    """Every constructed ring of order <= TABLE_CAP built from 22 small bases
    (Z(1) and product bases among them) as the base itself, M(n,B) and
    UT(n,B) for n <= 3, and B x M(2,Z(2)), plus five mixed products."""
    bases = (["Z(1)", "Z(2)", "Z(3)", "Z(4)", "Z(6)", "Z(8)", "Z(9)", "Z(12)", "Z(16)", "GF(4)",
              "GF(8)", "GF(9)", "Z(2) x Z(2)", "Z(2) x Z(3)", "Z(4) x Z(2)", "GF(4) x Z(3)",
              "B(3)", "M(1,Z(6))", "UT(1,Z(4))", "M(1,Z(2) x Z(2))", "UT(1,GF(4) x Z(2))",
              "Z(2) x Z(2) x Z(3)"])
    cases = []
    for b in bases:
        order = parse_ring(b).order
        cases.append(b)
        cases += [f"M({n},{b})" for n in (1, 2, 3) if order ** (n * n) <= rings.TABLE_CAP]
        cases += [f"UT({n},{b})" for n in (1, 2, 3)
                  if order ** (n * (n + 1) // 2) <= rings.TABLE_CAP]
        if 16 * order <= rings.TABLE_CAP:
            cases.append(f"({b}) x M(2,Z(2))")
    cases += ["M(2,Z(2)) x UT(2,Z(3))", "UT(3,Z(2)) x GF(5)", "M(2,GF(3)) x Z(4)",
              "GF(2) x GF(3) x GF(5)", "UT(2,Z(2)) x M(1,Z(4))"]
    return list(dict.fromkeys(cases))  # M(1,Z(6)) is both a base and M(1,) of one


def _assert_structural_census_is_dense(r):
    # and booleanness, from the construction, against the table's diagonal
    assert is_boolean(r) == (np.diagonal(r.tables()[1]) == np.arange(r.order)).all(), r.name
    dense = unit_group(r)
    radical = len(jacobson_radical(r).members)
    radical_size, parts = analysis._signature(r)
    assert analysis._structural_census(r) == (dense.count, dense.sum.index), r.name
    assert radical_size == radical, r.name
    assert radical * math.prod(gl_order(n, q) for n, q in parts) == dense.count, r.name


@pytest.mark.parametrize("expr", list(dict.fromkeys(_structural_cases() + [
    "GF(4096)", "Z(4096)", "M(2,GF(8))", "UT(3,GF(4))", "B(12)",
    "UT(2,Z(8) x Z(2))", "M(2,Z(2) x Z(3))"])))
def test_structural_radical_matches_the_nilpotency_kernel(expr):
    # member for member against the table copy, and |J| against sigma's,
    # which reads the construction too
    r = parse_ring(expr)
    radical = jacobson_radical(r)
    got = [e.index for e in radical.members]
    assert got == _radical_of_table_copy(r)
    assert radical.is_zero == (got == [0])
    assert analysis._signature(r)[0] == len(got)


@pytest.mark.parametrize("expr", ["GF(8192)", "Z(5000)", "UT(4,GF(4))"])
def test_radical_above_the_table_cap_raises(expr):
    # the answer is an explicit member list, so the cap holds on every route
    with pytest.raises(BudgetError, match="dense-table cap"):
        jacobson_radical(parse_ring(expr))


def test_structural_cases_are_pinned():
    cases = _structural_cases()
    assert len(cases) == 138
    assert max(parse_ring(e).order for e in cases) == rings.TABLE_CAP


def test_element_sums_match_adding_every_element():
    # every pinned structural ring, and table and quotient rings
    rs = [parse_ring(e) for e in _structural_cases()]
    rs += [_table_copy("Z(4) x Z(2)"), _table_copy("GF(4)"), quotient_ring(make_zn(12), [0, 4, 8])]
    for r in rs:
        assert analysis._element_sum(r) == functools.reduce(r.add, range(r.order), 0), r.name


def test_triangular_census_over_a_big_boolean_base(monkeypatch):
    # B(20) sums structurally: a handful of adds, not one per element
    calls = []
    add = rings.ProductRing.add
    monkeypatch.setattr(rings.ProductRing, "add", lambda s, a, b: calls.append(1) or add(s, a, b))
    count, total = unit_census(parse_ring("UT(2,B(20))"))
    assert (count, total.index) == (2 ** 20, 0)
    assert len(calls) < 100


@pytest.mark.parametrize("expr", _structural_cases())
def test_structural_census_matches_the_dense_routes(expr):
    # count, sum index and sigma's |J| against unit_group and jacobson_radical
    _assert_structural_census_is_dense(parse_ring(expr))


@pytest.mark.parametrize("base, n", [("Z(4) x Z(4)", 1), ("Z(2) x Z(3)", 2), ("Z(12)", 1),
                                     ("GF(4) x Z(2)", 2), ("Z(1)", 3), ("Z(8)", 2)])
def test_structural_census_over_table_bases(base, n):
    # sigma of a table ring from its radical and primitive idempotents
    b = parse_ring(base)
    copy = make_table_ring(*b.tables())
    (size, parts), (want_size, want_parts) = analysis._signature(copy), analysis._signature(b)
    assert (size, sorted(parts)) == (want_size, sorted(want_parts))
    assert is_boolean(copy) == is_boolean(b)
    _assert_structural_census_is_dense(make_matrix_ring(n, copy))
    _assert_structural_census_is_dense(make_triangular_ring(n, copy))


def test_structural_census_over_a_quotient_base():
    z4 = quotient_ring(make_zn(12), [0, 4, 8])
    assert analysis._signature(z4) == (2, [(1, 2)])
    assert not is_boolean(z4) and is_boolean(quotient_ring(make_zn(12), [0, 2, 4, 6, 8, 10]))
    _assert_structural_census_is_dense(make_matrix_ring(2, z4))


def _table_copy(expr):
    return make_table_ring(*parse_ring(expr).tables(), name=f"table({expr})")


@pytest.mark.parametrize("build, units", [
    (lambda: parse_ring("M(2,Z(10))"), 2880),
    (lambda: parse_ring("M(2,GF(16))"), gl_order(2, 16)),
    (lambda: parse_ring("M(3,GF(3))"), gl_order(3, 3)),
    (lambda: parse_ring("M(2,Z(12))"), 4608),
    (lambda: make_matrix_ring(2, _table_copy("Z(4) x Z(4)")), 96 ** 2),  # |GL_2(Z(4))|^2
], ids=["M(2,Z(10))", "M(2,GF(16))", "M(3,GF(3))", "M(2,Z(12))", "M(2,table(Z(4) x Z(4)))"])
def test_structural_census_matches_the_stream_oracle(build, units):
    r = build()
    assert r.order > rings.TABLE_CAP
    count, total = unit_census(r)
    assert (count, total.index) == census_oracle.stream_units(r) == (units, 0)


def test_booleanness_above_the_scan_cap_follows_the_construction():
    big = rings.ProductRing([rings.ZnRing(2)] * 21)  # make_boolean stops at 2^20
    assert big.order > rings.DEFAULT_ORDER_CAP
    assert is_boolean(big) and is_boolean(make_matrix_ring(1, big))
    assert not is_boolean(rings.ProductRing([rings.ZnRing(2)] * 20 + [rings.ZnRing(3)]))
    assert not is_boolean(make_triangular_ring(2, big))
    assert not is_boolean(parse_ring("UT(3,GF(16))"))


@pytest.mark.parametrize("expr", ["B(16)", "B(20)", "UT(1,B(18))", "GF(2) x B(17)"])
def test_booleanness_reads_no_element_above_the_table_cap(expr, monkeypatch):
    # the construction answers: not one product or matrix multiplication
    calls = []
    for cls in (rings.ProductRing, rings.MatrixRing):
        mul = cls.mul
        monkeypatch.setattr(cls, "mul", lambda s, a, b, mul=mul: calls.append(1) or mul(s, a, b))
    r = parse_ring(expr)
    assert r.order > rings.TABLE_CAP
    assert is_boolean(r)
    assert calls == []


@pytest.mark.parametrize("census, expr, elems", [
    (unit_count, "M(3,GF(2))", 0), (unit_census, "GF(256)", 1),
    (unit_count, "table(M(3,GF(2)))", 0), (unit_census, "table(GF(256))", 1)])
def test_dense_census_builds_no_element_per_unit(census, expr, elems, monkeypatch):
    # the units stay an index array: unit_census wraps only the sum in an Elem;
    # the table(X) copies (`_table_copy`) take the dense kernel, X its census
    r = _table_copy(expr[len("table("):-1]) if expr.startswith("table(") else parse_ring(expr)
    assert r.order <= rings.TABLE_CAP
    calls = []
    init = rings.Elem.__init__
    monkeypatch.setattr(rings.Elem, "__init__", lambda s, *a: calls.append(1) or init(s, *a))
    census(r)
    assert len(calls) == elems


def test_constructed_rings_read_no_table(monkeypatch, capsys):
    # the census and the radical of a constructed ring read its construction,
    # so not one of these builds or reads a dense table
    big = ["GF(4096)", "Z(4096)", "M(2,GF(8))", "UT(3,GF(4))"]
    rs = [parse_ring(e) for e in dict.fromkeys(_structural_cases() + big)]

    def refuse(r):
        raise AssertionError(f"{r.name} read its tables")
    monkeypatch.setattr(rings.Ring, "tables", refuse)
    for r in rs:
        count, total = unit_census(r)
        assert unit_count(r) == count and unit_sum(r) == total, r.name
        assert is_division_ring(r) == (r.order > 1 and count == r.order - 1), r.name
        assert len(jacobson_radical(r).members) == analysis._signature(r)[0], r.name
    assert cli.main(["unit-sum", "--ring", "GF(4096)", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["unit_count"] == 4095
    for expr in big:
        assert cli.main(["report", "--ring", expr, "--json"]) == 0
        assert "radical" in json.loads(capsys.readouterr().out), expr


def test_unit_count_matches_the_census_and_the_group(enum_raw):
    rs = [parse_ring(e) for e in _structural_cases()]
    for r in rs + [r for by_order in enum_raw.values() for r in by_order]:
        assert unit_count(r) == unit_census(r)[0] == unit_group(r).count, r.name


def _doctored(n, cells):
    """Z(n)'s tables as a table ring, with mul[a, b] = c for each (a, b, c)."""
    add, mul = (t.copy() for t in make_zn(n).tables())
    for a, b, c in cells:
        mul[a, b] = c
    return rings.TableRingStructure(add, mul, 1, "doctored")


DOCTORED = [
    (4, [(2, 3, 1)], "one-sided and two-sided units disagree"),
    (4, [(1, 1, 0)], "one is missing from the unit set"),
    (5, [(2, 2, 0)], r"units not closed under multiplication at \(2,2\)"),
    (5, [(2, 1, 1)], "unit 2 lacks a two-sided inverse in the set"),
]


@pytest.mark.parametrize("n, cells, message", DOCTORED)
def test_every_dense_unit_route_checks_the_group_laws(n, cells, message):
    # unit_count and unit_census fail on a doctored table as unit_group does
    for census in (unit_count, unit_census, unit_group):
        with pytest.raises(ConstructionError, match=f"^doctored: {message}$"):
            census(_doctored(n, cells))


@pytest.mark.parametrize("n, cells, message", DOCTORED)
def test_a_doctored_ring_fails_a_stack_as_it_fails_alone(n, cells, message):
    # first, in the middle and last among the raw rings of its order: the
    # error is the one it raises alone, and the doctored ring keeps no units
    with pytest.raises(ConstructionError, match=f"^doctored: {message}$") as alone:
        analysis._find_units([_doctored(n, cells)])
    good = list(enumerate_unital_rings(n))
    for k in (0, len(good) // 2, len(good)):
        bad = _doctored(n, cells)
        with pytest.raises(ConstructionError) as stacked:
            analysis._find_units(good[:k] + [bad] + good[k:])
        assert str(stacked.value) == str(alone.value), k
        assert bad._units is None, k


def _fresh(r):
    """A table ring on r's tables, with no units found yet."""
    return rings.TableRingStructure(*r.tables(), r.one, r.name)


@pytest.fixture(scope="module")
def classes_to_16(enum_iso, order_16_classes):
    """One ring per isomorphism class, by order, for orders 2..16."""
    return {**enum_iso, **{n: list(enumerate_unital_rings(n, up_to_iso=True, budget=10 ** 6))
                           for n in range(9, 16)}, 16: order_16_classes}


@pytest.mark.parametrize("entries", [40, 1000])
def test_stacked_units_match_one_ring_at_a_time(entries, enum_raw, classes_to_16, monkeypatch):
    # each order's raw rings (2..8) and classes (2..16) as one stack, against
    # each ring alone and the scan: 40 entries give every ring its own chunk
    # and its unit rows several blocks; 1000 put up to 15 rings in a chunk
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", entries)
    for population in (enum_raw, classes_to_16):
        for order, rs in population.items():
            alone = [_fresh(r) for r in rs]
            for r in alone:
                analysis._find_units([r])
            stack = [_fresh(r) for r in rs]
            analysis._find_units(stack)
            for r, one, stacked in zip(rs, alone, stack):
                assert np.array_equal(stacked._units, one._units), r.name
                assert stacked._units.dtype == one._units.dtype, r.name
                assert stacked._units.tolist() == theorems._units_by_scan(r), r.name
                assert not stacked._units.flags.writeable, r.name


def test_units_are_found_once_per_ring(monkeypatch):
    # the stored array is returned as it is, so no call after the first
    # examines the ring; a stack of one reads its table as a view
    r = parse_ring("M(2,GF(3))")
    r.tables()
    monkeypatch.setattr(np, "stack", lambda *a, **k: pytest.fail("a stack of one was copied"))
    units = analysis._dense_units(r)
    assert analysis._dense_units(r) is units and not units.flags.writeable
    assert unit_group(r).count == unit_count(r) == len(units) == gl_order(2, 3)
    assert [u.index for u in unit_group(r).units] == units.tolist()


@pytest.mark.slow
@pytest.mark.parametrize("expr", ["M(2,GF(32))", "M(4,GF(2))", "M(2,Z(25))", "UT(1,B(20))"])
def test_structural_census_matches_the_oracles_up_to_the_stream_bound(expr):
    r = parse_ring(expr)
    count, total, _ = _scalar_census(r)
    assert census_oracle.stream_units(r) == (count, total)
    assert (unit_count(r), unit_sum(r).index) == (count, total)


@pytest.mark.parametrize("expr", ["M(2,Z(4))", "M(2,Z(6))", "M(3,GF(2))"])
def test_vectorized_determinant_matches_cofactor_expansion(expr):
    # the stream oracle's kernel, on table gathers
    r = parse_ring(expr)
    es = np.array([r.entries(x) for x in range(r.order)])
    want = [matrix_determinant(r.base, row, r.n) for row in es.tolist()]
    assert census_oracle.determinants(census_oracle.table_ops(r.base), es, r.n).tolist() == want


def test_multiples_match_sequential_adds():
    f = make_gf(9)
    for v in range(9):
        total = 0
        for k in range(40):
            assert analysis._multiple(f.add, v, k) == total, (v, k)
            total = f.add(total, v)
