"""Ring constructions: carriers, encodings, axioms, and their error cases."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import (
    BudgetError,
    ConstructionError,
    RingMismatchError,
    Elem,
    additive_invariant_factors,
    enumerate_unital_rings,
    is_commutative,
    jacobson_radical,
    least_irreducible,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_product,
    make_table_ring,
    make_triangular_ring,
    make_zn,
    parse_table_ring,
    quotient_ring,
    serialize_table_ring,
    unit_group,
    verify_tables,
)
from finring import is_unit, parse_ring, primitive_element, rings
from finring.rings import DEFAULT_ORDER_CAP, TABLE_CAP, factorize, is_prime, prime_power


def verify_ring_axioms(ring):
    """Materialize the ring's tables and check every unital-ring axiom."""
    add, mul = ring.tables()
    verify_tables(add, mul, ring.one)


def per_pair_tables(r):
    """Dense tables through `add` and `mul` one pair at a time: the oracle
    every family's vectorized `_build_tables` is compared against."""
    n = r.order
    add = np.empty((n, n), dtype=np.uint16)
    mul = np.empty((n, n), dtype=np.uint16)
    for a in range(n):
        for b in range(n):
            add[a, b] = r.add(a, b)
            mul[a, b] = r.mul(a, b)
    return add, mul


# ---------------------------------------------------------------------------
# number-theory helpers


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


# ---------------------------------------------------------------------------
# Z_n


def test_zn_basic():
    r = make_zn(6)
    assert r.order == 6 and r.zero == 0 and r.one == 1
    assert r.kind == "modular" and r.name == "Z(6)"
    assert r.add(4, 5) == 3 and r.mul(4, 5) == 2 and r.neg(2) == 4
    assert r.sub(1, 5) == 2
    assert r.pretty(4) == "4"


def test_zn_rejects_bad_order():
    with pytest.raises(ConstructionError):
        make_zn(0)
    with pytest.raises(ConstructionError):
        make_zn(-3)
    with pytest.raises(ConstructionError):
        make_zn(DEFAULT_ORDER_CAP + 1)


def test_zn_order_one_is_zero_ring():
    r = make_zn(1)
    assert r.order == 1 and r.one == 0
    verify_ring_axioms(r)


@given(n=st.integers(2, 50), a=st.integers(0, 10**6), b=st.integers(0, 10**6))
@settings(max_examples=120, deadline=None)
def test_zn_matches_integer_arithmetic(n, a, b):
    r = make_zn(n)
    x, y = a % n, b % n
    assert r.add(x, y) == (x + y) % n
    assert r.mul(x, y) == (x * y) % n
    assert r.neg(x) == (-x) % n


# ---------------------------------------------------------------------------
# element views


def test_elem_arithmetic():
    r = make_zn(10)
    a, b = r.element(7), r.element(8)
    assert (a + b).index == 5
    assert (a - b).index == 9
    assert (a * b).index == 6
    assert (-a).index == 3
    assert (a ** 3).index == 3  # 343 mod 10
    assert a == r.element(7) and a != b
    assert bool(r.element(0)) is False and bool(a) is True
    assert a.pretty() == "7"
    assert len({a, r.element(7), b}) == 2


def test_elem_rejects_cross_ring_mixing():
    a = make_zn(6).element(2)
    b = make_zn(6).element(2)  # same parameters, distinct carrier
    with pytest.raises(RingMismatchError):
        a + b
    with pytest.raises(RingMismatchError):
        a * 3  # plain ints are never coerced
    with pytest.raises(RingMismatchError):
        make_gf(4).element(1) + make_zn(4).element(1)


def test_elem_range_checked():
    with pytest.raises(ValueError):
        Elem(make_zn(4), 4)
    with pytest.raises(ValueError):
        Elem(make_zn(4), -1)


# ---------------------------------------------------------------------------
# Galois fields


# Deterministic modulus choice: lexicographically least monic irreducible,
# coefficients compared low degree first.  These eight are pinned.
FROZEN_MODULI = {
    2: (0, 1),
    3: (0, 1),
    4: (1, 1, 1),
    8: (1, 0, 1, 1),
    9: (1, 0, 1),
    16: (1, 0, 0, 1, 1),
    25: (1, 1, 1),
    27: (1, 0, 2, 1),
}


def test_gf_frozen_moduli():
    for q, modulus in FROZEN_MODULI.items():
        assert make_gf(q).modulus == modulus, q


def test_least_irreducible_degree_one():
    assert least_irreducible(5, 1) == (0, 1)


def test_least_irreducible_matches_the_plain_walk():
    # from s = 2 on the walk starts at constant term 1, skipping multiples of x
    for q in range(2, 4097):
        if (pp := prime_power(q)) is None:
            continue
        p, s = pp
        plain = next(f for f in (list(t) + [1] for t in itertools.product(range(p), repeat=s))
                     if rings.poly_is_irreducible(f, p))
        assert least_irreducible.__wrapped__(p, s) == tuple(plain), q


def test_least_irreducible_of_degree_20_tries_few_candidates(monkeypatch):
    calls = []
    test = rings.poly_is_irreducible
    monkeypatch.setattr(rings, "poly_is_irreducible", lambda f, p: calls.append(f) or test(f, p))
    assert least_irreducible.__wrapped__(2, 20)[0] == 1
    assert len(calls) < 100


def test_gf_rejects_non_prime_power():
    with pytest.raises(ConstructionError, match="prime power"):
        make_gf(6)
    with pytest.raises(ConstructionError):
        make_gf(1)


def test_gf4_arithmetic():
    f = make_gf(4)
    assert f.p == 2 and f.s == 2 and f.q == 4
    a = 2  # the generator x
    assert f.add(a, a) == 0  # characteristic 2
    assert f.mul(a, a) == 3  # x^2 = x + 1 under x^2 + x + 1
    assert f.mul(a, 3) == 1  # x * (x + 1) = x^2 + x = 1
    verify_ring_axioms(f)


def test_gf8_polynomial_reduction():
    f = make_gf(8)  # modulus x^3 + x^2 + 1
    x, x2 = 2, 4
    assert f.mul(x, x2) == 5  # x^3 = x^2 + 1 -> coeffs (1,0,1)
    verify_ring_axioms(f)


def test_gf_coeff_round_trip():
    f = make_gf(27)
    for i in range(27):
        assert f.from_coeffs(f.coeffs(i)) == i


def test_gf_pretty():
    f = make_gf(4)
    assert f.pretty(0) == "0" and f.pretty(1) == "1"
    assert f.pretty(2) == "a(2)" and f.pretty(3) == "a+1(3)"
    g = make_gf(8)
    assert g.pretty(5) == "a^2+1(5)"


def test_gf9_characteristic_three():
    f = make_gf(9)
    one = f.one
    assert f.add(f.add(one, one), one) == 0
    verify_ring_axioms(f)


# ---------------------------------------------------------------------------
# matrix rings


def test_matrix_packing_row_major_little_endian():
    m = make_matrix_ring(2, make_zn(2))
    assert m.order == 16 and m.kind == "matrix" and m.name == "M(2,Z(2))"
    assert m.one == m.from_entries([1, 0, 0, 1]) == 9
    assert m.entries(9) == (1, 0, 0, 1)
    e01 = m.from_entries([0, 1, 0, 0])
    e10 = m.from_entries([0, 0, 1, 0])
    e00 = m.from_entries([1, 0, 0, 0])
    assert m.mul(e01, e10) == e00
    assert m.mul(e10, e01) != m.mul(e01, e10)  # noncommutative
    assert m.pretty(e01) == "[[0,1],[0,0]]"


def test_matrix_requires_commutative_base():
    inner = make_matrix_ring(2, make_gf(2))
    with pytest.raises(ConstructionError, match="commutative"):
        make_matrix_ring(2, inner)
    with pytest.raises(ConstructionError, match="commutative"):
        make_triangular_ring(2, inner)


def test_matrix_axioms_and_tables():
    m = make_matrix_ring(2, make_zn(3))
    verify_ring_axioms(m)
    fast = m._build_tables()
    slow = per_pair_tables(m)
    assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])


def test_matrix_entry_validation():
    m = make_matrix_ring(2, make_zn(3))
    with pytest.raises(ConstructionError):
        m.from_entries([0, 0, 0])  # wrong arity
    with pytest.raises(ConstructionError):
        m.from_entries([0, 0, 0, 3])  # outside the base


# ---------------------------------------------------------------------------
# triangular rings


def test_triangular_basic():
    t = make_triangular_ring(2, make_zn(2))
    assert t.order == 8 and t.kind == "triangular" and t.name == "UT(2,Z(2))"
    assert t.one == t.from_entries([1, 0, 0, 1]) == 5
    e01 = t.from_entries([0, 1, 0, 0])
    assert t.mul(e01, e01) == 0  # strictly upper is nilpotent
    assert t.pretty(e01) == "[[0,1],[0,0]]"
    verify_ring_axioms(t)


def test_triangular_rejects_below_diagonal():
    t = make_triangular_ring(2, make_zn(2))
    with pytest.raises(ConstructionError, match="below the diagonal"):
        t.from_entries([0, 0, 1, 0])


def test_triangular_tables_match_generic():
    t = make_triangular_ring(3, make_zn(2))
    fast = t._build_tables()
    slow = per_pair_tables(t)
    assert np.array_equal(fast[0], slow[0]) and np.array_equal(fast[1], slow[1])


def test_triangular_order():
    assert make_triangular_ring(3, make_zn(2)).order == 2 ** 6
    assert make_triangular_ring(4, make_zn(2)).order == 2 ** 10


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("base", [make_zn, make_gf], ids=["Z(4)", "GF(4)"])
def test_triangular_embeds_in_full_matrices(n, base):
    # UT(n,B) -> M(n,B) through the full row-major entries is a unital
    # ring embedding; it fails if either layout's term list is wrong.
    b = base(4)
    t, m = make_triangular_ring(n, b), make_matrix_ring(n, b)

    def embed(x):
        return m.from_entries(t.entries(x))

    assert embed(t.one) == m.one
    rng = random.Random(n)
    for _ in range(300):
        x, y = rng.randrange(t.order), rng.randrange(t.order)
        assert t.from_entries(m.entries(embed(x))) == x
        assert m.mul(m.one, embed(x)) == embed(x) == m.mul(embed(x), m.one)
        assert embed(t.add(x, y)) == m.add(embed(x), embed(y))
        assert embed(t.mul(x, y)) == m.mul(embed(x), embed(y))


# ---------------------------------------------------------------------------
# products and the boolean family


def test_product_mixed_radix():
    p = make_product([make_zn(2), make_zn(3)])
    assert p.order == 6 and p.kind == "product" and p.name == "Prod(Z(2),Z(3))"
    # first factor least significant: index = a + 2*b for (a, b)
    assert p.from_components([1, 2]) == 5
    assert p.components(5) == (1, 2)
    assert p.one == p.from_components([1, 1]) == 3
    assert p.add(5, 3) == p.from_components([0, 0])
    assert p.pretty(5) == "(1,2)"
    verify_ring_axioms(p)


def test_product_rejects_empty():
    with pytest.raises(ConstructionError):
        make_product([])


def test_boolean_family():
    b = make_boolean(3)
    assert b.order == 8 and b.name == "B(3)"
    for x in range(8):
        assert b.mul(x, x) == x
    verify_ring_axioms(b)


# ---------------------------------------------------------------------------
# explicit-table rings


def _zn_tables(n):
    r = make_zn(n)
    add, mul = r.tables()
    return add.tolist(), mul.tolist()


def test_table_ring_round_trip():
    add, mul = _zn_tables(6)
    t = make_table_ring(add, mul)
    assert t.order == 6 and t.one == 1 and t.kind == "table"
    assert t.additive_type == (6,)
    z = make_zn(6)
    for a in range(6):
        for b in range(6):
            assert t.add(a, b) == z.add(a, b) and t.mul(a, b) == z.mul(a, b)


def test_table_ring_keeps_its_values_after_the_input_is_edited():
    # a validated table ring owns copies of its tables, whatever dtype or
    # layout the caller passed, and never aliases another ring's tables
    z = make_zn(4)
    for add, mul in (tuple(t.copy() for t in z.tables()),
                     tuple(t.astype(np.int64) for t in z.tables()),
                     tuple(np.asfortranarray(t) for t in z.tables())):
        t = make_table_ring(add, mul, one=1)
        mul[2, 2], add[1, 1] = 1, 3
        assert t.mul(2, 2) == 0 and t.add(1, 1) == 2
        assert t.tables()[1][2, 2] == 0 and t.tables()[0][1, 1] == 2
    assert not np.shares_memory(make_table_ring(*z.tables(), one=1).tables()[1], z.tables()[1])


@pytest.mark.parametrize("bad", [2 ** 32 + 1, 65536 + 2, -65535])
def test_table_entries_are_range_checked_before_narrowing(bad):
    # each wraps to a valid index of Z(3) in uint16 storage, 2**32 + 1 in int32 too
    add, mul = (t.astype(np.int64) for t in make_zn(3).tables())
    mul[2, 2] = bad
    with pytest.raises(ConstructionError, match=r"mul table entries must be indices in range\(0, 3\)"):
        make_table_ring(add, mul)
    text = serialize_table_ring(make_zn(3)).splitlines()
    text[-1] = f"0 2 {bad}"
    with pytest.raises(ConstructionError, match=r"mul table entries must be indices"):
        parse_table_ring("\n".join(text))


@pytest.mark.parametrize("entry", ["9" * 30, "9" * 5000])
def test_huge_text_table_entries_are_construction_errors(entry):
    # past int64 numpy holds the entries as objects, past 4300 digits int() refuses
    text = serialize_table_ring(make_zn(3)).splitlines()
    text[-1] = f"0 2 {entry}"
    with pytest.raises(ConstructionError):
        parse_table_ring("\n".join(text))


@pytest.mark.parametrize("expr", ["Z(6)", "GF(8)", "M(2,Z(2))", "UT(3,Z(2))", "Z(2) x GF(4)",
                                  "table", "quotient"])
def test_tables_are_read_only(expr):
    if expr == "table":
        r = make_table_ring(*make_zn(6).tables(), one=1)
    elif expr == "quotient":
        r = quotient_ring(make_zn(8), [0, 4])
    else:
        r = parse_ring(expr)
    for table in r.tables():
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[1, 1] = 0
    assert r.mul(1, 1) == r.tables()[1][1, 1]


def test_table_ring_negation_is_the_additive_inverse(enum_raw):
    # `neg` reads a row found at the first call; each a has exactly one b
    # with add[a, b] = 0, and neg(a) is that b
    population = [*enumerate_unital_rings(1), *(r for n in range(2, 9) for r in enum_raw[n])]
    for r in population + [quotient_ring(make_zn(12), [0, 4, 8])]:
        zeros = np.argwhere(r.tables()[0] == 0)
        assert zeros[:, 0].tolist() == list(range(r.order)), r.name
        assert [r.neg(a) for a in range(r.order)] == zeros[:, 1].tolist(), r.name


def test_table_ring_finds_unity():
    add, mul = _zn_tables(5)
    t = make_table_ring(add, mul)  # unity located by scan
    assert t.one == 1
    with pytest.raises(ConstructionError, match="no unity"):
        zero_mul = [[0] * 5 for _ in range(5)]
        make_table_ring(add, zero_mul)


def test_table_ring_rejects_axiom_violations():
    add, mul = _zn_tables(4)
    bad = [row[:] for row in mul]
    bad[3][2] = 1  # breaks associativity/distributivity
    with pytest.raises(ConstructionError, match="ring axiom violated"):
        make_table_ring(add, bad)


def test_table_ring_zero_must_be_index_zero():
    # tables carry no zero of their own; a serialization header naming
    # another index as the zero is refused
    text = "2 1 1 2\n0 1\n1 0\n0 0\n0 1\n"
    with pytest.raises(ConstructionError, match="0 is the additive zero"):
        parse_table_ring(text)
    assert parse_table_ring(text.replace("2 1 1 2", "2 0 1 2", 1)).one == 1


def test_table_ring_additive_type_checked():
    add, mul = _zn_tables(4)
    assert make_table_ring(add, mul, additive_type=(4,)).additive_type == (4,)
    with pytest.raises(ConstructionError):
        make_table_ring(add, mul, additive_type=(2, 2))


def test_table_ring_additive_type_must_hold_integers():
    add, mul = make_zn(2).tables()
    assert make_table_ring(add, mul, one=1, additive_type=(np.int64(2),)).additive_type == (2,)
    for declared in ((2.7,), ("2",), (True,), (2.0,)):
        with pytest.raises(ConstructionError, match="must hold integers"):
            make_table_ring(add, mul, one=1, additive_type=declared)


def test_verify_tables_reports_witness():
    add, mul = _zn_tables(3)
    broken = [row[:] for row in add]
    broken[1][2] = 1  # no longer a group
    with pytest.raises(ConstructionError, match="at"):
        verify_tables(np.array(broken), np.array(mul), one=1)


def test_verify_tables_checks_shapes_and_ranges():
    # out-of-range entries would raise IndexError or wrap around as indices,
    # float entries are no indices at all, and mismatched orders would fail
    # numpy's broadcast
    add, mul = (np.array(t) for t in _zn_tables(3))
    for bad in (9, -1):
        wrong = mul.copy()
        wrong[2, 2] = bad
        with pytest.raises(ConstructionError, match="entries must be indices"):
            verify_tables(add, wrong, 1)
    with pytest.raises(ConstructionError, match="entries must be indices"):
        verify_tables(add, mul.astype(float), 1)
    add2, _ = _zn_tables(2)
    with pytest.raises(ConstructionError, match="square matrices of the same order"):
        verify_tables(np.array(add2), mul, 1)


@pytest.mark.parametrize("one", [-1, 2, 1.5])
def test_declared_unity_must_be_an_element_index(one):
    # -1 would wrap to the last row and 2 overrun it; 1.5 is no index at all
    add, mul = _zn_tables(2)
    with pytest.raises(ConstructionError, match="declared unity"):
        make_table_ring(add, mul, one=one)
    with pytest.raises(ConstructionError, match="declared unity"):
        verify_tables(np.array(add), np.array(mul), one)
    with pytest.raises(ConstructionError):
        parse_table_ring(f"2 0 {one} 2\n0 1\n1 0\n0 0\n0 1\n")


def oracle_verify_tables(add, mul, one):
    """The axiom check one element at a time: the reference verdict and message."""
    n = add.shape[0]
    arange = np.arange(n)

    def fail(axiom, witness):
        raise ConstructionError(f"ring axiom violated: {axiom} at {witness}")

    if not (add == add.T).all():
        a, b = map(int, np.argwhere(add != add.T)[0])
        fail("additive commutativity", f"({a},{b})")
    if not (add[0] == arange).all():
        fail("additive identity", f"(0,{int(np.nonzero(add[0] != arange)[0][0])})")
    no_inverse = np.nonzero(~(add == 0).any(axis=1))[0]
    if no_inverse.size:
        fail("additive inverses", f"({int(no_inverse[0])},)")
    if n > 1 and one == 0:
        fail("multiplicative identity", "one == zero in a ring of order > 1")
    if not (mul[one] == arange).all():
        fail("multiplicative identity", f"({one},{int(np.nonzero(mul[one] != arange)[0][0])})")
    if not (mul[:, one] == arange).all():
        fail("multiplicative identity",
             f"({int(np.nonzero(mul[:, one] != arange)[0][0])},{one})")
    for a in range(n):
        witness = oracle_cubic_failure(add, mul, a)
        if witness:
            fail(*witness)


def oracle_cubic_failure(add, mul, a):
    """(axiom, witness) of the first cubic axiom failing with fixed factor a, or None."""
    checks = (
        ("additive associativity", add[add[a]], add[a][add], False),
        ("multiplicative associativity", mul[mul[a]], mul[a][mul], False),
        ("left distributivity", mul[a][add], add[mul[a][:, None], mul[a][None, :]], False),
        ("right distributivity", mul[:, a][add], add[mul[:, a][:, None], mul[:, a][None, :]],
         True),
    )
    for axiom, lhs, rhs, right in checks:
        if not (lhs == rhs).all():
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            return axiom, f"({b},{c},{a})" if right else f"({a},{b},{c})"
    return None


def _verdict(check, add, mul, one):
    try:
        check(add, mul, one)
    except ConstructionError as exc:
        return str(exc)
    return None


def _corruptions(ring, count, rng):
    """Seeded single-entry corruptions of each table; for add also the
    mirrored pair, which keeps it commutative so the cubic axioms
    are reached."""
    add, mul = (np.array(t) for t in ring.tables())
    n = ring.order
    for _ in range(count):
        for table, mirrored in ((add, False), (add, True), (mul, False)):
            x, y = rng.randrange(n), rng.randrange(n)
            v = rng.choice([u for u in range(n) if u != table[x, y]])
            bad = table.copy()
            bad[x, y] = v
            if mirrored:
                bad[y, x] = v
            yield (bad, mul) if table is add else (add, bad)


CUBIC_AXIOMS = ("additive associativity", "multiplicative associativity",
                "left distributivity", "right distributivity")


# beside GF(16), rings whose additive groups are not elementary abelian, so
# that greedy generators of additive order above 2 matter
SCREEN_RINGS = ("Z(8)", "Z(9)", "Z(4) x Z(2)", "Z(4) x Z(4)", "GF(16)", "UT(2,Z(4))")


def test_verify_tables_messages_match_row_oracle(enum_raw, monkeypatch):
    # blocks of 64 entries: the screen runs in several row blocks from order 8 on
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 64)
    rng = random.Random(20131)
    population = [(r, 4) for n in range(2, 9) for r in enum_raw[n]]
    population += [(parse_ring(e), 30) for e in ("UT(3,Z(2))", "M(2,GF(2))", "GF(4) x Z(4)")]
    population += [(parse_ring(e), 30) for e in SCREEN_RINGS]
    seen = set()
    for ring, count in population:
        assert rings._cubic_screen_holds(*(np.array(t) for t in ring.tables()))
        for add, mul in _corruptions(ring, count, rng):
            got = _verdict(verify_tables, add, mul, ring.one)
            assert got == _verdict(oracle_verify_tables, add, mul, ring.one)
            axiom = got and got.split(" at ")[0].removeprefix("ring axiom violated: ")
            seen.add(axiom)
            # the generator screen alone against the row oracle on the whole
            # table, wherever the quadratic axioms hold, which it takes as given
            if axiom in CUBIC_AXIOMS:
                assert rings._cubic_screen_holds(add, mul) == all(
                    oracle_cubic_failure(add, mul, a) is None for a in range(ring.order))
    # the corruptions reach every cubic axiom, not only the quadratic screens
    assert set(CUBIC_AXIOMS) <= seen


def test_axiom_screen_of_a_stack_is_each_table_screened_alone(enum_raw):
    # one shape's raw tables stacked, one table at a time corrupted in one
    # entry or given a wrong unity: the stack fails exactly when a table
    # fails alone, as the corrupted one does, and `verify_tables` names it
    rng = random.Random(29)
    for n in (4, 6, 8):
        shapes = {}
        for r in enum_raw[n]:
            shapes.setdefault(r.additive_type, []).append(r)
        for members in shapes.values():
            add = members[0].tables()[0]
            muls = np.array([r.tables()[1] for r in members])
            ones = [r.one for r in members]
            assert rings._axioms_hold(add, muls, ones)
            for _ in range(20):
                t = rng.randrange(len(muls))
                bad, unities = muls.copy(), list(ones)
                if rng.random() < 0.25:
                    unities[t] = rng.choice([e for e in range(n) if e != ones[t]])
                else:
                    x, y = rng.randrange(n), rng.randrange(n)
                    bad[t, x, y] = rng.choice([v for v in range(n) if v != bad[t, x, y]])
                alone = [rings._axioms_hold(add, m, e) for m, e in zip(bad, unities)]
                assert rings._axioms_hold(add, bad, unities) == all(alone)
                assert not alone[t] and _verdict(verify_tables, add, bad[t], unities[t])


@pytest.mark.parametrize("expr", ["Z(2)", "B(3)", "Z(12)", "GF(27)", "M(2,GF(2))",
                                  "UT(3,Z(2))", *SCREEN_RINGS])
def test_additive_generators_are_greedy_and_reach_every_element(expr):
    ring = parse_ring(expr)
    add, _ = ring.tables()
    gens = rings._additive_generators(add)
    span = {0}
    for g in gens:
        # each generator is the least element outside the subgroup the
        # earlier ones generate
        assert g == min(set(range(ring.order)) - span)
        while (grown := span | {ring.add(g, x) for x in span}) != span:
            span = grown
    assert span == set(range(ring.order))
    assert 2 ** len(gens) <= ring.order


def _bit_tables(k, product):
    """Tables on (Z_2)^k, element bits as coordinates, 1 the unity."""
    n = 1 << k
    return (np.array([[a ^ b for b in range(n)] for a in range(n)]),
            np.array([[product(a, b) for b in range(n)] for a in range(n)]))


def _xor_over_bits(a, value):
    total = 0
    for i in range(a.bit_length()):
        if a >> i & 1:
            total ^= value(i)
    return total


def test_verify_tables_rejects_products_failing_one_screen_check():
    # each product passes every screen check but one, so dropping that one
    # from the screen would accept it
    # basis 1, x, y with x^2 = y, y^2 = x, xy = yx = 0: bilinear, not associative
    consts = [[1, 2, 4], [2, 4, 0], [4, 0, 2]]
    bilinear = _bit_tables(3, lambda a, b: _xor_over_bits(
        a, lambda i: _xor_over_bits(b, lambda j: consts[i][j])))
    # additive in a but not in b: 1*b = b, x*b = [0, x, 0, 0][b]
    rows = [lambda b: b, lambda b: [0, 2, 0, 0][b]]
    left_only = _bit_tables(2, lambda a, b: _xor_over_bits(a, lambda i: rows[i](b)))
    for (add, mul), axiom in ((bilinear, "multiplicative associativity"),
                              (left_only, "left distributivity"),
                              (tuple(t.T for t in left_only), "right distributivity")):
        got = _verdict(verify_tables, add, mul, 1)
        assert got == _verdict(oracle_verify_tables, add, mul, 1)
        assert got.startswith(f"ring axiom violated: {axiom} at ")


def test_verify_tables_names_each_quadratic_failure():
    # Z(3) broken in one quadratic axiom at a time: the message names it
    # and its first witness, as the row oracle does
    add, mul = (np.array(t) for t in _zn_tables(3))

    def edited(table, *cells):
        out = table.copy()
        for x, y, v in cells:
            out[x, y] = v
        return out

    cases = [
        (edited(add, (1, 2, 1)), mul, 1, "additive commutativity at (1,2)"),
        (edited(add, (0, 1, 2), (1, 0, 2)), mul, 1, "additive identity at (0,1)"),
        (edited(add, (1, 2, 1), (2, 1, 1)), mul, 1, "additive inverses at (1,)"),
        (add, mul, 0, "multiplicative identity at one == zero in a ring of order > 1"),
        (add, edited(mul, (1, 2, 0)), 1, "multiplicative identity at (1,2)"),
        (add, edited(mul, (2, 1, 0)), 1, "multiplicative identity at (2,1)"),
    ]
    for a, m, one, message in cases:
        got = _verdict(verify_tables, a, m, one)
        assert got == f"ring axiom violated: {message}"
        assert got == _verdict(oracle_verify_tables, a, m, one)


def test_verify_tables_accepts_large_tables():
    # the generator screen costs O(log(n) * n^2): at order 1024 the cubic
    # row loop would take the better part of a minute
    ut4 = make_triangular_ring(4, make_zn(2))
    table = make_table_ring(*ut4.tables())
    assert (table.order, table.one) == (1024, ut4.one)
    # a corruption whose first failing row is 0 names the row oracle's witness
    add, mul = (np.array(t) for t in ut4.tables())
    y = next(y for y in range(1, ut4.order) if y != ut4.one)
    mul[0, y] = 1
    got = _verdict(verify_tables, add, mul, ut4.one)
    assert got is not None and got == _verdict(oracle_verify_tables, add, mul, ut4.one)
    assert oracle_cubic_failure(add, mul, 0) is not None


def test_table_cap_enforced():
    big = make_product([make_zn(5000), make_zn(2)])
    assert big.order == 10000 > TABLE_CAP
    with pytest.raises(BudgetError, match="dense-table cap"):
        big.tables()


# ---------------------------------------------------------------------------
# quotient rings


def test_quotient_z4_mod_two():
    z4 = make_zn(4)
    q = quotient_ring(z4, [0, 2])
    assert q.order == 2 and q.one == 1 and q.kind == "quotient"
    add, mul = q.tables()
    assert add.tolist() == [[0, 1], [1, 0]]
    assert mul.tolist() == [[0, 0], [0, 1]]
    assert q.pretty(1) == "1"  # least coset representative
    verify_ring_axioms(q)


def test_quotient_accepts_elems():
    z6 = make_zn(6)
    q = quotient_ring(z6, [z6.element(0), z6.element(2), z6.element(4)])
    assert q.order == 2


def test_quotient_rejects_non_ideals():
    z4 = make_zn(4)
    with pytest.raises(ConstructionError, match="contain 0"):
        quotient_ring(z4, [2])
    with pytest.raises(ConstructionError):
        quotient_ring(z4, [0, 1])  # not closed / not proper
    z6 = make_zn(6)
    with pytest.raises(ConstructionError):
        quotient_ring(z6, [0, 3, 2])  # not additively closed (3+2=5 missing)


def test_quotient_rejects_a_set_not_closed_under_negation():
    # {0, 2} in Z(6) misses -2 = 4; closure under + already fails at 2+2
    with pytest.raises(ConstructionError, match=r"not closed under addition at \(2,2\)"):
        quotient_ring(make_zn(6), [0, 2])


def _ideal_failure_oracle(r, members):
    """The first failing pair, scanning + over members^2, then r*a, then a*r,
    worded as `rings._check_ideal` words it with subject "S"."""
    for what, pairs, op in (
            ("not closed under addition", itertools.product(members, members), r.add),
            ("not absorbing on the left", itertools.product(range(r.order), members), r.mul),
            ("not absorbing on the right", itertools.product(members, range(r.order)), r.mul)):
        for x, y in pairs:
            if op(x, y) not in members:
                return f"S {what} at ({x},{y})"
    return None


def _additive_span(r, gens):
    """The subgroup the gens generate: in a finite group, closure under +."""
    span = {0, *gens}
    while True:
        more = {r.add(x, y) for x in span for y in span} - span
        if not more:
            return sorted(span)
        span |= more


def test_check_ideal_names_the_first_witness():
    # one helper checks quotient ideals and the computed radical; on random
    # subsets holding 0, and on random additive subgroups (which can only
    # fail to absorb), it names the witness a pair-by-pair scan meets first
    rng = random.Random(5)
    outcomes = set()
    for r in (make_zn(12), make_matrix_ring(2, make_zn(2)),
              make_triangular_ring(2, make_zn(2)), make_matrix_ring(2, make_zn(3))):
        add, mul = r.tables()
        for trial in range(120):
            picks = rng.sample(range(1, r.order), rng.randrange(min(r.order, 4)))
            members = _additive_span(r, picks) if trial % 2 else sorted({0, *picks})
            mask = np.zeros(r.order, dtype=bool)
            mask[members] = True
            expected = _ideal_failure_oracle(r, members)
            try:
                rings._check_ideal(add, mul, mask, "S")
                got = None
            except ConstructionError as exc:
                got = str(exc)
            assert got == expected, (r.name, members)
            outcomes.add(expected and expected.split(" at ")[0])
    assert outcomes == {None, "S not closed under addition",
                        "S not absorbing on the left", "S not absorbing on the right"}


def _check_ideal_by_grid(add, mul, mask, subject):
    """Oracle: `rings._check_ideal` as one np.ix_ grid and one argwhere per
    check, read whole with no row blocks."""
    members, everything = np.flatnonzero(mask), np.arange(len(mask))
    for what, table, xs, ys in (("not closed under addition", add, members, members),
                                ("not absorbing on the left", mul, everything, members),
                                ("not absorbing on the right", mul, members, everything)):
        bad = np.argwhere(~mask[table[np.ix_(xs, ys)]])
        if bad.size:
            i, j = bad[0]
            raise ConstructionError(f"{subject} {what} at ({xs[i]},{ys[j]})")


def _ideal_message(check, add, mul, mask):
    try:
        check(add, mul, mask, "S")
    except ConstructionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("entries", [1, 100])
@pytest.mark.parametrize("expr", ["M(2,Z(4))", "UT(3,Z(2))", "raw order 8"])
def test_blocked_ideal_check_matches_the_grid(expr, entries, enum_raw, monkeypatch):
    # doctored masks that fail each check: a*R fails left absorption, R*a
    # right absorption, and R*a less its greatest member (with 3 or more
    # members) addition.  Row 0 passes every check, so with one-row blocks
    # (entries = 1) each failure is found in a later block.
    r = (next(r for r in enum_raw[8] if not is_commutative(r)) if expr == "raw order 8"
         else parse_ring(expr))
    add, mul = r.tables()
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", entries)
    kinds = set()
    for a in random.Random(3).sample(range(r.order), min(r.order, 24)):
        for members in (mul[a], mul[:, a], np.unique(mul[:, a])[:-1]):
            mask = np.zeros(r.order, dtype=bool)
            mask[members] = True
            mask[0] = True
            want = _ideal_message(_check_ideal_by_grid, add, mul, mask)
            assert _ideal_message(rings._check_ideal, add, mul, mask) == want, (a, members)
            if want:
                kinds.add(want.split(" at ")[0])
                assert not want.split(" at (")[1].startswith("0,")
    assert kinds == {"S not closed under addition", "S not absorbing on the left",
                     "S not absorbing on the right"}


def test_quotient_rejects_foreign_elements():
    z4, z6 = make_zn(4), make_zn(6)
    with pytest.raises(RingMismatchError):
        quotient_ring(z4, [z6.element(0), z6.element(2)])


def test_quotient_above_table_cap_is_a_budget_error():
    with pytest.raises(BudgetError, match="dense-table cap"):
        quotient_ring(make_zn(2 * TABLE_CAP), [0, TABLE_CAP])


def _quotient_oracle(parent, ideal):
    """(reps, one, add, mul, neg) of parent/ideal through the parent's scalar
    ops: reps are the least members of the cosets met scanning upward, and
    y lies in coset k when y - reps[k] is in the ideal."""
    ideal = set(ideal)
    reps = []
    for x in range(parent.order):
        if not any(parent.sub(x, r) in ideal for r in reps):
            reps.append(x)

    def coset(y):
        return next(k for k, r in enumerate(reps) if parent.sub(y, r) in ideal)
    m = len(reps)
    add = [[coset(parent.add(reps[a], reps[b])) for b in range(m)] for a in range(m)]
    mul = [[coset(parent.mul(reps[a], reps[b])) for b in range(m)] for a in range(m)]
    neg = [coset(parent.neg(r)) for r in reps]
    return reps, coset(parent.one), add, mul, neg


def test_quotient_tables_match_generic(monkeypatch):
    ut2, ut3 = (make_triangular_ring(n, make_zn(2)) for n in (2, 3))
    m24 = make_matrix_ring(2, make_zn(4))
    twice = sorted({m24.add(x, x) for x in range(m24.order)})  # 2 M(2,Z(4))
    cases = [(make_zn(12), [0, 6]), (make_zn(12), [0, 4, 8]), (ut2, [0, 2]),
             (ut3, [e.index for e in jacobson_radical(ut3).members]), (m24, twice),
             (make_gf(4), [0]), (make_gf(4), range(4))]
    for entries, (parent, ideal) in itertools.product((rings._BLOCK_ENTRIES, 40), cases):
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", entries)  # 40: tables in row blocks
        q = quotient_ring(parent, ideal)
        reps, one, add, mul, neg = _quotient_oracle(parent, ideal)
        assert list(q.reps) == reps and q.one == one, parent.name
        assert q.tables()[0].tolist() == add and q.tables()[1].tolist() == mul, parent.name
        assert [q.neg(a) for a in range(q.order)] == neg, parent.name


# ---------------------------------------------------------------------------
# additive invariant factors


@pytest.mark.parametrize("build, factors", [
    (lambda: make_zn(1), (1,)),
    (lambda: make_zn(6), (6,)),
    (lambda: make_zn(12), (12,)),
    (lambda: make_product([make_zn(4), make_zn(2)]), (4, 2)),
    (lambda: make_product([make_zn(2), make_zn(3)]), (6,)),
    (lambda: make_boolean(3), (2, 2, 2)),
    (lambda: make_matrix_ring(2, make_gf(2)), (2, 2, 2, 2)),
    (lambda: make_gf(9), (3, 3)),
    (lambda: make_product([make_zn(6), make_zn(4)]), (12, 2)),
])
def test_additive_invariant_factors(build, factors):
    assert additive_invariant_factors(build()) == factors


def test_invariant_factors_form_divisibility_chain():
    for build in (lambda: make_product([make_zn(8), make_zn(6), make_zn(2)]),
                  lambda: make_product([make_zn(9), make_zn(3)])):
        fs = additive_invariant_factors(build())
        assert all(fs[i] % fs[i + 1] == 0 for i in range(len(fs) - 1))


# ---------------------------------------------------------------------------
# axiom verification across every construction kind


@pytest.mark.parametrize("build", [
    lambda: make_zn(9),
    lambda: make_gf(16),
    lambda: make_gf(25),
    lambda: make_matrix_ring(2, make_gf(4)),
    lambda: make_triangular_ring(2, make_zn(4)),
    lambda: make_product([make_zn(4), make_gf(4), make_zn(3)]),
    lambda: make_boolean(4),
    lambda: quotient_ring(make_zn(8), [0, 4]),
])
def test_axioms_hold_everywhere(build):
    verify_ring_axioms(build())


# ---------------------------------------------------------------------------
# table routes against their references


@pytest.mark.parametrize("q", [4, 8, 9, 25, 256, 625, 4096])
def test_gf_exp_is_the_walk_of_the_primitive_element(q):
    # exp/log come from the linear multiply-by-g map; here the powers of the
    # least primitive element are walked one polynomial product at a time
    f = make_gf(q)
    g = primitive_element(f).index
    powers, x = [], 1
    for _ in range(q - 1):
        powers.append(x)
        x = f._mul_poly(x, g)
    assert x == 1 and len(set(powers)) == q - 1
    assert f._exp == powers * 2 + [0] * (2 * (q - 1) + 1)
    assert [f._log[y] for y in powers] == list(range(q - 1)) and f._log[0] == 2 * (q - 1)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 49, 64, 81])
def test_gf_exp_log_mul_matches_polynomial_product(q):
    f = make_gf(q)
    for a in range(q):
        assert [f.mul(a, b) for b in range(q)] == [f._mul_poly(a, b) for b in range(q)], a
    # exp/log run over the least primitive element
    assert f._exp[1] == primitive_element(f).index


def test_row_blocks_reads_block_size_at_call_time(monkeypatch):
    # the tests above and in test_analysis shrink _BLOCK_ENTRIES to cross block edges
    assert len(rings.row_blocks(64, 64)) == 1
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 256)
    assert len(rings.row_blocks(64, 64)) == 16


@pytest.mark.parametrize("expr", ["B(5)", "GF(4) x Z(6)", "Z(4) x GF(9)", "Z(2) x Z(3) x Z(4)",
                                  "GF(27)", "M(2,Z(3))", "UT(3,Z(2))", "M(1,Z(6))",
                                  "UT(1,GF(4))", "UT(2,Z(4))", "M(2,Z(4))"])
def test_vectorized_tables_match_generic(expr, monkeypatch):
    # blocks of 100 entries: GF(27)'s exp/log product and each matrix row's
    # piece (a table row or more wide) are gathered in several row blocks
    monkeypatch.setattr(rings, "_BLOCK_ENTRIES", 100)
    r = parse_ring(expr)
    fast = r._build_tables()
    slow = per_pair_tables(r)
    for f, s in zip(fast, slow):
        assert f.dtype == s.dtype and np.array_equal(f, s)


LARGE_MATRIX_RINGS = ["UT(4,Z(2))", "M(3,GF(2))", "M(2,GF(8))", "UT(3,GF(4))", "UT(2,GF(16))"]
# orders at TABLE_CAP, where uint16 tables are fullest and the wide
# arithmetic (Z's i * j, GF's exp/log gather, mixed-radix composition) is
# largest; Z(4095)'s products, unlike Z(4096)'s, would not survive a wrap
# at 2**16
CAP_RINGS = ["Z(4096)", "Z(4095)", "GF(4096)", "B(12)", "GF(64) x GF(64)"]


@pytest.mark.parametrize("expr", LARGE_MATRIX_RINGS + CAP_RINGS)
def test_matrix_tables_match_scalar_arithmetic_on_sampled_pairs(expr):
    # too large for the per-pair oracle above: seeded pairs against add and mul
    r = parse_ring(expr)
    add, mul = r.tables()
    rng = random.Random(expr)
    for _ in range(3000):
        x, y = rng.randrange(r.order), rng.randrange(r.order)
        assert (add[x, y], mul[x, y]) == (r.add(x, y), r.mul(x, y)), (x, y)


@pytest.mark.parametrize("expr", LARGE_MATRIX_RINGS[2:])
def test_matrix_table_build_peaks_near_its_outputs(expr):
    # with the base tables built, the build's peak allocation is its two
    # order x order outputs plus at most 5%: no order x order temporary
    r = parse_ring(expr)
    r.base.tables()
    tracemalloc.start()
    try:
        add, mul = r._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * (add.nbytes + mul.nbytes), peak


@pytest.mark.parametrize("n", [TABLE_CAP, TABLE_CAP - 1])
def test_zn_tables_at_the_cap_equal_wide_arithmetic(n):
    # i * j reaches 4095**2, far past uint16: the product is taken wide
    i = np.arange(n, dtype=np.int64)
    add, mul = make_zn(n).tables()
    assert np.array_equal(add, np.add.outer(i, i) % n)
    assert np.array_equal(mul, np.multiply.outer(i, i) % n)


@pytest.mark.parametrize("expr", ["Z(4096)", "GF(4096)", "GF(64) x GF(64)"])
def test_cap_table_build_peaks_near_its_outputs(expr):
    # with any factor tables built, the wide products and exp/log gathers go
    # in row blocks: the peak is the two uint16 outputs plus at most 20%
    r = parse_ring(expr)
    for f in getattr(r, "factors", ()):
        f.tables()
    tracemalloc.start()
    try:
        add, mul = r._build_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * (add.nbytes + mul.nbytes), peak


def test_unit_group_at_the_cap_traces_under_96_mib():
    # two uint16 tables at the cap are 64 MiB; int32 tables of GF(4096)
    # traced 152 MiB.  |GL_2(8)| = 63 * 56, |U(UT_3(GF(4)))| = 3^3 * 4^3
    for expr, count in (("GF(4096)", TABLE_CAP - 1), ("M(2,GF(8))", 3528), ("UT(3,GF(4))", 1728)):
        tracemalloc.start()
        try:
            assert unit_group(parse_ring(expr)).count == count, expr
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2 ** 20, (expr, peak)


def test_every_family_builds_tables_without_the_per_pair_route():
    # Ring._build_tables raises NotImplementedError, so each family here
    # builds its own tables (the per-pair route is only the oracle above)
    ut2 = make_triangular_ring(2, make_zn(2))
    rings = [parse_ring(e) for e in ("Z(6)", "GF(2)", "GF(9)", "M(2,Z(3))", "UT(3,Z(2))",
                                     "B(3)", "GF(4) x Z(3)", "Z(2) x M(2,GF(2))")]
    rings += [quotient_ring(ut2, [0, 2]), make_table_ring(*make_zn(4).tables())]
    for r in rings:
        add, mul = r.tables()
        assert add.shape == mul.shape == (r.order, r.order), r.name
        assert add.dtype == mul.dtype == np.uint16, r.name


# Each entry point that takes element indices: the call, the exception it
# raises for a bad index with a pattern of its message, and its result at 3.
INDEX_SITES = {
    "element": (lambda x: make_zn(5).element(x).index, ValueError, "out of range", 3),
    "is_unit": (lambda x: is_unit(make_zn(5), x).index, ValueError, "out of range", 2),
    "from_entries": (lambda x: make_matrix_ring(2, make_zn(5)).from_entries([1, x, 0, 1]),
                     ConstructionError, "outside the base ring", 141),
    "from_coeffs": (lambda x: make_gf(25).from_coeffs([x, 0]),
                    ConstructionError, "expects 2 coefficients", 3),
    "from_components": (lambda x: make_product([make_zn(2), make_zn(5)]).from_components([1, x]),
                        ConstructionError, "outside Z", 7),
    "quotient_ring": (lambda x: quotient_ring(make_zn(6), [0, x]).order,
                      ConstructionError, "must be element indices", 3),
}


@pytest.mark.parametrize("site", sorted(INDEX_SITES))
def test_index_entry_points_reject_non_integers(site):
    # one predicate (an int or numpy integer, not a bool) at every site; a
    # float or str was truncated or parsed before, and True read as 1
    call, error, message, at_3 = INDEX_SITES[site]
    for bad in (2.5, "3", True):
        with pytest.raises(error, match=message):
            call(bad)
    assert call(3) == call(np.int64(3)) == at_3
