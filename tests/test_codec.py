"""The mixed-radix index codec, the families that encode through it, and
the integer checks at the public entry points."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finring import (
    ConstructionError,
    Elem,
    abelian_group_shapes,
    additive_invariant_factors,
    enumerate_unital_rings,
    gl_order,
    is_unit,
    make_boolean,
    make_gf,
    make_matrix_ring,
    make_product,
    make_table_ring,
    make_triangular_ring,
    make_zn,
    parse_ring,
    verify_tables,
)
from finring.rings import digit_array, factorize, from_digits, place_values, to_digits
from finring.theorems import run_check


def decode(index, radices):
    """Digit k is index // (product of the radices before k) mod radix k."""
    return [index // math.prod(radices[:k]) % m for k, m in enumerate(radices)]


def element_orders_oracle(r):
    """Invariant factors from every element's additive order, one add at a
    time: the route `additive_invariant_factors` replaced."""
    ords = [1] * r.order
    for x in range(1, r.order):
        acc, k = x, 1
        while acc != 0:
            acc = r.add(acc, x)
            k += 1
        ords[x] = k
    per_prime = []
    for p, e in factorize(r.order):
        counts = [sum(1 for o in ords if p ** k % o == 0) for k in range(e + 1)]
        cs = [round(math.log(c, p)) for c in counts]
        conj = [b - a for a, b in zip(cs, cs[1:]) if b > a]
        per_prime.append((p, [sum(1 for c in conj if c >= i) for i in range(1, max(conj) + 1)]))
    width = max(len(part) for _, part in per_prime)
    return tuple(math.prod(p ** part[i] for p, part in per_prime if i < len(part))
                 for i in range(width))


# ---------------------------------------------------------------------------
# the codec


radix_lists = st.lists(st.integers(1, 1 << 20), min_size=1, max_size=8)


@given(radices=radix_lists, data=st.data())
@settings(max_examples=200, deadline=None)
def test_codec_round_trips(radices, data):
    order = math.prod(radices)
    index = data.draw(st.integers(0, order - 1))
    digits = to_digits(index, radices)
    assert digits == decode(index, radices)
    assert from_digits(digits, radices) == index
    some = data.draw(st.tuples(*(st.integers(0, m - 1) for m in radices)))
    assert to_digits(from_digits(some, radices), radices) == list(some)
    # the numpy twin, on the object route once the order outgrows int64
    places = place_values(radices)
    assert places.tolist() == [math.prod(radices[:k]) for k in range(len(radices))]
    assert places.dtype == (object if order > np.iinfo(np.intp).max else np.intp)
    row = digit_array([index], radices)
    assert row.dtype == np.intp and row.tolist() == [digits]
    assert (row @ places).tolist() == [index]


@pytest.mark.parametrize("expr", ["M(2,Z(4))", "UT(3,Z(2))", "GF(27)"])
def test_numpy_twin_matches_scalar_codec_on_every_index(expr):
    r = parse_ring(expr)
    digits = digit_array(np.arange(r.order), r.radices)
    assert digits.tolist() == [to_digits(i, r.radices) for i in range(r.order)]
    assert (digits @ place_values(r.radices)).tolist() == list(range(r.order))


def test_families_decode_like_the_hand_written_decoder():
    for q in (4, 9, 16, 27, 125):
        f = make_gf(q)
        for i in range(q):
            assert f.coeffs(i) == tuple(decode(i, [f.p] * f.s)), (q, i)
            assert f.from_coeffs(f.coeffs(i)) == i
    p = make_product([make_zn(2), make_gf(9), make_zn(4)])
    assert p.one == 1 + 2 * 1 + 18 * 1
    for i in range(p.order):
        assert p.components(i) == tuple(decode(i, [2, 9, 4])), i
        assert p.from_components(p.components(i)) == i
    for expr in ("M(2,Z(3))", "UT(3,Z(2))", "UT(2,GF(4))"):
        m = parse_ring(expr)
        cells = [i * m.n + j for i, j in m.stored]
        for x in range(m.order):
            full = [0] * m.cells
            for c, e in zip(cells, decode(x, [m.base.order] * len(cells))):
                full[c] = e
            assert m.entries(x) == tuple(full), (expr, x)
            assert m.from_entries(m.entries(x)) == x
        ident = [m.base.one if k // m.n == k % m.n else 0 for k in range(m.cells)]
        assert m.entries(m.one) == tuple(ident)


def test_shape_generators_are_the_unit_digit_vectors():
    for order in range(2, 17):
        for shape in abelian_group_shapes(order):
            fs = shape.invariant_factors
            assert [to_digits(g, fs) for g in shape.generators] == \
                [[int(i == j) for j in range(len(fs))] for i in range(len(fs))], fs


def test_matrix_inverses_above_int64():
    # M(3,GF(256)) has order 2^72: det^-1 * adj decodes and encodes its
    # Python-int indices exactly
    m = parse_ring("M(3,GF(256))")
    assert m.order > np.iinfo(np.intp).max
    x = m.from_entries([255, 3, 7, 0, 200, 9, 1, 0, 254])
    inv = is_unit(m, x)
    assert inv is not None and inv.index > np.iinfo(np.intp).max
    assert m.mul(x, inv.index) == m.mul(inv.index, x) == m.one
    assert is_unit(m, m.from_entries([1, 2, 3, 2, 4, 6, 0, 0, 1])) is None


# ---------------------------------------------------------------------------
# invariant factors by torsion rounds


def test_invariant_factors_of_large_cyclic_groups():
    z = make_zn(4096)
    assert additive_invariant_factors(z) == (4096,)
    assert additive_invariant_factors(make_table_ring(*z.tables())) == (4096,)
    zz = parse_ring("Z(64) x Z(64)")
    assert additive_invariant_factors(zz) == (64, 64)
    assert zz._tables is None  # scalar adds only: a lazy ring builds no tables
    copy = make_table_ring(*make_zn(4096).tables(), additive_type=(4096,))
    assert copy.additive_type == (4096,)


@pytest.mark.parametrize("expr", [
    "Z(2)", "Z(12)", "Z(72)", "Z(8) x Z(4) x Z(2)", "Z(9) x Z(3) x Z(5)", "GF(27)",
    "GF(16) x Z(4)", "M(2,Z(4))", "UT(3,Z(2))", "B(5)", "Z(2) x Z(2) x Z(4) x Z(8)",
])
def test_invariant_factors_match_element_orders(expr):
    r = parse_ring(expr)
    assert additive_invariant_factors(r) == element_orders_oracle(r)


# ---------------------------------------------------------------------------
# integer arguments and index messages


z2 = make_zn(2)
table = make_zn(4).tables()

# Each public entry point taking an integer argument: the call with the
# argument, the exception, and the site's message for a non-integer.  Every
# call passes at 2, except the unity of Z(4)'s tables, which is 1.
INT_SITES = {
    "make_zn": (lambda v: make_zn(v), ConstructionError, "modulus must be a positive integer"),
    "make_gf": (lambda v: make_gf(v), ConstructionError, "prime power >= 2"),
    "make_matrix_ring": (lambda v: make_matrix_ring(v, z2), ConstructionError,
                         "size must be a positive integer"),
    "make_triangular_ring": (lambda v: make_triangular_ring(v, z2), ConstructionError,
                             "size must be a positive integer"),
    "make_boolean": (lambda v: make_boolean(v), ConstructionError,
                     "factor count must be a positive integer"),
    "Elem.__pow__": (lambda v: z2.element(1) ** v, ValueError, "non-negative integers"),
    "gl_order.n": (lambda v: gl_order(v, 2), ConstructionError, "matrix size must be"),
    "gl_order.q": (lambda v: gl_order(2, v), ConstructionError, "field size must be"),
    "abelian_group_shapes": (lambda v: abelian_group_shapes(v), ConstructionError,
                             "group order must be a positive integer"),
    "enumerate_unital_rings": (lambda v: enumerate_unital_rings(v), ConstructionError,
                               "order must be a positive integer"),
    "enumerate_unital_rings.budget": (lambda v: enumerate_unital_rings(4, budget=v),
                                      ConstructionError, "budget must be a non-negative"),
    "run_check": (lambda v: run_check("T1", max_order=v), ConstructionError,
                  "max_order must be a positive integer"),
    "verify_tables": (lambda v: verify_tables(*table, v), ConstructionError,
                      "is not an element index"),
    "make_table_ring": (lambda v: make_table_ring(*table, one=v), ConstructionError,
                        "is not an element index"),
}


@pytest.mark.parametrize("site", sorted(INT_SITES))
def test_bool_is_not_an_integer_argument(site):
    call, error, message = INT_SITES[site]
    for bad in (True, False):
        with pytest.raises(error, match=message):
            call(bad)
    call(1 if site in ("verify_tables", "make_table_ring") else 2)  # plain ints pass


def test_non_integer_indices_get_their_own_message():
    z5, m = make_zn(5), make_matrix_ring(2, make_zn(5))
    p = make_product([make_zn(2), make_zn(5)])
    for call, integer_text in (
            (lambda x: Elem(z5, x), "index 7 out of range for Z(5)"),
            (lambda x: is_unit(z5, x), "index 7 out of range for Z(5)"),
            (lambda x: m.from_entries([1, x, 0, 1]), "M(2,Z(5)): entry 7 is outside the base ring"),
            (lambda x: p.from_components([1, x]), "Prod(Z(2),Z(5)): component 7 outside Z(5)")):
        for seven in (7, np.int64(7)):  # integers keep the message they had
            with pytest.raises((ValueError, ConstructionError)) as info:
                call(seven)
            assert str(info.value) == integer_text
        noun = integer_text.split(" 7 ")[0].split(": ")[-1]
        for bad, shown in (("3", "'3' (str)"), (2.5, "2.5 (float)"), (True, "True (bool)")):
            with pytest.raises((ValueError, ConstructionError)) as info:
                call(bad)
            assert f"non-integer {noun} {shown}" in str(info.value), str(info.value)
