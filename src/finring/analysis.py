"""Structural invariants of finite rings.

Characteristic, commutativity, booleanness, the unit group and its sum,
the Jacobson radical (R is semisimple iff it is zero), general linear
group orders, and primitive elements of finite fields.

The radical reads no units: in a finite ring, a is in J(R) iff every
element of R*a is nilpotent.  If a is in J, then R*a lies in J, and every
j in J is nilpotent: its powers repeat, j^i = j^(i+p), so j^i*(1 - j^p) = 0
with 1 - j^p a unit, and j^i = 0.  Conversely R*a is then a nil left
ideal, so each 1 - x*a has the inverse 1 + x*a + (x*a)^2 + ..., which puts
a in J by the one-sided criterion {a : 1 - x*a is a unit for every x}
(Lam, *A First Course in Noncommutative Rings*, section 4).  A nilpotent a
of index t gives a strictly falling chain R > aR > ... > a^t R = 0 of
additive subgroups (if a^i R = a^(i+1) R, then a^i R = a^t R = 0), each at
most half the one before, so t <= log2 n in a ring of order n, and a is
nilpotent iff its 2^k-th power is 0 for 2^k >= floor(log2 n).  Every
member a = 1*a is itself nilpotent, so only the columns of the nilpotent
set N are candidates: k squarings of the table's diagonal and one pass
over those columns, O(n*|N|), against O(n^3) for the two-sided 1 - x*a*y
scan, which the tests keep as the reference.

The unit census and the radical take one route per ring kind: a
constructed ring (Z, GF, product, M, UT) reads its construction and no
table; a table or quotient ring reads the numpy tables of `finring.rings`
(up to TABLE_CAP, order 4096), its radical by the criterion above.  The
census of a constructed ring has no order bound: it reads
sigma(R) = (|J(R)|, [(n_i, q_i)]), R/J(R) = prod M(n_i, GF(q_i)), so
|U(R)| = |J| * prod |GL(n_i, q_i)|, and the unit sum
(`_structural_census`).  The radical is a member list, so it stops at
TABLE_CAP for every kind (`jacobson_radical`).  `unit_group` always reads
the tables: T3, T5, T6 and T8 check the census formulas against it, the
brute-force enumeration.  Everything operates on integer element indices
and is a pure function of the ring, so results are deterministic and safe
to compute concurrently.  Exhaustive scans (unit groups and radicals up
to TABLE_CAP) raise BudgetError past their bounds rather than silently
truncating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConstructionError, RingMismatchError
from .rings import (
    TABLE_CAP,
    Elem,
    GFRing,
    MatrixRing,
    ProductRing,
    Ring,
    ZnRing,
    _check_ideal,
    _multiple,
    _read_only,
    digit_array,
    factorize,
    from_digits,
    is_commutative,  # re-exported; it also vets matrix-ring bases there
    is_prime,
    place_values,
    prime_power,
    row_blocks,
)


@dataclass
class UnitGroupSummary:
    """The full unit group of a ring: sorted units, count, and their sum.

    `closure_verified` records that the group laws (closure, identity,
    two-sided inverses) were checked exhaustively before the summary was
    returned.
    """

    units: list[Elem]
    count: int
    sum: Elem
    closure_verified: bool


@dataclass
class RadicalSummary:
    """The Jacobson radical as an explicit sorted member list."""

    members: list[Elem]
    is_zero: bool


def _as_index(r: Ring, x) -> int:
    if isinstance(x, Elem):
        if x.ring is not r:
            raise RingMismatchError(f"element of {x.ring.name} does not belong to {r.name}")
        return x.index
    return int(Elem(r, x).index)


# ---------------------------------------------------------------------------
# characteristic / generators / booleanness


def characteristic(r: Ring) -> int:
    """The additive order of one: least k >= 1 with k*one = zero.  It divides
    |R|, so for each p^e exactly dividing |R|, x = (|R| / p^e)*one has order
    k's p-part, the power of p that multiplying x by p takes to reach zero."""
    k = 1
    for p, e in factorize(r.order):
        x = _multiple(r.add, r.one, r.order // p ** e)
        while x != r.zero:
            x, k = _multiple(r.add, x, p), k * p
    return k


def is_boolean(r: Ring) -> bool:
    """True iff x*x = x for every element, read off the construction at every
    order: Z(m) iff m <= 2, GF(q) iff q = 2, a product iff every factor is,
    M(n,B) or UT(n,B) iff the zero ring or n = 1 over a boolean base (E12
    squares to 0).  A table or quotient ring reads its table's diagonal."""
    if isinstance(r, (ZnRing, GFRing)):
        return r.order <= 2
    if isinstance(r, ProductRing):
        return all(is_boolean(f) for f in r.factors)
    if isinstance(r, MatrixRing):
        return r.order == 1 or (r.n == 1 and is_boolean(r.base))
    _, mul = r.tables()
    return bool((np.diagonal(mul) == np.arange(r.order)).all())


# ---------------------------------------------------------------------------
# units and inverses


def _field_like(r: Ring) -> bool:
    return isinstance(r, GFRing) or (isinstance(r, ZnRing) and is_prime(r.n))


def inverse_by_scan(r: Ring, a: int) -> int | None:
    """Exhaustive two-sided inverse search; the reference invertibility route."""
    if r.order > TABLE_CAP:
        raise BudgetError(f"{r.name}: inverse scan needs order <= {TABLE_CAP}")
    one = r.one
    for y in range(r.order):
        if r.mul(a, y) == one and r.mul(y, a) == one:
            return y
    return None


def inverse_index(r: Ring, a: int) -> int | None:
    """Index of the two-sided inverse of index a, or None if a is not a unit."""
    if isinstance(r, ZnRing):
        if r.n == 1:
            return 0
        return pow(a, -1, r.n) if math.gcd(a, r.n) == 1 else None
    if isinstance(r, GFRing):
        return None if a == 0 else (r.element(a) ** (r.q - 2)).index
    if isinstance(r, ProductRing):
        invs = [inverse_index(f, c) for f, c in zip(r.factors, r.components(a))]
        return None if None in invs else from_digits(invs, r.radices)
    if isinstance(r, MatrixRing):
        inv = _matrix_inverse(r, a)
        # both-sided self-check: cheap, and guards the commutative-base assumption
        if inv is not None and (r.mul(a, inv) != r.one or r.mul(inv, a) != r.one):
            raise ConstructionError(f"{r.name}: adjugate inverse failed its self-check at {a}")
        return inv
    return inverse_by_scan(r, a)


def is_unit(r: Ring, x) -> Elem | None:
    """The two-sided inverse of x as an element, or None when x is not a unit."""
    a = _as_index(r, x)
    inv = inverse_index(r, a)
    return None if inv is None else Elem(r, inv)


def _find_units(rs: list[Ring]) -> None:
    """Find the sorted unit indices of rings of one order in one stacked pass
    over their multiplication tables, and keep each on its ring, read-only.

    Each table alone must show that one-sided and two-sided units agree, one
    is a unit, the units are closed under multiplication, and each unit's
    table inverse is two-sided.  Stacks go in chunks of about _BLOCK_ENTRIES
    entries (a ring at the cap alone, as a view of its table); closure reads
    unit rows at the chunk's unit columns.  An error names its ring, and no
    ring of its chunk keeps a result."""
    def fail(k: int, message: str):
        raise ConstructionError(f"{group[k].name}: {message}")

    for chunk in row_blocks(len(rs), rs[0].order ** 2 if rs else 1):
        group = rs[chunk]
        mul = (np.stack([r.tables()[1] for r in group]) if len(group) > 1
               else group[0].tables()[1][None])
        ones = np.array([r.one for r in group], dtype=mul.dtype)
        is_one = mul == ones[:, None, None]
        umask = is_one.any(axis=2)
        n, flat = mul.shape[1], umask.ravel()
        for bad, text in ((umask != is_one.any(axis=1), "one-sided and two-sided units disagree"),
                          (~umask[range(len(group)), ones], "one is missing from the unit set")):
            if bad.any():
                fail(np.argwhere(bad)[0][0], text)
        owner, units = np.nonzero(umask)  # by ring, then by unit
        cols = np.flatnonzero(umask.any(axis=0))
        inverses, colmask = np.empty(len(units), dtype=np.intp), umask[:, cols]
        for block in row_blocks(len(units), 8 * n):  # intp lookups: _BLOCK_ENTRIES bytes
            at, rows = owner[block], units[block]
            products = mul[at, rows].take(cols, axis=1) + at[:, None] * n  # indices into flat
            unclosed = np.take(flat, products) < colmask[at]  # a unit column, a product no unit
            if unclosed.any():
                i, j = np.argwhere(unclosed)[0]
                fail(at[i], f"units not closed under multiplication at ({rows[i]},{cols[j]})")
            inverses[block] = np.argmax(is_one[at, rows], axis=1)
        for k in np.flatnonzero(mul[owner, inverses, units] != ones[owner])[:1]:
            fail(owner[k], f"unit {units[k]} lacks a two-sided inverse in the set")
        ends = np.cumsum(umask.sum(axis=1)).tolist()
        for r, start, end in zip(group, [0] + ends, ends):
            r._units = _read_only(units[start:end])[0]


def _dense_units(r: Ring) -> np.ndarray:
    """The sorted unit indices: `_find_units` on a stack of one the first time,
    then the stored array.  No sum is taken (`_unit_total` adds the units).
    Rings larger than TABLE_CAP raise BudgetError from `tables()`."""
    if r._units is None:
        _find_units([r])
    return r._units


def _unit_total(r: Ring, units: np.ndarray) -> int:
    """Index of the sum of `_dense_units`, added one unit at a time through the add table."""
    add, total = r.tables()[0], r.zero
    for u in units.tolist():
        total = int(add[total, u])
    return total


def unit_group(r: Ring) -> UnitGroupSummary:
    """Every unit of the ring (`_dense_units`, found once per ring), with count
    and elementwise sum; the sum is added up at each call.  The tests compare
    the table inverses with `inverse_index`.  Rings larger than TABLE_CAP
    raise BudgetError; `unit_census` reads constructed rings' construction."""
    units = _dense_units(r)
    return UnitGroupSummary(units=[Elem(r, u) for u in units.tolist()], count=len(units),
                            sum=Elem(r, _unit_total(r, units)), closure_verified=True)


def _matrix_inverse(r: MatrixRing, a: int) -> int | None:
    """Index of det^-1 * adj of the matrix at index a, or None for a non-unit.

    Cofactor expansion on the base ring's own add, mul and neg, so no base
    table is built; the determinant and the n^2 cofactors (the signed minors
    without row i and column j) share one memo of minors, keyed by rows and
    columns.
    """
    base, n, es = r.base, r.n, r.entries(a)

    @functools.cache
    def det(rows, cols):  # expanded along the top row
        if len(rows) <= 1:
            return es[rows[0] * n + cols[0]] if rows else base.one
        total = 0
        for t, c in enumerate(cols):
            term = base.mul(es[rows[0] * n + c], det(rows[1:], cols[:t] + cols[t + 1:]))
            total = base.add(total, base.neg(term) if t % 2 else term)
        return total

    full = tuple(range(n))
    dinv = inverse_index(base, det(full, full))
    if dinv is None:
        return None
    without = [full[:k] + full[k + 1:] for k in full]
    adj = [det(without[i], without[j]) for j in full for i in full]  # adj[j, i] = cofactor (i, j)
    return r.from_entries([base.mul(dinv, base.neg(m) if (p // n + p % n) % 2 else m)
                           for p, m in enumerate(adj)])


def _signature(r: Ring) -> tuple[int, list[tuple[int, int]]]:
    """sigma(R) = (|J(R)|, [(n_i, q_i)]) with R/J(R) = prod M(n_i, GF(q_i)), by construction.

    Z(m) has |J| = m / rad(m) and one GF(p) per prime p | m; a product
    multiplies the |J|s and joins the lists; M(n,B) has J = M_n(J(B)) and
    M(n, M(m, GF(q))) = M(nm, GF(q)); UT(n,B) has J(B) on the diagonal and
    all above it, and n copies of B/J(B).  A commutative table ring is the
    product of the local rings e*R over its primitive idempotents e, with
    residue fields of size |e*R| / |e*J|, and J from `jacobson_radical`.
    """
    if isinstance(r, ZnRing):
        primes = [p for p, _ in factorize(r.n)]
        return r.n // math.prod(primes), [(1, p) for p in primes]
    if isinstance(r, GFRing):
        return 1, [(1, r.q)]
    if isinstance(r, ProductRing):
        parts = [_signature(f) for f in r.factors]
        return math.prod(j for j, _ in parts), [c for _, cs in parts for c in cs]
    if isinstance(r, MatrixRing):
        j, parts = _signature(r.base)
        n = r.n
        if r.kind == "triangular":
            return j ** n * r.base.order ** (n * (n - 1) // 2), parts * n
        return j ** (n * n), [(n * m, q) for m, q in parts]
    _, mul = r.tables()
    radical = [e.index for e in jacobson_radical(r).members]
    idempotents = np.flatnonzero(np.diagonal(mul) == np.arange(r.order))[1:]  # 0 comes first
    meets = mul[np.ix_(idempotents, idempotents)]
    atoms = idempotents[((meets == 0) | (meets == idempotents[:, None])).all(axis=1)]
    return len(radical), [(1, len(np.unique(mul[e])) // len(np.unique(mul[e, radical])))
                          for e in atoms.tolist()]


def _element_sum(r: Ring) -> int:
    """Index of the sum of all elements of r: Z(m) sums to m(m-1)/2, GF(q) to 0
    unless q = 2; a product or matrix ring sums each part |R| / |part| times
    its ring's sum; a table ring, never above TABLE_CAP, adds up its elements."""
    if isinstance(r, ZnRing):
        return r.n // 2 if r.n % 2 == 0 else 0
    if isinstance(r, GFRing):
        return r.one if r.q == 2 else 0
    if isinstance(r, (ProductRing, MatrixRing)):
        parts = r.factors if isinstance(r, ProductRing) else [r.base] * len(r.stored)
        return from_digits([_multiple(f.add, _element_sum(f), r.order // f.order)
                            for f in parts], r.radices)
    return functools.reduce(r.add, range(r.order), 0)


def _triangular_census(r: MatrixRing) -> tuple[int, int]:
    """(unit count, unit sum index) of a triangular ring, in closed form.

    A triangular matrix is a unit iff its diagonal entries are, so the
    units are a product set: a base unit in each diagonal cell and any base
    element in each upper cell, count = |U(B)|^n * |B|^(upper cells) in
    all.  So a diagonal cell sums count / |U(B)| copies of sum U(B), and an
    upper cell count / |B| copies of sum B, each multiple by doubling.
    """
    base, badd = r.base, r.base.add
    base_count, base_sum = _structural_census(base)
    count = base_count ** r.n * base.order ** (len(r.stored) - r.n)
    diagonal = _multiple(badd, base_sum, count // base_count)
    upper = _multiple(badd, _element_sum(base), count // base.order)
    return count, from_digits([diagonal if i == j else upper for (i, j) in r.stored], r.radices)


def _structural_census(r: Ring) -> tuple[int, int]:
    """(unit count, unit sum index) by recursion on the construction; a table
    ring, never above TABLE_CAP, takes the dense route.

    A product sums componentwise, each factor's sum taken count / (its
    count) times; M(1,B) and UT(1,B) are B, index for index.  Otherwise
    GL_n(B) -> GL_n(B/J) is onto with kernel I + M_n(J), so a ring with
    signature (|J|, [(n_i, q_i)]) has |J| * prod |GL(n_i, q_i)| units.
    Their sum is 0 unless the order is at most 2, where it is the unity:
    in Z(m) and GF(q), u -> -u pairs the units with no fixed point unless
    2 = 0, and then c * sum = sum for a unit c != 1; in M(n,B) with n >= 2
    the transvection I + E_ij permutes the units, so E_ij * sum = 0 for
    every i != j, and every row of the sum is 0.
    """
    if isinstance(r, ProductRing):
        parts = [_structural_census(f) for f in r.factors]
        count = math.prod(c for c, _ in parts)
        return count, from_digits([_multiple(f.add, s, count // c)
                                   for f, (c, s) in zip(r.factors, parts)], r.radices)
    if isinstance(r, MatrixRing) and r.n == 1:
        return _structural_census(r.base)
    if isinstance(r, MatrixRing) and r.kind == "triangular":
        return _triangular_census(r)
    if isinstance(r, (ZnRing, GFRing, MatrixRing)):
        j, parts = _signature(r)
        return j * math.prod(gl_order(n, q) for n, q in parts), (r.one if r.order <= 2 else 0)
    units = _dense_units(r)
    return len(units), _unit_total(r, units)


def unit_census(r: Ring) -> tuple[int, Elem]:
    """(unit count, unit sum): a constructed ring reads its construction at every
    order, with no tables; a table or quotient ring reads `_dense_units`."""
    count, total = _structural_census(r)
    return count, Elem(r, total)


def unit_count(r: Ring) -> int:
    """Number of units, by the route `unit_census` takes for the ring's kind."""
    return _structural_census(r)[0]


def unit_sum(r: Ring) -> Elem:
    """Sum of all units, by the route `unit_census` takes for the ring's kind."""
    return Elem(r, _structural_census(r)[1])


def unit_first_column_classes(r: MatrixRing) -> dict[tuple[int, ...], int]:
    """Partition the invertible matrices by first column; count each class.

    Returns {first-column entries: class size} over all invertible
    matrices, in lexicographic order of the columns, read off the dense
    unit indices of `_dense_units` (so a ring above TABLE_CAP raises
    BudgetError).  The classes partition the general linear group, which
    is how the even-count argument for characteristic-2 fields proceeds.
    """
    if not isinstance(r, MatrixRing) or r.kind != "matrix":
        raise ConstructionError("first-column classes are defined for full matrix rings")
    first = digit_array(_dense_units(r), r.radices)[:, ::r.n]  # cell (i, 0) is digit i*n
    cols, sizes = np.unique(first, axis=0, return_counts=True)
    return dict(zip(map(tuple, cols.tolist()), sizes.tolist()))


def is_division_ring(r: Ring) -> bool:
    """True iff every nonzero element is a unit (and the ring is not the zero ring)."""
    if r.order == 1:
        return False
    return unit_count(r) == r.order - 1


# ---------------------------------------------------------------------------
# the general linear group order formula


def gl_order(n: int, q: int) -> int:
    """|GL_n(GF(q))| = prod_{k=1..n} (q^n - q^(n-k)), exact integers."""
    if type(n) is not int or n < 1:
        raise ConstructionError(f"gl_order: matrix size must be a positive integer, got {n}")
    if type(q) is not int or prime_power(q) is None:
        raise ConstructionError(f"gl_order: field size must be a prime power, got {q}")
    qn = q ** n
    total = 1
    for k in range(1, n + 1):
        total *= qn - q ** (n - k)
    return total


# ---------------------------------------------------------------------------
# Jacobson radical


def _nil_radical(r: Ring) -> np.ndarray:
    """The sorted member indices of J(R) = { a : every element of R*a is nilpotent },
    read from the dense tables of a table or quotient ring.

    In a finite ring this equals the one-sided { a : 1 - x*a is a unit for
    all x } and the two-sided { a : 1 - x*a*y is a unit for all x, y }
    (Lam, section 4, and the module docstring), yet it reads no units.  A
    nilpotent index is at most floor(log2 order) (module docstring), so the
    nilpotent elements are those whose 2^k-th power is zero for the least k
    with 2^k >= floor(log2 order), found by k gathers through the table's
    diagonal; a nilpotent a (no other can be, as a = 1*a) is a member iff
    the column `nil[mul[:, a]]` is all true, and the columns go in blocks.
    The ideal property of the result is verified before returning.
    """
    n = r.order
    add, mul = r.tables()
    square, power = np.diagonal(mul), np.arange(n)
    for _ in range((n.bit_length() - 2).bit_length()):
        power = square[power]
    nil = power == r.zero
    cand, mmask = np.flatnonzero(nil), np.zeros(n, dtype=bool)
    for cols in row_blocks(len(cand), n):
        mmask[cand[cols]] = nil[mul.take(cand[cols], axis=1)].all(axis=0)
    _check_ideal(add, mul, mmask, f"{r.name}: radical")
    return np.flatnonzero(mmask)


def _radical_indices(r: Ring) -> np.ndarray:
    """The sorted member indices of J(R), by recursion on the construction.

    J(Z/m) is rad(m)*Z/m and J(GF(q)) = 0; J(R x S) = J(R) x J(S);
    J(M_n(B)) = M_n(J(B)), and J(UT_n(B)) holds J(B) on the diagonal and
    all of B above it (Lam, sections 4 and 5).  Each factor or stored cell
    is one digit of the index, so the members are one outer sum per digit.
    A table or quotient ring takes `_nil_radical`.
    """
    if isinstance(r, ZnRing):
        return np.arange(0, r.n, math.prod(p for p, _ in factorize(r.n)))
    if isinstance(r, GFRing):
        return np.zeros(1, dtype=np.intp)
    if isinstance(r, ProductRing):
        digits = [_radical_indices(f) for f in r.factors]
    elif isinstance(r, MatrixRing):
        base, everything = _radical_indices(r.base), np.arange(r.base.order)
        digits = [base if r.kind == "matrix" or i == j else everything for (i, j) in r.stored]
    else:
        return _nil_radical(r)
    members = np.zeros(1, dtype=np.intp)
    for digit, place in zip(digits, place_values(r.radices)):
        members = np.add.outer(digit * place, members).ravel()
    return np.sort(members)


def jacobson_radical(r: Ring) -> RadicalSummary:
    """J(R) as a sorted member list, by its kind's route: a constructed ring reads
    its construction (`_radical_indices`), a table or quotient ring its tables
    (`_nil_radical`).  Every ring above TABLE_CAP raises BudgetError."""
    if r.order > TABLE_CAP:
        raise BudgetError(f"{r.name} has order {r.order}, above the dense-table cap {TABLE_CAP}")
    members = _radical_indices(r).tolist()
    return RadicalSummary(members=[Elem(r, a) for a in members], is_zero=(members == [0]))


# ---------------------------------------------------------------------------
# fields: multiplicative orders and primitive elements


def multiplicative_order(r: Ring, x) -> int:
    """Least k >= 1 with x^k = one; defined for units only."""
    a = _as_index(r, x)
    acc, k = a, 1
    while acc != r.one:
        acc = r.mul(acc, a)
        k += 1
        if k > r.order:
            raise ConstructionError(f"{r.name}: {a} is not a unit, so has no multiplicative order")
    return k


def primitive_element(f: Ring) -> Elem:
    """The least-encoded generator of a finite field's unit group.

    Scans indices upward for the first element of multiplicative order
    q - 1.  Check T4 tests the geometric-sum identity on it:
    sum_{k=0}^{q-2} alpha^k equals 0 for q > 2 and equals 1 for q = 2.
    """
    if not _field_like(f):
        raise ConstructionError(f"{f.name} is not a field")
    q = f.order
    for a in range(1, q):
        if multiplicative_order(f, a) == q - 1:
            return Elem(f, a)
    raise ConstructionError(f"{f.name}: no primitive element found")  # pragma: no cover
