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
nilpotent iff its 2^k-th power is 0 for 2^k >= floor(log2 n).  So the
test is k squarings of the table's diagonal and one pass over the table,
O(n^2), against O(n^3) for the two-sided 1 - x*a*y scan, which the tests
keep as the reference.

Dense routes (unit group, radical) read the numpy tables of
`finring.rings`, up to TABLE_CAP (order 4096).  Above it the unit census
is structural, with no order bound: from the construction it reads
sigma(R) = (|J(R)|, [(n_i, q_i)]), R/J(R) = prod M(n_i, GF(q_i)), so
|U(R)| = |J| * prod |GL(n_i, q_i)|, and the unit sum (`_structural_census`).
T5, T6 and T8 check those formulas by brute force within the cap, where
the dense route answers.  Everything operates on integer element indices
and is a pure function of the ring, so results are deterministic and
safe to compute concurrently.  Exhaustive scans (unit groups and radicals
up to TABLE_CAP, the booleanness scan up to 2**20) raise BudgetError past
their bounds rather than silently truncating.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConstructionError, RingMismatchError
from .rings import (
    DEFAULT_ORDER_CAP,
    TABLE_CAP,
    Elem,
    GFRing,
    MatrixRing,
    ProductRing,
    Ring,
    ZnRing,
    _check_ideal,
    _multiple,
    digit_array,
    factorize,
    from_digits,
    is_commutative,  # re-exported; it also vets matrix-ring bases there
    is_prime,
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
    """The additive order of one: least k >= 1 with k*one = zero."""
    acc, k = r.one, 1
    while acc != 0:
        acc = r.add(acc, r.one)
        k += 1
    return k


def is_boolean(r: Ring) -> bool:
    """True iff x*x = x for every element: up to DEFAULT_ORDER_CAP a scan that
    stops at the first failure, and above it read off the construction: Z(m)
    iff m <= 2, GF(q) iff q = 2, a product iff every factor is, M(n,B) or
    UT(n,B) iff the zero ring or n = 1 over a boolean base (E12 squares to 0)."""
    if r.order <= DEFAULT_ORDER_CAP:
        return all(r.mul(x, x) == x for x in range(r.order))
    if isinstance(r, (ZnRing, GFRing)):
        return r.order <= 2
    if isinstance(r, ProductRing):
        return all(is_boolean(f) for f in r.factors)
    if isinstance(r, MatrixRing):
        return r.order == 1 or (r.n == 1 and is_boolean(r.base))
    raise BudgetError(f"{r.name}: booleanness scan needs order <= {DEFAULT_ORDER_CAP}")


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


def unit_group(r: Ring) -> UnitGroupSummary:
    """Every unit of the ring, with count and elementwise sum.

    Units, their inverses and the group laws are read from the dense
    multiplication table alone: one-sided and two-sided units agree, one
    is in the set, the set is closed under multiplication, and each
    unit's table inverse is two-sided.  The tests compare the inverses
    with `inverse_index`.  Rings larger than TABLE_CAP raise BudgetError
    from `tables()`; `unit_census` answers them from their construction.
    """
    add, mul = r.tables()
    is_one = mul == r.one
    umask = is_one.any(axis=1)
    if not (umask == is_one.any(axis=0)).all():
        raise ConstructionError(f"{r.name}: one-sided and two-sided units disagree")
    if not umask[r.one]:
        raise ConstructionError(f"{r.name}: one is missing from the unit set")
    units = np.flatnonzero(umask)
    inverses = np.empty(len(units), dtype=np.intp)
    for block in row_blocks(len(units), r.order):
        rows = mul[units[block]]
        open_pairs = np.argwhere(~umask[rows[:, units]])
        if len(open_pairs):
            i, j = open_pairs[0]
            raise ConstructionError(f"{r.name}: units not closed under multiplication at "
                                    f"({units[block][i]},{units[j]})")
        inverses[block] = np.argmax(rows == r.one, axis=1)
    one_sided = np.flatnonzero(mul[inverses, units] != r.one)
    if len(one_sided):
        raise ConstructionError(
            f"{r.name}: unit {units[one_sided[0]]} lacks a two-sided inverse in the set")
    total = r.zero
    for u in units.tolist():
        total = int(add[total, u])
    return UnitGroupSummary(units=[Elem(r, u) for u in units.tolist()], count=len(units),
                            sum=Elem(r, total), closure_verified=True)


def _scalar_ops(base: Ring):
    """The base ring's elementwise (add, mul, neg) as its scalar operations on object arrays."""
    return (np.frompyfunc(base.add, 2, 1), np.frompyfunc(base.mul, 2, 1),
            np.frompyfunc(base.neg, 1, 1))


def _determinants(ops, es: np.ndarray, n: int) -> np.ndarray:
    """Determinant of each row of `es` (row-major n x n entries over one base ring).

    `ops` is the base ring's elementwise (add, mul, neg) on arrays of
    entries: `_scalar_ops` for the inverse of one matrix (the tests also
    run it on gathers through the base tables).  Cofactor expansion along
    the first row, run on whole columns; n = 1 reads no `ops`.  Each minor,
    a set of columns on the bottom rows, is computed once and shared by
    every expansion path through it.  It is the one determinant in the
    package: `_matrix_inverse` takes its cofactors through it.
    """
    if n == 1:
        return es[:, 0]
    add, mul, neg = ops
    minors = {}

    def det(cols):  # the minor on the last len(cols) rows and the columns `cols`
        if len(cols) == 1:
            return es[:, (n - 1) * n + cols[0]]
        if cols not in minors:
            row = (n - len(cols)) * n
            total = None
            for t, c in enumerate(cols):
                term = mul(es[:, row + c], det(cols[:t] + cols[t + 1:]))
                if t % 2:
                    term = neg(term)
                total = term if total is None else add(total, term)
            minors[cols] = total
        return minors[cols]

    return det(tuple(range(n)))


def _matrix_inverse(r: MatrixRing, a: int) -> int | None:
    """Index of det^-1 * adj of the matrix at index a, or None for a non-unit.

    The determinant and, in one batch, the n^2 cofactors (the signed
    minors without row i and column j) go through `_determinants` on the
    base ring's scalar operations, so no base table is built.
    """
    base, n = r.base, r.n
    ops = _scalar_ops(base)
    es = np.array([r.entries(a)], dtype=object)
    dinv = inverse_index(base, _determinants(ops, es, n)[0])
    if dinv is None:
        return None
    if n == 1:
        return r.from_entries([dinv])
    # adj[j, i] is the cofactor (i, j), so row-major position p has sign (-1)^(p//n + p%n)
    minors = [[k for k in range(n * n) if k // n != i and k % n != j]
              for j in range(n) for i in range(n)]
    adj = _determinants(ops, es[0, minors], n - 1)
    odd = [(p // n + p % n) % 2 for p in range(n * n)]
    _, mul, neg = ops
    return r.from_entries(mul(dinv, np.where(odd, neg(adj), adj)).tolist())


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


def _dense_census(r: Ring) -> tuple[int, int]:
    summary = unit_group(r)
    return summary.count, summary.sum.index


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
    upper = _multiple(badd, functools.reduce(badd, range(base.order), 0), count // base.order)
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
    return _dense_census(r)


def _unit_census(r: Ring) -> tuple[int, int]:
    return _dense_census(r) if r.order <= TABLE_CAP else _structural_census(r)


def unit_census(r: Ring) -> tuple[int, Elem]:
    """(unit count, unit sum): `unit_group` at or below TABLE_CAP, and above it
    the structural census, read off the ring's construction with no tables."""
    count, total = _unit_census(r)
    return count, Elem(r, total)


def unit_count(r: Ring) -> int:
    """Number of units: dense at or below TABLE_CAP, structural above it (see `unit_census`)."""
    return _unit_census(r)[0]


def unit_sum(r: Ring) -> Elem:
    """Sum of all units: dense at or below TABLE_CAP, structural above it (see `unit_census`)."""
    return Elem(r, _unit_census(r)[1])


def unit_first_column_classes(r: MatrixRing) -> dict[tuple[int, ...], int]:
    """Partition the invertible matrices by first column; count each class.

    Returns {first-column entries: class size} over all invertible
    matrices, in lexicographic order of the columns, read off the dense
    `unit_group` (so a ring above TABLE_CAP raises BudgetError).  The
    classes partition the general linear group, which is how the
    even-count argument for characteristic-2 fields proceeds.
    """
    if not isinstance(r, MatrixRing) or r.kind != "matrix":
        raise ConstructionError("first-column classes are defined for full matrix rings")
    units = [u.index for u in unit_group(r).units]
    first = digit_array(units, r.radices)[:, ::r.n]  # cell (i, 0) is digit i*n
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


def jacobson_radical(r: Ring) -> RadicalSummary:
    """J(R) = { a : every element of R*a is nilpotent }.

    In a finite ring this equals the one-sided { a : 1 - x*a is a unit for
    all x } and the two-sided { a : 1 - x*a*y is a unit for all x, y }
    (Lam, section 4, and the module docstring), yet it reads no units.  A
    nilpotent index is at most floor(log2 order) (module docstring), so the
    nilpotent elements are those whose 2^k-th power is zero for the least k
    with 2^k >= floor(log2 order), found by k gathers through the table's
    diagonal; a is a member iff the column `nil[mul[:, a]]` is all true, and
    the columns go in blocks.  The ideal property of the result is verified
    before returning.
    """
    n = r.order
    add, mul = r.tables()
    square, power = np.diagonal(mul), np.arange(n)
    for _ in range((n.bit_length() - 2).bit_length()):
        power = square[power]
    nil = power == r.zero
    mmask = np.empty(n, dtype=bool)
    for cols in row_blocks(n, n):
        mmask[cols] = nil[mul[:, cols]].all(axis=0)
    _check_ideal(add, mul, mmask, f"{r.name}: radical")
    members = np.flatnonzero(mmask).tolist()
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
