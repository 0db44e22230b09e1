"""Structural invariants of finite rings.

Characteristic, commutativity, booleanness, the unit group and its sum,
the Jacobson radical, semisimplicity, general linear group orders, and
primitive elements of finite fields.

The radical uses the one-sided criterion J(R) = {a : 1 - x*a is a unit for
every x} (Lam, *A First Course in Noncommutative Rings*, section 4, where
"unit" reads "left-invertible").  In a finite ring a left inverse is
two-sided: if y*z = 1, then z*t = 0 forces t = y*z*t = 0, so t -> z*t is
injective, hence onto, and z*w = 1 for some w, with y = y*z*w = w.  The
criterion is one pass over the multiplication table, O(n^2), against
O(n^3) for the two-sided 1 - x*a*y scan, which the tests keep as the
reference.

Dense routes (unit group, radical) read the numpy tables of
`finring.rings`; the streaming census of matrix rings above the table cap
walks the unit entries in numpy blocks.  Everything operates on integer
element indices and is a pure function of the ring, so results are
deterministic and safe to compute concurrently.  Exhaustive scans are
bounded: full unit groups and radicals up to order 4096, streaming unit
sums up to 2**20 elements; past those bounds the functions raise
BudgetError rather than silently truncating.
"""

from __future__ import annotations

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
    is_commutative,  # re-exported; it also vets matrix-ring bases there
    is_prime,
    matrix_adjugate,
    matrix_determinant,
    prime_power,
    row_blocks,
)

# Full unit-group / radical enumeration bound.
UNIT_SCAN_CAP = TABLE_CAP

# Streaming scans (unit sums of lazy matrix rings) iterate at most this many
# elements.
STREAM_CAP = DEFAULT_ORDER_CAP


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
    i = int(x)
    if not 0 <= i < r.order:
        raise ValueError(f"index {i} out of range for {r.name}")
    return i


# ---------------------------------------------------------------------------
# characteristic / generators / booleanness


def characteristic(r: Ring) -> int:
    """The additive order of one: least k >= 1 with k*one = zero."""
    acc, k = r.one, 1
    while acc != 0:
        acc = r.add(acc, r.one)
        k += 1
    return k


def ring_generators(r: Ring) -> list[int]:
    """Indices of a finite generating set of r as a unital ring.

    Matrix and triangular rings are generated by matrix units carrying base
    generators, so pairwise checks over this set replace whole-ring scans
    for lazily enumerated rings.
    """
    if isinstance(r, ZnRing):
        return [r.one]
    if isinstance(r, GFRing):
        return [r.one] if r.s == 1 else [r.p]
    if isinstance(r, ProductRing):
        gens = []
        for t, f in enumerate(r.factors):
            for g in ring_generators(f):
                comps = [0] * len(r.factors)
                comps[t] = g
                gens.append(r.from_components(comps))
        return gens
    if isinstance(r, MatrixRing):
        base_gens = set(ring_generators(r.base))
        base_gens.add(r.base.one)
        n = r.n
        gens = []
        for (i, j) in r.stored:
            for g in base_gens:
                es = [0] * (n * n)
                es[i * n + j] = g
                gens.append(r.from_entries(es))
        return gens
    if r.order > TABLE_CAP:
        raise BudgetError(f"{r.name}: no generating set known below order {TABLE_CAP}")
    return list(range(r.order))


def is_boolean(r: Ring) -> bool:
    """True iff x*x = x for every element (scan stops at the first failure)."""
    if r.order > STREAM_CAP:
        raise BudgetError(f"{r.name}: booleanness scan needs order <= {STREAM_CAP}")
    return all(r.mul(x, x) == x for x in range(r.order))


# ---------------------------------------------------------------------------
# units and inverses


def _field_like(r: Ring) -> bool:
    return isinstance(r, GFRing) or (isinstance(r, ZnRing) and is_prime(r.n))


def inverse_by_scan(r: Ring, a: int) -> int | None:
    """Exhaustive two-sided inverse search; the reference invertibility route."""
    if r.order > UNIT_SCAN_CAP:
        raise BudgetError(f"{r.name}: inverse scan needs order <= {UNIT_SCAN_CAP}")
    one = r.one
    for y in range(r.order):
        if r.mul(a, y) == one and r.mul(y, a) == one:
            return y
    return None


def _matrix_inverse_adjugate(r, a: int) -> int | None:
    """Determinant-is-unit test with the inverse built as det^-1 * adjugate."""
    es = r.entries(a)
    d = matrix_determinant(r.base, es, r.n)
    dinv = inverse_index(r.base, d)
    if dinv is None:
        return None
    adj = matrix_adjugate(r.base, es, r.n)
    bm = r.base.mul
    inv = r.from_entries([bm(dinv, e) for e in adj])
    # both-sided self-check: cheap, and guards the commutative-base assumption
    if r.mul(a, inv) != r.one or r.mul(inv, a) != r.one:
        raise ConstructionError(f"{r.name}: adjugate inverse failed its self-check at {a}")
    return inv


def matrix_inverse_row_reduce(r, a: int) -> int | None:
    """Inverse by Gauss-Jordan elimination; requires a field base.

    An independent second route to invertibility: it never consults the
    determinant, so agreement with the adjugate route is a real check.
    """
    if not isinstance(r, MatrixRing):
        raise ConstructionError("row reduction applies to matrix and triangular rings")
    base = r.base
    if not _field_like(base):
        raise ConstructionError(f"{r.name}: row reduction needs a field base")
    n = r.n
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
    flat = [v for row in right for v in row]
    return r.from_entries(flat)


def inverse_index(r: Ring, a: int) -> int | None:
    """Index of the two-sided inverse of index a, or None if a is not a unit."""
    if isinstance(r, ZnRing):
        if r.n == 1:
            return 0
        return pow(a, -1, r.n) if math.gcd(a, r.n) == 1 else None
    if isinstance(r, GFRing):
        return None if a == 0 else (r.element(a) ** (r.q - 2)).index
    if isinstance(r, ProductRing):
        invs = []
        for f, c in zip(r.factors, r.components(a)):
            v = inverse_index(f, c)
            if v is None:
                return None
            invs.append(v)
        return r.from_components(invs)
    if isinstance(r, MatrixRing):
        return _matrix_inverse_adjugate(r, a)
    return inverse_by_scan(r, a)


def is_unit(r: Ring, x) -> Elem | None:
    """The two-sided inverse of x as an element, or None when x is not a unit."""
    a = _as_index(r, x)
    inv = inverse_index(r, a)
    return None if inv is None else Elem(r, inv)


def _unit_mask(r: Ring) -> np.ndarray:
    """Membership mask of the units, read from the dense multiplication table."""
    is_one = r.tables()[1] == r.one
    right = is_one.any(axis=1)
    if not (right == is_one.any(axis=0)).all():
        raise ConstructionError(f"{r.name}: one-sided and two-sided units disagree")
    return right


def unit_group(r: Ring) -> UnitGroupSummary:
    """Every unit of the ring, with count and elementwise sum.

    Units, their inverses and the group laws are read from the dense
    multiplication table: closure under multiplication, one in the set,
    and a two-sided inverse for each unit, which must also agree with
    `inverse_index` (an independent route: the adjugate on matrix rings).
    Rings larger than UNIT_SCAN_CAP raise BudgetError; use `unit_sum` /
    `unit_count` for streaming totals of lazy matrix rings.
    """
    if r.order > UNIT_SCAN_CAP:
        raise BudgetError(
            f"{r.name}: unit group enumerable only up to order {UNIT_SCAN_CAP}; "
            "unit_sum/unit_count stream larger matrix rings")
    add, mul = r.tables()
    umask = _unit_mask(r)
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
    for u, inv in zip(units.tolist(), inverses.tolist()):
        if inverse_index(r, u) != inv:
            raise ConstructionError(
                f"{r.name}: inverse_index disagrees with the table inverse {inv} of unit {u}")
        total = int(add[total, u])
    return UnitGroupSummary(units=[Elem(r, u) for u in units.tolist()], count=len(units),
                            sum=Elem(r, total), closure_verified=True)


def _base_unit_mask(base: Ring) -> np.ndarray:
    """Which base-ring indices are units, one `inverse_index` per non-field index."""
    if _field_like(base):
        return np.arange(base.order) != 0
    return np.array([inverse_index(base, u) is not None for u in range(base.order)])


def _value_grid(m: int, k: int) -> np.ndarray:
    """Every k-tuple over range(m), as the rows of an (m^k, k) array."""
    return np.indices((m,) * k, dtype=np.intp).reshape(k, m ** k).T


def _determinants(base: Ring, es: np.ndarray, n: int) -> np.ndarray:
    """Determinant of each row of `es` (row-major n x n entries over `base`).

    The cofactor expansion of `matrix_determinant`, run on whole columns
    through the base ring's tables (built only for n >= 2).
    """
    if n == 1:
        return es[:, 0]
    badd, bmul = base.tables()
    bneg = np.argmax(badd == 0, axis=1)

    def det(rows, cols):
        if len(rows) == 1:
            return es[:, rows[0] * n + cols[0]]
        total = None
        for t, c in enumerate(cols):
            term = bmul[es[:, rows[0] * n + c], det(rows[1:], cols[:t] + cols[t + 1:])]
            if t % 2:
                term = bneg[term]
            total = term if total is None else badd[total, term]
        return total

    return det(tuple(range(n)), tuple(range(n)))


def _grid_blocks(r: MatrixRing, outer: list[int], outer_rows: np.ndarray, inner: list[int]):
    """Matrices of r as blocks of row-major entries, about _BLOCK_ENTRIES / 16 each.

    The `outer` cells run over the rows of `outer_rows` in order, and for
    each such row the `inner` cells run over every value; a block holds
    every matrix for a run of consecutive outer rows.  One array is
    refilled between yields, small enough that it and the census
    temporaries stay in cache.
    """
    inner_grid = _value_grid(r.base.order, len(inner))
    chunks = row_blocks(len(outer_rows), 16 * len(inner_grid) * r.cells)
    step = chunks[0].stop if chunks else 0
    block = np.zeros((step * len(inner_grid), r.cells), dtype=np.intp)
    block[:, inner] = np.tile(inner_grid, (step, 1))
    for chunk in chunks:
        rows = outer_rows[chunk]
        view = block[:len(rows) * len(inner_grid)]
        view[:, outer] = np.repeat(rows, len(inner_grid), axis=0)
        yield view


def _invertible_blocks(r: MatrixRing):
    """The invertible matrices of a full matrix ring, as blocks of row-major entries.

    Matrices with an all-zero first column cannot be invertible, so that
    column is skipped (first-column pruning).  The other first columns run
    in lexicographic order with the remaining cells over all values, and
    the rows whose determinant is a unit of the base are kept.
    """
    n, base = r.n, r.base
    base_units = _base_unit_mask(base)
    first = [i * n for i in range(n)]
    rest = [k for k in range(r.cells) if k % n]
    for block in _grid_blocks(r, first, _value_grid(base.order, n)[1:], rest):
        yield block[base_units[_determinants(base, block, n)]]


def _triangular_unit_blocks(r: MatrixRing):
    """The units of a triangular ring as blocks of row-major entries.

    A triangular matrix is a unit iff its diagonal entries are, so the
    diagonal runs over every tuple of base units and the upper cells over
    all values.
    """
    base, n = r.base, r.n
    diag_units = np.flatnonzero(_base_unit_mask(base))
    uppers = [i * n + j for (i, j) in r.stored if i != j]
    total = len(diag_units) ** n * base.order ** len(uppers)
    if total > STREAM_CAP:
        raise BudgetError(f"{r.name}: streaming unit scan needs at most {STREAM_CAP} units")
    diagonal = [i * n + i for i in range(n)]
    diags = diag_units[_value_grid(len(diag_units), n)]
    return _grid_blocks(r, diagonal, diags, uppers)


def _multiple(add, v: int, k: int) -> int:
    """k*v in an additive group, by doubling."""
    total = 0
    while k:
        if k & 1:
            total = add(total, v)
        v = add(v, v)
        k >>= 1
    return total


def _stream_units(r: MatrixRing) -> tuple[int, int]:
    """(unit count, unit sum index) of a matrix ring, streamed in numpy blocks.

    Each block adds a per-value count of every cell (one `bincount`); a
    cell's sum is then the sum over values v of (count of v) * v in the
    base ring.
    """
    if r.kind == "triangular":
        blocks = _triangular_unit_blocks(r)
    else:
        if r.order > STREAM_CAP:
            raise BudgetError(f"{r.name}: streaming unit scan needs order <= {STREAM_CAP}")
        blocks = _invertible_blocks(r)
    m, badd = r.base.order, r.base.add
    offsets = np.arange(r.cells) * m
    count, counts = 0, np.zeros(r.cells * m, dtype=np.int64)
    for units in blocks:
        count += len(units)
        counts += np.bincount((units + offsets).ravel(), minlength=r.cells * m)
    sums = []
    for cell in counts.reshape(r.cells, m).tolist():
        total = 0
        for v, k in enumerate(cell):
            if v and k:
                total = badd(total, _multiple(badd, v, k))
        sums.append(total)
    return count, r.from_entries(sums)


def _unit_census(r: Ring) -> tuple[int, int]:
    if r.order <= UNIT_SCAN_CAP:
        summary = unit_group(r)
        return summary.count, summary.sum.index
    if isinstance(r, MatrixRing):
        return _stream_units(r)
    raise BudgetError(f"{r.name}: no streaming unit scan for this ring kind")


def unit_census(r: Ring) -> tuple[int, Elem]:
    """(unit count, unit sum) in one pass; streams matrix-shaped rings
    above the dense cap rather than materializing their tables."""
    count, total = _unit_census(r)
    return count, Elem(r, total)


def unit_count(r: Ring) -> int:
    """Number of units; streams matrix-shaped rings above the dense cap."""
    return _unit_census(r)[0]


def unit_sum(r: Ring) -> Elem:
    """Sum of all units; streams matrix-shaped rings above the dense cap."""
    return Elem(r, _unit_census(r)[1])


def unit_first_column_classes(r: MatrixRing) -> dict[tuple[int, ...], int]:
    """Partition the invertible matrices by first column; count each class.

    Returns {first-column entries: class size} over all invertible
    matrices.  The classes partition the general linear group, which is
    how the even-count argument for characteristic-2 fields proceeds.
    """
    if not isinstance(r, MatrixRing) or r.kind != "matrix":
        raise ConstructionError("first-column classes are defined for full matrix rings")
    if r.order > STREAM_CAP:
        raise BudgetError(f"{r.name}: class scan needs order <= {STREAM_CAP}")
    first = [i * r.n for i in range(r.n)]
    classes = {}
    for units in _invertible_blocks(r):
        cols, sizes = np.unique(units[:, first], axis=0, return_counts=True)
        classes.update(zip(map(tuple, cols.tolist()), sizes.tolist()))
    return classes


def is_division_ring(r: Ring) -> bool:
    """True iff every nonzero element is a unit (and the ring is not the zero ring)."""
    if r.order == 1:
        return False
    return unit_count(r) == r.order - 1


# ---------------------------------------------------------------------------
# the general linear group order formula


def gl_order(n: int, q: int) -> int:
    """|GL_n(GF(q))| = prod_{k=1..n} (q^n - q^(n-k)), exact integers."""
    if not isinstance(n, int) or n < 1:
        raise ConstructionError(f"gl_order: matrix size must be a positive integer, got {n}")
    if not isinstance(q, int) or prime_power(q) is None:
        raise ConstructionError(f"gl_order: field size must be a prime power, got {q}")
    qn = q ** n
    total = 1
    for k in range(1, n + 1):
        total *= qn - q ** (n - k)
    return total


# ---------------------------------------------------------------------------
# Jacobson radical


def jacobson_radical(r: Ring) -> RadicalSummary:
    """J(R) = { a : 1 - x*a is a unit for all x }.

    This one-sided criterion (Lam, section 4) equals the two-sided
    { a : 1 - x*a*y is a unit for all x, y } because in a finite ring a
    one-sided inverse is two-sided (see the module docstring).  The unit
    set is read once from the multiplication table as a membership
    bitmap, and a is a member iff the column `umask[one_minus[mul[:, a]]]`
    is all true; the columns go in blocks.  The ideal property of the
    result is verified before returning.
    """
    n = r.order
    if n > TABLE_CAP:
        raise BudgetError(f"{r.name}: radical computed only up to order {TABLE_CAP}")
    add, mul = r.tables()
    umask = _unit_mask(r)
    neg = np.argmax(add == 0, axis=1)
    one_minus = add[r.one][neg]          # one_minus[t] = 1 - t
    mmask = np.empty(n, dtype=bool)
    for cols in row_blocks(n, n):
        mmask[cols] = umask[one_minus[mul[:, cols]]].all(axis=0)
    midx = np.flatnonzero(mmask)
    members = midx.tolist()
    if not mmask[add[np.ix_(midx, midx)]].all():
        raise ConstructionError(f"{r.name}: radical members are not closed under addition")
    if not (mmask[mul[:, midx]].all() and mmask[mul[midx, :]].all()):
        raise ConstructionError(f"{r.name}: radical members do not absorb multiplication")
    return RadicalSummary(members=[Elem(r, a) for a in members], is_zero=(members == [0]))


def is_semisimple(r: Ring) -> bool:
    """True iff the Jacobson radical is {zero} (finite rings are artinian)."""
    return jacobson_radical(r).is_zero


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
    q - 1 and asserts the geometric-sum identity on the way out:
    sum_{k=0}^{q-2} alpha^k equals 0 for q > 2 and equals 1 for q = 2.
    """
    if not _field_like(f):
        raise ConstructionError(f"{f.name} is not a field")
    q = f.order
    for a in range(1, q):
        if multiplicative_order(f, a) != q - 1:
            continue
        s, acc = 0, f.one
        for _ in range(q - 1):
            s = f.add(s, acc)
            acc = f.mul(acc, a)
        expected = f.one if q == 2 else 0
        if s != expected:
            raise ConstructionError(f"{f.name}: geometric-sum identity failed at alpha={a}")
        return Elem(f, a)
    raise ConstructionError(f"{f.name}: no primitive element found")  # pragma: no cover
