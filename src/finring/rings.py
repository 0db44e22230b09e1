"""Finite unital rings addressed by canonical integer element indices.

Every ring here is the set {0, 1, ..., order-1} together with formula- or
table-backed arithmetic; index 0 is always the additive zero.  The concrete
families (integers mod n, Galois fields, matrix and upper-triangular rings,
direct products, explicit-table rings, quotient rings) all share the `Ring`
interface, so analysis and search code can stay representation-agnostic.

Rings are immutable after construction, and all operations are pure functions
of (ring, element indices), so instances are safe to share between threads
and processes; the dense tables are read-only uint16 arrays.  `make_table_ring`
copies and validates outside tables; `TableRingStructure` trusts its own.
Internal caches are filled idempotently and never change observable
behaviour.  Memoized functions and per-ring values use one idiom,
`functools.cache` and `functools.cached_property`; the dense tables
(`Ring._tables`, which the benchmark's tracer reads), the unit indices
(`Ring._units`) and the field exp/log lists stay plain attributes.

Every family builds its dense tables from small pieces with numpy: Z_n
and GF(q) from outer sums and exp/log lists, products and the additive
group of GF(p^s) by mixed-radix composition of the factor (digit) tables,
matrix rings by one small table per output cell.  The tests compare each
against a per-pair build through `add` and `mul`.  Explicit-table rings
and quotients (whose tables map the parent's through the cosets, once, at
construction) are held as their tables, and their scalar arithmetic
reads them.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import BudgetError, ConstructionError, RingMismatchError

# Dense order x order tables are only materialized up to this order; larger
# rings stay lazy (arithmetic on demand, elements enumerable by index).
TABLE_CAP = 4096

# Hard ceiling for constructors that must be able to touch every element
# eagerly (Z_n, GF, products).  Matrix rings may exceed it and remain lazy.
DEFAULT_ORDER_CAP = 1 << 20

# Vectorized passes over order x order tables go in row blocks of about
# this many entries, so their temporaries stay a few MB beside the tables.
_BLOCK_ENTRIES = 1 << 20


def row_blocks(rows: int, width: int) -> list[slice]:
    """Slices covering range(rows), each block about _BLOCK_ENTRIES / width rows."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each marked read-only in place."""
    for t in tables:
        t.setflags(write=False)
    return tables


def compose_tables(tables) -> np.ndarray:
    """The mixed-radix table of digitwise operation tables, first digit least significant.

    Entry [x, y] applies tables[k] to the k-th digits of x and y, the digit
    radices being the tables' orders.  Each fold puts the next, more
    significant digit on top of the table so far with one broadcast add
    (the table so far is the contiguous inner axis), so the only order x
    order array made is the result itself (uint16: a digit times its place
    value, and every partial sum, stays below the order, at most TABLE_CAP).
    """
    out = np.array(tables[0], dtype=np.uint16)  # a copy: never alias a factor's table
    for f in tables[1:]:
        m, t = len(f), len(out)
        wider = np.empty((m * t, m * t), dtype=np.uint16)
        np.add((np.asarray(f, dtype=np.uint16) * np.uint16(t))[:, None, :, None],
               out[None, :, None, :], out=wider.reshape(m, t, m, t))
        out = wider
    return out


# ---------------------------------------------------------------------------
# the mixed-radix index codec: digits (d_0, ..., d_k) over radices (m_0, ...,
# m_k) stand for sum(d_i * m_0 * ... * m_{i-1}), first digit least
# significant.  GF coefficients, stored matrix cells, product components and
# search shapes all encode this way.


def to_digits(index: int, radices) -> list[int]:
    """The digits of index over the radices, first digit least significant."""
    out = []
    for m in radices:  # % and //= run faster here than divmod
        out.append(index % m)
        index //= m
    return out


def from_digits(digits, radices) -> int:
    """The index of a digit sequence over a radix sequence; inverse of to_digits."""
    index, k = 0, len(radices)
    while k:  # faster than iterating reversed sequences
        k -= 1
        index = index * radices[k] + digits[k]
    return index


def place_values(radices) -> np.ndarray:
    """The intp place value of each digit, the product of the radices before it.

    `digits @ place_values(radices)` encodes the rows of a digit array.  An
    order above intp raises ConstructionError instead of wrapping.
    """
    places = np.cumprod([1, *radices], dtype=object)
    if places[-1] > np.iinfo(np.intp).max:
        raise ConstructionError(f"mixed-radix order {places[-1]} does not fit a numpy index")
    return places[:-1].astype(np.intp)


def digit_array(indices, radices) -> np.ndarray:
    """to_digits of every index at once: one intp row of digits per index."""
    return np.asarray(indices, dtype=np.intp)[..., None] // place_values(radices) % radices


# ---------------------------------------------------------------------------
# small number theory helpers


def is_prime(n: int) -> bool:
    return prime_power(n) == (n, 1)


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as ascending (prime, exponent) pairs."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, s) with n == p**s, or None when n is not a prime power."""
    if n < 2:
        return None
    fac = factorize(n)
    if len(fac) == 1:
        return fac[0]
    return None


def _format_factorization(n: int) -> str:
    parts = []
    for p, e in factorize(n):
        parts.append(str(p) if e == 1 else f"{p}^{e}")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# polynomial arithmetic over Z_p (little-endian coefficient lists)


def _poly_mul(f, g, p: int) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return out


def _poly_rem(f, m, p: int) -> list[int]:
    """Remainder of f modulo the monic polynomial m, coefficients in Z_p.

    The result always has length deg(m), padded with zeros.
    """
    r = [c % p for c in f]
    dm = len(m) - 1
    for k in range(len(r) - 1, dm - 1, -1):
        c = r[k]
        if c:
            r[k] = 0
            for j in range(dm):
                r[k - dm + j] = (r[k - dm + j] - c * m[j]) % p
    r = r[:dm]
    return r + [0] * (dm - len(r))


def poly_is_irreducible(f, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    deg = len(f) - 1
    if deg < 1 or f[-1] != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not any(_poly_rem(f, g, p)):
                return False
    return True


@functools.cache
def least_irreducible(p: int, s: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree s over Z_p.

    Candidates are ordered by their coefficient tuple (c_0, ..., c_{s-1}),
    constant term compared first.  The result is little-endian and includes
    the leading 1, e.g. (1, 1, 1) for 1 + x + x^2 over Z_2.  For s >= 2 the
    walk starts at c_0 = 1: every candidate before is divisible by x.
    """
    for tail in itertools.product(range(s > 1, p), *[range(p)] * (s - 1)):
        f = list(tail) + [1]
        if poly_is_irreducible(f, p):
            return tuple(f)
    raise ConstructionError(  # pragma: no cover - an irreducible of every degree exists
        f"no irreducible polynomial of degree {s} over Z_{p}")


# ---------------------------------------------------------------------------
# elements


def is_index(x) -> bool:
    """Whether x can be an element index: an int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _index_text(noun: str, x) -> str:
    """`noun x` in an error message, naming x a non-integer when it is not an index."""
    return f"{noun} {x}" if is_index(x) else f"non-integer {noun} {x!r} ({type(x).__name__})"


class Elem:
    """One ring element: a ring together with its integer index.

    Arithmetic is defined only between elements of the *same* ring object;
    mixing rings raises RingMismatchError instead of guessing a coercion.
    """

    __slots__ = ("ring", "index")

    def __init__(self, ring: "Ring", index: int):
        if not (is_index(index) and 0 <= index < ring.order):
            raise ValueError(f"{_index_text('index', index)} out of range for {ring.name}")
        self.ring = ring
        self.index = index

    def _peer(self, other) -> int:
        if not isinstance(other, Elem):
            raise RingMismatchError(
                f"cannot combine a {self.ring.name} element with {type(other).__name__}")
        if other.ring is not self.ring:
            raise RingMismatchError(
                f"cannot combine elements of {self.ring.name} and {other.ring.name}")
        return other.index

    def pretty(self) -> str:
        return self.ring.pretty(self.index)

    def __add__(self, other):
        return Elem(self.ring, self.ring.add(self.index, self._peer(other)))

    def __sub__(self, other):
        return Elem(self.ring, self.ring.sub(self.index, self._peer(other)))

    def __mul__(self, other):
        return Elem(self.ring, self.ring.mul(self.index, self._peer(other)))

    def __neg__(self):
        return Elem(self.ring, self.ring.neg(self.index))

    def __pow__(self, k: int):
        if type(k) is not int or k < 0:
            raise ValueError("element exponents must be non-negative integers")
        return Elem(self.ring, _multiple(self.ring.mul, self.index, k) if k else self.ring.one)

    def __eq__(self, other):
        return isinstance(other, Elem) and other.ring is self.ring and other.index == self.index

    def __hash__(self):
        return hash((id(self.ring), self.index))

    def __bool__(self):
        return self.index != 0

    def __repr__(self):
        return f"{self.ring.name}:{self.ring.pretty(self.index)}"


# ---------------------------------------------------------------------------
# the ring interface


class Ring:
    """Common interface for finite unital rings.

    Subclasses implement `add`, `neg` and `mul` on integer indices in
    range(order); index 0 is the additive zero and `one` names the
    multiplicative identity.  Ring objects compare by identity: two
    separately constructed copies are distinct carriers whose elements
    never mix (the arithmetic tables are still bit-identical).
    """

    kind = "ring"

    def __init__(self, order: int, one: int, name: str):
        self.order = order
        self.zero = 0
        self.one = one
        self.name = name
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        self._units: np.ndarray | None = None  # kept by analysis._find_units

    # -- index arithmetic ---------------------------------------------------

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def neg(self, a: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    # -- element views ------------------------------------------------------

    def element(self, index: int) -> Elem:
        return Elem(self, index)

    def pretty(self, index: int) -> str:
        return str(index)

    @functools.cached_property
    def additive_type(self) -> tuple[int, ...]:
        """Invariant factors of the additive group (largest first), found once
        (see `additive_invariant_factors`)."""
        return additive_invariant_factors(self)

    # -- dense tables -------------------------------------------------------

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (add, mul) index tables as read-only uint16 arrays, cached after first use.

        A ring above TABLE_CAP raises BudgetError here; callers that read
        the tables rely on this check instead of repeating it.
        """
        if self._tables is None:
            if self.order > TABLE_CAP:
                raise BudgetError(
                    f"{self.name} has order {self.order}, above the dense-table cap {TABLE_CAP}")
            self._tables = _read_only(*self._build_tables())
        return self._tables

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (add, mul) uint16 tables; each family writes its own with numpy.

        Every index below TABLE_CAP fits uint16, so the builders write the
        narrow dtype directly; arithmetic that can pass 65 535 is done wide
        per row block and stored narrow.
        """
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} order={self.order}>"


class ZnRing(Ring):
    """Integers modulo n; element i is the residue class of i."""

    kind = "modular"

    def __init__(self, n: int):
        super().__init__(n, 1 % n, f"Z({n})")
        self.n = n

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return -a % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def _build_tables(self):
        n = self.n
        idx = np.arange(n, dtype=np.uint16)
        # row i of add is idx rotated left by i, a slice of idx twice over
        twice, add = np.concatenate([idx, idx]), np.empty((n, n), dtype=np.uint16)
        for i in range(n):
            add[i] = twice[i:i + n]
        # i * j reaches TABLE_CAP**2: products go wide, one row block at a
        # time; numpy's // by a scalar runs faster than its %
        wide, modulus = idx.astype(np.int32), np.int32(n)
        mul = np.empty((n, n), dtype=np.uint16)
        for rows in row_blocks(n, n):
            block = np.multiply.outer(wide[rows], wide)
            block -= block // modulus * modulus
            mul[rows] = block
        return add, mul


class GFRing(Ring):
    """The Galois field GF(p**s).

    Elements are polynomials over Z_p reduced modulo a fixed irreducible:
    index sum(c_i * p**i) stands for c_0 + c_1*a + ... + c_{s-1}*a^{s-1},
    where `a` is the class of x.  The modulus is the lexicographically
    least monic irreducible of degree s (constant coefficient compared
    first), so encodings are reproducible across runs and machines.

    Up to TABLE_CAP, `mul` reads exp/log lists over the least primitive
    element g (Lidl & Niederreiter, *Finite Fields*): x*y = g^(log x +
    log y), made once by walking x -> x*g, a GF(p)-linear map read off the
    polynomial product `_mul_poly` on the basis p**k.  Above TABLE_CAP,
    `_mul_poly` is the multiplication itself.
    """

    kind = "field"

    def __init__(self, q: int):
        pp = prime_power(q)
        if pp is None:
            detail = _format_factorization(q) if q > 1 else str(q)
            raise ConstructionError(f"GF({q}): {q} = {detail} is not a prime power")
        p, s = pp
        super().__init__(q, 1, f"GF({q})")
        self.p = p
        self.s = s
        self.q = q
        self.modulus = least_irreducible(p, s)
        self.radices = (p,) * s
        self._exp: list[int] | None = None
        self._log: list[int] | None = None

    def coeffs(self, index: int) -> tuple[int, ...]:
        return tuple(to_digits(index, self.radices))

    def from_coeffs(self, cs) -> int:
        cs = list(cs)
        if len(cs) != self.s or any(not (is_index(c) and 0 <= c < self.p) for c in cs):
            raise ConstructionError(
                f"{self.name} expects {self.s} coefficients in range(0, {self.p})")
        return from_digits(cs, self.radices)

    def add(self, a, b):
        p = self.p
        index, scale = 0, 1
        while a or b:
            a, ca = divmod(a, p)
            b, cb = divmod(b, p)
            index += ((ca + cb) % p) * scale
            scale *= p
        return index

    def neg(self, a):
        p = self.p
        index, scale = 0, 1
        while a:
            a, c = divmod(a, p)
            index += (-c % p) * scale
            scale *= p
        return index

    def mul(self, a, b):
        if self.q > TABLE_CAP:
            return self._mul_poly(a, b)
        if self._log is None:
            self._build_exp_log()
        return self._exp[self._log[a] + self._log[b]]

    def _mul_poly(self, a, b):
        p, rad = self.p, self.radices
        prod = _poly_mul(to_digits(a, rad), to_digits(b, rad), p)
        return from_digits(_poly_rem(prod, self.modulus, p), rad)

    def _build_exp_log(self):
        """exp[k] = g^k for the least primitive g, and log inverting it.

        exp holds two periods (so log x + log y needs no reduction mod
        q - 1) and then zeros; log[0] = 2(q - 1) sends every product with
        0 into the zeros, so mul needs no branch.
        """
        p, q, rad = self.p, self.q, self.radices
        digits = digit_array(np.arange(q), rad)
        for g in range(1, q):
            basis = digit_array([self._mul_poly(p ** k, g) for k in range(self.s)], rad)
            times_g = (digits @ basis % p @ place_values(rad)).tolist()
            powers, x = [1], g
            while x != 1:
                powers.append(x)
                x = times_g[x]
            if len(powers) == q - 1:
                break
        log = [0] * q
        for k, x in enumerate(powers):
            log[x] = k
        log[0] = 2 * (q - 1)
        self._exp = powers * 2 + [0] * (2 * (q - 1) + 1)
        self._log = log

    def _build_tables(self):
        p, q = self.p, self.q
        zp = np.arange(p, dtype=np.uint16)
        add = compose_tables([np.add.outer(zp, zp) % np.uint16(p)] * self.s)
        if self._log is None:
            self._build_exp_log()
        exp = np.asarray(self._exp, dtype=np.uint16)
        log = np.asarray(self._log, dtype=np.intp)
        mul = np.empty((q, q), dtype=np.uint16)
        for rows in row_blocks(q, q):
            mul[rows] = exp[log[rows, None] + log[None, :]]
        return add, mul

    def pretty(self, index):
        if index < self.p:
            return str(index)
        cs = self.coeffs(index)
        terms = []
        for k in range(self.s - 1, -1, -1):
            c = cs[k]
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                var = "a" if k == 1 else f"a^{k}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) + f"({index})"


class MatrixRing(Ring):
    """n-by-n matrices over a commutative base ring, full or upper-triangular.

    Only the cells in `stored` are kept: every cell for M(n,B), and the
    cells on or above the diagonal for UT(n,B) (`upper=True`).  They are
    listed row-major, and index sum(e_k * |B|**k) stores the entry of the
    k-th stored cell, so the (0, 0) entry is the least-significant digit.
    `entries` always reports the full row-major matrix, with zeros in the
    unstored cells.  Arithmetic decodes on demand, so large matrix rings
    never materialize an element list.
    """

    def __init__(self, n: int, base: Ring, upper: bool = False):
        self.n = n
        self.base = base
        self.cells = n * n
        self.kind = "triangular" if upper else "matrix"
        self.stored = [(i, j) for i in range(n) for j in range(i if upper else 0, n)]
        self.flat = [i * n + j for (i, j) in self.stored]  # offsets in `entries`
        self.radices = (base.order,) * len(self.stored)
        pos = {cell: c for c, cell in enumerate(self.stored)}
        # One term list per stored output cell (i, j): the stored positions
        # (pos(i,k), pos(k,j)) over every k with both cells stored, which
        # for UT is i <= k <= j.
        self._terms = [[(pos[i, k], pos[k, j]) for k in range(n)
                        if (i, k) in pos and (k, j) in pos]
                       for (i, j) in self.stored]
        one = from_digits([base.one if i == j else 0 for (i, j) in self.stored], self.radices)
        super().__init__(base.order ** len(self.stored), one,
                         f"{'UT' if upper else 'M'}({n},{base.name})")

    def entries(self, index) -> tuple[int, ...]:
        """Row-major base-ring indices of the matrix stored at `index`."""
        full = [0] * self.cells
        for c, e in zip(self.flat, to_digits(index, self.radices)):
            full[c] = e
        return tuple(full)

    def from_entries(self, entries) -> int:
        es = list(entries)
        if len(es) != self.cells:
            raise ConstructionError(f"{self.name} expects {self.cells} row-major entries")
        n, b = self.n, self.base.order
        for i in range(n):
            for j in range(n):
                e = es[i * n + j]
                if j < i and e != 0 and self.kind == "triangular":
                    raise ConstructionError(
                        f"{self.name}: entry at ({i},{j}) below the diagonal must be 0")
                if not (is_index(e) and 0 <= e < b):
                    raise ConstructionError(
                        f"{self.name}: {_index_text('entry', e)} is outside the base ring")
        return from_digits([es[c] for c in self.flat], self.radices)

    def add(self, x, y):
        ba, rad = self.base.add, self.radices
        return from_digits([ba(u, v) for u, v in zip(to_digits(x, rad), to_digits(y, rad))], rad)

    def neg(self, x):
        bn, rad = self.base.neg, self.radices
        return from_digits([bn(e) for e in to_digits(x, rad)], rad)

    def mul(self, x, y):
        badd, bmul, rad = self.base.add, self.base.mul, self.radices
        dx, dy = to_digits(x, rad), to_digits(y, rad)
        out = []
        for terms in self._terms:
            acc = 0
            for p, q in terms:
                acc = badd(acc, bmul(dx[p], dy[q]))
            out.append(acc)
        return from_digits(out, rad)

    def pretty(self, index):
        es = self.entries(index)
        n = self.n
        rows = ("[" + ",".join(self.base.pretty(e) for e in es[i * n:(i + 1) * n]) + "]"
                for i in range(n))
        return "[" + ",".join(rows) + "]"

    def _build_tables(self):
        # Addition is cellwise: the composition of the base table over the
        # stored cells.  Row i of x*y depends only on row i of x, one block of
        # digits, so mul is the plain sum of the pieces mul[x's row i alone].
        # Row i's piece over its K_i left factors adds, in row blocks, one
        # gather per output cell from a small table over (row digits of x,
        # column digits of y) times the cell's place value.  Row 0's piece is
        # the table's top; doubling adds the rest, so no N x N temporary.
        # A cell's digit times its place value, and every partial sum of
        # them, is an index below N <= TABLE_CAP, so all of it stays uint16.
        badd, bmul = self.base.tables()
        m, N = self.base.order, self.order
        add = compose_tables([badd] * len(self.stored))
        powers = place_values(self.radices)
        digits = digit_array(np.arange(N), self.radices)
        sums = [bmul]  # sums[t - 1][u, v]: the sum of the t digitwise products of u and v
        while len(sums) < self.n:
            k = len(sums[-1]) * m
            sums.append(badd[sums[-1][None, :, None, :], bmul[:, None, :, None]].reshape(k, k))
        mul, span = np.zeros((N, N), dtype=np.uint16), 1
        for i in range(self.n):
            row = [c for c, (a, _) in enumerate(self.stored) if a == i]
            K, gathers = m ** len(row), []
            for c in row:
                ps, qs = zip(*self._terms[c])
                small, key = sums[len(ps) - 1], powers[:len(ps)]
                gathers.append((small * np.uint16(powers[c]) if c else small,  # cell 0's is 1
                                digits[:K, np.subtract(ps, row[0])] @ key, digits[:, qs] @ key))
            piece = mul[:K] if i == 0 else np.zeros((K, N), dtype=np.uint16)
            for rows in row_blocks(K, N):
                for small, row_key, col_key in gathers:
                    piece[rows] += np.take(small[row_key[rows]], col_key, axis=1)
            if i:  # rows [d*span, (d+1)*span) are rows [0, span) plus piece row d
                np.add(mul[:span][None], piece[1:, None, :],
                       out=mul[span:span * K].reshape(K - 1, span, N))
            span *= K
        return add, mul


class ProductRing(Ring):
    """Direct product of rings with componentwise operations.

    Mixed-radix indices: the first factor is the least-significant digit.
    """

    kind = "product"

    def __init__(self, factors, name: str | None = None):
        factors = tuple(factors)
        self.factors = factors
        self.radices = tuple(f.order for f in factors)
        one = from_digits([f.one for f in factors], self.radices)
        super().__init__(math.prod(self.radices), one,
                         name or "Prod(" + ",".join(f.name for f in factors) + ")")

    def components(self, index) -> tuple[int, ...]:
        return tuple(to_digits(index, self.radices))

    def from_components(self, cs) -> int:
        cs = list(cs)
        if len(cs) != len(self.factors):
            raise ConstructionError(f"{self.name} expects {len(self.factors)} components")
        for f, c in zip(reversed(self.factors), reversed(cs)):
            if not (is_index(c) and 0 <= c < f.order):
                raise ConstructionError(
                    f"{self.name}: {_index_text('component', c)} outside {f.name}")
        return from_digits(cs, self.radices)

    def add(self, x, y):
        rad = self.radices
        return from_digits([f.add(u, v) for f, u, v in
                            zip(self.factors, to_digits(x, rad), to_digits(y, rad))], rad)

    def neg(self, x):
        rad = self.radices
        return from_digits([f.neg(u) for f, u in zip(self.factors, to_digits(x, rad))], rad)

    def mul(self, x, y):
        rad = self.radices
        return from_digits([f.mul(u, v) for f, u, v in
                            zip(self.factors, to_digits(x, rad), to_digits(y, rad))], rad)

    def pretty(self, index):
        return "(" + ",".join(f.pretty(c) for f, c in zip(self.factors, self.components(index))) + ")"

    def _build_tables(self):
        tables = [f.tables() for f in self.factors]
        return (compose_tables([add for add, _ in tables]),
                compose_tables([mul for _, mul in tables]))


class TableRingStructure(Ring):
    """A ring held as its dense tables: add/neg/mul are direct array reads.

    The constructor marks its uint16 tables read-only in place and
    validates nothing: `make_table_ring` is the entry point that does.
    """

    kind = "table"

    def __init__(self, add: np.ndarray, mul: np.ndarray, one: int, name: str):
        super().__init__(add.shape[0], one, name)
        self._tables = _read_only(add, mul)

    @functools.cached_property
    def _neg(self) -> np.ndarray:
        """The negation row, read off the add table (each row holds one 0) at first `neg`."""
        return np.argmax(self._tables[0] == 0, axis=1).astype(np.uint16)

    def add(self, a, b):
        return int(self._tables[0][a, b])

    def neg(self, a):
        return int(self._neg[a])

    def mul(self, a, b):
        return int(self._tables[1][a, b])


class QuotientRing(TableRingStructure):
    """Quotient of a ring by a two-sided ideal, elements as cosets.

    Coset k is represented by reps[k], the least parent index it contains,
    and cosets are labelled in the order of their reps.  The zero coset is
    the ideal itself, so index 0 again names the zero.  The ideal is
    checked, and the cosets and the quotient's tables found, on the
    parent's dense tables, so parents above TABLE_CAP raise BudgetError.
    """

    kind = "quotient"

    def __init__(self, parent: Ring, ideal, name: str | None = None):
        n = parent.order
        members = set()
        for a in ideal:
            if isinstance(a, Elem):
                if a.ring is not parent:
                    raise RingMismatchError(
                        f"ideal element from {a.ring.name} does not belong to {parent.name}")
                members.add(a.index)
            elif is_index(a):
                members.add(int(a))
            else:
                raise ConstructionError(f"{parent.name}: ideal members must be element indices")
        members = sorted(members)
        if not members or members[0] < 0 or members[-1] >= n:
            raise ConstructionError(f"{parent.name}: ideal members must be element indices")
        if 0 not in members:
            raise ConstructionError(f"{parent.name}: an ideal must contain 0")
        # A finite set holding 0 and closed under + is an additive subgroup,
        # so it is closed under negation and its cosets tile the ring.
        padd, pmul = parent.tables()
        mmask = np.zeros(n, dtype=bool)
        mmask[members] = True
        _check_ideal(padd, pmul, mmask, f"{parent.name}: ideal")
        # x's coset is x + ideal, the row padd[x, members]; it is named by its
        # least member, and np.unique labels the names in increasing order.
        reps, coset = np.unique(padd[:, members].min(axis=1), return_inverse=True)
        coset = coset.astype(np.uint16)
        qadd, qmul = (np.empty((len(reps), len(reps)), dtype=np.uint16) for _ in range(2))
        for q, t in ((qadd, padd), (qmul, pmul)):
            for b in row_blocks(len(reps), n):
                # reps are in range, so mode="clip" only lets take fill q unbuffered
                np.take(t[reps[b]], reps, axis=1, out=q[b], mode="clip")
                q[b] = coset[q[b]]
        self.parent = parent
        self.ideal = tuple(members)
        self.reps = tuple(reps.tolist())
        super().__init__(qadd, qmul, int(coset[parent.one]), name or f"{parent.name}/I")

    def pretty(self, index):
        return self.parent.pretty(self.reps[index])


# ---------------------------------------------------------------------------
# axiom verification


def _check_ideal(add, mul, mask, subject: str) -> None:
    """Check that the elements where `mask` holds are closed under + and absorb
    multiplication on both sides; a ConstructionError names the first failure
    in row-major order: "<subject> not closed under addition at (a,b)", "not
    absorbing on the left at (r,a)" or "not absorbing on the right at (a,r)".
    Each check reads its rows in blocks of about _BLOCK_ENTRIES entries."""
    members, everything = np.flatnonzero(mask), np.arange(len(mask))
    for what, xs, ys, rows in (
            ("not closed under addition", members, members,
             lambda b: add[members[b]].take(members, axis=1)),
            ("not absorbing on the left", everything, members,
             lambda b: mul[b].take(members, axis=1)),
            ("not absorbing on the right", members, everything, lambda b: mul[members[b]])):
        for b in row_blocks(len(xs), len(mask)):
            if not mask[rows(b)].all():
                i, j = np.argwhere(~mask[rows(b)])[0]
                raise ConstructionError(f"{subject} {what} at ({xs[b][i]},{ys[j]})")


def _axiom_fail(axiom: str, witness: str):
    raise ConstructionError(f"ring axiom violated: {axiom} at {witness}")


def _check_table_shapes(add: np.ndarray, mul: np.ndarray) -> None:
    """Two square tables of one order whose entries are all element indices."""
    if add.ndim != 2 or add.shape[0] != add.shape[1] or add.shape != mul.shape:
        raise ConstructionError("tables must be two square matrices of the same order")
    n = add.shape[0]
    for label, t in (("add", add), ("mul", mul)):
        if t.size and (t.dtype.kind not in "iu" or t.min() < 0 or t.max() >= n):
            raise ConstructionError(f"{label} table entries must be indices in range(0, {n})")


def verify_tables(add, mul, one: int) -> None:
    """Check all eight unital-ring axioms on dense tables.

    `_axioms_hold` screens them: the quadratic axioms whole-array, the
    cubic ones (both associativities and distributivities) on at most
    log2(order) additive generators, in O(log(order) * order**2).  The
    screen takes a stack of mul tables over one add table, which the
    enumerator's raw walk fills with a batch of leaves; here it gets the
    stack of one.  Only a failing screen checks the axioms one by one, the
    cubic ones a by a, a being the fixed factor of each axiom, to raise a
    ConstructionError naming the axiom and the first witness, exactly as
    checking every a in turn would.  Tables that are not two square
    integer arrays of one order with every entry in range(order), and a
    `one` that is not an integer in range(order), are rejected first,
    before numpy could wrap or reject them as indices.
    """
    add = np.asarray(add)
    mul = np.asarray(mul)
    _check_table_shapes(add, mul)
    n = add.shape[0]
    if not (is_index(one) and 0 <= one < n):
        raise ConstructionError(f"declared unity {one!r} is not an element index in range(0, {n})")
    if _axioms_hold(add, mul, one):
        return
    arange = np.arange(n)
    for axiom, bad, witness in (  # each failure's first index fills its witness
            ("additive commutativity", add != add.T, "({},{})"),
            ("additive identity", add[0] != arange, "(0,{})"),
            ("additive inverses", ~(add == 0).any(axis=1), "({},)"),
            ("multiplicative identity", np.array([n > 1 and one == 0]),
             "one == zero in a ring of order > 1"),
            ("multiplicative identity", mul[one] != arange, f"({one},{{}})"),
            ("multiplicative identity", mul[:, one] != arange, f"({{}},{one})")):
        if bad.any():
            _axiom_fail(axiom, witness.format(*map(int, np.argwhere(bad)[0])))
    for a in range(n):
        _check_cubic_row(add, mul, a)
    raise RuntimeError("the axiom screen failed, but no check names a witness")


def _axioms_hold(add, mul, one) -> bool:
    """Whether every mul table of a stack is a ring with its unity over one add table.

    `mul` holds tables on its last two axes (one table is the stack of
    one) and `one` their unities, entries taken as checked indices.  The
    quadratic axioms are checked whole-array, the add table's once, and
    the cubic ones by `_cubic_screen_holds`.  A stack passes exactly when
    each of its tables would pass alone.
    """
    n = add.shape[0]
    mul = mul.reshape(-1, n, n)
    one = np.asarray(one).reshape(-1)
    leaf = np.arange(len(mul))
    arange = np.arange(n)
    return bool((add == add.T).all() and (add[0] == arange).all()
                and (add == 0).any(axis=1).all()
                and (n == 1 or one.all())
                and (mul[leaf, one] == arange).all() and (mul[leaf, :, one] == arange).all()
                and _cubic_screen_holds(add, mul))


def _additive_generators(add) -> list[int]:
    """Greedy additive generators S: each the least element not yet reached.

    x is reached when adding members of S on the left to 0 gets to it.  If
    + is a group, each generator at least doubles the subgroup reached, so
    |S| <= log2(order).
    """
    n = add.shape[0]
    seen = [True] + [False] * (n - 1)
    found, gens, rows = [0], [], []
    for g in range(n):
        if seen[g]:
            continue
        gens.append(g)
        rows.append(add[g].tolist())
        for x in found:  # found grows while it is walked: breadth first
            for row in rows:
                y = row[x]
                if not seen[y]:
                    seen[y] = True
                    found.append(y)
    return gens


def _cubic_screen_holds(add, mul) -> bool:
    """The four cubic axioms, from checks on the additive generators S.

    The quadratic axioms are taken as checked.  By Light's test (Clifford &
    Preston, *The Algebraic Theory of Semigroups* I, section 1.2) + is
    associative if (x+s)+y = x+(s+y) for all s in S, as the s passing it
    are closed under + and generate.  Then a(s+b) = as+ab and (s+b)a =
    sa+ba on S give both distributivities (b = 0 gives a0 = 0a = 0, and
    the s passing are closed under +), after which both sides of (xy)z =
    x(yz) are additive in x, y and z, so (st)u = s(tu) on S^3 is enough.
    Each check is an instance of an axiom.  `mul` holds one table or a
    stack of them on its last two axes, all screened at once.  All of S
    goes at once, in blocks of rows of the free element (x, a or b) of
    about _BLOCK_ENTRIES entries over the stack; `np.take` gathers columns
    several times faster than a fancy index at order 4096.
    """
    n = add.shape[0]
    mul = mul.reshape(-1, n, n)
    s = np.array(_additive_generators(add), dtype=np.intp)
    sx, s_mul, mul_s = add[s], mul[:, s], mul[:, :, s]  # [s, x] -> s+x, [., s, x] -> sx, xs
    for rows in row_blocks(n, len(mul) * n * s.size):
        if not ((add[sx[:, rows].T] == np.take(add[rows], sx, axis=1)).all()   # (x+s)+y = x+(s+y)
                and (np.take(mul[:, rows], sx, axis=2)
                     == add[mul_s[:, rows, :, None], mul[:, rows, None, :]]).all()  # a(s+b) = as+ab
                and (np.take(mul, sx[:, rows], axis=1)
                     == add[s_mul[:, :, None, :], mul[:, None, rows]]).all()):      # (s+b)a = sa+ba
            return False
    leaf = np.arange(len(mul))[:, None, None, None]
    st = s_mul[:, :, s]  # [., s, t] -> st
    return bool((mul[leaf, st[..., None], s]                                  # (st)u = s(tu)
                 == mul[leaf, s[:, None, None], st[:, None]]).all())


def _check_cubic_row(add, mul, a: int) -> None:
    """The cubic axioms for one fixed factor a; raises at the first failure."""
    arow, mrow, mcol = add[a], mul[a], mul[:, a]
    for axiom, lhs, rhs in (
            ("additive associativity", add[arow], arow[add]),             # (a+b)+c, a+(b+c)
            ("multiplicative associativity", mul[mrow], mrow[mul]),       # (ab)c, a(bc)
            ("left distributivity", mrow[add], add[mrow[:, None], mrow]),  # a(b+c), ab+ac
            ("right distributivity", mcol[add], add[mcol[:, None], mcol])):  # (b+c)a, ba+ca
        if not (lhs == rhs).all():
            b, c = map(int, np.argwhere(lhs != rhs)[0])
            right = axiom == "right distributivity"
            _axiom_fail(axiom, f"({b},{c},{a})" if right else f"({a},{b},{c})")


# ---------------------------------------------------------------------------
# additive structure


def _multiple(op, v: int, k: int) -> int:
    """v op ... op v with k terms, by doubling; 0 (the additive zero) when k = 0."""
    if not k:
        return 0
    total = v
    for bit in bin(k)[3:]:  # after the leading 1, most significant first
        total = op(total, total)
        if bit == "1":
            total = op(total, v)
    return total


def _exact_log(m: int, p: int) -> int:
    e = 0
    while m > 1:
        if m % p:
            raise ConstructionError("additive structure is not an abelian group")
        m //= p
        e += 1
    return e


def additive_invariant_factors(ring: Ring) -> tuple[int, ...]:
    """Invariant factors (d_1, d_2, ...) of the ring's additive group.

    Largest factor first, each divisible by the next; the product equals
    the order.  Recovered by counting p-power torsion: within the
    p-primary part, |{x : p^k x = 0}| = p^{c_k} and the differences
    c_k - c_{k-1} are the conjugate partition of the p-exponents.  Round k
    multiplies the nonzero p^(k-1) x by p with scalar adds only, so lazy
    rings build no tables.
    """
    n, add = ring.order, ring.add
    if n == 1:
        return (1,)
    if n > TABLE_CAP:
        raise ConstructionError(
            f"{ring.name}: additive type computed only up to order {TABLE_CAP}")
    per_prime = []
    for p, e in factorize(n):
        cs, multiples = [0], range(1, n)  # the c_k so far, and the nonzero p^k x
        while cs[-1] != e:
            multiples = [y for x in multiples if (y := _multiple(add, x, p))]
            cs.append(_exact_log(n - len(multiples), p))
        conj = [b - a for a, b in zip(cs, cs[1:])]
        per_prime.append((p, [sum(1 for c in conj if c >= i) for i in range(1, max(conj) + 1)]))
    return invariant_factor_chain(per_prime)


def invariant_factor_chain(per_prime) -> tuple[int, ...]:
    """Merge per-prime exponent partitions into one divisibility chain.

    `per_prime` lists (p, exponents largest first); the i-th invariant
    factor is the product over p of p^(i-th exponent).
    """
    width = max(len(part) for _, part in per_prime)
    out = []
    for i in range(width):
        d = 1
        for p, part in per_prime:
            if i < len(part):
                d *= p ** part[i]
        out.append(d)
    return tuple(out)


def is_commutative(r: Ring) -> bool:
    """True iff xy = yx for all pairs.

    Structural for the constructed families (it also vets matrix-ring
    bases); otherwise a vectorized symmetry check of the dense
    multiplication table, which is built only up to TABLE_CAP.
    """
    if isinstance(r, (ZnRing, GFRing)):
        return True
    if isinstance(r, ProductRing):
        return all(is_commutative(f) for f in r.factors)
    if isinstance(r, MatrixRing):
        # n >= 2 over a nontrivial base: E11*E12 != E12*E11
        return r.order == 1 or (r.n == 1 and is_commutative(r.base))
    _, mul = r.tables()
    return bool((mul == mul.T).all())


# ---------------------------------------------------------------------------
# constructors


def make_zn(n: int) -> ZnRing:
    """The ring of integers modulo n (n = 1 gives the zero ring)."""
    if type(n) is not int or n < 1:
        raise ConstructionError(f"Z({n}): the modulus must be a positive integer")
    if n > DEFAULT_ORDER_CAP:
        raise ConstructionError(f"Z({n}): order exceeds the cap {DEFAULT_ORDER_CAP}")
    return ZnRing(n)


def make_gf(q: int) -> GFRing:
    """The Galois field of prime-power order q."""
    if type(q) is not int or q < 2:
        raise ConstructionError(f"GF({q}): order must be a prime power >= 2")
    if q > DEFAULT_ORDER_CAP:
        raise ConstructionError(f"GF({q}): order exceeds the cap {DEFAULT_ORDER_CAP}")
    return GFRing(q)


def _matrix_ring(n: int, base: Ring, upper: bool) -> MatrixRing:
    """M(n,B), or UT(n,B) when `upper`, after the argument checks the two share."""
    label, kind, criterion = (("UT", "triangular", "diagonal-units") if upper
                              else ("M", "matrix", "determinant"))
    if type(n) is not int or n < 1:
        raise ConstructionError(f"{label}({n},...): the size must be a positive integer")
    if not isinstance(base, Ring):
        raise ConstructionError(f"{kind} rings need a base ring instance")
    if not is_commutative(base):
        raise ConstructionError(
            f"{label}({n},{base.name}): {kind} rings are only supported over commutative bases "
            f"(invertibility is decided by the {criterion} criterion)")
    return MatrixRing(n, base, upper)


def make_matrix_ring(n: int, base: Ring) -> MatrixRing:
    """Full n-by-n matrices over a commutative base ring."""
    return _matrix_ring(n, base, upper=False)


def make_triangular_ring(n: int, base: Ring) -> MatrixRing:
    """Upper-triangular n-by-n matrices over a commutative base ring."""
    return _matrix_ring(n, base, upper=True)


def make_product(factors, name: str | None = None) -> ProductRing:
    """Direct product of a nonempty list of rings."""
    factors = tuple(factors)
    if not factors:
        raise ConstructionError("a direct product needs at least one factor")
    for f in factors:
        if not isinstance(f, Ring):
            raise ConstructionError("product factors must be ring instances")
    order = math.prod(f.order for f in factors)
    if order > DEFAULT_ORDER_CAP:
        raise ConstructionError(f"product order {order} exceeds the cap {DEFAULT_ORDER_CAP}")
    return ProductRing(factors, name=name)


def make_boolean(k: int) -> ProductRing:
    """The boolean ring Z_2 x ... x Z_2 with k factors."""
    if type(k) is not int or k < 1:
        raise ConstructionError(f"B({k}): the factor count must be a positive integer")
    if 2 ** k > DEFAULT_ORDER_CAP:
        raise ConstructionError(f"B({k}): order exceeds the cap {DEFAULT_ORDER_CAP}")
    return ProductRing(tuple(ZnRing(2) for _ in range(k)), name=f"B({k})")


def make_table_ring(add_table, mul_table, one: int | None = None, *,
                    additive_type=None, name: str | None = None) -> TableRingStructure:
    """A ring from explicit tables, validated before acceptance.

    The tables must be integer arrays (or nested lists) whose entries are
    indices in range(order), checked in the caller's own dtype so no value
    can wrap; they are then copied to uint16 and validated by
    `verify_tables`: index 0 must be the additive zero, the unity (found
    by scan unless supplied, then an integer in range(order)) a two-sided
    identity, and every ring axiom must hold.  A declared `additive_type`
    must hold integers equal to the add table's invariant factors.
    """
    add, mul = np.asarray(add_table), np.asarray(mul_table)
    _check_table_shapes(add, mul)  # before narrowing could wrap an entry into range
    add, mul = (np.array(t, dtype=np.uint16, order="C") for t in (add, mul))
    if one is None:
        arange = np.arange(add.shape[0])
        one = next((e for e in range(add.shape[0])
                    if (mul[e] == arange).all() and (mul[:, e] == arange).all()), None)
        if one is None:
            raise ConstructionError("multiplication table has no unity element")
    verify_tables(add, mul, one)
    ring = TableRingStructure(add, mul, int(one), name or f"table({add.shape[0]})")
    if additive_type is not None:
        declared = list(additive_type)
        if not all(map(is_index, declared)):
            raise ConstructionError(f"declared additive type {declared!r} must hold integers")
        declared = [int(d) for d in declared]
        if tuple(declared) != ring.additive_type:
            raise ConstructionError(f"declared additive type {declared} does not match the "
                                    f"add table's invariant factors {list(ring.additive_type)}")
    return ring


def quotient_ring(parent: Ring, ideal, name: str | None = None) -> QuotientRing:
    """The quotient of `parent` by a verified two-sided ideal."""
    if not isinstance(parent, Ring):
        raise ConstructionError("quotients need a parent ring instance")
    return QuotientRing(parent, ideal, name=name)
