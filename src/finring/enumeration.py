"""Exhaustive generation of all finite unital rings of a small order.

The search runs one additive group shape at a time: pick the abelian group
(as a descending chain of invariant factors), then choose the generator
products g_i * g_j as structure constants.  Bilinearity extends any such
choice to a full multiplication table, so the search space is the r*r
constant grid, pruned as it is filled by checking associativity on every
generator triple whose products are already determined.  The raw search
detects the unity last, by scanning each leaf for an element that fixes
all generators on both sides; tables without a unity are discarded.

The search up to isomorphism pins the unity instead.  A unital ring's
characteristic is the order of 1 and also the exponent of its additive
group, so Z*1 is a cyclic subgroup of maximal order, hence a direct
summand, and some additive automorphism sends 1 to the first generator
g_0.  Every class therefore has a member with g_0 g_j = g_j g_0 = g_j for
all j: those positions get g_j as their only candidate, and every leaf of
this pinned tree has unity g_0, with no scan.

Orders up to 8 enumerate without restriction.  Orders 9..16 are
best-effort: they require an explicit node budget and fail gracefully
with a resume token (BudgetError) when it runs out, so a later call can
continue exactly where the search stopped.

Isomorphism classing relies on the fact that, at these orders, every ring
isomorphism is in particular an isomorphism of additive groups: two rings
on the same canonical additive labeling are ring-isomorphic exactly when
an additive automorphism carries one multiplication table to the other.
An isomorphism between two pinned rings maps unity to unity, so it fixes
g_0: the pinned classes are the orbits of Stab(g_0) in Aut(G).
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .errors import BudgetError, ConstructionError
from .rings import (
    Ring,
    TableRingStructure,
    additive_invariant_factors,
    compose_tables,
    digit_array,
    factorize,
    invariant_factor_chain,
    make_table_ring,
    make_zn,
    place_values,
)

# Orders enumerable with no explicit budget.
MANDATORY_MAX_ORDER = 8
# Orders accepted at all; above this the search is out of scope.
BEST_EFFORT_MAX_ORDER = 16
# Canonicalization bound: additive automorphism groups stay materializable.
CANONICAL_CAP = 16

_TOKEN_VERSION = "v1"
# The one token form a stopped search writes, version:order:mode:shape:path,
# every number ASCII decimal with no sign and no leading zero.
_NUMBER = "(?:0|[1-9][0-9]*)"
_TOKEN_FORM = re.compile(
    rf"{_TOKEN_VERSION}:({_NUMBER}):([fr]i?):({_NUMBER}):((?:{_NUMBER}(?:,{_NUMBER})*)?)")


# ---------------------------------------------------------------------------
# additive group shapes


@dataclass(frozen=True)
class AdditiveGroupShape:
    """One abelian group of the target order, as a divisibility chain.

    `invariant_factors` is d_1 >= d_2 >= ... with each d_{i+1} | d_i and
    product equal to the order; `generators` are the indices of the basis
    elements e_i in the shape's own labeling; `automorphism_count` is the
    size of the group's automorphism group (closed-form, cross-checked
    against brute enumeration whenever automorphisms are materialized).
    """

    invariant_factors: tuple[int, ...]
    generators: tuple[int, ...]
    automorphism_count: int

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def _partitions(n: int):
    """Integer partitions of n as descending tuples."""
    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def _aut_count_p_group(p: int, exponents) -> int:
    """|Aut| of Z_{p^e_1} x ... x Z_{p^e_n} by the closed product formula.

    Uses the standard description via the counts d_k (last index sharing
    the k-th exponent) and c_k (first index sharing it), with exponents
    taken in ascending order.
    """
    es = sorted(exponents)
    n = len(es)
    total = 1
    for k in range(1, n + 1):
        d_k = max(l for l in range(1, n + 1) if es[l - 1] == es[k - 1])
        total *= p ** d_k - p ** (k - 1)
    for j in range(1, n + 1):
        d_j = max(l for l in range(1, n + 1) if es[l - 1] == es[j - 1])
        total *= (p ** es[j - 1]) ** (n - d_j)
    for i in range(1, n + 1):
        c_i = min(l for l in range(1, n + 1) if es[l - 1] == es[i - 1])
        total *= (p ** (es[i - 1] - 1)) ** (n - c_i + 1)
    return total


def abelian_automorphism_count(factors) -> int:
    """Automorphism count of the abelian group with the given invariant factors."""
    per_prime: dict[int, list[int]] = {}
    for d in factors:
        for p, e in factorize(d):
            per_prime.setdefault(p, []).append(e)
    total = 1
    for p, exps in per_prime.items():
        total *= _aut_count_p_group(p, exps)
    return total


def abelian_group_shapes(order: int) -> list[AdditiveGroupShape]:
    """All abelian groups of the order, as invariant-factor chains.

    Largest group first by factor tuple, e.g. order 8 gives
    [8], [4, 2], [2, 2, 2].
    """
    if type(order) is not int or order < 1:
        raise ConstructionError(f"group order must be a positive integer, got {order}")
    if order == 1:
        return [AdditiveGroupShape((1,), (0,), 1)]
    per_prime = [(p, list(_partitions(e))) for p, e in factorize(order)]
    chains = []
    for combo in itertools.product(*(parts for _, parts in per_prime)):
        chains.append(invariant_factor_chain(
            [(p, part) for (p, _), part in zip(per_prime, combo)]))
    chains.sort(reverse=True)
    shapes = []
    for fs in chains:
        # e_i is labeled by its place value
        gens = tuple(place_values(fs).tolist())
        shapes.append(AdditiveGroupShape(fs, gens, abelian_automorphism_count(fs)))
    return shapes


# ---------------------------------------------------------------------------
# shape search context


class _ShapeContext:
    """Precomputed additive data for one invariant-factor chain.

    Elements are mixed-radix digit vectors over the factors, first factor
    least significant, as in the product Z(d_1) x ... x Z(d_r), whose add
    table is `add_np` (read-only uint8).  `add` and `smul` are dense
    lookup lists, `digit_array` the digits of each element (one row per
    element) and `digits` their nonzero support, and `K[i][j]` the
    candidate values for the structure constant g_i * g_j (the elements
    gcd(d_i, d_j) kills, since that scalar kills both generators).
    """

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        r = len(factors)
        self.r = r
        self.strides = place_values(factors).tolist()
        n = self.order = prod(factors)
        self.exponent = factors[0]
        self.add_np = compose_tables([make_zn(d).tables()[0] for d in factors]).astype(np.uint8)
        self.add_np.setflags(write=False)
        self.add = self.add_np.tolist()
        self.digit_array = digit_array(np.arange(n), factors)
        self.smul = [(s * self.digit_array % factors @ self.strides).tolist()
                     for s in range(self.exponent)]
        self.digits = [tuple((i, a) for i, a in enumerate(row) if a)
                       for row in self.digit_array.tolist()]
        # x as the sum of a * g_m over its digits, as (m, smul[a]) pairs
        self.terms = [tuple((m, self.smul[a]) for m, a in d) for d in self.digits]
        self.gens = [s % n for s in self.strides]
        self.K = [[_killed(self.add_np, gcd(factors[i], factors[j])).tolist()
                   for j in range(r)] for i in range(r)]

        # wavefront position order: finish each leading generator block so
        # associativity triples become checkable as early as possible
        positions = []
        for t in range(r):
            for i in range(t):
                positions.append((i, t))
                positions.append((t, i))
            positions.append((t, t))
        self.positions = positions
        posidx = {p: k for k, p in enumerate(positions)}
        self.P = [[posidx[(i, j)] for j in range(r)] for i in range(r)]
        # generator triple (i, j, k) as the positions it reads: g_i g_j, g_j g_k,
        # then g_m g_k and g_i g_m for the digits m of those two products; each
        # starts in the watch list of the later of its first two (see _dfs_stream)
        self.watch = [[] for _ in positions]
        for i in range(r):
            for j in range(r):
                for k in range(r):
                    self.watch[max(self.P[i][j], self.P[j][k])].append(
                        (self.P[i][j], self.P[j][k], [self.P[m][k] for m in range(r)],
                         [self.P[i][m] for m in range(r)]))

    def candidate_lists(self, reverse: bool, pinned: bool = False) -> list[list[int]]:
        """Candidate values per position; `pinned` makes g_0 the unity, so
        (0, j) and (j, 0) take g_j alone."""
        out = [[self.gens[i + j]] if pinned and 0 in (i, j) else self.K[i][j]
               for (i, j) in self.positions]
        if reverse:
            out = [list(reversed(c)) for c in out]
        return out


@functools.cache
def _shape_context(factors: tuple[int, ...]) -> _ShapeContext:
    return _ShapeContext(factors)


# ---------------------------------------------------------------------------
# the structure-constant search


def _dfs_stream(ctx: _ShapeContext, reverse: bool = False, budget=None,
                start_path=None, token_prefix: str = "", pinned: bool = False):
    """Yield every structure-constant assignment that stays associative.

    Position d of the wavefront order is filled at depth d.  A generator
    triple (i, j, k) asks (g_i g_j) g_k == g_i (g_j g_k); it reads
    constants position by position and is undecided while one it needs is
    unplaced.  Each undecided triple waits in the watch list of the first
    unplaced position it read (at the start, the later of P[i][j] and
    P[j][k], the two it reads first), so at depth d only the triples
    waiting on d are evaluated: a false one prunes the node, a true one is
    dropped, and one still undecided moves to the list of the later
    position it now stops at.  Backtracking pops those moves.  A triple
    cannot resolve before every position it reads is placed, so each node
    resolves exactly the triples that re-checking every open triple at
    every node would: the tree, its node counts and the stream are those
    of that exhaustive check (kept in the tests as the oracle).

    The checks run fail-first: when a triple from the list's static prefix
    (the entries copied from `ctx.watch`, ahead of those ancestors
    re-filed there) prunes a node, it swaps places with the front entry of
    this run's copy, so later nodes at that depth test it first.  The
    order cannot change the tree: a node is pruned exactly when some
    triple decidable there is false, whichever is tested first, and the
    re-filings made before the false one are popped at that same node.
    Re-filed entries stay at the tail, where backtracking pops them last
    in, first out.

    `budget` is a single-element list of remaining node visits shared
    across shapes (None = unbounded); exhausting it raises BudgetError
    whose resume token is `token_prefix` plus the candidate-index path of
    the node about to be visited.  `start_path` resumes from exactly such
    a path: subtrees lexicographically before it are skipped and the
    spine nodes above the target are replayed without consuming budget.
    `pinned` searches the tree whose unity is g_0 (`candidate_lists`).
    """
    npos = len(ctx.positions)
    cands = ctx.candidate_lists(reverse, pinned)
    add, terms = ctx.add, ctx.terms
    watch = [list(w) for w in ctx.watch]
    C = [-1] * npos
    spine = list(start_path) if start_path else []

    def rec(depth, on_spine):
        if depth == npos:
            yield tuple(C)
            return
        clist = cands[depth]
        if on_spine and depth < len(spine):
            index_range = range(spine[depth], len(clist))
        else:
            index_range = range(len(clist))
        waiting = watch[depth]
        nstatic = len(ctx.watch[depth])
        for ci in index_range:
            replayed = (on_spine and depth < len(spine) - 1 and ci == spine[depth])
            if not replayed and budget is not None:
                if budget[0] <= 0:
                    path = [cands[d].index(C[d]) for d in range(depth)] + [ci]
                    raise BudgetError(
                        f"node budget exhausted while searching order {ctx.order}",
                        resume_token=token_prefix + ",".join(map(str, path)))
                budget[0] -= 1
            C[depth] = clist[ci]
            moved = []
            for triple in waiting:
                pij, pjk, col_k, row_i = triple
                # q: the first unplaced position read, or -1 once decided
                cij = C[pij]
                cjk = C[pjk]
                q = -1
                lhs = 0
                for m, scale in terms[cij]:
                    v = C[col_k[m]]
                    if v < 0:
                        q = col_k[m]
                        break
                    lhs = add[lhs][scale[v]]
                if q < 0:
                    rhs = 0
                    for m, scale in terms[cjk]:
                        v = C[row_i[m]]
                        if v < 0:
                            q = row_i[m]
                            break
                        rhs = add[rhs][scale[v]]
                    if q < 0:
                        if lhs != rhs:
                            if waiting[0] is not triple:
                                i = waiting.index(triple)
                                if i < nstatic:
                                    waiting[0], waiting[i] = triple, waiting[0]
                            break
                        continue
                watch[q].append(triple)
                moved.append(q)
            else:
                yield from rec(depth + 1, replayed)
            for q in moved:
                watch[q].pop()
        C[depth] = -1

    yield from rec(0, bool(spine))


def _unity_of(ctx: _ShapeContext, consts) -> int:
    """Index of the table's unity, or -1: e works iff it fixes all generators."""
    r, n = ctx.r, ctx.order
    add, smul, digits, P = ctx.add, ctx.smul, ctx.digits, ctx.P
    gens = ctx.gens
    for e in range(n):
        ok = True
        for j in range(r):
            s = 0
            for (m, a) in digits[e]:
                s = add[s][smul[a][consts[P[m][j]]]]
            if s != gens[j]:
                ok = False
                break
        if not ok:
            continue
        for i in range(r):
            s = 0
            for (m, a) in digits[e]:
                s = add[s][smul[a][consts[P[i][m]]]]
            if s != gens[i]:
                ok = False
                break
        if ok:
            return e
    return -1


def _full_mul(ctx: _ShapeContext, consts) -> np.ndarray:
    """Bilinear extension of the structure constants: the flat uint8 mul table.

    Digit l of x * y is the sum over i, j of x_i y_j (g_i g_j)_l, mod d_l:
    the digit matrix contracted twice with the constants' digits.  Orders
    stay <= 16, so every entry fits a byte.
    """
    digits, r, n = ctx.digit_array, ctx.r, ctx.order
    const_digits = digits[np.asarray(consts)[ctx.P]]                     # [i, j, l]
    left = (digits @ const_digits.reshape(r, r * r)).reshape(n, r, r)    # [x, j, l]
    prod = digits @ left                                                 # [x, y, l]
    return ((prod % ctx.factors) @ ctx.strides).astype(np.uint8).ravel()


def _unital_tables(ctx: _ShapeContext, assignments):
    """Filter a constant stream down to (flat mul table, unity) pairs."""
    for consts in assignments:
        e = _unity_of(ctx, consts)
        if e >= 0:
            yield _full_mul(ctx, consts), e


def _new_orbits(ctx: _ShapeContext, assignments):
    """Yield (constants, flat mul table, orbit) for each leaf of a pinned
    constant stream whose constants no earlier orbit holds; the orbit is the
    set of constant tuples of the leaf's relabelings by Stab(g_0), the rows
    of `_shape_automorphisms` with phi(g_0) = g_0.

    Relabeling by phi puts phi[mul[inv x, inv y]] at (x, y), inv the
    inverse of phi, so each row of the orbit reads only the r^2 cells at
    the generator pairs of the positions.
    """
    autos, inverses = _shape_automorphisms(ctx)
    g0 = ctx.gens[0]
    stab = autos[:, g0] == g0
    phi, inv = autos[stab], inverses[stab]
    left, right = np.asarray(ctx.gens)[np.transpose(ctx.positions)]
    seen: set[bytes] = set()
    for consts in assignments:
        if bytes(consts) in seen:
            continue
        mul = _full_mul(ctx, consts)
        cells = mul.reshape(ctx.order, ctx.order)[inv[:, left], inv[:, right]]
        orbit = set(map(bytes, np.take_along_axis(phi, cells, axis=1)))
        seen |= orbit
        yield consts, mul, orbit


def _class_tables(ctx: _ShapeContext, assignments, reverse: bool):
    """Filter a pinned constant stream down to one (flat mul table, unity)
    pair per isomorphism class: the leaf whose constant tuple is the least
    of its Stab(g_0)-orbit (the greatest when reversed).

    Every orbit member is a leaf of the pinned tree and the candidate lists
    ascend (descend), so a search meets each orbit (`_new_orbits`) first at
    that member, or, resumed at a node, exactly when the member lies at or
    after the node; otherwise a chunk before emitted the orbit already.
    """
    extreme = max if reverse else min
    for consts, mul, orbit in _new_orbits(ctx, assignments):
        if bytes(consts) == extreme(orbit):
            yield mul, ctx.gens[0]


# ---------------------------------------------------------------------------
# additive isomorphisms, automorphisms, and orbit dedup


# Additive maps are built and narrowed in blocks of about this many rows, so
# no intermediate (a uint8 array, or the index arrays numpy makes for fancy
# indexing) grows with the 20160 automorphisms of shape (2, 2, 2, 2).
_AUTO_BLOCK = 1024


def _killed(add, d: int) -> np.ndarray:
    """The elements x of the add table's group with d x = 0, ascending, as uint8."""
    x = np.arange(len(add))
    acc = x
    for _ in range(d - 1):
        acc = add[acc, x]
    return np.flatnonzero(acc == 0).astype(np.uint8)


def _additive_maps(ctx: _ShapeContext, add):
    """Yield every additive isomorphism from the shape labeling onto the
    group of the add table `add`, as uint8 blocks with one map per row.

    Depth first, one generator at a time: a row on the span of
    g_0 .. g_{t-1} (the labels below d_0 ... d_{t-1}) is extended by every
    image of g_t that d_t kills, ascending, and survives if still injective.
    So the rows come out in the order of the image tuples
    (phi g_0, ..., phi g_{r-1}); an image fits a byte at order <= 16.
    """
    if len(add) != ctx.order:
        return
    add = np.asarray(add, dtype=np.uint8)
    images = [_killed(add, d) for d in ctx.factors]

    def extend(t, partial):
        if t == ctx.r:
            if len(partial):
                yield partial
            return
        d, stride, cands = ctx.factors[t], ctx.strides[t], images[t]
        step = max(1, _AUTO_BLOCK // len(cands))
        for start in range(0, len(partial), step):
            # cells[p, c, a, x] = phi_p(x) + a * cands[c]
            base = partial[start:start + step]
            cells = [np.broadcast_to(base[:, None, :], (len(base), len(cands), stride))]
            for _ in range(d - 1):
                cells.append(add[cells[-1], cands[None, :, None]])
            rows = np.stack(cells, axis=2).reshape(-1, d * stride)
            ordered = np.sort(rows, axis=1)
            yield from extend(t + 1, rows[(ordered[:, 1:] != ordered[:, :-1]).all(axis=1)])

    yield from extend(0, np.zeros((1, 1), dtype=np.uint8))


@functools.cache
def _shape_automorphisms(ctx: _ShapeContext) -> tuple[np.ndarray, np.ndarray]:
    """The shape's automorphisms as uint8 rows, in image-tuple order, with
    each row's inverse; both cached read-only.  `canonical_form` narrows
    them row by row, and `_new_orbits` reads Stab(g_0) off them."""
    autos = np.concatenate(list(_additive_maps(ctx, ctx.add_np)))
    expected = abelian_automorphism_count(ctx.factors)
    if len(autos) != expected:
        raise ConstructionError(
            f"automorphism count mismatch for {list(ctx.factors)}: "
            f"enumerated {len(autos)}, formula {expected}")
    inverse = np.concatenate([np.argsort(autos[start:start + _AUTO_BLOCK], axis=1)
                              .astype(np.uint8)
                              for start in range(0, len(autos), _AUTO_BLOCK)])
    autos.setflags(write=False)
    inverse.setflags(write=False)
    return autos, inverse


# ---------------------------------------------------------------------------
# the public enumeration stream


def _parse_resume(token: str, order: int, mode: str, shapes) -> tuple[int, list[int]]:
    """The shape index and the path, a node of that shape's tree, a token names.

    Raw modes are "f" and "r"; "fi" and "ri" name nodes of the pinned tree
    that the search up to isomorphism walks.
    """
    malformed = ConstructionError(f"malformed resume token: {token!r}")
    form = _TOKEN_FORM.fullmatch(token)
    if form is None:
        raise malformed
    t_order, t_mode, t_shape, t_path = form.groups()
    if t_order != str(order) or t_mode != mode:
        raise ConstructionError(
            f"resume token {token!r} (order {t_order}, mode {t_mode!r}) does not match "
            f"this run (order {order}, mode {mode!r})")
    try:
        shape, path = int(t_shape), [int(p) for p in t_path.split(",")] if t_path else []
    except ValueError:  # a number longer than int() converts
        raise malformed from None
    if shape >= len(shapes):
        raise ConstructionError(
            f"resume token {token!r} names shape {shape}, but order {order} "
            f"has only {len(shapes)} additive shapes")
    ctx = _shape_context(shapes[shape].invariant_factors)
    sizes = [len(c) for c in ctx.candidate_lists(False, pinned=mode.endswith("i"))]
    if len(path) > len(sizes) or any(p >= size for p, size in zip(path, sizes)):
        raise malformed
    return shape, path


def enumerate_unital_rings(order: int, up_to_iso: bool = False, *,
                           search_order: str = "forward",
                           budget: int | None = None, resume: str | None = None):
    """Stream every unital ring of the order as validated explicit-table rings.

    The raw stream holds every unital table on each shape's labeling, each
    leaf's unity found by a scan.  With `up_to_iso` the search walks the
    pinned tree, where g_0 is the unity (label 1 from order 2 on), and
    keeps one representative per isomorphism class: the first member of
    its Stab(g_0)-orbit found in search order.  `search_order` ("forward"
    or "reversed") flips the candidate order at every branch point — an
    independent traversal whose canonical-form sets must coincide with the
    forward run.  Orders above 8 require an explicit node `budget` in both
    modes; when it runs out, a BudgetError carries a `resume` token that
    continues the stream exactly where it stopped.  Tokens name nodes of
    the tree searched, so a raw token ("f", "r") resumes only a raw run,
    and an up-to-iso token ("fi", "ri") only an up-to-iso run.
    """
    if type(order) is not int or order < 1:
        raise ConstructionError(f"enumeration order must be a positive integer, got {order}")
    if order > BEST_EFFORT_MAX_ORDER:
        raise ConstructionError(
            f"enumeration is scoped to orders <= {BEST_EFFORT_MAX_ORDER}, got {order}")
    if search_order not in ("forward", "reversed"):
        raise ConstructionError(f"search_order must be 'forward' or 'reversed', got {search_order!r}")
    if budget is not None and (type(budget) is not int or budget < 0):
        raise ConstructionError(f"budget must be a non-negative integer, got {budget}")
    reverse = search_order == "reversed"
    mode = ("r" if reverse else "f") + ("i" if up_to_iso else "")
    shapes = abelian_group_shapes(order)
    start_shape, start_path = 0, []
    if resume is not None:
        start_shape, start_path = _parse_resume(resume, order, mode, shapes)
    if order > MANDATORY_MAX_ORDER and budget is None:
        raise BudgetError(
            f"order {order} is best-effort: pass an explicit node budget "
            + ("(the token restarts from the beginning)" if resume is None
               else "along with the token"),
            resume_token=resume or f"{_TOKEN_VERSION}:{order}:{mode}:0:")
    budget_cell = None if budget is None else [int(budget)]

    def run():
        emitted = 0
        for si in range(start_shape, len(shapes)):
            shape = shapes[si]
            ctx = _shape_context(shape.invariant_factors)
            token_prefix = f"{_TOKEN_VERSION}:{order}:{mode}:{si}:"
            path = start_path if si == start_shape else []
            leaves = _dfs_stream(ctx, reverse=reverse, budget=budget_cell, start_path=path,
                                 token_prefix=token_prefix, pinned=up_to_iso)
            if up_to_iso:
                pairs = _class_tables(ctx, leaves, reverse)
            else:
                pairs = _unital_tables(ctx, leaves)
            for mul_flat, one in pairs:
                n = ctx.order
                ring = make_table_ring(ctx.add_np, mul_flat.reshape(n, n), one=one,
                                       additive_type=shape.invariant_factors,
                                       name=f"R{order}#{emitted}")
                emitted += 1
                yield ring

    return run()


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


@dataclass(frozen=True)
class CanonicalForm:
    """Lexicographically minimal relabeling of a ring's tables.

    The add component is the canonical table of the ring's additive shape;
    the mul component and unity are minimized over every additive
    isomorphism from that labeling onto the ring.  Equal canonical forms
    characterize ring isomorphism at the orders in scope.
    """

    invariant_factors: tuple[int, ...]
    add_table: tuple[int, ...]
    mul_table: tuple[int, ...]
    one: int


def canonical_form(r: Ring) -> CanonicalForm:
    """The minimal (add, mul, one) relabeling of r; orders up to 16."""
    if r.order > CANONICAL_CAP:
        raise ConstructionError(
            f"canonical forms are computed only up to order {CANONICAL_CAP}")
    factors = additive_invariant_factors(r)
    ctx = _shape_context(factors)
    n = r.order
    add, mul = r.tables()
    first = next(_additive_maps(ctx, add), None)
    if first is None:
        raise ConstructionError(f"{r.name}: no additive isomorphism onto shape {list(factors)}")
    # Every isomorphism from the shape is phi composed with an automorphism
    # of the shape, so the candidates are the relabelings of phi's pull-back.
    phi = first[0]
    pulled = np.argsort(phi)[mul[np.ix_(phi, phi)]].astype(np.uint8)
    autos, inverses = _shape_automorphisms(ctx)
    # The least table is the least row 0, then the least row 1 among the
    # automorphisms that gave that row 0, and so on: row x of a relabeling
    # is phi[pulled[inv x, inv y]] over y, computed only for the
    # automorphisms still in play.  Row 0 is zero in every relabeling.
    # Entries are below 16, so a row packs into one uint64 key whose order
    # is the row's lexicographic order.
    alive = np.arange(len(autos))
    shifts = np.arange(4 * (n - 1), -1, -4, dtype=np.uint64)
    for x in range(1, n):
        keys = []
        for start in range(0, len(alive), _AUTO_BLOCK):
            ids = alive[start:start + _AUTO_BLOCK]
            inv = inverses[ids]
            row = np.take_along_axis(autos[ids], pulled[inv[:, x:x + 1], inv], axis=1)
            keys.append((row.astype(np.uint64) << shifts).sum(axis=1))
        key = np.concatenate(keys)
        alive = alive[key == key.min()]
    inv = inverses[alive[0]]
    best = autos[alive[0]][pulled[np.ix_(inv, inv)]]
    # A table has one unity, so minimizing (mul, one) minimizes mul alone;
    # the unity is the row of the minimal table that fixes every element.
    one = int(np.flatnonzero((best == np.arange(n)).all(axis=1))[0])
    add_flat = tuple(v for row in ctx.add for v in row)
    return CanonicalForm(invariant_factors=factors, add_table=add_flat,
                         mul_table=tuple(best.ravel().tolist()), one=one)


def are_isomorphic(r1: Ring, r2: Ring) -> bool:
    """Ring isomorphism test: equal canonical forms."""
    if r1 is r2:
        return True
    if r1.order != r2.order:
        return False
    if max(r1.order, r2.order) > CANONICAL_CAP:
        raise ConstructionError(
            f"isomorphism testing is scoped to orders <= {CANONICAL_CAP}")
    return canonical_form(r1) == canonical_form(r2)


# ---------------------------------------------------------------------------
# text serialization


def serialize_table_ring(r: Ring) -> str:
    """Text form of any ring up to TABLE_CAP: header `order zero one factors...`,
    add rows, mul rows; `factors` is the additive type."""
    add, mul = r.tables()
    lines = [" ".join(map(str, [r.order, r.zero, r.one, *r.additive_type]))]
    for row in add:
        lines.append(" ".join(str(int(v)) for v in row))
    for row in mul:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_table_ring(text: str, name: str | None = None) -> TableRingStructure:
    """Inverse of serialize_table_ring; validates every ring axiom on load."""
    lines = text.strip().splitlines()
    if not lines:
        raise ConstructionError("empty table-ring serialization")
    try:
        fields = [[int(v) for v in ln.split()] for ln in lines]
    except ValueError as exc:
        raise ConstructionError(f"table-ring serialization: {exc}") from None
    head = fields[0]
    if len(head) < 4:
        raise ConstructionError(f"table-ring header needs order, zero, one, factors: {lines[0]!r}")
    order, zero, one = head[:3]
    if order < 1:
        raise ConstructionError(f"table-ring header order must be at least 1: {lines[0]!r}")
    if zero != 0:
        raise ConstructionError("tables must be indexed so that 0 is the additive zero")
    if len(lines) != 1 + 2 * order:
        raise ConstructionError(
            f"expected {2 * order} table rows after the header, found {len(lines) - 1}")
    rows = fields[1:]
    for ln, row in zip(lines[1:], rows):
        if len(row) != order:
            raise ConstructionError(f"table row needs {order} entries: {ln!r}")
    return make_table_ring(rows[:order], rows[order:], one=one,
                           additive_type=head[3:], name=name)


def write_ring_file(stream, rings) -> int:
    """Write serialized rings separated by blank lines; returns the count."""
    count = 0
    for r in rings:
        if count:
            stream.write("\n")
        stream.write(serialize_table_ring(r))
        count += 1
    return count


def read_ring_file(stream) -> list[TableRingStructure]:
    """Read back a blank-line-separated ring file."""
    blocks = [b for b in stream.read().split("\n\n") if b.strip()]
    return [parse_table_ring(b, name=f"file#{i}") for i, b in enumerate(blocks)]
