"""Exhaustive generation of all finite unital rings of a small order.

The search runs one additive group shape at a time: pick the abelian group
(as a descending chain of invariant factors), then choose the generator
products g_i * g_j as structure constants.  Bilinearity extends any such
choice to a full multiplication table, so the search space is the r*r
constant grid, pruned as it is filled by checking associativity on every
generator triple whose products are already determined.

The pinned tree fixes the unity.  A unital ring's characteristic is the
order of 1 and also the exponent of its additive group, so Z*1 is a
cyclic subgroup of maximal order, hence a direct summand, and some
additive automorphism sends 1 to the first generator g_0.  Every class
therefore has a member with g_0 g_j = g_j g_0 = g_j for all j: those
positions get g_j as their only candidate, and every leaf of this pinned
tree has unity g_0, with no scan.  The search up to isomorphism walks it.

The raw stream, every unital table on the shape's labeling, has two
routes, and the caller's input picks one.  A run with no budget and no
resume token relabels the pinned leaves by every additive automorphism
and sorts the tables by their constant tuples, the order in which the
raw tree meets them.  A budgeted or resumed run walks the raw tree, since
its budget and tokens count that tree's nodes: there the unity is found
last, by scanning each leaf for an element that fixes all generators on
both sides, and tables without one are discarded.  Both routes give the
same stream.

Each table the search builds is validated once, where it is built: each
new pinned class alone (`_leaf_mul`), and the unital leaves of a raw
walk in batches, one bilinear extension and one axiom screen per batch
(`_leaf_batch`).  A relabeling by an additive automorphism is an
isomorphic ring, and the bilinear extension of its constants is the
relabeled table, so relabelings are not checked again.

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
    _axioms_hold,
    _multiple,
    compose_tables,
    digit_array,
    factorize,
    invariant_factor_chain,
    make_table_ring,
    make_zn,
    place_values,
    verify_tables,
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
    size of the group's automorphism group (closed-form; the tests check
    it against brute enumeration for every shape of order <= 16).
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
    lookup lists, `digit_array` the digits of each element (one int16 row
    per element) and `digits` their nonzero support, and `K[i][j]` the
    candidate values for the structure constant g_i * g_j (the elements
    gcd(d_i, d_j) kills, since that scalar kills both generators).

    Position d of the wavefront order `positions` holds g_i g_j for
    (i, j) = positions[d], and P[i][j] = d.  The read plans say which
    constants a product of an element with a generator reads: x g_k is
    the sum of a (g_m g_k) over the digits (m, a) of x, so `right[k][x]`
    lists (P[m][k], smul[a]) for those digits in digit order, and
    `right_last[k][x]` is the latest of those positions (-1 for x = 0).
    `right_scale[k][x]` is the digit a that last read is scaled by (0 for
    x = 0).  `left[i][y]`, `left_last[i][y]` and `left_scale[i][y]` plan
    g_i y the same way, except that the scale is signed: it holds -a mod
    the exponent.  So when a triple's two plans both read position d at
    most once, lhs - rhs = s + alpha C[d], with alpha the sum of the scales
    of the plans whose last read is d.  `solve[a][t]` is the bitmask of
    the elements c with a c = t, so the values of C[d] that keep such a
    triple true are `solve[alpha][-s]`.
    `triples[d]` lists the generator triples (i, j, k) whose first two
    reads, g_i g_j and g_j g_k, end at position d, each as (P[i][j],
    P[j][k], right[k], right_last[k], right_scale[k], left[i],
    left_last[i], left_scale[i]).
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
        self.digit_array = digit_array(np.arange(n), factors).astype(np.int16)
        self.smul = [(s * self.digit_array % factors @ self.strides).tolist()
                     for s in range(self.exponent)]
        self.digits = [tuple((i, a) for i, a in enumerate(row) if a)
                       for row in self.digit_array.tolist()]
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
        P = self.P = [[posidx[(i, j)] for j in range(r)] for i in range(r)]
        # `_full_mul`'s operands besides the digits, built once
        self.P_np = np.array(P, dtype=np.intp)
        self.factors_np = np.array(factors, dtype=np.int16)
        self.strides_np = np.array(self.strides, dtype=np.int16)

        def read_plans(pos, sign):
            # per generator g and element x: the plan, its last read, and the
            # digit that read is scaled by, times sign
            plans, last, scale = [], [], []
            for g in range(r):
                reads = [[(pos(g, m), a) for m, a in d] for d in self.digits]
                plans.append([tuple((p, self.smul[a]) for p, a in rd) for rd in reads])
                tails = [max(rd, default=(-1, 0)) for rd in reads]
                last.append([p for p, _ in tails])
                scale.append([sign * a % self.exponent for _, a in tails])
            return plans, last, scale

        self.right, self.right_last, self.right_scale = read_plans(lambda k, m: P[m][k], 1)
        self.left, self.left_last, self.left_scale = read_plans(lambda i, m: P[i][m], -1)
        self.solve = [[0] * n for _ in range(self.exponent)]
        for a, image in enumerate(self.smul):
            for c, t in enumerate(image):
                self.solve[a][t] |= 1 << c
        self.triples = [[] for _ in positions]
        for i, j, k in itertools.product(range(r), repeat=3):
            self.triples[max(P[i][j], P[j][k])].append(
                (P[i][j], P[j][k], self.right[k], self.right_last[k], self.right_scale[k],
                 self.left[i], self.left_last[i], self.left_scale[i]))

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
    triple (i, j, k) asks (g_i g_j) g_k == g_i (g_j g_k).  It first reads
    x = g_i g_j and y = g_j g_k, so it starts in `ctx.triples` at the later
    of their two positions.  Once they are placed, the read plans
    `right[k][x]` and `left[i][y]` name every other constant it reads, and
    the later of their last positions is the depth where it becomes
    decidable.  A triple reached at depth d whose last read is still
    unplaced is filed once under that last read, as its pair of plans and
    the scale alpha its two sides put on that read; every other triple is
    evaluated in full there: a false one prunes the node, a true one is
    done.  Backtracking pops the filings.  Positions are placed in depth
    order, so each triple is decided at the node where its last read is
    placed, which is where re-checking every open triple at every node
    would decide it: the tree, its node counts and the stream are those of
    that exhaustive check (kept in the tests as the oracle).

    Filed pairs are forward-checked: a plan's positions are distinct, so a
    pair filed under d reads C[d] at most once per side, and
    lhs - rhs = s + alpha C[d].  The parent evaluates each pair once with
    C[d] = 0, which gives s, and ANDs `solve[alpha][-s]` into a bitmask of
    the candidates every pair allows.  A candidate outside it is charged
    its node and skipped with one bit test.  On the raw order-16
    800 000-node prefix that is 93 k per-parent solves (of 97 k filed
    pairs; the rest follow a mask already empty) in place of 560 k
    per-candidate evaluations, and 483 k nodes rejected by a bit test.

    The static triples are checked after the mask, fail-first: when one
    prunes a node, it swaps places with the front entry of this run's copy
    of the list, so later nodes at that depth test it first.  The order
    cannot change the tree: a node is pruned exactly when some triple
    decidable there is false, whichever is tested first, and the filings
    made before the false one are popped at that same node.

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
    add, neg, solve, exponent = ctx.add, ctx.smul[-1], ctx.solve, ctx.exponent
    triples = [list(t) for t in ctx.triples]
    filed = [[] for _ in range(npos)]
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
        static = triples[depth]
        # bit c of `allowed` is set when C[depth] = c keeps every filed pair
        # true; at C[depth] = 0 a pair's sides differ by s, so c must solve
        # alpha c = -s (smul[-1] is negation)
        allowed = -1
        C[depth] = 0
        for right, left, alpha in filed[depth]:
            lhs = 0
            for p, scale in right:
                lhs = add[lhs][scale[C[p]]]
            rhs = 0
            for p, scale in left:
                rhs = add[rhs][scale[C[p]]]
            allowed &= solve[alpha][add[rhs][neg[lhs]]]
            if not allowed:
                break
        for ci in index_range:
            replayed = (on_spine and depth < len(spine) - 1 and ci == spine[depth])
            if not replayed and budget is not None:
                if budget[0] <= 0:
                    path = [cands[d].index(C[d]) for d in range(depth)] + [ci]
                    raise BudgetError(
                        f"node budget exhausted while searching order {ctx.order}",
                        resume_token=token_prefix + ",".join(map(str, path)))
                budget[0] -= 1
            c = clist[ci]
            if not allowed >> c & 1:
                continue
            C[depth] = c
            moved = []
            for triple in static:
                pij, pjk, right, right_last, right_scale, left, left_last, left_scale = triple
                x = C[pij]
                y = C[pjk]
                last = right_last[x]
                if left_last[y] > last:
                    last = left_last[y]
                if last > depth:
                    alpha = right_scale[x] if right_last[x] == last else 0
                    if left_last[y] == last:
                        alpha += left_scale[y]
                    filed[last].append((right[x], left[y], alpha % exponent))
                    moved.append(last)
                    continue
                lhs = 0
                for p, scale in right[x]:
                    lhs = add[lhs][scale[C[p]]]
                rhs = 0
                for p, scale in left[y]:
                    rhs = add[rhs][scale[C[p]]]
                if lhs != rhs:
                    if static[0] is not triple:
                        i = static.index(triple)
                        static[0], static[i] = triple, static[0]
                    break
            else:
                yield from rec(depth + 1, replayed)
            for q in moved:
                filed[q].pop()
        C[depth] = -1

    yield from rec(0, bool(spine))


def _unity_of(ctx: _ShapeContext, consts) -> int:
    """Index of the table's unity, or -1: e is the unity iff e g_j = g_j and
    g_i e = g_i for every generator, each product read off its plan."""
    add = ctx.add
    checks = [*zip(ctx.gens, ctx.right), *zip(ctx.gens, ctx.left)]
    for e in range(ctx.order):
        for g, plans in checks:
            s = 0
            for p, scale in plans[e]:
                s = add[s][scale[consts[p]]]
            if s != g:
                break
        else:
            return e
    return -1


def _full_mul(ctx: _ShapeContext, consts) -> np.ndarray:
    """Bilinear extension of the structure constants: the flat uint8 mul table,
    or one table per row of a stack of constant tuples.

    Digit l of x * y is the sum over i, j of x_i y_j (g_i g_j)_l, mod d_l:
    the digit matrix contracted twice with the constants' digits.  Orders
    stay <= 16, so a sum is at most r^2 (d_0 - 1)^3 <= 15^3 and fits an
    int16 (the temporaries of a stack stay small), and every entry fits a
    byte.
    """
    digits, r, n = ctx.digit_array, ctx.r, ctx.order
    const_digits = digits[np.asarray(consts)[..., ctx.P_np]]                  # [., i, j, l]
    lead = const_digits.shape[:-3]
    left = (digits @ const_digits.reshape(*lead, r, r * r)).reshape(*lead, n, r, r)  # [., x, j, l]
    prod = digits @ left                                                      # [., x, y, l]
    prod %= ctx.factors_np
    return (prod @ ctx.strides_np).astype(np.uint8).reshape(*lead, n * n)


def _leaf_mul(ctx: _ShapeContext, consts, one: int) -> np.ndarray:
    """`_full_mul` of a search leaf, validated by `verify_tables` as a ring
    with unity `one`: the one check of each class seed the search builds."""
    mul = _full_mul(ctx, consts)
    verify_tables(ctx.add_np, mul.reshape(ctx.order, ctx.order), one)
    return mul


# Unital leaves of a raw walk are built and screened this many at a time.
# At order 16 a leaf's temporaries (the int16 digit products of `_full_mul`,
# the screen's gathers and their intp indices) take about 4 KB, so a batch
# peaks near 0.5 MB, below what the rest of a search holds.
_LEAF_BATCH = 128


def _leaf_batch(ctx: _ShapeContext, leaves, ones):
    """Yield (flat mul table, unity) for a batch of unital leaves, in order:
    one bilinear extension and one `_axioms_hold` screen for the batch.

    If the screen fails, each table goes through `verify_tables` before it
    is yielded, so the stream gives the tables before the first bad one and
    then raises its ConstructionError.  The tables need no shape or range
    check: `_full_mul` builds them on the shape's order, every entry an
    element.
    """
    if not leaves:
        return
    n = ctx.order
    muls = _full_mul(ctx, leaves)
    holds = _axioms_hold(ctx.add_np, muls.reshape(-1, n, n), ones)
    for mul, one in zip(muls, ones):
        if not holds:
            verify_tables(ctx.add_np, mul.reshape(n, n), one)
        yield mul, one


def _unital_tables(ctx: _ShapeContext, assignments):
    """Filter a raw constant stream down to (flat mul table, unity) pairs:
    the raw route of a budgeted or resumed run.

    `_unity_of` scans each leaf; the unital ones go to `_leaf_batch`
    _LEAF_BATCH at a time.  A BudgetError from the walk is raised after
    the tables of the batch it cut short.
    """
    leaves, ones = [], []
    try:
        for consts in assignments:
            e = _unity_of(ctx, consts)
            if e >= 0:
                leaves.append(consts)
                ones.append(e)
                if len(leaves) == _LEAF_BATCH:
                    yield from _leaf_batch(ctx, leaves, ones)
                    leaves, ones = [], []
    except BudgetError:
        yield from _leaf_batch(ctx, leaves, ones)
        raise
    yield from _leaf_batch(ctx, leaves, ones)


def _relabeled_constants(ctx: _ShapeContext, mul: np.ndarray, phi, inv) -> np.ndarray:
    """The constant tuples of the flat mul table's relabelings, one row per
    automorphism row of `phi` (`inv` holding their inverses).

    Relabeling by phi puts phi[mul[inv x, inv y]] at (x, y), inv the
    inverse of phi, so each row reads only the r^2 cells at the generator
    pairs of the positions.
    """
    left, right = np.asarray(ctx.gens)[np.transpose(ctx.positions)]
    cells = mul.reshape(ctx.order, ctx.order)[inv[:, left], inv[:, right]]
    return np.take_along_axis(phi, cells, axis=1)


def _new_orbits(ctx: _ShapeContext, assignments):
    """Yield (constants, flat mul table, orbit) for each leaf of a pinned
    constant stream whose constants no earlier orbit holds; the orbit is the
    set of constant tuples of the leaf's relabelings by Stab(g_0), the rows
    of `_shape_automorphisms` with phi(g_0) = g_0.
    """
    autos, inverses = _shape_automorphisms(ctx)
    g0 = ctx.gens[0]
    stab = autos[:, g0] == g0
    phi, inv = autos[stab], inverses[stab]
    seen: set[bytes] = set()
    for consts in assignments:
        if bytes(consts) in seen:
            continue
        mul = _leaf_mul(ctx, consts, g0)
        orbit = set(map(bytes, _relabeled_constants(ctx, mul, phi, inv)))
        seen |= orbit
        yield consts, mul, orbit


def _expanded_tables(ctx: _ShapeContext, reverse: bool):
    """Every (flat mul table, unity) pair of the shape's labeling, as the
    unbudgeted raw search `_unital_tables(ctx, _dfs_stream(ctx, reverse))`
    streams them, built from the pinned classes instead of the raw tree.

    A unital table's unity generates a direct summand of maximal order, so
    some automorphism phi sends g_0 to it, and the table is phi applied to
    a leaf of the pinned tree: the raw tables are the relabelings of the
    pinned leaves by all of Aut(G), the unity of phi's relabeling being
    phi(g_0).  Pinned leaves in one Aut(G)-orbit differ by an automorphism
    that keeps the unity g_0, so they share a Stab(g_0)-orbit, and each
    leaf `_new_orbits` yields starts a new Aut(G)-orbit.  The raw tree's
    candidate lists ascend (descend), so its leaves come in the order of
    their constant tuples, which sorting the expansion restores.
    """
    autos, inverses = _shape_automorphisms(ctx)
    images = autos[:, ctx.gens[0]].tolist()
    unity: dict[bytes, int] = {}
    for _, mul, _ in _new_orbits(ctx, _dfs_stream(ctx, pinned=True)):
        unity.update(zip(map(bytes, _relabeled_constants(ctx, mul, autos, inverses)), images))
    for key in sorted(unity, reverse=reverse):
        yield _full_mul(ctx, np.frombuffer(key, dtype=np.uint8)), unity[key]


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
    multiples = _multiple(lambda a, b: add[a, b], np.arange(len(add)), d)  # by doubling
    return np.flatnonzero(multiples == 0).astype(np.uint8)


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
    them row by row, `_new_orbits` reads Stab(g_0) off them, and
    `_expanded_tables` relabels by every row.  The tests check the row
    count against `abelian_automorphism_count`."""
    autos = np.concatenate(list(_additive_maps(ctx, ctx.add_np)))
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
    """Stream every unital ring of the order as explicit-table rings, each
    table the search builds validated once (module docstring).

    The raw stream holds every unital table on each shape's labeling, in
    the order of their constant tuples, by the route that `budget` and
    `resume` pick (module docstring).  With `up_to_iso` the search walks
    the pinned tree, where g_0 is the unity (label 1 from order 2 on), and
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
        names = itertools.count()
        for si in range(start_shape, len(shapes)):
            ctx = _shape_context(shapes[si].invariant_factors)
            token_prefix = f"{_TOKEN_VERSION}:{order}:{mode}:{si}:"
            path = start_path if si == start_shape else []
            leaves = _dfs_stream(ctx, reverse=reverse, budget=budget_cell, start_path=path,
                                 token_prefix=token_prefix, pinned=up_to_iso)
            if up_to_iso:
                pairs = _class_tables(ctx, leaves, reverse)
            elif budget is None and resume is None:
                pairs = _expanded_tables(ctx, reverse)
            else:
                pairs = _unital_tables(ctx, leaves)
            add = ctx.add_np.astype(np.int32)  # one copy for the shape's rings, read-only in each
            for mul_flat, one in pairs:
                yield TableRingStructure(add,
                                         mul_flat.reshape(order, order).astype(np.int32),
                                         one, f"R{order}#{next(names)}")

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
    factors = r.additive_type
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
    # the unity is the image of r's under the relabeling.
    one = int(autos[alive[0]][np.argsort(phi)[r.one]])
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
