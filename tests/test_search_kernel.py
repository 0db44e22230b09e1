"""The structure-constant search kernel against its reference implementations.

`oracle_dfs_stream` is the exhaustive-check search: at every node it walks
a bitmask of all still-open generator triples and re-checks each one.
`oracle_full_mul` is the per-entry Python bilinear extension, and
`oracle_unital_tables` the raw route one leaf at a time.  The production
kernel (read plans, numpy contraction, leaves built and screened in
batches) must reproduce them exactly: the same constant stream and tables
in the same order, the same node counts, and the same resume tokens.  The
raw kernel, in turn, is the oracle of the orbit expansion that serves
unbudgeted raw runs.
"""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from finring import (BudgetError, ConstructionError, abelian_group_shapes,
                     enumerate_unital_rings, enumeration, verify_tables)
from finring.enumeration import (
    _LEAF_BATCH, _dfs_stream, _expanded_tables, _full_mul, _shape_automorphisms,
    _shape_context, _ShapeContext, _unital_tables, _unity_of)


def oracle_dfs_stream(ctx, reverse=False, budget=None, start_path=None, token_prefix="",
                      pinned=False):
    """Every associative constant assignment, checking all open triples at each node."""
    positions = ctx.positions
    npos = len(positions)
    cands = ctx.candidate_lists(reverse, pinned)
    r = ctx.r
    triples = [(i, j, k) for i in range(r) for j in range(r) for k in range(r)]
    digits, add, smul, P = ctx.digits, ctx.add, ctx.smul, ctx.P
    C = [-1] * npos
    spine = list(start_path) if start_path else []
    path = []

    def check_triple(t):
        i, j, k = triples[t]
        cij = C[P[i][j]]
        if cij < 0:
            return -1
        cjk = C[P[j][k]]
        if cjk < 0:
            return -1
        lhs = 0
        for (m, a) in digits[cij]:
            v = C[P[m][k]]
            if v < 0:
                return -1
            lhs = add[lhs][smul[a][v]]
        rhs = 0
        for (m, a) in digits[cjk]:
            v = C[P[i][m]]
            if v < 0:
                return -1
            rhs = add[rhs][smul[a][v]]
        return 1 if lhs == rhs else 0

    def rec(depth, unchecked, on_spine):
        if depth == npos:
            yield tuple(C)
            return
        clist = cands[depth]
        if on_spine and depth < len(spine):
            index_range = range(spine[depth], len(clist))
        else:
            index_range = range(len(clist))
        for ci in index_range:
            replayed = (on_spine and depth < len(spine) - 1 and ci == spine[depth])
            if not replayed and budget is not None:
                if budget[0] <= 0:
                    raise BudgetError(
                        f"node budget exhausted while searching order {ctx.order}",
                        resume_token=token_prefix + ",".join(map(str, path + [ci])))
                budget[0] -= 1
            C[depth] = clist[ci]
            path.append(ci)
            newmask = unchecked
            ok = True
            t = 0
            m = unchecked
            while m:
                if m & 1:
                    res = check_triple(t)
                    if res == 0:
                        ok = False
                        break
                    if res == 1:
                        newmask &= ~(1 << t)
                m >>= 1
                t += 1
            if ok:
                yield from rec(depth + 1, newmask, replayed)
            path.pop()
        C[depth] = -1

    yield from rec(0, (1 << len(triples)) - 1, bool(spine))


def oracle_full_mul(ctx, consts):
    """Bilinear extension of the constants, one flat table entry at a time."""
    n, exponent = ctx.order, ctx.exponent
    add, smul, digits, P = ctx.add, ctx.smul, ctx.digits, ctx.P
    out = []
    for x in range(n):
        for y in range(n):
            s = 0
            for (i, a) in digits[x]:
                for (j, b) in digits[y]:
                    s = add[s][smul[(a * b) % exponent][consts[P[i][j]]]]
            out.append(s)
    return tuple(out)


def oracle_unital_tables(ctx, assignments):
    """The raw route one leaf at a time: scan each leaf for its unity, then
    build each unital leaf's table and check it with `verify_tables` alone."""
    for consts in assignments:
        e = _unity_of(ctx, consts)
        if e >= 0:
            mul = _full_mul(ctx, consts)
            verify_tables(ctx.add_np, mul.reshape(ctx.order, ctx.order), e)
            yield mul, e


def _shapes(orders):
    return [s.invariant_factors for n in orders for s in abelian_group_shapes(n)]


def _run(stream, budget=10 ** 7):
    """(nodes consumed, assignments yielded, stop token or None) of a budgeted stream."""
    cell = [budget]
    leaves, token = [], None
    try:
        for leaf in stream(cell):
            leaves.append(leaf)
    except BudgetError as exc:
        token = exc.resume_token
    return budget - cell[0], leaves, token


# ---------------------------------------------------------------------------
# read plans against brute force


@pytest.mark.parametrize("factors", _shapes(range(2, 17)), ids=str)
def test_read_plans_match_brute_force(factors):
    # x g_k reads g_m g_k, and g_i x reads g_i g_m, at scale a for each digit
    # (m, a) of x, in digit order; the last read is their latest position.
    # `digits` and `smul` are checked against decoded digits in test_enumeration.
    ctx = _shape_context(factors)
    P = ctx.P
    for x in range(ctx.order):
        for g in range(ctx.r):
            for plans, last, pos in [(ctx.right, ctx.right_last, lambda m: P[m][g]),
                                     (ctx.left, ctx.left_last, lambda m: P[g][m])]:
                want = [(pos(m), ctx.smul[a]) for m, a in ctx.digits[x]]
                assert list(plans[g][x]) == want, (g, x)
                assert last[g][x] == max((p for p, _ in want), default=-1), (g, x)


@pytest.mark.parametrize("factors", _shapes(range(2, 17)), ids=str)
def test_last_read_scales_and_solve_masks_match_brute_force(factors):
    # the last read of x g_k is scaled by x's digit there, that of g_i y by
    # minus y's digit, so a filed pair's two sides differ by s + alpha C[d];
    # solve[a][t] holds the elements c with a c = t, summed c by c
    ctx = _shape_context(factors)
    P, e, add = ctx.P, ctx.exponent, ctx.add
    for x in range(ctx.order):
        for g in range(ctx.r):
            for last, scale, pos, sign in [(ctx.right_last, ctx.right_scale, lambda m: P[m][g], 1),
                                           (ctx.left_last, ctx.left_scale, lambda m: P[g][m], -1)]:
                digit = [a for m, a in ctx.digits[x] if pos(m) == last[g][x]]
                assert scale[g][x] == (sign * digit[0] % e if digit else 0), (g, x)
    multiples = [[0] * ctx.order]
    for _ in range(1, e):
        multiples.append([add[m][c] for c, m in enumerate(multiples[-1])])
    for a in range(e):
        for t in range(ctx.order):
            want = {c for c in range(ctx.order) if multiples[a][c] == t}
            assert {c for c in range(ctx.order) if ctx.solve[a][t] >> c & 1} == want, (a, t)


def test_shape_contexts_stay_small():
    # the per-parent solve needs r x n scales per side and exponent x n masks;
    # eager merged plans for every (i, k, x, y) would take about 4.5 MB here
    tracemalloc.start()
    try:
        contexts = [_ShapeContext(s.invariant_factors) for s in abelian_group_shapes(16)]
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(contexts) == 5
    assert allocated < 2 ** 20


# ---------------------------------------------------------------------------
# the kernel against the oracle


TREES = [(False, False), (True, False), (False, True), (True, True)]
TREE_IDS = ["forward", "reversed", "forward-pinned", "reversed-pinned"]


@pytest.mark.parametrize("factors", _shapes(range(2, 13)), ids=str)
@pytest.mark.parametrize("reverse, pinned", TREES, ids=TREE_IDS)
def test_kernel_stream_matches_oracle(factors, reverse, pinned):
    ctx = _shape_context(factors)
    assert (_run(lambda cell: _dfs_stream(ctx, reverse, cell, pinned=pinned))
            == _run(lambda cell: oracle_dfs_stream(ctx, reverse, cell, pinned=pinned)))


def _order16_run(stream, budget, mode):
    """Run every order-16 shape in turn on one shared budget: (leaves, stop token)."""
    cell = [budget]
    leaves = []
    for si, s in enumerate(abelian_group_shapes(16)):
        ctx = _shape_context(s.invariant_factors)
        try:
            leaves.extend(stream(ctx, cell, f"v1:16:{mode}:{si}:"))
        except BudgetError as exc:
            return leaves, exc.resume_token
    return leaves, None


@pytest.mark.parametrize("budget", [1, 999, 50_000])
def test_kernel_order_16_tokens_match_oracle(budget):
    for reverse, pinned in TREES:
        mode = ("r" if reverse else "f") + ("i" if pinned else "")
        new = _order16_run(lambda ctx, cell, prefix: _dfs_stream(
            ctx, reverse, cell, token_prefix=prefix, pinned=pinned), budget, mode)
        old = _order16_run(lambda ctx, cell, prefix: oracle_dfs_stream(
            ctx, reverse, cell, token_prefix=prefix, pinned=pinned), budget, mode)
        assert new == old
        assert new[1] is not None


def test_kernel_resume_matches_oracle():
    # on every tree, resume at the oracle's stop token: (2, 2, 2) stops at
    # 5000 nodes raw and at 500 pinned (its pinned tree has 827) and then
    # finishes, (2, 2, 2, 2) stops at 100 and at 3000 and runs 20 000 more
    for reverse, pinned in TREES:
        for factors, budget, rest in [((2, 2, 2), 500 if pinned else 5000, 10 ** 7),
                                      ((2, 2, 2, 2), 100, 20_000),
                                      ((2, 2, 2, 2), 3000, 20_000)]:
            ctx = _shape_context(factors)
            with pytest.raises(BudgetError) as exc:
                list(oracle_dfs_stream(ctx, reverse, budget=[budget], pinned=pinned))
            path = [int(p) for p in exc.value.resume_token.split(",")]
            new = _run(lambda cell: _dfs_stream(ctx, reverse, cell, path, pinned=pinned), rest)
            old = _run(lambda cell: oracle_dfs_stream(ctx, reverse, cell, path, pinned=pinned),
                       rest)
            assert new == old, (factors, budget, reverse, pinned)
            assert new[1], (factors, budget, reverse, pinned)


def _first_spine_rejection(ctx, path, reverse, pinned):
    """How the first rejected replayed spine node of `path` fails, or None.

    "filed" when a triple whose first two reads lie above the node and
    whose last read is at it is false there (the per-parent mask rejects
    it), "static" when only a triple first read at the node is false.
    """
    cands = ctx.candidate_lists(reverse, pinned)
    C = [cands[d][ci] for d, ci in enumerate(path)]
    P, add, smul, digits, r = ctx.P, ctx.add, ctx.smul, ctx.digits, ctx.r
    for d in range(len(path) - 1):
        kinds = set()
        for i, j, k in itertools.product(range(r), repeat=3):
            first = max(P[i][j], P[j][k])
            if first > d:
                continue
            x, y = C[P[i][j]], C[P[j][k]]
            right = [(P[m][k], a) for m, a in digits[x]]
            left = [(P[i][m], a) for m, a in digits[y]]
            if max([first] + [p for p, _ in right + left]) != d:
                continue  # decided above the node, or not yet decidable
            lhs = rhs = 0
            for p, a in right:
                lhs = add[lhs][smul[a][C[p]]]
            for p, a in left:
                rhs = add[rhs][smul[a][C[p]]]
            if lhs != rhs:
                kinds.add("filed" if first < d else "static")
        if kinds:
            return "filed" if "filed" in kinds else "static"
    return None


def test_kernel_resume_from_seeded_paths_matches_oracle():
    # resumes from in-range paths that no search stopped at, four of each:
    # a replayed spine node is never charged, whether a filed pair's mask, a
    # static triple or nothing rejects it
    rng = random.Random(24)
    for factors in [(2, 2, 2), (4, 2, 2)]:
        ctx = _shape_context(factors)
        for reverse, pinned in TREES:
            sizes = [len(c) for c in ctx.candidate_lists(reverse, pinned)]
            paths = {"filed": [], "static": [], None: []}
            for _ in range(2000):
                path = [rng.randrange(size) for size in sizes[:rng.randint(1, len(sizes))]]
                kind = paths[_first_spine_rejection(ctx, path, reverse, pinned)]
                if len(kind) < 4:
                    kind.append(path)
            assert all(len(kind) == 4 for kind in paths.values()), (factors, reverse, pinned)
            for path in itertools.chain(*paths.values()):
                new = _run(lambda cell: _dfs_stream(ctx, reverse, cell, path, pinned=pinned),
                           2000)
                old = _run(lambda cell: oracle_dfs_stream(ctx, reverse, cell, path,
                                                          pinned=pinned), 2000)
                assert new == old, (factors, reverse, pinned, path)


def test_kernel_order_16_resume_matches_oracle():
    # the stop token of the 800 000-node raw prefix, deep inside (2,2,2,2)
    ctx = _shape_context((2, 2, 2, 2))
    path = [0, 0, 0, 0, 0, 0, 1, 1, 3, 1, 1, 2, 2, 5, 2]
    new = _run(lambda cell: _dfs_stream(ctx, budget=cell, start_path=path), 20_000)
    old = _run(lambda cell: oracle_dfs_stream(ctx, budget=cell, start_path=path), 20_000)
    assert new == old
    assert new[1] and new[2] is not None


def test_budget_stop_leaves_shared_context_intact():
    # the kernel reorders only its own copy of the static triple lists, so a
    # stopped run leaves the cached context as built and a rerun repeats itself
    def stopped_run():
        return _order16_run(lambda ctx, cell, prefix: _dfs_stream(
            ctx, budget=cell, token_prefix=prefix, pinned=True), 50_000, "fi")

    first = stopped_run()
    assert first[1].startswith("v1:16:fi:4:")
    ctx = _shape_context((2, 2, 2, 2))
    assert ctx.triples == _ShapeContext((2, 2, 2, 2)).triples
    assert stopped_run() == first
    # one context per shape, and one read-only automorphism pair per context
    assert _shape_context((2, 2, 2, 2)) is ctx
    autos, inverses = _shape_automorphisms(ctx)
    again = _shape_automorphisms(ctx)
    assert again[0] is autos and again[1] is inverses
    assert not autos.flags.writeable and not inverses.flags.writeable


@pytest.mark.parametrize("factors", _shapes(range(2, 13)), ids=str)
def test_full_mul_matches_bilinear_loop(factors):
    ctx = _shape_context(factors)
    for consts in _dfs_stream(ctx):
        assert tuple(int(v) for v in _full_mul(ctx, consts)) == oracle_full_mul(ctx, consts)


@pytest.mark.parametrize("factors", _shapes(range(2, 17)), ids=str)
def test_full_mul_of_a_stack_matches_each_leaf(factors):
    # raw leaves, and seeded constants of the largest digits the candidate
    # lists hold, where the int16 digit sums are largest; (16,) at random
    # also against the bilinear loop
    ctx = _shape_context(factors)
    rng = random.Random(sum(factors))
    stacks = [list(itertools.islice(_dfs_stream(ctx), 300)),
              [[rng.choice(c) for c in ctx.candidate_lists(False)] for _ in range(50)]]
    for stack in stacks:
        muls = _full_mul(ctx, stack)
        assert muls.dtype == np.uint8 and muls.shape == (len(stack), ctx.order ** 2)
        for consts, mul in zip(stack, muls):
            assert mul.tobytes() == _full_mul(ctx, consts).tobytes()
            if factors == (16,):
                assert tuple(int(v) for v in mul) == oracle_full_mul(ctx, consts)


# ---------------------------------------------------------------------------
# the batched leaf tail of the raw route against the per-leaf route


def _tail_run(tail, ctx, reverse, budget, path=None):
    """(tables with their unities, stop path or None, budget left) of a
    budgeted raw walk filtered by `tail`."""
    cell = [budget]
    tables, token = [], None
    try:
        for mul, one in tail(ctx, _dfs_stream(ctx, reverse, cell, path)):
            tables.append((bytes(mul), one))
    except BudgetError as exc:
        token = exc.resume_token
    return tables, token, cell[0]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_leaf_batches_match_per_leaf_route(reverse):
    # every shape of orders 1..16, stopped before the first node, inside and
    # after batches, and resumed from each stop on the same budget
    for factors in _shapes(range(1, 17)):
        ctx = _shape_context(factors)
        for budget in (0, 1, 7, 100, 5000, 300_000):
            new = _tail_run(_unital_tables, ctx, reverse, budget)
            assert new == _tail_run(oracle_unital_tables, ctx, reverse, budget), (factors, budget)
            if new[1] is not None:
                path = [int(p) for p in new[1].split(",")]
                resumed = _tail_run(_unital_tables, ctx, reverse, budget, path)
                assert resumed == _tail_run(oracle_unital_tables, ctx, reverse, budget, path), (
                    factors, budget, path)


@pytest.mark.slow
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_leaf_batches_match_per_leaf_route_on_a_long_prefix(reverse):
    ctx = _shape_context((2, 2, 2, 2))
    new = _tail_run(_unital_tables, ctx, reverse, 5_000_000)
    assert new == _tail_run(oracle_unital_tables, ctx, reverse, 5_000_000)
    assert new[0] and new[1] is not None


def test_failing_batch_yields_the_tables_before_the_bad_one(monkeypatch):
    # (4, 2, 2) has 992 unital leaves; one table in the middle of the
    # second batch is corrupted as the batch is built
    ctx = _shape_context((4, 2, 2))
    n = ctx.order
    good = [(bytes(mul), one) for mul, one in _unital_tables(ctx, _dfs_stream(ctx))]
    bad_at = _LEAF_BATCH + _LEAF_BATCH // 2
    assert len(good) > 2 * _LEAF_BATCH
    target, one = good[bad_at]
    corrupt = np.frombuffer(target, dtype=np.uint8).reshape(n, n).copy()
    corrupt[5, 6] = (corrupt[5, 6] + 1) % n
    try:
        verify_tables(ctx.add_np, corrupt, one)
    except ConstructionError as exc:
        expected = str(exc)
    assert expected.startswith("ring axiom violated: ")

    build = enumeration._full_mul

    def corrupting(ctx, consts):
        muls = build(ctx, consts)
        for row in muls.reshape(-1, n * n):
            if row.tobytes() == target:
                row[:] = corrupt.ravel()
        return muls

    monkeypatch.setattr(enumeration, "_full_mul", corrupting)
    got = []
    with pytest.raises(ConstructionError) as exc:
        for mul, unity in _unital_tables(ctx, _dfs_stream(ctx)):
            got.append((bytes(mul), unity))
    assert got == good[:bad_at]
    assert str(exc.value) == expected


def test_corrupted_class_seed_raises_the_screen_witness(monkeypatch):
    # one class seed of order 8 is corrupted as it is built; the search up
    # to isomorphism raises the ConstructionError verify_tables gives it
    target_ring = list(enumerate_unital_rings(8, up_to_iso=True))[5]
    add, mul = target_ring.tables()
    n, one = target_ring.order, target_ring.one
    target = mul.astype(np.uint8).tobytes()
    corrupt = mul.astype(np.uint8)
    corrupt[5, 6] = (corrupt[5, 6] + 1) % n
    try:
        verify_tables(add, corrupt, one)
    except ConstructionError as exc:
        expected = str(exc)
    assert expected.startswith("ring axiom violated: ")

    build = enumeration._full_mul

    def corrupting(ctx, consts):
        # a seed is built alone, or as a stack of one
        muls = build(ctx, consts)
        for row in muls.reshape(-1, ctx.order ** 2):
            if row.tobytes() == target:
                row[:] = corrupt.ravel()
        return muls

    monkeypatch.setattr(enumeration, "_full_mul", corrupting)
    with pytest.raises(ConstructionError) as exc:
        list(enumerate_unital_rings(8, up_to_iso=True))
    assert str(exc.value) == expected


def test_budget_stop_yields_the_cut_batch_first():
    # a stop after 150 000 nodes of (4, 2, 2) cuts a batch short: its tables
    # come before the BudgetError, whose token is the walk's own
    ctx = _shape_context((4, 2, 2))
    tables, token, left = _tail_run(_unital_tables, ctx, False, 150_000)
    assert len(tables) > _LEAF_BATCH and len(tables) % _LEAF_BATCH
    assert (tables, token, left) == _tail_run(oracle_unital_tables, ctx, False, 150_000)
    assert token == _run(lambda cell: _dfs_stream(ctx, budget=cell), 150_000)[2]


def test_leaf_batches_stay_small_in_memory():
    # the batched tail over the 992 unital leaves of the (4, 2, 2) raw tree
    # peaks near 0.5 MB; with a batch 8 times larger it takes about 2.6 MB
    ctx = _shape_context((4, 2, 2))
    leaves = list(_dfs_stream(ctx))
    assert sum(1 for _ in _unital_tables(ctx, leaves)) == 992
    tracemalloc.start()
    try:
        for _ in _unital_tables(ctx, leaves):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# the raw stream as the orbit expansion of the pinned classes


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_expanded_tables_match_raw_search(reverse):
    # every shape of orders 1..15 and the four order-16 shapes whose raw
    # tree finishes: the same tables, unities and order as scanning the
    # leaves of the raw tree
    for factors in _shapes(range(1, 16)) + [(16,), (8, 2), (4, 4), (4, 2, 2)]:
        ctx = _shape_context(factors)
        expanded = [(bytes(mul), one) for mul, one in _expanded_tables(ctx, reverse)]
        raw = [(bytes(mul), one) for mul, one in _unital_tables(ctx, _dfs_stream(ctx, reverse))]
        assert expanded == raw, factors


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_expanded_tables_do_not_depend_on_the_chunk_size(reverse, monkeypatch):
    # tables built one, three and _LEAF_BATCH at a time: the same stream, byte
    # for byte, on every shape of orders 2..12 and the four finished order-16 shapes
    def stream(ctx, chunk):
        monkeypatch.setattr(enumeration, "_LEAF_BATCH", chunk)
        return [(mul.dtype.str, mul.shape, bytes(mul), one)
                for mul, one in _expanded_tables(ctx, reverse)]
    for factors in _shapes(range(2, 13)) + [(16,), (8, 2), (4, 4), (4, 2, 2)]:
        ctx = _shape_context(factors)
        want = stream(ctx, _LEAF_BATCH)
        assert want and all(dtype == "|u1" and shape == (ctx.order ** 2,)
                            for dtype, shape, _, _ in want), factors
        assert stream(ctx, 1) == stream(ctx, 3) == want, factors


# ---------------------------------------------------------------------------
# pinned node counts


@pytest.mark.parametrize("factors, nodes, leaves", [
    ((8,), 8, 8),
    ((4, 2), 296, 60),
    ((2, 2, 2), 114_840, 1688),
    ((3, 3), 1422, 121),
    ((6, 2), 444, 84),
    # the four order-16 shapes whose raw tree finishes; (2, 2, 2, 2) has about 5e11 nodes
    ((16,), 16, 16),
    ((8, 2), 592, 120),
    ((4, 4), 9616, 616),
    ((4, 2, 2), 295_664, 4864),
])
def test_pinned_node_counts(factors, nodes, leaves):
    ctx = _shape_context(factors)
    consumed, stream, _ = _run(lambda cell: _dfs_stream(ctx, budget=cell))
    assert (consumed, len(stream)) == (nodes, leaves)


@pytest.mark.parametrize("factors, nodes, leaves", [
    ((4, 2), 7, 4),
    ((2, 2, 2), 827, 76),
])
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
def test_pinned_tree_node_counts(factors, nodes, leaves, reverse):
    ctx = _shape_context(factors)
    consumed, stream, _ = _run(lambda cell: _dfs_stream(ctx, reverse, cell, pinned=True))
    assert (consumed, len(stream)) == (nodes, leaves)


def test_order_16_budget_prefix_is_pinned():
    count = 0
    with pytest.raises(BudgetError) as exc:
        for _ in enumerate_unital_rings(16, budget=800_000):
            count += 1
    assert count == 1378
    assert exc.value.resume_token == "v1:16:f:4:0,0,0,0,0,0,1,1,3,1,1,2,2,5,2"
