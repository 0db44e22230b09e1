"""The structure-constant search kernel against its reference implementations.

`oracle_dfs_stream` is the exhaustive-check search: at every node it walks
a bitmask of all still-open generator triples and re-checks each one.
`oracle_full_mul` is the per-entry Python bilinear extension.  The
production kernel (watch lists, numpy contraction) must reproduce both
exactly: the same constant stream in the same order, the same node
counts, and the same resume tokens.
"""

import pytest

from finring import BudgetError, abelian_group_shapes, enumerate_unital_rings
from finring.enumeration import (
    _dfs_stream, _full_mul, _shape_automorphisms, _shape_context, _ShapeContext)


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
    ctx = _shape_context((2, 2, 2))
    with pytest.raises(BudgetError) as exc:
        list(oracle_dfs_stream(ctx, budget=[5000]))
    path = [int(p) for p in exc.value.resume_token.split(",")]
    assert (_run(lambda cell: _dfs_stream(ctx, budget=cell, start_path=path))
            == _run(lambda cell: oracle_dfs_stream(ctx, budget=cell, start_path=path)))


def test_kernel_order_16_resume_matches_oracle():
    # the stop token of the 800 000-node raw prefix, deep inside (2,2,2,2)
    ctx = _shape_context((2, 2, 2, 2))
    path = [0, 0, 0, 0, 0, 0, 1, 1, 3, 1, 1, 2, 2, 5, 2]
    new = _run(lambda cell: _dfs_stream(ctx, budget=cell, start_path=path), 20_000)
    old = _run(lambda cell: oracle_dfs_stream(ctx, budget=cell, start_path=path), 20_000)
    assert new == old
    assert new[1] and new[2] is not None


def test_budget_stop_leaves_shared_context_intact():
    # the kernel reorders only its own copy of the watch lists, so a stopped
    # run leaves the cached context as built and a rerun repeats itself
    def stopped_run():
        return _order16_run(lambda ctx, cell, prefix: _dfs_stream(
            ctx, budget=cell, token_prefix=prefix, pinned=True), 50_000, "fi")

    first = stopped_run()
    assert first[1].startswith("v1:16:fi:4:")
    ctx = _shape_context((2, 2, 2, 2))
    assert ctx.watch == _ShapeContext((2, 2, 2, 2)).watch
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


# ---------------------------------------------------------------------------
# pinned node counts


@pytest.mark.parametrize("factors, nodes, leaves", [
    ((8,), 8, 8),
    ((4, 2), 296, 60),
    ((2, 2, 2), 114_840, 1688),
    ((3, 3), 1422, 121),
    ((6, 2), 444, 84),
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
