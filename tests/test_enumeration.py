"""Exhaustive enumeration: shapes, counts, isomorphism, budgets, serialization."""

import hashlib
import io
import itertools
import json
import random
from math import gcd, lcm, prod

import numpy as np
import pytest

import canonical_oracle
from finring import (
    TABLE_CAP,
    BudgetError,
    ConstructionError,
    abelian_automorphism_count,
    abelian_group_shapes,
    additive_invariant_factors,
    are_isomorphic,
    canonical_form,
    characteristic,
    enumerate_unital_rings,
    is_boolean,
    is_commutative,
    jacobson_radical,
    make_gf,
    make_matrix_ring,
    make_product,
    make_table_ring,
    make_zn,
    parse_ring,
    parse_table_ring,
    read_ring_file,
    serialize_table_ring,
    unit_count,
    unit_sum,
    verify_tables,
    write_ring_file,
)
from finring.enumeration import (
    _additive_maps,
    _class_tables,
    _dfs_stream,
    _expanded_tables,
    _full_mul,
    _new_orbits,
    _shape_automorphisms,
    _shape_context,
    _unital_tables,
)

# Isomorphism-class counts of unital rings, pinned by exhaustive search.
ISO_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 1, 6: 1, 7: 1, 8: 11}
# Raw labeled-table counts on the canonical additive carriers.
RAW_COUNTS = {1: 1, 2: 1, 3: 2, 4: 14, 5: 4, 6: 2, 7: 6, 8: 552}


def _additive_isomorphisms(ctx, target_add, target_order):
    """Oracle: yield every additive isomorphism from the shape labeling onto
    a target group, by walking every tuple of generator images.

    Generator images are drawn from the target elements annihilated by the
    corresponding invariant factor; linear extension plus a bijectivity
    check keeps exactly the isomorphisms.  With the shape's own add law as
    target this enumerates the automorphism group.
    """
    n = ctx.order
    if target_order != n:
        return
    cand = []
    for d in ctx.factors:
        cs = []
        for x in range(n):
            acc = 0
            for _ in range(d):
                acc = target_add(acc, x)
            if acc == 0:
                cs.append(x)
        cand.append(cs)
    for images in itertools.product(*cand):
        phi = [0] * n
        seen = {0}
        for x in range(1, n):
            # phi(x) = phi(x - e_i) + phi(e_i), e_i the first generator in x
            i = ctx.digits[x][0][0]
            s = target_add(phi[x - ctx.strides[i]], images[i])
            if s in seen:
                break
            phi[x] = s
            seen.add(s)
        else:
            yield tuple(phi)


def _relabelings(ctx, mul, rows=slice(None)):
    """Oracle: yield `mul` (flat or square, on the shape's labeling) relabeled
    by every automorphism phi of the shape (those `rows` selects), as uint8
    blocks with one flat table per row: rel[phi x, phi y] = phi[mul[x, y]],
    scattered through phi itself, so the inverse rows are never read.
    """
    n = ctx.order
    flat = np.asarray(mul, dtype=np.uint8).ravel()
    autos = _shape_automorphisms(ctx)[0][rows]
    for start in range(0, len(autos), 256):
        phi = autos[start:start + 256].astype(np.intp)
        k = np.arange(len(phi))[:, None, None]
        rel = np.empty((len(phi), n, n), dtype=np.uint8)
        rel[k, phi[:, :, None], phi[:, None, :]] = phi[:, flat].reshape(-1, n, n)
        yield rel.reshape(len(phi), n * n)


# ---------------------------------------------------------------------------
# additive group shapes


def test_shapes_order_8():
    shapes = abelian_group_shapes(8)
    assert [s.invariant_factors for s in shapes] == [(8,), (4, 2), (2, 2, 2)]
    assert [s.automorphism_count for s in shapes] == [4, 8, 168]


def test_shapes_order_4_and_6():
    assert [s.invariant_factors for s in abelian_group_shapes(4)] == [(4,), (2, 2)]
    assert [s.invariant_factors for s in abelian_group_shapes(6)] == [(6,)]
    assert [s.invariant_factors for s in abelian_group_shapes(12)] == [(12,), (6, 2)]
    assert [s.invariant_factors for s in abelian_group_shapes(1)] == [(1,)]


def test_shapes_of_orders_above_a_byte():
    # shapes are listed from the factor chains alone, with no uint8 search
    # context, so orders whose labels overflow a byte still work
    shapes = abelian_group_shapes(300)
    assert [s.invariant_factors for s in shapes] == [(300,), (150, 2), (60, 5), (30, 10)]
    assert [s.generators for s in shapes] == [(1,), (1, 150), (1, 60), (1, 30)]


def test_shape_factors_form_divisibility_chains():
    for order in (4, 8, 12, 16):
        for s in abelian_group_shapes(order):
            fs = s.invariant_factors
            total = 1
            for d in fs:
                total *= d
            assert total == order
            assert all(fs[i] % fs[i + 1] == 0 for i in range(len(fs) - 1))


@pytest.mark.parametrize("factors, count", [
    ((2,), 1), ((4,), 2), ((8,), 4), ((2, 2), 6), ((4, 2), 8),
    ((2, 2, 2), 168), ((3, 3), 48), ((4, 4), 96), ((6,), 2), ((12,), 4),
    ((6, 2), 12), ((2, 2, 2, 2), 20160),
])
def test_automorphism_count_formula(factors, count):
    assert abelian_automorphism_count(factors) == count


@pytest.mark.parametrize("factors", [s.invariant_factors for order in range(1, 17)
                                     for s in abelian_group_shapes(order)])
def test_automorphism_formula_matches_brute_enumeration(factors):
    # the enumerated automorphisms of every shape of order <= 16 are
    # distinct, and as many as the closed formula counts
    autos, _ = _shape_automorphisms(_shape_context(factors))
    assert len(autos) == abelian_automorphism_count(factors)
    assert len(np.unique(autos, axis=0)) == len(autos)


@pytest.mark.parametrize("order", range(1, 17))
def test_automorphism_array_matches_isomorphism_oracle(order):
    # the generator-at-a-time array against the image-tuple walk onto the
    # shape's own add table, row for row, and each inverse row against its row
    for shape in abelian_group_shapes(order):
        ctx = _shape_context(shape.invariant_factors)
        autos, inverses = _shape_automorphisms(ctx)
        oracle = list(_additive_isomorphisms(ctx, lambda a, b: ctx.add[a][b], order))
        assert autos.dtype == inverses.dtype == np.uint8
        assert [tuple(map(int, row)) for row in autos] == oracle, shape
        identity = np.arange(order)
        assert all((phi[inv] == identity).all() for phi, inv in zip(autos, inverses)), shape


@pytest.mark.parametrize("order", range(1, 17))
def test_additive_maps_onto_relabeled_copies_match_oracle(order):
    # onto a seeded relabeling of a ring of each shape, the builder's rows
    # against the image-tuple walk, row for row (the first 1024 on (2,2,2,2))
    rng = random.Random(order)
    for shape in abelian_group_shapes(order):
        factors = shape.invariant_factors
        ctx = _shape_context(factors)
        copy = _relabeled_table_copy(make_product([make_zn(d) for d in factors]), rng)
        blocks = list(_additive_maps(ctx, copy.tables()[0]))
        assert all(block.dtype == np.uint8 for block in blocks), shape
        rows = [tuple(map(int, row)) for block in blocks for row in block]
        assert len(rows) == shape.automorphism_count, shape
        oracle = list(itertools.islice(_additive_isomorphisms(ctx, copy.add, order), 1024))
        assert rows[:1024] == oracle, shape


@pytest.mark.parametrize("factors, target", [
    ((4,), "Z(2) x Z(2)"), ((2, 2), "Z(4)"), ((2, 2, 2, 2), "Z(16)"),
    ((4, 4), "Z(8) x Z(2)"), ((2,), "Z(4)"),
])
def test_additive_maps_onto_another_group_yield_nothing(factors, target):
    ctx = _shape_context(factors)
    r = parse_ring(target)
    assert list(_additive_maps(ctx, r.tables()[0])) == []
    assert list(_additive_isomorphisms(ctx, r.add, r.order)) == []


@pytest.mark.parametrize("order", range(1, 17))
def test_candidate_lists_match_digit_annihilators(order):
    # K[i][j] against the elements whose every digit gcd(d_i, d_j) kills
    for shape in abelian_group_shapes(order):
        ctx = _shape_context(shape.invariant_factors)
        for i, di in enumerate(ctx.factors):
            for j, dj in enumerate(ctx.factors):
                g = gcd(di, dj)
                ann = [x for x in range(order)
                       if all((g * int(a)) % d == 0
                              for a, d in zip(ctx.digit_array[x], ctx.factors))]
                assert ctx.K[i][j] == ann, (shape, i, j)
                assert all(type(x) is int for x in ctx.K[i][j])


def test_emitted_rings_do_not_share_the_shape_add_table():
    r = next(enumerate_unital_rings(4))
    shape_add = _shape_context(r.additive_type).add_np
    before = shape_add.copy()
    with pytest.raises(ValueError):
        r.tables()[0][1, 1] = 3
    assert not shape_add.flags.writeable
    assert (shape_add == before).all() and not np.shares_memory(r.tables()[0], shape_add)
    assert len(list(enumerate_unital_rings(4))) == 14


@pytest.mark.parametrize("up_to_iso, budget", [(False, None), (False, 10 ** 6), (True, None)],
                         ids=["raw", "raw-budgeted", "iso"])
def test_rings_of_one_shape_share_one_read_only_add_table(enum_raw, enum_iso, up_to_iso, budget):
    # each shape's rings of one stream are emitted on one uint16 copy of the
    # shape's add table, read-only, with the tables of the fixtures' streams
    rings = list(enumerate_unital_rings(8, up_to_iso, budget=budget))
    fixture = (enum_iso if up_to_iso else enum_raw)[8]
    assert [tuple(t.tobytes() for t in r.tables()) for r in rings] == [
        tuple(t.tobytes() for t in r.tables()) for r in fixture]
    shared = 0
    for shape in abelian_group_shapes(8):
        adds = [r.tables()[0] for r in rings if r.additive_type == shape.invariant_factors]
        assert all(add is adds[0] for add in adds), shape
        assert adds[0].dtype == np.uint16 and not adds[0].flags.writeable
        assert (adds[0] == _shape_context(shape.invariant_factors).add_np).all()
        shared += len(adds) > 1
    assert shared
    second = list(enumerate_unital_rings(8, up_to_iso, budget=budget))
    assert not np.shares_memory(second[0].tables()[0], rings[0].tables()[0])


def test_shape_add_tables_carry_their_additive_type(enum_raw, enum_iso):
    # emitted rings declare no additive type: every shape's add table
    # computes to the shape's factors, and every emitted ring has the add
    # table of the shape its computed type names
    for order in range(1, 17):
        for shape in abelian_group_shapes(order):
            ctx = _shape_context(shape.invariant_factors)
            model = make_product([make_zn(d) for d in shape.invariant_factors])
            assert (model.tables()[0] == ctx.add_np).all(), shape
            r = make_table_ring(ctx.add_np, model.tables()[1], one=model.one)
            assert r.additive_type == shape.invariant_factors, shape
    for population in (enum_raw, enum_iso):
        for order in range(2, 9):
            for r in population[order]:
                add = _shape_context(r.additive_type).add_np
                assert (r.tables()[0] == add).all(), r.name


def _seeded_pinned_leaves(ctx, rng, count):
    """Up to `count` leaves of the pinned tree: the first leaf at or after
    each of `count` seeded nodes on the first few positions."""
    cands = ctx.candidate_lists(False, pinned=True)
    leaves = set()
    for _ in range(count):
        path = [rng.randrange(len(c)) for c in cands[:7]]
        leaf = next(_dfs_stream(ctx, start_path=path, pinned=True), None)
        if leaf is not None:
            leaves.add(leaf)
    return sorted(leaves)


@pytest.mark.parametrize("order", [4, 8, 9, 12, 16])
def test_constant_orbits_match_whole_table_relabelings(order, order_16_classes):
    # the r^2-cell gather of _new_orbits against whole n x n tables relabeled
    # by every automorphism fixing g_0 and sliced at the constant cells, on
    # seeded leaves and on every class representative; four classes of
    # order 16 are not isomorphic to their opposite rings, so their orbits
    # are not closed under transposing the constants
    rng = random.Random(order)
    classes = (order_16_classes if order == 16
               else list(enumerate_unital_rings(order, up_to_iso=True, budget=10 ** 6)))
    for shape in abelian_group_shapes(order):
        ctx = _shape_context(shape.invariant_factors)
        g0 = ctx.gens[0]
        stab = _shape_automorphisms(ctx)[0][:, g0] == g0
        cells = [ctx.gens[i] * order + ctx.gens[j] for i, j in ctx.positions]
        leaves = _seeded_pinned_leaves(ctx, rng, 4)
        assert leaves, shape
        leaves += [tuple(map(int, r.tables()[1].ravel()[cells]))
                   for r in classes if r.additive_type == ctx.factors]
        for leaf in leaves:
            [(_, mul, orbit)] = _new_orbits(ctx, [leaf])
            assert (mul == _full_mul(ctx, leaf)).all()
            oracle = {bytes(row) for block in _relabelings(ctx, mul, stab)
                      for row in block[:, cells]}
            assert orbit == oracle and bytes(leaf) in orbit, (shape, leaf)
            # every later member of the orbit is skipped
            members = [tuple(m) for m in sorted(oracle)]
            assert len(list(_new_orbits(ctx, [leaf] + members))) == 1


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("factors", [(2, 2, 2), (4, 2, 2)])
def test_class_tables_emit_rule_is_leaf_local(factors, reverse):
    # a search resumed at a node hands _class_tables only the leaves from
    # that node on; it must emit exactly the orbits whose first leaf in
    # search order, the least constant tuple (the greatest when reversed),
    # is among them; the orbits come from whole-table relabelings
    ctx = _shape_context(factors)
    g0 = ctx.gens[0]
    stab = _shape_automorphisms(ctx)[0][:, g0] == g0
    cells = [ctx.gens[i] * ctx.order + ctx.gens[j] for i, j in ctx.positions]
    leaves = list(_dfs_stream(ctx, reverse=reverse, pinned=True))
    index = {bytes(leaf): k for k, leaf in enumerate(leaves)}
    firsts = set()
    for leaf in leaves:
        orbit = {bytes(row) for block in _relabelings(ctx, _full_mul(ctx, leaf), stab)
                 for row in block[:, cells]}
        first = min(index[m] for m in orbit)
        assert first == index[max(orbit) if reverse else min(orbit)], leaf
        firsts.add(first)
    assert 1 < len(firsts) < len(leaves)
    for k in range(len(leaves) + 1):
        emitted = [mul.tobytes() for mul, _ in _class_tables(ctx, leaves[k:], reverse)]
        assert emitted == [_full_mul(ctx, leaves[i]).tobytes()
                           for i in sorted(firsts) if i >= k], k


def _decode(x, factors):
    """Oracle: the mixed-radix digits of x, first factor least significant."""
    out = []
    for d in factors:
        x, a = divmod(x, d)
        out.append(a)
    return out


@pytest.mark.parametrize("order", range(1, 17))
def test_shape_context_tables_match_the_ring_layer(order):
    # the shape labeling is the product encoding of Z(d_1) x ... x Z(d_r)
    for shape in abelian_group_shapes(order):
        factors = shape.invariant_factors
        ctx = _shape_context(factors)
        add = make_product([make_zn(d) for d in factors]).tables()[0]
        assert ctx.add == add.tolist() and (ctx.add_np == add).all(), shape
        assert ctx.add_np.dtype == np.uint8 and not ctx.add_np.flags.writeable
        for x in range(order):
            digits = _decode(x, factors)
            assert ctx.digit_array[x].tolist() == digits, (shape, x)
            assert ctx.digits[x] == tuple((i, a) for i, a in enumerate(digits) if a)
            for s in range(ctx.exponent):
                scaled = sum((s * a) % d * prod(factors[:i])
                             for i, (a, d) in enumerate(zip(digits, factors)))
                assert ctx.smul[s][x] == scaled, (shape, s, x)


def test_stabilizer_rows_fix_the_first_generator():
    # orbit-stabilizer: Aut(G) moves g_0 onto exactly the elements of order
    # d_1 (each spans a cyclic direct summand), so |Stab(g_0)| is |Aut(G)|
    # over their count; for (2,2,2,2) that is 20160 / 15
    for order in (4, 8, 9, 12, 16):
        for shape in abelian_group_shapes(order):
            ctx = _shape_context(shape.invariant_factors)
            autos, inverses = _shape_automorphisms(ctx)
            assert not autos.flags.writeable and not inverses.flags.writeable
            g0 = ctx.gens[0]
            stab = int((autos[:, g0] == g0).sum())
            top = sum(1 for row in ctx.digit_array.tolist()
                      if lcm(*(d // gcd(d, a) for a, d in zip(row, ctx.factors))) == ctx.exponent)
            assert stab * top == len(autos), shape
    autos, _ = _shape_automorphisms(_shape_context((2, 2, 2, 2)))
    assert int((autos[:, 1] == 1).sum()) == 1344


# ---------------------------------------------------------------------------
# enumeration counts and soundness


def test_iso_counts(enum_iso):
    for n, rings in enum_iso.items():
        assert len(rings) == ISO_COUNTS[n], n


def test_raw_counts(enum_raw):
    for n, rings in enum_raw.items():
        assert len(rings) == RAW_COUNTS[n], n


def test_order_one_is_the_zero_ring():
    rings = list(enumerate_unital_rings(1))
    assert len(rings) == 1 and rings[0].order == 1


def test_emitted_rings_are_validated_tables(enum_raw):
    for r in enum_raw[6]:
        assert r.kind == "table" and r.one != 0
        assert r.additive_type == (6,)
    names = [r.name for r in enum_raw[4]]
    assert names == [f"R4#{i}" for i in range(len(names))]


def test_order_4_signature_fixture(enum_iso):
    signatures = {(characteristic(r), unit_count(r), is_boolean(r))
                  for r in enum_iso[4]}
    assert signatures == {(4, 2, False), (2, 2, False), (2, 1, True), (2, 3, False)}


def test_every_iso_class_appears_in_raw(enum_raw, enum_iso):
    for n in (4, 8):
        raw_forms = {canonical_form(r) for r in enum_raw[n]}
        iso_forms = {canonical_form(r) for r in enum_iso[n]}
        assert raw_forms == iso_forms
        assert len(iso_forms) == ISO_COUNTS[n]


def test_iso_representatives_have_unity_one(enum_iso):
    # the up-to-iso search pins the unity to the first generator, label 1
    for n, rings in enum_iso.items():
        assert all(r.one == 1 for r in rings), n


def test_dual_search_orders_agree(enum_iso):
    for n in (4, 6, 8):
        rev = list(enumerate_unital_rings(n, up_to_iso=True, search_order="reversed"))
        assert len(rev) == ISO_COUNTS[n]
        assert ({canonical_form(r) for r in rev}
                == {canonical_form(r) for r in enum_iso[n]})


def test_reversed_raw_stream_is_permutation(enum_raw):
    fwd = sorted(serialize_table_ring(r) for r in enum_raw[4])
    rev = sorted(serialize_table_ring(r)
                 for r in enumerate_unital_rings(4, search_order="reversed"))
    assert fwd == rev


def test_enumeration_argument_validation():
    with pytest.raises(ConstructionError):
        enumerate_unital_rings(0)
    with pytest.raises(ConstructionError):
        enumerate_unital_rings(17)
    with pytest.raises(ConstructionError):
        enumerate_unital_rings(4, search_order="sideways")
    with pytest.raises(ConstructionError):
        enumerate_unital_rings(8, budget=-5)


# ---------------------------------------------------------------------------
# budgets and resume tokens


def test_orders_above_eight_need_budget():
    with pytest.raises(BudgetError) as exc:
        enumerate_unital_rings(12)
    assert exc.value.resume_token == "v1:12:f:0:"
    # the restart token itself still needs a budget, and is handed back
    with pytest.raises(BudgetError, match="along with the token") as exc:
        enumerate_unital_rings(12, resume="v1:12:f:0:")
    assert exc.value.resume_token == "v1:12:f:0:"


def test_budgeted_order_12_completes():
    rings = list(enumerate_unital_rings(12, up_to_iso=True, budget=10 ** 6))
    assert len(rings) == 4  # one per isomorphism class


def test_budgeted_order_9_completes():
    assert len(list(enumerate_unital_rings(9, up_to_iso=True, budget=10 ** 6))) == 4


def test_budget_zero_raises_before_first_node():
    with pytest.raises(BudgetError) as exc:
        list(enumerate_unital_rings(4, budget=0))
    assert exc.value.resume_token == "v1:4:f:0:0"


def _chunked_stream(order, budget, search_order="forward", up_to_iso=True):
    """Serialized rings of a run resumed chunk by chunk until it finishes,
    and the number of chunks."""
    mode = ("r" if search_order == "reversed" else "f") + ("i" if up_to_iso else "")
    out, token, rounds = [], None, 0
    while True:
        rounds += 1
        assert rounds < 1000
        try:
            for r in enumerate_unital_rings(order, up_to_iso=up_to_iso, budget=budget,
                                            resume=token, search_order=search_order):
                out.append(serialize_table_ring(r))
            return out, rounds
        except BudgetError as exc:
            token = exc.resume_token
            assert token.startswith(f"v1:{order}:{mode}:")


@pytest.mark.parametrize("search_order", ["forward", "reversed"])
@pytest.mark.parametrize("order, budget", [(4, 20), (8, 2000)])
def test_chunked_resume_reproduces_full_stream(order, budget, search_order):
    # the chunks walk the raw tree on a budget; the unbudgeted run expands
    # the pinned classes instead, and both must give the same stream
    full = [serialize_table_ring(r)
            for r in enumerate_unital_rings(order, search_order=search_order)]
    chunks, rounds = _chunked_stream(order, budget, search_order, up_to_iso=False)
    assert rounds > 1  # the budget actually split the search
    assert chunks == full


@pytest.mark.parametrize("search_order", ["forward", "reversed"])
@pytest.mark.parametrize("budget", [50, 500, 5000])
def test_chunked_iso_resume_reproduces_full_stream(budget, search_order):
    # a resumed run emits an orbit only if its first member lies at or
    # after the token's node, so no class is emitted twice
    full = [serialize_table_ring(r)
            for r in enumerate_unital_rings(8, up_to_iso=True, search_order=search_order)]
    chunks, rounds = _chunked_stream(8, budget, search_order)
    assert len(full) == ISO_COUNTS[8]
    assert chunks == full
    if budget < 1000:
        assert rounds > 1  # the budget actually split the pinned search


def test_iso_tokens_name_the_pinned_tree():
    with pytest.raises(BudgetError) as exc:
        enumerate_unital_rings(12, up_to_iso=True)
    assert exc.value.resume_token == "v1:12:fi:0:"
    with pytest.raises(BudgetError) as exc:
        enumerate_unital_rings(12, up_to_iso=True, search_order="reversed")
    assert exc.value.resume_token == "v1:12:ri:0:"
    with pytest.raises(BudgetError) as exc:
        list(enumerate_unital_rings(8, up_to_iso=True, budget=100))
    iso_token = exc.value.resume_token
    assert iso_token.startswith("v1:8:fi:")
    with pytest.raises(BudgetError) as exc:
        list(enumerate_unital_rings(8, budget=100))
    raw_token = exc.value.resume_token
    assert raw_token.startswith("v1:8:f:")
    # a token resumes only a run of its own mode
    for token in (raw_token, "v1:8:f:0:", "v1:8:r:0:", "v1:8:ri:0:"):
        with pytest.raises(ConstructionError, match="does not match"):
            enumerate_unital_rings(8, up_to_iso=True, resume=token)
    for token in (iso_token, "v1:8:fi:0:", "v1:8:ri:0:"):
        with pytest.raises(ConstructionError, match="does not match"):
            enumerate_unital_rings(8, resume=token)
    # the message names the token's mode and the run's
    with pytest.raises(ConstructionError, match=r"'v1:8:fi:0:' \(order 8, mode 'fi'\) "
                       r"does not match this run \(order 8, mode 'r'\)"):
        enumerate_unital_rings(8, search_order="reversed", resume="v1:8:fi:0:")
    with pytest.raises(ConstructionError, match=r"\(order 9, mode 'f'\) does not match "
                       r"this run \(order 8, mode 'fi'\)"):
        enumerate_unital_rings(8, up_to_iso=True, resume="v1:9:f:0:")
    # shape 0 of order 8 is Z_8, whose one position (0,0) is pinned; on
    # (2,2,2) the positions (0,0), (0,1), (1,0), (0,2), (2,0) are pinned
    for shape, path in ((0, "0"), (2, "0,0,0,3"), (2, "0,0,0,7,0,0,7,7,7")):
        enumerate_unital_rings(8, up_to_iso=True, resume=f"v1:8:fi:{shape}:{path}")
    for shape, path in ((0, "1"), (2, "0,1"), (2, "0,0,0,3,1"), (2, "0,0,0,8")):
        with pytest.raises(ConstructionError, match="malformed resume token"):
            enumerate_unital_rings(8, up_to_iso=True, resume=f"v1:8:fi:{shape}:{path}")


def test_resume_token_validation():
    with pytest.raises(ConstructionError):
        list(enumerate_unital_rings(8, resume="garbage"))
    with pytest.raises(ConstructionError):
        list(enumerate_unital_rings(8, resume="v1:6:f:0:"))  # wrong order
    with pytest.raises(ConstructionError):
        list(enumerate_unital_rings(8, resume="v1:8:r:0:"))  # wrong mode
    with pytest.raises(ConstructionError):
        list(enumerate_unital_rings(8, resume="v1:8:f:9:"))  # no such shape
    # shape 0 of order 9 is Z_9: one position, with 9 candidates
    for path in ("9", "99", "0,0", ",".join(["0"] * 15 + ["5"])):
        with pytest.raises(ConstructionError, match="malformed resume token"):
            list(enumerate_unital_rings(9, budget=10 ** 6, resume=f"v1:9:f:0:{path}"))
    # shape 2 of order 8 is (2,2,2): nine positions, each with 8 candidates
    with pytest.raises(ConstructionError, match="malformed resume token"):
        list(enumerate_unital_rings(8, resume="v1:8:f:2:" + ",".join(["0"] * 10)))
    # only the form the search writes: ASCII decimals with no sign, space,
    # leading zero or empty path entry, and no number too long to convert
    big = "1" * 5000
    for token in ("v1:8:f:2:0,,1", "v1:8:f:2:,0", "v1:8:f:2:0,1,", "v1:8:f:2: 1",
                  "v1:8:f:2:+1", "v1:8:f:2:-0", "v1:08:f:2:0", "v1:\u0668:f:2:0",
                  "v1:8:f:02:0", "v1:8:x:2:0", "v1:8:f:2:0\n", f"v1:8:f:{big}:",
                  f"v1:8:f:2:{big}"):
        with pytest.raises(ConstructionError, match="malformed resume token"):
            enumerate_unital_rings(8, resume=token)
    # the last index of every position is still a node of the tree
    assert len(list(enumerate_unital_rings(9, budget=10 ** 6, resume="v1:9:f:0:8"))) == 73
    assert list(enumerate_unital_rings(8, resume="v1:8:f:2:" + ",".join(["7"] * 9))) == []


def test_order_16_partial_stream_and_resume():
    first = []
    with pytest.raises(BudgetError) as exc:
        for r in enumerate_unital_rings(16, budget=4000):
            first.append(r)
    token = exc.value.resume_token
    assert token.startswith("v1:16:f:")
    more = []
    try:
        for r in enumerate_unital_rings(16, budget=4000, resume=token):
            more.append(r)
    except BudgetError:
        pass
    for r in first + more:
        assert r.order == 16 and r.one != 0


# ---------------------------------------------------------------------------
# order 16 up to isomorphism, and orbit-stabilizer against the raw search

# ample for the pinned order-16 tree (3.83 M nodes, nearly all on (2,2,2,2))
ORDER_16_BUDGET = 10 ** 7


@pytest.fixture(scope="module")
def order_16_classes():
    return list(enumerate_unital_rings(16, up_to_iso=True, budget=ORDER_16_BUDGET))


def test_order_16_classification(order_16_classes):
    # 50 unital rings of order 16 (OEIS A127708), 37 commutative (A127707)
    forward = order_16_classes
    assert len(forward) == 50
    assert sum(is_commutative(r) for r in forward) == 37
    assert all(r.one == 1 for r in forward)
    forms = {canonical_form(r) for r in forward}
    assert len(forms) == 50
    reverse = list(enumerate_unital_rings(16, up_to_iso=True, search_order="reversed",
                                          budget=ORDER_16_BUDGET))
    assert {canonical_form(r) for r in reverse} == forms
    # the theorem at order 16: the only ring whose only unit is 1 is B(4)
    trivial = [r for r in forward if unit_count(r) == 1]
    assert len(trivial) == 1
    assert canonical_form(trivial[0]) == canonical_form(parse_ring("B(4)"))


def test_order_16_chunked_iso_resume(order_16_classes):
    chunks, rounds = _chunked_stream(16, 1_000_000)
    assert rounds > 1
    assert chunks == [serialize_table_ring(r) for r in order_16_classes]


def _orbit_size(r):
    """|Aut(G)| / |automorphisms fixing r's table|: r's labeled tables on its shape."""
    ctx = _shape_context(r.additive_type)
    mul = r.tables()[1].astype(np.uint8).ravel()
    fixing = sum(int((block == mul).all(axis=1).sum()) for block in _relabelings(ctx, mul))
    return abelian_automorphism_count(ctx.factors) // fixing


def _raw_unital_leaves(factors):
    ctx = _shape_context(factors)
    return sum(1 for _ in _unital_tables(ctx, _dfs_stream(ctx)))


@pytest.mark.parametrize("order, raw", [(4, 14), (8, 552), (9, 78), (12, 28)])
def test_orbit_sizes_of_classes_sum_to_raw_counts(order, raw):
    budget = None if order <= 8 else 10 ** 6
    classes = list(enumerate_unital_rings(order, up_to_iso=True, budget=budget))
    assert sum(_orbit_size(r) for r in classes) == raw
    assert len(list(enumerate_unital_rings(order, budget=budget))) == raw


def test_orbit_sizes_at_order_16_match_raw_leaves(order_16_classes):
    by_shape = {}
    for r in order_16_classes:
        by_shape[r.additive_type] = by_shape.get(r.additive_type, 0) + _orbit_size(r)
    assert by_shape == {(16,): 8, (8, 2): 32, (4, 4): 192, (4, 2, 2): 992,
                        (2, 2, 2, 2): 122_760}
    # the raw search finishes every shape but (2,2,2,2)
    for factors in ((16,), (8, 2), (4, 4), (4, 2, 2)):
        assert _raw_unital_leaves(factors) == by_shape[factors], factors


def _classes_up_to_16(order_16_classes):
    return [r for order in range(2, 16)
            for r in enumerate_unital_rings(order, up_to_iso=True,
                                            budget=None if order <= 8 else 10 ** 8)
            ] + order_16_classes


def _validated_expansion(factors):
    """The number of tables `_expanded_tables` gives for the shape, each
    passing `verify_tables` whole."""
    ctx = _shape_context(factors)
    count = 0
    for mul, one in _expanded_tables(ctx, False):
        verify_tables(ctx.add_np, mul.reshape(ctx.order, ctx.order), one)
        count += 1
    return count


def test_every_emitted_table_is_a_ring(order_16_classes):
    # oracle: the search validates one leaf per class, so check every table
    # it emits or expands as a whole, relabelings included
    for search_order in ("forward", "reversed"):
        for order in range(1, 16):
            budget = None if order <= 8 else 10 ** 8
            for r in enumerate_unital_rings(order, search_order=search_order, budget=budget):
                verify_tables(*r.tables(), r.one)
    shapes = ((16,), (8, 2), (4, 4), (4, 2, 2))
    assert [_validated_expansion(f) for f in shapes] == [8, 32, 192, 992]
    for r in _classes_up_to_16(order_16_classes):
        verify_tables(*r.tables(), r.one)


@pytest.mark.slow
def test_raw_order_16_elementary_expansion_is_all_rings():
    # the oracle above on the one order-16 shape the raw search cannot
    # finish: all 122 760 relabeled tables of (2,2,2,2)
    assert _validated_expansion((2, 2, 2, 2)) == 122_760


def test_relabeled_classes_keep_their_invariants(order_16_classes):
    # what skipping validation of relabeled tables rests on: a relabeling is
    # an isomorphic ring, so every invariant maps through the bijection
    rng = random.Random(83)
    classes = _classes_up_to_16(order_16_classes)
    assert len(classes) == 83
    for r in classes:
        copy, perm = _relabeling(r, rng)
        assert unit_count(copy) == unit_count(r), r.name
        assert unit_sum(copy).index == perm[unit_sum(r).index], r.name
        assert characteristic(copy) == characteristic(r), r.name
        assert is_commutative(copy) == is_commutative(r), r.name
        assert (len(jacobson_radical(copy).members)
                == len(jacobson_radical(r).members)), r.name


# ---------------------------------------------------------------------------
# canonical forms and isomorphism


def test_z6_isomorphic_to_z2_times_z3():
    z6 = make_zn(6)
    p = make_product([make_zn(2), make_zn(3)])
    assert canonical_form(z6) == canonical_form(p)
    assert are_isomorphic(z6, p)


def test_crt_isomorphisms():
    assert are_isomorphic(make_zn(12), make_product([make_zn(4), make_zn(3)]))
    assert are_isomorphic(make_zn(15), make_product([make_zn(3), make_zn(5)]))
    assert not are_isomorphic(make_zn(4), make_product([make_zn(2), make_zn(2)]))
    assert not are_isomorphic(make_gf(4), make_product([make_zn(2), make_zn(2)]))


def test_table_copy_is_isomorphic():
    m = make_matrix_ring(2, make_gf(2))
    add, mul = m.tables()
    copy = make_table_ring(add, mul, one=m.one)
    assert are_isomorphic(m, copy)
    assert canonical_form(m) == canonical_form(copy)


def _canonical_form_by_every_isomorphism(r):
    """Reference form: pull r back through every additive isomorphism."""
    ctx = _shape_context(additive_invariant_factors(r))
    n = r.order
    best = None
    for phi in _additive_isomorphisms(ctx, r.add, n):
        inv = [0] * n
        for s_idx, t_idx in enumerate(phi):
            inv[t_idx] = s_idx
        mul_flat = tuple(inv[r.mul(phi[a], phi[b])] for a in range(n) for b in range(n))
        key = (mul_flat, inv[r.one])
        if best is None or key < best:
            best = key
    return best


def test_canonical_form_matches_every_isomorphism_oracle(enum_iso):
    rings = enum_iso[8] + [make_product([make_zn(4), make_zn(4)]), make_gf(9)]
    for r in rings:
        cf = canonical_form(r)
        assert (cf.mul_table, cf.one) == _canonical_form_by_every_isomorphism(r), r.name


def _orbit_minimum(r):
    """Reference form: the least table over the whole relabeled orbit of
    one pull-back, as (mul table, unity)."""
    ctx = _shape_context(additive_invariant_factors(r))
    n = r.order
    phi = np.asarray(next(_additive_isomorphisms(ctx, r.add, n)))
    pulled = np.argsort(phi)[r.tables()[1][np.ix_(phi, phi)]]
    best = min(min(map(bytes, block)) for block in _relabelings(ctx, pulled))
    one = next(e for e in range(n) if best[e * n:(e + 1) * n] == bytes(range(n)))
    return tuple(best), one


# Rings on all five additive shapes of order 16, three of them on (2,2,2,2).
ORDER_16_RINGS = ("M(2,GF(2))", "GF(16)", "B(4)", "Z(4) x Z(2) x Z(2)", "GF(4) x Z(4)",
                  "Z(16)", "Z(8) x Z(2)", "Z(4) x Z(4)")


def test_canonical_form_matches_orbit_minimum(enum_iso):
    rng = random.Random(12)
    rings = [r for n in sorted(enum_iso) for r in enum_iso[n]]
    for n in range(9, 13):
        rings += list(enumerate_unital_rings(n, up_to_iso=True, budget=1_000_000))
    rings += [parse_ring(e) for e in ORDER_16_RINGS]
    assert {additive_invariant_factors(r) for r in rings if r.order == 16} == {
        s.invariant_factors for s in abelian_group_shapes(16)}
    for r in rings:
        copy = _relabeled_table_copy(r, rng)
        cf = canonical_form(copy)
        assert (cf.mul_table, cf.one) == _orbit_minimum(copy), r.name


# sha256 of the canonical forms of the benchmark's isomorphism rings, as
# computed by the whole-orbit minimum that the row-by-row narrowing replaced;
# the narrowing by generator constants kept them.
CANONICAL_SHA256 = {
    "M(2,GF(2))": "aaf1c30555a3ebe6a369725388de7df0c676139b5f5d9f8efa25bbb6b83f4ce7",
    "Z(4) x Z(2) x Z(2)": "1a543153d04f6f54330f9696cf887d9898f7901862eb404097a08798d7da08b7",
    "GF(4) x Z(4)": "269e84306ca546c69342794ca7653d7f8a7ce6c75263a9b9251a682ed5081dae",
    "GF(16)": "073fd6f708de70d617a3eb87babd2c92d3bdb84fb91644c7be2e92a1a7a7b68f",
}


@pytest.mark.parametrize("expr", sorted(CANONICAL_SHA256))
def test_canonical_form_digests_are_pinned(expr):
    cf = canonical_form(parse_ring(expr))
    doc = [list(cf.invariant_factors), list(cf.add_table), list(cf.mul_table), cf.one]
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == CANONICAL_SHA256[expr]


def _relabeled_table_copy(r, rng):
    """Dense copy of r under a seeded permutation of the indices fixing 0."""
    return _relabeling(r, rng)[0]


def _relabeling(r, rng):
    """`_relabeled_table_copy` and its permutation: index x of r is index
    perm[x] of the copy."""
    n = r.order
    perm = [0] + rng.sample(range(1, n), n - 1)
    add, mul = r.tables()
    new_add = [[0] * n for _ in range(n)]
    new_mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new_add[perm[a]][perm[b]] = perm[int(add[a][b])]
            new_mul[perm[a]][perm[b]] = perm[int(mul[a][b])]
    return make_table_ring(new_add, new_mul, one=perm[r.one]), perm


def test_canonical_form_invariant_under_relabeling_at_order_16():
    # (2, 2, 2, 2) has 20160 automorphisms, narrowed by 16 generator constants
    rng = random.Random(16)
    for r in (make_matrix_ring(2, make_gf(2)), make_gf(16)):
        form = canonical_form(r)
        assert form.invariant_factors == (2, 2, 2, 2)
        for _ in range(2):
            assert canonical_form(_relabeled_table_copy(r, rng)) == form, r.name


def test_canonical_form_matches_the_row_narrowing_oracle(order_16_classes):
    # narrowing by the generator constants against narrowing by whole rows,
    # on every class of orders 2-16 and two seeded relabelings of each
    rng = random.Random(32)
    for r in _classes_up_to_16(order_16_classes):
        for ring in (r, _relabeled_table_copy(r, rng), _relabeled_table_copy(r, rng)):
            assert canonical_form(ring) == canonical_oracle.row_narrowed_form(ring), r.name


def test_non_isomorphic_same_order():
    assert not are_isomorphic(make_gf(16), make_matrix_ring(2, make_gf(2)))
    assert not are_isomorphic(make_zn(16), make_gf(16))


def test_canonical_form_components():
    cf = canonical_form(make_product([make_zn(4), make_zn(4)]))
    assert cf.invariant_factors == (4, 4)
    assert len(cf.add_table) == 16 * 16 and len(cf.mul_table) == 16 * 16
    assert 0 <= cf.one < 16


def test_canonical_form_order_cap():
    with pytest.raises(ConstructionError):
        canonical_form(make_zn(17))
    with pytest.raises(ConstructionError):
        are_isomorphic(make_zn(18), make_zn(18))


def test_are_isomorphic_distinguishes_enumerated_classes(enum_iso):
    reps = enum_iso[4]
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            assert are_isomorphic(a, b) == (i == j)


def test_are_isomorphic_separates_classes_the_invariants_do_not(order_16_classes):
    # canonical forms alone decide isomorphism: 47 pairs of the order-16
    # classes agree on the additive type, characteristic, unit count,
    # booleanness, commutativity and radical size
    def invariants(r):
        return (additive_invariant_factors(r), characteristic(r), unit_count(r),
                is_boolean(r), is_commutative(r), len(jacobson_radical(r).members))
    twins = [(a, b) for a, b in itertools.combinations(order_16_classes, 2)
             if invariants(a) == invariants(b)]
    assert len(twins) == 47
    assert not any(are_isomorphic(a, b) for a, b in twins)
    rng = random.Random(47)
    assert all(are_isomorphic(r, _relabeled_table_copy(r, rng)) for r in order_16_classes)


# ---------------------------------------------------------------------------
# serialization


def test_serialize_parse_bit_exact(enum_raw):
    for r in enum_raw[4]:
        text = serialize_table_ring(r)
        back = parse_table_ring(text)
        assert serialize_table_ring(back) == text
        assert back.one == r.one and back.additive_type == r.additive_type


def test_serialization_header_format():
    z4 = make_zn(4)
    add, mul = z4.tables()
    t = make_table_ring(add, mul, additive_type=(4,))
    text = serialize_table_ring(t)
    lines = text.splitlines()
    assert lines[0] == "4 0 1 4"
    assert len(lines) == 1 + 2 * 4
    assert lines[1] == "0 1 2 3"


def test_serialize_round_trips_constructed_rings():
    # any ring up to the table cap serializes, with its computed additive type
    for r in (make_zn(4), make_product([make_zn(2), make_gf(4)]), make_matrix_ring(2, make_gf(2))):
        text = serialize_table_ring(r)
        back = parse_table_ring(text)
        assert serialize_table_ring(back) == text, r.name
        assert back.one == r.one and back.additive_type == r.additive_type, r.name
        assert all(np.array_equal(a, b) for a, b in zip(back.tables(), r.tables())), r.name
    with pytest.raises(BudgetError, match="dense-table cap"):
        serialize_table_ring(make_zn(TABLE_CAP + 1))


def test_parse_validates_contents():
    with pytest.raises(ConstructionError):
        parse_table_ring("")
    with pytest.raises(ConstructionError):
        parse_table_ring("4 0 1 4\n0 1 2 3")  # missing rows
    good = serialize_table_ring(
        make_table_ring(*[t.tolist() for t in make_zn(3).tables()]))
    corrupted = good.replace("2 0 1", "2 0 0", 1)
    with pytest.raises(ConstructionError):
        parse_table_ring(corrupted)
    with pytest.raises(ConstructionError):
        parse_table_ring(good.replace("2 0 1", "2 0 x", 1))  # non-integer field
    with pytest.raises(ConstructionError):
        parse_table_ring(good.replace("2 0 1", "2 0", 1))  # ragged row
    with pytest.raises(ConstructionError):
        parse_table_ring(good.replace("2 0 1", "2 0 1 2", 1))  # over-long row


def test_parse_rejects_header_order_below_one():
    for head in ("-1 0 0 1", "0 0 0 1"):
        with pytest.raises(ConstructionError, match="header order must be at least 1"):
            parse_table_ring(head)


def test_ring_file_round_trip(enum_iso):
    rings = enum_iso[8][:5]
    buf = io.StringIO()
    assert write_ring_file(buf, rings) == 5
    buf.seek(0)
    back = read_ring_file(buf)
    assert len(back) == 5
    for a, b in zip(rings, back):
        assert serialize_table_ring(a) == serialize_table_ring(b)


def test_zero_ring_serialization_round_trip():
    zero = list(enumerate_unital_rings(1))[0]
    text = serialize_table_ring(zero)
    assert serialize_table_ring(parse_table_ring(text)) == text
