"""The benchmark's workloads: seeded inputs, the ops that call finring, golden answers.

Every op is an `Op`: `run()` is the timed call into finring and
`check(result)` returns one line per wrong answer, judged outside the
timed part.  The seed drives input generation and op order only.

Golden answers come from independent sources where one exists: closed
unit-count formulas, radical sizes from ring structure, the numbers of
unital rings per order (OEIS A127708), and canonical forms, which are
invariant under relabeling, so a relabeled copy must give the digest of
the plain ring.  Raw-mode counts, the order-16 resume token, unit sums and
canonical-form digests are pinned from the seed commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import finring
import finring.cli

CHECK_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")
VERIFY_POPULATIONS = {"T1": 40, "T2": 71, "T3": 71, "T4": 10, "T5": 5,
                      "T6": 3, "T7": 41, "T8": 3, "T9": 72}

# Unital rings per order up to isomorphism, n = 2..12 (OEIS A127708).
ISO_CLASSES = {2: 1, 3: 1, 4: 4, 5: 1, 6: 1, 7: 1, 8: 11, 9: 4, 10: 1, 11: 1, 12: 4}
# Raw-mode (labeled-table) counts, pinned from the seed commit.
RAW_COUNTS = {2: 1, 3: 2, 4: 14, 5: 4, 6: 2, 7: 6, 8: 552, 9: 78, 10: 4, 11: 10, 12: 28}
# Node budget for orders 9..12: far above what their searches need.
SMALL_ORDER_BUDGET = 1_000_000
# Order 16 in raw mode: finishes the four shapes other than (2,2,2,2) and
# spends most of the budget inside it.  Stream count and token pinned.
ORDER16_BUDGET = 800_000
ORDER16_EMITTED = 1378
ORDER16_TOKEN = "v1:16:f:4:0,0,0,0,0,0,1,1,3,1,1,2,2,5,2"


def gl_order(n: int, q: int) -> int:
    """|GL_n(GF(q))| by the product formula, independent of finring's own."""
    total = 1
    for k in range(n):
        total *= q ** n - q ** k
    return total


# (command, ring, order, unit count, radical size, pinned unit-sum index)
# Radical sizes: J(M_2(Z_4)) = M_2(2Z_4) has 2^4 elements, J(UT_4(Z_2)) is
# the strictly upper part with 2^6; the rest are semisimple.  Unit counts:
# |GL_2(Z_4)| = |GL_2(GF(2))| * 2^4, and UT_n(R) has |R^x|^n |R|^(n(n-1)/2).
REPORT_OPS = (
    ("report", "M(3,GF(2))", 512, gl_order(3, 2), 1, 0),
    ("report", "M(2,GF(4))", 256, gl_order(2, 4), 1, 0),
    ("report", "M(2,Z(4))", 256, gl_order(2, 2) * 2 ** 4, 16, 0),
    ("report", "UT(4,Z(2))", 1024, 2 ** 6, 64, 0),
    ("report", "GF(256)", 256, 255, 1, 0),
    ("report", "B(8)", 256, 1, 1, 255),
    ("report", "GF(16) x GF(16)", 256, 15 * 15, 1, 0),
    ("unit-sum", "M(2,GF(16))", 16 ** 4, gl_order(2, 16), None, 0),
    ("unit-sum", "M(3,GF(3))", 3 ** 9, gl_order(3, 3), None, 0),
    ("unit-sum", "UT(4,GF(4))", 4 ** 10, 3 ** 4 * 4 ** 6, None, 0),
)

# sha256 of each ring's canonical form (see `form_digest`), seed commit.
CANONICAL_DIGESTS = {
    "M(2,GF(2))": "aaf1c30555a3ebe6",
    "Z(4) x Z(2) x Z(2)": "1a543153d04f6f54",
    "GF(4) x Z(4)": "269e84306ca546c6",
    "GF(16)": "073fd6f708de70d6",
}


@dataclass
class Op:
    """One timed call; `units` is how many answers it checks (nine for verify)."""

    id: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    units: int = 1


def cli_call(argv: list[str]) -> tuple[int, str]:
    """`finring.cli.main(argv)` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = finring.cli.main(argv)
    return code, buf.getvalue()


def _cli_json(result) -> tuple[Any, str | None]:
    code, text = result
    if code != 0:
        return None, f"exit code {code}, expected 0"
    try:
        return json.loads(text), None
    except ValueError:
        return None, "output is not JSON"


def expect(value):
    return lambda got: [] if got == value else [f"got {got}, expected {value}"]


def form_digest(cf) -> str:
    doc = [[int(v) for v in cf.invariant_factors], [int(v) for v in cf.add_table],
           [int(v) for v in cf.mul_table], int(cf.one)]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


def relabeled_copy(ring, rng: random.Random):
    """Dense table copy of `ring` under a seeded permutation fixing 0."""
    add, mul = ring.tables()
    n = ring.order
    perm = np.array([0] + rng.sample(range(1, n), n - 1))
    new_of = np.empty(n, dtype=np.int64)
    new_of[perm] = np.arange(n)
    return finring.make_table_ring(new_of[add[np.ix_(perm, perm)]],
                                   new_of[mul[np.ix_(perm, perm)]],
                                   one=int(new_of[ring.one]), name=f"{ring.name}/relabeled")


def table_copy(ring):
    add, mul = ring.tables()
    return finring.make_table_ring(add, mul, one=ring.one, name=f"{ring.name}/table")


# ---------------------------------------------------------------------------
# the four workloads; each returns its ops in seeded order


def verify_ops(rng: random.Random) -> list[Op]:
    def check(result):
        doc, err = _cli_json(result)
        if err:
            return [err] * len(CHECK_IDS)
        by_id = {rep.get("check_id"): rep for rep in doc}
        bad = []
        for cid in CHECK_IDS:
            rep = by_id.get(cid)
            if rep is None:
                bad.append(f"{cid}: missing")
            elif not (rep["passed"] and rep["complete"]):
                bad.append(f"{cid}: passed={rep['passed']} complete={rep['complete']}")
            elif rep["population_count"] != VERIFY_POPULATIONS[cid]:
                bad.append(f"{cid}: population {rep['population_count']}, "
                           f"expected {VERIFY_POPULATIONS[cid]}")
        return bad

    argv = ["verify", "--all", "--max-order", "8", "--json"]
    return [Op("verify --all", lambda: cli_call(argv), check, units=len(CHECK_IDS))]


def _count_rings(order: int, up_to_iso: bool) -> int:
    budget = None if order <= 8 else SMALL_ORDER_BUDGET
    return sum(1 for _ in finring.enumerate_unital_rings(order, up_to_iso=up_to_iso,
                                                         budget=budget))


def _order16_stream() -> tuple[int, str | None]:
    count, token = 0, None
    try:
        for _ in finring.enumerate_unital_rings(16, budget=ORDER16_BUDGET):
            count += 1
    except finring.BudgetError as exc:
        token = exc.resume_token
    return count, token


def enumerate_ops(rng: random.Random) -> list[Op]:
    ops = []
    for n in range(2, 13):
        ops.append(Op(f"raw {n}", lambda n=n: _count_rings(n, False), expect(RAW_COUNTS[n])))
        ops.append(Op(f"iso {n}", lambda n=n: _count_rings(n, True), expect(ISO_CLASSES[n])))
    ops.append(Op("raw 16 budget", _order16_stream,
                  expect((ORDER16_EMITTED, ORDER16_TOKEN))))
    rng.shuffle(ops)
    return ops


def report_ops(rng: random.Random) -> list[Op]:
    def checker(order, units, radical, unit_sum):
        def check(result):
            doc, err = _cli_json(result)
            if err:
                return [err]
            got = (doc["order"], doc["unit_count"], doc["unit_sum_index"])
            if got != (order, units, unit_sum):
                return [f"(order, units, unit sum) {got}, expected {(order, units, unit_sum)}"]
            if radical is not None and len(doc.get("radical", ())) != radical:
                return [f"radical size {len(doc.get('radical', ()))}, expected {radical}"]
            return []
        return check

    ops = [Op(f"{cmd} {ring}", lambda argv=[cmd, "--ring", ring, "--json"]: cli_call(argv),
              checker(order, units, radical, unit_sum))
           for cmd, ring, order, units, radical, unit_sum in REPORT_OPS]
    rng.shuffle(ops)
    return ops


def isomorphism_ops(rng: random.Random) -> list[Op]:
    def canonical(expected):
        def check(cf):
            got = form_digest(cf)
            return [] if got == expected else [f"digest {got}, expected {expected}"]
        return check

    ops = []
    for expr in ("M(2,GF(2))", "Z(4) x Z(2) x Z(2)", "GF(4) x Z(4)"):
        ring = relabeled_copy(finring.parse_ring(expr), rng)
        ops.append(Op(f"canonical_form {expr} relabeled",
                      lambda r=ring: finring.canonical_form(r),
                      canonical(CANONICAL_DIGESTS[expr])))
    gf16 = finring.make_gf(16)
    ops.append(Op("canonical_form GF(16) lazy", lambda: finring.canonical_form(gf16),
                  canonical(CANONICAL_DIGESTS["GF(16)"])))
    mixed = finring.parse_ring("GF(4) x Z(4)")
    pairs = (
        ("Z(6) ~ Z(2) x Z(3)", finring.parse_ring("Z(6)"),
         finring.parse_ring("Z(2) x Z(3)"), True),
        ("GF(9) ~ Z(3) x Z(3)", finring.parse_ring("GF(9)"),
         finring.parse_ring("Z(3) x Z(3)"), False),
        ("GF(4) x Z(4) relabeled ~ table", relabeled_copy(mixed, rng),
         table_copy(mixed), True),
    )
    for label, r1, r2, same in pairs:
        ops.append(Op(f"are_isomorphic {label}",
                      lambda r1=r1, r2=r2: finring.are_isomorphic(r1, r2), expect(same)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "verify": verify_ops,
    "enumerate": enumerate_ops,
    "report": report_ops,
    "isomorphism": isomorphism_ops,
}


# ---------------------------------------------------------------------------
# Ring.mul microbenchmark (traced run only, outside every workload)

MUL_RINGS = (
    ("zn", "Z(12)"),
    ("gf", "GF(8)"),
    ("table", "GF(4) x Z(4)"),   # as its dense table copy
    ("product", "B(6)"),
    ("triangular", "UT(3,Z(2))"),
    ("matrix", "M(2,GF(4))"),
)
MUL_PAIRS = 10_000
MUL_REPEATS = 5


def mul_inputs(rng: random.Random):
    """(family, ring, seeded index pairs) for each ring of the microbenchmark."""
    out = []
    for family, expr in MUL_RINGS:
        ring = finring.parse_ring(expr)
        if family == "table":
            ring = table_copy(ring)
        pairs = [(rng.randrange(ring.order), rng.randrange(ring.order))
                 for _ in range(MUL_PAIRS)]
        out.append((family, ring, pairs))
    return out
