"""Command-line front end: reports, unit sums, enumeration and verification.

Commands
    report     structural report for one ring named by an expression
    unit-sum   unit count and unit sum only (structural above the table cap)
    gl-order   closed-formula order of GL_n over GF(q)
    enumerate  stream all unital rings of an order in the table format
    verify     run the claim checks T1..T9 over their populations

Exit codes: 0 success, 1 verification failure, 2 usage/parse/construction
error, 3 resource limit reached or verification incomplete.  All output
is UTF-8; `--json` switches the stable machine-readable schema on.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import BudgetError, ConstructionError, ParseError, RingMismatchError
from .rings import TABLE_CAP
from .analysis import (
    characteristic,
    gl_order,
    is_boolean,
    is_commutative,
    jacobson_radical,
    unit_census,
)
from .enumeration import enumerate_unital_rings, serialize_table_ring, write_ring_file
from .expr import parse_ring
from .theorems import DEFAULT_MAX_ORDER, GL_INSTANCES, run_all, run_check

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _print_json(doc) -> None:
    print(json.dumps(doc, indent=2))


def _print_aligned(pairs) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


# ---------------------------------------------------------------------------
# report / unit-sum


def _report_document(expr_text: str, skip_radical: bool) -> dict:
    t0 = time.perf_counter()
    r = parse_ring(expr_text)
    t_construct = time.perf_counter() - t0

    t0 = time.perf_counter()
    count, total = unit_census(r)
    t_units = time.perf_counter() - t0

    doc = {
        "ring": expr_text,
        "order": r.order,
        "characteristic": characteristic(r),
        "commutative": is_commutative(r),
        "boolean": is_boolean(r),
        "unit_count": count,
        "unit_sum": total.pretty(),
        "unit_sum_index": total.index,
        "units_trivial": count == 1,
        "is_division_ring": r.order > 1 and count == r.order - 1,
    }
    timings = {"construct": round(t_construct, 6), "units": round(t_units, 6)}
    if not skip_radical and r.order <= TABLE_CAP:
        t0 = time.perf_counter()
        radical = jacobson_radical(r)
        timings["radical"] = round(time.perf_counter() - t0, 6)
        doc["radical"] = [e.pretty() for e in radical.members]
        doc["semisimple"] = radical.is_zero
    doc["timings"] = timings
    return doc


def cmd_report(args) -> int:
    doc = _report_document(args.ring, args.skip_radical)
    if args.json:
        _print_json(doc)
        return EXIT_OK
    pairs = [(k, json.dumps(v) if isinstance(v, (list, dict, bool)) else str(v))
             for k, v in doc.items() if k != "timings"]
    pairs.append(("timings", json.dumps(doc["timings"])))
    _print_aligned(pairs)
    return EXIT_OK


def cmd_unit_sum(args) -> int:
    t0 = time.perf_counter()
    r = parse_ring(args.ring)
    count, total = unit_census(r)
    doc = {
        "ring": args.ring,
        "order": r.order,
        "unit_count": count,
        "unit_sum": total.pretty(),
        "unit_sum_index": total.index,
        "timings": {"total": round(time.perf_counter() - t0, 6)},
    }
    if args.json:
        _print_json(doc)
    else:
        _print_aligned([(k, str(v)) for k, v in doc.items() if k != "timings"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# gl-order


def cmd_gl_order(args) -> int:
    value = gl_order(args.n, args.q)
    if args.json:
        _print_json({"n": args.n, "q": args.q, "gl_order": value})
    else:
        print(value)
    return EXIT_OK


# ---------------------------------------------------------------------------
# enumerate


def cmd_enumerate(args) -> int:
    stream = enumerate_unital_rings(
        args.order, up_to_iso=args.up_to_iso, budget=args.budget, resume=args.resume)
    stops: list[BudgetError] = []

    def until_budget():
        """The stream, ending quietly at a budget stop that `stops` records."""
        try:
            yield from stream
        except BudgetError as exc:
            stops.append(exc)

    collected: list[str] = []
    if args.out:
        with open(args.out, "w", encoding="utf-8") as sink:
            count = write_ring_file(sink, until_budget())
    elif args.json:
        collected = [serialize_table_ring(ring) for ring in until_budget()]
        count = len(collected)
    else:
        count = write_ring_file(sys.stdout, until_budget())
    complete = not stops
    token = stops[0].resume_token if stops else None
    if args.json:
        doc = {
            "order": args.order,
            "up_to_iso": args.up_to_iso,
            "count": count,
            "complete": complete,
            "resume_token": token,
            "out": args.out,
        }
        if args.out is None:
            doc["rings"] = collected
        _print_json(doc)
    elif not complete:
        print(f"node budget exhausted after {count} rings; "
              f"resume with --resume '{token}'", file=sys.stderr)
    return EXIT_OK if complete else EXIT_RESOURCE


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    reports = (run_all(args.max_order, budget=args.budget) if args.all else
               [run_check(args.theorem, max_order=args.max_order, budget=args.budget)])
    if args.json:
        _print_json([rep.to_dict() for rep in reports])
    else:
        for rep in reports:
            status = "PASS" if rep.passed else "FAIL"
            if not rep.complete:
                status += " (incomplete)"
            print(f"{rep.check_id} {status}  [{rep.population_count} tested, "
                  f"{rep.elapsed:.2f}s]  {rep.description}")
            if rep.note:
                print(f"   note: {rep.note}")
            if rep.counterexample is not None:
                print(f"   counterexample: {json.dumps(rep.counterexample)}")
            if rep.check_id == "T5" and rep.passed:
                for n, q in GL_INSTANCES:
                    print(f"   GL({n},{q}) = {gl_order(n, q)}")
    if any(not rep.passed for rep in reports):
        return EXIT_VERIFY_FAIL
    if any(not rep.complete for rep in reports):
        return EXIT_RESOURCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finring",
        description="Construction, analysis and exhaustive search of finite unital rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser("report", help="structural report for one ring")
    rep.add_argument("--ring", required=True, metavar="EXPR",
                     help="ring expression, e.g. 'M(2,GF(4))' or 'Z(2) x Z(3)'")
    rep.add_argument("--json", action="store_true", help="machine-readable output")
    rep.add_argument("--skip-radical", action="store_true",
                     help="omit the radical and semisimplicity fields")
    rep.set_defaults(func=cmd_report)

    us = sub.add_parser("unit-sum", help="unit count and unit sum only")
    us.add_argument("--ring", required=True, metavar="EXPR")
    us.add_argument("--json", action="store_true")
    us.set_defaults(func=cmd_unit_sum)

    gl = sub.add_parser("gl-order", help="order of GL_n over GF(q) by formula")
    gl.add_argument("n", type=int, help="matrix size n >= 1")
    gl.add_argument("q", type=int, help="field size, a prime power")
    gl.add_argument("--json", action="store_true")
    gl.set_defaults(func=cmd_gl_order)

    en = sub.add_parser("enumerate", help="stream all unital rings of an order")
    en.add_argument("order", type=int)
    en.add_argument("--up-to-iso", action="store_true",
                    help="one representative per isomorphism class")
    en.add_argument("--out", metavar="FILE", help="write rings to FILE instead of stdout")
    en.add_argument("--budget", type=int, default=None, metavar="NODES",
                    help="search-node budget (required for orders above 8)")
    en.add_argument("--resume", metavar="TOKEN", default=None,
                    help="resume token from an earlier budget-stopped run of the same "
                         "mode: tokens of raw runs (v1:N:f:...) and of --up-to-iso runs "
                         "(v1:N:fi:...) name nodes of different search trees")
    en.add_argument("--json", action="store_true")
    en.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="run the claim checks over their populations")
    which = ver.add_mutually_exclusive_group(required=True)
    which.add_argument("--theorem", metavar="ID",
                       help="one of T1..T9, or 'main' for the headline theorem")
    which.add_argument("--all", action="store_true", help="run every check")
    ver.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER, metavar="K",
                     help="enumerate populations up to this order "
                          f"(default {DEFAULT_MAX_ORDER})")
    ver.add_argument("--budget", type=int, default=None, metavar="NODES")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits itself; keep main() returning
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc} (column {exc.column}; expected {', '.join(exc.expected)})",
              file=sys.stderr)
        return EXIT_USAGE
    except (ConstructionError, RingMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        msg = f"resource limit: {exc}"
        if exc.resume_token:
            msg += f" (resume token: {exc.resume_token})"
        print(msg, file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
