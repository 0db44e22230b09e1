"""Span recording around finring's public entry points, and self-time sums.

The child process installs `Tracer.install()` after its inputs are built,
so only the timed ops are traced.  Each wrapped entry point records one
span: name, start, end, parent span and run id (plus a small note).  A
name bound by `from .x import f` is a separate reference, so every module
attribute that is the original function is replaced, not only the one in
the defining module.  Spans stay in memory until `write()`.

`summarize()` needs no finring import; run.py uses it on span files.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# span name -> (module, attribute) of each wrapped entry point.  Several
# entry points may share one span name (the unit census covers three).
ENTRY_POINTS = (
    ("rings.make_table_ring", "finring.rings", "make_table_ring"),
    ("rings.quotient_ring", "finring.rings", "quotient_ring"),
    ("analysis.unit_group", "finring.analysis", "unit_group"),
    ("analysis.unit_census", "finring.analysis", "unit_census"),
    ("analysis.unit_census", "finring.analysis", "unit_count"),
    ("analysis.unit_census", "finring.analysis", "unit_sum"),
    ("analysis.jacobson_radical", "finring.analysis", "jacobson_radical"),
    ("analysis.first_column_classes", "finring.analysis", "unit_first_column_classes"),
    ("analysis.invariants", "finring.analysis", "characteristic"),
    ("analysis.invariants", "finring.analysis", "is_commutative"),
    ("analysis.invariants", "finring.analysis", "is_boolean"),
    ("enumeration.canonical_form", "finring.enumeration", "canonical_form"),
    ("enumeration.are_isomorphic", "finring.enumeration", "are_isomorphic"),
    ("expr.parse_ring", "finring.expr", "parse_ring"),
)


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent, run_id, note]
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def open(self, name: str, note=None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, note])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name):
        """`fn` under a span; `name` is a string or a function of the call's args."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def _enumerate(self, fn):
        """Span the iteration of the stream, since the call only builds a generator."""
        tracer = self

        @functools.wraps(fn)
        def traced(order, up_to_iso=False, **kwargs):
            stream = fn(order, up_to_iso, **kwargs)
            kind = "iso" if up_to_iso else "raw"

            def iterate():
                sid = tracer.open(f"enumeration.{kind}",
                                  {"order": order, "budget": kwargs.get("budget")})
                try:
                    for ring in stream:
                        tracer.counters[f"enumeration.{kind}_rings"] += 1
                        yield ring
                finally:
                    tracer.close(sid)
            return iterate()
        return traced

    def install(self) -> None:
        """Replace every module-level binding of each entry point with a wrapper."""
        from finring import cli, enumeration, theorems
        from finring.rings import Ring

        replacements = {}
        for name, module, attr in ENTRY_POINTS:
            original = getattr(sys.modules[module], attr)
            replacements[id(original)] = self.wrap(original, name)
        original = enumeration.enumerate_unital_rings
        replacements[id(original)] = self._enumerate(original)
        original = theorems.run_check
        replacements[id(original)] = self.wrap(
            original, lambda cid, **_: f"theorems.check.{theorems.normalize_check_id(cid)}")
        original = cli.main
        replacements[id(original)] = self.wrap(
            original, lambda argv=None: f"cli.main.{argv[0] if argv else 'none'}")
        for modname, module in list(sys.modules.items()):
            if modname != "finring" and not modname.startswith("finring."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

        # Only first calls build; cached calls are not spans.
        tables = Ring.tables

        @functools.wraps(tables)
        def traced_tables(ring):
            if ring._tables is not None:
                return tables(ring)
            sid = self.open("rings.tables", {"order": ring.order})
            try:
                return tables(ring)
            finally:
                self.close(sid)
        Ring.tables = traced_tables

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans come from one thread, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _note in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for sid, (name, start, end, _parent, _run, _note) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[sid]
    return out
