"""finring benchmark: the parent process that runs, times and checks every pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass is a fresh child process (child.py), started one at a time, so
finring's module caches start cold as they do for a CLI user.  With
`--trace 0` it runs passes of one workload until S seconds have
passed and prints the median end-to-end metrics.  `--workload all` does
that for every workload in turn.  With `--trace 1` the run covers all four
workloads whatever `--workload` names, because the per-layer metrics span
every layer: per workload one untraced and one traced pass, then the
Ring.mul microbenchmark.

A child that spends more than OP_CAP_S on one op is killed; the op counts
as failed ("capped at N s") and a fresh child runs the rest.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  A stamped copy with every pass goes to
perfbench/out/.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("verify", "enumerate", "report", "isomorphism")
OP_CAP_S = 60.0
# Every run ends well inside the 180 s a run may take, even when ops are capped.
RUN_CAP_S = 165.0

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Sums over a pass's ops: scaled to reference speed, and as the clock read them.
CLOCKS = ("wall_s", "cpu_s", "wall_clock_s", "cpu_clock_s")

CHECK_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9")
# per-layer metric -> (span name, "self_s" or "calls")
SPAN_METRICS = {
    "rings.tables_s": ("rings.tables", "self_s"),
    "rings.tables_builds": ("rings.tables", "calls"),
    "rings.make_table_ring_s": ("rings.make_table_ring", "self_s"),
    "rings.make_table_ring_calls": ("rings.make_table_ring", "calls"),
    "rings.quotient_ring_s": ("rings.quotient_ring", "self_s"),
    "analysis.unit_group_s": ("analysis.unit_group", "self_s"),
    "analysis.unit_group_calls": ("analysis.unit_group", "calls"),
    "analysis.unit_census_s": ("analysis.unit_census", "self_s"),
    "analysis.unit_census_calls": ("analysis.unit_census", "calls"),
    "analysis.jacobson_radical_s": ("analysis.jacobson_radical", "self_s"),
    "analysis.jacobson_radical_calls": ("analysis.jacobson_radical", "calls"),
    "analysis.first_column_classes_s": ("analysis.first_column_classes", "self_s"),
    "analysis.invariants_s": ("analysis.invariants", "self_s"),
    "enumeration.raw_s": ("enumeration.raw", "self_s"),
    "enumeration.iso_s": ("enumeration.iso", "self_s"),
    "enumeration.canonical_form_s": ("enumeration.canonical_form", "self_s"),
    "enumeration.canonical_form_calls": ("enumeration.canonical_form", "calls"),
    "enumeration.are_isomorphic_s": ("enumeration.are_isomorphic", "self_s"),
    **{f"theorems.check_s.{c}": (f"theorems.check.{c}", "self_s") for c in CHECK_IDS},
    "expr.parse_ring_s": ("expr.parse_ring", "self_s"),
    **{f"cli.main_s.{c}": (f"cli.main.{c}", "self_s") for c in ("verify", "report", "unit-sum")},
}
MUL_FAMILIES = ("zn", "gf", "table", "product", "triangular", "matrix")


class StartupError(RuntimeError):
    """The child never got ready: finring is missing or does not import."""


class Child:
    """A child.py process whose event lines are read against deadlines."""

    def __init__(self, spec: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, cwd=ROOT)
        self.fd = self.proc.stdout.fileno()
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.fd, selectors.EVENT_READ)
        self.buf = b""

    def read(self, deadline: float) -> dict | str:
        """The next event, or "timeout", or "eof" when the child closed stdout."""
        while b"\n" not in self.buf:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return "timeout"
            if self.selector.select(remaining):
                chunk = os.read(self.fd, 1 << 16)
                if not chunk:
                    return "eof"
                self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.kill()
        code = self.proc.wait()
        self.selector.close()
        self.proc.stdout.close()
        return code


def run_pass(workload: str, seed: int, run_deadline: float, spans_path=None) -> dict:
    """One cold pass over a workload's ops; after a capped op a fresh child runs the rest."""
    res = {"setup_clock_s": None, "peak_rss_mb": 0.0,
           **{key: 0.0 for key in CLOCKS}, "attempted": 0, "failed": 0, "failures": [],
           "op_wall_s": {}, "op_wall_clock_s": {}, "values": {}}
    planned: dict[str, int] = {}
    finished: set[str] = set()

    def fail(op_id: str, why: str) -> None:
        finished.add(op_id)
        res["attempted"] += planned[op_id]
        res["failed"] += planned[op_id]
        res["failures"].append(f"{op_id}: {why}")

    while True:
        spec = {"workload": workload, "seed": seed, "skip": sorted(finished),
                "spans": str(spans_path) if spans_path else None}
        child = Child(spec)
        t0 = last = time.perf_counter()
        current, ended = None, False
        try:
            msg = child.read(min(t0 + OP_CAP_S, run_deadline))
            if not isinstance(msg, dict) or msg["event"] != "ready":
                if not planned:
                    raise StartupError(f"{workload} child did not start ({msg})")
                for op_id in planned:
                    if op_id not in finished:
                        fail(op_id, f"child did not start ({msg})")
                break
            if res["setup_clock_s"] is None:
                res["setup_clock_s"] = time.perf_counter() - t0
                res["versions"] = msg["versions"]
                planned = dict(msg["ops"])
            progress = False
            while True:
                msg = child.read(min(last + OP_CAP_S, run_deadline))
                if not isinstance(msg, dict):
                    break
                last = time.perf_counter()
                if msg["event"] == "start":
                    current = msg["op"]
                elif msg["event"] == "done":
                    op_id, current, progress = msg["op"], None, True
                    finished.add(op_id)
                    for key in CLOCKS:
                        res[key] += msg[key]
                    res["op_wall_s"][op_id] = msg["wall_s"]
                    res["op_wall_clock_s"][op_id] = msg["wall_clock_s"]
                    res["attempted"] += planned[op_id]
                    res["failed"] += msg["failed"]
                    res["failures"] += [f"{op_id}: {d}" for d in msg["detail"]]
                    if "value" in msg:
                        res["values"][op_id] = msg["value"]
                elif msg["event"] == "end":
                    res["peak_rss_mb"] = max(res["peak_rss_mb"], msg["peak_rss_mb"])
                    ended = True
                    break
        finally:
            code = child.stop()
        if ended:
            break
        if current is not None:
            for key in CLOCKS:      # no scaled reading exists for a killed op
                res[key] += time.perf_counter() - last
            if msg != "timeout":
                why = f"child exited with code {code}"
            elif time.perf_counter() < run_deadline:
                why = f"capped at {OP_CAP_S:g} s"
            else:
                why = "stopped at the run's time cap"
            fail(current, why)
        elif not progress:
            for op_id in planned:
                if op_id not in finished:
                    fail(op_id, f"child exited with code {code} between ops")
        if time.perf_counter() >= run_deadline:
            for op_id in planned:
                if op_id not in finished:
                    fail(op_id, "not run: the run's time cap was reached")
        if len(finished) == len(planned):
            break
    # Set-up is too short for the probe to sample well, so it takes the
    # speed the probe saw over the ops that follow it.
    factor = res["wall_s"] / res["wall_clock_s"] if res["wall_clock_s"] else 1.0
    res["setup_s"] = res["setup_clock_s"] * factor
    return res


def measure(workload: str, seed: int, seconds: float) -> list[dict]:
    """Cold passes of one workload until `seconds` have passed (at least one)."""
    start = time.perf_counter()
    deadline = start + RUN_CAP_S
    passes = []
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload, seed, deadline))
        now = time.perf_counter()
        if now - start >= seconds or now + (now - t) > deadline:
            return passes


def end_to_end(passes: list[dict]) -> dict:
    return {name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(seed: int) -> tuple[dict, list[dict]]:
    """The traced run: per-layer metrics and every pass it made."""
    deadline = time.perf_counter() + RUN_CAP_S
    OUT.mkdir(exist_ok=True)
    rows: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    counters: dict = defaultdict(int)
    population_s, nodes_per_s = 0.0, None
    metrics, passes = {}, []
    for workload in WORKLOADS:
        plain = run_pass(workload, seed, deadline)
        path = OUT / f"spans-{workload}-seed{seed}.json"
        path.unlink(missing_ok=True)
        traced = run_pass(workload, seed, deadline, spans_path=path)
        passes += [dict(plain, workload=workload, traced=False),
                   dict(traced, workload=workload, traced=True)]
        metrics[f"trace.overhead_s.{workload}"] = (traced["wall_s"] - plain["wall_s"], "s")
        if not path.exists():       # the traced child was killed before writing
            continue
        doc = json.loads(path.read_text())
        recorded = doc["spans"]
        # spans read the clock; the pass's own ratio puts them on the reference clock
        factor = traced["wall_s"] / traced["wall_clock_s"]
        for name, row in spans.summarize(recorded).items():
            rows[name]["calls"] += row["calls"]
            rows[name]["incl_s"] += row["incl_s"] * factor
            rows[name]["self_s"] += row["self_s"] * factor
        for key, value in doc["counters"].items():
            counters[key] += value
        for name, start, end, parent, _run, note in recorded:
            if (name.startswith("enumeration.") and parent >= 0
                    and recorded[parent][0].startswith("theorems.check.")):
                population_s += (end - start) * factor
            if name == "enumeration.raw" and note["order"] == 16:
                nodes_per_s = note["budget"] / ((end - start) * factor)
    mul = run_pass("mul", seed, deadline)
    passes.append(dict(mul, workload="mul", traced=False))

    for metric, (span, field) in SPAN_METRICS.items():
        metrics[metric] = (rows[span][field], "count" if field == "calls" else "s")
    metrics["enumeration.raw_rings"] = (counters["enumeration.raw_rings"], "count")
    metrics["enumeration.iso_classes"] = (counters["enumeration.iso_rings"], "count")
    metrics["enumeration.nodes_per_s"] = (nodes_per_s, "1/s")
    metrics["theorems.population_s"] = (population_s, "s")
    for family in MUL_FAMILIES:
        metrics[f"rings.mul_ns.{family}"] = (mul["values"].get(f"mul {family}"), "ns")
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}, passes


# ---------------------------------------------------------------------------
# stamping


def git_sha() -> str:
    """HEAD's commit from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args, passes: list[dict]) -> dict:
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    return {"git_sha": git_sha(), "src_sha256": src_digest(),
            "python": versions.get("python"), "numpy": versions.get("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "seed": args.seed,
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


def result_line(passes: list[dict], metrics: dict) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_table(label: str, metrics: dict, passes: list[dict], clocks: bool = True) -> None:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, m in metrics.items():
        print(f"{label:12} {name:36} {m['value']!s:>22} {m['unit']}")
    for name in ("wall_clock_s", "cpu_clock_s", "setup_clock_s") if clocks else ():
        clock = statistics.median(p[name] for p in passes)
        print(f"{label:12} {name:36} {clock!s:>22} s, as read (median)")
    print(f"{label:12} {'error_rate':36} {failed / max(attempted, 1):>22} "
          f"failed/attempted ({failed}/{attempted}, {len(passes)} passes)")
    for p in passes:
        for line in p["failures"]:
            print(f"{label:12} FAILED {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            metrics, passes = per_layer(args.seed)
            print_table("traced", metrics, passes, clocks=False)
        elif args.workload == "all":
            metrics, passes = {}, []
            for workload in WORKLOADS:
                ws = measure(workload, args.seed, args.seconds)
                wm = end_to_end(ws)
                print_table(workload, wm, ws)
                metrics.update({f"{workload}.{k}": v for k, v in wm.items()})
                passes += [dict(p, workload=workload) for p in ws]
        else:
            passes = measure(args.workload, args.seed, args.seconds)
            metrics = end_to_end(passes)
            print_table(args.workload, metrics, passes)
    except StartupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = result_line(passes, metrics)
    OUT.mkdir(exist_ok=True)
    doc = {"stamp": stamp(args, passes), **result, "passes": passes}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
