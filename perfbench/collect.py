"""Summarize the result files in perfbench/out/ into one document.

    python3 perfbench/collect.py > perfbench/baseline.json

Per workload: each run's seed and end-to-end metrics, their medians, and
their spreads (quartile distance over median, as statistics.quantiles
gives the quartiles).  Traced runs are kept whole.  The stamp of the
first run names the code and machine; runs from other code are refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
SHARED = ("git_sha", "src_sha256", "python", "numpy", "nproc")


def spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    runs = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-seed*-trace*.json"))]
    if not runs:
        sys.exit(f"no result files in {OUT}")
    stamp = {k: runs[0]["stamp"][k] for k in SHARED}
    doc = {"stamp": stamp, "workloads": {}, "traced": []}
    for run in runs:
        st = run["stamp"]
        if {k: st[k] for k in SHARED} != stamp:
            sys.exit(f"results from different code or machines: {st} vs {stamp}")
        summary = {"seed": st["seed"], "utc": st["utc"], "correct": run["correct"],
                   "attempted": run["attempted"], "failed": run["failed"]}
        if st["trace"]:
            doc["traced"].append({**summary, "metrics": run["metrics"]})
        elif st["workload"] != "all":
            metrics = {k: m["value"] for k, m in run["metrics"].items()}
            doc["workloads"].setdefault(st["workload"], {"runs": []})["runs"].append(
                {**summary, "seconds": st["seconds"], "metrics": metrics})
    for entry in doc["workloads"].values():
        names = entry["runs"][0]["metrics"]
        values = {n: [r["metrics"][n] for r in entry["runs"]] for n in names}
        entry["median"] = {n: statistics.median(v) for n, v in values.items()}
        entry["spread"] = {n: spread(v) for n, v in values.items()}
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
