"""Dense-table build time and memory, ring by ring.

For each ring, one JSON line:
- `build_ms`: its tables built once, base and factor tables included;
- `traced_peak_mib`: the tracemalloc peak of a second such build;
- `unit_group_rss_mb`, `unit_group_s`: the peak RSS (`ru_maxrss`) and wall
  time of a fresh process that imports finring and runs `unit_group`;
- `radical_rss_mb`, `radical_s`: the same for `jacobson_radical` on a
  table copy of the ring (`make_table_ring` on its tables).

The fresh processes import the finring this process imported, so point
PYTHONPATH at the checkout to measure:

    PYTHONPATH=src python tools/table_memory.py [RING ...]
"""

import json
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import finring

RINGS = ["GF(4096)", "Z(4096)", "M(2,GF(8))", "UT(3,GF(4))"]


def child(expr: str, job: str) -> None:
    t0 = time.perf_counter()
    r = finring.parse_ring(expr)
    if job == "unit_group":
        finring.unit_group(r)
    else:
        finring.jacobson_radical(finring.make_table_ring(*r.tables(), one=r.one))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(json.dumps({"rss_mb": round(rss_mb, 1), "s": round(time.perf_counter() - t0, 3)}))


def probe(expr: str) -> dict:
    t0 = time.perf_counter()
    finring.parse_ring(expr).tables()
    line = {"ring": expr, "build_ms": round((time.perf_counter() - t0) * 1e3, 1)}
    tracemalloc.start()
    try:
        finring.parse_ring(expr).tables()
        line["traced_peak_mib"] = round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 1)
    finally:
        tracemalloc.stop()
    src = os.path.dirname(os.path.dirname(os.path.abspath(finring.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for job in ("unit_group", "radical"):
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", expr, job],
                             env=env, capture_output=True, text=True, check=True).stdout
        got = json.loads(out)
        line[f"{job}_rss_mb"], line[f"{job}_s"] = got["rss_mb"], got["s"]
    return line


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:4])
    else:
        for expr in sys.argv[1:] or RINGS:
            print(json.dumps(probe(expr)), flush=True)
