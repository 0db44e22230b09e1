"""Automorphism and search-plan build costs, additive shape by shape.

For each additive shape of orders 2-16, then (3, 3, 3) and (4, 2, 2, 2),
one JSON line:
- `aut`: |Aut(G)|, the number of rows `_shape_automorphisms` builds;
- `aut_ms`: the median of 5 builds of those rows and their inverse rows,
  each on a fresh shape context and past the cache;
- `aut_traced_peak_kib`: the tracemalloc peak of one more such build;
- `plans_ms`: the median of 5 builds of the search fields (the read plans,
  `solve` masks and triples) on a fresh shape context.

    PYTHONPATH=src python tools/shape_costs.py [FACTORS ...]

Each FACTORS is an invariant-factor chain written with commas, such as
2,2,2,2; with none, every shape above is measured.
"""

import json
import statistics
import sys
import time
import tracemalloc

from finring.enumeration import _shape_automorphisms, _ShapeContext, abelian_group_shapes

SHAPES = [s.invariant_factors for order in range(2, 17) for s in abelian_group_shapes(order)]
SHAPES += [(3, 3, 3), (4, 2, 2, 2)]
REPEATS = 5


def _median_ms(run, factors) -> float:
    times = []
    for _ in range(REPEATS):
        ctx = _ShapeContext(factors)
        t0 = time.perf_counter()
        run(ctx)
        times.append(time.perf_counter() - t0)
    return round(statistics.median(times) * 1e3, 3)


def probe(factors: tuple[int, ...]) -> dict:
    build = _shape_automorphisms.__wrapped__  # the build itself, never a cached result
    line = {"shape": list(factors), "aut": len(build(_ShapeContext(factors))[0]),
            "aut_ms": _median_ms(build, factors)}
    ctx = _ShapeContext(factors)
    tracemalloc.start()
    try:
        build(ctx)
        line["aut_traced_peak_kib"] = round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()
    line["plans_ms"] = _median_ms(_ShapeContext._build_search, factors)
    return line


if __name__ == "__main__":
    shapes = [tuple(map(int, arg.split(","))) for arg in sys.argv[1:]] or SHAPES
    for factors in shapes:
        print(json.dumps(probe(factors)), flush=True)
