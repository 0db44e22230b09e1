"""One cold benchmark pass: build seeded inputs, run the ops, check every answer.

Started by run.py with one JSON argument:
    {"workload": ..., "seed": ..., "skip": [op ids], "spans": path or null}
A workload named "mul" runs the Ring.mul microbenchmark instead.  With
"spans" set, finring's entry points are traced and the spans are written
there at the end.

Standard output carries one JSON event per line: "ready" once inputs
exist, "start" and "done" around each op, "end" with the peak RSS.
finring's own output is captured per op, so it never reaches this channel.

Times are reported twice: as read from the clock, and scaled to a
reference speed (see SpeedProbe), which is what the metrics use.
"""

from __future__ import annotations

import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy

SRC = Path(__file__).resolve().parent.parent / "src"

# How fast this machine runs Python right now is measured by timing a fixed
# loop; on a shared host it drifts by tens of percent within a minute, far
# more than the changes the benchmark must resolve.  REF_NOMINAL_S is about
# the loop's fastest time on the 2-CPU x86-64 host it was tuned on (Python
# 3.11, numpy 2.4), so scaled times read as seconds on that host when quiet.
REF_LOOP = 3_500
REF_NOMINAL_S = 0.001
PROBE_PERIOD_S = 0.05
_REF_TABLE = [[(i * j + 1) % 16 for j in range(16)] for i in range(16)]
_REF_ARRAY = numpy.array(_REF_TABLE)

_channel = sys.stdout


def emit(event: str, **fields) -> None:
    _channel.write(json.dumps({"event": event, **fields}) + "\n")
    _channel.flush()


def _ref_step(table, a, b):
    return table[a][b]


def ref_loop() -> int:
    """Calls, list indexing, dict stores and numpy scalar reads: finring's hot-path mix."""
    s, seen = 0, {}
    for i in range(REF_LOOP):
        s = _ref_step(_REF_TABLE, s, i & 15)
        seen[s] = i
        s = int(_REF_ARRAY[s, i & 15])
    return s


class SpeedProbe:
    """Times `ref_loop` every PROBE_PERIOD_S from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, so samples land
    inside long ops.  Each sample is read on the wall clock and on the
    process's CPU clock, so CPU time is scaled by CPU-clock samples and a
    stretch without the CPU does not skew it.  `scale()` removes the
    probe's own time from an interval and converts the rest to seconds at
    reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []   # (start, wall, cpu)
        for _ in range(3):
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def _sample(self, _signum, _frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        ref_loop()
        self.samples.append((t0, time.perf_counter() - t0, time.process_time() - c0))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def window(self, start: float, end: float, clock: int = 1) -> tuple[float, float]:
        """(probe seconds spent in [start, end), reference seconds per second there).

        `clock` picks the sample field: 1 for wall-clock, 2 for CPU seconds.
        """
        inside = [s[clock] for s in self.samples if start <= s[0] < end]
        spent = sum(inside)
        if len(inside) < 3:     # a short interval: use the samples nearest to it
            mid = (start + end) / 2
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:3]
            inside = [s[clock] for s in near]
        return spent, REF_NOMINAL_S / statistics.fmean(inside)

    def scale(self, start: float, end: float, seconds: float, clock: int = 1) -> float:
        spent, factor = self.window(start, end, clock)
        return (seconds - spent) * factor


def run_ops(ops, skip, probe: SpeedProbe) -> None:
    for op in ops:
        if op.id in skip:
            continue
        emit("start", op=op.id)
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            error = f"unexpected {type(exc).__name__}: {exc}"
        t1, cpu = time.perf_counter(), time.process_time() - c0
        try:
            bad = [error] if error else op.check(result)
        except Exception as exc:
            bad = [f"answer could not be checked: {type(exc).__name__}: {exc}"]
        emit("done", op=op.id, wall_s=probe.scale(t0, t1, t1 - t0),
             cpu_s=probe.scale(t0, t1, cpu, clock=2), wall_clock_s=t1 - t0, cpu_clock_s=cpu,
             failed=min(len(bad), op.units), detail=bad[:3])


def run_mul(inputs, repeats: int, skip, probe: SpeedProbe) -> None:
    """Ring.mul ns/op per family; the dense table is the reference answer."""
    for family, ring, pairs in inputs:
        op_id = f"mul {family}"
        if op_id in skip:
            continue
        emit("start", op=op_id)
        mul = ring.mul
        table = ring.tables()[1]
        for a, b in pairs[:1000]:       # lets lazy per-ring caches fill first
            mul(a, b)
        clock, scaled = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for a, b in pairs:
                mul(a, b)
            t1 = time.perf_counter()
            clock.append(t1 - t0)
            scaled.append(probe.scale(t0, t1, t1 - t0))
        bad = [f"mul({a},{b}) = {mul(a, b)}, table says {table[a, b]}"
               for a, b in pairs if mul(a, b) != table[a, b]]
        emit("done", op=op_id, wall_s=sum(scaled), cpu_s=sum(scaled),
             wall_clock_s=sum(clock), cpu_clock_s=sum(clock), failed=min(len(bad), 1),
             detail=bad[:3], value=statistics.median(scaled) / len(pairs) * 1e9)


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    import finring
    if Path(finring.__file__).resolve().parent != SRC / "finring":
        sys.exit(f"finring was imported from {finring.__file__}, not from {SRC}")
    import spans
    import workloads

    rng = random.Random(spec["seed"])
    skip = set(spec["skip"])
    tracer = None
    if spec["workload"] == "mul":
        inputs = workloads.mul_inputs(rng)
        ids = [[f"mul {family}", 1] for family, _, _ in inputs]
    else:
        ops = workloads.WORKLOADS[spec["workload"]](rng)
        ids = [[op.id, op.units] for op in ops]
        if spec["spans"]:
            tracer = spans.Tracer(f"{spec['workload']}:{spec['seed']}")
            tracer.install()
    emit("ready", ops=ids,
         versions={"python": sys.version.split()[0], "numpy": numpy.__version__})
    probe = SpeedProbe()
    if spec["workload"] == "mul":
        run_mul(inputs, workloads.MUL_REPEATS, skip, probe)
    else:
        run_ops(ops, skip, probe)
    probe.stop()
    if tracer is not None:
        tracer.write(spec["spans"])
    emit("end", peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


if __name__ == "__main__":
    main()
