"""One pass of one workload in a fresh process (started by run.py).

    python3 perfbench/child.py WORKLOAD SEED SIZE TRACE PLANT PROBE

Sets up (imports hopfgal, generates the seeded inputs), runs every call of
the workload once in a closed loop, then checks the answers outside the
timed region and prints one JSON line.  With PROBE=1 it stops after set-up
and reports only when set-up ended.  TRACE=1 installs the tracer around the
timed loop; PLANT=1 plants one wrong expected answer (self-test only).

While the loop runs, a timer signal interrupts it every 50 ms to time a
fixed slice of integer arithmetic (standard library only).  The slice time
is subtracted from every measured time, and its mean tells run.py how fast
the machine ran during the pass (see ``SpeedProbe``).
"""

from __future__ import annotations

import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

PROBE_PERIOD_S = 0.05
MIN_SLICES = 20


def _slice() -> int:
    acc, table = 1, {}
    for k in range(1, 1200):
        acc = (acc * 31 + k) % 1000003
        table[k & 63] = table.get(k & 63, 0) + math.gcd(acc, k)
    return acc


class SpeedProbe:
    """Times the reference slice from a SIGALRM handler in the main thread."""

    def __init__(self):
        self.slices: list[float] = []
        self.total = 0.0            # time spent in slices so far

    def sample(self, *_):
        t0 = time.perf_counter()
        _slice()
        spent = time.perf_counter() - t0
        self.slices.append(spent)
        self.total += spent

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        while len(self.slices) < MIN_SLICES:       # short passes and probes
            self.sample()

    def mean_slice_s(self) -> float:
        return sum(self.slices) / len(self.slices)


def main(argv: list[str]) -> int:
    workload, seed, size = argv[0], int(argv[1]), argv[2]
    trace, plant, probe = (argv[k] == "1" for k in (3, 4, 5))

    import workloads
    import queries
    kinds = {"tower": workloads.tower, "kernels": workloads.kernels,
             "census": workloads.census, "queries": queries.queries}
    plan = kinds[workload](seed, size)

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    speed = SpeedProbe()
    first_call = time.monotonic()
    if probe:
        speed.stop()
        print(json.dumps({"first_call": first_call,
                          "mean_slice_s": speed.mean_slice_s()}))
        return 0

    outputs, latencies = [], []
    clock = time.perf_counter
    speed.start()
    start = clock()
    for _, call in plan.calls:
        t0, s0 = clock(), speed.total
        try:
            out = call()
        except Exception as exc:      # a raised answer is a failed answer
            out = exc
        latencies.append(clock() - t0 - (speed.total - s0))
        outputs.append(out)
    verdict_s = clock() - start - speed.total
    speed.stop()
    if tracer is not None:
        tracer.uninstall()
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    attempted, failures = plan.check(outputs, plant)
    print(json.dumps({
        "first_call": first_call,
        "mean_slice_s": speed.mean_slice_s(),
        "slices": len(speed.slices),
        "verdict_s": verdict_s,
        "latencies_s": latencies,
        "peak_rss_mb": usage / 1024.0,           # ru_maxrss is in KiB on Linux
        "attempted": attempted,
        "failures": failures,
        "trace": tracer.metrics() if tracer is not None else None,
        "spans": tracer.spans if tracer is not None else 0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
