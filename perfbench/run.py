"""The hopfgal benchmark: one workload, one seed, every metric on the last line.

    python3 perfbench/run.py --workload {tower,kernels,census,queries}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (it imports ``src/hopfgal``).  Each
pass of the workload runs in a fresh single-threaded process that pays the
import and cold caches, as every ``hopfgal`` invocation does; there is no
warm-up.

Timings are reported in reference seconds.  On a shared host the speed of
a CPU can swing by a factor of two or more within minutes, so every pass also
times a fixed slice of standard-library integer arithmetic every 50 ms (see
child.py; the slices' own time is subtracted from every measured time).
A time in reference seconds is the measured wall time multiplied by
``REF_SLICE_S`` over the pass's mean slice time: the time the pass would have
taken on a machine that runs the slice in ``REF_SLICE_S``.  No hopfgal code
runs in the slice, so a change to hopfgal moves these times as it moves wall
time.  The raw wall times are kept in the results file.

``--trace 0`` starts passes while the next one still fits in ``--seconds``
(always at least one) and reports the end-to-end metrics as medians over the
passes.  Set-up is measured in at least five fresh processes (passes plus
set-up-only probes) and reported as the median.  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics with
``trace.overhead_ratio``; its counts are stored and compared with any
earlier traced run of the same workload, seed and source, and a difference
fails the run.

The last line of standard output is the result object; a fuller record
(machine, commit, seed, why the workload was chosen, every pass) goes to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("tower", "kernels", "census", "queries")
SETUP_SAMPLES = 5
# On queries a request is one data request.  On the other workloads it is one
# whole pass, the verification run a user submits and waits for; their
# per-check latencies go to the results file only.
PER_CALL_REQUESTS = {"queries"}
RUN_LIMIT_S = 170.0            # every run must end within 180 s
REF_SLICE_S = 0.0004           # reference time of child._slice()


class BenchError(Exception):
    pass


def _child(args, deadline: float, trace: bool = False, probe: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), args.workload, str(args.seed),
           args.size, str(int(trace)), str(int(args.plant_wrong)), str(int(probe))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("a %s pass did not finish within the run's time limit"
                         % args.workload)
    if proc.returncode != 0:
        raise BenchError("a %s pass exited with code %d:\n%s"
                         % (args.workload, proc.returncode, proc.stderr[-4000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - spawned
    out["raw_setup_s"] = out["first_call"] - spawned
    out["speed"] = REF_SLICE_S / out["mean_slice_s"]
    out["setup_s"] = out["raw_setup_s"] * out["speed"]
    if not probe:
        out["raw_verdict_s"] = out["verdict_s"]
        out["verdict_s"] *= out["speed"]
        out["latencies_s"] = [x * out["speed"] for x in out["latencies_s"]]
    return out


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the
    samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _call_summary(passes: list[dict]) -> dict:
    calls = [x for p in passes for x in p["latencies_s"]]
    return {"samples": len(calls), "p50": 1000.0 * _percentile(calls, 0.50),
            "p99": 1000.0 * _percentile(calls, 0.99), "max": 1000.0 * max(calls)}


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def _why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def _untraced(args, deadline: float) -> tuple[dict, list[dict], list[float]]:
    window_end = time.monotonic() + args.seconds
    passes = [_child(args, deadline)]
    while time.monotonic() + passes[-1]["wall_s"] <= window_end:
        passes.append(_child(args, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_child(args, deadline, probe=True)["setup_s"])

    if args.workload in PER_CALL_REQUESTS:
        latencies = [x for p in passes for x in p["latencies_s"]]
    else:
        latencies = [p["verdict_s"] for p in passes]
    busy = sum(p["verdict_s"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    metrics = {
        "verdict_s": (statistics.median(p["verdict_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "req_per_s": (len(latencies) / busy, "1/s"),
        "latency_p50_ms": (1000.0 * _percentile(latencies, 0.50), "ms"),
        "latency_p99_ms": (1000.0 * _percentile(latencies, 0.99), "ms"),
    }
    return metrics, passes, setups


def _traced(args, deadline: float) -> tuple[dict, list[dict], dict]:
    plain = _child(args, deadline)
    traced = _child(args, deadline, trace=True)
    layer = {name: value * traced["speed"] if name.endswith(".self_s") else value
             for name, value in traced["trace"].items()}
    layer["trace.overhead_ratio"] = traced["verdict_s"] / plain["verdict_s"]
    metrics = {name: (value, "s" if name.endswith("_s")
                      else "ratio" if name.endswith(("_ratio", "_yield"))
                      else "count")
               for name, value in layer.items()}
    counts = {name: value for name, (value, unit) in metrics.items()
              if unit == "count"}
    return metrics, [plain, traced], counts


def _check_repeatable(args, counts: dict, digest: str) -> str | None:
    """Compare with the counts of an earlier traced run of the same inputs."""
    path = RESULTS / ("trace-counts-%s-%s-seed%d-%s.json"
                      % (args.workload, args.size, args.seed, digest[:16]))
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            diff = sorted(k for k in counts if before.get(k) != counts[k])
            return ("traced counts differ from an earlier traced run with the "
                    "same seed and source: %s" % ", ".join(diff))
        return None
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the benchmark's self-test only
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--plant-wrong", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hopfgal" / "__init__.py").is_file():
        print("error: no hopfgal sources under %s; run from a source checkout"
              % (ROOT / "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    digest = _source_digest()
    try:
        if args.trace:
            metrics, passes, counts = _traced(args, deadline)
            setups = []
            problem = _check_repeatable(args, counts, digest)
        else:
            metrics, passes, setups = _untraced(args, deadline)
            problem = None
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    correct = not failures and problem is None
    record = {
        "workload": args.workload,
        "why": _why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "planted_wrong_answer": args.plant_wrong,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "commit": _commit(),
        "source_sha256": digest,
        "loop": "closed, one client; each pass in a fresh process",
        "fail_ratio": {"value": len(failures) / attempted, "failed": len(failures),
                       "attempted": attempted},
        "request_samples": (sum(len(p["latencies_s"]) for p in passes)
                            if args.workload in PER_CALL_REQUESTS else len(passes)),
        "call_latency_ms": _call_summary(passes),
        "ref_slice_s": REF_SLICE_S,
        "passes": [{k: p[k] for k in ("verdict_s", "raw_verdict_s", "setup_s",
                                      "raw_setup_s", "speed", "slices",
                                      "peak_rss_mb", "attempted", "spans")}
                   for p in passes],
        "setup_samples_s": setups,
        "failures": failures[:20],
        "problem": problem,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        from tracer import MOVES
        record["layer_moves"] = MOVES
        record["self_time_note"] = ("self times are in reference seconds, measured "
                                    "under the tracing wrappers and inflated by "
                                    "trace.overhead_ratio")
    name = "%s-%s-seed%d-trace%d.json" % (args.workload, args.size, args.seed,
                                          args.trace)
    (RESULTS / name).write_text(json.dumps(record, indent=1, sort_keys=True))

    if problem:
        print("error: %s" % problem, file=sys.stderr)
    for f in failures[:5]:
        print("wrong answer: %s" % f, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures) + (problem is not None),
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
