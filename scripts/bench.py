#!/usr/bin/env python3
"""Benchmark a change against its parent and write one BENCH_<label>.json.

    python3 scripts/bench.py --label NAME --seeds 1 2 3 \\
        --parent ../parent --change .

For each seed, each workload that BENCHMARK.json lists runs once per
checkout, ``perfbench/run.py --trace 0`` for BENCHMARK.json's
``run_seconds``; the two checkouts take turns at going first.  Then each
checkout runs ``hopfgal verify-all --format json --timings`` once, for the
wall time of each criterion.  Before all of that, each checkout runs
``hopfgal variants --p 3 --n 3 --format json`` once, timed,
``hopfgal verify-all --format json`` (no ``--timings``) once, and
``hopfgal profinite --p 3 --level 4 --format json`` once: level 4 is the
depth of the truncation tower that the ``tower`` workload runs, where
``verify-all`` stops at level 3.  If the two checkouts print different
bytes for any of the three commands, the script stops there.  A run that fails, times out or prints no JSON stops the script,
naming the checkout and the command.

The output, BENCH_<label>.json at the root of this checkout, holds the
machine, every run's end-to-end metrics, each metric's median and quartiles,
and per workload and metric the number of seeds on which the change did
better than the parent, in the direction BENCHMARK.json gives for that
metric.  Per checkout it also holds ``src_lines``, the line count of
``src/hopfgal/*.py`` (as ``wc -l`` counts them), so that a change's size
is measured with its speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300
VARIANTS_ARGS = ("variants", "--p", "3", "--n", "3", "--format", "json")
VERIFY_ALL_ARGS = ("verify-all", "--format", "json")
PROFINITE_ARGS = ("profinite", "--p", "3", "--level", "4", "--format", "json")


def machine() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "platform": platform.platform()}


def commit(path: Path) -> dict:
    """HEAD of the checkout, and whether tracked files differ from it."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=path,
                          capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                           cwd=path, capture_output=True, text=True).stdout.strip()
    return {"head": head or None, "modified": bool(dirty)}


def run_json(path: Path, cmd: list[str], **kwargs) -> dict:
    """The JSON a command run in `path` prints on stdout."""
    return json.loads(run_text(path, cmd, **kwargs))


def run_text(path: Path, cmd: list[str], **kwargs) -> str:
    """What a command run in `path` prints on stdout, checked to be JSON."""
    where = "%s in %s" % (" ".join(cmd[1:]), path)
    try:
        proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, **kwargs)
    except subprocess.TimeoutExpired:
        raise SystemExit("%s timed out after %d s" % (where, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (where, proc.returncode,
                                                proc.stderr[-2000:]))
    try:
        json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise SystemExit("%s printed no JSON:\n%s" % (where, proc.stderr[-2000:]))
    return proc.stdout


def run_workload(path: Path, workload: str, seed: int, seconds: float) -> dict:
    result = run_json(path, [sys.executable, "perfbench/run.py", "--workload", workload,
                             "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", "0"])
    return {"seed": seed, "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def hopfgal(path: Path, *args: str) -> tuple[str, float]:
    """The stdout of `hopfgal args` run from the checkout's source, and its
    wall time in seconds."""
    start = time.monotonic()
    out = run_text(path, [sys.executable, "-m", "hopfgal.cli", *args],
                   env=dict(os.environ, PYTHONPATH=str(path / "src")))
    return out, time.monotonic() - start


def source_lines(path: Path) -> int:
    """Newlines in the checkout's src/hopfgal/*.py, the count `wc -l` gives."""
    return sum(f.read_bytes().count(b"\n")
               for f in (path / "src" / "hopfgal").glob("*.py"))


def criterion_times(path: Path) -> dict:
    out, wall = hopfgal(path, "verify-all", "--format", "json", "--timings")
    data = json.loads(out)
    return {"wall_s": round(wall, 3),
            "criteria_ms": {c["name"]: sum(r["elapsed_ms"] for r in c["reports"])
                            for c in data["criteria"]}}


def same_bytes(checkouts: dict, args: tuple, outputs: dict) -> None:
    """Stop unless `hopfgal args` printed the same bytes in both checkouts."""
    if outputs["parent"] != outputs["change"]:
        raise SystemExit("hopfgal %s prints different bytes in %s and %s"
                         % (" ".join(args), checkouts["parent"], checkouts["change"]))


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[name] = {"median": med, "q1": q1, "q3": q3}
    return out


def change_wins(parent: list[dict], change: list[dict], better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        pairs = [(a["metrics"][name], b["metrics"][name]) for a, b in zip(parent, change)]
        out[name] = sum((b < a) if direction == "lower" else (b > a) for a, b in pairs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--parent", type=Path, required=True, metavar="PATH")
    parser.add_argument("--change", type=Path, required=True, metavar="PATH")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds wants at least two seeds, for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for path in checkouts.values():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error("not a source checkout: %s" % path)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    variants = {name: hopfgal(path, *VARIANTS_ARGS) for name, path in checkouts.items()}
    same_bytes(checkouts, VARIANTS_ARGS, {k: out for k, (out, _) in variants.items()})
    for command in (VERIFY_ALL_ARGS, PROFINITE_ARGS):
        same_bytes(checkouts, command, {name: hopfgal(path, *command)[0]
                                        for name, path in checkouts.items()})

    runs = {name: {w: [] for w in workloads} for name in checkouts}
    for k, seed in enumerate(args.seeds):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for name in order:
                run = run_workload(checkouts[name], workload, seed, seconds)
                runs[name][workload].append(run)
                print("%s seed %d %s: verdict_s %.3f" % (
                    workload, seed, name, run["metrics"]["verdict_s"]),
                    file=sys.stderr)

    record = {
        "label": args.label,
        "machine": machine(),
        "command": "perfbench/run.py --trace 0 --seconds %g" % seconds,
        "seeds": args.seeds,
        "checkouts": {name: {"commit": commit(path),
                             "src_lines": source_lines(path),
                             "verify_all": criterion_times(path),
                             "variants_p3_n3": {"wall_s": round(variants[name][1], 3)},
                             "workloads": {w: {"summary": summary(rs), "runs": rs}
                                           for w, rs in runs[name].items()}}
                      for name, path in checkouts.items()},
        "change_wins": {w: change_wins(runs["parent"][w], runs["change"][w], better)
                        for w in workloads},
    }
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
