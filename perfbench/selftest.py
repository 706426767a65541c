"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload it checks that an untraced run emits every end-to-end
metric of BENCHMARK.json and answers correctly, that two traced runs with the
same seed emit every per-layer metric with identical counts (and ``gp_enum``
counts of zero outside ``census``), and that one planted wrong expected
answer makes the run fail with ``ok_ratio`` below 1.  Finally it runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark's own
files, where it must exit non-zero without a result.  Exits 1 on the first
failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *extra: str) -> tuple[int, dict | None, str]:
    cmd = SPEC["command"] + ["--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def expect(ok: bool, what: str):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def main() -> int:
    for w in SPEC["workloads"]:
        wl = w["name"]
        base = ["--workload", wl, "--seed", "7", "--size", "tiny"]

        code, res, err = bench(ROOT, *base, "--trace", "0")
        expect(code == 0 and res is not None and res["correct"]
               and res["failed"] == 0, "%s: untraced run answers correctly" % wl)
        expect(set(res["metrics"]) == names("end_to_end"),
               "%s: every end-to-end metric is emitted" % wl)
        expect(res["metrics"]["ok_ratio"]["value"] == 1.0, "%s: ok_ratio is 1" % wl)

        traced = []
        for _ in range(2):
            code, res, err = bench(ROOT, *base, "--trace", "1")
            expect(code == 0 and res is not None and res["correct"],
                   "%s: traced run answers correctly, counts repeat (%s)"
                   % (wl, err.strip()[-200:]))
            traced.append(res["metrics"])
        expect(set(traced[0]) == names("per_layer"),
               "%s: every per-layer metric is emitted" % wl)
        counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count"}
                  for m in traced]
        expect(counts[0] == counts[1], "%s: traced counts are identical" % wl)
        if wl != "census":
            expect(all(v == 0 for k, v in counts[0].items()
                       if k.startswith("gp_enum.")),
                   "%s: gp_enum counts are zero" % wl)

        code, res, err = bench(ROOT, *base, "--trace", "0", "--plant-wrong")
        expect(code != 0 and res is not None and not res["correct"]
               and res["failed"] > 0 and res["metrics"]["ok_ratio"]["value"] < 1.0,
               "%s: a planted wrong answer is caught (ok_ratio %.4f)"
               % (wl, res["metrics"]["ok_ratio"]["value"] if res else float("nan")))

    bare = HERE / "results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    code, res, err = bench(bare, "--workload", "tower", "--seed", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(code != 0 and res is None,
           "without the sources the benchmark exits %d and prints no result" % code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
