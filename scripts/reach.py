#!/usr/bin/env python3
"""List the functions of src/hopfgal that no command and no benchmark call reaches.

    PYTHONPATH=src python3 scripts/reach.py

Runs, in one process under `sys.setprofile`, the library's import and every
caller of the library outside its tests: the golden CLI invocations of
tests/test_cli.py, `decompose`, `census PATH` on the degree-9-over-Q(zeta_3)
and degree-25-over-Q instances, `verify-all` (default and the text format),
and the calls of the `tower`, `kernels`, `census` and `queries` plans of
perfbench/ at size `full`, seed 1.
Then it prints each named function (comprehensions and lambdas left out)
whose code never ran, as `module:line qualified.name`, and their count.
Takes about 15 s; needs Python 3.11 or later (`co_qualname`).
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hopfgal"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def recorder(reached: set):
    """A `sys.setprofile` function that adds (file, first line, name) of
    each called function to `reached`."""
    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))
    return profile


# importing the library runs some of its functions too: each sparse value
# class binds its constructor (`_terms.maker`) at import
AT_IMPORT: set = set()
sys.setprofile(recorder(AT_IMPORT))
from hopfgal import cli  # noqa: E402
from hopfgal.gp_enum import (cyclotomic_subgroup, full_galois_group,  # noqa: E402
                             instance_to_json, zeta1_galois_group,
                             beta_subgroup)
sys.setprofile(None)

GOLDEN_ARGV = [
    ["verify-all", "--p", "3", "--n", "1"],
    ["verify-all", "--p", "3", "--n", "3"],
    ["verify-all", "--p", "5"],
    ["verify-all", "--n", "2"],
    ["verify-all", "--p", "11"],
    ["variants", "--p", "3", "--n", "2"],
    ["profinite", "--p", "3", "--level", "3"],
    ["basis", "--p", "3", "--n", "2"],
    ["census"],
    ["smash", "--p", "3", "--n", "2", "--left", "4,7", "--right", "2,5"],
    ["variants", "--p", "3", "--n", "3", "--i", "2"],
    ["act", "--p", "3", "--n", "2", "--a", "3/5",
     "--h-coords", "1,0,-2/3,0,5,0,7/2,1,0",
     "--x-coords", "0,4,1/2,0,-3,0,0,2/7,6"],
    ["nu", "--p", "3", "--n", "3", "--coords",
     "1,0,0,-2/3,5,0,0,0,7/2,4,0,1,0,0,-1,3/4,0,0,2,0,0,0,1/9,0,-5,0,8"],
]


def _named_functions(code: types.CodeType):
    """The named functions compiled inside `code`, through class bodies too."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            if const.co_flags & inspect.CO_OPTIMIZED:      # not a class body
                yield const
            yield from _named_functions(const)


def defined() -> dict:
    """(file, first line, name) -> qualified name, for every named function."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for code in _named_functions(compile(path.read_text(), str(path), "exec")):
            out[(str(path), code.co_firstlineno, code.co_name)] = code.co_qualname
    return out


def workload(tmp: Path):
    """The CLI argument lists to trace, with the files they read written to `tmp`."""
    instances = {"deg9_over_zeta3": (zeta1_galois_group(3, 2), beta_subgroup(3, 2)),
                 "deg25_over_Q": (full_galois_group(5, 2), cyclotomic_subgroup(5, 2))}
    paths = []
    for name, (gamma, delta) in instances.items():
        paths.append(tmp / (name + ".json"))
        paths[-1].write_text(json.dumps(instance_to_json(gamma, delta)))
    smash = tmp / "smash.json"
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["smash", "--p", "3", "--n", "2", "--left", "4,7", "--right", "2,5",
                  "--format", "json", "--out", str(smash)])
    matrix = tmp / "matrix.json"
    matrix.write_text(json.dumps(json.loads(smash.read_text())["product"]["matrix"]))

    runs = [argv + ["--format", "json"] for argv in GOLDEN_ARGV]
    runs += [["decompose", "--matrix", str(matrix), "--format", "json"]]
    runs += [["census", str(path), "--format", "json"] for path in paths]
    return runs + [["verify-all", "--format", "json"], ["verify-all"]]


def run_plans() -> None:
    """Build the four benchmark plans, as the benchmark does, and make their calls."""
    import queries
    import workloads
    for plan in (workloads.tower(1, "full"), workloads.kernels(1, "full"),
                 workloads.census(1, "full"), queries.queries(1, "full")):
        for _, call in plan.calls:
            call()


def main() -> int:
    names = defined()
    with tempfile.TemporaryDirectory() as tmp:
        runs = workload(Path(tmp))
        reached = set(AT_IMPORT)
        sys.setprofile(recorder(reached))
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.main(argv) for argv in runs]
            run_plans()
        finally:
            sys.setprofile(None)
    if any(codes):
        print("a traced command exited nonzero: %r" % codes, file=sys.stderr)
        return 1
    missed = sorted(key for key in names if key not in reached)
    for path, line, _ in missed:
        print("%s:%d %s" % (Path(path).stem, line, names[(path, line, _)]))
    print("%d of %d named functions not reached" % (len(missed), len(names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
