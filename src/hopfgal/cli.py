"""Command-line interface: construction commands, verification suites, reports.

Exit codes: 0 all reports pass (or pure data command succeeded), 1 at least
one report failed, 2 usage or value error, 3 enumeration cap or budget refusal.
Rationals cross the boundary as "num/den" strings; JSON output is
byte-deterministic for fixed inputs (timings are included only with
``--timings``).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cyclotomic import parse_rat, rat_str
from .gp_enum import (EnumerationRefusal, enumerate_regular_normalized,
                      instance_from_json, results_to_json)
from .hopfgalois import HopfElt, RadicalElt, act, e_basis, validate_radicand
from .profinite import nu_h
from .smash_end import (QMatrix, SmashElt, decompose_endomorphism, smash_mult,
                        to_end_matrix)
from .variants import variant_reports
from .verify import (DEFAULT_SEED, criterion_census, criterion_profinite,
                     full_suite)

EXIT_PASS = 0
EXIT_REPORT_FAILURE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3


# ---------------------------------------------------------------------------
# small parsing helpers

def _parse_rational(text: str) -> Fraction:
    try:
        return parse_rat(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("expected a rational as 'num/den' or 'num', got %r" % text)


def _parse_coords(text: str, length: int, what: str) -> list[Fraction]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != length:
        raise ValueError("%s needs %d comma-separated rationals, got %d"
                         % (what, length, len(parts)))
    return [_parse_rational(part) for part in parts]


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("%s must look like 'j,i'" % what)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("%s must hold two integers, got %r" % (what, text))


def _smash_terms_json(x: SmashElt) -> list[list]:
    return [[j, i, rat_str(c)] for (j, i), c in sorted(x.terms.items())]


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the output payload dict)

def _cmd_basis(args) -> dict:
    go = args.p ** args.n
    indices = [args.i % go] if args.i is not None else list(range(go))
    elements = [{"i": i, "coefficients": e_basis(args.p, args.n, i).to_json()}
                for i in indices]
    return {"command": "basis", "p": args.p, "n": args.n, "elements": elements}


def _cmd_act(args) -> dict:
    a = validate_radicand(args.p, _parse_rational(args.a))
    go = args.p ** args.n
    if args.h_coords is not None:
        h = HopfElt(args.p, args.n, _parse_coords(args.h_coords, go, "--h-coords"))
    else:
        h = HopfElt.basis_vector(args.p, args.n, args.i if args.i is not None else 0)
    if args.x_coords is not None:
        x = RadicalElt(args.p, args.n, a,
                       _parse_coords(args.x_coords, go, "--x-coords"))
    else:
        x = RadicalElt.w_power(args.p, args.n, a, 1)
    out = act(h, x)
    return {"command": "act", "p": args.p, "n": args.n, "radicand": rat_str(a),
            "hopf": h.to_json(), "input": x.to_json(), "output": out.to_json()}


def _cmd_smash(args) -> dict:
    a = validate_radicand(args.p, _parse_rational(args.a))
    j, i = _parse_pair(args.left, "--left")
    left = SmashElt.basis(args.p, args.n, a, j, i)
    payload = {"command": "smash", "p": args.p, "n": args.n, "radicand": rat_str(a),
               "left": {"terms": _smash_terms_json(left),
                        "matrix": to_end_matrix(left).to_json()}}
    if args.right is not None:
        j2, i2 = _parse_pair(args.right, "--right")
        right = SmashElt.basis(args.p, args.n, a, j2, i2)
        product = smash_mult(left, right)
        payload["right"] = {"terms": _smash_terms_json(right),
                            "matrix": to_end_matrix(right).to_json()}
        payload["product"] = {"terms": _smash_terms_json(product),
                              "matrix": to_end_matrix(product).to_json()}
    return payload


def _cmd_decompose(args) -> dict:
    if args.matrix is None or args.matrix == "-":
        data = json.load(sys.stdin)
    else:
        data = json.loads(Path(args.matrix).read_text())
    matrix = QMatrix.from_json(data)
    for flag, got in (("--p", args.p), ("--n", args.n)):
        if got is not None and got != getattr(matrix, flag[2:]):
            raise ValueError("%s=%d contradicts the matrix header" % (flag, got))
    if args.a is not None and _parse_rational(args.a) != matrix.a:
        raise ValueError("--a contradicts the matrix header")
    elt = decompose_endomorphism(matrix)
    return {"command": "decompose", "p": matrix.p, "n": matrix.n,
            "radicand": rat_str(matrix.a), "terms": _smash_terms_json(elt)}


def _cmd_nu(args) -> dict:
    if args.n < 2:
        raise ValueError("truncation needs --n >= 2 (maps level n to n-1)")
    go = args.p ** args.n
    if args.coords is not None:
        h = HopfElt(args.p, args.n, _parse_coords(args.coords, go, "--coords"))
    else:
        h = HopfElt.basis_vector(args.p, args.n, args.i if args.i is not None else 0)
    down = nu_h(args.n, h)
    return {"command": "nu", "p": args.p, "source": args.n, "target": args.n - 1,
            "input": h.to_json(), "output": down.to_json()}


def _cmd_profinite(args) -> dict:
    reports = criterion_profinite((args.p,), args.level)
    return {"command": "profinite", "p": args.p, "level": args.level,
            "reports": [r.to_dict(args.timings) for r in reports]}


def _cmd_variants(args) -> dict:
    a = validate_radicand(args.p, _parse_rational(args.a))
    reports = variant_reports(args.p, args.n, a, args.i)
    return {"command": "variants", "p": args.p, "n": args.n, "radicand": rat_str(a),
            "reports": [r.to_dict(args.timings) for r in reports]}


def _cmd_census(args) -> dict:
    if args.instance is not None:
        if args.instance == "-":
            data = json.load(sys.stdin)
        else:
            data = json.loads(Path(args.instance).read_text())
        gamma, delta = instance_from_json(data)
        results = enumerate_regular_normalized(
            gamma, delta, engine=args.engine,
            budget_seconds=args.budget_seconds)
        payload = results_to_json(gamma, delta, results)
        payload["command"] = "census"
        return payload
    reports = criterion_census(None, args.engine, args.budget_seconds)
    return {"command": "census",
            "reports": [r.to_dict(args.timings) for r in reports]}


def _cmd_verify_all(args) -> dict:
    # each check validates the radicand against its own prime
    a = _parse_rational(args.a)
    groups = full_suite(p=args.p, n=args.n, a=a, seed=args.seed,
                        engine=args.engine, budget_seconds=args.budget_seconds)
    criteria = [{"name": name,
                 "reports": [r.to_dict(args.timings) for r in reports]}
                for name, reports in groups]
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for entry in criteria:
        for r in entry["reports"]:
            counts[r["status"]] += 1
    return {"command": "verify-all", "criteria": criteria, "summary": counts}


# ---------------------------------------------------------------------------
# output rendering and exit-code logic

def _collect_statuses(payload: dict) -> list[dict]:
    if "criteria" in payload:
        return [r for entry in payload["criteria"] for r in entry["reports"]]
    return list(payload.get("reports", []))


def _render_text(payload: dict) -> str:
    reports = _collect_statuses(payload)
    if not reports:
        return json.dumps(payload, indent=2, sort_keys=True, default=str)
    lines = []
    groups = (payload["criteria"] if "criteria" in payload
              else [{"name": payload.get("command", "reports"),
                     "reports": reports}])
    for entry in groups:
        lines.append("== %s ==" % entry["name"])
        for r in entry["reports"]:
            params = " ".join("%s=%s" % (k, v)
                              for k, v in sorted(r["parameters"].items()))
            line = "[%-7s] %-28s %s" % (r["status"], r["claim"], params)
            if r["status"] == "fail":
                line += "  witness=%s" % json.dumps(r["witness"], sort_keys=True,
                                                    default=str)
            lines.append(line.rstrip())
    totals = {"pass": 0, "fail": 0, "skipped": 0}
    for r in reports:
        totals[r["status"]] += 1
    lines.append("%d checks: %d pass, %d fail, %d skipped"
                 % (len(reports), totals["pass"], totals["fail"],
                    totals["skipped"]))
    return "\n".join(lines)


def _emit(args, payload: dict) -> int:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    else:
        text = _render_text(payload)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    failed = any(r["status"] == "fail" for r in _collect_statuses(payload))
    return EXIT_REPORT_FAILURE if failed else EXIT_PASS


# ---------------------------------------------------------------------------
# parser assembly

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfgal",
        description="Exact Hopf-algebra computations on radical extensions: "
                    "constructions, verification suites, and subgroup censuses.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="output rendering (default: text)")
    common.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
    common.add_argument("--timings", action="store_true",
                        help="include elapsed_ms in report JSON")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, helptext):
        sp = sub.add_parser(name, parents=[common], help=helptext)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("basis", _cmd_basis, "emit idempotent basis elements of the group ring")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--i", type=int, help="single index (default: all)")

    sp = add("act", _cmd_act, "apply an algebra element to a radical-extension element")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", default="2", help="radicand as 'num/den' (default 2)")
    sp.add_argument("--i", type=int, help="use the i-th idempotent (default 0)")
    sp.add_argument("--h-coords", help="rational coordinates of the acting element")
    sp.add_argument("--x-coords", help="coordinates of the field element (default: the root)")

    sp = add("smash", _cmd_smash, "multiply smash-product monomials and emit matrices")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", default="2", help="radicand as 'num/den' (default 2)")
    sp.add_argument("--left", required=True, metavar="j,i",
                    help="basis monomial: root-power j, idempotent i")
    sp.add_argument("--right", metavar="j,i", help="optional second factor")

    sp = add("decompose", _cmd_decompose,
             "decompose an endomorphism matrix into smash-product coordinates")
    sp.add_argument("--matrix", metavar="PATH",
                    help="matrix JSON file ('-' or omitted: stdin)")
    sp.add_argument("--p", type=int, help="consistency check against the header")
    sp.add_argument("--n", type=int, help="consistency check against the header")
    sp.add_argument("--a", help="consistency check against the header")

    sp = add("nu", _cmd_nu, "apply the level-lowering truncation to an element")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True, help="source level (>= 2)")
    sp.add_argument("--i", type=int, help="truncate the i-th idempotent (default 0)")
    sp.add_argument("--coords", help="rational coordinates of the source element")

    sp = add("profinite", _cmd_profinite,
             "run the truncation-tower verification suite for one prime")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--level", type=int, default=3, help="tower depth (default 3)")

    sp = add("variants", _cmd_variants,
             "build the twisted-complement algebra family and run its checks")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--i", type=int, help="restrict to one complement index")
    sp.add_argument("--a", default="2", help="radicand as 'num/den' (default 2)")

    sp = add("census", _cmd_census,
             "enumerate regular normalized subgroups (pinned instances or JSON input)")
    sp.add_argument("instance", nargs="?", metavar="PATH",
                    help="instance JSON ('-': stdin; omitted: pinned instances)")
    sp.add_argument("--engine", choices=("auto", "naive", "holomorph"),
                    default="auto")
    sp.add_argument("--budget-seconds", type=float, default=300.0)

    sp = add("verify-all", _cmd_verify_all, "run the full verification suite")
    sp.add_argument("--p", type=int, help="filter the instance matrix by prime")
    sp.add_argument("--n", type=int, help="filter the instance matrix by level")
    sp.add_argument("--a", default="2", help="radicand as 'num/den' (default 2)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--engine", choices=("auto", "naive", "holomorph"),
                    default="auto")
    sp.add_argument("--budget-seconds", type=float, default=300.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.handler(args)
    except EnumerationRefusal as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    return _emit(args, payload)


if __name__ == "__main__":
    sys.exit(main())
