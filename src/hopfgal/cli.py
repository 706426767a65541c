"""Command-line interface: construction commands, verification suites, reports.

Exit codes: 0 all reports pass (or pure data command succeeded), 1 at least
one report failed, 2 usage or value error, 3 refusal: a census cap or budget,
or a `basis`, `profinite`, `smash`, `act`, `nu` or `variants` request whose
measure of its work or output, decided by `_guard` from p and n alone, is
over `MAX_REQUEST_SIZE`.
Rationals cross the boundary as "num/den" strings; JSON output is
byte-deterministic for fixed inputs (timings are included only with
``--timings``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .cyclotomic import parse_rat, rat_str, validate_field
from .gp_enum import (SEARCH_BUDGET_SECONDS, EnumerationRefusal, census_json,
                      instance_from_json)
from .hopfgalois import HopfElt, RadicalElt, act, e_basis, validate_radicand
from .profinite import nu_h
from .smash_end import (QMatrix, SmashElt, decompose_endomorphism, smash_mult,
                        to_end_matrix)
from .variants import variant_reports
from .verify import DEFAULT_SEED, criterion, full_suite

EXIT_PASS = 0
EXIT_REPORT_FAILURE = 1
EXIT_USAGE = 2
EXIT_REFUSED = 3

# The one size bound of `basis`, `profinite`, `smash`, `act`, `nu` and
# `variants`; each handler states its measure in its `_guard` call.  `basis`,
# `smash`, `act` and `nu` count the rationals they emit.  `profinite` counts
# 4 x (L+1) p^2L: p^2L group-ring cells for the level-L truncation check and
# for each of its L-1 commute squares, and p^2L for the idempotents that the
# fixed-point check holds at once.  `variants` counts p(p-1)p^3n / 8: the
# exponent sums that its action matrices fold, p^n per entry, p^n entries
# per matrix, (p-1)p^n matrices per algebra and p algebras.  The factor 4
# and the divisor 8 put both cuts above the admitted runs of 10-13 s; the
# first refused `variants` size, (11,2), spends its time in eliminations
# that grow with p.
# One subprocess each, writing to /dev/null, 2-core host, Python 3.11.7:
#   basis      (3,5) 9,565,938 2.8 s 108 MB; refused (7,3) 10.3 s 311 MB
#   smash      (3,7) --right 14,348,907 3.8 s 26 MB
#   profinite  (3,5) 1,417,176 1.7 s 26 MB; (7,3) 1,882,384 2.1 s 38 MB;
#              (5,4) 7,812,500 9.2 s 88 MB; (3,6) 14,880,348 12.9 s 108 MB;
#              (1409,1) 15,882,248 9.8 s 464 MB; refused (1423,1) 16,199,432
#              10.2 s 473 MB, (11,3) 28,344,976 21.2 s 381 MB
#   variants   (3,2) 546 0.1 s; (3,3) 14,762 0.2 s; (5,2) 39,062 0.4 s;
#              (3,4) 398,580 0.7 s 22 MB; (7,2) 617,656 3.3 s 32 MB;
#              (5,3) 4,882,812 6.2 s 39 MB; (3,5) 10,761,680 10.0 s 51 MB;
#              refused (11,2) 24,358,963 102 s 171 MB
MAX_REQUEST_SIZE = 16_000_000


# ---------------------------------------------------------------------------
# small parsing helpers

def _parse_coords(text: str, length: int, what: str) -> list[Fraction]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != length:
        raise ValueError("%s needs %d comma-separated rationals, got %d"
                         % (what, length, len(parts)))
    return [parse_rat(part) for part in parts]


def _parse_pair(text: str, what: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("%s must look like 'j,i'" % what)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("%s must hold two integers, got %r" % (what, text))


def _budget_seconds(text: str) -> float:
    """A census budget: a finite number of seconds, 0 or more.  A nan budget
    would never run out, since no clock reading compares greater than it."""
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            "budget must be a finite number of seconds >= 0, got %r" % text)
    return value


def _read_json(path: str | None):
    """The JSON document at `path`, or on stdin when `path` is None or '-'."""
    if path is None or path == "-":
        return json.load(sys.stdin)
    return json.loads(Path(path).read_text())


def _smash_terms_json(x: SmashElt) -> list[list]:
    return [[j, i, rat_str(c)] for (j, i), c in sorted(x.terms.items())]


def _guard(p: int, n: int, size, what: str) -> int:
    """p^n, for a p and n that name a field (a usage error otherwise, at any
    size) and a request whose `size(p^n)`, the count that `what` names, is
    not over `MAX_REQUEST_SIZE` (refused otherwise).  Builds no field, and
    computes no power past the bound: every size is at least p^n."""
    validate_field(p, n)
    # p > 2, so p^n > 2^n > MAX_REQUEST_SIZE once n reaches its bit length
    if n >= MAX_REQUEST_SIZE.bit_length():
        raise EnumerationRefusal("p=%d n=%d: p^n alone exceeds the bound %d"
                                 % (p, n, MAX_REQUEST_SIZE))
    go = p ** n
    if (count := size(go)) > MAX_REQUEST_SIZE:
        raise EnumerationRefusal("p=%d n=%d: %s = size %d exceeds the bound %d"
                                 % (p, n, what, count, MAX_REQUEST_SIZE))
    return go


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the output payload dict)

def _cmd_basis(args) -> dict:
    every = args.i is None
    go = _guard(args.p, args.n, lambda go: (go if every else 1) * go * (go - go // args.p),
                "%s idempotents x p^n*phi(p^n) rationals" % ("p^n" if every else "1"))
    indices = list(range(go)) if every else [args.i % go]
    elements = [{"i": i, "coefficients": e_basis(args.p, args.n, i).to_json()}
                for i in indices]
    return {"command": "basis", "p": args.p, "n": args.n, "elements": elements}


def _cmd_act(args) -> dict:
    # the acting element, the input and the output: p^n rationals each
    go = _guard(args.p, args.n, lambda go: 3 * go, "3 elements x p^n rationals")
    a = validate_radicand(args.p, parse_rat(args.a))
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
    # one p^n x p^n matrix per factor, and one for the product
    count = 1 if args.right is None else 3
    _guard(args.p, args.n, lambda go: count * go * go,
           "%d matrices x p^2n rationals" % count)
    a = validate_radicand(args.p, parse_rat(args.a))
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
    matrix = QMatrix.from_json(_read_json(args.matrix))
    validate_field(matrix.p, matrix.n)
    for flag, got in (("--p", args.p), ("--n", args.n)):
        if got is not None and got != getattr(matrix, flag[2:]):
            raise ValueError("%s=%d contradicts the matrix header" % (flag, got))
    if args.a is not None and parse_rat(args.a) != matrix.a:
        raise ValueError("--a contradicts the matrix header")
    elt = decompose_endomorphism(matrix)
    return {"command": "decompose", "p": matrix.p, "n": matrix.n,
            "radicand": rat_str(matrix.a), "terms": _smash_terms_json(elt)}


def _cmd_nu(args) -> dict:
    # a level below 2 is a usage error at any size
    validate_field(args.p, args.n)
    if args.n < 2:
        raise ValueError("truncation needs --n >= 2 (maps level n to n-1)")
    # the input at level n and the output at level n-1
    go = _guard(args.p, args.n, lambda go: go + go // args.p,
                "p^n + p^(n-1) rationals")
    if args.coords is not None:
        h = HopfElt(args.p, args.n, _parse_coords(args.coords, go, "--coords"))
    else:
        h = HopfElt.basis_vector(args.p, args.n, args.i if args.i is not None else 0)
    down = nu_h(args.n, h)
    return {"command": "nu", "p": args.p, "source": args.n, "target": args.n - 1,
            "input": h.to_json(), "output": down.to_json()}


def _cmd_profinite(args) -> dict:
    if args.level < 1:
        raise ValueError("--level must be >= 1, got %d" % args.level)
    _guard(args.p, args.level, lambda go: 4 * (args.level + 1) * go * go,
           "4 x (level + 1) x p^(2 level) cells")
    reports = criterion("inverse-system", (args.p,), level=args.level)
    return {"command": "profinite", "p": args.p, "level": args.level,
            "reports": [r.to_dict(args.timings) for r in reports]}


def _cmd_variants(args) -> dict:
    # a level below 2 is a usage error at any size
    validate_field(args.p, args.n)
    if args.n < 2:
        raise ValueError("descent Hopf algebras need level >= 2")
    _guard(args.p, args.n, lambda go: args.p * (args.p - 1) * go ** 3 // 8,
           "p(p-1)p^3n / 8 folded exponent sums")
    a = validate_radicand(args.p, parse_rat(args.a))
    reports = variant_reports(args.p, args.n, a, args.i)
    return {"command": "variants", "p": args.p, "n": args.n, "radicand": rat_str(a),
            "reports": [r.to_dict(args.timings) for r in reports]}


def _cmd_census(args) -> dict:
    if args.instance is not None:
        gamma, delta = instance_from_json(_read_json(args.instance))
        payload = census_json(gamma, delta, args.budget_seconds)
        payload["command"] = "census"
        return payload
    reports = criterion("census", budget_seconds=args.budget_seconds)
    return {"command": "census",
            "reports": [r.to_dict(args.timings) for r in reports]}


def _cmd_verify_all(args) -> dict:
    # a filter names a field's p or n (3 and 1 stand in for an absent one),
    # also when no instance matches it; each check validates the radicand
    # against its own prime
    validate_field(3 if args.p is None else args.p, 1 if args.n is None else args.n)
    a = parse_rat(args.a)
    groups = full_suite(p=args.p, n=args.n, a=a, seed=args.seed,
                        budget_seconds=args.budget_seconds)
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


def _json_chunks(payload: dict):
    """The indented, key-sorted JSON text of `payload`, as encoder chunks."""
    return json.JSONEncoder(indent=2, sort_keys=True, default=str).iterencode(payload)


def _render_text(payload: dict):
    """Report lines and a totals line, as chunks of text; payloads without
    reports (data commands such as `basis`) fall back to JSON."""
    reports = _collect_statuses(payload)
    if not reports:
        return _json_chunks(payload)
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
    return ["\n".join(lines)]


def _write_chunks(stream, chunks) -> None:
    """Write the chunks joined in batches, so that the whole text is never
    held in memory at once, then a final newline."""
    chunks = iter(chunks)
    while batch := "".join(itertools.islice(chunks, 65536)):
        stream.write(batch)
    stream.write("\n")


def _emit(args, payload: dict) -> int:
    if args.format == "json":
        chunks = _json_chunks(payload)
    else:
        chunks = _render_text(payload)
    if args.out:
        with open(args.out, "w") as stream:
            _write_chunks(stream, chunks)
    else:
        _write_chunks(sys.stdout, chunks)
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
    sp.add_argument("--budget-seconds", type=_budget_seconds,
                    default=SEARCH_BUDGET_SECONDS)

    sp = add("verify-all", _cmd_verify_all, "run the full verification suite")
    sp.add_argument("--p", type=int, help="filter the instance matrix by prime")
    sp.add_argument("--n", type=int, help="filter the instance matrix by level")
    sp.add_argument("--a", default="2", help="radicand as 'num/den' (default 2)")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--budget-seconds", type=_budget_seconds,
                    default=SEARCH_BUDGET_SECONDS)

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
