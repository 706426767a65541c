"""The `queries` workload: a seeded stream of small data requests.

Each request is a JSON text in the CLI's wire format (rationals as "num/den"
strings) for one of the data commands ``basis``, ``act``, ``smash``,
``decompose`` and ``nu``.  ``answer`` serves it through the public hopfgal
functions behind those commands and returns the JSON reply; the whole
round trip, parsing and serialisation included, is one timed call.

The mix is stratified: every (command, level) cell gets the same share of
the stream, so the seed changes the order and the operands but not how many
heavy requests the stream holds.  Replies are checked after the timed region
by routes that share no code with hopfgal: the sympy oracles in
``tests/oracle_tools.py`` for basis vectors, products and matrices computed
here for ``act``, ``smash`` and ``decompose``, and every p-th coordinate for
``nu``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hopfgal import cyclotomic, hopfgalois as hg, profinite as pf, smash_end as se

from workloads import Plan, radicand

LEVELS = ((3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (11, 1))
KINDS = ("basis", "act", "smash", "decompose", "nu")
FULL_REQUESTS = 3000
TINY_LEVELS = ((3, 1), (3, 2), (5, 1), (7, 1))
TINY_REQUESTS = 60


def _q(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _unq(s: str) -> Fraction:
    num, den = s.split("/")
    return Fraction(int(num), int(den))


def _rat(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def _matrix(go: int, a: Fraction, terms: dict) -> list[list[Fraction]]:
    """Matrix of sum c * (w^j # e_i) on K: column i, row (j + i) mod p^n,
    times a for each wrap of the w-exponent."""
    rows = [[Fraction(0)] * go for _ in range(go)]
    for (j, i), c in terms.items():
        wrap, r = divmod(j + i, go)
        rows[r][i] += c * a ** wrap
    return rows


# ---------------------------------------------------------------------------
# the request stream

def _request(rng: random.Random, kind: str, p: int, n: int) -> dict:
    go = p ** n
    if kind == "basis":
        return {"op": kind, "p": p, "n": n, "i": rng.randrange(go)}
    if kind == "nu":
        return {"op": kind, "p": p, "n": n,
                "coords": [_q(_rat(rng)) for _ in range(go)]}
    a = radicand(rng)
    if kind == "act":
        return {"op": kind, "p": p, "n": n, "a": _q(a),
                "h": [_q(_rat(rng)) for _ in range(go)],
                "x": [_q(_rat(rng)) for _ in range(go)]}
    if kind == "smash":
        return {"op": kind, "p": p, "n": n, "a": _q(a),
                "left": [rng.randrange(go), rng.randrange(go)],
                "right": [rng.randrange(go), rng.randrange(go)]}
    # decompose: a sparse smash element, sent as its dense matrix
    terms, count = {}, rng.randint(1, 4)
    while len(terms) < count:
        c = _rat(rng)
        if c:
            terms[(rng.randrange(go), rng.randrange(go))] = c
    rows = [["0/1"] * go for _ in range(go)]
    for (j, i), c in terms.items():
        wrap, r = divmod(j + i, go)
        rows[r][i] = _q(c * a ** wrap)
    return {"op": kind, "matrix": {"p": p, "n": n, "a": _q(a), "rows": rows},
            "_terms": [[j, i, _q(c)] for (j, i), c in sorted(terms.items())]}


def stream(seed: int, size: str) -> list[dict]:
    rng = random.Random(seed)
    levels = TINY_LEVELS if size == "tiny" else LEVELS
    total = TINY_REQUESTS if size == "tiny" else FULL_REQUESTS
    cells = [(kind, p, n) for kind in KINDS for p, n in levels
             if kind != "nu" or n >= 2]
    plan = [cells[k % len(cells)] for k in range(total)]
    rng.shuffle(plan)
    return [_request(rng, kind, p, n) for kind, p, n in plan]


# ---------------------------------------------------------------------------
# serving one request through the public API

def _terms_json(x) -> list[list]:
    return [[j, i, cyclotomic.rat_str(c)] for (j, i), c in sorted(x.terms.items())]


def answer(text: str) -> str:
    req = json.loads(text)
    op = req["op"]
    parse = cyclotomic.parse_rat
    if op == "basis":
        coeffs = hg.e_basis(req["p"], req["n"], req["i"]).to_json()
        out = {"i": req["i"], "coefficients": coeffs}
    elif op == "act":
        p, n = req["p"], req["n"]
        a = hg.validate_radicand(p, parse(req["a"]))
        h = hg.HopfElt(p, n, [parse(s) for s in req["h"]])
        x = hg.RadicalElt(p, n, a, [parse(s) for s in req["x"]])
        out = {"output": hg.act(h, x).to_json()}
    elif op == "smash":
        p, n = req["p"], req["n"]
        a = hg.validate_radicand(p, parse(req["a"]))
        left = se.SmashElt.basis(p, n, a, *req["left"])
        right = se.SmashElt.basis(p, n, a, *req["right"])
        out = {}
        for key, elt in (("left", left), ("right", right),
                         ("product", se.smash_mult(left, right))):
            out[key] = {"terms": _terms_json(elt),
                        "matrix": se.to_end_matrix(elt).to_json()}
    elif op == "decompose":
        elt = se.decompose_endomorphism(se.QMatrix.from_json(req["matrix"]))
        out = {"terms": _terms_json(elt)}
    elif op == "nu":
        p, n = req["p"], req["n"]
        h = hg.HopfElt(p, n, [parse(s) for s in req["coords"]])
        out = {"output": pf.nu_h(n, h).to_json()}
    else:
        raise ValueError("unknown op %r" % op)
    return json.dumps(out, sort_keys=True)


# ---------------------------------------------------------------------------
# independent expected replies

def _oracles():
    """The sympy oracle module, with zeta powers memoised per (p, n, e)."""
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "tests"))
    import oracle_tools
    if not hasattr(oracle_tools.oracle_zeta_power, "cache_info"):
        oracle_tools.oracle_zeta_power = lru_cache(maxsize=None)(
            oracle_tools.oracle_zeta_power)
    return lru_cache(maxsize=None)(oracle_tools.oracle_idempotent)


def _expected(req: dict, idempotent) -> dict:
    op = req["op"]
    if op == "basis":
        rows = idempotent(req["p"], req["n"], req["i"])
        return {"i": req["i"], "coefficients": [[_q(c) for c in row] for row in rows]}
    if op == "act":
        coords = [_unq(h) * _unq(x) for h, x in zip(req["h"], req["x"])]
        return {"output": {"radicand": _q(_unq(req["a"])),
                           "coords": [_q(c) for c in coords]}}
    if op == "nu":
        p, n = req["p"], req["n"]
        return {"output": [req["coords"][p * k] for k in range(p ** (n - 1))]}
    if op == "decompose":
        return {"terms": req["_terms"]}
    p, n, a = req["p"], req["n"], _unq(req["a"])
    go = p ** n
    (j1, i1), (j2, i2) = req["left"], req["right"]
    product = {}
    if (j2 + i2) % go == i1:
        wrap, j = divmod(j1 + j2, go)
        product[(j, i2)] = a ** wrap
    out = {}
    for key, terms in (("left", {(j1, i1): Fraction(1)}),
                       ("right", {(j2, i2): Fraction(1)}), ("product", product)):
        out[key] = {"terms": [[j, i, _q(c)] for (j, i), c in sorted(terms.items())],
                    "matrix": {"p": p, "n": n, "a": _q(a),
                               "rows": [[_q(v) for v in row]
                                        for row in _matrix(go, a, terms)]}}
    return out


def _decompose_round_trip(req: dict, reply: dict) -> bool:
    """The returned terms rebuild the generated matrix."""
    m = req["matrix"]
    go = m["p"] ** m["n"]
    terms = {(j, i): _unq(c) for j, i, c in reply["terms"]}
    rows = _matrix(go, _unq(m["a"]), terms)
    return [[_q(v) for v in row] for row in rows] == m["rows"]


def queries(seed: int, size: str) -> Plan:
    """Many short calls across many levels instead of long loops at a few:
    the dense QMatrix path and the "num/den" JSON boundary, where a per-level
    precomputation or size guard that speeds up tower would show as a
    slowdown.  The seed picks the order and the operands of the requests."""
    requests = stream(seed, size)
    texts = [json.dumps({k: v for k, v in req.items() if k != "_terms"})
             for req in requests]
    calls = [(req["op"], lambda t=t: answer(t)) for req, t in zip(requests, texts)]

    def check(outputs, plant):
        idempotent = _oracles()
        failures = []
        for k, (req, out) in enumerate(zip(requests, outputs)):
            if isinstance(out, BaseException):
                failures.append("request %d (%s): raised %r" % (k, req["op"], out))
                continue
            reply = json.loads(out)
            want = _expected(req, idempotent)
            if plant and k == 0:
                want = {"planted": "wrong answer"}
            if reply != want or (req["op"] == "decompose"
                                 and not _decompose_round_trip(req, reply)):
                failures.append("request %d (%s): reply differs from the "
                                "expected answer" % (k, req["op"]))
        return len(requests), failures

    return Plan(calls, check)
