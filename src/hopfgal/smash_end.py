"""Smash product K # H of the radical extension with its acting Hopf algebra,
and its faithful matrix model inside End_Q(K).

Basis elements are written w^j # e_i (w-power tensor idempotent).  The product
rule, forced by the comultiplication of the idempotents, is

    (w^j # e_i)(w^k # e_l) = w^(j+k) # e_l   if k + l == i (mod p^n),  else 0,

with w-exponents wrapping into a factor of the radicand a.  Each basis element
acts on K by w^k -> [k == i] w^(j+k), so its matrix (columns indexed by the
input basis power, rows by the output coordinate, both 0-indexed) has a single
nonzero entry.  `iso_check` certifies that the induced map K # H -> End_Q(K)
is a bijective algebra map by an exact rank computation plus multiplicativity
checks; `decompose_endomorphism` inverts it explicitly.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import linalg
from .cyclotomic import Rat, cells_to_vector, parse_rat, rat_str
from .reporting import Report, checked


class SmashElt:
    """Element of K # H: a table {(j, i): coefficient} over the w^j # e_i basis."""

    __slots__ = ("p", "n", "a", "terms")

    def __init__(self, p: int, n: int, a, terms: dict):
        a = Fraction(a)
        go = p ** n
        clean = {}
        for (j, i), c in terms.items():
            c = Fraction(c)
            if c:
                key = (j % go, i % go)
                clean[key] = clean.get(key, Fraction(0)) + c
        clean = {k: v for k, v in clean.items() if v}
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("SmashElt is immutable")

    @classmethod
    def basis(cls, p: int, n: int, a, j: int, i: int) -> "SmashElt":
        return cls(p, n, a, {(j, i): Fraction(1)})

    def _check(self, other):
        if (self.p, self.n, self.a) != (other.p, other.n, other.a):
            raise ValueError("mismatched smash products")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) + v
        return SmashElt(self.p, self.n, self.a, terms)

    def __sub__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, Fraction(0)) - v
        return SmashElt(self.p, self.n, self.a, terms)

    def scale(self, c) -> "SmashElt":
        f = Fraction(c)
        return SmashElt(self.p, self.n, self.a, {k: f * v for k, v in self.terms.items()})

    def __mul__(self, other):
        return smash_mult(self, other)

    def __eq__(self, other):
        return (isinstance(other, SmashElt)
                and (self.p, self.n, self.a) == (other.p, other.n, other.a)
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "SmashElt(p=%d, n=%d, a=%s, %r)" % (
            self.p, self.n, self.a, {k: str(v) for k, v in sorted(self.terms.items())})


def smash_mult(x: SmashElt, y: SmashElt) -> SmashElt:
    x._check(y)
    go = x.p ** x.n
    terms: dict[tuple[int, int], Fraction] = {}
    for (j1, i1), c1 in x.terms.items():
        for (j2, i2), c2 in y.terms.items():
            if (j2 + i2) % go != i1:
                continue
            wrap, j = divmod(j1 + j2, go)
            key = (j, i2)
            terms[key] = terms.get(key, Fraction(0)) + c1 * c2 * x.a ** wrap
    return SmashElt(x.p, x.n, x.a, terms)


class QMatrix:
    """A p^n x p^n rational matrix over the 1, w, ..., w^(p^n - 1) basis of K.

    Column k holds the coordinates of the image of w^k.
    """

    __slots__ = ("p", "n", "a", "rows")

    def __init__(self, p: int, n: int, a, rows):
        a = Fraction(a)
        go = p ** n
        rows = tuple(tuple(Fraction(v) for v in row) for row in rows)
        if len(rows) != go or any(len(r) != go for r in rows):
            raise ValueError("expected a %d x %d matrix" % (go, go))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, *a):
        raise AttributeError("QMatrix is immutable")

    def __eq__(self, other):
        return (isinstance(other, QMatrix)
                and (self.p, self.n, self.a, self.rows)
                == (other.p, other.n, other.a, other.rows))

    def __mul__(self, other):
        if (self.p, self.n, self.a) != (other.p, other.n, other.a):
            raise ValueError("mismatched matrices")
        return QMatrix(self.p, self.n, self.a, linalg.mat_mul(self.rows, other.rows))

    def __repr__(self):
        return "QMatrix(p=%d, n=%d, a=%s, %r)" % (
            self.p, self.n, self.a, [[str(v) for v in row] for row in self.rows])

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "a": rat_str(self.a),
                "rows": [[rat_str(v) for v in row] for row in self.rows]}

    @classmethod
    def from_json(cls, data) -> "QMatrix":
        return cls(data["p"], data["n"], parse_rat(data["a"]),
                   [[parse_rat(v) for v in row] for row in data["rows"]])


def to_end_matrix(x: SmashElt) -> QMatrix:
    """Matrix of the action of x on K:  (w^j # e_i) sends w^i to w^(j+i)."""
    go = x.p ** x.n
    rows = [[Fraction(0)] * go for _ in range(go)]
    for (j, i), c in x.terms.items():
        wrap, r = divmod(j + i, go)
        rows[r][i] += c * x.a ** wrap
    return QMatrix(x.p, x.n, x.a, rows)


def decompose_endomorphism(m: QMatrix) -> SmashElt:
    """Invert `to_end_matrix`: entry (r, k) is the coefficient of w^((r-k) mod p^n) # e_k,
    divided by a when the w-exponent wrapped (r < k)."""
    if m.a == 0:
        raise ValueError("radicand 0 leaves the matrix model degenerate")
    go = m.p ** m.n
    terms = {}
    for k in range(go):
        for r in range(go):
            v = m.rows[r][k]
            if v:
                j = (r - k) % go
                terms[(j, k)] = v / (m.a if j + k >= go else 1)
    out = SmashElt(m.p, m.n, m.a, terms)
    if to_end_matrix(out) != m:
        raise AssertionError("decomposition failed to round-trip")
    return out


def iso_check(p: int, n: int, a, seed: int = 20240901, samples: int = 24) -> Report:
    """Certify K # H = End_Q(K): the p^2n basis matrices have full exact rank,
    and the matrix map is multiplicative (exhaustively for tiny instances,
    on seeded random sparse pairs otherwise)."""
    a = Fraction(a)
    go = p ** n

    def body():
        basis = [SmashElt.basis(p, n, a, j, i) for j in range(go) for i in range(go)]
        mats = [to_end_matrix(x) for x in basis]
        rk = linalg.sparse_rank(cells_to_vector(m.rows) for m in mats)
        if rk != go * go:
            return False, {"rank": rk, "expected": go * go}
        if go <= 5:
            pairs = [(x, y) for x in basis for y in basis]
        else:
            rng = random.Random(seed)

            def rand_elt():
                terms = {}
                for _ in range(rng.randint(1, 3)):
                    terms[(rng.randrange(go), rng.randrange(go))] = \
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                return SmashElt(p, n, a, terms)

            pairs = [(rand_elt(), rand_elt()) for _ in range(samples)]
            pairs += [(x, y) for x in basis[: go] for y in basis[: go]]
        for x, y in pairs:
            if to_end_matrix(smash_mult(x, y)) != to_end_matrix(x) * to_end_matrix(y):
                return False, {"x": repr(x), "y": repr(y)}
        return True, None

    return checked("smash-end-iso", {"p": p, "n": n, "a": rat_str(a), "seed": seed}, body)


# Reference matrices of the nine basis endomorphisms w^j # e_i at p=3, n=1,
# ordered lexicographically by (j, i); "a" marks the radicand wrap factor.
REFERENCE_END_MATRICES = [
    [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],   # (0, 0)
    [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "0"]],   # (0, 1)
    [["0", "0", "0"], ["0", "0", "0"], ["0", "0", "1"]],   # (0, 2)
    [["0", "0", "0"], ["1", "0", "0"], ["0", "0", "0"]],   # (1, 0)
    [["0", "0", "0"], ["0", "0", "0"], ["0", "1", "0"]],   # (1, 1)
    [["0", "0", "a"], ["0", "0", "0"], ["0", "0", "0"]],   # (1, 2)
    [["0", "0", "0"], ["0", "0", "0"], ["1", "0", "0"]],   # (2, 0)
    [["0", "a", "0"], ["0", "0", "0"], ["0", "0", "0"]],   # (2, 1)
    [["0", "0", "0"], ["0", "0", "a"], ["0", "0", "0"]],   # (2, 2)
]


def nine_matrices_report(a) -> Report:
    """The level-one basis endomorphism matrices reproduce the reference
    display bytewise once the radicand is substituted."""
    a = Fraction(a)

    def body():
        computed = []
        for j in range(3):
            for i in range(3):
                mat = to_end_matrix(SmashElt.basis(3, 1, a, j, i))
                computed.append([[rat_str(v) for v in row] for row in mat.rows])
        expected = [[[rat_str(a) if e == "a" else rat_str(Fraction(int(e)))
                      for e in row] for row in mat]
                    for mat in REFERENCE_END_MATRICES]
        got_bytes = json.dumps(computed, sort_keys=True)
        want_bytes = json.dumps(expected, sort_keys=True)
        if got_bytes != want_bytes:
            return False, {"got": computed, "expected": expected}
        return True, None

    return checked("nine-matrices", {"p": 3, "n": 1, "a": rat_str(a)}, body)


def hom_subalgebra_dimension_report(p: int, n: int, m: int, a) -> Report:
    """The selected basis has exactly p^(n+m) members, their matrices are
    linearly independent (exact rank certificate), and each matrix supports
    only the columns the index description allows."""
    a = Fraction(a)

    def body():
        pairs, dim = hom_subalgebra_basis(p, n, m)
        if dim != p ** (n + m) or len(pairs) != dim:
            return False, {"stage": "count", "got": len(pairs)}
        level = max(n, m)
        go = p ** level
        if m >= n:
            step = p ** (m - n)
            allowed_cols = {i for i in range(go) if i % step == 0}
        else:
            allowed_cols = set(range(go))
        ech = linalg.SparseEchelon()
        for (j, i) in pairs:
            if i not in allowed_cols:
                return False, {"stage": "column-support", "pair": [j, i]}
            ech.insert(cells_to_vector(
                to_end_matrix(SmashElt.basis(p, level, a, j, i)).rows))
        if ech.rank != dim:
            return False, {"stage": "rank", "got": ech.rank, "expected": dim}
        return True, None

    return checked("hom-subalgebra-dimension",
                   {"p": p, "n": n, "m": m, "a": rat_str(a)}, body)


def hom_subalgebra_basis(p: int, n: int, m: int) -> tuple[list[tuple[int, int]], int]:
    """Index pairs (j, i) spanning the home of the level-min(n,m) action inside the
    level-max(n,m) smash product; the span has dimension p^(n+m).

    For m >= n the idempotent indices run over the multiples of p^(m-n); for
    m < n the pairs satisfy p^(n-m) | (j + i).  (Divisibility of the integer
    sum and of the reduced residue agree, since p^(n-m) divides p^n.)
    """
    if min(n, m) < 1:
        raise ValueError("levels must be >= 1")
    if m >= n:
        level = p ** m
        step = p ** (m - n)
        pairs = [(j, step * t) for j in range(level) for t in range(p ** n)]
    else:
        level = p ** n
        step = p ** (n - m)
        pairs = [(j, i) for j in range(level) for i in range(level)
                 if (j + i) % step == 0]
    dim = p ** (n + m)
    if len(pairs) != dim:
        raise AssertionError("basis size %d != p^(n+m) = %d" % (len(pairs), dim))
    return pairs, dim


def hom_subalgebra_closure_check(p: int, n: int, m: int, a) -> Report:
    """Spot-check that products of the listed basis elements stay in their span."""
    a = Fraction(a)

    def body():
        pairs, _ = hom_subalgebra_basis(p, n, m)
        level = max(n, m)
        allowed = set(pairs)
        for (j1, i1) in pairs:
            x = SmashElt.basis(p, level, a, j1, i1)
            for (j2, i2) in pairs:
                y = SmashElt.basis(p, level, a, j2, i2)
                for key in smash_mult(x, y).terms:
                    if key not in allowed:
                        return False, {"left": (j1, i1), "right": (j2, i2),
                                       "escapes": key}
        return True, None

    return checked("hom-subalgebra-closure", {"p": p, "n": n, "m": m, "a": rat_str(a)},
                   body)
