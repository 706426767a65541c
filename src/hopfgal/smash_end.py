"""Smash product K # H of the radical extension with its acting Hopf algebra,
and its faithful matrix model inside End_Q(K).

Basis elements are written w^j # e_i (w-power tensor idempotent).  The product
rule, forced by the comultiplication of the idempotents, is

    (w^j # e_i)(w^k # e_l) = w^(j+k) # e_l   if k + l == i (mod p^n),  else 0,

with w-exponents wrapping into a factor of the radicand a.  Each basis element
acts on K by w^k -> [k == i] w^(j+k), so its matrix (columns indexed by the
input basis power, rows by the output coordinate, both 0-indexed) has a single
nonzero entry.  A `QMatrix` therefore stores only its nonzero entries, as
sorted ((row, col), value) pairs (`_terms`); the dense p^n x p^n grid is a
view, built on demand, and the matrix map, its inverse, products and the
JSON boundary all walk the stored entries.

The product rule has one definition, the kernel `_product_terms`, which
multiplies term tables ({(j, i): coefficient} items) and builds no element.
`smash_mult` is its public wrapper: it checks that the factors share p, n
and a, drops the cancelled terms and wraps the table in a `SmashElt`
(`new_smash`; its keys are reduced).  `hom_subalgebra_closure_check`
calls the kernel directly, since it reads only which terms each product
has: once per left basis element w^j1 # e_i1, on that element's one term
against the basis elements w^j2 # e_i2 with j2 + i2 = i1 (mod p^n), the
only ones it does not annihilate.  Keys never merge in such a call (a left
factor and a product key fix the right factor), so the table still shows
every such ordered pair's product on its own.

`iso_check` certifies that the induced map K # H -> End_Q(K) is a bijective
algebra map by an exact rank computation plus multiplicativity checks;
`decompose_endomorphism` inverts it explicitly.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from ._terms import add, canonical, fill, grid, maker, sub
from .cyclotomic import Rat, parse_rat, rat_str
from .reporting import Report, checked


@dataclass(frozen=True, slots=True)
class SmashElt:
    """Element of K # H: a table {(j, i): coefficient} over the w^j # e_i
    basis.  The constructor reduces j and i mod p^n and sums what meets.

    Unhashable, since `terms` is a dict.
    """

    p: int
    n: int
    a: Rat
    terms: dict

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        go = self.p ** self.n
        object.__setattr__(self, "terms", dict(add((), (
            ((j % go, i % go), c if type(c) is Fraction else Fraction(c))
            for (j, i), c in self.terms.items()))))

    @classmethod
    def basis(cls, p: int, n: int, a, j: int, i: int) -> "SmashElt":
        go = p ** n
        a = a if type(a) is Fraction else Fraction(a)
        return new_smash(p, n, a, {(j % go, i % go): _ONE})

    def _check(self, other):
        if (self.p, self.n, self.a) != (other.p, other.n, other.a):
            raise ValueError("mismatched smash products")

    def __add__(self, other):
        self._check(other)
        return SmashElt(self.p, self.n, self.a,
                        dict(add(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        self._check(other)
        return SmashElt(self.p, self.n, self.a,
                        dict(sub(self.terms.items(), other.terms.items())))

    def scale(self, c) -> "SmashElt":
        f = Fraction(c)
        return SmashElt(self.p, self.n, self.a, {k: f * v for k, v in self.terms.items()})

    def __mul__(self, other):
        return smash_mult(self, other)

    def __bool__(self):
        return bool(self.terms)

    # hand-written: `iso_check` puts this rendering in its failure witness
    def __repr__(self):
        return "SmashElt(p=%d, n=%d, a=%s, %r)" % (
            self.p, self.n, self.a, {k: str(v) for k, v in sorted(self.terms.items())})


new_smash = maker(SmashElt)


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _product_terms(go: int, a: Fraction, xterms, yterms) -> dict:
    """The product rule on term tables: xterms and yterms are sequences (or
    dict item views) of ((j, i), coefficient) pairs with j, i in range(go)
    and int or Fraction coefficients, and the result is the
    {(j, i): coefficient} table of their product.  A coefficient that
    cancels to zero is left in the table.

    Every pair of terms is tested for j2 + i2 = i1 (mod go), also when the
    caller has already sorted the right factors by that residue, as
    `hom_subalgebra_closure_check` does.  The w-exponent sum j1 + j2 is
    below 2*go, so it wraps at most once and a product takes the factor a
    only when it does.  A key met for the first time takes its product as
    it is; only a later one is added."""
    terms: dict[tuple[int, int], Fraction] = {}
    for (j1, i1), c1 in xterms:
        for (j2, i2), c2 in yterms:
            if (j2 + i2) % go != i1:
                continue
            j, c = j1 + j2, c1 * c2
            if j >= go:
                j, c = j - go, c * a
            key = (j, i2)
            if key in terms:
                terms[key] += c
            else:
                terms[key] = c
    return terms


def smash_mult(x: SmashElt, y: SmashElt) -> SmashElt:
    x._check(y)
    return new_smash(x.p, x.n, x.a, dict(canonical(_product_terms(
        x.p ** x.n, x.a, x.terms.items(), y.terms.items()))))


_ZERO_STR = "0/1"          # rat_str(0): the wire form of an absent entry


@dataclass(frozen=True, slots=True, init=False)
class QMatrix:
    """A p^n x p^n rational matrix over the 1, w, ..., w^(p^n - 1) basis of K.

    Column k holds the coordinates of the image of w^k.  `entries` is the
    tuple of ((row, col), value) pairs of the nonzero entries, sorted by
    position; no zero is ever stored, so equal matrices have equal storage
    and equal hashes.  The constructor takes dense rows (ints, Fractions or
    strings `Fraction` accepts) and `rows` is the dense view.
    """

    p: int
    n: int
    a: Rat
    entries: tuple

    def __init__(self, p: int, n: int, a, rows):
        go = p ** n
        rows = [[v if type(v) is Fraction else Fraction(v) for v in row] for row in rows]
        if len(rows) != go or any(len(r) != go for r in rows):
            raise ValueError("expected a %d x %d matrix" % (go, go))
        a = a if type(a) is Fraction else Fraction(a)
        fill(self, p, n, a, canonical({(r, k): v for r, row in enumerate(rows)
                                       for k, v in enumerate(row)}))

    @property
    def rows(self) -> tuple:
        """The dense view: p^n rows of p^n Fractions, zeros included."""
        return tuple(map(tuple, grid(self.entries, self.p ** self.n, _ZERO)))

    def __mul__(self, other):
        if (self.p, self.n, self.a) != (other.p, other.n, other.a):
            raise ValueError("mismatched matrices")
        by_row: dict[int, list] = {}
        for (k, c), w in other.entries:
            by_row.setdefault(k, []).append((c, w))
        cells: dict[tuple[int, int], Fraction] = {}
        for (r, k), v in self.entries:
            for c, w in by_row.get(k, ()):
                cells[(r, c)] = cells.get((r, c), _ZERO) + v * w
        return new_qmatrix(self.p, self.n, self.a, canonical(cells))

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "a": rat_str(self.a),
                "rows": grid(self.entries, self.p ** self.n, _ZERO_STR, rat_str)}

    @classmethod
    def from_json(cls, data) -> "QMatrix":
        """The matrix of `to_json`'s layout.  Every entry other than the exact
        string "0/1" goes through `parse_rat`, so ints, non-strings and zero
        denominators are refused wherever they sit.  Matrices are sparse: a
        row that is all "0/1" is passed over with one `list.count`, and any
        other row is read entry by entry."""
        if not isinstance(data, dict):
            raise ValueError("matrix JSON must be an object, got %s"
                             % type(data).__name__)
        for key in ("p", "n"):
            if type(data[key]) is not int:
                raise ValueError("matrix field %r must be an integer" % key)
        p, n, rows = data["p"], data["n"], data["rows"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("matrix field 'rows' must be a list of lists")
        a = parse_rat(data["a"])
        cells = {(r, k): parse_rat(s) for r, row in enumerate(rows)
                 if row.count(_ZERO_STR) != len(row)
                 for k, s in enumerate(row) if s != _ZERO_STR}
        # p^n >= 2^n, so an n past the row count's bit length cannot match:
        # the power is not computed for it
        go = len(rows)
        if (n > go.bit_length() or p ** n != go
                or any(len(row) != go for row in rows)):
            raise ValueError("expected a p^n x p^n matrix for p=%d n=%d" % (p, n))
        return new_qmatrix(p, n, a, canonical(cells))


new_qmatrix = maker(QMatrix)


def to_end_matrix(x: SmashElt) -> QMatrix:
    """Matrix of the action of x on K:  (w^j # e_i) sends w^i to w^(j+i).

    (j, i) -> ((j + i) mod p^n, i) is a bijection, so each term of x gives
    its own entry."""
    go = x.p ** x.n
    a = x.a
    cells = {}
    for (j, i), c in x.terms.items():
        r = j + i
        if r < go:
            cells[(r, i)] = c
        else:
            cells[(r - go, i)] = c * a
    return new_qmatrix(x.p, x.n, a, canonical(cells))


def decompose_endomorphism(m: QMatrix) -> SmashElt:
    """Invert `to_end_matrix`: entry (r, k) is the coefficient of w^((r-k) mod p^n) # e_k,
    divided by a when the w-exponent wrapped (r < k)."""
    if m.a == 0:
        raise ValueError("radicand 0 leaves the matrix model degenerate")
    go = m.p ** m.n
    terms = {}
    for (r, k), v in m.entries:
        terms[((r - k) % go, k)] = v / m.a if r < k else v
    out = new_smash(m.p, m.n, m.a, terms)
    if to_end_matrix(out) != m:
        raise AssertionError("decomposition failed to round-trip")
    return out


def _flat(m: QMatrix) -> dict[int, Fraction]:
    """The entries as one sparse vector: entry (r, k) is column r*p^n + k,
    the matrix read row by row."""
    go = m.p ** m.n
    return {r * go + k: v for (r, k), v in m.entries}


def iso_check(p: int, n: int, a, seed: int = 20240901) -> Report:
    """Certify K # H = End_Q(K): the p^2n basis matrices have full exact rank,
    and the matrix map is multiplicative (exhaustively for tiny instances,
    on 24 seeded random sparse pairs otherwise)."""
    a = Fraction(a)
    go = p ** n

    def body():
        basis = [SmashElt.basis(p, n, a, j, i) for j in range(go) for i in range(go)]
        mats = [to_end_matrix(x) for x in basis]
        rk = linalg.sparse_rank(_flat(m) for m in mats)
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

            pairs = [(rand_elt(), rand_elt()) for _ in range(24)]
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
                computed.append(mat.to_json()["rows"])
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
            ech.insert(_flat(to_end_matrix(SmashElt.basis(p, level, a, j, i))))
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
    """Every product of two listed basis elements, over all ordered pairs,
    stays in their span.

    The products go through the term-level product rule `_product_terms`,
    one call per left factor w^j1 # e_i1, go = p^max(n, m).  The right
    factors w^j2 # e_i2 are sorted once per check into their residue
    classes j2 + i2 mod go, each in the listed order, and a left factor is
    multiplied by its class i1 alone: by the product rule every other right
    factor gives 0.  So each ordered pair with a nonzero product is
    multiplied once, inside the kernel's loop, on int coefficients 1 (a
    wrap still takes the factor a), and no `SmashElt` is built.  No two
    products of one call meet in a key: a product key (j, i) can only come
    from the right factor w^((j - j1) mod go) # e_i.  So each escaping key
    names its pair, and the witness is the first escaping pair in the
    order (left, right) of the listed basis."""
    a = Fraction(a)

    def body():
        pairs, _ = hom_subalgebra_basis(p, n, m)
        level = max(n, m)
        go = p ** level
        allowed = set(pairs)
        # each right factor w^j # e_i as its one term, in its residue class
        # (j + i) mod go, in the listed order; the coefficient is the int 1
        classes: dict[int, list] = {}
        for j, i in pairs:
            classes.setdefault((j + i) % go, []).append(((j, i), 1))
        for j1, i1 in pairs:
            right = classes.get(i1, ())
            for (j, i), c in _product_terms(go, a, (((j1, i1), 1),), right).items():
                if c and (j, i) not in allowed:
                    return False, {"left": (j1, i1), "right": ((j - j1) % go, i),
                                   "escapes": (j, i)}
        return True, None

    return checked("hom-subalgebra-closure", {"p": p, "n": n, "m": m, "a": rat_str(a)},
                   body)
