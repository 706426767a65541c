"""Exact arithmetic in the cyclotomic fields Q(zeta) for zeta a p^n-th root of unity.

Elements are coefficient vectors over the power basis 1, zeta, ..., zeta^(phi-1)
with phi = p^(n-1)(p-1), reduced with the relation

    zeta^phi = -(1 + zeta^s + zeta^(2s) + ... + zeta^((p-2)s)),   s = p^(n-1),

i.e. the minimal polynomial x^phi + x^((p-2)s) + ... + x^s + 1.  An element
stores only its nonzero integer numerators, as sorted (index, numerator)
pairs, over one positive denominator, in lowest terms; every loop here walks
those pairs, so an element with k nonzero numerators costs k, not phi.  The
dense views are built when asked for: `CycloElt.coeffs` (the `Fraction`
coefficients) and `CycloElt.to_json`.  Reduction, the shift by zeta^e and
the automorphism zeta -> zeta^u all go through the field's table of zeta^e
in the power basis.  Built with the field beside that table are its zero,
the shared roots of unity zeta^e (`powers`) and the cells zeta^k/p^n of the
idempotents, and the index from each table row to its exponent: a shift or
an automorphism of one root of unity over a denominator is a lookup, and
over 1 or p^n it returns the shared element.  `add_all` sums k elements in
one pass.  Nothing here is approximate.

The same fixed multiplier (the smallest primitive root mod p^2, which is a
primitive root mod every p^k for odd p) drives the Galois action at every
level, so towers of these fields share one generator convention.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import linalg
from ._terms import canonical, dense, sparse

Rat = Fraction


def rat_str(x: Rat | int) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


# Wire rationals repeat: the coordinates of the data requests are a few
# hundred distinct small fractions, sent tens of thousands of times.
PARSE_CACHE_SIZE = 4096


def parse_rat(s: str) -> Rat:
    """The rational `rat_str` prints as s, or an integer "num": ASCII digits,
    a minus sign only in front of the numerator, and a nonzero denominator
    after a slash.  `int` alone would also take spaces, a sign on either
    part, underscores and non-ASCII digits; those are refused.

    A non-string is refused before any cache.  Each distinct string is
    parsed once per process, while it stays among the `PARSE_CACHE_SIZE`
    strings read most recently; callers share the one `Fraction` it gives,
    which is immutable.  A refusal raises every time and is not cached."""
    if not isinstance(s, str):
        raise ValueError("expected a rational as a 'num/den' string, got %r" % (s,))
    return _parse_str(s)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_str(s: str) -> Rat:
    num, slash, den = s.partition("/")
    # "".isdigit() is False: an empty part is refused, "3/" as well as "/2"
    if not (s.isascii()
            and (num.isdigit() or num[:1] == "-" and num[1:].isdigit())
            and (den.isdigit() or not slash)):
        raise ValueError("expected a rational as 'num/den' or 'num', got %r" % (s,))
    den = int(den) if slash else 1
    if den == 0:
        raise ValueError("zero denominator in %r" % (s,))
    return Fraction(int(num), den)


# Miller-Rabin on the 13 primes 2..41 as bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(m: int) -> bool:
    """Whether the integer m is prime, by deterministic Miller-Rabin on
    `PRIME_BASES`: exact below `PRIMALITY_BOUND`, at most 13 modular powers.
    A multiple of a base is decided at any size; any other m at or above
    the bound is a ValueError, since the bases no longer decide it."""
    if m < 2:
        return False
    for q in PRIME_BASES:
        if m % q == 0:
            return m == q
    if m >= PRIMALITY_BOUND:
        raise ValueError("primality of %d is not decided: it is at or above %d"
                         % (m, PRIMALITY_BOUND))
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for q in PRIME_BASES:
        x = pow(q, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False                      # q witnesses that m is composite
    return True


def _prime_divisors(m: int) -> list[int]:
    """The distinct primes dividing m >= 1, in increasing order."""
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out

@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root mod p^2 (hence mod p^k for all k, p an odd prime).

    A unit g mod p^2 has order dividing p(p-1), and the order is p(p-1)
    exactly when g^(p(p-1)/q) != 1 mod p^2 for every prime q dividing
    p(p-1): those prime q are p and the primes of p - 1."""
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime, got %d" % p)
    target, modulus = p * (p - 1), p * p
    exponents = [target // q for q in [p, *_prime_divisors(p - 1)]]
    for g in range(2, modulus):
        if g % p and all(pow(g, e, modulus) != 1 for e in exponents):
            return g
    raise AssertionError("no primitive root found mod %d" % modulus)


def validate_field(p: int, n: int) -> None:
    """ValueError unless p is an odd prime and n >= 1, the (p, n) that name a
    field; builds nothing.  Primality is decided by `is_prime`, so an odd p
    with no prime factor up to 41 at or above `PRIMALITY_BOUND` (about
    3.3 * 10^24) is refused with a ValueError too, whether prime or not."""
    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime, got %r" % (p,))
    if n < 1:
        raise ValueError("n must be >= 1, got %r" % (n,))


# Hand-rolled rather than a dataclass: interned through `__new__`.
class FieldDescriptor:
    """The field Q(zeta) with zeta a primitive p^n-th root of unity.

    There is one instance per (p, n): constructing the same field twice
    returns the same object, so two descriptors are equal exactly when they
    are identical.  The instance is built whole and never changes.  Besides
    p, n, `modulus` p^n, `degree` phi and `multiplier`, it holds:

    - `table`: entry e (0 <= e < p^n) is zeta^e in the power basis, as
      ((index, +/-1), ...) sorted by index, the terms of the element zeta^e;
      a row has one term or p - 1 of them;
    - `exponents`: the index of `table`, {row: e};
    - `zero`: the field's zero element;
    - `powers`: entry e is the element zeta^e;
    - `cells`: entry k is zeta^k / p^n.  Every cell of an idempotent e_i
      (`hopfgalois.e_basis`) is one of them, so the p^2n cells of a level's
      idempotents are p^n shared elements.

    `CycloElt.zeta_power`, `CycloElt.shift` and `unit_apply` return the
    shared `powers` and `cells` entries for the roots of unity they make.
    """

    __slots__ = ("p", "n", "modulus", "degree", "multiplier", "table",
                 "exponents", "zero", "powers", "cells")
    _instances: dict[tuple[int, int], "FieldDescriptor"] = {}

    def __new__(cls, p: int, n: int):
        field = cls._instances.get((p, n))
        if field is not None:
            return field
        validate_field(p, n)
        field = object.__new__(cls)
        m, s = p ** n, p ** (n - 1)
        phi = m - s
        # zeta^e is a basis vector below phi; past it, zeta^(phi + d) =
        # -(zeta^d + zeta^(s + d) + ... + zeta^((p-2)s + d)) with d < s
        table = (tuple(((e, 1),) for e in range(phi))
                 + tuple(tuple((k * s + d, -1) for k in range(p - 1))
                         for d in range(s)))
        for name, value in (("p", p), ("n", n),
                            ("modulus", m),                       # order of zeta
                            ("degree", phi),                      # [Q(zeta) : Q]
                            # generator of the Galois action on exponents
                            ("multiplier", primitive_root(p)),
                            ("table", table),
                            # the rows are distinct: so are the roots of unity
                            ("exponents", {row: e for e, row in enumerate(table)}),
                            ("zero", _make(field, (), 1)),
                            ("powers", tuple(_make(field, row, 1) for row in table)),
                            # a row's numerators are +/-1: coprime to m
                            ("cells", tuple(_make(field, row, m) for row in table))):
            object.__setattr__(field, name, value)
        return cls._instances.setdefault((p, n), field)

    def __setattr__(self, *a):
        raise AttributeError("FieldDescriptor is immutable")

    def __reduce__(self):
        return FieldDescriptor, (self.p, self.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return "FieldDescriptor(p=%d, n=%d)" % (self.p, self.n)


def _fold(field: FieldDescriptor, pairs) -> dict[int, int]:
    """{power-basis index: numerator} of sum c * zeta^e over integer pairs
    (e, c), exponents taken mod p^n; a numerator may have cancelled to 0."""
    m, table = field.modulus, field.table
    out: dict[int, int] = {}
    get = out.get
    for e, c in pairs:
        if c:
            for i, s in table[e % m]:
                out[i] = get(i, 0) + s * c
    return out


_ZERO = Fraction(0)


# Hand-rolled rather than a dataclass: the public constructor takes rationals,
# while `_make` writes the slots directly on the hot path.
class CycloElt:
    """An element of Q(zeta): the power-basis numerators over one
    denominator `den`, stored as `terms`, the sorted (index, numerator)
    pairs of the nonzero numerators.

    The form is canonical: den > 0, no stored numerator is 0, and
    gcd(den, *numerators) == 1, so zero is ()/1 and equal values have equal
    storage.  `CycloElt(field, coeffs)` takes the phi rational coefficients;
    `coeffs` gives them back as `Fraction`s and `to_json` as strings, dense
    views built on every access.
    """

    __slots__ = ("field", "terms", "den")

    def __init__(self, field: FieldDescriptor, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != field.degree:
            raise ValueError("expected %d coefficients, got %d" % (field.degree, len(coeffs)))
        nums, den = linalg.common_denominator(coeffs)
        _set_field(self, field)
        _set_terms(self, sparse(nums))
        _set_den(self, den)

    def __setattr__(self, *a):
        raise AttributeError("CycloElt is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(dense(self.terms, self.field.degree, _ZERO, lambda a: Fraction(a, den)))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "CycloElt":
        return field.zero

    @classmethod
    def one(cls, field: FieldDescriptor) -> "CycloElt":
        return cls.rational(field, 1)

    @classmethod
    def rational(cls, field: FieldDescriptor, x) -> "CycloElt":
        f = Fraction(x)
        return _make(field, ((0, f.numerator),) if f else (), f.denominator)

    @classmethod
    def zeta_power(cls, field: FieldDescriptor, e: int) -> "CycloElt":
        """zeta^e, e taken mod p^n: the field's shared `powers[e]`."""
        return field.powers[e % field.modulus]

    # -- ring structure ------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, CycloElt):
            if other.field is not self.field:
                raise ValueError("field mismatch: %r vs %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElt.rational(self.field, other)
        return None

    def _combine(self, o: "CycloElt", sign: int) -> "CycloElt":
        """self + sign * o over the common denominator."""
        xd, yd = self.den, o.den
        g = gcd(xd, yd)
        sx, sy = yd // g, sign * (xd // g)
        cells = dict(self.terms) if sx == 1 else {i: a * sx for i, a in self.terms}
        get = cells.get
        for i, b in o.terms:
            cells[i] = get(i, 0) + b * sy
        return _normalized(self.field, canonical(cells), xd * sx)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.terms:
            return o
        if not o.terms:
            return self
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, tuple((i, -a) for i, a in self.terms), self.den)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def _scale(self, f: Fraction) -> "CycloElt":
        if not f:
            return self.field.zero
        fn = f.numerator
        return _normalized(self.field, tuple((i, a * fn) for i, a in self.terms),
                           self.den * f.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(Fraction(other))
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return mul(self, o)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CycloElt):
            return (self.field is other.field and self.den == other.den
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):       # both are in lowest terms
            return (self.terms == (((0, other.numerator),) if other else ())
                    and self.den == other.denominator)
        return False

    def __hash__(self):
        # a rational element equals its Fraction value, so it hashes like it
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.field, self.terms, self.den))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return "CycloElt(p=%d, n=%d, %s)" % (
            self.field.p, self.field.n, [str(c) for c in self.coeffs])

    # -- predicates ----------------------------------------------------------

    def is_rational(self) -> bool:
        # the terms are sorted: only index 0 may be stored
        return not self.terms or self.terms[-1][0] == 0

    def rational_value(self) -> Rat:
        if not self.is_rational():
            raise ValueError("element is not rational: %r" % (self,))
        return Fraction(self.terms[0][1], self.den) if self.terms else _ZERO

    def shift(self, e: int) -> "CycloElt":
        """Multiply by zeta^e.  Multiplying by a root of unity permutes Z[zeta],
        so the numerators keep gcd 1 with the denominator.  A root of unity
        zeta^k/d goes to zeta^(k+e)/d, read from the field's tables (`_move`):
        the shared element when d is 1 or p^n."""
        if e % self.field.modulus == 0 or not self.terms:
            return self
        return _move(self.field, self.terms, self.den, 1, e)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[str]:
        den = self.den
        out = ["0/1"] * self.field.degree         # one shared string for every zero
        for i, a in self.terms:
            g = gcd(a, den)
            out[i] = "%d/%d" % (a // g, den // g)
        return out


_set_field = CycloElt.field.__set__
_set_terms = CycloElt.terms.__set__
_set_den = CycloElt.den.__set__


def _make(field: FieldDescriptor, terms: tuple, den: int) -> CycloElt:
    """An element from terms and denominator already in canonical form."""
    x = object.__new__(CycloElt)
    _set_field(x, field)
    _set_terms(x, terms)
    _set_den(x, den)
    return x


def _normalized(field: FieldDescriptor, terms: tuple, den: int) -> CycloElt:
    """An element from sorted nonzero (index, integer numerator) terms over a
    positive denominator."""
    if not terms:
        return field.zero
    if den != 1:
        g = gcd(den, *[a for _, a in terms])
        if g != 1:
            return _make(field, tuple((i, a // g) for i, a in terms), den // g)
    return _make(field, terms, den)


def _transport(field: FieldDescriptor, terms, u: int, s: int) -> tuple:
    """The terms of zeta^s * sigma_u(x), sigma_u being zeta -> zeta^u, for x
    with the (index, numerator) `terms`: sum a * zeta^(u*i + s).  The image
    of one term is its reduction-table row scaled, already sorted, and for
    a = 1 the shared row itself."""
    if len(terms) == 1:
        (i, a), = terms
        row = field.table[(u * i + s) % field.modulus]
        return row if a == 1 else tuple((j, sign * a) for j, sign in row)
    return canonical(_fold(field, ((u * i + s, a) for i, a in terms)))


def _move(field: FieldDescriptor, terms: tuple, den: int, u: int, s: int) -> CycloElt:
    """zeta^s * sigma_u(x) for x with the canonical `terms` over `den`.

    If x is one root of unity zeta^e over den, its terms are the table row
    of e, and the image zeta^(u*e + s)/den is a lookup: the shared `powers`
    entry over 1, the shared `cells` entry over p^n, one row read otherwise.
    A row has at most p - 1 terms, so a longer x skips the lookup; every
    other x goes through `_transport`."""
    if len(terms) < field.p:
        e = field.exponents.get(terms)
        if e is not None:
            e = (u * e + s) % field.modulus
            if den == 1:
                return field.powers[e]
            if den == field.modulus:
                return field.cells[e]
            return _make(field, field.table[e], den)
    return _make(field, _transport(field, terms, u, s), den)


def from_exponents(field: FieldDescriptor, pairs, den: int = 1) -> CycloElt:
    """(1/den) * sum c * zeta^e over integer pairs (e, c), e taken mod p^n.

    For sparse pairs (`mul`'s products, `hopf_to_groupring`'s cells): each
    pair goes through its row of the reduction table (`_fold`, as in
    `_transport`).  A dense table of all p^n exponent sums is folded in
    closed form by `from_exponent_table`."""
    return _normalized(field, canonical(_fold(field, pairs)), den)


def from_exponent_table(field: FieldDescriptor, sums, den: int = 1) -> CycloElt:
    """(1/den) * sum_e sums[e] * zeta^e for a list of p^n integer sums.

    The defining relation zeta^(phi + d) = -sum_{k < p-1} zeta^(k*s + d),
    s = p^(n-1) and d < s, sends the sum at phi + d to minus itself at
    every index == d mod s below phi, so the numerator at index i is
    sums[i] - sums[phi + i mod s]: one subtraction per index, with the tail
    of the table repeated p - 1 times.  Equal to
    `from_exponents(field, enumerate(sums), den)`; ValueError unless the
    table has p^n entries."""
    phi = field.degree
    if len(sums) != field.modulus:
        raise ValueError("expected %d exponent sums, got %d" % (field.modulus, len(sums)))
    nums = map(operator.sub, sums[:phi], sums[phi:] * (field.p - 1))
    return _normalized(field, sparse(nums), den)


def add_all(field: FieldDescriptor, elements) -> CycloElt:
    """The sum of the sequence `elements`, all of `field`: their numerators
    over the lcm of their denominators, with one reduction, not one per `+`."""
    if len(elements) == 1 and elements[0].field is field:
        return elements[0]
    den = lcm(*[x.den for x in elements])
    acc: dict[int, int] = {}
    for x in elements:
        if x.field is not field:
            raise ValueError("field mismatch: %r vs %r" % (field, x.field))
        f = den // x.den
        for i, a in x.terms:
            acc[i] = acc.get(i, 0) + a * f
    return _normalized(field, canonical(acc), den)


def add_by_key(field: FieldDescriptor, pairs) -> tuple:
    """Terms of (key, element) pairs summed by key (`add_all`), zeros dropped."""
    groups: dict = {}
    for k, x in pairs:
        groups.setdefault(k, []).append(x)
    return canonical({k: add_all(field, xs) for k, xs in groups.items()})


def mul(x: CycloElt, y: CycloElt) -> CycloElt:
    field = x.field
    if y.field is not field:
        raise ValueError("field mismatch")
    if not x.terms or not y.terms:
        return field.zero
    acc: dict[int, int] = {}                  # exponent -> integer sum
    get, yterms = acc.get, y.terms
    for i, a in x.terms:
        for j, b in yterms:
            acc[i + j] = get(i + j, 0) + a * b
    return from_exponents(field, acc.items(), x.den * y.den)


def unit_apply(u: int, x: CycloElt) -> CycloElt:
    """The automorphism zeta -> zeta^u for u a unit mod p^n.  A root of
    unity zeta^e/d goes to zeta^(u*e)/d, read from the field's tables
    (`_move`): the shared element when d is 1 or p^n."""
    field = x.field
    if u % field.p == 0:
        raise ValueError("exponent multiplier %d is not a unit mod %d" % (u, field.modulus))
    # an automorphism permutes Z[zeta], so the numerators keep gcd 1 with den
    return _move(field, x.terms, x.den, u, 0)


def embed(m: int, n: int, x: CycloElt) -> CycloElt:
    """Q(zeta_{p^m}) -> Q(zeta_{p^n}) for m <= n, zeta_m -> zeta_n^(p^(n-m)).

    On power-basis indices this is pure dilation by p^(n-m); no reduction
    can occur because the largest dilated index is phi(p^n) - p^(n-m).
    """
    if x.field.n != m:
        raise ValueError("element lives at level %d, not %d" % (x.field.n, m))
    if m > n:
        raise ValueError("embed needs m <= n, got m=%d > n=%d" % (m, n))
    stretch = x.field.p ** (n - m)
    return _make(FieldDescriptor(x.field.p, n),
                 tuple((i * stretch, a) for i, a in x.terms), x.den)


def embed_preimage(m: int, n: int, y: CycloElt) -> CycloElt | None:
    """Inverse of `embed` where defined: None if y is not in the level-m subfield's
    dilated coordinate subspace."""
    if y.field.n != n or m > n:
        raise ValueError("bad levels m=%d, n=%d for element at level %d" % (m, n, y.field.n))
    stretch = y.field.p ** (n - m)
    if any(i % stretch for i, _ in y.terms):
        return None
    return _make(FieldDescriptor(y.field.p, m),
                 tuple((i // stretch, a) for i, a in y.terms), y.den)


# ---------------------------------------------------------------------------
# grids of cells: flat Q-coordinates and fixed spaces by Galois descent
#
# A vector over a grid of cells (group-ring coefficients, w-power
# coefficients, matrix entries, ...) is the sparse dict {c*phi + A: v}: cell
# c, coordinate A of a cell of width phi.  Every module that eliminates over
# such a grid flattens through `terms_to_row`, to integer numerators over
# one denominator; `terms_to_vector` and `restrict` are built on it.  A
# space fixed by maps that permute the cells and act semilinearly on each
# one is found orbit by orbit (`fixed_space`), with one elimination on phi
# columns per orbit of cells.

def terms_to_row(terms) -> tuple[dict[int, int], int]:
    """Flatten (cell, `CycloElt`) pairs, all of one field of degree phi, to
    the integer numerators {c*phi + A: numerator} over the lcm of the
    cells' denominators, and that lcm.  This is the one flattening loop,
    and its row is the one `linalg.SparseEchelon` eliminates on: no
    `Fraction` is built.  The lcm grows as cells arrive, and the numerators
    already placed are scaled up with it."""
    row: dict[int, int] = {}
    den = 1
    for c, cell in terms:
        base, d, pairs = c * cell.field.degree, cell.den, cell.terms
        if den % d:
            grow = d // gcd(den, d)
            for k in row:
                row[k] *= grow
            den *= grow
        if d == den:
            for A, a in pairs:
                row[base + A] = a
        else:
            f = den // d
            for A, a in pairs:
                row[base + A] = a * f
    return row, den


def terms_to_vector(terms) -> dict[int, Rat]:
    """`terms_to_row(terms)` as exact values: the sparse vector
    {c*phi + A: v}, its entries ints when every cell is integral and
    `Fraction`s otherwise.  This is the view for callers that read or mix
    the values themselves; a row that only goes into an echelon is
    `terms_to_row`'s."""
    row, den = terms_to_row(terms)
    if den == 1:
        return row
    return {k: Fraction(a, den) for k, a in row.items()}


def leading_columns(basis) -> list[int]:
    """The largest column of each `fixed_space` basis vector in the layout
    of `terms_to_vector`: its last cell's last index.  The vector is 1
    there and every other basis vector is 0, so a vector of the span reads,
    on these columns, as its coordinates in the basis."""
    return [c * cell.field.degree + cell.terms[-1][0]
            for c, cell in (vector[-1] for vector in basis)]


def restrict(terms, columns) -> dict[int, int]:
    """`terms_to_row(terms)` at `columns` alone, for (cell, `CycloElt`)
    terms: only the cells that hold a column are flattened, so the integer
    numerators are over the lcm of those cells' denominators."""
    if not terms:
        return {}
    cells = dict(terms)
    phi = terms[0][1].field.degree
    read = sorted({col // phi for col in columns} & cells.keys())
    row, _ = terms_to_row((c, cells[c]) for c in read)
    return {col: row[col] for col in columns if col in row}


def _stabiliser_kernel(stabiliser: tuple, phi: int, m: int, table) -> list[tuple]:
    """Basis of the x in Q(zeta), on phi columns, with zeta^S sigma_U(x) = x
    for every (S, U) in the sorted `stabiliser`, in `kernel_basis`'s order.
    Each vector is (largest column, denominator, [(column, numerator)]).

    The maps x -> zeta^S sigma_U(x) compose as (s, u) o (S, U) =
    (s + u*S, u*U) mod m, and x is fixed by the set exactly when it is
    fixed by the group the set generates.  A walk of that group from (0, 1)
    records one S for each U it meets.  If it meets one U with two values
    S and S', the group holds the rotation x -> zeta^(S - S') x, which
    fixes only 0: the kernel is empty, with no elimination.  The walk meets
    at most phi values of U, so it takes at most phi * |set| integer steps.
    Otherwise U -> zeta^S is a cocycle on the group's image in (Z/m)^*, and
    the kernel, found by elimination, has dimension phi / |image| (Speiser).
    """
    seen = {1: 0}                             # U -> the S met with it
    todo = [(0, 1)]
    for S, U in todo:                         # todo grows
        for s, u in stabiliser:
            S2, U2 = (s + u * S) % m, u * U % m
            known = seen.get(U2)
            if known is None:
                seen[U2] = S2
                todo.append((S2, U2))
            elif known != S2:
                return []
    ech = linalg.SparseEchelon()
    for S, U in stabiliser:
        rows: dict[int, dict[int, int]] = {A: {A: -1} for A in range(phi)}
        for A in range(phi):
            for A2, sign in table[(U * A + S) % m]:
                row = rows[A2]
                row[A] = row.get(A, 0) + sign
        for row in rows.values():
            ech.insert(row)
        if ech.rank == phi:
            break
    kernel = []
    for vec in ech.kernel_basis(phi):
        nums, den = linalg.common_denominator(vec.values())
        kernel.append((max(vec), den, list(zip(vec, nums))))
    return kernel


def fixed_space(field: FieldDescriptor, generators, ncells: int) -> list[tuple]:
    """Q-basis of the vectors over `ncells` cells of Q(zeta) coordinates that
    every generator fixes.

    A generator is a pair (u, moves) with moves[c] = (t, s): it sends x in
    cell c to zeta^s * sigma_u(x) in cell t, where sigma_u is zeta -> zeta^u.
    The targets must permute the cells and u must be a unit mod p^n
    (ValueError otherwise).

    Galois descent (Speiser's lemma): in each orbit of cells, a fixed vector
    is determined by its value x at the orbit's representative, its largest
    cell, and x may be any element fixed by the representative's stabiliser.
    A breadth-first walk records each cell's transport from the
    representative as exponents (S, U), meaning x -> zeta^S * sigma_U(x);
    every edge that closes a cycle gives one stabiliser element, in the same
    form.  Their fixed field is a kernel on phi columns, and each of its
    vectors is spread over the orbit through the transports.

    Before any elimination, `_stabiliser_kernel` walks the group that the
    set generates.  If the group holds a rotation x -> zeta^r x, r != 0,
    which fixes only 0, the kernel is 0 and the orbit adds nothing;
    otherwise it is eliminated and has dimension phi / |U-bar|, U-bar the
    group's units mod p^n (Speiser).

    That kernel depends only on the set of stabiliser elements (and on the
    field), not on the orbit, so it is found once per distinct sorted set
    within a call: an orbit whose set was seen before reuses the kernel
    and spreads it through its own transports.  The returned basis is the one
    a fresh elimination per orbit would give, vector for vector.

    Each basis vector is a tuple of (cell, nonzero `CycloElt`) pairs sorted
    by cell.  Flattened by `terms_to_vector`, the basis is the reduced one
    that `linalg.SparseEchelon.kernel_basis` gives for the rows of every
    (g - id) on all ncells*phi columns, in its order: each vector's largest
    column is 1, the other vectors are 0 there, and the vectors are sorted by
    that column.  All of an orbit's vectors take their largest column in the
    representative, so the small kernel's basis, spread, is already that one.
    """
    m, phi, table = field.modulus, field.degree, field.table
    gens = []
    for u, moves in generators:
        if u % field.p == 0:
            raise ValueError("exponent multiplier %d is not a unit mod %d" % (u, m))
        moves = list(moves)
        # the orbit walk needs bijections
        if len(moves) != ncells or sorted(t for t, _ in moves) != list(range(ncells)):
            raise ValueError("a generator's moves must permute the %d cells" % ncells)
        gens.append((u % m, moves))
    transport: list = [None] * ncells
    found = []
    kernels: dict[tuple, list] = {}           # sorted stabiliser -> its kernel
    for rep in range(ncells - 1, -1, -1):
        if transport[rep] is not None:
            continue
        transport[rep] = (0, 1)
        orbit, stabiliser = [rep], set()
        for c in orbit:                           # breadth first; orbit grows
            S, U = transport[c]
            for u, moves in gens:
                t, s = moves[c]
                S2, U2 = (s + u * S) % m, (u * U) % m
                if transport[t] is None:
                    transport[t] = (S2, U2)
                    orbit.append(t)
                else:
                    # zeta^St sigma_Ut(x) = zeta^S2 sigma_U2(x): x is fixed by
                    # sigma_Ut^-1 after zeta^(S2-St) sigma_U2
                    St, Ut = transport[t]
                    inv = pow(Ut, -1, m)
                    stabiliser.add(((S2 - St) * inv % m, U2 * inv % m))
        stabiliser.discard((0, 1))
        key = tuple(sorted(stabiliser))
        kernel = kernels.get(key)
        if kernel is None:
            kernel = kernels[key] = _stabiliser_kernel(key, phi, m, table)
        if not kernel:
            continue
        orbit.sort()
        for top, den, pairs in kernel:
            terms = []
            for c in orbit:
                S, U = transport[c]
                # zeta^S sigma_U permutes Z[zeta] up to sign: the numerators
                # over den stay in lowest terms
                terms.append((c, _make(field, _transport(field, pairs, U, S), den)))
            found.append((rep * phi + top, tuple(terms)))
    found.sort(key=lambda entry: entry[0])
    return [terms for _, terms in found]
