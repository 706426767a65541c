"""Exact arithmetic in the cyclotomic fields Q(zeta) for zeta a p^n-th root of unity.

Elements are coefficient vectors over the power basis 1, zeta, ..., zeta^(phi-1)
with phi = p^(n-1)(p-1), reduced with the relation

    zeta^phi = -(1 + zeta^s + zeta^(2s) + ... + zeta^((p-2)s)),   s = p^(n-1),

i.e. the minimal polynomial x^phi + x^((p-2)s) + ... + x^s + 1.  All
coefficients are `fractions.Fraction`; nothing here is approximate.

The same fixed multiplier (the smallest primitive root mod p^2, which is a
primitive root mod every p^k for odd p) drives the Galois action at every
level, so towers of these fields share one generator convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg

Rat = Fraction


def rat_str(x: Rat | int) -> str:
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)

def parse_rat(s: str) -> Rat:
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    f = 2
    while f * f <= m:
        if m % f == 0:
            return False
        f += 1
    return True


def multiplicative_order(g: int, modulus: int) -> int:
    if modulus <= 1 or g % modulus == 0:
        raise ValueError("order undefined for g=%d mod %d" % (g, modulus))
    k, acc = 1, g % modulus
    while acc != 1:
        acc = (acc * g) % modulus
        k += 1
        if k > modulus:
            raise ValueError("%d is not a unit mod %d" % (g, modulus))
    return k

@lru_cache(maxsize=None)
def primitive_root(p: int) -> int:
    """Smallest primitive root mod p^2 (hence mod p^k for all k, p an odd prime)."""
    if not is_prime(p) or p == 2:
        raise ValueError("need an odd prime, got %d" % p)
    target = p * (p - 1)
    for g in range(2, p * p):
        if g % p and multiplicative_order(g, p * p) == target:
            return g
    raise AssertionError("no primitive root found mod %d" % (p * p))


@dataclass(frozen=True)
class FieldDescriptor:
    """The field Q(zeta) with zeta a primitive p^n-th root of unity."""
    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError("p must be an odd prime, got %r" % (self.p,))
        if self.n < 1:
            raise ValueError("n must be >= 1, got %r" % (self.n,))

    @property
    def modulus(self) -> int:          # order of zeta
        return self.p ** self.n

    @property
    def degree(self) -> int:           # phi(p^n) = [Q(zeta) : Q]
        return self.p ** (self.n - 1) * (self.p - 1)

    @property
    def multiplier(self) -> int:       # generator of the Galois action on exponents
        return primitive_root(self.p)


def _exp_terms(field: FieldDescriptor, e: int) -> dict[int, int]:
    """zeta^e as {basis index: +/-1} after reduction to the power basis."""
    e %= field.modulus
    if e < field.degree:
        return {e: 1}
    d = e - field.degree                      # < p^(n-1)
    s = field.modulus // field.p              # p^(n-1)
    return {k * s + d: -1 for k in range(field.p - 1)}


_ZERO_CACHE: dict = {}            # FieldDescriptor -> the canonical zero element


class CycloElt:
    """An element of Q(zeta), stored as its power-basis coefficient vector."""

    __slots__ = ("field", "coeffs", "nonzero")

    def __init__(self, field: FieldDescriptor, coeffs):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if len(coeffs) != field.degree:
            raise ValueError("expected %d coefficients, got %d" % (field.degree, len(coeffs)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "nonzero", any(coeffs))

    def __setattr__(self, *a):
        raise AttributeError("CycloElt is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: FieldDescriptor) -> "CycloElt":
        elt = _ZERO_CACHE.get(field)
        if elt is None:
            elt = cls(field, [0] * field.degree)
            _ZERO_CACHE[field] = elt
        return elt

    @classmethod
    def one(cls, field: FieldDescriptor) -> "CycloElt":
        return cls.rational(field, 1)

    @classmethod
    def rational(cls, field: FieldDescriptor, x) -> "CycloElt":
        v = [Fraction(0)] * field.degree
        v[0] = Fraction(x)
        return cls(field, v)

    @classmethod
    def zeta_power(cls, field: FieldDescriptor, e: int) -> "CycloElt":
        v = [Fraction(0)] * field.degree
        for i, c in _exp_terms(field, e).items():
            v[i] += c
        return cls(field, v)

    # -- ring structure ------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, CycloElt):
            if other.field != self.field:
                raise ValueError("field mismatch: %r vs %r" % (self.field, other.field))
            return other
        if isinstance(other, (int, Fraction)):
            return CycloElt.rational(self.field, other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not self.nonzero:
            return o
        if not o.nonzero:
            return self
        return CycloElt(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycloElt(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CycloElt(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycloElt(self.field, [a * f for a in self.coeffs])
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return CycloElt(self.field, [a / f for a in self.coeffs])
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return mul(self, inverse(o))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        return (isinstance(other, CycloElt)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return self.nonzero

    def __repr__(self):
        return "CycloElt(p=%d, n=%d, %s)" % (
            self.field.p, self.field.n, [str(c) for c in self.coeffs])

    # -- predicates ----------------------------------------------------------

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Rat:
        if not self.is_rational():
            raise ValueError("element is not rational: %r" % (self,))
        return self.coeffs[0]

    def shift(self, e: int) -> "CycloElt":
        """Multiply by zeta^e (monomial fast path)."""
        if not self.nonzero or e % self.field.modulus == 0:
            return self
        v = [Fraction(0)] * self.field.degree
        for i, c in enumerate(self.coeffs):
            if c:
                for j, s in _exp_terms(self.field, i + e).items():
                    v[j] += c * s
        return CycloElt(self.field, v)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field: FieldDescriptor, data) -> "CycloElt":
        return cls(field, [parse_rat(s) for s in data])


def reduce_terms(field: FieldDescriptor, terms: dict[int, Rat]) -> CycloElt:
    """Canonical form of a formal sum  sum_e terms[e] * zeta^e  (e arbitrary ints)."""
    v = [Fraction(0)] * field.degree
    for e, c in terms.items():
        if not c:
            continue
        for i, s in _exp_terms(field, e).items():
            v[i] += c * s
    return CycloElt(field, v)


def mul(x: CycloElt, y: CycloElt) -> CycloElt:
    if x.field != y.field:
        raise ValueError("field mismatch")
    if not x or not y:
        return CycloElt.zero(x.field)
    terms: dict[int, Fraction] = {}
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if not b:
                continue
            terms[i + j] = terms.get(i + j, Fraction(0)) + a * b
    return reduce_terms(x.field, terms)


def inverse(x: CycloElt) -> CycloElt:
    """Field inverse: solve (mult-by-x) * v = 1 through the echelon of the
    system augmented by the right-hand side as column phi."""
    if not x:
        raise ZeroDivisionError("inverse of zero cyclotomic element")
    deg = x.field.degree
    cols = [mul(x, CycloElt.zeta_power(x.field, i)).coeffs for i in range(deg)]
    ech = linalg.SparseEchelon()
    for i in range(deg):
        row = {j: col[i] for j, col in enumerate(cols) if col[i]}
        if i == 0:
            row[deg] = Fraction(1)
        ech.insert(row)
    if ech.pivot_columns() != list(range(deg)):
        raise ValueError("multiplication by %r is not invertible" % (x,))
    return CycloElt(x.field, [ech.pivot_rows[j].get(deg, 0) for j in range(deg)])


def delta_apply(e: int, x: CycloElt) -> CycloElt:
    """The Galois generator to the e-th power: zeta -> zeta^(multiplier^e)."""
    field = x.field
    u = pow(field.multiplier, e % field.degree, field.modulus)
    return unit_apply(u, x)


def unit_apply(u: int, x: CycloElt) -> CycloElt:
    """The automorphism zeta -> zeta^u for u a unit mod p^n."""
    field = x.field
    if u % field.p == 0:
        raise ValueError("exponent multiplier %d is not a unit mod %d" % (u, field.modulus))
    terms: dict[int, Fraction] = {}
    for i, c in enumerate(x.coeffs):
        if c:
            e = (i * u) % field.modulus
            terms[e] = terms.get(e, Fraction(0)) + c
    return reduce_terms(field, terms)


def embed(m: int, n: int, x: CycloElt) -> CycloElt:
    """Q(zeta_{p^m}) -> Q(zeta_{p^n}) for m <= n, zeta_m -> zeta_n^(p^(n-m)).

    On power-basis indices this is pure dilation by p^(n-m); no reduction
    can occur because the largest dilated index is phi(p^n) - p^(n-m).
    """
    if x.field.n != m:
        raise ValueError("element lives at level %d, not %d" % (x.field.n, m))
    if m > n:
        raise ValueError("embed needs m <= n, got m=%d > n=%d" % (m, n))
    tgt = FieldDescriptor(x.field.p, n)
    stretch = x.field.p ** (n - m)
    v = [Fraction(0)] * tgt.degree
    for i, c in enumerate(x.coeffs):
        v[i * stretch] = c
    return CycloElt(tgt, v)


def embed_preimage(m: int, n: int, y: CycloElt) -> CycloElt | None:
    """Inverse of `embed` where defined: None if y is not in the level-m subfield's
    dilated coordinate subspace."""
    if y.field.n != n or m > n:
        raise ValueError("bad levels m=%d, n=%d for element at level %d" % (m, n, y.field.n))
    src = FieldDescriptor(y.field.p, m)
    stretch = y.field.p ** (n - m)
    v = [Fraction(0)] * src.degree
    for i, c in enumerate(y.coeffs):
        if not c:
            continue
        if i % stretch:
            return None
        v[i // stretch] = c
    return CycloElt(src, v)


# ---------------------------------------------------------------------------
# grids of cells: flat Q-coordinates and Galois action rows
#
# A vector over a grid of cells (group-ring coefficients, w-power
# coefficients, matrix entries, ...) is the sparse dict {c*phi + A: v}: cell
# c, coordinate A of a cell of width phi.  Every module that eliminates over
# such a grid goes through these three functions.

def cells_to_vector(cells) -> dict[int, Rat]:
    """Flatten cells of one width phi -- `CycloElt`s, or rows of rationals
    such as matrix rows -- to the sparse vector {c*phi + A: v}."""
    out: dict[int, Rat] = {}
    for c, cell in enumerate(cells):
        coeffs = cell.coeffs if isinstance(cell, CycloElt) else cell
        base = c * len(coeffs)
        for A, v in enumerate(coeffs):
            if v:
                out[base + A] = v
    return out


def vector_to_cells(field: FieldDescriptor, vec: dict[int, Rat],
                    ncells: int) -> list[CycloElt]:
    """Inverse of `cells_to_vector` for `ncells` cells of Q(zeta) coordinates."""
    phi = field.degree
    cells = [[Fraction(0)] * phi for _ in range(ncells)]
    for idx, v in vec.items():
        c, A = divmod(idx, phi)
        cells[c][A] = v
    return [CycloElt(field, coeffs) for coeffs in cells]


def action_rows(field: FieldDescriptor, u: int,
                moves) -> list[dict[int, int]]:
    """Sparse rows of (g - id) on cells of Q(zeta) coordinates, flat index
    c*phi + A.  moves[c] = (t, s) says that g sends zeta^A in cell c to
    zeta^(u*A + s) in cell t; g is then the semilinear map that acts on each
    cell by zeta -> zeta^u and moves it to its target.  The kernel of the
    rows is the space fixed by g."""
    phi = field.degree
    rows: dict[int, dict[int, int]] = {}
    for c, (t, s) in enumerate(moves):
        for A in range(phi):
            src = c * phi + A
            for A2, sign in _exp_terms(field, u * A + s).items():
                row = rows.setdefault(t * phi + A2, {})
                row[src] = row.get(src, 0) + sign
            row = rows.setdefault(src, {})
            row[src] = row.get(src, 0) - 1
    return [{c: v for c, v in row.items() if v} for row in rows.values()
            if any(row.values())]
