"""Group rings Q(zeta)[C] for C a cyclic p-power group, the diagonal Galois
action whose fixed ring is the object of interest, and the one builder of
the fixed rings of twisted group rings.

An element stores only its nonzero cells: the (exponent, coefficient) pairs
with exponent in 0..group_order-1, sorted by exponent, with cyclotomic
coefficients.  No zero cell is ever stored, so equal elements have equal
storage; `coeffs` is the dense view, one cell per group exponent.  The term
operations are the shared ones of `_terms`.  The coefficient field level and
the group order are independent: truncating the group (see `profinite`)
shrinks the group while the coefficients stay where they are.  The common
case is group_order == p^n with coefficients in Q(zeta_{p^n}).

The diagonal action sends  c * sigma^b  to  (zeta->zeta^u)(c) * sigma^(u*b)
for a unit u; its generator takes u = multiplier.  It permutes the cells,
as do the automorphisms behind the descent algebras and fixed fields of
`variants`: `twisted_kernel` turns any of them into cell moves, and
`cyclotomic.fixed_space` finds the fixed space one orbit of cells at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._terms import add, canonical, dense, maker, sub
from .cyclotomic import CycloElt, FieldDescriptor, _move, fixed_space


@dataclass(frozen=True, slots=True)
class GroupRingElt:
    """Element of Q(zeta_{p^n})[C_{group_order}] (group written as sigma-powers).

    `terms` is the tuple of (exponent, CycloElt) pairs of the nonzero cells,
    sorted by exponent.  The constructor accepts the pairs in any order and
    drops zero cells, so `GroupRingElt(field, enumerate(cells))` builds an
    element from dense cells; an exponent outside 0..group_order-1 or given
    twice is an error.
    """

    field: FieldDescriptor
    terms: tuple
    group_order: int | None = None

    def __post_init__(self):
        field = self.field
        if self.group_order is None:
            object.__setattr__(self, "group_order", field.modulus)
        go = self.group_order
        cells = {}
        for b, c in self.terms:
            if not isinstance(c, CycloElt) or c.field is not field:
                raise ValueError("coefficients must be CycloElt over %r" % (field,))
            if type(b) is not int or not 0 <= b < go:
                raise ValueError("group exponent %r outside 0..%d" % (b, go - 1))
            if b in cells:
                raise ValueError("group exponent %d given twice" % b)
            cells[b] = c
        object.__setattr__(self, "terms", canonical(cells))

    @property
    def coeffs(self) -> tuple:
        """The dense view: one coefficient per group exponent, zeros included."""
        return tuple(dense(self.terms, self.group_order, CycloElt.zero(self.field)))

    @classmethod
    def zero(cls, field: FieldDescriptor, group_order: int | None = None) -> "GroupRingElt":
        go = field.modulus if group_order is None else group_order
        return new_groupring(field, (), go)

    @classmethod
    def one(cls, field: FieldDescriptor, group_order: int | None = None) -> "GroupRingElt":
        return cls.sigma_power(field, 0, group_order)

    @classmethod
    def sigma_power(cls, field: FieldDescriptor, b: int,
                    group_order: int | None = None) -> "GroupRingElt":
        go = field.modulus if group_order is None else group_order
        return new_groupring(field, ((b % go, CycloElt.one(field)),), go)

    def _check(self, other: "GroupRingElt"):
        if self.field is not other.field or self.group_order != other.group_order:
            raise ValueError("mismatched group rings")

    def __add__(self, other):
        self._check(other)
        return new_groupring(self.field, add(self.terms, other.terms), self.group_order)

    def __sub__(self, other):
        self._check(other)
        return new_groupring(self.field, sub(self.terms, other.terms), self.group_order)

    def __neg__(self):
        return new_groupring(self.field, tuple((b, -c) for b, c in self.terms),
                             self.group_order)

    def scale(self, c) -> "GroupRingElt":
        """Multiply by a scalar (rational or cyclotomic)."""
        if isinstance(c, (int, Fraction)):
            c = CycloElt.rational(self.field, c)
        if not c:
            return GroupRingElt.zero(self.field, self.group_order)
        # a product of nonzero field elements is nonzero: no cell drops out
        return new_groupring(self.field, tuple((b, c * a) for b, a in self.terms),
                             self.group_order)

    def __bool__(self):
        return bool(self.terms)

    def to_json(self) -> list[list[str]]:
        go = self.group_order
        # the zero cell's JSON only when some cell is zero
        zero = CycloElt.zero(self.field).to_json() if len(self.terms) < go else None
        return dense(self.terms, go, zero, CycloElt.to_json)


new_groupring = maker(GroupRingElt)


def diag_action_unit(u: int, x: GroupRingElt) -> GroupRingElt:
    """zeta -> zeta^u on coefficients and sigma^b -> sigma^(u b), u a unit mod p.

    u is checked once per element; each cell then moves by the field's
    tables (`cyclotomic._move`, what `unit_apply` runs after its own check),
    so a root-of-unity cell is one lookup."""
    field = x.field
    if u % field.p == 0:
        raise ValueError("%d is not a unit multiplier" % u)
    go = x.group_order
    if len(x.terms) == 1:                     # a monomial: nothing to sort
        (b, c), = x.terms
        return new_groupring(field, (((b * u) % go, _move(field, c.terms, c.den, u, 0)),),
                             go)
    # b -> u*b permutes Z/go, and an automorphism keeps every cell nonzero
    terms = sorted(((b * u) % go, _move(field, c.terms, c.den, u, 0))
                   for b, c in x.terms)
    return new_groupring(field, tuple(terms), go)


def diag_action(x: GroupRingElt) -> GroupRingElt:
    """The diagonal Galois generator: `diag_action_unit` with the field's
    `multiplier`."""
    return diag_action_unit(x.field.multiplier, x)


# ---------------------------------------------------------------------------
# fixed rings of twisted group rings

def twisted_kernel(p: int, n: int, generators, copies: int,
                   width: int) -> list[tuple]:
    """Q-basis of the part of a twisted group ring that every generator
    fixes, as `fixed_space` basis vectors over copies * width cells.

    Cell k*width + B holds the Q(zeta_{p^n}) coefficient of g^k w^B: k runs
    over `copies` group exponents, B over `width` powers of w (width 1: no
    w; copies 1: a field).  A generator (u, s, twist) is zeta -> zeta^u,
    w -> zeta^s * w, g^k -> g^(twist*k): it sends x in cell k*width + B to
    zeta^(s*B) * sigma_u(x) in cell (twist*k mod copies)*width + B.  Runs
    at any level: sizes are decided where requests enter (`cli`)."""
    return fixed_space(FieldDescriptor(p, n),
                       [(u, [((twist * k) % copies * width + B, s * B)
                             for k in range(copies) for B in range(width)])
                        for u, s, twist in generators],
                       copies * width)


def fixed_ring_kernel(p: int, n: int) -> list[tuple]:
    """The space fixed by the diagonal generator: `twisted_kernel` on the
    p^n group exponents, where zeta -> zeta^pi sends sigma^b to
    sigma^(b*pi)."""
    pi = FieldDescriptor(p, n).multiplier
    return twisted_kernel(p, n, [(pi, 0, pi)], p ** n, 1)
