"""Group rings Q(zeta)[C] for C a cyclic p-power group, and the diagonal Galois
action whose fixed ring is the object of interest.

An element is a coefficient vector indexed by group exponents 0..group_order-1,
with cyclotomic coefficients.  The coefficient field level and the group order
are independent: truncating the group (see `profinite`) shrinks the group while
the coefficients stay where they are.  The common case is group_order == p^n
with coefficients in Q(zeta_{p^n}).

The diagonal action sends  c * sigma^b  to  (zeta->zeta^u)(c) * sigma^(u*b)
with u = multiplier^e; its fixed ring is computed as the exact kernel of
(action - identity) on the full rational monomial basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .cyclotomic import (CycloElt, FieldDescriptor, Rat, action_rows,
                         parse_rat, rat_str, vector_to_cells)


@dataclass(frozen=True, slots=True)
class GroupRingElt:
    """Element of Q(zeta_{p^n})[C_{group_order}] (group written as sigma-powers)."""

    field: FieldDescriptor
    coeffs: tuple
    group_order: int | None = None

    def __post_init__(self):
        field, coeffs = self.field, tuple(self.coeffs)
        if self.group_order is None:
            object.__setattr__(self, "group_order", field.modulus)
        if len(coeffs) != self.group_order:
            raise ValueError("expected %d coefficients, got %d"
                             % (self.group_order, len(coeffs)))
        for c in coeffs:
            if not isinstance(c, CycloElt) or c.field is not field:
                raise ValueError("coefficients must be CycloElt over %r" % (field,))
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _unchecked(cls, field: FieldDescriptor, coeffs, group_order: int) -> "GroupRingElt":
        """An element from coefficients that library code built over `field`;
        skips the per-coefficient check of the public constructor."""
        x = object.__new__(cls)
        object.__setattr__(x, "field", field)
        object.__setattr__(x, "group_order", group_order)
        object.__setattr__(x, "coeffs", tuple(coeffs))
        return x

    @classmethod
    def zero(cls, field: FieldDescriptor, group_order: int | None = None) -> "GroupRingElt":
        go = field.modulus if group_order is None else group_order
        return cls._unchecked(field, [CycloElt.zero(field)] * go, go)

    @classmethod
    def one(cls, field: FieldDescriptor, group_order: int | None = None) -> "GroupRingElt":
        return cls.sigma_power(field, 0, group_order)

    @classmethod
    def sigma_power(cls, field: FieldDescriptor, b: int,
                    group_order: int | None = None) -> "GroupRingElt":
        go = field.modulus if group_order is None else group_order
        v = [CycloElt.zero(field)] * go
        v[b % go] = CycloElt.one(field)
        return cls._unchecked(field, v, go)

    def _check(self, other: "GroupRingElt"):
        if self.field is not other.field or self.group_order != other.group_order:
            raise ValueError("mismatched group rings")

    def __add__(self, other):
        self._check(other)
        return GroupRingElt._unchecked(
            self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)], self.group_order)

    def __sub__(self, other):
        self._check(other)
        return GroupRingElt._unchecked(
            self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)], self.group_order)

    def __neg__(self):
        return GroupRingElt._unchecked(self.field, [-a for a in self.coeffs], self.group_order)

    def scale(self, c) -> "GroupRingElt":
        """Multiply by a scalar (rational or cyclotomic)."""
        if isinstance(c, (int, Fraction)):
            c = CycloElt.rational(self.field, c)
        return GroupRingElt._unchecked(
            self.field, [c * a if a else a for a in self.coeffs], self.group_order)

    def __bool__(self):
        return any(self.coeffs)

    def to_json(self) -> list[list[str]]:
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, field: FieldDescriptor, data,
                  group_order: int | None = None) -> "GroupRingElt":
        return cls(field, [CycloElt.from_json(field, row) for row in data], group_order)


def diag_action_unit(u: int, x: GroupRingElt) -> GroupRingElt:
    """zeta -> zeta^u on coefficients and sigma^b -> sigma^(u b), u a unit mod p."""
    from .cyclotomic import unit_apply
    if u % x.field.p == 0:
        raise ValueError("%d is not a unit multiplier" % u)
    go = x.group_order
    v = [CycloElt.zero(x.field)] * go
    for b, c in enumerate(x.coeffs):
        if c:
            v[(b * u) % go] = unit_apply(u, c)      # b -> u*b permutes Z/go
    return GroupRingElt._unchecked(x.field, v, go)


def diag_action(e: int, x: GroupRingElt) -> GroupRingElt:
    """e-th power of the diagonal Galois generator."""
    u = pow(x.field.multiplier, e % x.field.degree, x.field.modulus)
    return diag_action_unit(u, x)


# ---------------------------------------------------------------------------
# fixed ring

# Hard cap on the rational dimension of the monomial space we will eliminate over.
FIXED_RING_DIMENSION_CAP = 20000


def fixed_ring_matrix(p: int, n: int) -> tuple[list[dict[int, int]], int]:
    """Sparse rows of (diagonal action - id): cell b holds the coefficient
    of sigma^b, which the generator sends to sigma^(b*pi) under zeta -> zeta^pi."""
    field = FieldDescriptor(p, n)
    go = field.modulus
    dim = field.degree * go
    if dim > FIXED_RING_DIMENSION_CAP:
        raise ValueError("monomial space dimension %d exceeds cap %d"
                         % (dim, FIXED_RING_DIMENSION_CAP))
    pi = field.multiplier
    return action_rows(field, pi, [((b * pi) % go, 0) for b in range(go)]), dim


def fixed_ring(p: int, n: int) -> list[GroupRingElt]:
    """Q-basis of the fixed ring of the diagonal action on Q(zeta)[C_{p^n}].

    Computed as the exact kernel of (action - id); the returned basis has
    exactly p^n elements.
    """
    rows, dim = fixed_ring_matrix(p, n)
    kernel = linalg.sparse_nullspace(rows, dim)
    field = FieldDescriptor(p, n)
    if len(kernel) != field.modulus:
        raise AssertionError("fixed ring dimension %d != %d" % (len(kernel), field.modulus))
    return [GroupRingElt(field, vector_to_cells(field, v, field.modulus)) for v in kernel]
