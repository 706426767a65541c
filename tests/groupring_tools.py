"""Hopf structure maps on group rings and idempotent indices, for tests.

The library needs only the group ring's vector-space structure and the
diagonal action; these maps (product, coproduct into the tensor square,
counit, antipode, and the antipode on idempotent indices) exist so that the
tests can check the Hopf-algebra axioms the paper's construction rests on.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from hopfgal.cyclotomic import CycloElt, FieldDescriptor, from_exponents
from hopfgal.groupring import GroupRingElt


class TensorElt:
    """Element of the tensor square (over the coefficient field), in the normal
    form of a {(exponent, exponent): coefficient} table over basis pairs."""

    __slots__ = ("field", "group_order", "terms")

    def __init__(self, field: FieldDescriptor, terms: dict, group_order: int | None = None):
        go = field.modulus if group_order is None else group_order
        clean = {}
        for (b1, b2), c in terms.items():
            if isinstance(c, (int, Fraction)):
                c = CycloElt.rational(field, c)
            if c:
                clean[(b1 % go, b2 % go)] = c
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "group_order", go)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("TensorElt is immutable")

    def __eq__(self, other):
        return (isinstance(other, TensorElt) and self.field == other.field
                and self.group_order == other.group_order and self.terms == other.terms)

    def __repr__(self):
        return "TensorElt(%r)" % (self.terms,)


def _numerators(x: GroupRingElt) -> tuple[list[tuple[int, list[tuple[int, int]]]], int]:
    """The nonzero cells of x as (b, [(A, numerator), ...]) over one common
    denominator."""
    den = lcm(*(c.den for c in x.coeffs))
    cells = [(b, [(A, a * (den // c.den)) for A, a in c.terms])
             for b, c in enumerate(x.coeffs) if c]
    return cells, den


def gr_mul(x: GroupRingElt, y: GroupRingElt) -> GroupRingElt:
    """Convolution product: output cell b sums the zeta-exponents of
    c1 * c2 over b1 + b2 = b in one integer table, folded once."""
    x._check(y)
    field, go = x.field, x.group_order
    xs, dx = _numerators(x)
    ys, dy = _numerators(y)
    acc = [[0] * (2 * field.degree - 1) for _ in range(go)]
    for b1, t1 in xs:
        for b2, t2 in ys:
            cell = acc[(b1 + b2) % go]
            for A1, a1 in t1:
                for A2, a2 in t2:
                    cell[A1 + A2] += a1 * a2
    return GroupRingElt(field, enumerate(from_exponents(field, enumerate(cell), dx * dy)
                                         for cell in acc), go)


def gr_comul(x: GroupRingElt) -> TensorElt:
    return TensorElt(x.field, {(b, b): c for b, c in enumerate(x.coeffs) if c},
                     x.group_order)


def gr_counit(x: GroupRingElt) -> CycloElt:
    acc = CycloElt.zero(x.field)
    for c in x.coeffs:
        acc = acc + c
    return acc


def gr_antipode(x: GroupRingElt) -> GroupRingElt:
    go = x.group_order
    v = [CycloElt.zero(x.field)] * go
    for b, c in enumerate(x.coeffs):
        v[(-b) % go] = c
    return GroupRingElt(x.field, enumerate(v), go)


def h_antipode(p: int, n: int, i: int) -> int:
    return (-i) % (p ** n)


# -- dense references ---------------------------------------------------------
#
# The library stores only the nonzero cells of a group-ring element.  These
# maps work cell by cell on the dense view `coeffs`, zero cells included, and
# return the list of output cells; the automorphism of a coefficient goes
# through `from_exponents` rather than the library's per-unit image tables.

def dense_add(x: GroupRingElt, y: GroupRingElt) -> list[CycloElt]:
    return [a + b for a, b in zip(x.coeffs, y.coeffs)]


def dense_sub(x: GroupRingElt, y: GroupRingElt) -> list[CycloElt]:
    return [a - b for a, b in zip(x.coeffs, y.coeffs)]


def dense_neg(x: GroupRingElt) -> list[CycloElt]:
    return [-a for a in x.coeffs]


def dense_scale(x: GroupRingElt, c: CycloElt) -> list[CycloElt]:
    return [c * a for a in x.coeffs]


def dense_diag_action_unit(u: int, x: GroupRingElt) -> list[CycloElt]:
    go = x.group_order
    out = [None] * go
    for b, c in enumerate(x.coeffs):
        out[(b * u) % go] = from_exponents(
            x.field, ((A * u, a) for A, a in c.terms), c.den)
    return out


def dense_nu(i: int, x: GroupRingElt) -> list[CycloElt]:
    tgt = x.field.p ** i
    out = [CycloElt.zero(x.field)] * tgt
    for b, c in enumerate(x.coeffs):
        out[b % tgt] = out[b % tgt] + c
    return out
