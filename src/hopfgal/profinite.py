"""Finite truncations of the level tower: the maps that collapse level n to
level n-1, coherent sequences across levels, and the p-adic residue model of
the limit group and its automorphisms.

The truncation map on group rings is the identity on coefficients and reduces
group exponents mod p^i (so its output keeps the level-j coefficient field
while the group shrinks -- `GroupRingElt.group_order` exists for exactly
this).  On idempotent coordinates it keeps every index divisible by p and
kills the rest.  Coherent sequences of idempotent-coordinate elements are the
desk-scale stand-in for the limit algebra; units in the p-adic residue model
act diagonally on everything and fix precisely the idempotent spans.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from . import linalg
from .cyclotomic import (CycloElt, FieldDescriptor, add_by_key, embed,
                         leading_columns, restrict, validate_field)
from .groupring import (GroupRingElt, diag_action, diag_action_unit,
                        fixed_ring_kernel, new_groupring)
from .hopfgalois import (HopfElt, e_basis, hopf_from_groupring, hopf_to_groupring,
                         new_hopf)
from .reporting import Report, checked


def nu_groupring(j: int, i: int, x: GroupRingElt) -> GroupRingElt:
    """Collapse group exponents mod p^i (identity on coefficients); j = source level.
    Cells that meet in one target exponent are summed by one (exact) `add_all`.
    x lives at level j when its field has n = j and its group order is that
    field's `modulus` p^j."""
    field = x.field
    if field.n != j or x.group_order != field.modulus:
        raise ValueError("element does not live at level %d" % j)
    if not (1 <= i < j):
        raise ValueError("need 1 <= target < source, got %d -> %d" % (j, i))
    tgt = field.p ** i
    if len(x.terms) == 1:                     # a monomial: nothing to merge
        (b, c), = x.terms
        return new_groupring(field, ((b % tgt, c),), tgt)
    return new_groupring(field, add_by_key(field, ((b % tgt, c) for b, c in x.terms)), tgt)


def _lift_coefficients(x: GroupRingElt) -> GroupRingElt:
    """x with its coefficients embedded one field level up; the group stays."""
    n = x.field.n
    return new_groupring(FieldDescriptor(x.field.p, n + 1),
                         tuple((b, embed(n, n + 1, c)) for b, c in x.terms), x.group_order)


def nu_h(n: int, h: HopfElt) -> HopfElt:
    """Truncation on idempotent coordinates: index p*i' survives to i', others die."""
    if h.n != n or n < 2:
        raise ValueError("need an element at level n >= 2")
    p = h.p
    return new_hopf(p, n - 1, tuple((i // p, c) for i, c in h.terms if i % p == 0))


def nu_consistency_check(p: int, n: int) -> Report:
    """`nu_h` agrees with the group-ring truncation on every idempotent expansion."""
    def body():
        go = p ** n
        for i in range(go):
            via_gr = nu_groupring(n, n - 1, e_basis(p, n, i))
            down = nu_h(n, HopfElt.basis_vector(p, n, i))
            if via_gr != _lift_coefficients(hopf_to_groupring(down)):
                return False, {"index": i}
        return True, None

    return checked("truncation-compat", {"p": p, "n": n}, body)


def commute_square_check(p: int, jn: int, i: int) -> Report:
    """Diagonal action and truncation commute on the full monomial basis at level jn.
    delta(nu(x)) is reused from the last x of the same zeta^a and b mod p^i whose
    nu(x) is == this one's: delta is a function, so a fresh call gives that value."""
    def body():
        field = FieldDescriptor(p, jn)
        go, tgt = field.modulus, p ** i
        for a in range(field.degree):
            coeff = CycloElt.zeta_power(field, a)
            kept: dict = {}                   # b mod p^i -> (nu(x), delta(nu(x)))
            for b in range(go):
                x = new_groupring(field, ((b, coeff),), go)  # zeta^a sigma^b
                left = nu_groupring(jn, i, diag_action(x))
                down = nu_groupring(jn, i, x)
                last = kept.get(b % tgt)
                if last is None or last[0] != down:
                    last = kept[b % tgt] = (down, diag_action(down))
                if left != last[1]:
                    return False, {"zeta_exp": a, "sigma_exp": b}
        return True, None

    return checked("truncation-commutes", {"p": p, "source": jn, "target": i}, body)


# ---------------------------------------------------------------------------
# coherent sequences

@dataclass(frozen=True, slots=True)
class CoherentH:
    """A sequence (h_1, ..., h_L), h_n at level n, with nu_h(h_n) == h_(n-1).
    Its depth L is the number of levels."""
    p: int
    levels: tuple

    def __post_init__(self):
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not levels:
            raise ValueError("expected at least one level")
        for k, h in enumerate(levels, start=1):
            if not isinstance(h, HopfElt) or (h.p, h.n) != (self.p, k):
                raise ValueError("level %d entry mismatched" % k)
        for n in range(2, len(levels) + 1):
            if nu_h(n, levels[n - 1]) != levels[n - 2]:
                raise ValueError("sequence breaks at level %d: truncation of the level-%d "
                                 "entry does not match level %d" % (n, n, n - 1))

    @property
    def L(self) -> int:
        return len(self.levels)

    def to_json(self) -> dict:
        return {"p": self.p, "levels": [h.to_json() for h in self.levels]}

    @classmethod
    def from_json(cls, data) -> "CoherentH":
        """The sequence whose `to_json` is data: an object with an odd prime
        `p` (an int, not a bool) and a list `levels`; ValueError on anything
        else, as `QMatrix.from_json` refuses."""
        if not isinstance(data, dict):
            raise ValueError("coherent sequence JSON must be an object, got %s"
                             % type(data).__name__)
        for key in ("p", "levels"):
            if key not in data:
                raise ValueError("coherent sequence field %r is missing" % key)
        p, levels = data["p"], data["levels"]
        if type(p) is not int:
            raise ValueError("coherent sequence field 'p' must be an integer")
        validate_field(p, 1)
        if not isinstance(levels, list):
            raise ValueError("coherent sequence field 'levels' must be a list")
        return cls(p, [HopfElt.from_json(p, k + 1, row)
                       for k, row in enumerate(levels)])


def generator_sequence(p: int, L: int, i1: int = 1) -> CoherentH:
    """The coherent sequence with level-n entry the idempotent of index i1 * p^(n-1)."""
    return CoherentH(p, [HopfElt.basis_vector(p, n, i1 * p ** (n - 1))
                         for n in range(1, L + 1)])


# ---------------------------------------------------------------------------
# p-adic residue model

@dataclass(frozen=True, slots=True)
class PadicTrunc:
    """Residues (a_1, ..., a_L), a_k mod p^k, with a_k == a_m (mod p^m) for m <= k.

    Unit sequences (residues coprime to p) model automorphism-tower elements
    (values of the cyclotomic character); the rest model limit-group
    exponents.  The depth L and the unit flag are read off the residues.
    """
    p: int
    residues: tuple

    def __post_init__(self):
        residues = tuple(r % self.p ** k for k, r in enumerate(self.residues, start=1))
        object.__setattr__(self, "residues", residues)
        if not residues:
            raise ValueError("expected at least one residue")
        for k in range(1, len(residues)):
            if residues[k] % self.p ** k != residues[k - 1]:
                raise ValueError("residues incompatible at level %d" % (k + 1))

    @property
    def L(self) -> int:
        return len(self.residues)

    @property
    def unit(self) -> bool:
        return self.residues[0] % self.p != 0

    @classmethod
    def from_int(cls, p: int, L: int, value: int) -> "PadicTrunc":
        return cls(p, tuple(value % p ** k for k in range(1, L + 1)))


def _residue_wise(op, x: PadicTrunc, y: PadicTrunc) -> PadicTrunc:
    """op residue by residue; the constructor reduces."""
    if (x.p, x.L) != (y.p, y.L):
        raise ValueError("mismatched truncations")
    return PadicTrunc(x.p, tuple(map(op, x.residues, y.residues)))


def padd(x: PadicTrunc, y: PadicTrunc) -> PadicTrunc:
    return _residue_wise(operator.add, x, y)


def pmul(x: PadicTrunc, y: PadicTrunc) -> PadicTrunc:
    return _residue_wise(operator.mul, x, y)


def delta_inf_action(d: PadicTrunc, c: CoherentH) -> CoherentH:
    """Act by the unit sequence d on every level, through the group-ring expansion.

    The result is validated coherent; for sequences of idempotent-span elements
    the action is the identity level by level (which is the point).
    """
    if not d.unit:
        raise ValueError("action requires a unit sequence")
    if (d.p, d.L) != (c.p, c.L):
        raise ValueError("mismatched truncation data")
    return CoherentH(c.p, [
        hopf_from_groupring(diag_action_unit(u, hopf_to_groupring(h)))
        for u, h in zip(d.residues, c.levels)])


def coherent_sequence_check(p: int, L: int) -> Report:
    """Generator sequences (coherent, or the constructor refuses them)
    survive a JSON round-trip, and a broken sequence is rejected by the
    constructor."""
    def body():
        for i1 in range(1, p):
            c = generator_sequence(p, L, i1)
            if CoherentH.from_json(c.to_json()) != c:
                return False, {"stage": "round-trip", "i1": i1}
        broken = [HopfElt.basis_vector(p, 1, 1), HopfElt.basis_vector(p, 2, 1)]
        try:
            CoherentH(p, broken)
            return False, {"stage": "broken-sequence-accepted"}
        except ValueError:
            pass
        return True, None

    return checked("coherent-sequences", {"p": p, "L": L}, body)


def padic_model_check(p: int, L: int) -> Report:
    """Truncated residue sequences behave like integers (ring-homomorphism
    spot checks), unit detection matches divisibility, and unit sequences fix
    every coherent idempotent-coordinate sequence level by level."""
    def body():
        pl = p ** L
        samples = [0, 1, 2, p - 1, p, p + 1, pl - 1, pl, 2 * pl + 3]
        for x in samples:
            for y in samples:
                if padd(PadicTrunc.from_int(p, L, x),
                        PadicTrunc.from_int(p, L, y)) != \
                        PadicTrunc.from_int(p, L, x + y):
                    return False, {"stage": "addition", "x": x, "y": y}
                if pmul(PadicTrunc.from_int(p, L, x),
                        PadicTrunc.from_int(p, L, y)) != \
                        PadicTrunc.from_int(p, L, x * y):
                    return False, {"stage": "multiplication", "x": x, "y": y}
            fx = PadicTrunc.from_int(p, L, x)
            if fx.residues[0] % p != (x % p):
                return False, {"stage": "residue", "x": x}
            if fx.unit != (x % p != 0):
                return False, {"stage": "unit-flag", "x": x}
        units = [PadicTrunc.from_int(p, L, v) for v in (1, p + 1, p * p - 1)]
        for i1 in {1, p - 1}:
            c = generator_sequence(p, L, i1)
            if delta_inf_action(units[1], c) != c:
                return False, {"stage": "action-not-fixing", "i1": i1,
                               "unit": list(units[1].residues)}
        c = generator_sequence(p, L, 1)
        if delta_inf_action(units[0], c) != c:
            return False, {"stage": "identity-unit-moves"}
        d12 = pmul(units[1], units[2])
        if not d12.unit:
            return False, {"stage": "unit-product-flag"}
        if delta_inf_action(d12, c) != delta_inf_action(
                units[1], delta_inf_action(units[2], c)):
            return False, {"stage": "action-composition"}
        try:
            delta_inf_action(PadicTrunc.from_int(p, L, p), c)
            return False, {"stage": "non-unit-accepted"}
        except ValueError:
            pass
        return True, None

    return checked("padic-model", {"p": p, "L": L}, body)


# ---------------------------------------------------------------------------
# the levelwise fixed-space audit

def fixed_truncation_check(p: int, L: int) -> Report:
    """At each level n <= L: the fixed space of the diagonal action has dimension
    p^n and equals the idempotent span (one inclusion checked directly, the other
    by exact rank), and the truncation maps carry fixed space onto fixed space.

    The rank is taken on the kernel basis's p^n leading columns alone
    (`leading_columns`), not on all p^n * phi.  Restricting rows to some
    columns is linear, so the restricted rank is at most the idempotents'
    rank, which is at most p^n: a restricted rank of p^n proves full rank."""
    def body():
        details = []
        prev_es = None
        for n in range(1, L + 1):
            go = p ** n
            es = [e_basis(p, n, i) for i in range(go)]
            if any(diag_action(e) != e for e in es):
                return False, {"level": n, "problem": "idempotent not fixed"}
            # the kernel comes first: the rank reads its leading columns
            kernel = fixed_ring_kernel(p, n)
            leads = leading_columns(kernel)
            rk = linalg.sparse_rank(restrict(e.terms, leads) for e in es)
            if rk != go or len(kernel) != go:
                return False, {"level": n, "kernel_dim": len(kernel), "span_rank": rk}
            if n >= 2:
                # truncation maps fixed space into fixed space...
                field = FieldDescriptor(p, n)
                for terms in kernel:
                    img = nu_groupring(n, n - 1, new_groupring(field, terms, go))
                    if diag_action(img) != img:
                        return False, {"level": n, "problem": "truncated vector not fixed"}
                # ...and onto it: every lower idempotent is hit
                for i2 in range(p ** (n - 1)):
                    down = nu_groupring(n, n - 1, es[p * i2])
                    if down != _lift_coefficients(prev_es[i2]):
                        return False, {"level": n, "problem": "surjectivity", "index": i2}
            details.append({"level": n, "dimension": go})
            prev_es = es
        return True, details

    return checked("limit-fixed-points", {"p": p, "L": L}, body)
