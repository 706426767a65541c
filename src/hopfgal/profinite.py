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

from dataclasses import dataclass

from . import linalg
from .cyclotomic import CycloElt, FieldDescriptor, cells_to_vector, embed
from .groupring import GroupRingElt, diag_action, diag_action_unit, fixed_ring
from .hopfgalois import HopfElt, e_basis, hopf_from_groupring, hopf_to_groupring
from .reporting import Report, checked


def nu_groupring(j: int, i: int, x: GroupRingElt) -> GroupRingElt:
    """Collapse group exponents mod p^i (identity on coefficients); j = source level."""
    if x.field.n != j or x.group_order != x.field.p ** j:
        raise ValueError("element does not live at level %d" % j)
    if not (1 <= i < j):
        raise ValueError("need 1 <= target < source, got %d -> %d" % (j, i))
    tgt = x.field.p ** i
    acc = [CycloElt.zero(x.field) for _ in range(tgt)]
    for b, c in enumerate(x.coeffs):
        if c:
            acc[b % tgt] = acc[b % tgt] + c
    return GroupRingElt(x.field, acc, tgt)


def nu_h(n: int, h: HopfElt) -> HopfElt:
    """Truncation on idempotent coordinates: index p*i' survives to i', others die."""
    if h.n != n or n < 2:
        raise ValueError("need an element at level n >= 2")
    p = h.p
    return HopfElt(p, n - 1, [h.coords[p * k] for k in range(p ** (n - 1))])


def nu_consistency_check(p: int, n: int) -> Report:
    """`nu_h` agrees with the group-ring truncation on every idempotent expansion."""
    def body():
        go = p ** n
        for i in range(go):
            via_gr = nu_groupring(n, n - 1, e_basis(p, n, i))
            down = nu_h(n, HopfElt.basis_vector(p, n, i))
            expand = hopf_to_groupring(down)
            lifted = GroupRingElt(
                FieldDescriptor(p, n),
                [embed(n - 1, n, c) for c in expand.coeffs],
                p ** (n - 1))
            if via_gr != lifted:
                return False, {"index": i}
        return True, None

    return checked("truncation-compat", {"p": p, "n": n}, body)


def commute_square_check(p: int, jn: int, i: int) -> Report:
    """Diagonal action and truncation commute on the full monomial basis at level jn."""
    def body():
        field = FieldDescriptor(p, jn)
        go = field.modulus
        for a in range(field.degree):
            coeff = CycloElt.zeta_power(field, a)
            for b in range(go):
                x = GroupRingElt.sigma_power(field, b).scale(coeff)
                left = nu_groupring(jn, i, diag_action(1, x))
                right = diag_action(1, nu_groupring(jn, i, x))
                if left != right:
                    return False, {"zeta_exp": a, "sigma_exp": b}
        return True, None

    return checked("truncation-commutes", {"p": p, "source": jn, "target": i}, body)


# ---------------------------------------------------------------------------
# coherent sequences

@dataclass(frozen=True)
class CoherentH:
    """A sequence (h_1, ..., h_L), h_n at level n, with nu_h(h_n) == h_(n-1)."""
    p: int
    L: int
    levels: tuple

    def __post_init__(self):
        if self.L != len(self.levels) or self.L < 1:
            raise ValueError("expected %d levels" % self.L)
        for k, h in enumerate(self.levels, start=1):
            if not isinstance(h, HopfElt) or (h.p, h.n) != (self.p, k):
                raise ValueError("level %d entry mismatched" % k)

    def to_json(self) -> dict:
        return {"p": self.p, "L": self.L, "levels": [h.to_json() for h in self.levels]}

    @classmethod
    def from_json(cls, data) -> "CoherentH":
        p, L = data["p"], data["L"]
        levels = tuple(HopfElt.from_json(p, k + 1, row)
                       for k, row in enumerate(data["levels"]))
        return make_coherent(p, L, levels)


def make_coherent(p: int, L: int, levels) -> CoherentH:
    levels = tuple(levels)
    for n in range(2, L + 1):
        if nu_h(n, levels[n - 1]) != levels[n - 2]:
            raise ValueError("sequence breaks at level %d: truncation of the level-%d "
                             "entry does not match level %d" % (n, n, n - 1))
    return CoherentH(p, L, levels)


def project(c: CoherentH, n: int) -> HopfElt:
    if not (1 <= n <= c.L):
        raise ValueError("no level %d in a depth-%d sequence" % (n, c.L))
    return c.levels[n - 1]


def generator_sequence(p: int, L: int, i1: int = 1) -> CoherentH:
    """The coherent sequence with level-n entry the idempotent of index i1 * p^(n-1)."""
    return make_coherent(p, L, [HopfElt.basis_vector(p, n, i1 * p ** (n - 1))
                                for n in range(1, L + 1)])


# ---------------------------------------------------------------------------
# p-adic residue model

@dataclass(frozen=True)
class PadicTrunc:
    """Residues (a_1, ..., a_L), a_k mod p^k, with a_k == a_m (mod p^m) for m <= k.

    Unit sequences (residues coprime to p) model automorphism-tower elements
    (values of the cyclotomic character); the rest model limit-group
    exponents.  The flag is derived from the residues; constructing with
    unit=True additionally asserts unitness.
    """
    p: int
    L: int
    residues: tuple
    unit: bool = False

    def __post_init__(self):
        if len(self.residues) != self.L or self.L < 1:
            raise ValueError("expected %d residues" % self.L)
        object.__setattr__(self, "residues",
                           tuple(r % self.p ** (k + 1) for k, r in enumerate(self.residues)))
        for k in range(1, self.L):
            lo, hi = self.residues[k - 1], self.residues[k]
            if hi % self.p ** k != lo:
                raise ValueError("residues incompatible at level %d" % (k + 1))
        if self.unit and any(r % self.p == 0 for r in self.residues):
            raise ValueError("unit flag set but residues are divisible by %d" % self.p)
        object.__setattr__(self, "unit", self.residues[0] % self.p != 0)

    @classmethod
    def from_int(cls, p: int, L: int, value: int, unit: bool = False) -> "PadicTrunc":
        return cls(p, L, tuple(value % p ** k for k in range(1, L + 1)), unit)

    def to_json(self) -> dict:
        return {"p": self.p, "L": self.L, "residues": list(self.residues),
                "unit": self.unit}

    @classmethod
    def from_json(cls, data) -> "PadicTrunc":
        return cls(data["p"], data["L"], tuple(data["residues"]), data["unit"])


def padd(x: PadicTrunc, y: PadicTrunc) -> PadicTrunc:
    if (x.p, x.L) != (y.p, y.L):
        raise ValueError("mismatched truncations")
    res = tuple((a + b) % x.p ** (k + 1) for k, (a, b) in enumerate(zip(x.residues, y.residues)))
    return PadicTrunc(x.p, x.L, res, unit=res[0] % x.p != 0)


def pmul(x: PadicTrunc, y: PadicTrunc) -> PadicTrunc:
    if (x.p, x.L) != (y.p, y.L):
        raise ValueError("mismatched truncations")
    res = tuple((a * b) % x.p ** (k + 1) for k, (a, b) in enumerate(zip(x.residues, y.residues)))
    return PadicTrunc(x.p, x.L, res, unit=res[0] % x.p != 0)


def delta_inf_action(d: PadicTrunc, c: CoherentH) -> CoherentH:
    """Act by the unit sequence d on every level, through the group-ring expansion.

    The result is validated coherent; for sequences of idempotent-span elements
    the action is the identity level by level (which is the point).
    """
    if not d.unit:
        raise ValueError("action requires a unit sequence")
    if (d.p, d.L) != (c.p, c.L):
        raise ValueError("mismatched truncation data")
    out = []
    for n in range(1, c.L + 1):
        u = d.residues[n - 1]
        moved = diag_action_unit(u, hopf_to_groupring(project(c, n)))
        out.append(hopf_from_groupring(moved))
    return make_coherent(c.p, c.L, out)


def coherent_sequence_check(p: int, L: int) -> Report:
    """Generator sequences are coherent, project consistently, survive a JSON
    round-trip, and a broken sequence is rejected by the constructor."""
    def body():
        for i1 in range(1, p):
            c = generator_sequence(p, L, i1)
            for n in range(2, L + 1):
                if nu_h(n, c.levels[n - 1]) != c.levels[n - 2]:
                    return False, {"stage": "compatibility", "i1": i1, "n": n}
            for n in range(1, L + 1):
                if project(c, n) != c.levels[n - 1]:
                    return False, {"stage": "projection", "i1": i1, "n": n}
            if CoherentH.from_json(c.to_json()) != c:
                return False, {"stage": "round-trip", "i1": i1}
        broken = [HopfElt.basis_vector(p, 1, 1), HopfElt.basis_vector(p, 2, 1)]
        try:
            make_coherent(p, 2, broken)
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
            if PadicTrunc.from_int(p, L, x).residues[0] % p != (x % p):
                return False, {"stage": "residue", "x": x}
        units = [PadicTrunc.from_int(p, L, v, unit=True)
                 for v in (1, p + 1, p * p - 1)]
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
    by exact rank), and the truncation maps carry fixed space onto fixed space."""
    def body():
        details = []
        prev_es = None
        for n in range(1, L + 1):
            go = p ** n
            kernel = fixed_ring(p, n)                    # exact kernel; asserts dim
            es = [e_basis(p, n, i) for i in range(go)]
            if any(diag_action(1, e) != e for e in es):
                return False, {"level": n, "problem": "idempotent not fixed"}
            rk = linalg.sparse_rank([cells_to_vector(e.coeffs) for e in es])
            if rk != go or len(kernel) != go:
                return False, {"level": n, "kernel_dim": len(kernel), "span_rank": rk}
            if n >= 2:
                # truncation maps fixed space into fixed space...
                for v in kernel:
                    img = nu_groupring(n, n - 1, v)
                    if diag_action(1, img) != img:
                        return False, {"level": n, "problem": "truncated vector not fixed"}
                # ...and onto it: every lower idempotent is hit
                for i2 in range(p ** (n - 1)):
                    down = nu_groupring(n, n - 1, es[p * i2])
                    lifted = GroupRingElt(
                        FieldDescriptor(p, n),
                        [embed(n - 1, n, cc) for cc in prev_es[i2].coeffs],
                        p ** (n - 1))
                    if down != lifted:
                        return False, {"level": n, "problem": "surjectivity", "index": i2}
            details.append({"level": n, "dimension": go})
            prev_es = es
        return True, details

    return checked("limit-fixed-points", {"p": p, "L": L}, body)
