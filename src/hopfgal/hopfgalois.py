"""The Hopf algebra acting on Q(a^(1/p^n))/Q, in its idempotent basis.

The fixed ring of the diagonal Galois action on Q(zeta)[C_{p^n}] has a
distinguished rational basis of orthogonal idempotents

    e_i = (1/p^n) * sum_j zeta^(-i j) sigma^j ,      i = 0..p^n - 1,

dual to the group basis (the pairing <e_i, sigma^k> evaluates to the Kronecker
delta).  In that basis the algebra acts on the radical extension
K = Q(w), w = a^(1/p^n), by e_i = projection onto the w^i component, and the
comultiplication / counit / antipode take the convolution-dual form

    comul(e_i) = sum_{s+t == i (mod p^n)} e_s (x) e_t,
    counit(e_i) = [i == 0],   antipode(e_i) = e_{-i}.

This module provides the basis, the pairing (computed honestly as a character
sum), elements in idempotent coordinates (`HopfElt`), elements of K
(`RadicalElt`), the action, and the exhaustive structural checks: the
measuring condition, the triviality of the fixed field of K under the action,
and the base-change identity expressing sigma-powers of lower levels as
cyclotomic combinations of the idempotents.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .cyclotomic import (CycloElt, FieldDescriptor, Rat, cells_to_vector, embed,
                         embed_preimage, parse_rat, rat_str)
from .groupring import GroupRingElt
from .reporting import Report, checked


# ---------------------------------------------------------------------------
# radicand validation

def _int_nth_root(x: int, k: int) -> int | None:
    """Exact k-th root of an integer, or None.  Handles negatives for odd k."""
    if x < 0:
        if k % 2 == 0:
            return None
        r = _int_nth_root(-x, k)
        return None if r is None else -r
    if x in (0, 1):
        return x
    lo, hi = 0, 1
    while hi ** k < x:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** k == x else None

def is_pth_power(a: Rat | int, p: int) -> bool:
    f = Fraction(a)
    rn = _int_nth_root(f.numerator, p)
    rd = _int_nth_root(f.denominator, p)
    return rn is not None and rd is not None

def validate_radicand(p: int, a: Rat | int) -> Rat:
    a = Fraction(a)
    if a == 0:
        raise ValueError("radicand must be nonzero")
    if is_pth_power(a, p):
        raise ValueError("radicand %s is a %d-th power; the radical tower degenerates"
                         % (rat_str(a), p))
    return a


# ---------------------------------------------------------------------------
# idempotent basis and dual pairing

def e_basis(p: int, n: int, i: int) -> GroupRingElt:
    """The i-th idempotent (1/p^n) sum_j zeta^(-ij) sigma^j, as a group-ring element."""
    field = FieldDescriptor(p, n)
    go = field.modulus
    unit = Fraction(1, go)
    coeffs = [CycloElt.zeta_power(field, (-i * j) % go) * unit for j in range(go)]
    return GroupRingElt(field, coeffs)


def dual_pairing(p: int, n: int, i: int, k: int) -> Rat:
    """<e_i, sigma^k> = (1/p^n) sum_j zeta^(-ij) * zeta^(kj), evaluated as the
    full character sum in the cyclotomic field (no Kronecker shortcut)."""
    field = FieldDescriptor(p, n)
    go = field.modulus
    acc = CycloElt.zero(field)
    for j in range(go):
        acc = acc + CycloElt.zeta_power(field, (-i * j) % go) * CycloElt.zeta_power(field, (k * j) % go)
    acc = acc * Fraction(1, go)
    return acc.rational_value()


def h_comul(p: int, n: int, i: int) -> list[tuple[int, int]]:
    go = p ** n
    return [(s, (i - s) % go) for s in range(go)]


def h_counit(p: int, n: int, i: int) -> Rat:
    return Fraction(1 if i % (p ** n) == 0 else 0)


def h_antipode(p: int, n: int, i: int) -> int:
    return (-i) % (p ** n)


# ---------------------------------------------------------------------------
# elements

class HopfElt:
    """Element of the acting Hopf algebra in idempotent coordinates."""

    __slots__ = ("p", "n", "coords")

    def __init__(self, p: int, n: int, coords):
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != p ** n:
            raise ValueError("expected %d coordinates" % (p ** n,))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("HopfElt is immutable")

    @classmethod
    def basis_vector(cls, p: int, n: int, i: int) -> "HopfElt":
        v = [Fraction(0)] * p ** n
        v[i % p ** n] = Fraction(1)
        return cls(p, n, v)

    @classmethod
    def unit(cls, p: int, n: int) -> "HopfElt":
        # sum of all idempotents = 1
        return cls(p, n, [Fraction(1)] * p ** n)

    def __add__(self, other):
        self._check(other)
        return HopfElt(self.p, self.n, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return HopfElt(self.p, self.n, [a - b for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other):
        # idempotent basis is pointwise-orthogonal, so the product is pointwise
        self._check(other)
        return HopfElt(self.p, self.n, [a * b for a, b in zip(self.coords, other.coords)])

    def scale(self, c) -> "HopfElt":
        f = Fraction(c)
        return HopfElt(self.p, self.n, [f * a for a in self.coords])

    def _check(self, other):
        if not isinstance(other, HopfElt) or (self.p, self.n) != (other.p, other.n):
            raise ValueError("mismatched Hopf elements")

    def __eq__(self, other):
        return (isinstance(other, HopfElt)
                and (self.p, self.n, self.coords) == (other.p, other.n, other.coords))

    def __hash__(self):
        return hash((self.p, self.n, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return "HopfElt(p=%d, n=%d, %s)" % (self.p, self.n, [str(c) for c in self.coords])

    def to_json(self) -> list[str]:
        return [rat_str(c) for c in self.coords]

    @classmethod
    def from_json(cls, p: int, n: int, data) -> "HopfElt":
        return cls(p, n, [parse_rat(s) for s in data])


def hopf_to_groupring(h: HopfElt) -> GroupRingElt:
    field = FieldDescriptor(h.p, h.n)
    acc = GroupRingElt.zero(field)
    for i, c in enumerate(h.coords):
        if c:
            acc = acc + e_basis(h.p, h.n, i).scale(c)
    return acc


def hopf_from_groupring(x: GroupRingElt) -> HopfElt:
    """Recognize a group-ring element lying in the idempotent span.

    Evaluation against the group basis (the Fourier transform sigma^k ->
    sum_b x_b zeta^(bk)) carries the idempotent span exactly onto rational
    vectors; a non-rational evaluation certifies non-membership.
    """
    field = x.field
    if x.group_order != field.modulus:
        raise ValueError("expected a full-level group ring element")
    go = field.modulus
    coords = []
    for k in range(go):
        acc = CycloElt.zero(field)
        for b, c in enumerate(x.coeffs):
            if c:
                acc = acc + c.shift(b * k)
        if not acc.is_rational():
            raise ValueError("element is not in the idempotent span "
                             "(evaluation at exponent %d is irrational)" % k)
        coords.append(acc.rational_value())
    return HopfElt(field.p, field.n, coords)


class RadicalElt:
    """Element of K = Q(w), w^(p^n) = a, over the basis 1, w, ..., w^(p^n - 1)."""

    __slots__ = ("p", "n", "a", "coords")

    def __init__(self, p: int, n: int, a, coords):
        a = Fraction(a)
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != p ** n:
            raise ValueError("expected %d coordinates" % (p ** n,))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, *a):
        raise AttributeError("RadicalElt is immutable")

    @classmethod
    def w_power(cls, p: int, n: int, a, k: int) -> "RadicalElt":
        go = p ** n
        a = Fraction(a)
        wrap, k = divmod(k, go)
        v = [Fraction(0)] * go
        v[k] = a ** wrap
        return cls(p, n, a, v)

    def _check(self, other):
        if (self.p, self.n, self.a) != (other.p, other.n, other.a):
            raise ValueError("mismatched radical extensions")

    def __add__(self, other):
        self._check(other)
        return RadicalElt(self.p, self.n, self.a,
                          [x + y for x, y in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return RadicalElt(self.p, self.n, self.a,
                          [x - y for x, y in zip(self.coords, other.coords)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return RadicalElt(self.p, self.n, self.a, [f * x for x in self.coords])
        self._check(other)
        go = self.p ** self.n
        acc = [Fraction(0)] * go
        for j, x in enumerate(self.coords):
            if not x:
                continue
            for k, y in enumerate(other.coords):
                if y:
                    wrap, e = divmod(j + k, go)
                    acc[e] += x * y * self.a ** wrap
        return RadicalElt(self.p, self.n, self.a, acc)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, RadicalElt) and
                (self.p, self.n, self.a, self.coords)
                == (other.p, other.n, other.a, other.coords))

    def __hash__(self):
        return hash((self.p, self.n, self.a, self.coords))

    def __bool__(self):
        return any(self.coords)

    def __repr__(self):
        return "RadicalElt(p=%d, n=%d, a=%s, %s)" % (
            self.p, self.n, self.a, [str(c) for c in self.coords])

    def to_json(self) -> dict:
        return {"radicand": rat_str(self.a), "coords": [rat_str(c) for c in self.coords]}

    @classmethod
    def from_json(cls, p: int, n: int, data) -> "RadicalElt":
        return cls(p, n, parse_rat(data["radicand"]),
                   [parse_rat(s) for s in data["coords"]])


def act(h: HopfElt, x: RadicalElt) -> RadicalElt:
    """Action on K: the i-th idempotent projects onto the w^i component."""
    if (h.p, h.n) != (x.p, x.n):
        raise ValueError("mismatched levels")
    return RadicalElt(x.p, x.n, x.a, [h.coords[k] * x.coords[k] for k in range(x.p ** x.n)])


# ---------------------------------------------------------------------------
# structural checks

def measuring_check(p: int, n: int, a) -> Report:
    """Exhaustively verify  e_i(xy) = sum_{s+t==i} e_s(x) e_t(y)  on basis pairs."""
    a = validate_radicand(p, a)
    go = p ** n

    def body():
        basis = [RadicalElt.w_power(p, n, a, k) for k in range(go)]
        es = [HopfElt.basis_vector(p, n, i) for i in range(go)]
        for i in range(go):
            pairs = h_comul(p, n, i)
            for j in range(go):
                for k in range(go):
                    lhs = act(es[i], basis[j] * basis[k])
                    rhs = RadicalElt(p, n, a, [0] * go)
                    for (s, t) in pairs:
                        rhs = rhs + act(es[s], basis[j]) * act(es[t], basis[k])
                    if lhs != rhs:
                        return False, {"i": i, "j": j, "k": k,
                                       "lhs": lhs.to_json(), "rhs": rhs.to_json()}
        return True, None

    return checked("measuring", {"p": p, "n": n, "a": rat_str(a)}, body)


def fixed_field_check(p: int, n: int, a) -> Report:
    """The joint eigenspace {x : e_i(x) = counit(e_i) x for all i} is Q * 1."""
    a = validate_radicand(p, a)
    go = p ** n

    def body():
        rows = []
        basis = [RadicalElt.w_power(p, n, a, k) for k in range(go)]
        for i in range(go):
            h = HopfElt.basis_vector(p, n, i)
            eps = h_counit(p, n, i)
            cols = [act(h, b).coords for b in basis]
            for r in range(go):
                row = {k: col[r] for k, col in enumerate(cols) if col[r]}
                row[r] = row.get(r, 0) - eps
                rows.append(row)
        kern = linalg.sparse_nullspace(rows, go)
        ok = len(kern) == 1 and set(kern[0]) == {0}
        return ok, {"kernel_dimension": len(kern),
                    "kernel": [[rat_str(v.get(c, 0)) for c in range(go)]
                               for v in kern]}

    return checked("fixed-field", {"p": p, "n": n, "a": rat_str(a)}, body)


def dual_pairing_report(p: int, n: int) -> Report:
    """The pairing matrix <e_i, sigma^k> is exactly the identity."""
    def body():
        go = p ** n
        for i in range(go):
            for k in range(go):
                value = dual_pairing(p, n, i, k)
                if value != (1 if i == k else 0):
                    return False, {"i": i, "k": k, "value": rat_str(value)}
        return True, None

    return checked("dual-pairing-identity", {"p": p, "n": n}, body)


def fixed_ring_reports(p: int, n: int) -> list[Report]:
    """Kernel dimension of (diagonal action - id), then span equality of the
    kernel with the idempotent basis (mutual containment at equal rank)."""
    from .groupring import fixed_ring_matrix
    state: dict = {}

    def dimension():
        rows, dim = fixed_ring_matrix(p, n)
        kernel = linalg.sparse_nullspace(rows, dim)
        state["kernel"] = kernel
        if len(kernel) != p ** n:
            return False, {"dimension": len(kernel), "expected": p ** n}
        return True, None

    report_dim = checked("fixed-ring-dimension", {"p": p, "n": n}, dimension)

    def span():
        if "kernel" not in state:
            return False, {"stage": "kernel-not-computed"}
        kernel_span = linalg.SparseEchelon()
        for vec in state["kernel"]:
            kernel_span.insert(vec)
        idem_span = linalg.SparseEchelon()
        for i in range(p ** n):
            vec = cells_to_vector(e_basis(p, n, i).coeffs)
            if not kernel_span.contains(vec):
                return False, {"stage": "idempotent-outside-kernel", "i": i}
            idem_span.insert(vec)
        if idem_span.rank != kernel_span.rank:
            return False, {"stage": "rank-mismatch",
                           "kernel_rank": kernel_span.rank,
                           "idempotent_rank": idem_span.rank}
        return True, None

    report_span = checked("fixed-ring-span", {"p": p, "n": n}, span)
    return [report_dim, report_span]


def base_change_report(p: int, n: int, m: int) -> Report:
    """Sum of zeta^(i p^(n-m)) e_i equals sigma^(p^(n-m)), with level-m
    coefficients."""
    def body():
        _, ok = base_change_sigma(p, n, m)
        return ok, None if ok else {"stage": "identity-or-subfield"}

    return checked("base-change", {"p": p, "n": n, "m": m}, body)


def base_change_sigma(p: int, n: int, m: int) -> tuple[list[CycloElt], bool]:
    """Coefficients c_i = zeta^(i p^(n-m)) with  sum_i c_i e_i = sigma^(p^(n-m)),
    each c_i lying in the level-m subfield.  Returns (coefficients, verified)."""
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n, got m=%d, n=%d" % (m, n))
    field = FieldDescriptor(p, n)
    go = field.modulus
    step = p ** (n - m)
    cs = [CycloElt.zeta_power(field, (i * step) % go) for i in range(go)]
    acc = GroupRingElt.zero(field)
    for i, c in enumerate(cs):
        acc = acc + e_basis(p, n, i).scale(c)
    ok = acc == GroupRingElt.sigma_power(field, step)
    ok = ok and all(embed_preimage(m, n, c) is not None for c in cs)
    # round-trip: the contracted coefficients dilate back to the originals
    ok = ok and all(embed(m, n, embed_preimage(m, n, c)) == c for c in cs)
    return cs, ok
