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

Both element types store only their nonzero coordinates, as sorted
(index, Fraction) terms (`_terms`), and the arithmetic walks those terms:
the basis idempotents and the powers of w have one term each, so
`act(e_i, w^k)` reads one pair instead of p^n.  Their constructors and
`coords` keep the dense form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from ._terms import add, dense, fill, maker, pointwise, sparse, sub
from .cyclotomic import (CycloElt, FieldDescriptor, Rat, add_by_key, embed,
                         embed_preimage, from_exponent_table, from_exponents,
                         leading_columns, parse_rat, rat_str, restrict,
                         terms_to_row)
from .groupring import GroupRingElt, fixed_ring_kernel, new_groupring
from .reporting import Report, checked

_ZERO = Fraction(0)
_ONE = Fraction(1)
_ZERO_STR = rat_str(_ZERO)


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
    go, cells = field.modulus, field.cells
    # cell j is zeta^(-ij) / p^n, never zero, shared by every e_i of the level
    return new_groupring(field, tuple((j, cells[-i * j % go]) for j in range(go)), go)


def dual_pairing(p: int, n: int, i: int, k: int) -> Rat:
    """<e_i, sigma^k> = (1/p^n) sum_j zeta^(-ij) * zeta^(kj), evaluated as the
    full character sum in the cyclotomic field (no Kronecker shortcut): all
    p^n terms are counted in a table by exponent, and the table is folded by
    the relation of Phi_{p^n} (`from_exponent_table`), every entry read."""
    field = FieldDescriptor(p, n)
    go = field.modulus
    sums = [0] * go
    for j in range(go):
        sums[(-i * j + k * j) % go] += 1
    return from_exponent_table(field, sums, go).rational_value()


def h_comul(p: int, n: int, i: int) -> list[tuple[int, int]]:
    go = p ** n
    return [(s, (i - s) % go) for s in range(go)]


def h_counit(p: int, n: int, i: int) -> Rat:
    return Fraction(1 if i % (p ** n) == 0 else 0)


# ---------------------------------------------------------------------------
# elements

def _coords_terms(coords, length: int) -> tuple:
    """The terms of `length` dense coords (ints, Fractions or strings
    `Fraction` accepts); ValueError on a wrong count."""
    coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
    if len(coords) != length:
        raise ValueError("expected %d coordinates" % (length,))
    return sparse(coords)


@dataclass(frozen=True, slots=True, init=False)
class HopfElt:
    """Element of the acting Hopf algebra in idempotent coordinates.

    `terms` is the tuple of (index, value) pairs of the nonzero coordinates,
    sorted by index; no zero is ever stored, so equal elements have equal
    storage and equal hashes.  The constructor takes the p^n dense coords
    (ints, Fractions or strings `Fraction` accepts) and `coords` is the dense
    view.
    """

    p: int
    n: int
    terms: tuple

    def __init__(self, p: int, n: int, coords):
        fill(self, p, n, _coords_terms(coords, p ** n))

    @property
    def coords(self) -> tuple:
        """The dense view: p^n Fractions, zeros included."""
        return tuple(dense(self.terms, self.p ** self.n, _ZERO))

    @classmethod
    def basis_vector(cls, p: int, n: int, i: int) -> "HopfElt":
        return new_hopf(p, n, ((i % p ** n, _ONE),))

    @classmethod
    def unit(cls, p: int, n: int) -> "HopfElt":
        # sum of all idempotents = 1
        return new_hopf(p, n, tuple((i, _ONE) for i in range(p ** n)))

    def __add__(self, other):
        self._check(other)
        return new_hopf(self.p, self.n, add(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return new_hopf(self.p, self.n, sub(self.terms, other.terms))

    def __mul__(self, other):
        # idempotent basis is pointwise-orthogonal, so the product is pointwise
        self._check(other)
        return new_hopf(self.p, self.n, pointwise(self.terms, other.terms))

    def scale(self, c) -> "HopfElt":
        f = Fraction(c)
        return new_hopf(self.p, self.n,
                        tuple((i, f * a) for i, a in self.terms) if f else ())

    def _check(self, other):
        if not isinstance(other, HopfElt) or (self.p, self.n) != (other.p, other.n):
            raise ValueError("mismatched Hopf elements")

    def __bool__(self):
        return bool(self.terms)

    def to_json(self) -> list[str]:
        return dense(self.terms, self.p ** self.n, _ZERO_STR, rat_str)

    @classmethod
    def from_json(cls, p: int, n: int, data) -> "HopfElt":
        """The element whose `to_json` is data, a list of p^n "num/den"
        strings; ValueError on anything else."""
        if not isinstance(data, list):
            raise ValueError("Hopf element JSON must be a list, got %s"
                             % type(data).__name__)
        return cls(p, n, [parse_rat(s) for s in data])


new_hopf = maker(HopfElt)


def hopf_to_groupring(h: HopfElt) -> GroupRingElt:
    """sum_i c_i e_i: the coefficient of sigma^j is (1/p^n) sum_i c_i zeta^(-ij),
    its integer numerators over a common denominator folded once per j.  A
    cell whose sum vanishes is left out."""
    field = FieldDescriptor(h.p, h.n)
    go = field.modulus
    den = lcm(*(c.denominator for _, c in h.terms))
    terms = [(i, c.numerator * (den // c.denominator)) for i, c in h.terms]
    return new_groupring(field, sparse(
        from_exponents(field, ((-i * j, a) for i, a in terms), den * go)
        for j in range(go)), go)


def hopf_from_groupring(x: GroupRingElt) -> HopfElt:
    """Recognize a group-ring element lying in the idempotent span.

    Evaluation against the group basis (the Fourier transform sigma^k ->
    sum_b x_b zeta^(bk)) carries the idempotent span exactly onto rational
    vectors; a non-rational evaluation certifies non-membership.  Each
    evaluation sums numerators over a common denominator in one table of
    p^n exponent sums and folds it once, in closed form
    (`from_exponent_table`).
    """
    field = x.field
    if x.group_order != field.modulus:
        raise ValueError("expected a full-level group ring element")
    go = field.modulus
    den = lcm(*(c.den for _, c in x.terms))
    terms = [(b, A, a * (den // c.den)) for b, c in x.terms for A, a in c.terms]
    out = []
    for k in range(go):
        sums = [0] * go
        for b, A, a in terms:
            sums[(A + b * k) % go] += a
        acc = from_exponent_table(field, sums, den)
        if not acc.is_rational():
            raise ValueError("element is not in the idempotent span "
                             "(evaluation at exponent %d is irrational)" % k)
        if acc:
            out.append((k, acc.rational_value()))
    return new_hopf(field.p, field.n, tuple(out))


@dataclass(frozen=True, slots=True, init=False)
class RadicalElt:
    """Element of K = Q(w), w^(p^n) = a, over the basis 1, w, ..., w^(p^n - 1).

    Stored as `HopfElt` is: `terms` holds the sorted (k, value) pairs of the
    nonzero coefficients of w^k, and `coords` is the dense view.
    """

    p: int
    n: int
    a: Rat
    terms: tuple

    def __init__(self, p: int, n: int, a, coords):
        fill(self, p, n, Fraction(a), _coords_terms(coords, p ** n))

    @property
    def coords(self) -> tuple:
        """The dense view: p^n Fractions, zeros included."""
        return tuple(dense(self.terms, self.p ** self.n, _ZERO))

    @classmethod
    def w_power(cls, p: int, n: int, a, k: int) -> "RadicalElt":
        a = Fraction(a)
        wrap, k = divmod(k, p ** n)
        c = a ** wrap
        return new_radical(p, n, a, ((k, c),) if c else ())

    def _check(self, other):
        if (self.p, self.n, self.a) != (other.p, other.n, other.a):
            raise ValueError("mismatched radical extensions")

    def __add__(self, other):
        self._check(other)
        return new_radical(self.p, self.n, self.a, add(self.terms, other.terms))

    def __sub__(self, other):
        self._check(other)
        return new_radical(self.p, self.n, self.a, sub(self.terms, other.terms))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return new_radical(self.p, self.n, self.a,
                               tuple((k, f * x) for k, x in self.terms) if f else ())
        self._check(other)
        go, a = self.p ** self.n, self.a
        # w^e with e >= p^n wraps into the radicand: w^e = a w^(e - p^n)
        return new_radical(self.p, self.n, a, add((), (
            (j + k, x * y) if j + k < go else (j + k - go, x * y * a)
            for j, x in self.terms for k, y in other.terms)))

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def to_json(self) -> dict:
        return {"radicand": rat_str(self.a),
                "coords": dense(self.terms, self.p ** self.n, _ZERO_STR, rat_str)}


new_radical = maker(RadicalElt)


def act(h: HopfElt, x: RadicalElt) -> RadicalElt:
    """Action on K: the i-th idempotent projects onto the w^i component.

    The result lives on the intersection of the two supports, so only the
    stored terms are read: a basis idempotent on a root power is one lookup.
    """
    if (h.p, h.n) != (x.p, x.n):
        raise ValueError("mismatched levels")
    return new_radical(x.p, x.n, x.a, pointwise(h.terms, x.terms))

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
    """The joint eigenspace {x : e_i(x) = counit(e_i) x for all i} is Q * 1.

    The system has one block of p^n rows per idempotent e_i: block i is the
    matrix of e_i - counit(e_i) on the basis w^0, ..., w^(p^n - 1), and
    column k of it is read off `act(e_i, w^k)`, computed for every (i, k).
    Each column fills its stored nonzero terms into the block's rows in one
    pass; e_i on w^k has one term when i == k and none otherwise.  The
    counit is subtracted on the diagonal only in a block where it is
    nonzero (e_0's); every other block is e_i's matrix as filled.  A zero
    entry is not stored and a row left empty is not passed on, so of the
    p^2n rows only the 2(p^n - 1) nonzero ones reach the elimination.
    """
    a = validate_radicand(p, a)
    go = p ** n

    def body():
        rows = []
        basis = [RadicalElt.w_power(p, n, a, k) for k in range(go)]
        for i in range(go):
            h = HopfElt.basis_vector(p, n, i)
            eps = h_counit(p, n, i)
            block = [{} for _ in range(go)]
            for k, b in enumerate(basis):
                for r, v in act(h, b).terms:
                    block[r][k] = v
            if eps:                   # the counit is 0 but for e_0
                for r, row in enumerate(block):
                    v = row.pop(r, 0) - eps
                    if v:
                        row[r] = v
            rows.extend(filter(None, block))
        kern = linalg.sparse_nullspace(rows, go)
        ok = len(kern) == 1 and set(kern[0]) == {0}
        return ok, {"kernel_dimension": len(kern),
                    "kernel": [dense(v.items(), go, _ZERO_STR, rat_str)
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
    kernel with the idempotent basis (mutual containment at equal rank).

    The dimension report computes the kernel and the span report reads it:
    `checked` runs the first report before the second is built, and it
    either stores the kernel or raises.

    Each idempotent is first checked to lie in the kernel's span.  Its rank
    is then taken on the kernel basis's p^n leading columns alone
    (`leading_columns`), not on all p^n * phi: restricting rows to some
    columns is linear, so it cannot raise their rank, and on the span it is
    one to one, since a vector of the span is its coordinates there.  So
    the restricted rank is the idempotents' rank, and p^n proves it full.

    Both echelons take the integer rows of `terms_to_row` and `restrict`
    without their denominators: a row's scale changes neither a span nor
    a containment."""
    kernel: list = []

    def dimension():
        nonlocal kernel
        kernel = fixed_ring_kernel(p, n)
        if len(kernel) != p ** n:
            return False, {"dimension": len(kernel), "expected": p ** n}
        return True, None

    report_dim = checked("fixed-ring-dimension", {"p": p, "n": n}, dimension)

    def span():
        kernel_span = linalg.SparseEchelon()
        for terms in kernel:
            kernel_span.insert(terms_to_row(terms)[0])
        leads = leading_columns(kernel)
        idem_span = linalg.SparseEchelon()
        for i in range(p ** n):
            terms = e_basis(p, n, i).terms
            if not kernel_span.contains(terms_to_row(terms)[0]):
                return False, {"stage": "idempotent-outside-kernel", "i": i}
            idem_span.insert(restrict(terms, leads))
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
    each c_i lying in the level-m subfield.  Returns (coefficients, verified).

    c_i is a root of unity, so c_i e_i is e_i with every cell shifted by
    i p^(n-m); the p^2n shifted cells are summed by group exponent in one
    `add_by_key`, and the sum must equal sigma^(p^(n-m)) exactly."""
    if not (1 <= m < n):
        raise ValueError("need 1 <= m < n, got m=%d, n=%d" % (m, n))
    field = FieldDescriptor(p, n)
    go = field.modulus
    step = p ** (n - m)
    cs = [CycloElt.zeta_power(field, i * step) for i in range(go)]
    shifted = ((j, cell.shift(i * step))
               for i in range(go) for j, cell in e_basis(p, n, i).terms)
    acc = new_groupring(field, add_by_key(field, shifted), go)
    ok = acc == GroupRingElt.sigma_power(field, step)
    ok = ok and all(embed_preimage(m, n, c) is not None for c in cs)
    # round-trip: the contracted coefficients dilate back to the originals
    ok = ok and all(embed(m, n, embed_preimage(m, n, c)) == c for c in cs)
    return cs, ok
