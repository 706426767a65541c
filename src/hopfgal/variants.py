"""Hopf-Galois structures over the cyclotomic base field Q(zeta_1).

The Galois closure of the radical extension is Q(zeta, w) with w^{p^n} = a.
Over the base Q(zeta_1) = Q(zeta^{p^{n-1}}) its Galois group is generated by

    sigma : w -> zeta*w,  zeta -> zeta            (order p^n)
    beta  : w -> w,       zeta -> zeta^{pi^{p-1}} (order p^{n-1})

where pi is the fixed primitive root.  This module builds that group, the p
cyclic normal complements of <beta> inside it, their fixed fields, and the
descent Hopf algebras -- fixed rings of twisted group rings -- that act on
Q(zeta_1, w)/Q(zeta_1).  Both are `groupring.twisted_kernel` calls with
width p^n, one copy for a field and p^n for a descent algebra (g the
complement generator), and their elements stay as it returns them: tuples
of (cell, `CycloElt`) terms sorted by cell.  Each descent algebra is
built once per (p, n, i), and its action matrices once per (p, n, i, a),
which the rank, action and distinct-images checks share.  It also provides
the generator-level truncation maps connecting consecutive levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import linalg
from .cyclotomic import (FieldDescriptor, embed, embed_preimage,
                         from_exponent_table, primitive_root, rat_str,
                         terms_to_row)
from .groupring import twisted_kernel
from .reporting import Report, checked


# ---------------------------------------------------------------------------
# the Galois group over Q(zeta_1)

@dataclass(frozen=True, slots=True)
class TowerAut:
    """Automorphism (s, b): w -> zeta^s * w, zeta -> zeta^{pi^{(p-1)b}}.

    s lives mod p^n, b mod p^{n-1}; every automorphism of Q(zeta, w) fixing
    Q(zeta_1) has exactly one such normal form.
    """
    p: int
    n: int
    s: int
    b: int

    def __post_init__(self):
        pn = self.p ** self.n
        object.__setattr__(self, "s", self.s % pn)
        object.__setattr__(self, "b", self.b % (self.p ** (self.n - 1)))

    @classmethod
    def identity(cls, p: int, n: int) -> "TowerAut":
        return cls(p, n, 0, 0)

    @classmethod
    def sigma(cls, p: int, n: int) -> "TowerAut":
        return cls(p, n, 1, 0)

    @classmethod
    def beta(cls, p: int, n: int) -> "TowerAut":
        return cls(p, n, 0, 1)

    def unit(self) -> int:
        """The exponent multiplier on zeta: pi^{(p-1)b} mod p^n."""
        return pow(primitive_root(self.p), (self.p - 1) * self.b, self.p ** self.n)

    def compose(self, other: "TowerAut") -> "TowerAut":
        """self after other (function composition)."""
        if (self.p, self.n) != (other.p, other.n):
            raise ValueError("mismatched levels")
        return TowerAut(self.p, self.n,
                        self.s + other.s * self.unit(), self.b + other.b)

    def inverse(self) -> "TowerAut":
        pn = self.p ** self.n
        uinv = pow(self.unit(), -1, pn)
        return TowerAut(self.p, self.n, -self.s * uinv, -self.b)

    def pow(self, k: int) -> "TowerAut":
        if k < 0:
            return self.inverse().pow(-k)
        acc, base = TowerAut.identity(self.p, self.n), self
        while k:
            if k & 1:
                acc = acc.compose(base)
            base = base.compose(base)
            k >>= 1
        return acc


# ---------------------------------------------------------------------------
# normal complements of <beta>

def complement_generator(p: int, n: int, i: int) -> TowerAut:
    """Generator of the i-th cyclic normal complement: sigma for i = 0,
    sigma^i * beta^{p^{n-2}} for 1 <= i <= p-1."""
    if not 0 <= i < p:
        raise ValueError("complement index out of range: %d" % i)
    if i == 0:
        return TowerAut.sigma(p, n)
    if n < 2:
        raise ValueError("non-trivial complements need level >= 2")
    return TowerAut(p, n, i, p ** (n - 2))


@lru_cache(maxsize=None)
def complement_elements(p: int, n: int, i: int) -> tuple[TowerAut, ...]:
    g = complement_generator(p, n, i)
    out, cur = [], TowerAut.identity(p, n)
    for _ in range(p ** n):
        out.append(cur)
        cur = cur.compose(g)
    if cur != TowerAut.identity(p, n):
        raise AssertionError("complement generator does not have order p^n")
    return tuple(out)


def normal_complements(p: int, n: int) -> list[TowerAut]:
    """The p generators, each verified to generate a cyclic normal complement
    of <beta> of order p^n; the p element sets are verified pairwise distinct."""
    if n < 2:
        raise ValueError("complements are defined for level >= 2")
    pn = p ** n
    ident = TowerAut.identity(p, n)
    beta = TowerAut.beta(p, n)
    sigma = TowerAut.sigma(p, n)
    beta_elems = {beta.pow(j) for j in range(p ** (n - 1))}
    gens, seen = [], []
    for i in range(p):
        g = complement_generator(p, n, i)
        elems = complement_elements(p, n, i)
        eset = frozenset(elems)
        if len(eset) != pn:
            raise AssertionError("complement %d is not of order p^n" % i)
        if eset & beta_elems != {ident}:
            raise AssertionError("complement %d meets <beta>" % i)
        for h in (sigma, beta):
            if h.compose(g).compose(h.inverse()) not in eset:
                raise AssertionError("complement %d is not normal" % i)
        products = {x.compose(d) for x in elems for d in beta_elems}
        if len(products) != pn * p ** (n - 1):
            raise AssertionError("complement %d times <beta> misses elements" % i)
        if any(eset == old for old in seen):
            raise AssertionError("complement %d duplicates an earlier one" % i)
        seen.append(eset)
        gens.append(g)
    return gens


def conjugation_exponent(p: int, n: int, i: int) -> int:
    """m with beta g beta^{-1} = g^m for the i-th complement generator."""
    beta = TowerAut.beta(p, n)
    target = beta.compose(complement_generator(p, n, i)).compose(beta.inverse())
    elems = complement_elements(p, n, i)
    if target not in elems:
        raise AssertionError("conjugate escaped the cyclic complement")
    return elems.index(target)


# ---------------------------------------------------------------------------
# fixed fields (exact kernels on the monomial grid, orbit by orbit)

def fixed_field(p: int, n: int, gens) -> list[tuple]:
    """Q-basis of the subfield fixed by the subgroup the generators produce,
    as (w-power, coefficient) terms: `twisted_kernel` on one copy of
    Q(zeta, w)."""
    return twisted_kernel(p, n, [(g.unit(), g.s, 1) for g in gens], 1, p ** n)


def field_tower_lift(m: int, n: int, terms) -> tuple:
    """Inclusion Q(zeta_m, w_m) -> Q(zeta_n, w_n) on (w-power, coefficient)
    terms: both generators are p^{n-m} powers of the higher ones, so
    coefficients and w-exponents dilate."""
    if not 1 <= m < n:
        raise ValueError("lift needs 1 <= m < n, got m=%d, n=%d" % (m, n))
    return tuple((B * x.field.p ** (n - m), embed(m, n, x)) for B, x in terms)


# ---------------------------------------------------------------------------
# the descent Hopf algebras

def h_variant(p: int, n: int, i: int) -> tuple:
    """Q-basis of the fixed ring (E_i[N_i])^beta, dimension (p-1)p^n over Q.

    The ring is the subspace of the full field-coefficient group ring fixed
    by two maps: the complement generator g acting on coefficients only
    (coefficients in the fixed field), and beta acting on coefficients
    together with conjugation g^k -> g^(m*k), beta g beta^{-1} = g^m, on
    the group index: `twisted_kernel` on p^n copies of Q(zeta, w).  Both
    maps keep the w-power B of a cell k*p^n + B, so every basis element
    holds one w-power.  Built once per (p, n, i): every call returns the
    same tuple.
    """
    if n < 2:
        raise ValueError("descent Hopf algebras need level >= 2")
    return _h_basis(p, n, i)


@lru_cache(maxsize=None)
def _h_basis(p: int, n: int, i: int) -> tuple:
    pn = FieldDescriptor(p, n).modulus
    g = complement_generator(p, n, i)
    kernel = twisted_kernel(
        p, n, [(g.unit(), g.s, 1),
               (TowerAut.beta(p, n).unit(), 0, conjugation_exponent(p, n, i))],
        pn, pn)
    if len(kernel) != (p - 1) * pn:
        raise AssertionError("fixed ring has dimension %d, expected %d"
                             % (len(kernel), (p - 1) * pn))
    return tuple(kernel)


def h_variant_rank_certificate(p: int, n: int, i: int, a=Fraction(2)) -> Report:
    """Q-dimension (p-1)p^n plus closure under multiplication by zeta_1
    certifies the fixed ring as a base-field vector space of rank p^n.  The
    ring does not depend on the radicand `a`."""
    def body():
        basis = h_variant(p, n, i)
        ech = linalg.SparseEchelon()
        for terms in basis:
            ech.insert(terms_to_row(terms)[0])
        if ech.rank != (p - 1) * p ** n:
            return False, {"q_dim": ech.rank}
        # multiplying by zeta_1 = zeta^(p^(n-1)) shifts every coefficient
        step = p ** (n - 1)
        for t, terms in enumerate(basis):
            if not ech.contains(terms_to_row(
                    (c, x.shift(step)) for c, x in terms)[0]):
                return False, {"not_zeta1_closed_at": t}
        return True, None

    return checked("variant-hopf-rank",
                   {"p": p, "n": n, "i": i, "q_dim": (p - 1) * p ** n,
                    "base_rank": p ** n}, body)


# ---------------------------------------------------------------------------
# the action on Q(zeta_1, w) and its verification

def action_matrix(p: int, n: int, i: int, a, terms):
    """Matrix over Q(zeta_1) of the `h_variant` element `terms` on
    Q(zeta_1, w), w^{p^n} = a, columns indexed by w-powers, as its sorted
    nonzero ((row, col), entry) terms; None if some entry leaves that
    subfield (it never should).

    With g^k = (s_k, b_k), the coefficient x of g^k w^B' sends w^B to
    x * zeta^(s_k B) * w^(B'+B), and w^(B'+B) = a * w^(B'+B-p^n) on wrap.
    Entry (r, B) takes its contributions from the one w-power
    B' = (r - B) mod p^n, so all of them wrap or none does.  They are summed
    as one table of p^n integer exponent sums over the lcm of the cells'
    denominators and folded in closed form (`from_exponent_table`); a
    multiplies the entry once, after the fold, when it wraps.
    """
    field = FieldDescriptor(p, n)
    pn = field.modulus
    shifts = [g.s for g in complement_elements(p, n, i)]
    den = lcm(*[x.den for _, x in terms])
    cells_of: dict[int, list] = {}      # w-power B' -> (s_k, numerators)
    for c, x in terms:
        k, B2 = divmod(c, pn)
        f = den // x.den
        cells_of.setdefault(B2, []).append(
            (shifts[k], [(A, v * f) for A, v in x.terms]))
    entries = []
    for B2, cells in cells_of.items():
        for B in range(pn):
            sums = [0] * pn
            for s, pairs in cells:
                e = s * B
                for A, v in pairs:
                    sums[(A + e) % pn] += v
            y = embed_preimage(1, n, from_exponent_table(field, sums, den))
            if y is None:
                return None
            if y:
                entries.append(((B2 + B - pn, B), y * a) if B2 + B >= pn
                               else ((B2 + B, B), y))
    entries.sort()
    return tuple(entries)


@lru_cache(maxsize=None)
def _action_matrices(p: int, n: int, i: int, a) -> tuple[tuple, int | None]:
    """The `action_matrix` of each `h_variant` element in basis order, built
    once per (p, n, i, a), and the basis index of the first one that leaves
    Q(zeta_1), where the matrices stop (None if none does)."""
    mats = []
    for t, terms in enumerate(h_variant(p, n, i)):
        mat = action_matrix(p, n, i, a, terms)
        if mat is None:
            return tuple(mats), t
        mats.append(mat)
    return tuple(mats), None


def _zeta1_multiples(p: int, terms) -> list[list]:
    """zeta_1^j * terms for j < p-1, for (cell, level-1 element) terms, as
    term lists: flattened, a Q-basis of the Q(zeta_1)-line through them."""
    terms = list(terms)
    return [[(c, x.shift(j)) for c, x in terms] for j in range(p - 1)]


def _span_rank(p: int, n: int, a, mats) -> int:
    """Q-rank of the left w^c-multiples, c < p^n, of the action matrices
    `mats`, each on one offset d: the sum of the ranks of the offset blocks
    (`variant_action_check`), each its own elimination.  Block e holds
    w^c M for c = e - d mod p^n, which moves the entry (r, B) of M to
    (B + e mod p^n, B), times a when r + c wraps.  For a != 0 every block
    has the rank of block 0, the one eliminated; for a = 0, w is nilpotent
    and each block is eliminated."""
    pn = p ** n
    total = 0
    for e in (range(pn) if a == 0 else (0,)):
        ech = linalg.SparseEchelon()
        for mat in mats:
            if not mat:
                continue
            (r0, B0), _ = mat[0]
            c = (e - r0 + B0) % pn
            line = [(B, y * a if r + c >= pn else y) for (r, B), y in mat]
            for j in range(p - 1):
                ech.insert(terms_to_row((B, y.shift(j)) for B, y in line)[0])
        total += ech.rank
    return total if a == 0 else pn * total


def variant_action_check(p: int, n: int, i: int, a=Fraction(2)) -> Report:
    """The descent Hopf algebra makes Q(zeta_1, w)/Q(zeta_1) Hopf-Galois:
    module endomorphism images span the full p^{2n}-dimensional endomorphism
    ring over the base, and the fixed space of the action is the base field.

    Each action matrix lies on one offset d = (r - B) mod p^n: its element
    holds one w-power (`h_variant`).  Left multiplication by w^c moves
    offset d to d + c, so the span of the w-multiples is the direct sum of
    p^n offset blocks.  For a != 0, w^e maps block 0 onto block e (w is
    invertible, and w^(p^n) = a only rescales rows), so every block has
    the rank of block 0: its (p-1)^2 p^n rows are the only ones eliminated,
    and End is reached exactly when p^n times its rank is (p-1) p^{2n}
    (`_span_rank`).  A matrix on two offsets fails before the span is
    read, with the stage `offset-support`."""
    def body():
        f = FieldDescriptor(p, n)
        pn, phi, step, deg1 = f.modulus, f.degree, p ** (n - 1), p - 1

        # the target subfield as a monomial-support subspace of the closure:
        # only zeta-exponents divisible by p^(n-1) in every w-coefficient
        beta_fixed = [terms_to_row(terms)[0] for terms in
                      fixed_field(p, n, [TowerAut.beta(p, n)])]
        if len(beta_fixed) != deg1 * pn:
            return False, {"stage": "subfield-dimension", "dim": len(beta_fixed)}
        for vec in beta_fixed:
            stray = sorted(k for k in vec if k % phi % step)
            if stray:
                return False, {"stage": "subfield-support", "stray": stray[:4]}

        # action matrices over the base, with entries certified inside it
        mats, bad = _action_matrices(p, n, i, a)
        if bad is not None:
            return False, {"stage": "image-support", "basis_index": bad}

        # counits: h(1), column 0 of the matrix, must be a base-field
        # multiple of 1
        for t, mat in enumerate(mats):
            if any(r and not B for (r, B), _ in mat):
                return False, {"stage": "counit-support", "basis_index": t}

        # every matrix on one offset, as its element holds one w-power
        for t, mat in enumerate(mats):
            if len({(r - B) % pn for (r, B), _ in mat}) > 1:
                return False, {"stage": "offset-support", "basis_index": t}

        # fixed space of the action == the base field (Q-dimension p-1)
        # (column: the monomial zeta_1^j w^B, in the flat layout).  Each h
        # is Q(zeta_1)-linear, so h - eps(h) sends zeta_1^j w^B to zeta_1^j
        # times column B of (M - eps I).  On one offset a row meets one
        # column, so its integer numerators over that column's denominator
        # are a row of the same line
        dimq = deg1 * pn
        ech = linalg.SparseEchelon()
        for mat in mats:
            cells = dict(mat)
            eps = cells.get((0, 0))
            if eps:         # on offset 0: M - eps I is diagonal, and full
                mat = [((B, B), cells[B, B] - eps if (B, B) in cells else -eps)
                       for B in range(pn)]
            for (r, B), y in mat:
                rows: dict[int, dict[int, int]] = {}
                for j in range(deg1):
                    for A, v in y.shift(j).terms:
                        rows.setdefault(r * deg1 + A, {})[B * deg1 + j] = v
                for row in rows.values():
                    ech.insert(row)
        kernel = ech.kernel_basis(dimq)
        base_cols = {j for j in range(deg1)}          # w-power 0 coordinates
        if len(kernel) != deg1:
            return False, {"stage": "fixed-space-dimension", "dim": len(kernel)}
        for vec in kernel:
            if not set(vec) <= base_cols:
                return False, {"stage": "fixed-space-content"}

        # endomorphism span: left w-multiples of the action matrices
        rank, want = _span_rank(p, n, a, mats), deg1 * pn * pn
        if rank != want:
            return False, {"stage": "endomorphism-rank", "rank": rank,
                           "expected": want}
        return True, None

    return checked("variant-action", {"p": p, "n": n, "i": i, "a": rat_str(a)},
                   body)


def distinct_action_images(p: int, n: int, a=Fraction(2)) -> Report:
    """The p Hopf algebras give pairwise different endomorphism-image spans;
    the i = 0 span is exactly the diagonal algebra, matching the level-0
    idempotent action on w-powers.

    Each span is kept as its reduced echelon form, which is unique, so two
    spans coincide exactly when their forms are equal.  The diagonal algebra
    is every matrix supported on the cells B*(p^n+1), the entries (B, B),
    with entries in Q(zeta_1): Q-dimension (p-1)*p^n.  The i = 0 span lies
    inside it when all its echelon rows have that support, and a subspace
    of rank (p-1)*p^n is then all of it.  The matrices are the ones that
    `variant_action_check` reads, built once per (p, n, i, a); an index
    whose matrices leave Q(zeta_1) fails with the stage `image-support`."""
    def body():
        pn = p ** n
        deg1 = p - 1
        spans = []
        for i in range(p):
            mats, bad = _action_matrices(p, n, i, a)
            if bad is not None:
                return False, {"stage": "image-support", "i": i}
            ech = linalg.SparseEchelon()
            for mat in mats:
                for line in _zeta1_multiples(
                        p, ((r * pn + B, y) for (r, B), y in mat)):
                    ech.insert(terms_to_row(line)[0])
            spans.append(dict(ech.pivot_rows))
        for i in range(p):
            for j in range(i + 1, p):
                if spans[i] == spans[j]:
                    return False, {"stage": "coincident-spans", "pair": [i, j]}
        # i = 0 gives the diagonal algebra: e_B acts as the matrix unit E_BB
        if not (all(k // deg1 % (pn + 1) == 0
                    for row in spans[0].values() for k in row)
                and len(spans[0]) == deg1 * pn):
            return False, {"stage": "level-0-not-diagonal"}
        return True, None

    return checked("variant-action", {"p": p, "n": n, "a": rat_str(a),
                                      "check": "distinct-images"}, body)


# ---------------------------------------------------------------------------
# the level-to-level truncation on complements

def variant_nu(n: int, i: int, x: TowerAut) -> TowerAut:
    """Generator assignment between consecutive complements: the level-n
    generator of the i-th complement maps to the level n-1 one, extended
    multiplicatively.  Defined for n >= 3; the sigma-chain (i = 0) also
    makes sense from level 2 down and is allowed there.

    The power k of x = g^k is read from x = (s, b) directly; only k mod
    p^(n-1), the order of the image generator, matters.  The generator
    g = (s1, b1) has s1 = 1 or i, a unit mod p, and a zeta-multiplier that
    is 1 mod p^(n-1), so g^k has s = k*s1 and b = k*b1, both mod p^(n-1).
    So k = s/s1 mod p^(n-1), and the p^n elements of the complement are the
    (s, k*b1), s mod p^n: x lies in it exactly when its b is k*b1."""
    if not (n >= 3 or (n == 2 and i == 0)):
        raise ValueError("truncation of complements needs level >= 3 "
                         "(level 2 only on the i = 0 chain)")
    if x.n != n:
        raise ValueError("element is not at level %d" % n)
    low = x.p ** (n - 1)
    g = complement_generator(x.p, n, i)
    k = x.s * pow(g.s, -1, low) % low
    if x.b != k * g.b % low:
        raise ValueError("element is not in complement %d" % i)
    return complement_generator(x.p, n - 1, i).pow(k)


def variant_nu_check(p: int, n: int) -> Report:
    """The generator assignment is a well-defined surjective homomorphism on
    every complement, matches the sigma-chain for i = 0, and composes down
    the tower on the i = 0 generator."""
    def body():
        if n < 3:
            return False, {"stage": "level", "n": n}
        for i in range(p):
            g_hi = complement_generator(p, n, i)
            g_lo = complement_generator(p, n - 1, i)
            if variant_nu(n, i, g_hi) != g_lo:
                return False, {"stage": "generator", "i": i}
            # well-defined homomorphism: power k maps to power k, and the
            # kernel is exactly the index-p subgroup of top powers
            for k in (0, 1, p, p ** (n - 1), p ** (n - 1) + 1, p ** n - 1):
                if variant_nu(n, i, g_hi.pow(k)) != g_lo.pow(k):
                    return False, {"stage": "power", "i": i, "k": k}
            x, y = g_hi.pow(3), g_hi.pow(p + 1)
            if variant_nu(n, i, x.compose(y)) != \
               variant_nu(n, i, x).compose(variant_nu(n, i, y)):
                return False, {"stage": "homomorphism", "i": i}
            images = {variant_nu(n, i, g_hi.pow(k)) for k in range(p ** n)}
            if len(images) != p ** (n - 1):
                return False, {"stage": "surjectivity", "i": i}
        if variant_nu(n, 0, TowerAut.sigma(p, n)) != TowerAut.sigma(p, n - 1):
            return False, {"stage": "sigma-chain"}
        # composing down the sigma chain: level n -> n-1 -> ... -> 1
        cur: TowerAut = TowerAut.sigma(p, n)
        for lvl in range(n, 1, -1):
            cur = variant_nu(lvl, 0, cur)
        if cur != TowerAut.sigma(p, 1):
            return False, {"stage": "composite"}
        return True, None

    return checked("variant-truncation", {"p": p, "n": n,
                                          "check": "generator-assignment"}, body)


def e_containment_check(p: int, n: int, a=Fraction(2)) -> Report:
    """Containment pattern of fixed fields across consecutive tower levels.

    Only the index-0 chain nests: the level n-1 fixed field of the plain
    root-scaling generator lifts into *every* level-n complement field,
    while the twisted fixed fields (index >= 1) one level down lift into
    none of them.  The field-side containment matrix is cross-checked
    against a group-side certificate: each level-n complement restricts to
    the full root-scaling subgroup one level down (its cyclotomic
    multipliers are trivial there), so it can only fix the index-0 field.
    """
    def body():
        if n < 3:
            return False, {"stage": "level", "n": n}
        echs = []
        for j in range(p):
            ech = linalg.SparseEchelon()
            for terms in fixed_field(p, n, [complement_generator(p, n, j)]):
                ech.insert(terms_to_row(terms)[0])
            echs.append(ech)
        matrix = []
        for i in range(p):
            low = fixed_field(p, n - 1, [complement_generator(p, n - 1, i)])
            if len(low) != (p - 1) * p ** (n - 2):
                return False, {"stage": "low-dimension", "i": i, "dim": len(low)}
            lifts = [terms_to_row(field_tower_lift(n - 1, n, terms))[0]
                     for terms in low]
            matrix.append([all(ech.contains(vec) for vec in lifts)
                           for ech in echs])
        expected = [[i == 0] * p for i in range(p)]
        if matrix != expected:
            return False, {"stage": "containment-pattern", "matrix": matrix}
        sigma_chain = {(k, 0) for k in range(p ** (n - 1))}
        for j in range(p):
            restr = {(g.s % p ** (n - 1), g.b % p ** (n - 2))
                     for g in complement_elements(p, n, j)}
            if restr != sigma_chain:
                return False, {"stage": "restriction", "j": j}
        return True, None

    return checked("variant-truncation", {"p": p, "n": n, "a": rat_str(a),
                                          "check": "fixed-field-containment"},
                   body)


def truncation_reports(p: int, n: int, a=Fraction(2)) -> list[Report]:
    """The truncation checks at level n >= 3: the generator assignment,
    then the fixed-field containment pattern across levels."""
    return [variant_nu_check(p, n), e_containment_check(p, n, a)]


def complements_report(p: int, n: int) -> Report:
    """Wrap the construction-with-verification of the p normal complements."""
    def body():
        try:
            gens = normal_complements(p, n)
        except (AssertionError, ValueError) as exc:
            return False, {"error": str(exc)}
        return len(gens) == p, {"count": len(gens)}

    return checked("variant-complements", {"p": p, "n": n}, body)


def variant_reports(p: int, n: int, a=Fraction(2),
                    i: int | None = None) -> list[Report]:
    """The variants suite at one level, in report order: the complements, the
    rank certificate and action check for every complement index (or only
    `i`), and the distinct-images check when every index ran; then, from
    level 3 on, the truncation checks."""
    out: list[Report] = [complements_report(p, n)]
    for k in (range(p) if i is None else [i]):
        out.append(h_variant_rank_certificate(p, n, k, a))
        out.append(variant_action_check(p, n, k, a))
    if i is None:
        out.append(distinct_action_images(p, n, a))
    if n >= 3:
        out.extend(truncation_reports(p, n, a))
    return out
