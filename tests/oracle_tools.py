"""Independent oracles for cross-checking library results.

Everything here goes through sympy (polynomial arithmetic modulo the explicit
minimal polynomial, exact matrices) or direct counting, never through the
library's own reduction/elimination code, so a test comparing the two routes
is a genuine dual computation.  The normal complements are filtered from the
whole lattice of normal subgroups, never through retractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import sympy

from hopfgal.gp_enum import FiniteGroup, _generating_sequence, mulclose

_X = sympy.Symbol("x")


@lru_cache(maxsize=None)
def minimal_poly(p: int, n: int) -> sympy.Poly:
    """1 + x^s + x^(2s) + ... + x^((p-1)s) with s = p^(n-1)."""
    s = p ** (n - 1)
    top = (p - 1) * s
    cs = [1 if (top - k) % s == 0 else 0 for k in range(top + 1)]
    return sympy.Poly(cs, _X, domain="QQ")


def degree(p: int, n: int) -> int:
    return p ** (n - 1) * (p - 1)


def _to_rational(c) -> sympy.Rational:
    if isinstance(c, Fraction):
        return sympy.Rational(c.numerator, c.denominator)
    return sympy.Rational(c)


def vec_to_poly(coeffs) -> sympy.Poly:
    cs = [_to_rational(c) for c in reversed(list(coeffs))]
    return sympy.Poly(cs, _X, domain="QQ")


def poly_to_vec(p: int, n: int, poly: sympy.Poly) -> list[Fraction]:
    rem = poly.rem(minimal_poly(p, n))
    cs = [sympy.Rational(c) for c in reversed(rem.all_coeffs())]
    cs += [sympy.Rational(0)] * (degree(p, n) - len(cs))
    return [Fraction(int(c.p), int(c.q)) for c in cs]


def oracle_cyclo_mul(p: int, n: int, xs, ys) -> list[Fraction]:
    return poly_to_vec(p, n, vec_to_poly(xs) * vec_to_poly(ys))


def oracle_cyclo_inverse(p: int, n: int, xs) -> list[Fraction]:
    inv = sympy.invert(vec_to_poly(xs).as_expr(),
                       minimal_poly(p, n).as_expr(), _X)
    return poly_to_vec(p, n, sympy.Poly(inv, _X, domain="QQ"))


def oracle_zeta_power(p: int, n: int, e: int) -> list[Fraction]:
    e %= p ** n
    return poly_to_vec(p, n, sympy.Poly([1] + [0] * e, _X, domain="QQ"))


@lru_cache(maxsize=None)
def _zeta_power_terms(p: int, n: int, e: int) -> tuple:
    """zeta^e in the power basis as ((index, coefficient), ...), by sympy."""
    return tuple((i, c) for i, c in enumerate(oracle_zeta_power(p, n, e)) if c)


def action_rows(field, u: int, moves) -> list[dict[int, Fraction]]:
    """Sparse rows of (g - id) on the whole grid of cells of Q(zeta)
    coordinates, flat index c*phi + A: the full-grid problem that
    `hopfgal.cyclotomic.fixed_space` solves orbit by orbit.  moves[c] = (t, s)
    says that g sends zeta^A in cell c to zeta^(u*A + s) in cell t; powers of
    zeta are reduced by sympy.  The kernel of the rows is the space fixed by
    g."""
    p, n, phi, m = field.p, field.n, field.degree, field.modulus
    rows: dict[int, dict[int, Fraction]] = {}
    for c, (t, s) in enumerate(moves):
        for A in range(phi):
            src = c * phi + A
            for A2, v in _zeta_power_terms(p, n, (u * A + s) % m):
                row = rows.setdefault(t * phi + A2, {})
                row[src] = row.get(src, 0) + v
            row = rows.setdefault(src, {})
            row[src] = row.get(src, 0) - 1
    return [{c: v for c, v in row.items() if v} for row in rows.values()
            if any(row.values())]


def oracle_idempotent(p: int, n: int, i: int) -> list[list[Fraction]]:
    """Coefficient vector (per group exponent j) of the i-th idempotent:
    (1/p^n) * zeta^(-i j) at sigma^j."""
    go = p ** n
    out = []
    for j in range(go):
        vec = oracle_zeta_power(p, n, (-i * j) % go)
        out.append([Fraction(c, go) for c in vec])
    return out


def oracle_character_sum(p: int, n: int, exps) -> list[Fraction]:
    """sum over e in exps of x^e, reduced modulo the minimal polynomial.
    Exponents are taken mod p^n first, which x^(p^n) == 1 allows."""
    go = p ** n
    counts = [0] * go
    for e in exps:
        counts[e % go] += 1
    return poly_to_vec(p, n, vec_to_poly(counts))


def oracle_unit_apply(p: int, n: int, u: int, coeffs) -> list[Fraction]:
    """The automorphism zeta -> zeta^u on power-basis coefficients: x^i goes
    to x^(i*u), exponents taken mod p^n (x^(p^n) == 1 modulo the minimal
    polynomial), and sympy reduces the result."""
    go = p ** n
    image = [sympy.Rational(0)] * go
    for i, c in enumerate(coeffs):
        image[(i * u) % go] += _to_rational(c)
    return poly_to_vec(p, n, vec_to_poly(image))


def oracle_pairing(p: int, n: int, i: int, k: int) -> Fraction:
    """(1/p^n) * sum_j zeta^((k-i) j), which the root-of-unity geometric sum
    makes the indicator of k == i mod p^n."""
    go = p ** n
    vec = oracle_character_sum(p, n, [(k - i) * j for j in range(go)])
    assert all(c == 0 for c in vec[1:]), "pairing value must be rational"
    return Fraction(vec[0], go)


def to_sympy_matrix(rows) -> sympy.Matrix:
    return sympy.Matrix([[_to_rational(v) for v in row] for row in rows])


def oracle_rank(rows) -> int:
    if not rows:
        return 0
    return to_sympy_matrix(rows).rank()


def oracle_nullity(rows, ncols: int) -> int:
    if not rows:
        return ncols
    return ncols - to_sympy_matrix(rows).rank()


def oracle_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Nonzero rows of the reduced row echelon form, and the pivot columns."""
    red, pivots = to_sympy_matrix(rows).rref()
    return ([[Fraction(int(v.p), int(v.q)) for v in red.row(i)]
             for i in range(len(pivots))], list(pivots))


def oracle_mat_mul(a, b) -> list[list[Fraction]]:
    prod = to_sympy_matrix(a) * to_sympy_matrix(b)
    return [[Fraction(int(v.p), int(v.q)) for v in prod.row(i)]
            for i in range(prod.rows)]


def oracle_multiplicative_order(g: int, modulus: int) -> int:
    return int(sympy.ntheory.n_order(g, modulus))


def oracle_primitive_root(modulus: int) -> int:
    return int(sympy.ntheory.primitive_root(modulus))


# ---------------------------------------------------------------------------
# normal subgroups and normal complements, from the whole lattice


def _normal_closure(gamma: FiniteGroup, seed) -> frozenset:
    conjugates = {seed}
    frontier = [seed]
    while frontier:
        new = []
        for x in frontier:
            for g in gamma.generators:
                y = g * x * g.inverse()
                if y not in conjugates:
                    conjugates.add(y)
                    new.append(y)
        frontier = new
    return frozenset(mulclose(conjugates))


def oracle_normal_subgroups(gamma: FiniteGroup) -> list[frozenset]:
    """All normal subgroups, as element sets.

    Every normal subgroup is the join of the normal closures of its
    elements, so closing the single-element normal closures under join
    is exhaustive.
    """
    ident = gamma.identity()
    found = {frozenset([ident])}
    for x in gamma.elements:
        found.add(_normal_closure(gamma, x))
    worklist = list(found)
    while worklist:
        fresh = []
        for a in list(found):
            for b in worklist:
                if a <= b or b <= a:
                    continue
                join = frozenset(mulclose(a | b))
                if join not in found:
                    found.add(join)
                    fresh.append(join)
        worklist = fresh
    return sorted(found, key=lambda s: (len(s), sorted(p.images for p in s)))


def oracle_normal_complements(gamma: FiniteGroup,
                              delta: FiniteGroup) -> list[FiniteGroup]:
    """Every normal subgroup N with N ∩ delta trivial and N·delta = gamma,
    with the generators and order that `gp_enum.almost_classical` uses."""
    ident = gamma.identity()
    index = gamma.order // delta.order
    out = []
    for nset in oracle_normal_subgroups(gamma):
        if len(nset) != index:
            continue
        if any(x != ident and x in delta for x in nset):
            continue
        products = {a * b for a in nset for b in delta.elements}
        if len(products) != gamma.order:
            raise AssertionError("order count violated by a complement")
        gens = _generating_sequence(sorted(nset))
        out.append(FiniteGroup(gens, nset))
    out.sort(key=lambda g: [p.images for p in g.elements])
    return out
