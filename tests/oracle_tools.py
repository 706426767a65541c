"""Independent oracles for cross-checking library results.

Everything here goes through sympy (polynomial arithmetic modulo the explicit
minimal polynomial, exact matrices) or direct counting, never through the
library's own reduction/elimination code, so a test comparing the two routes
is a genuine dual computation.  The normal complements are filtered from the
whole lattice of normal subgroups, never through retractions.  The regular
normalized subgroups are found by exhaustive search over fixed-point-free
candidates, never through holomorphs or labelings.  The generating pair
and the walk of a group are found with every product composed on all
points, never pruned or keyed by a base.  The census oracles do
share the library's group kernels: `Perm` (its product and inverse),
`mulclose`, `FiniteGroup`, `_generating_sequence` (the generators of each
complement listed), `coset_action` and the catalogue `_models`.  Those
shared parts are checked against `sympy.combinatorics` instead, in
`tests/test_gp_enum.py`: the product, inverse and order of `Perm`, the
closure and the sorted elements of `FiniteGroup`, and the coset action as
a homomorphism.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import sympy
from sympy.combinatorics import Permutation as SymPerm

from hopfgal.gp_enum import (FiniteGroup, Perm, _generating_sequence, _models,
                             coset_action, mulclose)

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
        out.append(FiniteGroup(gens))
    out.sort(key=lambda g: [p.images for p in g.elements])
    return out


# ---------------------------------------------------------------------------
# regular normalized subgroups: fixed-point-free candidates, then the filter

# (candidate kind, degree, ...) -> the candidates of one complete pass
_KEPT_CANDIDATES: dict[tuple, tuple] = {}


def _kept(key: tuple, build):
    """Yield what the generator `build()` yields.  A pass that runs to the
    end is kept under `key`, and later passes read it back in the same order;
    a pass cut short keeps nothing.  The candidates depend on the degree
    alone, never on the action that filters them."""
    kept = _KEPT_CANDIDATES.get(key)
    if kept is not None:
        yield from kept
        return
    items = []
    for item in build():
        items.append(item)
        yield item
    _KEPT_CANDIDATES[key] = tuple(items)


def _full_cycles(size: int):
    """Yield (cycle, set of its powers) for every full cycle on `size` points,
    0 -> tail[0] for each tail in `itertools.permutations` order.  Equal
    powers and equal power sets are yielded as one object, which keeps a
    stored pass small."""
    ident = Perm.identity(size)
    perms: dict = {ident: ident}
    groups: dict = {}
    for tail in itertools.permutations(range(1, size)):
        seq = (0,) + tail
        images = [0] * size
        for k in range(size):
            images[seq[k]] = seq[(k + 1) % size]
        cycle = Perm(tuple(images))
        cycle = perms.setdefault(cycle, cycle)
        powers = [ident]
        cur = cycle
        while cur != ident:
            powers.append(perms.setdefault(cur, cur))
            cur = cur * cycle
        members = frozenset(powers)
        yield cycle, groups.setdefault(members, members)


def _naive_cyclic(size: int, lam_gens) -> set:
    """All regular cyclic subgroups, from fixed-point-free full cycles."""
    found: set[frozenset] = set()
    gen_pairs = [(g, g.inverse()) for g in lam_gens]
    for cycle, members in _kept(("cyclic", size), lambda: _full_cycles(size)):
        if members in found:
            continue
        if all(g * cycle * gi in members for g, gi in gen_pairs):
            found.add(members)
    return found


def _fpf_p_elements(size: int, p: int) -> list[Perm]:
    """Fixed-point-free elements of order p (products of size/p p-cycles)."""
    out: list[Perm] = []
    images = [-1] * size

    def place(remaining: tuple):
        if not remaining:
            out.append(Perm(tuple(images)))
            return
        head = remaining[0]
        rest = remaining[1:]
        for partners in itertools.permutations(rest, p - 1):
            cycle = (head,) + partners
            for k in range(p):
                images[cycle[k]] = cycle[(k + 1) % p]
            left = tuple(x for x in rest if x not in partners)
            place(left)
        for x in remaining:
            images[x] = -1

    place(tuple(range(size)))
    return out


def _commuting_pairs(size: int, p: int):
    """Yield (c1, pairs) for every fixed-point-free p-element c1, where pairs
    lists (c2, <c1, c2>) for the fixed-point-free p-elements c2 that commute
    with c1 and generate with it a group of order `size`; c2 runs over the
    maps that send each c1-orbit onto the next along a cyclic order of the
    orbits.  Each c2 is the pool's own object, and equal groups are listed
    as one object."""
    pool = _fpf_p_elements(size, p)
    pooled = {c: c for c in pool}
    groups: dict = {}
    for c1 in pool:
        pairs = []
        orbits = []
        seen = [False] * size
        for start in range(size):
            if seen[start]:
                continue
            orb, x = [], start
            while not seen[x]:
                seen[x] = True
                orb.append(x)
                x = c1(x)
            orbits.append(orb)
        where = {}
        for oi, orb in enumerate(orbits):
            for t, x in enumerate(orb):
                where[x] = (oi, t)
        for order_rest in itertools.permutations(range(1, p)):
            chain = (0,) + order_rest          # orbit cycle O_{chain[k]} -> O_{chain[k+1]}
            for choices in itertools.product(range(p), repeat=p):
                images = [-1] * size
                for k in range(p):
                    src, dst = chain[k], chain[(k + 1) % p]
                    target = orbits[dst][choices[k]]
                    for t in range(p):
                        x = orbits[src][t]
                        oi, s = where[target]
                        images[x] = orbits[oi][(s + t) % p]
                c2 = pooled.get(Perm(tuple(images)))
                if c2 is None or c1 * c2 != c2 * c1:
                    continue
                members = set()
                a = Perm.identity(size)
                for _ in range(p):
                    b = a
                    for _ in range(p):
                        members.add(b)
                        b = b * c2
                    a = a * c1
                if len(members) != size:
                    continue
                members = frozenset(members)
                pairs.append((c2, groups.setdefault(members, members)))
        yield c1, tuple(pairs)


def _naive_elementary(size: int, p: int, lam_gens) -> set:
    """Regular rank-two elementary abelian subgroups from commuting pairs
    of fixed-point-free p-elements."""
    found: set[frozenset] = set()
    gen_pairs = [(g, g.inverse()) for g in lam_gens]
    for c1, pairs in _kept(("elementary", size, p), lambda: _commuting_pairs(size, p)):
        for c2, members in pairs:
            if members in found:
                continue
            if all(g * c * gi in members
                   for g, gi in gen_pairs for c in (c1, c2)):
                found.add(members)
    return found


def oracle_regular_normalized(gamma: FiniteGroup, delta: FiniteGroup) -> list[tuple]:
    """The element tuples of the regular subgroups of the coset symmetric
    group normalized by the image of gamma, in the order and element order
    of `gp_enum.enumerate_regular_normalized`'s groups.

    Exhaustive search over the fixed-point-free cycles of full length
    (cyclic candidates) and, when the degree admits a non-cyclic type, over
    commuting pairs of fixed-point-free p-elements (elementary abelian
    candidates), then the normalization filter; feasible for degree <= 10.
    """
    size, act = coset_action(gamma, delta)
    lam_gens = [act(g) for g in gamma.generators]
    found = _naive_cyclic(size, lam_gens)
    if any(not model.is_cyclic() for model in _models(size)):
        found |= _naive_elementary(size, isqrt(size), lam_gens)
    return [tuple(sorted(members))
            for members in sorted(found, key=lambda s: sorted(p.images for p in s))]


# ---------------------------------------------------------------------------
# generating pairs and walks, with every product composed on all points

def _generated(gens) -> set:
    """The image tuples of the group generated by the image tuples `gens`."""
    ident = tuple(range(len(gens[0])))
    seen, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def oracle_generating_pair(elements) -> list[Perm] | None:
    """The naive first-success pair scan of a closed list of Perms: sorted
    by decreasing order (sympy's) and then by image tuple, the first
    element `top` alone if it generates the group, else `top` with the
    first b in that order such that the two generate it, else None.  Every
    b is tried, none skipped."""
    full = {p.images for p in elements}
    by_order = sorted(elements, key=lambda p: (
        -SymPerm(list(p.images)).order(), p.images))
    top = by_order[0]
    if _generated([top.images]) == full:
        return [top]
    for b in by_order:
        if _generated([top.images, b.images]) == full:
            return [top, b]
    return None


def oracle_walk(degree: int, gens) -> tuple[list, list]:
    """The group generated by the image tuples `gens` on 0..degree-1 in the
    order of a walk from the identity along x -> x*g: the elements in walk
    order, and for each the walk indices of x*g for the generators g in
    turn, each product composed on every point."""
    ident = tuple(range(degree))
    number, steps = {ident: 0}, []
    walk = [ident]
    for x in walk:
        step = []
        for g in gens:
            y = tuple(x[i] for i in g)
            if y not in number:
                number[y] = len(walk)
                walk.append(y)
            step.append(number[y])
        steps.append(step)
    return walk, steps
