"""Twisted-complement automorphisms, fixed fields, and the variant algebras."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from hopfgal import variants
from hopfgal.cyclotomic import (CycloElt, FieldDescriptor, terms_to_row,
                                terms_to_vector, unit_apply)
from hopfgal.gp_enum import grid_aut
from hopfgal.linalg import SparseEchelon, sparse_nullspace
from hopfgal.variants import (TowerAut, action_matrix, complement_elements,
                              complement_generator, complements_report,
                              conjugation_exponent, distinct_action_images,
                              e_containment_check, field_tower_lift,
                              fixed_field, h_variant,
                              h_variant_rank_certificate, normal_complements,
                              variant_action_check, variant_nu,
                              variant_nu_check)

from oracle_tools import (action_rows, oracle_nullity, oracle_primitive_root,
                          poly_to_vec, vec_to_poly)


def tower_auts(p, n):
    return st.tuples(st.integers(0, p ** n - 1),
                     st.integers(0, p ** (n - 1) - 1)).map(
        lambda sb: TowerAut(p, n, sb[0], sb[1]))


# -- the automorphism group -----------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
@given(data=st.data())
def test_tower_group_axioms(p, n, data):
    g = data.draw(tower_auts(p, n))
    h = data.draw(tower_auts(p, n))
    k = data.draw(tower_auts(p, n))
    e = TowerAut.identity(p, n)
    assert g.compose(e) == g and e.compose(g) == g
    assert g.compose(g.inverse()) == e
    assert g.compose(h).compose(k) == g.compose(h.compose(k))


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3)])
@given(data=st.data())
def test_composition_is_action_composition(p, n, data):
    # the (s, b) normal form composes exactly like the induced permutations
    # (A, B) -> (uA + sB, B) of the exponents of zeta^A w^B
    g = data.draw(tower_auts(p, n))
    h = data.draw(tower_auts(p, n))

    def images(x):
        return grid_aut(p, n, x.unit(), x.s).images

    g_images, h_images = images(g), images(h)
    assert images(g.compose(h)) == tuple(g_images[c] for c in h_images)


def order(g: TowerAut) -> int:
    """The order of g's permutation of the exponent grid, which composes as
    g does (`test_composition_is_action_composition`) and is faithful."""
    return grid_aut(g.p, g.n, g.unit(), g.s).order()


def test_generator_orders():
    assert order(TowerAut.sigma(3, 2)) == 9
    assert order(TowerAut.beta(3, 2)) == 3
    assert order(TowerAut.sigma(5, 2)) == 25


# -- normal complements ----------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_complements_structure(p, n):
    gens = normal_complements(p, n)
    assert len(gens) == p
    pn = p ** n
    seen = set()
    for i, g in enumerate(gens):
        assert g == complement_generator(p, n, i)
        assert order(g) == pn                      # cyclic of full order
        elements = complement_elements(p, n, i)
        assert len(set(elements)) == pn
        # trivial intersection with the beta-line (s == 0)
        assert sum(1 for x in elements if x.s == 0) == 1
        # conjugation by beta stays inside the complement
        beta = TowerAut.beta(p, n)
        conj = beta.compose(g).compose(beta.inverse())
        assert conj in set(elements)
        assert conj == g.pow(conjugation_exponent(p, n, i))
        seen.add(frozenset(elements))
    assert len(seen) == p                          # genuinely different subgroups


def test_complement_product_covers_group():
    p, n = 3, 2
    beta = TowerAut.beta(p, n)
    for i in range(p):
        cosets = {(x.compose(beta.pow(k)))
                  for x in complement_elements(p, n, i)
                  for k in range(p ** (n - 1))}
        assert len(cosets) == p ** n * p ** (n - 1)


def test_complements_report_passes():
    assert complements_report(3, 2).status == "pass"


def test_complements_report_turns_a_failed_construction_into_its_witness(
        monkeypatch):
    def boom(p, n):
        raise AssertionError("boom")

    monkeypatch.setattr(variants, "normal_complements", boom)
    report = complements_report(3, 2)
    assert (report.status, report.witness) == ("fail", {"error": "boom"})


def test_complements_report_fails_on_a_short_count(monkeypatch):
    monkeypatch.setattr(variants, "normal_complements",
                        lambda p, n: [complement_generator(p, n, i)
                                      for i in range(2)])
    report = complements_report(3, 2)
    assert (report.status, report.witness) == ("fail", {"count": 2})


# -- fixed fields -------------------------------------------------------------------

@pytest.mark.parametrize("i", [0, 1, 2])
def test_fixed_field_dimension(i):
    p, n = 3, 2
    g = complement_generator(p, n, i)
    basis = fixed_field(p, n, [g])
    # rational dimension: [Q(zeta, w) : Q] / p^n = p^(n-1) (p - 1)
    assert len(basis) == p ** (n - 1) * (p - 1)
    # g sends x w^B to g(x) zeta^(sB) w^B
    for terms in basis:
        assert tuple((B, unit_apply(g.unit(), x).shift(g.s * B))
                     for B, x in terms) == terms


@pytest.mark.parametrize("i", [0, 1, 2])
def test_action_rows_kernel_has_sympy_nullity(i):
    p, n = 3, 2
    field = FieldDescriptor(p, n)
    g = complement_generator(p, n, i)
    rows = action_rows(field, g.unit(), [(B, g.s * B) for B in range(p ** n)])
    ncols = p ** n * field.degree
    dense = [[row.get(c, 0) for c in range(ncols)] for row in rows]
    kernel = sparse_nullspace(rows, ncols)
    assert len(kernel) == oracle_nullity(dense, ncols) == field.degree
    assert len(fixed_field(p, n, [g])) == len(kernel)


def aut_moves(p, n, g, copies=1, conj_pow=1):
    """The cell moves of g on `copies` copies of Q(zeta, w): cell k*p^n + B
    (w^B in copy k) goes to copy conj_pow * k, times zeta^(s*B)."""
    pn = p ** n
    return [((conj_pow * k) % pn * pn + B, g.s * B)
            for k in range(copies) for B in range(pn)]


@pytest.mark.parametrize("p,n,i", [(3, 2, 0), (3, 2, 1), (3, 2, 2),
                                   (3, 3, 0), (3, 3, 1), (3, 3, 2)])
def test_fixed_field_is_the_full_grid_kernel_basis(p, n, i):
    field = FieldDescriptor(p, n)
    g = complement_generator(p, n, i)
    rows = action_rows(field, g.unit(), aut_moves(p, n, g))
    assert ([terms_to_vector(terms) for terms in fixed_field(p, n, [g])]
            == sparse_nullspace(rows, p ** n * field.degree))


@pytest.mark.parametrize("p,n,i", [(3, 2, 0), (3, 2, 1), (3, 2, 2),
                                   (3, 3, 0), (3, 3, 1), (3, 3, 2), (5, 2, 1)])
def test_h_variant_is_the_full_grid_kernel_basis(p, n, i):
    """The orbit-wise basis of (E_i[N_i])^beta is the canonical kernel
    basis of the full-grid rows of both generators, in the same order."""
    field = FieldDescriptor(p, n)
    pn = p ** n
    g, beta = complement_generator(p, n, i), TowerAut.beta(p, n)
    rows = (action_rows(field, g.unit(), aut_moves(p, n, g, pn))
            + action_rows(field, beta.unit(),
                          aut_moves(p, n, beta, pn, conjugation_exponent(p, n, i))))
    basis = h_variant(p, n, i)
    assert ([terms_to_vector(terms) for terms in basis]
            == sparse_nullspace(rows, pn * pn * field.degree))


def test_fixed_field_lift_is_injective_map():
    # zeta_2^A w_2^B -> zeta_3^(3A) w_3^(3B): cells and coefficients dilate
    f2, f3 = FieldDescriptor(3, 2), FieldDescriptor(3, 3)
    x = ((1, CycloElt.zeta_power(f2, 1)), (4, CycloElt.rational(f2, 5)))
    assert field_tower_lift(2, 3, x) == ((3, CycloElt.zeta_power(f3, 3)),
                                         (12, CycloElt.rational(f3, 5)))
    # a basis of a level-2 fixed field stays independent at level 3
    low = fixed_field(3, 2, [complement_generator(3, 2, 1)])
    ech = SparseEchelon()
    for terms in low:
        ech.insert(terms_to_vector(field_tower_lift(2, 3, terms)))
    assert ech.rank == len(low)
    for m, n in ((3, 3), (1, 3)):                 # not upward, wrong level
        with pytest.raises(ValueError):
            field_tower_lift(m, n, x)


# -- variant algebras ------------------------------------------------------------------

@pytest.mark.parametrize("i", [0, 1, 2])
def test_variant_basis_and_rank(i):
    p, n = 3, 2
    basis = h_variant(p, n, i)
    # rational dimension (p - 1) p^n; rank p^n over the fixed field
    assert len(basis) == (p - 1) * p ** n
    assert h_variant_rank_certificate(p, n, i, Fraction(2)).status == "pass"


_X = sympy.Symbol("x")


def reference_image(p, n, i, a, terms, A, B):
    """h(zeta^A w^B) from the definition h(y) = sum_k x_k g^k(y), in sympy,
    as p^n power-basis vectors indexed by w-power.  Cell k*p^n + B' of h
    holds the coefficient x of g^k w^B'; g^k = (s_k, b_k) sends zeta^A w^B
    to zeta^(u^k A + s_k B) w^B with u = pi^((p-1) g.b) and
    s_k = g.s * sum_{t<k} u^t, and w^(p^n) = a."""
    pn = p ** n
    g = complement_generator(p, n, i)
    u = pow(oracle_primitive_root(p * p), (p - 1) * g.b, pn)
    images = [sympy.Poly(0, _X, domain="QQ") for _ in range(pn)]
    rat_a = sympy.Rational(a.numerator, a.denominator)
    for c, x in terms:
        k, B2 = divmod(c, pn)
        s_k = g.s * sum(u ** t for t in range(k))
        e = (pow(u, k, pn) * A + s_k * B) % pn
        image = vec_to_poly(x.coeffs) * sympy.Poly(_X ** e, _X, domain="QQ")
        if B2 + B >= pn:
            image = image * rat_a
        images[(B2 + B) % pn] += image
    return [poly_to_vec(p, n, image) for image in images]


@pytest.mark.parametrize("i", [0, 1, 2])
def test_action_matrix_matches_the_sympy_definition(i):
    # radicand 3/5: the entries that wrap past w^(p^n) carry the factor a
    p, n, a = 3, 2, Fraction(3, 5)
    step = p ** (n - 1)
    for terms in h_variant(p, n, i):
        entries = dict(action_matrix(p, n, i, a, terms))
        for B in range(p ** n):
            column = reference_image(p, n, i, a, terms, 0, B)
            for r, vec in enumerate(column):
                # the image lies in Q(zeta_1, w): zeta-exponents step | A
                assert not any(vec[A] for A in range(len(vec)) if A % step)
                # an entry that is not stored reads zero
                got = entries.get((r, B))
                assert (list(got.coeffs) if got else [0] * (p - 1)) == vec[::step]


@pytest.mark.parametrize("p,n,i", [(3, 2, 0), (3, 2, 1), (3, 2, 2), (3, 3, 1),
                                   (5, 2, 3)])
def test_action_matrix_stores_only_nonzero_entries_in_range(p, n, i):
    pn, f1 = p ** n, FieldDescriptor(p, 1)
    for terms in h_variant(p, n, i):
        mat = action_matrix(p, n, i, Fraction(3, 5), terms)
        keys = [key for key, _ in mat]
        assert keys and keys == sorted(set(keys))
        assert all(0 <= r < pn and 0 <= B < pn for r, B in keys)
        assert all(isinstance(y, CycloElt) and y.field is f1 and y
                   for _, y in mat)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_variant_algebra_is_zeta1_linear(i):
    # each complement element fixes zeta_1 = zeta^(p^(n-1)), so h sends
    # zeta_1^j w^B to zeta_1^j times column B of its action matrix; the
    # action check reads the fixed space from the matrix on that basis
    p, n, a = 3, 2, Fraction(3, 5)
    step = p ** (n - 1)
    for terms in h_variant(p, n, i):
        entries = dict(action_matrix(p, n, i, a, terms))
        for B in range(p ** n):
            for j in range(1, p - 1):
                image = reference_image(p, n, i, a, terms, j * step, B)
                for r, vec in enumerate(image):
                    entry = [0] * len(vec)
                    got = entries.get((r, B))       # not stored: zero
                    if got:
                        entry[::step] = got.coeffs
                    zeta1_j = sympy.Poly(_X ** (j * step), _X, domain="QQ")
                    assert vec == poly_to_vec(p, n, vec_to_poly(entry) * zeta1_j)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_variant_action(i):
    assert variant_action_check(3, 2, i, Fraction(2)).status == "pass"


@pytest.mark.parametrize("i", range(5))
def test_variant_action_at_5_2(i):
    assert variant_action_check(5, 2, i, Fraction(2)).status == "pass"


def test_variant_actions_differ():
    assert distinct_action_images(3, 2, Fraction(2)).status == "pass"


@pytest.fixture
def uncached(monkeypatch):
    """`monkeypatch`, with the action matrices built anew on every call
    (they are kept per (p, n, i, a)), so that a patched `h_variant` or
    `action_matrix` reaches the checks."""
    monkeypatch.setattr(variants, "_action_matrices",
                        variants._action_matrices.__wrapped__)
    return monkeypatch


def _read_algebras(monkeypatch, swap):
    # complement index i builds the algebra, and its action, of swap[i]
    h, mat = variants.h_variant, variants.action_matrix
    monkeypatch.setattr(variants, "h_variant",
                        lambda p, n, i: h(p, n, swap.get(i, i)))
    monkeypatch.setattr(variants, "action_matrix",
                        lambda p, n, i, a, terms:
                        mat(p, n, swap.get(i, i), a, terms))


def test_distinct_action_images_names_a_coincident_pair(uncached):
    _read_algebras(uncached, {1: 0})
    report = distinct_action_images(3, 2)
    assert (report.status, report.witness) == \
        ("fail", {"stage": "coincident-spans", "pair": [0, 1]})


def test_distinct_action_images_needs_the_diagonal_at_level_0(uncached):
    # spans stay pairwise distinct, but index 0's is no longer the diagonal
    _read_algebras(uncached, {0: 1, 1: 0})
    report = distinct_action_images(3, 2)
    assert (report.status, report.witness) == \
        ("fail", {"stage": "level-0-not-diagonal"})


def test_h_variant_is_built_once_per_index():
    basis = h_variant(3, 2, 1)
    assert isinstance(basis, tuple) and h_variant(3, 2, 1) is basis


def test_variant_reports_build_each_algebra_and_matrix_once(monkeypatch):
    p, n, a = 3, 2, Fraction(11, 13)
    variants._h_basis.cache_clear()
    variants._action_matrices.cache_clear()
    builds, matrices = [], []
    kernel, mat = variants.twisted_kernel, variants.action_matrix
    monkeypatch.setattr(variants, "twisted_kernel",
                        lambda p, n, gens, copies, width:
                        builds.append(copies) or kernel(p, n, gens, copies, width))
    monkeypatch.setattr(variants, "action_matrix",
                        lambda *args: matrices.append(args[-1]) or mat(*args))
    assert all(r.status == "pass" for r in variants.variant_reports(p, n, a))
    assert builds.count(p ** n) == p                  # one algebra per index
    assert len(matrices) == len({id(t) for t in matrices}) == p * (p - 1) * p ** n


def full_span_rank(p, n, a, mats):
    """Q-rank of the left w^c-multiples of `mats`, c < p^n, in one
    elimination of all of them: w^c moves row r to (r + c) mod p^n and
    multiplies the entries that wrap by a."""
    pn = p ** n
    ech = SparseEchelon()
    for c in range(pn):
        for mat in mats:
            for j in range(p - 1):
                ech.insert(terms_to_row(
                    ((r + c) % pn * pn + B, (y * a if r + c >= pn else y).shift(j))
                    for (r, B), y in mat)[0])
    return ech.rank


@pytest.mark.parametrize("a", [Fraction(2), Fraction(3, 7)])
@pytest.mark.parametrize("p,n,i", [(3, 2, 0), (3, 2, 1), (3, 2, 2), (3, 3, 1),
                                   (5, 2, 3)])
def test_offset_block_rank_is_the_full_elimination_rank(p, n, i, a):
    """p^n times the rank of offset block 0 is the rank of all the left
    w-multiples, on every matrix and on seeded subsets, full or short."""
    mats = [action_matrix(p, n, i, a, terms) for terms in h_variant(p, n, i)]
    rng = random.Random(100 * p + 10 * n + i)
    subsets = [mats] + [rng.sample(mats, k) for k in (len(mats) // 2, p)]
    ranks = [full_span_rank(p, n, a, sub) for sub in subsets]
    assert [variants._span_rank(p, n, a, sub) for sub in subsets] == ranks
    full = (p - 1) * p ** (2 * n)
    assert ranks[0] == full and min(ranks) < full


@pytest.mark.parametrize("i", [0, 1, 2])
def test_zero_radicand_fails_with_the_full_elimination_rank(i):
    # w^(p^n) = 0: w is nilpotent, the offset blocks differ, each is counted
    p, n, a = 3, 2, Fraction(0)
    mats = [action_matrix(p, n, i, a, terms) for terms in h_variant(p, n, i)]
    report = variant_action_check(p, n, i, a)
    assert (report.status, report.witness) == \
        ("fail", {"stage": "endomorphism-rank",
                  "rank": full_span_rank(p, n, a, mats), "expected": 162})


def test_a_matrix_on_two_offsets_fails_offset_support(uncached):
    p, n, i, t = 3, 2, 1, 4
    pn, target = p ** n, h_variant(p, n, i)[t]
    mat, one = variants.action_matrix, CycloElt.rational(FieldDescriptor(p, 1), 1)

    def two_offsets(p, n, i, a, terms):
        entries = mat(p, n, i, a, terms)
        if terms is not target:
            return entries
        (r, B), _ = entries[0]
        # column 1, one offset past the matrix's own: no counit entry
        return tuple(sorted(entries + ((((r - B + 2) % pn, 1), one),)))

    uncached.setattr(variants, "action_matrix", two_offsets)
    report = variant_action_check(p, n, i)
    assert (report.status, report.witness) == \
        ("fail", {"stage": "offset-support", "basis_index": t})


@pytest.mark.parametrize("drop, rank", [(1, 162), (2, 144)])
def test_dropping_a_zeta1_line_fails_endomorphism_rank(uncached, drop, rank):
    # the last two basis elements hold one w-power and span one line over
    # Q(zeta_1): with one of them dropped, the zeta_1-multiples of the other
    # still span it; with both, End is not reached
    p, n, i, a = 3, 2, 1, Fraction(2)
    h = variants.h_variant
    uncached.setattr(variants, "h_variant", lambda p, n, i: h(p, n, i)[:-drop])
    mats = [action_matrix(p, n, i, a, terms) for terms in h(p, n, i)[:-drop]]
    assert full_span_rank(p, n, a, mats) == rank
    report = variant_action_check(p, n, i, a)
    assert report.witness == (None if rank == 162 else
                              {"stage": "endomorphism-rank", "rank": rank,
                               "expected": 162})


def test_an_entry_outside_zeta1_is_named_by_both_checks(uncached):
    # zeta times a basis element acts by zeta times its matrix, whose
    # nonzero entries leave Q(zeta_1)
    p, n, t = 3, 2, 5
    h = variants.h_variant

    def moved(p, n, i):
        basis = h(p, n, i)
        if i != 1:
            return basis
        return (basis[:t] + (tuple((c, x.shift(1)) for c, x in basis[t]),)
                + basis[t + 1:])

    uncached.setattr(variants, "h_variant", moved)
    assert action_matrix(p, n, 1, Fraction(2), moved(p, n, 1)[t]) is None
    report = variant_action_check(p, n, 1)
    assert (report.status, report.witness) == \
        ("fail", {"stage": "image-support", "basis_index": t})
    report = distinct_action_images(p, n)
    assert (report.status, report.witness) == \
        ("fail", {"stage": "image-support", "i": 1})


# -- truncation of the variants ----------------------------------------------------------

def test_variant_nu_generator_assignment():
    p, n = 3, 3
    for i in range(p):
        g = complement_generator(p, n, i)
        assert variant_nu(n, i, g) == complement_generator(p, n - 1, i)
        assert variant_nu(n, i, g.pow(5)) == \
            complement_generator(p, n - 1, i).pow(5)
    assert variant_nu_check(p, n).status == "pass"


def test_variant_nu_level_guard():
    with pytest.raises(ValueError):
        variant_nu(2, 1, complement_generator(3, 2, 1))


def test_variant_nu_refuses_an_element_of_another_complement():
    with pytest.raises(ValueError, match="^element is not in complement 1$"):
        variant_nu(3, 1, complement_generator(3, 3, 2))


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (3, 4), (5, 3)])
def test_variant_nu_reads_the_power_of_every_group_element(p, n):
    # against the walk over the listed powers: on every element (s, b) of
    # the level-n group, the image is the level-(n-1) generator to the index
    # of the element in its complement, and the refusal is the same
    for i in range(p if n >= 3 else 1):
        elems = complement_elements(p, n, i)
        low = complement_generator(p, n - 1, i)
        for s in range(p ** n):
            for b in range(p ** (n - 1)):
                x = TowerAut(p, n, s, b)
                if x in elems:
                    assert variant_nu(n, i, x) == low.pow(elems.index(x))
                else:
                    with pytest.raises(ValueError,
                                       match="^element is not in complement %d$" % i):
                        variant_nu(n, i, x)


def test_variant_nu_refuses_an_element_of_another_level():
    with pytest.raises(ValueError, match="^element is not at level 3$"):
        variant_nu(3, 1, complement_generator(3, 4, 1))


def test_cross_level_containment_pattern():
    # fixed fields of the twisted complements embed one level up only on the
    # untwisted chain; the group-side restriction certificate agrees
    assert e_containment_check(3, 3, Fraction(2)).status == "pass"
