"""Twisted-complement automorphisms, fixed fields, and the variant algebras."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfgal.cyclotomic import CycloElt, FieldDescriptor, cells_to_vector
from hopfgal.linalg import sparse_nullspace
from hopfgal.variants import (BigFieldElt, TowerAut, aut_act,
                              complement_elements, complement_generator,
                              complements_report, conjugation_exponent,
                              distinct_action_images, e_containment_check,
                              field_tower_lift, fixed_field,
                              h_variant, h_variant_rank_certificate,
                              normal_complements, variant_action_check,
                              variant_nu, variant_nu_check)

from oracle_tools import action_rows, oracle_nullity


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
    # the (s, b) normal form composes exactly like the induced field maps
    g = data.draw(tower_auts(p, n))
    h = data.draw(tower_auts(p, n))
    a = Fraction(2)
    for x in (BigFieldElt.monomial(p, n, a, 1, 0),     # the root
              BigFieldElt.monomial(p, n, a, 0, 1)):    # the root of unity
        assert aut_act(g.compose(h), x) == aut_act(g, aut_act(h, x))


def test_generator_orders():
    assert TowerAut.sigma(3, 2).order() == 9
    assert TowerAut.beta(3, 2).order() == 3
    assert TowerAut.sigma(5, 2).order() == 25


# -- normal complements ----------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_complements_structure(p, n):
    gens = normal_complements(p, n)
    assert len(gens) == p
    pn = p ** n
    seen = set()
    for i, g in enumerate(gens):
        assert g == complement_generator(p, n, i)
        assert g.order() == pn                     # cyclic of full order
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


# -- fixed fields -------------------------------------------------------------------

@pytest.mark.parametrize("i", [0, 1, 2])
def test_fixed_field_dimension(i):
    p, n = 3, 2
    basis = fixed_field(p, n, [complement_generator(p, n, i)], Fraction(2))
    # rational dimension: [Q(zeta, w) : Q] / p^n = p^(n-1) (p - 1)
    assert len(basis) == p ** (n - 1) * (p - 1)
    g = complement_generator(p, n, i)
    for x in basis:
        assert aut_act(g, x) == x


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
    assert ([cells_to_vector(x.coeffs) for x in fixed_field(p, n, [g])]
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
    assert ([cells_to_vector(c for part in h.parts for c in part.coeffs)
             for h in basis] == sparse_nullspace(rows, pn * pn * field.degree))


def test_fixed_field_lift_is_injective_map():
    x = BigFieldElt.monomial(3, 2, Fraction(2), 1, 1)
    lifted = field_tower_lift(2, 3, x)
    assert lifted.p == 3 and lifted.n == 3
    y = BigFieldElt.monomial(3, 2, Fraction(2), 0, 1)
    assert field_tower_lift(2, 3, x + y) == lifted + field_tower_lift(2, 3, y)


# -- variant algebras ------------------------------------------------------------------

@pytest.mark.parametrize("i", [0, 1, 2])
def test_variant_basis_and_rank(i):
    p, n = 3, 2
    basis = h_variant(p, n, i, Fraction(2))
    # rational dimension (p - 1) p^n; rank p^n over the fixed field
    assert len(basis) == (p - 1) * p ** n
    assert h_variant_rank_certificate(p, n, i, Fraction(2)).status == "pass"


@pytest.mark.parametrize("i", [0, 1, 2])
def test_variant_algebra_is_zeta1_linear(i):
    # each complement element fixes zeta_1 = zeta^(p^(n-1)), so h commutes
    # with multiplication by zeta_1; the action check reads the fixed space
    # from the action matrix on that basis
    p, n, a = 3, 2, Fraction(2)
    f, step = FieldDescriptor(p, n), p ** (n - 1)
    for h in h_variant(p, n, i, a):
        for B in range(p ** n):
            image = h.apply(BigFieldElt.monomial(p, n, a, 0, B))
            for j in range(p - 1):
                zeta1_j = CycloElt.zeta_power(f, j * step)
                assert image.scale(zeta1_j) == h.apply(
                    BigFieldElt.monomial(p, n, a, j * step, B))


@pytest.mark.parametrize("i", [0, 1, 2])
def test_variant_action(i):
    assert variant_action_check(3, 2, i, Fraction(2)).status == "pass"


def test_variant_actions_differ():
    assert distinct_action_images(3, 2, Fraction(2)).status == "pass"


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


def test_cross_level_containment_pattern():
    # fixed fields of the twisted complements embed one level up only on the
    # untwisted chain; the group-side restriction certificate agrees
    assert e_containment_check(3, 3, Fraction(2)).status == "pass"
