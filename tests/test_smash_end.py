"""Smash-product arithmetic and the endomorphism-algebra identification."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfgal.smash_end import (QMatrix, SmashElt, decompose_endomorphism,
                               hom_subalgebra_basis,
                               hom_subalgebra_closure_check,
                               hom_subalgebra_dimension_report, iso_check,
                               nine_matrices_report, smash_mult,
                               to_end_matrix)

from oracle_tools import oracle_rank

frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def smash_elements(p, n, a):
    go = p ** n
    pairs = st.tuples(st.integers(0, go - 1), st.integers(0, go - 1))
    return st.dictionaries(pairs, frac, max_size=3).map(
        lambda terms: SmashElt(p, n, a, terms))


def unit_element(p, n, a) -> SmashElt:
    return SmashElt(p, n, a, {(0, i): Fraction(1) for i in range(p ** n)})


# -- algebra structure ---------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
@given(data=st.data())
def test_smash_algebra_axioms(p, n, data):
    a = Fraction(2)
    x = data.draw(smash_elements(p, n, a))
    y = data.draw(smash_elements(p, n, a))
    z = data.draw(smash_elements(p, n, a))
    assert smash_mult(smash_mult(x, y), z) == smash_mult(x, smash_mult(y, z))
    assert smash_mult(x, y + z) == smash_mult(x, y) + smash_mult(x, z)
    one = unit_element(p, n, a)
    assert smash_mult(one, x) == x
    assert smash_mult(x, one) == x


def test_smash_is_noncommutative():
    a = Fraction(2)
    x = SmashElt.basis(3, 1, a, 1, 0)   # root-power 1, idempotent 0
    y = SmashElt.basis(3, 1, a, 0, 1)   # idempotent 1 alone
    assert smash_mult(x, y) != smash_mult(y, x)


def test_basis_multiplication_rule():
    # (w^j # e_i)(w^j' # e_i') = w^(j+j') # e_i' exactly when j' + i' == i
    a = Fraction(2)
    x = SmashElt.basis(3, 1, a, 1, 2)
    y = SmashElt.basis(3, 1, a, 2, 0)
    assert smash_mult(x, y) == SmashElt(3, 1, a, {(0, 0): Fraction(2)})
    y_miss = SmashElt.basis(3, 1, a, 1, 0)
    assert not smash_mult(x, y_miss)


# -- matrix model ----------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
@given(data=st.data())
def test_matrix_map_is_multiplicative(p, n, data):
    a = Fraction(2)
    x = data.draw(smash_elements(p, n, a))
    y = data.draw(smash_elements(p, n, a))
    assert to_end_matrix(smash_mult(x, y)) == \
        to_end_matrix(x) * to_end_matrix(y)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
@given(data=st.data())
def test_decompose_inverts_matrix_map(p, n, data):
    a = Fraction(2)
    x = data.draw(smash_elements(p, n, a))
    assert decompose_endomorphism(to_end_matrix(x)) == x


@given(data=st.data())
def test_every_matrix_decomposes(data):
    # the identification is onto: arbitrary rational matrices round-trip
    p, n, a = 3, 1, Fraction(2)
    go = p ** n
    rows = data.draw(st.lists(st.lists(frac, min_size=go, max_size=go),
                              min_size=go, max_size=go))
    m = QMatrix(p, n, a, rows)
    assert to_end_matrix(decompose_endomorphism(m)) == m


def test_matrix_json_round_trip():
    m = to_end_matrix(SmashElt.basis(3, 2, Fraction(1, 2), 4, 7))
    assert QMatrix.from_json(m.to_json()) == m


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
def test_basis_matrices_have_full_rank(p, n):
    a = Fraction(2)
    go = p ** n
    flats = [[v for row in to_end_matrix(SmashElt.basis(p, n, a, j, i)).rows
              for v in row]
             for j in range(go) for i in range(go)]
    assert oracle_rank(flats) == p ** (2 * n)


# -- pinned displays and reports -----------------------------------------------------

def test_nine_matrices_pinned():
    assert nine_matrices_report(Fraction(2)).status == "pass"
    assert nine_matrices_report(Fraction(7, 3)).status == "pass"


def test_iso_reports():
    assert iso_check(3, 1, Fraction(2)).status == "pass"
    assert iso_check(3, 1, Fraction(2), seed=7, samples=12).status == "pass"


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2)])
def test_hom_subalgebra_dimension(n, m):
    pairs, dim = hom_subalgebra_basis(3, n, m)
    assert dim == 3 ** (n + m)
    assert len(pairs) == dim
    assert hom_subalgebra_dimension_report(3, n, m, Fraction(2)).status == "pass"
    assert hom_subalgebra_closure_check(3, n, m, Fraction(2)).status == "pass"
