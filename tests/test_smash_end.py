"""Smash-product arithmetic and the endomorphism-algebra identification."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfgal import smash_end
from hopfgal.smash_end import (QMatrix, SmashElt, _product_terms,
                               decompose_endomorphism,
                               hom_subalgebra_basis,
                               hom_subalgebra_closure_check,
                               hom_subalgebra_dimension_report, iso_check,
                               nine_matrices_report, smash_mult,
                               to_end_matrix)

from oracle_tools import oracle_mat_mul, oracle_rank

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


def test_a_fraction_radicand_is_kept_and_any_other_is_converted():
    a = Fraction(7, 3)
    zero = [[0] * 3 for _ in range(3)]
    assert SmashElt.basis(3, 1, a, 1, 2).a is a
    assert QMatrix(3, 1, a, zero).a is a
    for b in (SmashElt.basis(3, 1, 2, 1, 2).a, QMatrix(3, 1, 2, zero).a):
        assert type(b) is Fraction and b == 2


def test_basis_multiplication_rule():
    # (w^j # e_i)(w^j' # e_i') = w^(j+j') # e_i' exactly when j' + i' == i
    a = Fraction(2)
    x = SmashElt.basis(3, 1, a, 1, 2)
    y = SmashElt.basis(3, 1, a, 2, 0)
    assert smash_mult(x, y) == SmashElt(3, 1, a, {(0, 0): Fraction(2)})
    y_miss = SmashElt.basis(3, 1, a, 1, 0)
    assert not smash_mult(x, y_miss)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
def test_product_kernel_equals_smash_mult_on_basis_pairs(p, n):
    a = Fraction(3, 5)
    go = p ** n
    basis = [SmashElt.basis(p, n, a, j, i) for j in range(go) for i in range(go)]
    wraps = 0
    for x in basis:
        for y in basis:
            got = _product_terms(go, a, x.terms.items(), y.terms.items())
            assert got == smash_mult(x, y).terms
            wraps += a in got.values()
    assert wraps > 0


def test_product_kernel_takes_the_radicand_once_per_wrap():
    """w^2 # e_0 times w^2 # e_1 wraps once in Q(w), w^3 = a: a appears once,
    not squared; a product that does not wrap takes no a."""
    a, go = Fraction(3, 5), 3
    x = (((2, 0), Fraction(2)),)
    assert _product_terms(go, a, x, (((2, 1), Fraction(7)),)) == {(1, 1): 14 * a}
    assert _product_terms(go, a, x, (((0, 0), Fraction(7)),)) == {(2, 0): Fraction(14)}


def test_product_kernel_keeps_a_cancelled_key_as_zero():
    """Two products that meet in one key and cancel leave that key at 0; a
    key met once keeps its product."""
    a, go = Fraction(2), 3
    xterms = (((1, 0), Fraction(1)), ((2, 2), Fraction(1, 16)))
    # (1,0)(2,1) and (2,2)(1,1) both wrap to (0, 1): -a/4 + a/4
    yterms = (((2, 1), Fraction(-1, 4)), ((1, 1), Fraction(4)), ((0, 0), Fraction(5)))
    terms = _product_terms(go, a, xterms, yterms)
    assert terms == {(0, 1): 0, (1, 0): Fraction(5)}
    assert all(type(c) is Fraction for c in terms.values())


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


# -- products against sympy ---------------------------------------------------------

mixed = st.one_of(st.integers(-6, 6),
                  st.fractions(min_value=-4, max_value=4, max_denominator=6))


def mixed_matrix(go):
    return st.lists(st.lists(mixed, min_size=go, max_size=go), min_size=go, max_size=go)


def test_mat_mul_known():
    left = QMatrix(2, 1, 2, [[1, 2], [0, 0]])
    right = QMatrix(2, 1, 2, [[3, 0], [4, 0]])
    assert (left * right).rows == ((Fraction(11), Fraction(0)), (Fraction(0), Fraction(0)))


# square sizes 2, 3 and 4, one matrix p^n on a side
@given(st.sampled_from([(2, 1), (3, 1), (2, 2)])
       .flatmap(lambda pn: st.tuples(st.just(pn), mixed_matrix(pn[0] ** pn[1]),
                                     mixed_matrix(pn[0] ** pn[1]))))
def test_mat_mul_matches_sympy(case):
    (p, n), a, b = case
    prod = QMatrix(p, n, 2, a) * QMatrix(p, n, 2, b)
    assert [list(row) for row in prod.rows] == oracle_mat_mul(a, b)
    assert all(type(v) is Fraction for row in prod.rows for v in row)


# -- the sparse layout, against dense references built here -------------------------

def dense_end_matrix(p, n, a, terms) -> list[list[Fraction]]:
    """sum c * (w^j # e_i) as a full grid: column i, row (j + i) mod p^n,
    times a when the w-exponent wraps."""
    go = p ** n
    rows = [[Fraction(0)] * go for _ in range(go)]
    for (j, i), c in terms.items():
        wrap, r = divmod(j + i, go)
        rows[r][i] += c * a ** wrap
    return rows


def dense_product(x, y) -> list[list[Fraction]]:
    return [[sum((x[r][k] * y[k][c] for k in range(len(y))), Fraction(0))
             for c in range(len(y[0]))] for r in range(len(x))]


def dense_json(p, n, a, rows) -> dict:
    def q(v):
        return "%d/%d" % (v.numerator, v.denominator)
    return {"p": p, "n": n, "a": q(a), "rows": [[q(v) for v in row] for row in rows]}


def stored_values_are_nonzero(m: QMatrix) -> bool:
    return all(v for _, v in m.entries)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_sparse_matrices_match_the_dense_reference(p, n, data):
    a = data.draw(st.sampled_from([Fraction(2), Fraction(1, 2), Fraction(-3, 5)]))
    x = data.draw(smash_elements(p, n, a))
    y = data.draw(smash_elements(p, n, a))
    dx, dy = dense_end_matrix(p, n, a, x.terms), dense_end_matrix(p, n, a, y.terms)
    mx, my = to_end_matrix(x), to_end_matrix(y)
    assert [list(row) for row in mx.rows] == dx
    assert stored_values_are_nonzero(mx)
    assert mx == QMatrix(p, n, a, dx) and hash(mx) == hash(QMatrix(p, n, a, dx))
    # JSON bytes, and back
    assert (json.dumps(mx.to_json(), sort_keys=True)
            == json.dumps(dense_json(p, n, a, dx), sort_keys=True))
    assert QMatrix.from_json(dense_json(p, n, a, dx)) == mx
    # products, including the ones that cancel
    prod = mx * my
    assert [list(row) for row in prod.rows] == dense_product(dx, dy)
    assert stored_values_are_nonzero(prod)
    assert prod == to_end_matrix(smash_mult(x, y))
    # the inverse of the matrix map, from dense rows
    assert decompose_endomorphism(QMatrix(p, n, a, dx)) == x


def test_no_zero_is_stored_after_a_cancellation():
    a = Fraction(2)
    # row 0 of the left factor against column 0 of the right: 1 - 1 = 0
    left = QMatrix(3, 1, a, [[1, 1, 0], [0, 0, 0], [0, 0, 5]])
    right = QMatrix(3, 1, a, [[1, 0, 0], [-1, 0, 0], [0, 0, 1]])
    assert (left * right).entries == (((2, 2), Fraction(5)),)
    assert (left * QMatrix(3, 1, a, [[1, 0, 0], [-1, 0, 0], [0, 0, 0]])).entries == ()
    # a smash sum that cancels, and a wrap into radicand 0
    x = SmashElt.basis(3, 1, a, 1, 2)
    assert to_end_matrix(x + x.scale(-1)).entries == ()
    assert to_end_matrix(SmashElt.basis(3, 1, 0, 1, 2)).entries == ()
    # zeros given to the constructor, in any form
    assert QMatrix(3, 1, a, [[0, Fraction(0), "0"], ["0/7", "-0/3", 0],
                             [0, 0, 0]]).entries == ()


def test_zero_strings_parse_to_zero_and_are_not_stored():
    for rows in ([["0", "0/7", "-0/3"], ["0/1", "5/10", "0"], ["-0/3", "0/7", "0"]],
                 # a zero that is not "0/1" keeps its row from being passed over
                 [["0/1", "0/7", "0/1"], ["0/1", "5/10", "0/1"], ["0/1", "0/1", "-0/3"]]):
        m = QMatrix.from_json({"p": 3, "n": 1, "a": "2/1", "rows": rows})
        assert m.entries == (((1, 1), Fraction(1, 2)),)
        assert m.rows[0] == (Fraction(0),) * 3
        assert m.to_json()["rows"] == [["0/1"] * 3, ["0/1", "1/2", "0/1"], ["0/1"] * 3]


@pytest.mark.parametrize("row, message", [
    ([0, "0/1", "0/1"], "'num/den' string, got 0"),
    (["0/1", "3/0", "0/1"], "zero denominator"),
    (["0/1", "0/1", None], "'num/den' string, got None"),
    (["0/1"] * 4, "expected a p\\^n x p\\^n matrix"),
    (["0/1"] * 2, "expected a p\\^n x p\\^n matrix"),
], ids=["int-zero", "zero-denominator", "null", "long-row", "short-row"])
def test_a_row_with_one_stray_entry_is_refused(row, message):
    """Only a row of exactly p^n strings "0/1" is passed over unread."""
    for r in range(3):
        rows = [["0/1"] * 3 for _ in range(3)]
        rows[r] = row
        with pytest.raises(ValueError, match=message):
            QMatrix.from_json({"p": 3, "n": 1, "a": "2/1", "rows": rows})


def test_equal_matrices_hash_equal():
    a = Fraction(1, 2)
    m = to_end_matrix(SmashElt.basis(3, 2, a, 4, 7))   # w^7 -> w^11 = a * w^2
    dense = [[0] * 9 for _ in range(9)]
    dense[2][7] = "1/2"
    others = [QMatrix(3, 2, "1/2", dense),
              QMatrix.from_json(json.loads(json.dumps(m.to_json()))),
              to_end_matrix(unit_element(3, 2, a)) * m,
              m * to_end_matrix(unit_element(3, 2, a))]
    for other in others:
        assert other == m and hash(other) == hash(m)
    assert len({m, *others}) == 1
    assert m != QMatrix(3, 2, 2, dense)     # same entries, another radicand


# -- pinned displays and reports -----------------------------------------------------

def test_nine_matrices_pinned():
    assert nine_matrices_report(Fraction(2)).status == "pass"
    assert nine_matrices_report(Fraction(7, 3)).status == "pass"


def test_iso_reports():
    assert iso_check(3, 1, Fraction(2)).status == "pass"
    assert iso_check(3, 1, Fraction(2), seed=7).status == "pass"


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2)])
def test_hom_subalgebra_dimension(n, m):
    pairs, dim = hom_subalgebra_basis(3, n, m)
    assert dim == 3 ** (n + m)
    assert len(pairs) == dim
    assert hom_subalgebra_dimension_report(3, n, m, Fraction(2)).status == "pass"
    assert hom_subalgebra_closure_check(3, n, m, Fraction(2)).status == "pass"


def test_hom_subalgebra_closure_computes_every_product(monkeypatch):
    # the kernel is called once per left factor w^j1 # e_i1, on the right
    # factors w^j2 # e_i2 of its residue class j2 + i2 = i1 (mod go) alone.
    # Each ordered pair it is passed is passed once and lies in that class,
    # and every pair it is not passed multiplies to the zero matrix in the
    # End_Q(K) model, which does not go through the kernel.  At (2, 1) some
    # classes are empty
    passed = []

    def recording_kernel(go, a, xterms, yterms):
        passed.extend((x, y) for x in xterms for y in yterms)
        return _product_terms(go, a, xterms, yterms)

    monkeypatch.setattr(smash_end, "_product_terms", recording_kernel)
    a = Fraction(3, 5)
    for n, m in [(2, 3), (2, 1)]:
        passed.clear()
        assert hom_subalgebra_closure_check(3, n, m, a).status == "pass"
        pairs, dim = hom_subalgebra_basis(3, n, m)
        level = max(n, m)
        go = 3 ** level
        assert all(c1 == c2 == 1 for (_, c1), (_, c2) in passed)
        keys = [(x, y) for (x, _), (y, _) in passed]
        assert len(set(keys)) == len(keys)
        assert all((j2 + i2) % go == i1 for (_, i1), (j2, i2) in keys)
        every = {(x, y) for x in pairs for y in pairs}
        assert set(keys) <= every
        skipped = every - set(keys)
        assert len(keys) + len(skipped) == dim * dim
        mats = {x: to_end_matrix(SmashElt.basis(3, level, a, *x)) for x in pairs}
        assert all(not (mats[x] * mats[y]).entries for x, y in skipped)


def test_hom_subalgebra_closure_fails_on_a_pair_outside_the_span(monkeypatch):
    # at (n, m) = (2, 1) the span is the pairs with 3 | j + i.  Appended last,
    # (1, 0) is the first left factor whose products leave it.  Its nonzero
    # products come from the right factors (j, i) with 9 | j + i: (0, 0)
    # gives (1, 0) itself, then w # e_0 times w # e_8 is w^2 # e_8
    pairs, dim = hom_subalgebra_basis(3, 2, 1)
    assert (1, 0) not in pairs
    monkeypatch.setattr(smash_end, "hom_subalgebra_basis",
                        lambda p, n, m: (pairs + [(1, 0)], dim + 1))
    report = hom_subalgebra_closure_check(3, 2, 1, Fraction(2))
    assert report.status == "fail"
    assert report.witness == {"left": (1, 0), "right": (1, 8), "escapes": (2, 8)}
