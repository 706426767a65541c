"""Exact sparse elimination and the flat cell layout, against sympy oracles
and algebraic invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfgal.cyclotomic import (CycloElt, FieldDescriptor, cells_to_vector,
                                vector_to_cells)
from hopfgal.linalg import SparseEchelon, mat_mul, sparse_nullspace, sparse_rank

from oracle_tools import oracle_rank, oracle_rref

frac = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(st.lists(frac, min_size=n, max_size=n),
                               min_size=m, max_size=m)))


def sparse(rows) -> list[dict[int, Fraction]]:
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows]


def echelon(rows) -> SparseEchelon:
    ech = SparseEchelon()
    for row in rows:
        ech.insert(row)
    return ech


def test_rref_known():
    assert echelon(sparse([[2, 4], [1, 2]])).pivot_rows == {
        0: {0: Fraction(1), 1: Fraction(2)}}


def test_rank_identity():
    assert sparse_rank({i: Fraction(1)} for i in range(5)) == 5


def test_nullspace_known():
    assert sparse_nullspace(sparse([[1, 2], [2, 4]]), 2) == [
        {0: Fraction(-2), 1: Fraction(1)}]


def test_mat_mul_known():
    assert mat_mul([[1, 2]], [[3], [4]]) == [[Fraction(11)]]


@given(matrices())
def test_rank_matches_sympy(rows):
    assert sparse_rank(sparse(rows)) == oracle_rank(rows)


@given(matrices())
def test_nullspace_is_exact_kernel(rows):
    ncols = len(rows[0])
    kernel = sparse_nullspace(sparse(rows), ncols)
    assert len(kernel) == ncols - oracle_rank(rows)
    for v in kernel:
        assert all(sum(x * v.get(c, 0) for c, x in row.items()) == 0
                   for row in sparse(rows))
    if kernel:
        assert sparse_rank(kernel) == len(kernel)


@given(matrices())
def test_rref_is_idempotent(rows):
    ech = echelon(sparse(rows))
    assert echelon(ech.pivot_rows.values()).pivot_rows == ech.pivot_rows


@given(matrices())
def test_sparse_echelon_matches_dense(rows):
    # the reduced echelon form of a row space is unique, so the stored rows
    # are exactly sympy's dense rref, whatever order the rows arrive in
    red, pivots = oracle_rref(rows)
    for order in (rows, rows[::-1]):
        ech = echelon(sparse(order))
        assert ech.pivot_columns() == pivots
        assert [ech.pivot_rows[c] for c in pivots] == sparse(red)


@given(matrices())
def test_sparse_contains_row_space(rows):
    ech = echelon(sparse(rows))
    for row in sparse(rows):
        assert ech.contains(row)
    combo: dict[int, Fraction] = {}
    for row in sparse(rows)[:2]:
        for c, v in row.items():
            combo[c] = combo.get(c, Fraction(0)) + 3 * v
    assert ech.contains(combo)


def test_sparse_insert_reports_rank_growth():
    ech = SparseEchelon()
    assert ech.insert({0: Fraction(2)}) is True
    assert ech.insert({0: Fraction(5)}) is False
    assert ech.insert({1: Fraction(1)}) is True
    assert ech.rank == 2 and ech.pivot_columns() == [0, 1]


# -- the flat cell layout ---------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)])
@given(data=st.data())
def test_cells_round_trip(p, n, data):
    field = FieldDescriptor(p, n)
    coords = st.lists(frac, min_size=field.degree, max_size=field.degree)
    cells = [CycloElt(field, data.draw(coords))
             for _ in range(data.draw(st.integers(1, 4)))]
    vec = cells_to_vector(cells)
    assert all(vec.values())
    assert set(vec) <= set(range(len(cells) * field.degree))
    assert vector_to_cells(field, vec, len(cells)) == cells
    assert cells_to_vector(c.coeffs for c in cells) == vec
