"""Exact sparse elimination and the flat cell layout, against sympy oracles
and algebraic invariants."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from hopfgal.cyclotomic import (CycloElt, FieldDescriptor, terms_to_row,
                                terms_to_vector)
from hopfgal.groupring import GroupRingElt
from hopfgal.linalg import SparseEchelon, sparse_nullspace, sparse_rank

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
        assert sorted(ech.pivot_rows) == pivots
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
    assert ech.rank == 2 and sorted(ech.pivot_rows) == [0, 1]


def test_insert_and_contains_leave_the_rows_unchanged():
    # the echelon pops, scales and reduces the integer row it builds, never
    # the caller's row: int rows come straight from `terms_to_row`
    rows = [{0: 2, 1: 4, 3: -1}, {0: 1, 2: Fraction(1, 3)}, {1: 1, 2: 1, 3: 5}]
    copies = [dict(row) for row in rows]
    ech = SparseEchelon()
    for row in rows:
        assert ech.insert(row) and ech.contains(row)
    assert rows == copies


def test_nullspace_refuses_columns_past_ncols():
    # the matrix has 4 columns; asking for a 2-column kernel must not
    # silently drop columns 2 and 3
    with pytest.raises(ValueError, match="column 3.* 2 columns"):
        sparse_nullspace([{0: 1, 1: 1}, {1: 1, 3: 1}], 2)
    assert len(sparse_nullspace([{0: 1, 1: 1}, {1: 1, 3: 1}], 4)) == 2


# -- the integer core: Fractions only at the boundary ----------------------------

scales = st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12).filter(bool),
                   st.integers(1, 10 ** 6))


def rref_kernel(red, pivots, ncols) -> list[dict[int, Fraction]]:
    """One kernel vector per free column, read off the dense rref."""
    return [{f: Fraction(1), **{p: -red[r][f] for r, p in enumerate(pivots)
                                if red[r][f]}}
            for f in range(ncols) if f not in pivots]


@given(matrices(), st.data())
def test_row_scale_does_not_change_the_echelon(rows, data):
    red, pivots = oracle_rref(rows)
    ncols = len(rows[0])
    scaled = []
    for row in sparse(rows):
        k = data.draw(scales)
        scaled.append({c: k * v for c, v in row.items()})
    plain, big = echelon(sparse(rows)), echelon(scaled)
    assert big.pivot_rows == plain.pivot_rows
    assert [big.pivot_rows[c] for c in pivots] == sparse(red)
    kernel = big.kernel_basis(ncols)
    assert kernel == plain.kernel_basis(ncols) == rref_kernel(red, pivots, ncols)
    # Fractions at the boundary, whatever the integer scale inside
    for vec in [*big.pivot_rows.values(), *kernel]:
        assert all(type(v) is Fraction for v in vec.values())


# -- the flat cell layout ---------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1), (5, 2)])
@given(data=st.data())
def test_cells_round_trip(p, n, data):
    field = FieldDescriptor(p, n)
    coords = st.lists(frac, min_size=field.degree, max_size=field.degree)
    cells = [CycloElt(field, data.draw(coords))
             for _ in range(data.draw(st.integers(1, 4)))]
    vec = terms_to_vector(enumerate(cells))
    assert all(vec.values())
    assert set(vec) <= set(range(len(cells) * field.degree))
    phi = field.degree
    assert [CycloElt(field, [vec.get(c * phi + A, 0) for A in range(phi)])
            for c in range(len(cells))] == cells
    x = GroupRingElt(field, enumerate(cells), len(cells))
    assert terms_to_vector(x.terms) == vec


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_integer_rows_are_the_exact_vectors_over_their_denominator(p, n, data):
    # a row of (cell, `CycloElt`) terms flattens to integer numerators over
    # the lcm of its cells' denominators, and those are terms_to_vector's
    # values exactly; the echelon answers alike on either form
    field = FieldDescriptor(p, n)
    cell = st.lists(frac, min_size=field.degree, max_size=field.degree).map(
        lambda coeffs: CycloElt(field, coeffs))
    rows = st.dictionaries(st.integers(0, 5), cell, min_size=1, max_size=4).map(
        lambda cells: sorted(cells.items()))
    terms = data.draw(st.lists(rows, min_size=1, max_size=4))
    probes = data.draw(st.lists(rows, max_size=2))
    # two of the rows' sum, cell by cell, lies in their span
    both = dict(terms[0])
    for c, x in terms[-1]:
        both[c] = both[c] + x if c in both else x
    probes.append(sorted(both.items()))
    flat, exact = [], []
    for row in terms + probes:
        nums, den = terms_to_row(row)
        assert den == lcm(*[x.den for _, x in row])
        assert all(type(v) is int for v in nums.values())
        assert {c: Fraction(v, den) for c, v in nums.items()} == terms_to_vector(row)
        flat.append(nums)
        exact.append(terms_to_vector(row))
    k = len(terms)
    by_row, by_value = echelon(flat[:k]), echelon(exact[:k])
    assert by_row.rank == by_value.rank == sparse_rank(exact[:k]) == sparse_rank(flat[:k])
    assert by_row.pivot_rows == by_value.pivot_rows
    for nums, vec in zip(flat, exact):
        answers = {ech.contains(v) for ech in (by_row, by_value) for v in (nums, vec)}
        assert len(answers) == 1
    assert all(by_row.contains(nums) for nums in flat[:k] + flat[-1:])
