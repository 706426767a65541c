"""Group-ring structure maps and the diagonal Galois action."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hopfgal.cyclotomic import CycloElt, FieldDescriptor, terms_to_vector, unit_apply
from hopfgal.groupring import (GroupRingElt, diag_action, diag_action_unit,
                               fixed_ring_kernel, twisted_kernel)
from hopfgal.hopfgalois import e_basis
from hopfgal.linalg import sparse_nullspace
from hopfgal.profinite import nu_groupring

from groupring_tools import (TensorElt, dense_add, dense_diag_action_unit,
                             dense_neg, dense_nu, dense_scale, dense_sub,
                             gr_antipode, gr_comul, gr_counit, gr_mul)
from oracle_tools import action_rows, oracle_nullity, oracle_unit_apply

# The values of st.fractions(min_value=-2, max_value=2, max_denominator=3),
# simplest first.  Sampling them directly skips the per-draw flatmap of
# st.fractions, which took most of the time of these tests' 54-cell draws.
frac = st.sampled_from(sorted(
    {Fraction(k, d) for d in (1, 2, 3) for k in range(-2 * d, 2 * d + 1)},
    key=lambda f: (f.denominator, abs(f), f < 0)))


def ring_elements(p, n):
    field = FieldDescriptor(p, n)
    deg, go = field.degree, field.modulus

    def build(flat):
        coeffs = [CycloElt(field, flat[b * deg:(b + 1) * deg])
                  for b in range(go)]
        return GroupRingElt(field, enumerate(coeffs), go)

    return st.lists(frac, min_size=go * deg, max_size=go * deg).map(build)


def cyclo_elements(field):
    return st.lists(frac, min_size=field.degree, max_size=field.degree).map(
        lambda cs: CycloElt(field, cs))


def sparse_elements(p, n, max_cells=3):
    """Elements with at most `max_cells` nonzero cells, built from terms."""
    field = FieldDescriptor(p, n)
    return st.dictionaries(st.integers(0, field.modulus - 1), cyclo_elements(field),
                           max_size=max_cells).map(
        lambda cells: GroupRingElt(field, cells.items()))


def monomials(p, n):
    """Elements with exactly one nonzero cell: the one-cell branch of the
    maps."""
    field = FieldDescriptor(p, n)
    return st.tuples(st.integers(0, field.modulus - 1),
                     cyclo_elements(field).filter(bool)).map(
        lambda cell: GroupRingElt(field, [cell]))


def assert_matches_dense(x, cells):
    """x is the element with these dense cells, in canonical sparse form."""
    assert x.coeffs == tuple(cells)
    assert x == GroupRingElt(x.field, enumerate(cells), x.group_order)
    exponents = [b for b, _ in x.terms]
    assert exponents == sorted(set(exponents))
    assert all(c for _, c in x.terms)


# -- ring and Hopf structure --------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
@given(data=st.data())
def test_group_ring_is_a_ring(p, n, data):
    x = data.draw(ring_elements(p, n))
    y = data.draw(ring_elements(p, n))
    z = data.draw(ring_elements(p, n))
    assert gr_mul(x, y) == gr_mul(y, x)      # cyclic group: commutative
    assert gr_mul(gr_mul(x, y), z) == gr_mul(x, gr_mul(y, z))
    assert gr_mul(x, y + z) == gr_mul(x, y) + gr_mul(x, z)
    one = GroupRingElt.one(x.field)
    assert gr_mul(x, one) == x


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_hopf_maps_on_group_basis(p, n):
    field = FieldDescriptor(p, n)
    go = field.modulus
    for b in range(go):
        s = GroupRingElt.sigma_power(field, b)
        # group-likes: comultiplication is diagonal, counit 1, antipode inverse
        assert gr_comul(s) == TensorElt(field, {(b, b): CycloElt.one(field)}, go)
        assert gr_counit(s) == CycloElt.one(field)
        assert gr_antipode(s) == GroupRingElt.sigma_power(field, -b)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
@given(data=st.data())
def test_counit_and_antipode_are_linear(p, n, data):
    x = data.draw(ring_elements(p, n))
    y = data.draw(ring_elements(p, n))
    assert gr_counit(x + y) == gr_counit(x) + gr_counit(y)
    assert gr_antipode(x + y) == gr_antipode(x) + gr_antipode(y)
    # antipode is an algebra map here (commutative ring)
    assert gr_antipode(gr_mul(x, y)) == gr_mul(gr_antipode(x), gr_antipode(y))


# -- sparse cells against the dense reference ---------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_sparse_maps_match_dense_reference(p, n, data):
    x = data.draw(sparse_elements(p, n))
    y = data.draw(sparse_elements(p, n))
    c = data.draw(cyclo_elements(x.field))
    assert_matches_dense(x + y, dense_add(x, y))
    assert_matches_dense(x - y, dense_sub(x, y))
    assert_matches_dense(-x, dense_neg(x))
    assert_matches_dense(x.scale(c), dense_scale(x, c))
    one_cell = data.draw(monomials(p, n))
    assert len(one_cell.terms) == 1
    for u in range(1, p ** n):
        if u % p:
            for z in (x, one_cell):
                assert_matches_dense(diag_action_unit(u, z),
                                     dense_diag_action_unit(u, z))


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3)])
@given(data=st.data())
def test_sparse_truncation_matches_dense_reference(p, n, data):
    x = data.draw(sparse_elements(p, n, max_cells=5))
    one_cell = data.draw(monomials(p, n))
    assert len(one_cell.terms) == 1
    for i in range(1, n):
        for z in (x, one_cell):
            assert_matches_dense(nu_groupring(n, i, z), dense_nu(i, z))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_cancellation_leaves_no_zero_cell(p, n, data):
    x = data.draw(sparse_elements(p, n))
    z = data.draw(sparse_elements(p, n))
    assert (x + -x).terms == () and (x - x).terms == ()
    assert not x - x and (x - x) == GroupRingElt.zero(x.field)
    assert ((x + z) - x).terms == z.terms
    if x:
        head = GroupRingElt(x.field, x.terms[:1])
        assert (x - head).terms == x.terms[1:]
    assert x.scale(0).terms == ()


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3)])
@given(data=st.data())
def test_truncation_drops_a_cancelled_cell(p, n, data):
    field = FieldDescriptor(p, n)
    i = data.draw(st.integers(1, n - 1))
    b = data.draw(st.integers(0, field.modulus - p ** i - 1))
    c = data.draw(cyclo_elements(field).filter(bool))
    x = GroupRingElt(field, [(b, c), (b + p ** i, -c)])
    assert len(x.terms) == 2
    down = nu_groupring(n, i, x)
    assert down.terms == () and down == GroupRingElt.zero(field, p ** i)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3)])
@given(data=st.data())
def test_truncation_merges_cells_over_different_denominators(p, n, data):
    # target k gets three cells that cancel, one over a denominator with a
    # 7 in it; target t gets cells over that denominator and over another
    field = FieldDescriptor(p, n)
    i = data.draw(st.integers(1, n - 1))
    tgt = p ** i
    k, t = data.draw(st.lists(st.integers(0, tgt - 1), min_size=2, max_size=2,
                              unique=True))
    c1, c2 = (data.draw(cyclo_elements(field).filter(bool)) for _ in range(2))
    c1 = c1 * Fraction(1, 7)
    assert c1.den % 7 == 0 and c2.den % 7 != 0
    x = GroupRingElt(field, [(k, c1), (k + tgt, c2), (k + 2 * tgt, -(c1 + c2)),
                             (t, c1), (t + tgt, c2)])
    down = nu_groupring(n, i, x)
    assert_matches_dense(down, dense_nu(i, x))
    assert k not in dict(down.terms)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_dense_and_sparse_construction_agree(p, n, data):
    x = data.draw(sparse_elements(p, n))
    y = data.draw(sparse_elements(p, n))
    u = data.draw(st.sampled_from([v for v in range(1, p ** n) if v % p]))
    for z in (x, x + y, diag_action_unit(u, x - y)):
        # with or without a zero cell (at p^n = 3, three cells fill the group)
        assert z.to_json() == [c.to_json() for c in z.coeffs]
        dense = GroupRingElt(z.field, enumerate(z.coeffs))
        assert dense == z and hash(dense) == hash(z)
        assert dense.terms == z.terms


def test_constructor_refuses_bad_terms():
    field = FieldDescriptor(3, 1)
    one = CycloElt.one(field)
    with pytest.raises(ValueError):
        GroupRingElt(field, [(3, one)])                 # exponent out of range
    with pytest.raises(ValueError):
        GroupRingElt(field, [(1, one), (1, one)])       # exponent given twice
    with pytest.raises(ValueError):
        GroupRingElt(field, [(0, CycloElt.one(FieldDescriptor(3, 2)))])
    x = GroupRingElt(field, [(2, one), (0, CycloElt.zero(field)), (1, -one)])
    assert x.terms == ((1, -one), (2, one))


# -- diagonal action -----------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_diag_action_is_ring_automorphism(p, n, data):
    x = data.draw(ring_elements(p, n))
    y = data.draw(ring_elements(p, n))
    u = data.draw(st.sampled_from(
        [v for v in range(1, p ** n) if v % p != 0]))
    assert diag_action_unit(u, gr_mul(x, y)) == \
        gr_mul(diag_action_unit(u, x), diag_action_unit(u, y))
    assert diag_action_unit(u, x + y) == \
        diag_action_unit(u, x) + diag_action_unit(u, y)
    assert diag_action_unit(1, x) == x


def cellwise_unit_apply(u, x):
    """The diagonal action built cell by cell through the public
    `unit_apply`, each cell checked again, and the public constructor."""
    go = x.group_order
    return GroupRingElt(x.field, [((b * u) % go, unit_apply(u, c)) for b, c in x.terms], go)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (3, 3)])
@given(data=st.data())
def test_diag_action_unit_is_the_cellwise_unit_apply(p, n, data):
    field = FieldDescriptor(p, n)
    m = field.modulus
    b, k = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    inputs = [data.draw(sparse_elements(p, n, max_cells=4)),
              data.draw(monomials(p, n)),
              # one shared root-of-unity cell: the lookup branch of the move
              GroupRingElt(field, [(b, field.cells[k])]),
              GroupRingElt(field, [(b, field.powers[k]), ((b + 1) % m, field.cells[k])])]
    if n >= 2:                                  # a truncated group, same field
        inputs.append(nu_groupring(n, n - 1, inputs[0]))
    for u in (1, field.multiplier, m - 1, field.multiplier + m):
        for x in inputs:
            got = diag_action_unit(u, x)
            assert got == cellwise_unit_apply(u, x)
            assert_matches_dense(got, list(got.coeffs))
            cells = dict(got.terms)
            for b0, c in x.terms:
                moved = cells[(b0 * u) % x.group_order]
                assert list(moved.coeffs) == oracle_unit_apply(p, n, u, c.coeffs)


def test_diag_action_rejects_non_units():
    # u is checked once per element, whatever its shape: no cell, one cell,
    # every cell, a truncated group
    field = FieldDescriptor(3, 2)
    for x in (GroupRingElt.one(FieldDescriptor(3, 1)), GroupRingElt.zero(field),
              GroupRingElt.one(field), e_basis(3, 2, 4),
              nu_groupring(2, 1, e_basis(3, 2, 4))):
        for u in (3, 0, 6, -3):
            with pytest.raises(ValueError, match="^%d is not a unit multiplier$" % u):
                diag_action_unit(u, x)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_diag_action_has_full_order(p, n):
    field = FieldDescriptor(p, n)
    x = GroupRingElt.sigma_power(field, 1).scale(CycloElt.zeta_power(field, 1))
    cur = x
    for _ in range(field.degree):
        cur = diag_action(cur)
    assert cur == x
    if field.degree > 1:
        assert diag_action(x) != x


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (3, 3)])
def test_diag_action_fixes_every_idempotent(p, n):
    go = p ** n
    units = [u for u in (1, p + 1, go - 1, go - p + 1) if u % p != 0]
    for i in range(go):
        e = e_basis(p, n, i)
        for u in units:
            assert diag_action_unit(u, e) == e


# -- fixed ring -----------------------------------------------------------------

def fixed_ring_rows(p, n):
    """The full-grid rows of (diagonal generator - id) and their column
    count: cell b holds the coefficient of sigma^b, sent to sigma^(b*pi)."""
    field = FieldDescriptor(p, n)
    go, pi = field.modulus, field.multiplier
    return (action_rows(field, pi, [((b * pi) % go, 0) for b in range(go)]),
            go * field.degree)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_fixed_ring_dimension_matches_sympy(p, n):
    rows, ncols = fixed_ring_rows(p, n)
    kernel = sparse_nullspace(rows, ncols)
    assert len(kernel) == p ** n
    dense = [[row.get(c, Fraction(0)) for c in range(ncols)] for row in rows]
    assert oracle_nullity(dense, ncols) == p ** n


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1),
                                 (5, 2), (5, 3), (7, 1), (7, 2)])
def test_fixed_ring_is_the_full_grid_kernel_basis(p, n):
    """The orbit-wise basis is the canonical kernel basis of the full-grid
    rows: the same vectors in the same order."""
    rows, ncols = fixed_ring_rows(p, n)
    assert ([terms_to_vector(terms) for terms in fixed_ring_kernel(p, n)]
            == sparse_nullspace(rows, ncols))


def assert_full_grid_kernel(p, n, generators, copies, width):
    """`twisted_kernel` is the canonical kernel basis of the full-grid rows
    of its generators, whose moves are written out here: a generator
    (u, s, twist) sends cell k*width + B to (twist*k mod copies)*width + B,
    times zeta^(s*B)."""
    field = FieldDescriptor(p, n)
    rows = [row for u, s, twist in generators
            for row in action_rows(field, u, [((twist * k) % copies * width + B, s * B)
                                              for k in range(copies)
                                              for B in range(width)])]
    assert ([terms_to_vector(terms)
             for terms in twisted_kernel(p, n, generators, copies, width)]
            == sparse_nullspace(rows, copies * width * field.degree))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
@pytest.mark.parametrize("k", [0, 2, -1])
def test_twisted_forms_of_the_group_ring_are_full_grid_kernel_bases(p, n, k):
    """The Hopf forms of Q[C_{p^n}] with twist pi^k, k != 1, which no library
    caller builds yet: zeta -> zeta^pi with sigma^b -> sigma^(pi^k * b) on
    the p^n width-1 cells."""
    field = FieldDescriptor(p, n)
    pi = field.multiplier
    assert_full_grid_kernel(p, n, [(pi, 0, pow(pi, k, field.modulus))],
                            field.modulus, 1)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
@pytest.mark.parametrize("which", ["one", "two"])
def test_twisted_root_scalings_are_full_grid_kernel_bases(p, n, which):
    """A twist != 1 together with w -> zeta^s w, s != 0, on the p^n x p^n
    grid, for one generator and for two."""
    field = FieldDescriptor(p, n)
    pn, pi = field.modulus, field.multiplier
    generators = {"one": [(pi, 1, pi * pi % pn)],
                  "two": [(1, 1, pi), (pi, p, 1)]}[which]
    assert_full_grid_kernel(p, n, generators, pn, pn)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
def test_fixed_ring_elements_are_pointwise_fixed(p, n):
    field = FieldDescriptor(p, n)
    # the public constructor checks every cell of every kernel vector, and
    # keeps its terms as they are: they are canonical already
    kernel = fixed_ring_kernel(p, n)
    basis = [GroupRingElt(field, terms) for terms in kernel]
    assert [x.terms for x in basis] == kernel
    assert len(basis) == p ** n
    for x in basis:
        assert diag_action(x) == x
        assert diag_action_unit(field.multiplier, x) == x
