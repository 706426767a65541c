"""Idempotent basis, dual pairing, action on the radical extension."""

import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from hopfgal import hopfgalois, linalg
from hopfgal.cyclotomic import (CycloElt, FieldDescriptor, from_exponents,
                                leading_columns, restrict, terms_to_row,
                                terms_to_vector)
from hopfgal.groupring import GroupRingElt, fixed_ring_kernel
from hopfgal.linalg import sparse_nullspace
from hopfgal.profinite import nu_h
from hopfgal.hopfgalois import (HopfElt, RadicalElt, act, base_change_report,
                                base_change_sigma, dual_pairing,
                                dual_pairing_report, e_basis,
                                fixed_field_check, fixed_ring_reports,
                                h_comul, h_counit,
                                hopf_from_groupring, hopf_to_groupring,
                                is_pth_power, measuring_check,
                                validate_radicand)

from groupring_tools import gr_mul, h_antipode
from oracle_tools import oracle_character_sum, oracle_idempotent, oracle_pairing

frac = st.fractions(min_value=-3, max_value=3, max_denominator=4)


# -- idempotent basis ----------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_e_basis_matches_sympy_oracle(p, n):
    for i in range(p ** n):
        got = e_basis(p, n, i)
        expected = oracle_idempotent(p, n, i)
        assert [list(c.coeffs) for c in got.coeffs] == expected


@pytest.mark.parametrize("p,n", [(3, 1), (3, 3), (5, 2)])
def test_e_basis_cells_are_the_fields_shared_table(p, n):
    """Every cell of every e_i is one of the level's p^n table elements
    zeta^k / p^n, the object itself."""
    field = FieldDescriptor(p, n)
    go = field.modulus
    table = field.cells
    assert len(table) == go and FieldDescriptor(p, n).cells is table
    ids = {id(c) for c in table}
    for i in range(go):
        e = e_basis(p, n, i)
        assert [j for j, _ in e.terms] == list(range(go))
        assert all(id(c) in ids for _, c in e.terms)
        expected = oracle_idempotent(p, n, i)
        for j, c in e.terms:
            assert c is table[-i * j % go]
            assert c == from_exponents(field, ((-i * j, 1),), go)
            assert list(c.coeffs) == expected[j]


def test_e_basis_level_one_pinned_vector():
    # e at (p, n, i) = (3, 1, 1): coefficient 1/3 at sigma^0,
    # (-1/3 - 1/3 zeta) at sigma^1, (1/3 zeta) at sigma^2
    e = e_basis(3, 1, 1)
    assert [c.to_json() for c in e.coeffs] == [
        ["1/3", "0/1"],
        ["-1/3", "-1/3"],
        ["0/1", "1/3"],
    ]


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_e_basis_is_orthogonal_idempotent_partition(p, n):
    field = FieldDescriptor(p, n)
    go = p ** n
    total = GroupRingElt.zero(field)
    for i in range(go):
        ei = e_basis(p, n, i)
        assert gr_mul(ei, ei) == ei
        total = total + ei
        ej = e_basis(p, n, (i + 1) % go)
        assert gr_mul(ei, ej) == GroupRingElt.zero(field)
    assert total == GroupRingElt.one(field)


# -- dual pairing ----------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_dual_pairing_is_kronecker_delta(p, n):
    go = p ** n
    for i in range(go):
        for k in range(go):
            assert dual_pairing(p, n, i, k) == (1 if i == k else 0)


def test_dual_pairing_sampled_against_oracle():
    for (p, n, i, k) in [(3, 1, 1, 1), (3, 1, 1, 2), (3, 2, 4, 4),
                         (3, 2, 4, 7), (5, 1, 0, 3), (7, 1, 6, 6)]:
        assert dual_pairing(p, n, i, k) == oracle_pairing(p, n, i, k)


# -- exponent-table character sums against sympy ----------------------------------

SUM_FIELDS = [(3, 1), (3, 2), (5, 1)]


def oracle_combination(p, n, weighted_exps):
    """sum of c * zeta^e over (e, c) pairs, through the sympy reduction."""
    out = [Fraction(0)] * FieldDescriptor(p, n).degree
    for e, c in weighted_exps:
        for A, v in enumerate(oracle_character_sum(p, n, [e])):
            out[A] += c * v
    return out


@pytest.mark.parametrize("p,n", SUM_FIELDS)
def test_dual_pairing_matches_character_sum_oracle(p, n):
    go = p ** n
    for i in range(go):
        for k in range(go):
            vec = oracle_character_sum(p, n, [(k - i) * j for j in range(go)])
            assert not any(vec[1:])
            assert dual_pairing(p, n, i, k) == Fraction(vec[0], go)


@pytest.mark.parametrize("p,n", SUM_FIELDS)
@given(data=st.data())
def test_groupring_maps_match_character_sum_oracle(p, n, data):
    go = p ** n
    coords = data.draw(st.lists(frac, min_size=go, max_size=go))
    x = hopf_to_groupring(HopfElt(p, n, coords))
    for j, c in enumerate(x.coeffs):
        want = oracle_combination(p, n, [(-i * j, Fraction(ci, go))
                                         for i, ci in enumerate(coords)])
        assert list(c.coeffs) == want
    h = hopf_from_groupring(x)
    for k in range(go):
        value = oracle_combination(p, n, [(A + b * k, v)
                                          for b, c in enumerate(x.coeffs)
                                          for A, v in enumerate(c.coeffs)])
        assert not any(value[1:])
        assert h.coords[k] == value[0]
    # off the span: the first irrational evaluation names the exponent
    r = data.draw(frac.filter(bool))
    y = x + GroupRingElt.sigma_power(x.field, 1).scale(r)
    first = next(k for k in range(go)
                 if any(oracle_combination(p, n, [(A + b * k, v)
                                                  for b, c in enumerate(y.coeffs)
                                                  for A, v in enumerate(c.coeffs)])[1:]))
    with pytest.raises(ValueError, match="at exponent %d is irrational" % first):
        hopf_from_groupring(y)


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 3)])
def test_dual_pairing_report(p, n):
    assert dual_pairing_report(p, n).status == "pass"


# -- Hopf structure on the idempotent basis ---------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_comul_counit_antipode_indices(p, n):
    go = p ** n
    for i in range(go):
        assert set(h_comul(p, n, i)) == {(s, (i - s) % go) for s in range(go)}
        assert h_counit(p, n, i) == (1 if i == 0 else 0)
        assert h_antipode(p, n, i) == (-i) % go


# -- coordinates vs the group ring ------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2)])
@given(data=st.data())
def test_groupring_round_trip(p, n, data):
    go = p ** n
    coords = data.draw(st.lists(frac, min_size=go, max_size=go))
    h = HopfElt(p, n, coords)
    assert hopf_from_groupring(hopf_to_groupring(h)) == h


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_group_generator_is_outside_rational_span(p, n):
    sigma = GroupRingElt.sigma_power(FieldDescriptor(p, n), 1)
    with pytest.raises(ValueError):
        hopf_from_groupring(sigma)


# -- action on the radical extension ----------------------------------------------

@pytest.mark.parametrize("p,n,a", [(3, 1, 2), (3, 2, 2), (5, 1, 3)])
def test_idempotents_project_root_powers(p, n, a):
    go = p ** n
    for i in range(go):
        h = HopfElt.basis_vector(p, n, i)
        for k in range(go):
            x = RadicalElt.w_power(p, n, a, k)
            expected = x if i == k else RadicalElt(p, n, a, [0] * go)
            assert act(h, x) == expected


@given(data=st.data())
def test_action_is_multiplicative_in_h(data):
    p, n, a = 3, 2, Fraction(2)
    go = p ** n
    h1 = HopfElt(p, n, data.draw(st.lists(frac, min_size=go, max_size=go)))
    h2 = HopfElt(p, n, data.draw(st.lists(frac, min_size=go, max_size=go)))
    x = RadicalElt(p, n, a, data.draw(st.lists(frac, min_size=go, max_size=go)))
    assert act(h1, act(h2, x)) == act(h1 * h2, x)
    assert act(HopfElt.unit(p, n), x) == x


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_act_equals_the_public_constructor_result(p, n, data):
    # act builds its result without the constructor's checks; it must be the
    # element the constructor builds from the same coordinates
    go = p ** n
    a = data.draw(st.sampled_from([Fraction(2), Fraction(3, 5), Fraction(-7, 2)]))
    coords = st.lists(st.one_of(st.just(Fraction(0)), frac), min_size=go, max_size=go)
    h = HopfElt(p, n, data.draw(coords))
    x = RadicalElt(p, n, a, data.draw(coords))
    got = act(h, x)
    want = RadicalElt(p, n, a, [c * v for c, v in zip(h.coords, x.coords)])
    assert got == want
    assert hash(got) == hash(want)
    assert type(got.a) is Fraction and type(got.coords) is tuple
    assert all(type(c) is Fraction for c in got.coords)


def test_act_refuses_mismatched_levels():
    x = RadicalElt.w_power(3, 2, 2, 1)
    with pytest.raises(ValueError, match="mismatched levels"):
        act(HopfElt.unit(3, 1), x)
    with pytest.raises(ValueError, match="mismatched levels"):
        act(HopfElt.unit(5, 1), RadicalElt.w_power(3, 1, 2, 1))


def test_root_power_wraps_with_radicand():
    w5 = RadicalElt.w_power(3, 1, 2, 5)        # w^5 = a * w^2 = 2 w^2
    assert w5.coords == (0, 0, Fraction(2))
    x = RadicalElt.w_power(3, 1, 2, 1)
    sq = x * x * x                              # w^3 = a
    assert sq.coords == (Fraction(2), 0, 0)


# -- the sparse layout, against dense references built here -------------------------

def dense_radical_mul(a, x, y) -> list[Fraction]:
    """The product in K from dense coords: w^j * w^k = a^wrap * w^((j+k) mod p^n)."""
    go = len(x)
    acc = [Fraction(0)] * go
    for j in range(go):
        for k in range(go):
            wrap, e = divmod(j + k, go)
            acc[e] += x[j] * y[k] * a ** wrap
    return acc


def q(v) -> str:
    return "%d/%d" % (v.numerator, v.denominator)


def stored_values_are_nonzero(x) -> bool:
    return all(type(v) is Fraction and v for _, v in x.terms) and \
        [i for i, _ in x.terms] == sorted({i for i, _ in x.terms})


def assert_hopf(got: HopfElt, p, n, dense):
    """`got` holds exactly the dense coords, and is the element the public
    constructor builds from them."""
    want = HopfElt(p, n, dense)
    assert list(got.coords) == dense
    assert stored_values_are_nonzero(got)
    assert got == want and hash(got) == hash(want)


def assert_radical(got: RadicalElt, p, n, a, dense):
    want = RadicalElt(p, n, a, dense)
    assert list(got.coords) == dense
    assert stored_values_are_nonzero(got)
    assert got == want and hash(got) == hash(want)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_sparse_elements_match_the_dense_reference(p, n, data):
    go = p ** n
    coords = st.lists(st.one_of(st.just(Fraction(0)), frac), min_size=go, max_size=go)
    a = data.draw(st.sampled_from([Fraction(2), Fraction(3, 5), Fraction(-7, 2)]))
    dh, dg, dx, dy = (data.draw(coords) for _ in range(4))
    c = data.draw(st.one_of(st.just(Fraction(0)), frac))
    h, g = HopfElt(p, n, dh), HopfElt(p, n, dg)
    x, y = RadicalElt(p, n, a, dx), RadicalElt(p, n, a, dy)
    assert h.terms == tuple((i, v) for i, v in enumerate(dh) if v)
    # Hopf elements: sum, difference, pointwise product, scaling
    assert_hopf(h + g, p, n, [u + v for u, v in zip(dh, dg)])
    assert_hopf(h - g, p, n, [u - v for u, v in zip(dh, dg)])
    assert_hopf(h * g, p, n, [u * v for u, v in zip(dh, dg)])
    assert_hopf(h.scale(c), p, n, [c * u for u in dh])
    assert bool(h) == any(dh)
    # radical elements: sum, difference, scalar and field products
    assert_radical(x + y, p, n, a, [u + v for u, v in zip(dx, dy)])
    assert_radical(x - y, p, n, a, [u - v for u, v in zip(dx, dy)])
    assert_radical(x * c, p, n, a, [c * u for u in dx])
    assert_radical(x * y, p, n, a, dense_radical_mul(a, dx, dy))
    # the action and the truncation
    assert_radical(act(h, x), p, n, a, [u * v for u, v in zip(dh, dx)])
    if n >= 2:
        assert_hopf(nu_h(n, h), p, n - 1, [dh[p * k] for k in range(p ** (n - 1))])
    # the group ring: sum_i c_i e_i, built densely, and back
    dense_gr = GroupRingElt.zero(FieldDescriptor(p, n))
    for i, v in enumerate(dh):
        dense_gr = dense_gr + e_basis(p, n, i).scale(v)
    assert hopf_to_groupring(h) == dense_gr
    assert_hopf(hopf_from_groupring(dense_gr), p, n, dh)
    # JSON bytes, and back
    assert json.dumps(h.to_json()) == json.dumps([q(v) for v in dh])
    assert json.dumps(x.to_json(), sort_keys=True) == json.dumps(
        {"radicand": q(a), "coords": [q(v) for v in dx]}, sort_keys=True)
    assert_hopf(HopfElt.from_json(p, n, [q(v) for v in dh]), p, n, dh)


@pytest.mark.parametrize("data", ["123", {"0": "1/1", "1": "0/1", "2": "0/1"},
                                  ("1/1", "0/1", "0/1"), None])
def test_hopf_json_must_be_a_list(data):
    """A string or an object is not read as its characters or keys."""
    with pytest.raises(ValueError, match="must be a list"):
        HopfElt.from_json(3, 1, data)


def test_no_zero_is_stored_after_a_cancellation():
    h = HopfElt(3, 1, [1, Fraction(1, 2), 0])
    assert (h - h).terms == () and not (h - h)
    assert (h + h.scale(-1)).terms == ()
    # disjoint supports under the pointwise product
    assert (h * HopfElt(3, 1, [0, 0, 5])).terms == ()
    assert h.scale(0).terms == ()
    x = RadicalElt(3, 1, 2, [1, 1, 0])
    assert (x - x).terms == () and (x * 0).terms == ()
    # (1 + w)(1 - w + w^2) = 1 + w^3 = 1 + a: the w and w^2 terms cancel
    assert (x * RadicalElt(3, 1, 2, [1, -1, 1])).terms == ((0, Fraction(3)),)
    # the action on a disjoint support, and a wrap into radicand 0
    assert act(HopfElt.basis_vector(3, 1, 2), x).terms == ()
    assert RadicalElt.w_power(3, 1, 0, 4).terms == ()
    # zeros given to the constructors, in any form
    assert HopfElt(3, 1, [0, Fraction(0), "0/7"]).terms == ()
    assert RadicalElt(3, 1, 2, ["-0/3", 0, Fraction(0)]).terms == ()


# -- report-level checks ------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (5, 1)])
def test_measuring_and_fixed_field(p, n):
    assert measuring_check(p, n, Fraction(2)).status == "pass"
    assert fixed_field_check(p, n, Fraction(2)).status == "pass"


def test_fixed_ring_reports_pass():
    for report in fixed_ring_reports(3, 2):
        assert report.status == "pass"


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (7, 1), (3, 3)])
def test_leading_column_rank_equals_the_full_grid_rank(p, n):
    # `restrict` gives the integer numerators of `terms_to_row` over the
    # cells that hold a leading column; its exact values are read through
    # the lcm that `terms_to_row` returns for those same cells
    def restricted(terms):
        phi = terms[0][1].field.degree
        held = {col // phi for col in leads}
        row, den = terms_to_row((c, x) for c, x in terms if c in held)
        nums = restrict(terms, leads)
        assert nums == {c: row[c] for c in leads if c in row}
        return {c: Fraction(v, den) for c, v in nums.items()}

    kernel = fixed_ring_kernel(p, n)
    leads = leading_columns(kernel)
    assert len(set(leads)) == p ** n
    for k, terms in enumerate(kernel):
        vec = terms_to_vector(terms)
        # each kernel vector leads at its largest column, where it is 1 and
        # every other kernel vector is 0
        assert max(vec) == leads[k]
        assert restricted(terms) == {leads[k]: 1}
    es = [e_basis(p, n, i).terms for i in range(p ** n)]
    for terms in es:
        vec = terms_to_vector(terms)
        assert restricted(terms) == {c: vec[c] for c in leads if c in vec}
    full = linalg.sparse_rank(terms_to_vector(terms) for terms in es)
    assert linalg.sparse_rank(restricted(terms) for terms in es) == full == p ** n
    assert linalg.sparse_rank(restrict(terms, leads) for terms in es) == p ** n
    # a repeated idempotent lowers both ranks alike
    repeated = [es[0]] + es[:-1]
    assert linalg.sparse_rank(restricted(terms) for terms in repeated) == \
        linalg.sparse_rank(restrict(terms, leads) for terms in repeated) == \
        linalg.sparse_rank(terms_to_vector(terms) for terms in repeated) == p ** n - 1


def test_fixed_ring_span_fails_when_an_idempotent_repeats(monkeypatch):
    # every idempotent still lies in the kernel, so only the rank can tell
    real = hopfgalois.e_basis
    monkeypatch.setattr(hopfgalois, "e_basis",
                        lambda p, n, i: real(p, n, 0 if i == 1 else i))
    dimension, span = fixed_ring_reports(3, 2)
    assert dimension.status == "pass"
    assert span.status == "fail"
    assert span.witness == {"stage": "rank-mismatch", "kernel_rank": 9,
                            "idempotent_rank": 8}


@pytest.mark.parametrize("p,n,m", [(3, 2, 1), (5, 2, 1)])
def test_base_change(p, n, m):
    coeffs, ok = base_change_sigma(p, n, m)
    assert ok
    assert base_change_report(p, n, m).status == "pass"


@pytest.mark.parametrize("p,n,m", [(3, 2, 1), (3, 3, 1), (3, 3, 2), (5, 2, 1)])
def test_base_change_fold_is_the_termwise_sum(monkeypatch, p, n, m):
    """The one `add_by_key` fold of the shifted idempotent cells is
    sum_i c_i e_i built with `scale` and `+`, and is sigma^(p^(n-m)); with
    every c_i one power of zeta further the check fails."""
    field = FieldDescriptor(p, n)
    step = p ** (n - m)
    folds, real_fold = [], hopfgalois.add_by_key

    def recorded(*args):
        folds.append(real_fold(*args))
        return folds[-1]

    monkeypatch.setattr(hopfgalois, "add_by_key", recorded)
    coeffs, ok = base_change_sigma(p, n, m)
    assert ok and len(folds) == 1
    folded = GroupRingElt(field, folds[0])
    termwise = GroupRingElt.zero(field)
    for i, c in enumerate(coeffs):
        assert c == CycloElt.zeta_power(field, i * step)
        termwise = termwise + e_basis(p, n, i).scale(c)
    assert folded == termwise == GroupRingElt.sigma_power(field, step)

    real_shift = CycloElt.shift
    monkeypatch.setattr(CycloElt, "shift", lambda x, e: real_shift(x, e + 1))
    _, ok = base_change_sigma(p, n, m)
    assert not ok and len(folds) == 2
    mutant = GroupRingElt(field, folds[1])
    assert mutant != termwise
    assert mutant == termwise.scale(CycloElt.zeta_power(field, 1))
    report = base_change_report(p, n, m)
    assert report.status == "fail"
    assert report.witness == {"stage": "identity-or-subfield"}


# -- radicand validation --------------------------------------------------------------

def test_radicand_rule_is_not_a_pth_power_not_a_pnth_power():
    """8 is no 9th power, yet x^9 - 8 = (x^3 - 2)(x^6 + 2x^3 + 4) is
    reducible: the rule refuses p-th powers (Capelli), not only p^n-th."""
    x = sympy.Symbol("x")
    assert sympy.factor_list(x ** 9 - 8) == \
        (1, [(x ** 3 - 2, 1), (x ** 6 + 2 * x ** 3 + 4, 1)])
    assert not is_pth_power(8, 9) and is_pth_power(8, 3)
    with pytest.raises(ValueError, match="is a 3-th power"):
        validate_radicand(3, 8)
    assert sympy.factor_list(x ** 9 - 2) == (1, [(x ** 9 - 2, 1)])
    assert validate_radicand(3, 2) == Fraction(2)


def test_validate_radicand():
    assert validate_radicand(3, 2) == Fraction(2)
    assert validate_radicand(3, Fraction(-2)) == Fraction(-2)
    for bad in (0, 8, -8, Fraction(8, 27), 1):
        with pytest.raises(ValueError):
            validate_radicand(3, bad)
    with pytest.raises(ValueError):
        validate_radicand(5, 32)
    assert is_pth_power(32, 5) and not is_pth_power(31, 5)


def test_fixed_field_check_acts_on_every_idempotent_and_root_power(monkeypatch):
    calls = []

    def counting_act(h, x):
        calls.append((h.coords.index(1), x.coords.index(1)))
        return act(h, x)

    monkeypatch.setattr(hopfgalois, "act", counting_act)
    assert fixed_field_check(3, 2, Fraction(3, 5)).status == "pass"
    assert len(calls) == 81
    assert set(calls) == {(i, k) for i in range(9) for k in range(9)}


def test_fixed_field_check_passes_no_empty_row_to_the_elimination(monkeypatch):
    received = []

    def recording_nullspace(rows, ncols):
        rows = list(rows)
        received.extend(rows)
        return sparse_nullspace(rows, ncols)

    monkeypatch.setattr(linalg, "sparse_nullspace", recording_nullspace)
    report = fixed_field_check(3, 2, Fraction(3, 5))
    assert report.status == "pass"
    # no row is empty and no entry is zero
    assert all(row and all(row.values()) for row in received)
    # block 0 keeps its rows r != 0, and block i != 0 its row i
    assert len(received) == 2 * (9 - 1)


def test_fixed_field_check_fails_under_a_trivial_action(monkeypatch):
    # every idempotent acting as its counit fixes all of K
    monkeypatch.setattr(hopfgalois, "act", lambda h, x: x * h.coords[0])
    report = fixed_field_check(3, 2, Fraction(2))
    assert report.status == "fail"
    assert report.witness["kernel_dimension"] == 9


@pytest.mark.parametrize("counit,witness", [
    # e_1 acting as the counit 1 fixes w^1, and no other e_i moves it
    (lambda p, n, i: Fraction(1 if i % p ** n == 1 else 0),
     {"kernel_dimension": 1, "kernel": [["0/1", "1/1"] + ["0/1"] * 7]}),
    # counit 0 everywhere: e_0 kills w^0, and the other e_i the rest of K
    (lambda p, n, i: Fraction(0), {"kernel_dimension": 0, "kernel": []}),
], ids=["one-at-e1", "zero"])
def test_fixed_field_check_subtracts_the_counit_where_it_is_nonzero(monkeypatch,
                                                                    counit, witness):
    """The counit is subtracted in each block where it is nonzero, whichever
    block that is, and nowhere else."""
    monkeypatch.setattr(hopfgalois, "h_counit", counit)
    report = fixed_field_check(3, 2, Fraction(2))
    assert report.status == "fail"
    assert report.witness == witness


def test_fixed_field_check_fails_under_the_identity_action(monkeypatch):
    # every idempotent acting as the identity fixes only 0
    monkeypatch.setattr(hopfgalois, "act", lambda h, x: x)
    report = fixed_field_check(3, 2, Fraction(2))
    assert report.status == "fail"
    assert report.witness["kernel_dimension"] == 0
