"""Truncation tower, coherent sequences, and the residue model of the limit."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from hopfgal import cli, profinite
from hopfgal.cyclotomic import CycloElt, FieldDescriptor, unit_apply
from hopfgal.groupring import GroupRingElt
from hopfgal.hopfgalois import HopfElt
from hopfgal.profinite import (CoherentH, PadicTrunc, coherent_sequence_check,
                               commute_square_check, delta_inf_action,
                               fixed_truncation_check, generator_sequence,
                               nu_consistency_check,
                               nu_groupring, nu_h, padd, padic_model_check,
                               pmul)

ints = st.integers(-500, 500)


# -- group-ring truncation -------------------------------------------------------

def test_nu_groupring_collapses_exponents():
    field = FieldDescriptor(3, 2)
    x = GroupRingElt.sigma_power(field, 7)     # 7 mod 3 == 1
    down = nu_groupring(2, 1, x)
    assert down.group_order == 3
    assert down.coeffs[1] == CycloElt.one(field)
    assert down.coeffs[0] == CycloElt.zero(field)


def test_nu_groupring_validates_levels():
    field = FieldDescriptor(3, 2)
    for x in (GroupRingElt.one(field), GroupRingElt.sigma_power(field, 4)):
        for j in (1, 3):                       # wrong source level: the field's is 2
            with pytest.raises(ValueError,
                               match="^element does not live at level %d$" % j):
                nu_groupring(j, 1, x)
        # the right field level with a truncated group is not level 2 either
        with pytest.raises(ValueError, match="^element does not live at level 2$"):
            nu_groupring(2, 1, nu_groupring(2, 1, x))
        for i in (0, 2, 3, -1):                # target not below source
            with pytest.raises(ValueError,
                               match=r"^need 1 <= target < source, got 2 -> %d$" % i):
                nu_groupring(2, i, x)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2)])
def test_nu_h_on_idempotent_indices(p, n):
    go = p ** n
    for i in range(go):
        down = nu_h(n, HopfElt.basis_vector(p, n, i))
        if i % p == 0:
            assert down == HopfElt.basis_vector(p, n - 1, i // p)
        else:
            assert not down
    # surjective: every target basis vector is hit
    for k in range(p ** (n - 1)):
        assert nu_h(n, HopfElt.basis_vector(p, n, p * k)) == \
            HopfElt.basis_vector(p, n - 1, k)


def test_nu_h_composes_down_the_tower():
    p = 3
    for i in range(27):
        twice = nu_h(2, nu_h(3, HopfElt.basis_vector(p, 3, i)))
        expected = (HopfElt.basis_vector(p, 1, i // 9) if i % 9 == 0
                    else HopfElt(p, 1, [0] * 3))
        assert twice == expected


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3)])
def test_truncation_reports(p, n):
    assert nu_consistency_check(p, n).status == "pass"
    assert commute_square_check(p, n, n - 1).status == "pass"


def test_commute_square_fails_when_the_truncation_shifts_exponents(monkeypatch):
    # a truncation that also shifts by one, b -> (b + 1) mod p^i, does not
    # commute with sigma^b -> sigma^(u*b) for u != 1: already 1 = zeta^0 sigma^0
    # goes to sigma^1 one way and to sigma^u the other
    real = profinite.nu_groupring

    def shifted(j, i, x):
        down = real(j, i, x)
        go = down.group_order
        return GroupRingElt(down.field, [((b + 1) % go, c) for b, c in down.terms], go)

    monkeypatch.setattr(profinite, "nu_groupring", shifted)
    report = commute_square_check(3, 2, 1)
    assert report.status == "fail"
    assert report.witness == {"zeta_exp": 0, "sigma_exp": 0}


def test_commute_square_fails_on_an_action_that_is_not_diagonal(monkeypatch):
    # sigma^b -> sigma^((u*b + b // p) mod p^n) agrees with the diagonal action
    # on b < p, where b // p is 0, and on every level-1 exponent; at level 2,
    # b = 3 goes to 3u + 1 and truncates to 1, against 0 the other way
    def skewed(x):
        p, go, u = x.field.p, x.group_order, x.field.multiplier
        return GroupRingElt(x.field, [((u * b + b // p) % go, unit_apply(u, c))
                                      for b, c in x.terms], go)

    monkeypatch.setattr(profinite, "diag_action", skewed)
    report = commute_square_check(3, 2, 1)
    assert report.status == "fail"
    assert report.witness == {"zeta_exp": 0, "sigma_exp": 3}


def test_commute_square_fails_when_the_truncation_changes_a_coefficient_inside_a_residue_class(
        monkeypatch):
    # a truncation that doubles the coefficient of sigma^3 at (3,2) -> 1:
    # sigma^3 and sigma^0 share the truncated exponent 0 but not their
    # image, so delta(nu(sigma^3)) may not be the one kept for sigma^0.
    # Reused on the exponent alone it would be, and the square would fail
    # only at b = 6, where delta(sigma^6) = sigma^3 is doubled on the left.
    real = profinite.nu_groupring

    def doubled(j, i, x):
        return real(j, i, GroupRingElt(x.field, [(b, c + c if b == 3 else c)
                                                 for b, c in x.terms], x.group_order))

    monkeypatch.setattr(profinite, "nu_groupring", doubled)
    report = commute_square_check(3, 2, 1)
    assert report.status == "fail"
    assert report.witness == {"zeta_exp": 0, "sigma_exp": 3}


def test_commute_square_acts_once_per_truncated_monomial(monkeypatch):
    # at (3,3) -> 1: phi = 18 coefficients; each of the 27 monomials runs
    # delta on its left side, and delta(nu(x)) runs once per truncated
    # exponent, 3 per coefficient: 18*27 + 18*3 calls
    calls = []
    real = profinite.diag_action

    def counted(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(profinite, "diag_action", counted)
    assert commute_square_check(3, 3, 1).status == "pass"
    assert len(calls) == 18 * 27 + 18 * 3


# -- coherent sequences ------------------------------------------------------------

def test_generator_sequence_is_coherent():
    c = generator_sequence(3, 3, 2)
    assert c.levels[0] == HopfElt.basis_vector(3, 1, 2)
    assert c.levels[1] == HopfElt.basis_vector(3, 2, 6)
    assert c.levels[2] == HopfElt.basis_vector(3, 3, 18)
    for n in (2, 3):
        assert nu_h(n, c.levels[n - 1]) == c.levels[n - 2]


def test_broken_sequence_rejected():
    # nu_h of the level-2 idempotent e_1 is not the level-1 e_1, so the
    # constructor itself refuses the pair
    with pytest.raises(ValueError, match="sequence breaks at level 2"):
        CoherentH(3, (HopfElt.basis_vector(3, 1, 1),
                      HopfElt.basis_vector(3, 2, 1)))


def test_levels_are_stored_as_a_tuple():
    levels = [HopfElt.basis_vector(3, 1, 2), HopfElt.basis_vector(3, 2, 6)]
    c = CoherentH(3, levels)
    assert c.levels == tuple(levels)
    assert c == generator_sequence(3, 2, 2)


def test_coherent_json_round_trip():
    c = generator_sequence(5, 2, 3)
    assert CoherentH.from_json(c.to_json()) == c
    assert sorted(c.to_json()) == ["levels", "p"]          # L is len(levels)


@pytest.mark.parametrize("data, message", [
    ({"p": 3, "levels": ["120"]}, "must be a list"),
    ({"p": 3, "levels": "1"}, "must be a list"),
    ([3, [["1/1", "0/1", "0/1"]]], "must be an object"),
    ("{}", "must be an object"),
    ({"p": "p", "levels": [["1/1", "0/1", "0/1"]]}, "'p' must be an integer"),
    ({"p": True, "levels": [["1/1", "0/1"]]}, "'p' must be an integer"),
    ({"p": 4, "levels": [["1/1", "0/1", "0/1", "0/1"]]}, "odd prime, got 4"),
    ({"p": 2, "levels": [["1/1", "0/1"]]}, "odd prime, got 2"),
    ({"levels": [["1/1", "0/1", "0/1"]]}, "'p' is missing"),
    ({"p": 3}, "'levels' is missing"),
    ({"p": 3, "levels": {"1": ["1/1", "0/1", "0/1"]}}, "'levels' must be a list"),
    # 10^18 + 3 is prime and decided at once; 2^89 - 1 is prime but past
    # the bound below which primality is decided
    ({"p": 1000000000000000003, "levels": []}, "expected at least one level"),
    ({"p": 2 ** 89 - 1, "levels": []}, "is not decided"),
])
def test_coherent_json_refuses_other_shapes(data, message):
    with pytest.raises(ValueError, match=message):
        CoherentH.from_json(data)


def test_depth_is_read_off_the_levels_and_the_residues():
    assert [f.name for f in dataclasses.fields(CoherentH)] == ["p", "levels"]
    assert [f.name for f in dataclasses.fields(PadicTrunc)] == ["p", "residues"]
    assert generator_sequence(3, 3, 2).L == 3
    assert PadicTrunc.from_int(5, 4, 7).L == 4
    with pytest.raises(ValueError):
        CoherentH(3, [])
    with pytest.raises(ValueError):
        PadicTrunc(3, ())


# -- residue model of the limit ------------------------------------------------------

@pytest.mark.parametrize("p,L", [(3, 3), (5, 2)])
@given(x=ints, y=ints)
def test_residue_arithmetic_matches_integers(p, L, x, y):
    fx, fy = PadicTrunc.from_int(p, L, x), PadicTrunc.from_int(p, L, y)
    assert padd(fx, fy) == PadicTrunc.from_int(p, L, x + y)
    assert pmul(fx, fy) == PadicTrunc.from_int(p, L, x * y)


@pytest.mark.parametrize("op", [padd, pmul])
@pytest.mark.parametrize("other", [(3, 3), (5, 2)])
def test_residue_arithmetic_refuses_mismatched_truncations(op, other):
    with pytest.raises(ValueError):
        op(PadicTrunc.from_int(3, 2, 4), PadicTrunc.from_int(*other, 4))


def test_unit_flag_is_derived():
    assert PadicTrunc.from_int(3, 2, 4).unit is True
    assert PadicTrunc.from_int(3, 2, 6).unit is False
    assert PadicTrunc(3, (1, 4)).unit is True
    assert PadicTrunc(3, (0, 3)).unit is False


def test_incompatible_residues_rejected():
    with pytest.raises(ValueError):
        PadicTrunc(3, (1, 5))                  # 5 mod 3 != 1


# -- limit action -----------------------------------------------------------------------

def test_limit_action_fixes_idempotent_sequences():
    d = PadicTrunc.from_int(3, 3, 4)
    for i1 in (1, 2):
        c = generator_sequence(3, 3, i1)
        assert delta_inf_action(d, c) == c


def test_limit_action_composes_multiplicatively():
    d1 = PadicTrunc.from_int(3, 2, 4)
    d2 = PadicTrunc.from_int(3, 2, 7)
    c = generator_sequence(3, 2, 1)
    assert delta_inf_action(pmul(d1, d2), c) == \
        delta_inf_action(d1, delta_inf_action(d2, c))


def test_limit_action_requires_units():
    c = generator_sequence(3, 2, 1)
    with pytest.raises(ValueError):
        delta_inf_action(PadicTrunc.from_int(3, 2, 6), c)


# -- suite reports ------------------------------------------------------------------------

def test_profinite_suite_reports():
    assert coherent_sequence_check(3, 3).status == "pass"
    assert padic_model_check(3, 2).status == "pass"
    assert fixed_truncation_check(3, 2).status == "pass"


def test_padic_model_check_reads_the_unit_flag_of_every_sample(monkeypatch):
    # a flag that reads "unit" for 0 must fail the check at the first sample
    monkeypatch.setattr(PadicTrunc, "unit", property(lambda self: True))
    report = padic_model_check(3, 2)
    assert report.status == "fail"
    assert report.witness == {"stage": "unit-flag", "x": 0}


def test_coherent_sequence_check_truncates_only_in_the_constructor(monkeypatch):
    # each of the p-1 generator sequences is built twice (directly and from
    # its JSON), checking its L-1 links; the broken sequence fails at its one
    calls = []
    real = profinite.nu_h

    def counted(n, h):
        calls.append(n)
        return real(n, h)

    monkeypatch.setattr(profinite, "nu_h", counted)
    assert coherent_sequence_check(3, 4).status == "pass"
    assert len(calls) == (3 - 1) * 2 * (4 - 1) + 1 == 13


def test_fixed_truncation_check_fails_when_an_idempotent_repeats(monkeypatch):
    # at level 2 e_1 is replaced by e_0: every idempotent is still fixed, so
    # the rank on the kernel's leading columns must fall short of 9
    real = profinite.e_basis
    monkeypatch.setattr(profinite, "e_basis",
                        lambda p, n, i: real(p, n, 0 if (n, i) == (2, 1) else i))
    report = fixed_truncation_check(3, 2)
    assert report.status == "fail"
    assert report.witness == {"level": 2, "kernel_dim": 9, "span_rank": 8}


def test_fixed_truncation_check_fails_on_a_short_kernel(monkeypatch, capsys):
    # a kernel one vector short at level 2 is a failing report with its
    # witness, not an exception, and the CLI exits 1 on it
    real = profinite.fixed_ring_kernel
    monkeypatch.setattr(profinite, "fixed_ring_kernel",
                        lambda p, n: real(p, n)[:-1] if n == 2 else real(p, n))
    report = fixed_truncation_check(3, 2)
    assert report.status == "fail"
    assert report.witness == {"level": 2, "kernel_dim": 8, "span_rank": 8}
    assert cli.main(["profinite", "--p", "3", "--level", "2"]) == 1
    assert "limit-fixed-points" in capsys.readouterr().out
