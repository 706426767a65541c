"""Tests for permutation groups, coset actions, and the structure census.

The holomorph search of the library is cross-checked here against the
exhaustive search over fixed-point-free candidates in `oracle_tools`, and
counts are pinned against hand-checked small cases.  The normal
complements (retraction kernels) are checked against the normal-subgroup
lattice in `oracle_tools`, and the holomorphs against counting formulas.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, strategies as st
from sympy.combinatorics import Permutation as SymPerm, PermutationGroup

from hopfgal import cli, gp_enum
from hopfgal.gp_enum import (
    MAX_DEGREE,
    MAX_INSTANCE_DEGREE,
    CapExceeded,
    CensusInstance,
    FiniteGroup,
    Perm,
    SearchBudgetExceeded,
    UnsupportedInstance,
    almost_classical,
    beta_subgroup,
    census_instances,
    census_json,
    census_reports,
    coset_action,
    cyclotomic_subgroup,
    enumerate_regular_normalized,
    full_galois_group,
    _base,
    _by_order,
    _candidates,
    _generating_sequence,
    _holomorph,
    _models,
    _retraction,
    _search_table,
    _walk,
    instance_from_json,
    instance_to_json,
    is_regular,
    mulclose,
    new_perm,
    push_through_action,
    zeta1_galois_group,
)
from oracle_tools import (oracle_generating_pair, oracle_normal_complements,
                          oracle_normal_subgroups, oracle_regular_normalized,
                          oracle_walk)


def cycle(degree: int) -> Perm:
    """The full cycle 0 -> 1 -> ... -> degree-1 -> 0."""
    return Perm(tuple((i + 1) % degree for i in range(degree)))


def cyclic_group(degree: int) -> FiniteGroup:
    """The regular representation of the cyclic group of that order."""
    return FiniteGroup([cycle(degree)])


def trivial_group(degree: int) -> FiniteGroup:
    return FiniteGroup([Perm.identity(degree)])


def symmetric_3() -> FiniteGroup:
    return FiniteGroup([Perm((1, 2, 0)), Perm((1, 0, 2))])


# the degrees the census catalogue covers under the cost cap: 1, the m with
# gcd(m, phi(m)) = 1, and the squares of primes
ACCEPTED_DEGREES = {1, 2, 3, 4, 5, 7, 9, 11, 13, 15, 17, 19, 23, 25}


def perms(degree: int):
    return st.permutations(range(degree)).map(lambda s: Perm(tuple(s)))


# ---------------------------------------------------------------------------
# Perm


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


@pytest.mark.parametrize("images", [(1.0, 0.0), (True, False), (1, 0.0)],
                         ids=["float", "bool", "mixed"])
def test_perm_refuses_images_that_are_not_int(images):
    # each of these sorts to [0, 1], so only the type check refuses it
    with pytest.raises(ValueError, match="must hold integers"):
        Perm(images)


def test_perm_stores_its_images_as_a_tuple():
    f = Perm([1, 2, 0])
    assert type(f.images) is tuple
    assert f == Perm((1, 2, 0)) and hash(f) == hash(Perm((1, 2, 0)))
    assert f * f == Perm((2, 0, 1))


def test_perm_product_refuses_mixed_degrees():
    with pytest.raises(ValueError):
        Perm((1, 0)) * Perm((1, 2, 0))


def test_perm_composition_convention():
    # (f * g)(x) = f(g(x)): apply the right factor first
    f = Perm((1, 2, 0))
    g = Perm((1, 0, 2))
    assert (f * g).images == (2, 1, 0)
    assert (g * f).images == (0, 2, 1)


@given(perms(5), perms(5), st.integers(min_value=0, max_value=4))
def test_perm_composition_pointwise(f, g, x):
    assert (f * g)(x) == f(g(x))


@given(perms(6))
def test_perm_inverse_and_identity(f):
    ident = Perm.identity(6)
    assert f * f.inverse() == ident
    assert f.inverse() * f == ident
    assert f * ident == f and ident * f == f


@given(perms(7))
def test_perm_order_matches_sympy(f):
    assert f.order() == SymPerm(list(f.images)).order()


@given(perms(7), perms(7))
def test_perm_product_and_inverse_match_sympy(f, g):
    # sympy's p*q applies p first, so f*g here is g*f there
    assert list((f * g).images) == (SymPerm(list(g.images))
                                    * SymPerm(list(f.images))).array_form
    assert list(f.inverse().images) == (~SymPerm(list(f.images))).array_form


@given(perms(7), perms(7))
def test_trusted_and_checked_perms_are_one_value(f, g):
    # the kernels wrap their image tuples with `new_perm`; such a Perm
    # must be equal to, hash like and sort with the checked one
    trusted = new_perm(f.images)
    assert trusted == f and hash(trusted) == hash(f)
    assert sorted([trusted, g]) == sorted([f, g])
    assert (trusted < g) == (f < g) and (g < trusted) == (g < f)


generator_lists = st.integers(min_value=1, max_value=7).flatmap(
    lambda degree: st.lists(perms(degree), min_size=1, max_size=3))


@given(generator_lists)
def test_closure_matches_sympy(gens):
    expected = {tuple(p.array_form) for p in
                PermutationGroup([SymPerm(list(g.images)) for g in gens]).elements}
    closure = mulclose(gens)
    assert {p.images for p in closure} == expected
    # the group's elements: the same set, in the order of sorting Perms
    assert FiniteGroup(gens).elements == tuple(sorted(closure))


def test_fixed_point_free():
    assert cycle(4).is_fixed_point_free()
    assert not Perm((0, 2, 1)).is_fixed_point_free()
    assert not Perm.identity(3).is_fixed_point_free()


# ---------------------------------------------------------------------------
# mulclose and FiniteGroup


def test_mulclose_cyclic():
    closure = mulclose([cycle(5)])
    assert len(closure) == 5
    assert Perm.identity(5) in closure


def test_mulclose_needs_generators():
    with pytest.raises(ValueError):
        mulclose([])


def test_finite_group_rejects_mixed_degrees():
    with pytest.raises(ValueError):
        FiniteGroup([Perm((1, 0)), Perm((1, 2, 0))])


def test_finite_group_is_immutable():
    g = cyclic_group(3)
    with pytest.raises(AttributeError):
        g.degree = 5


def test_finite_group_predicates():
    s3 = symmetric_3()
    assert s3.order == 6
    assert not s3.is_cyclic()
    c6 = cyclic_group(6)
    assert c6.is_cyclic()
    assert FiniteGroup([Perm((1, 2, 0))]) <= s3
    assert not (s3 <= FiniteGroup([Perm((1, 2, 0))]))


# ---------------------------------------------------------------------------
# coset actions


def test_coset_action_identity_coset_is_zero():
    s3 = symmetric_3()
    delta = FiniteGroup([Perm((1, 0, 2))])
    size, action = coset_action(s3, delta)
    assert size == 3
    for d in delta.elements:
        assert action(d)(0) == 0  # delta stabilizes its own coset


def test_coset_action_is_homomorphism():
    # every pair of S3 on 3 cosets, and of the 54 elements of
    # Gal(Q(zeta_9, 2^(1/9))/Q) on its 9 cosets
    for gamma, delta in [(symmetric_3(), FiniteGroup([Perm((1, 0, 2))])),
                         (full_galois_group(3, 2), cyclotomic_subgroup(3, 2))]:
        _, action = coset_action(gamma, delta)
        image = {g: action(g) for g in gamma.elements}
        for g in gamma.elements:
            for h in gamma.elements:
                assert image[g * h] == image[g] * image[h]


@pytest.mark.parametrize("gamma, delta", [
    *((inst.gamma, inst.delta) for inst in census_instances()),
    (full_galois_group(5, 2), cyclotomic_subgroup(5, 2)),
], ids=[inst.label for inst in census_instances()] + ["deg25_over_Q"])
def test_coset_action_is_a_homomorphism_on_the_census_instances(gamma, delta):
    # act(g*h) == act(g)*act(h) for every element g and every generator h,
    # which generate gamma, so act is a homomorphism
    _, action = coset_action(gamma, delta)
    for g in gamma.elements:
        for h in gamma.generators:
            assert action(g * h) == action(g) * action(h)


def test_census_reads_the_coset_action_on_generators_only(monkeypatch):
    read, real = [], gp_enum.coset_action

    def recording(gamma, delta):
        size, act = real(gamma, delta)
        return size, lambda g: read.append(g) or act(g)

    monkeypatch.setattr(gp_enum, "coset_action", recording)
    gamma, delta = full_galois_group(3, 2), cyclotomic_subgroup(3, 2)
    enumerate_regular_normalized(gamma, delta)
    assert read == list(gamma.generators)
    read.clear()
    # one action: the search reads it, then the complements are pushed
    census_json(gamma, delta)
    assert read == list(gamma.generators) + [
        g for comp in almost_classical(gamma, delta) for g in comp.generators]


def test_one_coset_action_per_census_run(monkeypatch, tmp_path):
    calls, real = [], gp_enum.coset_action
    monkeypatch.setattr(gp_enum, "coset_action",
                        lambda gamma, delta: calls.append(gamma) or real(gamma, delta))
    for instance in census_instances():
        calls.clear()
        assert [r.status for r in census_reports(instance)] == ["pass", "pass"]
        assert len(calls) == 1
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance_to_json(full_galois_group(5, 2),
                                                cyclotomic_subgroup(5, 2))))
    calls.clear()
    assert cli.main(["census", str(path), "--format", "json"]) == 0
    assert len(calls) == 1


def test_enumeration_finds_the_image_generators_once(monkeypatch):
    # one generating sequence for the image (order 54), shared by both models
    # of degree 9, and one per structure found
    sizes, real = [], gp_enum._generating_sequence
    monkeypatch.setattr(gp_enum, "_generating_sequence",
                        lambda elements: sizes.append(len(elements)) or
                        real(elements))
    gamma, delta = full_galois_group(3, 2), cyclotomic_subgroup(3, 2)
    assert len(_models(9)) == 2
    results = enumerate_regular_normalized(gamma, delta)
    assert sizes == [54] + [9] * len(results)


def test_coset_action_transitive_image():
    gamma = full_galois_group(3, 1)
    delta = cyclotomic_subgroup(3, 1)
    size, action = coset_action(gamma, delta)
    assert size == gamma.order // delta.order
    reached = {action(g)(0) for g in gamma.elements}
    assert reached == set(range(size))


def test_coset_action_requires_subgroup():
    with pytest.raises(ValueError):
        coset_action(cyclic_group(4), cyclic_group(3))


def test_regular_representation_is_regular():
    size, action = coset_action(cyclic_group(5), trivial_group(5))
    assert size == 5
    image = FiniteGroup([action(cycle(5))])
    assert is_regular(image, 5)


def test_is_regular_rejects_point_stabilizer():
    # a transposition fixes a point, so the full symmetric group on 3
    # points is transitive but not regular
    assert not is_regular(symmetric_3(), 3)
    assert not is_regular(cyclic_group(3), 4)
    # of order 4 on 4 points, but with two orbits: (0 1) fixes 2 and 3
    assert not is_regular(FiniteGroup([Perm((1, 0, 2, 3)),
                                       Perm((0, 1, 3, 2))]), 4)


# ---------------------------------------------------------------------------
# normal subgroups and complements


def test_normal_subgroups_symmetric_3():
    sizes = sorted(len(n) for n in oracle_normal_subgroups(symmetric_3()))
    assert sizes == [1, 3, 6]  # trivial, alternating, full


def test_normal_subgroups_cyclic_4():
    # every subgroup of an abelian group is normal
    sizes = sorted(len(n) for n in oracle_normal_subgroups(cyclic_group(4)))
    assert sizes == [1, 2, 4]


def klein_4() -> FiniteGroup:
    return FiniteGroup([Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))])


COMPLEMENT_CASES = {
    "cubic-radical-over-Q":
        lambda: (full_galois_group(3, 1), cyclotomic_subgroup(3, 1)),
    "ninth-root-radical-over-Q":
        lambda: (full_galois_group(3, 2), cyclotomic_subgroup(3, 2)),
    "ninth-root-radical-over-cyclotomic":
        lambda: (zeta1_galois_group(3, 2), beta_subgroup(3, 2)),
    "S3/C2": lambda: (symmetric_3(), FiniteGroup([Perm((1, 0, 2))])),
    "C4/1": lambda: (cyclic_group(4), trivial_group(4)),
    "C4/C4": lambda: (cyclic_group(4), cyclic_group(4)),
    # C4 does not split over its subgroup of order 2
    "C4/C2": lambda: (cyclic_group(4), FiniteGroup([cycle(4) * cycle(4)])),
    "V4/C2": lambda: (klein_4(), FiniteGroup([Perm((1, 0, 3, 2))])),
    "AGL(1,5)": lambda: affine_action(5, 2),
}


@pytest.mark.parametrize("case", sorted(COMPLEMENT_CASES))
def test_almost_classical_matches_lattice_oracle(case):
    gamma, delta = COMPLEMENT_CASES[case]()
    got = almost_classical(gamma, delta)
    want = oracle_normal_complements(gamma, delta)
    assert [g.elements for g in got] == [g.elements for g in want]
    assert [g.generators for g in got] == [g.generators for g in want]
    if case == "C4/C2":
        assert got == []


def test_almost_classical_ignores_redundant_generators():
    # degree 9 over Q, with gamma given by six generators of which two
    # suffice; only the irredundant ones get images in delta
    base, delta = full_galois_group(3, 2), cyclotomic_subgroup(3, 2)
    s, c = base.generators
    gamma = FiniteGroup([s, c, s * c, c * s, s * s, c * c * s])
    assert gamma == base and len(gamma.generators) == 6
    start = time.perf_counter()
    got = almost_classical(gamma, delta)
    assert time.perf_counter() - start < 1.0
    want = almost_classical(base, delta)
    assert [g.elements for g in got] == [g.elements for g in want]
    assert [g.generators for g in got] == [g.generators for g in want]


def test_almost_classical_symmetric_3():
    s3 = symmetric_3()
    delta = FiniteGroup([Perm((1, 0, 2))])
    complements = almost_classical(s3, delta)
    assert len(complements) == 1
    assert complements[0].order == 3
    assert complements[0].is_cyclic()


def test_almost_classical_requires_subgroup():
    with pytest.raises(ValueError):
        almost_classical(cyclic_group(4), cyclic_group(3))


def test_complements_push_into_enumeration():
    gamma = full_galois_group(3, 1)
    delta = cyclotomic_subgroup(3, 1)
    _, action = coset_action(gamma, delta)
    enumerated = {frozenset(g.elements)
                  for g in enumerate_regular_normalized(gamma, delta)}
    for comp in almost_classical(gamma, delta):
        image = push_through_action(action, comp)
        assert frozenset(image.elements) in enumerated


PUSH_CASES = {inst.label: (inst.gamma, inst.delta)
              for inst in census_instances()}
PUSH_CASES["degree-25-over-Q"] = (full_galois_group(5, 2),
                                  cyclotomic_subgroup(5, 2))


@pytest.mark.parametrize("label", sorted(PUSH_CASES))
def test_pushed_complement_is_the_image_of_all_its_elements(label):
    # push_through_action closes the generators' images; here every element
    # is pushed, and the images form that same closed set
    gamma, delta = PUSH_CASES[label]
    _, action = coset_action(gamma, delta)
    complements = almost_classical(gamma, delta)
    assert complements
    for comp in complements:
        everywhere = {action(x) for x in comp.elements}
        pushed = set(push_through_action(action, comp).elements)
        assert pushed == everywhere == mulclose(everywhere)


# ---------------------------------------------------------------------------
# splitting-field Galois groups (orders are the field degrees)


def test_galois_group_orders():
    assert full_galois_group(3, 1).order == 6     # [Q(zeta_3, 2^(1/3)) : Q]
    assert full_galois_group(3, 2).order == 54    # [Q(zeta_9, 2^(1/9)) : Q]
    assert zeta1_galois_group(3, 2).order == 27   # over Q(zeta_3)
    assert cyclotomic_subgroup(3, 2).order == 6   # fixes the radical
    assert beta_subgroup(3, 2).order == 3


# ---------------------------------------------------------------------------
# the holomorph search agrees with the exhaustive oracle


@pytest.mark.parametrize("p,n,builder", [
    (3, 1, "full"),    # degree 3
    (3, 2, "full"),    # degree 9 over Q
    (3, 2, "zeta1"),   # degree 9
])
def test_engines_agree(p, n, builder):
    if builder == "full":
        gamma, delta = full_galois_group(p, n), cyclotomic_subgroup(p, n)
    else:
        gamma, delta = zeta1_galois_group(p, n), beta_subgroup(p, n)
    naive = oracle_regular_normalized(gamma, delta)
    holo = enumerate_regular_normalized(gamma, delta)
    assert naive == [g.elements for g in holo]


def test_engines_agree_on_cyclic_4_regular():
    gamma, delta = cyclic_group(4), trivial_group(4)
    naive = oracle_regular_normalized(gamma, delta)
    holo = enumerate_regular_normalized(gamma, delta)
    assert naive == [g.elements for g in holo]
    # a cyclic extension of degree 4 carries exactly two structures:
    # the cyclic one and the elementary abelian one
    assert len(naive) == 2
    assert sorted(g.is_cyclic() for g in holo) == [False, True]
    for g in holo:
        assert is_regular(g, 4)


def affine_action(p: int, unit: int) -> tuple[FiniteGroup, FiniteGroup]:
    """AGL(1, p) on F_p, from x -> x + 1 and x -> unit * x (unit primitive),
    with the stabilizer of 0."""
    scale = Perm(tuple(unit * x % p for x in range(p)))
    return FiniteGroup([cycle(p), scale]), FiniteGroup([scale])


@pytest.mark.parametrize("gamma,delta,count", [
    # the regular C2 x C2: itself, and the three cyclic C4, each normal in
    # a dihedral Sylow 2-subgroup of S4 that contains it
    (FiniteGroup([Perm((1, 0, 3, 2)), Perm((2, 3, 0, 1))]), trivial_group(4), 4),
    # the regular C3 x C3, the largest elementary-abelian search
    (FiniteGroup([Perm((3, 4, 5, 6, 7, 8, 0, 1, 2)),
                  Perm((1, 2, 0, 4, 5, 3, 7, 8, 6))]), trivial_group(9), 9),
    # AGL(1, p) over the stabilizer of 0: only the translations
    (*affine_action(5, 2), 1),
    (*affine_action(7, 3), 1),
], ids=["regular-C2xC2", "regular-C3xC3", "AGL(1,5)", "AGL(1,7)"])
def test_engines_agree_on_regular_and_affine_actions(gamma, delta, count):
    naive = oracle_regular_normalized(gamma, delta)
    holo = enumerate_regular_normalized(gamma, delta)
    assert naive == [g.elements for g in holo]
    assert len(naive) == count


# ---------------------------------------------------------------------------
# holomorphs, checked by counting rather than by labelings


def _assert_holomorph(model: FiniteGroup, order: int):
    hol = [Perm(h) for h in _holomorph(model)]
    assert len(hol) == len(set(hol)) == order
    members = set(model.elements)
    for h in hol:
        hi = h.inverse()
        assert all(h * n * hi in members for n in model.generators)


@pytest.mark.parametrize("m", sorted(m for m in ACCEPTED_DEGREES if m >= 2))
def test_cyclic_holomorph_has_m_phi_m_elements(m):
    phi = sum(1 for u in range(1, m) if gcd(u, m) == 1)
    model = next(g for g in _models(m) if g.is_cyclic())
    _assert_holomorph(model, m * phi)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_elementary_holomorph_is_affine_group(p):
    # |AGL(2, p)| = p^2 |GL(2, p)| = p^2 (p^2 - 1)(p^2 - p)
    m = p * p
    model = next(g for g in _models(m) if not g.is_cyclic())
    _assert_holomorph(model, m * (m - 1) * (m - p))


# ---------------------------------------------------------------------------
# the catalogue of model groups, and the gate derived from it


@pytest.mark.parametrize("m", sorted(ACCEPTED_DEGREES))
def test_models_are_regular_with_one_cyclic(m):
    models = _models(m)
    assert len(models) == (2 if m in (4, 9, 25) else 1)
    assert all(is_regular(g, m) for g in models)
    assert sum(g.is_cyclic() for g in models) == 1


def _gate_outcome(m: int) -> str:
    """What the census does at degree m, without running a search.

    A degree under the cap that the catalogue lists is accepted; any other
    degree is refused by the enumeration before its search starts.
    """
    if m <= MAX_DEGREE and _models(m) is not None:
        return "accepted"
    try:
        enumerate_regular_normalized(cyclic_group(m), trivial_group(m))
    except CapExceeded as exc:
        assert (exc.size, exc.cap) == (m, 25)
        return "cap"
    except UnsupportedInstance:
        return "unsupported"
    return "enumerated"


def test_catalogue_gate_on_degrees_1_to_100():
    outcomes = {m: _gate_outcome(m) for m in range(1, 101)}
    assert {m for m, o in outcomes.items() if o == "accepted"} == ACCEPTED_DEGREES
    assert {m for m, o in outcomes.items() if o == "unsupported"} == {
        6, 8, 10, 12, 14, 16, 18, 20, 21, 22, 24}
    assert {m for m, o in outcomes.items() if o == "cap"} == set(range(26, 101))


def test_enumeration_is_deterministic():
    gamma, delta = zeta1_galois_group(3, 2), beta_subgroup(3, 2)
    first = enumerate_regular_normalized(gamma, delta)
    second = enumerate_regular_normalized(gamma, delta)
    assert [g.elements for g in first] == [g.elements for g in second]


def test_trivial_coset_space():
    gamma = cyclic_group(2)
    results = enumerate_regular_normalized(gamma, gamma)
    assert len(results) == 1 and results[0].order == 1


# ---------------------------------------------------------------------------
# refusals


def test_cap_exceeded_generic():
    with pytest.raises(CapExceeded) as exc:
        enumerate_regular_normalized(cyclic_group(30), trivial_group(30))
    assert exc.value.size == 30 and exc.value.cap == 25


def test_cap_exceeded_prime_power():
    with pytest.raises(CapExceeded) as exc:
        enumerate_regular_normalized(cyclic_group(81), trivial_group(81))
    assert exc.value.size == 81 and exc.value.cap == 25


def test_over_cap_degree_refused_before_the_coset_action(monkeypatch):
    def no_action(gamma, delta):
        raise AssertionError("coset_action called for a refused degree")

    monkeypatch.setattr(gp_enum, "coset_action", no_action)
    with pytest.raises(CapExceeded) as exc:
        enumerate_regular_normalized(cyclic_group(81), trivial_group(81))
    assert exc.value.size == 81 and exc.value.cap == 25
    with pytest.raises(UnsupportedInstance):
        enumerate_regular_normalized(cyclic_group(6), trivial_group(6))


def _order_filter(elements, gens) -> list[tuple]:
    """For each generator, the elements of its order, one by one."""
    return [tuple(h for h in elements if Perm(h).order() == Perm(g).order())
            for g in gens]


@pytest.mark.parametrize("gamma, delta", [
    (full_galois_group(3, 2), cyclotomic_subgroup(3, 2)),
    (zeta1_galois_group(3, 2), beta_subgroup(3, 2)),
    (full_galois_group(5, 2), cyclotomic_subgroup(5, 2)),
    (zeta1_galois_group(5, 2), beta_subgroup(5, 2)),
], ids=["deg9_over_Q", "deg9_over_zeta3", "deg25_over_Q", "deg25_over_zeta5"])
def test_candidates_are_the_per_element_order_filter(monkeypatch, gamma, delta):
    """For both models of degree 9 and of degree 25, the candidate lists
    that the holomorph search reads for the action image's generators, and
    those that `_holomorph` reads for the model's own generators, are those
    of filtering each element by order, list for list and in the same
    order."""
    table = _search_table(gamma.order // delta.order)  # built before recording
    assert len(table) == 2
    read = []

    def recording(groups, gens):
        lists = _candidates(groups, gens)
        read.append((groups, gens, lists))
        return lists

    monkeypatch.setattr(gp_enum, "_candidates", recording)
    enumerate_regular_normalized(gamma, delta)
    _, act = coset_action(gamma, delta)
    lam = [g.images for g in
           _generating_sequence(mulclose([act(g) for g in gamma.generators]))]
    assert len(read) == len(table)
    for (model, groups), (read_groups, gens, lists) in zip(table, read):
        assert read_groups is groups and gens == lam
        assert lists == _order_filter(_holomorph(model), gens)
    for model, _ in table:
        read.clear()
        _holomorph(model)
        [(_, gens, lists)] = read
        assert gens == [g.images for g in model.generators]
        assert lists == _order_filter([t.images for t in model.elements], gens)


def _immutable_parts(value):
    """Every container reachable from `value`, each checked immutable."""
    if isinstance(value, (tuple, frozenset)):
        yield type(value)
        for item in value:
            yield from _immutable_parts(item)
    elif dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen
        yield type(value)
        for f in dataclasses.fields(value):
            yield from _immutable_parts(getattr(value, f.name))
    else:
        assert type(value) is int, type(value)


@pytest.mark.parametrize("size", [3, 9, 25])
def test_search_table_is_kept_and_holds_only_immutable_containers(size):
    table = _search_table(size)
    assert _search_table(size) is table
    assert set(_immutable_parts(table)) <= {tuple, frozenset, FiniteGroup, Perm}
    for model, groups in table:
        assert model in _models(size)
        assert groups == _by_order(_holomorph(model))
        assert sorted(h for _, group in groups for h in group) == sorted(
            _holomorph(model))
    assert _search_table(6) is None


def _relabeled(gamma: FiniteGroup, delta: FiniteGroup, seed: int):
    """The instance with its grid points permuted by a seeded shuffle."""
    perm = list(range(gamma.degree))
    random.Random(seed).shuffle(perm)
    pi = Perm(tuple(perm))
    pinv = pi.inverse()
    return [FiniteGroup([pi * g * pinv for g in group.generators])
            for group in (gamma, delta)]


_CENSUS_CHILD = """\
import json, sys
from hopfgal.gp_enum import almost_classical, census_json, instance_from_json
out = []
for data in json.load(sys.stdin):
    gamma, delta = instance_from_json(data)
    out.append([census_json(gamma, delta), len(almost_classical(gamma, delta))])
print(json.dumps(out))
"""


def test_relabeled_census_is_the_same_before_after_and_in_a_fresh_process():
    """The search tables are kept per degree for the process: a census of
    relabeled degree-9 instances run before and after the pinned census
    gives the structures and complement counts of a fresh process."""
    relabeled = [_relabeled(inst.gamma, inst.delta, seed)
                 for seed, inst in enumerate(census_instances())
                 if inst.gamma.order // inst.delta.order == 9]
    assert len(relabeled) == 2

    def census():
        return [[census_json(g, d), len(almost_classical(g, d))]
                for g, d in relabeled]

    _search_table.cache_clear()
    before = census()
    for instance in census_instances():
        assert [r.status for r in census_reports(instance)] == ["pass", "pass"]
    after = census()
    src = str(Path(gp_enum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _CENSUS_CHILD], capture_output=True, text=True,
        input=json.dumps([instance_to_json(g, d) for g, d in relabeled]),
        env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert before == after == json.loads(proc.stdout)
    assert [[data["count"], n] for data, n in before] == [[1, 1], [3, 3]]


def _retraction_tables(gamma: FiniteGroup, delta: FiniteGroup, images):
    """`_walk`'s numbering of gamma on its generators, as the image tuples
    in walk order, and the moves of sending them to `images` in delta,
    composed here on image tuples."""
    base = _base(gamma)
    members = {tuple(x.images[b] for b in base): x for x in gamma.elements}
    number, steps = _walk(members, base, [tuple(g.images[b] for b in base)
                                          for g in gamma.generators])
    ds = [d.images for d in delta.elements]
    moves = [[ds.index(tuple(d[x] for x in h.images)) for d in ds]
             for h in images]
    return [members[k].images for k in number], steps, moves


def test_retraction_refuses_an_assignment_that_breaks_one_edge():
    # S3 generated by two transpositions, delta = <(0 1)>: the sign map sends
    # both to (0 1); sending the second to the identity instead breaks the
    # edge at their product, a 3-cycle that would map to (0 1)
    t1, t2 = Perm((1, 0, 2)), Perm((0, 2, 1))
    gamma, delta = FiniteGroup([t1, t2]), FiniteGroup([t1])
    walk, steps, moves = _retraction_tables(gamma, delta, [t1, t1])
    r = _retraction(steps, moves)
    assert r is not None
    kernel = [x for x, a in zip(walk, r) if a == 0]
    assert len(kernel) == gamma.order // delta.order == 3
    assert FiniteGroup([new_perm(x) for x in kernel]).is_cyclic()
    _, steps, moves = _retraction_tables(gamma, delta, [t1, Perm.identity(3)])
    assert _retraction(steps, moves) is None


@pytest.mark.parametrize("label", sorted(COMPLEMENT_CASES))
def test_passing_retraction_fixing_delta_has_kernel_of_index_order(label):
    # every assignment of delta elements to gamma's generators: those that
    # pass and fix delta's generators have a kernel of order |gamma|/|delta|,
    # and there are as many as the lattice oracle's complements
    gamma, delta = COMPLEMENT_CASES[label]()
    passing = 0
    for images in itertools.product(delta.elements,
                                    repeat=len(gamma.generators)):
        walk, steps, moves = _retraction_tables(gamma, delta, images)
        r = _retraction(steps, moves)
        if r is None:
            continue
        hom = dict(zip(walk, r))
        ds = [d.images for d in delta.elements]
        if any(ds[hom[d.images]] != d.images for d in delta.generators):
            continue
        passing += 1
        assert r.count(0) == gamma.order // delta.order
    assert passing == len(oracle_normal_complements(gamma, delta))


# ---------------------------------------------------------------------------
# generating pairs, bases and the keyed walk, against full-tuple oracles


SCAN_CASES = dict(PUSH_CASES)
SCAN_CASES["degree-25-over-zeta5"] = (zeta1_galois_group(5, 2),
                                      beta_subgroup(5, 2))


def _action_image(gamma: FiniteGroup, delta: FiniteGroup) -> list[Perm]:
    _, act = coset_action(gamma, delta)
    return sorted(mulclose([act(g) for g in gamma.generators]))


@pytest.mark.parametrize("label", sorted(SCAN_CASES))
def test_generating_pair_is_the_first_of_the_unpruned_scan(label):
    # on the action image and on every structure found, the pruned scan
    # returns the pair of the scan that tries every b
    gamma, delta = SCAN_CASES[label]
    image = _action_image(gamma, delta)
    want = oracle_generating_pair(image)
    assert want is not None and _generating_sequence(image) == want
    for group in enumerate_regular_normalized(gamma, delta):
        want = oracle_generating_pair(list(group.elements))
        assert want is not None
        assert list(group.generators) == _generating_sequence(group.elements) == want


def test_pair_scan_closures_on_the_degree_25_image_over_Q(monkeypatch):
    # <top>, one refuted <top, b> and the pair that generates; the unpruned
    # scan closes 101 groups here
    image = _action_image(full_galois_group(5, 2), cyclotomic_subgroup(5, 2))
    assert len(image) == 500
    calls, real = [], gp_enum._closure
    monkeypatch.setattr(gp_enum, "_closure",
                        lambda gens: calls.append(len(gens)) or real(gens))
    assert len(_generating_sequence(image)) == 2
    assert calls == [1, 2, 2]


def _relabelings():
    """The census instances and the degree-25 ones, each relabeled by two
    seeded shuffles of its grid points."""
    return [pytest.param(*_relabeled(gamma, delta, seed), id="%s-%d" % (label, seed))
            for label, (gamma, delta) in sorted(SCAN_CASES.items())
            for seed in (1, 2)]


@pytest.mark.parametrize("gamma, delta", _relabelings())
def test_base_tells_gamma_apart_and_the_keyed_walk_is_the_full_tuple_walk(
        gamma, delta):
    base = _base(gamma)
    keys = {tuple(x.images[b] for b in base) for x in gamma.elements}
    assert len(keys) == gamma.order
    # each base point is needed: without the last one two elements meet
    assert len({tuple(x.images[b] for b in base[:-1])
                for x in gamma.elements}) < gamma.order
    walk, steps, _ = _retraction_tables(gamma, delta, [])
    assert (walk, steps) == oracle_walk(gamma.degree,
                                        [g.images for g in gamma.generators])


def test_act_refuses_a_permutation_outside_gamma():
    gamma, delta = full_galois_group(3, 2), cyclotomic_subgroup(3, 2)
    _, act = coset_action(gamma, delta)
    base = _base(gamma)
    # x with the images at two points off the base swapped: the base key of
    # a member of gamma, but not a member
    x = list(gamma.generators[0].images)
    i, j = [k for k in range(gamma.degree) if k not in base][:2]
    x[i], x[j] = x[j], x[i]
    outside = Perm(tuple(x))
    assert outside not in gamma
    assert [outside.images[b] for b in base] == [
        gamma.generators[0].images[b] for b in base]
    for g in (outside, Perm((1, 0) + tuple(range(2, gamma.degree)))):
        with pytest.raises(ValueError, match="not an element of gamma"):
            act(g)
    assert act(gamma.identity()) == Perm.identity(9)


def test_incomplete_degree_refused():
    assert _models(6) is None
    with pytest.raises(UnsupportedInstance):
        enumerate_regular_normalized(cyclic_group(6), trivial_group(6))


def test_search_budget_enforced():
    # degree 25 over Q(zeta_5): the holomorph search reads the clock every
    # 512 assignments, and this instance tries more than that
    gamma, delta = zeta1_galois_group(5, 2), beta_subgroup(5, 2)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_regular_normalized(gamma, delta, budget_seconds=0.0)


@pytest.mark.parametrize("budget", [float("nan"), -5.0, float("inf")])
def test_library_refuses_a_budget_that_is_negative_or_not_finite(monkeypatch,
                                                                 budget):
    # nan would never pass the deadline and -5 would wait for the first
    # clock reading: both are refused before the coset action is built
    def no_action(*args):
        raise AssertionError("coset action built before the budget check")

    monkeypatch.setattr(gp_enum, "coset_action", no_action)
    gamma, delta = zeta1_galois_group(5, 2), beta_subgroup(5, 2)
    with pytest.raises(ValueError, match="finite number of seconds >= 0"):
        enumerate_regular_normalized(gamma, delta, budget_seconds=budget)


def test_refusals_share_base_class():
    from hopfgal.gp_enum import EnumerationRefusal
    assert issubclass(CapExceeded, EnumerationRefusal)
    assert issubclass(UnsupportedInstance, EnumerationRefusal)
    assert issubclass(SearchBudgetExceeded, EnumerationRefusal)


# ---------------------------------------------------------------------------
# JSON interfaces


def test_instance_json_round_trip():
    gamma = full_galois_group(3, 1)
    delta = cyclotomic_subgroup(3, 1)
    data = instance_to_json(gamma, delta)
    gamma2, delta2 = instance_from_json(data)
    assert gamma2 == gamma and delta2 == delta


def test_instance_from_json_checks_degree():
    with pytest.raises(ValueError):
        instance_from_json({"degree": 4,
                            "gamma_generators": [[1, 2, 0]],
                            "delta_generators": []})


@pytest.mark.parametrize("data, message", [
    ({"degree": 0, "gamma_generators": [], "delta_generators": []},
     "'degree' must be >= 1, got 0"),
    ({"degree": -3, "gamma_generators": [], "delta_generators": []},
     "'degree' must be >= 1, got -3"),
    ({"gamma_generators": [[1, 2, 0]], "delta_generators": []},
     "'degree' is missing"),
    ({"degree": 3, "delta_generators": []}, "'gamma_generators' is missing"),
    ({"degree": 3, "gamma_generators": [[1, 2, 0]]},
     "'delta_generators' is missing"),
], ids=["degree-0", "degree-negative", "no-degree", "no-gamma", "no-delta"])
def test_instance_from_json_refuses_a_degree_below_1_or_a_missing_field(
        data, message):
    with pytest.raises(ValueError, match=message):
        instance_from_json(data)


def test_instance_from_json_bounds_the_degree_before_any_perm(monkeypatch):
    # degree 49's grid of 2,401 points is read; past the bound, no Perm is built
    gamma, delta = instance_from_json({"degree": 49 ** 2, "gamma_generators": [],
                                       "delta_generators": []})
    assert gamma.degree == delta.degree == 49 ** 2 and gamma.order == 1

    def no_perm(*args):
        raise AssertionError("a Perm was built before the degree bound")

    monkeypatch.setattr(gp_enum, "Perm", no_perm)
    with pytest.raises(ValueError, match="'degree' must be <= %d, got %d"
                       % (MAX_INSTANCE_DEGREE, MAX_INSTANCE_DEGREE + 1)):
        instance_from_json({"degree": MAX_INSTANCE_DEGREE + 1,
                            "gamma_generators": [], "delta_generators": []})


def test_instance_from_json_empty_generators_mean_trivial():
    gamma, delta = instance_from_json({"degree": 3,
                                       "gamma_generators": [[1, 2, 0]],
                                       "delta_generators": []})
    assert gamma.order == 3 and delta.order == 1


def test_results_json_shape():
    gamma = full_galois_group(3, 1)
    delta = cyclotomic_subgroup(3, 1)
    results = enumerate_regular_normalized(gamma, delta)
    data = census_json(gamma, delta)
    assert data["degree"] == 3
    assert data["count"] == len(results) == 1
    entry = data["subgroups"][0]
    assert entry["regular"] and entry["normalized"]
    assert entry["cyclic"] is True
    assert entry["almost_classical"] is True
    assert sorted(map(tuple, entry["elements"]))[0] == (0, 1, 2)


# ---------------------------------------------------------------------------
# the frozen census


def test_census_instances_are_pinned():
    instances = census_instances()
    expected = {
        "cubic-radical-over-Q": (1, 1),
        "ninth-root-radical-over-Q": (1, 1),
        "ninth-root-radical-over-cyclotomic": (3, 3),
    }
    assert {inst.label: (inst.expected_structures,
                         inst.expected_almost_classical)
            for inst in instances} == expected


@pytest.mark.parametrize("label", [
    "cubic-radical-over-Q",
    "ninth-root-radical-over-Q",
    "ninth-root-radical-over-cyclotomic",
])
def test_census_reports_pass(label):
    instance = next(i for i in census_instances() if i.label == label)
    reports = census_reports(instance)
    assert [r.claim for r in reports] == ["census-counts", "census-cyclic"]
    for report in reports:
        assert report.ok, report.witness


def test_census_degree_25_over_zeta5():
    # Q(zeta_25, 2^(1/25)) over Q(zeta_5): 5 structures, all cyclic, and
    # 5 complements, each pushed into the enumerated family
    instance = CensusInstance("degree-25-over-zeta5", zeta1_galois_group(5, 2),
                              beta_subgroup(5, 2), expected_structures=5,
                              expected_almost_classical=5)
    reports = census_reports(instance)
    for report in reports:
        assert report.ok, report.witness


def test_census_degree_25_over_Q():
    # Q(zeta_25, 2^(1/25)) over Q: 1 structure, cyclic, and 1 complement
    # pushed into it
    instance = CensusInstance("degree-25-over-Q", full_galois_group(5, 2),
                              cyclotomic_subgroup(5, 2), expected_structures=1,
                              expected_almost_classical=1)
    reports = census_reports(instance)
    for report in reports:
        assert report.ok, report.witness


def test_complements_degree_25_over_Q():
    # the structure count is pinned in test_census_degree_25_over_Q
    gamma, delta = full_galois_group(5, 2), cyclotomic_subgroup(5, 2)
    complements = almost_classical(gamma, delta)
    assert [c.order for c in complements] == [25]


def test_census_detects_wrong_complement_count():
    base = census_instances()[0]
    wrong = CensusInstance(base.label, base.gamma, base.delta,
                           expected_structures=1,
                           expected_almost_classical=2)
    counts_report = census_reports(wrong)[0]
    assert not counts_report.ok
    assert counts_report.witness == {"stage": "complement-count",
                                     "got": 1, "expected": 2}


def test_census_detects_wrong_expectation():
    base = census_instances()[0]
    wrong = CensusInstance(base.label, base.gamma, base.delta,
                           expected_structures=2,
                           expected_almost_classical=1)
    counts_report = census_reports(wrong)[0]
    assert not counts_report.ok
    assert counts_report.witness["stage"] == "structure-count"
