"""Cyclotomic arithmetic against sympy polynomial-quotient oracles."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, strategies as st

from hopfgal import cyclotomic, groupring, linalg, variants
from hopfgal.cyclotomic import (PRIMALITY_BOUND, PRIME_BASES, CycloElt,
                                FieldDescriptor, add_all, embed, embed_preimage,
                                fixed_space, from_exponent_table, from_exponents,
                                is_prime, mul, parse_rat, primitive_root, rat_str,
                                terms_to_vector, unit_apply, validate_field)
from hopfgal.groupring import GroupRingElt
from hopfgal.hopfgalois import e_basis, hopf_from_groupring
from hopfgal.linalg import sparse_nullspace

from oracle_tools import (action_rows, oracle_cyclo_mul,
                          oracle_multiplicative_order, oracle_primitive_root,
                          oracle_unit_apply, oracle_zeta_power, poly_to_vec,
                          vec_to_poly)

FIELDS = [(3, 1), (3, 2), (5, 1), (7, 1), (3, 3)]

frac = st.fractions(min_value=-3, max_value=3, max_denominator=5)
small_frac = st.sampled_from([Fraction(k, d) for d in (1, 2, 5) for k in range(-3, 4)])


def elements(p, n):
    deg = FieldDescriptor(p, n).degree
    return st.lists(frac, min_size=deg, max_size=deg).map(
        lambda cs: CycloElt(FieldDescriptor(p, n), cs))


def sparse_elements(p, n, coeff=frac):
    """Elements with 1 to 3 nonzero numerators, at drawn positions: the
    loops that visit only the nonzero numerators meet gaps and both ends."""
    f = FieldDescriptor(p, n)

    def build(cells):
        coeffs = [0] * f.degree
        for A, c in cells.items():
            coeffs[A] = c
        return CycloElt(f, coeffs)

    return st.dictionaries(st.integers(0, f.degree - 1), coeff.filter(bool),
                           min_size=1, max_size=3).map(build)


# -- scalar utilities --------------------------------------------------------

def test_rat_str_round_trip():
    """A first call parses, a second reads the memo: both give the value."""
    cyclotomic._parse_str.cache_clear()
    for s in ("0/1", "5/3", "-7/2", "4/1"):
        first = parse_rat(s)
        assert rat_str(first) == s and parse_rat(s) == first
    assert parse_rat("6") == Fraction(6) == parse_rat("6")
    assert cyclotomic._parse_str.cache_info().misses == 5


@pytest.mark.parametrize("s", ["3/", "/2", "/", "", "3/0", "3/-4", "3/+4", "+3/4",
                               "1_000/3", "\u0663/4", "3/\u0664", " 3/4", "3/ 4",
                               "3 /4", "3/4 ", "-", "--3/4", "- 3/4", "3/4/5"])
def test_parse_rat_refuses_an_empty_or_zero_part(s):
    """Only the forms `rat_str` prints, and a bare integer: no sign but a
    leading minus, no space, no underscore, ASCII digits only.  A refusal
    is not remembered: the second call raises too."""
    cyclotomic._parse_str.cache_clear()
    for _ in range(2):
        with pytest.raises(ValueError):
            parse_rat(s)
    assert cyclotomic._parse_str.cache_info().currsize == 0


@pytest.mark.parametrize("s", [5, None, ["1/2"], Fraction(1, 2)])
def test_parse_rat_refuses_a_non_string_before_the_memo(s):
    with pytest.raises(ValueError, match="expected a rational as a 'num/den' "
                                         "string, got "):
        parse_rat(s)


def test_parse_rat_memo_stays_correct_past_its_cap():
    cap = cyclotomic.PARSE_CACHE_SIZE
    cyclotomic._parse_str.cache_clear()
    for _ in range(2):                      # the second round reads evicted strings
        for k in range(cap + 100):
            assert parse_rat("%d/7" % (k - 50)) == Fraction(k - 50, 7)
            assert cyclotomic._parse_str.cache_info().currsize <= cap
    assert cyclotomic._parse_str.cache_info().currsize == cap


def _trial_division(m: int) -> bool:
    return m >= 2 and all(m % f for f in range(2, int(m ** 0.5) + 1))


def _strong_probable_prime(m: int, a: int) -> bool:
    """m passes one Miller-Rabin round to base a, written out on its own."""
    d = m - 1
    while d % 2 == 0:
        d //= 2
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    while d < m - 1:
        x, d = x * x % m, 2 * d
        if x == m - 1:
            return True
    return False


def test_is_prime():
    assert [m for m in range(2, 30) if is_prime(m)] == \
        [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    # every m below 10^5 agrees with trial division
    assert [m for m in range(-3, 10 ** 5) if is_prime(m)] == \
        [m for m in range(-3, 10 ** 5) if _trial_division(m)]


def test_is_prime_refuses_a_strong_pseudoprime_to_the_first_four_bases():
    m = 3215031751
    assert m == 151 * 751 * 28351
    # four rounds would call it prime; the bases up to 41 do not
    assert all(_strong_probable_prime(m, a) for a in (2, 3, 5, 7))
    assert not is_prime(m)
    with pytest.raises(ValueError, match="odd prime, got 3215031751"):
        validate_field(m, 1)


def test_is_prime_matches_sympy_below_the_bound():
    rng = random.Random(3501)
    big = [10 ** 18 + 3, 10 ** 18 + 9, sympy.prevprime(PRIMALITY_BOUND),
           PRIMALITY_BOUND - 2, 2 ** 61 - 1,
           sympy.nextprime(10 ** 11) * sympy.nextprime(10 ** 12)]
    big += [rng.randrange(10 ** 6, PRIMALITY_BOUND) for _ in range(300)]
    assert [is_prime(m) for m in big] == [sympy.isprime(m) for m in big]
    assert is_prime(10 ** 18 + 3)
    validate_field(10 ** 18 + 3, 1)


def test_primality_at_or_past_the_bound_is_refused():
    # the bound is the least strong pseudoprime to all thirteen bases
    assert not sympy.isprime(PRIMALITY_BOUND)
    assert all(_strong_probable_prime(PRIMALITY_BOUND, a) for a in PRIME_BASES)
    assert PRIME_BASES == tuple(sympy.primerange(2, 42))
    for m in (PRIMALITY_BOUND, 2 ** 89 - 1):           # 2^89 - 1 is prime
        with pytest.raises(ValueError, match="not decided"):
            is_prime(m)
        with pytest.raises(ValueError, match="not decided"):
            validate_field(m, 1)
    # a multiple of a base is decided at any size
    assert not is_prime(PRIMALITY_BOUND + 1) and not is_prime(41 * 2 ** 89)
    with pytest.raises(ValueError, match="odd prime"):
        validate_field(3 * 2 ** 89, 1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_primitive_root_is_smallest_mod_p_squared(p):
    pi = primitive_root(p)
    assert pi == oracle_primitive_root(p * p)
    assert oracle_multiplicative_order(pi, p * p) == p * (p - 1)


def test_primitive_root_pinned_values():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3


def test_primitive_root_is_the_first_full_order_unit_below_300():
    # the search by multiplicative order that primitive_root replaced
    for p in filter(is_prime, range(3, 300)):
        first = next(g for g in range(2, p * p)
                     if g % p and oracle_multiplicative_order(g, p * p) == p * (p - 1))
        assert primitive_root(p) == first, p


def test_primitive_root_at_a_large_prime():
    p = 3989
    assert primitive_root(p) == 2 == oracle_primitive_root(p * p)
    assert oracle_multiplicative_order(2, p * p) == p * (p - 1)


# -- field descriptor ---------------------------------------------------------

@pytest.mark.parametrize("p,n", FIELDS)
def test_descriptor_shape(p, n):
    f = FieldDescriptor(p, n)
    assert f.modulus == p ** n
    assert f.degree == p ** (n - 1) * (p - 1)
    # one multiplier serves the whole tower: order (p-1)p^(n-1) mod p^n
    assert oracle_multiplicative_order(f.multiplier, f.modulus) == f.degree


def test_descriptor_is_one_instance_per_field():
    assert FieldDescriptor(3, 2) is FieldDescriptor(3, 2)
    assert FieldDescriptor(3, 2) != FieldDescriptor(3, 1)
    with pytest.raises(ValueError):
        FieldDescriptor(4, 1)
    with pytest.raises(ValueError):
        FieldDescriptor(3, 0)


@pytest.mark.parametrize("p,n", FIELDS)
def test_descriptor_holds_its_zero_and_cells(p, n):
    """Right after construction the field holds its zero, which
    `CycloElt.zero` returns, and its p^n cells zeta^k / p^n, of which every
    cell of every idempotent e_i is one, the object itself."""
    f = FieldDescriptor(p, n)
    assert CycloElt.zero(f) is f.zero
    assert f.zero == 0 and f.zero.field is f
    assert_canonical(f.zero)
    m = f.modulus
    assert len(f.table) == len(f.cells) == m
    for k, cell in enumerate(f.cells):
        assert_canonical(cell)
        assert cell == CycloElt.zeta_power(f, k) * Fraction(1, m)
    ids = {id(c) for c in f.cells}
    for i in range(m):
        assert all(id(c) in ids for _, c in e_basis(p, n, i).terms)


# -- canonical integer form ---------------------------------------------------

def assert_canonical(x):
    """The stored form: sorted nonzero (index, numerator) pairs over one
    positive denominator, in lowest terms, zero as ()/1; and the dense views
    agree with the pairs."""
    phi, terms, den = x.field.degree, x.terms, x.den
    assert type(terms) is tuple and type(den) is int
    indices = [i for i, _ in terms]
    assert all(a < b for a, b in zip(indices, indices[1:]))   # strictly increasing
    assert all(0 <= i < phi for i in indices)
    assert all(type(a) is int and a != 0 for _, a in terms)
    assert den > 0
    assert gcd(den, *(a for _, a in terms)) == 1
    if not terms:
        assert den == 1
    assert bool(x) == bool(terms)
    nums = dict(terms)
    assert x.coeffs == tuple(Fraction(nums.get(i, 0), den) for i in range(phi))
    assert x.to_json() == [rat_str(c) for c in x.coeffs]


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (3, 3)])
@given(data=st.data())
def test_every_operation_returns_the_stored_form(p, n, data):
    f = FieldDescriptor(p, n)
    m, phi = f.modulus, f.degree
    x = data.draw(elements(p, n))
    s = data.draw(sparse_elements(p, n))
    r = data.draw(frac.filter(bool))
    u = data.draw(st.sampled_from([v for v in range(1, m) if v % p]))
    e = data.draw(st.integers(-m, 2 * m))
    sixth = CycloElt.rational(f, Fraction(1, 6)) * CycloElt.zeta_power(f, 1)
    third = CycloElt.rational(f, Fraction(1, 3)) * CycloElt.zeta_power(f, 1)
    half = sixth + third                      # 1/6 + 2/6 = 3/6 reduces to 1/2
    assert half.terms == ((1, 1),) and half.den == 2
    assert sixth != third and sixth.terms == third.terms      # told apart by den
    results = [x, s, CycloElt(f, [0] * phi), CycloElt(f, [Fraction(2, 4)] * phi),
               x + s, x - s, s + (-s), s - s, x - x, half, sixth - third,
               -x, -s, x * 0, s * 0, x * r, s * r, s * (1 / r),
               mul(x, s), mul(s, s), mul(x, CycloElt.zero(f)),
               x.shift(e), s.shift(e), s.shift(m),
               unit_apply(u, x), unit_apply(u, s), unit_apply(u, CycloElt.zero(f)),
               embed(n, n + 1, x), embed(n, n + 1, s), embed(n, n, s),
               embed_preimage(n, n + 1, embed(n, n + 1, s)), embed_preimage(n, n, s)]
    # zeta^e with e below phi is one basis numerator; from phi on it is p-1
    results += [unit_apply(u, CycloElt.zeta_power(f, k)) for k in (0, phi - 1, phi, m - 1)]
    for y in results:
        assert_canonical(y)
    assert (s + (-s)).terms == () and (x - x) == CycloElt.zero(f)
    assert x * 0 == 0 and (x * 0).den == 1


def test_rational_elements_hash_like_their_value():
    f = FieldDescriptor(3, 1)
    assert CycloElt.one(f) == 1
    assert len({CycloElt.one(f), Fraction(1)}) == 1
    assert hash(CycloElt.rational(f, Fraction(-2, 3))) == hash(Fraction(-2, 3))
    assert hash(CycloElt.zero(f)) == hash(0)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_canonical_form_does_not_depend_on_the_route(p, n, data):
    f = FieldDescriptor(p, n)
    m = f.modulus
    terms = data.draw(st.dictionaries(st.integers(0, 3 * m - 1), frac,
                                      max_size=f.degree + 2))
    dense = [Fraction(0)] * (max(terms, default=0) + 1)
    for e, c in terms.items():
        dense[e] = c
    want = poly_to_vec(p, n, vec_to_poly(dense))
    r = data.draw(frac.filter(bool))
    e = data.draw(st.integers(-m, 2 * m))
    u = data.draw(st.sampled_from([v for v in range(1, m) if v % p]))
    x = CycloElt(f, want)
    sparse = data.draw(sparse_elements(p, n))
    for z, z_want in ((x, want), (sparse, list(sparse.coeffs))):
        routes = [z,
                  mul(z * r, CycloElt.rational(f, 1 / r)),
                  mul(z, CycloElt.zeta_power(f, e)).shift(-e),
                  z.shift(e).shift(-e),
                  unit_apply(pow(u, -1, m), unit_apply(u, z)),
                  embed_preimage(n, n + 1, embed(n, n + 1, z))]
        for y in routes:
            assert_canonical(y)
            assert y == z and hash(y) == hash(z)
            assert all(type(c) is Fraction for c in y.coeffs)
            assert list(y.coeffs) == z_want
    # the shift of the sparse element against sympy's x^e reduction
    shifted = sparse.shift(e)
    assert_canonical(shifted)
    assert list(shifted.coeffs) == oracle_cyclo_mul(
        p, n, sparse.coeffs, oracle_zeta_power(p, n, e))
    f2 = FieldDescriptor(p, n + 1)
    lifted = embed(n, n + 1, x)
    assert_canonical(lifted)
    dilated = CycloElt(f2, [want[i // p] if i % p == 0 else 0 for i in range(f2.degree)])
    assert lifted == dilated and hash(lifted) == hash(dilated)


# -- the k-ary sum -------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_add_all_is_the_sum_of_the_coefficients(p, n, data):
    f = FieldDescriptor(p, n)
    xs = data.draw(st.lists(st.one_of(elements(p, n), sparse_elements(p, n)),
                            min_size=1, max_size=5))
    # scaled by 1/7, a nonzero element drawn here has a 7 in its denominator,
    # which no other has: the lcm is over mixed denominators
    d = data.draw(st.integers(0, len(xs) - 1))
    xs[d] = xs[d] * Fraction(1, 7)
    total = add_all(f, xs)
    assert_canonical(total)                   # lowest terms
    assert list(total.coeffs) == [sum(cs) for cs in zip(*(x.coeffs for x in xs))]
    assert add_all(f, xs[:1]) is xs[0]
    assert add_all(f, xs + [-x for x in reversed(xs)]) is f.zero


def test_add_all_over_mixed_denominators_ends_in_lowest_terms():
    f = FieldDescriptor(3, 2)
    z = CycloElt.zeta_power(f, 1)
    quarter = CycloElt.rational(f, Fraction(1, 4))
    # 1/6 + 1/3 = 1/2 on zeta over the lcm 12, and the quarters cancel
    total = add_all(f, [z * Fraction(1, 6), quarter, z * Fraction(1, 3), -quarter])
    assert total.terms == ((1, 1),) and total.den == 2
    assert add_all(f, [quarter, -quarter]) is f.zero
    assert add_all(f, []) is f.zero
    with pytest.raises(ValueError):
        add_all(f, [quarter, CycloElt.one(FieldDescriptor(3, 1))])


# -- power-basis reduction ----------------------------------------------------

@pytest.mark.parametrize("p,n", FIELDS)
def test_zeta_power_matches_oracle(p, n):
    f = FieldDescriptor(p, n)
    for e in range(p ** n):
        assert list(CycloElt.zeta_power(f, e).coeffs) == \
            oracle_zeta_power(p, n, e)


def test_reduce_terms_handles_arbitrary_exponents():
    f = FieldDescriptor(3, 1)
    # zeta^5 = zeta^2 = -1 - zeta
    assert from_exponents(f, ((5, 1),)) == CycloElt(f, [-1, -1])
    assert from_exponents(f, ((0, 1), (1, 1), (2, 1))) == CycloElt.zero(f)


def _exponent_tables(field: FieldDescriptor, rng: random.Random):
    """Tables of p^n exponent sums: zero, dense with negatives, mostly zero,
    and fibre-constant (equal on each e == d mod p^(n-1), so every fibre
    folds to 0) plus an integer at exponent 0, whose sum is that integer."""
    m, s = field.modulus, field.modulus // field.p
    yield [0] * m, None
    yield [rng.randint(-9, 9) for _ in range(m)], None
    yield [rng.choice((0, 0, 0, rng.randint(-40, 40))) for _ in range(m)], None
    for _ in range(2):
        fibre = [rng.randint(-6, 6) for _ in range(s)]
        r = rng.randint(-5, 5)
        yield [fibre[e % s] + (r if e == 0 else 0) for e in range(m)], r


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2),
                                 (7, 1), (11, 1)])
def test_exponent_table_fold_is_the_pairwise_fold_and_sympy(p, n):
    field = FieldDescriptor(p, n)
    rng = random.Random(35000 + 100 * p + n)
    for sums, rational in _exponent_tables(field, rng):
        for den in (1, p, 12, field.modulus):
            got = from_exponent_table(field, sums, den)
            assert got == from_exponents(field, enumerate(sums), den)
            want = [c / den for c in poly_to_vec(p, n, vec_to_poly(sums))]
            assert list(got.coeffs) == want
            if rational is not None:
                assert got.is_rational() and got.rational_value() == Fraction(rational, den)
    with pytest.raises(ValueError, match="expected %d exponent sums" % field.modulus):
        from_exponent_table(field, [1] * (field.modulus - 1))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
def test_hopf_from_groupring_refuses_a_non_member_with_the_exponent(p, n):
    field = FieldDescriptor(p, n)
    # sigma^1 evaluates to zeta^k at exponent k: rational at 0, not at 1
    with pytest.raises(ValueError, match=r"^element is not in the idempotent span "
                                         r"\(evaluation at exponent 1 is irrational\)$"):
        hopf_from_groupring(GroupRingElt.sigma_power(field, 1))
    # a member: sigma^0 is the sum of every e_k
    x = e_basis(p, n, 2) + e_basis(p, n, 1) + GroupRingElt.sigma_power(field, 0)
    assert hopf_from_groupring(x).terms == \
        ((0, 1), (1, 2), (2, 2), *((k, 1) for k in range(3, field.modulus)))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_mul_matches_sympy(p, n, data):
    x = data.draw(elements(p, n))
    y = data.draw(elements(p, n))
    got = mul(x, y)
    assert list(got.coeffs) == oracle_cyclo_mul(p, n, x.coeffs, y.coeffs)
    # 1 to 3 nonzero numerators, in either factor and in both
    sx = data.draw(sparse_elements(p, n))
    sy = data.draw(sparse_elements(p, n))
    for a, b in ((sx, y), (x, sy), (sx, sy)):
        got = mul(a, b)
        assert_canonical(got)
        assert list(got.coeffs) == oracle_cyclo_mul(p, n, a.coeffs, b.coeffs)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_ring_axioms(p, n, data):
    x = data.draw(elements(p, n))
    y = data.draw(elements(p, n))
    z = data.draw(elements(p, n))
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == CycloElt.zero(x.field)
    assert x * CycloElt.one(x.field) == x


# -- Galois operations --------------------------------------------------------

@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_unit_apply_is_ring_automorphism(p, n, data):
    f = FieldDescriptor(p, n)
    x = data.draw(elements(p, n))
    y = data.draw(elements(p, n))
    u = data.draw(st.sampled_from(
        [v for v in range(1, p ** n) if v % p != 0]))
    assert unit_apply(u, x + y) == unit_apply(u, x) + unit_apply(u, y)
    assert unit_apply(u, x * y) == unit_apply(u, x) * unit_apply(u, y)
    assert unit_apply(1, x) == x
    assert unit_apply(u, CycloElt.rational(f, Fraction(7, 3))) == \
        CycloElt.rational(f, Fraction(7, 3))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
def test_unit_apply_on_zeta_powers(p, n):
    f = FieldDescriptor(p, n)
    for u in (1, 1 + p, f.multiplier):
        for e in range(p ** n):
            assert unit_apply(u, CycloElt.zeta_power(f, e)) == \
                CycloElt.zeta_power(f, (u * e) % p ** n)


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (7, 1), (3, 4), (5, 3)])
@given(data=st.data())
def test_unit_apply_matches_sympy_substitution(p, n, data):
    f = FieldDescriptor(p, n)
    units = [v for v in range(1, f.modulus) if v % p]
    if f.modulus > 25:          # the large fields: one sampled unit per example
        units = [data.draw(st.sampled_from(units))]
    # fractions sampled from a fixed set: st.fractions' per-draw flatmap
    # would dominate at 54 and 100 coordinates
    x = CycloElt(f, data.draw(st.lists(small_frac, min_size=f.degree,
                                       max_size=f.degree)))
    sparse = data.draw(sparse_elements(p, n, small_frac))   # 1-3 numerators
    for z in (x, sparse):
        for u in units:
            want = oracle_unit_apply(p, n, u, z.coeffs)
            assert list(unit_apply(u, z).coeffs) == want
            assert list(unit_apply(u + f.modulus, z).coeffs) == want


def counted_transports(monkeypatch) -> list:
    """Record every call of `cyclotomic._transport`, the general path."""
    calls, real = [], cyclotomic._transport

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cyclotomic, "_transport", spy)
    return calls


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (3, 3)])
def test_roots_of_unity_move_by_table_lookup(monkeypatch, p, n):
    """zeta^e/d under zeta -> zeta^u and under a shift by zeta^s is the
    oracle's value and `_transport`'s, read without `_transport`; over 1 and
    p^n it is the field's shared element."""
    f = FieldDescriptor(p, n)
    m = f.modulus
    assert f.exponents == {row: e for e, row in enumerate(f.table)}
    assert len(f.exponents) == len(f.powers) == m          # the rows are distinct
    units = sorted({1, 1 + p, f.multiplier, m - 1})
    shifts = (1, 2, m - 1)                   # a shift by 0 mod p^n returns x itself
    transports = counted_transports(monkeypatch)
    for e in range(m):
        assert CycloElt.zeta_power(f, e) is f.powers[e]
        assert CycloElt.zeta_power(f, e - 2 * m) is f.powers[e]
        assert_canonical(f.powers[e])
        root = oracle_zeta_power(p, n, e)
        assert list(f.powers[e].coeffs) == root
        for d in (1, m, 7):
            x = f.powers[e] * Fraction(1, d)
            assert x.terms == f.table[e] and x.den == d
            for u in units:
                got = unit_apply(u, x)
                assert list(got.coeffs) == oracle_unit_apply(p, n, u, x.coeffs)
                assert got == cyclotomic._make(
                    f, cyclotomic._transport(f, x.terms, u, 0), d)
                if d != 7:
                    shared = f.powers if d == 1 else f.cells
                    assert got is shared[u * e % m]
            for s in shifts:
                got = x.shift(s)
                assert list(got.coeffs) == [c / d for c in oracle_zeta_power(p, n, e + s)]
                assert got == cyclotomic._make(
                    f, cyclotomic._transport(f, x.terms, 1, s), d)
                if d != 7:
                    shared = f.powers if d == 1 else f.cells
                    assert got is shared[(e + s) % m]
        for k in range(m):
            assert unit_apply(f.multiplier, f.cells[k]) is f.cells[f.multiplier * k % m]
    # every `_transport` call above is the test's own reference call
    assert len(transports) == m * 3 * (len(units) + len(shifts))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (3, 3)])
def test_other_elements_take_the_general_path(monkeypatch, p, n):
    """-zeta^e, 2 zeta^e, zeta^a + zeta^b and zero are no table row: each
    move goes through `_transport` and matches the oracle."""
    f = FieldDescriptor(p, n)
    m = f.modulus
    zeta = f.powers
    others = [f.zero]
    for e in range(m):
        others += [-zeta[e], 2 * zeta[e], zeta[e] + zeta[(e + 1) % m],
                   (zeta[e] + zeta[(3 * e + 2) % m]) * Fraction(1, m)]
    transports = counted_transports(monkeypatch)
    for x in others:
        assert x.terms not in f.exponents
        got = unit_apply(f.multiplier, x)
        assert list(got.coeffs) == oracle_unit_apply(p, n, f.multiplier, x.coeffs)
        got = x.shift(1)
        assert list(got.coeffs) == oracle_cyclo_mul(p, n, x.coeffs, zeta[1].coeffs)
    # zero is returned as it is by a shift
    assert len(transports) == 2 * len(others) - 1


# -- tower embeddings ---------------------------------------------------------

@pytest.mark.parametrize("m,n", [(1, 2), (1, 3), (2, 3)])
@given(data=st.data())
def test_embed_is_injective_ring_map(m, n, data):
    p = 3
    x = data.draw(elements(p, m))
    y = data.draw(elements(p, m))
    ex, ey = embed(m, n, x), embed(m, n, y)
    assert embed(m, n, x * y) == mul(ex, ey)
    assert embed(m, n, x + y) == ex + ey
    assert embed_preimage(m, n, ex) == x


def test_embed_sends_generator_to_power():
    # the level-m root of unity is the p^(n-m) power of the level-n one
    p, m, n = 3, 1, 2
    fm, fn = FieldDescriptor(p, m), FieldDescriptor(p, n)
    assert embed(m, n, CycloElt.zeta_power(fm, 1)) == \
        CycloElt.zeta_power(fn, p ** (n - m))


def test_embed_preimage_detects_outsiders():
    # the level-2 generator is not in the level-1 subfield
    assert embed_preimage(1, 2, CycloElt.zeta_power(FieldDescriptor(3, 2), 1)) is None


# -- fixed spaces by Galois descent ------------------------------------------------

def twisted_permutation(p, n, gauge):
    """A `fixed_space` generator on len(gauge) cells: a unit u mod p^n, a
    permutation c -> t of the cells, and the shift a_t - u*a_c + e_c for the
    gauge a and a drawn error e.  With e = 0 the generator is conjugate, by
    zeta^(a_c) on cell c, to an untwisted one, so its fixed space is not 0
    and the twists are nontrivial; a random e mostly leaves 0."""
    m, ncells = p ** n, len(gauge)
    return st.tuples(
        st.integers(1, m - 1).filter(lambda u: u % p),
        st.permutations(range(ncells)),
        st.lists(st.one_of(st.just(0), st.integers(0, m - 1)),
                 min_size=ncells, max_size=ncells),
    ).map(lambda g: (g[0], [(t, (gauge[t] - g[0] * gauge[c] + e) % m)
                            for c, (t, e) in enumerate(zip(g[1], g[2]))]))


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1)])
@given(data=st.data())
def test_fixed_space_matches_full_grid_kernel(p, n, data):
    """Same vectors in the same order as the canonical kernel of the rows of
    every (g - id) on the whole grid."""
    field = FieldDescriptor(p, n)
    ncells = data.draw(st.integers(1, 6))
    gauge = data.draw(st.lists(st.integers(0, p ** n - 1),
                               min_size=ncells, max_size=ncells))
    gens = data.draw(st.lists(twisted_permutation(p, n, gauge),
                              min_size=1, max_size=2))
    rows = [row for u, moves in gens for row in action_rows(field, u, moves)]
    basis = fixed_space(field, gens, ncells)
    assert [terms_to_vector(t) for t in basis] == sparse_nullspace(
        rows, ncells * field.degree)
    for terms in basis:
        assert [c for c, _ in terms] == sorted({c for c, _ in terms})
        assert all(x and x.field is field for _, x in terms)
        for _, x in terms:
            assert_canonical(x)


@pytest.mark.parametrize("u1,u2", [(2, 4), (2, 5), (4, 7)])
def test_fixed_space_untwists_a_stabiliser_met_off_the_representative(u1, u2):
    """Two gauge-twisted swaps of two cells with different units.  The second
    generator's edge out of the representative, cell 1, lands on cell 0,
    whose transport carries sigma_u1: the stabiliser element it gives must be
    untwisted by sigma_u1^-1, shift included."""
    field = FieldDescriptor(3, 2)
    gauge = (0, 1)
    gens = [(u, [(1 - c, (gauge[1 - c] - u * gauge[c]) % 9) for c in range(2)])
            for u in (u1, u2)]
    rows = [row for u, moves in gens for row in action_rows(field, u, moves)]
    basis = fixed_space(field, gens, 2)
    assert basis
    assert [terms_to_vector(t) for t in basis] == sparse_nullspace(
        rows, 2 * field.degree)


def test_fixed_space_without_generators_is_the_whole_grid():
    field = FieldDescriptor(3, 1)
    basis = fixed_space(field, [], 2)
    assert [terms_to_vector(t) for t in basis] == [{k: 1} for k in range(4)]


def stabiliser_sets(field, gens, ncells) -> list[tuple]:
    """The sorted stabiliser set of each orbit, by the breadth-first walk that
    `fixed_space` documents: each cell's transport (S, U) from the orbit's
    largest cell, and one element (S, U) per edge closing a cycle, the
    identity (0, 1) left out."""
    m = field.modulus
    transport, sets = [None] * ncells, []
    for rep in range(ncells - 1, -1, -1):
        if transport[rep] is not None:
            continue
        transport[rep], orbit, found = (0, 1), [rep], set()
        for c in orbit:
            S, U = transport[c]
            for u, moves in gens:
                t, s = moves[c]
                S2, U2 = (s + u * S) % m, (u * U) % m
                if transport[t] is None:
                    transport[t] = (S2, U2)
                    orbit.append(t)
                else:
                    St, Ut = transport[t]
                    inv = pow(Ut, -1, m)
                    found.add(((S2 - St) * inv % m, U2 * inv % m))
        found.discard((0, 1))
        sets.append(tuple(sorted(found)))
    return sets


def generated_group(stabiliser, m) -> set:
    """Every element of the group that the maps (S, U): x -> zeta^S sigma_U(x)
    generate, (s, u) o (S, U) = (s + u*S, u*U) mod m, by brute force:
    compose each element met with each generator until nothing new appears."""
    group, size = {(0, 1)}, 0
    while len(group) != size:
        size = len(group)
        group |= {((s + u * S) % m, u * U % m)
                  for S, U in group for s, u in stabiliser}
    return group


def holds_rotation(group) -> bool:
    """Whether the group holds x -> zeta^r x for some r != 0, which fixes
    only 0."""
    return any(U == 1 and S != 0 for S, U in group)


# `h_variant` keeps one basis per (p, n, i); each build here runs uncached
BUILDS = {
    "h_variant 3,3,0": lambda: variants._h_basis.__wrapped__(3, 3, 0),
    "h_variant 3,3,1": lambda: variants._h_basis.__wrapped__(3, 3, 1),
    "h_variant 3,3,2": lambda: variants._h_basis.__wrapped__(3, 3, 2),
    "h_variant 5,2,1": lambda: variants._h_basis.__wrapped__(5, 2, 1),
    "fixed_ring_kernel 3,4": lambda: groupring.fixed_ring_kernel(3, 4),
    "fixed_ring_kernel 7,2": lambda: groupring.fixed_ring_kernel(7, 2),
}


def counted_kernel_bases(monkeypatch) -> list:
    """Make `SparseEchelon.kernel_basis` record each of its calls in the
    returned list."""
    calls = []
    real_kernel_basis = linalg.SparseEchelon.kernel_basis

    def counting_kernel_basis(self, ncols):
        calls.append(ncols)
        return real_kernel_basis(self, ncols)

    monkeypatch.setattr(linalg.SparseEchelon, "kernel_basis", counting_kernel_basis)
    return calls


def recorded_problems(monkeypatch, build) -> list[tuple]:
    """Run a build and return each of its `fixed_space` calls as (field,
    generators, ncells, kernel_basis runs inside the call)."""
    calls, problems = counted_kernel_bases(monkeypatch), []
    real_fixed_space = cyclotomic.fixed_space

    def recording_fixed_space(field, generators, ncells):
        generators = [(u % field.modulus, list(moves)) for u, moves in generators]
        before = len(calls)
        basis = real_fixed_space(field, generators, ncells)
        problems.append((field, generators, ncells, len(calls) - before))
        return basis

    monkeypatch.setattr(groupring, "fixed_space", recording_fixed_space)
    BUILDS[build]()
    return problems


@pytest.mark.parametrize("build,reused", [("h_variant 3,3,1", True),
                                          ("fixed_ring_kernel 3,4", False)])
def test_fixed_space_eliminates_once_per_distinct_stabiliser_set(monkeypatch, build,
                                                                 reused):
    """Within one call, an orbit whose stabiliser set was already met reuses
    that kernel, and a set whose group holds a rotation has the kernel 0
    with no elimination: `kernel_basis` runs once for each distinct set
    whose group, closed by brute force here, holds no rotation.  The
    variant's 729 cells fall in 189 orbits with 56 distinct sets, 4 of them
    without a rotation; the fixed ring's five orbits have five different
    sets, none with a rotation."""
    problems = recorded_problems(monkeypatch, build)
    assert len(problems) == 1
    field, gens, ncells, eliminations = problems[0]
    sets = stabiliser_sets(field, gens, ncells)
    free = [key for key in set(sets)
            if not holds_rotation(generated_group(key, field.modulus))]
    assert (len(set(sets)), len(free)) == {"h_variant 3,3,1": (56, 4),
                                           "fixed_ring_kernel 3,4": (5, 5)}[build]
    assert eliminations == len(free)
    assert (len(set(sets)) < len(sets)) == reused


def stabiliser_kernel(field, key) -> list[dict]:
    """`_stabiliser_kernel` of one sorted set, as `sparse_nullspace` vectors."""
    kernel = cyclotomic._stabiliser_kernel(key, field.degree, field.modulus,
                                           field.table)
    return [{c: Fraction(a, den) for c, a in pairs} for _, den, pairs in kernel]


@pytest.mark.parametrize("build", list(BUILDS))
def test_stabiliser_kernels_have_the_speiser_dimension(monkeypatch, build):
    """For every distinct stabiliser set of a build, the kernel of its
    one-cell rows (sympy powers of zeta, `sparse_nullspace`) is 0 when the
    set's group holds a rotation and has dimension phi / |U-bar| otherwise,
    U-bar being the group's units; `_stabiliser_kernel` gives that kernel,
    vector for vector."""
    sets = set()
    for field, gens, ncells, _ in recorded_problems(monkeypatch, build):
        sets.update((field, key) for key in stabiliser_sets(field, gens, ncells))
    assert sets
    for field, key in sets:
        m, phi = field.modulus, field.degree
        rows = [row for S, U in key for row in action_rows(field, U, [(0, S)])]
        kern = sparse_nullspace(rows, phi)
        group = generated_group(key, m)
        expected = 0 if holds_rotation(group) else phi // len({U for _, U in group})
        assert len(kern) == expected, (field, key)
        assert stabiliser_kernel(field, key) == kern


@pytest.mark.parametrize("key", [
    ((3, 1),),                  # x -> zeta^3 x itself
    ((0, 4), (5, 1)),           # a rotation next to a unit of order 3
    ((0, 8), (3, 8)),           # one U, two S: the rotation is their quotient
    ((2, 4), (4, 4)),           # the same, for a unit of order 3
], ids=["rotation", "rotation-and-unit", "quotient", "quotient-order-3"])
def test_a_set_whose_group_holds_a_rotation_has_kernel_zero(monkeypatch, key):
    """Q(zeta_9), and the full-grid rows of the set on one cell agree: the
    kernel is 0, and the walk finds it with no elimination."""
    field = FieldDescriptor(3, 2)
    assert holds_rotation(generated_group(key, field.modulus))
    rows = [row for S, U in key for row in action_rows(field, U, [(0, S)])]
    assert sparse_nullspace(rows, field.degree) == []
    calls = counted_kernel_bases(monkeypatch)
    assert stabiliser_kernel(field, key) == []
    assert calls == []
    gens = [(U, [(0, S)]) for S, U in key]
    assert fixed_space(field, gens, 1) == []


@pytest.mark.parametrize("p,n,t,u", [(3, 2, 1, 8), (3, 2, 1, 4), (3, 2, 2, 2),
                                     (5, 1, 1, 4), (7, 1, 3, 2)])
def test_a_coboundary_twist_keeps_a_nonzero_kernel(monkeypatch, p, n, t, u):
    """x -> zeta^(t - u*t) sigma_u(x) fixes zeta^t times the fixed field of
    sigma_u: one element twisted by a coboundary holds no rotation, so it is
    eliminated, and its kernel, phi / ord(u) wide, is the full-grid one."""
    field = FieldDescriptor(p, n)
    m, phi = field.modulus, field.degree
    key = (((t - u * t) % m, u),)
    assert not holds_rotation(generated_group(key, m))
    rows = action_rows(field, u, [(0, key[0][0])])
    kern = sparse_nullspace(rows, phi)
    order = next(k for k in range(1, m) if pow(u, k, m) == 1)
    assert len(kern) == phi // order > 0
    calls = counted_kernel_bases(monkeypatch)
    assert stabiliser_kernel(field, key) == kern
    assert calls == [phi]
    basis = fixed_space(field, [(u, [(0, key[0][0])])], 1)
    assert [terms_to_vector(terms) for terms in basis] == kern


def test_fixed_space_keys_its_kernels_by_the_whole_stabiliser_set():
    """Three fixed cells whose stabiliser sets share their first element and
    their units, with different kernels: Q in cell 2, Q*(1 + zeta^3) in
    cell 1, 0 in cell 0.  A kernel keyed by less than the whole sorted set
    would be reused across them."""
    field = FieldDescriptor(3, 2)
    gens = [(8, [(0, 0), (1, 3), (2, 0)]), (4, [(0, 3), (1, 0), (2, 0)])]
    sets = stabiliser_sets(field, gens, 3)
    assert sets == [((0, 4), (0, 8)), ((0, 4), (3, 8)), ((0, 8), (3, 4))]
    rows = [row for u, moves in gens for row in action_rows(field, u, moves)]
    basis = fixed_space(field, gens, 3)
    assert [terms_to_vector(t) for t in basis] == sparse_nullspace(
        rows, 3 * field.degree)
    assert [[c for c, _ in terms] for terms in basis] == [[1], [2]]


@pytest.mark.parametrize("moves", [
    [(0, 0), (0, 0), (2, 0)],             # two cells sent to cell 0
    [(1, 0), (2, 0), (3, 0)],             # a target outside the cells
    [(1, 0), (0, 0)],                     # too few moves
])
def test_fixed_space_refuses_moves_that_do_not_permute_the_cells(moves):
    with pytest.raises(ValueError, match="permute"):
        fixed_space(FieldDescriptor(3, 2), [(2, moves)], 3)


@pytest.mark.parametrize("u", [0, 3, 6])
def test_fixed_space_refuses_a_non_unit_multiplier(u):
    with pytest.raises(ValueError, match="not a unit"):
        fixed_space(FieldDescriptor(3, 2), [(u, [(0, 0), (1, 0)])], 2)
