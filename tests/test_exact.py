import random
from fractions import Fraction
from math import gcd

import pytest

from twisted_bernoulli.errors import (
    DivisionByZero,
    FieldMismatch,
    NonDivisibleConductor,
    UnsupportedField,
)
from twisted_bernoulli.exact import (
    INFINITY,
    CycloElem,
    RootOfUnity,
    as_cyclo,
    cyclo_field,
    cyclo_from_json,
    cyclo_to_json,
    cyclotomic_polynomial,
    embed,
    galois_apply,
    norm,
    padic_valuation,
    totient,
)

from _oracles import cyclotomic_oracle, poly_mul, reduce_mod, sylvester_resultant


def elem(m, *coeffs):
    return cyclo_field(m).element([Fraction(c) for c in coeffs])


def rand_elem(rng, m, span=4):
    field = cyclo_field(m)
    return field.element(
        [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(field.degree)]
    )


# --- cyclotomic polynomials --------------------------------------------------

def test_cyclotomic_base_case():
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_cyclotomic_small_cases():
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    # frozen from the brute-force division oracle
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(6) == tuple(cyclotomic_oracle(6))
    # three and four distinct primes: Moebius products of 8 and 16 factors
    for m in (105, 210, 330):
        assert cyclotomic_polynomial(m) == tuple(cyclotomic_oracle(m)), m


@pytest.mark.parametrize("m", range(1, 31))
def test_cyclotomic_product_recovers_xm_minus_1(m):
    prod = [1]
    for d in range(1, m + 1):
        if m % d == 0:
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
    expected = [-1] + [0] * (m - 1) + [1]
    assert prod == expected


def test_cyclotomic_degree_is_totient():
    for m in (1, 2, 3, 8, 12, 15, 30, 2310, 9240):
        assert len(cyclotomic_polynomial(m)) - 1 == totient(m)


# --- embeddings ---------------------------------------------------------------

def test_embed_fixes_rationals():
    e = cyclo_field(2).rational(-1)
    assert embed(e, 6).coeffs == (Fraction(-1), Fraction(0))


def test_embed_zeta2_into_6():
    # zeta_2 reduces to -1 already in Q(zeta_2); frozen against the reduction
    # oracle: x^3 mod Phi_6 = -1
    z2 = as_cyclo(RootOfUnity(2, 1), 2)
    assert embed(z2, 6).coeffs == (Fraction(-1), Fraction(0))
    r = reduce_mod([0, 0, 0, 1], [Fraction(c) for c in cyclotomic_polynomial(6)])
    assert r == [Fraction(-1), Fraction(0)]


def test_embed_identity():
    z3 = as_cyclo(RootOfUnity(3, 1), 3)
    assert embed(z3, 3) is z3
    assert z3.coeffs == (Fraction(0), Fraction(1))


def test_embed_requires_divisibility():
    with pytest.raises(NonDivisibleConductor):
        embed(as_cyclo(RootOfUnity(3, 1), 3), 4)


def horner_embed(e, b):
    """Reference embedding: sum c_i z^i by Horner's rule, z = zeta_b^(b/a)."""
    z = as_cyclo(RootOfUnity(b, b // e.field.conductor), b)
    acc = cyclo_field(b).zero
    for c in reversed(e.coeffs):
        acc = acc * z + c
    return acc


def test_embed_is_multiplicative_and_injective():
    rng = random.Random(7)
    for a, b in ((3, 12), (4, 12), (2, 6), (6, 12), (5, 15), (9, 36)):
        seen = set()
        for _ in range(8):
            e1, e2 = rand_elem(rng, a), rand_elem(rng, a)
            for e in (e1, e2, e1 * e2, e1 + e2):
                assert embed(e, b) == horner_embed(e, b)
            assert embed(e1 * e2, b) == embed(e1, b) * embed(e2, b)
            assert embed(e1 + e2, b) == embed(e1, b) + embed(e2, b)
            seen.add(embed(e1, b))
        # distinct small elements stay distinct
        es = [elem(a, *([i] + [0] * (cyclo_field(a).degree - 1))) for i in range(5)]
        assert len({embed(e, b) for e in es}) == 5


# --- arithmetic ----------------------------------------------------------------

def test_mul_conjugates_in_q_i():
    one = cyclo_field(4).one
    z4 = as_cyclo(RootOfUnity(4, 1), 4)
    assert (one + z4) * (one - z4) == 2


def test_inverse_of_zeta4():
    z4 = as_cyclo(RootOfUnity(4, 1), 4)
    assert z4.inverse() == -z4
    assert z4.inverse() * z4 == 1


def test_add_reduces_mod_phi3():
    # zeta_3 + zeta_3^2 = -1, frozen from the reduction oracle
    z3 = as_cyclo(RootOfUnity(3, 1), 3)
    assert z3 + z3 * z3 == -1
    r = reduce_mod([0, 1, 1], [Fraction(c) for c in cyclotomic_polynomial(3)])
    assert r == [Fraction(-1), Fraction(0)]


def test_field_mismatch_raises():
    with pytest.raises(FieldMismatch):
        as_cyclo(RootOfUnity(3, 1), 3) * as_cyclo(RootOfUnity(4, 1), 4)


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        cyclo_field(4).zero.inverse()


@pytest.mark.parametrize("m", (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 18, 27))
def test_inverse_times_self_is_one(m):
    rng = random.Random(m)
    for _ in range(6):
        e = rand_elem(rng, m)
        if e.is_zero():
            continue
        assert e.inverse() * e == cyclo_field(m).one


def test_scalar_coercion():
    z3 = as_cyclo(RootOfUnity(3, 1), 3)
    assert (z3 + 1) - 1 == z3
    assert z3 * Fraction(2, 3) == Fraction(2, 3) * z3
    assert (z3 * 2) / 2 == z3


@pytest.mark.parametrize("m", range(1, 31))
def test_scalar_product_equals_fraction_product(m):
    # an int scalar skips Fraction; every scalar kind must give the product
    # of each Fraction coordinate with Fraction(k), in lowest terms
    rng = random.Random(m)
    field = cyclo_field(m)
    for e in (rand_elem(rng, m), rand_elem(rng, m, span=40), field.zero, field.one):
        for k in (3, 12, -1, -6, 0, True, False, Fraction(-5, 6), Fraction(4)):
            want = field.element([c * Fraction(k) for c in e.coeffs])
            for got in (e * k, k * e):
                assert (got.field.conductor, got.nums, got.den) == (m, want.nums, want.den), (e, k)
                assert got.coeffs == tuple(c * Fraction(k) for c in e.coeffs)


def test_powers():
    z9 = as_cyclo(RootOfUnity(9, 1), 9)
    assert z9**9 == 1
    assert z9**-1 == z9.inverse()
    assert z9**0 == 1


# --- as_cyclo -------------------------------------------------------------------

def test_as_cyclo_trivial_and_rational_roots():
    assert as_cyclo(RootOfUnity(1, 0), 4) == 1
    assert as_cyclo(RootOfUnity(2, 1), 2) == -1
    # rational roots embed into fields of odd conductor
    assert as_cyclo(RootOfUnity(2, 1), 9) == -1


def test_as_cyclo_power_reduction():
    # zeta_4^3 = -zeta_4, frozen from reduction mod x^2 + 1
    z = as_cyclo(RootOfUnity(4, 3), 4)
    assert z == -as_cyclo(RootOfUnity(4, 1), 4)


def test_as_cyclo_requires_divisibility():
    with pytest.raises(NonDivisibleConductor):
        as_cyclo(RootOfUnity(3, 1), 4)
    # -1 times a root of order 3 or 5, but no such product is a root of order 4
    with pytest.raises(NonDivisibleConductor):
        as_cyclo(RootOfUnity(4, 1), 15)
    with pytest.raises(NonDivisibleConductor):
        as_cyclo(RootOfUnity(6, 1), 5)


@pytest.mark.parametrize("m", (3, 5, 15))
def test_as_cyclo_takes_minus_an_odd_root_as_one_root(m):
    # in a field of odd conductor m, zeta_2h^(h + 2b) = -zeta_h^b for odd
    # h | m: each root of order 2h (b prime to h) equals that element product
    minus = as_cyclo(RootOfUnity(2, 1), m)
    cases = 0
    for h in (3, 5, 15):
        if m % h:
            continue
        for b in range(h):
            if gcd(b, h) == 1:
                root = RootOfUnity(2, 1) * RootOfUnity(h, b)
                assert root.normalized().order == 2 * h
                assert as_cyclo(root, m) == minus * as_cyclo(RootOfUnity(h, b), m)
                cases += 1
    assert cases == {3: 2, 5: 4, 15: 2 + 4 + 8}[m]


def test_root_of_unity_normalization():
    assert RootOfUnity(4, 2) == RootOfUnity(2, 1)
    assert RootOfUnity(9, 3).normalized().order == 3
    assert RootOfUnity(6, 5) * RootOfUnity(6, 1) == RootOfUnity(1, 0)
    assert (RootOfUnity(9, 1) ** 3).normalized() == RootOfUnity(3, 1)


# --- norm and valuation ----------------------------------------------------------

def test_norm_of_rational():
    assert norm(cyclo_field(4).rational(2)) == 4


def test_norm_of_zeta3_minus_1():
    e = as_cyclo(RootOfUnity(3, 1), 3) - 1
    assert norm(e) == 3
    # resultant oracle: Res(Phi_3, x - 1)
    assert sylvester_resultant([1, 1, 1], [-1, 1]) == 3


def test_norm_of_zero():
    assert norm(cyclo_field(3).zero) == 0


def test_norm_matches_resultant_oracle():
    rng = random.Random(11)
    # m = 6, 10: conductors = 2 mod 4, basis in zeta_m but Q(zeta_m) = Q(zeta_{m/2})
    for m in (3, 4, 5, 6, 8, 9, 10, 12):
        phi = [Fraction(c) for c in cyclotomic_polynomial(m)]
        for _ in range(5):
            e = rand_elem(rng, m, span=3)
            coeffs = list(e.coeffs)
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
            if not coeffs:
                continue
            assert norm(e) == sylvester_resultant(phi, coeffs)


def test_norm_is_multiplicative():
    rng = random.Random(3)
    for m in (3, 4, 6, 12):
        for _ in range(6):
            e1, e2 = rand_elem(rng, m, 3), rand_elem(rng, m, 3)
            assert norm(e1 * e2) == norm(e1) * norm(e2)


def test_padic_valuation_rational():
    assert padic_valuation(cyclo_field(1).rational(Fraction(9, 2)), 3) == 2
    assert padic_valuation(cyclo_field(1).zero, 5) == INFINITY


def test_padic_valuation_ramified():
    e = as_cyclo(RootOfUnity(3, 1), 3) - 1
    assert padic_valuation(e, 3) == Fraction(1, 2)
    e9 = as_cyclo(RootOfUnity(9, 1), 9) - 1
    assert padic_valuation(e9, 3) == Fraction(1, 6)


def test_padic_valuation_rational_element_in_any_field():
    e = cyclo_field(6).rational(Fraction(4, 3))
    assert padic_valuation(e, 2) == 2
    assert padic_valuation(e, 3) == -1


def test_padic_valuation_rejects_split_fields():
    with pytest.raises(UnsupportedField):
        padic_valuation(as_cyclo(RootOfUnity(6, 1), 6) - 1, 3)


def test_padic_valuation_is_additive():
    rng = random.Random(5)
    for m, p in ((3, 3), (9, 3), (4, 2), (8, 2)):
        for _ in range(6):
            e1, e2 = rand_elem(rng, m, 3), rand_elem(rng, m, 3)
            if e1.is_zero() or e2.is_zero():
                continue
            assert padic_valuation(e1 * e2, p) == padic_valuation(e1, p) + padic_valuation(e2, p)


# --- galois -----------------------------------------------------------------------

def test_galois_apply_is_field_automorphism():
    rng = random.Random(13)
    for m, s in ((3, 2), (4, 3), (9, 2), (9, 4)):
        for _ in range(5):
            e1, e2 = rand_elem(rng, m), rand_elem(rng, m)
            assert galois_apply(e1 * e2, s) == galois_apply(e1, s) * galois_apply(e2, s)
            assert galois_apply(e1 + e2, s) == galois_apply(e1, s) + galois_apply(e2, s)
    z9 = as_cyclo(RootOfUnity(9, 1), 9)
    assert galois_apply(z9, 4) == z9**4


def test_high_power_of_zeta_asked_first():
    # Q(zeta_2310), phi = 480: zeta^2309 lies 1829 rows above the kernel's
    # table; used by no other test, so this is the first power asked for
    z2309 = as_cyclo(RootOfUnity(2310, 2309), 2310)
    zeta = as_cyclo(RootOfUnity(2310, 1), 2310)
    assert z2309 * zeta == 1
    assert galois_apply(zeta, 2309) == z2309


def test_galois_apply_requires_coprime():
    with pytest.raises(ValueError):
        galois_apply(as_cyclo(RootOfUnity(9, 1), 9), 3)


# --- serialization -----------------------------------------------------------------

def test_json_round_trip():
    rng = random.Random(17)
    for m in (1, 3, 4, 9, 12):
        for _ in range(5):
            e = rand_elem(rng, m)
            assert cyclo_from_json(cyclo_to_json(e)) == e


def test_json_rational_collapses_to_string():
    e = cyclo_field(1).rational(Fraction(-1, 2))
    assert cyclo_to_json(e) == "-1/2"
    nested = cyclo_to_json(as_cyclo(RootOfUnity(3, 1), 3))
    assert nested == {"conductor": 3, "coeffs": ["0/1", "1/1"]}


def test_coeffs_are_canonical_fractions():
    e = elem(4, Fraction(2, 4), Fraction(-6, 4))
    assert e.coeffs == (Fraction(1, 2), Fraction(-3, 2))
    assert e == elem(4, Fraction(1, 2), Fraction(-3, 2))
