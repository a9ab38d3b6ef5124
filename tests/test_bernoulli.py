import random
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from twisted_bernoulli import _kernel
from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import powerseries as ps
from twisted_bernoulli.characters import enumerate_cyclic, from_table, principal
from twisted_bernoulli.errors import FieldMismatch, NonCyclicUnitGroup, NonDivisibleConductor
from twisted_bernoulli.exact import RootOfUnity, as_cyclo, galois_apply

import _oracles
from _oracles import bernoulli_recurrence, classical_poly_at, twisted_minus_one

ONE = RootOfUnity(1, 0)
MINUS = RootOfUnity(2, 1)
CLASSICAL = bn.twist_spec(principal(1), ONE)


def test_classical_numbers_match_recurrence_oracle():
    fam = bn.numbers(CLASSICAL, 1, 10)
    expected = bernoulli_recurrence(10)
    assert [c.rational_value() for c in fam] == expected
    assert fam[1].rational_value() == Fraction(-1, 2)
    assert fam[2].rational_value() == Fraction(1, 6)
    assert fam[4].rational_value() == Fraction(-1, 30)


def test_generating_series_egf_coefficients():
    series = bn.generating_series(CLASSICAL, 1)
    got = [ps.egf_coefficient(series, n).rational_value() for n in range(5)]
    assert got == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]


def test_twist_minus_one_numbers():
    # frozen from the independent series-division oracle
    spec = bn.twist_spec(principal(1), MINUS)
    fam = bn.numbers(spec, 1, 4)
    got = [c.rational_value() for c in fam]
    assert got == [0, Fraction(-1, 2), Fraction(1, 2), 0, Fraction(-1, 2)]
    assert got == twisted_minus_one(4)


def test_twist_order_three_first_number():
    # one step of series inversion gives B_1 = 1/(xi - 1)
    spec = bn.twist_spec(principal(1), RootOfUnity(3, 1))
    b1 = bn.numbers(spec, 1, 1)[1]
    xi = as_cyclo(RootOfUnity(3, 1), spec.ambient.conductor)
    assert b1 * (xi - 1) == 1
    assert b1.coeffs == (Fraction(-2, 3), Fraction(-1, 3))


#: Every character mod d <= 9 but 8 (whose unit group is not cyclic), with
#: every primitive root of unity of these orders as its twist.
ORDER1_SPECS = [
    bn.twist_spec(chi, RootOfUnity(order, e))
    for d in (1, 2, 3, 4, 5, 6, 7, 9)
    for chi in enumerate_cyclic(d)
    for order in (1, 2, 3, 4, 6, 9)
    for e in range(order)
    if gcd(e, order) == 1
]


def test_order1_numbers_multiplied_back_by_the_denominator():
    # (xi^d e^(d t) - 1) F(t) is t times the exponential sum, so the numbers
    # times the denominator, by field products alone, give n T_(n-1)(d - 1)
    # of the term-by-term power sums
    cases = 0
    for spec in ORDER1_SPECS:
        for lhs, rhs in _oracles.order1_multiplied_back(spec, bn.numbers(spec, 1, 6)):
            assert lhs == rhs, spec
            cases += 1
    assert cases == 2016


def test_order1_numbers_from_classical_polynomials():
    # when xi^d = 1 the numbers are sums of the classical B_n(a/d)
    cases = 0
    for spec in ORDER1_SPECS:
        if (spec.xi**spec.chi.modulus).is_one():
            assert list(bn.numbers(spec, 1, 6)) == _oracles.order1_from_classical(spec, 6), spec
            cases += 7
    assert cases == 651


#: Every (d, M) with d <= 6 and M = d p^N in {16, 18, 24, 25, 27, 30}, N >= 1.
LEVELS = [(1, 16), (2, 16), (4, 16), (2, 18), (6, 18), (3, 24), (6, 24), (1, 25), (5, 25),
          (1, 27), (3, 27), (6, 30)]


def test_order_k_numbers_from_the_level_sums_of_the_integral():
    # the k-fold Riemann sum at level N is F^(k)(t) ((xi^M e^(M t) - 1) / (M t))^k:
    # enumerated sums against the package's F^(k), for k <= 3 and n <= 4
    cases = 0
    for d, M in LEVELS:
        for chi in enumerate_cyclic(d):
            for order in (1, 2, 3, 4, 9):
                spec = bn.twist_spec(chi, RootOfUnity(order, 1))
                sums = _oracles.level_sums(spec, M, 3, 4)
                for k in (1, 2, 3):
                    head, tail = _oracles.level_sums_from_series(spec, M, k, 4)
                    assert all(c.is_zero() for c in head), (spec, M, k)
                    assert tail == sums[k], (spec, M, k)
                    cases += len(tail)
    assert cases == 1575


def test_order_zero_is_constant_one():
    for spec in (CLASSICAL, bn.twist_spec(from_table(4, [0, 1, 0, -1]), RootOfUnity(4, 1))):
        coeffs = bn.generating_series(spec, 0).coeffs(6)
        assert coeffs[0] == 1
        assert all(c.is_zero() for c in coeffs[1:])


def test_higher_order_head_vanishes():
    # order-k series has t-valuation >= k once xi^d != 1
    spec = bn.twist_spec(principal(1), RootOfUnity(3, 1))
    fam = bn.numbers(spec, 2, 3)
    assert fam[0].is_zero()
    assert fam[1].is_zero()


def test_polynomial_classical_degree2():
    poly = bn.polynomial(CLASSICAL, 1, 2)
    assert [c.rational_value() for c in poly] == [Fraction(1, 6), -1, 1]
    assert bn.evaluate(poly, 3).rational_value() == Fraction(37, 6)
    assert classical_poly_at(2, 3) == Fraction(37, 6)


def test_polynomial_order_zero_is_power():
    spec = bn.twist_spec(from_table(3, [0, 1, -1]), RootOfUnity(9, 1))
    poly = bn.polynomial(spec, 0, 5)
    assert [c.is_zero() for c in poly[:-1]] == [True] * 5
    assert poly[5] == 1
    assert bn.evaluate(poly, Fraction(2, 3)).rational_value() == Fraction(2, 3) ** 5


def test_polynomial_degree_zero():
    spec = bn.twist_spec(principal(2), RootOfUnity(4, 1))
    poly = bn.polynomial(spec, 1, 0)
    assert len(poly) == 1
    assert poly[0] == bn.numbers(spec, 1, 0)[0]


def test_polynomial_leading_coefficient_is_head_number():
    for k in (0, 1, 2):
        spec = bn.twist_spec(principal(1), ONE)
        poly = bn.polynomial(spec, k, 4)
        assert poly[4] == bn.numbers(spec, k, 0)[0]


def test_evaluate_embeds_or_rejects():
    poly = bn.polynomial(CLASSICAL, 1, 2)
    arg = as_cyclo(RootOfUnity(3, 1), 3)
    with pytest.raises(FieldMismatch):
        bn.evaluate(bn.polynomial(bn.twist_spec(principal(1), RootOfUnity(4, 1)), 1, 2), arg)
    val = bn.evaluate(poly, 0)
    assert val.rational_value() == Fraction(1, 6)
    # a rational point is a scalar of each Horner step; a float is no point
    assert bn.evaluate(poly, Fraction(1, 2)) == bn.evaluate(poly, poly[0].field.rational(Fraction(1, 2)))
    with pytest.raises(TypeError):
        bn.evaluate(poly, 0.5)


def test_power_sum_examples():
    assert bn.power_sum(CLASSICAL, 2, 3).rational_value() == 14
    chi4 = from_table(4, [0, 1, 0, -1])
    spec4 = bn.twist_spec(chi4, ONE)
    assert bn.power_sum(spec4, 1, 5).rational_value() == 3
    # 0^0 = 1 with the modulus-one convention
    assert bn.power_sum(CLASSICAL, 0, 3).rational_value() == 4


# every character mod d <= 5, and the two mod-4 tables of the acceptance grid
SUM_CHARACTERS = [chi for d in range(1, 6) for chi in enumerate_cyclic(d)] + [
    from_table(4, [0, 1, 0, 1]),
    from_table(4, [0, 1, 0, -1]),
]


def _raw(elems):
    return [(c.field.conductor, c.nums, c.den) for c in elems]


@pytest.mark.parametrize("order", (1, 2, 3, 4, 6, 9), ids=lambda o: f"xi{o}")
def test_integer_sums_match_term_by_term_oracle(order):
    # the library sums chi(a) xi^a a^i in integer coordinates; the oracle
    # makes one field product and one field sum per term.  The kernel
    # series times xi^d e^(d t) - 1 is t times the exponential sum
    xi = RootOfUnity(order, 1)
    for chi in SUM_CHARACTERS:
        spec = bn.twist_spec(chi, xi)
        denominator = bn._twisted_exp_minus_one(spec, chi.modulus)
        got = ps.shifted(ps.series_mul(bn.generating_series(spec, 1), denominator), 1).coeffs(8)
        assert _raw(got) == _raw(_oracles.twisted_exp_sum(spec, 9)), chi
        got = [bn.power_sum(spec, k, n) for k in range(9) for n in range(21)]
        want = [_oracles.power_sum(spec, k, n) for k in range(9) for n in range(21)]
        assert _raw(got) == _raw(want), chi
    if order == 3:
        # chi(2) xi^2 = -zeta_3^2 has order 6: it lies in Q(zeta_3), and
        # as_cyclo takes it as a root, equal to the product of the elements
        # chi(2) and xi^2
        spec = bn.twist_spec(from_table(3, [0, 1, -1]), xi)
        assert spec.ambient.conductor == 3
        root = spec.chi.value(2) * xi**2
        assert root.order == 6
        assert as_cyclo(root, 3) == as_cyclo(MINUS, 3) * as_cyclo(xi**2, 3)
    if order == 1:
        # 0^0 = 1: the modulus-one character is 1 at a = 0, so the kernel
        # series t / (e^t - 1) starts at 1
        assert bn.generating_series(CLASSICAL, 1).coeff(0) == 1
        assert bn.power_sum(CLASSICAL, 0, 0) == 1


def test_twist_weights_make_no_field_product(monkeypatch):
    # chi mod 47 of order 46 and xi of order 7: Q(zeta_322), phi = 132, where
    # one element product costs phi^2 coordinate multiplies
    chi = enumerate_cyclic(47)[1]
    spec = bn.twist_spec(chi, RootOfUnity(7, 1))
    field = spec.ambient
    assert field.degree >= 100
    calls = []
    real = _kernel._mul_reduce
    monkeypatch.setattr(_kernel, "_mul_reduce", lambda *a: calls.append(1) or real(*a))
    period, weights = bn._twist_weights.__wrapped__(spec)
    assert calls == []
    assert period == 329 and len(weights) == 322
    monkeypatch.undo()
    for r, w in weights[:4]:
        assert w == (chi.value_at(r, field) * as_cyclo(spec.xi**r, field.conductor)).nums


def test_numbers_make_one_cauchy_sum_per_coefficient(monkeypatch):
    # the kernel quotient q = E / D is one recurrence: q_0 needs no sum and
    # each q_r one Cauchy sum, with no inverse of D multiplied in after it
    calls = []
    real = _kernel.cauchy_coeff
    monkeypatch.setattr(_kernel, "cauchy_coeff", lambda *a: calls.append(1) or real(*a))
    for xi in (ONE, RootOfUnity(3, 1)):  # xi^d = 1 cancels a t, xi^d != 1 does not
        for f in (bn.generating_series, bn.numbers):
            f.cache_clear()
        del calls[:]
        bn.numbers(bn.twist_spec(principal(1), xi), 1, 8)
        assert len(calls) == 8, xi


def test_power_sum_series_check_examples():
    lhs, rhs = bn.power_sum_series_check(CLASSICAL, 2, 8)
    assert lhs == rhs
    egf = [(lhs[k] * factorial(k)).rational_value() for k in range(4)]
    assert egf == [2, 1, 1, 1]

    chi4 = from_table(4, [0, 1, 0, -1])
    lhs4, rhs4 = bn.power_sum_series_check(bn.twist_spec(chi4, ONE), 1, 8)
    assert lhs4 == rhs4

    # xi^(nd) = 1 branch: the head factor has zero constant term
    lhs3, rhs3 = bn.power_sum_series_check(bn.twist_spec(principal(1), RootOfUnity(3, 1)), 3, 8)
    assert lhs3 == rhs3


def _characters_up_to(d_max):
    """Every character enumerate_cyclic gives for d <= d_max, and the principal
    character where the unit group is not cyclic."""
    out = []
    for d in range(1, d_max + 1):
        try:
            out += enumerate_cyclic(d)
        except NonCyclicUnitGroup:
            out.append(principal(d))
    return out


def test_power_sum_series_lhs_equals_the_eager_quotient():
    # lhs is read off the kernel series F = t E / D, as (xi^(nd) e^(nd t) - 1) F / t;
    # the eager route divides (xi^(nd) e^(nd t) - 1) E by D = xi^d e^(d t) - 1
    # in lists, with the common t^v cancelled, E summed term by term
    order, cases = 10, 0
    for chi in _characters_up_to(9):
        d = chi.modulus
        for o in range(1, 7):
            for e in range(o):
                spec = bn.twist_spec(chi, RootOfUnity(o, e))
                field = spec.ambient

                def exp_minus_one(c):
                    xic = as_cyclo(spec.xi**c, field.conductor)
                    out = [xic * Fraction(c**r, factorial(r)) for r in range(order + 1)]
                    return [out[0] - 1] + out[1:]

                den = exp_minus_one(d)
                v = 0 if not den[0].is_zero() else 1
                inv = _oracles.eager_series_invert(den[v:])
                exp_sum = _oracles.twisted_exp_sum(spec, order + 1)
                for n in range(1, 4):
                    num = _oracles.eager_series_mul(exp_minus_one(n * d), exp_sum)
                    assert all(c.is_zero() for c in num[:v])
                    want = _oracles.eager_series_mul(num[v:], inv)
                    lhs, rhs = bn.power_sum_series_check(spec, n, order)
                    assert lhs == tuple(want), (chi, spec.xi, n)
                    assert lhs == rhs and len(lhs) - 1 == order - v
                    cases += 1
    assert cases == 1575


def test_power_sum_series_check_mismatch_reporting():
    lhs, rhs = bn.power_sum_series_check(CLASSICAL, 2, 6)
    assert lhs == rhs
    assert len(lhs) - 1 >= 5


# --- invariants ------------------------------------------------------------------

def _specs_for_properties():
    out = [CLASSICAL]
    out.append(bn.twist_spec(principal(1), RootOfUnity(3, 1)))
    out.append(bn.twist_spec(from_table(4, [0, 1, 0, -1]), RootOfUnity(2, 1)))
    out.append(bn.twist_spec(from_table(3, [0, 1, -1]), RootOfUnity(4, 1)))
    return out


def test_order_composition():
    # every order up to MAX_ORDER equals the eager k-fold product of F and
    # Miller's recurrence, which builds F^k from F alone, on kernel series
    # F = t^v u with v = 0 (u_0 rational and not) and v = 1, 2
    specs = _specs_for_properties()
    specs += [bn.twist_spec(enumerate_cyclic(5)[1], RootOfUnity(5, 2)), bn.twist_spec(principal(3), MINUS)]
    valuations = []
    for spec in specs:
        base = bn.generating_series(spec, 1).coeffs(10)
        valuations.append(_oracles.t_valuation(base))
        field = spec.ambient
        power = [field.one] + [field.zero] * 10
        for k in range(bn.MAX_ORDER + 1):
            got = bn.generating_series(spec, k).coeffs(10)
            assert got == tuple(power), (spec, k)
            assert got == tuple(_oracles.miller_power(list(base), k)), (spec, k)
            power = _oracles.eager_series_mul(power, base)
    assert valuations == [0, 1, 1, 1, 0, 2]


def test_vanishing_head_valuation():
    for spec in _specs_for_properties():
        base = bn.generating_series(spec, 1).coeffs(10)
        v1 = _oracles.t_valuation(base) or 0
        for k in (2, 3):
            vk = _oracles.t_valuation(bn.generating_series(spec, k).coeffs(10))
            if vk is None:
                continue  # identically zero to this order: valuation exceeds it
            assert vk >= k * v1


def test_polynomial_binomial_shift_at_random_points():
    rng = random.Random(9)
    for spec in _specs_for_properties():
        fam = bn.numbers(spec, 2, 5)
        poly = bn.polynomial(spec, 2, 5)
        for _ in range(4):
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            direct = bn.evaluate(poly, a)
            expanded = spec.ambient.zero
            for j in range(6):
                expanded = expanded + comb(5, j) * fam[j] * spec.ambient.rational(a ** (5 - j))
            assert direct == expanded


def test_galois_equivariance():
    cases = [
        (principal(1), RootOfUnity(3, 1), 3),
        (principal(3), RootOfUnity(9, 1), 9),
        (from_table(4, [0, 1, 0, -1]), RootOfUnity(4, 1), 4),
    ]
    for chi, xi, L in cases:
        for s in range(1, L):
            if gcd(s, L) != 1:
                continue
            for k in (1, 2):
                spec = bn.twist_spec(chi, xi, conductor=L)
                spec_s = bn.twist_spec(chi**s, xi**s, conductor=L)
                nums = bn.numbers(spec, k, 4)
                nums_s = bn.numbers(spec_s, k, 4)
                for n in range(5):
                    assert galois_apply(nums[n], s) == nums_s[n]


def test_classical_recurrence_holds():
    fam = bn.numbers(CLASSICAL, 1, 10)
    for n in range(1, 10):
        total = Fraction(0)
        for j in range(n + 1):
            total += comb(n + 1, j) * fam[j].rational_value()
        assert total == 0


def test_ambient_conductor_choices():
    assert bn.twist_spec(principal(1), MINUS).ambient.conductor == 1
    assert bn.twist_spec(from_table(4, [0, 1, 0, -1]), RootOfUnity(9, 1)).ambient.conductor == 9
    assert bn.twist_spec(enumerate_cyclic(5)[1], RootOfUnity(3, 1)).ambient.conductor == 12
    with pytest.raises(NonDivisibleConductor):
        bn.twist_spec(principal(1), RootOfUnity(9, 1), conductor=3)
