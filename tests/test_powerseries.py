import random
from fractions import Fraction
from math import factorial

import pytest

from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import powerseries as ps
from twisted_bernoulli.characters import enumerate_cyclic
from twisted_bernoulli.errors import (
    FieldMismatch,
    NonUnitConstantTerm,
    OrderExceeded,
    OrderMismatch,
    PoleAtZero,
    ZeroDenominator,
)
from twisted_bernoulli.exact import RootOfUnity, as_cyclo, cyclo_field

import _oracles
from _oracles import bernoulli_recurrence, eager_series_invert, eager_series_mul, exp_series, series_inv

Q = cyclo_field(1)


def qseries(*coeffs):
    return ps.TruncSeries(Q, [Q.rational(Fraction(c)) for c in coeffs])


def rand_series(rng, m, order, unit=False):
    field = cyclo_field(m)
    coeffs = []
    for i in range(order + 1):
        coeffs.append(
            field.element(
                [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(field.degree)]
            )
        )
    if unit and coeffs[0].is_zero():
        coeffs[0] = field.one
    return ps.TruncSeries(field, coeffs)


def one_series(field, order):
    """1 + 0 t + ... + 0 t^order."""
    return ps.TruncSeries(field, (field.one,) + (field.zero,) * order)


def exp_series_at(a, order):
    """e^(a t) to t^order: coefficients a^n / n!."""
    return ps.TruncSeries(a.field, [a**n * Fraction(1, factorial(n)) for n in range(order + 1)])


def test_mul_exp_cancellation():
    a = exp_series_at(Q.rational(1), 2)
    b = exp_series_at(Q.rational(-1), 2)
    assert ps.series_mul(a, b) == qseries(1, 0, 0)


def test_pow_zero_is_one():
    s = rand_series(random.Random(0), 3, 5)
    assert ps.power(ps.known(s), 0).coeffs(5) == one_series(s.field, 5).coeffs


def test_pow_of_t_squares():
    t = qseries(0, 1, 0, 0)
    assert ps.power(ps.known(t), 2).coeffs(3) == qseries(0, 0, 1, 0).coeffs


def test_invert_example():
    # frozen from the term-by-term solving oracle
    s = qseries(1, Fraction(1, 2), Fraction(1, 4))
    inv = ps.series_invert(s)
    assert [c.rational_value() for c in inv.coeffs] == [1, Fraction(-1, 2), 0]
    assert series_inv([Fraction(1), Fraction(1, 2), Fraction(1, 4)]) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(0),
    ]


def test_invert_constant():
    assert ps.series_invert(qseries(2, 0, 0)) == qseries(Fraction(1, 2), 0, 0)


def test_invert_needs_unit():
    with pytest.raises(NonUnitConstantTerm):
        ps.series_invert(qseries(0, 1, 0))


def test_divide_cancel_classical_bernoulli():
    order = 8
    t = qseries(*([0, 1] + [0] * (order - 1)))
    den = [Fraction(c) for c in exp_series(1, order)]
    den[0] -= 1
    e = ps.TruncSeries(Q, [Q.rational(c) for c in den])
    quot = ps.divide_cancel(t, e)
    # EGF coefficients are the classical numbers from the recurrence oracle
    expected = bernoulli_recurrence(quot.order)
    for n in range(quot.order + 1):
        assert ps.egf_coefficient(quot, n).rational_value() == expected[n]
    assert quot.coeffs[0].rational_value() == 1
    assert quot.coeffs[1].rational_value() == Fraction(-1, 2)


def test_divide_cancel_twisted_denominator_keeps_valuation():
    order = 6
    t = qseries(*([0, 1] + [0] * (order - 1)))
    den = [-Fraction(c) for c in exp_series(1, order)]
    den[0] -= 1
    e = ps.TruncSeries(Q, [Q.rational(c) for c in den])
    quot = ps.divide_cancel(t, e)
    assert quot.order == order  # denominator valuation 0: nothing stripped
    assert quot.coeffs[0].is_zero()
    assert ps.t_valuation(quot) == 1


def test_divide_cancel_pole_raises():
    num = qseries(1, 0, 0)
    den = qseries(0, 1, 0)
    with pytest.raises(PoleAtZero):
        ps.divide_cancel(num, den)


def test_divide_cancel_zero_denominator():
    with pytest.raises(ZeroDenominator):
        ps.divide_cancel(qseries(0, 1, 0), qseries(0, 0, 0))


def test_egf_coefficient():
    s = exp_series_at(Q.rational(1), 6)
    for n in range(7):
        assert ps.egf_coefficient(s, n) == 1
    assert ps.egf_coefficient(qseries(5, 1, Fraction(1, 6)), 0).rational_value() == 5
    with pytest.raises(OrderExceeded):
        ps.egf_coefficient(s, 7)


def test_binary_ops_enforce_field_and_order():
    with pytest.raises(FieldMismatch):
        ps.series_mul(qseries(1, 0), rand_series(random.Random(1), 3, 1))
    with pytest.raises(OrderMismatch):
        ps.series_mul(qseries(1, 0), qseries(1, 0, 0))


# --- algebraic properties -----------------------------------------------------

def test_mul_commutative_associative():
    rng = random.Random(42)
    for m in (1, 3, 4, 6):
        for _ in range(4):
            a = rand_series(rng, m, 8)
            b = rand_series(rng, m, 8)
            c = rand_series(rng, m, 8)
            assert ps.series_mul(a, b) == ps.series_mul(b, a)
            assert ps.series_mul(ps.series_mul(a, b), c) == ps.series_mul(a, ps.series_mul(b, c))


def test_invert_is_right_inverse():
    rng = random.Random(43)
    for m in (1, 3, 4):
        for _ in range(5):
            s = rand_series(rng, m, 7, unit=True)
            assert ps.series_mul(s, ps.series_invert(s)) == one_series(s.field, 7)


def test_divide_cancel_inverts_multiplication():
    rng = random.Random(44)
    for m in (1, 3):
        for _ in range(5):
            num = rand_series(rng, m, 8)
            den = rand_series(rng, m, 8, unit=True)
            prod = ps.series_mul(num, den)
            vd = ps.t_valuation(den)
            got = ps.divide_cancel(prod, den)
            assert got.order == 8 - vd
            assert got.coeffs == num.coeffs[: 8 - vd + 1]


def test_exp_addition_law():
    field = cyclo_field(3)
    a = as_cyclo(RootOfUnity(3, 1), 3)
    b = field.rational(Fraction(1, 2)) - a
    lhs = ps.series_mul(exp_series_at(a, 9), exp_series_at(b, 9))
    assert lhs == exp_series_at(a + b, 9)


# --- series grown on demand ----------------------------------------------------

# the order in which each grown series is asked for its prefixes
GROWTH = (2, 7, 3, 12)


def assert_grown_prefixes(series, eager):
    """Each prefix of series, asked for in GROWTH order, equals eager's."""
    for n in GROWTH:
        assert series.coeffs(n) == eager.coeffs[: n + 1], n


def eager_power(s, k):
    out = one_series(s.field, s.order)
    for _ in range(k):
        out = eager_series_mul(out, s)
    return out


def test_grown_product_inverse_and_power_equal_the_eager_loops():
    rng = random.Random(45)
    for m in (1, 3, 4, 5, 9):
        a = rand_series(rng, m, 12)
        b = rand_series(rng, m, 12, unit=True)
        assert_grown_prefixes(ps.product(ps.known(a), ps.known(b)), eager_series_mul(a, b))
        assert_grown_prefixes(ps.inverse(ps.known(b)), eager_series_invert(b))
        for k in range(5):
            assert_grown_prefixes(ps.power(ps.known(a), k), eager_power(a, k))
        assert ps.series_mul(a, b) == eager_series_mul(a, b)
        assert ps.series_invert(b) == eager_series_invert(b)


def eager_family(spec, k, order):
    """F^(k) to t^order from the eager loops and the term-by-term twisted sums."""
    field, d = spec.ambient, spec.chi.modulus
    xid = as_cyclo(spec.xi**d, field.conductor)
    num = [field.zero] + _oracles.twisted_exp_sum(spec, order + 1)
    den = [xid * Fraction(d**r, factorial(r)) for r in range(order + 2)]
    den[0] = den[0] - 1
    v = 0 if not den[0].is_zero() else 1
    num, den = ps.TruncSeries(field, num[v : v + order + 1]), ps.TruncSeries(field, den[v : v + order + 1])
    return eager_power(eager_series_mul(num, eager_series_invert(den)), k), v


def test_grown_generating_series_equal_the_eager_loops():
    for f in (bn.family_series, bn._kernel_series, bn.generating_series, bn.numbers):
        f.cache_clear()
    for d in range(1, 6):
        for chi in enumerate_cyclic(d):
            for order in (1, 2, 3, 4, 9):
                spec = bn.twist_spec(chi, RootOfUnity(order, 1))
                for k in range(5):
                    eager, v = eager_family(spec, k, 12)
                    assert_grown_prefixes(bn.family_series(spec, k), eager)
                    for n in GROWTH:
                        if n >= k + 2:
                            got = bn.generating_series(spec, k, n)
                            assert got == ps.TruncSeries(spec.ambient, eager.coeffs[: n - v + 1])


def test_a_step_that_raises_leaves_the_series_unchanged():
    asked = []

    def term(r):
        asked.append(r)
        if r == 5:
            raise ValueError("no coefficient 5")
        return Q.rational(r)

    s = ps.generated(Q, term)
    square = ps.product(s, s)
    assert square.coeffs(3) == ps.series_mul(qseries(0, 1, 2, 3), qseries(0, 1, 2, 3)).coeffs
    for _ in range(2):  # the next request raises again
        with pytest.raises(ValueError):
            square.coeffs(7)
        # s grew to 4 for the step of square that succeeded, and no further
        assert s == ps.known(qseries(0, 1, 2, 3, 4))
        assert square == ps.known(qseries(0, 0, 1, 4))
    assert asked == [0, 1, 2, 3, 4, 5, 5]
    inv = ps.inverse(ps.known(qseries(0, 1, 0)))
    for _ in range(2):
        with pytest.raises(NonUnitConstantTerm):
            inv.coeffs(1)
        assert repr(inv) == "Series(m=1, computed=0)"
    with pytest.raises(OrderExceeded):
        ps.known(qseries(1, 2)).coeffs(2)
