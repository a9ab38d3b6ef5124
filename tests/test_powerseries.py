import random
from fractions import Fraction
from math import factorial

import pytest

from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import powerseries as ps
from twisted_bernoulli.characters import enumerate_cyclic
from twisted_bernoulli.errors import FieldMismatch, NonUnitConstantTerm
from twisted_bernoulli.exact import RootOfUnity, as_cyclo, cyclo_field

import _oracles
from _oracles import bernoulli_recurrence, eager_series_invert, eager_series_mul, exp_series, series_inv

Q = cyclo_field(1)


def poly_series(field, coeffs):
    """The polynomial with the given coefficients, as a series."""
    coeffs = list(coeffs)
    return ps.generated(field, lambda r: coeffs[r] if r < len(coeffs) else field.zero)


def qvalues(*coeffs):
    return [Q.rational(Fraction(c)) for c in coeffs]


def qseries(*coeffs):
    return poly_series(Q, qvalues(*coeffs))


def rand_coeffs(rng, m, order, unit=False):
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
    return coeffs


def exp_series_at(a):
    """e^(a t): coefficients a^n / n!."""
    return ps.generated(a.field, lambda n: a**n * Fraction(1, factorial(n)))


def test_mul_exp_cancellation():
    a = exp_series_at(Q.rational(1))
    b = exp_series_at(Q.rational(-1))
    assert ps.series_mul(a, b).coeffs(2) == tuple(qvalues(1, 0, 0))


def test_pow_zero_is_one():
    field = cyclo_field(3)
    s = poly_series(field, rand_coeffs(random.Random(0), 3, 5))
    assert ps.power(s, 0).coeffs(5) == (field.one,) + (field.zero,) * 5


def test_pow_of_t_squares():
    t = qseries(0, 1)
    assert ps.power(t, 2).coeffs(3) == tuple(qvalues(0, 0, 1, 0))


def test_invert_example():
    # frozen from the term-by-term solving oracle
    inv = ps.series_invert(qseries(1, Fraction(1, 2), Fraction(1, 4)))
    assert [c.rational_value() for c in inv.coeffs(2)] == [1, Fraction(-1, 2), 0]
    assert series_inv([Fraction(1), Fraction(1, 2), Fraction(1, 4)]) == [
        Fraction(1),
        Fraction(-1, 2),
        Fraction(0),
    ]


def test_invert_constant():
    assert ps.series_invert(qseries(2)).coeffs(2) == tuple(qvalues(Fraction(1, 2), 0, 0))


def test_invert_needs_unit():
    with pytest.raises(NonUnitConstantTerm):
        ps.series_invert(qseries(0, 1)).coeffs(0)


def test_divide_cancel_classical_bernoulli():
    order = 8
    den = [Fraction(c) for c in exp_series(1, order)]
    den[0] -= 1
    quot = ps.divide_cancel(qseries(0, 1), qseries(*den), 1)
    # EGF coefficients are the classical numbers from the recurrence oracle
    expected = bernoulli_recurrence(order - 1)
    for n in range(order):
        assert ps.egf_coefficient(quot, n).rational_value() == expected[n]
    assert quot.coeff(0).rational_value() == 1
    assert quot.coeff(1).rational_value() == Fraction(-1, 2)


def test_divide_cancel_twisted_denominator_keeps_valuation():
    order = 6
    den = [-Fraction(c) for c in exp_series(1, order)]
    den[0] -= 1
    quot = ps.divide_cancel(qseries(0, 1), qseries(*den), 0)
    got = quot.coeffs(order)
    assert got[0].is_zero()  # denominator valuation 0: nothing cancelled
    assert got[1].rational_value() == Fraction(-1, 2)


def test_divide_cancel_zero_denominator():
    # a denominator with nothing left at t^0 after the cancelled t^v
    for den, v in ((qseries(0, 0, 1), 1), (qseries(0), 0)):
        with pytest.raises(NonUnitConstantTerm):
            ps.divide_cancel(qseries(0, 1), den, v).coeffs(0)


def test_egf_coefficient():
    s = exp_series_at(Q.rational(1))
    for n in range(7):
        assert ps.egf_coefficient(s, n) == 1
    assert ps.egf_coefficient(qseries(5, 1, Fraction(1, 6)), 0).rational_value() == 5
    assert ps.egf_coefficient(qseries(5, 1, Fraction(1, 6)), 2).rational_value() == Fraction(1, 3)


def test_binary_ops_enforce_one_field():
    other = poly_series(cyclo_field(3), rand_coeffs(random.Random(1), 3, 1))
    with pytest.raises(FieldMismatch):
        ps.series_mul(qseries(1, 0), other)


# --- algebraic properties -----------------------------------------------------

def test_mul_commutative_associative():
    rng = random.Random(42)
    for m in (1, 3, 4, 6):
        field = cyclo_field(m)
        for _ in range(4):
            a, b, c = (poly_series(field, rand_coeffs(rng, m, 8)) for _ in range(3))
            mul = ps.series_mul
            assert mul(a, b).coeffs(8) == mul(b, a).coeffs(8)
            assert mul(mul(a, b), c).coeffs(8) == mul(a, mul(b, c)).coeffs(8)


def test_invert_is_right_inverse():
    rng = random.Random(43)
    for m in (1, 3, 4):
        field = cyclo_field(m)
        for _ in range(5):
            s = poly_series(field, rand_coeffs(rng, m, 7, unit=True))
            got = ps.series_mul(s, ps.series_invert(s)).coeffs(7)
            assert got == (field.one,) + (field.zero,) * 7


def test_divide_cancel_inverts_multiplication():
    rng = random.Random(44)
    for m in (1, 3):
        field = cyclo_field(m)
        for _ in range(5):
            num = rand_coeffs(rng, m, 8)
            den = rand_coeffs(rng, m, 8, unit=True)
            for v in (0, 1, 2):
                # num t^v and den t^v share the factor t^v that is cancelled
                head = [field.zero] * v
                prod = ps.series_mul(poly_series(field, head + num), poly_series(field, den))
                got = ps.divide_cancel(prod, poly_series(field, head + den), v)
                assert got.coeffs(8) == tuple(num)


def test_exp_addition_law():
    field = cyclo_field(3)
    a = as_cyclo(RootOfUnity(3, 1), 3)
    b = field.rational(Fraction(1, 2)) - a
    lhs = ps.series_mul(exp_series_at(a), exp_series_at(b))
    assert lhs.coeffs(9) == exp_series_at(a + b).coeffs(9)


# --- series grown on demand ----------------------------------------------------

# the order in which each grown series is asked for its prefixes
GROWTH = (2, 7, 3, 12)


def assert_grown_prefixes(series, eager):
    """Each prefix of series, asked for in GROWTH order, equals eager's."""
    for n in GROWTH:
        assert series.coeffs(n) == tuple(eager[: n + 1]), n


def eager_power(s, k):
    out = [s[0].field.one] + [s[0].field.zero] * (len(s) - 1)
    for _ in range(k):
        out = eager_series_mul(out, s)
    return out


def test_grown_product_inverse_and_power_equal_the_eager_loops():
    rng = random.Random(45)
    for m in (1, 3, 4, 5, 9):
        field = cyclo_field(m)
        a = rand_coeffs(rng, m, 12)
        b = rand_coeffs(rng, m, 12, unit=True)
        sa, sb = poly_series(field, a), poly_series(field, b)
        assert_grown_prefixes(ps.series_mul(sa, sb), eager_series_mul(a, b))
        assert_grown_prefixes(ps.series_invert(sb), eager_series_invert(b))
        for k in range(5):
            assert_grown_prefixes(ps.power(sa, k), eager_power(a, k))


def eager_family(spec, k, order):
    """F^(k) to t^order from the eager loops and the term-by-term twisted sums."""
    field, d = spec.ambient, spec.chi.modulus
    xid = as_cyclo(spec.xi**d, field.conductor)
    num = [field.zero] + _oracles.twisted_exp_sum(spec, order + 1)
    den = [xid * Fraction(d**r, factorial(r)) for r in range(order + 2)]
    den[0] = den[0] - 1
    v = 0 if not den[0].is_zero() else 1
    num, den = num[v : v + order + 1], den[v : v + order + 1]
    return eager_power(eager_series_mul(num, eager_series_invert(den)), k)


def test_grown_generating_series_equal_the_eager_loops():
    for f in (bn.generating_series, bn._kernel_series, bn.numbers):
        f.cache_clear()
    for d in range(1, 6):
        for chi in enumerate_cyclic(d):
            for order in (1, 2, 3, 4, 9):
                spec = bn.twist_spec(chi, RootOfUnity(order, 1))
                for k in range(5):
                    eager = eager_family(spec, k, 12)
                    assert_grown_prefixes(bn.generating_series(spec, k), eager)
                    for n in GROWTH:
                        nums = bn.numbers(spec, k, n)
                        assert nums == tuple(c * factorial(i) for i, c in enumerate(eager[: n + 1]))


def test_a_step_that_raises_leaves_the_series_unchanged():
    asked = []

    def term(r):
        asked.append(r)
        if r == 5:
            raise ValueError("no coefficient 5")
        return Q.rational(r)

    s = ps.generated(Q, term)
    square = ps.series_mul(s, s)
    assert square.coeffs(3) == tuple(eager_series_mul(qvalues(0, 1, 2, 3), qvalues(0, 1, 2, 3)))
    for _ in range(2):  # the next request raises again
        with pytest.raises(ValueError):
            square.coeffs(7)
        # s grew to 4 for the step of square that succeeded, and no further
        assert repr(s) == "Series(m=1, computed=5)"
        assert s.coeffs(4) == tuple(qvalues(0, 1, 2, 3, 4))
        assert repr(square) == "Series(m=1, computed=4)"
        assert square.coeffs(3) == tuple(qvalues(0, 0, 1, 4))
    assert asked == [0, 1, 2, 3, 4, 5, 5]
    inv = ps.series_invert(qseries(0, 1))
    for _ in range(2):
        with pytest.raises(NonUnitConstantTerm):
            inv.coeffs(1)
        assert repr(inv) == "Series(m=1, computed=0)"
