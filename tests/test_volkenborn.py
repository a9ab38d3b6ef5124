from fractions import Fraction
from itertools import product

import pytest

from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import volkenborn as vk
from twisted_bernoulli.characters import from_table, principal
from twisted_bernoulli.errors import UnsupportedField
from twisted_bernoulli.exact import INFINITY, RootOfUnity, as_cyclo, cyclo_field

ONE = RootOfUnity(1, 0)
MINUS = RootOfUnity(2, 1)
P1 = principal(1)


def test_riemann_sum_closed_form_pattern():
    # (1/3^N) sum x = (3^N - 1)/2, cross-checked by direct summation
    spec = vk.integrand_spec(P1, ONE, 1)
    for N in range(1, 5):
        s = vk.riemann_sum(spec, 3, N)
        assert s.rational_value() == Fraction(3**N - 1, 2)
        direct = Fraction(sum(range(3**N)), 3**N)
        assert s.rational_value() == direct


def test_riemann_sum_moment_zero_is_one():
    spec = vk.integrand_spec(P1, ONE, 0)
    for N in (1, 2, 3, 5):
        assert vk.riemann_sum(spec, 3, N) == 1
        assert vk.riemann_sum(spec, 2, N) == 1


def test_riemann_sum_alternating():
    spec = vk.integrand_spec(P1, MINUS, 0)
    assert vk.riemann_sum(spec, 2, 2).is_zero()


def test_riemann_sum_matches_direct_enumeration():
    chi = from_table(4, [0, 1, 0, -1])
    spec = vk.integrand_spec(chi, RootOfUnity(3, 1), 2)
    field = cyclo_field(3)
    for N in (1, 2):
        count = 4 * 3**N
        direct = field.zero
        for x in range(count):
            cv = chi.value_at(x, field)
            if cv.is_zero():
                continue
            direct = direct + cv * as_cyclo(RootOfUnity(3, x), 3) * x**2
        direct = direct * Fraction(1, count)
        assert vk.riemann_sum(spec, 3, N) == direct


RATIONAL_CHARACTERS = {
    1: (P1,),
    3: (principal(3), from_table(3, [0, 1, -1])),
    4: (principal(4), from_table(4, [0, 1, 0, -1])),
    5: (principal(5), from_table(5, [0, 1, -1, -1, 1])),
}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_level_sums_are_power_sums_over_the_window(p):
    # the level-N sum is T_n(M - 1) / M with M = d p^N, and the window
    # shifted by s d is (T_n(s d + M - 1) - T_n(s d - 1)) / M: the route a
    # level sum through bernoulli.power_sum would take gives the same values
    for d, chars in RATIONAL_CHARACTERS.items():
        for chi, order, n, level in product(chars, (1, p, p * p), range(4), range(1, 4)):
            spec = vk.integrand_spec(chi, RootOfUnity(order, 1), n)
            tw = bn.twist_spec(chi, spec.xi)
            count = d * p**level
            assert vk.riemann_sum(spec, p, level) == bn.power_sum(tw, n, count - 1) * Fraction(1, count)
            for s in (1, 2):
                window = bn.power_sum(tw, n, s * d + count - 1) - bn.power_sum(tw, n, s * d - 1)
                assert vk._level_sum(spec, p, level, s * d) == window * Fraction(1, count)


def test_integrand_spec_validation():
    with pytest.raises(UnsupportedField):
        vk.integrand_spec(vk_chars_order4(), ONE, 1)
    with pytest.raises(UnsupportedField):
        vk.riemann_sum(vk.integrand_spec(P1, RootOfUnity(3, 1), 1), 2, 2)


def vk_chars_order4():
    from twisted_bernoulli.characters import enumerate_cyclic

    return enumerate_cyclic(5)[1]  # has non-rational values


def test_convergence_closed_form_trace():
    spec = vk.integrand_spec(P1, ONE, 1)
    trace = vk.convergence_check(spec, 3, 6)
    assert trace.valuations == tuple(Fraction(N) for N in range(1, 7))
    assert trace.passes()


def test_convergence_exact_from_start():
    spec = vk.integrand_spec(P1, ONE, 0)
    trace = vk.convergence_check(spec, 3, 5)
    assert all(v == INFINITY for v in trace.valuations)
    assert trace.passes()


def test_convergence_twisted_p2():
    spec = vk.integrand_spec(P1, MINUS, 2)
    trace = vk.convergence_check(spec, 2, 8)
    assert trace.passes()
    target = vk.bernoulli_target(spec)
    assert target.rational_value() == Fraction(1, 2)


def test_convergence_target_consistent_with_numbers():
    for xi, p in ((ONE, 3), (RootOfUnity(3, 1), 3), (MINUS, 2)):
        spec = vk.integrand_spec(P1, xi, 3)
        tw = bn.twist_spec(P1, xi, conductor=spec.xi.order if spec.xi.order > 2 else 1)
        assert vk.bernoulli_target(spec) == bn.numbers(tw, 1, 3)[3]


def test_shift_identity_valuation_grows():
    spec = vk.integrand_spec(P1, ONE, 2)
    vals = [vk.shift_identity_check(spec, 3, 2, N) for N in range(1, 6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))

    spec3 = vk.integrand_spec(P1, RootOfUnity(3, 1), 2)
    vals3 = [vk.shift_identity_check(spec3, 3, 1, N) for N in range(1, 6)]
    assert all(b >= a for a, b in zip(vals3, vals3[1:]))
    assert vals3[-1] > vals3[0]


def test_shift_identity_moment_precondition():
    spec = vk.integrand_spec(P1, ONE, 0)
    with pytest.raises(ValueError):
        vk.shift_identity_check(spec, 3, 1, 2)


def test_shift_identity_reports_without_asserting_exactness():
    # the level-free exact counterpart lives in the identities module; here
    # the checker only reports the finite-level residual valuation
    spec = vk.integrand_spec(P1, ONE, 1)
    val = vk.shift_identity_check(spec, 3, 1, 3)
    assert val == INFINITY or val >= 0


def test_exactness_no_floats():
    spec = vk.integrand_spec(P1, RootOfUnity(9, 1), 3)
    s = vk.riemann_sum(spec, 3, 3)
    assert all(isinstance(c, Fraction) for c in s.coeffs)


def test_refinement_reindexing_witness():
    # splitting the range of a d-refined sum by residue is an exact identity
    # at every finite level
    for d in (2, 3, 4):
        chi = principal(d)
        for n in (0, 1, 2, 3):
            spec = vk.integrand_spec(chi, ONE, n)
            for p, N in ((3, 2), (2, 3)):
                count = d * p**N
                whole = vk.riemann_sum(spec, p, N)
                regrouped = Fraction(0)
                for a in range(d):
                    if chi.value(a) is None:
                        continue
                    inner = sum(Fraction((a + d * y) ** n) for y in range(p**N))
                    regrouped += inner
                regrouped /= count
                assert whole.rational_value() == regrouped


def test_trace_passes_criterion_edges():
    mk = lambda vals: vk.ConvergenceTrace(
        levels=tuple(range(1, len(vals) + 1)), valuations=tuple(vals)
    )
    assert mk([Fraction(1), Fraction(1), Fraction(2), Fraction(2), Fraction(3)]).passes()
    assert not mk([Fraction(1), Fraction(2), Fraction(1), Fraction(2), Fraction(3), Fraction(3), Fraction(3)]).passes()
    # plateau forever fails the strict-growth requirement
    assert not mk([Fraction(1)] * 6).passes()
    # noisy start is forgiven when N0 <= 3 works
    assert mk([Fraction(5), Fraction(1), Fraction(2), Fraction(3), Fraction(4)]).passes()


def test_max_level_keeps_each_level_within_the_term_budget():
    for d, p in ((1, 2), (1, 3), (4, 3), (3, 5), (7, 2)):
        top = vk.max_level(d, p)
        assert d * p**top <= vk.MAX_LEVEL_TERMS < d * p ** (top + 1)
    assert vk.max_level(1, 2) == 23 and vk.max_level(4, 3) == 13
    # a modulus above the budget leaves no level
    assert vk.max_level(vk.MAX_LEVEL_TERMS + 1, 2) == 0
