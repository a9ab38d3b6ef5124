import random
from fractions import Fraction
from math import lcm

import pytest

from twisted_bernoulli import _kernel
from twisted_bernoulli.exact import cyclo_field

from _oracles import cyclotomic_oracle, poly_mul, reduce_mod


def test_normalize_contracts():
    assert _kernel.normalize([2, 4], 6) == ((1, 2), 3)
    assert _kernel.normalize([0, 0], 7) == ((0, 0), 1)
    assert _kernel.normalize([-2, 2], -4) == ((1, -1), 2)
    assert _kernel.normalize([3], 1) == ((3,), 1)


def test_vadd_uses_lcm_denominator():
    got = _kernel.vadd((1,), 2, (1,), 3)
    assert got == ((5,), 6)
    got = _kernel.vadd((1, 0), 4, (1, 0), 4)
    assert got == ((1, 0), 2)


def test_vscale_zero_clears():
    assert _kernel.vscale((3, 5), 7, 0, 1) == ((0, 0), 1)



def _random_vector(rng, phi):
    # a fifth of the coordinates are zero, so the kernels' zero skips run too
    return [rng.randint(-10**6, 10**6) if rng.random() < 0.8 else 0 for _ in range(phi)]


@pytest.mark.parametrize("m", (1, 3, 9, 211, 322, 385))
def test_products_match_the_schoolbook_reduction(m):
    # phi from 1 up to 240: each product of integer coordinate vectors is
    # reduced modulo the cyclotomic polynomial found by dividing x^m - 1, in
    # Fractions, and then divided by its denominator
    phi_poly = cyclotomic_oracle(m)
    phi = len(phi_poly) - 1
    red = cyclo_field(m).reduction_rows
    rng = random.Random(m)

    def want(poly, den):
        return tuple(c / den for c in reduce_mod(poly, phi_poly))

    def got(nums, den):
        return tuple(Fraction(v, den) for v in nums)

    a, b = _random_vector(rng, phi), _random_vector(rng, phi)
    aden, bden = rng.randint(1, 60), rng.randint(1, 60)
    assert got(*_kernel.vmulmod(a, aden, b, bden, red)) == want(poly_mul(a, b), aden * bden)

    # coefficient 2 of a Cauchy product, one factor all zero, summed over the
    # common denominator; the last term's denominator 2 * 3 divides the first
    # one's 12 * 5, so both of the kernel's accumulation branches run
    anums = [_random_vector(rng, phi), [0] * phi, _random_vector(rng, phi)]
    bnums = [_random_vector(rng, phi) for _ in range(3)]
    adens, bdens = [12, 1, 2], [3, 1, 5]
    den = lcm(*(adens[i] * bdens[2 - i] for i in range(3)))
    total = [0] * (2 * phi - 1)
    for i in range(3):
        scale = den // (adens[i] * bdens[2 - i])
        prod = poly_mul(anums[i], bnums[2 - i])
        total = [x + scale * y for x, y in zip(total, prod)]
    assert got(*_kernel.cauchy_coeff(anums, adens, bnums, bdens, 2, red)) == want(total, den)
