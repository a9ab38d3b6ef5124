from twisted_bernoulli import _kernel


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
