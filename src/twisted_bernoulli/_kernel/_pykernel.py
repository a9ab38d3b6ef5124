"""Pure-Python arithmetic kernels for fraction-free cyclotomic coordinate vectors.

An element of Q(zeta_m) is carried as ``(nums, den)``: a tuple of integer
coordinates in the power basis together with a positive common denominator,
reduced so that gcd(den, *nums) == 1 (the zero vector has den == 1).  ``red``
is the reduction table of the field: row t holds the integer coordinates of
zeta^(phi+t) in the basis, so products can be folded back below degree phi.
The contracts are tested in tests/test_kernel.py.
"""

from math import gcd

BACKEND = "pure"


def normalize(nums, den):
    """Reduce (nums, den) to lowest terms with a positive denominator."""
    if den < 0:
        den = -den
        nums = [-v for v in nums]
    g = den
    for v in nums:
        if v:
            g = gcd(g, v)
            if g == 1:
                return tuple(nums), den
    if g > 1:
        den //= g
        nums = [v // g for v in nums]
    return tuple(nums), den


def vadd(anums, aden, bnums, bden):
    """Sum of two vectors over the lcm denominator."""
    if aden == bden:
        return normalize([x + y for x, y in zip(anums, bnums)], aden)
    g = gcd(aden, bden)
    fa = bden // g
    fb = aden // g
    out = [x * fa + y * fb for x, y in zip(anums, bnums)]
    return normalize(out, aden * fa)


def vscale(nums, den, snum, sden):
    """Multiply a vector by the rational snum/sden."""
    if snum == 0:
        return (0,) * len(nums), 1
    return normalize([v * snum for v in nums], den * sden)


def _mul_reduce(anums, bnums, red):
    """Coordinate product folded through the reduction table; no gcd pass."""
    phi = len(anums)
    prod = [0] * (2 * phi - 1)
    for i, a in enumerate(anums):
        if a:
            for j, b in enumerate(bnums):
                if b:
                    prod[i + j] += a * b
    for e in range(2 * phi - 2, phi - 1, -1):
        c = prod[e]
        if c:
            row = red[e - phi]
            for j, r in enumerate(row):
                if r:
                    prod[j] += c * r
    return prod[:phi]


def vmulmod(anums, aden, bnums, bden, red):
    """Product of two vectors, reduced and normalized."""
    return normalize(_mul_reduce(anums, bnums, red), aden * bden)


def cauchy_coeff(anums, adens, bnums, bdens, n, red):
    """Coefficient n of the Cauchy product of two coefficient lists.

    ``anums``/``bnums`` are sequences of coordinate tuples with matching
    denominator sequences; the accumulator keeps a running lcm denominator so
    only one gcd pass happens per term.
    """
    phi = len(anums[0])
    accn = [0] * phi
    accd = 1
    for i in range(n + 1):
        av = anums[i]
        bv = bnums[n - i]
        if not any(av) or not any(bv):
            continue
        pn = _mul_reduce(av, bv, red)
        pd = adens[i] * bdens[n - i]
        g = gcd(accd, pd)
        fa = pd // g
        fb = accd // g
        if fa == 1:
            for j, v in enumerate(pn):
                if v:
                    accn[j] += v * fb
        else:
            for j in range(phi):
                accn[j] = accn[j] * fa + pn[j] * fb
            accd *= fa
    return normalize(accn, accd)
