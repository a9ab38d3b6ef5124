"""Independent oracle implementations used to freeze expected test values.

Most of this is deliberately separate from the package internals: plain
Fraction arithmetic, naive polynomial division, term-by-term series solving
and Sylvester determinants, so the tests check the library against a second
route rather than against itself.  The literal identity sides at the end
are the exception: they expand each printed sum term by term from the
package's numbers, polynomials and power sums, so that the side builders,
which read every side off one series product, are checked against the sums
as printed.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import identities as idn
from twisted_bernoulli.exact import as_cyclo, cyclo_field


# --- integer/rational polynomials, ascending coefficients -------------------

def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(num, den):
    """Exact division over Fractions."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for k in range(len(num) - len(den), -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        q[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    while num and num[-1] == 0:
        num.pop()
    return q, num


def cyclotomic_oracle(m):
    """Phi_m by brute-force division of x^m - 1."""
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            den = poly_mul(den, cyclotomic_oracle(d))
    q, r = poly_divmod(num, den)
    assert not any(r)
    return [int(c) for c in q]


def reduce_mod(poly, modulus):
    """Remainder of poly modulo the monic modulus, over Fractions."""
    _, r = poly_divmod(poly, modulus)
    r = r + [Fraction(0)] * (len(modulus) - 1 - len(r))
    return r


def sylvester_resultant(f, g):
    """Res(f, g) as a Sylvester determinant (f, g ascending, Fractions)."""
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in range(m):
        for j, c in enumerate(reversed(f)):
            mat[i][i + j] = Fraction(c)
    for i in range(n):
        for j, c in enumerate(reversed(g)):
            mat[m + i][i + j] = Fraction(c)
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, size):
            fac = mat[r][col] / mat[col][col]
            if fac:
                for c in range(col, size):
                    mat[r][c] -= fac * mat[col][c]
    return det


# --- rational series, ordinary coefficients ---------------------------------

def series_mul(a, b):
    N = min(len(a), len(b))
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(N)]


def series_inv(c):
    """Term-by-term solution of c * inv = 1."""
    assert c[0] != 0
    inv = [Fraction(1) / c[0]]
    for n in range(1, len(c)):
        s = sum(c[i] * inv[n - i] for i in range(1, n + 1))
        inv.append(-s / c[0])
    return inv


def exp_series(a, order):
    return [Fraction(a) ** n / factorial(n) for n in range(order + 1)]


def bernoulli_recurrence(n_max):
    """Classical numbers from sum_{j<=n} C(n+1, j) B_j = 0."""
    B = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = sum(comb(m + 1, j) * B[j] for j in range(m))
        B.append(-s / (m + 1))
    return B


def twisted_minus_one(n_max):
    """Numbers for twist -1 at modulus one, by direct series division."""
    order = n_max + 2
    den = [-c for c in exp_series(1, order)]
    den[0] -= 1
    t = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    q = series_mul(t, series_inv(den))
    return [q[n] * factorial(n) for n in range(n_max + 1)]


def classical_poly_at(n, x):
    """B_n(x) from the recurrence numbers and the binomial expansion."""
    B = bernoulli_recurrence(n)
    return sum(comb(n, j) * B[j] * Fraction(x) ** (n - j) for j in range(n + 1))


# --- eager series loops over the field ---------------------------------------
#
# Lists of field elements to one common length, each coefficient summed
# term by term with the elements' own * and +, so no kernel Cauchy sum is
# shared with the grown series these check.

def eager_series_mul(a, b):
    """Cauchy product of two coefficient lists, to the shorter length."""
    out = []
    for n in range(min(len(a), len(b))):
        acc = a[0].field.zero
        for i in range(n + 1):
            acc = acc + a[i] * b[n - i]
        out.append(acc)
    return out


def eager_series_invert(c):
    """Inverse to the same length, by inv_n = -(sum_{i=1..n} c_i inv_(n-i)) / c_0."""
    c0inv = c[0].inverse()
    inv = [c0inv]
    for n in range(1, len(c)):
        acc = c[0].field.zero
        for i in range(1, n + 1):
            acc = acc + c[i] * inv[n - i]
        inv.append(-(acc * c0inv))
    return inv


def t_valuation(coeffs):
    """Index of the first nonzero coefficient, or None if all vanish."""
    return next((i for i, c in enumerate(coeffs) if not c.is_zero()), None)


# --- twisted sums, one element operation per term ----------------------------
#
# The bodies that bernoulli._twisted_exp_sum and bernoulli.power_sum had
# before they summed in integer coordinates: every term is a field product
# chi(a) * xi^a followed by a field sum.

def twisted_exp_sum(spec, count):
    """Coefficients of t^0..t^(count-1) in sum_{a<d} chi(a) xi^a e^(a t)."""
    field = spec.ambient
    weights = []
    for a in range(spec.chi.modulus):
        c = spec.chi.value_at(a, field)
        if not c.is_zero():
            weights.append((a, c * as_cyclo(spec.xi**a, field.conductor)))
    out = []
    fact = Fraction(1)
    for i in range(count):
        if i:
            fact /= i
        acc = field.zero
        for a, w in weights:
            acc = acc + w * a**i
        out.append(acc * fact)
    return out


def power_sum(spec, k, n):
    """T_k(n) = sum_{l=0..n} chi(l) xi^l l^k, with 0^0 = 1."""
    field = spec.ambient
    xi = spec.xi
    xi_pows = [as_cyclo(xi**j, field.conductor) for j in range(xi.order)]
    acc = field.zero
    for l in range(n + 1):
        c = spec.chi.value_at(l, field)
        if c.is_zero():
            continue
        lk = 1 if (l == 0 and k == 0) else l**k
        if lk:
            acc = acc + c * xi_pows[l % xi.order] * lk
    return acc


# --- literal per-n sums of the printed swap identities ----------------------
#
# Each function expands the (wa, wb) side of one identity term by term, as
# the identity prints it: a binomial sum over j <= n of numbers, polynomials
# and power sums, or a sum over the shifted arguments i < wa d.  They take the
# arguments of the library's side builder of the same name, and serve as the
# reference for those builders, which read every side off one series product.
# The inner sums do not depend on n and are cached, as a sweep over n would.

def _spec(chi, xi, w, cond):
    return bn.twist_spec(chi, xi**w, conductor=cond)


def _binomial_weight(n, j, wa, wb):
    """C(n, j) wb^j wa^(n-j-1), the weight of the j-th term of a T-family side."""
    return comb(n, j) * Fraction(wb) ** j * Fraction(wa) ** (n - j - 1)


def _shifted_weight(n, k, wa, wb):
    """C(n, k) wa^(k-1) wb^(n-k), the weight of the k-th term of a theorem3-family side."""
    return comb(n, k) * Fraction(wa) ** (k - 1) * Fraction(wb) ** (n - k)


def _scaled(poly, scal):
    return [c if c.is_zero() else c * scal for c in poly]


def _add_outer(mat, xpoly, ypoly):
    for a, xc in enumerate(xpoly):
        if xc.is_zero():
            continue
        for b, yc in enumerate(ypoly):
            if not yc.is_zero():
                mat[a][b] = mat[a][b] + xc * yc


def _shift_terms(chi, xi, cond, wa, wb, with_weights=True):
    """(i, chi(i) xi^(wb i)) for i < wa d with chi(i) != 0; chi(i) alone without weights."""
    fld = cyclo_field(cond)
    out = []
    for i in range(wa * chi.modulus):
        cv = chi.value_at(i, fld)
        if not cv.is_zero():
            out.append((i, cv * as_cyclo(xi ** (wb * i), cond) if with_weights else cv))
    return out


@lru_cache(maxsize=None)
def _theorem1_ypoly(chi, xi, cond, m, wa, wb, last_w, j):
    """y coefficients of sum_k C(j, k) T_k(wa d - 1) B^(m-1)_(j-k)(wa y)."""
    spec_b = _spec(chi, xi, wb, cond)
    spec_last = _spec(chi, xi, last_w, cond)
    ypoly = [cyclo_field(cond).zero] * (j + 1)
    for k in range(j + 1):
        t = bn.power_sum(spec_b, k, wa * chi.modulus - 1) * comb(j, k)
        if t.is_zero():
            continue
        for b, c in enumerate(idn._affine_poly(spec_last, m - 1, j - k, Fraction(wa), Fraction(0))):
            ypoly[b] = ypoly[b] + t * c
    return tuple(ypoly)


@lru_cache(maxsize=None)
def _corollary2_inner(chi, xi, cond, m, wa, wb, j):
    """sum_k C(j, k) T_k(wa d - 1) B^(m-1)_(j-k), both of the twist xi^wb."""
    spec_b = _spec(chi, xi, wb, cond)
    nums_b = bn.numbers(spec_b, m - 1, j)
    inner = cyclo_field(cond).zero
    for k in range(j + 1):
        inner = inner + bn.power_sum(spec_b, k, wa * chi.modulus - 1) * nums_b[j - k] * comb(j, k)
    return inner


@lru_cache(maxsize=None)
def _theorem3_xpoly(chi, xi, cond, m, wa, wb, k):
    """x coefficients of sum_i chi(i) xi^(wb i) B^(m)_k(wb x + wb i / wa), i < wa d."""
    spec_a = _spec(chi, xi, wa, cond)
    xpoly = [cyclo_field(cond).zero] * (k + 1)
    for i, w in _shift_terms(chi, xi, cond, wa, wb):
        for a, c in enumerate(idn._affine_poly(spec_a, m, k, Fraction(wb), Fraction(wb * i, wa))):
            xpoly[a] = xpoly[a] + w * c
    return tuple(xpoly)


@lru_cache(maxsize=None)
def _corollary4_inner(chi, xi, cond, m, wa, wb, k):
    """sum_i chi(i) xi^(wb i) B^(m)_k(wb i / wa), i < wa d."""
    spec_a = _spec(chi, xi, wa, cond)
    inner = cyclo_field(cond).zero
    for i, w in _shift_terms(chi, xi, cond, wa, wb):
        inner = inner + w * idn._bern_at(spec_a, m, k, Fraction(wb * i, wa))
    return inner


def theorem1_side(n, m, chi, xi, wa, wb, cond, last_twist_wa=False):
    fld = cyclo_field(cond)
    spec_a = _spec(chi, xi, wa, cond)
    mat = [[fld.zero] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        scal = _binomial_weight(n, j, wa, wb)
        xpoly = _scaled(idn._affine_poly(spec_a, m, n - j, Fraction(wb), Fraction(0)), scal)
        ypoly = _theorem1_ypoly(chi, xi, cond, m, wa, wb, wa if last_twist_wa else wb, j)
        _add_outer(mat, xpoly, ypoly)
    return idn.BivariatePoly(fld, mat)


def remark_m1_side(n, chi, xi, wa, wb, cond):
    fld = cyclo_field(cond)
    spec_a = _spec(chi, xi, wa, cond)
    spec_b = _spec(chi, xi, wb, cond)
    acc = [fld.zero] * (n + 1)
    for j in range(n + 1):
        t = bn.power_sum(spec_b, j, wa * chi.modulus - 1) * _binomial_weight(n, j, wa, wb)
        for a, c in enumerate(idn._affine_poly(spec_a, 1, n - j, Fraction(wb), Fraction(0))):
            acc[a] = acc[a] + t * c
    return idn.BivariatePoly(fld, [[c] for c in acc])


def corollary2_side(n, m, chi, xi, wa, wb, cond):
    nums_a = bn.numbers(_spec(chi, xi, wa, cond), m, n)
    acc = cyclo_field(cond).zero
    for j in range(n + 1):
        inner = _corollary2_inner(chi, xi, cond, m, wa, wb, j)
        acc = acc + nums_a[n - j] * inner * _binomial_weight(n, j, wa, wb)
    return acc


def m1_numbers_side(n, chi, xi, wa, wb, cond):
    spec_a = _spec(chi, xi, wa, cond)
    spec_b = _spec(chi, xi, wb, cond)
    nums_a = bn.numbers(spec_a, 1, n)
    acc = cyclo_field(cond).zero
    for j in range(n + 1):
        t = bn.power_sum(spec_b, j, wa * chi.modulus - 1)
        acc = acc + nums_a[n - j] * t * _binomial_weight(n, j, wa, wb)
    return acc


def theorem3_side(n, m, chi, xi, wa, wb, cond):
    fld = cyclo_field(cond)
    spec_b = _spec(chi, xi, wb, cond)
    mat = [[fld.zero] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        scal = _shifted_weight(n, k, wa, wb)
        ypoly = _scaled(idn._affine_poly(spec_b, m - 1, n - k, Fraction(wa), Fraction(0)), scal)
        _add_outer(mat, _theorem3_xpoly(chi, xi, cond, m, wa, wb, k), ypoly)
    return idn.BivariatePoly(fld, mat)


def remark_2_11_side(n, chi, xi, wa, wb, cond, with_weights):
    fld = cyclo_field(cond)
    spec_a = _spec(chi, xi, wa, cond)
    acc = [fld.zero] * (n + 1)
    for i, w in _shift_terms(chi, xi, cond, wa, wb, with_weights):
        for a, c in enumerate(idn._affine_poly(spec_a, 1, n, Fraction(wb), Fraction(wb * i, wa))):
            acc[a] = acc[a] + w * c
    lead = Fraction(wa) ** (n - 1)
    return idn.BivariatePoly(fld, [[c * lead] for c in acc])


def corollary4_side(n, m, chi, xi, wa, wb, cond):
    nums_b = bn.numbers(_spec(chi, xi, wb, cond), m - 1, n)
    acc = cyclo_field(cond).zero
    for k in range(n + 1):
        inner = _corollary4_inner(chi, xi, cond, m, wa, wb, k)
        acc = acc + nums_b[n - k] * inner * _shifted_weight(n, k, wa, wb)
    return acc


def eq_2_12_side(n, chi, xi, wa, wb, cond):
    spec_a = _spec(chi, xi, wa, cond)
    acc = cyclo_field(cond).zero
    for i, w in _shift_terms(chi, xi, cond, wa, wb):
        acc = acc + w * idn._bern_at(spec_a, 1, n, Fraction(wb * i, wa))
    return acc * Fraction(wa) ** (n - 1)
