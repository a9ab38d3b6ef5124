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
from twisted_bernoulli.characters import _primitive_root
from twisted_bernoulli.exact import as_cyclo, cyclo_field


# --- reading output back, and the package's cyclic-units test ---------------

def frac_from_str(s):
    """The Fraction a "num/den" (or bare "num") string prints."""
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def cyclo_from_json(obj):
    """The element a ``cyclo_to_json`` value prints: a "num/den" string or {conductor, coeffs}."""
    if isinstance(obj, str):
        return cyclo_field(1).rational(frac_from_str(obj))
    field = cyclo_field(int(obj["conductor"]))
    return field.element([frac_from_str(s) for s in obj["coeffs"]])


def has_cyclic_units(d):
    """Whether the package finds a primitive root mod d."""
    return _primitive_root(d) is not None


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


def miller_power(coeffs, k):
    """F^k to the length of coeffs, by Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).

    With F = t^v u and u_0 != 0, F^k = t^(kv) a, where a_0 = u_0^k and
    a_n = sum_{i=1..n} ((k+1) i - n) u_i a_(n-i) / (n u_0): no product of
    two series, and no power of F below k.  F^0 is 1.
    """
    field = coeffs[0].field
    v = t_valuation(coeffs)
    if k == 0 or v is None:
        return [field.one if k == 0 else field.zero] + [field.zero] * (len(coeffs) - 1)
    u = coeffs[v:]
    u0inv = u[0].inverse()
    a = [u[0] ** k]
    for n in range(1, max(len(coeffs) - k * v, 0)):
        acc = field.zero
        for i in range(1, n + 1):
            acc = acc + u[i] * a[n - i] * ((k + 1) * i - n)
        a.append(acc * u0inv * Fraction(1, n))
    return ([field.zero] * (k * v) + a)[: len(coeffs)]


# --- twisted sums, one element operation per term ----------------------------
#
# The exponential sum in the kernel series' numerator and bernoulli.power_sum
# as they were before the package summed in integer coordinates: every term
# is a field product chi(a) * xi^a followed by a field sum.

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


# --- order-1 numbers, by two routes that divide no series -------------------
#
# Both read the numbers or build them without the kernel quotient: the first
# multiplies them back by the denominator, the second sums the classical
# polynomials.  Their power sums are the term-by-term ones above, not
# bernoulli.power_sum, which the kernel's numerator reads.

def order1_multiplied_back(spec, numbers):
    """Both sides of (xi^d e^(d t) - 1) F(t) = t sum_{a<d} chi(a) xi^a e^(a t) at t^n/n!.

    For each n = 1..len(numbers) - 1 the pair
    (xi^d sum_j C(n, j) d^(n-j) B_j - B_n, n T_(n-1)(d - 1)), with
    B_j = numbers[j]: multiplication only.
    """
    field, d = spec.ambient, spec.chi.modulus
    xid = as_cyclo(spec.xi**d, field.conductor)
    pairs = []
    for n in range(1, len(numbers)):
        acc = field.zero
        for j in range(n + 1):
            acc = acc + numbers[j] * (comb(n, j) * d ** (n - j))
        pairs.append((xid * acc - numbers[n], power_sum(spec, n - 1, d - 1) * n))
    return pairs


def order1_from_classical(spec, n_max):
    """B_(n,chi,xi) for n <= n_max when xi^d = 1: d^(n-1) sum_{a<d} chi(a) xi^a B_n(a/d).

    Washington, Introduction to Cyclotomic Fields, Prop. 4.1, with a counted
    from 0; B_n(x) is the classical polynomial of ``classical_poly_at``.
    """
    field, d = spec.ambient, spec.chi.modulus
    assert (spec.xi**d).is_one()
    weights = [spec.chi.value_at(a, field) * as_cyclo(spec.xi**a, field.conductor) for a in range(d)]
    return [
        sum((w * classical_poly_at(n, Fraction(a, d)) for a, w in enumerate(weights)), field.zero)
        * Fraction(d) ** (n - 1)
        for n in range(n_max + 1)
    ]


# --- order-k numbers from the level sums of the p-adic integral -------------
#
# At level N, M = d p^N, the k-fold Riemann sum of the invariant integral of
# prod chi(x_i) xi^(x_i) e^((x_1 + ... + x_k) t) is, as a finite geometric
# sum, F^(k)(t) ((xi^M e^(M t) - 1) / (M t))^k.  The sum side enumerates the
# tuples and divides no series; the series side multiplies F^(k) by the
# eager loops above.

def level_sums(spec, M, k_max, n_max):
    """sums[k][n] = (1/M^k) sum_{x in [0, M)^k} prod chi(x_i) xi^(x_i) (x_1 + ... + x_k)^n.

    For 1 <= k <= k_max and n <= n_max (sums[0] is unused).  The tuples are
    grouped by their sum s: the weight of s at k + 1 variables sums, over
    the last variable x, chi(x) xi^x times the weight of s - x at k.
    """
    field = spec.ambient
    one = [(x, spec.chi.value_at(x, field) * as_cyclo(spec.xi**x, field.conductor)) for x in range(M)]
    one = [(x, w) for x, w in one if not w.is_zero()]
    by_sum, sums = [field.one], [None]
    for k in range(1, k_max + 1):
        grown = [field.zero] * (len(by_sum) + M - 1)
        for s, w in enumerate(by_sum):
            if not w.is_zero():
                for x, v in one:
                    grown[s + x] = grown[s + x] + w * v
        by_sum = grown
        scale = Fraction(1, M**k)
        sums.append([sum((w * s**n for s, w in enumerate(by_sum)), field.zero) * scale
                     for n in range(n_max + 1)])
    return sums


def level_sums_from_series(spec, M, k, n_max):
    """(head, tail) of G = F^(k)(t) (xi^M e^(M t) - 1)^k / M^k, F^(k) the package's.

    head is [t^0..t^(k-1)] G, which must vanish, and tail[n] is
    n! [t^(n+k)] G for n <= n_max: the level sum of ``level_sums``.
    """
    field = spec.ambient
    length = n_max + k + 1
    xim = as_cyclo(spec.xi**M, field.conductor)
    factor = [xim * Fraction(M**r, factorial(r)) for r in range(length)]
    factor[0] = factor[0] - 1
    g = list(bn.generating_series(spec, k).coeffs(length - 1))
    for _ in range(k):
        g = eager_series_mul(g, factor)
    scale = Fraction(1, M**k)
    return g[:k], [g[n + k] * (factorial(n) * scale) for n in range(n_max + 1)]


# --- side matrices: rows[i][j] is the coefficient of x^i y^j -----------------

def trimmed(field, rows):
    """rows as a tuple matrix without trailing zero columns and rows; [[0]] if zero.

    A generic trim, independent of the shape the package reads off H.
    """
    rows = [list(r) for r in rows]
    width = 0
    for r in rows:
        for j in range(len(r) - 1, -1, -1):
            if not r[j].is_zero():
                width = max(width, j + 1)
                break
    rows = [r[:width] for r in rows]
    while rows and all(c.is_zero() for c in rows[-1]):
        rows.pop()
    if not rows:
        rows = [[field.zero]]
        width = 1
    return tuple(tuple(r + [field.zero] * (width - len(r))) for r in rows)


def evaluate(rows, x, y):
    """The polynomial of the matrix rows at (x, y), by Horner's rule."""
    fld = rows[0][0].field
    if isinstance(x, (int, Fraction)):
        x = fld.rational(x)
    if isinstance(y, (int, Fraction)):
        y = fld.rational(y)
    acc = fld.zero
    for row in reversed(rows):
        rowval = fld.zero
        for c in reversed(row):
            rowval = rowval * y + c
        acc = acc * x + rowval
    return acc


def restrict_y0(rows):
    """The matrix of the polynomial in x obtained by setting y = 0."""
    return trimmed(rows[0][0].field, [[r[0]] for r in rows])


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
    return trimmed(fld, mat)


def remark_m1_side(n, chi, xi, wa, wb, cond):
    fld = cyclo_field(cond)
    spec_a = _spec(chi, xi, wa, cond)
    spec_b = _spec(chi, xi, wb, cond)
    acc = [fld.zero] * (n + 1)
    for j in range(n + 1):
        t = bn.power_sum(spec_b, j, wa * chi.modulus - 1) * _binomial_weight(n, j, wa, wb)
        for a, c in enumerate(idn._affine_poly(spec_a, 1, n - j, Fraction(wb), Fraction(0))):
            acc[a] = acc[a] + t * c
    return trimmed(fld, [[c] for c in acc])


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
    return trimmed(fld, mat)


def remark_2_11_side(n, chi, xi, wa, wb, cond, with_weights):
    fld = cyclo_field(cond)
    spec_a = _spec(chi, xi, wa, cond)
    acc = [fld.zero] * (n + 1)
    for i, w in _shift_terms(chi, xi, cond, wa, wb, with_weights):
        for a, c in enumerate(idn._affine_poly(spec_a, 1, n, Fraction(wb), Fraction(wb * i, wa))):
            acc[a] = acc[a] + w * c
    lead = Fraction(wa) ** (n - 1)
    return trimmed(fld, [[c * lead] for c in acc])


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
