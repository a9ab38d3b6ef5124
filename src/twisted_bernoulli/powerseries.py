"""Truncated formal power series in t over a cyclotomic field.

Ordinary coefficients are stored (coefficient of t^n, not of t^n/n!); the
factorial is applied exactly at extraction time by :func:`egf_coefficient`,
so multiplication stays a plain Cauchy product.  Binary operations require
equal fields and equal truncation orders; nothing is silently re-truncated.

Products, inverses, powers and quotients are computed on :class:`Series`,
which grows coefficient by coefficient as far as it is asked and computes
each coefficient once (McIlroy, "Power series, power serious", JFP 1999).
The functions on :class:`TruncSeries` (``series_mul``, ``series_invert``,
``series_pow``, ``divide_cancel``) grow one to the order and return that
prefix.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import _kernel as K
from .errors import (
    FieldMismatch,
    NonUnitConstantTerm,
    OrderExceeded,
    OrderMismatch,
    PoleAtZero,
    ZeroDenominator,
)
from .exact import CycloElem, CycloField


class TruncSeries:
    """Coefficients c_0..c_order of a series over one cyclotomic field."""

    __slots__ = ("field", "order", "coeffs")

    def __init__(self, field: CycloField, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the constant term")
        for c in coeffs:
            if c.field.conductor != field.conductor:
                raise FieldMismatch("series coefficient from a different field")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "order", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.field.conductor == other.field.conductor
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.conductor, self.coeffs))

    def __repr__(self):
        return f"TruncSeries(m={self.field.conductor}, N={self.order})"


def _check_pair(s1: TruncSeries, s2: TruncSeries):
    if s1.field.conductor != s2.field.conductor:
        raise FieldMismatch("series over different fields")
    if s1.order != s2.order:
        raise OrderMismatch(f"truncation orders differ: {s1.order} vs {s2.order}")


# ---------------------------------------------------------------------------
# series grown on demand

class Series:
    """Coefficients c_0, c_1, ... of a series over one field, each computed once.

    ``coeffs(n)`` returns c_0..c_n as a tuple and computes only the indices
    not stored yet, by ``step(series, r)`` once c_0..c_(r-1) are stored.  A
    step that raises leaves the series as it was, so the next request raises
    again.  Coordinates and denominators are kept in lists beside the
    coefficients, in the form the kernel's Cauchy sum reads.  Two series are
    equal when their fields and the coefficients computed so far are.
    """

    __slots__ = ("field", "_step", "_coeffs", "_nums", "_dens")

    def __init__(self, field: CycloField, step, coeffs=()):
        self.field = field
        self._step = step
        self._coeffs = list(coeffs)
        self._nums = [c.nums for c in self._coeffs]
        self._dens = [c.den for c in self._coeffs]

    def _grow(self, n: int):
        have = len(self._coeffs)
        if n < have:
            return
        try:
            for r in range(have, n + 1):
                c = self._step(self, r)
                self._coeffs.append(c)
                self._nums.append(c.nums)
                self._dens.append(c.den)
        except BaseException:
            del self._coeffs[have:], self._nums[have:], self._dens[have:]
            raise

    def coeff(self, r: int) -> CycloElem:
        self._grow(r)
        return self._coeffs[r]

    def coeffs(self, n: int) -> tuple[CycloElem, ...]:
        self._grow(n)
        return tuple(self._coeffs[: n + 1])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.field.conductor == other.field.conductor and self._coeffs == other._coeffs

    def __repr__(self):
        return f"Series(m={self.field.conductor}, computed={len(self._coeffs)})"


def known(s: TruncSeries) -> Series:
    """The coefficients of s; asking for one past s.order raises OrderExceeded."""

    def step(_, r):
        raise OrderExceeded(f"index {r} beyond truncation order {s.order}")

    return Series(s.field, step, s.coeffs)


def generated(field: CycloField, term) -> Series:
    """The series whose coefficient r is term(r)."""
    return Series(field, lambda _, r: term(r))


def product(a: Series, b: Series) -> Series:
    """a b: coefficient r is one Cauchy sum over c_0..c_r of each factor."""
    if a.field.conductor != b.field.conductor:
        raise FieldMismatch("series over different fields")
    field = a.field
    red = field.reduction_rows

    def step(_, r):
        a._grow(r)
        b._grow(r)
        return CycloElem._raw(field, *K.cauchy_coeff(a._nums, a._dens, b._nums, b._dens, r, red))

    return Series(field, step)


def inverse(s: Series) -> Series:
    """1/s: inv_r = -(c_1 inv_(r-1) + ... + c_r inv_0) inv_0, with inv_0 = 1/c_0."""
    field = s.field
    red = field.reduction_rows
    tail_nums, tail_dens = [], []  # c_1, c_2, ... as the Cauchy sum reads them

    def step(inv, r):
        if r == 0:
            c0 = s.coeff(0)
            if c0.is_zero():
                raise NonUnitConstantTerm("constant term is zero")
            return c0.inverse()
        s._grow(r)
        for i in range(len(tail_nums) + 1, r + 1):
            tail_nums.append(s._nums[i])
            tail_dens.append(s._dens[i])
        acc = CycloElem._raw(field, *K.cauchy_coeff(tail_nums, tail_dens, inv._nums, inv._dens, r - 1, red))
        return -(acc * inv._coeffs[0])

    return Series(field, step)


def power(s: Series, k: int, smaller=None) -> Series:
    """s^k by repeated squaring: s^(2j) = s^j s^j and s^(2j+1) = s^(2j) s; s^0 = 1.

    ``smaller(j)`` gives s^j for 1 < j < k (default: built anew), so a
    caller that keeps the powers of s shares them between exponents.
    """
    if k < 0:
        raise ValueError("nonnegative power required")
    if k == 0:
        one, zero = s.field.one, s.field.zero
        return generated(s.field, lambda r: zero if r else one)
    if k == 1:
        return s
    smaller = smaller or (lambda j: power(s, j))
    if k & 1:
        return product(smaller(k - 1), s)
    half = smaller(k // 2)
    return product(half, half)


def shifted(s: Series, v: int) -> Series:
    """s / t^v: coefficient r is c_(r+v) of s; s itself when v = 0."""
    return generated(s.field, lambda r: s.coeff(r + v)) if v else s


def quotient(num: Series, den: Series, v: int) -> Series:
    """(num / t^v) / (den / t^v); den / t^v must have a nonzero constant term."""
    return product(shifted(num, v), inverse(shifted(den, v)))


def _prefix(s: Series, n: int) -> TruncSeries:
    """c_0..c_n of s as a truncated series."""
    return TruncSeries(s.field, s.coeffs(n))


# ---------------------------------------------------------------------------
# truncated series

def constant_series(field: CycloField, value, order: int) -> TruncSeries:
    """value + 0*t + ... + 0*t^order."""
    if isinstance(value, (int, Fraction)):
        value = field.rational(value)
    return TruncSeries(field, (value,) + (field.zero,) * order)


def exp_at(a: CycloElem, order: int) -> TruncSeries:
    """e^(a t) to the given order: coefficients a^n / n!."""
    field = a.field
    out = [field.one]
    cur = field.one
    for n in range(1, order + 1):
        cur = cur * a * Fraction(1, n)
        out.append(cur)
    return TruncSeries(field, out)


def series_add(s1: TruncSeries, s2: TruncSeries) -> TruncSeries:
    _check_pair(s1, s2)
    return TruncSeries(s1.field, tuple(a + b for a, b in zip(s1.coeffs, s2.coeffs)))


def series_mul(s1: TruncSeries, s2: TruncSeries) -> TruncSeries:
    """Cauchy product truncated at the common order."""
    _check_pair(s1, s2)
    return _prefix(product(known(s1), known(s2)), s1.order)


def series_pow(s: TruncSeries, k: int) -> TruncSeries:
    """k-th power by repeated squaring; s^0 is the constant series 1."""
    return _prefix(power(known(s), k), s.order)


def series_invert(s: TruncSeries) -> TruncSeries:
    """Multiplicative inverse to the same order (unit constant term required)."""
    return _prefix(inverse(known(s)), s.order)


def t_valuation(s: TruncSeries):
    """Index of the first nonzero coefficient, or None if all vanish."""
    for i, c in enumerate(s.coeffs):
        if not c.is_zero():
            return i
    return None


def divide_cancel(num: TruncSeries, den: TruncSeries) -> TruncSeries:
    """num/den after cancelling the common power of t carried by den.

    Both series lose t^v (v the t-adic valuation of den) and the result is
    truncated to order N - v.  PoleAtZero if num vanishes to lower order than
    den; ZeroDenominator if den is identically zero to order N.
    """
    _check_pair(num, den)
    vd = t_valuation(den)
    if vd is None:
        raise ZeroDenominator("denominator vanishes to the truncation order")
    vn = t_valuation(num)
    if vn is not None and vn < vd:
        raise PoleAtZero(f"numerator valuation {vn} < denominator valuation {vd}")
    return _prefix(quotient(known(num), known(den), vd), num.order - vd)


def egf_coefficient(s: TruncSeries, n: int) -> CycloElem:
    """The coefficient of t^n/n!, i.e. n! times the ordinary coefficient."""
    if n > s.order:
        raise OrderExceeded(f"index {n} beyond truncation order {s.order}")
    return s.coeffs[n] * factorial(n)
