"""Formal power series in t over a cyclotomic field, grown on demand.

A :class:`Series` grows coefficient by coefficient as far as it is asked
and computes each coefficient once (McIlroy, "Power series, power serious",
JFP 1999).  Ordinary coefficients are stored (coefficient of t^n, not of
t^n/n!), so a product is a plain Cauchy sum; the factorial is applied
exactly at extraction time by :func:`egf_coefficient`.  Binary operations
require equal fields.
"""

from __future__ import annotations

from math import factorial

from . import _kernel as K
from .errors import FieldMismatch, NonUnitConstantTerm
from .exact import CycloElem, CycloField


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


def generated(field: CycloField, term) -> Series:
    """The series whose coefficient r is term(r)."""
    return Series(field, lambda _, r: term(r))


def series_mul(a: Series, b: Series) -> Series:
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


def series_invert(s: Series) -> Series:
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
        return series_mul(smaller(k - 1), s)
    half = smaller(k // 2)
    return series_mul(half, half)


def shifted(s: Series, v: int) -> Series:
    """s / t^v: coefficient r is c_(r+v) of s; s itself when v = 0."""
    return generated(s.field, lambda r: s.coeff(r + v)) if v else s


def divide_cancel(num: Series, den: Series, v: int) -> Series:
    """(num / t^v) / (den / t^v), the common t^v cancelled.

    den / t^v must have a nonzero constant term; the coefficients of num
    below t^v are taken to be zero and are not read.
    """
    return series_mul(shifted(num, v), series_invert(shifted(den, v)))


def egf_coefficient(s: Series, n: int) -> CycloElem:
    """The coefficient of t^n/n!, i.e. n! times the ordinary coefficient."""
    return s.coeff(n) * factorial(n)
