"""Formal power series in t over a cyclotomic field, grown on demand.

A :class:`Series` grows coefficient by coefficient as far as it is asked
and computes each coefficient once (McIlroy, "Power series, power serious",
JFP 1999).  Ordinary coefficients are stored (coefficient of t^n, not of
t^n/n!), so a product is a plain Cauchy sum; the factorial is applied
exactly at extraction time by :func:`egf_coefficient`.  A quotient is one
recurrence, each coefficient one Cauchy sum over the quotient's own earlier
coefficients (:func:`divide_cancel`); an inverse is the quotient of 1.
Binary operations require equal fields.
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
    coefficients, in the form the kernel's Cauchy sum reads.
    """

    __slots__ = ("field", "_step", "_coeffs", "_nums", "_dens")

    def __init__(self, field: CycloField, step):
        self.field = field
        self._step = step
        self._coeffs, self._nums, self._dens = [], [], []

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
    """1/s: the series 1 divided by s, with no power of t cancelled."""
    return divide_cancel(generated(s.field, lambda r: s.field.zero if r else s.field.one), s, 0)


def shifted(s: Series, v: int) -> Series:
    """s / t^v: coefficient r is c_(r+v) of s; s itself when v = 0."""
    return generated(s.field, lambda r: s.coeff(r + v)) if v else s


def divide_cancel(num: Series, den: Series, v: int) -> Series:
    """(num / t^v) / (den / t^v), the common t^v cancelled.

    Coefficient r of the quotient q is (n_(r+v) - sum_{i=1..r} d_(i+v) q_(r-i)) / d_v:
    one Cauchy sum over the stored coefficients of den and q, and 1/d_v is
    computed once.  d_v must be nonzero, and num must lie in den's field; the
    coefficients of num below t^v are taken to be zero and are not read.
    """
    red = den.field.reduction_rows
    lead_inv = None

    def step(q, r):
        nonlocal lead_inv
        if r == 0:
            lead = den.coeff(v)
            if lead.is_zero():
                raise NonUnitConstantTerm("constant term is zero")
            lead_inv = lead.inverse()
            return num.coeff(v) * lead_inv
        den._grow(r + v)
        acc = K.cauchy_coeff(den._nums[v + 1 :], den._dens[v + 1 :], q._nums, q._dens, r - 1, red)
        return (num.coeff(r + v) - CycloElem._raw(den.field, *acc)) * lead_inv

    return Series(den.field, step)


def egf_coefficient(s: Series, n: int) -> CycloElem:
    """The coefficient of t^n/n!, i.e. n! times the ordinary coefficient."""
    return s.coeff(n) * factorial(n)
