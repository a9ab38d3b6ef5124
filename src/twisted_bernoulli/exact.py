"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Scalars are stdlib ``fractions.Fraction`` values (arbitrary precision,
always in canonical lowest terms).  A field element is a coordinate vector
in the power basis 1, zeta_m, ..., zeta_m^(phi(m)-1), reduced modulo the
m-th cyclotomic polynomial, so equality is decidable and coefficient-wise.
Internally the vector is stored fraction-free (integer coordinates plus one
positive common denominator); the per-coordinate Fractions are exposed
through :attr:`CycloElem.coeffs`.

Phi_m is a Moebius product of binomials x^d - 1 (:func:`cyclotomic_polynomial`),
built once per interned field.
Each interned field keeps one growing table of the integer coordinates of
zeta^phi, zeta^(phi+1), ... (:meth:`CycloField.power`); the kernel, and
:func:`as_cyclo`, :func:`embed` and :func:`galois_apply`, all read it.

Conventions fixed here and relied on elsewhere:

* binary operations require equal conductors; callers embed into an
  lcm-conductor field first (:func:`embed`),
* the field norm is the product of all Galois conjugates sigma_s(e),
  s in (Z/m)^*, so the norm of a rational q is q**phi(m); the inverse is the
  product of the conjugates with s != 1 divided by the norm (Washington,
  *Introduction to Cyclotomic Fields*, ch. 2); both are built from
  :func:`galois_apply` and element multiplication,
* the p-adic valuation is normalized with nu_p(p) = 1 and is only defined
  for rational elements or in fields of p-power conductor (totally ramified
  case, where it is independent of any choice of prime above p),
* roots of unity of order one or two are rational (1 and -1) and therefore
  embed into every field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import _kernel as K
from .errors import (
    DivisionByZero,
    FieldMismatch,
    NonDivisibleConductor,
    UnsupportedField,
)

#: Returned by padic_valuation for the zero element.
INFINITY = math.inf


# ---------------------------------------------------------------------------
# integer utilities

def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def totient(n: int) -> int:
    """Euler totient."""
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# cyclotomic polynomials (integer coefficients, ascending)

def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending, as a Moebius product.

    Phi_m = prod over squarefree e | m of (x^(m/e) - 1)^mu(e) (Washington,
    *Introduction to Cyclotomic Fields*, ch. 2), taken mod x^(phi+1), where
    dividing by x^d - 1 is exact.  Times or divided by x^d - 1, both read
    p_i = q_(i-d) - q_i, in one pass from the top or from the bottom.
    """
    if m < 1:
        raise ValueError("conductor must be >= 1")
    phi = totient(m)
    poly = [1] + [0] * phi
    factors = [(m, 1)]
    for p in factorize(m):
        factors += [(d // p, -mu) for d, mu in factors]
    for d, mu in factors:
        for i in range(phi, -1, -1) if mu == 1 else range(phi + 1):
            poly[i] = (poly[i - d] if i >= d else 0) - poly[i]
    return tuple(poly)


# ---------------------------------------------------------------------------
# roots of unity

class RootOfUnity:
    """zeta_order^exponent, stored in lowest terms: gcd(exponent, order) = 1.

    The exponent is reduced mod order and the gcd divided out of both when a
    root is made, so zeta_4^2 is stored, compared and printed as zeta_2.
    """

    __slots__ = ("order", "exponent")

    def __init__(self, order: int, exponent: int = 1):
        if order < 1:
            raise ValueError("order must be >= 1")
        exponent %= order
        g = gcd(exponent, order)
        object.__setattr__(self, "order", order // g)
        object.__setattr__(self, "exponent", exponent // g)

    def __setattr__(self, name, value):
        raise AttributeError("RootOfUnity is immutable")

    def __reduce__(self):
        return RootOfUnity, (self.order, self.exponent)

    def is_one(self) -> bool:
        return self.exponent == 0

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        m = lcm(self.order, other.order)
        e = self.exponent * (m // self.order) + other.exponent * (m // other.order)
        return RootOfUnity(m, e)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exponent * k)

    def __eq__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.order == other.order and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.order, self.exponent))

    def __repr__(self):
        return f"RootOfUnity({self.order}, {self.exponent})"


# ---------------------------------------------------------------------------
# fields

class CycloField:
    """The field Q(zeta_m): conductor, degree phi and a table of powers of zeta.

    Table row t holds the integer coordinates of zeta^(phi+t): the row before
    times zeta, with zeta^phi folded back.  The first max(phi - 1, 1) rows are
    the kernel's ``reduction_rows``; :meth:`power` grows the table on demand.
    Instances are interned by :func:`cyclo_field`, one table per conductor;
    never construct directly.  The conductor-1 field is Q (Phi_1 = x - 1).
    """

    __slots__ = ("conductor", "degree", "reduction_rows", "zero", "one", "_powers")

    def __init__(self, conductor: int):
        poly = cyclotomic_polynomial(conductor)
        phi = len(poly) - 1
        self.conductor = conductor
        self.degree = phi
        self._powers = [tuple(-c for c in poly[:-1])]  # zeta^phi in the basis
        self.power(phi + max(phi - 1, 1) - 1)  # the rows the kernel reads
        self.reduction_rows = tuple(self._powers)
        self.zero = CycloElem._raw(self, (0,) * phi, 1)
        self.one = CycloElem._raw(self, self.power(0), 1)

    def power(self, e: int) -> tuple[int, ...]:
        """Integer coordinates of zeta^e, e >= 0: a unit vector below phi, a table row above.

        Rows past the conductor repeat earlier powers; callers reduce e mod m.
        """
        phi = self.degree
        if e < phi:
            return (0,) * e + (1,) + (0,) * (phi - e - 1)
        table = self._powers
        base = table[0]
        while len(table) <= e - phi:
            cur = table[-1]
            top = cur[-1]
            cur = (0,) + cur[:-1]
            if top:
                cur = tuple([v + top * b for v, b in zip(cur, base)])
            table.append(cur)
        return table[e - phi]

    def element(self, coeffs) -> "CycloElem":
        """Element from a sequence of phi(m) rationals in the power basis."""
        return CycloElem(self, coeffs)

    def rational(self, q) -> "CycloElem":
        """The rational q as an element of this field."""
        q = Fraction(q)
        nums = [0] * self.degree
        nums[0] = q.numerator
        return CycloElem._raw(self, *K.normalize(nums, q.denominator))

    def __eq__(self, other):
        if not isinstance(other, CycloField):
            return NotImplemented
        return self.conductor == other.conductor

    def __hash__(self):
        return hash(("CycloField", self.conductor))

    def __reduce__(self):
        return cyclo_field, (self.conductor,)  # the interned field, tables and all

    def __repr__(self):
        return f"CycloField({self.conductor})"


@lru_cache(maxsize=None)
def cyclo_field(conductor: int) -> CycloField:
    """Interned field of conductor m."""
    return CycloField(conductor)


# ---------------------------------------------------------------------------
# elements

class CycloElem:
    """Element of Q(zeta_m) in the power basis, reduced mod Phi_m.

    ``nums``/``den`` is the fraction-free storage consumed by the kernels;
    treat instances as immutable.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: CycloField, coeffs):
        fr = [Fraction(c) for c in coeffs]
        if len(fr) != field.degree:
            raise ValueError(
                f"expected {field.degree} coordinates for conductor {field.conductor}, got {len(fr)}"
            )
        den = 1
        for f in fr:
            den = den // gcd(den, f.denominator) * f.denominator
        nums = [f.numerator * (den // f.denominator) for f in fr]
        nums, den = K.normalize(nums, den)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CycloElem is immutable")

    def __reduce__(self):
        return CycloElem._raw, (self.field, self.nums, self.den)

    @classmethod
    def _raw(cls, field, nums, den) -> "CycloElem":
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "nums", tuple(nums))
        object.__setattr__(obj, "den", den)
        return obj

    # -- views ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "CycloElem"):
        if self.field.conductor != other.field.conductor:
            raise FieldMismatch(
                f"conductor {self.field.conductor} vs {other.field.conductor}; embed first"
            )

    def __add__(self, other):
        if isinstance(other, CycloElem):
            self._check(other)
            return CycloElem._raw(self.field, *K.vadd(self.nums, self.den, other.nums, other.den))
        if isinstance(other, (int, Fraction)):
            return self + self.field.rational(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return CycloElem._raw(self.field, tuple(-v for v in self.nums), self.den)

    def __sub__(self, other):
        if isinstance(other, CycloElem):
            self._check(other)
            return self + (-other)
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycloElem):
            self._check(other)
            return CycloElem._raw(
                self.field,
                *K.vmulmod(self.nums, self.den, other.nums, other.den, self.field.reduction_rows),
            )
        if isinstance(other, int):  # bool included; no Fraction for an integer scalar
            return CycloElem._raw(self.field, *K.vscale(self.nums, self.den, other, 1))
        if isinstance(other, Fraction):
            return CycloElem._raw(
                self.field, *K.vscale(self.nums, self.den, other.numerator, other.denominator)
            )
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, CycloElem):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise DivisionByZero("division by zero scalar")
            return self * (1 / q)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self) -> "CycloElem":
        """Multiplicative inverse: the product of the other conjugates over the norm.

        With c = prod_{s != 1} sigma_s(e), e * c is the field norm, a nonzero
        rational, so e^-1 = c / (e * c).
        """
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.is_rational():
            return self.field.rational(1 / self.rational_value())
        cofactor = _other_conjugates(self)
        return cofactor * (1 / (self * cofactor).rational_value())

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            return (
                self.field.conductor == other.field.conductor
                and self.nums == other.nums
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == Fraction(other)
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.field.conductor, self.nums, self.den))

    def __repr__(self):
        return f"CycloElem(m={self.field.conductor}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# powers of zeta, embeddings, roots as elements

def as_cyclo(r: RootOfUnity, m: int) -> CycloElem:
    """The root of unity r as an element of Q(zeta_m).

    Orders one and two are the rationals 1 and -1 and embed into any field;
    otherwise its order must divide m, or, for odd m, be 2h
    with h | m: then j is odd and zeta_2h^j = -zeta_h^(j (h+1)/2), since
    zeta_2h = e^(pi i / h) = -e^(pi i (h+1) / h).  Either way it is one row
    of the field's table of powers, so no element product is made.
    """
    o, j = r.order, r.exponent
    field = cyclo_field(m)
    if o == 1:
        return field.one
    if o == 2:
        return field.rational(-1)
    if m % o == 0:
        return CycloElem._raw(field, field.power(j * (m // o)), 1)
    h = o // 2
    if m % 2 == 0 or o % 2 or m % h:
        raise NonDivisibleConductor(f"root of order {o} does not lie in Q(zeta_{m})")
    row = field.power(j * (h + 1) // 2 * (m // h) % m)
    return CycloElem._raw(field, tuple(-v for v in row), 1)


def _substitute(e: CycloElem, target: CycloField, k: int) -> CycloElem:
    """e with zeta_a replaced by zeta^k of the target field, summed in integers."""
    m = target.conductor
    acc = [0] * target.degree
    for i, v in enumerate(e.nums):
        if v:
            for j, z in enumerate(target.power(i * k % m)):
                if z:
                    acc[j] += v * z
    return CycloElem._raw(target, *K.normalize(acc, e.den))


def embed(e: CycloElem, b: int) -> CycloElem:
    """Image of e under zeta_a -> zeta_b^(b/a), for a | b (ring embedding)."""
    a = e.field.conductor
    if b % a:
        raise NonDivisibleConductor(f"conductor {a} does not divide {b}")
    if a == b:
        return e
    return _substitute(e, cyclo_field(b), b // a)


def galois_apply(e: CycloElem, s: int) -> CycloElem:
    """Apply the automorphism zeta_m -> zeta_m^s (requires gcd(s, m) = 1)."""
    m = e.field.conductor
    if gcd(s, m) != 1:
        raise ValueError(f"{s} is not coprime to the conductor {m}")
    return _substitute(e, e.field, s)


# ---------------------------------------------------------------------------
# norm and p-adic valuation

def _other_conjugates(e: CycloElem) -> CycloElem:
    """prod sigma_s(e) over s in (Z/m)^*, s != 1: e times it is the norm."""
    m = e.field.conductor
    out = e.field.one
    for s in range(2, m):
        if gcd(s, m) == 1:
            out = out * galois_apply(e, s)
    return out


def norm(e: CycloElem) -> Fraction:
    """Field norm: product of all Galois conjugates sigma_s(e), s in (Z/m)^*.

    The product is fixed by every sigma_s, hence rational; rational_value()
    raises if it ever is not.  norm(q) == q**phi(m) for rational q.
    """
    if e.is_rational():
        return e.rational_value() ** e.field.degree
    return (e * _other_conjugates(e)).rational_value()


def rational_valuation(q: Fraction, p: int):
    """nu_p of a rational; INFINITY for zero."""
    q = Fraction(q)
    if q == 0:
        return INFINITY
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return Fraction(v)


def _is_p_power(m: int, p: int) -> bool:
    while m % p == 0:
        m //= p
    return m == 1


def padic_valuation(e: CycloElem, p: int):
    """nu_p(e), normalized so nu_p(p) = 1; INFINITY for the zero element.

    Defined for rational elements of any field, and for arbitrary elements
    when the conductor is 1 or a power of p (single prime above p).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e.is_zero():
        return INFINITY
    if e.is_rational():
        return rational_valuation(e.rational_value(), p)
    m = e.field.conductor
    if not _is_p_power(m, p):
        raise UnsupportedField(
            f"valuation in Q(zeta_{m}) depends on a choice of prime above {p}"
        )
    return Fraction(rational_valuation(norm(e), p)) / e.field.degree


# ---------------------------------------------------------------------------
# serialization ("num/den" strings; conductor-1 elements collapse to a string)

def frac_to_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def cyclo_to_json(e: CycloElem):
    """JSON value for an element: bare "num/den" when rational over Q."""
    if e.field.conductor == 1:
        return frac_to_str(e.rational_value())
    return {
        "conductor": e.field.conductor,
        "coeffs": [frac_to_str(c) for c in e.coeffs],
    }
