"""Generalized twisted Bernoulli numbers and polynomials of higher order.

The order-k family attached to a character chi mod d and a twist xi is read
off the k-th power of the series quotient

    t * sum_{a<d} chi(a) xi^a e^(a t)  /  (xi^d e^(d t) - 1),

with the coefficient of t^n/n! giving the n-th number; the polynomial of
degree n is the binomial convolution of the numbers with powers of x.  The
order-0 convention is the bare e^(x t) factor, so the order-0 polynomial of
degree n is x^n.

The twist may be a root of unity of any finite order; the p-adic module
restricts to twists of p-power order where the valuation theory applies.
All results are cached: families, polynomials and power sums are immutable
and reused across identity checks.  The series behind them are kept one per
twist spec (the kernel quotient, its numerator's exponential sum and its
denominator's inverse, which the power-sum series check shares) and one per
(spec, k) (its k-th power), and grow coefficient by coefficient to the
largest n asked for so far, so that asking for n computes no coefficient
past t^n and none twice.  No config may
ask for an index above ``MAX_SERIES_INDEX``.

The twisted sums sum_a chi(a) xi^a a^i are the power sums, and the
exponential sum sum_{a<d} chi(a) xi^a e^(a t) is read off them.  They are
accumulated in integers: each weight chi(a) xi^a is the element product of
two roots of unity, so its coordinates are integers, and a sum is one
integer coordinate vector reduced once by the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from . import _kernel as K
from . import powerseries as ps
from .characters import DirichletCharacter
from .errors import ConfigError, NonDivisibleConductor
from .exact import CycloElem, CycloField, RootOfUnity, as_cyclo, cyclo_field, embed


#: The largest series index n a config may ask for: compute-numbers ``n_max``,
#: compute-polynomial ``n``, power-sum ``k``, a verify grid's ``n_max``,
#: ``series_order`` and eq_1_13 ``k``, and volkenborn ``moments``.  A larger
#: value exits 2 naming the key before any work.  Each coefficient is a Cauchy sum over the ones before
#: it, so the cost grows with n^2 times the field's work per product.
MAX_SERIES_INDEX = 64

#: The largest order k of a family a config may ask for: compute-numbers and
#: compute-polynomial ``k``, and a verify grid's ``m``.  F^(k) costs about
#: 2 log2 k series products, each dearer as k grows the coefficients.
MAX_ORDER = 16

#: The largest top index n of a power sum T_k(n) a config may ask for:
#: power-sum ``n``.  T_k(n) sums n + 1 terms and keeps one weight per term.
MAX_POWER_SUM_N = 10**5


def _at_most(value: int, limit: int, key: str, what: str) -> int:
    if value > limit:
        raise ConfigError(f"key '{key}' is {value}, above the largest {what} {limit}")
    return value


def series_index(n: int, key: str) -> int:
    """n, once it is at most MAX_SERIES_INDEX; ConfigError naming key if not."""
    return _at_most(n, MAX_SERIES_INDEX, key, "series index")


def family_order(k: int, key: str) -> int:
    """k, once it is at most MAX_ORDER; ConfigError naming key if not."""
    return _at_most(k, MAX_ORDER, key, "order")


def power_sum_top(n: int, key: str) -> int:
    """n, once it is at most MAX_POWER_SUM_N; ConfigError naming key if not."""
    return _at_most(n, MAX_POWER_SUM_N, key, "power-sum top index")


class TwistSpec:
    """Twist xi, character chi, and the ambient field holding both.

    The ambient conductor is the lcm of the twist's (normalized) order and
    the orders of the character values, where orders one and two count as
    rational and need no extension; an extra multiple can be requested so
    that several related computations share one field.
    """

    __slots__ = ("xi", "chi", "ambient", "_keyval", "_hashval")

    def __init__(self, chi: DirichletCharacter, xi: RootOfUnity, ambient: CycloField):
        key = (chi._key(), xi._key(), ambient.conductor)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "_keyval", key)
        object.__setattr__(self, "_hashval", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError("TwistSpec is immutable")

    def _key(self):
        return self._keyval

    def __eq__(self, other):
        if not isinstance(other, TwistSpec):
            return NotImplemented
        return self._keyval == other._keyval

    def __hash__(self):
        return self._hashval

    def __repr__(self):
        return (
            f"TwistSpec(chi={self.chi.label()}, xi={self.xi!r}, "
            f"ambient=Q(zeta_{self.ambient.conductor}))"
        )


def ambient_conductor(chi: DirichletCharacter, xi: RootOfUnity) -> int:
    """Smallest conductor whose field holds all chi values and the twist."""
    o = xi.normalized().order
    return lcm(o if o > 2 else 1, chi.value_conductor())


def twist_spec(chi: DirichletCharacter, xi: RootOfUnity, conductor: int | None = None) -> TwistSpec:
    """Build a TwistSpec, normalizing the twist.

    ``conductor`` forces a larger ambient field (must be a multiple of the
    natural one).
    """
    xi = xi.normalized()
    natural = ambient_conductor(chi, xi)
    m = natural if conductor is None else lcm(natural, conductor)
    if conductor is not None and m != conductor:
        raise NonDivisibleConductor(
            f"requested conductor {conductor} does not contain the natural field {natural}"
        )
    return TwistSpec(chi, xi, cyclo_field(m))


@dataclass(frozen=True)
class BernoulliFamily:
    """The numbers of one (chi, xi, order k) family up to index max_n."""

    spec: TwistSpec
    order_k: int
    max_n: int
    numbers: tuple[CycloElem, ...]


@dataclass(frozen=True)
class BernoulliPolynomial:
    """Degree-n polynomial in x; coeffs[i] is the coefficient of x^i."""

    degree: int
    coeffs: tuple[CycloElem, ...]

    @property
    def field(self) -> CycloField:
        return self.coeffs[0].field


@lru_cache(maxsize=None)
def _twist_weights(spec: TwistSpec, terms: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(a, coordinates of chi(a) xi^a) for each a < terms with chi(a) != 0.

    The weight is the element product of two roots of unity, so its
    coordinates are integers over the denominator 1; it depends on a only
    modulo lcm(d, order of xi), so at most that many products are formed.
    """
    field = spec.ambient
    period = lcm(spec.chi.modulus, spec.xi.order)
    base = []
    for r in range(min(terms, period)):
        c = spec.chi.value_at(r, field)
        base.append(None if c.is_zero() else (c * as_cyclo(spec.xi**r, field.conductor)).nums)
    return tuple((a, base[a % period]) for a in range(terms) if base[a % period] is not None)


@lru_cache(maxsize=None)
def _twisted_exp_sum(spec: TwistSpec) -> ps.Series:
    """sum_{a<d} chi(a) xi^a e^(a t): coefficient i is T_i(d - 1) / i!.

    One growing series per spec, shared by the kernel series and every
    ``power_sum_series_check`` of the spec.
    """
    d = spec.chi.modulus
    return ps.generated(spec.ambient, lambda i: power_sum(spec, i, d - 1) * Fraction(1, factorial(i)))


def _twisted_exp_minus_one(spec: TwistSpec, c: int) -> ps.Series:
    """xi^c e^(c t) - 1."""
    field = spec.ambient
    xic = as_cyclo(spec.xi**c, field.conductor)
    return ps.generated(field, lambda r: xic * Fraction(c**r, factorial(r)) if r else xic - field.one)


def _cancelled(spec: TwistSpec) -> int:
    """The power of t that xi^d e^(d t) - 1 carries: 1 when xi^d = 1, else 0.

    Its coefficient of t, d xi^d, is never zero.
    """
    return 1 if (spec.xi**spec.chi.modulus).is_one() else 0


@lru_cache(maxsize=None)
def _inverse_denominator(spec: TwistSpec) -> ps.Series:
    """The inverse of (xi^d e^(d t) - 1) / t^v, v = ``_cancelled(spec)``.

    One growing series per spec, shared by the kernel series and every
    ``power_sum_series_check`` of the spec.
    """
    v = _cancelled(spec)
    return ps.inverse(ps.shifted(_twisted_exp_minus_one(spec, spec.chi.modulus), v))


@lru_cache(maxsize=None)
def _kernel_series(spec: TwistSpec) -> ps.Series:
    """t * sum_a chi(a) xi^a e^(a t) / (xi^d e^(d t) - 1), with the common t cancelled."""
    field = spec.ambient
    exp_sum = _twisted_exp_sum(spec)
    numerator = ps.generated(field, lambda r: exp_sum.coeff(r - 1) if r else field.zero)
    return ps.product(ps.shifted(numerator, _cancelled(spec)), _inverse_denominator(spec))


@lru_cache(maxsize=None)
def family_series(spec: TwistSpec, k: int) -> ps.Series:
    """The order-k generating series, grown as far as it is asked.

    F^(k) is the k-th power of the kernel series by repeated squaring, and
    each power reads the smaller powers of the same spec from this cache, so
    F^(2) is one product shared by F^(3) and F^(4).  k = 0 gives 1.
    """
    return ps.power(_kernel_series(spec), k, lambda j: family_series(spec, j))


@lru_cache(maxsize=None)
def generating_series(spec: TwistSpec, k: int, order: int) -> ps.TruncSeries:
    """Order-k generating series, from the truncation order given.

    Requires order >= k + 2 so that extraction never starves after the t
    cancellation, which leaves order - 1 when xi^d = 1; k = 0 gives the
    constant series 1.
    """
    if k < 0:
        raise ValueError("order k must be >= 0")
    if order < k + 2:
        raise ValueError(f"truncation order {order} < k + 2 = {k + 2}")
    return ps.TruncSeries(spec.ambient, family_series(spec, k).coeffs(order - _cancelled(spec)))


@lru_cache(maxsize=None)
def numbers(spec: TwistSpec, k: int, max_n: int) -> BernoulliFamily:
    """The numbers B^(k)_n for n = 0..max_n: n! times the coefficients of F^(k)."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if k < 0:
        raise ValueError("order k must be >= 0")
    coeffs = family_series(spec, k).coeffs(max_n)
    nums = tuple(c * factorial(n) for n, c in enumerate(coeffs))
    return BernoulliFamily(spec=spec, order_k=k, max_n=max_n, numbers=nums)


@lru_cache(maxsize=None)
def polynomial(spec: TwistSpec, k: int, n: int) -> BernoulliPolynomial:
    """Degree-n polynomial: coefficient of x^(n-j) is C(n, j) B^(k)_j."""
    fam = numbers(spec, k, n)
    coeffs = tuple(comb(n, i) * fam.numbers[n - i] for i in range(n + 1))
    return BernoulliPolynomial(degree=n, coeffs=coeffs)


def evaluate(poly: BernoulliPolynomial, arg) -> CycloElem:
    """Horner evaluation; rational args and embeddable elements accepted."""
    field = poly.field
    if isinstance(arg, (int, Fraction)):
        arg = field.rational(arg)
    elif isinstance(arg, CycloElem) and arg.field.conductor != field.conductor:
        arg = embed(arg, field.conductor)  # NonDivisibleConductor if impossible
    acc = field.zero
    for c in reversed(poly.coeffs):
        acc = acc * arg + c
    return acc


@lru_cache(maxsize=None)
def power_sum(spec: TwistSpec, k: int, n: int) -> CycloElem:
    """T_k(n) = sum_{l=0..n} chi(l) xi^l l^k, with 0^0 = 1.

    The terms are summed as one integer coordinate vector and reduced once.
    """
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    acc = [0] * spec.ambient.degree
    for a, w in _twist_weights(spec, n + 1):
        ak = a**k  # Python's 0**0 is 1
        if ak:
            acc = [x + v * ak for x, v in zip(acc, w)]
    return CycloElem._raw(spec.ambient, *K.normalize(acc, 1))


@dataclass(frozen=True)
class PowerSumSeriesReport:
    """Outcome of the power-sum generating-series comparison."""

    holds: bool
    order: int
    first_mismatch: int | None
    lhs: tuple[CycloElem, ...]
    rhs: tuple[CycloElem, ...]


def power_sum_series_check(spec: TwistSpec, n: int, order: int) -> PowerSumSeriesReport:
    """Compare two constructions of the power-sum generating function.

    The first divides (xi^(nd) e^(nd t) - 1) * sum_{i<d} chi(i) xi^i e^(i t)
    by xi^d e^(d t) - 1; the second assembles the series whose t^k/k!
    coefficient is T_k(nd - 1) directly from the power sums.  They must agree
    coefficient-by-coefficient.
    """
    if n < 1 or order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    d = spec.chi.modulus
    v = _cancelled(spec)
    numerator = ps.product(_twisted_exp_minus_one(spec, n * d), _twisted_exp_sum(spec))
    lhs = ps.product(ps.shifted(numerator, v), _inverse_denominator(spec)).coeffs(order - v)
    rhs = tuple(
        power_sum(spec, k, n * d - 1) * Fraction(1, factorial(k)) for k in range(len(lhs))
    )
    first = None
    for k, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            first = k
            break
    return PowerSumSeriesReport(
        holds=first is None,
        order=order - v,
        first_mismatch=first,
        lhs=lhs,
        rhs=rhs,
    )
