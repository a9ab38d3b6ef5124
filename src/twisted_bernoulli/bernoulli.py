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
``numbers`` returns the tuple (B^(k)_0, ..., B^(k)_n) and ``polynomial``
the tuple of coefficients of B^(k)_n(x) in ascending order.  All results
are cached: numbers, polynomials and power sums are immutable and reused
across identity checks.  The series behind them are kept one per
twist spec (the kernel quotient, which the power-sum series check shares,
and its numerator's exponential sum) and one per (spec, k) (the k-th power,
``generating_series``), and grow coefficient by coefficient to the largest n
asked for so far, so that asking for n computes no coefficient past t^n and
none twice.  No config may ask for an index above ``MAX_SERIES_INDEX``.

The twisted sums sum_a chi(a) xi^a a^i are the power sums, and the
exponential sum sum_{a<d} chi(a) xi^a e^(a t) is read off them.  They are
accumulated in integers: each weight chi(a) xi^a is one root of unity,
read off the field's table of powers as integer coordinates, and it depends
on a only modulo lcm(d, order of xi).  The powers a^i are summed per residue,
each residue's sum weights its integer coordinate vector, and the vector
is reduced once by the kernel.
"""

from __future__ import annotations

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
#: power-sum ``n``, and the top w d - 1 or s d - 1 that a verify grid's
#: ``w1``, ``w2``, ``shift`` and power_sum_series_check ``n``, or a volkenborn
#: ``shift``, imply for the modulus d.  T_k(n) sums n + 1 integer powers; it
#: keeps one weight per residue modulo lcm(d, order of xi), whatever n.
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


def power_sum_multiple(s: int, d: int, key: str) -> int:
    """s, once the power-sum top index s d - 1 it sets is at most MAX_POWER_SUM_N.

    A weight w sums S over w d terms, and a shift or power-sum-check n over
    n d terms; ConfigError naming key if the top is too large.
    """
    if s * d - 1 > MAX_POWER_SUM_N:
        raise ConfigError(
            f"key '{key}' is {s}, but {key} * d - 1 = {s * d - 1} for d = {d} is above "
            f"the largest power-sum top index {MAX_POWER_SUM_N}"
        )
    return s


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


@lru_cache(maxsize=None)
def _twist_weights(spec: TwistSpec) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    """(period, ((r, coordinates of chi(r) xi^r) for r < period with chi(r) != 0)).

    The weight chi(a) xi^a depends on a only modulo the period
    lcm(d, order of xi), so one weight per residue serves every power sum of
    the spec.  It is one root of unity, the product of two taken as roots,
    so its coordinates are one integer row of the field's table of powers.
    """
    m = spec.ambient.conductor
    period = lcm(spec.chi.modulus, spec.xi.order)
    weights = []
    for r in range(period):
        c = spec.chi.value(r)
        if c is not None:
            weights.append((r, as_cyclo(c * spec.xi**r, m).nums))
    return period, tuple(weights)


@lru_cache(maxsize=None)
def _twisted_exp_sum(spec: TwistSpec) -> ps.Series:
    """sum_{a<d} chi(a) xi^a e^(a t): coefficient i is T_i(d - 1) / i!.

    One growing series per spec, the numerator of the kernel series.
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
def _kernel_series(spec: TwistSpec) -> ps.Series:
    """t * sum_a chi(a) xi^a e^(a t) / (xi^d e^(d t) - 1), with the common t cancelled."""
    field = spec.ambient
    exp_sum = _twisted_exp_sum(spec)
    numerator = ps.generated(field, lambda r: exp_sum.coeff(r - 1) if r else field.zero)
    return ps.divide_cancel(numerator, _twisted_exp_minus_one(spec, spec.chi.modulus), _cancelled(spec))


@lru_cache(maxsize=None)
def generating_series(spec: TwistSpec, k: int) -> ps.Series:
    """The order-k generating series, grown as far as it is asked.

    F^(k) is the k-th power of the kernel series by repeated squaring, and
    each power reads the smaller powers of the same spec from this cache, so
    F^(2) is one product shared by F^(3) and F^(4).  k = 0 gives 1.
    """
    return ps.power(_kernel_series(spec), k, lambda j: generating_series(spec, j))


@lru_cache(maxsize=None)
def numbers(spec: TwistSpec, k: int, max_n: int) -> tuple[CycloElem, ...]:
    """(B^(k)_0, ..., B^(k)_max_n): n! times the coefficients of F^(k)."""
    if max_n < 0:
        raise ValueError("max_n must be >= 0")
    if k < 0:
        raise ValueError("order k must be >= 0")
    series = generating_series(spec, k)
    return tuple(ps.egf_coefficient(series, n) for n in range(max_n + 1))


@lru_cache(maxsize=None)
def polynomial(spec: TwistSpec, k: int, n: int) -> tuple[CycloElem, ...]:
    """Coefficients of B^(k)_n(x), ascending: x^(n-j) has C(n, j) B^(k)_j."""
    nums = numbers(spec, k, n)
    return tuple(comb(n, i) * nums[n - i] for i in range(n + 1))


def evaluate(coeffs: tuple[CycloElem, ...], arg) -> CycloElem:
    """Horner evaluation of ascending coefficients; rational args and
    embeddable elements accepted."""
    field = coeffs[0].field
    if isinstance(arg, (int, Fraction)):
        arg = field.rational(arg)
    elif isinstance(arg, CycloElem) and arg.field.conductor != field.conductor:
        arg = embed(arg, field.conductor)  # NonDivisibleConductor if impossible
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * arg + c
    return acc


@lru_cache(maxsize=None)
def power_sum(spec: TwistSpec, k: int, n: int) -> CycloElem:
    """T_k(n) = sum_{l=0..n} chi(l) xi^l l^k, with 0^0 = 1.

    The powers l^k are summed in integers per residue r modulo the period
    of the weights, and the per-residue sums weight one integer coordinate
    vector each, reduced once; memory is O(period), whatever n.
    """
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    period, weights = _twist_weights(spec)
    acc = [0] * spec.ambient.degree
    for r, w in weights:
        total = sum(a**k for a in range(r, n + 1, period))  # Python's 0**0 is 1
        if total:
            acc = [x + v * total for x, v in zip(acc, w)]
    return CycloElem._raw(spec.ambient, *K.normalize(acc, 1))


def power_sum_series_check(
    spec: TwistSpec, n: int, order: int
) -> tuple[tuple[CycloElem, ...], tuple[CycloElem, ...]]:
    """(lhs, rhs): two constructions of the power-sum generating function.

    The first divides (xi^(nd) e^(nd t) - 1) * sum_{i<d} chi(i) xi^i e^(i t)
    by xi^d e^(d t) - 1; the second assembles the series whose t^k/k!
    coefficient is T_k(nd - 1) directly from the power sums.  They must agree
    coefficient-by-coefficient; each has order - v + 1 coefficients, where
    v is 1 when xi^d = 1 (the quotient loses that power of t) and 0 if not.
    """
    if n < 1 or order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    d = spec.chi.modulus
    v = _cancelled(spec)
    # (xi^(nd) e^(nd t) - 1) times the kernel series t E / (xi^d e^(d t) - 1)
    # has no constant term, and dropping its t leaves the quotient
    head = _twisted_exp_minus_one(spec, n * d)
    lhs = ps.shifted(ps.series_mul(head, _kernel_series(spec)), 1).coeffs(order - v)
    rhs = tuple(
        power_sum(spec, k, n * d - 1) * Fraction(1, factorial(k)) for k in range(len(lhs))
    )
    return lhs, rhs
