"""Finite-level approximation of the p-adic invariant integral.

The level-N Riemann sum of chi(x) xi^x x^n over the projective system of
residue rings of modulus d p^N is

    S_N = (1 / (d p^N)) * sum_{x=0}^{d p^N - 1} chi(x) xi^x x^n,

computed in exact cyclotomic arithmetic in bernoulli's field of the twist
spec (chi, xi), Q(xi) since chi takes rational values, with its weights
chi(x) xi^x (``bernoulli._twist_weights``), each one root of unity.  As N
grows, S_N converges p-adically to the generalized twisted Bernoulli number
attached to (chi, xi, n); this module measures that convergence through
valuation traces and checks the finite-level counterpart of the shift
identity, whose exact (level-free) form lives in the identities module as
eq_1_13: ``shift_identity_check`` returns the valuation of its level-N
residual.

Integrands are restricted so that every sum stays in a field where the
valuation is single-valued: the character must take rational values
(orders one and two only) and the twist must have order 1 or a power of p.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _kernel as K
from . import bernoulli as bn
from .characters import DirichletCharacter
from .errors import UnsupportedField
from .exact import INFINITY, CycloElem, RootOfUnity, _is_p_power, is_prime, padic_valuation

#: Default level caps keeping d * p^N terms per sum manageable.
DEFAULT_LEVEL_CAP = {2: 7, 3: 7, 5: 5}

#: Most terms d * p^N that one level sum may enumerate.  The largest example
#: config sums 3^7 = 2 187 terms per level and the largest benchmark shape
#: 4 * 3^9 = 78 732; the CLI refuses a ``level_max`` above :func:`max_level`.
MAX_LEVEL_TERMS = 10**7


def max_level(d: int, p: int) -> int:
    """The largest level N with d * p^N <= MAX_LEVEL_TERMS; 0 when level 1 exceeds it."""
    level, terms = 0, d * p
    while terms <= MAX_LEVEL_TERMS:
        level, terms = level + 1, terms * p
    return level


class IntegrandSpec(NamedTuple):
    """chi(x) xi^x x^moment summed over residues mod d p^N."""

    chi: DirichletCharacter
    xi: RootOfUnity
    moment: int
    d: int


def integrand_spec(chi: DirichletCharacter, xi: RootOfUnity, moment: int) -> IntegrandSpec:
    """Validated integrand, summed modulo d p^N with d the character modulus."""
    if moment < 0:
        raise ValueError("moment must be >= 0")
    if chi.value_conductor() != 1:
        raise UnsupportedField("character must take rational values (orders one and two)")
    return IntegrandSpec(chi=chi, xi=xi, moment=moment, d=chi.modulus)


def _validate_twist(spec: IntegrandSpec, p: int):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not _is_p_power(spec.xi.order, p):
        raise UnsupportedField(
            f"twist of order {spec.xi.order} is not a power of {p}; valuations would be ambiguous"
        )


def _level_sum(spec: IntegrandSpec, p: int, level: int, offset: int) -> CycloElem:
    """(1/(d p^N)) sum_{offset <= x < offset + d p^N} chi(x) xi^x x^n.

    Terms are bucketed by x mod the period of bernoulli's weights, so the
    inner loop is pure integer arithmetic; each bucket then weights the
    integer coordinates of the one root of unity chi(r) xi^r, and the vector
    is reduced once.
    """
    tw = bn.twist_spec(spec.chi, spec.xi)
    period, weights = bn._twist_weights(tw)
    n = spec.moment
    count = spec.d * p**level
    buckets = [0] * period
    if n == 0:
        base, extra = divmod(count, period)
        for r in range(period):
            buckets[r] = base + (1 if (r - offset) % period < extra else 0)
    else:
        for x in range(offset, offset + count):
            buckets[x % period] += x**n
    acc = [0] * tw.ambient.degree
    for r, w in weights:
        total = buckets[r]
        if total:
            acc = [a + v * total for a, v in zip(acc, w)]
    return CycloElem._raw(tw.ambient, *K.normalize(acc, count))


def riemann_sum(spec: IntegrandSpec, p: int, level: int) -> CycloElem:
    """Exact level-N sum (1/(d p^N)) sum_{x < d p^N} chi(x) xi^x x^n."""
    if level < 1:
        raise ValueError("level must be >= 1")
    _validate_twist(spec, p)
    return _level_sum(spec, p, level, 0)


class ConvergenceTrace(NamedTuple):
    """Valuations of S_N minus the target number, for N = 1..N_max."""

    levels: tuple[int, ...]
    valuations: tuple

    def passes(self, max_start: int = 3) -> bool:
        """Empirical convergence criterion.

        True when, from some starting level N0 <= max_start on, the
        valuations never decrease and strictly increase at least every other
        step; an exactly-zero difference (infinite valuation) counts as
        converged.
        """
        idx = {lev: i for i, lev in enumerate(self.levels)}
        for start in self.levels[: max_start]:
            i0 = idx[start]
            vals = self.valuations[i0:]
            ok = True
            for a, b in zip(vals, vals[1:]):
                if not (b >= a or a == INFINITY):
                    ok = False
                    break
            if ok:
                for a, b in zip(vals, vals[2:]):
                    if not (b > a or b == INFINITY):
                        ok = False
                        break
            if ok:
                return True
        return False


def bernoulli_target(spec: IntegrandSpec) -> CycloElem:
    """The generalized twisted Bernoulli number the sums converge to."""
    return bn.numbers(bn.twist_spec(spec.chi, spec.xi), 1, spec.moment)[spec.moment]


def convergence_check(spec: IntegrandSpec, p: int, level_max: int) -> ConvergenceTrace:
    """Trace nu_p(S_N - target) for N = 1..level_max."""
    if level_max < 2:
        raise ValueError("need level_max >= 2")
    target = bernoulli_target(spec)
    levels = tuple(range(1, level_max + 1))
    vals = []
    for N in levels:
        diff = riemann_sum(spec, p, N) - target
        vals.append(padic_valuation(diff, p))
    return ConvergenceTrace(levels=levels, valuations=tuple(vals))


def shift_identity_check(spec: IntegrandSpec, p: int, n_shift: int, level: int):
    """nu_p of the residual of the shift identity at one finite level.

    With f(x) = chi(x) xi^x x^k and shift by n_shift*d the exact relation
    has derivative term k * T_(k-1)(n_shift*d - 1) (the twist contributes no
    logarithmic term); at a finite level the two Riemann sums differ from it
    by a discrepancy whose valuation should grow with the level.
    """
    k = spec.moment
    if k < 1:
        raise ValueError("the shift identity needs moment >= 1")
    if n_shift < 1:
        raise ValueError("n_shift must be >= 1")
    _validate_twist(spec, p)
    shift = n_shift * spec.d
    shifted = _level_sum(spec, p, level, shift)
    plain = _level_sum(spec, p, level, 0)
    derivative = bn.power_sum(bn.twist_spec(spec.chi, spec.xi), k - 1, shift - 1) * k
    return padic_valuation(shifted - plain - derivative, p)
