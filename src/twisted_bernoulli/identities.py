"""Symbolic verification of the symmetry identities between power sums and
the generalized twisted Bernoulli numbers and polynomials of higher order.

Every checker expands both sides of one identity as an exact object, either
a bivariate polynomial in x and y, as its coefficient matrix (a tuple of row
tuples over the ambient cyclotomic field), or a single field element, and
compares them exactly, which for the sides below comes down to comparing
coefficients of one series (see the end of this docstring).  No sampling is
involved in the verdict; random-point evaluation exists only as a sanity
cross-check in the test suite.

One table, ``_IDENTITIES``, describes each identity by its tag: instance
parameters with their minima, report function, side builder, readings and
verdict rule.  Each ``check_*`` is one call of ``_check``; grid expansion
and instance dispatch read the same table.  It names functions rather than
holding them, so each call goes through the module global.

Every swap side is read off one series.  Write F^(k)_w(t) for the order-k
generating series of chi and the twist xi^w, sum_n B^(k)_{n,chi,xi^w} t^n/n!,
so that the degree-n polynomial B^(k)_n(u) has generating series
F^(k)_w(t) e^(u t).  For the (wa, wb) side let

    S(t) = sum_{i < wa d} chi(i) xi^(wb i) e^(wb i t),
    H(t) = (1/wa) F^(m)_wa(wa t) S(t) F^(m-1)_wb(wb t).

theorem1 prints the side as sum_j C(n, j) wb^j wa^(n-j-1) B^(m)_(n-j)(wb x)
Y_j(y) with Y_j(y) = sum_k C(j, k) T_k(wa d - 1) B^(m-1)_(j-k)(wa y), T_k the
power sums of the twist xi^wb.  The first factor has series
F^(m)_wa(wa t) e^(wa wb x t) in wa t; Y_j has series
P(s) F^(m-1)_wb(s) e^(wa wb y t) in s = wb t, where
P(s) = sum_k T_k(wa d - 1) s^k / k! = S(t).  So the side is
n! [t^n] H(t) e^(wa wb (x + y) t).  theorem3 prints
sum_k C(n, k) wa^(k-1) wb^(n-k) X_k(x) B^(m-1)_(n-k)(wa y) with
X_k(x) = sum_i chi(i) xi^(wb i) B^(m)_k(wb x + wb i / wa), and X_k has
series F^(m)_wa(wa t) e^(wa wb x t) S(t) in wa t: the same H.  Each side is
a projection of h_r = r! [t^r] H:

* theorem1 and theorem3: the coefficient of x^a y^b is
  n!/(a! b! r!) h_r (wa wb)^(a+b), with r = n - a - b;
* remark_m1 and remark_2_11 (m = 1): the y = 0 column;
* corollary2, m1_numbers, corollary4 and eq_2_12: h_n, the value at
  x = y = 0 (m = 1 for the last two of these and for the remarks).

The two families therefore share H, so their swap verdicts agree by
construction; the test suite checks each family's sides against its own
printed sum.  S is built one way, from ``bernoulli.power_sum``:
[t^k] S = T_k(wa d - 1) wb^k / k!.  One H per
(wa, wb, m, reading) serves every n of a block and both families.  H is
(lead S / wa) F^(m-1) with lead = F^(m)_wa(wa t).  A block object
(``_Block``) holds one (chi, xi) pair with its report JSON and conductor,
and holds H and each value it is built from, under a key naming everything
besides (chi, xi, conductor) that the value depends on:

* ("spec", w): the twist spec of chi and xi^w in the block's field;
* ("S", wa, wb, with_weights): S / wa, shared by every m;
* ("F", tw, k, w): F^(k)_tw(w t); the lead is (wa, m, wa) and the last
  factor (last twist, m - 1, wb);
* every twist weight (w of "spec", tw of "F", the last twist of "H") is
  named modulo the order of xi, so two keys never name one series;
* ("LS", m, wa, wb, with_weights): lead S / wa, shared by both readings of
  theorem1, which differ only in the last factor;
* ("H", m, wa, wb, last twist, with_weights): H itself, one series product
  over the shared values when m > 1.

Every series grows coefficient by coefficient (``powerseries.Series``): a
request for h_0..h_n computes only the coefficients of H and of its factors
that no earlier, smaller n has computed, so each block computes each
coefficient once, up to the largest n its instances ask for.

Sides are not kept: each is one slice or one scalar product of H.  A swap
reading compares the side of (w1, w2) with that of (w2, w1), so its verdict
compares two slices of H (``_verdicts``): an x, y side or a y = 0 column
holds iff h_r = h'_r for every r <= n, and a scalar side n! h_n iff
h_n = h'_n.  So one scan of the two series, grown to the largest n, decides
every n of a (w1, w2, m) at once.  When w1 = w2 both sides read one H, so
the verdict holds by construction and that H is not built unless a side is
read.  Each identity's reports come from one function of (tag, block, args,
sides), for a sweep and a ``check_*`` call alike; ``_swap_report`` serves
the eight swap identities.  It reads the verdict of each reading off H
(the same scan, for its one n), reads a failed first reading's first
mismatch off the same two slices, and builds that reading's two sides only
when they are printed or it fails.  Nothing keeps a block at module level:
a ``check_*`` call makes its own, and a sweep reads its blocks off the
grids' axes (``_plan``) and runs each in one call of ``_block_records``,
which parses the block's chi and xi once, makes its one ``_Block``, and
makes each record's JSON text where its verdict is read: a held swap
instance without sides fills its run's template with the text of its values
and verdicts, and makes no report or dict; any other record is its
report's, made by ``report_to_record`` and encoded by ``jsontext.text``.
At ``--jobs`` N the blocks are cut into fixed shares, one swept by the
calling process and each other by a worker it forks (``_sweep_blocks``).
``sweep`` parses the texts back into records.

Two identities are checked under two readings each (see the checker
docstrings), and a reading changes only the inputs of H.  The printed
swapped expansion of theorem1 ("expansion_literal") twists F^(m-1) by xi^wa
instead of xi^wb; remark_2_11 "as_printed" drops the weights xi^(wb i) from
S, which the m = 1 specialization of the general form carries.  Reports
carry the verdict of every reading.

A bivariate side is a tuple of row tuples, row a holding the coefficients
of x^a y^b (``_xy_matrix``), yet neither the verdict nor the first mismatch
reads it: both sides of a swap share n and c = w1 w2, so entry (a, b) of
either is the same nonzero integer n!/(a! b!) c^(a+b) times its own h_r,
r = n - a - b, and every r <= n occurs in row 0 and in column 0.  So the
matrices are equal iff the slices are, and the first entry where they
differ in row-major order is (0, n - r*) with y and (n - r*, 0) without,
r* the largest index where the slices differ.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, prod
from typing import NamedTuple

from . import bernoulli as bn
from . import jsontext
from . import powerseries as ps
from .characters import (
    DirichletCharacter,
    _json_int,
    character_from_json,
    character_to_json,
    enumerate_cyclic,
    modulus_from_json,
    root_from_json,
    root_to_json,
)
from .errors import ConfigError, NonCyclicUnitGroup, TwistedBernoulliError
from .exact import CycloElem, RootOfUnity, as_cyclo, cyclo_to_json


# ---------------------------------------------------------------------------
# bivariate sides: coefficient matrices over one field

def _xy_matrix(coeffs, c: int, with_y: bool = True) -> tuple:
    """n! [t^n] H(t) e^(c (x + y) t), trimmed, from coeffs = ([t^r] H for r <= n).

    Row a holds the coefficients of x^a y^b: entry (a, b) is
    n!/(a! b!) coeffs[r] c^(a+b) with r = n - a - b, zero when a + b > n;
    with_y=False keeps only the column b = 0.  As c != 0, the last nonzero row
    and column are both n - r0, r0 the least r with coeffs[r] != 0 (n if none).
    """
    n = len(coeffs) - 1
    field = coeffs[0].field
    top = n - next((r for r, h in enumerate(coeffs) if not h.is_zero()), n)
    return tuple(
        tuple(coeffs[n - a - b] * (factorial(n) // (factorial(a) * factorial(b)) * c ** (a + b))
              if a + b <= n else field.zero
              for b in range(top + 1 if with_y else 1))
        for a in range(top + 1)
    )


# ---------------------------------------------------------------------------
# cached building blocks

# The side builders no longer call _affine_poly and _bern_at; the literal
# reference sums in the tests do, and perfbench reads their cache counts.
@lru_cache(maxsize=None)
def _affine_poly(
    spec: bn.TwistSpec, k: int, degree: int, scale: Fraction, shift: Fraction
) -> tuple[CycloElem, ...]:
    """Coefficients (ascending) of B^(k)_degree(scale*u + shift) in u."""
    base = bn.polynomial(spec, k, degree)
    if shift == 0:
        return tuple(c * scale**t for t, c in enumerate(base))
    out = [spec.ambient.zero] * (degree + 1)
    for i, c in enumerate(base):
        if c.is_zero():
            continue
        for t in range(i + 1):
            out[t] = out[t] + c * (comb(i, t) * scale**t * shift ** (i - t))
    return tuple(out)


@lru_cache(maxsize=None)
def _bern_at(spec: bn.TwistSpec, k: int, degree: int, point: Fraction) -> CycloElem:
    return bn.evaluate(bn.polynomial(spec, k, degree), point)


# ---------------------------------------------------------------------------
# the (chi, xi) block: report JSON, conductor and every value computed for it

class _Block:
    """One (chi, xi) pair with its report JSON, ambient conductor and values.

    A sweep runs the instances of each block together, across its grids and
    tags, in one task (``_block_records``), so instances (w1, w2) and
    (w2, w1), every n and every tag of a block share its values.  ``values``
    holds them under keys naming every argument besides chi, xi and the
    conductor that changes the value: twist specs and growing series, which
    only grow and are never changed otherwise, because they are shared.  A
    block lives as long as the call that made it.
    """

    __slots__ = ("chi", "xi", "chi_json", "xi_json", "cond", "values")

    def __init__(self, chi: DirichletCharacter, xi: RootOfUnity):
        self.chi = chi
        self.xi = xi
        self.chi_json = character_to_json(chi)
        self.xi_json = root_to_json(xi)
        self.cond = bn.ambient_conductor(chi, xi)
        self.values = {}

    def get(self, key, build):
        """The value under key; build() on a miss."""
        try:
            return self.values[key]
        except KeyError:
            value = self.values[key] = build()
            return value

    def spec(self, w: int) -> bn.TwistSpec:
        """chi with the twist xi^w, in the block's ambient field."""
        w %= self.xi.order  # xi^w depends on w modulo the order only
        return self.get(("spec", w), lambda: bn.twist_spec(self.chi, self.xi**w, conductor=self.cond))


def _source(chi_json, xi_json) -> str:
    """The text a ``_plan`` block is known by: the ``repr`` of its (chi, xi) JSON pair."""
    return repr((chi_json, xi_json))


# ---------------------------------------------------------------------------
# the series H of one (wa, wb, m, reading), and its projections

def _scaled_numbers(block, tw, k, w) -> ps.Series:
    """F^(k)(w t), F^(k) the order-k series of the twist xi^tw: [t^r] times w^r.

    The twist is named by tw modulo the order of xi, as in ``_h_key``.
    """
    tw %= block.xi.order

    def build():
        fam = bn.generating_series(block.spec(tw), k)
        return fam if w == 1 else ps.generated(fam.field, lambda r: fam.coeff(r) * w**r)

    return block.get(("F", tw, k, w), build)


def _s_factor(block, wa, wb, with_weights) -> ps.Series:
    """S(t) / wa: [t^k] = T_k(wa d - 1) wb^k / (wa k!).

    T_k are the power sums of the twist xi^wb; without weights the factors
    xi^(wb i) are dropped, and T_k are those of xi^0.
    """

    def build():
        spec = block.spec(wb if with_weights else 0)
        top = wa * block.chi.modulus - 1
        return ps.generated(
            spec.ambient, lambda k: bn.power_sum(spec, k, top) * Fraction(wb**k, wa * factorial(k))
        )

    return block.get(("S", wa, wb, with_weights), build)


def _series_h(block, n, m, wa, wb, last_w, with_weights):
    """Ordinary coefficients h_0..h_n of H(t), from the block's series of H.

    The theorem1 and theorem3 families read the same H.  ``last_w`` twists
    F^(m-1) by xi^last_w; ``with_weights`` keeps the xi^(wb i) in S; the
    arguments after n are those ``_h_key`` gives.  H is the product
    (lead S) F^(m-1), and the block holds each factor and lead S apart; each
    grows to the largest n asked for so far.
    """

    def lead_s():
        return ps.series_mul(_scaled_numbers(block, wa, m, wa), _s_factor(block, wa, wb, with_weights))

    def build():
        h = block.get(("LS", m, wa, wb, with_weights), lead_s)
        if m > 1:  # F^(0) = 1
            h = ps.series_mul(h, _scaled_numbers(block, last_w, m - 1, wb))
        return h

    return block.get(("H", m, wa, wb, last_w, with_weights), build).coeffs(n)


def _h_key(block, m, wa, wb, last_twist_wa=False, with_weights=True) -> tuple:
    """The arguments (m, wa, wb, last twist, with_weights) of the H a side reads.

    A reading's side keywords choose the last twist (xi^wa instead of xi^wb)
    and whether S keeps its weights; F^(0) = 1 carries no twist.  The last
    twist is named by its weight modulo the order of xi, so two keys never
    name one series.
    """
    return m, wa, wb, (wa if last_twist_wa and m > 1 else wb) % block.xi.order, with_weights


def _side(tag, block, n, m, wa, wb, **reading):
    """The (wa, wb) side of a swap identity: the projection of H that ``tag`` reads.

    A scalar side ("h_n") is the field element n! h_n; an x, y side ("xy")
    or its y = 0 column ("y0") is the matrix ``_xy_matrix`` fills from
    h_0..h_n with c = wa wb.
    """
    h = _series_h(block, n, *_h_key(block, m, wa, wb, **reading))
    reads = _IDENTITIES[tag].reads
    if reads == "h_n":
        return h[n] * factorial(n)
    return _xy_matrix(h, wa * wb, with_y=reads == "xy")


def _verdicts(block, tag, ns, m, w1, w2) -> list:
    """Whether each reading of the swap instances (w1, w2, m, n), n in ns, holds at each n.

    A reading compares the side of (w1, w2) with that of (w2, w1), so the
    H series of its two keys, each grown once to the largest n: an x, y side
    or a y = 0 column holds iff h_r = h'_r for every r <= n, so iff n is
    below the first index where the slices differ, and a scalar side n! h_n
    iff h_n = h'_n, since n! != 0.  H is read through the module global
    ``_series_h``.  Two equal keys (w1 = w2) name one series, which agrees
    with itself without being read.  Returns one list of verdicts a reading,
    in the order of ns.
    """
    entry = _IDENTITIES[tag]
    top = max(ns)
    out = []
    for _, left, right in entry.readings:
        left, right = _h_key(block, m, w1, w2, **left), _h_key(block, m, w2, w1, **right)
        if left == right:
            out.append([True] * len(ns))
            continue
        h, other = _series_h(block, top, *left), _series_h(block, top, *right)
        if entry.reads == "h_n":
            out.append([h[n] == other[n] for n in ns])
        else:
            first = next((r for r in range(top + 1) if h[r] != other[r]), top + 1)
            out.append([n < first for n in ns])
    return out


# ---------------------------------------------------------------------------
# side builders; (wa, wb) = (w1, w2) gives the left side, swapping gives the
# right side, so swap symmetry is structural

def _theorem1_side(block, n, m, wa, wb, last_twist_wa=False) -> tuple:
    return _side("theorem1", block, n, m, wa, wb, last_twist_wa=last_twist_wa)


def _remark_m1_side(block, n, wa, wb) -> tuple:
    return _side("remark_m1", block, n, 1, wa, wb)


def _corollary2_side(block, n, m, wa, wb) -> CycloElem:
    return _side("corollary2", block, n, m, wa, wb)


def _m1_numbers_side(block, n, wa, wb) -> CycloElem:
    return _side("m1_numbers", block, n, 1, wa, wb)


def _theorem3_side(block, n, m, wa, wb) -> tuple:
    return _side("theorem3", block, n, m, wa, wb)


def _remark_2_11_side(block, n, wa, wb, with_weights) -> tuple:
    return _side("remark_2_11", block, n, 1, wa, wb, with_weights=with_weights)


def _corollary4_side(block, n, m, wa, wb) -> CycloElem:
    return _side("corollary4", block, n, m, wa, wb)


def _eq_2_12_side(block, n, wa, wb) -> CycloElem:
    return _side("eq_2_12", block, n, 1, wa, wb)


# ---------------------------------------------------------------------------
# the identity table

class _Key(NamedTuple):
    """One instance parameter of an identity."""

    name: str  # checker keyword and report parameter
    minimum: int
    grid: str | None  # grid key that lists the values; None: only n_max gives them
    default: tuple | None  # values when the grid lists none; None: minimum..n_max


class _Identity(NamedTuple):
    """How one identity is checked and how a grid expands into its instances.

    ``keys`` are in expansion order.  ``report`` names the function of (tag,
    block, args, sides) that makes a report; one with no swap keeps its
    sides whatever ``sides`` says.  A reading is (name, left-side keywords,
    right-side keywords) of the side builder; the report keeps the sides of
    the first reading, whose verdict decides unless any reading suffices.
    ``reads`` is the projection of H a side is: "xy" the x, y polynomial,
    "y0" its y = 0 column, "h_n" the number n! h_n.
    """

    checker: str
    keys: tuple[_Key, ...]
    side: str | None = None
    reads: str | None = None
    readings: tuple = ((None, {}, {}),)
    any_reading: bool = False
    report: str = "_swap_report"


_W1 = _Key("w1", 1, "w1", (1,))
_W2 = _Key("w2", 1, "w2", (1,))
_M = _Key("m", 1, "m", (1,))
_N = _Key("n", 0, None, None)

_IDENTITIES = {
    # eq_1_13 reports its shift as n, the name of its checker's argument
    "eq_1_13": _Identity("check_eq_1_13", (_Key("k", 1, "k", None), _Key("n", 1, "shift", (1,))),
                         report="_eq_1_13_report"),
    "theorem1": _Identity(
        "check_theorem1", (_W1, _W2, _M, _N), "_theorem1_side", "xy",
        (("symmetric", {}, {}), ("expansion_literal", {}, {"last_twist_wa": True})),
    ),
    "remark_m1": _Identity("check_remark_m1", (_W1, _W2, _N), "_remark_m1_side", "y0"),
    "corollary2": _Identity("check_corollary2", (_W1, _W2, _M, _N), "_corollary2_side", "h_n"),
    "m1_numbers": _Identity("check_m1_numbers", (_W1, _W2, _N), "_m1_numbers_side", "h_n"),
    "theorem3": _Identity("check_theorem3", (_W1, _W2, _M, _N), "_theorem3_side", "xy"),
    "remark_2_11": _Identity(
        "check_remark_2_11", (_W1, _W2, _N), "_remark_2_11_side", "y0",
        (
            ("weighted", {"with_weights": True}, {"with_weights": True}),
            ("as_printed", {"with_weights": False}, {"with_weights": False}),
        ),
        any_reading=True,
    ),
    "corollary4": _Identity("check_corollary4", (_W1, _W2, _M, _N), "_corollary4_side", "h_n"),
    "eq_2_12": _Identity("check_eq_2_12", (_W1, _W2, _N), "_eq_2_12_side", "h_n"),
    "power_sum_series_check": _Identity(
        "check_power_sum_series",
        (_Key("n", 1, "n", (1,)), _Key("series_order", 1, "series_order", (12,))),
        report="_power_sum_series_report",
    ),
}

# ---------------------------------------------------------------------------
# reports and checkers

class IdentityReport(NamedTuple):
    """Outcome of one identity instance, its fields set when it is built.

    ``holds`` is the verdict of the primary reading; when a checker evaluates
    several readings their individual verdicts are in ``readings``.  ``lhs``
    and ``rhs`` are field elements, side matrices (tuples of row tuples, row
    a holding the coefficients of x^a y^b), or series coefficient tuples
    (power_sum_series_check); ``first_mismatch`` is an entry (a, b) of the
    matrices or an index of the tuples.
    """

    identity: str
    params: dict
    holds: bool
    lhs: object
    rhs: object
    first_mismatch: object = None
    readings: dict | None = None
    error: str | None = None


def _params(block, n, m=None, **args) -> dict:
    """Report parameters: n and m (when given), then d, chi and xi, then the other args in order."""
    if m is None:
        return {"n": n, "d": block.chi.modulus, "chi": block.chi_json, "xi": block.xi_json, **args}
    return {"n": n, "m": m, "d": block.chi.modulus, "chi": block.chi_json, "xi": block.xi_json, **args}


def _swap_report(tag, block, args, sides) -> IdentityReport:
    """The report of one swap instance of block, its verdicts read off H.

    Each side is a projection of an H series the block holds, so a reading
    holds iff the two H series it compares agree at the indices its sides
    read (``_verdicts``).  The first reading decides ``holds``, unless any
    reading suffices.  When the first reading fails on matrix sides, its
    first mismatch is read off the two slices of H it compared, by the rule
    of the module docstring.  Its two sides are built only when ``sides`` is
    true or it fails; the builder is called through its module global, so
    that a wrapper installed on that name sees every build.
    """
    entry = _IDENTITIES[tag]
    n, m, w1, w2 = args["n"], args.get("m", 1), args["w1"], args["w2"]
    verdicts = [held[0] for held in _verdicts(block, tag, [n], m, w1, w2)]
    readings = None
    if len(verdicts) > 1:
        readings = {name: held for (name, _, _), held in zip(entry.readings, verdicts)}
    lhs = rhs = first = None
    _, left, right = entry.readings[0]
    if not verdicts[0] and entry.reads != "h_n":
        h = _series_h(block, n, *_h_key(block, m, w1, w2, **left))
        other = _series_h(block, n, *_h_key(block, m, w2, w1, **right))
        r = max(r for r in range(n + 1) if h[r] != other[r])
        first = (0, n - r) if entry.reads == "xy" else (n - r, 0)
    if sides or not verdicts[0]:
        side = globals()[entry.side]
        head = (n, m) if "m" in args else (n,)
        lhs = side(block, *head, w1, w2, **left)
        rhs = side(block, *head, w2, w1, **right)
    holds = any(verdicts) if entry.any_reading else verdicts[0]
    return IdentityReport(tag, _params(block, **args), holds, lhs, rhs, first, readings)


def _eq_1_13_report(tag, block, args, sides) -> IdentityReport:
    """(xi^(nd) B_k(nd) - B_k) / k against the power sum T_(k-1)(nd - 1)."""
    k, nd = args["k"], args["n"] * block.chi.modulus
    spec = block.spec(1)
    shifted = as_cyclo(spec.xi**nd, spec.ambient.conductor) * bn.evaluate(bn.polynomial(spec, 1, k), nd)
    lhs = (shifted - bn.numbers(spec, 1, k)[k]) * Fraction(1, k)
    rhs = bn.power_sum(spec, k - 1, nd - 1)
    return IdentityReport(tag, _params(block, **args), lhs == rhs, lhs, rhs)


def _power_sum_series_report(tag, block, args, sides) -> IdentityReport:
    """The power-sum generating function built two ways, compared coefficient by coefficient."""
    lhs, rhs = bn.power_sum_series_check(block.spec(1), args["n"], args["series_order"])
    first = next((k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    return IdentityReport(tag, _params(block, **args), first is None, lhs, rhs, first)


def _check(tag, chi, xi, **args) -> IdentityReport:
    """The report, with sides, of one instance of ``tag`` on its own block, once args meet the minima."""
    entry = _IDENTITIES[tag]
    for key in entry.keys:
        if args[key.name] < key.minimum:
            raise ValueError("need " + ", ".join(f"{k.name} >= {k.minimum}" for k in entry.keys))
    return globals()[entry.report](tag, _Block(chi, xi), args, True)


def check_eq_1_13(chi, xi, k, n) -> IdentityReport:
    """Difference quotient of the degree-k polynomial at the shifted argument
    against the power sum: (xi^(nd) B_k(nd) - B_k) / k = T_(k-1)(nd - 1)."""
    return _check("eq_1_13", chi, xi, k=k, n=n)


def check_theorem1(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Order-m product formula, bivariate in x and y.

    Primary reading: the right side is the exact (w1, w2) swap of the left.
    The second reading ("expansion_literal") follows the printed swapped
    expansion, whose final factor keeps the twist of the unswapped side; it
    is reported but does not drive ``holds``.
    """
    return _check("theorem1", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_remark_m1(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1, y = 0 form of the product formula, expanded independently."""
    return _check("remark_m1", chi, xi, n=n, w1=w1, w2=w2)


def check_corollary2(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Numbers-only product formula (x = y = 0)."""
    return _check("corollary2", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_m1_numbers(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1 numbers identity: binomial pairing of numbers with power sums."""
    return _check("m1_numbers", chi, xi, n=n, w1=w1, w2=w2)


def check_theorem3(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Power-sum/polynomial relation with twist-weighted shifted arguments."""
    return _check("theorem3", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_remark_2_11(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1, y = 0 form of the shifted-argument relation, two readings.

    "weighted" keeps the twist factor on each shifted term, matching the
    m = 1 specialization of the general relation; "as_printed" drops it.
    ``holds`` is true when at least one reading holds; the stored sides are
    the weighted ones.
    """
    return _check("remark_2_11", chi, xi, n=n, w1=w1, w2=w2)


def check_corollary4(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Numbers-level shifted-argument relation (x = y = 0)."""
    return _check("corollary4", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_eq_2_12(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1 numbers form of the shifted-argument relation (weights kept)."""
    return _check("eq_2_12", chi, xi, n=n, w1=w1, w2=w2)


def check_power_sum_series(chi, xi, n, series_order) -> IdentityReport:
    """Wrap the power-sum generating-function comparison of two constructions."""
    return _check("power_sum_series_check", chi, xi, n=n, series_order=series_order)


# ---------------------------------------------------------------------------
# serialization of reports

def _side_to_json(side):
    """A field element, a matrix of row tuples or a series coefficient tuple as JSON."""
    if isinstance(side, CycloElem):
        return cyclo_to_json(side)
    if isinstance(side[0], tuple):  # a matrix: its first item is a row
        return {
            "deg_x": len(side) - 1,
            "deg_y": len(side[0]) - 1,
            "coeffs": [[cyclo_to_json(c) for c in row] for row in side],
        }
    return [cyclo_to_json(c) for c in side]


def report_to_record(rep: IdentityReport, include_sides: bool = False) -> dict:
    """JSON-ready record; sides are kept for failures or on request."""
    record = {
        "identity": rep.identity,
        "params": rep.params,
        "holds": rep.holds,
    }
    if rep.readings is not None:
        record["readings"] = rep.readings
    if rep.first_mismatch is not None:
        fm = rep.first_mismatch
        record["first_mismatch"] = list(fm) if isinstance(fm, tuple) else fm
    if rep.error is not None:
        record["error"] = rep.error
    elif include_sides or not rep.holds:
        record["lhs"] = _side_to_json(rep.lhs)
        record["rhs"] = _side_to_json(rep.rhs)
    return record


# ---------------------------------------------------------------------------
# grid sweeps

#: Minimum value of each grid key that lists instance values.
_LISTED_MINIMA = {key.grid: key.minimum for e in _IDENTITIES.values() for key in e.keys if key.grid}

_GRID_KEYS = {"identity", "d", "character", "xi", "n_max", *_LISTED_MINIMA}

#: Listed grid keys that set a series length (bounded by bn.MAX_SERIES_INDEX, as n_max is).
_SERIES_KEYS = ("k", "series_order")

#: Listed grid keys s that set a power sum over s d terms (bounded by bn.MAX_POWER_SUM_N).
_POWER_SUM_KEYS = ("w1", "w2", "shift", "n")

#: Most instances one sweep may expand to.  A sweep holds every record's
#: text until it ends, and verify its output too: about 0.75 KB an instance.
#: Ten acceptance grids and one m1_numbers grid (w1 1..71, w2 1..10, n_max
#: 49), 400 000 instances, about eleven times the acceptance grid's 36 450,
#: peaked at 297-300 MB RSS and took 8.5-9.8 s of CPU time through verify
#: at --jobs 1 (two runs, Python 3.11.7, x86-64).
MAX_INSTANCES = 400_000


def _grid_list(grid, key, kind, what) -> list:
    """grid[key] as a non-empty list of kind; a lone value of kind is a list of one.

    Each value's type must be kind exactly, so no bool passes for an int and
    no subclass (an IntEnum a caller passes) reaches the output.
    """
    if key not in grid:
        raise ConfigError(f"missing required key '{key}' in grid")
    val = grid[key]
    val = [val] if type(val) is kind else val
    if type(val) is not list or not val or not all(type(v) is kind for v in val):
        raise ConfigError(f"key '{key}' must be {what} or a non-empty list of them")
    return val


def _as_int_list(grid, key, minimum):
    val = _grid_list(grid, key, int, "an integer")
    if any(v < minimum for v in val):
        raise ConfigError(f"key '{key}' must hold integers >= {minimum}")
    return sorted(val)


def _key_values(tag, key: _Key, listed: dict, n_max):
    """The values of one instance key in a grid for ``tag``."""
    if key.grid in listed:
        return listed[key.grid]
    if key.default is not None:
        return key.default
    if n_max is None:
        either = f"'{key.grid}' or " if key.grid else ""
        raise ConfigError(f"grid for {tag} needs {either}'n_max'")
    if n_max < key.minimum:
        raise ConfigError(f"key 'n_max' must be >= {key.minimum} for {tag}")
    return range(key.minimum, n_max + 1)


def _resolve_characters(grid, d: int) -> tuple[DirichletCharacter, ...]:
    if grid.get("character", "all") == "all":
        try:
            return enumerate_cyclic(d)
        except NonCyclicUnitGroup as exc:
            raise ConfigError(f"character \"all\" needs a cyclic unit group: {exc}")
    specs = _grid_list(grid, "character", dict, '"all", an object')
    return tuple(character_from_json(s, d) for s in specs)


def _grid_axes(grid: dict) -> list:
    """(tag, axes) for each tag of one grid object, once every key is checked.

    The axes are the chi JSON, the xi JSON, then the values of the tag's
    table keys in table order; the tag's instances are their product.  A
    grid that would expand to no instance is a configuration error.
    """
    if not isinstance(grid, dict):
        raise ConfigError("each grid must be a JSON object")
    for key in grid:
        if key not in _GRID_KEYS:
            raise ConfigError(f"unknown key '{key}' in grid")
    tags = _grid_list(grid, "identity", str, "an identity tag")
    for tag in tags:
        if tag not in _IDENTITIES:
            raise ConfigError(f"unknown identity tag '{tag}' in key 'identity'")
    n_max = grid.get("n_max")
    if n_max is not None:
        bn.series_index(_json_int(n_max, "n_max", 0), "n_max")
    ds = _as_int_list(grid, "d", 1)
    modulus_from_json(ds[-1], "d")
    listed = {key: _as_int_list(grid, key, low) for key, low in _LISTED_MINIMA.items() if key in grid}
    for key in _SERIES_KEYS:
        if key in listed:
            bn.series_index(listed[key][-1], key)
    if "m" in listed:
        bn.family_order(listed["m"][-1], "m")
    chars = [character_to_json(chi) for d in ds for chi in _resolve_characters(grid, d)]
    for key in _POWER_SUM_KEYS:
        if key in listed:
            bn.power_sum_multiple(listed[key][-1], ds[-1], key)
    roots = [root_from_json(v) for v in _grid_list(grid, "xi", dict, "an object")]
    roots = [root_to_json(r) for r in sorted(roots, key=lambda r: (r.order, r.exponent))]
    return [(tag, [chars, roots, *(_key_values(tag, key, listed, n_max) for key in _IDENTITIES[tag].keys)])
            for tag in tags]


def expand_grid(grid: dict):
    """Yield instance descriptors for one grid object, in deterministic order.

    The order is tag, d, chi, xi, then the tag's table keys in table order.
    A sweep reads the same axes without descriptors (``_plan``), so nothing
    in the package calls this: it is the tests' reference for the expansion
    order, and perfbench's set-up probe and tracer call it.
    """
    for tag, axes in _grid_axes(grid):
        names = [key.name for key in _IDENTITIES[tag].keys]
        for chi, xi, *values in product(*axes):
            yield {"identity": tag, "chi": chi, "xi": xi, **dict(zip(names, values))}


def _plan(grids) -> tuple:
    """(instance count, blocks) of grids, read off each grid's axes once.

    A block is (``_source`` text, chi JSON, xi JSON, runs), in the order
    blocks first appear.  Each (grid, tag, chi, xi) is one run (start, size,
    tag, axes): the product of the tag's remaining axes, ``size`` instances
    from position ``start`` of the expansion order.
    """
    blocks, total = {}, 0
    for grid in grids:
        for tag, (chars, roots, *axes) in _grid_axes(grid):
            size = prod(map(len, axes))
            for chi in chars:
                for xi in roots:
                    source = _source(chi, xi)
                    blocks.setdefault(source, (source, chi, xi, []))[3].append((total, size, tag, axes))
                    total += size
    return total, list(blocks.values())


def run_instance(desc: dict) -> IdentityReport:
    """Run one instance descriptor through its identity's checker.

    A sweep does not call this (``_block_records`` reads its blocks):
    it is the tests' per-instance reference and a hook perfbench's tracer
    counts instances at.
    """
    entry = _IDENTITIES[desc["identity"]]
    chi, xi = character_from_json(desc["chi"]), root_from_json(desc["xi"])
    args = {key.name: desc[key.name] for key in entry.keys}
    return globals()[entry.checker](chi=chi, xi=xi, **args)


#: A record's pad in the verify output: a newline and the indentation of a
#: "reports" item.  Every record's text is made at this indentation, where
#: its verdict is read, so the output is the texts written one by one.
RECORD_PAD = "\n    "

#: Stand-in strings for the values a held swap record's text leaves open: an
#: instance value or verdict, and the block's chi and xi.
_OPEN, _CHI, _XI = "\x00", "\x01", "\x02"


def _held_template(tag, names, block, chi_text, xi_text) -> str:
    """The text of a held swap record of one run without sides, as a %-format.

    The open values are n, then m when ``names`` has it, the other names in
    order (w1, w2), then the verdict of each reading when there are several.
    The record is the one ``report_to_record`` makes, its open values and
    chi and xi stood in for by strings no encoded value holds, written once
    per run by the same encoder as every other record; chi_text and xi_text
    are the block's chi and xi at their indentation, written once per block.
    """
    params = {**_params(block, **dict.fromkeys(names, _OPEN)), "chi": _CHI, "xi": _XI}
    readings = [name for name, _, _ in _IDENTITIES[tag].readings]
    opened = dict.fromkeys(readings, _OPEN) if len(readings) > 1 else None
    rep = IdentityReport(tag, params, True, None, None, readings=opened)
    text = jsontext.text(report_to_record(rep), RECORD_PAD)
    text = text.replace(jsontext.scalar(_CHI), chi_text).replace(jsontext.scalar(_XI), xi_text)
    return text.replace("%", "%%").replace(jsontext.scalar(_OPEN), "%s")


def _block_records(plan_block, include_sides) -> tuple:
    """(texts, holds, errors) of one ``_plan`` block, run by run.

    Each text is one record's JSON at ``RECORD_PAD``; holds and errors count
    the records that hold and those that carry an error.  The block's chi and
    xi are parsed once into its ``_Block``, which lives as long as this call,
    and each run's axes are expanded in place.  Without sides, a swap run is
    decided once per (w1, w2, m): ``_verdicts`` reads every n of the run off
    H in one scan, and each held instance is the run's template
    (``_held_template``) filled with the texts of its values and verdicts,
    those of w1, w2 and m made once per pair and those of n once per run,
    with no report or dict of its own.  Any other record is its report's
    (its tag's report function on this block, called through its module
    global) made by ``report_to_record`` and encoded by ``jsontext.text``;
    so is every instance of a pair whose scan raised a package error, so
    that each one fails or holds as it would alone.  A package error raised
    inside one report fails that instance only.  Axes from ``_grid_axes``
    meet every minimum, so no instance is checked here.
    """
    _, chi_json, xi_json, runs = plan_block
    block = _Block(character_from_json(chi_json), root_from_json(xi_json))
    texts, holds, errors = [], 0, 0
    scalar = jsontext.scalar
    pad = RECORD_PAD + "    "  # a "params" item's
    chi_text, xi_text = jsontext.text(block.chi_json, pad), jsontext.text(block.xi_json, pad)

    def add(tag, args):  # the record of one instance's report
        nonlocal holds, errors
        try:
            rep = globals()[_IDENTITIES[tag].report](tag, block, args, include_sides)
            holds += rep.holds
        except TwistedBernoulliError as exc:
            rep = IdentityReport(tag, _params(block, **args), False, None, None, error=str(exc))
            errors += 1
        texts.append(jsontext.text(report_to_record(rep, include_sides), RECORD_PAD))

    for _, _, tag, axes in runs:
        entry = _IDENTITIES[tag]
        names = [key.name for key in entry.keys]
        if entry.side is None or include_sides:
            for values in product(*axes):
                add(tag, dict(zip(names, values)))
            continue
        held = _held_template(tag, names, block, chi_text, xi_text)
        ns = axes[-1]  # swap keys: w1, w2, m if a key, n
        n_texts = [scalar(n) for n in ns]
        for pair in product(*axes[:-1]):
            w1, w2, *m = pair
            try:
                verdicts = _verdicts(block, tag, ns, m[0] if m else 1, w1, w2)
            except TwistedBernoulliError:
                verdicts = None
            pair_texts = tuple(map(scalar, (*m, w1, w2)))
            for i, n in enumerate(ns):
                if verdicts is None or not verdicts[0][i]:
                    add(tag, dict(zip(names, (*pair, n))))
                    continue
                read = tuple(scalar(v[i]) for v in verdicts) if len(verdicts) > 1 else ()
                texts.append(held % (n_texts[i], *pair_texts, *read))
                holds += 1
    return texts, holds, errors


class WorkerTraceback(Exception):
    """The traceback, as text, of an exception raised in a forked sweep worker."""


def _fork_worker(share, include_sides) -> tuple:
    """Fork a worker that sweeps the blocks of share: (its pid, its pipe's read end as a file).

    The worker sweeps its whole share, then writes one pickle a block into
    the pipe, that block's ``_block_records`` result, or instead one pickle
    of the exception the sweep raised with its traceback's text.  It writes
    only once its share is swept, since the caller reads no pipe before its
    own share is done and a full pipe would stall the worker.  It leaves by
    ``os._exit``, so it never returns into its caller's code, with status 1
    if writing failed.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    status = 1
    try:
        import pickle  # pickle, traceback and signal: only a sweep that forks imports them

        os.close(read)
        try:
            parts = [_block_records(block, include_sides) for block in share]
        except BaseException as exc:  # reported to the caller, which raises it
            import traceback

            parts = [(exc, traceback.format_exc())]
        with open(write, "wb") as pipe:
            for part in parts:
                pickle.dump(part, pipe)
        status = 0
    finally:
        os._exit(status)


def _worker_parts(pipe) -> list:
    """Each ``_block_records`` result a worker wrote into pipe, read to EOF; closes pipe.

    An exception the worker wrote is raised here, with its type, from a
    ``WorkerTraceback`` that holds the worker's traceback.  A pickle cut
    short (a worker killed while writing) ends the reading like EOF.
    """
    import pickle

    parts = []
    with pipe:
        while True:
            try:
                part = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                return parts
            if isinstance(part[0], BaseException):
                raise part[0] from WorkerTraceback(part[1])
            parts.append(part)


def _sweep_blocks(blocks, include_sides, jobs) -> list:
    """The ``_block_records`` result of each block, in the order of blocks.

    With k = min(jobs, blocks) > 1 the blocks are cut into k fixed shares,
    blocks[i::k]: this process forks a worker for every share but the first
    (``_fork_worker``), sweeps the first itself, then reads each worker's
    results to EOF (``_worker_parts``) and reaps it.  A worker that ends
    with a nonzero status (killed by a signal, say) or with results missing
    is a RuntimeError.  If anything fails, this process's own share
    included, every worker not yet reaped is killed and reaped before the
    exception goes on, so no worker outlives the call.
    """
    k = min(jobs, len(blocks))
    if k < 2:
        return [_block_records(block, include_sides) for block in blocks]
    shares = [blocks[i::k] for i in range(k)]
    workers = []  # (pid, pipe) of each worker not yet reaped, in share order
    try:
        for share in shares[1:]:
            workers.append(_fork_worker(share, include_sides))
        parts = [None] * len(blocks)
        parts[0::k] = [_block_records(block, include_sides) for block in shares[0]]
        for i in range(1, k):
            pid, pipe = workers[0]
            got = _worker_parts(pipe)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[0]
            if code or len(got) != len(shares[i]):
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise RuntimeError(f"verify worker {pid} {how} after {len(got)} of {len(shares[i])} blocks")
            parts[i::k] = got
    except BaseException:
        import signal

        for pid, pipe in workers:
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)
        raise
    return parts


def sweep_text(grids, include_sides: bool = False, jobs: int = 1):
    """Run every instance of every grid; returns (texts, summary).

    ``texts`` holds each record's JSON text at ``RECORD_PAD``, in the
    deterministic expansion order.  Instances run grouped by the (chi, xi)
    blocks ``_plan`` reads off the grids' axes, across grids and tags, one
    ``_block_records`` call a block, so each block is built once per sweep;
    each run's texts go back to its place in the expansion order.  At
    ``jobs`` > 1 the blocks are cut into min(jobs, blocks) fixed shares of
    whole blocks, this process sweeps one and a forked worker each other
    (``_sweep_blocks``), so no two processes build the series of one block
    and no more processes run than there are blocks.  More than
    ``MAX_INSTANCES`` instances is a configuration error naming 'grids',
    raised before any instance runs.
    """
    if isinstance(grids, dict):
        grids = [grids]
    total, blocks = _plan(grids)
    if total > MAX_INSTANCES:
        raise ConfigError(f"key 'grids' expands to {total} instances, more than {MAX_INSTANCES}")
    parts = _sweep_blocks(blocks, include_sides, jobs)
    texts = [None] * total
    for (*_, runs), (block_texts, _, _) in zip(blocks, parts):
        done = 0
        for start, size, *_ in runs:
            texts[start : start + size] = block_texts[done : done + size]
            done += size
    holds = sum(part[1] for part in parts)
    errors = sum(part[2] for part in parts)
    return texts, {"total": total, "holds": holds, "failures": total - holds - errors, "errors": errors}


def sweep(grids, include_sides: bool = False, jobs: int = 1):
    """Run every instance of every grid; returns (records, summary).

    The records are the texts of ``sweep_text``, parsed: dicts in the
    expansion order, whose JSON is the verify output's "reports".
    """
    texts, summary = sweep_text(grids, include_sides, jobs)
    return [json.loads(text) for text in texts], summary
