"""Symbolic verification of the symmetry identities between power sums and
the generalized twisted Bernoulli numbers and polynomials of higher order.

Every checker expands both sides of one identity as an exact object, either
a bivariate polynomial in x and y (coefficients in the ambient cyclotomic
field) or a single field element, and compares them exactly: field elements
directly, polynomials by their coefficient matrices, which for the sides
below comes down to comparing coefficients of one series (see the end of
this docstring).  No sampling is involved in the verdict; random-point
evaluation exists only as a sanity cross-check in the test suite.

One table, ``_IDENTITIES``, describes each identity by its tag: instance
parameters with their minima, side builder, readings and verdict rule.  One
checker, ``_check_swap``, compares side(w1, w2) with side(w2, w1) for the
eight swap identities; grid expansion and instance dispatch read the same
table.  It names functions rather than holding them, so each call goes
through the module global.

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
(lead S / wa) F^(m-1) with lead = F^(m)_wa(wa t).  One block object
(``_Block``) holds the last (chi, xi) pair with its report JSON and
conductor, and holds H and each value it is built from, under a key naming
everything besides (chi, xi, conductor) that the value depends on:

* ("spec", w): the twist spec of chi and xi^w in the block's field;
* ("S", wa, wb, with_weights): S / wa, shared by every m;
* ("F", tw, k, w): F^(k)_tw(w t); the lead is (wa, m, wa) and the last
  factor (last twist, m - 1, wb);
* every twist weight (w of "spec", tw of "F", the last twist of "H") is
  named modulo the order of xi, so two keys never name one series;
* ("LS", m, wa, wb, with_weights): lead S / wa, shared by both readings of
  theorem1, which differ only in the last factor;
* ("H", m, wa, wb, last twist, with_weights): H itself, one series product
  over the shared values when m > 1;
* ("agree", key, key'): for two H keys (the five components above) in
  sorted order, a list whose entry r is whether the two series agree at
  index r;
* ("tables", tag, m, w1, w2): a (key, key', "agree" list) triple for each
  reading of one swap instance, shared by its every n.

Every series grows coefficient by coefficient (``powerseries.Series``): a
request for h_0..h_n computes only the coefficients of H and of its factors
that no earlier, smaller n has computed, so each block computes each
coefficient once, up to the largest n its instances ask for.

Sides are not kept: each is one slice or one scalar product of H.  A swap
reading compares the side of (w1, w2) with that of (w2, w1), so it compares
two H series, and its verdict is read off the block's "agree" list of that
unordered pair (``_agrees``): an x, y side or a y = 0 column holds iff
h_r = h'_r for every r <= n, and a scalar side n! h_n iff h_n = h'_n.  Each pair of H series is
compared once per block, up to the largest n asked for, and serves both
orders (w1, w2) and (w2, w1), every n and every identity reading that pair.
When w1 = w2 both sides read one H, so the verdict holds by construction
and that H is not built unless a side is read.
One function, ``_swap_report``, makes every swap report, for a sweep and a
``check_*`` call alike.  It reads the verdict of each reading off these
lists and builds the first reading's two sides only when they are printed
or that reading fails, for its first mismatch.  A sweep reads its blocks
off the grids' axes (``_plan``), parses each block's chi and xi once,
finds its ``_Block`` by those objects (``_block``), and makes each
record's JSON text where its verdict is read (``_records_for_chunk``): a
held swap instance without sides fills its run's template with the text of
its values and verdicts, and makes no report or dict; any other record is
its report's, made by ``report_to_record`` and encoded by
``jsontext.text``.  ``sweep`` parses the texts back into records.

Two identities are checked under two readings each (see the checker
docstrings), and a reading changes only the inputs of H.  The printed
swapped expansion of theorem1 ("expansion_literal") twists F^(m-1) by xi^wa
instead of xi^wb; remark_2_11 "as_printed" drops the weights xi^(wb i) from
S, which the m = 1 specialization of the general form carries.  Reports
carry the verdict of every reading.

A bivariate side is its filled matrix (``BivariatePoly.from_series``), yet
the verdict needs none: both sides of a swap share n and c = w1 w2, so entry
(a, b) of either is the same nonzero integer n!/(a! b!) c^(a+b) times its own
h_r, r = n - a - b, and every r <= n occurs, at (n - r, 0).  So the matrices
are equal iff the slices are, and only a failed reading's are scanned, for
the first mismatch in row-major order: (0, n - r*) with y, (n - r*, 0)
without, r* the largest index where the slices differ.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
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
from .exact import CycloElem, CycloField, RootOfUnity, as_cyclo, cyclo_to_json


# ---------------------------------------------------------------------------
# bivariate polynomials over one field

def _trimmed(field: CycloField, rows) -> tuple:
    """rows as a tuple matrix without trailing zero columns and rows; [[0]] if zero."""
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


class BivariatePoly:
    """Coefficient matrix rows[i][j] = coefficient of x^i y^j, trimmed.

    ``from_series`` fills it from a slice of a series H (module docstring).
    """

    __slots__ = ("field", "rows")

    def __init__(self, field: CycloField, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", _trimmed(field, rows))

    @classmethod
    def from_series(cls, field: CycloField, coeffs, c: int, with_y: bool = True) -> "BivariatePoly":
        """n! [t^n] H(t) e^(c (x + y) t) from coeffs = ([t^r] H for r <= n), c != 0.

        The coefficient of x^a y^b is n!/(a! b!) coeffs[r] c^(a+b) with
        r = n - a - b; with_y=False keeps only the y = 0 column.
        """
        if not c:
            raise ValueError("c must be nonzero")
        n = len(coeffs) - 1
        return cls(field, [
            [coeffs[n - a - b] * (factorial(n) // (factorial(a) * factorial(b)) * c ** (a + b))
             for b in range(n - a + 1 if with_y else 1)]
            for a in range(n + 1)
        ])

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    @property
    def deg_x(self) -> int:
        return len(self.rows) - 1

    @property
    def deg_y(self) -> int:
        return len(self.rows[0]) - 1

    def coeff(self, i: int, j: int) -> CycloElem:
        if i <= self.deg_x and j <= self.deg_y:
            return self.rows[i][j]
        return self.field.zero

    def first_mismatch(self, other: "BivariatePoly"):
        """Lexicographically first (i, j) where the matrices differ, or None."""
        dx = max(self.deg_x, other.deg_x)
        dy = max(self.deg_y, other.deg_y)
        for i in range(dx + 1):
            for j in range(dy + 1):
                if self.coeff(i, j) != other.coeff(i, j):
                    return (i, j)
        return None

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.field.conductor == other.field.conductor and self.rows == other.rows

    def __hash__(self):
        return hash((self.field.conductor, self.rows))

    def evaluate(self, x, y) -> CycloElem:
        fld = self.field
        if isinstance(x, (int, Fraction)):
            x = fld.rational(x)
        if isinstance(y, (int, Fraction)):
            y = fld.rational(y)
        acc = fld.zero
        for i in range(self.deg_x, -1, -1):
            rowval = fld.zero
            for j in range(self.deg_y, -1, -1):
                rowval = rowval * y + self.rows[i][j]
            acc = acc * x + rowval
        return acc

    def restrict_y0(self) -> "BivariatePoly":
        """The polynomial in x obtained by setting y = 0."""
        return BivariatePoly(self.field, [[r[0]] for r in self.rows])

    def __repr__(self):
        return f"BivariatePoly(m={self.field.conductor}, deg_x={self.deg_x}, deg_y={self.deg_y})"


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
    tags (``sweep``), so instances (w1, w2) and (w2, w1), every n and every
    tag of a block share its values.  ``values`` holds them under keys
    naming every argument besides chi, xi and the conductor that changes the
    value: twist specs, growing series and verdict lists, which only grow
    and are never changed otherwise, because they are shared.  A block is
    found by its objects only (``_block``).
    """

    __slots__ = ("chi", "xi", "chi_json", "xi_json", "order", "cond", "values")

    def __init__(self, chi: DirichletCharacter, xi: RootOfUnity):
        self.chi = chi
        self.xi = xi
        self.chi_json = character_to_json(chi)
        self.xi_json = root_to_json(xi)
        self.order = xi.normalized().order  # xi^w depends on w modulo this only
        self.cond = bn.ambient_conductor(chi, xi.normalized())
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
        w %= self.order
        return self.get(("spec", w), lambda: bn.twist_spec(self.chi, self.xi**w, conductor=self.cond))


# The last block only: a sweep runs the instances of each (chi, xi) block
# one after another, so memory stays bounded by one block.  Reports of
# one block share its JSON dicts.
_BLOCK: _Block | None = None


def _block(chi, xi) -> _Block:
    """The block of chi and xi, kept while the pair repeats.

    A pair repeats when chi is the same object and xi has the same order and
    exponent.  Equality would not do: RootOfUnity(2, 1) == RootOfUnity(4, 2),
    and equal characters given by tables may print different tables.
    """
    global _BLOCK
    last = _BLOCK
    if last is None or last.chi is not chi or (last.xi.order, last.xi.exponent) != (xi.order, xi.exponent):
        last = _BLOCK = _Block(chi, xi)
    return last


def _source(chi_json, xi_json) -> str:
    """The text a ``_plan`` block is known by: the ``repr`` of its (chi, xi) JSON pair."""
    return repr((chi_json, xi_json))


# ---------------------------------------------------------------------------
# the series H of one (wa, wb, m, reading), and its projections

def _scaled_numbers(block, tw, k, w) -> ps.Series:
    """F^(k)(w t), F^(k) the order-k series of the twist xi^tw: [t^r] times w^r.

    The twist is named by tw modulo the order of xi, as in ``_h_key``.
    """
    tw %= block.order

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
    return m, wa, wb, (wa if last_twist_wa and m > 1 else wb) % block.order, with_weights


def _side(tag, block, n, m, wa, wb, **reading):
    """The (wa, wb) side of a swap identity: the projection of H that ``tag`` reads."""
    h = _series_h(block, n, *_h_key(block, m, wa, wb, **reading))
    reads = _IDENTITIES[tag].reads
    if reads == "h_n":
        return h[n] * factorial(n)
    return BivariatePoly.from_series(h[0].field, h[: n + 1], wa * wb, with_y=reads == "xy")


def _agrees(block, left, right, equal, n, whole) -> bool:
    """Whether the H series of keys left and right agree at h_0..h_n (whole) or at n.

    ``equal`` is the block's "agree" list of the pair: ``equal[r]`` is
    h_r == h'_r, grown here to index n, with H read through the module
    global ``_series_h``.  Sides that read h_0..h_n (the x, y sides and the
    y = 0 columns) agree iff every index <= n does; a scalar side n! h_n
    agrees iff index n does, since n! != 0.  Two equal keys (w1 = w2, where
    every reading compares H with itself) name one series, which agrees
    with itself without being read.
    """
    have = len(equal)
    if n >= have:
        if left == right:
            equal += [True] * (n + 1 - have)
        else:
            a = _series_h(block, n, *left)
            b = _series_h(block, n, *right)
            equal += [x == y for x, y in zip(a[have:], b[have:])]
    return all(equal[: n + 1]) if whole else equal[n]


def _verdicts(block, tag, n, m, w1, w2) -> list:
    """Whether each reading of a swap instance holds, read off its block's lists.

    A reading compares the side of (w1, w2) with that of (w2, w1), so the
    H series of its two keys, at every index <= n, or at n alone for a
    scalar side n! h_n.  Each unordered pair of keys has one "agree" list
    in the block, and the block keeps the (key, key', list) triples of an
    instance's readings together, for every n of the instance.
    """
    entry = _IDENTITIES[tag]

    def tables():
        out = []
        for _, left_kw, right_kw in entry.readings:
            pair = sorted((_h_key(block, m, w1, w2, **left_kw), _h_key(block, m, w2, w1, **right_kw)))
            out.append((*pair, block.get(("agree", *pair), list)))
        return out

    whole = entry.reads != "h_n"
    return [_agrees(block, left, right, equal, n, whole)
            for left, right, equal in block.get(("tables", tag, m, w1, w2), tables)]


# ---------------------------------------------------------------------------
# side builders; (wa, wb) = (w1, w2) gives the left side, swapping gives the
# right side, so swap symmetry is structural

def _theorem1_side(n, m, chi, xi, wa, wb, last_twist_wa=False) -> BivariatePoly:
    return _side("theorem1", _block(chi, xi), n, m, wa, wb, last_twist_wa=last_twist_wa)


def _remark_m1_side(n, chi, xi, wa, wb) -> BivariatePoly:
    return _side("remark_m1", _block(chi, xi), n, 1, wa, wb)


def _corollary2_side(n, m, chi, xi, wa, wb) -> CycloElem:
    return _side("corollary2", _block(chi, xi), n, m, wa, wb)


def _m1_numbers_side(n, chi, xi, wa, wb) -> CycloElem:
    return _side("m1_numbers", _block(chi, xi), n, 1, wa, wb)


def _theorem3_side(n, m, chi, xi, wa, wb) -> BivariatePoly:
    return _side("theorem3", _block(chi, xi), n, m, wa, wb)


def _remark_2_11_side(n, chi, xi, wa, wb, with_weights) -> BivariatePoly:
    return _side("remark_2_11", _block(chi, xi), n, 1, wa, wb, with_weights=with_weights)


def _corollary4_side(n, m, chi, xi, wa, wb) -> CycloElem:
    return _side("corollary4", _block(chi, xi), n, m, wa, wb)


def _eq_2_12_side(n, chi, xi, wa, wb) -> CycloElem:
    return _side("eq_2_12", _block(chi, xi), n, 1, wa, wb)


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

    ``keys`` are in expansion order.  A reading is (name, left-side keywords,
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


_W1 = _Key("w1", 1, "w1", (1,))
_W2 = _Key("w2", 1, "w2", (1,))
_M = _Key("m", 1, "m", (1,))
_N = _Key("n", 0, None, None)

_IDENTITIES = {
    # eq_1_13 reports its shift as n, the name of its checker's argument
    "eq_1_13": _Identity("check_eq_1_13", (_Key("k", 1, "k", None), _Key("n", 1, "shift", (1,)))),
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
    ),
}

IDENTITY_TAGS = tuple(_IDENTITIES)


# ---------------------------------------------------------------------------
# reports and checkers

class IdentityReport(NamedTuple):
    """Outcome of one identity instance, its fields set when it is built.

    ``holds`` is the verdict of the primary reading; when a checker evaluates
    several readings their individual verdicts are in ``readings``.
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
    """The report of one swap instance of block, read off its verdict lists.

    Each side is a projection of an H series the block holds, so a reading
    holds iff its block's "agree" list for the pair of H series it compares
    (``_verdicts``) agrees at the indices its sides read.  The first reading
    decides ``holds``, unless any reading suffices.  The first reading's two
    sides are built only when ``sides`` is true or that reading fails, for
    its first mismatch; the builder is called through its module global, so
    that a wrapper installed on that name sees every build.
    """
    entry = _IDENTITIES[tag]
    n, m, w1, w2 = args["n"], args.get("m", 1), args["w1"], args["w2"]
    verdicts = _verdicts(block, tag, n, m, w1, w2)
    readings = None
    if len(verdicts) > 1:
        readings = {name: held for (name, _, _), held in zip(entry.readings, verdicts)}
    lhs = rhs = first = None
    if sides or not verdicts[0]:
        _, left, right = entry.readings[0]
        side = globals()[entry.side]
        head = (n, m) if "m" in args else (n,)
        lhs = side(*head, block.chi, block.xi, w1, w2, **left)
        rhs = side(*head, block.chi, block.xi, w2, w1, **right)
        if not verdicts[0] and isinstance(lhs, BivariatePoly):
            first = lhs.first_mismatch(rhs)
    holds = any(verdicts) if entry.any_reading else verdicts[0]
    return IdentityReport(tag, _params(block, **args), holds, lhs, rhs, first, readings)


def _check_swap(tag, chi, xi, **args) -> IdentityReport:
    """Compare side(w1, w2) with side(w2, w1) under each reading of ``tag``."""
    entry = _IDENTITIES[tag]
    for key in entry.keys:
        if args[key.name] < key.minimum:
            raise ValueError("need " + ", ".join(f"{k.name} >= {k.minimum}" for k in entry.keys))
    return _swap_report(tag, _block(chi, xi), args, sides=True)


def check_eq_1_13(chi, xi, k, n) -> IdentityReport:
    """Difference quotient of the degree-k polynomial at the shifted argument
    against the power sum: (xi^(nd) B_k(nd) - B_k) / k = T_(k-1)(nd - 1)."""
    if k < 1 or n < 1:
        raise ValueError("need k >= 1 and n >= 1")
    block = _block(chi, xi)
    spec = block.spec(1)
    d = chi.modulus
    fld = spec.ambient
    shifted = as_cyclo(spec.xi ** (n * d), fld.conductor) * bn.evaluate(
        bn.polynomial(spec, 1, k), n * d
    )
    lhs = (shifted - bn.numbers(spec, 1, k)[k]) * Fraction(1, k)
    rhs = bn.power_sum(spec, k - 1, n * d - 1)
    return IdentityReport("eq_1_13", _params(block, n=n, k=k), lhs == rhs, lhs, rhs)


def check_theorem1(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Order-m product formula, bivariate in x and y.

    Primary reading: the right side is the exact (w1, w2) swap of the left.
    The second reading ("expansion_literal") follows the printed swapped
    expansion, whose final factor keeps the twist of the unswapped side; it
    is reported but does not drive ``holds``.
    """
    return _check_swap("theorem1", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_remark_m1(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1, y = 0 form of the product formula, expanded independently."""
    return _check_swap("remark_m1", chi, xi, n=n, w1=w1, w2=w2)


def check_corollary2(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Numbers-only product formula (x = y = 0)."""
    return _check_swap("corollary2", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_m1_numbers(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1 numbers identity: binomial pairing of numbers with power sums."""
    return _check_swap("m1_numbers", chi, xi, n=n, w1=w1, w2=w2)


def check_theorem3(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Power-sum/polynomial relation with twist-weighted shifted arguments."""
    return _check_swap("theorem3", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_remark_2_11(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1, y = 0 form of the shifted-argument relation, two readings.

    "weighted" keeps the twist factor on each shifted term, matching the
    m = 1 specialization of the general relation; "as_printed" drops it.
    ``holds`` is true when at least one reading holds; the stored sides are
    the weighted ones.
    """
    return _check_swap("remark_2_11", chi, xi, n=n, w1=w1, w2=w2)


def check_corollary4(n, m, chi, xi, w1, w2) -> IdentityReport:
    """Numbers-level shifted-argument relation (x = y = 0)."""
    return _check_swap("corollary4", chi, xi, n=n, m=m, w1=w1, w2=w2)


def check_eq_2_12(n, chi, xi, w1, w2) -> IdentityReport:
    """m = 1 numbers form of the shifted-argument relation (weights kept)."""
    return _check_swap("eq_2_12", chi, xi, n=n, w1=w1, w2=w2)


def check_power_sum_series(chi, xi, n, series_order) -> IdentityReport:
    """Wrap the power-sum generating-function comparison of two constructions."""
    block = _block(chi, xi)
    lhs, rhs = bn.power_sum_series_check(block.spec(1), n, series_order)
    first = next((k for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b), None)
    params = _params(block, n=n, series_order=series_order)
    return IdentityReport("power_sum_series_check", params, first is None, lhs, rhs, first)


# ---------------------------------------------------------------------------
# serialization of reports

def _side_to_json(side):
    if isinstance(side, BivariatePoly):
        return {
            "deg_x": side.deg_x,
            "deg_y": side.deg_y,
            "coeffs": [[cyclo_to_json(c) for c in row] for row in side.rows],
        }
    if isinstance(side, CycloElem):
        return cyclo_to_json(side)
    return [cyclo_to_json(c) for c in side]  # series coefficient tuple


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
    return tuple(character_from_json(s, modulus=d) for s in specs)


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
    d_max = max(chi["modulus"] for chi in chars)  # a character spec may give its own modulus
    for key in _POWER_SUM_KEYS:
        if key in listed:
            bn.power_sum_multiple(listed[key][-1], d_max, key)
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

    A sweep does not call this (``_records_for_chunk`` reads its blocks):
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


def _records_for_chunk(chunk, include_sides) -> tuple:
    """(texts, holds, errors) of a chunk of ``_plan`` blocks, block by block, run by run.

    Each text is one record's JSON at ``RECORD_PAD``; holds and errors count
    the records that hold and those that carry an error.  Each block's chi
    and xi are parsed once, and each run's axes are expanded in place.  A held swap
    instance without sides is its run's template (``_held_template``) filled
    with the text of its values and verdicts, with no report or dict of its
    own.  Any other record is its report's (``_swap_report`` for a swap
    instance, its checker, called through its module global, for any other)
    made by ``report_to_record`` and encoded by ``jsontext.text``; a package
    error raised inside one instance fails that instance only.  Axes from
    ``_grid_axes`` meet every minimum, so no instance is checked here.
    """
    texts, holds, errors = [], 0, 0
    scalar = jsontext.scalar
    pad = RECORD_PAD + "    "  # a "params" item's
    for _, chi_json, xi_json, runs in chunk:
        block = _block(character_from_json(chi_json), root_from_json(xi_json))
        chi_text, xi_text = jsontext.text(block.chi_json, pad), jsontext.text(block.xi_json, pad)
        for _, _, tag, axes in runs:
            entry = _IDENTITIES[tag]
            names = [key.name for key in entry.keys]
            held = None
            if entry.side is not None and not include_sides:
                held = _held_template(tag, names, block, chi_text, xi_text)
            for values in product(*axes):
                try:
                    if held is not None:  # swap keys: w1, w2, m if a key, n
                        w1, w2, n = values[0], values[1], values[-1]
                        m = values[2] if len(values) == 4 else 1
                        verdicts = _verdicts(block, tag, n, m, w1, w2)
                        if verdicts[0]:
                            head = (n, m, w1, w2) if len(values) == 4 else (n, w1, w2)
                            if len(verdicts) > 1:  # a record prints several readings' verdicts
                                head += tuple(verdicts)
                            texts.append(held % tuple(map(scalar, head)))
                            holds += 1
                            continue
                    args = dict(zip(names, values))
                    if entry.side is None:
                        rep = globals()[entry.checker](chi=block.chi, xi=block.xi, **args)
                    else:
                        rep = _swap_report(tag, block, args, include_sides)
                except TwistedBernoulliError as exc:
                    args = dict(zip(names, values))
                    rep = IdentityReport(tag, _params(block, **args), False, None, None, error=str(exc))
                texts.append(jsontext.text(report_to_record(rep, include_sides), RECORD_PAD))
                if rep.error is not None:
                    errors += 1
                elif rep.holds:
                    holds += 1
    return texts, holds, errors


def _chunks(blocks, size: int) -> list:
    """``_plan`` blocks packed in order into chunks of at least ``size``
    instances (the last may hold fewer), so no block is split."""
    chunks, chunk, count = [], [], 0
    for block in blocks:
        if count >= size:
            chunks.append(chunk)
            chunk, count = [], 0
        chunk.append(block)
        count += sum(run[1] for run in block[3])
    if chunk:
        chunks.append(chunk)
    return chunks


def sweep_text(grids, include_sides: bool = False, jobs: int = 1):
    """Run every instance of every grid; returns (texts, summary).

    ``texts`` holds each record's JSON text at ``RECORD_PAD``, in the
    deterministic expansion order.  Instances run grouped by the (chi, xi)
    blocks ``_plan`` reads off the grids' axes, across grids and tags, in the
    order in which blocks first appear, so each block is built once per
    sweep; each run's texts go back to its place in the expansion order at
    any number of worker processes.  Each worker is handed whole blocks,
    about eight chunks per worker, so no two workers build the series of one
    block, and sends back texts and counts; no more workers start than there
    are chunks.  More than ``MAX_INSTANCES`` instances is a configuration
    error naming 'grids', raised before any instance runs.
    """
    if isinstance(grids, dict):
        grids = [grids]
    total, blocks = _plan(grids)
    if total > MAX_INSTANCES:
        raise ConfigError(f"key 'grids' expands to {total} instances, more than {MAX_INSTANCES}")
    chunks = _chunks(blocks, max(1, total // (jobs * 8))) if jobs > 1 else [blocks]
    if len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # a forking pool starts all its workers at once: none beyond the chunks
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            parts = list(pool.map(_records_for_chunk, chunks, repeat(include_sides)))
    else:
        parts = [_records_for_chunk(blocks, include_sides)]
    results = [text for chunk_texts, _, _ in parts for text in chunk_texts]
    texts, done = [None] * total, 0
    for *_, runs in blocks:
        for start, size, *_ in runs:
            texts[start : start + size] = results[done : done + size]
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
