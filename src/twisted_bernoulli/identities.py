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
* ("LS", m, wa, wb, with_weights): lead S / wa, shared by both readings of
  theorem1, which differ only in the last factor;
* ("H", m, wa, wb, last twist, with_weights): H itself, one series product
  over the shared values when m > 1;
* ("agree", key, key'): for two H keys (the five components above) in
  sorted order, whether the two series agree, index by index.

Every series grows coefficient by coefficient (``powerseries.Series``): a
request for h_0..h_n computes only the coefficients of H and of its factors
that no earlier, smaller n has computed, so each block computes each
coefficient once, up to the largest n its instances ask for.

Sides are not kept: each is one slice or one scalar product of H.  A swap
reading compares the side of (w1, w2) with that of (w2, w1), so it compares
two H series, and its verdict is read off the block's "agree" table of that
unordered pair: an x, y side or a y = 0 column holds iff h_r = h'_r for every
r <= n, and a scalar side n! h_n iff h_n = h'_n.  Each pair of H series is
compared once per block, up to the largest n asked for, and serves both
orders (w1, w2) and (w2, w1), every n and every identity reading that pair.
When w1 = w2 both sides read one H, so the verdict holds by construction
and that H is not built unless a side is read.
Sides are built only for a reading that fails, for its first mismatch and
printed sides, or when a report's sides are read.

Two identities are checked under two readings each (see the checker
docstrings), and a reading changes only the inputs of H.  The printed
swapped expansion of theorem1 ("expansion_literal") twists F^(m-1) by xi^wa
instead of xi^wb; remark_2_11 "as_printed" drops the weights xi^(wb i) from
S, which the m = 1 specialization of the general form carries.  Reports
carry the verdict of every reading.

A bivariate side keeps its slice h_0..h_n of H and fills its matrix only
when read, for output or by a caller.  The verdict needs no matrix: both
sides of a swap share n and c = w1 w2, so entry (a, b) of either is the same
nonzero integer n!/(a! b!) c^(a+b) times its own coefficient of index
r = n - a - b, and every r <= n occurs, at (n - r, 0).  The matrices are
equal iff the slices are, and the first mismatch in row-major order is
(0, n - r*) for the x, y sides and (n - r*, 0) for the y = 0 sides, r* the
largest index where the slices differ (``BivariatePoly.first_mismatch``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import NamedTuple

from . import bernoulli as bn
from . import powerseries as ps
from .characters import (
    DirichletCharacter,
    _json_int,
    character_from_json,
    character_to_json,
    enumerate_cyclic,
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

    ``from_series`` makes a polynomial n! [t^n] H(t) e^(c (x + y) t) that
    keeps only the slice h_0..h_n of H it is read from and fills its matrix
    the first time ``rows`` is read.  Two such polynomials with equal n, c,
    layout and field are compared on their slices (``first_mismatch``).
    """

    __slots__ = ("field", "_rows", "_series")

    def __init__(self, field: CycloField, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_rows", _trimmed(field, rows))
        object.__setattr__(self, "_series", None)

    @classmethod
    def from_series(cls, field: CycloField, coeffs, c: int, with_y: bool = True) -> "BivariatePoly":
        """n! [t^n] H(t) e^(c (x + y) t) from coeffs = ([t^r] H for r <= n), c != 0.

        The coefficient of x^a y^b is n!/(a! b!) coeffs[r] c^(a+b) with
        r = n - a - b; with_y=False keeps only the y = 0 column.
        """
        if not c:
            raise ValueError("c must be nonzero")
        obj = object.__new__(cls)
        object.__setattr__(obj, "field", field)
        object.__setattr__(obj, "_rows", None)
        object.__setattr__(obj, "_series", (tuple(coeffs), c, with_y))
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            coeffs, c, with_y = self._series
            n = len(coeffs) - 1
            mat = [[self.field.zero] * (n + 1) for _ in range(n + 1)]
            for a in range(n + 1):
                for b in range(n - a + 1 if with_y else 1):
                    mat[a][b] = coeffs[n - a - b] * (factorial(n) // (factorial(a) * factorial(b)) * c ** (a + b))
            object.__setattr__(self, "_rows", _trimmed(self.field, mat))
        return self._rows

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
        """Lexicographically first (i, j) where the matrices differ, or None.

        Two polynomials read off slices with equal n, c, layout and field are
        compared on the slices, without filling the matrices: r* the largest
        index where the slices differ gives (0, n - r*) with y and
        (n - r*, 0) without (see the module docstring).
        """
        mine, theirs = self._series, other._series
        if (
            mine is not None and theirs is not None and self.field == other.field
            and len(mine[0]) == len(theirs[0]) and mine[1:] == theirs[1:]
        ):
            a, b = mine[0], theirs[0]
            if a == b:
                return None
            n = len(a) - 1
            r = next(r for r in range(n, -1, -1) if a[r] != b[r])
            return (0, n - r) if mine[2] else (n - r, 0)
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
    base = bn.polynomial(spec, k, degree).coeffs
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
    value: twist specs, growing series and verdict tables, which only grow
    and are never changed otherwise, because they are shared.  ``source`` is
    the repr of the (chi, xi) JSON pair it was parsed from, or None when a
    checker was called with the objects themselves.
    """

    __slots__ = ("chi", "xi", "chi_json", "xi_json", "cond", "source", "values")

    def __init__(self, chi: DirichletCharacter, xi: RootOfUnity, source=None):
        self.chi = chi
        self.xi = xi
        self.chi_json = character_to_json(chi)
        self.xi_json = root_to_json(xi)
        self.cond = bn.ambient_conductor(chi, xi.normalized())
        self.source = source
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
        return self.get(("spec", w), lambda: bn.twist_spec(self.chi, self.xi**w, conductor=self.cond))


# The last block only: a sweep visits each (chi, xi) block in one run of
# consecutive instances, so memory stays bounded by one block.  Reports of
# one block share its JSON dicts; a report that held keeps its block until
# its sides are read.
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
    """The text a block is known by: the ``repr`` of its (chi, xi) JSON pair."""
    return repr((chi_json, xi_json))


def _parse(chi_json, xi_json) -> _Block:
    """The block of a descriptor's chi and xi, parsed again only when their JSON changes.

    The JSON is compared by its ``repr`` text, so types count: True is not 1,
    1.0 is not 1.  That costs half a ``json.dumps``.  The objects' identity
    alone would not do: a dict edited in place is the same object.
    """
    global _BLOCK
    source = _source(chi_json, xi_json)
    last = _BLOCK
    if last is None or last.source != source:
        last = _BLOCK = _Block(character_from_json(chi_json), root_from_json(xi_json), source)
    return last


# ---------------------------------------------------------------------------
# the series H of one (wa, wb, m, reading), and its projections

def _scaled_numbers(block, tw, k, w) -> ps.Series:
    """F^(k)(w t), F^(k) the order-k series of the twist xi^tw: [t^r] times w^r."""

    def build():
        fam = bn.family_series(block.spec(tw), k)
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
        return ps.product(_scaled_numbers(block, wa, m, wa), _s_factor(block, wa, wb, with_weights))

    def build():
        h = block.get(("LS", m, wa, wb, with_weights), lead_s)
        if m > 1:  # F^(0) = 1
            h = ps.product(h, _scaled_numbers(block, last_w, m - 1, wb))
        return h

    return block.get(("H", m, wa, wb, last_w, with_weights), build).coeffs(n)


def _xy_poly(coeffs, n, c, with_y=True) -> BivariatePoly:
    """n! [t^n] H(t) e^(c (x + y) t), from the ordinary coefficients of H.

    The field is that of the coefficients; the matrix is filled only when
    read (``BivariatePoly.from_series``).
    """
    return BivariatePoly.from_series(coeffs[0].field, coeffs[: n + 1], c, with_y)


def _h_key(m, wa, wb, last_twist_wa=False, with_weights=True) -> tuple:
    """The arguments (m, wa, wb, last twist, with_weights) of the H a side reads.

    A reading's side keywords choose the last twist (xi^wa instead of xi^wb)
    and whether S keeps its weights; F^(0) = 1 carries no twist.
    """
    return m, wa, wb, wa if last_twist_wa and m > 1 else wb, with_weights


def _side(tag, block, n, m, wa, wb, **reading):
    """The (wa, wb) side of a swap identity: the projection of H that ``tag`` reads."""
    h = _series_h(block, n, *_h_key(m, wa, wb, **reading))
    reads = _IDENTITIES[tag].reads
    if reads == "h_n":
        return h[n] * factorial(n)
    return _xy_poly(h, n, wa * wb, with_y=reads == "xy")


class _Agreement:
    """Whether two H series of one block agree, index by index.

    ``equal[r]`` is h_r == h'_r, grown to the largest n asked for; H is read
    through the module global ``_series_h``.  Sides that read h_0..h_n (the
    x, y sides and the y = 0 columns) agree iff every index <= n does; a
    scalar side n! h_n agrees iff index n does, since n! != 0.  Two equal
    keys (w1 = w2, where every reading compares H with itself) name one
    series, which agrees with itself without being read.
    """

    __slots__ = ("left", "right", "equal")

    def __init__(self, left, right):
        self.left, self.right = left, right
        self.equal = []

    def holds(self, block, n, whole) -> bool:
        """Whether the sides of block that read h_0..h_n (whole) or n! h_n agree.

        The block is passed, not kept: a table the block holds must not
        hold the block, or the block would outlive its turn in a sweep until
        the cyclic garbage collector ran.
        """
        have = len(self.equal)
        if n >= have:
            if self.right == self.left:  # one series: equal by construction, read none
                self.equal += [True] * (n + 1 - have)
            else:
                a = _series_h(block, n, *self.left)
                b = _series_h(block, n, *self.right)
                self.equal += [x == y for x, y in zip(a[have:], b[have:])]
        return all(self.equal[: n + 1]) if whole else self.equal[n]

    def __eq__(self, other):
        if not isinstance(other, _Agreement):
            return NotImplemented
        return (self.left, self.right, self.equal) == (other.left, other.right, other.equal)


def _agreement(block, left, right) -> _Agreement:
    """The block's table for the unordered pair of H keys (left, right)."""
    pair = (left, right) if left <= right else (right, left)
    return block.get(("agree",) + pair, lambda: _Agreement(*pair))


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

@dataclass
class IdentityReport:
    """Outcome of one identity instance.

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


def _params(block, **args) -> dict:
    """Report parameters: n and m, then d, chi and xi, then the other args in order."""
    params = {key: args.pop(key) for key in ("n", "m") if key in args}
    params.update(d=block.chi.modulus, chi=block.chi_json, xi=block.xi_json)
    params.update(args)
    return params


def _compare(identity, params, lhs, rhs) -> IdentityReport:
    """Report whether lhs equals rhs, with the first differing entry of two polynomials.

    Sides read off slices of H are compared on the slices, without filling
    their matrices (module docstring); the verdict and mismatch are those
    of the matrices.
    """
    if isinstance(lhs, BivariatePoly):
        mismatch = lhs.first_mismatch(rhs)
        equal = mismatch is None
    else:
        equal = lhs == rhs
        mismatch = None
    return IdentityReport(
        identity=identity,
        params=params,
        holds=equal,
        lhs=lhs,
        rhs=rhs,
        first_mismatch=mismatch,
    )


class _HeldReport(IdentityReport):
    """A report that held by its block's verdict table.

    Its sides are built from that block the first time ``lhs`` or ``rhs``
    is read, so a sweep that prints no sides builds none.
    """

    def __init__(self, identity, params, sides):
        self.identity, self.params, self.holds = identity, params, True
        self.first_mismatch = self.readings = self.error = None
        self._sides = sides  # () -> (lhs, rhs), until first read

    def _built(self):
        if callable(self._sides):
            self._sides = self._sides()
        return self._sides

    @property
    def lhs(self):
        return self._built()[0]

    @property
    def rhs(self):
        return self._built()[1]


def _check_swap(tag, chi, xi, **args) -> IdentityReport:
    """Compare side(w1, w2) with side(w2, w1) under each reading of ``tag``.

    Each side is a projection of an H series the block holds, so a reading
    holds iff its block's table (``_Agreement``) for the pair of H series it
    compares agrees at the indices its sides read.  A reading that holds
    builds no side; its report builds them when they are read.  A reading
    that fails goes through the side builders and ``_compare``, which give
    its verdict, first mismatch and printed sides; the builders are called
    through their module globals, so that a wrapper installed on those names
    sees every build.
    """
    entry = _IDENTITIES[tag]
    for key in entry.keys:
        if args[key.name] < key.minimum:
            raise ValueError("need " + ", ".join(f"{k.name} >= {k.minimum}" for k in entry.keys))
    n, m, w1, w2 = args["n"], args.get("m", 1), args["w1"], args["w2"]
    block = _block(chi, xi)
    params = _params(block, **args)
    whole = entry.reads != "h_n"
    reps = []
    for _, left, right in entry.readings:
        if _agreement(block, _h_key(m, w1, w2, **left), _h_key(m, w2, w1, **right)).holds(block, n, whole):
            reps.append(_HeldReport(tag, params, lambda left=left, right=right: (
                _side(tag, block, n, m, w1, w2, **left), _side(tag, block, n, m, w2, w1, **right)
            )))
        else:
            side = globals()[entry.side]
            head = (n, m) if "m" in args else (n,)
            lhs, rhs = side(*head, chi, xi, w1, w2, **left), side(*head, chi, xi, w2, w1, **right)
            reps.append(_compare(tag, params, lhs, rhs))
    rep = reps[0]
    if len(reps) > 1:
        rep.readings = {name: r.holds for (name, _, _), r in zip(entry.readings, reps)}
        if entry.any_reading:
            rep.holds = any(rep.readings.values())
    return rep


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
    lhs = (shifted - bn.numbers(spec, 1, k).numbers[k]) * Fraction(1, k)
    rhs = bn.power_sum(spec, k - 1, n * d - 1)
    return _compare("eq_1_13", _params(block, n=n, k=k), lhs, rhs)


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
    rep = bn.power_sum_series_check(block.spec(1), n, series_order)
    params = _params(block, n=n, series_order=series_order)
    return IdentityReport(
        identity="power_sum_series_check",
        params=params,
        holds=rep.holds,
        lhs=rep.lhs,
        rhs=rep.rhs,
        first_mismatch=rep.first_mismatch,
    )


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


def _grid_list(grid, key, kind, what) -> list:
    """grid[key] as a non-empty list of kind; a lone value of kind is a list of one."""
    if key not in grid:
        raise ConfigError(f"missing required key '{key}' in grid")
    val = grid[key]
    val = [val] if isinstance(val, kind) else val
    if not isinstance(val, list) or not val or not all(
        isinstance(v, kind) and not isinstance(v, bool) for v in val
    ):
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


def _resolve_characters(grid, d: int) -> list[DirichletCharacter]:
    if grid.get("character", "all") == "all":
        try:
            return enumerate_cyclic(d)
        except NonCyclicUnitGroup as exc:
            raise ConfigError(f"character \"all\" needs a cyclic unit group: {exc}")
    specs = _grid_list(grid, "character", dict, '"all", an object')
    return [character_from_json(s, modulus=d) for s in specs]


def expand_grid(grid: dict):
    """Yield instance descriptors for one grid object, in deterministic order.

    The order is tag, d, chi, xi, then the tag's table keys in table order.
    A grid that would expand to no instance is a configuration error.
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
    listed = {key: _as_int_list(grid, key, low) for key, low in _LISTED_MINIMA.items() if key in grid}
    for key in _SERIES_KEYS:
        if key in listed:
            bn.series_index(listed[key][-1], key)
    if "m" in listed:
        bn.family_order(listed["m"][-1], "m")
    chars = [character_to_json(chi) for d in ds for chi in _resolve_characters(grid, d)]
    roots = [root_from_json(v) for v in _grid_list(grid, "xi", dict, "an object")]
    roots = [root_to_json(r) for r in sorted(roots, key=lambda r: (r.order, r.exponent))]
    for tag in tags:
        keys = _IDENTITIES[tag].keys
        names = [key.name for key in keys]
        axes = [_key_values(tag, key, listed, n_max) for key in keys]
        for chi, xi, *values in product(chars, roots, *axes):
            yield {"identity": tag, "chi": chi, "xi": xi, **dict(zip(names, values))}


def _instance(desc: dict):
    """(table entry, block, checker keywords) of one instance descriptor."""
    entry = _IDENTITIES[desc["identity"]]
    args = {key.name: desc[key.name] for key in entry.keys}
    return entry, _parse(desc["chi"], desc["xi"]), args


def run_instance(desc: dict) -> IdentityReport:
    """Run one instance descriptor through its identity's checker."""
    entry, block, args = _instance(desc)
    return globals()[entry.checker](chi=block.chi, xi=block.xi, **args)


def _record_for_instance(payload) -> dict:
    desc, include_sides = payload
    try:
        rep = run_instance(desc)
    except TwistedBernoulliError as exc:  # a package error fails this instance only
        _, block, args = _instance(desc)
        rep = IdentityReport(
            identity=desc["identity"], params=_params(block, **args), holds=False,
            lhs=None, rhs=None, error=str(exc),
        )
    return report_to_record(rep, include_sides)


def _records_for_chunk(chunk) -> list:
    return [_record_for_instance(payload) for payload in chunk]


def _chunks(payloads, size: int) -> list:
    """payloads cut into runs of at least ``size`` (the last may be shorter),
    each ending only where the (chi, xi) JSON changes, so no block is split.

    The JSON is compared as ``_parse`` compares it; payloads that hold the
    very same chi and xi objects as the one before need no ``repr``.
    """
    chunks, chunk = [], []
    chi = xi = source = None
    for payload in payloads:
        desc = payload[0]
        if desc["chi"] is not chi or desc["xi"] is not xi:
            chi, xi = desc["chi"], desc["xi"]
            last, source = source, _source(chi, xi)
            if len(chunk) >= size and source != last:
                chunks.append(chunk)
                chunk = []
        chunk.append(payload)
    if chunk:
        chunks.append(chunk)
    return chunks


def _block_order(payloads) -> list:
    """Indices of payloads, stably grouped by the first appearance of their block.

    The block of a payload is the ``_source`` text of its (chi, xi) JSON, as
    ``_parse`` sees it; each distinct pair of chi and xi objects is turned
    into text once.
    """
    groups, sources = {}, {}
    for i, (desc, _) in enumerate(payloads):
        chi, xi = desc["chi"], desc["xi"]
        ident = (id(chi), id(xi))  # payloads keep chi and xi alive: ids are not reused
        source = sources.get(ident)
        if source is None:
            source = sources[ident] = _source(chi, xi)
        groups.setdefault(source, []).append(i)
    return [i for group in groups.values() for i in group]


def sweep(grids, include_sides: bool = False, jobs: int = 1):
    """Run every instance of every grid; returns (records, summary).

    Instances run grouped by (chi, xi) block, across grids and tags, in the
    order in which blocks first appear, so each block is built once per
    sweep; records are put back in the deterministic expansion order
    regardless of the number of worker processes.  Each worker is handed
    whole blocks, about eight chunks per worker, so no two workers build the
    series of one block.
    """
    if isinstance(grids, dict):
        grids = [grids]
    instances = []
    for grid in grids:
        instances.extend(expand_grid(grid))
    payloads = [(desc, include_sides) for desc in instances]
    order = _block_order(payloads)
    grouped = [payloads[i] for i in order]
    if jobs > 1 and len(payloads) > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunks = _chunks(grouped, max(1, len(payloads) // (jobs * 8)))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = [rec for recs in pool.map(_records_for_chunk, chunks) for rec in recs]
    else:
        results = [_record_for_instance(p) for p in grouped]
    records = [None] * len(results)
    for i, rec in zip(order, results):
        records[i] = rec
    summary = {
        "total": len(records),
        "holds": sum(1 for r in records if r["holds"]),
        "failures": sum(1 for r in records if not r["holds"] and "error" not in r),
        "errors": sum(1 for r in records if "error" in r),
    }
    return records, summary
