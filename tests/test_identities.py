import json
import random
from enum import IntEnum
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from twisted_bernoulli import _kernel
from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import identities as idn
from twisted_bernoulli.characters import (
    character_from_json,
    character_to_json,
    enumerate_cyclic,
    from_table,
    principal,
    root_from_json,
    root_to_json,
)
from twisted_bernoulli.errors import ConfigError, NotMultiplicative
from twisted_bernoulli.exact import RootOfUnity, cyclo_field

import _oracles
from _oracles import bernoulli_recurrence, classical_poly_at, cyclo_from_json, evaluate, restrict_y0

ONE = RootOfUnity(1, 0)
MINUS = RootOfUnity(2, 1)
P1 = principal(1)
LEG3 = from_table(3, [0, 1, -1])
CHI4 = from_table(4, [0, 1, 0, -1])


def rational_rows(poly):
    return [[c.rational_value() for c in row] for row in poly]


# --- eq_1_13 -----------------------------------------------------------------

def test_eq_1_13_classical_worked_example():
    rep = idn.check_eq_1_13(P1, ONE, 2, 3)
    assert rep.holds
    # frozen via direct arithmetic: (B_2(3) - B_2)/2 = 3 = 0 + 1 + 2
    assert rep.lhs.rational_value() == 3
    assert (classical_poly_at(2, 3) - bernoulli_recurrence(2)[2]) / 2 == 3


def test_eq_1_13_convention_anchor():
    rep = idn.check_eq_1_13(P1, ONE, 1, 1)
    assert rep.holds
    assert rep.lhs.rational_value() == 1  # T_0(0) = 0^0 = 1


def test_eq_1_13_twisted():
    rep = idn.check_eq_1_13(CHI4, MINUS, 3, 2)
    assert rep.holds


# --- theorem1 ----------------------------------------------------------------

def test_theorem1_swap_trivial():
    rep = idn.check_theorem1(4, 2, LEG3, RootOfUnity(3, 1), 2, 2)
    assert rep.holds
    assert rep.first_mismatch is None


def test_theorem1_hand_expanded_instance():
    # frozen from the brute-force bivariate oracle: both sides 2x + 2y - 1/2
    rep = idn.check_theorem1(1, 1, P1, ONE, 1, 2)
    assert rep.holds
    assert rational_rows(rep.lhs) == [[Fraction(-1, 2), 2], [2, 0]]
    assert rational_rows(rep.rhs) == rational_rows(rep.lhs)


def test_theorem1_generic_with_random_point_crosscheck():
    rep = idn.check_theorem1(4, 2, LEG3, MINUS, 2, 3)
    assert rep.holds
    rng = random.Random(21)
    for _ in range(5):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        assert evaluate(rep.lhs, x, y) == evaluate(rep.rhs, x, y)


def test_theorem1_readings_reported():
    xi = RootOfUnity(9, 1)
    rep = idn.check_theorem1(3, 2, LEG3, xi, 1, 2)
    assert rep.readings == {"symmetric": True, "expansion_literal": False}
    assert rep.holds is rep.readings["symmetric"]
    # a checker's report carries the sides of its first reading
    block = idn._Block(LEG3, xi)
    assert (rep.lhs, rep.rhs) == (idn._theorem1_side(block, 3, 2, 1, 2), idn._theorem1_side(block, 3, 2, 2, 1))
    assert rep.first_mismatch is None


def test_theorem1_literal_reading_fails_where_twists_differ():
    # the printed swapped expansion keeps the unswapped twist in its final
    # factor; with a twist of order 9 and w1 != w2 the sides cannot agree
    rep = idn.check_theorem1(4, 2, P1, RootOfUnity(9, 1), 1, 2)
    assert rep.readings["symmetric"] is True
    assert rep.readings["expansion_literal"] is False


# --- remark_m1 and specialization coherence ------------------------------------

def test_remark_m1_matches_hand_instance():
    rep = idn.check_remark_m1(1, P1, ONE, 1, 2)
    assert rep.holds
    assert rational_rows(rep.lhs) == [[Fraction(-1, 2)], [2]]


def test_remark_m1_identical_sides_when_w_equal():
    rep = idn.check_remark_m1(5, CHI4, RootOfUnity(4, 1), 1, 1)
    assert rep.holds
    assert rep.lhs == rep.rhs


def test_remark_m1_n0_computed_truth():
    rep = idn.check_remark_m1(0, P1, ONE, 2, 3)
    assert rep.holds  # both sides reduce to w^(-1) T_0(w - 1) = 1


def test_theorem1_m1_y0_agrees_with_remark_m1():
    for (chi, xi) in ((P1, ONE), (LEG3, MINUS), (CHI4, RootOfUnity(4, 1))):
        for w1, w2 in ((1, 2), (2, 3), (3, 1)):
            for n in range(5):
                whole = idn.check_theorem1(n, 1, chi, xi, w1, w2)
                restricted = restrict_y0(whole.lhs), restrict_y0(whole.rhs)
                remark = idn.check_remark_m1(n, chi, xi, w1, w2)
                assert restricted[0] == remark.lhs
                assert restricted[1] == remark.rhs


# --- corollary2 / m1_numbers -----------------------------------------------------

def test_corollary2_swap_trivial():
    assert idn.check_corollary2(6, 3, CHI4, RootOfUnity(3, 1), 2, 2).holds


def test_corollary2_generic():
    assert idn.check_corollary2(5, 2, LEG3, RootOfUnity(4, 1), 2, 3).holds


def test_corollary2_equals_theorem1_constant_term():
    for n in range(4):
        whole = idn.check_theorem1(n, 2, LEG3, MINUS, 1, 3)
        scalar = idn.check_corollary2(n, 2, LEG3, MINUS, 1, 3)
        assert whole.lhs[0][0] == scalar.lhs
        assert whole.rhs[0][0] == scalar.rhs


def test_m1_numbers_cases():
    assert idn.check_m1_numbers(4, P1, ONE, 2, 2).holds
    assert idn.check_m1_numbers(6, P1, ONE, 1, 2).holds
    assert idn.check_m1_numbers(5, CHI4, RootOfUnity(4, 1), 2, 3).holds


# --- theorem3 family ---------------------------------------------------------------

def test_theorem3_swap_trivial():
    assert idn.check_theorem3(3, 2, principal(2), RootOfUnity(4, 1), 3, 3).holds


def test_theorem3_generic_with_point_crosscheck():
    rep = idn.check_theorem3(3, 2, principal(2), RootOfUnity(4, 1), 1, 3)
    assert rep.holds
    rng = random.Random(5)
    for _ in range(5):
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert evaluate(rep.lhs, x, y) == evaluate(rep.rhs, x, y)


def test_theorem3_m1_y0_agrees_with_remark_2_11_weighted():
    for (chi, xi) in ((P1, ONE), (P1, RootOfUnity(3, 1)), (CHI4, MINUS)):
        for w1, w2 in ((1, 2), (2, 3)):
            for n in range(4):
                whole = idn.check_theorem3(n, 1, chi, xi, w1, w2)
                remark = idn.check_remark_2_11(n, chi, xi, w1, w2)
                assert restrict_y0(whole.lhs) == remark.lhs
                assert restrict_y0(whole.rhs) == remark.rhs


def test_remark_2_11_readings():
    rep = idn.check_remark_2_11(2, P1, RootOfUnity(3, 1), 1, 2)
    assert set(rep.readings) == {"weighted", "as_printed"}
    assert rep.readings["weighted"] is True
    assert rep.readings["as_printed"] is False
    assert rep.holds  # at least one reading holds

    rep = idn.check_remark_2_11(3, P1, RootOfUnity(3, 1), 2, 1)
    assert rep.readings == {"weighted": True, "as_printed": False} and rep.holds

    trivial = idn.check_remark_2_11(2, P1, ONE, 1, 2)
    assert trivial.readings["weighted"] and trivial.readings["as_printed"]


def test_remark_2_11_classical_multiplication_instance():
    rep = idn.check_remark_2_11(3, P1, ONE, 1, 2)
    assert rep.holds
    # w1 = 1 side is just B_3(2x); frozen against the classical oracle
    lhs = rep.lhs
    two_x_poly = [comb(3, j) * bernoulli_recurrence(3)[3 - j] * Fraction(2) ** j for j in range(4)]
    assert [row[0].rational_value() for row in lhs] == two_x_poly


def test_corollary4_cases():
    assert idn.check_corollary4(4, 2, LEG3, RootOfUnity(3, 1), 2, 2).holds
    assert idn.check_corollary4(5, 1, P1, ONE, 1, 2).holds
    assert idn.check_corollary4(4, 2, LEG3, RootOfUnity(3, 1), 2, 3).holds


def test_corollary4_equals_theorem3_constant_term():
    for n in range(4):
        whole = idn.check_theorem3(n, 2, CHI4, RootOfUnity(4, 1), 2, 1)
        scalar = idn.check_corollary4(n, 2, CHI4, RootOfUnity(4, 1), 2, 1)
        assert whole.lhs[0][0] == scalar.lhs
        assert whole.rhs[0][0] == scalar.rhs


def test_eq_2_12_cases():
    assert idn.check_eq_2_12(3, CHI4, RootOfUnity(4, 1), 2, 2).holds
    rep = idn.check_eq_2_12(2, P1, ONE, 1, 2)
    assert rep.holds
    assert rep.lhs.rational_value() == Fraction(1, 6)  # frozen brute-force value
    assert idn.check_eq_2_12(4, CHI4, RootOfUnity(3, 1), 2, 3).holds


# --- structural swap symmetry -------------------------------------------------------

def test_swap_symmetry_exchanges_sides():
    cases = [
        ("theorem1", lambda w1, w2: idn.check_theorem1(3, 2, LEG3, RootOfUnity(9, 1), w1, w2)),
        ("theorem3", lambda w1, w2: idn.check_theorem3(3, 2, LEG3, RootOfUnity(9, 1), w1, w2)),
        ("remark_m1", lambda w1, w2: idn.check_remark_m1(4, CHI4, MINUS, w1, w2)),
        ("remark_2_11", lambda w1, w2: idn.check_remark_2_11(3, P1, RootOfUnity(3, 1), w1, w2)),
        ("corollary2", lambda w1, w2: idn.check_corollary2(4, 2, P1, RootOfUnity(4, 1), w1, w2)),
        ("corollary4", lambda w1, w2: idn.check_corollary4(4, 2, P1, RootOfUnity(4, 1), w1, w2)),
        ("m1_numbers", lambda w1, w2: idn.check_m1_numbers(4, LEG3, MINUS, w1, w2)),
        ("eq_2_12", lambda w1, w2: idn.check_eq_2_12(3, LEG3, MINUS, w1, w2)),
    ]
    for _, checker in cases:
        fwd = checker(2, 3)
        bwd = checker(3, 2)
        assert fwd.lhs == bwd.rhs
        assert fwd.rhs == bwd.lhs


# --- random-point soundness of the expander ------------------------------------------

def test_bivariate_equality_implies_pointwise_equality():
    rng = random.Random(33)
    rep = idn.check_theorem1(5, 3, CHI4, RootOfUnity(9, 1), 1, 3)
    assert rep.holds
    for _ in range(10):
        x = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        y = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        assert evaluate(rep.lhs, x, y) == evaluate(rep.rhs, x, y)


# --- verdicts on H's coefficients ------------------------------------------------------

def eager_xy_poly(coeffs, n, c, with_y=True):
    """n! [t^n] H(t) e^(c (x + y) t) as a filled matrix, every entry computed."""
    fld = coeffs[0].field
    mat = [[fld.zero] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        for b in range(n - a + 1 if with_y else 1):
            mat[a][b] = coeffs[n - a - b] * (factorial(n) // (factorial(a) * factorial(b)) * c ** (a + b))
    return _oracles.trimmed(fld, mat)


def slice_mismatch(coeffs, other, with_y):
    """The first mismatch of the two sides read off two slices of H, by the
    rule of the identities docstring: (0, n - r*) with y and (n - r*, 0)
    without, r* the largest index where the slices differ; None if equal."""
    n = len(coeffs) - 1
    differ = [r for r in range(n + 1) if coeffs[r] != other[r]]
    if not differ:
        return None
    return (0, n - differ[-1]) if with_y else (n - differ[-1], 0)


def test_slice_mismatch_equals_matrix_mismatch():
    # the first mismatch of two sides read off slices of H must follow from
    # the slices alone, as a row-major scan of the two matrices finds it,
    # and each side must be the filled matrix, for every change of one or
    # two coefficients of a slice; changes to zero move the trimmed shapes.
    # Besides random slices, the bases include every slice whose h_0..h_(r-1)
    # vanish while h_r does not, and the all-zero slice, whose sides are
    # sized off r alone
    rng = random.Random(8)
    fld = cyclo_field(3)

    def elem():
        if rng.random() < 0.25:
            return fld.zero
        return fld.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(fld.degree)])

    def nonzero():
        h = elem()
        return h if not h.is_zero() else fld.one

    cases = 0
    for n, with_y in product(range(7), (True, False)):
        bases = [tuple(elem() for _ in range(n + 1)) for _ in range(3)]
        bases += [(fld.zero,) * r + (nonzero(),) + tuple(elem() for _ in range(n - r)) for r in range(1, n + 1)]
        bases.append((fld.zero,) * (n + 1))
        for coeffs in bases:
            c = rng.choice((1, 2, 3, 6))
            changed = [coeffs]
            for r in range(n + 1):
                for new in (coeffs[r] + 1, fld.zero, elem()):
                    changed.append(coeffs[:r] + (new,) + coeffs[r + 1:])
            # two changes: the mismatch comes from the larger index
            for r, q in product(range(n + 1), repeat=2):
                if r < q:
                    changed.append(tuple(h + 1 if i in (r, q) else h for i, h in enumerate(coeffs)))
            for other in changed:
                lhs = idn._xy_matrix(coeffs, c, with_y)
                rhs = idn._xy_matrix(other, c, with_y)
                expected = slice_mismatch(coeffs, other, with_y)
                scanned = printed_first_mismatch(idn._side_to_json(lhs), idn._side_to_json(rhs))
                assert scanned == expected, (n, with_y, c, coeffs, other)
                assert (lhs == rhs) is (expected is None) is (coeffs == other)
                assert (lhs, rhs) == (eager_xy_poly(coeffs, n, c, with_y), eager_xy_poly(other, n, c, with_y))
                cases += 1
    assert cases == sum((n + 4) * (1 + 3 * (n + 1) + comb(n + 1, 2)) for n in range(7)) * 2


def printed_first_mismatch(lhs, rhs):
    """Row-major first (i, j) where two printed side matrices differ, an
    entry past a trimmed edge read as zero; None if they are equal."""
    zero = cyclo_from_json(lhs["coeffs"][0][0]).field.zero

    def entry(side, i, j):
        rows = side["coeffs"]
        return cyclo_from_json(rows[i][j]) if i < len(rows) and j < len(rows[i]) else zero

    for i in range(max(lhs["deg_x"], rhs["deg_x"]) + 1):
        for j in range(max(lhs["deg_y"], rhs["deg_y"]) + 1):
            if entry(lhs, i, j) != entry(rhs, i, j):
                return (i, j)
    return None


def test_perturbed_h_fails_with_the_eager_first_mismatch(monkeypatch):
    # one changed coefficient of H, on one side of a swap only, must fail its
    # instance with the first mismatch of its printed matrices, entry by
    # entry, and the one the slice rule gives for the changed index.
    # Only h_0..h_n reach a side of degree n, so only r <= n is perturbed.
    series_h = idn._series_h

    def changed_index(wa, wb, m):
        return (wa + 2 * wb + m) % 4

    def perturbed(block, n, m, wa, wb, *rest, **kw):
        h = series_h(block, n, m, wa, wb, *rest, **kw)
        r = changed_index(wa, wb, m)
        if wa < wb and r <= n:
            h = h[:r] + (h[r] + 1,) + h[r + 1:]
        return h

    monkeypatch.setattr(idn, "_series_h", perturbed)
    grid = {
        "identity": list(SWAP_TAGS),
        "d": [3],
        "character": "all",
        "xi": {"order": 2, "exponent": 1},
        "w1": [1, 2, 3],
        "w2": [1, 2, 3],
        "m": [1, 2],
        "n_max": 4,
    }
    records, summary = idn.sweep(grid)
    failed = [r for r in records if not r["holds"]]
    assert summary["failures"] == len(failed) > 0
    for r in failed:
        if "first_mismatch" in r:
            par = r["params"]
            n, with_y = par["n"], idn._IDENTITIES[r["identity"]].reads == "xy"
            index = changed_index(min(par["w1"], par["w2"]), max(par["w1"], par["w2"]), par.get("m", 1))
            expected = (0, n - index) if with_y else (n - index, 0)
            assert tuple(r["first_mismatch"]) == printed_first_mismatch(r["lhs"], r["rhs"]) == expected, r
    mismatches = {(r["identity"], tuple(r["first_mismatch"])) for r in failed if "first_mismatch" in r}
    assert {tag for tag, _ in mismatches} == {"theorem1", "remark_m1", "theorem3", "remark_2_11"}
    assert len({fm for _, fm in mismatches}) >= 6
    assert all("lhs" in r and "rhs" in r for r in failed)


# --- finding each (chi, xi) block ------------------------------------------------

def test_run_instance_reparses_when_json_types_change():
    # every instance parses its JSON: true or 1.0 must not pass where 1 did
    grid = {
        "identity": "theorem1",
        "d": [3],
        "character": {"kind": "index", "j": 1},
        "xi": {"order": 2, "exponent": 1},
        "n_max": 1,
    }
    desc = next(iter(idn.expand_grid(grid)))
    for key, part, bad in (("j", "chi", True), ("j", "chi", 1.0), ("exponent", "xi", True)):
        assert idn.run_instance(desc).holds
        with pytest.raises(ConfigError, match=f"'{key}'"):
            idn.run_instance({**desc, part: {**desc[part], key: bad}})
        # a changed value in the same dict object is seen too
        assert idn.run_instance(desc).holds
        good = desc[part][key]
        desc[part][key] = bad
        try:
            with pytest.raises(ConfigError, match=f"'{key}'"):
                idn.run_instance(desc)
        finally:
            desc[part][key] = good


MINUS_JSON = {"order": 2, "exponent": 1}


def mod8(minus):
    """Table of the character mod 8 that is -1 at 3 and 7, with -1 given as minus."""
    one = {"order": 1, "exponent": 0}
    return [None, one, None, minus, None, one, None, minus]


def test_consecutive_blocks_report_their_own_params():
    table = {"kind": "table", "values": [None, {"order": 1, "exponent": 0}, {"order": 4, "exponent": 2}]}
    blocks = [
        ({"modulus": 3, "kind": "index", "j": 1}, {"order": 2, "exponent": 1}),
        # equal roots given in two forms, both printed in lowest terms
        ({"modulus": 3, "kind": "index", "j": 1}, {"order": 4, "exponent": 2}),
        # an equal character from a table, and the same twist again
        ({"modulus": 3, **table}, {"order": 4, "exponent": 2}),
        # equal characters given by tables in two forms (mod 8 has no index)
        ({"modulus": 8, "kind": "table", "values": mod8(MINUS_JSON)}, {"order": 1, "exponent": 0}),
        ({"modulus": 8, "kind": "table", "values": mod8({"order": 4, "exponent": 2})}, {"order": 1, "exponent": 0}),
        ({"modulus": 3, "kind": "principal"}, {"order": 4, "exponent": 2}),
        ({"modulus": 1, "kind": "principal"}, {"order": 3, "exponent": 1}),
        ({"modulus": 3, "kind": "index", "j": 1}, {"order": 2, "exponent": 1}),
    ]
    for tag in ("theorem1", "eq_1_13", "power_sum_series_check"):
        for chi, xi in blocks:
            desc = {"identity": tag, "chi": chi, "xi": xi, "n": 2, "m": 1, "w1": 1, "w2": 2, "k": 2,
                    "series_order": 4}
            rep = idn.run_instance(desc)
            assert rep.holds
            assert rep.params["d"] == chi["modulus"]
            assert rep.params["chi"] == character_to_json(character_from_json(chi))
            assert rep.params["xi"] == root_to_json(root_from_json(xi))
    # checkers called with the objects themselves
    for xi in (RootOfUnity(2, 1), RootOfUnity(4, 2), RootOfUnity(2, 1)):
        rep = idn.check_remark_m1(2, LEG3, xi, 1, 2)
        assert rep.params["xi"] == {"order": xi.order, "exponent": xi.exponent}


def test_equal_roots_in_two_forms_share_one_block(monkeypatch):
    # zeta_4^2 is zeta_2: a grid listing both prints zeta_2 in every record,
    # builds one block for the two, and prints what listing zeta_2 twice prints
    made = []
    block = idn._Block
    monkeypatch.setattr(idn, "_Block", lambda chi, xi: made.append(xi) or block(chi, xi))
    half = {"order": 2, "exponent": 1}
    grid = {"identity": ["m1_numbers", "theorem1"], "d": [3], "character": {"kind": "index", "j": 1},
            "xi": [{"order": 4, "exponent": 2}, half], "w1": [1, 2], "w2": [1, 2], "m": [1, 2], "n_max": 2}
    for sides in (False, True):
        made.clear()
        texts, summary = idn.sweep_text([grid], include_sides=sides)
        assert made == [RootOfUnity(2, 1)]
        # two roots, four weight pairs and three n, and for theorem1 two m
        assert summary["total"] == len(texts) == 2 * 4 * 3 + 2 * 4 * 2 * 3
        assert all(json.loads(text)["params"]["xi"] == half for text in texts)
        assert (texts, summary) == idn.sweep_text([{**grid, "xi": [half, half]}], include_sides=sides)


# --- swap checkers ---------------------------------------------------------------

SWAP_TAGS = (
    "theorem1", "remark_m1", "corollary2", "m1_numbers",
    "theorem3", "remark_2_11", "corollary4", "eq_2_12",
)
ORDER_M_TAGS = ("theorem1", "corollary2", "theorem3", "corollary4")


@pytest.mark.parametrize("tag", tuple(idn._IDENTITIES))
def test_swap_checkers_reject_bad_arguments(tag):
    # every checker holds a valid instance and rejects each argument below
    # its minimum: eq_1_13's k and shift n, the series check's n and order,
    # and every swap checker's n, w1, w2 and m
    check = getattr(idn, idn._IDENTITIES[tag].checker)
    if tag == "eq_1_13":
        good, low = {"k": 2, "n": 1}, {"k": 0, "n": 0}
    elif tag == "power_sum_series_check":
        good, low = {"n": 1, "series_order": 4}, {"n": 0, "series_order": 0}
    else:
        good, low = {"n": 2, "w1": 1, "w2": 2}, {"n": -1, "w1": 0, "w2": 0}
        if tag in ORDER_M_TAGS:
            good["m"], low["m"] = 1, 0
    assert check(chi=P1, xi=ONE, **good).holds
    for name, value in low.items():
        with pytest.raises(ValueError, match="need"):
            check(chi=P1, xi=ONE, **{**good, name: value})


# --- every side against the literal sums ----------------------------------------

XIS = (ONE, MINUS, RootOfUnity(3, 1), RootOfUnity(4, 1), RootOfUnity(9, 1))
WEIGHTS = (1, 2, 3)

# each side builder under every keyword set that a reading of its identity
# uses, with its orders m (None: the builder takes no m); the literal reading
# twists F^(m-1), and F^(0) = 1 carries no twist, so it starts at m = 2
M3 = (1, 2, 3)
BUILDER_READINGS = [
    ("theorem1", {}, M3),
    ("theorem1", {"last_twist_wa": True}, (2, 3)),
    ("remark_m1", {}, (None,)),
    ("corollary2", {}, M3),
    ("m1_numbers", {}, (None,)),
    ("theorem3", {}, M3),
    ("remark_2_11", {"with_weights": True}, (None,)),
    ("remark_2_11", {"with_weights": False}, (None,)),
    ("corollary4", {}, M3),
    ("eq_2_12", {}, (None,)),
]

# d <= 4; the two mod-4 tables of the acceptance grid are the characters mod 4
ORACLE_CHARACTERS = tuple(
    dict.fromkeys([chi for d in range(1, 5) for chi in enumerate_cyclic(d)] + [from_table(4, [0, 1, 0, 1]), CHI4])
)


def side_cases(characters, n_max):
    """(n, chi, xi, wa, wb) over one grid, block by block."""
    for chi, xi in product(characters, XIS):
        for wa, wb, n in product(WEIGHTS, WEIGHTS, range(n_max + 1)):
            yield n, chi, xi, wa, wb


@pytest.mark.parametrize("chi", ORACLE_CHARACTERS, ids=lambda chi: chi.label())
def test_sides_equal_the_literal_printed_sums(chi):
    # the swap checks cannot see an error that is symmetric in w1 and w2
    # (a side scaled by w1 + w2, a twist xi^(w1 w2)); the literal sums can
    count = 0
    block = None
    for n, _, xi, wa, wb in side_cases([chi], 4):
        if block is None or block.xi is not xi:
            block = idn._Block(chi, xi)
        cond = bn.ambient_conductor(chi, xi)
        for tag, kw, ms in BUILDER_READINGS:
            for m in ms:
                head = (n,) if m is None else (n, m)
                side = getattr(idn, f"_{tag}_side")(block, *head, wa, wb, **kw)
                literal = getattr(_oracles, f"{tag}_side")(*head, chi, xi, wa, wb, cond, **kw)
                assert side == literal, (tag, kw, head, xi, wa, wb)
                count += 1
    assert len(ORACLE_CHARACTERS) == 6
    assert count == len(XIS) * 9 * 5 * 19  # 19 sides per (xi, wa, wb, n)


def test_run_instance_calls_checkers_and_builders_by_name(monkeypatch):
    # the names that perfbench's tracer wraps must be looked up at call time:
    # every checker, and the side builder, called once for each side of the
    # first reading; every reading is made to fail here by a changed h_0 on
    # the w1 < w2 side
    checkers = {tag: f"check_{tag}" for tag in ("eq_1_13", *SWAP_TAGS)}
    checkers["power_sum_series_check"] = "check_power_sum_series"
    builders = {tag: f"_{tag}_side" for tag in SWAP_TAGS}
    calls = {}

    def counting(name):
        fn = getattr(idn, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(idn, name, wrapper)

    for name in (*checkers.values(), *builders.values()):
        counting(name)
    series_h = idn._series_h

    def perturbed(block, n, m, wa, wb, *rest):
        h = series_h(block, n, m, wa, wb, *rest)
        return (h[0] + 1,) + h[1:] if wa < wb else h

    monkeypatch.setattr(idn, "_series_h", perturbed)
    xi = {"order": 1, "exponent": 0}
    for tag, checker in checkers.items():
        grid = {"identity": tag, "d": [1], "xi": xi, "k": [1], "w2": [2], "n_max": 1}
        desc = next(iter(idn.expand_grid(grid)))
        assert idn.run_instance(desc).holds is (tag not in builders)
        assert calls.get(checker) == 1
        if tag in builders:
            assert calls.get(builders[tag]) == 2


# --- sweep -----------------------------------------------------------------------------

def test_sweep_empty_grid():
    records, summary = idn.sweep([])
    assert records == []
    assert summary == {"total": 0, "holds": 0, "failures": 0, "errors": 0}


def test_sweep_classical_eq_1_13_grid():
    grid = {
        "identity": "eq_1_13",
        "d": [1],
        "character": "all",
        "xi": {"order": 1, "exponent": 0},
        "k": [1, 2, 3, 4],
        "shift": [1, 2, 3, 4],
    }
    records, summary = idn.sweep(grid)
    assert summary == {"total": 16, "holds": 16, "failures": 0, "errors": 0}
    assert all(r["holds"] for r in records)


def test_sweep_is_deterministically_ordered():
    grid = {
        "identity": ["m1_numbers", "eq_2_12"],
        "d": [1, 3],
        "character": "all",
        "xi": [{"order": 3, "exponent": 1}, {"order": 1, "exponent": 0}],
        "w1": [2, 1],
        "w2": [1],
        "n_max": 2,
    }
    r1, s1 = idn.sweep(grid)
    r2, s2 = idn.sweep(grid)
    assert r1 == r2 and s1 == s2
    # xi and w lists are visited sorted
    first = r1[0]["params"]
    assert first["xi"] == {"order": 1, "exponent": 0}
    assert first["w1"] == 1


def test_sweep_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        list(idn.expand_grid({"identity": "eq_1_13", "d": [1], "xi": {"order": 1, "exponent": 0}, "bogus": 1}))
    with pytest.raises(ConfigError):
        list(idn.expand_grid({"identity": "nope", "d": [1], "xi": {"order": 1, "exponent": 0}}))
    # booleans are not integers, wherever the grid takes one
    xi = {"order": 1, "exponent": 0}
    eq = {"identity": "eq_1_13", "d": [1], "xi": xi, "k": [1]}
    thm = {"identity": "theorem1", "d": [1], "xi": xi, "n_max": 1}
    m1 = {"identity": "m1_numbers", "d": [3, 4], "xi": xi, "n_max": 1}
    pss = {"identity": "power_sum_series_check", "d": [1], "xi": xi}
    for base, key, val in (
        (eq, "d", True),
        (eq, "k", [True]),
        (eq, "shift", [1, True]),
        (thm, "w1", [True]),
        (thm, "w2", [False]),
        (thm, "m", [True]),
        (thm, "n_max", True),
        (pss, "n", [True]),
        (pss, "series_order", True),
    ):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            list(idn.expand_grid({**base, key: val}))
    # weights, m, k, shift, power-sum n and d start at 1, n_max at 0
    for base, key, val in (
        (thm, "w1", [0]),
        (thm, "w2", [1, -2]),
        (thm, "m", 0),
        (thm, "n_max", -1),
        (eq, "k", [0]),
        (eq, "shift", [0]),
        (pss, "n", [0]),
        (pss, "series_order", 0),
        (thm, "d", [0]),
    ):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            list(idn.expand_grid({**base, key: val}))
    # a value of the wrong shape, or a grid that expands to no instance, names its key
    for base, key, val in (
        (thm, "xi", []),
        (thm, "d", []),
        (thm, "w1", []),
        (thm, "m", []),
        (eq, "k", []),
        (eq, "character", []),
        (thm, "identity", []),
        (thm, "identity", 5),
        (thm, "xi", 5),
        (thm, "character", "some"),
        # a character's own modulus is not the grid's d
        (m1, "character", [{"modulus": 5, "kind": "index", "j": 1}]),
        (m1, "character", {"modulus": 3, "kind": "index", "j": 1}),
        ({k: v for k, v in eq.items() if k != "k"}, "n_max", 0),
    ):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            list(idn.expand_grid({**base, key: val}))
    # eq_1_13 without k, and every swap identity, needs n_max
    for base in (eq, thm):
        with pytest.raises(ConfigError, match="'n_max'"):
            list(idn.expand_grid({k: v for k, v in base.items() if k not in ("k", "n_max")}))


def test_sweep_refuses_int_subclasses():
    # an IntEnum a caller passes is an int, but not a JSON integer: it is a
    # configuration error naming its key before any instance runs, not a
    # value that expands, prints in the records and fails only when the
    # output is written
    class Two(IntEnum):
        TWO = 2

    thm = {"identity": "theorem1", "d": [3], "character": "all", "xi": {"order": 2, "exponent": 1},
           "w1": [1], "w2": [1], "n_max": 1}
    for key, grid in (
        ("w1", {**thm, "w1": [1, Two.TWO]}),
        ("w1", {**thm, "w1": Two.TWO}),
        ("order", {**thm, "xi": {"order": Two.TWO, "exponent": 1}}),
    ):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            idn.sweep(grid)


def test_sweep_collects_instance_errors(monkeypatch):
    # a package error fails its instance only: the sweep records it and goes on
    report = idn._eq_1_13_report

    def failing(tag, block, args, sides):
        if args["k"] == 2:
            raise NotMultiplicative("injected")
        return report(tag, block, args, sides)

    monkeypatch.setattr(idn, "_eq_1_13_report", failing)
    grid = {
        "identity": "eq_1_13",
        "d": [1],
        "character": "all",
        "xi": {"order": 1, "exponent": 0},
        "k": [1, 2],
        "shift": [3],
    }
    records, summary = idn.sweep(grid)
    assert summary == {"total": 2, "holds": 1, "failures": 0, "errors": 1}
    assert records[1]["error"] == "injected"
    # an error record names its parameters as the success record does
    assert records[0]["params"] == {**records[1]["params"], "k": 1}
    assert list(records[1]["params"]) == ["n", "d", "chi", "xi", "k"]
    # any other exception is a programming error and ends the sweep
    monkeypatch.setattr(idn, "_eq_1_13_report", lambda tag, block, args, sides: 1 // 0)
    with pytest.raises(ZeroDivisionError):
        idn.sweep(grid)


def test_report_record_includes_sides_on_failure_only():
    rep = idn.check_eq_1_13(P1, ONE, 2, 3)
    slim = idn.report_to_record(rep)
    assert "lhs" not in slim
    fat = idn.report_to_record(rep, include_sides=True)
    assert fat["lhs"] == "3/1"
    assert fat["params"]["d"] == 1


def test_parallel_sweep_matches_serial():
    grid = {
        "identity": ["remark_m1", "corollary2"],
        "d": [1, 3],
        "character": "all",
        "xi": [{"order": 1, "exponent": 0}, {"order": 2, "exponent": 1}],
        "w1": [1, 2],
        "w2": [1, 2],
        "m": [1, 2],
        "n_max": 3,
    }
    serial, s1 = idn.sweep(grid, jobs=1)
    parallel, s2 = idn.sweep(grid, jobs=2)
    assert serial == parallel
    assert s1 == s2


def test_many_blocks_reach_the_workers_in_batches(monkeypatch):
    # 100 blocks: the pool gets several whole blocks a batch (its chunksize
    # len(blocks) // (8 jobs) is 6 at --jobs 2 and 4 at --jobs 3), and the
    # records and summary are those of one process
    import concurrent.futures

    grid = {"identity": "remark_m1", "d": [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13], "character": "all",
            "xi": [{"order": 1, "exponent": 0}, {"order": 2, "exponent": 1}],
            "w1": [1, 2], "w2": [1, 2], "n_max": 1}
    total, blocks = idn._plan([grid])
    assert (total, len(blocks)) == (800, 100)
    serial = idn.sweep(grid)
    assert serial[1] == {"total": 800, "holds": 800, "failures": 0, "errors": 0}
    chunksizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1):
            chunksizes.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    for jobs in (2, 3):
        assert idn.sweep(grid, jobs=jobs) == serial, jobs
    assert chunksizes == [6, 4]


def test_chunks_never_split_a_block(monkeypatch):
    grids = [
        {"identity": ["theorem1", "m1_numbers"], "d": [1, 3, 4], "character": "all",
         "xi": [{"order": 1, "exponent": 0}, {"order": 2, "exponent": 1}],
         "w1": [1, 2], "w2": [1, 2], "m": [1, 2], "n_max": 2},
        {"identity": "eq_1_13", "d": [3], "character": "all", "xi": {"order": 3, "exponent": 1}, "k": [1, 2]},
        # the mod 3 characters with xi = 1 again, in other objects
        {"identity": "remark_m1", "d": [3], "character": "all", "xi": {"order": 1, "exponent": 0},
         "w1": [1], "w2": [2], "n_max": 1},
    ]
    grid_axes = idn._grid_axes

    def retyped(grid):
        # True for the order 1 of the last grid's xi: equal JSON, another text
        axes = grid_axes(grid)
        if grid is grids[-1]:
            for _, (_, roots, *_) in axes:
                roots[:] = [dict(xi, order=True) for xi in roots]
        return axes

    # equal JSON in other objects is the same block; True for 1 is another
    for retype, n_blocks in ((False, 12), (True, 14)):  # 5 characters x 2 twists, 2 x 1 (, 2 x 1)
        if retype:
            monkeypatch.setattr(idn, "_grid_axes", retyped)
        descs = [desc for g in grids for desc in idn.expand_grid(g)]
        total, blocks = idn._plan(grids)
        assert total == len(descs)
        sources = [source for source, *_ in blocks]
        assert len(sources) == len(set(sources)) == n_blocks
        # the runs cover every position once, each in order within its block
        runs = [run for *_, block_runs in blocks for run in block_runs]
        assert sorted(i for start, size, *_ in runs for i in range(start, start + size)) == list(range(total))
        for source, chi, xi, block_runs in blocks:
            assert idn._source(chi, xi) == source
            starts = [start for start, *_ in block_runs]
            assert starts == sorted(starts)
            for start, size, tag, axes in block_runs:
                names = [key.name for key in idn._IDENTITIES[tag].keys]
                got = [(idn._source(d["chi"], d["xi"]), d["identity"], [d[name] for name in names])
                       for d in descs[start : start + size]]
                assert got == [(source, tag, list(values)) for values in product(*axes)]
        # the mod 3 blocks with xi = 1 hold runs of two grids unless retyped
        assert max(len(block_runs) for *_, block_runs in blocks) == (2 if retype else 3)


def test_a_grown_block_equals_fresh_builds_and_computes_no_coefficient_twice(monkeypatch):
    # one block asked for n = 2, then 7, then 3: every side equals one built
    # by a fresh block at that n alone, and no (series, index) pair reaches
    # the kernel's Cauchy sum twice.  A Cauchy sum is named by the ids of its
    # two coordinate lists and its index; each series owns its lists, and the
    # counter keeps every list alive, so no id is reused.
    chi, xi = CHI4, RootOfUnity(3, 1)

    def sides(block, n):
        out = []
        for tag in SWAP_TAGS:
            entry = idn._IDENTITIES[tag]
            side = getattr(idn, entry.side)
            for wa, wb, m in product((1, 2, 3), (1, 2, 3), (1, 2, 3) if tag in ORDER_M_TAGS else (1,)):
                head = (n, m) if tag in ORDER_M_TAGS else (n,)
                for _, left, right in entry.readings:
                    out += [side(block, *head, wa, wb, **kw) for kw in (left, right)]
        return out

    def fresh():
        for f in (bn.generating_series, bn.numbers, bn.power_sum):
            f.cache_clear()
        return idn._Block(chi, xi)

    cauchy = _kernel.cauchy_coeff
    computed, kept = {}, []

    def counting(anums, adens, bnums, bdens, n, red):
        key = (id(anums), id(bnums), n)
        computed[key] = computed.get(key, 0) + 1
        kept.append((anums, bnums))
        return cauchy(anums, adens, bnums, bdens, n, red)

    block = fresh()
    monkeypatch.setattr(_kernel, "cauchy_coeff", counting)
    grown = {}
    for n in (2, 7, 3):
        before = len(kept)
        grown[n] = sides(block, n)
        assert (len(kept) > before) is (n != 3)  # n = 3 reads what n = 7 computed
    monkeypatch.setattr(_kernel, "cauchy_coeff", cauchy)
    assert computed and set(computed.values()) == {1}
    for n, got in grown.items():
        assert got == sides(fresh(), n), n


# --- the block ------------------------------------------------------------------

def test_memoized_sweep_matches_fresh_checks(monkeypatch):
    # each key the block holds (H, its factors S and F, the partial product
    # lead S, and the twist specs) must name wa, wb, with_weights, m and
    # twist: a key that omits one hands a value of one instance or reading to
    # another.  Values have no order: each series grows to the n asked for.
    # The reference builds every value anew.
    grid = {
        "identity": list(SWAP_TAGS),
        "d": [3],
        "character": {"kind": "index", "j": 1},
        "xi": {"order": 2, "exponent": 1},
        "w1": [1, 2, 3],
        "w2": [1, 2, 3],
        "m": [1, 2, 3],
        "n_max": 5,
    }
    # one character: every tag falls in one block and shares its values; with
    # both characters the sweep changes block between tags
    grids = [grid, {**grid, "character": "all", "m": [1, 2], "n_max": 2}]
    records, _ = idn.sweep(grids, include_sides=True)
    monkeypatch.setattr(idn._Block, "get", lambda self, key, build: build())
    descs = [desc for g in grids for desc in idn.expand_grid(g)]
    assert records == [idn.report_to_record(idn.run_instance(d), include_sides=True) for d in descs]
    # the second reading of theorem1 and of remark_2_11 fails somewhere, so
    # a reading handed the first one's values shows
    for tag, reading in (("theorem1", "expansion_literal"), ("remark_2_11", "as_printed")):
        assert not all(r["readings"][reading] for r in records if r["identity"] == tag)


# --- one visit per block, one verdict table per pair of H series -------------------

def shared_block_grids(weights=(1, 2, 3)):
    """Grids whose blocks repeat across grids and tags, interleaved with others."""
    xi2, xi3 = {"order": 2, "exponent": 1}, {"order": 3, "exponent": 1}
    weights = {"w1": list(weights), "w2": list(weights)}
    first = {"identity": ["theorem1", "corollary2", "remark_2_11"], "d": [1, 3], "character": "all",
             "xi": [xi2, xi3], **weights, "m": [1, 2], "n_max": 3}
    return [
        first,
        {"identity": "eq_1_13", "d": [4], "xi": xi3, "k": [1, 2]},
        {"identity": ["theorem3", "m1_numbers"], "d": [3], "character": "all", "xi": xi3, **weights,
         "m": [2], "n_max": 4},
        {"identity": "power_sum_series_check", "d": [3], "character": "all", "xi": xi2, "n": [1, 2]},
        {"identity": ["remark_m1", "corollary4", "eq_2_12"], "d": [3], "character": {"kind": "index", "j": 1},
         "xi": [xi2, xi3], **weights, "m": [1, 3], "n_max": 3},
        first,
    ]


def perturb_h(monkeypatch):
    """Change one coefficient of H on the wa < wb side, as
    test_perturbed_h_fails_with_the_eager_first_mismatch does."""
    series_h = idn._series_h

    def perturbed(block, n, m, wa, wb, *rest):
        h = series_h(block, n, m, wa, wb, *rest)
        r = (wa + 2 * wb + m) % 4
        if wa < wb and r <= n:
            h = h[:r] + (h[r] + 1,) + h[r + 1:]
        return h

    monkeypatch.setattr(idn, "_series_h", perturbed)


def count_side_builds(monkeypatch) -> dict:
    """Calls of each swap tag's side builder, counted from now on."""
    calls = dict.fromkeys(SWAP_TAGS, 0)

    def counting(tag):
        fn = getattr(idn, f"_{tag}_side")

        def wrapper(*args, **kwargs):
            calls[tag] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(idn, f"_{tag}_side", wrapper)

    for tag in SWAP_TAGS:
        counting(tag)
    return calls


def failing_first_readings(records) -> dict:
    """The number of swap records of each tag whose first reading fails."""
    failing = dict.fromkeys(SWAP_TAGS, 0)
    for r in records:
        if r["identity"] in failing:
            failing[r["identity"]] += not next(iter(r["readings"].values())) if "readings" in r else not r["holds"]
    return failing


def failing_readings(records) -> dict:
    """The number of failing readings of each swap tag in sweep records."""
    failing = dict.fromkeys(SWAP_TAGS, 0)
    for r in records:
        if r["identity"] in failing:
            verdicts = r["readings"].values() if "readings" in r else (r["holds"],)
            failing[r["identity"]] += sum(1 for ok in verdicts if not ok)
    return failing


@pytest.mark.parametrize("perturb", (False, True), ids=("as_is", "perturbed_h"))
def test_grouped_sweep_equals_the_per_grid_sweeps(perturb, monkeypatch):
    # a sweep that visits each block once across grids and tags must give the
    # records of the grids swept one by one, in expansion order, at any --jobs;
    # a perturbed H shows verdicts, mismatches and sides taken from the wrong
    # block or table.  --jobs 2 workers inherit the patched module by fork.
    if perturb:
        perturb_h(monkeypatch)
    grids = shared_block_grids()
    expected, totals = [], {}
    for grid in grids:
        records, summary = idn.sweep(grid, include_sides=True)
        expected += records
        totals = {key: totals.get(key, 0) + value for key, value in summary.items()}
    assert (totals["failures"] > 0) is perturb
    for jobs in (1, 2):
        assert idn.sweep(grids, include_sides=True, jobs=jobs) == (expected, totals), jobs


def test_each_cauchy_sum_reaches_the_kernel_once_per_sweep(monkeypatch):
    # blocks repeat across grids and tags, interleaved with others: each block
    # is built once a sweep, for its instances of every tag; no (series, index)
    # pair reaches the kernel's
    # Cauchy sum twice (named as in the grown-block test above), and a grid
    # swept again in the same sweep adds no Cauchy sum at all.  Weights 1..3
    # give the twist xi^3 = xi for xi of order 2: an H key names its last
    # twist by the weight modulo that order, so no two keys name one series.
    grids = shared_block_grids()
    assert grids[-1] is grids[0]
    cauchy = _kernel.cauchy_coeff
    built = []

    class Counted(idn._Block):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(idn._source(self.chi_json, self.xi_json))

    def cauchy_calls(grids):
        # every growing series bernoulli keeps, so that both sweeps start cold
        # whichever tests ran before
        for f in (bn.generating_series, bn.numbers, bn.power_sum):
            f.cache_clear()
        computed, kept = {}, []

        def counting(anums, adens, bnums, bdens, n, red):
            key = (id(anums), id(bnums), n)
            computed[key] = computed.get(key, 0) + 1
            kept.append((anums, bnums))
            return cauchy(anums, adens, bnums, bdens, n, red)

        monkeypatch.setattr(_kernel, "cauchy_coeff", counting)
        built.clear()
        records, summary = idn.sweep(grids)
        monkeypatch.setattr(_kernel, "cauchy_coeff", cauchy)
        assert summary["holds"] == summary["total"] == len(records)
        assert set(computed.values()) == {1}
        return len(kept)

    monkeypatch.setattr(idn, "_Block", Counted)
    once = cauchy_calls(grids[:-1])
    assert once > 500
    assert cauchy_calls(grids) == once
    descs = [desc for grid in grids for desc in idn.expand_grid(grid)]
    sources = {idn._source(desc["chi"], desc["xi"]) for desc in descs}
    assert set(built) == sources and len(sources) >= 6
    assert len(built) == len(sources)


@pytest.mark.parametrize("perturb", (False, True), ids=("as_is", "perturbed_h"))
def test_side_builders_run_for_failing_readings_only(perturb, monkeypatch):
    # verdicts come from the blocks' tables, a scalar side n! h_n decided by
    # index n alone and the other sides by h_0..h_n: an instance whose first
    # reading fails builds its two sides once, for its first mismatch and
    # printed sides, and any other builds none, so a sweep where only second
    # readings fail builds no side
    if perturb:
        perturb_h(monkeypatch)
    calls = count_side_builds(monkeypatch)
    records, summary = idn.sweep(shared_block_grids())
    failing = failing_first_readings(records)
    assert calls == {tag: 2 * count for tag, count in failing.items()}
    if perturb:
        assert all(failing.values())
    else:
        assert summary["holds"] == summary["total"]
        assert sum(calls.values()) == 0
        # the second readings of theorem1 and remark_2_11 fail, unbuilt
        assert {tag for tag, count in failing_readings(records).items() if count} == {"theorem1", "remark_2_11"}


@pytest.mark.parametrize("include_sides", (False, True), ids=("verdicts", "sides"))
def test_block_records_equal_the_report_records(include_sides, monkeypatch):
    # a sweep reports each instance of a block from that block's tables; the
    # record must be the one its checker's report gives that instance alone,
    # key order included, at any --jobs: with failing second readings,
    # w1 = w2, every swap tag, m <= 3, the other tags, and a package error
    # raised in one block (for weight 3, so that block has records of every
    # kind; and w1 != w2, since a w1 = w2 instance reads no series unless a
    # side is built, which a checker always does)
    series_h = idn._series_h

    def failing(block, n, m, wa, wb, *rest):
        if block.chi.modulus == 3 and block.xi.order == 3 and 3 in (wa, wb) and wa != wb:
            raise NotMultiplicative("injected")
        return series_h(block, n, m, wa, wb, *rest)

    monkeypatch.setattr(idn, "_series_h", failing)
    xi2, xi3 = {"order": 2, "exponent": 1}, {"order": 3, "exponent": 1}
    grids = [
        {"identity": list(SWAP_TAGS), "d": [1, 3], "character": "all", "xi": [xi2, xi3],
         "w1": [1, 2, 3], "w2": [1, 2, 3], "m": [1, 2, 3], "n_max": 2},
        {"identity": ["eq_1_13", "power_sum_series_check"], "d": [3], "character": "all", "xi": xi3,
         "k": [1, 2], "n": [1, 2], "series_order": 3},
    ]

    def reference(desc):
        try:
            return idn.report_to_record(idn.run_instance(desc), include_sides)
        except NotMultiplicative as exc:
            args = {key.name: desc[key.name] for key in idn._IDENTITIES[desc["identity"]].keys}
            params = idn._params(idn._Block(character_from_json(desc["chi"]), root_from_json(desc["xi"])), **args)
            return {"identity": desc["identity"], "params": params, "holds": False, "error": str(exc)}

    expected = [reference(desc) for grid in grids for desc in idn.expand_grid(grid)]
    kinds = {("error" in r, r["holds"], all(r.get("readings", {}).values())) for r in expected}
    assert kinds == {(True, False, True), (False, True, True), (False, True, False)}
    for jobs in (1, 2):
        records, summary = idn.sweep(grids, include_sides=include_sides, jobs=jobs)
        assert records == expected, jobs
        assert all(json.dumps(a) == json.dumps(b) for a, b in zip(records, expected))  # key order
        assert summary["errors"] == sum(1 for r in expected if "error" in r) > 0


# --- the records of mixed verdicts, frozen ------------------------------------------

def pinned_params(n, xi, m=None):
    """The params of a (w1, w2) = (1, 2) record of the principal character mod 1."""
    head = {"n": n} if m is None else {"n": n, "m": m}
    return {**head, "d": 1, "chi": {"modulus": 1, "kind": "principal"}, "xi": xi, "w1": 1, "w2": 2}


def test_mixed_verdict_records_are_pinned(monkeypatch):
    # frozen records, byte for byte in key order, of three mixed cases:
    # * only theorem1's second reading fails (n = 1): "readings" shows it,
    #   with no first mismatch and no sides, and no side is built;
    # * remark_2_11's "weighted" fails and "as_printed" holds: "holds" is
    #   true, with the first mismatch of "weighted" and no sides;
    # * theorem1's first reading fails: its first mismatch and both sides.
    principal = {"kind": "principal"}
    xi2, one = {"order": 2, "exponent": 1}, {"order": 1, "exponent": 0}
    literal = {"identity": "theorem1", "d": [1], "character": principal, "xi": xi2,
               "w1": [1], "w2": [2], "m": [2], "n_max": 1}
    calls = count_side_builds(monkeypatch)
    records, summary = idn.sweep(literal)
    assert json.dumps(records) == json.dumps([
        {"identity": "theorem1", "params": pinned_params(0, xi2, 2), "holds": True,
         "readings": {"symmetric": True, "expansion_literal": True}},
        {"identity": "theorem1", "params": pinned_params(1, xi2, 2), "holds": True,
         "readings": {"symmetric": True, "expansion_literal": False}},
    ])
    assert summary == {"total": 2, "holds": 2, "failures": 0, "errors": 0}
    assert sum(calls.values()) == 0

    # h_0 + 1 in each H that keeps the weights of S, on the w1 < w2 side:
    # every theorem1 reading and remark_2_11 "weighted" fail, "as_printed" holds
    series_h = idn._series_h

    def perturbed(block, n, m, wa, wb, last_w, with_weights):
        h = series_h(block, n, m, wa, wb, last_w, with_weights)
        return (h[0] + 1,) + h[1:] if with_weights and wa < wb else h

    monkeypatch.setattr(idn, "_series_h", perturbed)
    weighted = {"identity": "remark_2_11", "d": [1], "character": principal, "xi": one,
                "w1": [1], "w2": [2], "n_max": 1}
    first = {"identity": "theorem1", "d": [1], "character": principal, "xi": one,
             "w1": [1], "w2": [2], "m": [1], "n_max": 1}
    records, summary = idn.sweep([weighted, first])
    both_fail = {"symmetric": False, "expansion_literal": False}
    assert json.dumps(records) == json.dumps([
        {"identity": "remark_2_11", "params": pinned_params(0, one), "holds": True,
         "readings": {"weighted": False, "as_printed": True}, "first_mismatch": [0, 0]},
        {"identity": "remark_2_11", "params": pinned_params(1, one), "holds": True,
         "readings": {"weighted": False, "as_printed": True}, "first_mismatch": [1, 0]},
        {"identity": "theorem1", "params": pinned_params(0, one, 1), "holds": False,
         "readings": both_fail, "first_mismatch": [0, 0],
         "lhs": {"deg_x": 0, "deg_y": 0, "coeffs": [["2/1"]]},
         "rhs": {"deg_x": 0, "deg_y": 0, "coeffs": [["1/1"]]}},
        {"identity": "theorem1", "params": pinned_params(1, one, 1), "holds": False,
         "readings": both_fail, "first_mismatch": [0, 1],
         "lhs": {"deg_x": 1, "deg_y": 1, "coeffs": [["-1/2", "4/1"], ["4/1", "0/1"]]},
         "rhs": {"deg_x": 1, "deg_y": 1, "coeffs": [["-1/2", "2/1"], ["2/1", "0/1"]]}},
    ])
    assert summary == {"total": 4, "holds": 2, "failures": 2, "errors": 0}


def test_sweep_counts_instances_before_expanding(monkeypatch):
    # the count read off a grid's axes is the number of descriptors it
    # expands to; a sweep of exactly MAX_INSTANCES runs, and one more is
    # refused before any instance runs
    grids = shared_block_grids()
    total = sum(1 for grid in grids for _ in idn.expand_grid(grid))
    assert idn._plan(grids)[0] == total
    assert idn._plan([grids[1]])[0] == 2 * 2  # eq_1_13 mod 4: two characters, k = 1, 2
    monkeypatch.setattr(idn, "MAX_INSTANCES", total)
    assert idn.sweep(grids)[1]["total"] == total
    monkeypatch.setattr(idn, "MAX_INSTANCES", total - 1)

    def run(plan_block, include_sides):
        raise AssertionError("ran")

    monkeypatch.setattr(idn, "_block_records", run)
    with pytest.raises(ConfigError, match=f"key 'grids' expands to {total} instances, more than {total - 1}"):
        idn.sweep(grids)


@pytest.mark.parametrize("jobs", (1, 2))
def test_sweep_reads_each_grid_once_and_builds_no_descriptor(jobs, monkeypatch):
    # one xi and one d listed twice: a block holds several runs of one grid
    # and tag, each put back at its own place in the expansion order
    xi2, xi3 = {"order": 2, "exponent": 1}, {"order": 3, "exponent": 1}
    grids = [
        {"identity": ["remark_m1", "corollary2"], "d": [3, 1, 3], "character": "all", "xi": [xi2, xi3, xi2],
         "w1": [1, 2], "w2": [2, 1], "m": [1, 2], "n_max": 2},
        {"identity": "eq_1_13", "d": [3], "character": "all", "xi": xi2, "k": [1, 2], "shift": [1, 2]},
    ]
    expected = [idn.report_to_record(idn.run_instance(d)) for grid in grids for d in idn.expand_grid(grid)]
    _, blocks = idn._plan(grids)
    assert any(len(runs) > len({tag for _, _, tag, _ in runs}) for *_, runs in blocks)
    grid_axes, read = idn._grid_axes, []

    def counted(grid):
        read.append(grid)
        return grid_axes(grid)

    def expand(grid):
        raise AssertionError("expanded")

    monkeypatch.setattr(idn, "_grid_axes", counted)
    monkeypatch.setattr(idn, "expand_grid", expand)
    records, summary = idn.sweep(grids, jobs=jobs)
    assert [id(grid) for grid in read] == [id(grid) for grid in grids]
    assert records == expected
    assert summary["total"] == len(expected) == 5 * 3 * (2 * 2 * 3 + 2 * 2 * 2 * 3) + 2 * 2 * 2
