import json
import random
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
from _oracles import bernoulli_recurrence, classical_poly_at

ONE = RootOfUnity(1, 0)
MINUS = RootOfUnity(2, 1)
P1 = principal(1)
LEG3 = from_table(3, [0, 1, -1])
CHI4 = from_table(4, [0, 1, 0, -1])


def rational_rows(poly):
    return [[c.rational_value() for c in row] for row in poly.rows]


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


def test_eq_1_13_requires_positive_k():
    with pytest.raises(ValueError):
        idn.check_eq_1_13(P1, ONE, 0, 1)


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
        assert rep.lhs.evaluate(x, y) == rep.rhs.evaluate(x, y)


def test_theorem1_readings_reported():
    rep = idn.check_theorem1(3, 2, LEG3, RootOfUnity(9, 1), 1, 2)
    assert rep.readings["symmetric"] is True
    assert rep.holds is rep.readings["symmetric"]
    assert set(rep.readings) == {"symmetric", "expansion_literal"}


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
                restricted = whole.lhs.restrict_y0(), whole.rhs.restrict_y0()
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
        assert whole.lhs.coeff(0, 0) == scalar.lhs
        assert whole.rhs.coeff(0, 0) == scalar.rhs


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
        assert rep.lhs.evaluate(x, y) == rep.rhs.evaluate(x, y)


def test_theorem3_m1_y0_agrees_with_remark_2_11_weighted():
    for (chi, xi) in ((P1, ONE), (P1, RootOfUnity(3, 1)), (CHI4, MINUS)):
        for w1, w2 in ((1, 2), (2, 3)):
            for n in range(4):
                whole = idn.check_theorem3(n, 1, chi, xi, w1, w2)
                remark = idn.check_remark_2_11(n, chi, xi, w1, w2)
                assert whole.lhs.restrict_y0() == remark.lhs
                assert whole.rhs.restrict_y0() == remark.rhs


def test_remark_2_11_readings():
    rep = idn.check_remark_2_11(2, P1, RootOfUnity(3, 1), 1, 2)
    assert set(rep.readings) == {"weighted", "as_printed"}
    assert rep.readings["weighted"] is True
    assert rep.readings["as_printed"] is False
    assert rep.holds  # at least one reading holds

    trivial = idn.check_remark_2_11(2, P1, ONE, 1, 2)
    assert trivial.readings["weighted"] and trivial.readings["as_printed"]


def test_remark_2_11_classical_multiplication_instance():
    rep = idn.check_remark_2_11(3, P1, ONE, 1, 2)
    assert rep.holds
    # w1 = 1 side is just B_3(2x); frozen against the classical oracle
    lhs = rep.lhs
    two_x_poly = [comb(3, j) * bernoulli_recurrence(3)[3 - j] * Fraction(2) ** j for j in range(4)]
    assert [row[0].rational_value() for row in lhs.rows] == two_x_poly


def test_corollary4_cases():
    assert idn.check_corollary4(4, 2, LEG3, RootOfUnity(3, 1), 2, 2).holds
    assert idn.check_corollary4(5, 1, P1, ONE, 1, 2).holds
    assert idn.check_corollary4(4, 2, LEG3, RootOfUnity(3, 1), 2, 3).holds


def test_corollary4_equals_theorem3_constant_term():
    for n in range(4):
        whole = idn.check_theorem3(n, 2, CHI4, RootOfUnity(4, 1), 2, 1)
        scalar = idn.check_corollary4(n, 2, CHI4, RootOfUnity(4, 1), 2, 1)
        assert whole.lhs.coeff(0, 0) == scalar.lhs
        assert whole.rhs.coeff(0, 0) == scalar.rhs


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
        assert rep.lhs.evaluate(x, y) == rep.rhs.evaluate(x, y)


# --- verdicts on H's coefficients ------------------------------------------------------

def eager_xy_poly(coeffs, n, c, with_y=True):
    """n! [t^n] H(t) e^(c (x + y) t) as a filled matrix, every entry computed."""
    fld = coeffs[0].field
    mat = [[fld.zero] * (n + 1) for _ in range(n + 1)]
    for a in range(n + 1):
        for b in range(n - a + 1 if with_y else 1):
            mat[a][b] = coeffs[n - a - b] * (factorial(n) // (factorial(a) * factorial(b)) * c ** (a + b))
    return idn.BivariatePoly(fld, mat)


def test_slice_mismatch_equals_matrix_mismatch():
    # a verdict and first mismatch read off two slices of H must be those of
    # the filled matrices, for every change of one or two coefficients of a
    # slice; changes to zero move the trimmed shapes
    rng = random.Random(8)
    fld = cyclo_field(3)

    def elem():
        if rng.random() < 0.25:
            return fld.zero
        return fld.element([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(fld.degree)])

    cases = 0
    for n, with_y in product(range(7), (True, False)):
        for _ in range(3):
            c = rng.choice((1, 2, 3, 6))
            coeffs = tuple(elem() for _ in range(n + 1))
            changed = [coeffs]
            for r in range(n + 1):
                for new in (coeffs[r] + 1, fld.zero, elem()):
                    changed.append(coeffs[:r] + (new,) + coeffs[r + 1:])
            # two changes: the mismatch comes from the larger index
            for r, q in product(range(n + 1), repeat=2):
                if r < q:
                    changed.append(tuple(h + 1 if i in (r, q) else h for i, h in enumerate(coeffs)))
            for other in changed:
                lhs = idn.BivariatePoly.from_series(fld, coeffs, c, with_y)
                rhs = idn.BivariatePoly.from_series(fld, other, c, with_y)
                rep = idn._compare("t", {}, lhs, rhs)
                assert lhs._rows is None and rhs._rows is None  # decided on the slices
                left, right = eager_xy_poly(coeffs, n, c, with_y), eager_xy_poly(other, n, c, with_y)
                expected = left.first_mismatch(right)
                assert rep.first_mismatch == expected, (n, with_y, c, coeffs, other)
                assert rep.holds is (expected is None) is (coeffs == other)
                # the matrices filled on first read are the eager ones
                assert (lhs.rows, rhs.rows) == (left.rows, right.rows)
                assert idn._compare("t", {}, left, right).first_mismatch == expected
                cases += 1
    assert cases == 3 * sum(1 + 3 * (n + 1) + comb(n + 1, 2) for n in range(7)) * 2


def test_perturbed_h_fails_with_the_eager_first_mismatch(monkeypatch):
    # one changed coefficient of H, on one side of a swap only, must fail its
    # instance with the same first mismatch and printed sides as filled matrices.
    # Only h_0..h_n reach a side of degree n, so only r <= n is perturbed.
    series_h = idn._series_h

    def perturbed(block, n, m, wa, wb, *rest, **kw):
        h = series_h(block, n, m, wa, wb, *rest, **kw)
        r = (wa + 2 * wb + m) % 4
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
    monkeypatch.setattr(idn, "_BLOCK", None)
    records, summary = idn.sweep(grid)
    monkeypatch.setattr(idn, "_BLOCK", None)
    monkeypatch.setattr(idn, "_xy_poly", eager_xy_poly)
    eager, eager_summary = idn.sweep(grid)
    assert records == eager and summary == eager_summary
    failed = [r for r in records if not r["holds"]]
    assert summary["failures"] == len(failed) > 0
    mismatches = {(r["identity"], tuple(r["first_mismatch"])) for r in failed if "first_mismatch" in r}
    assert {tag for tag, _ in mismatches} == {"theorem1", "remark_m1", "theorem3", "remark_2_11"}
    assert len({fm for _, fm in mismatches}) >= 6
    assert all("lhs" in r and "rhs" in r for r in failed)


# --- parsing each (chi, xi) block once ----------------------------------------------

def test_run_instance_reparses_when_json_types_change(monkeypatch):
    # reusing the last parse must not let true or 1.0 pass where 1 did
    monkeypatch.setattr(idn, "_BLOCK", None)
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


def test_parse_shares_a_block_for_type_exact_equal_json_only(monkeypatch):
    monkeypatch.setattr(idn, "_BLOCK", None)
    chi, xi = {"modulus": 3, "kind": "index", "j": 1}, {"order": 2, "exponent": 1}
    block = idn._parse(chi, xi)
    assert idn._parse(chi, xi) is block
    # equal JSON in distinct objects shares the block
    assert idn._parse(json.loads(json.dumps(chi)), dict(xi)) is block
    # true, or 1.0, where 1 was is parsed again, and refused
    for bad, key in (({"order": 2, "exponent": True}, "exponent"), ({"order": 2.0, "exponent": 1}, "order")):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            idn._parse(chi, bad)
        assert idn._parse(chi, xi) is block
    # an equal root given differently is a new block
    assert idn._parse(chi, {"order": 2, "exponent": 3}) is not block


MINUS_JSON = {"order": 2, "exponent": 1}


def mod8(minus):
    """Table of the character mod 8 that is -1 at 3 and 7, with -1 given as minus."""
    one = {"order": 1, "exponent": 0}
    return [None, one, None, minus, None, one, None, minus]


def test_consecutive_blocks_report_their_own_params(monkeypatch):
    monkeypatch.setattr(idn, "_BLOCK", None)
    table = {"kind": "table", "values": [None, {"order": 1, "exponent": 0}, {"order": 4, "exponent": 2}]}
    blocks = [
        ({"modulus": 3, "kind": "index", "j": 1}, {"order": 2, "exponent": 1}),
        # equal roots that print differently
        ({"modulus": 3, "kind": "index", "j": 1}, {"order": 4, "exponent": 2}),
        # an equal character from a table, and the same twist again
        ({"modulus": 3, **table}, {"order": 4, "exponent": 2}),
        # equal characters whose tables print differently (mod 8 has no index)
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


# --- swap checkers ---------------------------------------------------------------

SWAP_TAGS = (
    "theorem1", "remark_m1", "corollary2", "m1_numbers",
    "theorem3", "remark_2_11", "corollary4", "eq_2_12",
)
ORDER_M_TAGS = ("theorem1", "corollary2", "theorem3", "corollary4")


def swap_check(tag, n, m, w1, w2):
    check = getattr(idn, f"check_{tag}")
    if tag in ORDER_M_TAGS:
        return check(n, m, P1, ONE, w1, w2)
    return check(n, P1, ONE, w1, w2)


@pytest.mark.parametrize("tag", SWAP_TAGS)
def test_swap_checkers_reject_bad_arguments(tag):
    assert swap_check(tag, 2, 1, 1, 2).holds
    bad = [(-1, 1, 1, 2), (2, 1, 0, 2), (2, 1, 1, 0)]
    if tag in ORDER_M_TAGS:
        bad.append((2, 0, 1, 2))
    for args in bad:
        with pytest.raises(ValueError, match="need"):
            swap_check(tag, *args)


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
def test_sides_equal_the_literal_printed_sums(chi, monkeypatch):
    # the swap checks cannot see an error that is symmetric in w1 and w2
    # (a side scaled by w1 + w2, a twist xi^(w1 w2)); the literal sums can
    monkeypatch.setattr(idn, "_BLOCK", None)
    count = 0
    for n, _, xi, wa, wb in side_cases([chi], 4):
        cond = bn.ambient_conductor(chi, xi.normalized())
        for tag, kw, ms in BUILDER_READINGS:
            for m in ms:
                head = (n,) if m is None else (n, m)
                side = getattr(idn, f"_{tag}_side")(*head, chi, xi, wa, wb, **kw)
                literal = getattr(_oracles, f"{tag}_side")(*head, chi, xi, wa, wb, cond, **kw)
                assert side == literal, (tag, kw, head, xi, wa, wb)
                count += 1
    assert len(ORACLE_CHARACTERS) == 6
    assert count == len(XIS) * 9 * 5 * 19  # 19 sides per (xi, wa, wb, n)


def test_run_instance_calls_checkers_and_builders_by_name(monkeypatch):
    # the names that perfbench's tracer wraps must be looked up at call time:
    # every checker, and the side builders of each reading that fails, here
    # made to fail by a changed h_0 on the w1 < w2 side
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
    monkeypatch.setattr(idn, "_BLOCK", None)
    xi = {"order": 1, "exponent": 0}
    for tag, checker in checkers.items():
        grid = {"identity": tag, "d": [1], "xi": xi, "k": [1], "w2": [2], "n_max": 1}
        desc = next(iter(idn.expand_grid(grid)))
        assert idn.run_instance(desc).holds is (tag not in builders)
        assert calls.get(checker) == 1
        if tag in builders:
            assert calls.get(builders[tag]) == 2 * len(idn._IDENTITIES[tag].readings)


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
        ({k: v for k, v in eq.items() if k != "k"}, "n_max", 0),
    ):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            list(idn.expand_grid({**base, key: val}))
    # eq_1_13 without k, and every swap identity, needs n_max
    for base in (eq, thm):
        with pytest.raises(ConfigError, match="'n_max'"):
            list(idn.expand_grid({k: v for k, v in base.items() if k not in ("k", "n_max")}))


def test_sweep_collects_instance_errors(monkeypatch):
    # a package error fails its instance only: the sweep records it and goes on
    check = idn.check_eq_1_13

    def failing(chi, xi, k, n):
        if k == 2:
            raise NotMultiplicative("injected")
        return check(chi, xi, k, n)

    monkeypatch.setattr(idn, "check_eq_1_13", failing)
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
    monkeypatch.setattr(idn, "check_eq_1_13", lambda chi, xi, k, n: 1 // 0)
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


def test_chunks_never_split_a_block():
    grids = [
        {"identity": ["theorem1", "m1_numbers"], "d": [1, 3, 4], "character": "all",
         "xi": [{"order": 1, "exponent": 0}, {"order": 2, "exponent": 1}],
         "w1": [1, 2], "w2": [1, 2], "m": [1, 2], "n_max": 2},
        {"identity": "eq_1_13", "d": [3], "character": "all", "xi": {"order": 3, "exponent": 1}, "k": [1, 2]},
    ]
    payloads = [(desc, False) for g in grids for desc in idn.expand_grid(g)]
    # equal JSON in other objects is the same block, as _parse sees it; True
    # for 1 is another block
    copies = [(json.loads(json.dumps(desc)), False) for desc, _ in payloads]
    retyped = [(dict(desc, xi={"order": True, "exponent": 0}) if desc["xi"]["order"] == 1 else desc, False)
               for desc, _ in payloads]
    for items in (payloads, copies, retyped):
        blocks = [idn._source(desc["chi"], desc["xi"]) for desc, _ in items]
        starts = {i for i in range(1, len(items)) if blocks[i] != blocks[i - 1]}
        assert len(starts) >= 20
        for size in (1, 2, 7, 40, len(items) - 1, len(items), len(items) + 1):
            chunks = idn._chunks(items, size)
            flat = [p for chunk in chunks for p in chunk]
            assert len(flat) == len(items) and all(a is b for a, b in zip(flat, items))
            assert all(len(chunk) >= size for chunk in chunks[:-1])
            ends = {sum(map(len, chunks[: i + 1])) for i in range(len(chunks) - 1)}
            assert ends <= starts
            if size == 1:
                assert ends == starts  # one block a chunk


def test_a_grown_block_equals_fresh_builds_and_computes_no_coefficient_twice(monkeypatch):
    # one block asked for n = 2, then 7, then 3: every side equals one built
    # by a fresh block at that n alone, and no (series, index) pair reaches
    # the kernel's Cauchy sum twice.  A Cauchy sum is named by the ids of its
    # two coordinate lists and its index; each series owns its lists, and the
    # counter keeps every list alive, so no id is reused.
    chi, xi = CHI4, RootOfUnity(3, 1)

    def sides(n):
        out = []
        for tag in SWAP_TAGS:
            entry = idn._IDENTITIES[tag]
            side = getattr(idn, entry.side)
            for wa, wb, m in product((1, 2, 3), (1, 2, 3), (1, 2, 3) if tag in ORDER_M_TAGS else (1,)):
                head = (n, m) if tag in ORDER_M_TAGS else (n,)
                for _, left, right in entry.readings:
                    out += [side(*head, chi, xi, wa, wb, **kw) for kw in (left, right)]
        return out

    def fresh():
        for f in (bn.family_series, bn._kernel_series, bn.numbers, bn.power_sum):
            f.cache_clear()
        monkeypatch.setattr(idn, "_BLOCK", None)

    cauchy = _kernel.cauchy_coeff
    computed, kept = {}, []

    def counting(anums, adens, bnums, bdens, n, red):
        key = (id(anums), id(bnums), n)
        computed[key] = computed.get(key, 0) + 1
        kept.append((anums, bnums))
        return cauchy(anums, adens, bnums, bdens, n, red)

    fresh()
    monkeypatch.setattr(_kernel, "cauchy_coeff", counting)
    grown = {}
    for n in (2, 7, 3):
        before = len(kept)
        grown[n] = sides(n)
        assert (len(kept) > before) is (n != 3)  # n = 3 reads what n = 7 computed
    monkeypatch.setattr(_kernel, "cauchy_coeff", cauchy)
    assert computed and set(computed.values()) == {1}
    for n, got in grown.items():
        fresh()
        assert got == sides(n), n


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
    monkeypatch.setattr(idn, "_BLOCK", None)
    records, _ = idn.sweep(grids, include_sides=True)
    monkeypatch.setattr(idn._Block, "get", lambda self, key, build: build())
    descs = [desc for g in grids for desc in idn.expand_grid(g)]
    assert records == [idn.report_to_record(idn.run_instance(d), include_sides=True) for d in descs]
    # the second reading of theorem1 and of remark_2_11 fails somewhere, so
    # a reading handed the first one's values shows
    for tag, reading in (("theorem1", "expansion_literal"), ("remark_2_11", "as_printed")):
        assert not all(r["readings"][reading] for r in records if r["identity"] == tag)


def test_memo_holds_only_the_last_block(monkeypatch):
    grid = {
        "identity": "theorem1",
        "d": [3],
        "character": {"kind": "index", "j": 1},
        "xi": [{"order": 1, "exponent": 0}, {"order": 2, "exponent": 1}],
        "w1": [1, 2],
        "w2": [1, 2],
        "m": [2],
        "n_max": 2,
    }
    monkeypatch.setattr(idn, "_BLOCK", None)
    idn.sweep(grid)
    both = idn._BLOCK
    monkeypatch.setattr(idn, "_BLOCK", None)
    idn.sweep({**grid, "xi": {"order": 2, "exponent": 1}})
    last = idn._BLOCK
    assert both is not last
    assert (both.chi, both.xi, both.cond) == (LEG3, MINUS, 1) == (last.chi, last.xi, last.cond)
    assert both.source == repr(({"modulus": 3, "kind": "index", "j": 1}, MINUS_JSON)) == last.source
    assert both.values == last.values


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
        monkeypatch.setattr(idn, "_BLOCK", None)
        records, summary = idn.sweep(grid, include_sides=True)
        expected += records
        totals = {key: totals.get(key, 0) + value for key, value in summary.items()}
    assert (totals["failures"] > 0) is perturb
    for jobs in (1, 2):
        monkeypatch.setattr(idn, "_BLOCK", None)
        assert idn.sweep(grids, include_sides=True, jobs=jobs) == (expected, totals), jobs


def test_each_cauchy_sum_reaches_the_kernel_once_per_sweep(monkeypatch):
    # blocks repeat across grids and tags, interleaved with others: each block
    # is built once a sweep, no (series, index) pair reaches the kernel's
    # Cauchy sum twice (named as in the grown-block test above), and a grid
    # swept again in the same sweep adds no Cauchy sum at all.  Weights 1 and
    # 2 give distinct twists xi^w for both orders, so no two H keys of a block
    # name one series.
    grids = shared_block_grids(weights=(1, 2))
    assert grids[-1] is grids[0]
    cauchy = _kernel.cauchy_coeff
    built = []

    class Counted(idn._Block):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.source)

    def cauchy_calls(grids):
        for f in (bn.family_series, bn._kernel_series, bn.numbers, bn.power_sum):
            f.cache_clear()
        computed, kept = {}, []

        def counting(anums, adens, bnums, bdens, n, red):
            key = (id(anums), id(bnums), n)
            computed[key] = computed.get(key, 0) + 1
            kept.append((anums, bnums))
            return cauchy(anums, adens, bnums, bdens, n, red)

        monkeypatch.setattr(_kernel, "cauchy_coeff", counting)
        monkeypatch.setattr(idn, "_BLOCK", None)
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
    sources = [idn._source(desc["chi"], desc["xi"]) for grid in grids for desc in idn.expand_grid(grid)]
    assert sorted(built) == sorted(set(sources)) and len(built) >= 6


@pytest.mark.parametrize("perturb", (False, True), ids=("as_is", "perturbed_h"))
def test_side_builders_run_for_failing_readings_only(perturb, monkeypatch):
    # verdicts come from the blocks' tables, a scalar side n! h_n decided by
    # index n alone and the other sides by h_0..h_n: a reading that fails
    # builds its two sides once, and one that holds builds none, so a sweep
    # where everything holds (the second readings aside) builds no side
    if perturb:
        perturb_h(monkeypatch)
    calls = count_side_builds(monkeypatch)
    monkeypatch.setattr(idn, "_BLOCK", None)
    records, summary = idn.sweep(shared_block_grids())
    failing = failing_readings(records)
    assert calls == {tag: 2 * count for tag, count in failing.items()}
    assert set(failing) == set(SWAP_TAGS)
    if perturb:
        assert all(failing.values())
    else:
        assert summary["holds"] == summary["total"]
        assert {tag for tag, count in failing.items() if count} == {"theorem1", "remark_2_11"}
        # without their second readings, nothing is built
        calls = count_side_builds(monkeypatch)
        grids = [dict(g, identity=[t for t in g["identity"] if t not in ("theorem1", "remark_2_11")])
                 for g in shared_block_grids() if isinstance(g["identity"], list)]
        idn.sweep(grids)
        assert sum(calls.values()) == 0


def test_held_reports_build_their_sides_from_their_own_block(monkeypatch):
    # a report that held builds lhs and rhs when they are read, equal to the
    # side builders' sides, from its own block even after the sweep's block
    # has moved on, and without replacing that block
    monkeypatch.setattr(idn, "_BLOCK", None)
    cases = [
        (idn.check_theorem1, idn._theorem1_side, (3, 2, LEG3, RootOfUnity(9, 1)), (1, 2), {}),
        (idn.check_remark_2_11, idn._remark_2_11_side, (3, P1, RootOfUnity(3, 1)), (2, 1), {"with_weights": True}),
        (idn.check_corollary4, idn._corollary4_side, (4, 2, CHI4, RootOfUnity(4, 1)), (2, 3), {}),
    ]
    reports = [check(*head, *ws) for check, _, head, ws, _ in cases]
    assert all(isinstance(rep, idn._HeldReport) and callable(vars(rep)["_sides"]) for rep in reports)
    last = idn._BLOCK
    got = [(rep.lhs, rep.rhs) for rep in reports]
    assert idn._BLOCK is last
    monkeypatch.setattr(idn, "_BLOCK", None)
    for (_, side, head, (w1, w2), kw), sides in zip(cases, got):
        assert sides == (side(*head, w1, w2, **kw), side(*head, w2, w1, **kw))
    theorem1, remark, _ = reports
    assert theorem1.readings == {"symmetric": True, "expansion_literal": False}
    assert remark.readings == {"weighted": True, "as_printed": False} and remark.holds
