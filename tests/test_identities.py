import random
from fractions import Fraction
from math import comb

import pytest

from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import identities as idn
from twisted_bernoulli.characters import from_table, principal
from twisted_bernoulli.errors import ConfigError
from twisted_bernoulli.exact import RootOfUnity

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
    spec = bn.twist_spec(P1, ONE)
    rep = idn.check_eq_1_13(spec, 2, 3)
    assert rep.holds
    # frozen via direct arithmetic: (B_2(3) - B_2)/2 = 3 = 0 + 1 + 2
    assert rep.lhs.rational_value() == 3
    assert (classical_poly_at(2, 3) - bernoulli_recurrence(2)[2]) / 2 == 3


def test_eq_1_13_convention_anchor():
    spec = bn.twist_spec(P1, ONE)
    rep = idn.check_eq_1_13(spec, 1, 1)
    assert rep.holds
    assert rep.lhs.rational_value() == 1  # T_0(0) = 0^0 = 1


def test_eq_1_13_twisted():
    spec = bn.twist_spec(CHI4, MINUS)
    rep = idn.check_eq_1_13(spec, 3, 2)
    assert rep.holds


def test_eq_1_13_requires_positive_k():
    spec = bn.twist_spec(P1, ONE)
    with pytest.raises(ValueError):
        idn.check_eq_1_13(spec, 0, 1)


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
    # weights and m start at 1, n_max at 0
    for key, val in (("w1", [0]), ("w2", [1, -2]), ("m", 0), ("n_max", -1)):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            list(idn.expand_grid({**thm, key: val}))


def test_sweep_collects_instance_errors():
    # k = 0 violates the eq_1_13 precondition; the sweep must record, not abort
    grid = {
        "identity": "eq_1_13",
        "d": [1],
        "character": "all",
        "xi": {"order": 1, "exponent": 0},
        "k": [0, 1],
        "shift": [1],
    }
    records, summary = idn.sweep(grid)
    assert summary["total"] == 2
    assert summary["errors"] == 1
    assert summary["holds"] == 1


def test_report_record_includes_sides_on_failure_only():
    spec = bn.twist_spec(P1, ONE)
    rep = idn.check_eq_1_13(spec, 2, 3)
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


# --- block memo ----------------------------------------------------------------

def test_memoized_sweep_matches_fresh_checks(monkeypatch):
    # a key that omits wb, m, last_twist_wa or with_weights hands one
    # instance another instance's side or reading
    grid = {
        "identity": [
            "theorem1", "remark_m1", "corollary2", "m1_numbers",
            "theorem3", "remark_2_11", "corollary4", "eq_2_12",
        ],
        "d": [3],
        "character": "all",
        "xi": {"order": 2, "exponent": 1},
        "w1": [1, 2, 3],
        "w2": [1, 2, 3],
        "m": [1, 2],
        "n_max": 2,
    }
    records, _ = idn.sweep(grid, include_sides=True)
    fresh = []
    for desc in idn.expand_grid(grid):
        monkeypatch.setattr(idn, "_MEMO", idn._BlockMemo())
        fresh.append(idn.report_to_record(idn.run_instance(desc), include_sides=True))
    assert records == fresh


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
    monkeypatch.setattr(idn, "_MEMO", idn._BlockMemo())
    idn.sweep(grid)
    both = idn._MEMO
    monkeypatch.setattr(idn, "_MEMO", idn._BlockMemo())
    idn.sweep({**grid, "xi": {"order": 2, "exponent": 1}})
    last = idn._MEMO
    assert both.block == (LEG3, MINUS, 1) == last.block
    assert both.values == last.values
