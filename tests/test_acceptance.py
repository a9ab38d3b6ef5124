"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  The identity sweep uses configs/acceptance_grid.json, the same
file documented for the CLI.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import cli
from twisted_bernoulli import identities as idn
from twisted_bernoulli import volkenborn as vk
from twisted_bernoulli.characters import from_table, principal
from twisted_bernoulli.exact import RootOfUnity, galois_apply

from _oracles import bernoulli_recurrence, t_valuation

ROOT = Path(__file__).resolve().parent.parent
GRID_CONFIG = ROOT / "configs" / "acceptance_grid.json"
# a child interpreter imports the package from this checkout, as pytest does
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))),
}
# sha256 of the sweep output; it changes only when what a user gets changes
GRID_SHA256 = "3513fd287a7bacc324ca2c74fabd891bf31da4a0c4ec521ae4347499b0cbada1"

ONE = RootOfUnity(1, 0)

# the (d, chi, xi) combos of the acceptance grid
GRID_XIS = [ONE, RootOfUnity(2, 1), RootOfUnity(3, 1), RootOfUnity(4, 1), RootOfUnity(9, 1)]


def grid_characters():
    out = []
    for d in (1, 2, 3):
        from twisted_bernoulli.characters import enumerate_cyclic

        out.extend(enumerate_cyclic(d))
    out.append(from_table(4, [0, 1, 0, 1]))
    out.append(from_table(4, [0, 1, 0, -1]))
    return out


def _report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"acceptance criterion {num} failed: {label}"


@pytest.fixture(scope="module")
def sweep_runs(tmp_path_factory):
    """The full identity sweep, run twice through the CLI: at --jobs 1, then at
    --jobs 2, whose records come back pickled from the worker processes."""
    outdir = tmp_path_factory.mktemp("sweep")
    outputs = []
    elapsed = []
    for i in (1, 2):
        out = outdir / f"run{i}.json"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "twisted_bernoulli",
                "verify",
                "--config",
                str(GRID_CONFIG),
                "--jobs",
                str(i),
                "--out",
                str(out),
            ],
            capture_output=True,
            env=CHILD_ENV,
        )
        elapsed.append(time.perf_counter() - t0)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(out.read_bytes())
    return outputs, elapsed


def test_criterion_1_classical_reduction():
    t0 = time.perf_counter()
    code, out = cli.run(
        cli.RunConfig(
            command="compute-numbers",
            params={
                "modulus": 1,
                "character": {"kind": "principal"},
                "xi": {"order": 1, "exponent": 0},
                "k": 1,
                "n_max": 10,
            },
        )
    )
    elapsed = time.perf_counter() - t0
    values = [Fraction(int(s.split("/")[0]), int(s.split("/")[1])) for s in json.loads(out)]
    oracle = bernoulli_recurrence(10)
    ok = (
        code == 0
        and values == oracle
        and values[1] == Fraction(-1, 2)
        and values[2] == Fraction(1, 6)
        and values[4] == Fraction(-1, 30)
        and elapsed < 1.0
    )
    _report(1, f"classical reduction matches recurrence oracle ({elapsed:.3f}s)", ok)


def test_criterion_2_identity_sweep(sweep_runs):
    outputs, elapsed = sweep_runs
    payload = json.loads(outputs[0])
    summary = payload["summary"]
    reports = payload["reports"]
    r211 = [r for r in reports if r["identity"] == "remark_2_11"]
    readings_ok = all(any(r["readings"].values()) for r in r211)
    ok = (
        summary["failures"] == 0
        and summary["errors"] == 0
        and summary["holds"] == summary["total"]
        and summary["total"] == 36450
        and readings_ok
        and elapsed[0] < 600.0
    )
    _report(
        2,
        f"identity sweep {summary['holds']}/{summary['total']} holds ({elapsed[0]:.1f}s)",
        ok,
    )


def test_criterion_3_cross_checker_coherence():
    ok = True
    for chi in grid_characters():
        for xi in GRID_XIS:
            for w1 in (1, 2, 3):
                for w2 in (1, 2, 3):
                    for n in range(7):
                        t1 = idn.check_theorem1(n, 1, chi, xi, w1, w2)
                        r1 = idn.check_remark_m1(n, chi, xi, w1, w2)
                        if (
                            t1.lhs.restrict_y0() != r1.lhs
                            or t1.rhs.restrict_y0() != r1.rhs
                            or t1.holds != r1.holds
                        ):
                            ok = False
                        t3 = idn.check_theorem3(n, 1, chi, xi, w1, w2)
                        r3 = idn.check_remark_2_11(n, chi, xi, w1, w2)
                        if (
                            t3.lhs.restrict_y0() != r3.lhs
                            or t3.rhs.restrict_y0() != r3.rhs
                            or t3.holds != r3.readings["weighted"]
                        ):
                            ok = False
    _report(3, "m=1, y=0 specializations agree with the independent checkers", ok)


def test_criterion_4_volkenborn_convergence():
    t0 = time.perf_counter()
    P1 = principal(1)
    ok = True
    for p in (2, 3, 5):
        xis = [ONE] + ([RootOfUnity(p, 1)] if p <= 3 else [])
        level_max = 7 if p <= 3 else 5
        for xi in xis:
            for n in range(5):
                trace = vk.convergence_check(vk.integrand_spec(P1, xi, n), p, level_max)
                if not trace.passes():
                    ok = False
    closed = vk.convergence_check(vk.integrand_spec(P1, ONE, 1), 3, 7)
    if closed.valuations != tuple(Fraction(N) for N in range(1, 8)):
        ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(4, f"volkenborn valuation traces nondecreasing ({elapsed:.1f}s)", ok)


def test_criterion_5_galois_equivariance():
    from twisted_bernoulli.characters import enumerate_cyclic

    chi9 = enumerate_cyclic(9)[2]  # values of order three
    # the automorphism zeta_L -> zeta_L^s acts as the s-th power map exactly
    # on roots of unity of order dividing L, so every character below takes
    # its values inside mu_L
    cases = {
        3: [(principal(1), RootOfUnity(3, 1)), (principal(3), RootOfUnity(3, 1)),
            (chi9, RootOfUnity(3, 1))],
        4: [(from_table(4, [0, 1, 0, -1]), RootOfUnity(4, 1)), (principal(1), RootOfUnity(4, 1))],
        9: [(principal(1), RootOfUnity(9, 1)), (principal(3), RootOfUnity(9, 1)),
            (chi9, RootOfUnity(9, 1))],
    }
    ok = True
    for L, pairs in cases.items():
        for chi, xi in pairs:
            for v in chi.values:
                assert v is None or L % v.normalized().order == 0
            for s in range(1, L):
                if gcd(s, L) != 1:
                    continue
                for k in (1, 2):
                    spec = bn.twist_spec(chi, xi, conductor=L)
                    spec_s = bn.twist_spec(chi**s, xi**s, conductor=L)
                    nums = bn.numbers(spec, k, 6)
                    nums_s = bn.numbers(spec_s, k, 6)
                    for n in range(7):
                        if galois_apply(nums[n], s) != nums_s[n]:
                            ok = False
    _report(5, "Galois action permutes families exactly (L in {3, 4, 9})", ok)


def test_criterion_6_vanishing_head():
    ok = True
    for chi in grid_characters():
        d = chi.modulus
        for xi in GRID_XIS:
            if (xi**d).normalized().is_one():
                continue  # the criterion targets twists with xi^d != 1
            spec = bn.twist_spec(chi, xi)
            base = bn.generating_series(spec, 1).coeffs(10)
            v1 = t_valuation(base)
            if v1 is None:
                continue
            for k in (2, 3):
                vk_ = t_valuation(bn.generating_series(spec, k).coeffs(10))
                if vk_ is not None and vk_ < k * v1:
                    ok = False
    _report(6, "order-k series valuation >= k times order-1 valuation", ok)


def test_criterion_7_determinism(sweep_runs):
    outputs, _ = sweep_runs
    digest = hashlib.sha256(outputs[0]).hexdigest()
    ok = outputs[0] == outputs[1] and digest == GRID_SHA256
    _report(7, f"sweep runs at --jobs 1 and 2 byte-identical, sha256 {digest[:8]}... ({len(outputs[0])} bytes)", ok)
