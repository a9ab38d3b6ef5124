import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from twisted_bernoulli import bernoulli as bn
from twisted_bernoulli import cli
from twisted_bernoulli import identities as idn
from twisted_bernoulli import volkenborn as vk
from twisted_bernoulli.characters import MAX_MODULUS
from twisted_bernoulli.errors import ConfigError, NotMultiplicative

from _oracles import cyclo_from_json, frac_from_str, time_budget

# a child interpreter imports the package from this checkout, as pytest does
SRC = str(Path(__file__).resolve().parent.parent / "src")
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))),
}


def run_cli(tmp_path, command, params, fmt="json", jobs=None, out=None):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(params))
    argv = [command, "--config", str(cfg), "--format", fmt]
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if out is not None:
        argv += ["--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "twisted_bernoulli"] + argv,
        capture_output=True,
        env=CHILD_ENV,
    )
    return proc


NUMS_PARAMS = {
    "modulus": 1,
    "character": {"kind": "principal"},
    "xi": {"order": 1, "exponent": 0},
    "k": 1,
    "n_max": 4,
}


def table(values):
    """A table character spec; 1 and -1 stand for the roots of order 1 and 2."""
    roots = {1: {"order": 1, "exponent": 0}, -1: {"order": 2, "exponent": 1}}
    return {"kind": "table", "values": [None if v is None else roots[v] for v in values]}


POLY_PARAMS = {
    "modulus": 4,
    "character": table([None, 1, None, -1]),
    "xi": {"order": 4, "exponent": 1},
    "k": 2,
    "n": 5,
}


def test_compute_numbers_classical_output(tmp_path):
    proc = run_cli(tmp_path, "compute-numbers", NUMS_PARAMS)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == ["1/1", "-1/2", "1/6", "0/1", "-1/30"]


def test_compute_numbers_cyclotomic_round_trip(tmp_path):
    params = dict(NUMS_PARAMS, xi={"order": 3, "exponent": 1}, n_max=3)
    proc = run_cli(tmp_path, "compute-numbers", params)
    assert proc.returncode == 0
    values = [cyclo_from_json(v) for v in json.loads(proc.stdout)]
    from twisted_bernoulli import bernoulli as bn
    from twisted_bernoulli.characters import principal
    from twisted_bernoulli.exact import RootOfUnity

    expected = bn.numbers(bn.twist_spec(principal(1), RootOfUnity(3, 1)), 1, 3)
    assert tuple(values) == expected


def test_compute_polynomial(tmp_path):
    params = {
        "modulus": 1,
        "character": {"kind": "principal"},
        "xi": {"order": 1, "exponent": 0},
        "k": 1,
        "n": 2,
    }
    proc = run_cli(tmp_path, "compute-polynomial", params)
    assert json.loads(proc.stdout) == ["1/6", "-1/1", "1/1"]


def test_power_sum(tmp_path):
    params = {
        "modulus": 4,
        "character": {"kind": "table", "values": [
            None, {"order": 1, "exponent": 0}, None, {"order": 2, "exponent": 1}]},
        "xi": {"order": 1, "exponent": 0},
        "k": 1,
        "n": 5,
    }
    proc = run_cli(tmp_path, "power-sum", params)
    assert json.loads(proc.stdout) == "3/1"


def test_verify_empty_grid(tmp_path):
    # a sweep that checks nothing is not evidence: no grid at all exits 2
    for params in ([], {"grids": []}):
        proc = run_cli(tmp_path, "verify", params)
        assert proc.returncode == 2
        assert "'grids'" in proc.stderr.decode()
        assert proc.stdout == b""


def test_verify_single_instance_sides(tmp_path):
    params = {
        "grids": [
            {
                "identity": "eq_1_13",
                "d": [1],
                "character": {"kind": "principal"},
                "xi": {"order": 1, "exponent": 0},
                "k": [2],
                "shift": [3],
            }
        ],
        "include_sides": True,
    }
    proc = run_cli(tmp_path, "verify", params)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["summary"] == {"total": 1, "holds": 1, "failures": 0, "errors": 0}
    report = payload["reports"][0]
    assert frac_from_str(report["lhs"]) == 3
    assert frac_from_str(report["rhs"]) == 3


def test_verify_failure_exit_code(tmp_path):
    # k = 0 breaches the eq_1_13 precondition: a configuration error naming k
    params = {
        "identity": "eq_1_13",
        "d": [1],
        "character": "all",
        "xi": {"order": 1, "exponent": 0},
        "k": [0],
        "shift": [1],
    }
    proc = run_cli(tmp_path, "verify", params)
    assert proc.returncode == 2
    assert "'k'" in proc.stderr.decode()


def test_verify_instance_error_exit_code(monkeypatch):
    # a package error inside one instance is recorded, and the run exits 1
    def failing(tag, block, args, sides):
        raise NotMultiplicative("injected")

    monkeypatch.setattr(idn, "_eq_1_13_report", failing)
    grid = {
        "identity": "eq_1_13",
        "d": [1],
        "xi": {"order": 1, "exponent": 0},
        "k": [2],
    }
    code, out = cli.run(cli.RunConfig(command="verify", params=grid))
    assert code == 1
    payload = json.loads(out)
    assert payload["summary"] == {"total": 1, "holds": 0, "failures": 0, "errors": 1}
    assert payload["reports"][0]["error"] == "injected"


def test_config_error_names_key(tmp_path):
    proc = run_cli(tmp_path, "compute-numbers", dict(NUMS_PARAMS, bogus=1))
    assert proc.returncode == 2
    assert "bogus" in proc.stderr.decode()

    missing = {k: v for k, v in NUMS_PARAMS.items() if k != "k"}
    proc = run_cli(tmp_path, "compute-numbers", missing)
    assert proc.returncode == 2
    assert "'k'" in proc.stderr.decode()

    # JSON booleans are not moments, and include_sides takes only true/false
    volk = {
        "p": 3,
        "check": "convergence",
        "modulus": 1,
        "character": {"kind": "principal"},
        "xi": {"order": 1, "exponent": 0},
        "level_max": 2,
    }
    grid = {
        "identity": "m1_numbers",
        "d": [1],
        "character": {"kind": "principal"},
        "xi": {"order": 1, "exponent": 0},
        "n_max": 0,
    }
    for command, params, key in (
        ("volkenborn", dict(volk, moments=[True]), "moments"),
        ("volkenborn", dict(volk, moments=True), "moments"),
        ("verify", {"grids": [grid], "include_sides": "no"}, "include_sides"),
        ("verify", {"grids": [grid], "include_sides": 1}, "include_sides"),
        # character and root specs are not coerced, and start at 1
        ("compute-numbers", dict(NUMS_PARAMS, xi={"order": 2.7, "exponent": 1}), "order"),
        ("compute-numbers", dict(NUMS_PARAMS, xi={"order": 0, "exponent": 0}), "order"),
        ("compute-numbers", dict(NUMS_PARAMS, modulus=0), "modulus"),
        ("verify", dict(grid, xi={"order": 2, "exponent": "1"}), "exponent"),
        # grid minima, and grids that expand to no instance
        ("verify", dict(grid, identity="eq_1_13", k=[0]), "k"),
        ("verify", dict(grid, identity="eq_1_13", k=[1], shift=[0]), "shift"),
        ("verify", dict(grid, identity="power_sum_series_check", n=[0]), "n"),
        ("verify", dict(grid, d=[0]), "d"),
        ("verify", dict(grid, xi=[]), "xi"),
        ("verify", dict(grid, d=[]), "d"),
        ("verify", dict(grid, w1=[]), "w1"),
        # volkenborn: p prime, at least one moment in range, a twist of
        # p-power order and a character with rational values
        ("volkenborn", dict(volk, p=4, moments=[1]), "p"),
        ("volkenborn", dict(volk, moments=[-1]), "moments"),
        ("volkenborn", dict(volk, moments=[]), "moments"),
        ("volkenborn", dict(volk, moments=[1, 1]), "moments"),
        ("volkenborn", dict(volk, check="shift", shift=1, moments=[0]), "moments"),
        # shift belongs to shift checks only, and they need it
        ("volkenborn", dict(volk, shift=1, moments=[1]), "shift"),
        ("volkenborn", dict(volk, check="shift", moments=[1]), "shift"),
        ("volkenborn", dict(volk, xi={"order": 5, "exponent": 1}, moments=[1]), "xi"),
        # a level of more than volkenborn.MAX_LEVEL_TERMS terms d p^N
        ("volkenborn", dict(volk, level_max=30, moments=[1]), "level_max"),
        ("volkenborn", dict(volk, modulus=4, character={"kind": "principal"}, level_max=14, moments=[1]), "level_max"),
        # p = 2^61 - 1 is prime; level 2 alone would exceed the budget, so it
        # is rejected before the trial-division primality test
        ("volkenborn", dict(volk, p=2**61 - 1, moments=[1]), "p"),
        ("volkenborn", dict(volk, modulus=4, character={"kind": "principal"}, p=1583, moments=[1]), "p"),
        (
            "volkenborn",
            dict(volk, modulus=7, character={"kind": "index", "j": 1}, moments=[1]),
            "character",
        ),
        # a series index above bernoulli.MAX_SERIES_INDEX = 64
        ("compute-numbers", dict(NUMS_PARAMS, n_max=65), "n_max"),
        ("compute-polynomial", dict(POLY_PARAMS, n=65), "n"),
        ("verify", dict(grid, n_max=65), "n_max"),
        ("verify", dict(grid, identity="eq_1_13", k=[1, 65]), "k"),
        ("verify", dict(grid, identity="power_sum_series_check", n=[1], series_order=65), "series_order"),
        ("volkenborn", dict(volk, moments=[1, 65]), "moments"),
        ("power-sum", dict(POLY_PARAMS, k=65), "k"),
        # an order above bernoulli.MAX_ORDER = 16, a power sum past MAX_POWER_SUM_N
        ("compute-numbers", dict(NUMS_PARAMS, k=17), "k"),
        ("compute-polynomial", dict(POLY_PARAMS, k=17), "k"),
        ("verify", dict(grid, identity="theorem1", m=[1, 17]), "m"),
        ("power-sum", dict(POLY_PARAMS, n=10**5 + 1), "n"),
        # a modulus above characters.MAX_MODULUS = 257, and power sums over
        # w d or s d terms with a top index w d - 1 above MAX_POWER_SUM_N
        ("compute-numbers", dict(NUMS_PARAMS, modulus=258), "modulus"),
        ("verify", dict(grid, d=[1, 258]), "d"),
        ("verify", dict(grid, character={"modulus": 258, "kind": "principal"}), "modulus"),
        ("volkenborn", dict(volk, modulus=258, moments=[1]), "modulus"),
        ("verify", dict(grid, identity="theorem1", d=[4], w1=[25001]), "w1"),
        ("verify", dict(grid, identity="theorem1", d=[2], w2=[1, 50001]), "w2"),
        ("verify", dict(grid, identity="eq_1_13", k=[1], d=[4], shift=[25001]), "shift"),
        ("verify", dict(grid, identity="power_sum_series_check", n=[100002]), "n"),
        ("volkenborn", dict(volk, check="shift", shift=100002, moments=[1]), "shift"),
        # a table of the wrong length, or one that is not a character
        ("compute-polynomial", dict(POLY_PARAMS, modulus=2), "values"),
        ("compute-polynomial", dict(POLY_PARAMS, character={"kind": "table", "values": []}), "values"),
        ("compute-polynomial", dict(POLY_PARAMS, character=table([None, None, None, -1])), "values"),
        ("compute-polynomial", dict(POLY_PARAMS, character=table([None, -1, None, -1])), "values"),
        ("power-sum", dict(POLY_PARAMS, modulus=5, n=1, character=table([None, 1, -1, 1, -1])), "values"),
        ("verify", dict(grid, d=[4], character=table([None, None, None, -1])), "values"),
        # index characters need a cyclic unit group
        ("compute-numbers", dict(NUMS_PARAMS, modulus=8, character={"kind": "index", "j": 1}), "kind"),
        # the keys of the {"grids": [...]} form, and a volkenborn check kind
        ("verify", {"grids": [{}]}, "grids"),
        ("verify", dict(grid, include_sides=True), "grids"),
        # more than identities.MAX_INSTANCES instances, counted before any is
        # built: this 0.5 KB grid expands to 3 744 000
        ("verify", dict(grid, identity="theorem1", w1=list(range(1, 61)), w2=list(range(1, 61)),
                        m=list(range(1, 17)), n_max=64), "grids"),
        ("verify", {"grids": [dict(grid, identity="remark_m1", w1=list(range(1, 201)),
                                   w2=list(range(1, 201)), n_max=9)] * 2}, "grids"),
        ("volkenborn", {k: v for k, v in volk.items() if k != "check"}, "check"),
        ("volkenborn", dict(volk, check="x", shift=1, moments=[1]), "check"),
    ):
        proc = run_cli(tmp_path, command, params)
        assert proc.returncode == 2
        assert f"'{key}'" in proc.stderr.decode()


def test_series_index_limit_runs():
    # the largest index, order and power-sum top the limits allow run; the
    # tests above refuse one more
    config = cli.RunConfig(command="compute-numbers", params=dict(NUMS_PARAMS, n_max=64))
    code, out = cli.run(config)
    assert code == 0 and len(json.loads(out)) == 65
    for command, params in (
        ("compute-numbers", dict(NUMS_PARAMS, k=bn.MAX_ORDER, n_max=8)),
        ("compute-polynomial", dict(POLY_PARAMS, k=bn.MAX_ORDER)),
        ("power-sum", dict(POLY_PARAMS, k=bn.MAX_SERIES_INDEX, n=bn.MAX_POWER_SUM_N)),
        ("compute-numbers", dict(NUMS_PARAMS, modulus=MAX_MODULUS, character={"kind": "principal"}, n_max=2)),
    ):
        assert cli.run(cli.RunConfig(command=command, params=params))[0] == 0
    # a weight, shift or power-sum-check n whose w d - 1 is the largest top index
    grid = {"d": [1], "character": {"kind": "principal"}, "xi": {"order": 1, "exponent": 0}}
    top = bn.MAX_POWER_SUM_N + 1
    for params in (
        dict(grid, identity="theorem1", w1=[top], n_max=1),
        dict(grid, identity="eq_1_13", k=[1], shift=[top]),
        dict(grid, identity="power_sum_series_check", n=[top], series_order=2),
    ):
        assert cli.run(cli.RunConfig(command="verify", params=params))[0] == 0, params


def test_unreadable_config(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "twisted_bernoulli", "compute-numbers", "--config",
         str(tmp_path / "missing.json")],
        capture_output=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2


def test_volkenborn_convergence_output(tmp_path):
    params = {
        "p": 3,
        "check": "convergence",
        "modulus": 1,
        "character": {"kind": "principal"},
        "xi": {"order": 1, "exponent": 0},
        "moments": [0, 1],
        "level_max": 4,
    }
    proc = run_cli(tmp_path, "volkenborn", params)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["p"] == 3
    m1 = next(c for c in payload["checks"] if c["moment"] == 1)
    assert [row["valuation"] for row in m1["trace"]] == ["1/1", "2/1", "3/1", "4/1"]
    assert m1["passed"] is True
    m0 = next(c for c in payload["checks"] if c["moment"] == 0)
    assert all(row["valuation"] == "inf" for row in m0["trace"])


def test_volkenborn_shift_output(tmp_path):
    params = {
        "p": 3,
        "check": "shift",
        "modulus": 1,
        "character": {"kind": "principal"},
        "xi": {"order": 3, "exponent": 1},
        "moments": [2],
        "shift": 1,
        "level_max": 4,
    }
    proc = run_cli(tmp_path, "volkenborn", params)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["checks"][0]["passed"] is True


def test_volkenborn_default_level_stays_within_the_term_budget(tmp_path):
    # p = 101 has no default level cap of its own: its default of 5 would
    # sum 101^5 terms, more than volkenborn.MAX_LEVEL_TERMS, so the default
    # is the top level, 3; a level_max above the top level still exits 2
    params = {
        "p": 101,
        "check": "convergence",
        "modulus": 1,
        "character": {"kind": "principal"},
        "xi": {"order": 1, "exponent": 0},
        "moments": [0],
    }
    proc = run_cli(tmp_path, "volkenborn", params)
    assert proc.returncode == 0, proc.stderr
    levels = [row["level"] for row in json.loads(proc.stdout)["checks"][0]["trace"]]
    assert max(levels) == vk.max_level(1, 101) == 3
    proc = run_cli(tmp_path, "volkenborn", dict(params, level_max=4))
    assert proc.returncode == 2
    assert "'level_max'" in proc.stderr.decode()


def test_volkenborn_csv(tmp_path):
    params = {
        "p": 2,
        "check": "convergence",
        "modulus": 1,
        "character": {"kind": "principal"},
        "xi": {"order": 2, "exponent": 1},
        "moments": [2],
        "level_max": 4,
    }
    proc = run_cli(tmp_path, "volkenborn", params, fmt="csv")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0] == "moment,p,level,valuation,passed"
    assert len(lines) == 5


def test_csv_rejected_for_scalar_commands(tmp_path, monkeypatch):
    proc = run_cli(tmp_path, "compute-numbers", NUMS_PARAMS, fmt="csv")
    assert proc.returncode == 2

    # a format is refused before any command runs
    def ran(*args):
        raise AssertionError("ran")

    handlers = ("_cmd_compute_numbers", "_cmd_compute_polynomial", "_cmd_power_sum", "_cmd_verify", "_cmd_volkenborn")
    for name in handlers:
        monkeypatch.setattr(cli, name, ran)
    for command, (text, _) in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, command, (text, ran))
    for command in ("compute-numbers", "compute-polynomial", "power-sum"):
        with pytest.raises(ConfigError, match="csv output is limited to the verify and volkenborn commands"):
            cli.run(cli.RunConfig(command, NUMS_PARAMS, format="csv"))
    for command in ("compute-numbers", "compute-polynomial", "power-sum", "verify", "volkenborn"):
        with pytest.raises(ConfigError, match="unknown format 'xml'"):
            cli.run(cli.RunConfig(command, NUMS_PARAMS, format="xml"))


def test_verify_csv(tmp_path):
    params = {
        "identity": "m1_numbers",
        "d": [1],
        "character": "all",
        "xi": {"order": 1, "exponent": 0},
        "w1": [1, 2],
        "w2": [1],
        "n_max": 2,
    }
    proc = run_cli(tmp_path, "verify", params, fmt="csv")
    assert proc.returncode == 0
    lines = proc.stdout.decode().splitlines()
    assert lines[0].startswith("identity,")
    assert len(lines) == 7


def test_determinism_byte_identical(tmp_path):
    params = {
        "identity": ["theorem1", "eq_2_12"],
        "d": [1, 3],
        "character": "all",
        "xi": [{"order": 3, "exponent": 1}],
        "w1": [1, 2],
        "w2": [1, 2],
        "m": [1, 2],
        "n_max": 3,
    }
    out1 = run_cli(tmp_path, "verify", params).stdout
    out2 = run_cli(tmp_path, "verify", params).stdout
    assert out1 == out2


def test_jobs_below_one_rejected(tmp_path):
    proc = run_cli(tmp_path, "verify", [], jobs=0)
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr.decode()


def test_jobs_above_max_rejected(tmp_path, capsys):
    # refused by the parser, in this process: no worker is started
    cfg = tmp_path / "config.json"
    cfg.write_text("[]")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--config", str(cfg), "--jobs", str(cli.MAX_JOBS + 1)])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_sweep_starts_no_more_processes_than_blocks(tmp_path, capsys, monkeypatch):
    # three (chi, xi) blocks make three shares at any --jobs above 2: the
    # command sweeps one share itself and forks a worker for each other one
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    grid = {
        "identity": "remark_m1",
        "d": [1, 3],
        "character": "all",
        "xi": {"order": 2, "exponent": 1},
        "w1": [1, 2],
        "w2": [1, 2],
        "n_max": 3,
    }
    serial = idn.sweep(grid)
    assert forks == []
    for jobs, workers in ((2, 1), (3, 2), (cli.MAX_JOBS, 2)):
        forks.clear()
        assert idn.sweep(grid, jobs=jobs) == serial
        assert forks == [os.getpid()] * workers, jobs
    # the largest --jobs the command takes starts no more workers either
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(grid))
    forks.clear()
    assert cli.main(["verify", "--config", str(cfg), "--jobs", str(cli.MAX_JOBS)]) == 0
    assert len(forks) == 2
    assert json.loads(capsys.readouterr().out)["reports"] == serial[0]
    with pytest.raises(ChildProcessError):  # every worker is reaped
        os.waitpid(-1, os.WNOHANG)


def test_jobs_flag_preserves_output(tmp_path):
    params = {
        "identity": "corollary4",
        "d": [1, 2],
        "character": "all",
        "xi": [{"order": 1, "exponent": 0}, {"order": 3, "exponent": 1}],
        "w1": [1, 2],
        "w2": [1, 2],
        "m": [1, 2],
        "n_max": 3,
    }
    serial = run_cli(tmp_path, "verify", params, jobs=1).stdout
    parallel = run_cli(tmp_path, "verify", params, jobs=2).stdout
    assert serial == parallel


def test_out_file(tmp_path):
    target = tmp_path / "out.json"
    proc = run_cli(tmp_path, "compute-numbers", NUMS_PARAMS, out=target)
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert json.loads(target.read_text()) == ["1/1", "-1/2", "1/6", "0/1", "-1/30"]


def test_unwritable_out_file(tmp_path):
    # a path that cannot be written exits 2 with one line, like an unreadable config
    proc = run_cli(tmp_path, "compute-numbers", NUMS_PARAMS, out=tmp_path / "missing" / "out.json")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().startswith("error: cannot write output:")
    assert "Traceback" not in proc.stderr.decode()


def test_unwritable_out_is_refused_before_the_run(tmp_path, capsys):
    # the acceptance grid takes seconds of CPU to verify; an --out that
    # cannot be written, a missing directory or a directory, is refused first
    config = Path(__file__).resolve().parent.parent / "configs" / "acceptance_grid.json"
    for out in (tmp_path / "missing" / "out.json", tmp_path):
        start = time.process_time()
        code = cli.main(["verify", "--config", str(config), "--out", str(out)])
        elapsed = time.process_time() - start
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write output:")
        assert elapsed < 0.25, elapsed
    assert sorted(tmp_path.iterdir()) == []


def test_out_file_is_left_as_it_was_when_the_run_exits_2(tmp_path):
    bad = {**NUMS_PARAMS, "n_max": -1}
    existing = tmp_path / "existing.json"
    existing.write_bytes(b"kept\n")
    assert run_cli(tmp_path, "compute-numbers", bad, out=existing).returncode == 2
    assert existing.read_bytes() == b"kept\n"
    fresh = tmp_path / "fresh.json"
    assert run_cli(tmp_path, "compute-numbers", bad, out=fresh).returncode == 2
    assert not fresh.exists()


def test_run_config_in_process():
    code, out = cli.run(cli.RunConfig(command="compute-numbers", params=NUMS_PARAMS))
    assert code == 0
    assert json.loads(out) == ["1/1", "-1/2", "1/6", "0/1", "-1/30"]


# --- the output writer ----------------------------------------------------------

def verify_payload(grids, include_sides=False):
    records, summary = idn.sweep(grids, include_sides=include_sides)
    return {"summary": summary, "reports": records}


SMALL_GRID = {
    "identity": ["theorem1", "corollary4"],
    "d": [3],
    "character": "all",
    "xi": {"order": 3, "exponent": 1},
    "w1": [1, 2],
    "w2": [1, 2],
    "m": [1, 2],
    "n_max": 2,
}


def test_writer_matches_json_dumps():
    text = ["", "plain", "caf\u00e9 \u65e5\u672c \U0001f600 \ud800", "\x00\x1f\t\n\r\"\\/\x7f"]
    payloads = [
        {}, [], {"a": {}}, {"a": []}, [[]], [{}], [[[]], {"b": {"c": []}}],
        *text, [text], {s: s for s in text},
        0, -5, 10**300, -(10**300), [10**300, -(10**300), -1],
        True, False, None, [True, False, None], {"t": True, "f": False, "n": None},
        {"summary": {"total": 1}, "reports": [{"identity": "x", "params": {}, "sides": [], "holds": True}]},
        ["1/1", "-1/2", "1/6"],
        verify_payload([SMALL_GRID]),
        verify_payload([SMALL_GRID], include_sides=True),
    ]
    for payload in payloads:
        assert cli._to_json_bytes(payload) == (json.dumps(payload, indent=2) + "\n").encode(), payload


def test_writer_refuses_floats_and_unknown_types():
    record = {"identity": "theorem1", "params": {"n": 2, "w1": 1}, "holds": True}
    for bad in (0.5, 1.0, float("nan"), Fraction(1, 2), (1, 2), {1: "a"}, {"a": {2.0: "b"}}, b"x", {"a"}):
        for payload in (
            bad,
            {"summary": {"total": 1}, "reports": [{**record, "params": {**record["params"], "m": bad}}]},
            [["1/1", "0/1"], ["2/1", bad]],
        ):
            with pytest.raises(TypeError):
                cli._to_json_bytes(payload)
    checks = [{"moment": 1, "trace": [{"p": 2, "level": 1, "valuation": 1.0}], "passed": True}]
    with pytest.raises(TypeError):
        cli._to_csv_bytes("volkenborn", {"p": 2, "check": "convergence", "checks": checks})


# every tag; both characters mod 3 and two twists make blocks of each kind
ALL_TAG_GRIDS = [
    {"identity": [tag for tag in idn._IDENTITIES if tag not in ("eq_1_13", "power_sum_series_check")],
     "d": [1, 3], "character": "all", "xi": [{"order": 2, "exponent": 1}, {"order": 3, "exponent": 1}],
     "w1": [1, 2], "w2": [1, 2], "m": [1, 2], "n_max": 2},
    {"identity": ["eq_1_13", "power_sum_series_check"], "d": [3], "character": "all",
     "xi": {"order": 3, "exponent": 1}, "k": [1, 2], "n": [1, 2], "series_order": 3},
]


@pytest.mark.parametrize("altered", (False, True), ids=("as_is", "perturbed_and_failing"))
@pytest.mark.parametrize("include_sides", (False, True), ids=("verdicts", "sides"))
def test_record_texts_print_what_json_dumps_would(include_sides, altered, monkeypatch):
    # verify writes each record's text as it was made where its verdict was
    # read; the bytes must be json.dumps of the records sweep() parses back
    # from those texts, at any --jobs, over every tag, with held, failing and
    # error records, and the summary must count those records.  Altered: H
    # changes on the wa < wb side (so some records print their first
    # mismatch and sides) and raises a package error in one block for
    # weights {1, 2} at m = 2; --jobs workers inherit both by fork.
    if altered:
        series_h = idn._series_h

        def changed(block, n, m, wa, wb, *rest):
            if block.chi.modulus == 3 and block.xi.order == 3 and m == 2 and {wa, wb} == {1, 2}:
                raise NotMultiplicative("injected")
            h = series_h(block, n, m, wa, wb, *rest)
            return (h[0] + 1,) + h[1:] if wa < wb else h

        monkeypatch.setattr(idn, "_series_h", changed)
    config = {"grids": ALL_TAG_GRIDS, "include_sides": include_sides}
    records, summary = idn.sweep(ALL_TAG_GRIDS, include_sides=include_sides)
    assert {r["identity"] for r in records} == set(idn._IDENTITIES)
    assert summary == {
        "total": len(records),
        "holds": sum(1 for r in records if r["holds"]),
        "failures": sum(1 for r in records if not r["holds"] and "error" not in r),
        "errors": sum(1 for r in records if "error" in r),
    }
    assert (summary["errors"] > 0) is altered
    assert any("first_mismatch" in r for r in records) is altered
    assert any("lhs" in r for r in records) is (altered or include_sides)
    expected = (json.dumps({"summary": summary, "reports": records}, indent=2) + "\n").encode()
    for jobs in (1, 2, 3):
        code, out = cli.run(cli.RunConfig(command="verify", params=config, jobs=jobs))
        assert out == expected, jobs
        assert code == (1 if altered else 0)


def test_record_texts_refuse_floats(monkeypatch):
    # a value outside the scalar table raises TypeError where the record's
    # text is made: in a held swap record's template (a verdict of theorem1's
    # second reading) and in a record made from its report (eq_1_13)
    theorem1 = {"identity": "theorem1", "d": [1], "character": "all", "xi": {"order": 2, "exponent": 1},
                "w1": [1, 2], "w2": [1, 2], "m": [1], "n_max": 1}
    eq_1_13 = {"identity": "eq_1_13", "d": [1], "character": "all", "xi": {"order": 1, "exponent": 0},
               "k": [1], "shift": [1]}
    verdicts = idn._verdicts
    report = idn._eq_1_13_report

    def half_verdict(block, tag, ns, m, w1, w2):
        return [[True] * len(ns), [0.5] * len(ns)]

    def float_param(tag, block, args, sides):
        rep = report(tag, block, args, sides)
        return rep._replace(params={**rep.params, "k": 1.0})

    for name, fake, grid in (("_verdicts", half_verdict, theorem1), ("_eq_1_13_report", float_param, eq_1_13)):
        monkeypatch.setattr(idn, name, fake)
        for jobs in (1, 2):
            with pytest.raises(TypeError, match="float"):
                cli.run(cli.RunConfig(command="verify", params=grid, jobs=jobs))
        monkeypatch.setattr(idn, "_verdicts", verdicts)
        monkeypatch.setattr(idn, "_eq_1_13_report", report)


# --- every single-node mutation of the example configs ------------------------

EXAMPLES = Path(__file__).resolve().parent.parent / "configs" / "examples"
EXAMPLE_COMMANDS = {
    "compute_numbers": "compute-numbers",
    "compute_polynomial": "compute-polynomial",
    "power_sum": "power-sum",
    "verify_small": "verify",
    "volkenborn_convergence": "volkenborn",
    "volkenborn_shift": "volkenborn",
}
REPLACEMENTS = (True, False, "x", 1.5, None, [], {}, -1, 0, 2)
# past every limit (characters.MAX_ROOT_ORDER and MAX_MODULUS, bernoulli.MAX_SERIES_INDEX,
# MAX_ORDER and MAX_POWER_SUM_N), one of them past 64 bits
HUGE = (10**30, 2**63)
# per example, the keys a limit bounds: root orders, moduli, and the keys that set a
# series length, an order or a power-sum length
BOUNDED_KEYS = {
    "compute_numbers": {"order", "modulus", "n_max", "k"},
    "compute_polynomial": {"order", "modulus", "n", "k"},
    "power_sum": {"order", "modulus", "n", "k"},
    "verify_small": {"order", "d", "n_max", "k", "series_order", "m", "w1", "w2", "shift"},
    "volkenborn_convergence": {"order", "modulus", "moments"},
    "volkenborn_shift": {"order", "modulus", "moments", "shift"},
}
# per example, whole values that must exit 2 naming the key they are given under:
# a character whose own modulus is not the one its config gives (a grid's d, a
# command's modulus)
REFUSED = {
    "verify_small": [(("grids", 1, "character"), [{"modulus": 5, "kind": "index", "j": 1}])],
    "compute_numbers": [(("character",), {"modulus": 5, "kind": "principal"})],
}
# wall seconds any one mutated config may run; a huge value must be refused, not run
CASE_BUDGET_S = 10
DELETE = object()


def json_paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_paths(child, path + (key,))


def node_at(value, path):
    for key in path:
        value = value[key]
    return value


def mutated(value, path, new):
    """A copy of value with the node at path replaced by new, or deleted by DELETE."""
    if not path:
        return new
    head, rest = path[0], path[1:]
    out = value.copy()
    if rest or new is not DELETE:
        out[head] = mutated(value[head], rest, new)
    else:
        del out[head]
    return out


def last_key(path):
    """The last str key on path, or None: the key a value at path is given under."""
    return next((key for key in reversed(path) if isinstance(key, str)), None)


def config_mutations(config, bounded=frozenset()):
    """(path, new, config) for the config itself, each node replaced by each of
    REPLACEMENTS (and of HUGE under a key in bounded), and each key or list
    element deleted (new is DELETE)."""
    yield (), None, config
    for path in json_paths(config):
        for new in REPLACEMENTS + (HUGE if path and last_key(path) in bounded else ()):
            yield path, new, mutated(config, path, new)
        if path:
            yield path, DELETE, mutated(config, path, DELETE)


def test_example_config_mutations_exit_cleanly(tmp_path, capsys):
    # no mutation lets an exception escape or runs past its budget, a
    # configuration error names the mutated key or a key above it (the root
    # has no key to name), and a huge value under a bounded key, or a
    # REFUSED value, exits 2 naming that key
    cfg = tmp_path / "config.json"
    cases = 0
    for path_to_example in sorted(EXAMPLES.glob("*.json")):
        stem = path_to_example.stem
        example = json.loads(path_to_example.read_text())
        refused = REFUSED.get(stem, [])
        mutations = [*config_mutations(example, BOUNDED_KEYS[stem]),
                     *((path, new, mutated(example, path, new)) for path, new in refused)]
        for path, new, config in mutations:
            cfg.write_text(json.dumps(config))
            with time_budget(CASE_BUDGET_S):
                code = cli.main([EXAMPLE_COMMANDS[stem], "--config", str(cfg), "--out", os.devnull])
            err = capsys.readouterr().err
            case = (stem, path, config)
            assert code in (0, 1, 2), case
            if code == 2:
                keys = [key for key in path if isinstance(key, str)]
                assert not keys or any(f"'{key}'" in err for key in keys), (case, err)
            if new in HUGE or (path, new) in refused:
                assert code == 2 and f"'{last_key(path)}'" in err, (case, err)
            cases += 1
    # 17 nodes set a series length: n_max twice, n, k and its 4 values, and
    # moments with its 5 and 2 values; 7 more set an order or a power-sum
    # length: k of compute_numbers and compute_polynomial, n and k of
    # power_sum, and m with its 2 values; 21 more set a modulus or the
    # length of a power sum over w d or s d terms: modulus in the five
    # other examples, d of both grids with its value, w1 and w2 with their
    # 2 values, shift with its 4 values, and the volkenborn shift; and two
    # REFUSED values
    assert cases == 1355 + 2 * (17 + 7 + 21) + 2
