import json
import os
import subprocess
import sys
from pathlib import Path

from twisted_bernoulli import cli
from twisted_bernoulli import identities as idn
from twisted_bernoulli.errors import NotMultiplicative
from twisted_bernoulli.exact import cyclo_from_json, frac_from_str

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

    expected = bn.numbers(bn.twist_spec(principal(1), RootOfUnity(3, 1)), 1, 3).numbers
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
    def failing(chi, xi, k, n):
        raise NotMultiplicative("injected")

    monkeypatch.setattr(idn, "check_eq_1_13", failing)
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
        ("volkenborn", {k: v for k, v in volk.items() if k != "check"}, "check"),
        ("volkenborn", dict(volk, check="x", shift=1, moments=[1]), "check"),
    ):
        proc = run_cli(tmp_path, command, params)
        assert proc.returncode == 2
        assert f"'{key}'" in proc.stderr.decode()


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


def test_csv_rejected_for_scalar_commands(tmp_path):
    proc = run_cli(tmp_path, "compute-numbers", NUMS_PARAMS, fmt="csv")
    assert proc.returncode == 2


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


def test_run_config_in_process():
    code, out = cli.run(cli.RunConfig(command="compute-numbers", params=NUMS_PARAMS))
    assert code == 0
    assert json.loads(out) == ["1/1", "-1/2", "1/6", "0/1", "-1/30"]


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


def config_mutations(config):
    """(path, config) for the config itself, each node replaced by each of
    REPLACEMENTS, and each key or list element deleted."""
    yield (), config
    for path in json_paths(config):
        for new in REPLACEMENTS:
            yield path, mutated(config, path, new)
        if path:
            yield path, mutated(config, path, DELETE)


def test_example_config_mutations_exit_cleanly(tmp_path, capsys):
    # no mutation lets an exception escape, and a configuration error names
    # the mutated key or a key above it (the root has no key to name)
    cfg = tmp_path / "config.json"
    cases = 0
    for path_to_example in sorted(EXAMPLES.glob("*.json")):
        command = EXAMPLE_COMMANDS[path_to_example.stem]
        for path, config in config_mutations(json.loads(path_to_example.read_text())):
            cfg.write_text(json.dumps(config))
            code = cli.main([command, "--config", str(cfg), "--out", os.devnull])
            err = capsys.readouterr().err
            case = (path_to_example.stem, path, config)
            assert code in (0, 1, 2), case
            if code == 2:
                keys = [key for key in path if isinstance(key, str)]
                assert not keys or any(f"'{key}'" in err for key in keys), (case, err)
            cases += 1
    assert cases == 1331
