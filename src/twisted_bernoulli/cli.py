"""Command-line interface.

Subcommands (parameters come from a JSON config file, see README):

  compute-numbers     generalized twisted Bernoulli numbers B^(k)_0..B^(k)_n
  compute-polynomial  coefficients of the degree-n polynomial
  power-sum           the twisted character power sum T_k(n)
  verify              identity sweep over a parameter grid
  volkenborn          finite-level p-adic convergence / shift traces

Output is deterministic: the same config always produces byte-identical
bytes.  Fractions are serialized as "num/den" strings, never floats.  JSON
output is the text of ``json.dumps(payload, indent=2)`` and a newline, made
by one encoder (``jsontext.text``) that writes only dicts with str keys,
lists, str, int, bool and None, and raises TypeError on anything else: a
float in a payload is refused, not merely absent.  CSV cells pass the same
check.  verify encodes nothing but its summary: each record's text is made
where its verdict is read (``identities.sweep_text``, in the worker that
read it at ``--jobs N``), and the texts are written one by one into the
output buffer (``_verify_json_bytes``).
Exit codes: 0 success / all checks hold, 1 at least one check failed,
2 configuration error (the diagnostic names the offending key).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import bernoulli as bn
from . import identities as idn
from . import jsontext
from . import volkenborn as vk
from .characters import DirichletCharacter, _json_int, character_from_json, modulus_from_json, root_from_json
from .errors import ConfigError, TwistedBernoulliError
from .exact import INFINITY, _is_p_power, cyclo_to_json, frac_to_str, is_prime


#: Most ``--jobs`` workers.  A forking pool starts all of its workers at
#: once, each a copy of the interpreter that grows its own series caches
#: (tens of MB), and workers beyond the cores add only forks and memory.
#: 64 is above the cores a sweep can use on common machines, and keeps a
#: mistyped value to a few GB of workers instead of thousands of processes.
MAX_JOBS = 64


class RunConfig(NamedTuple):
    """One CLI invocation: command, parameter block, output destination."""

    command: str
    params: dict
    out: str | None = None
    format: str = "json"
    jobs: int = 1


# ---------------------------------------------------------------------------
# config validation

def _require_keys(params: dict, required: set, optional: set = frozenset()):
    if not isinstance(params, dict):
        raise ConfigError("config must be a JSON object")
    for key in sorted(required):
        if key not in params:
            raise ConfigError(f"missing required key '{key}' in config")
    for key in params:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key '{key}' in config")


def _character(params: dict) -> DirichletCharacter:
    """The character of keys 'character' and 'modulus', which must agree."""
    chi = character_from_json(params["character"], modulus=params["modulus"])
    if chi.modulus != params["modulus"]:
        raise ConfigError("key 'modulus' disagrees with the character spec")
    return chi


def _spec_from_params(params: dict) -> bn.TwistSpec:
    return bn.twist_spec(_character(params), root_from_json(params["xi"]))


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code)

def _cmd_compute_numbers(params: dict):
    _require_keys(params, {"modulus", "character", "xi", "k", "n_max"})
    spec = _spec_from_params(params)
    k = bn.family_order(_json_int(params["k"], "k", 0), "k")
    n_max = bn.series_index(_json_int(params["n_max"], "n_max", 0), "n_max")
    return [cyclo_to_json(c) for c in bn.numbers(spec, k, n_max)], 0


def _cmd_compute_polynomial(params: dict):
    _require_keys(params, {"modulus", "character", "xi", "k", "n"})
    spec = _spec_from_params(params)
    k = bn.family_order(_json_int(params["k"], "k", 0), "k")
    n = bn.series_index(_json_int(params["n"], "n", 0), "n")
    return [cyclo_to_json(c) for c in bn.polynomial(spec, k, n)], 0


def _cmd_power_sum(params: dict):
    _require_keys(params, {"modulus", "character", "xi", "k", "n"})
    spec = _spec_from_params(params)
    k = bn.series_index(_json_int(params["k"], "k", 0), "k")
    n = bn.power_sum_top(_json_int(params["n"], "n", 0), "n")
    return cyclo_to_json(bn.power_sum(spec, k, n)), 0


def _cmd_verify(params: dict, jobs: int):
    """((summary, texts), exit code): each record's text is made where its
    verdict is read (``idn.sweep_text``)."""
    # include_sides belongs to the {"grids": [...]} form only
    if isinstance(params, dict) and ("grids" in params or "include_sides" in params):
        _require_keys(params, {"grids"}, {"include_sides"})
        grids = params["grids"]
        include_sides = params.get("include_sides", False)
        if not isinstance(include_sides, bool):
            raise ConfigError("key 'include_sides' must be true or false")
        # an empty grid lacks 'identity'; it is reported here, where it has a key
        if not isinstance(grids, list) or not all(isinstance(grid, dict) and grid for grid in grids):
            raise ConfigError("key 'grids' must be a list of non-empty grid objects")
    else:
        grids = [params] if isinstance(params, dict) else params
        include_sides = False
    if not isinstance(grids, list):
        raise ConfigError("verify config must be a grid object, a list, or {'grids': [...]}")
    if not grids:
        raise ConfigError("key 'grids' must list at least one grid; an empty sweep checks nothing")
    texts, summary = idn.sweep_text(grids, include_sides=include_sides, jobs=jobs)
    ok = summary["failures"] == 0 and summary["errors"] == 0
    return (summary, texts), 0 if ok else 1


def _val_str(v) -> str:
    return "inf" if v == INFINITY else frac_to_str(Fraction(v))


def _cmd_volkenborn(params: dict):
    kind = params.get("check") if isinstance(params, dict) else None
    if isinstance(params, dict) and kind not in ("convergence", "shift"):
        raise ConfigError("key 'check' must be \"convergence\" or \"shift\"")
    # shift is required by shift checks and unknown to convergence checks
    shift = {"shift"} if kind == "shift" else set()
    _require_keys(params, {"p", "check", "modulus", "character", "xi", "moments", *shift}, {"level_max"})
    d = modulus_from_json(params["modulus"])
    p = _json_int(params["p"], "p", 2)
    # every trace sums level 2 (level_max >= 2); bound p before the
    # trial-division primality test, whose cost grows with sqrt(p)
    if d * p * p > vk.MAX_LEVEL_TERMS:
        raise ConfigError(
            f"key 'p' is {p}, but level 2 sums d * p^2 terms, more than {vk.MAX_LEVEL_TERMS} "
            f"for d = {d}"
        )
    if not is_prime(p):
        raise ConfigError(f"key 'p' must be a prime, got {p}")
    chi = _character(params)
    if chi.value_conductor() != 1:
        raise ConfigError("key 'character' must take rational values (orders one and two)")
    xi = root_from_json(params["xi"])
    if not _is_p_power(xi.order, p):
        raise ConfigError(f"key 'xi' must have order 1 or a power of key 'p' = {p}")
    moments = params["moments"]
    moments = moments if isinstance(moments, list) else [moments]
    if not moments:
        raise ConfigError("key 'moments' must be an integer or a non-empty list of integers")
    moments = [bn.series_index(_json_int(m, "moments", 1 if kind == "shift" else 0), "moments") for m in moments]
    # each moment is checked once, so the list holds at most 65 of them
    if len(set(moments)) != len(moments):
        raise ConfigError("key 'moments' must not repeat a moment")
    # the p check above makes top at least 2; a default level never exceeds it
    top = vk.max_level(chi.modulus, p)
    level_max = min(vk.DEFAULT_LEVEL_CAP.get(p, 5), top)
    if "level_max" in params:
        level_max = _json_int(params["level_max"], "level_max", 2)
    if level_max > top:
        raise ConfigError(
            f"key 'level_max' is {level_max}, but a level above {top} sums more than "
            f"{vk.MAX_LEVEL_TERMS} terms d * p^N for d = {chi.modulus} and p = {p}"
        )
    if kind == "shift":
        n_shift = bn.power_sum_multiple(_json_int(params["shift"], "shift", 1), chi.modulus, "shift")
    checks = []
    for n in sorted(moments):
        spec = vk.integrand_spec(chi, xi, n)
        if kind == "convergence":
            trace = vk.convergence_check(spec, p, level_max)
            check = {"moment": n, "target": cyclo_to_json(vk.bernoulli_target(spec))}
        else:
            levels = tuple(range(1, level_max + 1))
            vals = tuple(vk.shift_identity_check(spec, p, n_shift, lev) for lev in levels)
            trace = vk.ConvergenceTrace(levels, vals)
            check = {"moment": n, "shift": n_shift}
        check["trace"] = [
            {"p": p, "level": lev, "valuation": _val_str(v)} for lev, v in zip(trace.levels, trace.valuations)
        ]
        check["passed"] = trace.passes()
        checks.append(check)
    all_pass = all(check["passed"] for check in checks)
    return {"p": p, "check": kind, "checks": checks}, 0 if all_pass else 1


#: Each subcommand with its help line and handler.  ``run`` calls verify's
#: itself, since it alone takes ``--jobs`` and returns record texts.
_COMMANDS = {
    "compute-numbers": ("compute a family of generalized twisted Bernoulli numbers", _cmd_compute_numbers),
    "compute-polynomial": ("compute one generalized twisted Bernoulli polynomial", _cmd_compute_polynomial),
    "power-sum": ("compute a twisted character power sum", _cmd_power_sum),
    "verify": ("verify identities over a parameter grid", _cmd_verify),
    "volkenborn": ("finite-level p-adic convergence and shift traces", _cmd_volkenborn),
}


# ---------------------------------------------------------------------------
# serialization

def _to_json_bytes(payload) -> bytes:
    """``json.dumps(payload, indent=2)`` and a newline, as ASCII bytes.

    Written by ``jsontext.text``, which raises TypeError on any value it
    cannot carry.
    """
    return (jsontext.text(payload) + "\n").encode("ascii")


def _verify_json_bytes(summary: dict, texts: list) -> bytes:
    """``_to_json_bytes({"summary": summary, "reports": records})`` from the
    records' texts, each made at its place in "reports" (``idn.sweep_text``).

    The summary is encoded here, and every text is written as it is, one at
    a time, into the one buffer, and dropped from ``texts`` once written, so
    the texts and the buffer together never hold much more than one output.
    """
    out = io.BytesIO()
    out.write(('{\n  "summary": ' + jsontext.text(summary, "\n  ") + ',\n  "reports": ').encode("ascii"))
    sep = "[" + idn.RECORD_PAD
    for i, text in enumerate(texts):
        out.write((sep + text).encode("ascii"))
        texts[i] = None
        sep = "," + idn.RECORD_PAD
    out.write(b"[]\n}\n" if not texts else b"\n  ]\n}\n")
    return out.getvalue()


def _cells(row: list) -> list:
    """row, once each cell has passed the JSON encoder's scalar check."""
    for cell in row:
        jsontext.scalar(cell)
    return row


def _to_csv_bytes(command: str, payload) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command == "volkenborn":
        writer.writerow(["moment", "p", "level", "valuation", "passed"])
        for check in payload["checks"]:
            for row in check["trace"]:
                writer.writerow(
                    _cells([check["moment"], row["p"], row["level"], row["valuation"], check["passed"]])
                )
    else:  # verify
        writer.writerow(["identity", "n", "m", "d", "chi", "xi", "w1", "w2", "k", "shift", "holds"])
        for rec in payload["reports"]:
            par = rec["params"]
            writer.writerow(
                _cells([
                    rec["identity"],
                    par.get("n", ""),
                    par.get("m", ""),
                    par.get("d", ""),
                    json.dumps(par.get("chi", ""), separators=(",", ":")),
                    f"{par['xi']['order']}^{par['xi']['exponent']}",
                    par.get("w1", ""),
                    par.get("w2", ""),
                    par.get("k", ""),
                    par.get("shift", ""),
                    rec["holds"],
                ])
            )
    return buf.getvalue().encode()


def run(config: RunConfig) -> tuple[int, bytes]:
    """Execute a validated run configuration; returns (exit_code, output bytes).

    The command and the format are checked before the command runs.
    """
    if config.command not in _COMMANDS:
        raise ConfigError(f"unknown command '{config.command}'")
    if config.format not in ("json", "csv"):
        raise ConfigError(f"unknown format '{config.format}'")
    if config.format == "csv" and config.command not in ("verify", "volkenborn"):
        raise ConfigError("csv output is limited to the verify and volkenborn commands")
    if config.command == "verify":
        (summary, texts), code = _cmd_verify(config.params, config.jobs)
        if config.format == "json":
            return code, _verify_json_bytes(summary, texts)
        # a CSV row reads its record parsed back from its text, one at a time
        payload = {"summary": summary, "reports": map(json.loads, texts)}
    else:
        payload, code = _COMMANDS[config.command][1](config.params)
    if config.format == "json":
        return code, _to_json_bytes(payload)
    return code, _to_csv_bytes(config.command, payload)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twisted-bernoulli",
        description="Exact twisted Bernoulli computations, identity sweeps, and p-adic traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the JSON parameter file")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", default="json", choices=("json", "csv"))
        cmd.add_argument(
            "--jobs", type=int, default=1, help=f"parallel workers for verify, at most {MAX_JOBS} (default: 1)"
        )
    return parser


def _check_writable(path: str):
    """OSError unless path can be written, leaving the file system as it was.

    An existing file is opened for writing without truncation; a missing one
    is created and removed again, so a run that fails leaves nothing behind.
    """
    try:
        open(path, "r+b").close()
    except FileNotFoundError:
        open(path, "xb").close()
        os.remove(path)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= MAX_JOBS:
        parser.error(f"argument --jobs: must be from 1 to {MAX_JOBS}")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            params = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    config = RunConfig(
        command=args.command,
        params=params,
        out=args.out,
        format=args.format,
        jobs=args.jobs,
    )
    if config.out:
        try:
            _check_writable(config.out)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    try:
        code, output = run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwistedBernoulliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if config.out:
        try:
            with open(config.out, "wb") as fh:
                fh.write(output)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
