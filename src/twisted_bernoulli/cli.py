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
by a small writer (``_to_json_bytes``) that encodes one list element at a
time into one buffer, so a sweep's millions of chunks are never held at
once.  It writes only dicts with str keys, lists, str, int, bool and None,
and raises TypeError on anything else: a float in a payload is refused, not
merely absent.  CSV cells pass the same check.
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
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import bernoulli as bn
from . import identities as idn
from . import volkenborn as vk
from .characters import _json_int, character_from_json, root_from_json
from .errors import ConfigError, TwistedBernoulliError
from .exact import INFINITY, _is_p_power, cyclo_to_json, frac_to_str, is_prime


@dataclass
class RunConfig:
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


def _int_param(params: dict, key: str, minimum: int | None = None) -> int:
    return _json_int(params[key], key, minimum)


def _spec_from_params(params: dict) -> bn.TwistSpec:
    chi = character_from_json(params["character"], modulus=params["modulus"])
    if chi.modulus != params["modulus"]:
        raise ConfigError("key 'modulus' disagrees with the character spec")
    xi = root_from_json(params["xi"])
    return bn.twist_spec(chi, xi)


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, exit_code)

def _cmd_compute_numbers(params: dict):
    _require_keys(params, {"modulus", "character", "xi", "k", "n_max"})
    spec = _spec_from_params(params)
    k = bn.family_order(_int_param(params, "k", 0), "k")
    n_max = bn.series_index(_int_param(params, "n_max", 0), "n_max")
    fam = bn.numbers(spec, k, n_max)
    return [cyclo_to_json(c) for c in fam.numbers], 0


def _cmd_compute_polynomial(params: dict):
    _require_keys(params, {"modulus", "character", "xi", "k", "n"})
    spec = _spec_from_params(params)
    k = bn.family_order(_int_param(params, "k", 0), "k")
    n = bn.series_index(_int_param(params, "n", 0), "n")
    poly = bn.polynomial(spec, k, n)
    return [cyclo_to_json(c) for c in poly.coeffs], 0


def _cmd_power_sum(params: dict):
    _require_keys(params, {"modulus", "character", "xi", "k", "n"})
    spec = _spec_from_params(params)
    k = bn.series_index(_int_param(params, "k", 0), "k")
    n = bn.power_sum_top(_int_param(params, "n", 0), "n")
    return cyclo_to_json(bn.power_sum(spec, k, n)), 0


def _cmd_verify(params: dict, jobs: int):
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
    records, summary = idn.sweep(grids, include_sides=include_sides, jobs=jobs)
    payload = {"summary": summary, "reports": records}
    ok = summary["failures"] == 0 and summary["errors"] == 0
    return payload, 0 if ok else 1


def _val_str(v) -> str:
    return "inf" if v == INFINITY else frac_to_str(Fraction(v))


def _cmd_volkenborn(params: dict):
    kind = params.get("check") if isinstance(params, dict) else None
    if isinstance(params, dict) and kind not in ("convergence", "shift"):
        raise ConfigError("key 'check' must be \"convergence\" or \"shift\"")
    # shift is required by shift checks and unknown to convergence checks
    shift = {"shift"} if kind == "shift" else set()
    _require_keys(params, {"p", "check", "modulus", "character", "xi", "moments", *shift}, {"level_max"})
    p = _int_param(params, "p", 2)
    d = _int_param(params, "modulus", 1)
    # every trace sums level 2 (level_max >= 2); bound p before the
    # trial-division primality test, whose cost grows with sqrt(p)
    if d * p * p > vk.MAX_LEVEL_TERMS:
        raise ConfigError(
            f"key 'p' is {p}, but level 2 sums d * p^2 terms, more than {vk.MAX_LEVEL_TERMS} "
            f"for d = {d}"
        )
    if not is_prime(p):
        raise ConfigError(f"key 'p' must be a prime, got {p}")
    chi = character_from_json(params["character"], modulus=params["modulus"])
    if chi.modulus != params["modulus"]:
        raise ConfigError("key 'modulus' disagrees with the character spec")
    if chi.value_conductor() != 1:
        raise ConfigError("key 'character' must take rational values (orders one and two)")
    xi = root_from_json(params["xi"])
    if not _is_p_power(xi.normalized().order, p):
        raise ConfigError(f"key 'xi' must have order 1 or a power of key 'p' = {p}")
    moments = params["moments"]
    moments = moments if isinstance(moments, list) else [moments]
    if not moments:
        raise ConfigError("key 'moments' must be an integer or a non-empty list of integers")
    moments = [bn.series_index(_json_int(m, "moments", 1 if kind == "shift" else 0), "moments") for m in moments]
    level_max = vk.DEFAULT_LEVEL_CAP.get(p, 5)
    if "level_max" in params:
        level_max = _int_param(params, "level_max", 2)
    top = vk.max_level(chi.modulus, p)
    if level_max > top:
        raise ConfigError(
            f"key 'level_max' is {level_max}, but a level above {top} sums more than "
            f"{vk.MAX_LEVEL_TERMS} terms d * p^N for d = {chi.modulus} and p = {p}"
        )
    checks = []
    all_pass = True
    if kind == "convergence":
        for n in sorted(moments):
            spec = vk.integrand_spec(chi, xi, n)
            trace = vk.convergence_check(spec, p, level_max)
            passed = trace.passes()
            all_pass = all_pass and passed
            checks.append(
                {
                    "moment": n,
                    "target": cyclo_to_json(vk.bernoulli_target(spec)),
                    "trace": [
                        {"p": p, "level": lev, "valuation": _val_str(v)}
                        for lev, v in zip(trace.levels, trace.valuations)
                    ],
                    "passed": passed,
                }
            )
    else:
        n_shift = _int_param(params, "shift", 1)
        for k in sorted(moments):
            spec = vk.integrand_spec(chi, xi, k)
            rows = []
            vals = []
            for lev in range(1, level_max + 1):
                res = vk.shift_identity_check(spec, p, n_shift, lev)
                vals.append(res.valuation)
                rows.append({"p": p, "level": lev, "valuation": _val_str(res.valuation)})
            passed = vk.ConvergenceTrace(
                levels=tuple(range(1, level_max + 1)), valuations=tuple(vals)
            ).passes()
            all_pass = all_pass and passed
            checks.append({"moment": k, "shift": n_shift, "trace": rows, "passed": passed})
    return {"p": p, "check": kind, "checks": checks}, 0 if all_pass else 1


# ---------------------------------------------------------------------------
# serialization

#: JSON text of each scalar type output may carry, by exact type: no float,
#: and no subclass but bool.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}


def _scalar(value) -> str:
    """The JSON text of one scalar; TypeError for any type not in ``_SCALARS``."""
    text = _SCALARS.get(type(value))
    if text is None:
        raise TypeError(f"output cannot carry {type(value).__name__} {value!r}")
    return text(value)


def _to_json_bytes(payload) -> bytes:
    """``json.dumps(payload, indent=2)`` and a newline, as ASCII bytes.

    Depth first, each value by its exact type: dicts (str keys only), lists
    and the scalars of ``_SCALARS``; anything else raises TypeError.  The
    pending chunks are joined into the buffer after each list element, so
    besides the buffer at most one element's chunks (one verify record) exist.
    """
    out = io.BytesIO()
    chunks = []
    put = chunks.append

    def flush():
        out.write("".join(chunks).encode("ascii"))
        chunks.clear()

    def write(value, pad):  # pad: a newline and the value's indentation
        kind = type(value)
        if kind is dict and value:
            inner = pad + "  "
            sep = "{" + inner
            for key, item in value.items():
                text = _SCALARS.get(type(item))
                if text is None:
                    put(sep + encode_basestring_ascii(key) + ": ")  # TypeError unless key is a str
                    write(item, inner)
                else:  # a scalar value goes out with its key in one piece
                    put(sep + encode_basestring_ascii(key) + ": " + text(item))
                sep = "," + inner
            put(pad + "}")
        elif kind is list and value:
            inner = pad + "  "
            sep = "[" + inner
            for item in value:
                put(sep)
                write(item, inner)
                flush()
                sep = "," + inner
            put(pad + "]")
        elif kind is dict or kind is list:
            put("{}" if kind is dict else "[]")
        else:
            put(_scalar(value))

    write(payload, "\n")
    put("\n")
    flush()
    return out.getvalue()


def _cells(row: list) -> list:
    """row, once each cell has passed the JSON writer's scalar check."""
    for cell in row:
        _scalar(cell)
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
    elif command == "verify":
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
    else:
        raise ConfigError("csv output is limited to the verify and volkenborn commands")
    return buf.getvalue().encode()


def run(config: RunConfig) -> tuple[int, bytes]:
    """Execute a validated run configuration; returns (exit_code, output bytes)."""
    if config.command == "compute-numbers":
        payload, code = _cmd_compute_numbers(config.params)
    elif config.command == "compute-polynomial":
        payload, code = _cmd_compute_polynomial(config.params)
    elif config.command == "power-sum":
        payload, code = _cmd_power_sum(config.params)
    elif config.command == "verify":
        payload, code = _cmd_verify(config.params, config.jobs)
    elif config.command == "volkenborn":
        payload, code = _cmd_volkenborn(config.params)
    else:
        raise ConfigError(f"unknown command '{config.command}'")
    if config.format == "json":
        return code, _to_json_bytes(payload)
    if config.format == "csv":
        return code, _to_csv_bytes(config.command, payload)
    raise ConfigError(f"unknown format '{config.format}'")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twisted-bernoulli",
        description="Exact twisted Bernoulli computations, identity sweeps, and p-adic traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("compute-numbers", "compute a family of generalized twisted Bernoulli numbers"),
        ("compute-polynomial", "compute one generalized twisted Bernoulli polynomial"),
        ("power-sum", "compute a twisted character power sum"),
        ("verify", "verify identities over a parameter grid"),
        ("volkenborn", "finite-level p-adic convergence and shift traces"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True, help="path to the JSON parameter file")
        cmd.add_argument("--out", default=None, help="output path (default: stdout)")
        cmd.add_argument("--format", default="json", choices=("json", "csv"))
        cmd.add_argument("--jobs", type=int, default=1, help="parallel workers for verify (default: 1)")
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
    if args.jobs < 1:
        parser.error("argument --jobs: must be >= 1")
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
