"""Seeded inputs for the benchmark workloads, and Fraction-only oracles.

Every generator takes a seed and returns plain JSON-ready objects; the same
seed gives the same inputs.  The *shapes* of the work (identity tags, moduli,
twist orders, degrees, Volkenborn levels) are fixed, so every seed costs about
the same; the seed picks Galois-conjugate twists and characters, real
characters where several exist, and the order in which the work is done.

Nothing here imports the package: the oracles recompute classical Bernoulli
numbers and rational power sums with ``fractions.Fraction`` only.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

IDENTITY_TAGS = (
    "eq_1_13",
    "theorem1",
    "remark_m1",
    "corollary2",
    "m1_numbers",
    "theorem3",
    "remark_2_11",
    "corollary4",
    "eq_2_12",
    "power_sum_series_check",
)
USES_M = ("theorem1", "corollary2", "theorem3", "corollary4")

#: The acceptance grid's parameter space.
SWEEP_MODULI = (1, 2, 3, 4)
SWEEP_XI_ORDERS = (1, 2, 3, 4, 9)
WEIGHTS = (1, 2, 3)
ORDERS_M = (1, 2, 3)

#: Per-tag degree bound of one sweep, by size.  The full size keeps one
#: jobs-1 sweep at a few seconds so that a run repeats it several times.
SWEEP_N_MAX = {
    "full": {
        "theorem1": 2,
        "remark_m1": 4,
        "corollary2": 3,
        "m1_numbers": 4,
        "theorem3": 2,
        "remark_2_11": 3,
        "corollary4": 2,
        "eq_2_12": 4,
        "eq_1_13": 6,
        "power_sum_series_check": 2,
    },
    "small": {tag: 1 for tag in IDENTITY_TAGS},
}
#: Twist orders per grid: each order serves four of the ten grids.  The
#: assignment is fixed because the cost of a grid depends on its twist
#: orders; the seed picks the twists among the primitive roots of each order.
XI_ORDERS_BY_TAG = {
    tag: (SWEEP_XI_ORDERS[i % 5], SWEEP_XI_ORDERS[(i + 2) % 5])
    for i, tag in enumerate(IDENTITY_TAGS)
}


def _units(order: int) -> list[int]:
    """Exponents e with zeta_order^e primitive (the Galois orbit of zeta)."""
    if order == 1:
        return [0]
    return [e for e in range(1, order) if gcd(e, order) == 1]


def _xi(rng: random.Random, order: int) -> dict:
    return {"order": order, "exponent": rng.choice(_units(order))}


# ---------------------------------------------------------------------------
# sweep workloads


def sweep_config(seed: int, size: str = "full") -> dict:
    """A `verify` config: one grid per identity tag over the acceptance space.

    Every grid spans d in {1, 2, 3, 4} with all characters, twists of two
    distinct orders from {1, 2, 3, 4, 9}, the full w1 x w2 cross product,
    m in {1, 2, 3} and every n up to the tag's bound.  The seed draws each
    twist among the primitive roots of its order, and the shifts of eq_1_13.
    The grids keep one fixed order, so the chunks a process pool hands out
    stay alike across seeds.
    """
    rng = random.Random(f"sweep/{seed}")
    n_max = SWEEP_N_MAX[size]
    grids = []
    for tag in IDENTITY_TAGS:
        grid = {
            "identity": tag,
            "d": list(SWEEP_MODULI),
            "character": "all",
            "xi": [_xi(rng, o) for o in sorted(XI_ORDERS_BY_TAG[tag])],
        }
        if tag == "eq_1_13":
            grid["k"] = list(range(1, n_max[tag] + 1))
            grid["shift"] = sorted(rng.sample(range(1, 5), 3))
        elif tag == "power_sum_series_check":
            grid["n"] = list(range(1, n_max[tag] + 1))
            grid["series_order"] = 12
        else:
            grid["w1"] = list(WEIGHTS)
            grid["w2"] = list(WEIGHTS)
            if tag in USES_M:
                grid["m"] = list(ORDERS_M)
            grid["n_max"] = n_max[tag]
        grids.append(grid)
    return {"grids": grids}


def sweep_properties(config: dict) -> dict:
    """Input properties of a sweep config, computed without the package.

    Returns the instance count, the share of weight instances with w1 = w2,
    the field degrees phi(conductor) that occur, and n_max per tag.
    """
    total = 0
    weighted = 0
    diagonal = 0
    degrees = set()
    n_max = {}
    for grid in config["grids"]:
        tag = grid["identity"]
        chars = sum(_totient(d) for d in grid["d"])  # every character mod d
        per_char = 0
        if tag == "eq_1_13":
            per_char = len(grid["k"]) * len(grid["shift"])
            n_max[tag] = max(grid["k"])
        elif tag == "power_sum_series_check":
            per_char = len(grid["n"])
            n_max[tag] = max(grid["n"])
        else:
            ms = len(grid.get("m", [None]))
            pairs = len(grid["w1"]) * len(grid["w2"])
            diag = len(set(grid["w1"]) & set(grid["w2"]))
            per_n = ms * (grid["n_max"] + 1)
            per_char = pairs * per_n
            weighted += chars * len(grid["xi"]) * per_char
            diagonal += chars * len(grid["xi"]) * diag * per_n
            n_max[tag] = grid["n_max"]
        total += chars * len(grid["xi"]) * per_char
        for d in grid["d"]:
            for chi_order in _character_orders(d):
                for xi in grid["xi"]:
                    degrees.add(_totient(_conductor(chi_order, xi["order"])))
    return {
        "instances": total,
        "weight_instances": weighted,
        "w1_eq_w2_share": round(diagonal / weighted, 6) if weighted else 0.0,
        "field_degrees": sorted(degrees),
        "n_max": dict(sorted(n_max.items())),
    }


# ---------------------------------------------------------------------------
# single calls


def _totient(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def _character_orders(d: int) -> list[int]:
    """Orders of the characters chi_j mod a cyclic-unit-group modulus d."""
    phi = _totient(d)
    return [phi // gcd(j, phi) for j in range(phi)]


def _conductor(chi_order: int, xi_order: int) -> int:
    a = chi_order if chi_order > 2 else 1
    b = xi_order if xi_order > 2 else 1
    return a * b // gcd(a, b)


@lru_cache(maxsize=None)
def _real_character_tables(d: int) -> tuple[tuple, ...]:
    """Every real character mod d, as tuples of values in {None, 1, -1}.

    Found by brute force over sign assignments on the units; the tables are
    checked for complete multiplicativity here, independently of the package.
    """
    units = [a for a in range(d) if gcd(a, d) == 1]
    out = []
    for mask in range(1 << len(units)):
        vals = [None] * d
        for i, a in enumerate(units):
            vals[a] = -1 if mask >> i & 1 else 1
        if d == 1:
            vals = [1]
        if vals[1 % d] != 1:
            continue
        ok = all(
            vals[a * b % d] == vals[a] * vals[b] for a in units for b in units
        )
        if ok and tuple(vals) not in out:
            out.append(tuple(vals))
    return tuple(out)


def _table_spec(values) -> dict:
    return {
        "kind": "table",
        "values": [
            None
            if v is None
            else ({"order": 1, "exponent": 0} if v == 1 else {"order": 2, "exponent": 1})
            for v in values
        ],
    }


#: Compute-call shapes: (command, d, chi_order, xi_order, k, n).  n is n_max
#: for compute-numbers and the degree otherwise.  d is a modulus with a cyclic
#: unit group, chi_order divides phi(d), conductors stay at most 30.
_COMPUTE_D = (1, 3, 4, 5, 6, 7, 9)
_COMPUTE_XI = (1, 2, 3, 4, 5, 8, 9)


def _compute_shapes(size: str) -> list[tuple]:
    """The compute-call shapes, drawn once from a fixed generator."""
    rng = random.Random("compute-shapes")
    shapes = []
    full = size == "full"
    for command, count, n_lo, n_hi in (
        ("compute-numbers", 36, 8, 32),
        ("compute-polynomial", 36, 8, 24),
        ("power-sum", 16, 8, 32),
    ):
        count = count if full else 2
        while sum(1 for s in shapes if s[0] == command) < count:
            d = rng.choice(_COMPUTE_D)
            chi_order = rng.choice(sorted(set(_character_orders(d))))
            xi_order = rng.choice(_COMPUTE_XI)
            cond = _conductor(chi_order, xi_order)
            if cond > 30 or _totient(cond) > 8:
                continue
            k = rng.randint(0 if command != "compute-numbers" else 1, 6)
            n = rng.randint(n_lo, n_hi) if full else rng.randint(2, 6)
            shapes.append((command, d, chi_order, xi_order, k, n))
    return shapes


def _rational_shapes(size: str) -> list[tuple]:
    """Rational shapes checked by the oracles: (command, d, xi_sign, k, n)."""
    if size != "full":
        return [("compute-numbers", 4, -1, 1, 6), ("power-sum", 3, 1, 2, 9)]
    shapes = []
    for d in (1, 2, 3, 4, 5, 8):
        for sign in (1, -1):
            if sign == -1 and d % 2:
                continue
            shapes.append(("compute-numbers", d, sign, 1, 12 + 2 * d))
    for d in (1, 3, 4, 5, 8):
        for sign in (1, -1):
            shapes.append(("power-sum", d, sign, (d % 4) + 1, 16 + 2 * d))
    return shapes


def _index_for_order(rng: random.Random, d: int, chi_order: int) -> int:
    js = [j for j, o in enumerate(_character_orders(d)) if o == chi_order]
    return rng.choice(js)


def _numeric_params(command: str, d: int, character: dict, xi: dict, k: int, n: int) -> dict:
    params = {"modulus": d, "character": character, "xi": xi, "k": k}
    params["n_max" if command == "compute-numbers" else "n"] = n
    return params


#: Volkenborn shapes: (check, p, d, xi_order, moments, level_max).  Characters
#: are real; twists have order 1 or a power of p.
_VOLKENBORN_SHAPES_FULL = (
    ("convergence", 2, 1, 1, (1, 2, 3), 12),
    ("convergence", 2, 4, 4, (1, 2), 12),
    ("convergence", 2, 3, 2, (1, 2), 11),
    ("convergence", 3, 1, 1, (1, 2, 3), 9),
    ("convergence", 3, 4, 3, (1, 2), 9),
    ("convergence", 3, 1, 9, (0, 1, 2), 9),
    ("convergence", 3, 5, 1, (1,), 8),
    ("convergence", 5, 1, 1, (1, 2), 7),
    ("convergence", 5, 3, 5, (1,), 6),
    ("convergence", 5, 4, 1, (1, 2), 5),
    ("shift", 2, 1, 1, (1, 2), 11),
    ("shift", 2, 4, 4, (1, 2), 10),
    ("shift", 3, 1, 3, (1, 2), 8),
    ("shift", 3, 4, 1, (1,), 8),
    ("shift", 5, 1, 5, (1, 2), 6),
    ("shift", 5, 3, 1, (1,), 6),
    ("shift", 5, 4, 1, (1,), 5),
)
_VOLKENBORN_SHAPES_SMALL = (
    ("convergence", 3, 1, 3, (1, 2), 3),
    ("shift", 2, 4, 1, (1,), 3),
)


def _volkenborn_shapes(size: str) -> list[tuple]:
    if size != "full":
        return list(_VOLKENBORN_SHAPES_SMALL)
    # six passes over the shape table give a hundred-odd calls per pass
    return list(_VOLKENBORN_SHAPES_FULL) * 6


def calls_list(seed: int, size: str = "full") -> list[dict]:
    """The seeded list of cold single calls, in run order.

    Each entry is {"kind", "command", "params", "oracle"} where kind is
    "compute" or "volkenborn" and oracle names the Fraction-only check that
    applies ("numbers", "power_sum" or None).
    """
    rng = random.Random(f"calls/{seed}")
    calls = []
    for command, d, chi_order, xi_order, k, n in _compute_shapes(size):
        character = {"kind": "index", "j": _index_for_order(rng, d, chi_order)}
        params = _numeric_params(command, d, character, _xi(rng, xi_order), k, n)
        calls.append({"kind": "compute", "command": command, "params": params, "oracle": None})
    for command, d, sign, k, n in _rational_shapes(size):
        table = rng.choice(_real_character_tables(d))
        xi = {"order": 1, "exponent": 0} if sign == 1 else {"order": 2, "exponent": 1}
        params = _numeric_params(command, d, _table_spec(table), xi, k, n)
        oracle = "numbers" if command == "compute-numbers" else "power_sum"
        calls.append({"kind": "compute", "command": command, "params": params, "oracle": oracle})
    for check, p, d, xi_order, moments, level_max in _volkenborn_shapes(size):
        table = rng.choice(_real_character_tables(d))
        params = {
            "p": p,
            "check": check,
            "modulus": d,
            "character": _table_spec(table),
            "xi": _xi(rng, xi_order),
            "moments": list(moments),
            "level_max": level_max,
        }
        if check == "shift":
            params["shift"] = rng.randint(1, 3)
        calls.append({"kind": "volkenborn", "command": "volkenborn", "params": params, "oracle": None})
    rng.shuffle(calls)
    return calls


def calls_properties(calls: list[dict]) -> dict:
    """Call counts by command, field degrees, degree bounds and sum sizes."""
    counts: dict[str, int] = {}
    degrees = set()
    n_max = 0
    terms = 0
    for call in calls:
        key = call["command"] if call["kind"] == "compute" else "volkenborn." + call["params"]["check"]
        counts[key] = counts.get(key, 0) + 1
        par = call["params"]
        if call["kind"] == "compute":
            chi = par["character"]
            if chi["kind"] == "index":
                chi_order = _character_orders(par["modulus"])[chi["j"]]
            else:
                chi_order = 1
            degrees.add(_totient(_conductor(chi_order, par["xi"]["order"])))
            n_max = max(n_max, par.get("n_max", par.get("n", 0)))
        else:
            degrees.add(_totient(par["xi"]["order"]) if par["xi"]["order"] > 2 else 1)
            per_level = sum(par["modulus"] * par["p"] ** lev for lev in range(1, par["level_max"] + 1))
            factor = 2 if par["check"] == "shift" else 1
            terms += factor * per_level * len(par["moments"])
    return {
        "calls": dict(sorted(counts.items())),
        "field_degrees": sorted(degrees),
        "n_max": n_max,
        "volkenborn_terms": terms,
    }


# ---------------------------------------------------------------------------
# oracles (Fraction only; never the package)


@lru_cache(maxsize=None)
def classical_bernoulli(n_max: int) -> tuple[Fraction, ...]:
    """B_0..B_n_max with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b)


def _bernoulli_poly(n: int, x: Fraction) -> Fraction:
    b = classical_bernoulli(n)
    return sum(comb(n, k) * b[k] * x ** (n - k) for k in range(n + 1))


def _real_values(params: dict) -> tuple[list, int]:
    """Character values (None/1/-1) and the twist sign of a rational case."""
    vals = [
        None if v is None else (1 if v["order"] == 1 else -1)
        for v in params["character"]["values"]
    ]
    sign = 1 if params["xi"]["order"] == 1 else -1
    return vals, sign


def oracle_numbers(params: dict) -> list[str]:
    """B_{n,chi,xi} = d^(n-1) sum_{a<d} chi(a) xi^a B_n(a/d), for xi^d = 1.

    The sum starts at a = 0 as the package's does; chi(0) is 1 only mod 1.
    """
    vals, sign = _real_values(params)
    d = params["modulus"]
    if sign ** d != 1:
        raise ValueError("the oracle needs xi^d = 1")
    out = []
    for n in range(params["n_max"] + 1):
        acc = Fraction(0)
        for a in range(d):
            if vals[a] is not None:
                acc += vals[a] * sign**a * _bernoulli_poly(n, Fraction(a, d))
        q = acc * Fraction(d) ** (n - 1)
        out.append(f"{q.numerator}/{q.denominator}")
    return out


def oracle_power_sum(params: dict) -> str:
    """T_k(n) = sum_{l=0..n} chi(l) xi^l l^k with 0^0 = 1."""
    vals, sign = _real_values(params)
    d, k = params["modulus"], params["k"]
    acc = 0
    for l in range(params["n"] + 1):
        v = vals[l % d]
        if v is not None:
            acc += v * sign**l * (1 if (l == 0 and k == 0) else l**k)
    return f"{acc}/1"
