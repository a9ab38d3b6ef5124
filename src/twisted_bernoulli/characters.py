"""Dirichlet characters with exact root-of-unity values.

A character mod d is a length-d table of RootOfUnity-or-None entries (None
is the zero value off the unit classes).  Values are stored as abstract
roots of unity, not field elements, so one character can be combined with
any ambient cyclotomic field later.  The modulus-1 character is identically
one, including at 0; together with the 0^0 = 1 convention in power sums this
makes the d = 1 objects collapse to their classical counterparts.

One cached primitive root g per modulus (``_primitive_root``) decides whether
the unit group is cyclic and indexes its characters: chi_j(g) = zeta_phi(d)^j.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from .errors import (
    ConfigError,
    NonCyclicUnitGroup,
    NotMultiplicative,
    NotNormalized,
    WrongSupport,
)
from .exact import CycloElem, CycloField, RootOfUnity, as_cyclo, totient


def _multiplicative_order(a: int, d: int) -> int:
    x = a % d
    n = 1
    while x != 1:
        x = x * a % d
        n += 1
    return n


@lru_cache(maxsize=None)
def _primitive_root(d: int) -> int | None:
    """The least generator g of (Z/dZ)*, or None when that group is not cyclic."""
    if d == 1:
        return 1
    phi = totient(d)
    for g in range(1, d):
        if gcd(g, d) == 1 and _multiplicative_order(g, d) == phi:
            return g
    return None


class DirichletCharacter:
    """Completely multiplicative d-periodic map into roots of unity."""

    __slots__ = ("modulus", "values", "_keyval", "_hash")

    def __init__(self, modulus: int, values):
        values = tuple(values)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", values)
        keyval = (modulus, tuple(None if v is None else (v.order, v.exponent) for v in values))
        object.__setattr__(self, "_keyval", keyval)
        # every spec-keyed cache lookup hashes chi: hash its d values once
        object.__setattr__(self, "_hash", hash(keyval))

    def __setattr__(self, name, value):
        raise AttributeError("DirichletCharacter is immutable")

    def __reduce__(self):
        return DirichletCharacter, (self.modulus, self.values)

    def value(self, n: int):
        """chi(n), extended d-periodically; None encodes zero."""
        return self.values[n % self.modulus]

    def value_at(self, n: int, field: CycloField) -> CycloElem:
        """chi(n) as an element of the given field (zero as the zero element)."""
        v = self.value(n)
        if v is None:
            return field.zero
        return as_cyclo(v, field.conductor)

    def is_principal(self) -> bool:
        return all(v is None or v.is_one() for v in self.values)

    def value_conductor(self) -> int:
        """Smallest m such that every value embeds into Q(zeta_m).

        Values of order one or two are rational and contribute nothing.
        """
        out = 1
        for v in self.values:
            if v is not None and v.order > 2:
                out = lcm(out, v.order)
        return out

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        if self.modulus != other.modulus:
            raise ValueError("pointwise product needs equal moduli")
        vals = [
            None if (a is None or b is None) else a * b
            for a, b in zip(self.values, other.values)
        ]
        return DirichletCharacter(self.modulus, vals)

    def __pow__(self, s: int) -> "DirichletCharacter":
        vals = [None if v is None else v**s for v in self.values]
        return DirichletCharacter(self.modulus, vals)

    def __eq__(self, other):
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self._keyval == other._keyval

    def __hash__(self):
        return self._hash

    def label(self) -> str:
        """Stable human-readable id, e.g. 'mod4[0,1,0,z2^1]'."""
        parts = []
        for v in self.values:
            if v is None:
                parts.append("0")
            else:
                parts.append("1" if v.order == 1 else f"z{v.order}^{v.exponent}")
        return f"mod{self.modulus}[" + ",".join(parts) + "]"

    def __repr__(self):
        return f"DirichletCharacter({self.label()})"


def principal(d: int) -> DirichletCharacter:
    """The principal character mod d (identically one for d = 1, at 0 too)."""
    if d < 1:
        raise ValueError("modulus must be >= 1")
    one = RootOfUnity(1, 0)
    if d == 1:
        return DirichletCharacter(1, [one])
    return DirichletCharacter(d, [one if gcd(a, d) == 1 else None for a in range(d)])


def from_table(d: int, values) -> DirichletCharacter:
    """Validated character from an explicit value table.

    Entries may be RootOfUnity, None, 0 or 1 (integers are conveniences for
    zero and the trivial value).  Raises WrongSupport, NotNormalized or
    NotMultiplicative when the table is not a character.
    """
    if d < 1:
        raise ValueError("modulus must be >= 1")
    if len(values) != d:
        raise ValueError(f"table must have length {d}")
    vals: list[RootOfUnity | None] = []
    for v in values:
        if v is None or v == 0:
            vals.append(None)
        elif isinstance(v, RootOfUnity):
            vals.append(v)
        elif v == 1:
            vals.append(RootOfUnity(1, 0))
        elif v == -1:
            vals.append(RootOfUnity(2, 1))
        else:
            raise ValueError(f"table entry {v!r} is not a root of unity")
    chi = DirichletCharacter(d, vals)
    for a in range(d):
        unit = gcd(a, d) == 1
        if unit and chi.values[a] is None:
            raise WrongSupport(f"chi({a}) = 0 but gcd({a}, {d}) = 1")
        if not unit and chi.values[a] is not None:
            raise WrongSupport(f"chi({a}) != 0 but gcd({a}, {d}) > 1")
    if not chi.value(1 % d).is_one():
        raise NotNormalized("chi(1) != 1")
    for a in range(d):
        for b in range(d):
            va, vb = chi.values[a], chi.values[b]
            vab = chi.values[a * b % d]
            if va is None or vb is None:
                if vab is not None:
                    raise NotMultiplicative(f"chi({a}*{b}) nonzero but a factor vanishes")
            elif vab is None or vab != va * vb:
                raise NotMultiplicative(f"chi({a})*chi({b}) != chi({a * b % d})")
    return chi


@lru_cache(maxsize=None)
def enumerate_cyclic(d: int) -> tuple[DirichletCharacter, ...]:
    """All phi(d) characters mod d, for moduli with cyclic unit group.

    chi_j sends the least primitive root g to zeta_phi(d)^j; the tuple is
    ordered by j with the principal character first.  Cached: a sweep parses
    and serializes the character of every instance, and an index spec goes
    through this enumeration each time.
    """
    if d == 1:
        return (principal(1),)
    g = _primitive_root(d)
    if g is None:
        raise NonCyclicUnitGroup(f"unit group mod {d} is not cyclic; supply a table")
    phi = totient(d)
    # discrete logs base g for every unit
    dlog = {}
    x = 1
    for t in range(phi):
        dlog[x] = t
        x = x * g % d
    out = []
    for j in range(phi):
        vals: list[RootOfUnity | None] = [None] * d
        for a, t in dlog.items():
            vals[a] = RootOfUnity(phi, j * t)
        out.append(DirichletCharacter(d, vals))
    return tuple(out)


# ---------------------------------------------------------------------------
# JSON character specs:
#   {"modulus": d, "kind": "principal"}
#   {"modulus": d, "kind": "table", "values": [null | {"order": o, "exponent": e}, ...]}
#   {"modulus": d, "kind": "index", "j": int}       (j-th enumerated character)

def _json_int(val, key: str, minimum: int | None = None) -> int:
    """A JSON integer under key, at least minimum if given.

    The type must be int exactly: a bool, or an IntEnum a caller passes,
    would reach the output, which carries no int subclass.
    """
    if type(val) is not int:
        raise ConfigError(f"key '{key}' must be an integer, got {val!r}")
    if minimum is not None and val < minimum:
        raise ConfigError(f"key '{key}' must be >= {minimum}, got {val}")
    return val


#: Largest root order a config may give.  Arithmetic in Q(zeta_m) slows fast
#: as m grows: compute-numbers to n_max = 3 takes 0.05 s with a twist of
#: order 97, 0.6 s with order 211 and over a minute with order 997, and an
#: order of 10**30 cannot build its field at all.  Every shipped config and
#: benchmark input stays at order 9 or below.
MAX_ROOT_ORDER = 256


def root_from_json(obj, key: str = "xi") -> RootOfUnity:
    """Parse a root of unity {order, exponent} given under key."""
    if not isinstance(obj, dict) or set(obj) != {"order", "exponent"}:
        raise ConfigError(f"key '{key}' must be a root of unity {{order, exponent}}, got {obj!r}")
    order = _json_int(obj["order"], "order", 1)
    if order > MAX_ROOT_ORDER:
        raise ConfigError(f"key 'order' is {order}, more than the limit {MAX_ROOT_ORDER}")
    return RootOfUnity(order, _json_int(obj["exponent"], "exponent"))


#: Largest modulus d a config may give: a character's ``modulus``, the
#: ``modulus`` of a compute or volkenborn config and a verify grid's ``d``.
#: A character mod d takes values of order dividing phi(d) < d, so up to
#: this limit every value stays within MAX_ROOT_ORDER.  Parsing a table costs
#: d^2 products and the twisted sums run over lcm(d, order of xi) residues;
#: d = 10**30 could build no table at all.
MAX_MODULUS = MAX_ROOT_ORDER + 1


def modulus_from_json(val, key: str = "modulus") -> int:
    """A modulus d under key: a JSON integer with 1 <= d <= MAX_MODULUS."""
    d = _json_int(val, key, 1)
    if d > MAX_MODULUS:
        raise ConfigError(f"key '{key}' is {d}, more than the limit {MAX_MODULUS}")
    return d


def root_to_json(r: RootOfUnity) -> dict:
    return {"order": r.order, "exponent": r.exponent}


def character_from_json(spec, modulus: int | None = None) -> DirichletCharacter:
    """Parse a character spec given under key 'character'.

    ``modulus`` is the modulus the caller's config gives beside the spec,
    if any.  The spec's own 'modulus' may be left out then, and must be
    equal to it when given: a disagreement is a configuration error naming
    'character'.  Roots are stored and printed in lowest terms; a table that
    is not a character is a configuration error naming 'values'.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"key 'character' must be an object, got {spec!r}")
    known = {"modulus", "kind", "values", "j"}
    for key in spec:
        if key not in known:
            raise ConfigError(f"unknown key '{key}' in 'character'")
    if modulus is not None:
        modulus = modulus_from_json(modulus)
    d = spec.get("modulus", modulus)
    if d is None:
        raise ConfigError("missing required key 'modulus' in 'character'")
    d = modulus_from_json(d)
    if modulus is not None and d != modulus:
        raise ConfigError(f"key 'character' gives modulus {d}, but the config gives {modulus}")
    kind = spec.get("kind")
    if kind == "principal":
        return principal(d)
    if kind == "table":
        if "values" not in spec:
            raise ConfigError("missing required key 'values' in 'character'")
        if not isinstance(spec["values"], list):
            raise ConfigError("key 'values' must be a list")
        if len(spec["values"]) != d:
            raise ConfigError(f"key 'values' has {len(spec['values'])} entries, but key 'modulus' is {d}")
        vals = [None if v is None else root_from_json(v, "values") for v in spec["values"]]
        try:
            return from_table(d, vals)
        except (WrongSupport, NotNormalized, NotMultiplicative) as exc:
            raise ConfigError(f"key 'values' is not a character mod {d}: {exc}") from None
    if kind == "index":
        if "j" not in spec:
            raise ConfigError("missing required key 'j' in 'character'")
        try:
            chars = enumerate_cyclic(d)
        except NonCyclicUnitGroup as exc:
            raise ConfigError(f"key 'kind' in 'character' is \"index\", but the {exc}") from None
        j = _json_int(spec["j"], "j")
        if not 0 <= j < len(chars):
            raise ConfigError(f"key 'j' in 'character' is {j}, out of range for modulus {d}")
        return chars[j]
    kinds = '"principal", "table" or "index"'
    raise ConfigError(f"key 'kind' in 'character' must be {kinds}, got {kind!r}")


def character_to_json(chi: DirichletCharacter) -> dict:
    """Stable spec for a character: principal / index when possible, else table.

    j is read off chi(g) = zeta_phi(d)^j and printed only when chi_j is chi.
    """
    d = chi.modulus
    if chi.is_principal():
        return {"modulus": d, "kind": "principal"}
    g = _primitive_root(d)
    v = None if g is None else chi.value(g)
    if v is not None:
        j = v.exponent * totient(d) // v.order
        if enumerate_cyclic(d)[j] == chi:
            return {"modulus": d, "kind": "index", "j": j}
    return {
        "modulus": d,
        "kind": "table",
        "values": [None if v is None else root_to_json(v) for v in chi.values],
    }
