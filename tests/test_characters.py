import pickle
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from twisted_bernoulli.characters import (
    DirichletCharacter,
    character_from_json,
    character_to_json,
    enumerate_cyclic,
    from_table,
    principal,
    root_from_json,
)
from twisted_bernoulli.errors import (
    ConfigError,
    NonCyclicUnitGroup,
    NonDivisibleConductor,
    NotMultiplicative,
    NotNormalized,
    WrongSupport,
)
from twisted_bernoulli.exact import RootOfUnity, as_cyclo, cyclo_field, totient

from _oracles import has_cyclic_units


def table_of(chi):
    out = []
    for v in chi.values:
        if v is None:
            out.append(None)
        else:
            out.append((v.order, v.exponent))
    return out


def test_principal_tables():
    assert table_of(principal(1)) == [(1, 0)]
    assert table_of(principal(4)) == [None, (1, 0), None, (1, 0)]
    assert table_of(principal(6)) == [None, (1, 0), None, None, None, (1, 0)]


def test_principal_modulus_one_is_one_at_zero():
    chi = principal(1)
    assert chi.value(0).is_one()
    assert chi.value_at(0, cyclo_field(1)) == 1


def test_from_table_valid_mod4():
    chi = from_table(4, [0, 1, 0, -1])
    assert table_of(chi) == [None, (1, 0), None, (2, 1)]
    assert not chi.is_principal()


def test_from_table_legendre_mod3():
    chi = from_table(3, [0, 1, -1])
    assert table_of(chi) == [None, (1, 0), (2, 1)]


def test_from_table_rejects_wrong_support():
    with pytest.raises(WrongSupport):
        from_table(4, [0, 1, 1, 1])
    with pytest.raises(WrongSupport):
        from_table(4, [0, 1, 0, 0])


def test_from_table_rejects_chi_1_other_than_1():
    with pytest.raises(NotNormalized):
        from_table(3, [0, -1, 1])


def test_from_table_rejects_non_multiplicative():
    # chi(3)^2 must equal chi(9 mod 4) = chi(1) = 1, so chi(3) = zeta_3 fails
    with pytest.raises(NotMultiplicative):
        from_table(4, [None, RootOfUnity(1, 0), None, RootOfUnity(3, 1)])


def test_enumerate_d3():
    chars = enumerate_cyclic(3)
    assert len(chars) == 2
    assert chars[0].is_principal()
    assert table_of(chars[1]) == [None, (1, 0), (2, 1)]


def test_enumerate_d1():
    chars = enumerate_cyclic(1)
    assert len(chars) == 1
    assert chars[0].value(0).is_one()


def test_enumerate_d5_against_homomorphism_oracle():
    chars = enumerate_cyclic(5)
    assert len(chars) == 4
    # brute-force oracle: all maps of the cyclic unit group <2> into mu_4
    units = [1, 2, 3, 4]
    dlog = {pow(2, t, 5): t for t in range(4)}
    expected = set()
    for j in range(4):
        tab = tuple(
            None if gcd(a, 5) > 1 else RootOfUnity(4, j * dlog[a % 5]) for a in range(5)
        )
        expected.add(tab)
    assert {chi.values for chi in chars} == expected
    # the two order-4 characters take value zeta_4^(+-1) at the root 2
    order4 = [chi for chi in chars if chi.value(2).order == 4]
    assert {chi.value(2) for chi in order4} == {RootOfUnity(4, 1), RootOfUnity(4, 3)}


def test_enumerate_rejects_non_cyclic():
    with pytest.raises(NonCyclicUnitGroup):
        enumerate_cyclic(8)
    assert not has_cyclic_units(8)
    assert has_cyclic_units(4) and has_cyclic_units(9) and has_cyclic_units(18)


def test_enumerated_characters_pass_validation():
    for d in (1, 2, 3, 4, 5, 6, 7, 9, 10, 11):
        for chi in enumerate_cyclic(d):
            rebuilt = from_table(d, list(chi.values))
            assert rebuilt == chi


def test_value_at_periodic_extension():
    chi = from_table(4, [0, 1, 0, -1])
    f = cyclo_field(1)
    assert chi.value_at(7, f) == -1
    assert chi.value_at(6, f) == 0
    assert principal(1).value_at(0, f) == 1


def test_value_at_requires_embeddable_values():
    chi = enumerate_cyclic(5)[1]  # has order-4 values
    with pytest.raises(NonDivisibleConductor):
        chi.value_at(2, cyclo_field(3))
    assert chi.value_at(2, cyclo_field(12)).field.conductor == 12


def test_orthogonality():
    for d in range(1, 12):
        if not has_cyclic_units(d):
            continue
        f = cyclo_field(totient(d))
        for chi in enumerate_cyclic(d):
            total = f.zero
            for a in range(d):
                total = total + chi.value_at(a, f)
            if chi.is_principal():
                assert total == totient(d) if d > 1 else total == 1
            else:
                assert total.is_zero()


def test_pointwise_product_is_character():
    for d in (3, 4, 5, 7):
        chars = enumerate_cyclic(d)
        for c1, c2 in product(chars, chars):
            prod = c1 * c2
            assert from_table(d, list(prod.values)) == prod


def test_power_of_character():
    chi = enumerate_cyclic(5)[1]
    assert chi**2 == chi * chi
    assert (chi**4).is_principal()


def test_value_orders_divide_group_exponent():
    # each d here has cyclic units, so the group's exponent is phi(d)
    for d in (3, 4, 5, 9, 11):
        lam = totient(d)
        for chi in enumerate_cyclic(d):
            for v in chi.values:
                if v is not None:
                    assert lam % v.order == 0


def test_characters_roots_and_elements_survive_pickling():
    field = cyclo_field(9)
    zeta = as_cyclo(RootOfUnity(9, 1), 9)
    objects = [chi for d in range(1, 31) if has_cyclic_units(d) for chi in enumerate_cyclic(d)]
    objects += [from_table(4, [0, 1, 0, -1]), from_table(3, [0, 1, -1]), principal(12)]
    objects += [RootOfUnity(9, 4), RootOfUnity(4, 2), RootOfUnity(1, 0)]
    objects += [field.zero, field.one, zeta, zeta**5 - Fraction(2, 3) * zeta, field.rational(Fraction(-7, 4))]
    assert len(objects) > 150
    for obj in objects:
        back = pickle.loads(pickle.dumps(obj))
        assert back == obj and hash(back) == hash(obj), obj
        with pytest.raises(AttributeError, match="immutable"):
            back.modulus = 0  # still immutable after the round trip
        if hasattr(obj, "field"):
            assert back.field is field  # the interned field, not a copy


# --- JSON specs -----------------------------------------------------------------

def test_table_values_print_in_lowest_terms():
    # mod 8 has no index, so this character prints as a table; zeta_4^2 is zeta_2
    one, minus = {"order": 1, "exponent": 0}, {"order": 2, "exponent": 1}
    given = [None, one, None, {"order": 4, "exponent": 2}, None, one, None, {"order": 4, "exponent": 2}]
    printed = character_to_json(character_from_json({"modulus": 8, "kind": "table", "values": given}))
    assert printed == {"modulus": 8, "kind": "table", "values": [None, one, None, minus, None, one, None, minus]}


def test_character_json_round_trip():
    for d in (1, 3, 4, 5):
        for chi in enumerate_cyclic(d):
            assert character_from_json(character_to_json(chi)) == chi


def classically_cyclic(d):
    """d in {1, 2, 4, p^k, 2 p^k} for an odd prime p: Gauss's criterion."""
    if d in (1, 2, 4):
        return True
    if d % 2 == 0:
        d //= 2
        if d % 2 == 0:
            return False
    p = next(q for q in range(3, d + 1) if d % q == 0)
    while d % p == 0:
        d //= p
    return d == 1


def test_cyclic_units_match_the_classical_criterion():
    for d in range(1, 258):
        assert has_cyclic_units(d) is classically_cyclic(d), d


def test_characters_print_their_index_read_off_the_primitive_root():
    for d in range(1, 61):
        if not has_cyclic_units(d):
            continue
        for j, chi in enumerate(enumerate_cyclic(d)):
            for c in (chi, from_table(d, list(chi.values))):
                spec = character_to_json(c)
                if j == 0:
                    assert spec == {"modulus": d, "kind": "principal"}
                else:
                    assert spec == {"modulus": d, "kind": "index", "j": j}, (d, j)
    # (Z/8)*, (Z/12)* and (Z/15)* are not cyclic: their characters print as tables
    for d, values in (
        (8, [0, 1, 0, -1, 0, 1, 0, -1]),
        (12, [0, 1, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1]),
        (15, [0, 1, -1, 0, 1, 0, 0, 1, -1, 0, 0, -1, 0, 1, -1]),
    ):
        chi = from_table(d, values)
        assert not chi.is_principal()
        spec = character_to_json(chi)
        assert spec["kind"] == "table"
        assert character_from_json(spec) == chi


def test_character_spec_forms():
    assert character_from_json({"modulus": 4, "kind": "principal"}) == principal(4)
    tab = {
        "modulus": 4,
        "kind": "table",
        "values": [
            None,
            {"order": 1, "exponent": 0},
            None,
            {"order": 2, "exponent": 1},
        ],
    }
    assert character_from_json(tab) == from_table(4, [0, 1, 0, -1])
    idx = {"modulus": 3, "kind": "index", "j": 1}
    assert character_from_json(idx) == enumerate_cyclic(3)[1]


def test_character_spec_reduces_exponents_on_load():
    spec = {
        "modulus": 3,
        "kind": "table",
        "values": [None, {"order": 1, "exponent": 5}, {"order": 2, "exponent": 7}],
    }
    assert character_from_json(spec) == from_table(3, [0, 1, -1])


def test_character_spec_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        character_from_json({"modulus": 3, "kind": "principal", "extra": 1})
    with pytest.raises(ConfigError):
        character_from_json({"kind": "principal"})
    with pytest.raises(ConfigError):
        character_from_json({"modulus": 3, "kind": "index", "j": 9})
    # no coercion: orders and moduli are integers >= 1, exponents and j integers
    for spec, key in (
        ({"modulus": 2.0, "kind": "principal"}, "modulus"),
        ({"modulus": True, "kind": "principal"}, "modulus"),
        ({"modulus": 0, "kind": "principal"}, "modulus"),
        ({"modulus": 3, "kind": "index", "j": 1.0}, "j"),
        ({"modulus": 3, "kind": "index", "j": "1"}, "j"),
        ({"modulus": 3, "kind": "index", "j": True}, "j"),
        ({"modulus": 2, "kind": "table", "values": {"1": None}}, "values"),
        ({"modulus": 2, "kind": "table", "values": [None, {"order": 1.5, "exponent": 0}]}, "order"),
    ):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            character_from_json(spec)
    for root, key in (
        ({"order": 2.7, "exponent": 1}, "order"),
        ({"order": 0, "exponent": 0}, "order"),
        ({"order": -3, "exponent": 1}, "order"),
        ({"order": True, "exponent": 0}, "order"),
        ({"order": 3, "exponent": 1.0}, "exponent"),
        ({"order": 3, "exponent": False}, "exponent"),
        ({"order": 3, "exponent": None}, "exponent"),
    ):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            root_from_json(root)
