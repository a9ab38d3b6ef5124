"""Output bytes of every example config, of the benchmark's dense sweeps and
of one wide-field power sum, pinned by sha256.

The output is deterministic, so these digests change only when what a user
gets changes.  Such a change must be deliberate and recorded in CHANGES.md,
with the digests updated in the same change.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from twisted_bernoulli import cli

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "configs" / "examples"

# (config stem, command, format) -> sha256 of the output bytes
PINNED = {
    ("compute_numbers", "compute-numbers", "json"): "4056df6cea032a7ec47705ab27a417d7e01eee21a089fb57f93eb8847052e8bf",
    ("compute_polynomial", "compute-polynomial", "json"): "66f551d51abed4aff2b7299d4da60e9ccaaa3e85da01c06c78ce25536c9083ab",
    ("power_sum", "power-sum", "json"): "9f396d472835a2a72a3145bf1e8b6eb03ff6fb5551d70ea82876d1b8418494a2",
    ("verify_small", "verify", "json"): "6cb95e299b61ba380e18b9bc72758e602e68ca8f534e85ac19b7a09b32814e3a",
    ("verify_small", "verify", "csv"): "9ba1379371d90e6fe0cf11fecf9a53f82226c7ff826c1f3694ca908b299fd22f",
    ("volkenborn_convergence", "volkenborn", "json"): "67f40ba5c7ec1c90a4aae305b33c427a51a22a108d7387ca60d3a58c1cc090a3",
    ("volkenborn_convergence", "volkenborn", "csv"): "54a10d77db098b7d04c7a16532fc8a51d6c97e998466dd830fa8da7d4ed1b5e2",
    ("volkenborn_shift", "volkenborn", "json"): "9222c4584414147612f09ee3d81841635e2b879d08c6481b9d163c3fad6d88ea",
    ("volkenborn_shift", "volkenborn", "csv"): "bae2a98bca6666d672a33b1c8ca1ad8e295c1ba4e75f6c74a79780f1a5847563",
}


def test_every_example_is_pinned():
    stems = {stem for stem, _, _ in PINNED}
    assert stems == {path.stem for path in EXAMPLES.glob("*.json")}


@pytest.mark.parametrize("stem, command, fmt", sorted(PINNED))
def test_example_output_bytes(stem, command, fmt):
    params = json.loads((EXAMPLES / f"{stem}.json").read_text())
    code, out = cli.run(cli.RunConfig(command=command, params=params, format=fmt))
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == PINNED[stem, command, fmt]


def test_power_sum_in_a_wide_field():
    # Q(zeta_2310), phi = 480: each of the 2 310 weights chi(r) xi^r is read
    # as one root of unity, so one power sum costs no field product
    params = {"modulus": 211, "character": {"kind": "index", "j": 1},
              "xi": {"order": 11, "exponent": 1}, "k": 1, "n": 3}
    code, out = cli.run(cli.RunConfig(command="power-sum", params=params, format="json"))
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == "dba2529d01cad1ba0dd67cc3831a7d9973ea4b9c5c80072bdb0cb720edbcafbb"


def load_inputs():
    """perfbench/inputs.py, the benchmark's seeded configs, loaded without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (seed, jobs) -> sha256 of verify on inputs.sweep_config(seed), 2 240 275 bytes each
DENSE_SWEEPS = {
    (1, 1): "1faf0a20f0605d0c8cd755141a0a7a21e0b2e6ccd3617170b20362bf99d9cd1c",
    (2, 1): "1316d86649fdacd6a9d83adf538c9e87ca1c151fcb4802bf7c7feb1db4dc3015",
    (3, 1): "530c80d28ea3266aa89d1c9ffeff7a41b75c9138d9e364a6fc6be5caef86739c",
    (1, 2): "1faf0a20f0605d0c8cd755141a0a7a21e0b2e6ccd3617170b20362bf99d9cd1c",
}


@pytest.mark.parametrize("seed, jobs", sorted(DENSE_SWEEPS))
def test_dense_sweep_output_bytes(seed, jobs):
    config = load_inputs().sweep_config(seed)
    code, out = cli.run(cli.RunConfig(command="verify", params=config, format="json", jobs=jobs))
    assert code == 0
    assert len(out) == 2_240_275
    assert hashlib.sha256(out).hexdigest() == DENSE_SWEEPS[seed, jobs]
