import pytest

from twisted_bernoulli import identities as idn


@pytest.fixture(autouse=True)
def no_kept_block(monkeypatch):
    """Each test starts with no (chi, xi) block kept by an earlier one."""
    monkeypatch.setattr(idn, "_BLOCK", None)
