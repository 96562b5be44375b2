"""Shared test settings and fixtures.

Property tests run without Hypothesis's per-example deadline: on a small,
shared host one slow example is noise, not a failure.
"""

import pytest
from hypothesis import settings

from posp import crypto

settings.register_profile("posp", deadline=None)
settings.load_profile("posp")


@pytest.fixture
def ed25519_checks(monkeypatch):
    """A list that logs, as (message, signature), each Ed25519 check run by
    a ``PublicKey`` made after the fixture: the verifies that the key's sign
    memo could not answer."""
    calls = []

    class CountingKey:
        def __init__(self, key):
            self.key = key

        def public_bytes_raw(self):
            return self.key.public_bytes_raw()

        def verify(self, signature, message):
            calls.append((message, signature))
            return self.key.verify(signature, message)

    init = crypto.PublicKey.__init__
    monkeypatch.setattr(crypto.PublicKey, "__init__",
                        lambda pk, key: init(pk, CountingKey(key)))
    return calls
