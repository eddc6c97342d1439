"""Every test starts from an empty core cache, so what a test reads off a
ring's shared core was built in that test."""

import pytest

from quasiring import funcspace


@pytest.fixture(autouse=True)
def empty_core_cache(monkeypatch):
    monkeypatch.setattr(funcspace, "CORES", funcspace.CoreCache())
