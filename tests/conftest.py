"""Fixtures shared by the test modules."""

from functools import cache

import pytest

from perminv import regrep


@pytest.fixture
def fresh_caches(monkeypatch):
    """A fresh cache for every cached builder in regrep, so a mutated run
    certifies anew; monkeypatch restores the shared ones afterwards."""
    for name, fn in list(vars(regrep).items()):
        if hasattr(fn, "cache_clear"):
            monkeypatch.setattr(regrep, name, cache(fn.__wrapped__))
