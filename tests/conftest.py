"""Fixtures and the dense reference shared by the test modules."""

from functools import cache
from math import factorial

import numpy as np
import pytest

from perminv import regrep


@pytest.fixture
def fresh_caches(monkeypatch):
    """A fresh cache for every cached builder in regrep, so a mutated run
    certifies anew; monkeypatch restores the shared ones afterwards."""
    for name, fn in list(vars(regrep).items()):
        if hasattr(fn, "cache_clear"):
            monkeypatch.setattr(regrep, name, cache(fn.__wrapped__))


def dense(n: int, column: np.ndarray) -> np.ndarray:
    """The N! x N! float operator of an integer column scaled by N!: the
    column over N!, gathered whole through regrep._gather.  The tests' one
    dense reference of P_{A_k} (regrep._scaled_a), P_y and L_y (the columns
    of N! P_0 and N! L_0 relabeled) and M (regrep._scaled_m), which the
    package itself never forms."""
    return regrep._gather(n, column / factorial(n))
