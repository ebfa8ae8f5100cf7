"""Fixtures shared by the test modules."""
import math

import numpy as np
import pytest


@pytest.fixture
def policy_table():
    """Unpacks a ``TableRule``'s ``bits`` to the dense boolean table of
    shape (n_steps,) + grid.shape, True where the rule selects d1."""
    def unpack(rule):
        cells = math.prod(rule.grid.shape)
        flat = np.unpackbits(rule.bits, axis=1, count=cells, bitorder="little")
        return flat.reshape((rule.grid.n_steps,) + rule.grid.shape).astype(bool)
    return unpack
