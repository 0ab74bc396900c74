"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from planarwbc import policy


@pytest.fixture
def float64_network(monkeypatch):
    """Run the policy network in float64, for checks held to float64 tolerances.

    Policy reads COMPUTE_DTYPE when it is built, so the pin covers every
    policy the test builds.
    """
    monkeypatch.setattr(policy, "COMPUTE_DTYPE", np.float64)
