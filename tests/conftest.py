"""Fixtures shared by the test modules.

Matrix products may round differently on more BLAS threads, and the
determinism the tests check holds for a fixed thread count. Before numpy is
first imported, OpenBLAS and OpenMP default to one thread, the count the
benchmark runs with; a thread count set in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from planarwbc import policy  # noqa: E402


@pytest.fixture
def float64_network(monkeypatch):
    """Run the policy network in float64, for checks held to float64 tolerances.

    Policy reads COMPUTE_DTYPE when it is built, so the pin covers every
    policy the test builds.
    """
    monkeypatch.setattr(policy, "COMPUTE_DTYPE", np.float64)
