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

from planarwbc import envs, policy  # noqa: E402


@pytest.fixture
def float64_network(monkeypatch):
    """Run the policy network in float64, for checks held to float64 tolerances.

    Policy reads COMPUTE_DTYPE when it is built, so the pin covers every
    policy the test builds.
    """
    monkeypatch.setattr(policy, "COMPUTE_DTYPE", np.float64)


@pytest.fixture
def gap_draws_rejected(monkeypatch):
    """Reject every gap scene attempt, so a gap reset raises GenerationError.

    Every attempt fails its geometry check, whatever the grid cell; corridor
    attempts are drawn as before.
    """
    monkeypatch.setattr(envs, "_draw_gap", lambda spec, robot, rng: "geometry")
