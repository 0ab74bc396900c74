"""Tolerance-curriculum controller tests: decision rule, clamping, dead band,
and checkpoint round-trips."""
import json

import numpy as np
import pytest

from planarwbc.adr import (
    AdrConfig,
    AdrState,
    fresh_state,
    record_episode,
    state_from_dict,
    state_to_dict,
)


def run(config, state, outcomes):
    for s in outcomes:
        state = record_episode(config, state, s)
    return state


def test_fresh_state_starts_loose():
    config = AdrConfig()
    assert fresh_state(config).tolerance == 0.5


def test_full_success_window_tightens():
    config = AdrConfig()
    state = run(config, fresh_state(config), [True] * config.window)
    assert state.tolerance == pytest.approx(0.48, abs=1e-12)
    assert state.outcomes == ()  # adjustment clears the window


def test_success_counts():
    config = AdrConfig()
    assert run(config, fresh_state(config), [True] * 60).tolerance \
        == pytest.approx(0.48, abs=1e-12)
    # 560 wins: 11 cleared windows of 50, ten left buffered.
    state = run(config, fresh_state(config), [True] * 560)
    assert state.tolerance == pytest.approx(0.5 - 11 * 0.02, abs=1e-12)
    assert len(state.outcomes) == 10


def test_failure_clamps_at_ceiling():
    config = AdrConfig()
    state = run(config, fresh_state(config), [False] * 1000)
    assert state.tolerance == 0.5


def test_success_clamps_at_floor():
    config = AdrConfig()
    state = run(config, fresh_state(config), [True] * 50 * 40)
    assert state.tolerance == pytest.approx(0.05, abs=1e-12)
    state = run(config, state, [True] * 200)
    assert state.tolerance == pytest.approx(0.05, abs=1e-12)


def test_dead_band_keeps_sliding():
    # Alternating outcomes hold the rate at exactly 0.5: inside the dead
    # band, so no adjustment, and the window keeps sliding instead of
    # clearing.
    config = AdrConfig()
    state = run(config, fresh_state(config), [i % 2 == 0 for i in range(75)])
    assert state.tolerance == 0.5
    assert len(state.outcomes) == config.window


def test_threshold_boundaries_are_strict():
    config = AdrConfig(window=10)
    # Exactly 8/10 = upper_rate: not strictly above, no change.
    state = run(config, fresh_state(config), [True] * 8 + [False] * 2)
    assert state.tolerance == 0.5
    # Exactly 5/10 = lower_rate: not strictly below, no change.
    state = run(config, fresh_state(config), [True] * 5 + [False] * 5)
    assert state.tolerance == 0.5
    # 9/10 tightens.
    state = run(config, fresh_state(config), [True] * 9 + [False])
    assert state.tolerance == pytest.approx(0.48, abs=1e-12)
    # 4/10 relaxes (from a tightened start).
    start = AdrState(tolerance=0.3)
    state = run(config, start, [True] * 4 + [False] * 6)
    assert state.tolerance == pytest.approx(0.32, abs=1e-12)


def test_monotone_while_rate_stays_extreme():
    config = AdrConfig()
    state = AdrState(tolerance=0.3)
    for _ in range(500):
        new = record_episode(config, state, True)
        assert new.tolerance <= state.tolerance
        state = new
    state = AdrState(tolerance=0.3)
    for _ in range(500):
        new = record_episode(config, state, False)
        assert new.tolerance >= state.tolerance
        state = new


def test_confined_under_random_outcomes():
    # Biased phases push toward both ends; the tolerance must never leave
    # the configured range (the acceptance suite extends this to 1e6).
    config = AdrConfig()
    rng = np.random.default_rng(17)
    state = fresh_state(config)
    for _ in range(40):
        p = float(rng.uniform(0.0, 1.0))
        for s in rng.random(5000) < p:
            state = record_episode(config, state, bool(s))
            assert 0.05 <= state.tolerance <= 0.5
            assert len(state.outcomes) <= config.window


def test_state_round_trip():
    config = AdrConfig()
    state = run(config, fresh_state(config), [True] * 64 + [False] * 3)
    data = json.loads(json.dumps(state_to_dict(state)))
    restored = state_from_dict(data)
    assert restored == state
    assert restored.tolerance == state.tolerance


def test_config_validation():
    assert AdrConfig().validate() == []
    assert AdrConfig(window=0).validate()
    assert AdrConfig(lower_rate=0.9, upper_rate=0.8).validate()
    assert AdrConfig(step=0.0).validate()
    assert AdrConfig(min_tolerance=0.0).validate()
