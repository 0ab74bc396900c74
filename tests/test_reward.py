"""Shaped-reward unit tests: hand-derived vectors, accumulator neutrality,
variant isolation, and terminal values."""
import math

import numpy as np
import pytest

from planarwbc.envs import EpisodeConfig
from planarwbc.reward import (
    RewardParams,
    RewardState,
    compute_step_reward,
    terminal_reward,
)

EPISODE = EpisodeConfig()  # tolerance 0.3, timestep 0.04, time limit 60 s, hold 1 s, clamping
BASELINE = EpisodeConfig(variant="baseline")


def test_outside_tolerance_vector():
    # -15 * 0.04/60 + (-10) * 0.01 + 50 * 0.02/8 = -0.01 - 0.1 + 0.125
    params = RewardParams()
    state = RewardState()
    r, state, terms = compute_step_reward(
        params, EPISODE, state, delta_deviation=0.01, delta_progress=0.02,
        path_length_init=8.0, goal_distance=5.0,
    )
    assert r == pytest.approx(0.015, abs=1e-9)
    assert terms["hold"] == 0.0
    assert state.hold_accumulator == 0.0


def test_inside_tolerance_vector():
    # Holding: 20 * 0.04/1 + 40 * (1 - 0.15/0.3) * 0.04/1 = 0.8 + 0.8 = 1.6
    params = RewardParams()
    state = RewardState()
    r, state, terms = compute_step_reward(
        params, EPISODE, state, delta_deviation=0.0, delta_progress=0.0,
        path_length_init=8.0, goal_distance=0.15,
    )
    assert r == pytest.approx(1.59, abs=1e-9)
    assert terms["hold"] == pytest.approx(1.6, abs=1e-9)
    assert state.hold_accumulator == pytest.approx(1.6, abs=1e-9)
    assert state.hold_steps == 1


def test_hold_bonus_bounds():
    # Per in-tolerance step the holding term spans [w_ht, w_ht + w_hd] * tau/T_h.
    params = RewardParams()
    state = RewardState()
    rng = np.random.default_rng(3)
    for d_g in [0.0, 0.3, *rng.uniform(0.0, 0.3, size=200)]:
        _, state, terms = compute_step_reward(
            params, EPISODE, state, 0.0, 0.0, 1.0, float(d_g))
        assert 0.8 <= terms["hold"] <= 2.4
    _, _, at_edge = compute_step_reward(params, EPISODE, RewardState(), 0.0, 0.0, 1.0, 0.3)
    assert at_edge["hold"] == pytest.approx(0.8, abs=1e-12)
    _, _, at_center = compute_step_reward(params, EPISODE, RewardState(), 0.0, 0.0, 1.0, 0.0)
    assert at_center["hold"] == pytest.approx(2.4, abs=1e-12)


def test_hold_cycle_is_neutral():
    # Enter, hold a while, exit: the exit refund equals the float-exact sum
    # of the granted bonuses, so the cycle nets zero holding reward.
    params = RewardParams()
    state = RewardState()
    rng = np.random.default_rng(11)
    hold_total = 0.0
    refund_total = 0.0
    for d_g in rng.uniform(0.0, 0.29, size=37):
        _, state, terms = compute_step_reward(params, EPISODE, state, 0.0, 0.0, 1.0, float(d_g))
        hold_total += terms["hold"]
    r, state, terms = compute_step_reward(params, EPISODE, state, 0.0, 0.0, 1.0, 1.0)
    refund_total += terms["hold_refund"]
    assert hold_total + refund_total == 0.0
    assert state.hold_accumulator == 0.0
    # The refund happens on the exit sample itself, alongside other terms.
    assert r == pytest.approx(terms["time"] + terms["hold_refund"], abs=1e-12)
    # Re-entry starts a fresh accumulator.
    _, state, terms = compute_step_reward(params, EPISODE, state, 0.0, 0.0, 1.0, 0.1)
    assert state.hold_accumulator == pytest.approx(terms["hold"], abs=1e-12)


def test_no_refund_without_prior_entry():
    params = RewardParams()
    state = RewardState()
    for d_g in (2.0, 1.5, 0.9):
        r, state, terms = compute_step_reward(params, EPISODE, state, 0.0, 0.0, 1.0, d_g)
        assert terms["hold_refund"] == 0.0
        assert state.hold_accumulator == 0.0


def test_time_penalty_telescopes_to_weight():
    # A full timeout episode of T_t / tau steps integrates the time stream
    # to w_t; with zero path and hold contributions the reward sum is -15.
    params = RewardParams()
    state = RewardState()
    steps = int(round(EPISODE.time_limit / EPISODE.timestep))
    assert steps == 1500
    total = 0.0
    for _ in range(steps):
        r, state, _ = compute_step_reward(params, EPISODE, state, 0.0, 0.0, 1.0, 1.0)
        total += r
    total += terminal_reward(params, EPISODE, "timeout")
    assert total == pytest.approx(-15.0, abs=1e-9)


def test_terminal_values():
    params = RewardParams()
    assert terminal_reward(params, EPISODE, "collision") == -60.0
    assert terminal_reward(params, EPISODE, "success") == 10.0
    assert terminal_reward(params, EPISODE, "timeout") == 0.0
    assert terminal_reward(params, BASELINE, "joint_limit") == -20.0
    with pytest.raises(ValueError):
        terminal_reward(params, EPISODE, "joint_limit")  # unreachable under clamping
    with pytest.raises(ValueError):
        terminal_reward(params, EPISODE, "slipped")


def test_variant_isolation():
    # Under clamping, baseline-only parameters must have zero influence.
    base = RewardParams()
    perturbed = RewardParams(
        safety_margin_weight=-1000.0, safety_distance=7.0, joint_limit_penalty=-9e9)
    rng = np.random.default_rng(5)
    state_a = RewardState()
    state_b = RewardState()
    for _ in range(100):
        args = (float(rng.normal(0.0, 0.1)), float(rng.normal(0.0, 0.1)), 4.0,
                float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.01, 0.2)))
        ra, state_a, _ = compute_step_reward(base, EPISODE, state_a, *args)
        rb, state_b, _ = compute_step_reward(perturbed, EPISODE, state_b, *args)
        assert ra == rb


def test_baseline_safety_margin():
    params = RewardParams()
    state = RewardState()
    _, _, half = compute_step_reward(params, BASELINE, state, 0.0, 0.0, 1.0, 1.0,
                                     min_obstacle_clearance=0.15)
    assert half["safety_margin"] == pytest.approx(-0.5, abs=1e-12)
    _, _, clear = compute_step_reward(params, BASELINE, state, 0.0, 0.0, 1.0, 1.0,
                                      min_obstacle_clearance=0.3)
    assert clear["safety_margin"] == 0.0
    _, _, free = compute_step_reward(params, BASELINE, state, 0.0, 0.0, 1.0, 1.0,
                                     min_obstacle_clearance=math.inf)
    assert free["safety_margin"] == 0.0
    # A clearance known exactly and one the broad phase reports as inf give
    # the same zero, sign included.
    _, _, far = compute_step_reward(params, BASELINE, state, 0.0, 0.0, 1.0, 1.0,
                                    min_obstacle_clearance=0.45)
    assert {repr(terms["safety_margin"]) for terms in (clear, far, free)} == {"0.0"}
    # Touching an obstacle saturates the shortfall at the full weight.
    _, _, touch = compute_step_reward(params, BASELINE, state, 0.0, 0.0, 1.0, 1.0,
                                      min_obstacle_clearance=0.0)
    assert touch["safety_margin"] == pytest.approx(-1.0, abs=1e-12)


def test_reset_state_contract():
    a = RewardState()
    b = RewardState()
    assert a == b
    assert a.hold_accumulator == 0.0 and a.hold_steps == 0
    # The tolerance lives only in the episode config, which checks its range.
    for bad in (0.04, 0.51, 0.6, -0.1):
        assert EpisodeConfig(tolerance=bad).validate() == ["tolerance must be in [0.05, 0.5]"]
    assert EpisodeConfig(tolerance=0.05).validate() == []
    assert EpisodeConfig(tolerance=0.5).validate() == []
    _, _, loose = compute_step_reward(RewardParams(), EpisodeConfig(tolerance=0.4), a,
                                      0.0, 0.0, 1.0, 0.35)
    _, _, tight = compute_step_reward(RewardParams(), EPISODE, a, 0.0, 0.0, 1.0, 0.35)
    assert loose["hold"] > 0.0 and tight["hold"] == 0.0
    # One out-of-tolerance step leaves the accumulator untouched.
    _, after, _ = compute_step_reward(RewardParams(), EPISODE, a, 0.0, 0.0, 1.0, 2.0)
    assert after.hold_accumulator == 0.0


def test_invalid_inputs_rejected():
    params = RewardParams()
    state = RewardState()
    with pytest.raises(ValueError):
        compute_step_reward(params, EPISODE, state, math.nan, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        compute_step_reward(params, EPISODE, state, 0.0, math.inf, 1.0, 1.0)
    with pytest.raises(ValueError):
        compute_step_reward(params, EPISODE, state, 0.0, 0.0, 0.0, 1.0)  # zero init length
    with pytest.raises(ValueError):
        compute_step_reward(params, EPISODE, state, 0.0, 0.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        compute_step_reward(params, EPISODE, state, 0.0, 0.0, 1.0, -0.2)
