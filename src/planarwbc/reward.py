"""Shaped step reward and terminal bonuses for goal reaching.

The per-step reward combines a constant time penalty, path-deviation and
path-progress differences, and an in-tolerance holding bonus that is
accumulated and refunded (subtracted) if the end-effector leaves the
tolerance sphere again, so camping at the boundary cannot be farmed.
Terminal events (collision, sustained hold, joint limit under the baseline
variant) are rewarded separately at episode end. The weights come from
RewardParams; the timestep, time limit, hold time, tolerance and variant
come from the episode's EpisodeConfig.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .envs import EpisodeConfig

VARIANTS = ("clamping", "baseline")
TERMINATIONS = ("collision", "timeout", "joint_limit", "success")
# Goal tolerance radius range [m], shared by the episode config and the curriculum.
TOLERANCE_RANGE = (0.05, 0.5)


@dataclass(frozen=True)
class RewardParams:
    """Weights of the shaped reward and the safety-margin distance.

    The safety-margin weight/distance and the joint-limit penalty only take
    effect under the baseline variant; the clamping variant makes joint-limit
    termination unreachable and drops the margin shaping.
    """

    time_weight: float = -15.0
    deviation_weight: float = -10.0
    progress_weight: float = 50.0
    hold_time_weight: float = 20.0
    hold_dist_weight: float = 40.0
    collision_penalty: float = -60.0
    success_bonus: float = 10.0
    joint_limit_penalty: float = -20.0
    safety_margin_weight: float = -1.0
    safety_distance: float = 0.3

    def validate(self) -> list[str]:
        errors = []
        if self.safety_distance <= 0.0:
            errors.append("safety_distance must be > 0")
        return errors


@dataclass
class RewardState:
    """Per-episode reward memory.

    hold_accumulator is the running sum of holding bonuses granted since the
    last entry into tolerance; it is non-negative and drops back to zero the
    moment an exit refunds it. hold_steps counts the consecutive steps inside
    tolerance up to now (0 when outside); the episode's success test reads it.
    """

    hold_accumulator: float = 0.0
    hold_steps: int = 0


def compute_step_reward(
    params: RewardParams,
    config: EpisodeConfig,
    state: RewardState,
    delta_deviation: float,
    delta_progress: float,
    path_length_init: float,
    goal_distance: float,
    min_obstacle_clearance: float = math.inf,
) -> tuple[float, RewardState, dict[str, float]]:
    """One shaped reward sample plus the updated state and a term breakdown.

    Holding bonuses apply only while goal_distance <= config.tolerance; on the
    step the end-effector exits the sphere the whole accumulated holding
    reward is subtracted. Under baseline, min_obstacle_clearance is the body
    clearance (world.body_query), inf when known to be >= safety_distance;
    one at or above it pays a safety margin of +0.0. Terminal bonuses are
    not included here.
    """
    for name, v in (
        ("delta_deviation", delta_deviation),
        ("delta_progress", delta_progress),
        ("path_length_init", path_length_init),
        ("goal_distance", goal_distance),
    ):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    if path_length_init <= 0.0:
        raise ValueError("path_length_init must be > 0")
    if goal_distance < 0.0:
        raise ValueError("goal_distance must be >= 0")

    time_term = params.time_weight * config.timestep / config.time_limit
    deviation_term = params.deviation_weight * delta_deviation
    progress_term = params.progress_weight * delta_progress / path_length_init

    inside = goal_distance <= config.tolerance
    hold_term = 0.0
    accumulator = state.hold_accumulator
    if inside:
        scale = config.timestep / config.hold_time
        closeness = 1.0 - min(1.0, goal_distance / config.tolerance)
        hold_term = (params.hold_time_weight + params.hold_dist_weight * closeness) * scale
        accumulator += hold_term

    refund = 0.0
    if state.hold_steps > 0 and not inside:
        refund = accumulator
        accumulator = 0.0

    safety_term = 0.0
    shortfall = 1.0 - min_obstacle_clearance / params.safety_distance
    if config.variant == "baseline" and shortfall > 0.0:
        safety_term = params.safety_margin_weight * shortfall

    reward = time_term + deviation_term + progress_term + hold_term - refund + safety_term
    new_state = RewardState(accumulator, state.hold_steps + 1 if inside else 0)
    breakdown = {
        "time": time_term,
        "deviation": deviation_term,
        "progress": progress_term,
        "hold": hold_term,
        "hold_refund": -refund,
        "safety_margin": safety_term,
        "total": reward,
    }
    return reward, new_state, breakdown


def terminal_reward(params: RewardParams, config: EpisodeConfig, reason: str) -> float:
    """Episode-end bonus/penalty for a termination reason."""
    if reason == "collision":
        return params.collision_penalty
    if reason == "success":
        return params.success_bonus
    if reason == "timeout":
        return 0.0
    if reason == "joint_limit":
        if config.variant != "baseline":
            raise ValueError("joint_limit termination cannot occur under the clamping variant")
        return params.joint_limit_penalty
    raise ValueError(f"unknown termination reason: {reason!r}")
