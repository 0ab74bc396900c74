"""Success-rate-driven curriculum on the goal tolerance distance.

A single controller watches a sliding window of recent episode outcomes.
Consistently high success tightens the tolerance by a fixed step, low
success relaxes it, and the window is cleared after every adjustment so the
next decision uses only post-adjustment evidence. The tolerance always stays
inside the configured range, which lies inside the episode's valid range.
"""
from __future__ import annotations

from dataclasses import dataclass

from .reward import TOLERANCE_RANGE


@dataclass(frozen=True)
class AdrConfig:
    """Window size, decision thresholds, and step of the curriculum.

    With enabled=False the trainer keeps the episode config's fixed tolerance
    and never consults the controller.
    """

    enabled: bool = True
    window: int = 50
    upper_rate: float = 0.8
    lower_rate: float = 0.5
    step: float = 0.02
    min_tolerance: float = TOLERANCE_RANGE[0]
    max_tolerance: float = TOLERANCE_RANGE[1]

    def validate(self) -> list[str]:
        errors = []
        if self.window < 1:
            errors.append("window must be >= 1")
        if not 0.0 <= self.lower_rate <= self.upper_rate <= 1.0:
            errors.append("need 0 <= lower_rate <= upper_rate <= 1")
        if self.step <= 0.0:
            errors.append("step must be > 0")
        lo, hi = TOLERANCE_RANGE
        for name in ("min_tolerance", "max_tolerance"):
            if not lo <= getattr(self, name) <= hi:
                errors.append(f"{name} must be in [{lo}, {hi}]")
        if self.min_tolerance > self.max_tolerance:
            errors.append("need min_tolerance <= max_tolerance")
        return errors


@dataclass(frozen=True)
class AdrState:
    """Current tolerance plus the outcome window backing the next decision."""

    tolerance: float
    outcomes: tuple[bool, ...] = ()


def fresh_state(config: AdrConfig) -> AdrState:
    """Start at the loosest tolerance: the range's upper bound."""
    return AdrState(tolerance=config.max_tolerance)


def record_episode(config: AdrConfig, state: AdrState, success: bool) -> AdrState:
    """Push one outcome and adjust the tolerance when the window decides.

    The window slides (oldest outcome dropped past `window` entries); an
    adjustment clears it entirely. Inside the [lower_rate, upper_rate] dead
    band the tolerance is left alone.
    """
    outcomes = (state.outcomes + (bool(success),))[-config.window :]
    tolerance = state.tolerance
    if len(outcomes) == config.window:
        rate = sum(outcomes) / config.window
        if rate > config.upper_rate:
            tolerance = max(config.min_tolerance, tolerance - config.step)
            outcomes = ()
        elif rate < config.lower_rate:
            tolerance = min(config.max_tolerance, tolerance + config.step)
            outcomes = ()
    return AdrState(tolerance=tolerance, outcomes=outcomes)


def state_to_dict(state: AdrState) -> dict:
    return {
        "tolerance": state.tolerance,
        "outcomes": [int(v) for v in state.outcomes],
    }


def state_from_dict(data: dict) -> AdrState:
    return AdrState(
        tolerance=float(data["tolerance"]),
        outcomes=tuple(bool(v) for v in data["outcomes"]),
    )
