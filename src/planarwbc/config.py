"""Run configuration: one JSON-backed tree covering every component.

Loading starts from full defaults, merges the user document with unknown-key
rejection and type coercion keyed on the defaults' own types, derives the
policy sizes from the (possibly overridden) robot description, and finally
validates every section, reporting violations with dotted field paths.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .adr import AdrConfig
from .envs import EnvSpec, EpisodeConfig, observation_size
from .policy import PolicyConfig
from .ppo import TrainConfig
from .reward import RewardParams
from .robot import RobotConfig


class ConfigError(ValueError):
    """Carries every violation found, one message per field path."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class RunConfig:
    """Complete description of a training or evaluation run."""

    robot: RobotConfig = field(default_factory=RobotConfig)
    reward: RewardParams = field(default_factory=RewardParams)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    env: EnvSpec = field(default_factory=EnvSpec)
    adr: AdrConfig = field(default_factory=AdrConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)

    def validate(self) -> list[str]:
        errors = []
        for section in ("robot", "reward", "episode", "env", "adr", "train", "policy"):
            part = getattr(self, section)
            part_errors = (
                part.validate(self.robot) if section == "env" else part.validate()
            )
            errors += [f"{section}.{msg}" for msg in part_errors]
        if any(msg.startswith("robot.") for msg in errors):
            return errors  # the observation scales divide by the robot's limits
        if self.policy.scan_beams != self.robot.lidar.beams:
            errors.append("policy.scan_beams: must equal robot.lidar.beams")
        if self.policy.observation_size != observation_size(self.robot):
            errors.append(
                "policy.proprio_size: observation size mismatch with the robot description"
            )
        if self.policy.action_dims != 3 + self.robot.num_joints:
            errors.append("policy.action_dims: must equal 3 + number of joints")
        return errors


def default_config() -> RunConfig:
    robot = RobotConfig()
    return RunConfig(robot=robot, policy=PolicyConfig.for_robot(robot))


def _coerce(template, value, path: str, errors: list[str]):
    """Cast a JSON value to the template's python type, or record an error."""
    if isinstance(template, bool):
        if not isinstance(value, bool):
            errors.append(f"{path}: expected a boolean")
            return template
        return value
    if isinstance(template, int) and not isinstance(template, bool):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or (isinstance(value, float) and not value.is_integer()):
            errors.append(f"{path}: expected an integer")
            return template
        return int(value)
    if isinstance(template, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            errors.append(f"{path}: expected a number")
            return template
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if not math.isfinite(number):  # also JSON's NaN, Infinity and 1e400
            errors.append(f"{path}: expected a finite number")
            return template
        return number
    if isinstance(template, str):
        if not isinstance(value, str):
            errors.append(f"{path}: expected a string")
            return template
        return value
    if isinstance(template, tuple):
        if not isinstance(value, (list, tuple)):
            errors.append(f"{path}: expected an array")
            return template
        # An empty default (e.g. a derived scale vector) coerces to floats.
        element = template[0] if template else 0.0
        return tuple(
            _coerce(element, item, f"{path}[{i}]", errors) for i, item in enumerate(value)
        )
    errors.append(f"{path}: unsupported value")
    return template


def _merge(instance, data: dict, path: str, errors: list[str]):
    if not isinstance(data, dict):
        errors.append(f"{path or 'config'}: expected an object")
        return instance
    names = {f.name for f in fields(instance)}
    updates = {}
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in names:
            errors.append(f"{here}: unknown key")
            continue
        current = getattr(instance, key)
        if is_dataclass(current):
            updates[key] = _merge(current, value, here, errors)
        else:
            updates[key] = _coerce(current, value, here, errors)
    return replace(instance, **updates)


def config_from_dict(data: dict) -> RunConfig:
    """Defaults + user document; raises ConfigError with every violation."""
    errors: list[str] = []
    base = default_config()
    robot = _merge(base.robot, data.get("robot", {}), "robot", errors)
    # Policy defaults follow the merged robot (when it validates, see
    # RunConfig.validate); explicit keys override them.
    policy = base.policy if robot.validate() else PolicyConfig.for_robot(robot)
    derived = replace(base, robot=robot, policy=policy)
    merged = _merge(derived, {k: v for k, v in data.items() if k != "robot"}, "", errors)
    if errors:
        raise ConfigError(errors)
    violations = merged.validate()
    if violations:
        raise ConfigError(violations)
    return merged


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"{path}: cannot read config: {reason}"]) from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config parse error: {exc}"]) from exc
    if not isinstance(data, dict):
        raise ConfigError(["config root must be a JSON object"])
    return config_from_dict(data)


def config_to_dict(config: RunConfig) -> dict:
    return asdict(config)


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
