"""Run configuration: one JSON-backed tree covering every component.

Loading starts from full defaults, merges the user document with unknown-key
rejection and type coercion keyed on the defaults' own types, and finally
validates every section, reporting violations with dotted field paths. A
field holds one independent value; what the robot fixes is derived.
"""
from __future__ import annotations

import json
import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .adr import AdrConfig
from .envs import EnvSpec, EpisodeConfig
from .policy import NetworkConfig, PolicyConfig
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
    # The document's "policy" section: the network's own sizes.
    network: NetworkConfig = field(default_factory=NetworkConfig, metadata={"key": "policy"})

    @property
    def policy(self) -> PolicyConfig:
        """The network's sizes and the robot's input layout (needs a valid robot)."""
        return PolicyConfig.for_robot(self.robot, self.network)

    def validate(self) -> list[str]:
        errors = []
        for section in ("robot", "reward", "episode", "env", "adr", "train"):
            part = getattr(self, section)
            part_errors = (
                part.validate(self.robot) if section == "env" else part.validate()
            )
            errors += [f"{section}.{msg}" for msg in part_errors]
        if self.robot.lidar.max_range < self.reward.safety_distance:
            # Else a scan capped below the safety distance could undercut the body clearance.
            errors.append("robot.lidar.max_range: must be >= reward.safety_distance")
        if any(msg.startswith("robot.") for msg in errors):
            return errors  # the observation scales divide by the robot's limits
        return errors + [f"policy.{msg}" for msg in self.policy.validate()]


def default_config() -> RunConfig:
    return RunConfig()


def _coerce(template, value, path: str, errors: list[str], hint):
    """Cast a JSON value to the template's python type, or record an error.

    hint is the field's annotation: an array must have the length it
    declares, which tuple[float, ...] leaves free.
    """
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
        items = typing.get_args(hint)
        if items[-1] is not Ellipsis and len(value) != len(items):
            errors.append(f"{path}: expected an array of {len(items)}")
            return template
        return tuple(_coerce(template[0], item, f"{path}[{i}]", errors, items[0])
                     for i, item in enumerate(value))
    errors.append(f"{path}: unsupported value")
    return template


def _merge(instance, data: dict, path: str, errors: list[str]):
    if not isinstance(data, dict):
        errors.append(f"{path or 'config'}: expected an object")
        return instance
    names = {f.metadata.get("key", f.name): f.name for f in fields(instance)}
    hints = typing.get_type_hints(type(instance))
    updates = {}
    for key, value in data.items():
        here = f"{path}.{key}" if path else key
        if key not in names:
            errors.append(f"{here}: unknown key")
            continue
        name = names[key]
        current = getattr(instance, name)
        if is_dataclass(current):
            updates[name] = _merge(current, value, here, errors)
        else:
            updates[name] = _coerce(current, value, here, errors, hints[name])
    return replace(instance, **updates)


def config_from_dict(data: dict) -> RunConfig:
    """Defaults + user document; raises ConfigError with every violation."""
    errors: list[str] = []
    merged = _merge(default_config(), data, "", errors)
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
    return {f.metadata.get("key", f.name): asdict(getattr(config, f.name))
            for f in fields(config)}


def save_config(config: RunConfig, path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")
