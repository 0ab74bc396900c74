"""Fixed-tolerance evaluation: success rates, termination breakdowns, traces.

A controller (the greedy policy by default, a sampled policy or any scripted
function in tests) is rolled through freshly generated scenes with
per-episode derived seeds; the aggregate report serializes to canonical JSON
so identical inputs produce byte-identical report files.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .envs import EnvSpec, Episode, EpisodeConfig, env_step, new_episode
from .policy import (Policy, acceleration_table, bins_to_action, greedy_bins, load_params,
                     sample_bins)
from .reward import TERMINATIONS
from .robot import Action


@dataclass
class EvalReport:
    """Aggregate outcome statistics over one evaluation batch."""

    env_kind: str
    tolerance: float
    episodes: int
    seed: int
    success_rate: float
    termination_percent: dict[str, float]
    termination_counts: dict[str, int]
    mean_final_distance: float | None  # over unsuccessful episodes
    mean_return: float
    mean_length: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def format_table(self) -> str:
        rows = [
            ("environment", self.env_kind),
            ("tolerance [m]", f"{self.tolerance:g}"),
            ("episodes", str(self.episodes)),
            ("seed", str(self.seed)),
            ("success rate", f"{100.0 * self.success_rate:.1f}%"),
        ]
        for reason in TERMINATIONS:
            rows.append((f"  {reason}", f"{self.termination_percent.get(reason, 0.0):.1f}%"))
        final = "-" if self.mean_final_distance is None else f"{self.mean_final_distance:.3f} m"
        rows += [
            ("mean final EE-goal distance (failures)", final),
            ("mean episode return", f"{self.mean_return:.2f}"),
            ("mean episode length", f"{self.mean_length:.1f}"),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def policy_controller(policy: Policy, robot, sample: bool = False):
    """Greedy (default) or sampled action selection from a policy."""
    table = acceleration_table(robot, policy.config.bins)

    def controller(episode: Episode, obs: np.ndarray, rng: np.random.Generator) -> Action:
        out = policy.forward(obs)
        if sample:
            bins, _ = sample_bins(out, rng)
        else:
            bins = greedy_bins(out)
        return bins_to_action(table, bins)

    return controller


def episode_seed(seed: int, index: int) -> np.random.SeedSequence:
    """Scene seed of episode `index`: SeedSequence(seed).spawn(n)[index] for any n > index."""
    return np.random.SeedSequence(seed, spawn_key=(index,))


def eval_episode(run, seed: int, index: int, spec: EnvSpec | None = None,
                 config: EpisodeConfig | None = None) -> tuple[Episode, np.random.Generator]:
    """Episode `index` of master seed `seed` and the generator it goes on with.

    Its scene and every later draw come from one generator seeded with
    episode_seed(seed, index); spec and config default to the run's.
    """
    rng = np.random.default_rng(episode_seed(seed, index))
    spec = run.env if spec is None else spec
    config = run.episode if config is None else config
    return new_episode(spec, run.robot, run.reward, config, rng), rng


def run_controller(
    run,
    controller,
    episodes: int = 100,
    seed: int = 0,
    tolerance: float | None = None,
    env_spec: EnvSpec | None = None,
    trace_path=None,
) -> EvalReport:
    """Roll a controller through derived-seed episodes and aggregate."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    spec = env_spec if env_spec is not None else run.env
    cfg: EpisodeConfig = run.episode
    if tolerance is not None:
        cfg = replace(cfg, tolerance=tolerance)
    counts = {reason: 0 for reason in TERMINATIONS}
    returns = []
    lengths = []
    failures = []
    trace_fh = Path(trace_path).open("w") if trace_path is not None else None
    try:
        for i in range(episodes):
            episode, rng = eval_episode(run, seed, i, spec, cfg)
            obs = episode.observation()
            total = 0.0
            outcome = None
            while episode.terminated is None:
                action = controller(episode, obs, rng)
                outcome = env_step(episode, action)
                total += outcome.reward
                obs = outcome.observation
                if trace_fh is not None:
                    trace_fh.write(json.dumps(_step_record(i, episode, action, outcome),
                                              sort_keys=True) + "\n")
            counts[episode.terminated] += 1
            returns.append(total)
            lengths.append(episode.step_count)
            if episode.terminated != "success":
                failures.append(outcome.info["goal_distance"])
    finally:
        if trace_fh is not None:
            trace_fh.close()
    return EvalReport(
        env_kind=spec.kind,
        tolerance=cfg.tolerance,
        episodes=episodes,
        seed=seed,
        success_rate=counts["success"] / episodes,
        termination_percent={
            reason: 100.0 * count / episodes for reason, count in counts.items()
        },
        termination_counts=counts,
        mean_final_distance=(sum(failures) / len(failures)) if failures else None,
        mean_return=sum(returns) / episodes,
        mean_length=sum(lengths) / episodes,
    )


def _step_record(index: int, episode: Episode, action: Action, outcome) -> dict:
    st = episode.state
    return {
        "episode": index,
        "step": episode.step_count,
        "base_pose": st.base_pose.tolist(),
        "base_vel": st.base_vel.tolist(),
        "joint_pos": st.joint_pos.tolist(),
        "joint_vel": st.joint_vel.tolist(),
        "action": {"base_acc": action.base_acc.tolist(),
                   "joint_acc": action.joint_acc.tolist()},
        "reward": outcome.reward,
        "reward_terms": outcome.info["reward_terms"],
        "terminated": outcome.terminated,
        "goal_distance": outcome.info["goal_distance"],
    }


def eval_success_rate(
    run,
    checkpoint,
    episodes: int = 100,
    seed: int = 0,
    tolerance: float | None = None,
    sample: bool = False,
    trace_path=None,
) -> EvalReport:
    """Evaluate a policy checkpoint at a fixed tolerance."""
    params = load_params(checkpoint, run.policy)
    policy = Policy(run.policy, params)
    controller = policy_controller(policy, run.robot, sample=sample)
    return run_controller(
        run, controller, episodes=episodes, seed=seed, tolerance=tolerance, trace_path=trace_path,
    )
