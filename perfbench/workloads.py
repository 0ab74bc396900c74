"""Benchmark workloads: the program's inputs, its timed calls and output checks.

A workload is a sequence of units. A unit is one whole timed call into the
program: a one-iteration ``ppo.train_loop`` on a fresh trainer for the train
workloads, a one-episode ``evaluate.run_controller`` for the eval workload.
Unit k gets its program seed from the workload seed and k, so one
(workload, seed) pair always gives the same inputs however many units a run
has time for. The program receives only configs, seeds and a controller.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from planarwbc import envs, evaluate, ppo, reward
from planarwbc.config import RunConfig, default_config
from planarwbc.robot import Action

# Distance between the base centre and the slot wall's face at which the
# reference controller parks: the folded arm reaches under 0.5 m, so the
# end-effector stays well clear of the wall and of the goal's tolerance.
STANDOFF = 1.0
BASE_KP = 2.0
BASE_KD = 3.0
JOINT_KD = 3.0


def unit_seed(seed: int, k: int) -> int:
    """Program seed of unit k of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def train_run(spec: envs.EnvSpec, seed: int) -> RunConfig:
    """One PPO iteration (2048 steps, 30 epochs x 8 minibatches), clamping, ADR on."""
    run = default_config()
    return replace(
        run,
        env=spec,
        episode=replace(run.episode, variant="clamping"),
        adr=replace(run.adr, enabled=True),
        train=replace(run.train, workers=1, steps_per_worker=2048, epochs=30,
                      minibatches=8, total_steps=2048, seed=seed),
    )


def eval_run() -> RunConfig:
    run = default_config()
    return replace(run, episode=replace(run.episode, variant="baseline"))


def standoff_controller(episode, obs, rng):
    """Base-only PD controller: park short of the slot, arm held in its spawn fold.

    Deterministic and blind to the goal's slot, so every gap_test episode
    runs to its timeout without a collision, limit hit or success.
    """
    robot = episode.robot
    st = episode.state
    _, ymin, _, ymax = episode.world.bounds
    target = (float(episode.world.boxes[:, 0].min()) - STANDOFF, 0.5 * (ymin + ymax), 0.0)
    x, y, theta = st.base_pose
    c, s = math.cos(theta), math.sin(theta)
    ex, ey = target[0] - x, target[1] - y
    error = np.array([c * ex + s * ey, -s * ex + c * ey,
                      math.remainder(target[2] - theta, 2.0 * math.pi)])
    limit = np.asarray(robot.max_base_acc)
    base_acc = np.clip(BASE_KP * error - BASE_KD * st.base_vel, -limit, limit)
    joint_acc = np.clip(-JOINT_KD * st.joint_vel, -robot.max_joint_acc, robot.max_joint_acc)
    return Action(base_acc=base_acc, joint_acc=joint_acc)


@dataclass
class UnitResult:
    """What one unit did: its timed call, its outputs and their checks."""

    steps: int = 0
    wall_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprint: str | None = None
    # Eval units only: wall time until the first step, and of each step.
    reset_s: float = 0.0
    step_s: list[float] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TrainUnit:
    """One fresh one-iteration training run; fingerprint = sha256(train_state.ckpt)."""

    artifact = "train_state.ckpt"
    label = "iteration"

    def __init__(self, run: RunConfig, out_dir: Path):
        self.run = run
        self.out_dir = Path(out_dir)

    def call(self):
        return ppo.train_loop(self.run, self.out_dir)

    def check(self, summary, result: UnitResult) -> None:
        result.steps = int(summary["global_step"])
        with (self.out_dir / "metrics.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        bad = sorted({r["termination"] for r in rows} - set(reward.TERMINATIONS))
        if bad:
            result.failures.append(f"episode terminations outside TERMINATIONS: {bad}")
        for line in (self.out_dir / "updates.jsonl").read_text().splitlines():
            stats = json.loads(line)
            losses = {k: v for k, v in stats.items() if k.endswith("loss") or k == "entropy"}
            if not all(math.isfinite(v) for v in losses.values()):
                result.failures.append(f"non-finite PPO loss: {losses}")
        # Resets (one per finished episode plus the first), steps, updates, checks.
        result.attempted += len(rows) + 1 + result.steps + int(summary["updates"]) + 2
        result.fingerprint = sha256_file(self.out_dir / self.artifact)


class EvalUnit:
    """One stand-off episode on gap_test; fingerprint = sha256(report.json)."""

    artifact = "report.json"
    label = "eval_episode"

    def __init__(self, run: RunConfig, seed: int, out_dir: Path):
        self.run = run
        self.seed = seed
        self.out_dir = Path(out_dir)

    def call(self):
        """Run the episode, stamping each controller call to time every step."""
        stamps = self.stamps = [time.perf_counter()]

        def controller(episode, obs, rng):
            stamps.append(time.perf_counter())
            return standoff_controller(episode, obs, rng)

        report = evaluate.run_controller(self.run, controller, episodes=1, seed=self.seed,
                                         env_spec=envs.EnvSpec.gap_test())
        stamps.append(time.perf_counter())
        return report

    def check(self, report, result: UnitResult) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        (self.out_dir / self.artifact).write_text(report.to_json())
        result.steps = round(report.mean_length * report.episodes)
        # Stamps: call start, one per step (before its action), call end.
        result.reset_s = self.stamps[1] - self.stamps[0]
        result.step_s = [b - a for a, b in zip(self.stamps[1:], self.stamps[2:])]
        if len(result.step_s) != result.steps:
            result.failures.append(f"{len(result.step_s)} controller calls for "
                                   f"{result.steps} steps")
        bad = sorted(set(report.termination_counts) - set(reward.TERMINATIONS))
        if bad:
            result.failures.append(f"episode terminations outside TERMINATIONS: {bad}")
        ended = {k: v for k, v in report.termination_counts.items() if v}
        if ended != {"timeout": report.episodes}:
            result.failures.append(f"stand-off episode ended other than by timeout: {ended}")
        # Resets, steps, checks.
        result.attempted += report.episodes + result.steps + 2
        result.fingerprint = sha256_file(self.out_dir / self.artifact)


def make_unit(workload: str, seed: int, k: int, out_dir: Path):
    """Inputs of unit k; building them is set-up, not timed work."""
    s = unit_seed(seed, k)
    if workload == "train_corridor":
        return TrainUnit(train_run(envs.EnvSpec(kind="corridor"), s), out_dir)
    if workload == "train_gap":
        return TrainUnit(train_run(envs.EnvSpec.gap_train(), s), out_dir)
    if workload == "eval_gap_standoff":
        return EvalUnit(eval_run(), s, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
