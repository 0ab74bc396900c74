"""On-policy trainer: rollout collection, GAE, clipped-surrogate updates.

Workers step their own environments with a shared parameter snapshot, episode
terminations feed the tolerance curriculum, advantages come from generalized
advantage estimation, and each update runs multiple shuffled minibatch epochs
of the clipped PPO objective through the policy's explicit backward with
Adam. Training state (parameters, optimizer moments, curriculum, RNG streams,
and live episode states) checkpoints to a single file, so a resumed
single-worker run reproduces the uninterrupted parameter trajectory exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import adr as adr_mod
from .envs import Episode, env_step, episode_from_dict, episode_to_dict, scene_digest
from .evaluate import seeded_episode
from .policy import (
    COMPUTE_DTYPE,
    CheckpointError,
    CheckpointFormat,
    Policy,
    acceleration_table,
    config_hash,
    init_params,
    log_softmax_np,
    param_count,
    read_checkpoint,
    replacing,
    sample_action,
    save_params,
    write_checkpoint,
)

TRAIN_CHECKPOINT = CheckpointFormat("training", "run", b"PWBCTRN1", 4, arrays=3, meta=True)
METRICS_HEADER = "global_step,worker,episode_return,episode_length,termination,tolerance\n"
# Spawn keys under SeedSequence(train.seed): worker w's k-th scene (SCENES, w, k),
# its actions (ACTIONS, w), the initial parameters (SETUP, 0) and the minibatch
# order (SETUP, 1). Eval episode i's key is (i,); none here has one word, so no
# training stream is an eval episode's, and no scene depends on an action.
SCENES, ACTIONS, SETUP = 0, 1, 2


@dataclass(frozen=True)
class TrainConfig:
    """PPO hyperparameters and run sizing."""

    total_steps: int = 500_000
    workers: int = 1
    steps_per_worker: int = 2048
    minibatches: int = 8
    epochs: int = 30
    clip_range: float = 0.2
    gamma: float = 0.999
    gae_lambda: float = 0.95
    learning_rate: float = 3e-4
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    max_grad_norm: float = 0.5
    seed: int = 0
    checkpoint_interval: int = 25

    def validate(self) -> list[str]:
        errors = []
        for name in ("total_steps", "workers", "steps_per_worker", "minibatches", "epochs"):
            if getattr(self, name) < 1:
                errors.append(f"{name} must be >= 1")
        if self.workers * self.steps_per_worker % self.minibatches != 0:
            errors.append("minibatches must divide workers * steps_per_worker")
        if not 0.0 < self.clip_range < 1.0:
            errors.append("clip_range must be in (0, 1)")
        if not 0.0 < self.gamma <= 1.0:
            errors.append("gamma must be in (0, 1]")
        if not 0.0 <= self.gae_lambda <= 1.0:
            errors.append("gae_lambda must be in [0, 1]")
        if self.learning_rate <= 0.0:
            errors.append("learning_rate must be > 0")
        if self.max_grad_norm <= 0.0:
            errors.append("max_grad_norm must be > 0")
        if self.checkpoint_interval < 1:
            errors.append("checkpoint_interval must be >= 1")
        if self.seed < 0:
            errors.append("seed must be >= 0")
        return errors


@dataclass
class RolloutBuffer:
    """Fixed-horizon per-worker transition arrays plus GAE outputs."""

    obs: np.ndarray  # (W, n, obs)
    bins: np.ndarray  # (W, n, dims)
    log_probs: np.ndarray  # (W, n)
    values: np.ndarray  # (W, n)
    rewards: np.ndarray  # (W, n)
    dones: np.ndarray  # (W, n) bool
    bootstrap: np.ndarray  # (W,) value of the state after the horizon
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None


def compute_gae(buffer: RolloutBuffer, gamma: float, lam: float) -> RolloutBuffer:
    """Exponentially weighted advantage recursion, truncated per rollout row."""
    w, n = buffer.rewards.shape
    adv = np.zeros((w, n))
    next_value = buffer.bootstrap.copy()
    carry = np.zeros(w)
    for t in range(n - 1, -1, -1):
        live = 1.0 - buffer.dones[:, t]
        delta = buffer.rewards[:, t] + gamma * next_value * live - buffer.values[:, t]
        carry = delta + gamma * lam * live * carry
        adv[:, t] = carry
        next_value = buffer.values[:, t]
    buffer.advantages = adv
    buffer.returns = adv + buffer.values
    return buffer


@dataclass
class EpisodeRecord:
    """One finished episode, as logged to metrics.csv."""

    global_step: int
    worker: int
    episode_return: float
    episode_length: int
    termination: str
    tolerance: float


@dataclass
class Worker:
    """One rollout worker: its action stream, live episode k and that episode's return."""

    index: int
    action_rng: np.random.Generator
    episode: Episode
    obs_vec: np.ndarray
    k: int = 0  # the live episode's index among the worker's episodes
    episode_return: float = 0.0


# Parameters per adam_step block: the block's gradient, moments, parameters
# and two temporaries (6 x 128 KiB of float32) stay cached through the 12
# passes. A step on the ~146k-parameter default policy took 0.36, 0.31, 0.32
# and 0.37 ms in blocks of 16384, 32768, 65536 and the whole array.
ADAM_BLOCK = 32768


@dataclass
class TrainerState:
    """Everything a training run needs to continue deterministically."""

    policy: Policy
    adam_m: np.ndarray
    adam_v: np.ndarray
    adam_t: int
    update_rng: np.random.Generator
    workers: list[Worker]
    adr_state: adr_mod.AdrState
    global_step: int = 0
    update_count: int = 0
    # adam_step's temporaries, one block long, kept across steps.
    adam_scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.adam_scratch = np.empty((2, ADAM_BLOCK), self.policy.params.dtype)


def _episode_tolerance(run, adr_state: adr_mod.AdrState) -> float:
    return adr_state.tolerance if run.adr.enabled else run.episode.tolerance


def _stream(run, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(run.train.seed, spawn_key=key)


def _worker_episode(run, worker: int, k: int, tolerance: float) -> Episode:
    """Worker `worker`'s k-th episode, run at `tolerance`."""
    config = replace(run.episode, tolerance=tolerance)
    return seeded_episode(run, run.train.seed, (SCENES, worker, k), config=config)[0]


def collect_rollouts(
    run, trainer: TrainerState
) -> tuple[RolloutBuffer, list[EpisodeRecord]]:
    """Advance every worker a fixed horizon under the current parameters.

    Worker order is fixed, so curriculum updates and the resulting buffer are
    reproducible for a given seed.
    """
    tc: TrainConfig = run.train
    n = tc.steps_per_worker
    w = tc.workers
    policy = trainer.policy
    obs_size = policy.config.observation_size
    dims = policy.config.action_dims
    table = acceleration_table(run.robot, policy.config.bins)
    buffer = RolloutBuffer(
        obs=np.zeros((w, n, obs_size)),
        bins=np.zeros((w, n, dims), dtype=np.int64),
        log_probs=np.zeros((w, n)),
        values=np.zeros((w, n)),
        rewards=np.zeros((w, n)),
        dones=np.zeros((w, n), dtype=bool),
        bootstrap=np.zeros(w),
    )
    records: list[EpisodeRecord] = []
    base_step = trainer.global_step
    for wk in trainer.workers:
        for t in range(n):
            logits, values = policy.forward(wk.obs_vec[None])
            action, bins, log_prob = sample_action(table, logits[0], wk.action_rng)
            try:
                outcome = env_step(wk.episode, action)
            except Exception as exc:
                raise RuntimeError(f"worker {wk.index}: environment step failed") from exc
            buffer.obs[wk.index, t] = wk.obs_vec
            buffer.bins[wk.index, t] = bins
            buffer.log_probs[wk.index, t] = log_prob
            buffer.values[wk.index, t] = values[0]
            buffer.rewards[wk.index, t] = outcome.reward
            wk.episode_return += outcome.reward
            if outcome.terminated is not None:
                buffer.dones[wk.index, t] = True
                records.append(
                    EpisodeRecord(
                        global_step=base_step + wk.index * n + t + 1,
                        worker=wk.index,
                        episode_return=wk.episode_return,
                        episode_length=wk.episode.step_count,
                        termination=outcome.terminated,
                        tolerance=wk.episode.config.tolerance,
                    )
                )
                if run.adr.enabled:
                    trainer.adr_state = adr_mod.record_episode(
                        run.adr, trainer.adr_state, outcome.terminated == "success"
                    )
                wk.k += 1
                try:
                    wk.episode = _worker_episode(
                        run, wk.index, wk.k, _episode_tolerance(run, trainer.adr_state)
                    )
                except Exception as exc:
                    raise RuntimeError(f"worker {wk.index}: episode reset failed: {exc}") from exc
                wk.obs_vec = wk.episode.observation()
                wk.episode_return = 0.0
            else:
                wk.obs_vec = outcome.observation
        buffer.bootstrap[wk.index] = policy.forward(wk.obs_vec[None])[1][0]
    trainer.global_step += w * n
    return buffer, records


def _global_norm(grad: np.ndarray) -> float:
    return float(np.sqrt(np.dot(grad, grad)))


def adam_step(
    trainer: TrainerState, grad: np.ndarray, lr: float,
    beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
) -> None:
    """In-place adaptive moment update of the policy's flat parameters.

    The operations are those of m = beta1*m + (1-beta1)*g,
    v = beta2*v + ((1-beta2)*g)*g and params -= alpha*m / (sqrt(v) + eps_hat),
    in that order, with the bias corrections folded into alpha and eps_hat
    (Kingma & Ba, 2015, section 2). They run block by block with the
    trainer's scratch rows as temporaries; every element sees the same
    operations, so the result does not depend on the block size.
    """
    trainer.adam_t += 1
    m, v, params = trainer.adam_m, trainer.adam_v, trainer.policy.params
    root_v_scale = math.sqrt(1.0 - beta2**trainer.adam_t)
    alpha = lr * root_v_scale / (1.0 - beta1**trainer.adam_t)
    eps_hat = eps * root_v_scale
    for start in range(0, grad.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        g, mb, vb, pb = grad[block], m[block], v[block], params[block]
        a, b = trainer.adam_scratch[:, :g.size]
        np.multiply(mb, beta1, out=mb)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(mb, a, out=mb)
        np.multiply(vb, beta2, out=vb)
        np.multiply(g, 1.0 - beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(vb, a, out=vb)
        np.multiply(mb, alpha, out=a)
        np.sqrt(vb, out=b)
        np.add(b, eps_hat, out=b)
        np.divide(a, b, out=a)
        np.subtract(pb, a, out=pb)


def ppo_loss(
    policy: Policy,
    obs: np.ndarray,
    bins: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: TrainConfig,
):
    """PPO objective on one minibatch, and its gradient at the network's outputs.

    Returns (loss, stats dict, (d_logits, d_values)): the gradient of the
    loss with respect to the logits and values of the policy's graph pass,
    which policy.backward() turns into the flat parameter gradient. The
    surrogate uses the clipped probability ratio and the value loss the
    plain squared error.

    The head's distribution is log_softmax_np, the one the rollout samples
    from, and its gradient is written in closed form: per action dimension,
    d log p(a)/dz = onehot(a) - p and dH/dz = -p (log p + H). Ties in the
    surrogate's minimum go to the unclipped term, and a ratio on a clip
    boundary counts as inside.
    """
    logits, values = policy.graph_forward(obs)
    inv_n = 1.0 / values.shape[0]
    logp = log_softmax_np(logits)
    probs = np.exp(logp)
    taken = bins[:, :, None]
    new_log_prob = np.take_along_axis(logp, taken, axis=2)[:, :, 0].sum(axis=1)
    dim_entropy = (probs * logp).sum(axis=2) * -1.0
    entropy = dim_entropy.sum(axis=1)

    ratio = np.exp(new_log_prob - old_log_probs)
    lo, hi = 1.0 - config.clip_range, 1.0 + config.clip_range
    unclipped = ratio * advantages
    clipped = np.clip(ratio, lo, hi) * advantages
    take_unclipped = unclipped <= clipped
    policy_loss = -(np.minimum(unclipped, clipped).sum() * inv_n)

    error = values - returns
    value_loss = (error**2).sum() * inv_n
    d_values = config.value_coef * inv_n * 2 * error
    entropy_mean = entropy.sum() * inv_n
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy_mean

    # The surrogate's minimum sends its gradient to the picked term, and the
    # clip passes it inside [lo, hi].
    d_ratio = -inv_n * advantages * (take_unclipped | ((ratio >= lo) & (ratio <= hi)))
    # d_log_prob * (onehot - p) + (entropy_coef / n) * p * (log p + H).
    d_log_prob = (d_ratio * ratio)[:, None, None]
    d_logits = (config.entropy_coef * inv_n * (logp + dim_entropy[:, :, None]) - d_log_prob) * probs
    np.put_along_axis(d_logits, taken,
                      np.take_along_axis(d_logits, taken, axis=2) + d_log_prob, axis=2)

    stats = {
        "policy_loss": float(policy_loss),
        "value_loss": float(value_loss),
        "entropy": float(entropy_mean),
        "ratio_mean": float(ratio.mean()),
        "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > config.clip_range)),
    }
    return float(loss), stats, (d_logits, d_values)


def ppo_update(run, trainer: TrainerState, buffer: RolloutBuffer) -> dict:
    """Multi-epoch shuffled minibatch optimization of the PPO objective."""
    tc: TrainConfig = run.train
    if buffer.advantages is None or buffer.returns is None:
        raise ValueError("compute_gae must run before ppo_update")
    n_total = buffer.rewards.size
    obs = buffer.obs.reshape(n_total, -1)
    bins = buffer.bins.reshape(n_total, -1)
    old_log_probs = buffer.log_probs.reshape(n_total)
    returns = buffer.returns.reshape(n_total)
    advantages = buffer.advantages.reshape(n_total)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    mb_size = n_total // tc.minibatches
    totals: dict[str, float] = {}
    count = 0
    for _ in range(tc.epochs):
        perm = trainer.update_rng.permutation(n_total)
        for k in range(tc.minibatches):
            idx = perm[k * mb_size : (k + 1) * mb_size]
            loss, stats, d_outputs = ppo_loss(
                trainer.policy, obs[idx], bins[idx], old_log_probs[idx],
                advantages[idx], returns[idx], tc,
            )
            if not np.isfinite(loss):
                raise RuntimeError(f"non-finite PPO loss: {stats}")
            grad = trainer.policy.backward(*d_outputs)
            norm = _global_norm(grad)
            if norm > tc.max_grad_norm:
                grad *= tc.max_grad_norm / norm
            adam_step(trainer, grad, tc.learning_rate)
            for key, value in stats.items():
                totals[key] = totals.get(key, 0.0) + value
            count += 1
    trainer.update_count += 1
    mean_stats = {key: value / count for key, value in totals.items()}
    mean_stats["update"] = trainer.update_count
    mean_stats["global_step"] = trainer.global_step
    return mean_stats


# ---------------------------------------------------------------------------
# Training state persistence
# ---------------------------------------------------------------------------

def _run_hash(run) -> bytes:
    """Config hash binding checkpoints to a run.

    total_steps is zeroed out first: extending the step budget of a resumed
    run must not invalidate its checkpoint, everything else must.
    """
    return config_hash(replace(run, train=replace(run.train, total_steps=0)))


def save_train_checkpoint(path, run, trainer: TrainerState) -> None:
    """One-file snapshot: params, Adam moments, curriculum, RNGs, episodes."""
    meta = {
        "adam_t": trainer.adam_t,
        "global_step": trainer.global_step,
        "update_count": trainer.update_count,
        "adr": adr_mod.state_to_dict(trainer.adr_state),
        "update_rng": trainer.update_rng.bit_generator.state,
        "workers": [
            {
                "action_rng": wk.action_rng.bit_generator.state,
                "k": wk.k,
                "episode": episode_to_dict(wk.episode),
                "episode_return": wk.episode_return,
            }
            for wk in trainer.workers
        ],
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    arrays = [trainer.policy.params, trainer.adam_m, trainer.adam_v]
    write_checkpoint(path, TRAIN_CHECKPOINT, _run_hash(run), arrays, blob)


def load_train_checkpoint(path, run) -> TrainerState:
    policy = Policy(run.policy, np.zeros(param_count(run.policy), COMPUTE_DTYPE))
    adam_m, adam_v = np.empty_like(policy.params), np.empty_like(policy.params)
    meta = json.loads(read_checkpoint(path, TRAIN_CHECKPOINT, _run_hash(run),
                                      [policy.params, adam_m, adam_v]))
    update_rng = np.random.default_rng()
    update_rng.bit_generator.state = meta["update_rng"]
    workers = []
    for index, wmeta in enumerate(meta["workers"]):
        action_rng = np.random.default_rng()
        action_rng.bit_generator.state = wmeta["action_rng"]
        # The snapshot names its scene by (worker, k); the same reset makes it again.
        k, snapshot = wmeta["k"], wmeta["episode"]
        episode = _worker_episode(run, index, k, snapshot["tolerance"])
        if scene_digest(episode) != snapshot["scene"]:
            raise CheckpointError(f"{path}: worker {index}'s episode {k} regenerates a "
                                  "scene other than the one the checkpoint was saved in")
        episode = episode_from_dict(episode, snapshot)
        workers.append(Worker(index, action_rng, episode, episode.observation(), k=k,
                              episode_return=wmeta["episode_return"]))
    return TrainerState(
        policy=policy,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=meta["adam_t"],
        update_rng=update_rng,
        workers=workers,
        adr_state=adr_mod.state_from_dict(meta["adr"]),
        global_step=meta["global_step"],
        update_count=meta["update_count"],
    )


def init_trainer(run) -> TrainerState:
    """Seed-derived fresh training state: params, RNG streams, live episodes."""
    init_rng = np.random.default_rng(_stream(run, SETUP, 0))
    policy = Policy(run.policy, init_params(run.policy, init_rng))
    adr_state = adr_mod.fresh_state(run.adr)
    workers = []
    for index in range(run.train.workers):
        episode = _worker_episode(run, index, 0, _episode_tolerance(run, adr_state))
        action_rng = np.random.default_rng(_stream(run, ACTIONS, index))
        workers.append(Worker(index, action_rng, episode, episode.observation()))
    return TrainerState(
        policy=policy,
        adam_m=np.zeros_like(policy.params),
        adam_v=np.zeros_like(policy.params),
        adam_t=0,
        update_rng=np.random.default_rng(_stream(run, SETUP, 1)),
        workers=workers,
        adr_state=adr_state,
    )


def _cut_logs(out_dir: Path, global_step: int, update_count: int) -> None:
    """Drop log rows past (global_step, update_count); write headers where missing.

    A fresh run cuts to (0, 0). A resumed run cuts to its checkpoint: later
    rows, and a line cut short by a crash, come from work the checkpoint does
    not hold and the run is about to redo. Each log is rewritten through a
    temporary file and a rename, so a crash mid-cut loses no row.
    """
    def by_step(line):
        return int(line.split(",", 1)[0]) <= global_step

    for name, header, keep in (
        ("metrics.csv", METRICS_HEADER, by_step),
        ("updates.jsonl", "", lambda line: json.loads(line)["update"] <= update_count),
        ("adr.csv", "global_step,tolerance\n", by_step),
    ):
        path = out_dir / name
        rows = path.read_text().splitlines(keepends=True) if path.exists() else []
        rows = rows[1:] if header else rows
        with replacing(path, "w") as fh:
            fh.write(header + "".join(r for r in rows if r.endswith("\n") and keep(r)))


def train_loop(run, out_dir, resume: str | None = None) -> dict:
    """Alternate collection and updates until the step budget is spent.

    Writes metrics.csv (per finished episode), updates.jsonl (per update),
    adr.csv (tolerance trace), train_state.ckpt (resumable full state), and
    policy.ckpt (inference-only parameters) under out_dir, the checkpoints
    after every checkpoint_interval-th update and after the last.

    A resumed run first writes both checkpoints from the one it resumes:
    a crash between a checkpoint's two writes leaves policy.ckpt one
    checkpoint behind, and a resume into another directory, even of a
    finished run, starts it with a checkpoint that agrees with its logs.
    """
    issues = run.validate()
    if issues:
        raise ValueError("; ".join(issues))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = out_dir / "metrics.csv"
    updates_path = out_dir / "updates.jsonl"
    adr_path = out_dir / "adr.csv"

    if resume is None:
        trainer = init_trainer(run)
    else:
        trainer = load_train_checkpoint(resume, run)
        save_train_checkpoint(out_dir / "train_state.ckpt", run, trainer)
        save_params(out_dir / "policy.ckpt", run.policy, trainer.policy.params)
    _cut_logs(out_dir, trainer.global_step, trainer.update_count)

    tc: TrainConfig = run.train
    last_tolerance = _episode_tolerance(run, trainer.adr_state)
    while trainer.global_step < tc.total_steps:
        buffer, records = collect_rollouts(run, trainer)
        compute_gae(buffer, tc.gamma, tc.gae_lambda)
        stats = ppo_update(run, trainer, buffer)

        with metrics_path.open("a") as fh:
            for rec in records:
                fh.write(
                    f"{rec.global_step},{rec.worker},{rec.episode_return!r},"
                    f"{rec.episode_length},{rec.termination},{rec.tolerance!r}\n"
                )
        tolerance = _episode_tolerance(run, trainer.adr_state)  # what the next episodes run at
        stats["adr_tolerance"] = tolerance
        with updates_path.open("a") as fh:
            fh.write(json.dumps(stats, sort_keys=True) + "\n")
        if tolerance != last_tolerance:
            with adr_path.open("a") as fh:
                fh.write(f"{trainer.global_step},{tolerance!r}\n")
            last_tolerance = tolerance
        if (trainer.update_count % tc.checkpoint_interval == 0
                or trainer.global_step >= tc.total_steps):
            save_train_checkpoint(out_dir / "train_state.ckpt", run, trainer)
            save_params(out_dir / "policy.ckpt", run.policy, trainer.policy.params)

    return {
        "global_step": trainer.global_step,
        "updates": trainer.update_count,
        "checkpoint": str(out_dir / "train_state.ckpt"),
        "policy_checkpoint": str(out_dir / "policy.ckpt"),
    }
