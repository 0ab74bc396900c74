"""GAE, the clipped objective, Adam, rollout accounting, and resume.

Advantages are checked against the literal double-sum oracle; the loss
gradient against central finite differences over every parameter of a tiny
network; resume against an uninterrupted run of the same seed (the parameter
trajectories must be bit-identical).
"""

import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    adam_step_flat,
    distribution_stats,
    gae_double_sum,
    pack_checkpoint,
    taped_ppo_loss,
    unpack_checkpoint,
)
from planarwbc import ppo as ppo_mod
from planarwbc import policy as policy_mod
from planarwbc.cli import main
from planarwbc.config import default_config, save_config
from planarwbc.envs import EnvSpec, EpisodeConfig, GenerationError, scene_digest
from planarwbc.evaluate import seeded_episode
from planarwbc.policy import (
    COMPUTE_DTYPE,
    CheckpointError,
    Policy,
    PolicyConfig,
    init_params,
    load_params,
    log_softmax_np,
    param_count,
    param_views,
    save_params,
)
from planarwbc.robot import RobotConfig
from planarwbc.ppo import (
    ADAM_BLOCK,
    TRAIN_CHECKPOINT,
    RolloutBuffer,
    TrainConfig,
    TrainerState,
    adam_step,
    collect_rollouts,
    compute_gae,
    init_trainer,
    load_train_checkpoint,
    ppo_loss,
    save_train_checkpoint,
    ppo_update,
    train_loop,
    _cut_logs,
    _run_hash,
)

TINY = PolicyConfig(
    scan_beams=2,
    scan_hidden=(2, 2),
    proprio_size=3,
    trunk_hidden=(3, 3),
    action_dims=2,
    bins=3,
    obs_scale=(1.0,) * 7,
)


def tiny_policy(seed=0):
    return Policy(TINY, init_params(TINY, np.random.default_rng(seed)))


def make_buffer(rng, workers, n):
    return RolloutBuffer(
        obs=np.zeros((workers, n, 1)),
        bins=np.zeros((workers, n, 1), dtype=np.int64),
        log_probs=np.zeros((workers, n)),
        values=rng.standard_normal((workers, n)),
        rewards=rng.standard_normal((workers, n)),
        dones=rng.random((workers, n)) < 0.15,
        bootstrap=rng.standard_normal(workers),
    )


# ---------------------------------------------------------------------------
# Generalized advantage estimation
# ---------------------------------------------------------------------------


def test_gae_matches_double_sum_oracle():
    rng = np.random.default_rng(0)
    for trial in range(100):
        workers = int(rng.integers(1, 4))
        n = int(rng.integers(3, 41))
        gamma = float(rng.uniform(0.9, 1.0))
        lam = float(rng.uniform(0.0, 1.0))
        buffer = make_buffer(rng, workers, n)
        compute_gae(buffer, gamma, lam)
        for w in range(workers):
            ref = gae_double_sum(
                buffer.rewards[w], buffer.values[w], buffer.dones[w],
                buffer.bootstrap[w], gamma, lam,
            )
            assert np.allclose(buffer.advantages[w], ref, atol=1e-12), f"trial {trial}"
        assert np.allclose(buffer.returns, buffer.advantages + buffer.values, atol=0)


def test_gae_lambda_zero_is_one_step_td():
    rng = np.random.default_rng(1)
    buffer = make_buffer(rng, 2, 12)
    gamma = 0.99
    compute_gae(buffer, gamma, 0.0)
    next_values = np.concatenate(
        [buffer.values[:, 1:], buffer.bootstrap[:, None]], axis=1
    )
    live = 1.0 - buffer.dones
    td = buffer.rewards + gamma * next_values * live - buffer.values
    assert np.allclose(buffer.advantages, td, atol=1e-12)


def test_gae_lambda_one_is_discounted_return_minus_value():
    rng = np.random.default_rng(2)
    n, gamma = 15, 0.97
    buffer = make_buffer(rng, 1, n)
    buffer.dones[:] = False
    compute_gae(buffer, gamma, 1.0)
    for t in range(n):
        ret = sum(gamma ** (l - t) * buffer.rewards[0, l] for l in range(t, n))
        ret += gamma ** (n - t) * buffer.bootstrap[0]
        assert buffer.advantages[0, t] == pytest.approx(ret - buffer.values[0, t], abs=1e-10)


# ---------------------------------------------------------------------------
# Clipped surrogate objective
# ---------------------------------------------------------------------------


def self_consistent_batch(policy, n, seed):
    """Minibatch whose old log-probs come from the policy itself (ratio 1)."""
    rng = np.random.default_rng(seed)
    obs = rng.uniform(-1, 1, (n, policy.config.observation_size))
    logits, values = policy.forward(obs)
    bins = np.stack(
        [rng.integers(0, policy.config.bins, n) for _ in range(policy.config.action_dims)],
        axis=1,
    ).astype(np.int64)
    old_log_probs = np.array(
        [distribution_stats(logits[i], bins[i])[0] for i in range(n)]
    )
    return obs, bins, old_log_probs, values


def test_surrogate_at_ratio_one_reduces_to_mean_advantage():
    policy = tiny_policy()
    obs, bins, old_log_probs, values = self_consistent_batch(policy, 6, seed=3)
    rng = np.random.default_rng(4)
    advantages = rng.standard_normal(6)
    config = TrainConfig(entropy_coef=0.0)
    _, stats, _ = ppo_loss(policy, obs, bins, old_log_probs, advantages, values.copy(), config)
    assert stats["ratio_mean"] == pytest.approx(1.0, abs=1e-12)
    assert stats["clip_fraction"] == 0.0
    assert stats["policy_loss"] == pytest.approx(-advantages.mean(), abs=1e-12)
    # returns == current values, so the value term vanishes.
    assert stats["value_loss"] == pytest.approx(0.0, abs=1e-12)


def test_clip_blocks_gradient_only_for_profitable_ratios():
    policy = tiny_policy(seed=5)
    obs, bins, old_log_probs, values = self_consistent_batch(policy, 4, seed=6)
    config = TrainConfig(clip_range=0.2, value_coef=0.0, entropy_coef=0.0)
    # Ratio exp(0.7) ~ 2.0 on every sample, far outside the clip band.
    shifted = old_log_probs - 0.7

    # Positive advantages: min(ratio*A, clip(ratio)*A) takes the clipped
    # branch, a constant, so every parameter gradient is exactly zero.
    _, _, d_outputs = ppo_loss(policy, obs, bins, shifted, np.ones(4), values.copy(), config)
    grad = policy.backward(*d_outputs)
    assert np.array_equal(grad, np.zeros_like(grad))

    # Negative advantages at the same ratio keep the unclipped branch (the
    # objective stays pessimal-side sensitive), so gradients flow.
    _, _, d_outputs = ppo_loss(policy, obs, bins, shifted, -np.ones(4), values.copy(), config)
    assert np.abs(policy.backward(*d_outputs)).max() > 1e-6


def test_loss_gradient_matches_finite_differences(float64_network):
    policy = tiny_policy(seed=8)
    assert param_count(TINY) < 200
    n = 5
    obs, bins, old_log_probs, _ = self_consistent_batch(policy, n, seed=9)
    rng = np.random.default_rng(10)
    # Ratios away from the clip kinks at exp(+-offset) vs 0.8/1.2 keep the
    # loss smooth so central differences converge.
    old_log_probs = old_log_probs + np.array([-0.5, -0.1, 0.0, 0.15, 0.4])
    advantages = rng.standard_normal(n)
    returns = rng.standard_normal(n)
    config = TrainConfig(entropy_coef=0.01)

    _, _, d_outputs = ppo_loss(policy, obs, bins, old_log_probs, advantages, returns, config)
    grad = policy.backward(*d_outputs)

    def loss_at(theta):
        value, _, _ = ppo_loss(
            Policy(TINY, theta), obs, bins, old_log_probs, advantages, returns, config
        )
        return value

    eps = 1e-6
    worst = 0.0
    for idx in range(policy.params.size):
        hi = policy.params.copy()
        lo = policy.params.copy()
        hi[idx] += eps
        lo[idx] -= eps
        fd = (loss_at(hi) - loss_at(lo)) / (2.0 * eps)
        worst = max(worst, abs(grad[idx] - fd))
    assert worst < 1e-4


def test_batched_head_terms_match_per_dimension_reference():
    # ppo_loss takes one log-softmax over (N, dims, bins). Per sample, its
    # log-prob (the log of the ratio against a zero old log-prob) and its
    # entropy must equal distribution_stats, which works dimension by dimension.
    config = replace(TINY, action_dims=6, bins=7)
    policy = Policy(config, init_params(config, np.random.default_rng(15)))
    param_views(config, policy.params)["heads.w"][:, :-1] *= 300.0  # logits far from uniform
    n = 6
    obs, bins, _, values = self_consistent_batch(policy, n, seed=16)
    logits, _ = policy.forward(obs)
    for i in range(n):
        one = slice(i, i + 1)
        _, stats, _ = ppo_loss(policy, obs[one], bins[one], np.zeros(1), np.zeros(1),
                               values[one], TrainConfig())
        log_prob, entropy = distribution_stats(logits[i], bins[i])
        assert log_prob < -1.0
        assert math.log(stats["ratio_mean"]) == pytest.approx(log_prob, abs=1e-12)
        assert stats["entropy"] == pytest.approx(entropy, abs=1e-12)


def test_entropy_term_pushes_toward_uniform():
    # With only the entropy bonus active, ascending it must raise entropy.
    policy = tiny_policy(seed=11)
    obs, bins, old_log_probs, values = self_consistent_batch(policy, 8, seed=12)
    config = TrainConfig(value_coef=0.0, entropy_coef=1.0)
    zero_adv = np.zeros(8)
    _, before, d_outputs = ppo_loss(policy, obs, bins, old_log_probs, zero_adv, values.copy(),
                                    config)
    policy.params[...] -= 0.05 * policy.backward(*d_outputs)
    _, after, _ = ppo_loss(policy, obs, bins, old_log_probs, zero_adv, values.copy(), config)
    assert after["entropy"] > before["entropy"]
    assert after["entropy"] <= 2 * math.log(3) + 1e-12  # uniform ceiling


# ---------------------------------------------------------------------------
# The closed-form gradient against the reverse-mode tape
# ---------------------------------------------------------------------------


def assert_matches_the_tape(policy, batch, config):
    """ppo_loss plus policy.backward agree with the tape within float
    tolerance; returns the stats.

    The loss and every stat agree within 1e-12 relative and the flat
    gradient within 1e-6 of its norm. The head gradient is within one
    float32 ulp of the tape's entry by entry (the network consumes it in
    float32), or within 8 float64 ulps of the tape's largest entry: the
    tape forms each entry as a difference of terms that large, so below
    that its last bits are rounding.
    """
    tape_loss, tape_stats, tape_grad, tape_d_logits = taped_ppo_loss(policy, *batch, config)
    loss, stats, (d_logits, d_values) = ppo_loss(policy, *batch, config)
    grad = policy.backward(d_logits, d_values)
    assert np.isfinite(loss) and np.isfinite(d_logits).all() and np.isfinite(grad).all()
    assert loss == pytest.approx(tape_loss, rel=1e-12, abs=0.0)
    assert stats.keys() == tape_stats.keys()
    for key, value in stats.items():
        assert value == pytest.approx(tape_stats[key], rel=1e-12, abs=0.0), key
    size = np.abs(tape_d_logits)
    tolerance = np.maximum(np.spacing(size.astype(np.float32)), 8 * np.spacing(size.max()))
    assert np.all(np.abs(d_logits - tape_d_logits) <= tolerance)
    assert np.linalg.norm(grad - tape_grad) <= 1e-6 * np.linalg.norm(tape_grad)
    return stats


@pytest.fixture(scope="module")
def corpus():
    """A 512-step rollout of the default network on smoke scenes, after GAE,
    with the advantages normalized as ppo_update does."""
    run = smoke_run(total_steps=512, steps_per_worker=512)
    trainer = init_trainer(run)
    buffer, _ = collect_rollouts(run, trainer)
    compute_gae(buffer, run.train.gamma, run.train.gae_lambda)
    adv = buffer.advantages[0]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    samples = (buffer.obs[0], buffer.bins[0], buffer.log_probs[0], adv, buffer.returns[0])
    return run, trainer.policy.params.copy(), samples


@pytest.mark.parametrize("size", [256, 100])
def test_update_gradient_is_bitwise_the_tapes(corpus, size):
    # Held within float tolerance of the tape, as assert_matches_the_tape
    # says. Shuffled minibatches of a real rollout under the default config,
    # with an Adam step after each so later ratios leave 1 and get clipped.
    run, params, samples = corpus
    config = run.train
    trainer = TrainerState(policy=Policy(run.policy, params), adam_m=np.zeros_like(params),
                           adam_v=np.zeros_like(params), adam_t=0, update_rng=None,
                           workers=[], adr_state=None)
    rng = np.random.default_rng(size)
    clip_fractions = []
    for _ in range(4):
        idx = rng.permutation(len(samples[0]))[:size]
        batch = [a[idx] for a in samples]
        stats = assert_matches_the_tape(trainer.policy, batch, config)
        clip_fractions.append(stats["clip_fraction"])
        _, _, d_outputs = ppo_loss(trainer.policy, *batch, config)
        adam_step(trainer, trainer.policy.backward(*d_outputs), 1e-3)
    assert clip_fractions[0] == 0.0 and max(clip_fractions) > 0.1


def test_gradient_at_ties_and_clip_boundaries_is_bitwise_the_tapes():
    # Held within float tolerance of the tape, as assert_matches_the_tape
    # says. The tape sends a tie of minimum to its first argument, the
    # unclipped term, and counts a clip boundary as inside. A term on its
    # clip bound ties with its clipped twin, so the two rules together keep
    # its gradient; a change to both would zero it.
    policy = tiny_policy(seed=8)
    obs, bins, old_log_probs, values = self_consistent_batch(policy, 4, seed=9)
    returns = values + np.array([0.3, -0.2, 0.1, -0.4])
    # Ratios near 1 keep every surrogate inside the band, where unclipped ==
    # clipped; zero advantages tie at 0.
    stats = assert_matches_the_tape(
        policy, [obs, bins, old_log_probs, np.array([1.0, 0.0, -1.0, 0.0]), returns],
        TrainConfig())
    assert stats["clip_fraction"] == 0.0
    # One sample at a time, its ratio exactly on the upper or the lower clip
    # bound, with advantages of either sign.
    for i, shift, adv in ((0, -0.1, 1.0), (1, 0.1, -1.0), (2, -0.1, -1.0), (3, 0.1, 1.0)):
        one = slice(i, i + 1)
        batch = [obs[one], bins[one], old_log_probs[one] + shift, np.array([adv]), returns[one]]
        ratio = ppo_loss(policy, *batch, TrainConfig())[1]["ratio_mean"]
        clip_range = ratio - 1.0 if ratio > 1.0 else 1.0 - ratio
        assert 1.0 + clip_range == ratio or 1.0 - clip_range == ratio
        stats = assert_matches_the_tape(policy, batch, TrainConfig(clip_range=clip_range))
        assert stats["clip_fraction"] == 0.0


@pytest.mark.parametrize("entropy_coef", [0.01, 1.0])
def test_gradient_at_saturated_logits_matches_the_tape(entropy_coef):
    # One dimension with a bin 40 above the rest, whose probability rounds
    # to exactly 1; one with bins 40 and 800 above the rest, where every
    # probability is exactly 0 or 1. Old log-probabilities from the same
    # logits keep every ratio at 1, so the surrogate's gradient flows.
    config = replace(TINY, action_dims=2, bins=5)
    policy = Policy(config, init_params(config, np.random.default_rng(20)))
    heads_b = param_views(config, policy.params)["heads.b"]
    heads_b[2] += 40.0
    heads_b[5 + 1] += 40.0
    heads_b[5 + 4] += 800.0
    obs, bins, _, values = self_consistent_batch(policy, 8, seed=21)
    bins[:3] = [2, 4]  # the dominant bins
    bins[3:5] = [0, 1]  # bins of probability about e^-40 and e^-760
    logits, _ = policy.forward(obs)
    probs = np.exp(log_softmax_np(logits))
    assert np.all(probs[:, 0, 2] == 1.0)
    assert np.all((probs[:, 1] == 0.0) | (probs[:, 1] == 1.0))
    old_log_probs = np.array([distribution_stats(logits[i], bins[i])[0] for i in range(8)])
    batch = [obs, bins, old_log_probs, np.random.default_rng(22).standard_normal(8),
             values + 0.1]
    stats = assert_matches_the_tape(policy, batch, TrainConfig(entropy_coef=entropy_coef))
    assert stats["ratio_mean"] == 1.0


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def test_adam_step_matches_reference_recursion(float64_network):
    # The textbook recursion with bias-corrected moments; adam_step folds
    # the corrections into its step size and epsilon, equal in exact
    # arithmetic.
    policy = tiny_policy(seed=13)
    trainer = TrainerState(
        policy=policy,
        adam_m=np.zeros_like(policy.params),
        adam_v=np.zeros_like(policy.params),
        adam_t=0,
        update_rng=np.random.default_rng(0),
        workers=[],
        adr_state=None,
    )
    theta = policy.params.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    rng = np.random.default_rng(14)
    for t in range(1, 4):
        grad = rng.standard_normal(theta.size)
        adam_step(trainer, grad, lr=1e-3)
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad * grad
        theta = theta - 1e-3 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert trainer.adam_t == t
        assert np.allclose(trainer.policy.params, theta, atol=1e-15)


@pytest.mark.parametrize("size", ["tiny", "default"])
def test_adam_step_is_bitwise_the_flat_formula(size):
    # Blocked steps equal whole-array steps byte for byte: moments and
    # parameters. Neither parameter count is a multiple of the block, so the
    # last block is a short one.
    config = TINY if size == "tiny" else default_config().policy
    policy = Policy(config, init_params(config, np.random.default_rng(16)))
    n = policy.params.size
    assert n % ADAM_BLOCK != 0
    assert size == "tiny" or n > 2 * ADAM_BLOCK
    trainer = TrainerState(policy=policy, adam_m=np.zeros_like(policy.params),
                           adam_v=np.zeros_like(policy.params), adam_t=0,
                           update_rng=np.random.default_rng(0), workers=[], adr_state=None)
    m, v, theta = np.zeros_like(policy.params), np.zeros_like(policy.params), policy.params.copy()
    rng = np.random.default_rng(17)
    for t in range(1, 4):
        grad = rng.standard_normal(n).astype(COMPUTE_DTYPE)
        adam_step(trainer, grad, lr=3e-4)
        adam_step_flat(m, v, theta, grad, t, lr=3e-4)
        assert trainer.adam_m.tobytes() == m.tobytes()
        assert trainer.adam_v.tobytes() == v.tobytes()
        assert trainer.policy.params.tobytes() == theta.tobytes()


def test_train_config_validation():
    assert TrainConfig().validate() == []
    assert TrainConfig(steps_per_worker=10, minibatches=3).validate()
    assert TrainConfig(clip_range=0.0).validate()
    assert TrainConfig(gamma=0.0).validate()
    assert TrainConfig(gae_lambda=1.5).validate()


# ---------------------------------------------------------------------------
# Rollout collection and the training loop
# ---------------------------------------------------------------------------


def smoke_run(total_steps=96, steps_per_worker=48, seed=0):
    base = default_config()
    return replace(
        base,
        env=EnvSpec(kind="corridor", corridor_length_range=(6.0, 7.0),
                    corridor_obstacle_count=(0, 1)),
        episode=EpisodeConfig(tolerance=0.4, hold_time=0.2, time_limit=0.8,
                              grid_cell=0.1),
        adr=replace(base.adr, enabled=False),
        train=TrainConfig(total_steps=total_steps, workers=1,
                          steps_per_worker=steps_per_worker, minibatches=4,
                          epochs=2, seed=seed, checkpoint_interval=1),
    )


def test_collect_rollouts_accounting():
    run = smoke_run()
    trainer = init_trainer(run)
    buffer, records = collect_rollouts(run, trainer)
    n = run.train.steps_per_worker
    assert buffer.rewards.shape == (1, n)
    assert trainer.global_step == n
    assert np.all(np.isfinite(buffer.rewards))
    assert np.all((buffer.bins >= 0) & (buffer.bins < run.policy.bins))
    assert np.all(buffer.log_probs < 0.0)
    # time_limit 0.8 at 0.04 steps forces a termination every <= 20 steps.
    assert int(buffer.dones.sum()) == len(records) >= 2
    done_steps = np.nonzero(buffer.dones[0])[0]
    for record, t in zip(records, done_steps):
        assert record.global_step == t + 1
        assert record.termination in ("success", "collision", "timeout")
        assert record.episode_length <= 20


def test_failed_reset_names_its_worker(gap_draws_rejected):
    # A scene set that never generates must end the rollout with an error that
    # names the worker and keeps the generator's rejection counts as its cause.
    run = smoke_run()
    trainer = init_trainer(run)
    gap_run = replace(run, env=EnvSpec.gap_train(),
                          episode=replace(run.episode, grid_cell=0.2))
    with pytest.raises(RuntimeError, match="worker 0: episode reset failed") as exc:
        collect_rollouts(gap_run, trainer)
    assert isinstance(exc.value.__cause__, GenerationError)
    assert "rejected all 100 attempts" in str(exc.value.__cause__)


def test_train_loop_writes_artifacts_and_advances(tmp_path):
    run = smoke_run()
    result = train_loop(run, tmp_path / "run")
    assert result["global_step"] == 96
    assert result["updates"] == 2
    metrics = (tmp_path / "run" / "metrics.csv").read_text().strip().splitlines()
    assert metrics[0].startswith("global_step,worker,episode_return")
    assert len(metrics) >= 3
    updates = (tmp_path / "run" / "updates.jsonl").read_text().strip().splitlines()
    assert len(updates) == 2
    assert (tmp_path / "run" / "train_state.ckpt").exists()
    assert (tmp_path / "run" / "policy.ckpt").exists()


def test_each_checkpoint_is_written_once(tmp_path, monkeypatch):
    # The checkpoints are written after every checkpoint_interval-th update
    # and after the last, and once when the last lands on the interval: two
    # updates at interval 1 write each file twice, at interval 5 once, with
    # the same final parameters (the training checkpoint also holds the
    # run's config hash, which the interval is part of). A resume writes both
    # from the checkpoint it resumes, so one into a new directory leaves its
    # bytes there even when no step is left to run.
    writes = []
    for name in ("save_train_checkpoint", "save_params"):
        def spy(path, *args, save=getattr(ppo_mod, name)):
            writes.append(Path(path).name)
            return save(path, *args)
        monkeypatch.setattr(ppo_mod, name, spy)
    files = {}
    for interval, pairs in ((1, 2), (5, 1)):
        run = smoke_run()
        run = replace(run, train=replace(run.train, checkpoint_interval=interval))
        writes.clear()
        out = tmp_path / str(interval)
        assert train_loop(run, out)["updates"] == 2
        assert writes == ["train_state.ckpt", "policy.ckpt"] * pairs
        trainer = load_train_checkpoint(out / "train_state.ckpt", run)
        files[interval] = ((out / "policy.ckpt").read_bytes(), trainer.global_step,
                           trainer.policy.params.tobytes(), trainer.adam_v.tobytes())
    assert files[1] == files[5]
    writes.clear()
    train_loop(run, tmp_path / "resumed", resume=str(out / "train_state.ckpt"))
    assert writes == ["train_state.ckpt", "policy.ckpt"]
    for name in ("train_state.ckpt", "policy.ckpt"):
        assert (tmp_path / "resumed" / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("curriculum", [False, True])
def test_logged_tolerance_is_the_one_episodes_run_at(tmp_path, curriculum):
    # With the curriculum off, episodes run at episode.tolerance, not at the
    # unused curriculum's start value; with it on, at the curriculum's.
    run = smoke_run()
    run = replace(run, adr=replace(run.adr, enabled=curriculum))
    train_loop(run, tmp_path / "run")
    lines = (tmp_path / "run" / "updates.jsonl").read_text().splitlines()
    metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
    assert run.episode.tolerance != run.adr.max_tolerance  # so the two can be told apart
    expected = run.adr.max_tolerance if curriculum else run.episode.tolerance
    assert [json.loads(line)["adr_tolerance"] for line in lines] == [expected] * 2
    assert {float(row.rsplit(",", 1)[1]) for row in metrics} == {expected}
    assert (tmp_path / "run" / "adr.csv").read_text() == "global_step,tolerance\n"


def test_resume_reproduces_uninterrupted_run(tmp_path):
    # One 96-step run versus 48 steps, checkpoint, resume for 48 more: the
    # final parameters must agree bit for bit.
    full = train_loop(smoke_run(total_steps=96), tmp_path / "full")
    half = train_loop(smoke_run(total_steps=48), tmp_path / "half")
    resumed = train_loop(
        smoke_run(total_steps=96), tmp_path / "resumed", resume=half["checkpoint"]
    )
    full_state = load_train_checkpoint(full["checkpoint"], smoke_run(total_steps=96))
    res_state = load_train_checkpoint(resumed["checkpoint"], smoke_run(total_steps=96))
    assert res_state.global_step == full_state.global_step == 96
    assert np.array_equal(res_state.policy.params, full_state.policy.params)
    assert np.array_equal(res_state.adam_m, full_state.adam_m)
    assert res_state.update_rng.bit_generator.state == full_state.update_rng.bit_generator.state


def test_resumed_logs_match_uninterrupted_run(tmp_path):
    # A 48-step run resumed to 96 steps in its own directory leaves the log
    # bytes of one 96-step run, also when the resume starts from a checkpoint
    # older than the directory's logs.
    def logs(out):
        return {name: (out / name).read_bytes()
                for name in ("metrics.csv", "updates.jsonl", "adr.csv")}

    train_loop(smoke_run(total_steps=96), tmp_path / "full")
    expected = logs(tmp_path / "full")
    out = tmp_path / "run"
    half = train_loop(smoke_run(total_steps=48), out)
    older = tmp_path / "half.ckpt"
    shutil.copy(half["checkpoint"], older)
    train_loop(smoke_run(total_steps=96), out, resume=half["checkpoint"])
    assert logs(out) == expected
    train_loop(smoke_run(total_steps=96), out, resume=older)
    assert logs(out) == expected

    # Into a new directory: every log gets its header and the rows after
    # the checkpoint.
    fresh = tmp_path / "fresh"
    train_loop(smoke_run(total_steps=96), fresh, resume=older)
    header, *rows = expected["metrics.csv"].splitlines(keepends=True)
    assert logs(fresh) == {
        "metrics.csv": header + b"".join(r for r in rows if int(r.split(b",")[0]) > 48),
        "updates.jsonl": expected["updates.jsonl"].splitlines(keepends=True)[1],
        "adr.csv": b"global_step,tolerance\n",
    }


def test_resume_rewrites_a_stale_policy_checkpoint(tmp_path, monkeypatch):
    # A crash between the checkpoint's two writes leaves policy.ckpt one
    # checkpoint behind train_state.ckpt. A resume rewrites it from the
    # training checkpoint before it collects anything, so it holds the
    # checkpoint's parameters even when the resumed run fails at once.
    out = tmp_path / "run"
    train_loop(smoke_run(total_steps=48), out)
    stale = (out / "policy.ckpt").read_bytes()
    done = train_loop(smoke_run(total_steps=96), out, resume=str(out / "train_state.ckpt"))
    current = (out / "policy.ckpt").read_bytes()
    assert current != stale
    (out / "policy.ckpt").write_bytes(stale)

    def crash(run, trainer):
        raise RuntimeError("crashed before the first step")

    monkeypatch.setattr("planarwbc.ppo.collect_rollouts", crash)
    with pytest.raises(RuntimeError, match="crashed"):
        train_loop(smoke_run(total_steps=144), out, resume=done["checkpoint"])
    assert (out / "policy.ckpt").read_bytes() == current
    trainer = load_train_checkpoint(done["checkpoint"], smoke_run(total_steps=144))
    assert np.array_equal(load_params(out / "policy.ckpt", smoke_run().policy),
                          trainer.policy.params)


def record_resets(monkeypatch):
    """Patch the trainer's reset to log (worker, k, scene digest) of each episode it starts."""
    resets = []
    original = ppo_mod._worker_episode

    def recorded(run, worker, k, tolerance):
        episode = original(run, worker, k, tolerance)
        resets.append((worker, k, scene_digest(episode)))
        return episode

    monkeypatch.setattr(ppo_mod, "_worker_episode", recorded)
    return resets


@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_training_streams_never_take_an_eval_episode_seed(seed, monkeypatch):
    # Eval episode i draws from SeedSequence(seed, spawn_key=(i,)). Every
    # stream of a training run on the same master seed, the scenes, the
    # actions, the initial parameters and the minibatch order, has a longer
    # key, and so other states; worker w's first scene is not eval episode w's.
    run = smoke_run(seed=seed)
    run = replace(run, train=replace(run.train, workers=2))
    scene_seeds, init_seeds = [], []
    seeded = ppo_mod.seeded_episode
    initialise = ppo_mod.init_params

    def scene_seed(run, seed, key, spec=None, config=None):
        episode, rng = seeded(run, seed, key, spec, config)
        scene_seeds.append(rng.bit_generator.seed_seq)
        return episode, rng

    def init_seed(config, rng):
        init_seeds.append(rng.bit_generator.seed_seq)
        return initialise(config, rng)

    monkeypatch.setattr(ppo_mod, "seeded_episode", scene_seed)
    monkeypatch.setattr(ppo_mod, "init_params", init_seed)
    trainer = init_trainer(run)
    first_scenes = [scene_digest(wk.episode) for wk in trainer.workers]
    collect_rollouts(run, trainer)
    streams = {
        "scene": scene_seeds,
        "action": [wk.action_rng.bit_generator.seed_seq for wk in trainer.workers],
        "init": init_seeds,
        "update": [trainer.update_rng.bit_generator.seed_seq],
    }
    assert len(scene_seeds) > run.train.workers  # resets after the first scenes too
    assert [len(streams[name]) for name in ("action", "init", "update")] == [2, 1, 1]
    eval_keys = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(64)]
    eval_states = {tuple(e.generate_state(4).tolist()) for e in eval_keys}
    train_keys = [(name, s) for name, seeds in streams.items() for s in seeds]
    for name, ours in train_keys:
        assert ours.entropy == seed, name
        assert len(ours.spawn_key) >= 2, name
        assert all(ours.spawn_key != e.spawn_key for e in eval_keys), name
        assert tuple(ours.generate_state(4).tolist()) not in eval_states, name
    assert len({s.spawn_key for _, s in train_keys}) == len(train_keys)
    for w, digest in enumerate(first_scenes):
        assert digest != scene_digest(seeded_episode(run, seed, (w,))[0])


def test_two_policies_meet_the_same_scenes(monkeypatch):
    # A worker's k-th scene comes from (seed, worker, k) alone, not from the
    # actions sampled before it: the initial policy and one biased to the top
    # bin of the base's forward acceleration meet the same first 5 scenes on
    # each worker of one seed, though their episodes end at other steps.
    run = smoke_run(steps_per_worker=500)
    run = replace(run, episode=replace(run.episode, time_limit=4.0),
                  train=replace(run.train, workers=2))
    resets = record_resets(monkeypatch)
    scenes, ends = {}, {}
    for name in ("initial", "rushing"):
        resets.clear()
        trainer = init_trainer(run)
        if name == "rushing":
            param_views(run.policy, trainer.policy.params)["heads.b"][run.policy.bins - 1] = 5.0
        buffer, _ = collect_rollouts(run, trainer)
        per_worker = [[(k, d) for w, k, d in resets if w == worker][:5] for worker in (0, 1)]
        assert [[k for k, _ in first] for first in per_worker] == [list(range(5))] * 2
        scenes[name] = [[d for _, d in first] for first in per_worker]
        ends[name] = buffer.dones.tolist()
    assert scenes["initial"] == scenes["rushing"]
    assert len({d for first in scenes["initial"] for d in first}) == 10
    assert ends["initial"] != ends["rushing"]


def reframed(path, run, edit):
    """Rewrite the training checkpoint at path with edit(meta) applied, re-framed so that
    its payload digest holds."""
    count = param_count(run.policy)
    arrays, meta = unpack_checkpoint(TRAIN_CHECKPOINT, path.read_bytes(), _run_hash(run), count)
    meta = json.loads(meta)
    edit(meta)
    path.write_bytes(pack_checkpoint(TRAIN_CHECKPOINT, _run_hash(run), arrays,
                                     json.dumps(meta, sort_keys=True).encode()))


def test_snapshot_names_its_scene_and_copies_none(tmp_path):
    # With the curriculum on, episodes run at its 0.5, not at the run's 0.4:
    # the load makes each episode again at the snapshot's tolerance.
    run = smoke_run(total_steps=48)
    run = replace(run, adr=replace(run.adr, enabled=True))
    done = train_loop(run, tmp_path / "run")
    path = Path(done["checkpoint"])
    seen = []
    reframed(path, run, seen.append)
    (worker,) = seen[0]["workers"]
    assert sorted(worker) == ["action_rng", "episode", "episode_return", "k"]
    assert worker["k"] >= 2  # time_limit 0.8 ends an episode every <= 20 steps
    assert sorted(worker["episode"]) == ["path_state", "reward_state", "scene", "state",
                                         "step_count", "tolerance"]
    assert not {"world", "goal_pose", "plan_start"} & set(worker["episode"])
    # The re-framed, unedited file loads, to the live episode of the run.
    trainer = load_train_checkpoint(path, run)
    (wk,) = trainer.workers
    assert wk.k == worker["k"]
    assert scene_digest(wk.episode) == worker["episode"]["scene"]
    assert wk.episode.step_count == worker["episode"]["step_count"]
    assert wk.episode.config.tolerance == worker["episode"]["tolerance"] == run.adr.max_tolerance
    assert run.episode.tolerance != run.adr.max_tolerance


@pytest.mark.parametrize("edit", ["k", "scene"])
def test_resume_rejects_a_snapshot_of_another_scene(tmp_path, capsys, edit):
    # A worker's k, or its scene digest, edited and the file re-framed: the
    # payload digest holds, but the scene the snapshot names regenerates
    # another world or goal than its digest's.
    run = smoke_run(total_steps=48)
    path = Path(train_loop(run, tmp_path / "run")["checkpoint"])

    def tamper(meta):
        worker = meta["workers"][0]
        if edit == "k":
            worker["k"] += 1
        else:
            worker["episode"]["scene"] = hashlib.sha256(b"another scene").hexdigest()

    reframed(path, run, tamper)
    message = f"{path}: worker 0's episode "
    with pytest.raises(CheckpointError, match="regenerates a scene other than") as exc:
        load_train_checkpoint(path, run)
    assert str(exc.value).startswith(message)
    config = tmp_path / "run.json"
    save_config(smoke_run(total_steps=96), config)
    code = main(["train", "--config", str(config), "--resume", str(path),
                 "--out", str(tmp_path / "resumed")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"checkpoint error: {exc.value}"]


def test_checkpoint_rejects_other_run_config(tmp_path):
    run = smoke_run()
    result = train_loop(run, tmp_path / "run")
    other = smoke_run(seed=1)
    with pytest.raises(ValueError, match="different run config"):
        load_train_checkpoint(result["checkpoint"], other)
    # A larger step budget alone must stay loadable (resumable runs).
    load_train_checkpoint(result["checkpoint"], smoke_run(total_steps=200_000))


def test_checkpoint_rejects_truncated_or_padded_files(tmp_path):
    run = smoke_run()
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, init_trainer(run))
    raw = path.read_bytes()
    arrays_end = 52 + 3 * TRAIN_CHECKPOINT.dtype.itemsize * param_count(run.policy)
    # Inside the header, at its end, inside the arrays, before and inside the
    # metadata length, inside the metadata.
    for size in (20, 48, 52, arrays_end - 8, arrays_end, arrays_end + 4, len(raw) - 1):
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="truncated"):
            load_train_checkpoint(path, run)
    path.write_bytes(raw + b"{}")
    with pytest.raises(ValueError, match="extra bytes"):
        load_train_checkpoint(path, run)
    path.write_bytes(raw)
    assert load_train_checkpoint(path, run).global_step == 0


def test_checkpoint_rejects_previous_version_and_flipped_bits(tmp_path):
    run = smoke_run()
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, init_trainer(run))
    raw = path.read_bytes()
    # Version 1 framed the same header, arrays and metadata, without the digest.
    path.write_bytes(raw[:8] + (1).to_bytes(4, "little") + raw[12:-32])
    with pytest.raises(ValueError, match="version 1"):
        load_train_checkpoint(path, run)
    # One bit in the middle of the parameters, each Adam moment and the metadata.
    size = TRAIN_CHECKPOINT.dtype.itemsize * param_count(run.policy)
    meta_start = 52 + 3 * size + 8
    for offset in (52 + size // 2, 52 + size + size // 2, 52 + 2 * size + size // 2,
                   (meta_start + len(raw) - 32) // 2):
        flipped = bytearray(raw)
        flipped[offset] ^= 1
        path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match="payload digest"):
            load_train_checkpoint(path, run)


def test_checkpoint_rejects_version_2(tmp_path):
    # Version 2 framed the parameters and Adam moments as <f8 in the same
    # header, metadata and digest.
    run = smoke_run()
    trainer = init_trainer(run)
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, trainer)
    count = param_count(run.policy)
    _, meta = unpack_checkpoint(TRAIN_CHECKPOINT, path.read_bytes(), _run_hash(run), count)
    arrays = [trainer.policy.params, trainer.adam_m, trainer.adam_v]
    path.write_bytes(pack_checkpoint(replace(TRAIN_CHECKPOINT, version=2), _run_hash(run), arrays,
                                     meta, dtype="<f8"))
    with pytest.raises(ValueError, match="unsupported training checkpoint version 2"):
        load_train_checkpoint(path, run)


def test_checkpoint_rejects_version_3(tmp_path):
    # Version 3 framed the same arrays; its episode snapshots copied their
    # world, goal and plan start instead of naming their scene.
    run = smoke_run()
    trainer = init_trainer(run)
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, trainer)
    count = param_count(run.policy)
    arrays, meta = unpack_checkpoint(TRAIN_CHECKPOINT, path.read_bytes(), _run_hash(run), count)
    meta = json.loads(meta)
    wk = trainer.workers[0]
    meta["workers"][0]["episode"].update(
        world={"segments": wk.episode.world.segments.tolist(),
               "boxes": wk.episode.world.boxes.tolist(),
               "bounds": list(wk.episode.world.bounds)},
        goal_pose=wk.episode.goal_pose.tolist(), plan_start=wk.episode.path.points[0].tolist())
    path.write_bytes(pack_checkpoint(replace(TRAIN_CHECKPOINT, version=3), _run_hash(run), arrays,
                                     json.dumps(meta, sort_keys=True).encode()))
    with pytest.raises(CheckpointError, match="unsupported training checkpoint version 3"):
        load_train_checkpoint(path, run)


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    run = smoke_run()
    result = train_loop(run, tmp_path / "run")
    path = result["checkpoint"]
    before = Path(path).read_bytes()
    trainer = load_train_checkpoint(path, run)
    trainer.global_step += 1

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        save_train_checkpoint(path, run, trainer)
    assert Path(path).read_bytes() == before
    assert not [p for p in (tmp_path / "run").iterdir() if p.name.endswith(".tmp")]
    monkeypatch.undo()
    save_train_checkpoint(path, run, trainer)
    assert load_train_checkpoint(path, run).global_step == trainer.global_step


def test_streamed_train_checkpoint_has_the_one_piece_framing(tmp_path):
    run = smoke_run()
    trainer = init_trainer(run)
    adam_step(trainer, np.random.default_rng(40).standard_normal(trainer.adam_m.size), lr=1e-3)
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, trainer)
    raw = path.read_bytes()
    _, meta = unpack_checkpoint(TRAIN_CHECKPOINT, raw, _run_hash(run), param_count(run.policy))
    arrays = [trainer.policy.params, trainer.adam_m, trainer.adam_v]
    assert raw == pack_checkpoint(TRAIN_CHECKPOINT, _run_hash(run), arrays, meta)


def test_train_checkpoint_is_written_without_whole_copies(tmp_path):
    # Each array goes to the file and the digest as a view of its own
    # buffer: the save allocates less than one parameter array.
    run = smoke_run()
    trainer = init_trainer(run)
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, trainer)
    tracemalloc.start()
    try:
        save_train_checkpoint(path, run, trainer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < trainer.policy.params.nbytes


def test_streamed_load_rejects_what_the_whole_file_check_rejects(tmp_path):
    # Every mutation the whole-file reference rejects, the streamed load
    # rejects with the same message after the path; an intact file loads
    # the same arrays.
    run = smoke_run()
    trainer = init_trainer(run)
    adam_step(trainer, np.random.default_rng(41).standard_normal(trainer.adam_m.size), lr=1e-3)
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, trainer)
    raw = path.read_bytes()
    count = param_count(run.policy)
    arrays_end = 52 + 3 * TRAIN_CHECKPOINT.dtype.itemsize * count
    mutations = [raw[:size] for size in (0, 5, 8, 20, 51, 52, arrays_end - 8, arrays_end,
                                         arrays_end + 4, len(raw) - 1)]
    # Extra bytes, another kind's magic, version 1, another config, another count.
    mutations += [raw + b"{}", b"PWBCNET1" + raw[8:],
                  raw[:8] + (1).to_bytes(4, "little") + raw[12:], raw[:12] + bytes(32) + raw[44:],
                  raw[:44] + (count + 1).to_bytes(8, "little") + raw[52:]]
    for offset in (60, arrays_end - 1, arrays_end + 3, len(raw) - 40, len(raw) - 1):
        flipped = bytearray(raw)
        flipped[offset] ^= 1
        mutations.append(bytes(flipped))
    for mutated in mutations:
        with pytest.raises(CheckpointError) as expected:
            unpack_checkpoint(TRAIN_CHECKPOINT, mutated, _run_hash(run), count)
        path.write_bytes(mutated)
        with pytest.raises(CheckpointError) as streamed:
            load_train_checkpoint(path, run)
        assert str(streamed.value) == f"{path}: {expected.value}"
    path.write_bytes(raw)
    arrays, _ = unpack_checkpoint(TRAIN_CHECKPOINT, raw, _run_hash(run), count)
    loaded = load_train_checkpoint(path, run)
    for array, buffer in zip(arrays, (loaded.policy.params, loaded.adam_m, loaded.adam_v)):
        assert buffer.tobytes() == array.tobytes()


def test_train_checkpoint_loads_without_whole_copies(tmp_path):
    # The file's arrays go straight into the policy's parameters and the
    # Adam moments, so the load allocates little beyond the state it
    # returns: those three arrays and Adam's scratch, 1.15x the file.
    # Without live episodes, whose rebuild regenerates each scene, the load
    # is the file's alone.
    run = smoke_run()
    trainer = init_trainer(run)
    trainer.workers = []
    path = tmp_path / "train_state.ckpt"
    save_train_checkpoint(path, run, trainer)
    load_train_checkpoint(path, run)
    tracemalloc.start()
    try:
        loaded = load_train_checkpoint(path, run)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.policy.params.tobytes() == trainer.policy.params.tobytes()
    held = sum(a.nbytes for a in (loaded.policy.params, loaded.adam_m, loaded.adam_v,
                                  loaded.adam_scratch))
    size = path.stat().st_size
    assert held < 1.25 * size
    assert peak < held + 0.02 * size


# sha256 of train_state.ckpt and policy.ckpt after the 96-step smoke run,
# written by the taped update. The closed-form head gradient reproduces
# them: its entries round to the tape's in the float32 backward. The first
# also covers the run-configuration digest and the episode snapshot's keys,
# so it moves with the config schema and the snapshot format.
TWO_ITERATION_SHA256 = [
    "4c32c304c2dc88fd7ba28531e9fd8c79305d362a93ad65bf1208981d964519dd",
    "22b33639e80ded2c98bf6802dcc014e24c15ef29983d5af1fa19e5d644ff0e9d",
]


def test_two_iteration_checkpoints_keep_their_digests(tmp_path):
    # In a fresh interpreter on one BLAS thread, as the benchmark runs:
    # matrix products may round differently on more threads.
    here = Path(__file__).resolve().parent
    script = ("import hashlib, sys; from pathlib import Path; from test_ppo import smoke_run; "
              "from planarwbc.ppo import train_loop; "
              "result = train_loop(smoke_run(total_steps=96), Path(sys.argv[1])); "
              "[print(hashlib.sha256(Path(result[key]).read_bytes()).hexdigest()) "
              "for key in ('checkpoint', 'policy_checkpoint')]")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "run")], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == TWO_ITERATION_SHA256


def test_cli_train_pins_blas_threads_itself(tmp_path):
    # `planarwbc train` started without the thread variables sets one BLAS
    # thread before numpy loads, so it writes the pinned checkpoint on any
    # core count.
    config = tmp_path / "run.json"
    save_config(smoke_run(total_steps=96), config)
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    out = tmp_path / "run"
    done = subprocess.run([sys.executable, "-m", "planarwbc.cli", "train", "--config", str(config),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    digest = hashlib.sha256((out / "train_state.ckpt").read_bytes()).hexdigest()
    assert digest == TWO_ITERATION_SHA256[0]


def test_cut_logs_keep_the_old_log_when_a_rewrite_fails(tmp_path):
    # A cut whose write fails part way (here at a 16-byte file-size limit,
    # as on a full disk) leaves every log as it was and no temporary file.
    out = tmp_path / "run"
    train_loop(smoke_run(total_steps=96), out)
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (16, hard))
    try:
        with pytest.raises(OSError):
            _cut_logs(out, 48, 1)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_ppo_update_requires_gae():
    run = smoke_run()
    trainer = init_trainer(run)
    buffer, _ = collect_rollouts(run, trainer)
    with pytest.raises(ValueError, match="compute_gae"):
        ppo_update(run, trainer, buffer)


# ---------------------------------------------------------------------------
# One float32 parameter array
# ---------------------------------------------------------------------------


def assert_forward_reads_params(policy, obs):
    """Every layer view shares memory with the policy's parameters, and the
    forward equals, bit for bit, that of a policy built from its params now."""
    assert all(np.shares_memory(view, policy.params) for layer in policy.layers for view in layer)
    logits, values = policy.forward(obs)
    fresh_logits, fresh_values = Policy(policy.config, policy.params.copy()).forward(obs)
    assert np.array_equal(logits, fresh_logits)
    assert np.array_equal(values, fresh_values)


def assert_state_in_compute_dtype(trainer):
    """The parameters, their gradient, Adam's moments and its scratch share COMPUTE_DTYPE."""
    policy = trainer.policy
    logits, values = policy.graph_forward(np.zeros((2, policy.config.observation_size)))
    grad = policy.backward(np.ones_like(logits), np.ones_like(values))
    arrays = (policy.params, grad, trainer.adam_m, trainer.adam_v, trainer.adam_scratch)
    assert {a.dtype for a in arrays} == {np.dtype(COMPUTE_DTYPE)}


def test_forward_follows_every_parameter_change(tmp_path):
    run = smoke_run()
    trainer = init_trainer(run)
    assert_state_in_compute_dtype(trainer)
    obs = np.random.default_rng(30).uniform(-1, 1, (4, run.policy.observation_size))
    before = trainer.policy.params.copy()
    adam_step(trainer, np.random.default_rng(31).standard_normal(before.size), lr=1e-3)
    assert not np.array_equal(trainer.policy.params, before)
    assert_forward_reads_params(trainer.policy, obs)

    buffer, _ = collect_rollouts(run, trainer)
    compute_gae(buffer, run.train.gamma, run.train.gae_lambda)
    before = trainer.policy.params.copy()
    ppo_update(run, trainer, buffer)
    assert not np.array_equal(trainer.policy.params, before)
    assert_forward_reads_params(trainer.policy, obs)

    save_params(tmp_path / "policy.ckpt", run.policy, trainer.policy.params)
    loaded = Policy(run.policy, load_params(tmp_path / "policy.ckpt", run.policy))
    assert_forward_reads_params(loaded, obs)
    assert np.array_equal(loaded.forward(obs)[0], trainer.policy.forward(obs)[0])

    save_train_checkpoint(tmp_path / "train_state.ckpt", run, trainer)
    restored = load_train_checkpoint(tmp_path / "train_state.ckpt", run)
    assert_state_in_compute_dtype(restored)
    assert_forward_reads_params(restored.policy, obs)
    assert np.array_equal(restored.policy.forward(obs)[0],
                          trainer.policy.forward(obs)[0])


def test_policies_built_from_one_array_keep_their_own_parameters():
    run = smoke_run()
    trainer = init_trainer(run)
    shared = trainer.policy.params.copy()
    before = shared.copy()
    trainer.policy = Policy(run.policy, shared)
    other = Policy(run.policy, shared)
    obs = np.random.default_rng(32).uniform(-1, 1, (4, run.policy.observation_size))
    logits, values = other.forward(obs)
    adam_step(trainer, np.random.default_rng(33).standard_normal(before.size), lr=1e-3)
    assert not np.array_equal(trainer.policy.params, before)
    assert np.array_equal(shared, before)
    assert np.array_equal(other.params, before)
    other_logits, other_values = other.forward(obs)
    assert np.array_equal(other_logits, logits)
    assert np.array_equal(other_values, values)


def test_float32_network_tracks_float64(monkeypatch):
    # The default network with heads scaled to logits of order one, as in a
    # trained policy. Bounds are relative to the float64 magnitudes. Measured
    # worst over seeds 0-4: logits 7.6e-7, values 9.7e-7, gradient norm
    # 5.5e-7, loss statistics after the update 6.5e-8 (clip fraction equal);
    # each bound below leaves at least 5x.
    config = PolicyConfig.for_robot(RobotConfig())
    rng = np.random.default_rng(0)
    params = init_params(config, rng)
    param_views(config, params)["heads.w"][...] *= 100.0
    n = 512
    obs = rng.uniform(-1, 1, (n, config.observation_size)) / np.asarray(config.obs_scale)
    low = Policy(config, params.copy())
    with monkeypatch.context() as m:
        m.setattr(policy_mod, "COMPUTE_DTYPE", np.float64)
        high = Policy(config, params.copy())
    assert low.params.dtype == np.float32 and high.params.dtype == np.float64

    logits, values = high.forward(obs)
    low_logits, low_values = low.forward(obs)
    assert np.abs(low_logits - logits).max() <= 5e-6 * np.abs(logits).max()
    assert np.abs(low_values - values).max() <= 5e-6 * np.abs(values).max()

    bins = rng.integers(0, config.bins, (n, config.action_dims))
    old_log_probs = np.array([distribution_stats(logits[i], bins[i])[0] for i in range(n)])
    advantages, returns = rng.standard_normal((2, n))
    grads = []
    for policy in (high, low):
        _, _, d_outputs = ppo_loss(policy, obs[:256], bins[:256], old_log_probs[:256],
                                   advantages[:256], returns[:256], TrainConfig())
        grads.append(policy.backward(*d_outputs).copy())
    assert np.linalg.norm(grads[1] - grads[0]) <= 5e-6 * np.linalg.norm(grads[0])

    buffer = RolloutBuffer(obs=obs[None], bins=bins[None], log_probs=old_log_probs[None],
                           values=values[None], rewards=0.1 * rng.standard_normal((1, n)),
                           dones=rng.random((1, n)) < 0.02, bootstrap=np.zeros(1))
    compute_gae(buffer, 0.999, 0.95)
    run = replace(default_config(), train=TrainConfig(steps_per_worker=n, minibatches=2,
                                                      epochs=10))
    stats = []
    for policy in (high, low):
        trainer = TrainerState(policy=policy, adam_m=np.zeros_like(policy.params),
                               adam_v=np.zeros_like(policy.params), adam_t=0,
                               update_rng=np.random.default_rng(5), workers=[], adr_state=None)
        stats.append(ppo_update(run, trainer, buffer))
    for key in ("policy_loss", "value_loss", "entropy", "ratio_mean"):
        assert abs(stats[1][key] - stats[0][key]) <= 1e-6 * abs(stats[0][key]), key
    assert stats[0]["clip_fraction"] > 0.1
    assert abs(stats[1]["clip_fraction"] - stats[0]["clip_fraction"]) <= 1e-3
