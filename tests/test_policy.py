"""Policy network: forward oracle, action mapping, sampling, checkpoints.

The vectorized batch forward is checked against a per-sample naive
re-implementation that walks the same parameter views layer by layer.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from oracles import distribution_stats, greedy_action, pack_checkpoint, taped_forward
from planarwbc import autodiff as ad
from planarwbc import policy as policy_mod
from planarwbc.policy import (
    POLICY_CHECKPOINT,
    Policy,
    PolicyConfig,
    PolicyOutput,
    acceleration_table,
    bins_to_action,
    config_hash,
    greedy_bins,
    init_params,
    layout,
    load_params,
    param_count,
    param_views,
    sample_bins,
    save_params,
)
from planarwbc.robot import RobotConfig

SMALL = PolicyConfig(
    scan_beams=3,
    scan_hidden=(4, 3),
    proprio_size=5,
    trunk_hidden=(6, 5),
    action_dims=2,
    bins=3,
    obs_scale=tuple(np.linspace(0.5, 1.5, 11)),
)


def small_policy(seed=0):
    return Policy(SMALL, init_params(SMALL, np.random.default_rng(seed)))


def naive_forward(policy, obs_row):
    """Scalar-path re-implementation of the scan-block network."""
    cfg = policy.config
    v = param_views(cfg, policy.params)
    x = obs_row * np.asarray(cfg.obs_scale)
    nb = cfg.scan_beams
    parts = {}
    for side, sl in (("front", slice(0, nb)), ("rear", slice(nb, 2 * nb))):
        h = np.tanh(x[sl] @ v[f"scan_{side}.w0"] + v[f"scan_{side}.b0"])
        parts[side] = np.tanh(h @ v[f"scan_{side}.w1"] + v[f"scan_{side}.b1"])
    h = np.concatenate([parts["front"], parts["rear"], x[2 * nb :]])
    h = np.tanh(h @ v["trunk.w0"] + v["trunk.b0"])
    h = np.tanh(h @ v["trunk.w1"] + v["trunk.b1"])
    out = h @ v["heads.w"] + v["heads.b"]
    k = cfg.action_dims * cfg.bins
    return out[:k].reshape(cfg.action_dims, cfg.bins), float(out[k])


def test_default_robot_policy_size():
    config = PolicyConfig.for_robot(RobotConfig())
    assert config.observation_size == 140
    assert param_count(config) == 146_091
    assert config.validate() == []


def test_forward_matches_naive_oracle(float64_network):
    policy = small_policy()
    obs = np.random.default_rng(1).uniform(-1, 1, (6, SMALL.observation_size))
    logits, values = policy.forward_batch(obs)
    assert logits.shape == (6, SMALL.action_dims, SMALL.bins)
    for i in range(len(obs)):
        ref_logits, ref_value = naive_forward(policy, obs[i])
        assert np.allclose(logits[i], ref_logits, atol=1e-10)
        assert values[i] == pytest.approx(ref_value, abs=1e-10)
    single = policy.forward(obs[2])
    assert np.allclose(single.logits, logits[2], atol=1e-12)
    assert single.value == pytest.approx(values[2], abs=1e-12)


def test_graph_forward_matches_fast_forward():
    policy = small_policy(seed=4)
    obs = np.random.default_rng(2).uniform(-1, 1, (5, SMALL.observation_size))
    fast_logits, fast_values = policy.forward_batch(obs)
    taped_logits, taped_value, _ = taped_forward(policy, obs)
    logits, values = policy.graph_forward(obs)
    assert policy.params.dtype == np.float32
    assert fast_logits.dtype == logits.dtype == taped_logits.data.dtype == np.float64
    for a, b in ((logits, fast_logits), (values, fast_values), (taped_logits.data, fast_logits),
                 (taped_value.data, fast_values)):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def test_forward_of_one_observation_is_bitwise_forward_batch():
    config = PolicyConfig.for_robot(RobotConfig())
    policy = Policy(config, init_params(config, np.random.default_rng(8)))
    obs = np.random.default_rng(9).uniform(-1, 1, (4, config.observation_size))
    for row in obs:
        out = policy.forward(row)
        logits, values = policy.forward_batch(row[None])
        assert out.logits.tobytes() == logits[0].tobytes()
        assert out.value == values[0]


@pytest.mark.parametrize("size", ["small", "default"])
def test_backward_is_bitwise_the_tape(size):
    # Upstream gradients with exact zeros of both signs, at two batch sizes
    # in turn (the workspace is rebuilt for each) and twice at the first.
    config = SMALL if size == "small" else PolicyConfig.for_robot(RobotConfig())
    policy = Policy(config, init_params(config, np.random.default_rng(10)))
    rng = np.random.default_rng(11)
    for n in (7, 3, 7):
        obs = rng.uniform(-1, 1, (n, config.observation_size))
        d_logits = rng.standard_normal((n, config.action_dims, config.bins))
        d_logits[0, 0] = 0.0
        d_logits[-1, -1] = -0.0
        d_values = rng.standard_normal(n)
        d_values[1] = -0.0
        taped_logits, taped_value, expected = taped_forward(policy, obs)
        ((taped_logits * ad.Tensor(d_logits)).sum() + (taped_value * ad.Tensor(d_values)).sum()
         ).backward()
        policy.graph_forward(obs)
        grad = policy.backward(d_logits, d_values)
        assert grad.tobytes() == expected.tobytes()
    with pytest.raises(RuntimeError, match="graph_forward"):
        policy.backward(d_logits, d_values)


@pytest.mark.parametrize("between", [1, 5, 9])
def test_forward_between_graph_forward_and_backward_leaves_the_gradient(between):
    # A rollout-style forward of one row, and batches of the graph pass's
    # size and of another, each on other observations.
    policy = small_policy(seed=12)
    rng = np.random.default_rng(13)
    obs = rng.uniform(-1, 1, (5, SMALL.observation_size))
    other = rng.uniform(-1, 1, (between, SMALL.observation_size))
    d_logits = rng.standard_normal((5, SMALL.action_dims, SMALL.bins))
    d_values = rng.standard_normal(5)
    policy.graph_forward(obs)
    expected = policy.backward(d_logits, d_values).copy()
    logits, values = policy.graph_forward(obs)
    kept = logits.tobytes(), values.tobytes()
    if between == 1:
        policy.forward(other[0])
    else:
        policy.forward_batch(other)
    assert (logits.tobytes(), values.tobytes()) == kept
    assert policy.backward(d_logits, d_values).tobytes() == expected.tobytes()


def test_forward_outputs_are_the_callers_own():
    # Each output is checked after a later call of the same size and after a
    # graph pass of that size.
    policy = small_policy(seed=14)
    obs = np.random.default_rng(15).uniform(-1, 1, (4, SMALL.observation_size))
    single = policy.forward(obs[0])
    kept = single.logits.copy()
    policy.forward(obs[1])
    policy.graph_forward(obs[1:2])
    assert single.logits.tobytes() == kept.tobytes()
    logits, values = policy.forward_batch(obs)
    kept = logits.copy(), values.copy()
    policy.forward_batch(obs[::-1].copy())
    policy.graph_forward(obs[::-1].copy())
    assert (logits.tobytes(), values.tobytes()) == (kept[0].tobytes(), kept[1].tobytes())


def test_gradient_spot_checked_by_finite_differences(float64_network):
    policy = small_policy(seed=7)
    obs = np.random.default_rng(3).uniform(-1, 1, (4, SMALL.observation_size))
    weights = np.random.default_rng(4).standard_normal(
        (4, SMALL.action_dims, SMALL.bins)
    )

    def numpy_loss(params):
        logits, values = Policy(SMALL, params).forward_batch(obs)
        return float((logits * weights).sum() + (values**2).sum())

    _, values = policy.graph_forward(obs)
    grad = policy.backward(weights, 2.0 * values)
    assert grad.shape == policy.params.shape

    rng = np.random.default_rng(5)
    eps = 1e-6
    for idx in rng.choice(policy.params.size, size=20, replace=False):
        hi = policy.params.copy()
        lo = policy.params.copy()
        hi[idx] += eps
        lo[idx] -= eps
        fd = (numpy_loss(hi) - numpy_loss(lo)) / (2.0 * eps)
        assert grad[idx] == pytest.approx(fd, abs=1e-5, rel=1e-5)


def test_flat_gradient_slots_no_gradient_reaches_stay_zero():
    policy = small_policy(seed=2)
    obs = np.random.default_rng(6).uniform(-1, 1, (5, SMALL.observation_size))
    logits, values = policy.graph_forward(obs)
    head0 = np.zeros(logits.shape)
    head0[:, 0] = np.random.default_rng(7).standard_normal(head0[:, 0].shape)
    grad = policy.backward(head0, np.zeros_like(values))
    # The heads columns of head 1 and of the value get only zero products.
    unreached = np.arange(SMALL.action_dims * SMALL.bins + 1) >= SMALL.bins
    for name, slot in param_views(SMALL, grad).items():
        if name.startswith("heads."):
            assert np.array_equal(slot[..., unreached], np.zeros_like(slot[..., unreached])), name
            assert not np.signbit(slot[..., unreached]).any(), name
            slot = slot[..., ~unreached]
        assert np.all(slot != 0.0), name


def test_zero_params_give_uniform_policy():
    config = PolicyConfig.for_robot(RobotConfig())
    policy = Policy(config, np.zeros(param_count(config)))
    obs = np.random.default_rng(0).uniform(0, 1, (3, config.observation_size))
    logits, values = policy.forward_batch(obs)
    assert np.array_equal(logits, np.zeros_like(logits))
    assert np.array_equal(values, np.zeros(3))
    # Uniform over 7 bins in each of 6 dimensions: entropy 6*ln(7).
    bins = np.zeros(config.action_dims, dtype=np.int64)
    log_prob, entropy = distribution_stats(logits[0], bins)
    assert entropy == pytest.approx(6.0 * math.log(7.0), abs=1e-12)
    assert log_prob == pytest.approx(-6.0 * math.log(7.0), abs=1e-12)


def test_sampling_frequencies_match_probabilities():
    probs = np.array([0.7, 0.2, 0.1])
    output = PolicyOutput(logits=np.log(probs)[None, :], value=0.0)
    rng = np.random.default_rng(12)
    n = 20_000
    counts = np.zeros(3)
    for _ in range(n):
        bins, log_prob = sample_bins(output, rng)
        counts[bins[0]] += 1
        assert log_prob == pytest.approx(math.log(probs[bins[0]]), abs=1e-12)
    for k in range(3):
        sigma = math.sqrt(probs[k] * (1 - probs[k]) / n)
        assert abs(counts[k] / n - probs[k]) < 3.0 * sigma, f"bin {k}"


def test_sampled_bin_stats_equal_distribution_stats():
    logits = np.random.default_rng(3).normal(0.0, 3.0, (6, 7))
    output = PolicyOutput(logits=logits, value=0.0)
    for seed in range(20):
        bins, log_prob = sample_bins(output, np.random.default_rng(seed))
        assert log_prob == float(distribution_stats(logits, bins)[0])


def test_bin_acceleration_map_is_affine_with_zero_center():
    robot = RobotConfig()
    n = 7
    table = acceleration_table(robot, n)
    limits = table[:, -1]
    assert np.array_equal(limits, [1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    center = bins_to_action(table, np.full(6, 3, dtype=np.int64))
    assert np.array_equal(center.base_acc, np.zeros(3))
    assert np.array_equal(center.joint_acc, np.zeros(3))
    lo = bins_to_action(table, np.zeros(6, dtype=np.int64))
    hi = bins_to_action(table, np.full(6, 6, dtype=np.int64))
    assert np.allclose(lo.base_acc, -limits[:3], atol=1e-15)
    assert np.allclose(hi.joint_acc, limits[3:], atol=1e-15)
    # The map is a bijection on bin indices: recover k from the acceleration.
    for k in range(n):
        acc = bins_to_action(table, np.full(6, k, dtype=np.int64))
        all_acc = np.concatenate([acc.base_acc, acc.joint_acc])
        back = np.round((all_acc / limits + 1.0) * (n - 1) / 2.0).astype(int)
        assert np.array_equal(back, np.full(6, k))


def test_table_actions_are_bitwise_the_affine_formula():
    # Reading the table keeps the bytes of the per-step affine map it
    # replaced, for every bin of every dimension.
    robot = RobotConfig()
    limits = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    for n in (3, 7, 11):
        table = acceleration_table(robot, n)
        for bins in np.random.default_rng(n).integers(0, n, (50, 6)):
            acc = bins_to_action(table, bins)
            formula = (2.0 * bins / (n - 1) - 1.0) * limits
            assert np.concatenate([acc.base_acc, acc.joint_acc]).tobytes() == formula.tobytes()


def test_greedy_picks_argmax():
    logits = np.array([[0.1, 2.0, -1.0], [5.0, -2.0, 4.9]])
    output = PolicyOutput(logits=logits, value=0.0)
    assert np.array_equal(greedy_bins(output), [1, 0])
    robot = RobotConfig(link_lengths=(0.3,), joint_limits=((-2, 2),))
    action, bins = greedy_action(robot, PolicyOutput(logits=logits[:1], value=0.0))
    assert np.array_equal(bins, [1])


def test_init_params_deterministic_and_orthogonal():
    a = init_params(SMALL, np.random.default_rng(9))
    b = init_params(SMALL, np.random.default_rng(9))
    assert np.array_equal(a, b)
    views = param_views(SMALL, a)
    for name, view in views.items():
        if name.endswith((".b0", ".b1", ".b")):
            assert np.array_equal(view, np.zeros_like(view))
    w = views["trunk.w0"]
    gram = w.T @ w if w.shape[0] >= w.shape[1] else w @ w.T
    assert np.allclose(gram, np.eye(len(gram)), atol=1e-10)
    head = views["heads.w"]
    gram = head @ head.T if head.shape[0] <= head.shape[1] else head.T @ head
    assert np.allclose(gram, 0.01**2 * np.eye(len(gram)), atol=1e-10)


def test_param_views_share_storage():
    policy = small_policy()
    name, shape, offset = layout(SMALL)[0]
    policy.params[offset] = 1234.5
    assert param_views(SMALL, policy.params)[name].ravel()[0] == 1234.5
    with pytest.raises(ValueError, match="shape"):
        param_views(SMALL, np.zeros(param_count(SMALL) + 1))


def test_config_validation():
    assert replace(SMALL, bins=4).validate()  # even bin count has no zero center
    assert replace(SMALL, obs_scale=(1.0,)).validate()
    assert replace(SMALL, obs_scale=()).validate()  # no scale is not "unscaled"
    assert replace(SMALL, scan_hidden=(4,)).validate()
    assert replace(SMALL, trunk_hidden=(6, 0)).validate()
    with pytest.raises(ValueError):
        Policy(replace(SMALL, bins=4), np.zeros(1))


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    policy = small_policy(seed=3)
    path = tmp_path / "policy.bin"
    save_params(path, SMALL, policy.params)
    restored = load_params(path, SMALL)
    assert np.array_equal(restored, policy.params)
    # Saving again produces byte-identical files.
    path2 = tmp_path / "policy2.bin"
    save_params(path2, SMALL, policy.params)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_mismatches(tmp_path):
    policy = small_policy()
    path = tmp_path / "policy.bin"
    save_params(path, SMALL, policy.params)
    other = PolicyConfig(**{**SMALL.__dict__, "bins": 5})
    with pytest.raises(ValueError, match="different policy config"):
        load_params(path, other)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes(b"XXXXXXXX" + path.read_bytes()[8:])
    with pytest.raises(ValueError, match="magic"):
        load_params(corrupt, SMALL)
    raw = path.read_bytes()
    bumped = tmp_path / "version.bin"
    bumped.write_bytes(raw[:8] + (99).to_bytes(4, "little") + raw[12:])
    with pytest.raises(ValueError, match="version"):
        load_params(bumped, SMALL)


def test_checkpoint_rejects_truncated_or_padded_files(tmp_path):
    path = tmp_path / "policy.bin"
    save_params(path, SMALL, small_policy().params)
    raw = path.read_bytes()
    # Inside the magic, inside the header, at the end of the header, inside
    # the parameters.
    for size in (0, 5, 20, 48, 52, len(raw) - 1):
        path.write_bytes(raw[:size])
        with pytest.raises(ValueError, match="truncated"):
            load_params(path, SMALL)
    path.write_bytes(raw + b"\0")
    with pytest.raises(ValueError, match="extra bytes"):
        load_params(path, SMALL)


def test_checkpoint_rejects_previous_version_and_flipped_bits(tmp_path):
    path = tmp_path / "policy.bin"
    save_params(path, SMALL, small_policy().params)
    raw = path.read_bytes()
    # Version 1 framed the same header and parameters, without the digest.
    path.write_bytes(raw[:8] + (1).to_bytes(4, "little") + raw[12:-32])
    with pytest.raises(ValueError, match="version 1"):
        load_params(path, SMALL)
    # One low mantissa bit of the first, a middle and the last parameter, and
    # one bit of the digest.
    count, size = param_count(SMALL), POLICY_CHECKPOINT.dtype.itemsize
    for offset in (52, 52 + size * (count // 2), 52 + size * count - size, len(raw) - 1):
        flipped = bytearray(raw)
        flipped[offset] ^= 1
        path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError, match="payload digest"):
            load_params(path, SMALL)
    path.write_bytes(raw)
    assert np.array_equal(load_params(path, SMALL), small_policy().params)


def test_checkpoint_rejects_version_2(tmp_path):
    # Version 2 framed the parameters as <f8 in the same header and digest.
    params = small_policy().params
    path = tmp_path / "policy.bin"
    path.write_bytes(pack_checkpoint(replace(POLICY_CHECKPOINT, version=2), config_hash(SMALL),
                                     [params], dtype="<f8"))
    with pytest.raises(ValueError, match="unsupported policy checkpoint version 2"):
        load_params(path, SMALL)


def test_checkpoint_write_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "policy.bin"
    save_params(path, SMALL, small_policy(seed=3).params)
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    # The new bytes are written but never reach the disk: the save must fail
    # without touching the previous checkpoint or leaving a temporary file.
    monkeypatch.setattr(os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        save_params(path, SMALL, small_policy(seed=4).params)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["policy.bin"]


def test_streamed_checkpoint_has_the_one_piece_framing(tmp_path):
    params = small_policy(seed=5).params
    path = tmp_path / "policy.bin"
    save_params(path, SMALL, params)
    assert path.read_bytes() == pack_checkpoint(POLICY_CHECKPOINT, config_hash(SMALL), [params])


def test_checkpoint_write_failing_partway_keeps_previous_file(tmp_path, monkeypatch):
    # The disk fills after the header: the save fails, the previous file
    # stays and no temporary file is left.
    path = tmp_path / "policy.bin"
    save_params(path, SMALL, small_policy(seed=3).params)
    before = path.read_bytes()
    writes = []

    class FillingFile:
        def __init__(self, name, mode):
            self.file = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            writes.append(len(data))
            if len(writes) > 4:
                raise OSError("disk full")
            return self.file.write(data)

    monkeypatch.setattr(policy_mod, "open", FillingFile, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_params(path, SMALL, small_policy(seed=4).params)
    assert len(writes) == 5
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["policy.bin"]
