import math

import numpy as np
import pytest

from oracles import zero_action
from planarwbc.robot import (
    Action,
    LidarConfig,
    RobotConfig,
    RobotState,
    forward_kinematics,
    step_dynamics,
)


def translation(dx, dy):
    return np.array([[1.0, 0.0, dx], [0.0, 1.0, dy], [0.0, 0.0, 1.0]])


def rotation(q):
    c, s = math.cos(q), math.sin(q)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def matrix_chain_ee(config, state):
    # Independent oracle: compose 3x3 homogeneous transforms along the chain.
    x, y, theta = state.base_pose
    m = translation(x, y) @ rotation(theta) @ translation(*config.arm_mount_offset)
    for q, length in zip(state.joint_pos, config.link_lengths):
        m = m @ rotation(q) @ translation(length, 0.0)
    return m[:2, 2]


def test_fk_straight_chain():
    config = RobotConfig()
    state = RobotState.zeros(config)
    ee = forward_kinematics(config, state)[-1]
    assert np.allclose(ee, [1.0, 0.0, 0.0], atol=1e-15)


def test_fk_rotated_base():
    config = RobotConfig()
    state = RobotState.zeros(config, base_pose=(0.0, 0.0, math.pi / 2))
    ee = forward_kinematics(config, state)[-1]
    assert np.allclose(ee, [0.0, 1.0, math.pi / 2], atol=1e-12)


def test_fk_matches_matrix_product_oracle():
    config = RobotConfig()
    rng = np.random.default_rng(0)
    for _ in range(300):
        state = RobotState(
            base_pose=rng.uniform(-3, 3, 3),
            base_vel=np.zeros(3),
            joint_pos=rng.uniform(-2, 2, 3),
            joint_vel=np.zeros(3),
        )
        ee = forward_kinematics(config, state)[-1]
        oracle = matrix_chain_ee(config, state)
        assert np.allclose(ee[:2], oracle, atol=1e-12)
        assert ee[2] == pytest.approx(state.base_pose[2] + state.joint_pos.sum(), abs=1e-12)


def test_fk_dimension_mismatch():
    config = RobotConfig()
    state = RobotState.zeros(config)
    state.joint_pos = np.zeros(2)
    with pytest.raises(ValueError):
        forward_kinematics(config, state)


def test_link_segments_chain_continuity():
    config = RobotConfig()
    rng = np.random.default_rng(1)
    state = RobotState(rng.uniform(-1, 1, 3), np.zeros(3), rng.uniform(-2, 2, 3), np.zeros(3))
    frames = forward_kinematics(config, state)
    assert frames.shape == (5, 3) and frames.dtype == np.float64
    assert np.array_equal(frames[0], state.base_pose)
    # Link k runs from frame k + 1 to frame k + 2, so consecutive links share an end.
    starts, ends = frames[1:-1, :2], frames[2:, :2]
    lengths = np.hypot(*(ends - starts).T)
    assert np.allclose(lengths, config.link_lengths, atol=1e-12)


def test_clamping_pins_to_margin_bound():
    config = RobotConfig()
    state = RobotState.zeros(config)
    state.joint_pos[0] = 1.90
    state.joint_vel[0] = 1.0
    # 1.90 + 1.0 * 0.2 would reach 2.10, past the 1.95 margin bound.
    new, hit = step_dynamics(config, state, zero_action(config), 0.2, clamping_enabled=True)
    assert new.joint_pos[0] == pytest.approx(1.95, abs=1e-12)
    assert new.joint_vel[0] == 0.0
    assert not hit


def test_baseline_crosses_raw_limit():
    config = RobotConfig()
    state = RobotState.zeros(config)
    state.joint_pos[0] = 1.90
    state.joint_vel[0] = 1.0
    new, hit = step_dynamics(config, state, zero_action(config), 0.2, clamping_enabled=False)
    assert new.joint_pos[0] == pytest.approx(2.10, abs=1e-12)
    assert hit


def test_zero_action_zero_velocity_fixed_point():
    config = RobotConfig()
    state = RobotState.zeros(config, base_pose=(0.4, -0.7, 1.1))
    state.joint_pos = np.array([0.5, -0.5, 1.0])
    for tau in (0.01, 0.04, 1.0):
        new, hit = step_dynamics(config, state, zero_action(config), tau)
        assert np.array_equal(new.base_pose, state.base_pose)
        assert np.array_equal(new.joint_pos, state.joint_pos)
        assert not hit


def test_velocity_first_integration_oracle():
    config = RobotConfig()
    rng = np.random.default_rng(2)
    for _ in range(200):
        state = RobotState(
            base_pose=rng.uniform(-2, 2, 3),
            base_vel=rng.uniform(-0.5, 0.5, 3),
            joint_pos=rng.uniform(-1.5, 1.5, 3),
            joint_vel=rng.uniform(-1.5, 1.5, 3),
        )
        action = Action(rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3))
        tau = 0.04
        new, _ = step_dynamics(config, state, action, tau)

        max_bv = np.asarray(config.max_base_vel)
        v = np.clip(state.base_vel + action.base_acc * tau, -max_bv, max_bv)
        assert np.array_equal(new.base_vel, v)
        # Body-frame velocity rotated by the PRE-step heading.
        theta = state.base_pose[2]
        c, s = math.cos(theta), math.sin(theta)
        expect = state.base_pose + np.array(
            [(c * v[0] - s * v[1]) * tau, (s * v[0] + c * v[1]) * tau, v[2] * tau]
        )
        assert np.allclose(new.base_pose, expect, atol=1e-15)

        jv = np.clip(state.joint_vel + action.joint_acc * tau, -config.max_joint_vel,
                     config.max_joint_vel)
        assert np.allclose(new.joint_pos, state.joint_pos + jv * tau, atol=1e-15)


def test_velocity_clipping():
    config = RobotConfig()
    state = RobotState.zeros(config)
    action = Action(np.array([100.0, -100.0, 100.0]), np.full(3, 100.0))
    new, _ = step_dynamics(config, state, action, 1.0)
    assert np.array_equal(new.base_vel, [0.5, -0.5, 1.0])
    assert np.array_equal(new.joint_vel, [1.5, 1.5, 1.5])


def test_clamping_safety_over_random_steps():
    config = RobotConfig()
    rng = np.random.default_rng(3)
    state = RobotState.zeros(config)
    lo = np.array([l for l, _ in config.joint_limits]) + config.clamp_margin
    hi = np.array([h for _, h in config.joint_limits]) - config.clamp_margin
    for _ in range(10_000):
        action = Action(rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3))
        state, hit = step_dynamics(config, state, action, 0.04, clamping_enabled=True)
        assert not hit
        assert np.all(state.joint_pos >= lo - 1e-15)
        assert np.all(state.joint_pos <= hi + 1e-15)


def test_integrator_determinism():
    config = RobotConfig()
    rng = np.random.default_rng(4)
    state = RobotState(rng.uniform(-1, 1, 3), rng.uniform(-0.4, 0.4, 3),
                       rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3))
    action = Action(rng.uniform(-1, 1, 3), rng.uniform(-2, 2, 3))
    a, _ = step_dynamics(config, state.copy(), action, 0.04)
    b, _ = step_dynamics(config, state.copy(), action, 0.04)
    assert np.array_equal(a.base_pose, b.base_pose)
    assert np.array_equal(a.base_vel, b.base_vel)
    assert np.array_equal(a.joint_pos, b.joint_pos)
    assert np.array_equal(a.joint_vel, b.joint_vel)


def test_non_finite_inputs_rejected():
    config = RobotConfig()
    state = RobotState.zeros(config)
    bad = Action(np.array([np.nan, 0.0, 0.0]), np.zeros(3))
    with pytest.raises(ValueError):
        step_dynamics(config, state, bad, 0.04)
    with pytest.raises(ValueError):
        step_dynamics(config, state, zero_action(config), 0.0)


def test_config_validation():
    assert RobotConfig().validate() == []
    bad = RobotConfig(link_lengths=(0.3, -0.1), joint_limits=((-2, 2), (2, -2)))
    issues = bad.validate()
    assert any("link_lengths" in m for m in issues)
    assert any("joint_limits" in m for m in issues)
    assert RobotConfig(lidar=LidarConfig(beams=0)).validate()
    assert RobotConfig(clamp_margin=3.0).validate()


def test_max_reach():
    assert RobotConfig().max_reach == pytest.approx(1.0)
