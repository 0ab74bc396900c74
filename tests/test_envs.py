"""Scene generators, episode state machine, and observation frames.

Generator contracts are checked against independent geometric oracles built
on min_clearance_point (itself validated against brute-force oracles in
test_world.py): a lateral clearance probe for corridor passage width and a
spawn-connected flood fill over base placements for gap unreachability.
"""

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import base_reaches_goal, oracle_clearances, passage_width_along_path, zero_action
from planarwbc import envs as envs_mod
from planarwbc import world as world_mod
from planarwbc.envs import (
    GRID_CELL,
    EnvSpec,
    EpisodeConfig,
    GenerationError,
    Scene,
    env_step,
    episode_from_dict,
    episode_to_dict,
    generate_scene,
    make_episode,
    new_episode,
    plan_path,
    scene_digest,
)
from planarwbc.config import RunConfig
from planarwbc.evaluate import seeded_episode
from planarwbc.pathfield import OBSTACLE, CutOffError, FieldError
from planarwbc.policy import PolicyConfig
from planarwbc.reward import RewardParams
from planarwbc.robot import (
    Action,
    LidarConfig,
    RobotConfig,
    RobotState,
    forward_kinematics,
)
from planarwbc.world import SENSORS, WorldGeometry, body_query, cast_lidars, min_clearance_point

ROBOT = RobotConfig()
PARAMS = RewardParams()


def rect_room(length=6.0, width=4.0):
    walls = np.array(
        [
            [0.0, 0.0, length, 0.0],
            [length, 0.0, length, width],
            [length, width, 0.0, width],
            [0.0, width, 0.0, 0.0],
        ]
    )
    return WorldGeometry(segments=walls, boxes=np.empty((0, 4)), bounds=(0, 0, length, width))


def planned_scene(world, start, goal):
    """A hand-built scene with its path planned from the spawn end-effector."""
    goal = np.asarray(goal, dtype=float)
    ee = forward_kinematics(ROBOT, start)[-1, :2]
    return Scene(world, start, goal, *plan_path(world, ROBOT, GRID_CELL, ee, goal[:2]))


def room_episode(config, goal_offset=(0.15, 0.0), base=(1.5, 2.0, 0.0)):
    """Open-room episode; goal placed relative to the spawn end-effector."""
    start = RobotState.zeros(ROBOT, base_pose=base)
    ee = forward_kinematics(ROBOT, start)[-1, :2]
    goal = (ee[0] + goal_offset[0], ee[1] + goal_offset[1], 0.0)
    return make_episode(ROBOT, PARAMS, config, planned_scene(rect_room(), start, goal))


def base_only_action(ax):
    return Action(base_acc=np.array([ax, 0.0, 0.0]), joint_acc=np.zeros(ROBOT.num_joints))


# ---------------------------------------------------------------------------
# Episode state machine
# ---------------------------------------------------------------------------


def test_success_at_exact_hold_count():
    # Spawn already inside tolerance; a static robot must succeed on the
    # step where accumulated hold first reaches hold_time: ceil(1.0/0.04)=25.
    episode = room_episode(EpisodeConfig(tolerance=0.3))
    assert episode.required_hold_steps == 25
    zero = zero_action(ROBOT)
    for k in range(1, 25):
        out = env_step(episode, zero)
        assert out.terminated is None
        assert episode.reward_state.hold_steps == k
    out = env_step(episode, zero)
    assert out.terminated == "success"
    assert episode.reward_state.hold_steps == 25
    # Success bonus is folded into the final step's reward.
    assert out.reward - out.info["reward_terms"]["total"] == pytest.approx(10.0, abs=1e-12)
    with pytest.raises(RuntimeError):
        env_step(episode, zero)


def test_hold_restart_after_exit():
    # Leave the tolerance disk for one step: the hold timer must restart
    # from zero and the accumulated hold reward must be refunded exactly.
    episode = room_episode(EpisodeConfig(tolerance=0.05), goal_offset=(0.049, 0.0))
    zero = zero_action(ROBOT)
    paid = 0.0
    for _ in range(10):
        out = env_step(episode, zero)
        paid += out.info["reward_terms"]["hold"]
    assert episode.reward_state.hold_steps == 10

    # One backward kick: v=-0.04 m/s for one step moves d from 0.049 to
    # 0.0506 (semi-implicit Euler), crossing the 0.05 boundary.
    out = env_step(episode, base_only_action(-1.0))
    assert out.info["goal_distance"] > 0.05
    assert episode.reward_state.hold_steps == 0
    assert out.info["reward_terms"]["hold_refund"] == pytest.approx(-paid, abs=1e-12)

    # Braking step ends with v=0, still outside: no hold, no second refund.
    out = env_step(episode, base_only_action(1.0))
    assert out.info["goal_distance"] > 0.05
    assert episode.reward_state.hold_steps == 0
    assert out.info["reward_terms"]["hold_refund"] == 0.0

    # Re-enter: the timer restarts from scratch, so success needs a further
    # full 25 in-tolerance steps, not 25 minus the pre-exit credit.
    out = env_step(episode, base_only_action(1.0))
    assert out.info["goal_distance"] <= 0.05
    assert episode.reward_state.hold_steps == 1
    out = env_step(episode, base_only_action(-1.0))  # stop inside
    assert episode.reward_state.hold_steps == 2
    for k in range(22):
        out = env_step(episode, zero)
        assert out.terminated is None
    out = env_step(episode, zero)
    assert out.terminated == "success"
    assert episode.reward_state.hold_steps == 25


def test_timeout_at_step_limit():
    config = EpisodeConfig(tolerance=0.05, time_limit=2.0)
    episode = room_episode(config, goal_offset=(2.0, 0.0))
    assert episode.max_steps == 50
    zero = zero_action(ROBOT)
    for _ in range(49):
        out = env_step(episode, zero)
        assert out.terminated is None
    out = env_step(episode, zero)
    assert out.terminated == "timeout"
    assert episode.reward_state.hold_steps == 0
    # Timeout carries no terminal bonus or penalty.
    assert out.reward == out.info["reward_terms"]["total"]


def test_joint_limit_terminates_baseline_only():
    # Driving the wrist keeps the arm clear of the base disk, so the first
    # termination under the baseline variant is the limit crossing itself.
    wrist = Action(base_acc=np.zeros(3), joint_acc=np.array([0.0, 0.0, 2.0]))
    episode = room_episode(
        EpisodeConfig(tolerance=0.05, variant="baseline"), goal_offset=(2.0, 0.0)
    )
    out = None
    for _ in range(70):
        out = env_step(episode, wrist)
        if out.terminated is not None:
            break
    assert out.terminated == "joint_limit"
    assert episode.state.joint_pos[2] > ROBOT.joint_limits[2][1]
    assert out.reward - out.info["reward_terms"]["total"] == pytest.approx(-20.0, abs=1e-12)

    # Same action stream under clamping: the joint pins at limit-margin with
    # zero velocity and the episode keeps running.
    episode = room_episode(EpisodeConfig(tolerance=0.05), goal_offset=(2.0, 0.0))
    for _ in range(80):
        out = env_step(episode, wrist)
        assert out.terminated is None
    assert episode.state.joint_pos[2] == pytest.approx(
        ROBOT.joint_limits[2][1] - ROBOT.clamp_margin, abs=1e-12
    )
    assert episode.state.joint_vel[2] == 0.0


def test_config_validation_rejected_in_make_episode():
    scene = planned_scene(rect_room(), RobotState.zeros(ROBOT, base_pose=(1.5, 2.0, 0.0)),
                          (2.6, 2.0, 0.0))
    with pytest.raises(ValueError, match="tolerance"):
        make_episode(ROBOT, PARAMS, EpisodeConfig(tolerance=0.6), scene)
    with pytest.raises(ValueError, match="grid_cell"):
        make_episode(ROBOT, PARAMS, EpisodeConfig(grid_cell=0.5), scene)
    # A scene is accepted only at the resolution it was planned at.
    with pytest.raises(ValueError, match="planned at another grid_cell"):
        make_episode(ROBOT, PARAMS, EpisodeConfig(grid_cell=0.1), scene)
    assert EpisodeConfig().validate() == []


# ---------------------------------------------------------------------------
# Observation frames
# ---------------------------------------------------------------------------


def rot(a):
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def observation_fields(vec):
    """{field: slice of vec}, cut where observation_layout puts each field."""
    fields, start = {}, 0
    for name, scale in envs_mod.observation_layout(ROBOT):
        fields[name] = vec[start:start + len(scale)]
        start += len(scale)
    return fields


def test_goal_in_ee_frame():
    world = rect_room()
    start = RobotState.zeros(ROBOT, base_pose=(1.5, 2.0, 0.0))
    ee_x, ee_y, ee_phi = forward_kinematics(ROBOT, start)[-1]

    # Goal coincident with the end-effector pose reads as the origin.
    episode = make_episode(
        ROBOT, PARAMS, EpisodeConfig(), planned_scene(world, start, (ee_x + 0.2, ee_y, ee_phi))
    )
    episode.goal_pose = np.array([ee_x, ee_y, ee_phi])
    obs = observation_fields(episode.observation())
    assert np.allclose(obs["goal_in_ee"], 0.0, atol=1e-12)

    # Goal one meter straight ahead of the gripper reads as (1, 0, 0).
    episode.goal_pose = np.array([ee_x + 1.0, ee_y, ee_phi])
    obs = observation_fields(episode.observation())
    assert np.allclose(obs["goal_in_ee"], (1.0, 0.0, 0.0), atol=1e-12)


def test_goal_in_ee_round_trip():
    # Mapping the frame-relative reading back through the EE pose must
    # recover the world-frame goal for arbitrary states.
    rng = np.random.default_rng(11)
    world = rect_room(8.0, 8.0)
    episode = make_episode(
        ROBOT, PARAMS, EpisodeConfig(),
        planned_scene(world, RobotState.zeros(ROBOT, (4, 4, 0)), (4.5, 4.0, 0.0)),
    )
    for _ in range(25):
        state = RobotState(
            base_pose=np.array([rng.uniform(2, 6), rng.uniform(2, 6), rng.uniform(-3, 3)]),
            base_vel=rng.uniform(-0.5, 0.5, 3),
            joint_pos=rng.uniform(-1.5, 1.5, 3),
            joint_vel=rng.uniform(-1, 1, 3),
        )
        goal = np.array([rng.uniform(1, 7), rng.uniform(1, 7), rng.uniform(-3, 3)])
        episode.state = state
        episode.goal_pose = goal
        rel = observation_fields(episode.observation())["goal_in_ee"]
        ee_x, ee_y, ee_phi = forward_kinematics(ROBOT, state)[-1]
        recovered = np.array([ee_x, ee_y]) + rot(ee_phi) @ rel[:2]
        assert np.allclose(recovered, goal[:2], atol=1e-12)
        assert math.cos(rel[2] + ee_phi - goal[2]) == pytest.approx(1.0, abs=1e-12)


def test_observation_vector_layout():
    episode = room_episode(EpisodeConfig())
    # Distinct proprioception, so a swapped field shows.
    state = episode.state
    state.base_vel, state.joint_pos, state.joint_vel = np.arange(9.0).reshape(3, 3) / 10.0
    vec = episode.observation()
    beams, k = ROBOT.lidar.beams, ROBOT.num_joints
    assert vec.shape == (2 * beams + 2 * k + 6,) and vec.dtype == np.float64
    assert np.all(np.isfinite(vec))
    assert PolicyConfig.for_robot(ROBOT).observation_size == len(vec)  # the network's input
    # The layout names every field in vector order with its length.
    obs = observation_fields(vec)
    assert list(obs) == ["front_scan", "rear_scan", "joint_pos", "joint_vel", "base_vel",
                         "goal_in_ee"]
    assert [len(field) for field in obs.values()] == [beams, beams, k, k, 3, 3]
    assert np.all((vec[:2 * beams] >= 0) & (vec[:2 * beams] <= 1))
    for name in ("joint_pos", "joint_vel", "base_vel"):
        assert np.array_equal(obs[name], getattr(state, name))


def test_baseline_step_builds_one_observation(monkeypatch):
    # The safety margin and the returned observation share one batched cast
    # covering both sensors, and that observation is the episode's post-step
    # observation.
    episode = room_episode(EpisodeConfig(variant="baseline"), goal_offset=(2.0, 0.0))
    casts = []
    cast_lidars = envs_mod.cast_lidars

    def counting_cast(config, state, world, sensors=SENSORS):
        casts.append(tuple(sensors))
        return cast_lidars(config, state, world, sensors)

    monkeypatch.setattr(envs_mod, "cast_lidars", counting_cast)
    for _ in range(5):
        casts.clear()
        outcome = env_step(episode, base_only_action(0.5))
        assert casts == [("front", "rear")]
        assert np.array_equal(outcome.observation, episode.observation())


@pytest.fixture(scope="module")
def broad_phase_scenes():
    """Two corridor and two gap_train scenes for whole-episode comparisons."""
    return [generate_scene(spec, ROBOT, np.random.default_rng(seed), GRID_CELL)
            for spec in (EnvSpec(kind="corridor"), EnvSpec.gap_train()) for seed in (3, 4)]


@pytest.mark.parametrize("variant", ["clamping", "baseline"])
def test_broad_phase_leaves_every_step_outcome_unchanged(broad_phase_scenes, variant,
                                                         monkeypatch):
    # Whole episodes under random actions that swing the arm and either push
    # the base forward into walls and boxes or let it wander: every outcome
    # (reward, observation bytes, termination, info) must be the one the
    # exact pass alone gives.
    config = EpisodeConfig(variant=variant, time_limit=6.0)
    broad_phase = world_mod._broad_phase_clear
    verdicts = []

    def spy(*args):
        verdicts.append(broad_phase(*args))
        return verdicts[-1]

    def outcomes():
        rows = []
        for k, (scene, push) in enumerate(itertools.product(broad_phase_scenes, (0.0, -1.0))):
            episode = make_episode(ROBOT, PARAMS, config, scene)
            rng = np.random.default_rng(k)
            while episode.terminated is None:
                action = Action(base_acc=rng.uniform((push, -1.0, -2.0), (1.0, 1.0, 2.0)),
                                joint_acc=rng.uniform(-2.0, 2.0, ROBOT.num_joints))
                rows.append(env_step(episode, action))
        return rows

    def as_bytes(out):
        # repr tells -0.0 from 0.0.
        return out.observation.tobytes(), repr(out.reward), out.terminated, repr(out.info)

    monkeypatch.setattr(world_mod, "_broad_phase_clear", spy)
    fast = outcomes()
    monkeypatch.setattr(world_mod, "_broad_phase_clear", lambda *args: False)
    assert [as_bytes(out) for out in outcomes()] == [as_bytes(out) for out in fast]
    assert 0 < sum(verdicts) < len(verdicts) == len(fast)
    assert "collision" in [out.terminated for out in fast]
    if variant == "baseline":
        margins = [out.info["reward_terms"]["safety_margin"] for out in fast]
        assert 0 < sum(m < 0.0 for m in margins) < len(margins)


def test_no_scan_reads_nearer_than_the_body_clearance(broad_phase_scenes):
    # The safety margin reads the body clearance alone, which is the nearest
    # obstacle reading of a step: a sensor whose origin lies inside the base
    # disk is at least base_radius - |offset| farther from every obstacle
    # than the body's surface, at the default origin and off the center, in
    # every scene kind, at random poses and joint angles, penetrating ones
    # included.
    rng = np.random.default_rng(27)
    worlds = [scene.world for scene in broad_phase_scenes]
    worlds += [generate_scene(EnvSpec.gap_test(), ROBOT, np.random.default_rng(seed),
                              GRID_CELL).world for seed in (3, 4)]
    mounted = RobotConfig(lidar=LidarConfig(front_offset=(0.25, 0.05), rear_offset=(-0.25, 0.0)))
    limits = np.array(ROBOT.joint_limits)
    margins = []
    for world in worlds:
        xmin, ymin, xmax, ymax = world.bounds
        for _ in range(100):
            state = RobotState.zeros(ROBOT, base_pose=(rng.uniform(xmin, xmax),
                                                       rng.uniform(ymin, ymax),
                                                       rng.uniform(-math.pi, math.pi)))
            state.joint_pos = rng.uniform(limits[:, 0], limits[:, 1])
            for config in (ROBOT, mounted):
                clearance = body_query(config, forward_kinematics(config, state), world,
                                       cutoff=math.inf)[1]
                scans = cast_lidars(config, state, world)
                for scan, offset in zip(scans, (config.lidar.front_offset,
                                                config.lidar.rear_offset)):
                    bound = config.base_radius - math.hypot(*offset)
                    assert scan.min() - clearance >= bound - 1e-9
                    margins.append(scan.min() - clearance - bound)
    assert min(margins) < 1e-3  # the bound is tight: some poses all but meet it


# ---------------------------------------------------------------------------
# Corridor generator
# ---------------------------------------------------------------------------


def oracle_passage_width(world, points, span=1.5, step=0.02):
    """Independent cross-section probe: twice the best clearance found on
    the lateral line through each path vertex (world interior only)."""
    diffs = points[1:] - points[:-1]
    lens = np.hypot(diffs[:, 0], diffs[:, 1])
    keep = lens > 0
    dirs = diffs[keep] / lens[keep, None]
    stations = points[:-1][keep]
    normals = np.stack([-dirs[:, 1], dirs[:, 0]], axis=1)
    offsets = np.arange(-span, span + step / 2, step)
    probes = (stations[:, None, :] + offsets[None, :, None] * normals[:, None, :]).reshape(-1, 2)
    clear = oracle_clearances(world, probes)
    xmin, ymin, xmax, ymax = world.bounds
    outside = (
        (probes[:, 0] < xmin) | (probes[:, 0] > xmax)
        | (probes[:, 1] < ymin) | (probes[:, 1] > ymax)
    )
    clear[outside] = 0.0
    return 2.0 * clear.reshape(len(stations), -1).max(axis=1).min()


def test_corridor_scene_contract():
    spec = EnvSpec(kind="corridor")
    for seed in range(8):
        rng = np.random.default_rng(seed)
        scene = generate_scene(spec, ROBOT, rng, GRID_CELL)
        world, start, goal = scene.world, scene.start, scene.goal
        xmin, ymin, length, width = world.bounds
        assert (xmin, ymin) == (0.0, 0.0)
        assert 6.0 <= length <= 12.0 and 1.5 <= width <= 2.5
        assert np.allclose(start.base_pose, (0.7, width / 2.0, 0.0))
        assert len(world.boxes) <= 4
        for x0, y0, x1, y1 in world.boxes:
            assert y0 == 0.0 or y1 == width  # obstacles grow from a wall
            assert 0.0 < x0 < x1 < length
        # Goal sits in the far third with clearance for the tolerance disk.
        assert 2.0 * length / 3.0 - 1e-9 <= goal[0] <= length - 0.5 + 1e-9
        assert min_clearance_point(world, goal[:2]) >= spec.corridor_min_passage / 2.0

        episode = make_episode(ROBOT, PARAMS, EpisodeConfig(), scene)
        ee = forward_kinematics(ROBOT, start)[-1, :2]
        assert np.allclose(episode.path.points[0], ee, atol=1e-9)
        assert np.allclose(episode.path.points[-1], goal[:2], atol=1e-9)
        # Every scene threads a passage at least min_passage wide along the
        # planned path (small slack for the probe's lateral discretization).
        passage = oracle_passage_width(world, episode.path.points)
        assert passage >= spec.corridor_min_passage - 0.03
        assert passage_width_along_path(world, episode.path) >= spec.corridor_min_passage - 0.05


def admitted_corridor_pair(rng):
    """A random (robot, corridor spec) pair EnvSpec.validate admits, or None.

    The minimum passage and the low ends of the width and length ranges are
    drawn on both sides of validate's bounds, so a looser bound admits pairs
    a tighter one refuses.
    """
    base_radius = rng.uniform(0.15, 0.5)
    robot = RobotConfig(base_radius=base_radius, link_capsule_radius=rng.uniform(0.01, 0.12))
    min_passage = 2.0 * base_radius + rng.uniform(0.05, 0.25)
    width = min_passage + rng.uniform(0.0, 0.6)
    length = rng.uniform(1.0, 12.0)
    fewest = int(rng.integers(0, 5))
    spec = EnvSpec(kind="corridor", corridor_min_passage=min_passage,
                   corridor_width_range=(width, width + rng.uniform(0.0, 1.0)),
                   corridor_length_range=(length, length + rng.uniform(0.0, 3.0)),
                   corridor_obstacle_count=(fewest, fewest + int(rng.integers(0, 4))))
    return None if robot.validate() or spec.validate(robot) else (robot, spec)


def test_every_admitted_corridor_lets_the_base_reach_its_goal():
    # The corridor draw runs no reachability check of its own: for every
    # spec validate admits, each attempt that passes the goal-margin and
    # spawn checks must let the base drive to within 0.8 m of the goal on
    # the base-inflated raster. The draw must not raise either.
    rng = np.random.default_rng(29)
    pairs = accepted = 0
    while pairs < 1000:
        pair = admitted_corridor_pair(rng)
        if pair is None:
            continue
        pairs += 1
        robot, spec = pair
        drawn = envs_mod._draw_corridor(spec, robot, rng)
        if isinstance(drawn, str):
            continue
        world, start, goal = drawn
        accepted += 1
        assert base_reaches_goal(world, robot, start.base_pose[:2], goal[:2], approach=0.8), \
            (robot, spec)
    assert accepted >= 500


def test_a_corridor_just_beyond_the_spawned_arm_plans():
    # validate refuses a length range starting at or below spawn x + reach +
    # capsule radius (1.75 m here); one just above it plans every reset.
    spec = EnvSpec(kind="corridor", corridor_length_range=(1.76, 1.8))
    assert spec.validate(ROBOT) == []
    assert EnvSpec(kind="corridor", corridor_length_range=(1.75, 1.8)).validate(ROBOT) != []
    for seed in range(5):
        episode = new_episode(spec, ROBOT, PARAMS, EpisodeConfig(), np.random.default_rng(seed))
        assert episode.world.bounds[2] > 1.75


def test_a_corridor_reset_rasterizes_once(monkeypatch):
    # A corridor reset rasterizes only to plan, at the episode's grid_cell;
    # none of these resets rejects an attempt after rasterizing it.
    rasterize = envs_mod.rasterize_world
    cells = []

    def counting(world, cell_size, inflate, goal):
        cells.append(cell_size)
        return rasterize(world, cell_size, inflate, goal)

    monkeypatch.setattr(envs_mod, "rasterize_world", counting)
    config = EpisodeConfig()
    for seed in range(30):
        cells.clear()
        new_episode(EnvSpec(), ROBOT, PARAMS, config, np.random.default_rng(seed))
        assert cells == [config.grid_cell], seed


def test_passage_width_matches_analytic_chute():
    # One box leaves a chute of exactly 2.0 - 1.2 = 0.8 between its top face
    # and the corridor wall; every cross-section elsewhere is wider, so both
    # the production probe and the independent oracle must read 0.8.
    world = dataclasses.replace(rect_room(8.0, 2.0), boxes=[[3.5, 0.0, 4.5, 1.2]])
    start = RobotState.zeros(ROBOT, base_pose=(0.7, 1.0, 0.0))
    episode = make_episode(ROBOT, PARAMS, EpisodeConfig(),
                           planned_scene(world, start, (7.0, 1.0, 0.0)))
    assert passage_width_along_path(world, episode.path) == pytest.approx(0.8, abs=0.06)
    assert oracle_passage_width(world, episode.path.points) == pytest.approx(0.8, abs=0.06)


def test_empty_corridor_midline_path_is_straight():
    # With no obstacles and start/goal both on the corridor axis, the
    # potential field is symmetric and the streamline must stay on the axis
    # to within one grid cell.
    world = rect_room(8.0, 2.0)
    start = RobotState.zeros(ROBOT, base_pose=(0.7, 1.0, 0.0))
    config = EpisodeConfig()
    episode = make_episode(ROBOT, PARAMS, config, planned_scene(world, start, (7.0, 1.0, 0.0)))
    assert np.abs(episode.path.points[:, 1] - 1.0).max() <= config.grid_cell


def test_scene_generation_is_seed_deterministic():
    for spec in (EnvSpec(kind="corridor"), EnvSpec.gap_test()):
        w1, s1, g1, _, p1 = generate_scene(spec, ROBOT, np.random.default_rng(42), GRID_CELL)
        w2, s2, g2, _, p2 = generate_scene(spec, ROBOT, np.random.default_rng(42), GRID_CELL)
        assert np.array_equal(w1.segments, w2.segments)
        assert np.array_equal(w1.boxes, w2.boxes)
        assert w1.bounds == w2.bounds
        assert np.array_equal(s1.base_pose, s2.base_pose)
        assert np.array_equal(s1.joint_pos, s2.joint_pos)
        assert np.array_equal(g1, g2)
        assert np.array_equal(p1.points, p2.points)
        g3 = generate_scene(spec, ROBOT, np.random.default_rng(43), GRID_CELL).goal
        assert not np.array_equal(g1, g3)


def test_rollout_is_deterministic():
    spec = EnvSpec(kind="corridor")
    rewards = []
    finals = []
    for _ in range(2):
        episode = new_episode(spec, ROBOT, PARAMS, EpisodeConfig(), np.random.default_rng(7))
        act_rng = np.random.default_rng(99)
        rs = []
        for _ in range(40):
            action = Action(
                base_acc=act_rng.uniform(-1, 1, 3), joint_acc=act_rng.uniform(-2, 2, 3)
            )
            out = env_step(episode, action)
            rs.append(out.reward)
            if out.terminated is not None:
                break
        rewards.append(rs)
        finals.append(episode.state)
    assert rewards[0] == rewards[1]  # bitwise, not approximate
    assert np.array_equal(finals[0].base_pose, finals[1].base_pose)
    assert np.array_equal(finals[0].joint_pos, finals[1].joint_pos)


# ---------------------------------------------------------------------------
# Gap generator
# ---------------------------------------------------------------------------


def slot_geometry(world):
    """(x0, x1, gap_lo, gap_hi) of the tunnel slot between the two wall boxes."""
    low = world.boxes[np.argmin(world.boxes[:, 1])]
    high = world.boxes[np.argmax(world.boxes[:, 3])]
    return low[0], low[2], low[3], high[1]


def test_gap_train_is_canonical_without_noise():
    spec = EnvSpec.gap_train()
    spec = type(spec)(**{**spec.__dict__, "gap_goal_lateral_noise": 0.0,
                         "gap_goal_angle_noise": 0.0, "gap_joint_noise": 0.0})
    w1, s1, g1, *_ = generate_scene(spec, ROBOT, np.random.default_rng(1), GRID_CELL)
    w2, s2, g2, *_ = generate_scene(spec, ROBOT, np.random.default_rng(2), GRID_CELL)
    # All randomness removed: every draw yields the same scene.
    assert np.array_equal(w1.boxes, w2.boxes)
    assert np.array_equal(s1.joint_pos, s2.joint_pos)
    assert np.array_equal(g1, g2)
    x0, x1, gap_lo, gap_hi = slot_geometry(w1)
    assert gap_hi - gap_lo == pytest.approx(0.3, abs=1e-12)
    assert x1 - x0 == pytest.approx(0.5, abs=1e-12)
    assert g1[0] - x0 == pytest.approx(0.4, abs=1e-12)  # fixed goal depth
    assert g1[1] == pytest.approx((gap_lo + gap_hi) / 2.0, abs=1e-12)
    assert g1[2] == 0.0


def reachable_goal_distance(world, spawn_xy, goal_xy, radius, cell=0.05):
    """Min |base - goal| over base placements whose disk fits, restricted to
    the flood-fill component connected to the spawn."""
    xmin, ymin, xmax, ymax = world.bounds
    xs = np.arange(xmin, xmax + 1e-9, cell)
    ys = np.arange(ymin, ymax + 1e-9, cell)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    free = (oracle_clearances(world, pts) > radius).reshape(len(xs), len(ys))
    si = int(round((spawn_xy[0] - xmin) / cell))
    sj = int(round((spawn_xy[1] - ymin) / cell))
    assert free[si, sj], "spawn base placement must be collision-free"
    seen = np.zeros_like(free)
    seen[si, sj] = True
    queue = collections.deque([(si, sj)])
    best = math.inf
    max_x = -math.inf
    while queue:
        i, j = queue.popleft()
        best = min(best, float(np.hypot(xs[i] - goal_xy[0], ys[j] - goal_xy[1])))
        max_x = max(max_x, xs[i])
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < len(xs) and 0 <= b < len(ys) and free[a, b] and not seen[a, b]:
                seen[a, b] = True
                queue.append((a, b))
    return best, max_x


@pytest.mark.parametrize("spec_name,seeds", [("gap_train", (0, 1)), ("gap_test", range(6))])
def test_gap_goal_unreachable_by_base_alone(spec_name, seeds):
    spec = getattr(EnvSpec, spec_name)()
    for seed in seeds:
        world, start, goal, *_ = generate_scene(spec, ROBOT, np.random.default_rng(seed),
                                                GRID_CELL)
        x0, x1, gap_lo, gap_hi = slot_geometry(world)
        gap = gap_hi - gap_lo
        # The arm must fit through the slot; the base must not.
        assert gap > 2.0 * ROBOT.link_capsule_radius + 0.05
        assert gap < 2.0 * ROBOT.base_radius
        # With the arm frozen in its folded spawn pose, the end-effector
        # stays on a circle of the folded radius around the base center, so
        # the goal is out of holding range from every base placement that
        # the spawn component can reach.
        ee = forward_kinematics(ROBOT, start)[-1, :2]
        folded = float(np.hypot(ee[0] - start.base_pose[0], ee[1] - start.base_pose[1]))
        best, max_x = reachable_goal_distance(
            world, start.base_pose[:2], goal[:2], ROBOT.base_radius
        )
        assert best > folded + 0.05
        # The slot blocks the base: no reachable placement beyond the wall.
        assert max_x < x1


# ---------------------------------------------------------------------------
# Acceptance: a scene is accepted once it is planned at episode.grid_cell
# ---------------------------------------------------------------------------

KINDS = (EnvSpec(kind="corridor"), EnvSpec.gap_train(), EnvSpec.gap_test())
# Sizes around the ones where the capsule raster closes or narrows the gap
# slot to a cell or two, plus the coarsest the episode section allows.
GRID_SIZES = (0.05, 0.085, 0.0925, 0.0975, 0.1025, 0.1075, 0.11, 0.15, 0.2)


def rejection_counts(error: GenerationError) -> dict[str, int]:
    return {cause: int(n) for cause, n in re.findall(r"(\w+) (\d+)", str(error).split(": ", 1)[1])}


@pytest.mark.parametrize("grid_cell", GRID_SIZES)
@pytest.mark.parametrize("spec", KINDS, ids=lambda spec: spec.kind)
def test_every_reset_plans_or_raises_generation_error(spec, grid_cell, monkeypatch):
    # A reset plans at grid_cell or raises GenerationError; a FieldError
    # escaping new_episode fails the test. No attempt is rejected for `plan`:
    # every start the raster connects to the goal plans. gap_train draws one
    # slot geometry, so one seed shows a size; the other kinds vary. No
    # vertex of a planned path lies in an obstacle cell.
    plan_failures = []

    def recording_plan_path(*args):
        try:
            return plan_path(*args)
        except CutOffError:
            raise
        except FieldError as exc:
            plan_failures.append(str(exc))
            raise

    monkeypatch.setattr(envs_mod, "plan_path", recording_plan_path)
    config = EpisodeConfig(grid_cell=grid_cell)
    for seed in range(1 if spec.kind == "gap_train" else 3):
        try:
            episode = new_episode(spec, ROBOT, PARAMS, config, np.random.default_rng(seed))
        except GenerationError as exc:
            assert sum(rejection_counts(exc).values()) == envs_mod.ATTEMPTS
            continue
        field = episode.path_field
        assert field.cell_size == grid_cell
        assert field.cell_of(episode.path.points[-2]) == field.goal_cell
        assert np.array_equal(episode.path.points[-1], episode.goal_pose[:2])
        assert all(field.kind[field.cell_of(p)] != OBSTACLE for p in episode.path.points)
    assert plan_failures == []


def test_generation_error_counts_rejections_by_cause(gap_draws_rejected):
    with pytest.raises(GenerationError) as exc:
        new_episode(EnvSpec.gap_train(), ROBOT, PARAMS, EpisodeConfig(grid_cell=0.2),
                    np.random.default_rng(0))
    assert str(exc.value).startswith("gap_train generation at grid_cell 0.2 rejected all 100 "
                                     "attempts: ")
    counts = rejection_counts(exc.value)
    assert tuple(counts) == envs_mod.REJECTION_CAUSES
    assert sum(counts.values()) == 100


# SHA-256 over (world, start state, goal, path points) of seeds 1000-1009 per
# kind at the default grid_cell. The generators' draws, their checks and the
# planner all feed it; a change to any of them at 0.05 m shows here.
DEFAULT_SCENES_SHA256 = "7d913c96a3457dd71d57763a5f1c04615dd3641f2d5e58fe776921fa5feb9f69"


def default_scenes_digest() -> str:
    digest = hashlib.sha256()
    for spec in KINDS:
        for seed in range(1000, 1010):
            episode = new_episode(spec, ROBOT, PARAMS, EpisodeConfig(),
                                  np.random.default_rng(seed))
            world, state = episode.world, episode.state
            for part in (world.segments, world.boxes, world.bounds, state.base_pose,
                         state.base_vel, state.joint_pos, state.joint_vel, episode.goal_pose,
                         episode.path.points):
                digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def test_default_resolution_scenes_are_pinned():
    assert default_scenes_digest() == DEFAULT_SCENES_SHA256


def test_scene_pin_holds_without_avx512_dispatch():
    # The planner's arithmetic is LAPACK and elementwise IEEE operations, so
    # numpy's SIMD dispatch does not move the scenes. On a host without
    # AVX-512 numpy may warn about the variable; the digest must still hold.
    here = Path(__file__).resolve().parent
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
    done = subprocess.run([sys.executable, "-c",
                           "from test_envs import default_scenes_digest; "
                           "print(default_scenes_digest())"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [DEFAULT_SCENES_SHA256]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("tolerance", [0.3, 0.17])
def test_episode_snapshot_round_trip(tolerance):
    # The snapshot copies no scene: it is laid over the scene call that
    # started its episode, made again at the snapshot's tolerance (as the
    # curriculum set it, here other than the run's 0.3 in one case).
    run = RunConfig()
    episode, _ = seeded_episode(run, 5, (0, 0, 3), config=EpisodeConfig(tolerance=tolerance))
    act_rng = np.random.default_rng(17)
    actions = [
        Action(base_acc=act_rng.uniform(-1, 1, 3), joint_acc=act_rng.uniform(-2, 2, 3))
        for _ in range(12)
    ]
    for action in actions[:7]:
        env_step(episode, action)

    data = json.loads(json.dumps(episode_to_dict(episode)))
    assert sorted(data) == ["path_state", "reward_state", "scene", "state", "step_count",
                            "tolerance"]
    fresh, _ = seeded_episode(run, 5, (0, 0, 3),
                              config=EpisodeConfig(tolerance=data["tolerance"]))
    assert data["scene"] == scene_digest(fresh) == scene_digest(episode)
    restored = episode_from_dict(fresh, data)
    assert restored.config == episode.config
    assert np.array_equal(restored.path.points, episode.path.points)
    assert restored.step_count == episode.step_count
    assert restored.reward_state.hold_steps == episode.reward_state.hold_steps
    assert restored.reward_state.hold_accumulator == episode.reward_state.hold_accumulator
    assert np.array_equal(
        restored.observation(), episode.observation()
    )
    # The restored episode continues bit-identically.
    for action in actions[7:]:
        a = env_step(episode, action)
        b = env_step(restored, action)
        assert b.reward == a.reward
        assert b.terminated == a.terminated
        assert b.info["goal_distance"] == a.info["goal_distance"]
        assert restored.path_state == episode.path_state
        if a.terminated is not None:
            break
