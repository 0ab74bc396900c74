import dataclasses
import math

import numpy as np
import pytest

import oracles
from oracles import boxes_ray_march, boxes_ray_march_literal, collision_by_sampling
from planarwbc.envs import GRID_CELL, EnvSpec, generate_scene
from planarwbc.geometry import box_edges, rot2d
from planarwbc.robot import LidarConfig, RobotConfig, RobotState, forward_kinematics
from planarwbc.world import (
    SENSORS,
    WorldGeometry,
    beam_angles,
    body_obstacle_clearance,
    body_query,
    cast_lidar,
    cast_lidars,
    collision_check,
    min_clearance_point,
)


def room_boxes(xmin, ymin, xmax, ymax, thick=0.2):
    # Enclosure built from boxes so the marching oracle applies to everything.
    return [
        (xmin - thick, ymin - thick, xmax + thick, ymin),
        (xmin - thick, ymax, xmax + thick, ymax + thick),
        (xmin - thick, ymin, xmin, ymax),
        (xmax, ymin, xmax + thick, ymax),
    ]


def random_box_world(rng, n_boxes=4):
    boxes = list(room_boxes(0.0, 0.0, 6.0, 5.0))
    for _ in range(n_boxes):
        cx, cy = rng.uniform(0.5, 5.5), rng.uniform(0.5, 4.5)
        sx, sy = rng.uniform(0.1, 0.8, 2)
        boxes.append((cx - sx / 2, cy - sy / 2, cx + sx / 2, cy + sy / 2))
    return WorldGeometry(segments=np.empty((0, 4)), boxes=np.array(boxes),
                         bounds=(0.0, 0.0, 6.0, 5.0))


def test_empty_room_center_beam():
    config = RobotConfig(lidar=LidarConfig(beams=65, fov=math.pi, max_range=5.0))
    world = WorldGeometry(
        segments=np.array([[-2, -2, 2, -2], [2, -2, 2, 2], [2, 2, -2, 2], [-2, 2, -2, -2]],
                          dtype=float),
        bounds=(-2, -2, 2, 2),
    )
    state = RobotState.zeros(config)
    front = cast_lidar(config, state, world, "front")
    # Odd beam count puts one beam exactly along +x (the heading).
    assert front[32] == pytest.approx(2.0, abs=1e-12)
    rear = cast_lidar(config, state, world, "rear")
    assert rear[32] == pytest.approx(2.0, abs=1e-12)


def test_no_geometry_caps_at_max_range():
    config = RobotConfig()
    world = WorldGeometry(bounds=(-1, -1, 1, 1))
    ranges = cast_lidar(config, RobotState.zeros(config), world, "front")
    assert np.all(ranges == config.lidar.max_range)


def test_scan_shape_and_bounds():
    config = RobotConfig()
    rng = np.random.default_rng(0)
    world = random_box_world(rng)
    state = RobotState.zeros(config, base_pose=(3.0, 2.5, 0.7))
    for sensor in ("front", "rear"):
        ranges = cast_lidar(config, state, world, sensor)
        assert ranges.shape == (64,) and ranges.dtype == np.float64
        assert np.all(ranges >= 0.0)
        assert np.all(ranges <= config.lidar.max_range)
    with pytest.raises(ValueError):
        cast_lidar(config, state, world, "left")


def free_pose(rng, world, clearance=1e-3):
    # Sensor origins inside an obstacle are degenerate (edge-intersection vs
    # penetrated-cell semantics differ at t=0); sample clear of the boxes.
    while True:
        p = (rng.uniform(1.0, 5.0), rng.uniform(1.0, 4.0))
        if min(min_clearance_point(world, p), 10.0) > clearance:
            return (p[0], p[1], rng.uniform(-math.pi, math.pi))


def test_lidar_matches_marching_oracle():
    config = RobotConfig()
    rng = np.random.default_rng(1)
    for case in range(20):
        world = random_box_world(rng)
        pose = free_pose(rng, world)
        state = RobotState.zeros(config, base_pose=pose)
        for sensor in ("front", "rear"):
            ranges = cast_lidar(config, state, world, sensor)
            angles = beam_angles(config, pose[2], sensor)
            for rng_got, ang in zip(ranges, angles):
                ref = boxes_ray_march(pose[:2], ang, world.boxes, config.lidar.max_range)
                assert abs(rng_got - ref) < 1e-3


def test_closed_form_march_equals_literal_march():
    rng = np.random.default_rng(2)
    world = random_box_world(rng)
    for _ in range(128):
        origin = (rng.uniform(0.5, 5.5), rng.uniform(0.5, 4.5))
        ang = rng.uniform(-math.pi, math.pi)
        fast = boxes_ray_march(origin, ang, world.boxes, 5.0)
        slow = boxes_ray_march_literal(origin, ang, world.boxes, 5.0)
        assert fast == pytest.approx(slow, abs=1e-12)


def test_lidar_monotone_under_added_obstacle():
    config = RobotConfig()
    rng = np.random.default_rng(3)
    base_world = random_box_world(rng, n_boxes=2)
    more = np.vstack([base_world.boxes, [[2.5, 2.0, 3.5, 3.0]]])
    more_world = WorldGeometry(segments=base_world.segments, boxes=more,
                               bounds=base_world.bounds)
    for _ in range(20):
        pose = (rng.uniform(0.7, 5.3), rng.uniform(0.7, 4.3), rng.uniform(-3, 3))
        state = RobotState.zeros(config, base_pose=pose)
        for sensor in ("front", "rear"):
            a = cast_lidar(config, state, base_world, sensor)
            b = cast_lidar(config, state, more_world, sensor)
            assert np.all(b <= a + 1e-12)


def test_collision_examples():
    config = RobotConfig()
    wall = WorldGeometry(segments=np.array([[2.0, -5.0, 2.0, 5.0]]), bounds=(-5, -5, 5, 5))
    # Arm folded back over the base, base strictly separated from the wall.
    folded = RobotState.zeros(config, base_pose=(2.0 - config.base_radius - 0.01, 0.0, math.pi))
    folded.joint_pos = np.array([1.4, 1.0, 1.0])
    assert not collision_check(config, folded, wall)
    near = RobotState.zeros(config, base_pose=(2.0 - config.base_radius + 0.01, 0.0, math.pi))
    near.joint_pos = np.array([1.4, 1.0, 1.0])
    assert collision_check(config, near, wall)
    # Straight arm with the tip 0.01 past a box face.
    box_world = WorldGeometry(boxes=np.array([[2.0, -1.0, 3.0, 1.0]]), bounds=(-5, -5, 5, 5))
    tip_in = RobotState.zeros(config, base_pose=(2.0 - 1.0 + 0.01, 0.0, 0.0))
    assert collision_check(config, tip_in, box_world)
    assert collision_by_sampling(config, tip_in, box_world)


def test_collision_matches_sampling_oracle():
    config = RobotConfig()
    rng = np.random.default_rng(4)
    agree = 0
    for _ in range(150):
        world = random_box_world(rng, n_boxes=3)
        state = RobotState(
            base_pose=np.array([rng.uniform(0.3, 5.7), rng.uniform(0.3, 4.7),
                                rng.uniform(-math.pi, math.pi)]),
            base_vel=np.zeros(3),
            joint_pos=rng.uniform(-2, 2, 3),
            joint_vel=np.zeros(3),
        )
        got = collision_check(config, state, world)
        ref = collision_by_sampling(config, state, world)
        assert got == ref
        agree += 1
    assert agree == 150


def test_batched_queries_match_loop_oracle_on_state_corpus():
    # 2,100 states over scenes of every env kind plus random box worlds: half
    # jittered around the spawn, half anywhere in the bounds, so both
    # colliding and free states are common, and so are states that collide
    # only with the robot's own links. One body_query call gives both the
    # verdict and the clearance; collision_check and body_obstacle_clearance
    # are views of it.
    config = RobotConfig()
    rng = np.random.default_rng(8)
    scenes = []
    for spec in (EnvSpec(kind="corridor"), EnvSpec.gap_train(), EnvSpec.gap_test()):
        for seed in range(1000, 1003):
            scene = generate_scene(spec, config, np.random.default_rng(seed), GRID_CELL)
            scenes.append((scene.world, scene.start.base_pose))
    for _ in range(6):
        scenes.append((random_box_world(rng), np.array([3.0, 2.5, 0.0])))
    verdicts = []
    self_only = 0
    for world, spawn in scenes:
        xmin, ymin, xmax, ymax = world.bounds
        bases = []
        for k in range(140):
            if k % 2:
                pose = np.array([rng.uniform(xmin, xmax), rng.uniform(ymin, ymax),
                                 rng.uniform(-math.pi, math.pi)])
            else:
                pose = spawn + rng.normal(0.0, 0.3, 3)
            state = RobotState(base_pose=pose, base_vel=np.zeros(3),
                               joint_pos=rng.uniform(-2.5, 2.5, 3), joint_vel=np.zeros(3))
            collided, clearance = body_query(config, forward_kinematics(config, state), world)
            ref_clearance = oracles.body_obstacle_clearance(config, state, world)
            assert collided == oracles.collision_check(config, state, world)
            assert clearance == pytest.approx(ref_clearance, abs=1e-12)
            assert collision_check(config, state, world) == collided
            assert body_obstacle_clearance(config, state, world) == clearance
            verdicts.append(collided)
            self_only += collided and ref_clearance > 0.0
            bases.append(pose[:2])
        ref = [oracles.min_clearance_point(world, p) for p in bases]
        np.testing.assert_allclose(min_clearance_point(world, np.array(bases)), ref,
                                   rtol=0.0, atol=1e-12)
    assert len(verdicts) == 2100
    assert 0.2 < np.mean(verdicts) < 0.8
    assert self_only > 100


def test_two_sensor_cast_equals_single_sensor_casts():
    # One batch of both sensors' rays gives each sensor's own cast exactly:
    # corridor and gap scenes and random box worlds, sensors off the base
    # center, and headings that make beams axis-parallel (an odd beam count
    # puts the front center beam, or the rear one at heading -pi, on angle 0).
    rng = np.random.default_rng(10)
    config = RobotConfig()
    worlds = [generate_scene(spec, config, np.random.default_rng(1000), GRID_CELL).world
              for spec in (EnvSpec(kind="corridor"), EnvSpec.gap_train(), EnvSpec.gap_test())]
    worlds += [random_box_world(rng) for _ in range(3)]
    configs = [
        config,
        RobotConfig(lidar=LidarConfig(beams=65, front_offset=(0.25, 0.05),
                                      rear_offset=(-0.25, 0.0))),
        RobotConfig(lidar=LidarConfig(beams=1, rear_offset=(-0.1, 0.1))),
    ]
    assert beam_angles(configs[1], 0.0, "front")[32] == 0.0
    assert beam_angles(configs[1], -math.pi, "rear")[32] == 0.0
    for world in worlds:
        xmin, ymin, xmax, ymax = world.bounds
        for heading in (0.0, -math.pi, math.pi / 2, *rng.uniform(-math.pi, math.pi, 5)):
            pose = (rng.uniform(xmin, xmax), rng.uniform(ymin, ymax), heading)
            for cfg in configs:
                state = RobotState.zeros(cfg, base_pose=pose)
                both = cast_lidars(cfg, state, world)
                assert both.shape == (2, cfg.lidar.beams)
                for ranges, sensor in zip(both, SENSORS):
                    assert np.array_equal(ranges, cast_lidar(cfg, state, world, sensor))


def test_world_is_frozen_and_its_arrays_read_only():
    # The derived planes are built once, so nothing may change what they
    # were built from: the world copies its inputs and cannot be assigned.
    segments = np.array([[0.0, 0.0, 3.0, 0.0]])
    boxes = np.array([[1.0, 1.0, 2.0, 2.0]])
    world = WorldGeometry(segments=segments, boxes=boxes, bounds=(0, 0, 3, 3))
    segments[0, 0] = boxes[0, 0] = 9.0
    assert world.segments[0, 0] == 0.0 and world.boxes[0, 0] == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        world.boxes = np.array([[0.5, 0.5, 1.0, 1.0]])
    for f in dataclasses.fields(world):
        if f.name != "bounds":
            array = getattr(world, f.name)
            assert not array.flags.writeable, f.name
            with pytest.raises(ValueError):
                array[...] = 0.0
    moved = dataclasses.replace(world, boxes=[[0.5, 0.5, 1.0, 1.0]])
    edges = box_edges(moved.boxes).reshape(-1, 4)
    np.testing.assert_array_equal(moved.outline_planes[:, 1:, 0].T, edges)
    np.testing.assert_array_equal(moved.segment_starts[:, 1:, 0].T, edges[:, 0:2])
    np.testing.assert_array_equal(moved.segment_edges[:, 1:, 0].T,
                                  edges[:, [3, 2]] - edges[:, [1, 0]])


def test_self_collision_cases():
    config = RobotConfig()
    empty = WorldGeometry(bounds=(-5, -5, 5, 5))
    # Fold the distal links back through the base disk.
    fold = RobotState.zeros(config)
    fold.joint_pos = np.array([2.0, 2.0, 2.0])
    assert collision_check(config, fold, empty) == collision_by_sampling(config, fold, empty)
    straight = RobotState.zeros(config)
    assert not collision_check(config, straight, empty)


def test_collision_rigid_transform_invariance_segments():
    config = RobotConfig()
    rng = np.random.default_rng(5)
    segments = rng.uniform(-2, 2, (6, 4))
    for _ in range(60):
        state = RobotState(
            base_pose=rng.uniform(-1.5, 1.5, 3),
            base_vel=np.zeros(3),
            joint_pos=rng.uniform(-2, 2, 3),
            joint_vel=np.zeros(3),
        )
        world = WorldGeometry(segments=segments.copy(), bounds=(-4, -4, 4, 4))
        verdict = collision_check(config, state, world)

        shift = rng.uniform(-3, 3, 2)
        ang = rng.uniform(-math.pi, math.pi)
        r = rot2d(ang)
        segs2 = np.empty_like(segments)
        segs2[:, 0:2] = segments[:, 0:2] @ r.T + shift
        segs2[:, 2:4] = segments[:, 2:4] @ r.T + shift
        state2 = state.copy()
        state2.base_pose = np.array([*(r @ state.base_pose[:2] + shift),
                                     state.base_pose[2] + ang])
        world2 = WorldGeometry(segments=segs2, bounds=(-8, -8, 8, 8))
        assert collision_check(config, state2, world2) == verdict


def test_collision_rigid_transform_invariance_boxes():
    # Boxes stay axis-aligned only under quarter-turn rotations.
    config = RobotConfig()
    rng = np.random.default_rng(6)
    boxes = np.array([[0.5, 0.5, 1.5, 1.2], [-1.5, -1.0, -0.5, 0.0]])
    for _ in range(40):
        state = RobotState(
            base_pose=rng.uniform(-1.5, 1.5, 3),
            base_vel=np.zeros(3),
            joint_pos=rng.uniform(-2, 2, 3),
            joint_vel=np.zeros(3),
        )
        world = WorldGeometry(boxes=boxes.copy(), bounds=(-4, -4, 4, 4))
        verdict = collision_check(config, state, world)
        k = rng.integers(0, 4)
        ang = k * math.pi / 2
        shift = rng.uniform(-2, 2, 2)
        r = rot2d(ang)
        b2 = np.empty_like(boxes)
        lo = boxes[:, 0:2] @ r.T + shift
        hi = boxes[:, 2:4] @ r.T + shift
        b2[:, 0:2] = np.minimum(lo, hi)
        b2[:, 2:4] = np.maximum(lo, hi)
        state2 = state.copy()
        state2.base_pose = np.array([*(r @ state.base_pose[:2] + shift),
                                     state.base_pose[2] + ang])
        world2 = WorldGeometry(boxes=b2, bounds=(-8, -8, 8, 8))
        assert collision_check(config, state2, world2) == verdict


def test_clearance_helpers():
    world = WorldGeometry(segments=np.array([[0.0, 0.0, 4.0, 0.0]]),
                          boxes=np.array([[1.0, 1.0, 2.0, 2.0]]), bounds=(0, 0, 4, 4))
    assert min_clearance_point(world, (0.0, 3.0)) == pytest.approx(math.hypot(1.0, 1.0))
    config = RobotConfig()
    state = RobotState.zeros(config, base_pose=(3.0, 3.0, math.pi / 2))
    d = body_obstacle_clearance(config, state, world)
    assert d <= min_clearance_point(world, (3.0, 3.0)) - config.base_radius + 1e-12
