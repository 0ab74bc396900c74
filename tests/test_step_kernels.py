"""The per-step world kernels against their row-per-query formulas, byte for byte.

forward_kinematics, build_observation, cast_lidars, the ray kernel,
body_query, step_dynamics and project_on_path run, on every element, the
operations of the formulas in oracles that lay one frame, field, ray, pair or
call out per row; only the layout differs, so every output byte must match.
body_query with a cutoff is held to the same formula wherever the clearance
is below the cutoff, and cast_lidars, which casts boxes as their edges, to
the slab method for solid boxes within rounding. The corpus: 30 generated scenes per env kind, each with
its spawn state, the headings 0, +-pi/2, +-pi and -0.0 at random points, base
centres (the default LIDAR origin) inside and on the corners of boxes, and
random poses with joints past their limits.
"""
import math

import numpy as np
import pytest

import oracles
from planarwbc.envs import GRID_CELL, EnvSpec, build_observation, generate_scene, observation_layout
from planarwbc.geometry import rays_segments_hits
from planarwbc.pathfield import project_on_path
from planarwbc.reward import RewardParams
from planarwbc.robot import (
    Action,
    LidarConfig,
    RobotConfig,
    RobotState,
    forward_kinematics,
    step_dynamics,
)
from planarwbc.world import WorldGeometry, body_query, cast_lidars

ROBOT = RobotConfig()
# The offset sensors of test_two_sensor_cast_equals_single_sensor_casts: an
# odd beam count puts a beam on the facing, so heading 0 (front) and -pi
# (rear) cast rays with an exactly zero y component.
LIDARS = (
    ROBOT,
    RobotConfig(lidar=LidarConfig(beams=65, front_offset=(0.25, 0.05), rear_offset=(-0.25, 0.0))),
    RobotConfig(lidar=LidarConfig(beams=1, rear_offset=(-0.1, 0.1))),
)
HEADINGS = (0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi)
KINDS = (EnvSpec(kind="corridor"), EnvSpec.gap_train(), EnvSpec.gap_test())
SCENES_PER_KIND = 30


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def scene_states(world, spawn, rng):
    xmin, ymin, xmax, ymax = world.bounds
    poses = [spawn.base_pose]
    poses += [(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax), h) for h in HEADINGS]
    for box, h in zip(world.boxes, HEADINGS):
        poses.append((0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3]), h))
        poses.append((box[0], box[1], h))
    poses += [(rng.uniform(xmin, xmax), rng.uniform(ymin, ymax), rng.uniform(-4.0, 4.0))
              for _ in range(4)]
    states = [spawn.copy()]
    for pose in poses[1:]:
        states.append(RobotState(np.array(pose, dtype=float), rng.uniform(-0.6, 0.6, 3),
                                 rng.uniform(-2.3, 2.3, 3), rng.uniform(-1.8, 1.8, 3)))
    return states


@pytest.fixture(scope="module")
def corpus():
    """(spec, world, spawn, planned path, states) per scene."""
    rng = np.random.default_rng(2024)
    scenes = []
    for spec in KINDS:
        for seed in range(SCENES_PER_KIND):
            world, spawn, _, _, path = generate_scene(spec, ROBOT,
                                                      np.random.default_rng(4000 + seed), GRID_CELL)
            scenes.append((spec, world, spawn, path, scene_states(world, spawn, rng)))
    return scenes


def in_some_box(world, xy) -> bool:
    return any(b[0] <= xy[0] <= b[2] and b[1] <= xy[1] <= b[3] for b in world.boxes)


def test_corpus_covers_every_kind_and_origins_inside_boxes(corpus):
    assert [spec.kind for spec, *_ in corpus].count("corridor") == SCENES_PER_KIND
    assert len(corpus) == len(KINDS) * SCENES_PER_KIND
    inside = sum(in_some_box(world, s.base_pose) for _, world, _, _, states in corpus
                 for s in states)
    assert inside >= 2 * len(corpus)


def test_forward_kinematics_is_bitwise_the_frame_list(corpus):
    # The second robot's mount sits off the base's x axis.
    robots = (ROBOT, RobotConfig(arm_mount_offset=(0.15, -0.05)))
    for _, _, _, _, states in corpus:
        for state in states:
            for config in robots:
                frames = np.array(oracles.forward_kinematics_frames(config, state))
                assert same_bytes(forward_kinematics(config, state), frames)


def test_build_observation_is_bitwise_the_field_assembly(corpus):
    # Goals at each path's end, facing the corpus headings and random ones.
    # The vector must be the oracle's fields concatenated in
    # observation_layout order, each as long as its scale tuple.
    rng = np.random.default_rng(13)
    for _, world, _, path, states in corpus:
        for k, state in enumerate(states):
            heading = HEADINGS[k % len(HEADINGS)] if k % 2 else rng.uniform(-4.0, 4.0)
            goal = np.array([*path.points[-1], heading])
            for config in LIDARS:
                got = build_observation(config, state, world, goal,
                                        forward_kinematics(config, state))
                fields = oracles.observation_fields(config, state, world, goal)
                layout = observation_layout(config)
                assert [len(fields[name]) for name, _ in layout] == [len(s) for _, s in layout]
                assert same_bytes(got, np.concatenate([fields[name] for name, _ in layout]))


def test_cast_lidars_is_bitwise_the_row_formula(corpus):
    # Every range lies in [-0.0, max_range], zero ranges from sensors on walls
    # and box edges included, so build_observation's scans need no clip.
    zero_ranges = 0
    for _, world, _, _, states in corpus:
        for state in states:
            for config in LIDARS:
                got = cast_lidars(config, state, world)
                assert same_bytes(got, oracles.cast_lidars_rows(config, state, world))
                assert ((got >= 0.0) & (got <= config.lidar.max_range)).all()
                zero_ranges += np.count_nonzero(got == 0.0)
                rear = cast_lidars(config, state, world, ("rear",))
                assert same_bytes(rear, oracles.cast_lidars_rows(config, state, world, ("rear",)))
    assert zero_ranges > 0


def ray_cases(world, rng):
    """(origins, directions), one row per ray: random origins in the world
    and at every box's corners, a face and its centre; every other ray is
    axis-parallel, with +-0.0 components."""
    xmin, ymin, xmax, ymax = world.bounds
    origins = [rng.uniform((xmin, ymin), (xmax, ymax), (24, 2))]
    for box in world.boxes:
        origins.append([box[0:2], box[2:4], (box[0], 0.5 * (box[1] + box[3])),
                        (0.5 * (box[0] + box[2]), 0.5 * (box[1] + box[3]))])
    origins = np.vstack(origins)
    angles = rng.uniform(-math.pi, math.pi, len(origins))
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    axis = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, -1.0), (2.0, 0.0), (0.0, -0.5)])
    dirs[::2] = axis[np.arange(len(dirs[::2])) % len(axis)]
    return origins, dirs


def test_ray_kernels_are_bitwise_the_row_formulas(corpus):
    # The world's outline (walls, then box edges) against per-ray and shared
    # origins; axis-parallel rays with +-0.0 components and rays from box
    # corners, faces and interiors.
    rng = np.random.default_rng(7)
    zero_hits = 0
    for _, world, _, _, _ in corpus:
        origins, dirs = ray_cases(world, rng)
        rays = origins.T[:, None, :], dirs.T[:, None, :]
        shared = origins[-1].reshape(2, 1, 1), rays[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for o, d, row_origins in ((*rays, origins), (*shared, origins[-1])):
                hits = rays_segments_hits(o, d, world.outline_planes[0:2],
                                          world.outline_planes[4:6])
                assert same_bytes(hits.T, oracles.rays_segments_hits_rows(
                    row_origins, dirs, oracles.outline_rows(world)))
                zero_hits += np.count_nonzero(hits[len(world.segments):] == 0.0)
    assert zero_hits > 0


def test_rays_grouped_by_origin_are_bitwise_the_rays_cast_one_by_one(corpus):
    # Each ray_cases origin (box corners, faces and centres among them) casts
    # its own ray, the six axis-parallel rays with +-0.0 components and three
    # random ones, as one group: origins (2, 1, S, 1), directions
    # (2, 1, S, B) and the world's (2, N, 1, 1) planes must give the bytes of
    # the same S * B rays cast with per-ray origins against (2, N, 1) planes,
    # and of the row formula.
    rng = np.random.default_rng(23)
    axis = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, -1.0), (2.0, 0.0), (0.0, -0.5)])
    zero_hits = 0
    for _, world, _, _, _ in corpus:
        origins, dirs = ray_cases(world, rng)
        angles = rng.uniform(-math.pi, math.pi, (len(origins), 3))
        fan = np.concatenate([dirs[:, None], np.broadcast_to(axis, (len(origins), 6, 2)),
                              np.stack([np.cos(angles), np.sin(angles)], axis=-1)], axis=1)
        s, b = fan.shape[:2]
        grouped_origins = origins.T.reshape(2, 1, s, 1)
        grouped_dirs = np.ascontiguousarray(fan.transpose(2, 0, 1)).reshape(2, 1, s, b)
        per_ray_origins = np.repeat(origins, b, axis=0).T[:, None, :]
        per_ray_dirs = fan.reshape(-1, 2).T[:, None, :]
        with np.errstate(divide="ignore", invalid="ignore"):
            planes = world.outline_planes[..., None]
            grouped = rays_segments_hits(grouped_origins, grouped_dirs, planes[0:2], planes[4:6])
            per_ray = rays_segments_hits(per_ray_origins, per_ray_dirs,
                                         world.outline_planes[0:2], world.outline_planes[4:6])
        assert grouped.shape == (world.outline_planes.shape[1], s, b)
        assert same_bytes(grouped.reshape(len(grouped), -1), per_ray)
        assert same_bytes(per_ray.T, oracles.rays_segments_hits_rows(
            np.repeat(origins, b, axis=0), fan.reshape(-1, 2), oracles.outline_rows(world)))
        zero_hits += np.count_nonzero(grouped == 0.0)
    assert zero_hits > 0


def test_outline_cast_matches_the_slab_formula_for_boxes(corpus):
    # Boxes are cast as their four edges; the slab method of the row
    # formulas, which treats them as solid, must agree within rounding: box
    # by box on the per-ray and shared-origin cases of
    # test_ray_kernels_are_bitwise_the_row_formulas (a ray that starts inside
    # a box reports its exit from either), and on cast_lidars over the
    # corpus states.
    rng = np.random.default_rng(7)
    for _, world, _, _, states in corpus:
        origins, dirs = ray_cases(world, rng)
        edges = oracles.outline_rows(world)[len(world.segments):]
        for o in (origins, origins[-1]):
            per_box = oracles.rays_segments_hits_rows(o, dirs, edges).reshape(
                len(dirs), -1, 4).min(axis=2)
            np.testing.assert_allclose(per_box, oracles.rays_boxes_hits_rows(o, dirs, world.boxes),
                                       rtol=1e-12, atol=1e-12)
        for state in states:
            for config in LIDARS:
                origins, dirs = oracles.lidar_rays_rows(config, state)
                t = np.minimum(
                    oracles.rays_segments_hits_rows(origins, dirs, world.segments).min(
                        axis=1, initial=np.inf),
                    oracles.rays_boxes_hits_rows(origins, dirs, world.boxes).min(
                        axis=1, initial=np.inf))
                slab = np.minimum(t, config.lidar.max_range).reshape(2, -1)
                np.testing.assert_allclose(cast_lidars(config, state, world), slab,
                                           rtol=1e-12, atol=1e-12)


def test_body_query_is_bitwise_the_row_formula(corpus):
    verdicts = []
    for _, world, _, _, states in corpus:
        for state in states:
            frames = forward_kinematics(ROBOT, state)
            collided, clearance = body_query(ROBOT, frames, world)
            ref_collided, ref_clearance = oracles.body_query_rows(ROBOT, frames, world)
            assert collided == ref_collided
            assert same_bytes(np.float64(clearance), np.float64(ref_clearance))
            verdicts.append(collided)
    assert 0.2 < np.mean(verdicts) < 0.9


# The clearances body_query's callers read: collision only, the baseline's
# safety distance, and the whole clearance.
CUTOFFS = (0.0, RewardParams().safety_distance, math.inf)
# Distances from a contact or from a cutoff's edge, inside and outside.
EDGE_OFFSETS = (-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 2e-9, 1e-6)


def posed(base_pose, joints) -> RobotState:
    return RobotState(np.array(base_pose, dtype=float), np.zeros(3),
                      np.array(joints, dtype=float), np.zeros(3))


def verdict_edge(world, state_at, lo: float, hi: float) -> list[RobotState]:
    """The two states straddling the parameter where the oracle's collision
    verdict of state_at(t) flips between lo and hi, bisected to within an ulp."""
    def collided(t):
        return oracles.body_query_rows(ROBOT, forward_kinematics(ROBOT, state_at(t)), world)[0]

    lo_verdict = collided(lo)
    assert collided(hi) != lo_verdict
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        lo, hi = (mid, hi) if collided(mid) == lo_verdict else (lo, mid)
    return [state_at(lo), state_at(hi)]


def contact_states(spec, world, spawn, rng) -> list[RobotState]:
    """Poses at the edges the broad phase must not cross.

    The base disk at every cutoff's distance from the left wall (arm pointing
    away); folded arms at the edge of self-contact, with the base disk and
    between two links; in gap scenes, the straight arm's tip at every
    cutoff's distance from the slot wall and the arm inside the slot, swept
    across it and bisected onto its sides.
    """
    _, ymin, _, ymax = world.bounds
    mid_y = 0.5 * (ymin + ymax)
    states = []
    for cutoff in CUTOFFS[:2]:
        for offset in EDGE_OFFSETS:
            states.append(posed((ROBOT.base_radius + cutoff + offset, mid_y, 0.0), (0.0,) * 3))
    # Self-contact: the verdict flips on the segment between a colliding and
    # a clear fold.
    folds = rng.uniform(-2.3, 2.3, (16, 3))
    verdicts = [oracles.body_query_rows(ROBOT, forward_kinematics(ROBOT, posed(spawn.base_pose, q)),
                                        world)[0] for q in folds]
    a, b = folds[np.argmax(verdicts)], folds[np.argmin(verdicts)]
    states += verdict_edge(world, lambda t: posed(spawn.base_pose, a + t * (b - a)), 0.0, 1.0)
    # The third link folded back onto the first, clear of the base disk.
    states += verdict_edge(world, lambda t: posed(spawn.base_pose, (0.0, 2.1, t)), 2.9, 3.6)
    if spec.kind != "corridor":
        wall_x0 = world.boxes[0, 0]
        slot_lo, slot_hi = world.boxes[0, 3], world.boxes[1, 1]
        slot_y = 0.5 * (slot_lo + slot_hi)
        reach = ROBOT.arm_mount_offset[0] + sum(ROBOT.link_lengths)
        for cutoff in CUTOFFS[:2]:
            for offset in EDGE_OFFSETS:
                x = wall_x0 - reach - ROBOT.link_capsule_radius - cutoff - offset
                states.append(posed((x, slot_lo - 0.5, 0.0), (0.0,) * 3))
        inserted = wall_x0 - ROBOT.base_radius - 0.01
        for y in np.linspace(slot_lo, slot_hi, 7):
            for heading in (-0.1, 0.0, 0.1):
                states.append(posed((inserted, y, heading), (0.0,) * 3))
        states += verdict_edge(world, lambda t: posed((inserted, t, 0.05), (0.0,) * 3),
                               slot_lo, slot_y)
    return states


def test_body_query_cutoff_keeps_the_verdict_and_every_clearance_below_it(corpus):
    # Against the oracle's full pass: the verdict always, the clearance byte
    # for byte below the cutoff and at least the cutoff otherwise, on the
    # corpus and on poses at contact, self-contact and each cutoff's edge.
    rng = np.random.default_rng(99)
    empty = WorldGeometry(bounds=(-5.0, -5.0, 5.0, 5.0))
    skipped = dict.fromkeys(CUTOFFS, 0)
    exact = dict.fromkeys(CUTOFFS, 0)
    cases = 0
    for k, (spec, world, spawn, _, states) in enumerate(corpus):
        spaces = [(world, states)]
        if k % 3 == 0:
            spaces += [(world, contact_states(spec, world, spawn, rng)),
                       (empty, contact_states(EnvSpec(), empty, spawn, rng))]
        for space, poses in spaces:
            for state in poses:
                frames = forward_kinematics(ROBOT, state)
                ref_collided, ref_clearance = oracles.body_query_rows(ROBOT, frames, space)
                cases += 1
                for cutoff in CUTOFFS:
                    collided, clearance = body_query(ROBOT, frames, space, cutoff)
                    assert collided == ref_collided
                    if ref_clearance < cutoff:
                        assert same_bytes(np.float64(clearance), np.float64(ref_clearance))
                    else:
                        assert clearance >= cutoff
                    if clearance == math.inf != ref_clearance:
                        skipped[cutoff] += 1
                    else:
                        exact[cutoff] += 1
    assert skipped[math.inf] == 0
    for cutoff in CUTOFFS[:2]:
        assert skipped[cutoff] > 0.05 * cases and exact[cutoff] > 0.05 * cases


@pytest.mark.parametrize("clamping", [True, False], ids=["clamping", "baseline"])
def test_step_dynamics_is_bitwise_the_array_formula(corpus, clamping):
    # Accelerations past the velocity caps and joints past their limits,
    # plus ties between signed zeros: `zero_bound` caps the base's x
    # velocity and every joint velocity at +-0.0 and clamps the first joint
    # at 0.0, and its cases reach each cap from -0.0 and from +0.0.
    rng = np.random.default_rng(11)
    zero_bound = RobotConfig(joint_limits=((-0.05, 2.0), (-2.0, 2.0), (-2.0, 2.0)),
                             max_base_vel=(0.0, 0.5, 1.0), max_joint_vel=0.0)
    cases = []
    for _, _, _, _, states in corpus:
        for state in states:
            action = Action(rng.uniform(-3.0, 3.0, 3), rng.uniform(-6.0, 6.0, 3))
            cases.append((ROBOT, state, action, 0.04))
            cases.append((ROBOT, state, action, 0.2))
    for zero in (-0.0, 0.0):
        state = RobotState(np.array([zero, 0.0, zero]), np.array([zero, 0.5, zero]),
                           np.array([zero, 1.95, -1.95]), np.array([zero, 1.5, -1.5]))
        for action in (Action(np.array([zero, 30.0, zero]), np.array([zero, 0.0, 0.0])),
                       Action(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))):
            cases.append((zero_bound, state, action, 0.04))
    pinned = hits = 0
    for config, state, action, tau in cases:
        got, hit = step_dynamics(config, state, action, tau, clamping_enabled=clamping)
        ref, ref_hit = oracles.step_dynamics_arrays(config, state, action, tau, clamping)
        assert hit == ref_hit
        for name in ("base_pose", "base_vel", "joint_pos", "joint_vel"):
            assert same_bytes(getattr(got, name), getattr(ref, name)), name
        pinned += np.count_nonzero((got.joint_vel == 0.0) & (state.joint_vel != 0.0))
        hits += hit
    if clamping:
        assert pinned > 100 and hits == 0
    else:
        assert hits > 100


def test_project_on_path_is_bitwise_the_per_call_formula_on_planned_paths(corpus):
    # Planned paths of five scenes per kind, queried at the corpus's
    # end-effector positions, at every vertex and at segment midpoints.
    for spec in KINDS:
        for _, _, _, path, states in [s for s in corpus if s[0] is spec][:5]:
            queries = [forward_kinematics(ROBOT, s)[-1, :2] for s in states]
            queries += list(path.points) + list(0.5 * (path.points[1:] + path.points[:-1]))
            for p in queries:
                got = project_on_path(path, p)
                ref = oracles.project_on_path_formula(path.points, path.cumlen, p)
                assert same_bytes(np.array(got), np.array(ref))
