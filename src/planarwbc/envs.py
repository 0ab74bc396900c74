"""Procedural goal-reaching scenes and the episode state machine.

Two scene families are generated: a corridor with staggered wall-attached
obstacles that always leaves a guaranteed passage, and a two-room gap scene
whose goal sits inside a tunnel too narrow for the base, so only an inserted
arm can reach it. Episodes advance with clamped (or baseline) dynamics,
raycast scans, a harmonic-field reference path, the shaped reward, and a
single termination reason per episode. The baseline's safety margin reads
the body query's clearance, the one obstacle distance of a step.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import pathfield, reward as reward_mod
from .geometry import rot2d, wrap_angle
from .pathfield import (
    GridField,
    PathMetricsState,
    PathPolyline,
    cells_connected,
    extract_path,
    init_path_metrics,
    path_metrics,
    rasterize_world,
    solve_harmonic,
)
from .reward import RewardParams, RewardState
from .robot import Action, RobotConfig, RobotState, forward_kinematics, step_dynamics
from .world import WorldGeometry, body_query, cast_lidars, collision_check, min_clearance_point

ENV_KINDS = ("corridor", "gap_train", "gap_test")
GRID_CELL = 0.05
# A corridor box is at least this deep: a corridor is this much wider than its passage.
CORRIDOR_BOX_DEPTH = 0.3
# The goal is drawn in a corridor's last third, this far from its end or more.
CORRIDOR_GOAL_END = 0.5
# The base spawns this far from a corridor's near end, its zero-pose arm along +x.
CORRIDOR_SPAWN_X = 0.7
# Each gap kind's slot geometry, drawn uniformly from (lo, hi) in metres: the
# slot's width, its length through the wall and the goal's depth into it.
GAP_SLOTS = {
    "gap_train": {"width": (0.3, 0.3), "length": (0.5, 0.5), "goal_depth": (0.4, 0.4)},
    "gap_test": {"width": (0.25, 0.4), "length": (0.3, 0.8), "goal_depth": (0.4, 0.6)},
}


@dataclass(frozen=True)
class EnvSpec:
    """Scene-family selector plus its generator's settable ranges (gap slots: GAP_SLOTS).

    validate admits only ranges the draws can honour (see _draw_corridor).
    """

    kind: str = "corridor"
    corridor_length_range: tuple[float, float] = (6.0, 12.0)
    corridor_width_range: tuple[float, float] = (1.5, 2.5)
    corridor_obstacle_count: tuple[int, int] = (0, 4)
    corridor_min_passage: float = 0.7
    gap_goal_lateral_noise: float = 0.05
    gap_goal_angle_noise: float = 0.5
    gap_joint_noise: float = 0.1

    @classmethod
    def gap_train(cls) -> "EnvSpec":
        return cls(kind="gap_train")

    @classmethod
    def gap_test(cls) -> "EnvSpec":
        return cls(kind="gap_test")

    def validate(self, robot: RobotConfig) -> list[str]:
        errors = []
        if self.kind not in ENV_KINDS:
            errors.append(f"kind must be one of {ENV_KINDS}")
        least_width = self.corridor_min_passage + CORRIDOR_BOX_DEPTH
        for name, least in (("corridor_length_range", 3.0 * CORRIDOR_GOAL_END),
                            ("corridor_width_range", least_width)):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and least <= lo <= hi):
                errors.append(f"{name} must satisfy {least:g} <= lo <= hi")
        reach = CORRIDOR_SPAWN_X + robot.max_reach + robot.link_capsule_radius
        if self.corridor_length_range[0] <= reach:
            errors.append(f"corridor_length_range must start beyond {reach:g}, "
                          "where the spawned arm reaches")
        lo, hi = self.corridor_obstacle_count
        if not 0 <= lo <= hi:
            errors.append("corridor_obstacle_count must satisfy 0 <= lo <= hi")
        base_diameter = 2.0 * robot.base_radius
        if self.corridor_min_passage < base_diameter + 0.1:
            errors.append(
                f"corridor_min_passage must be >= base diameter + 0.1 = {base_diameter + 0.1}"
            )
        for name in ("gap_goal_lateral_noise", "gap_goal_angle_noise", "gap_joint_noise"):
            if getattr(self, name) < 0.0:
                errors.append(f"{name} must be >= 0")
        if self.kind in GAP_SLOTS:
            narrowest = 2.0 * robot.link_capsule_radius + 0.05
            wlo, whi = GAP_SLOTS[self.kind]["width"]
            if not narrowest < wlo <= whi < base_diameter:
                errors.append(f"kind: {self.kind} slot widths [{wlo}, {whi}] must lie within "
                              f"({narrowest}, {base_diameter}) for this robot")
        return errors


@dataclass(frozen=True)
class EpisodeConfig:
    """Per-episode timing, tolerance, reward variant and planning resolution.

    The only owner of these values: the reward and the dynamics read them
    from here.
    """

    tolerance: float = 0.3
    hold_time: float = 1.0
    time_limit: float = 60.0
    timestep: float = 0.04
    variant: str = "clamping"
    # Planning resolution: rasterization cell size for the reference path.
    grid_cell: float = GRID_CELL

    def validate(self) -> list[str]:
        errors = []
        lo, hi = reward_mod.TOLERANCE_RANGE
        if not lo <= self.tolerance <= hi:
            errors.append(f"tolerance must be in [{lo}, {hi}]")
        if self.timestep <= 0.0:
            errors.append("timestep must be > 0")
        if not 0.0 < self.hold_time < self.time_limit:
            errors.append("need 0 < hold_time < time_limit")
        if self.variant not in reward_mod.VARIANTS:
            errors.append(f"variant must be one of {reward_mod.VARIANTS}")
        if not 0.0 < self.grid_cell <= 0.2:
            errors.append("grid_cell must be in (0, 0.2] to resolve passages")
        return errors


def observation_layout(robot: RobotConfig) -> list[tuple[str, tuple[float, ...]]]:
    """(field, per-element input scale) of the flat observation, in vector order.

    The scale tuple's length is the field's length. The scales bring every
    input into roughly [-1, 1]; the policy applies them (PolicyConfig.obs_scale).
    """
    k = robot.num_joints
    return [
        ("front_scan", (1.0,) * robot.lidar.beams),
        ("rear_scan", (1.0,) * robot.lidar.beams),
        ("joint_pos", tuple(1.0 / max(abs(lo), abs(hi), 1e-9) for lo, hi in robot.joint_limits)),
        ("joint_vel", (1.0 / robot.max_joint_vel,) * k),
        ("base_vel", tuple(1.0 / v for v in robot.max_base_vel)),
        ("goal_in_ee", (1.0 / robot.lidar.max_range,) * 2 + (1.0 / math.pi,)),
    ]


@dataclass
class StepOutcome:
    observation: np.ndarray
    reward: float
    terminated: str | None
    info: dict


def build_observation(
    config: RobotConfig, state: RobotState, world: WorldGeometry, goal_pose, frames: np.ndarray
) -> np.ndarray:
    """The flat observation of `state`, in observation_layout order.

    Both scans normalized by the LIDAR max range, the proprioception, and the
    goal expressed in the end-effector frame; frames are the
    forward-kinematics frames of `state`.
    """
    # Every range lies in [-0.0, max_range], so the scans lie in [-0.0, 1].
    scans = cast_lidars(config, state, world).ravel()
    scans /= config.lidar.max_range
    ee_x, ee_y, ee_phi = frames[-1].tolist()
    rel = rot2d(-ee_phi) @ np.array([goal_pose[0] - ee_x, goal_pose[1] - ee_y])
    return np.concatenate((scans, state.joint_pos, state.joint_vel, state.base_vel, rel,
                           (wrap_angle(goal_pose[2] - ee_phi),)))


# ---------------------------------------------------------------------------
# Scene generators
# ---------------------------------------------------------------------------

class GenerationError(RuntimeError):
    """Raised when every attempt is rejected; the message counts them by cause."""


# Why an attempt was rejected: its own geometry, a colliding spawn, a capsule
# raster that cuts the goal off, or a failed solve or extraction.
REJECTION_CAUSES = ("geometry", "collision", "connectivity", "plan")
ATTEMPTS = 100


class Scene(NamedTuple):
    """A generated scene and the reference path planned for it."""

    world: WorldGeometry
    start: RobotState
    goal: np.ndarray
    path_field: GridField
    path: PathPolyline


def plan_path(
    world: WorldGeometry, robot: RobotConfig, grid_cell: float, start_xy, goal_xy
) -> tuple[GridField, PathPolyline]:
    """Rasterize, solve and extract the end-effector path from start_xy to goal_xy.

    The raster has grid_cell cells inflated by the link capsule radius. Raises
    CutOffError when it closes the goal cell or does not 4-connect the start
    cell to it, and FieldError when the solve or the extraction fails.
    """
    raster = rasterize_world(world, grid_cell, inflate=robot.link_capsule_radius, goal=goal_xy)
    if not cells_connected(raster, raster.cell_of(start_xy)):
        raise pathfield.CutOffError("the start cell is cut off from the goal cell")
    solve_harmonic(raster)
    return raster, extract_path(raster, start_xy, goal=goal_xy)


def _room_walls(length: float, width: float) -> np.ndarray:
    """The four wall segments of a length x width room with a corner at the origin."""
    return np.array([[0.0, 0.0, length, 0.0], [length, 0.0, length, width],
                     [length, width, 0.0, width], [0.0, width, 0.0, 0.0]])


def _draw_corridor(spec: EnvSpec, robot: RobotConfig, rng: np.random.Generator):
    """One corridor attempt: walls, staggered obstacles, near-end spawn, far goal.

    Obstacles alternate between the bottom and top walls. In every spec that
    EnvSpec.validate admits, the base can drive to the goal: a corridor is at
    least corridor_min_passage + CORRIDOR_BOX_DEPTH wide, so the passage
    beside a box is at least corridor_min_passage >= base diameter + 0.1;
    consecutive boxes are at least corridor_min_passage + 0.1 apart; and the
    goal's third holds no box. Returns (world, start state, goal pose), or
    the rejection cause when the goal's clearance or the spawn check fails.
    """
    min_passage = spec.corridor_min_passage
    length = rng.uniform(*spec.corridor_length_range)
    width = rng.uniform(*spec.corridor_width_range)
    start = RobotState.zeros(robot, base_pose=(CORRIDOR_SPAWN_X, width / 2.0, 0.0))
    ee_xy = forward_kinematics(robot, start)[-1, :2]

    # Obstacle zone keeps clear of the spawn arm and the goal third.
    slot = 0.8 + min_passage + 0.1  # max obstacle width + guaranteed gap
    zone_lo = ee_xy[0] + 0.3
    zone_hi = min(length - 1.6, 2.0 * length / 3.0 - 0.9)
    n_fit = max(0, int((zone_hi - zone_lo) / slot))
    count = int(rng.integers(spec.corridor_obstacle_count[0],
                             spec.corridor_obstacle_count[1] + 1))
    count = min(count, n_fit)
    boxes = []
    max_depth = width - min_passage - 0.1
    for k in range(count):
        w_k = rng.uniform(0.3, 0.8)
        center = zone_lo + (k + 0.5) * (zone_hi - zone_lo) / max(count, 1)
        jitter_span = ((zone_hi - zone_lo) / max(count, 1) - w_k - (min_passage + 0.1)) / 2.0
        center += rng.uniform(-1.0, 1.0) * max(0.0, jitter_span)
        depth = rng.uniform(CORRIDOR_BOX_DEPTH, max(CORRIDOR_BOX_DEPTH, max_depth))
        x0, x1 = center - w_k / 2.0, center + w_k / 2.0
        if k % 2 == 0:
            boxes.append([x0, 0.0, x1, depth])
        else:
            boxes.append([x0, width - depth, x1, width])
    world = WorldGeometry(segments=_room_walls(length, width),
                          boxes=np.array(boxes).reshape(-1, 4), bounds=(0.0, 0.0, length, width))

    margin = min_passage / 2.0 + 0.01
    goal = np.array([rng.uniform(2.0 * length / 3.0, length - CORRIDOR_GOAL_END),
                     rng.uniform(margin, width - margin), 0.0])
    if min_clearance_point(world, goal[:2]) < margin:
        return "geometry"
    if collision_check(robot, start, world):
        return "collision"
    return world, start, goal


GAP_ROOM = (6.0, 4.0)
# Side-fold that keeps the distal links clear of the base disk while pulling
# the end-effector within ~0.48 m of the base center.
GAP_SPAWN_JOINTS = (1.4, 1.0, 1.0)


def _draw_gap(spec: EnvSpec, robot: RobotConfig, rng: np.random.Generator):
    """One gap attempt: two rooms split by a thick wall with a tunnel slot; goal in the slot.

    The slot is narrower than the base, so the goal is only reachable by
    inserting the arm; the spawn arm is folded (plus joint noise) and the
    attempt is rejected unless no base-reachable position brings that folded
    end-effector within holding range of the goal. Returns (world, start
    state, goal pose), or the rejection cause when a check fails.
    """
    room_l, room_w = GAP_ROOM
    slot_y = room_w / 2.0
    slots = GAP_SLOTS[spec.kind]
    gap = rng.uniform(*slots["width"])
    tunnel = rng.uniform(*slots["length"])
    depth = rng.uniform(*slots["goal_depth"])
    depth = min(depth, tunnel + 0.1)
    lateral = rng.uniform(-spec.gap_goal_lateral_noise, spec.gap_goal_lateral_noise)
    angle = rng.uniform(-spec.gap_goal_angle_noise, spec.gap_goal_angle_noise)
    noise = rng.uniform(-spec.gap_joint_noise, spec.gap_joint_noise, size=robot.num_joints)

    wall_x0 = room_l / 2.0 - tunnel / 2.0
    boxes = np.array(
        [
            [wall_x0, 0.0, wall_x0 + tunnel, slot_y - gap / 2.0],
            [wall_x0, slot_y + gap / 2.0, wall_x0 + tunnel, room_w],
        ]
    )
    world = WorldGeometry(segments=_room_walls(room_l, room_w), boxes=boxes,
                          bounds=(0.0, 0.0, room_l, room_w))

    start = RobotState.zeros(robot, base_pose=(1.2, slot_y, 0.0))
    start.joint_pos = np.array(GAP_SPAWN_JOINTS[: robot.num_joints]) + noise
    if collision_check(robot, start, world):
        return "collision"
    ee = forward_kinematics(robot, start)[-1, :2]
    folded_reach = float(np.hypot(ee[0] - start.base_pose[0], ee[1] - start.base_pose[1]))

    lateral_cap = gap / 2.0 - robot.link_capsule_radius - 0.05
    goal = np.array(
        [wall_x0 + depth, slot_y + max(-lateral_cap, min(lateral_cap, lateral)), angle]
    )
    # Worst-case base approach: poking into the slot mouth on its axis.
    poke = math.sqrt(max(0.0, robot.base_radius**2 - (gap / 2.0) ** 2))
    if depth + poke < folded_reach + 0.05 + 0.01:
        return "geometry"
    # Straight-arm insertion must still reach the goal.
    closest_base = math.sqrt(max(0.0, (robot.base_radius + 0.01) ** 2 - (gap / 2.0) ** 2))
    if depth > robot.max_reach - closest_base - 0.05:
        return "geometry"
    return world, start, goal


def generate_scene(
    spec: EnvSpec, robot: RobotConfig, rng: np.random.Generator, grid_cell: float
) -> Scene:
    """Draw attempts of spec.kind until one passes its checks and plans at grid_cell.

    The plan is each attempt's last test, after the cheap geometry and
    collision checks, so a reset rasterizes and solves once unless a plan
    fails. A rejected
    attempt moves on to the next draw from the same rng; after ATTEMPTS
    rejections GenerationError reports them by cause.
    """
    if spec.kind not in ENV_KINDS:
        raise ValueError(f"kind must be one of {ENV_KINDS}, got {spec.kind!r}")
    draw = _draw_corridor if spec.kind == "corridor" else _draw_gap
    rejected = dict.fromkeys(REJECTION_CAUSES, 0)
    for _ in range(ATTEMPTS):
        drawn = draw(spec, robot, rng)
        if isinstance(drawn, str):
            rejected[drawn] += 1
            continue
        world, start, goal = drawn
        ee_xy = forward_kinematics(robot, start)[-1, :2]
        try:
            return Scene(world, start, goal, *plan_path(world, robot, grid_cell, ee_xy, goal[:2]))
        except pathfield.CutOffError:
            rejected["connectivity"] += 1
        except pathfield.FieldError:
            rejected["plan"] += 1
    causes = ", ".join(f"{cause} {count}" for cause, count in rejected.items())
    raise GenerationError(f"{spec.kind} generation at grid_cell {grid_cell} rejected all "
                          f"{ATTEMPTS} attempts: {causes}")


# ---------------------------------------------------------------------------
# Episode state machine
# ---------------------------------------------------------------------------

@dataclass
class Episode:
    """One rollout's full mutable state; step it with env_step."""

    robot: RobotConfig
    world: WorldGeometry
    goal_pose: np.ndarray
    config: EpisodeConfig
    params: RewardParams
    state: RobotState
    path: PathPolyline
    path_field: GridField
    path_length_init: float
    reward_state: RewardState
    path_state: PathMetricsState
    required_hold_steps: int
    max_steps: int
    step_count: int = 0
    terminated: str | None = None

    def observation(self) -> np.ndarray:
        return build_observation(self.robot, self.state, self.world, self.goal_pose,
                                 forward_kinematics(self.robot, self.state))


def make_episode(
    robot: RobotConfig, params: RewardParams, config: EpisodeConfig, scene: Scene
) -> Episode:
    """Assemble fresh episode state for a scene planned at config.grid_cell."""
    issues = config.validate()
    if issues:
        raise ValueError("; ".join(issues))
    if scene.path_field.cell_size != config.grid_cell:
        raise ValueError("the scene was planned at another grid_cell than the episode's")
    path_state = init_path_metrics(scene.path, scene.path.points[0])
    path_length_init = max(scene.path.total_length - path_state.prev_progress, 1e-9)
    return Episode(
        robot=robot,
        world=scene.world,
        goal_pose=scene.goal,
        config=config,
        params=params,
        state=scene.start.copy(),
        path=scene.path,
        path_field=scene.path_field,
        path_length_init=path_length_init,
        reward_state=RewardState(),
        path_state=path_state,
        required_hold_steps=int(math.ceil(config.hold_time / config.timestep - 1e-9)),
        max_steps=int(math.ceil(config.time_limit / config.timestep - 1e-9)),
    )


def new_episode(
    spec: EnvSpec,
    robot: RobotConfig,
    params: RewardParams,
    config: EpisodeConfig,
    rng: np.random.Generator,
) -> Episode:
    scene = generate_scene(spec, robot, rng, config.grid_cell)
    return make_episode(robot, params, config, scene)


def env_step(episode: Episode, action: Action) -> StepOutcome:
    """Advance one control period and emit reward, observation, termination.

    Termination reasons are checked in a fixed priority order (collision,
    timeout, joint limit, success); the terminal bonus is folded into the
    final step's reward and stepping a finished episode raises. info holds
    the end-effector's goal_distance and the reward's term breakdown,
    reward_terms.
    """
    if episode.terminated is not None:
        raise RuntimeError(f"episode already terminated: {episode.terminated}")
    cfg = episode.config
    new_state, limit_hit = step_dynamics(
        episode.robot,
        episode.state,
        action,
        cfg.timestep,
        clamping_enabled=(cfg.variant == "clamping"),
    )
    episode.state = new_state
    episode.step_count += 1

    frames = forward_kinematics(episode.robot, new_state)
    # The safety margin reads the body clearance, under baseline alone and
    # only below the safety distance: at or above it the shortfall is 0.0.
    cutoff = episode.params.safety_distance if cfg.variant == "baseline" else 0.0
    collided, body_clearance = body_query(episode.robot, frames, episode.world, cutoff)
    ee_x, ee_y, _ = frames[-1].tolist()
    goal_x, goal_y, _ = episode.goal_pose.tolist()
    d_goal = float(np.hypot(ee_x - goal_x, ee_y - goal_y))

    d_dev, d_prog, episode.path_state = path_metrics(episode.path, episode.path_state, (ee_x, ee_y))
    observation = build_observation(episode.robot, new_state, episode.world, episode.goal_pose,
                                    frames)
    step_reward, episode.reward_state, breakdown = reward_mod.compute_step_reward(
        episode.params,
        cfg,
        episode.reward_state,
        d_dev,
        d_prog,
        episode.path_length_init,
        d_goal,
        min_obstacle_clearance=body_clearance,
    )

    terminated = None
    if collided:
        terminated = "collision"
    elif episode.step_count >= episode.max_steps:
        terminated = "timeout"
    elif limit_hit and cfg.variant == "baseline":
        terminated = "joint_limit"
    elif episode.reward_state.hold_steps >= episode.required_hold_steps:
        terminated = "success"
    if terminated is not None:
        step_reward += reward_mod.terminal_reward(episode.params, cfg, terminated)
        episode.terminated = terminated

    return StepOutcome(observation=observation, reward=step_reward, terminated=terminated,
                       info={"goal_distance": d_goal, "reward_terms": breakdown})


# ---------------------------------------------------------------------------
# Episode persistence (training checkpoints)
# ---------------------------------------------------------------------------

def scene_digest(episode: Episode) -> str:
    """SHA-256 of an episode's scene: its world's segments, boxes and bounds, and its goal."""
    world = episode.world
    digest = hashlib.sha256()
    for part in (world.segments, world.boxes, world.bounds, episode.goal_pose):
        digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
    return digest.hexdigest()


def episode_to_dict(episode: Episode) -> dict:
    """JSON-serializable mid-episode snapshot of a live episode.

    The scene is not stored: whoever started the episode names it and
    regenerates it on restore, and the digest tells whether that gave the
    same world and goal. Of the episode config only the tolerance is stored,
    the one value the curriculum sets per episode.
    """
    st = episode.state
    return {
        "scene": scene_digest(episode),
        "tolerance": episode.config.tolerance,
        "state": {f.name: getattr(st, f.name).tolist() for f in fields(st)},
        "path_state": asdict(episode.path_state),
        "reward_state": asdict(episode.reward_state),
        "step_count": episode.step_count,
    }


def episode_from_dict(fresh: Episode, data: dict) -> Episode:
    """Overlay a snapshot written by episode_to_dict on a fresh episode of its scene.

    `fresh` is the reset that started the snapshot's episode, made again at
    data["tolerance"]; checking its scene_digest against data["scene"] is
    the caller's part.
    """
    fresh.state = RobotState(**{k: np.asarray(v, dtype=float)
                                for k, v in data["state"].items()})
    fresh.path_state = PathMetricsState(**data["path_state"])
    fresh.reward_state = RewardState(**data["reward_state"])
    fresh.step_count = data["step_count"]
    return fresh
