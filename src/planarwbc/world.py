"""World geometry, capsule collision checks, and raycast LIDAR.

A simulator step asks the world two things, each as one batch: body_query
sends every (body capsule, obstacle outline) pair and every self-collision
pair through one distance call, and cast_lidars casts the rays of both
sensors together.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    box_edges,
    point_box_distance,
    point_segment_distance,
    rays_boxes_hits,
    rays_segments_hits,
    segment_segment_distance,
    transform_point,
)
from .robot import RobotConfig, RobotState, forward_kinematics


@dataclass
class WorldGeometry:
    """Static obstacles: wall segments plus axis-aligned boxes.

    bounds is the (xmin, ymin, xmax, ymax) rectangle enclosing everything;
    it is used for rasterization and rendering, not sensed directly.
    """

    segments: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    boxes: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)

    def __post_init__(self):
        self.segments = np.asarray(self.segments, dtype=float).reshape(-1, 4)
        self.boxes = np.asarray(self.boxes, dtype=float).reshape(-1, 4)
        # Wall segments plus box edges: every boundary a segment can be
        # nearest to outside the boxes.
        self.outlines = np.concatenate([self.segments, box_edges(self.boxes).reshape(-1, 4)])


@dataclass
class LidarScan:
    """Raw beam ranges in meters, capped at the sensor max range."""

    ranges: np.ndarray


def min_clearance_point(world: WorldGeometry, p):
    """Distance from points p (..., 2) to the nearest wall segment or box."""
    p = np.asarray(p, dtype=float)[..., None, :]
    return np.minimum(point_segment_distance(p, world.segments).min(axis=-1, initial=np.inf),
                      point_box_distance(p, world.boxes).min(axis=-1, initial=np.inf))


@functools.cache
def _self_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with j >= i + 2 over a chain of n capsules."""
    return np.triu_indices(n, 2)


@functools.cache
def _spine_ends(n_links: int) -> np.ndarray:
    """Frame indices of each spine's two ends: the base frame twice, then
    frames (k, k + 1) for link k = 1..K."""
    ends = np.array([(0, 0)] + [(k, k + 1) for k in range(1, n_links + 1)])
    ends.flags.writeable = False
    return ends


def _body_spines(config: RobotConfig, frames) -> tuple[np.ndarray, np.ndarray]:
    """Capsule spines (K+1, 4) and radii: the base disk as a zero-length
    spine at its center, then the K links."""
    xy = np.array(frames)[:, :2]
    spines = xy[_spine_ends(config.num_joints)].reshape(-1, 4)
    radii = np.full(len(spines), config.link_capsule_radius)
    radii[0] = config.base_radius
    return spines, radii


def body_query(config: RobotConfig, frames, world: WorldGeometry) -> tuple[bool, float]:
    """(collided, clearance) of the body at the pose whose forward-kinematics
    frames are given, from one batch of distances.

    collided is True iff the body intersects the world or itself; clearance
    is the minimum surface-to-obstacle distance, negative when the body
    penetrates an obstacle.

    The body is the base disk plus one capsule per link. Every capsule is
    checked against walls and boxes, and capsule pairs at least two apart in
    the chain base, link 1, ..., link K against each other: link capsules
    from the second link outward vs the base disk (the first link starts at
    the mount inside it), and pairs of non-adjacent links. All (spine,
    outline) pairs and all such spine pairs go through one
    segment_segment_distance call; a spine with an end inside a box is 0
    from the world.
    """
    spines, radii = _body_spines(config, frames)
    n, m = len(spines), len(world.outlines)
    i, j = _self_pairs(n)
    d = segment_segment_distance(
        np.concatenate([np.repeat(spines, m, axis=0), spines[i]]),
        np.concatenate([np.tile(world.outlines, (n, 1)), spines[j]]),
    )
    inside = (point_box_distance(spines.reshape(n, 2, 1, 2), world.boxes) == 0.0).any(axis=(1, 2))
    obstacle = np.where(inside, 0.0, d[:n * m].reshape(n, m).min(axis=1, initial=np.inf))
    collided = bool(np.any(obstacle <= radii) or np.any(d[n * m:] <= radii[i] + radii[j]))
    return collided, float(np.min(obstacle - radii))


def body_obstacle_clearance(
    config: RobotConfig, state: RobotState, world: WorldGeometry
) -> float:
    """Minimum surface-to-obstacle distance over base disk and arm capsules.

    Negative values indicate penetration depth.
    """
    return body_query(config, forward_kinematics(config, state), world)[1]


def collision_check(config: RobotConfig, state: RobotState, world: WorldGeometry) -> bool:
    """True iff the robot intersects the world or itself (see body_query)."""
    return body_query(config, forward_kinematics(config, state), world)[0]


SENSORS = ("front", "rear")


@functools.cache
def _beam_offsets(beams: int, fov: float) -> np.ndarray:
    """Beam angles relative to the sensor's facing, spread evenly over fov.

    A single beam points along the facing: its offset is -0.0, which leaves
    every angle it is added to unchanged, signed zeros included.
    """
    offsets = np.array([-0.0]) if beams == 1 else np.linspace(-fov / 2.0, fov / 2.0, beams)
    offsets.flags.writeable = False
    return offsets


def _sensor_facing(heading: float, sensor: str) -> float:
    if sensor not in SENSORS:
        raise ValueError(f"unknown sensor {sensor!r}")
    return heading if sensor == "front" else heading + math.pi


def beam_angles(config: RobotConfig, heading: float, sensor: str) -> np.ndarray:
    """World-frame beam directions for one sensor, centered on its facing."""
    return _sensor_facing(heading, sensor) + _beam_offsets(config.lidar.beams, config.lidar.fov)


def cast_lidars(
    config: RobotConfig, state: RobotState, world: WorldGeometry, sensors=SENSORS
) -> np.ndarray:
    """Raw ranges (len(sensors), beams) of several sensors, cast as one batch
    of rays (the robot does not sense itself)."""
    lidar = config.lidar
    pose = state.base_pose
    facings = np.array([_sensor_facing(pose[2], sensor) for sensor in sensors])
    angles = (facings[:, None] + _beam_offsets(lidar.beams, lidar.fov)).ravel()
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    offsets = [lidar.front_offset if sensor == "front" else lidar.rear_offset
               for sensor in sensors]
    origins = np.repeat([transform_point(pose, offset) for offset in offsets], lidar.beams, axis=0)
    t = np.full(len(angles), np.inf)
    hits = rays_segments_hits(origins, directions, world.segments)
    if hits.size:
        t = np.minimum(t, hits.min(axis=1))
    hits = rays_boxes_hits(origins, directions, world.boxes)
    if hits.size:
        t = np.minimum(t, hits.min(axis=1))
    return np.minimum(t, lidar.max_range).reshape(len(sensors), lidar.beams)


def cast_lidar(
    config: RobotConfig, state: RobotState, world: WorldGeometry, sensor: str
) -> LidarScan:
    """Raycast one sensor against the world (the robot does not sense itself)."""
    return LidarScan(ranges=cast_lidars(config, state, world, (sensor,))[0])
