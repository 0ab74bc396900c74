"""World geometry, capsule collision checks, and raycast LIDAR."""
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
from .robot import RobotConfig, RobotState, link_segments


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


def min_clearance_segment(world: WorldGeometry, seg):
    """Distance from segments seg (..., 4) to the nearest wall segment or box."""
    seg = np.asarray(seg, dtype=float)
    ends = seg.reshape(*seg.shape[:-1], 2, 1, 2)
    inside = (point_box_distance(ends, world.boxes) == 0.0).any(axis=(-2, -1))
    outside = segment_segment_distance(seg[..., None, :], world.outlines).min(axis=-1,
                                                                               initial=np.inf)
    return np.where(inside, 0.0, outside)[()]


@functools.cache
def _self_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) with j >= i + 2 over a chain of n capsules."""
    return np.triu_indices(n, 2)


def _body_spines(config: RobotConfig, state: RobotState) -> tuple[np.ndarray, np.ndarray]:
    """Capsule spines (K+1, 4) and radii: the base disk as a zero-length
    spine at its center, then the K links."""
    base = np.concatenate([state.base_pose[:2], state.base_pose[:2]])
    spines = np.concatenate([base[None, :], link_segments(config, state)])
    radii = np.full(len(spines), config.link_capsule_radius)
    radii[0] = config.base_radius
    return spines, radii


def body_obstacle_clearance(
    config: RobotConfig, state: RobotState, world: WorldGeometry
) -> float:
    """Minimum surface-to-obstacle distance over base disk and arm capsules.

    Negative values indicate penetration depth.
    """
    spines, radii = _body_spines(config, state)
    return float(np.min(min_clearance_segment(world, spines) - radii))


def collision_check(config: RobotConfig, state: RobotState, world: WorldGeometry) -> bool:
    """True iff the robot intersects the world or itself.

    Checks every capsule (base disk included) vs walls/boxes, then capsule
    pairs at least two apart in the chain base, link 1, ..., link K: link
    capsules from the second link outward vs the base disk (the first link
    starts at the mount inside it), and pairs of non-adjacent links.
    """
    spines, radii = _body_spines(config, state)
    if np.any(min_clearance_segment(world, spines) <= radii):
        return True
    i, j = _self_pairs(len(spines))
    return bool(np.any(segment_segment_distance(spines[i], spines[j]) <= radii[i] + radii[j]))


def beam_angles(config: RobotConfig, heading: float, sensor: str) -> np.ndarray:
    """World-frame beam directions for one sensor, centered on its facing."""
    lidar = config.lidar
    center = heading if sensor == "front" else heading + math.pi
    if lidar.beams == 1:
        return np.array([center])
    return center + np.linspace(-lidar.fov / 2.0, lidar.fov / 2.0, lidar.beams)


def cast_lidar(
    config: RobotConfig, state: RobotState, world: WorldGeometry, sensor: str
) -> LidarScan:
    """Raycast one sensor against the world (the robot does not sense itself)."""
    if sensor not in ("front", "rear"):
        raise ValueError(f"unknown sensor {sensor!r}")
    lidar = config.lidar
    offset = lidar.front_offset if sensor == "front" else lidar.rear_offset
    origin = transform_point(state.base_pose, offset)
    angles = beam_angles(config, state.base_pose[2], sensor)
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    t = np.full(lidar.beams, np.inf)
    hits = rays_segments_hits(origin, directions, world.segments)
    if hits.size:
        t = np.minimum(t, hits.min(axis=1))
    hits = rays_boxes_hits(origin, directions, world.boxes)
    if hits.size:
        t = np.minimum(t, hits.min(axis=1))
    return LidarScan(ranges=np.minimum(t, lidar.max_range))
