"""World geometry, capsule collision checks, and raycast LIDAR.

A simulator step asks the world two things, each as one batch over the
same obstacle outline (the wall segments plus every box edge): body_query
sends every (body capsule, outline segment) pair and every self-collision
pair through one distance call, and cast_lidars casts the rays of both
sensors against the outline in one ray call. Both batches are
obstacle-major: the world keeps its outline as static coordinate planes
built at construction, a step writes only the body's spines or its rays
beside them, and every minimum over obstacles reduces the leading axis (see
geometry). Boxes stay solid where the outline alone cannot say so: the body
query's inside test, min_clearance_point and the planner's raster.

body_query puts a broad phase on Python floats in front of that batch: a
pose whose capsules are all clear of each other and further than the
caller's cutoff from every obstacle's bounding box skips the distance call.
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
    rays_segments_hits,
    segment_columns,
    segment_pairs_distance,
    transform_point,
)
from .robot import RobotConfig, RobotState, forward_kinematics


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class WorldGeometry:
    """Static obstacles: wall segments plus axis-aligned boxes.

    bounds is the (xmin, ymin, xmax, ymax) rectangle enclosing everything;
    it is used for rasterization and rendering, not sensed directly.

    The world copies its arrays and makes them and everything derived from
    them read-only, so the derived planes cannot go stale.
    """

    segments: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    boxes: np.ndarray = field(default_factory=lambda: np.empty((0, 4)))
    bounds: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0)
    # Wall segments plus box edges, every boundary a segment can be nearest
    # to outside the boxes and every boundary a ray can reach, as (4, K, 1)
    # planes [x0, y0, x1, y1].
    outline_planes: np.ndarray = field(init=False, repr=False, compare=False)
    # The ray kernel's planes of the same outline: starts and (ey, ex).
    segment_starts: np.ndarray = field(init=False, repr=False, compare=False)
    segment_edges: np.ndarray = field(init=False, repr=False, compare=False)
    # The broad phase's (N, 4) bounding boxes [xmin, ymin, xmax, ymax] of
    # the wall segments, then the boxes.
    obstacle_bounds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        segments = np.array(self.segments, dtype=float).reshape(-1, 4)
        boxes = np.array(self.boxes, dtype=float).reshape(-1, 4)
        outlines = np.concatenate([segments, box_edges(boxes).reshape(-1, 4)])
        starts, edges = segment_columns(outlines)
        obstacles = np.concatenate([segments, boxes])
        derived = {
            "segments": segments,
            "boxes": boxes,
            "outline_planes": np.ascontiguousarray(outlines.T[:, :, None]),
            "segment_starts": starts,
            "segment_edges": edges,
            "obstacle_bounds": np.hstack([np.minimum(obstacles[:, :2], obstacles[:, 2:]),
                                          np.maximum(obstacles[:, :2], obstacles[:, 2:])]),
        }
        for name, array in derived.items():
            object.__setattr__(self, name, _read_only(array))


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


@functools.cache
def _capsule_radii(base_radius: float, link_radius: float, n: int):
    """Radii of the n capsules (the base disk first) and the radius sums of
    the self-collision pairs."""
    radii = np.full(n, link_radius)
    radii[0] = base_radius
    i, j = _self_pairs(n)
    return _read_only(radii), _read_only(radii[i] + radii[j])


def _body_spines(config: RobotConfig, frames: np.ndarray) -> np.ndarray:
    """Capsule spines (K+1, 4): the base disk as a zero-length spine at its
    center, then the K links."""
    return frames[:, :2][_spine_ends(config.num_joints)].reshape(-1, 4)


# How far the broad phase's bounds stay above the exact pass's distances:
# Python floats may round differently from the numpy kernels.
BROAD_PHASE_SLACK = 1e-9


def _boxes_apart(a, b, reach: float) -> bool:
    """True when boxes a and b (xmin, ymin, xmax, ymax) are more than reach apart."""
    dx = max(b[0] - a[2], a[0] - b[2])
    dy = max(b[1] - a[3], a[1] - b[3])
    return dx > reach or dy > reach or (dx > 0.0 and dy > 0.0 and dx * dx + dy * dy > reach * reach)


def _point_segment_distance(px: float, py: float, x0: float, y0: float, x1: float,
                            y1: float) -> float:
    """Distance from point (px, py) to segment (x0, y0)-(x1, y1)."""
    dx, dy = x1 - x0, y1 - y0
    den = dx * dx + dy * dy
    t = 0.0 if den == 0.0 else min(1.0, max(0.0, ((px - x0) * dx + (py - y0) * dy) / den))
    return math.hypot(px - x0 - t * dx, py - y0 - t * dy)


def _broad_phase_clear(config: RobotConfig, frames: np.ndarray, world: WorldGeometry,
                       cutoff: float) -> bool:
    """True when no self pair of the body can touch and every capsule is more
    than cutoff from every obstacle's bounding box; False leaves the verdict
    to the exact pass.

    Runs on Python floats. Each self pair is first tested by its bounding
    boxes, then the base disk against a link by their exact distance and two
    links by their midpoint circles. An obstacle is first tested against the
    whole body's box, then capsule by capsule. Every bound keeps
    BROAD_PHASE_SLACK.
    """
    xs, ys, _ = frames.T.tolist()
    cx, cy = xs[0], ys[0]
    base_r, link_r = config.base_radius, config.link_capsule_radius
    spines = list(zip(xs[1:-1], ys[1:-1], xs[2:], ys[2:]))
    boxes = [(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)) for x0, y0, x1, y1 in spines]
    base_box = (cx, cy, cx, cy)

    # The base disk against the links from the second outward (the first
    # starts at the mount inside it), then links two or more apart.
    touch = base_r + link_r + BROAD_PHASE_SLACK
    for spine, box in zip(spines[1:], boxes[1:]):
        if not (_boxes_apart(base_box, box, touch)
                or _point_segment_distance(cx, cy, *spine) > touch):
            return False
    touch = 2.0 * link_r + BROAD_PHASE_SLACK
    mids = [((x0 + x1) / 2.0, (y0 + y1) / 2.0) for x0, y0, x1, y1 in spines]
    halves = [length / 2.0 for length in config.link_lengths]
    for a in range(len(spines)):
        for b in range(a + 2, len(spines)):
            if not (_boxes_apart(boxes[a], boxes[b], touch)
                    or math.dist(mids[a], mids[b]) - halves[a] - halves[b] > touch):
                return False

    # The body's box, grown by the largest reach, sets apart every obstacle
    # beyond it on some axis; capsule boxes decide the rest.
    reach = max(base_r, link_r) + cutoff + BROAD_PHASE_SLACK
    x0, y0, x1, y1 = min(xs) - reach, min(ys) - reach, max(xs) + reach, max(ys) + reach
    near = [obstacle for obstacle in world.obstacle_bounds.tolist()
            if obstacle[0] <= x1 and x0 <= obstacle[2] and obstacle[1] <= y1 and y0 <= obstacle[3]]
    capsules = [(base_box, base_r + cutoff + BROAD_PHASE_SLACK)]
    capsules += [(box, link_r + cutoff + BROAD_PHASE_SLACK) for box in boxes]
    return all(_boxes_apart(box, obstacle, r) for obstacle in near for box, r in capsules)


def body_query(config: RobotConfig, frames: np.ndarray, world: WorldGeometry,
               cutoff: float = math.inf) -> tuple[bool, float]:
    """(collided, clearance) of the body at the pose whose forward-kinematics
    frames are given, from one batch of distances.

    collided is True iff the body intersects the world or itself; clearance
    is the minimum surface-to-obstacle distance, negative when the body
    penetrates an obstacle. cutoff is the clearance the caller reads: when
    the broad phase (_broad_phase_clear) shows the body clear of itself and
    more than cutoff from every obstacle, the result is (False, inf) and the
    batch is not run. So collided is always exact, and the clearance is
    exact whenever it is below cutoff and at least cutoff otherwise.

    The body is the base disk plus one capsule per link. Every capsule is
    checked against walls and boxes, and capsule pairs at least two apart in
    the chain base, link 1, ..., link K against each other: link capsules
    from the second link outward vs the base disk (the first link starts at
    the mount inside it), and pairs of non-adjacent links. One
    segment_pairs_distance call measures every spine against every outline
    and every spine, obstacle-major; a spine with an end inside a box is 0
    from the world.
    """
    if _broad_phase_clear(config, frames, world, cutoff):
        return False, math.inf
    spines = _body_spines(config, frames)
    n, m = len(spines), world.outline_planes.shape[1]
    radii, self_radii = _capsule_radii(config.base_radius, config.link_capsule_radius, n)
    i, j = _self_pairs(n)
    # Row r < m is outline r, row m + s is spine s; column s is spine s.
    rows = np.empty((4, m + n, 1))
    rows[:, :m] = world.outline_planes
    rows[:, m:, 0] = spines.T
    d = segment_pairs_distance(spines.T[:, None, :], rows)
    obstacle = d[:m].min(axis=0, initial=np.inf)
    inside = (point_box_distance(spines.reshape(n, 2, 1, 2), world.boxes) == 0.0).any(axis=(1, 2))
    obstacle[inside] = 0.0
    collided = bool((obstacle <= radii).any() or (d[m + j, i] <= self_radii).any())
    return collided, float((obstacle - radii).min())


def body_obstacle_clearance(
    config: RobotConfig, state: RobotState, world: WorldGeometry
) -> float:
    """Minimum surface-to-obstacle distance over base disk and arm capsules.

    Negative values indicate penetration depth.
    """
    return body_query(config, forward_kinematics(config, state), world)[1]


def collision_check(config: RobotConfig, state: RobotState, world: WorldGeometry) -> bool:
    """True iff the robot intersects the world or itself (see body_query)."""
    return body_query(config, forward_kinematics(config, state), world, cutoff=0.0)[0]


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
    of rays against the world's outline (the robot does not sense itself).

    A ray that starts inside a box reports where it leaves the box.
    """
    lidar = config.lidar
    pose = state.base_pose
    count, beams = len(sensors), lidar.beams
    facings = np.array([_sensor_facing(pose[2], sensor) for sensor in sensors])
    angles = (facings[:, None] + _beam_offsets(beams, lidar.fov)).ravel()
    # Ray planes [x, y]: one column per ray, sensor-major.
    origins, directions = np.empty((2, 2, 1, count * beams))
    np.cos(angles, out=directions[0, 0])
    np.sin(angles, out=directions[1, 0])
    offsets = [lidar.front_offset if sensor == "front" else lidar.rear_offset
               for sensor in sensors]
    origins.reshape(2, count, beams)[...] = np.transpose(
        [transform_point(pose, offset) for offset in offsets])[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        hits = rays_segments_hits(origins, directions, world.segment_starts,
                                  world.segment_edges)
    t = hits.min(axis=0, initial=np.inf)
    return np.minimum(t, lidar.max_range, out=t).reshape(count, beams)


def cast_lidar(
    config: RobotConfig, state: RobotState, world: WorldGeometry, sensor: str
) -> np.ndarray:
    """Raw ranges (beams,) of one sensor (the robot does not sense itself)."""
    return cast_lidars(config, state, world, (sensor,))[0]
