"""2D geometric primitives shared by the simulator, planner, and renderer.

Conventions: points are (x, y) float pairs or numpy arrays, segments are
(x0, y0, x1, y1), axis-aligned boxes are (xmin, ymin, xmax, ymax), poses are
(x, y, theta). All lengths in meters, angles in radians.

The distance functions broadcast. Each argument is an array whose last axis
holds the coordinates above; its leading axes broadcast against the other
argument's by numpy rules, and the result has the broadcast leading shape.
Plain pairs and 4-tuples give a numpy float. Segments that cross or touch,
and points or segment endpoints inside a box, are exactly 0.0 apart; a point
on a segment may come out a rounding error above 0.
"""
from __future__ import annotations

import math

import numpy as np


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0.0:
        a += 2.0 * math.pi
    return a - math.pi


def rot2d(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def transform_point(pose, p) -> np.ndarray:
    """Map a point from the pose's local frame into the world frame."""
    x, y, theta = pose
    c, s = math.cos(theta), math.sin(theta)
    return np.array([x + c * p[0] - s * p[1], y + s * p[0] + c * p[1]])


def point_segment_distance(p, seg):
    """Distance from points p to segments seg."""
    return _point_segment(np.asarray(p, dtype=float), np.asarray(seg, dtype=float))[0]


def point_box_distance(p, box):
    """Distance from points p to solid boxes; exactly 0 inside or on the boundary."""
    p = np.asarray(p, dtype=float)
    box = np.asarray(box, dtype=float)
    dx = np.maximum(np.maximum(box[..., 0] - p[..., 0], 0.0), p[..., 0] - box[..., 2])
    dy = np.maximum(np.maximum(box[..., 1] - p[..., 1], 0.0), p[..., 1] - box[..., 3])
    return np.sqrt(dx * dx + dy * dy)


def segment_segment_distance(a, b):
    """Minimum distance between segments; exactly 0 where they cross or touch."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    # Each endpoint against the other segment, as one batch of four.
    segs = np.empty((4, *shape))
    segs[0:2] = b
    segs[2:4] = a
    points = np.empty((4, *shape[:-1], 2))
    points[0], points[1] = segs[2, ..., 0:2], segs[2, ..., 2:4]
    points[2], points[3] = segs[0, ..., 0:2], segs[0, ..., 2:4]
    dist, side = _point_segment(points, segs)
    sign = np.sign(side)
    proper = (sign[0] * sign[1] < 0.0) & (sign[2] * sign[3] < 0.0)
    # An endpoint exactly on the other segment's line touches it when it also
    # lies in that segment's bounding box (collinear overlap, T-touch).
    lo = np.minimum(segs[..., 0:2], segs[..., 2:4])
    hi = np.maximum(segs[..., 0:2], segs[..., 2:4])
    on = (side == 0.0) & ((lo <= points) & (points <= hi)).all(axis=-1)
    return np.where(proper | on.any(axis=0), 0.0, dist.min(axis=0))[()]


def segment_box_distance(seg, box):
    """Minimum distance between segments and solid boxes; exactly 0 on overlap."""
    seg = np.asarray(seg, dtype=float)
    box = np.asarray(box, dtype=float)
    ends = seg.reshape(*seg.shape[:-1], 2, 2)
    inside = (point_box_distance(ends, box[..., None, :]) == 0.0).any(axis=-1)
    edges = segment_segment_distance(seg[..., None, :], box_edges(box))
    return np.where(inside, 0.0, edges.min(axis=-1))[()]


def box_edges(box) -> np.ndarray:
    """The four boundary segments of each box, (..., 4) -> (..., 4, 4)."""
    return box[..., _BOX_EDGE_INDEX]


# (xmin, ymin) -> (xmax, ymin) -> (xmax, ymax) -> (xmin, ymax) -> back.
_BOX_EDGE_INDEX = np.array([[0, 1, 2, 1], [2, 1, 2, 3], [2, 3, 0, 3], [0, 3, 0, 1]])


def _point_segment(p, seg):
    """(distance, side) of points p (..., 2) against segments seg (..., 4).

    side is the cross product of the segment direction with p - start:
    positive left of the segment's line, negative right, exactly 0 on it.
    A zero-length segment is its start point.
    """
    px, py = p[..., 0], p[..., 1]
    x0, y0 = seg[..., 0], seg[..., 1]
    dx, dy = seg[..., 2] - x0, seg[..., 3] - y0
    rx, ry = px - x0, py - y0
    den = dx * dx + dy * dy
    num = rx * dx + ry * dy
    t = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    ex, ey = px - (x0 + t * dx), py - (y0 + t * dy)
    dist = np.sqrt(ex * ex + ey * ey)
    return dist, dx * ry - dy * rx


def rays_segments_hits(origins, directions: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Ray parameters t >= 0 of intersections, one (B, N) entry per ray/segment.

    origins is one (2,) origin shared by all rays or one (B, 2) row per ray;
    directions (B, 2) need not be normalized, t is in units of each
    direction's length. Misses are inf.
    """
    directions = np.asarray(directions, dtype=float)
    if segments.size == 0:
        return np.empty((len(directions), 0))
    origins = np.asarray(origins, dtype=float)
    ox, oy = origins[..., 0:1], origins[..., 1:2]
    dx = directions[:, 0:1]
    dy = directions[:, 1:2]
    rx = segments[:, 0] - ox
    ry = segments[:, 1] - oy
    ex = segments[:, 2] - segments[:, 0]
    ey = segments[:, 3] - segments[:, 1]
    den = dx * ey - dy * ex
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * ey - ry * ex) / den
        u = (rx * dy - ry * dx) / den
    valid = (np.abs(den) > 0.0) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
    return np.where(valid, t, np.inf)


def rays_boxes_hits(origins, directions: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Ray parameters t >= 0 of first boundary hit, one (B, N) entry per ray/box.

    Origins as in rays_segments_hits. Slab method; a ray starting inside a
    box reports the exit distance. Axis-parallel rays (zero direction
    component) are handled explicitly.
    """
    directions = np.asarray(directions, dtype=float)
    if boxes.size == 0:
        return np.empty((len(directions), 0))
    origins = np.asarray(origins, dtype=float)
    ox, oy = origins[..., 0:1], origins[..., 1:2]
    dx = directions[:, 0:1]
    dy = directions[:, 1:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        tx1 = (boxes[:, 0] - ox) / dx
        tx2 = (boxes[:, 2] - ox) / dx
        ty1 = (boxes[:, 1] - oy) / dy
        ty2 = (boxes[:, 3] - oy) / dy
    zero_x = dx == 0.0
    if zero_x.any():
        inside_x = (boxes[:, 0] <= ox) & (ox <= boxes[:, 2])
        tx1 = np.where(zero_x, np.where(inside_x, -np.inf, np.nan), tx1)
        tx2 = np.where(zero_x, np.where(inside_x, np.inf, np.nan), tx2)
    zero_y = dy == 0.0
    if zero_y.any():
        inside_y = (boxes[:, 1] <= oy) & (oy <= boxes[:, 3])
        ty1 = np.where(zero_y, np.where(inside_y, -np.inf, np.nan), ty1)
        ty2 = np.where(zero_y, np.where(inside_y, np.inf, np.nan), ty2)
    tmin = np.maximum(np.minimum(tx1, tx2), np.minimum(ty1, ty2))
    tmax = np.minimum(np.maximum(tx1, tx2), np.maximum(ty1, ty2))
    hit = (tmax >= tmin) & (tmax >= 0.0) & ~np.isnan(tmin)
    t = np.where(tmin >= 0.0, tmin, tmax)
    return np.where(hit, t, np.inf)
