"""2D geometric primitives shared by the simulator, planner, and renderer.

Conventions: points are (x, y) float pairs or numpy arrays, segments are
(x0, y0, x1, y1), axis-aligned boxes are (xmin, ymin, xmax, ymax), poses are
(x, y, theta). All lengths in meters, angles in radians.
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


def point_segment_distance(p, seg) -> float:
    """Distance from point p to the segment (x0, y0, x1, y1)."""
    px, py = p[0], p[1]
    x0, y0, x1, y1 = seg
    dx, dy = x1 - x0, y1 - y0
    den = dx * dx + dy * dy
    if den == 0.0:
        return math.hypot(px - x0, py - y0)
    t = ((px - x0) * dx + (py - y0) * dy) / den
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (x0 + t * dx), py - (y0 + t * dy))


def point_box_distance(p, box) -> float:
    """Distance from point p to the solid box; 0 inside."""
    xmin, ymin, xmax, ymax = box
    dx = max(xmin - p[0], 0.0, p[0] - xmax)
    dy = max(ymin - p[1], 0.0, p[1] - ymax)
    return math.hypot(dx, dy)


def point_in_box(p, box) -> bool:
    xmin, ymin, xmax, ymax = box
    return xmin <= p[0] <= xmax and ymin <= p[1] <= ymax


def segments_cross(a, b) -> bool:
    """True if segments a and b properly intersect or touch."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b

    def orient(ox, oy, px, py, qx, qy):
        return (px - ox) * (qy - oy) - (py - oy) * (qx - ox)

    d1 = orient(bx0, by0, bx1, by1, ax0, ay0)
    d2 = orient(bx0, by0, bx1, by1, ax1, ay1)
    d3 = orient(ax0, ay0, ax1, ay1, bx0, by0)
    d4 = orient(ax0, ay0, ax1, ay1, bx1, by1)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    # Collinear / touching cases fall through to distance checks.
    if d1 == 0 and _on_segment(bx0, by0, bx1, by1, ax0, ay0):
        return True
    if d2 == 0 and _on_segment(bx0, by0, bx1, by1, ax1, ay1):
        return True
    if d3 == 0 and _on_segment(ax0, ay0, ax1, ay1, bx0, by0):
        return True
    if d4 == 0 and _on_segment(ax0, ay0, ax1, ay1, bx1, by1):
        return True
    return False


def _on_segment(x0, y0, x1, y1, px, py) -> bool:
    return min(x0, x1) <= px <= max(x0, x1) and min(y0, y1) <= py <= max(y0, y1)


def segment_segment_distance(a, b) -> float:
    """Minimum distance between two segments; 0 if they intersect."""
    if segments_cross(a, b):
        return 0.0
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return min(
        point_segment_distance((ax0, ay0), b),
        point_segment_distance((ax1, ay1), b),
        point_segment_distance((bx0, by0), a),
        point_segment_distance((bx1, by1), a),
    )


def segment_box_distance(seg, box) -> float:
    """Minimum distance between a segment and a solid box; 0 on overlap."""
    x0, y0, x1, y1 = seg
    if point_in_box((x0, y0), box) or point_in_box((x1, y1), box):
        return 0.0
    xmin, ymin, xmax, ymax = box
    edges = (
        (xmin, ymin, xmax, ymin),
        (xmax, ymin, xmax, ymax),
        (xmax, ymax, xmin, ymax),
        (xmin, ymax, xmin, ymin),
    )
    return min(segment_segment_distance(seg, e) for e in edges)


def rays_segments_hits(origin, directions: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Ray parameters t >= 0 of intersections, one (B, N) entry per ray/segment.

    All rays share `origin`; directions (B, 2) need not be normalized, t is in
    units of each direction's length. Misses are inf.
    """
    directions = np.asarray(directions, dtype=float)
    if segments.size == 0:
        return np.empty((len(directions), 0))
    ox, oy = origin
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


def rays_boxes_hits(origin, directions: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Ray parameters t >= 0 of first boundary hit, one (B, N) entry per ray/box.

    Slab method; a ray starting inside a box reports the exit distance.
    Axis-parallel rays (zero direction component) are handled explicitly.
    """
    directions = np.asarray(directions, dtype=float)
    if boxes.size == 0:
        return np.empty((len(directions), 0))
    ox, oy = origin
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
