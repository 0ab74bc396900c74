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

The kernels a simulator step runs are coordinate-major: segment_pairs_distance
(the body query's pairs) takes (4, ...) planes, and rays_segments_hits takes
rays as (2, 1, B) planes and segments as (2, N, 1) planes built once per
world (segment_columns), returning one (N, B) row per segment, rays last.
Each stage is then one ufunc over a whole stacked buffer, and a minimum over
obstacles or cases reduces a leading axis: numpy takes about four times as
long to reduce a short trailing axis, e.g. (128, 4).min(axis=1) against
(4, 128).min(axis=0).
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
    return _point_segment(*_coordinate_major(p, seg))[0][()]


def point_box_distance(p, box):
    """Distance from points p to solid boxes; exactly 0 inside or on the boundary."""
    p, box = _coordinate_major(p, box)
    outside = np.maximum(np.maximum(box[0:2] - p, 0.0), p - box[2:4])  # [dx, dy]
    outside *= outside
    return np.sqrt(outside[0] + outside[1])


def segment_segment_distance(a, b):
    """Minimum distance between segments; exactly 0 where they cross or touch."""
    return segment_pairs_distance(*_coordinate_major(a, b))[()]


def segment_pairs_distance(a, b) -> np.ndarray:
    """segment_segment_distance of coordinate-major segments: a and b are
    (4, ...) planes [x0, y0, x1, y1] whose trailing axes broadcast."""
    shape = np.broadcast(a[0], b[0]).shape
    # Each endpoint against the other segment, as one batch of four cases:
    # a's ends against b, then b's ends against a.
    segs = np.empty((4, 4, *shape))
    segs[:, 0:2] = b[:, None]
    segs[:, 2:4] = a[:, None]
    points = np.empty((2, 4, *shape))
    points[:, 0:2] = a.reshape(2, 2, *a.shape[1:]).swapaxes(0, 1)
    points[:, 2:4] = b.reshape(2, 2, *b.shape[1:]).swapaxes(0, 1)
    dist, side = _point_segment(points, segs)
    sign = np.sign(side)
    crosses = sign[0::2] * sign[1::2] < 0.0
    # An endpoint exactly on the other segment's line touches it when it also
    # lies in that segment's bounding box (collinear overlap, T-touch).
    lo = np.minimum(segs[0:2], segs[2:4])
    hi = np.maximum(segs[0:2], segs[2:4])
    within = (lo <= points) & (points <= hi)
    on = (side == 0.0) & within[0] & within[1]
    return np.where((crosses[0] & crosses[1]) | on.any(axis=0), 0.0, dist.min(axis=0))


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


def _coordinate_major(*arrays) -> list[np.ndarray]:
    """Views of arrays with coordinates on the trailing axis as planes with
    coordinates leading, their other axes aligned for broadcasting."""
    arrays = [np.asarray(x, dtype=float) for x in arrays]
    ndim = max(x.ndim for x in arrays)
    axes = (ndim - 1, *range(ndim - 1))
    return [x[(None,) * (ndim - x.ndim)].transpose(axes) for x in arrays]


def _point_segment(p, seg):
    """(distance, side) of points p (2, ...) against segments seg (4, ...),
    coordinate-major.

    side is the cross product of the segment direction with p - start:
    positive left of the segment's line, negative right, exactly 0 on it.
    A zero-length segment is its start point.
    """
    start = seg[0:2]
    d = seg[2:4] - start  # [dx, dy]
    r = p - start  # [rx, ry]
    dd = d * d
    den = dd[0] + dd[1]
    rd = r * d
    num = rd[0] + rd[1]
    t = np.divide(num, den, out=np.zeros_like(num), where=den != 0.0)
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    e = t * d
    e += start
    e = np.subtract(p, e, out=e)  # p - (start + t * d)
    e *= e
    dist = np.add(e[0], e[1], out=t)
    np.sqrt(dist, out=dist)
    cross = np.multiply(d, r[::-1], out=rd)  # [dx * ry, dy * rx]
    return dist, cross[0] - cross[1]


def segment_columns(segments) -> tuple[np.ndarray, np.ndarray]:
    """The (2, N, 1) planes rays_segments_hits reads for segments (N, 4):
    starts [x0, y0] and edges [y1 - y0, x1 - x0], y first."""
    seg = np.asarray(segments, dtype=float).reshape(-1, 4).T[:, :, None]
    starts = np.ascontiguousarray(seg[0:2])
    edges = np.concatenate([seg[3:4] - seg[1:2], seg[2:3] - seg[0:1]])
    return starts, edges


def rays_segments_hits(origins, directions, starts, edges) -> np.ndarray:
    """Ray parameters t >= 0 of intersections, one (N, B) row per segment.

    origins are (2, 1, B) planes [x, y], one column per ray, or (2, 1, 1)
    shared by all rays; directions (2, 1, B) need not be normalized, t is in
    units of each direction's length. starts and edges are the planes of
    segment_columns. Misses are inf. Parallel rays divide by zero, so call
    inside np.errstate(divide="ignore", invalid="ignore").
    """
    r = starts - origins  # [rx, ry]
    products = np.empty((6, starts.shape[1], directions.shape[2]))
    np.multiply(r, edges, out=products[0:2])  # rx * ey, ry * ex
    np.multiply(r, directions[::-1], out=products[2:4])  # rx * dy, ry * dx
    np.multiply(directions, edges, out=products[4:6])  # dx * ey, dy * ex
    numerators = np.subtract(products[0::2], products[1::2], out=products[0:3])
    den = numerators[2]
    t, u = np.divide(numerators[0:2], den, out=products[3:5])
    valid = (np.abs(den) > 0.0) & (t >= 0.0) & (u >= 0.0) & (u <= 1.0)
    return np.where(valid, t, np.inf)
