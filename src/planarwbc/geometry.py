"""2D geometric primitives shared by the simulator, planner, and renderer.

Conventions: points are (x, y) float pairs or numpy arrays, segments are
(x0, y0, x1, y1) and axis-aligned boxes are (xmin, ymin, xmax, ymax). All
lengths in meters, angles in radians.

The distance functions broadcast. Each argument is an array whose last axis
holds the coordinates above; its leading axes broadcast against the other
argument's by numpy rules, and the result has the broadcast leading shape.
Plain pairs and 4-tuples give a numpy float. Segments that cross or touch,
and points or segment endpoints inside a box, are exactly 0.0 apart; a point
on a segment may come out a rounding error above 0.

The kernels a simulator step runs are coordinate-major: segment_pairs_distance
(the body query's pairs) takes (4, ...) planes, and rays_segments_hits takes
segments as (2, N, 1) planes of starts and edges, rows of the obstacle table
each world builds once (world.WorldGeometry.outline_planes), and rays as
(2, 1, B) planes, returning one (N, B) row per segment, rays last. A batch
of rays from a few shared origins, such as the LIDAR's sensors, is grouped by
origin: origins (2, 1, S, 1), directions (2, 1, S, B) and segments
(2, N, 1, 1) give (N, S, B) rows, and the terms of one (segment, origin) pair
are formed once for all its rays. Each stage is then one ufunc over a whole
stacked buffer, and a minimum over obstacles or cases reduces a leading axis:
numpy takes about four times as long to reduce a short trailing axis, e.g.
(128, 4).min(axis=1) against (4, 128).min(axis=0).
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


def rays_segments_hits(origins, directions, starts, edges) -> np.ndarray:
    """Ray parameters t >= 0 of intersections, one row per segment, rays last.

    origins are (2, 1, B) planes [x, y], one column per ray, or (2, 1, 1)
    shared by all rays; directions (2, 1, B) need not be normalized, t is in
    units of each direction's length. starts [x0, y0] and edges
    [y1 - y0, x1 - x0], y first, are (2, N, 1) planes of N segments, and the
    result is (N, B). Rays grouped by origin take origins (2, 1, S, 1),
    directions (2, 1, S, B) and the segment planes with one more trailing
    axis, (2, N, 1, 1), and give (N, S, B). Misses are inf. Parallel rays
    divide by zero, so call inside
    np.errstate(divide="ignore", invalid="ignore").
    """
    r = starts - origins  # [rx, ry], one per (segment, origin)
    cross = r * edges  # [rx * ey, ry * ex]
    t_num = np.subtract(cross[0], cross[1], out=cross[0])
    u_terms = np.multiply(r, directions[::-1])  # [rx * dy, ry * dx]
    den_terms = np.multiply(directions, edges)  # [dx * ey, dy * ex]
    u_num = np.subtract(u_terms[0], u_terms[1], out=u_terms[0])
    den = np.subtract(den_terms[0], den_terms[1], out=den_terms[0])
    t = np.divide(t_num, den, out=u_terms[1])
    u = np.divide(u_num, den, out=den_terms[1])
    # A zero den gives t and u of +-inf or NaN, and u outside [0, 1] misses;
    # NaN fails every comparison, so it is tested as not u >= 0.
    np.putmask(t, (t < 0.0) | (u > 1.0) | ~(u >= 0.0), np.inf)
    return t
