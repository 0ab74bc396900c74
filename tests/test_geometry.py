import math

import numpy as np
import pytest

import oracles
from oracles import inverse_transform_point, pose_matrix, transform_point
from planarwbc.geometry import (
    box_edges,
    point_box_distance,
    point_segment_distance,
    rays_segments_hits,
    rot2d,
    segment_box_distance,
    segment_segment_distance,
    wrap_angle,
)
from planarwbc.world import WorldGeometry


def ray_planes(origins, directions):
    # (B, 2) rays as the kernels' (2, 1, B) planes; one (2,) origin is shared.
    origins = np.asarray(origins, dtype=float)
    return origins.T.reshape(2, 1, -1), np.asarray(directions, dtype=float).T[:, None, :]


def segment_hit_rows(origins, directions, segments):
    # rays_segments_hits with one row per ray, (B, N), against the starts and
    # edges rows of the segments' obstacle table.
    planes = WorldGeometry(segments=segments).outline_planes
    with np.errstate(divide="ignore", invalid="ignore"):
        return rays_segments_hits(*ray_planes(origins, directions), planes[0:2], planes[4:6]).T


def box_hit_rows(origins, directions, boxes):
    # The first hit on each box's outline, (B, M): rays_segments_hits over
    # the box's four edges, as cast_lidars casts them.
    hits = segment_hit_rows(origins, directions, box_edges(np.asarray(boxes)).reshape(-1, 4))
    return hits.reshape(len(hits), -1, 4).min(axis=2)


def sample_segment(seg, n=400):
    x0, y0, x1, y1 = seg
    t = np.linspace(0.0, 1.0, n)
    return np.stack([x0 + t * (x1 - x0), y0 + t * (y1 - y0)], axis=1)


def test_wrap_angle_range_and_identity():
    for a in np.linspace(-20.0, 20.0, 1001):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert abs(math.remainder(w - a, 2.0 * math.pi)) < 1e-12
    assert wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-12)


def test_rotation_and_pose_transforms():
    rng = np.random.default_rng(0)
    for _ in range(100):
        theta = rng.uniform(-6, 6)
        r = rot2d(theta)
        assert np.allclose(r @ r.T, np.eye(2), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

        pose = rng.uniform(-3, 3, 3)
        p = rng.uniform(-3, 3, 2)
        world = transform_point(pose, p)
        # Same map through the homogeneous matrix.
        hom = pose_matrix(pose) @ np.array([p[0], p[1], 1.0])
        assert np.allclose(world, hom[:2], atol=1e-12)
        back = inverse_transform_point(pose, world)
        assert np.allclose(back, p, atol=1e-10)


def test_point_segment_distance_against_sampling():
    rng = np.random.default_rng(1)
    for _ in range(200):
        seg = rng.uniform(-2, 2, 4)
        p = rng.uniform(-3, 3, 2)
        dense = np.min(np.linalg.norm(sample_segment(seg, 2000) - p, axis=1))
        assert point_segment_distance(p, seg) == pytest.approx(dense, abs=2e-3)


def test_point_segment_distance_degenerate():
    assert point_segment_distance((1.0, 1.0), (0.0, 0.0, 0.0, 0.0)) == pytest.approx(math.sqrt(2))


def test_point_box_distance_cases():
    box = (0.0, 0.0, 2.0, 1.0)
    assert point_box_distance((1.0, 0.5), box) == 0.0
    assert point_box_distance((3.0, 0.5), box) == pytest.approx(1.0)
    assert point_box_distance((-1.0, -1.0), box) == pytest.approx(math.sqrt(2))
    assert point_box_distance((2.0, 1.0), box) == 0.0
    assert point_box_distance((2.0001, 1.0), box) > 0.0


def test_segments_cross_cases():
    assert segment_segment_distance((0, 0, 2, 2), (0, 2, 2, 0)) == 0.0
    assert segment_segment_distance((0, 0, 2, 0), (1, 0, 1, 5)) == 0.0  # T-touch
    assert segment_segment_distance((0, 0, 2, 0), (1, 0, 3, 0)) == 0.0  # collinear overlap
    assert segment_segment_distance((0, 0, 2, 0), (0, 1, 2, 1)) > 0.0  # parallel apart
    assert segment_segment_distance((0, 0, 1, 0), (2, 0, 3, 0)) > 0.0  # collinear apart


def test_segment_segment_distance_against_sampling():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a = rng.uniform(-2, 2, 4)
        b = rng.uniform(-2, 2, 4)
        pa = sample_segment(a, 300)
        pb = sample_segment(b, 300)
        dense = np.min(np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2))
        # The sampled oracle resolves distance only to ~len/300.
        assert segment_segment_distance(a, b) == pytest.approx(dense, abs=1.5e-2)
        assert segment_segment_distance(a, b) <= dense + 1e-12
    assert segment_segment_distance((0, 0, 2, 2), (0, 2, 2, 0)) == 0.0


def test_segment_box_distance_cases():
    box = (1.0, 1.0, 2.0, 2.0)
    assert segment_box_distance((0.0, 0.0, 3.0, 3.0), box) == 0.0  # passes through
    assert segment_box_distance((1.2, 1.2, 1.8, 1.8), box) == 0.0  # fully inside
    assert segment_box_distance((0.0, 0.0, 0.5, 0.0), box) == pytest.approx(math.hypot(0.5, 1.0))
    assert segment_box_distance((0.0, 1.5, 0.5, 1.5), box) == pytest.approx(0.5)


def assert_matches_oracle(got, ref):
    # Same zero/non-zero verdict (touching is exact), values within 1e-12.
    got = np.asarray(got)
    assert got.shape == ref.shape
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


def oracle_grid(fn, a, b):
    # The scalar oracle over every (a, b) pair, shaped like the broadcast call.
    return np.array([[fn(x, y) for y in b] for x in a])


def random_boxes(rng, n):
    lo = rng.uniform(-2, 1.5, (n, 2))
    return np.concatenate([lo, lo + rng.uniform(0.0, 1.5, (n, 2))], axis=1)


def test_distance_kernels_match_scalar_oracle_on_random_inputs():
    rng = np.random.default_rng(5)
    points = rng.uniform(-3, 3, (40, 2))
    segs = rng.uniform(-2, 2, (30, 4))
    segs[:5, 2:] = segs[:5, :2]  # zero-length segments
    boxes = random_boxes(rng, 20)
    pairs = (
        (point_segment_distance, oracles.point_segment_distance, points, segs),
        (point_box_distance, oracles.point_box_distance, points, boxes),
        (segment_segment_distance, oracles.segment_segment_distance, segs, segs),
        (segment_box_distance, oracles.segment_box_distance, segs, boxes),
    )
    for kernel, oracle, a, b in pairs:
        ref = oracle_grid(oracle, a, b)
        assert_matches_oracle(kernel(a[:, None, :], b[None, :, :]), ref)
        # Scalar arguments still give one value per pair.
        for i, j in ((0, 0), (3, 7), (len(a) - 1, len(b) - 1)):
            got = kernel(tuple(a[i]), tuple(b[j]))
            assert np.ndim(got) == 0
            assert float(got) == pytest.approx(ref[i, j], abs=1e-12)
    assert 0 < np.count_nonzero(oracle_grid(oracles.segment_segment_distance, segs, segs) == 0.0)


def test_distance_kernels_match_scalar_oracle_on_degenerate_cases():
    box = (1.0, 1.0, 2.0, 2.0)
    seg_pairs = [
        ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),  # two equal points
        ((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),  # two distinct points
        ((1.0, 0.0, 1.0, 0.0), (0.0, 0.0, 2.0, 0.0)),  # point on a segment
        ((1.0, 0.5, 1.0, 0.5), (0.0, 0.0, 2.0, 0.0)),  # point off a segment
        ((0.0, 0.0, 2.0, 0.0), (1.0, 0.0, 3.0, 0.0)),  # collinear overlap
        ((0.0, 0.0, 1.0, 0.0), (1.0, 0.0, 3.0, 0.0)),  # collinear, shared endpoint
        ((0.0, 0.0, 1.0, 0.0), (2.0, 0.0, 3.0, 0.0)),  # collinear apart
        ((0.0, 0.0, 2.0, 0.0), (1.0, 0.0, 1.0, 5.0)),  # T-touch
        ((0.0, 0.0, 2.0, 0.0), (1.0, 1e-9, 1.0, 5.0)),  # near T-touch
        # Touching where the projected closest point rounds off the line
        # (point-to-segment distance 7e-15): only the orientation test sees 0.
        ((0.0, 0.0, 10.0, 90.0), (7.0, 63.0, -2.0, 64.0)),  # T-touch
        ((0.0, 0.0, 10.0, 90.0), (7.0, 63.0, 20.0, 180.0)),  # collinear overlap
        ((0.0, 0.0, 2.0, 2.0), (0.0, 2.0, 2.0, 0.0)),  # proper crossing
        ((0.0, 0.0, 2.0, 0.0), (0.0, 1.0, 2.0, 1.0)),  # parallel apart
    ]
    for a, b in seg_pairs:
        for x, y in ((a, b), (b, a)):
            assert_matches_oracle(segment_segment_distance(x, y),
                                  np.array(oracles.segment_segment_distance(x, y)))
    box_segs = [
        (1.5, 1.5, 1.5, 1.5),  # zero-length, inside
        (0.5, 0.5, 0.5, 0.5),  # zero-length, outside
        (1.2, 1.2, 1.8, 1.8),  # fully inside
        (0.0, 1.5, 1.0, 1.5),  # endpoint on a face
        (1.0, 0.0, 1.0, 3.0),  # along a face
        (0.0, 0.0, 3.0, 3.0),  # through the box
        (0.0, 1.0, 0.5, 1.0),  # collinear with an edge, apart
        (2.5, 0.0, 2.5, 3.0),  # parallel to a face
    ]
    for seg in box_segs:
        assert_matches_oracle(segment_box_distance(seg, box),
                              np.array(oracles.segment_box_distance(seg, box)))
    for p in ((1.0, 1.5), (2.0, 2.0), (1.5, 1.5), (0.0, 0.0), (1.5, 3.0)):
        assert_matches_oracle(point_box_distance(p, box),
                              np.array(oracles.point_box_distance(p, box)))
        for seg in box_segs:
            assert_matches_oracle(point_segment_distance(p, seg),
                                  np.array(oracles.point_segment_distance(p, seg)))


def march_ray(origin, direction, is_blocked, max_range=6.0, step=1e-4):
    # Brute-force marching: first arc length whose point is inside an obstacle.
    t = np.arange(0.0, max_range, step)
    pts = np.asarray(origin) + t[:, None] * np.asarray(direction)
    hit = is_blocked(pts)
    idx = np.argmax(hit)
    return t[idx] if hit.any() else math.inf


def test_ray_segment_hits_against_marching():
    rng = np.random.default_rng(3)
    segments = rng.uniform(-3, 3, (6, 4))
    for _ in range(50):
        origin = rng.uniform(-1, 1, 2)
        ang = rng.uniform(-math.pi, math.pi)
        direction = np.array([math.cos(ang), math.sin(ang)])
        ts = segment_hit_rows(origin, direction[None, :], segments)[0]
        t = float(np.min(ts))

        def blocked(pts):
            # point_segment_distance, evaluated for all sample points at once.
            d = np.full(len(pts), np.inf)
            for x0, y0, x1, y1 in segments:
                dx, dy = x1 - x0, y1 - y0
                t = np.clip(((pts[:, 0] - x0) * dx + (pts[:, 1] - y0) * dy)
                            / (dx * dx + dy * dy), 0.0, 1.0)
                d = np.minimum(d, np.hypot(pts[:, 0] - (x0 + t * dx), pts[:, 1] - (y0 + t * dy)))
            return d < 5e-5

        ref = march_ray(origin, direction, blocked)
        if math.isinf(ref):
            assert t > 5.9 or math.isinf(t)
        else:
            assert t == pytest.approx(ref, abs=2e-3)


def test_ray_box_hits_cases():
    boxes = np.array([[1.0, -1.0, 2.0, 1.0]])
    t = box_hit_rows((0.0, 0.0), [(1.0, 0.0)], boxes)[0]
    assert t[0] == pytest.approx(1.0)
    # Starting inside reports the exit.
    t = box_hit_rows((1.5, 0.0), [(1.0, 0.0)], boxes)[0]
    assert t[0] == pytest.approx(0.5)
    # Pointing away misses.
    t = box_hit_rows((0.0, 2.0), [(0.0, 1.0)], boxes)[0]
    assert math.isinf(t[0])
    # Axis-parallel ray sliding past (outside the slab).
    t = box_hit_rows((0.0, 1.5), [(1.0, 0.0)], boxes)[0]
    assert math.isinf(t[0])
    # Vertical ray (dx = 0) into the box.
    t = box_hit_rows((1.5, -3.0), [(0.0, 1.0)], boxes)[0]
    assert t[0] == pytest.approx(2.0)
    # Axis-parallel ray along an edge's line meets the face across it.
    t = box_hit_rows((0.0, 1.0), [(1.0, 0.0)], boxes)[0]
    assert t[0] == 1.0
    # From a corner, inward or outward, the hit is the corner itself.
    t = box_hit_rows((2.0, 1.0), [(1.0, 1.0), (-1.0, -1.0)], boxes)
    np.testing.assert_array_equal(t, [[0.0], [0.0]])


# Rays parallel to a segment (den = dx * ey - dy * ex = +-0.0), with the
# ray off the segment's line (unum = rx * dy - ry * dx nonzero) or on it
# (unum = +-0.0): (origin, direction, segment, sign bit of den, of unum or None).
PARALLEL_RAYS = [
    ((0.0, 1.0), (1.0, 0.0), (2.0, 0.0, 3.0, 0.0), False, None),
    ((5.0, 1.0), (-1.0, 0.0), (2.0, 0.0, 3.0, 0.0), True, None),
    ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0, 3.0, 0.0), False, False),
    ((0.0, 0.0), (1.0, -0.0), (2.0, 0.0, 3.0, 0.0), False, True),
    ((5.0, 0.0), (-1.0, 0.0), (2.0, 0.0, 3.0, 0.0), True, False),
    ((5.0, 0.0), (-1.0, 0.0), (2.0, -0.0, 3.0, -0.0), True, True),
]


def test_parallel_rays_miss_without_a_denominator_test():
    # With den = +-0.0, t and u are +-inf or NaN (0 / 0 on the segment's
    # line), and none passes t >= 0 and 0 <= u <= 1: the u test alone makes
    # each a miss, NaN included. The kernel tests nothing else.
    for origin, direction, segment, den_negative, unum_negative in PARALLEL_RAYS:
        (ox, oy), (dx, dy), (x0, y0, x1, y1) = origin, direction, segment
        rx, ry, ex, ey = (np.float64(v) for v in (x0 - ox, y0 - oy, x1 - x0, y1 - y0))
        den = dx * ey - dy * ex
        unum = rx * dy - ry * dx
        assert den == 0.0 and np.signbit(den) == den_negative
        if unum_negative is None:
            assert unum != 0.0
        else:
            assert unum == 0.0 and np.signbit(unum) == unum_negative
        with np.errstate(divide="ignore", invalid="ignore"):
            t, u = (rx * ey - ry * ex) / den, unum / den
        assert not (t >= 0.0 and u >= 0.0 and u <= 1.0)
        hits = segment_hit_rows(origin, [direction], [segment])
        assert hits.tolist() == [[math.inf]]
        assert oracles.rays_segments_hits_rows(np.array(origin), np.array([direction]),
                                               np.array([segment])).tolist() == [[math.inf]]


def test_batched_rays_match_single():
    rng = np.random.default_rng(4)
    segments = rng.uniform(-3, 3, (5, 4))
    boxes = np.sort(rng.uniform(-3, 3, (4, 2, 2)), axis=1).transpose(0, 2, 1).reshape(4, 4)
    boxes = boxes[:, [0, 2, 1, 3]]  # to (xmin, ymin, xmax, ymax)
    origin = rng.uniform(-1, 1, 2)
    angles = rng.uniform(-math.pi, math.pi, 32)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    batch_seg = segment_hit_rows(origin, dirs, segments)
    batch_box = box_hit_rows(origin, dirs, boxes)
    for i in range(32):
        one_ray = dirs[i : i + 1]
        np.testing.assert_array_equal(batch_seg[i], segment_hit_rows(origin, one_ray, segments)[0])
        np.testing.assert_array_equal(batch_box[i], box_hit_rows(origin, one_ray, boxes)[0])


def test_per_ray_origins_match_shared_origin_calls():
    # Each row of a (B, 2) origin array gives the hits of a shared-origin
    # call from that origin, axis-parallel rays included: each is parallel
    # to two edges of every box, and its zero denominators must mask those
    # edges in its own column only.
    rng = np.random.default_rng(9)
    segments = np.vstack([rng.uniform(-3, 3, (5, 4)),
                          [[-2.0, 0.5, 2.0, 0.5], [1.0, -2.0, 1.0, 2.0]]])
    boxes = np.array([[-1.0, -1.0, 0.5, 0.25], [1.5, -2.5, 2.5, 2.0], [-2.5, 1.0, -1.5, 2.5]])
    # In the open, inside boxes, and on box edge lines.
    origins = np.vstack([rng.uniform(-3, 3, (40, 2)), [[0.0, 0.0], [2.0, 0.0], [-1.0, 0.0],
                                                       [0.0, 0.25], [1.5, 3.0], [2.0, 2.0]]])
    angles = rng.uniform(-math.pi, math.pi, len(origins))
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    axis_parallel = np.array([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0), (2.0, 0.0),
                              (0.0, -0.5)])
    dirs[::2] = axis_parallel[np.arange(len(dirs[::2])) % len(axis_parallel)]
    seg_hits = segment_hit_rows(origins, dirs, segments)
    box_hits = box_hit_rows(origins, dirs, boxes)
    assert seg_hits.shape == (len(origins), len(segments))
    assert box_hits.shape == (len(origins), len(boxes))
    assert np.isfinite(box_hits[::2]).any() and np.isinf(box_hits[::2]).any()
    for k, origin in enumerate(origins):
        one_ray = dirs[k : k + 1]
        np.testing.assert_array_equal(seg_hits[k],
                                      segment_hit_rows(origin, one_ray, segments)[0])
        np.testing.assert_array_equal(box_hits[k], box_hit_rows(origin, one_ray, boxes)[0])
    # One origin repeated per ray is the shared-origin call.
    repeated = np.tile(origins[0], (len(dirs), 1))
    np.testing.assert_array_equal(segment_hit_rows(repeated, dirs, segments),
                                  segment_hit_rows(origins[0], dirs, segments))
    np.testing.assert_array_equal(box_hit_rows(repeated, dirs, boxes),
                                  box_hit_rows(origins[0], dirs, boxes))
