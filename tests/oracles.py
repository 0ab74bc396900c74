"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles (interval
arithmetic, dense sampling, brute-force sums) rather than reusing package
internals, so agreement is meaningful.
"""
import hashlib
import math
import struct

import numpy as np

from planarwbc import autodiff as ad
from planarwbc.pathfield import (FREE, GOAL, LOG_OBSTACLE, OBSTACLE, FieldError, GridField,
                                 connected_component, rasterize_world)
from planarwbc.policy import (CheckpointError, acceleration_table, bins_to_action, greedy_bins,
                              param_views)
from planarwbc.robot import Action, RobotConfig, RobotState
from planarwbc.world import WorldGeometry


def pose_matrix(pose) -> np.ndarray:
    """3x3 homogeneous transform for a planar pose (x, y, theta)."""
    x, y, theta = pose
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, x], [s, c, y], [0.0, 0.0, 1.0]])


def zero_action(config) -> Action:
    """No acceleration on the base or any joint."""
    return Action(np.zeros(3), np.zeros(config.num_joints))


def transform_point(pose, p) -> np.ndarray:
    """Map a point from the pose's local frame into the world frame."""
    x, y, theta = pose
    c, s = math.cos(theta), math.sin(theta)
    return np.array([x + c * p[0] - s * p[1], y + s * p[0] + c * p[1]])


def inverse_transform_point(pose, p) -> np.ndarray:
    """Map a world point into the pose's local frame."""
    x, y, theta = pose
    dx, dy = p[0] - x, p[1] - y
    c, s = math.cos(theta), math.sin(theta)
    return np.array([c * dx + s * dy, -s * dx + c * dy])


def greedy_action(robot, output):
    """(Action, bins) of the most likely bin per action dimension."""
    bins = greedy_bins(output)
    return bins_to_action(acceleration_table(robot, output.logits.shape[-1]), bins), bins


def distribution_stats(logits, bins):
    """(log_prob, entropy) of chosen bins under logits (..., dims, bins).

    log_prob takes the same operations, in the same order, as
    policy.sample_bins, so the two agree bit for bit.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    taken = np.take_along_axis(logp, bins[..., None], axis=-1)[..., 0]
    entropy = -(np.exp(logp) * logp).sum(axis=-1)
    return taken.sum(axis=-1), entropy.sum(axis=-1)


def cell_center(field: GridField, row: int, col: int) -> np.ndarray:
    """World coordinates of the center of grid cell (row, col)."""
    return np.array([field.origin[0] + (col + 0.5) * field.cell_size,
                     field.origin[1] + (row + 0.5) * field.cell_size])


def extract_path_arrays(field: GridField, start, goal) -> np.ndarray:
    """The (P, 2) vertices of pathfield.extract_path, stepped on numpy arrays.

    Half-cell steps down the bilinear gradient of the log potential, each
    position a fresh 2-vector and each corner value a numpy scalar, then the
    goal point; a vertex within 1e-12 of the last kept one is dropped. Raises
    FieldError where extract_path does.
    """
    h, w = field.shape
    step = field.cell_size / 2.0
    max_steps = int(4.0 * 2.0 * (w * field.cell_size + h * field.cell_size) / step)
    v = field.log_values
    p = np.array([float(start[0]), float(start[1])])
    points = [p.copy()]
    for _ in range(max_steps):
        if field.cell_of(p) == field.goal_cell:
            points.append(np.array([float(goal[0]), float(goal[1])]))
            kept = [points[0]]
            for q in points[1:]:
                if np.linalg.norm(q - kept[-1]) > 1e-12:
                    kept.append(q)
            return np.array(kept)
        gx = (p[0] - field.origin[0]) / field.cell_size - 0.5
        gy = (p[1] - field.origin[1]) / field.cell_size - 0.5
        gx = min(max(gx, 0.0), w - 1.000001)
        gy = min(max(gy, 0.0), h - 1.000001)
        ix, iy = int(gx), int(gy)
        fx, fy = gx - ix, gy - iy
        v00, v10 = v[iy, ix], v[iy, ix + 1]
        v01, v11 = v[iy + 1, ix], v[iy + 1, ix + 1]
        dx = ((v10 - v00) * (1 - fy) + (v11 - v01) * fy) / field.cell_size
        dy = ((v01 - v00) * (1 - fx) + (v11 - v10) * fx) / field.cell_size
        norm = math.hypot(dx, dy)
        if norm < 1e-12:
            raise FieldError("descent stalled")
        p = p - (step / norm) * np.array([dx, dy])
        points.append(p.copy())
    raise FieldError("path length cap exceeded")


def passage_width_along_path(world, path, spacing=0.05, lateral_span=1.5, lateral_step=0.02):
    """Minimum free-passage width probed along a path.

    At probe points every `spacing` of arc, the passage is twice the best
    obstacle clearance found on the lateral line through the point, i.e. the
    widest disk that fits in the cross-section the path threads. Probes
    outside the world bounds are skipped: space beyond the boundary walls is
    not passage even though it is far from every obstacle surface.
    """
    n = max(2, int(math.ceil(path.total_length / spacing)) + 1)
    arcs = np.linspace(0.0, path.total_length, n)
    idx = np.clip(np.searchsorted(path.cumlen, arcs, side="right") - 1, 0, len(path.points) - 2)
    seg_len = path.cumlen[idx + 1] - path.cumlen[idx]
    t = np.where(seg_len > 0, (arcs - path.cumlen[idx]) / np.where(seg_len > 0, seg_len, 1.0), 0.0)
    points = path.points[idx] + t[:, None] * (path.points[idx + 1] - path.points[idx])

    directions = np.zeros((n, 2))
    directions[:-1] = path.points[idx + 1][:-1] - path.points[idx][:-1]
    directions[-1] = directions[-2]
    norms = np.linalg.norm(directions, axis=1)
    directions = directions / np.where(norms > 0, norms, 1.0)[:, None]
    normals = np.stack([-directions[:, 1], directions[:, 0]], axis=1)

    offsets = np.arange(-lateral_span, lateral_span + lateral_step / 2, lateral_step)
    probes = points[:, None, :] + offsets[None, :, None] * normals[:, None, :]
    xmin, ymin, xmax, ymax = world.bounds
    inside = (
        (probes[..., 0] >= xmin)
        & (probes[..., 0] <= xmax)
        & (probes[..., 1] >= ymin)
        & (probes[..., 1] <= ymax)
    )
    clearance = oracle_clearances(world, probes.reshape(-1, 2)).reshape(inside.shape)
    best = np.max(np.where(inside, clearance, 0.0), axis=1)
    return float(np.min(2.0 * best))


def boxes_ray_march(origin, angle, boxes, max_range, step=1e-4):
    """First obstructed arc length along a ray through a boxes-only world.

    Equals literal point-marching with the given step (the first k >= 0 with
    k*step inside some box), computed in closed form from per-box entry/exit
    intervals so large batches stay fast.
    """
    ox, oy = origin
    dx, dy = math.cos(angle), math.sin(angle)
    best = math.inf
    for xmin, ymin, xmax, ymax in boxes:
        if dx != 0.0:
            tx = sorted(((xmin - ox) / dx, (xmax - ox) / dx))
        elif xmin <= ox <= xmax:
            tx = (-math.inf, math.inf)
        else:
            continue
        if dy != 0.0:
            ty = sorted(((ymin - oy) / dy, (ymax - oy) / dy))
        elif ymin <= oy <= ymax:
            ty = (-math.inf, math.inf)
        else:
            continue
        enter = max(tx[0], ty[0], 0.0)
        exit_ = min(tx[1], ty[1])
        if enter > exit_:
            continue
        k = math.ceil(enter / step - 1e-12)
        t = k * step
        if t <= exit_ + 1e-15:
            best = min(best, t)
    return min(best, max_range)


def boxes_ray_march_literal(origin, angle, boxes, max_range, step=1e-4):
    """Same oracle by actually marching points; slow, for spot checks."""
    t = np.arange(0.0, max_range + step / 2, step)
    pts = np.asarray(origin) + t[:, None] * np.array([math.cos(angle), math.sin(angle)])
    inside = np.zeros(len(t), dtype=bool)
    for xmin, ymin, xmax, ymax in boxes:
        inside |= (
            (pts[:, 0] >= xmin) & (pts[:, 0] <= xmax)
            & (pts[:, 1] >= ymin) & (pts[:, 1] <= ymax)
        )
    hits = np.nonzero(inside)[0]
    return min(float(t[hits[0]]), max_range) if hits.size else max_range


# -- scalar closest-distance reference ---------------------------------------
# One pair at a time with Python floats and explicit branches (orientation
# tests for crossing, Ericson, Real-Time Collision Detection, 2004), and the
# world and body queries as loops over them: the reference for the batched
# kernels in planarwbc.geometry and planarwbc.world.

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


def base_reaches_goal(world, robot: RobotConfig, spawn_xy, goal_xy, approach=0.8,
                      cell=0.05) -> bool:
    """Whether the base can drive from spawn_xy to within approach of goal_xy.

    A flood fill from the spawn cell over the package's raster inflated by
    the base radius: some reached cell center lies within approach of the
    goal. The corridor generator once ran this on every attempt; its
    geometry now guarantees it for every admitted spec.
    """
    try:
        raster = rasterize_world(world, cell, inflate=robot.base_radius, goal=spawn_xy)
    except FieldError:
        return False
    # The spawn is the raster's goal cell, so it is open whenever rasterizing succeeds.
    rows, cols = np.nonzero(connected_component(raster.kind != OBSTACLE, raster.goal_cell))
    cx = raster.origin[0] + (cols + 0.5) * raster.cell_size
    cy = raster.origin[1] + (rows + 0.5) * raster.cell_size
    d2 = (cx - goal_xy[0]) ** 2 + (cy - goal_xy[1]) ** 2
    return bool(np.min(d2) <= approach * approach)


def min_clearance_point(world: WorldGeometry, p) -> float:
    """Distance from a point to the nearest wall segment or box."""
    d = math.inf
    for seg in world.segments:
        d = min(d, point_segment_distance(p, seg))
    for box in world.boxes:
        d = min(d, point_box_distance(p, box))
    return d


def min_clearance_segment(world: WorldGeometry, seg) -> float:
    """Distance from a segment to the nearest wall segment or box."""
    d = math.inf
    for wseg in world.segments:
        d = min(d, segment_segment_distance(seg, wseg))
    for box in world.boxes:
        d = min(d, segment_box_distance(seg, box))
    return d


def body_obstacle_clearance(
    config: RobotConfig, state: RobotState, world: WorldGeometry
) -> float:
    """Minimum surface-to-obstacle distance over base disk and arm capsules.

    Negative values indicate penetration depth.
    """
    base_c = state.base_pose[:2]
    d = min_clearance_point(world, base_c) - config.base_radius
    for seg in link_segments(config, state):
        d = min(d, min_clearance_segment(world, seg) - config.link_capsule_radius)
    return d


def collision_check(config: RobotConfig, state: RobotState, world: WorldGeometry) -> bool:
    """True iff the robot intersects the world or itself.

    Checks (a) base disk vs walls/boxes, (b) every link capsule vs
    walls/boxes, (c) self-collision: link capsules from the second link
    outward vs the base disk, and pairs of non-adjacent link capsules.
    """
    base_c = state.base_pose[:2]
    if min_clearance_point(world, base_c) <= config.base_radius:
        return True
    links = link_segments(config, state)
    r = config.link_capsule_radius
    for seg in links:
        if min_clearance_segment(world, seg) <= r:
            return True
    # The first link starts at the mount inside the base disk, so only the
    # second link onward (index >= 2 counting from the base) is checked
    # against the base.
    for i in range(1, len(links)):
        if point_segment_distance(base_c, links[i]) <= config.base_radius + r:
            return True
    for i in range(len(links)):
        for j in range(i + 2, len(links)):
            if segment_segment_distance(links[i], links[j]) <= 2.0 * r:
                return True
    return False


def oracle_clearances(world, pts):
    """Distance from each point to the nearest obstacle (0 inside a box);
    independent vectorized reimplementation of the clearance query."""
    pts = np.asarray(pts, float)
    d = np.full(len(pts), np.inf)
    for x1, y1, x2, y2 in world.segments:
        a = np.array([x1, y1])
        ab = np.array([x2 - x1, y2 - y1])
        denom = float(ab @ ab) or 1.0
        t = np.clip(((pts - a) @ ab) / denom, 0.0, 1.0)
        delta = pts - a - t[:, None] * ab
        d = np.minimum(d, np.hypot(delta[:, 0], delta[:, 1]))
    for x0, y0, x1, y1 in world.boxes:
        dx = np.maximum(np.maximum(x0 - pts[:, 0], pts[:, 0] - x1), 0.0)
        dy = np.maximum(np.maximum(y0 - pts[:, 1], pts[:, 1] - y1), 0.0)
        d = np.minimum(d, np.hypot(dx, dy))
    return d


def collision_by_sampling(config, state, world, samples=1000):
    """Collision verdict from dense point sampling along each link spine.

    Mirrors the production rules: base disk vs world, capsules vs world,
    capsules (second link onward) vs base disk, non-adjacent capsule pairs.
    """
    base = state.base_pose[:2]
    if oracle_clearances(world, base[None, :])[0] <= config.base_radius:
        return True
    frames = forward_kinematics_frames(config, state)
    r = config.link_capsule_radius
    t = np.linspace(0.0, 1.0, samples)
    spines = []
    for i in range(config.num_joints):
        a = frames[i + 1][:2]
        b = frames[i + 2][:2]
        spines.append(a + t[:, None] * (b - a))
    if np.min(oracle_clearances(world, np.concatenate(spines))) <= r:
        return True
    # sqrt of the least squared distance: the same d as the least norm,
    # since sqrt is monotone, without a sqrt per sample pair.
    for pts in spines[1:]:
        if _min_distance(pts, base) <= config.base_radius + r:
            return True
    for i in range(len(spines)):
        for j in range(i + 2, len(spines)):
            if _min_distance(spines[i][:, None, :], spines[j][None, :, :]) <= 2.0 * r:
                return True
    return False


def _min_distance(p, q):
    """Least distance between the broadcast points p and q (..., 2)."""
    dx = p[..., 0] - q[..., 0]
    dy = p[..., 1] - q[..., 1]
    return np.sqrt(np.min(dx * dx + dy * dy))


def gae_double_sum(rewards, values, dones, bootstrap, gamma, lam):
    """Advantages via the literal exponentially weighted double sum.

    A_t = sum_{l>=0} (gamma*lam)^l * delta_{t+l}, truncating at episode ends
    (done flags) and at the rollout horizon (bootstrapped tail value).
    """
    n = len(rewards)
    values_ext = np.append(values, bootstrap)
    deltas = np.empty(n)
    for t in range(n):
        next_v = 0.0 if dones[t] else values_ext[t + 1]
        deltas[t] = rewards[t] + gamma * next_v - values[t]
    adv = np.zeros(n)
    for t in range(n):
        coef = 1.0
        for l in range(t, n):
            adv[t] += coef * deltas[l]
            if dones[l]:
                break
            coef *= gamma * lam
    return adv


def dense_laplace_solve(field):
    """Direct dense solve of the 5-point Dirichlet system on a grid field."""
    h, w = field.shape
    free = field.kind == FREE
    idx = -np.ones((h, w), dtype=int)
    rows, cols = np.nonzero(free)
    idx[rows, cols] = np.arange(rows.size)
    n = rows.size
    a = np.zeros((n, n))
    b = np.zeros(n)
    boundary = np.where(field.kind == FREE, 0.0, 1.0)
    gr, gc = field.goal_cell
    boundary[gr, gc] = 0.0
    for k in range(n):
        r, c = rows[k], cols[k]
        a[k, k] = 4.0
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if not (0 <= nr < h and 0 <= nc < w):
                b[k] += 1.0  # outside the grid counts as obstacle
            elif free[nr, nc]:
                a[k, idx[nr, nc]] = -1.0
            else:
                b[k] += boundary[nr, nc]
    x = np.linalg.solve(a, b)
    out = boundary.copy()
    out[rows, cols] = x
    return out


def sor_relax(log_values, free, omega, tol, max_iters, check_every=4):
    """Red-black SOR sweeps in the log domain until residuals drop below tol.

    The linear fixed point w = mean(neighbor w) with w = exp(-v) becomes
    v = min_nb + ln 4 - ln(sum exp(min_nb - v_nb)), evaluated with the usual
    max-shift so exponents stay non-positive. Convergence requires both the
    stencil residual of u = 1 - exp(-v) and the relative v update to fall
    below tol.

    Over-relaxation of this soft-min update is only conditionally stable:
    where neighbor values differ sharply (narrow passages, enclosed pockets)
    omega > 1 can limit-cycle. Progress is therefore monitored, and on a
    stall or oscillation the solve deterministically restarts from the same
    initial state at a lower omega, ending at plain Gauss-Seidel, which is
    monotone convergent here from the v = 0 initialization. Free cells must
    be enclosed by a non-free ring (rasterize_world adds one) so the stencil
    can be evaluated with plain array slices.
    """
    if not free.any():
        return 0
    if free[0, :].any() or free[-1, :].any() or free[:, 0].any() or free[:, -1].any():
        raise FieldError("free cells on the grid border; expected an obstacle ring")
    h, w = log_values.shape
    parity = np.add.outer(np.arange(h), np.arange(w)) % 2
    red = free & (parity == 0)
    black = free & (parity == 1)
    nb = log_values.copy()
    ln4 = math.log(4.0)

    def stencil():
        n = log_values[:-2, 1:-1]
        s = log_values[2:, 1:-1]
        wv = log_values[1:-1, :-2]
        e = log_values[1:-1, 2:]
        m = np.minimum(np.minimum(n, s), np.minimum(wv, e))
        # The min-achieving term is exp(0) = 1, so clamping exponents at -50
        # perturbs the sum by < 3e-22 relative while keeping every exp() out
        # of the (pathologically slow) subnormal range.
        total = (
            np.exp(np.maximum(m - n, -50.0))
            + np.exp(np.maximum(m - s, -50.0))
            + np.exp(np.maximum(m - wv, -50.0))
            + np.exp(np.maximum(m - e, -50.0))
        )
        nb[1:-1, 1:-1] = m + ln4 - np.log(total)
        return nb

    def residuals():
        delta = stencil() - log_values
        rel = float(np.max(np.abs(delta) / (1.0 + np.abs(log_values)), initial=0.0,
                           where=free))
        # Exactly |u_new - u| = exp(-v) * |expm1(-(v_new - v))|; the clamps
        # (avoiding subnormals again) only overestimate far-cell terms, which
        # sit many orders below tol either way.
        w_cur = np.exp(np.maximum(-log_values, -50.0))
        u_res = float(np.max(np.abs(np.expm1(-np.clip(delta, -50.0, 50.0))) * w_cur,
                             initial=0.0, where=free))
        return rel, u_res

    init = log_values.copy()
    ladder = [omega] + [o for o in (1.5, 1.25, 1.0) if o < omega - 1e-9]
    # A cold start needs about (h + w) / 2 sweeps just to propagate values
    # across the grid before residuals can fall, so the stall window scales
    # with the grid diameter.
    stall_window = max(10, (h + w) // check_every)
    total_sweeps = 0
    for attempt, om in enumerate(ladder):
        if attempt > 0:
            np.copyto(log_values, init)
        best = math.inf
        best_check = 0
        check = 0
        oscillating = 0
        while total_sweeps < max_iters:
            # Over-relaxed iterates are projected back into the physical
            # range [0, LOG_OBSTACLE] (w in [exp(-LOG_OBSTACLE), 1]); without
            # the projection omega > 1 overshoots unboundedly.
            np.copyto(
                log_values,
                np.clip(log_values + om * (stencil() - log_values), 0.0, LOG_OBSTACLE),
                where=red,
            )
            np.copyto(
                log_values,
                np.clip(log_values + om * (stencil() - log_values), 0.0, LOG_OBSTACLE),
                where=black,
            )
            total_sweeps += 1
            if total_sweeps % check_every == 0 or total_sweeps == max_iters:
                rel, u_res = residuals()
                if rel < tol and u_res < tol:
                    return total_sweeps
                check += 1
                score = max(rel, u_res)
                if score < 0.95 * best:
                    best = score
                    best_check = check
                # Residuals bouncing well above the best seen mean a limit
                # cycle, not slow convergence; drop omega without waiting out
                # the stall window. The tol floor keeps noise-level wobble
                # near convergence from triggering a pointless restart.
                oscillating = oscillating + 1 if score > max(2.0 * best, 100.0 * tol) else 0
                last = attempt + 1 == len(ladder)
                if not last and (oscillating >= 3 or check - best_check >= stall_window):
                    break
    raise FieldError(f"SOR did not converge below {tol} in {max_iters} iterations")


def reference_solve_harmonic(
    field: GridField,
    omega: float = 1.8,
    tol: float = 1e-10,
    max_iters: int = 200_000,
    warm_start: bool = True,
) -> GridField:
    """Relax Laplace's equation over the free cells (obstacle=1, goal=0).

    Omega-ladder SOR from a one-way coarse warm start: an independent
    reference for planarwbc.pathfield.solve_harmonic, which solves the same
    system exactly. Iterates in the log domain (see
    planarwbc.pathfield.LOG_OBSTACLE) and stores both the raw potential in
    .log_values. warm_start seeds the fine
    grid from a coarsened solve cascade, which cuts the sweep count on large
    grids; the convergence criterion at the full resolution is unchanged.
    """
    gr, gc = field.goal_cell
    h, w = field.shape
    adjacent_free = False
    for nr, nc in ((gr - 1, gc), (gr + 1, gc), (gr, gc - 1), (gr, gc + 1)):
        if 0 <= nr < h and 0 <= nc < w and field.kind[nr, nc] == FREE:
            adjacent_free = True
    if not adjacent_free:
        raise FieldError("no free cell adjacent to the goal cell")

    free = field.kind == FREE
    log_values = np.full((h, w), LOG_OBSTACLE)
    log_values[free] = 0.0
    log_values[gr, gc] = 0.0

    if warm_start and min(h, w) >= 16:
        coarse = _reference_coarse_solution(field, omega, tol, max_iters)
        if coarse is not None:
            log_values[free] = coarse[free]
    sor_relax(log_values, free, omega, tol, max_iters)
    field.log_values = log_values
    return field


def _reference_coarse_solution(field: GridField, omega, tol, max_iters):
    """Solve a 2x-coarsened copy and prolong its log potential, or None.

    Each level runs its own omega ladder: conservative coarsening can close
    passages and create pockets that destabilize an omega the finer level
    tolerates, so stability does not transfer between levels.
    """
    h, w = field.shape
    ch, cw = (h + 1) // 2, (w + 1) // 2
    kind = field.kind
    coarse_kind = np.full((ch, cw), FREE, dtype=np.uint8)
    # Conservative coarsening: obstacle if any child cell is obstacle.
    for dr in (0, 1):
        for dc in (0, 1):
            block = kind[dr::2, dc::2]
            coarse_kind[: block.shape[0], : block.shape[1]] = np.where(
                block == OBSTACLE, OBSTACLE, coarse_kind[: block.shape[0], : block.shape[1]]
            )
    gr, gc = field.goal_cell
    cgr, cgc = gr // 2, gc // 2
    if coarse_kind[cgr, cgc] == OBSTACLE:
        return None
    coarse_kind[cgr, cgc] = GOAL
    coarse = GridField(
        origin=field.origin,
        cell_size=field.cell_size * 2.0,
        kind=coarse_kind,
        log_values=np.zeros((ch, cw)),
        goal_cell=(cgr, cgc),
    )
    try:
        reference_solve_harmonic(coarse, omega=omega, tol=max(tol, 1e-8), max_iters=max_iters,
                       warm_start=min(ch, cw) >= 16)
    except FieldError:
        return None
    # Prolong by sampling the coarse bilinear log surface at fine centers.
    out = np.full((h, w), LOG_OBSTACLE)
    rows, cols = np.nonzero(kind != OBSTACLE)
    px = field.origin[0] + (cols + 0.5) * field.cell_size
    py = field.origin[1] + (rows + 0.5) * field.cell_size
    out[rows, cols] = np.clip(
        _bilinear_many(coarse, coarse.log_values, px, py), 0.0, LOG_OBSTACLE
    )
    out[gr, gc] = 0.0
    return out


def _bilinear_many(field: GridField, arr, px, py):
    gx = (px - field.origin[0]) / field.cell_size - 0.5
    gy = (py - field.origin[1]) / field.cell_size - 0.5
    h, w = field.shape
    gx = np.clip(gx, 0.0, w - 1.000001)
    gy = np.clip(gy, 0.0, h - 1.000001)
    ix = np.floor(gx).astype(int)
    iy = np.floor(gy).astype(int)
    fx = gx - ix
    fy = gy - iy
    return (
        arr[iy, ix] * (1 - fx) * (1 - fy)
        + arr[iy, ix + 1] * fx * (1 - fy)
        + arr[iy + 1, ix] * (1 - fx) * fy
        + arr[iy + 1, ix + 1] * fx * fy
    )


def project_on_path_formula(points, cumlen, p):
    """(deviation, arc length) of the nearest polyline point, ties toward larger arc.

    Everything per segment is computed from the vertices on each call.
    """
    a = points[:-1]
    b = points[1:]
    d = b - a
    den = np.einsum("ij,ij->i", d, d)
    pv = np.asarray(p, dtype=float) - a
    t = np.where(den > 0.0, np.einsum("ij,ij->i", pv, d) / np.where(den > 0, den, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * d
    dist2 = np.einsum("ij,ij->i", proj - p, proj - p)
    best = float(dist2.min())
    arcs = cumlen[:-1] + t * np.sqrt(den)
    candidates = arcs[dist2 <= best]
    return math.sqrt(best), float(candidates.max())


# -- row-per-query formulas ----------------------------------------------------
# The step kernels written one row per ray, per pair or per call: coordinates
# on the trailing axis, per-world data derived on every call, np.clip for the
# clamps. The obstacle-major kernels in planarwbc must equal these byte for
# byte, since they run the same operations on every element.

def rays_segments_hits_rows(origins, directions, segments):
    """(B, N) ray parameters of ray/segment intersections, inf on a miss."""
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


def rays_boxes_hits_rows(origins, directions, boxes):
    """(B, M) slab-method ray parameters of the first box boundary hit, inf on a miss."""
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


def outline_rows(world):
    """The world's wall segments, then each box's four edges (x0, y0, x1, y1),
    counter-clockwise from (xmin, ymin)."""
    edges = world.boxes[:, [0, 1, 2, 1, 2, 1, 2, 3, 2, 3, 0, 3, 0, 3, 0, 1]].reshape(-1, 4)
    return np.concatenate([world.segments, edges])


def lidar_rays_rows(config, state, sensors=("front", "rear")):
    """(origins, directions) of the sensors' rays, one (x, y) row per ray, sensor-major."""
    lidar = config.lidar
    pose = state.base_pose
    facings = np.array([pose[2] if s == "front" else pose[2] + math.pi for s in sensors])
    offsets = (np.array([-0.0]) if lidar.beams == 1
               else np.linspace(-lidar.fov / 2.0, lidar.fov / 2.0, lidar.beams))
    angles = (facings[:, None] + offsets).ravel()
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    c, s = math.cos(pose[2]), math.sin(pose[2])
    origins = np.repeat(
        [[pose[0] + c * p[0] - s * p[1], pose[1] + s * p[0] + c * p[1]]
         for p in (lidar.front_offset if name == "front" else lidar.rear_offset
                   for name in sensors)],
        lidar.beams, axis=0)
    return origins, directions


def cast_lidars_rows(config, state, world, sensors=("front", "rear")):
    """Raw ranges (len(sensors), beams), with one row of outline hits per ray.

    The minimum folds the outline in its order: of two equal values
    np.minimum keeps the second, so the sign of a zero range depends on the
    order, and a whole-row min may pair the elements otherwise.
    """
    origins, directions = lidar_rays_rows(config, state, sensors)
    t = np.full(len(directions), np.inf)
    for column in rays_segments_hits_rows(origins, directions, outline_rows(world)).T:
        t = np.minimum(t, column)
    return np.minimum(t, config.lidar.max_range).reshape(len(sensors), config.lidar.beams)


def _point_segment_rows(p, seg):
    """(distance, side) of points p (..., 2) against segments seg (..., 4)."""
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


def segment_segment_distance_rows(a, b):
    """Segment pair distances with coordinates on the trailing axis, 0 on contact."""
    shape = np.broadcast_shapes(np.shape(a), np.shape(b))
    segs = np.empty((4, *shape))
    segs[0:2] = b
    segs[2:4] = a
    points = np.empty((4, *shape[:-1], 2))
    points[0], points[1] = segs[2, ..., 0:2], segs[2, ..., 2:4]
    points[2], points[3] = segs[0, ..., 0:2], segs[0, ..., 2:4]
    dist, side = _point_segment_rows(points, segs)
    sign = np.sign(side)
    proper = (sign[0] * sign[1] < 0.0) & (sign[2] * sign[3] < 0.0)
    lo = np.minimum(segs[..., 0:2], segs[..., 2:4])
    hi = np.maximum(segs[..., 0:2], segs[..., 2:4])
    on = (side == 0.0) & ((lo <= points) & (points <= hi)).all(axis=-1)
    return np.where(proper | on.any(axis=0), 0.0, dist.min(axis=0))[()]


def forward_kinematics_frames(config, state):
    """[base, mount, link-1 end, ..., link-K end], one (x, y, phi) array each,
    accumulated link by link with scalar cos and sin."""
    x, y, theta = state.base_pose
    frames = [np.array([x, y, theta])]
    c, s = math.cos(theta), math.sin(theta)
    ox, oy = config.arm_mount_offset
    mount = np.array([x + c * ox - s * oy, y + s * ox + c * oy])
    phi = theta
    frames.append(np.array([mount[0], mount[1], phi]))
    px, py = mount
    for length, q in zip(config.link_lengths, state.joint_pos):
        phi += q
        px += length * math.cos(phi)
        py += length * math.sin(phi)
        frames.append(np.array([px, py, phi]))
    return frames


def link_segments(config, state):
    """Arm link spines as a (K, 4) array of segments (x0, y0, x1, y1)."""
    frames = forward_kinematics_frames(config, state)
    segs = np.empty((config.num_joints, 4))
    for i in range(config.num_joints):
        segs[i, 0:2] = frames[i + 1][:2]
        segs[i, 2:4] = frames[i + 2][:2]
    return segs


def observation_fields(config, state, world, goal_pose):
    """The observation of `state` as {field: array}, each field on its own:
    scans normalized by the LIDAR max range and clipped to [0, 1], the
    proprioception, and the goal in the end-effector frame."""
    front, rear = np.clip(cast_lidars_rows(config, state, world) / config.lidar.max_range,
                          0.0, 1.0)
    ee_x, ee_y, ee_phi = forward_kinematics_frames(config, state)[-1]
    c, s = math.cos(-ee_phi), math.sin(-ee_phi)
    rel = np.array([[c, -s], [s, c]]) @ np.array([goal_pose[0] - ee_x, goal_pose[1] - ee_y])
    # The goal heading relative to the end-effector, wrapped to (-pi, pi].
    heading = math.fmod(goal_pose[2] - ee_phi + math.pi, 2.0 * math.pi)
    if heading <= 0.0:
        heading += 2.0 * math.pi
    return {
        "front_scan": front,
        "rear_scan": rear,
        "joint_pos": state.joint_pos.copy(),
        "joint_vel": state.joint_vel.copy(),
        "base_vel": state.base_vel.copy(),
        "goal_in_ee": np.array([rel[0], rel[1], heading - math.pi]),
    }


def body_query_rows(config, frames, world):
    """(collided, clearance) from spine-major (spine, outline) pair rows."""
    xy = np.array(frames)[:, :2]
    ends = np.array([(0, 0)] + [(k, k + 1) for k in range(1, config.num_joints + 1)])
    spines = xy[ends].reshape(-1, 4)
    radii = np.full(len(spines), config.link_capsule_radius)
    radii[0] = config.base_radius
    outlines = outline_rows(world)
    n, m = len(spines), len(outlines)
    i, j = np.triu_indices(n, 2)
    d = segment_segment_distance_rows(
        np.concatenate([np.repeat(spines, m, axis=0), spines[i]]),
        np.concatenate([np.tile(outlines, (n, 1)), spines[j]]),
    )
    px, py = spines.reshape(n, 2, 1, 2)[..., 0], spines.reshape(n, 2, 1, 2)[..., 1]
    bx = np.maximum(np.maximum(world.boxes[:, 0] - px, 0.0), px - world.boxes[:, 2])
    by = np.maximum(np.maximum(world.boxes[:, 1] - py, 0.0), py - world.boxes[:, 3])
    inside = (np.sqrt(bx * bx + by * by) == 0.0).any(axis=(1, 2))
    obstacle = np.where(inside, 0.0, d[:n * m].reshape(n, m).min(axis=1, initial=np.inf))
    collided = bool(np.any(obstacle <= radii) or np.any(d[n * m:] <= radii[i] + radii[j]))
    return collided, float(np.min(obstacle - radii))


def step_dynamics_arrays(config, state, action, tau, clamping_enabled=True):
    """Semi-implicit Euler step on arrays, clamped with np.clip."""
    max_bv = np.asarray(config.max_base_vel)
    base_vel = np.clip(state.base_vel + action.base_acc * tau, -max_bv, max_bv)
    joint_vel = np.clip(
        state.joint_vel + action.joint_acc * tau, -config.max_joint_vel, config.max_joint_vel
    )
    x, y, theta = state.base_pose
    c, s = math.cos(theta), math.sin(theta)
    base_pose = np.array([
        x + (c * base_vel[0] - s * base_vel[1]) * tau,
        y + (s * base_vel[0] + c * base_vel[1]) * tau,
        theta + base_vel[2] * tau,
    ])
    joint_pos = state.joint_pos + joint_vel * tau
    limits = np.asarray(config.joint_limits)
    limit_hit = False
    if clamping_enabled:
        lo = limits[:, 0] + config.clamp_margin
        hi = limits[:, 1] - config.clamp_margin
        below = joint_pos < lo
        above = joint_pos > hi
        joint_pos = np.clip(joint_pos, lo, hi)
        joint_vel = np.where(below | above, 0.0, joint_vel)
    else:
        limit_hit = bool(np.any(joint_pos < limits[:, 0]) or np.any(joint_pos > limits[:, 1]))
    return RobotState(base_pose, base_vel, joint_pos, joint_vel), limit_hit


def adam_step_flat(m, v, params, grad, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (1-based) over whole arrays, in place on m, v and params,
    with the bias corrections in the step size and epsilon (Kingma & Ba,
    2015, section 2)."""
    alpha = lr * math.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
    eps_hat = eps * math.sqrt(1.0 - beta2**t)
    a, b = np.empty((2, grad.size), params.dtype)
    np.multiply(m, beta1, out=m)
    np.multiply(grad, 1.0 - beta1, out=a)
    np.add(m, a, out=m)
    np.multiply(v, beta2, out=v)
    np.multiply(grad, 1.0 - beta2, out=a)
    np.multiply(a, grad, out=a)
    np.add(v, a, out=v)
    np.multiply(m, alpha, out=a)
    np.sqrt(v, out=b)
    np.add(b, eps_hat, out=b)
    np.divide(a, b, out=a)
    np.subtract(params, a, out=params)


def taped_forward(policy, obs):
    """(logits tensor, value tensor, flat gradient) of the policy's network on
    the reverse-mode tape.

    The network is composed here from autodiff ops: two tanh layers per
    scan, the concatenation with the proprioceptive inputs, two tanh trunk
    layers and the linear heads, whose first dims*bins columns are the
    logits and last the value. The leaves are the policy's weights;
    backward() on a loss built from the outputs adds each weight's gradient
    into its slot of a zeroed flat gradient in the parameters' dtype, in
    layout order.
    """
    cfg = policy.config
    grad = np.zeros_like(policy.params)
    slots = param_views(cfg, grad)
    leaves = {name: ad.Tensor(view, requires_grad=True, grad=slots[name])
              for name, view in param_views(cfg, policy.params).items()}

    def dense(h, layer, suffix, tanh=True):
        return ad.dense(h, leaves[f"{layer}.w{suffix}"], leaves[f"{layer}.b{suffix}"], tanh)

    x = (obs * policy.obs_scale).astype(policy.params.dtype)
    nb = cfg.scan_beams
    front = dense(dense(ad.Tensor(x[:, :nb]), "scan_front", 0), "scan_front", 1)
    rear = dense(dense(ad.Tensor(x[:, nb : 2 * nb]), "scan_rear", 0), "scan_rear", 1)
    h = dense(ad.concat([front, rear, ad.Tensor(x[:, 2 * nb :])], axis=1), "trunk", 0)
    out = dense(dense(h, "trunk", 1), "heads", "", tanh=False)
    k = cfg.action_dims * cfg.bins
    logits = ad.columns(out, 0, k, np.float64).reshape(-1, cfg.action_dims, cfg.bins)
    return logits, ad.columns(out, k, k + 1, np.float64).reshape(-1), grad


def taped_ppo_loss(policy, obs, bins, old_log_probs, advantages, returns, config):
    """(loss, stats, flat gradient, gradient at the logits) of the PPO
    objective on the reverse-mode tape.

    The objective as the trainer taped it before its gradient was written
    out: clipped surrogate, squared-error value loss and entropy bonus,
    composed from autodiff ops and differentiated by one backward().
    """
    logits, value, grad = taped_forward(policy, obs)
    logp = ad.log_softmax(logits, axis=2)
    onehot = ad.Tensor(np.eye(policy.config.bins)[bins])
    new_log_prob = (logp * onehot).sum(axis=2).sum(axis=1)
    entropy = (ad.exp(logp) * logp).sum(axis=2).sum(axis=1) * -1.0

    ratio = ad.exp(new_log_prob - ad.Tensor(old_log_probs))
    adv = ad.Tensor(advantages)
    unclipped = ratio * adv
    clipped = ad.clip(ratio, 1.0 - config.clip_range, 1.0 + config.clip_range) * adv
    policy_loss = -(ad.minimum(unclipped, clipped).mean())

    value_loss = ((value - ad.Tensor(returns)) ** 2).mean()
    entropy_mean = entropy.mean()
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy_mean
    loss.backward()

    stats = {
        "policy_loss": float(policy_loss.data),
        "value_loss": float(value_loss.data),
        "entropy": float(entropy_mean.data),
        "ratio_mean": float(ratio.data.mean()),
        "clip_fraction": float(np.mean(np.abs(ratio.data - 1.0) > config.clip_range)),
    }
    return float(loss.data), stats, grad, logits.grad


def pack_checkpoint(fmt, digest, arrays, meta=None, dtype=None) -> bytes:
    """The bytes of one checkpoint file in fmt, framed in memory in one piece;
    the arrays go in as dtype, fmt.dtype unless given."""
    parts = [fmt.magic, struct.pack("<I", fmt.version), digest,
             struct.pack("<Q", np.asarray(arrays[0]).size)]
    parts += [np.asarray(a).astype(dtype or fmt.dtype).tobytes() for a in arrays]
    if fmt.meta:
        parts += [struct.pack("<Q", len(meta)), meta]
    payload = b"".join(parts)
    return payload + hashlib.sha256(payload).digest()


def unpack_checkpoint(fmt, raw, digest, count):
    """(native-order arrays, metadata bytes or None) of the bytes of a checkpoint
    file in fmt, checked whole in memory; policy.read_checkpoint streams the
    same checks from a file.

    Raises CheckpointError for a wrong magic, version, config digest or element
    count, for a file shorter or longer than its framing says, and for a
    payload that does not match its digest.
    """
    header = len(fmt.magic) + 4 + 32 + 8
    if raw[: len(fmt.magic)] != fmt.magic[: len(raw)]:
        raise CheckpointError(f"not a {fmt.kind} checkpoint (bad magic)")
    if len(raw) < header:
        raise CheckpointError(f"{fmt.kind} checkpoint is truncated: {len(raw)} bytes")
    (version,) = struct.unpack_from("<I", raw, len(fmt.magic))
    if version != fmt.version:
        raise CheckpointError(f"unsupported {fmt.kind} checkpoint version {version}")
    if raw[len(fmt.magic) + 4 : header - 8] != digest:
        raise CheckpointError(
            f"{fmt.kind} checkpoint was written for a different {fmt.config} config")
    (got,) = struct.unpack_from("<Q", raw, header - 8)
    if got != count:
        raise CheckpointError(f"checkpoint holds {got} params, config needs {count}")
    size = fmt.dtype.itemsize
    body = header + size * count * fmt.arrays
    payload = body + 8 if fmt.meta else body
    if fmt.meta and len(raw) >= payload:
        payload += struct.unpack_from("<Q", raw, body)[0]
    end = payload + hashlib.sha256().digest_size
    if len(raw) != end:
        problem = "is truncated" if len(raw) < end else "has extra bytes"
        raise CheckpointError(f"{fmt.kind} checkpoint {problem}: {len(raw)} bytes, expected {end}")
    if hashlib.sha256(raw[:payload]).digest() != raw[payload:]:
        raise CheckpointError(f"{fmt.kind} checkpoint is corrupted: payload digest mismatch")
    arrays = [np.frombuffer(raw, dtype=fmt.dtype, count=count, offset=header + size * count * k)
              .astype(fmt.dtype.newbyteorder("=")) for k in range(fmt.arrays)]
    return arrays, (raw[body + 8 : payload] if fmt.meta else None)
