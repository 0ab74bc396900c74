"""Harmonic potential field over a rasterized world and path metrics.

The world is rasterized onto a square grid (obstacle cells fixed at 1, the
goal cell fixed at 0), Laplace's equation over the free cells is solved
exactly by block elimination along the grid lines, and the reference path
is the steepest-descent streamline of the potential. Per-step
deviation/progress differences against that path feed the shaped reward.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .world import WorldGeometry, min_clearance_point

FREE, OBSTACLE, GOAL = 0, 1, 2

# Potentials are kept in the log domain v = -ln(1 - u). Far from the goal
# 1 - u decays exponentially, so the raw potential is flat at 1.0 with
# noise-level gradients; v keeps O(1) slopes everywhere and has the same
# steepest-descent streamlines. The solve works on w = 1 - u, which keeps its
# relative precision down to the underflow (see _line_solve). Obstacle cells
# carry this sentinel (exp(-750) underflows to 0, so u is exactly 1).
LOG_OBSTACLE = 750.0


@dataclass
class GridField:
    """Discretized potential: log_values[row, col] with row ~ y, col ~ x."""

    origin: tuple[float, float]
    cell_size: float
    kind: np.ndarray  # uint8 (H, W)
    log_values: np.ndarray  # float (H, W), v = -ln(1 - u)
    goal_cell: tuple[int, int]  # (row, col)

    @property
    def values(self) -> np.ndarray:
        """The raw potential u = 1 - exp(-v) in [0, 1]."""
        return -np.expm1(-self.log_values)

    @property
    def shape(self) -> tuple[int, int]:
        return self.kind.shape

    def cell_of(self, p) -> tuple[int, int]:
        col = int(math.floor((p[0] - self.origin[0]) / self.cell_size))
        row = int(math.floor((p[1] - self.origin[1]) / self.cell_size))
        return row, col


class FieldError(RuntimeError):
    """Raised for unsolvable rasterizations or failed path extraction."""


class CutOffError(FieldError):
    """The raster closes the goal cell or cuts the path's start off from it."""


def rasterize_world(world: WorldGeometry, cell_size: float, inflate: float, goal) -> GridField:
    """Build the obstacle/free/goal grid for a world.

    A cell is an obstacle when its center lies within `inflate` of any wall
    segment or inside/within `inflate` of any box; the domain boundary ring is
    always obstacle. Raises CutOffError if the goal lands in an obstacle cell.
    """
    if cell_size <= 0.0:
        raise ValueError("cell_size must be > 0")
    xmin, ymin, xmax, ymax = world.bounds
    w = max(3, int(math.ceil((xmax - xmin) / cell_size)))
    h = max(3, int(math.ceil((ymax - ymin) / cell_size)))
    xs = xmin + (np.arange(w) + 0.5) * cell_size
    ys = ymin + (np.arange(h) + 0.5) * cell_size
    # (H, W, 2) with each coordinate plane contiguous, which keeps the
    # per-obstacle kernels on fast unit-stride loops.
    centers = np.moveaxis(np.array(np.meshgrid(xs, ys)), 0, -1)

    obstacle = min_clearance_point(world, centers) <= inflate
    obstacle[0, :] = obstacle[-1, :] = True
    obstacle[:, 0] = obstacle[:, -1] = True

    kind = np.where(obstacle, OBSTACLE, FREE).astype(np.uint8)
    field = GridField(
        origin=(xmin, ymin), cell_size=cell_size, kind=kind,
        log_values=np.full((h, w), LOG_OBSTACLE), goal_cell=(-1, -1),
    )
    grow, gcol = field.cell_of(goal)
    if not (0 <= grow < h and 0 <= gcol < w):
        raise CutOffError("goal outside the rasterized domain")
    if kind[grow, gcol] == OBSTACLE:
        raise CutOffError("goal inside an obstacle cell")
    kind[grow, gcol] = GOAL
    field.goal_cell = (grow, gcol)
    field.log_values[grow, gcol] = 0.0
    return field


def cells_connected(field: GridField, start_cell: tuple[int, int]) -> bool:
    """True if the goal cell is 4-connected to start_cell through free cells."""
    h, w = field.shape
    row, col = start_cell
    if not (0 <= row < h and 0 <= col < w) or field.kind[row, col] == OBSTACLE:
        return False
    return bool(connected_component(field.kind != OBSTACLE, (row, col))[field.goal_cell])


def _run_ids(mask):
    """Label of each run of True cells along the rows of mask, 0 off the mask."""
    starts = mask.copy()
    starts[:, 1:] &= ~mask[:, :-1]
    return np.cumsum(starts.ravel()).reshape(mask.shape) * mask


def connected_component(open_mask, cell) -> np.ndarray:
    """Mask of the cells 4-connected to cell through open_mask (cell included).

    Fills whole row and column runs at a time, alternating, until nothing is
    added: one pass per turn of the longest shortest path, not per cell.
    """
    row_ids = _run_ids(open_mask)
    col_ids = _run_ids(open_mask.T).T
    reached = np.zeros_like(open_mask)
    reached[cell] = True
    total = 1
    while True:
        for ids in (row_ids, col_ids):
            hit = np.zeros(int(ids.max()) + 1, dtype=bool)
            hit[ids[reached]] = True
            hit[0] = False
            reached = hit[ids]
        reached[cell] = True
        new_total = int(np.count_nonzero(reached))
        if new_total == total:
            return reached
        total = new_total


def _line_solve(free, rhs):
    """Solve the 5-point system in w exactly, grid line by grid line.

    Row i of the (n, m) arrays is grid line i. A free cell's equation is
    4 w - (sum of its free neighbours' w) = rhs; every other cell's is
    w = rhs. The matrix is block tridiagonal: line i's diagonal block T_i
    holds the in-line terms, and the blocks between lines i and i + 1 are
    -1 on their open faces, where both cells are free. Block LU (Golub &
    Van Loan, Matrix Computations, block tridiagonal systems): the forward
    sweep forms the Schur complement S_i = T_i - X_{i-1} on the open faces
    to line i - 1, keeps X_i = inv(S_i) and carries g_i = X_i (rhs_i + g_{i-1}
    on those faces); the back sweep adds X_i times w_{i+1} on the faces to
    line i + 1. The matrix is an M-matrix, so every X_i is nonnegative and,
    apart from the diagonals of the S_i, every step adds terms of one sign:
    w keeps its full relative precision where it is near 1e-300.
    """
    n, m = free.shape
    diagonal = np.where(free, 4.0, 1.0)
    down = free[:-1] & free[1:]  # open faces between lines i and i + 1
    inverses = []  # per-line arrays: one (n, m, m) block raised a run's peak RSS by ~4 MB
    w = np.empty((n, m))
    for i in range(n):
        s = np.diag(diagonal[i])
        k = np.flatnonzero(free[i, :-1] & free[i, 1:])
        s[k, k + 1] = s[k + 1, k] = -1.0
        g = rhs[i].copy()
        if i:
            o = np.flatnonzero(down[i - 1])
            faces = np.ix_(o, o)
            s[faces] -= inverses[i - 1][faces]
            g[o] += w[i - 1, o]
        inverses.append(np.linalg.inv(s))
        w[i] = inverses[i] @ g
    for i in range(n - 2, -1, -1):
        o = np.flatnonzero(down[i])
        w[i] += inverses[i][:, o] @ w[i + 1, o]
    return w


def solve_harmonic(field: GridField) -> GridField:
    """Solve Laplace's equation over the free cells (obstacle=1, goal=0).

    Solves the linear system in w = 1 - u exactly by block elimination over
    the grid lines along the raster's shorter side (see _line_solve) and
    stores v = min(-ln w, LOG_OBSTACLE) in .log_values. Walls and free cells
    cut off from the goal come out at w = 0 exactly, so they get u = 1.
    """
    gr, gc = field.goal_cell
    rows, cols = field.shape
    # The goal's w = 1 moves to the right-hand side of its free neighbours.
    rhs = np.zeros((rows, cols))
    for nr, nc in ((gr - 1, gc), (gr + 1, gc), (gr, gc - 1), (gr, gc + 1)):
        if 0 <= nr < rows and 0 <= nc < cols and field.kind[nr, nc] == FREE:
            rhs[nr, nc] = 1.0
    if not rhs.any():
        raise FieldError("no free cell adjacent to the goal cell")
    rhs[gr, gc] = 1.0
    free = field.kind == FREE
    if free[0, :].any() or free[-1, :].any() or free[:, 0].any() or free[:, -1].any():
        raise FieldError("free cells on the grid border; expected an obstacle ring")

    free, rhs = free[1:-1, 1:-1], rhs[1:-1, 1:-1]  # the ring's w is 0
    if rows < cols:
        w = _line_solve(free.T, rhs.T).T
    else:
        w = _line_solve(free, rhs)
    v = np.full((rows, cols), LOG_OBSTACLE)
    with np.errstate(divide="ignore"):  # log(0) on walls and cut-off cells
        v[1:-1, 1:-1] = np.minimum(-np.log(w), LOG_OBSTACLE)
    v[gr, gc] = 0.0
    field.log_values = v
    return field


def _bilinear_with_gradient(field: GridField, p, v: np.ndarray):
    h, w = field.shape
    gx = (p[0] - field.origin[0]) / field.cell_size - 0.5
    gy = (p[1] - field.origin[1]) / field.cell_size - 0.5
    gx = min(max(gx, 0.0), w - 1.000001)
    gy = min(max(gy, 0.0), h - 1.000001)
    ix, iy = int(gx), int(gy)
    fx, fy = gx - ix, gy - iy
    v00, v10 = v.item(iy, ix), v.item(iy, ix + 1)
    v01, v11 = v.item(iy + 1, ix), v.item(iy + 1, ix + 1)
    value = v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) + v01 * (1 - fx) * fy + v11 * fx * fy
    dx = ((v10 - v00) * (1 - fy) + (v11 - v01) * fy) / field.cell_size
    dy = ((v01 - v00) * (1 - fx) + (v11 - v10) * fx) / field.cell_size
    return value, dx, dy


@dataclass
class PathPolyline:
    """Ordered reference path with cumulative arc length per vertex.

    Everything but the points is derived from them, the lengths from the
    per-segment data project_on_path reads every step.
    """

    points: np.ndarray  # (P, 2)
    # Arc length at each vertex (P,), cumlen[0] == 0, and of the whole path.
    cumlen: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    total_length: float = dataclasses.field(init=False, repr=False, compare=False)
    # Per segment: start and end - start as (2, P - 1) planes [x, y],
    # squared length (1 where it is 0, as a divisor) and length.
    seg_start: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    seg_vec: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    seg_div: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    seg_len: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.seg_start = np.ascontiguousarray(self.points[:-1].T)
        self.seg_vec = np.ascontiguousarray(self.points[1:].T) - self.seg_start
        square = self.seg_vec * self.seg_vec
        den = square[0] + square[1]
        self.seg_div = np.where(den > 0.0, den, 1.0)
        self.seg_len = np.sqrt(den)
        self.cumlen = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.total_length = float(self.cumlen[-1])

    @classmethod
    def from_points(cls, points) -> "PathPolyline":
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        rows = pts.tolist()
        keep = [0]
        for i in range(1, len(rows)):
            if math.dist(rows[i], rows[keep[-1]]) > 1e-12:
                keep.append(i)
        pts = pts[keep]
        if len(pts) < 2:
            raise ValueError("a path needs at least two distinct points")
        return cls(points=pts)


def extract_path(field: GridField, start, goal) -> PathPolyline:
    """Steepest-descent streamline from start to the goal cell.

    Steps of half a cell down the bilinear potential until the goal cell is
    entered; the exact goal point is appended as the final vertex. Descent
    runs on the log potential, whose streamlines match the raw potential's
    but whose gradients stay resolvable far from the goal.
    Raises FieldError on a stalled gradient or an over-long path.
    """
    row, col = field.cell_of(start)
    h, w = field.shape
    if not (0 <= row < h and 0 <= col < w) or field.kind[row, col] == OBSTACLE:
        raise FieldError("path start is not in a free cell")
    step = field.cell_size / 2.0
    span_x = w * field.cell_size
    span_y = h * field.cell_size
    max_steps = int(4.0 * 2.0 * (span_x + span_y) / step)
    x, y = float(start[0]), float(start[1])
    points = [(x, y)]
    for _ in range(max_steps):
        if field.cell_of((x, y)) == field.goal_cell:
            points.append((float(goal[0]), float(goal[1])))
            return PathPolyline.from_points(points)
        _, dx, dy = _bilinear_with_gradient(field, (x, y), field.log_values)
        norm = math.hypot(dx, dy)
        if norm < 1e-12:
            raise FieldError("descent stalled on a flat potential")
        x, y = x - step / norm * dx, y - step / norm * dy
        points.append((x, y))
    raise FieldError("path length cap exceeded before reaching the goal cell")


@dataclass
class PathMetricsState:
    """Per-episode memory for deviation/progress differencing."""

    prev_deviation: float
    prev_progress: float


def project_on_path(path: PathPolyline, p) -> tuple[float, float]:
    """(deviation, arc length) of the nearest point on the polyline.

    Exact distance ties are broken toward the larger arc length. A
    zero-length segment has a zero direction, so its t is 0 without a branch.
    """
    p = np.asarray(p, dtype=float).reshape(2, 1)
    a, d = path.seg_start, path.seg_vec
    r = p - a
    r *= d
    t = r[0] + r[1]  # (px - ax) * dx + (py - ay) * dy
    t /= path.seg_div
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)
    e = np.multiply(t, d, out=r)
    e += a
    e -= p  # projection - p
    e *= e
    dist2 = e[0] + e[1]
    best = float(dist2.min())
    arcs = t * path.seg_len
    arcs += path.cumlen[:-1]
    return math.sqrt(best), float(arcs[dist2 <= best].max())


def init_path_metrics(path: PathPolyline, start_pos) -> PathMetricsState:
    dev, prog = project_on_path(path, start_pos)
    return PathMetricsState(prev_deviation=dev, prev_progress=prog)


def path_metrics(
    path: PathPolyline,
    state: PathMetricsState,
    ee_pos,
) -> tuple[float, float, PathMetricsState]:
    """Per-step deviation and progress differences for the reward."""
    dev, prog = project_on_path(path, ee_pos)
    d_dev = dev - state.prev_deviation
    d_prog = prog - state.prev_progress
    return d_dev, d_prog, PathMetricsState(dev, prog)


def field_to_pgm(field: GridField) -> bytes:
    """Render the potential as a binary PGM (dark = low potential)."""
    h, w = field.shape
    img = np.clip(field.values, 0.0, 1.0)
    gray = np.round(img * 255.0).astype(np.uint8)
    # Flip so +y points up in the image.
    gray = gray[::-1, :]
    header = f"P5\n{w} {h}\n255\n".encode()
    return header + gray.tobytes()
