"""Harmonic potential field over a rasterized world and path metrics.

The world is rasterized onto a square grid. Laplace's equation over the free
cells is solved exactly, by block elimination along the grid lines, for
w = 1 - u: 1 at the goal cell, 0 on obstacle cells. The reference path is the
steepest-ascent streamline of w. The solve and the ascent use only LAPACK
and elementwise arithmetic, no transcendental function. Per-step
deviation/progress differences against that path feed the shaped reward.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .world import WorldGeometry, min_clearance_point

FREE, OBSTACLE, GOAL = 0, 1, 2


@dataclass
class GridField:
    """Discretized potential: w[row, col] with row ~ y, col ~ x."""

    origin: tuple[float, float]
    cell_size: float
    kind: np.ndarray  # uint8 (H, W)
    # float (H, W), w = 1 - u in [0, 1]: 1 at the goal cell, 0 on obstacle
    # cells and on free cells cut off from the goal.
    w: np.ndarray
    goal_cell: tuple[int, int]  # (row, col)

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
    cols = max(3, int(math.ceil((xmax - xmin) / cell_size)))
    rows = max(3, int(math.ceil((ymax - ymin) / cell_size)))
    xs = xmin + (np.arange(cols) + 0.5) * cell_size
    ys = ymin + (np.arange(rows) + 0.5) * cell_size
    # (H, W, 2) with each coordinate plane contiguous, which keeps the
    # per-obstacle kernels on fast unit-stride loops.
    centers = np.moveaxis(np.array(np.meshgrid(xs, ys)), 0, -1)

    obstacle = min_clearance_point(world, centers) <= inflate
    obstacle[0, :] = obstacle[-1, :] = True
    obstacle[:, 0] = obstacle[:, -1] = True

    kind = np.where(obstacle, OBSTACLE, FREE).astype(np.uint8)
    field = GridField(
        origin=(xmin, ymin), cell_size=cell_size, kind=kind,
        w=np.zeros((rows, cols)), goal_cell=(-1, -1),
    )
    grow, gcol = field.cell_of(goal)
    if not (0 <= grow < rows and 0 <= gcol < cols):
        raise CutOffError("goal outside the rasterized domain")
    if kind[grow, gcol] == OBSTACLE:
        raise CutOffError("goal inside an obstacle cell")
    kind[grow, gcol] = GOAL
    field.goal_cell = (grow, gcol)
    return field


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
    """Solve Laplace's equation over the free cells (obstacle w=0, goal w=1).

    Solves the linear system in w = 1 - u exactly by block elimination over
    the grid lines along the raster's shorter side (see _line_solve) and
    stores w in .w. Walls and free cells cut off from the goal come out at
    w = 0 exactly; a connected cell reads 0 only where w underflows, below
    about 1e-308.
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

    free, rhs = free[1:-1, 1:-1], rhs[1:-1, 1:-1]
    w = np.zeros((rows, cols))  # the ring's w is 0
    if rows < cols:
        w[1:-1, 1:-1] = _line_solve(free.T, rhs.T).T
    else:
        w[1:-1, 1:-1] = _line_solve(free, rhs)
    w[gr, gc] = 1.0
    field.w = w
    return field


def _bilinear_with_gradient(field: GridField, p):
    """Value and (x, y) gradient of the bilinear interpolant of w at p."""
    v = field.w
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
    """Steepest-ascent streamline of w from start to the goal cell.

    Steps of half a cell up the bilinear w until the goal cell is entered;
    the exact goal point is appended as the final vertex. The step direction
    is the gradient over its norm, which stays exact where w is near 1e-300.
    A step that would return to the vertex before turns a quarter turn: the
    ascent straddles a saddle on its line of symmetry there, where the
    streamline itself ends. A step that would land in an obstacle cell (a
    half cell can cross a one-cell pillar or a corner two obstacle cells
    share) is halved until it does not, so no vertex lies in one. Raises
    CutOffError when w is 0 at the start cell (outside the raster, an
    obstacle, cut off from the goal, or so far that w underflows), and
    FieldError on an exactly zero gradient or an over-long path.
    """
    row, col = field.cell_of(start)
    h, w = field.shape
    if not (0 <= row < h and 0 <= col < w) or field.w[row, col] == 0.0:
        raise CutOffError("the start cell is cut off from the goal cell")
    step = field.cell_size / 2.0
    span_x = w * field.cell_size
    span_y = h * field.cell_size
    max_steps = int(4.0 * 2.0 * (span_x + span_y) / step)
    x, y = float(start[0]), float(start[1])
    points = [(x, y)]
    cell = (row, col)
    for _ in range(max_steps):
        if cell == field.goal_cell:
            points.append((float(goal[0]), float(goal[1])))
            return PathPolyline.from_points(points)
        _, dx, dy = _bilinear_with_gradient(field, (x, y))
        norm = math.hypot(dx, dy)
        if norm == 0.0:
            raise FieldError("ascent stalled on a flat potential")
        ux, uy = dx / norm * step, dy / norm * step
        if len(points) > 1 and (x + ux, y + uy) == points[-2]:
            ux, uy = -uy, ux
        cell = field.cell_of((x + ux, y + uy))
        while field.kind.item(cell) == OBSTACLE:
            ux, uy = ux / 2.0, uy / 2.0
            cell = field.cell_of((x + ux, y + uy))
        x, y = x + ux, y + uy
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
    """Render w as a binary PGM (white at the goal, black on walls)."""
    h, w = field.shape
    gray = np.round(field.w * 255.0).astype(np.uint8)
    # Flip so +y points up in the image.
    gray = gray[::-1, :]
    header = f"P5\n{w} {h}\n255\n".encode()
    return header + gray.tobytes()
