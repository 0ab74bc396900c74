"""Harmonic potential field over a rasterized world and path metrics.

The world is rasterized onto a square grid (obstacle cells fixed at 1, the
goal cell fixed at 0), Laplace's equation is solved over the free cells by
full-approximation-scheme multigrid, and the reference path is the
steepest-descent streamline of the converged potential. Per-step
deviation/progress differences against that path feed the shaped reward.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import point_box_distance, point_segment_distance
from .world import WorldGeometry

FREE, OBSTACLE, GOAL = 0, 1, 2

# Potentials are solved in the log domain v = -ln(1 - u). Far from the goal
# 1 - u decays exponentially and underflows double precision, which leaves
# the raw potential flat at 1.0 with noise-level gradients; v keeps O(1)
# slopes everywhere and has the same steepest-descent streamlines. Obstacle
# cells carry this sentinel (exp(-750) underflows to 0, so u is exactly 1).
LOG_OBSTACLE = 750.0


@dataclass
class GridField:
    """Discretized potential: log_values[row, col] with row ~ y, col ~ x."""

    origin: tuple[float, float]
    cell_size: float
    kind: np.ndarray  # uint8 (H, W)
    log_values: np.ndarray  # float (H, W), v = -ln(1 - u)
    goal_cell: tuple[int, int]  # (row, col)
    effort: SolverEffort | None = None  # set by solve_harmonic

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
    """Raised for unsolvable rasterizations or failed relaxation/extraction."""


def rasterize_world(world: WorldGeometry, cell_size: float, inflate: float, goal) -> GridField:
    """Build the obstacle/free/goal grid for a world.

    A cell is an obstacle when its center lies within `inflate` of any wall
    segment or inside/within `inflate` of any box; the domain boundary ring is
    always obstacle. Raises FieldError if the goal lands in an obstacle cell.
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

    obstacle = np.zeros((h, w), dtype=bool)
    obstacle[0, :] = obstacle[-1, :] = True
    obstacle[:, 0] = obstacle[:, -1] = True
    for seg in world.segments:
        obstacle |= point_segment_distance(centers, seg) <= inflate
    for box in world.boxes:
        obstacle |= point_box_distance(centers, box) <= inflate

    kind = np.where(obstacle, OBSTACLE, FREE).astype(np.uint8)
    field = GridField(
        origin=(xmin, ymin), cell_size=cell_size, kind=kind,
        log_values=np.full((h, w), LOG_OBSTACLE), goal_cell=(-1, -1),
    )
    grow, gcol = field.cell_of(goal)
    if not (0 <= grow < h and 0 <= gcol < w):
        raise FieldError("goal outside the rasterized domain")
    if kind[grow, gcol] == OBSTACLE:
        raise FieldError("goal inside an obstacle cell")
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


# Harmonic solve: full approximation scheme (FAS) multigrid (Brandt 1977).
#
# Level k + 1 groups the interior of level k into 2x2 blocks; the obstacle
# ring maps onto the coarse ring, so every level keeps one. A coarse cell is
# open when any child is, its value is the mean of its open children, and
# the block holding the goal is fixed. Faces carry the connectivity: a coarse
# face is open when a fine face crossing it is, so walls thinner than a
# coarse cell stay closed instead of merging the regions on either side.

# Coarsening stops before an interior dimension would drop below this; on
# smaller grids the coarse problem no longer resembles the fine one.
MIN_COARSE_CELLS = 4
# Red-black sweeps before and after each coarse-grid correction, and on the
# coarsest grid in place of a correction.
SWEEPS = 2
COARSEST_SWEEPS = 12
# Earlier cycles mixed into each new iterate (Anderson acceleration).
ANDERSON_DEPTH = 3
# Cycles in a row that leave the best fine-level score unbeaten before the
# solve falls back to plain smoothing. Anderson mixing makes the score
# non-monotone, so a couple of such cycles are normal.
STALL_CYCLES = 5
# Sweeps between convergence tests while smoothing alone.
CHECK_EVERY = 4
# Exponent clamp for neighbour weights: keeps exp() out of the (slow)
# subnormal range. Obstacle neighbours carry no weight at all (closed faces).
EXP_CLAMP = 50.0


@dataclass
class SolverEffort:
    """Work done by one solve_harmonic call; diagnostics, never serialized."""

    levels: int  # grids in the hierarchy, the full-resolution one included
    cycles: int  # V-cycles run on the full-resolution grid
    sweeps: int  # red-black smoothing sweeps on the full-resolution grid
    smoothing_finish: bool  # cycles stalled and plain sweeps finished the solve


@dataclass
class _Level:
    open: np.ndarray  # (H, W) free cells plus the goal cell or block
    free: np.ndarray  # (H, W) the cells the smoother updates
    faces: np.ndarray  # (4, H-2, W-2) bool: open N, S, W, E faces of interior cells
    stencil: np.ndarray  # (4, H-2, W-2) bool: open faces of free interior cells
    fixed_inner: np.ndarray  # (H-2, W-2) 1.0 on fixed interior cells, else 0
    colors: tuple  # red then black: per color, the parity subgrids' slices
    children: np.ndarray | None = None  # (H-2, W-2) open children per cell
    prolong: tuple | None = None  # (rows, cols, weights) onto the finer level


def _neighbours(a):
    """N, S, W, E neighbours of the interior cells of a."""
    return a[:-2, 1:-1], a[2:, 1:-1], a[1:-1, :-2], a[1:-1, 2:]


def _parity_slices(h, w):
    """Per color, per parity subgrid: (centre, N, S, W, E, interior) slices.

    Red cells have even row + col; a color's cells depend only on the other
    color, so sweeping a color subgrid by subgrid is exact Gauss-Seidel.
    """
    colors = []
    for pairs in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
        subgrids = []
        for pr, pc in pairs:
            nr = len(range(1 + pr, h - 1, 2))
            nc = len(range(1 + pc, w - 1, 2))
            if nr == 0 or nc == 0:
                continue
            rows = slice(1 + pr, 1 + pr + 2 * nr, 2)
            cols = slice(1 + pc, 1 + pc + 2 * nc, 2)
            up, down = slice(pr, pr + 2 * nr, 2), slice(2 + pr, 2 + pr + 2 * nr, 2)
            left, right = slice(pc, pc + 2 * nc, 2), slice(2 + pc, 2 + pc + 2 * nc, 2)
            subgrids.append(((rows, cols), (up, cols), (down, cols), (rows, left),
                             (rows, right), (slice(pr, None, 2), slice(pc, None, 2))))
        colors.append(tuple(subgrids))
    return tuple(colors)


def _make_level(open_, goal, faces) -> _Level:
    free = open_.copy()
    free[goal] = False
    h, w = open_.shape
    inner_free = free[1:-1, 1:-1]
    return _Level(open=open_, free=free, faces=faces,
                  stencil=faces & inner_free,
                  fixed_inner=(~inner_free).astype(float),
                  colors=_parity_slices(h, w))


def _blocks(inner):
    """An interior array as 2x2 child blocks, zero-padded to even size."""
    n, m = inner.shape
    padded = np.zeros((n + n % 2, m + m % 2), dtype=inner.dtype)
    padded[:n, :m] = inner
    return padded.reshape(padded.shape[0] // 2, 2, padded.shape[1] // 2, 2)


def _coarse_faces(faces):
    """Open faces of the coarse interior: any fine face crossing one is open."""
    _, south, _, east = faces
    south_c = _blocks(south)[:, 1, :, :].any(axis=2)
    east_c = _blocks(east)[:, :, :, 1].any(axis=1)
    north_c = np.zeros_like(south_c)
    north_c[1:] = south_c[:-1]
    west_c = np.zeros_like(east_c)
    west_c[:, 1:] = east_c[:, :-1]
    return np.stack([north_c, south_c, west_c, east_c])


def _prolongation(fine_shape, coarse_faces):
    """Bilinear cell-centred interpolation weights that never cross a closed face.

    Each fine cell blends its parent (9/16), the parent's neighbours on its
    side across rows and columns (3/16 each) and the diagonal one (1/16);
    a neighbour counts only when an open face path from the parent reaches
    it, and the kept weights are renormalized.
    """
    n, m = fine_shape[0] - 2, fine_shape[1] - 2
    i, j = np.arange(n), np.arange(m)
    up_side, left_side = (i % 2 == 0)[:, None], (j % 2 == 0)[None, :]
    rows = i // 2 + 1
    rows_nb = rows + np.where(i % 2 == 0, -1, 1)
    cols = j // 2 + 1
    cols_nb = cols + np.where(j % 2 == 0, -1, 1)
    north, south, west, east = (np.pad(f, 1) for f in coarse_faces)

    def lookup(a, r, c):
        return a[np.ix_(r, c)]

    vert = np.where(up_side, lookup(north, rows, cols), lookup(south, rows, cols))
    horz = np.where(left_side, lookup(west, rows, cols), lookup(east, rows, cols))
    horz_nb = np.where(left_side, lookup(west, rows_nb, cols), lookup(east, rows_nb, cols))
    vert_nb = np.where(up_side, lookup(north, rows, cols_nb), lookup(south, rows, cols_nb))
    weights = np.stack([np.full((n, m), 9.0), 3.0 * vert, 3.0 * horz,
                        1.0 * ((vert & horz_nb) | (horz & vert_nb))])
    weights /= weights.sum(axis=0)
    return ((rows, rows_nb, rows, rows_nb), (cols, cols, cols_nb, cols_nb)), weights


def _hierarchy(kind, goal) -> list[_Level]:
    """Levels from the full grid down; only the goal's component takes part.

    Fine cells cut off from the goal keep LOG_OBSTACLE (u = 1, their exact
    value). Every coarse cell with an open child is reached from the goal
    block through open faces, so coarse levels need no connectivity pass.
    """
    open_ = connected_component(kind != OBSTACLE, goal)
    inner = open_[1:-1, 1:-1]
    faces = np.stack([inner & nb for nb in _neighbours(open_)])
    levels = [_make_level(open_, goal, faces)]
    while True:
        fine = levels[-1]
        h, w = fine.open.shape
        gr, gc = goal
        nc, mc = (h - 1) // 2, (w - 1) // 2
        if min(nc, mc) < MIN_COARSE_CELLS or not (0 < gr < h - 1 and 0 < gc < w - 1):
            return levels
        children = _blocks(fine.open[1:-1, 1:-1].astype(float)).sum(axis=(1, 3))
        open_ = np.zeros((nc + 2, mc + 2), dtype=bool)
        open_[1:-1, 1:-1] = children > 0
        goal = ((gr - 1) // 2 + 1, (gc - 1) // 2 + 1)
        faces = _coarse_faces(fine.faces)
        coarse = _make_level(open_, goal, faces)
        if not coarse.free.any():
            return levels
        coarse.children = children
        coarse.prolong = _prolongation((h, w), faces)
        levels.append(coarse)


def _prolong(coarse, values):
    """Interpolate coarse values (full array) onto the finer level's interior."""
    (rows, cols), weights = coarse.prolong
    out = weights[0] * values[np.ix_(rows[0], cols[0])]
    for k in range(1, 4):
        out += weights[k] * values[np.ix_(rows[k], cols[k])]
    return out


def _restrict(fine, coarse, inner):
    """Mean of an interior array over each coarse cell's open children."""
    sums = _blocks(np.where(fine.open[1:-1, 1:-1], inner, 0.0)).sum(axis=(1, 3))
    return sums / np.maximum(coarse.children, 1.0)


def _weights(lv, v, f):
    """a[d] = w_d / (4 exp(f) w) over the open faces d of free cells, w = exp(-v).

    The update v = softmin(neighbours) + f reads w = sum_d a[d] * w_d / w, so
    with the weights frozen at the values v0 the unknown q = w / w0 obeys the
    linear Gauss-Seidel step q = sum_d a[d] q_d: no exp or log per sweep.
    """
    centre = v[1:-1, 1:-1] - (f + math.log(4.0))
    a = np.empty((4,) + centre.shape)
    for k, nb in enumerate(_neighbours(v)):
        np.subtract(centre, nb, out=a[k])
    np.clip(a, -EXP_CLAMP, EXP_CLAMP, out=a)
    np.exp(a, out=a)
    a *= lv.stencil
    return a


def _defect(lv, v, f):
    """softmin(neighbours) + f - v on free interior cells, 0 on fixed ones."""
    return -np.log(_weights(lv, v, f).sum(axis=0) + lv.fixed_inner)


def _smooth(lv, v, f, sweeps):
    """Red-black Gauss-Seidel sweeps of v = softmin(neighbours) + f, in place.

    In w = exp(-v) this is Gauss-Seidel on a linear system (w = exp(-f) times
    the neighbour mean), which converges from any starting values. Values
    are kept in the physical range w <= 1 (v >= 0): on coarse levels the
    tau term of an early cycle can otherwise drive w up without limit.
    """
    a = _weights(lv, v, f)
    q = np.ones_like(v)
    cap = np.minimum(v, 700.0)
    np.exp(cap, out=cap)  # q = w / w0 <= 1 / w0
    for _ in range(sweeps):
        for color in lv.colors:
            for centre, north, south, west, east, inner in color:
                t = a[0][inner] * q[north]
                t += a[1][inner] * q[south]
                t += a[2][inner] * q[west]
                t += a[3][inner] * q[east]
                t += lv.fixed_inner[inner]
                np.minimum(t, cap[centre], out=t)
                q[centre] = t
    v -= np.log(q)


def _fine_score(lv, v):
    """Convergence score on the full-resolution grid: max(rel, u_res).

    Both the relative stencil update of v and the update of u = 1 - exp(-v)
    must fall below tol. Exactly |u_new - u| = exp(-v) * |expm1(-(v_new - v))|;
    the clamps (avoiding subnormals) only overestimate far-cell terms, which
    sit many orders below tol either way.
    """
    delta = _defect(lv, v, 0.0)
    centre = v[1:-1, 1:-1]
    free = lv.free[1:-1, 1:-1]
    rel = float(np.max(np.abs(delta) / (1.0 + np.abs(centre)), initial=0.0, where=free))
    w_cur = np.exp(np.maximum(-centre, -50.0))
    u_res = float(np.max(np.abs(np.expm1(-np.clip(delta, -50.0, 50.0))) * w_cur,
                         initial=0.0, where=free))
    return max(rel, u_res)


def _vcycle(levels, k, v, f):
    """One FAS V-cycle on level k for softmin(v) + f - v = 0 on its free cells."""
    lv = levels[k]
    if k + 1 == len(levels):
        _smooth(lv, v, f, COARSEST_SWEEPS)
        return
    _smooth(lv, v, f, SWEEPS)
    coarse = levels[k + 1]
    vc = np.where(coarse.open, 0.0, LOG_OBSTACLE)
    vc[1:-1, 1:-1] += _restrict(lv, coarse, v[1:-1, 1:-1])
    # The coarse operator is 4x the fine one on the same field (h^2 scaling).
    fc = 4.0 * _restrict(lv, coarse, _defect(lv, v, f)) - _defect(coarse, vc, 0.0)
    start = vc.copy()
    _vcycle(levels, k + 1, vc, fc)
    inner = v[1:-1, 1:-1]
    inner += np.where(lv.free[1:-1, 1:-1], _prolong(coarse, vc - start), 0.0)
    np.clip(v, 0.0, LOG_OBSTACLE, out=v)
    _smooth(lv, v, f, SWEEPS)


def _initial_values(levels):
    """Full multigrid start: solve the coarsest grid, then prolong the solution
    up one level at a time, improving it with one V-cycle on each level below
    the full-resolution one."""
    v = np.where(levels[-1].open, 0.0, LOG_OBSTACLE)
    _smooth(levels[-1], v, 0.0, COARSEST_SWEEPS)
    for k in range(len(levels) - 1, 0, -1):
        finer = levels[k - 1]
        up = np.where(finer.open, 0.0, LOG_OBSTACLE)
        up[1:-1, 1:-1] += np.where(finer.free[1:-1, 1:-1], _prolong(levels[k], v), 0.0)
        v = up
        if k > 1:
            _vcycle(levels, k - 1, v, 0.0)
    return v


def _anderson_mix(history):
    """Anderson (type II) mixing of the last (x -> g) cycle steps.

    history holds (g - x, g) pairs over the free cells, oldest first. Modes
    that the coarse grids misjudge (a region behind a narrow passage shifting
    as a whole) shrink slowly under plain cycles; a least-squares blend of
    the recent steps removes them. The least-squares problem over the step
    differences is solved by modified Gram-Schmidt in plain array arithmetic:
    BLAS and LAPACK would cost the process more memory than the solve.
    """
    f_last, g_last = history[-1]
    basis = []  # orthonormal f-differences, each with its matching g-combination
    for (f0, g0), (f1, g1) in zip(history, history[1:]):
        df, dg = f1 - f0, g1 - g0
        size = math.sqrt(float(np.sum(df * df)))
        for q, h in basis:
            c = float(np.sum(q * df))
            df -= c * q
            dg -= c * h
        norm = math.sqrt(float(np.sum(df * df)))
        if norm > 1e-10 * size:  # skip a step that repeats earlier ones
            basis.append((df / norm, dg / norm))
    out = g_last.copy()
    for q, h in basis:
        out -= float(np.sum(q * f_last)) * h
    return out


def solve_harmonic(field: GridField, tol: float = 1e-10, max_iters: int = 200_000) -> GridField:
    """Solve Laplace's equation over the free cells (obstacle=1, goal=0).

    Iterates in the log domain (see LOG_OBSTACLE): full multigrid start, then
    FAS V-cycles with Anderson mixing until both the relative stencil update
    of v and the update of u fall below tol on the full-resolution grid. If
    cycles stop lowering that score, plain red-black sweeps finish the solve;
    max_iters caps the full-resolution sweeps. Stores the log potential in
    .log_values and the work in .effort. Free cells cut off from the goal
    get u = 1.
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
    if free[0, :].any() or free[-1, :].any() or free[:, 0].any() or free[:, -1].any():
        raise FieldError("free cells on the grid border; expected an obstacle ring")

    levels = _hierarchy(field.kind, field.goal_cell)
    fine = levels[0]
    v = _initial_values(levels) if len(levels) > 1 else np.where(fine.open, 0.0, LOG_OBSTACLE)
    effort = SolverEffort(levels=len(levels), cycles=0, sweeps=0, smoothing_finish=False)
    best, stalls = math.inf, 0
    history = []
    while True:
        score = _fine_score(fine, v)
        if score < tol:
            break
        if score < best:
            best, stalls = score, 0
        else:
            stalls += 1
        effort.smoothing_finish |= len(levels) == 1 or stalls >= STALL_CYCLES
        if effort.sweeps >= max_iters:
            raise FieldError(f"harmonic solve did not converge below {tol} in "
                             f"{max_iters} sweeps")
        if effort.smoothing_finish:
            _smooth(fine, v, 0.0, CHECK_EVERY)
            effort.sweeps += CHECK_EVERY
            continue
        x = v[fine.free]
        _vcycle(levels, 0, v, 0.0)
        effort.cycles += 1
        effort.sweeps += 2 * SWEEPS
        g = v[fine.free]
        history = history[-ANDERSON_DEPTH:] + [(g - x, g)]
        if len(history) > 1:
            v[fine.free] = np.clip(_anderson_mix(history), 0.0, LOG_OBSTACLE)
    field.log_values = v
    field.effort = effort
    return field


def _bilinear_with_gradient(field: GridField, p, arr=None):
    h, w = field.shape
    gx = (p[0] - field.origin[0]) / field.cell_size - 0.5
    gy = (p[1] - field.origin[1]) / field.cell_size - 0.5
    gx = min(max(gx, 0.0), w - 1.000001)
    gy = min(max(gy, 0.0), h - 1.000001)
    ix, iy = int(gx), int(gy)
    fx, fy = gx - ix, gy - iy
    v = field.values if arr is None else arr
    v00, v10 = v[iy, ix], v[iy, ix + 1]
    v01, v11 = v[iy + 1, ix], v[iy + 1, ix + 1]
    value = v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy) + v01 * (1 - fx) * fy + v11 * fx * fy
    dx = ((v10 - v00) * (1 - fy) + (v11 - v01) * fy) / field.cell_size
    dy = ((v01 - v00) * (1 - fx) + (v11 - v10) * fx) / field.cell_size
    return value, dx, dy


@dataclass
class PathPolyline:
    """Ordered reference path with cumulative arc length per vertex."""

    points: np.ndarray  # (P, 2)
    cumlen: np.ndarray  # (P,), cumlen[0] == 0
    total_length: float

    @classmethod
    def from_points(cls, points) -> "PathPolyline":
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        keep = [0]
        for i in range(1, len(pts)):
            if np.linalg.norm(pts[i] - pts[keep[-1]]) > 1e-12:
                keep.append(i)
        pts = pts[keep]
        if len(pts) < 2:
            raise ValueError("a path needs at least two distinct points")
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        return cls(points=pts, cumlen=cum, total_length=float(cum[-1]))


def extract_path(field: GridField, start, goal=None) -> PathPolyline:
    """Steepest-descent streamline from start to the goal cell.

    Steps of half a cell down the bilinear potential until the goal cell is
    entered; the exact goal point (when given) is appended as the final
    vertex. Descent runs on the log potential, whose streamlines match the
    raw potential's but whose gradients stay resolvable far from the goal.
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
    p = np.array([float(start[0]), float(start[1])])
    points = [p.copy()]
    for _ in range(max_steps):
        if field.cell_of(p) == field.goal_cell:
            if goal is not None:
                points.append(np.array([float(goal[0]), float(goal[1])]))
            return PathPolyline.from_points(points)
        _, dx, dy = _bilinear_with_gradient(field, p, field.log_values)
        norm = math.hypot(dx, dy)
        if norm < 1e-12:
            raise FieldError("descent stalled; re-solve the field at a tighter tolerance")
        p = p - (step / norm) * np.array([dx, dy])
        points.append(p.copy())
    raise FieldError("path length cap exceeded before reaching the goal cell")


@dataclass
class PathMetricsState:
    """Per-episode memory for deviation/progress differencing."""

    prev_deviation: float
    prev_progress: float
    max_progress: float


def project_on_path(path: PathPolyline, p) -> tuple[float, float]:
    """(deviation, arc length) of the nearest point on the polyline.

    Exact distance ties are broken toward the larger arc length.
    """
    a = path.points[:-1]
    b = path.points[1:]
    d = b - a
    den = np.einsum("ij,ij->i", d, d)
    pv = np.asarray(p, dtype=float) - a
    t = np.where(den > 0.0, np.einsum("ij,ij->i", pv, d) / np.where(den > 0, den, 1.0), 0.0)
    t = np.clip(t, 0.0, 1.0)
    proj = a + t[:, None] * d
    dist2 = np.einsum("ij,ij->i", proj - p, proj - p)
    best = float(dist2.min())
    arcs = path.cumlen[:-1] + t * np.sqrt(den)
    candidates = arcs[dist2 <= best]
    return math.sqrt(best), float(candidates.max())


def init_path_metrics(path: PathPolyline, start_pos) -> PathMetricsState:
    dev, prog = project_on_path(path, start_pos)
    return PathMetricsState(prev_deviation=dev, prev_progress=prog, max_progress=prog)


def path_metrics(
    path: PathPolyline,
    state: PathMetricsState,
    ee_pos,
    ratchet: bool = False,
) -> tuple[float, float, PathMetricsState]:
    """Per-step deviation and progress differences for the reward.

    With ratchet=True progress is clipped to its running maximum, so backward
    motion yields a zero difference until the maximum is reattained.
    """
    dev, prog = project_on_path(path, ee_pos)
    max_prog = max(state.max_progress, prog)
    if ratchet:
        prog = max_prog
    d_dev = dev - state.prev_deviation
    d_prog = prog - state.prev_progress
    return d_dev, d_prog, PathMetricsState(dev, prog, max_prog)


def field_to_pgm(field: GridField) -> bytes:
    """Render the potential as a binary PGM (dark = low potential)."""
    h, w = field.shape
    img = np.clip(field.values, 0.0, 1.0)
    gray = np.round(img * 255.0).astype(np.uint8)
    # Flip so +y points up in the image.
    gray = gray[::-1, :]
    header = f"P5\n{w} {h}\n255\n".encode()
    return header + gray.tobytes()
