"""Harmonic potential field over a rasterized world and path metrics.

The world is rasterized onto a square grid (obstacle cells fixed at 1, the
goal cell fixed at 0), Laplace's equation is solved over the free cells by
full-approximation-scheme multigrid, and the reference path is the
steepest-descent streamline of the converged potential. Per-step
deviation/progress differences against that path feed the shaped reward.
"""
from __future__ import annotations

import dataclasses
import math
import time
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


# Harmonic solve: full approximation scheme (FAS) multigrid (Brandt 1977).
#
# Level k + 1 groups the interior of level k into 2x2 blocks; the obstacle
# ring maps onto the coarse ring, so every level keeps one. A coarse cell is
# open when any child is, its value is the mean of its open children, and
# the block holding the goal is fixed. Faces carry the connectivity: a coarse
# face is open when a fine face crossing it is, so walls thinner than a
# coarse cell stay closed instead of merging the regions on either side.
#
# Each level is stored with an odd row stride Wp = W | 1: a grid of even
# width gets one obstacle column on its east side, the pad column, which
# takes no part in the solve. With an odd stride the parity of the flat index
# r * Wp + c is the parity of r + c, the cell's red-black colour, so a colour
# is one stride-2 slice of the flat grid and the N, S, W and E neighbours of
# a cell are at flat offsets -Wp, +Wp, -1 and +1 (see _weights and _smooth).

# Coarsening stops before an interior dimension would drop below this; on
# smaller grids the coarse problem no longer resembles the fine one.
MIN_COARSE_CELLS = 4
# Red-black sweeps before and after each coarse-grid correction, and on the
# coarsest grid in place of a correction.
SWEEPS = 2
COARSEST_SWEEPS = 12
# Full-resolution convergence score the solve ends below, and its sweep cap.
SOLVE_TOL = 1e-10
MAX_SWEEPS = 200_000
# Earlier cycles mixed into each new iterate (Anderson acceleration).
ANDERSON_DEPTH = 3
# Cycles in a row that leave the best fine-level score unbeaten before the
# solve falls back to plain smoothing. Anderson mixing makes the score
# non-monotone: the corridor of seed 82 has five such cycles, then converges.
STALL_CYCLES = 8
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
    # Wall time of the call; left out of ==, which compares the work alone.
    seconds: float = dataclasses.field(default=0.0, compare=False)


@dataclass
class _Level:
    """One grid of the hierarchy, stored with the odd row stride Wp = W | 1."""

    shape: tuple[int, int]  # (H, W) without the pad column
    open: np.ndarray  # (H, Wp) free cells plus the goal cell or block
    free: np.ndarray  # (H, Wp) the cells the smoother updates
    faces: np.ndarray  # (4, H-2, W-2) bool: open N, S, W, E faces of interior cells
    stencil: np.ndarray  # (4, (H-2) Wp) bool, rows 1..H-2: open faces of free cells
    fixed: np.ndarray  # (H Wp,) 1.0 on every cell but the free ones, else 0
    q: np.ndarray  # (H Wp,) the smoother's unknown
    cap: np.ndarray  # (H Wp,) its upper bound
    half_sweeps: tuple  # red then black: the views one half-sweep reads and writes
    children: np.ndarray | None = None  # (H-2, W-2) open children per cell
    prolong: tuple | None = None  # (flat coarse indices, weights) onto the finer level

    @property
    def inner(self):
        """Index of the interior cells, (H-2, W-2)."""
        return np.s_[1:-1, 1:self.shape[1] - 1]


def _neighbours(a):
    """N, S, W, E neighbours of the interior cells of a."""
    return a[:-2, 1:-1], a[2:, 1:-1], a[1:-1, :-2], a[1:-1, 2:]


def _make_level(open_, goal, faces) -> _Level:
    h, w = open_.shape
    padded = np.zeros((h, w | 1), dtype=bool)
    padded[:, :w] = open_
    free = padded.copy()
    free[goal] = False
    stencil = np.zeros((4, h - 2, w | 1), dtype=bool)
    stencil[:, :, 1:w - 1] = faces & free[1:-1, 1:w - 1]
    fixed = (~free).astype(float).reshape(-1)
    q, cap = np.ones(h * (w | 1)), np.ones(h * (w | 1))
    return _Level(shape=(h, w), open=padded, free=free, faces=faces,
                  stencil=stencil.reshape(4, -1), fixed=fixed, q=q, cap=cap,
                  half_sweeps=_half_sweeps((h, w), fixed, q, cap))


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
    it, and the kept weights are renormalized. The four source cells come
    as flat indices into the padded coarse array, in that order.
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
    stride = (coarse_faces.shape[2] + 2) | 1
    index = np.stack([r[:, None] * stride + c for r, c in
                      ((rows, cols), (rows_nb, cols), (rows, cols_nb), (rows_nb, cols_nb))])
    return index.astype(np.int32), weights


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
        h, w = fine.shape
        gr, gc = goal
        nc, mc = (h - 1) // 2, (w - 1) // 2
        if min(nc, mc) < MIN_COARSE_CELLS or not (0 < gr < h - 1 and 0 < gc < w - 1):
            return levels
        children = _blocks(fine.open[fine.inner].astype(float)).sum(axis=(1, 3))
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
    """Interpolate coarse values (padded array) onto the finer level's interior."""
    index, weights = coarse.prolong
    out = weights[0] * values.take(index[0])
    for k in range(1, 4):
        out += weights[k] * values.take(index[k])
    return out


def _restrict(fine, coarse, inner):
    """Mean of an interior array over each coarse cell's open children."""
    sums = _blocks(np.where(fine.open[fine.inner], inner, 0.0)).sum(axis=(1, 3))
    return sums / np.maximum(coarse.children, 1.0)


def _weights(lv, v, f):
    """a[d] = w_d / (4 exp(f) w) over the open faces d of free cells, w = exp(-v).

    The update v = softmin(neighbours) + f reads w = sum_d a[d] * w_d / w, so
    with the weights frozen at the values v0 the unknown q = w / w0 obeys the
    linear Gauss-Seidel step q = sum_d a[d] q_d: no exp or log per sweep.
    Computed on whole rows 1..H-2 of the flat grid, so the N, S, W and E
    neighbours are the flat array shifted by -Wp, Wp, -1 and 1: a is
    (4, (H-2) Wp), and ring and pad cells get weight 0.
    """
    h, wp = v.shape
    flat = v.reshape(-1)
    rows = slice(wp, (h - 1) * wp)
    if isinstance(f, np.ndarray):  # shaped like v
        f = f.reshape(-1)[rows]
    centre = flat[rows] - (f + math.log(4.0))
    a = np.empty((4, rows.stop - rows.start))
    for k, offset in enumerate((-wp, wp, -1, 1)):
        np.subtract(centre, flat[rows.start + offset:rows.stop + offset], out=a[k])
    np.minimum(a, EXP_CLAMP, out=a)
    np.maximum(a, -EXP_CLAMP, out=a)
    np.exp(a, out=a)
    a *= lv.stencil
    return a


def _defect(lv, v, f, a=None):
    """softmin(neighbours) + f - v on free interior cells, 0 on fixed ones.

    a: _weights(lv, v, f) when the caller already has it.
    """
    if a is None:
        a = _weights(lv, v, f)
    h, wp = v.shape
    defect = -np.log(a.sum(axis=0) + lv.fixed[wp:(h - 1) * wp])  # rows 1..H-2
    return defect.reshape(h - 2, wp)[:, 1:lv.shape[1] - 1]


def _pair(flat, first, gap, n):
    """(2, n) view of a flat array: flat[first + 2i] and flat[first + gap + 2i]."""
    size = flat.itemsize
    return np.ndarray((2, n), flat.dtype, flat, first * size, (gap * size, 2 * size))


def _half_sweeps(shape, fixed, q, cap):
    """Red then black: each colour's slice of the flat grid and its views.

    With the odd row stride a colour is every other cell of the flat grid,
    one stride-2 slice c from the first interior cell to the last. Per
    colour: c shifted by -Wp (the same cells in _weights' a, which starts at
    row 1), the views of q, cap and fixed on c, a (4, n) products buffer
    (shared by the colours) and the (2, n) views of q at the N/S and at the
    W/E neighbours.
    """
    h, w = shape
    wp = w | 1
    stop = (h - 2) * wp + w - 1
    views = []
    products = np.empty((4, len(range(wp + 1, stop, 2))))
    for start in (wp + 1, wp + 2):  # red (even row + col), then black
        c = slice(start, stop, 2)
        n = len(range(start, stop, 2))
        views.append((slice(start - wp, stop - wp, 2), q[c], cap[c], fixed[c], products[:, :n],
                      _pair(q, start - wp, 2 * wp, n), _pair(q, start - 1, 2, n)))
    return tuple(views)


def _smooth(lv, v, f, sweeps, a=None):
    """Red-black Gauss-Seidel sweeps of v = softmin(neighbours) + f, in place.

    In w = exp(-v) this is Gauss-Seidel on a linear system (w = exp(-f) times
    the neighbour mean), which converges from any starting values. Values
    are kept in the physical range w <= 1 (v >= 0): on coarse levels the
    tau term of an early cycle can otherwise drive w up without limit.
    a: _weights(lv, v, f) when the caller already has it.

    A colour's half-sweep is one stride-2 slice (see _half_sweeps). The ring
    and pad cells in it have zero weights and fixed 1, so like fixed cells
    they keep q = 1 (their values are >= 0, so the cap is >= 1).
    """
    if a is None:
        a = _weights(lv, v, f)
    flat = v.reshape(-1)
    lv.q.fill(1.0)
    np.minimum(flat, 700.0, out=lv.cap)
    np.exp(lv.cap, out=lv.cap)  # q = w / w0 <= 1 / w0
    half_sweeps = [(centre, cap, fixed, products, a[:2, in_a], q_ns, a[2:, in_a], q_we)
                   for in_a, centre, cap, fixed, products, q_ns, q_we in lv.half_sweeps]
    for _ in range(sweeps):
        for centre, cap, fixed, products, a_ns, q_ns, a_we, q_we in half_sweeps:
            np.multiply(a_ns, q_ns, out=products[:2])
            np.multiply(a_we, q_we, out=products[2:])
            t = np.add.reduce(products, axis=0)  # N + S + W + E, in that order
            t += fixed
            np.minimum(t, cap, out=centre)
    flat -= np.log(lv.q)


def _fine_score(lv, v, a):
    """Convergence score on the full-resolution grid: max(rel, u_res).

    Both the relative stencil update of v and the update of u = 1 - exp(-v)
    must fall below SOLVE_TOL. Exactly |u_new - u| = exp(-v) * |expm1(-(v_new - v))|;
    the clamps (avoiding subnormals) only overestimate far-cell terms, which
    sit many orders below SOLVE_TOL either way. a: _weights(lv, v, 0.0).
    """
    delta = _defect(lv, v, 0.0, a)
    centre = v[lv.inner]
    free = lv.free[lv.inner]
    rel = float(np.max(np.abs(delta) / (1.0 + np.abs(centre)), initial=0.0, where=free))
    w_cur = np.exp(np.maximum(-centre, -50.0))
    np.minimum(delta, 50.0, out=delta)
    np.maximum(delta, -50.0, out=delta)
    u_res = float(np.max(np.abs(np.expm1(-delta)) * w_cur, initial=0.0, where=free))
    return max(rel, u_res)


def _vcycle(levels, k, v, f, a=None):
    """One FAS V-cycle on level k for softmin(v) + f - v = 0 on its free cells.

    a: _weights(levels[k], v, f) when the caller already has it.
    """
    lv = levels[k]
    if k + 1 == len(levels):
        _smooth(lv, v, f, COARSEST_SWEEPS, a)
        return
    _smooth(lv, v, f, SWEEPS, a)
    coarse = levels[k + 1]
    vc = np.where(coarse.open, 0.0, LOG_OBSTACLE)
    vc[coarse.inner] += _restrict(lv, coarse, v[lv.inner])
    # The coarse operator is 4x the fine one on the same field (h^2 scaling).
    fc = np.zeros(vc.shape)
    fc[coarse.inner] = 4.0 * _restrict(lv, coarse, _defect(lv, v, f)) - _defect(coarse, vc, 0.0)
    start = vc.copy()
    _vcycle(levels, k + 1, vc, fc)
    v[lv.inner] += np.where(lv.free[lv.inner], _prolong(coarse, vc - start), 0.0)
    np.maximum(v, 0.0, out=v)
    np.minimum(v, LOG_OBSTACLE, out=v)
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
        up[finer.inner] += np.where(finer.free[finer.inner], _prolong(levels[k], v), 0.0)
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


def solve_harmonic(field: GridField) -> GridField:
    """Solve Laplace's equation over the free cells (obstacle=1, goal=0).

    Iterates in the log domain (see LOG_OBSTACLE): full multigrid start, then
    FAS V-cycles with Anderson mixing until both the relative stencil update
    of v and the update of u fall below SOLVE_TOL on the full-resolution grid.
    If cycles stop lowering that score, plain red-black sweeps finish the
    solve; MAX_SWEEPS caps the full-resolution sweeps. Stores the log potential in
    .log_values and the work in .effort. Free cells cut off from the goal
    get u = 1.
    """
    started = time.perf_counter()
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
        a = _weights(fine, v, 0.0)  # the next sweeps start from these too
        score = _fine_score(fine, v, a)
        if score < SOLVE_TOL:
            break
        if score < best:
            best, stalls = score, 0
        else:
            stalls += 1
        effort.smoothing_finish |= len(levels) == 1 or stalls >= STALL_CYCLES
        if effort.sweeps >= MAX_SWEEPS:
            raise FieldError(f"harmonic solve did not converge below {SOLVE_TOL} in "
                             f"{MAX_SWEEPS} sweeps")
        if effort.smoothing_finish:
            _smooth(fine, v, 0.0, CHECK_EVERY, a)
            effort.sweeps += CHECK_EVERY
            continue
        x = v[fine.free]
        _vcycle(levels, 0, v, 0.0, a)
        del a  # grid-sized: not kept through the mixing
        effort.cycles += 1
        effort.sweeps += 2 * SWEEPS
        g = v[fine.free]
        history = history[-ANDERSON_DEPTH:] + [(g - x, g)]
        if len(history) > 1:
            mixed = _anderson_mix(history)
            np.maximum(mixed, 0.0, out=mixed)
            np.minimum(mixed, LOG_OBSTACLE, out=mixed)
            v[fine.free] = mixed
    field.log_values = np.ascontiguousarray(v[:, :w])  # without the pad column
    effort.seconds = time.perf_counter() - started
    field.effort = effort
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

    Also holds the per-segment data project_on_path reads every step.
    """

    points: np.ndarray  # (P, 2)
    cumlen: np.ndarray  # (P,), cumlen[0] == 0
    total_length: float
    # Per segment, from points: start and end - start as (2, P - 1) planes
    # [x, y], squared length (1 where it is 0, as a divisor) and length.
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
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        return cls(points=pts, cumlen=cum, total_length=float(cum[-1]))


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
            raise FieldError("descent stalled; re-solve the field at a tighter tolerance")
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
