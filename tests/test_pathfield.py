import math

import numpy as np
import pytest

from oracles import (
    SOR_LOG_OBSTACLE,
    cell_center,
    connected_component,
    dense_laplace_solve,
    extract_path_arrays,
    project_on_path_formula,
    reference_solve_harmonic,
)
from planarwbc.config import default_config
from planarwbc.envs import EnvSpec, generate_scene, plan_path
from planarwbc.pathfield import (
    FREE,
    GOAL,
    OBSTACLE,
    CutOffError,
    FieldError,
    GridField,
    PathMetricsState,
    PathPolyline,
    extract_path,
    field_to_pgm,
    init_path_metrics,
    path_metrics,
    project_on_path,
    rasterize_world,
    solve_harmonic,
)
from planarwbc.geometry import point_box_distance, point_segment_distance
from planarwbc.robot import forward_kinematics
from planarwbc.world import WorldGeometry


def empty_world(w=4.0, h=3.0):
    return WorldGeometry(
        segments=np.array([[0, 0, w, 0], [w, 0, w, h], [w, h, 0, h], [0, h, 0, 0]],
                          dtype=float),
        bounds=(0.0, 0.0, w, h),
    )


def random_grid_field(rng, n=20, p_obstacle=0.25):
    # Random interior obstacles with an enclosing ring, goal in a free cell.
    kind = np.full((n, n), FREE, dtype=np.uint8)
    kind[0, :] = kind[-1, :] = OBSTACLE
    kind[:, 0] = kind[:, -1] = OBSTACLE
    interior = rng.random((n - 2, n - 2)) < p_obstacle
    kind[1:-1, 1:-1] = np.where(interior, OBSTACLE, FREE)
    free_cells = np.argwhere(kind == FREE)
    if free_cells.size == 0:
        return None
    gr, gc = free_cells[rng.integers(len(free_cells))]
    # The solver needs a free neighbor next to the goal.
    has_free_nb = any(
        0 <= gr + dr < n and 0 <= gc + dc < n and kind[gr + dr, gc + dc] == FREE
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
    )
    if not has_free_nb:
        return None
    kind[gr, gc] = GOAL
    field = GridField(origin=(0.0, 0.0), cell_size=0.1, kind=kind,
                      w=np.zeros((n, n)), goal_cell=(int(gr), int(gc)))
    return field


def test_rasterize_empty_world_ring():
    world = WorldGeometry(bounds=(0.0, 0.0, 1.0, 1.0))
    field = rasterize_world(world, 0.5, inflate=0.0, goal=(0.75, 0.75))
    assert field.shape == (2, 2) or field.shape == (3, 3)
    # With a 1x1 m world at h=0.5 the grid is 2x2... the ring rule then
    # leaves no free cell, so use a finer grid for the structural check.
    field = rasterize_world(world, 0.25, inflate=0.0, goal=(0.6, 0.6))
    h, w = field.shape
    assert np.all(field.kind[0, :] == OBSTACLE)
    assert np.all(field.kind[-1, :] == OBSTACLE)
    assert np.all(field.kind[:, 0] == OBSTACLE)
    assert np.all(field.kind[:, -1] == OBSTACLE)
    inner = field.kind[1:-1, 1:-1]
    assert np.all((inner == FREE) | (inner == GOAL))


def test_rasterize_agrees_with_center_tests():
    rng = np.random.default_rng(0)
    world = WorldGeometry(
        segments=np.array([[0.5, 0.5, 3.5, 2.5]]),
        boxes=np.array([[1.0, 0.2, 1.6, 1.4], [2.5, 1.5, 3.2, 2.8]]),
        bounds=(0.0, 0.0, 4.0, 3.0),
    )
    inflate = 0.15
    field = rasterize_world(world, 0.1, inflate=inflate, goal=(0.35, 2.63))
    from oracles import point_box_distance, point_segment_distance

    h, w = field.shape
    for _ in range(500):
        r = rng.integers(1, h - 1)
        c = rng.integers(1, w - 1)
        center = cell_center(field, r, c)
        d = min(
            min(point_segment_distance(center, s) for s in world.segments),
            min(point_box_distance(center, b) for b in world.boxes),
        )
        expect = OBSTACLE if d <= inflate else FREE
        got = field.kind[r, c]
        if got == GOAL:
            continue
        assert got == expect, (r, c, d)


def test_rasterize_is_bitwise_the_or_of_obstacle_compares():
    # The mask compares the running clearance minimum with inflate; it marks
    # exactly the cells that some obstacle's own distance marks.
    rng = np.random.default_rng(27)
    for _ in range(4):
        lo = rng.uniform(0.0, 3.0, (4, 2))
        world = WorldGeometry(segments=rng.uniform(0.0, 4.0, (3, 4)),
                              boxes=np.hstack([lo, lo + rng.uniform(0.05, 1.0, (4, 2))]),
                              bounds=(0.0, 0.0, 4.0, 4.0))
        for cell, inflate in ((0.05, 0.05), (0.1, 0.3), (0.07, 0.0)):
            n = math.ceil(4.0 / cell)
            xs = (np.arange(n) + 0.5) * cell
            centers = np.stack(np.meshgrid(xs, xs), axis=-1)
            expect = np.zeros((n, n), dtype=bool)
            expect[[0, -1], :] = expect[:, [0, -1]] = True
            for seg in world.segments:
                expect |= point_segment_distance(centers, seg) <= inflate
            for box in world.boxes:
                expect |= point_box_distance(centers, box) <= inflate
            goal = centers[tuple(np.argwhere(~expect)[0])]
            field = rasterize_world(world, cell, inflate, goal=goal)
            assert np.array_equal(field.kind == OBSTACLE, expect)
            assert field.kind[field.goal_cell] == GOAL


def test_rasterize_goal_in_obstacle_raises():
    world = WorldGeometry(boxes=np.array([[1.0, 1.0, 2.0, 2.0]]), bounds=(0, 0, 3, 3))
    with pytest.raises(FieldError):
        rasterize_world(world, 0.1, inflate=0.05, goal=(1.5, 1.5))


def test_solve_strip_monotone():
    # 1xN free strip: w falls strictly away from the goal at one end.
    n = 12
    kind = np.full((3, n), OBSTACLE, dtype=np.uint8)
    kind[1, 1:-1] = FREE
    kind[1, 1] = GOAL
    field = GridField(origin=(0, 0), cell_size=0.1, kind=kind,
                      w=np.zeros((3, n)), goal_cell=(1, 1))
    solve_harmonic(field)
    row = field.w[1, 1:-1]
    assert np.all(np.diff(row) < 0.0)
    assert row[0] == 1.0


def test_solve_matches_dense_oracle():
    # The line elimination solves the dense oracle's system exactly, cut-off
    # pockets included (w = 0 there in both).
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 30:
        field = random_grid_field(rng, n=int(rng.integers(12, 41)),
                                  p_obstacle=rng.uniform(0.1, 0.45))
        if field is None:
            continue
        solve_harmonic(field)
        free = field.kind == FREE
        assert np.max(np.abs(field.w[free] - (1.0 - dense_laplace_solve(field))[free])) <= 1e-12
        checked += 1


@pytest.mark.parametrize("length", [2, 3, 40, 300, 530])
def test_solve_strip_matches_closed_form(length):
    # A one-cell strip with the goal at one end and a wall `length` cells on:
    # w_k = 1 - u_k solves 4 w_k = w_{k-1} + w_{k+1}, so with r = 2 - sqrt(3)
    # w_k = (r^k - r^(2L-k)) / (1 - r^(2L)), down to about 1e-300 at 530
    # cells, where the solve keeps w's full relative precision.
    kind = np.full((3, length + 2), OBSTACLE, dtype=np.uint8)
    kind[1, 1:-1] = FREE
    field = grid_field(kind, (1, 1))
    solve_harmonic(field)
    r = 2.0 - math.sqrt(3.0)
    k = np.arange(length)
    w = (r ** k - r ** (2 * length - k)) / (1.0 - r ** (2 * length))
    solved = field.w[1, 1:-1]
    assert solved[0] == 1.0
    assert np.max(np.abs(solved[1:] - w[1:]) / w[1:]) <= 1e-12


def ring_grid(h, w):
    kind = np.full((h, w), FREE, dtype=np.uint8)
    kind[0, :] = kind[-1, :] = OBSTACLE
    kind[:, 0] = kind[:, -1] = OBSTACLE
    return kind


def grid_field(kind, goal):
    kind = kind.copy()
    kind[goal] = GOAL
    return GridField(origin=(0.0, 0.0), cell_size=0.1, kind=kind,
                     w=np.zeros(kind.shape), goal_cell=goal)


def slot_grid():
    # A three-cell-thick wall pierced by a one-cell slot on an odd row.
    kind = ring_grid(40, 40)
    kind[1:-1, 19:22] = OBSTACLE
    kind[23, 19:22] = FREE
    return grid_field(kind, (30, 32))


def border_goal_grid():
    kind = ring_grid(30, 34)
    kind[10:20, 12:14] = OBSTACLE
    return grid_field(kind, (1, 17))


def odd_grid():
    kind = ring_grid(37, 23)
    kind[8:25, 9] = OBSTACLE
    kind[20, 3:16] = OBSTACLE
    return grid_field(kind, (5, 17))


def pocket_grid():
    # A walled room in the middle holds free cells no path reaches; their
    # exact potential is w = 0.
    kind = ring_grid(32, 32)
    kind[10:22, 10] = kind[10:22, 21] = OBSTACLE
    kind[10, 10:22] = kind[21, 10:22] = OBSTACLE
    return grid_field(kind, (3, 28))


def small_grid():
    # A short interior with a wall stub between the goal and the rest.
    kind = ring_grid(8, 12)
    kind[3:6, 5] = OBSTACLE
    return grid_field(kind, (4, 9))


@pytest.mark.parametrize("make", [slot_grid, border_goal_grid, odd_grid, pocket_grid, small_grid])
def test_line_solve_hard_cases_match_dense_oracle(make):
    field = make()
    solve_harmonic(field)
    free = field.kind == FREE
    assert np.max(np.abs(field.w[free] - (1.0 - dense_laplace_solve(field))[free])) <= 1e-12


def vertices_in_obstacles(field, points):
    """The indices of the points that lie in an obstacle cell of field."""
    return [i for i, p in enumerate(points) if field.kind[field.cell_of(p)] == OBSTACLE]


def hausdorff(a, b):
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return max(d.min(axis=0).max(), d.min(axis=1).max())


@pytest.mark.parametrize("spec", [EnvSpec(kind="corridor"), EnvSpec.gap_train(),
                                  EnvSpec.gap_test()], ids=lambda spec: spec.kind)
def test_solve_agrees_with_reference_solver(spec):
    # The exact solve against the SOR reference on generated scenes: SOR
    # stops below a 1e-10 update of v = -ln w, so fields agree far below the
    # grid's resolution and the reference paths coincide. Corridor seed 82
    # once stalled an iterative solve.
    run = default_config()
    cell = run.episode.grid_cell
    for seed in (1000, 1001, 82) if spec.kind == "corridor" else (1000, 1001):
        world, start, goal_pose, *_ = generate_scene(spec, run.robot,
                                                     np.random.default_rng(seed), cell)
        field = rasterize_world(world, cell, inflate=run.robot.link_capsule_radius,
                                goal=goal_pose[:2])
        reference = rasterize_world(world, cell, inflate=run.robot.link_capsule_radius,
                                    goal=goal_pose[:2])
        reference_v = reference_solve_harmonic(reference)
        reference.w = np.exp(-reference_v)
        solve_harmonic(field)
        free = field.kind == FREE
        with np.errstate(divide="ignore"):  # -ln 0 on cut-off cells
            v = np.minimum(-np.log(field.w), SOR_LOG_OBSTACLE)
        assert np.max(np.abs(v - reference_v)[free]) < 1e-5
        ee_xy = forward_kinematics(run.robot, start)[-1, :2]
        path = extract_path(field, ee_xy, goal=goal_pose[:2])
        reference_path = extract_path(reference, ee_xy, goal=goal_pose[:2])
        assert hausdorff(path.points, reference_path.points) < 0.1 * cell


def test_converged_stencil_fixed_point():
    rng = np.random.default_rng(2)
    field = None
    while field is None:
        field = random_grid_field(rng, n=16, p_obstacle=0.2)
    solve_harmonic(field)
    v = field.w
    free = field.kind == FREE
    nb = 0.25 * (v[:-2, 1:-1] + v[2:, 1:-1] + v[1:-1, :-2] + v[1:-1, 2:])
    resid = np.abs(nb - v[1:-1, 1:-1])[free[1:-1, 1:-1]]
    assert np.max(resid) < 1e-9


def test_maximum_principle():
    rng = np.random.default_rng(3)
    field = None
    while field is None:
        field = random_grid_field(rng, n=18, p_obstacle=0.15)
    solve_harmonic(field)
    free = field.kind == FREE
    connected = connected_component(field.kind != OBSTACLE, field.goal_cell)
    vals = field.w[free & connected]
    assert np.all(vals > 0.0)
    assert np.all(vals < 1.0)


@pytest.mark.parametrize("spec", [EnvSpec(kind="corridor"), EnvSpec.gap_train(),
                                  EnvSpec.gap_test()], ids=lambda spec: spec.kind)
def test_extract_path_is_bitwise_the_array_loop(spec):
    # Stepping on Python floats keeps the IEEE operations of the loop over
    # numpy 2-vectors: every generated scene's path is the same bytes. No
    # vertex of a planned path lies in an obstacle cell.
    run = default_config()
    for seed in range(1000, 1030):
        scene = generate_scene(spec, run.robot, np.random.default_rng(seed), run.episode.grid_cell)
        ee_xy = forward_kinematics(run.robot, scene.start)[-1, :2]
        expected = extract_path_arrays(scene.path_field, ee_xy, goal=scene.goal[:2])
        assert scene.path.points.tobytes() == expected.tobytes(), seed
        assert not vertices_in_obstacles(scene.path_field, scene.path.points), seed


def test_extract_path_straight_corridor():
    world = empty_world(4.0, 1.0)
    goal = (3.5, 0.5)
    field = rasterize_world(world, 0.05, inflate=0.05, goal=goal)
    solve_harmonic(field)
    path = extract_path(field, (0.5, 0.5), goal=goal)
    assert np.allclose(path.points[0], [0.5, 0.5])
    assert np.allclose(path.points[-1], goal)
    # Start and goal sit on the centerline; the streamline stays within 2h.
    assert np.max(np.abs(path.points[:, 1] - 0.5)) < 2 * 0.05
    # w rises along the streamline.
    from planarwbc.pathfield import _bilinear_with_gradient

    vals = [_bilinear_with_gradient(field, p)[0] for p in path.points[:-1]]
    assert np.all(np.diff(vals) >= -1e-12)


def two_box_field():
    world = WorldGeometry(
        segments=np.array([[0, 0, 4, 0], [4, 0, 4, 3], [4, 3, 0, 3], [0, 3, 0, 0]],
                          dtype=float),
        boxes=np.array([[1.2, 0.0, 1.5, 2.0], [2.5, 1.0, 2.8, 3.0]]),
        bounds=(0, 0, 4, 3),
    )
    return rasterize_world(world, 0.1, inflate=0.08, goal=(3.6, 2.6))


def random_maze_field(seed):
    """A depth-first maze with corridors 1-3 cells wide, some walls knocked
    through into loops and some corridor cells blocked into cut-off pockets."""
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(3, 8)), int(rng.integers(3, 10))
    kind = np.full((2 * rows + 1, 2 * cols + 1), OBSTACLE, dtype=np.uint8)
    seen = np.zeros((rows, cols), dtype=bool)
    stack = [(int(rng.integers(rows)), int(rng.integers(cols)))]
    seen[stack[0]] = True
    kind[2 * stack[0][0] + 1, 2 * stack[0][1] + 1] = FREE
    while stack:
        r, c = stack[-1]
        steps = [(r + dr, c + dc) for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1))
                 if 0 <= r + dr < rows and 0 <= c + dc < cols and not seen[r + dr, c + dc]]
        if not steps:
            stack.pop()
            continue
        nr, nc = steps[rng.integers(len(steps))]
        seen[nr, nc] = True
        kind[r + nr + 1, c + nc + 1] = kind[2 * nr + 1, 2 * nc + 1] = FREE
        stack.append((nr, nc))
    for mark, share in ((FREE, 0.1), (OBSTACLE, 0.04)):
        cells = np.argwhere(kind[1:-1, 1:-1] != mark) + 1
        picked = cells[rng.choice(len(cells), size=int(share * len(cells)), replace=False)]
        kind[picked[:, 0], picked[:, 1]] = mark
    width = int(rng.integers(1, 4))
    kind = np.pad(np.kron(kind, np.ones((width, width), dtype=np.uint8)), 1,
                  constant_values=OBSTACLE)
    free = np.argwhere(kind == FREE)
    return grid_field(kind, tuple(int(i) for i in free[rng.integers(len(free))]))


def test_extract_from_every_free_cell():
    # Every free cell 4-connected to the goal plans to it with no vertex in
    # an obstacle cell; every other one reads w = 0 and raises CutOffError.
    # A half-cell step from maze 143's cell (14, 6) crossed a one-cell
    # pillar, and from maze 66's cell (27, 40) landed on the corner two
    # diagonal obstacle cells share.
    mazes = map(random_maze_field, [*range(8), 66, 143])
    for case, field in enumerate([two_box_field(), *mazes]):
        solve_harmonic(field)
        connected = connected_component(field.kind != OBSTACLE, field.goal_cell)
        goal = cell_center(field, *field.goal_cell)
        for r, c in np.argwhere(field.kind == FREE):
            start = cell_center(field, r, c)
            if not connected[r, c]:
                with pytest.raises(CutOffError):
                    extract_path(field, start, goal=goal)
                continue
            path = extract_path(field, start, goal=goal)
            assert np.allclose(path.points[-1], goal), (case, r, c)
            assert not vertices_in_obstacles(field, path.points), (case, r, c)


def test_start_in_a_walled_room_is_cut_off():
    # pocket_grid's room as a world: the room's cells are free, and the solve
    # leaves them at w = 0.
    world = WorldGeometry(segments=np.array([[1.05, 1.05, 2.15, 1.05], [2.15, 1.05, 2.15, 2.15],
                                             [2.15, 2.15, 1.05, 2.15], [1.05, 2.15, 1.05, 1.05]]),
                          bounds=(0.0, 0.0, 3.2, 3.2))
    robot = default_config().robot
    with pytest.raises(CutOffError):
        plan_path(world, robot, 0.1, (1.6, 1.6), (2.85, 0.35))
    field = pocket_grid()
    solve_harmonic(field)
    with pytest.raises(CutOffError):
        extract_path(field, cell_center(field, 15, 15), goal=cell_center(field, *field.goal_cell))


def test_extract_start_adjacent_to_goal():
    world = empty_world(2.0, 2.0)
    goal = (1.0, 1.0)
    field = rasterize_world(world, 0.1, inflate=0.05, goal=goal)
    solve_harmonic(field)
    gr, gc = field.goal_cell
    start = cell_center(field, gr, gc + 1)
    path = extract_path(field, start, goal=goal)
    assert path.total_length <= 2 * 0.1 * math.sqrt(2.0) + 1e-9


def test_extract_rejects_obstacle_start():
    world = empty_world()
    field = rasterize_world(world, 0.1, inflate=0.05, goal=(2.0, 1.5))
    solve_harmonic(field)
    with pytest.raises(FieldError):
        extract_path(field, (0.0, 0.0), goal=(2.0, 1.5))  # inside the boundary ring


def test_polyline_dedupes_and_cumlen():
    path = PathPolyline.from_points([[0, 0], [0, 0], [1, 0], [1, 1]])
    assert len(path.points) == 3
    assert np.allclose(path.cumlen, [0.0, 1.0, 2.0])
    assert path.total_length == pytest.approx(2.0)
    with pytest.raises(ValueError):
        PathPolyline.from_points([[0.5, 0.5], [0.5, 0.5]])


def test_polyline_lengths_are_bitwise_the_norm_formula():
    # The lengths come from the per-segment lengths the projection reads;
    # they keep every bit of a norm over the points' differences.
    rng = np.random.default_rng(27)
    walks = [np.cumsum(rng.normal(scale=scale, size=(n, 2)), axis=0)
             for scale, n in ((0.05, 500), (1.0, 40), (1e-3, 7))]
    for points in [*walks, [[0, 0], [0, 0], [1, 0], [1, 1]], [[0.1, 0.2], [0.3, 0.7]]]:
        path = PathPolyline.from_points(points)
        cumlen = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(path.points, axis=0),
                                                                 axis=1))])
        assert path.cumlen.tobytes() == cumlen.tobytes()
        assert repr(path.total_length) == repr(float(cumlen[-1]))


def test_projection_and_tie_break():
    path = PathPolyline.from_points([[0, 0], [2, 0], [2, 2]])
    dev, arc = project_on_path(path, (1.0, 0.5))
    assert dev == pytest.approx(0.5)
    assert arc == pytest.approx(1.0)
    # Equidistant from both legs: tie broken toward the larger arc length.
    dev, arc = project_on_path(path, (1.5, 0.5))
    assert dev == pytest.approx(0.5)
    assert arc == pytest.approx(2.5)


def test_projection_is_bitwise_the_per_call_formula():
    # The segment data cached by from_points changes no bit of the result.
    rng = np.random.default_rng(9)
    walk = np.cumsum(rng.normal(scale=0.05, size=(500, 2)), axis=0)
    tie = PathPolyline.from_points([[0, 0], [2, 0], [2, 2]])
    cases = [(tie, (1.5, 0.5)), (tie, (1.0, 0.5)), (tie, (2.0, 0.0))]
    path = PathPolyline.from_points(walk)
    lo, hi = walk.min(axis=0) - 0.5, walk.max(axis=0) + 0.5
    cases += [(path, rng.uniform(lo, hi)) for _ in range(200)]
    cases += [(path, walk[i]) for i in (0, 7, 250, 499)]  # on vertices
    for line, p in cases:
        assert project_on_path(line, p) == project_on_path_formula(line.points, line.cumlen, p)


def test_path_metrics_stationary_and_pure_progress():
    path = PathPolyline.from_points([[0, 0], [4, 0]])
    state = init_path_metrics(path, (1.0, 0.0))
    d_dev, d_prog, state = path_metrics(path, state, (1.0, 0.0))
    assert d_dev == 0.0 and d_prog == 0.0
    d_dev, d_prog, state = path_metrics(path, state, (1.02, 0.0))
    assert d_dev == pytest.approx(0.0, abs=1e-15)
    assert d_prog == pytest.approx(0.02)


def test_path_metrics_telescoping_and_lipschitz():
    rng = np.random.default_rng(5)
    path = PathPolyline.from_points([[0, 0], [1, 0], [2, 1], [3, 1], [4, 0]])
    for _ in range(200):
        pos = np.array([rng.uniform(0, 4), rng.uniform(-1, 2)])
        state = init_path_metrics(path, pos)
        start_prog = state.prev_progress
        total_prog = 0.0
        for _ in range(50):
            step_vec = rng.normal(scale=0.05, size=2)
            new_pos = pos + step_vec
            d_dev, d_prog, state = path_metrics(path, state, new_pos)
            assert abs(d_dev) <= np.linalg.norm(step_vec) + 1e-12
            total_prog += d_prog
            pos = new_pos
        assert total_prog == pytest.approx(state.prev_progress - start_prog, abs=1e-12)


def test_field_to_pgm():
    world = empty_world(2.0, 1.0)
    field = rasterize_world(world, 0.1, inflate=0.05, goal=(1.5, 0.5))
    solve_harmonic(field)
    data = field_to_pgm(field)
    h, w = field.shape
    assert data.startswith(f"P5\n{w} {h}\n255\n".encode())
    assert len(data) == len(f"P5\n{w} {h}\n255\n") + h * w
    assert field_to_pgm(field) == data  # deterministic
