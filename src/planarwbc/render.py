"""Deterministic SVG snapshots of scenes, robot poses and trajectories.

Output is plain text with fixed float formatting so identical inputs render
to byte-identical files. World y points up; SVG y points down, so every
coordinate is flipped about the vertical midline of the world bounds.
"""
from __future__ import annotations

import numpy as np

from .robot import RobotConfig, RobotState, forward_kinematics
from .world import SENSORS, WorldGeometry, cast_lidar, lidar_rays

_SCALE = 100.0  # SVG user units per metre
_PAD = 0.5  # metres of margin around the world bounds


def _fmt(value: float) -> str:
    out = f"{value:.2f}"
    return "0.00" if out == "-0.00" else out


class _Canvas:
    def __init__(self, bounds: tuple[float, float, float, float]):
        xmin, ymin, xmax, ymax = bounds
        self.flip = ymin + ymax
        self.x0 = xmin - _PAD
        self.y0 = ymin - _PAD
        self.width = (xmax - xmin + 2.0 * _PAD) * _SCALE
        self.height = (ymax - ymin + 2.0 * _PAD) * _SCALE
        self.parts: list[str] = []

    def point(self, x: float, y: float) -> tuple[float, float]:
        return (x - self.x0) * _SCALE, (self.flip - y - self.y0) * _SCALE

    def line(self, a, b, stroke: str, width: float, cap: str = "butt",
             opacity: float | None = None) -> None:
        ax, ay = self.point(a[0], a[1])
        bx, by = self.point(b[0], b[1])
        extra = f' stroke-opacity="{_fmt(opacity)}"' if opacity is not None else ""
        self.parts.append(
            f'<line x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width * _SCALE)}" '
            f'stroke-linecap="{cap}"{extra} />'
        )

    def circle(self, center, radius: float, fill: str, stroke: str = "none",
               width: float = 0.0) -> None:
        cx, cy = self.point(center[0], center[1])
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius * _SCALE)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(width * _SCALE)}" />'
        )

    def rect(self, box, fill: str) -> None:
        xmin, ymin, xmax, ymax = box
        x, y = self.point(xmin, ymax)
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt((xmax - xmin) * _SCALE)}" '
            f'height="{_fmt((ymax - ymin) * _SCALE)}" fill="{fill}" />'
        )

    def polyline(self, points, stroke: str, width: float) -> None:
        if len(points) < 2:
            return
        coords = " ".join(
            "{},{}".format(*map(_fmt, self.point(p[0], p[1]))) for p in points
        )
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width * _SCALE)}" />'
        )

    def to_svg(self) -> str:
        head = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{_fmt(self.width)}" height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">'
        )
        background = f'<rect x="0" y="0" width="{_fmt(self.width)}" height="{_fmt(self.height)}" fill="white" />'
        return "\n".join([head, background, *self.parts, "</svg>"]) + "\n"


def _draw_robot(canvas: _Canvas, config: RobotConfig, state: RobotState,
                base_fill: str = "#9ecae1") -> None:
    base = state.base_pose
    canvas.circle(base[:2], config.base_radius, base_fill, stroke="black", width=0.01)
    heading = base[:2] + config.base_radius * np.array([np.cos(base[2]), np.sin(base[2])])
    canvas.line(base[:2], heading, "black", 0.02)
    frames = forward_kinematics(config, state)
    for start, end in zip(frames[1:-1], frames[2:]):
        canvas.line(start, end, "#3182bd", 2.0 * config.link_capsule_radius, cap="round")
    for frame in frames[1:]:
        canvas.circle(frame[:2], 0.02, "black")


def render_scene(
    config: RobotConfig,
    world: WorldGeometry,
    state: RobotState,
    goal_pose,
    tolerance: float,
    ee_trace=None,
    show_lidar: bool = False,
    path_points=None,
) -> str:
    """Render one scene to an SVG string."""
    canvas = _Canvas(world.bounds)
    for box in world.boxes:
        canvas.rect(box, "#bdbdbd")
    for seg in world.segments:
        canvas.line(seg[:2], seg[2:], "black", 0.04)
    goal = np.asarray(goal_pose, dtype=float)
    canvas.circle(goal[:2], tolerance, "none", stroke="#31a354", width=0.02)
    tip = goal[:2] + 0.15 * np.array([np.cos(goal[2]), np.sin(goal[2])])
    canvas.line(goal[:2], tip, "#31a354", 0.03)
    canvas.circle(goal[:2], 0.03, "#31a354")
    if path_points is not None and len(path_points) >= 2:
        canvas.polyline(path_points, "#fdae6b", 0.02)
    if show_lidar:
        xs, ys, angles = lidar_rays(config, state.base_pose.tolist())
        for sensor, x, y, sensor_angles in zip(SENSORS, xs, ys, angles):
            ranges = cast_lidar(config, state, world, sensor)
            origin = np.array((x, y))
            for rng, ang in zip(ranges, sensor_angles):
                hit = origin + rng * np.array([np.cos(ang), np.sin(ang)])
                canvas.line(origin, hit, "#de2d26", 0.005, opacity=0.4)
    if ee_trace is not None and len(ee_trace) >= 2:
        canvas.polyline(ee_trace, "#756bb1", 0.015)
    _draw_robot(canvas, config, state)
    return canvas.to_svg()
