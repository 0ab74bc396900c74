"""Robot description, planar forward kinematics, and dynamics integration.

The robot is an omnidirectional disk base carrying a planar revolute arm.
Base accelerations are commanded in the base frame; the integrator is
semi-implicit Euler (velocities first, then positions) with optional joint
clamping at margin-shrunk limits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LidarConfig:
    """Per-sensor raycast parameters (same for front and rear)."""

    beams: int = 64
    fov: float = math.pi
    max_range: float = 5.0
    front_offset: tuple[float, float] = (0.0, 0.0)
    rear_offset: tuple[float, float] = (0.0, 0.0)


@dataclass
class RobotConfig:
    """Kinematic and actuation description of the planar robot.

    Joint limits are symmetric-per-joint [min, max] pairs; under the
    clamping variant positions are held inside [min + clamp_margin,
    max - clamp_margin].
    """

    base_radius: float = 0.3
    arm_mount_offset: tuple[float, float] = (0.2, 0.0)
    link_lengths: tuple[float, ...] = (0.3, 0.3, 0.2)
    link_capsule_radius: float = 0.05
    joint_limits: tuple[tuple[float, float], ...] = ((-2.0, 2.0), (-2.0, 2.0), (-2.0, 2.0))
    clamp_margin: float = 0.05
    max_joint_vel: float = 1.5
    max_base_vel: tuple[float, float, float] = (0.5, 0.5, 1.0)
    max_joint_acc: float = 2.0
    max_base_acc: tuple[float, float, float] = (1.0, 1.0, 2.0)
    lidar: LidarConfig = field(default_factory=LidarConfig)

    @property
    def num_joints(self) -> int:
        return len(self.link_lengths)

    @property
    def max_reach(self) -> float:
        """Largest possible end-effector distance from the base center."""
        return math.hypot(*self.arm_mount_offset) + sum(self.link_lengths)

    def validate(self) -> list[str]:
        """Return a list of invariant violations (empty when valid)."""
        errors = []
        if any(l <= 0.0 for l in self.link_lengths):
            errors.append("link_lengths: all lengths must be > 0")
        if not (self.base_radius > self.link_capsule_radius > 0.0):
            errors.append("base_radius: require base_radius > link_capsule_radius > 0")
        if len(self.joint_limits) != len(self.link_lengths):
            errors.append("joint_limits: one [min, max] pair per link required")
        for i, (lo, hi) in enumerate(self.joint_limits):
            if not lo < hi:
                errors.append(f"joint_limits[{i}]: min must be < max")
            elif self.clamp_margin >= 0.5 * (hi - lo):
                errors.append(f"clamp_margin: must be < half the span of joint {i}")
        if self.clamp_margin < 0.0:
            errors.append("clamp_margin: must be >= 0")
        if not self.max_joint_vel > 0.0:
            errors.append("max_joint_vel: must be > 0")
        for i, cap in enumerate(self.max_base_vel):
            if not cap > 0.0:
                errors.append(f"max_base_vel[{i}]: must be > 0")
        if self.lidar.beams < 1:
            errors.append("lidar.beams: at least one beam required")
        if not (0.0 < self.lidar.fov <= 2.0 * math.pi):
            errors.append("lidar.fov: must be in (0, 2*pi]")
        if self.lidar.max_range <= 0.0:
            errors.append("lidar.max_range: must be > 0")
        # A sensor inside the base disk reads no obstacle nearer than the body clearance.
        for name in ("front_offset", "rear_offset"):
            if not math.hypot(*getattr(self.lidar, name)) < self.base_radius:
                errors.append(f"lidar.{name}: must lie inside the base disk (length < base_radius)")
        return errors


@dataclass
class RobotState:
    """Base pose/velocity and arm joint positions/velocities."""

    base_pose: np.ndarray  # (x, y, theta)
    base_vel: np.ndarray  # (vx, vy, omega), base frame
    joint_pos: np.ndarray
    joint_vel: np.ndarray

    @classmethod
    def zeros(cls, config: RobotConfig, base_pose=(0.0, 0.0, 0.0)) -> "RobotState":
        k = config.num_joints
        return cls(
            base_pose=np.asarray(base_pose, dtype=float).copy(),
            base_vel=np.zeros(3),
            joint_pos=np.zeros(k),
            joint_vel=np.zeros(k),
        )

    def copy(self) -> "RobotState":
        return RobotState(
            self.base_pose.copy(),
            self.base_vel.copy(),
            self.joint_pos.copy(),
            self.joint_vel.copy(),
        )


@dataclass
class Action:
    """Commanded accelerations (base frame for the base, per joint for the arm)."""

    base_acc: np.ndarray  # (ax, ay, aw)
    joint_acc: np.ndarray


def forward_kinematics(config: RobotConfig, state: RobotState) -> np.ndarray:
    """World frames (K+2, 3) along the kinematic chain, one (x, y, phi) row each.

    The rows are the base, the arm mount, then the end of each of the K links;
    the last row is the end-effector pose, with phi = theta + sum(joint_pos).
    """
    if state.joint_pos.shape[0] != config.num_joints:
        raise ValueError(
            f"state has {state.joint_pos.shape[0]} joints, config expects {config.num_joints}"
        )
    x, y, theta = state.base_pose.tolist()
    c, s = math.cos(theta), math.sin(theta)
    ox, oy = config.arm_mount_offset
    px, py = x + c * ox - s * oy, y + s * ox + c * oy
    rows = [x, y, theta, px, py, theta]
    phi = theta
    for length, q in zip(config.link_lengths, state.joint_pos.tolist()):
        phi += q
        px += length * math.cos(phi)
        py += length * math.sin(phi)
        rows += (px, py, phi)
    return np.array(rows).reshape(-1, 3)


def step_dynamics(
    config: RobotConfig,
    state: RobotState,
    action: Action,
    tau: float,
    clamping_enabled: bool = True,
) -> tuple[RobotState, bool]:
    """Advance the state by one step of semi-implicit Euler.

    Velocities are updated first (and clipped to configured maxima), then
    positions. With clamping enabled, a joint whose new position would leave
    the margin-shrunk limits is pinned to the nearest bound with its velocity
    zeroed, and no limit event is reported. Without clamping, positions
    integrate freely and the second return value flags any raw-limit crossing.
    """
    if tau <= 0.0:
        raise ValueError("tau must be > 0")
    x, y, theta = state.base_pose.tolist()
    vx, vy, omega = state.base_vel.tolist()
    ax, ay, aw = action.base_acc.tolist()
    q, qd, qdd = state.joint_pos.tolist(), state.joint_vel.tolist(), action.joint_acc.tolist()
    if not len(q) == len(qd) == len(qdd) == len(config.joint_limits):
        raise ValueError("one joint position, velocity and acceleration per joint limit required")
    if not all(map(math.isfinite, (x, y, theta, vx, vy, omega, ax, ay, aw, *q, *qd, *qdd))):
        raise ValueError("non-finite state or action")

    # Python floats round like numpy float64. On a tie, as between -0.0 and
    # a 0.0 bound, min(hi, max(lo, v)) returns the bound and
    # min(max(v, lo), hi) returns v: each clamp below takes the form np.clip
    # takes with its bounds (per component: the bound; one scalar: v), so
    # every result keeps np.clip's bytes, signed zeros included.
    cap_x, cap_y, cap_w = config.max_base_vel
    vx = min(cap_x, max(-cap_x, vx + ax * tau))
    vy = min(cap_y, max(-cap_y, vy + ay * tau))
    omega = min(cap_w, max(-cap_w, omega + aw * tau))
    cap = config.max_joint_vel
    qd = [min(max(v + a * tau, -cap), cap) for v, a in zip(qd, qdd)]

    # Base translation in the world frame; (vx, vy) are body-frame commands.
    c, s = math.cos(theta), math.sin(theta)
    base_pose = np.array([x + (c * vx - s * vy) * tau, y + (s * vx + c * vy) * tau,
                          theta + omega * tau])

    q = [p + v * tau for p, v in zip(q, qd)]
    limit_hit = False
    if clamping_enabled:
        margin = config.clamp_margin
        for k, (lo, hi) in enumerate(config.joint_limits):
            lo, hi = lo + margin, hi - margin
            p = q[k]
            q[k] = min(hi, max(lo, p))
            if not lo <= p <= hi:
                qd[k] = 0.0
    else:
        limit_hit = not all(lo <= p <= hi for p, (lo, hi) in zip(q, config.joint_limits))
    new_state = RobotState(base_pose, np.array([vx, vy, omega]), np.array(q), np.array(qd))
    return new_state, limit_hit
