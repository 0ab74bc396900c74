"""Whole episodes' step streams, pinned by one SHA-256.

Every env_step output of a few fixed episodes feeds the digest: the
observation's bytes, repr of the reward, the termination and repr of every
info value. The episodes run the step's every stage under both variants:

- two gap_test scenes under baseline, the base parked short of the slot by a
  PD controller while the arm holds its spawn fold, as the stand-off
  benchmark drives them;
- one gap_test scene under baseline whose controller straightens the arm,
  then drives the base to the slot mouth until the arm holds the goal, so
  the body query's exact pass runs, the safety-margin shortfall is paid and
  the episode ends in success;
- one corridor scene under clamping, driven by a fixed random action sequence.

A speed-up of any stage must leave the digest unchanged.
"""
import hashlib
import math

import numpy as np

from planarwbc import world as world_mod
from planarwbc.envs import EnvSpec, EpisodeConfig, env_step, new_episode
from planarwbc.reward import RewardParams
from planarwbc.robot import Action, RobotConfig

ROBOT = RobotConfig()
PARAMS = RewardParams()
STEPS = 300

STEP_STREAM_SHA256 = "44e395e4a9d6e90ce8290b4ff7713d13abe4f119c65997fbb722af12c9a3e18d"


def pd_action(episode, target_xy, joint_target=None):
    """Base PD toward target_xy at heading 0; joints damped, or PD toward joint_target."""
    st = episode.state
    x, y, theta = st.base_pose.tolist()
    c, s = math.cos(theta), math.sin(theta)
    ex, ey = target_xy[0] - x, target_xy[1] - y
    error = np.array([c * ex + s * ey, -s * ex + c * ey, math.remainder(-theta, 2.0 * math.pi)])
    limit = np.asarray(ROBOT.max_base_acc)
    base_acc = np.clip(2.0 * error - 3.0 * st.base_vel, -limit, limit)
    joint_acc = -3.0 * st.joint_vel
    if joint_target is not None:
        joint_acc += 4.0 * (np.asarray(joint_target) - st.joint_pos)
    joint_acc = np.clip(joint_acc, -ROBOT.max_joint_acc, ROBOT.max_joint_acc)
    return Action(base_acc=base_acc, joint_acc=joint_acc)


def standoff(episode):
    _, ymin, _, ymax = episode.world.bounds
    return pd_action(episode, (episode.world.boxes[:, 0].min() - 1.0, 0.5 * (ymin + ymax)))


def insert_arm(episode):
    """Straighten the arm well short of the wall, then drive to the slot mouth."""
    boxes = episode.world.boxes
    back = 1.3 if episode.step_count < 80 else ROBOT.base_radius + 0.02
    mouth = (boxes[:, 0].min() - back, 0.5 * (boxes[0, 3] + boxes[1, 1]))
    return pd_action(episode, mouth, joint_target=(0.0, 0.0, 0.0))


def fixed_actions(seed):
    rng = np.random.default_rng(seed)

    def controller(episode):
        return Action(base_acc=rng.uniform(-1.0, 1.0, 3), joint_acc=rng.uniform(-2.0, 2.0, 3))
    return controller


def update(digest, outcome):
    digest.update(outcome.observation.tobytes())
    digest.update(repr(outcome.reward).encode())
    digest.update(repr(outcome.terminated).encode())
    for key, value in sorted(outcome.info.items()):
        digest.update(f"{key}={value!r};".encode())


def test_step_stream_is_pinned(monkeypatch):
    exact_passes = []
    pairs_distance = world_mod.segment_pairs_distance

    def counted(*args):
        exact_passes.append(1)
        return pairs_distance(*args)

    monkeypatch.setattr(world_mod, "segment_pairs_distance", counted)
    episodes = [
        (EnvSpec.gap_test(), "baseline", 11, standoff),
        (EnvSpec.gap_test(), "baseline", 12, standoff),
        (EnvSpec.gap_test(), "baseline", 13, insert_arm),
        (EnvSpec(kind="corridor"), "clamping", 14, fixed_actions(14)),
    ]
    digest = hashlib.sha256()
    steps, terminations, shortfalls = [], [], 0
    for spec, variant, seed, controller in episodes:
        episode = new_episode(spec, ROBOT, PARAMS, EpisodeConfig(variant=variant),
                              np.random.default_rng(seed))
        digest.update(episode.observation().tobytes())
        exact_passes.clear()
        while episode.terminated is None and episode.step_count < STEPS:
            outcome = env_step(episode, controller(episode))
            assert outcome.info.keys() == {"goal_distance", "reward_terms"}
            update(digest, outcome)
            shortfalls += outcome.info["reward_terms"]["safety_margin"] < 0.0
        steps.append((episode.step_count, len(exact_passes)))
        terminations.append(episode.terminated)
    # The stand-off episodes run their steps on the broad phase alone; the
    # inserted arm reaches the exact pass, pays the safety margin and holds.
    assert steps[:2] == [(STEPS, 0), (STEPS, 0)] and steps[2][1] > 0
    assert terminations == [None, None, "success", "collision"] and shortfalls > 0
    assert digest.hexdigest() == STEP_STREAM_SHA256, (digest.hexdigest(), steps)
