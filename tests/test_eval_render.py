"""Evaluation harness, SVG rendering, and the command-line entry points.

A hand-written PD controller that provably reaches empty-corridor goals
serves as the oracle for the success-rate plumbing: it must score 100%,
the zero controller must score 0%, and repeated runs must emit byte-identical
reports and traces.
"""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from planarwbc import ppo as ppo_mod
from planarwbc import render as render_mod
from planarwbc.cli import main
from planarwbc.config import config_from_dict, default_config, save_config
from planarwbc.envs import EnvSpec, EpisodeConfig, generate_scene, new_episode
from planarwbc.evaluate import (EvalReport, episode_seed, eval_episode, eval_success_rate,
                                run_controller)
from planarwbc.pathfield import FREE
from planarwbc.policy import param_count, save_params
from planarwbc.ppo import TrainConfig
from planarwbc.render import render_scene
from planarwbc.robot import Action, LidarConfig, RobotConfig, RobotState, forward_kinematics
from planarwbc.world import cast_lidars


@pytest.mark.parametrize("command, flag", [("eval", "--checkpoint"), ("train", "--resume")])
@pytest.mark.parametrize("problem", ["missing", "corrupt"])
def test_cli_reports_unusable_checkpoints(cli_config, tmp_path, capsys, command, flag, problem):
    # A missing file, and a policy checkpoint with one flipped parameter bit
    # (its digest fails for eval, its magic for a training resume): one
    # error line and exit status 2, no traceback.
    ckpt = tmp_path / "given.ckpt"
    if problem == "corrupt":
        run = easy_run(time_limit=2.0)
        save_params(ckpt, run.policy, np.zeros(param_count(run.policy)))
        raw = bytearray(ckpt.read_bytes())
        raw[60] ^= 1
        ckpt.write_bytes(bytes(raw))
    code = main([command, "--config", str(cli_config), flag, str(ckpt),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"checkpoint error: {ckpt}: ")
    reason = {("eval", "missing"): "cannot read policy checkpoint",
              ("eval", "corrupt"): "payload digest mismatch",
              ("train", "missing"): "cannot read training checkpoint",
              ("train", "corrupt"): "not a training checkpoint"}[command, problem]
    assert reason in err[0]


def easy_run(time_limit=60.0, obstacles=(0, 0)):
    base = default_config()
    return replace(
        base,
        env=EnvSpec(kind="corridor", corridor_length_range=(6.0, 8.0),
                    corridor_obstacle_count=obstacles),
        episode=EpisodeConfig(tolerance=0.5, time_limit=time_limit, grid_cell=0.1),
        adr=replace(base.adr, enabled=False),
        train=TrainConfig(total_steps=48, steps_per_worker=48, minibatches=4,
                          epochs=1, checkpoint_interval=1),
    )


def pd_controller(episode, obs, rng):
    """Drive the base so the straight arm puts the EE on the goal.

    The base never rotates (theta stays 0), so body-frame acceleration
    commands equal world-frame ones and the EE sits 1 m ahead of the base.
    """
    state = episode.state
    ee_offset = np.array([1.0, 0.0])
    target = episode.goal_pose[:2] - ee_offset
    acc = 1.5 * (target - state.base_pose[:2]) - 2.5 * state.base_vel[:2]
    base_acc = np.array([acc[0], acc[1], -4.0 * state.base_vel[2]])
    joint_acc = -25.0 * state.joint_pos - 10.0 * state.joint_vel
    return Action(base_acc=base_acc, joint_acc=joint_acc)


def zero_controller(episode, obs, rng):
    return Action(base_acc=np.zeros(3), joint_acc=np.zeros(3))


def test_pd_oracle_controller_scores_full_success():
    report = run_controller(easy_run(), pd_controller, episodes=5, seed=2)
    assert report.success_rate == 1.0
    assert report.termination_counts["success"] == 5
    assert report.mean_final_distance is None
    assert report.episodes == 5
    assert report.tolerance == 0.5
    assert report.mean_length < 60.0 / 0.04


def test_zero_controller_times_out_everywhere():
    report = run_controller(easy_run(time_limit=2.0), zero_controller, episodes=4, seed=2)
    assert report.success_rate == 0.0
    assert report.termination_counts["timeout"] == 4
    assert report.mean_final_distance > 0.5
    assert report.mean_length == 50.0


@pytest.mark.parametrize("episodes", [0, -1])
def test_run_controller_rejects_fewer_than_one_episode(episodes):
    with pytest.raises(ValueError, match="episodes must be >= 1"):
        run_controller(easy_run(), zero_controller, episodes=episodes)


def test_reports_and_traces_are_byte_identical(tmp_path):
    run = easy_run(time_limit=2.0)
    outputs = []
    for k in range(2):
        trace = tmp_path / f"trace{k}.jsonl"
        report = run_controller(run, pd_controller, episodes=3, seed=9, trace_path=trace)
        outputs.append((report.to_json(), trace.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    other = run_controller(run, pd_controller, episodes=3, seed=10)
    assert other.to_json() != outputs[0][0]


def test_trace_replays_onto_regenerated_scenes(tmp_path):
    # Scenes are derived per-episode from the master seed; replaying a
    # trace's final state onto the regenerated scene must land the EE
    # inside the goal circle for successful episodes.
    run = easy_run()
    trace = tmp_path / "trace.jsonl"
    report = run_controller(run, pd_controller, episodes=3, seed=4, trace_path=trace)
    assert report.success_rate == 1.0
    finals = {}
    for line in trace.read_text().splitlines():
        rec = json.loads(line)
        finals[rec["episode"]] = rec
    seeds = np.random.SeedSequence(4).spawn(3)
    for i in range(3):
        episode = new_episode(run.env, run.robot, run.reward, run.episode,
                              np.random.default_rng(seeds[i]))
        state = RobotState(
            base_pose=np.asarray(finals[i]["base_pose"]),
            base_vel=np.asarray(finals[i]["base_vel"]),
            joint_pos=np.asarray(finals[i]["joint_pos"]),
            joint_vel=np.asarray(finals[i]["joint_vel"]),
        )
        ee = forward_kinematics(run.robot, state)[-1, :2]
        assert np.hypot(*(ee - episode.goal_pose[:2])) <= run.episode.tolerance
        assert finals[i]["terminated"] == "success"


def test_eval_success_rate_loads_checkpoint(tmp_path):
    run = easy_run(time_limit=2.0)
    ckpt = tmp_path / "policy.ckpt"
    save_params(ckpt, run.policy, np.zeros(param_count(run.policy)))
    report = eval_success_rate(run, ckpt, episodes=2, seed=0)
    assert isinstance(report, EvalReport)
    assert report.episodes == 2
    assert report.success_rate == 0.0  # zero net cannot hold any goal
    table = report.format_table()
    assert "success rate" in table
    assert "corridor" in table

    other = replace(run, network=replace(run.network, bins=5))
    with pytest.raises(ValueError, match="different policy config"):
        eval_success_rate(other, ckpt, episodes=1)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def scene_with_boxes():
    run = easy_run(obstacles=(1, 2))
    episode = new_episode(run.env, run.robot, run.reward, run.episode,
                          np.random.default_rng(1))
    assert len(episode.world.boxes) >= 1
    return run, episode


def test_render_scene_svg_structure():
    run, episode = scene_with_boxes()
    svg = render_scene(run.robot, episode.world, episode.state, episode.goal_pose,
                       episode.config.tolerance, path_points=episode.path.points)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<rect") >= len(episode.world.boxes)
    assert svg.count("<polyline") == 1  # reference path

    trace = np.array([[1.0, 1.0], [2.0, 1.2], [3.0, 1.1]])
    with_trace = render_scene(run.robot, episode.world, episode.state,
                              episode.goal_pose, episode.config.tolerance,
                              ee_trace=trace, path_points=episode.path.points)
    assert with_trace.count("<polyline") == 2

    with_lidar = render_scene(run.robot, episode.world, episode.state,
                              episode.goal_pose, episode.config.tolerance,
                              show_lidar=True)
    assert with_lidar.count("<line") >= svg.count("<line") + 2 * run.robot.lidar.beams


def test_render_is_deterministic():
    run, episode = scene_with_boxes()
    args = (run.robot, episode.world, episode.state, episode.goal_pose, 0.3)
    assert render_scene(*args) == render_scene(*args)


RAY = re.compile(r'<line x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)" '
                 r'stroke="#de2d26"')


def test_rendered_lidar_rays_follow_the_cast():
    # Sensors off the base center at a turned heading: each drawn ray starts
    # at its sensor's origin and ends at origin + range * (cos, sin) of the
    # cast, sensor-major, to the SVG's two decimals.
    run, episode = scene_with_boxes()
    config = RobotConfig(lidar=LidarConfig(beams=65, front_offset=(0.25, 0.05),
                                           rear_offset=(-0.25, 0.0)))
    state = replace(episode.state, base_pose=episode.state.base_pose + (0.0, 0.0, 0.7))
    svg = render_scene(config, episode.world, state, episode.goal_pose, 0.3, show_lidar=True)
    drawn = np.array(RAY.findall(svg), dtype=float)
    origins, directions = oracles.lidar_rays_rows(config, state)
    ends = origins + cast_lidars(config, state, episode.world).reshape(-1, 1) * directions
    xmin, ymin, xmax, ymax = episode.world.bounds
    pad, scale = render_mod._PAD, render_mod._SCALE

    def svg_point(p):
        return np.stack([(p[:, 0] - xmin + pad) * scale, (ymax - p[:, 1] + pad) * scale], axis=1)

    assert drawn.shape == (2 * 65, 4)
    np.testing.assert_allclose(drawn, np.hstack([svg_point(origins), svg_point(ends)]),
                               rtol=0.0, atol=0.005 + 1e-9)


# sha256 of `render --lidar --seed 3 --episode 1` on the default corridor and
# on gap_test scenes; a change to the sensor model or the cast moves them.
RENDER_LIDAR_SHA256 = {
    "corridor": "8bd50d40f424586f8b690c60cf9506a20225106bae0beb425eaffd72f7279720",
    "gap_test": "bc6857f36849d46039c81a8a23e082552a23b8faca8853b15f506888040e23bf",
}


@pytest.mark.parametrize("kind", sorted(RENDER_LIDAR_SHA256))
def test_render_lidar_svg_bytes_are_pinned(kind, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"env": {"kind": kind}}))
    out = tmp_path / "render"
    assert main(["render", "--lidar", "--config", str(config), "--seed", "3", "--episode", "1",
                 "--out", str(out)]) == 0
    svg = (out / "scene.svg").read_bytes()
    assert svg.count(b'stroke="#de2d26"') == 2 * default_config().robot.lidar.beams
    assert hashlib.sha256(svg).hexdigest() == RENDER_LIDAR_SHA256[kind]


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


@pytest.fixture()
def cli_config(tmp_path):
    path = tmp_path / "run.json"
    save_config(easy_run(time_limit=2.0), path)
    return path


def test_cli_inspect_env(cli_config, tmp_path, capsys):
    code = main(["inspect-env", "--config", str(cli_config), "--count", "2",
                 "--seed", "3", "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "scene 0: kind=corridor" in out
    assert "scene 1:" in out
    assert "path_length=" in out


def test_cli_hpf_dump(cli_config, tmp_path, capsys):
    out = tmp_path / "dump"
    code = main(["hpf-dump", "--config", str(cli_config), "--seed", "1", "--out", str(out)])
    assert code == 0
    # The planning resolution is the config's episode.grid_cell (0.1 m here).
    run = easy_run(time_limit=2.0)
    assert run.episode.grid_cell == 0.1
    raster = generate_scene(run.env, run.robot, np.random.default_rng(episode_seed(1, 0)),
                            run.episode.grid_cell).path_field
    h, w = raster.shape
    assert (out / "field.pgm").read_bytes().startswith(f"P5\n{w} {h}\n255\n".encode())
    payload = json.loads((out / "path.json").read_text())
    assert payload["total_length"] > 0
    assert len(payload["points"]) >= 2
    # The raster's size goes to stdout only, never into the written files.
    assert sorted(payload) == ["points", "total_length"]
    free = int(np.count_nonzero(raster.kind == FREE))
    assert f"raster: {h}x{w} cells, {free} free\n" in capsys.readouterr().out
    # A second dump writes the same bytes.
    again = tmp_path / "again"
    assert main(["hpf-dump", "--config", str(cli_config), "--seed", "1", "--out", str(again)]) == 0
    for name in ("field.pgm", "path.json"):
        assert (again / name).read_bytes() == (out / name).read_bytes()


def test_cli_eval_then_render_trace(cli_config, tmp_path, capsys):
    run = easy_run(time_limit=2.0)
    ckpt = tmp_path / "policy.ckpt"
    save_params(ckpt, run.policy, np.zeros(param_count(run.policy)))
    eval_out = tmp_path / "eval"
    code = main(["eval", "--config", str(cli_config), "--checkpoint", str(ckpt),
                 "--episodes", "1", "--seed", "5", "--trace",
                 "--out", str(eval_out)])
    assert code == 0
    assert "success rate" in capsys.readouterr().out
    report = json.loads((eval_out / "report.json").read_text())
    assert report["episodes"] == 1
    assert (eval_out / "trace.jsonl").exists()

    render_out = tmp_path / "render"
    code = main(["render", "--config", str(cli_config), "--seed", "5",
                 "--trace", str(eval_out / "trace.jsonl"), "--episode", "0",
                 "--out", str(render_out)])
    assert code == 0
    svg = (render_out / "scene.svg").read_text()
    assert svg.count("<polyline") == 2  # reference path + EE trace


def test_cli_train_writes_run_artifacts(cli_config, tmp_path, capsys):
    out = tmp_path / "train"
    code = main(["train", "--config", str(cli_config), "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["global_step"] == 48
    assert (out / "config.json").exists()
    assert (out / "policy.ckpt").exists()
    assert (out / "metrics.csv").exists()


def test_cli_train_seeds_from_config_unless_given(tmp_path):
    run = easy_run(time_limit=2.0)
    config = tmp_path / "run.json"
    save_config(replace(run, train=replace(run.train, seed=3)), config)
    for flags, seed in (([], 3), (["--seed", "4"], 4)):
        out = tmp_path / f"train{seed}"
        assert main(["train", "--config", str(config), "--out", str(out), *flags]) == 0
        assert json.loads((out / "config.json").read_text())["train"]["seed"] == seed


@pytest.mark.parametrize("command, flag, value", [
    ("inspect-env", "--count", "-1"),
    ("render", "--episode", "-1"),
    ("eval", "--episodes", "0"),
    ("hpf-dump", "--seed", "-1"),
], ids=["inspect-env-count", "render-episode", "eval-episodes", "hpf-dump-seed"])
def test_cli_rejects_out_of_range_integers_with_a_usage_error(tmp_path, capsys, command, flag,
                                                              value):
    trace = tmp_path / "trace.jsonl"
    trace.write_text("")
    extra = {"render": ["--trace", str(trace)], "eval": ["--checkpoint", str(tmp_path / "p")]}
    with pytest.raises(SystemExit) as exit_info:
        main([command, *extra.get(command, []), flag, value, "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"episode": {"tolerance": 0.9}}))
    code = main(["inspect-env", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


# At 0.2 m the inflated slot walls close or pinch the gap_train slot on every
# draw, so a reset rejects all its attempts.
UNPLANNABLE = {"env": {"kind": "gap_train"}, "episode": {"grid_cell": 0.2}}


@pytest.mark.parametrize("command", ["inspect-env", "train"])
def test_cli_reports_generation_errors(tmp_path, capsys, command):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(UNPLANNABLE))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("scene generation error: gap_train generation at grid_cell 0.2 "
                             "rejected all 100 attempts: ")


def test_cli_reports_a_failed_training_reset(tmp_path, capsys, monkeypatch):
    # A reset after the first fails inside the rollout, which names the
    # worker and keeps the generator's error as its cause.
    run = easy_run(time_limit=1.6)  # an episode ends within the 48-step rollout
    unplannable = config_from_dict(UNPLANNABLE)
    worker_episode = ppo_mod._worker_episode

    def later_resets_fail(run, worker, k, tolerance):
        if k > 0:
            run = replace(run, env=unplannable.env, episode=unplannable.episode)
        return worker_episode(run, worker, k, tolerance)

    monkeypatch.setattr(ppo_mod, "_worker_episode", later_resets_fail)
    config = tmp_path / "run.json"
    save_config(run, config)
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("scene generation error: worker 0: episode reset failed: "
                             "gap_train generation at grid_cell 0.2 rejected all 100 attempts: ")


@pytest.mark.parametrize("value", ["5", "nan", "-1", "0.04"])
def test_cli_rejects_tolerances_outside_the_range_with_a_usage_error(tmp_path, capsys, value):
    # Rejected before the checkpoint is read: the file does not exist.
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "--checkpoint", str(tmp_path / "p"), "--tolerance", value,
              "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert "argument --tolerance: must be in [0.05, 0.5], got " in capsys.readouterr().err


RECORD = {"episode": 1, "step": 1, "base_pose": [0.7, 1.0, 0.0], "joint_pos": [0.0, 0.0, 0.0]}


@pytest.mark.parametrize("problem", ["config_missing", "trace_missing", "trace_malformed",
                                     "trace_not_text", "trace_missing_keys",
                                     "trace_not_an_object", "trace_empty",
                                     "trace_other_episode", "trace_short_pose",
                                     "trace_pose_not_numbers", "trace_joint_count"])
def test_cli_reports_unreadable_inputs(cli_config, tmp_path, capsys, problem):
    # One error line naming the file and exit status 2, no traceback; also
    # for a trace that is not a record, holds no records of the episode, or
    # has a record whose pose or joint positions do not fit the robot.
    given = tmp_path / "given"
    if problem == "trace_not_text":
        given.write_bytes(b"\xff\xfe\x00")
    elif problem not in ("config_missing", "trace_missing"):
        record = json.dumps(RECORD) + "\n"
        given.write_text({"trace_malformed": '{"episode": 0}\n{not json\n',
                          "trace_missing_keys": record + '{"episode": 0, "step": 1}\n',
                          "trace_not_an_object": "[1, 2]\n",
                          "trace_empty": "",
                          "trace_other_episode": record,
                          "trace_short_pose": json.dumps(
                              {"episode": 0, "base_pose": [1.0], "joint_pos": [0, 0, 0]}),
                          "trace_pose_not_numbers": json.dumps(
                              {"episode": 0, "base_pose": "ab", "joint_pos": [0, 0, 0]}),
                          "trace_joint_count": json.dumps(
                              {"episode": 0, "base_pose": [1, 1, 0], "joint_pos": [0, 0]}),
                          }[problem])
    config = given if problem == "config_missing" else cli_config
    code = main(["render", "--config", str(config), "--trace", str(given),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    prefix = "configuration" if problem == "config_missing" else "trace"
    assert err[0].startswith(f"{prefix} error: {given}: ")
    reason = {"config_missing": "cannot read config: No such file or directory",
              "trace_missing": "cannot read trace: No such file or directory",
              "trace_malformed": "line 2 is not JSON",
              "trace_not_text": "codec can't decode",
              "trace_missing_keys": "line 2 is not a trace record",
              "trace_not_an_object": "line 1 is not a trace record",
              "trace_empty": "no records for episode 0",
              "trace_other_episode": "no records for episode 0",
              "trace_short_pose": "line 1: base_pose is not 3 finite numbers",
              "trace_pose_not_numbers": "line 1: base_pose is not 3 finite numbers",
              "trace_joint_count": "line 1: joint_pos is not 3 finite numbers"}[problem]
    assert reason in err[0]


@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_episode_seed_is_the_spawned_child(seed, cli_config, tmp_path, capsys):
    # Eval, render, inspect-env and hpf-dump all take episode i from
    # eval_episode, which derives its scene and generator from it.
    for index, child in enumerate(np.random.SeedSequence(seed).spawn(5)):
        ours = episode_seed(seed, index)
        assert ours.generate_state(8).tolist() == child.generate_state(8).tolist()
        assert (np.random.default_rng(ours).random(4).tolist()
                == np.random.default_rng(child).random(4).tolist())
    # eval_episode is new_episode on that child's generator, and hands the
    # generator on where the scene left it.
    run = easy_run(time_limit=2.0)
    scenes = []
    for index in (0, 2):
        rng = np.random.default_rng(episode_seed(seed, index))
        expected = new_episode(run.env, run.robot, run.reward, run.episode, rng)
        episode, ours = eval_episode(run, seed, index)
        assert episode.world.outline_planes.tobytes() == expected.world.outline_planes.tobytes()
        assert episode.state.base_pose.tobytes() == expected.state.base_pose.tobytes()
        assert episode.goal_pose.tobytes() == expected.goal_pose.tobytes()
        assert ours.random(4).tolist() == rng.random(4).tolist()
        scenes.append(expected)
    first, third = scenes
    # `hpf-dump` plans episode 0's scene, `render --episode 2` draws episode
    # 2's and `inspect-env` lists both, the scenes `eval --seed` runs.
    common = ["--config", str(cli_config), "--seed", str(seed)]
    assert main(["inspect-env", *common, "--count", "3", "--out", str(tmp_path)]) == 0
    listed = capsys.readouterr().out.splitlines()
    for line, episode in ((listed[0], first), (listed[2], third)):
        goal = episode.goal_pose
        assert f"goal=({goal[0]:.3f}, {goal[1]:.3f}, {goal[2]:.3f})" in line
        assert f"path_length={episode.path.total_length:.3f}" in line
    assert main(["hpf-dump", *common, "--out", str(tmp_path / "dump")]) == 0
    points = json.loads((tmp_path / "dump" / "path.json").read_text())["points"]
    assert points == first.path.points.tolist()
    assert main(["render", *common, "--episode", "2", "--out", str(tmp_path / "render")]) == 0
    expected = render_scene(run.robot, third.world, third.state, third.goal_pose,
                            third.config.tolerance, path_points=third.path.points)
    assert (tmp_path / "render" / "scene.svg").read_text() == expected
