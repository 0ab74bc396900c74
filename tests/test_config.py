"""Run configuration: merging, coercion, validation, and round-trips."""

import json
import re
import resource
import signal
from pathlib import Path

import numpy as np
import pytest

from planarwbc.config import (
    ConfigError,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from planarwbc.envs import EnvSpec, generate_scene
from planarwbc.policy import PolicyConfig, config_hash


def test_empty_document_yields_valid_defaults():
    config = config_from_dict({})
    assert config.validate() == []
    assert config == default_config()
    assert config.episode.tolerance == 0.3
    assert config.reward.progress_weight == 50.0
    assert config.train.gamma == 0.999
    assert config.adr.max_tolerance == 0.5


def test_nested_overrides_apply():
    config = config_from_dict(
        {
            "episode": {"tolerance": 0.2, "grid_cell": 0.1},
            "train": {"learning_rate": 1e-4, "workers": 2},
            "env": {"kind": "gap_train"},
            "reward": {"progress_weight": 25},
        }
    )
    assert config.episode.tolerance == 0.2
    assert config.train.learning_rate == 1e-4
    assert config.env.kind == "gap_train"
    assert config.reward.progress_weight == 25.0
    assert isinstance(config.reward.progress_weight, float)  # int coerced


def test_policy_defaults_follow_robot_overrides():
    config = config_from_dict({"robot": {"lidar": {"beams": 32}}})
    assert config.policy.scan_beams == 32
    assert config.policy.observation_size == 2 * 32 + 12
    assert config.validate() == []
    # The policy section sets the network's own sizes; the robot the rest.
    config = config_from_dict(
        {"robot": {"lidar": {"beams": 32}}, "policy": {"trunk_hidden": [64, 64]}}
    )
    assert config.policy.trunk_hidden == (64, 64)
    assert config.policy.scan_beams == 32


def test_unknown_keys_rejected_with_dotted_paths():
    with pytest.raises(ConfigError) as exc:
        config_from_dict(
            {"episode": {"tolerence": 0.2, "progress_ratchet": True}, "trian": {},
             "robot": {"lidar": {"bems": 3}}, "policy": {"scan_beams": 3, "obs_scale": [1.0]},
             "train": {"normalize_advantages": False, "clip_range_vf": 0.2}}
        )
    message = str(exc.value)
    assert "episode.tolerence: unknown key" in message
    assert "trian: unknown key" in message
    assert "robot.lidar.bems: unknown key" in message
    # The robot gives the policy's input sizes and scaling: a document that
    # sets them is rejected, not cross-checked against the robot.
    assert "policy.scan_beams: unknown key" in message
    assert "policy.obs_scale: unknown key" in message
    # Switches no run turned are gone with the code paths they selected.
    assert "episode.progress_ratchet: unknown key" in message
    assert "train.normalize_advantages: unknown key" in message
    assert "train.clip_range_vf: unknown key" in message


def test_type_errors_are_collected_not_first_only():
    with pytest.raises(ConfigError) as exc:
        config_from_dict(
            {
                "train": {"workers": 1.5, "seed": "zero"},
                "episode": {"variant": 3},
                "adr": {"enabled": "yes"},
            }
        )
    message = str(exc.value)
    assert "train.workers: expected an integer" in message
    assert "train.seed: expected an integer" in message
    assert "episode.variant: expected a string" in message
    assert "adr.enabled: expected a boolean" in message


@pytest.mark.parametrize("text, path", [
    ('{"adr": {"step": NaN}}', "adr.step"),
    ('{"train": {"learning_rate": Infinity}}', "train.learning_rate"),
    ('{"reward": {"safety_distance": Infinity}}', "reward.safety_distance"),
    ('{"episode": {"time_limit": Infinity}}', "episode.time_limit"),
    ('{"episode": {"time_limit": 1e400}}', "episode.time_limit"),
    ('{"episode": {"time_limit": 1' + "0" * 400 + '}}', "episode.time_limit"),
    ('{"robot": {"max_base_vel": [0.5, -Infinity, 1.0]}}', "robot.max_base_vel[1]"),
], ids=["nan", "infinity", "safety_infinity", "time_limit_infinity", "overflowing_float",
        "overflowing_integer", "array_element"])
def test_non_finite_numbers_are_rejected(text, path):
    # Accepted, NaN would poison the curriculum mid-run and an infinite time
    # limit overflow the episode's step count.
    with pytest.raises(ConfigError) as exc:
        config_from_dict(json.loads(text))
    assert exc.value.errors == [f"{path}: expected a finite number"]


def test_semantic_validation_cites_bounds():
    with pytest.raises(ConfigError, match=r"\[0.05, 0.5\]"):
        config_from_dict({"episode": {"tolerance": 0.6}})
    with pytest.raises(ConfigError, match="minibatches"):
        config_from_dict({"train": {"steps_per_worker": 10, "minibatches": 3}})
    with pytest.raises(ConfigError, match="scan_beams"):
        config_from_dict({"policy": {"scan_beams": 16}})
    # Gradient clipping always runs, so a norm bound of 0 is no way to turn it off.
    with pytest.raises(ConfigError, match="train.max_grad_norm must be > 0"):
        config_from_dict({"train": {"max_grad_norm": 0}})


@pytest.mark.parametrize("document,field", [
    ({"adr": {"min_tolerance": 0.01}}, "adr.min_tolerance must be in [0.05, 0.5]"),
    ({"adr": {"max_tolerance": 0.6}}, "adr.max_tolerance must be in [0.05, 0.5]"),
    ({"adr": {"min_tolerance": 0.3, "max_tolerance": 0.2}},
     "adr.need min_tolerance <= max_tolerance"),
    ({"reward": {"variant": "baseline"}}, "reward.variant: unknown key"),
    ({"robot": {"max_joint_vel": 0.0}}, "robot.max_joint_vel: must be > 0"),
    ({"robot": {"max_base_vel": [0.5, -0.5, 1.0]}}, "robot.max_base_vel[1]: must be > 0"),
    ({"train": {"seed": -1}}, "train.seed must be >= 0"),
    ({"policy": {"scan_hidden": [128]}}, "policy.scan_hidden: expected an array of 2"),
    ({"env": {"kind": "gap_test"}, "robot": {"base_radius": 0.15}},
     "env.kind: gap_test slot widths [0.25, 0.4] must lie within"),
    ({"env": {"corridor_width_range": [0.9, 1.2]}}, "env.corridor_width_range must satisfy"),
    ({"env": {"corridor_length_range": [1.0, 1.2]}}, "env.corridor_length_range must satisfy"),
    ({"env": {"corridor_length_range": [1.5, 1.6]}},
     "env.corridor_length_range must start beyond 1.75, where the spawned arm reaches"),
    ({"env": {"corridor_width_range": [1.6]}}, "env.corridor_width_range: expected an array of 2"),
    ({"robot": {"joint_limits": [[-2, 2, 1], [-2, 2], [-2, 2]]}},
     "robot.joint_limits[0]: expected an array of 2"),
    ({"robot": {"max_base_vel": [0.5]}}, "robot.max_base_vel: expected an array of 3"),
    ({"env": {"gap_goal_lateral_noise": -0.05}}, "env.gap_goal_lateral_noise must be >= 0"),
    ({"env": {"gap_goal_angle_noise": -0.5}}, "env.gap_goal_angle_noise must be >= 0"),
    ({"env": {"gap_joint_noise": -0.1}}, "env.gap_joint_noise must be >= 0"),
], ids=["adr_min_below_range", "adr_max_above_range", "adr_min_above_max", "reward_variant",
        "zero_joint_vel_cap", "negative_base_vel_cap", "negative_seed", "one_scan_layer",
        "base_fits_the_slot", "corridor_too_narrow", "corridor_too_short",
        "corridor_end_within_reach", "short_width_range", "long_limit_pair",
        "short_velocity_caps", "negative_lateral_noise", "negative_angle_noise",
        "negative_joint_noise"])
def test_config_that_validates_also_runs(document, field):
    # Each of these, if accepted, would fail part-way through a run (a
    # tolerance outside the episode's range, observation scales that divide
    # by a velocity cap, a seed SeedSequence refuses, a network layer without
    # a size, a corridor too short for its goal draw or a negative noise
    # amplitude, both a numpy error at every reset, a corridor whose end wall
    # the spawned arm reaches, a collision at every attempt, an array of the
    # wrong length, a bare ValueError or a failed first env_step), let the
    # base into a gap slot or a corridor box block it, or be silently ignored
    # (the variant is owned by the episode section).
    with pytest.raises(ConfigError) as exc:
        config_from_dict(document)
    assert field in str(exc.value)


def test_open_length_arrays_take_any_length():
    # tuple[float, ...] leaves the length to the field's own validation.
    config = config_from_dict({"robot": {"link_lengths": [0.3, 0.3, 0.2, 0.1],
                                         "joint_limits": [[-2, 2]] * 4}})
    assert config.robot.num_joints == 4


@pytest.mark.parametrize("document,field", [
    ({"robot": {"lidar": {"front_offset": [0.3, 0.0]}}},
     "robot.lidar.front_offset: must lie inside the base disk"),
    ({"robot": {"lidar": {"rear_offset": [-0.2, -0.25]}}},
     "robot.lidar.rear_offset: must lie inside the base disk"),
    ({"robot": {"base_radius": 0.2, "lidar": {"front_offset": [0.25, 0.05]}}},
     "robot.lidar.front_offset: must lie inside the base disk"),
    ({"robot": {"lidar": {"max_range": 0.25}}},
     "robot.lidar.max_range: must be >= reward.safety_distance"),
    ({"reward": {"safety_distance": 5.5}},
     "robot.lidar.max_range: must be >= reward.safety_distance"),
], ids=["front_on_the_rim", "rear_outside", "base_shrunk_around_it", "short_range",
        "long_safety_distance"])
def test_sensors_read_no_obstacle_nearer_than_the_body(document, field):
    # The safety margin reads the body clearance alone. That is the nearest
    # obstacle reading only while each sensor sits inside the base disk and
    # its range reaches the safety distance, so other sensor settings are
    # rejected.
    with pytest.raises(ConfigError) as exc:
        config_from_dict(document)
    assert field in str(exc.value)


def test_sensor_limits_admit_their_boundary():
    config = config_from_dict({"robot": {"lidar": {"max_range": 0.3,
                                                   "front_offset": [0.29, 0.0],
                                                   "rear_offset": [-0.25, 0.0]}}})
    assert config.robot.lidar.max_range == config.reward.safety_distance


def test_save_load_round_trip(tmp_path):
    config = config_from_dict(
        {"episode": {"tolerance": 0.25}, "train": {"seed": 7}, "env": {"kind": "gap_test"}}
    )
    path = tmp_path / "run.json"
    save_config(config, path)
    loaded = load_config(path)
    assert loaded == config
    # Saved form is canonical: saving the loaded config is byte-identical.
    save_config(loaded, tmp_path / "run2.json")
    assert path.read_bytes() == (tmp_path / "run2.json").read_bytes()


def test_save_keeps_the_old_config_when_a_rewrite_fails(tmp_path):
    # A rewrite whose write fails part way (here at a 16-byte file-size
    # limit, as on a full disk) leaves the old file and no temporary file.
    path = tmp_path / "config.json"
    save_config(default_config(), path)
    before = path.read_bytes()
    changed = config_from_dict({"train": {"seed": 7}})
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    handler = signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
    resource.setrlimit(resource.RLIMIT_FSIZE, (16, hard))
    try:
        with pytest.raises(OSError):
            save_config(changed, path)
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
        signal.signal(signal.SIGXFSZ, handler)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    assert path.read_bytes() == before
    save_config(changed, path)
    assert load_config(path) == changed


def test_load_rejects_malformed_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(bad)
    array_root = tmp_path / "array.json"
    array_root.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(array_root)


def test_config_dict_round_trips_through_json():
    data = config_to_dict(default_config())
    assert set(data) == {"robot", "reward", "episode", "env", "adr", "train", "policy"}
    # JSON demotes tuples to arrays; merging coerces them back.
    rebuilt = config_from_dict(json.loads(json.dumps(data)))
    assert rebuilt == default_config()


def test_obs_scale_derivation_matches_robot():
    config = default_config()
    scale = np.asarray(config.policy.obs_scale)
    assert scale.shape == (config.policy.observation_size,)
    assert np.all(scale[:128] == 1.0)  # normalized scans pass through
    assert scale[128] == pytest.approx(1.0 / 2.0)  # joint position limit
    assert scale[-1] == pytest.approx(1.0 / np.pi)  # goal heading
    # The scale is part of the policy's config hash, which checkpoints carry.
    assert config_hash(config.policy).hex() == (
        "c2f25b30d339a999acf50ce7b7259f1f2ca78eac20a59cb2804901f832648079"
    )

    tweaked = config_from_dict({"robot": {"max_joint_vel": 3.0}})
    derived = PolicyConfig.for_robot(tweaked.robot)
    assert tweaked.policy.obs_scale == derived.obs_scale


@pytest.mark.parametrize("kind", ["gap_train", "gap_test"])
def test_gap_kind_in_a_config_draws_its_own_slots(kind):
    config = config_from_dict({"env": {"kind": kind}})
    spec = getattr(EnvSpec, kind)()
    assert config.env == spec
    for seed in (0, 1, 2):
        scenes = [generate_scene(s, config.robot, np.random.default_rng(seed),
                                 config.episode.grid_cell) for s in (config.env, spec)]
        assert np.array_equal(scenes[0].world.boxes, scenes[1].world.boxes)
        assert np.array_equal(scenes[0].goal, scenes[1].goal)


def test_readme_config_example_loads():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = re.search(r"A config file only lists overrides:\n\n```json\n(.*?)```", readme,
                        re.DOTALL)
    config = config_from_dict(json.loads(example.group(1)))
    assert config.network.trunk_hidden == (256, 128)
