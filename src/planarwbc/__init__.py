"""Whole-body control for a planar mobile manipulator.

A deterministic planar simulator (kinematics, clamping dynamics, capsule
collision, LIDAR), procedural corridor and gap environments, a harmonic
potential field path planner, a shaped tracking reward with goal-hold
accounting, an automatic tolerance curriculum, and a from-scratch PPO
trainer over a discretized acceleration policy.

Matrix products may round differently on more BLAS threads, and a fixed
seed reproduces training bit for bit only for a fixed thread count. Before
numpy is first imported, OpenBLAS and OpenMP default to one thread; a count
set in the environment is kept.
"""
import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .adr import AdrConfig, AdrState, current_tolerance, fresh_state, record_episode
from .config import ConfigError, RunConfig, config_from_dict, config_to_dict, default_config, load_config, save_config
from .envs import (
    EnvSpec,
    Episode,
    EpisodeConfig,
    GenerationError,
    Scene,
    StepOutcome,
    env_step,
    generate_scene,
    make_episode,
    new_episode,
    plan_path,
)
from .evaluate import EvalReport, eval_success_rate, run_controller
from .pathfield import (
    FieldError,
    GridField,
    PathPolyline,
    field_to_pgm,
    path_metrics,
)
from .policy import Policy, PolicyConfig, init_params, load_params, save_params
from .ppo import TrainConfig, TrainerState, compute_gae, init_trainer, ppo_update, train_loop
from .render import render_scene
from .reward import RewardParams, RewardState, compute_step_reward, terminal_reward
from .robot import Action, LidarConfig, RobotConfig, RobotState, forward_kinematics, step_dynamics
from .world import WorldGeometry, cast_lidar, collision_check

__version__ = "0.1.0"

__all__ = [
    "Action",
    "AdrConfig",
    "AdrState",
    "ConfigError",
    "EnvSpec",
    "EpisodeConfig",
    "Episode",
    "EvalReport",
    "FieldError",
    "GenerationError",
    "GridField",
    "LidarConfig",
    "PathPolyline",
    "Policy",
    "PolicyConfig",
    "RewardParams",
    "RewardState",
    "RobotConfig",
    "RobotState",
    "RunConfig",
    "Scene",
    "StepOutcome",
    "TrainConfig",
    "TrainerState",
    "WorldGeometry",
    "cast_lidar",
    "collision_check",
    "compute_gae",
    "compute_step_reward",
    "config_from_dict",
    "config_to_dict",
    "current_tolerance",
    "default_config",
    "env_step",
    "eval_success_rate",
    "field_to_pgm",
    "forward_kinematics",
    "fresh_state",
    "generate_scene",
    "init_params",
    "init_trainer",
    "load_config",
    "load_params",
    "make_episode",
    "new_episode",
    "path_metrics",
    "plan_path",
    "ppo_update",
    "record_episode",
    "render_scene",
    "run_controller",
    "save_config",
    "save_params",
    "step_dynamics",
    "terminal_reward",
    "train_loop",
    "__version__",
]
