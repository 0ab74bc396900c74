"""Command-line entry points: train, eval, inspect-env, hpf-dump, render.

Every subcommand takes --config (JSON, defaults applied for absent fields),
--seed, and --out; the default output directory comes from the PLANARWBC_OUT
environment variable when set. `train` seeds from train.seed unless --seed
is given; the other subcommands default the master seed to 0.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, default_config, load_config, save_config
from .envs import GenerationError
from .evaluate import eval_success_rate, seeded_episode
from .pathfield import FREE, field_to_pgm
from .policy import CheckpointError
from .ppo import train_loop
from .render import render_scene
from .reward import TOLERANCE_RANGE
from .robot import forward_kinematics


class TraceError(ValueError):
    """A trace file that cannot be read or parsed."""


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _tolerance(text: str) -> float:
    """argparse type: a goal tolerance within reward.TOLERANCE_RANGE."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    lo, hi = TOLERANCE_RANGE
    if not lo <= value <= hi:  # NaN too
        raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {text}")
    return value


def _add_common(sub: argparse.ArgumentParser, seed: int | None = 0) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="JSON run configuration (defaults when omitted)")
    sub.add_argument("--seed", type=_int_at_least(0), default=seed,
                     help="master seed" if seed is not None
                     else "master seed (default: train.seed of the config)")
    sub.add_argument("--out", type=Path,
                     default=Path(os.environ.get("PLANARWBC_OUT", "out")),
                     help="output directory (default: $PLANARWBC_OUT or ./out)")


def _load_run(args):
    if args.config is not None:
        return load_config(args.config)
    return default_config()


def _cmd_train(args) -> int:
    run = _load_run(args)
    if args.seed is not None:
        run = replace(run, train=replace(run.train, seed=args.seed))
    args.out.mkdir(parents=True, exist_ok=True)
    save_config(run, args.out / "config.json")
    summary = train_loop(run, args.out, resume=args.resume)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    run = _load_run(args)
    args.out.mkdir(parents=True, exist_ok=True)
    report = eval_success_rate(
        run,
        args.checkpoint,
        episodes=args.episodes,
        seed=args.seed,
        tolerance=args.tolerance,
        sample=args.sample,
        trace_path=(args.out / "trace.jsonl") if args.trace else None,
    )
    (args.out / "report.json").write_text(report.to_json())
    print(report.format_table())
    return 0


def _cmd_inspect_env(args) -> int:
    run = _load_run(args)
    for i in range(args.count):
        episode, _ = seeded_episode(run, args.seed, (i,))
        goal = episode.goal_pose
        print(
            f"scene {i}: kind={run.env.kind} boxes={len(episode.world.boxes)} "
            f"bounds={tuple(round(b, 2) for b in episode.world.bounds)} "
            f"goal=({goal[0]:.3f}, {goal[1]:.3f}, {goal[2]:.3f}) "
            f"path_length={episode.path.total_length:.3f}"
        )
    return 0


def _cmd_hpf_dump(args) -> int:
    run = _load_run(args)
    episode, _ = seeded_episode(run, args.seed, (0,))
    raster, path = episode.path_field, episode.path
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "field.pgm").write_bytes(field_to_pgm(raster))
    (args.out / "path.json").write_text(
        json.dumps({"points": path.points.tolist(),
                    "total_length": path.total_length}, indent=2) + "\n"
    )
    print(f"wrote {args.out / 'field.pgm'} and {args.out / 'path.json'} "
          f"(path length {path.total_length:.3f} m)")
    h, w = raster.shape
    free = int(np.count_nonzero(raster.kind == FREE))
    print(f"raster: {h}x{w} cells, {free} free")
    return 0


TRACE_KEYS = ("episode", "base_pose", "joint_pos")  # what `render` reads of a record


def _trace_vector(rec: dict, key: str, size: int, where: str) -> np.ndarray:
    """rec[key] as an array of size finite numbers, or TraceError naming where."""
    try:
        value = np.asarray(rec[key], dtype=float)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value.shape != (size,) or not np.isfinite(value).all():
        raise TraceError(f"{where}: {key} is not {size} finite numbers")
    return value


def _read_trace(path, episode_index: int, num_joints: int):
    """The (base_pose, joint_pos) arrays of one episode's records in an `eval --trace` file.

    Raises TraceError, naming path, for a file that cannot be read as text,
    a line that is not JSON or not a trace record (an object with the
    TRACE_KEYS), a record of the episode whose pose is not 3 finite numbers
    or whose joint positions are not num_joints finite numbers, and a trace
    without records of the episode.
    """
    poses = []
    not_record = None  # its first line; one that is not JSON is reported before it
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, 1):
                rec = json.loads(line)
                if not (isinstance(rec, dict) and all(key in rec for key in TRACE_KEYS)):
                    not_record = not_record or number
                elif rec["episode"] == episode_index:
                    where = f"{path}: line {number}"
                    poses.append((_trace_vector(rec, "base_pose", 3, where),
                                  _trace_vector(rec, "joint_pos", num_joints, where)))
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: line {number} is not JSON: {exc.msg}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise TraceError(f"{path}: cannot read trace: {reason}") from None
    if not_record is not None:
        raise TraceError(f"{path}: line {not_record} is not a trace record "
                         f"(an object with the keys {', '.join(TRACE_KEYS)})")
    if not poses:
        raise TraceError(f"{path}: no records for episode {episode_index}")
    return poses


def _cmd_render(args) -> int:
    run = _load_run(args)
    poses = [] if args.trace is None else _read_trace(args.trace, args.episode,
                                                      run.robot.num_joints)
    episode, _ = seeded_episode(run, args.seed, (args.episode,))
    state, ee_trace = episode.state, []
    for base_pose, joint_pos in poses:
        state = replace(state, base_pose=base_pose, joint_pos=joint_pos)
        ee_trace.append(forward_kinematics(run.robot, state)[-1, :2])
    svg = render_scene(
        run.robot, episode.world, state, episode.goal_pose,
        episode.config.tolerance, ee_trace=ee_trace, show_lidar=args.lidar,
        path_points=episode.path.points,
    )
    args.out.mkdir(parents=True, exist_ok=True)
    target = args.out / "scene.svg"
    target.write_text(svg)
    print(f"wrote {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarwbc",
        description="Whole-body control for a planar mobile manipulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run PPO training")
    _add_common(p, seed=None)
    p.add_argument("--resume", type=Path, default=None,
                   help="training checkpoint to resume from")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a policy checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--episodes", type=_int_at_least(1), default=100)
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="fixed goal tolerance (default: episode config value)")
    p.add_argument("--sample", action="store_true",
                   help="sample actions instead of greedy argmax")
    p.add_argument("--trace", action="store_true",
                   help="write per-step JSONL traces to <out>/trace.jsonl")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inspect-env", help="generate and summarize scenes")
    _add_common(p)
    p.add_argument("--count", type=_int_at_least(1), default=5)
    p.set_defaults(func=_cmd_inspect_env)

    p = sub.add_parser("hpf-dump", help="dump a potential field PGM and path JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_hpf_dump)

    p = sub.add_parser("render", help="render a scene (optionally with a trace) to SVG")
    _add_common(p)
    p.add_argument("--lidar", action="store_true", help="draw LIDAR rays")
    p.add_argument("--trace", type=Path, default=None,
                   help="JSONL trace from `eval --trace` to overlay")
    p.add_argument("--episode", type=_int_at_least(0), default=0,
                   help="eval episode index: its scene, and its records in --trace")
    p.set_defaults(func=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 2
    except TraceError as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # A GenerationError, bare or as the cause of the trainer's failed reset.
        if not isinstance(exc, GenerationError) and not isinstance(exc.__cause__, GenerationError):
            raise
        print(f"scene generation error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
