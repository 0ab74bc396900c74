"""Spans and counts around the program's public functions, for the traced run.

``instrument`` swaps module attributes for wrappers only while its block
runs and restores them afterwards; the program itself is never edited. A
span records (name, start, end, parent); the parent is the span open when
the call began, so a span's self time is its duration minus its children's.
Count-only wrappers keep the cheapest functions (scalar distances, tensor
construction) from dominating the trace.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import statistics
import sys
import time
from contextlib import contextmanager

ROOT = -1

# (module, attribute, kind). A module-level function is swapped in every
# planarwbc module that imported it by name; "Class.method" on the class.
TARGETS = (
    ("planarwbc.ppo", "train_loop", "span"),
    ("planarwbc.ppo", "collect_rollouts", "span"),
    ("planarwbc.ppo", "compute_gae", "span"),
    ("planarwbc.ppo", "ppo_update", "span"),
    ("planarwbc.ppo", "ppo_loss", "span"),
    ("planarwbc.ppo", "adam_step", "span"),
    ("planarwbc.ppo", "save_train_checkpoint", "span"),
    ("planarwbc.policy", "Policy.forward", "span"),
    ("planarwbc.policy", "Policy.graph_forward", "span"),
    ("planarwbc.policy", "sample_action", "span"),
    ("planarwbc.policy", "save_params", "span"),
    ("planarwbc.autodiff", "Tensor.backward", "span"),
    ("planarwbc.autodiff", "Tensor.__init__", "count"),
    ("planarwbc.evaluate", "run_controller", "span"),
    ("planarwbc.envs", "new_episode", "span"),
    ("planarwbc.envs", "generate_scene", "span"),
    ("planarwbc.envs", "env_step", "span"),
    ("planarwbc.envs", "build_observation", "count"),
    ("planarwbc.pathfield", "rasterize_world", "span"),
    ("planarwbc.pathfield", "solve_harmonic", "span"),
    ("planarwbc.pathfield", "extract_path", "span"),
    ("planarwbc.pathfield", "path_metrics", "span"),
    ("planarwbc.world", "collision_check", "span"),
    ("planarwbc.world", "cast_lidar", "span"),
    ("planarwbc.world", "body_obstacle_clearance", "span"),
    ("planarwbc.robot", "step_dynamics", "span"),
    ("planarwbc.reward", "compute_step_reward", "span"),
    ("planarwbc.geometry", "point_segment_distance", "count"),
    ("planarwbc.geometry", "point_box_distance", "count"),
    ("planarwbc.geometry", "segment_segment_distance", "count"),
    ("planarwbc.geometry", "segment_box_distance", "count"),
)
DISTANCE_FUNCTIONS = tuple(attr for _, attr, _ in TARGETS if attr.endswith("_distance"))
STEP = "env_step"


class Tracer:
    """In-memory spans and counts of one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or ROOT]
        self.counts: dict[str, int] = {}
        self.step_counts: dict[str, int] = {}  # counts made inside env_step
        self.cells: dict[int, int] = {}  # solve_harmonic span -> grid cells
        self.scene_keys: list[str] = []  # per reset: world bytes + goal cell
        self.checkpoint_bytes: list[int] = []
        self._stack = [ROOT]
        self._in_step = 0

    def span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_step = name == STEP

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1]]
            stack.append(index)
            spans.append(record)
            self._in_step += is_step
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self._in_step -= is_step
                stack.pop()
            self._note(name, index, args, result)
            return result

        return wrapper

    def count(self, name, fn):
        counts, step_counts = self.counts, self.step_counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if self._in_step:
                step_counts[name] = step_counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _note(self, name, index, args, result):
        if name == "solve_harmonic":
            self.cells[index] = int(args[0].kind.size)
        elif name == "new_episode":
            world = result.world
            digest = hashlib.sha256(world.segments.tobytes() + world.boxes.tobytes()
                                    + repr(world.bounds).encode())
            self.scene_keys.append(f"{digest.hexdigest()}:{result.path_field.goal_cell}")
        elif name == "save_train_checkpoint":
            self.checkpoint_bytes.append(os.path.getsize(args[0]))


def _resolve(owner, path):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def instrument(tracer: Tracer):
    """Swap every target for its wrapper; restore the originals on exit."""
    swapped = []  # (owner, attribute, original)
    try:
        for module_name, path, kind in TARGETS:
            owner, attr = _resolve(importlib.import_module(module_name), path)
            original = getattr(owner, attr)
            name = path.rsplit(".", 1)[-1] if kind == "span" else path
            wrapper = getattr(tracer, kind)(name, original)
            owners = [owner]
            if "." not in path:
                owners += [m for n, m in list(sys.modules.items())
                           if (n == "planarwbc" or n.startswith("planarwbc."))
                           and m is not owner and getattr(m, attr, None) is original]
            for o in owners:
                swapped.append((o, attr, original))
                setattr(o, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(swapped):
            setattr(owner, attr, original)


def tail(values):
    """The largest sample with at least ten samples above it.

    Below 21 samples that point would not lie above the median, so the
    maximum stands in for it.
    """
    ordered = sorted(values)
    return ordered[len(ordered) - 11] if len(ordered) > 20 else ordered[-1]


class _Totals:
    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.step_calls = 0  # calls made inside env_step
        self.step_total = 0.0
        self.durations: list[float] = []


def summarize(tracer: Tracer) -> tuple[dict[str, _Totals], float, float]:
    """(totals by span name, traced wall time, sum of all self times)."""
    spans = tracer.spans
    duration = [end - start for _, start, end, _ in spans]
    children = [0.0] * len(spans)
    in_step = [False] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent != ROOT:
            children[parent] += duration[i]
            # A parent is recorded before its children.
            in_step[i] = in_step[parent] or spans[parent][0] == STEP
    by_name: dict[str, _Totals] = {}
    for i, (name, _, _, _) in enumerate(spans):
        totals = by_name.setdefault(name, _Totals())
        totals.calls += 1
        totals.total += duration[i]
        totals.self_time += duration[i] - children[i]
        totals.durations.append(duration[i])
        if in_step[i]:
            totals.step_calls += 1
            totals.step_total += duration[i]
    wall = sum(d for d, (_, _, _, parent) in zip(duration, spans) if parent == ROOT)
    return by_name, wall, sum(d - c for d, c in zip(duration, children))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, dict]:
    """Every per-layer metric as {name: {"value", "unit"}}.

    A metric whose layer does not run on the workload reads 0.0.
    """
    by_name, wall, _ = summarize(tracer)
    get = lambda name: by_name.get(name, _Totals())  # noqa: E731
    steps = get(STEP).calls
    resets = get("new_episode").calls
    minibatches = get("ppo_loss").calls
    iterations = get("ppo_update").calls
    # Top-level solves are those not called by the coarse-level recursion.
    top_time = top_cells = top_solves = 0
    for i, (name, start, end, parent) in enumerate(tracer.spans):
        if name == "solve_harmonic" and (parent == ROOT
                                         or tracer.spans[parent][0] != "solve_harmonic"):
            top_time += end - start
            top_cells += tracer.cells[i]
            top_solves += 1
    seen: set[str] = set()
    repeats = 0
    for key in tracer.scene_keys:
        repeats += key in seen
        seen.add(key)
    resets_s = get("new_episode").durations
    steps_s = get(STEP).durations
    distance_calls = sum(tracer.step_counts.get(name, 0) for name in DISTANCE_FUNCTIONS)
    per_step_us = lambda name: 1e6 * _ratio(get(name).step_total, steps)  # noqa: E731
    per_call = lambda name: _ratio(get(name).total, get(name).calls)  # noqa: E731
    values = [
        ("pathfield.solve_harmonic.s_per_reset", "s", _ratio(top_time, resets)),
        ("pathfield.solve_harmonic.calls_per_reset", "count",
         _ratio(get("solve_harmonic").calls, resets)),
        ("pathfield.solve_harmonic.us_per_cell", "us", 1e6 * _ratio(top_time, top_cells)),
        ("pathfield.rasterize_world.calls_per_reset", "count",
         _ratio(get("rasterize_world").calls, resets)),
        ("pathfield.rasterize_world.s_per_reset", "s", _ratio(get("rasterize_world").total,
                                                              resets)),
        ("pathfield.extract_path.s_per_reset", "s", _ratio(get("extract_path").total, resets)),
        ("pathfield.grid_cells_per_reset", "count", _ratio(top_cells, top_solves)),
        ("pathfield.repeat_scene_share", "share", _ratio(repeats, len(tracer.scene_keys))),
        ("pathfield.path_metrics.us_per_step", "us", per_step_us("path_metrics")),
        ("envs.new_episode.s_p50", "s", statistics.median(resets_s) if resets_s else 0.0),
        ("envs.new_episode.s_tail", "s", tail(resets_s) if resets_s else 0.0),
        ("envs.new_episode.share", "share", _ratio(get("new_episode").total, wall)),
        ("envs.generate_scene.self_s_per_reset", "s", _ratio(get("generate_scene").self_time,
                                                             resets)),
        ("envs.resets_per_1k_steps", "count", 1000.0 * _ratio(resets, steps)),
        ("envs.env_step.us_p50", "us", 1e6 * statistics.median(steps_s) if steps_s else 0.0),
        ("envs.env_step.us_tail", "us", 1e6 * tail(steps_s) if steps_s else 0.0),
        ("envs.env_step.self_us", "us", 1e6 * _ratio(get(STEP).self_time, steps)),
        ("envs.env_step.share", "share", _ratio(get(STEP).total, wall)),
        ("envs.build_observation.calls_per_step", "count",
         _ratio(tracer.step_counts.get("build_observation", 0), steps)),
        ("world.collision_check.us_per_step", "us", per_step_us("collision_check")),
        ("world.cast_lidar.us_per_call", "us", 1e6 * per_call("cast_lidar")),
        ("world.cast_lidar.calls_per_step", "count", _ratio(get("cast_lidar").step_calls,
                                                            steps)),
        ("world.body_obstacle_clearance.us_per_step", "us",
         per_step_us("body_obstacle_clearance")),
        ("geometry.distance_calls_per_step", "count", _ratio(distance_calls, steps)),
        ("robot.step_dynamics.us_per_step", "us", per_step_us("step_dynamics")),
        ("reward.compute_step_reward.us_per_step", "us", per_step_us("compute_step_reward")),
        ("policy.forward.us_per_call", "us", 1e6 * per_call("forward")),
        ("policy.sample_action.us_per_call", "us", 1e6 * per_call("sample_action")),
        ("policy.graph_forward.ms_per_minibatch", "ms",
         1e3 * _ratio(get("graph_forward").total, minibatches)),
        ("policy.save_params.ms", "ms", 1e3 * per_call("save_params")),
        ("autodiff.backward.ms_per_minibatch", "ms", 1e3 * _ratio(get("backward").total,
                                                                  minibatches)),
        ("autodiff.tensors_per_minibatch", "count",
         _ratio(tracer.counts.get("Tensor.__init__", 0), minibatches)),
        ("ppo.collect_rollouts.s_per_iter", "s", _ratio(get("collect_rollouts").total,
                                                        iterations)),
        ("ppo.ppo_update.s_per_iter", "s", _ratio(get("ppo_update").total, iterations)),
        ("ppo.update.share", "share", _ratio(get("ppo_update").total, wall)),
        ("ppo.ppo_loss.self_ms_per_minibatch", "ms", 1e3 * _ratio(get("ppo_loss").self_time,
                                                                  minibatches)),
        ("ppo.adam_step.ms_per_minibatch", "ms", 1e3 * _ratio(get("adam_step").total,
                                                              minibatches)),
        ("ppo.compute_gae.ms_per_iter", "ms", 1e3 * _ratio(get("compute_gae").total,
                                                           iterations)),
        ("ppo.save_train_checkpoint.ms", "ms", 1e3 * per_call("save_train_checkpoint")),
        ("ppo.checkpoint_bytes", "bytes", _ratio(sum(tracer.checkpoint_bytes),
                                                 len(tracer.checkpoint_bytes))),
        ("evaluate.run_controller.s", "s", per_call("run_controller")),
        ("trace.overhead", "ratio", overhead),
    ]
    return {name: {"value": value, "unit": unit} for name, unit, value in values}
