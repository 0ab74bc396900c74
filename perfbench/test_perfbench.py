"""Tests of the benchmark itself, on shortened units.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from planarwbc import envs, ppo  # noqa: E402
from planarwbc.policy import Policy  # noqa: E402
from planarwbc.robot import Action  # noqa: E402


def small_train_unit(out_dir, seed=3):
    run = workloads.train_run(envs.EnvSpec.gap_train(), seed)
    run = replace(run, train=replace(run.train, steps_per_worker=64, total_steps=64,
                                     epochs=2, minibatches=4))
    return workloads.TrainUnit(run, out_dir)


def small_eval_unit(out_dir, seed=3):
    run = workloads.eval_run()
    return workloads.EvalUnit(replace(run, episode=replace(run.episode, time_limit=2.0)),
                              seed, out_dir)


def run_unit(unit, tracer=None):
    result = workloads.UnitResult()
    if tracer is None:
        output = unit.call()
    else:
        with tracing.instrument(tracer):
            output = unit.call()
    unit.check(output, result)
    return result


@pytest.mark.parametrize("make", [small_train_unit, small_eval_unit])
def test_tracing_leaves_fingerprints_unchanged(tmp_path, make):
    plain = run_unit(make(tmp_path / "plain"))
    tracer = tracing.Tracer()
    traced = run_unit(make(tmp_path / "traced"), tracer)
    assert plain.failures == [] and traced.failures == []
    assert plain.fingerprint is not None
    assert traced.fingerprint == plain.fingerprint
    assert len(tracer.spans) > plain.steps


def test_instrument_restores_every_attribute():
    step, forward = envs.env_step, Policy.forward
    with tracing.instrument(tracing.Tracer()):
        assert envs.env_step is not step and ppo.env_step is envs.env_step
        assert Policy.forward is not forward
    assert envs.env_step is step and ppo.env_step is step and Policy.forward is forward


def test_self_times_sum_to_traced_wall(tmp_path):
    tracer = tracing.Tracer()
    unit = small_train_unit(tmp_path)
    with tracing.instrument(tracer):
        start = time.perf_counter()
        unit.call()
        wall = time.perf_counter() - start
    by_name, traced_wall, self_sum = tracing.summarize(tracer)
    assert self_sum == pytest.approx(traced_wall, rel=1e-9)
    assert traced_wall == pytest.approx(wall, rel=0.01)
    assert by_name["train_loop"].calls == 1
    assert by_name["env_step"].calls == 64
    assert all(t.self_time >= 0.0 for t in by_name.values())


def test_layer_metrics_match_the_declared_per_layer_metrics():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    metrics = tracing.layer_metrics(tracing.Tracer(), 1.0)
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in metrics.items()
    }


def test_tail_keeps_ten_samples_above():
    assert tracing.tail(list(range(100))) == 89
    assert tracing.tail(list(range(21))) == 10
    assert tracing.tail([3.0, 1.0, 2.0]) == 3.0


def test_eval_step_times_cover_the_call(tmp_path):
    unit = small_eval_unit(tmp_path)
    start = time.perf_counter()
    report = unit.call()
    wall = time.perf_counter() - start
    result = workloads.UnitResult()
    unit.check(report, result)
    assert result.failures == []
    assert len(result.step_s) == result.steps > 0
    assert result.reset_s + sum(result.step_s) == pytest.approx(wall, rel=0.01)


def test_eval_check_fails_when_the_controller_collides(tmp_path, monkeypatch):
    def charge(episode, obs, rng):
        return Action(base_acc=np.array([1.0, 0.0, 0.0]),
                      joint_acc=np.zeros(episode.robot.num_joints))

    monkeypatch.setattr(workloads, "standoff_controller", charge)
    run = workloads.eval_run()
    unit = workloads.EvalUnit(replace(run, episode=replace(run.episode, time_limit=20.0)),
                              3, tmp_path)
    result = run_unit(unit)
    assert any("other than by timeout" in f for f in result.failures)
