"""Benchmark of planarwbc: PPO training throughput and a step-bound evaluation.

Run from the repository root, one workload or all of them in one process:

    python3 perfbench/run.py --workload train_corridor --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 1

A run times whole units (see workloads.py) until the next one would overrun
--seconds, checks every unit's outputs, and prints one line per metric with
its unit, then a JSON result as the last line. With --trace 0 the result
holds the end-to-end metrics; with --trace 1 every unit runs once untimed
and once under tracing.instrument, and the result holds the per-layer
metrics and the tracing overhead. The median time per unit (iteration or
eval episode) and the error rate are printed but left out of the result
line, which carries failures as "attempted" and "failed". The exit code is
1 when any operation or output check failed and 2 when the program cannot
be found.

Set-up time is measured in fresh interpreters (--setup-probe): from their
start until the first unit's inputs are ready, the median of several.
Fingerprints (sha256 of each unit's train_state.ckpt or report.json) are
kept in .perfbench/fingerprints.json, and a unit whose fingerprint differs
from an earlier run of the same source, workload, seed and unit fails.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("train_corridor", "train_gap", "eval_gap_standoff")
SETUP_PROBES = 5


def configure_process() -> None:
    """Pin OpenBLAS to one thread and put the program on the import path.

    Must run before numpy is imported, which is why everything that imports
    numpy (workloads, tracing, the program) is imported inside functions.
    One thread stays within nproc and keeps the small per-minibatch products
    free of thread hand-off noise.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "planarwbc" / "__init__.py").is_file():
        print(f"perfbench: program not found under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def source_digest() -> str:
    """sha256 over the program and benchmark sources, naming this code version."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def openblas_threads() -> int | None:
    """Thread count the OpenBLAS bundled with numpy reports, or None if there is none."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                fn = getattr(handle, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_environment(seed: int, source: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def probe_setup(workload: str, seed: int) -> None:
    """Set up as a run does (imports, first unit's inputs), then report ready."""
    import workloads

    workloads.make_unit(workload, seed, 0, OUT / "work" / "probe")
    print("ready", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(elapsed)
    return times


class FingerprintStore:
    """Unit fingerprints of earlier runs in this checkout."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source
        self.data = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, workload: str, seed: int, k: int, fingerprint: str) -> str | None:
        key = f"{self.source}/{workload}/{seed}/{k}"
        known = self.data.setdefault(key, fingerprint)
        if known != fingerprint:
            return f"unit {k} fingerprint {fingerprint[:16]} differs from earlier {known[:16]}"
        return None

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_unit(workload: str, seed: int, k: int, out_dir: Path, tracer=None):
    """Run, time and check unit k; any exception counts as one failed operation."""
    import tracing
    import workloads

    unit = workloads.make_unit(workload, seed, k, out_dir)
    result = workloads.UnitResult()
    try:
        with tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext():
            start = time.perf_counter()
            output = unit.call()
            result.wall_s = time.perf_counter() - start
        unit.check(output, result)
    except Exception as exc:  # a failed reset, step, update or check; the run goes on
        traceback.print_exc(file=sys.stderr)
        result.attempted += 1
        result.failures.append(f"{type(exc).__name__}: {exc}")
    return unit, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 store: FingerprintStore, env: dict) -> dict:
    """Run one workload; returns its result object (metrics by name)."""
    import tracing

    print(f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    setup = measure_setup(workload, seed)
    tracer = tracing.Tracer() if trace else None
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    plain, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        k = 0
        while True:
            unit, result = run_unit(workload, seed, k, work / f"unit{k}")
            runs = [result]
            if trace:
                _, shadow = run_unit(workload, seed, k, work / f"unit{k}-traced", tracer)
                if shadow.fingerprint != result.fingerprint:
                    shadow.failures.append("traced fingerprint differs from the untimed one")
                runs.append(shadow)
                traced.append(shadow)
            plain.append(result)
            for r in runs:
                if r.fingerprint is not None:
                    r.attempted += 1
                    mismatch = store.check(workload, seed, k, r.fingerprint)
                    if mismatch:
                        r.failures.append(mismatch)
                attempted += r.attempted
                failed += len(r.failures)
                for failure in r.failures:
                    print(f"FAILED unit {k}: {failure}")
            print(f"unit {k} wall_s={result.wall_s:.4f} steps={result.steps} "
                  f"sha256({unit.artifact})={result.fingerprint}"
                  + (f" traced_wall_s={traced[-1].wall_s:.4f}" if trace else ""))
            k += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / k > seconds:
                break
    finally:
        store.save()
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in plain if not r.failures]
    if trace:
        overhead = (sum(r.wall_s for r in traced) / sum(r.wall_s for r in plain)
                    if all(r.wall_s > 0 for r in plain + traced) else 0.0)
        metrics = tracing.layer_metrics(tracer, overhead)
        _, wall, self_sum = tracing.summarize(tracer)
        print(f"trace self-time sum {self_sum:.4f} s over traced wall {wall:.4f} s")
        write_trace(workload, seed, env, tracer)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "env_steps_per_s": {"value": steps_per_s(ok), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for name, m in metrics.items():
        note = f"  (median of {len(setup)} set-ups)" if name == "setup_s" else ""
        print(f"metric {name} = {m['value']!r} {m['unit']}{note}")
    if ok and not trace:
        timed = sum(r.wall_s for r in ok)
        print(f"metric wall_clock_steps_per_s = {sum(r.steps for r in ok) / timed!r} 1/s")
        step_ms = sorted(1e3 * t for r in ok for t in r.step_s)
        if step_ms:
            print(f"metric eval_step_ms p10/p50/p90/tail = {step_ms[len(step_ms) // 10]:.4f} "
                  f"{statistics.median(step_ms):.4f} {step_ms[len(step_ms) * 9 // 10]:.4f} "
                  f"{tracing.tail(step_ms):.4f} ms (n={len(step_ms)}); eval_reset_s sum = "
                  f"{sum(r.reset_s for r in ok):.4f} s (n={len(ok)})")
    if ok:
        # Not in the result line: a train unit is an iteration, not an episode.
        print(f"metric {unit.label}_s_p50 = {statistics.median(r.wall_s for r in ok)!r} s  "
              f"(n={len(ok)})")
    print(f"metric error_rate = {failed / max(attempted, 1)!r} "
          f"({failed} failed of {attempted} operations)")
    print(f"fingerprint {workload} seed={seed} {unit.artifact} sha256={plain[0].fingerprint}")
    return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def steps_per_s(ok: list) -> float:
    """env_steps_per_s of the passing units of a run.

    Train units: steps over the timed wall time. Eval units time every step
    and the reset before it. The shared host alternates, second by second,
    between a contended speed and one nearly twice as fast, and the share of
    each in a run varies by tens of percent. So an eval run prices each of
    its steps at the 90th percentile of its step times, a figure of the
    contended speed that every run reaches, and adds its resets as timed.
    """
    step_s = [t for r in ok for t in r.step_s]
    if not step_s:
        timed = sum(r.wall_s for r in ok)
        return sum(r.steps for r in ok) / timed if timed else 0.0
    priced = sum(r.reset_s for r in ok) + len(step_s) * statistics.quantiles(step_s, n=10)[-1]
    return len(step_s) / priced


def write_trace(workload: str, seed: int, env: dict, tracer) -> None:
    """Spans and counts of a traced run, as gzipped JSON under .perfbench/traces."""
    path = OUT / "traces" / f"{workload}-seed{seed}.json.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted({s[0] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    payload = {
        "env": env,
        "span_fields": ["name", "start_s", "end_s", "parent"],
        "names": names,
        "spans": [[index[n], a, b, p] for n, a, b, p in tracer.spans],
        "counts": tracer.counts,
        "step_counts": tracer.step_counts,
    }
    with gzip.open(path, "wt") as fh:
        json.dump(payload, fh)
    print(f"trace written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    configure_process()
    if args.setup_probe:
        probe_setup(args.workload, args.seed)
        return 0
    source = source_digest()
    env = run_environment(args.seed, source)
    store = FingerprintStore(OUT / "fingerprints.json", source)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace), store, env)
               for name in names}
    if args.workload == "all":
        # One process: peak_rss_mb of a later workload is the peak so far.
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
