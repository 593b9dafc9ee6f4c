"""egotrack benchmark: episode throughput, filter tick latency, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload deploy-late-replay --seed 3 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics of one workload; with
``--trace 1`` it reports per-layer metrics from a traced run.  Every episode
is checked against ``bench/expected.json``.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, invoke, seeded_config, write_config

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

# Fresh interpreters timed per run for setup_s, spread over the run; the
# median is reported.
SETUP_SPAWNS = 11
# Share of a run's measuring time given to tick-latency bank passes.
TICK_SHARE = 0.4
# Tick-latency samples a run needs, so p99 has at least ten beyond it.
TICK_SAMPLES = 1000
# Fewest bank passes per tick-latency episode, so each tick has a median.
TICK_PASSES = 3
SETUP_SNIPPET = (
    "import json, sys\n"
    "import egotrack\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    user = json.load(fh)\n"
    "egotrack.build_configs(egotrack.canonical_config(user))\n"
)


def _import_package():
    """Import egotrack from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "egotrack", "__init__.py")):
        sys.exit(f"bench: no egotrack package under {SRC}")
    sys.path.insert(0, SRC)
    import egotrack

    if os.path.dirname(os.path.dirname(os.path.abspath(egotrack.__file__))) != SRC:
        sys.exit(f"bench: imported egotrack from {egotrack.__file__}, not {SRC}")


def machine_info() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = None
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            threads = int(next(l.split()[1] for l in fh if l.startswith("Threads:")))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                             if k in os.environ},
        "process_threads": threads,
    }


def time_setup(config_path: str) -> tuple[float, bool]:
    """Wall seconds for one fresh interpreter to import and build the config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, config_path],
                          env=env, cwd=ROOT, capture_output=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return wall, proc.returncode == 0


# -- output check --------------------------------------------------------------

REL_TOL = 1e-9    # admits reordered float sums (~1e-15 relative), not a changed result
ABS_TOL = 1e-12


def _mismatches(actual, expected, path="metrics") -> list[str]:
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return [m for k in expected for m in _mismatches(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in _mismatches(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {actual!r} != expected {expected!r}"]
    return [] if actual == expected else [f"{path}: {actual!r} != expected {expected!r}"]


def check_episode(summary: dict, expected: dict) -> list[str]:
    """Stored-metric match plus criterion 6's dominance relation."""
    m = summary["metrics"]
    problems = _mismatches(m, expected)
    f = m["rmse_filter_centroid"]
    if not (f is not None and f < m["rmse_zoh_centroid"] and f < m["rmse_nocomp_centroid"]):
        problems.append("filter centroid RMSE does not beat both ZOH and no-comp")
    return problems


def _read_summary(episode_dir: str) -> dict:
    with open(os.path.join(episode_dir, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs)


class Episodes:
    """Runs CLI calls for one workload and checks every episode they produce."""

    def __init__(self, workload, bench_seed: int, expected: dict, work_dir: str):
        self.workload = workload
        self.calls = workload.calls(bench_seed)
        self.expected = expected
        self.work_dir = work_dir
        self.config_path = write_config(workload, work_dir)
        self.n_calls = 0
        self.attempted = 0
        self.failed = 0

    def run_call(self, seeds, runner=None):
        """One CLI call; returns (wall s, ticks, output bytes, {seed: summary}, out dir)."""
        import egotrack.cli as cli

        out = os.path.join(self.work_dir, f"call-{self.n_calls}")
        self.n_calls += 1
        self.attempted += len(seeds)
        summaries = {}
        try:
            if runner is None:
                code, wall, dirs = invoke(cli, self.workload, self.config_path, seeds, out)
            else:
                code, wall, dirs = runner(lambda: invoke(cli, self.workload, self.config_path, seeds, out))
            if code != 0:
                raise RuntimeError(f"egotrack {self.workload.command} exited {code}")
            for seed, d in dirs.items():
                summary = _read_summary(d)
                problems = check_episode(summary, self.expected[str(seed)])
                if problems:
                    print(f"seed {seed}: output check failed: {'; '.join(problems[:5])}",
                          file=sys.stderr)
                else:
                    summaries[seed] = summary
        except Exception as exc:  # a raising episode is counted, not fatal
            print(f"seeds {seeds}: {type(exc).__name__}: {exc}", file=sys.stderr)
        self.failed += len(seeds) - len(summaries)
        if len(summaries) < len(seeds):
            _discard(out)
            return None
        ticks = sum(s["metrics"]["ticks"] for s in summaries.values())
        return wall, ticks, _tree_bytes(out), summaries, out


def _discard(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def end_to_end(workload, bench_seed: int, seconds: float, expected: dict, work_dir: str) -> dict:
    import numpy as np
    from ticks import TickReplay, matches_episode

    eps = Episodes(workload, bench_seed, expected, work_dir)
    setup_walls, setup_failed = [], 0

    def spawn_setups(upto: int) -> None:
        nonlocal setup_failed
        while len(setup_walls) < upto:
            wall, ok = time_setup(eps.config_path)
            setup_walls.append(wall)
            setup_failed += not ok

    rates, rmse, replays = [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    pass_s = call_s = 0.0
    call_ticks = 0
    i = 0
    while ((len(rmse) < workload.min_episodes or time.perf_counter() < deadline)
           and eps.failed < 2 * workload.min_episodes):
        seeds = eps.calls[i % len(eps.calls)]
        i += 1
        done = eps.run_call(seeds)
        if done is None:
            continue
        wall, ticks, _, summaries, out = done
        rates.append(ticks / wall)
        call_ticks += ticks
        call_s += wall
        rmse.extend(summaries[s]["metrics"]["rmse_filter_centroid"] for s in seeds if s in summaries)
        t0 = time.perf_counter()
        for seed in summaries:
            if sum(r.ticks for r in replays) >= TICK_SAMPLES:
                break
            episode_dir = os.path.join(out, f"seed-{seed}") if workload.command == "sweep" else out
            try:
                replay = TickReplay(seeded_config(workload, seed))
                replay.run_pass()
                same = matches_episode(replay.errors, os.path.join(episode_dir, "metrics.csv"))
            except Exception as exc:  # counted as a failed episode below
                print(f"seed {seed}: tick driver raised {type(exc).__name__}: {exc}", file=sys.stderr)
                same = False
            if same:
                replays.append(replay)
            else:
                eps.failed += 1
                print(f"seed {seed}: tick driver errors differ from metrics.csv", file=sys.stderr)
        _discard(out)
        # Bank passes take TICK_SHARE of the run, spread between CLI calls.
        while replays and pass_s + time.perf_counter() - t0 < TICK_SHARE * (time.perf_counter() - start):
            min(replays, key=lambda r: r.passes).run_pass()
        pass_s += time.perf_counter() - t0
        spawn_setups(math.ceil(SETUP_SPAWNS * min(1.0, (time.perf_counter() - start) / seconds)))
    while replays and min(r.passes for r in replays) < TICK_PASSES:
        min(replays, key=lambda r: r.passes).run_pass()
    spawn_setups(SETUP_SPAWNS)
    setup_s = statistics.median(setup_walls)

    tick_us = np.concatenate([r.median_ns() for r in replays]) / 1e3 if replays else np.array([np.nan])
    n_ticks = sum(r.ticks for r in replays)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n_rmse = min(len(rmse), workload.min_episodes)
    values = {
        "ticks_per_s": (call_ticks / call_s if call_s else float("nan"), "1/s", len(rates)),
        "tick_us_p50": (float(np.percentile(tick_us, 50)), "us", n_ticks),
        "tick_us_p99": (float(np.percentile(tick_us, 99)), "us", n_ticks),
        "setup_s": (setup_s, "s", SETUP_SPAWNS),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1),
        "centroid_rmse_filter_m": (statistics.fmean(rmse[:n_rmse]) if rmse else float("nan"), "m", n_rmse),
    }
    error_rate = eps.failed / eps.attempted if eps.attempted else 1.0
    print(f"workload {workload.name} seed {bench_seed}: {eps.n_calls} calls, "
          f"{eps.attempted} episodes; tick latency from {len(replays)} episodes, "
          f"{sum(r.passes for r in replays)} bank passes")
    for name, (value, unit, n) in values.items():
        print(f"  {name:24s} {value:14.6g} {unit:4s} n={n}")
    print(f"  {'error_rate':24s} {error_rate:14.6g} {'':4s} n={eps.attempted}")
    print("  ticks/s per call: " + " ".join(f"{r:.1f}" for r in rates))
    correct = eps.failed == 0 and setup_failed == 0 and n_ticks >= TICK_SAMPLES
    return {
        "correct": correct,
        "attempted": eps.attempted,
        "failed": eps.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in values.items()},
    }


def per_layer(workload, bench_seed: int, seconds: float, expected: dict, work_dir: str) -> dict:
    import egotrack.cli as cli
    from spans import Tracer

    eps = Episodes(workload, bench_seed, expected, work_dir)
    tracer = Tracer()
    top_name = f"cli.{workload.command}"
    output_bytes = 0
    walls = {"traced": 0.0, "untraced": 0.0}

    def traced(call):
        with tracer.installed():
            return tracer.top(top_name, call)

    # Each seed group runs once untraced and once traced, alternating which
    # goes first, so the overhead ratio compares the same work.
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        seeds = eps.calls[(i // 2) % len(eps.calls)]
        order = ("untraced", "traced") if (i // 2) % 2 == 0 else ("traced", "untraced")
        for mode in order:
            done = eps.run_call(seeds, traced if mode == "traced" else None)
            if done is None:
                continue
            walls[mode] += done[0]
            if mode == "traced":
                output_bytes += done[2]
            _discard(done[4])
        i += 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        reported = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    busy, own, calls = tracer.busy()
    counts = tracer.counts
    n = max(tracer.episodes, 1)
    raw = {
        "cli.execute_run.s": busy["cli.execute_run"],
        "cli.self_s": own["cli.execute_run"],
        "cli.main.self_s": own[top_name],
        "cli.output_bytes": output_bytes,
        "sim.run_episode.self_s": own["sim.run_episode"],
        "sim.measurements": counts["sim.measurements"],
        "sim.measurements_visible": counts["sim.measurements_visible"],
        "estimator.ingest.applied": counts["estimator.ingest.applied"],
        "estimator.ingest.stale": counts["estimator.ingest.stale"],
        "estimator.predict.calls": counts["estimator.predict"],
        "estimator.replay_predict.calls": counts["estimator.replay_predict"],
        "estimator.update.calls": counts["estimator.update"],
        "geometry.points_transformed": counts["geometry.points_transformed"],
    }
    for name in busy:
        raw.setdefault(f"{name}.s", busy[name])
        raw.setdefault(f"{name}.calls", calls[name])
    # Additive metrics are per traced episode, so runs of different length compare.
    metrics = {}
    for name, unit in reported:
        if unit.endswith("/episode"):
            metrics[name] = {"value": raw.get(name, 0) / n, "unit": unit}
    predicts = counts["estimator.predict"]
    metrics["estimator.replay_fraction"] = {
        "value": counts["estimator.replay_predict"] / predicts if predicts else 0.0, "unit": "ratio"}
    metrics["trace.overhead"] = {
        "value": walls["traced"] / walls["untraced"] if walls["untraced"] else float("nan"),
        "unit": "ratio"}

    spans_path = os.path.join(WORK, f"spans-{workload.name}.tsv")
    tracer.write(spans_path)
    purposes_met = report_trace(workload, tracer, busy, own, metrics, spans_path)
    return {
        "correct": eps.failed == 0 and tracer.episodes > 0 and purposes_met,
        "attempted": eps.attempted,
        "failed": eps.failed,
        "metrics": {name: metrics[name] for name, _ in reported},
    }


def report_trace(workload, tracer, busy, own, metrics, spans_path) -> bool:
    """Human-readable layer table; returns whether the workload-purpose checks hold."""
    n = max(tracer.episodes, 1)
    episode_s = busy["sim.run_episode"]
    print(f"workload {workload.name}: per-episode metrics over n={tracer.episodes} traced "
          f"episodes, {len(tracer.spans)} spans -> {spans_path}")
    print(f"  {'span':44s} {'busy s/ep':>10s} {'self s/ep':>10s} {'% run_episode':>14s}")
    for name in sorted(busy):
        share = 100.0 * busy[name] / episode_s if episode_s else float("nan")
        print(f"  {name:44s} {busy[name] / n:10.4f} {own[name] / n:10.4f} {share:14.1f}")
    for name in sorted(tracer.counts):
        print(f"  {name:44s} {tracer.counts[name] / n:10.1f} per ep")
    print(f"  replay_fraction {metrics['estimator.replay_fraction']['value']:.4f}, "
          f"trace overhead {metrics['trace.overhead']['value']:.3f}")
    ingest_share = busy["estimator.ingest"] / episode_s if episode_s else float("nan")
    side_calls = sum(v for k, v in tracer.counts.items() if k.startswith(("tasklogic.", "perturbation.")))
    side_calls += sum(1 for s in tracer.spans if s[0].startswith(("tasklogic.", "perturbation.")))
    purposes = {
        "deploy-late-replay": [("ingest >= 60% of run_episode", ingest_share >= 0.60),
                               ("no tasklogic or perturbation calls", side_calls == 0)],
        "train-walk-sweep": [("tasklogic and perturbation calls > 0", side_calls > 0)],
    }
    for text, ok in purposes[workload.name]:
        print(f"  purpose: {text}: {'yes' if ok else 'NO'}")
    return all(ok for _, ok in purposes[workload.name])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    workload = WORKLOADS[args.workload]
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["workloads"][workload.name]

    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    work_dir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        measure = per_layer if args.trace else end_to_end
        result = measure(workload, args.seed, args.seconds, expected, work_dir)
    finally:
        _discard(work_dir)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
