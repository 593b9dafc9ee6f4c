"""Workload definitions: config generators, scenario-seed pools and CLI calls.

Each workload is one egotrack config run through the public CLI.  Its
episodes come from a fixed pool of scenario seeds whose ``summary.json``
metrics are stored in ``expected.json``; the benchmark seed only chooses the
order in which a run visits the pool, so every episode a run makes has a
stored answer to check against.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable


def walking_20s_training() -> dict:
    """ROADMAP's ``walking-20s-training``: 1001 ticks, training mode, task set."""
    return {
        "scenario": {
            "duration": 20.0,
            "camera_motion": {"kind": "walking"},
            "target": {"velocity": [0, -0.1, 0]},
        },
        "mode": "training",
        "task": {"p_opt": [2, 0, 0], "p_hint": [1.5, 0.3, 0]},
    }


def deploy_late_replay() -> dict:
    """Truth-path sensor 0.6 s late: every measurement rolls back ~30 ticks."""
    return {
        "scenario": {
            "duration": 10.0,
            "camera_motion": {"kind": "walking"},
            "sensor": {"mode": "truth"},
            "obs_rate": 25.0,
            "obs_latency": 0.6,
        },
        "mode": "deploy",
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # "run" or "sweep"
    make_config: Callable[[], dict]
    pool: tuple[int, ...]        # scenario seeds with stored expected metrics
    seeds_per_call: int          # episodes per CLI call (sweep range length)
    min_episodes: int            # a run always completes this many episodes

    def calls(self, bench_seed: int) -> list[tuple[int, ...]]:
        """Seed groups in the order this benchmark seed visits them."""
        step = self.seeds_per_call
        groups = [self.pool[i:i + step] for i in range(0, len(self.pool), step)]
        random.Random(f"{self.name}:{bench_seed}").shuffle(groups)
        return groups


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-walk-sweep", "sweep", walking_20s_training,
                 pool=tuple(range(8)), seeds_per_call=2, min_episodes=6),
        Workload("deploy-late-replay", "run", deploy_late_replay,
                 pool=tuple(range(5)), seeds_per_call=1, min_episodes=4),
    )
}


def write_config(workload: Workload, work_dir: str) -> str:
    path = os.path.join(work_dir, f"{workload.name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.make_config(), fh, indent=2)
    return path


def seeded_config(workload: Workload, seed: int) -> dict:
    """The user config the CLI builds for one episode of this workload."""
    user = workload.make_config()
    user["scenario"]["seed"] = seed
    return user


def invoke(cli, workload: Workload, config_path: str, seeds: tuple[int, ...], out_dir: str):
    """Run one CLI call; returns (exit code, wall seconds, {seed: episode dir})."""
    if workload.command == "sweep":
        argv = ["sweep", "--config", config_path, "--out", out_dir,
                "--seeds", f"{seeds[0]}..{seeds[-1]}"]
        dirs = {s: os.path.join(out_dir, f"seed-{s}") for s in seeds}
    else:
        (seed,) = seeds
        argv = ["run", "--config", config_path, "--out", out_dir, "--seed", str(seed)]
        dirs = {seed: out_dir}
    t0 = time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - t0, dirs
