"""Tick-latency driver: one FilterBank stepped as the deployed 50 Hz loop.

It rebuilds an episode through the public API (``build_configs``,
``generate_scenario``, ``sensor_schedule``) and drives a ``FilterBank`` with
the same history depth, ego increments and delivery order as
``sim.run_episode``.  Each tick's timed region is ``step`` plus the
``ingest`` calls due at that tick.  The per-tick filter errors it computes
must equal the ``filter_p*_e*`` columns the CLI wrote for the same episode,
so the latencies describe the filter the episode scores.
"""

from __future__ import annotations

import csv
import math
import time

import numpy as np

from egotrack import (
    FilterBank,
    SigmaPointSet,
    associate_measurement,
    build_configs,
    canonical_config,
    generate_scenario,
    sensor_schedule,
)

# sim.run_episode delivers a measurement once available_at <= t + this.
_DELIVERY_EPS = 1e-9


class TickReplay:
    """One episode prepared for repeated bank passes.

    Each pass starts from a fresh ``FilterBank`` and records every tick's
    time.  A tick's latency is its median over the passes, which are spread
    over the run: that drops a pass caught by a burst of other work on the
    host, or by a brief spell of unusual host speed, but keeps the filter's
    own per-tick cost, replay spikes included.  A per-tick minimum would
    follow the brief fast spells instead.
    """

    def __init__(self, user_config: dict):
        scenario, self.filter_cfg, *_ = build_configs(canonical_config(user_config))
        self.bundle = bundle = generate_scenario(scenario)
        measurements = sensor_schedule(bundle)
        cfg = bundle.config
        latency = cfg.obs_latency + (bundle.draw.perception_delay if bundle.draw else 0.0)
        self.history_depth = max(30, int(math.ceil((latency + 1.0 / cfg.obs_rate) / cfg.dt)) + 5)
        vo = bundle.vo_poses
        self.t_rels = [None] + [vo[k].inverse().compose(vo[k - 1]) for k in range(1, len(bundle.times))]
        self.pending = sorted((m for m in measurements if m.sset is not None),
                              key=lambda m: m.available_at)
        self.pass_ns: list[np.ndarray] = []
        self.errors = np.full((len(bundle.times), 7, 3), np.nan)

    def run_pass(self) -> None:
        bundle, times, pending, t_rels = self.bundle, self.bundle.times, self.pending, self.t_rels
        bank = FilterBank(self.filter_cfg, bundle.config.camera, start_stamp=float(times[0]),
                          history_depth=self.history_depth)
        first = not self.pass_ns
        tick_ns = np.empty(len(times), dtype=np.int64)
        clock = time.perf_counter_ns
        idx = 0
        for k, t in enumerate(times):
            t0 = clock()
            if k > 0:
                bank.step(float(times[k] - times[k - 1]), t_rels[k])
            while idx < len(pending) and pending[idx].available_at <= t + _DELIVERY_EPS:
                bank.ingest(pending[idx].sset, pending[idx].stamp)
                idx += 1
            tick_ns[k] = clock() - t0
            if first:
                est = bank.estimate()
                if est is not None:
                    truth = bundle.true_sets[k]
                    self.errors[k] = associate_measurement(SigmaPointSet(truth), est).points - truth
        self.pass_ns.append(tick_ns)

    @property
    def passes(self) -> int:
        return len(self.pass_ns)

    @property
    def ticks(self) -> int:
        return len(self.bundle.times)

    def median_ns(self) -> np.ndarray:
        """Each tick's median time over the passes made so far."""
        return np.median(np.stack(self.pass_ns), axis=0)


def csv_filter_errors(metrics_csv: str) -> np.ndarray:
    """The ``filter_p{j}_e{axis}`` columns of a CLI ``metrics.csv``, shape (ticks, 7, 3)."""
    with open(metrics_csv, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [header.index(f"filter_p{j}_e{axis}") for j in range(7) for axis in "xyz"]
        rows = [[float(row[c]) for c in cols] for row in reader]
    return np.asarray(rows).reshape(-1, 7, 3)


def matches_episode(errors: np.ndarray, metrics_csv: str) -> bool:
    """Bit-for-bit equality with what run_episode wrote (NaN before init)."""
    written = csv_filter_errors(metrics_csv)
    return written.shape == errors.shape and np.array_equal(written, errors, equal_nan=True)
