"""In-memory span tracer installed by patching egotrack's public functions.

Spans are recorded from outside the package: each traced function is
replaced, under every module name it is bound to, by a wrapper that records
(name, start ns, end ns, parent span, episode id).  Hot leaf functions that
only need call counts (``predict``, ``update``, ``compensate_ego_motion``)
get a counting wrapper instead of a span.  ``installed()`` restores every
original binding on exit.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

from egotrack import estimator

# (defining module, function name, span name).  A function imported by name
# into another module is patched there too, since that is where the caller
# looks it up.
SPANNED = (
    ("cli", "execute_run", "cli.execute_run"),
    ("config", "canonical_config", "config.canonical_config"),
    ("config", "build_configs", "config.build_configs"),
    ("sim", "generate_scenario", "sim.generate_scenario"),
    ("sim", "sensor_schedule", "sim.sensor_schedule"),
    ("sim", "baseline_zoh", "sim.baseline_zoh"),
    ("sim", "baseline_no_compensation", "sim.baseline_no_compensation"),
    ("sim", "run_episode", "sim.run_episode"),
    ("geometry", "transform_points", "geometry.transform_points"),
    ("geometry", "compute_visible_set", "geometry.compute_visible_set"),
    ("geometry", "weighted_pca", "geometry.weighted_pca"),
    ("perturbation", "drift_step", "perturbation.drift_step"),
    ("perturbation", "perturb_sigma_points", "perturbation.perturb_sigma_points"),
    ("tasklogic", "compute_reward", "tasklogic.compute_reward"),
    ("tasklogic", "terminal_status", "tasklogic.terminal_status"),
)
COUNTED = (
    ("estimator", "predict", "estimator.predict"),
    ("estimator", "update", "estimator.update"),
    ("estimator", "compensate_ego_motion", "estimator.compensate_ego_motion"),
)
# associate_measurement is split by caller: the bank reaches it through
# estimator's globals, per-tick scoring through sim's.
ASSOCIATE_BY_CALLER = {
    "estimator": "estimator.associate_measurement.bank",
    "sim": "estimator.associate_measurement.scoring",
}
METHODS = (
    (estimator.FilterBank, "step", "estimator.step"),
    (estimator.FilterBank, "ingest", "estimator.ingest"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []       # (name, start_ns, end_ns, parent index, episode id)
        self.counts: Counter = Counter()
        self._open: list[tuple[int, str]] = []
        self._episode = -1
        self._episodes = 0

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, opened, clock = self.spans, self._open, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = opened[-1][0] if opened else -1
            idx = len(spans)
            spans.append(None)
            opened.append((idx, name))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                opened.pop()
                spans[idx] = (name, t0, t1, parent, self._episode)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _episode_span(self, fn):
        inner = self._span("cli.execute_run", fn)

        def wrapper(*args, **kwargs):
            self._episode = self._episodes
            self._episodes += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._episode = -1

        return wrapper

    def _count(self, name, fn):
        counts, opened = self.counts, self._open

        def wrapper(*args, **kwargs):
            counts[name] += 1
            # A predict inside an ingest is replay: counted functions open no
            # span, so the ingest span is then the innermost one.
            if name == "estimator.predict" and opened and opened[-1][1] == "estimator.ingest":
                counts["estimator.replay_predict"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name):
        counts = self.counts
        if name == "sim.sensor_schedule":
            def after(ms):
                counts["sim.measurements"] += len(ms)
                counts["sim.measurements_visible"] += sum(m.sset is not None for m in ms)
        elif name == "geometry.transform_points":
            def after(cloud):
                counts["geometry.points_transformed"] += len(cloud)
        elif name == "estimator.ingest":
            def after(status):
                counts[f"estimator.ingest.{status.value}"] += 1
        else:
            after = None
        return after

    # -- install / restore --------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced binding; restore all of them on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "egotrack" or n.startswith("egotrack.")) and m is not None]
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        def patch_everywhere(home, attr, make):
            original = getattr(sys.modules[f"egotrack.{home}"], attr)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    patch(mod, attr, make(original))

        try:
            for home, attr, name in SPANNED:
                if attr == "execute_run":
                    patch_everywhere(home, attr, self._episode_span)
                else:
                    patch_everywhere(home, attr,
                                     lambda fn, name=name: self._span(name, fn, self._after(name)))
            for home, attr, name in COUNTED:
                patch_everywhere(home, attr, lambda fn, name=name: self._count(name, fn))
            for short, name in ASSOCIATE_BY_CALLER.items():
                mod = sys.modules[f"egotrack.{short}"]
                patch(mod, "associate_measurement", self._span(name, mod.associate_measurement))
            for cls, attr, name in METHODS:
                patch(cls, attr, self._span(name, cls.__dict__[attr], self._after(name)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            for owner, attr, original in saved:
                if owner.__dict__[attr] is not original:
                    raise RuntimeError(f"trace patch on {attr} was not restored")

    def top(self, name, fn, *args):
        """Run fn(*args) inside a root span of the given name."""
        return self._span(name, fn)(*args)

    # -- derived numbers ----------------------------------------------------

    def busy(self) -> tuple[Counter, Counter, Counter]:
        """Busy seconds, self seconds and span counts per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls on one thread nest, so the children never overlap.
        """
        child_ns = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        busy, own, calls = Counter(), Counter(), Counter()
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            busy[name] += (t1 - t0) * 1e-9
            own[name] += (t1 - t0 - child_ns[i]) * 1e-9
            calls[name] += 1
        return busy, own, calls

    @property
    def episodes(self) -> int:
        return self._episodes

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: name, start ns, end ns, parent, episode."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tepisode\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
