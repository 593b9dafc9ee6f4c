"""The filter bank carried one tick at a time: the reference for ``FilterBank``.

``ReferenceBank`` keeps every tick of its history with the full state after
it.  A step predicts the new tick from the one before; an ingest rolls back to
the newest tick at or before the set's stamp, applies the set there, and
predicts every later tick in full, re-applying the sets stored on it.  Its
kernels are ``FilterBank``'s own: ``compensate_ego_motion``, ``predict``, and
the ``_apply_measurement`` of a bank built with the same arguments, which
reads that bank's configuration and none of its state.  So the two banks
differ only in how they carry a state from one set to the next, and must
agree to rounding.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from egotrack.estimator import STAMP_EPS, FilterBank, IngestStatus, compensate_ego_motion, predict


@dataclass
class _Tick:
    """One tick: the step ``(g, c)`` into it, the state after it (None before
    the first set), the ``(stamp, z)`` sets applied at it in arrival order, and
    ``seen``, the newest set stamp applied at or before it."""

    stamp: float
    g: np.ndarray | None = None
    c: np.ndarray | None = None
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    sets: list = field(default_factory=list)
    seen: float = -np.inf


class ReferenceBank:
    def __init__(self, cfg, cam, start_stamp=0.0, history_depth=30, **kwargs):
        self.kernels = FilterBank(cfg, cam, start_stamp, history_depth, **kwargs)
        self.ticks = deque([_Tick(start_stamp)], maxlen=history_depth)

    @property
    def stamp(self):
        return self.ticks[-1].stamp

    @property
    def mean(self):
        return self.ticks[-1].mean

    @property
    def state(self):
        return self._state(-1)

    def posterior_at(self, stamp):
        i = self._at(stamp)
        if i is None:
            raise ValueError("stamp precedes the bank's history")
        return self._state(i)

    def step(self, dt, t_rel):
        g, c = compensate_ego_motion(dt, t_rel.rotation, t_rel.translation, self.kernels.ego)
        self.ticks.append(_Tick(self.stamp + dt, g[:, None], c[:, None]))
        self._replay(len(self.ticks) - 1)

    def ingest(self, measured, stamp):
        if stamp > self.stamp + STAMP_EPS:
            raise ValueError("measurement stamp is in the future")
        z = np.asarray(measured.points, dtype=float)
        i = len(self.ticks) - 1 if self.kernels.oosm_mode == "in_place" else self._at(stamp)
        if i is None:
            return IngestStatus.STALE
        tick = self.ticks[i]
        tick.mean, tick.cov = self.kernels._apply_measurement(tick.mean, tick.cov, z, tick.stamp - tick.seen)
        tick.seen = max(tick.seen, stamp)
        tick.sets.append((stamp, z))
        self._replay(i + 1)
        return IngestStatus.APPLIED

    def _at(self, stamp):
        return max((i for i, t in enumerate(self.ticks) if t.stamp <= stamp + STAMP_EPS), default=None)

    def _state(self, i):
        tick = self.ticks[i]
        return None if tick.mean is None else (tick.mean, tick.cov)

    def _replay(self, start):
        prev = self.ticks[start - 1]
        mean, cov, seen = prev.mean, prev.cov, prev.seen
        for tick in list(self.ticks)[start:]:
            if mean is not None:
                mean, cov = predict(mean, cov, tick.g, tick.c, self.kernels._q)
            for stamp, z in tick.sets:
                mean, cov = self.kernels._apply_measurement(mean, cov, z, tick.stamp - seen)
                seen = max(seen, stamp)
            tick.mean, tick.cov, tick.seen = mean, cov, seen
