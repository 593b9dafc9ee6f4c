"""Constant-velocity Kalman filtering of sigma points in the moving camera frame.

Each of the seven points gets its own independent 6D filter (position and
velocity).  Every control step does a constant-velocity predict fused with a
deterministic ego-motion remap into the new camera frame; a delayed
measurement is applied at its own stamp, and every later one is applied
again after it.

The bank keeps one state per applied set, not one per tick.  The steps
between two ticks compose to one rigid map and a time offset, and the
process noise they add has a closed form, so one ``predict`` carries a state
over any number of steps (``FilterBank._carry``).  That equals predicting
each step in turn up to rounding: the closed form groups the same products
differently.  Between sets only the newest mean moves, one step at a time.

The filter math is a set of batched functions over ``n`` independent states:
means shaped ``(n, 6)`` (position then velocity) and covariances
``(n, 6, 6)``.  ``init_track``, ``compensate_ego_motion``, ``predict``,
``predict_mean``, ``measurement_covariance``, ``update`` and
``associate_measurement`` are the functions the bank itself calls, for all
seven points of one or more lanes at once (a lane per ego-compensation
setting).  They return new arrays and never write into their inputs.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import InvalidDepthError, NumericalError, check_fields
from .geometry import N_POINTS, CameraModel, RigidTransform, SigmaPointSet

_EYE3 = np.eye(3)
_EYE4 = np.eye(4)


@dataclass(frozen=True)
class FilterConfig:
    """Process/measurement noise and initial covariance for every per-point filter."""

    q_pos: float = 1e-6      # m^2 added to position covariance per step
    q_vel: float = 1e-5      # (m/s)^2 added to velocity covariance per step
    sigma_u: float = 20.0    # px
    sigma_v: float = 20.0    # px
    sigma_z: float = 0.05    # m
    p0_pos: float = 1e-2     # m^2
    p0_vel: float = 1e-1     # (m/s)^2

    def __post_init__(self):
        check_fields(self, positive=("q_pos", "q_vel", "sigma_u", "sigma_v", "sigma_z", "p0_pos", "p0_vel"))


# ---------------------------------------------------------------------------
# Batched filter functions over n states: mean (n, 6), cov (n, 6, 6).


def _prior(cfg: FilterConfig) -> np.ndarray:
    return np.diag([cfg.p0_pos] * 3 + [cfg.p0_vel] * 3)


def _process_noise(cfg: FilterConfig) -> np.ndarray:
    return np.diag([cfg.q_pos] * 3 + [cfg.q_vel] * 3)


def init_track(z: np.ndarray, p0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fresh states at measured positions z (n, 3): zero velocity, prior p0."""
    mean = np.concatenate([z, np.zeros_like(z)], axis=1)
    return mean, np.repeat(p0[None], len(z), axis=0)


def compensate_ego_motion(
    dt: float | np.ndarray, rotation: np.ndarray, translation: np.ndarray, ego: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each step's propagation ``(g, c)`` for each lane.

    ``g = F A`` is the constant-velocity transition A(dt) followed by the ego
    remap F = blockdiag(R, R), and ``c = [t; 0]``: positions take the full
    rigid map and velocities rotate only.  A lane whose ``ego`` flag is false
    skips the increment (R = I, t = 0).  No noise is added for the remap,
    because the ego increment is treated as known.

    The arguments broadcast against the lane flags, shaped (L, 1, 1).  One
    step passes a scalar ``dt``, a rotation (3, 3) and a translation (3,),
    and gets ``g`` (L, 6, 6) and ``c`` (L, 6).  T steps pass ``dt``
    (T, 1, 1, 1), rotations (T, 1, 3, 3) and translations (T, 1, 3), and get
    (T, L, 6, 6) and (T, L, 6).  Every entry is computed on its own, so each
    step of a stack equals that step's own call bit for bit.
    """
    if (dt.min() if isinstance(dt, np.ndarray) else dt) < 0.0:
        raise ValueError("dt must be non-negative")
    # g = [[R, dt R], [0, R]], written out blockwise, equal to the product.
    r = np.where(ego, rotation, _EYE3)
    g = np.zeros(r.shape[:-2] + (6, 6))
    g[..., 0:3, 0:3] = g[..., 3:6, 3:6] = r
    g[..., 0:3, 3:6] = dt * r
    c = np.zeros(r.shape[:-2] + (6,))
    c[..., 0:3] = np.where(ego[:, 0], translation, 0.0)
    return g, c


def predict_mean(mean: np.ndarray, g: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The mean half of ``predict``: mean' = g mean + c.

    The mean is rotated as column vectors, which rounds the same for any
    number of leading rows; ``mean @ g^T`` would not.
    """
    return (g @ mean[..., None])[..., 0] + c


def predict(
    mean: np.ndarray, cov: np.ndarray, g: np.ndarray, c: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fused predict and ego remap: mean' = g mean + c, cov' = g cov g^T + q.

    With ``(g, c)`` from ``compensate_ego_motion`` this is the
    constant-velocity time update followed by the ego remap, up to rounding,
    since F Q F^T = Q for the isotropic per-block Q; Q is added once per step
    regardless of dt.  ``g`` broadcasts against the leading axes of ``cov``.
    The two halves are independent: the mean is ``predict_mean``'s.
    """
    return predict_mean(mean, g, c), g @ cov @ g.swapaxes(-1, -2) + q


def measurement_covariance(cam: CameraModel, depth: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Depth-scaled position measurement covariances (n, 3, 3) for depths (n,).

    Pixel noise maps to metric noise through the pinhole model at the point's
    depth: sigma_X = (Z/fx) sigma_u, sigma_Y = (Z/fy) sigma_v; depth noise is
    constant sigma_z.
    """
    bad = depth <= 0.0
    if bad.any():
        raise InvalidDepthError(
            f"measurement depth must be positive, got {float(depth[bad][0])!r}"
        )
    sx = depth / cam.fx * cfg.sigma_u
    sy = depth / cam.fy * cfg.sigma_v
    r = np.zeros((len(depth), 3, 3))
    r[:, 0, 0] = sx * sx
    r[:, 1, 1] = sy * sy
    r[:, 2, 2] = cfg.sigma_z * cfg.sigma_z
    return r


def update(
    mean: np.ndarray, cov: np.ndarray, z: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Position-only Joseph-form update of n states by z (n, 3), r (n, 3, 3).

    Joseph form keeps the covariance symmetric positive semidefinite under
    roundoff, which matters after long replay chains.
    """
    s = cov[:, 0:3, 0:3] + r
    try:
        s_inv = np.linalg.inv(s)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular innovation covariance") from exc
    k = cov[:, :, 0:3] @ s_inv
    innovation = z - mean[:, 0:3]
    new_mean = mean + (k @ innovation[:, :, None])[:, :, 0]
    i_kh = np.repeat(np.eye(6)[None], len(mean), axis=0)
    i_kh[:, :, 0:3] -= k
    new_cov = i_kh @ cov @ i_kh.swapaxes(1, 2) + k @ r @ k.swapaxes(1, 2)
    return new_mean, 0.5 * (new_cov + new_cov.swapaxes(1, 2))


def _mahalanobis2(mean: np.ndarray, cov: np.ndarray, z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distance of each z from its predicted position."""
    y = (z - mean[:, 0:3])[:, :, None]
    return (y.swapaxes(1, 2) @ np.linalg.solve(cov[:, 0:3, 0:3] + r, y))[:, 0, 0]


def associate_measurement(
    predicted: SigmaPointSet | np.ndarray, measured: SigmaPointSet | np.ndarray
) -> SigmaPointSet | np.ndarray:
    """Resolve the +/- sign ambiguity of each measured axis pair, batched.

    Takes two ``SigmaPointSet``s and returns one, or two point arrays and
    returns an array: ``measured`` shaped ``(..., 7, 3)``, and ``predicted``
    with leading dimensions that broadcast to its own.  The centroid maps to
    the centroid and axes correspond by eigenvalue rank; the only freedom is
    which end of each measured pair is which, chosen to minimize the summed
    squared distance to the prediction.  A pair is swapped only when that is
    strictly closer, so ties and NaN sets keep the measured order.
    """
    single = isinstance(measured, SigmaPointSet)
    p = np.asarray(predicted.points if single else predicted, dtype=float)
    m = np.asarray(measured.points if single else measured, dtype=float)
    lead = m.shape[:-2]
    p_pairs = p[..., 1:, :].reshape(p.shape[:-2] + (3, 2, 3))
    m_pairs = m[..., 1:, :].reshape(lead + (3, 2, 3))
    keep = np.sum((m_pairs - p_pairs) ** 2, axis=-1)
    swap = np.sum((m_pairs - p_pairs[..., ::-1, :]) ** 2, axis=-1)
    flip = swap[..., 0] + swap[..., 1] < keep[..., 0] + keep[..., 1]
    pairs = np.where(flip[..., None, None], m_pairs[..., ::-1, :], m_pairs)
    out = np.concatenate([m[..., :1, :], pairs.reshape(lead + (6, 3))], axis=-2)
    return SigmaPointSet(out) if single else out


class IngestStatus(enum.Enum):
    APPLIED = "applied"
    STALE = "stale"


# Stacked state of the bank: means (L, 7, 6) and covariances (L, 7, 6, 6),
# one lane per ego-compensation setting.
BankState = tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class _SetState:
    """The bank's state right after one set, at the tick it applied at.

    ``tick`` counts the bank's steps from its start, and ``stamp`` is that
    tick's.  ``mean`` (L, 7, 6) and ``cov`` (L, 7, 6, 6) are never written in
    place, so states and callers can share arrays.  ``seen`` is the newest
    set stamp applied up to this state.  ``measured`` is the raw set as
    ``(set stamp, z)``, so that a set applied at an earlier tick can apply it
    again; a state carried over a step that the ring drops has none.
    """

    tick: int
    stamp: float
    mean: np.ndarray | None
    cov: np.ndarray | None
    seen: float
    measured: tuple[float, np.ndarray] | None


_BY_TICK = attrgetter("tick")

# Stamp comparisons tolerate accumulated float error, far below one tick.
# Delivery (sim) and rollback share it: a delivered measurement whose stamp
# lies within it of the bank's stamp must not count as in the future.
STAMP_EPS = 1e-9

# Delayed-measurement handling; in_place (the ablation) applies a set at the newest tick.
OOSM_MODES = ("replay", "in_place")

# Masks of a 6x6 covariance's position block and of its two cross blocks.
_POS_POS = np.diag([1.0] * 3 + [0.0] * 3)
_POS_VEL = np.eye(6, k=3) + np.eye(6, k=-3)


class FilterBank:
    """Seven independent per-point filters with a rollback window.

    The bank carries one lane per entry of ``ego_lanes``: every lane sees the
    same steps and measurements, and a lane applies the ego increment only
    when its flag is true (a false lane is the no-compensation baseline).
    One rollback moves all lanes at once.  ``estimate`` reads lane 0.

    The bank starts uninitialized; the first accepted measurement creates the
    filters at its own stamp, so initialization is latency-correct like every
    later update.

    The bank keeps three things: a ring with each recent tick's stamp and
    the step into it, as one 4x4 pose per lane; the state after each set;
    and the newest mean, which each step moves by one ``predict_mean``.  A
    set applies at the newest of the last ``history_depth`` ticks at or
    before its stamp, and is stale when there is none.  ``ingest`` carries
    the newest state at or before that tick to it in one closed-form
    ``predict`` (``_carry``), updates there, re-applies every later set the
    same way, and moves the newest mean from the newest state in one
    closed-form step.  The ring keeps the steps of twice as many ticks, so a
    state before the last ``history_depth`` ticks can still reach them.
    After a blind spell longer than that, the oldest state is carried over
    each step before the ring drops it.
    """

    def __init__(
        self,
        cfg: FilterConfig,
        cam: CameraModel,
        start_stamp: float = 0.0,
        history_depth: int = 30,
        oosm_mode: str = "replay",
        reacquire_window: float = 5.0,
        reacquire_gate: float = 5.0,
        ego_lanes: tuple[bool, ...] = (True,),
    ):
        if history_depth < 2:
            raise ValueError("history_depth must be at least 2")
        if oosm_mode not in OOSM_MODES:
            raise ValueError(f"unknown oosm_mode {oosm_mode!r}")
        if len(ego_lanes) < 1:
            raise ValueError("ego_lanes needs at least one lane")
        self.cfg = cfg
        self.cam = cam
        self.oosm_mode = oosm_mode
        self.reacquire_window = reacquire_window
        self.reacquire_gate = reacquire_gate
        # The lanes' flags, shaped (L, 1, 1) as compensate_ego_motion takes them.
        self.ego = np.array(ego_lanes, dtype=bool)[:, None, None]
        self._q = _process_noise(cfg)
        self._p0 = _prior(cfg)
        # The ring: tick k's stamp and step pose [[R, t], [0, 1]] per lane sit
        # in slot k % (2 * history_depth).  Sets land on the newest
        # history_depth ticks; the older half keeps the steps from the state
        # before them, unless that lies more than history_depth ticks before
        # the next state.  Tick 0 has no step.
        self._depth = history_depth
        self._tick = 0
        self._stamp = start_stamp
        self._stamps = np.full(2 * history_depth, start_stamp, dtype=float)
        self._poses = np.tile(_EYE4, (2 * history_depth, len(ego_lanes), 1, 1))
        # The state after each set, by tick and then in arrival order; at
        # most the first lies before the newest history_depth ticks.
        self._states: list[_SetState] = []
        self._mean: np.ndarray | None = None

    @property
    def stamp(self) -> float:
        return self._stamp

    @property
    def mean(self) -> np.ndarray | None:
        """The newest lane means (L, 7, 6), or None before the first set."""
        return self._mean

    @property
    def state(self) -> BankState | None:
        """The newest ``(mean, cov)``: ``mean``, and the newest set's
        covariance carried to the newest tick; None before the first set."""
        if self._mean is None:
            return None
        return self._mean, self._carry(self._states[-1], self._tick)[1]

    def posterior_at(self, stamp: float) -> BankState | None:
        """The ``(mean, cov)`` at the newest tick at or before ``stamp``,
        after every set applied up to that tick; None before the first set.
        Raises ValueError when every kept tick is later than ``stamp``."""
        k = self._tick_at(stamp)
        if k is None:
            raise ValueError("stamp precedes the bank's history")
        i = bisect_right(self._states, k, key=_BY_TICK)
        return self._carry(self._states[i - 1], k) if i else None

    def estimate(self) -> SigmaPointSet | None:
        if self.mean is None:
            return None
        return SigmaPointSet(self.mean[0, :, 0:3].copy())

    def step(self, dt: float, t_rel: RigidTransform) -> None:
        """Advance one control tick: predict then remap by the ego increment."""
        self.push(dt, *compensate_ego_motion(dt, t_rel.rotation, t_rel.translation, self.ego))

    def push(self, dt: float, g: np.ndarray, c: np.ndarray) -> None:
        """Advance one control tick of ``dt`` by the propagation ``(g, c)``
        that ``compensate_ego_motion`` built for this bank's lanes."""
        tick = self._tick + 1
        slot = tick % len(self._stamps)
        if tick >= len(self._stamps) and self._states:
            self._evict(tick)
        self._tick = tick
        self._stamp = self._stamp + dt
        self._stamps[slot] = self._stamp
        pose = self._poses[slot]
        pose[:, 0:3, 0:3] = g[:, 0:3, 0:3]
        pose[:, 0:3, 3] = c[:, 0:3]
        if self._mean is not None:
            self._mean = predict_mean(self._mean, g[:, None], c[:, None])

    def _evict(self, tick: int) -> None:
        """Before ``tick`` overwrites the ring's oldest tick, drop every
        state that no set landing at ``tick`` or later can start from, and
        carry the oldest state over the dropped step if it still needs it."""
        states = self._states
        while len(states) > 1 and states[1].tick <= tick - self._depth + 1:
            del states[0]
        dropped = tick - len(self._stamps)
        first = states[0]
        if first.tick < dropped:
            stamp = float(self._stamps[dropped % len(self._stamps)])
            states[0] = _SetState(dropped, stamp, *self._carry(first, dropped), first.seen, None)

    def _tick_at(self, stamp: float) -> int | None:
        """The newest of the last ``history_depth`` ticks at or before
        ``stamp``, or None."""
        stamps, slots = self._stamps, len(self._stamps)
        ticks = range(max(self._tick - self._depth + 1, 0), self._tick + 1)
        i = bisect_right(ticks, stamp + STAMP_EPS, key=lambda k: stamps[k % slots])
        return ticks[i - 1] if i else None

    def _span(self, state: _SetState, tick: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The steps from ``state``'s tick to a later ``tick``, composed into
        one: its propagation ``(g, c)``, shaped (L, 1, 6, 6) and (L, 1, 6),
        and the stamps of the ticks it steps through.

        The step poses compose by pairwise products, so a span of m steps is
        log2(m) stacked products deep.  A(dt) commutes with blockdiag(R, R),
        so the composed rotation R and translation t, with the time from
        ``state`` to ``tick``, give the span's ``g`` and ``c`` as one step's.
        """
        slots = np.arange(state.tick + 1, tick + 1) % len(self._stamps)
        pose = self._poses[slots]
        while len(pose) > 1:
            odd = pose[-1] if len(pose) % 2 else None
            pose = pose[1::2] @ pose[0:len(pose) - 1:2]
            if odd is not None:
                pose[-1] = odd @ pose[-1]
        stamps = self._stamps[slots]
        g, c = compensate_ego_motion(stamps[-1] - state.stamp, pose[0, :, 0:3, 0:3], pose[0, :, 0:3, 3], self.ego)
        return g[:, None], c[:, None], stamps

    def _carry(self, state: _SetState, tick: int) -> BankState:
        """``state``'s ``(mean, cov)`` carried to ``tick`` in one predict.

        Each step adds Q, and the later steps carry it as A(s) Q A(s)^T at its
        age s at ``tick``, a remap leaving Q's isotropic blocks unchanged, so
        n steps add ``[[n q_pos + q_vel sum(s^2), q_vel sum(s)],
        [q_vel sum(s), n q_vel]]`` in 3x3 blocks.
        """
        if tick == state.tick:
            return state.mean, state.cov
        g, c, stamps = self._span(state, tick)
        ages = stamps[-1] - stamps
        q = len(ages) * self._q + self.cfg.q_vel * (ages @ ages * _POS_POS + ages.sum() * _POS_VEL)
        return predict(state.mean, state.cov, g, c, q)

    def _apply_measurement(
        self, mean: np.ndarray | None, cov: np.ndarray | None, measured: np.ndarray, gap: float
    ) -> BankState:
        """Associate and update all seven points of every lane with one set,
        taken ``gap`` after the newest set applied before it."""
        shape = (len(self.ego), N_POINTS)
        if mean is None:
            mean, cov = init_track(np.tile(measured, (len(self.ego), 1)), self._p0)
            return mean.reshape(shape + (6,)), cov.reshape(shape + (6, 6))
        assoc = associate_measurement(mean[..., 0:3], np.broadcast_to(measured, shape + (3,)))
        # The kernels run on the (L * 7) rows of all lanes together.
        mean, cov, assoc = mean.reshape(-1, 6), cov.reshape(-1, 6, 6), assoc.reshape(-1, 3)
        depth = np.maximum(mean[:, 2], self.cam.near_z)
        r = measurement_covariance(self.cam, depth, self.cfg)
        new_mean, new_cov = update(mean, cov, assoc, r)
        if gap > self.reacquire_window:
            # Long blind spot: restart each track whose prediction no longer
            # explains the measurement instead of dragging it.
            reset = _mahalanobis2(mean, cov, assoc, r) > self.reacquire_gate**2
            if reset.any():
                new_mean[reset], new_cov[reset] = init_track(assoc[reset], self._p0)
        return new_mean.reshape(shape + (6,)), new_cov.reshape(shape + (6, 6))

    def _set_state(self, base: _SetState | None, tick: int, set_stamp: float, z: np.ndarray) -> _SetState:
        """The state after the set ``z``, stamped ``set_stamp``, applied at
        ``tick`` after ``base``, the state before it (None before the first
        set), which is carried to ``tick`` first."""
        stamp = float(self._stamps[tick % len(self._stamps)])
        mean, cov, seen = (None, None, -np.inf) if base is None else (*self._carry(base, tick), base.seen)
        # The gap runs from the newest set applied before this one.
        mean, cov = self._apply_measurement(mean, cov, z, stamp - seen)
        return _SetState(tick, stamp, mean, cov, max(seen, set_stamp), (set_stamp, z))

    def ingest(self, measured: SigmaPointSet, meas_stamp: float) -> IngestStatus:
        """Fold in a (possibly delayed) measurement.

        Replay mode applies the set at the newest tick at or before its
        stamp, after the sets already applied there, and applies every later
        set again; its state keeps the set, so later rollbacks apply it too.
        A set older than the last ``history_depth`` ticks is dropped (stale),
        leaving the state unchanged.  Every lane takes the same rollback.
        """
        if meas_stamp > self._stamp + STAMP_EPS:
            raise ValueError("measurement stamp is in the future")
        z = np.asarray(measured.points, dtype=float).reshape(N_POINTS, 3)
        tick = self._tick if self.oosm_mode == "in_place" else self._tick_at(meas_stamp)
        if tick is None:
            return IngestStatus.STALE

        # The set follows every set applied at or before its tick, and every
        # later set is applied again after it, in order.
        states = self._states
        i = bisect_right(states, tick, key=_BY_TICK)
        states.insert(i, self._set_state(states[i - 1] if i else None, tick, meas_stamp, z))
        for j in range(i + 1, len(states)):
            states[j] = self._set_state(states[j - 1], states[j].tick, *states[j].measured)
        state = states[-1]
        if state.tick == self._tick:
            self._mean = state.mean
        else:
            g, c, _ = self._span(state, self._tick)
            self._mean = predict_mean(state.mean, g, c)
        return IngestStatus.APPLIED
