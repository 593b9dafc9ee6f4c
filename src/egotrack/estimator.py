"""Constant-velocity Kalman filtering of sigma points in the moving camera frame.

Each of the seven points gets its own independent 6D filter (position and
velocity).  Every control step does a constant-velocity predict fused with a
deterministic ego-motion remap into the new camera frame; delayed
measurements are handled by rolling back to a history snapshot and replaying.

Only an update reads a covariance, so the bank keeps covariances current
only through one history record, never older than the newest record that
holds a measurement.  A step moves the newest mean alone.  A replay past
that record carries every later mean from it in closed form: the steps
between two records compose to one rigid map and a time offset, so one
batched product moves all of them (``FilterBank._transport``).  A later
record's covariance is computed once, when a rollback reaches it, a reader
asks for it, or the history is about to evict the last record whose
covariance is known.  The mean and covariance halves of ``predict`` are
independent expressions, so every state equals the one a full replay of
every record would write up to rounding: the closed form groups the same
products differently.

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
from collections import deque
from dataclasses import dataclass, field
from itertools import islice, repeat

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
    The two halves are independent: the mean is ``predict_mean``'s, and None
    for a None ``mean``, when only the covariance is wanted.
    """
    return None if mean is None else predict_mean(mean, g, c), g @ cov @ g.swapaxes(-1, -2) + q


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


@dataclass
class _StepRecord:
    """One history entry: the fused step into this stamp and the state after it.

    ``g`` (L, 1, 6, 6) and ``c`` (L, 1, 6) are the step's propagation
    ``mean' = g mean + c``, built once by ``step``.  A full replay predicts
    through them; the closed-form replay reads this step's rotation and
    translation from them once, for the record's pose.  ``mean`` (L, 7, 6)
    is always current.  ``cov``
    (L, 7, 6, 6) is current only through the bank's ``_cov_known`` record;
    a newer record's ``cov`` is None until the bank needs it (see
    ``FilterBank``).  Both are None before the first set, and neither is
    written in place, so records and callers can share arrays.
    ``measurements`` keeps every raw set accepted at this stamp as
    ``(set stamp, z)`` pairs in arrival order, so a later rollback can
    re-apply them during replay.  ``seen`` is the newest set stamp applied
    at or before this entry (-inf before any set).
    """

    stamp: float
    g: np.ndarray | None = None
    c: np.ndarray | None = None
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    measurements: list[tuple[float, np.ndarray]] = field(default_factory=list)
    seen: float = -np.inf


# Stamp comparisons tolerate accumulated float error, far below one tick.
# Delivery (sim) and rollback share it: a delivered measurement whose stamp
# lies within it of the bank's stamp must not count as in the future.
STAMP_EPS = 1e-9

# Delayed-measurement handling; in_place (the ablation) applies a set at the newest record.
OOSM_MODES = ("replay", "in_place")


class FilterBank:
    """Seven independent per-point filters sharing a rollback history.

    The bank carries one lane per entry of ``ego_lanes``: every lane sees the
    same steps and measurements, and a lane applies the ego increment only
    when its flag is true (a false lane is the no-compensation baseline).
    One rollback replays all lanes at once.  ``estimate`` reads lane 0.

    The bank starts uninitialized; the first accepted measurement creates the
    filters at its own stamp and replays forward, so initialization is
    latency-correct like every later update.

    Covariances are propagated lazily (see the module docstring): they are
    current through record ``_cov_known``, and no later record holds a set.
    Without covariance reads, as in a run, the index is the newest record
    holding a set (0 when none does).  A rollback carries the means of the
    records past it in closed form from it (``_transport``).
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
        self.history: deque[_StepRecord] = deque(maxlen=history_depth)
        self.history.append(_StepRecord(start_stamp))
        self._cov_known = 0
        # The record poses of the closed-form replay (see _transport), by
        # record number counted from the bank's first record: history[0] is
        # record _first, pose slot 0 is record _base, and records through
        # _posed have poses.
        self._first = self._base = 0
        self._posed = -1
        slots, lanes = 2 * history_depth, len(ego_lanes)
        self._pose = np.tile(_EYE4, (slots, lanes, 1, 1))
        self._pose_stamp = np.empty(slots)
        self._step_g = np.empty((slots, lanes, 1, 6, 6))
        self._step_c = np.empty((slots, lanes, 1, 6))
        self._homogeneous = np.tile([[1.0], [0.0]], (lanes, N_POINTS, 1))

    @property
    def stamp(self) -> float:
        return self.history[-1].stamp

    @property
    def mean(self) -> np.ndarray | None:
        """The newest lane means (L, 7, 6), or None before the first set."""
        return self.history[-1].mean

    @property
    def state(self) -> BankState | None:
        """The newest record's ``(mean, cov)``; see ``record_state``."""
        return self.record_state(-1)

    def record_state(self, i: int) -> BankState | None:
        """History record ``i``'s ``(mean, cov)``, its covariance computed now
        if it lies past ``_cov_known``; None before the first set."""
        i = range(len(self.history))[i]
        self._cov_through(i)
        rec = self.history[i]
        return None if rec.mean is None else (rec.mean, rec.cov)

    def estimate(self) -> SigmaPointSet | None:
        if self.mean is None:
            return None
        return SigmaPointSet(self.mean[0, :, 0:3].copy())

    def step(self, dt: float, t_rel: RigidTransform) -> None:
        """Advance one control tick: predict then remap by the ego increment."""
        self.push(dt, *compensate_ego_motion(dt, t_rel.rotation, t_rel.translation, self.ego))

    def push(self, dt: float, g: np.ndarray, c: np.ndarray) -> None:
        """Advance one control tick of ``dt`` by the propagation ``(g, c)``
        that ``compensate_ego_motion`` built for this bank's lanes.  The new
        record holds no set, so only its means are propagated."""
        history = self.history
        if len(history) == history.maxlen:
            # The append evicts record 0; keep a known covariance to start from.
            self._cov_through(1)
            self._cov_known -= 1
            self._first += 1
        prev = history[-1]
        g, c = g[:, None], c[:, None]
        mean = None if prev.mean is None else predict_mean(prev.mean, g, c)
        history.append(_StepRecord(prev.stamp + dt, g, c, mean, seen=prev.seen))

    def _cov_through(self, i: int) -> None:
        """Make record ``i``'s covariance current: predict the covariance of
        each record after the newest known one.  None of them holds a set, so
        the stored means stand and ``predict`` runs its covariance half only."""
        history = self.history
        for j in range(self._cov_known + 1, i + 1):
            prev = history[j - 1]
            if prev.mean is not None:
                rec = history[j]
                rec.cov = predict(None, prev.cov, rec.g, rec.c, self._q)[1]
        self._cov_known = max(self._cov_known, i)

    def _replay(self, start: int) -> None:
        """Rewrite records ``start`` to newest from the record before,
        carrying ``seen``.  Through ``_cov_known``, each record is predicted
        in full and re-applies its stored sets; past it, where no record
        holds a set, ``_transport`` carries the means from that anchor
        record in closed form, and the covariances wait for ``_cov_through``."""
        history = self.history
        anchor = self._cov_known
        prev = history[start - 1]
        mean, cov, seen = prev.mean, prev.cov, prev.seen
        for j in range(start, anchor + 1):
            rec = history[j]
            if mean is not None:
                mean, cov = predict(mean, cov, rec.g, rec.c, self._q)
            for meas_stamp, z in rec.measurements:
                mean, cov = self._apply_measurement(mean, cov, z, rec.stamp - seen)
                seen = max(seen, meas_stamp)
            rec.mean, rec.cov, rec.seen = mean, cov, seen
        if anchor + 1 == len(history):
            return
        means = repeat(None) if mean is None else self._transport(anchor, mean)
        for rec, mean in zip(islice(history, anchor + 1, None), means):
            rec.mean, rec.cov, rec.seen = mean, None, seen

    def _transport(self, anchor: int, mean: np.ndarray) -> np.ndarray:
        """The means of records ``anchor + 1`` to newest, carried in closed
        form from ``mean``, record ``anchor``'s, shaped (records, L, 7, 6).

        The steps from record a to record j compose to the rigid map
        ``(R_ja, t_ja)`` from camera frame a to frame j, and A(dt) commutes
        with blockdiag(R, R), so with ``tau = t_j - t_a``
        ``p_j = R_ja (p_a + tau v_a) + t_ja`` and ``v_j = R_ja v_a``.

        Each lane's record pose ``P_j = [[Q_j, s_j], [0, 1]]``, the map
        ``x_j = Q_j x_base + s_j`` from a base record's frame, is composed
        once; then ``R_ja = Q_j Q_a^T`` and ``t_ja = s_j - R_ja s_a``.  A lane
        with the ego flag false steps by R = I and t = 0, so its poses are
        exactly the identity.  The chain restarts at the anchor when no
        record after it has a pose, or when the newest record would lie
        ``2 * history_depth`` steps past the base, so no pose is a product of
        more steps.  The restarts depend only on record numbers and the
        history depth.
        """
        history, pose, stamps = self.history, self._pose, self._pose_stamp
        first = self._first
        a, newest = first + anchor, first + len(history) - 1
        if self._posed <= a or newest - self._base >= len(pose):
            self._base = self._posed = a
            pose[0] = _EYE4
            stamps[0] = history[anchor].stamp
        base, posed = self._base, self._posed
        if newest > posed:
            # Copy each new record's step into its slot, then turn the slots
            # from the last posed one on into poses with a doubling scan.
            step_g, step_c = self._step_g, self._step_c
            for s, rec in enumerate(islice(history, posed + 1 - first, None), posed + 1 - base):
                step_g[s], step_c[s], stamps[s] = rec.g, rec.c, rec.stamp
            new = slice(posed + 1 - base, newest + 1 - base)
            pose[new, :, 0:3, 0:3] = step_g[new, :, 0, 0:3, 0:3]
            pose[new, :, 0:3, 3] = step_c[new, :, 0, 0:3]
            chain = pose[posed - base:newest + 1 - base]
            d = 1
            while d < len(chain):
                chain[d:] = chain[d:] @ chain[:-d]
                d *= 2
            self._posed = newest
        lo, hi = a - base, newest - base
        lanes, m = len(mean), hi - lo
        # As rows, [p, 1] and [v, 0] times rel, whose columns 3j..3j+2 hold
        # each lane's [R_ja^T; t_ja^T].
        rel = pose[lo + 1:hi + 1, :, 0:3].transpose(1, 3, 0, 2).reshape(lanes, 4, 3 * m)
        if lo:
            turn = pose[lo, :, 0:3, 0:3] @ rel[:, 0:3]
            rel = np.concatenate([turn, rel[:, 3:4] - pose[lo, :, None, 0:3, 3] @ turn], axis=1)
        rows = np.concatenate([mean.reshape(lanes, 2 * N_POINTS, 3), self._homogeneous], axis=2)
        moved = (rows @ rel).reshape(lanes, N_POINTS, 2, m, 3)
        moved[:, :, 0] += (stamps[lo + 1:hi + 1] - stamps[lo])[:, None] * moved[:, :, 1]
        return moved.transpose(3, 0, 1, 2, 4).reshape(m, lanes, N_POINTS, 6)

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

    def ingest(self, measured: SigmaPointSet, meas_stamp: float) -> IngestStatus:
        """Fold in a (possibly delayed) measurement.

        Replay mode rolls back to the newest snapshot at or before the
        measurement stamp, applies the update there, and replays the stored
        steps; the rewritten snapshots keep the measurement so later
        rollbacks see it too.  Measurements older than the history horizon
        are dropped (stale), leaving the state unchanged.  Every lane takes
        the same rollback.
        """
        if meas_stamp > self.stamp + STAMP_EPS:
            raise ValueError("measurement stamp is in the future")
        z = np.asarray(measured.points, dtype=float).reshape(N_POINTS, 3)

        if self.oosm_mode == "in_place":
            idx = len(self.history) - 1
        else:
            idx = next(
                (i for i in range(len(self.history) - 1, -1, -1)
                 if self.history[i].stamp <= meas_stamp + STAMP_EPS),
                None,
            )
            if idx is None:
                return IngestStatus.STALE

        # The new set follows the record's own sets, so its gap starts at rec.seen.
        # _cov_through moves the index to at least idx, past the new set.
        self._cov_through(idx)
        rec = self.history[idx]
        rec.mean, rec.cov = self._apply_measurement(rec.mean, rec.cov, z, rec.stamp - rec.seen)
        rec.seen = max(rec.seen, meas_stamp)
        rec.measurements.append((meas_stamp, z))
        self._replay(idx + 1)
        return IngestStatus.APPLIED
