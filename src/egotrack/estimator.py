"""Constant-velocity Kalman filtering of sigma points in the moving camera frame.

Each of the seven points gets its own independent 6D filter (position and
velocity).  Every control step does a constant-velocity predict followed by a
deterministic ego-motion remap into the new camera frame; delayed measurements
are handled by rolling back to a history snapshot and replaying.

The filter math lives in batched kernels over ``n`` independent states: means
shaped ``(n, 6)`` (position then velocity) and covariances ``(n, 6, 6)``.
``predict``, ``update`` and the other per-point functions are batch-of-1
wrappers around them.  The bank runs all seven points of one or more lanes at
once (a lane per ego-compensation setting) and fuses predict and ego remap
into one step, ``_propagate_batch``.  Kernels return new arrays and never
write into their inputs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDepthError, NumericalError
from .geometry import CameraModel, RigidTransform, SigmaPointSet, rotate

N_POINTS = 7


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
        for name in ("q_pos", "q_vel", "sigma_u", "sigma_v", "sigma_z", "p0_pos", "p0_vel"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class TrackState:
    """Posterior of one tracked point: mean (position, velocity) and 6x6 covariance."""

    position: np.ndarray
    velocity: np.ndarray
    covariance: np.ndarray
    last_stamp: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float).reshape(3))
        object.__setattr__(self, "velocity", np.asarray(self.velocity, dtype=float).reshape(3))
        object.__setattr__(self, "covariance", np.asarray(self.covariance, dtype=float).reshape(6, 6))


# ---------------------------------------------------------------------------
# Batched kernels over n states: mean (n, 6), cov (n, 6, 6).


def _prior(cfg: FilterConfig) -> np.ndarray:
    return np.diag([cfg.p0_pos] * 3 + [cfg.p0_vel] * 3)


def _process_noise(cfg: FilterConfig) -> np.ndarray:
    return np.diag([cfg.q_pos] * 3 + [cfg.q_vel] * 3)


def _transition(dt: float) -> np.ndarray:
    """Constant-velocity state transition A over one step of length dt."""
    a = np.eye(6)
    a[0:3, 3:6] = dt * np.eye(3)
    return a


def _ego_map(rotation: np.ndarray) -> np.ndarray:
    """blockdiag(R, R): the ego remap of a (position, velocity) covariance."""
    f = np.zeros((6, 6))
    f[0:3, 0:3] = rotation
    f[3:6, 3:6] = rotation
    return f


def _init_batch(z: np.ndarray, p0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fresh states at measured positions z (n, 3): zero velocity, prior p0."""
    mean = np.concatenate([z, np.zeros_like(z)], axis=1)
    return mean, np.repeat(p0[None], len(z), axis=0)


def _predict_batch(
    mean: np.ndarray, cov: np.ndarray, dt: float, a: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Constant-velocity time update with transition a = A(dt) and noise q."""
    pos = mean[:, 0:3] + dt * mean[:, 3:6]
    return np.concatenate([pos, mean[:, 3:6]], axis=1), a @ cov @ a.T + q


def _compensate_batch(
    mean: np.ndarray, cov: np.ndarray, t_rel: RigidTransform, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remap into the new camera frame; f = blockdiag(R, R) of t_rel."""
    r = t_rel.rotation
    pos = rotate(r, mean[:, 0:3]) + t_rel.translation
    return np.concatenate([pos, rotate(r, mean[:, 3:6])], axis=1), f @ cov @ f.T


def _propagate_batch(
    mean: np.ndarray, cov: np.ndarray, g: np.ndarray, c: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fused predict and ego remap: mean' = g mean + c, cov' = g cov g^T + q.

    With g = F A and c = [t; 0] this is ``_predict_batch`` followed by
    ``_compensate_batch`` up to rounding, since F Q F^T = Q for the isotropic
    per-block Q.  ``g`` broadcasts against the leading axes of ``cov``.  The
    mean is rotated as column vectors, which rounds the same for any number
    of leading rows; ``mean @ g^T`` would not.
    """
    return (g @ mean[..., None])[..., 0] + c, g @ cov @ g.swapaxes(-1, -2) + q


def _measurement_cov_batch(cam: CameraModel, depth: np.ndarray, cfg: FilterConfig) -> np.ndarray:
    """Depth-scaled measurement covariances (n, 3, 3) for depths (n,)."""
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


def _update_batch(
    mean: np.ndarray, cov: np.ndarray, z: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Position-only Joseph-form update of n states by z (n, 3), r (n, 3, 3)."""
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


# ---------------------------------------------------------------------------
# Per-point API: batch-of-1 wrappers around the kernels.


def _stacked(track: TrackState) -> tuple[np.ndarray, np.ndarray]:
    return np.concatenate([track.position, track.velocity])[None], track.covariance[None]


def _track(mean: np.ndarray, cov: np.ndarray, stamp: float) -> TrackState:
    return TrackState(mean[0, 0:3], mean[0, 3:6], cov[0], stamp)


def init_track(z: np.ndarray, cfg: FilterConfig, stamp: float) -> TrackState:
    """Fresh track at a measured position: zero velocity, diagonal prior."""
    return _track(*_init_batch(np.asarray(z, dtype=float).reshape(1, 3), _prior(cfg)), stamp)


def predict(track: TrackState, dt: float, cfg: FilterConfig) -> TrackState:
    """Constant-velocity time update; Q is added once per step regardless of dt."""
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    mean, cov = _predict_batch(*_stacked(track), dt, _transition(dt), _process_noise(cfg))
    return _track(mean, cov, track.last_stamp + dt)


def compensate_ego_motion(track: TrackState, t_rel: RigidTransform) -> TrackState:
    """Deterministic remap of the state into the new camera frame.

    Positions take the full rigid map, velocities rotate only, and the
    covariance is conjugated by blockdiag(R, R); no noise is added because the
    ego increment is treated as known.
    """
    mean, cov = _compensate_batch(*_stacked(track), t_rel, _ego_map(t_rel.rotation))
    return _track(mean, cov, track.last_stamp)


def measurement_covariance(cam: CameraModel, depth_z: float, cfg: FilterConfig) -> np.ndarray:
    """Depth-scaled position measurement covariance.

    Pixel noise maps to metric noise through the pinhole model at the point's
    depth: sigma_X = (Z/fx) sigma_u, sigma_Y = (Z/fy) sigma_v; depth noise is
    constant sigma_z.
    """
    return _measurement_cov_batch(cam, np.array([depth_z], dtype=float), cfg)[0]


def update(track: TrackState, z: np.ndarray, r_t: np.ndarray, cfg: FilterConfig) -> TrackState:
    """Position-only measurement update in Joseph form.

    Joseph form keeps the covariance symmetric positive semidefinite under
    roundoff, which matters after long replay chains.
    """
    z = np.asarray(z, dtype=float).reshape(1, 3)
    r_t = np.asarray(r_t, dtype=float).reshape(1, 3, 3)
    return _track(*_update_batch(*_stacked(track), z, r_t), track.last_stamp)


def associate_points(predicted: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """Resolve the +/- sign ambiguity of each measured axis pair, batched.

    ``measured`` is shaped ``(..., 7, 3)`` and ``predicted``'s leading
    dimensions broadcast to its own.  The centroid maps to the centroid and
    axes correspond by eigenvalue rank; the only freedom is which end of each
    measured pair is which, chosen to minimize the summed squared distance to
    the prediction.  A pair is swapped only when that is strictly closer, so
    ties and NaN sets keep the measured order.  Returns a new array.
    """
    p = np.asarray(predicted, dtype=float)
    m = np.asarray(measured, dtype=float)
    lead = m.shape[:-2]
    p_pairs = p[..., 1:, :].reshape(p.shape[:-2] + (3, 2, 3))
    m_pairs = m[..., 1:, :].reshape(lead + (3, 2, 3))
    keep = np.sum((m_pairs - p_pairs) ** 2, axis=-1)
    swap = np.sum((m_pairs - p_pairs[..., ::-1, :]) ** 2, axis=-1)
    flip = swap[..., 0] + swap[..., 1] < keep[..., 0] + keep[..., 1]
    pairs = np.where(flip[..., None, None], m_pairs[..., ::-1, :], m_pairs)
    return np.concatenate([m[..., :1, :], pairs.reshape(lead + (6, 3))], axis=-2)


def associate_measurement(predicted: SigmaPointSet, measured: SigmaPointSet) -> SigmaPointSet:
    """``associate_points`` on one predicted and one measured set."""
    return SigmaPointSet(associate_points(predicted.points, measured.points), measured.frame)


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
    ``mean' = g mean + c``, built once by ``step`` and reused by every replay
    through this entry.  ``state`` is never written in place, so a record can
    share arrays with the bank.  ``measurements`` keeps every raw set
    accepted at this stamp (arrival order) so a later rollback can re-apply
    them during replay.
    """

    stamp: float
    g: np.ndarray | None = None
    c: np.ndarray | None = None
    state: BankState | None = None
    measurements: list[np.ndarray] = field(default_factory=list)


# Stamp comparisons tolerate accumulated float error, far below one tick.
_STAMP_EPS = 1e-9
_EYE3 = np.eye(3)


class FilterBank:
    """Seven independent per-point filters sharing a rollback history.

    The bank carries one lane per entry of ``ego_lanes``: every lane sees the
    same steps and measurements, and a lane applies the ego increment only
    when its flag is true (a false lane is the no-compensation baseline).
    One rollback replays all lanes at once.  ``estimate``, ``velocities`` and
    ``tracks`` read lane 0.

    The bank starts uninitialized; the first accepted measurement creates the
    tracks at its own stamp and replays forward, so initialization is
    latency-correct like every later update.
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
        if oosm_mode not in ("replay", "in_place"):
            raise ValueError(f"unknown oosm_mode {oosm_mode!r}")
        if len(ego_lanes) < 1:
            raise ValueError("ego_lanes needs at least one lane")
        self.cfg = cfg
        self.cam = cam
        self.oosm_mode = oosm_mode
        self.reacquire_window = reacquire_window
        self.reacquire_gate = reacquire_gate
        self._ego = np.array(ego_lanes, dtype=bool)[:, None, None]
        self._q = _process_noise(cfg)
        self._p0 = _prior(cfg)
        self.state: BankState | None = None
        self.last_measurement_stamp: float | None = None
        self.history: deque[_StepRecord] = deque(maxlen=history_depth)
        self.history.append(_StepRecord(start_stamp))

    @property
    def stamp(self) -> float:
        return self.history[-1].stamp

    @property
    def tracks(self) -> list[TrackState] | None:
        """Per-point copies of lane 0; editing them changes nothing."""
        if self.state is None:
            return None
        mean, cov = self.state
        return [
            TrackState(mean[0, j, 0:3].copy(), mean[0, j, 3:6].copy(), cov[0, j].copy(), self.stamp)
            for j in range(N_POINTS)
        ]

    def estimate(self) -> SigmaPointSet | None:
        if self.state is None:
            return None
        return SigmaPointSet(self.state[0][0, :, 0:3].copy())

    def velocities(self) -> np.ndarray | None:
        if self.state is None:
            return None
        return self.state[0][0, :, 3:6].copy()

    def step(self, dt: float, t_rel: RigidTransform) -> SigmaPointSet | None:
        """Advance one control tick: predict then remap by the ego increment."""
        self._advance(dt, t_rel.rotation, t_rel.translation)
        return self.estimate()

    def _advance(self, dt: float, rotation: np.ndarray, translation: np.ndarray) -> None:
        """``step`` on an increment given as arrays the caller has already
        checked (see ``geometry.check_rotations``), without the estimate copy."""
        if dt < 0.0:
            raise ValueError("dt must be non-negative")
        # g = F A = [[R, dt R], [0, R]] with R = I on lanes that skip the ego
        # increment, where it is A; written out blockwise, equal to the product.
        r = np.where(self._ego, rotation, _EYE3)
        g = np.zeros((len(r), 6, 6))
        g[:, 0:3, 0:3] = g[:, 3:6, 3:6] = r
        g[:, 0:3, 3:6] = dt * r
        c = np.zeros((len(r), 6))
        c[:, 0:3] = np.where(self._ego[:, 0], translation, 0.0)
        rec = _StepRecord(self.stamp + dt, g[:, None], c[:, None])
        if self.state is not None:
            self.state = rec.state = _propagate_batch(*self.state, rec.g, rec.c, self._q)
        self.history.append(rec)

    def _apply_measurement(
        self, state: BankState | None, measured: np.ndarray, stamp: float
    ) -> BankState:
        """Associate and update all seven tracks of every lane at one stamp."""
        shape = (len(self._ego), N_POINTS)
        if state is None:
            mean, cov = _init_batch(np.tile(measured, (len(self._ego), 1)), self._p0)
            return mean.reshape(shape + (6,)), cov.reshape(shape + (6, 6))
        mean, cov = state
        assoc = associate_points(mean[..., 0:3], np.broadcast_to(measured, shape + (3,)))
        # The kernels run on the (L * 7) rows of all lanes together.
        mean, cov, assoc = mean.reshape(-1, 6), cov.reshape(-1, 6, 6), assoc.reshape(-1, 3)
        depth = np.maximum(mean[:, 2], self.cam.near_z)
        r = _measurement_cov_batch(self.cam, depth, self.cfg)
        new_mean, new_cov = _update_batch(mean, cov, assoc, r)
        gap = (
            np.inf
            if self.last_measurement_stamp is None
            else stamp - self.last_measurement_stamp
        )
        if gap > self.reacquire_window:
            # Long blind spot: restart each track whose prediction no longer
            # explains the measurement instead of dragging it.
            reset = _mahalanobis2(mean, cov, assoc, r) > self.reacquire_gate**2
            if reset.any():
                new_mean[reset], new_cov[reset] = _init_batch(assoc[reset], self._p0)
        return new_mean.reshape(shape + (6,)), new_cov.reshape(shape + (6, 6))

    def _note_measurement(self, meas_stamp: float) -> None:
        if self.last_measurement_stamp is None or meas_stamp > self.last_measurement_stamp:
            self.last_measurement_stamp = meas_stamp

    def ingest(self, measured: SigmaPointSet, meas_stamp: float) -> IngestStatus:
        """Fold in a (possibly delayed) measurement.

        Replay mode rolls back to the newest snapshot at or before the
        measurement stamp, applies the update there, and replays the stored
        steps; the rewritten snapshots keep the measurement so later
        rollbacks see it too.  Measurements older than the history horizon
        are dropped (stale), leaving the state unchanged.  Every lane takes
        the same rollback.
        """
        if meas_stamp > self.stamp + _STAMP_EPS:
            raise ValueError("measurement stamp is in the future")
        z = np.asarray(measured.points, dtype=float).reshape(N_POINTS, 3)

        if self.oosm_mode == "in_place":
            idx = len(self.history) - 1
        else:
            idx = next(
                (i for i in range(len(self.history) - 1, -1, -1)
                 if self.history[i].stamp <= meas_stamp + _STAMP_EPS),
                None,
            )
            if idx is None:
                return IngestStatus.STALE

        rec = self.history[idx]
        state = rec.state = self._apply_measurement(rec.state, z, rec.stamp)
        rec.measurements.append(z)
        self._note_measurement(meas_stamp)
        for i in range(idx + 1, len(self.history)):
            nxt = self.history[i]
            state = _propagate_batch(*state, nxt.g, nxt.c, self._q)
            for old in nxt.measurements:
                state = self._apply_measurement(state, old, nxt.stamp)
            nxt.state = state
        self.state = state
        return IngestStatus.APPLIED
