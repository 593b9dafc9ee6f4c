"""Constant-velocity Kalman filtering of sigma points in the moving camera frame.

Each of the seven points gets its own independent 6D filter (position and
velocity).  Every control step does a constant-velocity predict fused with a
deterministic ego-motion remap into the new camera frame; delayed
measurements are handled by rolling back to a history snapshot and replaying.

The filter math is a set of batched functions over ``n`` independent states:
means shaped ``(n, 6)`` (position then velocity) and covariances
``(n, 6, 6)``.  ``init_track``, ``compensate_ego_motion``, ``predict``,
``measurement_covariance``, ``update`` and ``associate_measurement`` are the
functions the bank itself calls, for all seven points of one or more lanes at
once (a lane per ego-compensation setting).  They return new arrays and never
write into their inputs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDepthError, NumericalError
from .geometry import CameraModel, RigidTransform, SigmaPointSet

N_POINTS = 7
_EYE3 = np.eye(3)


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
    dt: float, rotation: np.ndarray, translation: np.ndarray, ego: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One step's propagation ``(g, c)`` for each lane, shaped (L, 6, 6) and (L, 6).

    ``g = F A`` is the constant-velocity transition A(dt) followed by the ego
    remap F = blockdiag(R, R), and ``c = [t; 0]``: positions take the full
    rigid map and velocities rotate only.  A lane whose ``ego`` flag is false
    skips the increment (R = I, t = 0); the flags are shaped (L, 1, 1) so they
    broadcast over each lane's 3x3 blocks.  No noise is added for the
    remap, because the ego increment is treated as known.
    """
    if dt < 0.0:
        raise ValueError("dt must be non-negative")
    # g = [[R, dt R], [0, R]], written out blockwise, equal to the product.
    r = np.where(ego, rotation, _EYE3)
    g = np.zeros((len(r), 6, 6))
    g[:, 0:3, 0:3] = g[:, 3:6, 3:6] = r
    g[:, 0:3, 3:6] = dt * r
    c = np.zeros((len(r), 6))
    c[:, 0:3] = np.where(ego[:, 0], translation, 0.0)
    return g, c


def predict(
    mean: np.ndarray, cov: np.ndarray, g: np.ndarray, c: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fused predict and ego remap: mean' = g mean + c, cov' = g cov g^T + q.

    With ``(g, c)`` from ``compensate_ego_motion`` this is the
    constant-velocity time update followed by the ego remap, up to rounding,
    since F Q F^T = Q for the isotropic per-block Q; Q is added once per step
    regardless of dt.  ``g`` broadcasts against the leading axes of ``cov``.
    The mean is rotated as column vectors, which rounds the same for any
    number of leading rows; ``mean @ g^T`` would not.
    """
    return (g @ mean[..., None])[..., 0] + c, g @ cov @ g.swapaxes(-1, -2) + q


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
    return SigmaPointSet(out, measured.frame) if single else out


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


class FilterBank:
    """Seven independent per-point filters sharing a rollback history.

    The bank carries one lane per entry of ``ego_lanes``: every lane sees the
    same steps and measurements, and a lane applies the ego increment only
    when its flag is true (a false lane is the no-compensation baseline).
    One rollback replays all lanes at once.  ``estimate`` reads lane 0.

    The bank starts uninitialized; the first accepted measurement creates the
    filters at its own stamp and replays forward, so initialization is
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

    def estimate(self) -> SigmaPointSet | None:
        if self.state is None:
            return None
        return SigmaPointSet(self.state[0][0, :, 0:3].copy())

    def step(self, dt: float, t_rel: RigidTransform) -> None:
        """Advance one control tick: predict then remap by the ego increment."""
        self._advance(dt, t_rel.rotation, t_rel.translation)

    def _advance(self, dt: float, rotation: np.ndarray, translation: np.ndarray) -> None:
        """``step`` on an increment given as arrays the caller has already
        checked (see ``geometry.check_rotations``)."""
        g, c = compensate_ego_motion(dt, rotation, translation, self._ego)
        rec = _StepRecord(self.stamp + dt, g[:, None], c[:, None])
        if self.state is not None:
            self.state = rec.state = predict(*self.state, rec.g, rec.c, self._q)
        self.history.append(rec)

    def _apply_measurement(
        self, state: BankState | None, measured: np.ndarray, stamp: float
    ) -> BankState:
        """Associate and update all seven points of every lane at one stamp."""
        shape = (len(self._ego), N_POINTS)
        if state is None:
            mean, cov = init_track(np.tile(measured, (len(self._ego), 1)), self._p0)
            return mean.reshape(shape + (6,)), cov.reshape(shape + (6, 6))
        mean, cov = state
        assoc = associate_measurement(mean[..., 0:3], np.broadcast_to(measured, shape + (3,)))
        # The kernels run on the (L * 7) rows of all lanes together.
        mean, cov, assoc = mean.reshape(-1, 6), cov.reshape(-1, 6, 6), assoc.reshape(-1, 3)
        depth = np.maximum(mean[:, 2], self.cam.near_z)
        r = measurement_covariance(self.cam, depth, self.cfg)
        new_mean, new_cov = update(mean, cov, assoc, r)
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
                new_mean[reset], new_cov[reset] = init_track(assoc[reset], self._p0)
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
            state = predict(*state, nxt.g, nxt.c, self._q)
            for old in nxt.measurements:
                state = self._apply_measurement(state, old, nxt.stamp)
            nxt.state = state
        self.state = state
        return IngestStatus.APPLIED
