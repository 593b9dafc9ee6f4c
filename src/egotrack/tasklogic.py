"""Task-level logic: alignment errors, termination criteria, reward terms,
adaptive start-pose curriculum, and dual-horizon observation assembly.

Angles are intrinsic (roll, pitch, yaw) in radians; angle differences are
always wrapped to (-pi, pi] before use.  The pose errors, the success band
and the reward terms take one pose or a stack of poses with leading axes;
one pose gives floats, a stack gives arrays over its leading axes.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import check_fields
from .geometry import N_POINTS, dots, norms

TWO_PI = 2.0 * math.pi


def wrap_angles(a) -> np.ndarray:
    """Wrap each angle to (-pi, pi]."""
    w = (np.asarray(a, dtype=float) + math.pi) % TWO_PI - math.pi
    return np.where(w == -math.pi, math.pi, w)


def _scalar(x):
    """A float for a 0-d result, the array otherwise."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _rows(x, width: int) -> np.ndarray:
    """``x`` as a float array with a last axis of ``width``."""
    a = np.asarray(x, dtype=float)
    if a.shape[-1:] != (width,):
        raise ValueError(f"expected a last axis of {width}, got shape {a.shape}")
    return a


class TerminalStatus(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    RUNNING = "running"


class InitKind(enum.Enum):
    NEAR_OPTIMAL = "near_optimal"
    FAILURE_REPLAY = "failure_replay"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class TaskGeometry:
    """Target pose, approach hint, and diagonal error weights for one task."""

    p_opt: np.ndarray = field(default_factory=lambda: np.zeros(3))
    theta_opt: np.ndarray = field(default_factory=lambda: np.zeros(3))
    p_hint: np.ndarray = field(default_factory=lambda: np.zeros(3))
    w_pos: np.ndarray = field(default_factory=lambda: np.ones(3))
    w_rot: np.ndarray = field(default_factory=lambda: np.ones(3))

    def __post_init__(self):
        for name in ("p_opt", "theta_opt", "p_hint", "w_pos", "w_rot"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))
        check_fields(self, non_negative=("w_pos", "w_rot"))


@dataclass(frozen=True)
class CriteriaConfig:
    """Success bands (eps) and failure bands (delta), success strictly tighter."""

    eps_x: float = 0.05
    eps_y: float = 0.03
    eps_yaw: float = 0.10
    eps_pitch: float = 0.15
    delta_x: float = 0.10
    delta_y: float = 0.10
    delta_yaw: float = 0.20
    delta_pitch: float = 0.20

    def __post_init__(self):
        for axis in ("x", "y", "yaw", "pitch"):
            if not 0.0 < getattr(self, f"eps_{axis}") < getattr(self, f"delta_{axis}"):
                raise ValueError(f"eps_{axis} must be positive and strictly below delta_{axis}")


@dataclass(frozen=True)
class RewardConfig:
    """Term weights, tracking kernel width, and actuator limits."""

    sigma_track: float = 0.04
    k_pos: float = 1.0
    w_hint: float = 0.4
    w_opt: float = 20.0
    w_miss: float = -0.1
    w_roll: float = -2.0
    w_ang: float = -0.1
    w_smooth: float = -0.01
    w_limit: float = -0.1
    clip_planar: float = 0.5
    clip_pitch: float = math.pi / 6.0
    # Which base-velocity components gate the stillness kernel in the
    # convergence bonus: "planar" = (vx, vy, wz), "linear3d" adds vz.
    opt_velocity: str = "planar"

    def __post_init__(self):
        check_fields(self, positive=("sigma_track", "clip_planar", "clip_pitch"),
                     choices={"opt_velocity": ("planar", "linear3d")})


@dataclass
class ProprioState:
    """Body-frame proprioception snapshot (z-up base frame); every field may
    carry leading tick axes, and each gravity row must be a unit vector."""

    gravity_proj: np.ndarray
    lin_vel: np.ndarray
    ang_vel: np.ndarray
    prev_action: np.ndarray
    task_flag: int = 0

    def __post_init__(self):
        self.gravity_proj = _rows(self.gravity_proj, 3)
        self.lin_vel = _rows(self.lin_vel, 3)
        self.ang_vel = _rows(self.ang_vel, 3)
        self.prev_action = _rows(self.prev_action, 4)
        if np.any(np.abs(norms(self.gravity_proj) - 1.0) > 1e-6):
            raise ValueError("projected gravity must be a unit vector")


def _pose_deltas(position, angles, geom: TaskGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Position offset and wrapped angle offset from the optimal pose."""
    dp = _rows(position, 3) - geom.p_opt
    return dp, wrap_angles(_rows(angles, 3) - geom.theta_opt)


def alignment_errors(position, angles, geom: TaskGeometry):
    """Weighted position and rotation distances to the optimal pose."""
    dp, dth = _pose_deltas(position, angles, geom)
    return _scalar(np.sqrt(dots(dp, geom.w_pos * dp))), _scalar(np.sqrt(dots(dth, geom.w_rot * dth)))


def cross_track_error(position, p_hint, p_opt):
    """Distance to the segment from the approach hint to the optimal point.

    The projection parameter is clamped to [0, 1], so beyond either endpoint
    this is the plain distance to that endpoint; a degenerate segment reduces
    to distance-to-point.  ``position`` may be a stack; the segment is one.
    """
    p = _rows(position, 3)
    a = np.asarray(p_hint, dtype=float).reshape(3)
    b = np.asarray(p_opt, dtype=float).reshape(3)
    seg = b - a
    seg_sq = float(dots(seg, seg))
    if seg_sq == 0.0:
        return _scalar(norms(p - b))
    s = np.clip(dots(p - a, seg) / seg_sq, 0.0, 1.0)
    return _scalar(norms(p - (a + s[..., None] * seg)))


def _band_errors(position, angles, geom: TaskGeometry) -> np.ndarray:
    """Raw per-axis errors (x, y, yaw, pitch) along a last axis."""
    dp, dth = _pose_deltas(position, angles, geom)
    return np.abs(np.stack([dp[..., 0], dp[..., 1], dth[..., 2], dth[..., 1]], axis=-1))


def _in_success_band(position, angles, geom: TaskGeometry, crit: CriteriaConfig):
    """Whether every raw axis error is strictly inside its success limit."""
    eps = (crit.eps_x, crit.eps_y, crit.eps_yaw, crit.eps_pitch)
    return np.all(_band_errors(position, angles, geom) < eps, axis=-1)


def terminal_status(position, angles, geom: TaskGeometry, crit: CriteriaConfig,
                    timed_out: bool) -> TerminalStatus:
    """Success/failure bands on raw per-axis errors of one pose.

    Success can fire at any step; failure only at timeout, and only when some
    axis sits at or beyond its failure band.  A timeout inside the dead band
    (eps <= err < delta on every axis) stays RUNNING: not a success, but also
    not a failure worth replaying.
    """
    if _in_success_band(position, angles, geom, crit):
        return TerminalStatus.SUCCESS
    delta = (crit.delta_x, crit.delta_y, crit.delta_yaw, crit.delta_pitch)
    if timed_out and np.any(_band_errors(position, angles, geom) >= delta):
        return TerminalStatus.FAILURE
    return TerminalStatus.RUNNING


@dataclass(frozen=True)
class RewardBreakdown:
    """Raw (unweighted) term values plus the weighted total: floats for one
    step, arrays over the leading axes of a stack of steps."""

    hint: float | np.ndarray
    opt: float | np.ndarray
    miss: float | np.ndarray
    roll: float | np.ndarray
    ang: float | np.ndarray
    smooth: float | np.ndarray
    limit: float | np.ndarray
    total: float | np.ndarray

    def to_dict(self) -> dict:
        return asdict(self)


def clip_action(raw, rcfg: RewardConfig) -> tuple[np.ndarray, float | np.ndarray]:
    """Clamp an action, or each action of a stack, to the actuator box; also
    return ||a_clip - a||^2, the input of the limit penalty: a float for one
    action, an array over the leading axes of a stack."""
    a = _rows(raw, 4)
    box = np.array([rcfg.clip_planar] * 3 + [rcfg.clip_pitch])
    clipped = np.clip(a, -box, box)
    return clipped, _scalar(np.sum((clipped - a) ** 2, axis=-1))


def compute_reward(
    position,
    angles,
    geom: TaskGeometry,
    crit: CriteriaConfig,
    proprio: ProprioState,
    action,
    out_fov,
    rcfg: RewardConfig,
) -> RewardBreakdown:
    """Evaluate every reward term at one step, or at every step of a stack.

    The pose, ``proprio``'s fields, ``action`` and ``out_fov`` may carry
    leading axes, which broadcast together.  ``action`` is the raw policy
    output: it is clipped to the ``rcfg`` box, the clip distance is the limit
    term, and the smoothness term compares the clipped action with
    ``proprio.prev_action``.  The convergence bonus gates on the success
    criterion evaluated without timeout.
    """
    e_pos, e_rot = alignment_errors(position, angles, geom)
    d_path = cross_track_error(position, geom.p_hint, geom.p_opt)
    n_lin = 2 if rcfg.opt_velocity == "planar" else 3
    v = np.concatenate([proprio.lin_vel[..., :n_lin], proprio.ang_vel[..., 2:]], axis=-1)
    success = _in_success_band(position, angles, geom, crit)
    clipped, clip_sq = clip_action(action, rcfg)
    sq = np.broadcast_arrays(np.square(d_path), np.square(e_rot), np.square(e_pos), dots(v, v))
    # A square over a tiny sigma overflows to inf, and its kernel is 0.
    with np.errstate(over="ignore"):
        k_path, k_rot, k_pos, k_v = np.exp(-np.stack(sq) / rcfg.sigma_track)
    hint, opt, miss, roll, ang, smooth, limit = np.broadcast_arrays(
        k_path * k_rot * (1.0 + rcfg.k_pos * k_pos),
        np.where(success, k_pos * k_rot * k_v, 0.0), np.where(out_fov, 1.0, 0.0),
        np.square(proprio.gravity_proj[..., 1]),
        np.square(proprio.ang_vel[..., 0]) + np.square(proprio.ang_vel[..., 1]),
        np.sum((clipped - proprio.prev_action) ** 2, axis=-1),
        clip_sq,
    )

    total = (
        rcfg.w_hint * hint
        + rcfg.w_opt * opt
        + rcfg.w_miss * miss
        + rcfg.w_roll * roll
        + rcfg.w_ang * ang
        + rcfg.w_smooth * smooth
        + rcfg.w_limit * limit
    )
    return RewardBreakdown(*map(_scalar, (hint, opt, miss, roll, ang, smooth, limit, total)))


@dataclass(frozen=True)
class AscConfig:
    """Curriculum schedule: success-rate window and init-mode probabilities."""

    s_thresh: float = 0.15
    lambda_asc: float = 5.0
    p_near_start: float = 0.8
    p_near_end: float = 0.1
    p_fail_start: float = 0.2
    p_fail_end: float = 0.5
    window_n: int = 100
    replay_capacity: int = 1024

    def __post_init__(self):
        if not 0.0 < self.s_thresh <= 1.0:
            raise ValueError("s_thresh must be in (0, 1]")
        check_fields(self, positive=("window_n", "replay_capacity"))
        for p in (self.p_near_start, self.p_near_end, self.p_fail_start, self.p_fail_end):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.p_near_start + self.p_fail_start > 1.0 or self.p_near_end + self.p_fail_end > 1.0:
            raise ValueError("near + fail probability may not exceed 1")


def asc_probability(rho: float, kind: InitKind, cfg: AscConfig) -> float:
    """Interpolated init-mode probability P(rho) = p_end + (p_start - p_end) e^(-lambda rho)."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    decay = math.exp(-cfg.lambda_asc * rho)
    if kind is InitKind.NEAR_OPTIMAL:
        return cfg.p_near_end + (cfg.p_near_start - cfg.p_near_end) * decay
    if kind is InitKind.FAILURE_REPLAY:
        return cfg.p_fail_end + (cfg.p_fail_start - cfg.p_fail_end) * decay
    raise ValueError("uniform has no schedule; it takes the residual mass")


class AscState:
    """Rolling outcome window plus the failed-episode replay buffer."""

    def __init__(self, cfg: AscConfig | None = None):
        self.cfg = cfg or AscConfig()
        self.window: deque[int] = deque(maxlen=self.cfg.window_n)
        self.replay_buffer: deque = deque(maxlen=self.cfg.replay_capacity)

    @property
    def success_rate(self) -> float:
        """Mean over the window; an empty window counts as zero (cold start)."""
        if not self.window:
            return 0.0
        return sum(self.window) / len(self.window)

    @property
    def rho(self) -> float:
        return min(self.success_rate / self.cfg.s_thresh, 1.0)


def asc_update(state: AscState, outcome: TerminalStatus, episode_ref=None) -> AscState:
    """Record one finished episode.

    Only SUCCESS counts toward the rate; FAILURE additionally lands in the
    replay buffer (with whatever reference the caller wants to restart from).
    A timeout inside the dead band (RUNNING) counts as a non-success and is
    not buffered.
    """
    state.window.append(1 if outcome is TerminalStatus.SUCCESS else 0)
    if outcome is TerminalStatus.FAILURE:
        state.replay_buffer.append(episode_ref)
    return state


@dataclass(frozen=True)
class InitDraw:
    kind: InitKind
    replay_ref: object = None


def sample_init(state: AscState, rng: np.random.Generator) -> InitDraw:
    """Draw the next episode's start mode from the current schedule.

    Replay with an empty buffer falls back to a uniform start so the draw is
    always actionable.
    """
    rho = state.rho
    p_near = asc_probability(rho, InitKind.NEAR_OPTIMAL, state.cfg)
    p_fail = asc_probability(rho, InitKind.FAILURE_REPLAY, state.cfg)
    u = float(rng.uniform())
    if u < p_near:
        return InitDraw(InitKind.NEAR_OPTIMAL)
    if u < p_near + p_fail:
        if not state.replay_buffer:
            return InitDraw(InitKind.UNIFORM)
        ref = state.replay_buffer[int(rng.integers(len(state.replay_buffer)))]
        return InitDraw(InitKind.FAILURE_REPLAY, ref)
    return InitDraw(InitKind.UNIFORM)


# Observation layout constants.
N_SHORT = 5      # frames at the control rate
N_LONG = 10      # frames at the observation rate
LONG_STRIDE = 10  # control ticks between long-horizon samples
FRAME_SIZE = N_POINTS * 3  # points x coordinates
PROPRIO_SIZE = 14  # gravity 3 + lin vel 3 + ang vel 3 + prev action 4 + task flag 1
OBS_SIZE = PROPRIO_SIZE + (N_SHORT + N_LONG) * FRAME_SIZE


class ObservationBuffer:
    """Dual-horizon history of sigma-point frames.

    The short ring keeps the last ``N_SHORT`` control ticks; the long ring
    keeps every ``LONG_STRIDE``-th tick, so a full long ring spans 1.8 s at a
    50 Hz control rate.  The ring sizes are the layout constants, so every
    assembled observation is ``OBS_SIZE`` long.
    """

    def __init__(self):
        self.short: deque[np.ndarray] = deque(maxlen=N_SHORT)
        self.long: deque[np.ndarray] = deque(maxlen=N_LONG)

    def push(self, points: np.ndarray, tick: int) -> None:
        frame = np.array(points, dtype=float).reshape(N_POINTS, 3)
        self.short.append(frame)
        if tick % LONG_STRIDE == 0:
            self.long.append(frame)


def _flatten_ring(ring: deque) -> np.ndarray:
    """Oldest-first flat block, zero-padded at the old end while filling."""
    padding = [np.zeros(FRAME_SIZE)] * (ring.maxlen - len(ring))
    return np.concatenate(padding + [frame.reshape(-1) for frame in ring])


def assemble_observation(buf: ObservationBuffer, proprio: ProprioState) -> np.ndarray:
    """Concatenate proprioception and both history blocks into one flat vector.

    Layout: [gravity(3), lin_vel(3), ang_vel(3), prev_action(4), task_flag(1),
    short block N_SHORT x 21 oldest first, long block N_LONG x 21 oldest
    first], each frame row-major over (point, coordinate).
    """
    head = np.concatenate([
        proprio.gravity_proj,
        proprio.lin_vel,
        proprio.ang_vel,
        proprio.prev_action,
        [float(proprio.task_flag)],
    ])
    return np.concatenate([
        head,
        _flatten_ring(buf.short),
        _flatten_ring(buf.long),
    ])
