"""Task-level logic: alignment errors, termination criteria, reward terms,
adaptive start-pose curriculum, and dual-horizon observation assembly.

Angles are intrinsic (roll, pitch, yaw) in radians; angle differences are
always wrapped to (-pi, pi] before use.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    w = (a + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        w = math.pi
    return w


def wrap_angles(a: np.ndarray) -> np.ndarray:
    w = (np.asarray(a, dtype=float) + math.pi) % TWO_PI - math.pi
    return np.where(w == -math.pi, math.pi, w)


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
    task_kind: str = "short_axis"

    def __post_init__(self):
        for name in ("p_opt", "theta_opt", "p_hint", "w_pos", "w_rot"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float).reshape(3))
        if np.any(self.w_pos < 0.0) or np.any(self.w_rot < 0.0):
            raise ValueError("error weights must be non-negative")
        if self.task_kind not in ("long_axis", "short_axis", "release"):
            raise ValueError(f"unknown task_kind {self.task_kind!r}")


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
        pairs = (
            (self.eps_x, self.delta_x),
            (self.eps_y, self.delta_y),
            (self.eps_yaw, self.delta_yaw),
            (self.eps_pitch, self.delta_pitch),
        )
        for eps, delta in pairs:
            if not 0.0 < eps < delta:
                raise ValueError("each eps must be positive and strictly below its delta")


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
        if self.sigma_track <= 0.0:
            raise ValueError("sigma_track must be positive")
        if self.clip_planar <= 0.0 or self.clip_pitch <= 0.0:
            raise ValueError("action limits must be positive")
        if self.opt_velocity not in ("planar", "linear3d"):
            raise ValueError(f"unknown opt_velocity {self.opt_velocity!r}")


@dataclass
class ProprioState:
    """Body-frame proprioception snapshot (z-up base frame)."""

    gravity_proj: np.ndarray
    lin_vel: np.ndarray
    ang_vel: np.ndarray
    prev_action: np.ndarray
    task_flag: int = 0

    def __post_init__(self):
        self.gravity_proj = np.asarray(self.gravity_proj, dtype=float).reshape(3)
        self.lin_vel = np.asarray(self.lin_vel, dtype=float).reshape(3)
        self.ang_vel = np.asarray(self.ang_vel, dtype=float).reshape(3)
        self.prev_action = np.asarray(self.prev_action, dtype=float).reshape(4)
        if abs(np.linalg.norm(self.gravity_proj) - 1.0) > 1e-6:
            raise ValueError("projected gravity must be a unit vector")


def alignment_errors(position, angles, geom: TaskGeometry) -> tuple[float, float]:
    """Weighted position and rotation distances to the optimal pose."""
    dp = np.asarray(position, dtype=float).reshape(3) - geom.p_opt
    dth = wrap_angles(np.asarray(angles, dtype=float).reshape(3) - geom.theta_opt)
    e_pos = math.sqrt(float(dp @ (geom.w_pos * dp)))
    e_rot = math.sqrt(float(dth @ (geom.w_rot * dth)))
    return e_pos, e_rot


def cross_track_error(position, p_hint, p_opt) -> float:
    """Distance to the segment from the approach hint to the optimal point.

    The projection parameter is clamped to [0, 1], so beyond either endpoint
    this is the plain distance to that endpoint; a degenerate segment reduces
    to distance-to-point.
    """
    p = np.asarray(position, dtype=float).reshape(3)
    a = np.asarray(p_hint, dtype=float).reshape(3)
    b = np.asarray(p_opt, dtype=float).reshape(3)
    seg = b - a
    seg_sq = float(seg @ seg)
    if seg_sq == 0.0:
        return float(np.linalg.norm(p - b))
    s = float((p - a) @ seg) / seg_sq
    s = min(1.0, max(0.0, s))
    return float(np.linalg.norm(p - (a + s * seg)))


def terminal_status(position, angles, geom: TaskGeometry, crit: CriteriaConfig,
                    timed_out: bool) -> TerminalStatus:
    """Success/failure bands on raw per-axis errors.

    Success can fire at any step; failure only at timeout, and only when some
    axis sits at or beyond its failure band.  A timeout inside the dead band
    (eps <= err < delta on every axis) stays RUNNING: not a success, but also
    not a failure worth replaying.
    """
    dp = np.asarray(position, dtype=float).reshape(3) - geom.p_opt
    dth = wrap_angles(np.asarray(angles, dtype=float).reshape(3) - geom.theta_opt)
    errs = (abs(dp[0]), abs(dp[1]), abs(dth[2]), abs(dth[1]))  # x, y, yaw, pitch
    eps = (crit.eps_x, crit.eps_y, crit.eps_yaw, crit.eps_pitch)
    delta = (crit.delta_x, crit.delta_y, crit.delta_yaw, crit.delta_pitch)
    if all(e < lim for e, lim in zip(errs, eps)):
        return TerminalStatus.SUCCESS
    if timed_out and any(e >= lim for e, lim in zip(errs, delta)):
        return TerminalStatus.FAILURE
    return TerminalStatus.RUNNING


@dataclass(frozen=True)
class RewardBreakdown:
    """Raw (unweighted) term values plus the weighted total."""

    hint: float
    opt: float
    miss: float
    roll: float
    ang: float
    smooth: float
    limit: float
    total: float

    def to_dict(self) -> dict:
        return {
            "hint": self.hint,
            "opt": self.opt,
            "miss": self.miss,
            "roll": self.roll,
            "ang": self.ang,
            "smooth": self.smooth,
            "limit": self.limit,
            "total": self.total,
        }


def _kernel(sq: float, sigma: float) -> float:
    """exp(-x^2 / sigma) evaluated on a squared magnitude."""
    return math.exp(-sq / sigma)


def clip_action(raw, rcfg: RewardConfig) -> tuple[np.ndarray, float]:
    """Clamp an action to the actuator box; also return ||a_clip - a||^2.

    The squared clip distance is the input of the limit penalty, kept
    separate because downstream consumers only ever see the clipped action.
    """
    a = np.asarray(raw, dtype=float).reshape(4)
    lo = np.array([-rcfg.clip_planar] * 3 + [-rcfg.clip_pitch])
    hi = np.array([rcfg.clip_planar] * 3 + [rcfg.clip_pitch])
    clipped = np.clip(a, lo, hi)
    return clipped, float(np.sum((clipped - a) ** 2))


def compute_reward(
    position,
    angles,
    geom: TaskGeometry,
    crit: CriteriaConfig,
    proprio: ProprioState,
    action,
    prev_action,
    out_fov: bool,
    rcfg: RewardConfig,
    limit_sq: float = 0.0,
) -> RewardBreakdown:
    """Evaluate every reward term at one step.

    ``action`` must already be clipped (see ``clip_action``), which also
    supplies ``limit_sq``.  The convergence bonus gates on the success
    criterion evaluated without timeout.
    """
    sigma = rcfg.sigma_track
    action = np.asarray(action, dtype=float).reshape(4)
    prev_action = np.asarray(prev_action, dtype=float).reshape(4)

    e_pos, e_rot = alignment_errors(position, angles, geom)
    d_path = cross_track_error(position, geom.p_hint, geom.p_opt)

    hint = _kernel(d_path**2, sigma) * _kernel(e_rot**2, sigma) * (
        1.0 + rcfg.k_pos * _kernel(e_pos**2, sigma)
    )

    if rcfg.opt_velocity == "planar":
        v = np.array([proprio.lin_vel[0], proprio.lin_vel[1], proprio.ang_vel[2]])
    else:
        v = np.array([*proprio.lin_vel, proprio.ang_vel[2]])
    success = terminal_status(position, angles, geom, crit, timed_out=False)
    opt = 0.0
    if success is TerminalStatus.SUCCESS:
        opt = (
            _kernel(e_pos**2, sigma)
            * _kernel(e_rot**2, sigma)
            * _kernel(float(v @ v), sigma)
        )

    miss = 1.0 if out_fov else 0.0
    roll = float(proprio.gravity_proj[1]) ** 2
    ang = float(proprio.ang_vel[0]) ** 2 + float(proprio.ang_vel[1]) ** 2
    smooth = float(np.sum((action - prev_action) ** 2))
    limit = float(limit_sq)

    total = (
        rcfg.w_hint * hint
        + rcfg.w_opt * opt
        + rcfg.w_miss * miss
        + rcfg.w_roll * roll
        + rcfg.w_ang * ang
        + rcfg.w_smooth * smooth
        + rcfg.w_limit * limit
    )
    return RewardBreakdown(hint, opt, miss, roll, ang, smooth, limit, total)


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
        if self.window_n < 1 or self.replay_capacity < 1:
            raise ValueError("window and replay capacity must be positive")
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
FRAME_SIZE = 21  # 7 points x 3 coordinates
PROPRIO_SIZE = 14  # gravity 3 + lin vel 3 + ang vel 3 + prev action 4 + task flag 1
OBS_SIZE = PROPRIO_SIZE + (N_SHORT + N_LONG) * FRAME_SIZE


class ObservationBuffer:
    """Dual-horizon history of sigma-point frames.

    The short ring keeps the last ``N_SHORT`` control ticks; the long ring
    keeps every ``LONG_STRIDE``-th tick, so a full long ring spans 1.8 s at a
    50 Hz control rate.
    """

    def __init__(self, n_short: int = N_SHORT, n_long: int = N_LONG, long_stride: int = LONG_STRIDE):
        if min(n_short, n_long, long_stride) < 1:
            raise ValueError("ring sizes and stride must be positive")
        self.long_stride = long_stride
        self.short: deque[np.ndarray] = deque(maxlen=n_short)
        self.long: deque[np.ndarray] = deque(maxlen=n_long)

    def push(self, points: np.ndarray, tick: int) -> None:
        frame = np.array(points, dtype=float).reshape(7, 3)
        self.short.append(frame)
        if tick % self.long_stride == 0:
            self.long.append(frame)


def _flatten_ring(ring: deque, capacity: int) -> np.ndarray:
    """Oldest-first flat block, zero-padded at the old end while filling."""
    out = np.zeros(capacity * FRAME_SIZE)
    pad = capacity - len(ring)
    for i, frame in enumerate(ring):
        start = (pad + i) * FRAME_SIZE
        out[start:start + FRAME_SIZE] = frame.reshape(-1)
    return out


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
        _flatten_ring(buf.short, buf.short.maxlen),
        _flatten_ring(buf.long, buf.long.maxlen),
    ])
