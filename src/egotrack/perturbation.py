"""Blind-spot drift injection and per-episode domain randomization draws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import check_fields
from .geometry import N_POINTS, RigidTransform, rotation_about_axis, rotation_rpy


@dataclass
class DriftState:
    """Bounded random-walk offset shared by all seven points.

    While the target is out of view the offset takes a Gaussian step each
    tick and is clipped componentwise to +/- d_max; any visible tick resets
    it to zero.  ``d`` may carry leading batch dimensions for vectorized
    rollout studies.
    """

    d: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sigma_drift: float = 0.01
    d_max: float = 0.10

    def __post_init__(self):
        self.d = np.asarray(self.d, dtype=float)
        if self.d.shape[-1] != 3:
            raise ValueError("drift offset must have a trailing dimension of 3")
        check_fields(self, positive=("d_max",), non_negative=("sigma_drift",))


def drift_step(state: DriftState, rng: np.random.Generator, target_visible: bool) -> DriftState:
    """One tick of the drift process; returns a new state."""
    if target_visible:
        d = np.zeros_like(state.d)
    else:
        step = rng.normal(0.0, state.sigma_drift, size=state.d.shape)
        d = np.clip(state.d + step, -state.d_max, state.d_max)
    return DriftState(d, state.sigma_drift, state.d_max)


def drift_walk(
    visible: np.ndarray, sigma_drift: float, d_max: float, rng: np.random.Generator
) -> np.ndarray:
    """The drift offset of every tick ``(ticks, 3)``, starting from zero.

    Equal bit for bit to ``drift_step`` applied tick by tick on one
    generator: one ``normal`` draw of three per hidden tick, taken at once,
    and the clip and reset run over them in tick order.
    """
    visible = np.asarray(visible, dtype=bool)
    steps = iter(rng.normal(0.0, sigma_drift, size=(int(np.count_nonzero(~visible)), 3)).tolist())
    zero = (0.0, 0.0, 0.0)
    d, out = zero, []
    for vis in visible.tolist():
        # min(hi, max(lo, x)) picks the same bound or value as np.clip.
        d = zero if vis else tuple(min(d_max, max(-d_max, x + s)) for x, s in zip(d, next(steps)))
        out.append(d)
    return np.array(out).reshape(len(visible), 3)


def perturb_sigma_points(
    sets: np.ndarray, scale_std: float, rot_std: float, rng: np.random.Generator
) -> np.ndarray:
    """Observation-side noise on the set shape: multiplicative (1 + eps) on the
    axis offsets plus a small random rotation of the offsets about the centroid.

    Takes point arrays ``(..., 7, 3)`` and returns the perturbed stack in the
    same shape.  Each set of a stack gets its own draws, in stack order, and
    consumes the generator as a call on that set alone would: the scale
    draw, then the axis and the angle, each only when its noise is on.  The
    centroid itself is left untouched; positional noise is modeled
    separately (sensor noise, drift).
    """
    points = np.asarray(sets, dtype=float)
    flat = points.reshape(-1, N_POINTS, 3)
    centroid = flat[:, :1]
    offsets = flat[:, 1:] - centroid
    scaled, rotated = scale_std > 0.0, rot_std > 0.0
    if scaled or rotated:
        # One row of draws per set; 0.0 + std * z is what normal(0.0, std)
        # returns for the same draw z.
        z = rng.standard_normal((len(flat), int(scaled) + 4 * int(rotated)))
        if scaled:
            offsets = offsets * (1.0 + (0.0 + scale_std * z[:, 0]))[:, None, None]
        if rotated:
            r = rotation_about_axis(0.0 + z[:, -4:-1], 0.0 + rot_std * z[:, -1])
            offsets = offsets @ np.swapaxes(r, 1, 2)
    return np.concatenate([centroid, centroid + offsets], axis=1).reshape(points.shape)


@dataclass(frozen=True)
class RandomizationConfig:
    """Per-episode randomization ranges (uniform) and noise levels (Gaussian std)."""

    extrinsic_trans_x: tuple = (-0.02, 0.02)    # m
    extrinsic_trans_y: tuple = (-0.005, 0.005)  # m
    extrinsic_trans_z: tuple = (-0.02, 0.02)    # m
    extrinsic_roll_deg: tuple = (-0.5, 0.5)
    extrinsic_pitch_deg: tuple = (-2.0, 2.0)
    extrinsic_yaw_deg: tuple = (-0.5, 0.5)
    perception_delay_ms: tuple = (0.0, 50.0)
    sigma_scale_noise_std: float = 0.1
    sigma_rot_noise_std: float = 0.1
    alpha_range: tuple = (1.0, 1.5)

    def __post_init__(self):
        for f in fields(self):
            pair = getattr(self, f.name)
            if f.type == "tuple" and not (len(pair) == 2 and pair[0] <= pair[1]):  # a range
                raise ValueError(f"{f.name} must be a (lower, upper) pair, lower <= upper, got {pair!r}")
        check_fields(self, positive=("alpha_range",),
                     non_negative=("perception_delay_ms", "sigma_scale_noise_std", "sigma_rot_noise_std"))


@dataclass(frozen=True)
class RandomizationDraw:
    """One episode's drawn values; the noise levels stay in its ``RandomizationConfig``."""

    extrinsic_offset: RigidTransform
    perception_delay: float  # s
    alpha: float


def sample_randomization(cfg: RandomizationConfig, rng: np.random.Generator) -> RandomizationDraw:
    """Draw one episode's randomization.  Collapsed ranges (lo == hi) are
    deterministic, which the tests rely on."""

    def uni(pair):
        lo, hi = pair
        return lo if lo == hi else float(rng.uniform(lo, hi))

    tx = uni(cfg.extrinsic_trans_x)
    ty = uni(cfg.extrinsic_trans_y)
    tz = uni(cfg.extrinsic_trans_z)
    roll = math.radians(uni(cfg.extrinsic_roll_deg))
    pitch = math.radians(uni(cfg.extrinsic_pitch_deg))
    yaw = math.radians(uni(cfg.extrinsic_yaw_deg))
    offset = RigidTransform(
        rotation_rpy(roll, pitch, yaw), np.array([tx, ty, tz]), "base", "base"
    )
    return RandomizationDraw(
        extrinsic_offset=offset,
        perception_delay=uni(cfg.perception_delay_ms) * 1e-3,
        alpha=uni(cfg.alpha_range),
    )
