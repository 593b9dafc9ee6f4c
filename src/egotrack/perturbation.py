"""Blind-spot drift injection and per-episode domain randomization draws."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import RigidTransform, SigmaPointSet, rotation_about_axis, rotation_rpy


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
        if self.sigma_drift < 0.0:
            raise ValueError("sigma_drift must be non-negative")
        if self.d_max <= 0.0:
            raise ValueError("d_max must be positive")


def drift_step(state: DriftState, rng: np.random.Generator, target_visible: bool) -> DriftState:
    """One tick of the drift process; returns a new state."""
    if target_visible:
        d = np.zeros_like(state.d)
    else:
        step = rng.normal(0.0, state.sigma_drift, size=state.d.shape)
        d = np.clip(state.d + step, -state.d_max, state.d_max)
    return DriftState(d, state.sigma_drift, state.d_max)


def apply_drift(sset: SigmaPointSet, state: DriftState) -> SigmaPointSet:
    """Shift the whole set by the current drift offset."""
    return SigmaPointSet(sset.points + state.d.reshape(1, 3), sset.frame)


def perturb_sigma_points(
    sset: SigmaPointSet,
    scale_std: float,
    rot_std: float,
    rng: np.random.Generator,
) -> SigmaPointSet:
    """Observation-side noise on the set shape: multiplicative (1 + eps) on the
    axis offsets plus a small random rotation of the offsets about the centroid.

    The centroid itself is left untouched; positional noise is modeled
    separately (sensor noise, drift).
    """
    centroid = sset.points[0]
    offsets = sset.points[1:] - centroid
    if scale_std > 0.0:
        offsets = offsets * (1.0 + rng.normal(0.0, scale_std))
    if rot_std > 0.0:
        axis = rng.normal(0.0, 1.0, size=3)
        angle = rng.normal(0.0, rot_std)
        offsets = offsets @ rotation_about_axis(axis, angle).T
    pts = np.empty((7, 3))
    pts[0] = centroid
    pts[1:] = centroid + offsets
    return SigmaPointSet(pts, sset.frame)


def _check_range(name: str, rng_pair) -> tuple[float, float]:
    if len(rng_pair) != 2:
        raise ValueError(f"{name} must be a (lower, upper) pair")
    lo, hi = float(rng_pair[0]), float(rng_pair[1])
    if lo > hi:
        raise ValueError(f"{name}: lower bound exceeds upper bound")
    return lo, hi


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
        for name in (
            "extrinsic_trans_x",
            "extrinsic_trans_y",
            "extrinsic_trans_z",
            "extrinsic_roll_deg",
            "extrinsic_pitch_deg",
            "extrinsic_yaw_deg",
            "perception_delay_ms",
            "alpha_range",
        ):
            _check_range(name, getattr(self, name))
        for name in ("sigma_scale_noise_std", "sigma_rot_noise_std"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class RandomizationDraw:
    """One episode's sampled randomization; serializable for reproducibility."""

    extrinsic_offset: RigidTransform
    perception_delay: float  # s
    sigma_scale_noise_std: float
    sigma_rot_noise_std: float
    alpha: float

    def to_dict(self) -> dict:
        return {
            "extrinsic_rotation": self.extrinsic_offset.rotation.tolist(),
            "extrinsic_translation": self.extrinsic_offset.translation.tolist(),
            "perception_delay": self.perception_delay,
            "sigma_scale_noise_std": self.sigma_scale_noise_std,
            "sigma_rot_noise_std": self.sigma_rot_noise_std,
            "alpha": self.alpha,
        }


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
        sigma_scale_noise_std=cfg.sigma_scale_noise_std,
        sigma_rot_noise_std=cfg.sigma_rot_noise_std,
        alpha=uni(cfg.alpha_range),
    )
