"""Deterministic scenario simulator emulating the deployment data flow.

World frame is z-up with x forward and y left.  The camera is rigidly mounted
on a moving base, optical axis along base +x, so a level base at the origin
sees a world point (d, 0, 0) at camera coordinates (0, 0, d).

Ground truth for scoring is the sigma-point set extracted once at the first
visible tick (uniform weights, matching the sensor path) and transported
rigidly with the object afterwards; this is what an exactly ego-compensated,
noise-free estimator would reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EgoTrackError
from .estimator import (  # sim.associate_measurement stays importable; tracers patch it by name
    N_POINTS,
    FilterBank,
    FilterConfig,
    associate_measurement,
    associate_points,
)
from .geometry import (
    CameraModel,
    RigidTransform,
    SigmaPointSet,
    SurfacePointCloud,
    backproject_pixels,
    compute_visible_set,
    extract_sigma_points,
    project_point,
    project_points,
    relative_transform,
    rotation_about_axis,
    rotation_rpy,
    sigma_points_from_cloud,
    transform_points,
    weighted_pca,
)
from .perturbation import (
    DriftState,
    RandomizationConfig,
    RandomizationDraw,
    apply_drift,
    drift_step,
    perturb_sigma_points,
    sample_randomization,
)
from .shapes import sample_shape
from .tasklogic import (
    CriteriaConfig,
    ProprioState,
    RewardConfig,
    TaskGeometry,
    TerminalStatus,
    compute_reward,
    terminal_status,
)

# Camera axes expressed in the base frame: +Z optical = base +x,
# +X right = base -y, +Y down = base -z.
MOUNT_ROTATION = np.array([
    [0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
])

_EPS = 1e-9

# Resource caps, checked when a ScenarioConfig is built so an oversized run
# fails with a config error before anything is allocated.  An episode holds
# about 6 kB per tick (measured on a training run with a task), so MAX_TICKS,
# 1000 s at 50 Hz, keeps it near 0.3 GB.  MAX_SURFACE_SAMPLES bounds one
# surface cloud, and so each observation's cost, to tens of MB.
# MAX_TICK_SAMPLES bounds the surface work of the whole episode: MAX_TICKS
# ticks at the default 2048 samples.
MAX_TICKS = 50_000
MAX_SURFACE_SAMPLES = 1_000_000
MAX_TICK_SAMPLES = MAX_TICKS * 2048


@dataclass(frozen=True)
class CameraMotion:
    """Base trajectory model.

    kinds: static, constant_velocity (world-frame ``velocity``), walking
    (lateral sinusoid + double-frequency vertical bob of ``amplitude`` meters
    at ``frequency`` Hz, pitch oscillation, optional forward velocity), and
    turning (constant yaw rate, optional velocity).
    """

    kind: str = "static"
    velocity: tuple = (0.0, 0.0, 0.0)
    amplitude: float = 0.05
    frequency: float = 1.5
    pitch_amplitude_deg: float = 2.0
    yaw_rate: float = 0.5

    def __post_init__(self):
        if self.kind not in ("static", "constant_velocity", "walking", "turning"):
            raise ConfigError(f"unknown camera motion kind {self.kind!r}")

    def base_pose(self, t: float) -> tuple[np.ndarray, float, float]:
        """(world position, yaw, pitch) of the base at time t."""
        pos = np.zeros(3)
        yaw = 0.0
        pitch = 0.0
        if self.kind in ("constant_velocity", "walking", "turning"):
            pos = np.asarray(self.velocity, dtype=float) * t
        if self.kind == "walking":
            w = 2.0 * math.pi * self.frequency
            pos = pos + np.array([
                0.0,
                self.amplitude * math.sin(w * t),
                self.amplitude * math.sin(2.0 * w * t),
            ])
            pitch = math.radians(self.pitch_amplitude_deg) * math.sin(w * t)
        if self.kind == "turning":
            yaw = self.yaw_rate * t
        return pos, yaw, pitch


@dataclass(frozen=True)
class ObjectSpec:
    """Target shape, world pose, and constant world velocity."""

    shape: str = "sphere"
    radius: float = 0.1
    height: float = 0.2
    dims: tuple = (0.2, 0.15, 0.1)
    position: tuple = (2.5, 0.0, 0.0)
    rpy: tuple = (0.0, 0.0, 0.0)
    velocity: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.shape not in ("sphere", "box", "cylinder"):
            raise ValueError(f"unknown shape {self.shape!r} (sphere, box or cylinder)")
        if min(self.radius, self.height, *self.dims) <= 0.0:
            raise ValueError("radius, height and every dim must be positive")


@dataclass(frozen=True)
class SensorSpec:
    """Observation emulation: noise levels and which path produces the set.

    ``cloud`` reruns the full pipeline on the visible surface samples (what a
    real depth sensor would give); ``truth`` returns the transported true set
    and exists for exactness studies.  Pixel/depth noise is one shared draw
    per frame, modeling whole-mask tracking jitter rather than independent
    per-point noise (which would average out of the centroid).
    """

    pixel_std_u: float = 20.0
    pixel_std_v: float = 20.0
    depth_std: float = 0.05
    mode: str = "cloud"

    def __post_init__(self):
        if self.mode not in ("cloud", "truth"):
            raise ConfigError(f"unknown sensor mode {self.mode!r}")
        if min(self.pixel_std_u, self.pixel_std_v, self.depth_std) < 0.0:
            raise ConfigError("sensor noise levels must be non-negative")


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    duration: float = 5.0
    control_rate: float = 50.0
    obs_rate: float = 5.0
    obs_latency: float = 0.2
    camera: CameraModel = field(default_factory=CameraModel)
    camera_motion: CameraMotion = field(default_factory=CameraMotion)
    target: ObjectSpec = field(default_factory=ObjectSpec)
    surface_samples: int = 2048
    alpha: float = 1.0
    vo_trans_noise_std: float = 0.0
    vo_rot_noise_std: float = 0.0
    sensor: SensorSpec = field(default_factory=SensorSpec)
    drift_sigma: float = 0.01
    drift_max: float = 0.10
    randomization: RandomizationConfig | None = None
    mode: str = "deploy"

    def __post_init__(self):
        if self.duration <= 0.0:
            raise ConfigError("scenario.duration must be positive")
        if self.control_rate <= 0.0 or self.obs_rate <= 0.0:
            raise ConfigError("rates must be positive")
        stride = self.control_rate / self.obs_rate
        if abs(stride - round(stride)) > 1e-9 or round(stride) < 1:
            raise ConfigError("control_rate must be an integer multiple of obs_rate")
        if self.obs_latency < 0.0:
            raise ConfigError("obs_latency must be non-negative")
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be positive")
        if self.surface_samples < 1:
            raise ConfigError("surface_samples must be positive")
        if self.n_ticks > MAX_TICKS:
            raise ConfigError(
                f"scenario.duration: {self.duration} s at control_rate {self.control_rate} Hz "
                f"is {self.n_ticks} ticks, above the cap of {MAX_TICKS}"
            )
        if self.surface_samples > MAX_SURFACE_SAMPLES:
            raise ConfigError(
                f"scenario.surface_samples: {self.surface_samples} is above the cap of "
                f"{MAX_SURFACE_SAMPLES}"
            )
        if self.n_ticks * self.surface_samples > MAX_TICK_SAMPLES:
            raise ConfigError(
                f"scenario.surface_samples: {self.n_ticks} ticks x {self.surface_samples} "
                f"samples is above the cap of {MAX_TICK_SAMPLES}"
            )
        for name in ("vo_trans_noise_std", "vo_rot_noise_std", "drift_sigma"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"scenario.{name} must be non-negative")
        if self.drift_max <= 0.0:
            raise ConfigError("scenario.drift_max must be positive")
        if self.mode not in ("deploy", "training"):
            raise ConfigError(f"unknown mode {self.mode!r}")

    @property
    def dt(self) -> float:
        return 1.0 / self.control_rate

    @property
    def n_ticks(self) -> int:
        return max(1, round(self.duration * self.control_rate))

    @property
    def obs_stride(self) -> int:
        return round(self.control_rate / self.obs_rate)


@dataclass
class Measurement:
    """One sensor output: the stamped set (None if the target was not seen)
    and the wall-clock time it becomes available downstream."""

    stamp: float
    available_at: float
    sset: SigmaPointSet | None


@dataclass
class TrajectoryBundle:
    """Everything an episode needs, precomputed and seedable."""

    config: ScenarioConfig
    times: np.ndarray
    cam_poses: list[RigidTransform]
    vo_poses: list[RigidTransform]
    base_states: list[tuple[np.ndarray, float, float]]
    cloud: SurfacePointCloud            # object frame
    object_poses: list[RigidTransform]  # object -> world
    true_sets: np.ndarray               # (n+1, 7, 3) camera frame
    true_velocities: np.ndarray         # (n+1, 3) camera-frame world velocity of the target
    visible: np.ndarray                 # (n+1,) bool
    alpha: float
    draw: RandomizationDraw | None
    sensor_seed: np.random.SeedSequence
    drift_seed: np.random.SeedSequence
    obsnoise_seed: np.random.SeedSequence


def _camera_to_object(bundle_cam_pose: RigidTransform, obj_pose: RigidTransform) -> RigidTransform:
    return bundle_cam_pose.inverse().compose(obj_pose)


def generate_scenario(cfg: ScenarioConfig) -> TrajectoryBundle:
    """Sample the episode: surface cloud, pose streams, VO, and scoring truth."""
    root = np.random.SeedSequence(cfg.seed)
    cloud_seed, vo_seed, sensor_seed, drift_seed, rand_seed, obsnoise_seed = root.spawn(6)

    draw = None
    if cfg.mode == "training":
        draw = sample_randomization(
            cfg.randomization or RandomizationConfig(), np.random.default_rng(rand_seed)
        )
    alpha = draw.alpha if draw is not None else cfg.alpha

    mount = RigidTransform(MOUNT_ROTATION, np.zeros(3), "camera", "base")
    if draw is not None:
        mount = draw.extrinsic_offset.compose(mount)

    points, normals = sample_shape(
        cfg.target.shape,
        cfg.surface_samples,
        np.random.default_rng(cloud_seed),
        radius=cfg.target.radius,
        height=cfg.target.height,
        dims=cfg.target.dims,
    )
    cloud = SurfacePointCloud(points, normals, "object")

    n = cfg.n_ticks
    times = np.arange(n + 1) / cfg.control_rate
    obj_rot = rotation_rpy(*cfg.target.rpy)
    obj_p0 = np.asarray(cfg.target.position, dtype=float)
    obj_v = np.asarray(cfg.target.velocity, dtype=float)

    vo_rng = np.random.default_rng(vo_seed)
    cam_poses: list[RigidTransform] = []
    vo_poses: list[RigidTransform] = []
    base_states: list[tuple[np.ndarray, float, float]] = []
    object_poses: list[RigidTransform] = []
    for t in times:
        pos, yaw, pitch = cfg.camera_motion.base_pose(float(t))
        t_wb = RigidTransform(rotation_rpy(0.0, pitch, yaw), pos, "base", "world")
        t_wc = t_wb.compose(mount)
        cam_poses.append(t_wc)
        base_states.append((pos, yaw, pitch))
        object_poses.append(RigidTransform(obj_rot, obj_p0 + obj_v * float(t), "object", "world"))
        if cfg.vo_trans_noise_std > 0.0 or cfg.vo_rot_noise_std > 0.0:
            axis = vo_rng.normal(size=3)
            angle = vo_rng.normal(0.0, cfg.vo_rot_noise_std) if cfg.vo_rot_noise_std > 0.0 else 0.0
            shift = (
                vo_rng.normal(0.0, cfg.vo_trans_noise_std, size=3)
                if cfg.vo_trans_noise_std > 0.0
                else np.zeros(3)
            )
            wiggle = RigidTransform(rotation_about_axis(axis, angle), shift, "camera", "camera")
            vo_poses.append(t_wc.compose(wiggle))
        else:
            vo_poses.append(t_wc)

    # Scoring truth: extract once at the first visible tick with weights that
    # match the sensor path, then transport rigidly with the object.
    ref_set_obj = None
    for k in range(n + 1):
        cam_cloud = transform_points(cloud, _camera_to_object(cam_poses[k], object_poses[k]))
        ref = sigma_points_from_cloud(cam_cloud, cfg.camera, alpha, weighting="uniform")
        if ref is not None:
            t_oc = _camera_to_object(cam_poses[k], object_poses[k]).inverse()
            ref_set_obj = t_oc.apply_points(ref.points)
            break
    if ref_set_obj is None:
        raise ConfigError("target is never visible; no scoring reference exists")

    true_sets = np.empty((n + 1, 7, 3))
    true_velocities = np.empty((n + 1, 3))
    visible = np.empty(n + 1, dtype=bool)
    for k in range(n + 1):
        t_co = _camera_to_object(cam_poses[k], object_poses[k])
        true_sets[k] = t_co.apply_points(ref_set_obj)
        # All target points share the object's constant world velocity.
        true_velocities[k] = cam_poses[k].rotation.T @ obj_v
        _, in_fov = project_point(cfg.camera, true_sets[k, 0])
        visible[k] = in_fov

    return TrajectoryBundle(
        config=cfg,
        times=times,
        cam_poses=cam_poses,
        vo_poses=vo_poses,
        base_states=base_states,
        cloud=cloud,
        object_poses=object_poses,
        true_sets=true_sets,
        true_velocities=true_velocities,
        visible=visible,
        alpha=alpha,
        draw=draw,
        sensor_seed=sensor_seed,
        drift_seed=drift_seed,
        obsnoise_seed=obsnoise_seed,
    )


def _jitter(
    cam: CameraModel, spec: SensorSpec, pts: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Project, shift by one shared pixel/depth draw, and backproject."""
    du = rng.normal(0.0, spec.pixel_std_u)
    dv = rng.normal(0.0, spec.pixel_std_v)
    dz = rng.normal(0.0, spec.depth_std)
    pix, _ = project_points(cam, pts)
    depth = np.maximum(pts[:, 2] + dz, cam.near_z)
    return backproject_pixels(cam, pix + np.array([du, dv]), depth)


def emulate_sensor(
    bundle: TrajectoryBundle, t_obs: float, rng: np.random.Generator
) -> Measurement:
    """Produce one delayed observation at a control-grid time.

    The cloud path culls the true surface, projects the visible points, adds
    one shared pixel/depth jitter draw, backprojects, and re-extracts sigma
    points with uniform weights.  Returns a Measurement whose set is None
    when nothing is visible.
    """
    cfg = bundle.config
    k = round(t_obs * cfg.control_rate)
    if not 0 <= k <= cfg.n_ticks or abs(t_obs - bundle.times[k]) > 1e-6:
        raise ValueError("t_obs is not on the control grid")
    latency = cfg.obs_latency + (bundle.draw.perception_delay if bundle.draw else 0.0)
    available_at = t_obs + latency
    spec = cfg.sensor

    if spec.mode == "truth":
        if not bundle.visible[k]:
            return Measurement(t_obs, available_at, None)
        pts = bundle.true_sets[k]
        # A noiseless truth sensor draws nothing, leaving the stream untouched.
        if spec.pixel_std_u == 0.0 and spec.pixel_std_v == 0.0 and spec.depth_std == 0.0:
            return Measurement(t_obs, available_at, SigmaPointSet(pts.copy()))
        return Measurement(t_obs, available_at, SigmaPointSet(_jitter(cfg.camera, spec, pts, rng)))

    cam_cloud = transform_points(
        bundle.cloud, _camera_to_object(bundle.cam_poses[k], bundle.object_poses[k])
    )
    vis = compute_visible_set(cam_cloud, cfg.camera)
    if vis.size == 0:
        return Measurement(t_obs, available_at, None)
    moved = _jitter(cfg.camera, spec, cam_cloud.points[vis], rng)
    pca = weighted_pca(moved, np.ones(len(moved)))
    return Measurement(t_obs, available_at, extract_sigma_points(pca, bundle.alpha))


def sensor_schedule(
    bundle: TrajectoryBundle, rng: np.random.Generator | None = None
) -> list[Measurement]:
    """All observations of the episode in stamp order (one rng stream)."""
    if rng is None:
        rng = np.random.default_rng(bundle.sensor_seed)
    cfg = bundle.config
    out = []
    for k in range(0, cfg.n_ticks + 1, cfg.obs_stride):
        out.append(emulate_sensor(bundle, float(bundle.times[k]), rng))
    return out


def baseline_zoh(measurements: list[Measurement], times: np.ndarray) -> list[np.ndarray | None]:
    """Zero-order hold: at each tick, the newest measurement already delivered,
    emitted unchanged; None before the first delivery."""
    delivered = sorted(
        (m for m in measurements if m.sset is not None), key=lambda m: m.available_at
    )
    out: list[np.ndarray | None] = []
    held: np.ndarray | None = None
    idx = 0
    for t in times:
        while idx < len(delivered) and delivered[idx].available_at <= t + _EPS:
            held = delivered[idx].sset.points
            idx += 1
        out.append(None if held is None else held.copy())
    return out


def _run_bank(
    times: np.ndarray,
    t_rels: list[RigidTransform],
    measurements: list[Measurement],
    cfg: FilterConfig,
    cam: CameraModel,
    history_depth: int,
    oosm_mode: str = "replay",
    ego_lanes: tuple[bool, ...] = (True,),
) -> tuple[np.ndarray, np.ndarray]:
    """Drive one filter bank over the episode.

    Returns the bank mean of every lane at every tick, shaped
    ``(ticks, lanes, 7, 6)`` (position then velocity) and NaN before
    initialization, and the ``(ticks,)`` mask of ticks that have an estimate.
    """
    bank = FilterBank(
        cfg,
        cam,
        start_stamp=float(times[0]),
        history_depth=history_depth,
        oosm_mode=oosm_mode,
        ego_lanes=ego_lanes,
    )
    pending = sorted(
        (m for m in measurements if m.sset is not None), key=lambda m: m.available_at
    )
    idx = 0
    means = np.full((len(times), len(ego_lanes), N_POINTS, 6), np.nan)
    has = np.zeros(len(times), dtype=bool)
    for k, t in enumerate(times):
        if k > 0:
            bank.step(float(times[k] - times[k - 1]), t_rels[k])
        while idx < len(pending) and pending[idx].available_at <= t + _EPS:
            bank.ingest(pending[idx].sset, pending[idx].stamp)
            idx += 1
        if bank.state is not None:
            means[k] = bank.state[0]
            has[k] = True
    return means, has


def baseline_no_compensation(
    times: np.ndarray,
    measurements: list[Measurement],
    cfg: FilterConfig,
    cam: CameraModel,
    history_depth: int = 30,
) -> tuple[np.ndarray, np.ndarray]:
    """Identical replay filter bank that never applies the ego increment.

    Returns per-tick positions ``(ticks, 7, 3)``, NaN before initialization,
    and the has-estimate mask.  ``run_episode`` runs this as the second lane
    of the filter's own bank; it calls it alone only when the filter does
    not replay (``oosm_mode="in_place"``).
    """
    t_rels = [RigidTransform.identity("camera")] * len(times)
    means, has = _run_bank(
        times, t_rels, measurements, cfg, cam, history_depth, ego_lanes=(False,)
    )
    return means[:, 0, :, 0:3], has


def _stacked(estimates: list[np.ndarray | None]) -> tuple[np.ndarray, np.ndarray]:
    """Per-tick sets (None where there is none) as ``(ticks, 7, 3)`` with NaN
    rows, plus the has-estimate mask."""
    has = np.array([e is not None for e in estimates], dtype=bool)
    out = np.full((len(estimates), N_POINTS, 3), np.nan)
    if has.any():
        out[has] = np.stack([e for e in estimates if e is not None])
    return out, has


def _running_sum(per_tick: np.ndarray) -> np.ndarray:
    """Total over axis 0, added one tick at a time starting from 0.0.

    ``np.sum`` may add the ticks pairwise, which groups them differently and
    moves the last bits of the episode metrics.
    """
    start = np.zeros((1,) + per_tick.shape[1:])
    return np.cumsum(np.concatenate([start, per_tick]), axis=0)[-1]


@dataclass
class EpisodeMetrics:
    """Aggregate scores of one episode; JSON-friendly and byte-deterministic."""

    rmse_filter: list
    rmse_zoh: list
    rmse_nocomp: list
    rmse_filter_centroid: float
    rmse_zoh_centroid: float
    rmse_nocomp_centroid: float
    mean_err_filter: float
    mean_err_zoh: float
    mean_err_nocomp: float
    velocity_rmse: float
    visible_fraction: float
    max_drift: float
    ticks: int
    scored_ticks: int
    reward_sums: dict | None
    terminal: str | None

    def to_dict(self) -> dict:
        return {
            "rmse_filter": list(self.rmse_filter),
            "rmse_zoh": list(self.rmse_zoh),
            "rmse_nocomp": list(self.rmse_nocomp),
            "rmse_filter_centroid": self.rmse_filter_centroid,
            "rmse_zoh_centroid": self.rmse_zoh_centroid,
            "rmse_nocomp_centroid": self.rmse_nocomp_centroid,
            "mean_err_filter": self.mean_err_filter,
            "mean_err_zoh": self.mean_err_zoh,
            "mean_err_nocomp": self.mean_err_nocomp,
            "velocity_rmse": self.velocity_rmse,
            "visible_fraction": self.visible_fraction,
            "max_drift": self.max_drift,
            "ticks": self.ticks,
            "scored_ticks": self.scored_ticks,
            "reward_sums": self.reward_sums,
            "terminal": self.terminal,
        }


@dataclass
class EpisodeTable:
    """Per-tick rows of one episode: column names and a float ``(ticks, cols)`` array.

    ``visible`` is stored as 0.0/1.0; errors are NaN at ticks where the
    estimator has no estimate yet.
    """

    columns: tuple[str, ...]
    values: np.ndarray

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]


_ESTIMATORS = ("filter", "zoh", "nocomp")
_REWARD_KEYS = ("hint", "opt", "miss", "roll", "ang", "smooth", "limit", "total")


def _columns(training: bool, task: bool) -> tuple[str, ...]:
    """Column order of ``run_episode``'s table and of ``metrics.csv``."""
    columns = ["stamp", "visible", "drift_mag"]
    columns += [f"{name}_p{j}_e{axis}" for name in _ESTIMATORS for j in range(7) for axis in "xyz"]
    if training:
        columns += [f"obs_p{j}_{axis}" for j in range(7) for axis in "xyz"]
    if task:
        columns += [f"reward_{key}" for key in _REWARD_KEYS]
    return tuple(columns)


def run_episode(
    bundle: TrajectoryBundle,
    filter_cfg: FilterConfig | None = None,
    *,
    geom: TaskGeometry | None = None,
    criteria: CriteriaConfig | None = None,
    reward_cfg: RewardConfig | None = None,
    measurement_cutoff: float | None = None,
    disable_ego_compensation: bool = False,
    oosm_mode: str = "replay",
) -> tuple[EpisodeMetrics, EpisodeTable]:
    """Score the filter and both baselines on one precomputed episode.

    Returns the aggregate metrics and the per-tick table (stamp, visibility,
    drift magnitude, per-point error components per estimator, the logged
    downstream-facing set in training mode, reward terms when a task geometry
    is given).  Raises ``EgoTrackError`` when no tick can be scored, since
    every aggregate metric would then be undefined.
    """
    cfg = bundle.config
    filter_cfg = filter_cfg or FilterConfig()
    cam = cfg.camera
    times = bundle.times
    n = len(times)
    dt = cfg.dt
    truth = bundle.true_sets

    measurements = sensor_schedule(bundle)
    if measurement_cutoff is not None:
        measurements = [m for m in measurements if m.available_at <= measurement_cutoff + _EPS]

    latency = cfg.obs_latency + (bundle.draw.perception_delay if bundle.draw else 0.0)
    history_depth = max(30, int(math.ceil((latency + 1.0 / cfg.obs_rate) / dt)) + 5)

    ident = RigidTransform.identity("camera")
    t_rels: list[RigidTransform] = [ident]
    for k in range(1, n):
        if disable_ego_compensation:
            t_rels.append(ident)
        else:
            t_rels.append(relative_transform(bundle.vo_poses[k - 1], bundle.vo_poses[k]))

    # The no-compensation baseline is the filter's second lane: same
    # measurements at the same ticks, so one rollback replays both.  Only the
    # replay bank can carry it; an in_place filter runs alone.
    if oosm_mode == "replay":
        means, has_filter = _run_bank(
            times, t_rels, measurements, filter_cfg, cam, history_depth, ego_lanes=(True, False)
        )
        nocomp_est, has_nocomp = means[:, 1, :, 0:3], has_filter
    else:
        means, has_filter = _run_bank(
            times, t_rels, measurements, filter_cfg, cam, history_depth, oosm_mode
        )
        nocomp_est, has_nocomp = baseline_no_compensation(
            times, measurements, filter_cfg, cam, history_depth
        )
    filter_mean = means[:, 0]
    zoh_est, has_zoh = _stacked(baseline_zoh(measurements, times))
    scored = has_filter & has_zoh & has_nocomp
    n_scored = int(scored.sum())
    if n_scored == 0:
        raise EgoTrackError(
            f"no tick scored: the filter and both baselines never all had an estimate "
            f"in {n} ticks (obs_latency {cfg.obs_latency} s, duration {cfg.duration} s)"
        )

    # (estimator, tick, point, axis), pair ambiguity resolved against truth.
    est = np.stack([filter_mean[:, :, 0:3], zoh_est, nocomp_est])
    err = associate_points(truth, est) - truth

    training = cfg.mode == "training"
    columns = _columns(training, geom is not None)
    values = np.zeros((n, len(columns)))
    values[:, 0] = times
    values[:, 1] = bundle.visible
    obs_at = 3 + len(_ESTIMATORS) * N_POINTS * 3
    reward_at = len(columns) - (len(_REWARD_KEYS) if geom is not None else 0)
    values[:, 3:obs_at] = err.transpose(1, 0, 2, 3).reshape(n, -1)

    # Per-tick order matters only for the drift and shape-noise draws and the
    # reward terms; everything else above is computed for all ticks at once.
    drift_state = DriftState(np.zeros(3), cfg.drift_sigma, cfg.drift_max)
    drift_rng = np.random.default_rng(bundle.drift_seed)
    obsnoise_rng = np.random.default_rng(bundle.obsnoise_seed)
    reward_cfg = reward_cfg or RewardConfig()
    criteria = criteria or CriteriaConfig()
    zero_action = np.zeros(4)
    terminal: TerminalStatus | None = None
    for k in range(n):
        vis = bool(bundle.visible[k])
        if training:
            drift_state = drift_step(drift_state, drift_rng, vis)
            values[k, 2] = np.abs(drift_state.d).max()
            # What a downstream consumer would see: truth plus occlusion drift
            # plus the episode's shape-perturbation draw.
            observed = apply_drift(SigmaPointSet(truth[k].copy()), drift_state)
            if bundle.draw is not None:
                observed = perturb_sigma_points(
                    observed,
                    bundle.draw.sigma_scale_noise_std,
                    bundle.draw.sigma_rot_noise_std,
                    obsnoise_rng,
                )
            values[k, obs_at:reward_at] = observed.points.ravel()

        if geom is not None:
            pos_w, yaw, pitch = bundle.base_states[k]
            r_wb = rotation_rpy(0.0, pitch, yaw)
            if k > 0:
                prev_pos, prev_yaw, prev_pitch = bundle.base_states[k - 1]
                lin_vel = r_wb.T @ ((pos_w - prev_pos) / dt)
                ang_vel = np.array([0.0, (pitch - prev_pitch) / dt, (yaw - prev_yaw) / dt])
            else:
                lin_vel = np.zeros(3)
                ang_vel = np.zeros(3)
            proprio = ProprioState(r_wb.T @ np.array([0.0, 0.0, -1.0]), lin_vel, ang_vel, zero_action)
            terms = compute_reward(
                pos_w,
                np.array([0.0, pitch, yaw]),
                geom,
                criteria,
                proprio,
                zero_action,
                zero_action,
                out_fov=not vis,
                rcfg=reward_cfg,
            ).to_dict()
            values[k, reward_at:] = [terms[key] for key in _REWARD_KEYS]
            if k == n - 1:
                terminal = terminal_status(
                    pos_w, np.array([0.0, pitch, yaw]), geom, criteria, timed_out=True
                )

    # Sums run over scored ticks in tick order (see _running_sum).
    sq = _running_sum(np.sum(err**2, axis=-1).transpose(1, 0, 2)[scored])
    centroid = err[:, scored, 0, :]
    # The same dot product np.linalg.norm takes of one vector, so each
    # distance matches it bit for bit.
    dist = np.sqrt(np.matmul(centroid[..., None, :], centroid[..., :, None])[..., 0, 0])
    abs_sum = _running_sum(dist.T)
    dv = filter_mean[scored, :, 3:6] - bundle.true_velocities[scored, None, :]
    sq_vel = float(_running_sum(np.mean(np.sum(dv**2, axis=-1), axis=-1)))
    reward_sums: dict | None = None
    if geom is not None:
        reward_sums = dict(zip(_REWARD_KEYS, map(float, _running_sum(values[:, reward_at:]))))

    rmse_f, rmse_z, rmse_n = (list(np.sqrt(s / n_scored)) for s in sq)
    metrics = EpisodeMetrics(
        rmse_filter=rmse_f,
        rmse_zoh=rmse_z,
        rmse_nocomp=rmse_n,
        rmse_filter_centroid=rmse_f[0],
        rmse_zoh_centroid=rmse_z[0],
        rmse_nocomp_centroid=rmse_n[0],
        mean_err_filter=float(abs_sum[0]) / n_scored,
        mean_err_zoh=float(abs_sum[1]) / n_scored,
        mean_err_nocomp=float(abs_sum[2]) / n_scored,
        velocity_rmse=math.sqrt(sq_vel / n_scored),
        visible_fraction=float(np.mean(bundle.visible)),
        max_drift=float(values[:, 2].max()),
        ticks=n,
        scored_ticks=n_scored,
        reward_sums=reward_sums,
        terminal=None if terminal is None else terminal.value,
    )
    return metrics, EpisodeTable(columns, values)
