"""Deterministic scenario simulator emulating the deployment data flow.

World frame is z-up with x forward and y left.  The camera is rigidly mounted
on a moving base, optical axis along base +x, so a level base at the origin
sees a world point (d, 0, 0) at camera coordinates (0, 0, d).

Ground truth for scoring is the noise-free cloud sensor's set at the first
tick with any visible point: the same pass over the frames (``_cloud_sensor``)
as the sensor's, without the jitter.  It is transported rigidly with the
object afterwards; this is what an exactly ego-compensated, noise-free
estimator would reproduce.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ConfigError, EgoTrackError, NumericalError, check_fields
from .estimator import STAMP_EPS, FilterBank, FilterConfig, associate_measurement, compensate_ego_motion
from .geometry import (
    N_POINTS,
    CameraModel,
    RigidTransform,
    SigmaPointSet,
    SurfacePointCloud,
    backproject_pixels,
    check_rotations,
    norms,
    place_sigma_points,
    project_points,
    rotate,
    rotation_about_axis,
    rotation_rpy,
    segment_pca,
    visibility,
)
from .perturbation import (
    RandomizationConfig,
    RandomizationDraw,
    drift_walk,
    perturb_sigma_points,
    sample_randomization,
)
from .shapes import sample_shape
from .tasklogic import (
    CriteriaConfig,
    ProprioState,
    RewardBreakdown,
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

# Resource caps, checked when a ScenarioConfig is built so an oversized run
# fails with a config error before anything is allocated.  An episode holds
# about 3.5 kB per tick (the tracemalloc peak of `egotrack run` on a training
# run with a task, 20 s against 80 s), so MAX_TICKS, 1000 s at 50 Hz, keeps
# it near 0.2 GB.  The sensor works through the observations in chunks of at
# most SENSOR_CHUNK_POINTS surface points, but a chunk is at least one whole
# frame, so MAX_SURFACE_SAMPLES, which bounds one surface cloud, also bounds
# the largest chunk: one frame at the cap peaks near 120 MB (tracemalloc).
# MAX_TICK_SAMPLES bounds the surface work of the whole episode: MAX_TICKS
# ticks at the default 2048 samples.  MAX_REPLAY_WORK bounds the filter
# ticks one episode may replay, deliveries x replay depth; without it the
# run time grows with the square of the latency.
MAX_TICKS = 50_000
MAX_SURFACE_SAMPLES = 1_000_000
MAX_TICK_SAMPLES = MAX_TICKS * 2048
MAX_REPLAY_WORK = MAX_TICKS * 64
SENSOR_CHUNK_POINTS = 16_384

MODES = ("deploy", "training")


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
        check_fields(self, choices={"kind": ("static", "constant_velocity", "walking", "turning")})

    def base_pose(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(world position, yaw, pitch) of the base at time t, or at each
        time of an array, with the position along a last axis of 3."""
        t = np.asarray(t, dtype=float)
        pos = np.zeros(t.shape + (3,))
        yaw, pitch = np.zeros(t.shape), np.zeros(t.shape)
        if self.kind in ("constant_velocity", "walking", "turning"):
            pos = np.asarray(self.velocity, dtype=float) * t[..., None]
        if self.kind == "walking":
            w = 2.0 * math.pi * self.frequency
            pos = pos + np.stack([
                np.zeros(t.shape),
                self.amplitude * np.sin(w * t),
                self.amplitude * np.sin(2.0 * w * t),
            ], axis=-1)
            pitch = math.radians(self.pitch_amplitude_deg) * np.sin(w * t)
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
        check_fields(self, positive=("radius", "height", "dims"),
                     choices={"shape": ("sphere", "box", "cylinder")})


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
        check_fields(self, non_negative=("pixel_std_u", "pixel_std_v", "depth_std"),
                     choices={"mode": ("cloud", "truth")})


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
    # Training mode fills in the default ranges; deploy mode draws nothing.
    randomization: RandomizationConfig | None = None
    mode: str = "deploy"

    def __post_init__(self):
        check_fields(
            self,
            positive=("duration", "control_rate", "obs_rate", "surface_samples", "alpha", "drift_max"),
            non_negative=("seed", "obs_latency", "vo_trans_noise_std", "vo_rot_noise_std", "drift_sigma"),
            choices={"mode": MODES},
        )
        # The tick cap is checked on the float product, which n_ticks rounds
        # (half to even, so MAX_TICKS + 0.5 is MAX_TICKS) and an infinity
        # would overflow; the stride and the period are checked finite too.
        if self.duration * self.control_rate > MAX_TICKS + 0.5:
            raise ValueError(f"duration {self.duration} s at control_rate {self.control_rate} Hz "
                             f"is above the cap of {MAX_TICKS} ticks")
        if not math.isfinite(self.dt):
            raise ValueError(f"control_rate {self.control_rate} Hz has no finite period")
        stride = self.control_rate / self.obs_rate
        if not (math.isfinite(stride) and abs(stride - round(stride)) <= 1e-9 and round(stride) >= 1):
            raise ValueError("control_rate must be an integer multiple of obs_rate")
        if self.surface_samples > MAX_SURFACE_SAMPLES:
            raise ValueError(f"surface_samples {self.surface_samples} "
                             f"is above the cap of {MAX_SURFACE_SAMPLES}")
        if self.n_ticks * self.surface_samples > MAX_TICK_SAMPLES:
            raise ValueError(f"surface_samples {self.surface_samples} x {self.n_ticks} ticks "
                             f"is above the cap of {MAX_TICK_SAMPLES}")
        if self.mode == "training" and self.randomization is None:
            object.__setattr__(self, "randomization", RandomizationConfig())
        max_delay = self.randomization.perception_delay_ms[1] * 1e-3 if self.mode == "training" else 0.0
        deliveries = self.n_ticks // self.obs_stride + 1
        depth = self.history_depth(self.obs_latency + max_delay)
        if deliveries * depth > MAX_REPLAY_WORK:
            raise ValueError(f"obs_latency {self.obs_latency} s makes {deliveries} deliveries x replay "
                             f"depth {depth} ticks, above the cap of {MAX_REPLAY_WORK}")

    @property
    def dt(self) -> float:
        return 1.0 / self.control_rate

    @property
    def n_ticks(self) -> int:
        return max(1, round(self.duration * self.control_rate))

    @property
    def obs_stride(self) -> int:
        """Control ticks per observation, clamped to the ``n_ticks + 1`` past
        which every stride observes tick 0 alone, as ``history_depth`` is
        clamped; a tiny ``obs_rate`` would otherwise make a stride too large
        for an integer index."""
        return min(round(self.control_rate / self.obs_rate), self.n_ticks + 1)

    def history_depth(self, latency: float) -> int:
        """Filter-bank history, in ticks, that covers a measurement ``latency``
        seconds late plus one observation period, clamped (before the integer
        conversion, which a huge latency would overflow) to the ``n_ticks + 1``
        ticks an episode holds, since a deeper history is the same bank."""
        ticks = min((latency + 1.0 / self.obs_rate) / self.dt, self.n_ticks + 1)
        return min(max(30, math.ceil(ticks) + 5), self.n_ticks + 1)


@dataclass
class Measurement:
    """One sensor output: the stamped set (None if the target was not seen)
    and the wall-clock time it becomes available downstream."""

    stamp: float
    available_at: float
    sset: SigmaPointSet | None


@dataclass
class TrajectoryBundle:
    """Everything an episode needs, precomputed and seedable; pose streams
    hold one entry per tick, rotations ``(n+1, 3, 3)`` and positions ``(n+1, 3)``.
    ``latency`` is every measurement's delay: ``obs_latency`` plus, in training
    mode, the drawn perception delay."""

    config: ScenarioConfig
    times: np.ndarray
    base_position: np.ndarray           # (n+1, 3) world
    base_yaw: np.ndarray                # (n+1,)
    base_pitch: np.ndarray              # (n+1,)
    vo_rotation: np.ndarray             # camera -> world as odometry reports it
    vo_position: np.ndarray
    obj_to_cam_rotation: np.ndarray     # object -> camera
    obj_to_cam_translation: np.ndarray
    cloud: SurfacePointCloud            # object frame
    true_sets: np.ndarray               # (n+1, 7, 3) camera frame
    true_velocities: np.ndarray         # (n+1, 3) camera-frame world velocity of the target
    visible: np.ndarray                 # (n+1,) bool
    alpha: float
    latency: float                      # s
    draw: RandomizationDraw | None
    sensor_seed: np.random.SeedSequence
    drift_seed: np.random.SeedSequence
    obsnoise_seed: np.random.SeedSequence

    @cached_property
    def vo_poses(self) -> list[RigidTransform]:
        """The VO stream as one checked camera -> world transform per tick,
        built on first access."""
        return [
            RigidTransform(r, p, "camera", "world") for r, p in zip(self.vo_rotation, self.vo_position)
        ]


def _jitter(
    cam: CameraModel, scale: np.ndarray, rng: np.random.Generator,
    points: np.ndarray, pixels: np.ndarray, counts: np.ndarray,
) -> np.ndarray:
    """Consecutive frames of ``counts`` camera-frame points ``(M, 3)`` and
    their pixels ``(M, 2)``, each frame moved by one shared pixel/depth draw
    of ``scale`` from ``rng`` and backprojected."""
    # 0.0 + std * z is what normal(0.0, std) returns for the same draw z.
    shift = np.repeat(0.0 + scale * rng.standard_normal((len(counts), 3)), counts, axis=0)
    depth = np.maximum(points[:, 2] + shift[:, 2], cam.near_z)
    return backproject_pixels(cam, pixels + shift[:, 0:2], depth)


def _cloud_sensor(
    cloud: SurfacePointCloud, rotations: np.ndarray, translations: np.ndarray, cam: CameraModel,
    alpha: float, ticks: np.ndarray, noise: tuple[np.ndarray, np.random.Generator] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The cloud sensor at ``ticks``, one batched pass per chunk of frames.

    Each frame moves the object-frame ``cloud`` by its object -> camera
    rotation and translation (``(n+1, 3, 3)`` and ``(n+1, 3)``, indexed by
    tick), culls it with ``visibility``, and places sigma points on the
    uniform-weight moments of what is left.  Given ``noise``, a jitter
    ``scale`` and a generator, every seen frame first takes its ``_jitter``
    draw, in frame order.  Yields, per chunk, its ticks, which of them are
    seen and the seen frames' sets ``(seen, 7, 3)``; an unseen frame draws
    nothing.
    """
    chunk = max(1, SENSOR_CHUNK_POINTS // len(cloud))
    for first in range(0, len(ticks), chunk):
        part = ticks[first:first + chunk]
        # Transposed rotations stored contiguously: each frame's product then
        # rounds as that frame's ``points @ R.T`` does.
        rot_t = np.ascontiguousarray(np.swapaxes(rotations[part], 1, 2))
        # No unit check on the rotated normals: the cloud checks its own, every
        # rotation stack is checked where it is built, and ``visibility`` reads
        # only the sign of n . p.
        normals = cloud.normals @ rot_t
        points = cloud.points @ rot_t
        points += translations[part][:, None]
        mask, pixels = visibility(points, normals, cam)
        counts = mask.sum(axis=1)
        seen = counts > 0
        sets = np.empty((0, N_POINTS, 3))
        if seen.any():
            flat, counts = mask.ravel(), counts[seen]
            points = np.compress(flat, points.reshape(-1, 3), axis=0)
            if noise is not None:
                pixels = np.compress(flat, pixels.reshape(-1, 2), axis=0)
                points = _jitter(cam, *noise, points, pixels, counts)
            sets = place_sigma_points(segment_pca(points, counts), alpha)
        yield part, seen, sets


def generate_scenario(cfg: ScenarioConfig) -> TrajectoryBundle:
    """Sample the episode: surface cloud, pose streams, VO, and scoring truth."""
    root = np.random.SeedSequence(cfg.seed)
    cloud_seed, vo_seed, sensor_seed, drift_seed, rand_seed, obsnoise_seed = root.spawn(6)

    draw = None
    if cfg.mode == "training":
        draw = sample_randomization(cfg.randomization, np.random.default_rng(rand_seed))
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

    # Every pose stream for all ticks at once.  The stacked products round
    # as the per-tick RigidTransform arithmetic does, so each entry equals
    # composing that tick's transforms one at a time.
    n = cfg.n_ticks
    times = np.arange(n + 1) / cfg.control_rate
    base_position, base_yaw, base_pitch = cfg.camera_motion.base_pose(times)
    base_rotation = rotation_rpy(0.0, base_pitch, base_yaw)
    cam_rotation = base_rotation @ mount.rotation
    cam_position = rotate(base_rotation, mount.translation) + base_position

    vo_rotation, vo_position = cam_rotation, cam_position
    rot_std, trans_std = cfg.vo_rot_noise_std, cfg.vo_trans_noise_std
    if rot_std > 0.0 or trans_std > 0.0:
        # One row of draws per tick: the axis whenever either noise is on,
        # then the angle and the shift, each only when its noise is on;
        # 0.0 + std * z is what normal(0.0, std) returns for the same draw z.
        draws = np.random.default_rng(vo_seed).standard_normal(
            (n + 1, 3 + (rot_std > 0.0) + 3 * (trans_std > 0.0))
        )
        angles = 0.0 + rot_std * draws[:, 3] if rot_std > 0.0 else np.zeros(n + 1)
        shifts = 0.0 + trans_std * draws[:, -3:] if trans_std > 0.0 else np.zeros((n + 1, 3))
        vo_rotation = cam_rotation @ rotation_about_axis(draws[:, 0:3], angles)
        vo_position = rotate(cam_rotation, shifts) + cam_position

    obj_v = np.asarray(cfg.target.velocity, dtype=float)
    obj_position = np.asarray(cfg.target.position, dtype=float) + obj_v * times[:, None]
    world_to_cam = np.swapaxes(cam_rotation, 1, 2)
    obj_to_cam_rotation = world_to_cam @ rotation_rpy(*cfg.target.rpy)
    obj_to_cam_translation = rotate(world_to_cam, obj_position) + rotate(-world_to_cam, cam_position)
    for stream in (base_rotation, cam_rotation, vo_rotation, obj_to_cam_rotation):
        check_rotations(stream)

    # Scoring truth: the noiseless cloud sensor's set at the first tick with
    # any visible point, then transported rigidly with the object.  Tick 0 is
    # sensed alone, since most targets are in view from the start.
    frames = (cloud, obj_to_cam_rotation, obj_to_cam_translation, cfg.camera, alpha)
    for ticks, seen, sets in chain(_cloud_sensor(*frames, np.array([0])),
                                   _cloud_sensor(*frames, np.arange(1, n + 1))):
        if seen.any():
            break
    else:
        raise ConfigError("target is never visible; no scoring reference exists")
    k = int(ticks[np.argmax(seen)])
    to_cam = RigidTransform(obj_to_cam_rotation[k], obj_to_cam_translation[k], "object", "camera")
    ref_set_obj = to_cam.inverse().apply_points(sets[0])

    true_sets = ref_set_obj @ np.swapaxes(obj_to_cam_rotation, 1, 2) + obj_to_cam_translation[:, None]
    # All target points share the object's constant world velocity.
    true_velocities = world_to_cam @ obj_v
    _, visible = project_points(cfg.camera, true_sets[:, 0])

    return TrajectoryBundle(
        config=cfg,
        times=times,
        base_position=base_position,
        base_yaw=base_yaw,
        base_pitch=base_pitch,
        vo_rotation=vo_rotation,
        vo_position=vo_position,
        obj_to_cam_rotation=obj_to_cam_rotation,
        obj_to_cam_translation=obj_to_cam_translation,
        cloud=cloud,
        true_sets=true_sets,
        true_velocities=true_velocities,
        visible=visible,
        alpha=alpha,
        latency=cfg.obs_latency + (draw.perception_delay if draw is not None else 0.0),
        draw=draw,
        sensor_seed=sensor_seed,
        drift_seed=drift_seed,
        obsnoise_seed=obsnoise_seed,
    )


def _observe(bundle: TrajectoryBundle, ticks: np.ndarray, rng: np.random.Generator) -> list[Measurement]:
    """The observations of ``ticks``, in the order given (a tick may
    repeat), drawing from ``rng`` in that order.

    The cloud path is ``_cloud_sensor`` with the jitter: what a depth sensor
    would give.  The truth path jitters the transported true set of each
    frame in which it is visible, in one pass; a noiseless truth sensor draws
    nothing.  A frame with nothing visible gets no set and draws nothing.
    """
    cfg = bundle.config
    cam, spec = cfg.camera, cfg.sensor
    scale = np.array([spec.pixel_std_u, spec.pixel_std_v, spec.depth_std])
    if spec.mode == "truth":
        seen = bundle.visible[ticks]
        found = bundle.true_sets[ticks][seen]
        if scale.any():
            points = found.reshape(-1, 3)
            counts = np.full(len(found), N_POINTS)
            found = _jitter(cam, scale, rng, points, project_points(cam, points)[0], counts)
        chunks = [(ticks, seen, found.reshape(-1, N_POINTS, 3))]
    else:
        chunks = _cloud_sensor(bundle.cloud, bundle.obj_to_cam_rotation, bundle.obj_to_cam_translation,
                               cam, bundle.alpha, ticks, (scale, rng))
    sets: list[np.ndarray | None] = []
    for _, seen, found in chunks:
        found = iter(found)
        sets += [next(found) if s else None for s in seen]
    return [
        Measurement(t, t + bundle.latency, None if z is None else SigmaPointSet(z))
        for t, z in zip(bundle.times[ticks].tolist(), sets)
    ]


def sensor_schedule(bundle: TrajectoryBundle) -> list[Measurement]:
    """All observations of the episode in stamp order, on one stream drawn
    from ``bundle.sensor_seed``."""
    cfg = bundle.config
    ticks = np.arange(0, cfg.n_ticks + 1, cfg.obs_stride)
    return _observe(bundle, ticks, np.random.default_rng(bundle.sensor_seed))


def _deliveries(
    measurements: list[Measurement], times: np.ndarray
) -> tuple[list[Measurement], np.ndarray]:
    """Measurements with a set in delivery order, and how many of them have
    been delivered by each tick."""
    delivered = sorted(
        (m for m in measurements if m.sset is not None), key=lambda m: m.available_at
    )
    count = np.searchsorted([m.available_at for m in delivered], times + STAMP_EPS, side="right")
    return delivered, count


def baseline_zoh(
    measurements: list[Measurement], times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-order hold: at each tick, the newest measurement already delivered,
    emitted unchanged.

    Returns per-tick positions ``(ticks, 7, 3)``, NaN before the first
    delivery, and the has-estimate mask.
    """
    delivered, count = _deliveries(measurements, times)
    points = np.reshape([m.sset.points for m in delivered], (-1, N_POINTS, 3))
    # The held set is the last one delivered by each tick.
    has = count > 0
    out = np.full((len(times), N_POINTS, 3), np.nan)
    out[has] = points[count[has] - 1]
    return out, has


def ego_increments(bundle: TrajectoryBundle) -> tuple[np.ndarray, np.ndarray]:
    """The VO motion from each tick's camera frame into the next one's.

    Returns rotations ``(n+1, 3, 3)`` and translations ``(n+1, 3)``, the
    identity at tick 0.  Tick k equals
    ``vo_poses[k].inverse().compose(vo_poses[k - 1])`` bit for bit.
    """
    inv = np.swapaxes(bundle.vo_rotation[1:], 1, 2)
    pos = bundle.vo_position
    rotations = np.concatenate([np.eye(3)[None], inv @ bundle.vo_rotation[:-1]])
    translations = np.concatenate([np.zeros((1, 3)), rotate(inv, pos[:-1]) + rotate(-inv, pos[1:])])
    return rotations, translations


def _run_bank(
    bundle: TrajectoryBundle,
    measurements: list[Measurement],
    cfg: FilterConfig,
    oosm_mode: str = "replay",
    ego_lanes: tuple[bool, ...] = (True,),
) -> tuple[np.ndarray, np.ndarray]:
    """Drive one filter bank over the episode.

    The bank steps on the bundle's tick grid with its ``ego_increments``, and
    keeps the history a measurement ``bundle.latency`` late needs; a lane
    whose ``ego_lanes`` flag is false never applies the increments.  Returns
    the bank mean of every lane at every tick, shaped ``(ticks, lanes, 7, 6)``
    (position then velocity) and NaN before initialization, and the
    ``(ticks,)`` mask of ticks that have an estimate.
    """
    times = bundle.times
    bank = FilterBank(
        cfg,
        bundle.config.camera,
        start_stamp=float(times[0]),
        history_depth=bundle.config.history_depth(bundle.latency),
        oosm_mode=oosm_mode,
        ego_lanes=ego_lanes,
    )
    delivered, count = _deliveries(measurements, times)
    done = 0
    rotations, translations = ego_increments(bundle)
    # The check each RigidTransform would run, once for the whole stack.
    check_rotations(rotations)
    # Every step's propagation in one call; tick k's entry is k - 1.
    dts = np.diff(times)
    gs, cs = compensate_ego_motion(
        dts[:, None, None, None], rotations[1:, None], translations[1:, None], bank.ego
    )
    means = np.full((len(times), len(ego_lanes), N_POINTS, 6), np.nan)
    has = np.zeros(len(times), dtype=bool)
    for k in range(len(times)):
        if k > 0:
            bank.push(float(dts[k - 1]), gs[k - 1], cs[k - 1])
        for m in delivered[done:count[k]]:
            bank.ingest(m.sset, m.stamp)
        done = count[k]
        if bank.mean is not None:
            means[k] = bank.mean
            has[k] = True
    return means, has


def baseline_no_compensation(
    bundle: TrajectoryBundle, measurements: list[Measurement], cfg: FilterConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Identical replay filter bank that never applies the ego increments.

    Returns per-tick positions ``(ticks, 7, 3)``, NaN before initialization,
    and the has-estimate mask.  ``run_episode`` runs this as the second lane
    of the filter's own bank; it calls it alone only when the filter does
    not replay (``oosm_mode="in_place"``).
    """
    means, has = _run_bank(bundle, measurements, cfg, ego_lanes=(False,))
    return means[:, 0, :, 0:3], has


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
        return asdict(self)


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
_REWARD_KEYS = tuple(f.name for f in fields(RewardBreakdown))


def _columns(training: bool, task: bool) -> tuple[str, ...]:
    """Column order of ``run_episode``'s table and of ``metrics.csv``."""
    columns = ["stamp", "visible", "drift_mag"]
    columns += [f"{name}_p{j}_e{axis}" for name in _ESTIMATORS for j in range(N_POINTS) for axis in "xyz"]
    if training:
        columns += [f"obs_p{j}_{axis}" for j in range(N_POINTS) for axis in "xyz"]
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
    disable_ego_compensation: bool = False,
    oosm_mode: str = "replay",
) -> tuple[EpisodeMetrics, EpisodeTable]:
    """Score the filter and both baselines on one precomputed episode.

    Returns the aggregate metrics and the per-tick table (stamp, visibility,
    drift magnitude, per-point error components per estimator, the logged
    downstream-facing set in training mode, reward terms when a task geometry
    is given).  Raises ``EgoTrackError`` when no tick can be scored, since
    every aggregate metric would then be undefined, and ``NumericalError``
    when an aggregate metric is not finite.
    """
    cfg = bundle.config
    filter_cfg = filter_cfg or FilterConfig()
    times = bundle.times
    n = len(times)
    dt = cfg.dt
    truth = bundle.true_sets

    measurements = sensor_schedule(bundle)

    ego = not disable_ego_compensation  # the filter lane's flag

    # The no-compensation baseline is the filter's second lane: same
    # measurements at the same ticks, so one rollback replays both.  Only the
    # replay bank can carry it; an in_place filter runs alone.
    if oosm_mode == "replay":
        means, has_filter = _run_bank(bundle, measurements, filter_cfg, ego_lanes=(ego, False))
        nocomp_est, has_nocomp = means[:, 1, :, 0:3], has_filter
    else:
        means, has_filter = _run_bank(bundle, measurements, filter_cfg, oosm_mode, ego_lanes=(ego,))
        nocomp_est, has_nocomp = baseline_no_compensation(bundle, measurements, filter_cfg)
    filter_mean = means[:, 0]
    zoh_est, has_zoh = baseline_zoh(measurements, times)
    scored = has_filter & has_zoh & has_nocomp
    n_scored = int(scored.sum())
    if n_scored == 0:
        raise EgoTrackError(
            f"no tick scored: the filter and both baselines never all had an estimate "
            f"in {n} ticks (obs_latency {cfg.obs_latency} s, duration {cfg.duration} s)"
        )

    # (estimator, tick, point, axis), pair ambiguity resolved against truth.
    err = associate_measurement(truth, np.stack([filter_mean[:, :, 0:3], zoh_est, nocomp_est])) - truth

    training = cfg.mode == "training"
    columns = _columns(training, geom is not None)
    values = np.zeros((n, len(columns)))
    values[:, 0] = times
    values[:, 1] = bundle.visible
    obs_at = 3 + len(_ESTIMATORS) * N_POINTS * 3
    reward_at = len(columns) - (len(_REWARD_KEYS) if geom is not None else 0)
    values[:, 3:obs_at] = err.transpose(1, 0, 2, 3).reshape(n, -1)

    if training:
        # What a downstream consumer would see: truth plus occlusion drift
        # plus the episode's shape-perturbation draws.
        drift = drift_walk(
            bundle.visible, cfg.drift_sigma, cfg.drift_max, np.random.default_rng(bundle.drift_seed)
        )
        values[:, 2] = np.abs(drift).max(axis=1)
        observed = perturb_sigma_points(
            truth + drift[:, None, :],
            cfg.randomization.sigma_scale_noise_std,
            cfg.randomization.sigma_rot_noise_std,
            np.random.default_rng(bundle.obsnoise_seed),
        )
        values[:, obs_at:reward_at] = observed.reshape(n, -1)

    terminal: TerminalStatus | None = None
    if geom is not None:
        criteria = criteria or CriteriaConfig()
        # Base-frame proprioception of every tick; the base starts at rest.
        angles = np.stack([np.zeros(n), bundle.base_pitch, bundle.base_yaw], axis=1)
        to_base = np.swapaxes(rotation_rpy(0.0, bundle.base_pitch, bundle.base_yaw), 1, 2)
        gravity = to_base @ np.array([0.0, 0.0, -1.0])
        lin_vel = np.zeros((n, 3))
        lin_vel[1:] = rotate(to_base[1:], np.diff(bundle.base_position, axis=0) / dt)
        ang_vel = np.zeros((n, 3))
        ang_vel[1:] = np.diff(angles, axis=0) / dt
        zero_action = np.zeros(4)
        terms = compute_reward(
            bundle.base_position,
            angles,
            geom,
            criteria,
            ProprioState(gravity, lin_vel, ang_vel, zero_action),
            zero_action,
            out_fov=~bundle.visible,
            rcfg=reward_cfg or RewardConfig(),
        ).to_dict()
        values[:, reward_at:] = np.stack([terms[key] for key in _REWARD_KEYS], axis=1)
        terminal = terminal_status(bundle.base_position[-1], angles[-1], geom, criteria, timed_out=True)

    # Sums run over scored ticks in tick order (see _running_sum).
    sq = _running_sum(np.sum(err**2, axis=-1).transpose(1, 0, 2)[scored])
    centroid = err[:, scored, 0, :]
    dist = norms(centroid)
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
    aggregates = [*rmse_f, *rmse_z, *rmse_n, *abs_sum, sq_vel, *(reward_sums or {}).values()]
    if not np.all(np.isfinite(aggregates)):
        raise NumericalError("an episode metric is not finite; the filter or scoring overflowed")
    return metrics, EpisodeTable(columns, values)
