"""Ego-compensated sigma-point target tracking with latency-aware filtering.

The package covers the full loop used by a camera-on-a-moving-base tracker:
back-face and field-of-view visibility and 7-point shape summaries
(``geometry``), a bank of per-point constant-velocity filters with ego-motion
compensation and delayed-measurement replay (``estimator``), blind-spot drift
and domain randomization (``perturbation``), task rewards, termination
criteria, the adaptive start curriculum, and observation assembly
(``tasklogic``), a deterministic scenario simulator whose sensor and scoring
truth share one frame pass and one moment function, with baselines
(``sim``), and a CLI (``cli``).
"""

__version__ = "0.1.0"

from .config import build_configs, canonical_config, config_hash
from .errors import (
    ConfigError,
    DegenerateGeometryError,
    EgoTrackError,
    FrameMismatchError,
    InvalidDepthError,
    NumericalError,
)
from .estimator import (
    FilterBank,
    FilterConfig,
    IngestStatus,
    associate_measurement,
    compensate_ego_motion,
    init_track,
    measurement_covariance,
    predict,
    update,
)
from .geometry import (
    CameraModel,
    PcaResult,
    RigidTransform,
    SigmaPointSet,
    SurfacePointCloud,
    backproject_pixels,
    check_rotations,
    compute_visible_set,
    project_points,
    rotate,
    rotation_about_axis,
    rotation_rpy,
    transform_points,
    weighted_pca,
)
from .perturbation import (
    DriftState,
    RandomizationConfig,
    RandomizationDraw,
    drift_step,
    perturb_sigma_points,
    sample_randomization,
)
from .sim import (
    CameraMotion,
    EpisodeMetrics,
    EpisodeTable,
    Measurement,
    ObjectSpec,
    ScenarioConfig,
    SensorSpec,
    TrajectoryBundle,
    baseline_no_compensation,
    baseline_zoh,
    ego_increments,
    emulate_sensor,
    generate_scenario,
    run_episode,
    sensor_schedule,
)
from .tasklogic import (
    AscConfig,
    AscState,
    CriteriaConfig,
    InitDraw,
    InitKind,
    ObservationBuffer,
    ProprioState,
    RewardBreakdown,
    RewardConfig,
    TaskGeometry,
    TerminalStatus,
    alignment_errors,
    asc_probability,
    asc_update,
    assemble_observation,
    clip_action,
    compute_reward,
    cross_track_error,
    sample_init,
    terminal_status,
    wrap_angles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
