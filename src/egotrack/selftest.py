"""Acceptance checks runnable from pytest and from the CLI selftest command.

Each criterion builds its own scenario and, where it verifies computed
values, checks them against an independently coded oracle (explicit moment
loops, a dense-matrix filter, the literal term tables) rather than the
library path it is testing.  All randomness is seeded, so the pass/fail
vector is stable across invocations.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .estimator import STAMP_EPS, FilterBank, FilterConfig, associate_measurement, measurement_covariance
from .geometry import (
    CameraModel,
    RigidTransform,
    SigmaPointSet,
    SurfacePointCloud,
    compute_visible_set,
    rotate,
    segment_pca,
    weighted_pca,
)
from .perturbation import DriftState, drift_step
from .sim import (
    CameraMotion,
    ObjectSpec,
    ScenarioConfig,
    SensorSpec,
    TrajectoryBundle,
    _deliveries,
    _observe,
    _run_bank,
    ego_increments,
    generate_scenario,
    run_episode,
    sensor_schedule,
)
from .tasklogic import (
    AscConfig,
    CriteriaConfig,
    InitKind,
    ProprioState,
    RewardConfig,
    TaskGeometry,
    TerminalStatus,
    asc_probability,
    compute_reward,
    terminal_status,
)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.index:2d}: {self.name} ({self.detail})"


# ---------------------------------------------------------------------------
# 1. weighted PCA vs explicit moment loops


def _pca_moment_oracle(points: np.ndarray, weights: np.ndarray):
    """First/second weighted moments by explicit accumulation."""
    total = 0.0
    mu = np.zeros(3)
    for p, w in zip(points, weights):
        total += w
        mu = mu + w * p
    mu = mu / total
    cov = np.zeros((3, 3))
    for p, w in zip(points, weights):
        d = p - mu
        cov = cov + w * np.outer(d, d)
    cov = cov / total
    return mu, cov


def check_pca_oracle() -> CriterionResult:
    """``weighted_pca`` at random weights, and ``segment_pca`` (the moments
    the sensor and the scoring truth run) at unit weights over the same
    clouds in one call, one segment per cloud, against the oracle."""
    rng = np.random.default_rng(101)
    worst = 0.0
    clouds, cases = [], []
    for _ in range(100):
        n = int(rng.integers(50, 501))
        scales = rng.uniform(0.05, 2.0, size=3)
        center = rng.uniform(-3.0, 3.0, size=3)
        pts = center + rng.normal(size=(n, 3)) * scales
        weights = rng.uniform(0.1, 5.0, size=n)
        res = weighted_pca(pts, weights)
        cases.append((_pca_moment_oracle(pts, weights), res.centroid, res.eigenvalues, res.eigenvectors))
        clouds.append(pts)
    seg = segment_pca(np.concatenate(clouds), np.array([len(pts) for pts in clouds]))
    for j, pts in enumerate(clouds):
        cases.append((_pca_moment_oracle(pts, np.ones(len(pts))),
                      seg.centroid[j], seg.eigenvalues[j], seg.eigenvectors[j]))
    ok = True
    for (mu, cov), centroid, evals, evecs in cases:
        recon = evecs @ np.diag(evals) @ evecs.T
        dev = max(
            np.abs(centroid - mu).max(),
            np.abs(evals - np.linalg.eigvalsh(cov)[::-1]).max(),
            np.abs(recon - cov).max(),
        )
        scale = max(1.0, np.abs(cov).max())
        worst = max(worst, dev / scale)
        if not dev <= 1e-9 * scale:
            ok = False
    return CriterionResult(
        1, "PCA moment oracle", ok,
        f"max relative deviation {worst:.3e} over 100 random clouds, weighted and "
        f"segmented, tol 1e-9",
    )


# ---------------------------------------------------------------------------
# 2. visibility exactness on an analytic sphere


def check_visibility_exactness() -> CriterionResult:
    rng = np.random.default_rng(202)
    cam = CameraModel()
    center = np.array([0.0, 0.0, 3.0])
    radius = 0.5
    dirs = rng.normal(size=(2048, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # Two points exactly on a boundary, inside the image otherwise, and
    # visible to neither test: one on an axis-aligned face seen edge on
    # (n . p = 0), and one facing the camera that projects to u = width
    # (x = 0.5 at the depth where fx x / z = width - cx, exact in binary).
    edge = np.array([[0.0, 0.1, 2.0], [0.5, 0.0, cam.fx * 0.5 / (cam.width - cam.cx)]])
    edge_normals = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    points = np.concatenate([center + radius * dirs, edge])
    cloud = SurfacePointCloud(points, np.concatenate([dirs, edge_normals]), "camera")
    vis = np.zeros(len(points), dtype=bool)
    vis[compute_visible_set(cloud, cam)] = True
    # Closed-form half-space test: n . (c + r n) < 0 <=> n . c + r < 0.
    oracle = np.concatenate([dirs @ center + radius < 0.0, [False, False]])
    mismatches = int(np.sum(vis != oracle))
    return CriterionResult(
        2, "visibility exactness on analytic sphere", mismatches == 0,
        f"{mismatches} mismatches out of {len(points)} points (2 on a boundary)",
    )


# ---------------------------------------------------------------------------
# 3. reduction to a textbook constant-velocity KF


class _DenseKf:
    """Independently coded 6D constant-velocity filter (simple-form update)."""

    def __init__(self, z, cfg: FilterConfig, cam: CameraModel):
        self.x = np.concatenate([np.asarray(z, dtype=float), np.zeros(3)])
        self.p = np.diag([cfg.p0_pos] * 3 + [cfg.p0_vel] * 3)
        self.cfg = cfg
        self.cam = cam

    def predict(self, dt: float):
        a = np.eye(6)
        a[0, 3] = a[1, 4] = a[2, 5] = dt
        q = np.diag([self.cfg.q_pos] * 3 + [self.cfg.q_vel] * 3)
        self.x = a @ self.x
        self.p = a @ self.p @ a.T + q

    def update(self, z):
        # Depth-scaled R written out here, so the oracle shares no code with the bank.
        depth = max(self.x[2], self.cam.near_z)
        sx = depth / self.cam.fx * self.cfg.sigma_u
        sy = depth / self.cam.fy * self.cfg.sigma_v
        r = np.diag([sx * sx, sy * sy, self.cfg.sigma_z * self.cfg.sigma_z])
        h = np.zeros((3, 6))
        h[0, 0] = h[1, 1] = h[2, 2] = 1.0
        s = h @ self.p @ h.T + r
        k = self.p @ h.T @ np.linalg.inv(s)
        self.x = self.x + k @ (np.asarray(z, dtype=float) - h @ self.x)
        self.p = (np.eye(6) - k @ h) @ self.p


def check_kf_reduction() -> CriterionResult:
    rng = np.random.default_rng(303)
    cfg = FilterConfig()
    cam = CameraModel()
    truth = np.array([
        [0.0, 0.0, 2.5],
        [0.3, 0.0, 2.5],
        [-0.3, 0.0, 2.5],
        [0.0, 0.2, 2.5],
        [0.0, -0.2, 2.5],
        [0.0, 0.0, 2.8],
        [0.0, 0.0, 2.2],
    ])
    drift_v = np.array([0.02, -0.01, 0.03])
    ident = RigidTransform.identity("camera")
    bank = FilterBank(cfg, cam, start_stamp=0.0, history_depth=600)

    z0 = truth + rng.normal(0.0, 0.02, size=(7, 3))
    bank.ingest(SigmaPointSet(z0), 0.0)
    oracles = [_DenseKf(z0[j], cfg, cam) for j in range(7)]

    worst = 0.0
    for step in range(500):
        dt = float(rng.uniform(0.005, 0.05))
        truth = truth + drift_v * dt
        bank.step(dt, ident)
        for kf in oracles:
            kf.predict(dt)
        if step % 5 == 4:
            z = truth + rng.normal(0.0, 0.02, size=(7, 3))
            bank.ingest(SigmaPointSet(z), bank.stamp)
            for j, kf in enumerate(oracles):
                kf.update(z[j])
        mean, cov = bank.state[0][0], bank.state[1][0]
        for j, kf in enumerate(oracles):
            worst = max(worst, np.abs(mean[j] - kf.x).max(), np.abs(cov[j] - kf.p).max())
    return CriterionResult(
        3, "filter reduction to textbook KF", worst <= 1e-10,
        f"max state/covariance deviation {worst:.3e} over 500 steps, tol 1e-10",
    )


# ---------------------------------------------------------------------------
# 4. ego-compensation open-loop exactness


def _open_loop(bundle: TrajectoryBundle) -> tuple[np.ndarray, list]:
    """The filter's means ``(ticks, 7, 6)`` when no set is delivered after
    1 s, and the measurements it was given."""
    measurements = [m for m in sensor_schedule(bundle) if m.available_at <= 1.0 + STAMP_EPS]
    return _run_bank(bundle, measurements, FilterConfig())[0][:, 0], measurements


def _open_loop_error(bundle: TrajectoryBundle) -> float:
    """Worst deviation of the filter's open-loop means after its last set
    from that tick's mean carried in closed form by the VO poses.

    With d the tick of the last delivery, ``R_kd = vo_rot[k]^T vo_rot[d]``,
    ``t_kd = vo_rot[k]^T (vo_pos[d] - vo_pos[k])`` and ``tau = t_k - t_d``,
    tick k's mean must be ``p_k = R_kd (p_d + tau v_d) + t_kd`` and
    ``v_k = R_kd v_d``; the oracle reads only the VO poses and tick d's mean.
    """
    means, measurements = _open_loop(bundle)
    delivered, count = _deliveries(measurements, bundle.times)
    d = int(np.argmax(count == len(delivered)))
    rot, pos = bundle.vo_rotation, bundle.vo_position
    inv = rot[d + 1:].swapaxes(1, 2)
    rel = inv @ rot[d]
    p, v = means[d, :, 0:3], means[d, :, 3:6]
    tau = (bundle.times[d + 1:] - bundle.times[d])[:, None, None]
    want_p = np.einsum("kij,kpj->kpi", rel, p + tau * v) + rotate(inv, pos[d] - pos[d + 1:])[:, None]
    want_v = np.einsum("kij,pj->kpi", rel, v)
    got = means[d + 1:]
    # np.max keeps a NaN, so an uninitialized filter fails the check.
    return float(np.max(np.abs(np.concatenate([got[..., 0:3] - want_p, got[..., 3:6] - want_v]))))


def check_ego_exactness() -> CriterionResult:
    cfg = ScenarioConfig(
        seed=42,
        duration=5.0,
        camera_motion=CameraMotion(kind="walking"),
        target=ObjectSpec(shape="sphere", radius=0.1, position=(2.5, 0.0, 0.0)),
        sensor=SensorSpec(pixel_std_u=0.0, pixel_std_v=0.0, depth_std=0.0, mode="truth"),
    )
    bundle = generate_scenario(cfg)
    means, _ = _open_loop(bundle)
    late = bundle.times > 1.0
    truth = bundle.true_sets[late]
    err = associate_measurement(truth, means[late, :, 0:3]) - truth
    # np.max keeps a NaN error, so an uninitialized filter fails the check.
    static = float(np.max(np.linalg.norm(err, axis=-1)))
    # A moving target: the position block of each step must rotate the
    # velocity too, which a static target's zero velocity cannot show.
    target = ObjectSpec(shape="sphere", radius=0.1, position=(2.5, 0.3, 0.0), velocity=(0.0, -0.3, 0.05))
    moving = _open_loop_error(generate_scenario(replace(cfg, target=target)))
    return CriterionResult(
        4, "ego-compensation open-loop exactness", max(static, moving) <= 1e-9,
        f"max open-loop error {static:.3e} m (static target, against truth) and {moving:.3e} m "
        f"(moving target, against the VO closed form) over 4 s without measurements, tol 1e-9",
    )


# ---------------------------------------------------------------------------
# 5. latency replay equivalence


def check_latency_equivalence() -> CriterionResult:
    cfg = ScenarioConfig(
        seed=7,
        duration=3.0,
        camera_motion=CameraMotion(kind="walking"),
        target=ObjectSpec(position=(2.5, 0.4, 0.0), velocity=(0.0, -0.3, 0.0)),
    )
    bundle = generate_scenario(cfg)
    fc = FilterConfig()
    times = bundle.times
    # Truncate so every measurement is delivered inside the episode; then both
    # banks end on the same information set and final states are comparable.
    measurements = [
        m for m in sensor_schedule(bundle)
        if m.sset is not None and m.stamp <= cfg.duration - cfg.obs_latency + STAMP_EPS
    ]
    t_rels = [RigidTransform(r, t) for r, t in zip(*ego_increments(bundle))]

    def snapshot(state):
        mean, cov = state
        return mean.copy(), cov.copy()

    # Zero-latency oracle: same measurements, delivered at their stamps.
    # Record the posterior right after each update.
    oracle = FilterBank(fc, cfg.camera, start_stamp=0.0, history_depth=60)
    by_stamp: dict[int, tuple] = {}
    idx = 0
    for k, t in enumerate(times):
        if k > 0:
            oracle.step(float(times[k] - times[k - 1]), t_rels[k])
        while idx < len(measurements) and measurements[idx].stamp <= t + STAMP_EPS:
            oracle.ingest(measurements[idx].sset, measurements[idx].stamp)
            by_stamp[round(measurements[idx].stamp * cfg.control_rate)] = snapshot(oracle.state)
            idx += 1

    # Latency run: right after each delayed ingest, the posterior at the
    # measurement's stamp must be exactly the oracle's.
    bank = FilterBank(fc, cfg.camera, start_stamp=0.0, history_depth=60)
    worst = 0.0
    compared = 0
    idx = 0
    for k, t in enumerate(times):
        if k > 0:
            bank.step(float(times[k] - times[k - 1]), t_rels[k])
        while idx < len(measurements) and measurements[idx].available_at <= t + STAMP_EPS:
            m = measurements[idx]
            bank.ingest(m.sset, m.stamp)
            got = snapshot(bank.posterior_at(m.stamp))
            want = by_stamp[round(m.stamp * cfg.control_rate)]
            worst = max(worst, *(np.abs(g - w).max() for g, w in zip(got, want)))
            compared += 1
            idx += 1
    final_got = snapshot(bank.state)
    final_want = snapshot(oracle.state)
    worst = max(worst, *(np.abs(g - w).max() for g, w in zip(final_got, final_want)))
    ok = worst <= 1e-9 and compared >= 10
    return CriterionResult(
        5, "latency replay equivalence", ok,
        (
            f"max deviation from zero-latency posterior {worst:.3e} over "
            f"{compared} replayed updates plus final state, tol 1e-9"
        ),
    )


# ---------------------------------------------------------------------------
# 6. baseline dominance and ZOH staleness


def check_baseline_dominance(disable_ego_compensation: bool = False) -> CriterionResult:
    cfg = ScenarioConfig(
        seed=11,
        duration=5.0,
        camera_motion=CameraMotion(kind="walking"),
        target=ObjectSpec(position=(2.5, 0.75, 0.0), velocity=(0.0, -0.3, 0.0)),
    )
    bundle = generate_scenario(cfg)
    metrics, _ = run_episode(
        bundle, FilterConfig(), disable_ego_compensation=disable_ego_compensation
    )
    dominance = (
        metrics.rmse_filter_centroid < metrics.rmse_zoh_centroid
        and metrics.rmse_filter_centroid < metrics.rmse_nocomp_centroid
    )

    lag_cfg = ScenarioConfig(
        seed=12,
        duration=5.0,
        camera_motion=CameraMotion(kind="static"),
        target=ObjectSpec(position=(2.5, 0.75, 0.0), velocity=(0.0, -0.3, 0.0)),
        sensor=SensorSpec(pixel_std_u=0.0, pixel_std_v=0.0, depth_std=0.0, mode="truth"),
    )
    lag_metrics, _ = run_episode(generate_scenario(lag_cfg), FilterConfig())
    lag_err = lag_metrics.mean_err_zoh
    lag_ok = abs(lag_err - 0.09) <= 0.1 * 0.09
    return CriterionResult(
        6, "baseline dominance and ZOH staleness", dominance and lag_ok,
        (
            f"filter {metrics.rmse_filter_centroid:.4f} m vs ZOH "
            f"{metrics.rmse_zoh_centroid:.4f} m vs no-comp "
            f"{metrics.rmse_nocomp_centroid:.4f} m; ZOH mean lag {lag_err:.4f} m "
            f"vs analytic 0.09 m (10%)"
        ),
    )


# ---------------------------------------------------------------------------
# 7. sensor noise scaling law


def check_noise_scaling() -> CriterionResult:
    fc = FilterConfig()
    worst = 0.0
    ok = True
    details = []
    for i, depth in enumerate((0.5, 1.0, 2.0)):
        cfg = ScenarioConfig(
            seed=700 + i,
            duration=0.1,
            target=ObjectSpec(shape="sphere", radius=0.02, position=(depth, 0.0, 0.0)),
        )
        bundle = generate_scenario(cfg)
        frames = _observe(bundle, np.zeros(1000, dtype=int), np.random.default_rng(bundle.sensor_seed))
        draws = np.array([m.sset.points[0] for m in frames])
        emp = np.var(draws, axis=0, ddof=1)
        depth_ref = float(bundle.true_sets[0][0, 2])
        model = np.diag(measurement_covariance(cfg.camera, np.array([depth_ref]), fc)[0])
        rel = np.abs(emp - model) / model
        worst = max(worst, float(rel.max()))
        if rel.max() > 0.15:
            ok = False
        details.append(f"Z={depth}: {rel.max():.3f}")
    return CriterionResult(
        7, "sensor noise scaling law", ok,
        "max relative variance error per depth " + ", ".join(details) + ", tol 0.15",
    )


# ---------------------------------------------------------------------------
# 8. curriculum schedule values


def check_asc_schedule() -> CriterionResult:
    cfg = AscConfig()
    errs = []
    p_near0 = asc_probability(0.0, InitKind.NEAR_OPTIMAL, cfg)
    p_fail0 = asc_probability(0.0, InitKind.FAILURE_REPLAY, cfg)
    errs.append(abs(p_near0 - 0.8))
    errs.append(abs(p_fail0 - 0.2))
    exact_near1 = 0.1 + 0.7 * math.exp(-5.0)
    exact_fail1 = 0.5 - 0.3 * math.exp(-5.0)
    errs.append(abs(asc_probability(1.0, InitKind.NEAR_OPTIMAL, cfg) - exact_near1))
    errs.append(abs(asc_probability(1.0, InitKind.FAILURE_REPLAY, cfg) - exact_fail1))
    grid = np.linspace(0.0, 1.0, 1001)
    near = np.array([asc_probability(float(r), InitKind.NEAR_OPTIMAL, cfg) for r in grid])
    fail = np.array([asc_probability(float(r), InitKind.FAILURE_REPLAY, cfg) for r in grid])
    monotone = bool(np.all(np.diff(near) < 0.0) and np.all(np.diff(fail) > 0.0))
    bounded = bool(np.all(near + fail <= 1.0 + 1e-12))
    ok = max(errs) <= 1e-12 and p_near0 == 0.8 and p_fail0 == 0.2 and monotone and bounded
    return CriterionResult(
        8, "curriculum schedule values", ok,
        f"max endpoint error {max(errs):.3e} (tol 1e-12), monotone={monotone}, sum<=1={bounded}",
    )


# ---------------------------------------------------------------------------
# 9. drift boundedness, variance growth, reset


def check_drift_model() -> CriterionResult:
    rng = np.random.default_rng(909)
    n = 10_000
    state = DriftState(np.zeros((n, 3)), 0.01, 0.10)
    bound_ok = True
    for _ in range(100):
        state = drift_step(state, rng, target_visible=False)
        if np.abs(state.d).max() > 0.10:
            bound_ok = False
    reset = drift_step(state, rng, target_visible=True)
    reset_ok = bool(np.all(reset.d == 0.0))

    free = DriftState(np.zeros((n, 3)), 0.01, np.inf)
    var_ok = True
    worst = 0.0
    for t in range(1, 101):
        free = drift_step(free, rng, target_visible=False)
        if t in (25, 50, 100):
            ratio = float(np.var(free.d) / (t * 0.01**2))
            worst = max(worst, abs(ratio - 1.0))
            if abs(ratio - 1.0) > 0.05:
                var_ok = False
    ok = bound_ok and reset_ok and var_ok
    return CriterionResult(
        9, "drift boundedness, variance growth, reset", ok,
        (
            f"bound held={bound_ok}, reset exact={reset_ok}, "
            f"max |var ratio - 1| {worst:.4f} over 1e4 rollouts (tol 0.05)"
        ),
    )


# ---------------------------------------------------------------------------
# 10. reward and termination table oracle


def _oracle_wrap(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


def _oracle_terminal(pos, ang, geom, crit, timed_out):
    dx = pos[0] - geom.p_opt[0]
    dy = pos[1] - geom.p_opt[1]
    dyaw = _oracle_wrap(ang[2] - geom.theta_opt[2])
    dpitch = _oracle_wrap(ang[1] - geom.theta_opt[1])
    if (
        abs(dx) < crit.eps_x
        and abs(dy) < crit.eps_y
        and abs(dyaw) < crit.eps_yaw
        and abs(dpitch) < crit.eps_pitch
    ):
        return TerminalStatus.SUCCESS
    if timed_out and (
        abs(dx) >= crit.delta_x
        or abs(dy) >= crit.delta_y
        or abs(dyaw) >= crit.delta_yaw
        or abs(dpitch) >= crit.delta_pitch
    ):
        return TerminalStatus.FAILURE
    return TerminalStatus.RUNNING


def _oracle_reward(pos, ang, geom, crit, proprio, raw, out_fov, rcfg):
    s = rcfg.sigma_track
    box = [rcfg.clip_planar, rcfg.clip_planar, rcfg.clip_planar, rcfg.clip_pitch]
    action = [min(hi, max(-hi, float(x))) for x, hi in zip(raw, box)]
    limit = sum((action[i] - raw[i]) ** 2 for i in range(4))

    def kern(x: float) -> float:
        return math.exp(-(x * x) / s)

    dp = [pos[i] - geom.p_opt[i] for i in range(3)]
    dth = [_oracle_wrap(ang[i] - geom.theta_opt[i]) for i in range(3)]
    e_pos = math.sqrt(sum(geom.w_pos[i] * dp[i] * dp[i] for i in range(3)))
    e_rot = math.sqrt(sum(geom.w_rot[i] * dth[i] * dth[i] for i in range(3)))

    a = np.asarray(geom.p_hint, dtype=float)
    b = np.asarray(geom.p_opt, dtype=float)
    p = np.asarray(pos, dtype=float)
    seg = b - a
    if float(seg @ seg) == 0.0:
        d_path = float(np.linalg.norm(p - b))
    else:
        frac = float((p - a) @ seg) / float(seg @ seg)
        frac = min(1.0, max(0.0, frac))
        d_path = float(np.linalg.norm(p - (a + frac * seg)))

    hint = kern(d_path) * kern(e_rot) * (1.0 + rcfg.k_pos * kern(e_pos))
    v = math.sqrt(
        proprio.lin_vel[0] ** 2 + proprio.lin_vel[1] ** 2 + proprio.ang_vel[2] ** 2
    )
    opt = 0.0
    if _oracle_terminal(pos, ang, geom, crit, False) is TerminalStatus.SUCCESS:
        opt = kern(e_pos) * kern(e_rot) * kern(v)
    miss = 1.0 if out_fov else 0.0
    roll = proprio.gravity_proj[1] ** 2
    ang_pen = proprio.ang_vel[0] ** 2 + proprio.ang_vel[1] ** 2
    smooth = sum((action[i] - proprio.prev_action[i]) ** 2 for i in range(4))
    total = (
        rcfg.w_hint * hint
        + rcfg.w_opt * opt
        + rcfg.w_miss * miss
        + rcfg.w_roll * roll
        + rcfg.w_ang * ang_pen
        + rcfg.w_smooth * smooth
        + rcfg.w_limit * limit
    )
    return {
        "hint": hint, "opt": opt, "miss": miss, "roll": roll,
        "ang": ang_pen, "smooth": smooth, "limit": limit, "total": total,
    }


def check_reward_oracle() -> CriterionResult:
    rng = np.random.default_rng(1010)
    geom = TaskGeometry(
        p_opt=[0.4, -0.1, 0.2],
        theta_opt=[0.0, 0.1, -0.4],
        p_hint=[0.0, 0.3, 0.2],
    )
    crit = CriteriaConfig()
    rcfg = RewardConfig()
    worst = 0.0
    statuses = set()
    mismatch = 0
    for trial in range(1000):
        mode = trial % 5
        if mode in (0, 4):
            # near-success draws; mode 4 puts the pitch just past its band
            pos = geom.p_opt + rng.uniform(-0.04, 0.04, 3) * np.array([1.0, 0.6, 1.0])
            ang = geom.theta_opt + rng.uniform(-0.08, 0.08, 3)
            if mode == 4:
                side = rng.choice([-1.0, 1.0])
                ang[1] = geom.theta_opt[1] + side * (crit.eps_pitch + rng.uniform(0.0, 0.05))
        elif mode == 1:
            # dead band: inside every delta, outside some eps
            pos = geom.p_opt + np.array([rng.uniform(0.06, 0.09), rng.uniform(-0.02, 0.02), 0.0])
            ang = geom.theta_opt + rng.uniform(-0.05, 0.05, 3)
        else:
            pos = geom.p_opt + rng.uniform(-0.5, 0.5, 3)
            ang = rng.uniform(-math.pi, math.pi, 3)
        g = rng.normal(size=3)
        g /= np.linalg.norm(g)
        proprio = ProprioState(g, rng.normal(0.0, 0.5, 3), rng.normal(0.0, 0.5, 3),
                               rng.uniform(-0.5, 0.5, 4))
        # Raw actions cross the clip box on every axis.
        raw = rng.uniform(-1.0, 1.0, 4)
        out_fov = bool(rng.uniform() < 0.3)

        for timed_out in (False, True):
            got = terminal_status(pos, ang, geom, crit, timed_out)
            want = _oracle_terminal(pos, ang, geom, crit, timed_out)
            if got is not want:
                mismatch += 1
            if timed_out:
                statuses.add(want)
        breakdown = compute_reward(pos, ang, geom, crit, proprio, raw, out_fov, rcfg).to_dict()
        want = _oracle_reward(pos, ang, geom, crit, proprio, raw, out_fov, rcfg)
        for key in want:
            worst = max(worst, abs(breakdown[key] - want[key]))

    # A position error of exactly delta is a failure.  With the target at the
    # origin the error is the position itself, so it lands on the edge
    # exactly; an angle error cannot, since wrapping rounds 0.2 to 0.2 + 2e-16.
    origin = TaskGeometry()
    for pos in ([crit.delta_x, 0.0, 0.0], [0.0, crit.delta_y, 0.0]):
        want = _oracle_terminal(pos, [0.0] * 3, origin, crit, True)
        mismatch += terminal_status(pos, [0.0] * 3, origin, crit, True) is not want
    all_statuses = statuses == {
        TerminalStatus.SUCCESS, TerminalStatus.FAILURE, TerminalStatus.RUNNING
    }
    ok = mismatch == 0 and worst <= 1e-12 and all_statuses
    return CriterionResult(
        10, "reward and termination table oracle", ok,
        (
            f"{mismatch} status mismatches, max term deviation {worst:.3e} over "
            f"1000 poses and 2 on a failure edge (tol 1e-12), all statuses seen={all_statuses}"
        ),
    )


# ---------------------------------------------------------------------------
# 11. byte-identical reruns through the CLI


def check_determinism(out_dir: str | None = None) -> CriterionResult:
    if out_dir is None:  # run in a temporary directory, removed afterwards
        with tempfile.TemporaryDirectory(prefix="egotrack-selftest-") as tmp:
            return check_determinism(tmp)
    from .cli import main as cli_main  # deferred to avoid an import cycle

    os.makedirs(out_dir, exist_ok=True)
    cfg_path = os.path.join(out_dir, "determinism-config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "scenario": {
                    "duration": 1.0,
                    "surface_samples": 512,
                    "camera_motion": {"kind": "walking"},
                    "target": {"position": [2.5, 0.3, 0.0], "velocity": [0.0, -0.3, 0.0]},
                }
            },
            fh,
        )
    outs = [os.path.join(out_dir, "run-a"), os.path.join(out_dir, "run-b")]
    codes = [
        cli_main(["run", "--config", cfg_path, "--seed", "3", "--out", out, "--quiet"])
        for out in outs
    ]
    same = True
    for fname in ("metrics.csv", "summary.json"):
        with open(os.path.join(outs[0], fname), "rb") as fh:
            blob_a = fh.read()
        with open(os.path.join(outs[1], fname), "rb") as fh:
            blob_b = fh.read()
        if blob_a != blob_b:
            same = False
    ok = codes == [0, 0] and same
    return CriterionResult(
        11, "byte-identical reruns", ok,
        f"exit codes {codes}, metrics.csv/summary.json byte-equal={same}",
    )


# ---------------------------------------------------------------------------

ALL_CRITERIA = (
    check_pca_oracle,
    check_visibility_exactness,
    check_kf_reduction,
    check_ego_exactness,
    check_latency_equivalence,
    check_baseline_dominance,
    check_noise_scaling,
    check_asc_schedule,
    check_drift_model,
    check_reward_oracle,
    check_determinism,
)


def run_all(
    out_dir: str | None = None,
    disable_ego_compensation: bool = False,
    only: int | None = None,
    echo: bool = True,
) -> list[CriterionResult]:
    """Run the acceptance criteria (optionally a single one by 1-based index).

    A criterion that raises fails with the exception named in its detail,
    and the criteria after it still run.
    """
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if only is not None and i != only:
            continue
        try:
            if fn is check_baseline_dominance:
                res = fn(disable_ego_compensation)
            elif fn is check_determinism:
                res = fn(out_dir)
            else:
                res = fn()
        except Exception as exc:
            res = CriterionResult(i, fn.__name__, False, f"raised {type(exc).__name__}: {exc}")
        results.append(res)
        if echo:
            print(res.line())
    return results
