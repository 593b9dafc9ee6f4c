import math

import numpy as np
import pytest

from egotrack import sim
from egotrack.errors import ConfigError, EgoTrackError, NumericalError
from egotrack.estimator import STAMP_EPS, FilterBank, FilterConfig, IngestStatus
from egotrack.geometry import (
    CameraModel,
    RigidTransform,
    compute_visible_set,
    place_sigma_points,
    project_points,
    rotation_about_axis,
    rotation_rpy,
    transform_points,
    weighted_pca,
)
from egotrack.perturbation import RandomizationConfig
from egotrack.shapes import sample_box, sample_cylinder, sample_shape, sample_sphere
from egotrack.sim import (
    MAX_REPLAY_WORK,
    MAX_SURFACE_SAMPLES,
    MAX_TICK_SAMPLES,
    MAX_TICKS,
    MOUNT_ROTATION,
    SENSOR_CHUNK_POINTS,
    CameraMotion,
    ObjectSpec,
    ScenarioConfig,
    SensorSpec,
    baseline_zoh,
    ego_increments,
    emulate_sensor,
    generate_scenario,
    run_episode,
    sensor_schedule,
    Measurement,
)
from egotrack.tasklogic import TaskGeometry
from test_sensor_batch import TOLERANCE_M


def ref_truth(cloud, to_cams, cam, alpha):
    """Per-frame scoring-truth reference: the first of the object -> camera
    transforms ``to_cams`` that sees any point of ``cloud``, and that frame's
    set by ``weighted_pca`` at unit weights, mapped back to the object frame."""
    for k, to_cam in enumerate(to_cams):
        cam_cloud = transform_points(cloud, to_cam)
        vis = compute_visible_set(cam_cloud, cam)
        if vis.size:
            pts = cam_cloud.points[vis]
            ref = place_sigma_points(weighted_pca(pts, np.ones(len(pts))), alpha)
            return k, to_cam.inverse().apply_points(ref)
    raise AssertionError("the reference never sees the target")


def quick_cfg(**kw):
    defaults = dict(seed=5, duration=1.0, surface_samples=512)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestShapes:
    def test_sphere_points_on_surface(self):
        rng = np.random.default_rng(40)
        pts, normals = sample_sphere(0.25, 300, rng)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 0.25, atol=1e-12)
        np.testing.assert_allclose(normals, pts / 0.25, atol=1e-12)

    def test_box_points_on_faces(self):
        rng = np.random.default_rng(41)
        dims = (0.4, 0.3, 0.2)
        pts, normals = sample_box(dims, 500, rng)
        half = np.asarray(dims) / 2.0
        on_face = np.isclose(np.abs(pts), half).any(axis=1)
        assert on_face.all()
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
        # outward: positive component along the face it sits on
        assert (np.einsum("ij,ij->i", normals, pts) > 0.0).all()
        assert np.abs(pts).max(axis=0) == pytest.approx(half, abs=0.05)

    def test_cylinder_points_on_surface(self):
        rng = np.random.default_rng(42)
        pts, normals = sample_cylinder(0.1, 0.3, 500, rng)
        r = np.linalg.norm(pts[:, :2], axis=1)
        lateral = np.isclose(r, 0.1, atol=1e-9)
        caps = np.isclose(np.abs(pts[:, 2]), 0.15, atol=1e-9)
        assert (lateral | caps).all()
        np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)

    def test_dispatcher(self):
        rng = np.random.default_rng(43)
        pts, normals = sample_shape("sphere", 64, rng, radius=0.1, height=0.2, dims=(0.1, 0.1, 0.1))
        assert pts.shape == (64, 3) and normals.shape == (64, 3)
        with pytest.raises(ValueError):
            sample_shape("torus", 10, rng, radius=0.1, height=0.2, dims=(1, 1, 1))


class TestCameraMotion:
    def test_mount_maps_forward_to_optical_axis(self):
        p_world = np.array([2.0, 0.0, 0.0])
        p_cam = MOUNT_ROTATION.T @ p_world
        np.testing.assert_allclose(p_cam, [0.0, 0.0, 2.0], atol=1e-15)
        # world up maps to camera -Y (image up)
        np.testing.assert_allclose(MOUNT_ROTATION.T @ [0.0, 0.0, 1.0], [0.0, -1.0, 0.0], atol=1e-15)

    def test_static(self):
        pos, yaw, pitch = CameraMotion().base_pose(3.7)
        np.testing.assert_array_equal(pos, np.zeros(3))
        assert yaw == 0.0 and pitch == 0.0

    def test_constant_velocity(self):
        m = CameraMotion(kind="constant_velocity", velocity=(0.1, -0.2, 0.0))
        pos, _, _ = m.base_pose(2.0)
        np.testing.assert_allclose(pos, [0.2, -0.4, 0.0], atol=1e-15)

    def test_walking_lateral_and_bob(self):
        m = CameraMotion(kind="walking", amplitude=0.05, frequency=1.5, pitch_amplitude_deg=2.0)
        t = 1.0 / (4.0 * 1.5)  # quarter period: sin = 1, sin(double) = 0
        pos, yaw, pitch = m.base_pose(t)
        assert pos[1] == pytest.approx(0.05)
        assert pos[2] == pytest.approx(0.0, abs=1e-12)
        assert pitch == pytest.approx(math.radians(2.0))
        assert yaw == 0.0

    def test_turning(self):
        m = CameraMotion(kind="turning", yaw_rate=0.5)
        _, yaw, _ = m.base_pose(2.0)
        assert yaw == pytest.approx(1.0)

    @pytest.mark.parametrize("kind", ["static", "constant_velocity", "walking", "turning"])
    def test_stacked_times_equal_scalar_calls(self, kind):
        m = CameraMotion(kind=kind, velocity=(0.3, -0.1, 0.02), yaw_rate=0.4)
        times = np.arange(301) / 50.0
        pos, yaw, pitch = m.base_pose(times)
        assert pos.shape == (301, 3) and yaw.shape == pitch.shape == (301,)
        for k, t in enumerate(times):
            p_k, yaw_k, pitch_k = m.base_pose(float(t))
            assert np.array_equal(pos[k], p_k) and yaw[k] == yaw_k and pitch[k] == pitch_k

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            CameraMotion(kind="hopping")


class TestScenarioConfig:
    def test_rate_divisibility(self):
        with pytest.raises(ValueError):
            quick_cfg(control_rate=50.0, obs_rate=7.0)

    def test_duration_required_positive(self):
        with pytest.raises(ValueError):
            quick_cfg(duration=0.0)

    def test_derived_quantities(self):
        cfg = quick_cfg(duration=5.0)
        assert cfg.dt == pytest.approx(0.02)
        assert cfg.n_ticks == 250
        assert cfg.obs_stride == 10

    def test_obs_stride_is_clamped_to_the_episode(self):
        # A stride past the episode observes tick 0 alone; unclamped, this one
        # is above 2**63 and no longer an integer index.
        cfg = quick_cfg(duration=0.6, obs_rate=1e-300)
        assert cfg.obs_stride == cfg.n_ticks + 1
        assert list(np.arange(0, cfg.n_ticks + 1, cfg.obs_stride)) == [0]
        assert quick_cfg(duration=2.0, obs_rate=1.0).obs_stride == 50

    def test_resource_caps(self):
        # Only the configs are built here; nothing is generated or allocated.
        # The longest episode at the default surface_samples is accepted.
        assert ScenarioConfig(duration=MAX_TICKS / 50.0).n_ticks == MAX_TICKS
        with pytest.raises(ValueError, match="^duration "):
            ScenarioConfig(duration=(MAX_TICKS + 1) / 50.0)
        ScenarioConfig(duration=1.0, surface_samples=MAX_SURFACE_SAMPLES)
        with pytest.raises(ValueError, match="^surface_samples "):
            ScenarioConfig(duration=1.0, surface_samples=MAX_SURFACE_SAMPLES + 1)
        ScenarioConfig(duration=10.0, surface_samples=MAX_TICK_SAMPLES // 500)
        with pytest.raises(ValueError, match="^surface_samples "):
            ScenarioConfig(duration=10.0, surface_samples=MAX_TICK_SAMPLES // 500 + 1)

    def test_replay_work_cap(self):
        # Every tick delivers, and a latency longer than the episode replays
        # all of it, so the work is (ticks + 1) squared.
        side = math.isqrt(MAX_REPLAY_WORK)
        ScenarioConfig(duration=(side - 1) / 50.0, obs_rate=50.0, obs_latency=100.0)
        with pytest.raises(ValueError, match="^obs_latency "):
            ScenarioConfig(duration=side / 50.0, obs_rate=50.0, obs_latency=100.0)
        # Training mode counts the longest perception delay it may draw
        # (50 ms by default): 10001 deliveries x depth 318 ticks fits, and
        # the 2.5 ticks more do not.
        deploy = dict(duration=200.0, obs_rate=50.0, obs_latency=6.23)
        ScenarioConfig(**deploy)
        with pytest.raises(ValueError, match="^obs_latency "):
            ScenarioConfig(**deploy, mode="training")

    def test_training_mode_carries_the_default_randomization(self):
        assert quick_cfg(mode="training").randomization == RandomizationConfig()
        assert quick_cfg().randomization is None

    def test_sensor_validation(self):
        with pytest.raises(ValueError):
            SensorSpec(mode="lidar")
        with pytest.raises(ValueError):
            SensorSpec(depth_std=-0.1)


class TestScenario:
    def test_deterministic_generation(self):
        a = generate_scenario(quick_cfg())
        b = generate_scenario(quick_cfg())
        np.testing.assert_array_equal(a.cloud.points, b.cloud.points)
        np.testing.assert_array_equal(a.true_sets, b.true_sets)
        c = generate_scenario(quick_cfg(seed=6))
        assert np.abs(a.cloud.points - c.cloud.points).max() > 0.0

    def test_static_scene_truth_constant(self):
        bundle = generate_scenario(quick_cfg())
        for k in range(1, len(bundle.times)):
            np.testing.assert_array_equal(bundle.true_sets[k], bundle.true_sets[0])
        assert bundle.visible.all()
        np.testing.assert_array_equal(bundle.true_velocities, 0.0)

    def test_truth_centroid_depth(self):
        bundle = generate_scenario(quick_cfg())
        # sphere of radius 0.1 at 2.5 m: visible cap centroid sits in front of the center
        z = bundle.true_sets[0][0, 2]
        assert 2.3 < z < 2.5

    def test_moving_target_velocity_in_camera_frame(self):
        cfg = quick_cfg(target=ObjectSpec(position=(2.5, 0.3, 0.0), velocity=(0.0, -0.3, 0.0)))
        bundle = generate_scenario(cfg)
        # world -y maps to camera +x under the mount
        np.testing.assert_allclose(bundle.true_velocities[0], [0.3, 0.0, 0.0], atol=1e-12)

    def test_never_visible_rejected(self):
        with pytest.raises(ConfigError):
            generate_scenario(quick_cfg(target=ObjectSpec(position=(-3.0, 0.0, 0.0))))

    def test_training_mode_draws(self):
        bundle = generate_scenario(quick_cfg(mode="training"))
        assert bundle.draw is not None
        assert 1.0 <= bundle.alpha <= 1.5
        assert 0.0 <= bundle.draw.perception_delay <= 0.05

    def test_deploy_mode_has_no_draw(self):
        bundle = generate_scenario(quick_cfg())
        assert bundle.draw is None and bundle.alpha == 1.0

    def test_ego_increments_move_between_camera_frames(self):
        cfg = quick_cfg(
            camera_motion=CameraMotion(kind="turning", velocity=(0.3, 0.1, 0.0)),
            vo_trans_noise_std=0.01,
            vo_rot_noise_std=0.01,
        )
        bundle = generate_scenario(cfg)
        rotations, translations = ego_increments(bundle)
        np.testing.assert_array_equal(rotations[0], np.eye(3))
        np.testing.assert_array_equal(translations[0], np.zeros(3))
        rng = np.random.default_rng(6)
        vo = bundle.vo_poses
        for k in range(1, len(vo)):
            p_world = rng.normal(size=3)
            p_prev = vo[k - 1].inverse().apply_points(p_world)[0]
            p_curr = vo[k].inverse().apply_points(p_world)[0]
            np.testing.assert_allclose(rotations[k] @ p_prev + translations[k], p_curr, atol=1e-12)

    @pytest.mark.parametrize("mode", ["deploy", "training"])
    @pytest.mark.parametrize("kind", ["static", "constant_velocity", "walking", "turning"])
    def test_pose_streams_equal_per_tick_transforms(self, kind, mode):
        # Reference: each tick's poses composed one RigidTransform at a time,
        # with the VO noise drawn per tick in the order axis, angle, shift.
        cfg = quick_cfg(
            camera_motion=CameraMotion(kind=kind, velocity=(0.2, 0.05, 0.01), yaw_rate=0.3),
            target=ObjectSpec(shape="box", position=(2.5, 0.2, 0.0), rpy=(0.3, -0.2, 0.4),
                              velocity=(0.05, -0.1, 0.02)),
            vo_trans_noise_std=0.003,
            vo_rot_noise_std=0.002,
            mode=mode,
        )
        bundle = generate_scenario(cfg)
        mount = RigidTransform(MOUNT_ROTATION, np.zeros(3), "camera", "base")
        if bundle.draw is not None:
            mount = bundle.draw.extrinsic_offset.compose(mount)
        vo_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(6)[1])
        obj_rot = rotation_rpy(*cfg.target.rpy)
        obj_v = np.asarray(cfg.target.velocity)
        cams, vos, to_cams = [], [], []
        for t in bundle.times:
            pos, yaw, pitch = cfg.camera_motion.base_pose(float(t))
            cam = RigidTransform(rotation_rpy(0.0, pitch, yaw), pos, "base", "world").compose(mount)
            axis = vo_rng.normal(size=3)
            angle = vo_rng.normal(0.0, cfg.vo_rot_noise_std)
            shift = vo_rng.normal(0.0, cfg.vo_trans_noise_std, size=3)
            obj_pos = np.asarray(cfg.target.position) + obj_v * float(t)
            cams.append(cam)
            vos.append(cam.compose(RigidTransform(rotation_about_axis(axis, angle), shift)))
            to_cams.append(cam.inverse().compose(RigidTransform(obj_rot, obj_pos, "object", "world")))
        _, ref_obj = ref_truth(bundle.cloud, to_cams, cfg.camera, bundle.alpha)
        for k, (cam, vo, to_cam) in enumerate(zip(cams, vos, to_cams)):
            # The truth's moments sum in another order than the reference's.
            assert np.abs(bundle.true_sets[k] - to_cam.apply_points(ref_obj)).max() <= TOLERANCE_M
            for got, want in [
                (bundle.vo_rotation[k], vo.rotation),
                (bundle.vo_position[k], vo.translation),
                (bundle.obj_to_cam_rotation[k], to_cam.rotation),
                (bundle.obj_to_cam_translation[k], to_cam.translation),
                (bundle.true_velocities[k], cam.rotation.T @ obj_v),
                (bundle.visible[k], project_points(cfg.camera, to_cam.apply_points(ref_obj)[0])[1][0]),
            ]:
                assert np.array_equal(got, want)

    def test_truth_from_first_visible_tick_after_the_first_chunk(self):
        # The search probes tick 0 alone, then chunks of frames from tick 1.
        # The first target enters the image after the first two chunks, and
        # not on a chunk's first frame; the second enters on tick 1.
        firsts = []
        for y, speed in [(2.5, 1.0), (1.75, 5.0)]:
            cfg = quick_cfg(target=ObjectSpec(position=(2.5, y, 0.0), velocity=(0.0, -speed, 0.0)))
            bundle = generate_scenario(cfg)
            to_cams = [
                RigidTransform(r, t, "object", "camera")
                for r, t in zip(bundle.obj_to_cam_rotation, bundle.obj_to_cam_translation)
            ]
            first, ref_obj = ref_truth(bundle.cloud, to_cams, cfg.camera, bundle.alpha)
            firsts.append(first)
            for k, to_cam in enumerate(to_cams):
                assert np.abs(bundle.true_sets[k] - to_cam.apply_points(ref_obj)).max() <= TOLERANCE_M
        chunk = SENSOR_CHUNK_POINTS // cfg.surface_samples
        assert firsts[0] > 1 + chunk and (firsts[0] - 1) % chunk and firsts[1] == 1


class TestSensor:
    def test_truth_mode_noiseless_is_exact(self):
        cfg = quick_cfg(sensor=SensorSpec(0.0, 0.0, 0.0, "truth"))
        bundle = generate_scenario(cfg)
        rng = np.random.default_rng(0)
        m = emulate_sensor(bundle, 10, rng)
        assert m.stamp == 0.2
        assert m.available_at == pytest.approx(0.4)
        np.testing.assert_array_equal(m.sset.points, bundle.true_sets[10])

    def test_cloud_mode_noiseless_matches_truth(self):
        cfg = quick_cfg(sensor=SensorSpec(0.0, 0.0, 0.0, "cloud"))
        bundle = generate_scenario(cfg)
        m = emulate_sensor(bundle, 0, np.random.default_rng(0))
        np.testing.assert_allclose(m.sset.points, bundle.true_sets[0], atol=1e-9)

    def test_tick_outside_episode_rejected(self):
        bundle = generate_scenario(quick_cfg())
        for k in (-1, bundle.config.n_ticks + 1):
            with pytest.raises(ValueError, match="outside"):
                emulate_sensor(bundle, k, np.random.default_rng(0))
        # Both ends of the grid are ticks.
        for k in (0, bundle.config.n_ticks):
            assert emulate_sensor(bundle, k, np.random.default_rng(0)).stamp == bundle.times[k]

    def test_noise_is_common_mode_not_averaged_out(self):
        # One shared pixel/depth draw per frame: the centroid keeps the full
        # jitter.  Independent per-point noise would shrink it by sqrt(N)
        # across the ~250 visible surface samples.
        bundle = generate_scenario(quick_cfg())
        rng = np.random.default_rng(1)
        noiseless = generate_scenario(quick_cfg(sensor=SensorSpec(0.0, 0.0, 0.0, "cloud")))
        clean = emulate_sensor(noiseless, 0, np.random.default_rng(0)).sset.points[0]
        shifts = np.array([
            emulate_sensor(bundle, 0, rng).sset.points[0] - clean for _ in range(60)
        ])
        z_ref = clean[2]
        # centroid x scatter ~ Z sigma_u / fx, z scatter ~ sigma_z
        assert np.std(shifts[:, 0]) > 0.5 * z_ref * 20.0 / 500.0
        assert np.std(shifts[:, 2]) > 0.5 * 0.05
        assert np.abs(shifts).max() < 1.0

    def test_schedule_covers_episode(self):
        bundle = generate_scenario(quick_cfg())
        ms = sensor_schedule(bundle)
        assert len(ms) == 6  # 1 s at 5 Hz plus the initial frame
        np.testing.assert_allclose([m.stamp for m in ms], np.arange(6) * 0.2, atol=1e-12)
        for m in ms:
            assert m.available_at == pytest.approx(m.stamp + 0.2)

    @pytest.mark.parametrize("mode", ["cloud", "truth"])
    def test_unseen_frame_draws_nothing(self, mode):
        # A fast turn loses the target and finds it again.  Sensing only the
        # seen frames on a fresh stream must give the schedule's sets, so a
        # frame without a set consumed no draws.  The cloud sensor's 512
        # samples put the episode in one chunk; at 6000 a chunk holds two
        # frames, and some chunks see nothing.
        for samples in (512, 6000) if mode == "cloud" else (512,):
            cfg = quick_cfg(duration=3.0, surface_samples=samples, sensor=SensorSpec(mode=mode),
                            camera_motion=CameraMotion(kind="turning", yaw_rate=3.0))
            bundle = generate_scenario(cfg)
            ms = sensor_schedule(bundle)
            seen = [m.sset is not None for m in ms]
            assert not all(seen) and seen.index(False) < len(seen) - 1 - seen[::-1].index(True)
            if samples == 6000:
                chunk = sim.SENSOR_CHUNK_POINTS // samples
                assert chunk > 1 and not any(seen[chunk:2 * chunk])
            rng = np.random.default_rng(bundle.sensor_seed)
            ticks = range(0, cfg.n_ticks + 1, cfg.obs_stride)
            for k, m in zip(ticks, ms):
                if m.sset is not None:
                    assert np.array_equal(emulate_sensor(bundle, k, rng).sset.points, m.sset.points)

    def test_training_latency_is_the_bundles(self, monkeypatch):
        # A perception delay longer than the default 30-record history covers
        # on its own, so a history sized without it would drop measurements.
        delay = RandomizationConfig(perception_delay_ms=(450.0, 500.0))
        bundle = generate_scenario(quick_cfg(duration=2.0, mode="training", randomization=delay))
        assert 0.45 <= bundle.draw.perception_delay <= 0.5
        assert bundle.latency == bundle.config.obs_latency + bundle.draw.perception_delay
        ms = sensor_schedule(bundle)
        for m in ms:
            assert m.available_at == m.stamp + bundle.latency
        statuses = []
        real = FilterBank.ingest

        def ingest(self, measured, stamp):
            statuses.append(real(self, measured, stamp))
            return statuses[-1]

        monkeypatch.setattr(FilterBank, "ingest", ingest)
        run_episode(bundle)
        assert len(statuses) >= sum(m.sset is not None for m in ms if m.available_at <= 2.0)
        assert IngestStatus.STALE not in statuses

    def test_zoh_holds_latest_delivery(self):
        times = np.array([0.0, 0.1, 0.2, 0.3, 0.45])
        p0 = np.zeros((7, 3))
        p1 = np.ones((7, 3))
        ms = [
            Measurement(0.0, 0.2, type("S", (), {"points": p0})()),
            Measurement(0.2, 0.4, type("S", (), {"points": p1})()),
        ]
        held, has = baseline_zoh(ms, times)
        np.testing.assert_array_equal(has, [False, False, True, True, True])
        assert np.isnan(held[0:2]).all()
        np.testing.assert_array_equal(held[2], p0)
        np.testing.assert_array_equal(held[3], p0)
        np.testing.assert_array_equal(held[4], p1)


class TestRunEpisode:
    @pytest.mark.parametrize("vo_noise", [0.0, 0.004])
    def test_bank_steps_by_vo_pose_increments(self, vo_noise):
        # The premise of the benchmark's tick driver: lane 0 of the episode's
        # two-lane bank equals, bit for bit at every tick, a one-lane bank
        # stepped by the increments rebuilt from bundle.vo_poses and fed the
        # sets in delivery order.  The truth sensor at 25 Hz, 0.3 s late,
        # makes every ingest roll back over the walking base's steps.
        cfg = quick_cfg(
            camera_motion=CameraMotion(kind="walking"),
            sensor=SensorSpec(mode="truth"),
            obs_rate=25.0,
            obs_latency=0.3,
            vo_trans_noise_std=vo_noise,
            vo_rot_noise_std=vo_noise,
        )
        bundle = generate_scenario(cfg)
        measurements = sensor_schedule(bundle)
        means, has = sim._run_bank(bundle, measurements, FilterConfig(), ego_lanes=(True, False))
        times, vo = bundle.times, bundle.vo_poses
        bank = FilterBank(FilterConfig(), cfg.camera, start_stamp=float(times[0]),
                          history_depth=cfg.history_depth(bundle.latency))
        pending = sorted((m for m in measurements if m.sset is not None), key=lambda m: m.available_at)
        done = 0
        for k, t in enumerate(times):
            if k > 0:
                bank.step(float(times[k] - times[k - 1]), vo[k].inverse().compose(vo[k - 1]))
            while done < len(pending) and pending[done].available_at <= t + STAMP_EPS:
                assert pending[done].stamp < bank.stamp
                assert bank.ingest(pending[done].sset, pending[done].stamp) is IngestStatus.APPLIED
                done += 1
            assert has[k] == (bank.mean is not None)
            if has[k]:
                assert np.array_equal(means[k, 0], bank.mean[0])
        assert done >= 10 and has[-1]

    def test_bank_rejects_a_non_rotation_increment(self, monkeypatch):
        # The bank derives the increments from the bundle as arrays; the stack
        # is checked once, as each per-tick RigidTransform used to be.
        bundle = generate_scenario(quick_cfg(camera_motion=CameraMotion(kind="walking")))
        rotations, translations = ego_increments(bundle)
        rotations = rotations.copy()
        rotations[17] *= 1.001
        monkeypatch.setattr(sim, "ego_increments", lambda b: (rotations, translations))
        with pytest.raises(ValueError, match="orthonormal"):
            run_episode(bundle)

    def test_rows_and_metrics_shape(self):
        bundle = generate_scenario(quick_cfg())
        metrics, table = run_episode(bundle)
        assert metrics.ticks == len(bundle.times) == 51
        assert table.values.shape == (51, len(table.columns))
        assert metrics.scored_ticks > 0
        assert "filter_p0_ex" in table.columns and "nocomp_p6_ez" in table.columns
        assert "reward_total" not in table.columns
        assert "obs_p0_x" not in table.columns
        assert metrics.reward_sums is None and metrics.terminal is None
        assert metrics.visible_fraction == 1.0

    def test_non_finite_metric_is_a_numerical_error(self):
        bundle = generate_scenario(quick_cfg())
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericalError):
            run_episode(bundle, FilterConfig(q_vel=1e308))

    def test_history_depth_is_clamped_to_the_episode(self, monkeypatch):
        # A perception delay of ~1e305 s asks for more records than any
        # deque can hold; the bank only ever needs one per tick.
        depths = []
        real = sim.FilterBank

        def bank(*args, history_depth, **kwargs):
            depths.append(history_depth)
            return real(*args, history_depth=history_depth, **kwargs)

        monkeypatch.setattr(sim, "FilterBank", bank)
        delay = RandomizationConfig(perception_delay_ms=(1e308, 1e308))
        cfg = quick_cfg(mode="training", randomization=delay)
        with pytest.raises(EgoTrackError, match="no tick scored"):
            run_episode(generate_scenario(cfg))
        assert depths == [cfg.n_ticks + 1]

    def test_reward_columns_with_geometry(self):
        geom = TaskGeometry(p_opt=[0.0, 0.0, 0.0], theta_opt=[0.0, 0.0, 0.0], p_hint=[0.1, 0.0, 0.0])
        bundle = generate_scenario(quick_cfg())
        metrics, table = run_episode(bundle, geom=geom)
        assert "reward_total" in table.columns
        assert metrics.terminal == "success"  # static base sits at the optimum
        assert metrics.reward_sums["opt"] > 0.0

    def test_filter_tracks_static_target_tightly(self):
        cfg = quick_cfg(duration=3.0, sensor=SensorSpec(0.0, 0.0, 0.0, "truth"))
        metrics, _ = run_episode(generate_scenario(cfg))
        assert metrics.rmse_filter_centroid < 1e-6
        assert metrics.velocity_rmse < 1e-6

    def test_measurement_cutoff_goes_open_loop(self):
        cfg = quick_cfg(duration=2.0, sensor=SensorSpec(0.0, 0.0, 0.0, "truth"),
                        target=ObjectSpec(position=(2.5, 0.3, 0.0), velocity=(0.0, -0.3, 0.0)))
        bundle = generate_scenario(cfg)
        with_cut, _ = run_episode(bundle, measurement_cutoff=0.5)
        without, _ = run_episode(bundle)
        # ZOH freezes at the last delivered frame while the target keeps moving
        assert with_cut.rmse_zoh_centroid > 0.2
        assert with_cut.rmse_zoh_centroid > 2.5 * without.rmse_zoh_centroid

    def test_training_mode_runs_and_tracks_drift(self):
        cfg = quick_cfg(mode="training")
        metrics, table = run_episode(generate_scenario(cfg))
        assert metrics.max_drift <= 0.10
        assert np.all(table.column("drift_mag") == 0.0)  # always visible here
        assert "obs_p0_x" in table.columns  # downstream-facing set is logged

    @pytest.mark.parametrize("mode, task", [("deploy", False), ("training", False), ("deploy", True)])
    def test_columns_in_documented_order(self, mode, task):
        geom = TaskGeometry(p_opt=[0.0, 0.0, 0.0], theta_opt=[0.0, 0.0, 0.0], p_hint=[0.1, 0.0, 0.0])
        _, table = run_episode(generate_scenario(quick_cfg(mode=mode)), geom=geom if task else None)
        expected = ["stamp", "visible", "drift_mag"]
        for name in ("filter", "zoh", "nocomp"):
            for j in range(7):
                expected += [f"{name}_p{j}_ex", f"{name}_p{j}_ey", f"{name}_p{j}_ez"]
        if mode == "training":
            for j in range(7):
                expected += [f"obs_p{j}_x", f"obs_p{j}_y", f"obs_p{j}_z"]
        if task:
            expected += ["reward_hint", "reward_opt", "reward_miss", "reward_roll",
                         "reward_ang", "reward_smooth", "reward_limit", "reward_total"]
        assert list(table.columns) == expected
        assert table.values.shape == (51, len(expected))
        assert set(np.unique(table.column("visible"))) <= {0.0, 1.0}

    def test_aggregates_equal_per_tick_loop(self):
        """The error aggregates equal a loop over scored ticks in order, bit for bit."""
        cfg = quick_cfg(duration=3.0, camera_motion=CameraMotion(kind="walking"),
                        target=ObjectSpec(position=(2.5, 0.3, 0.0), velocity=(0.0, -0.3, 0.0)))
        metrics, table = run_episode(generate_scenario(cfg))
        errs = {
            name: np.stack([table.column(f"{name}_p{j}_e{axis}") for j in range(7) for axis in "xyz"],
                           axis=1).reshape(-1, 7, 3)
            for name in ("filter", "zoh", "nocomp")
        }
        scored = np.flatnonzero(~np.any([np.isnan(e[:, 0, 0]) for e in errs.values()], axis=0))
        assert metrics.scored_ticks == len(scored) > 100
        for name, err in errs.items():
            sq = np.zeros(7)
            dist = 0.0
            for k in scored:
                sq += np.sum(err[k] ** 2, axis=1)
                dist += float(np.linalg.norm(err[k, 0]))
            assert getattr(metrics, f"rmse_{name}") == list(np.sqrt(sq / len(scored)))
            assert getattr(metrics, f"mean_err_{name}") == dist / len(scored)

    def test_oosm_ablation_changes_numbers(self):
        cfg = quick_cfg(
            duration=2.0,
            camera_motion=CameraMotion(kind="walking"),
            target=ObjectSpec(position=(2.5, 0.3, 0.0), velocity=(0.0, -0.3, 0.0)),
        )
        bundle = generate_scenario(cfg)
        replay, _ = run_episode(bundle)
        in_place, _ = run_episode(bundle, oosm_mode="in_place")
        assert replay.rmse_filter_centroid != in_place.rmse_filter_centroid
