import numpy as np
import pytest

from egotrack.errors import InvalidDepthError
from egotrack.estimator import (
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
from egotrack.geometry import CameraModel, RigidTransform, SigmaPointSet, rotation_z

CFG = FilterConfig()
CAM = CameraModel()


def base_set(center=(0.0, 0.0, 2.5)):
    c = np.asarray(center, dtype=float)
    pts = np.tile(c, (7, 1))
    offsets = [
        (0.3, 0, 0), (-0.3, 0, 0),
        (0, 0.2, 0), (0, -0.2, 0),
        (0, 0, 0.15), (0, 0, -0.15),
    ]
    for i, off in enumerate(offsets):
        pts[1 + i] += off
    return pts


P0 = np.diag([1e-2] * 3 + [1e-1] * 3)
Q = np.diag([CFG.q_pos] * 3 + [CFG.q_vel] * 3)
EGO = np.array([True])[:, None, None]


def one_state(position, velocity=(0.0, 0.0, 0.0), cov=P0):
    """A batch of one state: mean (1, 6) and covariance (1, 6, 6)."""
    return np.concatenate([position, velocity]).astype(float)[None], np.asarray(cov, dtype=float)[None]


def step(mean, cov, dt, rotation=np.eye(3), translation=np.zeros(3), q=Q):
    g, c = compensate_ego_motion(dt, rotation, translation, EGO)
    return predict(mean, cov, g, c, q)


class TestConfigAndPrimitives:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FilterConfig(q_pos=0.0)
        with pytest.raises(ValueError):
            FilterConfig(sigma_z=-1.0)

    def test_init_track_prior(self):
        mean, cov = init_track(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), P0)
        np.testing.assert_array_equal(mean[:, 0:3], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(mean[:, 3:6], np.zeros((2, 3)))
        np.testing.assert_array_equal(cov, [P0, P0])

    def test_predict_moves_with_velocity(self):
        mean, cov = one_state(np.zeros(3), [1.0, -2.0, 0.5])
        out, _ = step(mean, cov, 0.02)
        np.testing.assert_allclose(out[0, 0:3], [0.02, -0.04, 0.01], atol=1e-15)
        np.testing.assert_array_equal(out[0, 3:6], mean[0, 3:6])

    def test_predict_covariance_form(self):
        mean, cov = one_state(np.zeros(3))
        dt = 0.1
        _, out = step(mean, cov, dt)
        a = np.eye(6)
        a[0:3, 3:6] = dt * np.eye(3)
        np.testing.assert_allclose(out[0], a @ cov[0] @ a.T + Q, atol=1e-15)

    def test_predict_adds_noise_even_for_zero_dt(self):
        mean, cov = one_state(np.zeros(3))
        out_mean, out_cov = step(mean, cov, 0.0)
        np.testing.assert_array_equal(out_mean, mean)
        assert out_cov[0, 0, 0] == pytest.approx(cov[0, 0, 0] + CFG.q_pos)

    def test_predict_rejects_negative_dt(self):
        with pytest.raises(ValueError):
            compensate_ego_motion(-0.01, np.eye(3), np.zeros(3), EGO)

    def test_compensation_remaps_state(self):
        mean, cov = one_state([1.0, 0.0, 2.0], [0.5, 0.0, 0.0])
        # dt = 0 and no process noise leave only the ego remap.
        out_mean, out_cov = step(mean, cov, 0.0, rotation_z(np.pi / 2.0), np.array([0.0, 0.0, 1.0]),
                                 q=np.zeros((6, 6)))
        np.testing.assert_allclose(out_mean[0, 0:3], [0.0, 1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(out_mean[0, 3:6], [0.0, 0.5, 0.0], atol=1e-12)
        # covariance conjugated blockwise, no inflation
        np.testing.assert_allclose(np.trace(out_cov[0]), np.trace(cov[0]), atol=1e-12)

    def test_lane_without_ego_skips_the_increment(self):
        dt, rot, t = 0.05, rotation_z(0.3), np.array([0.1, -0.2, 0.3])
        g, c = compensate_ego_motion(dt, rot, t, np.array([True, False])[:, None, None])
        a = np.eye(6)
        a[0:3, 3:6] = dt * np.eye(3)
        f = np.zeros((6, 6))
        f[0:3, 0:3] = f[3:6, 3:6] = rot
        np.testing.assert_allclose(g[0], f @ a, atol=1e-15)
        np.testing.assert_array_equal(c[0], np.concatenate([t, np.zeros(3)]))
        np.testing.assert_array_equal(g[1], a)
        np.testing.assert_array_equal(c[1], np.zeros(6))

    def test_measurement_covariance_depth_scaling(self):
        r1, r2 = measurement_covariance(CAM, np.array([1.0, 2.0]), CFG)
        np.testing.assert_allclose(np.diag(r1), [0.0016, 0.0016, 0.0025], atol=1e-18)
        np.testing.assert_allclose(np.diag(r2), [0.0064, 0.0064, 0.0025], atol=1e-18)
        with pytest.raises(InvalidDepthError):
            measurement_covariance(CAM, np.array([1.0, 0.0]), CFG)

    def test_update_matches_simple_form(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            m = rng.normal(size=(6, 6))
            p = m @ m.T + 1e-3 * np.eye(6)
            mean, cov = one_state(rng.normal(size=3), rng.normal(size=3), p)
            z = mean[0, 0:3] + rng.normal(0.0, 0.1, 3)
            r_t = measurement_covariance(CAM, np.array([2.0]), CFG)
            out_mean, out_cov = update(mean, cov, z[None], r_t)

            h = np.zeros((3, 6))
            h[:, 0:3] = np.eye(3)
            x = mean[0]
            s = h @ p @ h.T + r_t[0]
            k = p @ h.T @ np.linalg.inv(s)
            x2 = x + k @ (z - h @ x)
            p2 = (np.eye(6) - k @ h) @ p
            np.testing.assert_allclose(out_mean[0], x2, atol=1e-10)
            np.testing.assert_allclose(out_cov[0], p2, atol=1e-9)
            np.testing.assert_allclose(out_cov[0], out_cov[0].T, atol=1e-15)

    def test_update_shrinks_covariance(self):
        mean, cov = one_state([0.0, 0.0, 2.0])
        r_t = measurement_covariance(CAM, np.array([2.0]), CFG)
        out_mean, out_cov = update(mean, cov, mean[:, 0:3], r_t)
        np.testing.assert_array_equal(out_mean, mean)
        assert out_cov[0, 0, 0] < cov[0, 0, 0]


class TestAssociation:
    def test_recovers_random_pair_swaps(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pts = base_set() + rng.normal(0.0, 0.02, (7, 3))
            measured = pts.copy()
            for k in range(3):
                if rng.uniform() < 0.5:
                    i, j = 1 + 2 * k, 2 + 2 * k
                    measured[[i, j]] = measured[[j, i]]
            out = associate_measurement(SigmaPointSet(pts), SigmaPointSet(measured))
            np.testing.assert_array_equal(out.points, pts)

    def test_centroid_never_moves(self):
        rng = np.random.default_rng(22)
        pred = SigmaPointSet(base_set())
        meas = SigmaPointSet(base_set() + rng.normal(0.0, 0.5, (7, 3)))
        out = associate_measurement(pred, meas)
        np.testing.assert_array_equal(out.points[0], meas.points[0])


class TestFilterBank:
    def test_uninitialized_until_first_measurement(self):
        bank = FilterBank(CFG, CAM)
        assert bank.estimate() is None
        assert bank.state is None
        assert bank.step(0.02, RigidTransform.identity()) is None
        bank.ingest(SigmaPointSet(base_set()), 0.0)
        assert bank.estimate() is not None
        np.testing.assert_allclose(bank.estimate().points, base_set(), atol=1e-12)

    def test_future_stamp_rejected(self):
        bank = FilterBank(CFG, CAM)
        with pytest.raises(ValueError):
            bank.ingest(SigmaPointSet(base_set()), 1.0)

    def test_stale_measurement_leaves_state_unchanged(self):
        bank = FilterBank(CFG, CAM, history_depth=3)
        bank.ingest(SigmaPointSet(base_set()), 0.0)
        for _ in range(10):
            bank.step(0.02, RigidTransform.identity())
        before = bank.estimate().points.copy()
        status = bank.ingest(SigmaPointSet(base_set((5.0, 5.0, 5.0))), 0.0)
        assert status is IngestStatus.STALE
        np.testing.assert_array_equal(bank.estimate().points, before)

    def test_delayed_equals_immediate_when_static(self):
        ident = RigidTransform.identity()
        z0 = base_set()
        z1 = base_set((0.05, 0.0, 2.5))

        direct = FilterBank(CFG, CAM)
        direct.ingest(SigmaPointSet(z0), 0.0)
        for _ in range(5):
            direct.step(0.02, ident)
        direct.ingest(SigmaPointSet(z1), direct.stamp)
        for _ in range(5):
            direct.step(0.02, ident)

        delayed = FilterBank(CFG, CAM)
        delayed.ingest(SigmaPointSet(z0), 0.0)
        for _ in range(10):
            delayed.step(0.02, ident)
        delayed.ingest(SigmaPointSet(z1), 0.1)  # five ticks late

        np.testing.assert_allclose(
            delayed.estimate().points, direct.estimate().points, atol=1e-12
        )
        np.testing.assert_allclose(delayed.state[0][0, :, 3:6], direct.state[0][0, :, 3:6], atol=1e-12)

    def test_in_place_mode_differs_under_motion(self):
        # ego motion between stamp and arrival makes naive application wrong
        rel = RigidTransform(rotation_z(0.02), np.array([0.01, 0.0, 0.0]))
        banks = {
            mode: FilterBank(CFG, CAM, oosm_mode=mode) for mode in ("replay", "in_place")
        }
        z0 = base_set()
        z1 = base_set((0.1, 0.05, 2.4))
        for bank in banks.values():
            bank.ingest(SigmaPointSet(z0), 0.0)
            for _ in range(10):
                bank.step(0.02, rel)
            bank.ingest(SigmaPointSet(z1), 0.1)
        diff = np.abs(
            banks["replay"].estimate().points - banks["in_place"].estimate().points
        ).max()
        assert diff > 1e-4

    def test_reacquire_after_long_gap(self):
        bank = FilterBank(CFG, CAM, reacquire_window=0.5, reacquire_gate=5.0)
        bank.ingest(SigmaPointSet(base_set()), 0.0)
        for _ in range(60):
            bank.step(0.02, RigidTransform.identity())
        far = base_set((3.0, 0.0, 2.5))
        bank.ingest(SigmaPointSet(far), bank.stamp)
        np.testing.assert_allclose(bank.estimate().points, far, atol=1e-12)
        np.testing.assert_array_equal(bank.state[0][0, :, 3:6], np.zeros((7, 3)))
        np.testing.assert_allclose(bank.state[1][0, 0], P0, atol=1e-15)

    def test_reacquire_resets_only_rows_failing_the_gate(self):
        bank = FilterBank(CFG, CAM, reacquire_window=0.5, reacquire_gate=5.0)
        bank.ingest(SigmaPointSet(base_set()), 0.0)
        for _ in range(60):
            bank.step(0.02, RigidTransform.identity())
        z = base_set()
        z[0] += (0.0, 3.0, 0.0)  # centroid far off; its +/- pairs stay close
        bank.ingest(SigmaPointSet(z), bank.stamp)
        mean, cov = bank.state[0][0], bank.state[1][0]
        np.testing.assert_array_equal(mean[0, 0:3], z[0])
        np.testing.assert_array_equal(cov[0], P0)
        for point_cov in cov[1:]:
            # updated, not reset: keeps the position-velocity cross term
            assert point_cov[0, 3] != 0.0

    def test_close_measurement_updates_instead_of_reinit(self):
        bank = FilterBank(CFG, CAM, reacquire_window=0.5, reacquire_gate=5.0)
        bank.ingest(SigmaPointSet(base_set()), 0.0)
        for _ in range(60):
            bank.step(0.02, RigidTransform.identity())
        near = base_set((0.1, 0.0, 2.5))
        bank.ingest(SigmaPointSet(near), bank.stamp)
        # a Kalman update pulls toward but not onto the measurement
        got = bank.estimate().points[0][0]
        assert 0.0 < got < 0.1
        assert np.abs(bank.state[0][0, :, 3:6]).max() > 0.0

    def test_history_depth_validation(self):
        with pytest.raises(ValueError):
            FilterBank(CFG, CAM, history_depth=1)
        with pytest.raises(ValueError):
            FilterBank(CFG, CAM, oosm_mode="bogus")
