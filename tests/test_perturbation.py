import numpy as np
import pytest

from egotrack.perturbation import (
    DriftState,
    RandomizationConfig,
    drift_step,
    perturb_sigma_points,
    sample_randomization,
)


def sample_set():
    pts = np.tile([0.0, 0.0, 2.5], (7, 1))
    pts[1] += [0.3, 0, 0]
    pts[2] -= [0.3, 0, 0]
    pts[3] += [0, 0.2, 0]
    pts[4] -= [0, 0.2, 0]
    pts[5] += [0, 0, 0.1]
    pts[6] -= [0, 0, 0.1]
    return pts


class TestDrift:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            DriftState(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            DriftState(np.zeros(3), 0.01, 0.0)
        with pytest.raises(ValueError):
            DriftState(np.zeros(3), -0.01, 0.1)

    def test_visible_resets_to_zero(self):
        rng = np.random.default_rng(0)
        state = DriftState(np.full(3, 0.07), 0.01, 0.1)
        out = drift_step(state, rng, target_visible=True)
        np.testing.assert_array_equal(out.d, np.zeros(3))

    def test_bound_is_hard(self):
        rng = np.random.default_rng(1)
        state = DriftState(np.zeros((500, 3)), 10.0, 0.1)
        out = drift_step(state, rng, target_visible=False)
        assert np.abs(out.d).max() <= 0.1
        # with a huge step size nearly everything lands on the bound
        assert np.mean(np.abs(out.d) == 0.1) > 0.99

    def test_walk_accumulates(self):
        rng = np.random.default_rng(2)
        state = DriftState(np.zeros((2000, 3)), 0.01, 1e9)
        for _ in range(50):
            state = drift_step(state, rng, target_visible=False)
        assert np.var(state.d) == pytest.approx(50 * 0.01**2, rel=0.1)

    def test_original_state_not_mutated(self):
        rng = np.random.default_rng(3)
        state = DriftState(np.zeros(3), 0.01, 0.1)
        drift_step(state, rng, target_visible=False)
        np.testing.assert_array_equal(state.d, np.zeros(3))


class TestShapePerturbation:
    def test_centroid_untouched(self):
        rng = np.random.default_rng(4)
        out = perturb_sigma_points(sample_set(), 0.2, 0.2, rng)
        np.testing.assert_array_equal(out[0], sample_set()[0])

    def test_scale_only_scales_offsets_uniformly(self):
        rng = np.random.default_rng(5)
        sset = sample_set()
        out = perturb_sigma_points(sset, 0.1, 0.0, rng)
        ratios = np.linalg.norm(out[1:] - out[0], axis=1) / np.linalg.norm(
            sset[1:] - sset[0], axis=1
        )
        np.testing.assert_allclose(ratios, ratios[0], atol=1e-12)
        assert ratios[0] != pytest.approx(1.0, abs=1e-6)

    def test_rotation_only_preserves_offset_norms(self):
        rng = np.random.default_rng(6)
        sset = sample_set()
        out = perturb_sigma_points(sset, 0.0, 0.3, rng)
        np.testing.assert_allclose(
            np.linalg.norm(out[1:] - out[0], axis=1),
            np.linalg.norm(sset[1:] - sset[0], axis=1),
            atol=1e-12,
        )
        assert np.abs(out[1:] - sset[1:]).max() > 1e-6

    def test_zero_noise_is_identity(self):
        rng = np.random.default_rng(7)
        sset = sample_set()
        out = perturb_sigma_points(sset, 0.0, 0.0, rng)
        np.testing.assert_allclose(out, sset, atol=1e-15)


class TestRandomization:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomizationConfig(alpha_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            RandomizationConfig(sigma_scale_noise_std=-0.1)

    def test_collapsed_ranges_are_deterministic(self):
        cfg = RandomizationConfig(
            extrinsic_trans_x=(0.01, 0.01),
            extrinsic_trans_y=(0.0, 0.0),
            extrinsic_trans_z=(0.0, 0.0),
            extrinsic_roll_deg=(0.0, 0.0),
            extrinsic_pitch_deg=(0.0, 0.0),
            extrinsic_yaw_deg=(0.0, 0.0),
            perception_delay_ms=(50.0, 50.0),
            alpha_range=(1.25, 1.25),
        )
        draw = sample_randomization(cfg, np.random.default_rng(8))
        np.testing.assert_allclose(draw.extrinsic_offset.translation, [0.01, 0.0, 0.0])
        np.testing.assert_allclose(draw.extrinsic_offset.rotation, np.eye(3), atol=1e-15)
        assert draw.perception_delay == pytest.approx(0.05)
        assert draw.alpha == 1.25

    def test_draws_respect_ranges(self):
        cfg = RandomizationConfig()
        rng = np.random.default_rng(9)
        for _ in range(200):
            d = sample_randomization(cfg, rng)
            assert -0.02 <= d.extrinsic_offset.translation[0] <= 0.02
            assert -0.005 <= d.extrinsic_offset.translation[1] <= 0.005
            assert 0.0 <= d.perception_delay <= 0.05
            assert 1.0 <= d.alpha <= 1.5
