import math

import numpy as np
import pytest

from egotrack.tasklogic import (
    FRAME_SIZE,
    LONG_STRIDE,
    N_LONG,
    N_SHORT,
    OBS_SIZE,
    PROPRIO_SIZE,
    AscConfig,
    AscState,
    CriteriaConfig,
    InitKind,
    ObservationBuffer,
    ProprioState,
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

GRAVITY = np.array([0.0, 0.0, -1.0])


def still_proprio():
    return ProprioState(GRAVITY, np.zeros(3), np.zeros(3), np.zeros(4))


def simple_geom(**kw):
    defaults = dict(p_opt=[0.4, 0.0, 0.2], theta_opt=[0.0, 0.0, 0.0], p_hint=[0.0, 0.0, 0.2])
    defaults.update(kw)
    return TaskGeometry(**defaults)


class TestAngles:
    def test_wrap_identity_inside_range(self):
        assert wrap_angles(0.0) == 0.0
        assert wrap_angles(1.5) == 1.5
        assert wrap_angles(-3.0) == -3.0

    def test_wrap_crossing(self):
        # 3.1 vs -3.1 differ by 6.2, which wraps past the other side
        assert wrap_angles(3.1 - (-3.1)) == pytest.approx(6.2 - 2.0 * math.pi, abs=1e-15)
        assert wrap_angles(6.2 - 2.0 * math.pi) < 0.0

    def test_wrap_half_open_at_pi(self):
        assert wrap_angles(math.pi) == math.pi
        assert wrap_angles(-math.pi) == math.pi
        # 3*pi rounds to either side of the branch cut; magnitude must be pi
        assert abs(wrap_angles(3.0 * math.pi)) == pytest.approx(math.pi)

    def test_wrap_matches_atan2(self):
        rng = np.random.default_rng(31)
        for a in rng.uniform(-10.0, 10.0, 200):
            assert wrap_angles(a) == pytest.approx(math.atan2(math.sin(a), math.cos(a)), abs=1e-12)

    def test_vector_wrap(self):
        a = np.array([0.0, 4.0, -4.0, math.pi, -math.pi])
        w = wrap_angles(a)
        assert w[3] == math.pi and w[4] == math.pi
        np.testing.assert_allclose(w[1], 4.0 - 2.0 * math.pi, atol=1e-15)


class TestValidation:
    def test_geometry_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            simple_geom(w_pos=[-1.0, 1.0, 1.0])

    def test_criteria_band_ordering(self):
        with pytest.raises(ValueError):
            CriteriaConfig(eps_x=0.2, delta_x=0.1)
        with pytest.raises(ValueError):
            CriteriaConfig(eps_y=0.0)

    def test_reward_config_validation(self):
        with pytest.raises(ValueError):
            RewardConfig(sigma_track=0.0)
        with pytest.raises(ValueError):
            RewardConfig(opt_velocity="angular")

    def test_proprio_gravity_must_be_unit(self):
        with pytest.raises(ValueError):
            ProprioState(np.array([0.0, 0.0, -2.0]), np.zeros(3), np.zeros(3), np.zeros(4))


class TestErrors:
    def test_alignment_euclidean(self):
        geom = simple_geom()
        e_pos, e_rot = alignment_errors(geom.p_opt + np.array([0.3, 0.4, 0.0]), [0.0, 0.0, 0.0], geom)
        assert e_pos == pytest.approx(0.5)
        assert e_rot == 0.0

    def test_alignment_weights(self):
        geom = simple_geom(w_pos=[4.0, 1.0, 1.0])
        e_pos, _ = alignment_errors(geom.p_opt + np.array([0.3, 0.4, 0.0]), np.zeros(3), geom)
        assert e_pos == pytest.approx(math.sqrt(4 * 0.09 + 0.16))

    def test_alignment_wraps_rotation(self):
        geom = simple_geom(theta_opt=[0.0, 0.0, -3.1])
        _, e_rot = alignment_errors(geom.p_opt, [0.0, 0.0, 3.1], geom)
        assert e_rot == pytest.approx(abs(6.2 - 2.0 * math.pi), abs=1e-12)

    def test_cross_track_perpendicular(self):
        assert cross_track_error([0.5, 0.3, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(0.3)

    def test_cross_track_clamps_to_endpoint(self):
        d = cross_track_error([1.4, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        assert d == pytest.approx(math.sqrt(1.16))
        assert d == pytest.approx(1.0770329614269007)

    def test_cross_track_degenerate_segment(self):
        d = cross_track_error([3.0, 4.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        assert d == pytest.approx(5.0)


class TestTerminalStatus:
    GEOM = TaskGeometry(p_opt=[0.0, 0.0, 0.0], theta_opt=[0.0, 0.0, 0.0], p_hint=[0.0, 0.0, 0.0])
    CRIT = CriteriaConfig()

    def check(self, pos, ang, timed_out):
        return terminal_status(pos, ang, self.GEOM, self.CRIT, timed_out)

    def test_success_any_time(self):
        pos = [0.04, 0.02, 0.0]
        ang = [0.0, 0.1, 0.05]
        assert self.check(pos, ang, False) is TerminalStatus.SUCCESS
        assert self.check(pos, ang, True) is TerminalStatus.SUCCESS

    def test_success_boundary_is_strict(self):
        assert self.check([0.05, 0.0, 0.0], np.zeros(3), False) is TerminalStatus.RUNNING

    def test_failure_needs_timeout(self):
        pos = [0.5, 0.0, 0.0]
        assert self.check(pos, np.zeros(3), False) is TerminalStatus.RUNNING
        assert self.check(pos, np.zeros(3), True) is TerminalStatus.FAILURE

    def test_any_axis_can_fail(self):
        assert self.check([0.0, 0.0, 0.0], [0.0, 0.0, 0.25], True) is TerminalStatus.FAILURE
        assert self.check([0.0, 0.0, 0.0], [0.0, 0.25, 0.0], True) is TerminalStatus.FAILURE

    def test_dead_band_timeout_stays_running(self):
        # inside every failure band, outside some success band
        pos = [0.07, 0.05, 0.0]
        assert self.check(pos, np.zeros(3), True) is TerminalStatus.RUNNING

    def test_z_and_roll_do_not_matter(self):
        pos = [0.0, 0.0, 9.9]
        ang = [2.0, 0.0, 0.0]
        assert self.check(pos, ang, False) is TerminalStatus.SUCCESS

    def test_yaw_wraps_before_banding(self):
        geom = TaskGeometry(p_opt=[0.0, 0.0, 0.0], theta_opt=[0.0, 0.0, -3.1], p_hint=[0.0, 0.0, 0.0])
        s = terminal_status([0.0, 0.0, 0.0], [0.0, 0.0, 3.1], geom, self.CRIT, False)
        assert s is TerminalStatus.SUCCESS  # wrapped difference is ~0.083 < 0.10


class TestReward:
    def test_clip_action_planar(self):
        clipped, sq = clip_action([0.7, 0.0, 0.0, 0.0], RewardConfig())
        np.testing.assert_allclose(clipped, [0.5, 0.0, 0.0, 0.0])
        assert sq == pytest.approx(0.04)

    def test_clip_action_pitch(self):
        clipped, sq = clip_action([0.0, 0.0, 0.0, 1.0], RewardConfig())
        assert clipped[3] == pytest.approx(math.pi / 6.0)
        assert sq == pytest.approx((1.0 - math.pi / 6.0) ** 2)

    def test_clip_action_stack(self):
        raw = np.array([[0.7, 0.0, -0.9, 1.0], [0.1, -0.2, 0.3, 0.4]])
        clipped, sq = clip_action(raw[None], RewardConfig())
        assert clipped.shape == (1, 2, 4) and sq.shape == (1, 2)
        for k in range(2):
            one, one_sq = clip_action(raw[k], RewardConfig())
            np.testing.assert_array_equal(clipped[0, k], one)
            assert sq[0, k] == one_sq

    def test_inside_box_untouched(self):
        a = [0.1, -0.2, 0.3, 0.4]
        clipped, sq = clip_action(a, RewardConfig())
        np.testing.assert_array_equal(clipped, a)
        assert sq == 0.0

    def test_perfect_pose_total(self):
        geom = simple_geom()
        bd = compute_reward(
            geom.p_opt, geom.theta_opt, geom, CriteriaConfig(), still_proprio(),
            np.zeros(4), out_fov=False, rcfg=RewardConfig(),
        )
        assert bd.hint == pytest.approx(2.0)
        assert bd.opt == pytest.approx(1.0)
        assert bd.miss == 0.0 and bd.roll == 0.0 and bd.ang == 0.0
        assert bd.smooth == 0.0 and bd.limit == 0.0
        assert bd.total == pytest.approx(0.4 * 2.0 + 20.0)

    def test_opt_gated_on_success(self):
        geom = simple_geom()
        pos = geom.p_opt + np.array([0.06, 0.0, 0.0])  # outside eps_x
        bd = compute_reward(
            pos, geom.theta_opt, geom, CriteriaConfig(), still_proprio(),
            np.zeros(4), out_fov=False, rcfg=RewardConfig(),
        )
        assert bd.opt == 0.0

    def test_opt_velocity_kernel(self):
        geom = simple_geom()
        proprio = ProprioState(GRAVITY, [0.2, 0.0, 0.0], np.zeros(3), np.zeros(4))
        bd = compute_reward(
            geom.p_opt, geom.theta_opt, geom, CriteriaConfig(), proprio,
            np.zeros(4), out_fov=False, rcfg=RewardConfig(),
        )
        assert bd.opt == pytest.approx(math.exp(-0.04 / 0.04))

    def test_opt_velocity_planar_ignores_vz(self):
        geom = simple_geom()
        proprio = ProprioState(GRAVITY, [0.0, 0.0, 0.5], np.zeros(3), np.zeros(4))
        bd = compute_reward(
            geom.p_opt, geom.theta_opt, geom, CriteriaConfig(), proprio,
            np.zeros(4), out_fov=False, rcfg=RewardConfig(),
        )
        assert bd.opt == pytest.approx(1.0)

    def test_miss_and_roll_and_ang(self):
        geom = simple_geom()
        tilt = 0.1
        gravity = np.array([0.0, math.sin(tilt), -math.cos(tilt)])
        proprio = ProprioState(gravity, np.zeros(3), [0.3, -0.2, 0.0], np.zeros(4))
        bd = compute_reward(
            [5.0, 5.0, 5.0], [1.0, 1.0, 1.0], geom, CriteriaConfig(), proprio,
            np.zeros(4), out_fov=True, rcfg=RewardConfig(),
        )
        assert bd.miss == 1.0
        assert bd.roll == pytest.approx(math.sin(tilt) ** 2)
        assert bd.ang == pytest.approx(0.09 + 0.04)

    def test_smooth_penalty(self):
        geom = simple_geom()
        bd = compute_reward(
            geom.p_opt, geom.theta_opt, geom, CriteriaConfig(), still_proprio(),
            [0.1, 0.0, 0.0, 0.0], out_fov=False, rcfg=RewardConfig(),
        )
        assert bd.smooth == pytest.approx(0.01)

    def test_weights_enter_total(self):
        geom = simple_geom()
        rcfg = RewardConfig()
        # The raw action is 0.5 outside the box, and the previous action is
        # the clipped one, so only the limit term sees the action.
        proprio = ProprioState(GRAVITY, np.zeros(3), np.zeros(3), [0.5, 0.0, 0.0, 0.0])
        bd = compute_reward(
            [5.0, 5.0, 5.0], [1.0, 1.0, 1.0], geom, CriteriaConfig(),
            proprio, [1.0, 0.0, 0.0, 0.0], out_fov=True, rcfg=rcfg,
        )
        assert bd.limit == 0.25 and bd.smooth == 0.0
        want = (
            rcfg.w_hint * bd.hint + rcfg.w_miss * 1.0 + rcfg.w_limit * 0.25
        )
        assert bd.total == pytest.approx(want)

    def test_hint_prefers_corridor(self):
        geom = simple_geom()
        on_path = compute_reward(
            [0.2, 0.0, 0.2], [0.0, 0.0, 0.0], geom, CriteriaConfig(), still_proprio(),
            np.zeros(4), out_fov=False, rcfg=RewardConfig(),
        )
        off_path = compute_reward(
            [0.2, 0.3, 0.2], [0.0, 0.0, 0.0], geom, CriteriaConfig(), still_proprio(),
            np.zeros(4), out_fov=False, rcfg=RewardConfig(),
        )
        assert on_path.hint > off_path.hint


class TestCurriculum:
    def test_probability_endpoints(self):
        cfg = AscConfig()
        assert asc_probability(0.0, InitKind.NEAR_OPTIMAL, cfg) == 0.8
        assert asc_probability(0.0, InitKind.FAILURE_REPLAY, cfg) == 0.2
        assert asc_probability(1.0, InitKind.NEAR_OPTIMAL, cfg) == pytest.approx(
            0.10471656289935983, abs=1e-15
        )
        assert asc_probability(1.0, InitKind.FAILURE_REPLAY, cfg) == pytest.approx(
            0.49797861590027436, abs=1e-15
        )
        residual = 1.0 - 0.10471656289935983 - 0.49797861590027436
        # 0.4 * (1 - exp(-5))
        assert residual == pytest.approx(0.3973048212003658, abs=1e-12)

    def test_probability_domain(self):
        cfg = AscConfig()
        with pytest.raises(ValueError):
            asc_probability(-0.1, InitKind.NEAR_OPTIMAL, cfg)
        with pytest.raises(ValueError):
            asc_probability(1.1, InitKind.NEAR_OPTIMAL, cfg)
        with pytest.raises(ValueError):
            asc_probability(0.5, InitKind.UNIFORM, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AscConfig(p_near_start=0.9, p_fail_start=0.2)
        with pytest.raises(ValueError):
            AscConfig(s_thresh=0.0)

    def test_rho_saturates_at_threshold(self):
        state = AscState()
        assert state.success_rate == 0.0 and state.rho == 0.0
        for _ in range(9):
            asc_update(state, TerminalStatus.SUCCESS)
        for _ in range(91):
            asc_update(state, TerminalStatus.RUNNING)
        assert state.success_rate == pytest.approx(0.09)
        assert state.rho == pytest.approx(0.09 / 0.15)
        for _ in range(50):
            asc_update(state, TerminalStatus.SUCCESS)
        assert state.rho == 1.0

    def test_window_is_bounded(self):
        state = AscState(AscConfig(window_n=10))
        for _ in range(30):
            asc_update(state, TerminalStatus.SUCCESS)
        assert len(state.window) == 10

    def test_failures_fill_replay_buffer(self):
        state = AscState()
        asc_update(state, TerminalStatus.FAILURE, episode_ref={"pose": 1})
        asc_update(state, TerminalStatus.RUNNING, episode_ref={"pose": 2})
        asc_update(state, TerminalStatus.SUCCESS, episode_ref={"pose": 3})
        assert list(state.replay_buffer) == [{"pose": 1}]

    def test_sample_init_cold_start_rates(self):
        state = AscState()
        rng = np.random.default_rng(32)
        kinds = [sample_init(state, rng).kind for _ in range(4000)]
        near = np.mean([k is InitKind.NEAR_OPTIMAL for k in kinds])
        uniform = np.mean([k is InitKind.UNIFORM for k in kinds])
        assert near == pytest.approx(0.8, abs=0.03)
        # empty replay buffer reroutes the failure mass to uniform
        assert uniform == pytest.approx(0.2, abs=0.03)
        assert not any(k is InitKind.FAILURE_REPLAY for k in kinds)

    def test_sample_init_uses_buffer_when_filled(self):
        state = AscState()
        asc_update(state, TerminalStatus.FAILURE, episode_ref="ep-7")
        rng = np.random.default_rng(33)
        draws = [sample_init(state, rng) for _ in range(500)]
        replays = [d for d in draws if d.kind is InitKind.FAILURE_REPLAY]
        assert replays and all(d.replay_ref == "ep-7" for d in replays)


class TestObservation:
    def test_layout_constants(self):
        assert FRAME_SIZE == 21
        assert PROPRIO_SIZE == 14
        assert OBS_SIZE == 14 + (N_SHORT + N_LONG) * 21 == 329

    def test_zero_padding_and_order(self):
        buf = ObservationBuffer()
        frame0 = np.arange(21, dtype=float).reshape(7, 3)
        buf.push(frame0, tick=0)
        obs = assemble_observation(buf, still_proprio())
        assert obs.shape == (329,) and len(obs) == OBS_SIZE
        short = obs[14:14 + N_SHORT * 21]
        np.testing.assert_array_equal(short[: 4 * 21], 0.0)
        np.testing.assert_array_equal(short[4 * 21:], frame0.reshape(-1))
        # tick 0 also lands in the long ring
        long = obs[14 + N_SHORT * 21:]
        np.testing.assert_array_equal(long[9 * 21:], frame0.reshape(-1))
        np.testing.assert_array_equal(long[: 9 * 21], 0.0)

    def test_long_ring_strides(self):
        buf = ObservationBuffer()
        for tick in range(25):
            buf.push(np.full((7, 3), float(tick)), tick)
        assert len(buf.short) == 5
        assert [int(f[0, 0]) for f in buf.long] == [0, 10, 20]

    def test_proprio_head_layout(self):
        buf = ObservationBuffer()
        proprio = ProprioState(GRAVITY, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0, 10.0], task_flag=1)
        obs = assemble_observation(buf, proprio)
        np.testing.assert_array_equal(obs[0:3], GRAVITY)
        np.testing.assert_array_equal(obs[3:6], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(obs[6:9], [4.0, 5.0, 6.0])
        np.testing.assert_array_equal(obs[9:13], [7.0, 8.0, 9.0, 10.0])
        assert obs[13] == 1.0
        np.testing.assert_array_equal(obs[14:], 0.0)
