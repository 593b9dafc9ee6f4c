"""Batched training terms against a written-out per-pose reference.

``run_episode`` computes the drift walk, the shape noise and the reward
terms of every tick at once.  Each property here compares one stacked call
with the per-pose arithmetic written out below (the scalar code these
functions replaced), bit for bit, generator state included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egotrack.geometry import SigmaPointSet, rotation_about_axis
from egotrack.perturbation import DriftState, drift_step, drift_walk, perturb_sigma_points
from egotrack.tasklogic import (
    CriteriaConfig,
    ProprioState,
    RewardConfig,
    TaskGeometry,
    alignment_errors,
    compute_reward,
    cross_track_error,
    wrap_angles,
)

SETTINGS = settings(max_examples=40, deadline=None)
TWO_PI = 2.0 * math.pi
KEYS = ("hint", "opt", "miss", "roll", "ang", "smooth", "limit", "total")


# ---------------------------------------------------------------------------
# Per-pose reference: one pose at a time, in Python floats where the scalar
# code used them.


def ref_wrap(a):
    w = (a + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        w = math.pi
    return w


def ref_wrap_vec(a):
    w = (np.asarray(a, dtype=float) + math.pi) % TWO_PI - math.pi
    return np.where(w == -math.pi, math.pi, w)


def ref_alignment(position, angles, geom):
    dp = np.asarray(position, dtype=float).reshape(3) - geom.p_opt
    dth = ref_wrap_vec(np.asarray(angles, dtype=float).reshape(3) - geom.theta_opt)
    return math.sqrt(float(dp @ (geom.w_pos * dp))), math.sqrt(float(dth @ (geom.w_rot * dth)))


def ref_cross_track(position, a, b):
    p = np.asarray(position, dtype=float).reshape(3)
    seg = b - a
    seg_sq = float(seg @ seg)
    if seg_sq == 0.0:
        return float(np.linalg.norm(p - b))
    s = float((p - a) @ seg) / seg_sq
    s = min(1.0, max(0.0, s))
    return float(np.linalg.norm(p - (a + s * seg)))


def ref_success(position, angles, geom, crit):
    dp = np.asarray(position, dtype=float).reshape(3) - geom.p_opt
    dth = ref_wrap_vec(np.asarray(angles, dtype=float).reshape(3) - geom.theta_opt)
    errs = (abs(dp[0]), abs(dp[1]), abs(dth[2]), abs(dth[1]))
    eps = (crit.eps_x, crit.eps_y, crit.eps_yaw, crit.eps_pitch)
    return all(e < lim for e, lim in zip(errs, eps))


def ref_kernel(sq, sigma):
    return math.exp(-sq / sigma)


def ref_reward(position, angles, geom, crit, gravity, lin_vel, ang_vel, action, prev_action,
               out_fov, rcfg, limit_sq):
    sigma = rcfg.sigma_track
    e_pos, e_rot = ref_alignment(position, angles, geom)
    d_path = ref_cross_track(position, geom.p_hint, geom.p_opt)
    hint = ref_kernel(d_path**2, sigma) * ref_kernel(e_rot**2, sigma) * (
        1.0 + rcfg.k_pos * ref_kernel(e_pos**2, sigma)
    )
    if rcfg.opt_velocity == "planar":
        v = np.array([lin_vel[0], lin_vel[1], ang_vel[2]])
    else:
        v = np.array([*lin_vel, ang_vel[2]])
    opt = 0.0
    if ref_success(position, angles, geom, crit):
        opt = (
            ref_kernel(e_pos**2, sigma)
            * ref_kernel(e_rot**2, sigma)
            * ref_kernel(float(v @ v), sigma)
        )
    miss = 1.0 if out_fov else 0.0
    roll = float(gravity[1]) ** 2
    ang = float(ang_vel[0]) ** 2 + float(ang_vel[1]) ** 2
    smooth = float(np.sum((action - prev_action) ** 2))
    limit = float(limit_sq)
    total = (
        rcfg.w_hint * hint
        + rcfg.w_opt * opt
        + rcfg.w_miss * miss
        + rcfg.w_roll * roll
        + rcfg.w_ang * ang
        + rcfg.w_smooth * smooth
        + rcfg.w_limit * limit
    )
    return dict(zip(KEYS, (hint, opt, miss, roll, ang, smooth, limit, total)))


def ref_perturb(points, scale_std, rot_std, rng):
    centroid = points[0]
    offsets = points[1:] - centroid
    if scale_std > 0.0:
        offsets = offsets * (1.0 + rng.normal(0.0, scale_std))
    if rot_std > 0.0:
        axis = rng.normal(0.0, 1.0, size=3)
        angle = rng.normal(0.0, rot_std)
        offsets = offsets @ rotation_about_axis(axis, angle).T
    out = np.empty((7, 3))
    out[0] = centroid
    out[1:] = centroid + offsets
    return out


# ---------------------------------------------------------------------------
# Random episodes of poses.


def _poses(rng, n, geom):
    """Positions and angles mixing poses at the success band, far poses, and
    angle errors at and near +/- pi; row 0 sits exactly on the optimum."""
    kind = rng.integers(0, 4, n)
    pos = geom.p_opt + rng.uniform(-0.5, 0.5, (n, 3))
    ang = rng.uniform(-math.pi, math.pi, (n, 3))
    band = kind == 0
    # Straddling the default success band on every axis.
    pos[band] = geom.p_opt + rng.uniform(-0.06, 0.06, (band.sum(), 3)) * [1.0, 0.6, 1.0]
    ang[band] = geom.theta_opt + rng.uniform(-0.2, 0.2, (band.sum(), 3))
    edge = kind == 1
    offsets = rng.choice([math.pi, -math.pi, 3 * math.pi, math.pi - 1e-12, -math.pi + 1e-12],
                         (edge.sum(), 3))
    ang[edge] = geom.theta_opt + offsets
    pos[0], ang[0] = geom.p_opt, geom.theta_opt
    return pos, ang


def _unit_rows(rng, n):
    g = rng.normal(size=(n, 3))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _check_reward_stack(seed, n, opt_velocity, degenerate, stacked_actions):
    rng = np.random.default_rng(seed)
    p_opt = rng.uniform(-1.0, 1.0, 3)
    geom = TaskGeometry(
        p_opt=p_opt,
        theta_opt=rng.uniform(-math.pi, math.pi, 3),
        p_hint=p_opt if degenerate else rng.uniform(-1.0, 1.0, 3),
        w_pos=rng.uniform(0.0, 2.0, 3),
        w_rot=rng.uniform(0.0, 2.0, 3),
    )
    crit = CriteriaConfig()
    rcfg = RewardConfig(opt_velocity=opt_velocity, sigma_track=float(rng.uniform(0.02, 0.2)))
    pos, ang = _poses(rng, n, geom)
    gravity = _unit_rows(rng, n)
    lin_vel = rng.normal(0.0, 0.1, (n, 3))
    ang_vel = rng.normal(0.0, 0.1, (n, 3))
    lin_vel[0] = ang_vel[0] = 0.0
    shape = (n, 4) if stacked_actions else (4,)
    action = rng.uniform(-0.5, 0.5, shape)
    prev = rng.uniform(-0.5, 0.5, shape)
    out_fov = rng.uniform(size=n) < 0.3
    limit_sq = rng.uniform(0.0, 0.1, n)

    def actions(k):
        return (action[k], prev[k]) if stacked_actions else (action, prev)

    proprio = ProprioState(gravity, lin_vel, ang_vel, np.zeros(4))
    got = compute_reward(pos, ang, geom, crit, proprio, action, prev, out_fov, rcfg, limit_sq).to_dict()
    for k in range(n):
        want = ref_reward(pos[k], ang[k], geom, crit, gravity[k], lin_vel[k], ang_vel[k],
                          *actions(k), bool(out_fov[k]), rcfg, limit_sq[k])
        for key in KEYS:
            assert got[key].shape == (n,)
            assert got[key][k] == want[key], (key, k)
    assert got["opt"][0] > 0.0  # row 0 is inside the success band

    # One pose gives the reference's floats.
    one = compute_reward(pos[-1], ang[-1], geom, crit,
                         ProprioState(gravity[-1], lin_vel[-1], ang_vel[-1], np.zeros(4)),
                         *actions(-1), bool(out_fov[-1]), rcfg, float(limit_sq[-1])).to_dict()
    want = ref_reward(pos[-1], ang[-1], geom, crit, gravity[-1], lin_vel[-1], ang_vel[-1],
                      *actions(-1), bool(out_fov[-1]), rcfg, limit_sq[-1])
    for key in KEYS:
        assert type(one[key]) is float and one[key] == want[key], key


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    opt_velocity=st.sampled_from(["planar", "linear3d"]),
    degenerate=st.booleans(),
    stacked_actions=st.booleans(),
)
def test_stacked_reward_equals_per_pose_reference(seed, n, opt_velocity, degenerate, stacked_actions):
    _check_reward_stack(seed, n, opt_velocity, degenerate, stacked_actions)


def test_long_reward_stack_equals_per_pose_reference():
    # Python's x**2 and numpy's square disagree on about one input in a
    # thousand, so a stack this long catches a term squared the numpy way.
    _check_reward_stack(12, 10_000, "linear3d", False, True)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), degenerate=st.booleans())
def test_stacked_pose_errors_equal_per_pose_reference(seed, n, degenerate):
    rng = np.random.default_rng(seed)
    p_opt = rng.uniform(-1.0, 1.0, 3)
    geom = TaskGeometry(p_opt=p_opt, theta_opt=rng.uniform(-math.pi, math.pi, 3),
                        p_hint=p_opt if degenerate else rng.uniform(-1.0, 1.0, 3),
                        w_pos=rng.uniform(0.0, 2.0, 3), w_rot=rng.uniform(0.0, 2.0, 3))
    pos, ang = _poses(rng, n, geom)
    e_pos, e_rot = alignment_errors(pos, ang, geom)
    d_path = cross_track_error(pos, geom.p_hint, geom.p_opt)
    for k in range(n):
        assert (e_pos[k], e_rot[k]) == ref_alignment(pos[k], ang[k], geom)
        assert d_path[k] == ref_cross_track(pos[k], geom.p_hint, geom.p_opt)
        assert alignment_errors(pos[k], ang[k], geom) == ref_alignment(pos[k], ang[k], geom)
        assert cross_track_error(pos[k], geom.p_hint, geom.p_opt) == d_path[k]


def test_wrap_angle_matches_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    values = list(rng.uniform(-20.0, 20.0, 2000))
    values += [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 1e-300, -1e-300]
    got = wrap_angles(values)
    assert got.dtype == np.float64
    for a, g in zip(values, got.tolist()):
        want = ref_wrap(a)
        assert g == want and math.copysign(1.0, g) == math.copysign(1.0, want), a


# ---------------------------------------------------------------------------
# Shape noise and drift walk.


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    scale_std=st.sampled_from([0.0, 0.1, 0.5]),
    rot_std=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_stacked_perturbation_equals_sequential_per_set_draws(seed, n, scale_std, rot_std):
    sets = np.random.default_rng(seed + 1).normal(0.0, 1.0, (n, 7, 3))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = perturb_sigma_points(sets, scale_std, rot_std, rng)
    want = np.stack([ref_perturb(s, scale_std, rot_std, ref_rng) for s in sets])
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # One set in, one SigmaPointSet out, with the same draws.
    one = perturb_sigma_points(SigmaPointSet(sets[0], "object"), scale_std, rot_std, rng)
    assert one.frame == "object"
    assert np.array_equal(one.points, ref_perturb(sets[0], scale_std, rot_std, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_perturbation_keeps_leading_axes():
    sets = np.random.default_rng(3).normal(size=(2, 3, 7, 3))
    out = perturb_sigma_points(sets, 0.1, 0.1, np.random.default_rng(4))
    flat = perturb_sigma_points(sets.reshape(6, 7, 3), 0.1, 0.1, np.random.default_rng(4))
    assert out.shape == sets.shape and np.array_equal(out.reshape(6, 7, 3), flat)


def _drift_loop(visible, sigma, d_max, rng):
    state = DriftState(np.zeros(3), sigma, d_max)
    out = []
    for vis in visible:
        state = drift_step(state, rng, bool(vis))
        out.append(state.d)
    return np.array(out).reshape(len(visible), 3)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    visible=st.lists(st.booleans(), min_size=1, max_size=80),
    sigma=st.sampled_from([0.0, 0.01, 0.2]),
    d_max=st.sampled_from([0.05, 0.1, np.inf]),
)
def test_drift_walk_equals_drift_step_loop(seed, visible, sigma, d_max):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = drift_walk(np.array(visible), sigma, d_max, rng)
    assert np.array_equal(got, _drift_loop(visible, sigma, d_max, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_drift_walk_hits_the_clip_and_resets():
    visible = np.array([False] * 30 + [True] + [False] * 5)
    got = drift_walk(visible, 0.2, 0.1, np.random.default_rng(0))
    assert np.array_equal(got, _drift_loop(visible, 0.2, 0.1, np.random.default_rng(0)))
    assert np.any(np.abs(got[:30]) == 0.1)
    assert np.array_equal(got[30], np.zeros(3))


def test_drift_walk_all_visible_draws_nothing():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    assert np.array_equal(drift_walk(np.ones(12, dtype=bool), 0.01, 0.1, rng), np.zeros((12, 3)))
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# Stacked proprioception.


def test_proprio_rejects_one_non_unit_gravity_row():
    gravity = _unit_rows(np.random.default_rng(6), 10)
    ProprioState(gravity, np.zeros((10, 3)), np.zeros((10, 3)), np.zeros(4))
    gravity[7] *= 1.01
    with pytest.raises(ValueError, match="unit vector"):
        ProprioState(gravity, np.zeros((10, 3)), np.zeros((10, 3)), np.zeros(4))


def test_proprio_rejects_wrong_width():
    with pytest.raises(ValueError):
        ProprioState(np.array([0.0, 0.0, -1.0]), np.zeros(2), np.zeros(3), np.zeros(4))
