"""Property-based invariants of the stacked filter bank and its pair association.

Random ego-motion steps, measurements, latencies and delivery orders; each
property must hold for every draw, not only for hand-picked cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egotrack.estimator import (
    FilterBank,
    FilterConfig,
    associate_measurement,
    associate_points,
    compensate_ego_motion,
    predict,
)
from egotrack.geometry import CameraModel, RigidTransform, SigmaPointSet, rotation_rpy

CFG = FilterConfig()
CAM = CameraModel()
BASE = np.array([
    [0.0, 0.0, 2.5],
    [0.3, 0.0, 2.5], [-0.3, 0.0, 2.5],
    [0.0, 0.2, 2.5], [0.0, -0.2, 2.5],
    [0.0, 0.0, 2.65], [0.0, 0.0, 2.35],
])


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# (dt, roll/pitch/yaw, translation).  dt stays well above the stamp tolerance
# so every history record has its own stamp.
STEP = st.tuples(
    _floats(1e-3, 0.05),
    st.tuples(*[_floats(-0.05, 0.05)] * 3),
    st.tuples(*[_floats(-0.05, 0.05)] * 3),
)
NOISE = arrays(float, (7, 3), elements=_floats(-0.3, 0.3))
SETTINGS = settings(max_examples=25, deadline=None)


def _step(bank, step):
    dt, rpy, t = step
    bank.step(dt, RigidTransform(rotation_rpy(*rpy), np.array(t)))


def _states_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@SETTINGS
@given(
    ops=st.lists(st.one_of(STEP, NOISE), min_size=1, max_size=40),
    window=st.sampled_from([0.02, 5.0]),
)
def test_covariance_stays_symmetric_psd(ops, window):
    # The short reacquire window lets large innovations reset rows mid-run.
    bank = FilterBank(CFG, CAM, history_depth=50, reacquire_window=window, reacquire_gate=2.0)
    bank.ingest(SigmaPointSet(BASE), 0.0)
    for op in ops:
        if isinstance(op, tuple):
            _step(bank, op)
        else:
            bank.ingest(SigmaPointSet(bank.estimate().points + op), bank.stamp)
        cov = bank.state[1][0]
        scale = np.abs(cov).max(axis=(1, 2))
        asym = np.abs(cov - cov.swapaxes(1, 2)).max(axis=(1, 2))
        assert np.all(asym <= 1e-12 * scale)
        eig = np.linalg.eigvalsh(0.5 * (cov + cov.swapaxes(1, 2)))
        assert np.all(eig[:, 0] >= -1e-12 * scale)


@SETTINGS
@given(data=st.data())
def test_delayed_delivery_replays_to_zero_latency_posterior(data):
    steps = data.draw(st.lists(STEP, min_size=2, max_size=25), label="steps")
    n = len(steps)
    ticks = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=8, unique=True), label="ticks")
    noise = [data.draw(NOISE) for _ in ticks]
    arrival = [min(k + data.draw(st.integers(0, 12)), n) for k in ticks]

    # Zero latency: each measurement is ingested at the tick it was taken.
    oracle = FilterBank(CFG, CAM, history_depth=n + 2)
    stamps = []
    for k in range(n + 1):
        if k > 0:
            _step(oracle, steps[k - 1])
        stamps.append(oracle.stamp)
        for m, tick in enumerate(ticks):
            if tick == k:
                oracle.ingest(SigmaPointSet(BASE + noise[m]), oracle.stamp)

    # Delayed: the same measurements arrive late, in a drawn order within each tick.
    bank = FilterBank(CFG, CAM, history_depth=n + 2)
    for k in range(n + 1):
        if k > 0:
            _step(bank, steps[k - 1])
        due = [m for m in range(len(ticks)) if arrival[m] == k]
        for m in data.draw(st.permutations(due)):
            bank.ingest(SigmaPointSet(BASE + noise[m]), stamps[ticks[m]])

    assert len(bank.history) == len(oracle.history) == n + 1
    for got, want in zip(bank.history, oracle.history):
        assert _states_equal(got.state, want.state)
    assert _states_equal(bank.state, oracle.state)


@SETTINGS
@given(steps=st.lists(STEP, min_size=2, max_size=20), noise=NOISE, data=st.data())
def test_rollback_leaves_older_records_unchanged(steps, noise, data):
    bank = FilterBank(CFG, CAM, history_depth=len(steps) + 1)
    bank.ingest(SigmaPointSet(BASE), 0.0)
    for step in steps:
        _step(bank, step)
    before = [(rec.state[0].copy(), rec.state[1].copy()) for rec in bank.history]
    i = data.draw(st.integers(1, len(bank.history) - 1), label="rollback index")
    bank.ingest(SigmaPointSet(BASE + noise), bank.history[i].stamp)
    for j, rec in enumerate(bank.history):
        assert _states_equal(rec.state, before[j]) == (j < i)


def _ref_step(x, p, dt, rel):
    """One point's fused predict and ego remap, written out per point as the reference.

    G = F A, the ego map blockdiag(R, R) times the transition A(dt); F Q F^T = Q.
    """
    a = np.eye(6)
    a[0:3, 3:6] = dt * np.eye(3)
    f = np.zeros((6, 6))
    f[0:3, 0:3] = rel.rotation
    f[3:6, 3:6] = rel.rotation
    g = f @ a
    c = np.concatenate([rel.translation, np.zeros(3)])
    return (g @ x[:, None])[:, 0] + c, g @ p @ g.T + np.diag([CFG.q_pos] * 3 + [CFG.q_vel] * 3)


def _ref_update(x, p, z):
    """One point's depth-scaled Joseph-form update, written out per point."""
    depth = max(x[2], CAM.near_z)
    sx = depth / CAM.fx * CFG.sigma_u
    sy = depth / CAM.fy * CFG.sigma_v
    r_t = np.diag([sx * sx, sy * sy, CFG.sigma_z * CFG.sigma_z])
    k = p[:, 0:3] @ np.linalg.inv(p[0:3, 0:3] + r_t)
    x = x + k @ (z - x[0:3])
    i_kh = np.eye(6)
    i_kh[:, 0:3] -= k
    p = i_kh @ p @ i_kh.T + k @ r_t @ k.T
    return x, 0.5 * (p + p.T)


@SETTINGS
@given(ops=st.lists(st.one_of(STEP, NOISE), min_size=1, max_size=30))
def test_bank_equals_seven_per_point_filters(ops):
    """The batched bank is bit-identical to seven per-point filters run in a loop."""
    bank = FilterBank(CFG, CAM, history_depth=50)
    bank.ingest(SigmaPointSet(BASE), 0.0)
    ref = [(np.concatenate([z, np.zeros(3)]), np.diag([CFG.p0_pos] * 3 + [CFG.p0_vel] * 3))
           for z in BASE]
    for op in ops:
        if isinstance(op, tuple):
            _step(bank, op)
            dt, rpy, t = op
            rel = RigidTransform(rotation_rpy(*rpy), np.array(t))
            ref = [_ref_step(x, p, dt, rel) for x, p in ref]
        else:
            z = bank.estimate().points + op
            bank.ingest(SigmaPointSet(z), bank.stamp)
            predicted = SigmaPointSet(np.stack([x[0:3] for x, _ in ref]))
            assoc = associate_measurement(predicted, SigmaPointSet(z)).points
            ref = [_ref_update(x, p, assoc[j]) for j, (x, p) in enumerate(ref)]
        mean, cov = bank.state[0][0], bank.state[1][0]
        assert np.array_equal(mean, np.stack([x for x, _ in ref]))
        assert np.array_equal(cov, np.stack([p for _, p in ref]))


# A delayed ingest: noise on the current estimate, stamped this many records back.
DELAYED = st.tuples(NOISE, st.integers(0, 12))


@SETTINGS
@given(ops=st.lists(st.one_of(STEP, DELAYED), min_size=1, max_size=40))
def test_each_lane_equals_a_one_lane_bank(ops):
    """Lane l of a (True, False) bank is bit for bit the one-lane bank with that flag."""
    # The short window and tight gate make large innovations reset rows.
    def bank(lanes):
        return FilterBank(CFG, CAM, history_depth=16, reacquire_window=0.02,
                          reacquire_gate=2.0, ego_lanes=lanes)

    both, alone = bank((True, False)), [bank((True,)), bank((False,))]
    for b in (both, *alone):
        b.ingest(SigmaPointSet(BASE), 0.0)
    for op in ops:
        for b in (both, *alone):
            if len(op) == 3:
                _step(b, op)
            else:
                noise, back = op
                rec = b.history[max(len(b.history) - 1 - back, 0)]
                b.ingest(SigmaPointSet(BASE + noise), rec.stamp)
        for lane, one in enumerate(alone):
            assert len(both.history) == len(one.history)
            for got, want in zip(both.history, one.history):
                assert got.stamp == want.stamp
                assert np.array_equal(got.state[0][lane], want.state[0][0])
                assert np.array_equal(got.state[1][lane], want.state[1][0])
                if want.g is not None:
                    assert np.array_equal(got.g[lane], want.g[0])
                    assert np.array_equal(got.c[lane], want.c[0])
                assert all(np.array_equal(a, b) for a, b in zip(got.measurements, want.measurements))
    assert np.array_equal(both.estimate().points, alone[0].estimate().points)


@SETTINGS
@given(ops=st.lists(st.one_of(STEP, NOISE), min_size=1, max_size=30))
def test_fused_step_matches_predict_then_compensate(ops):
    """One fused bank step agrees with the predict and ego-remap wrappers to 1e-12."""
    bank = FilterBank(CFG, CAM, history_depth=50)
    bank.ingest(SigmaPointSet(BASE), 0.0)
    for op in ops:
        if isinstance(op, tuple):
            dt, rpy, t = op
            rel = RigidTransform(rotation_rpy(*rpy), np.array(t))
            want = [compensate_ego_motion(predict(track, dt, CFG), rel) for track in bank.tracks]
            bank.step(dt, rel)
            for got, ref in zip(bank.tracks, want):
                assert np.abs(got.position - ref.position).max() <= 1e-12
                assert np.abs(got.velocity - ref.velocity).max() <= 1e-12
                assert np.abs(got.covariance - ref.covariance).max() <= 1e-12
        else:
            bank.ingest(SigmaPointSet(bank.estimate().points + op), bank.stamp)


def _ref_associate(predicted, measured):
    """One set's pair association as a loop over the three axis pairs, the reference."""
    out = measured.copy()
    for k in range(3):
        i, j = 1 + 2 * k, 2 + 2 * k
        keep = np.sum((measured[i] - predicted[i]) ** 2) + np.sum((measured[j] - predicted[j]) ** 2)
        swap = np.sum((measured[i] - predicted[j]) ** 2) + np.sum((measured[j] - predicted[i]) ** 2)
        if swap < keep:
            out[[i, j]] = out[[j, i]]
    return out


# Coarse grid values make exact keep/swap ties common; NaN entries stand for
# partly missing sets.
ELEMENT = st.one_of(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), _floats(-3.0, 3.0), st.just(np.nan))


@SETTINGS
@given(data=st.data())
def test_associate_points_equals_pair_loop(data):
    n = data.draw(st.integers(1, 12), label="sets")
    predicted = data.draw(arrays(float, (n, 7, 3), elements=ELEMENT), label="predicted")
    measured = data.draw(arrays(float, (n, 7, 3), elements=ELEMENT), label="measured")
    # A predicted pair with both ends equal ties keep and swap exactly.
    tied = data.draw(arrays(bool, (n, 3)), label="tied pairs")
    for k in range(3):
        predicted[tied[:, k], 2 + 2 * k] = predicted[tied[:, k], 1 + 2 * k]
    # Whole NaN rows, as the scorer stacks them before an estimator has a set.
    measured[data.draw(arrays(bool, n), label="blank rows")] = np.nan
    before = measured.copy()

    got = associate_points(predicted, measured)
    want = np.stack([_ref_associate(p, m) for p, m in zip(predicted, measured)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array_equal(measured.view(np.int64), before.view(np.int64))
    one = associate_measurement(SigmaPointSet(predicted[0]), SigmaPointSet(measured[0])).points
    assert np.array_equal(one.view(np.int64), want[0].view(np.int64))


@SETTINGS
@given(
    predicted=arrays(float, (5, 7, 3), elements=_floats(-3.0, 3.0)),
    measured=arrays(float, (2, 5, 7, 3), elements=_floats(-3.0, 3.0)),
)
def test_association_only_reorders_measured_pairs(predicted, measured):
    # predicted broadcasts over the leading axis, as one truth against several estimators
    got = associate_points(predicted, measured)
    assert got.shape == measured.shape
    assert np.array_equal(got[..., 0, :], measured[..., 0, :])
    for k in range(3):
        i, j = 1 + 2 * k, 2 + 2 * k
        same = np.all(got[..., [i, j], :] == measured[..., [i, j], :], axis=(-2, -1))
        swapped = np.all(got[..., [i, j], :] == measured[..., [j, i], :], axis=(-2, -1))
        assert np.all(same | swapped)
    for e in range(2):
        assert np.array_equal(got[e], associate_points(predicted, measured[e]))
