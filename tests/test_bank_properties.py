"""Property-based invariants of the stacked filter bank and its pair association.

Random ego-motion steps, measurements, latencies and delivery orders; each
property must hold for every draw, not only for hand-picked cases.
"""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egotrack import estimator
from egotrack.config import build_configs, canonical_config
from egotrack.estimator import (
    OOSM_MODES,
    STAMP_EPS,
    FilterBank,
    FilterConfig,
    IngestStatus,
    _StepRecord,
    associate_measurement,
    compensate_ego_motion,
    predict,
)
from egotrack.geometry import CameraModel, RigidTransform, SigmaPointSet, rotation_rpy
from egotrack.sim import generate_scenario, run_episode
from sequential_bank import SequentialBank
from test_golden import _LATE

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


# The closed-form replay rounds differently from stepping one record at a
# time, so banks that replay differently agree to this, relative to the
# state's size.
TOL = 1e-12


def _close(a, b):
    return np.allclose(a, b, rtol=TOL, atol=TOL)


def _states_close(a, b):
    if a is None or b is None:
        return a is None and b is None
    return _close(a[0], b[0]) and _close(a[1], b[1])


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
@given(data=st.data(), window=st.sampled_from([0.02, 5.0]))
def test_delayed_delivery_replays_to_zero_latency_posterior(data, window):
    # The short reacquire window lets the gate reset rows, so replay must
    # also take every reset decision in stamp order.
    steps = data.draw(st.lists(STEP, min_size=2, max_size=25), label="steps")
    n = len(steps)
    ticks = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=8, unique=True), label="ticks")
    noise = [data.draw(NOISE) for _ in ticks]
    arrival = [min(k + data.draw(st.integers(0, 12)), n) for k in ticks]

    def make():
        return FilterBank(CFG, CAM, history_depth=n + 2, reacquire_window=window, reacquire_gate=2.0)

    # Zero latency: each measurement is ingested at the tick it was taken.
    oracle = make()
    stamps = []
    for k in range(n + 1):
        if k > 0:
            _step(oracle, steps[k - 1])
        stamps.append(oracle.stamp)
        for m, tick in enumerate(ticks):
            if tick == k:
                oracle.ingest(SigmaPointSet(BASE + noise[m]), oracle.stamp)

    # Delayed: the same measurements arrive late, in a drawn order within each tick.
    bank = make()
    for k in range(n + 1):
        if k > 0:
            _step(bank, steps[k - 1])
        due = [m for m in range(len(ticks)) if arrival[m] == k]
        for m in data.draw(st.permutations(due)):
            bank.ingest(SigmaPointSet(BASE + noise[m]), stamps[ticks[m]])

    assert len(bank.history) == len(oracle.history) == n + 1
    for i, (got, want) in enumerate(zip(bank.history, oracle.history)):
        assert _states_close(bank.record_state(i), oracle.record_state(i))
        assert got.seen == want.seen
    assert _states_close(bank.state, oracle.state)


@SETTINGS
@given(steps=st.lists(STEP, min_size=2, max_size=20), noise=NOISE, data=st.data())
def test_rollback_leaves_older_records_unchanged(steps, noise, data):
    bank = FilterBank(CFG, CAM, history_depth=len(steps) + 1)
    bank.ingest(SigmaPointSet(BASE), 0.0)
    for step in steps:
        _step(bank, step)
    before = [tuple(a.copy() for a in bank.record_state(j)) for j in range(len(bank.history))]
    i = data.draw(st.integers(1, len(bank.history) - 1), label="rollback index")
    bank.ingest(SigmaPointSet(BASE + noise), bank.history[i].stamp)
    for j in range(len(bank.history)):
        assert _states_equal(bank.record_state(j), before[j]) == (j < i)


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


class _EagerBank:
    """The reference for the lazy bank: every step and every rollback predicts
    each later record in full and re-applies its sets, one record at a time.

    Its updates run through the ``_apply_measurement`` of a fresh bank built
    with the same arguments, which reads the bank's configuration and none of
    its history.
    """

    def __init__(self, **kwargs):
        self.kernels = FilterBank(CFG, CAM, **kwargs)
        self.history = deque([_StepRecord(0.0)], maxlen=self.kernels.history.maxlen)

    def step(self, step):
        dt, rpy, t = step
        g, c = compensate_ego_motion(dt, rotation_rpy(*rpy), np.array(t), self.kernels.ego)
        self.history.append(_StepRecord(self.history[-1].stamp + dt, g[:, None], c[:, None]))
        self._replay(len(self.history) - 1)

    def ingest(self, z, stamp):
        if self.kernels.oosm_mode == "in_place":
            idx = len(self.history) - 1
        else:
            idx = max((i for i, r in enumerate(self.history) if r.stamp <= stamp + STAMP_EPS), default=None)
            if idx is None:
                return IngestStatus.STALE
        rec = self.history[idx]
        rec.mean, rec.cov = self.kernels._apply_measurement(rec.mean, rec.cov, z, rec.stamp - rec.seen)
        rec.seen = max(rec.seen, stamp)
        rec.measurements.append((stamp, z))
        self._replay(idx + 1)
        return IngestStatus.APPLIED

    def _replay(self, start):
        prev = self.history[start - 1]
        mean, cov, seen = prev.mean, prev.cov, prev.seen
        for rec in list(self.history)[start:]:
            if mean is not None:
                mean, cov = predict(mean, cov, rec.g, rec.c, self.kernels._q)
            for stamp, z in rec.measurements:
                mean, cov = self.kernels._apply_measurement(mean, cov, z, rec.stamp - seen)
                seen = max(seen, stamp)
            rec.mean, rec.cov, rec.seen = mean, cov, seen

    def state(self, i):
        rec = self.history[i]
        return None if rec.mean is None else (rec.mean, rec.cov)


# Ops of the laziness property: a step; an ingest stamped this many records
# back (past the oldest record, a stale one); a read of the newest state (-1)
# or of a record's state.  Steps and ingests are drawn twice as often as reads,
# so covariances often stay unknown over several records.
_STEP_OP = st.tuples(st.just("step"), STEP)
_INGEST_OP = st.tuples(st.just("ingest"), NOISE, st.integers(0, 8))
LAZY_OPS = st.one_of(_STEP_OP, _STEP_OP, _INGEST_OP, _INGEST_OP, st.tuples(st.just("read"), st.integers(-1, 8)))


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(LAZY_OPS, min_size=10, max_size=60),
    depth=st.integers(2, 10),
    window=st.sampled_from([0.02, 0.1, 5.0]),
    mode=st.sampled_from(OOSM_MODES),
    lanes=st.sampled_from([(True,), (True, False)]),
)
def test_lazy_covariance_equals_eager_replay(ops, depth, window, mode, lanes):
    """Every record of the lazy bank is the eager reference's, to TOL.

    A short history evicts the last record whose covariance is known, several
    ingests between two steps arrive out of stamp order, a short reacquire
    window makes blind spells longer than it, and a read at any moment must
    return the reference's state and change no later one.
    """
    kwargs = dict(history_depth=depth, oosm_mode=mode, reacquire_window=window,
                  reacquire_gate=2.0, ego_lanes=lanes)
    bank, eager = FilterBank(CFG, CAM, **kwargs), _EagerBank(**kwargs)
    for op in ops:
        if op[0] == "step":
            _step(bank, op[1])
            eager.step(op[1])
        elif op[0] == "ingest":
            _, noise, back = op
            n = len(bank.history)
            stamp = bank.history[n - 1 - back].stamp if back < n else bank.history[0].stamp - 1.0
            z = (BASE if bank.mean is None else bank.mean[0, :, 0:3]) + noise
            assert bank.ingest(SigmaPointSet(z), stamp) is eager.ingest(z, stamp)
        else:
            i = op[1] if op[1] < len(bank.history) else 0
            got = bank.state if i == -1 else bank.record_state(i)
            assert _states_close(got, eager.state(i))
        # Means are always current; comparing them computes no covariance.
        assert len(bank.history) == len(eager.history)
        for got, want in zip(bank.history, eager.history):
            assert got.stamp == want.stamp and got.seen == want.seen
            assert (got.mean is None) == (want.mean is None)
            assert want.mean is None or _close(got.mean, want.mean)
    for i in range(len(bank.history)):
        assert _states_close(bank.record_state(i), eager.state(i))


# Blocks of the transport property: 1 to 6 steps that all turn the camera,
# so every composed pose differs from the identity, then an ingest or a read
# of a record's state.  An ingest is stamped the run's latency, give or take
# a few records, back: like a late sensor, most rollbacks land past the
# previous one's anchor, on records whose poses are already composed.
TURNING_STEP = st.tuples(
    _floats(1e-3, 0.05),
    st.tuples(*[_floats(0.005, 0.05)] * 3),
    st.tuples(*[_floats(-0.05, 0.05)] * 3),
)
_LATE_OP = st.tuples(st.just("ingest"), NOISE, st.integers(-3, 3))
TRANSPORT_BLOCK = st.tuples(
    st.integers(1, 6), TURNING_STEP, st.one_of(_LATE_OP, _LATE_OP, st.tuples(st.just("read"), st.integers(-1, 8)))
)


@settings(max_examples=100, deadline=None)
@given(
    blocks=st.lists(TRANSPORT_BLOCK, min_size=4, max_size=20),
    latency=st.integers(3, 14),
    depth=st.integers(4, 12),
    window=st.sampled_from([0.02, 0.1, 5.0]),
    mode=st.sampled_from(OOSM_MODES),
    lanes=st.sampled_from([(True,), (True, False), (False, True)]),
)
def test_transported_bank_equals_sequential_reference(blocks, latency, depth, window, mode, lanes):
    """The closed-form replay matches ``SequentialBank``'s record-by-record
    replay to TOL at every record after every operation.

    Runs of up to 120 steps against a history of 4 to 12 records evict
    records and restart the pose chain many times; rollbacks land before,
    on and after earlier anchors, a latency past the history makes sets
    stale, jitter delivers them out of order, a short reacquire window
    resets rows, and in_place mode never rolls back.
    """
    kwargs = dict(history_depth=depth, oosm_mode=mode, reacquire_window=window,
                  reacquire_gate=2.0, ego_lanes=lanes)
    bank, ref = FilterBank(CFG, CAM, **kwargs), SequentialBank(CFG, CAM, **kwargs)
    for b in (bank, ref):
        b.ingest(SigmaPointSet(BASE), 0.0)
    for steps, step, op in blocks:
        for _ in range(steps):
            _step(bank, step)
            _step(ref, step)
        if op[0] == "ingest":
            _, noise, jitter = op
            n, back = len(bank.history), max(latency + jitter, 0)
            stamp = bank.history[n - 1 - back].stamp if back < n else bank.history[0].stamp - 1.0
            z = SigmaPointSet(ref.mean[0, :, 0:3] + noise)
            assert bank.ingest(z, stamp) is ref.ingest(z, stamp)
        else:
            i = op[1] if op[1] < len(bank.history) else 0
            assert _states_close(bank.record_state(i), ref.record_state(i))
        assert len(bank.history) == len(ref.history)
        for got, want in zip(bank.history, ref.history):
            assert got.stamp == want.stamp and got.seen == want.seen
            assert _close(got.mean, want.mean)
    for i in range(len(bank.history)):
        assert _states_close(bank.record_state(i), ref.record_state(i))


def test_late_replay_predicts_covariances_lazily(monkeypatch):
    """A run reads no covariance, so each ingest predicts in full only the
    records from its rollback through the newest set: 50 ``predict`` calls
    over the 26 ingests of the late-delivery golden, where predicting every
    replayed record in full makes 830."""
    calls = {"predict": 0, "ingest": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(estimator, "predict", counted("predict", estimator.predict))
    monkeypatch.setattr(FilterBank, "ingest", counted("ingest", FilterBank.ingest))
    user = {"scenario": {**_LATE["scenario"], "seed": 1}}
    scenario, filter_cfg, criteria, reward_cfg, geom = build_configs(canonical_config(user))
    run_episode(generate_scenario(scenario), filter_cfg, geom=geom, criteria=criteria, reward_cfg=reward_cfg)
    assert calls["ingest"] == 26
    assert calls["predict"] <= 2 * calls["ingest"]


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
            for i, (got, want) in enumerate(zip(both.history, one.history)):
                got_state, want_state = both.record_state(i), one.record_state(i)
                assert got.stamp == want.stamp
                assert np.array_equal(got_state[0][lane], want_state[0][0])
                assert np.array_equal(got_state[1][lane], want_state[1][0])
                if want.g is not None:
                    assert np.array_equal(got.g[lane], want.g[0])
                    assert np.array_equal(got.c[lane], want.c[0])
                assert got.seen == want.seen
                assert len(got.measurements) == len(want.measurements)
                for (got_stamp, got_z), (want_stamp, want_z) in zip(got.measurements, want.measurements):
                    assert got_stamp == want_stamp
                    assert np.array_equal(got_z, want_z)
    assert np.array_equal(both.estimate().points, alone[0].estimate().points)


def _unfused_step(x, p, dt, rel):
    """One point's predict, then its ego remap, as two separate steps."""
    a = np.eye(6)
    a[0:3, 3:6] = dt * np.eye(3)
    x = np.concatenate([x[0:3] + dt * x[3:6], x[3:6]])
    p = a @ p @ a.T + np.diag([CFG.q_pos] * 3 + [CFG.q_vel] * 3)
    f = np.zeros((6, 6))
    f[0:3, 0:3] = rel.rotation
    f[3:6, 3:6] = rel.rotation
    x = np.concatenate([rel.rotation @ x[0:3] + rel.translation, rel.rotation @ x[3:6]])
    return x, f @ p @ f.T


@SETTINGS
@given(ops=st.lists(st.one_of(STEP, NOISE), min_size=1, max_size=30))
def test_fused_step_matches_predict_then_compensate(ops):
    """One fused bank step agrees with a separate predict and ego remap to 1e-12."""
    bank = FilterBank(CFG, CAM, history_depth=50)
    bank.ingest(SigmaPointSet(BASE), 0.0)
    for op in ops:
        if isinstance(op, tuple):
            dt, rpy, t = op
            rel = RigidTransform(rotation_rpy(*rpy), np.array(t))
            want = [_unfused_step(x, p, dt, rel) for x, p in zip(bank.state[0][0], bank.state[1][0])]
            bank.step(dt, rel)
            for got_x, got_p, (x, p) in zip(bank.state[0][0], bank.state[1][0], want):
                assert np.abs(got_x - x).max() <= 1e-12
                assert np.abs(got_p - p).max() <= 1e-12
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
def test_associate_measurement_equals_pair_loop(data):
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

    got = associate_measurement(predicted, measured)
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
    got = associate_measurement(predicted, measured)
    assert got.shape == measured.shape
    assert np.array_equal(got[..., 0, :], measured[..., 0, :])
    for k in range(3):
        i, j = 1 + 2 * k, 2 + 2 * k
        same = np.all(got[..., [i, j], :] == measured[..., [i, j], :], axis=(-2, -1))
        swapped = np.all(got[..., [i, j], :] == measured[..., [j, i], :], axis=(-2, -1))
        assert np.all(same | swapped)
    for e in range(2):
        assert np.array_equal(got[e], associate_measurement(predicted, measured[e]))
