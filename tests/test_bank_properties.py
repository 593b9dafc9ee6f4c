"""Property-based invariants of the stacked filter bank and its pair association.

Random ego-motion steps, measurements, latencies and delivery orders; each
property must hold for every draw, not only for hand-picked cases.
"""

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
    associate_measurement,
)
from egotrack.geometry import CameraModel, RigidTransform, SigmaPointSet, rotation_rpy
from egotrack.sim import generate_scenario, run_episode
from sequential_bank import ReferenceBank
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
# so every tick has its own stamp.
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


def _stamps(steps):
    """The stamp of every tick of a bank started at 0 and stepped by ``steps``,
    accumulated as the bank accumulates them."""
    stamps = [0.0]
    for dt, _, _ in steps:
        stamps.append(stamps[-1] + dt)
    return stamps


def _states_equal(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


# The bank's closed-form steps between sets round differently from stepping
# one tick at a time, so banks that carry states differently agree to this,
# relative to the state's size.
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
    stamps = _stamps(steps)
    for k in range(n + 1):
        if k > 0:
            _step(oracle, steps[k - 1])
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

    for stamp in stamps:
        assert _states_close(bank.posterior_at(stamp), oracle.posterior_at(stamp))
    assert _states_close(bank.state, oracle.state)


@SETTINGS
@given(steps=st.lists(STEP, min_size=2, max_size=20), noise=NOISE, data=st.data())
def test_rollback_leaves_older_records_unchanged(steps, noise, data):
    """A set stamped at tick i changes the posterior at every tick from i on,
    and leaves every earlier one bit for bit as it was."""
    bank = FilterBank(CFG, CAM, history_depth=len(steps) + 1)
    bank.ingest(SigmaPointSet(BASE), 0.0)
    for step in steps:
        _step(bank, step)
    stamps = _stamps(steps)
    before = [tuple(a.copy() for a in bank.posterior_at(s)) for s in stamps]
    newest = tuple(a.copy() for a in bank.state)
    i = data.draw(st.integers(1, len(steps)), label="rollback tick")
    bank.ingest(SigmaPointSet(BASE + noise), stamps[i])
    for j, stamp in enumerate(stamps):
        assert _states_equal(bank.posterior_at(stamp), before[j]) == (j < i)
    assert not _states_equal(bank.state, newest)


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
    """The batched bank equals seven per-point filters run in a loop, to TOL:
    the bank reaches a tick n steps after a set in one closed-form step."""
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
        assert _close(mean, np.stack([x for x, _ in ref]))
        assert _close(cov, np.stack([p for _, p in ref]))


# A delayed ingest: noise on BASE, stamped this many ticks back.
DELAYED = st.tuples(NOISE, st.integers(0, 12))

# Operations of the contract property: a block of 1 to 6 equal steps, drawn
# from any rotation or from turning ones, so that every composed pose differs
# from the identity; or an ingest stamped the run's latency, give or take a
# few ticks, back, and a stale one when that lies before the first tick.
# Steps are drawn twice as often as ingests, so several ticks often lie
# between two sets.
TURNING_STEP = st.tuples(
    _floats(1e-3, 0.05),
    st.tuples(*[_floats(0.005, 0.05)] * 3),
    st.tuples(*[_floats(-0.05, 0.05)] * 3),
)
_STEPS_OP = st.tuples(st.just("steps"), st.integers(1, 6), st.one_of(STEP, TURNING_STEP))
_INGEST_OP = st.tuples(st.just("ingest"), NOISE, st.integers(-3, 8))
CONTRACT_OPS = st.one_of(_STEPS_OP, _STEPS_OP, _INGEST_OP)


def _means_close(a, b):
    return a is None and b is None or a is not None and b is not None and _close(a, b)


def _check_contract(ops, init, latency, depth, window, mode, lanes):
    """After every operation the bank reads as ``ReferenceBank``, which
    carries every tick's full state, to TOL: the newest mean, the newest
    state, the posterior at the stamp of every set applied within the
    history, and each ingest's status."""
    kwargs = dict(history_depth=depth, oosm_mode=mode, reacquire_window=window,
                  reacquire_gate=2.0, ego_lanes=lanes)
    bank, ref = FilterBank(CFG, CAM, **kwargs), ReferenceBank(CFG, CAM, **kwargs)
    # The stamp of every tick, and the ticks of the sets applied at their stamps.
    stamps, applied = [0.0], set()
    if init:
        for b in (bank, ref):
            b.ingest(SigmaPointSet(BASE), 0.0)
        applied.add(0)
    for op in ops:
        if op[0] == "steps":
            _, count, step = op
            for _ in range(count):
                _step(bank, step)
                _step(ref, step)
                stamps.append(stamps[-1] + step[0])
        else:
            _, noise, jitter = op
            k = len(stamps) - 1 - max(latency + jitter, 0)
            stamp = stamps[k] if k >= 0 else stamps[0] - 1.0
            z = SigmaPointSet((BASE if ref.mean is None else ref.mean[0, :, 0:3]) + noise)
            status = bank.ingest(z, stamp)
            assert status is ref.ingest(z, stamp)
            if status is IngestStatus.APPLIED and k >= 0:
                applied.add(k)
        assert _means_close(bank.mean, ref.mean)
        assert _states_close(bank.state, ref.state)
        for k in applied:
            if k > len(stamps) - 1 - depth:
                assert _states_close(bank.posterior_at(stamps[k]), ref.posterior_at(stamps[k]))
    for stamp in stamps[-depth:]:
        assert _states_close(bank.posterior_at(stamp), ref.posterior_at(stamp))


@settings(deadline=None)
@given(
    ops=st.lists(CONTRACT_OPS, min_size=4, max_size=40),
    init=st.booleans(),
    latency=st.integers(0, 14),
    depth=st.integers(2, 12),
    window=st.sampled_from([0.02, 0.1, 5.0]),
    mode=st.sampled_from(OOSM_MODES),
    lanes=st.sampled_from([(True,), (True, False), (False, True)]),
)
def test_bank_equals_sequential_reference(ops, init, latency, depth, window, mode, lanes):
    """The contract over the widest draw.

    Runs of up to 240 steps against a history of 2 to 12 ticks evict the
    ticks a state was reached from; a latency past the history makes sets
    stale; jitter delivers sets out of stamp order and lands rollbacks
    before, on and after earlier sets; a short reacquire window resets rows
    after blind spells longer than it; a bank may take its first set late;
    in_place mode never rolls back; and a lane without ego compensation may
    come first or second.
    """
    _check_contract(ops, init, latency, depth, window, mode, lanes)


# Ops of the one-tick draw: a single step, or an ingest stamped up to 8 ticks
# back (past the oldest tick, a stale one).  Ingests are drawn as often as
# steps, so several sets often land between two steps, out of stamp order.
_ONE_STEP_OP = STEP.map(lambda step: ("steps", 1, step))
_BACK_OP = st.tuples(st.just("ingest"), NOISE, st.integers(0, 8))
ONE_TICK_OPS = st.one_of(_ONE_STEP_OP, _BACK_OP)


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(ONE_TICK_OPS, min_size=10, max_size=60),
    depth=st.integers(2, 10),
    window=st.sampled_from([0.02, 0.1, 5.0]),
    mode=st.sampled_from(OOSM_MODES),
    lanes=st.sampled_from([(True,), (True, False)]),
)
def test_lazy_covariance_equals_eager_replay(ops, depth, window, mode, lanes):
    """The contract when sets arrive between single steps, into a bank that
    starts without filters: a covariance is carried only to reach a set, and
    must equal the reference's, which predicts every tick in full.

    A short history evicts the state a set would be carried from, and a short
    reacquire window makes blind spells longer than it.
    """
    _check_contract(ops, False, 0, depth, window, mode, lanes)


def _blocks_to_ops(blocks):
    ops = []
    for count, step, ingest in blocks:
        ops.append(("steps", count, step))
        if ingest is not None:
            ops.append(ingest)
    return ops


# Blocks of the late-sensor draw: 1 to 6 equal turning steps, then, two times
# in three, an ingest stamped the run's latency, give or take 3 ticks, back.
_LATE_OP = st.tuples(st.just("ingest"), NOISE, st.integers(-3, 3))
LATE_BLOCKS = st.lists(
    st.tuples(st.integers(1, 6), TURNING_STEP, st.one_of(_LATE_OP, _LATE_OP, st.none())),
    min_size=4, max_size=20,
).map(_blocks_to_ops)


@settings(max_examples=100, deadline=None)
@given(
    ops=LATE_BLOCKS,
    latency=st.integers(3, 14),
    depth=st.integers(4, 12),
    window=st.sampled_from([0.02, 0.1, 5.0]),
    mode=st.sampled_from(OOSM_MODES),
    lanes=st.sampled_from([(True,), (True, False), (False, True)]),
)
def test_transported_bank_equals_sequential_reference(ops, latency, depth, window, mode, lanes):
    """The contract under a late sensor, on a bank started on time: most
    rollbacks land past the previous set, so every later set is applied again
    after a closed-form step over turning poses that all differ from the
    identity.  A latency past the history makes sets stale.
    """
    _check_contract(ops, True, latency, depth, window, mode, lanes)


def test_late_replay_predicts_covariances_lazily(monkeypatch):
    """A run reads no covariance, so a covariance is predicted only to reach
    a set: one closed-form ``predict`` for each of the 26 ingests of the
    late-delivery golden but the first, which starts the filters.  Its sets
    arrive in stamp order, one every two ticks, so no state is carried on
    its own.  Predicting every replayed tick in full makes 830."""
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
    assert calls["predict"] == calls["ingest"] - 1


@SETTINGS
@given(ops=st.lists(st.one_of(STEP, DELAYED), min_size=1, max_size=40))
def test_each_lane_equals_a_one_lane_bank(ops):
    """Lane l of a (True, False) bank is bit for bit the one-lane bank with
    that flag: its newest mean and state, and its posterior at every tick of
    the history."""
    # The short window and tight gate make large innovations reset rows.
    depth = 16

    def bank(lanes):
        return FilterBank(CFG, CAM, history_depth=depth, reacquire_window=0.02,
                          reacquire_gate=2.0, ego_lanes=lanes)

    both, alone = bank((True, False)), [bank((True,)), bank((False,))]
    for b in (both, *alone):
        b.ingest(SigmaPointSet(BASE), 0.0)
    stamps = [0.0]
    for op in ops:
        if len(op) == 3:
            for b in (both, *alone):
                _step(b, op)
            stamps.append(stamps[-1] + op[0])
        else:
            noise, back = op
            stamp = stamps[max(len(stamps) - 1 - back, 0)]
            statuses = {b.ingest(SigmaPointSet(BASE + noise), stamp) for b in (both, *alone)}
            assert statuses == {IngestStatus.APPLIED}
        for lane, one in enumerate(alone):
            assert np.array_equal(both.mean[lane], one.mean[0])
            reads = [(both.state, one.state)]
            reads += [(both.posterior_at(s), one.posterior_at(s)) for s in stamps[-depth:]]
            for (got_mean, got_cov), (want_mean, want_cov) in reads:
                assert np.array_equal(got_mean[lane], want_mean[0])
                assert np.array_equal(got_cov[lane], want_cov[0])
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
