"""Mutation check: every recorded mutant of src/egotrack must be killed.

    python3 tools/mutate.py              # run every mutant of both lists
    python3 tools/mutate.py NAME [NAME]  # run only the named mutants

Each mutant is one exact source substitution.  ``src/``, ``tests/`` and
``pyproject.toml`` are copied into a temporary directory, and each
substitution is applied to the copy, run, and undone.

A mutant in ``MUTANTS`` names the tier-1 node id that kills it today.  That
node runs alone first, under the ``mutate`` hypothesis profile of
``tests/conftest.py``, which draws a fixed example stream and, like the
suite's default profile, skips shrinking, so every run kills the same
mutants.  If the node passes, the script warns "stale killer" and runs the
whole suite with ``-x``.  The mutant is killed when a tier-1 test fails.

A mutant in ``CRITERION_MUTANTS`` names a selftest criterion instead.  It is
killed only when ``egotrack selftest --only-criterion i`` exits 1 and prints
criterion i's FAIL line, so each criterion shows that it catches a fault on
its own.

Before any mutant runs, every substitution must match its file exactly once,
every killer node must be a test of the suite, and the unmutated copy must
pass the suite, which runs every criterion too; otherwise the script stops
with exit 2, since a stale substitution, a missing test or a failing check
would count as a kill.  Exit 0 when every mutant is killed, 1 when any
survives.

A survivor is a gap in the tests: add a test that kills it, never drop the
mutant.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A mutant that makes the suite hang counts as killed after this long; one
# that makes its criterion hang survives, since no FAIL line is printed.
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/egotrack
    old: str
    new: str
    # The tier-1 node id that kills it today or, in CRITERION_MUTANTS, the
    # selftest criterion that must kill it on its own.
    killer: str | int


MUTANTS = (
    # Filter bank and estimator.
    Mutant("c-on-every-lane", "estimator.py",
           "c[..., 0:3] = np.where(ego[:, 0], translation, 0.0)",
           "c[..., 0:3] = translation",
           "tests/test_estimator.py::TestConfigAndPrimitives::test_lane_without_ego_skips_the_increment"),
    Mutant("gate-mask-from-lane-0", "estimator.py",
           "reset = _mahalanobis2(mean, cov, assoc, r) > self.reacquire_gate**2",
           "reset = np.tile((_mahalanobis2(mean, cov, assoc, r) > self.reacquire_gate**2)"
           "[:N_POINTS], len(self.ego))",
           "tests/test_bank_properties.py::test_each_lane_equals_a_one_lane_bank"),
    Mutant("row-vector-mean-product", "estimator.py",
           "return (g @ mean[..., None])[..., 0] + c\n",
           "return (mean[..., None, :, :] @ g.swapaxes(-1, -2))[..., 0, :, :] + c\n",
           "tests/test_golden.py::test_outputs_match_golden_digests[cylinder-turning-cloud]"),
    Mutant("state-reads-oldest-record", "estimator.py",
           "return self._mean, self._carry(self._states[-1], self._tick)[1]",
           "return self._mean, self._carry(self._states[0], self._tick)[1]",
           "tests/test_acceptance.py::test_criterion[criterion-03]"),
    Mutant("replay-stops-carrying-seen", "estimator.py",
           "return _SetState(tick, stamp, mean, cov, max(seen, set_stamp), (set_stamp, z))",
           "return _SetState(tick, stamp, mean, cov, seen, (set_stamp, z))",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    Mutant("replay-seen-starts-unseen", "estimator.py",
           "(*self._carry(base, tick), base.seen)",
           "(*self._carry(base, tick), -np.inf)",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    Mutant("rollback-gap-read-after-seen", "estimator.py",
           "self._apply_measurement(mean, cov, z, stamp - seen)",
           "self._apply_measurement(mean, cov, z, stamp - max(seen, set_stamp))",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    Mutant("seen-from-record-stamp", "estimator.py",
           "max(seen, set_stamp), (set_stamp, z))",
           "max(seen, stamp), (set_stamp, z))",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    # The closed-form step between sets: its noise, its composed pose, the
    # sets after a rollback, and the state the ring still needs.
    Mutant("span-noise-drops-cross-term", "estimator.py",
           "(ages @ ages * _POS_POS + ages.sum() * _POS_VEL)",
           "(ages @ ages * _POS_POS)",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    Mutant("span-noise-squares-the-span", "estimator.py",
           "(ages @ ages * _POS_POS",
           "(len(ages) * (stamps[-1] - state.stamp) ** 2 * _POS_POS",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    Mutant("span-product-order-reversed", "estimator.py",
           "pose = pose[1::2] @ pose[0:len(pose) - 1:2]",
           "pose = pose[0:len(pose) - 1:2] @ pose[1::2]",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    Mutant("later-sets-not-reapplied", "estimator.py",
           "for j in range(i + 1, len(states)):",
           "for j in range(i + 1, i + 1):",
           "tests/test_bank_properties.py::test_delayed_delivery_replays_to_zero_latency_posterior"),
    Mutant("state-not-carried-on-eviction", "estimator.py",
           "            states[0] = _SetState(dropped, stamp, *self._carry(first, dropped), first.seen, None)\n",
           "",
           "tests/test_bank_properties.py::test_bank_equals_sequential_reference"),
    Mutant("future-check-without-stamp-eps", "estimator.py",
           "if meas_stamp > self._stamp + STAMP_EPS:",
           "if meas_stamp > self._stamp:",
           "tests/test_estimator.py::TestFilterBank::test_stamp_within_the_delivery_tolerance_is_not_future"),
    # Geometry.
    Mutant("rotate-as-row-vectors", "geometry.py",
           "return (rotations @ vectors[..., None])[..., 0]",
           'return np.einsum("...j,...ij->...i", vectors, rotations)',
           "tests/test_golden.py::test_outputs_match_golden_digests[cylinder-turning-cloud]"),
    # The moments both the sensor and the scoring truth take (criterion 1).
    Mutant("segment-covariance-over-count-plus-one", "geometry.py",
           "cov = np.add.reduceat(centered[:, None] * centered[None], starts, axis=2) / counts",
           "cov = np.add.reduceat(centered[:, None] * centered[None], starts, axis=2) / (counts + 1)",
           "tests/test_acceptance.py::test_criterion[criterion-01]"),
    # The sign fix both the sensor and the scoring truth run.
    Mutant("pca-sign-fix-reads-rows", "geometry.py",
           "lead = np.argmax(np.abs(evecs), axis=-2)",
           "lead = np.argmax(np.abs(evecs), axis=-1)",
           "tests/test_golden.py::test_outputs_match_golden_digests[turning-vo-box-training]"),
    Mutant("sigma-pair-order-swapped", "geometry.py",
           "np.stack([centroid + offsets, centroid - offsets], axis=-2)",
           "np.stack([centroid - offsets, centroid + offsets], axis=-2)",
           "tests/test_geometry.py::TestSigmaPoints::test_offsets_are_sqrt_eigenvalue"),
    # Simulator.
    Mutant("vo-angle-from-wrong-column", "sim.py",
           "angles = 0.0 + rot_std * draws[:, 3]",
           "angles = 0.0 + rot_std * draws[:, 2]",
           "tests/test_golden.py::test_outputs_match_golden_digests[turning-vo-box-training]"),
    Mutant("cap-ignores-training-delay", "sim.py",
           'max_delay = self.randomization.perception_delay_ms[1] * 1e-3 if self.mode == "training" else 0.0',
           "max_delay = 0.0",
           "tests/test_sim.py::TestScenarioConfig::test_replay_work_cap"),
    Mutant("delivery-without-stamp-eps", "sim.py",
           "times + STAMP_EPS, side=",
           "times, side=",
           "tests/test_golden.py::test_outputs_match_golden_digests[cylinder-turning-cloud]"),
    Mutant("stack-check-removed-from-run-bank", "sim.py",
           "    check_rotations(rotations)\n    # Every step",
           "    # Every step",
           "tests/test_sim.py::TestRunEpisode::test_bank_rejects_a_non_rotation_increment"),
    Mutant("step-from-neighbouring-increment", "sim.py",
           "rotations[1:, None], translations[1:, None]",
           "rotations[:-1, None], translations[:-1, None]",
           "tests/test_acceptance.py::test_criterion[criterion-04]"),
    Mutant("sum-of-squares-centroid-distance", "sim.py",
           "dist = norms(centroid)",
           "dist = np.sqrt(np.sum(centroid**2, axis=-1))",
           "tests/test_golden.py::test_outputs_match_golden_digests[truth-late-in-place]"),
    # The one cloud pass, which the sensor and the scoring truth both run.
    Mutant("jitter-drawn-for-unseen-frame", "sim.py",
           "points = _jitter(cam, *noise, points, pixels, counts)",
           "points = _jitter(cam, *noise, points, pixels, mask.sum(axis=1))",
           "tests/test_golden.py::test_outputs_match_golden_digests[turning-cloud-reacquire]"),
    Mutant("moments-count-hidden-points", "sim.py",
           "flat, counts = mask.ravel(), counts[seen]",
           "flat, counts = np.repeat(seen, mask.shape[1]), np.full(seen.sum(), mask.shape[1])",
           "tests/test_golden.py::test_outputs_match_golden_digests[cylinder-turning-cloud]"),
    Mutant("chunk-over-point-budget", "sim.py",
           "chunk = max(1, SENSOR_CHUNK_POINTS // len(cloud))",
           "chunk = max(1, -(-SENSOR_CHUNK_POINTS // len(cloud)))",
           "tests/test_sim.py::TestSensor::test_chunks_hold_at_most_the_point_budget"),
    Mutant("last-partial-chunk-dropped", "sim.py",
           "for first in range(0, len(ticks), chunk):",
           "for first in range(0, len(ticks) - len(ticks) % chunk, chunk):",
           "tests/test_sim.py::TestSensor::test_schedule_covers_episode"),
    # The scoring truth: the first frame with a visible point.
    Mutant("truth-from-chunk-first-frame", "sim.py",
           "k = int(ticks[np.argmax(seen)])",
           "k = int(ticks[0])",
           "tests/test_sim.py::TestScenario::test_truth_from_first_visible_tick_after_the_first_chunk"),
    Mutant("latency-without-perception-delay", "sim.py",
           "latency=cfg.obs_latency + (draw.perception_delay if draw is not None else 0.0),",
           "latency=cfg.obs_latency,",
           "tests/test_cli.py::TestRunCommand::test_numeric_overflow_exits_1[huge-perception-delay]"),
    Mutant("history-depth-from-obs-latency", "sim.py",
           "bundle.config.history_depth(bundle.latency)",
           "bundle.config.history_depth(bundle.config.obs_latency)",
           "tests/test_sim.py::TestSensor::test_training_latency_is_the_bundles"),
    Mutant("in-place-baseline-compensates", "sim.py",
           "_run_bank(bundle, measurements, cfg, ego_lanes=(False,))",
           "_run_bank(bundle, measurements, cfg, ego_lanes=(True,))",
           "tests/test_golden.py::test_outputs_match_golden_digests[truth-late-in-place]"),
    Mutant("default-randomization-overrides-given", "sim.py",
           'if self.mode == "training" and self.randomization is None:',
           'if self.mode == "training":',
           "tests/test_cli.py::TestRunCommand::test_numeric_overflow_exits_1[huge-perception-delay]"),
    Mutant("rotation-noise-reads-scale-level", "sim.py",
           "            cfg.randomization.sigma_rot_noise_std,",
           "            cfg.randomization.sigma_scale_noise_std,",
           "tests/test_golden.py::test_outputs_match_golden_digests[walk-training-success-band]"),
    # Perturbation.
    Mutant("drift-never-reset", "perturbation.py",
           "d = zero if vis else",
           "d = d if vis else",
           "tests/test_batched_terms.py::test_drift_walk_equals_drift_step_loop"),
    Mutant("drift-unclipped", "perturbation.py",
           "tuple(min(d_max, max(-d_max, x + s)) for",
           "tuple(x + s for",
           "tests/test_batched_terms.py::test_drift_walk_equals_drift_step_loop"),
    Mutant("shape-angle-from-scale-column", "perturbation.py",
           "0.0 + rot_std * z[:, -1]",
           "0.0 + rot_std * z[:, 0]",
           "tests/test_batched_terms.py::test_stacked_perturbation_equals_sequential_per_set_draws"),
    Mutant("shape-rotation-untransposed", "perturbation.py",
           "offsets = offsets @ np.swapaxes(r, 1, 2)",
           "offsets = offsets @ r",
           "tests/test_batched_terms.py::test_stacked_perturbation_equals_sequential_per_set_draws"),
    # Task logic.
    Mutant("hint-kernel-unsquared", "tasklogic.py",
           "sq = np.broadcast_arrays(np.square(d_path),",
           "sq = np.broadcast_arrays(d_path,",
           "tests/test_batched_terms.py::test_long_reward_stack_equals_per_pose_reference"),
    Mutant("convergence-bonus-ungated", "tasklogic.py",
           "np.where(success, k_pos * k_rot * k_v, 0.0)",
           "k_pos * k_rot * k_v",
           "tests/test_batched_terms.py::test_long_reward_stack_equals_per_pose_reference"),
    Mutant("kernel-overflow-unguarded", "tasklogic.py",
           'with np.errstate(over="ignore"):',
           "with np.errstate():",
           "tests/test_cli.py::TestRunCommand::test_tiny_sigma_track_gives_zero_kernels"),
    Mutant("success-band-widened-on-pitch", "tasklogic.py",
           "eps = (crit.eps_x, crit.eps_y, crit.eps_yaw, crit.eps_pitch)",
           "eps = (crit.eps_x, crit.eps_y, crit.eps_yaw, crit.eps_pitch + 0.05)",
           "tests/test_batched_terms.py::test_stacked_reward_equals_per_pose_reference"),
    Mutant("segment-clamp-dropped", "tasklogic.py",
           "s = np.clip(dots(p - a, seg) / seg_sq, 0.0, 1.0)",
           "s = dots(p - a, seg) / seg_sq",
           "tests/test_acceptance.py::test_criterion[criterion-10]"),
    Mutant("long-stride-off-by-one", "tasklogic.py",
           "if tick % LONG_STRIDE == 0:",
           "if tick % (LONG_STRIDE + 1) == 0:",
           "tests/test_tasklogic.py::TestObservation::test_long_ring_strides"),
    Mutant("frame-size-one-point-short", "tasklogic.py",
           "FRAME_SIZE = N_POINTS * 3",
           "FRAME_SIZE = (N_POINTS - 1) * 3",
           "tests/test_tasklogic.py::TestObservation::test_layout_constants"),
    Mutant("smooth-from-raw-action", "tasklogic.py",
           "np.sum((clipped - proprio.prev_action) ** 2, axis=-1),",
           "np.sum((_rows(action, 4) - proprio.prev_action) ** 2, axis=-1),",
           "tests/test_acceptance.py::test_criterion[criterion-10]"),
    Mutant("limit-taken-after-clip", "tasklogic.py",
           "clipped, clip_sq = clip_action(action, rcfg)",
           "clipped, clip_sq = clip_action(clip_action(action, rcfg)[0], rcfg)",
           "tests/test_acceptance.py::test_criterion[criterion-10]"),
    Mutant("pitch-clipped-with-planar-limit", "tasklogic.py",
           "box = np.array([rcfg.clip_planar] * 3 + [rcfg.clip_pitch])",
           "box = np.array([rcfg.clip_planar] * 4)",
           "tests/test_acceptance.py::test_criterion[criterion-10]"),
    # Self checks.
    Mutant("selftest-temp-dir-kept", "selftest.py",
           '        with tempfile.TemporaryDirectory(prefix="egotrack-selftest-") as tmp:\n'
           "            return check_determinism(tmp)\n",
           '        return check_determinism(tempfile.mkdtemp(prefix="egotrack-selftest-"))\n',
           "tests/test_acceptance.py::test_determinism_without_out_dir_leaves_no_files"),
    # Config validation.
    Mutant("field-check-accepts-nan", "errors.py",
           "if not np.all(holds(value, 0)):",
           "if np.any(np.less_equal(value, 0) if bound == \"positive\" else np.less(value, 0)):",
           "tests/test_cli.py::test_config_types_reject_nan_naming_the_field[CameraModel-fx]"),
    Mutant("positive-allows-zero", "errors.py",
           '(positive, np.greater, "positive")',
           '(positive, np.greater_equal, "positive")',
           "tests/test_cli.py::TestRunCommand::test_bad_leaf_exits_2_naming_the_key[zero-box-dim]"),
    Mutant("build-drops-section-path", "config.py",
           'raise ConfigError(f"{path}.{exc}") from exc',
           'raise ConfigError(f"{exc}") from exc',
           "tests/test_cli.py::TestRunCommand::test_bad_leaf_exits_2_naming_the_key[unknown-shape]"),
    Mutant("negative-zero-float-kept", "config.py",
           "return kind(value + 0.0)",
           "return kind(value)",
           "tests/test_cli.py::TestRunCommand::test_negative_zero_noise_is_zero[drift-sigma]"),
    # CLI.
    Mutant("out-dir-not-checked", "cli.py",
           "        if args.out is not None:\n            _check_out_dir(args.out)\n",
           "",
           "tests/test_cli.py::test_unusable_out_exits_2_with_one_line[run-file]"),
    Mutant("csv-rows-end-in-lf", "cli.py",
           'len(table.columns)) + "\\r\\n"',
           'len(table.columns)) + "\\n"',
           "tests/test_cli.py::TestRunCommand::test_chunked_csv_equals_one_pass"),
    Mutant("sweep-exits-0-on-failed-seeds", "cli.py",
           "return 1 if failures else 0",
           "return 0",
           "tests/test_cli.py::TestSweepCommand::test_failing_seeds_reported"),
)


def _also_for(criterion: int, name: str) -> Mutant:
    """The mutant ``name`` of MUTANTS, which ``criterion`` must also kill."""
    (m,) = (m for m in MUTANTS if m.name == name)
    return replace(m, killer=criterion)


# At least one mutant per selftest criterion, each killed by that criterion
# alone.
CRITERION_MUTANTS = (
    _also_for(1, "segment-covariance-over-count-plus-one"),
    Mutant("back-face-test-inverted", "geometry.py",
           'normals.reshape(-1, 3), flat) < 0.0',
           'normals.reshape(-1, 3), flat) > 0.0', 2),
    # Each boundary is strict: a face seen edge on, and a pixel at u = width.
    Mutant("back-face-test-admits-edge-on", "geometry.py",
           'normals.reshape(-1, 3), flat) < 0.0',
           'normals.reshape(-1, 3), flat) <= 0.0', 2),
    Mutant("image-bound-admits-width", "geometry.py",
           "& (u < cam.width)",
           "& (u <= cam.width)", 2),
    Mutant("velocity-noise-from-q-pos", "estimator.py",
           "return np.diag([cfg.q_pos] * 3 + [cfg.q_vel] * 3)",
           "return np.diag([cfg.q_pos] * 3 + [cfg.q_pos] * 3)", 3),
    # A moving target's open-loop means rotate the velocity into the position.
    Mutant("position-from-unrotated-velocity", "estimator.py",
           "g[..., 0:3, 3:6] = dt * r",
           "g[..., 0:3, 3:6] = dt * _EYE3", 4),
    Mutant("c-takes-negated-translation", "estimator.py",
           "c[..., 0:3] = np.where(ego[:, 0], translation, 0.0)",
           "c[..., 0:3] = np.where(ego[:, 0], -translation, 0.0)", 4),
    # The newest mean moved past a delayed set without the span's translation.
    Mutant("mean-only-replay-drops-c", "estimator.py",
           "self._mean = predict_mean(state.mean, g, c)",
           "self._mean = predict_mean(state.mean, g, 0.0 * c)", 5),
    Mutant("replay-lanes-without-compensation", "sim.py",
           "ego_lanes=(ego, False))",
           "ego_lanes=(False, False))", 6),
    Mutant("depth-jitter-from-pixel-std", "sim.py",
           "scale = np.array([spec.pixel_std_u, spec.pixel_std_v, spec.depth_std])",
           "scale = np.array([spec.pixel_std_u, spec.pixel_std_v, spec.pixel_std_u])", 7),
    Mutant("asc-decay-sign-flipped", "tasklogic.py",
           "decay = math.exp(-cfg.lambda_asc * rho)",
           "decay = math.exp(cfg.lambda_asc * rho)", 8),
    Mutant("drift-step-unclipped", "perturbation.py",
           "d = np.clip(state.d + step, -state.d_max, state.d_max)",
           "d = state.d + step", 9),
    _also_for(10, "pitch-clipped-with-planar-limit"),
    _also_for(10, "success-band-widened-on-pitch"),
    # An error of exactly delta fails.
    Mutant("failure-band-excludes-delta", "tasklogic.py",
           "np.any(_band_errors(position, angles, geom) >= delta)",
           "np.any(_band_errors(position, angles, geom) > delta)", 10),
    Mutant("json-output-stamped-with-clock", "cli.py",
           "json.dump(payload, fh,",
           'json.dump({**payload, "written_at": __import__("time").perf_counter()}, fh,', 11),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "tests"), os.path.join(dest, "tests"), ignore=ignore)
    shutil.copy2(os.path.join(ROOT, "pyproject.toml"), dest)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _env(copy: str) -> dict:
    """Import the copy's package, and write no bytecode that a same-size
    mutant written within the same second could reuse."""
    return {**os.environ, "PYTHONPATH": os.path.join(copy, "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _run(copy: str, cmd: list[str]) -> subprocess.CompletedProcess | None:
    """Run ``cmd`` in ``copy``, or None when it takes longer than TIMEOUT_S."""
    try:
        return subprocess.run(cmd, cwd=copy, env=_env(copy), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def _pytest(*args: str) -> list[str]:
    return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "--hypothesis-profile=mutate", *args]


def _run_suite(copy: str, *nodes: str) -> tuple[bool, str]:
    """Run tier-1, or only ``nodes`` of it, in ``copy`` with ``-x``; returns
    (passed, the first failing test or else pytest's summary line)."""
    proc = _run(copy, _pytest("-x", *nodes))
    if proc is None:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    detail = failed[0] if failed else lines[-1] if lines else proc.stderr.strip()[-200:]
    return proc.returncode == 0, detail


def _run_criterion(copy: str, index: int) -> tuple[bool, str]:
    """Run selftest criterion ``index`` in ``copy``; returns (killed: exit 1
    with its FAIL line, that line or else the first line of the output)."""
    proc = _run(copy, [sys.executable, "-m", "egotrack.cli", "selftest", "--only-criterion", str(index)])
    if proc is None:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(f"FAIL criterion {index:2d}:")]
    detail = failed[0] if failed else lines[0] if lines else proc.stderr.strip()[-200:]
    return proc.returncode == 1 and bool(failed), detail


def _kill(copy: str, m: Mutant) -> tuple[bool, str]:
    """Run mutant ``m``, already applied to ``copy``; returns (killed, detail)."""
    if isinstance(m.killer, int):
        return _run_criterion(copy, m.killer)
    passed, tail = _run_suite(copy, m.killer)
    if passed:
        print(f"stale killer: {m.killer} passes under {m.name}; running the whole suite", flush=True)
        passed, tail = _run_suite(copy)
    return not passed, tail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    mutants = MUTANTS + CRITERION_MUTANTS
    known = {m.name for m in mutants}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        print(f"mutate: unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in mutants if not args.names or m.name in args.names]

    # Every substitution must still match the source, exactly once.
    stale = []
    for m in chosen:
        count = _read(os.path.join(ROOT, "src", "egotrack", m.path)).count(m.old)
        if count != 1:
            stale.append(f"{m.name}: old text occurs {count} times in {m.path}")
    if stale:
        print("mutate: stale substitutions (re-anchor them to the source):", file=sys.stderr)
        for line in stale:
            print(f"  {line}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="egotrack-mutate-") as work:
        copy = os.path.join(work, "tree")
        _copy_tree(copy)
        probe = subprocess.run(
            [sys.executable, "-c", "import egotrack; print(egotrack.__file__)"],
            cwd=copy, env=_env(copy), capture_output=True, text=True,
        )
        if not probe.stdout.strip().startswith(copy):
            print(f"mutate: the copy imports egotrack from {probe.stdout.strip() or probe.stderr}",
                  file=sys.stderr)
            return 2
        # Every killer node must be a test of the suite, or pytest's own
        # error would count as a kill.
        collected = _run(copy, _pytest("--collect-only"))
        tests = set(collected.stdout.splitlines()) if collected else set()
        missing = sorted({m.killer for m in chosen if isinstance(m.killer, str)} - tests)
        if missing:
            print(f"mutate: killer node(s) not in the suite: {', '.join(missing)}", file=sys.stderr)
            return 2
        passed, tail = _run_suite(copy)
        if not passed:
            print(f"mutate: the unmutated suite fails ({tail})", file=sys.stderr)
            return 2
        print(f"baseline: {tail}", flush=True)

        survived = []
        for m in chosen:
            target = os.path.join(copy, "src", "egotrack", m.path)
            original = _read(target)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(original.replace(m.old, m.new))
            t0 = time.perf_counter()
            try:
                killed, tail = _kill(copy, m)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(original)
            verdict = "killed" if killed else "SURVIVED"
            by = f"criterion {m.killer}" if isinstance(m.killer, int) else "tier-1"
            print(f"{verdict:8s} {m.name} by {by} ({time.perf_counter() - t0:.1f} s): {tail}", flush=True)
            if not killed:
                survived.append(m.name)
    print(f"{len(chosen) - len(survived)}/{len(chosen)} mutants killed")
    if survived:
        print(f"survived: {', '.join(survived)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
