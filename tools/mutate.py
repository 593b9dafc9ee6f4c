"""Mutation check: every recorded mutant of src/egotrack must fail tier-1.

    python3 tools/mutate.py              # run every mutant in MUTANTS
    python3 tools/mutate.py NAME [NAME]  # run only the named mutants

Each mutant is one exact source substitution.  For each, ``src/``,
``tests/`` and ``pyproject.toml`` are copied into a temporary directory, the
substitution is applied to the copy, and the tier-1 suite runs there with
``-x`` against the copied package.  The mutant is killed when the suite
fails.  The suite runs under the ``mutate`` hypothesis profile of
``tests/conftest.py``, which draws a fixed example stream and, like the
suite's default profile, skips shrinking.  So every run of this script
kills the same mutants.  Before any mutant runs, every substitution must
match its file exactly once, and the unmutated copy must pass; otherwise
the script stops with exit 2, since a stale substitution or a failing
suite would count as a kill.  Exit 0 when every mutant is killed, 1 when
any survives.

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
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A mutant that makes the suite hang counts as killed after this long.
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/egotrack
    old: str
    new: str


MUTANTS = (
    # Filter bank and estimator.
    Mutant("c-on-every-lane", "estimator.py",
           "c[..., 0:3] = np.where(ego[:, 0], translation, 0.0)",
           "c[..., 0:3] = translation"),
    Mutant("gate-mask-from-lane-0", "estimator.py",
           "reset = _mahalanobis2(mean, cov, assoc, r) > self.reacquire_gate**2",
           "reset = np.tile((_mahalanobis2(mean, cov, assoc, r) > self.reacquire_gate**2)"
           "[:N_POINTS], len(self.ego))"),
    Mutant("row-vector-mean-product", "estimator.py",
           "return (g @ mean[..., None])[..., 0] + c\n",
           "return (mean[..., None, :, :] @ g.swapaxes(-1, -2))[..., 0, :, :] + c\n"),
    Mutant("state-reads-oldest-record", "estimator.py",
           "return self.record_state(-1)",
           "return self.record_state(0)"),
    Mutant("replay-stops-carrying-seen", "estimator.py",
           "                    seen = max(seen, meas_stamp)\n",
           ""),
    Mutant("replay-seen-starts-unseen", "estimator.py",
           "mean, cov, seen = prev.mean, prev.cov, prev.seen",
           "mean, cov, seen = prev.mean, prev.cov, -np.inf"),
    Mutant("rollback-gap-read-after-seen", "estimator.py",
           "        rec.mean, rec.cov = self._apply_measurement(rec.mean, rec.cov, z, rec.stamp - rec.seen)\n"
           "        rec.seen = max(rec.seen, meas_stamp)\n",
           "        rec.seen = max(rec.seen, meas_stamp)\n"
           "        rec.mean, rec.cov = self._apply_measurement(rec.mean, rec.cov, z, rec.stamp - rec.seen)\n"),
    # Lazy covariances: each must still equal a full replay of every record.
    Mutant("mean-only-replay-through-a-set", "estimator.py",
           "if j <= self._cov_known:",
           "if j < self._cov_known:"),
    Mutant("step-evicts-last-known-covariance", "estimator.py",
           "            self._cov_through(1)\n",
           ""),
    Mutant("cov-through-keeps-index", "estimator.py",
           "        self._cov_known = max(self._cov_known, i)\n",
           ""),
    Mutant("state-without-covariance", "estimator.py",
           "return self.record_state(-1)",
           "return None if self.mean is None else (self.mean, self.history[-1].cov)"),
    # ... and a run must stay lazy: the same states from eager replays cost
    # a predict per replayed record.
    Mutant("replay-predicts-every-record-in-full", "estimator.py",
           "if j <= self._cov_known:",
           "if True:"),
    Mutant("seen-from-record-stamp", "estimator.py",
           "rec.seen = max(rec.seen, meas_stamp)",
           "rec.seen = max(rec.seen, rec.stamp)"),
    Mutant("future-check-without-stamp-eps", "estimator.py",
           "if meas_stamp > self.stamp + STAMP_EPS:",
           "if meas_stamp > self.stamp:"),
    # Geometry.
    Mutant("rotate-as-row-vectors", "geometry.py",
           "return (rotations @ vectors[..., None])[..., 0]",
           'return np.einsum("...j,...ij->...i", vectors, rotations)'),
    # The moments both the sensor and the scoring truth take (criterion 1).
    Mutant("segment-covariance-over-count-plus-one", "geometry.py",
           "cov = np.add.reduceat(centered[:, None] * centered[None], starts, axis=2) / counts",
           "cov = np.add.reduceat(centered[:, None] * centered[None], starts, axis=2) / (counts + 1)"),
    # The sign fix both the sensor and the scoring truth run.
    Mutant("pca-sign-fix-reads-rows", "geometry.py",
           "lead = np.argmax(np.abs(evecs), axis=-2)",
           "lead = np.argmax(np.abs(evecs), axis=-1)"),
    Mutant("sigma-pair-order-swapped", "geometry.py",
           "np.stack([centroid + offsets, centroid - offsets], axis=-2)",
           "np.stack([centroid - offsets, centroid + offsets], axis=-2)"),
    # Simulator.
    Mutant("vo-angle-from-wrong-column", "sim.py",
           "angles = 0.0 + rot_std * draws[:, 3]",
           "angles = 0.0 + rot_std * draws[:, 2]"),
    Mutant("cap-ignores-training-delay", "sim.py",
           'max_delay = self.randomization.perception_delay_ms[1] * 1e-3 if self.mode == "training" else 0.0',
           "max_delay = 0.0"),
    Mutant("delivery-without-stamp-eps", "sim.py",
           "times + STAMP_EPS, side=",
           "times, side="),
    Mutant("stack-check-removed-from-run-bank", "sim.py",
           "    check_rotations(rotations)\n    # Every step",
           "    # Every step"),
    Mutant("step-from-neighbouring-increment", "sim.py",
           "rotations[1:, None], translations[1:, None]",
           "rotations[:-1, None], translations[:-1, None]"),
    Mutant("sum-of-squares-centroid-distance", "sim.py",
           "dist = norms(centroid)",
           "dist = np.sqrt(np.sum(centroid**2, axis=-1))"),
    Mutant("jitter-drawn-for-unseen-frame", "sim.py",
           "rng.standard_normal((len(counts), 3))",
           "rng.standard_normal((len(seen), 3))[seen]"),
    Mutant("moments-count-hidden-points", "sim.py",
           "            points = np.compress(mask.ravel(), points.reshape(-1, 3), axis=0)\n"
           "            pixels = np.compress(mask.ravel(), pixels.reshape(-1, 2), axis=0)\n",
           "            counts = np.full(len(counts), mask.shape[1])\n"
           "            points = np.compress(np.repeat(seen, mask.shape[1]), points.reshape(-1, 3), axis=0)\n"
           "            pixels = np.compress(np.repeat(seen, mask.shape[1]), pixels.reshape(-1, 2), axis=0)\n"),
    # The scoring truth: the first frame with a visible point, over its visible points.
    Mutant("truth-from-chunk-first-frame", "sim.py",
           "i = int(np.argmax(counts > 0))",
           "i = 0"),
    Mutant("truth-moments-count-hidden-points", "sim.py",
           "segment_pca(points[i][mask[i]], counts[i:i + 1])",
           "segment_pca(points[i], np.array([len(cloud)]))"),
    Mutant("last-partial-chunk-dropped", "sim.py",
           "for first in range(0, len(ticks), chunk):",
           "for first in range(0, len(ticks) - len(ticks) % chunk, chunk):"),
    Mutant("latency-without-perception-delay", "sim.py",
           "latency=cfg.obs_latency + (draw.perception_delay if draw is not None else 0.0),",
           "latency=cfg.obs_latency,"),
    Mutant("history-depth-from-obs-latency", "sim.py",
           "cfg.history_depth(bundle.latency)",
           "cfg.history_depth(cfg.obs_latency)"),
    Mutant("default-randomization-overrides-given", "sim.py",
           'if self.mode == "training" and self.randomization is None:',
           'if self.mode == "training":'),
    Mutant("rotation-noise-reads-scale-level", "sim.py",
           "            cfg.randomization.sigma_rot_noise_std,",
           "            cfg.randomization.sigma_scale_noise_std,"),
    # Perturbation.
    Mutant("drift-never-reset", "perturbation.py",
           "d = zero if vis else",
           "d = d if vis else"),
    Mutant("drift-unclipped", "perturbation.py",
           "tuple(min(d_max, max(-d_max, x + s)) for",
           "tuple(x + s for"),
    Mutant("shape-angle-from-scale-column", "perturbation.py",
           "0.0 + rot_std * z[:, -1]",
           "0.0 + rot_std * z[:, 0]"),
    Mutant("shape-rotation-untransposed", "perturbation.py",
           "offsets = offsets @ np.swapaxes(r, 1, 2)",
           "offsets = offsets @ r"),
    # Task logic.
    Mutant("numpy-square-for-roll", "tasklogic.py",
           "return hint, opt, g_y**2, w_x**2 + w_y**2",
           "return hint, opt, g_y * g_y, w_x**2 + w_y**2"),
    Mutant("numpy-exp-kernel", "tasklogic.py",
           "return math.exp(-sq / sigma)",
           "return float(np.exp(-sq / sigma))"),
    Mutant("success-band-widened-on-pitch", "tasklogic.py",
           "eps = (crit.eps_x, crit.eps_y, crit.eps_yaw, crit.eps_pitch)",
           "eps = (crit.eps_x, crit.eps_y, crit.eps_yaw, crit.eps_pitch + 0.05)"),
    Mutant("segment-clamp-dropped", "tasklogic.py",
           "s = np.clip(dots(p - a, seg) / seg_sq, 0.0, 1.0)",
           "s = dots(p - a, seg) / seg_sq"),
    Mutant("long-stride-off-by-one", "tasklogic.py",
           "if tick % LONG_STRIDE == 0:",
           "if tick % (LONG_STRIDE + 1) == 0:"),
    Mutant("frame-size-one-point-short", "tasklogic.py",
           "FRAME_SIZE = N_POINTS * 3",
           "FRAME_SIZE = (N_POINTS - 1) * 3"),
    Mutant("smooth-from-raw-action", "tasklogic.py",
           "np.sum((clipped - proprio.prev_action) ** 2, axis=-1),",
           "np.sum((_rows(action, 4) - proprio.prev_action) ** 2, axis=-1),"),
    Mutant("limit-taken-after-clip", "tasklogic.py",
           "clipped, clip_sq = clip_action(action, rcfg)",
           "clipped, clip_sq = clip_action(clip_action(action, rcfg)[0], rcfg)"),
    Mutant("pitch-clipped-with-planar-limit", "tasklogic.py",
           "box = np.array([rcfg.clip_planar] * 3 + [rcfg.clip_pitch])",
           "box = np.array([rcfg.clip_planar] * 4)"),
    # Self checks.
    Mutant("selftest-temp-dir-kept", "selftest.py",
           '        with tempfile.TemporaryDirectory(prefix="egotrack-selftest-") as tmp:\n'
           "            return check_determinism(tmp)\n",
           '        return check_determinism(tempfile.mkdtemp(prefix="egotrack-selftest-"))\n'),
    # Config validation.
    Mutant("field-check-accepts-nan", "errors.py",
           "if not np.all(holds(value, 0)):",
           "if np.any(np.less_equal(value, 0) if bound == \"positive\" else np.less(value, 0)):"),
    Mutant("positive-allows-zero", "errors.py",
           '(positive, np.greater, "positive")',
           '(positive, np.greater_equal, "positive")'),
    Mutant("build-drops-section-path", "config.py",
           'raise ConfigError(f"{path}.{exc}") from exc',
           'raise ConfigError(f"{exc}") from exc'),
    # CLI.
    Mutant("out-dir-not-checked", "cli.py",
           "        if args.out is not None:\n            _check_out_dir(args.out)\n",
           ""),
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


def _run_suite(copy: str) -> tuple[bool, str]:
    """Run tier-1 in ``copy``; returns (passed, the first failing test or
    else pytest's summary line)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutate"]
    try:
        proc = subprocess.run(cmd, cwd=copy, env=_env(copy), capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    detail = failed[0] if failed else lines[-1] if lines else proc.stderr.strip()[-200:]
    return proc.returncode == 0, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    known = {m.name for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        print(f"mutate: unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]

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
                passed, tail = _run_suite(copy)
            finally:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(original)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{verdict:8s} {m.name} ({time.perf_counter() - t0:.1f} s): {tail}", flush=True)
            if passed:
                survived.append(m.name)
    print(f"{len(chosen) - len(survived)}/{len(chosen)} mutants killed")
    if survived:
        print(f"survived: {', '.join(survived)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
