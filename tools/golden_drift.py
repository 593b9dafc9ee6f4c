"""Golden drift: how far a change moves the golden cases' outputs from a ref.

    python3 tools/golden_drift.py REF [--bound 1e-13]

Runs every case of ``tests/test_golden.CASES`` (the working tree's list)
through ``egotrack run`` twice: once on the committed tree of REF, extracted
with ``git archive`` into a temporary directory, and once on the working
tree.  For each case it reports:

- the largest absolute difference of any ``metrics.csv`` cell, and its
  column;
- whether the NaN pattern of ``metrics.csv`` is the same;
- whether ``summary.json``'s ``scored_ticks`` is the same;
- the reacquire-gate resets: for each measured set that reaches the gate,
  the rows it resets.  Both trees must reset the same rows of the same sets.

Exit 0 when every case is within ``--bound`` with the same NaN pattern,
``scored_ticks`` and resets; 1 otherwise; 2 when REF cannot be extracted or
a case fails to run.  The reset record wraps ``FilterBank._apply_measurement``
and ``estimator._mahalanobis2`` by name, so both trees must have them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run inside each tree's interpreter: every case through the CLI, recording
# the reset rows of each gated set, keyed by the set's bytes.
_DRIVER = r"""
import hashlib, json, os, sys
from egotrack import estimator
from egotrack.cli import main

cases, out_root = json.load(open(sys.argv[1])), sys.argv[2]
resets = {}
apply = estimator.FilterBank._apply_measurement

def recorded(self, mean, cov, measured, gap):
    gated = []
    m2 = estimator._mahalanobis2

    def wrapped(*args):
        d2 = m2(*args)
        gated.append(sorted(int(i) for i in (d2 > self.reacquire_gate ** 2).nonzero()[0]))
        return d2

    estimator._mahalanobis2 = wrapped
    try:
        return apply(self, mean, cov, measured, gap)
    finally:
        estimator._mahalanobis2 = m2
        key = hashlib.sha256(measured.tobytes()).hexdigest()[:16]
        for rows in gated:
            if rows not in resets.setdefault(key, []):
                resets[key].append(rows)

estimator.FilterBank._apply_measurement = recorded
for name, (config, extra) in cases.items():
    resets.clear()
    out = os.path.join(out_root, name)
    os.makedirs(out)
    cfg_path = os.path.join(out, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    code = main(["run", "--config", cfg_path, "--out", out, "--quiet", *extra])
    if code != 0:
        sys.exit(f"case {name} exited {code}")
    with open(os.path.join(out, "resets.json"), "w", encoding="utf-8") as fh:
        json.dump({k: sorted(v) for k, v in sorted(resets.items())}, fh)
"""


def _cases() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from test_golden import CASES

    return CASES


def _extract(ref: str, dest: str) -> None:
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref, "src"], capture_output=True)
    if archive.returncode != 0:
        raise RuntimeError(archive.stderr.decode().strip() or f"git archive {ref} failed")
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def _run_tree(src: str, cases_path: str, out_root: str) -> None:
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _DRIVER, cases_path, out_root],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{src}: {proc.stderr.strip()[-500:]}")


def _read_case(out: str) -> tuple[list[str], np.ndarray, int, dict]:
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        scored = json.load(fh)["metrics"]["scored_ticks"]
    with open(os.path.join(out, "resets.json"), encoding="utf-8") as fh:
        resets = json.load(fh)
    return header, values, scored, resets


def compare(ref_out: str, new_out: str, bound: float) -> tuple[bool, str]:
    """One case's verdict and report line."""
    ref_cols, ref, ref_scored, ref_resets = _read_case(ref_out)
    new_cols, new, new_scored, new_resets = _read_case(new_out)
    if ref_cols != new_cols or ref.shape != new.shape:
        return False, f"columns or shape differ: {ref.shape} vs {new.shape}"
    same_nan = bool(np.array_equal(np.isnan(ref), np.isnan(new)))
    diff = np.abs(np.where(np.isnan(ref) | np.isnan(new), 0.0, ref - new))
    worst = float(diff.max(initial=0.0))
    col = ref_cols[int(np.argmax(diff.max(axis=0)))] if diff.size else "-"
    n_resets = sum(len(rows) for v in new_resets.values() for rows in v)
    ok = worst <= bound and same_nan and ref_scored == new_scored and ref_resets == new_resets
    line = (f"max |diff| {worst:.3e} ({col}); NaN pattern {'same' if same_nan else 'DIFFERS'}; "
            f"scored_ticks {ref_scored} -> {new_scored}; "
            f"resets {'same' if ref_resets == new_resets else 'DIFFER'} ({n_resets} rows)")
    return ok, line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref to compare the working tree with")
    parser.add_argument("--bound", type=float, default=1e-13,
                        help="largest allowed per-cell difference (default 1e-13)")
    args = parser.parse_args(argv)
    cases = _cases()
    with tempfile.TemporaryDirectory(prefix="egotrack-drift-") as work:
        cases_path = os.path.join(work, "cases.json")
        with open(cases_path, "w", encoding="utf-8") as fh:
            json.dump(cases, fh)
        ref_tree = os.path.join(work, "ref")
        os.makedirs(ref_tree)
        try:
            _extract(args.ref, ref_tree)
            for src, out in ((os.path.join(ref_tree, "src"), "ref-out"), (os.path.join(ROOT, "src"), "new-out")):
                _run_tree(src, cases_path, os.path.join(work, out))
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"golden_drift: {exc}", file=sys.stderr)
            return 2
        failed = []
        for name in sorted(cases):
            ok, line = compare(os.path.join(work, "ref-out", name), os.path.join(work, "new-out", name), args.bound)
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {line}")
            if not ok:
                failed.append(name)
    print(f"{len(cases) - len(failed)}/{len(cases)} cases within {args.bound:g} of {args.ref}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
