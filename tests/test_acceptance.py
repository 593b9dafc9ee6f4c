"""Runs every built-in acceptance criterion at its stated tolerance.

Each test prints the criterion's PASS/FAIL line (run with -s or check the
captured output on failure).  The same checks back ``egotrack selftest``.
"""

import os
import tempfile

import pytest

from egotrack.selftest import ALL_CRITERIA, check_determinism, run_all

assert len(ALL_CRITERIA) == 11
INDICES = range(1, len(ALL_CRITERIA) + 1)


@pytest.mark.parametrize("i", INDICES, ids=[f"criterion-{i:02d}" for i in INDICES])
def test_criterion(i, tmp_path):
    (res,) = run_all(out_dir=str(tmp_path), only=i, echo=False)
    print(res.line())
    assert res.passed, res.line()


def test_selftest_catches_induced_regression():
    # Negative control: with ego compensation forced off, the dominance
    # criterion must report a failure rather than pass vacuously.
    results = run_all(disable_ego_compensation=True, only=6, echo=False)
    assert len(results) == 1
    assert not results[0].passed


def test_determinism_without_out_dir_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert check_determinism().passed
    assert os.listdir(tmp_path) == []


def test_determinism_keeps_the_out_dir_runs(tmp_path):
    assert check_determinism(str(tmp_path)).passed
    assert sorted(os.listdir(tmp_path)) == ["determinism-config.json", "run-a", "run-b"]
