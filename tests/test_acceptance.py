"""Runs every built-in acceptance criterion at its stated tolerance.

Each test prints the criterion's PASS/FAIL line (run with -s or check the
captured output on failure).  The same checks back ``egotrack selftest``.
"""

import os
import tempfile

import pytest

from egotrack import selftest
from egotrack.cli import main
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


def test_a_criterion_that_raises_fails_alone(tmp_path, monkeypatch, capsys):
    # A criterion that raises is one FAIL line naming the exception; the
    # others still run and report, and the command prints no traceback.
    def raises():
        raise TypeError("'NoneType' object is not subscriptable")

    monkeypatch.setattr(selftest, "ALL_CRITERIA", (*ALL_CRITERIA[:2], raises, *ALL_CRITERIA[3:]))
    returned = []

    def recording_run_all(**kwargs):
        returned.extend(run_all(**kwargs))
        return returned

    monkeypatch.setattr(selftest, "run_all", recording_run_all)
    assert main(["selftest", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert [r.index for r in returned] == list(INDICES)
    assert [r.index for r in returned if not r.passed] == [3]
    assert returned[2].detail == "raised TypeError: 'NoneType' object is not subscriptable"
    assert "FAIL criterion  3: raises (raised TypeError: " in captured.out
    assert "10/11 criteria passed" in captured.out
    assert "Traceback" not in captured.out + captured.err


def test_determinism_without_out_dir_leaves_no_files(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert check_determinism().passed
    assert os.listdir(tmp_path) == []


def test_determinism_keeps_the_out_dir_runs(tmp_path):
    assert check_determinism(str(tmp_path)).passed
    assert sorted(os.listdir(tmp_path)) == ["determinism-config.json", "run-a", "run-b"]
