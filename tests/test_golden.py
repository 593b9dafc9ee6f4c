"""Golden outputs: sha256 digests of ``metrics.csv`` and ``summary.json``.

Ten short episodes run through the CLI and must reproduce stored bytes
exactly, so any drift in a number the CLI writes is caught, not only a rerun
that differs from itself.  A change that alters outputs on purpose
regenerates the digests and says why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py

prints ``changed: <case> <file>`` for each digest that differs from the
stored one, then rewrites ``tests/golden.json`` from the current code.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

from egotrack.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
OUTPUTS = ("metrics.csv", "summary.json")

_LATE = {
    "scenario": {
        "duration": 1.6,
        "camera_motion": {"kind": "walking"},
        "sensor": {"mode": "truth"},
        "obs_rate": 25.0,
        "obs_latency": 0.6,
    },
}
_LATE_5S = {"scenario": {**_LATE["scenario"], "duration": 5.0}}

# name -> (user config, extra CLI arguments)
CASES = {
    # Cloud sensor, 0.2 s latency, drift and shape noise, reward columns; the
    # target leaves the field of view before the end.
    "walk-training-task": (
        {
            "scenario": {
                "duration": 2.0,
                "seed": 3,
                "surface_samples": 512,
                "obs_latency": 0.2,
                "camera_motion": {"kind": "walking"},
                "target": {"position": [2.5, 0.5, 0.0], "velocity": [0.0, -1.5, 0.0]},
            },
            "mode": "training",
            "task": {"p_opt": [2.0, 0.0, 0.0], "p_hint": [1.5, 0.3, 0.0]},
        },
        [],
    ),
    # Every pose stream at once: a turning, moving base, VO rotation and
    # translation noise, a rotated moving box, and training mode's mount
    # offset and perception delay, through the cloud sensor.
    "turning-vo-box-training": (
        {
            "scenario": {
                "duration": 1.0,
                "seed": 5,
                "surface_samples": 256,
                "camera_motion": {"kind": "turning", "velocity": [0.3, 0.1, 0.0], "yaw_rate": 0.4},
                "vo_trans_noise_std": 0.002,
                "vo_rot_noise_std": 0.003,
                "target": {
                    "shape": "box",
                    "rpy": [0.2, -0.1, 0.5],
                    "position": [2.5, 0.3, 0.1],
                    "velocity": [0.1, -0.2, 0.05],
                },
            },
            "mode": "training",
        },
        [],
    ),
    # The branches the walking task misses: the base passes through the
    # success band (nonzero convergence bonus, linear3d stillness kernel),
    # the hint segment is one point, the shape noise is scale-only, and the
    # drift walk reaches its clip over a long blind spot.
    "walk-training-success-band": (
        {
            "scenario": {
                "duration": 2.0,
                "camera_motion": {"kind": "walking"},
                "target": {"velocity": [0, -2.0, 0]},
            },
            "mode": "training",
            "randomization": {"sigma_rot_noise_std": 0.0},
            "reward": {"opt_velocity": "linear3d"},
            "task": {"p_opt": [0, 0, 0], "p_hint": [0, 0, 0]},
        },
        ["--seed", "3"],
    ),
    # The cloud sensor on a tilted, moving cylinder from a turning base: the
    # caps and the lateral surface both reach the visible set, and the
    # target leaves the field of view before the end.
    "cylinder-turning-cloud": (
        {
            "scenario": {
                "duration": 1.0,
                "seed": 2,
                "surface_samples": 384,
                "camera_motion": {"kind": "turning", "yaw_rate": 0.3},
                "target": {"shape": "cylinder", "radius": 0.08, "height": 0.25, "rpy": [0.4, 0.1, 0.0],
                           "velocity": [0.0, -0.8, 0.1]},
            },
        },
        [],
    ),
    # The cloud sensor from a turning base loses the target for longer than
    # the 5 s reacquire window, so the next set reaches the reacquire gate.
    "turning-cloud-reacquire": (
        {
            "scenario": {
                "duration": 10.0,
                "seed": 1,
                "surface_samples": 512,
                "camera_motion": {"kind": "turning", "yaw_rate": 0.8},
                "target": {"velocity": [0.0, 0.3, 0.0]},
            },
        },
        [],
    ),
    "truth-late-replay": (_LATE, ["--seed", "1"]),
    "truth-late-in-place": (_LATE, ["--seed", "1", "--oosm-mode", "in_place"]),
    # The negative control: the filter lane never applies the ego increment.
    "truth-late-replay-no-ego": (_LATE, ["--seed", "1", "--disable-ego-compensation"]),
    "truth-late-in-place-no-ego": (
        _LATE,
        ["--seed", "1", "--oosm-mode", "in_place", "--disable-ego-compensation"],
    ),
    # A longer episode whose summary aggregates move when a per-tick centroid
    # distance changes in its last bit (about one seed in six does; seed 8 is
    # the first).
    "truth-late-replay-5s": (_LATE_5S, ["--seed", "8"]),
}


def digests(name: str, work_dir: str) -> dict:
    """Run one case through ``egotrack run``; sha256 of each compared output."""
    config, extra = CASES[name]
    cfg_path = os.path.join(work_dir, f"{name}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = os.path.join(work_dir, name)
    code = main(["run", "--config", cfg_path, "--out", out, "--quiet", *extra])
    if code != 0:
        raise RuntimeError(f"golden case {name} exited {code}")
    result = {}
    for fname in OUTPUTS:
        with open(os.path.join(out, fname), "rb") as fh:
            result[fname] = hashlib.sha256(fh.read()).hexdigest()
    return result


def _stored() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden_digests(name, tmp_path):
    assert digests(name, str(tmp_path)) == _stored()[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(name, tmp) for name in sorted(CASES)}
    stored = _stored()
    for name, outputs in table.items():
        for fname, digest in outputs.items():
            if stored.get(name, {}).get(fname) != digest:
                print(f"changed: {name} {fname}")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    json.dump(table, sys.stdout, indent=2, sort_keys=True)
    print()
