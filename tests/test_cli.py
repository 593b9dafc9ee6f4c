import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from egotrack import cli
from egotrack.cli import main
from egotrack.config import build_configs, canonical_config, config_hash
from egotrack.errors import ConfigError
from egotrack.estimator import FilterConfig
from egotrack.geometry import CameraModel
from egotrack.perturbation import RandomizationConfig
from egotrack.sim import (
    MAX_SURFACE_SAMPLES,
    MAX_TICK_SAMPLES,
    MAX_TICKS,
    ObjectSpec,
    ScenarioConfig,
    SensorSpec,
)
from egotrack.tasklogic import CriteriaConfig, RewardConfig, TaskGeometry


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_cfg():
    # small cloud keeps the episodes fast
    return {"scenario": {"duration": 1.0, "surface_samples": 256}}


# An observation rate so low that the control-tick stride is above 2**63.
TINY_OBS_RATE = {
    "scenario": {"duration": 0.6, "surface_samples": 64, "target": {"dims": [0.1, 0.075, 0.05]},
                 "obs_rate": 1e-300},
    "mode": "training",
    "task": {},
}


class TestConfigModule:
    def test_canonical_fills_defaults(self):
        c = canonical_config({"scenario": {"duration": 2.0}})
        assert c["scenario"]["control_rate"] == 50.0
        assert c["filter"]["q_pos"] == 1e-6
        assert c["task"] is None

    def test_missing_duration(self):
        with pytest.raises(ConfigError, match="scenario.duration"):
            canonical_config({})

    def test_unknown_key_named_by_path(self):
        with pytest.raises(ConfigError, match="scenario.durration"):
            canonical_config({"scenario": {"durration": 1.0}})

    def test_hash_stable_and_sensitive(self):
        a = canonical_config({"scenario": {"duration": 1.0}})
        b = canonical_config({"scenario": {"duration": 1.0}})
        c = canonical_config({"scenario": {"duration": 1.0, "seed": 1}})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_build_configs_task_geometry(self):
        c = canonical_config(
            {"scenario": {"duration": 1.0}, "task": {"p_opt": [1.0, 0.0, 0.0]}}
        )
        scenario, _, _, _, task = build_configs(c)
        assert scenario.duration == 1.0
        assert task is not None and task.p_opt[0] == 1.0

    def test_defaults_are_the_dataclass_defaults(self):
        scenario, filt, crit, reward, task = build_configs(
            canonical_config({"scenario": {"duration": 2.0}})
        )
        assert scenario == ScenarioConfig(duration=2.0)
        assert filt == FilterConfig()
        assert crit == CriteriaConfig()
        assert reward == RewardConfig()
        assert task is None
        scenario, *_, task = build_configs(
            canonical_config({"scenario": {"duration": 2.0}, "mode": "training", "task": {}})
        )
        assert scenario.randomization == RandomizationConfig()
        expected = TaskGeometry()
        for name in ("p_opt", "theta_opt", "p_hint", "w_pos", "w_rot"):
            np.testing.assert_array_equal(getattr(task, name), getattr(expected, name))

    def test_build_configs_bad_value(self):
        c = canonical_config({"scenario": {"duration": 1.0, "sensor": {"mode": "radar"}}})
        with pytest.raises(ConfigError):
            build_configs(c)


# The fields each config type bounds; CameraMotion bounds none.
_BOUNDED_FIELDS = {
    CameraModel: ("fx", "fy", "width", "height", "near_z"),
    SensorSpec: ("pixel_std_u", "pixel_std_v", "depth_std"),
    ObjectSpec: ("radius", "height", "dims"),
    ScenarioConfig: ("seed", "duration", "control_rate", "obs_rate", "obs_latency", "surface_samples",
                     "alpha", "vo_trans_noise_std", "vo_rot_noise_std", "drift_sigma", "drift_max"),
    FilterConfig: ("q_pos", "q_vel", "sigma_u", "sigma_v", "sigma_z", "p0_pos", "p0_vel"),
    CriteriaConfig: tuple(f.name for f in dataclasses.fields(CriteriaConfig)),
    RewardConfig: ("sigma_track", "clip_planar", "clip_pitch"),
    RandomizationConfig: tuple(f.name for f in dataclasses.fields(RandomizationConfig)),
    TaskGeometry: ("w_pos", "w_rot"),
}


@pytest.mark.parametrize(
    "cls, name",
    [(cls, name) for cls, names in _BOUNDED_FIELDS.items() for name in names],
    ids=lambda v: v.__name__ if isinstance(v, type) else v,
)
def test_config_types_reject_nan_naming_the_field(cls, name):
    default = getattr(cls(), name)
    value = float("nan") if np.ndim(default) == 0 else (float("nan"), *default[1:])
    with pytest.raises(ValueError) as info:
        cls(**{name: value})
    words = str(info.value).split()
    # The message starts with a field name, which the config layer prefixes
    # with the section's path, and names this field.
    assert words[0] in {f.name for f in dataclasses.fields(cls)}
    assert name in words


class TestRunCommand:
    def test_writes_outputs(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, base_cfg())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--seed", "3"]) == 0
        for name in ("metrics.csv", "summary.json", "manifest.json"):
            assert (out / name).is_file()
        summary = json.loads((out / "summary.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert summary["seed"] == 3
        assert summary["config_hash"] == manifest["config_hash"]
        assert summary["metrics"]["ticks"] == 51
        assert summary["effective_config"]["scenario"]["seed"] == 3
        assert "centroid rmse" in capsys.readouterr().out

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, base_cfg())
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_metrics_csv_readback(self, tmp_path):
        cfg = write_cfg(tmp_path, base_cfg())
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--quiet"])
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 51
        assert float(rows[0]["stamp"]) == 0.0
        assert "filter_p0_ex" in rows[0]
        # round-trippable full-precision floats
        assert abs(float(rows[1]["stamp"]) - 0.02) < 1e-15

    def test_chunked_csv_equals_one_pass(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(133, 4))
        values[3, 1], values[7, 2], values[9, 0] = np.nan, -0.0, np.inf
        values[11, 3], values[64, 1], values[132, 2] = -np.inf, 5e-324, np.finfo(float).max
        table = cli.EpisodeTable(("stamp", "a", "b", "c"), values)
        path = tmp_path / "m.csv"
        cli._write_rows_csv(str(path), table)
        row = ",".join(["%.17g"] * 4) + "\r\n"
        want = "stamp,a,b,c\r\n" + "".join(row % tuple(cells) for cells in values.tolist())
        assert path.read_bytes() == want.encode("utf-8")

    def test_same_seed_same_bytes(self, tmp_path):
        cfg = write_cfg(tmp_path, base_cfg())
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(a), "--quiet"])
        main(["run", "--config", cfg, "--out", str(b), "--quiet"])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_task_enables_reward_columns(self, tmp_path):
        payload = base_cfg()
        payload["task"] = {"p_opt": [0.0, 0.0, 0.0], "p_hint": [0.1, 0.0, 0.0]}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--quiet"])
        with open(out / "metrics.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert "reward_total" in header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metrics"]["terminal"] == "success"

    def test_mode_override(self, tmp_path):
        cfg = write_cfg(tmp_path, base_cfg())
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out), "--mode", "training", "--quiet"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["effective_config"]["mode"] == "training"

    def test_missing_duration_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"scenario": {"seed": 1}})
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "scenario.duration" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        for payload, key in (
            ({"scenario": {"duration": 1.0, "durration": 2.0}}, "scenario.durration"),
            # removed: nothing read them
            (
                {"scenario": {"duration": 1.0}, "randomization": {"friction_range": [0.2, 5.0]}},
                "randomization.friction_range",
            ),
            ({"scenario": {"duration": 1.0}, "asc": {"lambda_asc": 5.0}}, "'asc'"),
            ({"scenario": {"duration": 1.0}, "task": {"task_kind": "release"}}, "task.task_kind"),
        ):
            cfg = write_cfg(tmp_path, payload)
            rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
            assert rc == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"scenario": {"duration": float("nan")}}, "scenario.duration"),
            ({"scenario": {"duration": 1.0, "control_rate": float("inf")}}, "scenario.control_rate"),
            ({"scenario": {"duration": 1.0, "alpha": float("nan")}}, "scenario.alpha"),
            ({"scenario": {"duration": 1.0}, "filter": {"q_pos": float("-inf")}}, "filter.q_pos"),
            ({"scenario": {"duration": 1.0, "seed": True}}, "scenario.seed"),
            ({"scenario": {"duration": 1.0, "seed": 3.7}}, "scenario.seed"),
            ({"scenario": {"duration": 1.0, "camera": {"fx": "500"}}}, "scenario.camera.fx"),
            (
                {"scenario": {"duration": 1.0, "target": {"position": [2.5, float("nan"), 0.0]}}},
                "scenario.target.position[1]",
            ),
            (
                {"scenario": {"duration": 1.0}, "mode": "training", "randomization": {"alpha_range": [1.0]}},
                "alpha_range",
            ),
            ({"scenario": {"duration": 1.0}, "task": 5}, "'task'"),
            ({"scenario": {"duration": 1.0, "target": {"shape": "cube"}}}, "scenario.target"),
            ({"scenario": {"duration": 1.0, "target": {"radius": -1}}}, "scenario.target"),
            (
                {"scenario": {"duration": 1.0, "target": {"shape": "box", "dims": [0.2, 0.0, 0.1]}}},
                "scenario.target",
            ),
            ({"scenario": {"duration": 1.0, "target": {"position": [1, 2]}}}, "scenario.target.position"),
            (
                {"scenario": {"duration": 1.0,
                              "camera_motion": {"kind": "constant_velocity", "velocity": [0.1]}}},
                "scenario.camera_motion.velocity",
            ),
            ({"scenario": {"duration": 1.0, "drift_sigma": -1}}, "scenario.drift_sigma"),
            ({"scenario": {"duration": 1.0, "drift_max": -1}}, "scenario.drift_max"),
            ({"scenario": {"duration": 1.0, "drift_max": 0}}, "scenario.drift_max"),
            ({"scenario": {"duration": 1.0, "vo_trans_noise_std": -1}}, "scenario.vo_trans_noise_std"),
            ({"scenario": {"duration": 1.0, "vo_rot_noise_std": -0.1}}, "scenario.vo_rot_noise_std"),
            (
                {"scenario": {"duration": 1.0}, "mode": "training", "randomization": {"alpha_range": [0.0, 1.0]}},
                "alpha_range",
            ),
            (
                {"scenario": {"duration": 1.0, "obs_latency": 0.0}, "mode": "training",
                 "randomization": {"perception_delay_ms": [-10.0, 0.0]}},
                "perception_delay_ms",
            ),
            ({"scenario": {"duration": 1.0, "seed": -1}}, "scenario.seed"),
            ({"scenario": {"duration": 1.0, "obs_rate": 7.0}}, "scenario.control_rate"),
            ({"scenario": {"duration": 1.0, "obs_rate": -1.0}}, "scenario.obs_rate"),
            ({"scenario": {"duration": 1.0, "alpha": 0.0}}, "scenario.alpha"),
            ({"scenario": {"duration": 1.0, "camera_motion": {"kind": "x"}}}, "scenario.camera_motion.kind"),
            ({"scenario": {"duration": 1.0, "sensor": {"mode": "radar"}}}, "scenario.sensor.mode"),
            ({"scenario": {"duration": 1.0, "sensor": {"depth_std": -0.1}}}, "scenario.sensor.depth_std"),
            ({"scenario": {"duration": 1.0, "obs_latency": -0.2}}, "scenario.obs_latency"),
            ({"scenario": {"duration": 1.0, "surface_samples": 0}}, "scenario.surface_samples"),
            ({"scenario": {"duration": 1.0, "camera": {"width": 10**400}}}, "scenario.camera.width"),
            ({"scenario": {"duration": 1.0, "seed": 10**400}}, "scenario.seed"),
            ({"scenario": {"duration": 1e300, "control_rate": 1e10}}, "scenario.duration"),
            ({"scenario": {"duration": 1.0, "control_rate": 1e300, "obs_rate": 1e-300}}, "scenario.duration"),
            ({"scenario": {"duration": 1.0, "control_rate": 1e-310, "obs_rate": 1e-310}}, "scenario.control_rate"),
            ({"scenario": {"duration": 1.0}, "mode": "bogus"}, "config error: mode "),
            (
                {"scenario": {"duration": 1.0}, "randomization": {"extrinsic_trans_x": [0.0, float("nan")]}},
                "randomization.extrinsic_trans_x[1]",
            ),
        ],
        ids=[
            "nan-duration",
            "inf-control-rate",
            "nan-alpha",
            "neg-inf-q-pos",
            "bool-seed",
            "fractional-seed",
            "string-fx",
            "nan-vector-entry",
            "short-range",
            "task-not-object",
            "unknown-shape",
            "negative-radius",
            "zero-box-dim",
            "short-position",
            "short-camera-velocity",
            "negative-drift-sigma",
            "negative-drift-max",
            "zero-drift-max",
            "negative-vo-trans-noise",
            "negative-vo-rot-noise",
            "zero-alpha-range",
            "negative-perception-delay",
            "negative-seed",
            "stride",
            "negative-rate",
            "zero-alpha",
            "unknown-camera-motion",
            "unknown-sensor-mode",
            "negative-depth-std",
            "negative-obs-latency",
            "zero-surface-samples",
            "int-beyond-float-width",
            "int-beyond-float-seed",
            "tick-count-overflows",
            "stride-overflows",
            "control-period-overflows",
            "unknown-top-level-mode",
            "nan-range-in-deploy-mode",
        ],
    )
    def test_bad_leaf_exits_2_naming_the_key(self, tmp_path, capsys, payload, key):
        cfg = write_cfg(tmp_path, payload)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "scenario, key",
        [
            ({"duration": (MAX_TICKS + 1) / 50.0}, "scenario.duration"),
            ({"duration": 1.0, "surface_samples": MAX_SURFACE_SAMPLES + 1}, "scenario.surface_samples"),
            ({"duration": 10.0, "surface_samples": MAX_TICK_SAMPLES // 500 + 1}, "scenario.surface_samples"),
            # 50,001 deliveries, each replaying ~25,000 ticks: hours of work.
            ({"duration": 1000.0, "obs_rate": 50.0, "obs_latency": 500.0}, "scenario.obs_latency"),
        ],
        ids=["ticks", "surface-samples", "ticks-x-samples", "replay-work"],
    )
    def test_over_cap_exits_2_before_generating(self, tmp_path, capsys, monkeypatch, scenario, key):
        def refuse(_cfg):
            raise AssertionError("an over-cap config reached generate_scenario")

        monkeypatch.setattr("egotrack.cli.generate_scenario", refuse)
        cfg = write_cfg(tmp_path, {"scenario": scenario})
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err and "cap" in err
        assert err.count("\n") == 1

    def test_huge_obs_latency_exits_1_naming_the_key(self, tmp_path, capsys):
        # The replay history is clamped to the episode before it becomes an
        # integer, so the config is valid and no measurement ever arrives.
        cfg = write_cfg(tmp_path, {"scenario": {"duration": 1.0, "obs_latency": 1e308}})
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "no tick scored" in err and "obs_latency" in err
        assert err.count("\n") == 1

    def test_no_scored_tick_exits_1(self, tmp_path, capsys):
        # every measurement arrives after the episode ends
        cfg = write_cfg(tmp_path, {"scenario": {"duration": 1.0, "obs_latency": 5.0}})
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "no tick scored" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"mode": "training", "randomization": {"perception_delay_ms": [0.0, 1e308]}},
            {"scenario": {"sensor": {"pixel_std_u": 1e308}}},
            {"scenario": {"target": {"position": [1e308, 0.0, 0.0]}}},
            {"scenario": {"target": {"velocity": [1e308, 0.0, 0.0]}}},
            {"filter": {"q_vel": 1e308}},
            {"scenario": {"alpha": 1e308}},
        ],
        ids=["huge-perception-delay", "huge-pixel-noise", "huge-position", "huge-velocity",
             "huge-q-vel", "huge-alpha"],
    )
    def test_numeric_overflow_exits_1(self, tmp_path, capsys, payload):
        user = {**payload, "scenario": {"duration": 1.0, "surface_samples": 256, **payload.get("scenario", {})}}
        cfg = write_cfg(tmp_path, user)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_tiny_sigma_track_gives_zero_kernels(self, tmp_path):
        # Each squared error over the smallest sigma overflows to inf, and its
        # kernel is 0 (1 on the first tick, where every error is 0).
        user = {
            "scenario": {"duration": 1.0, "surface_samples": 256, "camera_motion": {"kind": "walking"}},
            "task": {"p_opt": [0.0, 0.0, 0.0], "p_hint": [0.5, 0.3, 0.0]},
            "reward": {"sigma_track": 5e-324},
        }
        out = tmp_path / "o"
        assert main(["run", "--config", write_cfg(tmp_path, user), "--out", str(out), "--quiet"]) == 0
        sums = json.loads((out / "summary.json").read_text())["metrics"]["reward_sums"]
        assert sums == {"hint": 2.0, "opt": 1.0, "miss": 0.0, "roll": 0.0, "ang": 2.697805990177878,
                        "smooth": 0.0, "limit": 0.0, "total": 20.530219400982208}

    @pytest.mark.parametrize(
        "scenario",
        [
            {"sensor": {"pixel_std_u": -0.0}},
            {"sensor": {"pixel_std_v": -0.0}},
            {"sensor": {"depth_std": -0.0}},
            {"drift_sigma": -0.0},
        ],
        ids=["pixel-std-u", "pixel-std-v", "depth-std", "drift-sigma"],
    )
    def test_negative_zero_noise_is_zero(self, tmp_path, scenario):
        user = {"scenario": {"duration": 1.0, "surface_samples": 256, **scenario}, "mode": "training"}
        runs = {}
        for name, payload in (("neg", user), ("pos", json.loads(json.dumps(user).replace("-0.0", "0.0")))):
            out = tmp_path / name
            assert main(["run", "--config", write_cfg(tmp_path, payload, f"{name}.json"), "--out", str(out),
                         "--quiet"]) == 0
            runs[name] = (out / "metrics.csv").read_bytes()
        assert runs["neg"] == runs["pos"]

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]], ids=["run", "sweep"])
    def test_deeply_nested_config_exits_2_with_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        rc = main(command + ["--config", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and "nests too deeply" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--seeds", "0..1"]], ids=["run", "sweep"])
    def test_tiny_obs_rate_observes_tick_0_alone(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        rc = main(command + ["--config", write_cfg(tmp_path, TINY_OBS_RATE), "--out", str(out), "--quiet"])
        assert rc == 0
        assert capsys.readouterr().err == ""
        summary = out / "summary.json" if command == ["run"] else out / "seed-1" / "summary.json"
        assert _finite_metrics(json.loads(summary.read_text())["metrics"])


class TestSweepCommand:
    def test_range_and_aggregate(self, tmp_path):
        cfg = write_cfg(tmp_path, base_cfg())
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--seeds", "0..2", "--quiet"])
        assert rc == 0
        for seed in (0, 1, 2):
            assert (out / f"seed-{seed}" / "summary.json").is_file()
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [0, 1, 2]
        assert agg["completed"] == 3 and agg["failed"] == 0
        assert agg["per_seed"]["1"]["status"] == "ok"
        stats = agg["aggregate"]["rmse_filter_centroid"]
        assert stats["mean"] > 0.0 and stats["std"] >= 0.0

    def test_single_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, base_cfg())
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--seeds", "4", "--quiet"])
        assert rc == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["seeds"] == [4]
        assert agg["aggregate"]["rmse_filter_centroid"]["std"] == 0.0

    def test_bad_seed_spec_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, base_cfg())
        for spec in ("a..b", "5..3", "1,2"):
            rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--seeds", spec])
            assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, key",
        [
            ({"scenario": {"duration": 1.0, "durration": 2.0}}, "scenario.durration"),
            ({"scenario": {"duration": 1.0, "alpha": -1.0}}, "alpha"),
            ({"scenario": 5}, "'scenario'"),
        ],
        ids=["unknown-key", "bad-value", "scenario-not-object"],
    )
    def test_config_error_exits_2_once(self, tmp_path, capsys, payload, key):
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "sweep"
        # A huge range is never expanded before the config is checked.
        for seeds in ("0..2", "0..100000000000000"):
            rc = main(["sweep", "--config", cfg, "--out", str(out), "--seeds", seeds, "--quiet"])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("config error: ") and key in err
            assert err.count("\n") == 1
            assert not out.exists()

    def test_failing_seeds_reported(self, tmp_path, capsys):
        payload = base_cfg()
        payload["scenario"]["target"] = {"position": [-3.0, 0.0, 0.0]}
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--seeds", "0..1", "--quiet"])
        assert rc == 1
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["failed"] == 2 and agg["completed"] == 0
        assert agg["per_seed"]["0"]["status"] == "error"
        assert agg["per_seed"]["0"]["type"] == "ConfigError"
        assert agg["aggregate"] == {}
        assert "never visible" in capsys.readouterr().err

    def test_unscored_seeds_fail_and_sweep_goes_on(self, tmp_path, capsys):
        payload = base_cfg()
        payload["scenario"]["obs_latency"] = 5.0
        cfg = write_cfg(tmp_path, payload)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--seeds", "0..1", "--quiet"])
        assert rc == 1
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["failed"] == 2 and agg["completed"] == 0
        assert "no tick scored" in agg["per_seed"]["1"]["message"]
        assert capsys.readouterr().err.count("no tick scored") == 2


    def test_unexpected_exception_is_recorded_and_sweep_goes_on(self, tmp_path, capsys, monkeypatch):
        real = cli.run_episode

        def flaky(bundle, *args, **kwargs):
            if bundle.config.seed == 1:
                raise RuntimeError("boom")
            return real(bundle, *args, **kwargs)

        monkeypatch.setattr(cli, "run_episode", flaky)
        cfg = write_cfg(tmp_path, base_cfg())
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--seeds", "0..1", "--quiet"])
        assert rc == 1
        agg = json.loads((out / "aggregate.json").read_text())
        assert agg["completed"] == 1 and agg["failed"] == 1
        assert agg["per_seed"]["0"]["status"] == "ok"
        assert agg["per_seed"]["1"] == {"status": "error", "type": "RuntimeError", "message": "boom"}
        assert "seed 1: error: RuntimeError: boom" in capsys.readouterr().err


class TestSelftestCommand:
    def test_single_criterion(self, capsys):
        rc = main(["selftest", "--only-criterion", "8"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS criterion  8" in out
        assert "1/1 criteria passed" in out

    def test_induced_regression_is_caught(self, capsys):
        rc = main(["selftest", "--only-criterion", "6", "--disable-ego-compensation"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL criterion  6" in out

    @pytest.mark.parametrize("index", ["0", "12", "-3"])
    def test_criterion_out_of_range_exits_2_with_one_line(self, capsys, index):
        rc = main(["selftest", "--only-criterion", index])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ") and "1..11" in lines[0]


@pytest.mark.parametrize("where", ["file", "under-file", "empty"])
@pytest.mark.parametrize("command", ["run", "sweep", "selftest"])
def test_unusable_out_exits_2_with_one_line(tmp_path, capsys, command, where):
    cfg = write_cfg(tmp_path, base_cfg())
    taken = tmp_path / "taken"
    taken.write_text("")
    out = {"file": str(taken), "under-file": str(taken / "sub"), "empty": ""}[where]
    argv = {
        "run": ["run", "--config", cfg],
        "sweep": ["sweep", "--config", cfg, "--seeds", "0..1"],
        "selftest": ["selftest"],
    }[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(argv + ["--out", out]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "--out" in lines[0] and (repr(out) in lines[0] or not out)
    assert captured.out == ""
    # Nothing was written: no episode ran and no directory was made.
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert taken.read_text() == ""


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "egotrack" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# CLI fuzz property: any config either runs to finite metrics or exits 1 or
# 2 with one line.


def _leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


# Every configurable leaf, the task's included; duration is drawn separately.
FUZZ_LEAVES = [
    (path, default)
    for path, default in _leaves(canonical_config({"scenario": {"duration": 1.0}, "task": {}}))
    if path != ("scenario", "duration")
]
_EDGE_FLOATS = [0.0, -0.0, -1.0, 1e-300, 1e-9, 1e9, 1e308, -1e308, float("nan"), float("inf")]
_EDGE_INTS = [-1, 0, 1, 2, 2**63, 10**400]
_WORDS = ["", "bogus", "sphere", "box", "cylinder", "static", "constant_velocity", "walking",
          "turning", "cloud", "truth", "deploy", "training"]
_WRONG_TYPE = st.sampled_from([None, True, "1.0", [], {}])


def _fuzz_value(default):
    """In-range, boundary, out-of-range and wrong-typed values for a leaf with this default."""
    if isinstance(default, bool) or default is None:
        return _WRONG_TYPE
    if isinstance(default, int):
        values = st.sampled_from(_EDGE_INTS + [default + 1, 2 * default])
        return st.one_of(values, st.integers(-3, 300), _WRONG_TYPE)
    if isinstance(default, float):
        near = st.sampled_from([default * f for f in (0.5, 2.0, 10.0, -1.0)])
        return st.one_of(near, st.sampled_from(_EDGE_FLOATS), st.floats(), _WRONG_TYPE)
    if isinstance(default, str):
        return st.one_of(st.sampled_from(_WORDS), _WRONG_TYPE)
    near = st.sampled_from([[v * f for v in default] for f in (0.5, 2.0, -1.0)] + [default])
    entry = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(-10.0, 10.0))
    return st.one_of(
        near,
        st.lists(entry, min_size=len(default), max_size=len(default)),
        st.lists(entry, max_size=len(default) + 1),
        _WRONG_TYPE,
    )


@st.composite
def fuzz_configs(draw):
    user = {
        "scenario": {"duration": draw(st.sampled_from([0.3, 0.6, 1.0])), "surface_samples": 64},
        "mode": draw(st.sampled_from(["deploy", "training"])),
    }
    if draw(st.booleans()):
        user["task"] = {}
    for i in draw(st.lists(st.integers(0, len(FUZZ_LEAVES) - 1), min_size=1, max_size=3)):
        path, default = FUZZ_LEAVES[i]
        node = user
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(_fuzz_value(default), label="/".join(path))
    return user


def _finite_metrics(metrics: dict) -> bool:
    numbers = [*metrics["rmse_filter"], *metrics["rmse_zoh"], *metrics["rmse_nocomp"]]
    numbers += [v for k, v in metrics.items() if k not in ("reward_sums", "terminal")
                and not isinstance(v, list)]
    numbers += list((metrics["reward_sums"] or {}).values())
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in numbers)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(user=fuzz_configs())
@example(user=TINY_OBS_RATE)
def test_fuzzed_config_runs_or_exits_with_one_line(user):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(user, fh)
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            rc = main(["run", "--config", cfg, "--out", os.path.join(tmp, "o"), "--quiet"])
        assert time.perf_counter() - start < 60.0
        assert rc in (0, 1, 2)
        if rc == 0:
            with open(os.path.join(tmp, "o", "summary.json"), encoding="utf-8") as fh:
                assert _finite_metrics(json.load(fh)["metrics"])
        else:
            assert err.getvalue().count("\n") == 1
