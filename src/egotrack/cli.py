"""Command-line entry points: single runs, seed sweeps, and the selftest."""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import traceback

import numpy as np

from . import __version__
from .config import build_configs, canonical_config, config_hash
from .errors import ConfigError, EgoTrackError, NumericalError
from .estimator import OOSM_MODES
from .sim import MODES, EpisodeTable, generate_scenario, run_episode

# Scalar episode metrics aggregated across a sweep.
_SWEEP_KEYS = (
    "rmse_filter_centroid",
    "rmse_zoh_centroid",
    "rmse_nocomp_centroid",
    "mean_err_filter",
    "mean_err_zoh",
    "mean_err_nocomp",
    "velocity_rmse",
    "visible_fraction",
    "scored_ticks",
)
_CSV_CHUNK_ROWS = 64


def _read_user_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config file {path!r} nests too deeply to read") from None
    if not isinstance(user, dict):
        raise ConfigError("top-level config must be a JSON object")
    return user


def _check_out_dir(path: str) -> None:
    """Raise ConfigError unless ``path`` is, or can be made, a writable directory."""
    if not path:
        raise ConfigError("--out is empty; it must name a directory")
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not (os.path.isdir(probe) and os.access(probe, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out {path!r}: {probe!r} is not a writable directory")


def _write_rows_csv(path: str, table: EpisodeTable) -> None:
    """One header line, then one ``%.17g`` row per tick, CRLF-terminated.

    Rows are converted to Python floats ``_CSV_CHUNK_ROWS`` at a time and
    formatted with one ``%`` each, which is faster than ``np.savetxt``'s
    per-row formatting of numpy scalars, and never holds a float object for
    every cell of the episode.
    """
    row = ",".join(["%.17g"] * len(table.columns)) + "\r\n"
    values = table.values
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.columns) + "\r\n")
        for start in range(0, len(values), _CSV_CHUNK_ROWS):
            fh.writelines(row % tuple(cells) for cells in values[start:start + _CSV_CHUNK_ROWS].tolist())


def _write_json(path: str, payload: dict) -> None:
    """Write ``payload``; a NaN or infinity raises, since JSON has no form for it."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def execute_run(
    canonical: dict,
    out_dir: str,
    config_path: str,
    quiet: bool = False,
    disable_ego_compensation: bool = False,
    oosm_mode: str = "replay",
) -> dict:
    """Run one episode from a canonical config and write the output files."""
    scenario, filter_cfg, criteria, reward, task = build_configs(canonical)
    # An overflow or invalid value ends the run with one error line instead
    # of printing warnings and scoring what is left.
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            bundle = generate_scenario(scenario)
            metrics, table = run_episode(
                bundle,
                filter_cfg,
                geom=task,
                criteria=criteria,
                reward_cfg=reward,
                disable_ego_compensation=disable_ego_compensation,
                oosm_mode=oosm_mode,
            )
    except FloatingPointError as exc:
        raise NumericalError(f"floating-point error in the episode: {exc}") from exc
    os.makedirs(out_dir, exist_ok=True)
    chash = config_hash(canonical)
    summary = {
        "seed": canonical["scenario"]["seed"],
        "config_hash": chash,
        "metrics": metrics.to_dict(),
        "effective_config": canonical,
    }
    _write_rows_csv(os.path.join(out_dir, "metrics.csv"), table)
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    _write_json(
        os.path.join(out_dir, "manifest.json"),
        {
            "config_path": config_path,
            "config_hash": chash,
            "seed": canonical["scenario"]["seed"],
            "outputs": ["metrics.csv", "summary.json"],
            "version": __version__,
        },
    )
    if not quiet:
        print(
            f"seed {canonical['scenario']['seed']}: centroid rmse "
            f"filter={metrics.rmse_filter_centroid:.4f} "
            f"zoh={metrics.rmse_zoh_centroid:.4f} "
            f"nocomp={metrics.rmse_nocomp_centroid:.4f} "
            f"({metrics.scored_ticks}/{metrics.ticks} ticks scored) -> {out_dir}"
        )
    return summary


def _canonical_with_overrides(user: dict, seed: int | None, mode: str | None) -> dict:
    """``canonical_config`` of a user config with the CLI's seed and mode
    overrides; ``user`` itself is left unchanged."""
    if seed is not None and isinstance(user.get("scenario", {}), dict):
        user = {**user, "scenario": {**user.get("scenario", {}), "seed": seed}}
    if mode:
        user = {**user, "mode": mode}
    return canonical_config(user)


def _cmd_run(args) -> int:
    canonical = _canonical_with_overrides(_read_user_config(args.config), args.seed, args.mode)
    execute_run(
        canonical,
        args.out,
        args.config,
        quiet=args.quiet,
        disable_ego_compensation=args.disable_ego_compensation,
        oosm_mode=args.oosm_mode,
    )
    return 0


def _parse_seed_range(text: str) -> range:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise ConfigError(f"empty seed range {text!r}")
        return range(lo, hi + 1)
    if re.fullmatch(r"\d+", text):
        return range(int(text), int(text) + 1)
    raise ConfigError(f"seeds must be an integer or A..B range, got {text!r}")


def _cmd_sweep(args) -> int:
    seeds = _parse_seed_range(args.seeds)
    user = _read_user_config(args.config)
    # A config error is the same for every seed: report it once, before any
    # output is written, and exit 2 as ``run`` does.
    build_configs(_canonical_with_overrides(user, seeds[0], args.mode))
    os.makedirs(args.out, exist_ok=True)
    per_seed: dict = {}
    values: dict[str, list[float]] = {k: [] for k in _SWEEP_KEYS}
    failures = 0
    for seed in seeds:
        sub = os.path.join(args.out, f"seed-{seed}")
        try:
            summary = execute_run(
                _canonical_with_overrides(user, seed, args.mode),
                sub,
                args.config,
                quiet=args.quiet,
                disable_ego_compensation=args.disable_ego_compensation,
                oosm_mode=args.oosm_mode,
            )
        except Exception as exc:  # one failed seed must not end the sweep
            if not isinstance(exc, EgoTrackError):
                traceback.print_exc()
            failures += 1
            kind = type(exc).__name__
            per_seed[str(seed)] = {"status": "error", "type": kind, "message": str(exc)}
            print(f"seed {seed}: error: {kind}: {exc}", file=sys.stderr)
            continue
        per_seed[str(seed)] = {"status": "ok", "out": sub}
        for key in _SWEEP_KEYS:
            per_seed[str(seed)][key] = summary["metrics"][key]
            values[key].append(float(summary["metrics"][key]))
    aggregate = {}
    for key, vals in values.items():
        if vals:
            arr = np.asarray(vals)
            aggregate[key] = {"mean": float(arr.mean()), "std": float(arr.std())}
    _write_json(
        os.path.join(args.out, "aggregate.json"),
        {
            "seeds": list(seeds),
            "completed": len(seeds) - failures,
            "failed": failures,
            "per_seed": per_seed,
            "aggregate": aggregate,
        },
    )
    if not args.quiet:
        print(f"sweep: {len(seeds) - failures}/{len(seeds)} seeds completed -> {args.out}")
    return 1 if failures else 0


def _cmd_selftest(args) -> int:
    from .selftest import ALL_CRITERIA, run_all  # deferred: selftest drives the CLI for one check

    only = args.only_criterion
    if only is not None and not 1 <= only <= len(ALL_CRITERIA):
        raise ConfigError(f"--only-criterion must be in 1..{len(ALL_CRITERIA)}, got {only}")
    results = run_all(
        out_dir=args.out,
        disable_ego_compensation=args.disable_ego_compensation,
        only=only,
    )
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON configuration file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--mode", choices=MODES, default=None,
                   help="override the config's mode")
    p.add_argument("--quiet", action="store_true", help="suppress the progress line")
    p.add_argument("--oosm-mode", choices=OOSM_MODES, default="replay",
                   help="delayed-measurement handling (in_place is the ablation)")
    p.add_argument("--disable-ego-compensation", action="store_true",
                   help=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="egotrack",
        description="Ego-compensated sigma-point tracking simulator and self checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one episode and write metrics")
    _add_common_run_flags(p_run)
    p_run.add_argument("--seed", type=int, default=None, help="override the config's seed")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a range of seeds and aggregate")
    _add_common_run_flags(p_sweep)
    p_sweep.add_argument("--seeds", required=True,
                         help="seed range A..B (inclusive) or a single integer")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_self = sub.add_parser("selftest", help="run the built-in acceptance checks")
    p_self.add_argument("--out", default=None, help="directory for selftest artifacts")
    p_self.add_argument("--disable-ego-compensation", action="store_true",
                        help=argparse.SUPPRESS)
    p_self.add_argument("--only-criterion", type=int, default=None,
                        help=argparse.SUPPRESS)
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _check_out_dir(args.out)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EgoTrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
