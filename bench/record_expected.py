"""Regenerate bench/expected.json: the summary.json metrics of every pool episode.

Run from the repository root after a change that alters episode outputs on
purpose, and say why in CHANGES.md:

    python3 bench/record_expected.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

import egotrack.cli as cli  # noqa: E402
from workloads import WORKLOADS, invoke, write_config  # noqa: E402


def main() -> int:
    work = os.path.join(ROOT, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    out: dict = {}
    try:
        for workload in WORKLOADS.values():
            config_path = write_config(workload, work)
            per_seed = out.setdefault(workload.name, {})
            for i, seeds in enumerate(workload.calls(0)):
                call_dir = os.path.join(work, f"{workload.name}-{i}")
                code, _, dirs = invoke(cli, workload, config_path, seeds, call_dir)
                if code != 0:
                    raise SystemExit(f"{workload.name} seeds {seeds}: exit {code}")
                for seed, d in dirs.items():
                    with open(os.path.join(d, "summary.json"), encoding="utf-8") as fh:
                        per_seed[str(seed)] = json.load(fh)["metrics"]
            out[workload.name] = dict(sorted(per_seed.items(), key=lambda kv: int(kv[0])))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(BENCH_DIR, "expected.json"), "w", encoding="utf-8") as fh:
        json.dump({"workloads": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
