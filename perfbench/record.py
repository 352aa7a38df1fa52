"""Record the benchmark's baseline into perfbench/baseline.json.

    python3 perfbench/record.py [--seconds 20]

For each workload at its default seed it records the output digest and the
exact counts of one untraced and one traced unit (the invariants that
``run.py`` then enforces on that seed), and the end-to-end and per-layer
metrics of one full run, with the machine and toolchain they came from.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import run
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

DEFAULT_SEEDS = {name: cls.default_seed for name, cls in WORKLOADS.items()}


def context() -> dict:
    def cpu_model():
        try:
            for line in Path("/proc/cpuinfo").read_text().splitlines():
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor()

    def git_rev():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return "unknown"

    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_rev": git_rev(),
            "seeds": DEFAULT_SEEDS}


def invariants(workload: str, seed: int) -> dict:
    deadline = perf_counter() + run.RUN_LIMIT_S
    units = [run.spawn_unit(workload, seed, trace, i, deadline)
             for i, trace in enumerate((False, True))]
    for u in units:
        if u["checks"]:
            raise SystemExit(f"{workload}: unit failed: {u['checks']}")
    if units[0]["digest"] != units[1]["digest"]:
        raise SystemExit(f"{workload}: traced output differs from untraced")
    counts = {**units[0]["counts"], **units[1]["counts"]}
    return {"digest": units[0]["digest"], "counts": counts}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: run not correct:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args(argv)
    out = {"context": context(), "invariants": {}, "metrics": {}}
    for workload, seed in DEFAULT_SEEDS.items():
        out["invariants"][workload] = {str(seed): invariants(workload, seed)}
    # written now so that the runs below are checked against the invariants
    run.BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for workload, seed in DEFAULT_SEEDS.items():
        out["metrics"][workload] = {
            "end_to_end": measure(workload, seed, args.seconds, 0),
            "per_layer": measure(workload, seed, args.seconds, 1)}
    run.BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
