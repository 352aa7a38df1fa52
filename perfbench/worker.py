"""One timed unit of one workload, in a fresh process.

Started by ``run.py``; prints one JSON record as its last stdout line.
Set-up time runs from the moment ``run.py`` started this process (the
``--spawned`` clock reading) to the first timed operation, so it covers
interpreter start, imports, parameter load and input generation.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from layers import layer_wraps, per_layer
from tracer import Tracer, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program():
    """Import hipexo from this checkout's ``src`` and nowhere else; returns
    its modules by short name."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hipexo
    if Path(hipexo.__file__).resolve().parent != src / "hipexo":
        raise ImportError(f"hipexo imported from {hipexo.__file__}, "
                          f"not from {src}")
    # the package re-exports a function named ``optimize`` over its module,
    # so modules are taken from sys.modules, not from package attributes
    return SimpleNamespace(**{
        name: importlib.import_module(f"hipexo.{name}")
        for name in ("cli", "configio", "controller", "gaitdata", "heelstrike",
                     "metrics", "modulation", "optimize", "replay", "signals",
                     "springs")})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--run-id", type=int, default=0)
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)

    hx = import_program()
    out_root = HERE / "out" / "units"
    out_root.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](hx, args.seed, out_root)

    tracer = Tracer()
    tracer.run_id = args.run_id
    wraps = workload.stage_wraps(tracer)
    if args.trace:
        wraps += layer_wraps(hx)
    for owner, attr, span, *hooks in wraps:
        tracer.wrap(owner, attr, span, *hooks)
    try:
        workload.setup()
        setup_last = len(tracer.start)
        ready = perf_counter()
        raw = tracer.traced(workload.run, "bench.unit")()
        unit_last = len(tracer.start)
    finally:
        tracer.restore()

    rec = workload.check(raw, tracer, setup_last, unit_last)
    rec["setup_s"] = ready - args.spawned
    rec["wall_s"] = tracer.durations("bench.unit", setup_last)[0]
    rec["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        rec["counts"].update(tracer.counts)
        rec["layers"] = per_layer(
            summarize(tracer, setup_last, unit_last),
            summarize(tracer, 0, setup_last), rec["counts"], rec["ops"],
            rec["stage_s"], rec["wall_s"])
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
