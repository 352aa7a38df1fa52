"""The three workloads: what one timed unit runs, what it checks, and which
names are wrapped to time its stages.

A unit runs in a fresh worker process (see ``worker.py``). ``setup`` does
everything before the first timed operation, ``run`` is the timed unit, and
``check`` turns its output into a record: operation count, per-operation
latency samples, stage time, output digest and failed checks.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import re
import shutil
from importlib import resources
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

import livestream

STEP_BUDGET_S = 0.004   # one 250 Hz control period
SIM_TOLERANCE = 1e-3    # golden SIM tolerance of the test suite


def artifact_digest(out_dir: Path) -> tuple[str, int, int]:
    """sha256 over sorted relative paths and contents, file count, bytes."""
    h = hashlib.sha256()
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    total = 0
    for p in files:
        data = p.read_bytes()
        total += len(data)
        h.update(p.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(data)
    return h.hexdigest(), len(files), total


class _CliWorkload:
    """One ``hipexo <command> --config default --seed <seed>`` run in-process."""

    command = ""
    default_seed = 0

    def __init__(self, hx, seed: int, out_root: Path):
        self.hx = hx
        self.seed = seed
        self.out = out_root / f"{self.command}-{seed}"
        self.stdout = ""

    def stage_wraps(self, tracer) -> list:
        return [(self.hx.cli, "main", "cli.main")]

    def setup(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self) -> int:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.hx.cli.main(
                [self.command, "--config", "default", "--seed", str(self.seed),
                 "--out", str(self.out)])
        self.stdout = buf.getvalue()
        return code

    def check(self, code: int, tracer, first: int, last: int) -> dict:
        rec = {"checks": [], "ops": 0, "op_us": [], "stage_s": 0.0,
               "counts": {}}
        if code != 0:
            rec["checks"].append(f"exit code {code}")
        else:
            rec["digest"], files, nbytes = artifact_digest(self.out)
            rec["counts"].update({"cli.files": files, "cli.bytes": nbytes})
            self.finish(rec, tracer, first, last)
        shutil.rmtree(self.out, ignore_errors=True)
        return rec


class SimBattery(_CliWorkload):
    """``hipexo simulate``: replay of 33 strides, then 178 output files."""

    command = "simulate"
    default_seed = 7

    def __init__(self, hx, seed, out_root):
        super().__init__(hx, seed, out_root)
        self.task_codes: list[str] = []

    def stage_wraps(self, tracer):
        def note(tr, out):
            assisted, _logs = out
            self.task_codes.append(assisted[0].label.code)
        return super().stage_wraps(tracer) + [
            (self.hx.cli, "simulate_task", "replay.simulate_task", note)]

    def finish(self, rec, tracer, first, last):
        steps = {}
        for p in sorted((self.out / "steps").glob("*.csv")):
            code = p.stem.rsplit("_", 1)[0].replace("_", " ")
            with open(p) as fh:
                rows = sum(1 for line in fh if not line.startswith("#")) - 1
            steps[code] = steps.get(code, 0) + rows
        rec["ops"] = sum(steps.values())
        rec["counts"]["replay.steps"] = rec["ops"]
        task_s = tracer.durations("replay.simulate_task", first, last)
        rec["stage_s"] = sum(task_s)
        # one latency sample per task: its replay time per controller step
        rec["op_us"] = [d / steps[c] * 1e6
                        for d, c in zip(task_s, self.task_codes)]


class OptFit(_CliWorkload):
    """``hipexo optimize``: objective evaluations through the vectorised
    springs and scipy's Nelder-Mead."""

    command = "optimize"
    default_seed = 0

    def stage_wraps(self, tracer):
        def time_objective(minimize):
            def timed_minimize(fun, x0, *args, **kwargs):
                return minimize(tracer.traced(fun, "optimize.objective"), x0,
                                *args, **kwargs)
            return timed_minimize
        return super().stage_wraps(tracer) + [
            (self.hx.cli, "optimize", "optimize.optimize"),
            (self.hx.optimize, "minimize", "scipy.minimize", None,
             time_objective),
        ]

    def finish(self, rec, tracer, first, last):
        m = re.search(r"after (\d+) evaluations", self.stdout)
        rec["ops"] = int(m.group(1)) if m else 0
        rec["counts"]["optimize.evals"] = rec["ops"]
        rec["stage_s"] = sum(tracer.durations("optimize.optimize", first, last))
        rec["op_us"] = [d * 1e6 for d in
                        tracer.durations("optimize.objective", first, last)]
        golden = {k: float(v) for k, v in yaml.safe_load(
            resources.files("hipexo.data").joinpath("golden_sim.yaml")
            .read_text()).items()}
        table = (self.out / "sim_table.txt").read_text()
        found = {code: float(v) for code, v in
                 re.findall(r"([A-Z]{2} [\d.]+)\s+(-?\d+\.\d+)", table)}
        if set(found) != set(golden):
            rec["checks"].append("SIM table tasks differ from the golden set")
        for code, want in golden.items():
            got = found.get(code, math.nan)
            if not abs(got - want) <= SIM_TOLERANCE:
                rec["checks"].append(f"SIM {code} {got} vs golden {want}")


class LiveStream:
    """One ``HipController`` stepped frame by frame, each step timed by its
    caller: a closed loop with one client and no I/O."""

    default_seed = 0

    def __init__(self, hx, seed: int, out_root: Path):
        self.hx = hx
        self.seed = seed

    def stage_wraps(self, tracer) -> list:
        return []

    def setup(self):
        hx = self.hx
        self.params = hx.configio.load_params("default")
        self.stream = livestream.make_stream(
            self.seed, hx.gaitdata.synth_imu_stream, hx.springs.VEL_BOUND)
        cols = self.stream.columns
        names = list(cols)
        frame = hx.controller.SensorFrame
        self.frames = [frame(**dict(zip(names, row))) for row in
                       np.column_stack([cols[k] for k in names]).tolist()]
        # a runtime holds no frame backlog: keep the pre-built frames out of
        # the collector's scans so they do not lengthen its pauses
        gc.collect()
        gc.freeze()

    def run(self) -> dict:
        frames = self.frames
        n = len(frames)
        lat = np.empty(n)
        out = np.empty((n, 7))   # tau_cmd l/r, alpha l/r, beta l/r, fault
        events = []
        step = self.hx.controller.HipController(self.params).step
        clock = perf_counter
        for i in range(n):
            t0 = clock()
            r = step(frames[i])
            lat[i] = clock() - t0
            left, right = r.left, r.right
            out[i] = (left.tau_cmd, right.tau_cmd, left.alpha, right.alpha,
                      left.beta, right.beta, left.fault)
            if r.hs_event is not None:
                events.append(r.hs_event)
        return {"lat": lat, "out": out, "events": events}

    def check(self, raw: dict, tracer, first: int, last: int) -> dict:
        out, stream = raw["out"], self.stream
        checks = []
        limit = self.params.torque_limit
        if not np.all(np.abs(out[:, :2]) <= limit):
            checks.append(f"|tau_cmd| exceeds {limit} Nm")
        if not np.all((out[:, 2:6] >= 0.0) & (out[:, 2:6] <= 1.0)):
            checks.append("alpha or beta outside [0, 1]")
        faults = int(out[:, 6].sum())
        if faults != stream.fault_frames:
            checks.append(f"{faults} fault steps for {stream.fault_frames} "
                          "bad frames")
        precision, recall = livestream.detector_scores(
            stream, raw["events"], self.hx.heelstrike.match_events, 0.03)
        for key, value in (("precision", precision), ("recall", recall)):
            if value < 0.99:
                checks.append(f"detector {key} {value:.4f} < 0.99")
        lat = raw["lat"]
        # the test suite's latency gate: p99 within one control period. A
        # shared host can stall any single step past it, so single
        # overruns are counted, not failed
        p99 = float(np.percentile(lat, 99))
        if p99 >= STEP_BUDGET_S:
            checks.append(f"step latency p99 {p99 * 1e6:.0f} us is over "
                          f"the {STEP_BUDGET_S * 1e3:g} ms period")
        return {
            "checks": checks, "ops": len(lat),
            "op_us": (lat * 1e6).tolist(), "stage_s": float(lat.sum()),
            "overruns": int((lat > STEP_BUDGET_S).sum()),
            "digest": hashlib.sha256(out[:, :2].tobytes()).hexdigest(),
            "counts": {"controller.steps": len(lat),
                       "controller.fault_steps": faults,
                       "heelstrike.events": len(raw["events"]),
                       "heelstrike.truth_scored": len(stream.truth)},
            "precision": precision, "recall": recall,
        }


WORKLOADS = {"sim-battery": SimBattery, "opt-fit": OptFit,
             "live-stream": LiveStream}
