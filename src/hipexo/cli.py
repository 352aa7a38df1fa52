"""Command-line operator surface.

Subcommands wire data ingestion, simulation, optimization, detection, and
reporting into reproducible runs: fixed config + seed give byte-identical
artifacts. Every CSV, YAML and text artifact opens with a ``#`` header block
(see :mod:`hipexo.csvio`) with the tool version and config hash;
``simulate`` and ``optimize``, the commands that draw random numbers, add
the seed. Each draw has one seed, ``--seed`` if given, else the config's:
``battery.seed`` draws ``simulate``'s synthetic battery, and ``optimize``'s
top-level ``seed`` draws its search restarts (``battery.seed`` its
battery).
Exit codes: 0 ok, 1 runtime failure, 2 usage or config error.

Each config, and each params file and schema map it names, is read by
:func:`hipexo.configio.read_yaml` against its key table before any artifact
is written; the commands keep only the rules that need data: battery
channels, one task per code, warm-start bounds, an empty stride directory.

``detect-hs`` works on its whole stream at once, as replay does: it checks
the timestamp column once over every row, gates rows with one finite mask
over the five signals, and runs ``heelstrike.detect_columns`` over the
admitted rows. The detector itself checks no input.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .configio import (CONFIGS, SCHEMA, ConfigError, load_params, read_yaml,
                       save_params)
from .csvio import (open_artifact, read_columns, write_csv,
                    write_float_columns)
from .gaitdata import (CH_EXO, CH_HIP_MOMENT, CH_HIP_VEL, CH_PELVIS_ACC,
                       CH_THIGH_ACC, ActivityLabel, LoadError, StrideSeries,
                       TaskCodeError, check_codes, load_stride, load_trial,
                       normalize_stride, save_stride, segment_strides,
                       synth_battery)
from .heelstrike import HsDetectorConfig, detect_columns, match_events
from .metrics import (ensemble_average, paired_summary, percent_change,
                      read_report, task_energetics, write_paired,
                      write_report)
from .optimize import (ObjectiveSpec, TaskSet, check_in_bounds,
                       format_sim_table, optimize)
from .replay import simulate_task, write_step_log

class _Run:
    """Stages a run's artifacts and renames them into ``--out`` if the run
    succeeds, so a failed run leaves ``--out`` as it found it.

    The staging directory, ``.hipexo-*``, is made in the nearest existing
    path among ``--out`` and its parents, so each rename stays on one file
    system; when that path is not a directory the run is a config error
    before anything is staged."""

    def __init__(self, out_dir: Path, config_raw: bytes,
                 seed: int | None = None):
        self.out = out_dir
        digest = hashlib.sha256(config_raw).hexdigest()
        self.header = [f"tool: hipexo {__version__}",
                       f"config_sha256: {digest}"]
        if seed is not None:
            self.header.append(f"seed: {seed}")

    def path(self, *parts) -> Path:
        p = self.stage.joinpath(*parts)
        p.parent.mkdir(parents=True, exist_ok=True)
        return p

    def __enter__(self):
        home = next(p for p in (self.out, *self.out.parents) if p.exists())
        if not home.is_dir():
            raise ConfigError(f"--out {self.out}: {home} is not a directory")
        self.stage = Path(tempfile.mkdtemp(prefix=".hipexo-", dir=home))
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for root, _, files in os.walk(self.stage):
                    dest = self.out / os.path.relpath(root, self.stage)
                    dest.mkdir(parents=True, exist_ok=True)
                    for name in files:
                        os.replace(os.path.join(root, name), dest / name)
        finally:
            shutil.rmtree(self.stage, ignore_errors=True)
        return False


def _build_battery(spec: dict, seed: int) -> dict[ActivityLabel, list[StrideSeries]]:
    """The battery that a checked ``battery`` section describes."""
    if spec["synthetic"] and spec["dataset"] is not None:
        raise ConfigError("battery must be synthetic or list dataset "
                          "entries, not both")
    if spec["synthetic"]:
        battery = synth_battery(tasks=spec["tasks"],
                                strides_per_task=spec["strides_per_task"],
                                seed=seed, body_mass=spec["body_mass"])
    elif spec["dataset"] is not None:
        battery = {}
        for entry in spec["dataset"]:
            schema, _ = read_yaml(entry["schema"], "schema", SCHEMA)
            trial = load_trial(entry["csv"], schema)
            for i0, i1 in segment_strides(trial):
                try:
                    stride = normalize_stride(trial, (i0, i1),
                                              entry["n_samples"])
                except ValueError as exc:   # the stride contract
                    raise LoadError(
                        f"{entry['csv']}: the stride of data rows {i0 + 1}-"
                        f"{i1 + 1}, normalized to {entry['n_samples']} rows: "
                        f"{exc}") from exc
                battery.setdefault(stride.label, []).append(stride)
        # a dataset's trials of one task add to its strides
        check_codes((f"{label.kind}:{label.parameter!r}", label)
                    for label in battery)
    else:
        raise ConfigError("battery must be synthetic or list dataset entries")
    if not battery:
        raise ConfigError("battery has no tasks")
    return battery


# --- subcommands ------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg, raw = read_yaml(args.config, "simulate config", CONFIGS["simulate"])
    params = load_params(cfg["params"])
    seed = cfg["battery"]["seed"] if args.seed is None else args.seed
    battery = _build_battery(cfg["battery"], seed)
    for label, strides in battery.items():
        missing = sorted({name for s in strides
                          for name in (CH_THIGH_ACC, CH_PELVIS_ACC)
                          if name not in s.channels})
        if missing:
            raise ConfigError(
                f"task {label.code}: missing channels {missing}; heel-strike "
                "detection and descent attenuation need them")
    with _Run(Path(args.out), raw, seed) as run:
        _simulate_into(run, params, battery, cfg["cycles"])
    print(f"simulated {len(battery)} tasks -> {Path(args.out)}")
    return 0


def _simulate_into(run: _Run, params, battery, cycles: int):
    # Formatting the step logs is most of a run's time, so one forked
    # process writes them while this one replays and writes the rest; each
    # step log is queued before its stride's files, so the writer starts
    # early. Forked, not spawned: a fresh interpreter would spend about
    # what the overlap saves on imports. Once its own files are written,
    # this process takes back, from the last one down, every step log the
    # writer has not started (a future that cancel() accepts) and writes it
    # itself, so neither process idles while the other writes. Job 0 is
    # never taken back, so the writer always runs it; the run reports the
    # first failure in submission order, so a failure in the writer stays
    # the one it reports.
    from concurrent.futures import Future, ProcessPoolExecutor
    from multiprocessing import get_context

    writer = ProcessPoolExecutor(max_workers=1, mp_context=get_context("fork"))
    try:
        writes = []
        jobs = {}   # future -> its write_step_log args, until it is done
        rows = []
        for label, strides in battery.items():
            assisted, logs = simulate_task(params, strides, cycles=cycles)
            code = label.code.replace(" ", "_")

            for k, (stride, out, log) in enumerate(zip(strides, assisted, logs)):
                job = (log, run.path("steps", f"{code}_{k}.csv"), run.header)
                write = writer.submit(write_step_log, *job)
                jobs[write] = job
                write.add_done_callback(lambda done: jobs.pop(done, None))
                writes.append(write)
                # the assisted stride shares the input's channel arrays, so
                # both files are written from one formatting of each
                cells = {}
                save_stride(stride, run.path("strides", "unassisted", f"{code}_{k}.csv"),
                            run.header, cells)
                save_stride(out, run.path("strides", "assisted", f"{code}_{k}.csv"),
                            run.header, cells)

            # ensemble profiles over the task's strides (torque and power)
            n = strides[0].n
            if all(s.n == n for s in strides) and len(strides) >= 2:
                hip = [s.channels[CH_HIP_MOMENT] for s in strides]
                exo_mean, exo_sd = ensemble_average(
                    [s.channels[CH_EXO] for s in assisted])
                bio_mean, bio_sd = ensemble_average(hip)
                p_mean, p_sd = ensemble_average(
                    [m * s.channels[CH_HIP_VEL] for m, s in zip(hip, strides)])
                write_float_columns(
                    run.path("profiles", f"{code}.csv"),
                    ["percent", "bio_moment_mean", "bio_moment_sd",
                     "exo_torque_mean", "exo_torque_sd",
                     "bio_power_mean", "bio_power_sd"],
                    [np.linspace(0.0, 100.0, n), bio_mean, bio_sd,
                     exo_mean, exo_sd, p_mean, p_sd],
                    run.header, numpy_repr=True)

            scale = float(np.mean([log.mean_extension_scale for log in logs]))
            rows.append(task_energetics(strides, "unassisted", 1.0))
            rows.append(task_energetics(assisted, "assisted", scale))

        write_report(rows, run.path("report.csv"), run.header)
        save_params(params, run.path("params_used.yaml"), run.header)
        for i in range(len(writes) - 1, 0, -1):
            job = jobs.get(writes[i])
            if not writes[i].cancel():
                break   # the writer holds this job and every one before it
            writes[i] = Future()
            try:
                writes[i].set_result(write_step_log(*job))
            except Exception as exc:   # reported below, in submission order
                writes[i].set_exception(exc)
        for write in writes:
            write.result()
    finally:
        # on an error, no queued or running write may outlive the removal
        # of the staging directory it writes into
        writer.shutdown(wait=True, cancel_futures=True)


def cmd_optimize(args) -> int:
    cfg, raw = read_yaml(args.config, "optimize config", CONFIGS["optimize"])
    warm = load_params(cfg["params"])
    seed = cfg["seed"] if args.seed is None else args.seed
    battery = _build_battery(cfg["battery"], cfg["battery"]["seed"])
    tasks = [TaskSet(label, strides, cfg["weights"][label.kind])
             for label, strides in battery.items()]
    try:
        spec = ObjectiveSpec(
            tasks=tasks, free=tuple(cfg["free"]),
            bounds={k: v for k, v in cfg["bounds"].items() if v is not None},
            c_static=cfg["c_static"], c_sign=cfg["c_sign"],
            target_scale=cfg["target_scale"])
        check_in_bounds(spec, warm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    with _Run(Path(args.out), raw, seed) as run:
        result = optimize(spec, warm, budget=cfg["budget"], seed=seed)
        save_params(result.best_params, run.path("best_params.yaml"), run.header)
        write_csv(run.path("trace.csv"), ["evaluation", "best_objective"],
                  [[str(i), repr(v)] for i, v in result.trace], run.header)
        table = format_sim_table(result.per_task_sim)
        with open_artifact(run.path("sim_table.txt"), run.header) as fh:
            fh.write(table + "\n")
    print(table)
    print(f"objective {result.best_objective:.6g} after {result.n_evals} "
          f"evaluations ({result.reason})")
    return 0


def cmd_metrics(args) -> int:
    cfg, raw = read_yaml(args.config, "metrics config", CONFIGS["metrics"])

    files_of = {}   # each task's first stride file, over both sets

    def read_set(key) -> dict[str, list[StrideSeries]]:
        if cfg[key] is None:
            return {}
        files = sorted(Path(cfg[key]).glob("*.csv"))
        if not files:
            raise LoadError(f"{key} directory {cfg[key]} holds no stride "
                            "files (*.csv)")
        groups: dict[str, list[StrideSeries]] = {}
        for path, s in zip(files, map(load_stride, files)):
            files_of.setdefault(s.label, path)
            groups.setdefault(s.label.code, []).append(s)
        return groups

    unassisted = read_set("unassisted")
    assisted = read_set("assisted")
    if not unassisted and not assisted:
        raise ConfigError("metrics needs at least one of unassisted/assisted")
    check_codes((path, label) for label, path in files_of.items())

    with _Run(Path(args.out), raw) as run:
        # stride files do not carry the replay's extension scale, so an
        # assisted set reports nan rather than a value no run measured
        rows = []
        for code, strides in unassisted.items():
            rows.append(task_energetics(strides, "unassisted", 1.0))
        for code, strides in assisted.items():
            rows.append(task_energetics(strides, "assisted", math.nan))
        unmatched = set(unassisted) ^ set(assisted)
        if unassisted and assisted and unmatched:
            print(f"warning: unmatched task sets: {sorted(unmatched)}; "
                  "report is partial", file=sys.stderr)

        pairs = paired_summary(rows)
        write_report(rows, run.path("report.csv"), run.header)
        write_paired(pairs, run.path("paired.csv"), run.header)
    _print_paired(pairs)
    return 0


def _print_paired(pairs):
    print(f"{'task':<10} {'hip W+ un':>10} {'hip W+ ex':>10} {'change':>8}")
    for task, (un, ex) in pairs.items():
        if un is None or ex is None:
            print(f"{task:<10} (incomplete pair)")
            continue
        print(f"{task:<10} {un.hip_work:>10.4f} {ex.hip_work:>10.4f} "
              f"{percent_change(ex.hip_work, un.hip_work):>7.1f}%")


_HS_SIGNALS = ("thigh_accel_l", "thigh_accel_r", "pelvis_accel",
               "thigh_angle_l", "thigh_angle_r")


def _check_timestamps(t: np.ndarray) -> None:
    """Raise ``ValueError`` at the first timestamp that is not finite or not
    later than the one before it."""
    ok = np.isfinite(t)
    ok[1:] &= t[1:] > t[:-1]
    if not ok.all():
        i = int(ok.argmin())
        if not math.isfinite(t[i]):
            raise ValueError(f"non-finite timestamp {t[i].item()}")
        raise ValueError(f"non-monotonic timestamp {t[i].item()} "
                         f"after {t[i - 1].item()}")


def cmd_detect_hs(args) -> int:
    cfg, raw = read_yaml(args.config, "detect-hs config", CONFIGS["detect-hs"])
    config = HsDetectorConfig(**cfg["detector"])   # in range by its table
    stream = read_columns(cfg["input"], "stream",
                          dict.fromkeys(("t",) + _HS_SIGNALS, float))
    truth = None if cfg["truth"] is None else list(zip(*read_columns(
        cfg["truth"], "truth", {"side": str, "time": float}).values()))

    # the timestamp contract covers every row; the row gate then admits
    # the rows whose five signals are finite, and only those reach the
    # detector
    frames = np.array(list(stream.values()), dtype=float)
    _check_timestamps(frames[0])
    admit = np.isfinite(frames[1:]).all(axis=0)
    skipped = int(admit.size - admit.sum())
    t, acc_l, acc_r, acc_p, th_l, th_r = frames[:, admit]

    with _Run(Path(args.out), raw) as run:
        events = [event for _, event in detect_columns(
            cfg["rate_hz"], t, acc_l, acc_r, acc_p, th_l, th_r,
            np.zeros(t.size), config=config)]
        write_csv(run.path("events.csv"),
                  ["side", "timestamp", "source", "thigh_angle_l",
                   "thigh_angle_r", "theta_diff"],
                  [[e.side, repr(e.timestamp), e.source,
                    repr(e.thigh_snapshot.theta_thigh_l),
                    repr(e.thigh_snapshot.theta_thigh_r),
                    repr(e.thigh_snapshot.theta_diff)] for e in events],
                  run.header)

        if truth is not None:
            scores = match_events(events, truth, tol_s=cfg["match_tol_s"])
            write_csv(run.path("summary.csv"),
                      ["precision", "recall", "true_positives",
                       "detected", "truth"],
                      [[repr(scores["precision"]), repr(scores["recall"]),
                        str(scores["true_positives"]), str(len(events)),
                        str(len(truth))]], run.header)
            print(f"events={len(events)} skipped={skipped} "
                  f"precision={scores['precision']:.4f} "
                  f"recall={scores['recall']:.4f}")
        else:
            print(f"events={len(events)} skipped={skipped}")
    return 0


def cmd_report(args) -> int:
    rows = read_report(args.report)
    _print_paired(paired_summary(rows))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hipexo",
        description="Hip exoskeleton controller simulator, optimizer, and "
                    "energetics reporting")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn):
        p = sub.add_parser(name)
        p.add_argument("--config", default="default")
        p.add_argument("--out", required=True)
        p.set_defaults(fn=fn)
        return p

    add("simulate", cmd_simulate).add_argument("--seed", type=int)
    add("optimize", cmd_optimize).add_argument("--seed", type=int)
    add("metrics", cmd_metrics)
    add("detect-hs", cmd_detect_hs)
    rep = sub.add_parser("report")
    rep.add_argument("--report", required=True)
    rep.set_defaults(fn=cmd_report)

    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (ConfigError, LoadError, TaskCodeError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report and signal exit 1
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
