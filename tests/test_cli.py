import csv
import json
import math
import multiprocessing
import os
import re
import shutil
import time
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest
import yaml

from hipexo import cli, replay
from hipexo.cli import main
from hipexo.configio import (CONFIGS, DIR, FILE, LABEL, PARAMS, SCHEMA, check,
                             load_params, params_to_dict)
from hipexo.csvio import read_csv
from hipexo.gaitdata import (CHANNELS, ActivityLabel, load_stride,
                             save_stride, stride_meta_path, synth_battery,
                             synth_imu_stream, synth_profiles)
from hipexo.metrics import (PAIRED_COLUMNS, cosine_similarity,
                            paired_summary, percent_change, read_report,
                            stride_energetics, task_energetics, write_report)
from hipexo.optimize import PARAM_PATHS
from test_gaitdata import make_grf_trial, write_trial_csv

SMALL_BATTERY = {
    "synthetic": True,
    "seed": 7,
    "strides_per_task": 2,
    "tasks": ["level-walk:1.15", "ramp-ascent:11", "stair-descent:0.178",
              "sit-to-stand"],
}


def write_yaml(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh)
    return str(path)


OPT_BOUNDS = {"w_ext": [-10.0, -0.2], "phi_ext": [0.0, 8.0],
              "w_flex": [0.2, 10.0], "phi_flex": [0.0, 8.0],
              "theta_ext_eq": [0.05, 0.8], "theta_flex_eq": [-0.6, 0.45]}


def write_opt_config(tmp_path, **over):
    cfg = {
        "params": "default",
        "battery": {"synthetic": True, "seed": 7, "strides_per_task": 2,
                    "tasks": ["level-walk:1.15", "ramp-ascent:11"]},
        "weights": {"level-walk": 1.0, "ramp-ascent": 2.0},
        "bounds": OPT_BOUNDS,
        "budget": 300,
    }
    cfg.update(over)
    return write_yaml(tmp_path / "opt.yaml", cfg)


def write_hs_config(tmp_path, duration_s, seed):
    """Stream and truth CSVs from ``synth_imu_stream`` plus a detect-hs
    config that scores against the truth."""
    frames, truth = synth_imu_stream(duration_s, seed=seed)
    write_stream_csv(tmp_path / "stream.csv", frames)
    with open(tmp_path / "truth.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["side", "time"])
        for side, t in truth:
            w.writerow([side, repr(t)])
    return write_yaml(tmp_path / "hs.yaml",
                      {"input": str(tmp_path / "stream.csv"),
                       "rate_hz": 250.0,
                       "truth": str(tmp_path / "truth.csv")})


def assert_same_tree(a, b):
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


@pytest.fixture
def sim_config(tmp_path):
    return write_yaml(tmp_path / "sim.yaml",
                      {"params": "default", "battery": SMALL_BATTERY,
                       "cycles": 3})


def write_met_config(tmp_path, sim_config):
    """A metrics config over the stride sets of a simulate run."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", sim_config, "--out", str(sim)]) == 0
    return write_yaml(tmp_path / "met.yaml",
                      {"unassisted": str(sim / "strides" / "unassisted"),
                       "assisted": str(sim / "strides" / "assisted")})


@pytest.mark.parametrize("command", ["simulate", "optimize", "metrics",
                                     "detect-hs"])
def test_header_block_present(tmp_path, sim_config, command):
    """Every artifact opens with the tool and config hash lines; only the
    two commands that draw random numbers add a seed line."""
    config = {"simulate": lambda: sim_config,
              "optimize": lambda: write_opt_config(tmp_path),
              "metrics": lambda: write_met_config(tmp_path, sim_config),
              "detect-hs": lambda: write_hs_config(tmp_path, 10.0, 5)}[command]()
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file()
                   and not p.name.endswith(".meta.json"))
    assert files
    # SMALL_BATTERY's seed, and the search seed's default
    seed_line = {"simulate": ["# seed: 7"],
                 "optimize": ["# seed: 0"]}.get(command, [])
    for path in files:
        assert path.suffix in (".csv", ".yaml", ".txt"), path
        head = list(takewhile(lambda line: line.startswith("#"),
                              path.read_text().splitlines()))
        assert head[0].startswith("# tool: hipexo"), path
        assert head[1].startswith("# config_sha256:"), path
        assert head[2:] == seed_line, path


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
@pytest.mark.parametrize("command", ["simulate", "optimize", "metrics",
                                     "detect-hs"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys,
                                                monkeypatch, sim_config,
                                                command, under):
    """An ``--out`` that names a file, or a path under one, exits 2 before
    the run stages anything or does its work: the file is unchanged, no
    staging directory is left, and no stride is replayed, no stream
    detected and no energetics row computed. ``simulate`` exited 1 only
    after replaying and staging the whole battery, and ``detect-hs`` and
    ``metrics`` exited 2 only after detecting and computing."""
    config = {"simulate": lambda: sim_config,
              "optimize": lambda: write_opt_config(tmp_path),
              "metrics": lambda: write_met_config(tmp_path, sim_config),
              "detect-hs": lambda: write_hs_config(tmp_path, 5.0, 6)}[command]()
    called = []

    def refuse(*args, **kwargs):
        called.append(args)
        raise AssertionError("the run worked before checking --out")

    for name in ("simulate_task", "detect_columns", "task_energetics"):
        monkeypatch.setattr(cli, name, refuse)
    blocker = tmp_path / "blocker"
    blocker.write_text("mine")
    out = blocker / "sub" if under else blocker
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: --out {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "mine"
    assert not list(tmp_path.rglob(".hipexo-*"))
    assert called == []


@pytest.mark.parametrize("command", ["simulate", "optimize", "metrics",
                                     "detect-hs"])
def test_yaml_syntax_error_exits_2(tmp_path, capsys, command):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("battery: [unclosed\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} config {cfg}:"), err
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("simulate", "nowhere.yaml"), ("optimize", "."), ("metrics", "default"),
    ("detect-hs", "default")], ids=["missing", "directory",
                                    "no-packaged-metrics", "no-packaged-hs"])
def test_config_that_is_not_a_file_exits_2(tmp_path, capsys, monkeypatch,
                                           command, config):
    # a directory was a runtime failure (exit 1)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", config, "--out", "o"]) == 2
    assert capsys.readouterr().err == \
        f"error: no {command} config file {config!r}\n"
    assert not (tmp_path / "o").exists()


BAD_INTS = [2.7, "abc", True]


@pytest.mark.parametrize("value", BAD_INTS, ids=["float", "str", "bool"])
@pytest.mark.parametrize("command, over", [
    ("simulate", lambda v: {"cycles": v}),
    ("simulate", lambda v: {"battery": {**SMALL_BATTERY, "seed": v}}),
    ("simulate", lambda v: {"battery": {**SMALL_BATTERY,
                                        "strides_per_task": v}}),
    ("simulate", lambda v: {"battery": {"dataset": [
        {"schema": "schema.yaml", "csv": "trial.csv", "n_samples": v}]}}),
    ("optimize", lambda v: {"budget": v}),
    ("optimize", lambda v: {"seed": v}),
    ("optimize", lambda v: {"battery": {"synthetic": True, "seed": v}}),
    ("detect-hs", lambda v: {"detector": {"confirm_samples": v}}),
    ("detect-hs", lambda v: {"detector": {"refresh_every": v}}),
], ids=["cycles", "battery-seed", "strides_per_task", "n_samples", "budget",
        "seed", "opt-battery-seed", "confirm_samples", "refresh_every"])
def test_non_integer_config_value_exits_2(tmp_path, capsys, base_files,
                                          command, over, value):
    cfg_path = {
        "simulate": lambda: write_yaml(tmp_path / "sim.yaml",
                                       {"params": "default",
                                        "battery": SMALL_BATTERY}),
        "optimize": lambda: write_opt_config(tmp_path),
        "detect-hs": lambda: write_hs_config(tmp_path, 5.0, 6)}[command]()
    cfg = yaml.safe_load(Path(cfg_path).read_text())
    write_yaml(cfg_path, {**cfg, **over(value)})
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, over, flag", [
    ("simulate", {}, ["--seed", "-1"]),
    ("simulate", {"battery": {**SMALL_BATTERY, "seed": -1}}, []),
    ("optimize", {}, ["--seed", "-1"]),
    ("optimize", {"seed": -1}, []),
    ("optimize", {"battery": {"synthetic": True, "seed": -1}}, []),
], ids=["sim-flag", "sim-battery-seed", "opt-flag", "opt-seed",
        "opt-battery-seed"])
def test_negative_seed_exits_2(tmp_path, capsys, command, over, flag):
    cfg_path = {
        "simulate": lambda: write_yaml(tmp_path / "sim.yaml",
                                       {"params": "default",
                                        "battery": SMALL_BATTERY}),
        "optimize": lambda: write_opt_config(tmp_path)}[command]()
    cfg = yaml.safe_load(Path(cfg_path).read_text())
    write_yaml(cfg_path, {**cfg, **over})
    out = tmp_path / "o"
    assert main([command, "--config", cfg_path, "--out", str(out),
                 *flag]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "metrics", "detect-hs"],
                         ids=["sim-seed", "metrics-seed", "hs-seed"])
def test_seed_key_without_a_draw_exits_2(tmp_path, capsys, base_files,
                                         command):
    """Only ``battery.seed`` seeds simulate, and metrics and detect-hs
    draw nothing, so a top-level ``seed`` in their configs is an unknown
    key."""
    config = write_yaml(tmp_path / "cfg.yaml",
                        {**BASE_CONFIGS[command], "seed": 3})
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert "unknown top-level keys ['seed']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["metrics", "detect-hs"])
def test_seed_flag_without_a_draw_is_a_usage_error(tmp_path, capsys,
                                                   base_files, command):
    config = write_yaml(tmp_path / "cfg.yaml", BASE_CONFIGS[command])
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", config, "--out", str(out), "--seed", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_synthetic_and_dataset_battery_exits_2(tmp_path, capsys, base_files,
                                               command):
    config = write_yaml(tmp_path / "cfg.yaml", BASE_CONFIGS[command])
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert "battery must be synthetic or list dataset entries, not both" in \
        capsys.readouterr().err
    assert not out.exists()


def test_zero_strides_per_task_exits_2(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path / "sim.yaml", {
        "params": "default",
        "battery": {**SMALL_BATTERY, "strides_per_task": 0}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg_path, "--out", str(out)]) == 2
    assert "strides_per_task must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


SHARED_CODE = (["stair-ascent:0.127", "stair-ascent:0.13"],
               "stair-ascent:0.127 and stair-ascent:0.13 share the task code "
               "'SA 5'")
LISTED_TWICE = (["level-walk:1.15", "level-walk:1.15"],
                "level-walk:1.15 and level-walk:1.15 share the task code "
                "'LG 1.15'")


@pytest.mark.parametrize("command, route, tasks, message", [
    ("simulate", "synthetic", *SHARED_CODE),
    ("simulate", "synthetic", *LISTED_TWICE),
    ("optimize", "synthetic", *SHARED_CODE),
    ("optimize", "synthetic", *LISTED_TWICE),
    ("simulate", "dataset", *SHARED_CODE),
    ("optimize", "dataset", *SHARED_CODE),
], ids=["sim-shared", "sim-twice", "opt-shared", "opt-twice", "sim-dataset",
        "opt-dataset"])
def test_tasks_that_share_a_code_exit_2(tmp_path, capsys, exported_rd,
                                        command, route, tasks, message):
    """Task files and report rows are keyed by the display code, so two
    tasks with one code would overwrite or merge each other's."""
    if route == "synthetic":
        battery = {"synthetic": True, "strides_per_task": 2, "tasks": tasks}
    else:   # one exported trial, read as each task in turn
        schema = yaml.safe_load(Path(exported_rd["schema"]).read_text())
        battery = {"dataset": [
            {"schema": write_yaml(tmp_path / f"{i}.yaml",
                                  {**schema, "task": task}),
             "csv": exported_rd["csv"]} for i, task in enumerate(tasks)]}
    config = (write_opt_config(tmp_path, battery=battery)
              if command == "optimize" else
              write_yaml(tmp_path / "sim.yaml", {"battery": battery}))
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
    assert not list(tmp_path.rglob(".hipexo-*"))


# a config of each subcommand that its key table accepts, with every
# section present, the dataset entry and a pair for each bound included,
# so that each key of its table can be set (a battery both synthetic and
# a dataset passes the table; _build_battery rejects it); the files and
# directory it names are made by the base_files fixture
BASE_CONFIGS = {
    "simulate": {"params": "default", "cycles": 3, "battery": {
        **SMALL_BATTERY,
        "dataset": [{"schema": "schema.yaml", "csv": "trial.csv"}]}},
    "optimize": {"params": "default", "battery": {
        **SMALL_BATTERY,
        "dataset": [{"schema": "schema.yaml", "csv": "trial.csv"}]},
        "weights": {},
        "bounds": {name: [-100.0, 100.0] for name in PARAM_PATHS}},
    "metrics": {"unassisted": "unassisted"},
    "detect-hs": {"input": "stream.csv", "detector": {}},
}
# a valid schema map with every section and channel present; its keys are
# set through simulate on a dataset battery that names it as s.yaml
BASE_SCHEMA = {"sample_rate_hz": 100.0, "body_mass_kg": 70.0,
               "stance_fraction": 0.6, "task": "level-walk:1.0",
               "columns": {name: {"name": name} for name in CHANNELS},
               "prefilter": {}}
WRONG_TYPE = {int: 2.5, float: "abc", str: [1], bool: "abc", list: "abc",
              FILE: [1], DIR: [1], LABEL: "jogging:2"}


@pytest.fixture
def base_files(tmp_path, monkeypatch):
    """The files and the directory that BASE_CONFIGS name, empty, in the
    working directory: the key-table walk checks only that each path
    exists and is of its kind."""
    monkeypatch.chdir(tmp_path)
    for name in ("schema.yaml", "trial.csv", "stream.csv"):
        (tmp_path / name).touch()
    (tmp_path / "unassisted").mkdir()


def table_cases():
    """(command, key path, value, variant, message) for every entry of
    every key table: a value of the wrong type, an explicit null (a
    section reads null as empty or as unset, so only its keys get one),
    one below the entry's minimum where it has one, and a nan and an inf
    for a number, each with the start of the message that rejects it; and
    a misspelled key. A file or directory key also gets a path that does
    not exist and one of the other kind, a list its first item and a pair
    each of its items, checked under the pair's name. The keys of a
    params file and of a schema map are set through ``simulate``."""
    def dotted(path):
        return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                       for k in path)[1:]

    def cases(command, path, kind, minimum, name=None):
        name = name or dotted(path)
        if isinstance(kind, dict):
            yield command, path, [1], "wrong-type", \
                f"{name} section must be a mapping"
        else:
            yield command, path, (
                [1.0] if isinstance(kind, tuple) else
                "abc" if isinstance(kind, list) else WRONG_TYPE[kind]), \
                "wrong-type", f"{name} must be"
            yield command, path, None, "null", f"{name} must be"
        if isinstance(path[-1], str):
            yield command, path, None, "misspelled", None
        if minimum is not None:
            below = minimum - 1 if kind is int else minimum
            yield command, path, below, "below-minimum", f"{name} must be"
        if kind is float:
            for bad in (math.nan, math.inf):
                yield command, path, bad, f"non-finite-{bad}", \
                    f"{name} must be finite"
        if kind in (FILE, DIR):
            message = f"{name} must be an existing {kind}"
            yield command, path, "nowhere", "missing-path", message
            yield command, path, "." if kind is FILE else "trial.csv", \
                "wrong-kind", message
        if isinstance(kind, dict):
            for key, (sub, sub_minimum, _) in kind.items():
                yield from cases(command, path + (key,), sub, sub_minimum)
        elif isinstance(kind, list):
            yield from cases(command, path + (0,), kind[0], minimum)
        elif isinstance(kind, tuple):
            for i, item in enumerate(kind):
                yield from cases(command, path + (i,), item, minimum, name)

    for command, table in {**CONFIGS, "schema": SCHEMA}.items():
        for key, (kind, minimum, _) in table.items():
            yield from cases(command, (key,), kind, minimum)
    for section, keys in PARAMS.items():
        yield from cases("params", (section,),
                         dict.fromkeys(keys, (float, None, None)), None)


TABLE_CASES = list(table_cases())


@pytest.mark.parametrize(
    "command, path, value, variant, message", TABLE_CASES,
    ids=[f"{command}:{'.'.join(map(str, path))}:{variant}"
         for command, path, _, variant, _ in TABLE_CASES])
def test_every_table_entry_is_checked(tmp_path, capsys, base_files, command,
                                      path, value, variant, message):
    """Each key of each key table exits 2 with no ``--out`` tree when its
    value has the wrong type, is null, is below its minimum, is not a
    finite number or names no file or directory of its kind, and the
    message names the key and the value; when the key is misspelled, the
    message names the nearest known key."""
    if command == "params":
        cfg = params_to_dict(load_params("default"))
        base = {"params": str(tmp_path / "p.yaml"), "battery": SMALL_BATTERY}
    elif command == "schema":
        cfg = BASE_SCHEMA
        base = {"battery": {"dataset": [{"schema": str(tmp_path / "s.yaml"),
                                         "csv": "trial.csv"}]}}
    else:
        cfg = base = BASE_CONFIGS[command]
    cfg = yaml.safe_load(yaml.safe_dump(cfg))   # a deep copy
    *owners, key = path
    node = cfg
    for owner in owners:
        node = node.setdefault(owner, {}) if isinstance(owner, str) \
            else node[owner]
    if variant == "misspelled":
        misspelled = key[:-2] + key[-1]
        node[misspelled] = node.pop(key, 1)
        messages = [f"did you mean {key!r} for {misspelled!r}?"]
    else:
        node[key] = value
        messages = [message, f"got {value!r}"]
    if command in ("params", "schema"):
        write_yaml(tmp_path / f"{command[0]}.yaml", cfg)
        cfg, command = base, "simulate"
    config = write_yaml(tmp_path / "cfg.yaml", cfg)
    out = tmp_path / "o"
    assert main([command, "--config", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(text in err for text in messages), err
    assert not out.exists()


class TestSimulate:
    def test_smoke_outputs(self, tmp_path, sim_config):
        out = tmp_path / "out"
        assert main(["simulate", "--config", sim_config, "--out", str(out)]) == 0
        report = read_report(out / "report.csv")
        tasks = {r.task for r in report}
        assert len(tasks) == 4
        assert len(report) == 8  # one row per task per condition
        assert (out / "params_used.yaml").exists()
        assisted = sorted((out / "strides" / "assisted").glob("*.csv"))
        assert len(assisted) == 8
        stride = load_stride(assisted[0])
        assert "exo_torque" in stride.channels
        steps = sorted((out / "steps").glob("*.csv"))
        assert len(steps) == 8

    def test_byte_identical_rerun(self, tmp_path, sim_config):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["simulate", "--config", sim_config, "--out", str(a),
                     "--seed", "7"]) == 0
        assert main(["simulate", "--config", sim_config, "--out", str(b),
                     "--seed", "7"]) == 0
        assert_same_tree(a, b)

    def test_missing_params_file_exit_2(self, tmp_path):
        cfg = write_yaml(tmp_path / "bad.yaml",
                         {"params": str(tmp_path / "nope_params.yaml"),
                          "battery": SMALL_BATTERY})
        rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("over, section, value, message", [
        ({"cycles": 0}, None, None, "cycles must be >= 1"),
        ({}, "sts", None, "missing key 'sts'"),
        ({}, "gait", {"k_ext": float("nan")},
         "gait.k_ext must be finite, got nan"),
        ({"battery": {**SMALL_BATTERY, "tasks": ["jogging:2"]}}, None, None,
         "unknown activity kind 'jogging'"),
        ({"battery": {**SMALL_BATTERY, "tasks": ["level-walk:9"]}}, None,
         None, "walking speed 9.0 m/s out of range"),
        ({"battery": {**SMALL_BATTERY, "tasks": "level-walk"}}, None, None,
         "tasks must be a list, got 'level-walk'"),
        ({"battery": {**SMALL_BATTERY, "body_mass": "abc"}}, None, None,
         "body_mass must be a number, got 'abc'"),
        ({"battery": {**SMALL_BATTERY, "body_mass": -5}}, None, None,
         "body_mass must be finite and > 0"),
        ({"battery": {"dataset": [{"csv": "trial.csv"}]}}, None, None,
         "needs keys ['schema']"),
        ({"battery": {**SMALL_BATTERY, "tasks": []}}, None, None,
         "battery has no tasks"),
        ({"battery": ["level-walk:1.15"]}, None, None,
         "battery section must be a mapping, got ['level-walk:1.15']"),
    ], ids=["cycles-0", "params-missing-section", "params-k_ext-nan",
            "task-unknown-kind", "task-out-of-range", "tasks-bare-string",
            "body_mass-str", "body_mass-negative", "dataset-no-schema",
            "tasks-empty", "battery-list"])
    def test_bad_config_exits_2_without_artifacts(self, tmp_path, capsys,
                                                  over, section, value,
                                                  message):
        params = params_to_dict(load_params("default"))
        if value is None:
            params.pop(section, None)
        else:
            params[section].update(value)
        cfg = write_yaml(tmp_path / "sim.yaml",
                         {"params": write_yaml(tmp_path / "p.yaml", params),
                          "battery": SMALL_BATTERY, **over})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_failure_after_first_files_leaves_none(self, tmp_path, capsys,
                                                    sim_config, monkeypatch):
        """A run that fails once stride files and their ``.meta.json``
        sidecars are staged publishes none of them and removes its staging
        directory, which sits beside the missing ``--out``."""
        out = tmp_path / "o"
        written = []

        def failing_report(*args):
            written.extend(p for p in tmp_path.glob(".hipexo-*/**/*")
                           if p.is_file())
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_report", failing_report)
        assert main(["simulate", "--config", sim_config,
                     "--out", str(out)]) == 1
        assert "runtime failure: disk full" in capsys.readouterr().err
        assert any(p.name.endswith(".meta.json") for p in written)
        assert not out.exists()
        assert not list(tmp_path.glob(".hipexo-*"))

    def test_failed_write_in_writer_process_leaves_none(
            self, tmp_path, capsys, sim_config, monkeypatch):
        """A step-log write that fails in the writer process fails the run
        (exit 1), removes every file and directory the run made and leaves
        no child process. The forked writer inherits the patch."""
        out = tmp_path / "o"

        def failing_write(*args, **kwargs):
            raise OSError(f"disk full in pid {os.getpid()}")

        monkeypatch.setattr(replay, "write_float_columns", failing_write)
        assert main(["simulate", "--config", sim_config,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "runtime failure: disk full in pid" in err
        assert f"pid {os.getpid()}" not in err   # raised in the child
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_failure_keeps_existing_out_and_foreign_files(
            self, tmp_path, sim_config, monkeypatch):
        """A failed run leaves a pre-existing ``--out`` as it found it:
        a file the run did not write stays, and the staging directory made
        inside ``--out`` is gone."""
        out = tmp_path / "o"
        (out / "steps").mkdir(parents=True)
        (out / "steps" / "keep.txt").write_text("mine")
        monkeypatch.setattr(cli, "write_report", lambda *args: 1 / 0)
        assert main(["simulate", "--config", sim_config,
                     "--out", str(out)]) == 1
        assert sorted(p.relative_to(out) for p in out.rglob("*")) == [
            Path("steps"), Path("steps/keep.txt")]

    def test_failed_rerun_keeps_previous_tree(self, tmp_path, capsys,
                                              sim_config, monkeypatch):
        """A re-run into the ``--out`` of a finished run that fails after
        staging every file but the report leaves the finished run's tree
        byte for byte, with no staging directory in it."""
        out, ref = tmp_path / "o", tmp_path / "ref"
        assert main(["simulate", "--config", sim_config, "--out", str(out),
                     "--seed", "7"]) == 0
        shutil.copytree(out, ref)

        def failing_report(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_report", failing_report)
        assert main(["simulate", "--config", sim_config, "--out", str(out),
                     "--seed", "8"]) == 1
        assert "runtime failure: disk full" in capsys.readouterr().err
        assert_same_tree(ref, out)
        assert not list(out.glob(".hipexo-*"))

    @pytest.mark.parametrize("fail", [False, True], ids=["ok", "failed"])
    def test_missing_nested_out(self, tmp_path, sim_config, monkeypatch,
                                fail):
        """A run into a missing ``a/b/out`` makes the parents only when it
        succeeds, and leaves no staging directory either way."""
        out = tmp_path / "a" / "b" / "out"
        if fail:
            monkeypatch.setattr(cli, "write_report", lambda *args: 1 / 0)
        assert main(["simulate", "--config", sim_config,
                     "--out", str(out)]) == (1 if fail else 0)
        assert (tmp_path / "a").exists() is not fail
        if not fail:
            assert (out / "report.csv").is_file()
        assert not list(tmp_path.rglob(".hipexo-*"))

    def test_step_logs_match_in_process_writes(self, tmp_path, sim_config):
        """Each step log, whichever process wrote it (the forked writer, or
        the run's own process after taking the job back), and each
        unassisted and assisted stride file with its ``.meta.json``
        sidecar, equals, byte for byte, the same stride's replay written
        alone in this process."""
        out = tmp_path / "out"
        assert main(["simulate", "--config", sim_config, "--out", str(out)]) == 0
        cfg = check(CONFIGS["simulate"],
                    yaml.safe_load(Path(sim_config).read_text()))
        header = cli._Run(out, Path(sim_config).read_bytes(), 7).header
        params = load_params("default")
        ref = tmp_path / "ref.csv"
        written = sorted(p.relative_to(out) for p in out.rglob("*.csv")
                         if p.parent.name != "profiles"
                         and p.name != "report.csv")
        expected = []
        for label, strides in cli._build_battery(cfg["battery"], 7).items():
            assisted, logs = replay.simulate_task(params, strides,
                                                  cycles=cfg["cycles"])
            for k, (stride, out_stride, log) in enumerate(
                    zip(strides, assisted, logs)):
                name = f"{label.code.replace(' ', '_')}_{k}.csv"
                replay.write_step_log(log, ref, header)
                expected.append(Path("steps", name))
                assert (out / "steps" / name).read_bytes() == ref.read_bytes()
                for condition, s in (("unassisted", stride),
                                     ("assisted", out_stride)):
                    save_stride(s, ref, header)
                    path = out / "strides" / condition / name
                    expected.append(path.relative_to(out))
                    assert path.read_bytes() == ref.read_bytes(), path
                    assert stride_meta_path(path).read_bytes() == \
                        stride_meta_path(ref).read_bytes(), path
        assert written == sorted(expected)

    @staticmethod
    def slow_writer(monkeypatch, here):
        """Patch ``replay.write_float_columns`` so that each step log the
        forked writer writes (the writer inherits the patch) first sleeps
        0.3 s, and each one the run's own process writes first calls
        ``here(path)``. The writer then still holds its first jobs when the
        run's own files are written, so the run takes the others back."""
        pid = os.getpid()
        write = replay.write_float_columns

        def patched(path, *args, **kwargs):
            if os.getpid() == pid:
                here(path)
            else:
                time.sleep(0.3)
            write(path, *args, **kwargs)

        monkeypatch.setattr(replay, "write_float_columns", patched)

    def test_slow_writer_step_logs_taken_back(self, tmp_path, sim_config,
                                              monkeypatch):
        """Step logs the writer has not started are written by the run's
        own process, never the first one, and the tree is byte-identical to
        a run whose writer is not slowed."""
        ref = tmp_path / "ref"
        assert main(["simulate", "--config", sim_config, "--out", str(ref)]) == 0
        here = []
        self.slow_writer(monkeypatch, here.append)
        out = tmp_path / "out"
        assert main(["simulate", "--config", sim_config, "--out", str(out)]) == 0
        assert here
        assert "LG_1.15_0.csv" not in {p.name for p in here}   # job 0
        assert_same_tree(ref, out)

    def test_failed_taken_back_write_leaves_none(self, tmp_path, capsys,
                                                 sim_config, monkeypatch):
        """A step-log write that fails in the run's own process, on a job
        taken back from a slow writer, fails the run (exit 1), removes every
        file and directory the run made and leaves no child process."""
        def failing_write(path):
            raise OSError(f"disk full in pid {os.getpid()}")

        self.slow_writer(monkeypatch, failing_write)
        out = tmp_path / "o"
        assert main(["simulate", "--config", sim_config,
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"runtime failure: disk full in pid {os.getpid()}" in err
        assert not out.exists()
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("imu", [False, True], ids=["no-imu", "imu"])
    def test_dataset_stride_needs_imu_channels(self, tmp_path, capsys, imu):
        """simulate refuses a dataset stride without the thigh and pelvis
        acceleration channels, which heel-strike detection and descent
        attenuation need, before any artifact; optimize, which replays
        nothing, accepts it."""
        trial = make_grf_trial(n_contacts=4)
        channels = dict(trial.channels)
        if imu:
            channels["thigh_accel"] = channels["pelvis_accel"] = \
                np.cos(np.arange(channels["grf_vertical"].size) / 10.0)
        units = {"grf_vertical": "N/kg", "hip_vel": "rad/s",
                 "hip_moment": "Nm/kg", "thigh_accel": "m/s^2",
                 "pelvis_accel": "m/s^2"}
        write_trial_csv(tmp_path / "trial.csv", zip(*channels.values()),
                        list(channels))
        schema = write_yaml(tmp_path / "schema.yaml", {
            "sample_rate_hz": trial.sample_rate_hz, "body_mass_kg": 70.0,
            "task": "level-walk:1.0",
            "columns": {name: {"name": name, "unit": units.get(name, "rad")}
                        for name in channels}})
        battery = {"dataset": [{"schema": schema,
                                "csv": str(tmp_path / "trial.csv")}]}
        sim = write_yaml(tmp_path / "sim.yaml",
                         {"params": "default", "battery": battery})
        out = tmp_path / "sim"
        rc = main(["simulate", "--config", sim, "--out", str(out)])
        err = capsys.readouterr().err
        if imu:
            assert rc == 0, err
            assert len(list((out / "steps").iterdir())) == 3
        else:
            assert rc == 2
            assert err == (
                "error: task LG 1: missing channels ['pelvis_accel', "
                "'thigh_accel']; heel-strike detection and descent "
                "attenuation need them\n")
            assert not out.exists()
        opt = write_opt_config(tmp_path, battery=battery, budget=20)
        assert main(["optimize", "--config", opt,
                     "--out", str(tmp_path / "opt")]) == 0

    @pytest.mark.xfail(
        np.lib.NumpyVersion(np.__version__) >= "2.0.0", strict=True,
        reason="step-log and profile cells are repr() of numpy scalars, which "
               "numpy 2 writes as 'np.float64(...)'; the fix changes the "
               "sim-battery artifact digest, so perfbench/baseline.json must "
               "be re-recorded with it")
    def test_step_and_profile_cells_parse_as_float(self, tmp_path, sim_config):
        out = tmp_path / "out"
        assert main(["simulate", "--config", sim_config, "--out", str(out)]) == 0
        paths = [*(out / "steps").glob("*.csv"), *(out / "profiles").glob("*.csv")]
        assert paths
        for path in paths:
            _, rows = read_csv(path)
            for row in rows:
                for cell in row:
                    float(cell)


# the units of each exported channel that is not in m/s^2 (the IMU ones)
EXPORT_UNITS = {**dict.fromkeys(("hip_angle", "hip_angle_contra", "thigh_angle",
                                 "thigh_angle_contra", "torso_angle"), "deg"),
                **dict.fromkeys(("hip_vel", "hip_vel_contra", "knee_vel",
                                 "ankle_vel"), "deg/s"),
                **dict.fromkeys(("hip_moment", "knee_moment", "ankle_moment"),
                                "Nm"),
                "grf_vertical": "N"}


def export_trials(root, tasks=("RD 11", "SD 7"), rate_hz=100.0):
    """Write each task's strides of the default battery (seed 7), played
    twice in a row, as a raw trial sampled at ``rate_hz`` in deg, Nm and N
    units, IMU columns included, with a schema map per trial; and the
    ``simulate`` and ``optimize`` configs over them, ``sim.yaml`` and
    ``opt.yaml``. Returns the battery and the ``dataset`` entries."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    battery = synth_battery(seed=7)
    entries = []
    for label, strides in battery.items():
        if label.code not in tasks:
            continue
        names = sorted(strides[0].channels)
        mass = strides[0].body_mass
        columns = {name: [] for name in names}
        for stride in strides * 2:
            grid = np.linspace(0.0, stride.cycle_duration, stride.n)
            t = np.arange(0.0, stride.cycle_duration, 1.0 / rate_hz)
            for name in names:
                columns[name].append(np.interp(t, grid, stride.channels[name]))
        scale = {"deg": 180.0 / math.pi, "deg/s": 180.0 / math.pi,
                 "Nm": mass, "N": mass}
        units = {name: EXPORT_UNITS.get(name, "m/s^2") for name in names}
        tag = label.code.replace(" ", "_")
        write_trial_csv(root / f"{tag}.csv", zip(*(
            np.concatenate(columns[name]) * scale.get(units[name], 1.0)
            for name in names)), [f"Raw_{name}" for name in names])
        write_yaml(root / f"{tag}.yaml", {
            "sample_rate_hz": rate_hz, "body_mass_kg": mass,
            "task": f"{label.kind}:{label.parameter}",
            "columns": {name: {"name": f"Raw_{name}", "unit": units[name]}
                        for name in names}})
        entries.append({"schema": str(root / f"{tag}.yaml"),
                        "csv": str(root / f"{tag}.csv")})
    write_yaml(root / "sim.yaml", {"battery": {"dataset": entries}})
    write_yaml(root / "opt.yaml", {"battery": {"dataset": entries},
                                   "bounds": OPT_BOUNDS, "budget": 100})
    return battery, entries


class TestDatasetRoute:
    def test_export_replays_as_the_synthetic_battery(self, tmp_path, capsys):
        """The real-data route, run on an export of synthetic strides,
        segments 5 of each task's 6 strides (the last one has no closing
        heel strike), and replays them with the synthetic path's mean
        extension scale within 0.004 and its heel-strike events per stride
        within 1. ``simulate`` and ``optimize`` run on it end to end."""
        synthetic, entries = export_trials(tmp_path)
        cfg = check(CONFIGS["simulate"], {"battery": {"dataset": entries}})
        dataset = cli._build_battery(cfg["battery"], 7)
        assert sorted(label.code for label in dataset) == ["RD 11", "SD 7"]
        params = load_params("default")
        for label, strides in dataset.items():
            assert len(strides) == 5, label.code
            runs = [replay.simulate_task(params, s, cycles=cfg["cycles"])[1]
                    for s in (strides, synthetic[label])]
            scale_d, scale_s = [np.mean([log.mean_extension_scale
                                         for log in logs]) for logs in runs]
            events_d, events_s = [[len(log.events) for log in logs]
                                  for logs in runs]
            print(f"\n{label.code}: scale {scale_d:.4f} vs {scale_s:.4f}, "
                  f"events per stride {events_d} vs {events_s}")
            assert abs(scale_d - scale_s) <= 0.004, label.code
            assert events_s == [7, 7, 7]
            assert all(abs(n - 7) <= 1 for n in events_d), label.code
        assert main(["simulate", "--config", str(tmp_path / "sim.yaml"),
                     "--out", str(tmp_path / "sim")]) == 0
        assert len(list((tmp_path / "sim" / "steps").iterdir())) == 10
        assert main(["optimize", "--config", str(tmp_path / "opt.yaml"),
                     "--out", str(tmp_path / "opt")]) == 0


@pytest.fixture(scope="module")
def exported_rd(tmp_path_factory):
    """The ``dataset`` entry of ``export_trials``' RD 11 trial."""
    _, [entry] = export_trials(tmp_path_factory.mktemp("rd"), tasks=("RD 11",))
    return entry


def rename(mapping, old, new):
    mapping[new] = mapping.pop(old)


# (id, edit of a valid schema map or None for a YAML syntax error, part of
# the message that rejects it)
SCHEMA_FAULTS = [
    ("sample_rate-str", lambda s: s.update(sample_rate_hz="abc"),
     "sample_rate_hz must be a number, got 'abc'"),
    ("task-unknown-kind", lambda s: s.update(task="jogging:2"),
     "task must be an activity label, got 'jogging:2': "
     "unknown activity kind 'jogging'"),
    ("yaml-syntax", None, "while parsing a flow sequence"),
    ("prefilter-str", lambda s: s.update(prefilter={"kinematics_hz": "x"}),
     "prefilter.kinematics_hz must be a number, got 'x'"),
    ("columns-list", lambda s: s.update(columns=[1]),
     "columns section must be a mapping, got [1]"),
    ("prefiltr", lambda s: s.update(prefiltr={"grf_hz": 20.0}),
     "unknown top-level keys ['prefiltr']; "
     "did you mean 'prefilter' for 'prefiltr'?"),
    ("knee_momnet", lambda s: rename(s["columns"], "knee_moment",
                                     "knee_momnet"),
     "unknown columns keys ['knee_momnet']; "
     "did you mean 'knee_moment' for 'knee_momnet'?"),
    ("stance_fraction-negative", lambda s: s.update(stance_fraction=-3),
     "stance_fraction must be finite and > 0, got -3.0"),
    # a misspelled 'unit' key once loaded degrees as radians
    ("column-units-typo",
     lambda s: rename(s["columns"]["hip_angle"], "unit", "units"),
     "unknown columns.hip_angle keys ['units']; "
     "did you mean 'unit' for 'units'?"),
    ("column-no-name", lambda s: s["columns"]["hip_angle"].pop("name"),
     "columns.hip_angle needs keys ['name']"),
    ("column-bare-name",
     lambda s: s["columns"].update(hip_angle="Raw_hip_angle"),
     "columns.hip_angle section must be a mapping, got 'Raw_hip_angle'"),
    # a trial without a task was once labelled level-walk 1.0
    ("task-misspelled", lambda s: rename(s, "task", "taks"),
     "unknown top-level keys ['taks']; did you mean 'task' for 'taks'?"),
    ("task-missing", lambda s: s.pop("task"),
     "top-level needs keys ['task']"),
]


@pytest.mark.parametrize("edit, message", [f[1:] for f in SCHEMA_FAULTS],
                         ids=[f[0] for f in SCHEMA_FAULTS])
def test_bad_schema_exits_2_before_artifacts(tmp_path, capsys, exported_rd,
                                             edit, message):
    """A dataset schema map is read against its key table before any
    artifact: each fault of an otherwise valid map exits 2 with a message
    that names the schema file and the key. Until the map had a table, the
    first five cases were runtime failures (exit 1), and ``prefiltr``, a
    misspelled ``knee_moment`` and a negative stance fraction ran (exit
    0), the second without the knee moment in lower-limb W+."""
    schema = tmp_path / "schema.yaml"
    if edit is None:
        schema.write_text("columns: [unclosed\n")
    else:
        values = yaml.safe_load(Path(exported_rd["schema"]).read_text())
        edit(values)
        write_yaml(schema, values)
    cfg = write_yaml(tmp_path / "sim.yaml", {"battery": {"dataset": [
        {"schema": str(schema), "csv": exported_rd["csv"]}]}})
    out = tmp_path / "o"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: schema {schema}: "), err
    assert message in err, err
    assert not out.exists()


def spike_hip_vel(entry, root):
    """The ``dataset`` entry of ``entry``'s trial with its Raw_hip_vel cell
    at data row 40 set to 2000 deg/s: 28.9 rad/s at row 30 of the first
    normalized stride."""
    lines = Path(entry["csv"]).read_text().splitlines(keepends=True)
    row = lines[40].rstrip("\n").split(",")
    row[lines[0].rstrip("\n").split(",").index("Raw_hip_vel")] = "2000.0"
    lines[40] = ",".join(row) + "\n"
    (root / "spike.csv").write_text("".join(lines))
    return {**entry, "csv": str(root / "spike.csv")}


def drop_hip_moment(entry, root):
    """The ``dataset`` entry of ``entry``'s trial read through a schema map
    that leaves ``hip_moment`` unmapped."""
    schema = yaml.safe_load(Path(entry["schema"]).read_text())
    del schema["columns"]["hip_moment"]
    return {**entry, "schema": write_yaml(root / "schema.yaml", schema)}


@pytest.mark.parametrize("command", ["simulate", "optimize"])
@pytest.mark.parametrize("edit, reason", [
    (spike_hip_vel, r"channel 'hip_vel' holds 28\.88[0-9]* at data row 30, "
     r"at or past the hip velocity bound 25\.0 rad/s"),
    (drop_hip_moment,
     re.escape("stride missing required channels: ['hip_moment']")),
], ids=["hip_vel-2000-deg-s", "no-hip_moment"])
def test_stride_that_breaks_the_contract_exits_2(tmp_path, capsys,
                                                 exported_rd, command, edit,
                                                 reason):
    """A trial stride that ``StrideSeries`` refuses is a load error naming
    the trial CSV and the stride's data rows, before any artifact (was exit
    1 naming no file without ``hip_moment``, and exit 0 with replay gating
    the spike's frames)."""
    entry = edit(exported_rd, tmp_path)
    cfg = write_yaml(tmp_path / "cfg.yaml", {
        "battery": {"dataset": [entry]},
        **({"bounds": OPT_BOUNDS} if command == "optimize" else {})})
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(re.escape(
        f"error: {entry['csv']}: the stride of data rows 3-130, normalized "
        "to 101 rows: ") + reason + "\n", err), err
    assert not out.exists()
    assert not list(tmp_path.rglob(".hipexo-*"))


class TestOptimize:
    def test_smoke(self, tmp_path, capsys):
        cfg = write_opt_config(tmp_path)
        out = tmp_path / "opt_out"
        assert main(["optimize", "--config", cfg, "--out", str(out),
                     "--seed", "0"]) == 0
        assert (out / "best_params.yaml").exists()
        assert (out / "trace.csv").exists()
        assert "Activity" in capsys.readouterr().out

    def test_budget_one_single_trace_row(self, tmp_path):
        cfg = write_opt_config(tmp_path, budget=1)
        out = tmp_path / "b1"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
        rows = [r for r in (out / "trace.csv").read_text().splitlines()
                if r and not r.startswith("#")]
        assert len(rows) == 2  # header + single evaluation

    def test_infeasible_bounds_fail_before_eval(self, tmp_path):
        cfg = write_opt_config(tmp_path,
                               bounds={"w_ext": [10.0, -0.2], "phi_ext": [0, 8],
                                       "w_flex": [0.2, 10], "phi_flex": [0, 8],
                                       "theta_ext_eq": [0.05, 0.8],
                                       "theta_flex_eq": [-0.6, 0.45]})
        rc = main(["optimize", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc in (1, 2)
        assert not (tmp_path / "x" / "best_params.yaml").exists()

    def test_warm_start_outside_bounds_exits_2(self, tmp_path, capsys):
        # was a runtime failure (exit 1) raised from inside the run
        warm = load_params("default").gait
        bounds = {**OPT_BOUNDS, "theta_ext_eq": [2.1, 3.0],
                  "w_flex": [5.0, 10.0]}
        cfg = write_opt_config(tmp_path, bounds=bounds)
        out = tmp_path / "x"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "parameters outside bounds" in err
        for name in ("theta_ext_eq", "w_flex"):
            lo, hi = bounds[name]
            value = (warm.theta_ext_eq if name == "theta_ext_eq"
                     else warm.vel_mod_flex.w)
            assert f"{name}={value!r} not in [{lo!r}, {hi!r}]" in err
        assert "phi_ext" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("over, message", [
        ({"bounds": {**OPT_BOUNDS, "w_ext": [float("-inf"), -0.2]}},
         "must be finite"),
        ({"bounds": {**OPT_BOUNDS, "phi_flex": [0.0, float("inf")]}},
         "must be finite"),
        ({"target_scale": float("nan")}, "must be finite"),
        ({"target_scale": float("inf")}, "must be finite"),
        ({"budget": 0}, "budget must be >= 1"),
        ({"weights": {"level-walk": "abc"}},
         "weights.level-walk must be a number, got 'abc'"),
        ({"bounds": {**OPT_BOUNDS, "w_ext": ["abc", -0.2]}},
         "bounds.w_ext must be a number, got 'abc'"),
        ({"bounds": {**OPT_BOUNDS, "w_ext": [-10]}},
         "bounds.w_ext must be a list of 2 numbers, got [-10]"),
        ({"free": "w_ext"}, "free must be a list, got 'w_ext'"),
        ({"weights": [1, 2]}, "weights section must be a mapping, got [1, 2]"),
        ({"bounds": [1, 2]}, "bounds section must be a mapping, got [1, 2]"),
        ({"battery": [1, 2]}, "battery section must be a mapping, got [1, 2]"),
        ({"battery": {"synthetic": True, "tasks": []}}, "battery has no tasks"),
        ({"c_sign": [1]}, "c_sign must be a number, got [1]"),
        ({"free": []}, "at least one free parameter required"),
        ({"free": ["w_ext", "w_ext"]},
         "free parameters listed twice: ['w_ext', 'w_ext']"),
    ], ids=["w_ext-inf", "phi_flex-inf", "target_scale-nan", "target_scale-inf",
            "budget-0", "weight-str", "bound-str", "bound-one-value",
            "free-bare-string",
            "weights-list", "bounds-list", "battery-list", "tasks-empty",
            "c_sign-list", "free-empty", "free-repeated"])
    def test_bad_spec_exits_2_without_artifacts(self, tmp_path, capsys, over,
                                                message):
        cfg = write_opt_config(tmp_path, **over)
        out = tmp_path / "x"
        assert main(["optimize", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("over, seed", [({}, "0"), ({"seed": 3}, "3")],
                             ids=["no-seed-key", "top-level-seed"])
    def test_search_seed_falls_back_to_config_seed(self, tmp_path, over, seed):
        # the battery seed (7) is not the search seed
        cfg = write_opt_config(tmp_path, **over)
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["optimize", "--config", cfg, "--out", str(a)]) == 0
        assert main(["optimize", "--config", cfg, "--out", str(b),
                     "--seed", seed]) == 0
        assert_same_tree(a, b)

    def test_unset_objective_settings_take_spec_defaults(self, tmp_path):
        """A config without c_static, c_sign and target_scale gives the
        artifacts of one that sets ObjectiveSpec's defaults, 0.5, 1.0 and
        20.0, apart from the config hash in the header."""
        def artifacts(name, **over):
            (tmp_path / name).mkdir()
            cfg = write_opt_config(tmp_path / name, budget=60, **over)
            out = tmp_path / name / "out"
            assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
            return {p.name: [line for line in p.read_text().splitlines()
                             if not line.startswith("# config_sha256")]
                    for p in sorted(out.iterdir())}

        unset = artifacts("unset")
        assert unset == artifacts("set", c_static=0.5, c_sign=1.0,
                                  target_scale=20.0)
        assert unset != artifacts("other", c_static=0.05)


# the paper's changes over its hip-intensive tasks, assisted relative to
# unassisted, in percent
PAPER_HIP_WORK_PCT = -24.7
PAPER_LOWERLIMB_WORK_PCT = -9.3
# the paper's mean cosine similarity of exo power against biological power
PAPER_POWER_SIM = 0.89


def hip_intensive_pairs(report):
    """{task: (unassisted, assisted)} of the hip-intensive tasks of a
    ``report.csv``."""
    pairs = {task: pair for task, pair
             in paired_summary(read_report(report)).items()
             if pair[0].hip_intensive}
    assert len(pairs) == 7   # LG x2, RA x2, SA x2, STS
    return pairs


def check_paper_directions(pairs):
    """Print each pair's changes beside the paper's means and assert the
    paper's three reductions on every pair."""
    print(f"\n{'task':<9}{'hip W+':>9}{'paper':>8}{'limb W+':>9}"
          f"{'paper':>8}{'peak P':>9}")
    for task, (un, ex) in pairs.items():
        print(f"{task:<9}{percent_change(ex.hip_work, un.hip_work):>8.1f}%"
              f"{PAPER_HIP_WORK_PCT:>7.1f}%"
              f"{percent_change(ex.lowerlimb_work, un.lowerlimb_work):>8.1f}%"
              f"{PAPER_LOWERLIMB_WORK_PCT:>7.1f}%"
              f"{percent_change(ex.peak_bio_power, un.peak_bio_power):>8.1f}%")
    for task, (un, ex) in pairs.items():
        assert ex.hip_work < un.hip_work, task
        assert ex.lowerlimb_work < un.lowerlimb_work, task
        assert ex.peak_bio_power < un.peak_bio_power, task


@pytest.fixture(scope="module")
def default_met(tmp_path_factory):
    """Output directory of ``metrics`` over the assisted and unassisted
    strides of ``simulate --config default --seed 7``."""
    root = tmp_path_factory.mktemp("default-run")
    sim_out = root / "sim"
    assert main(["simulate", "--config", "default", "--seed", "7",
                 "--out", str(sim_out)]) == 0
    cfg = write_yaml(root / "met.yaml", {
        "unassisted": str(sim_out / "strides" / "unassisted"),
        "assisted": str(sim_out / "strides" / "assisted"),
    })
    assert main(["metrics", "--config", cfg, "--out", str(root / "met")]) == 0
    return root / "met"


class TestMetrics:
    def test_identical_sets_zero_change(self, tmp_path, sim_config, capsys):
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_config, "--out", str(sim_out)])
        cfg = write_yaml(tmp_path / "met.yaml", {
            "unassisted": str(sim_out / "strides" / "unassisted"),
            "assisted": str(sim_out / "strides" / "unassisted"),
        })
        out = tmp_path / "met_out"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "paired.csv") as fh:
            rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
        for row in rows:
            assert float(row["hip_work_change_pct"]) == pytest.approx(0.0,
                                                                      abs=1e-9)

    def test_real_pairing_reduces_hip_work(self, tmp_path, sim_config):
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_config, "--out", str(sim_out)])
        cfg = write_yaml(tmp_path / "met.yaml", {
            "unassisted": str(sim_out / "strides" / "unassisted"),
            "assisted": str(sim_out / "strides" / "assisted"),
        })
        out = tmp_path / "met_out"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "paired.csv") as fh:
            rows = list(csv.DictReader(r for r in fh if not r.startswith("#")))
        assert all(float(r["hip_work_change_pct"]) < 0.0 for r in rows)

    def test_peak_total_power_unchanged_by_construction(self, default_met):
        # replay holds the kinematics and the net hip moment fixed, so the
        # assisted bio + exo power equals the unassisted net power
        header, rows = read_csv(default_met / "paired.csv")
        col = header.index("peak_total_power_change_pct")
        assert len(rows) == 11
        for row in rows:
            assert abs(float(row[col])) <= 1e-9, row[0]

    def test_paper_direction_on_hip_intensive_tasks(self, default_met):
        """Assisted hip and lower-limb positive work and peak biological hip
        power are below unassisted on every hip-intensive task, as in the
        paper (hip W+ -24.7 %, lower-limb W+ -9.3 % on average)."""
        check_paper_directions(
            hip_intensive_pairs(default_met / "report.csv"))

    @pytest.mark.parametrize("seed, power_sim", [(7, 0.8924), (11, 0.8946)])
    def test_paper_quantities_of_simulate(self, tmp_path, seed, power_sim):
        """The paper's quantities from ``simulate``'s own report and stride
        files, printed beside the abstract's values. The three reductions
        hold on every hip-intensive task. The power SIM is the cosine of exo
        power (tau_exo/m * omega) against unassisted biological power
        (M * omega) per stride, averaged over each task's strides and then
        over the 7 tasks; it is pinned within 0.002 of the value measured at
        this seed. Nothing is tuned toward the paper's 0.89: the synthetic
        battery is not the paper's data."""
        out = tmp_path / "sim"
        assert main(["simulate", "--config", "default", "--seed", str(seed),
                     "--out", str(out)]) == 0
        pairs = hip_intensive_pairs(out / "report.csv")
        sims = {}
        for path in sorted((out / "strides" / "assisted").glob("*.csv")):
            ex = load_stride(path)
            un = load_stride(out / "strides" / "unassisted" / path.name)
            sims.setdefault(ex.label.code, []).append(cosine_similarity(
                stride_energetics(ex)["exo_power"],
                stride_energetics(un)["bio_power"]))
        assert all(len(sims[task]) == 3 for task in pairs)
        sim = float(np.mean([np.mean(sims[task]) for task in pairs]))
        mean_change = {q: np.mean([percent_change(getattr(ex, q),
                                                  getattr(un, q))
                                   for un, ex in pairs.values()])
                       for q in ("hip_work", "lowerlimb_work",
                                 "peak_bio_power")}
        print(f"\nseed {seed}, mean over the 7 hip-intensive tasks (paper "
              f"in brackets): hip W+ {mean_change['hip_work']:.2f}% "
              f"[{PAPER_HIP_WORK_PCT}%], lower-limb W+ "
              f"{mean_change['lowerlimb_work']:.2f}% "
              f"[{PAPER_LOWERLIMB_WORK_PCT}%], peak biological power "
              f"{mean_change['peak_bio_power']:.2f}% [lower], "
              f"power SIM {sim:.4f} [{PAPER_POWER_SIM}]")
        check_paper_directions(pairs)
        assert abs(sim - power_sim) <= 0.002, sim

    def test_paired_csv_layout(self, default_met):
        """paired.csv has the columns of ``metrics.PAIRED_COLUMNS``, a row
        per task with both conditions, and a float in every cell but the
        task's."""
        header, rows = read_csv(default_met / "paired.csv")
        assert tuple(header) == PAIRED_COLUMNS
        assert len(rows) == 11
        for row in rows:
            assert len(row) == len(header)
            for cell in row[1:]:
                float(cell)

    def test_extension_scale_not_invented(self, default_met):
        """Stride files do not carry the replay's extension scale: metrics
        reports 1.0 for unassisted sets and nan for assisted ones, where
        simulate's report has the measured value."""
        rows = read_report(default_met / "report.csv")
        assert len(rows) == 22
        for row in rows:
            if row.condition == "unassisted":
                assert row.mean_extension_scale == 1.0, row.task
            else:
                assert math.isnan(row.mean_extension_scale), row.task
        header, paired = read_csv(default_met / "paired.csv")
        col = header.index("mean_extension_scale")
        assert [row[col] for row in paired] == ["nan"] * 11

    def test_empty_inputs_error(self, tmp_path):
        cfg = write_yaml(tmp_path / "met.yaml", {})
        assert main(["metrics", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_directory_without_stride_files_exits_2(self, tmp_path, capsys):
        # was exit 0 with an "(incomplete pair)" row per task
        stride = synth_profiles(ActivityLabel("level-walk", 1.15), seed=0)
        (tmp_path / "un").mkdir()
        (tmp_path / "empty").mkdir()
        save_stride(stride, tmp_path / "un" / "LG_0.csv")
        cfg = write_yaml(tmp_path / "met.yaml", {
            "unassisted": str(tmp_path / "un"),
            "assisted": str(tmp_path / "empty")})
        out = tmp_path / "o"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: assisted directory {tmp_path / 'empty'} holds no "
            "stride files (*.csv)\n")
        assert not out.exists()

    @pytest.mark.parametrize("second", ["un", "ex"])
    def test_tasks_that_share_a_code_exit_2(self, tmp_path, capsys, second):
        """SA 0.127 m and SA 0.13 m both have the code 'SA 5', which keys
        report rows, in one set or across the two."""
        for name in ("un", "ex"):
            (tmp_path / name).mkdir()
        first = tmp_path / "un" / "SA_5_0.csv"
        other = tmp_path / second / "SA_5_1.csv"
        save_stride(synth_profiles(ActivityLabel("stair-ascent", 0.127), 0),
                    first)
        save_stride(synth_profiles(ActivityLabel("stair-ascent", 0.13), 1),
                    other)
        if second == "un":   # the assisted set holds SA 0.127 m only
            save_stride(synth_profiles(ActivityLabel("stair-ascent", 0.127),
                                       2), tmp_path / "ex" / "SA_5_2.csv")
        cfg = write_yaml(tmp_path / "met.yaml", {
            "unassisted": str(tmp_path / "un"),
            "assisted": str(tmp_path / "ex")})
        out = tmp_path / "o"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {first} and {other} share the task code 'SA 5'\n")
        assert not out.exists()
        assert not list(tmp_path.rglob(".hipexo-*"))

    @pytest.mark.parametrize("edit, reason", [
        (("hip_vel", "nan"), "channel 'hip_vel' holds nan at data row 51"),
        (("exo_torque", "inf"),
         "channel 'exo_torque' holds inf at data row 51"),
        # the frame gate's own bound: replay would have gated its frames
        (("hip_vel", "25.0"), "channel 'hip_vel' holds 25.0 at data row 51, "
         "at or past the hip velocity bound 25.0 rad/s"),
        (1, "channel 'ankle_moment' has 1 data row(s), not 2 or more"),
        (0, "channel 'ankle_moment' has 0 data row(s), not 2 or more"),
    ], ids=["nan-hip_vel", "inf-exo_torque", "vel-bound-hip_vel", "one-row",
            "no-rows"])
    def test_bad_stride_file_exits_2(self, tmp_path, default_met, capsys,
                                     edit, reason):
        """A stride file with a non-finite cell, a hip velocity at the
        gate's bound or under 2 data rows is a load error naming the file
        and the channel, raised by ``StrideSeries`` before any artifact
        (was exit 1 with no file named, or exit 0 at the bound)."""
        strides = default_met.parent / "sim" / "strides"
        for condition in ("unassisted", "assisted"):
            shutil.copytree(strides / condition, tmp_path / condition)
        bad = tmp_path / "assisted" / "RA_11_0.csv"
        lines = bad.read_text().splitlines(keepends=True)
        names = next(i for i, line in enumerate(lines)
                     if not line.startswith("#"))
        if isinstance(edit, int):
            lines = lines[:names + 1 + edit]
        else:
            channel, cell = edit
            row = lines[names + 51].rstrip("\n").split(",")
            row[lines[names].rstrip("\n").split(",").index(channel)] = cell
            lines[names + 51] = ",".join(row) + "\n"
        bad.write_text("".join(lines))
        cfg = write_yaml(tmp_path / "met.yaml", {
            "unassisted": str(tmp_path / "unassisted"),
            "assisted": str(tmp_path / "assisted")})
        out = tmp_path / "o"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {reason}\n"
        assert not out.exists()
        assert not list(tmp_path.rglob(".hipexo-*"))

    @pytest.mark.parametrize("edit, reason", [
        (lambda m: m.update(cycle_duration=math.inf),
         r"cycle_duration and body_mass must be finite and > 0, got inf and "
         r"70\.0"),
        (lambda m: m.update(body_mass=math.inf),
         r"cycle_duration and body_mass must be finite and > 0, got "
         r"1\.[0-9]+ and inf"),
        (lambda m: m.update(body_mass=None),
         "sidecar body_mass must be a number, got None"),
        (lambda m: m.pop("kind"), "unknown activity kind None"),
        (lambda m: m.update(parameter="x"),
         "sidecar parameter must be a number, got 'x'"),
        (None, "Expecting ',' delimiter: .*"),
    ], ids=["inf-cycle_duration", "inf-body_mass", "null-body_mass",
            "no-kind", "string-parameter", "truncated-json"])
    def test_bad_sidecar_exits_2(self, tmp_path, default_met, capsys,
                                 edit, reason):
        """A sidecar that is not JSON, lacks a key or holds other than a
        finite positive number where one goes is a load error naming the
        stride file, raised before any artifact (was exit 0 with a nan or
        zeroed result, or exit 1 naming no file)."""
        strides = default_met.parent / "sim" / "strides"
        for condition in ("unassisted", "assisted"):
            shutil.copytree(strides / condition, tmp_path / condition)
        bad = tmp_path / "assisted" / "RA_11_0.csv"
        sidecar = stride_meta_path(bad)
        if edit is None:
            sidecar.write_text(sidecar.read_text()[:-1])   # no closing brace
        else:
            meta = json.loads(sidecar.read_text())
            edit(meta)
            sidecar.write_text(json.dumps(meta))
        cfg = write_yaml(tmp_path / "met.yaml", {
            "unassisted": str(tmp_path / "unassisted"),
            "assisted": str(tmp_path / "assisted")})
        out = tmp_path / "o"
        assert main(["metrics", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {re.escape(str(bad))}: {reason}\n", err)
        assert not out.exists()
        assert not list(tmp_path.rglob(".hipexo-*"))

    def test_unmatched_sets_warn_partial(self, tmp_path, sim_config, capsys):
        sim_out = tmp_path / "sim"
        main(["simulate", "--config", sim_config, "--out", str(sim_out)])
        only_lg = tmp_path / "only_lg"
        only_lg.mkdir()
        for f in (sim_out / "strides" / "assisted").glob("LG*"):
            (only_lg / f.name).write_bytes(f.read_bytes())
        cfg = write_yaml(tmp_path / "met.yaml", {
            "unassisted": str(sim_out / "strides" / "unassisted"),
            "assisted": str(only_lg),
        })
        assert main(["metrics", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
        assert "unmatched" in capsys.readouterr().err


def write_stream_csv(path, frames):
    keys = ["t", "thigh_accel_l", "thigh_accel_r", "pelvis_accel",
            "thigh_angle_l", "thigh_angle_r"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys)
        for i in range(len(frames["t"])):
            w.writerow([repr(float(frames[k][i])) for k in keys])


class TestDetectHs:
    def test_synthetic_fixture_scores(self, tmp_path, capsys):
        cfg = write_hs_config(tmp_path, 40.0, 5)
        out = tmp_path / "hs_out"
        assert main(["detect-hs", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            row = list(csv.DictReader(r for r in fh if not r.startswith("#")))[0]
        assert float(row["precision"]) >= 0.99
        assert float(row["recall"]) >= 0.99

    def test_empty_stream_empty_events_exit_0(self, tmp_path):
        n = 100
        frames = {k: np.zeros(n) for k in
                  ("thigh_accel_l", "thigh_accel_r", "pelvis_accel",
                   "thigh_angle_l", "thigh_angle_r")}
        frames["t"] = np.arange(n) / 250.0
        write_stream_csv(tmp_path / "stream.csv", frames)
        cfg = write_yaml(tmp_path / "hs.yaml",
                         {"input": str(tmp_path / "stream.csv")})
        out = tmp_path / "hs_out"
        assert main(["detect-hs", "--config", cfg, "--out", str(out)]) == 0
        rows = [r for r in (out / "events.csv").read_text().splitlines()
                if r and not r.startswith("#")]
        assert len(rows) == 1  # header only

    def test_zero_truth_against_detections(self, tmp_path, capsys):
        frames, _ = synth_imu_stream(20.0, seed=6)
        write_stream_csv(tmp_path / "stream.csv", frames)
        (tmp_path / "truth.csv").write_text("side,time\n")
        cfg = write_yaml(tmp_path / "hs.yaml",
                         {"input": str(tmp_path / "stream.csv"),
                          "truth": str(tmp_path / "truth.csv")})
        out = tmp_path / "hs_out"
        assert main(["detect-hs", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            row = list(csv.DictReader(r for r in fh if not r.startswith("#")))[0]
        assert float(row["precision"]) == 0.0

    def test_missing_columns_exit_2(self, tmp_path):
        (tmp_path / "stream.csv").write_text("t,thigh_accel_l\n0.0,0.0\n")
        cfg = write_yaml(tmp_path / "hs.yaml",
                         {"input": str(tmp_path / "stream.csv")})
        assert main(["detect-hs", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_truth_missing_columns_exit_2(self, tmp_path, capsys):
        frames, _ = synth_imu_stream(5.0, seed=6)
        write_stream_csv(tmp_path / "stream.csv", frames)
        (tmp_path / "truth.csv").write_text("leg,t\nleft,1.5\n")
        cfg = write_yaml(tmp_path / "hs.yaml",
                         {"input": str(tmp_path / "stream.csv"),
                          "truth": str(tmp_path / "truth.csv")})
        assert main(["detect-hs", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "missing truth columns ['side', 'time']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "events.csv").exists()

    @pytest.mark.parametrize("over, bad_cell, message", [
        ({"detector": [4.0]}, None, "detector section must be a mapping"),
        ({"detector": {"bogus": 1}}, None, "unknown detector keys ['bogus']"),
        ({"detector": {"k_mad": -1}}, None, "must be finite and > 0"),
        ({"detector": {"k_mad": float("nan")}}, None,
         "must be finite and > 0"),
        ({"detector": {"warmup_s": -3.0}}, None,
         "detector.warmup_s must be finite and > 0, got -3.0"),
        ({"rate_hz": 0}, None, "rate_hz must be finite and > 0"),
        ({"rate_hz": True}, None, "rate_hz must be a number, got True"),
        ({"rate_hz": "abc"}, None, "rate_hz must be a number, got 'abc'"),
        ({}, ("stream.csv", "abc"), "bad stream row"),
        ({}, ("truth.csv", "soon"), "bad truth row"),
        ({"match_tol_s": "abc"}, None, "match_tol_s must be a number"),
        ({"match_tol_s": -1}, None, "match_tol_s must be finite and > 0"),
    ], ids=["detector-not-mapping", "detector-unknown-key", "k_mad-negative",
            "k_mad-nan", "warmup_s-negative", "rate_hz-0", "rate_hz-bool",
            "rate_hz-str", "stream-cell", "truth-cell",
            "match_tol_s-str", "match_tol_s-negative"])
    def test_bad_config_exits_2_before_detecting(self, tmp_path, capsys, over,
                                                 bad_cell, message):
        cfg_path = write_hs_config(tmp_path, 5.0, 6)
        if bad_cell is not None:
            # the second cell of the first data row: an acceleration in the
            # stream, a time in the truth
            name, cell = bad_cell
            lines = (tmp_path / name).read_text().splitlines()
            row = lines[1].split(",")
            row[1] = cell
            lines[1] = ",".join(row)
            (tmp_path / name).write_text("\n".join(lines) + "\n")
        with open(cfg_path) as fh:
            cfg = yaml.safe_load(fh)
        write_yaml(cfg_path, {**cfg, **over})
        out = tmp_path / "o"
        assert main(["detect-hs", "--config", cfg_path, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "events.csv").exists()

    def test_nan_accel_cell_does_not_blind_channel(self, tmp_path, capsys):
        frames, _ = synth_imu_stream(20.0, seed=5)
        write_stream_csv(tmp_path / "clean.csv", frames)
        t_nan = 8.0
        i = int(np.searchsorted(frames["t"], t_nan))
        frames["thigh_accel_l"][i] = np.nan
        write_stream_csv(tmp_path / "stream.csv", frames)

        def left_events(name):
            cfg = write_yaml(tmp_path / f"{name}.yaml",
                             {"input": str(tmp_path / f"{name}.csv")})
            out = tmp_path / f"{name}_out"
            assert main(["detect-hs", "--config", cfg, "--out", str(out)]) == 0
            _, rows = read_csv(out / "events.csv")
            return [float(r[1]) for r in rows
                    if r[0] == "left" and t_nan < float(r[1]) <= t_nan + 2.0]

        clean = left_events("clean")
        assert "skipped=0" in capsys.readouterr().out
        gated = left_events("stream")
        assert "skipped=1" in capsys.readouterr().out
        assert gated == clean and gated

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["thigh_accel_l", "thigh_accel_r",
                                        "pelvis_accel", "thigh_angle_l",
                                        "thigh_angle_r"])
    def test_non_finite_rows_skipped_before_detector(
            self, tmp_path, capsys, detector_timestamps, column, value):
        """The row gate counts and skips each row with a non-finite cell;
        the detector, which takes finite samples only, sees the rest."""
        frames, _ = synth_imu_stream(5.0, seed=6)
        frames[column][[100, 400]] = value
        write_stream_csv(tmp_path / "stream.csv", frames)
        cfg = write_yaml(tmp_path / "hs.yaml",
                         {"input": str(tmp_path / "stream.csv")})
        assert main(["detect-hs", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
        assert "skipped=2" in capsys.readouterr().out
        assert detector_timestamps == [
            t for k, t in enumerate(frames["t"].tolist())
            if k not in (100, 400)]

    @pytest.mark.parametrize("row, bad, gated, message", [
        (0, math.nan, False, "non-finite timestamp nan"),
        (0, math.inf, False, "non-finite timestamp inf"),
        (5, math.nan, False, "non-finite timestamp nan"),
        (5, -math.inf, False, "non-finite timestamp -inf"),
        (5, 1, False, "non-monotonic timestamp 0.016 after 0.016"),
        (5, 2, False, "non-monotonic timestamp 0.012 after 0.016"),
        (100, math.nan, True, "non-finite timestamp nan"),
        (100, 1, True, "non-monotonic timestamp 0.396 after 0.396"),
        (100, 2, True, "non-monotonic timestamp 0.392 after 0.396"),
    ], ids=["first-nan", "first-inf", "admitted-nan", "admitted-neg-inf",
            "admitted-repeat", "admitted-decrease", "gated-nan",
            "gated-repeat", "gated-decrease"])
    def test_gated_row_keeps_timestamp_contract(self, tmp_path, capsys,
                                                detector_timestamps, row,
                                                bad, gated, message):
        """The timestamp check covers every row, gated or admitted, the
        first row included, and names the first bad one before the
        detector runs. ``row`` takes the non-finite ``bad``, or the
        timestamp of the row ``bad`` rows before it; a later bad row is
        not reached."""
        frames, _ = synth_imu_stream(5.0, seed=6)
        t = frames["t"]
        if gated:
            frames["thigh_accel_l"][row] = np.nan
        t[row] = t[row - bad] if isinstance(bad, int) else bad
        t[row + 3] = -1.0
        write_stream_csv(tmp_path / "stream.csv", frames)
        cfg = write_yaml(tmp_path / "hs.yaml",
                         {"input": str(tmp_path / "stream.csv")})
        out = tmp_path / "o"
        assert main(["detect-hs", "--config", cfg, "--out", str(out)]) == 1
        assert f"runtime failure: {message}\n" == capsys.readouterr().err
        assert detector_timestamps == []
        assert not out.exists()


class TestReport:
    def test_prints_paired_table(self, tmp_path, sim_config, capsys):
        out = tmp_path / "sim"
        main(["simulate", "--config", sim_config, "--out", str(out)])
        capsys.readouterr()
        assert main(["report", "--report", str(out / "report.csv")]) == 0
        text = capsys.readouterr().out
        assert "hip W+" in text
        assert "STS" in text


def csv_input(tmp_path, name):
    """A valid input of the CSV kind ``name`` and its route through the
    command line: (argv, the CSV file, a column that the route reads)."""
    out = ["--out", str(tmp_path / "o")]
    if name in ("stream", "truth"):
        cfg = write_hs_config(tmp_path, 5.0, 6)
        column = "pelvis_accel" if name == "stream" else "time"
        return ["detect-hs", "--config", cfg, *out], \
            tmp_path / f"{name}.csv", column
    if name == "trial":
        trial = make_grf_trial(n_contacts=4)
        channels = dict(trial.channels)
        channels["thigh_accel"] = channels["pelvis_accel"] = \
            np.cos(np.arange(channels["grf_vertical"].size) / 10.0)
        write_trial_csv(tmp_path / "trial.csv", zip(*channels.values()),
                        list(channels))
        schema = write_yaml(tmp_path / "schema.yaml", {
            "sample_rate_hz": trial.sample_rate_hz, "body_mass_kg": 70.0,
            "task": "level-walk:1.0",
            "columns": {name: {"name": name, "unit": "rad"}
                        for name in channels}})
        cfg = write_yaml(tmp_path / "sim.yaml", {"battery": {"dataset": [
            {"schema": schema, "csv": str(tmp_path / "trial.csv")}]}})
        return ["simulate", "--config", cfg, *out], \
            tmp_path / "trial.csv", "hip_moment"
    stride = synth_profiles(ActivityLabel("level-walk", 1.15), seed=0)
    if name == "stride":
        (tmp_path / "strides").mkdir()
        save_stride(stride, tmp_path / "strides" / "LG_0.csv")
        cfg = write_yaml(tmp_path / "met.yaml",
                         {"unassisted": str(tmp_path / "strides")})
        return ["metrics", "--config", cfg, *out], \
            tmp_path / "strides" / "LG_0.csv", "hip_moment"
    write_report([task_energetics([stride], "unassisted", 1.0)],
                 tmp_path / "report.csv")
    return ["report", "--report", str(tmp_path / "report.csv")], \
        tmp_path / "report.csv", "sim"


@pytest.mark.parametrize("cell", ["yes", "", "2"])
def test_report_flag_cell_must_be_0_or_1(tmp_path, capsys, cell):
    """A ``hip_intensive`` cell other than 0 or 1 exits 2 naming the file
    and the column; any such cell once read as false (exit 0)."""
    argv, path, _ = csv_input(tmp_path, "report")
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[header.split(",").index("hip_intensive")] = cell
    path.write_text(f"{header}\n{','.join(cells)}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert f"column 'hip_intensive': expected 0 or 1, got {cell!r}" in err


@pytest.mark.parametrize("cell", ["asisted", "", "Assisted"])
def test_report_condition_must_be_known(tmp_path, capsys, cell):
    """A ``condition`` other than unassisted or assisted exits 2 naming the
    file and the column; a misspelled one was read as a third condition
    (exit 0, every task an incomplete pair)."""
    argv, path, _ = csv_input(tmp_path, "report")
    header, row = path.read_text().splitlines()
    cells = row.split(",")
    cells[header.split(",").index("condition")] = cell
    path.write_text(f"{header}\n{','.join(cells)}\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert ("column 'condition': expected one of ['unassisted', "
            f"'assisted'], got {cell!r}") in err


def test_report_repeated_row_exits_2(tmp_path, capsys):
    """A second row for one (task, condition) exits 2 naming the file; it
    silently replaced the first (exit 0)."""
    argv, path, _ = csv_input(tmp_path, "report")
    header, row = path.read_text().splitlines()
    path.write_text(f"{header}\n{row}\n{row}\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: bad report row: data row 2 repeats task "
        "'LG 1.15' unassisted\n")


@pytest.mark.parametrize("fault", ["missing-column", "short-row",
                                   "bad-cell"])
@pytest.mark.parametrize("name", ["stream", "truth", "trial", "stride",
                                  "report"])
def test_bad_csv_input_exits_2(tmp_path, capsys, name, fault):
    """Every CSV input is read by one column reader: a column the route
    reads that is missing, a row without a cell for it, or a cell that
    does not parse exits 2 with a message that names the file, and leaves
    no ``--out`` tree. A short stride or report row was a runtime failure
    (exit 1)."""
    argv, path, column = csv_input(tmp_path, name)
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header, row = lines[head].split(","), lines[head + 1].split(",")
    j = header.index(column)
    if fault == "missing-column":
        header[j] += "_x"
    elif fault == "short-row":
        row = row[:j]
    else:
        row[j] = "abc"
    lines[head], lines[head + 1] = ",".join(header), ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: "), err
    assert ("missing" if fault == "missing-column" else "row") in err, err
    assert not (tmp_path / "o").exists()
