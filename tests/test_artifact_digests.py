"""Byte pins of the CLI routes and the live command stream.

A refactor is done when every artifact stays byte-identical, so each route
here hashes what it writes and compares with a recorded sha256.
``perfbench/baseline.json`` records three digests: ``simulate --seed 7``,
``optimize --seed 0`` and the seed-0 live tau_cmd stream. These tests
recompute them with the benchmark's own code and read, never write, its
files. ``tests/data/artifact_digests.json`` records two more routes, with
the numpy version they were recorded under, since the step logs hold
numpy scalar reprs and ``np.exp`` may round differently on another numpy.
A change that moves bytes on purpose records the new digests and names
each one in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from hipexo.cli import main
from hipexo.configio import load_params
from hipexo.controller import HipController, SensorFrame
from hipexo.gaitdata import synth_imu_stream
from hipexo.springs import VEL_BOUND

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import livestream  # noqa: E402
from workloads import artifact_digest  # noqa: E402

BASELINE = json.loads((BENCH / "baseline.json").read_text())
PINS = json.loads((Path(__file__).resolve().parent / "data"
                   / "artifact_digests.json").read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(*argv) -> str:
    """The stdout of ``hipexo *argv``, run in-process; it must exit 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0, argv
    return buf.getvalue()


def assert_pinned(route: str, got: str, want: str, record=PINS):
    assert got == want, (
        f"{route}: digest {got}, recorded {want} (recorded under numpy "
        f"{record['numpy']}, running {np.__version__})")


def assert_baseline(route: str, got: str, workload: str, seed: int):
    assert_pinned(route, got,
                  BASELINE["invariants"][workload][str(seed)]["digest"],
                  BASELINE["context"])


@pytest.fixture(scope="module")
def sim7(tmp_path_factory):
    """The root of one ``simulate --config default --seed 7`` run, its
    tree under ``sim``."""
    root = tmp_path_factory.mktemp("sim7")
    run("simulate", "--config", "default", "--seed", "7",
        "--out", str(root / "sim"))
    return root


def test_simulate_seed_7(sim7):
    assert_baseline("simulate --config default --seed 7",
                    artifact_digest(sim7 / "sim")[0], "sim-battery", 7)


def test_optimize_seed_0(tmp_path):
    run("optimize", "--config", "default", "--seed", "0",
        "--out", str(tmp_path / "opt"))
    assert_baseline("optimize --config default --seed 0",
                    artifact_digest(tmp_path / "opt")[0], "opt-fit", 0)


def test_live_tau_cmd_stream_seed_0():
    """The live-stream workload's digest: both sides' tau_cmd of one
    controller stepped over every frame of the seed-0 stream."""
    columns = livestream.make_stream(0, synth_imu_stream, VEL_BOUND).columns
    step = HipController(load_params("default")).step
    tau = []
    for row in np.column_stack(list(columns.values())).tolist():
        result = step(SensorFrame(*row))
        tau.append((result.left.tau_cmd, result.right.tau_cmd))
    assert_baseline("live-stream seed 0",
                    hashlib.sha256(np.array(tau).tobytes()).hexdigest(),
                    "live-stream", 0)


def test_metrics_on_seed_7_strides(sim7, tmp_path, monkeypatch):
    # relative paths, so the config bytes and so its header hash are fixed
    monkeypatch.chdir(sim7)
    Path("met.yaml").write_text("unassisted: sim/strides/unassisted\n"
                                "assisted: sim/strides/assisted\n")
    stdout = run("metrics", "--config", "met.yaml",
                 "--out", str(tmp_path / "met"))
    want = PINS["routes"]["metrics"]
    assert_pinned("metrics tree", artifact_digest(tmp_path / "met")[0],
                  want["tree"])
    assert_pinned("metrics stdout", sha256(stdout), want["stdout"])


def test_detect_hs_on_ci_stream(tmp_path, monkeypatch):
    """The stream of CI's byte-stable detect-hs step: 60 s at seed 13 with
    100 non-finite cells, so the row gate skips rows."""
    frames, _ = synth_imu_stream(60.0, seed=13)
    keys = ["t", "thigh_accel_l", "thigh_accel_r", "pelvis_accel",
            "thigh_angle_l", "thigh_angle_r"]
    rng = np.random.default_rng(5)
    for row in rng.choice(len(frames["t"]), size=100, replace=False):
        frames[keys[1 + row % 5]][row] = rng.choice([np.nan, np.inf])
    monkeypatch.chdir(tmp_path)
    with open("hs-stream.csv", "w") as fh:
        fh.write(",".join(keys) + "\n")
        for values in zip(*(frames[k].tolist() for k in keys)):
            fh.write(",".join(map(repr, values)) + "\n")
    Path("hs.yaml").write_text("input: hs-stream.csv\n"
                               "detector: {k_mad: 3.5, refresh_every: 3}\n")
    stdout = run("detect-hs", "--config", "hs.yaml", "--out", "hs")
    want = PINS["routes"]["detect-hs"]
    assert_pinned("detect-hs tree", artifact_digest(tmp_path / "hs")[0],
                  want["tree"])
    assert_pinned("detect-hs stdout", sha256(stdout), want["stdout"])
