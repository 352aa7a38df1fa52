"""Byte pins of the CLI routes and the live command stream.

A refactor is done when every artifact stays byte-identical, so each route
here hashes what it writes and compares with a recorded sha256.
``perfbench/baseline.json`` records three digests: ``simulate --seed 7``,
``optimize --seed 0`` and the seed-0 live tau_cmd stream. These tests
recompute them with the benchmark's own code and read, never write, its
files. ``tests/data/artifact_digests.json`` records three more routes, and
the sha256 of each file of the two ``simulate`` trees so that a mismatch
names the first file that differs, with the numpy version they were
recorded under, since the step logs hold numpy scalar reprs and ``np.exp``
may round differently on another numpy. A change that moves bytes on
purpose records the new digests and names each one in CHANGES.md.
"""
import contextlib
import csv
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


def file_digests(root: Path) -> dict[str, str]:
    """{relative path: sha256} of every file under ``root``."""
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_tree_pinned(route: str, root: Path, want: str):
    """``root``'s tree digest is ``want``; otherwise fail naming the first
    file whose sha256 differs from the recorded one."""
    if artifact_digest(root)[0] == want:
        return
    got, pinned = file_digests(root), PINS["files"][route]
    first = min(path for path in got.keys() | pinned.keys()
                if got.get(path) != pinned.get(path))
    pytest.fail(f"{route}: first differing file {first}: digest "
                f"{got.get(first)}, recorded {pinned.get(first)} (recorded "
                f"under numpy {PINS['numpy']}, running {np.__version__})")


def simulate(tmp_path_factory, seed: int) -> Path:
    """The root of one ``simulate --config default --seed <seed>`` run,
    its tree under ``sim``."""
    root = tmp_path_factory.mktemp(f"sim{seed}")
    run("simulate", "--config", "default", "--seed", str(seed),
        "--out", str(root / "sim"))
    return root


@pytest.fixture(scope="module")
def sim7(tmp_path_factory):
    return simulate(tmp_path_factory, 7)


@pytest.fixture(scope="module")
def opt0(tmp_path_factory):
    """The tree of one ``optimize --config default --seed 0`` run."""
    out = tmp_path_factory.mktemp("opt0") / "opt"
    run("optimize", "--config", "default", "--seed", "0", "--out", str(out))
    return out


def test_simulate_seed_7(sim7):
    assert_tree_pinned(
        "simulate --config default --seed 7", sim7 / "sim",
        BASELINE["invariants"]["sim-battery"]["7"]["digest"])


def test_simulate_seed_11(tmp_path_factory):
    assert_tree_pinned("simulate --config default --seed 11",
                       simulate(tmp_path_factory, 11) / "sim",
                       PINS["routes"]["simulate-seed-11"]["tree"])


def test_optimize_seed_0(opt0):
    assert_baseline("optimize --config default --seed 0",
                    artifact_digest(opt0)[0], "opt-fit", 0)


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


@pytest.fixture(scope="module")
def met(sim7, tmp_path_factory):
    """(tree, stdout) of ``metrics`` on the strides of ``sim7``."""
    out = tmp_path_factory.mktemp("met") / "met"
    # relative paths, so the config bytes and so its header hash are fixed
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(sim7)
        Path("met.yaml").write_text("unassisted: sim/strides/unassisted\n"
                                    "assisted: sim/strides/assisted\n")
        return out, run("metrics", "--config", "met.yaml", "--out", str(out))


@pytest.fixture(scope="module")
def hs(tmp_path_factory):
    """(tree, stdout) of detect-hs on the stream of CI's byte-stable
    detect-hs step: 60 s at seed 13 with 100 non-finite cells, so the row
    gate skips rows."""
    frames, _ = synth_imu_stream(60.0, seed=13)
    keys = ["t", "thigh_accel_l", "thigh_accel_r", "pelvis_accel",
            "thigh_angle_l", "thigh_angle_r"]
    rng = np.random.default_rng(5)
    for row in rng.choice(len(frames["t"]), size=100, replace=False):
        frames[keys[1 + row % 5]][row] = rng.choice([np.nan, np.inf])
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("hs"))
        with open("hs-stream.csv", "w") as fh:
            fh.write(",".join(keys) + "\n")
            for values in zip(*(frames[k].tolist() for k in keys)):
                fh.write(",".join(map(repr, values)) + "\n")
        Path("hs.yaml").write_text("input: hs-stream.csv\n"
                                   "detector: {k_mad: 3.5, refresh_every: 3}\n")
        stdout = run("detect-hs", "--config", "hs.yaml", "--out", "hs")
        return Path.cwd() / "hs", stdout


def assert_route_pinned(route: str, tree: Path, stdout: str):
    want = PINS["routes"][route]
    assert_pinned(f"{route} tree", artifact_digest(tree)[0], want["tree"])
    assert_pinned(f"{route} stdout", sha256(stdout), want["stdout"])


def test_metrics_on_seed_7_strides(met):
    assert_route_pinned("metrics", *met)


def test_detect_hs_on_ci_stream(hs):
    assert_route_pinned("detect-hs", *hs)


def test_csv_artifacts_need_no_quoting(sim7, opt0, met, hs):
    """Every CSV that simulate, optimize, metrics and detect-hs write
    parses with ``csv.reader`` to its lines split at commas: no cell holds
    a comma, a quote or a line break, the rule ``write_csv`` joins by."""
    trees = (sim7 / "sim", opt0, met[0], hs[0])
    files = [path for tree in trees for path in sorted(tree.rglob("*.csv"))]
    assert len(files) == 111 + 1 + 2 + 1
    for path in files:
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith("#")]
        assert list(csv.reader(lines)) == [line.split(",") for line in lines], \
            path
