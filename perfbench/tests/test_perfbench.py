"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import livestream  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from worker import import_program  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def unit(workload, seed, trace=False):
    rec = run.spawn_unit(workload, seed, trace, 0, perf_counter() + 170)
    assert rec["checks"] == []
    return rec


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(workload, trace):
    proc = bench(workload, 3, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] for line in lines[:-1])


def test_same_seed_same_counts_other_seed_other_inputs():
    a, b, c = unit("live-stream", 5), unit("live-stream", 5), \
        unit("live-stream", 6)
    assert a["counts"] == b["counts"] and a["digest"] == b["digest"]
    assert c["digest"] != a["digest"]
    assert unit("opt-fit", 1)["counts"] == unit("opt-fit", 1)["counts"]
    assert unit("opt-fit", 1)["counts"] != unit("opt-fit", 0)["counts"]


def test_stream_is_a_function_of_the_seed():
    hx = import_program()

    def cols(seed):
        s = livestream.make_stream(seed, hx.gaitdata.synth_imu_stream,
                                   hx.springs.VEL_BOUND)
        return np.vstack(list(s.columns.values())).tobytes(), s.truth

    assert cols(2) == cols(2)
    assert cols(2)[0] != cols(3)[0]


@pytest.mark.parametrize("workload,seed", [("live-stream", 4),
                                           ("opt-fit", 2)])
def test_traced_outputs_match_untraced(workload, seed):
    plain, traced = unit(workload, seed), unit(workload, seed, trace=True)
    assert traced["digest"] == plain["digest"]
    assert traced["layers"]["trace.spans"] > 0


def test_tracer_self_time_and_restore():
    def child():
        t = perf_counter()
        while perf_counter() - t < 0.002:
            pass

    ns = SimpleNamespace(child=child)
    tr = Tracer()
    tr.wrap(ns, "child", "x.child")
    tr.wrap(ns, "absent", "x.absent")
    parent = tr.traced(lambda: (ns.child(), ns.child()), "x.parent")
    parent()
    tr.restore()
    assert ns.child is child
    assert len(tr.missing) == 1
    s = summarize(tr)
    assert s["x.child"]["calls"] == 2
    assert s["x.parent"]["self_s"] == pytest.approx(
        s["x.parent"]["incl_s"] - s["x.child"]["incl_s"])
    assert s["x.parent"]["self_s"] + s["x.child"]["self_s"] == \
        pytest.approx(s["x.parent"]["incl_s"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("opt-fit", 0, 0, cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
