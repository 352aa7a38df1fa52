"""Every name the benchmark's tracer wraps resolves in the program.

``perfbench`` times layers by rebinding program names (see
``perfbench/tracer.py``); a renamed or moved name only drops its span
there, with a line on stderr. These tests read the benchmark's own lists
of targets, ``layers.layer_wraps`` and each workload's ``stage_wraps``,
without running a workload or changing any file under ``perfbench``.
"""
import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hipexo import cli, controller

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# the modules the benchmark worker hands to layer_wraps, by short name,
# each imported as ``hipexo.<name>`` as the worker imports it
MODULES = ("cli", "configio", "controller", "gaitdata", "heelstrike",
           "metrics", "modulation", "optimize", "replay", "signals",
           "springs")


def wrap_targets(out_root) -> list[tuple]:
    """(owner, attr) of every name a traced run of any workload wraps."""
    hx = SimpleNamespace(**{name: importlib.import_module(f"hipexo.{name}")
                            for name in MODULES})
    wraps = list(layers.layer_wraps(hx))
    for name, workload in workloads.WORKLOADS.items():
        wraps += workload(hx, workload.default_seed,
                          out_root / name).stage_wraps(tracer.Tracer())
    return [(owner, attr) for owner, attr, *_ in wraps]


def unresolved(targets) -> list[str]:
    """The targets ``Tracer.wrap`` would skip: class attributes are read
    from the class's own ``__dict__``, others with ``getattr``; either
    must be callable."""
    missing = []
    for owner, attr in targets:
        raw = (owner.__dict__.get(attr) if isinstance(owner, type)
               else getattr(owner, attr, None))
        if not callable(raw):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return missing


def test_every_wrap_target_resolves(tmp_path):
    targets = wrap_targets(tmp_path)
    assert targets
    assert unresolved(targets) == []


@pytest.mark.parametrize("owner, attr, name", [
    (controller, "beta_smoothed", "hipexo.controller.beta_smoothed"),
    (cli, "simulate_task", "hipexo.cli.simulate_task"),
    (controller.HipController, "step", "HipController.step"),
])
def test_a_dropped_name_is_reported(tmp_path, monkeypatch, owner, attr, name):
    monkeypatch.delattr(owner, attr)
    assert unresolved(wrap_targets(tmp_path)) == [name]
