"""``simulate_task`` replays all strides of a task in one pass, and the
replay's recursions run as generator kernels: no per-sample call to the
live controller's filter step or beta EMA step. The guards below count the
passes, make those per-sample calls raise, and check each stride's log
from a one-pass task against the stride replayed alone."""
import numpy as np
import pytest

from hipexo import controller, modulation, replay
from hipexo.gaitdata import CH_EXO, synth_battery
from hipexo.signals import LowpassFilter
from test_replay import BREAKDOWN_FIELDS, unstepped


def _per_sample(*args):
    raise AssertionError("replay called a per-sample kernel")


def forbid_per_sample(monkeypatch):
    monkeypatch.setattr(LowpassFilter, "step", _per_sample)
    monkeypatch.setattr(modulation, "beta_smoothed", _per_sample)
    monkeypatch.setattr(controller, "beta_smoothed", _per_sample)


@pytest.fixture(scope="module")
def batteries(battery):
    return {7: battery, 11: synth_battery(strides_per_task=3, seed=11)}


def test_one_replay_pass_per_task(default_params, battery, monkeypatch):
    passes = []
    columns = replay._replay_columns

    def counted(params, frames, sizes):
        passes.append(list(sizes))
        return columns(params, frames, sizes)

    monkeypatch.setattr(replay, "_replay_columns", counted)
    for strides in battery.values():
        passes.clear()
        replay.simulate_task(default_params, strides)
        assert [len(sizes) for sizes in passes] == [len(strides)]


def test_replay_makes_no_per_sample_call(default_params, battery,
                                         monkeypatch):
    forbid_per_sample(monkeypatch)
    for strides in battery.values():
        assisted, logs = unstepped(replay.simulate_task, default_params,
                                   strides)
        assert len(logs) == len(strides)


def test_guard_catches_a_per_sample_filter(default_params, battery,
                                           monkeypatch):
    def mapped_run(self, x):
        return np.array(list(map(self.step, x.tolist())), dtype=float)

    forbid_per_sample(monkeypatch)
    monkeypatch.setattr(LowpassFilter, "run", mapped_run)
    with pytest.raises(AssertionError, match="per-sample kernel"):
        replay.simulate_task(default_params, next(iter(battery.values())))


@pytest.mark.parametrize("seed", [7, 11])
def test_task_pass_equals_stride_replays(default_params, batteries, seed):
    for strides in batteries[seed].values():
        assisted, logs = replay.simulate_task(default_params, strides)
        for stride, out, log in zip(strides, assisted, logs):
            alone = replay.replay_stride(default_params, stride)
            for name in ("t", "phase", "exo_torque_grid"):
                assert getattr(log, name).tobytes() == \
                    getattr(alone, name).tobytes(), name
            for name in BREAKDOWN_FIELDS:
                assert log.series[name].tobytes() == \
                    alone.series[name].tobytes(), name
            assert log.events == alone.events
            assert log.mean_extension_scale == alone.mean_extension_scale
            assert out.channels[CH_EXO].tobytes() == \
                alone.exo_torque_grid.tobytes()
