from dataclasses import astuple

import numpy as np
import pytest

from hipexo import replay
from hipexo.controller import HipController, SensorFrame
from hipexo.gaitdata import CH_EXO, ActivityLabel
from hipexo.replay import BREAKDOWN_FIELDS, replay_stride, simulate_task


class TestReplay:
    def test_bit_identical_repeat(self, default_params, battery):
        stride = battery[ActivityLabel("level-walk", 1.15)][0]
        a = replay_stride(default_params, stride, cycles=3)
        b = replay_stride(default_params, stride, cycles=3)
        for name in a.series:
            assert np.array_equal(a.series[name], b.series[name])
        assert np.array_equal(a.exo_torque_grid, b.exo_torque_grid)

    def test_walking_alpha_stays_negligible(self, default_params, battery):
        stride = battery[ActivityLabel("level-walk", 0.85)][0]
        log = replay_stride(default_params, stride, cycles=4)
        # large inter-thigh difference at walking heel strikes: no attenuation
        assert log.mean_extension_scale > 0.98
        assert len(log.events) >= 4  # heel strikes detected during replay

    def test_sts_blend_prefers_sts_spring(self, default_params, battery):
        stride = battery[ActivityLabel("sit-to-stand")][0]
        log = replay_stride(default_params, stride)
        # seated override drives beta toward 1 early in the transition
        first_third = log.series["beta"][: len(log.t) // 3]
        assert first_third.max() > 0.95
        # assistance comes from the STS spring, not the gait springs
        i_peak = int(np.argmin(log.series["tau_cmd"]))
        assert log.series["tau_sts_mod"][i_peak] < 0.0
        assert abs(log.series["tau_cmd"]).max() <= default_params.torque_limit

    def test_exo_grid_matches_breakdown_scale(self, default_params, battery):
        stride = battery[ActivityLabel("ramp-ascent", 11)][0]
        log = replay_stride(default_params, stride, cycles=4)
        assert log.exo_torque_grid.shape == (stride.n,)
        assert np.max(np.abs(log.exo_torque_grid)) <= default_params.torque_limit
        assert np.max(np.abs(log.exo_torque_grid)) > 1.0  # real assistance

    @pytest.mark.parametrize("task", [ActivityLabel("level-walk", 1.15),
                                      ActivityLabel("sit-to-stand")],
                             ids=["gait", "sit-to-stand"])
    def test_cycles_below_one_rejected(self, default_params, battery, task):
        with pytest.raises(ValueError, match="cycles must be >= 1"):
            replay_stride(default_params, battery[task][0], cycles=0)

    def test_simulate_task_attaches_exo_channel(self, default_params, battery):
        strides = battery[ActivityLabel("stair-ascent", 0.178)]
        assisted, logs = simulate_task(default_params, strides, cycles=3)
        assert len(assisted) == len(strides) == len(logs)
        for stride, out in zip(strides, assisted):
            assert CH_EXO in out.channels
            assert out.condition == "assisted"
            assert CH_EXO not in stride.channels  # input untouched


class TestReplayFeed:
    @pytest.mark.parametrize("label", [ActivityLabel("stair-descent", 0.178),
                                       ActivityLabel("sit-to-stand")])
    def test_float_frames_match_numpy_scalar_frames(
            self, default_params, battery, monkeypatch, label):
        """Frames of Python floats give the same step log and events as the
        same frames built from np.float64 scalars."""
        frames = []

        class Recording(HipController):
            def step(self, frame):
                frames.append(frame)
                return super().step(frame)

        monkeypatch.setattr(replay, "HipController", Recording)
        log = replay_stride(default_params, battery[label][0])
        assert all(type(v) is float for f in frames for v in astuple(f))

        ctl = HipController(default_params)
        series = {name: np.empty(len(frames)) for name in BREAKDOWN_FIELDS}
        events = []
        for i, f in enumerate(frames):
            result = ctl.step(SensorFrame(*map(np.float64, astuple(f))))
            for name in BREAKDOWN_FIELDS:
                series[name][i] = getattr(result.left, name)
            if result.hs_event is not None:
                events.append(result.hs_event)
        for name in BREAKDOWN_FIELDS:
            assert series[name].tobytes() == log.series[name].tobytes(), name
        assert [(e.side, e.timestamp, e.source) for e in events] == \
            [(e.side, e.timestamp, e.source) for e in log.events]
        assert len(log.events) > 0 or not label.is_gait
