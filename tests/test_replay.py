import copy
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from hipexo import gaitdata, heelstrike, replay
from hipexo.controller import STANDING_BETA, HipController, SensorFrame
from hipexo.gaitdata import (CH_EXO, CH_HIP_ANGLE, CH_HIP_ANGLE_CON,
                             CH_HIP_VEL, CH_HIP_VEL_CON, CH_PELVIS_ACC,
                             CH_THIGH, CH_THIGH_ACC, CH_THIGH_ACC_CON,
                             CH_THIGH_CON, CH_TORSO, ActivityLabel,
                             StrideSeries, synth_battery)
from hipexo.replay import BREAKDOWN_FIELDS, replay_stride, simulate_task
from hipexo.springs import VEL_BOUND
from test_controller import DT, random_frame, random_params


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

    @pytest.mark.parametrize("drop", [(), (CH_THIGH_ACC, CH_THIGH_ACC_CON,
                                           CH_PELVIS_ACC)],
                             ids=["imu", "no-imu"])
    def test_sts_frames_hold_first_sample(self, battery, drop):
        """Through the sit-to-stand lead-in every field holds the stride's
        first sample, with zero hip velocities and accelerations; then each
        field follows its channel. A channel the stride lacks stays zero."""
        sts = battery[ActivityLabel("sit-to-stand")][0]
        stride = StrideSeries(sts.label, {k: v for k, v in sts.channels.items()
                                          if k not in drop},
                              sts.body_mass, sts.cycle_duration)
        tgrid, phase, frames, t_meas0 = replay._frames(stride, 250.0, 4)
        lead = tgrid < replay.STS_LEAD_IN_S
        assert lead.sum() == 375 and t_meas0 == replay.STS_LEAD_IN_S
        grid = np.linspace(0.0, 1.0, stride.n)
        want = [tgrid] + [
            np.interp(phase, grid, stride.channels.get(name, np.zeros(stride.n)))
            for name in (CH_HIP_ANGLE, CH_HIP_ANGLE_CON, CH_HIP_VEL,
                         CH_HIP_VEL_CON, CH_THIGH, CH_THIGH_CON, CH_TORSO,
                         CH_THIGH_ACC, CH_THIGH_ACC_CON, CH_PELVIS_ACC)]
        for row in (3, 4, 8, 9, 10):
            want[row] = np.where(lead, 0.0, want[row])
        assert frames.tobytes() == np.array(want).tobytes()
        held = frames[[1, 2, 5, 6, 7]]
        assert (held[:, lead] == held[:, :1]).all()
        assert frames[8:].any() == (not drop)

    def test_simulate_task_attaches_exo_channel(self, default_params, battery):
        strides = battery[ActivityLabel("stair-ascent", 0.178)]
        assisted, logs = simulate_task(default_params, strides, cycles=3)
        assert len(assisted) == len(strides) == len(logs)
        for stride, out in zip(strides, assisted):
            assert CH_EXO in out.channels
            assert out.condition == "assisted"
            assert CH_EXO not in stride.channels  # input untouched


class TestDetectionLossInReplay:
    """Descent attenuation holds while the heel-strike spikes weaken: RD 11
    and SD 7 (battery seed 7) keep their mean extension scale within
    TOLERANCE of the 1.0x value down to 0.4x the _GAIT_SHAPES thigh and
    pelvis spike amplitudes. Measured: RD 11 reads 0.32835 at all three
    scales and SD 7 moves by 8.6e-07. Spikes at 0.15x lose most of RD 11's
    heel strikes and its scale reads 0.776, outside the tolerance."""

    TOLERANCE = 0.01
    TASKS = ("ramp-descent:11", "stair-descent:0.178")

    @classmethod
    def extension_scales(cls, params, monkeypatch, factor):
        """{task code: mean extension scale} with every spike amplitude of a
        deep copy of _GAIT_SHAPES scaled by ``factor``."""
        shapes = copy.deepcopy(gaitdata._GAIT_SHAPES)
        for shape in shapes.values():
            shape["thigh_spike"] *= factor
            shape["pelvis_spike"] *= factor
        monkeypatch.setattr(gaitdata, "_GAIT_SHAPES", shapes)
        battery = synth_battery(cls.TASKS, seed=7)
        return {label.code: float(np.mean(
                    [log.mean_extension_scale
                     for log in simulate_task(params, strides)[1]]))
                for label, strides in battery.items()}

    def test_extension_scale_holds_down_to_0_4x(self, default_params,
                                                 monkeypatch):
        full = self.extension_scales(default_params, monkeypatch, 1.0)
        assert full == pytest.approx({"RD 11": 0.3283, "SD 7": 0.1256},
                                     abs=1e-4)
        for factor in (0.6, 0.4):
            assert self.extension_scales(default_params, monkeypatch,
                                         factor) == pytest.approx(
                full, abs=self.TOLERANCE)

    def test_tolerance_sees_lost_detections(self, default_params,
                                            monkeypatch):
        full = self.extension_scales(default_params, monkeypatch, 1.0)
        weak = self.extension_scales(default_params, monkeypatch, 0.15)
        assert weak["RD 11"] - full["RD 11"] > 10 * self.TOLERANCE


def _forbidden(*args):
    raise AssertionError("replay stepped HipController or HsDetector")


def unstepped(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with HipController.step and
    HsDetector.update raising, so a replay that calls either fails."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(HipController, "step", _forbidden)
        m.setattr(heelstrike.HsDetector, "update", _forbidden)
        return fn(*args, **kwargs)


def replay_one(params, columns):
    """(series, events) of ``replay._replay_columns`` over one run."""
    (series, events), = replay._replay_columns(params, columns,
                                                [len(columns[0])])
    return series, events


def step_reference(params, columns):
    """(series, events) of HipController.step over the frames whose field
    values are ``columns``, stepped one frame at a time."""
    ctl = HipController(params)
    rows = []
    events = []
    for values in zip(*columns):
        result = ctl.step(SensorFrame(*values))
        rows.append([getattr(result.left, name) for name in BREAKDOWN_FIELDS])
        if result.hs_event is not None:
            events.append(result.hs_event)
    series = {name: np.array(col, dtype=float)
              for name, col in zip(BREAKDOWN_FIELDS, zip(*rows))}
    return series, events


def assert_same_log(series, events, ref_series, ref_events):
    for name in BREAKDOWN_FIELDS:
        assert series[name].tobytes() == ref_series[name].tobytes(), name
    # HsEvent equality covers side, timestamp, source and thigh snapshot
    assert events == ref_events


def float_columns(params, stride, cycles):
    return [c.tolist() for c in
            replay._frames(stride, params.loop_rate_hz, cycles)[2]]


class TestReplayFeed:
    @pytest.mark.parametrize("label", [ActivityLabel("stair-descent", 0.178),
                                       ActivityLabel("sit-to-stand")])
    def test_float_frames_match_numpy_scalar_frames(
            self, default_params, battery, label):
        """The step log and events of a replay equal those of
        HipController.step fed the same frames as np.float64 scalars."""
        stride = battery[label][0]
        log = unstepped(replay_stride, default_params, stride)
        columns = float_columns(default_params, stride, 4)
        assert all(type(v) is float for c in columns for v in c)

        ctl = HipController(default_params)
        series = {name: np.empty(len(log.t)) for name in BREAKDOWN_FIELDS}
        events = []
        for i, values in enumerate(zip(*columns)):
            result = ctl.step(SensorFrame(*map(np.float64, values)))
            for name in BREAKDOWN_FIELDS:
                series[name][i] = getattr(result.left, name)
            if result.hs_event is not None:
                events.append(result.hs_event)
        for name in BREAKDOWN_FIELDS:
            assert series[name].tobytes() == log.series[name].tobytes(), name
        assert [(e.side, e.timestamp, e.source) for e in events] == \
            [(e.side, e.timestamp, e.source) for e in log.events]
        assert len(log.events) > 0 or not label.is_gait


UNDER_BOUND = float(np.nextafter(VEL_BOUND, 0.0))
# a stride's hip velocity cell, often one ULP under the bound on either
# side, where an interpolation that overshot its endpoints would reach it
VEL_CELL = strategies.one_of(
    strategies.sampled_from((UNDER_BOUND, -UNDER_BOUND)),
    strategies.floats(-UNDER_BOUND, UNDER_BOUND))


@pytest.fixture(scope="module")
def battery_11():
    return synth_battery(strides_per_task=3, seed=11)


class TestColumnReplay:
    """The column replay against HipController.step, frame by frame."""

    @pytest.mark.parametrize("cycles", [1, 4])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_default_battery_bit_identical(self, default_params, battery,
                                           battery_11, seed, cycles):
        strides = [s for task in (battery if seed == 7 else battery_11).values()
                   for s in task]
        assert len(strides) == 33
        for stride in strides:
            log = unstepped(replay_stride, default_params, stride,
                            cycles=cycles)
            ref = step_reference(default_params,
                                 float_columns(default_params, stride, cycles))
            assert_same_log(log.series, log.events, *ref)

    @pytest.mark.parametrize("value", [VEL_BOUND, -VEL_BOUND],
                             ids=["plus", "minus"])
    @pytest.mark.parametrize("channel", [CH_HIP_VEL, CH_HIP_VEL_CON])
    def test_stride_at_vel_bound_is_refused(self, battery, channel, value):
        """The stride contract refuses a hip velocity at the frame gate's
        bound, as the gate does, naming the channel, the value and the
        data row: so replay never meets a frame that the gate rejects."""
        stride = battery[ActivityLabel("ramp-ascent", 11)][0]
        values = stride.channels[channel].copy()
        values[120] = value
        with pytest.raises(ValueError, match=re.escape(
                f"channel {channel!r} holds {value} at data row 121, at or "
                "past the hip velocity bound 25.0 rad/s")):
            stride.copy_with(**{channel: values})

    @pytest.mark.parametrize("cycles", [1, 3])
    @pytest.mark.parametrize("channel", [CH_HIP_VEL, CH_HIP_VEL_CON])
    def test_stride_under_vel_bound_matches_step_reference(
            self, default_params, battery, channel, cycles):
        """One ULP under the bound, a stride's hip velocity passes the
        gate on every frame, and replay equals stepping."""
        stride = battery[ActivityLabel("ramp-ascent", 11)][0]
        values = stride.channels[channel].copy()
        # sample 0 is hit exactly at the start of every replayed cycle
        values[0], values[120] = UNDER_BOUND, -UNDER_BOUND
        stride = stride.copy_with(**{channel: values})
        frames = replay._frames(stride, default_params.loop_rate_hz,
                                cycles)[2]
        assert np.abs(frames[3:5]).max() == UNDER_BOUND
        log = unstepped(replay_stride, default_params, stride, cycles=cycles)
        ref = step_reference(default_params, [c.tolist() for c in frames])
        assert_same_log(log.series, log.events, *ref)
        assert log.events

    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None)
    @given(label=strategies.sampled_from(
               [ActivityLabel("level-walk", 1.15),
                ActivityLabel("stair-descent", 0.178),
                ActivityLabel("sit-to-stand")]),
           n=strategies.integers(2, 201), duration=strategies.floats(0.4, 5.0),
           cycles=strategies.integers(1, 4), stored_contra=strategies.booleans(),
           data=strategies.data())
    def test_frames_of_a_stride_pass_the_gate(self, default_params, battery,
                                              label, n, duration, cycles,
                                              stored_contra, data):
        """Every frame that replay makes from a stride that the contract
        accepts passes HipController's gate: an interpolation of hip
        velocities up to one ULP under VEL_BOUND does not reach it, on any
        grid length, cycle duration or cycle count, with the contralateral
        velocity stored or shifted from the ipsilateral one."""
        base = battery[label][0]
        grid = np.linspace(0.0, 1.0, n)
        channels = {name: np.interp(grid, np.linspace(0.0, 1.0, base.n), values)
                    for name, values in base.channels.items()
                    if name != CH_HIP_VEL_CON}
        for name in (CH_HIP_VEL, CH_HIP_VEL_CON)[:1 + stored_contra]:
            channels[name] = np.array(data.draw(strategies.lists(
                VEL_CELL, min_size=n, max_size=n)))
        stride = StrideSeries(label, channels, base.body_mass, duration)
        frames = replay._frames(stride, default_params.loop_rate_hz, cycles)[2]
        ctl = HipController(default_params)
        for values in zip(*frames.tolist()):
            assert not ctl.step(SensorFrame(*values)).left.fault, values

    @pytest.mark.parametrize("k_gait", [None, 0.0],
                             ids=["default", "zero-gait-stiffness"])
    def test_crafted_stream_latch_reset_ramp_and_seated(self, default_params,
                                                        k_gait):
        """A heel strike latches alpha, standing for t_wait + t_decay ramps
        it back to 0, and a seated span forces beta_raw to 1.

        The standing thighs sit at exactly 0 rad, and a zero gait stiffness
        times a negative angle is -0.0, so min(0.0, -0.0) and
        max(0.0, -0.0) (both +0.0) are exercised too."""
        p = default_params
        if k_gait is not None:
            p = replace(p, gait=replace(p.gait, k_ext=k_gait, k_flex=k_gait))
        dt = 1.0 / p.loop_rate_hz
        t = np.arange(int(7.0 * p.loop_rate_hz)) * dt
        walk = t < 1.2                      # heel strike at 1.0 s
        seated = t >= 5.5                   # after the reset ramp has ended
        # a short step at the heel strike, then symmetric standing thighs
        th_l = np.where(walk, 0.10, np.where(seated, 1.3, 0.0))
        th_r = np.where(walk, 0.05, np.where(seated, 1.3, 0.0))
        hip = th_l + 0.5 * np.sin(2 * np.pi * t)
        vel = 0.1 * np.pi * np.cos(2 * np.pi * t)
        torso = np.where(seated, 0.4, -0.05)
        acc_l = np.where(np.abs(t - 1.0) < dt / 2, 30.0, 0.0)
        zeros = np.zeros_like(t)
        columns = [t, hip, hip, vel, vel, th_l, th_r, torso, acc_l, zeros,
                   zeros]

        series, events = unstepped(replay_one, p, columns)
        assert_same_log(series, events,
                        *step_reference(p, [c.tolist() for c in columns]))

        assert [(e.side, e.timestamp) for e in events] == [("left", t[250])]
        alpha = series["alpha"]
        assert alpha.max() > 0.5                       # latched
        ramp = (alpha > 0.0) & (alpha < alpha.max())
        assert ramp.any()                              # the reset ramp ran
        assert alpha[seated].max() == 0.0              # and ended
        assert t[ramp].min() >= 1.2 + p.descent.t_wait
        assert series["beta"][-1] > 0.99               # seated override
        assert series["tau_sts_mod"][seated].min() < 0.0

    def test_random_params_bit_identical(self, battery):
        # seeded like tests/test_controller.py's saturation fuzz
        rng = np.random.default_rng(7)
        strides = [battery[ActivityLabel("stair-ascent", 0.178)][0],
                   battery[ActivityLabel("sit-to-stand")][0]]
        for _ in range(3):
            params = random_params(rng)
            for stride in strides:
                series, events = replay_one(
                    params, replay._frames(stride, params.loop_rate_hz, 2)[2])
                assert_same_log(series, events, *step_reference(
                    params, float_columns(params, stride, 2)))
            frames = [random_frame(rng, k * DT) for k in range(400)]
            columns = [np.array(c) for c in zip(*map(astuple, frames))]
            series, events = unstepped(replay_one, params, columns)
            assert_same_log(series, events, *step_reference(
                params, [c.tolist() for c in columns]))


def posture_columns(params, spans, spikes):
    """Replay columns of thighs held at ``spans``, (seconds, thigh L,
    thigh R) one after another, with a 30 m/s^2 left thigh acceleration
    spike at each time in ``spikes``. Both hips swing alike, so the
    velocity gate stays open and only the thighs decide beta."""
    dt = 1.0 / params.loop_rate_hz
    th_l = np.concatenate([np.full(round(s / dt), a) for s, a, _ in spans])
    th_r = np.concatenate([np.full(round(s / dt), b) for s, _, b in spans])
    t = np.arange(th_l.size) * dt
    hip = th_l + 0.5 * np.sin(2 * np.pi * t)
    vel = 0.1 * np.pi * np.cos(2 * np.pi * t)
    acc_l = np.zeros_like(t)
    acc_l[np.round(np.asarray(spikes) / dt).astype(int)] = 30.0
    zeros = np.zeros_like(t)
    return [t, hip, hip, vel, vel, th_l, th_r, np.full_like(t, -0.05),
            acc_l, zeros, zeros]


def standing_runs(beta):
    """(first, end) frame of each run of standing frames."""
    edges = np.diff(np.concatenate(([0], beta > STANDING_BETA, [0])))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)))


WALK = (0.4, 0.0)     # far from symmetric: beta falls under STANDING_BETA
STAND = (0.0, 0.0)


class TestAlphaPass:
    """Replay runs the alpha latch and reset ramp only on left latch
    frames, standing frames and the first frame after each standing run,
    and holds alpha on every other frame; stepping runs them on every
    frame. The streams below put a latch, the end of a ramp and the end
    of a standing run where a wrong choice of frames would show."""

    @staticmethod
    def replayed(params, columns):
        """The replay's series, checked against stepping, and the frame
        of each left latch: ``confirm_samples`` after its peak."""
        series, events = unstepped(replay_one, params, columns)
        assert_same_log(series, events, *step_reference(
            params, [c.tolist() for c in columns]))
        lag = heelstrike.HsDetectorConfig().confirm_samples
        return series, [int(np.searchsorted(columns[0], e.timestamp)) + lag
                        for e in events if e.side == "left"]

    def test_latch_inside_a_standing_run(self, default_params):
        p = default_params
        columns = posture_columns(p, [(1.2, *WALK), (4.5, *STAND)],
                                  [1.0, 2.5])
        series, latched = self.replayed(p, columns)
        t, alpha = columns[0], series["alpha"]
        assert latched == [253, 628]
        (first, end), = standing_runs(series["beta"])
        assert t[first] < t[628] < t[end - 1]
        # the second latch restarts the standing clock: alpha holds for
        # t_wait after it, then ramps down
        hold = (t >= t[628]) & (t < t[628] + p.descent.t_wait)
        assert alpha[628] > 0.5
        assert (alpha[hold] == alpha[628]).all()
        assert alpha[-1] < alpha[628]

    def test_reset_ramp_reaches_zero(self, default_params):
        p = replace(default_params, descent=replace(
            default_params.descent, t_wait=0.3, t_decay=0.2))
        columns = posture_columns(
            p, [(1.2, *WALK), (1.5, *STAND), (0.6, *WALK), (1.5, *STAND)],
            [1.0, 3.0])
        series, latched = self.replayed(p, columns)
        t, alpha = columns[0], series["alpha"]
        assert latched == [253, 753]
        runs = standing_runs(series["beta"])
        assert len(runs) == 2
        # each run ramps alpha to exactly 0, and it stays there until the
        # next latch
        for (first, end), latch in zip(runs, latched):
            assert alpha[latch] > 0.1
            zero = np.flatnonzero(alpha[first:end] == 0.0)
            assert zero.size and (alpha[first + zero[0]:end] == 0.0).all()
        assert (alpha[runs[0][1]:753] == 0.0).all()

    def test_standing_run_ends_and_starts_again(self, default_params):
        p = default_params
        columns = posture_columns(
            p, [(1.2, *WALK), (2.7, *STAND), (0.6, *WALK), (4.5, *STAND)],
            [1.0])
        series, latched = self.replayed(p, columns)
        t, alpha = columns[0], series["alpha"]
        assert latched == [253]
        runs = standing_runs(series["beta"])
        assert len(runs) == 2
        (_, end), (again, _) = runs
        # the first run stops part way down the ramp; alpha holds through
        # the walk and for t_wait into the second run, then ramps to 0
        assert 0.0 < alpha[end] < alpha[253]
        held = (t >= t[end]) & (t < t[again] + p.descent.t_wait)
        assert (alpha[held] == alpha[end]).all()
        assert alpha[-1] == 0.0


SWITCH_RAMP_S = 0.4   # smoothstep at each activity switch, as in perfbench


def stride_part(params, stride, cycles=3):
    """A stride's replay frames and the frame index at which each of its
    cycles begins (sit-to-stand: its one cycle, after the seated lead-in)."""
    t, _, frames, t_meas0 = replay._frames(stride, params.loop_rate_hz,
                                           cycles)
    k = np.arange(cycles if stride.label.is_gait else 1)[::-1]
    return frames, np.searchsorted(t, t_meas0 - k * stride.cycle_duration)


def hold_part(params, frame, seconds):
    """``frame``'s posture held still for ``seconds``: hip velocities and
    accelerations zero, as in replay's sit-to-stand lead-in. No cycles."""
    n = round(seconds * params.loop_rate_hz)
    frames = np.repeat(np.asarray(frame, dtype=float)[:, None], n, axis=1)
    frames[0] = np.arange(n) / params.loop_rate_hz
    frames[replay._HOLD_ZERO_ROWS] = 0.0
    return frames, np.array([], dtype=int)


def join_stream(params, parts):
    """Frame columns of ``parts``, (frames, cycle starts) pairs, played one
    after another with no reset. Each part's timestamps go on one period
    after the last frame before it, and over its first SWITCH_RAMP_S every
    other field moves from that frame to the part's own by a smoothstep.
    Returns (columns, firsts, starts): the columns, the index of each
    part's first frame and the indices at which each part's cycles begin."""
    rate = params.loop_rate_hz
    n = round(SWITCH_RAMP_S * rate)
    x = np.arange(n) / n
    w = x * x * (3.0 - 2.0 * x)
    joined, firsts, starts = [], [], []
    first = 0
    for frames, cycle_starts in parts:
        b = frames.copy()
        if joined:
            a = joined[-1]
            b[1:, :n] = (1.0 - w) * a[1:, -1:] + w * b[1:, :n]
            b[0] += a[0, -1] + 1.0 / rate
        joined.append(b)
        firsts.append(first)
        starts.append(first + cycle_starts)
        first += b.shape[1]
    return np.concatenate(joined, axis=1), firsts, starts


def own_step_peak(params, stride):
    """The largest per-tick command change of ``stride`` replayed alone."""
    return np.abs(np.diff(replay_stride(
        params, stride, cycles=3).series["tau_cmd"])).max()


class TestActivitySwitch:
    """One controller across an activity switch, with no mode switch and
    no reset: descent followed by a hip-intensive task."""

    @pytest.fixture(scope="class")
    def clean_bound(self, default_params, battery):
        """The largest per-tick command change of any default-battery
        stride replayed alone."""
        return max(own_step_peak(default_params, s)
                   for task in battery.values() for s in task)

    # the mean extension scale of each cycle of the new task: the alpha
    # latched on descent holds until the first left heel strike of the
    # new task, so its first cycle keeps part of the descent attenuation
    @pytest.mark.parametrize("first, second, first_cycle", [
        (ActivityLabel("stair-descent", 0.178),
         ActivityLabel("stair-ascent", 0.178), 0.12536872461358656),
        (ActivityLabel("ramp-descent", 11), ActivityLabel("level-walk", 1.15),
         0.4028717109373589),
    ], ids=["SD7-to-SA7", "RD11-to-LG1.15"])
    def test_switch_matches_step_reference_within_bounds(
            self, default_params, battery, clean_bound, first, second,
            first_cycle):
        p = default_params
        a, b = battery[first][0], battery[second][0]
        columns, _, (_, starts) = join_stream(
            p, [stride_part(p, a), stride_part(p, b)])
        series, events = unstepped(replay_one, p, columns)
        assert_same_log(series, events, *step_reference(
            p, [c.tolist() for c in columns]))

        for name in ("alpha", "beta"):
            assert 0.0 <= series[name].min() <= series[name].max() <= 1.0
        step = np.abs(np.diff(series["tau_cmd"]))
        assert step.max() <= clean_bound
        # across the junction, no larger a step than either stride's own
        ramp = round(SWITCH_RAMP_S * p.loop_rate_hz)
        own = max(own_step_peak(p, s) for s in (a, b))
        assert step[starts[0] - ramp:starts[0] + ramp].max() <= own

        scale = [series["extension_scale"][i:j].mean() for i, j in
                 zip(starts, [*starts[1:], len(columns[0])])]
        assert scale[0] == pytest.approx(first_cycle, rel=1e-9)
        alone = replay_stride(p, b, cycles=3).mean_extension_scale
        assert scale[0] < alone - 0.5
        assert scale[2] == pytest.approx(alone, abs=1e-6)

    # (task, mean extension scale of its first cycle) in stream order; the
    # first LG cycle keeps part of the attenuation that sit-to-stand's heel
    # strikes latch, as the first cycle after each descent does
    MIXED = (
        (ActivityLabel("sit-to-stand"), 0.5802944072797399),
        (ActivityLabel("level-walk", 1.15), 0.3722411287514568),
        (ActivityLabel("ramp-ascent", 11), 0.9949777803374452),
        (ActivityLabel("stair-ascent", 0.178), 0.9975411047785357),
        (ActivityLabel("stair-descent", 0.178), 0.9994853268942686),
        (ActivityLabel("ramp-descent", 11), 0.12536855300054459),
        (ActivityLabel("level-walk", 1.15), 0.4028717109373589),
    )

    def test_mixed_activity_stream(self, default_params, battery,
                                   clean_bound):
        """Sit, sit-to-stand, LG, RA, SA, SD, RD, LG, stand: one stream with
        no reset. Replay equals stepping bit for bit; alpha and beta stay in
        [0, 1]; beta counts as standing once seated; each junction stays
        within its strides' own per-tick peaks; the standing span ramps
        alpha to 0."""
        p = default_params
        sts = battery[ActivityLabel("sit-to-stand")][0]
        sts_frames = replay._frames(sts, p.loop_rate_hz, 1)[2]
        stand = sts_frames[:, -1].copy()
        stand[[2, 6]] = stand[[1, 5]]   # both legs as the left one
        strides = [battery[label][0] for label, _ in self.MIXED]
        stand_s = SWITCH_RAMP_S + p.descent.t_wait + p.descent.t_decay + 0.1
        parts = [hold_part(p, sts_frames[:, 0], 2.0),
                 *(stride_part(p, s) for s in strides),
                 hold_part(p, stand, stand_s)]
        columns, firsts, starts = join_stream(p, parts)
        series, events = unstepped(replay_one, p, columns)
        assert_same_log(series, events, *step_reference(
            p, [c.tolist() for c in columns]))

        for name in ("alpha", "beta"):
            assert 0.0 <= series[name].min() <= series[name].max() <= 1.0
        # seated: both thighs past the threshold, for 0.2 s on end
        threshold = p.symmetry.seated_ext_threshold
        seated = (columns[5] > threshold) & (columns[6] > threshold)
        k = round(0.2 * p.loop_rate_hz)
        settled = np.convolve(seated, np.ones(k))[:seated.size] == k
        assert settled[firsts[0]:firsts[2]].sum() > 3.0 * p.loop_rate_hz
        assert series["beta"][settled].min() > STANDING_BETA

        step = np.abs(np.diff(series["tau_cmd"]))
        assert step.max() <= clean_bound
        ramp = round(SWITCH_RAMP_S * p.loop_rate_hz)
        own = [0.0, *(own_step_peak(p, s) for s in strides), 0.0]
        for k in range(1, len(parts)):
            junction = step[firsts[k] - ramp:firsts[k] + ramp]
            assert junction.max() <= max(own[k - 1], own[k]), k

        first_cycles = [(c[0], c[1] if len(c) > 1 else end)
                        for c, end in zip(starts[1:-1], firsts[2:])]
        scale = [series["extension_scale"][i:j].mean()
                 for i, j in first_cycles]
        assert scale == pytest.approx([s for _, s in self.MIXED], rel=1e-9)
        assert series["alpha"][firsts[-1]] > 0.0
        assert series["alpha"][-1] == 0.0   # the standing reset ran
