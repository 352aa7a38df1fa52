import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import hipexo
from hipexo import controller
from hipexo.controller import ControllerParams, HipController, SensorFrame
from hipexo.modulation import (DescentModParams, SymmetryParams,
                               beta_smoothed, blend)
from hipexo.signals import SigmoidParams
from hipexo.springs import GaitSpringParams, StsSpringParams

DT = 1.0 / 250.0
# each SensorFrame field with its frame gate bound, as the README states
# them: no bound on the timestamp but finiteness, half a turn on angles,
# VEL_BOUND on hip velocities and 16 g on accelerations
ANGLE, ACCEL = math.pi, 16 * 9.80665
FIELD_BOUNDS = [
    ("timestamp", math.inf), ("hip_angle_l", ANGLE), ("hip_angle_r", ANGLE),
    ("hip_vel_l", 25.0), ("hip_vel_r", 25.0), ("thigh_angle_l", ANGLE),
    ("thigh_angle_r", ANGLE), ("torso_angle", ANGLE),
    ("thigh_accel_l", ACCEL), ("thigh_accel_r", ACCEL),
    ("pelvis_accel", ACCEL),
]


def zero_frame(t):
    return SensorFrame(timestamp=t, hip_angle_l=0.0, hip_angle_r=0.0,
                       hip_vel_l=0.0, hip_vel_r=0.0, thigh_angle_l=0.0,
                       thigh_angle_r=0.0, torso_angle=0.0)


def random_frame(rng, t):
    return SensorFrame(
        timestamp=t,
        hip_angle_l=rng.uniform(-1.2, 1.8), hip_angle_r=rng.uniform(-1.2, 1.8),
        hip_vel_l=rng.uniform(-15, 15), hip_vel_r=rng.uniform(-15, 15),
        thigh_angle_l=rng.uniform(-1.2, 1.8), thigh_angle_r=rng.uniform(-1.2, 1.8),
        torso_angle=rng.uniform(-0.8, 0.8),
        thigh_accel_l=rng.uniform(-40, 40), thigh_accel_r=rng.uniform(-40, 40),
        pelvis_accel=rng.uniform(0, 40),
    )


def random_params(rng):
    return ControllerParams(
        gait=GaitSpringParams(
            k_ext=rng.uniform(0, 90), k_flex=rng.uniform(0, 90),
            theta_ext_eq=rng.uniform(-0.5, 1.0),
            theta_flex_eq=rng.uniform(-0.5, 1.0),
            vel_mod_ext=SigmoidParams(rng.uniform(-8, -0.5), rng.uniform(0, 6)),
            vel_mod_flex=SigmoidParams(rng.uniform(0.5, 8), rng.uniform(0, 6))),
        sts=StsSpringParams(
            k_sts=rng.uniform(0, 60),
            vel_mod=SigmoidParams(rng.uniform(-8, -0.5), rng.uniform(0, 6)),
            torso_mod=SigmoidParams(rng.uniform(0.5, 20), rng.uniform(0, 8))),
        descent=DescentModParams(
            step_mod=SigmoidParams(rng.uniform(-20, -1), rng.uniform(-6, 0)),
            lam=rng.uniform(0, 1)),
        symmetry=SymmetryParams(
            sym_mod=SigmoidParams(rng.uniform(-80, -5), rng.uniform(-6, -0.5)),
            vel_threshold=rng.uniform(0.1, 2.0)),
    )


class TestQuietStanding:
    def test_zero_stream_transparency(self, default_params):
        ctl = HipController(default_params)
        peak = 0.0
        for k in range(1500):
            res = ctl.step(zero_frame(k * DT))
            peak = max(peak, abs(res.left.tau_cmd), abs(res.right.tau_cmd))
        assert peak < 0.5

    def test_reset_then_zero_frame_matches_fresh_controller(self, default_params):
        ctl = HipController(default_params)
        rng = np.random.default_rng(0)
        for k in range(100):
            ctl.step(random_frame(rng, k * DT))
        ctl.reset()
        fresh = HipController(default_params)
        res = ctl.step(zero_frame(0.0))
        ref = fresh.step(zero_frame(0.0))
        assert repr(res) == repr(ref)
        assert res.left.alpha == 0.0

    def test_reset_then_zero_frame_all_zero_with_neutral_springs(self):
        # springs with zero stiffness: every pipeline stage is exactly zero
        params = ControllerParams(
            gait=GaitSpringParams(0.0, 0.0, 0.0, 0.0,
                                  SigmoidParams(-3.0, 2.0),
                                  SigmoidParams(3.0, 2.0)),
            sts=StsSpringParams(0.0, SigmoidParams(-4.0, 2.0),
                                SigmoidParams(12.0, 4.0)),
            descent=DescentModParams(step_mod=SigmoidParams(-8.0, -2.0)),
            symmetry=SymmetryParams(sym_mod=SigmoidParams(-10.0, -4.0),
                                    vel_threshold=0.5),
        )
        ctl = HipController(params)
        rng = np.random.default_rng(1)
        for k in range(50):
            ctl.step(random_frame(rng, k * DT))
        ctl.reset()
        res = ctl.step(zero_frame(0.0))
        for bd in (res.left, res.right):
            assert (bd.tau_ext, bd.tau_flex, bd.tau_gait, bd.tau_gait_mod,
                    bd.tau_sts, bd.tau_sts_mod, bd.tau_act_raw,
                    bd.tau_cmd, bd.alpha) == (0.0,) * 9


class TestSaturationFuzz:
    def test_command_limited_for_random_params_and_streams(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            params = random_params(rng)
            ctl = HipController(params)
            for k in range(400):
                res = ctl.step(random_frame(rng, k * DT))
                assert abs(res.left.tau_cmd) <= params.torque_limit
                assert abs(res.right.tau_cmd) <= params.torque_limit
                assert 0.0 <= res.left.alpha <= 1.0
                assert 0.0 <= res.left.beta <= 1.0


class TestDeterminism:
    def test_bit_identical_replay(self, default_params):
        rng = np.random.default_rng(11)
        frames = [random_frame(rng, k * DT) for k in range(800)]
        a = HipController(default_params)
        b = HipController(default_params)
        for f in frames:
            ra = a.step(f)
            rb = b.step(f)
            assert repr(ra) == repr(rb)

    def test_reset_equals_fresh_start(self, default_params):
        rng = np.random.default_rng(12)
        warm = [random_frame(rng, k * DT) for k in range(300)]
        frames = [random_frame(rng, 10.0 + k * DT) for k in range(300)]
        a = HipController(default_params)
        for f in warm:
            a.step(f)
        a.reset()
        b = HipController(default_params)
        for f in frames:
            assert repr(a.step(f)) == repr(b.step(f))


class TestCompositionFidelity:
    def test_step_equals_module_composition(self, default_params):
        ctl = HipController(default_params)
        rng = np.random.default_rng(14)
        for k in range(300):
            res = ctl.step(random_frame(rng, k * DT))
            for bd in (res.left, res.right):
                assert bd.tau_gait == bd.eta_ext * bd.tau_ext + bd.eta_flex * bd.tau_flex
                scale = 1.0 - default_params.descent.lam * bd.alpha
                expect_mod = scale * min(0.0, bd.tau_gait) + max(0.0, bd.tau_gait)
                assert bd.tau_gait_mod == expect_mod
                assert bd.tau_act_raw == blend(bd.tau_sts_mod, bd.tau_gait_mod,
                                               bd.beta)
                assert bd.extension_scale == scale

    def test_one_beta_step_per_admitted_frame(self, default_params,
                                              monkeypatch):
        calls, outs = [], []

        def counted(prev, beta, p):
            calls.append(prev)
            outs.append(beta_smoothed(prev, beta, p))
            return outs[-1]

        monkeypatch.setattr(controller, "beta_smoothed", counted)
        ctl = HipController(default_params)
        rng = np.random.default_rng(17)
        admitted = 0
        for k in range(300):
            frame = random_frame(rng, k * DT)
            if k % 7 == 3:
                frame.pelvis_accel = math.nan
            res = ctl.step(frame)
            admitted += not res.left.fault
            assert res.left.beta == res.right.beta
            assert len(calls) == admitted
        # each step smooths from the last admitted step's beta
        assert admitted == 257
        assert calls == [0.0] + outs[:-1]


class TestFaultHandling:
    def test_nonfinite_frame_holds_command(self, default_params):
        ctl = HipController(default_params)
        rng = np.random.default_rng(15)
        last = None
        for k in range(200):
            last = ctl.step(random_frame(rng, k * DT))
        bad = zero_frame(200 * DT)
        bad.hip_angle_l = float("nan")
        res = ctl.step(bad)
        assert res.left.fault
        assert res.left.tau_cmd == last.left.tau_cmd
        assert res.right.tau_cmd == last.right.tau_cmd

    def test_sustained_faults_decay_to_zero(self, default_params):
        ctl = HipController(default_params)
        rng = np.random.default_rng(16)
        for k in range(200):
            ctl.step(random_frame(rng, k * DT))
        t = 200 * DT
        res = None
        for k in range(200):  # 0.8 s of faults > hold (0.2) + decay (0.2)
            bad = zero_frame(t + k * DT)
            bad.hip_vel_r = float("inf")
            res = ctl.step(bad)
        assert res.left.fault
        assert res.left.tau_cmd == 0.0
        assert res.right.tau_cmd == 0.0

    def test_recovery_after_fault(self, default_params):
        ctl = HipController(default_params)
        ctl.step(zero_frame(0.0))
        bad = zero_frame(DT)
        bad.torso_angle = float("nan")
        ctl.step(bad)
        res = ctl.step(zero_frame(2 * DT))
        assert not res.left.fault

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["timestamp", "thigh_accel_l",
                                       "thigh_accel_r", "pelvis_accel",
                                       "thigh_angle_l", "thigh_angle_r"])
    def test_non_finite_sample_never_reaches_detector(
            self, default_params, detector_timestamps, field, value):
        """The frame gate stops the frame: the detector, which takes finite
        samples only, sees every other frame and only finite values."""
        ctl = HipController(default_params)
        rng = np.random.default_rng(18)
        frames = [random_frame(rng, k * DT) for k in range(300)]
        setattr(frames[150], field, value)
        faults = [ctl.step(f).left.fault for f in frames]
        assert faults == [k == 150 for k in range(300)]
        assert detector_timestamps == [
            f.timestamp for k, f in enumerate(frames) if k != 150]

    def test_bound_table_covers_every_field(self):
        assert [name for name, _ in FIELD_BOUNDS] == [
            f.name for f in fields(SensorFrame)]

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("field, bound", FIELD_BOUNDS,
                             ids=[name for name, _ in FIELD_BOUNDS])
    def test_field_faults_at_its_bound(self, default_params, field, bound,
                                       sign):
        """The frame gate faults a frame with one field at its bound and
        admits it one ULP under."""
        def fault(value):
            frame = zero_frame(0.0)
            setattr(frame, field, value)
            return HipController(default_params).step(frame).left.fault

        assert fault(sign * bound)
        assert not fault(sign * math.nextafter(bound, 0.0))

    @pytest.mark.parametrize("wild", [1e200, 1e20])
    def test_wild_finite_frame_leaves_command_within_clean_change(
            self, default_params, wild):
        """One finite frame with a wild thigh angle in a steady 250 Hz
        stream is gated: no tick reaches the torque limit, and the left
        command changes per tick by no more than on the clean stream.
        Admitted, as before angles had a bound, its STS spring torque
        entered the blend at a beta of about 2e-21 and drove the command
        filter's state far past the limit: at 1e200 the command sat at
        +-22 Nm for 4,962 of the next 5,700 ticks, with 139 full-scale
        sign flips of 44 Nm, and at 1e20 for 297 ticks."""
        def left_commands(wild_angle):
            ctl = HipController(default_params)
            cmd = []
            for k in range(6000):
                t = k * DT
                s, c = math.sin(5.0 * t), math.cos(5.0 * t)
                frame = SensorFrame(t, 0.1 * s, -0.1 * s, 0.5 * c, -0.5 * c,
                                    0.1 * s, -0.1 * s, 0.1)
                if k == 300 and wild_angle is not None:
                    frame.thigh_angle_l = wild_angle
                cmd.append(ctl.step(frame).left.tau_cmd)
            return np.array(cmd)

        clean = np.abs(np.diff(left_commands(None))).max()
        cmd = left_commands(wild)
        assert np.abs(cmd).max() < default_params.torque_limit
        assert np.abs(np.diff(cmd)).max() <= clean

    @pytest.mark.parametrize("first, gated, second", [
        (1.0, None, 0.5),
        (0.0, None, 0.0),
        (1.0, 0.5, 0.6),
    ], ids=["decrease", "repeat", "behind-gated-frame"])
    def test_timestamp_regression_raises(self, default_params,
                                         detector_timestamps, first, gated,
                                         second):
        """An admitted frame must be later than the last admitted one,
        also when a gated frame with an earlier timestamp came between;
        the detector never sees the regressed frame."""
        ctl = HipController(default_params)
        ctl.step(zero_frame(first))
        if gated is not None:
            frame = zero_frame(gated)
            frame.pelvis_accel = math.nan
            assert ctl.step(frame).left.fault
        with pytest.raises(ValueError, match=re.escape(
                f"timestamp regression: {second} after {first}")):
            ctl.step(zero_frame(second))
        assert detector_timestamps == [first]

    @pytest.mark.parametrize("bad_t", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamp_keeps_regression_check_armed(
            self, default_params, detector_timestamps, bad_t):
        """A frame with a non-finite timestamp is gated, on a clock the
        gate advances by one period; the regression check stays armed
        and the detector sees only the admitted frames."""
        ctl = HipController(default_params)
        ctl.step(zero_frame(0.0))
        res = ctl.step(zero_frame(bad_t))
        assert res.left.fault and res.timestamp == DT
        with pytest.raises(ValueError):
            ctl.step(zero_frame(0.0))
        assert not ctl.step(zero_frame(2 * DT)).left.fault
        assert detector_timestamps == [0.0, 2 * DT]


    @pytest.mark.parametrize("admitted, gated, later", [
        ((0.0, 0.004), 1e9, 0.008),
        ((0.0,), 0.5, 0.3),
    ], ids=["far-future", "ahead-of-next"])
    def test_far_future_gated_frame_does_not_block_later_frames(
            self, default_params, detector_timestamps, admitted, gated,
            later):
        """Only admitted frames set the regression clock: a gated frame
        dated ahead of the next admitted one, however far, blocks no later
        frame, and the detector never sees it."""
        ctl = HipController(default_params)
        for t in admitted:
            ctl.step(zero_frame(t))
        frame = zero_frame(gated)
        frame.hip_vel_l = math.nan
        assert ctl.step(frame).left.fault
        assert not ctl.step(zero_frame(later)).left.fault
        assert detector_timestamps == [*admitted, later]


class TestLatency:
    def test_step_budget(self, default_params):
        ctl = HipController(default_params)
        rng = np.random.default_rng(17)
        frames = [random_frame(rng, k * DT) for k in range(3000)]
        times = np.empty(len(frames))
        for i, f in enumerate(frames):
            t0 = time.perf_counter()
            ctl.step(f)
            times[i] = time.perf_counter() - t0
        p99 = float(np.percentile(times, 99))
        assert p99 < 0.004  # the 250 Hz loop period


class TestParamsValidation:
    def test_cutoffs_must_sit_below_nyquist(self, default_params):
        with pytest.raises(ValueError):
            ControllerParams(gait=default_params.gait, sts=default_params.sts,
                             descent=default_params.descent,
                             symmetry=default_params.symmetry,
                             loop_rate_hz=250.0, vel_filter_cutoff_hz=130.0)

    def test_torque_limit_positive(self, default_params):
        with pytest.raises(ValueError):
            ControllerParams(gait=default_params.gait, sts=default_params.sts,
                             descent=default_params.descent,
                             symmetry=default_params.symmetry,
                             torque_limit=0.0)

    @pytest.mark.parametrize("limit", [math.inf, math.nan])
    def test_torque_limit_finite(self, default_params, limit):
        with pytest.raises(ValueError, match="torque_limit"):
            replace(default_params, torque_limit=limit)


def test_runtime_import_loads_no_offline_tools():
    """``import hipexo.controller`` loads the runtime modules only: no
    scipy, no yaml, and none of the offline tools."""
    src = str(Path(hipexo.__file__).resolve().parent.parent)
    code = ("import sys, hipexo.controller; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split()
    for name in ("scipy", "yaml", "hipexo.gaitdata", "hipexo.optimize",
                 "hipexo.cli"):
        assert name not in out, name


def test_offline_tools_run_without_scipy(tmp_path):
    """``simulate`` and ``optimize`` on the default configs succeed with
    scipy unimportable, and importing the CLI, the optimizer and stride
    synthesis loads no scipy module."""
    src = str(Path(hipexo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, hipexo.cli, hipexo.optimize, hipexo.gaitdata; "
            "print(' '.join(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout.split()
    assert [name for name in out if name.split(".")[0] == "scipy"] == []
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # every scipy import now fails\n"
        "from hipexo.cli import main\n"
        f"rc = main(['simulate', '--config', 'default', '--seed', '7', "
        f"'--out', {str(tmp_path / 'sim')!r}])\n"
        "assert rc == 0, ('simulate', rc)\n"
        f"rc = main(['optimize', '--config', 'default', '--seed', '0', "
        f"'--out', {str(tmp_path / 'opt')!r}])\n"
        "assert rc == 0, ('optimize', rc)\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert run.returncode == 0, run.stderr
