import json
import math

import numpy as np
import pytest
import yaml

from hipexo.configio import SCHEMA, check
from hipexo.gaitdata import (CH_GRF, CH_HIP_ANGLE, CH_HIP_MOMENT, CH_HIP_VEL,
                             CH_THIGH, CH_TORSO, G, REQUIRED_CHANNELS,
                             SYNTH_N, _GAIT_SHAPES, ActivityLabel, LoadError,
                             RawTrial, StrideSeries, TaskCodeError,
                             _periodic, filter_trial,
                             load_stride, load_trial, normalize_stride,
                             save_stride, segment_strides, stride_meta_path,
                             synth_battery, synth_profiles)


class TestActivityLabel:
    def test_codes(self):
        assert ActivityLabel("level-walk", 0.85).code == "LG 0.85"
        assert ActivityLabel("ramp-ascent", 11).code == "RA 11"
        assert ActivityLabel("stair-descent", 0.178).code == "SD 7"
        assert ActivityLabel("sit-to-stand").code == "STS"

    def test_parse_roundtrip(self):
        lab = ActivityLabel.parse("ramp-descent:5.2")
        assert lab.kind == "ramp-descent" and lab.parameter == 5.2
        assert ActivityLabel.parse("sit-to-stand").kind == "sit-to-stand"

    def test_parameter_consistency(self):
        with pytest.raises(ValueError):
            ActivityLabel("level-walk", 9.0)  # not a walking speed
        with pytest.raises(ValueError):
            ActivityLabel("stair-ascent", 2.0)  # not a step height in m
        with pytest.raises(ValueError):
            ActivityLabel("junk-task", 1.0)

    def test_classification(self):
        assert ActivityLabel("ramp-descent", 11).is_descent
        assert not ActivityLabel("ramp-descent", 11).is_hip_intensive
        assert ActivityLabel("sit-to-stand").is_hip_intensive
        assert not ActivityLabel("sit-to-stand").is_gait


def write_trial_csv(path, rows, header):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


# a schema map as a file holds it
SCHEMA_MAP = {
    "sample_rate_hz": 100.0,
    "body_mass_kg": 70.0,
    "task": "level-walk:1.0",
    "columns": {
        "hip_angle": {"name": "HipAng", "unit": "deg"},
        "hip_vel": {"name": "HipVel", "unit": "deg/s"},
        "thigh_angle": {"name": "Thigh", "unit": "deg"},
        "thigh_angle_contra": {"name": "ThighC", "unit": "deg"},
        "torso_angle": {"name": "Torso", "unit": "deg"},
        "hip_moment": {"name": "HipMom", "unit": "Nm"},
        "grf_vertical": {"name": "Fz", "unit": "N"},
    },
}


@pytest.fixture
def schema_dict():
    """A schema map as ``load_trial`` takes it: checked by the table."""
    return check(SCHEMA, SCHEMA_MAP)


class TestLoadTrial:
    def test_well_formed_file(self, tmp_path, schema_dict):
        header = ["HipAng", "HipVel", "Thigh", "ThighC", "Torso", "HipMom", "Fz"]
        rows = [[10.0, 5.0, 8.0, -3.0, 2.0, 35.0, 700.0]] * 20
        path = tmp_path / "trial.csv"
        write_trial_csv(path, rows, header)
        trial = load_trial(path, schema_dict)
        assert set(trial.channels) == {
            name for name, spec in schema_dict["columns"].items() if spec}
        assert trial.channels["hip_angle"][0] == pytest.approx(10.0 * math.pi / 180)
        assert trial.channels["hip_moment"][0] == pytest.approx(0.5)  # 35/70
        assert trial.meta["label"].code == "LG 1"

    def test_missing_channel_named_in_error(self, tmp_path, schema_dict):
        header = ["HipAng", "HipVel", "Thigh", "ThighC", "Torso", "Fz"]
        rows = [[1, 1, 1, 1, 1, 1]] * 5
        path = tmp_path / "trial.csv"
        write_trial_csv(path, rows, header)
        with pytest.raises(LoadError, match="HipMom"):
            load_trial(path, schema_dict)

    def test_degrees_roundtrip(self, tmp_path, schema_dict):
        header = ["HipAng", "HipVel", "Thigh", "ThighC", "Torso", "HipMom", "Fz"]
        vals = [17.25, -3.5, 12.0, -1.0, 4.0, 10.0, 100.0]
        path = tmp_path / "trial.csv"
        write_trial_csv(path, [vals] * 10, header)
        trial = load_trial(path, schema_dict)
        back = trial.channels["hip_angle"][0] * 180.0 / math.pi
        assert back == pytest.approx(17.25, abs=1e-12)

    def test_nan_run_limits(self, tmp_path, schema_dict):
        header = ["HipAng", "HipVel", "Thigh", "ThighC", "Torso", "HipMom", "Fz"]
        rows = [[float(i), 1, 1, 1, 1, 1, 1] for i in range(30)]
        for i in range(4):  # short run: interpolated
            rows[10 + i][0] = "nan"
        path = tmp_path / "ok.csv"
        write_trial_csv(path, rows, header)
        trial = load_trial(path, schema_dict)
        assert np.all(np.isfinite(trial.channels["hip_angle"]))
        for i in range(7):  # run of 7 > 5: rejected
            rows[20 + i % 10][0] = "nan"
        rows2 = [[float(i), 1, 1, 1, 1, 1, 1] for i in range(30)]
        for i in range(7):
            rows2[10 + i][0] = "nan"
        path2 = tmp_path / "bad.csv"
        write_trial_csv(path2, rows2, header)
        with pytest.raises(LoadError, match="NaN run"):
            load_trial(path2, schema_dict)

    def test_unknown_unit(self, tmp_path, schema_dict):
        schema_dict["columns"]["hip_angle"]["unit"] = "furlongs"
        header = ["HipAng", "HipVel", "Thigh", "ThighC", "Torso", "HipMom", "Fz"]
        path = tmp_path / "trial.csv"
        write_trial_csv(path, [[1] * 7] * 5, header)
        with pytest.raises(LoadError, match="unit"):
            load_trial(path, schema_dict)

    @pytest.mark.parametrize("prefilter, cutoffs", [
        ("absent", None), (None, None), ({}, (6.0, 6.0, 20.0)),
        ({"grf_hz": 15.0}, (6.0, 6.0, 15.0))],
        ids=["absent", "null", "empty", "grf-only"])
    def test_prefilter_section(self, tmp_path, schema_dict, prefilter,
                               cutoffs):
        """A schema without a ``prefilter`` section, or with a null one,
        is read unfiltered; a section filters at the table's cutoffs
        where it leaves one out (an empty section once filtered nothing)."""
        header = ["HipAng", "HipVel", "Thigh", "ThighC", "Torso", "HipMom", "Fz"]
        rng = np.random.default_rng(3)
        path = tmp_path / "trial.csv"
        write_trial_csv(path, rng.normal(size=(200, 7)).tolist(), header)
        schema = dict(SCHEMA_MAP)
        if prefilter != "absent":
            schema["prefilter"] = prefilter
        trial = load_trial(path, check(SCHEMA, schema))
        expected = load_trial(path, schema_dict)
        if cutoffs is not None:
            filter_trial(expected, *cutoffs)
        assert trial.channels.keys() == expected.channels.keys()
        for name, series in expected.channels.items():
            assert np.array_equal(trial.channels[name], series), name

    def test_empty_cell_reads_as_nan(self, tmp_path, schema_dict):
        header = ["HipAng", "HipVel", "Thigh", "ThighC", "Torso", "HipMom", "Fz"]
        rows = [[float(i), 1, 1, 1, 1, 1, 1] for i in range(10)]
        rows[4][0] = " "
        path = tmp_path / "trial.csv"
        write_trial_csv(path, rows, header)
        angle = load_trial(path, schema_dict).channels["hip_angle"]
        assert angle[4] * 180.0 / math.pi == pytest.approx(4.0, abs=1e-12)


def make_grf_trial(n_contacts=10, fs=100.0, period_s=1.1, stance_s=0.65):
    n = int((n_contacts + 1) * period_s * fs)
    t = np.arange(n) / fs
    grf = np.zeros(n)
    for k in range(n_contacts):
        onset = (0.3 + k * period_s)
        in_stance = (t >= onset) & (t < onset + stance_s)
        grf[in_stance] = 1.2 * G * np.sin(
            np.pi * (t[in_stance] - onset) / stance_s) ** 0.5
    channels = {CH_GRF: grf}
    for name in (CH_HIP_ANGLE, CH_HIP_VEL, CH_THIGH, "thigh_angle_contra",
                 CH_TORSO, CH_HIP_MOMENT):
        channels[name] = np.sin(2 * np.pi * t / period_s) * 0.4
    return RawTrial(sample_rate_hz=fs, channels=channels,
                    meta={"body_mass": 70.0,
                          "label": ActivityLabel("level-walk", 1.0)})


class TestSegmentation:
    def test_ten_contacts_give_nine_strides(self):
        trial = make_grf_trial(n_contacts=10)
        strides = segment_strides(trial)
        assert len(strides) == 9
        # ranges are ordered and disjoint
        for (a0, a1), (b0, b1) in zip(strides, strides[1:]):
            assert a0 < a1 == b0 < b1

    def test_zero_grf_errors(self):
        trial = make_grf_trial(n_contacts=0)
        with pytest.raises(LoadError, match="heel strikes"):
            segment_strides(trial)

    def test_chatter_debounced(self):
        trial = make_grf_trial(n_contacts=5)
        grf = trial.channels[CH_GRF]
        # inject sub-debounce chatter around each onset
        thr = 0.05 * G
        onsets = np.flatnonzero((grf[:-1] < thr) & (grf[1:] >= thr)) + 1
        for i in onsets:
            grf[i + 2] = 0.0  # dip below threshold 20 ms after contact
            grf[i + 3] = thr * 2  # and pop back: chatter
        strides = segment_strides(trial)
        assert len(strides) == 4

    def test_missing_grf_channel(self):
        trial = make_grf_trial()
        del trial.channels[CH_GRF]
        with pytest.raises(LoadError, match="GRF"):
            segment_strides(trial)

    def test_stride_durations_sane(self):
        trial = make_grf_trial(n_contacts=8)
        for i0, i1 in segment_strides(trial):
            assert 0.4 <= (i1 - i0) / trial.sample_rate_hz <= 5.0


class TestNormalization:
    def test_already_uniform_identity(self):
        trial = make_grf_trial()
        stride = normalize_stride(trial, (100, 200), n_samples=101)
        assert stride.n == 101
        assert stride.channels[CH_HIP_ANGLE][0] == trial.channels[CH_HIP_ANGLE][100]
        assert stride.channels[CH_HIP_ANGLE][-1] == trial.channels[CH_HIP_ANGLE][200]
        assert stride.cycle_duration == pytest.approx(1.0)

    def test_linear_ramp_preserved(self):
        trial = make_grf_trial()
        n = len(trial.channels[CH_HIP_ANGLE])
        trial.channels[CH_HIP_ANGLE] = np.linspace(0.0, 1.0, n)
        stride = normalize_stride(trial, (50, 350), n_samples=61)
        expect = np.linspace(trial.channels[CH_HIP_ANGLE][50],
                             trial.channels[CH_HIP_ANGLE][350], 61)
        assert stride.channels[CH_HIP_ANGLE] == pytest.approx(expect, abs=1e-12)

    def test_sine_resample_accuracy(self):
        trial = make_grf_trial()
        n = len(trial.channels[CH_HIP_ANGLE])
        t = np.arange(n)
        trial.channels[CH_HIP_ANGLE] = np.sin(2 * np.pi * t / 500.0)
        stride = normalize_stride(trial, (0, 500), n_samples=101)
        xs = np.linspace(0, 500, 101)
        analytic = np.sin(2 * np.pi * xs / 500.0)
        assert np.max(np.abs(stride.channels[CH_HIP_ANGLE] - analytic)) < 1e-3

    def test_minmax_within_one_cell(self):
        trial = make_grf_trial()
        stride = normalize_stride(trial, (100, 400), n_samples=101)
        src = trial.channels[CH_HIP_ANGLE][100:401]
        out = stride.channels[CH_HIP_ANGLE]
        cell = np.max(np.abs(np.diff(src)))
        assert out.max() <= src.max() + cell
        assert out.min() >= src.min() - cell


class TestStrideSeries:
    """The one check of what a stride is, whichever producer made it."""

    def make(self, n=5, body_mass=70.0, cycle_duration=1.0):
        return StrideSeries(ActivityLabel("level-walk", 1.0),
                            {name: np.zeros(n) for name in REQUIRED_CHANNELS},
                            body_mass, cycle_duration)

    def test_two_samples_accepted(self):
        assert self.make(n=2).n == 2

    def test_one_sample_grid_rejected(self):
        with pytest.raises(ValueError, match=r"channel 'hip_angle' has 1 "
                           r"data row\(s\), not 2 or more"):
            self.make(n=1)

    def test_first_non_finite_cell_named(self):
        stride = synth_profiles(ActivityLabel("ramp-ascent", 11), seed=3)
        vel = stride.channels[CH_HIP_VEL].copy()
        vel[7] = math.nan
        torso = stride.channels[CH_TORSO].copy()
        torso[2] = math.inf
        with pytest.raises(ValueError, match="channel 'hip_vel' holds nan "
                           "at data row 8"):
            stride.copy_with(hip_vel=vel, torso_angle=torso)
        with pytest.raises(ValueError, match="channel 'torso_angle' holds "
                           "inf at data row 3"):
            stride.copy_with(torso_angle=torso)

    @pytest.mark.parametrize("body_mass, cycle_duration", [
        (math.inf, 1.0), (70.0, math.inf), (math.nan, 1.0), (70.0, 0.0)],
        ids=["inf-mass", "inf-duration", "nan-mass", "zero-duration"])
    def test_mass_and_duration_finite_and_positive(self, body_mass,
                                                   cycle_duration):
        with pytest.raises(ValueError, match="cycle_duration and body_mass "
                           "must be finite and > 0"):
            self.make(body_mass=body_mass, cycle_duration=cycle_duration)


class TestStrideFiles:
    def test_roundtrip_bit_identical(self, tmp_path):
        stride = synth_profiles(ActivityLabel("ramp-ascent", 11), seed=3)
        path = tmp_path / "stride.csv"
        save_stride(stride, path, header_lines=["tool: test"])
        back = load_stride(path)
        assert back.label == stride.label
        assert back.cycle_duration == stride.cycle_duration
        assert set(back.channels) == set(stride.channels)
        for name in stride.channels:
            assert np.array_equal(back.channels[name], stride.channels[name])

    def test_missing_sidecar(self, tmp_path):
        stride = synth_profiles(ActivityLabel("level-walk", 1.0), seed=0)
        path = tmp_path / "s.csv"
        save_stride(stride, path)
        (tmp_path / "s.meta.json").unlink()
        with pytest.raises(LoadError, match="sidecar"):
            load_stride(path)

    @pytest.mark.parametrize("value", [True, "70", [70.0]])
    def test_sidecar_body_mass_not_a_number(self, tmp_path, value):
        stride = synth_profiles(ActivityLabel("level-walk", 1.0), seed=0)
        path = tmp_path / "s.csv"
        save_stride(stride, path)
        meta = json.loads(stride_meta_path(path).read_text())
        meta["body_mass"] = value
        stride_meta_path(path).write_text(json.dumps(meta))
        with pytest.raises(LoadError, match=r"s\.csv: sidecar body_mass must "
                           "be a number"):
            load_stride(path)


class TestSynthProfiles:
    def test_same_seed_identical(self):
        a = synth_profiles(ActivityLabel("level-walk", 1.15), seed=9)
        b = synth_profiles(ActivityLabel("level-walk", 1.15), seed=9)
        for name in a.channels:
            assert np.array_equal(a.channels[name], b.channels[name])

    def test_level_walk_shape(self):
        s = synth_profiles(ActivityLabel("level-walk", 1.0), seed=2)
        hip = s.channels[CH_HIP_ANGLE]
        assert -0.3 <= hip.min() <= -0.05
        assert 0.45 <= hip.max() <= 0.75
        # two positive hip-power bursts per cycle
        power = s.channels[CH_HIP_MOMENT] * s.channels[CH_HIP_VEL]
        above = power > 0.2 * power.max()
        bursts = np.flatnonzero(np.diff(above.astype(int)) == 1)
        assert len(bursts) >= 2

    def test_sts_shape(self):
        s = synth_profiles(ActivityLabel("sit-to-stand"), seed=4)
        thigh = s.channels[CH_THIGH]
        assert thigh[0] > 1.2
        assert thigh[-1] < 0.15
        # thigh monotone non-increasing within tolerance
        assert np.max(np.diff(thigh)) < 1e-6
        torso = s.channels[CH_TORSO]
        peak_at = np.argmax(torso)
        assert 0.1 < peak_at / s.n < 0.5
        assert torso.max() > 0.2

    def test_battery_layout(self, battery):
        assert len(battery) == 11
        codes = {label.code for label in battery}
        assert {"LG 0.85", "RA 11", "SD 7", "STS"} <= codes
        for label, strides in battery.items():
            assert len(strides) == 3
            for s in strides:
                assert s.n == strides[0].n

    def test_moments_finite_everywhere(self, battery):
        for strides in battery.values():
            for s in strides:
                assert np.all(np.isfinite(s.channels[CH_HIP_MOMENT]))

    @pytest.mark.parametrize("tasks, message", [
        (["level-walk:1.15", "level-walk:1.15"],
         "level-walk:1.15 and level-walk:1.15 share the task code 'LG 1.15'"),
        (["stair-ascent:0.127", "stair-ascent:0.13"],
         "stair-ascent:0.127 and stair-ascent:0.13 share the task code "
         "'SA 5'"),
    ], ids=["listed-twice", "shared-code"])
    def test_battery_refuses_tasks_that_share_a_code(self, tasks, message,
                                                     monkeypatch):
        """Task files and report rows are keyed by the code, so a battery
        would drop a task or hold two under one key; it refuses before it
        makes any stride."""
        made = []
        monkeypatch.setattr("hipexo.gaitdata.synth_profiles",
                            lambda *a: made.append(a))
        with pytest.raises(TaskCodeError) as info:
            synth_battery(tasks=tasks)
        assert str(info.value) == message
        assert made == []


# every knot table the synthesis splines: (kind, phase key, value key)
KNOT_TABLES = [(kind, xk, yk) for kind, shape in _GAIT_SHAPES.items()
               for xk, yk in (("xa", "ya"), ("xe", "ye")) if xk in shape]


def scipy_periodic(xk, yk, x):
    """What ``_periodic`` computed with scipy's periodic ``CubicSpline``."""
    interpolate = pytest.importorskip("scipy.interpolate")
    xk = np.asarray(xk, dtype=float)
    yk = np.asarray(yk, dtype=float)
    spline = interpolate.CubicSpline(np.append(xk, 1.0),
                                     np.append(yk, yk[0]), bc_type="periodic")
    return spline(x % 1.0), spline.derivative()(x % 1.0)


class TestPeriodicSpline:
    @pytest.mark.parametrize("kind, xk, yk", KNOT_TABLES)
    def test_knot_tables_bit_identical_to_scipy(self, kind, xk, yk):
        """Under the battery's kinematic scales and jitter, and at the
        contralateral +0.5 phase shift."""
        shape = _GAIT_SHAPES[kind]
        x = np.linspace(0.0, 1.0, SYNTH_N)
        scales = np.random.default_rng(5).uniform(0.4, 1.6, 12)
        for kin_scale in scales * (1.0 + 0.04 * np.random.default_rng(
                6).standard_normal(scales.size)):
            values = np.asarray(shape[yk]) * kin_scale
            for phase in (x, x + 0.5):
                got = _periodic(shape[xk], values, phase)
                want = scipy_periodic(shape[xk], values, phase)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("kind, xk, yk", KNOT_TABLES)
    def test_knot_tables_need_no_row_interchange(self, kind, xk, yk):
        """LAPACK ``dgtsv``'s elimination on the condensed periodic system
        never meets ``|d[i]| < |dl[i]|``, the one case where it swaps rows
        and the port would round differently."""
        dx = np.diff(np.append(_GAIT_SHAPES[kind][xk], 1.0))
        m = dx.size - 1
        d = (2 * (np.roll(dx, 1) + dx))[:m]
        upper = np.roll(dx, 1)[:m - 1]
        lower = dx[1:m]
        for i in range(m - 1):
            assert abs(d[i]) >= abs(lower[i]), (kind, xk, i)
            d[i + 1] = d[i + 1] - lower[i] / d[i] * upper[i]

    def test_random_knots_close_to_scipy(self):
        """Uneven knots can make ``dgtsv`` swap rows, which the port
        never does: the two then differ in rounding only."""
        rng = np.random.default_rng(11)
        x = rng.uniform(-1.0, 2.0, 300)
        checked = 0
        while checked < 300:
            n = int(rng.integers(3, 12))
            first = 0.0 if checked % 2 else rng.uniform(0.0, 0.3)
            xk = np.append(first, np.sort(rng.uniform(first, 1.0, n - 1)))
            if np.min(np.diff(np.append(xk, 1.0))) < 1e-3:
                continue
            yk = rng.uniform(-1.0, 1.0, n)
            for got, want in zip(_periodic(xk, yk, x),
                                 scipy_periodic(xk, yk, x)):
                assert np.max(np.abs(got - want)) <= \
                    1e-12 * np.max(np.abs(want))
            checked += 1

    @pytest.mark.parametrize("kind, xk, yk, value, slope", [
        ("level-walk", "xa", "ya",
         ["0x1.0a3d70a3d70a4p-1", "0x1.5f514528beb86p-3",
          "-0x1.e7005b1b9e3a0p-9", "0x1.0edcf563d732ap-1"],
         ["-0x1.da1a6e503e0a7p-1", "-0x1.c7903baa59e22p+0",
          "0x1.27d238748266ep+1", "-0x1.c1740879e6f98p-1"]),
        ("stair-descent", "xe", "ye",
         ["0x0.0p+0", "0x1.6666666666666p-2", "0x1.a00b5c69bc185p-7",
          "-0x1.594a79c1acaa0p-8"],
         ["0x1.41ee71df5717fp-1", "0x1.92b668b2f215fp-1",
          "-0x1.1c1f963c0277dp+0", "0x1.b7c78dd272650p-2"]),
    ])
    def test_matches_recorded_scipy_values(self, kind, xk, yk, value, slope):
        """Values scipy 1.17.1 gave at phases 0, 0.25, 0.61 and 0.99; they
        hold where scipy is not installed."""
        shape = _GAIT_SHAPES[kind]
        got = _periodic(shape[xk], shape[yk],
                        np.array([0.0, 0.25, 0.61, 0.99]))
        assert [float(v).hex() for v in got[0]] == value
        assert [float(v).hex() for v in got[1]] == slope
