import numpy as np
import pytest

from hipexo.csvio import read_csv
from hipexo.gaitdata import (CH_ANKLE_MOMENT, CH_ANKLE_VEL, CH_HIP_MOMENT,
                             CH_HIP_VEL, CH_KNEE_MOMENT, CH_KNEE_VEL,
                             ActivityLabel, synth_profiles)
from hipexo.metrics import (PAIRED_COLUMNS, TaskEnergetics,
                            cosine_similarity, ensemble_average,
                            paired_summary, peak_positive, percent_change,
                            positive_work, read_report, stride_energetics,
                            task_energetics, write_paired, write_report)
from hipexo.replay import simulate_task
from hipexo.signals import integrate_positive


class TestCosineSimilarity:
    def test_identical(self):
        a = np.array([1.0, -2.0, 3.0])
        assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_opposite(self):
        a = np.array([1.0, -2.0, 3.0])
        assert cosine_similarity(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_scale_invariance_and_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.normal(size=30)
            b = rng.normal(size=30)
            s = cosine_similarity(a, b)
            for c in (0.001, 7.0, 1e6):
                assert cosine_similarity(c * a, b) == pytest.approx(s, abs=1e-12)
            assert cosine_similarity(-a, b) == pytest.approx(-s, abs=1e-12)

    def test_errors(self):
        # zero norm: the similarity is undefined
        assert np.isnan(cosine_similarity([0.0, 0.0], [1.0, 2.0]))
        assert np.isnan(cosine_similarity([1.0, 2.0], [0.0, 0.0]))


def flat_stride(battery, moment, vel, exo=None):
    """A battery stride with a constant hip moment (Nm/kg) and velocity,
    plus a constant exo torque in Nm/kg of body mass if ``exo`` is given."""
    stride = battery[ActivityLabel("level-walk", 1.15)][0]
    n, mass = stride.n, stride.body_mass
    extra = {} if exo is None else {"exo_torque": np.full(n, exo * mass)}
    return stride.copy_with(hip_moment=np.full(n, moment),
                            hip_vel=np.full(n, vel), **extra)


class TestBiologicalMoment:
    """stride_energetics' biological moment: net moment less exo torque
    over body mass."""

    def test_zero_exo_passthrough(self, battery):
        stride = battery[ActivityLabel("level-walk", 1.15)][0]
        net_power = stride.channels[CH_HIP_MOMENT] * stride.channels[CH_HIP_VEL]
        out = stride_energetics(stride.copy_with(exo_torque=np.zeros(stride.n)))
        assert np.array_equal(out["bio_power"], net_power)
        assert np.all(out["exo_power"] == 0.0)
        assert out["hip_work"] == stride_energetics(stride)["hip_work"]

    def test_subtraction(self, battery):
        # 0.1 Nm/kg of exo torque off a 0.5 Nm/kg net moment, at unit
        # velocity: 0.4 W/kg biological and 0.1 W/kg exo power
        stride = flat_stride(battery, 0.5, 1.0, exo=0.1)
        out = stride_energetics(stride)
        assert out["bio_power"] == pytest.approx(np.full(stride.n, 0.4),
                                                 abs=1e-12)
        assert out["exo_power"] == pytest.approx(np.full(stride.n, 0.1),
                                                 abs=1e-12)
        assert out["peak_bio_power"] == pytest.approx(0.4, abs=1e-12)
        assert out["peak_total_power"] == pytest.approx(0.5, abs=1e-12)
        assert out["hip_work"] == pytest.approx(0.4 * stride.cycle_duration,
                                                rel=1e-12)


class TestJointPower:
    """Each joint power is its moment times its velocity."""

    def test_zero_velocity(self, battery):
        out = stride_energetics(flat_stride(battery, 1.0, 0.0, exo=0.3))
        assert np.all(out["bio_power"] == 0.0)
        assert np.all(out["exo_power"] == 0.0)
        assert out["hip_work"] == out["peak_total_power"] == 0.0

    def test_sign_algebra(self, battery):
        # extension moment during extension movement is positive power
        out = stride_energetics(flat_stride(battery, -1.0, -1.0))
        assert np.all(out["bio_power"] == 1.0)
        assert out["peak_bio_power"] == 1.0

    def test_sine_times_cosine_work(self):
        # P = sin * cos = 0.5 sin(4 pi t): amplitude 0.5, so the positive
        # work over a unit period is 1/(2 pi), i.e. 1/pi per unit power
        # amplitude
        n = 20001
        t = np.linspace(0.0, 1.0, n)
        p = np.sin(2 * np.pi * t) * np.cos(2 * np.pi * t)
        net = np.trapezoid(p, t)
        assert net == pytest.approx(0.0, abs=1e-10)
        w_pos = positive_work(p, 1.0)
        assert w_pos == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-6)
        assert w_pos / 0.5 == pytest.approx(1.0 / np.pi, abs=1e-6)


class TestPositiveWork:
    def test_constant(self):
        assert positive_work(np.full(13, 1.0), 1.2) == pytest.approx(1.2, abs=1e-12)

    def test_all_negative(self):
        assert positive_work(np.full(13, -3.0), 1.2) == 0.0

    def test_refinement_oracle(self):
        # profile-shaped series: coarse trapezoid within 0.5% of a 10x
        # refined Riemann sum
        stride = synth_profiles(ActivityLabel("level-walk", 1.0), seed=12)
        p = stride.channels[CH_HIP_MOMENT] * stride.channels[CH_HIP_VEL]
        coarse = positive_work(p, stride.cycle_duration)
        x = np.linspace(0.0, 1.0, stride.n)
        xf = np.linspace(0.0, 1.0, (stride.n - 1) * 10 + 1)
        pf = np.interp(xf, x, p)
        dt = stride.cycle_duration / (len(xf) - 1)
        riemann = float(np.sum(np.maximum(pf, 0.0)) * dt)
        assert coarse == pytest.approx(riemann, rel=5e-3)

    def test_two_way_split_identity(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=301)
        dur = 1.7
        dt = dur / 300
        total = integrate_positive(np.abs(p), dt)
        got = positive_work(p, dur) + positive_work(-p, dur)
        assert got == pytest.approx(total, rel=1e-14)


class TestPeakPositive:
    def test_all_negative_is_zero(self):
        assert peak_positive([-3.0, -0.1]) == 0.0

    def test_max(self):
        assert peak_positive([0.0, 2.5, 1.0]) == 2.5

    def test_sum_then_peak_identity(self):
        rng = np.random.default_rng(4)
        bio = rng.normal(size=101)
        exo = rng.normal(size=101)
        assert peak_positive(bio + exo) == peak_positive(np.add(bio, exo))


class TestEnsemble:
    def test_identical_strides_zero_sd(self, battery):
        strides = battery[ActivityLabel("level-walk", 0.85)]
        moment = strides[0].channels[CH_HIP_MOMENT]
        mean, sd = ensemble_average([moment, moment])
        assert np.array_equal(mean, strides[0].channels[CH_HIP_MOMENT])
        assert np.all(sd == 0.0)

    def test_two_sample_sd(self, battery):
        strides = battery[ActivityLabel("level-walk", 0.85)]
        a = strides[0]
        moment = a.channels[CH_HIP_MOMENT]
        mean, sd = ensemble_average([moment, moment + 2.0])
        assert mean == pytest.approx(a.channels[CH_HIP_MOMENT] + 1.0, abs=1e-12)
        assert sd == pytest.approx(np.full(a.n, np.sqrt(2.0)), abs=1e-12)


class TestEnergetics:
    def test_lowerlimb_is_sum_of_joints(self, battery):
        stride = battery[ActivityLabel("ramp-ascent", 11)][0]
        out = stride_energetics(stride)
        hip = positive_work(stride.channels[CH_HIP_MOMENT]
                            * stride.channels[CH_HIP_VEL], stride.cycle_duration)
        knee = positive_work(stride.channels[CH_KNEE_MOMENT]
                             * stride.channels[CH_KNEE_VEL], stride.cycle_duration)
        ankle = positive_work(stride.channels[CH_ANKLE_MOMENT]
                              * stride.channels[CH_ANKLE_VEL], stride.cycle_duration)
        assert out["lowerlimb_work"] == hip + knee + ankle
        assert out["lowerlimb_work"] >= out["hip_work"]

    def test_exo_channel_reduces_bio_work(self, battery):
        stride = battery[ActivityLabel("level-walk", 1.15)][0]
        exo = 0.5 * stride.body_mass * stride.channels[CH_HIP_MOMENT]
        assisted = stride.copy_with(exo_torque=exo)
        un = stride_energetics(stride)
        ex = stride_energetics(assisted)
        # exo torque equal to half the net moment halves the bio moment
        assert ex["hip_work"] == pytest.approx(0.5 * un["hip_work"], rel=1e-9)
        assert ex["sim"] == pytest.approx(1.0, abs=1e-9)

    def test_bio_plus_exo_power_is_net_power(self, default_params, battery):
        """On every assisted stride of the default battery the biological
        and exo powers add up to the net hip power, hip moment times hip
        velocity (worst case measured: 4.4e-16 W/kg)."""
        for strides in battery.values():
            for stride in simulate_task(default_params, strides)[0]:
                e = stride_energetics(stride)
                net = (stride.channels[CH_HIP_MOMENT]
                       * stride.channels[CH_HIP_VEL])
                np.testing.assert_allclose(e["bio_power"] + e["exo_power"],
                                           net, rtol=0, atol=1e-12)

    def test_report_roundtrip(self, tmp_path, battery):
        strides = battery[ActivityLabel("sit-to-stand")]
        rows = [task_energetics(strides, "unassisted", 1.0)]
        path = tmp_path / "report.csv"
        write_report(rows, path, header_lines=["seed: 0"])
        back = read_report(path)
        for a, b in zip(back, rows):
            for field in ("task", "condition", "hip_work", "lowerlimb_work",
                          "peak_bio_power", "peak_total_power",
                          "mean_extension_scale", "n_strides", "hip_intensive"):
                assert getattr(a, field) == getattr(b, field)
            assert (a.sim == b.sim) or (np.isnan(a.sim) and np.isnan(b.sim))

    def test_percent_change_convention(self):
        # reduction is negative, matching assisted-relative-to-unassisted
        assert percent_change(0.8, 1.0) == pytest.approx(-20.0)
        assert np.isnan(percent_change(1.0, 0.0))

    def test_paired_summary(self, battery):
        strides = battery[ActivityLabel("level-walk", 0.85)]
        un = task_energetics(strides, "unassisted", 1.0)
        ex = task_energetics(strides, "assisted", 1.0)
        pairs = paired_summary([un, ex])
        assert pairs == {"LG 0.85": (un, ex)}
        assert percent_change(ex.hip_work, un.hip_work) == \
            pytest.approx(0.0, abs=1e-12)
        lonely = paired_summary([un])
        assert lonely == {"LG 0.85": (un, None)}

    def test_task_with_one_condition(self, tmp_path, battery):
        """A task with one condition pairs with ``None`` in the other slot,
        keeps its first-seen place, and gets no paired.csv row."""
        lg = battery[ActivityLabel("level-walk", 0.85)]
        sts = battery[ActivityLabel("sit-to-stand")]
        rows = [task_energetics(sts, "assisted", 0.5),
                task_energetics(lg, "unassisted", 1.0),
                task_energetics(lg, "assisted", 0.9)]
        pairs = paired_summary(rows)
        assert pairs == {"STS": (None, rows[0]), "LG 0.85": tuple(rows[1:])}
        write_paired(pairs, tmp_path / "paired.csv")
        header, body = read_csv(tmp_path / "paired.csv")
        assert tuple(header) == PAIRED_COLUMNS
        assert [row[0] for row in body] == ["LG 0.85"]
        assert body[0][PAIRED_COLUMNS.index("mean_extension_scale")] == "0.9"
