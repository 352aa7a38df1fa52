import math

import numpy as np
import pytest

from hipexo.gaitdata import synth_imu_stream
from hipexo.heelstrike import (HsDetector, HsDetectorConfig, _Channel,
                               match_events)
from hipexo.modulation import BilateralSample

RATE = 250.0


def run_stream(frames, detector=None, scale=1.0):
    det = detector or HsDetector(RATE)
    events = []
    for i in range(len(frames["t"])):
        ev = det.update(frames["t"][i], scale * frames["thigh_accel_l"][i],
                        scale * frames["thigh_accel_r"][i],
                        scale * frames["pelvis_accel"][i],
                        BilateralSample(frames["thigh_angle_l"][i],
                                        frames["thigh_angle_r"][i], 0.0))
        if ev is not None:
            events.append(ev)
    return events


class TestDetection:
    def test_walking_impulse_train(self):
        # 1 Hz per-side impulse train over 60 s: close to 60 events per side
        frames, truth = synth_imu_stream(60.0, seed=1, stride_period_s=1.0)
        events = run_stream(frames)
        scores = match_events(events, truth, tol_s=0.03)
        assert scores["recall"] >= 0.99
        assert scores["precision"] >= 0.99
        assert max(abs(e) for e in scores["timing_errors"]) <= 0.03
        for side in ("left", "right"):
            per_side = sum(1 for e in events if e.side == side)
            assert 50 <= per_side <= 62

    def test_flat_zero_stream_no_events(self):
        n = int(20 * RATE)
        frames = {"t": np.arange(n) / RATE,
                  "thigh_accel_l": np.zeros(n), "thigh_accel_r": np.zeros(n),
                  "pelvis_accel": np.zeros(n),
                  "thigh_angle_l": np.zeros(n), "thigh_angle_r": np.zeros(n)}
        assert run_stream(frames) == []

    def test_attenuated_thigh_caught_by_pelvis(self):
        frames, truth = synth_imu_stream(60.0, seed=2, thigh_spike=7.5,
                                         pelvis_spike=18.0)
        events = run_stream(frames)
        scores = match_events(events, truth, tol_s=0.03)
        assert scores["recall"] >= 0.95
        assert all(e.source in ("pelvis-channel", "fused") for e in events)
        assert any(e.source == "pelvis-channel" for e in events)

    def test_amplitude_scale_invariance_exact(self):
        frames, _ = synth_imu_stream(30.0, seed=3)
        base = run_stream(frames, scale=1.0)
        for c in (0.01, 3.7, 1e4):
            scaled = run_stream(frames, scale=c)
            assert len(scaled) == len(base)
            for a, b in zip(base, scaled):
                assert (a.side, a.timestamp, a.source) == \
                    (b.side, b.timestamp, b.source)

    def test_pelvis_events_attributed_to_leading_leg(self):
        frames, truth = synth_imu_stream(40.0, seed=4, thigh_spike=7.5,
                                         pelvis_spike=18.0)
        events = run_stream(frames)
        scores = match_events(events, truth, tol_s=0.03)
        # side matching is part of match_events, so recall checks attribution
        assert scores["recall"] >= 0.95


@pytest.mark.parametrize("field", ["confirm_samples", "refresh_every"])
@pytest.mark.parametrize("value", [2.5, "3", True, 0])
def test_config_sample_counts_must_be_positive_ints(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
        HsDetectorConfig(**{field: value})


class TestStreamContract:
    def test_non_monotonic_timestamps_rejected(self):
        det = HsDetector(RATE)
        b = BilateralSample(0.0, 0.0, 0.0)
        det.update(0.0, 0, 0, 0, b)
        with pytest.raises(ValueError):
            det.update(0.0, 0, 0, 0, b)

    @pytest.mark.parametrize("bad_t", [math.nan, math.inf, -math.inf])
    def test_non_finite_timestamps_rejected(self, bad_t):
        det = HsDetector(RATE)
        b = BilateralSample(0.0, 0.0, 0.0)
        det.update(0.0, 0, 0, 0, b)
        with pytest.raises(ValueError):
            det.update(bad_t, 0, 0, 0, b)
        # the rejected frame leaves the monotonic check armed
        with pytest.raises(ValueError):
            det.update(0.0, 0, 0, 0, b)
        assert det.update(1.0 / RATE, 0, 0, 0, b) is None

    def test_refractory_window_enforced_on_stream(self):
        frames, _ = synth_imu_stream(60.0, seed=5)
        events = run_stream(frames)
        for side in ("left", "right"):
            ts = [e.timestamp for e in events if e.side == side]
            assert all(b - a >= 0.4 for a, b in zip(ts, ts[1:]))

    def test_causal_detection_latency(self):
        # event timestamps never precede the data that produced them by more
        # than the local-max confirmation window
        cfg = HsDetectorConfig(confirm_samples=3)
        det = HsDetector(RATE, cfg)
        frames, _ = synth_imu_stream(20.0, seed=6)
        for i in range(len(frames["t"])):
            t = frames["t"][i]
            b = BilateralSample(frames["thigh_angle_l"][i],
                                frames["thigh_angle_r"][i], 0.0)
            ev = det.update(t, frames["thigh_accel_l"][i],
                            frames["thigh_accel_r"][i],
                            frames["pelvis_accel"][i], b)
            if ev is not None:
                assert t - ev.timestamp <= (cfg.confirm_samples + 1) / RATE + 1e-9


class TestSimultaneousHits:
    def test_pending_queue_releases_one_event_per_step(self):
        """Left-thigh, right-thigh and pelvis hits that confirm on the same
        step come out one per step in peak-time order; refractory and fused
        attribution decide which of them become events."""
        n = 600
        t = np.arange(n) / RATE
        acc_l, acc_r, acc_p = np.zeros(n), np.zeros(n), np.zeros(n)
        thigh_l, thigh_r = np.full(n, 0.3), np.full(n, 0.1)  # left leads
        # triple hit; again inside the refractory window; then left thigh
        # and pelvis with the right leg leading
        for p, (l, r, pel) in ((200, (9.0, 8.0, 7.0)),
                               (250, (9.0, 8.0, 7.0)),
                               (400, (9.0, 0.0, 7.0))):
            acc_l[p], acc_r[p], acc_p[p] = l, r, pel
        thigh_l[400:], thigh_r[400:] = 0.1, 0.3
        det = HsDetector(RATE)
        got = []
        for i in range(n):
            ev = det.update(t[i], acc_l[i], acc_r[i], acc_p[i],
                            BilateralSample(thigh_l[i], thigh_r[i], 0.0))
            if ev is not None:
                got.append((i, ev.side, ev.timestamp, ev.source))
        c = det.config.confirm_samples
        assert got == [
            (200 + c, "left", t[200], "fused"),
            (201 + c, "right", t[200], "fused"),
            (400 + c, "left", t[400], "fused"),
            (401 + c, "right", t[400], "pelvis-channel"),
        ]


def _reference_threshold(window, k_mad):
    """Median + k_mad * MAD of ``window`` by full ``np.median`` recompute."""
    data = np.asarray(window, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        med = float(np.median(data))
        mad = float(np.median(np.abs(data - med)))
    return med + k_mad * mad


def _mixed_stream(rng, window, n):
    """Seeded samples in blocks of continuous values, heavy ties, signed
    zeros, infinities and finite pairs whose mean overflows, with NaN bursts
    entering and leaving the window."""
    regimes = (
        lambda k: rng.normal(size=k),
        lambda k: rng.integers(-2, 3, size=k).astype(float),
        lambda k: rng.choice([0.0, -0.0, 1.0], size=k),
        lambda k: rng.choice([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf], size=k),
        lambda k: rng.choice([-np.inf, 0.0, np.inf], size=k),
        lambda k: rng.choice([-1.7e308, -1e308, 0.5, 1e308, 1.7e308],
                             size=k),
    )
    out = []
    while len(out) < n:
        k = int(rng.integers(1, 2 * window))
        block = regimes[int(rng.integers(len(regimes)))](k)
        if rng.random() < 0.3:
            a = int(rng.integers(k))
            block[a:a + int(rng.integers(1, window))] = np.nan
        out.extend(block.tolist())
    return out[:n]


class TestIncrementalThreshold:
    @pytest.mark.parametrize("window", [8, 9, 500, 501])
    @pytest.mark.parametrize("refresh", [1, 5])
    def test_matches_full_recompute_bit_for_bit(self, window, refresh):
        rng = np.random.default_rng(window * 10 + refresh)
        warmup, k_mad = 3, 4.0
        ch = _Channel(window, warmup, k_mad, refresh, confirm=3)
        snap = BilateralSample(0.0, 0.0, 0.0)
        values = _mixed_stream(rng, window, 12 * window + 7)
        kinds = set()
        for i, v in enumerate(values):
            ch.push(v, float(i), snap)
            if ch.count >= warmup and ch.count % refresh == 0:
                want = _reference_threshold(values[max(0, i + 1 - window):i + 1],
                                            k_mad)
                got = ch.threshold
                if math.isnan(want):
                    assert math.isnan(got), (i, got)
                    kinds.add("nan")
                else:
                    # same bits: also tells -0.0 from 0.0
                    assert np.float64(got).tobytes() == \
                        np.float64(want).tobytes(), (i, got, want)
                    kinds.add("finite" if math.isfinite(want) else "inf")
        assert {"nan", "finite", "inf"} <= kinds


class TestRefractoryCheck:
    def test_first_event_always_allowed(self):
        det = HsDetector(RATE)
        assert det.refractory_ok("left", 0.0)
        assert det.refractory_ok("right", -100.0)

    def test_boundary_arithmetic(self):
        det = HsDetector(RATE, HsDetectorConfig(refractory_s=0.4))
        det._last_event_t["left"] = 10.0
        assert not det.refractory_ok("left", 10.2)
        assert det.refractory_ok("left", 10.41)
        assert det.refractory_ok("left", 10.4)  # >= is inclusive


class TestMatchEvents:
    def test_empty_cases(self):
        assert match_events([], [])["precision"] == 1.0
        assert match_events([], [])["recall"] == 1.0
        assert match_events([], [("left", 1.0)])["recall"] == 0.0

    def test_zero_truth_with_detections_gives_zero_precision(self):
        b = BilateralSample(0.0, 0.0, 0.0)
        from hipexo.heelstrike import HsEvent
        det = [HsEvent("left", 1.0, b, "thigh-channel")]
        scores = match_events(det, [])
        assert scores["precision"] == 0.0
        assert scores["recall"] == 1.0
