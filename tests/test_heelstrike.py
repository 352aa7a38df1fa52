import math
import tracemalloc

import numpy as np
import pytest

from hipexo import heelstrike, replay
from hipexo.gaitdata import synth_battery, synth_imu_stream
from hipexo.heelstrike import (HsDetector, HsDetectorConfig, _Channel,
                               _channel_sizes, _threshold_columns,
                               detect_columns, match_events)
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


@pytest.mark.parametrize("field", ["k_mad", "window_s", "refractory_s",
                                   "warmup_s"])
@pytest.mark.parametrize("value", [0.0, -3.0, math.nan, math.inf])
def test_config_spans_must_be_finite_and_positive(field, value):
    with pytest.raises(ValueError, match="must be finite and > 0"):
        HsDetectorConfig(**{field: value})


class TestStreamContract:
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
    """Seeded finite samples in blocks of continuous values, heavy ties,
    signed zeros and finite pairs whose mean overflows to an infinite
    median."""
    regimes = (
        lambda k: rng.normal(size=k),
        lambda k: rng.integers(-2, 3, size=k).astype(float),
        lambda k: rng.choice([0.0, -0.0, 1.0], size=k),
        lambda k: rng.choice([-1.7e308, -1e308, 0.5, 1e308, 1.7e308],
                             size=k),
        lambda k: rng.choice([-1.7e308, 1.7e308], size=k),
    )
    out = []
    while len(out) < n:
        k = int(rng.integers(1, 2 * window))
        out.extend(regimes[int(rng.integers(len(regimes)))](k).tolist())
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
                    # an overflowed -inf median plus an infinite MAD
                    assert math.isnan(got), (i, got)
                    kinds.add("nan")
                else:
                    # same bits: also tells -0.0 from 0.0
                    assert np.float64(got).tobytes() == \
                        np.float64(want).tobytes(), (i, got, want)
                    kinds.add("finite" if math.isfinite(want) else "inf")
        assert {"finite", "inf"} <= kinds

    @pytest.mark.parametrize("big", [1.7e308, -1.7e308])
    def test_overflowed_median(self, big):
        """A finite middle pair whose mean overflows gives an infinite
        median and MAD: the threshold of a full recompute, +inf, or NaN
        for -inf + inf, and no sample exceeds it."""
        ch = _Channel(8, 4, 4.0, 1, confirm=1)
        snap = BilateralSample(0.0, 0.0, 0.0)
        values = [0.0, big, 1.0, big, big, -1.0, big, big]
        for i, v in enumerate(values):
            ch.push(v, float(i), snap)
        want = _reference_threshold(values, 4.0)
        assert math.isinf(want) if big > 0 else math.isnan(want)
        assert np.float64(ch.threshold).tobytes() == \
            np.float64(want).tobytes()
        last_above = ch.last_above_t
        ch.push(1.7e308, 8.0, snap)
        assert ch.last_above_t == last_above


def stepped_events(columns, config=None):
    """(frame, event) pairs of HsDetector.update stepped over ``columns``
    (t, three accelerations, thigh L, thigh R, theta_diff_dot)."""
    det = HsDetector(RATE, config)
    out = []
    for i, v in enumerate(zip(*(np.asarray(c).tolist() for c in columns))):
        event = det.update(*v[:4], BilateralSample(*v[4:]))
        if event is not None:
            out.append((i, event))
    return out


def assert_same_events(columns, config=None):
    """The column detector gives HsDetector.update's events, at the same
    frames; HsEvent equality includes the thigh snapshot."""
    want = stepped_events(columns, config)
    got = detect_columns(RATE, *map(np.asarray, columns), config=config)
    assert got == want
    return got


def quantised_stream(rng, n, spikes):
    """Seeded accelerations with ties, constant stretches and signed
    zeros, plus ``spikes`` random spikes."""
    regimes = (
        lambda k: rng.normal(size=k),
        lambda k: rng.integers(-2, 3, size=k).astype(float),
        lambda k: rng.choice([0.0, -0.0, 1.0], size=k),
        lambda k: np.full(k, rng.choice([0.0, -0.0, 0.5])),
    )
    out = []
    while len(out) < n:
        k = int(rng.integers(1, 300))
        out.extend(regimes[int(rng.integers(len(regimes)))](k).tolist())
    x = np.array(out[:n])
    at = rng.integers(0, n, size=spikes)
    x[at] = rng.choice([4.0, 6.0, 6.0, 9.0], size=spikes)
    return x


def spike_columns(n, spikes, lead=None):
    """Zero accelerations with spikes {frame: (left, right, pelvis)};
    ``lead`` is the leading thigh from each frame on."""
    t = np.arange(n) / RATE
    acc = np.zeros((3, n))
    for frame, values in spikes.items():
        acc[:, frame] = values
    th_l, th_r = np.full(n, 0.3), np.full(n, 0.1)
    for frame, side in sorted((lead or {}).items()):
        th_l[frame:], th_r[frame:] = ((0.3, 0.1) if side == "left"
                                      else (0.1, 0.3))
    return [t, *acc, th_l, th_r, np.linspace(-1.0, 1.0, n)]


class TestColumnDetector:
    """detect_columns against HsDetector.update stepped frame by frame."""

    @pytest.mark.parametrize("seed", [7, 11])
    def test_default_battery_streams(self, seed):
        n_events = 0
        for task in synth_battery(strides_per_task=3, seed=seed).values():
            for stride in task:
                cols = replay._frames(stride, RATE, 4)[2]
                t, _, _, vel_l, vel_r, th_l, th_r, _, acc_l, acc_r, acc_p = \
                    cols
                n_events += len(assert_same_events(
                    [t, acc_l, acc_r, acc_p, th_l, th_r, vel_l - vel_r]))
        assert n_events > 200

    @pytest.mark.parametrize("config", [
        HsDetectorConfig(),
        HsDetectorConfig(refresh_every=1),
        HsDetectorConfig(refresh_every=7),          # warmup 125 = 17*7 + 6
        HsDetectorConfig(refresh_every=5, warmup_s=0.51),   # warmup 128
        HsDetectorConfig(window_s=0.2, refresh_every=7),    # window < warmup
        HsDetectorConfig(confirm_samples=1, refractory_s=0.01),
        HsDetectorConfig(window_s=0.04, warmup_s=0.02, refresh_every=3,
                         refractory_s=0.004),
    ], ids=["default", "refresh-1", "refresh-7", "warmup-128",
            "window-lt-warmup", "confirm-1", "tiny"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_quantised_seeded_streams(self, config, seed):
        rng = np.random.default_rng(seed)
        n = 3000
        columns = [np.arange(n) / RATE,
                   *(quantised_stream(rng, n, 60) for _ in range(3)),
                   rng.choice([-0.2, 0.0, 0.2], size=n),
                   rng.choice([-0.2, 0.0, 0.2], size=n),
                   rng.normal(size=n)]
        events = assert_same_events(columns, config)
        assert len({e.source for _, e in events}) >= 2

    def test_synth_imu_stream(self):
        frames, _ = synth_imu_stream(30.0, seed=3)
        assert len(assert_same_events(
            [frames[k] for k in ("t", "thigh_accel_l", "thigh_accel_r",
                                 "pelvis_accel", "thigh_angle_l",
                                 "thigh_angle_r")]
            + [np.zeros(len(frames["t"]))])) > 40

    def test_fifo_carries_events_into_later_frames(self):
        """Two thigh hits confirm on one frame and a pelvis hit on the next,
        so the queue carries an event into a frame with a new hit. A later
        triple hit drains over two frames: its pelvis hit shares the
        leading thigh's peak time and falls in that side's refractory."""
        cfg = HsDetectorConfig(refractory_s=1e-3)
        columns = spike_columns(600, {200: (9.0, 8.0, 0.0),
                                      201: (0.0, 0.0, 7.0),
                                      210: (9.0, 8.0, 7.0)})
        got = assert_same_events(columns, cfg)
        c = cfg.confirm_samples
        assert [frame for frame, _ in got] == [200 + c, 201 + c, 202 + c,
                                               210 + c, 211 + c]
        assert [e.source for _, e in got][:3] == ["fused", "fused",
                                                  "pelvis-channel"]

    def test_merge_sees_hit_frames_only(self, monkeypatch):
        """Both paths hand ``_merge`` only a frame with a hit, and release
        its queued events themselves, one a frame."""
        merge = HsDetector._merge
        calls = []

        def spy(det, left, right, pelvis, pelvis_last_above_t):
            calls.append((left, right, pelvis))
            return merge(det, left, right, pelvis, pelvis_last_above_t)

        monkeypatch.setattr(HsDetector, "_merge", spy)
        cfg = HsDetectorConfig(refractory_s=1e-3)
        columns = spike_columns(600, {200: (9.0, 8.0, 0.0),
                                      210: (9.0, 8.0, 7.0)})
        got = assert_same_events(columns, cfg)
        # two hit frames in each path, and queued events out on the frames
        # after each
        assert len(calls) == 4
        assert all(any(h is not None for h in call) for call in calls)
        c = cfg.confirm_samples
        assert [frame for frame, _ in got] == [200 + c, 201 + c,
                                               210 + c, 211 + c]

    def test_pending_queue_with_default_refractory(self):
        columns = spike_columns(600, {200: (9.0, 8.0, 7.0),
                                      250: (9.0, 8.0, 7.0),
                                      400: (9.0, 0.0, 7.0)},
                                lead={400: "right"})
        got = assert_same_events(columns)
        assert [(e.side, e.source) for _, e in got] == [
            ("left", "fused"), ("right", "fused"), ("left", "fused"),
            ("right", "pelvis-channel")]

    @pytest.mark.parametrize("second", [6.0, 4.0], ids=["higher", "lower"])
    def test_peak_replaced_on_its_confirm_sample(self, second):
        """A higher sample on the confirm frame replaces the pending peak;
        a lower one there confirms it and starts no candidate."""
        c = HsDetectorConfig().confirm_samples
        columns = spike_columns(600, {300: (5.0, 0.0, 0.0),
                                      300 + c: (second, 0.0, 0.0),
                                      301 + c: (4.5, 0.0, 0.0)})
        got = assert_same_events(columns, HsDetectorConfig(refractory_s=1e-3))
        t = columns[0]
        if second > 5.0:
            assert [(f, e.timestamp) for f, e in got] == [(300 + 2 * c,
                                                           t[300 + c])]
        else:
            assert [(f, e.timestamp) for f, e in got] == [
                (300 + c, t[300]), (301 + 2 * c, t[301 + c])]

    @pytest.mark.parametrize("gap", [99, 100, 101])
    def test_refractory_edge(self, gap):
        columns = spike_columns(800, {300: (9.0, 0.0, 0.0),
                                      300 + gap: (9.0, 0.0, 0.0)})
        got = assert_same_events(columns)
        t = columns[0]
        assert len(got) == 1 + (t[300 + gap] - t[300] >= 0.4)

    @pytest.mark.parametrize("lag", [0, 3, 4, 5])
    def test_fusion_window_edge(self, lag):
        spikes = {300 - lag: (0.0, 0.0, 7.0)}
        spikes[300] = (9.0, 0.0, spikes.get(300, (0.0, 0.0, 0.0))[2])
        columns = spike_columns(800, spikes, lead={0: "right"})
        cfg = HsDetectorConfig(refractory_s=1e-3)
        got = assert_same_events(columns, cfg)
        t = columns[0]
        fused = t[300] - t[300 - lag] <= (cfg.confirm_samples + 1) / RATE
        assert ("left", "fused" if fused else "thigh-channel") in \
            [(e.side, e.source) for _, e in got]

    @pytest.mark.parametrize("n", [0, 1, 50, 124, 125, 126, 300])
    def test_short_streams(self, n):
        """Shorter than the warmup (125 samples) and than the window
        (500); a spike just after the warmup still confirms."""
        spikes = {k: (9.0, 8.0, 7.0) for k in (126, 130) if k < n}
        columns = spike_columns(n, spikes)
        got = assert_same_events(columns, HsDetectorConfig(confirm_samples=1))
        assert bool(got) == (n > 127)

    @pytest.mark.parametrize("window", [8, 9, 500, 501])
    @pytest.mark.parametrize("refresh", [1, 5, 7])
    def test_threshold_column_matches_channel_and_recompute(self, window,
                                                            refresh):
        """One pass over three streams with different content gives each
        the thresholds of its own channel, and each refresh the floats of
        a full recompute over its window."""
        rng = np.random.default_rng(window * 10 + refresh)
        warmup, k_mad = 3, 4.0
        streams = [_mixed_stream(rng, window, 12 * window + 7)
                   for _ in range(3)]
        thr = _threshold_columns(tuple(map(np.array, streams)), window,
                                 warmup, refresh, k_mad)
        kinds = set()
        for values, got in zip(streams, thr):
            assert got.tobytes() == channel_thresholds(
                values, window, warmup, refresh, k_mad).tobytes()
            for c in range(warmup, len(values)):
                if c % refresh:
                    continue
                want = _reference_threshold(values[max(0, c - window):c],
                                            k_mad)
                assert np.float64(got[c]).tobytes() == \
                    np.float64(want).tobytes(), (c, got[c], want)
                kinds.add("finite" if math.isfinite(want) else
                          "nan" if math.isnan(want) else "inf")
        assert {"finite", "inf"} <= kinds

    @pytest.mark.parametrize("confirm", [1, 2, 3, 6])
    def test_sparse_scan_matches_channel_push(self, confirm):
        """Dense runs over the threshold on one channel: the column path,
        which visits only the samples that can touch a candidate,
        supersedes, ages and confirms as _Channel.push does, frame by
        frame."""
        rng = np.random.default_rng(confirm)
        n = 4000
        cfg = HsDetectorConfig(k_mad=1.0, window_s=0.2, warmup_s=0.08,
                               refresh_every=5, confirm_samples=confirm,
                               refractory_s=1e-9)
        x = np.where(rng.random(n) < 0.3,
                     rng.integers(3, 9, size=n).astype(float),
                     rng.normal(size=n))
        columns = [np.arange(n) / RATE, x, np.zeros(n), np.zeros(n),
                   np.zeros(n), np.zeros(n), np.zeros(n)]
        got = [(i, e.timestamp) for i, e in detect_columns(RATE, *columns,
                                                          config=cfg)]
        ch = _Channel(50, 20, 1.0, 5, confirm)
        want = []
        for i, (v, t) in enumerate(zip(x.tolist(), columns[0].tolist())):
            confirmed = ch.push(v, t, BilateralSample(0.0, 0.0, 0.0))
            if confirmed is not None:
                want.append((i, confirmed[0]))
        assert got == want
        assert len(want) > 100


class TestEnvelope:
    """Both sides of the detection cliff on synth_imu_stream, whose thigh
    channel carries a 3 m/s^2 baseline oscillation: every heel strike is
    found at thigh/pelvis spikes of 7/1.5 m/s^2, and most are lost on some
    seed at 3/0.6 (lowest recall 0.108). A detector change that moves the
    cliff fails here."""

    SEEDS = range(5)

    @staticmethod
    def scores(thigh_spike, pelvis_spike):
        """(precision, recall) per seed of stepping HsDetector.update,
        after checking that detect_columns gives the same events."""
        out = []
        for seed in TestEnvelope.SEEDS:
            frames, truth = synth_imu_stream(60.0, seed=seed,
                                             thigh_spike=thigh_spike,
                                             pelvis_spike=pelvis_spike)
            events = assert_same_events(
                [frames[k] for k in ("t", "thigh_accel_l", "thigh_accel_r",
                                     "pelvis_accel", "thigh_angle_l",
                                     "thigh_angle_r")]
                + [np.zeros(len(frames["t"]))])
            s = match_events([e for _, e in events], truth, tol_s=0.03)
            out.append((s["precision"], s["recall"]))
        return out

    def test_full_detection_down_to_7_and_1_5(self):
        for precision, recall in self.scores(7.0, 1.5):
            assert precision >= 0.99
            assert recall >= 0.99

    def test_detection_lost_at_3_and_0_6(self):
        assert min(recall for _, recall in self.scores(3.0, 0.6)) < 0.5


def channel_thresholds(values, window, warmup, refresh, k_mad=4.0):
    """The threshold _Channel.push compares each of ``values`` against."""
    ch = _Channel(window, warmup, k_mad, refresh, confirm=3)
    snap = BilateralSample(0.0, 0.0, 0.0)
    out = []
    for i, v in enumerate(values):
        out.append(ch.threshold)
        ch.push(v, float(i), snap)
    return np.array(out)


class TestThresholdBlocks:
    """_threshold_columns sorts the refresh rows of all its streams in
    blocks; where the blocks end, and which integer type holds the
    ranks, must not change a bit of any stream's thresholds."""

    @staticmethod
    def blocked(monkeypatch, streams, window, warmup, refresh):
        """The thresholds of ``streams`` at the default block budget, then
        with blocks of 1, 2 and 3 rows of every stream."""
        columns = tuple(np.asarray(x, dtype=float) for x in streams)
        out = [_threshold_columns(columns, window, warmup, refresh, 4.0)]
        for rows in (1, 2, 3):
            monkeypatch.setattr(heelstrike, "_BLOCK_ELEMENTS",
                                rows * window * len(columns))
            out.append(_threshold_columns(columns, window, warmup, refresh,
                                          4.0))
        monkeypatch.undo()
        return out

    @staticmethod
    def wanted(streams, window, warmup, refresh):
        return np.array([channel_thresholds(x, window, warmup, refresh)
                         for x in streams])

    @pytest.mark.parametrize("window", [8, 9, 500, 501])
    @pytest.mark.parametrize("refresh", [1, 5, 7, 9])
    def test_block_seams(self, monkeypatch, window, refresh):
        rng = np.random.default_rng(window * 10 + refresh)
        streams = [_mixed_stream(rng, window, 3 * window + 7)
                   for _ in range(3)]
        want = self.wanted(streams, window, 3, refresh).tobytes()
        for thr in self.blocked(monkeypatch, streams, window, 3, refresh):
            assert thr.tobytes() == want

    @pytest.mark.parametrize("window", [8, 500])
    @pytest.mark.parametrize("refresh", [1, 5, 9])
    def test_ties_signed_zeros_and_constant_data(self, monkeypatch, window,
                                                 refresh):
        """Quantised values, a stream of signed zeros only and a constant
        stream: ranks break every tie, and the rows read back the same
        floats."""
        rng = np.random.default_rng(window + refresh)
        n = 6 * window + 11
        streams = [quantised_stream(rng, n, n // 50),
                   rng.choice([0.0, -0.0], size=n), np.full(n, 0.5)]
        want = self.wanted(streams, window, 3, refresh)
        assert np.isfinite(want[:, 3 * window:]).all()
        for thr in self.blocked(monkeypatch, streams, window, 3, refresh):
            assert thr.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window", [8, 500])
    @pytest.mark.parametrize("refresh", [1, 5, 9])
    @pytest.mark.parametrize("past", [-1, 0, 1])
    def test_streams_around_first_refresh(self, monkeypatch, window,
                                          refresh, past):
        """Shorter than the sample count of the first refresh, exactly
        at it and one past it: all inf, all inf, one refresh."""
        warmup = 3
        first = max(1, -(-warmup // refresh)) * refresh
        rng = np.random.default_rng(refresh)
        streams = [rng.normal(size=first + past) for _ in range(3)]
        want = self.wanted(streams, window, warmup, refresh)
        assert (np.isfinite(want).sum(axis=1) == max(0, past)).all()
        for thr in self.blocked(monkeypatch, streams, window, warmup,
                                refresh):
            assert thr.tobytes() == want.tobytes()

    @pytest.mark.parametrize("big", [1.7e308, -1.7e308])
    @pytest.mark.parametrize("refresh", [1, 5])
    def test_overflowed_median_rows(self, monkeypatch, big, refresh):
        """Rows whose finite middle pair overflows to an infinite median
        give MAD inf: thresholds +inf, or NaN for -inf + inf."""
        values = [0.0, big, 1.0, big, big, -1.0, big, big] * 6
        streams = [values, values[::-1], [-v for v in values]]
        want = self.wanted(streams, 8, 4, refresh)
        assert (np.isinf(want[0]) if big > 0 else np.isnan(want[0]))[8:].any()
        for thr in self.blocked(monkeypatch, streams, 8, 4, refresh):
            assert thr.tobytes() == want.tobytes()

    @pytest.mark.parametrize("window, dtype", [(67, np.int16),
                                               (68, np.int32)],
                             ids=["span-32767", "span-32768"])
    def test_rank_type_at_the_int16_limit(self, monkeypatch, window, dtype):
        """Blocks of 328 rows at refresh 100 span window + 327 * 100
        samples of one stream: 32767 ranks and the pad's rank fit int16,
        32768 need int32. Both blocks of the stream sort the type, and
        the thresholds are the channel's."""
        refresh, rows = 100, 328
        x = quantised_stream(np.random.default_rng(window),
                             100 + 2 * rows * refresh, 500)
        monkeypatch.setattr(heelstrike, "_BLOCK_ELEMENTS", rows * window)
        sorted_types = []
        sort = np.sort

        def spy(a, *args, **kwargs):
            sorted_types.append(a.dtype)
            return sort(a, *args, **kwargs)

        monkeypatch.setattr(np, "sort", spy)
        thr = _threshold_columns((x,), window, 3, refresh, 4.0)
        monkeypatch.undo()
        assert sorted_types == [dtype, dtype]
        assert thr.tobytes() == \
            channel_thresholds(x, window, 3, refresh).tobytes()

    def test_peak_memory_is_bounded(self):
        """Three 10-minute streams at 250 Hz hold 29,975 refresh rows
        each, 360 MB as one float matrix; sorted in blocks of int16 ranks
        the pass, its 3.6 MB of thresholds included, stays under 8 MB."""
        cfg = HsDetectorConfig()
        window, warmup = _channel_sizes(RATE, cfg)
        rng = np.random.default_rng(0)
        columns = tuple(rng.normal(size=150_000) for _ in range(3))
        tracemalloc.start()
        try:
            _threshold_columns(columns, window, warmup, cfg.refresh_every,
                               cfg.k_mad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


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
