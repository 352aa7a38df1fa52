"""Rule-based heel-strike detection from thigh-normal acceleration with a
pelvis-deceleration fallback.

Each channel runs an adaptive threshold (running median + k * MAD over a
trailing window) with a causal local-maximum confirmation. The thigh
channels attribute events to their own side; pelvis events are attributed to
the leading leg (greater thigh flexion at the peak sample). A per-side
refractory window suppresses duplicates. Thresholds are relative to the
stream's own statistics, so scaling a stream by any positive constant leaves
the detected event set unchanged.

The detector takes only frames that a gate has admitted: values inside
the frame bounds and strictly increasing finite timestamps. It checks
neither. The controller skips it on a frame its gate rejects, and raises
when an admitted frame is not later than the last frame or the last
admitted one, so a gated frame cannot turn the detector's clock back. Replay gives
``detect_columns`` a stride's frames on its uniform time grid, all of
which pass the gate by the stride contract, and detect-hs the rows that
its mask admits by the same bounds, after checking every row's timestamp.

The streaming channel keeps its window twice: as a ring buffer, and as
a sorted list updated by one bisect delete and one insert per sample.
Each threshold refresh reads the median from the middle of the sorted
list and selects the MAD in O(log n) from the two sorted runs of
deviations on either side of it (``_median_mad``). The column pass of
``detect_columns`` sorts each refresh's window instead, for all three
channels at once, in row blocks of bounded size. It sorts ranks, not
floats: a block ranks each channel's samples once, sorts the windows of
ranks as int16 while they fit, and reads a sorted row back as floats
through the ranks. The same bisection then runs once over the rows of
every channel. Both give the floats that recomputing median and MAD over
the whole window with ``np.median`` gives.

``HsDetector.update`` takes the frame's timestamp and three accelerations
as plain floats, plus the ``BilateralSample`` that an event snapshots.

``_Channel.track`` is the candidate rule. ``_Channel.push`` applies it
only to a sample over its threshold or one that arrives while a candidate
is pending; no other sample changes a candidate. Warm-up is only the
threshold's starting inf, which lasts until the first refresh.

``detect_columns`` gives the events of updating a fresh detector with every
frame of a stream held as columns, each with the index of the frame that
returns it. It makes two passes. The first, ``_threshold_columns``,
yields each sample's threshold on all three channels with no candidate
bookkeeping. The second, per channel, feeds ``track`` the samples that
can touch a candidate: those over their threshold and the
``confirm_samples`` after each. ``HsDetector._merge`` turns one frame's
confirmations into events for both paths (time order, leading-leg
attribution, refractory, fusion, one event out per frame). It sees only
frames with a confirmation, in both paths: on a frame with none,
``update`` releases a queued event itself, and the column merge releases
them on the frames after each hit until the queue drains.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .modulation import BilateralSample

LEFT = "left"
RIGHT = "right"

SOURCE_THIGH = "thigh-channel"
SOURCE_PELVIS = "pelvis-channel"
SOURCE_FUSED = "fused"


@dataclass
class HsEvent:
    side: str                       # "left" | "right"
    timestamp: float                # s, at the acceleration peak
    thigh_snapshot: BilateralSample
    source: str                     # thigh-channel | pelvis-channel | fused


@dataclass
class HsDetectorConfig:
    k_mad: float = 4.0            # threshold = median + k_mad * MAD
    window_s: float = 2.0         # trailing statistics window
    refractory_s: float = 0.4     # min spacing of same-side events
    confirm_samples: int = 3      # local-max confirmation length
    warmup_s: float = 0.5         # min buffered history before detecting
    refresh_every: int = 5        # samples between threshold recomputes

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.k_mad, self.window_s,
                                              self.refractory_s,
                                              self.warmup_s)):
            raise ValueError("k_mad, window_s, refractory_s, warmup_s must "
                             "be finite and > 0")
        for name in ("confirm_samples", "refresh_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {value!r}")


def _median_mad(s: list[float]) -> tuple[float, float]:
    """Median and MAD of the non-empty ascending list ``s`` of finite
    floats: the exact floats that recomputing both over ``s`` with
    ``np.median`` gives."""
    n = len(s)
    h = n // 2
    med = s[h] if n % 2 else (s[h - 1] + s[h]) / 2
    if -math.inf < med < math.inf:
        # s[:h] <= med <= s[h:], so the deviations form two ascending
        # runs, med - s[h-1], med - s[h-2], ... and s[h] - med,
        # s[h+1] - med, ..., each the exact float |x - med| (rounding
        # is monotone and symmetric). The h smallest deviations are those
        # of s[k:h] and s[h:h+k] for the first k with
        # med - s[k] < s[k+h] - med, found by bisection; the MAD is then
        # the next deviation (odd n) or the mean of the h-th and the next
        # (even n).
        lo, hi = 0, h
        while lo < hi:
            k = (lo + hi) // 2
            if med - s[k] < s[k + h] - med:
                hi = k
            else:
                lo = k + 1
        k = lo
        # conditional expressions for min(a, b) and max(a, b), a on a tie
        a = med - s[k - 1] if k else math.inf
        b = s[h + k] - med if h + k < n else math.inf
        mad = b if b < a else a
        if not n % 2:
            a = med - s[k] if k < h else -math.inf
            b = s[h + k - 1] - med if k else -math.inf
            mad = ((b if b > a else a) + mad) / 2
        return med, abs(mad)   # a zero deviation can come out as -0.0
    # a finite pair overflowed to an infinite median
    return med, math.inf


# a confirmed peak: (peak time, snapshot at the peak frame)
_Confirmed = tuple[float, BilateralSample]


class _Channel:
    """Adaptive threshold + local-max candidate tracking for one channel."""

    def __init__(self, window: int, warmup: int, k_mad: float,
                 refresh: int, confirm: int):
        self.ring = [0.0] * window   # trailing window in arrival order
        self.sorted: list[float] = []  # the same samples, ascending
        self.count = 0  # total samples seen
        self.idx = 0
        self.warmup = warmup
        self.k_mad = k_mad
        self.refresh = refresh
        self.confirm = confirm
        self.threshold = math.inf
        self.last_above_t = -math.inf
        # pending local-max candidate; age < 0 means no candidate
        self.cand_value = 0.0
        self.cand_t = 0.0
        self.cand_snapshot = None
        self.cand_age = -1

    def track(self, value: float, above: bool, t, snapshot):
        """The candidate rule for one sample, ``above`` if it exceeds its
        threshold. Returns the peak's (t, snapshot), which are
        only stored and handed back, ``confirm`` samples after the peak."""
        if above:
            if self.cand_age < 0 or value > self.cand_value:
                # new peak (or higher peak supersedes the pending one)
                self.cand_value = value
                self.cand_t = t
                self.cand_snapshot = snapshot
                self.cand_age = 0
            else:
                self.cand_age += 1
        elif self.cand_age >= 0:
            self.cand_age += 1
        if self.cand_age >= self.confirm:
            self.cand_age = -1
            return self.cand_t, self.cand_snapshot
        return None

    def push(self, value: float, t: float,
             snapshot: BilateralSample) -> _Confirmed | None:
        """Feed one finite sample; returns (peak_time, peak_snapshot) on
        confirmation."""
        # compare against the threshold from before this sample enters the
        # statistics window (keeps the test causal; inf during warm-up); a
        # sample under it changes no candidate unless one is pending
        confirmed = None
        if value > self.threshold:
            self.last_above_t = t
            confirmed = self.track(value, True, t, snapshot)
        elif self.cand_age >= 0:
            confirmed = self.track(value, False, t, snapshot)

        ring, srt, idx, count = self.ring, self.sorted, self.idx, self.count
        window = len(ring)
        if count >= window:
            del srt[bisect_left(srt, ring[idx])]
        ring[idx] = value
        insort(srt, value)
        self.idx = idx + 1 if idx + 1 < window else 0
        count += 1
        self.count = count
        if count >= self.warmup and count % self.refresh == 0:
            med, mad = _median_mad(srt)
            self.threshold = med + self.k_mad * mad
        return confirmed


def _channel_sizes(rate_hz: float,
                   config: HsDetectorConfig) -> tuple[int, int]:
    """(window, warmup) of each channel, in samples."""
    return (max(8, int(round(config.window_s * rate_hz))),
            max(4, int(round(config.warmup_s * rate_hz))))


class HsDetector:
    """Streaming heel-strike detector over thigh and pelvis channels.

    Parameters
    ----------
    rate_hz : float
        Nominal frame rate of the stream (sets window lengths in samples),
        finite and > 0 (``ControllerParams``, the detect-hs table).
    config : HsDetectorConfig, optional
        Thresholding, confirmation, and refractory settings.
    """

    def __init__(self, rate_hz: float, config: HsDetectorConfig | None = None):
        self.rate_hz = rate_hz
        self.config = config or HsDetectorConfig()
        c = self.config
        window, warmup = _channel_sizes(rate_hz, c)

        def make():
            return _Channel(window, warmup, c.k_mad, c.refresh_every,
                            c.confirm_samples)

        self._thigh_l, self._thigh_r, self._pelvis = make(), make(), make()
        self._fuse_window = (c.confirm_samples + 1) / rate_hz
        self._last_event_t = {LEFT: -math.inf, RIGHT: -math.inf}
        self._pending: list[HsEvent] = []

    def refractory_ok(self, side: str, timestamp: float) -> bool:
        """True iff an event at ``timestamp`` respects the per-side refractory."""
        return timestamp - self._last_event_t[side] >= self.config.refractory_s

    def update(self, timestamp: float, thigh_accel_l: float,
               thigh_accel_r: float, pelvis_accel: float,
               bilateral: BilateralSample) -> HsEvent | None:
        """Feed one frame; returns at most one heel-strike event.

        The thigh values are thigh-normal linear accelerations and
        ``pelvis_accel`` is the magnitude of the high-pass residual of pelvis
        acceleration. The frame must be one the controller's gate admits:
        finite values, and a finite timestamp later than the last frame's.
        """
        left = self._thigh_l.push(thigh_accel_l, timestamp, bilateral)
        right = self._thigh_r.push(thigh_accel_r, timestamp, bilateral)
        pelvis = self._pelvis.push(pelvis_accel, timestamp, bilateral)
        if left is not None or right is not None or pelvis is not None:
            self._merge(left, right, pelvis, self._pelvis.last_above_t)
        # queued events go out one a frame
        return self._pending.pop(0) if self._pending else None

    def _merge(self, left: _Confirmed | None, right: _Confirmed | None,
               pelvis: _Confirmed | None,
               pelvis_last_above_t: float) -> None:
        """Queue the events of one frame's channel confirmations, at least
        one of them a hit.

        Hits are taken in peak-time order (ties in channel order: thigh L,
        thigh R, pelvis); a pelvis hit goes to the leading leg (greater
        thigh flexion at the peak sample); a hit inside its side's
        refractory is dropped; a thigh hit within the fusion window of the
        pelvis channel's last above-threshold sample is fused. The caller
        releases the queue one event per frame (``update``, and
        ``detect_columns``).
        """
        hits = []
        if left is not None:
            hits.append((left[0], LEFT, SOURCE_THIGH, left[1]))
        if right is not None:
            hits.append((right[0], RIGHT, SOURCE_THIGH, right[1]))
        if pelvis is not None:
            peak_t, snap = pelvis
            side = LEFT if snap.theta_thigh_l >= snap.theta_thigh_r else RIGHT
            hits.append((peak_t, side, SOURCE_PELVIS, snap))

        for peak_t, side, source, snap in sorted(hits, key=lambda h: h[0]):
            if not self.refractory_ok(side, peak_t):
                continue
            self._last_event_t[side] = peak_t
            if source == SOURCE_THIGH and \
                    peak_t - pelvis_last_above_t <= self._fuse_window:
                source = SOURCE_FUSED
            self._pending.append(HsEvent(side=side, timestamp=peak_t,
                                         thigh_snapshot=snap, source=source))


# most elements _threshold_columns sorts at once, over all channels: 1 MB
# of int16 ranks, 349 rows of each of three channels at the default
# 500-sample window, one block for every stride of the default battery
# (the longest has 281 refresh rows)
_BLOCK_ELEMENTS = 2 ** 19


def _threshold_columns(columns, window: int, warmup: int, refresh: int,
                       k_mad: float) -> np.ndarray:
    """The thresholds ``_Channel.push`` compares each sample of each of
    the equal-length finite float64 streams ``columns`` against, one row
    per stream: inf before the first refresh, then the value of the
    latest refresh at or before the sample.

    The refresh at sample count c reads the window x[c - window:c], short
    while c < window. The refresh rows of all streams are taken in blocks
    of at most ``_BLOCK_ELEMENTS`` elements. Within a block each stream's
    span of samples gets its argsort rank, offset per stream so that
    every rank indexes ``vals``, the spans' sorted values followed by one
    inf; a short window is led by that inf's rank, which sorts last. One
    ``np.sort`` sorts every stream's rank windows, as int16 while the
    ranks fit. A rank keeps its value's order, so a sorted rank row read
    through ``vals`` is the sorted window; which of two tied samples
    ranks first does not matter, as both read back the same float or,
    for 0.0 and -0.0, a zero that gives the same threshold. Each row's
    median is read from its middle and its MAD found by
    ``_median_mad``'s bisection, run over all rows of the block at once
    with clamped indices.
    """
    n_ch, n = len(columns), len(columns[0])
    thr = np.full((n_ch, n), math.inf)
    first = max(1, -(-warmup // refresh)) * refresh   # count of 1st refresh
    block = max(1, _BLOCK_ELEMENTS // (n_ch * window)) * refresh
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(first, n, block):
            stop = min(n, start + block)
            count = np.arange(start, stop, refresh)
            # the block reads samples base:c_last, c_last its last refresh's
            # count; position p of a rank row is sample start - window + p,
            # an inf pad while that is negative
            c_last = int(count[-1])
            base = max(0, start - window)
            span = c_last - base
            total = n_ch * span
            spans = np.array([x[base:c_last] for x in columns])
            order = np.argsort(spans, axis=1)
            vals = np.append(np.take_along_axis(spans, order, axis=1),
                             math.inf)
            ranks = np.full((n_ch, c_last - start + window), total,
                            np.int16 if total < 2 ** 15 else np.int32)
            np.put_along_axis(ranks[:, base - start + window:], order,
                              np.arange(total).reshape(n_ch, span), axis=1)
            rows = np.sort(np.lib.stride_tricks.sliding_window_view(
                ranks, window, axis=1)[:, ::refresh]).ravel()

            def s(i):
                """The floats at flat indices ``i`` of the sorted rows."""
                return vals[rows[i]]

            m = np.tile(np.minimum(count, window), n_ch)   # real samples
            h = m // 2
            odd = m % 2 == 1
            # flat indices into the rows: each one's start, middle and end
            row = np.arange(0, rows.size, window)
            mid = row + h
            end = row + m
            med = np.where(odd, s(mid), (s(mid - 1) + s(mid)) / 2)
            # _median_mad's bisection, a fixed number of halvings
            lo, hi = row, mid
            for _ in range(int(h.max()).bit_length()):
                k = (lo + hi) // 2
                fewer = med - s(k) < s(np.minimum(k + h, end - 1)) - med
                lo, hi = (np.where(fewer, lo, np.minimum(k + 1, hi)),
                          np.where(fewer, k, hi))
            mad = np.minimum(
                np.where(lo > row, med - s(lo - 1), math.inf),
                np.where(lo + h < end, s(np.minimum(lo + h, end - 1)) - med,
                         math.inf))
            last = np.maximum(
                np.where(lo < mid, med - s(lo), -math.inf),
                np.where(lo > row, s(lo + h - 1) - med, -math.inf))
            mad = np.where(odd, mad, (last + mad) / 2)
            # a finite pair overflowed to an infinite median
            mad = np.where(np.isinf(med), math.inf, np.abs(mad))
            thr[:, start:stop] = np.repeat(
                (med + k_mad * mad).reshape(n_ch, -1), refresh,
                axis=1)[:, :stop - start]
    return thr


def detect_columns(rate_hz: float, t: np.ndarray, thigh_accel_l: np.ndarray,
                   thigh_accel_r: np.ndarray, pelvis_accel: np.ndarray,
                   thigh_l: np.ndarray, thigh_r: np.ndarray,
                   theta_diff_dot: np.ndarray,
                   config: HsDetectorConfig | None = None
                   ) -> list[tuple[int, HsEvent]]:
    """The events of a fresh ``HsDetector`` updated with every frame of
    the given float64 columns, each with the index of the frame whose
    ``update`` returns it.

    Frame i feeds ``update(t[i], thigh_accel_l[i], thigh_accel_r[i],
    pelvis_accel[i], BilateralSample(thigh_l[i], thigh_r[i],
    theta_diff_dot[i]))``; the frames must be ones that ``update`` takes.
    """
    det = HsDetector(rate_hz, config)
    c = det.config
    # the fresh detector's channels run track only; their rings stay unused
    fresh = (det._thigh_l, det._thigh_r, det._pelvis)
    window, warmup = len(fresh[0].ring), fresh[0].warmup
    times = t.tolist()

    # frame -> the (peak time, snapshot) confirmations of thigh L, thigh R
    # and pelvis at it, the arguments of HsDetector._merge
    hits: dict[int, list] = {}
    channels = (thigh_accel_l, thigh_accel_r, pelvis_accel)
    thresholds = _threshold_columns(channels, window, warmup,
                                    c.refresh_every, c.k_mad)
    for k, (ch, x, thr) in enumerate(zip(fresh, channels, thresholds)):
        above = x > thr
        if x is pelvis_accel:
            pelvis_above = np.flatnonzero(above).tolist()
        # a candidate starts on a sample over its threshold and lives at
        # most confirm_samples more; no other sample changes the channel
        touch = above.copy()
        for lag in range(1, c.confirm_samples + 1):
            touch[lag:] |= above[:-lag]
        visit = np.flatnonzero(touch)
        for i, v, a in zip(visit.tolist(), x[visit].tolist(),
                           above[visit].tolist()):
            confirmed = ch.track(v, a, i, None)
            if confirmed is not None:
                peak = confirmed[0]
                hits.setdefault(i, [None, None, None])[k] = (
                    times[peak],
                    BilateralSample(float(thigh_l[peak]), float(thigh_r[peak]),
                                    float(theta_diff_dot[peak])))

    events = []
    order = sorted(hits)
    for frame, stop in zip(order, order[1:] + [len(times)]):
        i = bisect_right(pelvis_above, frame)
        det._merge(*hits[frame],
                   times[pelvis_above[i - 1]] if i else -math.inf)
        # queued events go out one a frame, from the hit to the next hit
        events += [(f, det._pending.pop(0)) for f in
                   range(frame, min(stop, frame + len(det._pending)))]
    return events


def match_events(detected: list[HsEvent], truth: list[tuple[str, float]],
                 tol_s: float = 0.03) -> dict:
    """Score detected events against ground-truth (side, time) pairs.

    Greedy one-to-one matching within ``tol_s``. Empty truth gives vacuous
    recall 1.0; empty detection gives vacuous precision 1.0.
    """
    unmatched = list(range(len(truth)))
    errors = []
    tp = 0
    for ev in detected:
        best = None
        best_err = tol_s
        for j in unmatched:
            side, t_true = truth[j]
            if side != ev.side:
                continue
            err = abs(ev.timestamp - t_true)
            if err <= best_err:
                best = j
                best_err = err
        if best is not None:
            unmatched.remove(best)
            errors.append(ev.timestamp - truth[best][1])
            tp += 1
    precision = tp / len(detected) if detected else 1.0
    recall = tp / len(truth) if truth else 1.0
    return {"precision": precision, "recall": recall,
            "true_positives": tp, "timing_errors": errors}
