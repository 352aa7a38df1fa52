"""Rule-based heel-strike detection from thigh-normal acceleration with a
pelvis-deceleration fallback.

Each channel runs an adaptive threshold (running median + k * MAD over a
trailing window) with a causal local-maximum confirmation. The thigh
channels attribute events to their own side; pelvis events are attributed to
the leading leg (greater thigh flexion at the peak sample). A per-side
refractory window suppresses duplicates. Thresholds are relative to the
stream's own statistics, so scaling a stream by any positive constant leaves
the detected event set unchanged.

The window is kept twice: as a ring buffer, and as a sorted list updated by
one bisect delete and one insert per sample. Each threshold refresh reads
the median from the middle of the sorted list and selects the MAD in
O(log n) from the two sorted runs of deviations on either side of it, so
the threshold is the exact float that recomputing median and MAD over the
whole window gives. A NaN sample is counted outside the sorted list, and
while one is in the window the threshold is NaN, which no sample exceeds.

``HsDetector.update`` takes the frame's timestamp and three accelerations
as plain floats, plus the ``BilateralSample`` that an event snapshots.
"""
from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass

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
        if not all(0 < v < math.inf for v in
                   (self.k_mad, self.window_s, self.refractory_s)):
            raise ValueError("k_mad, window_s, refractory_s must be finite "
                             "and > 0")
        for name in ("confirm_samples", "refresh_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, "
                                 f"got {value!r}")


class _Channel:
    """Adaptive threshold + local-max candidate tracking for one channel."""

    def __init__(self, window: int, warmup: int, k_mad: float,
                 refresh: int, confirm: int):
        self.ring = [0.0] * window   # trailing window in arrival order
        self.sorted: list[float] = []  # its non-NaN samples, ascending
        self.nans = 0                # NaN samples in the window
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
        self.cand_snapshot: BilateralSample | None = None
        self.cand_age = -1

    def _update_threshold(self):
        s = self.sorted
        if self.nans:
            self.threshold = math.nan
            return
        n = len(s)
        h = n // 2
        med = s[h] if n % 2 else (s[h - 1] + s[h]) / 2
        if -math.inf < med < math.inf:
            # s[:h] <= med <= s[h:], so the deviations form two ascending
            # runs, med - s[h-1], med - s[h-2], ... and s[h] - med,
            # s[h+1] - med, ..., each the exact float |x - med| (rounding
            # is monotone and symmetric). Search how many (i) of the h
            # smallest deviations come from the left run; the MAD is then
            # the next deviation (odd n) or the mean of the h-th and the
            # next (even n).
            lo, hi = 0, h
            while lo < hi:
                i = (lo + hi) // 2
                if med - s[h - 1 - i] < s[2 * h - 1 - i] - med:
                    lo = i + 1
                else:
                    hi = i
            i = lo
            mad = min(med - s[h - 1 - i] if i < h else math.inf,
                      s[2 * h - i] - med if 2 * h - i < n else math.inf)
            if not n % 2:
                last = max(med - s[h - i] if i else -math.inf,
                           s[2 * h - 1 - i] - med if i < h else -math.inf)
                mad = (last + mad) / 2
            mad = abs(mad)   # a zero deviation can come out as -0.0
        elif med != med or med in (s[0], s[-1]):
            # NaN median, or inf - inf in the deviation of a sample at it
            mad = math.nan
        else:
            # a finite pair overflowed to an infinite median
            mad = math.inf
        self.threshold = med + self.k_mad * mad

    def push(self, value: float, t: float,
             snapshot: BilateralSample) -> tuple[float, BilateralSample] | None:
        """Feed one sample; returns (peak_time, peak_snapshot) on confirmation."""
        # compare against the threshold from before this sample enters the
        # statistics window (keeps the test causal)
        confirmed = None
        if self.count >= self.warmup:
            if value > self.threshold:
                self.last_above_t = t
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
                confirmed = (self.cand_t, self.cand_snapshot)
                self.cand_age = -1

        ring = self.ring
        if self.count >= len(ring):
            old = ring[self.idx]
            if old != old:
                self.nans -= 1
            else:
                del self.sorted[bisect_left(self.sorted, old)]
        ring[self.idx] = value
        if value != value:
            self.nans += 1
        else:
            insort(self.sorted, value)
        self.idx = (self.idx + 1) % len(ring)
        self.count += 1
        if self.count >= self.warmup and self.count % self.refresh == 0:
            self._update_threshold()
        return confirmed


class HsDetector:
    """Streaming heel-strike detector over thigh and pelvis channels.

    Parameters
    ----------
    rate_hz : float
        Nominal frame rate of the stream (sets window lengths in samples).
    config : HsDetectorConfig, optional
        Thresholding, confirmation, and refractory settings.
    """

    def __init__(self, rate_hz: float, config: HsDetectorConfig | None = None):
        if not 0 < rate_hz < math.inf:
            raise ValueError("rate_hz must be finite and > 0")
        self.rate_hz = rate_hz
        self.config = config or HsDetectorConfig()
        c = self.config
        window = max(8, int(round(c.window_s * rate_hz)))
        warmup = max(4, int(round(c.warmup_s * rate_hz)))

        def make():
            return _Channel(window, warmup, c.k_mad, c.refresh_every,
                            c.confirm_samples)

        self._thigh = {LEFT: make(), RIGHT: make()}
        self._pelvis = make()
        self._last_event_t = {LEFT: -math.inf, RIGHT: -math.inf}
        self._last_t: float | None = None
        self._pending: list[HsEvent] = []

    def refractory_ok(self, side: str, timestamp: float) -> bool:
        """True iff an event at ``timestamp`` respects the per-side refractory."""
        return timestamp - self._last_event_t[side] >= self.config.refractory_s

    def advance_clock(self, timestamp: float) -> None:
        """Check and record a frame's timestamp. Called alone for a frame
        whose samples are gated out, so the stream contract still covers it.

        Raises ``ValueError`` on non-finite or non-monotonic timestamps.
        """
        if not math.isfinite(timestamp):
            raise ValueError(f"non-finite timestamp {timestamp}")
        if self._last_t is not None and timestamp <= self._last_t:
            raise ValueError(
                f"non-monotonic timestamp {timestamp} after {self._last_t}")
        self._last_t = timestamp

    def update(self, timestamp: float, thigh_accel_l: float,
               thigh_accel_r: float, pelvis_accel: float,
               bilateral: BilateralSample) -> HsEvent | None:
        """Feed one frame; returns at most one heel-strike event.

        The thigh values are thigh-normal linear accelerations and
        ``pelvis_accel`` is the magnitude of the high-pass residual of pelvis
        acceleration. Raises ``ValueError`` on non-finite or non-monotonic
        timestamps.
        """
        self.advance_clock(timestamp)
        hits: list[tuple[float, str, str, BilateralSample]] = []

        for side in (LEFT, RIGHT):
            value = thigh_accel_l if side == LEFT else thigh_accel_r
            confirmed = self._thigh[side].push(value, timestamp, bilateral)
            if confirmed is not None:
                hits.append((confirmed[0], side, SOURCE_THIGH, confirmed[1]))

        confirmed = self._pelvis.push(pelvis_accel, timestamp, bilateral)
        if confirmed is not None:
            peak_t, snap = confirmed
            # leading leg: greater thigh flexion at the peak sample
            side = LEFT if snap.theta_thigh_l >= snap.theta_thigh_r else RIGHT
            hits.append((peak_t, side, SOURCE_PELVIS, snap))

        for peak_t, side, source, snap in sorted(hits, key=lambda h: h[0]):
            if not self.refractory_ok(side, peak_t):
                continue
            self._last_event_t[side] = peak_t
            if source == SOURCE_THIGH:
                fuse_window = (self.config.confirm_samples + 1) / self.rate_hz
                if peak_t - self._pelvis.last_above_t <= fuse_window:
                    source = SOURCE_FUSED
            self._pending.append(HsEvent(side=side, timestamp=peak_t,
                                         thigh_snapshot=snap, source=source))
        if self._pending:
            return self._pending.pop(0)
        return None


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
