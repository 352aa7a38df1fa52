"""Seeded 250 Hz sensor stream for the live-stream workload.

Gait spans carry the heel-strike spikes of ``hipexo.gaitdata.synth_imu_stream``
(so the detector fires on known truth). Standing and seated spans, NaN
bursts and hip-velocity spikes on both sides of ``VEL_BOUND`` are laid over
it, so the controller's blend, reset and fault paths all run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RATE_HZ = 250.0
DURATION_S = 60.0
RAMP_S = 0.4          # smooth posture transition at each span edge
SETTLE_S = 2.5        # detector window refill after a quiet span
FAULT_MARGIN_S = 0.5  # unscored time around each injected fault


@dataclass
class LiveStream:
    """Frame columns plus the generator's truth."""

    columns: dict          # SensorFrame field -> float array
    truth: list            # (side, time) heel strikes in gait spans
    scored: np.ndarray     # bool per frame: counts toward precision/recall
    fault_frames: int      # frames the controller must reject

    @property
    def n(self) -> int:
        return len(self.columns["timestamp"])


def _posture_weight(t, spans):
    """0 in gait, 1 inside a posture span, smoothstep ramps at its edges."""
    w = np.zeros_like(t)
    for t0, t1 in spans:
        up = np.clip((t - t0) / RAMP_S, 0.0, 1.0)
        down = np.clip((t1 - t) / RAMP_S, 0.0, 1.0)
        x = np.minimum(up, down)
        w = np.maximum(w, x * x * (3.0 - 2.0 * x))
    return w


def make_stream(seed: int, synth_imu_stream, vel_bound: float) -> LiveStream:
    """Build the stream for ``seed``; ``synth_imu_stream`` is the package's
    IMU generator and ``vel_bound`` its hip-velocity sanity bound."""
    rng = np.random.default_rng(seed)
    imu, events = synth_imu_stream(DURATION_S, RATE_HZ, seed=seed)
    t = imu["t"]
    n = t.size

    # alternate standing and seated spans between gait bouts
    spans, kinds = [], []
    t_cur = 8.0 + 4.0 * rng.random()
    while t_cur + 12.0 < DURATION_S:
        length = 3.0 + 2.0 * rng.random()
        spans.append((t_cur, t_cur + length))
        kinds.append("stand" if len(spans) % 2 else "sit")
        t_cur += length + 10.0 + 6.0 * rng.random()
    w = _posture_weight(t, spans)
    posture = np.zeros(n)
    for (t0, t1), kind in zip(spans, kinds):
        if kind == "sit":
            posture[(t >= t0 - RAMP_S) & (t <= t1 + RAMP_S)] = 1.3

    # gait kinematics locked to the truth: thighs from the IMU generator
    torso = 0.05 + 0.02 * np.sin(2 * np.pi * 0.3 * t)
    thigh_l = (1.0 - w) * imu["thigh_angle_l"] + w * posture
    thigh_r = (1.0 - w) * imu["thigh_angle_r"] + w * posture
    hip_l = thigh_l + torso
    hip_r = thigh_r + torso
    vel_l = np.gradient(hip_l) * RATE_HZ
    vel_r = np.gradient(hip_r) * RATE_HZ
    quiet = 0.1 + 0.9 * (1.0 - w)
    acc_l = imu["thigh_accel_l"] * quiet
    acc_r = imu["thigh_accel_r"] * quiet
    acc_p = imu["pelvis_accel"] * quiet

    # a frame is scored when it is in gait, past the detector's refill
    # window after any posture span, and away from injected faults
    scored = w == 0.0
    for _, t1 in spans:
        scored &= ~((t > t1) & (t < t1 + RAMP_S + SETTLE_S))
    scored &= t > 2.0

    # faults: NaN bursts, rejected velocity spikes (>= bound) and accepted
    # near-bound spikes, all placed in gait
    gait_idx = np.flatnonzero(w == 0.0)
    fault = np.zeros(n, dtype=bool)
    for _ in range(6):
        i0 = int(rng.choice(gait_idx))
        length = int(rng.integers(10, 60))
        sel = slice(i0, min(n, i0 + length))
        col = rng.choice(["hip_angle", "vel", "thigh"])
        if col == "hip_angle":
            hip_l[sel] = np.nan
        elif col == "vel":
            vel_r[sel] = np.nan
        else:
            thigh_l[sel] = np.nan
        fault[sel] = True
    for k in range(24):
        i = int(rng.choice(gait_idx))
        over = k % 2 == 0
        mag = vel_bound * (1.0 + 0.05 * rng.random() if over
                           else 0.96 + 0.039 * rng.random())
        target = vel_l if rng.random() < 0.5 else vel_r
        target[i] = mag if rng.random() < 0.5 else -mag
        fault[i] |= over
    fault_idx = np.flatnonzero(fault)
    margin = int(FAULT_MARGIN_S * RATE_HZ)
    for i in fault_idx:
        scored[max(0, i - margin):i + margin + 1] = False

    truth = [(side, tk) for side, tk in events
             if scored[min(n - 1, int(round(tk * RATE_HZ)))]]
    columns = {
        "timestamp": t,
        "hip_angle_l": hip_l, "hip_angle_r": hip_r,
        "hip_vel_l": vel_l, "hip_vel_r": vel_r,
        "thigh_angle_l": thigh_l, "thigh_angle_r": thigh_r,
        "torso_angle": torso,
        "thigh_accel_l": acc_l, "thigh_accel_r": acc_r,
        "pelvis_accel": acc_p,
    }
    rejected = ~np.isfinite(np.vstack(list(columns.values()))).all(axis=0)
    rejected |= (np.abs(vel_l) >= vel_bound) | (np.abs(vel_r) >= vel_bound)
    return LiveStream(columns=columns, truth=truth, scored=scored,
                      fault_frames=int(rejected.sum()))


def detector_scores(stream: LiveStream, events: list, match_events,
                    tol_s: float) -> tuple[float, float]:
    """Precision and recall of ``events`` against the truth in scored frames.

    A match may straddle the edge of a scored span, so each side is scored
    on the span shrunk by ``tol_s`` against the other side on the whole
    span: precision over detections inside the shrunk span, recall over
    truth inside it.
    """
    k = int(np.ceil(tol_s * RATE_HZ))
    near_unscored = np.convolve(~stream.scored, np.ones(2 * k + 1), "same")
    inner = near_unscored == 0

    def within(mask, t):
        i = int(round(t * RATE_HZ))
        return 0 <= i < stream.n and bool(mask[i])

    det = [e for e in events if within(stream.scored, e.timestamp)]
    det_inner = [e for e in det if within(inner, e.timestamp)]
    truth_inner = [ev for ev in stream.truth if within(inner, ev[1])]
    precision = match_events(det_inner, stream.truth, tol_s)["precision"]
    recall = match_events(det, truth_inner, tol_s)["recall"]
    return precision, recall
