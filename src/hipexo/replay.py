"""Stride replay through the controller runtime.

A normalized stride is unrolled into sensor frames at the control rate
(cyclically for gait, once with a seated lead-in for sit-to-stand), run
through the controller's pipeline from a fresh state, and the commanded
torque of the last full cycle is mapped back onto the stride grid as the
exo_torque channel.

The replay runs along the time axis. One mask applies the controller's
frame gate to every frame (all values finite, both hip velocities inside
VEL_BOUND). Over the admitted frames, the frame-pure stages are columns:
the spring kernels that the optimizer and stride synthesis share, called
with ``signals.exp_exact`` (they pass ``np.exp``), then beta_raw, descent
attenuation, blend and clamps in the controller's operation order. The
heel-strike detector runs once through ``heelstrike.detect_columns``,
which returns each event with its frame index. Only the filters and the
one bilateral beta EMA run on every sample. The alpha latch and the reset
ramp run only on the frames where alpha can change: left latch frames,
standing frames and the first frame after each standing run; every other
frame holds the alpha before it. A gated frame advances no state and logs
the ``TorqueBreakdown`` defaults with the last admitted command scaled by
``controller.fault_hold_scale``. The step log and events are those of
stepping ``HipController`` frame by frame, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .controller import (STANDING_BETA, VEL_CAP, ControllerParams,
                         TorqueBreakdown, _SideState, fault_hold_scale)
from .csvio import write_float_columns
from .gaitdata import (CH_HIP_ANGLE, CH_HIP_VEL, CH_PELVIS_ACC, CH_THIGH,
                       CH_THIGH_ACC, CH_TORSO, StrideSeries)
from .heelstrike import LEFT, detect_columns
from .modulation import alpha_at_heelstrike, beta_smoothed, blend, reset_tick
from .signals import exp_exact, neg_part, pos_part, sigmoid_array
from .springs import VEL_BOUND, gait_torque_series, sts_torque_series

# the float fields of TorqueBreakdown, in step-log column order
BREAKDOWN_FIELDS = tuple(f.name for f in fields(TorqueBreakdown)
                         if f.name != "fault")
STS_LEAD_IN_S = 1.5   # seated hold before a sit-to-stand replay


@dataclass
class ReplayLog:
    """Left-side (ipsilateral) step log of one stride replay."""

    t: np.ndarray
    phase: np.ndarray          # cycle fraction in [0, 1)
    series: dict               # breakdown field -> per-step array
    events: list
    exo_torque_grid: np.ndarray  # tau_cmd of the measured cycle on the stride grid
    mean_extension_scale: float


def write_step_log(log: ReplayLog, path, header_lines=()):
    """One row per control step: timestamp, phase, then BREAKDOWN_FIELDS."""
    write_float_columns(
        path, ("timestamp", "phase", *BREAKDOWN_FIELDS),
        [log.t, log.phase, *(log.series[f] for f in BREAKDOWN_FIELDS)],
        header_lines, numpy_repr=True)


# the stride channel of each SensorFrame field after the timestamp, in
# field order, and whether the field takes its contralateral counterpart
_FRAME_CHANNELS = (
    (CH_HIP_ANGLE, False), (CH_HIP_ANGLE, True),
    (CH_HIP_VEL, False), (CH_HIP_VEL, True),
    (CH_THIGH, False), (CH_THIGH, True), (CH_TORSO, False),
    (CH_THIGH_ACC, False), (CH_THIGH_ACC, True), (CH_PELVIS_ACC, False),
)
_HOLD_ZERO_ROWS = [3, 4, 8, 9, 10]   # hip velocities and accelerations


def _frames(stride: StrideSeries, rate: float, cycles: int):
    """The replay's sensor frames as a float64 array.

    Returns (tgrid, phase, frames, t_meas0): the step times, the cycle
    phase of each step, one row per SensorFrame field in field order (a
    channel the stride lacks stays zero), and the start time of the
    measured (last) cycle. Sit-to-stand runs one cycle after the seated
    lead-in whatever ``cycles`` says.
    """
    is_gait = stride.label.is_gait
    if is_gait:
        lead_in_s = 0.0
    else:
        cycles = 1
        lead_in_s = STS_LEAD_IN_S

    T = stride.cycle_duration
    n_steps = int(round((lead_in_s + cycles * T) * rate))
    tgrid = np.arange(n_steps) / rate

    # cycle phase for each step; lead-in clamps to the first sample
    rel = (tgrid - lead_in_s) / T
    if is_gait:
        phase = np.where(rel < 0.0, 0.0, rel % 1.0)
    else:
        phase = np.clip(rel, 0.0, 1.0)

    grid = np.linspace(0.0, 1.0, stride.n)
    frames = np.zeros((1 + len(_FRAME_CHANNELS), n_steps))
    frames[0] = tgrid
    for row, (name, contra) in enumerate(_FRAME_CHANNELS, 1):
        if name in stride.channels:
            values = stride.contra(name) if contra else stride.channels[name]
            frames[row] = np.interp(phase, grid, values)
    # the lead-in holds the first sample: zero velocity, and no
    # acceleration transients
    frames[np.ix_(_HOLD_ZERO_ROWS, tgrid < lead_in_s)] = 0.0
    return tgrid, phase, frames, lead_in_s + (cycles - 1) * T


def _replay_columns(params: ControllerParams, columns):
    """The left-side breakdown of HipController.step over the frames whose
    field values are ``columns``, computed a column at a time; (series,
    events). The timestamps must be finite, as replay's time grid is.

    The controller's frame gate is one mask over the frames. The admitted
    frames run the pipeline: the detector runs over all of them, and a left
    event latches alpha at the frame that returns it. The filters and the
    beta EMA run per sample, and the alpha latch and reset ramp on the
    frames where alpha can change, on the scalar objects the controller
    uses; every other stage is a column expression in the controller's
    operation order. The right side's command path feeds nothing on the
    left, so it is not computed; its filtered velocity feeds the detector
    and beta. A gated frame logs the ``TorqueBreakdown`` defaults, and its
    command is the last admitted one scaled by ``fault_hold_scale`` of the
    time since its gated run began.
    """
    p = params
    frames = np.asarray(columns, dtype=float)
    admit = (np.isfinite(frames).all(axis=0)
             & (np.abs(frames[3:5]) < VEL_BOUND).all(axis=0))
    t, hip_l, _, hv_l, hv_r, th_l, th_r, torso, acc_l, acc_r, acc_p = \
        frames[:, admit]
    left, right = _SideState(p), _SideState(p)

    vel_l = np.clip(left.vel_filter.run(hv_l), -VEL_CAP, VEL_CAP)
    vel_r = np.clip(right.vel_filter.run(hv_r), -VEL_CAP, VEL_CAP)
    diff_dot = vel_l - vel_r
    hs_events = detect_columns(p.loop_rate_hz, t, acc_l, acc_r, acc_p,
                               th_l, th_r, diff_dot)

    sym = p.symmetry
    b_raw = np.where(
        (th_l > sym.seated_ext_threshold) & (th_r > sym.seated_ext_threshold),
        1.0, np.where(np.abs(diff_dot) >= sym.vel_threshold, 0.0,
                      sigmoid_array(np.abs(th_l - th_r), sym.sym_mod,
                                    exp_exact)))

    beta, prev = np.empty(b_raw.size), 0.0
    for i, b in enumerate(b_raw.tolist()):
        beta[i] = prev = beta_smoothed(prev, b, sym)

    # alpha changes only on a left latch frame, a standing frame, or the
    # first frame after a standing run, which stops the ramp; it holds on
    # every other frame
    latch = {i: alpha_at_heelstrike(event.thigh_snapshot, p.descent)
             for i, event in hs_events if event.side == LEFT}
    standing = beta > STANDING_BETA
    visit = standing.copy()
    visit[1:] |= standing[:-1]
    visit[list(latch)] = True
    visited = np.flatnonzero(visit)
    alpha = np.zeros(beta.size)
    for i, ti, st in zip(visited.tolist(), t[visited].tolist(),
                         standing[visited].tolist()):
        if i in latch:
            left.mod.latch_alpha(latch[i])
        alpha[i] = reset_tick(left.mod, st, ti, p.descent)
    # each frame reads the last visited frame at or before it (frame 0,
    # alpha 0.0, if none)
    alpha = alpha[np.maximum.accumulate(
        np.where(visit, np.arange(visit.size), 0))]

    tau_ext, tau_flex, eta_ext, eta_flex, tau_gait = gait_torque_series(
        hip_l, vel_l, p.gait, exp_exact)
    tau_sts, tau_sts_mod = sts_torque_series(th_l, vel_l, torso, p.sts,
                                             exp_exact)
    scale = 1.0 - p.descent.lam * alpha
    tau_gait_mod = scale * neg_part(tau_gait) + pos_part(tau_gait)
    tau_act_raw = blend(tau_sts_mod, tau_gait_mod, beta)
    tau_cmd = np.clip(left.cmd_filter.run(tau_act_raw),
                      -p.torque_limit, p.torque_limit)
    admitted = dict(
        tau_ext=tau_ext, tau_flex=tau_flex, tau_gait=tau_gait,
        tau_gait_mod=tau_gait_mod, tau_sts=tau_sts, tau_sts_mod=tau_sts_mod,
        tau_act_raw=tau_act_raw, tau_cmd=tau_cmd, eta_ext=eta_ext,
        eta_flex=eta_flex, alpha=alpha, beta=beta, extension_scale=scale,
        hip_vel_filt=vel_l)

    defaults = TorqueBreakdown()
    series = {}
    for name in BREAKDOWN_FIELDS:
        series[name] = np.full(admit.size, getattr(defaults, name))
        series[name][admit] = admitted[name]
    # each gated frame's last admitted frame (-1 if none); its gated run
    # began on the frame after that one
    gated = np.flatnonzero(~admit)
    last = np.maximum.accumulate(np.where(admit, np.arange(admit.size), -1))
    last = last[gated]
    elapsed = frames[0, gated] - frames[0, last + 1]
    hold = np.fromiter(map(fault_hold_scale, elapsed.tolist()), float,
                       gated.size)
    cmd = series["tau_cmd"]
    cmd[gated] = np.where(last >= 0, cmd[last], 0.0) * hold
    return series, [event for _, event in hs_events]


def replay_stride(params: ControllerParams, stride: StrideSeries,
                  cycles: int = 4) -> ReplayLog:
    """Replay one stride and return the left-side step log.

    The stride's ipsilateral channels drive the left leg, the contralateral
    ones the right. Gait strides loop for ``cycles``; sit-to-stand runs once
    after a lead-in that holds the seated first sample for STS_LEAD_IN_S.
    The measured cycle (for the exo-torque grid and the mean extension
    scale) is the last one. The simulate table keeps ``cycles`` >= 1.
    """
    tgrid, phase, frames, t_meas0 = _frames(stride, params.loop_rate_hz,
                                            cycles)
    series, events = _replay_columns(params, frames)

    # map the measured (last) cycle's command back onto the stride grid
    grid_t = t_meas0 + np.linspace(0.0, 1.0, stride.n) * stride.cycle_duration
    grid_t = np.minimum(grid_t, tgrid[-1])
    exo_grid = np.interp(grid_t, tgrid, series["tau_cmd"])

    meas = tgrid >= t_meas0
    mean_scale = float(np.mean(series["extension_scale"][meas]))

    return ReplayLog(t=tgrid, phase=phase, series=series, events=events,
                     exo_torque_grid=exo_grid, mean_extension_scale=mean_scale)


def simulate_task(params: ControllerParams, strides: list[StrideSeries],
                  cycles: int = 4):
    """Replay every stride of one task.

    Returns (assisted_strides, logs): copies of the input strides with the
    exo_torque channel attached and condition set to 'assisted', plus the
    per-stride replay logs.
    """
    assisted = []
    logs = []
    for stride in strides:
        log = replay_stride(params, stride, cycles=cycles)
        out = stride.copy_with(exo_torque=log.exo_torque_grid)
        out.condition = "assisted"
        assisted.append(out)
        logs.append(log)
    return assisted, logs
