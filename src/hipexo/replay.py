"""Stride replay through the controller runtime.

A normalized stride is unrolled into sensor frames at the control rate
(cyclically for gait, once with a seated lead-in for sit-to-stand), run
through the controller's pipeline from a fresh state, and the commanded
torque of the last full cycle is mapped back onto the stride grid as the
exo_torque channel.

The replay runs along the time axis, one pass per task:
``simulate_task`` joins the frames of all its strides and replays them
together, and ``replay_stride`` is a batch of one. Every frame passes
the controller's frame gate by the stride contract: ``StrideSeries``
holds finite cells and hip velocities under VEL_BOUND, and a frame is an
interpolation of them (or the sit-to-stand lead-in's zeros), so replay
masks nothing; only cells near the float limit, about 1e305 and more,
could interpolate to a non-finite frame. The frame-pure stages are
columns that run once per task: the spring kernels that the optimizer
and stride synthesis share, called with ``signals.exp_exact`` (they pass
``np.exp``), then beta_raw, descent attenuation, blend and clamps in the
controller's operation order. The recursions run once per stride, on its
frames and from a fresh state, so no state crosses a stride boundary:
the velocity and command filters and the bilateral beta EMA are
generator kernels that ``np.fromiter`` drives (``LowpassFilter.run``,
``modulation.beta_smoothed_series``), and the heel-strike detector runs
through ``heelstrike.detect_columns``, which returns each event with its
frame index. The alpha latch and the reset ramp run only on the frames
where alpha can change: left latch frames, standing frames and the first
frame after each standing run; every other frame holds the alpha before
it. The step log and events of each stride are those of stepping a fresh
``HipController`` frame by frame, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .controller import (STANDING_BETA, VEL_CAP, ControllerParams,
                         TorqueBreakdown, _SideState)
from .csvio import write_float_columns
from .gaitdata import (CH_HIP_ANGLE, CH_HIP_VEL, CH_PELVIS_ACC, CH_THIGH,
                       CH_THIGH_ACC, CH_TORSO, StrideSeries)
from .heelstrike import LEFT, detect_columns
from .modulation import (alpha_at_heelstrike, beta_smoothed_series, blend,
                         reset_tick)
from .signals import exp_exact, neg_part, pos_part, sigmoid_array
from .springs import gait_torque_series, sts_torque_series

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


def _replay_columns(params: ControllerParams, frames, sizes) -> list[tuple]:
    """The left-side breakdown of HipController.step over each run of
    frames, a fresh controller per run, computed a column at a time; one
    (series, events) per run. ``frames`` holds the runs joined along time,
    one row per SensorFrame field as ``_frames`` makes them, and ``sizes``
    the number of frames of each run, in order. Every frame must pass the
    controller's frame gate (all values finite, both hip velocities under
    VEL_BOUND), as the frames of a ``StrideSeries`` do, and each run's
    timestamps must increase.

    The runs are replayed in one pass. Every frame-pure stage is one
    column expression in the controller's operation order: beta_raw, the
    spring kernels, descent attenuation, blend and clamps. The recursions
    run once per run, on its frames and from a fresh state, so none
    crosses a run boundary: the velocity and command filters and the beta
    EMA as generator kernels, the heel-strike detector, and the alpha pass
    (``_alpha_column``). The right side's command path feeds nothing on
    the left, so it is not computed; its filtered velocity feeds the
    detector and beta.
    """
    p = params
    t, hip_l, _, hv_l, hv_r, th_l, th_r, torso, acc_l, acc_r, acc_p = \
        np.asarray(frames, dtype=float)
    stops = np.cumsum(sizes).tolist()
    spans = list(zip([0, *stops[:-1]], stops))

    lefts = []
    vel_l, vel_r = np.empty(t.size), np.empty(t.size)
    for a, b in spans:
        left, right = _SideState(p), _SideState(p)
        lefts.append(left)
        vel_l[a:b] = left.vel_filter.run(hv_l[a:b])
        vel_r[a:b] = right.vel_filter.run(hv_r[a:b])
    np.clip(vel_l, -VEL_CAP, VEL_CAP, out=vel_l)
    np.clip(vel_r, -VEL_CAP, VEL_CAP, out=vel_r)
    diff_dot = vel_l - vel_r

    sym = p.symmetry
    b_raw = np.where(
        (th_l > sym.seated_ext_threshold) & (th_r > sym.seated_ext_threshold),
        1.0, np.where(np.abs(diff_dot) >= sym.vel_threshold, 0.0,
                      sigmoid_array(np.abs(th_l - th_r), sym.sym_mod,
                                    exp_exact)))

    events = []
    beta, alpha = np.empty(t.size), np.empty(t.size)
    for (a, b), left in zip(spans, lefts):
        hs_events = detect_columns(p.loop_rate_hz, t[a:b], acc_l[a:b],
                                   acc_r[a:b], acc_p[a:b], th_l[a:b],
                                   th_r[a:b], diff_dot[a:b])
        events.append([event for _, event in hs_events])
        beta[a:b] = beta_smoothed_series(b_raw[a:b], sym)
        alpha[a:b] = _alpha_column(p, left.mod, t[a:b], beta[a:b], hs_events)

    tau_ext, tau_flex, eta_ext, eta_flex, tau_gait = gait_torque_series(
        hip_l, vel_l, p.gait, exp_exact)
    tau_sts, tau_sts_mod = sts_torque_series(th_l, vel_l, torso, p.sts,
                                             exp_exact)
    scale = 1.0 - p.descent.lam * alpha
    tau_gait_mod = scale * neg_part(tau_gait) + pos_part(tau_gait)
    tau_act_raw = blend(tau_sts_mod, tau_gait_mod, beta)
    tau_cmd = np.empty(t.size)
    for (a, b), left in zip(spans, lefts):
        tau_cmd[a:b] = left.cmd_filter.run(tau_act_raw[a:b])
    np.clip(tau_cmd, -p.torque_limit, p.torque_limit, out=tau_cmd)
    series = dict(
        tau_ext=tau_ext, tau_flex=tau_flex, tau_gait=tau_gait,
        tau_gait_mod=tau_gait_mod, tau_sts=tau_sts, tau_sts_mod=tau_sts_mod,
        tau_act_raw=tau_act_raw, tau_cmd=tau_cmd, eta_ext=eta_ext,
        eta_flex=eta_flex, alpha=alpha, beta=beta, extension_scale=scale,
        hip_vel_filt=vel_l)
    return [({name: column[a:b] for name, column in series.items()}, run)
            for (a, b), run in zip(spans, events)]


def _alpha_column(p: ControllerParams, mod, t, beta, hs_events):
    """The alpha of each frame of one run, from the descent state ``mod``;
    ``hs_events`` are the run's (frame, event) pairs.

    Alpha changes only on a left latch frame, a standing frame, or the
    first frame after a standing run, which stops the ramp; the latch and
    reset ramp run on those frames only, on the controller's scalar
    objects, and every other frame holds the alpha before it.
    """
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
            mod.latch_alpha(latch[i])
        alpha[i] = reset_tick(mod, st, ti, p.descent)
    # each frame reads the last visited frame at or before it (frame 0,
    # alpha 0.0, if none)
    return alpha[np.maximum.accumulate(
        np.where(visit, np.arange(visit.size), 0))]


def _replay_logs(params: ControllerParams, strides: list[StrideSeries],
                 cycles: int) -> list[ReplayLog]:
    """The step log of each stride, all replayed in one pass."""
    feeds, runs = [], []
    for stride in strides:
        tgrid, phase, frames, t_meas0 = _frames(stride, params.loop_rate_hz,
                                                cycles)
        feeds.append((stride, tgrid, phase, t_meas0))
        runs.append(frames)
    frames = np.concatenate(runs, axis=1)
    sizes = [run.shape[1] for run in runs]
    del runs   # the joined frames replace them
    logs = []
    for (stride, tgrid, phase, t_meas0), (series, events) in zip(
            feeds, _replay_columns(params, frames, sizes)):
        # map the measured (last) cycle's command back onto the stride grid
        grid_t = (t_meas0
                  + np.linspace(0.0, 1.0, stride.n) * stride.cycle_duration)
        grid_t = np.minimum(grid_t, tgrid[-1])
        exo_grid = np.interp(grid_t, tgrid, series["tau_cmd"])
        meas = tgrid >= t_meas0
        mean_scale = float(np.mean(series["extension_scale"][meas]))
        logs.append(ReplayLog(t=tgrid, phase=phase, series=series,
                              events=events, exo_torque_grid=exo_grid,
                              mean_extension_scale=mean_scale))
    return logs


def replay_stride(params: ControllerParams, stride: StrideSeries,
                  cycles: int = 4) -> ReplayLog:
    """Replay one stride and return the left-side step log.

    The stride's ipsilateral channels drive the left leg, the contralateral
    ones the right. Gait strides loop for ``cycles``; sit-to-stand runs once
    after a lead-in that holds the seated first sample for STS_LEAD_IN_S.
    The measured cycle (for the exo-torque grid and the mean extension
    scale) is the last one. The simulate table keeps ``cycles`` >= 1.
    """
    return _replay_logs(params, [stride], cycles)[0]


def simulate_task(params: ControllerParams, strides: list[StrideSeries],
                  cycles: int = 4):
    """Replay every stride of one task, as ``replay_stride`` does each, in
    one pass.

    Returns (assisted_strides, logs): copies of the input strides with the
    exo_torque channel attached and condition set to 'assisted', plus the
    per-stride replay logs.
    """
    logs = _replay_logs(params, strides, cycles)
    assisted = []
    for stride, log in zip(strides, logs):
        out = stride.copy_with(exo_torque=log.exo_torque_grid)
        out.condition = "assisted"
        assisted.append(out)
    return assisted, logs
