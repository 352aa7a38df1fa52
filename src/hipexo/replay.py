"""Stride replay through the controller runtime.

A normalized stride is unrolled into sensor frames at the control rate
(cyclically for gait, once with a seated lead-in for sit-to-stand), stepped
through a fresh controller, and the commanded torque of the last full cycle
is mapped back onto the stride grid as the exo_torque channel.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from .controller import (ControllerParams, HipController, SensorFrame,
                         TorqueBreakdown)
from .csvio import write_float_columns
from .gaitdata import (CH_HIP_ANGLE, CH_HIP_VEL, CH_PELVIS_ACC, CH_THIGH,
                       CH_THIGH_ACC, CH_TORSO, StrideSeries)

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
    stride: StrideSeries


def write_step_log(log: ReplayLog, path, header_lines=()):
    """One row per control step: timestamp, phase, then BREAKDOWN_FIELDS."""
    write_float_columns(
        path, ("timestamp", "phase", *BREAKDOWN_FIELDS),
        [log.t, log.phase, *(log.series[f] for f in BREAKDOWN_FIELDS)],
        header_lines, numpy_repr=True)


def _interp_cyclic(stride: StrideSeries, name: str, contra: bool = False):
    grid = np.linspace(0.0, 1.0, stride.n)
    values = stride.contra(name) if contra else stride.channels[name]
    return lambda x: np.interp(x, grid, values)


def replay_stride(params: ControllerParams, stride: StrideSeries,
                  cycles: int = 4) -> ReplayLog:
    """Replay one stride and return the left-side step log.

    The stride's ipsilateral channels drive the left leg, the contralateral
    ones the right. Gait strides loop for ``cycles``; sit-to-stand runs once
    after a lead-in that holds the seated first sample for STS_LEAD_IN_S.
    The measured cycle (for the exo-torque grid and the mean extension
    scale) is the last one. Raises ``ValueError`` when ``cycles`` < 1.
    """
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    is_gait = stride.label.is_gait
    if is_gait:
        lead_in_s = 0.0
    else:
        cycles = 1
        lead_in_s = STS_LEAD_IN_S

    rate = params.loop_rate_hz
    T = stride.cycle_duration
    n_steps = int(round((lead_in_s + cycles * T) * rate))
    tgrid = np.arange(n_steps) / rate

    # cycle phase for each step; lead-in clamps to the first sample
    rel = (tgrid - lead_in_s) / T
    if is_gait:
        phase = np.where(rel < 0.0, 0.0, rel % 1.0)
    else:
        phase = np.clip(rel, 0.0, 1.0)

    channels = {
        "hip_l": _interp_cyclic(stride, CH_HIP_ANGLE),
        "hip_r": _interp_cyclic(stride, CH_HIP_ANGLE, contra=True),
        "vel_l": _interp_cyclic(stride, CH_HIP_VEL),
        "vel_r": _interp_cyclic(stride, CH_HIP_VEL, contra=True),
        "thigh_l": _interp_cyclic(stride, CH_THIGH),
        "thigh_r": _interp_cyclic(stride, CH_THIGH, contra=True),
        "torso": _interp_cyclic(stride, CH_TORSO),
    }
    sampled = {k: fn(phase) for k, fn in channels.items()}
    if CH_THIGH_ACC in stride.channels:
        sampled["acc_l"] = _interp_cyclic(stride, CH_THIGH_ACC)(phase)
        sampled["acc_r"] = _interp_cyclic(stride, CH_THIGH_ACC, contra=True)(phase)
    else:
        sampled["acc_l"] = np.zeros(n_steps)
        sampled["acc_r"] = np.zeros(n_steps)
    if CH_PELVIS_ACC in stride.channels:
        sampled["acc_p"] = _interp_cyclic(stride, CH_PELVIS_ACC)(phase)
    else:
        sampled["acc_p"] = np.zeros(n_steps)
    # lead-in is a quiet hold: no acceleration transients
    lead = tgrid < lead_in_s
    for k in ("acc_l", "acc_r", "acc_p"):
        sampled[k] = np.where(lead, 0.0, sampled[k])
    # velocity is zero while holding the first sample
    sampled["vel_l"] = np.where(lead, 0.0, sampled["vel_l"])
    sampled["vel_r"] = np.where(lead, 0.0, sampled["vel_r"])

    # frame columns in SensorFrame field order, as Python floats: the
    # controller's scalar arithmetic is cheaper on them than on numpy
    # scalars, and gives the same floats
    columns = [tgrid.tolist()] + [sampled[k].tolist() for k in (
        "hip_l", "hip_r", "vel_l", "vel_r", "thigh_l", "thigh_r", "torso",
        "acc_l", "acc_r", "acc_p")]
    step = HipController(params).step
    breakdown_row = attrgetter(*BREAKDOWN_FIELDS)
    rows = []
    events = []
    for values in zip(*columns):
        result = step(SensorFrame(*values))
        rows.append(breakdown_row(result.left))
        if result.hs_event is not None:
            events.append(result.hs_event)
    series = {name: np.array(col, dtype=float)
              for name, col in zip(BREAKDOWN_FIELDS, zip(*rows))}

    # map the measured (last) cycle's command back onto the stride grid
    t_meas0 = lead_in_s + (cycles - 1) * T
    grid_t = t_meas0 + np.linspace(0.0, 1.0, stride.n) * T
    grid_t = np.minimum(grid_t, tgrid[-1])
    exo_grid = np.interp(grid_t, tgrid, series["tau_cmd"])

    meas = tgrid >= t_meas0
    mean_scale = float(np.mean(series["extension_scale"][meas]))

    return ReplayLog(t=tgrid, phase=phase, series=series, events=events,
                     exo_torque_grid=exo_grid, mean_extension_scale=mean_scale,
                     stride=stride)


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
