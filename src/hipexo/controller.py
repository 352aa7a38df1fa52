"""Fixed-rate bilateral controller runtime.

Per-step pipeline for each leg: velocity low-pass (10 Hz) -> spring torque
bases -> heel-strike detection and descent attenuation -> symmetry blend ->
command low-pass (5 Hz) -> symmetric torque limit. The controller holds all
per-leg state (filters, descent modulation), the detector and the one beta
EMA; identical frame sequences produce bit-identical breakdown sequences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .heelstrike import LEFT, RIGHT, HsDetector, HsEvent
from .modulation import (BilateralSample, DescentModParams, ModulationState,
                         SymmetryParams, alpha_at_heelstrike,
                         attenuate_extension, beta_raw, beta_smoothed, blend,
                         reset_tick)
from .signals import BiquadSpec, LowpassFilter, clamp
from .springs import (FRAME_BOUNDS, VEL_BOUND, GaitSpringParams,
                      StsSpringParams, gait_spring_torques,
                      gait_velocity_factors, sts_modulated_torque,
                      sts_spring_torque)

STANDING_BETA = 0.9   # smoothed beta above this counts as standing
FAULT_HOLD_S = 0.2    # hold the last command this long on bad frames
FAULT_DECAY_S = 0.2   # then decay it linearly to zero
# filter overshoot can nudge a near-bound velocity past the sanity limit;
# the filtered velocity saturates here rather than being rejected
VEL_CAP = VEL_BOUND * 0.999


def fault_hold_scale(elapsed: float) -> float:
    """Factor on the last good command ``elapsed`` seconds into a fault:
    1 for FAULT_HOLD_S, then a linear decay to 0 over FAULT_DECAY_S."""
    if elapsed <= FAULT_HOLD_S:
        return 1.0
    scale = 1.0 - (elapsed - FAULT_HOLD_S) / FAULT_DECAY_S
    return scale if scale > 0.0 else 0.0


@dataclass
class ControllerParams:
    """Every tunable of the controller plus the runtime constants."""

    gait: GaitSpringParams
    sts: StsSpringParams
    descent: DescentModParams
    symmetry: SymmetryParams
    torque_limit: float = 22.0        # Nm, symmetric command clamp
    loop_rate_hz: float = 250.0
    vel_filter_cutoff_hz: float = 10.0
    cmd_filter_cutoff_hz: float = 5.0

    def __post_init__(self):
        if not (math.isfinite(self.torque_limit) and self.torque_limit > 0):
            raise ValueError(
                f"torque_limit={self.torque_limit} must be finite and > 0")
        nyq = self.loop_rate_hz / 2.0
        if not (0 < self.vel_filter_cutoff_hz < nyq
                and 0 < self.cmd_filter_cutoff_hz < nyq):
            raise ValueError("filter cutoffs must lie below loop_rate_hz / 2")


# Every tunable leaf of ControllerParams, one row each: params-file
# section, name in internal units, field path and file unit ('deg',
# 'deg_s', or '' for internal units). The file key is the name plus '_'
# and the unit (theta_ext_eq + deg -> theta_ext_eq_deg). Params files
# (configio.PARAMS) and the optimizer's names (optimize.PARAM_PATHS, the
# gait and sts rows) both read these rows.
TUNABLES = (
    ("gait", "k_ext", ("gait", "k_ext"), ""),
    ("gait", "k_flex", ("gait", "k_flex"), ""),
    ("gait", "theta_ext_eq", ("gait", "theta_ext_eq"), "deg"),
    ("gait", "theta_flex_eq", ("gait", "theta_flex_eq"), "deg"),
    ("gait", "w_ext", ("gait", "vel_mod_ext", "w"), ""),
    ("gait", "phi_ext", ("gait", "vel_mod_ext", "phi"), ""),
    ("gait", "w_flex", ("gait", "vel_mod_flex", "w"), ""),
    ("gait", "phi_flex", ("gait", "vel_mod_flex", "phi"), ""),
    ("sts", "k_sts", ("sts", "k_sts"), ""),
    ("sts", "w_vel", ("sts", "vel_mod", "w"), ""),
    ("sts", "phi_vel", ("sts", "vel_mod", "phi"), ""),
    ("sts", "w_torso", ("sts", "torso_mod", "w"), ""),
    ("sts", "phi_torso", ("sts", "torso_mod", "phi"), ""),
    ("descent", "w_step", ("descent", "step_mod", "w"), ""),
    ("descent", "phi_step", ("descent", "step_mod", "phi"), ""),
    ("descent", "lambda", ("descent", "lam"), ""),
    ("descent", "thigh_min", ("descent", "thigh_min"), "deg"),
    ("descent", "thigh_max", ("descent", "thigh_max"), "deg"),
    ("descent", "t_wait", ("descent", "t_wait"), ""),
    ("descent", "t_decay", ("descent", "t_decay"), ""),
    ("symmetry", "w_sc", ("symmetry", "sym_mod", "w"), ""),
    ("symmetry", "phi_sc", ("symmetry", "sym_mod", "phi"), ""),
    ("symmetry", "vel_threshold", ("symmetry", "vel_threshold"), "deg_s"),
    ("symmetry", "seated_threshold",
     ("symmetry", "seated_ext_threshold"), "deg"),
    ("symmetry", "ema_smoothing", ("symmetry", "ema_smoothing"), ""),
    *(("runtime", name, (name,), "") for name in (
        "torque_limit", "loop_rate_hz", "vel_filter_cutoff_hz",
        "cmd_filter_cutoff_hz")),
)


def field_at(obj, path: tuple):
    """The field of ``obj`` at ``path``, a tuple of attribute names."""
    return reduce(getattr, path, obj)


@dataclass
class SensorFrame:
    """One control-rate sample of bilateral kinematics and IMU accelerations."""

    timestamp: float
    hip_angle_l: float      # rad, flexion positive
    hip_angle_r: float
    hip_vel_l: float        # rad/s
    hip_vel_r: float
    thigh_angle_l: float    # rad
    thigh_angle_r: float
    torso_angle: float      # rad, forward lean positive
    thigh_accel_l: float = 0.0   # m/s^2, thigh-normal
    thigh_accel_r: float = 0.0
    pelvis_accel: float = 0.0    # m/s^2, high-pass residual magnitude

    def in_bounds(self) -> bool:
        """Whether every field passes its FRAME_BOUNDS bound, read by
        position: abs(value) < bound, which NaN and +-inf fail."""
        t, ha_l, ha_r, hv_l, hv_r, th_l, th_r, torso, ac_l, ac_r, ac_p = \
            FRAME_BOUNDS
        return (abs(self.timestamp) < t
                and abs(self.hip_angle_l) < ha_l
                and abs(self.hip_angle_r) < ha_r
                and abs(self.hip_vel_l) < hv_l and abs(self.hip_vel_r) < hv_r
                and abs(self.thigh_angle_l) < th_l
                and abs(self.thigh_angle_r) < th_r
                and abs(self.torso_angle) < torso
                and abs(self.thigh_accel_l) < ac_l
                and abs(self.thigh_accel_r) < ac_r
                and abs(self.pelvis_accel) < ac_p)


@dataclass
class TorqueBreakdown:
    """Per-step, per-side decomposition of the command pipeline.

    ``HipController.step`` fills the fields by position, and the step log
    takes its column order from them."""

    tau_ext: float = 0.0
    tau_flex: float = 0.0
    tau_gait: float = 0.0
    tau_gait_mod: float = 0.0
    tau_sts: float = 0.0
    tau_sts_mod: float = 0.0
    tau_act_raw: float = 0.0
    tau_cmd: float = 0.0
    eta_ext: float = 0.0
    eta_flex: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    extension_scale: float = 1.0
    hip_vel_filt: float = 0.0
    fault: bool = False


@dataclass
class StepResult:
    timestamp: float
    left: TorqueBreakdown
    right: TorqueBreakdown
    hs_event: HsEvent | None = None


class _SideState:
    def __init__(self, params: ControllerParams):
        self.vel_filter = LowpassFilter(
            BiquadSpec(params.vel_filter_cutoff_hz, params.loop_rate_hz))
        self.cmd_filter = LowpassFilter(
            BiquadSpec(params.cmd_filter_cutoff_hz, params.loop_rate_hz))
        self.mod = ModulationState()
        self.last_cmd = 0.0


class HipController:
    """Bilateral hip controller stepped at the loop rate by a single owner."""

    def __init__(self, params: ControllerParams):
        self.params = params
        self.reset()

    def reset(self):
        """Zero all filter, modulation, and detector state."""
        self._sides = {LEFT: _SideState(self.params), RIGHT: _SideState(self.params)}
        self.detector = HsDetector(self.params.loop_rate_hz)
        self._beta = 0.0
        self._t_prev: float | None = None
        self._t_admitted = -math.inf
        self._fault_since: float | None = None

    # -- fault path --------------------------------------------------------

    def _fault_step(self, timestamp: float) -> StepResult:
        p = self.params
        if math.isfinite(timestamp):
            t = timestamp
        else:
            t = (self._t_prev + 1.0 / p.loop_rate_hz) if self._t_prev is not None else 0.0
        if self._fault_since is None:
            self._fault_since = t
        scale = fault_hold_scale(t - self._fault_since)
        result = StepResult(timestamp=t, left=TorqueBreakdown(fault=True),
                            right=TorqueBreakdown(fault=True))
        for side, bd in ((LEFT, result.left), (RIGHT, result.right)):
            bd.tau_cmd = self._sides[side].last_cmd * scale
        self._t_prev = t
        return result

    # -- nominal path ------------------------------------------------------

    def step(self, frame: SensorFrame) -> StepResult:
        """Process one sensor frame and return the per-side breakdown.

        Frames with a field that fails its FRAME_BOUNDS bound, NaN
        included, are rejected (``SensorFrame.in_bounds``): the previous
        command is held (then decayed after sustained faults) and the
        fault flag is raised. This gate is the pipeline's only input
        check; the stages after it take plain floats. An admitted frame
        whose timestamp is not later than the last admitted frame's raises
        ``ValueError``; a gated frame's timestamp only dates the fault (one
        period on if not finite).
        """
        p = self.params
        if not frame.in_bounds():
            return self._fault_step(frame.timestamp)
        t = frame.timestamp
        if t <= self._t_admitted:
            raise ValueError(f"timestamp regression: {t} after {self._t_admitted}")
        self._fault_since = None
        self._t_admitted = t

        gait, sts, descent, symmetry = p.gait, p.sts, p.descent, p.symmetry
        sides = self._sides
        left, right = sides[LEFT], sides[RIGHT]
        vel_l = clamp(left.vel_filter.step(frame.hip_vel_l),
                      -VEL_CAP, VEL_CAP)
        vel_r = clamp(right.vel_filter.step(frame.hip_vel_r),
                      -VEL_CAP, VEL_CAP)
        bilateral = BilateralSample(frame.thigh_angle_l, frame.thigh_angle_r,
                                    vel_l - vel_r)

        event = self.detector.update(t, frame.thigh_accel_l,
                                     frame.thigh_accel_r, frame.pelvis_accel,
                                     bilateral)
        if event is not None:
            sides[event.side].mod.latch_alpha(
                alpha_at_heelstrike(event.thigh_snapshot, descent))

        beta = self._beta = beta_smoothed(
            self._beta, beta_raw(bilateral, symmetry), symmetry)
        standing = beta > STANDING_BETA
        torso, limit = frame.torso_angle, p.torque_limit

        breakdowns = []
        for st, hip_angle, vel, thigh_angle in (
            (left, frame.hip_angle_l, vel_l, frame.thigh_angle_l),
            (right, frame.hip_angle_r, vel_r, frame.thigh_angle_r),
        ):
            mod = st.mod
            reset_tick(mod, standing, t, descent)

            tau_ext, tau_flex = gait_spring_torques(hip_angle, gait)
            eta_ext, eta_flex = gait_velocity_factors(vel, gait)
            tau_gait = eta_ext * tau_ext + eta_flex * tau_flex
            tau_sts = sts_spring_torque(thigh_angle, sts)
            tau_sts_mod = sts_modulated_torque(tau_sts, vel, torso, sts)

            tau_gait_mod = attenuate_extension(tau_gait, mod, descent)
            tau_act_raw = blend(tau_sts_mod, tau_gait_mod, beta)
            tau_cmd = clamp(st.cmd_filter.step(tau_act_raw), -limit, limit)
            st.last_cmd = tau_cmd
            alpha = mod.alpha
            # positional, in TorqueBreakdown's field order
            breakdowns.append(TorqueBreakdown(
                tau_ext, tau_flex, tau_gait, tau_gait_mod, tau_sts,
                tau_sts_mod, tau_act_raw, tau_cmd, eta_ext, eta_flex, alpha,
                beta, 1.0 - descent.lam * alpha, vel))

        self._t_prev = t
        return StepResult(t, breakdowns[0], breakdowns[1], event)
