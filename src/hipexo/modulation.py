"""Task-context modulation layer.

Descent attenuation: at each heel strike the inter-thigh angle difference is
mapped through a sigmoid to an attenuation factor alpha in [0, 1]; alpha is
latched until the next heel strike or until a standing-reset ramp clears it.
Only extension torque is attenuated. ``ModulationState`` holds alpha per leg.

Gait-STS blending: bilateral symmetry (plus a velocity-difference gate and a
seated override) yields beta in [0, 1], smoothed by one bilateral EMA: the
controller steps ``beta_smoothed``, and replay runs its column twin
``beta_smoothed_series``, a generator kernel that ``np.fromiter`` drives,
once per stride. The commanded torque is the convex combination
beta*tau_sts_mod + (1-beta)*tau_gait_mod.

The per-step functions take plain floats and a ``BilateralSample``, whose
theta_diff is derived from the two thigh angles. Inputs are not validated
here: the controller's frame gate admits only samples inside its bounds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import SigmoidParams, sigmoid


@dataclass
class BilateralSample:
    """Bilateral thigh state at one instant, in rad and rad/s."""

    theta_thigh_l: float
    theta_thigh_r: float
    theta_diff_dot: float

    @property
    def theta_diff(self) -> float:
        """Inter-thigh angle difference, left - right."""
        return self.theta_thigh_l - self.theta_thigh_r


@dataclass
class DescentModParams:
    """Descent attenuation configuration.

    step_mod must have a negative slope so a smaller step (inter-thigh angle
    difference at heel strike) yields stronger attenuation. lam scales the
    attenuation strength; the thigh range is a safeguard that disables
    attenuation when heel-strike thigh angles look like non-descent activity.
    """

    step_mod: SigmoidParams
    lam: float = 1.0          # attenuation strength in [0, 1]
    thigh_min: float = -0.35  # rad
    thigh_max: float = 0.9    # rad
    t_wait: float = 2.0       # s of sustained standing before the reset ramp
    t_decay: float = 1.0      # s to ramp alpha back to 0

    def __post_init__(self):
        if self.step_mod.w >= 0:
            raise ValueError("step_mod slope must be negative "
                             "(attenuation grows as the step shrinks)")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        if not self.thigh_min < self.thigh_max:
            raise ValueError("thigh_min must be < thigh_max")
        if self.t_wait <= 0 or self.t_decay <= 0:
            raise ValueError("t_wait and t_decay must be > 0")


@dataclass
class SymmetryParams:
    """Gait-STS blend configuration.

    sym_mod must have negative slope and offset so symmetry (small
    inter-thigh difference) raises beta. The velocity gate zeroes beta while
    the legs move asymmetrically; the seated override forces beta = 1 when
    both thighs are flexed past the seated threshold.
    """

    sym_mod: SigmoidParams
    vel_threshold: float           # rad/s
    seated_ext_threshold: float = 1.0  # rad
    ema_smoothing: float = 0.1

    def __post_init__(self):
        if self.sym_mod.w >= 0 or self.sym_mod.phi >= 0:
            raise ValueError("sym_mod slope and offset must be negative")
        if not self.vel_threshold > 0:
            raise ValueError("vel_threshold must be > 0")
        if not 0.0 < self.ema_smoothing <= 1.0:
            raise ValueError("ema_smoothing must be in (0, 1]")


@dataclass
class ModulationState:
    """Per-leg descent state (latched alpha, reset ramp) of the controller."""

    alpha: float = 0.0
    standing_since: float | None = None
    ramp_start: float | None = None
    ramp_initial_alpha: float = 0.0

    def latch_alpha(self, alpha: float):
        """Store a heel-strike alpha and cancel any running reset ramp."""
        self.alpha = alpha
        self.ramp_start = None
        self.standing_since = None


def alpha_at_heelstrike(hs: BilateralSample, p: DescentModParams) -> float:
    """Descent attenuation factor from the heel-strike thigh snapshot.

    Returns 0 when either thigh angle is outside the safeguard range
    (heel strikes with large flexion or extension are non-descent activity);
    otherwise sigmoid(|theta_diff|).
    """
    if not (p.thigh_min <= hs.theta_thigh_l <= p.thigh_max
            and p.thigh_min <= hs.theta_thigh_r <= p.thigh_max):
        return 0.0
    return sigmoid(abs(hs.theta_diff), p.step_mod)


def attenuate_extension(tau_gait: float, state: ModulationState,
                        p: DescentModParams) -> float:
    """Scale only the extension (negative) part of the gait torque by
    1 - lam*alpha; flexion passes through unchanged."""
    scale = 1.0 - p.lam * state.alpha
    return (scale * (tau_gait if tau_gait < 0.0 else 0.0)
            + (tau_gait if tau_gait > 0.0 else 0.0))


def reset_tick(state: ModulationState, standing: bool, now: float,
               p: DescentModParams) -> float:
    """Advance the standing-reset ramp by one control step.

    Once standing has persisted for t_wait, alpha ramps linearly from its
    latched value to exactly 0 over t_decay. Losing the standing indicator
    freezes alpha where it is; a new heel strike re-latches it (see
    ``ModulationState.latch_alpha``). Returns the updated alpha.
    """
    if standing:
        if state.standing_since is None:
            state.standing_since = now
        if (state.ramp_start is None and state.alpha > 0.0
                and now - state.standing_since >= p.t_wait):
            # anchor the ramp at onset + t_wait so its endpoint lands at
            # onset + t_wait + t_decay regardless of tick phase
            state.ramp_start = state.standing_since + p.t_wait
            state.ramp_initial_alpha = state.alpha
        if state.ramp_start is not None:
            frac = (now - state.ramp_start) / p.t_decay
            alpha = state.ramp_initial_alpha * (1.0 - frac)
            state.alpha = alpha if alpha > 0.0 else 0.0
            if state.alpha == 0.0:
                state.ramp_start = None
                state.ramp_initial_alpha = 0.0
    else:
        state.standing_since = None
        state.ramp_start = None
    return state.alpha


def beta_raw(s: BilateralSample, p: SymmetryParams) -> float:
    """Unfiltered gait-STS blend factor in [0, 1].

    Seated override first: both thighs flexed past the seated threshold
    forces 1 regardless of the velocity gate. Otherwise the symmetry sigmoid
    gated to zero whenever |theta_diff_dot| >= vel_threshold (boundary tie
    closes the gate).
    """
    if (s.theta_thigh_l > p.seated_ext_threshold
            and s.theta_thigh_r > p.seated_ext_threshold):
        return 1.0
    if abs(s.theta_diff_dot) >= p.vel_threshold:
        return 0.0
    return sigmoid(abs(s.theta_diff), p.sym_mod)


def beta_smoothed(prev: float, beta: float, p: SymmetryParams) -> float:
    """One EMA step of the blend factor at rate ``p.ema_smoothing``:
    s*beta + (1-s)*prev."""
    return p.ema_smoothing * beta + (1.0 - p.ema_smoothing) * prev


def beta_smoothed_series(raw: np.ndarray, p: SymmetryParams) -> np.ndarray:
    """``beta_smoothed`` chained over a column of raw betas from 0.0, as
    the controller starts: the smoothed beta of each sample, bit for bit."""
    return np.fromiter(_ema(raw.tolist(), p.ema_smoothing), float)


def _ema(raw, s):
    # beta_smoothed's expression on local variables, driven by np.fromiter
    prev, keep = 0.0, 1.0 - s
    for beta in raw:
        prev = s * beta + keep * prev
        yield prev


def blend(tau_sts_mod, tau_gait_mod, beta):
    """Convex combination beta*tau_sts_mod + (1-beta)*tau_gait_mod, on
    floats or arrays; beta_smoothed keeps beta in [0, 1] by construction."""
    return beta * tau_sts_mod + (1.0 - beta) * tau_gait_mod
