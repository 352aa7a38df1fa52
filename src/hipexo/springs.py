"""Physics-informed torque bases: unidirectional gait extension/flexion
springs and the sit-to-stand (STS) spring, each shaped by sigmoid velocity
(and torso) modulation.

Sign conventions: hip flexion is positive, so extension torque is negative
and flexion torque positive. Angles in rad, velocities in rad/s, torques in
Nm. The scalar kernels step the live controller. They clamp at zero
with conditional expressions (``v if v < 0.0 else 0.0``), which give the
zero sign of ``neg_part``/``pos_part`` and of builtin min/max, -0.0 to
+0.0. Each law has one column kernel, with the same positional inputs,
that replay, the optimizer and stride synthesis share; it takes the
exponential as ``exp``, called with ``out`` as ``np.exp`` is: replay
passes ``signals.exp_exact`` and so matches the scalar kernels bit for
bit, the others ``np.exp``. The column kernels form each step in place on
their own temporaries, and the gait kernel runs its two velocity sigmoids
as one (2, N) pass. Inputs are not validated here: the controller's frame
gate and the stride contract (``gaitdata.StrideSeries``) admit only
values inside FRAME_BOUNDS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import (SigmoidParams, logistic_inplace, neg_part, pos_part,
                      sigmoid, sigmoid_array)

# joint range-of-motion sanity bound for equilibrium angles, rad
ROM_MIN = -1.0
ROM_MAX = 2.2

# hip angular velocity sanity bound, rad/s
VEL_BOUND = 25.0
# an angle past half a turn is a sensor fault, rad
ANGLE_BOUND = math.pi
# 16 g, a common IMU full scale, m/s^2
ACCEL_BOUND = 16 * 9.80665

# The bound on each SensorFrame field, in field order: timestamp, hip
# angles, hip velocities, thigh angles, torso angle, accelerations. A
# value passes when abs(value) < bound, which NaN and +-inf fail. The
# controller's frame gate, the stride contract and the detect-hs row gate
# read it.
FRAME_BOUNDS = (math.inf, ANGLE_BOUND, ANGLE_BOUND, VEL_BOUND, VEL_BOUND,
                ANGLE_BOUND, ANGLE_BOUND, ANGLE_BOUND,
                ACCEL_BOUND, ACCEL_BOUND, ACCEL_BOUND)


@dataclass
class GaitSpringParams:
    """Gait extension/flexion spring stiffnesses, equilibria, and the
    velocity-modulation sigmoids for each spring."""

    k_ext: float          # Nm/rad
    k_flex: float         # Nm/rad
    theta_ext_eq: float   # rad
    theta_flex_eq: float  # rad
    vel_mod_ext: SigmoidParams
    vel_mod_flex: SigmoidParams

    def __post_init__(self):
        for name, k in (("k_ext", self.k_ext), ("k_flex", self.k_flex)):
            if not (math.isfinite(k) and k >= 0):
                raise ValueError(f"{name}={k} must be finite and >= 0")
        for name, eq in (("theta_ext_eq", self.theta_ext_eq),
                         ("theta_flex_eq", self.theta_flex_eq)):
            if not ROM_MIN <= eq <= ROM_MAX:
                raise ValueError(
                    f"{name}={eq} rad outside joint range [{ROM_MIN}, {ROM_MAX}]"
                )


@dataclass
class StsSpringParams:
    """STS spring stiffness plus velocity and torso-lean modulation sigmoids.

    The spring is unidirectional with its equilibrium at thigh angle 0, so it
    produces extension torque only while the thigh is flexed.
    """

    k_sts: float  # Nm/rad
    vel_mod: SigmoidParams
    torso_mod: SigmoidParams

    def __post_init__(self):
        if not (math.isfinite(self.k_sts) and self.k_sts >= 0):
            raise ValueError(f"k_sts={self.k_sts} must be finite and >= 0")


def gait_spring_torques(theta_ips: float, p: GaitSpringParams) -> tuple[float, float]:
    """Unmodulated gait spring torques (tau_ext <= 0, tau_flex >= 0).

    The clamps at zero keep each spring unidirectional: the extension spring
    never pushes into flexion and vice versa.
    """
    tau_ext = p.k_ext * (theta_ips - p.theta_ext_eq)
    tau_flex = p.k_flex * (p.theta_flex_eq - theta_ips)
    return (tau_ext if tau_ext < 0.0 else 0.0,
            tau_flex if tau_flex > 0.0 else 0.0)


def sts_spring_torque(theta_thigh: float, p: StsSpringParams) -> float:
    """Unmodulated STS spring torque, <= 0 (extension only while thigh flexed)."""
    tau = -p.k_sts * theta_thigh
    return tau if tau < 0.0 else 0.0


def gait_velocity_factors(theta_ips_dot: float,
                          p: GaitSpringParams) -> tuple[float, float]:
    """Velocity modulation factors (eta_ext, eta_flex), each in (0, 1)."""
    eta_ext = sigmoid(theta_ips_dot, p.vel_mod_ext)
    eta_flex = sigmoid(theta_ips_dot, p.vel_mod_flex)
    return eta_ext, eta_flex


def gait_torque(theta_ips: float, theta_ips_dot: float, p: GaitSpringParams) -> float:
    """Total gait-spring torque after velocity modulation."""
    tau_ext, tau_flex = gait_spring_torques(theta_ips, p)
    eta_ext, eta_flex = gait_velocity_factors(theta_ips_dot, p)
    return eta_ext * tau_ext + eta_flex * tau_flex


def sts_modulated_torque(tau_sts: float, theta_ips_dot: float,
                         theta_torso: float, p: StsSpringParams) -> float:
    """The STS spring torque ``tau_sts`` (``sts_spring_torque``'s result)
    scaled by velocity and torso-lean factors, <= 0.

    The torso input is clamped at zero so that backward lean or an upright
    trunk leaves only the sigmoid's floor value; the spring effectively
    engages when the trunk pitches forward.
    """
    eta_vel = sigmoid(theta_ips_dot, p.vel_mod)
    eta_torso = sigmoid(theta_torso if theta_torso > 0.0 else 0.0,
                        p.torso_mod)
    return tau_sts * eta_vel * eta_torso


# --- column kernels: np.exp can differ from math.exp in the last bit

def gait_torque_series(theta_ips, theta_ips_dot, p: GaitSpringParams,
                       exp=np.exp) -> tuple[np.ndarray, ...]:
    """Gait springs over angle/velocity columns: (tau_ext, tau_flex,
    eta_ext, eta_flex, tau_gait), in the scalar kernels' operation order.

    Both velocity sigmoids share the velocity column, so they run as one
    (2, N) pass: the outer product of (-w_ext, -w_flex) with the column,
    plus (phi_ext, phi_flex), then the clamp, ``exp``, +1 and reciprocal
    in place on that one array, whose rows are eta_ext and eta_flex. Each
    spring term likewise reuses its own temporary. ``exp`` must take
    ``out`` as ``np.exp`` does."""
    th = np.asarray(theta_ips, dtype=float)
    tau_ext = np.subtract(th, p.theta_ext_eq)
    tau_ext *= p.k_ext
    neg_part(tau_ext, out=tau_ext)
    tau_flex = np.subtract(p.theta_flex_eq, th)
    tau_flex *= p.k_flex
    pos_part(tau_flex, out=tau_flex)
    ext, flex = p.vel_mod_ext, p.vel_mod_flex
    z = np.multiply.outer((-ext.w, -flex.w),
                          np.asarray(theta_ips_dot, dtype=float))
    z += ((ext.phi,), (flex.phi,))
    eta_ext, eta_flex = logistic_inplace(z, exp)
    tau_gait = eta_ext * tau_ext
    tau_gait += eta_flex * tau_flex
    return tau_ext, tau_flex, eta_ext, eta_flex, tau_gait


def sts_torque_series(theta_thigh, theta_ips_dot, theta_torso,
                      p: StsSpringParams,
                      exp=np.exp) -> tuple[np.ndarray, np.ndarray]:
    """STS spring over thigh/velocity/torso columns: (tau_sts,
    tau_sts_mod), in the scalar kernels' operation order. ``exp`` must take
    ``out`` as ``np.exp`` does."""
    tau_sts = np.multiply(-p.k_sts, np.asarray(theta_thigh, dtype=float))
    neg_part(tau_sts, out=tau_sts)
    tau_mod = tau_sts * sigmoid_array(theta_ips_dot, p.vel_mod, exp)
    tau_mod *= sigmoid_array(pos_part(theta_torso), p.torso_mod, exp)
    return tau_sts, tau_mod
