"""The per-step path of the 250 Hz controller calls no builtin ``min`` or
``max``: each clamp is the conditional expression that returns the same
float, a builtin call costing several times as much. The guard below reads
each per-step function's source; the properties check each rewritten clamp
bit for bit against the builtin form, ±0.0 and subnormals included, and
that the sigmoid's one-sided exponent cap saturates exactly."""
import ast
import inspect
import math
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from hipexo.controller import (FAULT_DECAY_S, FAULT_HOLD_S, HipController,
                               SensorFrame, fault_hold_scale)
from hipexo.heelstrike import HsDetector, _Channel, _median_mad
from hipexo.modulation import (BilateralSample, DescentModParams,
                               ModulationState, alpha_at_heelstrike,
                               attenuate_extension, beta_raw, beta_smoothed,
                               blend, reset_tick)
from hipexo.signals import (EXP_CLAMP, LowpassFilter, SigmoidParams, clamp,
                            exp_exact, sigmoid, sigmoid_array)
from hipexo.springs import (GaitSpringParams, StsSpringParams,
                            gait_spring_torques, gait_torque,
                            gait_velocity_factors, sts_modulated_torque,
                            sts_spring_torque)

PER_STEP = (
    HipController.step, HipController._fault_step, fault_hold_scale,
    SensorFrame.in_bounds,
    gait_spring_torques, gait_velocity_factors, gait_torque,
    sts_spring_torque, sts_modulated_torque,
    BilateralSample.theta_diff.fget, ModulationState.latch_alpha,
    alpha_at_heelstrike, attenuate_extension, reset_tick, beta_raw,
    beta_smoothed, blend,
    sigmoid, clamp, LowpassFilter.step,
    HsDetector.update, HsDetector._merge, HsDetector.refractory_ok,
    _Channel.push, _Channel.track, _median_mad,
)


def builtin_min_max(fn) -> list[str]:
    """The lines of ``fn``'s source that name builtin ``min`` or ``max``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return [f"{fn.__qualname__}:{node.lineno}: {node.id}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id in ("min", "max")]


@pytest.mark.parametrize("fn", PER_STEP, ids=lambda f: f.__qualname__)
def test_per_step_function_calls_no_builtin_min_max(fn):
    assert builtin_min_max(fn) == []


def test_guard_catches_a_builtin_min():
    def ramp(x):
        return min(0.0, x)

    def aliased(x):
        lowest = max
        return lowest(x, 0.0)

    assert builtin_min_max(ramp) == [
        "test_guard_catches_a_builtin_min.<locals>.ramp:2: min"]
    assert len(builtin_min_max(aliased)) == 1


# --- exactness of the conditional expressions

SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
           -2.2250738585072014e-308, 1.0, -1.0)
finite = strategies.one_of(strategies.sampled_from(SPECIAL),
                           strategies.floats(allow_nan=False,
                                             allow_infinity=False))
unit = strategies.one_of(strategies.sampled_from(SPECIAL[:3] + (1.0,)),
                         strategies.floats(0.0, 1.0))
stiffness = strategies.one_of(strategies.sampled_from((0.0, 5e-324, 80.0)),
                              strategies.floats(0.0, 1e3))
angle = strategies.one_of(strategies.sampled_from((0.0, -0.0, 5e-324)),
                          strategies.floats(-1.0, 2.2))
slope = strategies.floats(-1e3, 1e3)
exact = settings(max_examples=300, derandomize=True, database=None)


def hexes(*values):
    return [float(v).hex() for v in values]


@exact
@given(theta=finite, k_ext=stiffness, k_flex=stiffness, ext_eq=angle,
       flex_eq=angle)
def test_gait_spring_torques_exact(theta, k_ext, k_flex, ext_eq, flex_eq):
    flat = SigmoidParams(1.0, 0.0)
    p = GaitSpringParams(k_ext, k_flex, ext_eq, flex_eq, flat, flat)
    want = (min(0.0, k_ext * (theta - ext_eq)),
            max(0.0, k_flex * (flex_eq - theta)))
    assert hexes(*gait_spring_torques(theta, p)) == hexes(*want)


@exact
@given(thigh=finite, k_sts=stiffness)
def test_sts_spring_torque_exact(thigh, k_sts):
    flat = SigmoidParams(1.0, 0.0)
    p = StsSpringParams(k_sts, flat, flat)
    assert hexes(sts_spring_torque(thigh, p)) == \
        hexes(min(0.0, -k_sts * thigh))


@exact
@given(tau_sts=finite, vel=finite, torso=finite, w_vel=slope, w_torso=slope,
       phi=strategies.floats(-10.0, 10.0))
def test_sts_modulated_torque_exact(tau_sts, vel, torso, w_vel, w_torso, phi):
    p = StsSpringParams(1.0, SigmoidParams(w_vel, phi),
                        SigmoidParams(w_torso, -phi))
    want = (tau_sts * sigmoid(vel, p.vel_mod)
            * sigmoid(max(0.0, torso), p.torso_mod))
    assert hexes(sts_modulated_torque(tau_sts, vel, torso, p)) == hexes(want)


@exact
@given(tau=finite, alpha=unit, lam=unit)
def test_attenuate_extension_exact(tau, alpha, lam):
    p = DescentModParams(SigmoidParams(-8.0, -2.0), lam=lam)
    scale = 1.0 - lam * alpha
    want = scale * min(0.0, tau) + max(0.0, tau)
    got = attenuate_extension(tau, ModulationState(alpha=alpha), p)
    assert hexes(got) == hexes(want)


@exact
@given(initial=unit, ramp_start=strategies.floats(0.0, 1e4),
       elapsed=strategies.one_of(strategies.sampled_from((0.0, 1.0, 5e-324)),
                                 strategies.floats(0.0, 10.0)),
       t_decay=strategies.floats(1e-3, 10.0))
def test_reset_tick_ramp_exact(initial, ramp_start, elapsed, t_decay):
    p = DescentModParams(SigmoidParams(-8.0, -2.0), t_decay=t_decay)
    now = ramp_start + elapsed
    state = ModulationState(alpha=initial, standing_since=ramp_start - 2.0,
                            ramp_start=ramp_start, ramp_initial_alpha=initial)
    want = max(0.0, initial * (1.0 - (now - ramp_start) / t_decay))
    assert hexes(reset_tick(state, True, now, p)) == hexes(want)
    assert hexes(state.alpha) == hexes(want)
    assert (state.ramp_start is None) == (want == 0.0)


@exact
@given(elapsed=finite)
def test_fault_hold_scale_exact(elapsed):
    want = 1.0 if elapsed <= FAULT_HOLD_S else max(
        0.0, 1.0 - (elapsed - FAULT_HOLD_S) / FAULT_DECAY_S)
    assert hexes(fault_hold_scale(elapsed)) == hexes(want)


def median_mad_builtin(s):
    """``_median_mad`` as written with builtin min and max."""
    n = len(s)
    h = n // 2
    med = s[h] if n % 2 else (s[h - 1] + s[h]) / 2
    if not -math.inf < med < math.inf:
        return med, math.inf
    lo, hi = 0, h
    while lo < hi:
        k = (lo + hi) // 2
        if med - s[k] < s[k + h] - med:
            hi = k
        else:
            lo = k + 1
    k = lo
    mad = min(med - s[k - 1] if k else math.inf,
              s[h + k] - med if h + k < n else math.inf)
    if not n % 2:
        last = max(med - s[k] if k < h else -math.inf,
                   s[h + k - 1] - med if k else -math.inf)
        mad = (last + mad) / 2
    return med, abs(mad)


# few distinct values, so that lists repeat them, and zeros of both signs
window_value = strategies.one_of(
    strategies.sampled_from(SPECIAL + (2.0, -3.5, 1e308, -1e308)),
    strategies.floats(allow_nan=False, allow_infinity=False))


@exact
@given(values=strategies.lists(window_value, min_size=1, max_size=40))
def test_median_mad_exact(values):
    s = sorted(values)
    assert hexes(*_median_mad(s)) == hexes(*median_mad_builtin(s))


# --- the one-sided exponent cap

# z = -w*x + phi with w = 1 and phi = 0: x = -z
SATURATED_Z = (-EXP_CLAMP, -500.5, -744.0, -745.2, -746.0, -1e4, -1e6)


@pytest.mark.parametrize("z", SATURATED_Z)
def test_sigmoid_saturates_to_exactly_one_below_the_cap(z):
    p = SigmoidParams(1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigmoid(-z, p) == 1.0
        for exp in (np.exp, exp_exact):
            y = sigmoid_array(np.array([-z, -z]), p, exp)
            assert y.tolist() == [1.0, 1.0]


@exact
@given(x=finite, w=slope, phi=strategies.floats(-1e3, 1e3))
def test_sigmoid_matches_the_two_sided_clamp(x, w, phi):
    z = min(EXP_CLAMP, max(-EXP_CLAMP, -w * x + phi))
    assert hexes(sigmoid(x, SigmoidParams(w, phi))) == \
        hexes(1.0 / (1.0 + math.exp(z)))
