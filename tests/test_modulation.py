import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from hipexo.modulation import (BilateralSample, DescentModParams,
                               ModulationState, SymmetryParams,
                               alpha_at_heelstrike, attenuate_extension,
                               beta_raw, beta_smoothed, beta_smoothed_series,
                               blend, reset_tick)
from hipexo.signals import SigmoidParams


def descent(**kw):
    base = dict(step_mod=SigmoidParams(-8.0, -2.0), lam=1.0,
                thigh_min=-0.35, thigh_max=0.9, t_wait=2.0, t_decay=1.0)
    base.update(kw)
    return DescentModParams(**base)


def symmetry(**kw):
    base = dict(sym_mod=SigmoidParams(-10.0, -4.0), vel_threshold=0.5,
                seated_ext_threshold=1.0, ema_smoothing=0.1)
    base.update(kw)
    return SymmetryParams(**base)


def bilateral(l=0.0, r=0.0, ddot=0.0):
    return BilateralSample(l, r, ddot)


class TestAlpha:
    def test_safeguard_disables_outside_range(self):
        hs = bilateral(l=1.2, r=0.1)  # left thigh outside [-0.35, 0.9]
        assert alpha_at_heelstrike(hs, descent()) == 0.0
        hs = bilateral(l=0.1, r=-0.5)
        assert alpha_at_heelstrike(hs, descent()) == 0.0

    def test_small_step_strong_attenuation(self):
        hs = bilateral(l=0.2, r=0.2)  # theta_diff = 0
        alpha = alpha_at_heelstrike(hs, descent(step_mod=SigmoidParams(-8.0, -2.0)))
        assert alpha == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)

    def test_large_step_no_attenuation(self):
        hs = bilateral(l=0.85, r=-0.3)
        alpha = alpha_at_heelstrike(hs, descent())
        assert alpha < 1e-3

    def test_config_requires_negative_slope(self):
        with pytest.raises(ValueError):
            descent(step_mod=SigmoidParams(8.0, -2.0))


class TestAttenuation:
    def test_identity_when_alpha_zero(self):
        st = ModulationState(alpha=0.0)
        assert attenuate_extension(-12.3, st, descent()) == -12.3
        assert attenuate_extension(7.7, st, descent()) == 7.7

    def test_full_attenuation_spares_flexion(self):
        st = ModulationState(alpha=1.0)
        p = descent(lam=1.0)
        assert attenuate_extension(-10.0, st, p) == 0.0
        assert attenuate_extension(5.0, st, p) == 5.0

    def test_formula(self):
        st = ModulationState(alpha=0.5)
        assert attenuate_extension(-10.0, st, descent(lam=0.8)) \
            == pytest.approx(-6.0, abs=1e-12)

    def test_flexion_exact_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            st = ModulationState(alpha=rng.uniform(0, 1))
            p = descent(lam=rng.uniform(0, 1))
            tau = rng.uniform(0, 40)
            assert attenuate_extension(tau, st, p) == tau

    def test_extension_monotone_in_alpha_and_lambda(self):
        tau = -15.0
        outs = [abs(attenuate_extension(tau, ModulationState(alpha=a),
                                        descent(lam=1.0)))
                for a in np.linspace(0, 1, 21)]
        assert all(b <= a + 1e-12 for a, b in zip(outs, outs[1:]))
        outs = [abs(attenuate_extension(tau, ModulationState(alpha=0.7),
                                        descent(lam=l)))
                for l in np.linspace(0, 1, 21)]
        assert all(b <= a + 1e-12 for a, b in zip(outs, outs[1:]))

    def test_non_expansive(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            st = ModulationState(alpha=rng.uniform(0, 1))
            p = descent(lam=rng.uniform(0, 1))
            tau = rng.uniform(-40, 40)
            assert abs(attenuate_extension(tau, st, p)) <= abs(tau) + 1e-12


class TestResetRamp:
    def run_ticks(self, state, p, t0, t1, standing=True, dt=0.004):
        t = t0
        while t <= t1 + 1e-12:
            alpha = reset_tick(state, standing, t, p)
            t += dt
        return alpha

    def test_ramp_endpoint_exact_zero(self):
        p = descent(t_wait=2.0, t_decay=1.0)
        st = ModulationState(alpha=0.8)
        alpha = self.run_ticks(st, p, 0.0, 3.0)
        assert alpha == 0.0

    def test_ramp_midpoint_linear(self):
        p = descent(t_wait=2.0, t_decay=1.0)
        st = ModulationState(alpha=0.8)
        alpha = self.run_ticks(st, p, 0.0, 2.5)
        assert alpha == pytest.approx(0.4, abs=0.8 * 0.004 / p.t_decay + 1e-12)

    def test_interrupted_before_wait_keeps_alpha(self):
        p = descent(t_wait=2.0, t_decay=1.0)
        st = ModulationState(alpha=0.8)
        self.run_ticks(st, p, 0.0, 1.5)
        alpha = reset_tick(st, False, 1.504, p)
        assert alpha == 0.8
        # a fresh standing bout restarts the wait from scratch
        alpha = self.run_ticks(st, p, 1.508, 3.0)
        assert alpha == 0.8

    def test_new_heelstrike_cancels_ramp(self):
        p = descent(t_wait=2.0, t_decay=1.0)
        st = ModulationState(alpha=0.8)
        self.run_ticks(st, p, 0.0, 2.5)
        assert 0.0 < st.alpha < 0.8
        st.latch_alpha(0.66)
        assert st.alpha == 0.66
        assert st.ramp_start is None

    def test_ramp_piecewise_linear_non_increasing(self):
        p = descent(t_wait=1.0, t_decay=0.5)
        st = ModulationState(alpha=1.0)
        alphas = []
        t = 0.0
        while t <= 1.6:
            alphas.append(reset_tick(st, True, t, p))
            t += 0.004
        arr = np.array(alphas)
        assert np.all(np.diff(arr) <= 1e-12)
        ramp = arr[(arr > 0) & (arr < 1)]
        steps = np.diff(ramp)
        assert np.allclose(steps, steps[0], atol=1e-9)


class TestBeta:
    def test_velocity_gate_closes(self):
        assert beta_raw(bilateral(ddot=0.5), symmetry(vel_threshold=0.5)) == 0.0
        assert beta_raw(bilateral(ddot=-0.7), symmetry(vel_threshold=0.5)) == 0.0

    def test_symmetric_standing_closed_form(self):
        b = beta_raw(bilateral(), symmetry(sym_mod=SigmoidParams(-10.0, -4.0)))
        assert b == pytest.approx(1.0 / (1.0 + math.exp(-4.0)), abs=1e-12)

    def test_seated_override(self):
        s = bilateral(l=1.3, r=1.25, ddot=2.0)  # moving legs while seated
        assert beta_raw(s, symmetry(seated_ext_threshold=1.0)) == 1.0

    def test_gate_boundary_tie_closes(self):
        p = symmetry(vel_threshold=0.5)
        assert beta_raw(bilateral(ddot=0.5), p) == 0.0
        assert beta_raw(bilateral(ddot=0.4999), p) > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            symmetry(sym_mod=SigmoidParams(10.0, -4.0))
        with pytest.raises(ValueError):
            symmetry(sym_mod=SigmoidParams(-10.0, 4.0))
        with pytest.raises(ValueError):
            symmetry(vel_threshold=0.0)

    def test_smoothing(self):
        assert beta_smoothed(0.0, 1.0, symmetry()) == pytest.approx(
            0.1, abs=1e-12)
        assert beta_smoothed(0.0, 0.77, symmetry(ema_smoothing=1.0)) == 0.77
        out = 0.0
        for _ in range(400):
            out = beta_smoothed(out, 1.0, symmetry())
        assert out == pytest.approx(1.0, abs=1e-10)


class TestEma:
    """beta_smoothed is one step of an exponential moving average at the
    rate ``SymmetryParams.ema_smoothing``, from the previous value."""

    def test_passthrough_when_smoothing_one(self):
        assert beta_smoothed(0.3, -2.5, symmetry(ema_smoothing=1.0)) == -2.5

    def test_converges_to_constant(self):
        out = 100.0
        for _ in range(500):
            out = beta_smoothed(out, 4.0, symmetry())
        assert out == pytest.approx(4.0, abs=1e-10)

    def test_step_response_closed_form(self):
        outs = [0.0]
        for _ in range(20):
            outs.append(beta_smoothed(outs[-1], 1.0, symmetry()))
        for n, out in enumerate(outs[1:], start=1):
            assert out == pytest.approx(1.0 - 0.9 ** n, abs=1e-12)
        assert outs[10] == pytest.approx(0.6513215599, abs=1e-9)

    def test_contraction_property(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            s = rng.uniform(0.01, 1.0)
            prev = rng.uniform(-10, 10)
            sample = rng.uniform(-10, 10)
            out = beta_smoothed(prev, sample, symmetry(ema_smoothing=s))
            assert abs(out - sample) <= (1 - s) * abs(prev - sample) + 1e-12

    @settings(max_examples=500, derandomize=True, database=None)
    @given(prev=strategies.floats(0.0, 1.0), raw=strategies.floats(0.0, 1.0),
           s=strategies.floats(0.0, 1.0, exclude_min=True))
    def test_stays_in_unit_range_and_moves_toward_raw(self, prev, raw, s):
        out = beta_smoothed(prev, raw, symmetry(ema_smoothing=s))
        assert 0.0 <= out <= 1.0
        # s*raw + (1-s)*raw can round one ulp off raw, so prev == raw
        # may move by that much
        assert abs(out - raw) <= abs(prev - raw) + math.ulp(1.0)

    def test_bad_smoothing(self):
        with pytest.raises(ValueError, match="ema_smoothing"):
            symmetry(ema_smoothing=0.0)
        with pytest.raises(ValueError, match="ema_smoothing"):
            symmetry(ema_smoothing=1.5)


# smoothing rates in (0, 1], with the floats just under 0.5 and 1.0, and
# raw beta runs in [0, 1] that hold 0.0 or 1.0 for many steps
RATES = strategies.one_of(
    strategies.floats(0.0, 1.0, exclude_min=True),
    strategies.sampled_from([math.nextafter(0.5, 0.0), 0.5,
                             math.nextafter(1.0, 0.0), 1.0]))
RAW_RUNS = strategies.lists(strategies.tuples(
    strategies.one_of(strategies.floats(0.0, 1.0),
                      strategies.sampled_from([0.0, 1.0])),
    strategies.integers(1, 50)), min_size=1, max_size=20)


def beta_chain(runs, s):
    """The smoothed betas of raw ``runs`` of (value, length), from 0.0 as
    the controller and replay start."""
    p, beta, out = symmetry(ema_smoothing=s), 0.0, []
    for raw, length in runs:
        for _ in range(length):
            beta = beta_smoothed(beta, raw, p)
            out.append(beta)
    return out


class TestBetaByConstruction:
    """beta is in [0, 1] because of how it is made, so nothing after
    beta_smoothed tests its range."""

    @settings(max_examples=100, derandomize=True, database=None)
    @given(runs=RAW_RUNS, s=RATES)
    def test_every_chain_stays_in_unit_range(self, runs, s):
        assert all(0.0 <= beta <= 1.0 for beta in beta_chain(runs, s))

    @settings(max_examples=100, derandomize=True, database=None)
    @given(runs=RAW_RUNS, s=RATES)
    def test_column_kernel_is_chained_steps(self, runs, s):
        raw = np.array([value for value, length in runs
                        for _ in range(length)])
        got = beta_smoothed_series(raw, symmetry(ema_smoothing=s))
        assert got.tobytes() == np.array(beta_chain(runs, s)).tobytes()

    @settings(max_examples=100, derandomize=True, database=None)
    @given(runs=RAW_RUNS, s=RATES, seed=strategies.integers(0, 2**32 - 1))
    def test_array_blend_is_scalar_blend(self, runs, s, seed):
        beta = np.array(beta_chain(runs, s))
        rng = np.random.default_rng(seed)
        sts, gait = rng.uniform(-30.0, 30.0, (2, beta.size))
        want = [blend(a, b, c) for a, b, c in
                zip(sts.tolist(), gait.tolist(), beta.tolist())]
        got = blend(sts, gait, beta)
        assert got.tobytes() == np.array(want).tobytes()


class TestBlend:
    def test_endpoints(self):
        assert blend(-16.0, -6.0, 0.0) == -6.0
        assert blend(-16.0, -6.0, 1.0) == -16.0

    def test_midpoint(self):
        assert blend(-16.0, -6.0, 0.5) == pytest.approx(-11.0, abs=1e-12)

    def test_output_between_inputs(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            a, b = rng.uniform(-30, 30, 2)
            beta = rng.uniform(0, 1)
            out = blend(a, b, beta)
            assert min(a, b) - 1e-12 <= out <= max(a, b) + 1e-12
