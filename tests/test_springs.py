import math

import numpy as np
import pytest

from hipexo.configio import load_params
from hipexo.controller import HipController, SensorFrame
from hipexo.signals import EXP_CLAMP, SigmoidParams, exp_exact, sigmoid_array
from hipexo.springs import (VEL_BOUND, GaitSpringParams, StsSpringParams,
                            gait_spring_torques, gait_torque,
                            gait_torque_series, gait_velocity_factors,
                            sts_modulated_torque, sts_spring_torque,
                            sts_torque_series)


def gait_params(**kw):
    base = dict(k_ext=50.0, k_flex=40.0, theta_ext_eq=0.1, theta_flex_eq=0.2,
                vel_mod_ext=SigmoidParams(-3.0, 2.0),
                vel_mod_flex=SigmoidParams(3.0, 1.0))
    base.update(kw)
    return GaitSpringParams(**base)


def sts_params(**kw):
    base = dict(k_sts=20.0, vel_mod=SigmoidParams(-4.0, 2.0),
                torso_mod=SigmoidParams(12.0, 6.0))
    base.update(kw)
    return StsSpringParams(**base)


class TestGaitSprings:
    def test_extension_zero_at_equilibrium(self):
        tau_ext, _ = gait_spring_torques(0.1, gait_params())
        assert tau_ext == 0.0

    def test_extension_formula(self):
        p = gait_params(k_ext=50.0, theta_ext_eq=0.1)
        tau_ext, _ = gait_spring_torques(-0.3, p)
        assert tau_ext == pytest.approx(-20.0, abs=1e-12)

    def test_flexion_clamped_wrong_direction(self):
        p = gait_params(k_flex=40.0, theta_flex_eq=0.2)
        _, tau_flex = gait_spring_torques(0.5, p)
        assert tau_flex == 0.0

    def test_sts_zero_at_zero_thigh(self):
        assert sts_spring_torque(0.0, sts_params()) == 0.0

    def test_sts_formula(self):
        assert sts_spring_torque(0.8, sts_params(k_sts=20.0)) \
            == pytest.approx(-16.0, abs=1e-12)

    def test_sts_unidirectional(self):
        assert sts_spring_torque(-0.2, sts_params(k_sts=77.0)) == 0.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            gait_params(k_ext=-1.0)
        with pytest.raises(ValueError):
            gait_params(theta_ext_eq=2.5)  # outside joint range
        with pytest.raises(ValueError):
            sts_params(k_sts=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make, name", [(gait_params, "k_ext"),
                                            (gait_params, "k_flex"),
                                            (sts_params, "k_sts")])
    def test_non_finite_stiffness_rejected(self, make, name, value):
        # a NaN stiffness made the scalar twin return 0 Nm (min(0.0, nan) is
        # 0.0) while the series twin returned NaN
        with pytest.raises(ValueError, match=name):
            make(**{name: value})

    def test_velocity_sanity_bound(self):
        # the kernels take plain floats; the bound is enforced once, at the
        # controller's frame gate, which faults a frame at or past it
        def fault(vel):
            frame = SensorFrame(0.0, 0.1, 0.1, vel, 0.0, 0.1, 0.1, 0.0)
            return HipController(load_params("default")).step(frame).left.fault

        assert fault(VEL_BOUND) and fault(-30.0)
        assert not fault(math.nextafter(VEL_BOUND, 0.0))


class TestVelocityFactors:
    def test_midpoint_at_zero(self):
        p = gait_params(vel_mod_ext=SigmoidParams(-3.0, 0.0),
                        vel_mod_flex=SigmoidParams(3.0, 0.0))
        eta_ext, eta_flex = gait_velocity_factors(0.0, p)
        assert eta_ext == pytest.approx(0.5, abs=1e-12)
        assert eta_flex == pytest.approx(0.5, abs=1e-12)

    def test_extension_factor_saturates_during_extension(self):
        p = gait_params(vel_mod_ext=SigmoidParams(-3.0, 2.0))
        eta_ext, _ = gait_velocity_factors(-50.0 / 3.0, p)
        assert eta_ext > 0.999999

    def test_closed_form(self):
        p = gait_params(vel_mod_flex=SigmoidParams(3.0, 1.0))
        _, eta_flex = gait_velocity_factors(1.0, p)
        assert eta_flex == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)


class TestComposedTorques:
    def test_zero_torques_give_zero(self):
        p = gait_params()
        assert gait_torque(0.15, 0.0, p) == pytest.approx(
            gait_velocity_factors(0.0, p)[1] * gait_spring_torques(0.15, p)[1])

    def test_weighted_sum(self):
        p = gait_params(theta_ext_eq=0.1, k_ext=50.0,
                        vel_mod_ext=SigmoidParams(-3.0, 0.0),
                        vel_mod_flex=SigmoidParams(3.0, 0.0))
        # tau_ext = -20, tau_flex = 40*(0.2+0.3) = 20
        tau = gait_torque(-0.3, 0.0, p)
        assert tau == pytest.approx(0.5 * -20.0 + 0.5 * 20.0, abs=1e-12)

    def test_sts_modulated_formula(self):
        p = sts_params(k_sts=20.0, vel_mod=SigmoidParams(-4.0, 0.0),
                       torso_mod=SigmoidParams(12.0, 0.0))
        # tau_sts = -16, both factors 0.5 at zero input
        assert sts_modulated_torque(
            sts_spring_torque(0.8, p), 0.0, 0.0, p) == pytest.approx(
            -4.0, abs=1e-12)

    def test_sts_torso_floor_when_upright(self):
        # torso input clamps at 0: factor = 1/(1+e^phi), a fixed floor
        p = sts_params(torso_mod=SigmoidParams(12.0, 6.0))
        floor = 1.0 / (1.0 + math.exp(6.0))
        base = sts_spring_torque(0.8, p)
        upright = sts_modulated_torque(base, -1.0, -0.4, p)
        assert upright == sts_modulated_torque(base, -1.0, 0.0, p)
        assert abs(upright) <= abs(base) * floor * 1.0001
        assert abs(upright) < 0.003 * abs(base)

    def test_sts_zero_passthrough(self):
        p = sts_params()
        assert sts_modulated_torque(sts_spring_torque(-0.5, p), -3.0, 0.5,
                                    p) == 0.0


class TestProperties:
    def _random_params(self, rng):
        return (
            gait_params(
                k_ext=rng.uniform(0, 120), k_flex=rng.uniform(0, 120),
                theta_ext_eq=rng.uniform(-1.0, 2.2),
                theta_flex_eq=rng.uniform(-1.0, 2.2),
                vel_mod_ext=SigmoidParams(rng.uniform(-10, 10), rng.uniform(-6, 6)),
                vel_mod_flex=SigmoidParams(rng.uniform(-10, 10), rng.uniform(-6, 6))),
            sts_params(
                k_sts=rng.uniform(0, 80),
                vel_mod=SigmoidParams(rng.uniform(-10, 10), rng.uniform(-6, 6)),
                torso_mod=SigmoidParams(rng.uniform(-10, 10), rng.uniform(-6, 6))),
        )

    def test_sign_correctness_fuzz(self):
        rng = np.random.default_rng(42)
        for _ in range(400):
            gp, sp = self._random_params(rng)
            for _ in range(25):
                theta, vel, thigh, torso = (
                    rng.uniform(-1.5, 2.0), rng.uniform(-20, 20),
                    rng.uniform(-1.5, 2.0), rng.uniform(-1.0, 1.0))
                tau_ext, tau_flex = gait_spring_torques(theta, gp)
                assert tau_ext <= 0.0
                assert tau_flex >= 0.0
                assert sts_spring_torque(thigh, sp) <= 0.0
                assert sts_modulated_torque(sts_spring_torque(thigh, sp),
                                            vel, torso, sp) <= 0.0

    def test_modulation_never_amplifies(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            gp, sp = self._random_params(rng)
            theta, vel, thigh, torso = (
                rng.uniform(-1.5, 2.0), rng.uniform(-20, 20),
                rng.uniform(-1.5, 2.0), rng.uniform(-1, 1))
            tau_ext, tau_flex = gait_spring_torques(theta, gp)
            assert abs(gait_torque(theta, vel, gp)) <= \
                abs(tau_ext) + abs(tau_flex) + 1e-12
            tau_sts = sts_spring_torque(thigh, sp)
            assert abs(sts_modulated_torque(tau_sts, vel, torso, sp)) <= \
                abs(tau_sts) + 1e-12

    def test_continuity_on_fine_grid(self):
        gp = gait_params()
        thetas = np.linspace(-0.8, 1.2, 4000)
        taus = [gait_torque(t, 0.3, gp) for t in thetas]
        dtheta = thetas[1] - thetas[0]
        k_bound = (gp.k_ext + gp.k_flex) * dtheta * 1.01
        assert np.max(np.abs(np.diff(taus))) <= k_bound

    def test_zero_kinematics_closed_form_crosscheck(self):
        # independent scalar evaluation of every basis magnitude at rest
        gp = gait_params()
        sp = sts_params()
        eta_ext = 1.0 / (1.0 + math.exp(-(-3.0 * 0.0) + 2.0))
        eta_flex = 1.0 / (1.0 + math.exp(-(3.0 * 0.0) + 1.0))
        tau_ext_expect = min(0.0, 50.0 * (0.0 - 0.1))
        tau_flex_expect = max(0.0, 40.0 * (0.2 - 0.0))
        assert gait_spring_torques(0.0, gp) == (tau_ext_expect, tau_flex_expect)
        assert gait_torque(0.0, 0.0, gp) == pytest.approx(
            eta_ext * tau_ext_expect + eta_flex * tau_flex_expect, abs=1e-12)
        assert sts_modulated_torque(sts_spring_torque(0.0, sp), 0.0, 0.0,
                                    sp) == 0.0

    def test_series_matches_scalar_path(self):
        # with exp_exact (math.exp, as replay passes) every part of the
        # column kernels equals the scalar kernels bit for bit; with the
        # default np.exp, which differs from math.exp in the last bit for
        # some inputs, the torques agree to a relative (and absolute, near
        # 0 Nm) tolerance of 1e-12
        tol = dict(rel=1e-12, abs=1e-12)
        rng = np.random.default_rng(44)
        gp, sp = self._random_params(rng)
        n = 64
        theta = rng.uniform(-1.0, 1.5, n)
        vel = rng.uniform(-15, 15, n)
        thigh = rng.uniform(-1.0, 1.5, n)
        torso = rng.uniform(-0.5, 0.8, n)
        # spring kinks: both gait equilibria, thigh at 0, torso at or below 0
        theta[:4] = gp.theta_ext_eq
        theta[4:8] = gp.theta_flex_eq
        thigh[8:16] = 0.0
        torso[16:24] = [0.0, -0.0, *-rng.uniform(0.0, 1.0, 6)]
        # saturated sigmoids, |z| > EXP_CLAMP; both gait rows of the one
        # (2, N) sigmoid pass go past the cap and below -EXP_CLAMP
        vel[24:32] = rng.choice([-1.0, 1.0], 8) * 10.0 ** rng.uniform(4, 8, 8)
        vel[40:44] = [1e8, -1e8, 1e6, -1e6]
        torso[32:40] = 10.0 ** rng.uniform(4, 8, 8)
        for m, x in ((sp.vel_mod, vel), (sp.torso_mod, np.maximum(0.0, torso))):
            assert np.any(np.abs(-m.w * x + m.phi) > EXP_CLAMP)
        for m in (gp.vel_mod_ext, gp.vel_mod_flex):
            z = -m.w * vel + m.phi
            assert np.any(z > EXP_CLAMP) and np.any(z < -EXP_CLAMP)

        def hexes(values):
            return [float(v).hex() for v in values]

        gait_args = (theta, vel)
        sts_args = (thigh, vel, torso)
        gait_cols = gait_torque_series(*gait_args, gp, exp_exact)
        sts_cols = sts_torque_series(*sts_args, sp, exp_exact)
        gait_np = gait_torque_series(*gait_args, gp)
        gait_vec = gait_np[-1]
        sts_vec = sts_torque_series(*sts_args, sp)[-1]
        # each row of the (2, N) pass is the one-row sigmoid column under
        # either exp, saturated samples included
        for exp, cols in ((exp_exact, gait_cols), (np.exp, gait_np)):
            for m, eta in ((gp.vel_mod_ext, cols[2]),
                           (gp.vel_mod_flex, cols[3])):
                assert eta.tobytes() == sigmoid_array(vel, m, exp).tobytes()
                z = -m.w * vel + m.phi
                top, bottom = 1.0 / (1.0 + exp(np.array([-EXP_CLAMP,
                                                         EXP_CLAMP])))
                assert (eta[z < -EXP_CLAMP] == top).all()
                assert (eta[z > EXP_CLAMP] == bottom).all()
        for i in range(n):
            th, om = (float(a[i]) for a in gait_args)
            gait_parts = (*gait_spring_torques(th, gp),
                          *gait_velocity_factors(om, gp),
                          gait_torque(th, om, gp))
            assert hexes(gait_parts) == hexes(c[i] for c in gait_cols)
            sts_in = [float(a[i]) for a in sts_args]
            tau_sts = sts_spring_torque(sts_in[0], sp)
            sts_parts = (tau_sts,
                         sts_modulated_torque(tau_sts, *sts_in[1:], sp))
            assert hexes(sts_parts) == hexes(c[i] for c in sts_cols)
            assert gait_parts[-1] == pytest.approx(gait_vec[i], **tol)
            assert sts_parts[-1] == pytest.approx(sts_vec[i], **tol)
