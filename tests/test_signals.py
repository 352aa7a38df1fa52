import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from hipexo.signals import (BiquadSpec, LowpassFilter, SigmoidParams,
                            exp_exact, integrate_positive, lowpass_zero_lag,
                            neg_part, pos_part, sigmoid, sigmoid_array,
                            zero_lag_pad_len)


class TestSigmoid:
    def test_zero_input_zero_offset(self):
        assert sigmoid(0.0, SigmoidParams(1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_closed_form(self):
        # 1 / (1 + e^-2)
        assert sigmoid(2.0, SigmoidParams(1.0, 0.0)) == pytest.approx(
            1.0 / (1.0 + math.exp(-2.0)), abs=1e-15)

    def test_saturation(self):
        assert sigmoid(1e6, SigmoidParams(1.0, 0.0)) == pytest.approx(1.0)
        assert sigmoid(-1e6, SigmoidParams(1.0, 0.0)) == pytest.approx(0.0)
        # huge inputs may not overflow
        assert math.isfinite(sigmoid(1e308, SigmoidParams(-2.0, 3.0)))

    def test_bounds_and_monotonicity(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = rng.uniform(-20, 20)
            phi = rng.uniform(-10, 10)
            x = np.sort(rng.uniform(-50, 50, 40))
            y = sigmoid_array(x, SigmoidParams(w, phi))
            # strictly positive everywhere; saturates to exactly 1.0 at
            # double precision once the exponent passes ~37
            assert np.all((y > 0) & (y <= 1))
            z = -w * x + phi
            interior = np.abs(z) < 36
            assert np.all(y[interior] < 1)
            dy = np.diff(y)
            if w > 0:
                assert np.all(dy >= -1e-15)  # monotone up to rounding
            elif w < 0:
                assert np.all(dy <= 1e-15)

    def test_vector_matches_scalar(self):
        p = SigmoidParams(-3.3, 2.1)
        x = np.linspace(-4, 4, 17)
        vec = sigmoid_array(x, p)
        for xi, yi in zip(x, vec):
            # np.exp and math.exp may differ in the last ulp
            assert sigmoid(float(xi), p) == pytest.approx(yi, rel=1e-15)
        # exp_exact maps math.exp, so the column is the scalar bit for bit,
        # also at both exponent clamps
        x = np.concatenate([np.random.default_rng(5).uniform(-40, 40, 5000),
                            [0.0, -0.0, 1e300, -1e300]])
        assert sigmoid_array(x, p, exp_exact).tobytes() == np.array(
            [sigmoid(v, p) for v in x.tolist()]).tobytes()

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError):
            SigmoidParams(float("nan"), 0.0)


class TestZeroSign:
    """neg_part/pos_part give scalar min(0.0, v)/max(0.0, v) with the same
    zero sign (+0.0 for a -0.0 input), over lengths and unaligned offsets
    that reach numpy's SIMD loops and their tails."""

    @pytest.mark.parametrize("offset", [0, 1, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 33, 1000, 100_003])
    def test_matches_scalar_min_max(self, n, offset):
        rng = np.random.default_rng(n + offset)
        pick = rng.integers(0, 4, n + offset)
        values = np.choose(pick, [np.zeros(n + offset),
                                  np.full(n + offset, -0.0),
                                  -rng.uniform(1e-300, 5.0, n + offset),
                                  rng.uniform(1e-300, 5.0, n + offset)])
        x = values[offset:]
        assert np.signbit(x[x == 0.0]).any() or n < 16
        assert neg_part(x).tobytes() == np.array(
            [min(0.0, v) for v in x.tolist()]).tobytes()
        assert pos_part(x).tobytes() == np.array(
            [max(0.0, v) for v in x.tolist()]).tobytes()


class TestCausalLowpass:
    def test_dc_gain(self):
        f = LowpassFilter(BiquadSpec(10.0, 250.0))
        y = 0.0
        for _ in range(3000):
            y = f.step(1.0)
        assert y == pytest.approx(1.0, abs=1e-6)

    def test_zero_input_zero_state(self):
        f = LowpassFilter(BiquadSpec(5.0, 250.0))
        assert all(f.step(0.0) == 0.0 for _ in range(100))

    def test_cutoff_attenuation_by_sweep(self):
        # steady-state amplitude at the cutoff must be -3 dB (0.7071)
        fs, fc = 250.0, 10.0
        f = LowpassFilter(BiquadSpec(fc, fs))
        t = np.arange(int(8 * fs)) / fs
        x = np.sin(2 * np.pi * fc * t)
        y = np.array([f.step(v) for v in x])
        tail = y[int(4 * fs):]
        ratio = np.max(np.abs(tail))
        assert 20 * np.log10(ratio) == pytest.approx(-3.0103, abs=0.2)

    def test_bounded_output_for_bounded_input(self):
        rng = np.random.default_rng(3)
        f = LowpassFilter(BiquadSpec(10.0, 250.0))
        x = rng.uniform(-1, 1, 20000)
        y = np.array([f.step(v) for v in x])
        assert np.max(np.abs(y)) < 2.0

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BiquadSpec(130.0, 250.0)  # above Nyquist
        with pytest.raises(ValueError):
            BiquadSpec(0.0, 250.0)


# samples of either sign, zeros of both signs and a subnormal among them
SAMPLE = strategies.one_of(
    strategies.sampled_from((0.0, -0.0, 1.0, -1.0, 5e-324)),
    strategies.floats(-1e6, 1e6))


def state_hex(f):
    return f.z1.hex(), f.z2.hex()


class TestRunContract:
    """``run`` is ``step`` over each sample in order, bit for bit, and
    leaves ``z1`` and ``z2`` where the steps leave them, so a second
    ``run`` or ``step`` goes on from there."""

    @settings(max_examples=200, derandomize=True, database=None)
    @given(cutoff=strategies.floats(0.5, 100.0),
           xs=strategies.lists(SAMPLE, max_size=60),
           prime=strategies.one_of(strategies.none(), SAMPLE),
           reverse=strategies.booleans())
    @example(cutoff=10.0, xs=[], prime=None, reverse=False)
    @example(cutoff=10.0, xs=[], prime=0.4, reverse=True)
    @example(cutoff=10.0, xs=[0.3, -1.2, 2.5], prime=None, reverse=False)
    @example(cutoff=10.0, xs=[0.3, -1.2, 2.5], prime=-0.7, reverse=True)
    def test_run_is_step(self, cutoff, xs, prime, reverse):
        spec = BiquadSpec(cutoff, 250.0)
        ran, stepped = LowpassFilter(spec), LowpassFilter(spec)
        if prime is not None:
            ran.prime(prime)
            stepped.prime(prime)
        x = np.array(xs, dtype=float)
        if reverse:
            x = x[::-1]
        want = np.array([stepped.step(v) for v in x.tolist()], dtype=float)
        got = ran.run(x)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert state_hex(ran) == state_hex(stepped)
        # the stored state carries on into the next call
        assert ran.step(0.5).hex() == stepped.step(0.5).hex()


class TestZeroLag:
    def test_constant_series_unchanged(self):
        spec = BiquadSpec(6.0, 100.0)
        x = np.full(500, 3.7)
        y = lowpass_zero_lag(x, spec)
        assert y == pytest.approx(x, abs=1e-9)
        assert len(y) == len(x)

    def test_sine_below_cutoff_same_phase_and_amplitude(self):
        fs, fc = 250.0, 6.0
        t = np.arange(2000) / fs
        x = np.sin(2 * np.pi * 1.2 * t)  # fc/5
        y = lowpass_zero_lag(x, BiquadSpec(fc, fs))
        core = slice(250, 1750)
        assert np.max(np.abs(y[core] - x[core])) < 0.01
        # zero phase: cross-correlation peak at lag 0
        lags = range(-5, 6)
        xc = [np.dot(np.roll(y, k)[core], x[core]) for k in lags]
        assert lags[int(np.argmax(xc))] == 0

    def test_impulse_response_symmetric(self):
        spec = BiquadSpec(10.0, 250.0)
        x = np.zeros(401)
        x[200] = 1.0
        y = lowpass_zero_lag(x, spec)
        left = y[200 - 40:200]
        right = y[200 + 1:200 + 41][::-1]
        assert left == pytest.approx(right, abs=1e-9)

    def test_series_too_short(self):
        spec = BiquadSpec(6.0, 250.0)
        with pytest.raises(ValueError):
            lowpass_zero_lag(np.zeros(zero_lag_pad_len(spec)), spec)


class TestIntegratePositive:
    def test_all_negative_is_zero(self):
        p = np.full(21, -1.0)
        assert integrate_positive(p, 0.1) == 0.0

    def test_constant_positive(self):
        p = np.full(21, 1.0)
        assert integrate_positive(p, 0.1) == pytest.approx(2.0, abs=1e-12)

    def test_half_sine_analytic(self):
        dt = 1e-4
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        p = np.sin(2 * np.pi * t)
        assert integrate_positive(p, dt) == pytest.approx(1.0 / np.pi, abs=1e-4)

    def test_abs_partition_identity_dyadic(self):
        # dyadic samples and dt keep every product exact: the positive and
        # negative parts then partition the trapezoid of |P| bit-for-bit
        rng = np.random.default_rng(5)
        p = rng.integers(-8, 9, 129).astype(float) * 0.25
        dt = 0.125
        pos = integrate_positive(p, dt)
        neg = integrate_positive(-p, dt)
        h = 0.5 * dt
        a = np.abs(p)
        total = float(np.sum(h * a[:-1] + h * a[1:]))
        assert pos + neg == total

    def test_abs_partition_identity_general(self):
        rng = np.random.default_rng(6)
        p = rng.normal(0, 2, 500)
        dt = 0.004
        h = 0.5 * dt
        a = np.abs(p)
        total = float(np.sum(h * a[:-1] + h * a[1:]))
        got = integrate_positive(p, dt) + integrate_positive(-p, dt)
        assert got == pytest.approx(total, rel=1e-14)

    def test_shift_property(self):
        rng = np.random.default_rng(7)
        p = rng.normal(0, 1, 200)
        base = integrate_positive(p, 0.01)
        for c in (0.1, 1.0, 3.0):
            assert base >= integrate_positive(p - c, 0.01)
