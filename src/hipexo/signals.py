"""Shared numeric kernels: sigmoid modulation (scalar and column), the
column zero-sign rules, Butterworth low-pass filters (causal streaming and
zero-lag batch), and positive-work integration.

The causal filter steps one sample at a time for the live controller
(``LowpassFilter.step``) and runs a whole column for replay and the
zero-lag pass (``LowpassFilter.run``): a generator kernel with the same
statements, which ``np.fromiter`` drives from C.

All kernels are either pure functions or operate on caller-owned state, so
they are safe to use from multiple simulation workers on disjoint state.
:func:`integrate_positive` takes the powers of strides that
``StrideSeries`` accepted, and checks nothing again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# upper cap on the exp() argument, against overflow; there is no lower cap,
# as below about -37 ``1 / (1 + exp(z))`` is already exactly 1.0, and past
# -745 exp underflows to 0.0 (which numpy's default errstate ignores)
EXP_CLAMP = 500.0


@dataclass
class SigmoidParams:
    """Slope w (1/unit-of-input) and horizontal offset phi of a logistic curve."""

    w: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.w) and math.isfinite(self.phi)):
            raise ValueError("sigmoid parameters must be finite")


def sigmoid(x: float, p: SigmoidParams) -> float:
    """Logistic curve 1 / (1 + exp(-w*x + phi)).

    Strictly monotone in x for w != 0, output in (0, 1]. The exponent is
    capped at EXP_CLAMP from above only, so it cannot overflow and the
    output stays strictly above 0. Below about -37 the output is exactly
    1.0, so no lower cap is needed: saturation is exact at any exponent.
    """
    z = -p.w * x + p.phi
    if z > EXP_CLAMP:
        z = EXP_CLAMP
    return 1.0 / (1.0 + math.exp(z))


def sigmoid_array(x, p: SigmoidParams, exp=np.exp) -> np.ndarray:
    """:func:`sigmoid` over a column, with ``exp`` mapping the clamped
    exponent column. With :func:`exp_exact` it equals :func:`sigmoid` bit
    for bit, as replay needs; the optimizer and stride synthesis keep the
    faster ``np.exp``, which can differ from ``math.exp`` in the last bit."""
    z = np.multiply(-p.w, np.asarray(x, dtype=float))
    z += p.phi
    return logistic_inplace(z, exp)


def logistic_inplace(z: np.ndarray, exp=np.exp) -> np.ndarray:
    """``1 / (1 + exp(z))`` of a float exponent array of any shape after
    the EXP_CLAMP upper cap: :func:`sigmoid`'s last steps, in its operation
    order, saturating to exactly 1.0 below the cap as it does. Every step
    overwrites ``z``, which the caller hands over, so ``exp`` must take
    ``out`` as ``np.exp`` and :func:`exp_exact` do."""
    np.minimum(z, EXP_CLAMP, out=z)
    exp(z, out=z)
    z += 1.0
    return np.divide(1.0, z, out=z)


def exp_exact(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``math.exp`` of each element of a float array of any shape, written
    to ``out`` when it is given, as ``np.exp`` does."""
    e = np.fromiter(map(math.exp, z.ravel().tolist()), float,
                    z.size).reshape(z.shape)
    if out is None:
        return e
    out[...] = e
    return out


# min(0.0, v) and max(0.0, v) per element, with the same zero sign: on a
# tie numpy returns the second argument, so -0.0 gives +0.0 as it does
# there. ``out`` may be ``x`` itself.
def neg_part(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.minimum(x, 0.0, out=out)


def pos_part(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


@dataclass
class BiquadSpec:
    """Second-order Butterworth low-pass design point.

    The same section is used causally (order 2) and forward-backward
    (net order 4, zero phase).
    """

    cutoff_hz: float
    sample_rate_hz: float

    def __post_init__(self):
        # also rejects a sample rate that is not > 0
        if not 0 < self.cutoff_hz < self.sample_rate_hz / 2:
            raise ValueError(
                f"cutoff_hz must lie in (0, {self.sample_rate_hz / 2}), "
                f"got {self.cutoff_hz}"
            )


def butter2_lowpass_coeffs(spec: BiquadSpec) -> tuple[float, float, float, float, float]:
    """Coefficients (b0, b1, b2, a1, a2) of a 2nd-order Butterworth low-pass.

    Bilinear transform with cutoff pre-warping, Q = 1/sqrt(2); unit DC gain
    by construction and exactly -3 dB at the cutoff frequency.
    """
    omega = math.tan(math.pi * spec.cutoff_hz / spec.sample_rate_hz)
    q = 1.0 / math.sqrt(2.0)
    a0 = 1.0 + omega / q + omega * omega
    b0 = omega * omega / a0
    b1 = 2.0 * b0
    b2 = b0
    a1 = 2.0 * (omega * omega - 1.0) / a0
    a2 = (1.0 - omega / q + omega * omega) / a0
    return b0, b1, b2, a1, a2


class LowpassFilter:
    """Causal 2nd-order Butterworth low-pass, stepped one sample at a time.

    Direct form II transposed; state is owned by the caller's instance, so
    independent filters never interact.
    """

    def __init__(self, spec: BiquadSpec):
        self.spec = spec
        self.b0, self.b1, self.b2, self.a1, self.a2 = butter2_lowpass_coeffs(spec)
        self.z1 = 0.0
        self.z2 = 0.0

    def step(self, x: float) -> float:
        y = self.b0 * x + self.z1
        self.z1 = self.b1 * x - self.a1 * y + self.z2
        self.z2 = self.b2 * x - self.a2 * y
        return y

    def run(self, x: np.ndarray) -> np.ndarray:
        """``step`` over each sample of ``x`` in order, as float64, bit
        for bit, leaving ``z1`` and ``z2`` where the steps leave them."""
        return np.fromiter(self._steps(x.tolist()), float)

    def _steps(self, xs):
        # step's statements on local variables, so np.fromiter drives the
        # loop from C; the state is stored back once the samples run out,
        # which needs the generator exhausted (np.fromiter without a count)
        b0, b1, b2, a1, a2 = self.b0, self.b1, self.b2, self.a1, self.a2
        z1, z2 = self.z1, self.z2
        for x in xs:
            y = b0 * x + z1
            z1 = b1 * x - a1 * y + z2
            z2 = b2 * x - a2 * y
            yield y
        self.z1, self.z2 = z1, z2

    def prime(self, value: float):
        """Set the internal state to the DC steady state for ``value``."""
        self.z1 = value * (1.0 - self.b0)
        self.z2 = value * (self.b2 - self.a2)


def zero_lag_pad_len(spec: BiquadSpec) -> int:
    """Reflect-pad length (one filter warm-up) used by :func:`lowpass_zero_lag`."""
    return int(math.ceil(2.0 * spec.sample_rate_hz / spec.cutoff_hz))


def lowpass_zero_lag(signal, spec: BiquadSpec) -> np.ndarray:
    """Zero-phase low-pass: forward-backward pass of the order-2 section.

    Net 4th-order magnitude response, zero phase. Edges are handled by
    mirror-padding one warm-up length and priming the filter state at the
    first padded sample, which suppresses end transients on short strides.

    Raises ``ValueError`` when the series is shorter than the warm-up length.
    """
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a 1-D series")
    pad = zero_lag_pad_len(spec)
    if x.size <= pad:
        raise ValueError(
            f"series of length {x.size} is too short for zero-lag filtering "
            f"(needs > {pad} samples at {spec.cutoff_hz} Hz cutoff)"
        )

    head = x[pad:0:-1]
    tail = x[-2:-pad - 2:-1]
    xp = np.concatenate([head, x, tail])

    def _one_pass(series):
        f = LowpassFilter(spec)
        f.prime(series[0])
        return f.run(series)

    y = _one_pass(xp)
    y = _one_pass(y[::-1])[::-1]
    return y[pad:pad + x.size]


def integrate_positive(power, dt: float) -> float:
    """Trapezoidal integral of max(P, 0) over a uniform grid with spacing dt.

    Per-interval contributions are formed as dt/2*y[i] + dt/2*y[i+1] so that
    the positive and negative parts of a series partition the integral of
    |P| down to individual float products.
    """
    pos = np.maximum(power, 0.0)
    h = 0.5 * dt
    return float(np.sum(h * pos[:-1] + h * pos[1:]))


def clamp(x: float, lo: float, hi: float) -> float:
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x
