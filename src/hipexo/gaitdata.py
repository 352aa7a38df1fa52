"""Dataset ingestion, stride segmentation, time normalization, and synthetic
multi-activity profile generation.

Internal units are rad, rad/s, Nm/kg, N/kg, and seconds. CSV inputs are
adapted through a schema map (column names + units), so exports of different
public datasets can be used without code changes; :func:`load_trial` reads
data only, through a map checked against :data:`hipexo.configio.SCHEMA`.
Synthetic profiles stand in for normative datasets when none are on disk:
smooth periodic kinematic and moment profiles per activity, with seeded
inter-stride jitter, drawn through a periodic cubic spline written in numpy.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .csvio import LoadError, float_cells, read_columns, write_csv
from .signals import BiquadSpec, SigmoidParams, lowpass_zero_lag
from .springs import (VEL_BOUND, GaitSpringParams, StsSpringParams,
                      gait_torque_series, sts_torque_series)

G = 9.80665  # m/s^2, used for bodyweight-relative force units

# canonical channel names
CH_HIP_ANGLE = "hip_angle"
CH_HIP_VEL = "hip_vel"
CH_HIP_ANGLE_CON = "hip_angle_contra"
CH_HIP_VEL_CON = "hip_vel_contra"
CH_THIGH = "thigh_angle"
CH_THIGH_CON = "thigh_angle_contra"
CH_TORSO = "torso_angle"
CH_HIP_MOMENT = "hip_moment"
CH_KNEE_MOMENT = "knee_moment"
CH_ANKLE_MOMENT = "ankle_moment"
CH_KNEE_VEL = "knee_vel"
CH_ANKLE_VEL = "ankle_vel"
CH_GRF = "grf_vertical"
CH_THIGH_ACC = "thigh_accel"
CH_THIGH_ACC_CON = "thigh_accel_contra"
CH_PELVIS_ACC = "pelvis_accel"
CH_EXO = "exo_torque"
CHANNELS = (CH_HIP_ANGLE, CH_HIP_VEL, CH_HIP_ANGLE_CON, CH_HIP_VEL_CON,
            CH_THIGH, CH_THIGH_CON, CH_TORSO, CH_HIP_MOMENT, CH_KNEE_MOMENT,
            CH_ANKLE_MOMENT, CH_KNEE_VEL, CH_ANKLE_VEL, CH_GRF, CH_THIGH_ACC,
            CH_THIGH_ACC_CON, CH_PELVIS_ACC, CH_EXO)

REQUIRED_CHANNELS = (CH_HIP_ANGLE, CH_HIP_VEL, CH_THIGH, CH_THIGH_CON,
                     CH_TORSO, CH_HIP_MOMENT)

KINEMATIC_CHANNELS = (CH_HIP_ANGLE, CH_HIP_VEL, CH_HIP_ANGLE_CON,
                      CH_HIP_VEL_CON, CH_THIGH, CH_THIGH_CON, CH_TORSO,
                      CH_KNEE_VEL, CH_ANKLE_VEL)

KINDS = ("level-walk", "ramp-ascent", "ramp-descent",
         "stair-ascent", "stair-descent", "sit-to-stand")

_CODES = {"level-walk": "LG", "ramp-ascent": "RA", "ramp-descent": "RD",
          "stair-ascent": "SA", "stair-descent": "SD", "sit-to-stand": "STS"}

HIP_INTENSIVE = ("level-walk", "ramp-ascent", "stair-ascent", "sit-to-stand")


@dataclass(frozen=True)
class ActivityLabel:
    """Task identity: kind plus its parameter (speed m/s, grade deg, or
    step height m; unused for sit-to-stand)."""

    kind: str
    parameter: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown activity kind {self.kind!r}")
        p = self.parameter
        if self.kind == "level-walk" and not 0 < p <= 3.0:
            raise ValueError(f"walking speed {p} m/s out of range")
        if self.kind.startswith("ramp") and not 0 < p <= 45.0:
            raise ValueError(f"ramp grade {p} deg out of range")
        if self.kind.startswith("stair") and not 0 < p <= 0.4:
            raise ValueError(f"step height {p} m out of range")

    @property
    def code(self) -> str:
        """Short display code, e.g. 'LG 0.85', 'RA 11', 'SD 7', 'STS'."""
        abbr = _CODES[self.kind]
        if self.kind == "sit-to-stand":
            return abbr
        if self.kind.startswith("stair"):
            return f"{abbr} {round(self.parameter / 0.0254):g}"  # inches
        p = self.parameter
        return f"{abbr} {p:g}"

    @property
    def is_descent(self) -> bool:
        return self.kind in ("ramp-descent", "stair-descent")

    @property
    def is_hip_intensive(self) -> bool:
        return self.kind in HIP_INTENSIVE

    @property
    def is_gait(self) -> bool:
        return self.kind != "sit-to-stand"

    @classmethod
    def parse(cls, text: str) -> "ActivityLabel":
        """Parse 'kind' or 'kind:parameter', e.g. 'ramp-ascent:11'."""
        if ":" in text:
            kind, param = text.split(":", 1)
            return cls(kind.strip(), float(param))
        return cls(text.strip())


class TaskCodeError(ValueError):
    """Raised when two tasks share a display code."""


def check_codes(named):
    """Raise :class:`TaskCodeError` naming the first two (name,
    ActivityLabel) pairs whose labels share a display code, the key of task
    files and report rows."""
    seen = {}
    for name, label in named:
        if label.code in seen:
            raise TaskCodeError(f"{seen[label.code]} and {name} share the "
                                f"task code {label.code!r}")
        seen[label.code] = name


@dataclass
class StrideSeries:
    """One time-normalized activity cycle: channel grids over 0-100%, and
    the one check of any stride: equal-length grids of 2+ finite samples,
    the required channels, finite positive mass and duration, and hip
    velocities inside the frame gate's bound, |value| < VEL_BOUND. So
    every frame that replay interpolates from a stride passes the gate."""

    label: ActivityLabel
    channels: dict[str, np.ndarray]
    body_mass: float        # kg
    cycle_duration: float   # s
    stance_fraction: float | None = None
    condition: str = "unassisted"

    def __post_init__(self):
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) != 1:
            raise ValueError(f"channel grids differ in length: {sorted(lengths)}")
        d, m = self.cycle_duration, self.body_mass
        if not (0 < d < math.inf and 0 < m < math.inf):
            raise ValueError("cycle_duration and body_mass must be finite and "
                             f"> 0, got {d} and {m}")
        missing = [c for c in REQUIRED_CHANNELS if c not in self.channels]
        if missing:
            raise ValueError(f"stride missing required channels: {missing}")
        if (n := lengths.pop()) < 2:
            raise ValueError(f"channel {next(iter(self.channels))!r} has {n} "
                             "data row(s), not 2 or more")
        finite = np.isfinite(np.concatenate(list(self.channels.values())))
        if not finite.all():   # the first bad cell, in channel order
            k, row = divmod(int(finite.argmin()), n)
            name, grid = list(self.channels.items())[k]
            raise ValueError(f"channel {name!r} holds {grid[row]} at data row "
                             f"{row + 1}")
        for name in (CH_HIP_VEL, CH_HIP_VEL_CON):
            grid = self.channels.get(name)
            if grid is not None and (over := np.abs(grid) >= VEL_BOUND).any():
                row = int(over.argmax())
                raise ValueError(f"channel {name!r} holds {grid[row]} at data "
                                 f"row {row + 1}, at or past the hip "
                                 f"velocity bound {VEL_BOUND} rad/s")

    @property
    def n(self) -> int:
        return len(self.channels[CH_HIP_ANGLE])

    def contra(self, name: str) -> np.ndarray:
        """Contralateral counterpart of a channel.

        Uses the stored contra channel when present; otherwise shifts the
        ipsilateral channel by half a cycle for gait tasks, or mirrors it
        for the bilateral sit-to-stand.
        """
        mapping = {CH_HIP_ANGLE: CH_HIP_ANGLE_CON, CH_HIP_VEL: CH_HIP_VEL_CON,
                   CH_THIGH: CH_THIGH_CON, CH_THIGH_ACC: CH_THIGH_ACC_CON}
        con = mapping.get(name)
        if con is not None and con in self.channels:
            return self.channels[con]
        base = self.channels[name]
        if not self.label.is_gait:
            return base
        half = (self.n - 1) // 2
        return np.concatenate([base[half:], base[1:half + 1]])

    def copy_with(self, **extra_channels) -> "StrideSeries":
        return replace(self, channels={**self.channels, **{
            k: np.asarray(v, dtype=float) for k, v in extra_channels.items()}})


@dataclass
class RawTrial:
    """Uniformly sampled multi-channel recording, already in internal units."""

    sample_rate_hz: float
    channels: dict[str, np.ndarray]
    meta: dict   # body_mass and label, stance_fraction where known


# --- schema-mapped CSV ingestion -----------------------------------------

_UNIT_SCALE = {
    "rad": 1.0, "deg": math.pi / 180.0,
    "rad/s": 1.0, "deg/s": math.pi / 180.0,
    "nm/kg": 1.0, "n/kg": 1.0,
    "m/s^2": 1.0, "m/s2": 1.0,
}
_MASS_UNITS = {"nm", "n"}   # divided by body mass on load
_BW_UNITS = {"bw"}          # bodyweight-relative force: multiplied by g

MAX_NAN_RUN = 5


def _convert(values: np.ndarray, unit: str, body_mass: float) -> np.ndarray:
    u = unit.strip().lower()
    if u in _UNIT_SCALE:
        return values * _UNIT_SCALE[u]
    if u in _MASS_UNITS:
        return values / body_mass
    if u in _BW_UNITS:
        return values * G
    raise LoadError(f"unsupported unit {unit!r}")


def _fill_short_nan_runs(values: np.ndarray, column: str) -> np.ndarray:
    bad = ~np.isfinite(values)
    if not bad.any():
        return values
    idx = np.flatnonzero(bad)
    splits = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
    for run in splits:
        if len(run) > MAX_NAN_RUN:
            raise LoadError(
                f"column {column!r} has a NaN run of {len(run)} samples "
                f"(max {MAX_NAN_RUN})")
    good = np.flatnonzero(~bad)
    if len(good) < 2:
        raise LoadError(f"column {column!r} has too few valid samples")
    out = values.copy()
    out[bad] = np.interp(np.flatnonzero(bad), good, values[good])
    return out


def load_trial(path, schema: dict) -> RawTrial:
    """Read a one-header-row CSV through a checked schema map into
    internal units, low-passed by :func:`filter_trial` if the map has a
    ``prefilter`` section. An empty cell reads as NaN. Missing columns,
    short rows, cells that are not numbers, unknown units and NaN runs
    longer than 5 samples raise :class:`LoadError`.
    """
    specs = {canonical: spec for canonical, spec in schema["columns"].items()
             if spec is not None}
    cells = read_columns(path, "trial", {
        spec["name"]: lambda cell: float(cell) if cell.strip() else math.nan
        for spec in specs.values()})
    mass = schema["body_mass_kg"]
    channels = {canonical: _convert(_fill_short_nan_runs(
                    np.array(cells[spec["name"]]), spec["name"]),
                    spec["unit"], mass)
                for canonical, spec in specs.items()}
    trial = RawTrial(schema["sample_rate_hz"], channels, {
        "body_mass": mass, "label": schema["task"],
        "stance_fraction": schema["stance_fraction"]})
    if schema["prefilter"] is not None:
        filter_trial(trial, **schema["prefilter"])
    return trial


def filter_trial(trial: RawTrial, kinematics_hz: float, moments_hz: float,
                 grf_hz: float):
    """Zero-lag low-pass of the raw uniform grid, in place.

    Applied before segmentation, never after resampling: the filter's
    semantics need uniform time sampling.
    """
    for name, series in trial.channels.items():
        if name == CH_GRF:
            cutoff = grf_hz
        elif name in (CH_HIP_MOMENT, CH_KNEE_MOMENT, CH_ANKLE_MOMENT, CH_EXO):
            cutoff = moments_hz
        elif name in KINEMATIC_CHANNELS:
            cutoff = kinematics_hz
        else:
            continue
        trial.channels[name] = lowpass_zero_lag(
            series, BiquadSpec(cutoff, trial.sample_rate_hz))


# --- stride segmentation and normalization --------------------------------

STRIDE_DURATION_SANE = (0.4, 5.0)  # seconds
HS_GRF_FRACTION = 0.05  # heel-strike threshold, fraction of bodyweight
HS_DEBOUNCE_S = 0.2     # crossings closer than this to the last are chatter
MIN_SAMPLES = 50        # fewest samples a normalized stride may have


def segment_strides(trial: RawTrial) -> list[tuple[int, int]]:
    """Heel strikes at upward crossings of a bodyweight-fraction GRF
    threshold; strides are consecutive HS-to-HS index ranges.

    Requires the vertical GRF channel (N/kg). Crossings within the debounce
    window of the previous one are chatter and ignored. Strides outside the
    [0.4, 5] s sanity window are kept but flagged with a warning.
    """
    if CH_GRF not in trial.channels:
        raise LoadError("segmentation requires the vertical GRF channel")
    grf = trial.channels[CH_GRF]
    thr = HS_GRF_FRACTION * G  # N/kg per unit bodyweight
    above = grf >= thr
    crossings = np.flatnonzero(~above[:-1] & above[1:]) + 1
    debounce = int(round(HS_DEBOUNCE_S * trial.sample_rate_hz))
    events = []
    for i in crossings:
        if not events or i - events[-1] >= debounce:
            events.append(int(i))
    if len(events) < 2:
        raise LoadError(f"found {len(events)} heel strikes, need at least 2")
    ranges = [(events[k], events[k + 1]) for k in range(len(events) - 1)]
    for i0, i1 in ranges:
        dur = (i1 - i0) / trial.sample_rate_hz
        if not STRIDE_DURATION_SANE[0] <= dur <= STRIDE_DURATION_SANE[1]:
            warnings.warn(f"stride [{i0}, {i1}] lasts {dur:.2f} s, outside "
                          f"the {STRIDE_DURATION_SANE} s sanity window")
    return ranges


def normalize_stride(trial: RawTrial, stride_range: tuple[int, int],
                     n_samples: int = 101) -> StrideSeries:
    """Linear-interpolation resample of a :func:`segment_strides` range onto
    a uniform 0-100% grid of ``n_samples`` >= MIN_SAMPLES (dataset table)."""
    i0, i1 = stride_range
    src = np.arange(i0, i1 + 1, dtype=float)
    dst = np.linspace(i0, i1, n_samples)
    channels = {name: np.interp(dst, src, series[i0:i1 + 1])
                for name, series in trial.channels.items()}
    return StrideSeries(
        label=trial.meta["label"],
        channels=channels,
        body_mass=trial.meta["body_mass"],
        cycle_duration=(i1 - i0) / trial.sample_rate_hz,
        stance_fraction=trial.meta.get("stance_fraction"),
    )


# --- stride file round-trip ------------------------------------------------

def stride_meta_path(path) -> Path:
    path = Path(path)
    return path.with_name(path.stem + ".meta.json")


def save_stride(stride: StrideSeries, path, header_lines=(), cells=None):
    """Write a stride as CSV (repr floats, bit-exact round-trip) plus a JSON
    metadata sidecar.

    ``cells``, a dict that the caller passes to several calls, keeps each
    channel's formatted cells under its name beside the array they came
    from. A channel whose array is that same object, as after
    :meth:`StrideSeries.copy_with`, is written from them rather than
    formatted again; the caller must not change such an array in place
    between the calls.
    """
    path = Path(path)
    names = sorted(stride.channels)
    cells = {} if cells is None else cells
    for name in names:
        column = stride.channels[name]
        kept = cells.get(name)
        if kept is None or kept[0] is not column:
            cells[name] = (column, float_cells(column))
    write_csv(path, names, zip(*(cells[name][1] for name in names), strict=True),
              header_lines)
    meta = {
        "kind": stride.label.kind,
        "parameter": stride.label.parameter,
        "body_mass": stride.body_mass,
        "cycle_duration": stride.cycle_duration,
        "stance_fraction": stride.stance_fraction,
        "condition": stride.condition,
    }
    with open(stride_meta_path(path), "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)


def load_stride(path) -> StrideSeries:
    """Reload a stride written by :func:`save_stride` (bit-identical grids).
    A sidecar that is not JSON or lacks ``kind`` or a number it needs, and
    a stride that :class:`StrideSeries` rejects, raise :class:`LoadError`."""
    path = Path(path)
    meta_path = stride_meta_path(path)
    if not meta_path.exists():
        raise LoadError(f"missing metadata sidecar {meta_path}")
    channels = {name: np.array(cells)
                for name, cells in read_columns(path, "stride").items()}
    try:
        with open(meta_path) as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError("sidecar is not a JSON object")
        for key in ("parameter", "body_mass", "cycle_duration"):
            if type(meta.get(key)) not in (int, float):   # None, str and bool
                raise ValueError(f"sidecar {key} must be a number, "
                                 f"got {meta.get(key)!r}")
        return StrideSeries(
            label=ActivityLabel(meta.get("kind"), float(meta["parameter"])),
            channels=channels,
            body_mass=float(meta["body_mass"]),
            cycle_duration=float(meta["cycle_duration"]),
            stance_fraction=meta.get("stance_fraction"),
            condition=meta.get("condition", "unassisted"),
        )
    except (OverflowError, ValueError) as exc:   # float() of a huge int
        raise LoadError(f"{path}: {exc}") from exc


# --- synthetic activity profiles ------------------------------------------

SYNTH_N = 201  # grid length of generated strides


def _periodic(xk, yk, x):
    """Value and phase derivative at ``x`` of the periodic C2 cubic spline
    through the knots ``(xk, yk)`` closed at phase 1 (three knots or more).

    A port of scipy 1.17's ``CubicSpline(bc_type="periodic")`` evaluated
    through ``PPoly``: it repeats scipy's floating-point operations in the
    same order, so the synthetic strides, and the artifact digests the
    benchmark records from them, are bit-identical to the scipy version.
    """
    xs = np.append(np.asarray(xk, dtype=float), 1.0)
    ys = np.asarray(yk, dtype=float)
    ys = np.append(ys, ys[0])
    dx = np.diff(xs)
    slope = np.diff(ys) / dx
    s = _periodic_slopes(dx, slope)
    # Hermite coefficients, highest power first, as CubicHermiteSpline
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], ys[:-1]
    # PPoly's periodic wrap; each interval is closed on the left, the last
    # one on both sides
    x = x % 1.0
    x = xs[0] + (x - xs[0]) % (xs[-1] - xs[0])
    i = np.minimum(np.searchsorted(xs, x, side="right") - 1, xs.size - 2)
    h = x - xs[i]
    hh = h * h
    # PPoly sums powers of h from the constant term up; this is not Horner
    value = ((0.0 + c3[i]) + c2[i] * h) + c1[i] * hh + c0[i] * (hh * h)
    slope_at = ((0.0 + c2[i]) + (2.0 * c1)[i] * h) + (3.0 * c0)[i] * hh
    return value, slope_at


def _periodic_slopes(dx, slope) -> np.ndarray:
    """Knot slopes of the periodic spline, closing knot included.

    Row j of the cyclic system is ``dx[j] s[j-1] + 2 (dx[j-1] + dx[j]) s[j]
    + dx[j-1] s[j+1] = 3 (dx[j] slope[j-1] + dx[j-1] slope[j])`` over the
    n - 1 distinct knots, indices mod n - 1. As scipy does, the last
    unknown is condensed out: two tridiagonal solves of the leading
    n - 2 rows, then a back-substitution for it.
    """
    dxm = np.roll(dx, 1)                  # dx[j - 1]
    rhs = 3 * (dx * np.roll(slope, 1) + dxm * slope)
    diag = (2 * (dxm + dx))[:-1].tolist()
    upper = dxm[:-2].tolist()
    lower = dx[1:-1].tolist()
    m = len(diag)
    s1 = _solve_tridiagonal(lower, diag, upper, rhs[:-1].tolist())
    s2 = _solve_tridiagonal(lower, diag, upper,
                            [-dx[0]] + [0.0] * (m - 2) + [-dx[-3]])
    a_m1_0, a_m1_m2 = dx[-2], dx[-1]
    s_m1 = ((rhs[-1] - a_m1_0 * s1[0] - a_m1_m2 * s1[-1])
            / (2 * (dx[-1] + dx[-2]) + a_m1_0 * s2[0] + a_m1_m2 * s2[-1]))
    s = np.empty(m + 2)
    s[:-2] = np.array(s1) + s_m1 * np.array(s2)
    s[-2] = s_m1
    s[-1] = s[0]
    return s


def _solve_tridiagonal(lower, diag, upper, b) -> list:
    """LAPACK ``dgtsv`` without row interchanges, for one right-hand side.

    ``dgtsv`` swaps rows only where ``|diag[i]| < |lower[i]|`` during the
    elimination. That never happens for the knot phases of
    ``_GAIT_SHAPES``, and the spline system is strictly diagonally dominant
    by rows (2 (dx- + dx+) > dx- + dx+), so elimination without pivoting is
    stable on any knots. The ``0.0 * b[i + 2]`` term is the second
    superdiagonal that ``dgtsv`` zeroes on rows it does not swap; it can
    flip the sign of a zero.
    """
    d, b = list(diag), list(b)
    m = len(d)
    for i in range(m - 1):
        fact = lower[i] / d[i]
        d[i + 1] = d[i + 1] - fact * upper[i]
        b[i + 1] = b[i + 1] - fact * b[i]
    b[m - 1] = b[m - 1] / d[m - 1]
    b[m - 2] = (b[m - 2] - upper[m - 2] * b[m - 1]) / d[m - 2]
    for i in range(m - 3, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1] - 0.0 * b[i + 2]) / d[i]
    return b


def _bump(x, center, width):
    """Raised-cosine bump of unit height, wrapped periodically."""
    d = (np.asarray(x) - center + 0.5) % 1.0 - 0.5
    out = np.zeros_like(d)
    m = np.abs(d) < width / 2
    out[m] = 0.5 * (1.0 + np.cos(2.0 * np.pi * d[m] / width))
    return out


def _smoothstep(x, x0, x1):
    s = np.clip((np.asarray(x, dtype=float) - x0) / (x1 - x0), 0.0, 1.0)
    return s * s * (3.0 - 2.0 * s)


# reference basis used to synthesize spring-consistent normative moments for
# hip-intensive tasks (the family a velocity-modulated spring can deliver);
# descent tasks blend in an out-of-family eccentric component so their
# profiles are deliberately harder to track
_REF_GAIT = GaitSpringParams(
    k_ext=45.0, k_flex=35.0, theta_ext_eq=0.45, theta_flex_eq=0.30,
    vel_mod_ext=SigmoidParams(-3.0, 4.0), vel_mod_flex=SigmoidParams(3.5, 3.0))
_REF_STS = StsSpringParams(
    k_sts=27.0, vel_mod=SigmoidParams(-4.0, 2.0),
    torso_mod=SigmoidParams(12.0, 4.0))
_REF_SCALE = 20.0  # Nm per Nm/kg

# per-kind shape tables: keypoint phases/values for the hip angle, the
# descent eccentric moment component, HS spike gains, and timing constants
_GAIT_SHAPES = {
    "level-walk": dict(
        xa=[0.00, 0.12, 0.30, 0.50, 0.62, 0.80, 0.92],
        ya=[0.52, 0.38, 0.08, -0.16, 0.02, 0.48, 0.57],
        duration=1.35, stance=0.62, torso=0.06,
        thigh_spike=25.0, pelvis_spike=5.0,
    ),
    "ramp-ascent": dict(
        xa=[0.00, 0.12, 0.30, 0.50, 0.62, 0.80, 0.92],
        ya=[0.62, 0.46, 0.12, -0.10, 0.06, 0.56, 0.66],
        duration=1.25, stance=0.62, torso=0.12,
        thigh_spike=25.0, pelvis_spike=5.0,
    ),
    "stair-ascent": dict(
        xa=[0.00, 0.12, 0.32, 0.52, 0.64, 0.82, 0.92],
        ya=[0.82, 0.62, 0.18, -0.04, 0.10, 0.70, 0.86],
        duration=1.45, stance=0.64, torso=0.15,
        thigh_spike=25.0, pelvis_spike=5.0,
    ),
    "ramp-descent": dict(
        xa=[0.00, 0.12, 0.30, 0.50, 0.62, 0.80, 0.92],
        ya=[0.30, 0.24, 0.06, -0.09, 0.00, 0.24, 0.32],
        xe=[0.00, 0.08, 0.22, 0.38, 0.52, 0.66, 0.80, 0.92],
        ye=[0.00, -0.10, 0.18, 0.42, 0.28, 0.08, -0.02, 0.00],
        ecc_mix=1.0,
        duration=1.20, stance=0.62, torso=0.02,
        thigh_spike=25.0, pelvis_spike=8.0,
    ),
    "stair-descent": dict(
        xa=[0.00, 0.15, 0.35, 0.50, 0.65, 0.85],
        ya=[0.12, 0.09, 0.01, 0.035, 0.02, 0.10],
        xe=[0.00, 0.08, 0.25, 0.42, 0.58, 0.72, 0.88],
        ye=[0.00, 0.10, 0.35, 0.30, 0.05, -0.05, 0.00],
        ecc_mix=1.3,
        duration=1.30, stance=0.64, torso=0.00,
        thigh_spike=7.5, pelvis_spike=18.0,  # attenuated thigh signature
    ),
}

_ACC_BASE_THIGH = 3.0   # m/s^2 baseline oscillation of the thigh channel
_IMU_THIGH_AMP = 0.3    # rad thigh-angle swing of synth_imu_stream
_IMU_LEAD_IN_S = 1.5    # s before synth_imu_stream's first heel strike
_ACC_BASE_PELVIS = 0.8
_SPIKE_WIDTH = 0.030    # fraction of cycle


def _grade_scale(label: ActivityLabel) -> tuple[float, float]:
    """Mild amplitude scalings (kinematics, moment) from the task parameter."""
    if label.kind == "level-walk":
        s = 0.85 + 0.18 * label.parameter
        return s, s
    if label.kind == "ramp-ascent":
        return 1.0 + 0.008 * label.parameter, 1.0 + 0.02 * label.parameter
    if label.kind == "ramp-descent":
        # steeper descent: shorter steps, stronger braking moment
        return max(0.4, 1.0 - 0.045 * label.parameter), 1.0 + 0.015 * label.parameter
    if label.kind.startswith("stair"):
        return 0.8 + 1.4 * label.parameter, 0.8 + 1.6 * label.parameter
    return 1.0, 1.0


def synth_profiles(label: ActivityLabel, seed: int,
                   n_samples: int = SYNTH_N, body_mass: float = 70.0) -> StrideSeries:
    """One synthetic stride for the given activity, deterministic per seed.

    Gait tasks are smooth periodic profiles with a biphasic hip moment and
    heel-strike acceleration signatures; sit-to-stand is a single seated-to-
    standing transition with a forward torso lean. Seeded jitter perturbs
    amplitude and timing for inter-stride variability.
    """
    rng = np.random.default_rng(seed)
    if label.kind == "sit-to-stand":
        return _synth_sts(label, rng, n_samples, body_mass)
    return _synth_gait(label, rng, n_samples, body_mass)


def _synth_gait(label, rng, n, body_mass):
    shape = _GAIT_SHAPES[label.kind]
    kin_scale, mom_scale = _grade_scale(label)
    kin_scale *= 1.0 + 0.04 * rng.standard_normal()
    mom_scale *= 1.0 + 0.04 * rng.standard_normal()
    if label.kind == "level-walk":
        duration = 1.45 - 0.35 * label.parameter
    else:
        duration = shape["duration"]
    duration *= 1.0 + 0.03 * rng.standard_normal()

    x = np.linspace(0.0, 1.0, n)
    hip, dhip = _periodic(shape["xa"], np.asarray(shape["ya"]) * kin_scale, x)
    hip_vel = dhip / duration

    torso = shape["torso"] + 0.02 * np.sin(2 * np.pi * 2 * x)
    thigh = hip - torso
    hip_con, dhip_con = _periodic(shape["xa"],
                                  np.asarray(shape["ya"]) * kin_scale,
                                  x + 0.5)
    thigh_con = hip_con - torso

    # normative hip moment: the reference-spring profile on these
    # kinematics, plus an out-of-family eccentric component for descent and
    # a small smooth residual for realism
    spring = gait_torque_series(hip, hip_vel, _REF_GAIT)[-1] / _REF_SCALE
    residual_amp = 0.02 * float(np.max(np.abs(spring)))
    residual = residual_amp * (np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi))
                               + 0.5 * np.sin(4 * np.pi * x
                                              + rng.uniform(0, 2 * np.pi)))
    if label.is_descent:
        ecc, _ = _periodic(shape["xe"], shape["ye"], x)
        ecc *= shape["ecc_mix"] * np.linalg.norm(spring) / np.linalg.norm(ecc)
        moment = spring + ecc
        # renormalize to a plausible descent demand
        moment *= mom_scale * 0.35 / np.max(np.abs(moment))
    else:
        moment = mom_scale * (spring + residual)

    stance = shape["stance"]
    s = np.clip(x / stance, 0.0, 1.0)
    env = _smoothstep(x, 0.0, 0.07) * (1.0 - _smoothstep(x, stance - 0.07, stance))
    grf = np.where(x <= stance,
                   G * env * (1.05 - 0.15 * np.cos(2 * np.pi * s)), 0.0)
    grf = np.maximum(grf, 0.0)

    if label.kind == "stair-descent":
        # cautious descent: thigh deceleration bottoms out at contact, so the
        # (already weak) spike rides a baseline trough
        base_phase = -np.pi / 2 + 0.1 * rng.standard_normal()
    else:
        base_phase = rng.uniform(0, 2 * np.pi)
    thigh_acc = (_ACC_BASE_THIGH * np.sin(2 * np.pi * 2 * x + base_phase)
                 + 0.2 * rng.standard_normal(n)
                 + shape["thigh_spike"] * _bump(x, 0.0, _SPIKE_WIDTH))
    thigh_acc_con = (_ACC_BASE_THIGH * np.sin(2 * np.pi * 2 * x + base_phase + 1.1)
                     + 0.2 * rng.standard_normal(n)
                     + shape["thigh_spike"] * _bump(x, 0.5, _SPIKE_WIDTH))
    pelvis_acc = (_ACC_BASE_PELVIS * np.abs(np.sin(2 * np.pi * 2 * x))
                  + 0.1 * rng.standard_normal(n)
                  + shape["pelvis_spike"] * (_bump(x, 0.0, _SPIKE_WIDTH)
                                             + _bump(x, 0.5, _SPIKE_WIDTH)))

    knee_vel = 2.0 * np.sin(2 * np.pi * (x + 0.1))
    knee_moment = 0.5 * mom_scale * np.sin(2 * np.pi * (x + 0.1))
    ankle_vel = -1.5 * np.sin(2 * np.pi * (x + 0.3))
    ankle_moment = -0.9 * mom_scale * np.sin(np.pi * np.clip(x / stance, 0, 1)) ** 2

    channels = {
        CH_HIP_ANGLE: hip, CH_HIP_VEL: hip_vel,
        CH_HIP_ANGLE_CON: hip_con, CH_HIP_VEL_CON: dhip_con / duration,
        CH_THIGH: thigh, CH_THIGH_CON: thigh_con, CH_TORSO: torso,
        CH_HIP_MOMENT: moment,
        CH_KNEE_MOMENT: knee_moment, CH_KNEE_VEL: knee_vel,
        CH_ANKLE_MOMENT: ankle_moment, CH_ANKLE_VEL: ankle_vel,
        CH_GRF: grf,
        CH_THIGH_ACC: thigh_acc, CH_THIGH_ACC_CON: thigh_acc_con,
        CH_PELVIS_ACC: pelvis_acc,
    }
    return StrideSeries(label, channels, body_mass, duration,
                        stance_fraction=stance)


def _synth_sts(label, rng, n, body_mass):
    duration = 2.6 * (1.0 + 0.04 * rng.standard_normal())
    amp = 1.0 + 0.04 * rng.standard_normal()
    x = np.linspace(0.0, 1.0, n)

    thigh = 1.35 * amp * (1.0 - _smoothstep(x, 0.25, 0.72)) + 0.03
    torso = 0.06 + 0.38 * amp * np.exp(-((x - 0.33) / 0.16) ** 2)
    hip = thigh + torso
    dx = x[1] - x[0]
    hip_vel = np.gradient(hip, dx) / duration

    # normative moment from the reference STS spring on these kinematics
    moment = sts_torque_series(thigh, hip_vel, torso, _REF_STS)[-1] / _REF_SCALE
    moment += 0.01 * np.sin(2 * np.pi * x + rng.uniform(0, 2 * np.pi))
    grf = G * (0.55 + 0.45 * _smoothstep(x, 0.3, 0.6))
    knee_vel = np.gradient(1.6 * (1.0 - _smoothstep(x, 0.3, 0.75)), dx) / duration
    knee_moment = -0.7 * amp * np.exp(-((x - 0.5) / 0.16) ** 2)
    ankle_vel = np.gradient(0.2 * _smoothstep(x, 0.35, 0.8), dx) / duration
    ankle_moment = -0.35 * amp * _smoothstep(x, 0.35, 0.7)

    quiet = 0.1 * rng.standard_normal((3, n))
    channels = {
        CH_HIP_ANGLE: hip, CH_HIP_VEL: hip_vel,
        CH_HIP_ANGLE_CON: hip.copy(), CH_HIP_VEL_CON: hip_vel.copy(),
        CH_THIGH: thigh, CH_THIGH_CON: thigh.copy(), CH_TORSO: torso,
        CH_HIP_MOMENT: moment,
        CH_KNEE_MOMENT: knee_moment, CH_KNEE_VEL: knee_vel,
        CH_ANKLE_MOMENT: ankle_moment, CH_ANKLE_VEL: ankle_vel,
        CH_GRF: grf,
        CH_THIGH_ACC: quiet[0], CH_THIGH_ACC_CON: quiet[1],
        CH_PELVIS_ACC: np.abs(quiet[2]),
    }
    return StrideSeries(label, channels, body_mass, duration,
                        stance_fraction=None)


DEFAULT_BATTERY = (
    "level-walk:0.85", "level-walk:1.15",
    "ramp-ascent:5.2", "ramp-ascent:11",
    "stair-ascent:0.127", "stair-ascent:0.178",
    "ramp-descent:5.2", "ramp-descent:11",
    "stair-descent:0.127", "stair-descent:0.178",
    "sit-to-stand",
)


def synth_battery(tasks=DEFAULT_BATTERY, strides_per_task: int = 3,
                  seed: int = 7, body_mass: float = 70.0
                  ) -> dict[ActivityLabel, list[StrideSeries]]:
    """Deterministic multi-activity stride battery keyed by label. Tasks
    that share a display code, one task listed twice included, raise
    :class:`TaskCodeError` before any stride is made."""
    labels = [task if isinstance(task, ActivityLabel)
              else ActivityLabel.parse(task) for task in tasks]
    check_codes((f"{label.kind}:{label.parameter!r}", label)
                for label in labels)
    return {label: [synth_profiles(label, seed + 1000 * i + j, SYNTH_N,
                                   body_mass)
                    for j in range(strides_per_task)]
            for i, label in enumerate(labels)}


# --- synthetic IMU streams for detector scoring ----------------------------

def synth_imu_stream(duration_s: float, rate_hz: float = 250.0, seed: int = 0,
                     stride_period_s: float = 1.05, thigh_spike: float = 25.0,
                     pelvis_spike: float = 5.0):
    """Raw detector-input stream with known heel-strike times.

    Returns (frames, truth) where frames is a dict of uniformly sampled
    arrays (t, thigh_accel_l/r, pelvis_accel, thigh_angle_l/r) and truth is
    a list of (side, time) ground-truth events. Spikes are raised cosines of
    ~36 ms width; stride periods jitter a few percent per cycle.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate_hz))
    t = np.arange(n) / rate_hz

    events = []
    side = "left"
    tk = _IMU_LEAD_IN_S
    while tk < duration_s - 0.5:
        events.append((side, tk))
        tk += stride_period_s / 2 * (1.0 + 0.04 * rng.standard_normal())
        side = "right" if side == "left" else "left"

    width_s = 0.036
    thigh_l = _ACC_BASE_THIGH * np.sin(2 * np.pi * 1.9 * t) \
        + 0.2 * rng.standard_normal(n)
    thigh_r = _ACC_BASE_THIGH * np.sin(2 * np.pi * 1.9 * t + 1.3) \
        + 0.2 * rng.standard_normal(n)
    pelvis = _ACC_BASE_PELVIS * np.abs(np.sin(2 * np.pi * 1.9 * t)) \
        + 0.1 * rng.standard_normal(n)

    def add_spike(arr, t0, amp):
        i0 = int(np.floor((t0 - width_s / 2) * rate_hz))
        i1 = int(np.ceil((t0 + width_s / 2) * rate_hz))
        for i in range(max(0, i0), min(n, i1 + 1)):
            d = (t[i] - t0) / width_s
            if abs(d) < 0.5:
                arr[i] += amp * 0.5 * (1.0 + np.cos(2 * np.pi * d))

    for side_k, t0 in events:
        arr = thigh_l if side_k == "left" else thigh_r
        add_spike(arr, t0, thigh_spike)
        add_spike(pelvis, t0, pelvis_spike)

    def locked_angle(side_k):
        # cosine peaking exactly at this side's contacts, so the striking
        # leg always leads at its own events; virtual events one period
        # beyond each end keep the phase advancing at the stream edges
        times = [tk for s_k, tk in events if s_k == side_k]
        if len(times) < 2:
            return np.full(n, 0.1 + _IMU_THIGH_AMP)
        period = float(np.median(np.diff(times)))
        times = [times[0] - period] + times + [times[-1] + period]
        phase = np.interp(t, times, np.arange(len(times), dtype=float))
        return 0.1 + _IMU_THIGH_AMP * np.cos(2 * np.pi * phase)

    frames = {"t": t, "thigh_accel_l": thigh_l, "thigh_accel_r": thigh_r,
              "pelvis_accel": pelvis,
              "thigh_angle_l": locked_angle("left"),
              "thigh_angle_r": locked_angle("right")}
    return frames, events
