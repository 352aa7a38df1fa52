"""Outcome computation: cosine similarity, biological-moment subtraction,
joint power, positive work, peak power, and ensemble averages.

Works are mass-normalized (J/kg), powers W/kg, moments Nm/kg. Exoskeleton
torque arrives in Nm and is divided by body mass where it meets the
biological side. All functions are pure.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .csvio import LoadError, read_columns, write_csv
from .gaitdata import (CH_ANKLE_MOMENT, CH_ANKLE_VEL, CH_EXO, CH_HIP_MOMENT,
                       CH_HIP_VEL, CH_KNEE_MOMENT, CH_KNEE_VEL, StrideSeries)
from .signals import integrate_positive


def cosine_similarity(a, b) -> float:
    """Normalized inner product of two equal-length series, in [-1, 1].

    ``nan`` when either input has zero norm (similarity undefined). Raises
    ``ValueError`` for length mismatch or length < 2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size < 2:
        raise ValueError("need at least 2 samples")
    na, nb = float(np.linalg.norm(a)), float(np.linalg.norm(b))
    if not (na > 0.0 and nb > 0.0):
        return float("nan")
    sim = float(np.dot(a, b) / (na * nb))
    return min(1.0, max(-1.0, sim))


def biological_moment(net_moment, exo_torque, mass: float) -> np.ndarray:
    """Biological contribution: net moment (Nm/kg) minus exo torque (Nm)
    over body mass."""
    if not mass > 0:
        raise ValueError("mass must be > 0")
    net = np.asarray(net_moment, dtype=float)
    exo = np.asarray(exo_torque, dtype=float)
    if net.shape != exo.shape:
        raise ValueError(f"length mismatch: {net.shape} vs {exo.shape}")
    return net - exo / mass


def joint_power(moment, velocity) -> np.ndarray:
    """Elementwise moment * velocity (W/kg for mass-normalized moments)."""
    m = np.asarray(moment, dtype=float)
    v = np.asarray(velocity, dtype=float)
    if m.shape != v.shape:
        raise ValueError(f"length mismatch: {m.shape} vs {v.shape}")
    return m * v


def positive_work(power, cycle_duration: float) -> float:
    """Positive-power integral over the de-normalized cycle time, J/kg."""
    p = np.asarray(power, dtype=float)
    if not cycle_duration > 0:
        raise ValueError("cycle_duration must be > 0")
    dt = cycle_duration / (p.size - 1)
    return integrate_positive(p, dt)


def peak_positive(power) -> float:
    """Largest positive value of a power series (0 if none positive)."""
    p = np.asarray(power, dtype=float)
    if p.size == 0:
        raise ValueError("empty power series")
    return max(float(np.max(p)), 0.0)


def ensemble_average(strides: list[StrideSeries], channel: str):
    """Pointwise mean and sample (n-1) standard deviation of one channel."""
    if len(strides) < 2:
        raise ValueError("need at least 2 strides for an ensemble")
    n = strides[0].n
    if any(s.n != n for s in strides):
        raise ValueError("strides must share the same grid")
    data = np.stack([s.channels[channel] for s in strides])
    return data.mean(axis=0), data.std(axis=0, ddof=1)


@dataclass
class TaskEnergetics:
    """Per-task, per-condition outcome row of the energetics report."""

    task: str                 # display code, e.g. "RA 11"
    condition: str            # "unassisted" | "assisted"
    hip_work: float           # J/kg, biological hip positive work
    lowerlimb_work: float     # J/kg, hip + knee + ankle
    peak_bio_power: float     # W/kg
    peak_total_power: float   # W/kg, biological + exoskeleton
    mean_extension_scale: float
    sim: float                # exo vs biological profile similarity (nan if n/a)
    n_strides: int
    hip_intensive: bool


REPORT_COLUMNS = tuple(f.name for f in fields(TaskEnergetics))

CONDITIONS = ("unassisted", "assisted")

# the TaskEnergetics means over strides that a task's pair compares
COMPARED = ("hip_work", "lowerlimb_work", "peak_bio_power", "peak_total_power")

PAIRED_COLUMNS = ("task", *(f"{COMPARED[0]}_{c}" for c in CONDITIONS),
                  *(f"{q}_change_pct" for q in COMPARED),
                  "sim", "mean_extension_scale")


def _parse_flag(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"expected 0 or 1, got {cell!r}")
    return cell == "1"


def _parse_condition(cell: str) -> str:
    if cell not in CONDITIONS:
        raise ValueError(f"expected one of {list(CONDITIONS)}, got {cell!r}")
    return cell


# cell codec per annotated field type: floats via repr for exact round-trips
_CELL_PARSE = {f.name: {"str": str, "float": float, "int": int,
                        "bool": _parse_flag}[f.type]
               for f in fields(TaskEnergetics)}
_CELL_PARSE["condition"] = _parse_condition


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


def stride_energetics(stride: StrideSeries) -> dict:
    """Single-stride outcomes; uses the exo_torque channel when present."""
    mass = stride.body_mass
    vel = stride.channels[CH_HIP_VEL]
    net = stride.channels[CH_HIP_MOMENT]
    exo = stride.channels.get(CH_EXO)
    if exo is None:
        bio = net
        exo_power = np.zeros_like(net)
    else:
        bio = biological_moment(net, exo, mass)
        exo_power = joint_power(exo / mass, vel)

    bio_power = joint_power(bio, vel)
    total_power = bio_power + exo_power
    out = {
        "hip_work": positive_work(bio_power, stride.cycle_duration),
        "peak_bio_power": peak_positive(bio_power),
        "peak_total_power": peak_positive(total_power),
        "exo_power": exo_power,
        "bio_power": bio_power,
    }

    lower = out["hip_work"]
    for mom_ch, vel_ch in ((CH_KNEE_MOMENT, CH_KNEE_VEL),
                           (CH_ANKLE_MOMENT, CH_ANKLE_VEL)):
        if mom_ch in stride.channels and vel_ch in stride.channels:
            p = joint_power(stride.channels[mom_ch], stride.channels[vel_ch])
            lower += positive_work(p, stride.cycle_duration)
    out["lowerlimb_work"] = lower

    out["sim"] = (float("nan") if exo is None
                  else cosine_similarity(exo / mass, bio))
    return out


def task_energetics(strides: list[StrideSeries], condition: str,
                    mean_extension_scale: float) -> TaskEnergetics:
    """Average per-stride outcomes over one task's stride set, with the
    replay's mean extension scale as measured by the caller."""
    if not strides:
        raise ValueError("empty stride set")
    per = [stride_energetics(s) for s in strides]
    mean = lambda key: float(np.mean([p[key] for p in per]))
    sims = [p["sim"] for p in per if np.isfinite(p["sim"])]
    label = strides[0].label
    return TaskEnergetics(
        task=label.code,
        condition=condition,
        **{q: mean(q) for q in COMPARED},
        mean_extension_scale=mean_extension_scale,
        sim=float(np.mean(sims)) if sims else float("nan"),
        n_strides=len(strides),
        hip_intensive=label.is_hip_intensive,
    )


def write_report(rows: list[TaskEnergetics], path, header_lines=()):
    write_csv(path, REPORT_COLUMNS,
              ([_cell(getattr(row, c)) for c in REPORT_COLUMNS] for row in rows),
              header_lines)


def read_report(path) -> list[TaskEnergetics]:
    """The rows of a ``report.csv``. A ``condition`` other than
    ``unassisted`` or ``assisted``, or a second row for one (task,
    condition), raises :class:`LoadError` naming the file."""
    columns = read_columns(path, "report", _CELL_PARSE)
    rows = [TaskEnergetics(*row) for row in zip(*columns.values())]
    seen = set()
    for i, row in enumerate(rows):
        if (row.task, row.condition) in seen:
            raise LoadError(f"{path}: bad report row: data row {i + 1} "
                            f"repeats task {row.task!r} {row.condition}")
        seen.add((row.task, row.condition))
    return rows


def percent_change(assisted: float, unassisted: float) -> float:
    """(assisted - unassisted) / unassisted * 100; negative means reduction."""
    if unassisted == 0:
        return float("nan")
    return (assisted - unassisted) / unassisted * 100.0


def paired_summary(rows: list[TaskEnergetics]) -> dict[str, tuple]:
    """{task: (unassisted row, assisted row)} in the order tasks first
    appear in ``rows``, with ``None`` for a condition the task lacks."""
    pairs: dict[str, list] = {}
    for row in rows:
        pairs.setdefault(row.task, [None, None])[
            CONDITIONS.index(row.condition)] = row
    return {task: tuple(pair) for task, pair in pairs.items()}


def write_paired(pairs: dict[str, tuple], path, header_lines=()):
    """paired.csv: a row of :data:`PAIRED_COLUMNS` for each task in
    ``pairs`` that has both conditions, its floats written with ``repr``;
    ``sim`` and ``mean_extension_scale`` are the assisted row's."""
    rows = []
    for task, (un, ex) in pairs.items():
        if un is None or ex is None:
            continue
        values = (getattr(un, COMPARED[0]), getattr(ex, COMPARED[0]),
                  *(percent_change(getattr(ex, q), getattr(un, q))
                    for q in COMPARED),
                  ex.sim, ex.mean_extension_scale)
        rows.append([task, *map(repr, values)])
    write_csv(path, PAIRED_COLUMNS, rows, header_lines)
